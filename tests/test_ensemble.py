import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _partners, check_count, condition_matching, punctured_count, transmitted_count

from scmn import ensemble
from scmn.ensemble import (
    MAX_GRAPH_EDGES,
    EnsembleParams,
    _bad_edges,
    _bit_partners,
    _check_partners,
    _rewire,
    design_rate,
    design_rate_exact,
    sample_graph,
)

P422 = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)


class TestRateFormulas:
    def test_reference_rate(self):
        assert design_rate_exact(P422) == Fraction(11, 24)
        assert design_rate(P422) == pytest.approx(0.458333333333, abs=1e-12)

    def test_limit_is_dr_over_dl(self):
        gaps = [
            abs(design_rate(EnsembleParams(4, 2, 2, L, 2)) - 0.5)
            for L in (10, 100, 1000, 10000)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_params_must_be_integers(self):
        for name in ("dl", "dr", "dg", "L", "w"):
            for bad in (4.5, 2.0, True, "2"):
                values = {"dl": 4, "dr": 2, "dg": 2, "L": 2, "w": 2, name: bad}
                with pytest.raises(ValueError, match=name):
                    EnsembleParams(**values)
        assert EnsembleParams(np.int64(4), 2, 2, np.int64(2), 2).L == 2

    def test_check_count_reference(self):
        assert check_count(P422, 16) == 350

    def test_w1_bracket(self):
        for L in (0, 3, 7):
            p = EnsembleParams(4, 2, 2, L, 1)
            assert check_count(p, 5) == (2 * L + 1) * 5

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=40),
    )
    def test_rate_identity_exact(self, dl, dr, dg, L, w, M):
        params = EnsembleParams(dl, dr, dg, L, w)
        vt = transmitted_count(params, M)
        vp = punctured_count(params, M)
        nc = check_count(params, M)
        assert vt + vp - nc == design_rate_exact(params) * vt


def assert_tables(g):
    """Row k of each bit or check table holds exactly node k's edges, with -1
    at a check's unused sockets."""
    p = g.params
    for ends, table, degree in (
        (g.t1_bit, g.t1_bit_edges, p.dl),
        (g.t2_bit, g.t2_bit_edges, p.dg),
        (g.t1_check, g.t1_check_edges, p.dr),
        (g.t2_check, g.t2_check_edges, p.dg),
    ):
        assert table.shape == (len(table), degree)
        used = table >= 0
        assert np.array_equal(np.sort(table[used]), np.arange(len(ends)))
        assert np.array_equal(ends[table[used]], np.nonzero(used)[0])
    assert g.t1_bit_edges.min() >= 0 and g.t2_bit_edges.min() >= 0
    assert len(g.t1_bit_edges) == g.n_punctured and len(g.t2_bit_edges) == g.n_transmitted
    assert len(g.t1_check_edges) == len(g.t2_check_edges) == g.n_checks


def small_graph(seed=0, M=8, m=2, params=None):
    params = params or EnsembleParams(dl=4, dr=2, dg=2, L=2, w=2)
    return sample_graph(params, M, m, np.random.default_rng(seed))


class TestSampleGraph:
    def test_divisibility_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dl"):
            sample_graph(EnsembleParams(3, 2, 2, 1, 1), 5, 1, rng)
        with pytest.raises(ValueError, match="w"):
            sample_graph(EnsembleParams(1, 1, 1, 1, 2), 5, 1, rng)
        with pytest.raises(ValueError, match="symbol width"):
            sample_graph(EnsembleParams(4, 2, 2, 1, 2), 6, 4, rng)

    def test_symbol_width_validation(self):
        # A width that is not an int >= 1 (bool excluded, as EnsembleParams
        # excludes it) is rejected before any draw.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for bad in (0, -2, 2.0, True):
            with pytest.raises(ValueError, match="symbol width m must be (an integer|>= 1)"):
                sample_graph(P422, 48, bad, rng)
            assert rng.bit_generator.state == state

    def test_section_size_validation(self):
        # Unchecked, M = True would build an M = 1 graph and M = 2.0 would die
        # in numpy: a section size that is not an int (bool excluded) is
        # rejected before any draw.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for bad in (True, 2.0, 48.0):
            with pytest.raises(ValueError, match="M must be an integer"):
                sample_graph(EnsembleParams(1, 1, 1, 2, 1), bad, 1, rng)
            assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="M must be >= 1"):
            sample_graph(P422, 0, 1, rng)
        assert sample_graph(P422, np.int64(48), 6, rng).M == 48

    def test_permuted_sockets_match_shuffle(self):
        # sample_graph draws a section's socket order as one permutation; it
        # indexes the sockets exactly as shuffling them in place would, and
        # leaves the generator in the same state.
        for n, degree in ((1, 1), (12, 2), (1000, 4), (4032, 3)):
            base = np.repeat(np.arange(n), degree)
            shuffled, a, b = base.copy(), np.random.default_rng(n), np.random.default_rng(n)
            a.shuffle(shuffled)
            assert np.array_equal(base[b.permutation(len(base))], shuffled)
            assert a.bit_generator.state == b.bit_generator.state

    # (n, k) of each stack of k shuffled rows of range(n) that sample_graph
    # draws for (4, 2, 2) at L=10/w=2 (21 bit and 22 check sections, 2M
    # sockets per section and degree, M bits per section for the symbols):
    # M=48 is the m=6 pins' and the decode-m6 benchmark's trial, M=2000 the
    # decode-m2 benchmark's. Then single-element rows.
    SHUFFLE_SHAPES = [(96, 21), (96, 22), (48, 21), (4000, 21), (4000, 22), (2000, 21)]
    SHUFFLE_SHAPES += [(1, 1), (1, 4)]

    @pytest.mark.parametrize("n, k", SHUFFLE_SHAPES)
    def test_one_shuffle_call_matches_per_row_permutations(self, n, k):
        # One rng.permuted call over the k tiled rows gives the rows, and
        # leaves the generator state, of k rng.permutation(n) calls in turn;
        # every seeded graph rests on it.
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = np.stack([a.permutation(n) for _ in range(k)])
            one = b.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
            assert one.dtype == rows.dtype and np.array_equal(one, rows)
            assert b.bit_generator.state == a.bit_generator.state

    def test_shuffle_shapes_are_the_trials(self):
        # SHUFFLE_SHAPES holds every shuffle that those trials' graphs draw.
        class Recorder:
            def __init__(self, rng):
                self.rng, self.shapes = rng, set()

            def permuted(self, x, axis):
                self.shapes.add(x.shape[::-1])
                return self.rng.permuted(x, axis=axis)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        for M, m in ((48, 6), (2000, 2)):
            rng = Recorder(np.random.default_rng(0))
            sample_graph(P422, M, m, rng)
            assert rng.shapes <= set(self.SHUFFLE_SHAPES)
            assert len(rng.shapes) == 3

    def test_edge_bound(self):
        # Checked before any socket array is allocated: this graph's would
        # take hundreds of TiB.
        with pytest.raises(ValueError, match=str(MAX_GRAPH_EDGES)):
            sample_graph(P422, 10**12, 2, np.random.default_rng(0))
        # The window study's largest graphs stay inside the bound.
        window = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
        assert (window.dr + window.dg) * 32256 * window.n_sections <= MAX_GRAPH_EDGES

    @pytest.mark.parametrize("dl,dr,dg", [(4, 2, 2), (5, 2, 3), (3, 3, 3), (2, 2, 2), (6, 3, 2), (4, 4, 1)])
    def test_tables_hold_each_nodes_edges(self, dl, dr, dg):
        shapes = [(4, w) for w in (1, 2, 3)] + [(0, 1)]
        for L, w in shapes:
            for M in (12, 60) if (dl, dr, dg) == (4, 2, 2) else (60,):
                assert_tables(small_graph(seed=L + w, M=M, params=EnsembleParams(dl, dr, dg, L, w)))

    def test_degrees_exact(self):
        g = small_graph()
        p = g.params
        assert np.array_equal(
            np.bincount(g.t1_bit, minlength=g.n_punctured),
            np.full(g.n_punctured, p.dl),
        )
        assert np.array_equal(
            np.bincount(g.t2_bit, minlength=g.n_transmitted),
            np.full(g.n_transmitted, p.dg),
        )

    def test_edge_totals(self):
        g = small_graph()
        p = g.params
        assert len(g.t1_bit) == p.dr * g.M * p.n_sections
        assert len(g.t2_bit) == p.dg * g.M * p.n_sections

    def test_quotas_per_section_pair(self):
        for seed in range(5):
            g = small_graph(seed=seed)
            p = g.params
            bsec = g.t1_bit // g.punctured_per_section
            csec = g.t1_check // g.M
            for i in range(p.n_sections):
                for j in range(p.w):
                    count = int(((bsec == i) & (csec == i + j)).sum())
                    assert count == p.dr * g.M // p.w
            bsec2 = g.t2_bit // g.M
            csec2 = g.t2_check // g.M
            for i in range(p.n_sections):
                for j in range(p.w):
                    count = int(((bsec2 == i) & (csec2 == i + j)).sum())
                    assert count == p.dg * g.M // p.w

    def test_boundary_checks_reduced(self):
        # last check section receives only from the last bit section
        g = small_graph()
        p = g.params
        last = p.n_check_sections - 1
        sel1 = g.t1_check // g.M == last
        sel2 = g.t2_check // g.M == last
        assert int(sel1.sum()) == p.dr * g.M // p.w
        assert int(sel2.sum()) == p.dg * g.M // p.w
        assert np.all(g.t1_bit[sel1] // g.punctured_per_section == p.n_sections - 1)
        assert np.all(g.t2_bit[sel2] // g.M == p.n_sections - 1)

    def test_no_out_of_range_ids(self):
        g = small_graph()
        assert g.t1_bit.min() >= 0 and g.t1_bit.max() < g.n_punctured
        assert g.t2_bit.min() >= 0 and g.t2_bit.max() < g.n_transmitted
        assert g.t1_check.min() >= 0 and g.t1_check.max() < g.n_checks

    def test_symbols_partition_section_bits(self):
        g = small_graph()
        assert g.symbols.shape == (g.n_transmitted // g.m, g.m)
        assert sorted(g.symbols.ravel().tolist()) == list(range(g.n_transmitted))
        sections = g.symbols // g.M
        assert np.all(sections == sections[:, :1])

    def test_deterministic_given_seed(self):
        a = small_graph(seed=42)
        b = small_graph(seed=42)
        assert np.array_equal(a.t1_bit, b.t1_bit)
        assert np.array_equal(a.t1_check, b.t1_check)
        assert np.array_equal(a.symbols, b.symbols)


def walk_cycle_reps(bits, checks, max_bits):
    """Reference cycle finder: walk each component edge by edge, alternating
    check and bit, and keep the first edge of each cycle spanning at most
    max_bits bits. Assumes both endpoints have degree <= 2."""
    bit_adj, chk_adj = {}, {}
    for e, (b, c) in enumerate(zip(bits.tolist(), checks.tolist())):
        bit_adj.setdefault(b, []).append(e)
        chk_adj.setdefault(c, []).append(e)
    seen = bytearray(len(bits))
    reps = []
    for e0 in range(len(bits)):
        if seen[e0]:
            continue
        seen[e0] = 1
        e, via_check, length = e0, True, 1
        while True:
            adj = chk_adj[int(checks[e])] if via_check else bit_adj[int(bits[e])]
            nxt = [x for x in adj if x != e]
            if not nxt:
                break  # path component
            e = nxt[0]
            if e == e0:
                if length // 2 <= max_bits:
                    reps.append(e0)
                break
            if seen[e]:
                break
            seen[e] = 1
            length += 1
            via_check = not via_check
    return reps


def parallel_edge_oracle(bits, checks):
    """Every edge of a repeated (bit, check) pair but its lowest-index one,
    ordered by (bit, check, index)."""
    by_pair = {}
    for e, pair in enumerate(zip(bits.tolist(), checks.tolist())):
        by_pair.setdefault(pair, []).append(e)
    return [e for pair in sorted(by_pair) for e in by_pair[pair][1:]]


def bit_table(bits, degree):
    """Row b: the edges of bit b, for bits of exactly that degree."""
    return np.argsort(bits, kind="stable").reshape(-1, degree)


def degree2_edges(n_bits, n_checks, rng):
    """A random edge set of degree-2 bits and checks of degree <= 2, edges in
    a random order; more checks than bits leave some paths, as in a coupled
    graph."""
    bits = rng.permutation(np.repeat(np.arange(n_bits), 2))
    checks = np.repeat(np.arange(n_checks), 2)[rng.permutation(2 * n_checks)[: 2 * n_bits]]
    return bits, checks


class TestConditioning:
    def test_parallel_edge_reps_match_oracle(self):
        # A small check range makes pairs repeat two, three and four times;
        # the per-row search must still give the sorted list.
        rng = np.random.default_rng(5)
        multiplicities = set()
        for n_bits, degree, n_checks in ((10, 4, 3), (60, 5, 6), (1000, 4, 12)):
            for _ in range(20):
                bits = rng.permutation(np.repeat(np.arange(n_bits), degree))
                checks = rng.integers(0, n_checks, size=len(bits))
                want = parallel_edge_oracle(bits, checks)
                assert _bad_edges(bit_table(bits, degree), checks) == want
                _, counts = np.unique(np.stack([bits, checks]), axis=1, return_counts=True)
                multiplicities.update(counts.tolist())
        assert {2, 3, 4} <= multiplicities
        # no repeats
        bits, checks = np.repeat(np.arange(3), 2), np.array([0, 1, 0, 1, 0, 1])
        assert _bad_edges(bit_table(bits, 2), checks) == []
        # a repeat involving edge 0, and one whose copies are far apart
        bits = np.array([3, 1, 2, 3, 1, 0, 3, 2, 0, 1, 2, 0])
        checks = np.array([4, 0, 1, 4, 2, 0, 4, 1, 5, 6, 7, 8])
        assert _bad_edges(bit_table(bits, 3), checks) == [7, 3, 6]
        assert parallel_edge_oracle(bits, checks) == [7, 3, 6]

    def test_cycle_reps_match_walk(self):
        # Unconditioned degree-2 edge sets hold parallel edges (1-bit cycles)
        # and short cycles at every size. Each bit and each check gets two
        # sockets, matched by one seeded permutation; as in a coupled graph
        # there are more checks than bits, so some checks keep open sockets
        # and the edge set holds paths too. The symbol width m does not enter
        # an edge set, so only the section size M varies. The finder lists
        # parallel edges first, then the cycles.
        found = 0
        for M in (2000, 504, 48, 12, 8):
            n_bits, n_checks = P422.n_sections * M, P422.n_check_sections * M
            bits = np.repeat(np.arange(n_bits), 2)
            table = bit_table(bits, 2)
            for seed in range(3):
                order = np.random.default_rng(seed).permutation(2 * n_checks)
                checks = np.repeat(np.arange(n_checks), 2)[order[: 2 * n_bits]]
                at_bit, at_check = _bit_partners(table), _check_partners(checks)
                assert np.array_equal(at_check, _partners(checks))
                parallel = parallel_edge_oracle(bits, checks)
                for max_bits in (1, 2, 4, 8):
                    want = walk_cycle_reps(bits, checks, max_bits)
                    got = _bad_edges(table, checks, None, at_bit, at_check, max_bits)
                    assert got == parallel + want
                    found += len(want)
        assert found > 0

    @pytest.mark.parametrize("degree", [2, 4])
    def test_later_passes_match_full_scan(self, degree):
        # After every bad edge of a pass has been swapped (with random extra
        # swaps, in a random order), the bits of the touched edges hold every
        # violation left: the finder on those rows gives the whole-set
        # oracles' list, and the kept check partners match a fresh count.
        rng = np.random.default_rng(11)
        passes = 0
        for n_bits, n_checks, quota in ((8, 9, 4), (24, 26, 6), (96, 100, 16), (400, 420, 50)):
            for max_bits in ((1, 2, 4) if degree == 2 else (0,)):
                for _ in range(4):
                    if degree == 2:
                        bits, checks = degree2_edges(n_bits, n_checks, rng)
                    else:
                        bits = rng.permutation(np.repeat(np.arange(n_bits), degree))
                        checks = rng.integers(0, n_checks // 4, size=len(bits))
                    table = bit_table(bits, degree)
                    at_bit = _bit_partners(table) if max_bits else None
                    at_check = _check_partners(checks) if max_bits else None
                    rows = None
                    for _ in range(8):
                        bad = _bad_edges(table, checks, rows, at_bit, at_check, max_bits)
                        want = parallel_edge_oracle(bits, checks)
                        if max_bits:
                            want += walk_cycle_reps(bits, checks, max_bits)
                            assert np.array_equal(at_check, _partners(checks))
                        assert bad == want
                        if not bad:
                            break
                        passes += rows is not None
                        extra = rng.integers(0, len(bits), size=rng.integers(0, 4)).tolist()
                        order = rng.permutation(bad + extra).tolist()
                        rows = np.unique(bits[_rewire(checks, at_check, order, quota, rng)])
        assert passes > 10

    def test_matches_full_rescan(self, monkeypatch):
        # The whole-set conditioning kept in tests/oracles.py makes the same
        # swaps with the same draws; small M takes many passes.
        real = ensemble._condition_matching
        passes = []

        def count(*args):
            passes[-1] += 1
            return real_bad(*args)

        real_bad = ensemble._bad_edges
        monkeypatch.setattr(ensemble, "_bad_edges", count)

        def both(bits, table, checks, quota, rng, *, forbid_cycle_bits=0):
            want, twin = checks.copy(), copy.deepcopy(rng)
            passes.append(0)
            try:
                condition_matching(bits, want, quota, twin, forbid_cycle_bits=forbid_cycle_bits)
            except ValueError:
                with pytest.raises(ValueError, match="condition"):
                    real(bits, table, checks, quota, rng, forbid_cycle_bits=forbid_cycle_bits)
                raise
            moved = real(bits, table, checks, quota, rng, forbid_cycle_bits=forbid_cycle_bits)
            assert np.array_equal(checks, want)
            assert rng.bit_generator.state == twin.bit_generator.state
            return moved

        monkeypatch.setattr(ensemble, "_condition_matching", both)
        cases = [(P422, 2000, 2)]
        cases += [(EnsembleParams(4, 2, 2, L, w), M, 2) for L in (1, 4) for w in (1, 2, 3) for M in (12, 48)]
        cases += [(EnsembleParams(4, 2, 2, 4, w), 8, 2) for w in (1, 2)]
        cases += [(EnsembleParams(2, 2, 2, 0, 1), 8, 2), (EnsembleParams(5, 2, 3, 4, 3), 60, 2)]
        for params, M, m in cases:
            for seed in range(3):
                try:
                    assert_tables(sample_graph(params, M, m, np.random.default_rng(seed)))
                except ValueError as exc:
                    assert "condition" in str(exc)
        assert max(passes) >= 8

    def test_later_passes_examine_touched_bits(self, monkeypatch):
        # One whole-edge-set scan per edge type; each later pass reads only
        # the rows of the bits its predecessor touched, two edges per swap.
        calls = []
        real = ensemble._bad_edges

        def record(table, checks, rows=None, *args):
            bad = real(table, checks, rows, *args)
            calls.append((rows, bad))
            return bad

        monkeypatch.setattr(ensemble, "_bad_edges", record)
        sample_graph(P422, 2000, 2, np.random.default_rng(3))
        assert [rows is None for rows, _ in calls].count(True) == 2
        for (_, before), (rows, _) in zip(calls, calls[1:]):
            if rows is not None:
                assert len(rows) <= 2 * len(before)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([24, 48, 96, 192]),
    )
    def test_simple_graph_properties(self, seed, L, w, M):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        g = sample_graph(params, M, 2, np.random.default_rng(seed))
        assert_tables(g)
        for bits, checks in ((g.t1_bit, g.t1_check), (g.t2_bit, g.t2_check)):
            pairs = np.stack([bits, checks], axis=1)
            assert len(np.unique(pairs, axis=0)) == len(pairs)
        assert walk_cycle_reps(g.t2_bit, g.t2_check, 4) == []
