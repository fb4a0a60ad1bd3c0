from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmn.ensemble import (
    EnsembleParams,
    _parallel_edge_reps,
    _short_cycle_reps,
    check_count,
    design_rate,
    design_rate_exact,
    punctured_count,
    sample_graph,
    transmitted_count,
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


class TestConditioning:
    def test_parallel_edge_reps_match_oracle(self):
        # A small check range makes pairs repeat two, three and four times;
        # the unstable sort must still give the stable sort's list.
        rng = np.random.default_rng(5)
        multiplicities = set()
        for n_edges, n_bits, n_checks in ((40, 10, 3), (300, 40, 6), (5000, 500, 12)):
            for _ in range(20):
                bits = rng.integers(0, n_bits, size=n_edges)
                checks = rng.integers(0, n_checks, size=n_edges)
                want = parallel_edge_oracle(bits, checks)
                assert _parallel_edge_reps(bits, checks) == want
                _, counts = np.unique(np.stack([bits, checks]), axis=1, return_counts=True)
                multiplicities.update(counts.tolist())
        assert {2, 3, 4} <= multiplicities
        # no repeats
        bits, checks = np.arange(6), np.array([0, 1, 0, 1, 0, 1])
        assert _parallel_edge_reps(bits, checks) == []
        # a repeat involving edge 0, and one whose copies are far apart
        bits = np.array([3, 1, 2, 3, 1, 0, 3, 2])
        checks = np.array([4, 0, 1, 4, 2, 0, 4, 1])
        assert _parallel_edge_reps(bits, checks) == [7, 3, 6]
        assert parallel_edge_oracle(bits, checks) == [7, 3, 6]

    def test_cycle_reps_match_walk(self):
        # Unconditioned degree-2 edge sets hold parallel edges (1-bit cycles)
        # and short cycles at every size. Each bit and each check gets two
        # sockets, matched by one seeded permutation; as in a coupled graph
        # there are more checks than bits, so some checks keep open sockets
        # and the edge set holds paths too. The symbol width m does not enter
        # an edge set, so only the section size M varies.
        found = 0
        for M in (2000, 504, 48, 12, 8):
            n_bits, n_checks = P422.n_sections * M, P422.n_check_sections * M
            bits = np.repeat(np.arange(n_bits), 2)
            for seed in range(3):
                order = np.random.default_rng(seed).permutation(2 * n_checks)
                checks = np.repeat(np.arange(n_checks), 2)[order[: 2 * n_bits]]
                for max_bits in (1, 2, 4, 8):
                    want = walk_cycle_reps(bits, checks, max_bits)
                    assert _short_cycle_reps(bits, checks, max_bits) == want
                    found += len(want)
        assert found > 0

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
        for bits, checks in ((g.t1_bit, g.t1_check), (g.t2_bit, g.t2_check)):
            pairs = np.stack([bits, checks], axis=1)
            assert len(np.unique(pairs, axis=0)) == len(pairs)
        assert walk_cycle_reps(g.t2_bit, g.t2_check, 4) == []
