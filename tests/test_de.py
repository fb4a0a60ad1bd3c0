from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from scmn import de
from scmn.channel import (
    ChannelFamily,
    _mixture_poly_fractions,
    _mixture_poly_matrix,
    dimension_distribution,
    dimension_law,
    transfer_poly,
)
from scmn.de import (
    ConvergenceError,
    DensityEvolution,
    DeResult,
    DeState,
    ebp_trace,
    run_de,
    threshold,
    thresholds,
    trajectory,
)
from scmn.ensemble import EnsembleParams
from oracles import staged_round_oracle, sweep_oracle
from test_acceptance import REF_L10_W2

P422 = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
CD2 = ChannelFamily.concentrated(2, 0.45)


def ones_state(params, eps):
    n = params.n_sections
    return DeState(L=params.L, p=np.ones(n), q=np.ones(n), epsilon=eps)


def sweep(p, q, params, family):
    """One parallel DE update of (p, q) under the given channel; the rates
    must stay in [0, 1]."""
    dev = DensityEvolution(params, family.kind, family.m)
    p1, q1 = dev.sweep(p, q, dev.fpoly(family.parameter))
    DeState(L=params.L, p=p1, q=q1, epsilon=family.parameter)  # checks the range
    return p1, q1


def q_update(z, s1, fcoef):
    """The q-update in one call, with the float bounds of the one-call
    paths (staged_round, h_profile), into a fresh array."""
    return DensityEvolution._q_update(fcoef, 0.0, 1.0)(z, s1, np.empty_like(z))


class TestDeState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DeState(L=1, p=np.ones(2), q=np.ones(3), epsilon=0.1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            DeState(L=0, p=np.array([1.5]), q=np.array([0.0]), epsilon=0.1)

    def test_nan_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            DeState(L=1, p=[nan] * 3, q=[0.0] * 3, epsilon=0.5)
        with pytest.raises(ValueError):
            DeState(L=1, p=[0.0] * 3, q=[0.0, nan, 0.0], epsilon=0.5)

    def test_arrays_frozen(self):
        st = ones_state(P422, 0.3)
        with pytest.raises(ValueError):
            st.p[0] = 0.0

    def test_chi(self):
        st = ones_state(P422, 0.3)
        assert st.chi == 1.0


class TestSweep:
    def test_trivial_fixed_point(self):
        n = P422.n_sections
        p, q = sweep(np.zeros(n), np.zeros(n), P422, CD2)
        assert np.all(p == 0.0)
        assert np.all(q == 0.0)

    def test_bec_single_section_hand_values(self):
        # m=1, w=1, L=1: uncoupled copies; from all-ones p'=1 and q'=eps
        params = EnsembleParams(dl=4, dr=2, dg=2, L=1, w=1)
        fam = ChannelFamily.concentrated(1, 0.5)
        p, q = sweep(np.ones(3), np.ones(3), params, fam)
        assert p == pytest.approx([1.0, 1.0, 1.0])
        assert q == pytest.approx([0.5, 0.5, 0.5])

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(5)
        half = rng.uniform(0, 1, P422.L + 1)
        p = np.concatenate([half[:0:-1], half])
        q = p[::-1].copy()  # also symmetric
        for _ in range(4):
            p, q = sweep(p, q, P422, CD2)
            assert p == pytest.approx(p[::-1])
            assert q == pytest.approx(q[::-1])

    def test_monotone_from_all_ones(self):
        dev = DensityEvolution(P422, "cd", 2)
        fcoef = dev.fpoly(0.47)
        p = np.ones(P422.n_sections)
        q = np.ones(P422.n_sections)
        for _ in range(200):
            p1, q1 = dev.sweep(p, q, fcoef)
            assert np.all(p1 <= p + 1e-12)
            assert np.all(q1 <= q + 1e-12)
            p, q = p1, q1

    def test_rejects_mixed_arithmetic(self):
        # A Fraction state with float coefficients, and a float state with
        # Fraction ones, are rejected at entry with both types named.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=2, w=3)
        dev = DensityEvolution(params, "cd", 2)
        n = params.n_sections
        exact = np.array([Fraction(1)] * n, dtype=object)
        with pytest.raises(ValueError, match="Fraction state .* float64 coefficients"):
            dev.sweep(exact, exact, dev.fpoly(0.4))
        with pytest.raises(ValueError, match="float64 state .* Fraction coefficients"):
            dev.sweep(np.ones(n), np.ones(n), dev.fpoly(Fraction(2, 5)))
        # Matched, each sweeps in its own arithmetic.
        p, q = dev.sweep(exact, exact, dev.fpoly(Fraction(2, 5)))
        assert all(type(v) is Fraction for v in [*p, *q])
        p, q = dev.sweep(np.ones(n), np.ones(n), dev.fpoly(0.4))
        assert p.dtype == q.dtype == np.float64

    def test_staged_round_same_fixed_points(self):
        # converge with the plain sweep, then check the staged round fixes it
        dev = DensityEvolution(P422, "cd", 2)
        fcoef = dev.fpoly(0.55)
        p = np.ones(P422.n_sections)
        q = np.ones(P422.n_sections)
        for _ in range(3000):
            p, q = dev.sweep(p, q, fcoef)
        p1, q1 = dev.staged_round(p, q, fcoef)
        assert p1 == pytest.approx(p, abs=1e-9)
        assert q1 == pytest.approx(q, abs=1e-9)

    def test_window_matrices_match_loops(self):
        # The coupling windows as the per-row loops that first built them:
        # entries 1/w in floats, and Fraction(1, w) (every entry a Fraction)
        # for the windows of object (Fraction) rates.
        for L in range(9):
            for w in range(1, 7):
                n, nc = 2 * L + 1, 2 * L + w
                params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
                dev = DensityEvolution(params, "cd", 2)
                for exact, weight in ((False, 1.0 / w), (True, Fraction(1, w))):
                    Wb = np.full((nc, n), 0 * weight)
                    for c in range(nc):
                        Wb[c, max(0, c - w + 1) : min(n - 1, c) + 1] = weight
                    Wf = np.full((n, nc), 0 * weight)
                    for i in range(n):
                        Wf[i, i : i + w] = weight
                    gotb, gotf = dev._windows(object) if exact else (dev.Wb, dev.Wf)
                    for got, want in ((gotb, Wb), (gotf, Wf)):
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                        if exact:
                            assert all(type(v) is Fraction for v in got.flat)
                    # gemv on a transposed view would sum in another order
                    assert gotf.flags.c_contiguous

    def test_stacked_coupling_matches_gemv(self):
        # Rows held as (K, n, 1) columns: W @ X is one gemv per row and
        # gives each row the bits of W @ x, whatever K is.
        rng = np.random.default_rng(11)
        for w in range(1, 6):
            dev = DensityEvolution(EnsembleParams(dl=4, dr=2, dg=2, L=4, w=w), "cd", 2)
            for W in (dev.Wb, dev.Wf):
                for K in range(1, 9):
                    X = rng.uniform(0, 1, (K, W.shape[1], 1))
                    Y = W @ X
                    assert Y.shape == (K, W.shape[0], 1)
                    for k in range(K):
                        assert np.array_equal(Y[k, :, 0], W @ X[k, :, 0])

    def test_row_batched_q_update(self):
        rng = np.random.default_rng(12)
        for kind, m in (("cd", 2), ("bd", 5)):
            dev = DensityEvolution(P422, kind, m)
            fcoefs = [dev.fpoly(float(e)) for e in rng.uniform(0, 1, 5)]
            z = rng.uniform(-0.2, 1.2, (5, P422.n_sections, 1))
            s1 = rng.uniform(0, 1, z.shape)
            got = q_update(z, s1, np.stack(fcoefs, axis=1)[..., None, None])
            for k, fcoef in enumerate(fcoefs):
                assert np.array_equal(got[k, :, 0], q_update(z[k, :, 0], s1[k, :, 0], fcoef))

    def test_q_update_matches_full_start(self):
        # The Horner loop starts with the product z * c_n; Horner's rule
        # started from an array full of c_n gives the same bits, also for a
        # constant f, on 1-D states and on lockstep (K, n, 1) rows.
        def full_start(z, s1, fcoef):
            q1 = np.full(z.shape, fcoef[-1])
            for c in fcoef[-2::-1]:
                q1 *= z
                q1 += c
            return np.clip(q1 * s1, 0.0, 1.0)

        rng = np.random.default_rng(13)
        for deg in range(1, 17):
            z = rng.uniform(-0.2, 1.2, 21)
            s1 = rng.uniform(0, 1, z.shape)
            fcoef = rng.normal(0, 1, deg)
            got = q_update(z, s1, fcoef)
            assert np.array_equal(got, full_start(z, s1, fcoef))
            z = rng.uniform(-0.2, 1.2, (3, 21, 1))
            s1 = rng.uniform(0, 1, z.shape)
            fcoef = rng.normal(0, 1, (deg, 3, 1, 1))
            got = q_update(z, s1, fcoef)
            assert got.shape == z.shape
            assert np.array_equal(got, full_start(z, s1, fcoef))

    @pytest.mark.parametrize("L, w", [(10, 2), (20, 3), (6, 4)])
    def test_kernel_matches_oracle(self, L, w):
        # 300 sweeps from all-ones, one _sweeps block, bit for bit against
        # the plain formula on each row's 1-D rates: on 1-D rates
        # (trajectory's and sweep's form), and on one and on four lockstep
        # rows at fpoly's coefficient rows.
        # The last three triples reach the kernel's other exponents: dl - 1,
        # dr - 1 and dg - 1 of 1 (a copy or the base itself) and of 0.
        for dl, dr, dg in ((4, 2, 2), (3, 3, 3), (5, 2, 3), (2, 2, 2), (3, 1, 3), (5, 2, 1)):
            params = EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w)
            n = params.n_sections
            for kind in ("cd", "bd"):
                for m in (1, 2, 6, 15):
                    dev = DensityEvolution(params, kind, m)
                    eps = [0.47, 0.3, 0.5, 0.7]
                    polys = [dev.fpoly(e) for e in eps]
                    want = np.ones((301, 2, len(eps), n))
                    for t in range(1, 301):
                        for r, fcoef in enumerate(polys):
                            want[t, :, r] = sweep_oracle(params, *want[t - 1, :, r], fcoef)
                    for x, fcoef in (
                        (np.ones((2, n)), polys[0]),
                        (np.ones((2, 1, n)), dev.fpoly(eps[:1])),
                        (np.ones((2, 4, n)), dev.fpoly(eps)),
                    ):
                        X = de._sweeps(dev, x, fcoef, 300)
                        assert X.shape == (301, *x.shape)
                        rows = X.reshape(301, 2, -1, n)
                        assert np.array_equal(rows, want[:, :, : rows.shape[2]])

    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    def test_exact_step_matches_oracle(self, w):
        # One exact sweep of a random state, equal as Fractions to the plain
        # formula over dense object windows.
        rng = np.random.default_rng(w)
        for dl, dr, dg in ((4, 2, 2), (3, 3, 3), (5, 2, 3)):
            params = EnsembleParams(dl=dl, dr=dr, dg=dg, L=4, w=w)
            for kind in ("cd", "bd"):
                for m in (1, 2, 6):
                    dev = DensityEvolution(params, kind, m)
                    fcoef = dev.fpoly(Fraction(float(rng.uniform(0.3, 0.7))))
                    p, q = (
                        np.array([Fraction(v) for v in rng.uniform(0, 1, params.n_sections)])
                        for _ in range(2)
                    )
                    got = dev.sweep(p, q, fcoef)
                    want = sweep_oracle(params, p, q, fcoef)
                    for g, v in zip(got, want):
                        assert all(type(a) is Fraction for a in g)
                        assert [Fraction(a) for a in g] == [Fraction(b) for b in v]

    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    def test_one_operator_both_arithmetics(self, w):
        # One operator sweeps a float state, a Fraction state and the float
        # state again, and the reverse: its windows follow each state's
        # dtype, and no sweep leaves them behind for the next. Every float
        # sweep has the bits of the plain formula (so of the first float
        # sweep); every Fraction sweep stays in Fractions and equals the
        # plain formula in exact rationals.
        rng = np.random.default_rng(100 + w)
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=w)
        for kind, m in (("cd", 1), ("cd", 6), ("bd", 2)):
            eps = float(rng.uniform(0.3, 0.7))
            p, q = rng.uniform(0, 1, (2, params.n_sections))
            y = [np.array([Fraction(v) for v in x.tolist()], dtype=object) for x in (p, q)]
            fcoef = {"float": DensityEvolution(params, kind, m).fpoly(eps)}
            fcoef["exact"] = DensityEvolution(params, kind, m).fpoly(Fraction(eps))
            state = {"float": (p, q), "exact": y}
            want = {k: sweep_oracle(params, *state[k], fcoef[k]) for k in state}
            for order in (("float", "exact", "float"), ("exact", "float", "exact")):
                dev = DensityEvolution(params, kind, m)
                for k in order:
                    for got, v in zip(dev.sweep(*state[k], fcoef[k]), want[k]):
                        if k == "exact":
                            assert all(type(a) is Fraction for a in got)
                            assert [Fraction(a) for a in got] == [Fraction(b) for b in v]
                        else:
                            assert got.dtype == np.float64 and np.array_equal(got, v)

    def test_fpoly_follows_its_parameter(self):
        # A Fraction parameter gives f in Fractions: the exact law times the
        # exact mixture matrix, entry by entry. A float keeps the float
        # product's bits.
        for kind in ("cd", "bd"):
            for m in (1, 2, 6, 15):
                dev = DensityEvolution(P422, kind, m)
                K = _mixture_poly_fractions(m)
                for e in (0.0, 0.3, 0.45, 0.7, 1.0):
                    law = dimension_law(kind, m, Fraction(e))
                    want = [sum(law[j] * K[j][i] for j in range(m + 1)) for i in range(len(K[0]))]
                    got = dev.fpoly(Fraction(e))
                    assert all(type(c) is Fraction for c in got) and list(got) == want
                    got = dev.fpoly(e)
                    want = np.asarray(dimension_law(kind, m, e)) @ _mixture_poly_matrix(m)
                    assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_staged_round_map_matches_staged_round(self):
        # Every row of a stacked call at fpoly's rows, and staged_round at
        # one of them, equal the plain staged round (oracles) at the row's ε
        # bit for bit; fpoly's rows equal its single calls, and each row's
        # mean(p) from one sum over the rows (as _anchored_point takes it)
        # equals the row's own mean. m = 1 is the q-update's constant f.
        # States partly outside [0, 1] drive the q-update past both ends of
        # its clip. At L = 70 the chain's 141 sections pass the 128-element
        # blocks of numpy's pairwise sum.
        rng = np.random.default_rng(3)
        clipped_lo = clipped_hi = False
        for L, w, widths in ((4, 2, range(1, 16)), (70, 3, (1, 2, 6, 15))):
            params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
            n = params.n_sections
            for kind, m in [(kind, m) for kind in ("cd", "bd") for m in widths]:
                dev = DensityEvolution(params, kind, m)
                for lo, hi in ((0.0, 1.0), (-0.3, 1.3)):
                    p, q = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
                    staged = dev.staged_round_map(p, q)
                    for R in (1, 2, 10, 40):
                        eps = [0.0, 1.0, 0.5 / m, *map(float, rng.uniform(0, 1, R))][:R]
                        fcoef = dev.fpoly(eps)
                        P, Q = staged(fcoef)
                        assert P.shape == Q.shape == (R, n)
                        for e, c, p1, q1, chi in zip(eps, fcoef, P, Q, P.sum(axis=1) / n):
                            assert np.array_equal(c, dev.fpoly(e))
                            p2, q2 = staged_round_oracle(params, p, q, c)
                            assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
                            assert chi == p2.mean()
                            clipped_lo |= bool((q1 == 0.0).any())
                            clipped_hi |= bool((q1 == 1.0).any())
                        p1, q1 = dev.staged_round(p, q, fcoef[-1])
                        assert np.array_equal(p1, P[-1]) and np.array_equal(q1, Q[-1])
        assert clipped_lo and clipped_hi

    def test_fpoly_rows_match_checked_laws(self):
        # A sequence's rows check their parameters once and take each law
        # unchecked: every row keeps the bits of the checked law times K, at
        # random parameters, both ends and the cd law's kinks k / m.
        rng = np.random.default_rng(5)
        for kind in ("cd", "bd"):
            for m in (1, 2, 6, 15):
                dev = DensityEvolution(P422, kind, m)
                eps = [0.0, 1.0, *(k / m for k in range(1, m)), *map(float, rng.uniform(0, 1, 20))]
                want = [np.asarray(dimension_law(kind, m, e)) @ _mixture_poly_matrix(m) for e in eps]
                got = dev.fpoly(eps)
                assert got.shape == (len(eps), m)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                assert np.array_equal(dev.fpoly(np.array(eps)), got)

    def test_fpoly_rows_reject_bad_parameters(self):
        # dimension_law's ValueError, at the first bad parameter of the rows.
        dev = DensityEvolution(P422, "cd", 6)
        for bad in (float("nan"), -0.25, 1.5):
            with pytest.raises(ValueError, match=rf"parameter must be in \[0, 1\], got {bad}"):
                dimension_law("cd", 6, bad)
            with pytest.raises(ValueError, match=rf"parameter must be in \[0, 1\], got {bad}"):
                dev.fpoly([0.3, bad, 0.5])
        with pytest.raises(ValueError, match="kind must be one of"):
            DensityEvolution(P422, "xd", 6).fpoly([0.3])

    def test_fpoly_parameter_forms(self):
        # A float, an np.float64 and a 0-d array are one parameter, and a
        # list's rows are its parameters, each with the checked law's bits;
        # a 0-d array of a Fraction stays exact. A 2-D array and an empty
        # sequence raise ValueError (numpy's TypeError and IndexError before).
        for kind, m in (("cd", 6), ("bd", 15)):
            dev = DensityEvolution(P422, kind, m)
            eps = [0.3, 0.45, 0.7]
            want = [np.asarray(dimension_law(kind, m, e)) @ _mixture_poly_matrix(m) for e in eps]
            for e, w in zip(eps, want):
                for form in (e, np.float64(e), np.array(e)):
                    got = dev.fpoly(form)
                    assert got.shape == (m,) and np.array_equal(got, w)
            assert np.array_equal(dev.fpoly(eps), want)
            exact = dev.fpoly(np.array(Fraction(1, 3), dtype=object))
            assert list(exact) == list(dev.fpoly(Fraction(1, 3)))
            for bad in ([], (), np.array([])):
                with pytest.raises(ValueError, match="at least one parameter"):
                    dev.fpoly(bad)
            for bad in (np.full((2, 2), 0.3), np.array([[0.3]])):
                with pytest.raises(ValueError, match=r"1-D sequence, got shape \("):
                    dev.fpoly(bad)

    def test_operator_checks_kind_and_m(self):
        # The operator checks kind and m before it builds anything, so it,
        # fold and ebp_trace raise dimension_law's ValueError for an m that
        # is not an integer, or is a bool (2.5 raised a TypeError from the
        # transfer polynomial's kernel, and True built an m = 1 operator).
        # An m past the transfer polynomial's range keeps its own message.
        for m in (2.5, True):
            with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
                dimension_law("cd", m, 0.5)
            for build in (
                lambda: DensityEvolution(P422, "cd", m),
                lambda: de.fold(P422, "cd", m),
                lambda: ebp_trace(P422, "cd", m, [0.5]),
            ):
                with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
                    build()
        with pytest.raises(ValueError, match=r"transfer polynomial is evaluated for m in 1\.\.15"):
            DensityEvolution(P422, "cd", 16)

    def test_staged_maps_share_buffers_safely(self):
        # Maps of one operator share its check half and its detector half,
        # bound once per shape. Two maps called alternately, or a map with a
        # sweep and an h_profile between its calls, give each call the bits
        # of a fresh operator's map.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
        n = params.n_sections
        rng = np.random.default_rng(11)
        states = [(rng.uniform(0.2, 1, n), rng.uniform(0.2, 1, n)) for _ in range(2)]
        for kind, m in (("cd", 6), ("bd", 2), ("cd", 1)):
            dev = DensityEvolution(params, kind, m)
            eps = [[float(e) for e in rng.uniform(0, 1, R)] for R in (1, 3, 1, 5, 3)]

            def alone(state, e):
                return DensityEvolution(params, kind, m).staged_round_map(*state)(dev.fpoly(e))

            maps = [dev.staged_round_map(*state) for state in states]
            kept = []
            for e in eps:
                for state, at in zip(states, maps):
                    P, Q = at(dev.fpoly(e))
                    kept.append((P, Q, state, e))
            at = dev.staged_round_map(*states[0])
            for e in eps:
                P, Q = at(dev.fpoly(e))
                kept.append((P, Q, states[0], e))
                fcoef = dev.fpoly(e[0])
                dev.sweep(*states[1], fcoef)
                dev.h_profile(*states[1], fcoef)
            for P, Q, state, e in kept:
                P0, Q0 = alone(state, e)
                assert np.array_equal(P, P0) and np.array_equal(Q, Q0)


class TestRunDe:
    def test_zero_parameter_converges_fast(self):
        res = run_de(P422, ChannelFamily.concentrated(2, 0.0))
        assert res.success
        assert res.state.iterations < 100

    def test_below_threshold_converges(self):
        res = run_de(P422, ChannelFamily.concentrated(2, 0.40))
        assert res.success and res.status == "converged"

    def test_above_capacity_stalls(self):
        res = run_de(P422, ChannelFamily.concentrated(2, 0.55))
        assert not res.success and res.status == "stalled"
        assert res.state.p.max() > 0.1

    def test_iter_limit_flagged(self, monkeypatch):
        monkeypatch.setattr(de, "MAX_ITER", 5)
        res = run_de(P422, ChannelFamily.concentrated(2, 0.45))
        assert res.status == "iter-limit"
        assert res.state.iterations == 5
        assert not res.success

    @pytest.mark.parametrize("dr", [2, 1])
    def test_fixed_tol_decides_below_threshold(self, monkeypatch, dr):
        # The success test (max p < TOL) races the stall test (a sweep
        # changes every rate by less than 1e-15). With TOL at 1e-14 the
        # (2, 2, 2) chain stalls on every one of these rows and the (2, 1, 2)
        # chain on at least one, so a threshold would come out far too low.
        params = EnsembleParams(dl=2, dr=dr, dg=2, L=4, w=2)
        th = threshold(params, "cd", 2, bisect_tol=1e-3)
        families = [ChannelFamily.concentrated(2, float(e)) for e in np.linspace(0, th - 2e-3, 8)]
        assert {r.status for r in run_de(params, families)} == {"converged"}
        monkeypatch.setattr(de, "TOL", 1e-14)
        assert "stalled" in {r.status for r in run_de(params, families)}

    def test_takes_no_tol_or_max_iter(self):
        for kwargs in ({"tol": 1e-12}, {"max_iter": 10}):
            with pytest.raises(TypeError):
                run_de(P422, CD2, **kwargs)
            with pytest.raises(TypeError):
                threshold(P422, "cd", 2, **kwargs)

    def test_monotone_check_every_100th_sweep(self, monkeypatch):
        # A broken update that flips q between 1 and 0 raises it at every
        # even sweep; run_de checks every 100th sweep, in one run and in
        # lockstep rows.
        def flip_flop(dev, x, fcoef, n):
            X = np.empty((n + 1, *x.shape))
            X[0] = x
            for t in range(n):
                X[t + 1] = X[t, 0], 1.0 - X[t, 1]
            return X

        monkeypatch.setattr(de, "_sweeps", flip_flop)
        for family in (CD2, [CD2, ChannelFamily.concentrated(2, 0.3)]):
            monkeypatch.setattr(de, "MAX_ITER", 99)
            res = run_de(P422, family)
            assert all(r.status == "iter-limit" for r in np.atleast_1d(res))
            monkeypatch.setattr(de, "MAX_ITER", 100)
            with pytest.raises(AssertionError, match="monotone"):
                run_de(P422, family)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            run_de(P422, [])

    def test_single_family_matches_reference(self, monkeypatch):
        # The one-row run against the 1-D loop it replaced.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        for fam in (CD2, ChannelFamily("bd", 3, 0.3), ChannelFamily.concentrated(2, 0.6)):
            assert_same_result(run_de(params, fam), reference_run_de(params, fam))
        fam = ChannelFamily.concentrated(2, 0.49)
        monkeypatch.setattr(de, "MAX_ITER", 40)
        got = run_de(params, fam)
        assert got.status == "iter-limit"
        assert_same_result(got, reference_run_de(params, fam, max_iter=40))

    def test_lockstep_rows_match_single_runs(self, monkeypatch):
        # Rows decide at different sweeps: some converge, some stall, and
        # with a budget below the slowest row's, that row hits the cap. The
        # last call mixes kinds and m, with m = 1's constant f among them.
        cases = []
        for w in (2, 3, 4):
            params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=w)
            for kind, m in (("cd", 2), ("bd", 3)):
                th = threshold(params, kind, m, bisect_tol=1e-3)
                eps = [0.0, 0.2, th - 0.05, th - 2e-4, th + 2e-4, th + 0.05, 0.9]
                cases.append((params, [ChannelFamily(kind, m, float(e)) for e in eps]))
        mixed = [("cd", 1, 0.45), ("bd", 3, 0.5), ("cd", 15, 0.45), ("cd", 1, 0.55),
                 ("bd", 3, 0.7), ("cd", 15, 0.5), ("cd", 15, 0.7)]
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        cases.append((params, [ChannelFamily(*f) for f in mixed]))
        for params, families in cases:
            singles = [run_de(params, f) for f in families]
            assert {r.status for r in singles} == {"converged", "stalled"}
            sweeps = sorted({r.state.iterations for r in singles})
            assert len(sweeps) == len(families)
            for max_iter in (de.MAX_ITER, sweeps[-2]):
                monkeypatch.setattr(de, "MAX_ITER", max_iter)
                rows = run_de(params, families)
                assert len(rows) == len(families)
                for fam, row in zip(families, rows):
                    assert_same_result(row, run_de(params, fam))
            monkeypatch.undo()
            assert rows[-1].status != "iter-limit"
            assert sum(r.status == "iter-limit" for r in rows) == 1

    def test_fraction_parameter_runs_in_floats(self):
        # A Fraction parameter, which ChannelFamily accepts, gives the run
        # of its float bit for bit, in run_de (alone and as a lockstep row)
        # and in trajectory: f is built at the float parameter.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        for kind, m, e in (("cd", 2, Fraction(1, 2)), ("bd", 4, Fraction(3, 8))):
            exact, plain = ChannelFamily(kind, m, e), ChannelFamily(kind, m, float(e))
            ref = run_de(params, plain)
            assert_same_result(run_de(params, exact), ref)
            for got, want in zip(run_de(params, [exact, CD2]), run_de(params, [plain, CD2])):
                assert_same_result(got, want)
            for got, want in zip(trajectory(params, exact, 3), trajectory(params, plain, 3)):
                assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_float_cycle_stalls(self):
        # cd m=15 above threshold settles into an exact float cycle (entered
        # at sweep 60, period 42) whose changes stay above the stall
        # tolerance, so only the repeat decides it.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        fam = ChannelFamily.concentrated(15, 0.7)
        res = run_de(params, fam)
        assert res.status == "stalled" and res.state.iterations < 1000
        P, Q = trajectory(params, fam, res.state.iterations)
        change = np.maximum(np.abs(np.diff(P, axis=0)), np.abs(np.diff(Q, axis=0))).max(axis=1)
        assert change.min() >= de._STALL_TOL
        repeats = (P[:-1] == P[-1]).all(axis=1) & (Q[:-1] == Q[-1]).all(axis=1)
        assert repeats.any()
        assert np.array_equal(res.state.p, P[-1]) and np.array_equal(res.state.q, Q[-1])


class TestTrajectory:
    def test_shapes_and_start(self):
        P, Q = trajectory(P422, CD2, 10)
        assert P.shape == (11, P422.n_sections)
        assert np.all(P[0] == 1.0) and np.all(Q[0] == 1.0)
        # matches repeated sweeps
        p = q = np.ones(P422.n_sections)
        for ell in range(1, 4):
            p, q = sweep(p, q, P422, CD2)
            assert p == pytest.approx(P[ell])
            assert q == pytest.approx(Q[ell])

    def test_sweep_count_validation(self):
        P, Q = trajectory(P422, CD2, 0)
        assert P.shape == Q.shape == (1, P422.n_sections)
        # A negative, fractional or bool count gets one error.
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match="n_sweeps must be a non-negative integer"):
                trajectory(P422, CD2, bad)


class TestWindowBound:
    def test_bound_is_exact(self, monkeypatch):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=2, w=2)  # 6 x 5 entries
        monkeypatch.setattr(de, "MAX_WINDOW_ENTRIES", 30)
        DensityEvolution(params, "cd", 2)
        monkeypatch.setattr(de, "MAX_WINDOW_ENTRIES", 29)
        with pytest.raises(ValueError, match="6 x 5"):
            DensityEvolution(params, "cd", 2)

    def test_long_chain_rejected(self):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=100_000, w=2)
        with pytest.raises(ValueError, match="exceed"):
            DensityEvolution(params, "cd", 2)
        with pytest.raises(ValueError, match="exceed"):
            trajectory(params, CD2, 1)


class TestThreshold:
    def test_coarse_bracket(self):
        th = threshold(P422, "cd", 2, bisect_tol=5e-3)
        assert 0.47 < th < 0.51

    def test_monotone_success_predicate(self):
        th = threshold(P422, "cd", 2, bisect_tol=1e-3)
        flips = 0
        prev = True
        for eps in np.linspace(th - 0.02, th + 0.02, 9):
            ok = run_de(P422, ChannelFamily.concentrated(2, float(eps))).success
            if ok != prev:
                flips += 1
            prev = ok
        assert flips == 1

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            threshold(P422, "w", 2)

    def test_tol_validation(self):
        # bisect_tol must lie in [2**-52, 1), so every search runs DE.
        for kwargs in (
            {"bisect_tol": float("nan")},
            {"bisect_tol": 0.0},
            {"bisect_tol": 1.0},
            {"bisect_tol": 2.0},
            # Below the float spacing at 1 the bracket can stop shrinking.
            {"bisect_tol": 1e-17},
            {"bisect_tol": 2.0**-53},
        ):
            with pytest.raises(ValueError):
                threshold(P422, "cd", 2, **kwargs)

    def test_iter_limit_propagates(self, monkeypatch):
        monkeypatch.setattr(de, "MAX_ITER", 10)
        with pytest.raises(ConvergenceError, match="10-sweep cap"):
            threshold(P422, "cd", 2, bisect_tol=1e-3)
        # In a table the error names the capped cell and carries the others:
        # at L=4/w=3 under a 600-sweep cap, bd m=6 reaches it on its walk at
        # a converging row, and cd m=6 and cd m=2 answer. (Rows above a fold
        # no longer reach a cap: they are certified as they join.)
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        capped = ChannelFamily("bd", 6, 0.5048828125)
        assert reference_run_de(params, capped, max_iter=600).status == "iter-limit"
        monkeypatch.setattr(de, "MAX_ITER", 600)
        cap = r"cap for bd m=6 at parameter 0\.5048828125;"
        with pytest.raises(ConvergenceError, match=cap) as got:
            thresholds(params, [("bd", 6), ("cd", 6), ("cd", 2)], bisect_tol=1e-3)
        assert got.value.eps_star == {("cd", 6): 0.50244140625, ("cd", 2): 0.51806640625}

    @pytest.mark.parametrize("L, w", [(4, 2), (4, 3), (6, 4)])
    def test_matches_plain_bisection(self, L, w):
        # Cell by cell, and all eight cells in one thresholds call.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        cells = [(kind, m) for kind in ("cd", "bd") for m in (1, 2, 3, 6)]
        ref = {cell: reference_threshold(params, *cell, bisect_tol=1e-3) for cell in cells}
        assert {cell: threshold(params, *cell, bisect_tol=1e-3) for cell in cells} == ref
        assert thresholds(params, cells, bisect_tol=1e-3) == ref

    @pytest.mark.parametrize("kind", ["cd", "bd"])
    def test_matches_plain_bisection_at_fine_tolerance(self, kind):
        # Deep enough that rows join and leave the pipelined run many times.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        got = threshold(params, kind, 2, bisect_tol=1e-5)
        assert got == reference_threshold(params, kind, 2, bisect_tol=1e-5)

    def test_frontier_matches_brute_force(self):
        # Seeded dyadic brackets, tolerances (exact level widths included)
        # and decision maps, with runs that converged (up), stalled (down) or
        # hit the cap (None). A map is monotone (converged below a seeded
        # threshold, stalled above it), monotone with a share of flipped
        # entries (a converged row above a stalled one), or drawn at random,
        # and may hold rows outside the bracket. The _walk through each map,
        # as it is and closed under monotonicity (de._Monotone, as
        # thresholds passes it), is checked without a guess and with one:
        # inside the bracket, on one of its midpoints, or at one of its ends.
        rng = np.random.default_rng(14)
        guesses = np.random.default_rng(15)
        stops = set()
        for _ in range(300):
            d = int(rng.integers(0, 40))
            j = int(rng.integers(0, 2**d))
            lo, hi = j * 2.0**-d, (j + 1) * 2.0**-d
            e = rng.uniform(0, 9)
            bisect_tol = (hi - lo) * 2.0 ** -(np.floor(e) if rng.random() < 0.25 else e)
            share = rng.uniform(0, 1)
            mids = tree_midpoints(lo, hi, bisect_tol)
            outside = [lo - (hi - lo) * rng.uniform(0, 1), hi + (hi - lo) * rng.uniform(0, 1)]
            cut = rng.uniform(lo - (hi - lo) / 4, hi + (hi - lo) / 4)
            flips = rng.choice([0.0, 0.05, 0.5])
            known = {
                mid: None if rng.random() < 0.1 else bool((mid < cut) != (rng.random() < flips))
                for mid in mids + outside[: rng.integers(3)]
                if rng.random() < share
            }
            closed = monotone_closure(known, mids)
            on_tree = mids[guesses.integers(len(mids))] if mids else lo
            for guess in (None, guesses.uniform(lo, hi), on_tree, (lo, hi)[guesses.integers(2)]):
                walk = de._walk(lo, hi, bisect_tol, known, guess)
                assert walk == brute_force_walk(lo, hi, bisect_tol, known, guess)
                closed_walk = de._walk(lo, hi, bisect_tol, de._Monotone(known), guess)
                assert closed_walk == brute_force_walk(lo, hi, bisect_tol, closed, guess)
                mid = closed_walk[2]
                stops.add("end" if mid is None else "unmapped" if mid not in closed else "capped")
                if closed_walk != walk:
                    stops.add("implied")
                # Unmapped with a converged row above: a stalled row lies below.
                if mid is not None and mid not in closed:
                    if any(up is True and x >= mid for x, up in known.items()):
                        stops.add("conflict")
        assert stops == {"end", "unmapped", "capped", "implied", "conflict"}

    def test_iter_limit_names_the_same_parameter(self, monkeypatch):
        # At L=4/w=3, cd m=2, bisection steps 4, 5 and 12 are the first to
        # take more than 150, 300 and 3000 sweeps (196, 374 and 3702). Those
        # rows stall above the fold, and each is certified as it joins, from
        # the fold point, so a cap is now reached on the walk only by a
        # converging row: steps 6, 9 and 13 (158, 318 and 1329 sweeps) under
        # the budgets 150, 300 and 1000. The named midpoint lies on the walk
        # that uncapped decisions take, and runs to the cap. Once the
        # highest row below the fold has capped, the other unmapped path
        # midpoints below it run in one lockstep pass, so the run takes at
        # most two capped passes (run one after another, the capped rows
        # took 664, 1,092 and 1,704 lockstep sweeps). Lockstep rows are the
        # stacked (2, rows, n) states; the certificate sweeps 1-D rates,
        # and the fold is computed before counting starts.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        walk = reference_walk(params, "cd", 2, bisect_tol=1e-4)
        value = de._fold(params, "cd", 2)
        monkeypatch.setattr(de, "_fold", lambda *args: value)
        sweeps_orig, lockstep = de._sweeps, [0]

        def counted_sweeps(dev, x, fcoef, n):
            lockstep[0] += n if x.ndim == 3 else 0
            return sweeps_orig(dev, x, fcoef, n)

        monkeypatch.setattr(de, "_sweeps", counted_sweeps)
        capped = []
        for max_iter in (150, 300, 1000):
            monkeypatch.setattr(de, "MAX_ITER", max_iter)
            lockstep[0] = 0
            with pytest.raises(ConvergenceError, match=f"the {max_iter}-sweep cap") as got:
                threshold(params, "cd", 2, bisect_tol=1e-4)
            assert 0 < lockstep[0] <= 2 * max_iter
            mid = float(str(got.value).split("parameter ")[1].split(";")[0])
            assert mid in walk
            family = ChannelFamily("cd", 2, mid)
            assert reference_run_de(params, family, max_iter=max_iter).status == "iter-limit"
            capped.append(mid)
        assert capped == [0.515625, 0.517578125, 0.5181884765625]
        # At 3000 every walk row decides or is certified: threshold answers
        # with the uncapped value, where the capped plain bisection raises.
        monkeypatch.setattr(de, "MAX_ITER", 3000)
        with pytest.raises(ConvergenceError):
            reference_threshold(params, "cd", 2, bisect_tol=1e-4, max_iter=3000)
        got = threshold(params, "cd", 2, bisect_tol=1e-4)
        assert got == reference_threshold(params, "cd", 2, bisect_tol=1e-4)

    def test_reaches_traced_attributes(self, monkeypatch):
        # The benchmark's tracer wraps scmn.de.run_de where it is looked up,
        # so threshold must call it through the module. It also replaces
        # scmn.de.ChannelFamily with a function, so scmn.de may only call it.
        # Sweeps are counted as the n that scmn.de._sweeps is asked for.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        batched = batched_schedule_sweeps(params, "cd", 2, 1e-5)
        calls = {"run_de": 0, "sweep": 0, "family": 0, "rows": 0}
        decided = {}
        run_de_orig = de.run_de
        sweeps_orig = de._sweeps

        def counted_family(*args):
            calls["family"] += 1
            return ChannelFamily(*args)

        def counted_run_de(params, frontier):
            calls["run_de"] += 1
            live = set()

            def counted_frontier(done):
                nonlocal live
                wanted = frontier(done)
                calls["rows"] += len(wanted.keys() - live)
                live = set(wanted)
                decided.update(done)
                return wanted

            before = calls["sweep"]
            done = run_de_orig(params, counted_frontier)
            calls["lockstep"] = calls["sweep"] - before
            return done

        def counted_sweeps(dev, x, fcoef, n):
            calls["sweep"] += n
            return sweeps_orig(dev, x, fcoef, n)

        monkeypatch.setattr(de, "run_de", counted_run_de)
        monkeypatch.setattr(de, "_sweeps", counted_sweeps)
        monkeypatch.setattr(de, "ChannelFamily", counted_family)
        eps_star = threshold(params, "cd", 2, bisect_tol=1e-5)
        # One pipelined run; a row starts on each midpoint that enters the
        # frontier, and runs in lockstep with the others.
        assert calls["run_de"] == 1
        assert calls["family"] == calls["rows"] > 0
        longest = max(r.state.iterations for r in decided.values())
        assert 0 < longest <= calls["sweep"]
        # Each walk midpoint is decided by its own row, or implied by one (DE
        # is monotone in the parameter): it lies at or below a converged row,
        # or at or above a stalled one, and not both.
        # Rows are keyed by their dimension law; each holds its midpoint.
        decided = {r.state.epsilon: r for r in decided.values()}
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            up = any(r.success for e, r in decided.items() if e >= mid)
            down = any(not r.success for e, r in decided.items() if e <= mid)
            assert up != down
            assert mid not in decided or decided[mid].success == up
            lo, hi = (mid, hi) if up else (lo, mid)
        assert 0.5 * (lo + hi) == eps_star
        # The rows that run are the ones the walk cannot do without, so the
        # lockstep run (the certificate's lowering sweeps included, the
        # fold's not) is its longest row plus at most one block.
        assert calls["lockstep"] <= longest + de._SWEEP_BLOCK
        # The walk's row above the fold was certified as it joined, at sweep 0.
        joined = [r for r in decided.values() if r.state.iterations == 0]
        assert joined and all(r.status == "stalled" for r in joined)
        # Fewer sweeps than the schedule that waited for each batch of two
        # levels to decide before it started the next.
        assert calls["sweep"] < batched

    def test_any_fold_gives_the_same_thresholds(self, monkeypatch):
        # The walk reads decided rows only, so a fold far off, near but
        # wrong, or missing changes which rows run, never ε*. Nor does a
        # forged fold point: the exact sweep rejects what does not certify,
        # so no row that converges is certified.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        cells = [("cd", 1), ("bd", 1), ("cd", 2), ("bd", 6)]
        ref = {cell: reference_threshold(params, *cell, bisect_tol=1e-3) for cell in cells}
        true = {cell: de._fold(params, *cell) for cell in cells}
        certified = spy_certifies(monkeypatch, keep_args=True)
        assert thresholds(params, cells, bisect_tol=1e-3) == ref
        assert any(ok for _, ok in certified)
        points = {
            "true": lambda cell: true[cell][1],
            "all-ones": lambda cell: np.ones((2, params.n_sections)),
            "all-zeros": lambda cell: np.zeros((2, params.n_sections)),
            # cd m=1 takes cd m=2's, bd m=1 bd m=6's, and back.
            "another cell's": lambda cell: true[cells[(cells.index(cell) + 2) % 4]][1],
            "one ulp above its image": lambda cell: ulp_above_image(params, *cell, *true[cell]),
        }
        folds = {
            "true": lambda cell: true[cell][0],
            "0": lambda cell: 0.0,
            "1": lambda cell: 1.0,
            "below": lambda cell: ref[cell] - 1e-3,
            "above": lambda cell: ref[cell] + 1e-3,
        }
        fakes = [lambda params, kind, m: None] + [
            lambda params, kind, m, e=e, x=x: (e((kind, m)), x((kind, m)))
            for e in folds.values()
            for x in points.values()
        ]
        for fake in fakes:
            monkeypatch.setattr(de, "_fold", fake)
            assert thresholds(params, cells, bisect_tol=1e-3) == ref
        # Each row that was certified as it joined fails on its own run.
        rows = {(dev.kind, dev.m, eps) for (dev, eps, _, _), ok in certified if ok}
        assert len(rows) > 10
        results = run_de(params, [ChannelFamily(*row) for row in rows])
        assert not any(r.success for r in results)

    def test_m1_cells_share_their_rows(self, monkeypatch):
        # At m = 1 the cd and bd laws are the same floats, so a table's two
        # m = 1 cells run each row, and compute the fold, once.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        rows, folds = [], []
        family, fold = de.ChannelFamily, de._fold

        def counted_family(*args):
            rows.append(args)
            return family(*args)

        def counted_fold(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(de, "ChannelFamily", counted_family)
        monkeypatch.setattr(de, "_fold", counted_fold)
        alone = threshold(params, "cd", 1, bisect_tol=1e-4)
        n_alone = len(rows)
        both = thresholds(params, [("cd", 1), ("bd", 1)], bisect_tol=1e-4)
        assert both == {("cd", 1): alone, ("bd", 1): alone}
        assert len(rows) == 2 * n_alone and len(folds) == 2

    @pytest.mark.parametrize(
        "kind, eps_star", [("cd", 0.4380836486816406), ("bd", 0.4610557556152344)]
    )
    def test_cells_without_a_fold_match_plain_bisection(self, kind, eps_star, monkeypatch):
        # m=15 at L=10/w=2 has no fold for either law, so its cell bisects
        # plainly: one row at a time, on exactly the 17 midpoints of plain
        # bisection to 1e-5, in its order. Rows are counted as they join the
        # frontier that threshold passes to run_de. The referee runs one
        # run_de row per step: the reference DE has no repeat test, and the
        # cd row at 0.5 ends in a float cycle that it runs to the cap.
        joined, live = [], []
        run_de_orig = de.run_de

        def counted_run_de(params, frontier):
            wanted: dict = {}

            def counted_frontier(done):
                nonlocal wanted
                before, wanted = wanted, frontier(done)
                joined.extend(f.parameter for k, f in wanted.items() if k not in before)
                live.append(len(wanted))
                return wanted

            return run_de_orig(params, counted_frontier)

        monkeypatch.setattr(de, "run_de", counted_run_de)
        assert de.fold(P422, kind, 15) is None
        assert threshold(P422, kind, 15, bisect_tol=1e-5) == eps_star
        assert max(live) == 1
        mids = []
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-5:
            mids.append(mid := 0.5 * (lo + hi))
            result = run_de(P422, ChannelFamily(kind, 15, mid))
            assert result.status != "iter-limit"
            lo, hi = (mid, hi) if result.success else (lo, mid)
        assert 0.5 * (lo + hi) == eps_star
        assert joined == mids and len(mids) == 17

    @pytest.mark.parametrize(
        "kind, m, eps_star, most",
        [("cd", 2, "0x1.ff7f000000000p-2", 70_000), ("bd", 4, "0x1.fed3000000000p-2", 52_000)],
    )
    def test_walk_starts_its_slow_rows_at_once(self, monkeypatch, kind, m, eps_star, most):
        # The benchmark cells. The rows of the walk's last steps each take
        # 10^4 to 6.5 * 10^4 sweeps; with the fold's predicted path the
        # slowest of them, the highest below the fold, starts at sweep 0
        # and decides the others, so the run is about as long as that row.
        # Without the path these cells ran 103,787 and 70,822 sweeps. Sweeps
        # are the n summed over the lockstep run's _sweeps calls (the
        # certificate's lowering sweeps included); the fold is computed
        # before counting starts.
        value = de._fold(P422, kind, m)
        monkeypatch.setattr(de, "_fold", lambda *args: value)
        sweeps = [0]
        sweeps_orig = de._sweeps

        def counted_sweeps(dev, x, fcoef, n):
            sweeps[0] += n
            return sweeps_orig(dev, x, fcoef, n)

        monkeypatch.setattr(de, "_sweeps", counted_sweeps)
        assert threshold(P422, kind, m, bisect_tol=1e-5) == float.fromhex(eps_star)
        assert sweeps[0] <= most


class TestFold:
    def test_bounds_the_traced_curve(self):
        # The least ε of the fixed-point curve: no point that ebp_trace
        # finds lies left of it, and the traced minimum on a fine chi grid
        # around the fold's well comes close.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        got = de.fold(params, "cd", 2)
        coarse = ebp_trace(params, "cd", 2, np.arange(0.85, 0.02, -0.05))
        assert min(p.epsilon for p in coarse) >= got - 1e-9
        best = min(coarse, key=lambda p: p.epsilon).chi
        fine = ebp_trace(params, "cd", 2, np.arange(best + 0.05, best - 0.05, -2e-3))
        assert got - 1e-9 <= min(p.epsilon for p in fine) <= got + 1e-6

    def test_work_per_cell(self, monkeypatch):
        # Cost, as a count: at L=10/w=2 every cell of the table takes its
        # start sweeps and at most 300 one-sweep Newton evaluations, each of
        # 4w = 8 rows (about 0.15 ms each on two cores).
        calls = []
        sweeps_orig = de._sweeps

        def counted_sweeps(dev, x, fcoef, n):
            calls.append((n, x.shape))
            return sweeps_orig(dev, x, fcoef, n)

        monkeypatch.setattr(de, "_sweeps", counted_sweeps)
        for kind, m in REF_L10_W2:
            calls.clear()
            assert de.fold(P422, kind, m) is not None
            assert calls[0] == (de._FOLD_START_SWEEPS, (2, P422.n_sections))
            assert {shape for _, shape in calls[1:]} == {(2, 8, P422.n_sections)}
            assert {n for n, _ in calls[1:]} == {1} and len(calls) <= 301

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="fold search needs kind 'cd' or 'bd', got 'w'"):
            de.fold(P422, "w", 2)

    def test_none_where_not_found(self, monkeypatch):
        # The uncoupled chain decodes nowhere: no well on its curve.
        assert de.fold(EnsembleParams(dl=4, dr=2, dg=2, L=0, w=1), "cd", 2) is None
        # A start state that decodes has no curve to follow.
        monkeypatch.setattr(de, "_FOLD_START", 0.3)
        assert de.fold(P422, "cd", 2) is None
        monkeypatch.undo()
        # Newton failing at every point.
        monkeypatch.setattr(de._FixedPoints, "solve", lambda *args: None)
        assert de.fold(P422, "cd", 2) is None
        monkeypatch.undo()
        # A dense Jacobian of more than MAX_WINDOW_ENTRIES entries.
        monkeypatch.setattr(de, "MAX_WINDOW_ENTRIES", (2 * P422.n_sections + 1) ** 2 - 1)
        assert de.fold(P422, "cd", 2) is None

    def test_points_are_fixed_points(self):
        # Every point Newton accepts is a fixed point of one plain sweep at
        # its ε, at the anchor asked for.
        dev = DensityEvolution(P422, "bd", 4)
        newton = de._FixedPoints(dev)
        eps = 0.6
        x = de._sweeps(dev, np.ones((2, P422.n_sections)), dev.fpoly(eps), 300)[-1]
        for chi in x[0].mean() - np.arange(4) / 100:
            x, eps = newton.solve(x, eps, chi)
            p, q = dev.sweep(*x, dev.fpoly(eps))
            assert max(np.abs(p - x[0]).max(), np.abs(q - x[1]).max()) <= de._RESIDUAL_TOL
            assert abs(x[0].mean() - chi) <= de._RESIDUAL_TOL


class TestStallCertificate:
    P43 = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)

    @pytest.mark.parametrize(
        "params, kind, m, eps",
        [(P422, kind, m, None) for kind, m in REF_L10_W2]
        + [(EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3), "bd", 3, 0.5)],
    )
    def test_fold_point_certifies_rows_just_above_the_fold(self, params, kind, m, eps):
        # Rows this close above the fold creep too slowly for the slow-mode
        # certificate: at bisect_tol 1e-8 the walk used to cap cd and bd
        # m=1, bd m=2 and bd m=3 within 2e-8 above their folds, and bd m=3 at
        # L=20/w=3 at its first midpoint, 0.5 (4.5e-7 above). Each such row
        # is certified as it joins: here the dyadic midpoint nearest above
        # each L=10/w=2 fold at depth 2**-26 (2.5e-10 to 1.2e-8 above it),
        # in 4-6 ms per row on two cores.
        eps_fold, point = de._fold(params, kind, m)
        if eps is None:
            eps = float(np.floor(eps_fold * 2**26) + 1) / 2**26
            assert eps - eps_fold <= 2**-26
        assert eps > eps_fold
        assert de._fold_certified(params, kind, m, point, eps) is True

    def test_one_operator_per_certificate(self, monkeypatch):
        # The lowering and the exact sweep run on the one operator that the
        # certificate builds.
        built = []

        class Counted(DensityEvolution):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        point = de._fold(P422, "cd", 2)[1]
        monkeypatch.setattr(de, "DensityEvolution", Counted)
        assert de._fold_certified(P422, "cd", 2, point, 0.5) is True
        assert built == [(P422, "cd", 2)]

    def test_checker_rejects_one_ulp(self, monkeypatch):
        # A fold-point certificate of a real row, with one punctured rate
        # raised to the least float above its exact image: rejected. One ulp
        # lower it passes, and so does every other entry.
        checks = spy_certifies(monkeypatch, keep_args=True)
        de._fold_certified(P422, "cd", 2, de._fold(P422, "cd", 2)[1], 0.5)
        (dev, eps, p, q), ok = checks[0]
        assert ok and de._certifies(dev, eps, p, q)
        i = P422.L
        p = p.copy()
        while (t := exact_image(dev, eps, p, q)[0][i]) >= p[i]:
            p[i] = np.nextafter(float(t), 2.0)
        while exact_image(dev, eps, (low := ulp_below(p, i)), q)[0][i] < low[i]:
            p = low
        assert not de._certifies(dev, eps, p, q)
        assert de._certifies(dev, eps, ulp_below(p, i), q)

    def test_no_row_below_threshold_is_certified(self, monkeypatch):
        # Every cell of the table: its rows converge, and its fold point
        # certifies neither of them.
        checks = spy_certifies(monkeypatch)
        families = {
            (cell, eps): ChannelFamily(*cell, eps)
            for cell, ref in REF_L10_W2.items()
            for eps in (ref - 1e-3, ref - 1e-4)
        }
        done = run_de(P422, lambda done: {k: f for k, f in families.items() if k not in done})
        assert [k for k, r in done.items() if r.status != "converged"] == []
        refused = []
        for cell, ref in REF_L10_W2.items():
            point = de._fold(P422, *cell)[1]
            for eps in (ref - 1e-3, ref - 1e-4):
                refused.append(de._fold_certified(P422, *cell, point, eps))
        assert len(done) == len(refused) == 24 and not any(refused) and not any(checks)

    @pytest.mark.parametrize(
        "gain, level, accepted",
        [
            (1e-12, 0.5, True),
            # No punctured rate above 1e-6 keeps a row from decoding.
            (1e-12, 1e-7, False),
        ],
    )
    def test_filter_rules(self, gain, level, accepted):
        # The lowering takes _CERT_PASSES sweeps and no other: the exact
        # sweep alone decides T(y) >= y.
        dev = ShiftedSweep(gain)
        y, ok = filter_with_fake_sweep(dev, level)
        assert dev.sweeps == de._CERT_PASSES
        assert ok is accepted
        if accepted:
            assert np.array_equal(y[0], np.full(P422.n_sections, level))

    def test_every_candidate_in_a_search_is_certified(self, monkeypatch):
        # The fold-point lowering is tight: no candidate that a whole
        # threshold search tries fails the exact sweep.
        checks = spy_certifies(monkeypatch)
        threshold(self.P43, "cd", 2, bisect_tol=1e-4)
        assert len(checks) > 0 and all(checks)


class ShiftedSweep:
    """Stands in for a DensityEvolution in _lowered: its sweep maps every
    rate x to x + gain, and counts its calls."""

    def __init__(self, gain):
        self.gain = gain
        self.sweeps = 0

    def sweep(self, p, q, fcoef):
        self.sweeps += 1
        return p + self.gain, q + self.gain


def filter_with_fake_sweep(dev, level):
    """_lowered on a candidate that is all `level`: the lowered candidate
    and whether some punctured rate of it exceeds _CERT_MIN_P."""
    y = [np.full(P422.n_sections, level) for _ in range(2)]
    return de._lowered(dev, y, np.zeros(1))


def spy_certifies(monkeypatch, keep_args=False):
    """Record each exact check's answer (with its arguments if keep_args)."""
    checks = []
    certifies = de._certifies

    def spy(*args):
        ok = certifies(*args)
        checks.append((args, ok) if keep_args else ok)
        return ok

    monkeypatch.setattr(de, "_certifies", spy)
    return checks


def exact_image(dev, eps, p, q):
    """One exact sweep of (p, q) at eps, as lists of Fractions."""
    y = [np.array([Fraction(v) for v in x.tolist()], dtype=object) for x in (p, q)]
    return [list(t) for t in dev.sweep(*y, dev.fpoly(Fraction(eps)))]


def ulp_above_image(params, kind, m, eps, point):
    """The fold point with its middle punctured rate raised to the least
    float above its exact image at the fold eps."""
    dev = DensityEvolution(params, kind, m)
    p, q = point[0].copy(), point[1]
    i = params.L
    p[i] = np.nextafter(float(exact_image(dev, eps, p, q)[0][i]), 2.0)
    while (t := exact_image(dev, eps, p, q)[0][i]) >= p[i]:
        p[i] = np.nextafter(float(t), 2.0)
    return np.array([p, q])


def ulp_below(x, i):
    """x with entry i lowered to the next float below it."""
    x = x.copy()
    x[i] = np.nextafter(x[i], -1.0)
    return x


def reference_walk(params, kind, m, *, bisect_tol):
    """The midpoints of reference_threshold's bisection, uncapped."""
    lo, hi, walk = 0.0, 1.0, []
    while hi - lo > bisect_tol:
        walk.append(0.5 * (lo + hi))
        if reference_run_de(params, ChannelFamily(kind, m, walk[-1])).success:
            lo = walk[-1]
        else:
            hi = walk[-1]
    return walk


def assert_same_result(got, ref):
    assert got.status == ref.status and got.success == ref.success
    assert got.state.iterations == ref.state.iterations
    assert got.state.epsilon == ref.state.epsilon
    assert np.array_equal(got.state.p, ref.state.p)
    assert np.array_equal(got.state.q, ref.state.q)


def reference_run_de(params, family, *, max_iter=de.MAX_ITER):
    """run_de for one family as the 1-D loop it was before lockstep rows,
    without its monotone check, on the plain sweep formula."""
    fcoef = transfer_poly(dimension_distribution(family))
    p = q = np.ones(params.n_sections)
    it, status = 0, "iter-limit"
    while it < max_iter:
        p1, q1 = sweep_oracle(params, p, q, fcoef)
        it += 1
        change = max(np.abs(p1 - p).max(), np.abs(q1 - q).max())
        p, q = p1, q1
        if p.max() < 1e-10:
            status = "converged"
            break
        if change < 1e-15:
            status = "stalled"
            break
    state = DeState(L=params.L, p=p, q=q, epsilon=family.parameter, iterations=it)
    return DeResult(state=state, success=status == "converged", status=status)


def tree_midpoints(lo, hi, bisect_tol):
    """Every midpoint that bisection from [lo, hi] to bisect_tol can form."""
    if hi - lo <= bisect_tol:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *tree_midpoints(lo, mid, bisect_tol), *tree_midpoints(mid, hi, bisect_tol)]


def monotone_closure(known, mids):
    """The decision map `known` closed over `mids` by enumeration: a midpoint
    without its own decision goes up if some row at or above it converged,
    and down if some row at or below it stalled; if both or neither, it
    stays unmapped. Capped rows (None) imply nothing."""
    closed = dict(known)
    for x in mids:
        if x not in known:
            up = any(v is True and y >= x for y, v in known.items())
            down = any(v is False and y <= x for y, v in known.items())
            if up != down:
                closed[x] = up
    return closed


def brute_force_walk(lo, hi, bisect_tol, known, guess):
    """de._walk by enumeration: (lo, hi, mid, path) of the one bracket of the
    whole bisection tree that the walk reaches (each midpoint above it maps
    to the way the path turns, or is unmapped and the guess lies on that
    side) and ends on (no wider than bisect_tol, mid None, or its midpoint
    mid can turn neither way); path holds the unmapped midpoints above it."""

    def turns(x, up):
        if x in known:
            return known[x] is up
        return guess is not None and (x < guess) == up

    ends = []
    nodes = [(lo, hi, [])]  # a bracket and the (midpoint, went up) above it
    while nodes:
        a, b, path = nodes.pop()
        mid = 0.5 * (a + b) if b - a > bisect_tol else None
        if all(turns(x, up) for x, up in path):
            if mid is None or not (turns(mid, True) or turns(mid, False)):
                ends.append((a, b, mid, [x for x, _ in path if x not in known]))
        if mid is not None:
            nodes += [(a, mid, [*path, (mid, False)]), (mid, b, [*path, (mid, True)])]
    (end,) = ends
    return end


def batched_schedule_sweeps(params, kind, m, bisect_tol):
    """Sweeps of threshold's earlier schedule: each lockstep run_de call
    decided every midpoint of the next two bisection levels, in whole
    blocks until its slowest row decided, before the next call began."""
    lo, hi = 0.0, 1.0
    total = 0
    while hi - lo > bisect_tol:
        n = 2 ** sum(hi - lo > bisect_tol * 2**i for i in range(2))
        mids = [lo + (hi - lo) * k / n for k in range(1, n)]
        runs = dict(zip(mids, run_de(params, [ChannelFamily(kind, m, x) for x in mids])))
        longest = max(r.state.iterations for r in runs.values())
        total += -(-longest // de._SWEEP_BLOCK) * de._SWEEP_BLOCK
        while hi - lo > bisect_tol and (mid := 0.5 * (lo + hi)) in runs:
            lo, hi = (mid, hi) if runs[mid].success else (lo, mid)
    return total


def reference_threshold(params, kind, m, *, bisect_tol, max_iter=de.MAX_ITER):
    """Plain bisection, one DE run per step."""
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        res = reference_run_de(params, ChannelFamily(kind, m, mid), max_iter=max_iter)
        if res.status == "iter-limit":
            raise ConvergenceError(
                f"DE hit the {max_iter}-sweep cap at parameter {mid}; bracket inconclusive"
            )
        if res.success:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h_mean(state, family, alternative=False):
    """EXIT-like value of a state, averaged over the chain sections."""
    dev = DensityEvolution(P422, family.kind, family.m)
    fcoef = dev.fpoly(family.parameter)
    return float(np.mean(dev.h_profile(state.p, state.q, fcoef, alternative=alternative)))


class TestHExit:
    def test_trivial_fixed_point_is_zero(self):
        n = P422.n_sections
        zero = DeState(L=P422.L, p=np.zeros(n), q=np.zeros(n), epsilon=0.45)
        assert h_mean(zero, CD2) == 0.0

    def test_bounded(self):
        st = ones_state(P422, 0.45)
        assert 0.0 <= h_mean(st, CD2) <= 1.0

    def test_alternative_dominates(self):
        # z**dg <= z on [0,1], so the written form is <= the alternative
        res = run_de(P422, ChannelFamily.concentrated(2, 0.55))
        hw = h_mean(res.state, ChannelFamily.concentrated(2, 0.55))
        ha = h_mean(res.state, ChannelFamily.concentrated(2, 0.55), alternative=True)
        assert hw <= ha <= 1.0

    def test_profile_monotone_in_state(self):
        dev = DensityEvolution(P422, "cd", 2)
        fcoef = dev.fpoly(0.45)
        n = P422.n_sections
        lo = dev.h_profile(np.full(n, 0.3), np.full(n, 0.3), fcoef)
        hi = dev.h_profile(np.full(n, 0.6), np.full(n, 0.6), fcoef)
        assert np.all(lo <= hi + 1e-14)


    def test_profile_is_clipped_polyval(self):
        # h_profile evaluates f by the q-update's Horner loop; that must give
        # the clipped numpy polyval of f bit for bit, also where the clip
        # acts (z outside [0, 1]).
        rng = np.random.default_rng(7)
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        n = params.n_sections
        z_wide = np.linspace(-1.5, 2.5, 401)
        clipped_lo = clipped_hi = False
        for kind in ("cd", "bd"):
            for m in range(1, 7):
                dev = DensityEvolution(params, kind, m)
                for eps in (0.0, 1.0, *rng.uniform(0, 1, 3)):
                    fcoef = dev.fpoly(float(eps))
                    raw = npoly.polyval(z_wide, fcoef)
                    f = q_update(z_wide, 1.0, fcoef)
                    assert np.array_equal(f, np.clip(raw, 0.0, 1.0))
                    clipped_lo |= bool((raw < 0.0).any())
                    clipped_hi |= bool((raw > 1.0).any())
                    for lo, hi in ((0.0, 1.0), (-0.6, 1.6)):
                        p, q = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
                        z = dev._check_rates(p, q)[1] ** params.dg
                        f = np.clip(npoly.polyval(z, fcoef), 0.0, 1.0)
                        for alt, tail in ((False, z**params.dg), (True, z)):
                            got = dev.h_profile(p, q, fcoef, alternative=alt)
                            assert np.array_equal(got, f * tail)
        assert clipped_lo and clipped_hi


class TestEbpTrace:
    def test_small_trace(self):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        grid = np.arange(0.9, 0.1, -0.05)
        pts = ebp_trace(params, "cd", 2, grid)
        assert len(pts) >= len(grid) - 2
        for pt in pts:
            assert pt.residual < 1e-9
            assert abs(pt.state.chi - pt.chi) < 1e-6
            assert 0.0 <= pt.h <= 1.0
            assert 0.0 <= pt.epsilon <= 1.0

    def test_matches_reference_tracer(self):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        grid = np.arange(0.9, 0.05, -0.05)
        for kind, m in (("cd", 2), ("bd", 3)):
            pts = ebp_trace(params, kind, m, grid)
            ref = reference_trace(params, kind, m, grid)
            assert len(ref) == len(grid)
            assert [(pt.chi, pt.rounds) for pt in pts] == [r[:2] for r in ref]
            for pt, (_, _, eps, h) in zip(pts, ref):
                assert abs(pt.epsilon - eps) <= 1e-11
                assert abs(pt.h - h) <= 1e-11

    @pytest.mark.parametrize("L, w", [(4, 2), (6, 3), (8, 4), (20, 3)])
    def test_matches_cold_bisection(self, L, w, monkeypatch):
        # Warm brackets and zooms give every point of the cold-bisection
        # tracer bit for bit, on either dimension law up to m = 15 and at
        # windows 2..4. At L=20/w=3 the cd m=6 curve sits just below 0.5, so
        # many warm windows straddle 0.5 and those rounds start from [0, 1].
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        grid = np.arange(0.9, 0.05, -0.1)
        laws = [("cd", 6)] if L == 20 else [(k, m) for k in ("cd", "bd") for m in (1, 2, 6, 15)]
        for kind, m in laws:
            got = ebp_trace(params, kind, m, grid)
            with monkeypatch.context() as mp:
                mp.setattr(de, "_anchored_point", cold_anchored_point)
                ref = ebp_trace(params, kind, m, grid)
            assert len(got) == len(grid)
            assert_same_points(got, ref)

    @pytest.mark.parametrize("kind, m", [("cd", 2), ("bd", 2), ("bd", 6)])
    def test_matches_cold_bisection_wide_window(self, kind, m, monkeypatch):
        # More laws at L=20/w=3, where many warm windows straddle 0.5 and so
        # start from [0, 1], and where a few warm brackets miss the target
        # and fall back to [0, 1], leaving the midpoint evaluated with their
        # ends unused. Every point still matches the cold tracer bit for bit.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
        grid = np.arange(0.9, 0.05, -0.1)
        got = ebp_trace(params, kind, m, grid)
        monkeypatch.setattr(de, "_anchored_point", cold_anchored_point)
        ref = ebp_trace(params, kind, m, grid)
        assert len(got) == len(grid)
        assert_same_points(got, ref)

    def test_fewer_evaluations_per_round(self, monkeypatch):
        # Every round of the cold tracer here evaluates the detector half 43
        # times, one call each: both ends of [0, 1], 40 bisection steps and
        # the final state.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=6, w=3)
        grid = np.arange(0.9, 0.05, -0.1)
        got, rounds, calls, evals = counted_trace(monkeypatch, params, "cd", 6, grid)
        monkeypatch.setattr(de, "_anchored_point", cold_anchored_point)
        ref, ref_rounds, ref_calls, ref_evals = counted_trace(monkeypatch, params, "cd", 6, grid)
        assert_same_points(got, ref)
        assert rounds == ref_rounds and ref_evals == ref_calls == 43 * ref_rounds
        assert evals < 22 * rounds
        assert calls <= 8 * rounds

    def test_probe_miss_falls_back_to_cold_path(self, monkeypatch):
        # A warm bracket below every ε of the trace, rounds 1 and 2's
        # predicted ones too: each probe finds mean(p) below the target at
        # both ends, and the round takes the cold path.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        grid = np.arange(0.9, 0.05, -0.1)
        warm = []

        def low_bracket(eps, d_eps):
            warm.append(eps)
            return 0.0, 2.0**-de._WARM_DEPTH

        with monkeypatch.context() as mp:
            mp.setattr(de, "_anchored_point", cold_anchored_point)
            cold = ebp_trace(params, "bd", 3, grid)
        with monkeypatch.context() as mp:
            mp.setattr(de, "_warm_bracket", lambda eps, d_eps: (0.0, 1.0))
            ref, rounds, _, ref_evals = counted_trace(mp, params, "bd", 3, grid)
        monkeypatch.setattr(de, "_warm_bracket", low_bracket)
        got, got_rounds, _, evals = counted_trace(monkeypatch, params, "bd", 3, grid)
        assert_same_points(ref, cold)
        assert_same_points(got, ref)
        assert got_rounds == rounds and min(warm) > 2.0**-de._WARM_DEPTH
        # One probe per warm round, at 2**-_WARM_DEPTH: the cold round that follows
        # reuses mean(p) at 0 and is the round the tracer takes without warm
        # brackets. Evaluations are counted as rows.
        assert evals == ref_evals + len(warm)

    @pytest.mark.parametrize("L", [4, 10])
    def test_warm_depth_margin(self, L, monkeypatch):
        # The premise of _WARM_DEPTH (see its comment): at every round's
        # crossing mean(p) moves by at least ten times more over 2**-_WARM_DEPTH
        # in ε than its computed value jitters between nearby ε. The slope is
        # the secant over a bracket of the crossing 64**-3 wide; the jitter is
        # the largest deviation from a line fitted over 200 ε spaced 1e-13
        # around each point's ε, at its fixed point. Rounds that end at ε = 0
        # or 1 bisect nothing and are left out.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=2)
        n = params.n_sections
        grid = np.arange(0.9, 0.05, -0.1)
        map_orig = DensityEvolution.staged_round_map
        slopes, jitters = [], []
        for kind, m in [(kind, m) for kind in ("cd", "bd") for m in (2, 6, 15)]:
            dev = DensityEvolution(params, kind, m)
            rounds = []  # the staged map of every round

            def recorded_map(self, p, q):
                rounds.append(map_orig(self, p, q))
                return rounds[-1]

            with monkeypatch.context() as mp:
                mp.setattr(DensityEvolution, "staged_round_map", recorded_map)
                points = ebp_trace(params, kind, m, grid)
            assert len(points) == len(grid) and sum(pt.rounds for pt in points) == len(rounds)

            def chi(at, eps):
                return at(dev.fpoly(eps))[0].sum(axis=1) / n

            targets = np.repeat([pt.chi for pt in points], [pt.rounds for pt in points])
            for at, target in zip(rounds, targets):
                eps, c = [0.0, 1.0], chi(at, [0.0, 1.0])
                if not c[0] < target < c[1]:
                    continue
                for _ in range(3):
                    eps = np.linspace(eps[0], eps[-1], 65)
                    c = chi(at, eps)
                    k = int(np.searchsorted(c, target))
                    eps, c = eps[k - 1 : k + 1], c[k - 1 : k + 1]
                slopes.append((c[1] - c[0]) / (eps[1] - eps[0]))
            x = np.arange(200.0)
            for pt in points:
                c = chi(dev.staged_round_map(pt.state.p, pt.state.q), pt.epsilon + 1e-13 * (x - 100))
                jitters.append(np.abs(c - np.polyval(np.polyfit(x, c, 1), x)).max())
        assert len(slopes) > 600
        assert min(slopes) * 2.0**-de._WARM_DEPTH >= 10 * max(jitters)

    def test_zoom_miss_falls_back_to_bisection(self, monkeypatch):
        # Every zoom interval lies just outside the bracket, on the side where
        # mean(p) at the bracket's end already decides: mean(p) is below the
        # target at lo and not below it at hi, so the probes never bracket
        # the target strictly and each zoom falls back to a bisection step.
        # Warm brackets (the [0, 1] case of the same helper) stay [0, 1].
        params = EnsembleParams(dl=4, dr=2, dg=2, L=6, w=3)
        grid = np.arange(0.9, 0.05, -0.1)
        cell = 2.0**-de._WARM_DEPTH
        missed = []

        def outside_cover(lo, hi, a, b):
            if (lo, hi) == (0.0, 1.0):
                return lo, hi
            missed.append((lo, hi))
            return (hi, hi + cell) if hi < 1.0 else (lo - cell, lo)

        for kind, m in (("cd", 6), ("bd", 2)):
            with monkeypatch.context() as mp:
                mp.setattr(de, "_anchored_point", cold_anchored_point)
                ref = ebp_trace(params, kind, m, grid)
            with monkeypatch.context() as mp:
                mp.setattr(de, "_dyadic_cover", outside_cover)
                got = ebp_trace(params, kind, m, grid)
            assert len(got) == len(grid)
            assert_same_points(got, ref)
        assert missed

    def test_dyadic_cover_inside_a_bracket(self):
        # Inside any dyadic bracket [lo, hi], as a zoom calls it: a dyadic
        # interval inside the bracket holding the clipped window, and no
        # deeper one holds it.
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = int(rng.integers(0, de._WARM_DEPTH + 1))
            j = int(rng.integers(0, 2**k))
            lo, hi = j * 2.0**-k, (j + 1) * 2.0**-k
            c, r = float(rng.uniform(lo, hi)), float(10 ** rng.uniform(-12, 0))
            a, b = de._dyadic_cover(lo, hi, c - r, c + r)
            assert lo <= a < b <= hi
            kk = -np.log2(b - a)
            assert kk == int(kk) <= de._WARM_DEPTH
            assert a * 2**kk == int(a * 2**kk)
            assert a <= max(c - r, lo) and min(c + r, hi) <= b
            if kk < de._WARM_DEPTH:
                mid = 0.5 * (a + b)
                assert max(c - r, lo) < mid < min(c + r, hi)

    def test_warm_bracket_is_the_deepest_dyadic_interval(self):
        rng = np.random.default_rng(17)
        cases = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 1e-12), (0.3, 1.0)]
        cases += [(float(e), 0.0) for e in rng.uniform(0, 1, 50)]
        cases += [(float(e), float(10 ** rng.uniform(-13, 0))) for e in rng.uniform(0, 1, 500)]
        for eps, d_eps in cases:
            lo, hi = de._warm_bracket(eps, d_eps)
            w_lo = max(eps - de._WARM_WIDTH * d_eps, 0.0)
            w_hi = min(eps + de._WARM_WIDTH * d_eps, 1.0)
            k = -np.log2(hi - lo)
            assert k == int(k) <= de._WARM_DEPTH
            assert lo * 2**k == int(lo * 2**k) and 0.0 <= lo < hi <= 1.0
            assert lo <= w_lo and w_hi <= hi
            if k < de._WARM_DEPTH:
                mid = 0.5 * (lo + hi)
                assert w_lo < mid < w_hi

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ebp_trace(P422, "cd", 2, [0.5, 0.6])
        with pytest.raises(ValueError):
            ebp_trace(P422, "cd", 2, [1.2, 0.5])
        with pytest.raises(ValueError):
            ebp_trace(P422, "w", 2, [0.5])
        for grid in (np.array([[0.5], [0.4]]), [[0.5, 0.4]], [0.5, [0.4]]):
            with pytest.raises(ValueError, match="chi_grid"):
                ebp_trace(P422, "cd", 2, grid)


def assert_same_points(got, ref):
    assert len(got) == len(ref)
    for pt, rp in zip(got, ref):
        assert (pt.epsilon, pt.h, pt.chi, pt.residual, pt.rounds) == (
            rp.epsilon, rp.h, rp.chi, rp.residual, rp.rounds
        )
        assert pt.state.epsilon == rp.state.epsilon
        assert pt.state.iterations == rp.state.iterations
        assert np.array_equal(pt.state.p, rp.state.p)
        assert np.array_equal(pt.state.q, rp.state.q)


def counted_trace(monkeypatch, params, kind, m, chis):
    """ebp_trace with its rounds (staged maps built), detector-half calls
    (calls of those maps) and evaluations (rows of those calls) counted:
    (points, rounds, calls, evaluations)."""
    counts = {"rounds": 0, "calls": 0, "evals": 0}
    map_orig = DensityEvolution.staged_round_map

    def counted_map(self, p, q):
        counts["rounds"] += 1
        at = map_orig(self, p, q)

        def counted_at(fcoef):
            counts["calls"] += 1
            counts["evals"] += len(fcoef)
            return at(fcoef)

        return counted_at

    with monkeypatch.context() as mp:
        mp.setattr(DensityEvolution, "staged_round_map", counted_map)
        points = ebp_trace(params, kind, m, chis)
    return points, counts["rounds"], counts["calls"], counts["evals"]


def cold_anchored_point(dev, p, q, target, tracks):
    """de._anchored_point with every round bisecting ε from [0, 1] after
    testing both ends, as it was before warm brackets; the previous points'
    tracks, which predict rounds 1 and 2, are ignored."""
    eps_prev = None
    stuck = 0
    for r in range(1, de._MAX_ROUNDS + 1):
        at = dev.staged_round_map(p, q)

        def staged(eps):
            P, Q = at(dev.fpoly([eps]))
            return P[0], Q[0]

        p_lo, q_lo = staged(0.0)
        p_hi, q_hi = staged(1.0)
        chi_lo = p_lo.mean()
        chi_hi = p_hi.mean()
        if target <= chi_lo:
            eps, p1, q1 = 0.0, p_lo, q_lo
        elif target >= chi_hi:
            eps, p1, q1 = 1.0, p_hi, q_hi
        else:
            lo, hi = 0.0, 1.0
            while hi - lo > de._EPS_BISECT_TOL:
                mid = 0.5 * (lo + hi)
                pm, _ = staged(mid)
                if pm.sum() / pm.size < target:
                    lo = mid
                else:
                    hi = mid
            eps = 0.5 * (lo + hi)
            p1, q1 = staged(eps)
        d_state = max(np.abs(p1 - p).max(), np.abs(q1 - q).max())
        d_eps = float("inf") if eps_prev is None else abs(eps - eps_prev)
        p, q, eps_prev = p1, q1, eps
        anchored = abs(p.mean() - target) <= de._ANCHOR_TOL
        if eps in (0.0, 1.0) and not anchored:
            stuck += 1
            if stuck > de._STUCK_LIMIT:
                return None
        else:
            stuck = 0
        if d_state < de._STATE_TOL and d_eps < de._EPS_CHANGE_TOL and anchored:
            return p, q, eps, r
    return None


def reference_trace(params, kind, m, chis):
    """The tracer as first written: every bisection step of every round is a
    full staged round with a transfer polynomial built from a new
    ChannelFamily. Returns (chi, rounds, eps, h) per accepted point."""

    def fpoly(eps):
        return transfer_poly(dimension_distribution(ChannelFamily(kind, m, eps)))

    def anchored(p, q, target, anchor_tol=1e-8, stuck_limit=200):
        eps_prev, stuck = None, 0
        for r in range(1, 200_001):
            p_lo, q_lo = dev.staged_round(p, q, fpoly(0.0))
            p_hi, q_hi = dev.staged_round(p, q, fpoly(1.0))
            if target <= p_lo.mean():
                eps, p1, q1 = 0.0, p_lo, q_lo
            elif target >= p_hi.mean():
                eps, p1, q1 = 1.0, p_hi, q_hi
            else:
                lo, hi = 0.0, 1.0
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if dev.staged_round(p, q, fpoly(mid))[0].mean() < target:
                        lo = mid
                    else:
                        hi = mid
                eps = 0.5 * (lo + hi)
                p1, q1 = dev.staged_round(p, q, fpoly(eps))
            d_state = max(np.abs(p1 - p).max(), np.abs(q1 - q).max())
            d_eps = float("inf") if eps_prev is None else abs(eps - eps_prev)
            p, q, eps_prev = p1, q1, eps
            anchored_ok = abs(p.mean() - target) <= anchor_tol
            if eps in (0.0, 1.0) and not anchored_ok:
                stuck += 1
                if stuck > stuck_limit:
                    return None
            else:
                stuck = 0
            if d_state < 1e-10 and d_eps < 1e-10 and anchored_ok:
                return p, q, eps, r
        return None

    dev = DensityEvolution(params, kind, m)
    p = q = np.ones(params.n_sections)
    out = []
    for chi in chis:
        sol = anchored(p, q, float(chi))
        if sol is None:
            continue
        p, q, eps, rounds = sol
        p_chk, q_chk = dev.sweep(p, q, fpoly(eps))
        if max(np.abs(p_chk - p).max(), np.abs(q_chk - q).max()) > 1e-9:
            continue
        DeState(L=params.L, p=p, q=q, epsilon=eps, iterations=rounds)  # rates in [0, 1]
        h = float(np.mean(dev.h_profile(p, q, fpoly(eps))))
        out.append((float(chi), rounds, eps, h))
    return out
