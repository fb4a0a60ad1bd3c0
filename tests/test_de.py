import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from scmn import de
from scmn.channel import ChannelFamily, dimension_distribution, transfer_poly
from scmn.de import (
    ConvergenceError,
    DensityEvolution,
    DeResult,
    DeState,
    ebp_trace,
    run_de,
    threshold,
    trajectory,
)
from scmn.ensemble import EnsembleParams

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
        # The coupling windows as the per-row loops that first built them.
        for L in range(9):
            for w in range(1, 7):
                n, nc = 2 * L + 1, 2 * L + w
                Wb = np.zeros((nc, n))
                for c in range(nc):
                    Wb[c, max(0, c - w + 1) : min(n - 1, c) + 1] = 1.0 / w
                Wf = np.zeros((n, nc))
                for i in range(n):
                    Wf[i, i : i + w] = 1.0 / w
                dev = DensityEvolution(EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w), "cd", 2)
                assert np.array_equal(dev.Wb, Wb)
                assert np.array_equal(dev.Wf, Wf)
                # gemv on a transposed view would sum in another order
                assert dev.Wf.flags.c_contiguous

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
            got = dev._q_update(z, s1, np.stack(fcoefs, axis=1)[..., None, None])
            for k, fcoef in enumerate(fcoefs):
                assert np.array_equal(got[k, :, 0], dev._q_update(z[k, :, 0], s1[k, :, 0], fcoef))

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
            got = DensityEvolution._q_update(z, s1, fcoef)
            assert np.array_equal(got, full_start(z, s1, fcoef))
            z = rng.uniform(-0.2, 1.2, (3, 21, 1))
            s1 = rng.uniform(0, 1, z.shape)
            fcoef = rng.normal(0, 1, (deg, 3, 1, 1))
            got = DensityEvolution._q_update(z, s1, fcoef)
            assert got.shape == z.shape
            assert np.array_equal(got, full_start(z, s1, fcoef))

    def test_staged_round_map_matches_staged_round(self):
        # States partly outside [0, 1] drive the q-update past both ends of
        # its clip; the map must agree there too.
        rng = np.random.default_rng(3)
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        n = params.n_sections
        clipped_lo = clipped_hi = False
        for kind in ("cd", "bd"):
            for m in range(1, 7):
                dev = DensityEvolution(params, kind, m)
                for lo, hi in ((0.0, 1.0), (-0.3, 1.3)):
                    p, q = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
                    staged = dev.staged_round_map(p, q)
                    for eps in (0.0, 1.0, 0.5 / m, *rng.uniform(0, 1, 4)):
                        p1, q1 = staged(float(eps))
                        p2, q2 = dev.staged_round(p, q, dev.fpoly(float(eps)))
                        assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
                        clipped_lo |= bool((q1 == 0.0).any())
                        clipped_hi |= bool((q1 == 1.0).any())
        assert clipped_lo and clipped_hi


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
        monkeypatch.setattr(DensityEvolution, "sweep", lambda self, p, q, fcoef: (p, 1.0 - q))
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
        with pytest.raises(ValueError):
            run_de(P422, [CD2, ChannelFamily.binomial(2, 0.45)])
        with pytest.raises(ValueError):
            run_de(P422, [CD2, ChannelFamily.concentrated(3, 0.45)])

    def test_single_family_matches_reference(self, monkeypatch):
        # The one-row run against the 1-D loop it replaced.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        for fam in (CD2, ChannelFamily.binomial(3, 0.3), ChannelFamily.concentrated(2, 0.6)):
            assert_same_result(run_de(params, fam), reference_run_de(params, fam))
        fam = ChannelFamily.concentrated(2, 0.49)
        monkeypatch.setattr(de, "MAX_ITER", 40)
        got = run_de(params, fam)
        assert got.status == "iter-limit"
        assert_same_result(got, reference_run_de(params, fam, max_iter=40))

    def test_lockstep_rows_match_single_runs(self, monkeypatch):
        # Rows decide at different sweeps: some converge, some stall, and
        # with a budget below the slowest row's, that row hits the cap.
        for w in (2, 3, 4):
            params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=w)
            for kind, m in (("cd", 2), ("bd", 3)):
                th = threshold(params, kind, m, bisect_tol=1e-3)
                eps = [0.0, 0.2, th - 0.05, th - 2e-4, th + 2e-4, th + 0.05, 0.9]
                families = [ChannelFamily(kind, m, float(e)) for e in eps]
                singles = [run_de(params, f) for f in families]
                assert {r.status for r in singles} == {"converged", "stalled"}
                sweeps = sorted({r.state.iterations for r in singles})
                assert len(sweeps) == len(eps)
                for max_iter in (de.MAX_ITER, sweeps[-2]):
                    monkeypatch.setattr(de, "MAX_ITER", max_iter)
                    rows = run_de(params, families)
                    assert len(rows) == len(families)
                    for fam, row in zip(families, rows):
                        assert_same_result(row, run_de(params, fam))
                monkeypatch.undo()
                assert rows[-1].status != "iter-limit"
                assert sum(r.status == "iter-limit" for r in rows) == 1


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

    @pytest.mark.parametrize("L, w", [(4, 2), (4, 3), (6, 4)])
    def test_matches_plain_bisection(self, L, w):
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        for kind in ("cd", "bd"):
            for m in (1, 2, 3, 6):
                got = threshold(params, kind, m, bisect_tol=1e-3)
                assert got == reference_threshold(params, kind, m, bisect_tol=1e-3)

    def test_bisection_subtree_matches_level_builder(self):
        # Seeded dyadic brackets [j * 2**-d, (j + 1) * 2**-d] and tolerances
        # spread over [2**-52, 1), powers of two included, so that a level's
        # width can equal bisect_tol exactly.
        rng = np.random.default_rng(13)
        for _ in range(20_000):
            d = int(rng.integers(0, 49))
            j = int(rng.integers(0, 2**d))
            lo, hi = j * 2.0**-d, (j + 1) * 2.0**-d
            e = rng.uniform(-52, 0)
            bisect_tol = 2.0 ** (np.floor(e) if rng.random() < 0.25 else e)
            got = de._bisection_subtree(lo, hi, bisect_tol)
            assert len(got) == len(set(got))
            assert set(got) == set(level_bisection_subtree(lo, hi, bisect_tol))

    def test_iter_limit_names_the_same_parameter(self, monkeypatch):
        # At L=4/w=3, cd m=2, bisection steps 4, 5 and 12 are the first to
        # take more than 150, 300 and 3000 sweeps (196, 374 and 3702). So
        # these budgets stop the search at a midpoint on each level of a
        # three-level lockstep batch.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=3)
        capped = set()
        for max_iter in (150, 300, 3000):
            monkeypatch.setattr(de, "MAX_ITER", max_iter)
            with pytest.raises(ConvergenceError) as got:
                threshold(params, "cd", 2, bisect_tol=1e-4)
            with pytest.raises(ConvergenceError) as ref:
                reference_threshold(params, "cd", 2, bisect_tol=1e-4, max_iter=max_iter)
            assert str(got.value) == str(ref.value)
            capped.add(str(ref.value).split("parameter ")[1])
        assert len(capped) == 3

    def test_reaches_traced_attributes(self, monkeypatch):
        # The benchmark's tracer wraps scmn.de.run_de and
        # DensityEvolution.sweep where they are looked up, so threshold must
        # call them through the module and the class. It also replaces
        # scmn.de.ChannelFamily with a function, so scmn.de may only call it.
        calls = {"run_de": 0, "sweep": 0, "longest": 0, "family": 0, "rows": 0}
        run_de_orig = de.run_de
        sweep_orig = DensityEvolution.sweep

        def counted_family(*args):
            calls["family"] += 1
            return ChannelFamily(*args)

        def counted_run_de(*args, **kwargs):
            calls["run_de"] += 1
            results = run_de_orig(*args, **kwargs)
            calls["rows"] += len(results)
            calls["longest"] += max(r.state.iterations for r in results)
            return results

        def counted_sweep(self, *args):
            calls["sweep"] += 1
            return sweep_orig(self, *args)

        monkeypatch.setattr(de, "run_de", counted_run_de)
        monkeypatch.setattr(DensityEvolution, "sweep", counted_sweep)
        monkeypatch.setattr(de, "ChannelFamily", counted_family)
        threshold(P422, "cd", 2, bisect_tol=1e-2)
        assert calls["family"] == calls["rows"] > 0
        # 7 bisection steps, _BISECT_LEVELS per batch. A batch runs until
        # its slowest row decides, rounded up to whole blocks of sweeps.
        assert calls["run_de"] == -(-7 // de._BISECT_LEVELS)
        assert 0 < calls["longest"] <= calls["sweep"]
        assert calls["sweep"] < calls["longest"] + calls["run_de"] * de._SWEEP_BLOCK


def assert_same_result(got, ref):
    assert got.status == ref.status and got.success == ref.success
    assert got.state.iterations == ref.state.iterations
    assert got.state.epsilon == ref.state.epsilon
    assert np.array_equal(got.state.p, ref.state.p)
    assert np.array_equal(got.state.q, ref.state.q)


def reference_run_de(params, family, *, max_iter=de.MAX_ITER):
    """run_de for one family as the 1-D loop it was before lockstep rows,
    without its monotone check."""
    dev = DensityEvolution(params, family.kind, family.m)
    fcoef = transfer_poly(dimension_distribution(family))
    p = q = np.ones(params.n_sections)
    it, status = 0, "iter-limit"
    while it < max_iter:
        p1, q1 = dev.sweep(p, q, fcoef)
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


def level_bisection_subtree(lo, hi, bisect_tol):
    """de._bisection_subtree as it was: the brackets of each level wider
    than bisect_tol, split one level at a time."""
    mids = []
    brackets = [(lo, hi)]
    for _ in range(de._BISECT_LEVELS):
        brackets = [(a, b) for a, b in brackets if b - a > bisect_tol]
        halves = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += [(a, mid), (mid, b)]
        brackets = halves
    return mids


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
                    f = dev._q_update(z_wide, 1.0, fcoef)
                    assert np.array_equal(f, np.clip(raw, 0.0, 1.0))
                    clipped_lo |= bool((raw < 0.0).any())
                    clipped_hi |= bool((raw > 1.0).any())
                    for lo, hi in ((0.0, 1.0), (-0.6, 1.6)):
                        p, q = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
                        z = dev._check(p, q)[3] ** params.dg
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

    def test_fewer_evaluations_per_round(self, monkeypatch):
        # Every round of the cold tracer here evaluates the detector half 43
        # times: both ends of [0, 1], 40 bisection steps and the final state.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=6, w=3)
        grid = np.arange(0.9, 0.05, -0.1)
        got, rounds, evals = counted_trace(monkeypatch, params, "cd", 6, grid)
        monkeypatch.setattr(de, "_anchored_point", cold_anchored_point)
        ref, ref_rounds, ref_evals = counted_trace(monkeypatch, params, "cd", 6, grid)
        assert_same_points(got, ref)
        assert rounds == ref_rounds and ref_evals == 43 * ref_rounds
        assert evals < 22 * rounds

    def test_probe_miss_falls_back_to_cold_path(self, monkeypatch):
        # A warm bracket below every ε of the trace: each probe finds mean(p)
        # below the target at both ends, and the round takes the cold path.
        params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=2)
        grid = np.arange(0.9, 0.05, -0.1)
        warm = []

        def low_bracket(eps, d_eps):
            warm.append(eps)
            return 0.0, 2.0**-30

        with monkeypatch.context() as mp:
            mp.setattr(de, "_anchored_point", cold_anchored_point)
            cold = ebp_trace(params, "bd", 3, grid)
        with monkeypatch.context() as mp:
            mp.setattr(de, "_warm_bracket", lambda eps, d_eps: (0.0, 1.0))
            ref, rounds, ref_evals = counted_trace(mp, params, "bd", 3, grid)
        monkeypatch.setattr(de, "_warm_bracket", low_bracket)
        got, got_rounds, evals = counted_trace(monkeypatch, params, "bd", 3, grid)
        assert_same_points(ref, cold)
        assert_same_points(got, ref)
        assert got_rounds == rounds and min(warm) > 2.0**-30
        # One probe per warm round, at 2**-30: the cold round that follows
        # reuses mean(p) at 0 and is the round the tracer takes without warm
        # brackets.
        assert evals == ref_evals + len(warm)

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
    """ebp_trace with its rounds (staged maps built) and detector-half
    evaluations (calls of those maps) counted."""
    counts = {"rounds": 0, "evals": 0}
    map_orig = DensityEvolution.staged_round_map

    def counted_map(self, p, q):
        counts["rounds"] += 1
        at = map_orig(self, p, q)

        def counted_at(eps):
            counts["evals"] += 1
            return at(eps)

        return counted_at

    with monkeypatch.context() as mp:
        mp.setattr(DensityEvolution, "staged_round_map", counted_map)
        points = ebp_trace(params, kind, m, chis)
    return points, counts["rounds"], counts["evals"]


def cold_anchored_point(dev, p, q, target):
    """de._anchored_point with every round bisecting ε from [0, 1] after
    testing both ends, as it was before warm brackets."""
    eps_prev = None
    stuck = 0
    for r in range(1, de._MAX_ROUNDS + 1):
        staged = dev.staged_round_map(p, q)
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
