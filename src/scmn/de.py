"""Spatially-coupled density evolution: parallel sweep, threshold bisection,
and EXIT-like curve tracing by entropy-anchored fixed-point continuation."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelFamily,
    _mixture_poly_matrix,
    dimension_distribution,  # noqa: F401 (kept: perfbench/tracing.py wraps this name)
    dimension_law,
    transfer_poly,  # noqa: F401 (kept: perfbench/tracing.py wraps this name)
)
from .ensemble import EnsembleParams

# run_de succeeds once every p_i is below TOL and gives up after MAX_ITER
# sweeps; both are read at call time. TOL is fixed because the success test
# races the stall test: at TOL 1e-14 the (2, 2, 2) L=4/w=2 cd m=2 chain
# stalls on every ε of a grid below its threshold, ε = 0 included.
TOL = 1e-10
MAX_ITER = 2_000_000
DEFAULT_BISECT_TOL = 1e-6
_MIN_BISECT_TOL = 2.0**-52
# run_de reports a stall once a sweep changes every rate by less than this.
_STALL_TOL = 1e-15
_MONOTONE_SLACK = 1e-12
# Bisection steps that `threshold` decides per lockstep DE run, on
# 2**levels - 1 rows. Timed at bisect_tol 1e-5: 3 levels were faster than 2
# on the 12 L=10/w=2 cells and on cd m=6 and bd m=4 at L=20/w=3, and faster
# than 4 on L=10/w=2 cd m=2 and bd m=4.
_BISECT_LEVELS = 3
# Sweeps that run_de runs between its tests. At L=10/w=2 a sweep takes about
# 25 us; testing each sweep on its own cost about 9 us more in numpy call
# overhead, testing a block of 64 at once about 1 us per sweep at 3 rows.
_SWEEP_BLOCK = 64

# Curve tracing. A round's channel parameter is bisected to _EPS_BISECT_TOL; a
# point is accepted once a round moves the state by less than _STATE_TOL and
# the parameter by less than _EPS_CHANGE_TOL with mean(p) within _ANCHOR_TOL
# of the target, and once a plain sweep from it moves it by at most
# _RESIDUAL_TOL. A target is given up after _MAX_ROUNDS rounds, or after
# _STUCK_LIMIT rounds in a row at a parameter end without meeting it.
_EPS_BISECT_TOL = 1e-12
# From a point's third round on, a round's bisection starts from the deepest
# dyadic interval [j * 2**-k, (j + 1) * 2**-k], k <= _WARM_DEPTH, holding the
# last ε plus or minus _WARM_WIDTH times its last change, if probes at its two
# ends bracket the target. Plain bisection from [0, 1] would pass through that
# interval: mean(p) is monotone in ε, and each coarser midpoint is an end of
# the interval or lies at least 2**-k >= 2**-30 (9.3e-10) outside it, far
# beyond the float error of mean(p) (4e-13 at m = 15). So those midpoints
# decide as the probes imply, and the bisection tests the same midpoints below.
# The bisection also zooms, by the same argument, from any round's cold or
# warm start: mean(p) is known at both ends of its bracket, so it predicts the
# crossing by linear interpolation there, and while the bracket is shallower
# than _WARM_DEPTH it probes the ends of the deepest dyadic interval inside
# the bracket holding that prediction plus or minus _ZOOM_MARGIN times the
# change from the round's previous prediction (the first prediction of a
# round only starts that sequence). The interval becomes the bracket if it is
# at least two levels deeper and the probes bracket the target strictly;
# otherwise the round takes one plain bisection step.
_WARM_DEPTH = 30
_WARM_WIDTH = 2.0
# Detector-half evaluations per L=20/w=3 cd m=6 curve trace (chi = 0.95 down
# to 0.03 by 0.01; 1,356 rounds): 41,673 without zooming; with this margin
# 35,995 at 0, 24,575 to 24,698 from 1/32 to 1/4, 25,298 at 1, 25,625 at 4.
# Four other traces (bd m=6 at L=20/w=3, cd m=2 at L=10/w=2, cd m=6 at
# L=30/w=4, bd m=15 at L=6/w=3) moved alike: 71,720 to 72,245 over 1/32..1/4.
# The middle of that plateau is taken.
_ZOOM_MARGIN = 1 / 8
_STATE_TOL = 1e-10
_EPS_CHANGE_TOL = 1e-10
_ANCHOR_TOL = 1e-8
_RESIDUAL_TOL = 1e-9
_MAX_ROUNDS = 200_000
_STUCK_LIMIT = 200


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before a conclusive outcome."""


@dataclass(frozen=True, eq=False)
class DeState:
    """Per-section erasure probabilities of one DE iterate.

    p holds the punctured-bit-to-check rates and q the transmitted-bit-to-
    check rates for sections -L..L; sections beyond the chain are implicitly
    zero (shortened bits are known).
    """

    L: int
    p: np.ndarray
    q: np.ndarray
    epsilon: float
    iterations: int = 0

    def __post_init__(self) -> None:
        n = 2 * self.L + 1
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        if p.shape != (n,) or q.shape != (n,):
            raise ValueError(f"p and q must have shape ({n},)")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (((0 <= p) & (p <= 1)).all() and ((0 <= q) & (q <= 1)).all()):
            raise ValueError("erasure probabilities must lie in [0, 1]")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def chi(self) -> float:
        """Entropy-like anchor: mean of p over the chain."""
        return float(self.p.mean())


@dataclass(frozen=True, eq=False)
class DeResult:
    state: DeState
    success: bool
    status: str  # "converged" | "stalled" | "iter-limit"


@dataclass(frozen=True, eq=False)
class CurvePoint:
    """One fixed point on the EXIT-like curve."""

    epsilon: float
    h: float
    chi: float
    state: DeState
    residual: float
    rounds: int


class DensityEvolution:
    """Precomputed update operator for one ensemble and channel kind.

    Every update splits into a check half and a detector half. The check half
    (`_check`) maps the bit-to-check rates (p, q) to the check-to-bit rates
    and never sees the channel. The detector half passes them through the
    transfer polynomial to the new q, and through the bit nodes to the new p.
    """

    def __init__(self, params: EnsembleParams, kind: str, m: int):
        self.params = params
        self.kind = kind
        self.m = m
        w = params.w
        # Check section c sees bit sections i with 0 <= c - i < w. Wb averages
        # bit sections over the window feeding one check section; Wf averages
        # check sections back over one bit section's window. Wf is stored
        # C-contiguous: a product with a transposed view sums in another order.
        lag = np.arange(params.n_check_sections)[:, None] - np.arange(params.n_sections)
        self.Wb = np.where((0 <= lag) & (lag < w), 1.0 / w, 0.0)
        self.Wf = np.ascontiguousarray(self.Wb.T)
        # Row j: transfer polynomial for noise dimension exactly j.
        self.K = _mixture_poly_matrix(m)

    def fpoly(self, eps: float) -> np.ndarray:
        return np.asarray(dimension_law(self.kind, self.m, eps)) @ self.K

    def _check(self, p, q):
        """Check half of an update: (rp, rq, 1 - Qb, s).

        Pb and Qb are the punctured and transmitted erasure rates averaged
        over the window feeding each check section. rp = (1 - Pb)**(dr-1) and
        rq = (1 - Qb)**(dg-1), and s holds the erasure rate of
        check-to-transmitted messages per bit section.
        """
        dr, dg = self.params.dr, self.params.dg
        kp = 1.0 - self.Wb @ p
        kq = 1.0 - self.Wb @ q
        rp = kp ** (dr - 1)
        rq = kq ** (dg - 1)
        s = self.Wf @ (1.0 - rp * kp * rq)
        return rp, rq, kq, s

    @staticmethod
    def _q_update(z: np.ndarray, s1: np.ndarray, fcoef) -> np.ndarray:
        """Transmitted-bit rates clip(f(z) * s1), with z = s**dg and
        s1 = s**(dg-1). f is evaluated by Horner's rule in place, step for
        step as numpy's polyval does it. Its first step is the one product
        z * c_n, which has the bits of c_n * z."""
        if len(fcoef) == 1:  # a constant f (m = 1) takes no product with z
            q1 = np.full(z.shape, fcoef[0])
        else:
            q1 = np.multiply(z, fcoef[-1])
            for c in fcoef[-2:0:-1]:
                q1 += c
                q1 *= z
            q1 += fcoef[0]
        q1 *= s1
        # np.clip(q1, 0, 1), without its per-call overhead.
        np.maximum(q1, 0.0, out=q1)
        return np.minimum(q1, 1.0, out=q1)

    def _p_update(self, rp: np.ndarray, q1: np.ndarray) -> np.ndarray:
        """Punctured-bit rates from a fresh q, with rp from the check half."""
        dl, dg = self.params.dl, self.params.dg
        u = 1.0 - rp * (1.0 - self.Wb @ q1) ** dg
        return (self.Wf @ u) ** (dl - 1)

    def sweep(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One parallel update of every section."""
        dl, dg = self.params.dl, self.params.dg
        rp, rq, kq, s = self._check(p, q)
        p1 = (self.Wf @ (1.0 - rp * rq * kq)) ** (dl - 1)
        return p1, self._q_update(s**dg, s ** (dg - 1), fcoef)

    def staged_round(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Update q first, then p from the fresh q.

        Same fixed points as sweep() (stationarity of both halves), but the
        p-output responds to the channel parameter within a single round,
        which the anchored continuation needs.
        """
        dg = self.params.dg
        rp, _, _, s = self._check(p, q)
        q1 = self._q_update(s**dg, s ** (dg - 1), fcoef)
        return self._p_update(rp, q1), q1

    def staged_round_map(self, p: np.ndarray, q: np.ndarray):
        """staged_round from (p, q) as a function of the channel parameter.

        Only the transfer polynomial depends on the parameter, so the check
        half, z = s**dg and s**(dg-1) are computed once; each call evaluates
        the detector half alone, with the same arithmetic as staged_round.
        """
        dg = self.params.dg
        rp, _, _, s = self._check(p, q)
        z, s1 = s**dg, s ** (dg - 1)

        def at(eps: float) -> tuple[np.ndarray, np.ndarray]:
            q1 = self._q_update(z, s1, self.fpoly(eps))
            return self._p_update(rp, q1), q1

        return at

    def h_profile(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray, *, alternative: bool = False
    ) -> np.ndarray:
        """Per-section EXIT-like values f(z) * z**dg (f(z) * z if
        `alternative`), z = s**dg the detector-input erasure rate. f is
        clipped to [0, 1] as in the q-update."""
        dg = self.params.dg
        z = self._check(p, q)[3] ** dg
        f = self._q_update(z, 1.0, fcoef)
        return f * (z if alternative else z**dg)


def run_de(
    params: EnsembleParams, family: ChannelFamily | Sequence[ChannelFamily]
) -> DeResult | list[DeResult]:
    """Iterate the sweep from the all-ones initialization.

    Succeeds when max_i p_i drops below TOL; reports a stall when the
    per-sweep sup-norm change falls below _STALL_TOL first; flags a run that
    reaches MAX_ITER sweeps separately.

    `family` may also be a sequence of families of one kind and m, which
    gives a list of results. The families run as lockstep rows of one
    state; a single family is the one-row case. A row is held as a column
    vector, so `W @ x` couples it by one gemv per row, and each row gets
    the bits of its own run. Sweeps run in blocks of _SWEEP_BLOCK and are
    tested sweep by sweep after each block: a row that decided is frozen at
    the sweep where it did, and the sweeps it ran after that are dropped.
    """
    # Not isinstance(family, ChannelFamily): the benchmark's tracer replaces
    # this module's ChannelFamily with a wrapper function.
    single = not isinstance(family, Sequence)
    families = [family] if single else list(family)
    if not families:
        raise ValueError("run_de needs at least one channel family")
    kind, m = families[0].kind, families[0].m
    if any((f.kind, f.m) != (kind, m) for f in families):
        raise ValueError("lockstep families must share one kind and m")
    dev = DensityEvolution(params, kind, m)
    # Shape (deg, rows, 1, 1), so the q-update's Horner loop broadcasts.
    fcoef = np.stack([dev.fpoly(f.parameter) for f in families], axis=1)[..., None, None]
    shape = (len(families), params.n_sections, 1)
    p = np.ones(shape)
    q = np.ones(shape)
    rows = np.arange(len(families))  # the family of each live row
    results: list = [None] * len(families)
    it = 0
    while rows.size and it < MAX_ITER:
        sweeps = min(_SWEEP_BLOCK, MAX_ITER - it)
        P, Q = _sweeps(dev, p, q, fcoef, sweeps)
        p, q = P[-1], Q[-1]
        # The block's tests, on arrays indexed (sweep, row, section).
        P, Q = P[..., 0], Q[..., 0]
        dP, dQ = P[1:] - P[:-1], Q[1:] - Q[:-1]
        change = np.maximum(np.abs(dP).max(axis=2), np.abs(dQ).max(axis=2))
        converged = P[1:].max(axis=2) < TOL
        decided = converged | (change < _STALL_TOL)
        # The block index of the sweep where each row decides, else `sweeps`.
        t_dec = np.where(decided.any(axis=0), decided.argmax(axis=0), sweeps)
        # Every 100th sweep, on the rows still live at it.
        for t in range(-(it + 1) % 100, sweeps, 100):
            if (np.maximum(dP[t], dQ[t])[t <= t_dec] > _MONOTONE_SLACK).any():
                raise AssertionError(
                    "monotone decrease from all-ones violated; update is broken"
                )
        for r in np.flatnonzero(t_dec < sweeps):
            t = int(t_dec[r])
            status = "converged" if converged[t, r] else "stalled"
            fam = families[rows[r]]
            results[rows[r]] = _de_result(params, fam, P[t + 1, r], Q[t + 1, r], it + t + 1, status)
        it += sweeps
        live = t_dec == sweeps
        rows, p, q, fcoef = rows[live], p[live], q[live], fcoef[:, live]
    for r, i in enumerate(rows):
        results[i] = _de_result(params, families[i], p[r, :, 0], q[r, :, 0], it, "iter-limit")
    return results[0] if single else results


def _de_result(params, family, p, q, iterations, status) -> DeResult:
    state = DeState(L=params.L, p=p, q=q, epsilon=family.parameter, iterations=iterations)
    return DeResult(state=state, success=status == "converged", status=status)


def _sweeps(dev: DensityEvolution, p, q, fcoef, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) and the next n sweeps from them, stacked along a new first axis."""
    P = np.empty((n + 1, *np.shape(p)))
    Q = np.empty((n + 1, *np.shape(q)))
    P[0], Q[0] = p, q
    for t in range(1, n + 1):
        p, q = dev.sweep(p, q, fcoef)
        P[t], Q[t] = p, q
    return P, Q


def trajectory(
    params: EnsembleParams, family: ChannelFamily, n_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """First n_sweeps iterates from all-ones; rows are (sweep, section)."""
    dev = DensityEvolution(params, family.kind, family.m)
    ones = np.ones(params.n_sections)
    return _sweeps(dev, ones, ones, dev.fpoly(family.parameter), n_sweeps)


def threshold(
    params: EnsembleParams, kind: str, m: int, *, bisect_tol: float = DEFAULT_BISECT_TOL
) -> float:
    """Bisect the channel parameter for the largest decodable value.

    Assumes the success predicate is monotone in the parameter. A run that
    reaches MAX_ITER sweeps leaves the bracket inconclusive and raises.

    Each lockstep `run_de` decides every midpoint that the next
    _BISECT_LEVELS bisection steps can visit, and the walk below takes the
    steps plain bisection takes, so the value is the same to the bit. The
    midpoints off the walk lie beyond the walk's midpoint where they branch
    off, farther from the threshold, so they decide sooner than it and do
    not set the run's length.
    """
    if kind not in ("cd", "bd"):
        raise ValueError(f"threshold search needs kind 'cd' or 'bd', got {kind!r}")
    # The bracket starts as [0, 1], so bisect_tol < 1 runs DE at least once.
    # Adjacent floats below 1 lie at most 2**-53 apart, so a bracket wider
    # than 2**-52 has its midpoint strictly inside. Below that floor the
    # bracket could shrink to two adjacent floats whose midpoint is one of
    # them, and never end.
    if not _MIN_BISECT_TOL <= bisect_tol < 1:
        raise ValueError(f"bisect_tol must lie in [2**-52, 1), got {bisect_tol}")
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        mids = _bisection_subtree(lo, hi, bisect_tol)
        runs = run_de(params, [ChannelFamily(kind, m, mid) for mid in mids])
        decided = dict(zip(mids, runs))
        while hi - lo > bisect_tol and (mid := 0.5 * (lo + hi)) in decided:
            res = decided[mid]
            if res.status == "iter-limit":
                raise ConvergenceError(
                    f"DE hit the {MAX_ITER}-sweep cap at parameter {mid}; bracket inconclusive"
                )
            if res.success:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _bisection_subtree(lo: float, hi: float, bisect_tol: float) -> list[float]:
    """Every midpoint that the next _BISECT_LEVELS steps of bisection from
    the dyadic bracket [lo, hi] can visit, whichever way each step decides.

    The brackets of level i all have width (hi - lo) / 2**i, so bisection
    splits the first j levels, those wider than bisect_tol, and their
    midpoints are the 2**j - 1 inner points of the uniform grid on [lo, hi].
    Each is an exact dyadic, equal to the 0.5 * (a + b) that bisection forms.
    """
    n = 2 ** sum(hi - lo > bisect_tol * 2**i for i in range(_BISECT_LEVELS))
    return [lo + (hi - lo) * k / n for k in range(1, n)]


def ebp_trace(
    params: EnsembleParams,
    kind: str,
    m: int,
    chi_grid,
    *,
    alternative: bool = False,
) -> list[CurvePoint]:
    """Trace nontrivial DE fixed points at prescribed anchor values.

    For each target chi (strictly descending, in (0, 1]) the tracer repeats
    staged rounds, bisecting the channel parameter inside every round so the
    round output's anchor mean(p) meets the target, warm-starting from the
    previous point. Unreachable or non-converging targets are reported via
    warnings and skipped, never interpolated. Each point's h is the chain
    mean of DensityEvolution.h_profile (f(z) * z**dg, or f(z) * z if
    `alternative`).
    """
    chis = [float(c) for c in chi_grid]
    if any(not 0.0 < c <= 1.0 for c in chis):
        raise ValueError("chi targets must lie in (0, 1]")
    if any(b >= a for a, b in zip(chis, chis[1:])):
        raise ValueError("chi targets must be strictly descending")
    if kind not in ("cd", "bd"):
        raise ValueError(f"curve tracing needs kind 'cd' or 'bd', got {kind!r}")
    dev = DensityEvolution(params, kind, m)
    n = params.n_sections
    p = np.ones(n)
    q = np.ones(n)
    points: list[CurvePoint] = []
    for chi in chis:
        sol = _anchored_point(dev, p, q, chi)
        if sol is None:
            warnings.warn(
                f"no anchored fixed point at chi={chi:.6g}; point skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        p, q, eps, rounds = sol
        fcoef = dev.fpoly(eps)
        p_chk, q_chk = dev.sweep(p, q, fcoef)
        residual = max(np.abs(p_chk - p).max(), np.abs(q_chk - q).max())
        if residual > _RESIDUAL_TOL:
            warnings.warn(
                f"fixed-point residual {residual:.2e} above {_RESIDUAL_TOL:.0e} "
                f"at chi={chi:.6g}; point skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        points.append(
            CurvePoint(
                epsilon=eps,
                h=float(np.mean(dev.h_profile(p, q, fcoef, alternative=alternative))),
                chi=chi,
                state=DeState(L=params.L, p=p, q=q, epsilon=eps, iterations=rounds),
                residual=float(residual),
                rounds=rounds,
            )
        )
    return points


def _anchored_point(dev: DensityEvolution, p: np.ndarray, q: np.ndarray, target: float):
    """Anchored continuation loop; returns (p, q, eps, rounds) or None.

    A round bisects ε from the warm bracket of _warm_bracket when the target
    lies strictly between mean(p) at its two ends. Otherwise it takes the
    cold path: the ends of [0, 1] first, then bisection from [0, 1]. Either
    way the bisection zooms (_zoomed_bisection) and tests the same dyadic
    midpoints below each bracket it adopts, so every ε is the one plain
    bisection from [0, 1] gives.
    """
    eps_prev = None
    d_eps = float("inf")
    stuck = 0
    for r in range(1, _MAX_ROUNDS + 1):
        staged = dev.staged_round_map(p, q)
        seen: dict[float, tuple] = {}  # (mean(p), p, q) at each ε of the round

        def at(e: float) -> tuple:
            if e not in seen:
                pe, qe = staged(e)
                # pe.mean() to the bit, without its per-call overhead.
                seen[e] = pe.sum() / pe.size, pe, qe
            return seen[e]

        def chi_at(e: float) -> float:
            return at(e)[0]

        lo, hi = (0.0, 1.0) if d_eps == float("inf") else _warm_bracket(eps_prev, d_eps)
        # Strictly inside, as on the cold path's way to its bisection.
        if (lo, hi) != (0.0, 1.0) and not chi_at(lo) < target < chi_at(hi):
            lo, hi = 0.0, 1.0
        cold = (lo, hi) == (0.0, 1.0)
        if cold and target <= chi_at(0.0):
            eps = 0.0
        elif cold and target >= chi_at(1.0):
            eps = 1.0
        else:
            lo, hi = _zoomed_bisection(chi_at, target, lo, hi)
            eps = 0.5 * (lo + hi)
        _, p1, q1 = at(eps)
        d_state = max(np.abs(p1 - p).max(), np.abs(q1 - q).max())
        d_eps = float("inf") if eps_prev is None else abs(eps - eps_prev)
        p, q, eps_prev = p1, q1, eps
        anchored = abs(p.mean() - target) <= _ANCHOR_TOL
        if eps in (0.0, 1.0) and not anchored:
            stuck += 1
            if stuck > _STUCK_LIMIT:
                return None
        else:
            stuck = 0
        if d_state < _STATE_TOL and d_eps < _EPS_CHANGE_TOL and anchored:
            return p, q, eps, r
    return None


def _zoomed_bisection(chi_at, target: float, lo: float, hi: float) -> tuple[float, float]:
    """Bisect the dyadic bracket [lo, hi], with mean(p) below the target at
    lo and not below it at hi, down to _EPS_BISECT_TOL, zooming as the
    comment on _ZOOM_MARGIN says.

    mean(p) is known at both ends of every bracket: the start was probed, a
    zoom probes both ends, and a step keeps one end and evaluates the other.
    """
    guess = None
    while hi - lo > _EPS_BISECT_TOL:
        if hi - lo > 2.0**-_WARM_DEPTH:
            c_lo, c_hi = chi_at(lo), chi_at(hi)
            prev, guess = guess, lo + (target - c_lo) / (c_hi - c_lo) * (hi - lo)
            if prev is not None:
                margin = _ZOOM_MARGIN * abs(guess - prev)
                a, b = _dyadic_cover(lo, hi, guess - margin, guess + margin)
                # At least two levels deeper, or the probes cost more than
                # the one step they would save.
                if b - a <= 0.25 * (hi - lo) and chi_at(a) < target < chi_at(b):
                    lo, hi = a, b
                    continue
        mid = 0.5 * (lo + hi)
        if chi_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _warm_bracket(eps: float, d_eps: float) -> tuple[float, float]:
    """The _dyadic_cover in [0, 1] of eps -/+ _WARM_WIDTH * d_eps."""
    return _dyadic_cover(0.0, 1.0, eps - _WARM_WIDTH * d_eps, eps + _WARM_WIDTH * d_eps)


def _dyadic_cover(lo: float, hi: float, a: float, b: float) -> tuple[float, float]:
    """The deepest dyadic interval [j * 2**-k, (j + 1) * 2**-k],
    k <= _WARM_DEPTH, inside the dyadic interval [lo, hi] (of depth at most
    _WARM_DEPTH) that holds [a, b] clipped to [lo, hi]."""
    cells = 2**_WARM_DEPTH
    # The depth-_WARM_DEPTH cells holding the window's two ends; a window of
    # one point on a cell edge takes the cell to its right.
    j_lo = min(math.floor(max(a, lo) * cells), int(hi * cells) - 1)
    j_hi = max(math.ceil(min(b, hi) * cells) - 1, j_lo)
    # Their deepest common ancestor is `shift` levels up.
    shift = (j_lo ^ j_hi).bit_length()
    width = 2.0 ** (shift - _WARM_DEPTH)
    j = j_lo >> shift
    return j * width, (j + 1) * width
