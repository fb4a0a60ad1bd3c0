"""Spatially-coupled density evolution: parallel sweep, threshold bisection,
and EXIT-like curve tracing by entropy-anchored fixed-point continuation."""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .channel import (
    ChannelFamily,
    _check_channel,
    _law,
    _mixture_poly_fractions,
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
# Sweeps that run_de runs between its tests. At L=10/w=2 with three rows a
# lockstep sweep took 7.4 us in blocks of 64 and 33 us tested one by one
# (medians of 6 run_de calls; alone it takes 6.5, scripts/sweep_cost.py).
_SWEEP_BLOCK = 64
# The stall certificate, tried on thresholds' rows above their cell's fold,
# once as each joins (_fold_certified). The fold point y is lowered
# _CERT_PASSES times to max(0, min(y, T(y) - _CERT_STEP)) (_lowered). The
# lowered y certifies when some punctured rate of it exceeds _CERT_MIN_P > TOL
# and one sweep in exact rationals gives T(y) >= y (_certifies): every
# iterate from all-ones then stays at or above y, so the row never decodes.
_CERT_PASSES = 4
_CERT_STEP = 1e-12
_CERT_MIN_P = 1e-6
# Most entries of a window matrix (Wb, Wf): 128 MiB each, L up to 2047 at w = 2.
MAX_WINDOW_ENTRIES = 2**24

# The fold of the fixed-point curve (fold). The curve is followed from the
# state _FOLD_START_SWEEPS sweeps from all-ones at ε = _FOLD_START, in chi
# steps of _FOLD_GRID / n (n sections), a quarter of the curve's wiggle
# period 2 / n, halved at most _FOLD_HALVINGS times where Newton fails, down
# to _FOLD_CHI_MIN. _FOLD_START lies above every threshold at L >= 2 and off
# the kinks k / m of the cd law for m <= 15; over cd/bd, m in {1, 2, 3, 6, 10,
# 15} and eight (L, w) it leaves 18 of 96 curves without a fold, the fewest
# of the starts scanned. Newton (_FixedPoints)
# differences with step _FOLD_H, takes at most _FOLD_MAX_STEPS steps per
# point and stops once the residual is at most _FOLD_FLOOR. A well is refined
# for at most _FOLD_REFINE_STEPS steps, until chi moves by _FOLD_CHI_TOL.
_FOLD_START = 0.66
_FOLD_START_SWEEPS = 300
_FOLD_GRID = 0.5
_FOLD_CHI_MIN = 0.03
_FOLD_H = 1e-7
_FOLD_MAX_STEPS = 12
_FOLD_FLOOR = 1e-12
_FOLD_REFINE_STEPS = 12
_FOLD_CHI_TOL = 1e-7
_FOLD_HALVINGS = 8

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
# ends bracket the target; rounds 1 and 2 start likewise around an ε
# predicted from the previous points (see _anchored_point). Plain bisection
# from [0, 1] would pass through that interval: each coarser midpoint is an
# end of the interval or lies at least 2**-k >= 2**-36 outside it, so mean(p)
# there is at least |dchi/dε| * 2**-36 beyond the value at the nearer end,
# and it decides as the probes imply while that gap exceeds the jitter of the
# computed mean(p) between nearby ε (a smooth error keeps mean(p) monotone).
# Over every round of the cd and bd traces at m = 2, 6, 10, 15, at L=4/w=2,
# L=10/w=2 and L=20/w=3 (chi = 0.9 down to 0.1 by 0.1), |dchi/dε| is at
# least 0.044, a gap of at least 6.4e-13. The jitter, the largest deviation
# from a line fitted over 200 ε spaced 1e-13 at each point, is at most
# 1.1e-14 (cd m = 15 at L=4/w=2; 4e-16 at m <= 10): over 50 times less
# (test_warm_depth_margin checks a factor of 10). So those midpoints decide
# as the probes imply, and the bisection tests the same midpoints below.
# The bisection also zooms, by the same argument, from any round's cold or
# warm start: mean(p) is known at both ends of its bracket, so it predicts the
# crossing by linear interpolation there, and while the bracket is shallower
# than _WARM_DEPTH it probes the ends of the deepest dyadic interval inside
# the bracket holding that prediction plus or minus _ZOOM_MARGIN times the
# change from the round's previous prediction (the first prediction of a
# round only starts that sequence). The interval becomes the bracket if it is
# at least two levels deeper and the probes bracket the target strictly;
# otherwise the round takes one plain bisection step. Once the bracket is
# _WARM_DEPTH deep the bisection no longer zooms: it evaluates at once every
# midpoint it would test if each went the way the prediction says (the path
# of a guessed _walk), then tests them in plain bisection's order. A call
# evaluates with the ε it needs those it will probably need next: a
# bracket's midpoint with its two ends, and the guessed path inside a zoom
# of depth _WARM_DEPTH with its two probes.
_WARM_DEPTH = 36
_WARM_WIDTH = 2.0
# Detector-half calls per curve trace are fewest for margins from 1/8 to 1/4
# and grow outside them. At 1/8 the L=20/w=3 cd m=6 trace (chi = 0.95 down
# to 0.03 by 0.01; 1,356 rounds) makes 5,074 calls of 17,379 rows
# (evaluations), against 5,202 at 1/16, 5,031 at 1/4 and 5,180 at 1/2, with
# 17,384 to 17,680 rows (scripts/curve_cost.py counts them).
_ZOOM_MARGIN = 1 / 8
_STATE_TOL = 1e-10
_EPS_CHANGE_TOL = 1e-10
_ANCHOR_TOL = 1e-8
_RESIDUAL_TOL = 1e-9
_MAX_ROUNDS = 200_000
_STUCK_LIMIT = 200


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before a conclusive outcome.

    `eps_star` holds the cells that answered, (kind, m) -> ε*, when
    `thresholds` raises for the others; it is empty otherwise.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.eps_star: dict[tuple[str, int], float] = {}


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


def _power(k: int, shape: tuple, dtype):
    """A function (x, out) that writes x ** k, for x of `shape` and dtype,
    into out with the bits of numpy's `x ** k`, which copies for k = 1 and
    squares for k = 2; any other k is bound as in _check's `one`."""
    if k in (1, 2):
        return np.positive if k == 1 else np.square
    exponent = np.full(shape, k, dtype)
    return lambda x, out: np.power(x, exponent, out)


class DensityEvolution:
    """Precomputed update operator for one ensemble and channel kind.

    Every update splits into a check half and a detector half. The check half
    (`_check`) maps the bit-to-check rates (p, q) to the check-to-bit rates
    and never sees the channel. The detector half passes them through the
    transfer polynomial to the new q, and through the bit nodes to the new p.

    The arithmetic follows the inputs: fpoly gives Fraction coefficients
    exactly when its parameter is a Fraction, and the sweep kernel maps
    object arrays of Fractions by the same formulas in exact rationals, on
    windows of Fraction(1, w) (_windows).

    Each kernel's buffers and operands are bound once per shape and dtype
    and kept on the operator, so one operator serves one thread at a time.
    """

    def __init__(self, params: EnsembleParams, kind: str, m: int):
        _check_channel(kind, m)
        self.params = params
        self.kind = kind
        self.m = m
        nc, n = params.n_check_sections, params.n_sections
        if nc * n > MAX_WINDOW_ENTRIES:
            raise ValueError(f"DE window matrices {nc} x {n} exceed {MAX_WINDOW_ENTRIES} entries")
        self.Wb, self.Wf = self._windows(float)
        # Row j: transfer polynomial for noise dimension exactly j.
        self.K = _mixture_poly_matrix(m)
        # What _check, _detector and _sweep_kernel bind, by name and the
        # shapes and dtypes they were bound for.
        self._bound: dict = {}

    def _windows(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """(Wb, Wf) for rates of dtype: entries 1/w in floats, Fraction(1, w)
        under object dtype. Check section c sees bit sections i, 0 <= c - i < w:
        Wb averages bit sections over the window feeding one check section, Wf
        check sections back over one bit section's window. Wf is C-contiguous:
        a product with a transposed view sums in another order."""
        w = self.params.w
        lag = np.arange(self.params.n_check_sections)[:, None] - np.arange(self.params.n_sections)
        weight = Fraction(1, w) if dtype == object else 1.0 / w
        Wb = np.where((0 <= lag) & (lag < w), weight, 0 * weight)
        return Wb, np.ascontiguousarray(Wb.T)

    def fpoly(self, eps) -> np.ndarray:
        """f's coefficients, constant term first, at the channel parameter eps
        (Fractions for a Fraction eps). A sequence or 1-D array of R
        parameters gives R rows, shape (R, d), each with the bits of its own
        call: a scalar, a 0-d array too, is the one-row case. Every parameter
        is checked once, and then each row's law is taken unchecked. An empty
        sequence, or an array of more than one dimension, raises ValueError."""
        if isinstance(eps, np.ndarray) and eps.ndim != 1:
            if eps.ndim:
                raise ValueError(f"fpoly takes a parameter or a 1-D sequence, got shape {eps.shape}")
            eps = eps.item()
        rows = isinstance(eps, (Sequence, np.ndarray))
        if rows and not len(eps):
            raise ValueError("fpoly needs at least one parameter")
        kind, m, eps = self.kind, self.m, eps if rows else [eps]
        _check_channel(kind, m, *eps)
        laws = np.array([_law(kind, m, e) for e in eps])
        K = np.array(_mixture_poly_fractions(m)) if laws.dtype == object else self.K
        f = np.matmul(laws[:, None, :], K)[:, 0]
        return f if rows else f[0]

    def _check(self, shape: tuple, dtype):
        """The check half for stacked states of `shape`: (check, rp, vp, s,
        z, s1), where check(x) writes those rates into buffers made here.

        x stacks the bit-to-check rates (p, q), each rate vector a column, in
        shape (2, ..., n, 1), so that a window product is one gemv per
        column. With Pb and Qb the punctured and transmitted erasure rates
        averaged over the window feeding each check section, kp = 1 - Pb,
        kq = 1 - Qb, rp = kp**(dr-1) and rq = kq**(dg-1). vp and s hold the
        erasure rates of check-to-punctured (1 - rp*rq*kq) and
        check-to-transmitted (1 - rp*kp*rq) messages, averaged per bit
        section, and the q-update reads z = s**dg and s1 = s**(dg-1). Every
        operand is bound here once, on numpy's fastest path: the buffers' views,
        each power of exponent 1 as its base, the ufuncs (each takes its out
        positionally) and the 1 of `1 - ...` as an array of the operand's shape
        and dtype (the int 1 under object dtype, so that Fractions stay exact).
        They are bound once per shape and dtype on this operator, so every
        call with the same pair shares one set of buffers: a caller copies
        out what it keeps past another call.
        """
        if (bound := self._bound.get(("check", shape, dtype))) is not None:
            return bound
        dr, dg = self.params.dr, self.params.dg
        b = np.empty((4, 2, *shape[1:-2], self.params.n_check_sections, 1), dtype)
        # Indexed one by one: unpacking an array makes its views more slowly.
        k, kp, kq, u, u0, u1, one = b[0], b[0, 0], b[0, 1], b[2], b[2, 0], b[2, 1], b[3]
        rp, rq = (kp if dr == 2 else b[1, 0]), (kq if dg == 2 else b[1, 1])
        one.fill(1)
        v = np.empty((4, *shape[1:]), dtype)  # vp, s, z, s1
        vs, s = v[:2], v[1]
        z, s1 = (s if dg == 1 else v[2]), (s if dg == 2 else v[3])
        # (function, base, out) of each power that is not its base.
        ahead, after = (
            [(_power(e, a.shape, dtype), a, r) for e, a, r in powers if r is not a]
            for powers in (((dr - 1, kp, rp), (dg - 1, kq, rq)), ((dg, s, z), (dg - 1, s, s1)))
        )
        Wb, Wf = self._windows(dtype) if dtype == object else (self.Wb, self.Wf)
        matmul, multiply, subtract = np.matmul, np.multiply, np.subtract

        def check(x: np.ndarray) -> None:
            matmul(Wb, x, k)
            subtract(one, k, k)
            for power, a, r in ahead:
                power(a, r)
            multiply(rp, rq, u0)
            multiply(u0, kq, u0)
            multiply(rp, kp, u1)
            multiply(u1, rq, u1)
            matmul(Wf, subtract(one, u, u), vs)
            for power, a, r in after:
                power(a, r)

        bound = self._bound["check", shape, dtype] = check, rp, v[0], s, z, s1
        return bound

    def _sweep_kernel(self, shape: tuple, dtype, d: int, cdtype) -> tuple:
        """_sweeps' kernel for stacked states of `shape` and dtype at d
        coefficients of cdtype, bound once per key on this operator: (coef,
        check, vp, z, s1, power_p, q_update), on the rates as columns. coef
        takes f's coefficients, each broadcast to a rate array's shape; check
        and its outputs are _check's; power_p(vp, p1) and q_update(z, s1, q1)
        write a sweep's new p and q."""
        key = "sweep", shape, dtype, d, cdtype
        if (bound := self._bound.get(key)) is not None:
            return bound
        rates = (*shape[1:], 1)
        coef = np.empty((d, *rates), cdtype)
        check, _, vp, _, z, s1 = self._check((*shape, 1), dtype)
        power_p = _power(self.params.dl - 1, rates, dtype)
        q_update = self._q_update(list(coef), np.zeros(rates, dtype), np.ones(rates, dtype))
        bound = self._bound[key] = coef, check, vp, z, s1, power_p, q_update
        return bound

    def _check_rates(self, p: np.ndarray, q: np.ndarray) -> tuple:
        """_check on 1-D rates: (rp, s, z, s1), 1-D views of its shared buffers."""
        x = np.array([p, q])[..., None]
        check, rp, _, s, z, s1 = self._check(x.shape, x.dtype)
        check(x)
        return rp[:, 0], s[:, 0], z[:, 0], s1[:, 0]

    @staticmethod
    def _q_update(fcoef, zero, one):
        """The q-update update(z, s1, q1): clip(f(z) * s1) into q1, z = s**dg
        and s1 = s**(dg-1), with the bounds zero and one bound as _check binds
        its 1. Horner's rule in place evaluates f step for step as numpy's
        polyval does; its first step, the product z * c_n, has c_n * z's bits."""
        first, last, middle = fcoef[0], fcoef[-1], list(fcoef[-2:0:-1])
        add, multiply, maximum, minimum = np.add, np.multiply, np.maximum, np.minimum

        def update(z, s1, q1: np.ndarray) -> np.ndarray:
            if len(fcoef) == 1:  # a constant f (m = 1) takes no product with z
                q1[...] = first
            else:
                multiply(z, last, q1)
                for c in middle:
                    add(q1, c, q1)
                    multiply(q1, z, q1)
                add(q1, first, q1)
            multiply(q1, s1, q1)
            # np.clip(q1, 0, 1) without its overhead; numpy deprecates a positional out here.
            maximum(q1, zero, out=q1)
            return minimum(q1, one, out=q1)

        return update

    def sweep(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One parallel update of every section of the 1-D rates (p, q): the
        one-sweep case of _sweeps, in the arithmetic (floats or Fractions)
        that the state and f's coefficients share; a mix raises ValueError."""
        x, c = np.array([p, q]), np.asarray(fcoef)
        if (x.dtype == object) != (c.dtype == object):
            state, coef = (type(a.flat[0]).__name__ for a in (x, c))
            raise ValueError(f"a {state} state cannot sweep with {coef} coefficients")
        return tuple(_sweeps(self, x, c, 1)[1])

    def staged_round(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One staged round at f's coefficients fcoef: row 0 of
        staged_round_map(p, q) at fcoef[None]."""
        P, Q = self.staged_round_map(p, q)(np.asarray(fcoef)[None])
        return P[0], Q[0]

    def staged_round_map(self, p: np.ndarray, q: np.ndarray):
        """The staged round from the 1-D rates (p, q) as a function of f: q
        is updated first, then p from the fresh q. It has sweep()'s fixed
        points, but its p-output responds to the channel parameter within a
        single round, which the anchored continuation needs.

        Only f depends on the parameter, so the check half, z = s**dg and
        s**(dg-1) are computed once (copied out of _check's shared
        buffers), and each call evaluates the detector half alone.
        `at(fcoef)`, for R rows of f's coefficients, shape (R, d) (fpoly's
        rows), gives (p, q) of shape (R, n), lockstep rows of one call; a
        window product is one gemv per row, so a row's bits do not depend
        on the others. A call copies f's rows, z and s1 into the detector
        half that this operator binds for R rows of d coefficients
        (_detector), and the new p and q get their own buffer, which no
        later call overwrites.
        """
        n = self.params.n_sections
        rp, _, z, s1 = self._check_rates(p, q)
        # Shapes (nc, 1) and (2, 1, n, 1): z and s1 stacked for one copy per call.
        rp, zs = rp[:, None].copy(), np.array([z, s1])[:, None, :, None]

        def at(fcoef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            R, d = fcoef.shape
            b, detector = self._detector(R, d)
            b[:d] = fcoef.T[..., None, None]
            b[d:] = zs
            x = np.empty((2, R, n, 1))
            detector(rp, x)
            return x[0, ..., 0], x[1, ..., 0]

        return at

    def _detector(self, R: int, d: int) -> tuple:
        """The staged round's detector half for R rows of f's d coefficients:
        (b, detector), bound once per (R, d) on this operator. Slots 0..d-1
        of b take coefficient j of every row's f, and slots d and d+1 the
        rows' z and s1, each of shape (R, n, 1); then detector(rp, x) writes
        the new p and q into x, shape (2, R, n, 1). As in _sweeps, every
        operand but rp is bound at the rows' shape, each ufunc's last
        argument is its out, and the 1 of `1 - ...` and the clip's bounds
        are arrays (see _check)."""
        if (bound := self._bound.get(("detector", R, d))) is not None:
            return bound
        dl, dg = self.params.dl, self.params.dg
        shape, u_shape = (R, self.params.n_sections, 1), (R, self.params.n_check_sections, 1)
        b = np.empty((d + 2, *shape))
        z, s1, u, one = b[d], b[d + 1], np.empty(u_shape), np.ones(u_shape)
        q_update = self._q_update(b[:d], np.zeros(shape), np.ones(shape))
        power_u, power_p = _power(dg, u_shape, float), _power(dl - 1, shape, float)
        Wb, Wf = self.Wb, self.Wf
        matmul, multiply, subtract = np.matmul, np.multiply, np.subtract

        def detector(rp: np.ndarray, x: np.ndarray) -> None:
            # p = (Wf @ (1 - rp * (1 - Wb @ q1)**dg))**(dl-1)
            q1 = q_update(z, s1, x[1])
            matmul(Wb, q1, u)
            subtract(one, u, u)
            power_u(u, u)
            multiply(rp, u, u)
            p1 = matmul(Wf, subtract(one, u, u), x[0])
            power_p(p1, p1)

        bound = self._bound["detector", R, d] = b, detector
        return bound

    def h_profile(
        self, p: np.ndarray, q: np.ndarray, fcoef: np.ndarray, *, alternative: bool = False
    ) -> np.ndarray:
        """Per-section EXIT-like values f(z) * z**dg (f(z) * z if
        `alternative`), z = s**dg the detector-input erasure rate. f is
        clipped to [0, 1] as in the q-update."""
        z = self._check_rates(p, q)[2]
        f = self._q_update(fcoef, 0.0, 1.0)(z, 1.0, np.empty_like(z))
        return f * (z if alternative else z**self.params.dg)


def run_de(
    params: EnsembleParams, family: ChannelFamily | Sequence[ChannelFamily]
) -> DeResult | list[DeResult]:
    """Iterate the sweep from the all-ones initialization.

    Succeeds when max_i p_i drops below TOL; reports a stall when the
    per-sweep sup-norm change falls below _STALL_TOL first, or when the
    state repeats an earlier state exactly (see _lockstep); flags a run that
    reaches MAX_ITER sweeps separately.

    `family` may also be a sequence of families, of any kinds and m, which
    gives a list of results. The families run as lockstep rows of one state
    (_lockstep); a single family is the one-row case. `thresholds` passes a
    frontier (a callable) instead, which gives _lockstep's dict; its rows
    above a cell's fold may be decided as they join, by the fold-point
    certificate.
    """
    # A callable is a frontier (thresholds'): the dict of _lockstep.
    if callable(family):
        return _lockstep(params, family)
    # Not isinstance(family, ChannelFamily): the benchmark's tracer replaces
    # this module's ChannelFamily with a wrapper function.
    single = not isinstance(family, Sequence)
    families = [family] if single else list(family)
    if not families:
        raise ValueError("run_de needs at least one channel family")
    done = _lockstep(params, lambda done: {i: f for i, f in enumerate(families) if i not in done})
    results = [done[i] for i in range(len(families))]
    return results[0] if single else results


def _lockstep(params: EnsembleParams, frontier) -> dict:
    """Run lockstep rows until `frontier` wants none.

    `frontier(done)` maps the results decided so far, a dict key -> DeResult,
    to the rows wanted live, a dict key -> ChannelFamily. It is called at the
    start and after every block of sweeps in which a row decided: a wanted
    row that is not live joins from all-ones, and a live row that is no
    longer wanted is dropped. A wanted row that the frontier gives as a
    DeResult instead is decided without a sweep: it goes to `done`, and the
    frontier is called again. Returns `done`.

    The live rows are one stacked state x of shape (2, rows, n), which
    _sweeps advances a block at a time, and each row gets the bits of its
    own run. Rows may mix kinds and m: only f depends on them, and _sweeps
    reads only the ensemble. Each f is built at float(parameter), as the
    float state needs, and zero-padded to the longest degree, where
    Horner's rule takes z * 0 = +0 (z >= 0) and +0 + c = c, so a padded row
    keeps its bits, m = 1's constant f too.
    Sweeps run in blocks of _SWEEP_BLOCK and are tested sweep by sweep after
    each block: a row that decided is frozen at the sweep where it did, and
    the sweeps it ran after that are dropped. Each row counts its own sweeps,
    which place its every-100th-sweep monotone check and its MAX_ITER cap; a
    block is never longer than the smallest remaining budget.

    A row also stalls at a sweep whose state equals its anchor exactly: its
    state at the last power-of-two sweep count (or sweep 0) before the block
    (Brent's cycle finding). From all-ones a correct sweep never increases a
    rate, so in exact arithmetic only a fixed point repeats; in floats a row
    can instead settle into a cycle whose changes stay above _STALL_TOL. A
    repeat that moves a rate by more than _MONOTONE_SLACK is not a stall but
    a broken update, left to the monotone check. A cycle entered at sweep mu
    with period lam repeats first at a sweep t >= mu + lam, by which the
    other tests have seen every step of the cycle, so a row they decide keeps
    its result.
    """
    n = params.n_sections
    dev = functools.cache(functools.partial(DensityEvolution, params))
    done: dict = {}
    keys: list = []  # the key of each live row, all of them in `wanted`
    polys: list = []
    it: list[int] = []  # sweeps run per row
    x = np.empty((2, 0, n))  # (p, q) of each row
    anchor = np.empty((2, 0, n))  # (p, q) of each row at its anchor
    while wanted := frontier(done):
        if decided := {k: v for k, v in wanted.items() if isinstance(v, DeResult)}:
            done.update(decided)
            continue
        keep = [r for r, k in enumerate(keys) if k in wanted]
        new = [k for k in wanted if k not in keys]
        keys = [keys[r] for r in keep] + new
        polys = [polys[r] for r in keep]
        polys += [dev(f.kind, f.m).fpoly(float(f.parameter)) for f in map(wanted.get, new)]
        it = [it[r] for r in keep] + [0] * len(new)
        x = np.concatenate([x[:, keep], np.ones((2, len(new), n))], axis=1)
        anchor = np.concatenate([anchor[:, keep], np.ones((2, len(new), n))], axis=1)
        deg = max(map(len, polys))
        fcoef = np.array([np.pad(c, (0, deg - len(c))) for c in polys])
        sweeper = dev(wanted[keys[0]].kind, wanted[keys[0]].m)
        n_done = len(done)
        while len(done) == n_done:
            sweeps = min(_SWEEP_BLOCK, MAX_ITER - max(it))
            X = _sweeps(sweeper, x, fcoef, sweeps)
            x = X[-1]
            # The block's tests, on X indexed (sweep, p or q, row, section).
            dX = X[1:] - X[:-1]
            change = np.abs(dX).max(axis=(1, 3))
            converged = X[1:, 0].max(axis=2) < TOL
            repeated = (X[1:] == anchor).all(axis=(1, 3))
            decided = converged | (change < _STALL_TOL) | (repeated & (change <= _MONOTONE_SLACK))
            # The block index of the sweep where each row decides, else `sweeps`.
            t_dec = np.where(decided.any(axis=0), decided.argmax(axis=0), sweeps)
            # Every row's 100th sweeps, up to the one where it decides.
            s = np.arange(sweeps)[:, None]
            checked = ((np.array(it) + s + 1) % 100 == 0) & (s <= t_dec)
            if (dX.max(axis=(1, 3))[checked] > _MONOTONE_SLACK).any():
                raise AssertionError("monotone decrease from all-ones violated; update is broken")
            for r, key in enumerate(keys):
                t = int(t_dec[r])
                if t < sweeps:
                    status = "converged" if converged[t, r] else "stalled"
                    state = *X[t + 1, :, r], it[r] + t + 1
                    done[key] = _de_result(params, wanted[key], *state, status)
                elif it[r] + sweeps == MAX_ITER:
                    state = *X[-1, :, r], MAX_ITER
                    done[key] = _de_result(params, wanted[key], *state, "iter-limit")
                # A power of two in (it, it + sweeps] is the row's next anchor.
                top = (it[r] + sweeps).bit_length()
                if top > it[r].bit_length():
                    anchor[:, r] = X[2 ** (top - 1) - it[r], :, r]
                it[r] += sweeps
    return done


def _lowered(dev: DensityEvolution, y, fcoef) -> tuple[list, bool]:
    """The lowering of the stall certificate: the candidate y = (p, q), 1-D
    rates, clipped to [0, 1] and lowered _CERT_PASSES times at f's
    coefficients fcoef, and whether some punctured rate of it exceeds
    _CERT_MIN_P (see the comment on _CERT_PASSES). Clipped, every lowered
    entry lies in [0, 1], as _certifies needs."""
    y = [np.clip(v, 0.0, 1.0) for v in y]
    for _ in range(_CERT_PASSES):
        Ty = dev.sweep(*y, fcoef)
        y = [np.maximum(0.0, np.minimum(v, t - _CERT_STEP)) for v, t in zip(y, Ty)]
    return y, bool(y[0].max() > _CERT_MIN_P)


def _fold_certified(params: EnsembleParams, kind: str, m: int, point, eps: float) -> bool:
    """Whether the fold point (p, q), of shape (2, n), certifies that DE of
    (kind, m) never converges at the channel parameter eps, which lies above
    the fold: lowered at eps (_lowered), it keeps a punctured rate above
    _CERT_MIN_P and passes _certifies.

    DE is monotone in the parameter as well as in the state, so above the
    fold T(y) >= T_fold(y), which is y at the fold point up to Newton's
    residual; the lowering passes work that residual off. A wrong fold
    point only fails the exact sweep, which alone decides T(y) >= y.
    """
    dev = DensityEvolution(params, kind, m)
    y, ok = _lowered(dev, point, dev.fpoly(eps))
    return ok and _certifies(dev, eps, *y)


def _certifies(dev: DensityEvolution, eps: float, p, q) -> bool:
    """Whether the state y = (p, q) satisfies T(y) >= y in every entry, for
    one sweep T of `dev` at the parameter eps, in exact rationals: y and eps
    are taken as Fractions, so the sweep runs on them."""
    y = [np.array([Fraction(v) for v in x.tolist()], dtype=object) for x in (p, q)]
    Ty = dev.sweep(*y, dev.fpoly(Fraction(eps)))
    return all((t >= v).all() for t, v in zip(Ty, y))


def _de_result(params, family, p, q, iterations, status) -> DeResult:
    state = DeState(L=params.L, p=p, q=q, epsilon=family.parameter, iterations=iterations)
    return DeResult(state=state, success=status == "converged", status=status)


def _sweeps(dev: DensityEvolution, x: np.ndarray, fcoef, n: int) -> np.ndarray:
    """The stacked state x = (p, q) and the next n sweeps from it, as one
    array X of shape (n + 1, *x.shape): X[t, 0] is p and X[t, 1] is q.

    x is (2, sections), or (2, rows, sections) for lockstep rows; fcoef is
    f's coefficients as fpoly gives them, (d,), or one row per lockstep row,
    (rows, d). A call copies them into the kernel that `dev` binds for its
    shapes and dtypes (_sweep_kernel), so every ufunc takes numpy's
    same-shape path and writes into a buffer or X. The kernel holds each
    rate vector as a column (see _check), an axis that X drops on return.
    Object arrays of Fractions run the same loop, exactly (see _windows).
    """
    X = np.empty((n + 1, *x.shape, 1), x.dtype)
    X[0, ..., 0] = x
    c = np.asarray(fcoef).T
    coef, check, vp, z, s1, power_p, q_update = dev._sweep_kernel(x.shape, x.dtype, len(c), c.dtype)
    coef[...] = c[..., None, None]
    for prev, p1, q1 in zip(X[:-1], X[1:, 0], X[1:, 1]):
        check(prev)
        power_p(vp, p1)
        q_update(z, s1, q1)
    return X[..., 0]


def trajectory(
    params: EnsembleParams, family: ChannelFamily, n_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """First n_sweeps iterates from all-ones; rows are (sweep, section)."""
    if isinstance(n_sweeps, bool) or not isinstance(n_sweeps, Integral) or n_sweeps < 0:
        raise ValueError(f"n_sweeps must be a non-negative integer, got {n_sweeps!r}")
    dev = DensityEvolution(params, family.kind, family.m)
    fcoef = dev.fpoly(float(family.parameter))
    X = _sweeps(dev, np.ones((2, params.n_sections)), fcoef, n_sweeps)
    return X[:, 0], X[:, 1]


def thresholds(
    params: EnsembleParams, cells, *, bisect_tol: float = DEFAULT_BISECT_TOL
) -> dict[tuple[str, int], float]:
    """Bisect the channel parameter of each (kind, m) cell for the largest
    decodable value; returns a dict (kind, m) -> ε*.

    Assumes the success predicate is monotone in the parameter. A walk row
    that reaches MAX_ITER sweeps without deciding leaves its cell's bracket
    inconclusive. Every other cell still runs to its end, and then a
    ConvergenceError names each capped cell and carries the values of the
    others in its `eps_star`.

    The bisections run through one lockstep `run_de` whose rows follow each
    cell's walk; a cell's ε* is read from one _walk over its decided rows,
    closed under monotonicity in the parameter: a converged row decides
    every midpoint below it, and a stalled row every midpoint above it.
    Wherever DE is monotone in the parameter in floats too, as in exact
    arithmetic (it was on every checked cell), the walk takes plain
    bisection's steps. A row decides as its own run does, or, above its
    cell's fold, stalls at sweep 0 on the fold-point certificate
    (_fold_certified), proof that DE at its parameter never converges; its
    own run then fails too, unless float rounding decodes a row that exact
    DE cannot (no checked cell did).

    A row is keyed by m and the dimension law at its midpoint, which fix
    its f. A cell reads every decided row whose key its own law gives at
    the row's midpoint, so cells whose laws agree there (cd and bd at
    m = 1) share it.
    The cell's `fold` and its fold point are computed once per distinct
    first row (the midpoint 1/2). A cell with a fold wants two midpoints of
    the path of its _walk guessed by the fold: the highest one below the
    fold, whose row is the walk's slowest and decides every lower one (all
    below, once a row there capped, so capped rows run in one pass), and
    the lowest one above it, which the certificate tries as it joins. So
    the slow row starts at once, and most often it alone runs. A cell
    whose fold a decided row refutes (a row below it stalled, or one above
    it converged), and a cell without a fold, bisect plainly: each wants
    the midpoint where its _walk stops, unless that row capped. The
    certificate still tries the rows joining above a refuted fold. Only
    decided rows steer the walk, so a wrong fold or fold point, or none,
    costs only speed.
    """
    cells = list(cells)
    for kind, _ in cells:
        if kind not in ("cd", "bd"):
            raise ValueError(f"threshold search needs kind 'cd' or 'bd', got {kind!r}")
    # bisect_tol < 1 runs DE at least once on the bracket [0, 1]. Floats below
    # 1 lie at most 2**-53 apart, so a bracket wider than 2**-52 has its midpoint
    # strictly inside; a narrower one could end as two adjacent floats.
    if not _MIN_BISECT_TOL <= bisect_tol < 1:
        raise ValueError(f"bisect_tol must lie in [2**-52, 1), got {bisect_tol}")
    rows: dict = {}  # row key -> ChannelFamily, the rows wanted last

    def row_key(cell, mid: float) -> tuple:
        return cell[1], dimension_law(*cell, mid)

    def by_cell(done: dict) -> dict:  # cell -> its decision map, mid -> up
        status = {"converged": True, "stalled": False, "iter-limit": None}
        mids = {k: r.state.epsilon for k, r in done.items()}
        return {
            c: _Monotone({x: status[done[k].status] for k, x in mids.items() if k == row_key(c, x)})
            for c in cells
        }

    folds: dict = {}  # first row key -> (fold, fold point), or None
    for cell in cells:
        if row_key(cell, 0.5) not in folds:
            folds[row_key(cell, 0.5)] = _fold(params, *cell)

    def frontier(done: dict) -> dict:
        nonlocal rows
        wanted: dict = {}
        for c, known in by_cell(done).items():
            f = folds[row_key(c, 0.5)]
            # A decided row on the wrong side of the fold refutes it.
            if f is None or any(up == (x >= f[0]) for x, up in known.rows.items()):
                # Plain bisection: the midpoint where the walk stops, unless capped.
                mid = _walk(0.0, 1.0, bisect_tol, known)[2]
                mids = [] if mid is None or mid in known else [mid]
            else:
                # Path midpoints below the fold ascend and those above it descend:
                # the highest below (all below, once a row there capped) and the
                # lowest above decide the others if they go as the fold predicts.
                path = _walk(0.0, 1.0, bisect_tol, known, f[0])[3]
                below = [x for x in path if x < f[0]]
                capped = None in [up for x, up in known.rows.items() if x < f[0]]
                mids = (below if capped else below[-1:]) + [x for x in path if x >= f[0]][-1:]
            for mid in mids:
                if (k := row_key(c, mid)) in rows:
                    wanted[k] = rows[k]
                elif k not in wanted:
                    wanted[k] = ChannelFamily(*c, mid)
                    # A row joining above the fold is tried by the certificate.
                    above = f is not None and mid >= f[0]
                    if above and _fold_certified(params, *c, f[1], mid):
                        ones = np.ones(params.n_sections)
                        wanted[k] = _de_result(params, wanted[k], ones, ones, 0, "stalled")
        rows = wanted
        return rows

    # The frontier is empty only once every walk has ended or reached a cap.
    eps_star, capped = {}, []
    for (kind, m), known in by_cell(run_de(params, frontier)).items():
        lo, hi, mid, _ = _walk(0.0, 1.0, bisect_tol, known)
        if mid is None:
            eps_star[kind, m] = 0.5 * (lo + hi)
        else:
            capped.append(f"DE hit the {MAX_ITER}-sweep cap for {kind} m={m} at parameter {mid}")
    if capped:
        err = ConvergenceError("; ".join(capped) + "; bracket inconclusive")
        err.eps_star.update(eps_star)
        raise err
    return eps_star


def threshold(
    params: EnsembleParams, kind: str, m: int, *, bisect_tol: float = DEFAULT_BISECT_TOL
) -> float:
    """The one-cell case of `thresholds`: ε* of (kind, m)."""
    return thresholds(params, [(kind, m)], bisect_tol=bisect_tol)[kind, m]


def _walk(
    lo: float, hi: float, tol: float, known: dict | _Monotone, guess: float | None = None
) -> tuple[float, float, float | None, list[float]]:
    """Bisect the dyadic bracket [lo, hi] down to tol through the decision
    map `known`: midpoint -> True (go up), False (go down) or None (capped);
    `thresholds` passes its rows closed under monotonicity (_Monotone).
    Returns (lo, hi, mid, path): the bracket reached, the midpoint where the
    walk stopped (capped, or unmapped without a guess) or None once the
    bracket is no wider than tol, and the unmapped midpoints passed. With a
    guess, an unmapped midpoint goes on `path` and the walk takes the
    guess's side of it: up iff the midpoint lies below the guess."""
    path: list[float] = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in known:
            up = known[mid]
        elif guess is None:
            return lo, hi, mid, path
        else:
            path.append(mid)
            up = mid < guess
        if up is None:
            return lo, hi, mid, path
        lo, hi = (mid, hi) if up else (lo, mid)
    return lo, hi, None, path


class _Monotone:
    """A decision map of `thresholds`, `rows`: midpoint -> True (its row
    converged), False (stalled) or None (capped), closed under monotonicity
    in the parameter for _walk. DE from all-ones is monotone in it (see
    _fold_certified), so a midpoint without a row of its own goes up when a
    row at or above it converged, and down when a row at or below it
    stalled. If both or neither hold, it is unmapped; a capped row implies
    nothing."""

    def __init__(self, rows: dict):
        self.rows = rows
        self.top = max((x for x, up in rows.items() if up), default=-math.inf)
        self.bottom = min((x for x, up in rows.items() if up is False), default=math.inf)

    def __contains__(self, mid: float) -> bool:
        return mid in self.rows or (mid <= self.top) != (mid >= self.bottom)

    def __getitem__(self, mid: float) -> bool | None:
        return self.rows[mid] if mid in self.rows else mid <= self.top


class _FixedPoints:
    """Newton's method for a nontrivial DE fixed point at a prescribed
    anchor: F(x, ε) = (T(x; ε) - x, mean(p) - chi) = 0 for x = (p, q) and
    one sweep T at the channel parameter ε.

    The Jacobian is taken by one-sided differences of step _FOLD_H from one
    _sweeps call, whose rows are x, x with one class of columns moved by
    _FOLD_H, and x at ε + _FOLD_H. T's section i reads sections
    i - (w-1) .. i + (w-1) only, so the columns of one half (p or q) whose
    sections are 2w - 1 apart touch disjoint rows and share one perturbed
    row: 4w rows in all.
    The (2n + 1)-square system is solved densely; LAPACK's solve took 46 us
    at L=10/w=2 against 2.3 ms for a numpy band elimination.
    """

    def __init__(self, dev: DensityEvolution):
        self.dev = dev
        n, w = dev.params.n_sections, dev.params.w
        stride = 2 * w - 1
        rows = 2 * stride + 2  # x, the 2 * stride column classes, ε + h
        self.dx = np.zeros((2, rows, n))
        self.f_rows = [0] * (rows - 1) + [1]  # rows of fpoly([ε, ε + _FOLD_H])
        for half in range(2):
            for c in range(stride):
                self.dx[half, 1 + half * stride + c, c::stride] = _FOLD_H
        # Entry (o, i; h, j), |i - j| < w, of the Jacobian comes from output
        # (o, i) of the row that perturbs column j of half h.
        o, i, h, j = np.meshgrid(
            np.arange(2), np.arange(n), np.arange(2), np.arange(1 - w, w), indexing="ij"
        )
        j = i + j
        inside = (0 <= j) & (j < n)
        o, i, h, j = o[inside], i[inside], h[inside], j[inside]
        self.entries = o * n + i, h * n + j
        self.diffs = o, h * stride + j % stride, i
        self.columns = h, j

    def solve(self, x: np.ndarray, eps: float, chi: float):
        """The fixed point (x, ε) at anchor chi that Newton's method reaches
        from (x, ε), x of shape (2, n), or None. Newton stops once a step no
        longer lowers the sup-norm residual, or at _FOLD_MAX_STEPS; the best
        point is kept if its residual is at most _RESIDUAL_TOL."""
        dev, n = self.dev, self.dev.params.n_sections
        J = np.zeros((2 * n + 1, 2 * n + 1))
        J[2 * n, :n] = 1.0 / n
        F = np.empty(2 * n + 1)
        best = None
        for _ in range(_FOLD_MAX_STEPS):
            if not 0.0 <= eps <= 1.0 - _FOLD_H:
                break
            fcoef = dev.fpoly([eps, eps + _FOLD_H])[self.f_rows]
            # Rates above 1/2 are lowered, so that a rate at 1 (where the
            # q-update clips) is differenced inside [0, 1].
            sign = np.where(x > 0.5, -1.0, 1.0)
            T = _sweeps(dev, x[:, None] + sign[:, None] * self.dx, fcoef, 1)[1]
            F[: 2 * n] = (T[:, 0] - x).ravel()
            F[2 * n] = x[0].mean() - chi
            residual = np.abs(F).max()
            if best is not None and residual >= best[0]:
                break
            best = residual, x, eps
            if residual <= _FOLD_FLOOR:
                break
            D = (T[:, 1:] - T[:, :1]) / _FOLD_H
            J[self.entries] = D[self.diffs] * sign[self.columns]
            J[range(2 * n), range(2 * n)] -= 1.0
            J[: 2 * n, 2 * n] = D[:, -1].ravel()
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            x, eps = x + step[: 2 * n].reshape(2, n), eps + step[2 * n]
        if best is None or best[0] > _RESIDUAL_TOL:
            return None
        return best[1], best[2]


def fold(params: EnsembleParams, kind: str, m: int) -> float | None:
    """The leftmost channel parameter of the nontrivial DE fixed-point curve
    (its fold), or None where it is not found.

    DE is monotone, so from all-ones it converges exactly when no
    nontrivial fixed point exists: the fold is the float threshold that
    `thresholds` bisects for, and `thresholds` uses it to predict its walk.
    The curve is followed by Newton continuation in chi = mean(p)
    (_FixedPoints) from a stalled state at a high ε, down a grid in chi
    that samples each wiggle of the curve about four times (see the comment
    on _FOLD_START). Every local minimum of ε on the grid takes one step of
    successive parabolic interpolation in chi (_fold_refine), and the least
    of them is refined to the bottom of its well and returned. Wells of the
    chain's middle are translates of each other: at L=10/w=2 their bottoms
    agree to about 1e-10.

    None when the start state decodes, Newton fails at a point even at the
    smallest step, the least ε lies at an end of the grid, or the dense
    (2n + 1)-square Jacobian would hold more than MAX_WINDOW_ENTRIES
    entries.
    """
    if kind not in ("cd", "bd"):
        raise ValueError(f"fold search needs kind 'cd' or 'bd', got {kind!r}")
    found = _fold(params, kind, m)
    return None if found is None else found[0]


def _fold(params: EnsembleParams, kind: str, m: int) -> tuple[float, np.ndarray] | None:
    """`fold`'s ε with its fold point, (ε, x), or None: x = (p, q), of
    shape (2, n), is the fixed point at ε in the middle of the triple that
    _fold_refine ends on."""
    n = params.n_sections
    if (2 * n + 1) ** 2 > MAX_WINDOW_ENTRIES:
        return None
    dev = DensityEvolution(params, kind, m)
    newton = _FixedPoints(dev)
    x = _sweeps(dev, np.ones((2, n)), dev.fpoly(_FOLD_START), _FOLD_START_SWEEPS)[-1]
    if x[0].max() < TOL:
        return None
    chi = x[0].mean()
    point = newton.solve(x, _FOLD_START, chi)
    if point is None:
        return None
    curve = [(chi, *point)]  # (chi, x, ε), chi descending
    step = _FOLD_GRID / n
    while (chi := curve[-1][0] - step) > _FOLD_CHI_MIN:
        # The secant through the last two points predicts the next.
        (c1, x1, e1), (c0, x0, e0) = curve[-2:] if len(curve) > 1 else curve * 2
        t = (chi - c0) / (c0 - c1) if c0 != c1 else 0.0
        point = newton.solve(x0 + t * (x0 - x1), e0 + t * (e0 - e1), chi)
        if point is not None:
            curve.append((chi, *point))
            step = min(2 * step, _FOLD_GRID / n)
        elif (step := step / 2) < _FOLD_GRID / n / 2**_FOLD_HALVINGS:
            return None
    eps = [e for _, _, e in curve]
    wells = [k for k in range(1, len(curve) - 1) if eps[k - 1] > eps[k] <= eps[k + 1]]
    if not wells or min(eps) < min(eps[k] for k in wells):
        return None
    # One parabolic step in every well, then the rest in the least.
    triples = [_fold_refine(newton, curve[k - 1 : k + 2], 1) for k in wells]
    if None in triples:
        return None
    least = _fold_refine(newton, min(triples, key=lambda t: t[1][2]), _FOLD_REFINE_STEPS)
    return None if least is None else (least[1][2], least[1][1])


def _fold_refine(newton: _FixedPoints, triple, steps: int):
    """`steps` steps of successive parabolic interpolation in chi towards
    the least ε of a well of the fixed-point curve, bracketed by the curve
    points (chi, x, ε) of `triple` (chi descending, ε in the middle no
    larger than at either end): the bracketing triple reached, or None if
    Newton fails."""
    a, b, c = triple
    for _ in range(steps):
        (ca, _, ea), (cb, xb, eb), (cc, _, ec) = a, b, c
        den = (cb - ca) * (eb - ec) - (cb - cc) * (eb - ea)
        if den == 0:
            break
        u = cb - 0.5 * ((cb - ca) ** 2 * (eb - ec) - (cb - cc) ** 2 * (eb - ea)) / den
        if not cc < u < ca or abs(u - cb) <= _FOLD_CHI_TOL:
            break
        point = newton.solve(xb, eb, u)
        if point is None:
            return None
        new = (u, *point)
        if new[2] < eb:
            a, b, c = (a, new, b) if u > cb else (b, new, c)
        else:
            a, b, c = (new, b, c) if u > cb else (a, b, new)
    return a, b, c


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
    chis = list(chi_grid)
    if any(np.ndim(c) != 0 for c in chis):
        raise ValueError("chi_grid must be a one-dimensional sequence of numbers")
    chis = [float(c) for c in chis]
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
    tracks: list[list[float]] = []  # the ε tracks of _anchored_point's points
    for chi in chis:
        sol = _anchored_point(dev, p, q, chi, tracks)
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


def _anchored_point(
    dev: DensityEvolution, p: np.ndarray, q: np.ndarray, target: float, tracks: list[list[float]]
):
    """Anchored continuation loop; returns (p, q, eps, rounds) or None.

    `tracks` holds a track for each point traced before that returned, in
    order: its base, the ε of the state it started from (NaN for the
    all-ones start), then the ε of each of its rounds. A point that returns
    appends its own, so its base is the last track's last ε.

    A round bisects ε from a warm bracket when the target lies strictly
    between mean(p) at its two ends. From the third round on that is
    _warm_bracket's around the last ε. Rounds 1 and 2 know no change of ε
    yet, so they take _warm_bracket's around a prediction (the predictor
    step of predictor-corrector continuation): the round's step at the last
    point, its ε there minus its ε before, added to this point's ε before
    the round, with the change of that step from the point before as the
    width. A round without a warm bracket (fewer than two tracks, or a NaN
    base), or whose bracket misses, takes the cold path: the ends of [0, 1]
    first, then bisection from [0, 1]. Either way the bisection zooms
    (_zoomed_bisection) and tests the same dyadic midpoints below each
    bracket it adopts, so every ε is the one plain bisection from [0, 1]
    gives. The ε a round needs together are evaluated as rows of one call of
    the staged map, and with them the ε it will probably need next: a
    bracket's two ends with its midpoint (the bisection's first step while
    the bracket is wider than 2**-_WARM_DEPTH), a zoom's two probes with the
    path guessed inside a cover of depth _WARM_DEPTH, and a guessed path
    alone (see _zoomed_bisection). Every row is kept for the round, and a
    row has the bits of the same ε evaluated alone, so the rows evaluated
    ahead change no decision.
    """
    track = [tracks[-1][-1] if tracks else math.nan]
    eps_prev = None
    d_eps = float("inf")
    stuck = 0
    for r in range(1, _MAX_ROUNDS + 1):
        staged = dev.staged_round_map(p, q)
        seen: dict[float, tuple] = {}  # (mean(p), p, q) at each ε of the round

        def at(eps, ahead=()) -> list[tuple]:
            """(mean(p), p, q) at each ε of eps. If one is not seen yet, those
            of eps and ahead not seen yet are evaluated as rows of one call."""
            if any(e not in seen for e in eps):
                new = [e for e in dict.fromkeys((*eps, *ahead)) if e not in seen]
                P, Q = staged(dev.fpoly(new))
                # Each row's mean() to the bit, without its per-call overhead.
                for e, chi, pe, qe in zip(new, (P.sum(axis=1) / P.shape[1]).tolist(), P, Q):
                    seen[e] = chi, pe, qe
            return [seen[e] for e in eps]

        def chi_at(eps, ahead=()) -> list[float]:
            return [v[0] for v in at(eps, ahead)]

        def ends(lo: float, hi: float) -> list[float]:
            """mean(p) at lo and hi, evaluated with the bracket's midpoint."""
            return chi_at((lo, hi), (0.5 * (lo + hi),) if hi - lo > 2.0**-_WARM_DEPTH else ())

        if d_eps != float("inf"):
            lo, hi = _warm_bracket(eps_prev, d_eps)
        elif len(tracks) > 1:
            # Every track has a base and at least two rounds: a point's first
            # round leaves the change of ε unknown, so it never returns.
            before, last = (t[r] - t[r - 1] for t in tracks[-2:])
            width = abs(last - before)
            lo, hi = (0.0, 1.0) if math.isnan(width) else _warm_bracket(track[-1] + last, width)
        else:
            lo, hi = 0.0, 1.0
        c_lo, c_hi = ends(lo, hi)
        # Strictly inside, as on the cold path's way to its bisection.
        if (lo, hi) != (0.0, 1.0) and not c_lo < target < c_hi:
            lo, hi = 0.0, 1.0
            c_lo, c_hi = ends(lo, hi)
        # Only the cold path can meet the target at an end of its bracket.
        if target <= c_lo:
            eps = 0.0
        elif target >= c_hi:
            eps = 1.0
        else:
            lo, hi = _zoomed_bisection(chi_at, target, lo, hi, c_lo, c_hi)
            eps = 0.5 * (lo + hi)
        ((_, p1, q1),) = at((eps,))
        d_state = max(np.abs(p1 - p).max(), np.abs(q1 - q).max())
        d_eps = float("inf") if eps_prev is None else abs(eps - eps_prev)
        p, q, eps_prev = p1, q1, eps
        track.append(eps)
        anchored = abs(p.mean() - target) <= _ANCHOR_TOL
        if eps in (0.0, 1.0) and not anchored:
            stuck += 1
            if stuck > _STUCK_LIMIT:
                return None
        else:
            stuck = 0
        if d_state < _STATE_TOL and d_eps < _EPS_CHANGE_TOL and anchored:
            tracks.append(track)
            return p, q, eps, r
    return None


def _zoomed_bisection(
    chi_at, target: float, lo: float, hi: float, c_lo: float, c_hi: float
) -> tuple[float, float]:
    """Bisect the dyadic bracket [lo, hi], with mean(p) c_lo < target at lo
    and c_hi >= target at hi, down to _EPS_BISECT_TOL, zooming as the
    comment on _ZOOM_MARGIN says. chi_at(eps, ahead) gives mean(p) at each ε
    of eps, evaluating those not yet seen, and those of ahead, as rows of
    one call.

    mean(p) is known at both ends of every bracket: the start was probed, a
    zoom probes both ends, and a step keeps one end and evaluates the other.
    Below _WARM_DEPTH the crossing predicted by linear interpolation between
    the ends guesses a _walk, whose path and final midpoint are evaluated in
    one call; the bisection then walks through them up to its first
    midpoint off the path, and predicts again from there. A zoom to a cover
    of depth _WARM_DEPTH evaluates the path guessed inside the cover with
    its two probes, so that the walk after it mostly finds its rows seen.
    """
    guess = None
    while hi - lo > _EPS_BISECT_TOL:
        prev, guess = guess, lo + (target - c_lo) / (c_hi - c_lo) * (hi - lo)
        if hi - lo <= 2.0**-_WARM_DEPTH:
            path = _guessed_path(lo, hi, guess)
            chi = dict(zip(path, chi_at(path)))
            chi[lo], chi[hi] = c_lo, c_hi
            lo, hi, _, _ = _walk(lo, hi, _EPS_BISECT_TOL, {e: c < target for e, c in chi.items()})
            c_lo, c_hi = chi[lo], chi[hi]
            continue
        if prev is not None:
            margin = _ZOOM_MARGIN * abs(guess - prev)
            a, b = _dyadic_cover(lo, hi, guess - margin, guess + margin)
            # At least two levels deeper, or the probes cost more than the
            # one step they would save.
            if b - a <= 0.25 * (hi - lo):
                ahead = _guessed_path(a, b, guess) if b - a <= 2.0**-_WARM_DEPTH else ()
                c_a, c_b = chi_at((a, b), ahead)
                if c_a < target < c_b:
                    lo, hi, c_lo, c_hi = a, b, c_a, c_b
                    continue
        mid = 0.5 * (lo + hi)
        (c_mid,) = chi_at((mid,))
        if c_mid < target:
            lo, c_lo = mid, c_mid
        else:
            hi, c_hi = mid, c_mid
    return lo, hi


def _guessed_path(lo: float, hi: float, guess: float) -> list[float]:
    """The midpoints a bisection of [lo, hi] down to _EPS_BISECT_TOL tests if
    each goes the way `guess` says, and the midpoint of the bracket it ends
    with: the ε the round then evaluates."""
    a, b, _, path = _walk(lo, hi, _EPS_BISECT_TOL, {}, guess)
    path.append(0.5 * (a + b))
    return path


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
