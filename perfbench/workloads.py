"""The four benchmark workloads: inputs made from a seed, one operation per
call through the public API of `scmn.de` and `scmn.sim`, and the check of
each result.

Every workload uses the ensemble (dl, dr, dg) = (4, 2, 2). An operation is one
threshold cell, one 93-point curve trace or one decoding trial. A workload's
`check` returns None when a result is right and a one-line reason when it is
not; `run_check` checks what only the whole run can show.
"""

from __future__ import annotations

import itertools

import numpy as np

from scmn import de, sim
from scmn.channel import ChannelFamily
from scmn.ensemble import EnsembleParams

P10W2 = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
P20W3 = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)

# 8-decimal reference thresholds at L=10, w=2 and the acceptance band around
# them; bisection at 1e-5 lands well inside the band.
THRESHOLD_REFS = {("cd", 2): 0.49950900, ("bd", 4): 0.49885380}
THRESHOLD_BAND = 2e-5
BISECT_TOL = 1e-5

# Leftmost point of the m=6 curve at L=20, w=3 must close at least 10x more of
# the gap to 1/2 than the L=10, w=2 threshold does (the wiggle criterion).
CD6_THRESHOLD_L10W2 = 0.49166023
CURVE_WIGGLE_GAP = (0.5 - CD6_THRESHOLD_L10W2) / 10
CURVE_POINTS = 93

DECODE_EPS = 0.45
TRAJECTORY_SWEEPS = 30
MAX_SE = 3.0

# Seeded m=6, M=48 trials at eps=0.45: master seed -> (BER, rounds to stall).
# Recorded from the seed code; a correct rewrite of the decoder keeps every
# seeded result identical, so these are exact pins.
M6_PINS = {
    0: (0.691468253968254, 34),
    1: (0.7757936507936508, 17),
    2: (0.7529761904761905, 14),
    3: (0.7797619047619048, 14),
    4: (0.7559523809523809, 17),
    5: (0.8492063492063492, 8),
    6: (0.7648809523809523, 15),
    7: (0.8174603174603174, 19),
    8: (0.7440476190476191, 11),
    9: (0.7202380952380952, 28),
    10: (0.8303571428571429, 11),
    11: (0.7619047619047619, 9),
    12: (0.7162698412698413, 22),
    13: (0.7668650793650794, 12),
    14: (0.7390873015873016, 14),
    15: (0.8184523809523809, 8),
}


def trajectory_deviation(trajectories, q_ref: np.ndarray, n_units: int) -> float:
    """Worst distance, in binomial standard errors over n_units independent
    units, between the mean of the given centre-section trajectories and the
    DE trajectory q_ref. Each trajectory is padded with its last value (a
    stalled decoder is constant)."""
    n = len(q_ref)
    padded = [list(t[:n]) + [t[-1]] * (n - len(t)) for t in trajectories]
    emp = np.mean(padded, axis=0)
    se = np.maximum(np.sqrt(q_ref * (1.0 - q_ref) / n_units), 1e-12)
    return float(np.max(np.abs(emp - q_ref) / se))


class Workload:
    """Defaults shared by the workloads.

    `batch` operations run together: a run ends only after a whole batch.
    `trace_ops` operations make the traced run. `named` maps the spans that
    should account for most of the traced wall time to the time that counts
    ("s" for the whole span, "self_s" for its own part)."""

    batch = 1
    trace_ops = 1
    table_size = 0  # inputs of one detector table, 3^m, for decode workloads
    named: dict[str, str] = {}

    def run_check(self, results):
        return None

    def rounds(self, results) -> int:
        return 0

    def points(self, results) -> int:
        return 0


class Threshold(Workload):
    name = "threshold"
    why = (
        "DE-sweep bound: ~17 bisection steps per cell, each hundreds to ~50k "
        "sweeps at 21 sections, for both dimension laws (cd m=2, bd m=4)"
    )
    batch = len(THRESHOLD_REFS)
    trace_ops = len(THRESHOLD_REFS)
    named = {"de.sweep": "s"}

    def inputs(self, seed: int):
        """The cells in an order drawn from the seed; DE itself is deterministic."""
        cells = list(THRESHOLD_REFS)
        order = np.random.default_rng(seed).permutation(len(cells))
        return itertools.cycle([cells[i] for i in order])

    def run(self, cell):
        kind, m = cell
        return de.threshold(P10W2, kind, m, bisect_tol=BISECT_TOL)

    def check(self, cell, value):
        diff = abs(value - THRESHOLD_REFS[cell])
        if diff > THRESHOLD_BAND:
            return f"threshold {cell} = {value:.8f} is {diff:.1e} from the reference"
        return None


class Curve(Workload):
    name = "curve"
    why = (
        "DE used through ~58k short staged rounds, each rebuilding the transfer "
        "polynomial, at 41 sections instead of 21 (cd m=6, L=20, w=3)"
    )
    named = {
        "de.staged_round": "s",
        "channel.ChannelFamily": "s",
        "channel.transfer_poly": "s",
        "channel.dimension_distribution": "s",
    }

    def inputs(self, seed: int):
        """The fixed chi grid 0.95, 0.94, ..., 0.03; tracing is deterministic."""
        grid = np.arange(0.95, 0.02, -0.01)
        return itertools.repeat(grid)

    def run(self, grid):
        return de.ebp_trace(P20W3, "cd", 6, grid)

    def check(self, grid, points):
        # ebp_trace drops every point whose residual exceeds 1e-9, so a full
        # set means every residual passed.
        if len(points) != CURVE_POINTS:
            return f"{len(points)} of {CURVE_POINTS} curve points returned"
        left = min(p.epsilon for p in points)
        if not left < 0.5 or 0.5 - left > CURVE_WIGGLE_GAP:
            return f"leftmost epsilon {left:.8f} outside (0.5 - {CURVE_WIGGLE_GAP:.3e}, 0.5)"
        return None

    def points(self, results) -> int:
        return sum(len(pts) for _, pts in results)


class Decode(Workload):
    """One decoding trial per operation, through run_experiment at eps=0.45."""

    m: int
    M: int

    @property
    def table_size(self) -> int:
        return 3**self.m

    def run(self, master_seed):
        return sim.run_experiment(
            P10W2, self.M, "cd", self.m, [DECODE_EPS], 1, master_seed
        )[0]

    def rounds(self, results) -> int:
        # One trial per row, so the trajectory holds the all-erased start
        # plus one value per round.
        return sum(len(row.q_trajectory_mean) - 1 for _, row in results)


class DecodeM2(Decode):
    name = "decode-m2"
    why = (
        "graph sampling and ~160 flooding rounds per trial at M=2000, m=2, with "
        "only 4 detector tables, so the detector path is bypassed"
    )
    m = 2
    M = 2000
    trace_ops = 4
    named = {"ensemble.sample_graph": "s", "sim.decode_trial": "self_s"}

    def __init__(self):
        self._q_ref = None

    def inputs(self, seed: int):
        """A fresh master seed per trial, drawn from the workload seed."""
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(0, 2**63))

    def q_ref(self) -> np.ndarray:
        """DE trajectory of the centre section, iterations 0..30."""
        if self._q_ref is None:
            family = ChannelFamily.concentrated(self.m, DECODE_EPS)
            _, Q = de.trajectory(P10W2, family, TRAJECTORY_SWEEPS)
            self._q_ref = Q[:, P10W2.L]
        return self._q_ref

    def _deviation(self, rows) -> float:
        # The m bits of a channel symbol share one noise draw and a bit's dg
        # edges carry one value, so the centre section's dg*M edge messages
        # are not independent draws. Counted as independent, as criterion 9
        # does, 4 of 40 seeded trials of a correct decoder sat 2.4-3.6 SEs
        # from DE. The M/m symbols are the independent units here.
        n_units = len(rows) * self.M // self.m
        return trajectory_deviation(
            [r.q_trajectory_mean for r in rows], self.q_ref(), n_units
        )

    def check(self, master_seed, row):
        dev = self._deviation([row])
        if dev > MAX_SE:
            return f"trajectory {dev:.2f} binomial SEs from DE"
        return None

    def run_check(self, results):
        rows = [row for _, row in results]
        if not rows:
            return None
        dev = self._deviation(rows)
        if dev > MAX_SE:
            return f"mean trajectory of {len(rows)} trials {dev:.2f} binomial SEs from DE"
        return None


class DecodeM6(Decode):
    name = "decode-m6"
    why = (
        "over 99% of each trial builds ~159 detector tables of 3^6 entries in "
        "pure Python, rebuilt every trial; per-symbol subspace sampling"
    )
    m = 6
    M = 48
    batch = 2
    named = {"sim.table": "s"}

    def inputs(self, seed: int):
        """The pinned master seeds in an order drawn from the workload seed."""
        pool = sorted(M6_PINS)
        order = np.random.default_rng(seed).permutation(len(pool))
        return itertools.cycle([pool[i] for i in order])

    def check(self, master_seed, row):
        got = (row.ber_mean, len(row.q_trajectory_mean) - 1)
        if got != M6_PINS[master_seed]:
            return f"seed {master_seed}: (BER, rounds) = {got}, pinned {M6_PINS[master_seed]}"
        return None


WORKLOADS = {w.name: w for w in (Threshold(), Curve(), DecodeM2(), DecodeM6())}
