#!/usr/bin/env python3
"""Time and count the parts of one EXIT-like curve trace (`de.ebp_trace`).

The trace is the `curve` benchmark workload's: the (4, 2, 2) ensemble at
L=20/w=3, cd m=6, on the targets chi = 0.95, 0.94, ..., 0.03. Every anchored
round builds one staged map and calls it at f's coefficient rows, which
`fpoly` gives for the round's channel parameters. A run traces the curve
once and times each part with `time.perf_counter` around the calls the
tracer makes: `fpoly` on a sequence of parameters (fpoly rows), the staged
map's construction (map builds, the check half, one per round) and the
calls of those maps (detector-half calls); the rest of the trace is
everything else (the bisection, the residual sweep and the EXIT-like
values). The line gives the ms per trace of each part and of the whole
trace, each the best of RUNS runs, with the counts of each call, the rows
of the detector-half calls and the rounds whose bisection starts from
[0, 1] (those where neither the warm bracket nor the predicted one of
rounds 1 and 2 brackets the target, or none is known). The trace is
deterministic, so the counts are too; a change to the curve tracer's
bisection shows here as fewer or more calls and rows per round. The script
takes no options; a run takes about 3 s.
"""

import argparse
import contextlib
import sys
import time

import numpy as np

from scmn import de
from scmn.ensemble import EnsembleParams

RUNS = 5
PARAMS = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
GRID = np.arange(0.95, 0.02, -0.01)
PARTS = ("fpoly rows", "map builds", "detector calls")


@contextlib.contextmanager
def timed_parts(spent: dict[str, float], calls: dict[str, int]):
    """Add each part's wall time to spent[part], and its calls to
    calls[part], while inside; calls["rows"] counts the detector-half rows
    and calls["cold"] the bisections that start from [0, 1]."""
    Dev = de.DensityEvolution
    fpoly, staged_round_map = vars(Dev)["fpoly"], vars(Dev)["staged_round_map"]
    zoomed_bisection = de._zoomed_bisection

    def timed(part, fn, *args):
        calls[part] += 1
        t0 = time.perf_counter()
        out = fn(*args)
        spent[part] += time.perf_counter() - t0
        return out

    def timed_fpoly(self, eps):
        if isinstance(eps, list):
            return timed("fpoly rows", fpoly, self, eps)
        return fpoly(self, eps)

    def timed_map(self, p, q):
        at = timed("map builds", staged_round_map, self, p, q)

        def timed_at(fcoef):
            calls["rows"] += len(fcoef)
            return timed("detector calls", at, fcoef)

        return timed_at

    def counted_bisection(chi_at, target, lo, hi, c_lo, c_hi):
        calls["cold"] += (lo, hi) == (0.0, 1.0)
        return zoomed_bisection(chi_at, target, lo, hi, c_lo, c_hi)

    Dev.fpoly, Dev.staged_round_map = timed_fpoly, timed_map
    de._zoomed_bisection = counted_bisection
    try:
        yield
    finally:
        Dev.fpoly, Dev.staged_round_map = fpoly, staged_round_map
        de._zoomed_bisection = zoomed_bisection


def part_ms() -> tuple[dict[str, float], dict[str, int]]:
    """Best ms per trace of each part, of the rest and of the trace, and the
    calls of each part, the detector-half rows and the bisections from
    [0, 1] in one trace."""
    best = dict.fromkeys((*PARTS, "rest", "trace"), float("inf"))
    for _ in range(RUNS):
        spent = dict.fromkeys(PARTS, 0.0)
        calls = dict.fromkeys((*PARTS, "rows", "cold"), 0)
        with timed_parts(spent, calls):
            t0 = time.perf_counter()
            de.ebp_trace(PARAMS, "cd", 6, GRID)
            spent["trace"] = time.perf_counter() - t0
        spent["rest"] = spent["trace"] - sum(spent[p] for p in PARTS)
        for part, s in spent.items():
            best[part] = min(best[part], s * 1e3)
    return best, calls


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    ms, calls = part_ms()
    parts = ", ".join(f"{p} {ms[p]:.1f}" for p in (*PARTS, "rest"))
    counts = ", ".join(f"{calls[p]} {p}" for p in PARTS) + f" of {calls['rows']} rows"
    counts += f", {calls['cold']} bisections from [0, 1]"
    print(f"cd m=6 L=20/w=3: {parts}, trace {ms['trace']:.1f} ms per trace; {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
