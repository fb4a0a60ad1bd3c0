#!/usr/bin/env python3
"""Count the detector-half work of one EXIT-like curve trace.

The trace is the `curve` benchmark workload's: the (4, 2, 2) ensemble at
L=20/w=3, cd m=6, on the targets chi = 0.95, 0.94, ..., 0.03. Every anchored
round builds one staged map (`DensityEvolution.staged_round_map`) and calls
it at f's coefficients for the channel parameters it needs, several as rows
of one call. The script prints the rounds, the calls of those maps
(detector-half calls) and their rows, counted by wrapping
`staged_round_map`. The trace is deterministic, so the counts are too; a
change to the curve tracer's bisection shows here as fewer or more calls and
rows per round.
"""

import argparse
import sys

import numpy as np

from scmn import de
from scmn.ensemble import EnsembleParams

PARAMS = EnsembleParams(dl=4, dr=2, dg=2, L=20, w=3)
GRID = np.arange(0.95, 0.02, -0.01)


def count() -> tuple[int, int, int]:
    """(rounds, detector-half calls, rows) of the trace."""
    counts = [0, 0, 0]
    staged_round_map = de.DensityEvolution.staged_round_map

    def counted_map(self, p, q):
        counts[0] += 1
        at = staged_round_map(self, p, q)

        def counted_at(fcoef):
            counts[1] += 1
            counts[2] += len(fcoef)
            return at(fcoef)

        return counted_at

    de.DensityEvolution.staged_round_map = counted_map
    try:
        de.ebp_trace(PARAMS, "cd", 6, GRID)
    finally:
        de.DensityEvolution.staged_round_map = staged_round_map
    return counts[0], counts[1], counts[2]


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    rounds, calls, rows = count()
    print(f"rounds {rounds}")
    print(f"calls {calls} ({calls / rounds:.2f} per round)")
    print(f"rows {rows} ({rows / rounds:.2f} per round, {rows / calls:.2f} per call)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
