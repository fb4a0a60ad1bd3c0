#!/usr/bin/env python3
"""Time one DE sweep of the sweep kernel (`de._sweeps`) on the shapes that
threshold computations run.

The ensemble is (4, 2, 2). Each float line is the µs per sweep of one
stacked state of `rows` lockstep rows, the best of RUNS runs of BLOCKS
blocks of 64 sweeps from all-ones, as `run_de` runs its blocks:
- L=10/w=2 with 1 row (one `threshold` cell's walk), 3 rows (a small
  lockstep) and 11 rows (the 12-cell table, whose cd and bd m=1 share a
  row);
- L=40/w=5 with 30 rows (the window study's shape).
Rows take the table's 11 distinct cells in turn at ε = 0.49, the
`threshold` workload's cd m=2 and bd m=4 first, each f zero-padded to the
longest degree as `run_de` pads it. Each exact line is the ms of one
certificate sweep (`de._certifies`' sweep in `Fraction`s) of cd m=6 from
the state 64 float sweeps reach from all-ones at ε = 0.49, on the same
operator, the best of RUNS. That ms includes building the sweep's
`Fraction(1, w)` windows, which the kernel does for every object state.
Runs are timed by `timeit`, with the garbage collector off. The
script takes no options; a run takes about 4 s on two cores.
"""

import argparse
import sys
import timeit
from fractions import Fraction

import numpy as np

from scmn import de
from scmn.ensemble import EnsembleParams

RUNS = 5
BLOCKS = 100
SWEEPS = 64
EPS = 0.49
FLOAT_CASES = ((10, 2, 1), (10, 2, 3), (10, 2, 11), (40, 5, 30))
EXACT_CASES = ((10, 2), (40, 5))
CELLS = [("cd", 2), ("bd", 4), ("cd", 1), ("bd", 2), ("cd", 3), ("bd", 3)]
CELLS += [("cd", 4), ("cd", 5), ("bd", 5), ("cd", 6), ("bd", 6)]


def params(L: int, w: int) -> EnsembleParams:
    return EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)


def float_sweep_us(L: int, w: int, rows: int) -> float:
    """Best µs per sweep of `rows` lockstep rows at L/w."""
    p = params(L, w)
    cells = [CELLS[r % len(CELLS)] for r in range(rows)]
    polys = [de.DensityEvolution(p, kind, m).fpoly(EPS) for kind, m in cells]
    deg = max(map(len, polys))
    fcoef = np.array([np.pad(c, (0, deg - len(c))) for c in polys])
    dev = de.DensityEvolution(p, *cells[0])
    x = np.ones((2, rows, p.n_sections))
    runs = timeit.repeat(lambda: de._sweeps(dev, x, fcoef, SWEEPS), repeat=RUNS, number=BLOCKS)
    return min(runs) / (BLOCKS * SWEEPS) * 1e6


def exact_sweep_ms(L: int, w: int) -> float:
    """Best ms of one exact cd m=6 sweep at L/w."""
    p = params(L, w)
    dev = de.DensityEvolution(p, "cd", 6)
    x = de._sweeps(dev, np.ones((2, p.n_sections)), dev.fpoly(EPS), SWEEPS)[-1]
    y = [np.array([Fraction(v) for v in r.tolist()], dtype=object) for r in x]
    fcoef = dev.fpoly(Fraction(EPS))
    return min(timeit.repeat(lambda: dev.sweep(*y, fcoef), repeat=RUNS, number=1)) * 1e3


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for L, w, rows in FLOAT_CASES:
        print(f"float L={L}/w={w} rows {rows}: {float_sweep_us(L, w, rows):.2f} us per sweep")
    for L, w in EXACT_CASES:
        print(f"exact L={L}/w={w} cd m=6: {exact_sweep_ms(L, w):.2f} ms per sweep")
    return 0


if __name__ == "__main__":
    sys.exit(run())
