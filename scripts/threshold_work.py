#!/usr/bin/env python3
"""Count the DE work of the two `threshold` benchmark cells.

The cells are the `threshold` workload's: the (4, 2, 2) ensemble at
L=10/w=2, cd m=2 and bd m=4, each bisected to 1e-5 by one `threshold` call.
For each cell the script prints its ε* in float.hex and four counts:
- rows: rows that joined the lockstep run and swept, counted by wrapping
  its frontier;
- certificates: rows tried by the fold-point stall certificate as they
  joined (`de._fold_certified`), and how many it certified;
- sweeps: the lockstep sweeps, the n summed over `de._sweeps` calls;
- row-sweeps: each such n times the rows of its call.
The certificate's lowering sweeps are counted too. The fold is
computed before counting starts. DE is deterministic, so the counts are
too; a change to the walk's schedule shows here as more or fewer rows and
row-sweeps.
"""

import argparse
import sys

from scmn import de
from scmn.ensemble import EnsembleParams

PARAMS = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
CELLS = (("cd", 2), ("bd", 4))
BISECT_TOL = 1e-5


def count(kind: str, m: int) -> dict:
    """ε* and the counts of one cell: rows, certificates, certified, sweeps
    and row-sweeps."""
    counts = dict.fromkeys(("rows", "certificates", "certified", "sweeps", "row_sweeps"), 0)
    fold = de._fold(PARAMS, kind, m)
    run_de, sweeps, fold_certified, _fold = de.run_de, de._sweeps, de._fold_certified, de._fold

    def counted_run_de(params, frontier):
        live = set()

        def counted_frontier(done):
            nonlocal live
            wanted = frontier(done)
            joined = {k for k, v in wanted.items() if not isinstance(v, de.DeResult)}
            counts["rows"] += len(joined - live)
            live = joined
            return wanted

        return run_de(params, counted_frontier)

    def counted_sweeps(dev, x, fcoef, n):
        counts["sweeps"] += n
        counts["row_sweeps"] += n * (x.shape[1] if x.ndim == 4 else 1)
        return sweeps(dev, x, fcoef, n)

    def counted_fold_certified(params, kind, m, point, eps):
        ok = fold_certified(params, kind, m, point, eps)
        counts["certificates"] += 1
        counts["certified"] += ok
        return ok

    de.run_de, de._sweeps = counted_run_de, counted_sweeps
    de._fold_certified, de._fold = counted_fold_certified, lambda *args: fold
    try:
        counts["eps_star"] = de.threshold(PARAMS, kind, m, bisect_tol=BISECT_TOL)
    finally:
        de.run_de, de._sweeps, de._fold_certified, de._fold = run_de, sweeps, fold_certified, _fold
    return counts


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for kind, m in CELLS:
        c = count(kind, m)
        print(
            f"{kind} m={m} eps* {c['eps_star'].hex()} rows {c['rows']} "
            f"certificates {c['certificates']} ({c['certified']} certified) "
            f"sweeps {c['sweeps']} row-sweeps {c['row_sweeps']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
