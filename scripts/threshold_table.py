#!/usr/bin/env python3
"""Print the L=10/w=2 threshold table at bisect_tol 1e-8 beside the DE fold
and the 8-decimal reference values.

The cells are the (4, 2, 2) ensemble at L=10, w=2, both channel families and
m = 1..6. All twelve run in one `thresholds` call at bisect_tol 1e-8. One
line per cell gives that ε*, the fold of the cell's fixed-point curve
(`de.fold`), the reference, and both differences to it. A cell whose walk
reaches the DE sweep cap prints "-" and its cap error after the table, and
the script then exits with code 3. The whole table takes about 70 s on two
cores.
"""

import argparse
import sys

from scmn.de import ConvergenceError, fold, thresholds
from scmn.ensemble import EnsembleParams

PARAMS = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
BISECT_TOL = 1e-8
# The 8-decimal references of the acceptance suite (tests/test_acceptance.py);
# a test keeps the two tables equal.
REFERENCE = {
    ("cd", 1): 0.49998527, ("cd", 2): 0.49950900, ("cd", 3): 0.49913150,
    ("cd", 4): 0.49714179, ("cd", 5): 0.49566948, ("cd", 6): 0.49166023,
    ("bd", 1): 0.49998527, ("bd", 2): 0.49987196, ("bd", 3): 0.49954538,
    ("bd", 4): 0.49885380, ("bd", 5): 0.49768392, ("bd", 6): 0.49596851,
}


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    cells = list(REFERENCE)
    try:
        eps_star, errors = thresholds(PARAMS, cells, bisect_tol=BISECT_TOL), []
    except ConvergenceError as err:
        eps_star, errors = err.eps_star, str(err).split("; ")[:-1]
    print(f"{'cell':8} {'eps*':>12} {'fold':>12} {'reference':>12} {'eps*-ref':>9} {'fold-ref':>9}")
    for (kind, m), ref in REFERENCE.items():
        values = [eps_star.get((kind, m)), fold(PARAMS, kind, m)]
        columns = [f"{v:12.10f}" if v is not None else f"{'-':>12}" for v in values]
        diffs = [f"{v - ref:+9.1e}" if v is not None else f"{'-':>9}" for v in values]
        print(f"{kind} m={m:<3} {columns[0]} {columns[1]} {ref:12.8f} {diffs[0]} {diffs[1]}")
    for error in errors:
        print(error)
    return 3 if errors else 0


if __name__ == "__main__":
    sys.exit(run())
