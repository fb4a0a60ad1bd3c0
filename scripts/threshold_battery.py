#!/usr/bin/env python3
"""Compute the threshold ε* of 64 fixed cells and print their digest.

The cells are the (4, 2, 2) ensemble at (L, w) in {(4, 2), (4, 3), (6, 4),
(10, 2)}, both channel families, m in {1, 2, 3, 6} and bisect_tol in
{1e-3, 1e-4}. One line per cell gives its ε* in float.hex; the last line is
the SHA-256 digest of the 64 doubles (little-endian IEEE 754, in the order
printed). Two source trees give the same digest exactly when they give every
ε* to the bit, so a speed change to `thresholds` is checked by running this on
both. Each (L, w, bisect_tol) is one `thresholds` call over its eight cells.
The whole battery takes 3.5-6 s on two cores.
"""

import argparse
import hashlib
import struct
import sys
import time

from scmn.de import thresholds
from scmn.ensemble import EnsembleParams

SETTINGS = ((4, 2), (4, 3), (6, 4), (10, 2))
KINDS = ("cd", "bd")
WIDTHS = (1, 2, 3, 6)
BISECT_TOLS = (1e-3, 1e-4)


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    t0 = time.time()
    values = []
    cells = [(kind, m) for kind in KINDS for m in WIDTHS]
    for L, w in SETTINGS:
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        eps_star = {tol: thresholds(params, cells, bisect_tol=tol) for tol in BISECT_TOLS}
        for kind, m in cells:
            for bisect_tol in BISECT_TOLS:
                values.append(eps_star[bisect_tol][kind, m])
                print(f"L={L} w={w} {kind} m={m} bisect_tol={bisect_tol:g} {values[-1].hex()}",
                      flush=True)
    digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    print(f"sha256 {digest}")
    print(f"{len(values)} cells in {time.time() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
