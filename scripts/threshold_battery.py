#!/usr/bin/env python3
"""Compute the threshold ε* of 64 fixed cells and print their digest.

The cells are the (4, 2, 2) ensemble at (L, w) in {(4, 2), (4, 3), (6, 4),
(10, 2)}, both channel families, m in {1, 2, 3, 6} and bisect_tol in
{1e-3, 1e-4}. One line per cell gives its ε* in float.hex; the last line is
the SHA-256 digest of the 64 doubles (little-endian IEEE 754, in the order
printed). Two source trees give the same digest exactly when they give every
ε* to the bit, so a speed change to `threshold` is checked by running this on
both. The whole battery takes a few minutes, most of it in the m = 1 cells.
"""

import argparse
import hashlib
import struct
import sys
import time

from scmn.de import threshold
from scmn.ensemble import EnsembleParams

SETTINGS = ((4, 2), (4, 3), (6, 4), (10, 2))
KINDS = ("cd", "bd")
WIDTHS = (1, 2, 3, 6)
BISECT_TOLS = (1e-3, 1e-4)


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    t0 = time.time()
    values = []
    for L, w in SETTINGS:
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        for kind in KINDS:
            for m in WIDTHS:
                for bisect_tol in BISECT_TOLS:
                    eps_star = threshold(params, kind, m, bisect_tol=bisect_tol)
                    values.append(eps_star)
                    print(f"L={L} w={w} {kind} m={m} bisect_tol={bisect_tol:g} {eps_star.hex()}",
                          flush=True)
    digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    print(f"sha256 {digest}")
    print(f"{len(values)} cells in {time.time() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
