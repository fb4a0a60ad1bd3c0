#!/usr/bin/env python3
"""Trace 25 fixed EXIT-like curves and print their digest.

The curves are the (4, 2, 2) ensemble at (L, w) in {(4, 2), (6, 3), (20, 3)},
both channel families and m in {1, 2, 6, 15}, each on the targets chi = 0.9,
0.85, ..., 0.05, plus the L=6/w=3 cd m=2 curve with the alternative h. One
line per point gives its chi, ε, h and residual in float.hex and its round
count; the last line is the SHA-256 digest of every point's ε, h, residual
(little-endian IEEE 754 doubles), rounds (a little-endian int64) and the
bytes of its p and q (little-endian doubles), in the order printed. Two
source trees give the same digest exactly when they trace every point to the
bit, so a speed change to `ebp_trace` is checked by running this on both.
The whole battery takes about ten seconds on two cores.
"""

import argparse
import hashlib
import struct
import sys
import time
import warnings

from scmn.de import ebp_trace
from scmn.ensemble import EnsembleParams

SETTINGS = ((4, 2), (6, 3), (20, 3))
KINDS = ("cd", "bd")
WIDTHS = (1, 2, 6, 15)
GRID = tuple(round(0.9 - 0.05 * k, 2) for k in range(18))
# (L, w, kind, m) of the one curve traced with the alternative h.
ALTERNATIVE = (6, 3, "cd", 2)


def curves():
    """(L, w, kind, m, alternative) of every curve, in the order traced."""
    for L, w in SETTINGS:
        for kind in KINDS:
            for m in WIDTHS:
                yield L, w, kind, m, False
    yield *ALTERNATIVE, True


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    t0 = time.time()
    digest = hashlib.sha256()
    n_points = 0
    for L, w, kind, m, alternative in curves():
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        with warnings.catch_warnings():
            # A skipped target shows as a missing line.
            warnings.simplefilter("ignore", RuntimeWarning)
            points = ebp_trace(params, kind, m, GRID, alternative=alternative)
        for pt in points:
            values = (pt.epsilon, pt.h, pt.residual)
            print(
                f"L={L} w={w} {kind} m={m} alternative={alternative} chi={pt.chi.hex()} "
                + " ".join(v.hex() for v in values)
                + f" rounds={pt.rounds}",
                flush=True,
            )
            digest.update(struct.pack("<3dq", *values, pt.rounds))
            digest.update(pt.state.p.astype("<f8").tobytes())
            digest.update(pt.state.q.astype("<f8").tobytes())
            n_points += 1
    print(f"sha256 {digest.hexdigest()}")
    print(f"{n_points} points in {time.time() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
