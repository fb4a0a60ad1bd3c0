#!/usr/bin/env python3
"""Recompute the (4, 2, 2) threshold table for both channel families.

Writes one CSV per coupling setting (L=10/w=2 and L=20/w=3). The L=20/w=3
columns sit within ~1e-5 of 1/2 for small m, so that pass is slow; trim
--m-max or raise --bisect-tol for a quick look.
"""

import argparse
import os
import sys
import tempfile
import time

from scmn.cli import main as cli_main


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--bisect-tol", type=float, default=1e-5)
    ap.add_argument("--skip-l20", action="store_true",
                    help="only the L=10/w=2 columns")
    ap.add_argument("--out-prefix", default="thresholds")
    args = ap.parse_args(argv)

    settings = [(10, 2)] if args.skip_l20 else [(10, 2), (20, 3)]
    with tempfile.TemporaryDirectory() as tmp:
        for L, w in settings:
            path = f"{args.out_prefix}_L{L}_w{w}.csv"
            print(f"== L={L} w={w} -> {path}")
            rows = []
            for family in ("cd", "bd"):
                for m in range(1, args.m_max + 1):
                    t0 = time.time()
                    cell_path = os.path.join(tmp, f"cell_{family}_{m}.csv")
                    code = cli_main([
                        "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
                        "-L", str(L), "-w", str(w),
                        "--channel", family, "-m", str(m),
                        "--bisect-tol", str(args.bisect_tol),
                        "--out", cell_path,
                    ])
                    if code:
                        return code
                    with open(cell_path) as fh:
                        cell = [l for l in fh if not l.startswith("#")]
                    rows.append(cell[1])
                    print(f"   {family} m={m}: {cell[1].strip()}  [{time.time()-t0:.0f}s]")
            with open(path, "w") as fh:
                fh.write("m,family,L,w,epsilon_star,bisect_tol\n")
                fh.writelines(rows)
    return 0


if __name__ == "__main__":
    sys.exit(run())
