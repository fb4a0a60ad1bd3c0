#!/usr/bin/env python3
"""Recompute the (4, 2, 2) threshold table for both channel families.

Writes one CSV per coupling setting (L=10/w=2 and L=20/w=3), in the row
format of `scmn threshold`; each setting's cells are bisected in one
`thresholds` call. The L=20/w=3 columns sit within ~1e-5 of 1/2 for small m,
so that pass is slow; trim --m-max or raise --bisect-tol for a quick look.
If a cell reaches the DE sweep cap, the CSV of its setting holds the cells
that answered, and the script names the capped cell and exits with code 3.
With the defaults it does so, after about two minutes on two cores: at
L=20/w=3, cd and bd m=1 reach the cap at their first midpoint, 0.5, which
lies 8.6e-8 below their fold (0.50000009), so that row converges, but in
more sweeps than the cap allows; bd m=2, for which no fold is found, caps
at 0.5 too.
"""

import argparse
import sys
import time

from scmn.de import ConvergenceError, thresholds
from scmn.ensemble import EnsembleParams


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--bisect-tol", type=float, default=1e-5)
    ap.add_argument("--skip-l20", action="store_true",
                    help="only the L=10/w=2 columns")
    ap.add_argument("--out-prefix", default="thresholds")
    args = ap.parse_args(argv)

    settings = [(10, 2)] if args.skip_l20 else [(10, 2), (20, 3)]
    for L, w in settings:
        path = f"{args.out_prefix}_L{L}_w{w}.csv"
        print(f"== L={L} w={w} -> {path}")
        params = EnsembleParams(dl=4, dr=2, dg=2, L=L, w=w)
        cells = [(family, m) for family in ("cd", "bd") for m in range(1, args.m_max + 1)]
        t0 = time.time()
        try:
            eps_star, error = thresholds(params, cells, bisect_tol=args.bisect_tol), None
        except ConvergenceError as exc:
            eps_star, error = exc.eps_star, exc
        rows = []
        for family, m in cells:
            if (family, m) in eps_star:
                row = f"{m},{family},{L},{w},{eps_star[family, m]:.9g},{args.bisect_tol:.9g}"
                rows.append(row + "\n")
                print(f"   {family} m={m}: {row}")
        print(f"   {len(rows)} of {len(cells)} cells in {time.time() - t0:.0f}s")
        with open(path, "w") as fh:
            fh.write("m,family,L,w,epsilon_star,bisect_tol\n")
            fh.writelines(rows)
        if error is not None:
            print(f"error: non-convergence: {error}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(run())
