#!/usr/bin/env python3
"""Monte-Carlo decoding of sampled finite graphs across a parameter sweep,
with the DE trajectory printed alongside for comparison."""

import argparse
import sys

from scmn.channel import ChannelFamily
from scmn.de import trajectory
from scmn.ensemble import EnsembleParams
from scmn.sim import run_experiment


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=("cd", "bd"), default="cd")
    ap.add_argument("-m", type=int, default=2)
    ap.add_argument("-M", type=int, default=504)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", default="0.40,0.45,0.48,0.50,0.52")
    args = ap.parse_args(argv)

    params = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
    grid = [float(x) for x in args.eps.split(",")]
    rows = run_experiment(
        params, args.M, args.family, args.m, grid, args.trials, args.seed
    )
    print("eps,ber_mean,ber_std,fully_decoded,trials")
    for row in rows:
        print(
            f"{row.parameter:.4f},{row.ber_mean:.6g},{row.ber_std:.6g},"
            f"{row.n_fully_decoded},{row.trials}"
        )
    eps0 = grid[0]
    _, Q = trajectory(params, ChannelFamily(args.family, args.m, eps0), 30)
    emp = rows[0].q_trajectory_mean
    print(f"\ncenter-section erasure trajectory at eps={eps0} (DE vs empirical):")
    for ell in range(min(31, len(emp))):
        print(f"  {ell:2d}  {Q[ell, params.L]:.6f}  {emp[ell]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
