"""Summarises a span file written by a traced run.

    python3 perfbench/spans.py perfbench/out/threshold-seed1-trace1-spans.npz

Prints, for every span name, the calls, total and self seconds and the share
of the traced wall time; then, for every pair of enclosing and enclosed span
names, how many enclosed calls each enclosing call made (mean and maximum),
for example the sweeps each `run_de` decision took.
"""

from __future__ import annotations

import sys

import numpy as np

from tracing import layer_stats


def main(path: str) -> int:
    with np.load(path) as f:
        spans = {k: f[k] for k in f.files}
    names = [str(n) for n in spans["names"]]
    stats = layer_stats(spans)
    roots = spans["parent"] < 0
    wall = float((spans["end"][roots] - spans["start"][roots]).sum()) / 1e9
    print(f"{path}: {len(spans['end'])} spans, {wall:.3f} s in root spans")
    print(f"  {'span':32s} {'calls':>9s} {'total s':>10s} {'self s':>10s} {'self %':>7s}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if s["calls"]:
            share = 100 * s["self_s"] / wall
            print(
                f"  {name:32s} {s['calls']:9d} {s['s']:10.4f} {s['self_s']:10.4f} {share:6.2f}%"
            )
    parent = spans["parent"]
    nested = np.flatnonzero(parent >= 0)
    print(f"\n  {'enclosing -> enclosed':52s} {'per call':>9s} {'max':>7s}")
    for pid in np.unique(spans["name_id"][parent[nested]]):
        outer = np.flatnonzero(spans["name_id"] == pid)
        inner = nested[spans["name_id"][parent[nested]] == pid]
        for cid in np.unique(spans["name_id"][inner]):
            per = np.bincount(
                parent[inner[spans["name_id"][inner] == cid]], minlength=len(parent)
            )[outer]
            label = f"{names[pid]} -> {names[cid]}"
            print(f"  {label:52s} {per.mean():9.1f} {per.max():7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
