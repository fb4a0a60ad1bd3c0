"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/sweep.py --seeds 11-20 --compare perfbench/out/set1.json

Each run is `run.py` in a fresh process, one after another, for the
`run_seconds` that `BENCHMARK.json` sets. For every
workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread, which is the
distance between the quartiles as a share of the median. End-to-end metrics
are marked against their bound: `ok` when the spread is below a third of it,
`WIDE` when above. With `--compare`, it also prints how far each median moved
from the earlier set, as a share of that set's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)

    metrics = END_TO_END if not args.trace else [(*m, None) for m in PER_LAYER]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    result = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            report = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(report)
            print(f"{workload} seed {seed}: " + json.dumps(report), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = {
            name: summary([r["metrics"][name]["value"] for r in runs])
            for name, *_ in metrics
        }
        result[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "metrics": rows,
        }
        print(f"\n{workload}: {len(runs)} runs, {failed}/{attempted} operations failed")
        for name, unit, _better, bound in metrics:
            row = rows[name]
            mark = ""
            if bound is not None:
                mark = "ok" if row["spread"] < bound / 3 else "WIDE"
                mark = f"spread/bound {row['spread'] / bound:.2f} {mark}"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and before["median"]:
                mark += f"  moved {row['median'] / before['median'] - 1:+.3f}"
            print(
                f"  {name:30s} {unit:6s} median {row['median']:.6g}  "
                f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                f"spread {row['spread']:.3f}  {mark}"
            )
        print(flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
