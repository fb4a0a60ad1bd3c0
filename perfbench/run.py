"""Benchmark of scmn: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. The package is imported from
`src/` there, never from an installed copy, and the run fails with exit code 2
before printing a result when that source is missing. All work runs in this
one process and thread, as a closed loop: the next operation starts when the
previous one has returned.

With `--trace 0` the loop runs whole batches of operations until `--seconds`
have passed, with tracing off, and reports the end-to-end metrics. Set-up
time is measured separately in fresh interpreters, see `measure_setup`.
Times are scaled to a reference core speed sampled while they run, see
`corespeed.py`; the unscaled wall times are printed and kept as well.

With `--trace 1` a fixed number of operations runs once untraced and once
under the span tracer, so every count repeats exactly for a given seed, and
the per-layer metrics are reported. The difference of the two wall times is
the tracing overhead.

Human-readable lines come first. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. Each run
also writes its per-operation records, metrics and provenance to
`perfbench/out/`, and a traced run writes its spans there as `.npz`.
"""

from __future__ import annotations

import os

# numpy's BLAS would otherwise start a thread pool at import; the benchmark
# drives the program from one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corespeed import CoreSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("threshold", "curve", "decode-m2", "decode-m6")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# (name, unit, better, bound): the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("op_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# (name, unit, better): the per-layer metrics of a traced run.
PER_LAYER = (
    ("de.run_de.calls", "count", "lower"),
    ("de.sweep.calls", "count", "lower"),
    ("de.sweep.us", "us", "lower"),
    ("de.sweeps_per_run_de", "ratio", "lower"),
    ("de.staged_round.calls", "count", "lower"),
    ("de.staged_round.us", "us", "lower"),
    ("de.staged_rounds_per_point", "ratio", "lower"),
    ("de.fpoly.calls", "count", "lower"),
    ("channel.transfer_poly.calls", "count", "lower"),
    ("channel.transfer_poly.s", "s", "lower"),
    ("channel.s", "s", "lower"),
    ("ensemble.sample_graph.calls", "count", "lower"),
    ("ensemble.sample_graph.s", "s", "lower"),
    ("ensemble.sample_graph.s_p50", "s", "lower"),
    ("ensemble.sample_graph.s_max", "s", "lower"),
    ("sim.decode_trial.calls", "count", "lower"),
    ("sim.decode_trial.s_p50", "s", "lower"),
    ("sim.decode_trial.s_max", "s", "lower"),
    ("sim.rounds", "count", "lower"),
    ("sim.round_ms", "ms", "lower"),
    ("sim.sample_noise.s", "s", "lower"),
    ("sim.table.calls", "count", "lower"),
    ("sim.table.s", "s", "lower"),
    ("sim.detector_messages.calls", "count", "lower"),
    ("sim.tables_built", "count", "lower"),
    ("sim.table_hit_ratio", "ratio", "higher"),
    ("gf2.calls", "count", "lower"),
    ("gf2.s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.named_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def import_program():
    """Import `scmn` from this checkout's `src/` and nowhere else."""
    init = SRC / "scmn" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import scmn

    if Path(scmn.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"scmn imported from {scmn.__file__}, not {init}")
    return scmn


def measure_setup(name: str, seed: int) -> list[dict]:
    """Seconds from process start until the first operation could start.

    Each probe is a fresh interpreter that imports the package and makes the
    workload's first batch of inputs, then prints `ready` and its core-speed
    scale; the time to that line is scaled like an operation, and a probe
    that started a thread or a child process fails. The probes run one after
    another, before the measured loop.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline().split()
            wall = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
            raise ProgramMissing(f"set-up probe failed: {err.strip()[-500:]}")
        times.append({"wall_s": wall, "scaled_s": wall * float(line[1])})
    return times


def run_op(workload, inp):
    """One operation: (result or None, wall seconds, scaled seconds, error).

    An operation that started a thread or a child process fails: its scaled
    time would be wrong, see `corespeed.py`.
    """
    with CoreSpeed() as speed:
        t0 = time.perf_counter()
        try:
            out, error = workload.run(inp), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return out, wall, wall * speed.scale(), error or speed.parallel()


def check(workload, inp, out, error):
    """Reason the operation failed, or None."""
    if error is not None:
        return error
    try:
        return workload.check(inp, out)
    except Exception as exc:  # a malformed result fails its check
        return f"{type(exc).__name__}: {exc}"


def collect(workload, inp, run, results, records) -> None:
    """Check one finished operation and append its result and record."""
    out, wall, scaled, error = run
    reason = check(workload, inp, out, error)
    records.append(
        {
            "input": inp if isinstance(inp, (int, tuple)) else "chi-grid",
            "wall_s": wall,
            "scaled_s": scaled,
            "ok": reason is None,
            "reason": reason,
        }
    )
    if out is not None:
        results.append((inp, out))


def run_loop(workload, inputs, stop):
    """Run operations until `stop(n_done)`; returns (results, records)."""
    results, records = [], []
    while not stop(len(records)):
        inp = next(inputs)
        collect(workload, inp, run_op(workload, inp), results, records)
    return results, records


def measure(workload, seed: int, seconds: float):
    """Whole batches of operations until `seconds` have passed, at least one."""
    deadline = time.perf_counter() + seconds
    batch = workload.batch

    def stop(done):
        return done > 0 and done % batch == 0 and time.perf_counter() >= deadline

    return run_loop(workload, workload.inputs(seed), stop)


def end_to_end(records, setup_times) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_s": statistics.median(r["scaled_s"] for r in records),
        "setup_s": statistics.median(t["scaled_s"] for t in setup_times),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }


def workload_view(workload, records) -> dict:
    """The run in the workload's own terms: its headline figure (threshold_s,
    curve_s or trials_per_s), the unscaled wall time and the failure rate."""
    scaled = [r["scaled_s"] for r in records]
    view = {
        "fail_rate": (sum(not r["ok"] for r in records) / len(records), "ratio"),
        "op_wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
    }
    if workload.name == "threshold":
        view["threshold_s"] = (sum(scaled) / len(scaled), "s")
    elif workload.name == "curve":
        view["curve_s"] = (statistics.median(scaled), "s")
    else:
        view["trials_per_s"] = (len(scaled) / sum(scaled), "1/s")
    return view


def traced(workload, seed: int):
    """The fixed operations of a traced run, untraced first, then traced.

    Both passes give exact counts for the seed. Checks run after the tracer
    is gone, so check code adds no spans.
    """
    from tracing import Tracer, layer_stats

    inputs = workload.inputs(seed)
    ops = [next(inputs) for _ in range(workload.trace_ops)]

    def fixed(done):
        return done == len(ops)

    results, records = run_loop(workload, iter(ops), fixed)
    with Tracer() as tracer:
        runs = [run_op(workload, inp) for inp in ops]
    traced_results = []
    for inp, run in zip(ops, runs):
        collect(workload, inp, run, traced_results, records)
    passes = records[: len(ops)], records[len(ops) :]
    untraced_s, traced_s = (sum(r["scaled_s"] for r in p) for p in passes)
    # Span times are wall times; the traced pass's core-speed scale puts them
    # on the same footing as every other time the benchmark reports.
    scale = traced_s / sum(r["wall_s"] for r in passes[1])
    stats = layer_stats(tracer.spans())
    metrics = per_layer(workload, stats, traced_results, scale)
    named = sum(stats[n][kind] for n, kind in workload.named.items())
    metrics.update(
        {
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
            "trace.named_share": named * scale / traced_s,
            "trace.spans": sum(s["calls"] for s in stats.values()),
        }
    )
    return tracer, results + traced_results, records, metrics


def per_layer(workload, stats, results, scale: float) -> dict:
    """The layer metrics from span statistics; times are multiplied by
    `scale`, the core-speed scale of the traced pass."""

    def calls(name):
        return stats[name]["calls"]

    def seconds(name, kind="s"):
        return stats[name][kind] * scale

    def ratio(num, den):
        return num / den if den else 0.0

    def duration(name, pick):
        d = stats[name]["durations"]
        return float(pick(d)) * scale if len(d) else 0.0

    gf2 = [n for n in stats if n.startswith("gf2.")]
    rounds = workload.rounds(results)
    built = ratio(calls("sim.detector_messages"), workload.table_size)
    return {
        "de.run_de.calls": calls("de.run_de"),
        "de.sweep.calls": calls("de.sweep"),
        "de.sweep.us": 1e6 * ratio(seconds("de.sweep"), calls("de.sweep")),
        "de.sweeps_per_run_de": ratio(calls("de.sweep"), calls("de.run_de")),
        "de.staged_round.calls": calls("de.staged_round"),
        "de.staged_round.us": 1e6
        * ratio(seconds("de.staged_round"), calls("de.staged_round")),
        "de.staged_rounds_per_point": ratio(
            calls("de.staged_round"), workload.points(results)
        ),
        "de.fpoly.calls": calls("de.fpoly"),
        "channel.transfer_poly.calls": calls("channel.transfer_poly"),
        "channel.transfer_poly.s": seconds("channel.transfer_poly")
        + seconds("channel.dimension_distribution"),
        "channel.s": sum(seconds(n) for n in stats if n.startswith("channel.")),
        "ensemble.sample_graph.calls": calls("ensemble.sample_graph"),
        "ensemble.sample_graph.s": seconds("ensemble.sample_graph"),
        "ensemble.sample_graph.s_p50": duration(
            "ensemble.sample_graph", statistics.median
        ),
        "ensemble.sample_graph.s_max": duration("ensemble.sample_graph", max),
        "sim.decode_trial.calls": calls("sim.decode_trial"),
        "sim.decode_trial.s_p50": duration("sim.decode_trial", statistics.median),
        "sim.decode_trial.s_max": duration("sim.decode_trial", max),
        "sim.rounds": rounds,
        "sim.round_ms": 1e3 * ratio(seconds("sim.decode_trial", "self_s"), rounds),
        "sim.sample_noise.s": seconds("sim.sample_noise"),
        "sim.table.calls": calls("sim.table"),
        "sim.table.s": seconds("sim.table"),
        "sim.detector_messages.calls": calls("sim.detector_messages"),
        "sim.tables_built": int(built) if built == int(built) else built,
        "sim.table_hit_ratio": 1.0 - ratio(built, calls("sim.table"))
        if calls("sim.table")
        else 0.0,
        "gf2.calls": sum(calls(n) for n in gf2),
        "gf2.s": sum(seconds(n) for n in gf2),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from `.git`."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scmn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_info() -> dict:
    info = {"model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def provenance(seed: int, load_at_start) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": load_at_start,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        import_program()
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        tracer, results, records, metrics = traced(workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        results, records = measure(workload, args.seed, args.seconds)
        metrics = end_to_end(records, setup_times)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    run_reason = workload.run_check(results)
    failed = sum(not r["ok"] for r in records)
    report = {
        "correct": failed == 0 and run_reason is None,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(args.seed, load_at_start)
    detail = {
        "workload": args.workload,
        "provenance": prov,
        "run_check": run_reason,
        "records": records,
        "setup_probes_s": setup_times,
        **report,
    }
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")
    else:
        detail["view"] = workload_view(workload, records)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['input']}: {r['reason']}")
    if run_reason:
        print(f"FAILED run check: {run_reason}")
    lines = [(k, *v) for k, v in detail.get("view", {}).items()]
    lines += [(k, m["value"], m["unit"]) for k, m in report["metrics"].items()]
    for name, value, unit in lines:
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:32s} {shown} {unit}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
