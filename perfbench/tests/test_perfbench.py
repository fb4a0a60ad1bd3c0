"""Tests of the benchmark itself: every workload runs at its smallest size and
passes its check, a perturbed result fails it, failures are counted, and the
tracer leaves the package as it found it.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import corespeed
import run
import tracing
import workloads
from scmn import de
from scmn.sim import DecodingFaultError

ROOT = Path(run.__file__).resolve().parents[1]


def one_op(name, inp):
    w = workloads.WORKLOADS[name]
    out, _wall, _scaled, error = run.run_op(w, inp)
    reason = run.check(w, inp, out, error)
    assert reason is None, reason
    return w, out


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.fixture(scope="module")
def threshold_bd4():
    return one_op("threshold", ("bd", 4))


def test_threshold_cell_passes_and_shift_fails(threshold_bd4):
    w, value = threshold_bd4
    assert w.check(("bd", 4), value) is None
    assert w.check(("bd", 4), value + 1e-4) is not None
    assert w.check(("bd", 4), value - 1e-4) is not None


def test_curve_passes_and_missing_point_fails():
    w = workloads.WORKLOADS["curve"]
    grid = next(w.inputs(0))
    _, points = one_op("curve", grid)
    assert len(points) == workloads.CURVE_POINTS
    assert w.check(grid, points[:40] + points[41:]) is not None


def test_decode_m2_trial_passes_and_shifted_trajectory_fails():
    w = workloads.WORKLOADS["decode-m2"]
    seed = next(w.inputs(3))
    _, row = one_op("decode-m2", seed)
    assert w.run_check([(seed, row)]) is None
    shifted = dataclasses.replace(
        row, q_trajectory_mean=tuple(min(1.0, q + 0.05) for q in row.q_trajectory_mean)
    )
    assert w.check(seed, shifted) is not None
    assert w.run_check([(seed, row), (seed, shifted)]) is not None


def test_decode_m6_trial_matches_its_pin_and_a_changed_pin_fails():
    w = workloads.WORKLOADS["decode-m6"]
    seed = next(w.inputs(0))
    _, row = one_op("decode-m6", seed)
    shifted = dataclasses.replace(row, ber_mean=row.ber_mean + 1e-12)
    assert w.check(seed, shifted) is not None
    shorter = dataclasses.replace(row, q_trajectory_mean=row.q_trajectory_mean[:-1])
    assert w.check(seed, shorter) is not None


class Faulty(workloads.Workload):
    """Raises like a broken decoder on odd inputs."""

    def run(self, inp):
        if inp % 2:
            raise DecodingFaultError("known message reverted to erased")
        return inp

    def check(self, inp, out):
        return None


def test_raising_operation_counts_as_failed():
    results, records = run.run_loop(Faulty(), iter(range(4)), lambda done: done == 4)
    assert [r["ok"] for r in records] == [True, False, True, False]
    assert "DecodingFaultError" in records[1]["reason"]
    assert [inp for inp, _ in results] == [0, 2]


class Parallel(workloads.Workload):
    """Does its work in a thread or a child process, as an optimisation might."""

    def run(self, how):
        if how == "thread":
            worker = threading.Thread(target=time.sleep, args=(0.1,))
            worker.start()
            worker.join()
        elif how == "process":
            subprocess.run([sys.executable, "-c", "sum(range(10**7))"], check=True)
        return how

    def check(self, how, out):
        return None


@pytest.mark.parametrize("how", ["thread", "process"])
def test_operation_that_leaves_one_thread_fails(how):
    _results, records = run.run_loop(Parallel(), iter(["serial", how]), lambda d: d == 2)
    assert records[0]["ok"]
    assert not records[1]["ok"]
    assert "assumes one thread" in records[1]["reason"]


def attributes():
    return {
        (module, path): vars(owner)[attr]
        for _, module, path in tracing.TARGETS
        for owner, attr in [tracing.resolve(module, path)]
    }


def coarse_threshold():
    return de.threshold(workloads.P10W2, "cd", 2, bisect_tol=0.05)


def test_tracer_restores_every_attribute():
    before = attributes()
    with tracing.Tracer():
        assert attributes() != before
        coarse_threshold()
    assert attributes() == before
    with pytest.raises(RuntimeError), tracing.Tracer():
        raise RuntimeError("traced run failed")
    assert attributes() == before


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            coarse_threshold()
        stats = tracing.layer_stats(tracer.spans())
        counts.append({name: s["calls"] for name, s in stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["de.threshold"] == 1
    assert counts[0]["de.run_de"] > 0 and counts[0]["de.sweep"] > counts[0]["de.run_de"]


def test_self_time_subtracts_direct_children():
    spans = {
        "names": ["a", "b"],
        "name_id": [0, 1, 1, 0],
        "parent": [-1, 0, 1, -1],
        "start": [0, 1_000_000_000, 1_500_000_000, 10_000_000_000],
        "end": [4_000_000_000, 3_000_000_000, 2_000_000_000, 11_000_000_000],
    }
    stats = tracing.layer_stats({k: np.array(v) for k, v in spans.items()})
    assert stats["a"]["calls"] == 2 and stats["a"]["s"] == 5.0
    assert stats["a"]["self_s"] == 3.0
    assert stats["b"]["s"] == 2.5 and stats["b"]["self_s"] == 2.0


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_run_prints_every_end_to_end_metric_last():
    proc = bench(ROOT, "--workload", "decode-m2", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["attempted"] == 1 and report["failed"] == 0
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        name: unit for name, unit, _, _ in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in report["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(tmp_path, "--workload", "curve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_core_speed_scale_and_restore():
    previous = signal.getsignal(signal.SIGALRM)
    with corespeed.CoreSpeed() as speed:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            corespeed.probe()
    assert len(speed.samples) > 2
    assert speed.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
