"""Each script in scripts/ runs end to end on a small configuration.

The scripts call the package's public functions and the CLI directly, so a
changed signature or option breaks them without any other test noticing.
They are loaded by path, as `python scripts/<name>.py` would run them.
"""

import contextlib
import hashlib
import importlib.util
import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from scmn.de import ConvergenceError, CurvePoint, DeState
from test_acceptance import REF_L10_W2

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# scripts/threshold_battery.py's digest: every ε* of its 64 cells.
BATTERY_DIGEST = "dfc459a9edc09e0cb3c499ba339ad2114af18896e6404fa28c266f4b1bcea838"
# scripts/curve_battery.py's digest: every point of its 25 curves.
CURVE_BATTERY_DIGEST = "a2a7bffe6d4bd5df64554560ca29c379c1789e4321a601847033053daa57922f"
# scripts/decode_battery.py's digest: every graph and result of its 214 trials.
DECODE_BATTERY_DIGEST = "3d65e70e5380c6369191ef98926d351a8ccaf602b77c847f897a376376a27d16"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_exit_curves(tmp_path):
    script = load_script("trace_exit_curves")
    prefix = tmp_path / "curve"
    assert script.run(["--m-max", "1", "--chi-step", "0.3", "--out-prefix", str(prefix)]) == 0
    for L, w in ((10, 2), (20, 3)):
        lines = (tmp_path / f"curve_cd_m1_L{L}_w{w}.csv").read_text().splitlines()
        assert "# command=exit-curve" in lines
        assert "chi,epsilon,h,residual,iterations" in lines


def test_simulate_finite_codes(capsys):
    script = load_script("simulate_finite_codes")
    assert script.run(["-M", "8", "--trials", "1", "--eps", "0.4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "eps,ber_mean,ber_std,fully_decoded,trials"
    assert out[1].startswith("0.4000,")
    # The centre-section trajectory, DE beside empirical, from all-erased.
    start = out.index("center-section erasure trajectory at eps=0.4 (DE vs empirical):")
    assert out[start + 1].split() == ["0", "1.000000", "1.000000"]


def test_reproduce_thresholds(tmp_path, monkeypatch):
    # A real m = 1 cell runs about 775,000 sweeps at its first midpoint.
    script = load_script("reproduce_thresholds")
    calls = []

    def fake_thresholds(params, cells, *, bisect_tol):
        calls.append((params.L, params.w, cells, bisect_tol))
        return {cell: 0.25 for cell in cells}

    monkeypatch.setattr(script, "thresholds", fake_thresholds)
    prefix = tmp_path / "th"
    assert script.run(["--m-max", "1", "--skip-l20", "--out-prefix", str(prefix)]) == 0
    assert calls == [(10, 2, [("cd", 1), ("bd", 1)], 1e-5)]
    assert (tmp_path / "th_L10_w2.csv").read_text() == (
        "m,family,L,w,epsilon_star,bisect_tol\n"
        "1,cd,10,2,0.25,1e-05\n"
        "1,bd,10,2,0.25,1e-05\n"
    )


def test_reproduce_thresholds_writes_answered_cells(tmp_path, monkeypatch, capsys):
    # A capped cell: the cells that answered are written, the capped one is
    # named, and the script stops with exit code 3.
    script = load_script("reproduce_thresholds")

    def fake_thresholds(params, cells, *, bisect_tol):
        err = ConvergenceError("DE hit the 10-sweep cap for bd m=1 at parameter 0.5; "
                               "bracket inconclusive")
        err.eps_star.update({("cd", 1): 0.25})
        raise err

    monkeypatch.setattr(script, "thresholds", fake_thresholds)
    prefix = tmp_path / "th"
    assert script.run(["--m-max", "1", "--out-prefix", str(prefix)]) == 3
    assert (tmp_path / "th_L10_w2.csv").read_text() == (
        "m,family,L,w,epsilon_star,bisect_tol\n"
        "1,cd,10,2,0.25,1e-05\n"
    )
    assert not (tmp_path / "th_L20_w3.csv").exists()
    assert "cap for bd m=1 at parameter 0.5;" in capsys.readouterr().err


def test_threshold_battery(monkeypatch, capsys):
    # A real battery takes minutes; the fake gives each cell its own value.
    script = load_script("threshold_battery")
    calls = []

    def cell_value(L, w, kind, m, bisect_tol):
        return L / 64 + w / 128 + m / 1024 + bisect_tol + (kind == "bd") / 2

    def fake_thresholds(params, cells, *, bisect_tol):
        calls.append((params.L, params.w, bisect_tol))
        return {(kind, m): cell_value(params.L, params.w, kind, m, bisect_tol) for kind, m in cells}

    monkeypatch.setattr(script, "thresholds", fake_thresholds)
    assert script.run([]) == 0
    # One call per (L, w, bisect_tol), each over all eight cells.
    assert calls == [
        (L, w, bisect_tol)
        for L, w in ((4, 2), (4, 3), (6, 4), (10, 2))
        for bisect_tol in (1e-3, 1e-4)
    ]
    values = [
        cell_value(L, w, kind, m, bisect_tol)
        for L, w in ((4, 2), (4, 3), (6, 4), (10, 2))
        for kind in ("cd", "bd")
        for m in (1, 2, 3, 6)
        for bisect_tol in (1e-3, 1e-4)
    ]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65
    assert lines[0] == f"L=4 w=2 cd m=1 bisect_tol=0.001 {values[0].hex()}"
    assert [float.fromhex(line.split()[-1]) for line in lines[:-1]] == values
    digest = hashlib.sha256(struct.pack("<64d", *values)).hexdigest()
    assert lines[-1] == f"sha256 {digest}"


def test_threshold_battery_digest(capsys):
    # The real battery, about 5 s: every one of its 64 ε* to the bit.
    assert load_script("threshold_battery").run([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"sha256 {BATTERY_DIGEST}"


def test_curve_battery(monkeypatch, capsys):
    # A real battery takes seconds; the fake gives each curve two points of
    # its own, and none to the L=6/w=3 bd m=15 curve.
    script = load_script("curve_battery")
    calls, traced = [], []

    def fake_trace(params, kind, m, chis, *, alternative=False):
        calls.append((params.L, params.w, kind, m, alternative, tuple(chis)))
        if (params.L, params.w, kind, m) == (6, 3, "bd", 15):
            return []
        tag = params.L / 64 + params.w / 128 + m / 1024 + (kind == "bd") / 2 + alternative / 4
        n = params.n_sections
        points = [
            CurvePoint(
                epsilon=tag + k / 8,
                h=tag / 2,
                chi=chi,
                state=DeState(L=params.L, p=np.full(n, tag), q=np.zeros(n), epsilon=tag + k / 8),
                residual=tag / 1e9,
                rounds=k + 1,
            )
            for k, chi in enumerate(chis[:2])
        ]
        traced.extend(points)
        return points

    monkeypatch.setattr(script, "ebp_trace", fake_trace)
    assert script.run([]) == 0
    grid = tuple(round(0.9 - 0.05 * k, 2) for k in range(18))
    assert grid[-1] == 0.05
    assert calls == [
        (L, w, kind, m, False, grid)
        for L, w in ((4, 2), (6, 3), (20, 3))
        for kind in ("cd", "bd")
        for m in (1, 2, 6, 15)
    ] + [(6, 3, "cd", 2, True, grid)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(traced) + 1 == 2 * 24 + 1
    pt = traced[0]
    assert lines[0] == (
        f"L=4 w=2 cd m=1 alternative=False chi={0.9.hex()} "
        f"{pt.epsilon.hex()} {pt.h.hex()} {pt.residual.hex()} rounds=1"
    )
    assert lines[-2].startswith("L=6 w=3 cd m=2 alternative=True chi=")
    digest = hashlib.sha256()
    for pt in traced:
        digest.update(struct.pack("<3dq", pt.epsilon, pt.h, pt.residual, pt.rounds))
        digest.update(pt.state.p.tobytes() + pt.state.q.tobytes())
    assert lines[-1] == f"sha256 {digest.hexdigest()}"


def test_curve_battery_digest(capsys):
    # The real battery, about 8 s: every point of its 25 curves to the bit.
    assert load_script("curve_battery").run([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"sha256 {CURVE_BATTERY_DIGEST}"


def test_threshold_work(capsys):
    # The `threshold` benchmark cells, about 4 s. Each cell tries one
    # certificate, which certifies, and each row-sweep count is pinned
    # from above: before the walk read its decisions closed under
    # monotonicity, cd m=2 ran 15 rows for 201,676 row-sweeps and bd m=4 12
    # rows for 113,822, with 2 and 5 certificates.
    assert load_script("threshold_work").run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, cell, eps_star, most in zip(
        lines,
        ("cd m=2", "bd m=4"),
        ("0x1.ff7f000000000p-2", "0x1.fed3000000000p-2"),
        (65_000, 48_000),
    ):
        words = line.split()
        assert " ".join(words[:2]) == cell and words[3] == eps_star
        counts = {words[i]: int(words[i + 1]) for i in (4, 6, 10, 12)}
        certified = int(words[8].lstrip("("))
        assert counts["rows"] >= 1 and counts["certificates"] == certified == 1
        assert counts["sweeps"] <= counts["row-sweeps"] <= most


def test_sweep_cost(monkeypatch, capsys):
    # One block per case, once: the line format only, never a time.
    script = load_script("sweep_cost")
    monkeypatch.setattr(script, "RUNS", 1)
    monkeypatch.setattr(script, "BLOCKS", 1)
    assert script.run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    floats = [
        rf"float L={L}/w={w} rows {r}: \d+\.\d\d us per sweep" for L, w, r in script.FLOAT_CASES
    ]
    exact = [rf"exact L={L}/w={w} cd m=6: \d+\.\d\d ms per sweep" for L, w in script.EXACT_CASES]
    assert script.FLOAT_CASES == ((10, 2, 1), (10, 2, 3), (10, 2, 11), (40, 5, 30))
    assert len(lines) == len(floats + exact) == 6
    for line, pattern in zip(lines, floats + exact):
        assert re.fullmatch(pattern, line), line


def test_decode_cost(monkeypatch, capsys):
    # One trial per case, once: the line format and table counts only,
    # never a time.
    script = load_script("decode_cost")
    monkeypatch.setattr(script, "RUNS", 1)
    monkeypatch.setattr(script, "TRIALS", dict.fromkeys(script.CASES, 1))
    assert script.run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert script.CASES == ((6, 48), (2, 2000))
    assert len(lines) == 2
    ms = r"\d+\.\d{3}"
    for line, (m, M) in zip(lines, script.CASES):
        pattern = (
            rf"m={m} M={M}: sample_graph {ms}, noise {ms}, tables {ms}, rounds {ms}, "
            rf"trial {ms} ms per trial; (\d+\.\d) tables per trial"
        )
        match = re.fullmatch(pattern, line)
        assert match, line
        # every subspace of F_2^2 at m=2; the distinct drawn ones at m=6
        tables = float(match[1])
        assert tables == 5.0 if m == 2 else 100 < tables <= 21 * M // m


@pytest.fixture(scope="module")
def curve_cost_line():
    # scripts/curve_cost.py's line for one run of the `curve` benchmark
    # trace, about 1 s, shared by the two tests below.
    script = load_script("curve_cost")
    script.RUNS = 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.run([]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    ms = r"\d+\.\d"
    pattern = (
        rf"cd m=6 L=20/w=3: fpoly rows {ms}, map builds {ms}, detector calls {ms}, "
        rf"rest -?{ms}, trace {ms} ms per trace; "
        r"(\d+) fpoly rows, (\d+) map builds, (\d+) detector calls of (\d+) rows, "
        r"(\d+) bisections from \[0, 1\]"
    )
    match = re.fullmatch(pattern, lines[0])
    assert match, lines[0]
    return [int(n) for n in match.groups()]


def test_curve_cost(curve_cost_line):
    # The line format and call counts only, never a time: fpoly builds the
    # rows of every detector-half call.
    fpoly_calls, _, calls, _, _ = curve_cost_line
    assert fpoly_calls == calls


def test_curve_work(curve_cost_line):
    # The trace's counts. Its rounds (one map build each) are fixed by the
    # points; its detector-half calls, rows and bisections from [0, 1] are
    # pinned from above, so a change that gives back the lookahead's saving
    # (7,383 calls of 24,672 rows before it, 5,141 of 25,796 with it) or
    # the predictor's and depth 36's (5,074 calls of 17,379 rows with them,
    # 378 of the 536 bisections from [0, 1] left) fails here.
    _, rounds, calls, rows, cold = curve_cost_line
    assert rounds == 1356
    assert calls <= 5141
    assert rows <= 18000
    assert cold <= 400


def test_decode_battery_digest(capsys):
    # The real battery, about 5 s: every sampled graph and trial result of
    # its 214 trials to the bit.
    assert load_script("decode_battery").run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 215
    assert lines[0].startswith("(4,2,2) L=10 w=2 M=2000 cd m=2 eps=0.45 seed=(2000, 1, 0) ")
    assert lines[-1] == f"sha256 {DECODE_BATTERY_DIGEST}"


def test_threshold_table(monkeypatch, capsys):
    # A real table takes about 70 s. The fakes cap both m = 1 cells, which
    # makes the script exit with code 3, put every other ε* 1e-7 above its
    # reference and every fold 2e-7 below it, and find no fold for bd m=6.
    script = load_script("threshold_table")
    assert script.REFERENCE == REF_L10_W2
    calls = []
    errors = [f"DE hit the 2000000-sweep cap for {kind} m=1 at parameter 0.5" for kind in ("cd", "bd")]

    def fake_thresholds(params, cells, *, bisect_tol):
        calls.append((params.L, params.w, cells, bisect_tol))
        err = ConvergenceError("; ".join(errors) + "; bracket inconclusive")
        err.eps_star.update({cell: REF_L10_W2[cell] + 1e-7 for cell in cells if cell[1] > 1})
        raise err

    def fake_fold(params, kind, m):
        return None if (kind, m) == ("bd", 6) else REF_L10_W2[kind, m] - 2e-7

    monkeypatch.setattr(script, "thresholds", fake_thresholds)
    monkeypatch.setattr(script, "fold", fake_fold)
    assert script.run([]) == 3
    assert calls == [(10, 2, list(REF_L10_W2), 1e-8)]
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["cell", "eps*", "fold", "reference", "eps*-ref", "fold-ref"]
    assert lines[1] == ["cd", "m=1", "-", "0.4999850700", "0.49998527", "-", "-2.0e-07"]
    assert lines[2] == ["cd", "m=2", "0.4995091000", "0.4995088000", "0.49950900", "+1.0e-07", "-2.0e-07"]
    assert lines[12] == ["bd", "m=6", "0.4959686100", "-", "0.49596851", "+1.0e-07", "-"]
    assert [" ".join(line) for line in lines[13:]] == errors
    # With every cell answered, the script exits 0.
    monkeypatch.setattr(script, "thresholds", lambda params, cells, *, bisect_tol: REF_L10_W2)
    assert script.run([]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 13
