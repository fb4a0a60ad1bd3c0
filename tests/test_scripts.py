"""Each script in scripts/ runs end to end on a small configuration.

The scripts call the package's public functions and the CLI directly, so a
changed signature or option breaks them without any other test noticing.
They are loaded by path, as `python scripts/<name>.py` would run them.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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

    def fake_threshold(params, kind, m, *, bisect_tol):
        calls.append((params.L, params.w, kind, m, bisect_tol))
        return 0.25

    monkeypatch.setattr(script, "threshold", fake_threshold)
    prefix = tmp_path / "th"
    assert script.run(["--m-max", "1", "--skip-l20", "--out-prefix", str(prefix)]) == 0
    assert calls == [(10, 2, "cd", 1, 1e-5), (10, 2, "bd", 1, 1e-5)]
    assert (tmp_path / "th_L10_w2.csv").read_text() == (
        "m,family,L,w,epsilon_star,bisect_tol\n"
        "1,cd,10,2,0.25,1e-05\n"
        "1,bd,10,2,0.25,1e-05\n"
    )
