import json
import shlex
from pathlib import Path

import pytest

from scmn import cli, de, ensemble
from scmn.cli import build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRate:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys, ["rate", "--dl", "4", "--dr", "2", "--dg", "2", "-L", "10", "-w", "2"]
        )
        assert code == 0
        assert "0.458333333" in out
        assert "11/24" in out

    def test_header_records_config(self, capsys):
        _, out, _ = run_cli(
            capsys, ["rate", "--dl", "4", "--dr", "2", "--dg", "2", "-L", "10", "-w", "2"]
        )
        assert "# command=rate" in out
        assert "# version=" in out
        assert "# seed=0" in out


class TestCapacity:
    def test_bd_value(self, capsys):
        code, out, _ = run_cli(
            capsys, ["capacity", "--channel", "bd", "-m", "3", "--eps", "0.3"]
        )
        assert code == 0
        assert "0.7" in out.splitlines()[-1]

    def test_w_channel_needs_dim(self, capsys):
        code, _, err = run_cli(capsys, ["capacity", "--channel", "w", "-m", "3"])
        assert code == 2
        assert "invalid-config" in err

    def test_w_channel(self, capsys):
        code, out, _ = run_cli(
            capsys, ["capacity", "--channel", "w", "-m", "4", "--dim", "1"]
        )
        assert code == 0
        assert "0.75" in out.splitlines()[-1]

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, ["capacity", "--channel", "cd", "-m", "2", "--eps", "1.5"]
        )
        assert code == 2
        assert "invalid-config" in err


class TestThreshold:
    def test_coarse_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "1",
                "--bisect-tol", "0.002",
            ],
        )
        assert code == 0
        line = out.strip().splitlines()[-1]
        fields = line.split(",")
        eps_star = float(fields[4])
        # heavy termination at L=2 buys rate 0.325, so the threshold sits
        # well above 1/2
        assert 0.5 < eps_star < 0.7

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(de, "MAX_ITER", 3)
        code, _, err = run_cli(
            capsys,
            [
                "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "1",
                "--bisect-tol", "0.01",
            ],
        )
        assert code == 3
        assert "non-convergence" in err

    def test_float_cycle_rows_decide(self, capsys):
        # cd m=15 rows above threshold end in exact float cycles, which
        # count as stalls, so the search ends instead of hitting the cap.
        code, out, _ = run_cli(
            capsys,
            [
                "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "15",
                "--bisect-tol", "0.01",
            ],
        )
        assert code == 0
        assert 0.0 < float(out.strip().splitlines()[-1].split(",")[4]) < 1.0


    @pytest.mark.parametrize(
        "extra",
        [
            ["--tol", "nan", "--bisect-tol", "0.01"],
            ["--bisect-tol", "nan"],
            ["--bisect-tol", "1"],
            ["--bisect-tol", "2"],
            ["--bisect-tol", "1e-17"],
            ["--tol", "inf", "--bisect-tol", "0.01"],
            ["--tol", "1.5", "--bisect-tol", "0.01"],
            ["--max-iter", "0", "--bisect-tol", "0.01"],
            ["--max-iter", "-5", "--bisect-tol", "0.01"],
        ],
    )
    def test_nan_tolerance_rejected(self, capsys, extra):
        argv = [
            "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "2", "-w", "2", "--channel", "cd", "-m", "2", *extra,
        ]
        if extra[0] in ("--tol", "--max-iter"):
            # Not options: DE's success tolerance and sweep cap are the
            # constants de.TOL and de.MAX_ITER, so argparse rejects them.
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert f"unrecognized arguments: {extra[0]} {extra[1]}" in err
        else:
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert "invalid-config" in err
        assert out == ""


class TestExitCurve:
    def test_small_curve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "--chi-max", "0.8", "--chi-min", "0.4", "--chi-step", "0.1",
            ],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "chi,epsilon,h,residual,iterations"
        assert len(lines) >= 4

    def test_grid_stays_inside_range(self, capsys):
        # 0.5 - 5 * 0.1 rounds to 1.1e-16; it lies below --chi-min.
        code, out, _ = run_cli(
            capsys,
            [
                "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "--chi-max", "0.5", "--chi-min", "0.04", "--chi-step", "0.1",
            ],
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == ["0.5", "0.4", "0.3", "0.2", "0.1"]

    def test_h_alt(self, capsys):
        argv = [
            "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "10", "-w", "2", "--channel", "cd", "-m", "2",
            "--chi-step", "0.05",
        ]
        tables = []
        for extra in ([], ["--h-alt"]):
            code, out, _ = run_cli(capsys, argv + extra)
            assert code == 0
            lines = [l for l in out.splitlines() if not l.startswith("#")]
            assert lines[0] == "chi,epsilon,h,residual,iterations"
            tables.append([l.split(",") for l in lines[1:]])
        plain, alt = tables
        assert len(plain) == 19
        # f(z) * z against f(z) * z**dg on the same fixed points, 0 < z < 1
        assert [r[:2] + r[3:] for r in alt] == [r[:2] + r[3:] for r in plain]
        for a, p in zip(alt, plain):
            assert float(p[2]) < float(a[2]) <= 1.0

    @pytest.mark.parametrize(
        "grid",
        [
            ["--chi-step", "0"],
            ["--chi-step", "-0.1"],
            ["--chi-step", "nan"],
            ["--chi-step", "1e-11"],
            ["--chi-max", "0.3", "--chi-min", "0.5"],
            ["--chi-min", "0", "--chi-max", "0.5", "--chi-step", "0.1"],
            ["--chi-max", "1.1"],
        ],
    )
    def test_bad_grid_rejected(self, capsys, grid):
        code, out, err = run_cli(
            capsys,
            [
                "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2", *grid,
            ],
        )
        assert code == 2
        assert "invalid-config" in err
        assert out == ""


    def test_grid_size_bounded_before_allocation(self, capsys, monkeypatch):
        # --chi-step 1e-8 over the default range would be 93,000,001 targets.
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(cli.np, "arange", no_grid)
        code, out, err = run_cli(
            capsys,
            [
                "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "--chi-step", "1e-8",
            ],
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: invalid-config:")
        assert "93000001" in err
        assert out == ""

    @pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
    def test_grid_size_bound_is_exact(self, capsys, monkeypatch, extra, ok):
        # chi_min = 1 - (n - 1) * 2**-17 is exact, so the grid from 1 down to
        # it holds n points.
        traced = []

        def count_targets(params, kind, m, chis, **kwargs):
            traced.append(len(chis))
            return []

        monkeypatch.setattr(cli, "ebp_trace", count_targets)
        n = cli.MAX_CURVE_POINTS + extra
        code, _, err = run_cli(
            capsys,
            [
                "exit-curve", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "--chi-max", "1", "--chi-min", repr(1 - (n - 1) * 2.0**-17),
                "--chi-step", repr(2.0**-17),
            ],
        )
        assert (code, traced) == ((0, [n]) if ok else (2, []))
        assert ok or str(n) in err


@pytest.mark.parametrize("command", ["threshold", "exit-curve"])
def test_de_symbol_width_past_transfer_limit(capsys, command):
    code, out, err = run_cli(
        capsys,
        [
            command, "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "2", "-w", "2", "--channel", "cd", "-m", "16",
        ],
    )
    assert code == 2
    assert "invalid-config" in err
    assert "1..15" in err
    assert out == ""


@pytest.mark.parametrize("command", ["threshold", "exit-curve"])
def test_de_chain_past_window_bound(capsys, command):
    # Its window matrices would take 298 GiB.
    code, out, err = run_cli(
        capsys,
        [
            command, "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "100000", "-w", "2", "--channel", "cd", "-m", "2",
        ],
    )
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: invalid-config:")
    assert str(de.MAX_WINDOW_ENTRIES) in err
    assert out == ""


def test_simulate_graph_past_edge_bound(capsys):
    # Its socket arrays would take hundreds of TiB; the bound is checked
    # before any of them is allocated.
    code, out, err = run_cli(
        capsys,
        [
            "simulate", "--dl", "4", "--dr", "2", "--dg", "2", "-L", "10", "-w", "2",
            "--channel", "cd", "-m", "2", "-M", "1000000000000",
            "--eps-grid", "0.45", "--trials", "1",
        ],
    )
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: invalid-config:")
    assert str(ensemble.MAX_GRAPH_EDGES) in err
    assert out == ""


class TestSimulate:
    def test_csv_schema_and_reproducibility(self, capsys):
        argv = [
            "simulate", "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
            "-M", "24", "--eps-grid", "0.3,0.5", "--trials", "3",
            "--seed", "9",
        ]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        lines = [l for l in out1.splitlines() if not l.startswith("#")]
        assert lines[0] == "epsilon,trials,M,ber_mean,ber_std,seed"
        assert len(lines) == 3
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "simulate", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "-M", "24", "--eps-grid", "0.4", "--trials", "2",
                "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "simulate"
        assert len(doc["rows"]) == 1
        assert set(doc["rows"][0]) == {"epsilon", "trials", "M", "ber_mean", "ber_std", "seed"}

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "simulate", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "-M", "24", "--eps-grid", "0.4", "--trials", "2",
                "--out", str(path),
            ],
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("#")

    @pytest.mark.parametrize("M", ["0", "-4"])
    def test_section_size_below_one(self, capsys, M):
        code, out, err = run_cli(
            capsys,
            [
                "simulate", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
                "-M", M, "--eps-grid", "0.4", "--trials", "1",
            ],
        )
        assert code == 2
        assert f"invalid-config: M must be >= 1, got {M}" in err
        assert out == ""

    def test_symbol_width_past_table_limit(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "simulate", "--dl", "4", "--dr", "2", "--dg", "2",
                "-L", "2", "-w", "2", "--channel", "cd", "-m", "9",
                "-M", "18", "--eps-grid", "0.4", "--trials", "1",
            ],
        )
        assert code == 2
        assert "invalid-config" in err
        assert "1..8" in err


def test_out_into_missing_directory(capsys, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("threshold ran before --out was checked")

    monkeypatch.setattr(cli, "threshold", no_run)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys,
        [
            "threshold", "--dl", "4", "--dr", "2", "--dg", "2",
            "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
            "--out", str(path),
        ],
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: invalid-config: --out {str(path)!r} is not a writable file path"
    ]
    assert not path.parent.exists()


class TestArgErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_channel(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--dl", "4", "--dr", "2", "--dg", "2",
                  "-L", "2", "-w", "2", "--channel", "xx", "-m", "1"])
        assert exc.value.code == 2


ENS = ["--dl", "4", "--dr", "2", "--dg", "2"]
GOLDEN = Path(__file__).parent / "golden"
# Seeded outputs written by the CLI and committed under tests/golden/; any
# change to a result, an RNG stream or the output format shows up here.
GOLDEN_CASES = {
    "threshold_bd3_L4_w3.csv": [
        "threshold", *ENS, "-L", "4", "-w", "3", "--channel", "bd", "-m", "3",
        "--bisect-tol", "1e-4",
    ],
    "threshold_cd2_L10_w2.csv": [
        "threshold", *ENS, "-L", "10", "-w", "2", "--channel", "cd", "-m", "2",
        "--bisect-tol", "1e-3",
    ],
    "exit_curve_cd6_L4_w3.csv": [
        "exit-curve", *ENS, "-L", "4", "-w", "3", "--channel", "cd", "-m", "6",
        "--chi-step", "0.1",
    ],
    "exit_curve_bd4_L6_w4_alt.json": [
        "exit-curve", *ENS, "-L", "6", "-w", "4", "--channel", "bd", "-m", "4",
        "--chi-step", "0.1", "--h-alt", "--format", "json",
    ],
    "simulate_bd6_M48_L4_w2.csv": [
        "simulate", *ENS, "-L", "4", "-w", "2", "--channel", "bd", "-m", "6",
        "-M", "48", "--eps-grid", "0.3,0.45", "--trials", "2", "--seed", "3",
    ],
    "simulate_cd2_M120_L4_w3.json": [
        "simulate", *ENS, "-L", "4", "-w", "3", "--channel", "cd", "-m", "2",
        "-M", "120", "--eps-grid", "0.4,0.5", "--trials", "3", "--seed", "5",
        "--format", "json",
    ],
    "capacity_w4_dim1.csv": ["capacity", "--channel", "w", "-m", "4", "--dim", "1"],
    "rate_L10_w2.csv": ["rate", *ENS, "-L", "10", "-w", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(tmp_path, name):
    out = tmp_path / name
    assert main([*GOLDEN_CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def readme_cli_examples() -> list[list[str]]:
    """argv of each `scmn ...` line in README's CLI block, continuations joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("scmn ")]


def test_readme_examples_parse():
    examples = readme_cli_examples()
    assert {argv[0] for argv in examples} == {
        "capacity", "rate", "threshold", "exit-curve", "simulate",
    }
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)  # exits 2 on a flag the CLI does not take


# One cheap command line per subcommand, for checks made before any command runs.
COMMANDS = {
    "capacity": ["capacity", "--channel", "cd", "-m", "2", "--eps", "0.3"],
    "rate": ["rate", *ENS, "-L", "2", "-w", "2"],
    "threshold": ["threshold", *ENS, "-L", "2", "-w", "2", "--channel", "cd", "-m", "2"],
    "exit-curve": ["exit-curve", *ENS, "-L", "2", "-w", "2", "--channel", "cd", "-m", "2"],
    "simulate": [
        "simulate", *ENS, "-L", "2", "-w", "2", "--channel", "cd", "-m", "2",
        "-M", "8", "--eps-grid", "0.4", "--trials", "1",
    ],
}


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_seed_outside_u64_rejected(capsys, monkeypatch, command, seed):
    def no_run(args):
        raise AssertionError(f"{command} ran before --seed was checked")

    for name in ("capacity", "rate", "threshold", "exit_curve", "simulate"):
        monkeypatch.setattr(cli, f"_cmd_{name}", no_run)
    code, out, err = run_cli(capsys, [*COMMANDS[command], "--seed", str(seed)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: invalid-config: --seed must be in [0, 2^64), got {seed}"
    ]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_accepted(capsys, seed):
    code, out, _ = run_cli(capsys, [*COMMANDS["rate"], "--seed", str(seed)])
    assert code == 0
    assert f"# seed={seed}" in out.splitlines()
    code, out, _ = run_cli(capsys, [*COMMANDS["simulate"], "--seed", str(seed)])
    assert code == 0
    assert out.splitlines()[-1].endswith(f",{seed}")
