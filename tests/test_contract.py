"""The input contract of the public API and the CLI.

A call either raises ValueError or returns, bit for bit, what it returns for
the canonical Python value of its arguments: an int for an integer (a
Python or numpy int, or a 0-d integer array, never a bool), a Fraction or a
float for a real number (a Fraction stays exact, anything else becomes the
float of its value). An argument with no canonical value, such as a string,
None, an array that is not 0-d or a complex number, raises ValueError.

Each test draws one argument of one public function from a pool of odd
values and holds the others at small valid values (L <= 2, M <= 16,
m <= 4), so that a call takes milliseconds. Warnings are errors here, so a
numpy overflow warning (a RuntimeWarning) fails the test too.
"""

import contextlib
import dataclasses
import io
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmn import cli, gf2
from scmn.channel import (
    ChannelFamily,
    DimensionDistribution,
    capacity,
    dimension_distribution,
    dimension_law,
)
from scmn.de import (
    DensityEvolution,
    DeState,
    ebp_trace,
    fold,
    run_de,
    threshold,
    thresholds,
    trajectory,
)
from scmn.ensemble import EnsembleParams, design_rate, design_rate_exact, sample_graph
from scmn.sim import decode_trial, run_experiment

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

P = EnsembleParams(4, 2, 2, 1, 2)
N = P.n_sections
CD2 = ChannelFamily("cd", 2, 0.3)

ints = st.integers(-3, 20)
reals = st.floats(-0.5, 1.5)
scalars = st.one_of(
    ints,
    ints.map(np.int64),
    st.integers(0, 20).map(np.uint8),
    ints.map(float),
    st.booleans(),
    st.booleans().map(np.bool_),
    reals,
    reals.map(np.float64),
    reals.map(np.float32),
    st.fractions(-1, 2, max_denominator=12),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 2**70, 1j]),
    st.text(max_size=3),
    st.sampled_from(["0.3", "2", b"1"]),
    st.none(),
)
# Scalars, 0-d arrays, lists (the empty one too), and 1-d and 2-d arrays.
values = st.one_of(
    scalars,
    scalars.map(np.array),
    st.lists(scalars, max_size=3),
    st.lists(reals, min_size=1, max_size=3).map(np.array),
    st.lists(reals, min_size=1, max_size=2).map(lambda v: np.array([v, v])),
    st.sampled_from([(), np.array([])]),
)
# Values but real numbers in (0, 1e-3): a bisection to 2**-52 would take seconds.
coarse = values.filter(lambda v: not 0 < (as_real(v) or 0) < 1e-3)


def as_int(v):
    """The int that v stands for, or None."""
    if isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind in "iu":
        v = v.item()
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
        return None
    return int(v)


def as_real(v):
    """The Fraction or float that v stands for, or None."""
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v.item()
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, float, Fraction, np.number)):
        return None
    if isinstance(v, complex):
        return None
    return v if isinstance(v, Fraction) else float(v)


def as_dim(v):
    """The dimension of channel "w" that v stands for: an integral float
    counts, as DE builds f at the float of a parameter."""
    return int(v) if isinstance(v, float) and v.is_integer() else as_int(v)


def as_list(v, each):
    """The list of each(entry) of a 1-D sequence v, or None."""
    if isinstance(v, np.ndarray):
        v = v.tolist() if v.ndim == 1 else None
    if not isinstance(v, (list, tuple)):
        return None
    out = [each(e) for e in v]
    return None if None in out else out


def same(a, b) -> bool:
    """a and b agree bit for bit, down to the types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        return same(a.tolist(), b.tolist()) if a.dtype == object else a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


def holds(call, raw, canonical):
    """call(raw) raises ValueError, or gives call(canonical) bit for bit; a
    raw value without a canonical one (None) must raise."""
    try:
        got = call(raw)
    except ValueError:
        return
    assert canonical is not None, f"{raw!r} was accepted"
    assert same(got, call(canonical)), f"{raw!r} and {canonical!r} differ"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["dl", "dr", "dg", "L", "w"]), values)
def test_ensemble_params(name, v):
    def call(x):
        params = EnsembleParams(**{"dl": 4, "dr": 2, "dg": 2, "L": 1, "w": 2, name: x})
        return params, design_rate_exact(params), design_rate(params)

    holds(call, v, as_int(v))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cd", "bd", "w"]), st.booleans(), values)
def test_channel(kind, vary_m, v):
    def law(m, parameter):
        family = ChannelFamily(kind, m, parameter)
        dist = dimension_distribution(family)
        return family, dimension_law(kind, m, parameter), dist, capacity(dist)

    if vary_m:
        holds(lambda x: law(x, 1), v, as_int(v))
    else:
        holds(lambda x: law(4, x), v, as_dim(v) if kind == "w" else as_real(v))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), values)
def test_dimension_distribution(vary_m, v):
    if vary_m:
        holds(lambda x: DimensionDistribution(x, (0.5, 0.5)), v, as_int(v))
    else:
        holds(lambda x: capacity(DimensionDistribution(2, (0.5, x, 0.5))), v, as_real(v))


@settings(max_examples=80, deadline=None)
@given(st.booleans(), values)
def test_sample_graph(vary_M, v):
    def call(x):
        M, m = (x, 2) if vary_M else (8, x)
        return sample_graph(P, M, m, np.random.default_rng(0))

    holds(call, v, as_int(v))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["cd", "bd", "w"]), st.booleans(), values)
def test_operator_and_fpoly(kind, vary_m, v):
    if vary_m:
        holds(lambda x: DensityEvolution(P, kind, x).fpoly(1), v, as_int(v))
        return
    dev = DensityEvolution(P, kind, 3)
    each = as_dim if kind == "w" else as_real
    scalar = not isinstance(v, (list, tuple)) and np.ndim(v) == 0
    holds(dev.fpoly, v, each(v) if scalar else as_list(v, each))


# fpoly takes a list of floats in [0, 1] for cd and bd without its checks;
# one odd entry anywhere in the list sends the whole list through them.
ODD_ROWS = [float("nan"), True, 1.5, -0.5, "0.3", None, np.array(0.25), Fraction(1, 4)]


def as_row(kind: str, m: int):
    """The canonical value of one fpoly row of (kind, m), or None: a
    dimension in 0..m for "w", a real number in [0, 1] otherwise."""

    def each(v):
        c = as_dim(v) if kind == "w" else as_real(v)
        return c if c is not None and 0 <= c <= (m if kind == "w" else 1) else None

    return each


@pytest.mark.parametrize("kind", ["cd", "bd", "w"])
@pytest.mark.parametrize("odd", ODD_ROWS, ids=repr)
def test_fpoly_rows_with_one_odd_entry(kind, odd):
    dev = DensityEvolution(P, kind, 3)
    # Kind "w" makes its integral floats ints.
    good = [0.0, 1.0] if kind == "w" else [0.0, 0.75, 1.0]
    for raw in [good, *([*good[:at], odd, *good[at:]] for at in range(len(good) + 1))]:
        holds(dev.fpoly, raw, as_list(raw, as_row(kind, 3)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["cd", "bd"]), st.lists(st.floats(0, 1), max_size=4), st.integers(0, 4), scalars)
def test_fpoly_float_rows_with_one_odd_scalar(kind, good, at, odd):
    dev = DensityEvolution(P, kind, 3)
    raw = [*good[:at], odd, *good[at:]]
    holds(dev.fpoly, raw, as_list(raw, as_row(kind, 3)))


@pytest.mark.parametrize("kind", ["cd", "bd"])
def test_fpoly_negative_zero_row(kind):
    # -0.0 lies in [0, 1] and is its own canonical value: a list of floats
    # gives its row the bits that the checked path (numpy float64 entries,
    # each made a float) gives it, sign bits included.
    dev = DensityEvolution(P, kind, 3)
    for eps in ([-0.0], [0.3, -0.0], [-0.0, 0.5, 1.0]):
        assert same(dev.fpoly(eps), dev.fpoly(np.array(eps)))
        assert same(dev.fpoly(eps)[eps.index(-0.0)], dev.fpoly(np.float64(-0.0)))


@pytest.mark.parametrize("family", [("cd", 2, 0.3), None, "cd", 0.3, [CD2, None], (None,)], ids=repr)
def test_family_must_be_a_channel_family(family):
    # A family that is not a ChannelFamily (run_de also takes a sequence
    # of them) raises ValueError, not AttributeError.
    for call in (
        lambda: run_de(P, family),
        lambda: trajectory(P, family, 3),
        lambda: decode_trial(P, 8, family, 1),
    ):
        with pytest.raises(ValueError, match="ChannelFamily"):
            call()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), values)
def test_family_from_the_pool(which, v):
    calls = [
        lambda x: run_de(P, x),
        lambda x: trajectory(P, x, 3),
        lambda x: decode_trial(P, 8, x, 1),
    ]
    holds(calls[which], v, None)


def as_epsilon(v):
    """DeState's epsilon that v stands for: an int (kind "w"'s dimension),
    else a real number."""
    return as_int(v) if as_int(v) is not None else as_real(v)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["L", "epsilon", "iterations"]), values)
def test_de_state(name, v):
    def call(x):
        a = {"L": 1, "epsilon": 0.3, "iterations": 2, name: x}
        L = as_int(a["L"])
        n = 2 * L + 1 if L is not None and 0 <= L <= 20 else 3
        return DeState(p=np.full(n, 0.5), q=np.full(n, 0.25), **a)

    holds(call, v, as_epsilon(v) if name == "epsilon" else as_int(v))


def test_de_state_fields():
    ones = np.ones(3)
    for bad in ({"L": True}, {"epsilon": "x"}, {"iterations": 2.5}, {"epsilon": 1.5}, {"iterations": -1}):
        with pytest.raises(ValueError):
            DeState(**{"L": 1, "p": ones, "q": ones, "epsilon": 0.5, "iterations": 2, **bad})
    state = DeState(L=np.int64(1), p=ones, q=ones, epsilon=Fraction(1, 3), iterations=np.array(2))
    assert same((state.L, state.epsilon, state.iterations), (1, Fraction(1, 3), 2))
    # Kind "w"'s parameter is a dimension: run_de keeps it as the int.
    assert same(run_de(P, ChannelFamily("w", 4, 2)).state.epsilon, 2)


floats01 = st.lists(st.floats(0, 1), min_size=N, max_size=N)
states = st.one_of(
    floats01,
    floats01.map(np.array),
    floats01.map(lambda v: np.array([Fraction(x) for x in v], dtype=object)),
    floats01.map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(0, 1), min_size=N, max_size=N),
    st.lists(st.booleans(), min_size=N, max_size=N).map(np.array),
    st.lists(st.sampled_from(["0.5", "1"]), min_size=N, max_size=N),
    st.lists(st.floats(0, 1), min_size=N - 1, max_size=N - 1),
    st.sampled_from([0.5, None, []]),
)


def as_state(v):
    """A state's canonical rates: float64 or Fractions in an array, or None."""
    if isinstance(v, np.ndarray) and v.dtype in (np.float64, object):
        return v
    if isinstance(v, list) and v and all(type(x) is float for x in v):
        return np.array(v)
    return None


@settings(max_examples=80, deadline=None)
@given(states, states, st.booleans())
def test_sweep(p, q, exact):
    dev = DensityEvolution(P, "bd", 3)
    fcoef = dev.fpoly(Fraction(1, 3) if exact else 0.3)
    cp, cq = as_state(p), as_state(q)
    canonical = None if cp is None or cq is None else (cp, cq)
    holds(lambda x: dev.sweep(*x, fcoef), (p, q), canonical)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), values)
def test_run_de_and_trajectory(vary_sweeps, v):
    if vary_sweeps:
        holds(lambda x: trajectory(P, CD2, x), v, as_int(v))
    else:
        holds(lambda x: run_de(P, ChannelFamily("cd", 2, x)), v, as_real(v))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["m", "tol", "fold"]), coarse)
def test_threshold_and_fold(arg, v):
    if arg == "m":
        holds(lambda x: (threshold(P, "bd", x, bisect_tol=0.05),
                         thresholds(P, [("cd", x)], bisect_tol=0.05)), v, as_int(v))
    elif arg == "tol":
        holds(lambda x: threshold(P, "cd", 2, bisect_tol=x), v, as_real(v))
    else:
        holds(lambda x: fold(P, "cd", x), v, as_int(v))


@contextlib.contextmanager
def skipped_points():
    """Within, ebp_trace's warnings of the points it skips are quiet."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "no anchored fixed point|fixed-point residual", RuntimeWarning)
        yield


@settings(max_examples=40, deadline=None)
@given(st.booleans(), values)
def test_ebp_trace(vary_m, v):
    with skipped_points():
        if vary_m:
            holds(lambda x: ebp_trace(P, "cd", x, [0.5]), v, as_int(v))
        else:
            holds(lambda x: ebp_trace(P, "cd", 2, x), v, as_list(v, as_real))


def as_seed(v):
    """SeedSequence's entropy that v stands for: an int, or a tuple of them."""
    if isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim:
        entropy = as_list(v, as_int)
        return None if entropy is None else tuple(entropy)
    return as_int(v)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), values)
def test_decode_trial(vary_M, v):
    if vary_M:
        holds(lambda x: decode_trial(P, x, CD2, 1), v, as_int(v))
    else:
        holds(lambda x: decode_trial(P, 8, CD2, x), v, as_seed(v))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["M", "m", "grid", "trials", "seed"]), values)
def test_run_experiment(arg, v):
    args = {"M": 8, "m": 2, "grid": [0.3], "trials": 1, "seed": 1}

    def call(x):
        a = {**args, arg: x}
        return run_experiment(P, a["M"], "cd", a["m"], a["grid"], a["trials"], a["seed"])

    canonical = as_list(v, as_real) if arg == "grid" else as_int(v)
    holds(call, v, canonical)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), values)
def test_gf2(which, v):
    U = gf2.SubspaceBasis(3, (0b011, 0b100))
    calls = [
        lambda x: gf2.gbinom(x, 2),
        lambda x: gf2.gbinom(5, x),
        lambda x: gf2.SubspaceBasis(x, (1,)),
        lambda x: U.element(x),
        lambda x: U.contains(x),
        lambda x: gf2.rref_bits([0b011, 0b110], x),
        lambda x: gf2.sample_subspace(x, 1, np.random.default_rng(0)),
        lambda x: gf2.sample_subspace(4, x, np.random.default_rng(0)),
        lambda x: gf2.enumerate_subspaces(x, 1),
        lambda x: gf2.solve_in_span(U, [x], [1]),
    ]
    holds(calls[which], v, as_int(v))
    # The rows that rref_bits reduces are integers too.
    holds(lambda x: gf2.rref_bits(x, 3), v, as_list(v, as_int))


# Option values for the CLI, (good, bad): a good value parses and is mostly
# in range, at sizes that run in milliseconds; a bad one is out of range or
# does not parse.
OPTIONS = {
    "--dl": (["1", "2", "4"], ["0", "-1", "2.5", "x"]),
    "--dr": (["1", "2", "4"], ["0", "-1", "2.5", "x"]),
    "--dg": (["1", "2", "4"], ["0", "-1", "2.5", "x"]),
    "-L": (["0", "1", "2"], ["-1", "x"]),
    "-w": (["1", "2", "3"], ["0", "-2"]),
    "-m": (["1", "2", "3", "4"], ["0", "9", "16", "65", "2.0"]),
    "--channel": (["cd", "bd"], ["w", "xx"]),
    "--eps": (["0.3", "0", "1"], ["1.5", "-0.1", "nan", "inf", "x"]),
    "--dim": (["0", "1", "2"], ["5", "-1", "1.0"]),
    "--bisect-tol": (["0.1", "0.05"], ["0", "1", "2", "nan", "1e-300", "x"]),
    "--chi-max": (["0.9", "0.5"], ["1.1", "0", "nan"]),
    "--chi-min": (["0.3", "0.1"], ["0", "0.9", "nan"]),
    "--chi-step": (["0.3", "0.5"], ["0", "-0.1", "1e-11", "inf", "nan"]),
    "-M": (["8", "4", "6"], ["3", "0", "-2", "2.5"]),
    "--eps-grid": (["0.3", "0.3,0.4"], ["", ",", "x", "nan", "1.5", "0.3,,0.2"]),
    "--trials": (["1", "2"], ["0", "-1", "1.5"]),
    "--seed": (["0", "1"], ["-1", str(2**64), "x"]),
    "--format": (["csv", "json"], ["xml"]),
}
ENSEMBLE = ["--dl", "--dr", "--dg", "-L", "-w"]
COMMANDS = {
    "capacity": ["--channel", "-m", "--eps", "--dim", "--seed", "--format"],
    "rate": [*ENSEMBLE, "--seed", "--format"],
    "threshold": [*ENSEMBLE, "--channel", "-m", "--bisect-tol", "--seed"],
    "exit-curve": [*ENSEMBLE, "--channel", "-m", "--chi-max", "--chi-min", "--chi-step"],
    "simulate": [*ENSEMBLE, "--channel", "-m", "-M", "--eps-grid", "--trials", "--seed"],
}
# Given on every command line: their defaults would take seconds.
ALWAYS = {"--bisect-tol", "--chi-step"}


@st.composite
def argvs(draw):
    """A command line whose options are all good but at most one, which is
    bad or, unless it is in ALWAYS, left out."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    spoilt = draw(st.sampled_from([None, *COMMANDS[command]]))
    argv = [command]
    for option in COMMANDS[command]:
        good, bad = OPTIONS[option]
        if option != spoilt:
            argv += [option, draw(st.sampled_from(good))]
        elif option in ALWAYS or draw(st.booleans()):
            argv += [option, draw(st.sampled_from(bad))]
    return argv


@settings(max_examples=120, deadline=None)
@given(argvs())
def test_cli_exits_0_or_2(argv):
    # argparse ends a bad command line with SystemExit(2); every other
    # rejected input returns 2 from main.
    out, err = io.StringIO(), io.StringIO()
    with skipped_points(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv
