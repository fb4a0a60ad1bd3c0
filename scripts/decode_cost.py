#!/usr/bin/env python3
"""Time the phases of one decoding trial (`sim.decode_trial`) on the
benchmark's two decoder shapes.

Both trials run the (4, 2, 2) ensemble at L=10/w=2 on cd noise at ε = 0.45:
- m=6 at M=48 (the `decode-m6` workload's trial), where nearly every
  symbol has its own noise subspace;
- m=2 at M=2000 (the `decode-m2` workload's trial), with one table for
  each of the 5 subspaces of F_2^2 and about 160 flooding rounds.
A run decodes TRIALS[case] trials, trial t on seed (t, 0, 0) as
`run_experiment(..., master_seed=t)` seeds its first trial, and times each
phase with `time.perf_counter` around the calls `decode_trial` makes:
graph sampling (`sample_graph`), noise sampling (`_sample_symbol_noise`) and
the detector tables (`DetectorTables.table`); the rounds are the rest of the
trial. Each line gives the ms per trial of each phase and of the whole
trial, each the best of RUNS runs, and the mean number of tables (the
subspaces the sampler returns) per trial. The script takes no options; a run
takes about 1 s on two cores.
"""

import argparse
import contextlib
import sys
import time

from scmn import sim
from scmn.channel import ChannelFamily
from scmn.ensemble import EnsembleParams

RUNS = 5
EPS = 0.45
PARAMS = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
# (m, M) of each trial shape, and trials per run
CASES = ((6, 48), (2, 2000))
TRIALS = {(6, 48): 16, (2, 2000): 2}
# phase -> (owner, name) of the call decode_trial makes for it
PHASES = {
    "sample_graph": (sim, "sample_graph"),
    "noise": (sim, "_sample_symbol_noise"),
    "tables": (sim.DetectorTables, "table"),
}


@contextlib.contextmanager
def timed_phases(spent: dict[str, float], n_tables: list[int]):
    """Add each phase's wall time to spent[phase] while inside, and the
    number of subspaces of each table call to n_tables."""
    originals = {phase: vars(owner)[name] for phase, (owner, name) in PHASES.items()}

    def timer(phase, fn):
        def call(*args):
            if phase == "tables":
                n_tables.append(len(args[-1]))
            t0 = time.perf_counter()
            out = fn(*args)
            spent[phase] += time.perf_counter() - t0
            return out

        return call

    for phase, (owner, name) in PHASES.items():
        setattr(owner, name, timer(phase, originals[phase]))
    try:
        yield
    finally:
        for phase, (owner, name) in PHASES.items():
            setattr(owner, name, originals[phase])


def phase_ms(m: int, M: int) -> tuple[dict[str, float], float]:
    """Best ms per trial of each phase, of the rounds and of the trial, and
    the mean table count per trial."""
    family = ChannelFamily("cd", m, EPS)
    trials = TRIALS[m, M]
    best = dict.fromkeys((*PHASES, "rounds", "trial"), float("inf"))
    n_tables: list[int] = []
    for _ in range(RUNS):
        spent = dict.fromkeys(PHASES, 0.0)
        with timed_phases(spent, n_tables):
            t0 = time.perf_counter()
            for t in range(trials):
                sim.decode_trial(PARAMS, M, family, (t, 0, 0))
            spent["trial"] = time.perf_counter() - t0
        spent["rounds"] = spent["trial"] - sum(spent[p] for p in PHASES)
        for phase, s in spent.items():
            best[phase] = min(best[phase], s / trials * 1e3)
    return best, sum(n_tables) / len(n_tables)


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for m, M in CASES:
        ms, tables = phase_ms(m, M)
        phases = ", ".join(f"{p} {ms[p]:.3f}" for p in (*PHASES, "rounds"))
        print(
            f"m={m} M={M}: {phases}, trial {ms['trial']:.3f} ms per trial; "
            f"{tables:.1f} tables per trial"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
