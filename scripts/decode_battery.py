#!/usr/bin/env python3
"""Run fixed seeded decoding trials and print their digest.

The trials are the (4, 2, 2) ensemble at L=10/w=2 and M=2000 with m=2 (four
seeds each on cd at 0.45 and bd at 0.48); the (4, 2, 2) ensemble at L=4 with
m = 1..8, both channel families, w in {1, 2, 3} and ε in {0.4, 0.5} at small
M; and the (5, 2, 3), (3, 3, 3), (2, 2, 2), (6, 3, 2) and (4, 4, 1) ensembles
at m=2 on both families, at L=4 with w in {1, 2, 3} and on the uncoupled
L=0/w=1 chain at M=60 and ε in {0.3, 0.5}, and at L=10/w=2 and M=600 with ε
in {0.05, 0.35, 0.45}. One line per trial gives its ensemble, M, m,
channel, seed, bit erasure rate in float.hex and round count; the last line
is the SHA-256 digest of, per trial in the order printed, the sampled graph's
`t1_bit`, `t1_check`, `t2_bit`, `t2_check` and `symbols` (little-endian
int64) and the `TrialResult`'s bit erasure rate, round count, per-section
residuals and trajectory (float.hex for the floats). Two source trees give
the same digest exactly when they sample every graph and decode every trial
to the bit, so a speed change to `sample_graph` or `decode_trial` is checked
by running this on both. The whole battery takes about five seconds on two
cores. Standard error gets the seconds spent in `sample_graph` (the
battery's own calls) and in `decode_trial`, which samples its graph again.
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from scmn.channel import ChannelFamily
from scmn.ensemble import EnsembleParams, sample_graph
from scmn.sim import DETECTOR_MAX_M, decode_trial

KINDS = ("cd", "bd")
WIDTHS = (1, 2, 3)
# (dl, dr, dg) of the ensembles other than (4, 2, 2), each at m=2.
OTHER_ENSEMBLES = ((5, 2, 3), (3, 3, 3), (2, 2, 2), (6, 3, 2), (4, 4, 1))


def trials():
    """(params, M, family, seed) of every trial, in the order run."""
    full = EnsembleParams(dl=4, dr=2, dg=2, L=10, w=2)
    for kind, eps in (("cd", 0.45), ("bd", 0.48)):
        for seed in range(4):
            yield full, 2000, ChannelFamily(kind, 2, eps), (2000, int(kind == "cd"), seed)
    for m in range(1, DETECTOR_MAX_M + 1):
        M = 6 * m * (2 if m < 4 else 1)  # divisible by w and m
        for kind in KINDS:
            for w in WIDTHS:
                params = EnsembleParams(dl=4, dr=2, dg=2, L=4, w=w)
                for eps in (0.4, 0.5):
                    yield params, M, ChannelFamily(kind, m, eps), (m, w, int(kind == "cd"), int(eps * 10))
    for dl, dr, dg in OTHER_ENSEMBLES:
        shapes = [(4, w) for w in WIDTHS] + [(0, 1)]
        for L, w in shapes:
            params = EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w)
            for kind in KINDS:
                for eps in (0.3, 0.5):
                    yield params, 60, ChannelFamily(kind, 2, eps), (dl, dr, dg, L, w, int(eps * 10))
        params = EnsembleParams(dl=dl, dr=dr, dg=dg, L=10, w=2)
        for kind in KINDS:
            for eps in (0.05, 0.35, 0.45):
                yield params, 600, ChannelFamily(kind, 2, eps), (dl, dr, dg, 600, int(eps * 100))


def run(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    t0 = time.time()
    digest = hashlib.sha256()
    n_trials = 0
    sampling = decoding = 0.0
    for params, M, family, seed in trials():
        # decode_trial samples its graph first, from the same stream.
        t = time.perf_counter()
        graph = sample_graph(params, M, family.m, np.random.default_rng(np.random.SeedSequence(seed)))
        sampling += time.perf_counter() - t
        for arr in (graph.t1_bit, graph.t1_check, graph.t2_bit, graph.t2_check, graph.symbols):
            digest.update(arr.astype("<i8").tobytes())
        t = time.perf_counter()
        r = decode_trial(params, M, family, seed)
        decoding += time.perf_counter() - t
        ber = r.bit_erasure_rate.hex()
        digest.update(
            " ".join(
                [ber, str(r.iterations_to_stall)]
                + [str(x) for x in r.residual_erasures_per_section]
                + [x.hex() for x in r.q_erasure_trajectory]
            ).encode()
            + b"\n"
        )
        print(
            f"({params.dl},{params.dr},{params.dg}) L={params.L} w={params.w} M={M} "
            f"{family.kind} m={family.m} "
            f"eps={family.parameter} seed={seed} {ber} rounds={r.iterations_to_stall}",
            flush=True,
        )
        n_trials += 1
    print(f"sha256 {digest.hexdigest()}")
    print(f"{n_trials} trials in {time.time() - t0:.0f} s", file=sys.stderr)
    print(f"sample_graph {sampling:.2f} s, decode_trial {decoding:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
