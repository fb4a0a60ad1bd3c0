"""Monte-Carlo joint decoding of sampled coupled graphs: flooding erasure
message passing with an exact subspace detector at every channel symbol.

Trials send the all-zero word, so every known message is 0 and the decoder
tracks only which messages are known. A detector's erased outputs then depend
only on its erased inputs, and each noise subspace gets a table of 2^m
erased-output masks indexed by the erased-input mask."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelFamily, DimensionDistribution, dimension_distribution
from .ensemble import EnsembleParams, sample_graph
from .gf2 import (
    ENUM_MAX_AMBIENT,
    SubspaceBasis,
    _rref_ints,
    enumerate_subspaces,
    intersect,
    rref_bits,
    sample_subspace,  # noqa: F401 (kept: perfbench/tracing.py wraps this name)
    solve_in_span,
    zero_coordinate_mask,
)

ERASED = -1

# Largest symbol width the decoder serves: a distinct subspace's table costs
# O((2^d + 2^m) * m) (one pass over its elements, then m passes over its 2^m
# erasure patterns), and at m >= 6 nearly every symbol has its own subspace
# and reads only a few of those entries.
DETECTOR_MAX_M = 8


class DecodingFaultError(RuntimeError):
    """Internal decoding inconsistency; impossible on a correct run."""


def detector_messages(V: SubspaceBasis, incoming) -> list[int]:
    """Extrinsic detector outputs for one symbol, in the noise-translated
    domain: messages constrain u = x + y, which lies in V.

    incoming[t] is ERASED or a known bit of u at position t. Output t is the
    common value of u_t over the vectors of V matching the known positions
    other than t, or ERASED when they disagree. Incoming values incompatible
    with V raise DecodingFaultError.
    """
    m = V.ambient
    if len(incoming) != m:
        raise ValueError(f"expected {m} incoming messages, got {len(incoming)}")
    known = [(t, v) for t, v in enumerate(incoming) if v != ERASED]
    erased = [t for t, v in enumerate(incoming) if v == ERASED]
    base = solve_in_span(V, [t for t, _ in known], [v for _, v in known])
    if base is None:
        raise DecodingFaultError("incoming messages inconsistent with the noise subspace")
    out = []
    for t in range(m):
        ex_rows = [1 << t] + [1 << u for u in erased if u != t]
        v_a = intersect(rref_bits(ex_rows, m), V)
        if zero_coordinate_mask(v_a) >> t & 1:
            out.append((base >> t) & 1)
        else:
            out.append(ERASED)
    return out


class DetectorTables:
    """Erased-output masks per noise subspace, indexed by the erased-input
    mask E of a symbol: bit t of a table's entry E is set iff output t is
    erased.

    Under the all-zero word the detector output depends on E alone: output t
    is erased iff some v in V with v_t = 1 has support inside E + {t}, which
    is what detector_messages gives on any inputs with that erasure pattern.
    """

    def __init__(self, m: int):
        if not 1 <= m <= DETECTOR_MAX_M:
            raise ValueError(
                f"the decoder's detector tables serve m in 1..{DETECTOR_MAX_M}, got m={m}"
            )
        self.m = m
        self.shift = np.arange(m, dtype=np.int64)
        self.bit = np.int64(1) << self.shift

    def table(self, subspaces: Sequence[SubspaceBasis]) -> np.ndarray:
        """The (n, 2^m) stack of the tables of n subspaces, in their order,
        built anew on each call: decode_trial asks once per trial, for its
        distinct subspaces.

        Each v in V with v_t = 1 sets bit t at E = supp(v) - {t}; ORing every
        entry into its supersets, one coordinate at a time, then marks every E
        holding such a support (a superset zeta transform).
        """
        n, m = len(subspaces), self.m
        dmax = max((V.dim for V in subspaces), default=0)
        rows = np.zeros((n, dmax), dtype=np.int64)
        for i, V in enumerate(subspaces):
            rows[i, : V.dim] = V.rows
        # every element of each V; a zero pad row repeats them, harmlessly
        elems = np.zeros((n, 1), dtype=np.int64)
        for k in range(dmax):
            elems = np.concatenate([elems, elems ^ rows[:, k : k + 1]], axis=1)
        tab = np.zeros((n, 1 << m), dtype=np.int64)
        for t in range(m):
            i, k = np.nonzero((elems >> t) & 1)
            # repeated (i, E) pairs all write the same value
            tab[i, elems[i, k] ^ (1 << t)] |= 1 << t
        for t in range(m):
            half = tab.reshape(n, 1 << (m - 1 - t), 2, 1 << t)
            half[:, :, 1] |= half[:, :, 0]
        return tab


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded decoding trial (all-zero transmission)."""

    residual_erasures_per_section: tuple[int, ...]
    bit_erasure_rate: float
    iterations_to_stall: int
    seed: object
    q_erasure_trajectory: tuple[float, ...]  # transmitted->check, center section

    @property
    def fully_decoded(self) -> bool:
        return self.bit_erasure_rate == 0.0


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated statistics for one channel parameter."""

    parameter: float
    trials: int
    M: int
    ber_mean: float
    ber_std: float
    n_fully_decoded: int
    q_trajectory_mean: tuple[float, ...]


def _sample_symbol_noise(dist: DimensionDistribution, n_symbols: int, rng):
    """Per-symbol noise draws: distinct subspaces, per-symbol subspace index,
    and per-symbol noise vector (bit-packed)."""
    m = dist.m
    dims = rng.choice(m + 1, size=n_symbols, p=dist.probs)
    sub_idx = np.zeros(n_symbols, dtype=np.int64)
    z = np.zeros(n_symbols, dtype=np.int64)
    subspaces: list[SubspaceBasis] = []
    if m <= ENUM_MAX_AMBIENT:
        offset = 0
        for d in range(m + 1):
            mask = dims == d
            count = int(mask.sum())
            subs = enumerate_subspaces(m, d)
            if count:
                pick = rng.integers(0, len(subs), size=count)
                elems = np.array([list(s.vectors()) for s in subs], dtype=np.int64)
                eidx = rng.integers(0, 1 << d, size=count)
                z[mask] = elems[pick, eidx]
                sub_idx[mask] = offset + pick
            subspaces.extend(subs)
            offset += len(subs)
    else:
        # Drawing a basis row (rng.bytes(1)) or a z index (rng.integers(0,
        # 2^d)) consumes one 32-bit word: a row is its low m bits, an index
        # its top d bits. Words come in chunks of the fewest draws still to
        # come, d + 1 per symbol with d > 0, so the generator ends as the
        # per-symbol draws would leave it; rejections are met in the same
        # order.
        low = (1 << m) - 1
        need = np.where(dims > 0, dims + 1, 0)
        left = np.cumsum(need[::-1])[::-1].tolist()  # words of symbols i.. if none rejects
        words: list[int] = []
        k = 0
        seen: dict[tuple[int, ...], int] = {}
        for i, d in enumerate(dims.tolist()):
            rows: tuple[int, ...] = ()
            while d:
                short = left[i] - (len(words) - k)
                if short > 0:
                    words += rng.integers(0, 1 << 32, size=short, dtype=np.uint32).tolist()
                rows = _rref_ints(w & low for w in words[k : k + d])
                k += d
                if len(rows) == d:
                    break
            j = seen.get(rows)
            if j is None:
                j = seen[rows] = len(subspaces)
                subspaces.append(SubspaceBasis(m, rows))
            sub_idx[i] = j
            # The zero subspace takes no draw from rng.
            if d:
                z[i] = subspaces[j].element(words[k] >> (32 - d))
                k += 1
    return subspaces, sub_idx, z


def _grouped(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges grouped by node: node k owns edges order[ptr[k]:ptr[k + 1]]."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return np.argsort(keys), ptr


def _edges_of(nodes: np.ndarray, order: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The edges of the given nodes, in node order."""
    starts = ptr[nodes]
    counts = ptr[nodes + 1] - starts
    offsets = np.cumsum(counts) - counts  # where each node's run begins
    return order[np.repeat(starts - offsets, counts) + np.arange(counts.sum())]


def _take(mark: np.ndarray) -> np.ndarray:
    """The marked nodes, each once; clears the marks."""
    nodes = np.flatnonzero(mark)
    mark[nodes] = False
    return nodes


def decode_trial(
    params: EnsembleParams,
    M: int,
    family: ChannelFamily,
    seed,
) -> TrialResult:
    """Sample a graph and noise, run flooding decoding to a stall, and report
    residual statistics under the all-zero transmission convention.

    Schedule per round: check-to-bit from the current bit-to-check messages,
    then transmitted-to-detector, then the detector outputs, then fresh
    bit-to-check messages. This is the parallel schedule DE models.

    Under the all-zero word every known message is 0, so each message is a
    known flag alone, and known messages stay known. A round therefore
    updates only the nodes next to a message that became known: the checks
    with a newly known input, and the bits and symbols with a newly known
    check message. Running counts (erased inputs per check, known check
    messages per bit, erased centre edges) stand in for recounting every
    edge.
    """
    m = family.m
    tables = DetectorTables(m)  # rejects an m the tables cannot serve, before sampling
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    graph = sample_graph(params, M, m, rng)
    dist = dimension_distribution(family)
    L = params.L

    subspaces, sub_idx, _ = _sample_symbol_noise(dist, graph.n_symbols, rng)
    # One table per distinct subspace; sub_dense indexes the symbol's table.
    used, sub_dense = np.unique(sub_idx, return_inverse=True)
    tab_stack = tables.table([subspaces[i] for i in used])

    n_t2 = graph.n_transmitted
    n_sym = graph.n_symbols
    ncheck = graph.n_checks
    t1_bit, t2_bit = graph.t1_bit, graph.t2_bit
    e1 = len(t1_bit)
    check_all = np.concatenate([graph.t1_check, graph.t2_check])
    by_check = _grouped(check_all, ncheck)
    by_punctured = _grouped(t1_bit, graph.n_punctured)
    by_transmitted = _grouped(t2_bit, n_t2)
    members = graph.symbols
    sym_of = np.empty(n_t2, dtype=np.int64)
    sym_of[members.ravel()] = np.repeat(np.arange(n_sym), m)
    shift, bit = tables.shift, tables.bit
    center_edges = (t2_bit // M) == L
    n_center = int(center_edges.sum())

    # known flags: bit-to-check and check-to-bit per edge (type 1, then
    # type 2), detector-to-bit per transmitted bit
    b2c = np.zeros(len(check_all), dtype=bool)
    c2b = np.zeros(len(check_all), dtype=bool)
    d2b = np.zeros(n_t2, dtype=bool)
    n_erased_in = np.bincount(check_all, minlength=ncheck)
    n_known_p = np.zeros(graph.n_punctured, dtype=np.int64)
    n_known_t = np.zeros(n_t2, dtype=np.int64)
    center_erased = n_center
    # nodes to update this round; every check and symbol in the first
    dirty_check = np.ones(ncheck, dtype=bool)
    dirty_sym = np.ones(n_sym, dtype=bool)
    dirty_p = np.zeros(graph.n_punctured, dtype=bool)
    dirty_t = np.zeros(n_t2, dtype=bool)
    traj = [1.0]
    # Every round that changes anything fixes at least one message for good.
    cap = e1 + len(t2_bit) + n_t2 + 2
    rounds = 0

    while True:
        if rounds >= cap:
            raise DecodingFaultError(f"no stall within {cap} rounds (seed={seed!r})")
        # check -> bit: known once every other input of the check is known
        e = _edges_of(_take(dirty_check), *by_check)
        e = e[(n_erased_in[check_all[e]] - ~b2c[e] == 0) & ~c2b[e]]
        c2b[e] = True
        e_p = e[e < e1]
        e_t = e[e >= e1] - e1

        # punctured bit -> check: known once another check message is
        bits = t1_bit[e_p]
        np.add.at(n_known_p, bits, 1)
        dirty_p[bits] = True
        f = _edges_of(_take(dirty_p), *by_punctured)
        new_b2c_p = f[(n_known_p[t1_bit[f]] - c2b[f] > 0) & ~b2c[f]]

        # transmitted bit -> detector (checks only), then detector -> bit
        bits = t2_bit[e_t]
        np.add.at(n_known_t, bits, 1)
        dirty_t[bits] = True
        dirty_sym[sym_of[bits]] = True
        syms = _take(dirty_sym)
        inputs = members[syms]
        out = tab_stack[sub_dense[syms], (n_known_t[inputs] == 0) @ bit]
        now = inputs[(out[:, None] >> shift) & 1 == 0]
        new_d2b = now[~d2b[now]]
        d2b[new_d2b] = True
        dirty_t[new_d2b] = True

        # transmitted bit -> check, from the detector and the other checks
        f = _edges_of(_take(dirty_t), *by_transmitted)
        n_in = n_known_t[t2_bit[f]] - c2b[e1 + f] + d2b[t2_bit[f]]
        new_b2c_t = f[(n_in > 0) & ~b2c[e1 + f]]

        new_b2c = np.concatenate([new_b2c_p, e1 + new_b2c_t])
        b2c[new_b2c] = True
        np.subtract.at(n_erased_in, check_all[new_b2c], 1)
        dirty_check[check_all[new_b2c]] = True
        center_erased -= int(center_edges[new_b2c_t].sum())
        rounds += 1
        traj.append(center_erased / n_center)
        if not (len(new_b2c) or len(new_d2b)):
            break

    bit_erased = (n_known_t == 0) & ~d2b
    sections = np.arange(n_t2) // M
    residual = np.bincount(sections[bit_erased], minlength=params.n_sections)
    return TrialResult(
        residual_erasures_per_section=tuple(int(x) for x in residual),
        bit_erasure_rate=float(bit_erased.sum() / n_t2),
        iterations_to_stall=rounds,
        seed=seed,
        q_erasure_trajectory=tuple(traj),
    )


def run_experiment(
    params: EnsembleParams,
    M: int,
    kind: str,
    m: int,
    parameter_grid,
    trials: int,
    master_seed: int,
) -> list[ExperimentRow]:
    """Run trials x |grid| independent decode_trials and aggregate.

    The trial at grid index g, trial index t uses seed entropy
    (master_seed, g, t) fed to numpy SeedSequence, so any cell reproduces
    independently of execution order. Trajectories are padded with their
    final value (stalled message state is constant) before averaging.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for g, par in enumerate(parameter_grid):
        family = ChannelFamily(kind, m, par)
        results = [decode_trial(params, M, family, (master_seed, g, t)) for t in range(trials)]
        bers = np.array([r.bit_erasure_rate for r in results])
        tmax = max(len(r.q_erasure_trajectory) for r in results)
        padded = np.array(
            [
                list(r.q_erasure_trajectory)
                + [r.q_erasure_trajectory[-1]] * (tmax - len(r.q_erasure_trajectory))
                for r in results
            ]
        )
        rows.append(
            ExperimentRow(
                parameter=float(par),
                trials=trials,
                M=M,
                ber_mean=float(bers.mean()),
                ber_std=float(bers.std(ddof=1)) if trials > 1 else 0.0,
                n_fully_decoded=sum(r.fully_decoded for r in results),
                q_trajectory_mean=tuple(float(x) for x in padded.mean(axis=0)),
            )
        )
    return rows
