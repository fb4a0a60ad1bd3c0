"""Monte-Carlo joint decoding of sampled coupled graphs: flooding erasure
message passing with an exact subspace detector at every channel symbol.

Trials send the all-zero word, so every known message is 0 and the decoder
tracks only which messages are known. A detector's erased outputs then depend
only on its erased inputs, and each noise subspace gets a table of 2^m
erased-output masks indexed by the erased-input mask."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

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


def _span(bases: np.ndarray) -> np.ndarray:
    """(n, 2^d): entry (i, k) sums the rows of bases[i] that k's set bits
    pick, so row i lists subspace i's elements (a zero pad repeats them)."""
    elems = np.zeros((len(bases), 1), dtype=np.int64)
    for k in range(bases.shape[1]):
        elems = np.concatenate([elems, elems ^ bases[:, k : k + 1]], axis=1)
    return elems


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

    def table(self, bases: np.ndarray) -> np.ndarray:
        """The (n, 2^m) stack of the tables of the n subspaces whose
        zero-padded bases are the rows of bases, built anew on each call:
        decode_trial asks once per trial, for every subspace sampled.

        Each v in V with v_t = 1 sets bit t at E = supp(v) - {t}; ORing every
        entry into its supersets, one coordinate at a time, then marks every E
        holding such a support (a superset zeta transform).
        """
        n, m = len(bases), self.m
        elems = _span(bases)
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
    """Per-symbol noise draws: (bases, sub_idx, z). A row of bases is one
    subspace's canonical basis (`SubspaceBasis.rows`) zero-padded to the
    largest dimension: all of F_2^m's subspaces (at most 67) in enumeration
    order at m <= ENUM_MAX_AMBIENT, the distinct drawn ones in first-seen
    order above. Symbol i has row sub_idx[i] and noise vector z[i]
    (bit-packed), the sum of the rows that a uniform index's set bits pick."""
    m = dist.m
    dims = rng.choice(m + 1, size=n_symbols, p=dist.probs)
    if m <= ENUM_MAX_AMBIENT:
        sub_idx, zidx = np.zeros((2, n_symbols), dtype=np.int64)
        rows = []
        for d in range(m + 1):
            mask = dims == d
            subs = enumerate_subspaces(m, d)
            if count := int(mask.sum()):
                sub_idx[mask] = len(rows) + rng.integers(0, len(subs), size=count)
                zidx[mask] = rng.integers(0, 1 << d, size=count)
            rows += [s.rows for s in subs]
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
        words, k, sub_idx, zidx = [], 0, [], []
        rows: dict[tuple[int, ...], int] = {}  # basis -> its index, first seen first
        for i, d in enumerate(dims.tolist()):
            basis: tuple[int, ...] = ()
            while d:
                short = left[i] - (len(words) - k)
                if short > 0:
                    words += rng.integers(0, 1 << 32, size=short, dtype=np.uint32).tolist()
                basis = _rref_ints(w & low for w in words[k : k + d])
                k += d
                if len(basis) == d:
                    break
            sub_idx.append(rows.setdefault(basis, len(rows)))
            # The zero subspace takes no draw from rng.
            zidx.append(words[k] >> (32 - d) if d else 0)
            k += d > 0
    dmax = max(map(len, rows), default=0)
    bases = np.array([r + (0,) * (dmax - len(r)) for r in rows], dtype=np.int64)
    bases = bases.reshape(len(rows), dmax)
    sub_idx = np.asarray(sub_idx, dtype=np.int64)
    return bases, sub_idx, _span(bases)[sub_idx, zidx]


def _distinct(nodes: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """The distinct entries of nodes, in no set order, with stamp as scratch
    space over the node ids: of the copies of a node, exactly one wrote the
    position that survives."""
    pos = np.arange(len(nodes))
    stamp[nodes] = pos
    return nodes[stamp[nodes] == pos]


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

    Of those nodes, four kinds cannot emit anything new and are skipped,
    each exactly:
    - a check with two or more erased inputs (it emits only while at most
      one input is erased);
    - a punctured bit that already had two known check messages after an
      earlier round (each of its edges then has another known message, so
      all its bit-to-check messages are known);
    - likewise a transmitted bit once its known check messages plus its
      known detector message reach two;
    - a symbol none of whose bits got its first known check message this
      round (a detector input is the bit's check messages, erased until one
      is known).
    """
    m = family.m
    tables = DetectorTables(m)  # rejects an m the tables cannot serve, before sampling
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    graph = sample_graph(params, M, m, rng)
    dist = dimension_distribution(family)
    L = params.L

    bases, sub_idx, _ = _sample_symbol_noise(dist, graph.n_symbols, rng)
    # one table per subspace the sampler returns; sub_idx picks a symbol's
    tab_stack = tables.table(bases)

    n_pun = graph.n_punctured
    n_t2 = graph.n_transmitted
    n_sym = graph.n_symbols
    ncheck = graph.n_checks
    t1_bit, t2_bit = graph.t1_bit, graph.t2_bit
    e1 = len(t1_bit)
    check_all = np.concatenate([graph.t1_check, graph.t2_check])
    # The graph gives each node's edges as one row of a table; a boundary
    # check's row holds -1 at its unused sockets.
    edges_c = np.hstack(
        [graph.t1_check_edges, np.where(graph.t2_check_edges < 0, -1, e1 + graph.t2_check_edges)]
    )
    edges_p = graph.t1_bit_edges
    edges_t = e1 + graph.t2_bit_edges
    members = graph.symbols
    sym_of = np.empty(n_t2, dtype=np.int64)
    sym_of[members.ravel()] = np.repeat(np.arange(n_sym), m)
    shift, bit = tables.shift, tables.bit
    center_edges = np.concatenate([np.zeros(e1, dtype=bool), t2_bit // M == L])
    n_center = int(center_edges.sum())

    # known flags: bit-to-check and check-to-bit per edge (type 1, then
    # type 2), detector-to-bit per transmitted bit
    b2c = np.zeros(len(check_all), dtype=bool)
    c2b = np.zeros(len(check_all), dtype=bool)
    d2b = np.zeros(n_t2, dtype=bool)
    n_erased_in = np.bincount(check_all, minlength=ncheck)
    n_known_p = np.zeros(n_pun, dtype=np.int64)
    n_known_t = np.zeros(n_t2, dtype=np.int64)
    center_erased = n_center
    # checks to update this round, with repeats; every check and symbol in
    # the first
    next_checks = np.arange(ncheck)
    stamp = np.empty(max(ncheck, n_pun, n_t2, n_sym), dtype=np.int64)  # for _distinct
    # bits whose every bit-to-check message is known
    done_p = np.zeros(n_pun, dtype=bool)
    done_t = np.zeros(n_t2, dtype=bool)
    traj = [1.0]
    # Every round that changes anything fixes at least one message for good.
    cap = e1 + len(t2_bit) + n_t2 + 2
    rounds = 0

    while True:
        if rounds >= cap:
            raise DecodingFaultError(f"no stall within {cap} rounds (seed={seed!r})")
        # check -> bit: known once every other input of the check is known,
        # so a check with two erased inputs emits nothing
        nodes = _distinct(next_checks, stamp)
        e = edges_c[nodes[n_erased_in[nodes] <= 1]]
        e = e[e >= 0]
        e = e[(n_erased_in[check_all[e]] - ~b2c[e] == 0) & ~c2b[e]]
        c2b[e] = True
        e_p = e[e < e1]
        e_t = e[e >= e1] - e1

        # punctured bit -> check: known once another check message is
        bits = t1_bit[e_p]
        np.add.at(n_known_p, bits, 1)
        nodes = _distinct(bits, stamp)
        nodes = nodes[~done_p[nodes]]
        f = edges_p[nodes]
        n_in = n_known_p[nodes]
        new_b2c_p = f[(n_in[:, None] - c2b[f] > 0) & ~b2c[f]]
        # two known check messages make every outgoing one known
        done_p[nodes[n_in >= 2]] = True

        # transmitted bit -> detector (checks only), then detector -> bit;
        # a detector input changes only at a bit's first known check message
        bits = t2_bit[e_t]
        if rounds:
            syms = _distinct(sym_of[bits[n_known_t[bits] == 0]], stamp)
        else:
            syms = np.arange(n_sym)
        np.add.at(n_known_t, bits, 1)
        inputs = members[syms]
        out = tab_stack[sub_idx[syms], (n_known_t[inputs] == 0) @ bit]
        now = inputs[(out[:, None] >> shift) & 1 == 0]
        new_d2b = now[~d2b[now]]
        d2b[new_d2b] = True

        # transmitted bit -> check, from the detector and the other checks
        nodes = _distinct(np.concatenate([bits, new_d2b]), stamp)
        nodes = nodes[~done_t[nodes]]
        f = edges_t[nodes]
        n_in = n_known_t[nodes] + d2b[nodes]
        new_b2c_t = f[(n_in[:, None] - c2b[f] > 0) & ~b2c[f]]
        done_t[nodes[n_in >= 2]] = True

        new_b2c = np.concatenate([new_b2c_p, new_b2c_t])
        b2c[new_b2c] = True
        next_checks = check_all[new_b2c]
        np.subtract.at(n_erased_in, next_checks, 1)
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
    if isinstance(trials, bool) or not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
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
