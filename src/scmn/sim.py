"""Monte-Carlo joint decoding of sampled coupled graphs: flooding erasure
message passing with an exact subspace detector at every channel symbol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelFamily, DimensionDistribution, dimension_distribution
from .ensemble import EnsembleParams, sample_graph
from .gf2 import (
    ENUM_MAX_AMBIENT,
    SubspaceBasis,
    enumerate_subspaces,
    intersect,
    rref_bits,
    sample_subspace,
    solve_in_span,
    zero_coordinate_mask,
)

ERASED = -1

# Largest symbol width the decoder serves: a table has 3^m entries, and
# building one matches all 3^m codes against the 2^d elements of V.
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
    """Base-3 lookup tables per noise subspace: incoming message code to
    outgoing code; -1 marks inputs inconsistent with the subspace.

    Digit t of a code is the message at position t: 0 or 1 for a known bit
    of u, 2 for an erasure. A table gives what detector_messages gives, built
    from erasure patterns: with E the erased inputs, output t is erased iff
    some v in V with v_t = 1 has support inside E + {t}, and a known output
    is bit t of any element of V matching the known inputs.
    """

    def __init__(self, m: int):
        if not 1 <= m <= DETECTOR_MAX_M:
            raise ValueError(
                f"the decoder's 3^m detector tables serve m in 1..{DETECTOR_MAX_M}, got m={m}"
            )
        self.m = m
        self._cache: dict[tuple[int, ...], np.ndarray] = {}
        self._pow3 = 3 ** np.arange(m, dtype=np.int64)
        self._shift = np.arange(m, dtype=np.int64)
        bit = np.int64(1) << self._shift
        digits = (np.arange(3**m, dtype=np.int64)[:, None] // self._pow3) % 3
        self._known = (digits != 2) @ bit  # per code: mask of known inputs
        self._value = (digits == 1) @ bit  # per code: mask of known ones
        self._pattern = (((1 << m) - 1) ^ self._known)[:, None]  # per code: E
        # per erasure pattern E and output t: the positions outside E + {t}
        self._outside = ~(np.arange(1 << m, dtype=np.int64)[:, None, None] | bit)

    def table(self, V: SubspaceBasis) -> np.ndarray:
        tab = self._cache.get(V.rows)
        if tab is None:
            tab = self._build(V.rows)
            self._cache[V.rows] = tab
        return tab

    def _build(self, rows: tuple[int, ...]) -> np.ndarray:
        elems = np.zeros(1, dtype=np.int64)
        for b in rows:
            elems = np.concatenate([elems, elems ^ b])
        # erased[E, t]: some v with v_t = 1 has no support outside E + {t}
        v = elems[:, None]
        hits = ((v & self._outside) == 0) & (((v >> self._shift) & 1) == 1)
        erased = hits.any(axis=1)
        match = (elems & self._known[:, None]) == self._value[:, None]
        base = elems[match.argmax(axis=1)]
        digits = np.where(
            erased[self._pattern, self._shift], 2, (base[:, None] >> self._shift) & 1
        )
        return np.where(match.any(axis=1), digits @ self._pow3, -1)


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
        seen: dict[tuple[int, ...], int] = {}
        for i in range(n_symbols):
            v = sample_subspace(m, int(dims[i]), rng)
            if v.rows not in seen:
                seen[v.rows] = len(subspaces)
                subspaces.append(v)
            sub_idx[i] = seen[v.rows]
            zz = 0
            if v.dim:
                combo = int(rng.integers(0, 1 << v.dim))
                for ri, b in enumerate(v.rows):
                    if (combo >> ri) & 1:
                        zz ^= b
            z[i] = zz
    return subspaces, sub_idx, z


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
    """
    m = family.m
    tables = DetectorTables(m)  # rejects an m the tables cannot serve, before sampling
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    graph = sample_graph(params, M, m, rng)
    dist = dimension_distribution(family)
    L = params.L

    subspaces, sub_idx, z = _sample_symbol_noise(dist, graph.n_symbols, rng)
    used = np.unique(sub_idx)
    dense = np.zeros(int(used.max()) + 1, dtype=np.int64)
    dense[used] = np.arange(len(used))
    tab_stack = np.stack([tables.table(subspaces[int(i)]) for i in used])
    sub_dense = dense[sub_idx]

    n_t2 = graph.n_transmitted
    ncheck = graph.n_checks
    t1_bit, t1_check = graph.t1_bit, graph.t1_check
    t2_bit, t2_check = graph.t2_bit, graph.t2_check
    e1 = len(t1_bit)
    check_all = np.concatenate([t1_check, t2_check])
    pow3 = 3 ** np.arange(m, dtype=np.int64)
    y_sym = ((z[:, None] >> np.arange(m)) & 1).astype(np.int64)  # y = z (x = 0)
    members = graph.symbols
    center_edges = (t2_bit // M) == L
    n_center = int(center_edges.sum())

    b2c1 = np.full(e1, ERASED, dtype=np.int64)
    b2c2 = np.full(len(t2_bit), ERASED, dtype=np.int64)
    d2b = np.full(n_t2, ERASED, dtype=np.int64)
    traj = [1.0]
    # Every round that changes anything fixes at least one message for good.
    cap = e1 + len(t2_bit) + n_t2 + 2
    rounds = 0
    bit_value = np.full(n_t2, ERASED, dtype=np.int64)

    while True:
        if rounds >= cap:
            raise DecodingFaultError(f"no stall within {cap} rounds (seed={seed!r})")
        # check -> bit
        msgs = np.concatenate([b2c1, b2c2])
        known = msgs != ERASED
        ones = np.bincount(check_all[msgs == 1], minlength=ncheck) & 1
        n_er = np.bincount(check_all[~known], minlength=ncheck)
        own_one = (msgs == 1).astype(np.int64)
        ext = ones[check_all] ^ own_one
        c2b = np.where(n_er[check_all] - (~known).astype(np.int64) > 0, ERASED, ext)
        c2b1 = c2b[:e1]
        c2b2 = c2b[e1:]

        # punctured bit -> check
        k0 = np.bincount(t1_bit[c2b1 == 0], minlength=graph.n_punctured)
        k1 = np.bincount(t1_bit[c2b1 == 1], minlength=graph.n_punctured)
        if ((k0 > 0) & (k1 > 0)).any():
            raise DecodingFaultError(f"conflicting punctured-bit values (seed={seed!r})")
        bv1 = np.where(k0 > 0, 0, np.where(k1 > 0, 1, ERASED))
        own = c2b1 != ERASED
        nb2c1 = np.where((k0 + k1)[t1_bit] - own > 0, bv1[t1_bit], ERASED)

        # transmitted bit -> detector (checks only), then detector -> bit
        ck0 = np.bincount(t2_bit[c2b2 == 0], minlength=n_t2)
        ck1 = np.bincount(t2_bit[c2b2 == 1], minlength=n_t2)
        if ((ck0 > 0) & (ck1 > 0)).any():
            raise DecodingFaultError(f"conflicting check values at a transmitted bit (seed={seed!r})")
        b2d = np.where(ck0 > 0, 0, np.where(ck1 > 0, 1, ERASED))

        dig = b2d[members]
        u_dig = np.where(dig == ERASED, 2, dig ^ y_sym)
        codes = u_dig @ pow3
        out_codes = tab_stack[sub_dense, codes]
        if (out_codes < 0).any():
            raise DecodingFaultError(f"detector saw inconsistent inputs (seed={seed!r})")
        out_dig = (out_codes[:, None] // pow3) % 3
        d_sym = np.where(out_dig == 2, ERASED, out_dig ^ y_sym)
        nd2b = np.empty(n_t2, dtype=np.int64)
        nd2b[members.ravel()] = d_sym.ravel()

        # transmitted bit -> check, combining detector and other checks
        any0 = (ck0 > 0) | (nd2b == 0)
        any1 = (ck1 > 0) | (nd2b == 1)
        if (any0 & any1).any():
            raise DecodingFaultError(f"conflicting transmitted-bit values (seed={seed!r})")
        bit_value = np.where(any0, 0, np.where(any1, 1, ERASED))
        own2 = c2b2 != ERASED
        n_in = (ck0 + ck1)[t2_bit] - own2 + (nd2b[t2_bit] != ERASED)
        nb2c2 = np.where(n_in > 0, bit_value[t2_bit], ERASED)

        for old, new in ((b2c1, nb2c1), (b2c2, nb2c2), (d2b, nd2b)):
            if (new == 1).any():
                raise DecodingFaultError(f"known-1 under all-zero transmission (seed={seed!r})")
            if ((old != ERASED) & (new == ERASED)).any():
                raise DecodingFaultError(f"known message reverted to erased (seed={seed!r})")
        rounds += 1
        changed = (
            not np.array_equal(b2c1, nb2c1)
            or not np.array_equal(b2c2, nb2c2)
            or not np.array_equal(d2b, nd2b)
        )
        b2c1, b2c2, d2b = nb2c1, nb2c2, nd2b
        traj.append(float((b2c2[center_edges] == ERASED).sum() / n_center))
        if not changed:
            break

    sections = np.arange(n_t2) // M
    residual = np.bincount(sections[bit_value == ERASED], minlength=params.n_sections)
    return TrialResult(
        residual_erasures_per_section=tuple(int(x) for x in residual),
        bit_erasure_rate=float((bit_value == ERASED).sum() / n_t2),
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
                n_fully_decoded=int((bers == 0.0).sum()),
                q_trajectory_mean=tuple(float(x) for x in padded.mean(axis=0)),
            )
        )
    return rows
