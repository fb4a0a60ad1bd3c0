"""Value-tracking joint decoder, kept as the referee for `scmn.sim.decode_trial`.

It carries every message value (0, 1 or ERASED) through base-3 detector
tables and faults on any value conflict, so it decodes general known values,
not only the all-zero word. `sim.decode_trial` tracks only which messages are
known; on the same seed both must return the same `TrialResult`.
"""

from __future__ import annotations

import numpy as np

from scmn.channel import ChannelFamily, dimension_distribution
from scmn.ensemble import EnsembleParams, sample_graph
from scmn.gf2 import SubspaceBasis
from scmn.sim import (
    DETECTOR_MAX_M,
    ERASED,
    DecodingFaultError,
    TrialResult,
    _sample_symbol_noise,
)


class ValueTables:
    """Base-3 lookup tables per noise subspace: incoming message code to
    outgoing code; -1 marks inputs inconsistent with the subspace.

    Digit t of a code is the message at position t: 0 or 1 for a known bit
    of u, 2 for an erasure. With E the erased inputs, output t is erased iff
    some v in V with v_t = 1 has support inside E + {t}, and a known output
    is bit t of any element of V matching the known inputs.
    """

    def __init__(self, m: int):
        if not 1 <= m <= DETECTOR_MAX_M:
            raise ValueError(f"tables serve m in 1..{DETECTOR_MAX_M}, got m={m}")
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
        v = elems[:, None]
        hits = ((v & self._outside) == 0) & (((v >> self._shift) & 1) == 1)
        erased = hits.any(axis=1)
        match = (elems & self._known[:, None]) == self._value[:, None]
        base = elems[match.argmax(axis=1)]
        digits = np.where(
            erased[self._pattern, self._shift], 2, (base[:, None] >> self._shift) & 1
        )
        return np.where(match.any(axis=1), digits @ self._pow3, -1)


def decode_trial(
    params: EnsembleParams,
    M: int,
    family: ChannelFamily,
    seed,
) -> TrialResult:
    """Flooding decoding that carries message values, on the same random
    stream as `sim.decode_trial`.

    Every check named in the faults below is impossible on a correct run:
    a known 1 under the all-zero word, a known message reverting to erased,
    conflicting values at a punctured bit, at a transmitted bit's checks or
    at a transmitted bit, detector inputs inconsistent with the subspace, and
    no stall within the round cap.
    """
    m = family.m
    tables = ValueTables(m)
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
