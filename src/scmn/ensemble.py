"""Coupled two-edge-type (MacKay-Neal style) ensembles: design rate, check
counting, and finite Tanner graph sampling with channel-symbol grouping."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class EnsembleParams:
    """(dl, dr, dg, L, w): punctured-bit degree, check sockets toward
    punctured bits, transmitted-bit degree (= check sockets toward
    transmitted bits), coupling half-width, randomization window."""

    dl: int
    dr: int
    dg: int
    L: int
    w: int

    def __post_init__(self) -> None:
        for name in ("dl", "dr", "dg", "L", "w"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("dl", "dr", "dg", "w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.L < 0:
            raise ValueError("L must be >= 0")

    @property
    def n_sections(self) -> int:
        return 2 * self.L + 1

    @property
    def n_check_sections(self) -> int:
        return 2 * self.L + self.w


def _coupling_sum(params: EnsembleParams) -> Fraction:
    w = params.w
    return sum(
        (1 - Fraction(i, w) ** (params.dr + params.dg) for i in range(w + 1)),
        start=Fraction(0),
    )


def design_rate_exact(params: EnsembleParams) -> Fraction:
    """Design rate as an exact rational; tends to dr/dl as L grows."""
    s = _coupling_sum(params)
    return Fraction(params.dr, params.dl) + (1 + params.w - 2 * s) / params.n_sections


def design_rate(params: EnsembleParams) -> float:
    return float(design_rate_exact(params))


def check_count(params: EnsembleParams, M: int) -> Fraction:
    """Expected number of degree >= 1 check nodes with M checks per section.

    Satisfies V_t + V_p - N_C = rate * V_t exactly in rational arithmetic.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    s = _coupling_sum(params)
    return M * (2 * params.L - params.w + 2 * s)


def transmitted_count(params: EnsembleParams, M: int) -> int:
    return params.n_sections * M


def punctured_count(params: EnsembleParams, M: int) -> Fraction:
    return Fraction(params.dr * M, params.dl) * params.n_sections


@dataclass(frozen=True, eq=False)
class TannerGraph:
    """Sampled factor graph: per-type edge lists plus symbol grouping.

    Ids are section-major. Punctured bits: (dr/dl)*M per section and
    transmitted bits: M per section, both over sections -L..L. Checks: M per
    section over sections -L..L+w-1 (sockets whose source section is
    shortened are dropped, so boundary checks run at reduced degree).
    """

    params: EnsembleParams
    M: int
    m: int
    t1_bit: np.ndarray
    t1_check: np.ndarray
    t2_bit: np.ndarray
    t2_check: np.ndarray
    symbols: np.ndarray  # (n_symbols, m) transmitted-bit ids

    @property
    def punctured_per_section(self) -> int:
        return self.params.dr * self.M // self.params.dl

    @property
    def n_punctured(self) -> int:
        return self.params.n_sections * self.punctured_per_section

    @property
    def n_transmitted(self) -> int:
        return self.params.n_sections * self.M

    @property
    def n_checks(self) -> int:
        return self.params.n_check_sections * self.M

    @property
    def n_symbols(self) -> int:
        return self.symbols.shape[0]


def _parallel_edge_reps(bits: np.ndarray, checks: np.ndarray) -> list[int]:
    """Every edge of a repeated (bit, check) pair but its lowest-index one,
    ordered by (bit, check, index).

    The keys go through the default (unstable) sort, which is several times
    faster than a stable one; only the few repeated-key groups are then put
    back in index order.
    """
    stride = np.int64(int(checks.max()) + 1)
    key = bits.astype(np.int64) * stride + checks
    order = np.argsort(key)
    sorted_key = key[order]
    dup = sorted_key[1:] == sorted_key[:-1]
    if not dup.any():
        return []
    in_group = np.zeros(len(key), dtype=bool)
    in_group[1:] = dup
    in_group[:-1] |= dup
    pos = np.flatnonzero(in_group)
    group_key, edges = sorted_key[pos], order[pos]
    edges = edges[np.lexsort((edges, group_key))]
    return edges[1:][group_key[1:] == group_key[:-1]].tolist()


def _partners(ends: np.ndarray) -> np.ndarray:
    """The other edge at the same endpoint, for endpoints of degree <= 2; n
    (the edge count) for none, and entry n maps to n."""
    n = len(ends)
    out = np.full(n + 1, n, dtype=np.int64)
    # Any sort will do: an endpoint has at most two edges, and the pair is
    # written both ways.
    order = np.argsort(ends)
    pair = np.nonzero(ends[order[1:]] == ends[order[:-1]])[0]
    out[order[pair]] = order[pair + 1]
    out[order[pair + 1]] = order[pair]
    return out


def _cycle_reps(at_bit: np.ndarray, at_check: np.ndarray, max_bits: int) -> list[int]:
    """Smallest edge index of each cycle spanning at most max_bits bits, in
    ascending order, from the edges' partners at their bits and checks (see
    _partners).

    Assumes both endpoints have degree <= 2 in this edge set, so components
    are paths and cycles. A step to the partner edge at the check and then to
    the partner edge at the bit moves two edges along a cycle, so an edge on a
    cycle of k bits returns to itself after k steps.
    """
    start = np.arange(len(at_bit) - 1)
    low, via = start, at_check[start]
    closed = np.zeros(len(start), dtype=bool)
    for _ in range(max_bits):
        cur = at_bit[via]
        closed |= cur == start
        via = at_check[cur]
        low = np.minimum(low, np.minimum(cur, via))
    return np.unique(low[closed]).tolist()


def _short_cycle_reps(bits: np.ndarray, checks: np.ndarray, max_bits: int) -> list[int]:
    """_cycle_reps of the edge set joining bits[e] to checks[e]."""
    return _cycle_reps(_partners(bits), _partners(checks), max_bits)


# Re-wiring passes _condition_matching makes before it gives up.
_MAX_PASSES = 500


def _condition_matching(
    bits: np.ndarray,
    checks: np.ndarray,
    quota: int,
    rng,
    *,
    forbid_cycle_bits: int = 0,
) -> None:
    """Re-wire check sockets until the edge set has no parallel edges and,
    when forbid_cycle_bits > 0, no cycles spanning that few bits.

    Swaps stay inside the offset group of each edge (consecutive quota-sized
    blocks), so every per-(section, offset) quota is preserved exactly.

    A pass swaps the edges it finds in the order found, drawing one socket
    from rng per edge, so the finders must return the same edges in the same
    order however they sort: parallel edges by (bit, check, index) with the
    repeated keys put back in index order after an unstable sort, then cycle
    representatives in ascending order. Swaps move only checks, so the
    bit-side partners of the cycle walk are found once.
    """
    at_bit = _partners(bits) if forbid_cycle_bits else None
    for _ in range(_MAX_PASSES):
        bad = _parallel_edge_reps(bits, checks)
        if forbid_cycle_bits:
            bad += _cycle_reps(at_bit, _partners(checks), forbid_cycle_bits)
        if not bad:
            return
        for e in bad:
            g = e // quota
            p = g * quota + int(rng.integers(0, quota))
            checks[e], checks[p] = int(checks[p]), int(checks[e])
    raise ValueError("unable to condition the socket matching; use a larger M")


def sample_graph(params: EnsembleParams, M: int, m: int, rng) -> TannerGraph:
    """Uniform socket matching honoring the per-offset edge quotas.

    Each bit section splits its sockets uniformly into w offset groups of
    exact quota size; each check section does the same keyed by source
    offset; groups are paired elementwise after independent shuffles.

    The matching is then conditioned on having no parallel (bit, check)
    edges and, when dg == 2, no transmitted-bit cycles spanning four bits or
    fewer, via quota-preserving socket swaps inside each offset group.
    Unconditioned matchings put doubled sockets and short degree-2 cycles on
    the graph, which cost an error floor at practical section sizes.
    """
    dl, dr, dg, w = params.dl, params.dr, params.dg, params.w
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if dr * M % dl:
        raise ValueError(f"dl={dl} must divide dr*M={dr * M}")
    if dr * M % w:
        raise ValueError(f"w={w} must divide dr*M={dr * M}")
    if dg * M % w:
        raise ValueError(f"w={w} must divide dg*M={dg * M}")
    if M % m:
        raise ValueError(f"symbol width m={m} must divide M={M}")
    nsec = params.n_sections
    ncsec = params.n_check_sections
    npun = dr * M // dl
    q1 = dr * M // w
    q2 = dg * M // w

    def socket_chunks(n_groups: int, per_section: int, degree: int, quota: int):
        out = np.empty((n_groups, w, quota), dtype=np.int64)
        for s in range(n_groups):
            socks = np.repeat(
                np.arange(s * per_section, (s + 1) * per_section), degree
            )
            rng.shuffle(socks)
            out[s] = socks.reshape(w, quota)
        return out

    src1 = socket_chunks(nsec, npun, dl, q1)
    src2 = socket_chunks(nsec, M, dg, q2)
    dst1 = socket_chunks(ncsec, M, dr, q1)
    dst2 = socket_chunks(ncsec, M, dg, q2)

    # Edges run section-major, then by offset j: group (s, j) pairs bit
    # section s with check section s + j.
    off = np.arange(w)
    dst_sec = np.arange(nsec)[:, None] + off
    t1_bit = src1.ravel()
    t1_check = dst1[dst_sec, off].ravel()
    t2_bit = src2.ravel()
    t2_check = dst2[dst_sec, off].ravel()
    # A (bit, check) pair fixes its offset group (j = check section minus bit
    # section), so in-group re-wiring reaches every violation.
    _condition_matching(t1_bit, t1_check, q1, rng)
    _condition_matching(
        t2_bit, t2_check, q2, rng, forbid_cycle_bits=4 if dg == 2 else 0
    )

    symbols = np.concatenate(
        [(rng.permutation(M) + s * M).reshape(M // m, m) for s in range(nsec)]
    )
    return TannerGraph(
        params=params,
        M=M,
        m=m,
        t1_bit=t1_bit,
        t1_check=t1_check,
        t2_bit=t2_bit,
        t2_check=t2_check,
        symbols=symbols,
    )
