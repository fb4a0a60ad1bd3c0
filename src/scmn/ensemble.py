"""Coupled two-edge-type (MacKay-Neal style) ensembles: design rate and
finite Tanner graph sampling with channel-symbol grouping."""

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


# Most edges sample_graph builds, over both edge types: a decoding trial
# peaks near 90 bytes per edge (470 MB for the 5.3 million edges of M = 32,256
# at L = 20, w = 3), so about 1.5 GB at the bound.
MAX_GRAPH_EDGES = 2**24


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
    # Each node's edges as one row of a table: bit b's in row b, check c's in
    # row c, with -1 for the sockets a boundary check leaves unused.
    t1_bit_edges: np.ndarray  # (n_punctured, dl)
    t2_bit_edges: np.ndarray  # (n_transmitted, dg)
    t1_check_edges: np.ndarray  # (n_checks, dr)
    t2_check_edges: np.ndarray  # (n_checks, dg)

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


def _bit_partners(table: np.ndarray) -> np.ndarray:
    """The other edge at the same bit, from an (n_bits, 2) edge table; entry
    n (the edge count) maps to n."""
    n = table.size
    out = np.empty(n + 1, dtype=np.int64)
    out[table[:, 0]] = table[:, 1]
    out[table[:, 1]] = table[:, 0]
    out[n] = n
    return out


def _check_partners(checks: np.ndarray) -> np.ndarray:
    """The other edge at the same check, for checks of degree <= 2; n (the
    edge count) for none, and entry n maps to n."""
    n = len(checks)
    edge = np.arange(n)
    # Of two edges at a check one index survives the scatter, whichever it
    # is; the other edge reads it back and is paired with it.
    kept = np.empty(int(checks.max()) + 1, dtype=np.int64)
    kept[checks] = edge
    other = kept[checks]
    lost = np.flatnonzero(other != edge)
    out = np.full(n + 1, n, dtype=np.int64)
    out[lost] = other = other[lost]
    out[other] = lost
    return out


def _bad_edges(
    table: np.ndarray,
    checks: np.ndarray,
    bits: np.ndarray | None = None,
    at_bit: np.ndarray | None = None,
    at_check: np.ndarray | None = None,
    max_bits: int = 0,
) -> list[int]:
    """The edges a conditioning pass re-wires, among the rows of the given
    bits (every bit for None): every edge of a repeated (bit, check) pair
    but its lowest-index one, ordered by (bit, check, index); then, when
    max_bits > 0, the smallest edge of each cycle through those bits
    spanning at most max_bits bits, in ascending order.

    table[b] holds bit b's edges and bits must be distinct. The cycle walk
    needs degree-2 bits, checks of degree <= 2 and the edges' partners at
    their bits and checks (_bit_partners, _check_partners); a bit on a cycle
    has both its edges on it, so one walk per bit finds every cycle through
    it. A step to the partner edge at the check and then to the partner edge
    at the bit moves two edges along a cycle, so an edge on a cycle of k bits
    returns to itself after k steps.
    """
    rows = table if bits is None else table[bits]
    at = checks[rows]
    degree = rows.shape[1]
    dup = np.zeros(len(rows), dtype=bool)
    for i in range(degree):
        for j in range(i + 1, degree):
            dup |= at[:, i] == at[:, j]
    hit = np.flatnonzero(dup)
    bad = []
    if len(hit):
        owner = np.repeat(hit if bits is None else bits[hit], degree)
        at, edges = at[hit].ravel(), rows[hit].ravel()
        order = np.lexsort((edges, at, owner))
        owner, at, edges = owner[order], at[order], edges[order]
        same = (owner[1:] == owner[:-1]) & (at[1:] == at[:-1])
        bad = edges[1:][same].tolist()
    if max_bits:
        start = rows[:, 0]
        via, closed = at_check[start], np.zeros(len(start), dtype=bool)
        for _ in range(max_bits):
            cur = at_bit[via]
            closed |= cur == start
            via = at_check[cur]
        # Short cycles are few: walk them again for their smallest edges.
        low = start = start[closed]
        via = at_check[start]
        for _ in range(max_bits):
            cur = at_bit[via]
            via = at_check[cur]
            low = np.minimum(low, np.minimum(cur, via))
        bad += np.unique(low).tolist()
    return bad


def _rewire(
    checks: np.ndarray, at_check: np.ndarray | None, bad: list[int], quota: int, rng
) -> list[int]:
    """Swap the check of each edge in bad, in order, with that of an edge
    drawn from rng in its offset group (consecutive quota-sized blocks), and
    keep the check-side partners at_check (if any) current; returns the
    edges touched, each swap's pair. One call draws every offset, as one call
    per edge in turn would."""
    touched = []
    for e, r in zip(bad, rng.integers(0, quota, size=len(bad)).tolist()):
        p = e // quota * quota + r
        ce, cp = int(checks[e]), int(checks[p])
        checks[e], checks[p] = cp, ce
        if at_check is not None and ce != cp:
            a, b = int(at_check[e]), int(at_check[p])
            at_check[e], at_check[p] = b, a
            at_check[a], at_check[b] = p, e
            # a or b may be the no-partner entry, which stays fixed
            at_check[-1] = len(checks)
        touched += (e, p)
    return touched


# Re-wiring passes _condition_matching makes before it gives up.
_MAX_PASSES = 500


def _condition_matching(
    bits: np.ndarray,
    table: np.ndarray,
    checks: np.ndarray,
    quota: int,
    rng,
    *,
    forbid_cycle_bits: int = 0,
) -> list[int]:
    """Re-wire check sockets until the edge set has no parallel edges and,
    when forbid_cycle_bits > 0, no cycles spanning that few bits. Returns
    the edges the swaps touched: every edge whose check moved is among them,
    and between them they hold the checks they held before.

    Edge e joins bits[e] to checks[e], and table[b] holds bit b's edges.
    Swaps stay inside the offset group of each edge (consecutive quota-sized
    blocks), so every per-(section, offset) quota is preserved exactly.

    A pass swaps the edges it finds in the order found, drawing one socket
    from rng per edge. The first pass scans every bit; a later one only the
    bits of the edges the previous pass touched. Every parallel pair and
    short cycle found was broken by swapping one of its edges, and a
    violation made of untouched edges would have existed, and been found,
    before; so each pass finds the same edges, in the same order, as a scan
    of the whole edge set. Swaps move only checks, so the bit-side partners
    of the cycle walk are found once and the check-side ones kept current.
    """
    at_bit = at_check = None
    if forbid_cycle_bits:
        at_bit, at_check = _bit_partners(table), _check_partners(checks)
    rows, moved = None, []
    for _ in range(_MAX_PASSES):
        bad = _bad_edges(table, checks, rows, at_bit, at_check, forbid_cycle_bits)
        if not bad:
            return moved
        touched = _rewire(checks, at_check, bad, quota, rng)
        moved += touched
        rows = np.unique(bits[touched])
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
    if isinstance(m, bool) or not isinstance(m, Integral) or m < 1:
        raise ValueError(f"symbol width m must be an integer >= 1, got {m!r}")
    if isinstance(M, bool) or not isinstance(M, Integral):
        raise ValueError(f"M must be an integer, got {M!r}")
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

    n_edges = int(dr + dg) * int(M) * int(nsec)
    if n_edges > MAX_GRAPH_EDGES:
        raise ValueError(f"a graph of {n_edges} edges exceeds {MAX_GRAPH_EDGES}; use a smaller M or L")

    def socket_order(n_groups: int, per_section: int, degree: int) -> np.ndarray:
        """Row s: section s's sockets in a uniformly random order, by socket
        index k (socket k belongs to the section's node k // degree); one
        shuffle call, with the draws of n_groups rng.permutation calls."""
        return rng.permuted(np.tile(np.arange(per_section * degree), (n_groups, 1)), axis=1)

    # Edges run section-major, then by offset j: group (s, j) pairs bit
    # section s with check section s + j.
    off = np.arange(w)
    dst_sec = np.arange(nsec)[:, None] + off

    def bit_side(order: np.ndarray, per_section: int, degree: int):
        """The bit of each edge, and each bit's edges as a table row."""
        n_groups, n = order.shape
        bits = order // degree + per_section * np.arange(n_groups)[:, None]
        edges = np.empty_like(order)
        np.put_along_axis(edges, order, np.arange(n_groups * n).reshape(n_groups, n), axis=1)
        return bits.ravel(), edges.reshape(-1, degree)

    def check_sockets(order: np.ndarray) -> np.ndarray:
        """The check socket of each edge, numbered over all check sections;
        socket k belongs to check k // degree."""
        sockets = order + order.shape[1] * np.arange(ncsec)[:, None]
        return sockets.reshape(ncsec, w, -1)[dst_sec, off].ravel()

    def check_table(sockets: np.ndarray, checks: np.ndarray, moved: list[int], degree: int):
        """Each check's edges as a table row, -1 at unused sockets. The edges
        whose checks conditioning moved hold the same sockets between them,
        so they take those sockets back in check order."""
        table = np.full(ncsec * M * degree, -1, dtype=np.int64)
        table[sockets] = np.arange(len(sockets))
        moved = np.unique(np.array(moved, dtype=np.int64))
        table[np.sort(sockets[moved])] = moved[np.argsort(checks[moved], kind="stable")]
        return table.reshape(-1, degree)

    t1_bit, t1_bit_edges = bit_side(socket_order(nsec, npun, dl), npun, dl)
    t2_bit, t2_bit_edges = bit_side(socket_order(nsec, M, dg), M, dg)
    sock1 = check_sockets(socket_order(ncsec, M, dr))
    sock2 = check_sockets(socket_order(ncsec, M, dg))
    t1_check, t2_check = sock1 // dr, sock2 // dg
    # A (bit, check) pair fixes its offset group (j = check section minus bit
    # section), so in-group re-wiring reaches every violation.
    moved1 = _condition_matching(t1_bit, t1_bit_edges, t1_check, q1, rng)
    moved2 = _condition_matching(
        t2_bit, t2_bit_edges, t2_check, q2, rng, forbid_cycle_bits=4 if dg == 2 else 0
    )

    # each section's bits in a uniformly random order, m to a symbol
    symbols = (socket_order(nsec, M, 1) + M * np.arange(nsec)[:, None]).reshape(-1, m)
    return TannerGraph(
        params=params,
        M=M,
        m=m,
        t1_bit=t1_bit,
        t1_check=t1_check,
        t2_bit=t2_bit,
        t2_check=t2_check,
        t1_bit_edges=t1_bit_edges,
        t2_bit_edges=t2_bit_edges,
        t1_check_edges=check_table(sock1, t1_check, moved1, dr),
        t2_check_edges=check_table(sock2, t2_check, moved2, dg),
        symbols=symbols,
    )
