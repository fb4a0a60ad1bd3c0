"""Second implementations of package functions, for tests only.

`transfer_f` evaluates the package's transfer polynomial with numpy's
`polyval`, beside the Horner loop in DE's q-update; `transfer_f_oracle`
computes the same function by brute-force enumeration, without the kernel
composition behind the polynomial. `sample_symbol_noise` draws the decoder's
per-symbol noise one generator call at a time, beside the word-stream sampler
in `scmn.sim`; both must leave the same draws and the same generator state.
The decoder holds subspaces as zero-padded basis rows; `basis_rows` and
`subspaces_of` convert between those rows and `SubspaceBasis` lists.
`sweep_oracle` is one DE sweep by the plain formula, one numpy call per
operation, beside the buffered sweep kernel in `scmn.de`;
`staged_round_oracle` is the staged round by the same formulas, beside the
buffered detector half of `DensityEvolution.staged_round_map`.
`condition_matching` re-wires a socket matching by re-scanning the whole
edge set on every pass, with sorts, beside the incremental passes of
`scmn.ensemble`; both must make the same swaps and the same draws.
`check_count`, `transmitted_count` and `punctured_count` count an
ensemble's nodes, against which the design rate is checked.
"""

import functools
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from scmn.channel import DimensionDistribution, transfer_poly
from scmn.ensemble import EnsembleParams, _coupling_sum
from scmn.gf2 import (
    ENUM_MAX_AMBIENT,
    SubspaceBasis,
    enumerate_subspaces,
    intersect,
    rref_bits,
    sample_subspace,
    zero_coordinate_mask,
)


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


def transfer_f(dist: DimensionDistribution, z: float) -> float:
    """Erasure probability of the detector-to-bit message when each of the
    m-1 companion bits is independently erased with probability z."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must be in [0, 1], got {z}")
    val = float(npoly.polyval(z, transfer_poly(dist)))
    return min(max(val, 0.0), 1.0)


def transfer_f_oracle(dist: DimensionDistribution, z: float) -> float:
    """Exhaustive-expectation evaluation of the transfer function.

    Sums over every noise subspace of every dimension and every erasure
    pattern of the m-1 companion positions; the first position is erased iff
    the intersection of the noise subspace with the span of the unknown unit
    vectors touches coordinate 0. Uses only enumeration and intersection
    primitives, never the kernel composition behind transfer_f. m <= 4.
    """
    m = dist.m
    if m > ENUM_MAX_AMBIENT:
        raise ValueError(f"oracle capped at m <= {ENUM_MAX_AMBIENT}, got {m}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must be in [0, 1], got {z}")
    total = 0.0
    for d, pd in enumerate(dist.probs):
        if pd == 0.0:
            continue
        subs = enumerate_subspaces(m, d)
        w_sub = pd / len(subs)
        for v in subs:
            for pattern in range(1 << (m - 1)):
                n_er = pattern.bit_count()
                w_pat = z**n_er * (1.0 - z) ** (m - 1 - n_er)
                if w_pat == 0.0:
                    continue
                ex_rows = [1] + [
                    1 << t for t in range(1, m) if (pattern >> (t - 1)) & 1
                ]
                va = intersect(rref_bits(ex_rows, m), v)
                if zero_coordinate_mask(va) & 1 == 0:
                    total += w_sub * w_pat
    return total


def basis_rows(subspaces) -> np.ndarray:
    """The decoder's rows for a list of subspaces: row j holds subspace j's
    basis rows, zero-padded to the largest dimension."""
    d = max((V.dim for V in subspaces), default=0)
    return np.array([V.rows + (0,) * (d - V.dim) for V in subspaces], dtype=np.int64).reshape(
        len(subspaces), d
    )


def subspaces_of(m: int, bases: np.ndarray) -> list[SubspaceBasis]:
    """The subspace of each row of the decoder's basis rows. Padding is only
    trailing zeros, and SubspaceBasis rejects any row set that is not a
    canonical RREF basis, so a malformed row fails here."""
    out = []
    for row in bases.tolist():
        d = sum(1 for r in row if r)
        assert not any(row[d:]), f"zero row inside basis {row}"
        out.append(SubspaceBasis(m, tuple(row[:d])))
    return out


def sample_symbol_noise(dist: DimensionDistribution, n_symbols: int, rng):
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
            # The zero subspace takes no draw from rng.
            z[i] = v.element(int(rng.integers(0, 1 << v.dim))) if v.dim else 0
    return subspaces, sub_idx, z


def sweep_oracle(params: EnsembleParams, p, q, fcoef):
    """One DE sweep of the 1-D rates (p, q) at f's coefficients fcoef, as
    fpoly gives them for one parameter; the kernel's lockstep rows are
    checked against it one row at a time. Float rates use the float
    windows; object arrays of Fractions use dense object windows of
    Fraction(1, w), so the sweep is exact."""
    exact = np.asarray(p).dtype == object
    return _PlainSweep(params, exact).sweep(p, q, fcoef)


def staged_round_oracle(params: EnsembleParams, p, q, fcoef):
    """One staged round of the 1-D float rates (p, q) at f's coefficients
    fcoef: q first, then p from the fresh q."""
    return _PlainSweep(params, False).staged_round(p, q, fcoef)


@functools.cache
class _PlainSweep:
    """DensityEvolution's check half, q-update, sweep and staged round as
    they were before the buffered kernels, on windows built the same way."""

    def __init__(self, params: EnsembleParams, exact: bool):
        self.params = params
        w = params.w
        lag = np.arange(params.n_check_sections)[:, None] - np.arange(params.n_sections)
        window = (0 <= lag) & (lag < w)
        if exact:
            self.Wb = np.where(window, Fraction(1, w), Fraction(0))
        else:
            self.Wb = np.where(window, 1.0 / w, 0.0)
        self.Wf = np.ascontiguousarray(self.Wb.T)

    def _check(self, p, q):
        dr, dg = self.params.dr, self.params.dg
        kp = 1 - self.Wb @ p
        kq = 1 - self.Wb @ q
        rp = kp ** (dr - 1)
        rq = kq ** (dg - 1)
        s = self.Wf @ (1 - rp * kp * rq)
        return rp, rq, kq, s

    @staticmethod
    def _q_update(z, s1, fcoef):
        if len(fcoef) == 1:
            q1 = np.full(z.shape, fcoef[0])
        else:
            q1 = np.multiply(z, fcoef[-1])
            for c in fcoef[-2:0:-1]:
                q1 += c
                q1 *= z
            q1 += fcoef[0]
        q1 *= s1
        np.maximum(q1, 0.0, out=q1)
        return np.minimum(q1, 1.0, out=q1)

    def sweep(self, p, q, fcoef):
        dl, dg = self.params.dl, self.params.dg
        rp, rq, kq, s = self._check(p, q)
        p1 = (self.Wf @ (1 - rp * rq * kq)) ** (dl - 1)
        return p1, self._q_update(s**dg, s ** (dg - 1), fcoef)

    def staged_round(self, p, q, fcoef):
        dl, dg = self.params.dl, self.params.dg
        rp, _, _, s = self._check(p, q)
        q1 = self._q_update(s**dg, s ** (dg - 1), fcoef)
        u = 1.0 - rp * (1.0 - self.Wb @ q1) ** dg
        return (self.Wf @ u) ** (dl - 1), q1


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


# Re-wiring passes _condition_matching makes before it gives up.
_MAX_PASSES = 500


def condition_matching(
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
