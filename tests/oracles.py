"""Second implementations of package functions, for tests only.

`transfer_f` evaluates the package's transfer polynomial with numpy's
`polyval`, beside the Horner loop in DE's q-update; `transfer_f_oracle`
computes the same function by brute-force enumeration, without the kernel
composition behind the polynomial. `sample_symbol_noise` draws the decoder's
per-symbol noise one generator call at a time, beside the word-stream sampler
in `scmn.sim`; both must leave the same draws and the same generator state.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from scmn.channel import DimensionDistribution, transfer_poly
from scmn.gf2 import (
    ENUM_MAX_AMBIENT,
    SubspaceBasis,
    enumerate_subspaces,
    intersect,
    rref_bits,
    sample_subspace,
    zero_coordinate_mask,
)


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
