"""Channels with affine-subspace outputs over F_2^m: dimension laws,
normalized capacity, and the erasure transfer function of the per-symbol
detector node."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral

import numpy as np

from .gf2 import MAX_WIDTH, gbinom

CHANNEL_KINDS = ("w", "cd", "bd")
_PROB_TOL = 1e-12

# Widest symbol whose transfer polynomial the monomial form below evaluates
# within 1e-12 of exact, with a margin. Its coefficients alternate in sign,
# and the largest error over cd/bd laws (7 values of eps, 41 z-points) grows
# with m: 4e-13 at m=15, 7e-13 at 16, 1.3e-12 at 17, 2e-9 at 24, 3e-5 at 32.
TRANSFER_MAX_M = 15


@dataclass(frozen=True)
class DimensionDistribution:
    """Law p_0..p_m of the noise-subspace dimension for m-bit symbols."""

    m: int
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(self.probs) != self.m + 1:
            raise ValueError(
                f"need {self.m + 1} probabilities, got {len(self.probs)}"
            )
        for p in self.probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    def mean_dimension(self) -> float:
        return sum(d * p for d, p in enumerate(self.probs))


@dataclass(frozen=True)
class ChannelFamily:
    """One of the channel families "w", "cd", "bd" over m-bit symbols.

    `parameter` is the fixed noise dimension for kind "w" and the erasure-like
    parameter in [0, 1] for "cd"/"bd".
    """

    kind: str
    m: int
    parameter: float

    def __post_init__(self) -> None:
        _check_channel(self.kind, self.m, self.parameter)

    @classmethod
    def concentrated(cls, m: int, eps: float) -> "ChannelFamily":
        return cls("cd", m, eps)


def _check_channel(kind: str, m: int, *parameters: float) -> None:
    """Check kind and m once, then each parameter; the first bad one raises."""
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    # The int test first: the Integral test alone made dimension_law twice as slow.
    if type(m) is not int and (isinstance(m, bool) or not isinstance(m, Integral)):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= MAX_WIDTH:
        raise ValueError(f"m must be in 1..{MAX_WIDTH}, got {m}")
    for parameter in parameters:
        if kind == "w":
            if parameter != int(parameter) or not 0 <= parameter <= m:
                raise ValueError(
                    f"kind 'w' needs an integer dimension in 0..{m}, got {parameter}"
                )
        elif not 0.0 <= parameter <= 1.0:
            raise ValueError(f"parameter must be in [0, 1], got {parameter}")


def dimension_law(kind: str, m: int, parameter: float) -> tuple[float, ...]:
    """Probabilities p_0..p_m of the noise dimension: a point mass for "w",
    mass split between floor(eps*m) and floor(eps*m)+1 for "cd", binomial(m,
    eps) for "bd". Takes the same arguments as ChannelFamily and builds no
    object, so a caller can scan the parameter cheaply. A Fraction parameter
    gives the law in exact rationals, by the same formulas."""
    _check_channel(kind, m, parameter)
    return _law(kind, m, parameter)


def _law(kind: str, m: int, parameter: float) -> tuple[float, ...]:
    """dimension_law without its checks, for arguments _check_channel passed."""
    one = Fraction(1) if type(parameter) is Fraction else 1.0
    p = [0 * one] * (m + 1)
    if kind == "w":
        p[int(parameter)] = one
    elif kind == "cd":
        x = parameter * m
        d0 = int(math.floor(x))
        if d0 >= m:
            p[m] = one
        else:
            frac = x - d0
            p[d0] = one - frac
            p[d0 + 1] = frac
    else:
        for d in range(m + 1):
            p[d] = math.comb(m, d) * parameter**d * (one - parameter) ** (m - d)
    return tuple(p)


def dimension_distribution(family: ChannelFamily) -> DimensionDistribution:
    """Dimension law of the family (see dimension_law)."""
    return DimensionDistribution(
        family.m, dimension_law(family.kind, family.m, family.parameter)
    )


def capacity(dist: DimensionDistribution) -> float:
    """Normalized capacity per input bit: 1 - E[dim(V)]/m."""
    return 1.0 - dist.mean_dimension() / dist.m


@lru_cache(maxsize=None)
def _erasure_kernel(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """c[i][j]: probability the outgoing message is erased given the unknown
    support has dimension i and the noise subspace dimension j.

    Averages the subspace-intersection law over the dimension k of the
    intersection; the k-th term carries the exact count of k-subspaces whose
    first coordinate is not identically zero. All arithmetic is exact.
    """
    c = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(m + 1):
            tot = 0
            for k in range(max(0, i + j - m), min(i, j) + 1):
                tot += (
                    2 ** ((i - k) * (j - k))
                    * (gbinom(i, k) - gbinom(i - 1, k))
                    * gbinom(m - i, j - k)
                )
            c[i][j] = Fraction(tot, gbinom(m, j))
    return tuple(tuple(row) for row in c)


@lru_cache(maxsize=None)
def _mixture_poly_fractions(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """K[j][r]: coefficient of z^r in the transfer function for unit mass at
    noise dimension j, in exact rationals. Every DE path and transfer_poly
    build K here, so m > TRANSFER_MAX_M is rejected here."""
    if not 1 <= m <= TRANSFER_MAX_M:
        raise ValueError(
            f"the transfer polynomial is evaluated for m in 1..{TRANSFER_MAX_M}, got m={m}"
        )
    c = _erasure_kernel(m)
    n = m - 1
    K = [[Fraction(0)] * m for _ in range(m + 1)]
    for j in range(m + 1):
        for t in range(m):  # t erased companions -> unknown support dim t+1
            w = math.comb(n, t)
            for u in range(n - t + 1):
                K[j][t + u] += w * math.comb(n - t, u) * (-1) ** u * c[t + 1][j]
    return tuple(tuple(row) for row in K)


@lru_cache(maxsize=None)
def _mixture_poly_matrix(m: int) -> np.ndarray:
    """_mixture_poly_fractions(m) converted to float once."""
    return np.array([[float(x) for x in row] for row in _mixture_poly_fractions(m)])


def transfer_poly(dist: DimensionDistribution) -> np.ndarray:
    """Ascending z-polynomial coefficients of the transfer function."""
    return np.asarray(dist.probs) @ _mixture_poly_matrix(dist.m)

