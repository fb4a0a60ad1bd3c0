"""Exact GF(2) linear algebra on bit-packed vectors (a vector of F_2^m is a
plain int whose bit t holds coordinate t), 2-Gaussian binomial coefficients,
and brute-force subspace enumeration for small ambient width."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._inputs import entries, integer

MAX_WIDTH = 64
ENUM_MAX_AMBIENT = 4


class WidthMismatchError(ValueError):
    """Operands live in different ambient spaces."""


def gbinom(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n (2-Gaussian binomial).

    Exact arbitrary-precision integers; k outside 0..n gives 0.
    """
    n, k = integer("n", n, 0), integer("k", k)
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for l in range(k):
        num *= (1 << n) - (1 << l)
        den *= (1 << k) - (1 << l)
    return num // den


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _rref_ints(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form over F_2 on bit-packed rows.

    Pivot of a row is its lowest set bit; returned rows have strictly
    increasing pivots and each pivot column appears in exactly one row. The
    rows kept so far stay fully reduced, so one pass over them clears every
    pivot column of a new row, and its own pivot is then cleared from them.
    """
    piv: dict[int, int] = {}  # pivot bit -> its row
    for v in rows:
        for b, r in piv.items():
            if v & b:
                v ^= r
        if v:
            b = v & -v
            for c, r in piv.items():
                if r & b:
                    piv[c] = r ^ v
            piv[b] = v
    return tuple(piv[b] for b in sorted(piv))


def _check_fits(v: int, width: int) -> int:
    """v as an int, if it is a vector of F_2^width."""
    if (v := integer("vector", v)) < 0 or v >> width:
        raise WidthMismatchError(f"vector {v:#x} exceeds width {width}")
    return v


@dataclass(frozen=True)
class SubspaceBasis:
    """Linear subspace of F_2^ambient held as its reduced-row-echelon basis.

    A vector of F_2^ambient is a plain int whose bit t holds coordinate t.
    The representation is canonical: two instances describe the same subspace
    iff their row tuples compare equal.
    """

    ambient: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambient", integer("ambient", self.ambient, 1, MAX_WIDTH))
        rows = tuple(_check_fits(r, self.ambient) for r in entries("rows", self.rows))
        object.__setattr__(self, "rows", rows)
        # _rref_ints keeps a canonical basis as it is, and changes any other.
        if _rref_ints(rows) != rows:
            raise ValueError(f"rows {rows} are not a reduced row echelon basis")

    @classmethod
    def zero(cls, ambient: int) -> "SubspaceBasis":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "SubspaceBasis":
        return cls(ambient, tuple(1 << t for t in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def element(self, mask: int) -> int:
        """The sum of the basis rows whose index is a set bit of `mask`."""
        v, mask = 0, integer("mask", mask, 0)
        for i, b in enumerate(self.rows):
            if (mask >> i) & 1:
                v ^= b
        return v

    def vectors(self) -> Iterator[int]:
        """All 2^dim elements, in the order of their masks (meant for small
        dimensions)."""
        return map(self.element, range(1 << self.dim))

    def contains(self, v: int) -> bool:
        v = _check_fits(v, self.ambient)
        for b in self.rows:
            if (v >> _low_bit(b)) & 1:
                v ^= b
        return v == 0


def rref_bits(rows: Iterable[int], ambient: int) -> SubspaceBasis:
    """Canonical basis of the span of `rows`; each must fit the ambient width."""
    ambient = integer("ambient", ambient, 1, MAX_WIDTH)
    rows = [_check_fits(b, ambient) for b in entries("rows", rows)]
    return SubspaceBasis(ambient, _rref_ints(rows))


def intersect(U: SubspaceBasis, V: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of U intersect V (Zassenhaus on bit-packed rows)."""
    if U.ambient != V.ambient:
        raise WidthMismatchError(f"ambients differ: {U.ambient} != {V.ambient}")
    m = U.ambient
    stacked = [b | (b << m) for b in U.rows] + list(V.rows)
    low = (1 << m) - 1
    inter = [r >> m for r in _rref_ints(stacked) if not r & low]
    return rref_bits(inter, m)


def zero_coordinate_mask(U: SubspaceBasis) -> int:
    """Bit t set iff every vector of U has coordinate t equal to zero."""
    support = 0
    for b in U.rows:
        support |= b
    return ~support & ((1 << U.ambient) - 1)


def sample_subspace(m: int, d: int, rng) -> SubspaceBasis:
    """Uniform d-dimensional subspace of F_2^m.

    Rejection-samples d x m generator matrices until the rank is d; every
    subspace has the same number of full-rank generating matrices, so the
    canonicalized result is uniform. Expected retries stay below 4. A row
    is the low m bits of (m + 7) // 8 bytes from rng, a numpy Generator.
    """
    m = integer("m", m, 1, MAX_WIDTH)
    d = integer("d", d, 0, m)
    if d == 0:
        return SubspaceBasis.zero(m)
    while True:
        red = _rref_ints(int.from_bytes(rng.bytes((m + 7) // 8), "little") % (1 << m) for _ in range(d))
        if len(red) == d:
            return SubspaceBasis(m, red)


def enumerate_subspaces(m: int, d: int) -> tuple[SubspaceBasis, ...]:
    """Every d-dimensional subspace of F_2^m exactly once, sorted.

    Brute force over generator tuples, deduplicated through the canonical
    form; ambient width capped at ENUM_MAX_AMBIENT to keep this an oracle.
    """
    m = integer("m", m, 1, ENUM_MAX_AMBIENT)
    return _subspaces(m, integer("d", d, 0, m))


@lru_cache(maxsize=None)
def _subspaces(m: int, d: int) -> tuple[SubspaceBasis, ...]:
    if d == 0:
        return (SubspaceBasis.zero(m),)
    found = set()
    for combo in itertools.product(range(1, 1 << m), repeat=d):
        red = _rref_ints(combo)
        if len(red) == d:
            found.add(red)
    return tuple(SubspaceBasis(m, rows) for rows in sorted(found))


def solve_in_span(
    U: SubspaceBasis, coords: Sequence[int], values: Sequence[int]
) -> int | None:
    """Some vector of U whose bits at `coords` equal `values`, else None.

    Gaussian elimination on the coefficient system over the basis rows.
    """
    rows = U.rows
    piv: dict[int, tuple[int, int]] = {}
    for c, val in zip(coords, values):
        c, val = integer("coordinate", c, 0, U.ambient - 1), integer("value", val)
        coef = 0
        for ri, b in enumerate(rows):
            coef |= ((b >> c) & 1) << ri
        rhs = val & 1
        while coef:
            lead = _low_bit(coef)
            if lead in piv:
                pc, pr = piv[lead]
                coef ^= pc
                rhs ^= pr
            else:
                piv[lead] = (coef, rhs)
                break
        else:
            if rhs:
                return None
    sol = 0
    for lead in sorted(piv, reverse=True):
        coef, rhs = piv[lead]
        parity = (coef & sol).bit_count() & 1
        if rhs ^ parity:
            sol |= 1 << lead
    return U.element(sol)
