import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmn.gf2 import (
    SubspaceBasis,
    WidthMismatchError,
    enumerate_subspaces,
    gbinom,
    intersect,
    rref_bits,
    sample_subspace,
    solve_in_span,
    zero_coordinate_mask,
)


class TestGbinom:
    def test_examples(self):
        assert gbinom(2, 1) == 3
        assert gbinom(5, 0) == 1
        assert gbinom(4, 2) == 35  # (15*14)/(3*2)

    def test_out_of_range(self):
        assert gbinom(3, -1) == 0
        assert gbinom(3, 4) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gbinom(-1, 0)

    def test_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert gbinom(n, k) == gbinom(n, n - k)

    def test_pascal_recurrence(self):
        for n in range(1, 13):
            for k in range(n + 1):
                assert gbinom(n, k) == gbinom(n - 1, k - 1) + 2**k * gbinom(n - 1, k)

    def test_matches_enumeration(self):
        for m in range(1, 5):
            for d in range(m + 1):
                assert len(enumerate_subspaces(m, d)) == gbinom(m, d)


class TestSubspaceBasis:
    def test_width_bounds(self):
        with pytest.raises(ValueError):
            SubspaceBasis(0, ())
        with pytest.raises(ValueError):
            SubspaceBasis(65, ())
        assert SubspaceBasis(64, (1 << 63,)).dim == 1

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, (4,))
        with pytest.raises(ValueError):
            SubspaceBasis(64, (1 << 64,))
        with pytest.raises(ValueError):
            SubspaceBasis(2, (-1,))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, (0,))

    def test_pivots_must_increase(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, (2, 1))
        with pytest.raises(ValueError):
            SubspaceBasis(2, (1, 1))

    def test_unreduced_rejected(self):
        # rows 11, 01: the pivot of the second row is set in the first
        with pytest.raises(ValueError):
            SubspaceBasis(2, (0b11, 0b10))

    def test_contains_width(self):
        V = SubspaceBasis.full(2)
        assert V.contains(0b11)
        with pytest.raises(WidthMismatchError):
            V.contains(0b100)
        with pytest.raises(WidthMismatchError):
            V.contains(-1)


class TestRref:
    def test_span_of_full_plane(self):
        # rows 11, 01 span F_2^2; canonical basis is 10, 01
        basis = rref_bits([0b11, 0b10], 2)
        assert basis.rows == (1, 2)

    def test_empty(self):
        basis = rref_bits([], 2)
        assert basis.dim == 0
        assert basis == SubspaceBasis.zero(2)

    def test_duplicates_collapse(self):
        basis = rref_bits([3, 3], 2)
        assert basis.rows == (3,)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            rref_bits([0b100], 2)
        with pytest.raises(WidthMismatchError):
            rref_bits([-1], 2)

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(min_value=0, max_value=2**m - 1), max_size=10),
            )
        )
    )
    def test_idempotent(self, m_rows):
        m, rows = m_rows
        once = rref_bits(rows, m)
        again = rref_bits(once.rows, m)
        assert once == again

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(min_value=0, max_value=2**m - 1), max_size=8),
            )
        )
    )
    def test_span_membership(self, m_rows):
        m, rows = m_rows
        basis = rref_bits(rows, m)
        assert basis.dim <= min(len(rows), m)
        for r in rows:
            assert basis.contains(r)


class TestIntersect:
    def test_lines_meeting_in_origin(self):
        U = rref_bits([0b01], 2)  # span{10}
        V = rref_bits([0b11], 2)  # span{11}
        assert intersect(U, V).dim == 0

    def test_idempotent(self):
        V = rref_bits([0b11, 0b100], 3)
        assert intersect(V, V) == V

    def test_full_space_absorbs(self):
        V = rref_bits([0b11], 2)
        assert intersect(SubspaceBasis.full(2), V) == V

    def test_ambient_mismatch(self):
        with pytest.raises(WidthMismatchError):
            intersect(SubspaceBasis.zero(2), SubspaceBasis.zero(3))

    def test_exhaustive_m3_pairwise(self):
        subs = [s for d in range(4) for s in enumerate_subspaces(3, d)]
        for U in subs:
            for V in subs:
                got = intersect(U, V)
                assert got == intersect(V, U)
                assert got.dim <= min(U.dim, V.dim)
                assert got.dim >= U.dim + V.dim - 3
                # oracle: exhaustive membership
                want = sorted(u for u in U.vectors() if V.contains(u))
                have = sorted(got.vectors())
                assert have == want

    def test_associative_m3(self):
        subs = [s for d in range(4) for s in enumerate_subspaces(3, d)]
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = (subs[i] for i in rng.integers(0, len(subs), 3))
            assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


class TestZeroCoordinateMask:
    def test_single_line(self):
        U = rref_bits([0b011], 3)  # vectors 000, 110
        assert zero_coordinate_mask(U) == 0b100

    def test_zero_subspace(self):
        assert zero_coordinate_mask(SubspaceBasis.zero(3)) == 0b111

    def test_full_space(self):
        assert zero_coordinate_mask(SubspaceBasis.full(2)) == 0

    def test_matches_vector_enumeration(self):
        for d in range(4):
            for U in enumerate_subspaces(3, d):
                mask = zero_coordinate_mask(U)
                for t in range(3):
                    all_zero = all(v >> t & 1 == 0 for v in U.vectors())
                    assert mask >> t & 1 == int(all_zero)


class TestSampleSubspace:
    def test_degenerate_dimensions(self):
        rng = np.random.default_rng(0)
        assert sample_subspace(3, 0, rng) == SubspaceBasis.zero(3)
        assert sample_subspace(3, 3, rng) == SubspaceBasis.full(3)

    def test_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_subspace(3, 4, rng)
        with pytest.raises(ValueError):
            sample_subspace(3, -1, rng)

    def test_uniform_over_lines_of_plane(self):
        rng = np.random.default_rng(123)
        n = 30000
        counts = {}
        for _ in range(n):
            v = sample_subspace(2, 1, rng)
            counts[v.rows] = counts.get(v.rows, 0) + 1
        assert len(counts) == 3
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        for c in counts.values():
            assert abs(c / n - 1 / 3) < 3 * sigma


class TestEnumerate:
    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(5, 1)

    def test_counts(self):
        assert len(enumerate_subspaces(2, 1)) == 3
        assert len(enumerate_subspaces(3, 2)) == 7
        assert enumerate_subspaces(2, 0) == (SubspaceBasis.zero(2),)

    def test_all_distinct_and_right_dimension(self):
        subs = enumerate_subspaces(4, 2)
        assert len(set(subs)) == len(subs)
        assert all(s.dim == 2 for s in subs)


class TestSolveInSpan:
    def test_simple(self):
        V = rref_bits([0b11], 2)
        got = solve_in_span(V, [1], [0])
        assert got == 0
        got = solve_in_span(V, [1], [1])
        assert got == 0b11

    def test_inconsistent(self):
        assert solve_in_span(SubspaceBasis.zero(2), [0], [1]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solution_is_valid(self, data):
        m = data.draw(st.integers(min_value=1, max_value=4))
        d = data.draw(st.integers(min_value=0, max_value=m))
        subs = enumerate_subspaces(m, d)
        V = subs[data.draw(st.integers(min_value=0, max_value=len(subs) - 1))]
        truth = list(V.vectors())[
            data.draw(st.integers(min_value=0, max_value=2**d - 1))
        ]
        coords = data.draw(
            st.lists(st.integers(min_value=0, max_value=m - 1), max_size=m)
        )
        values = [truth >> c & 1 for c in coords]
        got = solve_in_span(V, coords, values)
        assert got is not None
        assert V.contains(got)
        assert all((got >> c) & 1 == v for c, v in zip(coords, values))
