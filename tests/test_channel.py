import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import subspaces_of, transfer_f, transfer_f_oracle
from scmn.channel import (
    TRANSFER_MAX_M,
    ChannelFamily,
    DimensionDistribution,
    capacity,
    dimension_distribution,
    dimension_law,
    transfer_poly,
    _erasure_kernel,
)
from scmn.gf2 import SubspaceBasis
from scmn.sim import _sample_symbol_noise


def cd(m, eps):
    return dimension_distribution(ChannelFamily.concentrated(m, eps))


def bd(m, eps):
    return dimension_distribution(ChannelFamily("bd", m, eps))


class TestDistributions:
    def test_cd_integral_mass(self):
        assert cd(2, 0.5).probs == (0.0, 1.0, 0.0)

    def test_cd_split_mass(self):
        p = cd(2, 0.3).probs
        assert p[0] == pytest.approx(0.4, abs=1e-15)
        assert p[1] == pytest.approx(0.6, abs=1e-15)
        assert p[2] == 0.0

    def test_cd_eps_one(self):
        assert cd(3, 1.0).probs == (0.0, 0.0, 0.0, 1.0)

    def test_bd_is_binomial(self):
        assert bd(2, 0.5).probs == (0.25, 0.5, 0.25)
        for d, p in enumerate(bd(4, 0.3).probs):
            assert p == pytest.approx(math.comb(4, d) * 0.3**d * 0.7 ** (4 - d))

    def test_w_point_mass(self):
        dist = dimension_distribution(ChannelFamily("w", 3, 0))
        assert dist.probs == (1.0, 0.0, 0.0, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChannelFamily("cd", 2, 1.5)
        with pytest.raises(ValueError):
            ChannelFamily("w", 2, 3)
        with pytest.raises(ValueError):
            ChannelFamily("nope", 2, 0.5)

    def test_dimension_law_matches_distribution(self):
        rng = np.random.default_rng(11)
        for m in range(1, 9):
            for d in range(m + 1):
                fam = ChannelFamily("w", m, d)
                assert dimension_law("w", m, d) == dimension_distribution(fam).probs
            grid = [0.0, 1.0, *(k / m for k in range(m + 1)), *rng.uniform(0, 1, 5)]
            for kind in ("cd", "bd"):
                for eps in grid:
                    fam = ChannelFamily(kind, m, float(eps))
                    law = dimension_law(kind, m, float(eps))
                    assert law == dimension_distribution(fam).probs

    def test_dimension_law_validation(self):
        bad = (
            ("cd", 2, 1.5),
            ("bd", 2, float("nan")),
            ("w", 2, 3),
            ("nope", 2, 0.5),
            ("cd", 2.5, 0.5),
            ("cd", True, 0.5),
            ("bd", 2.0, 0.4),
        )
        for args in bad:
            with pytest.raises(ValueError):
                dimension_law(*args)
            with pytest.raises(ValueError):
                ChannelFamily(*args)
        # numpy integers are integers.
        assert dimension_law("bd", np.int64(2), 0.4) == dimension_law("bd", 2, 0.4)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DimensionDistribution(2, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            DimensionDistribution(2, (1.2, -0.2, 0.0))


class TestCapacity:
    def test_cd_bd_identity(self):
        for m in range(1, 7):
            for e10 in range(1, 10):
                eps = e10 / 10
                assert abs(capacity(cd(m, eps)) - (1 - eps)) < 1e-12
                assert abs(capacity(bd(m, eps)) - (1 - eps)) < 1e-12

    def test_w_channel(self):
        assert capacity(dimension_distribution(ChannelFamily("w", 4, 0))) == 1.0
        assert capacity(dimension_distribution(ChannelFamily("w", 4, 3))) == pytest.approx(0.25)


class TestSampleNoise:
    """The decoder's per-symbol noise sampler, on both of its branches:
    enumeration for m <= 4 and per-symbol subspace sampling above."""

    # (m, symbols per draw); the m > 4 branch costs up to ~0.05 ms per symbol
    # (the full space, whose bases are rejected most often).
    SIZES = ((2, 80000), (3, 80000), (5, 2000), (6, 2000))

    def test_noiseless(self):
        rng = np.random.default_rng(0)
        for m, _ in self.SIZES:
            dist = dimension_distribution(ChannelFamily("w", m, 0))
            bases, idx, z = _sample_symbol_noise(dist, 200, rng)
            subs = subspaces_of(m, bases)
            assert np.all(z == 0)
            assert all(subs[i] == SubspaceBasis.zero(m) for i in idx)

    def test_cd_integral_dimension(self):
        rng = np.random.default_rng(1)
        for m, _ in self.SIZES:
            d = m // 2
            bases, idx, z = _sample_symbol_noise(cd(m, d / m), 200, rng)
            subs = subspaces_of(m, bases)
            for i, zi in zip(idx.tolist(), z.tolist()):
                assert subs[i].dim == d
                assert subs[i].contains(zi)

    def test_full_space_uniform_noise(self):
        rng = np.random.default_rng(2)
        for m, n in self.SIZES:
            dist = dimension_distribution(ChannelFamily("w", m, m))
            _, _, z = _sample_symbol_noise(dist, n, rng)
            cell = 1.0 / (1 << m)
            freq = np.bincount(z, minlength=1 << m) / n
            if m <= 3:
                sigma = (cell * (1.0 - cell) / n) ** 0.5
                assert np.all(np.abs(freq - cell) < 3 * sigma)
            # A 3-sigma bound on each of 32 or 64 cells fails by chance, so
            # the whole histogram is judged by its chi-square statistic:
            # mean k = 2^m - 1, sigma sqrt(2k).
            k = (1 << m) - 1
            chi2 = n * ((freq - cell) ** 2).sum() / cell
            assert chi2 < k + 3 * (2 * k) ** 0.5


class TestTransfer:
    def test_m1_is_flat(self):
        dist = cd(1, 0.37)
        for z in (0.0, 0.25, 0.5, 1.0):
            assert transfer_f(dist, z) == 0.37

    def test_hand_value_at_zero(self):
        assert transfer_f(cd(2, 0.5), 0.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_noiseless_gives_zero(self):
        dist = dimension_distribution(ChannelFamily("w", 3, 0))
        for z in (0.0, 0.5, 1.0):
            assert transfer_f(dist, z) == 0.0

    def test_z_domain(self):
        with pytest.raises(ValueError):
            transfer_f(cd(2, 0.5), 1.1)
        with pytest.raises(ValueError):
            transfer_f_oracle(cd(2, 0.5), -0.1)

    def test_oracle_guard(self):
        with pytest.raises(ValueError):
            transfer_f_oracle(cd(5, 0.5), 0.5)

    def test_oracle_spot_checks(self):
        for kind_dist in (cd(2, 0.35), bd(3, 0.6), bd(2, 0.15)):
            for z in (0.0, 0.2, 0.55, 0.9, 1.0):
                assert transfer_f(kind_dist, z) == pytest.approx(
                    transfer_f_oracle(kind_dist, z), abs=1e-12
                )

    def test_monotone_in_z(self):
        zs = np.linspace(0, 1, 101)
        for dist in (cd(2, 0.4), cd(3, 0.7), bd(3, 0.5), bd(4, 0.25)):
            vals = [transfer_f(dist, z) for z in zs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_monotone_under_dimension_shift(self):
        # same floor bracket: more noise mass on the higher dimension
        for z in np.linspace(0, 1, 21):
            assert transfer_f(cd(3, 0.45), z) >= transfer_f(cd(3, 0.40), z) - 1e-14

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=5),
        st.floats(min_value=0, max_value=1),
    )
    def test_range_and_endpoint_order(self, m, weights, z):
        raw = np.zeros(m + 1)
        raw[: len(weights[: m + 1])] = weights[: m + 1]
        if raw.sum() == 0:
            raw[0] = 1.0
        dist = DimensionDistribution(m, tuple(raw / raw.sum()))
        val = transfer_f(dist, z)
        assert 0.0 <= val <= 1.0
        assert transfer_f(dist, 0.0) <= transfer_f(dist, 1.0) + 1e-14

    def test_poly_degree(self):
        assert transfer_poly(cd(3, 0.4)).shape == (3,)

    def test_matches_exact_bernstein_sum(self):
        # The float polynomial against the exact Bernstein-form sum over t
        # erased companions of C(m-1, t) z^t (1-z)^(m-1-t) c[t+1][j], mixed
        # by the dimension law, in rational arithmetic at the float z.
        zs = np.linspace(0.0, 1.0, 41)
        eps_grid = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
        for m in range(1, TRANSFER_MAX_M + 1):
            c = _erasure_kernel(m)
            n = m - 1
            per_dim = []  # per z: exact f for unit mass at each dimension j
            for z in zs:
                zq = Fraction(float(z))
                b = [math.comb(n, t) * zq**t * (1 - zq) ** (n - t) for t in range(m)]
                per_dim.append(
                    [sum(b[t] * c[t + 1][j] for t in range(m)) for j in range(m + 1)]
                )
            for dist in [law(m, eps) for law in (cd, bd) for eps in eps_grid]:
                coef = transfer_poly(dist)
                for z, g in zip(zs, per_dim):
                    exact = sum(Fraction(p) * gj for p, gj in zip(dist.probs, g))
                    got = npoly.polyval(float(z), coef)
                    assert abs(got - float(exact)) <= 1e-12, (m, dist, z)

    def test_width_past_limit_rejected(self):
        with pytest.raises(ValueError, match="1..15"):
            transfer_poly(cd(TRANSFER_MAX_M + 1, 0.5))
        with pytest.raises(ValueError):
            transfer_f(bd(64, 0.5), 0.5)
        # capacity needs no transfer polynomial and keeps the full range
        assert capacity(bd(64, 0.5)) == pytest.approx(0.5)
