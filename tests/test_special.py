import math

import numpy as np
import pytest
from scipy import special as sp

from helmlayer.errors import DomainError, OverflowRangeError
from helmlayer.special import (
    BESSEL_OVERFLOW_RADIUS,
    _series_j_orders,
    bessel_j,
    bessel_j_orders,
    branch_sqrt,
    branch_sqrt_arr,
    generating_partial_sum,
    hankel1,
    hankel1_orders,
    w_map,
    w_map_arr,
)


def series_j(p, z, nterms=200):
    """Independent power-series oracle for J_p, |p| small, |z| moderate."""
    p = int(p)
    if p < 0:
        return (-1) ** p * series_j(-p, z, nterms)
    z = complex(z)
    term = 1.0 + 0.0j
    for j in range(1, p + 1):
        term *= 0.5 * z / j
    acc = term
    for m in range(1, nterms):
        term *= -(0.25 * z * z) / (m * (m + p))
        acc += term
    return acc


def series_j_orders_per_order(z, pmax):
    """The ascending series one order at a time, each with its own stop."""
    n = z.shape[0]
    out = np.zeros((pmax + 1, n), dtype=complex)
    zh = 0.5 * z
    zh2 = -(zh * zh)
    lead = np.ones(n, dtype=complex)
    for p in range(pmax + 1):
        if p > 0:
            lead = lead * zh / p
        term = lead.copy()
        acc = term.copy()
        for m in range(1, 400):
            term = term * zh2 / (m * (m + p))
            acc += term
            if np.all(np.abs(term) <= 1e-18 * (np.abs(acc) + 1e-300)):
                break
        out[p] = acc
    return out


class TestBranchSqrt:
    def test_positive_real(self):
        assert branch_sqrt(4.0) == 2.0

    def test_negative_real_takes_lower_half(self):
        # theta(-4) = -pi under theta in [-pi, pi)
        assert branch_sqrt(-4.0) == pytest.approx(-2j, abs=1e-15)

    def test_vertical_wavenumber_in_band(self):
        # h = branch_sqrt(lambda^2 - k^2) = -i sqrt(k^2 - lambda^2), k=1
        val = branch_sqrt(0.5**2 - 1.0)
        assert val == pytest.approx(-1j * math.sqrt(0.75), abs=1e-15)
        assert val == pytest.approx(-0.8660254037844386j, abs=1e-12)

    def test_matches_principal_off_cut(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=200) + 1j * rng.normal(size=200)
        z = z[np.abs(z.imag) > 1e-12]
        np.testing.assert_allclose(branch_sqrt_arr(z), np.sqrt(z), rtol=1e-14)

    def test_band_and_tail_identities(self):
        k = 1.7
        lam = np.linspace(-3.0, 3.0, 1001)
        h = branch_sqrt_arr(lam**2 - k**2)
        band = np.abs(lam) < k
        np.testing.assert_allclose(
            h[band], -1j * np.sqrt(k**2 - lam[band] ** 2), rtol=0, atol=1e-15
        )
        tail = ~band
        assert np.all(h[tail].imag == 0.0)
        assert np.all(h[tail].real > 0.0)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_j1_of_1_series_oracle(self):
        # frozen from the series oracle summed to machine precision
        want = series_j(1, 1.0)
        assert abs(want - 0.4400505857449335) < 1e-14
        assert bessel_j(1, 1.0) == pytest.approx(want, abs=1e-14)

    def test_growth_bound_single(self):
        z = 2.0 + 1.0j
        bound = (abs(z) / 2) ** 3 / math.factorial(3) * math.exp(abs(z.imag))
        assert abs(bessel_j(3, z)) <= bound

    def test_against_scipy_real(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = int(rng.integers(0, 31))
            x = float(rng.uniform(0.01, 50.0))
            ref = sp.jv(p, x)
            got = bessel_j(p, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-14

    def test_against_scipy_complex(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            p = int(rng.integers(0, 25))
            z = complex(rng.uniform(-30, 30), rng.uniform(-8, 8))
            ref = complex(sp.jv(p, z))
            got = bessel_j(p, z)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_parity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = int(rng.integers(1, 31))
            z = complex(rng.uniform(-50, 50), rng.uniform(-5, 5))
            a = bessel_j(-p, z)
            b = (-1) ** p * bessel_j(p, z)
            assert abs(a - b) <= 1e-13 * max(abs(b), 1e-280)

    def test_growth_bound_randomized(self):
        # |J_p(z)| <= (|z|/2)^|p| e^{|Im z|} / |p|!  over 1e4 samples
        rng = np.random.default_rng(4)
        n = 10_000
        p = rng.integers(-40, 41, size=n)
        z = rng.uniform(-40, 40, size=n) + 1j * rng.uniform(-40, 40, size=n)
        ok = 0
        for pi, zi in zip(p, z):
            if pi == 0 and zi == 0:
                continue
            ap = abs(int(pi))
            bound = (
                (abs(zi) / 2.0) ** ap / math.factorial(ap) * math.exp(abs(zi.imag))
            )
            val = abs(bessel_j(int(pi), zi))
            # the bound may overflow where the value itself is fine
            if math.isinf(bound) or val <= bound * (1 + 1e-12):
                ok += 1
        assert ok == len([1 for pi, zi in zip(p, z) if not (pi == 0 and zi == 0)])

    def test_orders_batch_consistency(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.5, 45, size=12) + 1j * rng.uniform(-4, 4, size=12)
        m = bessel_j_orders(z, 20)
        for i, zi in enumerate(z):
            for p in (-20, -7, 0, 3, 20):
                assert m[p + 20, i] == pytest.approx(bessel_j(p, zi), rel=1e-11)

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("pmax", [0, 1, 16, 32])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_all_orders_series_bitwise_equals_per_order_loop(self, n, pmax, kind):
        rng = np.random.default_rng(1000 * n + pmax)
        for _ in range(20):
            z = rng.uniform(0.0, 12.0, n).astype(complex)
            if kind == "complex":
                z *= np.exp(1j * rng.uniform(-math.pi, math.pi, n))
            got = _series_j_orders(z, pmax)
            assert np.array_equal(got, series_j_orders_per_order(z, pmax))

    def test_overflow_guard(self):
        with pytest.raises(OverflowRangeError):
            bessel_j(0, BESSEL_OVERFLOW_RADIUS + 10.0)
        with pytest.raises(OverflowRangeError):
            bessel_j(257, 1.0)


class TestHankel1:
    def test_h0_of_1(self):
        # J_0(1) + i Y_0(1), both checked against series oracles via scipy
        val = hankel1(0, 1.0)
        assert val.real == pytest.approx(0.7651976865579666, abs=1e-12)
        assert val.imag == pytest.approx(0.0882569642156769, abs=1e-8)

    def test_parity(self):
        assert hankel1(-2, 3.0) == pytest.approx((-1) ** 2 * hankel1(2, 3.0), rel=1e-14)

    def test_free_space_kernel_sign(self):
        # Im{(i/4) H_0^{(1)}(x)} > 0 for small positive x
        assert ((0.25j) * hankel1(0, 0.5)).imag > 0

    def test_wronskian(self):
        # J_{p+1} Y_p - J_p Y_{p+1} = 2/(pi x) to 1e-12 relative.
        # J comes from our own series/recurrence; Y from hankel1's
        # imaginary part (where it is full precision).
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = int(rng.integers(0, 20))
            x = float(rng.uniform(0.05, 40.0))
            jp = bessel_j(p, x).real
            jp1 = bessel_j(p + 1, x).real
            yp = hankel1(p, x).imag
            yp1 = hankel1(p + 1, x).imag
            w = jp1 * yp - jp * yp1
            assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hankel1(0, 0.0)
        with pytest.raises(DomainError):
            hankel1(0, -1.0)

    def test_orders_batch(self):
        x = np.array([0.3, 2.0, 9.5])
        m = hankel1_orders(x, 6)
        for i, xi in enumerate(x):
            for p in (-6, -1, 0, 4):
                assert m[p + 6, i] == pytest.approx(hankel1(p, xi), rel=1e-13)


class TestGeneratingFunction:
    def test_zero_argument(self):
        assert generating_partial_sum(0.0, 0.7 + 0.2j, 1) == pytest.approx(1.0)

    def test_unit_circle_exponential(self):
        om = np.exp(1j * math.pi / 3)
        want = np.exp(0.5 * (om - 1.0 / om))
        got = generating_partial_sum(1.0, om, 20)
        assert abs(got - want) < 1e-12

    def test_exponential_tolerance_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 2:
                z *= 2 / abs(z)
            om = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            want = np.exp(0.5 * z * (om - 1.0 / om))
            got = generating_partial_sum(z, om, 60)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_truncation_bound(self):
        # tail after P terms <= 2 sum_{p>=P} (|z|/2)^p e^{|Im z|} |w|^p / p!
        z = 2.0
        om = np.exp(0.9j)
        want = np.exp(0.5 * z * (om - 1.0 / om))
        for P in range(3, 15):
            got = generating_partial_sum(z, om, P)
            tail = 2.0 * sum(
                (abs(z) / 2) ** p / math.factorial(p) for p in range(P, P + 80)
            )
            assert abs(got - want) <= tail * (1 + 1e-10) + 1e-15

    def test_plane_wave_identity(self):
        # sum J_p(k rho') (-i e^{i theta'} w)^p == exp(-h(lam) y' - i lam x')
        # for real |lam| <= k, rho' <= 2, P = 60
        rng = np.random.default_rng(8)
        k = 1.3
        for _ in range(40):
            lam = rng.uniform(-k, k)
            xp, yp = rng.uniform(-1.4, 1.4, size=2)
            rho = math.hypot(xp, yp)
            if rho > 2.0:
                continue
            th = math.atan2(yp, xp)
            w = w_map(lam, k)
            got = generating_partial_sum(k * rho, -1j * np.exp(1j * th) * w, 60)
            h = branch_sqrt(lam**2 - k**2)
            want = np.exp(-h * yp - 1j * lam * xp)
            assert abs(got - want) < 1e-10


class TestWMap:
    def test_at_origin(self):
        for k in (0.5, 1.0, 3.7):
            assert w_map(0.0, k) == pytest.approx(1j, abs=1e-15)

    def test_unit_modulus_in_band(self):
        assert abs(w_map(0.3, 1.0)) == pytest.approx(1.0, abs=1e-14)
        lam = np.linspace(-0.99, 0.99, 101)
        np.testing.assert_allclose(np.abs(w_map_arr(lam, 1.0)), 1.0, atol=1e-13)

    def test_reflection_product(self):
        lam = 2.5 + 0.1j
        assert w_map(lam, 1.0) * w_map(-lam, 1.0) == pytest.approx(-1.0, abs=1e-13)

    def test_decay_outside_band(self):
        lam = np.linspace(1.5, 40.0, 50)
        w = w_map_arr(lam, 1.0)
        assert np.all(np.abs(w) < 1.0)
        assert np.all(np.diff(np.abs(w)) < 0)
