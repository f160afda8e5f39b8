import math

import numpy as np
import pytest

from helmlayer import quadrature
from helmlayer.errors import (
    CoincidentPointsError,
    DomainError,
    ToleranceNotReachedError,
)
from helmlayer.medium import (
    Dir,
    ReactionComponentId,
    acoustic,
    sound_soft_halfspace,
)
from helmlayer.quadrature import (
    CdHMap,
    ContourSpec,
    Segment,
    adaptive_segments,
    cdh_phi,
    cdh_phi_inv,
    evaluate_component,
    free_space_green,
    green,
    in_d_minus,
    in_d_plus,
    integrate_with_pole,
    real_axis_tails,
    sommerfeld_identity_check,
    tail_integral_cdh,
    FrozenComponentRule,
)
from helmlayer.sigma import PoleInfo

SOFT = sound_soft_halfspace(1.0)
HOMOG = acoustic((0.0,), (1.0, 1.0))
TWO_LAYER = acoustic((0.0,), (1.0, 1.5))
SLAB = acoustic((0.0, -1.0), (1.0, 2.0, 1.0))
UPUP = ReactionComponentId(0, 0, Dir.UP, Dir.UP)


from fdtools import fd_value_and_deriv


class TestContourSpec:
    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            ContourSpec(rtol=1e-1)
        with pytest.raises(DomainError):
            ContourSpec(rtol=1e-15)

    def test_pole_mode_domain(self):
        with pytest.raises(DomainError):
            ContourSpec(pole_mode="magic")

    def test_k_split_must_clear_wavenumbers(self):
        with pytest.raises(DomainError):
            ContourSpec(k_split=1.2).resolve_split(TWO_LAYER)


class TestSommerfeldIdentity:
    def test_oblique(self):
        assert sommerfeld_identity_check(1.0, (0.3, 1.0), (0.0, 0.5)) < 1e-8

    def test_vertical(self):
        assert sommerfeld_identity_check(1.0, (0.0, 1.5), (0.0, 0.5)) < 1e-8

    def test_plane_wave_form_order_two(self):
        assert sommerfeld_identity_check(1.0, (0.3, 1.0), (0.0, 0.5), p=2) < 1e-8

    def test_random_geometries(self):
        rng = np.random.default_rng(30)
        for _ in range(12):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            yy = rng.uniform(0.2, 5.0)
            xx = rng.uniform(-4.0, 4.0)
            ref = abs(0.25j * free_space_green(1.0, (0, 0), (0, 1)))  # scale only
            assert sommerfeld_identity_check(k, (xx, yy), (0.0, 0.0)) < 1e-8

    def test_requires_positive_offset(self):
        with pytest.raises(DomainError):
            sommerfeld_identity_check(1.0, (0.0, 0.2), (0.0, 0.5))


class TestEvaluateComponent:
    def test_image_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            x = (rng.uniform(-2, 2), rng.uniform(0.1, 2.5))
            xp = (rng.uniform(-2, 2), rng.uniform(0.1, 2.5))
            got = evaluate_component(SOFT, UPUP, x, xp)
            want = -free_space_green(1.0, x, (xp[0], -xp[1]))
            assert abs(got - want) < 1e-8 * abs(want)

    def test_homogeneous_zero(self):
        v = evaluate_component(HOMOG, UPUP, (0.4, 0.8), (0.0, 0.3))
        assert abs(v) < 1e-10

    def test_full_line_matches_half_line(self):
        x, xp = (0.7, 0.8), (0.0, 0.3)
        half = evaluate_component(TWO_LAYER, UPUP, x, xp)
        full = evaluate_component(TWO_LAYER, UPUP, x, xp, ContourSpec(full_line=True))
        assert abs(half - full) < 1e-10 * max(abs(half), 1e-6)

    def test_contour_sweep_invariance(self):
        x, xp = (0.9, 0.6), (0.0, 0.4)
        base = ContourSpec(rtol=1e-9)
        v0 = evaluate_component(TWO_LAYER, UPUP, x, xp, base)
        ks = base.resolve_split(TWO_LAYER)
        v1 = evaluate_component(
            TWO_LAYER, UPUP, x, xp, ContourSpec(rtol=1e-9, k_split=2 * ks)
        )
        v2 = evaluate_component(
            TWO_LAYER, UPUP, x, xp, ContourSpec(rtol=1e-9, lam_max=80.0)
        )
        assert abs(v1 - v0) < 10 * 1e-9 * abs(v0)
        assert abs(v2 - v0) < 10 * 1e-9 * abs(v0)

    def test_monotone_damping_in_height(self):
        vals = []
        for y in (0.3, 0.6, 1.2, 2.4):
            vals.append(
                abs(evaluate_component(TWO_LAYER, UPUP, (0.0, y), (0.0, y)))
            )
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_layer_mismatch_rejected(self):
        with pytest.raises(DomainError):
            evaluate_component(TWO_LAYER, UPUP, (0.0, -0.5), (0.0, 0.5))

    def test_slab_corrected_vs_perturbed(self):
        x, xp = (0.9, 0.4), (0.0, 0.6)
        vc = evaluate_component(SLAB, UPUP, x, xp, ContourSpec(rtol=1e-10))
        vp = evaluate_component(
            SLAB, UPUP, x, xp, ContourSpec(rtol=1e-9, pole_mode="perturbed")
        )
        assert abs(vc - vp) < 1e-4 * abs(vc)


class TestGreen:
    def test_homogeneous_reduces_to_free_space(self):
        for x, xp in (((0.3, 0.7), (0.0, 0.4)), ((0.3, -0.7), (0.0, 0.4))):
            g = green(HOMOG, x, xp)
            gf = free_space_green(1.0, x, xp)
            assert abs(g - gf) < 1e-10

    def test_coincident_points(self):
        with pytest.raises(CoincidentPointsError):
            green(HOMOG, (0.1, 0.4), (0.1, 0.4))

    def test_reciprocity(self):
        pairs = [
            ((0.4, 0.9), (-0.3, 0.35)),
            ((0.4, 0.9), (-0.3, -0.6)),
            ((0.2, -1.1), (0.9, -0.2)),
        ]
        for x, xp in pairs:
            a = green(TWO_LAYER, x, xp)
            b = green(TWO_LAYER, xp, x)
            assert abs(a - b) < 1e-7 * abs(a)

    def test_interface_jump_conditions(self):
        # both acoustic rows of G hold at the interface (FD in y);
        # lower-side samples run downward so dG/dy flips sign
        h = 1e-2
        xp = (0.0, 0.45)
        for xt in (-0.6, 0.5):
            gu, du = fd_value_and_deriv(
                lambda e: green(TWO_LAYER, (xt, 0.0 + e), xp, ContourSpec(rtol=1e-10)),
                h,
            )
            gl, dl_e = fd_value_and_deriv(
                lambda e: green(TWO_LAYER, (xt, 0.0 - e), xp, ContourSpec(rtol=1e-10)),
                h,
            )
            dl = -dl_e
            assert abs(gu - gl) < 1e-6
            assert abs(du - dl) < 1e-6


class TestIntegrateWithPole:
    def test_analytic_half_residue(self):
        pole = PoleInfo(2.0, 1.0 + 0j, +1)
        val = integrate_with_pole(
            lambda l: np.ones_like(l), lambda l: 1.0 / (l - 2.0), pole, (1.0, 3.0)
        )
        assert abs(val - 1j * math.pi) < 1e-10

    def test_side_flips_only_imaginary_term(self):
        hi = integrate_with_pole(
            lambda l: np.ones_like(l),
            lambda l: 1.0 / (l - 2.0),
            PoleInfo(2.0, 1.0 + 0j, +1),
            (1.0, 3.5),
        )
        lo = integrate_with_pole(
            lambda l: np.ones_like(l),
            lambda l: 1.0 / (l - 2.0),
            PoleInfo(2.0, 1.0 + 0j, -1),
            (1.0, 3.5),
        )
        assert abs((hi - lo) - 2j * math.pi) < 1e-10
        assert abs(hi.real - lo.real) < 1e-10

    def test_zero_residue_is_plain_quadrature(self):
        pole = PoleInfo(2.0, 0.0 + 0.0j, +1)

        def h(l):
            return np.exp(-((l - 1.5) ** 2))

        def s(l):
            return 1.0 / (1.0 + l * l)

        got = integrate_with_pole(h, s, pole, (0.5, 3.5))
        from helmlayer.quadrature import Segment, adaptive_segments

        want = adaptive_segments(
            [Segment(lambda l: h(l) * s(l), 0.5, 3.5)], 1e-10
        ).value[0]
        assert got == complex(want)

    def test_asymmetric_interval(self):
        # residue term plus the genuine principal value of the tail
        pole = PoleInfo(1.0, 1.0 + 0j, +1)
        val = integrate_with_pole(
            lambda l: np.ones_like(l), lambda l: 1.0 / (l - 1.0), pole, (0.0, 3.0)
        )
        want = math.log(2.0) + 1j * math.pi  # pv int_0^3 dl/(l-1) = ln 2
        assert abs(val - want) < 1e-9

    def test_pole_outside_interval(self):
        with pytest.raises(DomainError):
            integrate_with_pole(
                lambda l: l, lambda l: l, PoleInfo(5.0, 1.0 + 0j, 1), (0.0, 1.0)
            )


class TestCdH:
    def test_roundtrip_on_d_plus(self):
        m = CdHMap(beta=0.7, k=1.3)
        rng = np.random.default_rng(32)
        n = 0
        for _ in range(1000):
            lp = m.k + rng.uniform(1e-3, 8.0)
            w0 = complex(cdh_phi(m, lp))
            w = w0 + rng.uniform(1e-6, 8.0)
            assert in_d_plus(m, w)
            z = cdh_phi_inv(m, w)
            back = cdh_phi(m, z)
            assert abs(back - w) < 1e-12 * max(1.0, abs(w))
            n += 1
        assert n == 1000

    def test_real_axis_roundtrip(self):
        m = CdHMap(beta=0.4, k=2.0)
        for w in np.linspace(2.001, 30.0, 50):
            z = cdh_phi_inv(m, w)
            assert abs(cdh_phi(m, z) - w) < 1e-12 * max(1.0, w)

    def test_sign_conditions_on_d_minus(self):
        # points right of the lower hyperbola branch map into the open
        # first quadrant
        m = CdHMap(beta=0.9, k=0.8)
        rng = np.random.default_rng(33)
        count = 0
        for _ in range(1000):
            lp = m.k + rng.uniform(1e-3, 10.0)
            z0 = complex(cdh_phi_inv(m, cdh_phi(m, lp)))  # on gamma^-
            z0 = complex(
                lp * math.cos(m.beta), -math.sqrt(lp**2 - m.k**2) * math.sin(m.beta)
            )
            z = z0 + rng.uniform(1e-9, 10.0)
            if z.imag >= 0 or not in_d_minus(m, z):
                continue
            w = cdh_phi(m, z)
            assert w.real > 0
            assert w.imag > 0
            count += 1
        assert count > 900

    def test_vertex(self):
        m = CdHMap(beta=0.5, k=1.7)
        assert cdh_phi(m, m.k) == pytest.approx(m.k * math.cos(m.beta), abs=1e-14)

    def test_domain_errors(self):
        m = CdHMap(beta=0.5, k=1.0)
        with pytest.raises(DomainError):
            cdh_phi(m, -1.0)
        with pytest.raises(DomainError):
            cdh_phi(m, 0.5)  # on the slit
        with pytest.raises(DomainError):
            cdh_phi_inv(m, 0.5)  # left of the hyperbola

    def test_map_invariants(self):
        with pytest.raises(DomainError):
            CdHMap(beta=2.0, k=1.0)
        with pytest.raises(DomainError):
            CdHMap(beta=0.5, k=-1.0)


class TestCdHTails:
    def test_matches_real_axis_oblique(self):
        spec = ContourSpec(rtol=1e-10)
        x, xp = (1.5, 0.5), (0.0, 0.3)
        rc = tail_integral_cdh(SOFT, UPUP, x, xp, spec)
        rr = real_axis_tails(SOFT, UPUP, x, xp, spec)
        assert rc.used_cdh
        assert abs(rc.value - rr.value) < 1e-9 * max(1.0, abs(rr.value))

    def test_matches_on_two_layer(self):
        spec = ContourSpec(rtol=1e-10)
        x, xp = (-1.1, 0.4), (0.0, 0.5)
        rc = tail_integral_cdh(TWO_LAYER, UPUP, x, xp, spec)
        rr = real_axis_tails(TWO_LAYER, UPUP, x, xp, spec)
        assert abs(rc.value - rr.value) < 1e-9 * max(1.0, abs(rr.value))

    def test_vertical_degenerates_to_real_axis(self):
        spec = ContourSpec(rtol=1e-10)
        rc = tail_integral_cdh(SOFT, UPUP, (0.0, 0.5), (0.0, 0.3), spec)
        rr = real_axis_tails(SOFT, UPUP, (0.0, 0.5), (0.0, 0.3), spec)
        assert not rc.used_cdh
        assert rc.value == rr.value

    def test_aperture_fallback(self):
        spec = ContourSpec(rtol=1e-9, cdh_aperture=2.0)
        rc = tail_integral_cdh(SOFT, UPUP, (5.0, 0.4), (0.0, 0.4), spec)
        assert not rc.used_cdh

    def test_oscillatory_geometry_needs_fewer_panels(self):
        # strongly oblique pair: the real-axis tail tracks e^{i lam X}
        # oscillations while the CdH contour decays monotonically
        spec = ContourSpec(rtol=1e-10)
        x, xp = (9.0, 1.0), (0.0, 1.0)
        rc = tail_integral_cdh(TWO_LAYER, UPUP, x, xp, spec)
        rr = real_axis_tails(TWO_LAYER, UPUP, x, xp, spec)
        assert rc.used_cdh
        assert abs(rc.value - rr.value) < 1e-9 * max(1.0, abs(rr.value))
        assert rc.n_panels <= rr.n_panels / 2


class TestFrozenRule:
    def test_matches_adaptive(self):
        rule = FrozenComponentRule(
            TWO_LAYER, UPUP, (0.1, 1.5), (0.1, 1.5), 3.0, rtol=1e-9
        )
        rng = np.random.default_rng(34)
        for _ in range(6):
            a = rng.uniform(0.1, 1.5)
            b = rng.uniform(0.1, 1.5)
            X = rng.uniform(-3.0, 3.0)
            x, xp = (X, a), (0.0, b)
            want = evaluate_component(TWO_LAYER, UPUP, x, xp, ContourSpec(rtol=1e-11))
            got = rule.eval_one(a, b, X)
            assert abs(got - want) < 5e-8 * max(abs(want), 1e-3)

    def test_batch_matches_scalar(self):
        rule = FrozenComponentRule(
            TWO_LAYER, UPUP, (0.2, 1.0), (0.2, 1.0), 2.0, rtol=1e-8
        )
        rng = np.random.default_rng(35)
        a = rng.uniform(0.2, 1.0, 40)
        b = rng.uniform(0.2, 1.0, 40)
        X = rng.uniform(-2.0, 2.0, 40)
        batch = rule.eval_batch(a, b, X, chunk=7)
        for i in range(40):
            assert batch[i] == pytest.approx(rule.eval_one(a[i], b[i], X[i]), rel=1e-12)

    def test_rejects_guided_mode_medium(self):
        with pytest.raises(DomainError):
            FrozenComponentRule(SLAB, UPUP, (0.1, 1.0), (0.1, 1.0), 2.0)

    def test_one_sigma_solve_per_distinct_panel(self, monkeypatch):
        # the probes adapt on identical segments, so their shared panels
        # must reuse one sigma solve instead of solving again
        seen = []
        solve = quadrature.sigma_component_batch

        def counting(medium, lams, cid, **kwargs):
            seen.append(np.asarray(lams).tobytes())
            return solve(medium, lams, cid, **kwargs)

        monkeypatch.setattr(quadrature, "sigma_component_batch", counting)
        rule = FrozenComponentRule(
            TWO_LAYER, UPUP, (0.02, 1.0), (0.02, 1.0), 0.5, rtol=5e-8
        )
        assert len(seen) == len(set(seen))
        assert rule.n_nodes == 435


def _factored(lam, dinfo=None):
    """Two terms of c * outer(A, B) with smooth, order-dependent rows."""
    lam = np.asarray(lam, dtype=float)
    p = np.arange(-3, 4)
    m = np.arange(-2, 3)
    c = np.array([np.exp(-lam) * np.cos(3 * lam), np.exp(-2 * lam) + 0j])
    A = np.array([np.exp(1j * np.outer(lam, p)), np.outer(1 + lam, p) + 0j])
    B = np.array([np.outer(np.cos(lam), m) + 1j, np.exp(-np.outer(lam, m**2)) + 0j])
    return c, A, B


class TestFactoredIntegrand:
    def test_matches_dense_integrand(self):
        def dense(lam, dinfo=None):
            c, A, B = _factored(lam, dinfo)
            f = np.einsum("rn,rnp,rnm->npm", c, A, B)
            return f.reshape(f.shape[0], -1)

        segs = [Segment(None, 0.0, 1.0, "left", 2), Segment(None, 1.0, 6.0, "none", 3)]
        results = []
        for f in (_factored, dense):
            for seg in segs:
                seg.f = f
            results.append(adaptive_segments(segs, 1e-12, collect_rule=True))
        got, ref = results
        assert got.value.shape == ref.value.shape == (35,)
        assert got.n_panels == ref.n_panels
        assert np.array_equal(got.nodes, ref.nodes)
        scale = np.max(np.abs(ref.value))
        assert np.max(np.abs(got.value - ref.value)) <= 1e-14 * scale

    def test_non_finite_factor_raises(self):
        def bad(lam, dinfo=None):
            c, A, B = _factored(lam)
            B[1, 4, 2] = np.nan
            return c, A, B

        with pytest.raises(ToleranceNotReachedError):
            adaptive_segments([Segment(bad, 0.0, 1.0)], 1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_raises(self):
        # every factor finite, their products not
        def big(lam, dinfo=None):
            c, A, B = _factored(lam)
            return c * 1e300, A * 1e10, B

        with pytest.raises(ToleranceNotReachedError):
            adaptive_segments([Segment(big, 0.0, 1.0)], 1e-10)
