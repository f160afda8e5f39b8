import math

import numpy as np
import pytest
from scipy.special import expi

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
    admissible_components,
    sound_soft_halfspace,
)
from helmlayer.quadrature import (
    GK_NODES,
    GK_WEIGHTS,
    G7_WEIGHTS,
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
from helmlayer.sigma import PoleInfo, sigma_component_batch
from helmlayer.special import hsq

SOFT = sound_soft_halfspace(1.0)
HOMOG = acoustic((0.0,), (1.0, 1.0))
TWO_LAYER = acoustic((0.0,), (1.0, 1.5))
SLAB = acoustic((0.0, -1.0), (1.0, 2.0, 1.0))
THREE_LAYER = acoustic((0.0, -1.0), (1.0, 1.5, 2.0))
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


# slab-to-slab pairs: the branch point k_1 = 2 of the guided slab lies
# inside the window of a surface-wave pole
SLAB_PAIRS = [
    ((-1.3771612536454567, -0.6739785624851448), (-1.2504953460050827, -0.8473881581392982)),
    ((1.0139079530986348, -0.8670686561218152), (1.4913819725970825, -0.290925114428805)),
    ((-1.5821307262760518, -0.10673194982803524), (1.2076950836306275, -0.9166872480215301)),
    ((0.6444880526252215, -0.5623356153173845), (1.9308396180764564, -0.28979995625849175)),
]
THREE_LAYER_PAIR = ((0.3, -0.4), (0.0, -0.6))


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

    # values at the commit before branch-point poles and pole cores: a
    # medium with no interior layer and no pole takes neither
    PINNED_TWO_LAYER = [
        ((0.3, 0.7), (0.0, 0.45), False, -0.0005043277984780423 - 0.029232623475799337j),
        ((0.3, 0.7), (0.0, 0.45), True, -0.0005043277984780205 - 0.02923262347579933j),
        ((0.4, -0.9), (-0.3, 0.35), False, -0.1320591719831276 + 0.07078662497360275j),
        ((0.4, -0.9), (-0.3, 0.35), True, -0.13205917198315179 + 0.07078662497360273j),
        ((-1.2, -0.5), (0.6, -1.1), False, -0.024011895497940108 - 0.014340383488238607j),
        ((-1.2, -0.5), (0.6, -1.1), True, -0.02401189549794007 - 0.014340383488238602j),
        ((0.9, 0.2), (0.1, -0.25), False, -0.05164357616674868 + 0.17248616765012814j),
        ((0.9, 0.2), (0.1, -0.25), True, -0.05164357616676692 + 0.1724861676501281j),
    ]

    @pytest.mark.parametrize("x, xp, full_line, want", PINNED_TWO_LAYER)
    def test_two_layer_outputs_pinned(self, x, xp, full_line, want):
        (cid,) = admissible_components(
            int(x[1] < 0), int(xp[1] < 0), TWO_LAYER.n_interfaces
        )
        spec = ContourSpec(rtol=1e-10, full_line=True) if full_line else None
        assert evaluate_component(TWO_LAYER, cid, x, xp, spec) == want

    # green at the commit before the one pole list: the slab pairs go
    # through pole windows, their cores and a branch-point pole, the
    # three-layer pair through branch-point poles alone
    PINNED_POLE_PATHS = [
        (SLAB, *SLAB_PAIRS[0], False, 0.11964302402237562 + 0.2518774390975034j),
        (SLAB, *SLAB_PAIRS[1], False, -0.1471551588848726 + 0.16612204985873913j),
        (SLAB, *SLAB_PAIRS[2], False, 0.14387742769342787 - 0.10371096715286221j),
        (SLAB, *SLAB_PAIRS[3], False, -0.2058974610785423 - 0.04323446052521861j),
        (THREE_LAYER, *THREE_LAYER_PAIR, False, 0.10190333922252906 + 0.23753298860378103j),
        (SLAB, *SLAB_PAIRS[0], True, 0.11964302402237556 + 0.2518774390975033j),
    ]

    @pytest.mark.parametrize(
        "medium, x, xp, full_line, want",
        PINNED_POLE_PATHS,
        ids=["slab0", "slab1", "slab2", "slab3", "three", "slab0-full"],
    )
    def test_pole_path_outputs_pinned(self, medium, x, xp, full_line, want):
        spec = ContourSpec(full_line=True) if full_line else None
        assert green(medium, x, xp, spec) == want


def _panel_counts(monkeypatch):
    """n_panels of every adaptive_segments run, in call order."""
    counts = []
    run = quadrature.adaptive_segments

    def counted(*args, **kwargs):
        res = run(*args, **kwargs)
        counts.append(res.n_panels)
        return res

    monkeypatch.setattr(quadrature, "adaptive_segments", counted)
    return counts


LOSSY = ContourSpec(rtol=1e-9, pole_mode="perturbed")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBranchPointPole:
    """t = s components in an interior layer: sigma ~ R_c / (lambda - k_l)."""

    def test_only_interior_same_layer_components(self):
        assert not any(
            quadrature.has_branch_pole(THREE_LAYER, cid)
            for t, s in ((0, 0), (2, 2), (0, 1), (1, 2), (2, 1))
            for cid in admissible_components(t, s, 2)
        )
        assert all(
            quadrature.has_branch_pole(THREE_LAYER, cid)
            for cid in admissible_components(1, 1, 2)
        )
        assert not quadrature.has_branch_pole(TWO_LAYER, UPUP)

    @pytest.mark.parametrize("medium", [SLAB, THREE_LAYER], ids=["slab", "three"])
    def test_residues_cancel_across_components(self, medium):
        res = [quadrature._branch_residue(medium, c) for c in admissible_components(1, 1, 2)]
        assert min(abs(r) for r in res) > 1e-4
        assert abs(sum(res)) < 1e-9 * max(abs(r) for r in res)

    @pytest.mark.parametrize("x, xp", SLAB_PAIRS)
    def test_slab_to_slab_matches_lossy_oracle(self, monkeypatch, x, xp):
        # one principal-value component differs from its lossy limit by
        # +-i pi r_b; those terms cancel in the sum, so compare green
        counts = _panel_counts(monkeypatch)
        got = green(SLAB, x, xp)
        assert len(counts) == 4 and max(counts) < 300
        want = green(SLAB, x, xp, LOSSY)
        assert abs(got - want) < 1e-4 * abs(want)

    def test_three_layer_middle_matches_lossy_oracle(self, monkeypatch):
        counts = _panel_counts(monkeypatch)
        got = green(THREE_LAYER, *THREE_LAYER_PAIR, ContourSpec(rtol=1e-8))
        assert len(counts) == 4 and max(counts) < 300
        want = green(THREE_LAYER, *THREE_LAYER_PAIR, ContourSpec(rtol=1e-8, pole_mode="perturbed"))
        assert abs(got - want) < 1e-8 * abs(want)

    def test_component_is_lossy_limit_less_half_residue(self):
        # the lossy pole k_1 (1 + i eps) lies above the axis: +i pi r_b
        (x, _), (xp, _) = THREE_LAYER_PAIR
        for cid in admissible_components(1, 1, 2):
            pv = evaluate_component(THREE_LAYER, cid, *THREE_LAYER_PAIR)
            lossy = evaluate_component(THREE_LAYER, cid, *THREE_LAYER_PAIR, LOSSY)
            r_b = quadrature._branch_residue(THREE_LAYER, cid) * 2 * math.cos(1.5 * (x - xp))
            assert abs(lossy - (pv + 1j * math.pi * r_b)) < 1e-8 * abs(r_b)

    def test_full_line_takes_the_mirror_term(self):
        for cid in admissible_components(1, 1, 2):
            half = evaluate_component(THREE_LAYER, cid, *THREE_LAYER_PAIR)
            full = evaluate_component(
                THREE_LAYER, cid, *THREE_LAYER_PAIR, ContourSpec(full_line=True)
            )
            assert abs(half - full) < 1e-8 * abs(half)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "cid, x, xp",
    [
        (
            ReactionComponentId(0, 1, Dir.UP, Dir.UP),
            (-1.516979707568567, 0.4815422484149828),
            (0.05317172479381549, -0.48347829143132615),
        ),
        (
            ReactionComponentId(1, 2, Dir.DOWN, Dir.DOWN),
            (-0.892890366208414, -0.09619671674977426),
            (0.9131123992338419, -1.563207428478718),
        ),
    ],
)
def test_pole_window_core_keeps_nodes_off_the_pole(cid, x, xp):
    # pairs whose pole window refined onto the rounded pole location
    # until the subtracted integrand turned non-finite
    got = evaluate_component(SLAB, cid, x, xp)
    want = evaluate_component(SLAB, cid, x, xp, LOSSY)
    assert abs(got - want) < 1e-4 * abs(want)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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

    @pytest.mark.parametrize(
        "a, b, c, side",
        [(0.0, 5.0, 0.7, 1), (0.0, 5.0, 0.7, -1), (0.0, 5.0, 0.7, 0), (0.2, 3.0, 2.6, 1)],
    )
    def test_closed_form_exponential(self, a, b, c, side):
        # h = e^-lam leaves a non-zero integrand once the pole is
        # subtracted, so the window and its core rule carry the value:
        # pv int_a^b e^-lam / (lam - c) = e^-c (Ei(c - b) - Ei(c - a))
        val = integrate_with_pole(
            lambda l: np.exp(-l), lambda l: 1.0 / (l - c), PoleInfo(c, 1.0 + 0j, side), (a, b)
        )
        want = math.exp(-c) * (expi(c - b) - expi(c - a)) + side * 1j * math.pi * math.exp(-c)
        assert type(val) is complex
        assert abs(val - want) < 1e-10

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


def probe_by_probe_rule(medium, cid, alpha_range, beta_range, x_max, rtol):
    """(lam, w, sig) of a frozen rule whose probes adapt one at a time.

    Reference for ``FrozenComponentRule``'s lockstep build: each of the
    five probes runs through ``adaptive_segments`` with sigma solved per
    panel, on [0, k_split] along the path below the axis and on the real
    tail past it, and the rule is the union of their panel edges, path
    nodes first.
    """
    k_split = ContourSpec(rtol=rtol).resolve_split(medium)
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]
    (a_lo, a_hi), (b_lo, b_hi) = alpha_range, beta_range
    lam_max = max(quadrature.tail_cutoff(a_lo + b_lo, rtol, max(kt, ks)), 1.5 * k_split)
    probes = [
        (a_lo, b_lo, 0.0),
        (a_lo, b_lo, x_max),
        (a_hi, b_hi, 0.0),
        (a_hi, b_hi, x_max),
        (0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi), 0.5 * x_max),
    ]

    def path(u):
        return quadrature.below_axis_path(u, k_split, x_max)

    edges = [set(), set()]
    for alpha, beta, X in probes:
        e_sym = quadrature._exp_factor_half(medium, cid, alpha, beta, X)

        def f(lam, _e=e_sym):
            return sigma_component_batch(medium, lam, cid) * _e(lam)

        def f_path(u, _f=f):
            lam, jac = path(u)
            return _f(lam) * jac

        segs = quadrature._build_segments(f_path, 0.0, k_split, [], x_max)
        segs += quadrature._build_segments(f, k_split, lam_max, [], x_max)
        for si, ua, ub in adaptive_segments(segs, rtol).spans:
            edges[si].update((ua, ub))
    lam, w, sig = [], [], []
    for si, seg_edges in enumerate(edges):
        seg_edges = sorted(seg_edges)
        nodes, weights = [], []
        for ua, ub in zip(seg_edges[:-1], seg_edges[1:]):
            half = 0.5 * (ub - ua)
            u = 0.5 * (ua + ub) + half * GK_NODES
            x, jac = path(u) if si == 0 else (u, 1.0)
            nodes.append(x)
            weights.append(half * GK_WEIGHTS * jac)
        nodes = np.concatenate(nodes)
        lam.append(nodes)
        w.append(np.concatenate(weights))
        sig.append(sigma_component_batch(medium, nodes, cid))
    return np.concatenate(lam), np.concatenate(w), np.concatenate(sig)


def _two_layer_rules(alpha_range, beta_range, x_max):
    return [
        (TWO_LAYER, cid, alpha_range, beta_range, x_max)
        for t in (0, 1)
        for s in (0, 1)
        for cid in admissible_components(t, s, 1)
    ]


# offset ranges and x range of the rules an FMM pass builds on the
# benchmark's clouds: points 0.02-1.02 from the interface, and a uniform
# cloud that keeps 0.18 clear of it
RULE_CASES = (
    _two_layer_rules((0.02, 1.02), (0.02, 1.02), 4.7)
    + _two_layer_rules((0.18, 1.8), (0.18, 1.8), 1.19)
    + [(THREE_LAYER, ReactionComponentId(0, 2, Dir.UP, Dir.DOWN), (0.08, 1.2), (0.08, 1.2), 1.5)]
)


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
            (got,) = rule.eval_batch([a], [b], [X])
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
        whole = rule.eval_batch(a, b, X, chunk=40)
        for i in range(40):
            assert batch[i] == pytest.approx(whole[i], rel=1e-12)

    @pytest.mark.parametrize(
        "medium, cid, x, xp",
        [
            (SLAB, UPUP, (0.9, 0.4), (0.0, 0.6)),
            (SLAB, ReactionComponentId(0, 1, Dir.UP, Dir.UP), (1.1, 0.3), (0.2, -0.6)),
            *[(THREE_LAYER, c, *THREE_LAYER_PAIR) for c in admissible_components(1, 1, 2)],
        ],
        ids=["slab-00", "slab-01", "middle-0", "middle-1", "middle-2", "middle-3"],
    )
    def test_lossy_limit_on_guided_and_interior_layers(self, medium, cid, x, xp):
        # the path passes below the surface-wave poles; on a shared
        # interior layer the rule gives the lossy limit, evaluate_component
        # the principal value, and they differ by i pi R_c E(k_t)
        alpha, beta, X = quadrature.component_geometry(medium, cid, x, xp)
        rule = FrozenComponentRule(medium, cid, (alpha, alpha), (beta, beta), abs(X), rtol=1e-10)
        want = evaluate_component(medium, cid, x, xp, ContourSpec(rtol=1e-11))
        if quadrature.has_branch_pole(medium, cid):
            k_t = medium.wavenumbers[cid.t]
            e_kt = quadrature._exp_factor_half(medium, cid, alpha, beta, X)(np.array([k_t]))[0]
            want += 1j * math.pi * quadrature._branch_residue(medium, cid) * e_kt
        lossy = evaluate_component(medium, cid, x, xp, LOSSY)
        (got,) = rule.eval_batch([alpha], [beta], [X])
        assert abs(got - want) < 1e-8 * abs(want)
        assert abs(got - lossy) < 1e-6 * abs(lossy)

    def test_sigma_comes_from_the_probes_memo(self, monkeypatch):
        # every panel of the union is one a probe took, so the build solves
        # no sigma once its probes finish
        solves = []
        probes_done = []
        solve = quadrature.sigma_component_batch
        family = quadrature.adaptive_family

        def counting(*args, **kwargs):
            solves.append(bool(probes_done))
            return solve(*args, **kwargs)

        def probing(*args, **kwargs):
            yield from family(*args, **kwargs)
            probes_done.append(1)

        monkeypatch.setattr(quadrature, "sigma_component_batch", counting)
        monkeypatch.setattr(quadrature, "adaptive_family", probing)
        for medium, cid, ranges, x_max in (
            (TWO_LAYER, UPUP, (0.02, 1.02), 4.7),
            (SLAB, ReactionComponentId(1, 1, Dir.DOWN, Dir.UP), (0.05, 0.9), 1.5),
        ):
            probes_done.clear()
            solves.clear()
            rule = FrozenComponentRule(medium, cid, ranges, ranges, x_max, rtol=5e-8)
            assert probes_done and solves and not any(solves)
            # the memo's rows are those of one solve over every node
            n = rule._n_path
            fresh = np.concatenate(
                [solve(medium, rule.lam[:n], cid), solve(medium, rule.lam[n:].real, cid)]
            )
            np.testing.assert_allclose(rule.sig, fresh, rtol=1e-13, atol=0)

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
        assert rule.n_nodes == 465

    @pytest.mark.parametrize(
        "medium, cid, alpha_range, beta_range, x_max",
        RULE_CASES,
        ids=[f"{c[1]}-{c[2][0]}" for c in RULE_CASES],
    )
    def test_lockstep_build_is_bitwise_probe_by_probe(
        self, medium, cid, alpha_range, beta_range, x_max
    ):
        rule = FrozenComponentRule(medium, cid, alpha_range, beta_range, x_max, rtol=5e-8)
        lam, w, sig = probe_by_probe_rule(medium, cid, alpha_range, beta_range, x_max, 5e-8)
        assert np.array_equal(rule.lam, lam)
        assert np.array_equal(rule.w, w)
        assert np.array_equal(rule.sig, sig)

    def test_build_takes_its_panels_in_chunks(self, monkeypatch):
        # the probes' panels go to the integrand in family calls of at
        # most _PANEL_CHUNK panels, none through _panel
        sizes = []
        panels = []
        sums = quadrature._family_sums
        panel = quadrature._panel

        def recording(f, lam, *args):
            sizes.append(lam.shape[0])
            return sums(f, lam, *args)

        def counting(*args):
            panels.append(1)
            return panel(*args)

        monkeypatch.setattr(quadrature, "_family_sums", recording)
        monkeypatch.setattr(quadrature, "_panel", counting)
        FrozenComponentRule(TWO_LAYER, UPUP, (0.02, 1.02), (0.02, 1.02), 4.7, rtol=5e-8)
        assert panels == []
        assert max(sizes) == quadrature._PANEL_CHUNK


def _factored(lam):
    """Two terms of c * outer(A, B) with smooth, order-dependent rows."""
    lam = np.asarray(lam, dtype=float)
    p = np.arange(-3, 4)
    m = np.arange(-2, 3)
    c = np.array([np.exp(-lam) * np.cos(3 * lam), np.exp(-2 * lam) + 0j])
    A = np.array([np.exp(1j * np.outer(lam, p)), np.outer(1 + lam, p) + 0j])
    B = np.array([np.outer(np.cos(lam), m) + 1j, np.exp(-np.outer(lam, m**2)) + 0j])
    return c, A, B


def _factored_panels(lam, params):
    """``_factored`` as a family integrand: n panels, nodes lam (n, 15)."""
    c, A, B = zip(*(_factored(row) for row in lam))
    return np.stack(c), np.stack(A), np.stack(B)


def _one_member(f, layout, rtol):
    """QuadResult of a family whose one integral runs over layout."""
    segs = [Segment(f, a, b, sub, n0, ()) for a, b, sub, n0 in layout]
    ((_, result),) = quadrature.adaptive_family([(segs, 0.0)], rtol)
    return result


class TestFactoredIntegrand:
    def test_matches_dense_integrand(self):
        def dense(lam, params):
            c, A, B = _factored_panels(lam, params)
            f = np.einsum("krn,krnp,krnm->knpm", c, A, B)
            return f.reshape(f.shape[0], f.shape[1], -1)

        layout = [(0.0, 1.0, "none", 2), (1.0, 6.0, "none", 3)]
        got, ref = (_one_member(f, layout, 1e-12) for f in (_factored_panels, dense))
        assert got.value.shape == ref.value.shape == (35,)
        assert got.n_panels == ref.n_panels
        assert got.spans == ref.spans
        scale = np.max(np.abs(ref.value))
        assert np.max(np.abs(got.value - ref.value)) <= 1e-14 * scale

    def test_non_finite_factor_raises(self):
        def bad(lam, params):
            c, A, B = _factored_panels(lam, params)
            B[:, 1, 4, 2] = np.nan
            return c, A, B

        with pytest.raises(ToleranceNotReachedError):
            _one_member(bad, [(0.0, 1.0, "none", 1)], 1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_raises(self):
        # every factor finite, their products not
        def big(lam, params):
            c, A, B = _factored_panels(lam, params)
            return c * 1e300, A * 1e10, B

        with pytest.raises(ToleranceNotReachedError):
            _one_member(big, [(0.0, 1.0, "none", 1)], 1e-10)


# ---------------------------------------------------------------------------
# lockstep family of adaptive integrals
# ---------------------------------------------------------------------------


def _dense_family(lam, params):
    """Two components with a per-panel decay a and frequency b."""
    a, b = np.array(params).T[:, :, None]
    return np.stack(
        [np.exp(-a * lam) * np.cos(b * lam) + 0j, 1.0 / (1.0 + a * lam * lam) + 0j],
        axis=-1,
    )


def _scalar_family(lam, params):
    """One component with an inverse-sqrt singularity at lambda = 1."""
    a = np.array(params)[:, :1]
    return np.exp(-a * lam) / np.sqrt(np.abs(hsq(lam, 1.0))) + 0j


def _factored_family(lam, params):
    """Two terms of c * outer(A, B); c carries a per-panel decay."""
    s = np.array(params)[:, :1]
    p = np.arange(-3, 4)
    m = np.arange(-2, 3)
    c = np.stack([np.exp(-s * lam) * np.cos(3 * lam), np.exp(-2 * lam) + 0j], axis=1)
    A = np.stack(
        [np.exp(1j * lam[..., None] * p), (1 + lam[..., None]) * p + 0j], axis=1
    )
    B = np.stack(
        [np.cos(lam)[..., None] * m + 1j, np.exp(-lam[..., None] * m**2) + 0j], axis=1
    )
    return c, A, B


def _family_members(f, params, layout):
    return [
        ([Segment(f, a, b, sub, n0, p) for a, b, sub, n0 in layout], 0.0)
        for p in params
    ]


DENSE_LAYOUT = [(0.0, 2.0, "none", 2), (2.0, 9.0, "none", 3)]


class TestAdaptiveFamily:
    @pytest.mark.parametrize(
        "f, params, layout",
        [
            (_dense_family, [(0.5, 1.0), (2.0, 7.0), (1.0, 15.0), (0.3, 0.0)], DENSE_LAYOUT),
            (_factored_family, [(0.5,), (4.0,), (1.5,)], DENSE_LAYOUT),
        ],
        ids=["dense", "factored"],
    )
    def test_members_take_their_own_panels(self, monkeypatch, f, params, layout):
        # the family refines each member exactly as a run of its own; the
        # small chunk puts several members' panels in one integrand call
        monkeypatch.setattr(quadrature, "_PANEL_CHUNK", 3)
        members = _family_members(f, params, layout)
        family = dict(quadrature.adaptive_family(members, 1e-10))
        family = [family[i] for i in range(len(members))]
        solo = [
            adaptive_segments(segs, 1e-10, atol=atol)
            for segs, atol in members
        ]
        # members that converge in different numbers of rounds
        assert len({r.n_panels for r in solo}) > 1
        for fam, ref in zip(family, solo):
            assert fam.n_panels == ref.n_panels
            assert fam.spans == ref.spans
            # running sums against sorted sums: rounding alone
            scale = np.max(np.abs(ref.value))
            assert np.max(np.abs(fam.value - ref.value)) <= 1e-15 * scale
            assert np.max(np.abs(fam.err - ref.err)) <= 1e-15 * max(np.max(ref.err), scale)

    def test_batched_panels_are_bitwise_single_panels(self):
        # the property every identical choice rests on
        segs = [
            Segment(_scalar_family, a, b, sub, 1, p)
            for (a, b, sub, _), p in zip(DENSE_LAYOUT * 3, [(0.2,), (1.0,)] * 3)
        ]
        ua = [0.1, 2.2, 0.3, 3.0, 0.5, 2.5]
        ub = [0.6, 4.0, 1.9, 8.5, 0.8, 7.0]
        nodes = quadrature._family_nodes(ua, ub)
        batch = quadrature._family_sums(_scalar_family, *nodes, [s.params for s in segs])
        for i, (seg, a, b, got) in enumerate(zip(segs, ua, ub, batch)):
            # each row holds the nodes its own segment maps
            u = 0.5 * (a + b) + 0.5 * (b - a) * quadrature.GK_NODES
            lam, _, _ = seg.map(u)
            assert np.array_equal(nodes[0][i], lam)
            (want,) = quadrature._panel(seg, [a], [b])
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_member_out_of_budget_raises_as_alone(self):
        # a member that cannot converge within max_panels raises with the
        # running totals of its own run, bitwise
        members = _family_members(_dense_family, [(0.5, 1.0), (0.1, 60.0)], DENSE_LAYOUT)
        with pytest.raises(ToleranceNotReachedError) as alone:
            adaptive_segments(members[1][0], 1e-13, max_panels=20)
        with pytest.raises(ToleranceNotReachedError) as family:
            dict(quadrature.adaptive_family(members, 1e-13, max_panels=20))
        assert np.array_equal(family.value.value, alone.value.value)
        assert np.array_equal(family.value.err, alone.value.err)

    @pytest.mark.parametrize("sub", ["left", "right"])
    def test_family_segment_refuses_a_substitution(self, sub):
        # family nodes are never sqrt-substituted, so a segment that asks
        # for it fails at once instead of integrating in the wrong variable
        with pytest.raises(DomainError):
            Segment(_dense_family, 0.0, 1.0, sub, 1, (0.5, 1.0))


def _one_panel(f, params):
    """Family integrand f as the integrand of one segment, a panel a call."""

    def g(lam):
        return f(lam[None], [params])[0]

    return g


def _tensordot_sums(seg, ua, ub):
    """(val, err) of one panel, summed with np.tensordot."""
    half = 0.5 * (ub - ua)
    lam, jac, dinfo = seg.map(0.5 * (ua + ub) + half * GK_NODES)
    fx = np.asarray(seg.f(lam) if dinfo is None else seg.f(lam, dinfo), dtype=complex)
    fx = fx * (jac if fx.ndim == 1 else jac[:, None])
    ik = half * np.tensordot(GK_WEIGHTS, fx, axes=(0, 0))
    ig = half * np.tensordot(G7_WEIGHTS, fx[1::2], axes=(0, 0))
    return np.atleast_1d(ik), np.atleast_1d(np.abs(ik - ig))


@pytest.mark.parametrize("n", [1, quadrature._PANEL_CHUNK])
@pytest.mark.parametrize("layout", [DENSE_LAYOUT], ids=["unanchored"])
@pytest.mark.parametrize("f", [_dense_family, _scalar_family], ids=["vector", "scalar"])
def test_dense_family_sums_are_bitwise_single_panels(f, layout, n):
    # a chunk of dense panels sums each panel as _panel sums it alone,
    # which is what np.tensordot gave
    rng = np.random.default_rng(n)
    segs, ua, ub = [], [], []
    for i in range(n):
        a, b, sub, _ = layout[i % len(layout)]
        segs.append(Segment(f, a, b, sub, 1, (rng.uniform(0.2, 3.0), rng.uniform(0.0, 9.0))))
        lo, hi = np.sort(rng.uniform(*segs[-1].u_range(), 2))
        ua.append(lo)
        ub.append(hi)
    nodes = quadrature._family_nodes(ua, ub)
    batch = quadrature._family_sums(f, *nodes, [s.params for s in segs])
    assert len(batch) == n
    for seg, a, b, got in zip(segs, ua, ub, batch):
        alone = Segment(_one_panel(f, seg.params), seg.a, seg.b, seg.sub)
        (want,) = quadrature._panel(alone, [a], [b])
        ref = _tensordot_sums(alone, a, b)
        for g, w, r in zip(got, want, ref):
            assert g.shape == w.shape == r.shape
            assert np.array_equal(g, w)
            assert np.array_equal(w, r)


# ---------------------------------------------------------------------------
# one integrand call per segment and refinement request
# ---------------------------------------------------------------------------


def _panel_by_panel(segments, rtol, *, atol=0.0, max_panels=6000):
    """``adaptive_segments`` with one integrand call per panel.

    The reference for its one call per segment and request: the same
    refinement, each panel mapped, evaluated and summed on its own.
    """
    run = quadrature._refine(segments, rtol, atol, max_panels, True)
    request = next(run)
    while True:
        values = [_tensordot_sums(segments[si], ua, ub) for si, ua, ub in request]
        try:
            request = run.send(values)
        except StopIteration as done:
            return done.value


def _recorded_runs(monkeypatch, adaptive):
    """(segments, QuadResult) of every adaptive_segments run, adaptive in its place."""
    runs = []

    def recorded(segments, *args, **kwargs):
        runs.append((segments, adaptive(segments, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(quadrature, "adaptive_segments", recorded)
    return runs


SEGMENT_CALL_CASES = [
    (TWO_LAYER, ReactionComponentId(1, 0, Dir.DOWN, Dir.UP), (0.4, -0.9), (-0.3, 0.35), None),
    # surface-wave windows with Gauss-Legendre cores
    (
        SLAB,
        ReactionComponentId(0, 1, Dir.UP, Dir.UP),
        (-1.516979707568567, 0.4815422484149828),
        (0.05317172479381549, -0.48347829143132615),
        None,
    ),
    # the branch-point pole, subtracted on the panels anchored at k_1
    (THREE_LAYER, admissible_components(1, 1, 2)[0], *THREE_LAYER_PAIR, None),
    (SLAB, admissible_components(1, 1, 2)[0], *SLAB_PAIRS[0], ContourSpec(full_line=True)),
    (SLAB, UPUP, (0.9, 0.4), (0.0, 0.6), LOSSY),
]


@pytest.mark.parametrize(
    "medium, cid, x, xp, spec",
    SEGMENT_CALL_CASES,
    ids=["two-layer", "slab-windows", "three-middle", "slab-full-line", "slab-perturbed"],
)
def test_segment_calls_are_bitwise_panel_calls(monkeypatch, medium, cid, x, xp, spec):
    runs = _recorded_runs(monkeypatch, adaptive_segments)
    got = evaluate_component(medium, cid, x, xp, spec)
    ref_runs = _recorded_runs(monkeypatch, _panel_by_panel)
    want = evaluate_component(medium, cid, x, xp, spec)
    assert got == want
    assert len(runs) == len(ref_runs) > 0
    for (_, res), (_, ref) in zip(runs, ref_runs):
        assert res.n_panels == ref.n_panels
        assert res.spans == ref.spans
        assert np.array_equal(res.value, ref.value)
        assert np.array_equal(res.err, ref.err)


def test_slab_green_calls_the_integrand_once_per_segment_and_request(monkeypatch):
    # sigma is solved on the nodes of every evaluated panel and pole core,
    # in one call per segment of each refinement request and one per core
    x, xp = SLAB_PAIRS[0]
    green(SLAB, x, xp)  # fills the pole and branch-residue caches
    solves = []
    cores = []
    solve = quadrature.sigma_component_batch
    core_rule = quadrature._gauss_legendre

    def counting_solve(medium, lams, cid, **kwargs):
        solves.append(np.size(lams))
        return solve(medium, lams, cid, **kwargs)

    def counting_core(*args):
        cores.append(1)
        return core_rule(*args)

    monkeypatch.setattr(quadrature, "sigma_component_batch", counting_solve)
    monkeypatch.setattr(quadrature, "_gauss_legendre", counting_core)
    runs = _recorded_runs(monkeypatch, adaptive_segments)
    green(SLAB, x, xp)
    assert len(runs) == 4 and cores
    panels = 0
    requests = 0  # segments of the first request, plus one per split
    for segments, res in runs:
        initial = sum(max(1, int(s.min_panels)) for s in segments)
        splits = res.n_panels - initial
        panels += initial + 2 * splits
        requests += len(segments) + splits
    assert sum(solves) == 15 * panels + 8 * len(cores)
    assert len(solves) <= requests + len(cores)
