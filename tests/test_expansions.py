import math

import numpy as np
import pytest

from helmlayer import expansions, quadrature
from helmlayer.errors import DomainError, FarFieldError
from helmlayer.medium import (
    Dir,
    PolarizedPair,
    ReactionComponentId,
    polarized_distance,
    sound_soft_halfspace,
    acoustic,
)
from helmlayer.quadrature import (
    ContourSpec,
    Segment,
    SigmaMemo,
    _build_segments,
    adaptive_segments,
    component_abs_floor,
    evaluate_component,
    free_space_green,
    tail_cutoff,
)
from helmlayer.sigma import sigma_component_batch
from helmlayer.special import branch_sqrt_arr, hankel1_orders, hsq, w_from_h
from helmlayer.expansions import (
    FreeSpaceME,
    LocalExpansion,
    MultipoleExpansion,
    _orders,
    _power_family,
    choose_truncation,
    fit_rate,
    fs_l2l,
    fs_le_eval,
    fs_m2l,
    fs_m2m,
    fs_me,
    fs_me_eval,
    l2l,
    le_coeffs_direct,
    le_eval,
    m2l,
    m2l_apply,
    m2m,
    me_coeffs,
    me_eval,
    me_expansion_functions,
    partial_sum_errors,
    regular_basis,
    regular_orders,
)

SOFT = sound_soft_halfspace(1.0)
TWO_LAYER = acoustic((0.0,), (1.0, 1.5))
UPUP = ReactionComponentId(0, 0, Dir.UP, Dir.UP)
SPEC = ContourSpec(rtol=1e-11)

RNG = np.random.default_rng(50)
X_C = (0.0, 0.6)
SRC = np.column_stack(
    [X_C[0] + 0.45 * np.cos(np.linspace(0, 2 * np.pi, 5, endpoint=False)),
     X_C[1] + 0.45 * np.sin(np.linspace(0, 2 * np.pi, 5, endpoint=False))]
)
Q = RNG.uniform(0.5, 1.5, 5)


def direct_sum(medium, cid, target, sources, strengths, rtol=1e-12):
    spec = ContourSpec(rtol=rtol)
    return sum(
        q * evaluate_component(medium, cid, target, tuple(s), spec)
        for s, q in zip(sources, strengths)
    )


class TestMeCoeffs:
    def test_source_at_center(self):
        me = me_coeffs(SOFT, UPUP, X_C, [X_C], [2.5], 8)
        assert me.coeffs[7] == pytest.approx(2.5)
        others = np.delete(me.coeffs, 7)
        assert np.max(np.abs(others)) == 0.0

    def test_parity_conjugation(self):
        me = me_coeffs(SOFT, UPUP, X_C, [(0.3, 0.8)], [1.0], 12)
        P = 12
        for p in range(1, P):
            lhs = me.coeffs[-p + P - 1]
            rhs = (-1) ** p * np.conj(me.coeffs[p + P - 1])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_direction_flip_conjugates_phase(self):
        m = acoustic((0.0, -2.0), (1.0, 1.2, 1.0))
        up_id = ReactionComponentId(1, 1, Dir.UP, Dir.UP)
        dn_id = ReactionComponentId(1, 1, Dir.UP, Dir.DOWN)
        src = [(0.4, -1.2)]
        me_up = me_coeffs(m, up_id, (0.0, -1.0), src, [1.0], 10)
        me_dn = me_coeffs(m, dn_id, (0.0, -1.0), src, [1.0], 10)
        # tau flip negates the phase angle: coefficients conjugate up to
        # the (real) Bessel factor
        np.testing.assert_allclose(me_dn.coeffs, np.conj(me_up.coeffs), rtol=1e-12)

    def test_wrong_side_rejected(self):
        with pytest.raises(DomainError):
            me_coeffs(SOFT, UPUP, X_C, [(0.0, -0.5)], [1.0], 8)


class TestMeEval:
    def test_matches_direct_sums(self):
        target = (0.3, 1.9)
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 20)
        got = me_eval(SOFT, me, target, SPEC)
        ref = direct_sum(SOFT, UPUP, target, SRC, Q)
        assert abs(got - ref) < 1e-8 * abs(ref)

    def test_far_field_guard(self):
        # note the guard is on the POLARIZED distance: a target just above
        # the interface has a nearby image even if it is Euclidean-far
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 12)
        with pytest.raises(FarFieldError):
            me_eval(SOFT, me, (0.0, 0.25), SPEC)

    def test_rate_follows_polarized_distance(self):
        # equal Euclidean distance from the center, polarized distances
        # differing 1.5x: the larger D decays strictly faster
        src = [(0.18, 0.62), (-0.2, 0.75), (0.05, 0.45)]
        qs = [1.0, 0.7, 1.3]
        rad = max(math.hypot(s[0] - X_C[0], s[1] - X_C[1]) for s in src)
        t_a = (0.0, 1.4)
        y_b = 0.4742
        x_b = math.sqrt(0.64 - (y_b - 0.6) ** 2)
        t_b = (x_b, y_b)
        d_euclid_a = math.hypot(t_a[0] - X_C[0], t_a[1] - X_C[1])
        d_euclid_b = math.hypot(t_b[0] - X_C[0], t_b[1] - X_C[1])
        assert d_euclid_a == pytest.approx(d_euclid_b, rel=1e-3)
        D_a = polarized_distance(SOFT, PolarizedPair(t_a, X_C, UPUP))
        D_b = polarized_distance(SOFT, PolarizedPair(t_b, X_C, UPUP))
        assert D_a / D_b == pytest.approx(1.5, rel=1e-2)
        Pmax = 30
        me = me_coeffs(SOFT, UPUP, X_C, src, qs, Pmax)
        slopes = {}
        for label, tgt in (("a", t_a), ("b", t_b)):
            ip = me_expansion_functions(SOFT, UPUP, tgt, X_C, Pmax, SPEC)
            ref = direct_sum(SOFT, UPUP, tgt, src, qs)
            errs = partial_sum_errors(ip * me.coeffs, ref, np.arange(2, Pmax + 1))
            slopes[label] = fit_rate(np.arange(2, Pmax + 1), errs)
        assert slopes["a"] < slopes["b"] - 0.05  # farther image, steeper decay


class TestLocalExpansion:
    def test_value_at_center_is_l0(self):
        x_cl = (0.1, 1.1)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 14, SPEC)
        got = le_eval(le, x_cl)
        assert got == pytest.approx(le.coeffs[13], rel=1e-12)

    def test_matches_direct(self):
        x_cl = (0.3, 1.9)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 20, SPEC)
        probe = (0.32, 1.85)
        got = le_eval(le, probe)
        ref = direct_sum(SOFT, UPUP, probe, SRC, Q)
        assert abs(got - ref) < 1e-8 * abs(ref)

    def test_far_field_guard(self):
        x_cl = (0.3, 1.9)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 10, SPEC)
        with pytest.raises(FarFieldError):
            le_eval(le, (0.3, 0.3))


class TestM2L:
    def test_composition_matches_direct(self):
        x_cl = (0.3, 1.9)
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 20)
        tm = m2l(SOFT, UPUP, x_cl, X_C, 20, 20, SPEC, source_radius=me.radius)
        le = m2l_apply(tm, me)
        probe = (0.32, 1.85)
        ref = direct_sum(SOFT, UPUP, probe, SRC, Q)
        assert abs(le_eval(le, probe) - ref) < 1e-8 * abs(ref)

    def test_matches_le_direct(self):
        x_cl = (0.3, 1.9)
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 24)
        tm = m2l(SOFT, UPUP, x_cl, X_C, 16, 24, SPEC)
        le_t = m2l_apply(tm, me)
        le_d = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 16, SPEC)
        scale = np.max(np.abs(le_d.coeffs))
        np.testing.assert_allclose(le_t.coeffs, le_d.coeffs, atol=2e-8 * scale)

    def test_tail_truncation_stability(self):
        # doubling the tail cutoff leaves the matrix unchanged
        tm1 = m2l(SOFT, UPUP, (0.0, 1.9), X_C, 8, 8, ContourSpec(rtol=1e-10))
        tm2 = m2l(
            SOFT, UPUP, (0.0, 1.9), X_C, 8, 8,
            ContourSpec(rtol=1e-10, lam_max=200.0),
        )
        scale = np.max(np.abs(tm1.matrix))
        assert np.max(np.abs(tm1.matrix - tm2.matrix)) < 1e-9 * scale

    def test_far_field_guard(self):
        # local center hugging the interface: its polarized distance to
        # the source center is below c0 * radius
        with pytest.raises(FarFieldError):
            m2l(SOFT, UPUP, (0.0, 0.25), X_C, 8, 8, SPEC, source_radius=0.45)


# a guided slab: sigma has surface-wave poles on the real axis, which the
# operators' path passes below
SLAB = acoustic((0.0, -1.0), (1.0, 2.0, 1.0))
# the pairs of acceptance criterion 6b (target, source), both in layer 0
SLAB_PAIRS = (((0.9, 0.4), (0.0, 0.6)), ((2.0, 0.8), (-0.4, 0.3)))
LOSSY = ContourSpec(rtol=1e-10, pole_mode="perturbed")


def _slab_errors(operator, x, xp):
    """(P, errors against green, errors against the lossy-limit oracle,
    polarized ratio) of one operator truncated at |p| < P on a 6b pair.

    ME and M2L expand sources on a circle about xp, of radius 0.92 of its
    height, and M2L's local center is x (its m = 0 coefficient is the
    field there); LE expands the source xp about a center at 0.9 of x's
    height from x.
    """
    Pmax = 42
    if operator == "LE":
        r = 0.9 * x[1]
        x_cl = (x[0] - r * math.cos(0.4), x[1] - r * math.sin(0.4))
        src, q = np.array([xp]), np.array([1.0])
        le = le_coeffs_direct(SLAB, UPUP, x_cl, src, q, Pmax, SPEC)
        terms = le.coeffs * regular_orders((x[0] - x_cl[0], x[1] - x_cl[1]), 1.0, Pmax - 1)
        ratio = r / polarized_distance(SLAB, PolarizedPair(x_cl, xp, UPUP))
    else:
        rho = 0.92 * xp[1]
        ang = np.linspace(0, 2 * np.pi, 6, endpoint=False) + 0.19
        src = np.column_stack([xp[0] + rho * np.cos(ang), xp[1] + rho * np.sin(ang)])
        q = np.linspace(0.6, 1.4, 6)
        me = me_coeffs(SLAB, UPUP, xp, src, q, Pmax)
        if operator == "ME":
            terms = me_expansion_functions(SLAB, UPUP, x, xp, Pmax, SPEC) * me.coeffs
        else:
            terms = m2l(SLAB, UPUP, x, xp, 1, Pmax, SPEC).matrix[0] * me.coeffs
        ratio = rho / polarized_distance(SLAB, PolarizedPair(x, xp, UPUP))
    Ps = np.arange(2, Pmax + 1)
    green_ref, lossy_ref = (
        sum(qq * evaluate_component(SLAB, UPUP, x, tuple(s), spec) for s, qq in zip(src, q))
        for spec in (SPEC, LOSSY)
    )
    return (
        Ps,
        partial_sum_errors(terms, green_ref, Ps),
        partial_sum_errors(terms, lossy_ref, Ps),
        ratio,
    )


@pytest.mark.parametrize("pair", SLAB_PAIRS, ids=["pair1", "pair2"])
@pytest.mark.parametrize("operator", ["ME", "LE", "M2L"])
def test_slab_operators_converge_at_polarized_rate(operator, pair):
    # at least the rate (rho / D)^P the polarized distance D predicts,
    # with criterion 4's 15% slack, down to green's accuracy; and to the
    # lossy-limit oracle within its own Richardson accuracy
    Ps, errs, lossy_errs, ratio = _slab_errors(operator, *pair)
    assert fit_rate(Ps, errs) <= 0.85 * math.log10(ratio)
    assert errs.min() < 1e-10
    assert lossy_errs.min() < 1e-8


class TestL2L:
    def test_zero_shift_identity(self):
        x_cl = (0.3, 1.9)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 12, SPEC)
        le2 = l2l(le, x_cl, 12)
        np.testing.assert_allclose(le2.coeffs, le.coeffs, atol=1e-14)

    def test_shifted_evaluation(self):
        x_cl = (0.3, 1.9)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 24, SPEC)
        new_c = (0.38, 1.84)
        le2 = l2l(le, new_c, 24)
        probe = (0.4, 1.86)
        ref = direct_sum(SOFT, UPUP, probe, SRC, Q)
        assert abs(le_eval(le2, probe) - ref) < 1e-8 * abs(ref)

    def test_shift_beyond_reach_rejected(self):
        le = le_coeffs_direct(SOFT, UPUP, (0.3, 1.9), SRC, Q, 8, SPEC)
        with pytest.raises(FarFieldError):
            l2l(le, (0.3, 8.0), 8)


class TestM2M:
    def test_zero_shift_identity(self):
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 14)
        me2 = m2m(me, X_C)
        np.testing.assert_allclose(me2.coeffs, me.coeffs, atol=1e-14)

    def test_single_source_recentred(self):
        src = [(0.2, 0.7)]
        me = me_coeffs(SOFT, UPUP, X_C, src, [1.0], 16)
        new_c = (0.1, 0.72)
        me2 = m2m(me, new_c)
        me_direct = me_coeffs(SOFT, UPUP, new_c, src, [1.0], 16)
        np.testing.assert_allclose(me2.coeffs, me_direct.coeffs, atol=1e-10)

    def test_eval_after_shift(self):
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 22)
        new_c = (0.05, 0.66)
        me2 = m2m(me, new_c)
        me_re = me_coeffs(SOFT, UPUP, new_c, SRC, Q, 22)
        target = (0.3, 2.4)
        v1 = me_eval(SOFT, me2, target, SPEC)
        v2 = me_eval(SOFT, me_re, target, SPEC)
        assert abs(v1 - v2) < 1e-9 * abs(v2)

    def test_side_violation(self):
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 8)
        with pytest.raises(DomainError):
            m2m(me, (0.0, -0.5))


class TestChooseTruncation:
    def test_worked_example(self):
        assert choose_truncation(0.5, 1e-8, 1.0, 0.01) == 37

    def test_vanishing_ratio_keeps_onset_bounds(self):
        assert choose_truncation(1e-6, 1e-4, 2.0, 3.0) == math.ceil(math.e * 6.0)
        assert choose_truncation(1e-6, 1e-1, 0.5, 0.01) == 8

    def test_lower_bounds_always_hold(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            ratio = rng.uniform(0.01, 0.5)
            eps = 10.0 ** rng.uniform(-12, -2)
            k = rng.uniform(0.3, 3.0)
            rho = rng.uniform(0.01, 4.0)
            P = choose_truncation(ratio, eps, k, rho)
            assert P >= 8
            assert P >= math.ceil(math.e * k * rho)

    def test_domain(self):
        with pytest.raises(DomainError):
            choose_truncation(0.7, 1e-8, 1.0, 1.0)


class TestInvariants:
    def test_horizontal_translation_symmetry(self):
        shift = 1.7
        target = (0.3, 1.9)
        me1 = me_coeffs(SOFT, UPUP, X_C, SRC, Q, 16)
        v1 = me_eval(SOFT, me1, target, SPEC)
        src2 = SRC + np.array([shift, 0.0])
        me2 = me_coeffs(SOFT, UPUP, (X_C[0] + shift, X_C[1]), src2, Q, 16)
        v2 = me_eval(SOFT, me2, (target[0] + shift, target[1]), SPEC)
        assert abs(v1 - v2) < 1e-10 * abs(v1)

    def test_half_line_matches_full_line(self):
        # I_p from the symmetrized half line equals brute-force full-line
        # quadrature
        x, x_c = (0.25, 1.8), X_C
        P = 6
        ip_half = me_expansion_functions(SOFT, UPUP, x, x_c, P, ContourSpec(rtol=1e-11))
        k = 1.0
        alpha, beta, X = x[1], x_c[1], x[0] - x_c[0]
        p_orders = np.arange(-(P - 1), P)

        def f_full(lam, dinfo=None):
            lam = np.asarray(lam, dtype=float)
            h = branch_sqrt_arr(hsq(lam, k, dinfo))
            w = w_from_h(lam, h, k)
            sig = sigma_component_batch(SOFT, lam, UPUP, dinfo=dinfo)
            base = sig * np.exp(-h * (alpha + beta) + 1j * lam * X)
            return base[:, None] * (-1j * w[:, None]) ** p_orders[None, :]

        lam_max = 60.0
        # split the band at both branch points
        segs = [
            Segment(f_full, -lam_max, -k, "right", 4),
            Segment(f_full, -k, 0.0, "left", 4),
            Segment(f_full, 0.0, k, "right", 4),
            Segment(f_full, k, lam_max, "left", 4),
        ]
        full = adaptive_segments(segs, 1e-11).value
        scale = np.max(np.abs(full))
        np.testing.assert_allclose(ip_half, full, atol=1e-10 * scale)

    def test_composition_chain_error_budget(self):
        # ME -> M2L -> L2L -> eval within 3x the sum of the single-stage
        # errors on the same geometry
        x_cl = (0.3, 1.9)
        new_c = (0.36, 1.86)
        probe = (0.38, 1.88)
        P = 18
        me = me_coeffs(SOFT, UPUP, X_C, SRC, Q, P)
        tm = m2l(SOFT, UPUP, x_cl, X_C, P, P, SPEC)
        chain = le_eval(l2l(m2l_apply(tm, me), new_c, P), probe)
        ref = direct_sum(SOFT, UPUP, probe, SRC, Q)
        chain_err = abs(chain - ref)

        # single-stage errors
        e_me = abs(me_eval(SOFT, me, probe, SPEC) - ref)
        le_d = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, P, SPEC)
        e_m2l = abs(le_eval(m2l_apply(tm, me), probe) - le_eval(le_d, probe))
        le_shift_d = le_coeffs_direct(SOFT, UPUP, new_c, SRC, Q, P, SPEC)
        e_l2l = abs(le_eval(l2l(le_d, new_c, P), probe) - le_eval(le_shift_d, probe))
        e_le = abs(le_eval(le_shift_d, probe) - ref)
        budget = 3.0 * (e_me + e_m2l + e_l2l + e_le) + 1e-13 * abs(ref)
        assert chain_err <= budget


class TestFreeSpace:
    def test_point_source_at_center(self):
        fsme = fs_me([(0.0, 0.0)], [1.0], (0.0, 0.0), 1.3, 6)
        assert fsme.coeffs[5] == pytest.approx(1.0)
        val = fs_me_eval(fsme, (2.0, 0.5))
        ref = free_space_green(1.3, (2.0, 0.5), (0.0, 0.0))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_cluster_matches_direct(self):
        rng = np.random.default_rng(52)
        src = rng.uniform(-0.5, 0.5, (10, 2))
        q = rng.uniform(0.1, 1.0, 10)
        fsme = fs_me(src, q, (0.0, 0.0), 1.0, 25)
        tgt = (1.6, 1.2)
        ref = sum(qq * free_space_green(1.0, tgt, tuple(s)) for s, qq in zip(src, q))
        assert abs(fs_me_eval(fsme, tgt) - ref) < 1e-10 * abs(ref)

    def test_geometric_rate(self):
        # sources on a common circle so a single geometric ratio governs
        rng = np.random.default_rng(53)
        ang = rng.uniform(0, 2 * math.pi, 6)
        src = 0.5 * np.column_stack([np.cos(ang), np.sin(ang)])
        q = rng.uniform(0.5, 1.0, 6)
        rad = float(np.max(np.hypot(src[:, 0], src[:, 1])))
        tgt = (2.2, 0.9)
        rho_c = math.hypot(*tgt)
        ref = sum(qq * free_space_green(1.0, tgt, tuple(s)) for s, qq in zip(src, q))
        errs = []
        Ps = np.arange(2, 36)
        for P in Ps:
            fsme = fs_me(src, q, (0.0, 0.0), 1.0, int(P))
            errs.append(abs(fs_me_eval(fsme, tgt) - ref) / abs(ref))
        slope = fit_rate(Ps, np.array(errs))
        pred = math.log10(rad / rho_c)
        assert abs(slope - pred) < 0.15 * abs(pred)

    def test_translations_match_direct(self):
        rng = np.random.default_rng(54)
        src = rng.uniform(-0.4, 0.4, (8, 2))
        q = rng.uniform(0.5, 1.5, 8)
        k = 1.1
        fsme = fs_me(src, q, (0.0, 0.0), k, 26)
        fsme_shift = fs_m2m(fsme, (0.1, -0.08))
        local = fs_m2l(fsme_shift, (2.6, 1.4), 26)
        local2 = fs_l2l(local, (2.68, 1.33))
        probe = (2.75, 1.38)
        ref = sum(qq * free_space_green(k, probe, tuple(s)) for s, qq in zip(src, q))
        assert abs(fs_le_eval(local2, probe) - ref) < 1e-9 * abs(ref)

    def test_separation_guard(self):
        fsme = fs_me([(0.4, 0.0)], [1.0], (0.0, 0.0), 1.0, 8)
        with pytest.raises(FarFieldError):
            fs_me_eval(fsme, (0.6, 0.0))


def loop_l2l(le, new_center, P):
    """The scalar double loop l2l was written as, kept as the reference."""
    shift = (new_center[0] - le.center[0], new_center[1] - le.center[1])
    M = le.M
    nmax = max(P + M - 2, 0)
    kern = regular_orders(shift, le.k_target, nmax, tau=le.cid.dir_t.tau)
    m_out = _orders(M)
    p_in = _orders(P)
    coeffs = np.zeros(2 * M - 1, dtype=complex)
    # source coefficients truncated to |p| < P
    src = np.zeros(2 * P - 1, dtype=complex)
    for i, p in enumerate(p_in):
        if abs(p) < M:
            src[i] = le.coeffs[p + M - 1]
    for i, m in enumerate(m_out):
        acc = 0.0 + 0.0j
        for jdx, p in enumerate(p_in):
            acc += src[jdx] * kern[(p - m) + nmax]
        coeffs[i] = acc
    return coeffs


def loop_m2m(src, kern):
    """The scalar double loop of an M2M whose kernel holds orders
    -(2P-2)..2P-2, kept as the reference."""
    P = (len(src) + 1) // 2
    nmax = 2 * P - 2
    orders = _orders(P)
    coeffs = np.zeros(2 * P - 1, dtype=complex)
    for i, m in enumerate(orders):
        acc = 0.0 + 0.0j
        for jdx, p in enumerate(orders):
            acc += src[jdx] * kern[(m - p) + nmax]
        coeffs[i] = acc
    return coeffs


def loop_fs_m2l(fsme, local_center, M):
    """The scalar double loop fs_m2l was written as, kept as the reference."""
    b = (local_center[0] - fsme.center[0], local_center[1] - fsme.center[1])
    P = fsme.P
    nmax = P + M - 2
    rho = math.hypot(*b)
    th = math.atan2(b[1], b[0])
    h = hankel1_orders(np.array([fsme.k * rho]), nmax)[:, 0]
    n = np.arange(-nmax, nmax + 1)
    o = h * np.exp(1j * n * th)
    q_out = _orders(M)
    p_in = _orders(P)
    coeffs = np.zeros(2 * M - 1, dtype=complex)
    for i, q in enumerate(q_out):
        acc = 0.0 + 0.0j
        for jdx, p in enumerate(p_in):
            acc += fsme.coeffs[jdx] * o[(p - q) + nmax]
        coeffs[i] = 0.25j * acc
    return coeffs


class TestToeplitzTranslations:
    """Translations as one Toeplitz product against their scalar loops."""

    @staticmethod
    def coeffs(n, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=2 * n - 1) + 1j * rng.normal(size=2 * n - 1)

    @pytest.mark.parametrize("M, P", [(6, 11), (9, 9), (12, 5)])
    def test_l2l_matches_loop(self, M, P):
        le = LocalExpansion(
            UPUP, (0.3, 1.9), 1.3, 0.0, self.coeffs(M, 55 + M), reach=5.0
        )
        new_c = (0.38, 1.84)
        got = l2l(le, new_c, P).coeffs
        want = loop_l2l(le, new_c, P)
        assert got.shape == (2 * M - 1,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("P", [5, 9, 11])
    @pytest.mark.parametrize("shift", ["m2m", "fs_m2m"])
    def test_m2m_matches_loop(self, shift, P):
        center, new_c = (0.1, 0.7), (0.02, 0.78)
        coeffs = self.coeffs(P, 57 + P)
        v = (center[0] - new_c[0], center[1] - new_c[1])
        if shift == "m2m":
            me = MultipoleExpansion(UPUP, center, 1.3, 0.0, coeffs, radius=0.4)
            got = m2m(me, new_c).coeffs
            kern = regular_orders(v, 1.3, 2 * P - 2, tau=UPUP.dir_s.tau)
        else:
            got = fs_m2m(FreeSpaceME(center, 1.3, coeffs, radius=0.4), new_c).coeffs
            # the conjugate-phase kernel, as fs_m2m used to build it
            kern = np.conj(regular_orders(v, 1.3, 2 * P - 2))
        want = loop_m2m(coeffs, kern)
        assert got.shape == (2 * P - 1,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_regular_basis_columns_are_regular_orders(self):
        # k |v| <= 12 keeps every argument on the ascending series, where
        # a Bessel value does not depend on the other arguments of a call
        v = np.random.default_rng(59).uniform(-3.0, 3.0, (7, 2))
        for tau in (1.0, -1.0):
            basis = regular_basis(v[:, 0], v[:, 1], 1.3, 10, tau)
            assert basis.shape == (21, 7)
            for i, vi in enumerate(v):
                assert np.array_equal(basis[:, i], regular_orders(vi, 1.3, 10, tau))

    @pytest.mark.parametrize("M, P", [(6, 11), (9, 9), (12, 5)])
    def test_fs_m2l_matches_loop(self, M, P):
        fsme = FreeSpaceME((0.1, -0.08), 1.1, self.coeffs(P, 56 + P), radius=0.4)
        local_c = (2.6, 1.4)
        got = fs_m2l(fsme, local_c, M).coeffs
        want = loop_fs_m2l(fsme, local_c, M)
        assert got.shape == (2 * M - 1,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def dense_power_family(medium, cid, alpha, beta, X, p_orders, m_orders, spec):
    """The (nodes x orders^2) integrand, summed panel by panel.

    Reference for the factored ``_power_family``: same segments and
    tolerances ([0, k_split] on the path below the axis), sigma solved
    once per sign, powers from ``**``.  Returns the matrix and the number
    of live panels.
    """
    k_t = medium.wavenumbers[cid.t]
    k_s = medium.wavenumbers[cid.s]
    k_split = spec.resolve_split(medium)
    p_arr = np.asarray(p_orders)[None, :, None]
    m_arr = np.asarray(m_orders)[None, None, :]
    order_boost = int(np.max(np.abs(p_orders))) + int(np.max(np.abs(m_orders)))
    H = alpha + beta

    def vec(lam, sign):
        lam = np.asarray(lam)
        ht = branch_sqrt_arr(hsq(lam, k_t))
        hs = branch_sqrt_arr(hsq(lam, k_s))
        sig = sigma_component_batch(medium, lam, cid)
        ws = w_from_h(lam, hs, k_s)
        wt = w_from_h(lam, ht, k_t)
        base = sig * np.exp(-ht * alpha - hs * beta + 1j * lam * sign * X)
        if sign > 0:
            a = (-1j * ws)[:, None, None] ** p_arr
            b = (1j / wt)[:, None, None] ** m_arr
        else:
            a = (1j / ws)[:, None, None] ** p_arr
            b = (-1j * wt)[:, None, None] ** m_arr
        return (base[:, None, None] * a * b).reshape(lam.shape[0], -1)

    def f_sym(lam):
        return vec(lam, +1) + vec(lam, -1)

    def f_path(u):
        lam, jac = quadrature.below_axis_path(u, k_split, X)
        return f_sym(lam) * jac[:, None]

    segs = _build_segments(f_path, 0.0, k_split, [], X, min_extra=order_boost // 8)
    if X == 0.0:
        lam_max = tail_cutoff(
            H, spec.rtol, max(k_t, k_s), order=order_boost, k_order=min(k_t, k_s)
        )
        lam_max = max(lam_max, 1.5 * k_split, spec.lam_max or 0.0)
        segs += _build_segments(f_sym, k_split, lam_max, [], 0.0)
    else:
        k_map = max(k_t, k_s)
        rho = math.hypot(X, H)
        lam_max = tail_cutoff(
            rho, spec.rtol, k_map, order=order_boost, k_order=min(k_t, k_s)
        )
        lam_max = max(lam_max, 1.5 * k_split, spec.lam_max or 0.0)
        for sign in (1.0, -1.0):
            b_ang = 0.5 * math.pi - math.atan2(H, sign * X)
            phi_ks = complex(
                k_split * math.cos(b_ang),
                math.sqrt(k_split**2 - k_map**2) * math.sin(b_ang),
            )

            def f_kappa(t, _s=sign, _p=phi_ks):
                return vec(k_split + t * (_p - k_split), _s) * (_p - k_split)

            def f_hyper(lamp, _s=sign, _b=b_ang):
                lamp = np.asarray(lamp, dtype=float)
                root = np.sqrt(lamp * lamp - k_map * k_map)
                lam = lamp * math.cos(_b) + 1j * root * math.sin(_b)
                dphi = math.cos(_b) + 1j * lamp * math.sin(_b) / root
                return vec(lam, _s) * dphi[:, None]

            segs.append(Segment(f_kappa, 0.0, 1.0, "none", 2))
            segs += _build_segments(
                f_hyper, k_split, lam_max, [], 0.0, min_extra=order_boost // 12
            )
    res = adaptive_segments(
        segs,
        spec.rtol,
        atol=component_abs_floor(spec.rtol, H),
        max_panels=spec.max_panels + 150 * (len(p_orders) + len(m_orders)),
    )
    return res.value.reshape(len(p_orders), len(m_orders)).T, res.n_panels


def factored_power_family(monkeypatch, medium, cid, alpha, beta, X, *rest):
    """``_power_family`` at one geometry, and the live panel count of its
    quadrature."""
    runs = _record(monkeypatch, "adaptive_family")
    (out,) = _power_family(medium, cid, [(alpha, beta, X)], *rest)
    (result,) = runs
    return out, result.n_panels


UNEQUAL = ReactionComponentId(0, 1, Dir.UP, Dir.DOWN)  # k_t = 1, k_s = 1.5
M2L_SPEC = ContourSpec(rtol=1e-8)


class TestFactoredPowerFamily:
    @pytest.mark.parametrize("cid", [UPUP, UNEQUAL], ids=["equal_k", "unequal_k"])
    @pytest.mark.parametrize("X", [0.0, 0.9, -1.7])
    def test_matches_dense_integrand_at_p17(self, monkeypatch, cid, X):
        orders = _orders(17)
        args = (TWO_LAYER, cid, 0.4, 0.7, X, orders, orders, M2L_SPEC)
        got, n_got = factored_power_family(monkeypatch, *args)
        ref, n_ref = dense_power_family(*args)
        assert got.shape == ref.shape == (33, 33)
        assert n_got == n_ref
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("X", [0.0, 0.6])
    @pytest.mark.parametrize("axis", ["p", "m"])
    def test_one_order_axis_of_length_one(self, monkeypatch, X, axis):
        # the shapes of me_expansion_functions (m = [0]) and
        # le_coeffs_direct (p = [0])
        p, m = (_orders(9), [0]) if axis == "p" else ([0], _orders(9))
        args = (TWO_LAYER, UNEQUAL, 0.3, 0.5, X, p, m, SPEC)
        got, n_got = factored_power_family(monkeypatch, *args)
        ref, n_ref = dense_power_family(*args)
        assert got.shape == ref.shape == (len(m), len(p))
        assert n_got == n_ref
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_both_signs_share_one_sigma_solve(self, monkeypatch):
        # at X = 0 every panel is symmetrized: one sigma row per distinct
        # panel, where solving each sign separately would take two
        panels = []
        sums = quadrature._family_sums

        def recording(f, lam, *args):
            panels.extend(map(bytes, lam))
            return sums(f, lam, *args)

        monkeypatch.setattr(quadrature, "_family_sums", recording)
        rows = _solved_rows(monkeypatch)
        geometry = [(0.4, 0.7, 0.0)]
        _power_family(TWO_LAYER, UPUP, geometry, _orders(9), _orders(9), SPEC)
        assert len(panels) > len(set(panels)) > 0  # splits evaluate a panel again
        assert len(rows) == len(set(panels))

    def test_shared_memo_changes_no_matrix(self, monkeypatch):
        # a second matrix on the same contour solves nothing new and is
        # bitwise what a fresh memo gives
        orders = _orders(9)
        args = (TWO_LAYER, UNEQUAL, [(0.4, 0.7, 0.9)], orders, orders, M2L_SPEC)
        memo = SigmaMemo(TWO_LAYER, UNEQUAL)
        (first,) = _power_family(*args, memo)
        solves = []
        solve = quadrature.sigma_component_batch

        def counting(*a, **kw):
            solves.append(1)
            return solve(*a, **kw)

        monkeypatch.setattr(quadrature, "sigma_component_batch", counting)
        (again,) = _power_family(*args, memo)
        assert solves == []
        assert np.array_equal(again, first)
        assert np.array_equal(_power_family(*args)[0], first)

    def test_memo_of_another_component_rejected(self):
        with pytest.raises(DomainError):
            _power_family(
                TWO_LAYER, UPUP, [(0.4, 0.7, 0.0)], [0], [0], SPEC,
                SigmaMemo(TWO_LAYER, UNEQUAL),
            )


def _m2l_pairs(cid):
    """(local center, source center) pairs like an FMM pass's: X = 0 and
    the mirrored offsets X = +-0.8."""
    d_t = 0.0
    tau_t, tau_s = cid.dir_t.tau, cid.dir_s.tau
    y_l = d_t + tau_t * 0.35
    y_s = d_t + tau_s * 0.55
    return [((0.4, y_l), (0.4 - X, y_s)) for X in (0.0, 0.8, -0.8)]


TWO_LAYER_CIDS = [
    ReactionComponentId(0, 0, Dir.UP, Dir.UP),
    ReactionComponentId(0, 1, Dir.UP, Dir.DOWN),
    ReactionComponentId(1, 0, Dir.DOWN, Dir.UP),
    ReactionComponentId(1, 1, Dir.DOWN, Dir.DOWN),
]


def _record(monkeypatch, name):
    runs = []
    fn = getattr(expansions, name)

    def recording(*a, **kw):
        out = fn(*a, **kw)
        if name == "adaptive_family":  # (index, result) as integrals finish
            out = [r for _, r in sorted(out, key=lambda ir: ir[0])]
            runs.extend(out)
            return enumerate(out)
        runs.append(out)
        return out

    monkeypatch.setattr(expansions, name, recording)
    return runs


def _solved_rows(monkeypatch):
    """(node array, anchor, offset) of every row any sigma solve gets."""
    rows = []
    solve = quadrature.sigma_component_batch

    def counting(medium, lams, cid, **kwargs):
        dinfo = kwargs.get("dinfo")
        for r in range(0, len(lams), 15):
            key = (cid, lams.dtype.char, lams[r : r + 15].tobytes())
            if dinfo is not None:
                anchor = dinfo[0] if np.ndim(dinfo[0]) == 0 else dinfo[0][r]
                if anchor == anchor:
                    key += (anchor, dinfo[1][r : r + 15].tobytes())
            rows.append(key)
        return solve(medium, lams, cid, **kwargs)

    monkeypatch.setattr(quadrature, "sigma_component_batch", counting)
    return rows


class TestM2LFamily:
    def test_family_matches_one_matrix_builds(self, monkeypatch):
        P = 17
        solo_runs = []
        family_runs = []
        solo_rows = []
        family_rows = []
        for cid in TWO_LAYER_CIDS:
            pairs = _m2l_pairs(cid)
            with monkeypatch.context() as m:
                runs = _record(m, "adaptive_family")
                rows = _solved_rows(m)
                memo = SigmaMemo(TWO_LAYER, cid)
                solo = [m2l(TWO_LAYER, cid, xl, xc, P, P, M2L_SPEC, sigma=memo).matrix
                        for xl, xc in pairs]
                solo_runs += runs
                solo_rows += rows
            with monkeypatch.context() as m:
                runs = _record(m, "adaptive_family")
                rows = _solved_rows(m)
                family = expansions.m2l_family(
                    TWO_LAYER, cid, pairs, P, P, M2L_SPEC, SigmaMemo(TWO_LAYER, cid)
                )
                family_runs += runs
                family_rows += rows
            for got, want in zip(family, solo):
                assert got.shape == want.shape == (2 * P - 1, 2 * P - 1)
                # m2l is the family of its one pair
                assert np.array_equal(got, want)
        # the same panels, matrix by matrix
        assert len(family_runs) == len(solo_runs) == 12
        for fam, ref in zip(family_runs, solo_runs):
            assert fam.n_panels == ref.n_panels
        # a shared memo solves each distinct node array once, family or not
        assert len(set(family_rows)) == len(family_rows)
        assert set(family_rows) == set(solo_rows)
        assert len(family_rows) == len(solo_rows)


class TestLeCoeffsFamily:
    def test_sources_run_as_one_family(self, monkeypatch):
        # one lockstep family for all sources, bitwise the q-weighted sum
        # of the sources' own L_m
        x_cl = (0.3, 1.9)
        singles = [
            le_coeffs_direct(SOFT, UPUP, x_cl, SRC[j : j + 1], [1.0], 10, SPEC)
            for j in range(len(SRC))
        ]
        runs = _record(monkeypatch, "adaptive_family")
        calls = []
        family = expansions.adaptive_family

        def counting(*a, **kw):
            calls.append(1)
            return family(*a, **kw)

        monkeypatch.setattr(expansions, "adaptive_family", counting)
        le = le_coeffs_direct(SOFT, UPUP, x_cl, SRC, Q, 10, SPEC)
        assert len(calls) == 1
        assert len(runs) == len(SRC)
        total = np.zeros(19, dtype=complex)
        for q, single in zip(Q, singles):
            total += q * single.coeffs
        assert np.array_equal(le.coeffs, total)
        assert le.reach == min(single.reach for single in singles)
