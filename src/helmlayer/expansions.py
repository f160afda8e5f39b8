"""Multipole and local expansions with their translation operators.

For a reaction component (t, s, dir_t, dir_s) the machinery mirrors the
free-space Graf setup but in the spectral domain: the plane-wave factor
separates, the generating function turns each displacement into a Bessel
series, and the four operators come out as

    ME coefficients   M_p = sum_j q_j J_p(k_s rho'_j) e^{i p tau_s theta'_j}
    expansion fns     I_p = int E(x, x_c) sigma (-i w_s)^p dlam
    LE coefficients   L_m = int E(x_c^l, x') sigma (i / w_t)^m dlam
    LE basis          K_m = J_m(k_t rho^l) e^{i m tau_t theta^l}
    M2L               A_mp = int E(x_c^l, x_c) sigma (-i w_s)^p (i/w_t)^m dlam
    L2L / M2M         Toeplitz products with J_n(k rho) e^{i n tau theta} kernels

The convergence rate of every truncation is (geometry ratio)^P where the
denominator is the polarized distance between the evaluation object and
the polarization image of the source object, never the plain Euclidean
distance; the rate-measurement helpers at the bottom exist to check that
claim numerically.

The expansion functions, the LE coefficients and the M2L matrices are
one integral family, built by one routine (``_power_family``) that
differs between them only in the order axes and the geometries.  Its
integrals share one sigma solve per quadrature node: the integrand
factors into sigma * E times powers of two per-node values (-i w_s) and
(i / w_t), and both signs of the symmetrized half-line integrand use the
same solve.  The quadrature takes that factored form as it is, so a
panel of an M2L matrix is two small GEMMs instead of a (nodes x
orders^2) array.  Every geometry of a call is integrated in lockstep:
the geometry and contour map are per-panel arrays, so one integrand
call evaluates a chunk of panels of many integrals (all the M2L
matrices of an FMM pass, all the sources of ``le_coeffs_direct``),
their GEMMs go through one stacked matmul, and the chunk's new node
arrays go to one sigma solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FarFieldError
from .medium import (
    PolarizedPair,
    polarized_distance,
    relevant_interface,
)
from .quadrature import (
    ContourSpec,
    Segment,
    SigmaMemo,
    adaptive_family,
    _build_segments,
    _require_pole_free,
    component_abs_floor,
    tail_cutoff,
)
from .special import (
    bessel_j_orders,
    branch_sqrt_arr,
    hankel1_orders,
    hsq,
    w_from_h,
)


def _orders(P):
    if P < 1:
        raise DomainError("truncation order must be >= 1")
    return np.arange(-(P - 1), P)


def regular_orders(v, k, nmax, tau=1.0):
    """J_n(k|v|) e^{i n tau arg(v)} for n = -nmax..nmax."""
    rho = math.hypot(v[0], v[1])
    th = math.atan2(v[1], v[0])
    j = bessel_j_orders(np.array([k * rho]), nmax)[:, 0]
    n = np.arange(-nmax, nmax + 1)
    return j * np.exp(1j * n * tau * th)


def _toeplitz(kern, M, P, sign):
    """T[i, j] = kern[c + sign * (m_i - p_j)] with c = len(kern) // 2.

    Rows are the output orders m = -(M-1)..M-1, columns the input orders
    p = -(P-1)..P-1, and kern holds orders -c..c with c >= M + P - 2.
    T @ coeffs is the order convolution of an M2M (sign +1), and of an
    L2L or free-space M2L (sign -1).
    """
    return kern[len(kern) // 2 + sign * np.subtract.outer(_orders(M), _orders(P))]


@dataclass(frozen=True)
class MultipoleExpansion:
    """Truncated source expansion about a center on the source side."""

    cid: object
    center: tuple
    k_source: float
    d_source: float
    coeffs: np.ndarray  # orders -(P-1)..(P-1)
    radius: float

    @property
    def P(self):
        return (len(self.coeffs) + 1) // 2


@dataclass(frozen=True)
class LocalExpansion:
    """Truncated target-side expansion about a local center."""

    cid: object
    center: tuple
    k_target: float
    d_target: float
    coeffs: np.ndarray  # orders -(M-1)..(M-1)
    reach: float  # min polarized distance to the contributing sources

    @property
    def M(self):
        return (len(self.coeffs) + 1) // 2


@dataclass(frozen=True)
class TranslationMatrix:
    """M2L matrix A_mp between a source center and a local center."""

    cid: object
    source_center: tuple
    local_center: tuple
    matrix: np.ndarray  # shape (2M-1, 2P-1)
    source_distance: float  # polarized distance between the centers
    k_target: float
    d_target: float


@dataclass(frozen=True)
class FreeSpaceME:
    center: tuple
    k: float
    coeffs: np.ndarray
    radius: float

    @property
    def P(self):
        return (len(self.coeffs) + 1) // 2


@dataclass(frozen=True)
class FreeSpaceLE:
    center: tuple
    k: float
    coeffs: np.ndarray
    reach: float


# ---------------------------------------------------------------------------
# layered-media expansions
# ---------------------------------------------------------------------------


def me_coeffs(medium, cid, x_c, sources, strengths, P):
    """Accumulate M_p over sources about the source-side center x_c."""
    cid.validate(medium.n_interfaces)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    tau_s = cid.dir_s.tau
    if not tau_s * (x_c[1] - d_s) > 0:
        raise DomainError("expansion center is on the wrong side of its interface")
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    strengths = np.atleast_1d(np.asarray(strengths, dtype=complex))
    if np.any(tau_s * (sources[:, 1] - d_s) <= 0):
        raise DomainError("every source must lie on its propagating side")
    k_s = medium.wavenumbers[cid.s]
    coeffs, radius = _regular_sums(sources, strengths, x_c, k_s, P, tau_s)
    return MultipoleExpansion(cid, tuple(x_c), k_s, d_s, coeffs, radius)


def _regular_sums(sources, strengths, center, k, P, tau):
    """sum_j q_j J_p(k rho_j) e^{i p tau theta_j}, |p| < P, and max rho_j."""
    dx = sources[:, 0] - center[0]
    dy = sources[:, 1] - center[1]
    rho = np.hypot(dx, dy)
    th = np.arctan2(dy, dx)
    j = bessel_j_orders(k * rho, P - 1)  # (2P-1, n)
    phases = np.exp(1j * np.outer(_orders(P), tau * th))
    return (j * phases) @ strengths, float(np.max(rho)) if len(rho) else 0.0


def _power_table(z, z_inv, nmax):
    """z^n for n = -nmax..nmax (columns) by cumulative products."""
    t = np.ones((z.shape[0], 2 * nmax + 1), dtype=complex)
    if nmax:
        up = t[:, nmax + 1 :]
        down = t[:, nmax - 1 :: -1]
        up[...] = z[:, None]
        down[...] = z_inv[:, None]
        np.cumprod(up, axis=1, out=up)
        np.cumprod(down, axis=1, out=down)
    return t


def _real_if_real(lam):
    if not np.isrealobj(lam) and np.all(lam.imag == 0.0):
        return lam.real.copy()
    return lam


def _power_family(medium, cid, geometries, p_orders, m_orders, spec, sigma=None):
    """Integrals of sigma * E * (-i w_s)^p (i/w_t)^m for all orders at once.

    One (len(m_orders), len(p_orders)) matrix per (alpha, beta, X) of
    geometries.  At a node the integrand is the scalar c = sigma * E
    times the outer product of the rows (-i w_s)^p and (i/w_t)^m, so it
    is handed to the quadrature in factored form (c, A, B) and each
    panel's sums are two small GEMMs.  The powers come from cumulative
    products of per-node tables.  The bounded part runs on the half line
    with the symmetrized plane-wave factor (sigma is even): the reflected
    sign reuses the same sigma, h and w at the node, and because
    (-i w)^(-n) = (i/w)^n its rows are the same tables read at negated
    orders, stacked as a second term.  sigma comes from ``sigma``, a
    ``SigmaMemo`` of this component (a fresh one when None): an FMM pass
    shares one across its matrices, so a node array is solved once per
    pass.  The evanescent tails are taken along the Cagniard--de Hoop
    hyperbola whenever X != 0: on the real axis the high-order integrand
    peaks exponentially above the integral (the cos(lam X) oscillation
    cancels it back down), while on the deformed contour it decays
    pointwise like the result, so no relative accuracy is lost to
    cancellation.

    The integrals run as one lockstep family (``adaptive_family``): each
    refines on its own, and alpha, beta, X, the sign of each term and
    the contour map (real axis with sqrt substitution, CdH segment,
    hyperbola) are per-panel arrays, so one integrand call evaluates a
    chunk of panels of many geometries and solves the chunk's new sigma
    rows in one go.  A matrix is the running sum of its panels.
    """
    if sigma is None:
        sigma = SigmaMemo(medium, cid)
    elif sigma.medium is not medium or sigma.cid != cid:
        raise DomainError("sigma memo belongs to another medium or component")
    k_t = medium.wavenumbers[cid.t]
    k_s = medium.wavenumbers[cid.s]
    k_map = max(k_t, k_s)
    k_split = spec.resolve_split(medium)
    p_arr = np.asarray(p_orders)
    m_arr = np.asarray(m_orders)
    p_max = int(np.max(np.abs(p_arr)))
    m_max = int(np.max(np.abs(m_arr)))
    order_boost = p_max + m_max
    # table columns of the terms of sign +1 and -1
    cols_p = p_max + np.multiply.outer((1, -1), p_arr)
    cols_m = m_max + np.multiply.outer((1, -1), m_arr)

    def factors(lam, dinfo, signs, geo):
        """(c, A, B) of n panels at (possibly complex) nodes lam, (n, 15).

        signs (n, R) gives each term's sign of X: +1 is the native
        integrand, -1 the lam -> -lam reflection by evenness of sigma and
        h.  geo (n, 3) holds alpha, beta, X per panel, complex so that
        they multiply the complex node values as the scalars they are.
        """
        lam = _real_if_real(lam)
        ht = branch_sqrt_arr(hsq(lam, k_t, dinfo))
        wt = w_from_h(lam, ht, k_t)
        if k_s == k_t:
            hs, ws = ht, wt
        else:
            hs = branch_sqrt_arr(hsq(lam, k_s, dinfo))
            ws = w_from_h(lam, hs, k_s)
        sig = sigma.rows(lam, dinfo)
        alpha, beta, X = geo[:, 0:1], geo[:, 1:2], geo[:, 2:3]
        phase = 1j * lam * X
        c = sig[:, None] * np.exp(
            (-ht * alpha - hs * beta)[:, None] + signs[:, :, None] * phase[:, None]
        )
        A = _power_table(-1j * ws.ravel(), 1j / ws.ravel(), p_max)
        B = _power_table(1j / wt.ravel(), -1j * wt.ravel(), m_max)
        return c, term_rows(A, cols_p, signs), term_rows(B, cols_m, signs)

    def term_rows(table, cols, signs):
        """(n, R, nodes, orders) rows of each term from a power table.

        A term of sign -1 reads the table at negated orders.
        """
        n, R = signs.shape
        both = np.take(table.reshape(n, -1, table.shape[1]), cols, axis=2)
        if R == 2:  # the signs (1, -1) of the real axis
            return both.transpose(0, 2, 1, 3)
        return both[np.arange(n)[:, None], :, (signs < 0).astype(int)]

    def f_sym(lam, dinfo, params):
        # the real axis, both signs of X; params are (alpha, beta, X)
        signs = np.tile((1, -1), (lam.shape[0], 1))
        return factors(lam, dinfo, signs, np.array(params, dtype=complex))

    def cdh_map(u, par):
        """Nodes and jacobians of n panels on the CdH contour.

        A row of par ends in (sign, 0, phi(k_split) - k_split, 0) on the
        segment from k_split to phi(k_split), and in (sign, 1, cos b,
        sin b) on the hyperbola phi(u) = u cos b + i sqrt(u^2 - k_map^2)
        sin b.
        """
        lam = np.empty(u.shape, dtype=complex)
        jac = np.empty(u.shape, dtype=complex)
        seg = par[:, 4].real == 0.0
        if seg.any():
            step = par[seg, 5:6]
            lam[seg] = k_split + u[seg] * step
            jac[seg] = step
        hyp = ~seg
        if hyp.any():
            lamp = u[hyp]
            cos_b, sin_b = par[hyp, 5:6].real, par[hyp, 6:7].real
            root = np.sqrt(lamp * lamp - k_map * k_map)
            lam[hyp] = lamp * cos_b + 1j * root * sin_b
            jac[hyp] = cos_b + 1j * lamp * sin_b / root
        return lam, jac

    def f_cdh(u, dinfo, params):
        # one sign of X per panel, on the Cagniard--de Hoop contour
        par = np.array(params, dtype=complex)
        lam, jac = cdh_map(u, par)
        c, A, B = factors(lam, None, par[:, 3:4].real.astype(int), par)
        return c * jac[:, None], A, B

    branch = sorted(set(medium.wavenumbers))
    members = []
    for alpha, beta, X in geometries:
        H = alpha + beta
        geo = (alpha, beta, X)
        segs = _build_segments(
            f_sym, 0.0, k_split, branch, X, min_extra=order_boost // 8, params=geo
        )
        if X == 0.0:
            lam_max = tail_cutoff(
                H, spec.rtol, k_map, order=order_boost, k_order=min(k_t, k_s)
            )
            lam_max = max(lam_max, 1.5 * k_split, spec.lam_max or 0.0)
            segs += _build_segments(f_sym, k_split, lam_max, [], 0.0, params=geo)
        else:
            rho = math.hypot(X, H)
            lam_max = tail_cutoff(
                rho, spec.rtol, k_map, order=order_boost, k_order=min(k_t, k_s)
            )
            lam_max = max(lam_max, 1.5 * k_split, spec.lam_max or 0.0)
            for sign in (1, -1):
                theta = math.atan2(H, sign * X)
                b_ang = 0.5 * math.pi - theta
                phi_ks = complex(
                    k_split * math.cos(b_ang),
                    math.sqrt(k_split**2 - k_map**2) * math.sin(b_ang),
                )
                segs.append(
                    Segment(f_cdh, 0.0, 1.0, "none", 2, geo + (sign, 0, phi_ks - k_split, 0))
                )
                segs += _build_segments(
                    f_cdh, k_split, lam_max, [], 0.0,
                    min_extra=order_boost // 12,
                    params=geo + (sign, 1, math.cos(b_ang), math.sin(b_ang)),
                )
        members.append((segs, component_abs_floor(spec.rtol, H)))
    out = [None] * len(members)
    # the refinement budget competes across all order components
    budget = spec.max_panels + 150 * (len(p_orders) + len(m_orders))
    for i, res in adaptive_family(members, spec.rtol, max_panels=budget):
        out[i] = res.value.reshape(len(p_orders), len(m_orders)).T
    return out


def me_expansion_functions(medium, cid, x, x_c, P, spec=None):
    """I_p(x, x_c) for all |p| < P (shared sigma samples across orders)."""
    spec = spec or ContourSpec()
    _require_pole_free(medium, spec)
    geometry = component_geometry_centers(medium, cid, x, x_c)
    return _power_family(medium, cid, [geometry], _orders(P), [0], spec)[0][0]


def component_geometry_centers(medium, cid, x1, x2):
    """Like component_geometry but x1/x2 need not be inside their layers;
    only the propagating-side inequalities are enforced (centers may sit
    anywhere on the correct side of their interfaces)."""
    cid.validate(medium.n_interfaces)
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    alpha = cid.dir_t.tau * (x1[1] - d_t)
    beta = cid.dir_s.tau * (x2[1] - d_s)
    if not (alpha > 0 and beta > 0):
        raise DomainError("points must lie on their propagating sides")
    return alpha, beta, x1[0] - x2[0]


def me_eval(medium, me, x, spec=None, c0=2.0):
    """Evaluate a multipole expansion at a far target."""
    pair = PolarizedPair(tuple(x), me.center, me.cid)
    D = polarized_distance(medium, pair)
    if not D > c0 * me.radius:
        raise FarFieldError(
            f"target at polarized distance {D:.3g} violates D > c0*radius "
            f"({c0:.3g} * {me.radius:.3g})"
        )
    ip = me_expansion_functions(medium, me.cid, x, me.center, me.P, spec)
    return complex(np.sum(ip * me.coeffs))


def le_coeffs_direct(medium, cid, x_c_l, sources, strengths, M, spec=None):
    """L_m as the sum of every source's own L_m (the direct,
    translation-free route); the sources' integrals run as one family."""
    spec = spec or ContourSpec()
    _require_pole_free(medium, spec)
    cid.validate(medium.n_interfaces)
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    k_t = medium.wavenumbers[cid.t]
    tau_t = cid.dir_t.tau
    if not tau_t * (x_c_l[1] - d_t) > 0:
        raise DomainError("local center is on the wrong side of its interface")
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    strengths = np.atleast_1d(np.asarray(strengths, dtype=complex))
    geometries = [component_geometry_centers(medium, cid, x_c_l, xy) for xy in sources]
    lms = _power_family(medium, cid, geometries, [0], _orders(M), spec)
    total = np.zeros(2 * M - 1, dtype=complex)
    reach = math.inf
    for xy, q, lm in zip(sources, strengths, lms):
        total += q * lm[:, 0]
        reach = min(
            reach, polarized_distance(medium, PolarizedPair(tuple(x_c_l), tuple(xy), cid))
        )
    return LocalExpansion(cid, tuple(x_c_l), k_t, d_t, total, reach)


def le_eval(le, x, c0=2.0):
    """Evaluate a local expansion at a target near its center."""
    r = math.hypot(x[0] - le.center[0], x[1] - le.center[1])
    if not le.reach > c0 * r:
        raise FarFieldError(
            f"target at {r:.3g} from the local center violates reach > c0*r "
            f"(reach {le.reach:.3g})"
        )
    m = _orders(le.M)
    dx, dy = x[0] - le.center[0], x[1] - le.center[1]
    rho = math.hypot(dx, dy)
    th = math.atan2(dy, dx)
    tau_t = le.cid.dir_t.tau
    j = bessel_j_orders(np.array([le.k_target * rho]), le.M - 1)[:, 0]
    return complex(np.sum(le.coeffs * j * np.exp(1j * m * tau_t * th)))


def m2l(
    medium, cid, x_c_l, x_c, M, P, spec=None, source_radius=None, c0=2.0, sigma=None
):
    """Translation matrix A_mp from a source center to a local center.

    The matrix is ``m2l_family`` of the one pair, after the far-field
    check.  sigma: an optional ``SigmaMemo`` of (medium, cid) shared with
    other builds; it changes how often sigma is solved, never the matrix.
    """
    D = polarized_distance(medium, PolarizedPair(tuple(x_c_l), tuple(x_c), cid))
    if source_radius is not None and not D > c0 * source_radius:
        raise FarFieldError(
            f"centers at polarized distance {D:.3g} violate D > c0*radius"
        )
    (A,) = m2l_family(medium, cid, [(x_c_l, x_c)], M, P, spec, sigma)
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    return TranslationMatrix(
        cid, tuple(x_c), tuple(x_c_l), A, D, medium.wavenumbers[cid.t], d_t
    )


def m2l_family(medium, cid, centers, M, P, spec=None, sigma=None):
    """M2L matrices A_mp for many (local center, source center) pairs.

    All pairs belong to one component and one spec, and their
    quadratures run as one lockstep family (``_power_family``): each
    matrix refines on its own, with the panels it would take alone, so
    matrix i is bitwise the matrix of ``m2l(medium, cid, *centers[i], M,
    P, spec)``, while a chunk of panels of many matrices costs one
    integrand call and one sigma solve for its new node arrays.  sigma,
    as in ``m2l``, changes how often sigma is solved, never a matrix.
    """
    spec = spec or ContourSpec()
    _require_pole_free(medium, spec)
    geometries = [
        component_geometry_centers(medium, cid, x_c_l, x_c) for x_c_l, x_c in centers
    ]
    return _power_family(medium, cid, geometries, _orders(P), _orders(M), spec, sigma)


def m2l_apply(tm, me):
    """Local expansion induced by a multipole expansion through A_mp."""
    if me.cid != tm.cid or tuple(me.center) != tuple(tm.source_center):
        raise DomainError("translation matrix does not match this expansion")
    P = tm.matrix.shape[1]
    if len(me.coeffs) != P:
        raise DomainError("order mismatch between matrix and expansion")
    coeffs = tm.matrix @ me.coeffs
    # the nearest source image sits at most `radius` inside the center image
    reach = tm.source_distance - me.radius
    return LocalExpansion(
        tm.cid, tuple(tm.local_center), tm.k_target, tm.d_target, coeffs, reach
    )


def l2l(le, new_center, P):
    """Shift a local expansion to a new center (order P in the sum)."""
    shift = (new_center[0] - le.center[0], new_center[1] - le.center[1])
    snorm = math.hypot(*shift)
    if not le.reach > snorm:
        raise FarFieldError("shift exceeds the expansion's far-field reach")
    M = le.M
    nmax = max(P + M - 2, 0)
    kern = regular_orders(shift, le.k_target, nmax, tau=le.cid.dir_t.tau)
    # the sum runs over |p| < P and the input holds |p| < M
    n = min(M, P)
    coeffs = _toeplitz(kern, M, n, -1) @ le.coeffs[M - n : M + n - 1]
    return LocalExpansion(
        le.cid, tuple(new_center), le.k_target, le.d_target, coeffs, le.reach - snorm
    )


def m2m(me, new_center):
    """Re-center a multipole expansion (same generating-function kernel)."""
    tau_s = me.cid.dir_s.tau
    if not tau_s * (new_center[1] - me.d_source) > 0:
        raise DomainError("new center is on the wrong side of the interface")
    shift = (me.center[0] - new_center[0], me.center[1] - new_center[1])
    snorm = math.hypot(*shift)
    P = me.P
    kern = regular_orders(shift, me.k_source, 2 * P - 2, tau=tau_s)
    coeffs = _toeplitz(kern, P, P, 1) @ me.coeffs
    return MultipoleExpansion(
        me.cid, tuple(new_center), me.k_source, me.d_source, coeffs, me.radius + snorm
    )


def choose_truncation(ratio, eps, k, rho_geom, C_safe=1e3, P_min=8, c0=2.0):
    """Truncation order from the geometric rate plus the onset bounds.

    P = max(ceil((log eps - log C_safe)/log ratio), ceil(e k rho_geom), P_min);
    the first term drives the geometric envelope below eps with a safety
    constant standing in for the unknown polynomial prefactor (the FMM
    passes one measured on its own geometry), the second is the order at
    which the envelope becomes valid.
    """
    if not 0 < ratio <= 1.0 / c0:
        raise DomainError(f"geometry ratio {ratio} must lie in (0, 1/c0]")
    if not 0 < eps < 1:
        raise DomainError("target accuracy must lie in (0, 1)")
    p_geom = math.ceil((math.log10(eps) - math.log10(C_safe)) / math.log10(ratio))
    p_onset = math.ceil(math.e * k * rho_geom)
    return int(max(p_geom, p_onset, P_min))


# ---------------------------------------------------------------------------
# free-space expansions (Graf route, used by the same-layer FMM pass)
# ---------------------------------------------------------------------------


def fs_me(sources, strengths, center, k, P):
    """Free-space ME: alpha_p = sum_j q_j J_p(k rho_j) e^{-i p theta_j}."""
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    strengths = np.atleast_1d(np.asarray(strengths, dtype=complex))
    coeffs, radius = _regular_sums(sources, strengths, center, k, P, -1.0)
    return FreeSpaceME(tuple(center), k, coeffs, radius)


def fs_me_eval(fsme, x, c0=2.0):
    """(i/4) sum_p alpha_p H_p(k rho_c) e^{i p theta_c} at a far target."""
    dx, dy = x[0] - fsme.center[0], x[1] - fsme.center[1]
    rho = math.hypot(dx, dy)
    if not rho > c0 * fsme.radius:
        raise FarFieldError("target is not well separated from the sources")
    th = math.atan2(dy, dx)
    p = _orders(fsme.P)
    h = hankel1_orders(np.array([fsme.k * rho]), fsme.P - 1)[:, 0]
    return complex(0.25j * np.sum(fsme.coeffs * h * np.exp(1j * p * th)))


def fs_m2m(fsme, new_center):
    """Shift alpha_p; kernel is the conjugate-phase regular sequence."""
    shift = (fsme.center[0] - new_center[0], fsme.center[1] - new_center[1])
    snorm = math.hypot(*shift)
    P = fsme.P
    kern = np.conj(regular_orders(shift, fsme.k, 2 * P - 2))
    coeffs = _toeplitz(kern, P, P, 1) @ fsme.coeffs
    return FreeSpaceME(tuple(new_center), fsme.k, coeffs, fsme.radius + snorm)


def _fs_m2l_kernel(b, k, nmax):
    """(i/4) O_n(b) = (i/4) H_n(k |b|) e^{i n arg b} for |n| <= nmax."""
    h = hankel1_orders(np.array([k * math.hypot(*b)]), nmax)[:, 0]
    n = np.arange(-nmax, nmax + 1)
    return 0.25j * h * np.exp(1j * n * math.atan2(b[1], b[0]))


def fs_m2l(fsme, local_center, M, c0=2.0):
    """Outgoing-to-regular translation via O_{p-q}(local - source)."""
    b = (local_center[0] - fsme.center[0], local_center[1] - fsme.center[1])
    bnorm = math.hypot(*b)
    if not bnorm > c0 * fsme.radius:
        raise FarFieldError("centers are not well separated")
    kern = _fs_m2l_kernel(b, fsme.k, fsme.P + M - 2)
    coeffs = _toeplitz(kern, M, fsme.P, -1) @ fsme.coeffs
    return FreeSpaceLE(tuple(local_center), fsme.k, coeffs, bnorm - fsme.radius)


def fs_l2l(fsle, new_center):
    """Re-center a free-space local expansion."""
    shift = (new_center[0] - fsle.center[0], new_center[1] - fsle.center[1])
    snorm = math.hypot(*shift)
    M = (len(fsle.coeffs) + 1) // 2
    kern = regular_orders(shift, fsle.k, 2 * M - 2)
    coeffs = _toeplitz(kern, M, M, -1) @ fsle.coeffs
    return FreeSpaceLE(tuple(new_center), fsle.k, coeffs, fsle.reach - snorm)


def fs_le_eval(fsle, x):
    dx, dy = x[0] - fsle.center[0], x[1] - fsle.center[1]
    rho = math.hypot(dx, dy)
    if not rho < fsle.reach:
        raise FarFieldError("target outside the local expansion's disk")
    M = (len(fsle.coeffs) + 1) // 2
    r = regular_orders((dx, dy), fsle.k, M - 1)
    return complex(np.sum(fsle.coeffs * r))


# ---------------------------------------------------------------------------
# measured convergence rates
# ---------------------------------------------------------------------------


def partial_sum_errors(terms_by_order, reference, P_values):
    """|sum_{|p|<P} term_p - reference| / |reference| for each P."""
    out = []
    n = (len(terms_by_order) + 1) // 2
    for P in P_values:
        if P > n:
            raise DomainError("P exceeds the computed order range")
        sl = slice(n - P, n + P - 1)
        out.append(abs(np.sum(terms_by_order[sl]) - reference) / abs(reference))
    return np.array(out)


def fit_rate(P_values, errors, floor_factor=50.0):
    """Least-squares slope of log10(error) vs P over the pre-plateau regime.

    Drops the leading pre-asymptotic points (before errors start falling)
    and everything within floor_factor of the plateau floor.
    """
    P_values = np.asarray(P_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    # plateau estimate: the tail of the sweep (never below roundoff; an
    # exactly-zero sample just means the plateau is at machine level)
    tail = errors[-3:]
    floor = max(float(np.median(tail)), float(np.min(errors[errors > 0], initial=1e-16)), 1e-16)
    keep = errors > floor_factor * floor
    # drop leading entries until the sequence decreases
    start = 0
    while start + 1 < len(errors) and not errors[start + 1] < errors[start]:
        start += 1
    keep[:start] = False
    if np.count_nonzero(keep) < 3:
        keep = (errors > 5 * floor) & (errors > 0)
        keep[:start] = False
    if np.count_nonzero(keep) < 2:
        raise DomainError("not enough points above the plateau to fit a rate")
    slope = np.polyfit(P_values[keep], np.log10(errors[keep]), 1)[0]
    return float(slope)
