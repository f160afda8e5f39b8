"""Spectral quadrature for the layered Green's function.

Every reaction component is an oscillatory integral over the real
spectral axis.  The machinery here:

* nested 15-point Gauss--Kronrod panels with recursive bisection and a
  deterministic sorted-interval reduction;
* sqrt substitution panels on both sides of every branch point +-k_l,
  which absorb the 1/h and h-cusp behavior of the integrand exactly
  (the transformed integrand is analytic in the new variable);
* surface-wave poles handled by the limiting formula: the simple pole is
  subtracted inside a symmetric window (where its principal value
  vanishes) and the half-residue i*pi term is added with the sign fixed
  by the lossy perturbation, or alternatively the whole integral is run
  on a slightly lossy medium and Richardson-extrapolated (pole_mode
  "perturbed", kept as an independent oracle);
* optional Cagniard--de Hoop tails: the map
  phi(z) = z cos(beta) + i sqrt(z^2 - k^2) sin(beta) turns the
  oscillatory tail exponential into a purely decaying one, so the tail
  panels stop tracking oscillations.

The evenness of sigma in lambda is exact for the assembled systems, so
component integrals run on the half line with the symmetrized plane-wave
factor by default; the full-line path is retained for consistency
checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .errors import (
    CoincidentPointsError,
    DomainError,
    ToleranceNotReachedError,
)
from .medium import admissible_components, layer_of, relevant_interface
from .sigma import find_real_poles, sigma_component_batch
from .special import branch_sqrt_arr, hankel1, hsq, w_from_h

# 15-point Kronrod nodes (ascending) with the embedded 7-point Gauss rule
# sitting on the odd-indexed nodes.
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # ascending, 15 nodes
GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
G7_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])  # applies to nodes[1::2]


@dataclass
class Segment:
    """One integration segment with an optional sqrt substitution.

    sub='left' means the integrand may carry an inverse-sqrt (or sqrt
    cusp) singularity at the left endpoint; the segment is integrated in
    the variable u with lambda = a + u^2.  'right' mirrors this.  The
    engine hands the integrand plain lambda arrays either way.
    """

    f: object
    a: float
    b: float
    sub: str = "none"
    min_panels: int = 1

    def u_range(self):
        if self.sub == "none":
            return self.a, self.b
        return 0.0, math.sqrt(self.b - self.a)

    def map(self, u):
        """(lambda, jacobian, dinfo); dinfo carries the exact offset.

        Near a branch point the stored lambda loses the offset to
        rounding (lambda = a + u^2 collapses onto a once u^2 < eps*a),
        so anchored integrands receive (anchor, delta) with delta exact
        in u-space and rebuild lambda^2 - k^2 as delta*(2k + delta).
        """
        if self.sub == "none":
            return u, np.ones_like(u), None
        tiny = 1e-280
        if self.sub == "left":
            delta = np.maximum(u * u, tiny)
            return self.a + delta, 2.0 * u, (self.a, delta)
        delta = -np.maximum(u * u, tiny)
        return self.b + delta, 2.0 * u, (self.b, delta)


@dataclass
class QuadResult:
    value: np.ndarray
    err: np.ndarray
    n_panels: int
    nodes: np.ndarray = None
    weights: np.ndarray = None
    spans: list = None


def _factored_sums(c, A, B, scale):
    """GK15 and G7 sums of sum_r c[r, n] * outer(A[r, n], B[r, n]).

    Each is one GEMM over the (term, node) rows, flattened row-major.
    None when a weighted factor or a sum is non-finite.
    """
    sums = []
    for nodes, w in ((slice(None), GK_WEIGHTS), (slice(1, None, 2), G7_WEIGHTS)):
        a = A[:, nodes] * (c[:, nodes] * (scale[nodes] * w))[..., None]
        b = B[:, nodes]
        # checked on the Kronrod rows; the Gauss rows are a subset of them
        if not sums and not (np.isfinite(a).all() and np.isfinite(b).all()):
            return None
        total = a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])
        sums.append(total.ravel())
    if not all(np.isfinite(s).all() for s in sums):
        return None
    return sums


def _panel(seg, ua, ub):
    """GK15 value, GK15 - G7 error, nodes and weights of one panel.

    seg.f returns either the integrand values (nodes first, any trailing
    shape) or a factored integrand (c, A, B) with value
    sum_r c[r, n] * outer(A[r, n], B[r, n]) at node n, whose Kronrod and
    Gauss sums are then two small GEMMs and the (nodes x |A| |B|) array
    never exists.
    """
    mid = 0.5 * (ua + ub)
    half = 0.5 * (ub - ua)
    u = mid + half * GK_NODES
    lam, jac, dinfo = seg.map(u)
    fx = seg.f(lam) if dinfo is None else seg.f(lam, dinfo)
    if isinstance(fx, tuple):
        sums = _factored_sums(*fx, half * jac)
        if sums is None:
            raise ToleranceNotReachedError(
                f"integrand is non-finite on panel [{lam[0]}, {lam[-1]}]"
            )
        ik, ig = sums
        return ik, np.abs(ik - ig), lam, half * GK_WEIGHTS * jac
    fx = np.asarray(fx, dtype=complex)
    if not np.all(np.isfinite(fx.view(float))):
        raise ToleranceNotReachedError(
            f"integrand is non-finite on panel [{lam[0]}, {lam[-1]}]"
        )
    if fx.ndim == 1:
        fx = fx * jac
    else:
        fx = fx * jac[:, None]
    ik = half * np.tensordot(GK_WEIGHTS, fx, axes=(0, 0))
    ig = half * np.tensordot(G7_WEIGHTS, fx[1::2], axes=(0, 0))
    err = np.atleast_1d(np.abs(ik - ig))
    return np.atleast_1d(ik), err, lam, half * GK_WEIGHTS * jac


def adaptive_segments(
    segments, rtol, *, atol=0.0, max_panels=6000, collect_rule=False
):
    """Globally adaptive GK15 integration over a list of segments.

    The integrand may be vector valued; refinement continues until every
    component's accumulated error estimate is below
    max(rtol*|V_c|, rtol*1e-3*max_c|V_c|, atol).  Panels are summed in
    sorted interval order so results are independent of refinement
    history and worker counts.  A split panel's entry is dropped: only
    live panels are ever read again.
    """
    panels = []  # (seg_idx, ua, ub, val, err, nodes, wts); None once split
    heap = []
    counter = 0
    run_val = None
    run_err = None
    run_abs = None  # sum of |panel value| per component: roundoff floor
    denom = None  # frozen per-component error scale for refinement priority

    def push(si, ua, ub):
        nonlocal counter, run_val, run_err, run_abs
        seg = segments[si]
        val, err, nodes, wts = _panel(seg, ua, ub)
        panels.append((si, ua, ub, val, err, nodes, wts))
        if denom is not None:
            heappush(heap, (-float(np.max(err / denom)), counter, len(panels) - 1))
        counter += 1
        if run_val is None:
            run_val = val.copy()
            run_err = err.copy()
            run_abs = np.abs(val)
        else:
            run_val += val
            run_err += err
            run_abs += np.abs(val)

    for si, seg in enumerate(segments):
        ua, ub = seg.u_range()
        n0 = max(1, int(seg.min_panels))
        edges = np.linspace(ua, ub, n0 + 1)
        for i in range(n0):
            push(si, edges[i], edges[i + 1])

    eps100 = 100.0 * np.finfo(float).eps

    def current_tol():
        # each component converges relative to itself; the summation
        # roundoff floor eps * sum|panel| is the best achievable once
        # panel values cancel
        t = np.maximum(rtol * np.abs(run_val), eps100 * run_abs)
        return np.maximum(t, max(atol, 1e-300))

    # refinement priority is error relative to each component's own
    # convergence target; the snapshot is rebuilt whenever the running
    # totals drift, otherwise coarse seed values misallocate the budget
    def rebuild_heap():
        heap.clear()
        for i, p in enumerate(panels):
            if p is not None:
                heappush(heap, (-float(np.max(p[4] / denom)), i, i))

    denom = current_tol()
    rebuild_heap()

    n_evals = len(panels)
    while True:
        tol_c = current_tol()
        if np.all(run_err <= tol_c):
            break
        if n_evals >= max_panels:
            raise ToleranceNotReachedError(
                f"quadrature did not reach rtol={rtol} within {max_panels} panels",
                value=run_val,
                err=run_err,
            )
        drift = np.max(np.maximum(denom / tol_c, tol_c / denom))
        if drift > 8.0:
            denom = tol_c
            rebuild_heap()
        while heap:
            _, _, idx = heappop(heap)
            if panels[idx] is not None:
                break
        else:
            break
        si, ua, ub, val, err, _, _ = panels[idx]
        panels[idx] = None
        run_val -= val
        run_err -= err
        run_abs -= np.abs(val)
        um = 0.5 * (ua + ub)
        push(si, ua, um)
        push(si, um, ub)
        n_evals += 2

    live = sorted((p for p in panels if p is not None), key=lambda p: (p[0], p[1]))
    value = sum(p[3] for p in live)
    err = sum(p[4] for p in live)
    result = QuadResult(value, err, len(live))
    if collect_rule:
        result.nodes = np.concatenate([p[5] for p in live])
        result.weights = np.concatenate([p[6] for p in live])
        result.spans = [(p[0], p[1], p[2]) for p in live]
    return result


@dataclass(frozen=True)
class ContourSpec:
    """Contour layout and tolerance for the spectral integrals.

    k_split and lam_max default to geometry-driven choices:
    k_split = 1.2 max_l k_l + 1 and lam_max such that the tail
    exponential is below tol/100.
    """

    rtol: float = 1e-9
    k_split: float = None
    lam_max: float = None
    pole_mode: str = "corrected"
    full_line: bool = False
    cdh_aperture: float = 5.0
    max_panels: int = 6000

    def __post_init__(self):
        if not 1e-14 < self.rtol < 1e-2:
            raise DomainError("panel tolerance must lie in (1e-14, 1e-2)")
        if self.pole_mode not in ("corrected", "perturbed"):
            raise DomainError("pole_mode must be 'corrected' or 'perturbed'")

    def resolve_split(self, medium):
        ks = self.k_split if self.k_split is not None else 1.2 * medium.k_max + 1.0
        if ks <= medium.k_max:
            raise DomainError("k_split must exceed every layer wavenumber")
        return ks


def tail_cutoff(H, tol, kbar, order=0, k_order=1.0):
    """Smallest usable tail truncation point.

    Chooses lam_max with exp(-sqrt(lam^2-kbar^2) H) * (2 lam/k)^order
    below tol/100, the pure-exponential solution when order = 0.
    """
    if H <= 0:
        raise DomainError("tail cutoff needs a positive vertical offset")
    target = math.log(100.0 / tol)
    lam = math.sqrt(kbar**2 + (target / H) ** 2)
    if order > 0:
        while True:
            g = math.sqrt(lam**2 - kbar**2) * H - order * math.log(
                max(2.0 * lam / k_order, 2.0)
            )
            if g >= target:
                break
            lam *= 1.25
    return lam


def _pole_cache(medium, k_split):
    return _pole_cache_impl(medium, round(float(k_split), 12))


@lru_cache(maxsize=64)
def _pole_cache_impl(medium, k_split):
    return tuple(find_real_poles(medium, (1e-6 * medium.k_min, k_split)))


def component_geometry(medium, cid, x, xp):
    """Vertical offsets (alpha, beta) and horizontal separation X."""
    cid.validate(medium.n_interfaces)
    if layer_of(medium, x[1]) != cid.t:
        raise DomainError(f"target {x} is not in layer {cid.t}")
    if layer_of(medium, xp[1]) != cid.s:
        raise DomainError(f"source {xp} is not in layer {cid.s}")
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    alpha = cid.dir_t.tau * (x[1] - d_t)
    beta = cid.dir_s.tau * (xp[1] - d_s)
    if not (alpha > 0 and beta > 0):
        raise DomainError("component geometry violates the propagating-side rule")
    return alpha, beta, x[0] - xp[0]


def _exp_factor_half(medium, cid, alpha, beta, X):
    """Symmetrized plane-wave factor E(lam) + E(-lam) on the half line."""
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]

    def g(lam, dinfo=None):
        ht = branch_sqrt_arr(hsq(lam, kt, dinfo))
        hs = branch_sqrt_arr(hsq(lam, ks, dinfo))
        return 2.0 * np.cos(lam * X) * np.exp(-ht * alpha - hs * beta)

    return g


def _exp_factor_full(medium, cid, alpha, beta, X):
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]

    def g(lam, dinfo=None):
        ht = branch_sqrt_arr(hsq(lam, kt, dinfo))
        hs = branch_sqrt_arr(hsq(lam, ks, dinfo))
        return np.exp(-ht * alpha - hs * beta + 1j * lam * X)

    return g


def _build_segments(f, lo, hi, branch_pts, osc, min_extra=0):
    """Split [lo, hi] at branch points, with sqrt panels on both sides."""
    pts = sorted({lo, hi} | {b for b in branch_pts if lo < b < hi})
    segments = []
    for a, b in zip(pts[:-1], pts[1:]):
        a_branch = any(abs(a - c) == 0.0 for c in branch_pts)
        b_branch = any(abs(b - c) == 0.0 for c in branch_pts)
        period_panels = int(math.ceil((b - a) * abs(osc) / (4 * math.pi)))
        n0 = 1 + period_panels + min_extra
        if a_branch and b_branch:
            m = 0.5 * (a + b)
            segments.append(Segment(f, a, m, "left", n0))
            segments.append(Segment(f, m, b, "right", n0))
        elif a_branch:
            segments.append(Segment(f, a, b, "left", n0))
        elif b_branch:
            segments.append(Segment(f, a, b, "right", n0))
        else:
            segments.append(Segment(f, a, b, "none", n0))
    return segments


def _carve_pole_windows(interval, locations):
    """Symmetric windows around each pole, sized to clear other features."""
    lo, hi = interval
    locs = sorted(locations)
    windows = []
    for i, lam in enumerate(locs):
        gaps = [lam - lo, hi - lam]
        if i > 0:
            gaps.append(0.5 * (lam - locs[i - 1]))
        if i + 1 < len(locs):
            gaps.append(0.5 * (locs[i + 1] - lam))
        w = 0.45 * min(gaps)
        windows.append((lam - w, lam + w))
    return windows


def component_abs_floor(rtol, H):
    """Absolute error floor for a reaction component integral.

    The component magnitude is bounded by the free-space kernel scale
    ~ (1/4pi) max(1, 1/H); anything 100x below rtol at that scale is
    numerically zero (a homogeneous medium gives sigma = 0 exactly and a
    relative target alone would refine roundoff noise forever).
    """
    return rtol * 1e-2 / (4 * math.pi) * max(1.0, 1.0 / H)


def evaluate_component(medium, cid, x, xp, spec=None):
    """One reaction-field component integral for a target/source pair."""
    spec = spec or ContourSpec()
    alpha, beta, X = component_geometry(medium, cid, x, xp)
    k_split = spec.resolve_split(medium)
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]
    kbar = max(kt, ks)
    H = alpha + beta
    lam_max = spec.lam_max if spec.lam_max is not None else tail_cutoff(
        H, spec.rtol, kbar
    )
    if lam_max <= k_split:
        lam_max = 1.5 * k_split

    if spec.pole_mode == "perturbed":
        return _evaluate_component_perturbed(
            medium, cid, alpha, beta, X, spec, lam_max
        )

    poles = [p for p in _pole_cache(medium, k_split) if p.location < lam_max]

    def sig(lam, dinfo=None):
        return sigma_component_batch(medium, lam, cid, dinfo=dinfo)

    if spec.full_line:
        e_full = _exp_factor_full(medium, cid, alpha, beta, X)

        def f_plain(lam, dinfo=None):
            return sig(lam, dinfo) * e_full(lam, dinfo)

        branch = sorted({c * s for c in medium.wavenumbers for s in (1.0, -1.0)})
        # mirror poles: sigma even means residue(-lam_nu) = -residue(+lam_nu)
        # and the perturbed root crosses from the opposite half-plane
        plist = [(p.location, p.residues[cid], p.side) for p in poles]
        plist += [(-p.location, -p.residues[cid], -p.side) for p in poles]
        total, _ = _integrate_with_windows(
            f_plain, e_full, -lam_max, lam_max, branch, plist, X, spec,
            atol=component_abs_floor(spec.rtol, H),
        )
        return total

    e_sym = _exp_factor_half(medium, cid, alpha, beta, X)

    def f_plain(lam, dinfo=None):
        return sig(lam, dinfo) * e_sym(lam, dinfo)

    branch = sorted(set(medium.wavenumbers))
    plist = [(p.location, p.residues[cid], p.side) for p in poles]
    total, _ = _integrate_with_windows(
        f_plain, e_sym, 0.0, lam_max, branch, plist, X, spec,
        atol=component_abs_floor(spec.rtol, H),
    )
    return total


def _integrate_with_windows(f_plain, efac, lo, hi, branch, plist, X, spec, atol=0.0):
    """Adaptive integral of sigma*efac with pole windows carved out.

    plist holds (location, sigma residue, side) triples.  Inside each
    window the simple pole of the full integrand is subtracted (its
    principal value over the symmetric window vanishes) and the
    half-residue i*pi term is added with the stored side.
    """
    plist = sorted(plist)
    windows = _carve_pole_windows((lo, hi), [p[0] for p in plist])
    segments = []
    cuts = [lo] + [e for w in windows for e in w] + [hi]
    for a, b in zip(cuts[:-1:2], cuts[1::2]):
        segments += _build_segments(f_plain, a, b, branch, X)
    pole_term = 0.0 + 0.0j
    for (lam_nu, res_sigma, side), (wa, wb) in zip(plist, windows):
        r_full = res_sigma * efac(np.array([lam_nu]))[0]

        def f_sub(lam, dinfo=None, _r=r_full, _l=lam_nu):
            return f_plain(lam, dinfo) - _r / (lam - _l)

        # split at the pole so it stays a panel edge (GK nodes are interior)
        segments += _build_segments(f_sub, wa, lam_nu, branch, X, min_extra=1)
        segments += _build_segments(f_sub, lam_nu, wb, branch, X, min_extra=1)
        pole_term += side * 1j * math.pi * r_full
    result = adaptive_segments(
        segments, spec.rtol, atol=atol, max_panels=spec.max_panels
    )
    return complex(result.value[0]) + pole_term, result.n_panels


def _evaluate_component_perturbed(medium, cid, alpha, beta, X, spec, lam_max):
    """Lossy-limit evaluation: k_l -> k_l (1 + i eps), Richardson in eps."""
    eps_list = (1e-3, 5e-4, 2.5e-4)
    vals = []
    for eps in eps_list:
        ks = np.asarray(medium.wavenumbers, dtype=complex) * (1.0 + 1j * eps)

        def sig(lam, _ks=ks):
            return sigma_component_batch(medium, lam, cid, k_values=_ks)

        kt, ksrc = ks[cid.t], ks[cid.s]

        def efac(lam, _kt=kt, _ks=ksrc):
            lamc = lam.astype(complex)
            ht = branch_sqrt_arr((lamc - _kt) * (lamc + _kt))
            hs = branch_sqrt_arr((lamc - _ks) * (lamc + _ks))
            return 2.0 * np.cos(lam * X) * np.exp(-ht * alpha - hs * beta)

        def f(lam, dinfo=None):
            return sig(lam) * efac(lam)

        branch = sorted(k.real for k in ks)
        segments = _build_segments(f, 0.0, lam_max, branch, X, min_extra=2)
        res = adaptive_segments(
            segments,
            spec.rtol,
            atol=component_abs_floor(spec.rtol, alpha + beta),
            max_panels=spec.max_panels,
        )
        vals.append(complex(res.value[0]))
    # Richardson in eps (halved each stage): first stage removes the
    # linear term, second the quadratic remainder
    v01 = 2 * vals[1] - vals[0]
    v12 = 2 * vals[2] - vals[1]
    return (4 * v12 - v01) / 3


def free_space_green(k, x, xp):
    """(i/4) H_0^{(1)}(k |x - x'|)."""
    r = math.hypot(x[0] - xp[0], x[1] - xp[1])
    if r == 0.0:
        raise CoincidentPointsError("free-space Green's function at zero distance")
    return 0.25j * hankel1(0, k * r)


def green(medium, x, xp, spec=None):
    """Layered-medium Green's function G(x, x')."""
    spec = spec or ContourSpec()
    t = layer_of(medium, x[1])
    s = layer_of(medium, xp[1])
    total = 0.0 + 0.0j
    for cid in admissible_components(t, s, medium.n_interfaces):
        total += evaluate_component(medium, cid, x, xp, spec)
    if t == s:
        total += free_space_green(medium.wavenumbers[s], x, xp)
    return total


def sommerfeld_identity_check(k, x, xp, p=0, rtol=1e-10):
    """Residual of the Sommerfeld / plane-wave representation of H_p.

    Integrates (i/4)(1/(i pi)) \\int e^{-h(y-y')} e^{i lam (x-x')}
    (-i w)^p / h dlam and compares with (i/4) H_p(k rho) e^{i p theta};
    requires y - y' > 0.
    """
    k = float(k)
    X = x[0] - xp[0]
    Y = x[1] - xp[1]
    if not Y > 0:
        raise DomainError("the Sommerfeld form needs y - y' > 0")
    p = int(p)

    def f(lam, dinfo=None):
        h = branch_sqrt_arr(hsq(lam, k, dinfo))
        w = w_from_h(lam, h, k)
        if p == 0:
            ang = 2.0 * np.cos(lam * X)
        else:
            ang = (-1j * w) ** p * np.exp(1j * lam * X) + (
                1j / w
            ) ** p * np.exp(-1j * lam * X)
        return np.exp(-h * Y) / h * ang

    lam_max = tail_cutoff(Y, rtol, k, order=abs(p), k_order=k)
    segments = _build_segments(f, 0.0, lam_max, [k], X, min_extra=abs(p) // 6)
    res = adaptive_segments(segments, rtol)
    lhs = (0.25j / (1j * math.pi)) * complex(res.value[0])
    rho = math.hypot(X, Y)
    theta = math.atan2(Y, X)
    rhs = 0.25j * hankel1(p, k * rho) * np.exp(1j * p * theta)
    return abs(lhs - rhs)


def integrate_with_pole(
    h_fn, sigma_fn, pole, interval, *, residue=None, rtol=1e-10, osc=0.0
):
    """Limiting integral of h*sigma across one simple real pole.

    Implements: subtract h(lam_nu) sigma_nu / (lam - lam_nu) on a
    symmetric window around the pole (where its principal value is
    zero), integrate the rest plainly, and add +-i pi h(lam_nu) sigma_nu
    with the sign given by pole.side.
    """
    a, b = interval
    lam_nu = pole.location
    if not a < lam_nu < b:
        raise DomainError("pole must lie strictly inside the interval")
    if residue is None:
        if np.isscalar(pole.residues):
            residue = complex(pole.residues)
        else:
            raise DomainError("pass residue= for table-valued PoleInfo")

    def f_plain(lam):
        return np.asarray(h_fn(lam)) * np.asarray(sigma_fn(lam))

    if residue == 0:
        segs = _build_segments(f_plain, a, b, [], osc)
        return complex(adaptive_segments(segs, rtol).value[0])

    h_nu = complex(np.asarray(h_fn(np.array([lam_nu])))[0])
    w = min(lam_nu - a, b - lam_nu) * (1 - 1e-12)

    def f_sub(lam):
        return f_plain(lam) - h_nu * residue / (lam - lam_nu)

    segs = []
    if a < lam_nu - w:
        segs += _build_segments(f_plain, a, lam_nu - w, [], osc)
    segs += _build_segments(f_sub, lam_nu - w, lam_nu, [], osc, min_extra=1)
    segs += _build_segments(f_sub, lam_nu, lam_nu + w, [], osc, min_extra=1)
    if lam_nu + w < b:
        segs += _build_segments(f_plain, lam_nu + w, b, [], osc)
    val = complex(adaptive_segments(segs, rtol).value[0])
    return val + pole.side * 1j * math.pi * h_nu * residue


# ---------------------------------------------------------------------------
# Cagniard--de Hoop contour
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CdHMap:
    """The contour map phi(z) = z cos(beta) + i sqrt(z^2-k^2) sin(beta)."""

    beta: float
    k: float

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5 * math.pi:
            raise DomainError("CdH map requires beta in (0, pi/2)")
        if not self.k > 0:
            raise DomainError("CdH map requires k > 0")


def _phi_raw(z, beta, k):
    z = np.asarray(z, dtype=complex)
    return z * math.cos(beta) + 1j * branch_sqrt_arr(hsq(z, k)) * math.sin(beta)


def _phi_inv_raw(w, beta, k):
    w = np.asarray(w, dtype=complex)
    return w * math.cos(beta) - 1j * branch_sqrt_arr(hsq(w, k)) * math.sin(beta)


def _right_of_hyperbola(z, beta, k):
    a, b = np.real(z), np.imag(z)
    return (a > 0) & (
        a >= math.cos(beta) * np.sqrt((b / math.sin(beta)) ** 2 + k * k) - 1e-12 * k
    )


def in_d_plus(m, z):
    """Region right of the upper hyperbola branch (closure included)."""
    z = np.asarray(z, dtype=complex)
    return bool(np.all((z.imag >= -1e-14 * m.k) & _right_of_hyperbola(z, m.beta, m.k)))


def in_d_minus(m, z):
    """Region right of the lower hyperbola branch (closure included)."""
    z = np.asarray(z, dtype=complex)
    return bool(np.all((z.imag <= 1e-14 * m.k) & _right_of_hyperbola(z, m.beta, m.k)))


def cdh_phi(m, z):
    """Forward map on {Re z > 0} minus the open slit (0, k).

    The slit endpoint z = k (the hyperbola vertex, phi(k) = k cos beta)
    is admitted as the closure point where both square-root limits agree.
    """
    zc = complex(z)
    if zc.real <= 0:
        raise DomainError("cdh_phi requires Re z > 0")
    if zc.imag == 0 and 0 < zc.real < m.k:
        raise DomainError("cdh_phi is not defined on the slit (0, k)")
    return complex(_phi_raw(zc, m.beta, m.k))


def cdh_phi_inv(m, w):
    """Inverse map, defined on (the closure of) D^+."""
    wc = complex(w)
    if not in_d_plus(m, wc):
        raise DomainError("cdh_phi_inv requires w in D^+")
    return complex(_phi_inv_raw(wc, m.beta, m.k))


@dataclass
class TailResult:
    value: complex
    n_panels: int
    used_cdh: bool


def _tail_integrand(medium, cid, alpha, beta_y, sign_x, X):
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]

    def f(lam):
        lamc = np.asarray(lam, dtype=complex)
        ht = branch_sqrt_arr(hsq(lamc, kt))
        hs = branch_sqrt_arr(hsq(lamc, ks))
        sig = sigma_component_batch(medium, lamc, cid)
        return sig * np.exp(-ht * alpha - hs * beta_y + 1j * lamc * sign_x * X)

    return f


def real_axis_tails(medium, cid, x, xp, spec=None):
    """I_+ + I_- over (+-k_split, +-lam_max) along the real axis."""
    spec = spec or ContourSpec()
    alpha, beta_y, X = component_geometry(medium, cid, x, xp)
    k_split = spec.resolve_split(medium)
    kbar = max(medium.wavenumbers[cid.t], medium.wavenumbers[cid.s])
    lam_max = spec.lam_max if spec.lam_max is not None else tail_cutoff(
        alpha + beta_y, spec.rtol, kbar
    )
    lam_max = max(lam_max, 1.5 * k_split)
    total = 0.0 + 0.0j
    n_panels = 0
    for sgn in (1.0, -1.0):
        f = _tail_integrand(medium, cid, alpha, beta_y, sgn, X)
        segs = _build_segments(f, k_split, lam_max, [], X)
        res = adaptive_segments(segs, spec.rtol, max_panels=spec.max_panels)
        total += complex(res.value[0])
        n_panels += res.n_panels
    return TailResult(total, n_panels, False)


def tail_integral_cdh(medium, cid, x, xp, spec=None):
    """Tail integrals along the Cagniard--de Hoop contour.

    Substituting lam = phi(lam') with beta = pi/2 - theta of the shifted
    geometry turns the oscillatory tail exponential into the purely
    decaying exp(-sqrt(lam'^2 - k^2) rho).  Falls back to the real-axis
    tails when the aperture condition |X| < T * H fails or the geometry
    is purely vertical (where the contour IS the real axis).
    """
    spec = spec or ContourSpec()
    alpha, beta_y, X = component_geometry(medium, cid, x, xp)
    H = alpha + beta_y
    if X == 0.0:
        return real_axis_tails(medium, cid, x, xp, spec)
    if abs(X) >= spec.cdh_aperture * H:
        return real_axis_tails(medium, cid, x, xp, spec)

    k_split = spec.resolve_split(medium)
    kt = medium.wavenumbers[cid.t]
    ks = medium.wavenumbers[cid.s]
    k_map = max(kt, ks)
    rho = math.hypot(X, H)
    total = 0.0 + 0.0j
    n_panels = 0
    lam_max = tail_cutoff(rho, spec.rtol, k_map)
    lam_max = max(lam_max, 1.5 * k_split)
    for sgn in (1.0, -1.0):
        # I_+ uses +X; I_- maps to the +half-line with X negated
        theta = math.atan2(H, sgn * X)
        beta_ang = 0.5 * math.pi - theta
        f = _tail_integrand(medium, cid, alpha, beta_y, sgn, X)
        phi_ks = complex(_phi_raw(k_split, beta_ang, k_map))

        def f_kappa(t, _f=f, _p=phi_ks):
            lam = k_split + t * (_p - k_split)
            return _f(lam) * (_p - k_split)

        def f_hyper(lamp, _f=f, _b=beta_ang):
            lam = _phi_raw(lamp, _b, k_map)
            dphi = math.cos(_b) + 1j * lamp * math.sin(_b) / branch_sqrt_arr(
                lamp * lamp - k_map * k_map
            )
            return _f(lam) * dphi

        segs = [Segment(f_kappa, 0.0, 1.0, "none", 2)]
        segs += _build_segments(f_hyper, k_split, lam_max, [], 0.0)
        res = adaptive_segments(segs, spec.rtol, max_panels=spec.max_panels)
        total += complex(res.value[0])
        n_panels += res.n_panels
    return TailResult(total, n_panels, True)


# ---------------------------------------------------------------------------
# Shared sigma solves
# ---------------------------------------------------------------------------


class SigmaMemo:
    """sigma of one component, solved once per distinct node array.

    ``memo(lam, dinfo)`` returns ``sigma_component_batch(medium, lam, cid,
    dinfo=dinfo)``.  It is keyed on the exact bytes of lam and, on
    anchored panels, of the dinfo offset, so a repeat returns bitwise what
    a new solve would.  The memo lives as long as its owner (a frozen-rule
    build, an FMM reaction pass) and nothing keeps it beyond that.
    """

    def __init__(self, medium, cid):
        self.medium = medium
        self.cid = cid
        self._values = {}

    def __call__(self, lam, dinfo=None):
        key = (lam.dtype.char, lam.tobytes())
        if dinfo is not None:
            key += (dinfo[0], dinfo[1].tobytes())
        value = self._values.get(key)
        if value is None:
            # a copy: the solve returns a strided view of every component
            value = sigma_component_batch(
                self.medium, lam, self.cid, dinfo=dinfo
            ).copy()
            value.flags.writeable = False
            self._values[key] = value
        return value


# ---------------------------------------------------------------------------
# Frozen composite rule for batched kernel evaluation
# ---------------------------------------------------------------------------


class FrozenComponentRule:
    """A fixed node/weight set for one reaction component.

    Adapts once on a handful of worst-case probe geometries, freezes the
    union of the panel sets, and solves the interface systems a single
    time per node.  The kernel
    sum_nu 2 w sigma e^{-h_t alpha} e^{-h_s beta} cos(lam (x - x'))
    separates in x, because cos lam(x - x') = cos lam x cos lam x' +
    sin lam x sin lam x': ``source_moments`` folds a set of sources into
    two per-node vectors and ``eval_moments`` applies them to targets, so
    a sum over n_t targets and n_s sources costs O((n_t + n_s) * nodes)
    exponentials.  That is what FMM near fields use.  ``eval_batch`` and
    ``eval_one`` evaluate pair by pair and are the oracle for it (and the
    kernel of ``direct_sum``).  Requires a pole-free medium (shipped FMM
    configurations are checked for that).
    """

    def __init__(
        self,
        medium,
        cid,
        alpha_range,
        beta_range,
        x_max,
        rtol=1e-8,
        k_split=None,
    ):
        cid.validate(medium.n_interfaces)
        self.medium = medium
        self.cid = cid
        self.rtol = rtol
        spec = ContourSpec(rtol=rtol, k_split=k_split)
        k_split = spec.resolve_split(medium)
        if _pole_cache(medium, k_split):
            raise DomainError(
                "FrozenComponentRule requires a pole-free medium; "
                "use evaluate_component with pole handling instead"
            )
        kt = medium.wavenumbers[cid.t]
        ks = medium.wavenumbers[cid.s]
        kbar = max(kt, ks)
        a_lo, a_hi = alpha_range
        b_lo, b_hi = beta_range
        if not (a_lo > 0 and b_lo > 0):
            raise DomainError("offset ranges must be positive")
        h_min = a_lo + b_lo
        lam_max = tail_cutoff(h_min, rtol, kbar)
        lam_max = max(lam_max, 1.5 * k_split)
        branch = sorted(set(medium.wavenumbers))

        probes = [
            (a_lo, b_lo, 0.0),
            (a_lo, b_lo, x_max),
            (a_hi, b_hi, 0.0),
            (a_hi, b_hi, x_max),
            (0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi), 0.5 * x_max),
        ]
        # union of the adapted panel edges across all probes; the segment
        # lists are identical by construction so edges merge per segment.
        # Every probe starts from the same panels and bisects them the same
        # way, so sigma is solved once per distinct panel and shared
        sig = SigmaMemo(medium, cid)

        seg_edges = None
        segments = None
        for alpha, beta, X in probes:
            e_sym = _exp_factor_half(medium, cid, alpha, beta, X)

            def f(lam, dinfo=None, _e=e_sym):
                return sig(lam, dinfo) * _e(lam, dinfo)

            segs = _build_segments(f, 0.0, lam_max, branch, x_max)
            res = adaptive_segments(
                segs, rtol, max_panels=spec.max_panels, collect_rule=True
            )
            if seg_edges is None:
                seg_edges = [set() for _ in segs]
                segments = segs
            for si, ua, ub in res.spans:
                seg_edges[si].add(ua)
                seg_edges[si].add(ub)
        nodes = []
        weights = []
        for si, seg in enumerate(segments):
            edges = sorted(seg_edges[si])
            for ua, ub in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
                u = mid + half * GK_NODES
                lam, jac, _ = seg.map(u)
                nodes.append(lam)
                weights.append(half * GK_WEIGHTS * jac)
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        order = np.argsort(nodes, kind="stable")
        self.lam = nodes[order]
        self.w = weights[order]
        self.sig = sigma_component_batch(medium, self.lam, cid)
        self.ht = branch_sqrt_arr(hsq(self.lam, kt))
        self.hs = branch_sqrt_arr(hsq(self.lam, ks))
        self._wsig = self.w * self.sig

    @property
    def n_nodes(self):
        return self.lam.shape[0]

    def eval_one(self, alpha, beta, X):
        e = np.exp(-self.ht * alpha - self.hs * beta)
        return complex(np.sum(self._wsig * e * 2.0 * np.cos(self.lam * X)))

    def source_moments(self, beta, x, q):
        """Per-node sums (C, S) of sources with offsets beta, abscissae x.

        C_nu = sum_j q_j e^{-h_s beta_j} cos(lam_nu x_j), S likewise with
        sin.  Moments of disjoint source sets add.
        """
        q = np.asarray(q, dtype=complex)
        e = np.exp(-np.outer(np.asarray(beta, dtype=float), self.hs))
        phase = np.outer(np.asarray(x, dtype=float), self.lam)
        return q @ (e * np.cos(phase)), q @ (e * np.sin(phase))

    def eval_moments(self, alpha, x, C, S):
        """Sum over the sources behind (C, S) at targets (alpha, x).

        x must be measured from the same origin as the sources' abscissae.
        """
        e = np.exp(-np.outer(np.asarray(alpha, dtype=float), self.ht))
        phase = np.outer(np.asarray(x, dtype=float), self.lam)
        return (e * np.cos(phase)) @ (2.0 * self._wsig * C) + (
            e * np.sin(phase)
        ) @ (2.0 * self._wsig * S)

    def eval_batch(self, alpha, beta, X, chunk=512):
        """Component values for arrays of (alpha, beta, X) triples.

        Pairwise evaluation: the reference the separable
        ``source_moments``/``eval_moments`` path is checked against.
        """
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        X = np.asarray(X, dtype=float)
        n = alpha.shape[0]
        out = np.empty(n, dtype=complex)
        for i0 in range(0, n, chunk):
            i1 = min(i0 + chunk, n)
            e = np.exp(
                -np.outer(alpha[i0:i1], self.ht) - np.outer(beta[i0:i1], self.hs)
            )
            c = np.cos(np.outer(X[i0:i1], self.lam))
            out[i0:i1] = (e * c) @ (2.0 * self._wsig)
        return out
