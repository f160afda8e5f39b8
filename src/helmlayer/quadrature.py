"""Spectral quadrature for the layered Green's function.

Every reaction component is an oscillatory integral over the real
spectral axis.  The machinery here:

* nested 15-point Gauss--Kronrod panels with recursive bisection and a
  deterministic sorted-interval reduction;
* sqrt substitution panels on both sides of every branch point +-k_l,
  which absorb the 1/h and h-cusp behavior of the integrand exactly
  (the transformed integrand is analytic in the new variable);
* simple real poles from one list of (location, sigma residue, side)
  triples, integrated by ``_integrate_with_windows`` alone.  A
  surface-wave pole (side +-1) is subtracted inside a symmetric window
  (where its principal value vanishes) and the half-residue i*pi term
  is added with the sign fixed by the lossy perturbation.  A pole at an
  interior layer's own branch point (side 0), which the components with
  target and source in that layer carry, is subtracted over the whole
  range with its principal value added analytically.  Alternatively the
  whole integral is run on a slightly lossy medium and
  Richardson-extrapolated (pole_mode "perturbed", kept as an
  independent oracle);
* one path below the real axis on [0, k_split] (``below_axis_path``)
  for the FMM operators' integrals: it gives the lossy limit with no
  window, residue or substitution;
* optional Cagniard--de Hoop tails: the map
  phi(z) = z cos(beta) + i sqrt(z^2 - k^2) sin(beta) turns the
  oscillatory tail exponential into a purely decaying one, so the tail
  panels stop tracking oscillations.

The evenness of sigma in lambda is exact for the assembled systems, so
component integrals run on the half line with the symmetrized plane-wave
factor by default; the full-line path is retained for consistency
checks.
"""

import itertools
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


# Panels per call of a family integrand: bounds the (panels x terms x
# nodes x orders) temporaries and the sigma solve of one call, while
# keeping the per-call overhead small against the panels' arithmetic
_PANEL_CHUNK = 16
_TINY = 1e-280  # floor of a substituted panel's offset from its anchor
# Integrals a family has in flight: each holds its running sums, four
# arrays with one entry per component, while it refines
_LIVE_INTEGRALS = 16


@dataclass
class Segment:
    """One integration segment with an optional sqrt substitution.

    sub='left' means the integrand may carry an inverse-sqrt (or sqrt
    cusp) singularity at the left endpoint; the segment is integrated in
    the variable u with lambda = a + u^2.  'right' mirrors this.  The
    engine hands the integrand plain lambda arrays either way.

    With ``params`` None, f is the integrand of this segment alone, called
    as f(lam) or, on substituted segments, f(lam, dinfo) with dinfo =
    (anchor, delta).  lam is a 1-D node array of any length (n panels x
    15 nodes, back to back) and delta has the same length.  f acts
    elementwise: it returns the values nodes first, with any trailing
    shape, and a node's value must not depend on the other nodes of the
    call.  Otherwise f is a family integrand shared by the
    segments of many integrals, and params is what sets this segment's
    integral apart: f(lam, params) gets the nodes of n panels as an
    (n, 15) array and the n panels' params, and returns the values with
    the panel axis first, (n, 15, ...), or in factored form (c, A, B)
    with shapes (n, R, 15), (n, R, 15, p) and (n, R, 15, m).  A family
    segment carries no substitution: the library's family integrands
    (``expansions._power_family``, ``FrozenComponentRule``) map the
    nodes of [0, k_split] onto ``below_axis_path`` and take the jacobian
    themselves, which gives each component its lossy limit (on a shared
    interior layer, the principal value plus i pi R_c E(k_t); the terms
    cancel in G).
    """

    f: object
    a: float
    b: float
    sub: str = "none"
    min_panels: int = 1
    params: object = None

    def __post_init__(self):
        if self.params is not None and self.sub != "none":
            raise DomainError("a family segment carries no substitution")

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
        delta = np.maximum(u * u, _TINY)
        if self.sub == "right":
            return self.b - delta, 2.0 * u, (self.b, -delta)
        return self.a + delta, 2.0 * u, (self.a, delta)


@dataclass
class QuadResult:
    value: np.ndarray
    err: np.ndarray
    n_panels: int
    spans: list  # (segment index, ua, ub) of the live panels, sorted


def _factored_sums(c, A, B, scale):
    """GK15 and G7 sums of n panels of sum_r c[r, k] * outer(A[r, k], B[r, k]).

    c, A, B carry the panel axis first and scale is (n, 15).  A panel's
    sum is one GEMM over its (term, node) rows, flattened row-major; the
    n GEMMs go through one stacked matmul.  Returns the two (n, p*m)
    sums and a mask of the panels whose weighted factors and sums are
    all finite; the sums are None when a weighted factor is not.
    """
    n = c.shape[0]
    sums = []
    for nodes, w in ((slice(None), GK_WEIGHTS), (slice(1, None, 2), G7_WEIGHTS)):
        a = A[:, :, nodes] * (c[:, :, nodes] * (scale[:, nodes] * w)[:, None])[..., None]
        b = B[:, :, nodes]
        if not sums:
            # checked on the Kronrod rows; the Gauss rows are a subset of them
            ok = np.isfinite(a).all(axis=(1, 2, 3)) & np.isfinite(b).all(axis=(1, 2, 3))
            if not ok.all():
                return None, None, ok
        a = a.reshape(n, -1, a.shape[-1]).transpose(0, 2, 1)
        total = np.matmul(a, b.reshape(n, -1, b.shape[-1]))
        sums.append(total.reshape(n, -1))
    for s in sums:
        ok &= np.isfinite(s).all(axis=1)
    return sums[0], sums[1], ok


def _non_finite(lam):
    return ToleranceNotReachedError(
        f"integrand is non-finite on panel [{lam[0]}, {lam[-1]}]"
    )


def _panel(seg, ua, ub):
    """(val, err) of n panels [ua[i], ub[i]] of one segment, one integrand call.

    The panels' nodes form an (n, 15) array; seg.f gets it flattened (and
    the flattened dinfo offset) and returns the values nodes first, with
    any trailing shape.  A family integrand (``seg.params`` set) gets the
    n panels as a batch.  Each panel's values are bitwise those it gives
    alone, since the integrand acts node by node and ``_dense_sums``
    sums each panel with a product of its own.
    """
    if seg.params is not None:
        return _family_sums(seg.f, *_family_nodes(ua, ub), [seg.params] * len(ua))
    ua = np.asarray(ua, dtype=float)
    ub = np.asarray(ub, dtype=float)
    half = 0.5 * (ub - ua)
    lam, jac, dinfo = seg.map(0.5 * (ua + ub)[:, None] + half[:, None] * GK_NODES)
    nodes = lam.ravel()
    fx = np.asarray(seg.f(nodes) if dinfo is None else seg.f(nodes, (dinfo[0], dinfo[1].ravel())))
    return _dense_sums(fx.reshape(lam.shape + fx.shape[1:]), jac, half, lam)


def _dense_sums(fx, jac, half, lam):
    """(val, err) of n panels: GK15 value and GK15 - G7 error of each.

    fx holds the values panel axis first, (n, 15, ...), jac and lam are
    (n, 15) and half (n,).  The stacked matmul runs one product per panel,
    so a panel's sums are bitwise the same whatever panels share the call.
    """
    fx = np.asarray(fx, dtype=complex)
    n = fx.shape[0]
    flat = fx.reshape(n, 15, -1)
    ok = np.isfinite(flat).all(axis=(1, 2))
    if not ok.all():
        raise _non_finite(lam[np.argmin(ok)])
    flat = flat * jac[:, :, None]
    ik = half[:, None] * np.matmul(GK_WEIGHTS, flat)
    err = np.abs(ik - half[:, None] * np.matmul(G7_WEIGHTS, flat[:, 1::2]))
    shape = fx.shape[2:] or (1,)
    # the panels of one call share ik and err, so each gets copies of its
    # own rows: adaptive_segments keeps a panel's values after the others go
    return [(ik[i].reshape(shape).copy(), err[i].reshape(shape).copy()) for i in range(n)]


def _family_nodes(ua, ub):
    """(lam, half) of n panels [ua[i], ub[i]]: their GK15 nodes, a row each.

    Every row holds bitwise the nodes that ``Segment.map`` of an
    unsubstituted segment gives.
    """
    ua = np.asarray(ua, dtype=float)
    ub = np.asarray(ub, dtype=float)
    half = 0.5 * (ub - ua)
    return 0.5 * (ua + ub)[:, None] + half[:, None] * GK_NODES, half


def _family_sums(f, lam, half, params):
    """(val, err) of n panels from one call of family integrand f.

    A panel's values are bitwise those of ``_panel`` on it alone (the
    same elementwise operations and one GEMM per panel), whatever panels
    share the call; ``adaptive_family`` relies on that.  The nodes are
    unsubstituted, so the jacobian is 1.
    """
    fx = f(lam, params)
    jac = np.ones_like(lam)
    if isinstance(fx, tuple):
        ik, ig, ok = _factored_sums(*fx, half[:, None] * jac)
        if not ok.all():
            raise _non_finite(lam[np.argmin(ok)])
        return list(zip(ik, np.abs(ik - ig)))
    return _dense_sums(fx, jac, half, lam)


def _refine(segments, rtol, atol, max_panels, keep):
    """Globally adaptive refinement of one integral, as a generator.

    It yields the panels it needs evaluated, a list of (segment index,
    ua, ub), is sent back their (val, err) in that order, and
    returns the QuadResult.  The panels are the initial ones of every
    segment, then the two halves of the live panel with the largest
    error relative to its component's target, one split per step.

    With keep, every live panel's values are stored and the result sums
    the live panels in sorted interval order.  Without, only the spans
    are: a panel is evaluated again when a split or a heap rebuild needs
    its value (the same call on the same panel returns the same bits, so
    every choice is the same), and the result is the running sums, which
    differ from the sorted sums by rounding alone.  An integral in
    flight then holds a few hundred bytes per panel instead of 24 per
    component.
    """
    spans = []  # (seg_idx, ua, ub) per panel; None once split
    kept = []  # (val, err) per panel, with keep
    heap = []
    run = {}  # val, err and abs: running sums over the live panels
    denom = None  # frozen per-component error scale for refinement priority
    eps100 = 100.0 * np.finfo(float).eps

    def push(new, results):
        for span, value in zip(new, results):
            val, err = value
            spans.append(span)
            if keep:
                kept.append(value)
            if denom is not None:
                prio = -float((err / denom).max())
                heappush(heap, (prio, len(spans) - 1, len(spans) - 1))
            if not run:
                run.update(val=val.copy(), err=err.copy(), abs=np.abs(val))
            else:
                run["val"] += val
                run["err"] += err
                run["abs"] += np.abs(val)
        return [r[1] for r in results]

    def current_tol():
        # each component converges relative to itself; the summation
        # roundoff floor eps * sum|panel| is the best achievable once
        # panel values cancel
        t = np.maximum(rtol * np.abs(run["val"]), eps100 * run["abs"])
        return np.maximum(t, max(atol, 1e-300))

    def settled(tol_c):
        if (run["err"] <= tol_c).all():
            return True
        if n_evals >= max_panels:
            raise ToleranceNotReachedError(
                f"quadrature did not reach rtol={rtol} within {max_panels} panels",
                value=run["val"],
                err=run["err"],
            )
        return False

    def rebuild(live, errs):
        heap.clear()
        for i, err in zip(live, errs):
            heappush(heap, (-float((err / denom).max()), i, i))

    new = []
    for si, seg in enumerate(segments):
        ua, ub = seg.u_range()
        n0 = max(1, int(seg.min_panels))
        edges = np.linspace(ua, ub, n0 + 1)
        new += [(si, edges[i], edges[i + 1]) for i in range(n0)]
    errs = push(new, (yield new))
    n_evals = len(new)
    # refinement priority is error relative to each component's own
    # convergence target; the snapshot is rebuilt whenever the running
    # totals drift, otherwise coarse seed values misallocate the budget
    denom = current_tol()
    rebuild(range(len(spans)), errs)
    del errs
    while not settled(tol_c := current_tol()):
        if np.maximum(denom / tol_c, tol_c / denom).max() > 8.0:
            denom = tol_c
            live = [i for i, s in enumerate(spans) if s is not None]
            if keep:
                rebuild(live, [kept[i][1] for i in live])
            else:
                rebuild(live, [r[1] for r in (yield [spans[i] for i in live])])
        while heap:
            _, _, idx = heappop(heap)
            if spans[idx] is not None:
                break
        else:
            break
        si, ua, ub = spans[idx]
        spans[idx] = None
        um = 0.5 * (ua + ub)
        new = [(si, ua, um), (si, um, ub)]
        # a split panel's values leave the running sums; only live
        # panels are ever read again
        if keep:
            old, kept[idx] = kept[idx], None
            results = yield new
        else:
            old, *results = yield [(si, ua, ub)] + new
        run["val"] -= old[0]
        run["err"] -= old[1]
        run["abs"] -= np.abs(old[0])
        del old
        push(new, results)
        del results
        n_evals += 2

    live = [i for i, s in enumerate(spans) if s is not None]
    live.sort(key=lambda i: spans[i][:2])
    result = QuadResult(run["val"], run["err"], len(live), [spans[i] for i in live])
    if keep:
        result.value = sum(kept[i][0] for i in live)
        result.err = sum(kept[i][1] for i in live)
    return result


def adaptive_segments(segments, rtol, *, atol=0.0, max_panels=6000):
    """Globally adaptive GK15 integration over a list of segments.

    The integrand may be vector valued; refinement continues until every
    component's accumulated error estimate is below
    max(rtol*|V_c|, 100 eps * sum_panels |V_c|, atol).  Panels are summed
    in sorted interval order so results are independent of refinement
    history, and the result lists the spans of the live panels.  A split
    panel's entry is dropped: only live panels are ever read again.  One
    integral; ``adaptive_family`` runs many.  The panels a refinement
    step asks for go to ``_panel`` one call per segment: the initial
    panels of every segment, then the two halves of each split.
    """
    run = _refine(segments, rtol, atol, max_panels, True)
    request = next(run)
    while True:
        values = []
        # a request lists the panels of one segment side by side
        for si, panels in itertools.groupby(request, key=lambda p: p[0]):
            _, ua, ub = zip(*panels)
            values += _panel(segments[si], ua, ub)
        try:
            request = run.send(values)
        except StopIteration as done:
            return done.value


def adaptive_family(members, rtol, *, max_panels=6000):
    """``adaptive_segments`` over many integrals, run in lockstep.

    members holds one (segments, atol) pair per integral; the generator
    yields (index, QuadResult) as the integrals finish.  Each integral
    refines on its own and makes exactly the choices
    ``adaptive_segments`` makes for it: its panels, n_panels and spans
    (in sorted order) are the same.  Its value and err are the running
    sums of ``_refine`` without keep, so they differ from the sorted
    sums of ``adaptive_segments`` by rounding alone.

    Every segment carries a family integrand (``Segment.params`` set).
    Up to ``_LIVE_INTEGRALS`` integrals are in flight, started in list
    order as others finish.  A round evaluates the panels they ask for
    together: the panels of one family integrand go to it in calls of at
    most ``_PANEL_CHUNK`` panels, taken in integral order, each call
    mapping the nodes of its own panels.  An integral takes its values as
    soon as they are all there.  An integral that fails raises at once.
    """
    runs = {}
    requests = {}
    finished = []
    waiting = iter(enumerate(members))

    def take(i, values):
        try:
            requests[i] = runs[i].send(values)
        except StopIteration as done:
            finished.append((i, done.value))
            del requests[i], runs[i]

    while True:
        for i, (segs, atol) in itertools.islice(waiting, _LIVE_INTEGRALS - len(runs)):
            runs[i] = _refine(segs, rtol, atol, max_panels, False)
            requests[i] = next(runs[i])
        if not requests:
            return
        panels = [
            (i, members[i][0][si], ua, ub)
            for i, req in requests.items()
            for si, ua, ub in req
        ]
        values = {i: [] for i in requests}
        missing = {i: len(req) for i, req in requests.items()}
        queues = {}

        def flush(f):
            ks = queues[f]
            segs = [panels[k][1] for k in ks]
            nodes = _family_nodes([panels[k][2] for k in ks], [panels[k][3] for k in ks])
            for k, value in zip(ks, _family_sums(f, *nodes, [s.params for s in segs])):
                i = panels[k][0]
                values[i].append((k, value))
                missing[i] -= 1
                if not missing[i]:
                    take(i, [v for _, v in sorted(values.pop(i), key=lambda kv: kv[0])])
            ks.clear()

        for k, (i, seg, ua, ub) in enumerate(panels):
            queues.setdefault(seg.f, []).append(k)
            if len(queues[seg.f]) == _PANEL_CHUNK:
                # every queue at once, so that no integral waits long on a
                # part of its panels while holding the rest
                for f in queues:
                    if queues[f]:
                        flush(f)
        for f in queues:
            if queues[f]:
                flush(f)
        yield from finished
        finished.clear()


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


def below_axis_path(u, k_split, x):
    """(lam, dlam/du) on lam(u) = u - i d sin(pi u / k_split), 0 <= u <= k_split.

    Every FMM operator integrates [0, k_split] on this path, for every
    medium.  It passes below each branch point and real pole, whose lossy
    counterparts (k_l (1 + i eps); a guided mode's pole, side +1) lie
    above the axis, so it gives the lossy limit with no window, residue
    or substitution.  On a shared interior layer that is the principal
    value plus i pi R_c E(k_t) (``evaluate_component``); the four
    components' terms cancel in G.  d = min(0.5, 1 / max(|x|, 1)), x the
    largest horizontal offset used (scalar or array), keeps |cos(lam x)|
    below cosh(1).
    """
    d = np.minimum(0.5, 1.0 / np.maximum(np.abs(x), 1.0))
    t = (math.pi / k_split) * u
    return u - 1j * d * np.sin(t), 1.0 - 1j * (d * math.pi / k_split) * np.cos(t)


# Offsets delta above k_l at which (lam - k_l) sigma is sampled: each is a
# quarter of the last, so sqrt(delta) halves from one to the next
_BRANCH_OFFSETS = (1e-8, 2.5e-9, 6.25e-10)


def has_branch_pole(medium, cid):
    """Whether sigma has a simple pole at the branch point k_t.

    For t = s in an interior layer the up and down waves of that layer
    coincide at h_t = 0, so det A vanishes there and each of the four
    components behaves as R_c / (lambda - k_t).  That pole is not
    integrable; ``evaluate_component`` takes its principal value.
    """
    return cid.t == cid.s and 0 < cid.t < medium.n_interfaces


@lru_cache(maxsize=256)
def _branch_residue(medium, cid):
    """R_c = lim (lambda - k_t) sigma(lambda) at the branch point k_t.

    sigma expands in powers of h_t ~ sqrt(lambda - k_t), so the values at
    the offsets ``_BRANCH_OFFSETS`` (solved with the exact offset) are
    Richardson-extrapolated in sqrt(delta): the first stage removes the
    sqrt(delta) term, the second the delta term.
    """
    k = medium.wavenumbers[cid.t]
    delta = np.array(_BRANCH_OFFSETS)
    g = delta * sigma_component_batch(medium, k + delta, cid, dinfo=(k, delta))
    v01 = 2 * g[1] - g[0]
    v12 = 2 * g[2] - g[1]
    return complex((4 * v12 - v01) / 3)


def component_offsets(medium, cid, x1, x2):
    """Vertical offsets (alpha, beta) and horizontal separation X; only the
    propagating-side rule is enforced, so x1 and x2 (expansion centers,
    say) may sit anywhere on the correct side of their interfaces."""
    cid.validate(medium.n_interfaces)
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    alpha = cid.dir_t.tau * (x1[1] - d_t)
    beta = cid.dir_s.tau * (x2[1] - d_s)
    if not (alpha > 0 and beta > 0):
        raise DomainError("component geometry violates the propagating-side rule")
    return alpha, beta, x1[0] - x2[0]


def component_geometry(medium, cid, x, xp):
    """``component_offsets`` of a target x and a source xp in their layers."""
    cid.validate(medium.n_interfaces)
    if layer_of(medium, x[1]) != cid.t:
        raise DomainError(f"target {x} is not in layer {cid.t}")
    if layer_of(medium, xp[1]) != cid.s:
        raise DomainError(f"source {xp} is not in layer {cid.s}")
    return component_offsets(medium, cid, x, xp)


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


def _build_segments(f, lo, hi, branch_pts, osc, min_extra=0, params=None):
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
            segments.append(Segment(f, a, m, "left", n0, params))
            segments.append(Segment(f, m, b, "right", n0, params))
        elif a_branch:
            segments.append(Segment(f, a, b, "left", n0, params))
        elif b_branch:
            segments.append(Segment(f, a, b, "right", n0, params))
        else:
            segments.append(Segment(f, a, b, "none", n0, params))
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
    """One reaction-field component integral for a target/source pair.

    A component with a pole at its branch point (``has_branch_pole``)
    is the principal value there.  Its lossy limit is that plus
    i pi R_c E(k_t), since the lossy pole k_t (1 + i eps) lies above the
    axis; those terms cancel in the sum of the four components of the
    layer, which ``green`` forms.
    """
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

    poles = [
        (p.location, p.residues[cid], p.side)
        for p in _pole_cache(medium, k_split)
        if p.location < lam_max
    ]
    if has_branch_pole(medium, cid):
        poles.append((kt, _branch_residue(medium, cid), 0))

    if spec.full_line:
        efac = _exp_factor_full(medium, cid, alpha, beta, X)
        lo = -lam_max
        branch = sorted({c * s for c in medium.wavenumbers for s in (1.0, -1.0)})
        # mirror poles: sigma even means residue(-lam_nu) = -residue(+lam_nu)
        # and the perturbed root crosses from the opposite half-plane
        poles += [(-loc, -res, -side) for loc, res, side in poles]
    else:
        efac = _exp_factor_half(medium, cid, alpha, beta, X)
        lo = 0.0
        branch = sorted(set(medium.wavenumbers))

    def f_plain(lam, dinfo=None):
        return sigma_component_batch(medium, lam, cid, dinfo=dinfo) * efac(lam, dinfo)

    total, _ = _integrate_with_windows(
        f_plain, efac, lo, lam_max, branch, poles, X, spec.rtol, spec.max_panels,
        atol=component_abs_floor(spec.rtol, H),
    )
    return total


# Half-width of the core around a surface-wave pole, relative to its window
_POLE_CORE = 1e-3
# 8-point Gauss-Legendre nodes and weights (ascending), for the core
_XGL8 = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_WGL8 = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_GL8 = (np.concatenate([-_XGL8[::-1], _XGL8]), np.concatenate([_WGL8[::-1], _WGL8]))


def _minus_branch_poles(f, brs):
    """f minus r / (lambda - loc) for every (loc, r) in brs.

    On a panel anchored at loc the offset is the exact dinfo delta: the
    rounded lambda of a node there may equal loc.
    """

    def g(lam, dinfo=None):
        val = f(lam, dinfo)
        for loc, r in brs:
            off = dinfo[1] if dinfo is not None and dinfo[0] == loc else lam - loc
            val = val - r / off
        return val

    return g


def _gauss_legendre(f, a, b):
    """Fixed 8-point Gauss-Legendre rule of f over [a, b]; no node at the middle."""
    x, w = _GL8
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    lam = mid + half * x
    fx = f(lam)
    if not np.isfinite(fx).all():
        raise _non_finite(lam)
    return complex(half * np.dot(w, fx))


def _integrate_with_windows(
    f_plain, efac, lo, hi, branch, poles, X, rtol, max_panels, atol=0.0
):
    """Adaptive integral of f_plain = sigma*efac over [lo, hi] across its
    simple real poles; the one routine that subtracts a pole.

    poles holds (location, sigma residue, side) triples; the integrand's
    residue there is the sigma residue times efac.  Side +-1 is a
    surface-wave pole, side 0 a pole at a branch point
    (``has_branch_pole``), whose principal value is taken.

    Around each surface-wave pole a window is carved out.  Inside it the
    pole is subtracted (its principal value over the symmetric window
    vanishes) and the half-residue side * i pi term is added.  The
    stored location is the pole only to about an ulp, which leaves a
    spurious r * ulp / (lambda - lambda_nu)^2 in the subtracted
    integrand; refinement would chase it until a node rounds onto the
    pole.  So a core of ``_POLE_CORE`` times the window width on each
    side of the pole takes a fixed Gauss-Legendre rule instead, whose
    nodes stay clear of it.

    A side 0 pole is subtracted from the integrand over all of [lo, hi]
    and its principal value r ln((hi - loc) / (loc - lo)) is added; no
    +-i pi term, because the four components' residues cancel in the
    Green's function.
    """
    brs = [(loc, res * efac(np.array([loc]))[0]) for loc, res, side in poles if side == 0]
    if brs:
        f_plain = _minus_branch_poles(f_plain, brs)
    poles = sorted((p for p in poles if p[2] != 0), key=lambda p: p[0])
    windows = _carve_pole_windows((lo, hi), [p[0] for p in poles])
    segments = []
    cuts = [lo] + [e for w in windows for e in w] + [hi]
    for a, b in zip(cuts[:-1:2], cuts[1::2]):
        segments += _build_segments(f_plain, a, b, branch, X)
    pole_term = 0.0 + 0.0j
    for loc, r in brs:
        pole_term += r * math.log((hi - loc) / (loc - lo))
    for (lam_nu, res_sigma, side), (wa, wb) in zip(poles, windows):
        r_full = res_sigma * efac(np.array([lam_nu]))[0]

        def f_sub(lam, dinfo=None, _r=r_full, _l=lam_nu):
            return f_plain(lam, dinfo) - _r / (lam - _l)

        # the core holds no branch point: its rule assumes f_sub smooth
        core = min([_POLE_CORE * (wb - wa)] + [0.1 * abs(lam_nu - c) for c in branch])
        segments += _build_segments(f_sub, wa, lam_nu - core, branch, X, min_extra=1)
        segments += _build_segments(f_sub, lam_nu + core, wb, branch, X, min_extra=1)
        pole_term += side * 1j * math.pi * r_full
        pole_term += _gauss_legendre(f_sub, lam_nu - core, lam_nu + core)
    result = adaptive_segments(segments, rtol, atol=atol, max_panels=max_panels)
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

    A front for the pole windows and core rule of ``evaluate_component``
    (``_integrate_with_windows``): h(lam_nu) sigma_nu / (lam - lam_nu) is
    subtracted on a symmetric window around the pole (where its
    principal value is zero), the rest is integrated plainly, and
    side * i pi h(lam_nu) sigma_nu is added.  pole.side = 0 gives the
    principal value over the whole interval.
    """
    a, b = interval
    if not a < pole.location < b:
        raise DomainError("pole must lie strictly inside the interval")
    if residue is None:
        if np.isscalar(pole.residues):
            residue = complex(pole.residues)
        else:
            raise DomainError("pass residue= for table-valued PoleInfo")

    def f_plain(lam, dinfo=None):
        return np.asarray(h_fn(lam)) * np.asarray(sigma_fn(lam))

    poles = [(pole.location, residue, pole.side)] if residue != 0 else []
    total, _ = _integrate_with_windows(
        f_plain, lambda lam: np.asarray(h_fn(lam)), a, b, [], poles, osc,
        rtol, ContourSpec.max_panels,
    )
    return complex(total)


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
    efac = _exp_factor_full(medium, cid, alpha, beta_y, sign_x * X)

    def f(lam):
        lamc = np.asarray(lam, dtype=complex)
        return sigma_component_batch(medium, lamc, cid) * efac(lamc)

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

    ``memo.rows(lam)`` returns sigma at the node arrays of the panels of
    one family integrand call, each row bitwise what
    ``sigma_component_batch(medium, row, cid)`` gives for that panel
    alone.  A row is keyed on the dtype and exact bytes of its nodes
    (real on the real axis, complex on a deformed contour), so a repeat
    returns bitwise what a new solve would.  The memo lives as long as
    its owner (a frozen-rule build, an FMM reaction pass) and nothing
    keeps it beyond that.
    """

    def __init__(self, medium, cid):
        self.medium = medium
        self.cid = cid
        self._values = {}

    def rows(self, lam):
        """sigma at the node arrays lam[i] of n panels, an (n, nodes) array.

        Each row is looked up on its own key; the rows not stored yet go
        to one solve, a row that repeats among them once.  A family
        integrand call takes at most ``_PANEL_CHUNK`` panels, which bounds
        the solve.
        """
        keys = [(row.dtype.char, row.tobytes()) for row in lam]
        misses = {}
        for i, key in enumerate(keys):
            if key not in self._values:
                misses.setdefault(key, i)
        if misses:
            first = list(misses.values())
            solved = sigma_component_batch(
                self.medium, lam[first].ravel(), self.cid
            ).reshape(len(first), -1)
            for key, value in zip(misses, solved):
                value = value.copy()
                value.flags.writeable = False
                self._values[key] = value
        return np.array([self._values[key] for key in keys])


# ---------------------------------------------------------------------------
# Frozen composite rule for batched kernel evaluation
# ---------------------------------------------------------------------------


class FrozenComponentRule:
    """A fixed node/weight set for one reaction component.

    Adapts once on five worst-case probe geometries, freezes the union of
    the panel sets, and solves the interface systems a single time per
    node.  [0, k_split] runs on ``below_axis_path`` with d from x_max and
    the tail stays on the real axis, so its nodes are real.  The probes
    run as one lockstep family (``adaptive_family``): each takes the
    panels it would take alone, while every round evaluates the new
    panels of all five in chunked integrand calls that share one
    ``SigmaMemo``; every panel of the union is one a probe took, so the
    rule reads its sigma from that memo.  The kernel
    sum_nu 2 w sigma e^{-h_t alpha} e^{-h_s beta} cos(lam (x - x'))
    separates in x, because cos lam(x - x') = cos lam x cos lam x' +
    sin lam x sin lam x', for complex lam too: ``source_moments`` folds a
    set of sources into two per-node vectors and ``eval_moments`` applies
    them to targets, so a sum over n_t targets and n_s sources costs
    O((n_t + n_s) * nodes) exponentials.  That is what FMM near fields
    and ``direct_sum`` use.  |cos lam x| grows as e^{d |x|} on the path,
    so abscissae should stay within about x_max of their origin; ``turn``
    moves moments to another origin.  ``eval_batch`` evaluates pair by
    pair and is the oracle for it.

    Every medium is taken.  On a shared interior layer the component is
    its lossy limit, the principal value plus i pi R_c E(k_t); those
    terms cancel in the sum of the layer's four components.
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
        kt = medium.wavenumbers[cid.t]
        ks = medium.wavenumbers[cid.s]
        a_lo, a_hi = alpha_range
        b_lo, b_hi = beta_range
        if not (a_lo > 0 and b_lo > 0):
            raise DomainError("offset ranges must be positive")
        lam_max = max(tail_cutoff(a_lo + b_lo, rtol, max(kt, ks)), 1.5 * k_split)

        probes = [
            (a_lo, b_lo, 0.0),
            (a_lo, b_lo, x_max),
            (a_hi, b_hi, 0.0),
            (a_hi, b_hi, x_max),
            (0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi), 0.5 * x_max),
        ]
        # every probe bisects the same initial panels, so sigma is solved
        # once per distinct panel
        sig = SigmaMemo(medium, cid)

        def f_tail(lam, params):
            alpha, beta, X = np.array(params).T[:, :, None]
            return sig.rows(lam) * _exp_factor_half(medium, cid, alpha, beta, X)(lam)

        def f_path(u, params):
            lam, jac = below_axis_path(u, k_split, x_max)
            return f_tail(lam, params) * jac

        members = [
            (
                _build_segments(f_path, 0.0, k_split, [], x_max, params=p)
                + _build_segments(f_tail, k_split, lam_max, [], x_max, params=p),
                0.0,
            )
            for p in probes
        ]
        path, tail = members[0][0]
        # union of the probes' adapted panel edges, per segment
        edges = ([], [])
        for _, res in adaptive_family(members, rtol, max_panels=spec.max_panels):
            for si, ua, ub in res.spans:
                edges[si].extend((ua, ub))
        blocks = []
        for seg, e in zip((path, tail), edges):
            e = sorted(set(e))
            lam, half = _family_nodes(e[:-1], e[1:])
            w = half[:, None] * GK_WEIGHTS
            if seg is path:
                lam, jac = below_axis_path(lam, k_split, x_max)
                w = w * jac
            blocks.append((lam, w, sig.rows(lam)))
        self._n_path = blocks[0][0].size
        self.lam, self.w, self.sig = (np.concatenate([b[i].ravel() for b in blocks]) for i in range(3))
        self.ht = branch_sqrt_arr(hsq(self.lam, kt))
        self.hs = branch_sqrt_arr(hsq(self.lam, ks))
        self._wsig = self.w * self.sig

    @property
    def n_nodes(self):
        return self.lam.shape[0]

    def _blocks(self):
        """(node slice, nodes) of the complex path block and the real tail."""
        n = self._n_path
        return (slice(None, n), self.lam[:n]), (slice(n, None), self.lam[n:].real)

    def source_moments(self, beta, x, q):
        """Per-node sums (C, S) of sources with offsets beta, abscissae x.

        C_nu = sum_j q_j e^{-h_s beta_j} cos(lam_nu x_j), S likewise with
        sin.  Moments of disjoint source sets add.
        """
        q = np.asarray(q, dtype=complex)
        beta = np.asarray(beta, dtype=float)
        x = np.asarray(x, dtype=float)
        C, S = [], []
        for nodes, lam in self._blocks():
            e = np.exp(-np.outer(beta, self.hs[nodes]))
            phase = np.outer(x, lam)
            C.append(q @ (e * np.cos(phase)))
            S.append(q @ (e * np.sin(phase)))
        return np.concatenate(C), np.concatenate(S)

    def turn(self, dx):
        """(cos, sin) of lam dx at every node.

        Moments (C, S) about an origin o hold cos and sin of lam (x_j - o);
        turned, (C cos - S sin, S cos + C sin), they are the moments about
        o - dx.  So sources and targets can each be measured from an origin
        close to them.
        """
        return np.cos(self.lam * dx), np.sin(self.lam * dx)

    def eval_moments(self, alpha, x, C, S):
        """Sum over the sources behind (C, S) at targets (alpha, x).

        x must be measured from the same origin as the sources' abscissae.
        """
        alpha = np.asarray(alpha, dtype=float)
        x = np.asarray(x, dtype=float)
        out = 0.0
        for nodes, lam in self._blocks():
            e = np.exp(-np.outer(alpha, self.ht[nodes]))
            phase = np.outer(x, lam)
            wsig = 2.0 * self._wsig[nodes]
            out = out + (e * np.cos(phase)) @ (wsig * C[nodes]) + (
                e * np.sin(phase)
            ) @ (wsig * S[nodes])
        return out

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
