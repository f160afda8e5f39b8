"""Spectral reflection/transmission coefficients sigma_{ts}(lambda).

At a spectral point lambda the 2L interface conditions turn into two
linear systems A x = b_up and A x = b_down sharing the matrix A.  The
unknown vector stacks the admissible (layer, direction) amplitudes

    (0, up), (1, up), (1, down), ..., (L-1, up), (L-1, down), (L, down)

so A is block-bidiagonal with at most four entries per row.  Writing
h_t = branch_sqrt(lambda^2 - k_t^2), a row with side coefficients
(a_u, b_u | a_lo, b_lo) at interface l contributes

    -(a_u - b_u h_l) sigma_{l}^{up}  - (a_u + b_u h_l) e_l sigma_{l}^{down}
    +(a_lo - b_lo h_{l+1}) e_{l+1} sigma_{l+1}^{up} + (a_lo + b_lo h_{l+1}) sigma_{l+1}^{down}
        = v_l

with e_t = exp(-h_t (d_{t-1} - d_t)) and the e-terms dropped for the
outermost layers.  The right-hand side carries the trace of the source's
free-space field on the interface:

    v_l(up)   =  delta_{l,s}   (a_u  + b_u  h_l)    / (4 pi h_l)
    v_l(down) = -delta_{l+1,s} (a_lo - b_lo h_{l+1}) / (4 pi h_{l+1})

Real roots of det A are the surface-wave poles; they are located by a
phase-tracking scan slightly above the real axis and refined by secant
iteration, with residues recovered by Richardson-extrapolated
differencing and the crossing side fixed by a lossy perturbation of the
wavenumbers.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BranchPointError,
    DomainError,
    PoleOrderError,
    SingularSystemError,
)
from .medium import Dir, ReactionComponentId
from .special import branch_sqrt_arr, hsq

BRANCH_MARGIN_REL = 1e-6  # |lambda - k_l| >= this * k_l for scan/quad nodes


@lru_cache(maxsize=None)
def unknown_order(L):
    """Ordering of the 2L (layer, direction) unknowns."""
    order = []
    for t in range(L + 1):
        if t != L:
            order.append((t, Dir.UP))
        if t != 0:
            order.append((t, Dir.DOWN))
    return tuple(order)


@dataclass(frozen=True)
class SigmaSystem:
    """Assembled interface system at one spectral point for one source layer."""

    A: np.ndarray
    b_up: np.ndarray
    b_down: np.ndarray
    order: tuple
    lam: complex
    s: int


@dataclass(frozen=True)
class SigmaValues:
    """Solved coefficients at one spectral point, fixed source layer."""

    s: int
    values: dict

    def get(self, cid):
        """Coefficient for a component id; prohibited components are 0."""
        if cid in self.values:
            return self.values[cid]
        if cid.s != self.s:
            raise DomainError(f"values solved for source layer {self.s}, not {cid.s}")
        return 0.0 + 0.0j


@dataclass(frozen=True)
class PoleInfo:
    """A simple real pole of det A with residues and crossing side."""

    location: float
    residues: dict
    side: int


def _wavenumbers(medium, k_values=None):
    if k_values is None:
        return np.asarray(medium.wavenumbers, dtype=complex)
    k = np.asarray(k_values, dtype=complex)
    if k.shape != (medium.n_interfaces + 1,):
        raise DomainError("k_values must provide one wavenumber per layer")
    return k


def _h_layers(medium, lams, k_values=None, dinfo=None):
    """h_l(lambda) for every layer; (L+1, n) array.

    Computed in factored/anchored form (see special.hsq) so that
    precision survives arbitrarily close to the branch points.
    """
    ks = _wavenumbers(medium, k_values)
    lams = np.asarray(lams)
    real_path = np.isrealobj(lams) and k_values is None
    rows = []
    for k in ks:
        kk = float(np.real(k)) if real_path else k
        rows.append(hsq(lams, kk, dinfo))
    return branch_sqrt_arr(np.vstack([np.atleast_1d(r) for r in rows]))


def assemble_batch(medium, lams, s, k_values=None, dinfo=None):
    """Systems A(lam) x = b for an array of spectral points.

    Returns (A, B, order) with A of shape (n, 2L, 2L) and B of shape
    (n, 2L, 2); B[..., 0] is the up-source and B[..., 1] the down-source
    right-hand side.
    """
    L = medium.n_interfaces
    if not 0 <= s <= L:
        raise DomainError(f"source layer {s} out of range")
    lams = np.atleast_1d(lams)
    n = lams.shape[0]
    h = _h_layers(medium, lams, k_values, dinfo)  # (L+1, n)
    depths = medium.interface_depths
    order = unknown_order(L)
    col = {key: i for i, key in enumerate(order)}

    # interior attenuation factors e_t, defined for 1 <= t <= L-1
    e = np.zeros((L + 1, n), dtype=complex)
    for t in range(1, L):
        e[t] = np.exp(-h[t] * (depths[t - 1] - depths[t]))

    A = np.zeros((n, 2 * L, 2 * L), dtype=complex)
    B = np.zeros((n, 2 * L, 2), dtype=complex)
    four_pi = 4.0 * math.pi
    for l in range(L):
        for r, row in enumerate(medium.condition_rows[l]):
            i = 2 * l + r
            au, bu = complex(row.a_upper), complex(row.b_upper)
            alo, blo = complex(row.a_lower), complex(row.b_lower)
            A[:, i, col[(l, Dir.UP)]] = -(au - bu * h[l])
            if l != 0:
                A[:, i, col[(l, Dir.DOWN)]] = -(au + bu * h[l]) * e[l]
            if l + 1 != L:
                A[:, i, col[(l + 1, Dir.UP)]] = (alo - blo * h[l + 1]) * e[l + 1]
            A[:, i, col[(l + 1, Dir.DOWN)]] = alo + blo * h[l + 1]
            if l == s:
                B[:, i, 0] = (au + bu * h[l]) / (four_pi * h[l])
            if l + 1 == s:
                B[:, i, 1] = -(alo - blo * h[l + 1]) / (four_pi * h[l + 1])
    return A, B, order


def assemble(medium, lam, s):
    """Interface system at a single spectral point."""
    lam_c = complex(lam)
    for k in medium.wavenumbers:
        if lam_c == k or lam_c == -k:
            raise BranchPointError(f"lambda={lam} is a branch point (+-{k})")
    A, B, order = assemble_batch(medium, np.array([lam]), s)
    return SigmaSystem(A[0], B[0, :, 0], B[0, :, 1], order, lam_c, s)


def solve_sigma_batch(medium, lams, s, k_values=None, dinfo=None):
    """Solve both systems over an array of lambdas.

    Returns (sol, order) where sol has shape (n, 2L, 2):
    sol[i, j, 0] = sigma for unknown j with a source direction 'up',
    sol[i, j, 1] the 'down' counterpart.
    """
    A, B, order = assemble_batch(medium, lams, s, k_values, dinfo)
    sol = np.linalg.solve(A, B)
    return sol, order


def sigma_component_batch(medium, lams, cid, k_values=None, dinfo=None):
    """One component sigma_{ts}^{(dir_t, dir_s)} over an array of lambdas."""
    cid.validate(medium.n_interfaces)
    sol, order = solve_sigma_batch(medium, lams, cid.s, k_values, dinfo)
    j = order.index((cid.t, cid.dir_t))
    col = 0 if cid.dir_s is Dir.UP else 1
    return sol[:, j, col]


def solve_sigma(medium, lam, s):
    """All admissible coefficients at one spectral point, one source layer."""
    system = assemble(medium, lam, s)
    if np.linalg.cond(system.A) > 1e12:
        raise SingularSystemError(
            f"interface system nearly singular at lambda={lam}"
        )
    sol = np.linalg.solve(system.A, np.column_stack([system.b_up, system.b_down]))
    values = {}
    L = medium.n_interfaces
    for j, (t, dt) in enumerate(system.order):
        for col, ds in ((0, Dir.UP), (1, Dir.DOWN)):
            if s == 0 and ds is Dir.DOWN:
                continue
            if s == L and ds is Dir.UP:
                continue
            values[ReactionComponentId(t, s, dt, ds)] = complex(sol[j, col])
    return SigmaValues(s, values)


def det_batch(medium, lams, k_values=None):
    """det A(lambda) over an array of points (any fixed source layer)."""
    A, _, _ = assemble_batch(medium, lams, 0, k_values)
    sign, logabs = np.linalg.slogdet(A)
    return sign * np.exp(logabs)


def _secant_root(f, z0, z1, tol, max_iter=80):
    f0, f1 = f(z0), f(z1)
    for _ in range(max_iter):
        if f1 == f0:
            break
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        z0, f0, z1, f1 = z1, f1, z2, f(z2)
        if abs(z1 - z0) < tol:
            return z1
    return z1


def _scan_nodes(medium, interval, step):
    a, b = interval
    nodes = list(np.arange(a, b, step)) + [b]
    for k in medium.wavenumbers:
        m = BRANCH_MARGIN_REL * k
        if a < k < b:
            nodes += [k - m, k + m]
    nodes = np.array(sorted(nodes))
    keep = np.ones(nodes.shape, dtype=bool)
    for k in medium.wavenumbers:
        keep &= np.abs(nodes - k) >= BRANCH_MARGIN_REL * k * (1 - 1e-12)
    return nodes[keep]


def find_real_poles(medium, scan_interval=None, eps=1e-4):
    """Locate the simple real roots of det A (surface-wave poles).

    Scans det A just above the real axis, brackets phase jumps, refines
    by secant iteration, and keeps roots that come out essentially real.
    Residues are Richardson-extrapolated one-sided differences; the side
    is the half-plane the root moves into when every wavenumber picks up
    a relative +i*eps loss.
    """
    k_max = medium.k_max
    if scan_interval is None:
        scan_interval = (1e-6 * medium.k_min, 1.3 * k_max + 1.0)
    a, b = scan_interval
    if not 0 < a < b:
        raise DomainError("scan interval must satisfy 0 < a < b")
    step = medium.k_min / 50.0
    delta = 1e-9 * k_max
    nodes = _scan_nodes(medium, scan_interval, step)
    dets = det_batch(medium, nodes + 1j * delta)

    phases = np.angle(dets[1:] / dets[:-1])
    brackets = [
        (nodes[i], nodes[i + 1]) for i in np.nonzero(np.abs(phases) > 0.5 * math.pi)[0]
    ]

    def f(z):
        return det_batch(medium, np.array([z]))[0]

    det_scale = float(np.median(np.abs(dets))) or 1.0
    roots = []
    for lo, hi in brackets:
        z = _secant_root(f, lo + 1j * delta, hi + 1j * delta, 1e-14 * k_max)
        if not (lo - step <= z.real <= hi + step):
            continue
        if abs(z.imag) > 1e-6 * k_max:
            continue
        if abs(f(z)) > 1e-6 * det_scale:
            continue
        if any(abs(z.real - k) < 10 * BRANCH_MARGIN_REL * k for k in medium.wavenumbers):
            continue
        if any(abs(z.real - r) < 1e-8 * k_max for r in roots):
            continue
        roots.append(float(z.real))

    poles = []
    for lam_nu in sorted(roots):
        fd_h = 1e-6 * k_max
        d1 = (f(lam_nu + fd_h) - f(lam_nu - fd_h)) / (2 * fd_h)
        d2 = (f(lam_nu + fd_h) - 2 * f(lam_nu) + f(lam_nu - fd_h)) / fd_h**2
        if abs(d1) < 1e-3 * abs(d2) * fd_h:
            raise PoleOrderError(
                f"root of det A at lambda={lam_nu} appears to have order > 1"
            )
        residues = _pole_residues(medium, lam_nu)
        side = _pole_side(medium, lam_nu, eps)
        poles.append(PoleInfo(lam_nu, residues, side))
    return poles


def _pole_residues_fd(medium, lam_nu, dr_rel=1e-4):
    """sigma_nu = lim (lam - lam_nu) sigma(lam) by Richardson differencing.

    Accurate to roughly dr^2; used as an independent cross-check of the
    null-vector residues below.
    """
    L = medium.n_interfaces
    dr = dr_rel * medium.k_max
    residues = {}
    for s in range(L + 1):
        g1, order = solve_sigma_batch(medium, np.array([lam_nu + dr]), s)
        g2, _ = solve_sigma_batch(medium, np.array([lam_nu + dr / 2]), s)
        r = 2 * (dr / 2) * g2[0] - dr * g1[0]
        for j, (t, dt) in enumerate(order):
            for col, ds in ((0, Dir.UP), (1, Dir.DOWN)):
                if (s == 0 and ds is Dir.DOWN) or (s == L and ds is Dir.UP):
                    continue
                residues[ReactionComponentId(t, s, dt, ds)] = complex(r[j, col])
    return residues


def _pole_residues(medium, lam_nu):
    """Residues of A(lam)^{-1} b at a simple root of det A.

    Uses the null-vector formula res = v (w^H b) / (w^H A' v) with v, w
    the right/left null vectors of A(lam_nu) from an SVD and A' a
    Richardson-extrapolated derivative.  Machine-precision accurate,
    which the pole-corrected quadrature needs: a residue error leaves an
    unsubtracted pole spike the adaptive refinement cannot integrate.
    """
    L = medium.n_interfaces
    fd = 1e-6 * medium.k_max
    A0, _, order = assemble_batch(medium, np.array([lam_nu]), 0)
    A0 = A0[0]

    def a_at(lam):
        return assemble_batch(medium, np.array([lam]), 0)[0][0]

    d1 = (a_at(lam_nu + fd) - a_at(lam_nu - fd)) / (2 * fd)
    d2 = (a_at(lam_nu + fd / 2) - a_at(lam_nu - fd / 2)) / fd
    Aprime = (4 * d2 - d1) / 3.0
    u_svd, s_svd, vh_svd = np.linalg.svd(A0)
    v = vh_svd[-1].conj()  # right null vector
    w = u_svd[:, -1]  # left null vector (A^H w ~ 0)
    denom = np.vdot(w, Aprime @ v)
    scale = np.linalg.norm(Aprime, ord="fro")
    if abs(denom) < 1e-8 * scale:
        raise PoleOrderError(
            f"degenerate pole at lambda={lam_nu}: w^H A' v is numerically zero"
        )
    residues = {}
    for s in range(L + 1):
        _, B, _ = assemble_batch(medium, np.array([lam_nu]), s)
        for col, ds in ((0, Dir.UP), (1, Dir.DOWN)):
            if (s == 0 and ds is Dir.DOWN) or (s == L and ds is Dir.UP):
                continue
            c = np.vdot(w, B[0, :, col]) / denom
            r = c * v
            for j, (t, dt) in enumerate(order):
                residues[ReactionComponentId(t, s, dt, ds)] = complex(r[j])
    return residues


def _pole_side(medium, lam_nu, eps):
    """Sign of Im of the root after the lossy perturbation k -> k(1 + i eps)."""
    ks = np.asarray(medium.wavenumbers, dtype=complex) * (1.0 + 1j * eps)

    def f(z):
        return det_batch(medium, np.array([z]), k_values=ks)[0]

    z = _secant_root(
        f, lam_nu + 0j, lam_nu * (1 + 1e-6) + 1e-7j * medium.k_max, 1e-13 * medium.k_max
    )
    if z.imag == 0.0:
        raise PoleOrderError(f"perturbed pole at {lam_nu} did not leave the axis")
    return 1 if z.imag > 0 else -1


@dataclass(frozen=True)
class GrowthReport:
    """Diagnostic summary of |sigma| along the positive real ray."""

    lam: np.ndarray
    abs_sigma: np.ndarray
    max_log_ratio: float
    loglog_slope: float
    degree: int
    degenerate: bool
    subexponential: bool


def sigma_growth_probe(medium, cid, lam_samples):
    """Check that sigma grows at most polynomially along the real ray.

    The samples must all exceed every wavenumber (and any located pole).
    Reports max over samples of log|sigma|/lambda, which should tend to
    zero, and the fitted slope of log|sigma| against log lambda.
    """
    lam = np.asarray(lam_samples, dtype=float)
    if np.any(lam <= medium.k_max):
        raise DomainError("growth probe samples must exceed every wavenumber")
    vals = sigma_component_batch(medium, lam, cid)
    mag = np.abs(vals)
    # compare against the free-space kernel scale 1/(4 pi h) ~ 1/(4 pi lam):
    # a reaction coefficient that small is numerical zero
    if np.all(mag * 4 * math.pi * lam < 1e-10):
        return GrowthReport(lam, mag, 0.0, 0.0, 0, True, True)
    safe = np.maximum(mag, 1e-300)
    ratios = np.log(safe) / lam
    slope = float(np.polyfit(np.log(lam), np.log(safe), 1)[0])
    # polynomial growth/decay makes log|sigma|/lam shrink toward zero;
    # a true exponential rate would hold it at a constant
    sub = bool(abs(ratios[-1]) < 0.6 * abs(ratios[0])) or bool(
        abs(ratios[-1]) < 0.02
    )
    return GrowthReport(
        lam,
        mag,
        float(np.max(ratios)),
        slope,
        max(0, math.ceil(slope - 1e-9)),
        False,
        sub,
    )
