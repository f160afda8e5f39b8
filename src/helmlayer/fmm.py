"""Quadtree FMM for many-source fields in layered media.

Each reaction component gets its own pass: the sources are replaced by
their polarization images, which live on the far side of the target
layer's relevant interface, and in that image frame every far-field
condition of the expansions becomes plain Euclidean box separation.  The
tree is built over targets plus images with the interface snapped onto
the box grid, so no box ever straddles it and every multipole center
sits strictly on its correct side.

The translation matrices depend only on the (quantized) image-frame
offset between box centers, so each level needs a few dozen spectral
quadratures regardless of N.  Near-field interactions go through a
frozen composite rule that shares one interface solve per node across
every pair, in separable form: per-node moments of each source leaf,
applied to the points of each target box.  The same-layer free-space
part runs as a standard Graf FMM pass with direct Hankel sums in the
near field.

Passes are evaluated in sorted box order with plain accumulation, so
outputs are bitwise reproducible for a fixed BLAS thread count.  A
different thread count may reorder the reductions inside BLAS calls and
move results in the last bits (about 1e-16 relative).
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import CoincidentPointsError, DomainError, ValidationError
from .medium import (
    admissible_components,
    polarization_image_batch,
    polarization_preimage,
    relevant_interface,
)
from .quadrature import ContourSpec, FrozenComponentRule, _pole_cache
from .expansions import choose_truncation, m2l, me_coeffs, regular_orders
from .special import bessel_j_orders, hankel1_orders


@dataclass(frozen=True)
class FmmConfig:
    """Accuracy and tree-shape knobs for the fast evaluator."""

    eps: float = 1e-6
    c0: float = 2.0
    max_level: int = 8
    max_order: int = 256
    leaf_size: int = 20

    def __post_init__(self):
        if not 1e-12 <= self.eps <= 1e-2:
            raise ValidationError("target tolerance must lie in [1e-12, 1e-2]")
        if not self.c0 > 1:
            raise ValidationError("c0 must exceed 1")


@dataclass(frozen=True)
class SourceSet:
    """Point sources with strengths."""

    xy: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        xy = np.atleast_2d(np.asarray(self.xy, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=complex))
        if xy.shape[0] != q.shape[0] or xy.shape[1] != 2:
            raise ValidationError("sources need matching (n, 2) and (n,) arrays")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class PolarizedSourceSet:
    """Images of the sources for one reaction component."""

    cid: object
    images: np.ndarray
    strengths: np.ndarray
    originals: np.ndarray
    source_index: np.ndarray


class QuadTree:
    """Uniform quadtree over a point cloud.

    align_y, when given, shifts the vertical grid so that the value is a
    box boundary at every level; points are never allowed to sit exactly
    on it (the polarization geometry guarantees that).
    """

    def __init__(self, points, level, align_y=None, pad=1e-9):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.points = points
        self.level = int(level)
        n_cells = 2**self.level
        xmin, ymin = points.min(axis=0)
        xmax, ymax = points.max(axis=0)
        span = max(xmax - xmin, ymax - ymin, 1e-12)
        if align_y is None:
            side = span * (1.0 + 2.0 / n_cells) + pad
            x0 = xmin - 0.5 * (side - (xmax - xmin))
            y0 = ymin - 0.5 * (side - (ymax - ymin))
        else:
            # snap align_y onto the level-2 grid; every finer grid nests
            # inside it, so no box at any used level straddles that line
            side = span * 1.36 + pad
            coarse = side / 4.0
            x0 = xmin - 0.5 * (side - (xmax - xmin))
            y0 = align_y - math.ceil((align_y - ymin) / coarse) * coarse
            if y0 + side < ymax + pad:
                raise ValidationError("aligned tree does not cover the points")
        self.side = side
        self.origin = (x0, y0)
        self.cell = side / n_cells
        ix = np.clip(((points[:, 0] - x0) / self.cell).astype(int), 0, n_cells - 1)
        iy = np.clip(((points[:, 1] - y0) / self.cell).astype(int), 0, n_cells - 1)
        self.leaf_index = np.column_stack([ix, iy])

    def cell_at(self, level):
        return self.side / 2**level

    def box_of(self, i, level):
        shift = self.level - level
        return (self.leaf_index[i, 0] >> shift, self.leaf_index[i, 1] >> shift)

    def boxes(self, idx, level):
        """dict box -> sorted point indices (subset idx) at a level."""
        shift = self.level - level
        out = {}
        for i in idx:
            key = (
                int(self.leaf_index[i, 0] >> shift),
                int(self.leaf_index[i, 1] >> shift),
            )
            out.setdefault(key, []).append(int(i))
        return {k: np.array(v) for k, v in sorted(out.items())}

    def center(self, box, level):
        cell = self.cell_at(level)
        return (
            self.origin[0] + (box[0] + 0.5) * cell,
            self.origin[1] + (box[1] + 0.5) * cell,
        )


def near_radius(c0):
    """Chebyshev box distance that still counts as near field.

    Boxes further than this satisfy D > c0 * (source box radius): the
    worst target sits half a diagonal inside its box, so separation n
    gives D >= (n - sqrt2/2) * side > c0 * (sqrt2/2 * side).
    """
    return math.ceil(math.sqrt(0.5) * (1.0 + c0)) - 1


def interaction_lists(tgt_boxes, src_boxes, c0):
    """Near and far source boxes for every target box at one level.

    Far pairs are those separated beyond the near radius whose parents
    were near (the standard one-level interaction set); near pairs are
    exhaustively listed for the leaf level.
    """
    n_near = near_radius(c0)
    near = {}
    far = {}
    src_keys = set(src_boxes)
    for b in tgt_boxes:
        nb, fb = [], []
        parent = (b[0] >> 1, b[1] >> 1)
        for s in src_keys:
            dx = abs(s[0] - b[0])
            dy = abs(s[1] - b[1])
            cheb = max(dx, dy)
            if cheb <= n_near:
                nb.append(s)
            else:
                sp = (s[0] >> 1, s[1] >> 1)
                if max(abs(sp[0] - parent[0]), abs(sp[1] - parent[1])) <= n_near:
                    fb.append(s)
        near[b] = sorted(nb)
        far[b] = sorted(fb)
    return near, far


def _layers_of_batch(medium, ys):
    depths = np.asarray(medium.interface_depths)
    if np.any(np.isin(ys, depths)):
        raise DomainError("a point sits exactly on an interface")
    return np.sum(ys[:, None] < depths[None, :], axis=1)


def _pass_order(medium, cid, rho_geom, eps, c0=2.0):
    """Shared truncation order for one component pass.

    Box translations have O(1) measured prefactors, so the safety
    constant is far below the generic default.
    """
    k_s = medium.wavenumbers[cid.s]
    ratio = math.sqrt(0.5) / (near_radius(c0) + 1 - math.sqrt(0.5))
    return choose_truncation(
        min(ratio, 0.45), eps, k_s, rho_geom, C_safe=30.0, P_min=8
    )


# ---------------------------------------------------------------------------
# reaction-component pass
# ---------------------------------------------------------------------------


def _reaction_pass(medium, cid, src_xy, src_q, tgt_xy, config, out, tgt_idx, rules):
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    tau_t = cid.dir_t.tau
    tau_s = cid.dir_s.tau
    k_t = medium.wavenumbers[cid.t]
    k_s = medium.wavenumbers[cid.s]
    images = polarization_image_batch(medium, cid, src_xy)

    alphas = tau_t * (tgt_xy[:, 1] - d_t)
    betas = tau_s * (src_xy[:, 1] - d_s)

    n_tgt = tgt_xy.shape[0]
    n_src = src_xy.shape[0]
    cloud = np.vstack([tgt_xy, images])
    level = max(
        2, min(config.max_level, math.ceil(math.log(max(cloud.shape[0], 4) / config.leaf_size, 4)))
    )
    tree = QuadTree(cloud, level, align_y=d_t)

    # frozen near-field rule shared by every pair of this component;
    # near pairs live within the leaf neighborhood, so the oscillation
    # range the rule must resolve is a few leaf cells, not the domain
    x_near = (near_radius(config.c0) + 1.5) * tree.cell_at(level)
    rule_key = (cid, round(x_near, 9))
    if rule_key not in rules:
        rules[rule_key] = FrozenComponentRule(
            medium,
            cid,
            (float(alphas.min()), float(alphas.max())),
            (float(betas.min()), float(betas.max())),
            x_near,
            rtol=config.eps * 5e-2,
        )
    rule = rules[rule_key]

    tgt_local = np.arange(n_tgt)
    img_local = np.arange(n_tgt, n_tgt + n_src)
    leaf_t = tree.boxes(tgt_local, level)
    leaf_s = tree.boxes(img_local, level)
    if not leaf_s:
        return

    near, far_leaf = interaction_lists(leaf_t.keys(), leaf_s.keys(), config.c0)

    # near field, separable in x: each source leaf is folded once into
    # per-node moments (C, S), a target box sums the moments of its near
    # leaves and applies them to its points.  Abscissae are measured from
    # the tree's center line to keep the phases lam * x small
    x_ref = tree.origin[0] + 0.5 * tree.side
    moments = {}
    for b in leaf_t:
        src_boxes = [s for s in near[b] if s in leaf_s]
        if not src_boxes:
            continue
        for s in src_boxes:
            if s not in moments:
                j = leaf_s[s] - n_tgt
                moments[s] = rule.source_moments(
                    betas[j], src_xy[j, 0] - x_ref, src_q[j]
                )
        C = sum(moments[s][0] for s in src_boxes)
        S = sum(moments[s][1] for s in src_boxes)
        tl = leaf_t[b]
        out[tgt_idx[tl]] += rule.eval_moments(
            alphas[tl], tgt_xy[tl, 0] - x_ref, C, S
        )

    if level < 2:
        return

    eps_pass = config.eps * 0.1
    scale_rho = 0.35 * tree.cell_at(2) * (near_radius(config.c0) + 2)
    P = _pass_order(medium, cid, scale_rho, eps_pass, config.c0)
    if P > config.max_order:
        raise DomainError(
            f"target tolerance needs order {P} > configured maximum "
            f"{config.max_order}"
        )
    orders = np.arange(-(P - 1), P)
    spec = ContourSpec(rtol=max(config.eps * 1e-2, 2e-11))

    # upward: leaf multipole coefficients about preimages of box centers
    me_by_level = {level: {}}
    for b, idx in leaf_s.items():
        x_c = polarization_preimage(medium, cid, tree.center(b, level))
        me = me_coeffs(medium, cid, x_c, src_xy[idx - n_tgt], src_q[idx - n_tgt], P)
        me_by_level[level][b] = me.coeffs

    for lv in range(level - 1, 1, -1):
        me_by_level[lv] = {}
        for b, coeffs in sorted(me_by_level[lv + 1].items()):
            parent = (b[0] >> 1, b[1] >> 1)
            child_c = polarization_preimage(medium, cid, tree.center(b, lv + 1))
            parent_c = polarization_preimage(medium, cid, tree.center(parent, lv))
            shift = (child_c[0] - parent_c[0], child_c[1] - parent_c[1])
            kern = regular_orders(shift, k_s, 2 * P - 2, tau=tau_s)
            acc = me_by_level[lv].setdefault(
                parent, np.zeros(2 * P - 1, dtype=complex)
            )
            acc += _convolve_orders(coeffs, kern, orders)

    # downward: M2L plus L2L.  For equal wavenumbers the matrix depends
    # only on the image-frame offset; across a wavenumber contrast h_t
    # and h_s enter separately, so the cache key also carries both rows
    # (far pairs with distinct layers hug the interface, keeping the
    # number of distinct keys per level O(1) either way).
    same_k = k_t == k_s
    m2l_cache = {}
    le_prev = {}
    for lv in range(2, level + 1):
        tgt_lv = tree.boxes(tgt_local, lv)
        _, far = interaction_lists(tgt_lv.keys(), me_by_level[lv].keys(), config.c0)
        le_now = {}
        for b in tgt_lv:
            coeffs = np.zeros(2 * P - 1, dtype=complex)
            if b in le_prev:
                coeffs += le_prev[b]
            for s in far[b]:
                dix = b[0] - s[0]
                if same_k:
                    key = (lv, abs(dix), b[1] - s[1])
                else:
                    key = (lv, abs(dix), b[1], s[1])
                if key not in m2l_cache:
                    x_cl = tree.center(b, lv)
                    x_c = polarization_preimage(medium, cid, tree.center(s, lv))
                    if dix < 0:
                        # build the mirrored-offset matrix; evenness in
                        # lambda gives A(-X) = A(X) with both order axes
                        # reversed, so one quadrature serves both signs
                        x_c = (2 * x_cl[0] - x_c[0], x_c[1])
                    tm = m2l(medium, cid, x_cl, x_c, P, P, spec)
                    m2l_cache[key] = tm.matrix
                mat = m2l_cache[key]
                if dix < 0:
                    mat = mat[::-1, ::-1]
                coeffs += mat @ me_by_level[lv][s]
            le_now[b] = coeffs
        if lv == level:
            for b, idx in tgt_lv.items():
                if not np.any(np.abs(le_now[b])):
                    continue
                _eval_local_at(
                    out,
                    tgt_idx[idx],
                    le_now[b],
                    tree.center(b, lv),
                    tgt_xy[idx],
                    k_t,
                    tau_t,
                    P,
                )
        else:
            le_prev = {}
            for b, coeffs in le_now.items():
                for cx in (0, 1):
                    for cy in (0, 1):
                        child = (2 * b[0] + cx, 2 * b[1] + cy)
                        shift = (
                            tree.center(child, lv + 1)[0] - tree.center(b, lv)[0],
                            tree.center(child, lv + 1)[1] - tree.center(b, lv)[1],
                        )
                        kern = regular_orders(shift, k_t, 2 * P - 2, tau=tau_t)
                        le_prev[child] = _convolve_orders_rev(coeffs, kern, orders)


def _convolve_orders(coeffs, kern, orders):
    """out_p = sum_q c_q kern_{p-q}; kern indexed -2(P-1)..2(P-1)."""
    P1 = orders.shape[0]
    mid = (kern.shape[0] - 1) // 2
    out = np.empty(P1, dtype=complex)
    for i, p in enumerate(orders):
        out[i] = np.dot(coeffs, kern[(p - orders) + mid])
    return out


def _convolve_orders_rev(coeffs, kern, orders):
    """out_m = sum_q c_q kern_{q-m} (the local-shift convolution)."""
    mid = (kern.shape[0] - 1) // 2
    out = np.empty(orders.shape[0], dtype=complex)
    for i, m in enumerate(orders):
        out[i] = np.dot(coeffs, kern[(orders - m) + mid])
    return out


def _eval_local_at(out, global_idx, coeffs, center, pts, k, tau, P):
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    rho = np.hypot(dx, dy)
    th = np.arctan2(dy, dx)
    j = bessel_j_orders(k * rho, P - 1)  # (2P-1, n)
    orders = np.arange(-(P - 1), P)
    phases = np.exp(1j * np.outer(orders, tau * th))
    out[global_idx] += (coeffs[:, None] * j * phases).sum(axis=0)


# ---------------------------------------------------------------------------
# same-layer free-space pass
# ---------------------------------------------------------------------------


def _free_space_pass(medium, layer, src_xy, src_q, tgt_xy, config, out, tgt_idx):
    k = medium.wavenumbers[layer]
    n_tgt = tgt_xy.shape[0]
    n_src = src_xy.shape[0]
    cloud = np.vstack([tgt_xy, src_xy])
    level = max(
        2, min(config.max_level, math.ceil(math.log(max(cloud.shape[0], 4) / config.leaf_size, 4)))
    )
    tree = QuadTree(cloud, level)
    tgt_local = np.arange(n_tgt)
    src_local = np.arange(n_tgt, n_tgt + n_src)
    leaf_t = tree.boxes(tgt_local, level)
    leaf_s = tree.boxes(src_local, level)
    near, _ = interaction_lists(leaf_t.keys(), leaf_s.keys(), config.c0)

    # near field: direct Hankel sums
    for b in leaf_t:
        tl = leaf_t[b]
        src_boxes = [s for s in near[b] if s in leaf_s]
        if not src_boxes:
            continue
        sl = np.concatenate([leaf_s[s] for s in src_boxes]) - n_tgt
        ti = np.repeat(tl, sl.shape[0])
        sj = np.tile(sl, tl.shape[0])
        r = np.hypot(tgt_xy[ti, 0] - src_xy[sj, 0], tgt_xy[ti, 1] - src_xy[sj, 1])
        if np.any(r == 0.0):
            raise CoincidentPointsError("source and target coincide in a leaf")
        vals = 0.25j * _sp.hankel1(0, k * r)
        acc = (src_q[sj] * vals).reshape(tl.shape[0], sl.shape[0]).sum(axis=1)
        out[tgt_idx[tl]] += acc

    if level < 2:
        return
    eps_pass = config.eps * 0.1
    scale_rho = 0.35 * tree.cell_at(2) * (near_radius(config.c0) + 2)
    ratio = math.sqrt(0.5) / (near_radius(config.c0) + 1 - math.sqrt(0.5))
    P = choose_truncation(min(ratio, 0.45), eps_pass, k, scale_rho, C_safe=30.0)
    if P > config.max_order:
        raise DomainError(
            f"target tolerance needs order {P} > configured maximum "
            f"{config.max_order}"
        )
    orders = np.arange(-(P - 1), P)

    me_by_level = {level: {}}
    for b, idx in leaf_s.items():
        c = tree.center(b, level)
        sx = src_xy[idx - n_tgt]
        dx = sx[:, 0] - c[0]
        dy = sx[:, 1] - c[1]
        rho = np.hypot(dx, dy)
        th = np.arctan2(dy, dx)
        j = bessel_j_orders(k * rho, P - 1)
        phases = np.exp(-1j * np.outer(orders, th))
        me_by_level[level][b] = (j * phases) @ src_q[idx - n_tgt]

    for lv in range(level - 1, 1, -1):
        me_by_level[lv] = {}
        for b, coeffs in sorted(me_by_level[lv + 1].items()):
            parent = (b[0] >> 1, b[1] >> 1)
            shift = (
                tree.center(b, lv + 1)[0] - tree.center(parent, lv)[0],
                tree.center(b, lv + 1)[1] - tree.center(parent, lv)[1],
            )
            kern = np.conj(regular_orders(shift, k, 2 * P - 2))
            acc = me_by_level[lv].setdefault(parent, np.zeros(2 * P - 1, dtype=complex))
            acc += _convolve_orders(coeffs, kern, orders)

    m2l_cache = {}
    le_prev = {}
    nmax = 2 * P - 2
    for lv in range(2, level + 1):
        tgt_lv = tree.boxes(tgt_local, lv)
        _, far = interaction_lists(tgt_lv.keys(), me_by_level[lv].keys(), config.c0)
        le_now = {}
        for b in tgt_lv:
            coeffs = np.zeros(2 * P - 1, dtype=complex)
            if b in le_prev:
                coeffs += le_prev[b]
            for s in far[b]:
                key = (lv, b[0] - s[0], b[1] - s[1])
                if key not in m2l_cache:
                    bx = tree.center(b, lv)[0] - tree.center(s, lv)[0]
                    by = tree.center(b, lv)[1] - tree.center(s, lv)[1]
                    rho = math.hypot(bx, by)
                    th = math.atan2(by, bx)
                    h = hankel1_orders(np.array([k * rho]), nmax)[:, 0]
                    n = np.arange(-nmax, nmax + 1)
                    m2l_cache[key] = 0.25j * h * np.exp(1j * n * th)
                o_kern = m2l_cache[key]
                src_c = me_by_level[lv][s]
                add = np.empty(2 * P - 1, dtype=complex)
                for i, q in enumerate(orders):
                    add[i] = np.dot(src_c, o_kern[(orders - q) + nmax])
                coeffs += add
            le_now[b] = coeffs
        if lv == level:
            for b, idx in tgt_lv.items():
                if not np.any(np.abs(le_now[b])):
                    continue
                c = tree.center(b, lv)
                pts = tgt_xy[idx]
                dx = pts[:, 0] - c[0]
                dy = pts[:, 1] - c[1]
                rho = np.hypot(dx, dy)
                th = np.arctan2(dy, dx)
                j = bessel_j_orders(k * rho, P - 1)
                phases = np.exp(1j * np.outer(orders, th))
                out[tgt_idx[idx]] += (le_now[b][:, None] * j * phases).sum(axis=0)
        else:
            le_prev = {}
            for b, coeffs in le_now.items():
                for cx in (0, 1):
                    for cy in (0, 1):
                        child = (2 * b[0] + cx, 2 * b[1] + cy)
                        shift = (
                            tree.center(child, lv + 1)[0] - tree.center(b, lv)[0],
                            tree.center(child, lv + 1)[1] - tree.center(b, lv)[1],
                        )
                        kern = regular_orders(shift, k, 2 * P - 2)
                        le_prev[child] = _convolve_orders_rev(coeffs, kern, orders)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def evaluate_all(medium, sources, targets, config=None):
    """Total field sum_j q_j G(x_i, x_j) at every target, FMM route."""
    config = config or FmmConfig()
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if _pole_cache(medium, 1.2 * medium.k_max + 1.0):
        raise DomainError(
            "the fast evaluator requires a pole-free medium (guided modes "
            "need the pointwise pole-corrected quadrature)"
        )
    t_layers = _layers_of_batch(medium, targets[:, 1])
    s_layers = _layers_of_batch(medium, sources.xy[:, 1])
    out = np.zeros(targets.shape[0], dtype=complex)
    rules = {}
    L = medium.n_interfaces
    for t in sorted(set(t_layers.tolist())):
        tgt_sel = np.nonzero(t_layers == t)[0]
        for s in sorted(set(s_layers.tolist())):
            src_sel = np.nonzero(s_layers == s)[0]
            for cid in admissible_components(t, s, L):
                _reaction_pass(
                    medium,
                    cid,
                    sources.xy[src_sel],
                    sources.q[src_sel],
                    targets[tgt_sel],
                    config,
                    out,
                    tgt_sel,
                    rules,
                )
            if s == t:
                _free_space_pass(
                    medium,
                    t,
                    sources.xy[src_sel],
                    sources.q[src_sel],
                    targets[tgt_sel],
                    config,
                    out,
                    tgt_sel,
                )
    return out


def direct_sum(medium, sources, targets, rtol=1e-8):
    """Reference pairwise summation (frozen-rule kernels, O(N^2))."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    t_layers = _layers_of_batch(medium, targets[:, 1])
    s_layers = _layers_of_batch(medium, sources.xy[:, 1])
    out = np.zeros(targets.shape[0], dtype=complex)
    L = medium.n_interfaces
    for t in sorted(set(t_layers.tolist())):
        tgt_sel = np.nonzero(t_layers == t)[0]
        txy = targets[tgt_sel]
        for s in sorted(set(s_layers.tolist())):
            src_sel = np.nonzero(s_layers == s)[0]
            sxy = sources.xy[src_sel]
            sq = sources.q[src_sel]
            for cid in admissible_components(t, s, L):
                d_t = relevant_interface(medium, cid.t, cid.dir_t)
                d_s = relevant_interface(medium, cid.s, cid.dir_s)
                alphas = cid.dir_t.tau * (txy[:, 1] - d_t)
                betas = cid.dir_s.tau * (sxy[:, 1] - d_s)
                x_span = float(
                    max(np.max(txy[:, 0]), np.max(sxy[:, 0]))
                    - min(np.min(txy[:, 0]), np.min(sxy[:, 0]))
                )
                rule = FrozenComponentRule(
                    medium,
                    cid,
                    (float(alphas.min()), float(alphas.max())),
                    (float(betas.min()), float(betas.max())),
                    x_span,
                    rtol=rtol,
                )
                nt, ns = txy.shape[0], sxy.shape[0]
                block = 200_000 // max(ns, 1) + 1
                for i0 in range(0, nt, block):
                    i1 = min(i0 + block, nt)
                    ti = np.repeat(np.arange(i0, i1), ns)
                    sj = np.tile(np.arange(ns), i1 - i0)
                    vals = rule.eval_batch(
                        alphas[ti], betas[sj], txy[ti, 0] - sxy[sj, 0]
                    )
                    acc = (sq[sj] * vals).reshape(i1 - i0, ns).sum(axis=1)
                    out[tgt_sel[i0:i1]] += acc
            if s == t:
                nt, ns = txy.shape[0], sxy.shape[0]
                k = medium.wavenumbers[t]
                block = 200_000 // max(ns, 1) + 1
                for i0 in range(0, nt, block):
                    i1 = min(i0 + block, nt)
                    dx = txy[i0:i1, 0][:, None] - sxy[None, :, 0]
                    dy = txy[i0:i1, 1][:, None] - sxy[None, :, 1]
                    r = np.hypot(dx, dy)
                    if np.any(r == 0.0):
                        raise CoincidentPointsError("coincident source/target")
                    vals = 0.25j * _sp.hankel1(0, k * r)
                    out[tgt_sel[i0:i1]] += (sq[None, :] * vals).sum(axis=1)
    return out


def measure_scaling(medium, n_values, seed=0, config=None, box=None):
    """Wall-clock of evaluate_all over a range of N (diagnostic)."""
    config = config or FmmConfig()
    rng = np.random.default_rng(seed)
    times = []
    for n in n_values:
        src, tgt = random_two_layer_cloud(medium, n, rng, box)
        t0 = time.perf_counter()
        evaluate_all(medium, src, tgt, config)
        times.append(time.perf_counter() - t0)
    return np.array(times, dtype=float)


def random_two_layer_cloud(medium, n, rng, box=None):
    """Random sources/targets straddling the first interface.

    Points keep a small margin from the interface so spectral tails stay
    short; strengths are O(1) and reproducible from the generator.
    """
    if box is None:
        box = (-2.0, 2.0, -1.8, 1.8)
    x0, x1, y0, y1 = box
    d0 = medium.interface_depths[0]
    margin = 0.05 * (y1 - y0)

    def sample(m):
        xs = rng.uniform(x0, x1, m)
        ys = rng.uniform(y0, y1, m)
        off = np.abs(ys - d0) < margin
        ys[off] = d0 + np.sign(ys[off] - d0 + 1e-12) * (
            margin + (margin - np.abs(ys[off] - d0))
        )
        return np.column_stack([xs, ys])

    src = SourceSet(sample(n), rng.uniform(0.5, 1.5, n))
    tgt = sample(n)
    return src, tgt


def fitted_scaling_exponent(n_values, seconds):
    n_values = np.asarray(n_values, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    return float(np.polyfit(np.log(n_values), np.log(seconds), 1)[0])
