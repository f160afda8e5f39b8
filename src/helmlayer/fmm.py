"""Quadtree FMM for many-source fields in layered media.

Every pass runs one skeleton: a tree over its targets plus its source
points, a near field summed directly, and a far field made of leaf
multipole expansions, an upward M2M pass, M2L between far boxes, a
downward L2L pass and leaf local expansions evaluated at the targets.
Two sets of operators plug into that skeleton; only the near fields are
written per pass.

Each reaction component gets its own pass: the sources are replaced by
their polarization images, which live on the far side of the target
layer's relevant interface, and in that image frame every far-field
condition of the expansions becomes plain Euclidean box separation.  The
tree is built over targets plus images with the interface snapped onto
the box grid, so no box ever straddles it and every multipole center
sits strictly on its correct side.  Its operators are the polarized ME
about the preimage of a box center, the spectral M2L matrices and the
generating-function shifts.

The translation matrices depend only on the (quantized) image-frame
offset between box centers, so each level needs a few dozen spectral
quadratures regardless of N.  The interaction lists of every level
depend only on the tree, so a pass lists them first (each level once)
and builds every matrix it lacks in one lockstep family
(``expansions.m2l_family``): the quadratures refine independently, with
the panels a build of their own takes, while each round evaluates the
new panels of all of them in chunked integrand calls.  They share a
``SigmaMemo``: each call solves the interface system in one go for the
node arrays of its chunk that no earlier call met, so matrices that
start from the same panels, or run on the same (H, X) contour, never
solve an array twice.  The memo is local to the pass and goes when it
returns.  A matrix is bitwise what ``m2l`` builds for its pair alone.
Near-field interactions go through a frozen composite rule that shares
one interface solve per node across every pair, in separable form:
per-node moments of each source leaf, applied to the points of each
target box.  The rule adapts on five probe geometries, run as one
lockstep family like the M2L matrices.  The same-layer free-space
part is a second pass with Graf's addition theorem as its operators
and direct Hankel sums in its near field; a target that coincides with
a source gets no free-space term from it (the reaction terms stay
finite there and are kept).

None of the operators depends on the source strengths.  ``evaluate_all``
builds the operators of its call and drops them when it returns, so
every call on the same inputs costs the same.  ``FmmPlan`` is the same
FMM for fixed points: it keeps its operators (layered M2L matrices,
frozen near-field rules, M2M/L2L shift kernels; read-only arrays) until
it is dropped, so a later ``evaluate`` with new strengths, as an
iterative solver makes, only applies them.  Within a call or a plan
each operator is keyed on every input of its build: the component, the
order P, the contour spec or rtol, and the exact center coordinates
(for a rule, the exact offset ranges and x range; for a shift kernel,
the child offset, wavenumber and order).  Shift kernels are built from
the canonical child offsets (+-1/2 cell on each axis), so each level
needs four.  Every M2M, L2L and free-space M2L is applied as one
Toeplitz matrix-vector product per box.

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

from .errors import DomainError, ValidationError
from .medium import (
    admissible_components,
    polarization_image_batch,
    polarization_preimage,
    relevant_interface,
)
from .quadrature import (
    ContourSpec,
    FrozenComponentRule,
    SigmaMemo,
    _require_pole_free,
    evaluate_component,
    has_branch_pole,
)
from .expansions import (
    _fs_m2l_kernel,
    _toeplitz,
    choose_truncation,
    fs_me,
    m2l_family as m2l,  # builds every M2L matrix a pass lacks, in one call
    me_coeffs,
    regular_orders,
)
from .special import bessel_j_orders


@dataclass(frozen=True)
class FmmConfig:
    """Accuracy and tree-shape knobs for the fast evaluator.

    eps bounds the relative L2 error over the targets,
    ||f - d|| / ||d|| with d the exact sums.  It sets each pass's order
    (``_pass_order``) and the quadrature tolerances.  Per point, on
    corner-lattice clouds (every target and source just inside a leaf-box
    corner of one pass's grid), the worst error relative to max |d|
    stayed at or below 0.16 eps for eps = 1e-4 to 1e-8 (c0 = 2).
    """

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
    exhaustively listed for the leaf level.  Both kinds are children of
    the (2 n_near + 1)^2 parent boxes around the target's parent (a near
    box's parent lies within ceil(n_near / 2) of it), so only those
    children are scanned.
    """
    n_near = near_radius(c0)
    children = {}
    for s in set(src_boxes):
        children.setdefault((s[0] >> 1, s[1] >> 1), []).append(s)
    near = {}
    far = {}
    span = range(-n_near, n_near + 1)
    for b in tgt_boxes:
        nb, fb = [], []
        px, py = b[0] >> 1, b[1] >> 1
        for dx in span:
            for dy in span:
                for s in children.get((px + dx, py + dy), ()):
                    if max(abs(s[0] - b[0]), abs(s[1] - b[1])) <= n_near:
                        nb.append(s)
                    else:
                        fb.append(s)
        near[b] = sorted(nb)
        far[b] = sorted(fb)
    return near, far


def _layers_of_batch(medium, ys):
    depths = np.asarray(medium.interface_depths)
    if np.any(np.isin(ys, depths)):
        raise DomainError("a point sits exactly on an interface")
    return np.sum(ys[:, None] < depths[None, :], axis=1)


# ---------------------------------------------------------------------------
# operators of a call or a plan
# ---------------------------------------------------------------------------


def _freeze(value):
    """Make the arrays of an operator read-only."""
    if isinstance(value, np.ndarray):
        arrays = [value]
    else:
        arrays = [a for a in vars(value).values() if isinstance(a, np.ndarray)]
    for a in arrays:
        a.flags.writeable = False


def _operator(operators, key, build):
    """operators[key]; on a miss build() makes it, read-only.

    A key names every input of a build, so a hit returns bitwise what the
    build returns.
    """
    value = operators.get(key)
    if value is None:
        value = build()
        _freeze(value)
        operators[key] = value
    return value


def _point(x):
    return (float(x[0]), float(x[1]))


def _child_kernels(operators, cell, k, P, tau=1.0, flip=1.0):
    """Shift kernels J_n(k rho) e^{i n tau theta}, |n| <= 2(P-1), by child.

    A child center sits ((cx - 1/2) cell, (cy - 1/2) cell) from its
    parent's, cell being the child level's box side; flip = -1 mirrors
    the y offset, as the preimage frame of a reaction M2M does.
    """
    nmax = 2 * P - 2
    out = {}
    for cx in (0, 1):
        for cy in (0, 1):
            v = (float((cx - 0.5) * cell), float(flip * (cy - 0.5) * cell))
            out[cx, cy] = _operator(
                operators,
                ("shift", v, k, nmax, tau),
                lambda: regular_orders(v, k, nmax, tau=tau),
            )
    return out


# ---------------------------------------------------------------------------
# pass skeleton
# ---------------------------------------------------------------------------


def _tree(tgt_xy, src_xy, config, align_y=None):
    """Tree over targets plus source points, its leaf boxes and lists.

    Returns (tree, leaf_t, leaf_s, near, far): leaf_t maps a leaf box to
    the indices of its targets, leaf_s to the indices of its source
    points (both into their own arrays), near a target leaf to its near
    leaves, and far[lv], for lv = 2..tree.level in ascending order, every
    target box of level lv (sorted) to its far source boxes.  The lists
    depend only on the tree; each level is listed once.
    """
    n_tgt = tgt_xy.shape[0]
    cloud = np.vstack([tgt_xy, src_xy])
    level = max(
        2, min(config.max_level, math.ceil(math.log(max(cloud.shape[0], 4) / config.leaf_size, 4)))
    )
    tree = QuadTree(cloud, level, align_y=align_y)
    leaf_t = tree.boxes(np.arange(n_tgt), level)
    leaf_s = {
        b: idx - n_tgt
        for b, idx in tree.boxes(np.arange(n_tgt, cloud.shape[0]), level).items()
    }
    far = {}
    for lv in range(2, level):
        shift = level - lv
        tgt_lv = sorted({(b[0] >> shift, b[1] >> shift) for b in leaf_t})
        src_lv = {(b[0] >> shift, b[1] >> shift) for b in leaf_s}
        _, far[lv] = interaction_lists(tgt_lv, src_lv, config.c0)
    near, far[level] = interaction_lists(leaf_t.keys(), leaf_s.keys(), config.c0)
    return tree, leaf_t, leaf_s, near, far


# Prefactor C of a pass's truncation error C * ratio**P, relative to
# max |field|.  Measured on corner-lattice clouds, where every target and
# source sits 1e-3 cell inside a leaf-box corner of one pass's own grid:
# reaction grids with t = s and t != s, free-space grids in either layer
# of k = (1, 1.5), spans 3 to 10, tree levels 3 to 6, c0 = 2.  The
# t != s grid sets it: its worst point is 3.8e-3 * 0.308**P at P = 10
# on span 4 and grows with the boxes' size in wavelengths until the
# onset term takes over.  With C = 0.2 the worst point of every such
# cloud stayed at or below 0.16 eps for eps = 1e-4 to 1e-8.
_ORDER_PREFACTOR = 0.2


def _pass_order(k, tree, config):
    """Shared truncation order of a pass whose expansions have wavenumber k.

    P = max(ceil(log(eps / C) / log ratio), ceil(e k rho_geom), 8), where
    ratio is the worst-case box ratio of the near radius that c0 sets
    (0.308 at c0 = 2, 0.547 for c0 < 1.83) and C = ``_ORDER_PREFACTOR``,
    the prefactor measured on corner-lattice clouds (see there).  At
    c0 = 2 that is P = 8, 11, 15 and 19 at eps = 1e-4, 1e-6, 1e-8 and
    1e-10, unless the onset term ceil(e k rho_geom) binds.
    """
    n_near = near_radius(config.c0)
    ratio = math.sqrt(0.5) / (n_near + 1 - math.sqrt(0.5))
    rho_geom = 0.35 * tree.cell_at(2) * (n_near + 2)
    P = choose_truncation(
        ratio, config.eps, k, rho_geom, C_safe=_ORDER_PREFACTOR, P_min=8, c0=config.c0
    )
    if P > config.max_order:
        raise DomainError(
            f"target tolerance needs order {P} > configured maximum "
            f"{config.max_order}"
        )
    return P


def _far_field(
    tree, leaf_t, leaf_s, far, P, leaf_me, m2m_kernels, far_m2l, l2l_kernels,
    le_wave, tgt_xy, out, tgt_idx,
):
    """Upward pass, M2L and downward pass of one pass; leaf LEs into out.

    The boxes and lists are those of ``_tree``.  The pass supplies its
    operators: leaf_me(box, j) gives the ME of its source points j about
    a leaf box; m2m_kernels(cell) and l2l_kernels(cell) give the shift
    kernels by child, cell being the child level's box side;
    far_m2l(lv, b, s) gives the M2L matrix from source box s to target
    box b at level lv; le_wave = (k, tau) is the wavenumber and
    orientation of the LE basis.
    """
    level = tree.level
    me_by_level = {level: {b: leaf_me(b, j) for b, j in leaf_s.items()}}
    for lv in range(level - 1, 1, -1):
        kerns = m2m_kernels(tree.cell_at(lv + 1))
        up = {c: _toeplitz(kern, P, P, 1) for c, kern in kerns.items()}
        me_by_level[lv] = {}
        for b, coeffs in sorted(me_by_level[lv + 1].items()):
            parent = (b[0] >> 1, b[1] >> 1)
            acc = me_by_level[lv].setdefault(
                parent, np.zeros(2 * P - 1, dtype=complex)
            )
            acc += up[b[0] & 1, b[1] & 1] @ coeffs

    le_prev = {}
    for lv, far_lv in far.items():
        le_now = {}
        for b, far_b in far_lv.items():
            coeffs = np.zeros(2 * P - 1, dtype=complex)
            if b in le_prev:
                coeffs += le_prev[b]
            for s in far_b:
                coeffs += far_m2l(lv, b, s) @ me_by_level[lv][s]
            le_now[b] = coeffs
        if lv < level:
            kerns = l2l_kernels(tree.cell_at(lv + 1))
            down = {c: _toeplitz(kern, P, P, -1) for c, kern in kerns.items()}
            le_prev = {}
            for b, coeffs in le_now.items():
                for (cx, cy), shift in down.items():
                    le_prev[2 * b[0] + cx, 2 * b[1] + cy] = shift @ coeffs

    k, tau = le_wave
    for b, idx in leaf_t.items():
        if np.any(np.abs(le_now[b])):
            _eval_local_at(
                out, tgt_idx[idx], le_now[b], tree.center(b, level), tgt_xy[idx], k, tau, P
            )


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
# reaction-component pass
# ---------------------------------------------------------------------------


def _reaction_pass(
    medium, cid, src_xy, src_q, tgt_xy, config, out, tgt_idx, operators
):
    d_t = relevant_interface(medium, cid.t, cid.dir_t)
    d_s = relevant_interface(medium, cid.s, cid.dir_s)
    tau_t = cid.dir_t.tau
    tau_s = cid.dir_s.tau
    k_t = medium.wavenumbers[cid.t]
    k_s = medium.wavenumbers[cid.s]
    images = polarization_image_batch(medium, cid, src_xy)

    alphas = tau_t * (tgt_xy[:, 1] - d_t)
    betas = tau_s * (src_xy[:, 1] - d_s)
    tree, leaf_t, leaf_s, near, far = _tree(tgt_xy, images, config, align_y=d_t)

    # frozen near-field rule shared by every pair of this component;
    # near pairs live within the leaf neighborhood, so the oscillation
    # range the rule must resolve is a few leaf cells, not the domain
    x_near = float((near_radius(config.c0) + 1.5) * tree.cell)
    a_range = (float(alphas.min()), float(alphas.max()))
    b_range = (float(betas.min()), float(betas.max()))
    rtol = config.eps * 5e-2
    rule = _operator(
        operators,
        ("rule", cid, a_range, b_range, x_near, rtol),
        lambda: FrozenComponentRule(medium, cid, a_range, b_range, x_near, rtol=rtol),
    )

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
                j = leaf_s[s]
                moments[s] = rule.source_moments(
                    betas[j], src_xy[j, 0] - x_ref, src_q[j]
                )
        C = sum(moments[s][0] for s in src_boxes)
        S = sum(moments[s][1] for s in src_boxes)
        tl = leaf_t[b]
        out[tgt_idx[tl]] += rule.eval_moments(
            alphas[tl], tgt_xy[tl, 0] - x_ref, C, S
        )

    P = _pass_order(k_s, tree, config)
    spec = ContourSpec(rtol=max(config.eps * 1e-2, 2e-11))

    def leaf_me(b, j):
        # multipole coefficients about the preimage of the box center
        x_c = polarization_preimage(medium, cid, tree.center(b, tree.level))
        return me_coeffs(medium, cid, x_c, src_xy[j], src_q[j], P).coeffs

    # For equal wavenumbers an M2L matrix depends only on the image-frame
    # offset; across a wavenumber contrast h_t and h_s enter separately,
    # so the cache key also carries both rows (far pairs with distinct
    # layers hug the interface, keeping the number of distinct keys per
    # level O(1) either way).
    same_k = k_t == k_s

    def m2l_key(lv, b, s):
        dix = b[0] - s[0]
        return (lv, abs(dix), b[1] - s[1]) if same_k else (lv, abs(dix), b[1], s[1])

    # every matrix of the pass, with the centers of the first far pair
    # (by level, target box, source box) that uses it
    builds = {}
    for lv, far_lv in far.items():
        for b, far_b in far_lv.items():
            for s in far_b:
                key = m2l_key(lv, b, s)
                if key in builds:
                    continue
                x_cl = tree.center(b, lv)
                x_c = polarization_preimage(medium, cid, tree.center(s, lv))
                if b[0] < s[0]:
                    # build the mirrored-offset matrix; evenness in lambda
                    # gives A(-X) = A(X) with both order axes reversed, so
                    # one quadrature serves both signs
                    x_c = (2 * x_cl[0] - x_c[0], x_c[1])
                builds[key] = ("m2l", cid, P, spec, _point(x_cl), _point(x_c))
    # the ones the call or plan lacks are built as one lockstep family,
    # sharing one sigma memo that is dropped on return
    missing = list(dict.fromkeys(op for op in builds.values() if op not in operators))
    if missing:
        sigma = SigmaMemo(medium, cid)
        centers = [op[4:] for op in missing]
        for op, mat in zip(missing, m2l(medium, cid, centers, P, P, spec, sigma)):
            _freeze(mat)
            operators[op] = mat
    m2l_cache = {key: operators[op] for key, op in builds.items()}

    def far_m2l(lv, b, s):
        mat = m2l_cache[m2l_key(lv, b, s)]
        return mat[::-1, ::-1] if b[0] < s[0] else mat

    def m2m_kernels(cell):
        # the preimage map reverses y, so the y offset flips sign
        return _child_kernels(operators, cell, k_s, P, tau_s, -tau_s * tau_t)

    def l2l_kernels(cell):
        return _child_kernels(operators, cell, k_t, P, tau_t)

    _far_field(
        tree, leaf_t, leaf_s, far, P, leaf_me, m2m_kernels, far_m2l, l2l_kernels,
        (k_t, tau_t), tgt_xy, out, tgt_idx,
    )


# ---------------------------------------------------------------------------
# same-layer free-space pass
# ---------------------------------------------------------------------------


def _free_space_pass(
    medium, layer, src_xy, src_q, tgt_xy, config, out, tgt_idx, operators
):
    k = medium.wavenumbers[layer]
    tree, leaf_t, leaf_s, near, far = _tree(tgt_xy, src_xy, config)

    # near field: direct Hankel sums
    for b, tl in leaf_t.items():
        src_boxes = [s for s in near[b] if s in leaf_s]
        if not src_boxes:
            continue
        sl = np.concatenate([leaf_s[s] for s in src_boxes])
        out[tgt_idx[tl]] += _hankel_sum(k, tgt_xy[tl], src_xy[sl], src_q[sl])

    P = _pass_order(k, tree, config)

    def leaf_me(b, j):
        return fs_me(src_xy[j], src_q[j], tree.center(b, tree.level), k, P).coeffs

    m2l_cache = {}

    def far_m2l(lv, b, s):
        key = (lv, b[0] - s[0], b[1] - s[1])
        if key not in m2l_cache:
            cb, cs = tree.center(b, lv), tree.center(s, lv)
            kern = _fs_m2l_kernel((cb[0] - cs[0], cb[1] - cs[1]), k, 2 * P - 2)
            m2l_cache[key] = _toeplitz(kern, P, P, -1)
        return m2l_cache[key]

    def l2l_kernels(cell):
        return _child_kernels(operators, cell, k, P)

    def m2m_kernels(cell):
        return {c: np.conj(kern) for c, kern in l2l_kernels(cell).items()}

    _far_field(
        tree, leaf_t, leaf_s, far, P, leaf_me, m2m_kernels, far_m2l, l2l_kernels,
        (k, 1.0), tgt_xy, out, tgt_idx,
    )


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def evaluate_all(medium, sources, targets, config=None):
    """Total field sum_j q_j G(x_i, x_j) at every target, FMM route.

    A target that coincides with a source gets no free-space term from
    it, so targets may be the sources themselves; the reaction terms are
    finite there (alpha + beta > 0) and are kept.

    The call builds its operators and drops them when it returns, so
    every call on the same inputs costs the same.  To apply one set of
    operators to many strength vectors on fixed points, use ``FmmPlan``.
    """
    return FmmPlan(medium, sources.xy, targets, config).evaluate(sources.q)


def _frozen_points(xy):
    xy = np.array(xy, dtype=float, ndmin=2)
    xy.flags.writeable = False
    return xy


class FmmPlan:
    """``evaluate_all`` for fixed source positions and targets.

    The first ``evaluate`` builds the operators of the points: layered
    M2L matrices keyed on (component, P, contour spec, exact center
    coordinates), frozen near-field rules keyed on (component, exact
    alpha/beta ranges, x range, rtol) and M2M/L2L shift kernels keyed on
    (child offset, wavenumber, order, tau).  A later ``evaluate`` with
    new strengths, as an iterative solver makes, builds none of them
    and returns bitwise what ``evaluate_all`` returns for those
    strengths.  The plan keeps copies of the points and its operators,
    all read-only, until it is dropped: about 2 MB at N = 2000 and
    eps = 1e-6 on a two-layer medium.

    Construction refuses (``DomainError``) targets and sources that share
    an interior layer: the operators do not take the pole their sigma
    has at that layer's branch point.  ``direct_sum`` takes them.
    """

    def __init__(self, medium, source_xy, targets, config=None):
        _require_pole_free(medium, ContourSpec())
        self.medium = medium
        self.source_xy = _frozen_points(source_xy)
        self.targets = _frozen_points(targets)
        self._t_layers = _layers_of_batch(medium, self.targets[:, 1])
        self._s_layers = _layers_of_batch(medium, self.source_xy[:, 1])
        for t in sorted(set(self._t_layers.tolist()) & set(self._s_layers.tolist())):
            cid = admissible_components(t, t, medium.n_interfaces)[0]
            if has_branch_pole(medium, cid):
                raise DomainError(
                    f"the fast evaluator cannot take {cid}: targets and sources "
                    f"share interior layer {t}, whose sigma has a pole at the "
                    f"branch point k_{t}; use direct_sum"
                )
        self.config = config or FmmConfig()
        self._operators = {}

    def evaluate(self, strengths):
        """Total field at the targets for these source strengths."""
        medium, config, targets = self.medium, self.config, self.targets
        sources = SourceSet(self.source_xy, strengths)
        t_layers, s_layers = self._t_layers, self._s_layers
        out = np.zeros(targets.shape[0], dtype=complex)
        L = medium.n_interfaces
        for t in sorted(set(t_layers.tolist())):
            tgt_sel = np.nonzero(t_layers == t)[0]
            for s in sorted(set(s_layers.tolist())):
                src_sel = np.nonzero(s_layers == s)[0]
                points = (sources.xy[src_sel], sources.q[src_sel], targets[tgt_sel])
                for cid in admissible_components(t, s, L):
                    _reaction_pass(
                        medium, cid, *points, config, out, tgt_sel, self._operators
                    )
                if s == t:
                    _free_space_pass(
                        medium, t, *points, config, out, tgt_sel, self._operators
                    )
        return out


def direct_sum(medium, sources, targets, rtol=1e-8):
    """Reference sum: the FMM near field over one box holding every point.

    Each reaction component is one frozen rule over the whole cloud in
    separable form (``source_moments``, then ``eval_moments``), which
    costs O((n_t + n_s) * nodes); the same-layer free-space part is the
    direct Hankel sum, O(n_t * n_s).  Arrays are built in row blocks of
    about 200,000 entries.
    A component whose sigma has a pole at a branch point (targets and
    sources in one interior layer) is summed pair by pair through
    ``evaluate_component`` instead.
    Like ``evaluate_all``, a zero-distance source/target pair contributes
    no free-space term; its reaction terms are kept.
    """
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
            x_lo = min(np.min(txy[:, 0]), np.min(sxy[:, 0]))
            x_hi = max(np.max(txy[:, 0]), np.max(sxy[:, 0]))
            # abscissae from the middle of the x span keep lam * x small
            x_ref = 0.5 * (x_lo + x_hi)
            for cid in admissible_components(t, s, L):
                if has_branch_pole(medium, cid):
                    out[tgt_sel] += _pointwise_sum(medium, cid, txy, sxy, sq, rtol)
                    continue
                d_t = relevant_interface(medium, cid.t, cid.dir_t)
                d_s = relevant_interface(medium, cid.s, cid.dir_s)
                alphas = cid.dir_t.tau * (txy[:, 1] - d_t)
                betas = cid.dir_s.tau * (sxy[:, 1] - d_s)
                a_range = (float(alphas.min()), float(alphas.max()))
                b_range = (float(betas.min()), float(betas.max()))
                x_span = float(x_hi - x_lo)
                rule = FrozenComponentRule(medium, cid, a_range, b_range, x_span, rtol)
                C = S = 0.0
                for j in _row_blocks(sxy.shape[0], rule.n_nodes):
                    c_j, s_j = rule.source_moments(betas[j], sxy[j, 0] - x_ref, sq[j])
                    C, S = C + c_j, S + s_j
                for i in _row_blocks(txy.shape[0], rule.n_nodes):
                    out[tgt_sel[i]] += rule.eval_moments(
                        alphas[i], txy[i, 0] - x_ref, C, S
                    )
            if s == t:
                k = medium.wavenumbers[t]
                for i in _row_blocks(txy.shape[0], sxy.shape[0]):
                    out[tgt_sel[i]] += _hankel_sum(k, txy[i], sxy, sq)
    return out


def _row_blocks(n_rows, n_cols):
    """Row slices whose (rows, n_cols) arrays hold about 200,000 entries."""
    step = 200_000 // max(n_cols, 1) + 1
    return [slice(i0, i0 + step) for i0 in range(0, n_rows, step)]


def _hankel_sum(k, txy, sxy, q):
    """sum_j q_j (i/4) H_0(k |x_i - x_j|) at every x_i; r = 0 adds nothing."""
    d = txy[:, None, :] - sxy[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    vals = 0.25j * _sp.hankel1(0, k * r)
    vals[r == 0.0] = 0.0
    return (q[None, :] * vals).sum(axis=1)


def _pointwise_sum(medium, cid, txy, sxy, q, rtol):
    """Sum over sources of one component, pair by pair, at every target.

    For components with a pole at a branch point (``has_branch_pole``),
    which the frozen rule cannot take: each pair is an
    ``evaluate_component`` principal value.
    """
    spec = ContourSpec(rtol=rtol)
    return np.array(
        [
            sum(
                qj * evaluate_component(medium, cid, tuple(x), tuple(xp), spec)
                for xp, qj in zip(sxy, q)
            )
            for x in txy
        ],
        dtype=complex,
    )


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
