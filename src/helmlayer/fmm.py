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
generating-function shifts.  These and the leaf LE evaluation are
``expansions`` builders, which the FMM only composes.

The translation matrices depend only on the (quantized) image-frame
offset between box centers, so each level needs a few dozen spectral
quadratures regardless of N.  The interaction lists of every level
depend only on the tree, so a pass lists them first (each level once)
and builds all its matrices in one lockstep family
(``expansions.m2l_family``): the quadratures refine independently, with
the panels a build of their own takes, while each round evaluates the
new panels of all of them in chunked integrand calls.  They share a
``SigmaMemo``: each call solves the interface system in one go for the
node arrays of its chunk that no earlier call met, so matrices that
start from the same panels, or run on the same (H, X) contour, never
solve an array twice.  The memo goes when the build is done.  A matrix
is bitwise what ``m2l`` builds for its pair alone.
Near-field interactions go through a frozen composite rule that shares
one interface solve per node across every pair, in separable form:
per-node moments of each source leaf about its column, turned to each
target box's column and applied to its points.  The rule adapts on five
probe geometries, run as one lockstep family like the M2L matrices.
Every operator integrates [0, k_split] on one path below the real axis
(``quadrature.below_axis_path``), so guided media and targets and
sources sharing an interior layer take the same route.  The same-layer free-space
part is a second pass with Graf's addition theorem as its operators
and direct Hankel sums in its near field; a target that coincides with
a source gets no free-space term from it (the reaction terms stay
finite there and are kept).

None of the operators depends on the source strengths, so a pass is a
fixed object built from the points: ``_reaction_pass`` and
``_free_space_pass`` build the tree, interaction lists, near-field rule,
M2L matrices and M2M/L2L shift matrices of their pass (read-only
arrays), apply them to the strengths they are given and return an
``apply(q, out, idx)`` that builds nothing.  ``FmmPlan`` keeps those
applies, so a later ``evaluate`` with new strengths, as an iterative
solver makes, only runs them; ``evaluate_all`` drops each pass as soon
as it has been applied, so every call on the same inputs costs the
same.  Shift matrices are built for the canonical child offsets (+-1/2
cell on each axis), so each level of a pass needs four M2M and four L2L
matrices.  Every M2M, L2L and M2L is applied as one matrix-vector
product per box.

Passes are evaluated in sorted box order with plain accumulation, so
outputs are bitwise reproducible for a fixed BLAS thread count.  A
different thread count may reorder the reductions inside BLAS calls and
move results in the last bits (about 1e-16 relative).
"""

import math
import time
from collections import deque
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
from .quadrature import ContourSpec, FrozenComponentRule, SigmaMemo
from .expansions import (
    MAX_SHIFT_ORDER,
    choose_truncation,
    fs_m2l_matrix,
    fs_me,
    local_values,
    m2l_family as m2l,  # builds all the M2L matrices of a pass in one call
    me_coeffs,
    shift_matrix,
)


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
    leaf_size: int = 20

    def __post_init__(self):
        if not 1e-12 <= self.eps <= 1e-2:
            raise ValidationError("target tolerance must lie in [1e-12, 1e-2]")
        if not self.c0 > 1:
            raise ValidationError("c0 must exceed 1")


def _points(xy, what):
    """xy as a new float (n, 2) array; ValidationError unless finite (n, 2)."""
    xy = np.array(xy, dtype=float, ndmin=2)
    if xy.ndim != 2 or xy.shape[1] != 2 or not np.isfinite(xy).all():
        raise ValidationError(f"{what} need a finite (n, 2) array of points")
    return xy


@dataclass(frozen=True)
class SourceSet:
    """Point sources with strengths."""

    xy: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        xy = _points(self.xy, "sources")
        q = np.atleast_1d(np.asarray(self.q, dtype=complex))
        if q.shape != (xy.shape[0],) or not np.isfinite(q).all():
            raise ValidationError("sources need finite strengths, one per point")
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


def _layer_pairs(medium, tgt_xy, src_xy):
    """(t, s, tgt_sel, src_sel) for every layer t holding targets and s
    holding sources, in sorted order; tgt_sel and src_sel index the
    points of those layers."""
    depths = np.asarray(medium.interface_depths)
    layers = []
    for xy in (tgt_xy, src_xy):
        if np.any(np.isin(xy[:, 1], depths)):
            raise DomainError("a point sits exactly on an interface")
        layers.append(np.sum(xy[:, 1, None] < depths[None, :], axis=1))
    t_layers, s_layers = layers
    return [
        (t, s, np.nonzero(t_layers == t)[0], np.nonzero(s_layers == s)[0])
        for t in sorted(set(t_layers.tolist()))
        for s in sorted(set(s_layers.tolist()))
    ]


def _freeze(value):
    """value, with its arrays made read-only."""
    if isinstance(value, np.ndarray):
        arrays = [value]
    else:
        arrays = [a for a in vars(value).values() if isinstance(a, np.ndarray)]
    for a in arrays:
        a.flags.writeable = False
    return value


def _child_shifts(cell, P, sign, frame):
    """Read-only ``shift_matrix`` of order P from each child to its parent's center.

    A child center sits ((cx - 1/2) cell, (cy - 1/2) cell) from its
    parent's, cell being the child level's box side.  frame = (k, tau,
    flip) is the expansions' wavenumber and orientation, and flip = -1
    mirrors the y offset, as the preimage frame of a reaction M2M does.
    sign +1 gives the M2M matrices, sign -1 the L2L ones.
    """
    k, tau, flip = frame
    out = {}
    for cx in (0, 1):
        for cy in (0, 1):
            v = (float((cx - 0.5) * cell), float(flip * (cy - 0.5) * cell))
            out[cx, cy] = _freeze(shift_matrix(v, k, P, P, sign, tau))
    return out


# ---------------------------------------------------------------------------
# pass skeleton
# ---------------------------------------------------------------------------


# Deepest tree level: ceil(log4(points / leaf_size)), capped here
_MAX_LEVEL = 8


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
        2, min(_MAX_LEVEL, math.ceil(math.log(max(cloud.shape[0], 4) / config.leaf_size, 4)))
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
    1e-10, unless the onset term ceil(e k rho_geom) binds.  P above
    ``MAX_SHIFT_ORDER``, the highest order the shift and free-space M2L
    builders take, raises DomainError.
    """
    n_near = near_radius(config.c0)
    ratio = math.sqrt(0.5) / (n_near + 1 - math.sqrt(0.5))
    rho_geom = 0.35 * tree.cell_at(2) * (n_near + 2)
    P = choose_truncation(
        ratio, config.eps, k, rho_geom, C_safe=_ORDER_PREFACTOR, P_min=8, c0=config.c0
    )
    if P > MAX_SHIFT_ORDER:
        raise DomainError(
            f"target tolerance needs order {P} > maximum {MAX_SHIFT_ORDER}"
        )
    return P


def _far_field(tree, leaf_t, far, P, far_m2l, me_frame, le_frame, tgt_xy):
    """Upward pass, M2L and downward pass of one pass, as an apply.

    The boxes and lists are those of ``_tree``, and far_m2l(lv, b, s)
    looks up the M2L matrix from source box s to target box b at level
    lv.  me_frame and le_frame are the (k, tau, y-flip) of the ME and LE
    bases (see ``_child_shifts``): the M2M matrices are built here in
    the first, the L2L matrices and the leaf LE evaluation
    (``local_values``) in the second.  The returned apply(leaf_me, out,
    tgt_idx) takes the leaf MEs (source leaf box -> coefficients), runs
    the passes and adds the leaf LEs at the targets into out; it builds
    nothing.
    """
    level = tree.level
    up = {lv: _child_shifts(tree.cell_at(lv + 1), P, 1, me_frame) for lv in range(2, level)}
    down = {lv: _child_shifts(tree.cell_at(lv + 1), P, -1, le_frame) for lv in range(2, level)}
    k, tau, _ = le_frame

    def apply(leaf_me, out, tgt_idx):
        me_by_level = {level: leaf_me}
        for lv in range(level - 1, 1, -1):
            me_by_level[lv] = {}
            for b, coeffs in sorted(me_by_level[lv + 1].items()):
                parent = (b[0] >> 1, b[1] >> 1)
                acc = me_by_level[lv].setdefault(
                    parent, np.zeros(2 * P - 1, dtype=complex)
                )
                acc += up[lv][b[0] & 1, b[1] & 1] @ coeffs

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
                le_prev = {}
                for b, coeffs in le_now.items():
                    for (cx, cy), shift in down[lv].items():
                        le_prev[2 * b[0] + cx, 2 * b[1] + cy] = shift @ coeffs

        for b, idx in leaf_t.items():
            if np.any(np.abs(le_now[b])):
                out[tgt_idx[idx]] += local_values(
                    le_now[b], tree.center(b, level), tgt_xy[idx], k, tau
                )

    return apply


# ---------------------------------------------------------------------------
# reaction-component pass
# ---------------------------------------------------------------------------


def _reaction_pass(medium, cid, src_xy, src_q, tgt_xy, config, out, tgt_idx):
    """Pass of one reaction component: built from the points, applied to
    src_q into out[tgt_idx], and returned as an apply(src_q, out, tgt_idx)
    that builds nothing."""
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
    rule = _freeze(
        FrozenComponentRule(medium, cid, a_range, b_range, x_near, rtol=config.eps * 5e-2)
    )

    # near field, separable in x: a source leaf is folded into per-node
    # moments (C, S) about its column's center line, turned once to each
    # column it is near, and a target box applies the sum of its near
    # leaves' moments to its points.  Abscissae stay within half a cell,
    # so |cos(lam x)| stays near 1 on the rule's complex path nodes
    # however wide the tree is
    def center_x(box):
        return tree.origin[0] + (box[0] + 0.5) * tree.cell

    n_near = near_radius(config.c0)
    turns = {dx: rule.turn(dx * tree.cell) for dx in range(-n_near, n_near + 1) if dx}
    near_src = {b: [(s, s[0] - b[0]) for s in near[b] if s in leaf_s] for b in leaf_t}

    P = _pass_order(k_s, tree, config)
    # multipole coefficients are taken about the preimage of a leaf center
    me_centers = {
        b: polarization_preimage(medium, cid, tree.center(b, tree.level)) for b in leaf_s
    }

    # For equal wavenumbers an M2L matrix depends only on the image-frame
    # offset; across a wavenumber contrast h_t and h_s enter separately,
    # so the key also carries both rows (far pairs with distinct layers
    # hug the interface, keeping the number of distinct keys per level
    # O(1) either way).
    same_k = k_t == k_s

    def m2l_key(lv, b, s):
        dix = b[0] - s[0]
        return (lv, abs(dix), b[1] - s[1]) if same_k else (lv, abs(dix), b[1], s[1])

    # the centers of the first far pair (by level, target box, source
    # box) of every key; all matrices are built as one lockstep family
    centers = {}
    for lv, far_lv in far.items():
        for b, far_b in far_lv.items():
            for s in far_b:
                key = m2l_key(lv, b, s)
                if key in centers:
                    continue
                x_cl = tree.center(b, lv)
                x_c = polarization_preimage(medium, cid, tree.center(s, lv))
                if b[0] < s[0]:
                    # build the mirrored-offset matrix; evenness in lambda
                    # gives A(-X) = A(X) with both order axes reversed, so
                    # one quadrature serves both signs
                    x_c = (2 * x_cl[0] - x_c[0], x_c[1])
                centers[key] = (x_cl, x_c)
    spec = ContourSpec(rtol=max(config.eps * 1e-2, 2e-11))
    mats = m2l(medium, cid, list(centers.values()), P, P, spec, SigmaMemo(medium, cid))
    m2l_mats = {key: _freeze(mat) for key, mat in zip(centers, mats)}

    def far_m2l(lv, b, s):
        mat = m2l_mats[m2l_key(lv, b, s)]
        return mat[::-1, ::-1] if b[0] < s[0] else mat

    # the preimage map reverses y, so the M2M frame's y offset flips sign
    far_field = _far_field(
        tree, leaf_t, far, P, far_m2l, (k_s, tau_s, -tau_s * tau_t), (k_t, tau_t, 1.0), tgt_xy
    )

    def apply(src_q, out, tgt_idx):
        moments = {}

        def leaf_moments(s, dx):
            # about the center line of the column dx cells before leaf s's
            if (s, 0) not in moments:
                j = leaf_s[s]
                moments[s, 0] = rule.source_moments(
                    betas[j], src_xy[j, 0] - center_x(s), src_q[j]
                )
            if (s, dx) not in moments:
                (C, S), (cos, sin) = moments[s, 0], turns[dx]
                moments[s, dx] = (C * cos - S * sin, S * cos + C * sin)
            return moments[s, dx]

        for b, near_b in near_src.items():
            near_moments = [leaf_moments(s, dx) for s, dx in near_b]
            if not near_moments:
                continue
            C = sum(m[0] for m in near_moments)
            S = sum(m[1] for m in near_moments)
            tl = leaf_t[b]
            out[tgt_idx[tl]] += rule.eval_moments(
                alphas[tl], tgt_xy[tl, 0] - center_x(b), C, S
            )

        leaf_me = {
            b: me_coeffs(medium, cid, me_centers[b], src_xy[j], src_q[j], P).coeffs
            for b, j in leaf_s.items()
        }
        far_field(leaf_me, out, tgt_idx)

    apply(src_q, out, tgt_idx)
    return apply


# ---------------------------------------------------------------------------
# same-layer free-space pass
# ---------------------------------------------------------------------------


def _free_space_pass(medium, layer, src_xy, src_q, tgt_xy, config, out, tgt_idx):
    """Free-space pass of one layer: built from the points, applied
    like ``_reaction_pass``'s and returned as its apply."""
    k = medium.wavenumbers[layer]
    tree, leaf_t, leaf_s, near, far = _tree(tgt_xy, src_xy, config)

    # near field: direct Hankel sums over the points of the near leaves
    near_src = []
    for b, tl in leaf_t.items():
        src_boxes = [s for s in near[b] if s in leaf_s]
        if src_boxes:
            near_src.append((tl, np.concatenate([leaf_s[s] for s in src_boxes])))

    P = _pass_order(k, tree, config)

    # one matrix per box offset of a level, from the first far pair that
    # has it
    m2l_mats = {}
    for lv, far_lv in far.items():
        for b, far_b in far_lv.items():
            for s in far_b:
                key = (lv, b[0] - s[0], b[1] - s[1])
                if key not in m2l_mats:
                    cb, cs = tree.center(b, lv), tree.center(s, lv)
                    m2l_mats[key] = _freeze(
                        fs_m2l_matrix((cb[0] - cs[0], cb[1] - cs[1]), k, P, P)
                    )

    def far_m2l(lv, b, s):
        return m2l_mats[lv, b[0] - s[0], b[1] - s[1]]

    # the ME basis is the conjugate-phase (tau = -1) regular wave
    far_field = _far_field(tree, leaf_t, far, P, far_m2l, (k, -1.0, 1.0), (k, 1.0, 1.0), tgt_xy)

    def apply(src_q, out, tgt_idx):
        for tl, sl in near_src:
            out[tgt_idx[tl]] += _hankel_sum(k, tgt_xy[tl], src_xy[sl], src_q[sl])
        leaf_me = {
            b: fs_me(src_xy[j], src_q[j], tree.center(b, tree.level), k, P).coeffs
            for b, j in leaf_s.items()
        }
        far_field(leaf_me, out, tgt_idx)

    apply(src_q, out, tgt_idx)
    return apply


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def evaluate_all(medium, sources, targets, config=None):
    """Total field sum_j q_j G(x_i, x_j) at every target, FMM route.

    A target that coincides with a source gets no free-space term from
    it, so targets may be the sources themselves; the reaction terms are
    finite there (alpha + beta > 0) and are kept.

    Each pass is dropped once applied, so every call on the same inputs
    costs the same.  To apply the passes to many strength vectors on
    fixed points, use ``FmmPlan``.
    """
    plan = FmmPlan(medium, sources.xy, targets, config)
    out = np.zeros(plan.targets.shape[0], dtype=complex)
    # consume the passes without holding one past its use
    deque(plan._passes_of(sources.q, out), maxlen=0)
    return out


class FmmPlan:
    """``evaluate_all`` for fixed source positions and targets.

    Every pass of the FMM depends on the points alone.  The first
    ``evaluate`` builds each pass (its tree, interaction lists,
    near-field rule, M2L matrices and M2M/L2L shift matrices, all
    read-only) and applies it; the plan keeps each pass's apply, so a
    later ``evaluate`` with new strengths, as an iterative solver makes,
    builds none of them and returns bitwise what ``evaluate_all``
    returns for those strengths.  The plan keeps read-only copies of the
    points and its passes until it is dropped: about 6.7 MB at N = 2000
    and eps = 1e-6 on a two-layer medium, of which 2.0 MB are layered
    M2L matrices, 1.9 MB free-space M2L matrices and 0.7 MB shift
    matrices (tracemalloc, after the first ``evaluate``).

    Every medium is taken, guided ones included: the operators integrate
    on ``quadrature.below_axis_path``, which passes below the surface-wave
    poles.  Where targets and sources share an interior layer, each of
    the layer's four reaction components is its lossy limit, the
    principal value that ``evaluate_component`` returns plus
    i pi R_c E(k_t); those terms cancel in the sum of the four passes,
    so the total is G's.
    """

    def __init__(self, medium, source_xy, targets, config=None):
        self.medium = medium
        self.source_xy = _freeze(_points(source_xy, "sources"))
        self.targets = _freeze(_points(targets, "targets"))
        self.config = config or FmmConfig()
        self._pairs = _layer_pairs(medium, self.targets, self.source_xy)
        self._passes = None

    def evaluate(self, strengths):
        """Total field at the targets for these source strengths."""
        q = SourceSet(self.source_xy, strengths).q
        out = np.zeros(self.targets.shape[0], dtype=complex)
        if self._passes is None:
            self._passes = list(self._passes_of(q, out))
        else:
            for tgt_sel, src_sel, apply in self._passes:
                apply(q[src_sel], out, tgt_sel)
        return out

    def _passes_of(self, q, out):
        """Build every pass in turn, apply it to q into out, and yield
        (tgt_sel, src_sel, apply)."""
        medium, config = self.medium, self.config
        for t, s, tgt_sel, src_sel in self._pairs:
            points = (self.source_xy[src_sel], q[src_sel], self.targets[tgt_sel])
            for cid in admissible_components(t, s, medium.n_interfaces):
                yield tgt_sel, src_sel, _reaction_pass(
                    medium, cid, *points, config, out, tgt_sel
                )
            if s == t:
                yield tgt_sel, src_sel, _free_space_pass(
                    medium, t, *points, config, out, tgt_sel
                )


def direct_sum(medium, sources, targets, rtol=1e-8):
    """Reference sum: the FMM near field over one box holding every point.

    Each reaction component is one frozen rule over the whole cloud in
    separable form (``source_moments``, then ``eval_moments``), which
    costs O((n_t + n_s) * nodes); the same-layer free-space part is the
    direct Hankel sum, O(n_t * n_s).  Arrays are built in row blocks of
    about 200,000 entries.
    Every medium is taken: on a guided medium and where targets and
    sources share an interior layer the rules are those of ``FmmPlan``'s
    near field, so each component there is its lossy limit and the
    plane-wave terms i pi R_c E(k_t) cancel in the sum.
    Like ``evaluate_all``, a zero-distance source/target pair contributes
    no free-space term; its reaction terms are kept.
    """
    targets = _points(targets, "targets")
    out = np.zeros(targets.shape[0], dtype=complex)
    for t, s, tgt_sel, src_sel in _layer_pairs(medium, targets, sources.xy):
        txy = targets[tgt_sel]
        sxy = sources.xy[src_sel]
        sq = sources.q[src_sel]
        x_lo = min(np.min(txy[:, 0]), np.min(sxy[:, 0]))
        x_hi = max(np.max(txy[:, 0]), np.max(sxy[:, 0]))
        # abscissae from the middle of the x span keep lam * x small
        x_ref = 0.5 * (x_lo + x_hi)
        for cid in admissible_components(t, s, medium.n_interfaces):
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
