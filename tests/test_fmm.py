import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmlayer
from helmlayer import expansions, fmm, quadrature
from helmlayer.errors import DomainError, ValidationError
from helmlayer.medium import (
    Dir,
    ReactionComponentId,
    acoustic,
    admissible_components,
    polarization_image_batch,
    relevant_interface,
)
from helmlayer.quadrature import ContourSpec, FrozenComponentRule, green
from helmlayer.fmm import (
    FmmConfig,
    FmmPlan,
    QuadTree,
    SourceSet,
    direct_sum,
    evaluate_all,
    fitted_scaling_exponent,
    interaction_lists,
    near_radius,
    random_two_layer_cloud,
)

TWO_LAYER = acoustic((0.0,), (1.0, 1.5))
# guided: the slab's surface-wave poles lie on the real axis
SLAB = acoustic((0.0, -1.0), (1.0, 2.0, 1.0))
# pole-free: the wavenumber grows downward, so no layer guides a mode
THREE_LAYER = acoustic((0.0, -1.0), (1.0, 1.5, 2.0))


def near_interface_cloud(n, rng, gap=0.02, half_width=2.0):
    """Half of the points on each side of the interface, the closest at gap."""

    def side(m, sign):
        ys = sign * (gap + rng.uniform(0.0, 1.0, m))
        ys[0] = sign * gap
        return np.column_stack([rng.uniform(-half_width, half_width, m), ys])

    src = np.vstack([side(n // 2, 1.0), side(n - n // 2, -1.0)])
    tgt = np.vstack([side(n // 2, 1.0), side(n - n // 2, -1.0)])
    return SourceSet(src, rng.uniform(0.5, 1.5, n)), tgt


def guided_cloud(case, seed=85, n=150):
    """(medium, sources, targets) of n points each, 0.05 or more from every
    interface: on the slab, a third in each layer; on the three-layer
    medium, all in the middle layer."""
    rng = np.random.default_rng(seed)
    bands = {"slab": [(0.05, 1.0), (-0.95, -0.05), (-2.0, -1.05)], "middle": [(-0.95, -0.05)]}
    medium = {"slab": SLAB, "middle": THREE_LAYER}[case]

    def points():
        m = n // len(bands[case])
        return np.vstack(
            [np.column_stack([rng.uniform(-1.5, 1.5, m), rng.uniform(lo, hi, m)])
             for lo, hi in bands[case]]
        )

    return medium, SourceSet(points(), rng.uniform(0.5, 1.5, n)), points()


class TestConfig:
    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            FmmConfig(eps=1e-1)
        with pytest.raises(ValidationError):
            FmmConfig(c0=0.5)

    def test_sources_validation(self):
        with pytest.raises(ValidationError):
            SourceSet(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize(
        "xy, q",
        [
            (np.zeros((3, 3)), np.zeros(3)),
            ([[0.0, np.nan]], [1.0]),
            ([[np.inf, 0.5]], [1.0]),
            ([[0.0, 0.5]], [np.nan]),
            ([[0.0, 0.5]], [[1.0]]),
        ],
        ids=["columns", "nan_point", "inf_point", "nan_strength", "strength_shape"],
    )
    def test_sources_must_be_finite_n_by_2(self, xy, q):
        with pytest.raises(ValidationError):
            SourceSet(xy, q)


class TestPointValidation:
    # points from outside are checked once, before any tree is built
    SOURCES = SourceSet([[0.1, 0.5], [-0.3, -0.4]], [1.0, 2.0])
    ENTRIES = {
        "evaluate_all": lambda src, tgt: evaluate_all(TWO_LAYER, src, tgt),
        "plan": lambda src, tgt: FmmPlan(TWO_LAYER, src.xy, tgt).evaluate(src.q),
        "direct_sum": lambda src, tgt: direct_sum(TWO_LAYER, src, tgt),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize(
        "targets",
        [[[0.2, np.nan], [0.1, 0.3]], [[np.inf, 0.3]], np.full((2, 3), 0.5), np.full((2, 2, 2), 0.5)],
        ids=["nan", "inf", "three_columns", "three_axes"],
    )
    def test_bad_targets_raise_validation_error(self, entry, targets):
        with pytest.raises(ValidationError):
            self.ENTRIES[entry](self.SOURCES, targets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_plan_checks_its_source_points_and_strengths(self, bad):
        with pytest.raises(ValidationError):
            FmmPlan(TWO_LAYER, [[0.1, bad]], [[0.2, 0.3]])
        plan = FmmPlan(TWO_LAYER, self.SOURCES.xy, [[0.2, 0.3]])
        with pytest.raises(ValidationError):
            plan.evaluate([1.0, bad])


class TestQuadTree:
    def test_every_point_in_one_leaf(self):
        rng = np.random.default_rng(60)
        pts = rng.uniform(-1, 1, (200, 2))
        tree = QuadTree(pts, 3)
        boxes = tree.boxes(np.arange(200), 3)
        seen = np.concatenate(list(boxes.values()))
        assert sorted(seen.tolist()) == list(range(200))

    def test_alignment_keeps_line_on_grid(self):
        rng = np.random.default_rng(61)
        pts = np.vstack(
            [
                np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(0.05, 1.5, 50)]),
                np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(-1.5, -0.05, 50)]),
            ]
        )
        tree = QuadTree(pts, 4, align_y=0.0)
        for lv in (2, 3, 4):
            cell = tree.cell_at(lv)
            frac = (0.0 - tree.origin[1]) / cell
            assert abs(frac - round(frac)) < 1e-9
        # no box at any level mixes points from both sides
        for lv in (2, 3, 4):
            for b, idx in tree.boxes(np.arange(100), lv).items():
                signs = np.sign(pts[idx, 1])
                assert np.all(signs == signs[0])

    def test_box_side_halves_per_level(self):
        pts = np.random.default_rng(62).uniform(0, 1, (50, 2))
        tree = QuadTree(pts, 4)
        assert tree.cell_at(3) == pytest.approx(2 * tree.cell_at(4))


class TestInteractionLists:
    def test_two_widths_apart_is_near_three_is_far(self):
        # with c0=2 the rule needs three box widths of separation
        boxes = {(i, 0): None for i in range(8)}
        near, far = interaction_lists(boxes.keys(), boxes.keys(), 2.0)
        assert (2, 0) in near[(0, 0)]
        assert (2, 0) not in far[(0, 0)]
        assert (3, 0) in far[(0, 0)]

    def test_adjacent_is_near(self):
        boxes = {(0, 0): None, (1, 1): None}
        near, far = interaction_lists(boxes.keys(), boxes.keys(), 2.0)
        assert (1, 1) in near[(0, 0)]

    def test_partition_property(self):
        # every (target, source) pair lands in exactly one of leaf-near
        # or far-at-some-level
        cid = ReactionComponentId(0, 0, Dir.UP, Dir.UP)
        rng = np.random.default_rng(63)
        n = 120
        tgt = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(0.1, 1.8, n)])
        src = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(0.1, 1.8, n)])
        img = polarization_image_batch(TWO_LAYER, cid, src)
        cloud = np.vstack([tgt, img])
        level = 4
        tree = QuadTree(cloud, level, align_y=0.0)
        tl = np.arange(n)
        sl = np.arange(n, 2 * n)
        count = np.zeros((n, n), dtype=int)
        leaf_t = tree.boxes(tl, level)
        leaf_s = tree.boxes(sl, level)
        near, _ = interaction_lists(leaf_t.keys(), leaf_s.keys(), 2.0)
        for b in leaf_t:
            for s in near[b]:
                if s in leaf_s:
                    count[np.ix_(leaf_t[b], leaf_s[s] - n)] += 1
        for lv in range(2, level + 1):
            tgt_lv = tree.boxes(tl, lv)
            src_lv = tree.boxes(sl, lv)
            _, far = interaction_lists(tgt_lv.keys(), src_lv.keys(), 2.0)
            for b in tgt_lv:
                for s in far[b]:
                    count[np.ix_(tgt_lv[b], src_lv[s] - n)] += 1
        assert np.all(count == 1)

    @pytest.mark.parametrize("c0", [1.0, 2.0, 4.0])
    def test_match_the_all_pairs_scan(self, c0):
        # the neighbourhood scan must list exactly what scanning every
        # source box lists, at every level of a real tree
        n_near = near_radius(c0)

        def all_pairs(tgt_boxes, src_boxes):
            near, far = {}, {}
            for b in tgt_boxes:
                pb = (b[0] >> 1, b[1] >> 1)
                near[b] = sorted(
                    s for s in src_boxes
                    if max(abs(s[0] - b[0]), abs(s[1] - b[1])) <= n_near
                )
                far[b] = sorted(
                    s for s in src_boxes
                    if max(abs(s[0] - b[0]), abs(s[1] - b[1])) > n_near
                    and max(abs((s[0] >> 1) - pb[0]), abs((s[1] >> 1) - pb[1]))
                    <= n_near
                )
            return near, far

        cid = ReactionComponentId(0, 0, Dir.UP, Dir.UP)
        rng = np.random.default_rng(64)
        n = 400
        tgt = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(0.1, 1.8, n)])
        src = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(0.1, 1.8, n)])
        img = polarization_image_batch(TWO_LAYER, cid, src)
        tree = QuadTree(np.vstack([tgt, img]), 5, align_y=0.0)
        for lv in range(2, 6):
            tgt_lv = tree.boxes(np.arange(n), lv).keys()
            src_lv = tree.boxes(np.arange(n, 2 * n), lv).keys()
            assert interaction_lists(tgt_lv, src_lv, c0) == all_pairs(tgt_lv, src_lv)

    def test_far_separation_implies_polarized_distance(self):
        # box-level separation guarantees D > c0 * source box radius
        n = near_radius(2.0) + 1
        side = 1.0
        min_center_dist = n * side
        src_radius = math.sqrt(0.5) * side
        assert min_center_dist - src_radius > 2.0 * src_radius


class TestEquivalence:
    def test_two_sources_all_near(self):
        src = SourceSet(np.array([[0.2, 0.4], [-0.3, -0.6]]), np.array([1.0, 2.0]))
        tgt = np.array([[0.5, 0.8], [0.1, -0.9], [1.4, 0.2]])
        f = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-8))
        ref = np.array(
            [
                sum(
                    q * green(TWO_LAYER, tuple(x), tuple(s), ContourSpec(rtol=1e-11))
                    for s, q in zip(src.xy, src.q)
                )
                for x in tgt
            ]
        )
        assert np.max(np.abs(f - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_direct_sum_matches_green(self):
        rng = np.random.default_rng(64)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 5, rng)
        d = direct_sum(TWO_LAYER, src, tgt, rtol=1e-9)
        ref = np.array(
            [
                sum(
                    q * green(TWO_LAYER, tuple(x), tuple(s), ContourSpec(rtol=1e-11))
                    for s, q in zip(src.xy, src.q)
                )
                for x in tgt
            ]
        )
        assert np.max(np.abs(d - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_fmm_matches_direct_mixed_layers(self):
        rng = np.random.default_rng(65)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 250, rng)
        d = direct_sum(TWO_LAYER, src, tgt, rtol=1e-9)
        f = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6))
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < 1e-6

    def test_component_additivity(self):
        # summing per-component passes (what evaluate_all does) equals
        # componentwise direct evaluation at modest N
        rng = np.random.default_rng(66)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 100, rng)
        d = direct_sum(TWO_LAYER, src, tgt, rtol=1e-9)
        f = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-7))
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < 1e-7

    def test_determinism(self):
        rng = np.random.default_rng(67)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 150, rng)
        f1 = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6))
        f2 = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6))
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("case", ["slab", "middle"])
    def test_guided_and_shared_interior_layers_match_direct(self, case):
        # the slab with points in all three layers, and targets and
        # sources sharing the middle layer, where each component carries
        # a plane-wave term i pi R_c E(k_t) that cancels in the sum: the
        # error is within eps relative to G itself
        medium, src, tgt = guided_cloud(case)
        eps = 1e-6
        f = evaluate_all(medium, src, tgt, FmmConfig(eps=eps))
        d = direct_sum(medium, src, tgt, rtol=1e-8)
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < eps

    @pytest.mark.parametrize("case", ["slab", "middle"])
    def test_direct_sum_matches_pairwise_green_on_guided_and_shared_layers(self, case):
        medium, src, tgt = guided_cloud(case, seed=86)
        sub = SourceSet(src.xy[::6], src.q[::6])
        tgt = tgt[::37]
        rtol = 1e-8
        got = direct_sum(medium, sub, tgt, rtol=rtol)
        spec = ContourSpec(rtol=1e-10)
        want = np.array(
            [
                sum(q * green(medium, tuple(x), tuple(xp), spec) for xp, q in zip(sub.xy, sub.q))
                for x in tgt
            ]
        )
        assert len(tgt) == 5 and len(sub.q) == 25
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < rtol

    def test_three_layers_outer_layers_match_direct(self):
        # points in layers 0 and 2 only, at least 0.08 from each interface:
        # every pass reaches across one or both interfaces
        rng = np.random.default_rng(73)

        def outer_layers(m):
            top = np.column_stack(
                [rng.uniform(-1.5, 1.5, m), rng.uniform(0.08, 1.2, m)]
            )
            bottom = np.column_stack(
                [rng.uniform(-1.5, 1.5, m), rng.uniform(-2.2, -1.08, m)]
            )
            return np.vstack([top, bottom])

        src = SourceSet(outer_layers(50), rng.uniform(0.5, 1.5, 100))
        tgt = outer_layers(50)
        config = FmmConfig(eps=1e-6, leaf_size=10)
        f = evaluate_all(THREE_LAYER, src, tgt, config)
        d = direct_sum(THREE_LAYER, src, tgt, rtol=1e-9)
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < config.eps


class TestSeparableNearField:
    def test_moments_match_pairwise_per_component(self):
        # the FMM near field: moments of several source groups (leaves)
        # summed, then applied to the targets, against pairwise eval_batch;
        # on x in [-2, 2] and, as direct_sum's one box meets it, on x in
        # [-8, 8] with abscissae from the middle of the span
        rng = np.random.default_rng(68)
        clouds = [
            (near_interface_cloud(60, rng), 4.0, 0.3),
            (near_interface_cloud(40, rng, half_width=8.0), 16.0, 0.0),
        ]
        for (src, tgt), x_max, x_ref in clouds:
            self.check_moments(src, tgt, x_max, x_ref)

    @staticmethod
    def check_moments(src, tgt, x_max, x_ref):
        for t in (0, 1):
            txy = tgt[(tgt[:, 1] < 0.0) == bool(t)]
            for s in (0, 1):
                sel = (src.xy[:, 1] < 0.0) == bool(s)
                sxy, sq = src.xy[sel], src.q[sel]
                for cid in admissible_components(t, s, TWO_LAYER.n_interfaces):
                    d_t = relevant_interface(TWO_LAYER, t, cid.dir_t)
                    d_s = relevant_interface(TWO_LAYER, s, cid.dir_s)
                    alphas = cid.dir_t.tau * (txy[:, 1] - d_t)
                    betas = cid.dir_s.tau * (sxy[:, 1] - d_s)
                    rule = FrozenComponentRule(
                        TWO_LAYER,
                        cid,
                        (alphas.min(), alphas.max()),
                        (betas.min(), betas.max()),
                        x_max,
                        rtol=5e-8,
                    )
                    groups = np.array_split(np.argsort(sxy[:, 0]), 3)
                    parts = [
                        rule.source_moments(betas[g], sxy[g, 0] - x_ref, sq[g])
                        for g in groups
                    ]
                    C = sum(p[0] for p in parts)
                    S = sum(p[1] for p in parts)
                    sep = rule.eval_moments(alphas, txy[:, 0] - x_ref, C, S)
                    nt, ns = txy.shape[0], sxy.shape[0]
                    pair = rule.eval_batch(
                        np.repeat(alphas, ns),
                        np.tile(betas, nt),
                        (txy[:, 0][:, None] - sxy[:, 0][None, :]).ravel(),
                    ).reshape(nt, ns) @ sq
                    assert np.all(np.abs(sep - pair) <= 1e-13 * np.abs(pair))

    @pytest.mark.parametrize("medium", [TWO_LAYER, SLAB], ids=["two_layer", "slab"])
    def test_turned_moments_match_pairwise_far_from_the_origin(self, medium):
        # a leaf's moments about its own center line, turned to the center
        # line of a target column 1.5 away, 40 from x = 0: measured from 0
        # the path nodes' cos(lam x) would grow as e^{0.5 * 40}
        rng = np.random.default_rng(87)
        cid = ReactionComponentId(0, 0, Dir.UP, Dir.UP)
        rule = FrozenComponentRule(medium, cid, (0.05, 1.0), (0.05, 1.0), 2.0, rtol=5e-8)
        xs, xt = 40.0 + rng.uniform(-0.4, 0.4, 12), 41.5 + rng.uniform(-0.4, 0.4, 9)
        betas, alphas, q = rng.uniform(0.05, 1.0, 12), rng.uniform(0.05, 1.0, 9), rng.uniform(0.5, 1.5, 12)
        C, S = rule.source_moments(betas, xs - 40.0, q)
        cos, sin = rule.turn(-1.5)
        sep = rule.eval_moments(alphas, xt - 41.5, C * cos - S * sin, S * cos + C * sin)
        pair = rule.eval_batch(
            np.repeat(alphas, 12), np.tile(betas, 9), (xt[:, None] - xs[None, :]).ravel()
        ).reshape(9, 12) @ q
        assert np.all(np.abs(sep - pair) <= 1e-13 * np.abs(pair))

    def test_fmm_matches_direct_near_interface(self):
        rng = np.random.default_rng(69)
        src, tgt = near_interface_cloud(120, rng)
        config = FmmConfig(eps=1e-6)
        f = evaluate_all(TWO_LAYER, src, tgt, config)
        d = direct_sum(TWO_LAYER, src, tgt, rtol=1e-8)
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < config.eps


class TestSelfInteraction:
    def test_targets_equal_to_sources_match_direct_sum(self):
        rng = np.random.default_rng(71)
        src, _ = random_two_layer_cloud(TWO_LAYER, 200, rng)
        config = FmmConfig(eps=1e-6)
        f = evaluate_all(TWO_LAYER, src, src.xy, config)
        d = direct_sum(TWO_LAYER, src, src.xy, rtol=1e-8)
        assert np.all(np.isfinite(f))
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < config.eps

    def test_single_point_keeps_its_reaction_term(self):
        # the free-space part of a point on itself is dropped, the
        # reflected part is not
        src = SourceSet(np.array([[0.1, 0.3]]), np.array([1.0]))
        f = evaluate_all(TWO_LAYER, src, src.xy, FmmConfig(eps=1e-8))
        d = direct_sum(TWO_LAYER, src, src.xy, rtol=1e-10)
        assert d[0] != 0.0
        assert abs(f[0] - d[0]) < 1e-8 * abs(d[0])


LATTICE_GAP = 0.02  # lattice rows on the interface y = 0 stay this far from it


def corner_lattice(grid, lo, hi, delta=1e-3):
    """Points delta cells inside every leaf-box corner of grid, in box [lo, hi].

    lo and hi are points themselves, so the lattice spans that box.
    """
    axes = []
    for a in (0, 1):
        edges = grid.origin[a] + grid.cell * np.arange(2**grid.level + 1)
        v = np.concatenate([edges[:-1] + delta * grid.cell, edges[1:] - delta * grid.cell])
        axes.append(v[(v >= lo[a]) & (v <= hi[a])])
    ys = np.sign(axes[1]) * np.maximum(np.abs(axes[1]), LATTICE_GAP)
    xx, yy = np.meshgrid(axes[0], np.unique(ys))
    return np.vstack([np.column_stack([xx.ravel(), yy.ravel()]), [lo, hi]])


def on_own_grid(place, bounds, level, config, align_y=None):
    """place(grid) -> (targets, tree points) on the level-`level` grid over bounds.

    The points are what one pass builds its tree over (targets, and the
    images or sources), so the grid they sit on must be the one
    ``fmm._tree`` reports for them; that is checked.
    """
    grid = QuadTree(np.array(bounds, dtype=float), level, align_y=align_y)
    tgt, pts = place(grid)
    tree = fmm._tree(tgt, pts, config, align_y=align_y)[0]
    assert (tree.level, tree.origin, tree.side) == (level, grid.origin, grid.side)
    return tgt, pts


def lattice_case(name):
    """(sources, targets, config) of one corner-lattice cloud, span 4, level 4.

    Every target and tree point sits 1e-3 cell inside a leaf-box corner of
    one pass's grid, so every far pair of that pass has the geometry of
    its worst case.
    """
    upper = ((-2.0, LATTICE_GAP), (2.0, 2.0))
    lower = ((-2.0, -2.0), (2.0, -LATTICE_GAP))
    config = FmmConfig(leaf_size=5)
    if name == "reaction_t_eq_s":
        # u[00] tree over layer-0 targets and the images (x, -y) of
        # layer-0 sources: both lattices are one, so sources = targets
        def place(grid):
            up = corner_lattice(grid, *upper)
            return up, up * [1.0, -1.0]

        tgt, _ = on_own_grid(place, [(-2.0, -2.0), (2.0, 2.0)], 4, config, 0.0)
        src = tgt
    elif name == "reaction_t_ne_s":
        # layer-1 sources are their own images for the layer-0 targets
        def place(grid):
            return corner_lattice(grid, *upper), corner_lattice(grid, *lower)

        tgt, src = on_own_grid(place, [(-2.0, -2.0), (2.0, 2.0)], 4, config, 0.0)
    else:
        # free-space tree of the k = 1.5 layer, targets = sources
        config = FmmConfig()
        box = ((-2.0, -4.1), (2.0, -0.1))

        def place(grid):
            pts = corner_lattice(grid, *box)
            return pts, pts

        tgt, src = on_own_grid(place, box, 4, config)
    q = np.random.default_rng(3).uniform(0.5, 1.5, src.shape[0])
    return SourceSet(src, q), tgt, config


class TestCornerLattice:
    @pytest.mark.parametrize(
        "name", ["reaction_t_eq_s", "reaction_t_ne_s", "free_space_layer_1"]
    )
    def test_error_within_eps_in_l2_and_per_point(self, name):
        src, tgt, config = lattice_case(name)
        ref = direct_sum(TWO_LAYER, src, tgt, rtol=1e-10)
        for eps in (1e-4, 1e-6, 1e-8):
            f = evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=eps, leaf_size=config.leaf_size))
            assert np.linalg.norm(f - ref) <= eps * np.linalg.norm(ref)
            assert np.max(np.abs(f - ref)) <= eps * np.max(np.abs(ref))


def pass_orders(medium, src_xy, tgt, config):
    """P of every pass of FmmPlan.evaluate, in its order, from the trees alone."""
    orders = []
    for t, s, tgt_sel, src_sel in fmm._layer_pairs(medium, tgt, src_xy):
        txy, sxy = tgt[tgt_sel], src_xy[src_sel]
        for cid in admissible_components(t, s, medium.n_interfaces):
            images = polarization_image_batch(medium, cid, sxy)
            d_t = relevant_interface(medium, cid.t, cid.dir_t)
            tree = fmm._tree(txy, images, config, align_y=d_t)[0]
            orders.append(fmm._pass_order(medium.wavenumbers[s], tree, config))
        if s == t:
            tree = fmm._tree(txy, sxy, config)[0]
            orders.append(fmm._pass_order(medium.wavenumbers[t], tree, config))
    return orders


class TestTruncationOrder:
    # the benchmark's fmm_uniform cloud: N = 2000 from random_two_layer_cloud
    CLOUD = random_two_layer_cloud(TWO_LAYER, 2000, np.random.default_rng(8))

    def test_pass_orders_mirror_the_passes(self, monkeypatch):
        seen = []
        order = fmm._pass_order

        def recording(k, tree, config):
            seen.append(order(k, tree, config))
            return seen[-1]

        monkeypatch.setattr(fmm, "_pass_order", recording)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, np.random.default_rng(9))
        config = FmmConfig(eps=1e-4)
        evaluate_all(TWO_LAYER, src, tgt, config)
        monkeypatch.undo()
        assert seen == pass_orders(TWO_LAYER, src.xy, tgt, config)

    @pytest.mark.parametrize(
        "wavenumbers, want",
        [
            # geometric term: 8, 11, 15, 19 at c0 = 2 (ratio 0.308)
            ((1.0, 1.5), {1e-4: [8] * 6, 1e-6: [11] * 6, 1e-8: [15] * 6, 1e-10: [19] * 6}),
            # onset term ceil(e k rho_geom) binds: 16 and 24 on the
            # reaction trees (k_s = 3, 4.5), 13 and 20 on the smaller
            # free-space trees, until the geometric term passes them
            (
                (3.0, 4.5),
                {
                    1e-4: [16, 13, 24, 16, 24, 20],
                    1e-6: [16, 13, 24, 16, 24, 20],
                    1e-8: [16, 15, 24, 16, 24, 20],
                    1e-10: [19, 19, 24, 19, 24, 20],
                },
            ),
        ],
        ids=["benchmark_medium", "larger_k"],
    )
    def test_pinned_orders_on_the_benchmark_cloud(self, wavenumbers, want):
        # passes in FmmPlan.evaluate order: u[00], free space in layer 0,
        # u[01], u[10], u[11], free space in layer 1
        medium = acoustic((0.0,), wavenumbers)
        src, tgt = self.CLOUD
        got = {eps: pass_orders(medium, src.xy, tgt, FmmConfig(eps=eps)) for eps in want}
        assert got == want
        tight = [got[eps] for eps in sorted(want, reverse=True)]
        assert all(p <= q for a, b in zip(tight, tight[1:]) for p, q in zip(a, b))

    def test_order_cap_is_what_the_shift_builders_take(self):
        # the onset term asks P = 215 of a 100-wide tree at k = 1.5, whose
        # shifts would need Bessel orders up to 428 > special.MAX_ORDER
        config = FmmConfig()
        with pytest.raises(DomainError):
            fmm._pass_order(1.5, QuadTree([[0, 0.5], [100, 0.6]], 2), config)
        # a 60-wide tree takes the highest order, and its shifts build
        tree = QuadTree([[0, 0.5], [60, 0.6]], 2)
        P = fmm._pass_order(1.5, tree, config)
        assert P == expansions.MAX_SHIFT_ORDER == 129
        for sign in (1, -1):
            shifts = fmm._child_shifts(tree.cell_at(2), P, sign, (1.5, 1.0, 1.0))
            for T in shifts.values():
                assert T.shape == (2 * P - 1, 2 * P - 1)
                assert np.isfinite(T).all()

    def test_c0_below_1_83_uses_its_own_ratio(self):
        # c0 = 1.5 gives near radius 1, whose worst-case ratio is 0.547
        # (> 1/2, the validity limit at c0 = 2)
        rng = np.random.default_rng(78)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        ratio = math.sqrt(0.5) / (2 - math.sqrt(0.5))
        for eps in (1e-6, 1e-8):
            config = FmmConfig(eps=eps, c0=1.5)
            P = math.ceil(math.log(eps / fmm._ORDER_PREFACTOR) / math.log(ratio))
            assert min(pass_orders(TWO_LAYER, src.xy, tgt, config)) >= P
            f = evaluate_all(TWO_LAYER, src, tgt, config)
            d = direct_sum(TWO_LAYER, src, tgt, rtol=eps * 1e-2)
            assert np.linalg.norm(f - d) <= eps * np.linalg.norm(d)
            assert np.max(np.abs(f - d)) <= eps * np.max(np.abs(d))


# the builders of point-only work, by the names the FMM reaches them by
_BUILDERS = {
    "m2l": "m2l",
    "rule": "FrozenComponentRule",
    "shift": "shift_matrix",
    "fs_m2l": "fs_m2l_matrix",
    "tree": "QuadTree",
    "lists": "interaction_lists",
    "images": "polarization_image_batch",
}


def _count_builds(monkeypatch):
    """Counters on the builders the FMM reaches through its module names."""
    counts = dict.fromkeys(_BUILDERS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, attr in _BUILDERS.items():
        monkeypatch.setattr(fmm, attr, counting(name, getattr(fmm, attr)))
    return counts


def test_fmm_imports_no_private_expansions_name():
    # the FMM applies the operators expansions.py builds, through its
    # public builders, and re-derives none of them
    module = ast.parse(Path(fmm.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "expansions"), (0, "helmlayer.expansions"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


class TestFmmPlan:
    def test_later_evaluate_builds_nothing_and_matches_evaluate_all(self, monkeypatch):
        counts = _count_builds(monkeypatch)
        rng = np.random.default_rng(72)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        # small leaves give three tree levels, so M2M and L2L run
        config = FmmConfig(eps=1e-6, leaf_size=10)
        plan = FmmPlan(TWO_LAYER, src.xy, tgt, config)
        plan.evaluate(src.q)
        assert counts["m2l"] > 0 and counts["rule"] > 0 and counts["shift"] > 0
        assert all(n > 0 for n in counts.values())
        built = dict(counts)
        again = SourceSet(src.xy, rng.uniform(0.5, 1.5, 300))
        reused = plan.evaluate(again.q)
        assert counts == built
        # evaluate_all keeps nothing: each call builds its own operators
        fresh = evaluate_all(TWO_LAYER, again, tgt, config)
        evaluate_all(TWO_LAYER, again, tgt, config)
        assert counts == {name: 3 * n for name, n in built.items()}
        assert np.array_equal(reused, fresh)

    @pytest.mark.parametrize(
        "medium, eps",
        [(TWO_LAYER, 1e-8), (acoustic((0.0,), (1.2, 0.8)), 1e-6)],
        ids=["finer_eps", "other_wavenumbers"],
    )
    def test_later_evaluate_matches_direct_sum(self, medium, eps):
        rng = np.random.default_rng(73)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        plan = FmmPlan(medium, src.xy, tgt, FmmConfig(eps=eps))
        plan.evaluate(src.q)
        again = SourceSet(src.xy, rng.uniform(0.5, 1.5, 300))
        f = plan.evaluate(again.q)
        d = direct_sum(medium, again, tgt, rtol=eps * 1e-2)
        assert np.linalg.norm(f - d) / np.linalg.norm(d) < eps

    def test_operators_are_read_only(self, monkeypatch):
        # record every array the FMM's operator builders return
        built = {"m2l": [], "rule": [], "shift": [], "fs_m2l": []}

        def recording(name, fn, arrays):
            def wrapper(*args, **kwargs):
                value = fn(*args, **kwargs)
                built[name].extend(arrays(value))
                return value

            return wrapper

        def rule_arrays(rule):
            return [a for a in vars(rule).values() if isinstance(a, np.ndarray)]

        for name, arrays in (
            ("m2l", list),
            ("rule", rule_arrays),
            ("shift", lambda a: [a]),
            ("fs_m2l", lambda a: [a]),
        ):
            attr = _BUILDERS[name]
            monkeypatch.setattr(fmm, attr, recording(name, getattr(fmm, attr), arrays))
        rng = np.random.default_rng(74)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        plan = FmmPlan(TWO_LAYER, src.xy, tgt, FmmConfig(eps=1e-6, leaf_size=10))
        plan.evaluate(src.q)
        assert all(built.values())
        for name, arrays in built.items():
            assert not any(a.flags.writeable for a in arrays), name

    def test_plan_keeps_its_own_copy_of_the_points(self):
        rng = np.random.default_rng(75)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 200, rng)
        xy, targets = src.xy.copy(), tgt.copy()
        plan = FmmPlan(TWO_LAYER, xy, targets)
        xy[:] = 0.5
        targets[:] = 0.5
        assert np.array_equal(plan.evaluate(src.q), evaluate_all(TWO_LAYER, src, tgt))
        with pytest.raises(ValueError):
            plan.source_xy[0, 0] = 0.0

    @pytest.mark.parametrize("case", ["slab", "middle"])
    def test_guided_and_shared_interior_layers_plan(self, monkeypatch, case):
        # the plan builds its operators once on these media too
        medium, src, tgt = guided_cloud(case)
        plan = FmmPlan(medium, src.xy, tgt)
        first = plan.evaluate(src.q)
        counts = _count_builds(monkeypatch)
        q = np.linspace(0.5, 1.5, len(src.q))
        assert np.array_equal(plan.evaluate(q), evaluate_all(medium, SourceSet(src.xy, q), tgt))
        built = dict(counts)
        assert np.array_equal(plan.evaluate(src.q), first)
        assert counts == built and built["rule"] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_direct_sum_takes_middle_layer_points(self):
        rng = np.random.default_rng(5)
        xy = np.column_stack([rng.uniform(-1, 1, 4), rng.uniform(-0.9, -0.1, 4)])
        xy[3, 1] = 0.6  # one source in layer 0
        src = SourceSet(xy, rng.uniform(0.5, 1.5, 4))
        tgt = np.column_stack([rng.uniform(-1, 1, 3), rng.uniform(-0.9, -0.1, 3)])
        got = direct_sum(THREE_LAYER, src, tgt)
        lossy = ContourSpec(rtol=1e-9, pole_mode="perturbed")
        want = [
            sum(q * green(THREE_LAYER, tuple(x), tuple(xp), lossy) for xp, q in zip(xy, src.q))
            for x in tgt
        ]
        assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()


_RUN_ONCE = """
import sys
import numpy as np
from helmlayer.fmm import FmmConfig, evaluate_all, random_two_layer_cloud
from helmlayer.medium import acoustic
m = acoustic((0.0,), (1.0, 1.5))
src, tgt = random_two_layer_cloud(m, 150, np.random.default_rng(70))
sys.stdout.write(evaluate_all(m, src, tgt, FmmConfig(eps=1e-6)).tobytes().hex())
"""


class TestWorkCounters:
    def test_one_sigma_solve_per_node_array_per_pass(self, monkeypatch):
        # a pass's M2L matrices share one sigma memo, and the symmetrized
        # panels solve sigma once for both signs
        solves = []
        panels = []
        family_calls = []
        solve = quadrature.sigma_component_batch
        panel = quadrature._panel
        sums = quadrature._family_sums

        def counting_solve(medium, lams, cid, **kwargs):
            lams = np.asarray(lams)
            dinfo = kwargs.get("dinfo")
            key = (cid, lams.dtype.char, lams.tobytes())
            if dinfo is not None:
                key += (dinfo[0], dinfo[1].tobytes())
            solves.append(key)
            return solve(medium, lams, cid, **kwargs)

        def counting_panel(*args):
            panels.append(1)
            return panel(*args)

        def counting_sums(*args):
            family_calls.append(1)
            return sums(*args)

        monkeypatch.setattr(quadrature, "sigma_component_batch", counting_solve)
        monkeypatch.setattr(quadrature, "_panel", counting_panel)
        monkeypatch.setattr(quadrature, "_family_sums", counting_sums)
        rng = np.random.default_rng(8)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6, leaf_size=10))
        # every component has one pass per call, so a repeated key would
        # be a pass solving the same node array twice
        assert len(set(solves)) == len(solves)
        # at most one solve per _panel call, plus each frozen
        # rule's final solve over all its nodes (one rule per pass, four
        # passes), plus one per chunk of family panels (the rules' probes
        # and the M2L matrices)
        assert len(solves) <= len(panels) + 4 + len(family_calls)


class TestReproducibility:
    def test_bitwise_equal_across_processes_at_one_blas_thread(self):
        # the documented guarantee: bitwise reproducible for a fixed BLAS
        # thread count, which can only be pinned before numpy loads
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src_dir = str(Path(helmlayer.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", _RUN_ONCE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert len(outs[0]) == 150 * 16 * 2
        assert outs[0] == outs[1]


_TRACE_ONCE = """
import sys
import numpy as np
from tracing import ROOT_SPAN, Tracer
from helmlayer.fmm import FmmConfig, evaluate_all, random_two_layer_cloud
from helmlayer.medium import acoustic
tracer = Tracer()
tracer.install()
m = acoustic((0.0,), (1.0, 1.5))
src, tgt = random_two_layer_cloud(m, 120, np.random.default_rng(74))
tracer.active = True
tracer.root(evaluate_all)(m, src, tgt, FmmConfig(eps=1e-6, leaf_size=10))
c = tracer.counts
own, roots = tracer.self_times()
print(c["fmm.reaction_pass.calls"], c["fmm.free_space_pass.calls"], c["fmm.far_pairs"])
print(own[ROOT_SPAN] / roots)
"""


class TestBenchmarkTraceHooks:
    def test_tracer_sees_both_passes_and_far_pairs(self):
        # bench/tracing.py wraps the passes and interaction_lists by their
        # module names; if the FMM stops reaching them through those
        # names, the per-layer counters would silently read 0
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (str(root / "src"), str(root / "bench"), env.get("PYTHONPATH"))
            if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _TRACE_ONCE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        reaction, free_space, far_pairs, root_share = (float(v) for v in out)
        # two layers: four reaction components, one free-space pass per layer
        assert reaction == 4
        assert free_space == 2
        assert far_pairs > 0
        # the passes are built and applied inside their spans, so the
        # root span's own time is evaluate_all's bookkeeping alone
        assert root_share < 0.05


class TestScalingHelpers:
    def test_fitted_exponent(self):
        n = np.array([500, 1000, 2000, 4000])
        t = 1e-4 * n ** 1.1
        assert fitted_scaling_exponent(n, t) == pytest.approx(1.1, abs=1e-6)


class TestLockstepM2L:
    def test_family_calls_stay_within_the_chunk(self, monkeypatch):
        # every family integrand call of a pass's M2L build gets at most
        # _PANEL_CHUNK panels, so its temporaries stay bounded however
        # many matrices the pass builds
        nodes = []
        sums = quadrature._family_sums

        def counting(f, lam, *args):
            nodes.append(lam.size)
            return sums(f, lam, *args)

        monkeypatch.setattr(quadrature, "_family_sums", counting)
        rng = np.random.default_rng(76)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6, leaf_size=10))
        assert max(nodes) == quadrature._PANEL_CHUNK * 15

    def test_each_pass_lists_each_level_once(self, monkeypatch):
        levels = []
        calls = []
        tree, lists = fmm.QuadTree, fmm.interaction_lists

        class Tree(tree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                levels.append(self.level)

        def counting(*args):
            calls.append(1)
            return lists(*args)

        monkeypatch.setattr(fmm, "QuadTree", Tree)
        monkeypatch.setattr(fmm, "interaction_lists", counting)
        rng = np.random.default_rng(77)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        evaluate_all(TWO_LAYER, src, tgt, FmmConfig(eps=1e-6, leaf_size=10))
        # four reaction passes and two free-space passes, levels 2..L each
        assert len(levels) == 6
        assert len(calls) == sum(level - 1 for level in levels)
