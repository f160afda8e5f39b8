import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmlayer
from helmlayer import fmm, quadrature
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
SLAB = acoustic((0.0, -1.0), (1.0, 2.0, 1.0))
# pole-free: the wavenumber grows downward, so no layer guides a mode
THREE_LAYER = acoustic((0.0, -1.0), (1.0, 1.5, 2.0))


def near_interface_cloud(n, rng, gap=0.02):
    """Half of the points on each side of the interface, the closest at gap."""

    def side(m, sign):
        ys = sign * (gap + rng.uniform(0.0, 1.0, m))
        ys[0] = sign * gap
        return np.column_stack([rng.uniform(-2.0, 2.0, m), ys])

    src = np.vstack([side(n // 2, 1.0), side(n - n // 2, -1.0)])
    tgt = np.vstack([side(n // 2, 1.0), side(n - n // 2, -1.0)])
    return SourceSet(src, rng.uniform(0.5, 1.5, n)), tgt


class TestConfig:
    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            FmmConfig(eps=1e-1)
        with pytest.raises(ValidationError):
            FmmConfig(c0=0.5)

    def test_sources_validation(self):
        with pytest.raises(ValidationError):
            SourceSet(np.zeros((3, 2)), np.zeros(4))


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

    def test_guided_mode_medium_rejected(self):
        src = SourceSet(np.array([[0.0, 0.5]]), np.array([1.0]))
        with pytest.raises(DomainError):
            evaluate_all(SLAB, src, np.array([[1.0, 0.5]]), FmmConfig())

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
        # summed, then applied to the targets, against pairwise eval_batch
        rng = np.random.default_rng(68)
        src, tgt = near_interface_cloud(60, rng)
        x_ref = 0.3
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
                        4.0,
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


def _count_builds(monkeypatch):
    """Counters on the builders the FMM reaches through its module names."""
    counts = {"m2l": 0, "rule": 0, "shift": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fmm, "m2l", counting("m2l", fmm.m2l))
    monkeypatch.setattr(
        fmm, "FrozenComponentRule", counting("rule", fmm.FrozenComponentRule)
    )
    monkeypatch.setattr(
        fmm, "regular_orders", counting("shift", fmm.regular_orders)
    )
    return counts


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

    def test_operators_are_read_only(self):
        rng = np.random.default_rng(74)
        src, tgt = random_two_layer_cloud(TWO_LAYER, 300, rng)
        plan = FmmPlan(TWO_LAYER, src.xy, tgt, FmmConfig(eps=1e-6, leaf_size=10))
        plan.evaluate(src.q)
        kinds = set()
        for key, entry in plan._operators.items():
            kinds.add(key[0])
            arr = entry if isinstance(entry, np.ndarray) else entry.lam
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        assert kinds == {"m2l", "rule", "shift"}

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

    def test_guided_mode_medium_rejected_at_construction(self):
        with pytest.raises(DomainError):
            FmmPlan(SLAB, [[0.1, 0.3]], [[0.2, 0.4]])


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
        # at most one solve per panel evaluated alone, plus each frozen
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
from tracing import Tracer
from helmlayer.fmm import FmmConfig, evaluate_all, random_two_layer_cloud
from helmlayer.medium import acoustic
tracer = Tracer()
tracer.install()
m = acoustic((0.0,), (1.0, 1.5))
src, tgt = random_two_layer_cloud(m, 120, np.random.default_rng(74))
tracer.active = True
evaluate_all(m, src, tgt, FmmConfig(eps=1e-6, leaf_size=10))
c = tracer.counts
print(c["fmm.reaction_pass.calls"], c["fmm.free_space_pass.calls"], c["fmm.far_pairs"])
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
        reaction, free_space, far_pairs = (float(v) for v in out)
        # two layers: four reaction components, one free-space pass per layer
        assert reaction == 4
        assert free_space == 2
        assert far_pairs > 0


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
