"""One workload of the helmlayer benchmark, in a process of its own.

bench/run.py starts this file with BLAS threads pinned through
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, which numpy reads only when it
is first imported, and with PYTHONPATH pointing at the checkout's src/.
The last line of stdout is one JSON object that run.py reads.

    python workload.py --workload NAME --seed N --seconds S --trace 0|1
    python workload.py --workload NAME --setup-only
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_START = time.perf_counter()
import numpy as np  # noqa: E402  (set-up time includes these imports)
import scipy  # noqa: E402
import helmlayer as hl  # noqa: E402
from helmlayer.errors import HelmLayerError  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402  (bench/tracing.py)

ROOT = Path(__file__).resolve().parent.parent

EPS = 1e-6  # FMM target tolerance
GREEN_RTOL = 1e-4  # pointwise green against the lossy-limit oracle (criterion 6b)
GREEN_CHECKS_PER_SWEEP = 9
LAYER_MARGIN = 0.05  # green points stay this far from every interface
LAYER_DEPTH = 1.8  # extent of the outer layers that green points use

# Per sweep, pairs per (target layer, source layer) combination: half of a
# sweep's 144 pairs lie in the two-layer medium, half in the guided slab.
A2_PAIRS_PER_COMBO = 18
SLAB_PAIRS_PER_COMBO = 8
# Fewest operations a run makes: FMM runs time a first and a later call;
# green runs need >= 200 calls so that >= 10 latencies lie beyond p95.
MIN_FMM_CALLS = 2
MIN_GREEN_SWEEPS = 2


def build_media(workload):
    a2 = hl.acoustic((0.0,), (1.0, 1.5))
    if workload == "green_pointwise":
        return {"A2": a2, "slab": hl.acoustic((0.0, -1.0), (1.0, 2.0, 1.0))}
    return {"A2": a2}


# ---------------------------------------------------------------------------
# inputs, all drawn from the seed
# ---------------------------------------------------------------------------


def uniform_cloud(rng, n):
    """helmlayer.fmm.random_two_layer_cloud with its default box.

    Copied rather than called, so that a library change cannot move the
    inputs: points keep 0.18 clear of the interface at y = 0.
    """
    x0, x1, y0, y1 = -2.0, 2.0, -1.8, 1.8
    d0 = 0.0
    margin = 0.05 * (y1 - y0)

    def sample(m):
        xs = rng.uniform(x0, x1, m)
        ys = rng.uniform(y0, y1, m)
        off = np.abs(ys - d0) < margin
        ys[off] = d0 + np.sign(ys[off] - d0 + 1e-12) * (
            margin + (margin - np.abs(ys[off] - d0))
        )
        return np.column_stack([xs, ys])

    src = sample(n)
    q = rng.uniform(0.5, 1.5, n)
    return src, q, sample(n)


def jittered(rng, m):
    """m values in [0, 1), one in each of m equal strata, in random order.

    Coordinates drawn this way form a Latin hypercube: the seed moves the
    points but hardly the amount of work they cause.
    """
    return (rng.permutation(m) + rng.uniform(size=m)) / m


def near_interface_cloud(rng, n):
    """Points 0.02 to 1.02 from the interface at y = 0, half on each side.

    The smallest gap on each side sets the near-field rule's lam_max, so
    it is pinned at 0.02; x and the gap are jittered.
    """

    def sample(m):
        half = []
        for side in (1.0, -1.0):
            gap = 0.02 + jittered(rng, m // 2)
            gap[np.argmin(gap)] = 0.02
            xs = -2.0 + 4.0 * jittered(rng, m // 2)
            half.append(np.column_stack([xs, side * gap]))
        return np.vstack(half)

    src = sample(n)
    q = rng.uniform(0.5, 1.5, n)
    return src, q, sample(n)


def layer_span(medium, layer):
    d = medium.interface_depths
    top = d[layer - 1] - LAYER_MARGIN if layer > 0 else d[0] + LAYER_DEPTH
    bottom = d[layer] + LAYER_MARGIN if layer < len(d) else d[-1] - LAYER_DEPTH
    return bottom, top


def green_sweep(rng, media):
    """144 (medium, x, x') pairs, an equal share for every layer combination.

    Within a combination every coordinate is jittered over x in [-2, 2]
    and over the point's layer.
    """

    def points(m, layer, c):
        lo, hi = layer_span(m, layer)
        return zip(-2.0 + 4.0 * jittered(rng, c), lo + (hi - lo) * jittered(rng, c))

    pairs = []
    for name, per_combo in (("A2", A2_PAIRS_PER_COMBO), ("slab", SLAB_PAIRS_PER_COMBO)):
        m = media[name]
        layers = range(m.n_interfaces + 1)
        for t in layers:
            for s in layers:
                for x, xp in zip(points(m, t, per_combo), points(m, s, per_combo)):
                    pairs.append((name, tuple(map(float, x)), tuple(map(float, xp))))
    return [pairs[i] for i in rng.permutation(len(pairs))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def rel_l2(values, ref):
    return float(np.linalg.norm(values - ref) / np.linalg.norm(ref))


def run_fmm(media, rng, cloud, n, n_check, seconds, tracer):
    medium = media["A2"]
    config = hl.FmmConfig(eps=EPS)
    xy, q, tgt = cloud(rng, n)
    check_idx = np.sort(rng.choice(n, n_check, replace=False))
    evaluate = tracer.root(hl.evaluate_all) if tracer else hl.evaluate_all

    calls = []  # (seconds, strengths, sampled values or None)
    while len(calls) < MIN_FMM_CALLS or sum(c[0] for c in calls) < seconds:
        strengths = q if not calls else rng.uniform(0.5, 1.5, n)
        if tracer:
            tracer.active = len(calls) < MIN_FMM_CALLS
        src = hl.SourceSet(xy, strengths)
        t0 = time.perf_counter()
        try:
            vals = evaluate(medium, src, tgt, config)
        except HelmLayerError as exc:
            print(f"evaluate_all raised {exc!r}", file=sys.stderr)
            vals = None
        dt = time.perf_counter() - t0
        calls.append((dt, strengths, None if vals is None else vals[check_idx]))
    if tracer:
        tracer.active = False
    rss_mb = peak_rss_mb()

    # correctness, outside the timed calls: sampled targets against
    # direct_sum with every source
    errors = []
    raised = sum(1 for c in calls if c[2] is None)
    wrong = 0
    checker_ok = None
    for _, strengths, sampled in calls:
        if sampled is None:
            continue
        ref = hl.direct_sum(
            medium, hl.SourceSet(xy, strengths), tgt[check_idx], rtol=EPS * 1e-2
        )
        err = rel_l2(sampled, ref)
        errors.append(err)
        if err > EPS:
            wrong += 1
        if checker_ok is None:
            corrupted = sampled.copy()
            corrupted[0] *= 1.0 + 1e3 * EPS
            checker_ok = rel_l2(corrupted, ref) > EPS

    times = [c[0] for c in calls]
    total = sum(times)
    return {
        "attempted": len(calls),
        "raised": raised,
        "wrong": wrong,
        "checker_ok": bool(checker_ok),
        "ops": times,
        "metrics": {
            "first_call_s": times[0],
            "later_call_s": statistics.median(times[1:]),
            "pairs_per_s": n * n * len(calls) / total,
            "peak_rss_mb": rss_mb,
        },
        "report": {
            "fmm_first_call_s": times[0],
            "fmm_later_call_s": statistics.median(times[1:]),
            "fmm_rel_err": max(errors) if errors else None,
            "fail_ratio": (raised + wrong) / len(calls),
            "peak_rss_mb": rss_mb,
        },
        "rel_err": max(errors) if errors else 0.0,
    }


def run_green(media, rng, seconds, tracer):
    green = tracer.root(hl.green) if tracer else hl.green
    sweeps = []  # wall seconds per sweep
    latencies = []
    results = []  # (medium name, x, x', value or None)
    while len(sweeps) < MIN_GREEN_SWEEPS or sum(sweeps) < seconds:
        pairs = green_sweep(rng, media)
        if tracer:
            tracer.active = len(sweeps) < MIN_GREEN_SWEEPS
        t_sweep = time.perf_counter()
        for name, x, xp in pairs:
            t0 = time.perf_counter()
            try:
                g = green(media[name], x, xp)
            except HelmLayerError:
                g = None
            latencies.append(time.perf_counter() - t0)
            results.append((name, x, xp, g))
        sweeps.append(time.perf_counter() - t_sweep)
    if tracer:
        tracer.active = False
    rss_mb = peak_rss_mb()

    # correctness, outside the timed sweeps: a sample of the successful
    # calls of every sweep against the lossy-limit oracle
    raised = sum(1 for r in results if r[3] is None)
    wrong = 0
    oracle = hl.ContourSpec(pole_mode="perturbed")
    per_sweep = len(results) // len(sweeps)
    deviations = []
    checker_ok = None
    for k in range(len(sweeps)):
        chunk = [r for r in results[k * per_sweep:(k + 1) * per_sweep] if r[3] is not None]
        for i in rng.choice(len(chunk), min(GREEN_CHECKS_PER_SWEEP, len(chunk)), replace=False):
            name, x, xp, g = chunk[i]
            try:
                ref = hl.green(media[name], x, xp, oracle)
            except HelmLayerError as exc:
                print(f"oracle raised {exc!r} at {x}, {xp}", file=sys.stderr)
                wrong += 1  # an output that cannot be checked is not passed
                continue
            dev = abs(g - ref) / abs(ref)
            deviations.append(dev)
            if dev > GREEN_RTOL:
                wrong += 1
            if checker_ok is None:
                checker_ok = abs(g * (1.0 + 1e-3) - ref) / abs(ref) > GREEN_RTOL

    ms = np.array(latencies) * 1e3
    total = sum(sweeps)
    return {
        "attempted": len(results),
        "raised": raised,
        "wrong": wrong,
        "checker_ok": bool(checker_ok),
        "ops": sweeps,
        "metrics": {
            "first_call_s": sweeps[0],
            "later_call_s": statistics.median(sweeps[1:]),
            "pairs_per_s": len(results) / total,
            "peak_rss_mb": rss_mb,
        },
        "report": {
            "green_pairs_per_s": len(results) / total,
            "green_call_ms_p50": float(np.percentile(ms, 50)),
            "green_call_ms_p95": float(np.percentile(ms, 95)),
            "green_calls": len(results),
            "green_rel_err": max(deviations) if deviations else None,
            "fail_ratio": (raised + wrong) / len(results),
            "peak_rss_mb": rss_mb,
        },
        "rel_err": max(deviations) if deviations else 0.0,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

# spans whose self-time share of the traced operations is reported as <span>.pct
SPANS = [
    "expansions.m2l",
    "sigma.solve",
    "quadrature.frozen_rule.eval",
    "quadrature.frozen_rule.build",
    "expansions.regular_orders",
    "expansions.me_coeffs",
    "special.bessel_j_orders",
    "special.hankel1_orders",
    "fmm.free_space_pass",
    "fmm.reaction_pass",
    "fmm.interaction_lists",
    "quadrature.evaluate_component",
    "sigma.find_real_poles",
    "medium.polarization_image_batch",
]

# tracer counters reported under their own name, and two reported renamed
COUNTS = [
    "expansions.m2l.calls",
    "expansions.m2l.order_p",
    "sigma.solve.calls",
    "sigma.solve.nodes",
    "quadrature.frozen_rule.pairs",
    "quadrature.frozen_rule.nodes",
    "expansions.regular_orders.calls",
    "expansions.me_coeffs.calls",
    "special.bessel_j_orders.calls",
    "special.bessel_j_orders.args",
    "special.hankel1_orders.calls",
    "fmm.free_space_pass.calls",
    "fmm.reaction_pass.calls",
    "fmm.interaction_lists.calls",
    "fmm.far_pairs",
    "fmm.tree_levels",
    "quadrature.evaluate_component.calls",
    "quadrature.adaptive.calls",
    "quadrature.adaptive.failures",
    "sigma.find_real_poles.calls",
    "medium.polarization_image_batch.calls",
]
RENAMED_COUNTS = {
    "quadrature.panels": "quadrature.panel.calls",
    "quadrature.frozen_rule.builds": "quadrature.frozen_rule.build.calls",
}


def layer_metrics(tracer, result):
    own, roots = tracer.self_times()
    out = {f"{span}.pct": 100.0 * own[span] / roots for span in SPANS}
    out["unattributed.pct"] = 100.0 * own[ROOT_SPAN] / roots
    out.update({name: tracer.counts[name] for name in COUNTS})
    out.update({name: tracer.counts[c] for name, c in RENAMED_COUNTS.items()})
    calls = out["quadrature.adaptive.calls"]
    out["quadrature.adaptive.fail_ratio"] = (
        out["quadrature.adaptive.failures"] / calls if calls else 0.0
    )
    out["trace.first_call_s"] = result["ops"][0]
    out["check.rel_err"] = result["rel_err"]
    out["check.fail_ratio"] = (result["raised"] + result["wrong"]) / result["attempted"]
    return out


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("fmm_uniform", "fmm_near_interface", "green_pointwise"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="file the traced spans are written to")
    args = ap.parse_args()

    media = build_media(args.workload)
    setup_s = time.perf_counter() - SETUP_START
    if not Path(hl.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"helmlayer was imported from {hl.__file__}, not from {ROOT / 'src'}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rng = np.random.default_rng(args.seed)
    if args.workload == "fmm_uniform":
        result = run_fmm(media, rng, uniform_cloud, 2000, 32, args.seconds, tracer)
    elif args.workload == "fmm_near_interface":
        result = run_fmm(media, rng, near_interface_cloud, 200, 24, args.seconds, tracer)
    else:
        result = run_green(media, rng, args.seconds, tracer)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if tracer:
        result["metrics"] = layer_metrics(tracer, result)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
