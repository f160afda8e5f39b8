"""Config-driven job runner.

Jobs are described by a flat key-value file with [medium], [job] and
optional [quadrature] sections; results land in the output directory as
CSV tables plus a result.json stamped with the schema version.  Exit
codes: 0 success, 2 config parse error, 3 validation error, 4 numerical
failure (including threshold violations in self-check jobs).

Given the same config, seed and BLAS thread count (set through
OPENBLAS_NUM_THREADS before the run) the primary output files are
byte-identical run to run; wall-clock timings (inherently
non-deterministic) go to a separate timings.json sidecar.
"""

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HelmLayerError, ValidationError
from .medium import (
    InterfaceRow,
    LayeredMedium,
    acoustic,
    admissible_components,
    sound_soft_halfspace,
)
from .quadrature import (
    CdHMap,
    ContourSpec,
    cdh_phi,
    cdh_phi_inv,
    evaluate_component,
    green,
    real_axis_tails,
    tail_integral_cdh,
)
from .sigma import find_real_poles
from .expansions import (
    fit_rate,
    l2l,
    le_coeffs_direct,
    le_eval,
    m2l,
    me_coeffs,
    me_expansion_functions,
    partial_sum_errors,
    regular_orders,
)
from .fmm import (
    FmmConfig,
    direct_sum,
    evaluate_all,
    fitted_scaling_exponent,
    random_two_layer_cloud,
)

SCHEMA_VERSION = "1"
JOB_KINDS = ("green-eval", "convergence", "pole-scan", "fmm-bench", "cdh-check")

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _floats(text):
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _points(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        xy = [float(tok) for tok in chunk.split(",")]
        if len(xy) != 2:
            raise ValidationError(f"point '{chunk}' must be 'x,y'")
        out.append((xy[0], xy[1]))
    return out


def parse_medium(cfg):
    if "medium" not in cfg:
        raise ValidationError("config needs a [medium] section")
    sec = cfg["medium"]
    depths = _floats(sec.get("depths", ""))
    ks = _floats(sec.get("wavenumbers", ""))
    if not depths or not ks:
        raise ValidationError("[medium] needs 'depths' and 'wavenumbers'")
    rows_kind = sec.get("rows", "acoustic").strip().lower()
    if rows_kind == "acoustic":
        densities = (
            _floats(sec["densities"]) if "densities" in sec else None
        )
        return acoustic(tuple(depths), tuple(ks), densities)
    if rows_kind == "sound-soft":
        if len(depths) != 1 or len(ks) != 2:
            raise ValidationError("sound-soft preset needs one interface")
        return sound_soft_halfspace(ks[0], depths[0])
    if rows_kind == "explicit":
        rows = []
        for l in range(len(depths)):
            pair = []
            for r in (1, 2):
                key = f"interface{l}_row{r}"
                if key not in sec:
                    raise ValidationError(f"[medium] missing '{key}'")
                vals = _floats(sec[key])
                if len(vals) != 8:
                    raise ValidationError(
                        f"'{key}' needs 8 reals (4 complex pairs)"
                    )
                pair.append(
                    InterfaceRow(
                        complex(vals[0], vals[1]),
                        complex(vals[2], vals[3]),
                        complex(vals[4], vals[5]),
                        complex(vals[6], vals[7]),
                    )
                )
            rows.append(tuple(pair))
        return LayeredMedium(tuple(depths), tuple(ks), tuple(rows))
    raise ValidationError(f"unknown rows kind '{rows_kind}'")


def parse_contour(cfg, tolerance_override=None):
    sec = cfg["quadrature"] if "quadrature" in cfg else {}
    rtol = float(sec.get("rtol", 1e-9))
    if tolerance_override is not None:
        rtol = tolerance_override
    kwargs = {"rtol": rtol}
    if sec.get("k_split"):
        kwargs["k_split"] = float(sec["k_split"])
    if sec.get("lam_max"):
        kwargs["lam_max"] = float(sec["lam_max"])
    if sec.get("pole_mode"):
        kwargs["pole_mode"] = sec["pole_mode"].strip()
    return ContourSpec(**kwargs)


def _fmt(x):
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row
                )
            )
            fh.write("\n")


def write_result(out_dir, kind, status, metrics, parameters):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "kind": kind,
        "status": status,
        "metrics": metrics,
        "parameters": parameters,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def job_green_eval(cfg, medium, spec, out_dir, rng):
    sec = cfg["job"]
    targets = _points(sec.get("targets", ""))
    sources = _points(sec.get("sources", ""))
    strengths = _floats(sec.get("strengths", ""))
    if not targets or not sources:
        raise ValidationError("green-eval needs 'targets' and 'sources'")
    if len(strengths) != len(sources):
        raise ValidationError("need one strength per source")
    rows = []
    for x in targets:
        val = sum(
            q * green(medium, x, s, spec) for s, q in zip(sources, strengths)
        )
        rows.append((x[0], x[1], val.real, val.imag))
    write_csv(out_dir / "green_eval.csv", ["x", "y", "re", "im"], rows)
    return {"n_targets": len(targets)}, 0


def _convergence_geometry(medium):
    """Canonical sound-soft style geometry scaled by the top wavenumber."""
    k0 = medium.wavenumbers[0]
    d0 = medium.interface_depths[0]
    ell = 1.0 / k0
    x_c = (0.0, d0 + 0.6 * ell)
    ang = np.linspace(0, 2 * math.pi, 8, endpoint=False) + 0.19
    src = np.column_stack(
        [x_c[0] + 0.5 * ell * np.cos(ang), x_c[1] + 0.5 * ell * np.sin(ang)]
    )
    rng = np.random.default_rng(1234)
    q = rng.uniform(0.5, 1.5, 8)
    return x_c, src, q, ell, d0


def job_convergence(cfg, medium, spec, out_dir, rng):
    sec = cfg["job"]
    ratios = _floats(sec.get("ratios", "0.25, 0.4, 0.5"))
    p_max = int(sec.get("p_max", "40"))
    operators = [
        tok.strip().upper()
        for tok in sec.get("operators", "ME,LE,M2L,L2L").split(",")
    ]
    cid = admissible_components(0, 0, medium.n_interfaces)[0]
    spec = ContourSpec(rtol=min(spec.rtol, 1e-11), pole_mode=spec.pole_mode)
    x_c, src, q, ell, d0 = _convergence_geometry(medium)
    rad = float(np.max(np.hypot(src[:, 0] - x_c[0], src[:, 1] - x_c[1])))
    k0 = medium.wavenumbers[0]
    rows = []
    Ps = np.arange(2, p_max + 1)
    for op in operators:
        if op not in ("ME", "LE", "M2L", "L2L"):
            raise ValidationError(f"unknown operator '{op}'")
        for ratio in ratios:
            errs = _operator_errors(
                medium, cid, op, ratio, x_c, src, q, rad, d0, ell, p_max, spec
            )
            slope = fit_rate(Ps, errs)
            for P, err in zip(Ps, errs):
                rows.append(
                    (op, int(P), err, ratio, math.log10(ratio), slope)
                )
    write_csv(
        out_dir / "convergence.csv",
        ["operator", "P", "error", "ratio", "predicted_slope", "measured_slope"],
        rows,
    )
    slopes = {}
    for op, P, err, ratio, pred, meas in rows:
        slopes[f"{op}@{ratio}"] = {"predicted": pred, "measured": meas}
    return {"slopes": slopes}, 0


def _operator_errors(medium, cid, op, ratio, x_c, src, q, rad, d0, ell, p_max, spec):
    from .quadrature import evaluate_component

    k0 = medium.wavenumbers[0]
    Ps = np.arange(2, p_max + 1)
    if op == "ME":
        target = (0.0, d0 + rad / ratio - (x_c[1] - d0))
        me = me_coeffs(medium, cid, x_c, src, q, p_max)
        ip = me_expansion_functions(medium, cid, target, x_c, p_max, spec)
        ref = sum(
            qq * evaluate_component(medium, cid, target, tuple(s), spec)
            for s, qq in zip(src, q)
        )
        return partial_sum_errors(ip * me.coeffs, ref, Ps)
    if op == "LE":
        x_cl = (0.0, d0 + 0.28 * ell)
        probe = (
            x_cl[0] + 0.25 * ell * math.cos(0.4),
            x_cl[1] + 0.25 * ell * math.sin(0.4),
        )
        rt = math.hypot(probe[0] - x_cl[0], probe[1] - x_cl[1])
        D = rt / ratio
        ys = d0 + 0.1 * ell
        xs = math.sqrt(D**2 - (x_cl[1] + ys - 2 * d0) ** 2)
        le = le_coeffs_direct(medium, cid, x_cl, [(xs, ys)], [1.0], p_max, spec)
        ref = evaluate_component(medium, cid, probe, (xs, ys), spec)
        K = regular_orders(
            (probe[0] - x_cl[0], probe[1] - x_cl[1]), k0, p_max - 1, tau=cid.dir_t.tau
        )
        return partial_sum_errors(le.coeffs * K, ref, Ps)
    if op == "M2L":
        # per-coefficient error, evaluated on the m=0 coefficient
        x_cl = (0.0, d0 + rad / ratio - (x_c[1] - d0))
        me = me_coeffs(medium, cid, x_c, src, q, p_max)
        Mfix = 8
        tm = m2l(medium, cid, x_cl, x_c, Mfix, p_max, spec)
        le_ref = le_coeffs_direct(medium, cid, x_cl, src, q, Mfix, spec)
        m0 = Mfix - 1
        errs = []
        for P in Ps:
            sl = slice(p_max - P, p_max + P - 1)
            L0 = tm.matrix[m0, sl] @ me.coeffs[sl]
            errs.append(abs(L0 - le_ref.coeffs[m0]) / abs(le_ref.coeffs[m0]))
        return np.array(errs)
    # L2L
    x_cl = (0.0, d0 + 1.2 * ell)
    src1 = (0.9 * ell, d0 + 0.4 * ell)
    from .medium import PolarizedPair, polarized_distance

    D = polarized_distance(medium, PolarizedPair(x_cl, src1, cid))
    snorm = ratio * D
    sdir = (math.cos(1.1), math.sin(1.1))
    new_c = (x_cl[0] + snorm * sdir[0], x_cl[1] + snorm * sdir[1])
    le = le_coeffs_direct(medium, cid, x_cl, [src1], [1.0], p_max, spec)
    probe = (new_c[0] + 0.02 * ell, new_c[1] + 0.03 * ell)
    ref = evaluate_component(medium, cid, probe, src1, spec)
    errs = []
    for P in Ps:
        le2 = l2l(le, new_c, int(P))
        errs.append(abs(le_eval(le2, probe, c0=1.0) - ref) / abs(ref))
    return np.array(errs)


def job_pole_scan(cfg, medium, spec, out_dir, rng):
    sec = cfg["job"]
    scan_max = float(sec.get("scan_max", 1.3 * medium.k_max + 1.0))
    poles = find_real_poles(medium, (1e-6 * medium.k_min, scan_max))
    rows = []
    for p in poles:
        for cid, res in sorted(p.residues.items(), key=lambda kv: repr(kv[0])):
            rows.append(
                (
                    p.location,
                    str(p.side),
                    str(cid.t),
                    str(cid.s),
                    cid.dir_t.value,
                    cid.dir_s.value,
                    res.real,
                    res.imag,
                )
            )
    write_csv(
        out_dir / "poles.csv",
        ["location", "side", "t", "s", "dir_t", "dir_s", "residue_re", "residue_im"],
        rows,
    )
    return {"n_poles": len(poles)}, 0


def job_fmm_bench(cfg, medium, spec, out_dir, rng):
    sec = cfg["job"]
    sizes = [int(v) for v in _floats(sec.get("sizes", "500, 1000"))]
    check_n = int(sec.get("check_n", "0"))
    eps = float(sec.get("tolerance", "1e-6"))
    config = FmmConfig(eps=eps)
    rows = []
    timings = {}
    status = 0
    worst = 0.0
    for n in sizes:
        src, tgt = random_two_layer_cloud(medium, n, rng)
        t0 = time.perf_counter()
        vals = evaluate_all(medium, src, tgt, config)
        timings[str(n)] = time.perf_counter() - t0
        rel = point = float("nan")
        if n == check_n:
            ref = direct_sum(medium, src, tgt, rtol=eps * 1e-2)
            rel = float(np.linalg.norm(vals - ref) / np.linalg.norm(ref))
            point = float(np.max(np.abs(vals - ref)) / np.max(np.abs(ref)))
            worst = max(worst, rel)
            if rel > eps:
                status = EXIT_NUMERICAL
        rows.append((int(n), rel, point))
    write_csv(out_dir / "fmm_bench.csv", ["n", "rel_l2_error", "worst_point_error"], rows)
    with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump({"seconds": timings, "note": "non-deterministic"}, fh, indent=2)
    metrics = {"checked_rel_l2": worst if check_n else None}
    if len(sizes) >= 3:
        metrics["fitted_exponent"] = fitted_scaling_exponent(
            sizes, [timings[str(n)] for n in sizes]
        )
    return metrics, status


def job_cdh_check(cfg, medium, spec, out_dir, rng):
    sec = cfg["job"]
    beta = float(sec.get("beta", "0.7"))
    k = float(sec.get("k", medium.wavenumbers[0]))
    n_samples = int(sec.get("samples", "1000"))
    m = CdHMap(beta=beta, k=k)
    worst_rt = 0.0
    sign_ok = 0
    for _ in range(n_samples):
        lp = k + rng.uniform(1e-3, 8.0)
        w = complex(cdh_phi(m, lp)) + rng.uniform(1e-6, 8.0)
        z = cdh_phi_inv(m, w)
        worst_rt = max(worst_rt, abs(cdh_phi(m, z) - w) / max(1.0, abs(w)))
        zm = complex(
            lp * math.cos(beta), -math.sqrt(lp**2 - k**2) * math.sin(beta)
        ) + rng.uniform(1e-9, 8.0)
        if zm.imag < 0:
            phi = cdh_phi(m, zm)
            if phi.real > 0 and phi.imag > 0:
                sign_ok += 1

    cid = admissible_components(0, 0, medium.n_interfaces)[0]
    d0 = medium.interface_depths[0]
    ell = 1.0 / medium.wavenumbers[0]
    x = (1.5 * ell, d0 + 0.5 * ell)
    xp = (0.0, d0 + 0.3 * ell)
    tol = min(spec.rtol, 1e-10)
    tspec = ContourSpec(rtol=tol, pole_mode=spec.pole_mode)
    rc = tail_integral_cdh(medium, cid, x, xp, tspec)
    rr = real_axis_tails(medium, cid, x, xp, tspec)
    tail_diff = abs(rc.value - rr.value) / max(1.0, abs(rr.value))

    rows = [
        ("roundtrip_max", worst_rt, 1e-12, str(worst_rt < 1e-12)),
        ("d_minus_samples_ok", float(sign_ok), 0.0, "True"),
        ("tail_vs_real_axis", tail_diff, 1e-9, str(tail_diff < 1e-9)),
    ]
    write_csv(out_dir / "cdh_check.csv", ["check", "value", "threshold", "pass"], rows)
    status = 0
    if worst_rt >= 1e-12 or tail_diff >= 1e-9:
        status = EXIT_NUMERICAL
    return {
        "roundtrip_max": worst_rt,
        "tail_vs_real_axis": tail_diff,
        "cdh_panels": rc.n_panels,
        "real_axis_panels": rr.n_panels,
    }, status


JOBS = {
    "green-eval": job_green_eval,
    "convergence": job_convergence,
    "pole-scan": job_pole_scan,
    "fmm-bench": job_fmm_bench,
    "cdh-check": job_cdh_check,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="helmlayer",
        description="Layered-media Helmholtz Green's function jobs",
    )
    ap.add_argument("--config", required=True, help="job configuration file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--tolerance", type=float, default=None, help="rtol override")
    ap.add_argument("--seed", type=int, default=0, help="random seed (u64)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg.read_file(fh, source=args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except configparser.Error as exc:
        print(f"error: config parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        medium = parse_medium(cfg)
        spec = parse_contour(cfg, args.tolerance)
        if "job" not in cfg:
            raise ValidationError("config needs a [job] section")
        kind = cfg["job"].get("kind", "").strip()
        if kind not in JOB_KINDS:
            raise ValidationError(
                f"job kind '{kind}' not one of {', '.join(JOB_KINDS)}"
            )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValidationError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    rng = np.random.default_rng(np.uint64(args.seed))
    params = {
        "config": str(args.config),
        "seed": int(args.seed),
        "rtol": spec.rtol,
    }
    try:
        metrics, status = JOBS[kind](cfg, medium, spec, out_dir, rng)
    except ValidationError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except HelmLayerError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        write_result(out_dir, kind, "numerical-failure", {"error": str(exc)}, params)
        return EXIT_NUMERICAL
    write_result(
        out_dir,
        kind,
        "ok" if status == 0 else "threshold-violation",
        metrics,
        params,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
