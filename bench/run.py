"""helmlayer benchmark: one workload per run, in a pinned subprocess.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fmm_uniform, fmm_near_interface, green_pointwise, or all (each in
turn).  Run it from anywhere inside a checkout; helmlayer is imported from
the checkout's src/.  Workloads, metrics and units are those listed in
BENCHMARK.json; bench/NOTES.md says why each exists.

Each workload runs in its own process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 before numpy loads: that is the only way to pin
BLAS threads here (threadpoolctl is not available).  setup_s is the
median of several fresh processes that import helmlayer and build the
workload's media.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The full record, with the environment, goes to
.bench_out/ in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fmm_uniform", "fmm_near_interface", "green_pointwise")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # every run must end within 180 s
BUSY_CORES_LIMIT = 0.5  # more than this much CPU in use before a run flags it
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# the report printed for people: what a user of each route sees, by name and unit
REPORT_UNITS = {
    "setup_s": "s",
    "fmm_first_call_s": "s",
    "fmm_later_call_s": "s",
    "fmm_rel_err": "1",
    "green_pairs_per_s": "1/s",
    "green_call_ms_p50": "ms",
    "green_call_ms_p95": "ms",
    "green_rel_err": "1",
    "fail_ratio": "1",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, deadline):
    cmd = [sys.executable, str(BENCH / "workload.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def cpu_times():
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[3] + fields[4]


def busy_cores(interval=0.5):
    """CPU cores kept busy by every process on the machine, from /proc/stat."""
    total0, idle0 = cpu_times()
    time.sleep(interval)
    total1, idle1 = cpu_times()
    busy = 1.0 - (idle1 - idle0) / max(total1 - total0, 1)
    return busy * (os.cpu_count() or 1)


def load_average():
    return list(os.getloadavg())


def run_workload(workload, seed, seconds, trace, spec):
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {
        "nproc": os.cpu_count(),
        "threads": PINS,
        "seed": seed,
        "load_before": load_average(),
        "busy_cores_before": busy_cores(),
    }
    env["contended"] = env["busy_cores_before"] > BUSY_CORES_LIMIT
    if env["contended"]:
        print(
            f"WARNING: {env['busy_cores_before']:.2f} cores were busy before "
            f"{workload} started; its timings are not comparable",
            file=sys.stderr,
        )

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child(["--workload", workload, "--setup-only"], deadline)
            setups.append(probe["setup_s"])
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    if trace:
        args += ["--spans", str(spans)]
    result = run_child(args, deadline)
    env["load_after"] = load_average()
    env.update(result["versions"])

    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        result["report"]["setup_s"] = metrics["setup_s"]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(names):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    # an operation fails when it raises or its output fails the check;
    # only the latter, or a check that misses a corrupted output, is incorrect
    line = {
        "correct": result["wrong"] == 0 and result["checker_ok"],
        "attempted": result["attempted"],
        "failed": result["raised"] + result["wrong"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }

    record = {"workload": workload, "trace": trace, "environment": env,
              "setup_probes_s": setups, "result": result, "line": line}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {workload}  seed {seed}  trace {trace}")
    print(f"   environment: {json.dumps(env)}")
    if not trace:
        for name, unit in REPORT_UNITS.items():
            value = result["report"].get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"   {name:<20} {shown:>12} {unit}")
        if "green_calls" in result["report"]:
            print(f"   green latency percentiles over {result['report']['green_calls']} calls")
    else:
        print(f"   spans written to {spans.relative_to(ROOT)}")
    print(json.dumps(line))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not (ROOT / "src" / "helmlayer" / "__init__.py").is_file():
            raise BenchError(f"no helmlayer sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(workload, args.seed, args.seconds, args.trace, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
