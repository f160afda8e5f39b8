"""Quadtree FMM with equivalent polarization sources.

Each reaction component is summed by a tree built over the targets plus
the polarization images of the sources; in that frame the far-field
conditions are ordinary box separation.  This script checks the fast
evaluator against direct summation and times it over a range of N.

Run:  python demos/fmm_scaling.py        (about 15 s on one core)
"""

import time

import numpy as np

from helmlayer import FmmConfig, acoustic, direct_sum, evaluate_all
from helmlayer.fmm import fitted_scaling_exponent, random_two_layer_cloud

medium = acoustic(interface_depths=(0.0,), wavenumbers=(1.0, 1.5))
config = FmmConfig(eps=1e-6)
rng = np.random.default_rng(42)

# --- correctness at a size where direct summation is still quick ----------
n_check = 600
src, tgt = random_two_layer_cloud(medium, n_check, rng)
t0 = time.perf_counter()
fast = evaluate_all(medium, src, tgt, config)
t_fast = time.perf_counter() - t0
t0 = time.perf_counter()
ref = direct_sum(medium, src, tgt, rtol=1e-8)
t_ref = time.perf_counter() - t0
rel = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
print(f"N = {n_check}: FMM {t_fast:.1f}s, direct {t_ref:.1f}s, "
      f"relative L2 error {rel:.2e} (target {config.eps:.0e})")

# --- scaling ----------------------------------------------------------------
sizes = (500, 1000, 2000, 4000)
times = []
print("\nruntime vs N:")
for n in sizes:
    src, tgt = random_two_layer_cloud(medium, n, rng)
    t0 = time.perf_counter()
    evaluate_all(medium, src, tgt, config)
    dt = time.perf_counter() - t0
    times.append(dt)
    print(f"  N = {n:>5}: {dt:6.1f} s")
expo = fitted_scaling_exponent(sizes, times)
print(f"\nfitted runtime exponent: {expo:.2f}  (1.0 = linear, direct sum = 2.0)")
