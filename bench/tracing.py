"""Spans and counters around the calls into each helmlayer module.

The tracer works from outside the library: it replaces module attributes
with wrappers in the benchmark process.  Modules bind functions at import
(``fmm`` imports ``m2l`` and ``FrozenComponentRule``; ``quadrature`` and
``expansions`` each import ``sigma_component_batch`` and
``adaptive_segments``), so a function is replaced under every name any
helmlayer module holds it by, not only in the module that defines it.

Spans are kept in memory as [name, parent index, start, end] and written
out once at the end.  A layer's self time is its span time minus the time
its child spans cover.  Wrappers do nothing but call through while the
tracer is inactive, so the correctness checks are not traced.
"""

import functools
import json
import sys
import time
from collections import defaultdict

from helmlayer import fmm, quadrature
from helmlayer.errors import HelmLayerError
from helmlayer.expansions import m2l, me_coeffs, regular_orders
from helmlayer.medium import polarization_image_batch
from helmlayer.sigma import find_real_poles, sigma_component_batch
from helmlayer.special import bessel_j_orders, hankel1_orders

ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def root(self, fn):
        """Wrap the workload's own call: one root span per operation."""
        return self._wrap(ROOT_SPAN, fn, timed=True)

    def _wrap(self, name, fn, timed, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if timed:
                rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except HelmLayerError:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                if timed:
                    rec[3] = time.perf_counter()
                    self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are taken at."""
        c = self.counts

        def max_order(args, kwargs, out):
            c["expansions.m2l.order_p"] = max(c["expansions.m2l.order_p"], args[5])

        def sigma_nodes(args, kwargs, out):
            c["sigma.solve.nodes"] += len(out)

        def bessel_args(args, kwargs, out):
            c["special.bessel_j_orders.args"] += out.shape[1]

        def rule_nodes(args, kwargs, out):
            c["quadrature.frozen_rule.nodes"] += args[0].n_nodes

        def rule_pairs(args, kwargs, out):
            c["quadrature.frozen_rule.pairs"] += len(out)

        def far_pairs(args, kwargs, out):
            # reaction passes only, as listed: the leaf level is listed
            # once for its near field and once more for its far field
            if self.inside("fmm.reaction_pass"):
                c["fmm.far_pairs"] += sum(len(v) for v in out[1].values())

        def tree_level(args, kwargs, out):
            c["fmm.tree_levels"] = max(c["fmm.tree_levels"], args[0].level)

        functions = [
            ("fmm.reaction_pass", fmm._reaction_pass, True, None),
            ("fmm.free_space_pass", fmm._free_space_pass, True, None),
            ("fmm.interaction_lists", fmm.interaction_lists, True, far_pairs),
            ("expansions.m2l", m2l, True, max_order),
            ("expansions.me_coeffs", me_coeffs, True, None),
            ("expansions.regular_orders", regular_orders, True, None),
            ("special.bessel_j_orders", bessel_j_orders, True, bessel_args),
            ("special.hankel1_orders", hankel1_orders, True, None),
            ("sigma.solve", sigma_component_batch, True, sigma_nodes),
            ("sigma.find_real_poles", find_real_poles, True, None),
            ("quadrature.evaluate_component", quadrature.evaluate_component, True, None),
            ("quadrature.adaptive", quadrature.adaptive_segments, False, None),
            ("quadrature.panel", quadrature._panel, False, None),
            ("medium.polarization_image_batch", polarization_image_batch, True, None),
        ]
        for name, fn, timed, on_result in functions:
            _replace_everywhere(fn, self._wrap(name, fn, timed, on_result))

        rule = quadrature.FrozenComponentRule
        methods = [
            (rule, "__init__", "quadrature.frozen_rule.build", True, rule_nodes),
            (rule, "eval_batch", "quadrature.frozen_rule.eval", True, rule_pairs),
            (fmm.QuadTree, "__init__", "fmm.tree", False, tree_level),
        ]
        for cls, attr, name, timed, on_result in methods:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), timed, on_result))

    def self_times(self):
        """Self seconds per span name, and the total of the root spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        roots = 0.0
        for (name, parent, start, end), covered in zip(self.spans, child):
            own[name] += end - start - covered
            if parent < 0:
                roots += end - start
        return own, roots

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        spans = [[n, p, s - t0, e - t0] for n, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": spans}, fh)


def _replace_everywhere(fn, wrapper):
    for modname, module in list(sys.modules.items()):
        if modname != "helmlayer" and not modname.startswith("helmlayer."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
