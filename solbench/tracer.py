"""Span tracing of solenoidlab layers, installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
solenoidlab module that holds a reference to it (the package imports names
with `from .x import f`), so calls between layers pass through the wrapper.
A wrapper records one span per call (start, end, parent span) and the
work counts listed in `TRACED`.  Self time is a span's duration minus the
time covered by its direct child spans.  Spans stay in memory; `metrics`
folds them into the per-layer figures at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _exp_sum_terms(args, kwargs):
    """Distinct (merged) phase pairs exp_sum evaluates for its tables."""
    from solenoidlab.twisted import _product_distribution

    tables = list(_arg(args, kwargs, 1, "tables"))
    last = np.unique(np.asarray(tables[-1].values, dtype=float)).size
    if len(tables) == 1:
        return last
    return _product_distribution(tables[:-1])[0].size * last


# (module, function, span name, {counter: count(args, kwargs)}).  The
# branch solver `_solve_branch` is traced as `symbolic.inverse_branch`:
# every inverse-branch solve in the package, public or not, goes through it.
TRACED = [
    ("circle_map", "g_eval", "circle_map.g_eval",
     {"points": lambda a, k: np.size(_arg(a, k, 1, "x"))}),
    ("circle_map", "f_eval", "circle_map.f_eval",
     {"points": lambda a, k: np.size(_arg(a, k, 1, "x"))}),
    ("symbolic", "_solve_branch", "symbolic.inverse_branch",
     {"points": lambda a, k: np.size(_arg(a, k, 2, "x"))}),
    ("symbolic", "level_endpoints", "symbolic.level_endpoints", {}),
    ("symbolic", "anchor_birkhoff_sums", "symbolic.anchor_birkhoff_sums", {}),
    ("thermo", "transfer_matrix", "thermo.transfer_matrix", {}),
    ("thermo", "solve_equilibrium", "thermo.solve_equilibrium", {}),
    ("thermo", "sample", "thermo.sample",
     {"points": lambda a, k: int(_arg(a, k, 1, "count"))}),
    ("thermo", "gibbs_ratio_stats", "thermo.gibbs_ratio_stats", {}),
    ("thermo", "large_deviation_profile", "thermo.large_deviation_profile", {}),
    ("solenoid", "step_many", "solenoid.step_many",
     {"points": lambda a, k: np.size(_arg(a, k, 1, "thetas"))}),
    ("twisted", "zeta_table", "twisted.zeta_table", {}),
    ("twisted", "concentration_report", "twisted.concentration_report", {}),
    ("twisted", "exp_sum", "twisted.exp_sum", {"terms": _exp_sum_terms}),
    ("twisted", "twisted_norm_profile", "twisted.twisted_norm_profile", {}),
    ("fourier", "mu_hat", "fourier.mu_hat",
     {"samples": lambda a, k: int(_arg(a, k, 3, "samples", 100_000))}),
    ("fourier", "nu_hat", "fourier.nu_hat", {}),
    ("cli", "run", "cli.run", {}),
]

# artifact writers: counted in bytes, not spanned (their time is cli.run's)
WRITERS = [("cli", "_write_json"), ("cli", "_write_csv")]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            for counter, count in counters.items():
                n = count(args, kwargs)
                self.counts[f"{name}.{counter}"] += n
                if parent is not None:
                    self.counts[f"{name}.{counter}@{parent.name}"] += n
            span = Span(name, parent, time.perf_counter())
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)

        return wrapper

    def _wrap_writer(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.counts["cli.artifact_bytes"] += Path(path).stat().st_size
            return out

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper across the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "solenoidlab" or n.startswith("solenoidlab.")]
        swaps = [(getattr(sys.modules[f"solenoidlab.{mod}"], fn),
                  lambda f, n=name, c=counters: self._wrap(f, n, c))
                 for mod, fn, name, counters in TRACED]
        swaps += [(getattr(sys.modules[f"solenoidlab.{mod}"], fn), self._wrap_writer)
                  for mod, fn in WRITERS]
        for original, make in swaps:
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Per-span `<span>.self_s` and `.calls`, the counters, and root-span time."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[f"{span.name}.self_s"] += span.end - span.start - span.child_s
            out[f"{span.name}.calls"] += 1
        out.update(self.counts)
        solves = self.counts.get("symbolic.inverse_branch.points", 0)
        inner = self.counts.get("circle_map.g_eval.points@symbolic.inverse_branch", 0)
        out["symbolic.inverse_branch.g_evals_per_point"] = inner / solves if solves else 0.0
        out["root_s"] = sum(s.end - s.start for s in self.spans if s.parent is None)
        return dict(out)
