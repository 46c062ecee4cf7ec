"""Spans around calls into nichewave's public functions, kept in memory.

The tracer times each layer from outside: it replaces a public function or
method by a wrapper that records a span (name, start, end, parent, self
time) and restores the original when the traced call ends. A function is
replaced in every nichewave module that holds it by name, because `cli`,
`stationary` and `experiments` use `from .x import y` and a call through a
name left alone would skip the wrapper.

Work done inside a function rather than through a public call, such as the
dense matvec in `spectral._certified_iteration` and the ARPACK matvecs, is
covered by the enclosing span (`spectral.*`), not by `operators.convolve_*`.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

_MARK = "_perfbench_traced"


def _last_change(sol) -> dict:
    changes = [c for _, c in sol.R_history if math.isfinite(c)]
    return {"r_change": changes[-1] if changes else 0.0}


def _spectral(est) -> dict:
    return {"iterations": est.iterations, "width": est.width}


# (span name, module, class or None, attribute, what to keep from the result)
TARGETS = (
    ("operators.matrix", "nichewave.operators", "DiscreteOperator", "matrix", None),
    ("operators.conv_matrix", "nichewave.operators", "DiscreteOperator", "conv_matrix", None),
    ("operators.convolve", "nichewave.operators", "DiscreteOperator", "convolve", None),
    ("operators.rhs", "nichewave.operators", "DiscreteOperator", "rhs", None),
    ("spectral.principal_eigenvalue", "nichewave.spectral", None, "principal_eigenvalue", _spectral),
    ("spectral.rayleigh_lambda_v", "nichewave.spectral", None, "rayleigh_lambda_v", _spectral),
    ("stationary.ball", "nichewave.stationary", None, "solve_stationary_ball",
     lambda sol: {"iterations": sol.iterations}),
    ("stationary.wholespace", "nichewave.stationary", None, "solve_stationary_wholespace",
     _last_change),
    ("grids.common_with", "nichewave.grids", "Grid", "common_with", None),
    ("experiments.fd", "nichewave.experiments", None, "local_kpp_solve_fd",
     lambda res: {"iterations": res.iterations}),
    ("evolution.evolve", "nichewave.evolution", None, "evolve", None),
)


def _nichewave_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nichewave" or name.startswith("nichewave."))]


class Tracer:
    """Install with `with tracer:`; spans stay in `tracer.spans` afterwards."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, keep):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None, "child_s": 0.0}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = perf_counter()
                if span["parent"] is not None:
                    spans[span["parent"]]["child_s"] += span["end"] - span["start"]
            if keep is not None:
                span.update(keep(result))
            return result

        setattr(traced, _MARK, True)
        return traced

    def __enter__(self):
        modules = _nichewave_modules()
        for name, modname, clsname, attr, keep in TARGETS:
            module = importlib.import_module(modname)
            if clsname is not None:
                cls = getattr(module, clsname)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original, keep))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        return False

    def leftovers(self) -> list[str]:
        """Names in nichewave modules and classes that still hold a wrapper."""
        found = []
        for mod in _nichewave_modules():
            for key, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                              if getattr(v, _MARK, False)]
        found += [f"{owner.__name__}.{key}" for owner, key, original in self._patches
                  if getattr(owner, key) is not original]
        return sorted(set(found))

    # --- metrics ------------------------------------------------------------

    def _inclusive(self, names) -> tuple[int, float]:
        """(calls, time) of spans named in `names`, not counting time nested
        inside another span of the same set."""
        calls, total = 0, 0.0
        for span in self.spans:
            if span["name"] not in names:
                continue
            calls += 1
            if not self._has_ancestor(span, names):
                total += span["end"] - span["start"]
        return calls, total

    def _has_ancestor(self, span, names) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] in names:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def _sum(self, name, key):
        return sum(s[key] for s in self.spans if s["name"] == name and key in s)

    def layer_metrics(self, wall_s: float) -> dict:
        spectral = {"spectral.principal_eigenvalue", "spectral.rayleigh_lambda_v"}
        conv_calls, conv_s = self._inclusive({"operators.convolve"})
        rhs_calls, rhs_s = self._inclusive({"operators.rhs"})
        spec_calls, spec_s = self._inclusive(spectral)
        changes = [s["r_change"] for s in self.spans if "r_change" in s]
        widths = [s["width"] for s in self.spans if "width" in s]
        top = sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
        return {
            "operators.assembly_s": self._inclusive({"operators.matrix", "operators.conv_matrix"})[1],
            "operators.convolve_calls": conv_calls,
            "operators.convolve_s": conv_s,
            "operators.rhs_calls": rhs_calls,
            "operators.rhs_s": rhs_s,
            "spectral.calls": spec_calls,
            "spectral.solve_s": spec_s,
            "spectral.iterations": sum(self._sum(n, "iterations") for n in spectral),
            "spectral.width_max": max(widths, default=0.0),
            "stationary.ball_s": self._inclusive({"stationary.ball"})[1],
            "stationary.ball_iterations": self._sum("stationary.ball", "iterations"),
            "stationary.wholespace_s": self._inclusive({"stationary.wholespace"})[1],
            "stationary.r_change_final": changes[-1] if changes else 0.0,
            "grids.common_with_s": self._inclusive({"grids.common_with"})[1],
            "experiments.fd_s": self._inclusive({"experiments.fd"})[1],
            "experiments.fd_iterations": self._sum("experiments.fd", "iterations"),
            "evolution.evolve_s": self._inclusive({"evolution.evolve"})[1],
            "evolution.steps": sum(1 for s in self.spans if s["name"] == "operators.rhs"
                                   and self._has_ancestor(s, {"evolution.evolve"})),
            "cli.other_s": wall_s - top,
        }

    def dump(self) -> dict:
        """Spans with self time, and calls/total/self time per span name."""
        spans, by_name = [], {}
        for s in self.spans:
            duration = s["end"] - s["start"]
            self_s = duration - s["child_s"]
            spans.append({"name": s["name"], "start": s["start"], "end": s["end"],
                          "parent": s["parent"], "self_s": self_s})
            agg = by_name.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += self_s
        return {"by_name": by_name, "spans": spans}
