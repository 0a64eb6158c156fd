"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps the public functions of the layer modules, and
`GradedAlgebra.piece`, in every `possing.*` namespace that binds the same
function object: the modules import each other's functions by name, so
patching only the defining module would miss most callers.  Each wrapper
pushes a span on a stack; a layer's self time is the duration of its spans
minus the part covered by wrapped callees.  A function's inclusive time
counts only its outermost activation.

Counts come only from arguments and return values, so two traced runs on
the same inputs report identical counts.  A traced name missing from the
program (removed by a refactor) is listed in `absent` and reports zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "poly", "localalg", "newton", "grading", "nondeg", "normalform")

# Leaf helpers called millions of times from the inner loops of std_basis and
# the lattice enumeration.  A wrapper costs more than their bodies, so their
# time stays with the caller.
UNWRAPPED = {
    "poly": {"mono_degree", "mono_mul", "mono_divides", "mono_div", "mono_lcm",
             "degrevlex_key", "local_key"},
    "newton": {"valuation_mono_shifted"},
    "localalg": {"leading_monomial"},
}

# metric name -> qualified functions whose outermost calls it times
INCLUSIVE = {
    "localalg.std_basis_s": ("localalg.std_basis",),
    "localalg.containment_s": ("localalg.min_power_containment",),
    "localalg.saturate_s": ("localalg.saturate",),
    "newton.lattice_s": ("newton.lattice_points_shifted",),
    "newton.polytope_s": ("newton.cpolytope_from_poly", "newton.cpolytope_from_weights"),
    "poly.substitute_s": ("poly.substitute",),
}
CALLS = {
    "localalg.std_basis_calls": "localalg.std_basis",
    "newton.lattice_calls": "newton.lattice_points_shifted",
    "grading.regular_basis_calls": "grading.regular_basis",
    "poly.substitute_calls": "poly.substitute",
}
COUNTS = (
    "localalg.std_basis_gens_in", "localalg.std_basis_gens_out",
    "newton.lattice_points", "grading.pieces", "grading.echelon_rows",
    "grading.echelon_rank", "grading.ray_scan_steps", "nondeg.face_checks",
    "normalform.steps",
)
SELF = tuple("%s.self_s" % layer for layer in LAYERS)


def _piece_report(tracer, report):
    if id(report) in tracer.seen_pieces:
        return  # GradedAlgebra caches pieces; count each one once
    tracer.seen_pieces[id(report)] = report
    tracer.counts["grading.pieces"] += 1
    tracer.counts["grading.echelon_rows"] += len(report.image_labels)
    tracer.counts["grading.echelon_rank"] += report.rank


def _std_basis(tracer, args, result):
    tracer.counts["localalg.std_basis_gens_in"] += len(args[0])
    tracer.counts["localalg.std_basis_gens_out"] += len(result.generators)


def _lattice(tracer, args, result):
    tracer.counts["newton.lattice_points"] += len(result)


def _ray_criterion(tracer, args, result):
    tracer.counts["grading.ray_scan_steps"] += sum(
        ray.multiple if ray.multiple is not None else ray.scan_bound
        for ray in result.rays)


def _innd(tracer, args, result):
    tracer.counts["nondeg.face_checks"] += len(result.checks)


def _normal_form(tracer, args, result):
    tracer.counts["normalform.steps"] += len(result.transformations)


# qualified name -> count hook(tracer, args, result)
HOOKS = {
    "localalg.std_basis": _std_basis,
    "newton.lattice_points_shifted": _lattice,
    "grading.graded_piece": lambda t, a, r: _piece_report(t, r),
    "grading.GradedAlgebra.piece": lambda t, a, r: _piece_report(t, r),
    "grading.ray_criterion": _ray_criterion,
    "nondeg.innd_check": _innd,
    "normalform.normal_form": _normal_form,
}
# arguments that may be one-shot iterables and are materialised before the
# call, so the count hook can measure them
MATERIALISE = {"localalg.std_basis"}


class Tracer:
    def __init__(self):
        self.stack = []  # [qualname, layer, start, child_time]
        self.active = Counter()  # qualname -> open activations
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.seen_pieces = {}
        self.absent = []
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, qualname: str, layer: str, fn):
        hook = HOOKS.get(qualname)
        materialise = qualname in MATERIALISE
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialise and args:
                args = (list(args[0]),) + args[1:]
            clock = time.perf_counter
            tracer.stack.append([qualname, layer, clock(), 0.0])
            tracer.active[qualname] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                _, _, start, child = tracer.stack.pop()
                duration = clock() - start
                tracer.active[qualname] -= 1
                tracer.self_time[layer] += duration - child
                if not tracer.active[qualname]:
                    tracer.inclusive[qualname] += duration
                if tracer.stack:
                    tracer.stack[-1][3] += duration
                tracer.calls[qualname] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def end_query(self):
        """Drop references kept for de-duplication within one query."""
        self.seen_pieces.clear()

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(qualname, layer, function) for every function to wrap."""
        for layer in LAYERS:
            module = sys.modules.get("possing." + layer)
            if module is None:
                continue
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or name in UNWRAPPED.get(layer, ())):
                    continue
                yield "%s.%s" % (layer, name), layer, fn

    def install(self):
        self.absent = []
        for layer in LAYERS:
            try:
                importlib.import_module("possing." + layer)
            except ModuleNotFoundError:
                self.absent.append("possing." + layer)
        grading = sys.modules.get("possing.grading")
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if (n == "possing" or n.startswith("possing.")) and m is not None]
        for qualname, layer, fn in self._targets():
            wrapper = self._wrap(qualname, layer, fn)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is fn:
                        self._patches.append((ns, attr, value))
                        ns[attr] = wrapper
        cls = getattr(grading, "GradedAlgebra", None)
        method = getattr(cls, "piece", None) if cls is not None else None
        if method is None:
            self.absent.append("grading.GradedAlgebra.piece")
        else:
            self._patches.append((cls, "piece", method))
            setattr(cls, "piece", self._wrap("grading.GradedAlgebra.piece", "grading", method))
        wrapped = {q for q, _, _ in self._targets()} | {"grading.GradedAlgebra.piece"}
        named = set(CALLS.values()) | set(HOOKS) | {
            q for qs in INCLUSIVE.values() for q in qs}
        self.absent.extend(sorted(q for q in named - wrapped if q not in self.absent))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {name: self.self_time[name.split(".")[0]] for name in SELF}
        for metric, qualnames in INCLUSIVE.items():
            out[metric] = sum(self.inclusive[q] for q in qualnames)
        for metric, qualname in CALLS.items():
            out[metric] = self.calls[qualname]
        for metric in COUNTS:
            out[metric] = self.counts[metric]
        return out

    def snapshot(self) -> dict:
        """Per-layer self time so far, to split one query's time by layer."""
        return dict(self.self_time)
