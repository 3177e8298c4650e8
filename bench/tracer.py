"""Outside-in span tracer for rigidlab's layers.

The tracer never edits the program: it replaces public functions with timing
wrappers wherever their names are bound (the defining module and every
``from ... import`` site), wraps ``project_to_boundary`` on each ``Domain``
subclass and the ``g``/``dg``/``d2g`` oracles of the model metrics it is
given, and puts every original back on ``restore``.  A target that no longer
exists is listed in ``missing`` instead of failing the run.

Each call becomes a span ``(name, start, end, parent, op)``.  Spans stay in
memory; ``layer_table`` folds them into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions wrapped at every binding site
FUNCTION_TARGETS = {
    "domain": ("boundary_data",),
    "kobayashi": ("dist_bounds", "metric_bounds", "supporting_halfplanes",
                  "line_boundary_distance", "kob_ball_inclusion", "calibrate_alpha0"),
    "cgeo": ("complex_geodesic", "boundary_hyperplane_probe", "gromov_product"),
    "schwarz": ("certify_self_map", "interior_displacement", "error_modulus",
                "displacement_sup", "disk_rigidity_pipeline"),
    "riemann": ("christoffel", "christoffel_curvature", "geodesic_flow", "parallel_transport",
                "jacobi_flow", "exp_log", "tangent_distances", "backward_estimate",
                "poincare_disk", "sphere_stereographic", "bergman_ball"),
    "kahler": ("property_bg_estimate",),
    "rigidity": ("convex_pipeline", "biholo_pipeline"),
    "cli": ("emit_report",),
}
DOMAIN_METHOD = "project_to_boundary"
ORACLES = ("g", "dg", "d2g")
MODELS = ("euclid", "poincare", "sphere", "bergman-ball-2")
# span name -> (suffix, size of the returned value) recorded next to the call count
RESULT_SIZES = {"kobayashi.supporting_halfplanes": ("planes", len)}

_WITH_ERRORS = {"riemann.exp_log", "domain.project_to_boundary", "domain.boundary_data"}
_BUILDERS = ("riemann.poincare_disk", "riemann.sphere_stereographic", "riemann.bergman_ball")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for oracle in ORACLES:
        for model in MODELS:
            names += [(f"riemann.{oracle}.{model}.calls", "count"),
                      (f"riemann.{oracle}.{model}.self_s", "s")]
    for layer, funcs in FUNCTION_TARGETS.items():
        for func in funcs:
            span = f"{layer}.{func}"
            if span in _BUILDERS:
                names.append((f"{span}.self_s", "s"))
                continue
            names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
            if span in _WITH_ERRORS:
                names.append((f"{span}.errors", "count"))
            if span in RESULT_SIZES:
                names.append((f"{span}.{RESULT_SIZES[span][0]}", "count"))
    span = f"domain.{DOMAIN_METHOD}"
    names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.errors", "count")]
    names += [("kobayashi.bound_gap_rel", "ratio"),
              ("harness.unattributed_s", "s"), ("harness.trace_overhead", "ratio")]
    return names


def _rigidlab_modules() -> dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "rigidlab" or name.startswith("rigidlab."))}


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    """Wraps rigidlab's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op: int | None = None     # id of the op being run, None between ops
        self.covered = 0.0             # time inside outermost spans
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span index, time covered by child spans]
        self._stats: dict[str, list] = {}   # name -> [calls, self seconds, errors]
        self._sizes: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self._stats.setdefault(name, [0, 0.0, 0])
        sized = RESULT_SIZES.get(name)
        if sized:
            self._sizes.setdefault(name, 0)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered += duration
                spans[index] = (name, start, end, parent, self.op)
            if sized:
                self._sizes[name] += sized[1](result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, metrics=()) -> None:
        """Wrap every target; ``metrics`` are the MetricFields whose oracles to wrap."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _rigidlab_modules()
        for layer, funcs in FUNCTION_TARGETS.items():
            home = modules.get(f"rigidlab.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(home, func, None)
                if not callable(original):
                    self._note_missing(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper, original)

        domain = modules.get("rigidlab.domain")
        base = getattr(domain, "Domain", None)
        name = f"domain.{DOMAIN_METHOD}"
        classes = [c for c in _subclasses(base) if DOMAIN_METHOD in vars(c)] if base else []
        if not classes:
            self._note_missing(name)
        for cls in classes:
            original = vars(cls)[DOMAIN_METHOD]
            self._patch(cls, DOMAIN_METHOD, self._wrap(name, original), original)

        for metric in metrics:
            for oracle in ORACLES:
                original = getattr(metric, oracle, None)
                if not callable(original):
                    self._note_missing(f"riemann.{oracle}.{metric.name}")
                    continue
                wrapper = self._wrap(f"riemann.{oracle}.{metric.name}", original)
                self._patch(metric, oracle, wrapper, original)

    def restore(self) -> None:
        """Put every wrapped binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self._stats.get(name, [0])[0]

    def layer_table(self) -> dict[str, float]:
        """Per-layer metric values; a wrapped target that was never called reads 0."""
        table = {}
        for name, (calls, self_s, errors) in self._stats.items():
            table[f"{name}.calls"] = calls
            table[f"{name}.self_s"] = self_s
            table[f"{name}.errors"] = errors
        for name, size in self._sizes.items():
            table[f"{name}.{RESULT_SIZES[name][0]}"] = size
        return table

    def call_counts(self) -> dict[str, int]:
        return {name: stats[0] for name, stats in sorted(self._stats.items())}

