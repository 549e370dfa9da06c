"""Pass-through wrappers that time and count the program's layers.

``install`` replaces each target function with a wrapper that records a
span (name, start, end, parent span, CLI call id) or just counts calls.
The wrapper is bound wherever the original object is bound: on its
defining module or class and on every module or class of the package that
holds the same object, e.g. through ``from .aberth import roots_aberth``
or ``__rmul__ = __mul__``.  Imports made inside functions resolve through
the defining module at call time, so they reach the wrapper too.

Spans stay in memory; ``write_spans`` writes them out and ``summary``
turns them into per-layer metrics named ``<module>.<function>.<metric>``:

* ``calls``: calls made, counting those that raised;
* ``busy_s``: wall time inside the layer, nested calls of the same layer
  counted once;
* ``self_s``: span time not covered by the span's child spans;
* ``errors``: exceptions that passed through the wrapper, also split as
  ``errors.<ExceptionType>``.

Tracker steps are counted from outside ``tracking.track_family``: attempts
are calls to the ``coeffs_fn`` passed in, minus the start evaluation;
accepted steps are records appended to the trace, minus the start record;
rejected = attempts - accepted.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "pearcey_wkb"

# (target, kind): "span" records a span, "count" only counts calls
TARGETS = [
    ("aberth.roots_aberth", "span"),
    ("aberth.poly_eval_many", "count"),
    ("multipoly.MultiPoly.eval_numeric", "span"),
    ("multipoly.MultiPoly.as_univariate", "count"),
    ("multipoly.MultiPoly.__mul__", "span"),
    ("multipoly.resultant", "span"),
    ("geometry.singular_cubic_coeffs", "span"),
    ("geometry.stokes_sextic_coeffs", "span"),
    ("geometry.char_roots", "span"),
    ("geometry.critical_values", "count"),
    ("tracking.match_labels", "span"),
    ("tracking.track_family", "span"),
    ("tracking.solve_and_match", "count"),
    ("stokes.raster_section", "span"),
    ("stokes.RasterSection.to_csv", "span"),
    ("stokes.detect_events", "span"),
    ("stokes.track_u", "span"),
    ("stokes.connection_walk", "span"),
    ("svgout.render_section", "span"),
    ("svgout.render_trajectories", "span"),
    ("borel.QuarticSpec.coeffs", "span"),
    ("borel.SheetField.anchor", "span"),
    ("borel.SheetField.track_from", "count"),
    ("borel.track_s_with_bows", "count"),
    ("borel.psi_borel_eval", "span"),
    ("borel.monodromy", "span"),
    ("borel.discontinuity", "span"),
    ("borel.psi_on_cut", "span"),
    ("borel.verify_annihilation", "span"),
    ("quadrature.laplace_borel_sum", "span"),
    ("quadrature.pearcey_quadrature", "span"),
    ("quadrature.gauss_segment", "count"),
    ("wkb_series.build_series", "span"),
    ("wkb_series.borel_coeffs", "span"),
    ("wkb_series.f0_branch", "count"),
    ("zeta_ring.ZetaRational.__mul__", "span"),
    ("zeta_ring.ZetaRational.derive", "span"),
    ("cli.main", "span"),
]


class Tracer:
    """In-memory span store; one instance per traced interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.calls: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.call_id = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.span_names: list[str] = []
        self.count_names: list[str] = []
        self.bindings: dict[str, int] = {}

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, prepare=None, post=None):
        names, parents, calls = self.names, self.parents, self.calls
        starts, ends, stack, errors = self.starts, self.ends, self.stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if prepare is not None:
                args, kw, done = prepare(args, kw)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            calls.append(self.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kw)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                errors[name, type(exc).__name__] += 1
                if prepare is not None:
                    done(None)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if prepare is not None:
                done(result)
            if post is not None:
                post(args, kw, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            try:
                return fn(*args, **kw)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise

        return wrapper

    # -- layer-specific counts --------------------------------------------

    def _roots_prepare(self, args, kw):
        coeffs = args[0] if args else kw["coeffs"]
        self.counts[f"aberth.roots_aberth.deg{len(coeffs) - 1}.calls"] += 1
        return args, kw, _noop

    def _track_prepare(self, args, kw):
        from pearcey_wkb import tracking

        coeffs_fn = args[0] if args else kw.pop("coeffs_fn")
        evaluations = [0]

        def counted(tau):
            evaluations[0] += 1
            return coeffs_fn(tau)

        if kw.get("trace") is None:
            kw = dict(kw, trace=tracking.Trace())
        trace = kw["trace"]
        before = len(trace.taus)

        def done(_result):
            attempts = max(0, evaluations[0] - 1)
            accepted = max(0, len(trace.taus) - before - 1)
            self.counts["tracking.track_family.steps_attempted"] += attempts
            self.counts["tracking.track_family.steps_accepted"] += accepted

        return (counted,) + tuple(args[1:]), kw, done

    def _raster_post(self, args, kw, section):
        self.counts["stokes.raster_section.cells"] += section.resolution**2
        self.counts["stokes.raster_section.near_turning_cells"] += int(section.near_turning.sum())

    def _events_post(self, args, kw, result):
        self.counts["stokes.detect_events.events"] += len(result[1])

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"{PACKAGE}.{t.split('.')[0]}") for t, _ in TARGETS]
        hooks = {
            "aberth.roots_aberth": {"prepare": self._roots_prepare},
            "tracking.track_family": {"prepare": self._track_prepare},
            "stokes.raster_section": {"post": self._raster_post},
            "stokes.detect_events": {"post": self._events_post},
        }
        package_modules = [
            m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for (target, kind), module in zip(TARGETS, modules):
            owner = module
            for part in target.split(".")[1:-1]:
                owner = getattr(owner, part)
            attr = target.split(".")[-1]
            orig = vars(owner)[attr]
            if kind == "span":
                wrapper = self.span(target, orig, **hooks.get(target, {}))
                self.span_names.append(target)
            else:
                wrapper = self.count(target, orig)
                self.count_names.append(target)
            self.bindings[target] = _rebind(orig, wrapper, package_modules)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        for sub, fn in list(cli._COMMANDS.items()):
            name = f"cli.{sub}"
            cli._COMMANDS[sub] = self.span(name, fn)
            self.span_names.append(name)
        return self

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        for name in self.span_names:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(n):
            name = self.names[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
            if self._outermost(i):
                out[f"{name}.busy_s"] += dur[i]
        for name in self.count_names:
            out[f"{name}.calls"] = self.counts[name]
        for name in self.span_names + self.count_names:
            out[f"{name}.errors"] = 0
        for (name, exc), k in sorted(self.errors.items()):
            out[f"{name}.errors"] += k
            out[f"{name}.errors.{exc}"] = k
        for deg in (3, 4, 6):
            out.setdefault(f"aberth.roots_aberth.deg{deg}.calls", 0)
        for key in ("stokes.raster_section.cells", "stokes.raster_section.near_turning_cells",
                    "stokes.detect_events.events", "tracking.track_family.steps_attempted",
                    "tracking.track_family.steps_accepted"):
            out[key] = self.counts[key]
        out.update({k: v for k, v in self.counts.items() if k.endswith(".calls")})
        attempted = out["tracking.track_family.steps_attempted"]
        accepted = out["tracking.track_family.steps_accepted"]
        out["tracking.track_family.steps_rejected"] = attempted - accepted
        out["tracking.track_family.accept_ratio"] = accepted / attempted if attempted else 0.0
        return out

    def busy_by_call(self) -> dict[int, dict[str, float]]:
        """Busy seconds per layer within each CLI call."""
        out: dict[int, dict[str, float]] = {}
        for i in range(len(self.starts)):
            if self._outermost(i):
                busy = out.setdefault(self.calls[i], {})
                name = self.names[i]
                busy[name] = busy.get(name, 0.0) + self.ends[i] - self.starts[i]
        return out

    def _outermost(self, i: int) -> bool:
        """Whether span i has no enclosing span of the same layer."""
        name, p = self.names[i], self.parents[i]
        while p >= 0 and self.names[p] != name:
            p = self.parents[p]
        return p < 0

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line (times in seconds)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("id\tparent\tcall\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                f.write(
                    f"{i}\t{self.parents[i]}\t{self.calls[i]}\t{self.names[i]}\t"
                    f"{self.starts[i] - t0!r}\t{self.ends[i] - t0!r}\n"
                )


def _noop(_result) -> None:
    pass


def _rebind(orig, wrapper, modules) -> int:
    """Replace every binding of ``orig`` in the package; return how many."""
    count = 0
    seen_classes = set()
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
                count += 1
            elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                if id(value) in seen_classes:
                    continue
                seen_classes.add(id(value))
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, wrapper)
                        count += 1
    return count
