"""Span tracer for homcat's public functions, kept entirely in the benchmark.

``Tracer.install`` replaces each function named in ``LAYERS`` at every
binding a loaded ``homcat`` module holds, so calls made inside the
library are traced as well as calls made by the benchmark.  Each call
records a span (function, start, end, parent span, operation id) in
memory; ``summary`` turns the spans into calls and self time per
function and layer, plus the work counters named in ``COUNTERS``.
A function that no longer exists is listed as absent instead of failing
the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# layer (module under homcat) -> the functions whose boundary is timed
LAYERS = {
    "matrices": (
        "mat_mul", "rref", "solve_linear", "kernel_basis", "rank", "mat_add", "mat_sub",
        "mat_neg", "mat_scale", "transpose", "block", "block_diag", "hstack", "vstack",
    ),
    "complexes": ("validate_complex", "cohomology"),
    "chainmaps": (
        "find_homotopy", "check_homotopy", "is_quasi_iso", "induced_cohomology_map",
        "validate_chain_map", "compose_chain_maps",
    ),
    "cones": ("mapping_cone", "check_les_exact"),
    "roofs": ("flip_cospan", "compose_roofs", "verify_roof_equivalence"),
    "session": ("parse_session", "emit_session"),
    "cli": ("run_command",),
}

COUNTERS = (
    "matrices.mat_mul.madds",
    "matrices.rref.cells",
    "chainmaps.find_homotopy.unknowns",
    "session.parse_session.bytes",
    "session.emit_session.bytes",
)

# functions whose repeated arguments the tracer detects, by value equality
REPEATS = ("complexes.cohomology", "chainmaps.validate_chain_map")

QUALNAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
HOOK = "trace.hook"


def shape_bucket(rows: int, cols: int) -> str:
    """Smallest power of two bounding both sides, as a histogram label."""
    side = 1
    while side < max(rows, cols):
        side *= 2
    return f"<={side}"


def self_times(spans: list[tuple]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    ``spans`` holds (function, start, end, parent index, op) tuples; a
    parent index of -1 marks a root.  Calls run on one thread, so the
    children of a span are disjoint intervals inside it.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in REPEATS}
        self.repeats: Counter = Counter()
        self.hist: Counter = Counter()
        self.absent: list[str] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS at every homcat.* binding that holds it."""
        homes = {}
        for layer in LAYERS:
            try:
                homes[layer] = importlib.import_module(f"homcat.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [m for name, m in sys.modules.items() if name == "homcat" or name.startswith("homcat.")]
        for qualname in QUALNAMES:
            layer, fn_name = qualname.split(".")
            original = getattr(homes[layer], fn_name, None)
            if original is None:
                self.absent.append(qualname)
                continue
            wrapped = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, qualname: str, fn):
        spans, stack, open_names = self.spans, self.stack, self.open_names
        hook = self._hook_for(qualname)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            open_names.append(qualname)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names.pop()
                spans[index] = (qualname, start, end, parent, self.op)
            if hook is not None:
                # the tracer's own bookkeeping is a span of its own, so no layer is charged for it
                begin = perf_counter()
                hook(args, result)
                spans.append((HOOK, begin, perf_counter(), parent, self.op))
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook_for(self, qualname: str):
        layer, fn_name = qualname.split(".")
        counts = self.counts
        if qualname in REPEATS:
            seen = self.seen[qualname]

            def repeat(args, result):
                if args in seen:
                    self.repeats[qualname] += 1
                else:
                    seen.add(args)

            return repeat
        if layer == "matrices":
            def histogram(args, result):
                m = args[0] if args and hasattr(args[0], "rows") else result
                self.hist[(fn_name, str(m.field), shape_bucket(m.rows, m.cols))] += 1
                if fn_name == "mat_mul":
                    counts["matrices.mat_mul.madds"] += args[0].rows * args[0].cols * args[1].cols
                elif fn_name == "rref":
                    counts["matrices.rref.cells"] += args[0].rows * args[0].cols
                elif fn_name == "solve_linear" and self.open_names[-1:] == ["chainmaps.find_homotopy"]:
                    # the homotopy system is whatever find_homotopy hands the solver directly
                    counts["chainmaps.find_homotopy.unknowns"] += args[0].cols

            return histogram
        if qualname == "session.parse_session":
            return lambda args, result: counts.update({"session.parse_session.bytes": len(args[0].encode())})
        if qualname == "session.emit_session":
            return lambda args, result: counts.update({"session.emit_session.bytes": len(result.encode())})
        return None

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += own
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "repeats": {name: self.repeats[name] for name in REPEATS},
            "hist": [[*key, n] for key, n in sorted(self.hist.items())],
            "absent": list(self.absent),
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans and the summary as JSON."""
        doc = {"spans": self.spans, "summary": self.summary(), **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
