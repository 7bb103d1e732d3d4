"""Run the `hpp` CLI once with its layers wrapped from the outside.

Usage (with the repository's `src/` first on PYTHONPATH):

    python perfbench/traced_cli.py STATS.json <hpp arguments ...>

Every public module-level function of the traced layers, plus the oracle
and view methods listed in METHODS, is replaced by a wrapper that counts
calls and sums total and self time (total minus time spent in wrapped
callees).  Wrappers aggregate per name instead of recording one span per
call, so hot leaves such as `gf.chi` stay cheap enough to trace.  Every
binding of a wrapped function is patched, including the copies that
`from .x import f` leaves in other modules; a binding left unpatched is
reported in the stats file so the caller can fail the run.

Span names are `<layer>.<function>`; they are the stage names the
benchmark reports and that in-program spans should reuse.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import types
from time import perf_counter

LAYERS = ("gf", "polyring", "blackbox", "fibers", "pgm", "reduction", "cli")

# (module, class, method, span name).  FieldCtx arithmetic and the good-set
# predicates are called millions of times per run and are left to their
# callers' self time.
METHODS = (
    ("blackbox", "HiddenInstance", "query", "blackbox.query"),
    ("reduction", "UnivariateView", "verify_candidate", "reduction.view.verify_candidate"),
    ("reduction", "UnivariateView", "effective_coeffs", "reduction.view.effective_coeffs"),
)

# Spans whose boolean result is an oracle verification verdict.
VERIFY_SPANS = ("blackbox.verify_candidate", "reduction.view.verify_candidate")


class Tracer:
    """Aggregated spans plus the counters that need a call's context."""

    def __init__(self):
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        # Child time accumulated by the span on top; the sentinel at the
        # bottom collects time spent outside any span.
        self.stack = [0.0]
        self.counters = {
            "bad_draws": 0,
            "verifications": 0,
            "verify_accepts": 0,
            "verify_queries": 0,
            "solve_queries": 0,
        }
        self.verify_depth = 0

    def span(self, name, fn, on_result=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name, fn):
        """Call counter for generator functions: their work runs later,
        inside whichever span consumes the generator."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks ---------------------------------------------------------

    def on_draw(self, outcome):
        if outcome is None:  # pgm.BAD_BRANCH
            self.counters["bad_draws"] += 1

    def on_verdict(self, accepted):
        self.counters["verifications"] += 1
        self.counters["verify_accepts"] += bool(accepted)


def _verify_scope(tracer: Tracer, fn):
    """Mark queries made during a verification as verify queries."""

    def wrapper(*args, **kwargs):
        tracer.verify_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.verify_depth -= 1

    return wrapper


def _query_kind(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        key = "verify_queries" if tracer.verify_depth else "solve_queries"
        tracer.counters[key] += 1
        return result

    return wrapper


def _traced_solvers(tracer: Tracer, factory):
    """Wrap each solver closure the factory returns as span `pgm.solver`."""

    def make_quantum_solver(*args, **kwargs):
        return tracer.span("pgm.solver", factory(*args, **kwargs))

    return make_quantum_solver


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        return tracer.count(name, fn)
    if name == "pgm.sample_outcome":
        return tracer.span(name, fn, tracer.on_draw)
    if name == "pgm.make_quantum_solver":
        return tracer.span(name, _traced_solvers(tracer, fn))
    if name == "blackbox.query":
        return tracer.span(name, _query_kind(tracer, fn))
    if name in VERIFY_SPANS:
        return tracer.span(name, _verify_scope(tracer, fn), tracer.on_verdict)
    return tracer.span(name, fn)


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced layers in place; return bindings left unpatched."""
    modules = {name: importlib.import_module(f"hpp.{name}") for name in LAYERS}
    replacements: dict[int, object] = {}
    originals: dict[int, str] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not isinstance(obj, types.FunctionType)
                or obj.__module__ != mod.__name__
            ):
                continue
            name = f"{layer}.{attr}"
            replacements[id(obj)] = _wrap(tracer, name, obj)
            originals[id(obj)] = name

    for layer, cls_name, meth, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, _wrap(tracer, name, vars(cls)[meth]))

    # Rebind every copy, in every loaded hpp module, of a wrapped function.
    hpp_modules = [
        m for key, m in list(sys.modules.items()) if key == "hpp" or key.startswith("hpp.")
    ]
    for mod in hpp_modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])

    return [
        f"{mod.__name__}.{attr} -> {originals[id(obj)]}"
        for mod in hpp_modules
        for attr, obj in vars(mod).items()
        if id(obj) in originals
    ]


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    unpatched = install(tracer)
    try:
        return sys.modules["hpp.cli"].main(cli_args)
    finally:
        doc = {
            "spans": tracer.spans,
            "counters": tracer.counters,
            "unpatched": unpatched,
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
