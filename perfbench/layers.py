"""Per-layer attribution for the traced run, from outside the program.

:class:`LayerTracer` wraps the public entry point of each layer (the
table in ``README.md``) and keeps a stack of open layer spans, so each
layer is charged its *self* time: its span minus the spans of the layers
it called.  Nothing inside ``src/`` is edited; the wrappers are patched
onto the modules and classes at run time, replacing the original
function wherever a module holds it by name, so ``from x import f``
call sites are covered too.

If a later refactor routes work around a wrapped entry point, that work
is charged to no layer and ``trace.coverage`` falls; the traced run
fails below :data:`MIN_COVERAGE`.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List

#: The traced run fails when layer self times explain less of the wall.
MIN_COVERAGE = 0.95

LAYERS = (
    "cat",
    "litmus",
    "symbolic",
    "herd",
    "executions",
    "kernel",
    "hardware",
    "opsim",
    "klitmus",
)


def _patch_everywhere(module, attr: str, wrapper: Callable) -> None:
    """Install ``wrapper`` for ``module.attr`` in every loaded ``repro``
    module that holds the original by name."""
    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        if loaded is not None and loaded.__dict__.get(attr) is original:
            setattr(loaded, attr, wrapper)


class LayerTracer:
    """Self time and call counts per layer, plus a few work counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Work counts gathered by the wrappers themselves.
        self.counts: Dict[str, int] = {
            "symbolic.decided": 0,
            "symbolic.match_calls": 0,
            "herd.runs": 0,
            "herd.checks": 0,
            "hardware.na": 0,
            "opsim.runs": 0,
        }
        # One frame per open span: [layer, start, time spent in children].
        self._stack: List[list] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self.calls[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def parent(self) -> str:
        """The innermost open layer, or ``""`` outside every layer."""
        return self._stack[-1][0] if self._stack else ""

    def total_s(self) -> float:
        return sum(self.self_s.values())

    # -- wrappers ------------------------------------------------------------

    def timed(self, layer: str, fn: Callable, after=None) -> Callable:
        """``fn`` charged to ``layer``; ``after(args, kwargs, result)``
        runs inside the span so it can count work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self._exit()

        return wrapper

    def timed_generator(self, layer: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is charged to
        ``layer`` (the consumer's work between items is not)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item
            finally:
                inner.close()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (for hot recursion)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry point (see ``README.md``), for the
        rest of the process."""
        import repro.analysis.symbolic as symbolic
        import repro.cat.eval as cat_eval
        import repro.corpus.sweep  # noqa: F401  holds load_model/compile_program
        import repro.executions.enumerate as enumerate_
        import repro.hardware.compile as hw_compile
        import repro.hardware.klitmus as klitmus
        import repro.herd as herd
        import repro.litmus.parser as parser
        from repro.analysis.symbolic.match import Matcher
        from repro.hardware.opsim import OperationalSimulator
        from repro.model import Model

        counts = self.counts

        def after_static(args, kwargs, verdict):
            if verdict is not None:
                counts["symbolic.decided"] += 1

        def after_run(args, kwargs, result):
            counts["herd.runs"] += 1

        def allows(fn):
            timed = self.timed("kernel", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.parent() == "herd":
                    counts["herd.checks"] += 1
                return timed(*args, **kwargs)

            return wrapper

        def compile_program(fn):
            timed = self.timed("hardware", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                except hw_compile.CompileError:
                    counts["hardware.na"] += 1
                    raise

            return wrapper

        def after_sample(args, kwargs, histogram):
            counts["opsim.runs"] += sum(histogram.values())

        _patch_everywhere(
            cat_eval, "load_model", self.timed("cat", cat_eval.load_model)
        )
        _patch_everywhere(
            parser, "parse_litmus", self.timed("litmus", parser.parse_litmus)
        )
        _patch_everywhere(
            symbolic,
            "static_verdict",
            self.timed("symbolic", symbolic.static_verdict, after_static),
        )
        Matcher.match = self.counted("symbolic.match_calls", Matcher.match)
        _patch_everywhere(
            herd, "verdict_row", self.timed("herd", herd.verdict_row)
        )
        _patch_everywhere(
            herd,
            "run_litmus_many",
            self.timed("herd", herd.run_litmus_many, after_run),
        )
        _patch_everywhere(
            enumerate_,
            "candidate_executions_sharded",
            self.timed_generator(
                "executions", enumerate_.candidate_executions_sharded
            ),
        )
        Model.allows = allows(Model.allows)
        _patch_everywhere(
            hw_compile,
            "compile_program",
            compile_program(hw_compile.compile_program),
        )
        OperationalSimulator.sample = self.timed(
            "opsim", OperationalSimulator.sample, after_sample
        )
        _patch_everywhere(
            klitmus, "run_klitmus", self.timed("klitmus", klitmus.run_klitmus)
        )


#: The unit of every ``per_layer`` metric.
UNITS = {
    "cat.load_ms": "ms",
    "litmus.parse_ms": "ms",
    "symbolic.self_ms": "ms",
    "symbolic.calls": "count",
    "symbolic.decided_share": "ratio",
    "symbolic.match_calls": "count",
    "herd.self_ms": "ms",
    "herd.early_exit_share": "ratio",
    "herd.check_skip_share": "ratio",
    "executions.self_ms": "ms",
    "executions.candidates": "count",
    "executions.trace_combos": "count",
    "executions.prune_share": "ratio",
    "kernel.check_ms": "ms",
    "kernel.check_calls": "count",
    "kernel.prelude_reuse": "ratio",
    "hardware.compile_ms": "ms",
    "hardware.compile_calls": "count",
    "hardware.na": "count",
    "opsim.self_ms": "ms",
    "opsim.runs": "count",
    "opsim.run_us": "us",
    "klitmus.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: LayerTracer,
    counters: Dict[str, int],
    wall_s: float,
    scaled_wall_s: float,
    loop_layer_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced run.

    ``counters`` are the program's own :mod:`repro.obs` counters.  The
    items took ``wall_s`` in all, ``scaled_wall_s`` at nominal host speed
    (see ``hostspeed.py``), and ``loop_layer_s`` of layer self time.
    Layer times are scaled by the run's mean speed factor;
    ``untraced_wall_s`` is already scaled.
    """
    factor = _share(scaled_wall_s, wall_s)
    ms = {layer: 1000.0 * factor * s for layer, s in tracer.self_s.items()}
    counts = tracer.counts
    candidates = counters.get("enumerate.candidates", 0)
    pruned = sum(
        n for name, n in counters.items()
        if name.startswith("enumerate.pruned.")
    )
    judged = sum(
        n for name, n in counters.items()
        if name.startswith("herd.") and name.endswith(".candidates")
    )
    hits = counters.get("vm.prelude_hits", 0)
    builds = counters.get("vm.prelude_builds", 0)
    return {
        "cat.load_ms": ms["cat"],
        "litmus.parse_ms": ms["litmus"],
        "symbolic.self_ms": ms["symbolic"],
        "symbolic.calls": tracer.calls["symbolic"],
        "symbolic.decided_share": _share(
            counts["symbolic.decided"], tracer.calls["symbolic"]
        ),
        "symbolic.match_calls": counts["symbolic.match_calls"],
        "herd.self_ms": ms["herd"],
        "herd.early_exit_share": _share(
            counters.get("herd.early_exit", 0), counts["herd.runs"]
        ),
        "herd.check_skip_share": _share(judged - counts["herd.checks"], judged),
        "executions.self_ms": ms["executions"],
        "executions.candidates": candidates,
        "executions.trace_combos": counters.get("enumerate.trace_combos", 0),
        "executions.prune_share": _share(pruned, pruned + candidates),
        "kernel.check_ms": ms["kernel"],
        "kernel.check_calls": tracer.calls["kernel"],
        "kernel.prelude_reuse": _share(hits, hits + builds),
        "hardware.compile_ms": ms["hardware"],
        "hardware.compile_calls": tracer.calls["hardware"],
        "hardware.na": counts["hardware.na"],
        "opsim.self_ms": ms["opsim"],
        "opsim.runs": counts["opsim.runs"],
        "opsim.run_us": 1000.0 * _share(ms["opsim"], counts["opsim.runs"]),
        "klitmus.self_ms": ms["klitmus"],
        "trace.coverage": _share(loop_layer_s, wall_s),
        "trace.overhead": _share(scaled_wall_s, untraced_wall_s),
    }
