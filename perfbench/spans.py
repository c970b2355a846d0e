"""Call recording and span tracing from outside the program.

:class:`Recorder` times every public call a workload makes and keeps
its result.  With ``traced=True`` it also records *spans*: while
:meth:`Recorder.instrument` is active, the public layer functions of
``repro`` are replaced by wrappers that open a span around each call.
Nothing inside ``src/repro`` changes; the wrappers are installed by
rebinding module attributes and restored afterwards.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index
of the enclosing span (or -1) and ``run`` the index of the top-level
call it belongs to.  Spans stay in memory and are written once, as
Chrome trace-event JSON (opens in Perfetto or ``chrome://tracing``).
A span's self time is its duration minus its children's durations
(one thread, so children never overlap).

The host time of subsystems *inside* the compiled engine (PreVVUnit,
MemoryController, LSQ, ControlMerge, DomainGate) is not reachable this
way: the engine calls them from generated step code.  Timing them from
outside would force the interpreted engine and measure a different
program, so ``dataflow.simulate`` is one span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional


class Call:
    """One public call made by a workload: its time and its result."""

    __slots__ = ("index", "label", "config", "start", "end", "result",
                 "error", "facts")

    def __init__(self, index: int, label: str, config: str):
        self.index = index
        self.label = label
        self.config = config
        #: ``time.perf_counter()`` stamps around the call
        self.start = self.end = 0.0
        self.result = None
        self.error = ""
        #: per-call facts gathered by the span wrappers while it ran
        self.facts: Dict[str, float] = {}


def _layer_targets():
    """``(span name, owner, attribute)`` for every instrumented function.

    ``owner`` is a class (the method is replaced on it) or a module (the
    function is replaced in every ``repro`` module that bound it).
    """
    from repro.area import report as area_report
    from repro.area import timing as area_timing
    from repro.compile import elastic
    from repro.dataflow import codegen, simulator
    from repro.eval import runner
    from repro.ir import interpreter
    from repro.kernels.base import Kernel

    return [
        ("ir.build", Kernel, "build_ir"),
        ("ir.golden", interpreter, "run_golden"),
        ("compile.elaborate", elastic, "compile_function"),
        ("codegen.plan", codegen, "plan_for"),
        ("dataflow.bind", simulator, "make_simulator"),
        ("dataflow.simulate", simulator.Simulator, "run"),
        ("dataflow.simulate", codegen.CompiledSimulator, "run"),
        ("eval.verify", runner, "_finalize"),
        ("area.estimate", area_report, "circuit_report"),
        ("area.estimate", area_timing, "clock_period"),
    ]


def _rebind(original, replacement) -> List[tuple]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; return ``(module, name, original)`` for undoing."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


class Recorder:
    """Times public calls; with ``traced`` also records layer spans."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.calls: List[Call] = []
        #: (name, start, end, parent index, call index)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._current: Optional[Call] = None
        #: facts summed over the whole pass, inside calls or not
        self.totals: Dict[str, float] = {}
        #: plan-cache hits and misses while :meth:`instrument` was active
        self.plan_hits = 0
        self.plan_misses = 0

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(self, label: str, config: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed public call.

        The result is kept on the :class:`Call`; an exception is recorded
        as the call's error and re-raised to the workload, which decides
        whether it is a counted failure or a fatal one.
        """
        rec = Call(len(self.calls), label, config)
        self.calls.append(rec)
        outer, self._current = self._current, rec
        rec.start = time.perf_counter()
        try:
            with self.span("call"):
                rec.result = fn(*args, **kwargs)
            return rec.result
        except Exception as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            rec.end = time.perf_counter()
            self._current = outer

    @contextlib.contextmanager
    def intercept(self, owner, attr: str, label: str, config_of: Callable):
        """Record every call the program makes to ``owner.attr`` as one
        public call (e.g. each point ``table2`` runs through
        ``run_kernel``), for as long as the context is open;
        ``config_of(*args, **kwargs)`` names the call's config."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            return self.call(label, config_of(*args, **kwargs), original,
                             *args, **kwargs)

        setattr(owner, attr, recorded)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def note(self, key: str, value: float) -> None:
        """Add ``value`` to a pass total and to the running call's facts."""
        self.totals[key] = self.totals.get(key, 0) + value
        if self._current is not None:
            facts = self._current.facts
            facts[key] = facts.get(key, 0) + value

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        run = self._current.index if self._current is not None else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, run])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Install span wrappers on every layer function, then restore."""
        from repro.dataflow import plan_cache_stats

        def after_compile(build):
            self.note("components", len(build.circuit.components))
            self.note("channels", len(build.circuit.channels))

        def after_golden(golden):
            self.note("golden_iterations", sum(golden.loop_activations.values()))

        after = {"compile.elaborate": after_compile, "ir.golden": after_golden}
        undo = []
        try:
            for name, owner, attr in _layer_targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, after.get(name))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                else:
                    undo.extend(_rebind(original, wrapper))
            before = plan_cache_stats()
            yield
            stats = plan_cache_stats()
            self.plan_hits = stats["hits"] - before["hits"]
            self.plan_misses = stats["misses"] - before["misses"]
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self, duration: Callable = lambda a, b: b - a,
                   by_config: bool = False) -> Dict:
        """Summed self time per span name (optionally per call config);
        ``duration(start, end)`` turns stamps into seconds."""
        length = [duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += length[i]
        out: Dict = {}
        for i, (name, _, _, _, run) in enumerate(self.spans):
            key = name
            if by_config:
                key = (name, self.calls[run].config if run >= 0 else "")
            out[key] = out.get(key, 0.0) + length[i] - child[i]
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: X``)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = []
        for name, start, end, parent, run in self.spans:
            label = self.calls[run].label if run >= 0 else ""
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"run": run, "call": label, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
