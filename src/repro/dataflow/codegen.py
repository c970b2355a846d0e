"""Compile an elastic circuit's static schedule to straight-line Python.

The interpreted engine (:class:`repro.dataflow.simulator.Simulator`)
settles every cycle with a generic worklist: per-component dispatch,
per-channel snapshots and change diffing, and re-evaluation of every
watcher of a changed channel.  On the audited component library that
bookkeeping — not the handshake logic — dominates the per-cycle cost.
This module removes it by emitting, once per circuit *structure*, a
specialized ``step`` function in which the whole cycle is straight-line
code:

* **Phase 1 (valid/data)** — every component's forward half is unrolled
  in :func:`~repro.dataflow.schedule.levelize` order.  Library components
  are *inlined* (their ``propagate`` bodies are re-expressed as templates
  over flat local variables, reusing each instance's token caches so
  token identity matches the interpreted engine); complex stateful
  components (domain gates, PreVV units, memory controllers, LSQs) are
  *called* through pre-bound method references after their driven
  signals are cleared.
* **Phase 2 (ready)** — input readies are computed in reverse
  ready-topological order (consumers before observing producers), so the
  backward wave also settles in one pass.  Channel transfers are counted
  at the same time.  The two-pass schedule reaches the interpreted
  engine's unique least fixpoint because no audited component's output
  valid/data reads its own output ready within a cycle.
* **Clock edge** — ``tick`` bodies are inlined (or called) with the
  settled signals still in registers.

Derived tokens are built tag-free on circuits without a
:class:`~repro.prevv.replay.DomainGate`: the gate is the only component
that ever attaches a speculation tag (``Token.with_tag``), so on such a
circuit every tag merge would yield ``{}`` and the templates emit
``Token(value)`` instead of ``combine(value, *sources)``.  Whether a
circuit has a gate is part of its :func:`structural_key`, so the two
emission modes never share a plan.

Channel signals live in Python locals wherever both endpoints are
inlined, and on the real :class:`~repro.dataflow.channel.Channel`
objects next to called components.  A ``sync`` flag spills the locals to
the channel objects only when an external reader (deadlock diagnosis,
tracing hooks, the public :meth:`CompiledSimulator.step`) needs them.

Compiled plans are cached per :func:`structural_key` — one compilation
serves every simulation of structurally identical circuits, which is
what makes batched evaluation (:func:`repro.eval.runner.run_batch`)
cheap.  Circuits the compiler cannot prove safe (unaudited or unknown
component classes, instance-level ``propagate``/``tick`` patches,
cyclic valid or ready residue) raise
:class:`~repro.errors.CodegenUnsupportedError`; engine selection
(:func:`repro.dataflow.simulator.make_simulator`) logs the decline and
falls back to the interpreted engine, and the PV208 lint pass reports
the same decline statically.
"""

from __future__ import annotations

import time
from functools import lru_cache
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (
    CodegenUnsupportedError,
    DeadlockError,
    SimulationError,
)
from .circuit import Circuit
from .component import Component
from .schedule import levelize, ready_network_acyclic
from .simulator import SimulationStats, _overrides, logger
from .token import Token, combine

#: Bump when the emitted code's semantics change: it keys the plan cache,
#: so stale plans can never serve a newer engine.
CODEGEN_VERSION = 2

#: Component classes whose propagate/tick bodies are re-expressed as
#: inline templates, keyed by dotted class name (string keys keep this
#: module free of imports from the prevv/memory/lsq layers, which would
#: be circular).  The template of each class is audited against the
#: library source; the structural key pins the parameters the templates
#: bake in.
_INLINE: Dict[str, str] = {
    "repro.dataflow.primitives.Entry": "entry",
    "repro.dataflow.primitives.Source": "source",
    "repro.dataflow.primitives.Sink": "sink",
    "repro.dataflow.primitives.Constant": "constant",
    "repro.dataflow.primitives.Fork": "fork",
    "repro.dataflow.primitives.Join": "join",
    "repro.dataflow.routing.Merge": "merge",
    "repro.dataflow.routing.ControlMerge": "cmerge",
    "repro.dataflow.routing.Mux": "mux",
    "repro.dataflow.routing.Branch": "branch",
    "repro.dataflow.routing.Select": "select",
    "repro.dataflow.arith.Operator": "operator",
    "repro.dataflow.buffers.OpaqueBuffer": "oehb",
    "repro.dataflow.buffers.TransparentBuffer": "tehb",
    "repro.dataflow.buffers.TransparentFifo": "tfifo",
    "repro.dataflow.buffers.Fifo": "fifo",
    "repro.prevv.fake.PairPacker": "pair_packer",
    "repro.prevv.fake.FakeTokenGenerator": "fake_gen",
    "repro.prevv.fake.DoneTokenGenerator": "done_gen",
}

#: Stateful component classes invoked through pre-bound ``propagate`` /
#: ``tick`` references (cleared-then-called, once per phase).  Audit
#: requirement for membership: ``propagate`` must be a pure function of
#: (input signals, internal state) — it is called twice per cycle.
#: ``DomainGate`` stays called on purpose: an inline template of its
#: per-lane replay logic measured slower than the bound-method call.
_CALLED = frozenset(
    {
        "repro.prevv.replay.DomainGate",
        "repro.prevv.unit.PreVVUnit",
        "repro.memory.controller.MemoryController",
        "repro.lsq.lsq.LoadStoreQueue",
    }
)

_GATE_KEY = "repro.prevv.replay.DomainGate"


def _class_key(cls: type) -> str:
    return f"{cls.__module__}.{cls.__name__}"


def class_support(cls: type) -> Optional[str]:
    """How the compiler handles ``cls``: ``"inline"``, ``"call"`` or None.

    Exact-class matching by design: a subclass may override behaviour the
    template bakes in, so it is *not* compilable until audited and added.
    """
    key = _class_key(cls)
    if key in _INLINE:
        return "inline"
    if key in _CALLED:
        return "call"
    return None


def why_not_compilable(circuit: Circuit) -> Optional[str]:
    """First reason ``circuit`` cannot be compiled, or None if it can."""
    for comp in circuit.components:
        cls = type(comp)
        if class_support(cls) is None:
            return (
                f"component {comp.name!r}: class {_class_key(cls)} is not "
                "in the audited codegen set"
            )
        if not cls.scheduling_contract_audited:
            return (
                f"component {comp.name!r}: scheduling contract not audited"
            )
        for meth in ("propagate", "tick"):
            if meth in comp.__dict__:
                return (
                    f"component {comp.name!r}: instance-level {meth} "
                    "override defeats the emitted template"
                )
    sched = levelize(circuit)
    if sched.cyclic:
        names = ", ".join(c.name for c in sched.cyclic[:4])
        return f"combinational valid cycle through {names}"
    if not ready_network_acyclic(circuit):
        return "combinational ready network has a cycle"
    return None


def _params_of(comp: Component) -> Tuple:
    """Template parameters the emitted code bakes in for ``comp``."""
    tag = _INLINE.get(_class_key(type(comp)))
    if tag == "fork":
        return (comp.n_outputs,)
    if tag in ("join", "merge", "mux", "cmerge"):
        return (comp.n_inputs,)
    if tag == "operator":
        return (comp.n_inputs, comp.latency)
    if tag in ("fifo", "tfifo"):
        return (comp.depth,)
    if tag == "sink":
        return (bool(comp.record),)
    return ()


def structural_key(circuit: Circuit, count_transfers: bool = False) -> Tuple:
    """Hashable structure fingerprint: class, params and wiring of every
    component (channel endpoints by index).  Two circuits with equal keys
    execute byte-identical emitted code; only the bound instances differ.
    """
    cidx = {id(ch): i for i, ch in enumerate(circuit.channels)}
    parts: List = [CODEGEN_VERSION, bool(count_transfers), len(circuit.channels)]
    for comp in circuit.components:
        parts.append(
            (
                _class_key(type(comp)),
                _params_of(comp),
                tuple(
                    sorted((p, cidx[id(ch)]) for p, ch in comp.inputs.items())
                ),
                tuple(
                    sorted((p, cidx[id(ch)]) for p, ch in comp.outputs.items())
                ),
            )
        )
    return tuple(parts)


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------
class _StepEmitter:
    """Builds the source of ``make_step(channels, comps)`` for one circuit."""

    def __init__(self, circuit: Circuit, count_transfers: bool):
        self.circuit = circuit
        self.count = count_transfers
        self.comps = list(circuit.components)
        self.channels = list(circuit.channels)
        self.cidx = {id(ch): i for i, ch in enumerate(self.channels)}
        self.xidx = {id(c): i for i, c in enumerate(self.comps)}
        self.tag = {
            id(c): _INLINE.get(_class_key(type(c))) for c in self.comps
        }
        # Only a DomainGate ever tags a token, so without one every tag
        # merge is empty and derived tokens are built plain.
        self.gated = any(
            _class_key(type(c)) == _GATE_KEY for c in self.comps
        )
        # Hybrid storage: locals between inlined endpoints, live Channel
        # attributes next to called components.
        self.is_local = {
            id(ch): (
                self.tag[id(ch.producer)] is not None
                and self.tag[id(ch.consumer)] is not None
            )
            for ch in self.channels
        }
        self.need_comp: set = set()
        self.need_fn: set = set()
        self.need_call: set = set()
        self.n_evals = 0
        # Transfer-count terms accumulated during phase 2 and summed in
        # one branch-free pass at the end of the step (signals are final
        # once every block ran, so evaluation can be deferred).  The
        # count_transfers variant needs per-channel counters and keeps
        # explicit if-blocks instead.
        self._fire_terms: List[str] = []

    # -- signal accessors ------------------------------------------------
    def V(self, ch) -> str:
        i = self.cidx[id(ch)]
        return f"v{i}" if self.is_local[id(ch)] else f"c{i}.valid"

    def D(self, ch) -> str:
        i = self.cidx[id(ch)]
        return f"d{i}" if self.is_local[id(ch)] else f"c{i}.data"

    def R(self, ch) -> str:
        # A sink is unconditionally ready; the constant is folded here and
        # pinned on the channel object once in the make_step prologue.
        if self.tag.get(id(ch.consumer)) == "sink":
            return "True"
        i = self.cidx[id(ch)]
        return f"r{i}" if self.is_local[id(ch)] else f"c{i}.ready"

    def X(self, comp) -> str:
        i = self.xidx[id(comp)]
        self.need_comp.add(i)
        return f"x{i}"

    def _token(self, value: str, *sources: str) -> str:
        """Expression building a derived token: tag-merging ``combine``
        on gated circuits, a plain ``Token`` where no tag can exist."""
        if self.gated:
            return f"combine({', '.join((value,) + sources)})"
        return f"Token({value})"

    def _fire(self, ch) -> List[str]:
        """Count this channel's transfer (each channel exactly once, in
        its consumer's phase-2 block / the sink section)."""
        cond = self.V(ch)
        if self.tag.get(id(ch.consumer)) != "sink":
            cond = f"{cond} and {self.R(ch)}"
        if self.count:
            i = self.cidx[id(ch)]
            return [f"if {cond}:", "    fired += 1", f"    T[{i}] += 1"]
        self._fire_terms.append(cond)
        return []

    # -- per-class phase-1 templates (output valid/data) -----------------
    def ph1(self, comp) -> List[str]:
        tag = self.tag[id(comp)]
        if tag is None:
            return self._ph1_called(comp)
        emit = getattr(self, f"_ph1_{tag}", None)
        if emit is None:
            return []
        return emit(comp)

    def _ph1_called(self, comp) -> List[str]:
        if not comp.outputs:
            return []  # e.g. PreVVUnit: nothing to drive forward
        i = self.xidx[id(comp)]
        self.need_call.add(i)
        lines = []
        for ch in comp.outputs.values():
            s = self.cidx[id(ch)]
            lines.append(f"c{s}.valid = False; c{s}.data = None")
        lines.append(f"x{i}_prop()")
        return lines

    def _ph1_entry(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"if {x}._emitted:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
            "else:",
            f"    _t = {x}._token",
            "    if _t is None:",
            f"        _t = {x}._token = Token({x}.value)",
            f"    {self.V(o)} = True; {self.D(o)} = _t",
        ]

    def _ph1_source(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"if {x}.limit is None or {x}.emitted < {x}.limit:",
            f"    _t = {x}._token",
            "    if _t is None:",
            f"        _t = {x}._token = Token({x}.value)",
            f"    {self.V(o)} = True; {self.D(o)} = _t",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_constant(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["ctrl"], c.outputs["out"]
        return [
            f"if {self.V(i)}:",
            f"    _t = {self.D(i)}",
            f"    _a = {x}._cache",
            "    if _a[0] is _t:",
            "        _o = _a[1]",
            "    else:",
            "        _o = " + self._token(f"{x}.value", "_t"),
            "        _a[0] = _t; _a[1] = _o",
            f"    {self.V(o)} = True; {self.D(o)} = _o",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_fork(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        outs = [c.outputs[f"out{k}"] for k in range(c.n_outputs)]
        lines = [f"if {self.V(i)}:", f"    _t = {self.D(i)}",
                 f"    _dn = {x}._done"]
        for k, o in enumerate(outs):
            lines += [
                f"    if _dn[{k}]:",
                f"        {self.V(o)} = False; {self.D(o)} = None",
                "    else:",
                f"        {self.V(o)} = True; {self.D(o)} = _t",
            ]
        lines.append("else:")
        for o in outs:
            lines.append(f"    {self.V(o)} = False; {self.D(o)} = None")
        return lines

    def _ph1_join(self, c) -> List[str]:
        x = self.X(c)
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        allv = " and ".join(self.V(ch) for ch in ins)
        same = " and ".join(
            f"_l[{k}] is {self.D(ch)}" for k, ch in enumerate(ins)
        )
        toks = ", ".join(self.D(ch) for ch in ins)
        return [
            f"if {allv}:",
            f"    _a = {x}._cache",
            "    _l = _a[0]",
            f"    if _l is not None and {same}:",
            "        _o = _a[1]",
            "    else:",
            f"        _l = [{toks}]",
            "        _o = " + self._token("_l[0].value", "*_l"),
            "        _a[0] = _l; _a[1] = _o",
            f"    {self.V(o)} = True; {self.D(o)} = _o",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_merge(self, c) -> List[str]:
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        lines = []
        for k, ch in enumerate(ins):
            kw = "if" if k == 0 else "elif"
            lines += [
                f"{kw} {self.V(ch)}:",
                f"    {self.V(o)} = True; {self.D(o)} = {self.D(ch)}",
            ]
        lines += ["else:", f"    {self.V(o)} = False; {self.D(o)} = None"]
        return lines

    def _ph1_cmerge(self, c) -> List[str]:
        # The step local m<i> holds the winner whose token is offered this
        # cycle (locked winner first, else the first valid input), or None;
        # phase 2 and the tick read it instead of re-deriving the winner.
        x = self.X(c)
        m = f"m{self.xidx[id(c)]}"
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o, ix = c.outputs["out"], c.outputs["index"]
        lines = ["_t = None", f"{m} = {x}._locked", f"if {m} is None:"]
        for k, ch in enumerate(ins):
            kw = "if" if k == 0 else "elif"
            lines += [
                f"    {kw} {self.V(ch)}:",
                f"        {m} = {k}; _t = {self.D(ch)}",
            ]
        for k, ch in enumerate(ins):
            lines += [
                f"elif {m} == {k}:",
                f"    if {self.V(ch)}: _t = {self.D(ch)}",
            ]
        return lines + [
            "if _t is None:",
            f"    {m} = None",
            f"    {self.V(o)} = False; {self.D(o)} = None",
            f"    {self.V(ix)} = False; {self.D(ix)} = None",
            "else:",
            f"    if {x}._done_out:",
            f"        {self.V(o)} = False; {self.D(o)} = None",
            "    else:",
            f"        {self.V(o)} = True; {self.D(o)} = _t",
            f"    if {x}._done_index:",
            f"        {self.V(ix)} = False; {self.D(ix)} = None",
            "    else:",
            f"        _a = {x}._cache",
            f"        if _a[0] is _t and _a[1] == {m}:",
            "            _o = _a[2]",
            "        else:",
            f"            _o = _t.with_value({m})",
            f"            _a[0] = _t; _a[1] = {m}; _a[2] = _o",
            f"        {self.V(ix)} = True; {self.D(ix)} = _o",
        ]

    def _ph1_mux(self, c) -> List[str]:
        x = self.X(c)
        s = c.inputs["select"]
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        n = c.n_inputs
        lines = [
            f"if {self.V(s)}:",
            f"    _st = {self.D(s)}",
            "    _i = int(_st.value)",
        ]
        for k, ch in enumerate(ins):
            kw = "if" if k == 0 else "elif"
            # `k - n` mirrors Python's negative list indexing in the
            # interpreted `ins[int(sel.value)]`.
            lines += [
                f"    {kw} _i == {k} or _i == {k - n}:",
                f"        _dv = {self.V(ch)}; _dt = {self.D(ch)}",
            ]
        lines += [
            "    else:",
            "        raise IndexError('mux select out of range')",
            "    if _dv:",
            f"        _a = {x}._cache",
            "        if _a[0] is _st and _a[1] is _dt:",
            "            _o = _a[2]",
            "        else:",
            "            _o = " + self._token("_dt.value", "_dt", "_st"),
            "            _a[0] = _st; _a[1] = _dt; _a[2] = _o",
            f"        {self.V(o)} = True; {self.D(o)} = _o",
            "    else:",
            f"        {self.V(o)} = False; {self.D(o)} = None",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]
        return lines

    def _ph1_branch(self, c) -> List[str]:
        x = self.X(c)
        cond, data = c.inputs["cond"], c.inputs["data"]
        t, f = c.outputs["true"], c.outputs["false"]
        return [
            f"if {self.V(cond)} and {self.V(data)}:",
            f"    _ct = {self.D(cond)}; _dt = {self.D(data)}",
            f"    _a = {x}._cache",
            "    if _a[0] is _ct and _a[1] is _dt:",
            "        _o = _a[2]",
            "    else:",
            "        _o = " + self._token("_dt.value", "_dt", "_ct"),
            "        _a[0] = _ct; _a[1] = _dt; _a[2] = _o",
            "    if _ct.value:",
            f"        {self.V(t)} = True; {self.D(t)} = _o",
            f"        {self.V(f)} = False; {self.D(f)} = None",
            "    else:",
            f"        {self.V(f)} = True; {self.D(f)} = _o",
            f"        {self.V(t)} = False; {self.D(t)} = None",
            "else:",
            f"    {self.V(t)} = False; {self.D(t)} = None",
            f"    {self.V(f)} = False; {self.D(f)} = None",
        ]

    def _ph1_select(self, c) -> List[str]:
        x = self.X(c)
        cond, a, b = c.inputs["cond"], c.inputs["a"], c.inputs["b"]
        o = c.outputs["out"]
        return [
            f"if {self.V(cond)} and {self.V(a)} and {self.V(b)}:",
            f"    _a = {x}._cache",
            f"    if _a[0] is {self.D(cond)} and _a[1] is {self.D(a)} "
            f"and _a[2] is {self.D(b)}:",
            "        _o = _a[3]",
            "    else:",
            f"        _ch = {self.D(a)} if {self.D(cond)}.value "
            f"else {self.D(b)}",
            "        _o = "
            + self._token("_ch.value", self.D(cond), self.D(a), self.D(b)),
            f"        _a[0] = {self.D(cond)}; _a[1] = {self.D(a)}; "
            f"_a[2] = {self.D(b)}; _a[3] = _o",
            f"    {self.V(o)} = True; {self.D(o)} = _o",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_operator(self, c) -> List[str]:
        x = self.X(c)
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        if c.latency > 0:
            return [
                f"_p = {x}._pipe[-1]",
                "if _p is None:",
                f"    {self.V(o)} = False; {self.D(o)} = None",
                "else:",
                f"    {self.V(o)} = True; {self.D(o)} = _p",
            ]
        i = self.xidx[id(c)]
        self.need_fn.add(i)
        allv = " and ".join(self.V(ch) for ch in ins)
        same = " and ".join(
            f"_l[{k}] is {self.D(ch)}" for k, ch in enumerate(ins)
        )
        toks = ", ".join(self.D(ch) for ch in ins)
        vals = ", ".join(f"_l[{k}].value" for k in range(c.n_inputs))
        return [
            f"if {allv}:",
            f"    _a = {x}._c0_cache",
            "    _l = _a[0]",
            f"    if _l is not None and {same}:",
            "        _o = _a[1]",
            "    else:",
            f"        _l = [{toks}]",
            "        _o = " + self._token(f"x{i}_fn({vals})", "*_l"),
            "        _a[0] = _l; _a[1] = _o",
            f"    {self.V(o)} = True; {self.D(o)} = _o",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_oehb(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"_s = {x}._slot",
            "if _s is None:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
            "else:",
            f"    {self.V(o)} = True; {self.D(o)} = _s",
        ]

    def _ph1_tehb(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"_s = {x}._slot",
            "if _s is not None:",
            f"    {self.V(o)} = True; {self.D(o)} = _s",
            f"elif {self.V(i)}:",
            f"    {self.V(o)} = True; {self.D(o)} = {self.D(i)}",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_tfifo(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"_q = {x}._items",
            "if _q:",
            f"    {self.V(o)} = True; {self.D(o)} = _q[0]",
            f"elif {self.V(i)}:",
            f"    {self.V(o)} = True; {self.D(o)} = {self.D(i)}",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_fifo(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"_q = {x}._items",
            "if _q:",
            f"    {self.V(o)} = True; {self.D(o)} = _q[0]",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_pair_packer(self, c) -> List[str]:
        x = self.X(c)
        ix, vl = c.inputs["index"], c.inputs["value"]
        o = c.outputs["out"]
        return [
            f"if {self.V(ix)} and {self.V(vl)}:",
            f"    _it = {self.D(ix)}; _vt = {self.D(vl)}",
            f"    _a = {x}._cache",
            "    if _a[0] is _it and _a[1] is _vt:",
            "        _o = _a[2]",
            "    else:",
            "        _o = "
            + self._token("(_it.value, _vt.value)", "_it", "_vt"),
            "        _o.version = _vt.version",
            "        _a[0] = _it; _a[1] = _vt; _a[2] = _o",
            f"    {self.V(o)} = True; {self.D(o)} = _o",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_gen(self, c, value: str) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"if {self.V(i)}:",
            f"    _t = {self.D(i)}",
            f"    _a = {x}._cache",
            "    if _a[0] is not _t:",
            "        _a[0] = _t",
            f"        _a[1] = _t.with_value(({value},))",
            f"    {self.V(o)} = True; {self.D(o)} = _a[1]",
            "else:",
            f"    {self.V(o)} = False; {self.D(o)} = None",
        ]

    def _ph1_fake_gen(self, c) -> List[str]:
        return self._ph1_gen(c, "'fake'")

    def _ph1_done_gen(self, c) -> List[str]:
        return self._ph1_gen(c, "'done'")

    # -- per-class phase-2 templates (input ready + transfer count) ------
    def ph2(self, comp) -> List[str]:
        tag = self.tag[id(comp)]
        if tag is None:
            return self._ph2_called(comp)
        emit = getattr(self, f"_ph2_{tag}", None)
        lines = [] if emit is None else emit(comp)
        for ch in comp.inputs.values():
            lines += self._fire(ch)
        return lines

    def _ph2_called(self, comp) -> List[str]:
        i = self.xidx[id(comp)]
        self.need_call.add(i)
        lines = []
        # Re-drive from scratch with every consumer ready now settled:
        # outputs (identical values — propagate is state/input-valid
        # driven) and input readies (now final).
        for ch in comp.outputs.values():
            s = self.cidx[id(ch)]
            lines.append(f"c{s}.valid = False; c{s}.data = None")
        for ch in comp.inputs.values():
            s = self.cidx[id(ch)]
            lines.append(f"c{s}.ready = False")
        lines.append(f"x{i}_prop()")
        for ch in comp.inputs.values():
            lines += self._fire(ch)
        return lines

    def _ph2_constant(self, c) -> List[str]:
        i, o = c.inputs["ctrl"], c.outputs["out"]
        return [f"{self.R(i)} = {self.V(i)} and {self.R(o)}"]

    def _ph2_fork(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        outs = [c.outputs[f"out{k}"] for k in range(c.n_outputs)]
        terms = " and ".join(
            f"(_dn[{k}] or {self.R(o)})" for k, o in enumerate(outs)
        )
        return [
            f"_dn = {x}._done",
            f"{self.R(i)} = {self.V(i)} and {terms}",
        ]

    def _ph2_join(self, c) -> List[str]:
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        allv = " and ".join(self.V(ch) for ch in ins)
        lines = [f"_r = {allv} and {self.R(o)}"]
        for ch in ins:
            lines.append(f"{self.R(ch)} = _r")
        return lines

    def _ph2_merge(self, c) -> List[str]:
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        lines = []
        for k, ch in enumerate(ins):
            kw = "if" if k == 0 else "elif"
            lines.append(f"{kw} {self.V(ch)}:")
            for j, other in enumerate(ins):
                val = self.R(o) if j == k else "False"
                lines.append(f"    {self.R(other)} = {val}")
        lines.append("else:")
        for ch in ins:
            lines.append(f"    {self.R(ch)} = False")
        return lines

    def _ph2_cmerge(self, c) -> List[str]:
        x = self.X(c)
        m = f"m{self.xidx[id(c)]}"
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o, ix = c.outputs["out"], c.outputs["index"]
        lines = [f"if {m} is None:"]
        lines += [f"    {self.R(ch)} = False" for ch in ins]
        lines += [
            "else:",
            f"    _r = ({x}._done_out or {self.R(o)}) "
            f"and ({x}._done_index or {self.R(ix)})",
        ]
        lines += [
            f"    {self.R(ch)} = {m} == {k} and _r"
            for k, ch in enumerate(ins)
        ]
        return lines

    def _ph2_mux(self, c) -> List[str]:
        s = c.inputs["select"]
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        n = c.n_inputs
        lines = [f"{self.R(s)} = False"]
        for ch in ins:
            lines.append(f"{self.R(ch)} = False")
        lines += [f"if {self.V(s)}:", f"    _i = int({self.D(s)}.value)"]
        for k, ch in enumerate(ins):
            kw = "if" if k == 0 else "elif"
            lines += [
                f"    {kw} _i == {k} or _i == {k - n}:",
                f"        if {self.V(ch)} and {self.R(o)}:",
                f"            {self.R(s)} = True; {self.R(ch)} = True",
            ]
        return lines

    def _ph2_branch(self, c) -> List[str]:
        cond, data = c.inputs["cond"], c.inputs["data"]
        t, f = c.outputs["true"], c.outputs["false"]
        return [
            f"if {self.V(cond)} and {self.V(data)}:",
            f"    _r = {self.R(t)} if {self.D(cond)}.value else {self.R(f)}",
            f"    {self.R(cond)} = _r; {self.R(data)} = _r",
            "else:",
            f"    {self.R(cond)} = False; {self.R(data)} = False",
        ]

    def _ph2_select(self, c) -> List[str]:
        cond, a, b = c.inputs["cond"], c.inputs["a"], c.inputs["b"]
        o = c.outputs["out"]
        return [
            f"_r = {self.V(cond)} and {self.V(a)} and {self.V(b)} "
            f"and {self.R(o)}",
            f"{self.R(cond)} = _r; {self.R(a)} = _r; {self.R(b)} = _r",
        ]

    def _ph2_operator(self, c) -> List[str]:
        x = None
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        allv = " and ".join(self.V(ch) for ch in ins)
        if c.latency > 0:
            x = self.X(c)
            lines = [
                f"_r = {allv} and ({x}._pipe[-1] is None or {self.R(o)})"
            ]
        else:
            lines = [f"_r = {allv} and {self.R(o)}"]
        for ch in ins:
            lines.append(f"{self.R(ch)} = _r")
        return lines

    def _ph2_oehb(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [f"{self.R(i)} = {x}._slot is None or {self.R(o)}"]

    def _ph2_tehb(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        return [f"{self.R(i)} = {x}._slot is None"]

    def _ph2_tfifo(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        return [f"{self.R(i)} = len({x}._items) < {c.depth}"]

    def _ph2_fifo(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"{self.R(i)} = len({x}._items) < {c.depth} or {self.R(o)}"
        ]

    def _ph2_pair_packer(self, c) -> List[str]:
        ix, vl = c.inputs["index"], c.inputs["value"]
        o = c.outputs["out"]
        return [
            f"_r = {self.V(ix)} and {self.V(vl)} and {self.R(o)}",
            f"{self.R(ix)} = _r; {self.R(vl)} = _r",
        ]

    def _ph2_fake_gen(self, c) -> List[str]:
        i, o = c.inputs["in"], c.outputs["out"]
        return [f"{self.R(i)} = {self.V(i)} and {self.R(o)}"]

    _ph2_done_gen = _ph2_fake_gen

    # -- per-class tick templates ---------------------------------------
    def tick(self, comp) -> List[str]:
        tag = self.tag[id(comp)]
        if tag is None:
            i = self.xidx[id(comp)]
            self.need_call.add(i)
            return [f"x{i}_tick()"]
        emit = getattr(self, f"_tick_{tag}", None)
        if emit is None:
            return []
        return emit(comp)

    def _tick_entry(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"if not {x}._emitted and {self.V(o)} and {self.R(o)}:",
            f"    {x}._emitted = True",
        ]

    def _tick_source(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"if {self.V(o)} and {self.R(o)}:",
            f"    {x}.emitted += 1",
        ]

    def _tick_sink(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        lines = [f"if {self.V(i)}:", f"    {x}.count += 1"]
        if c.record:
            lines.append(f"    {x}.received.append({self.D(i)})")
        return lines

    def _tick_fork(self, c) -> List[str]:
        x = self.X(c)
        i = c.inputs["in"]
        outs = [c.outputs[f"out{k}"] for k in range(c.n_outputs)]
        lines = [
            f"if {self.V(i)}:",
            f"    if {self.R(i)}:",
            f"        if True in {x}._done:",
            f"            {x}._done = [False] * {c.n_outputs}",
            "    else:",
            f"        _dn = {x}._done",
        ]
        for k, o in enumerate(outs):
            lines.append(
                f"        if {self.V(o)} and {self.R(o)} and not _dn[{k}]: "
                f"_dn[{k}] = True"
            )
        return lines

    def _tick_cmerge(self, c) -> List[str]:
        x = self.X(c)
        m = f"m{self.xidx[id(c)]}"
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o, ix = c.outputs["out"], c.outputs["index"]
        # Only the offered winner's input can be ready, so any input
        # ready means the winner's input fires; an output is only valid
        # while its done bit is clear.
        fires = " or ".join(self.R(ch) for ch in ins)
        return [
            f"if {m} is not None:",
            f"    if {fires}:",
            f"        {x}._done_out = False; {x}._done_index = False",
            f"        {x}._locked = None",
            "    else:",
            "        _fd = False",
            f"        if {self.V(o)} and {self.R(o)}:",
            f"            {x}._done_out = True; _fd = True",
            f"        if {self.V(ix)} and {self.R(ix)}:",
            f"            {x}._done_index = True; _fd = True",
            "        if _fd:",
            f"            {x}._locked = {m}",
        ]

    def _tick_operator(self, c) -> List[str]:
        if c.latency == 0:
            return []
        i = self.xidx[id(c)]
        x = self.X(c)
        self.need_fn.add(i)
        ins = [c.inputs[f"in{k}"] for k in range(c.n_inputs)]
        o = c.outputs["out"]
        allv = " and ".join(self.V(ch) for ch in ins)
        vals = ", ".join(f"{self.D(ch)}.value" for ch in ins)
        toks = ", ".join(self.D(ch) for ch in ins)
        return [
            f"_p = {x}._pipe",
            f"if _p[-1] is None or ({self.V(o)} and {self.R(o)}):",
            f"    if {allv} and {self.R(ins[0])}:",
            "        _o = " + self._token(f"x{i}_fn({vals})", toks),
            "    else:",
            "        _o = None",
            f"    {x}._pipe = [_o] + _p[:-1]",
        ]

    def _tick_oehb(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"_s = {x}._slot",
            f"if _s is not None and {self.V(o)} and {self.R(o)}:",
            "    _s = None",
            f"if {self.V(i)} and {self.R(i)}:",
            f"    _s = {self.D(i)}",
            f"{x}._slot = _s",
        ]

    def _tick_tehb(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"if {x}._slot is None:",
            f"    if {self.V(i)} and {self.R(i)} "
            f"and not ({self.V(o)} and {self.R(o)}):",
            f"        {x}._slot = {self.D(i)}",
            f"elif {self.V(o)} and {self.R(o)}:",
            f"    {x}._slot = None",
        ]

    def _tick_tfifo(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"_q = {x}._items",
            f"_of = {self.V(o)} and {self.R(o)}",
            "if _q:",
            "    if _of:",
            "        _q.popleft()",
            f"    if {self.V(i)} and {self.R(i)}:",
            f"        _q.append({self.D(i)})",
            f"elif {self.V(i)} and {self.R(i)} and not _of:",
            f"    _q.append({self.D(i)})",
        ]

    def _tick_fifo(self, c) -> List[str]:
        x = self.X(c)
        i, o = c.inputs["in"], c.outputs["out"]
        return [
            f"_q = {x}._items",
            f"if _q and {self.V(o)} and {self.R(o)}:",
            "    _q.popleft()",
            f"if {self.V(i)} and {self.R(i)}:",
            f"    _q.append({self.D(i)})",
        ]

    def _tick_fake_gen(self, c) -> List[str]:
        x = self.X(c)
        o = c.outputs["out"]
        return [
            f"if {self.V(o)} and {self.R(o)}:",
            f"    {x}.generated += 1",
        ]

    _tick_done_gen = _tick_fake_gen

    # -- phase-2 evaluation order ---------------------------------------
    def _phase2_order(self) -> List[Component]:
        """Kahn order with consumers before ready-observing producers.

        A component's phase-2 block finalizes its *input* readies; a
        producer that observes output ready must therefore run after all
        its consumers' blocks.  The inverse of the acyclic ready network
        checked by :func:`why_not_compilable`, so the sort always
        completes.
        """
        import heapq

        nodes = [
            c
            for c in self.comps
            if c.inputs and self.tag[id(c)] != "sink"
        ]
        node_ids = {id(c) for c in nodes}
        succs: Dict[int, List[Component]] = {id(c): [] for c in nodes}
        indeg: Dict[int, int] = {id(c): 0 for c in nodes}
        for c in nodes:
            if not c.observes_output_ready:
                continue
            seen = set()
            for ch in c.outputs.values():
                u = ch.consumer
                if u is None or id(u) not in node_ids or id(u) in seen:
                    continue
                if u is c:
                    continue
                seen.add(id(u))
                succs[id(u)].append(c)
                indeg[id(c)] += 1
        heap = [
            self.xidx[id(c)] for c in nodes if indeg[id(c)] == 0
        ]
        heapq.heapify(heap)
        order: List[Component] = []
        while heap:
            c = self.comps[heapq.heappop(heap)]
            order.append(c)
            for succ in succs[id(c)]:
                indeg[id(succ)] -= 1
                if indeg[id(succ)] == 0:
                    heapq.heappush(heap, self.xidx[id(succ)])
        if len(order) != len(nodes):
            raise CodegenUnsupportedError(
                f"{self.circuit.name}: ready network left a cyclic residue"
            )
        return order

    # -- assembly --------------------------------------------------------
    def emit(self) -> Tuple[str, int]:
        """Return ``(source, n_evals)`` of the ``make_step`` module."""
        body: List[str] = ["fired = 0"]

        body.append("# ---- phase 1: valid/data wave (levelized order) ----")
        for comp in levelize(self.circuit).order:
            block = self.ph1(comp)
            if block:
                body.append(f"# ph1 {comp.name} ({type(comp).__name__})")
                body += block
                self.n_evals += 1

        body.append("# ---- phase 2: ready wave (reverse ready-topo) ----")
        for comp in self._phase2_order():
            body.append(f"# ph2 {comp.name} ({type(comp).__name__})")
            body += self.ph2(comp)
            self.n_evals += 1

        sink_chs = [
            ch
            for ch in self.channels
            if self.tag.get(id(ch.consumer)) == "sink"
        ]
        if sink_chs:
            body.append("# ---- sink transfers (ready is constant) ----")
            for ch in sink_chs:
                body += self._fire(ch)

        if self._fire_terms:
            body.append("# ---- transfer count (signals are final) ----")
            terms = self._fire_terms
            for start in range(0, len(terms), 16):
                chunk = " + ".join(
                    f"({t})" for t in terms[start:start + 16]
                )
                body.append(f"fired += {chunk}")

        body.append("# ---- any-valid (feeds the done fast path) ----")
        terms = [self.V(ch) for ch in self.channels]
        if not terms:
            body.append("av = False")
        else:
            first, rest = terms[:16], terms[16:]
            body.append(f"av = {' or '.join(first)}")
            while rest:
                chunk, rest = rest[:16], rest[16:]
                body.append("if not av:")
                body.append(f"    av = {' or '.join(chunk)}")

        body.append("# ---- clock edge ----")
        for comp in self.comps:
            if not _overrides(comp, "tick"):
                continue
            if self.tag[id(comp)] == "operator" and comp.latency == 0:
                continue
            block = self.tick(comp)
            if block:
                body.append(f"# tick {comp.name}")
                body += block

        # Fork.flush and ControlMerge.flush read their input channels
        # during a squash, so those signals must be live whenever squash
        # hooks can run.
        always_spill: set = set()
        if self.gated:
            body.append(
                "# ---- fork/cmerge inputs stay live for squash flush ----"
            )
            for ch in self.channels:
                if self.is_local[id(ch)] and self.tag.get(
                    id(ch.consumer)
                ) in ("fork", "cmerge"):
                    i = self.cidx[id(ch)]
                    always_spill.add(id(ch))
                    body.append(f"c{i}.valid = v{i}; c{i}.data = d{i}")

        body.append("if sync:")
        spilled = False
        for ch in self.channels:
            if not self.is_local[id(ch)]:
                continue
            i = self.cidx[id(ch)]
            parts = []
            if id(ch) not in always_spill:
                parts += [f"c{i}.valid = v{i}", f"c{i}.data = d{i}"]
            if self.tag.get(id(ch.consumer)) != "sink":
                parts.append(f"c{i}.ready = r{i}")
            if parts:
                body.append("    " + "; ".join(parts))
                spilled = True
        if not spilled:
            body.append("    pass")
        body.append("return fired, av")

        # Bindings: channel objects, component instances, pre-bound
        # methods — passed as default arguments so every access inside
        # step() is a LOAD_FAST.
        binds = [f"c{i}=c{i}" for i in range(len(self.channels))]
        binds += [f"x{i}=x{i}" for i in sorted(self.need_comp)]
        binds += [f"x{i}_fn=x{i}_fn" for i in sorted(self.need_fn)]
        binds += [f"x{i}_prop=x{i}_prop" for i in sorted(self.need_call)]
        binds += ["T=T", "Token=Token", "int=int", "len=len"]
        if self.gated:
            binds.append("combine=combine")
        tick_binds = [
            f"x{i}_tick=x{i}_tick" for i in sorted(self.need_call)
        ]
        binds += tick_binds

        out: List[str] = [
            f"# generated by repro.dataflow.codegen v{CODEGEN_VERSION} "
            f"for circuit structure of {self.circuit.name!r}",
            f"# components: {len(self.comps)}  channels: "
            f"{len(self.channels)}  evals/cycle: {self.n_evals}",
            "",
            "def make_step(channels, comps):",
        ]
        for i in range(len(self.channels)):
            out.append(f"    c{i} = channels[{i}]")
        for i in sorted(self.need_comp):
            out.append(f"    x{i} = comps[{i}]")
        for i in sorted(self.need_fn):
            out.append(f"    x{i}_fn = comps[{i}].fn")
        for i in sorted(self.need_call):
            out.append(f"    x{i}_prop = comps[{i}].propagate")
            out.append(f"    x{i}_tick = comps[{i}].tick")
        out.append(f"    T = [0] * {len(self.channels)}")
        for ch in self.channels:
            if self.tag.get(id(ch.consumer)) == "sink":
                out.append(f"    c{self.cidx[id(ch)]}.ready = True")
        sig = ", ".join(["sync"] + binds)
        out.append(f"    def step({sig}):")
        for line in body:
            out.append(f"        {line}")
        out.append("        pass")
        out.append("    return step, T")
        out.append("")
        return "\n".join(out), self.n_evals

# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class CompiledPlan:
    """One compiled circuit structure: emitted source + exec'd factory.

    A plan is structure-bound, not instance-bound: :meth:`bind` attaches
    it to any circuit with the same :func:`structural_key`, which is how
    batched runs reuse one compilation across many rebuilt circuits.
    """

    __slots__ = ("key", "source", "make_step", "n_evals", "hold")

    def __init__(self, key: Tuple, source: str, make_step, n_evals: int):
        self.key = key
        self.source = source
        self.make_step = make_step
        self.n_evals = n_evals
        step_code = next(
            c for c in make_step.__code__.co_consts if isinstance(c, CodeType)
        )
        #: runs a whole simulation loop on a data-stack chunk with room
        #: for this plan's step frame (see :func:`_holder_for`)
        self.hold = _holder_for(step_code.co_nlocals + step_code.co_stacksize)

    def bind(self, circuit: Circuit):
        """Return ``(step_fn, transfer_counts)`` bound to ``circuit``."""
        return self.make_step(list(circuit.channels), list(circuit.components))


# CPython (3.11+) keeps frames on per-thread data-stack chunks of 16 KiB;
# a frame that does not fit the current chunk opens a fresh chunk, which
# is freed again when that frame returns.  A step frame is many KiB of
# locals, so depending on the caller's stack depth every cycle could pay a
# chunk mmap/munmap plus page faults (measured on gaussian/prevv16 at n=8
# in a warm run_kernel loop: ~5 minor faults per cycle, ~45 % more wall
# time).  The run loops therefore execute under a holder frame sized to
# open one chunk that keeps room for the loop, the step frame and its
# callees for the whole run.  Elsewhere the holder is just a large frame.
_CHUNK_SLOTS = 2048  # default chunk: 16 KiB of 8-byte slots
_CHUNK_OVERHEAD = 1000  # slots CPython adds to a frame when sizing a chunk
_CALLEE_ROOM = 1000  # slots kept free for the run loop and step's callees


@lru_cache(maxsize=None)
def _holder(n_slots: int) -> Callable:
    """``hold(fn, *args)`` calls ``fn(*args)`` from a frame reserving
    ``n_slots`` local slots (names declared by a never-run ``del``)."""
    names = ", ".join(f"_{i}" for i in range(n_slots))
    namespace: Dict = {}
    exec(  # noqa: S102 - generated above, not user input
        f"def hold(fn, *args):\n    if 0:\n        del {names}\n"
        "    return fn(*args)\n",
        namespace,
    )
    return namespace["hold"]


def _holder_for(step_slots: int) -> Callable:
    """Holder for a step frame of ``step_slots`` slots.

    A chunk opened for a frame of ``h`` slots has the smallest size
    ``_CHUNK_SLOTS * 2**k`` that is at least ``h + _CHUNK_OVERHEAD``.  With
    ``h = chunk // 2 - _CHUNK_OVERHEAD + 1`` that size is exactly
    ``chunk`` and about ``chunk // 2 + _CHUNK_OVERHEAD`` slots stay free;
    ``chunk >= 4 * _CHUNK_SLOTS`` makes ``h`` exceed a default chunk, so
    the holder always opens its own.
    """
    chunk = 4 * _CHUNK_SLOTS
    while chunk // 2 < step_slots + _CALLEE_ROOM:
        chunk *= 2
    return _holder(chunk // 2 - _CHUNK_OVERHEAD + 1)


_PLAN_CACHE: Dict[Tuple, CompiledPlan] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def plan_cache_stats() -> Dict[str, int]:
    """Copy of the hit/miss counters (test hook for no-recompile proofs)."""
    return dict(_CACHE_STATS)


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def plan_for(circuit: Circuit, count_transfers: bool = False) -> CompiledPlan:
    """Compile ``circuit`` (or fetch the cached plan for its structure).

    Raises :class:`CodegenUnsupportedError` when the circuit cannot be
    compiled; :func:`why_not_compilable` gives the reason.
    """
    reason = why_not_compilable(circuit)
    if reason is not None:
        raise CodegenUnsupportedError(f"{circuit.name}: {reason}")
    key = structural_key(circuit, count_transfers)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _CACHE_STATS["hits"] += 1
        return plan
    _CACHE_STATS["misses"] += 1
    start = time.perf_counter()
    source, n_evals = _StepEmitter(circuit, count_transfers).emit()
    namespace = {"combine": combine, "Token": Token}
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(source, f"<codegen:{circuit.name}>", "exec"), namespace
    )
    logger.debug(
        "%s: plan-cache miss; compiled %d components in %.1f ms",
        circuit.name, len(circuit.components),
        (time.perf_counter() - start) * 1e3,
    )
    plan = CompiledPlan(key, source, namespace["make_step"], n_evals)
    _PLAN_CACHE[key] = plan
    return plan


def emitted_source(circuit: Circuit, count_transfers: bool = False) -> str:
    """The generated ``make_step`` module for ``circuit`` (debug artifact)."""
    return plan_for(circuit, count_transfers).source


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CompiledSimulator:
    """Drives a circuit with its compiled step function.

    Drop-in for :class:`~repro.dataflow.simulator.Simulator` on the
    stat-free path: same constructor shape, same ``run``/``run_cycles``/
    ``step`` surface, same error behaviour, bit-identical architectural
    results.  Tracing and per-channel stall statistics are *not*
    supported (``collect_stats=True`` or a ``trace`` raises
    :class:`CodegenUnsupportedError`); ``count_transfers=True`` keeps
    per-channel transfer counts — the only per-channel statistic the
    analysis layers read — at a fraction of the interpreted stat cost.

    After a completed :meth:`run`, channel ``valid``/``data`` hold their
    settled (all-idle) values; ``ready`` attributes are left stale from
    the last synchronized cycle — no library code reads them post-run.
    """

    engine_name = "compiled"

    def __init__(
        self,
        circuit: Circuit,
        max_cycles: int = 1_000_000,
        deadlock_window: int = 256,
        fixpoint_cap: int = 10_000,  # accepted for ctor parity; unused
        trace=None,
        collect_stats: bool = False,
        count_transfers: bool = False,
    ):
        if trace is not None:
            raise CodegenUnsupportedError(
                "tracing requires an interpreted engine"
            )
        if collect_stats:
            raise CodegenUnsupportedError(
                "per-channel stall/idle statistics require an interpreted "
                "engine (use count_transfers=True for transfer counts)"
            )
        self.circuit = circuit
        self.max_cycles = max_cycles
        self.deadlock_window = deadlock_window
        self.trace = None
        self.collect_stats = False
        self.count_transfers = count_transfers
        self.stats = SimulationStats()
        self._quiet_cycles = 0
        self.end_of_cycle_hooks: List[Callable] = []
        self.abort_condition: Optional[Callable[[], bool]] = None
        circuit.validate()
        self.plan = plan_for(circuit, count_transfers)
        self._step_fn, self._transfer_counts = self.plan.bind(circuit)
        self._channels = list(circuit.channels)
        self._busy_comps = [
            c for c in circuit.components if _overrides(c, "is_busy")
        ]

    # ------------------------------------------------------------------
    def _step(self, sync: bool) -> Tuple[int, bool]:
        fired, any_valid = self._step_fn(sync)
        for hook in self.end_of_cycle_hooks:
            hook()
        stats = self.stats
        stats.cycles += 1
        stats.transfers += fired
        stats.propagate_calls += self.plan.n_evals
        return fired, any_valid

    def step(self) -> int:
        """Simulate one cycle (signals synchronized); returns transfers."""
        return self._step(True)[0]

    def run_cycles(self, n: int) -> SimulationStats:
        """Run exactly ``n`` cycles (no completion/deadlock checks)."""
        return self.plan.hold(self._run_cycles, n)

    def _run_cycles(self, n: int) -> SimulationStats:
        for _ in range(n):
            self._step(True)
        if self.count_transfers:
            self.flush_channel_stats()
        return self.stats

    def run(self, done: Callable[[], bool]) -> SimulationStats:
        """Run until ``done()`` is true; raise on deadlock or cycle budget.

        When ``done`` carries a ``split = (pre, post)`` attribute (see
        :func:`repro.eval.runner.make_done_condition`), no abort
        condition is installed and every end-of-cycle hook duck-types as
        a squash controller, the loop runs *unsynchronized*: channel
        signals stay in step-function locals and the emitted any-valid
        flag replaces the done condition's channel scan.  Signals are
        spilled as soon as a cycle makes no progress, so deadlock
        diagnostics see live values.
        """
        return self.plan.hold(self._run, done)

    def _run(self, done: Callable[[], bool]) -> SimulationStats:
        self._quiet_cycles = 0
        split = getattr(done, "split", None)
        fast = (
            split is not None
            and self.abort_condition is None
            and all(
                hasattr(getattr(h, "__self__", None), "has_pending_squash")
                for h in self.end_of_cycle_hooks
            )
        )
        if not fast:
            return self._run_synced(done)
        pre, post = split
        force_sync = self.deadlock_window <= 1
        any_valid: Optional[bool] = None
        while True:
            if any_valid is None:
                # First iteration: channels are in reset state, which is
                # exactly what done() expects to scan.
                if done():
                    break
            elif not any_valid and pre() and post():
                break
            if self.stats.cycles >= self.max_cycles:
                raise SimulationError(
                    f"{self.circuit.name}: exceeded {self.max_cycles} "
                    "cycles without completing"
                )
            # Quiet cycles run synchronized so a deadlock raise (and any
            # external inspection) sees live channel signals.
            sync = force_sync or self._quiet_cycles > 0
            fired, any_valid = self._step(sync)
            busy = fired > 0 or any(c.is_busy for c in self._busy_comps)
            if busy:
                self._quiet_cycles = 0
            else:
                self._quiet_cycles += 1
                if self._quiet_cycles >= self.deadlock_window:
                    self._raise_deadlock()
        # Leave valid/data in their settled (all-idle) state for external
        # readers; at completion every settled valid is False.
        for ch in self._channels:
            ch.valid = False
            ch.data = None
        if self.count_transfers:
            self.flush_channel_stats()
        return self.stats

    def _run_synced(self, done: Callable[[], bool]) -> SimulationStats:
        while not done():
            if self.abort_condition is not None and self.abort_condition():
                break
            if self.stats.cycles >= self.max_cycles:
                raise SimulationError(
                    f"{self.circuit.name}: exceeded {self.max_cycles} "
                    "cycles without completing"
                )
            fired, _ = self._step(True)
            busy = fired > 0 or any(c.is_busy for c in self._busy_comps)
            if busy:
                self._quiet_cycles = 0
            else:
                self._quiet_cycles += 1
                if self._quiet_cycles >= self.deadlock_window:
                    self._raise_deadlock()
        if self.count_transfers:
            self.flush_channel_stats()
        return self.stats

    def flush_channel_stats(self) -> None:
        """Fold the step function's transfer counters into the channels.

        Idempotent (counters are zeroed as they are folded); called
        automatically at the end of ``run``/``run_cycles`` when
        ``count_transfers`` is on.
        """
        counts = self._transfer_counts
        for i, ch in enumerate(self._channels):
            n = counts[i]
            if n:
                ch.transfers += n
                counts[i] = 0

    def _raise_deadlock(self) -> None:
        stuck = [c for c in self.circuit.channels if c.valid and not c.ready]
        names = ", ".join(c.name for c in stuck[:8])
        more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
        raise DeadlockError(
            f"{self.circuit.name}: no progress for {self.deadlock_window} "
            f"cycles at cycle {self.stats.cycles}; stalled channels: "
            f"{names}{more}",
            stuck_channels=stuck,
        )
