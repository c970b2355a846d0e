"""Circuit-graph lint passes (PV1xx).

These run over a built elastic circuit (``dataflow.circuit.Circuit``):

* arity-aware port connectivity — stricter than ``Circuit.validate``,
  which only checks *attached* ports, so a ``Fork(n=2)`` with one wired
  output slips through and crashes mid-simulation;
* the deadlock detector — every cycle in the channel graph must contain
  at least one component with *opaque* token storage (OEHB, opaque FIFO,
  pipelined operator, memory interface); a buffer-free cycle can never
  move a token and stalls silently after thousands of cycles;
* token-conservation — every component must be able to drain its tokens
  into a consumer (sink or memory interface); a region with no drain
  fills its buffers and back-pressures the whole pipeline;
* PreVV coverage — each conditional member operation needs its fake-token
  generator (Sec. V-C) and every port needs its done-token generator, or
  the arbiter waits forever on iterations that never produced a packet.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ...dataflow.arith import Operator
from ...dataflow.buffers import Fifo, OpaqueBuffer, TransparentFifo
from ...dataflow.primitives import Constant, Entry, Fork, Join, Sink, Source
from ...dataflow.routing import Branch, ControlMerge, Merge, Mux, Select
from ...dataflow.schedule import (
    strongly_connected_components,
    token_flow_adjacency,
)
from ...ir.loops import back_edges, innermost_loop_of
from ...lsq.lsq import LoadStoreQueue
from ...memory.controller import MemoryController
from ...prevv.replay import DomainGate
from ...prevv.unit import PreVVUnit
from .registry import LintContext, LintPass, register_pass


def _cloc(ctx: LintContext, comp) -> str:
    return f"{ctx.circuit.name}:{comp.name}"


# ----------------------------------------------------------------------
# Port arity expectations
# ----------------------------------------------------------------------
def expected_ports(comp) -> Tuple[Set[str], Set[str]]:
    """(required inputs, required outputs) for ``comp``.

    Derived from constructor arity where the class declares one; falls
    back to the dynamic (attached-only) port sets otherwise.  PreVV fake
    and done ports are intentionally excluded — their presence is a
    semantic question answered by the coverage passes (PV105/PV106).
    """
    if isinstance(comp, Fork):
        return {"in"}, {comp.out_port(i) for i in range(comp.n_outputs)}
    if isinstance(comp, Join):
        return {comp.in_port(i) for i in range(comp.n_inputs)}, {"out"}
    if isinstance(comp, Mux):
        ins = {comp.in_port(i) for i in range(comp.n_inputs)}
        return ins | {"select"}, {"out"}
    if isinstance(comp, ControlMerge):
        ins = {comp.in_port(i) for i in range(comp.n_inputs)}
        return ins, {"out", "index"}
    if isinstance(comp, Merge):
        return {comp.in_port(i) for i in range(comp.n_inputs)}, {"out"}
    if isinstance(comp, Branch):
        return {"data", "cond"}, {"true", "false"}
    if isinstance(comp, Select):
        return {"cond", "a", "b"}, {"out"}
    if isinstance(comp, Operator):
        return {comp.in_port(i) for i in range(comp.n_inputs)}, {"out"}
    if isinstance(comp, Constant):
        return {"ctrl"}, {"out"}
    if isinstance(comp, (Entry, Source)):
        return set(), {"out"}
    if isinstance(comp, Sink):
        return {"in"}, set()
    if isinstance(comp, DomainGate):
        n = comp.n_channels
        return (
            {comp.in_port(i) for i in range(n)},
            {comp.out_port(i) for i in range(n)},
        )
    if isinstance(comp, PreVVUnit):
        return {comp.port_name(i) for i in range(len(comp.ports))}, set()
    if isinstance(comp, (MemoryController, LoadStoreQueue)):
        ins = {f"ld{i}_addr" for i in range(comp.n_loads)}
        ins |= {f"st{j}_addr" for j in range(comp.n_stores)}
        ins |= {f"st{j}_data" for j in range(comp.n_stores)}
        outs = {f"ld{i}_data" for i in range(comp.n_loads)}
        if isinstance(comp, LoadStoreQueue):
            ins |= {f"group{g}" for g in range(len(comp.groups))}
        return ins, outs
    return set(comp.expected_inputs()), set(comp.expected_outputs())


def cuts_token_cycle(comp) -> bool:
    """True when ``comp`` breaks the combinational valid/data path.

    A component cuts a token cycle when its output validity this cycle
    comes from internal state rather than from this cycle's inputs:
    opaque storage (OEHB, opaque FIFO), pipelined operators and the
    stateful memory interfaces.  Transparent buffers/FIFOs pass valid
    through when empty and therefore do NOT cut.
    """
    if isinstance(comp, TransparentFifo):
        return False
    if isinstance(comp, (OpaqueBuffer, Fifo)):
        return True
    if isinstance(comp, Operator):
        return comp.latency >= 1
    if isinstance(comp, (MemoryController, LoadStoreQueue, PreVVUnit)):
        return True
    return bool(getattr(comp, "cuts_token_cycles", False))


def is_token_consumer(comp) -> bool:
    """Components where tokens legitimately leave the circuit."""
    return isinstance(comp, (Sink, MemoryController, LoadStoreQueue, PreVVUnit))


@register_pass
class PortConnectivityPass(LintPass):
    """PV101/PV102: every declared port wired, every channel double-ended."""

    name = "circuit-connectivity"
    layer = "circuit"
    codes = ("PV101", "PV102")
    requires = ("circuit",)

    def run(self, ctx: LintContext) -> None:
        for comp in ctx.circuit.components:
            ins, outs = expected_ports(comp)
            for port in sorted(ins):
                if port not in comp.inputs:
                    ctx.emit(
                        "PV101",
                        f"{comp.name}: input {port!r} unconnected",
                        location=_cloc(ctx, comp),
                        hint="connect the port or reduce the component's "
                        "arity",
                    )
            for port in sorted(outs):
                if port not in comp.outputs:
                    ctx.emit(
                        "PV101",
                        f"{comp.name}: output {port!r} unconnected",
                        location=_cloc(ctx, comp),
                        hint="connect the port (route unused outputs to "
                        "a Sink)",
                    )
        for chan in ctx.circuit.channels:
            if chan.producer is None or chan.consumer is None:
                ctx.emit(
                    "PV102",
                    f"channel {chan.name}: dangling end",
                    location=f"{ctx.circuit.name}:{chan.name}",
                    hint="channels must be created via Circuit.connect",
                )


@register_pass
class DeadlockCyclePass(LintPass):
    """PV103: every channel cycle needs opaque storage or it deadlocks.

    The structural analogue of the simulator's dynamic
    :class:`~repro.errors.DeadlockError`: a cycle made only of
    combinational/transparent components cannot hold a token between
    clock edges, so no token can ever make it around (the Fig. 6 class
    of silent deadlocks).  Loop back-edges get their storage from the
    builder's OEHB+TEHB pair; hand-built circuits must do the same.
    """

    name = "circuit-deadlock"
    layer = "circuit"
    codes = ("PV103",)
    requires = ("circuit",)

    def run(self, ctx: LintContext) -> None:
        comps = {id(c): c for c in ctx.circuit.components}
        adj = token_flow_adjacency(ctx.circuit)
        # Remove cycle-cutting components; any remaining cycle is fatal.
        soft = {cid for cid, c in comps.items() if not cuts_token_cycle(c)}
        sub = {cid: {s for s in adj[cid] if s in soft} for cid in soft}
        for scc in strongly_connected_components(sub):
            cyclic = len(scc) > 1 or scc[0] in sub[scc[0]]
            if not cyclic:
                continue
            names = sorted(comps[cid].name for cid in scc)
            shown = ", ".join(names[:8]) + (" ..." if len(names) > 8 else "")
            ctx.emit(
                "PV103",
                f"combinational cycle with no opaque buffer through "
                f"{len(names)} component(s): {shown}",
                location=_cloc(ctx, comps[scc[0]]),
                hint="insert an OpaqueBuffer (OEHB) or opaque Fifo on "
                "the cycle",
            )


@register_pass
class TokenDrainPass(LintPass):
    """PV104: every component must reach a token consumer.

    A fork arm (or whole region) from which no sink or memory interface
    is reachable conserves its tokens forever: buffers fill, backpressure
    propagates, and the circuit wedges.  This is the static form of the
    fork/join token-conservation argument.
    """

    name = "circuit-token-drain"
    layer = "circuit"
    codes = ("PV104",)
    requires = ("circuit",)

    def run(self, ctx: LintContext) -> None:
        comps = {id(c): c for c in ctx.circuit.components}
        adj = token_flow_adjacency(ctx.circuit)
        reverse: Dict[int, Set[int]] = {cid: set() for cid in adj}
        for cid, succs in adj.items():
            for succ in succs:
                reverse[succ].add(cid)
        draining: Set[int] = {
            cid for cid, c in comps.items() if is_token_consumer(c)
        }
        frontier = list(draining)
        while frontier:
            node = frontier.pop()
            for pred in reverse[node]:
                if pred not in draining:
                    draining.add(pred)
                    frontier.append(pred)
        for cid, comp in sorted(comps.items(), key=lambda kv: kv[1].name):
            if cid in draining:
                continue
            ctx.emit(
                "PV104",
                f"{comp.name}: no sink or memory interface is reachable; "
                "its tokens can never drain",
                location=_cloc(ctx, comp),
                hint="route the dangling path into a Sink",
            )


@register_pass
class FakeTokenCoveragePass(LintPass):
    """PV105/PV107: fake-token generators exactly where Sec. V-C needs them.

    A member operation whose block does not dominate every back-edge of
    its loop can be skipped in some iterations; without a fake packet on
    the skip path the arbiter's ROM order wedges on the missing
    iteration.  Conversely, a fake path on an unconditional port is dead
    hardware (informational).
    """

    name = "prevv-fake-coverage"
    layer = "circuit"
    codes = ("PV105", "PV107")
    requires = ("circuit", "build", "fn")

    def run(self, ctx: LintContext) -> None:
        units = getattr(ctx.build, "units", [])
        if not units:
            return
        fn = ctx.fn
        mem_ops = list(fn.memory_ops())
        tails_by_header = {}
        for tail, header in back_edges(fn):
            tails_by_header.setdefault(id(header), []).append(tail)
        for unit in units:
            for i, port in enumerate(unit.ports):
                if port.rom_pos >= len(mem_ops):
                    continue  # stale build vs IR; cross-check pass reports
                op = mem_ops[port.rom_pos]
                block = op.parent
                loop = innermost_loop_of(ctx.loops, block)
                if loop is None:
                    continue
                tails = tails_by_header.get(id(loop.header), [])
                skippable = not all(
                    block in ctx.doms.get(t, set()) for t in tails
                )
                has_fake = unit.fake_port_name(i) in unit.inputs
                if skippable and not has_fake:
                    ctx.emit(
                        "PV105",
                        f"{unit.name} port {i} ({op.name}): block "
                        f"{block.name} is conditionally skipped but no "
                        "fake-token generator covers the skip path",
                        location=_cloc(ctx, unit),
                        hint="attach a FakeTokenGenerator on the "
                        "not-taken branch edge (Sec. V-C)",
                    )
                elif has_fake and not skippable:
                    ctx.emit(
                        "PV107",
                        f"{unit.name} port {i} ({op.name}): fake-token "
                        "path present but the operation executes every "
                        "iteration",
                        location=_cloc(ctx, unit),
                        hint="drop the generator to save area",
                    )


@register_pass
class DoneTokenCoveragePass(LintPass):
    """PV106: every PreVV port must see its nest-exit done token.

    Without a done packet the arbiter cannot retire the port's final
    iterations, so the premature queue never drains and the squash
    controller holds replay state forever.
    """

    name = "prevv-done-coverage"
    layer = "circuit"
    codes = ("PV106",)
    requires = ("circuit", "build")

    def run(self, ctx: LintContext) -> None:
        for unit in getattr(ctx.build, "units", []):
            for i in range(len(unit.ports)):
                if unit.done_port_name(i) not in unit.inputs:
                    ctx.emit(
                        "PV106",
                        f"{unit.name} port {i}: no done-token generator "
                        "attached",
                        location=_cloc(ctx, unit),
                        hint="attach a DoneTokenGenerator on the loop-nest "
                        "exit edge",
                    )


@register_pass
class CodegenCompilabilityPass(LintPass):
    """PV208: compiler fallbacks must be visible, not silent.

    Engine selection quietly falls back to the interpreted engine when
    the step-code compiler (:mod:`repro.dataflow.codegen`) declines a
    circuit — correct, but a throughput cliff the user asked to avoid by
    requesting ``engine="compiled"``.  This pass reports *why* a circuit
    would be declined: component classes outside the audited codegen set
    (or lacking the audit marker), instance-level ``propagate``/``tick``
    patches that defeat the emitted templates, and cyclic valid/ready
    residue that breaks the two-phase static schedule.
    """

    name = "circuit-codegen-compilability"
    layer = "circuit"
    codes = ("PV208",)
    requires = ("circuit",)

    def run(self, ctx: LintContext) -> None:
        from ...dataflow.codegen import class_support, why_not_compilable

        flagged_classes: Set[type] = set()
        structural = False
        for comp in ctx.circuit.components:
            cls = type(comp)
            if cls not in flagged_classes:
                if class_support(cls) is None:
                    flagged_classes.add(cls)
                    structural = True
                    ctx.emit(
                        "PV208",
                        f"component class {cls.__name__} (e.g. "
                        f"{comp.name!r}) is not in the audited codegen "
                        "set; the compiled engine will decline this "
                        "circuit",
                        location=_cloc(ctx, comp),
                        hint="audit the class' propagate/tick bodies, add "
                        "an inline template or pre-bound call entry in "
                        "repro.dataflow.codegen, and mark "
                        "scheduling_contract_audited",
                    )
                elif not getattr(cls, "scheduling_contract_audited", False):
                    flagged_classes.add(cls)
                    structural = True
                    ctx.emit(
                        "PV208",
                        f"component class {cls.__name__} (e.g. "
                        f"{comp.name!r}) is in the codegen set but its "
                        "scheduling contract is not audited",
                        location=_cloc(ctx, comp),
                        hint="set scheduling_contract_audited = True after "
                        "checking the contract flags (PV207 documents the "
                        "audit)",
                    )
            for meth in ("propagate", "tick"):
                if meth in comp.__dict__:
                    structural = True
                    ctx.emit(
                        "PV208",
                        f"{comp.name!r} carries an instance-level {meth} "
                        "override; the compiled engine will decline this "
                        "circuit",
                        location=_cloc(ctx, comp),
                        hint="instance patches defeat the emitted "
                        "templates; move the behaviour into an audited "
                        "class",
                    )
        if structural:
            return  # per-component diagnostics already explain the decline
        reason = why_not_compilable(ctx.circuit)
        if reason is not None:
            ctx.emit(
                "PV208",
                f"circuit is not compilable: {reason}",
                location=ctx.circuit.name,
                hint="the two-phase emitted schedule needs an acyclic "
                "valid network and a TEHB-cut ready network; declined "
                "circuits run on the interpreted reference engine",
            )

