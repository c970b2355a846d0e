"""Static scheduling of elastic circuits: dependence graphs + levelization.

Within one clock cycle the handshake network settles to a fixpoint: every
``valid``/``data`` signal flows from a producer's :meth:`propagate` to the
consumers that read it, and every ``ready`` flows the opposite way.  Both
directions are monotone, so *any* evaluation order converges — but the
number of re-evaluations depends enormously on the order.  This module
computes, once per circuit, the order that makes the common case settle in
a single sweep:

* :func:`valid_dependence_edges` — the combinational *valid* network.  An
  edge ``P -> C`` exists for every channel whose consumer ``C`` reads the
  channel's ``valid``/``data`` inside :meth:`propagate` (components that
  drive their signals purely from sequential state — opaque buffers,
  opaque FIFOs, sinks — declare ``observes_input_valid = False`` and
  contribute no edge, which is exactly what cuts loop back-edges out of
  the graph).
* :func:`levelize` — Kahn's algorithm over those edges.  The result is a
  :class:`LevelSchedule`: components in topological order (so one forward
  sweep settles the whole acyclic valid network), plus the *cyclic
  residue* — components on combinational valid cycles (a mis-built
  circuit; the PV103 lint pass flags the same structure).  The compiled
  engine (:mod:`repro.dataflow.codegen`) unrolls its valid/data wave in
  this order and declines a circuit with a residue; the interpreted
  worklist engine still evaluates such a circuit correctly.

The module is also the shared home of the component-graph helpers the
PV1xx lint passes consume (:func:`token_flow_adjacency`,
:func:`strongly_connected_components`), so the linter and the compiled
engine analyse one and the same graph instead of each rebuilding their
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .circuit import Circuit
from .component import Component


def token_flow_adjacency(circuit: Circuit) -> Dict[int, Set[int]]:
    """Producer -> consumer adjacency over components, keyed by ``id()``.

    The token-flow graph: one node per component, one edge per channel.
    Shared by the PV103/PV104 lint passes.
    """
    adj: Dict[int, Set[int]] = {id(c): set() for c in circuit.components}
    for chan in circuit.channels:
        if chan.producer is not None and chan.consumer is not None:
            adj[id(chan.producer)].add(id(chan.consumer))
    return adj


def strongly_connected_components(adj: Dict[int, Set[int]]) -> List[List[int]]:
    """Tarjan's strongly-connected components, iteratively (no recursion)."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def valid_dependence_edges(
    circuit: Circuit,
) -> List[Tuple[Component, Component]]:
    """Edges ``(producer, consumer)`` of the within-cycle valid network.

    A channel constrains evaluation order only when its consumer actually
    reads the channel's ``valid``/``data`` during :meth:`propagate`;
    components driven purely by sequential state opt out via
    ``observes_input_valid = False``.  Consumers that read input valids
    but never carry them through to an output (``forwards_valid =
    False`` — memory controllers, LSQs) terminate the valid wave: they
    contribute no incoming edge either, so the loops they sit on drop
    out of the graph.  The compiled engine still calls them after the
    valid wave, with every input settled.
    """
    edges: List[Tuple[Component, Component]] = []
    for chan in circuit.channels:
        if chan.producer is None or chan.consumer is None:
            continue
        if chan.consumer.observes_input_valid and chan.consumer.forwards_valid:
            edges.append((chan.producer, chan.consumer))
    return edges


def ready_network_acyclic(circuit: Circuit) -> bool:
    """True when the combinational *ready* network has no cycles.

    The backward wave: ``ready`` on a component's input channels may
    depend on ``ready`` of its output channels — but only when the
    component declares ``observes_output_ready``.  Transparent buffers
    and FIFOs cut the chain exactly where hardware TEHBs do.  An edge
    runs ``C -> consumer(out)`` for every output channel of a component
    ``C`` that observes output ready: the consumer's driven in-ready
    feeds ``C``'s evaluation.

    The compiled engine (:mod:`repro.dataflow.codegen`) settles each
    wave in one straight-line pass, which is only sound when every
    within-cycle signal dependence is acyclic; this is the ready half of
    that check (:func:`levelize` covers the valid half via its cyclic
    residue).  A circuit failing it is declined and runs on the
    interpreted :class:`~repro.dataflow.simulator.Simulator`, whose
    worklist settles any residue.
    """
    adj: Dict[int, Set[int]] = {id(c): set() for c in circuit.components}
    for chan in circuit.channels:
        prod, cons = chan.producer, chan.consumer
        if prod is None or cons is None:
            continue
        if prod.observes_output_ready:
            adj[id(prod)].add(id(cons))
    for scc in strongly_connected_components(adj):
        if len(scc) > 1:
            return False
        node = scc[0]
        if node in adj[node]:
            return False
    return True


@dataclass
class LevelSchedule:
    """A static evaluation order for one circuit's combinational network."""

    #: every component, acyclic part first in topological (level) order,
    #: then the cyclic residue in circuit-construction order
    order: List[Component]
    #: components on combinational valid cycles (normally empty; a
    #: buffer-free cycle is a PV103 lint error but must still simulate)
    cyclic: List[Component] = field(default_factory=list)


def levelize(circuit: Circuit) -> LevelSchedule:
    """Topologically levelize ``circuit``'s valid-dependence graph.

    Deterministic for a given construction order: ties within a level keep
    the order components were added to the circuit.
    """
    comps = circuit.components
    position = {id(c): i for i, c in enumerate(comps)}
    succs: Dict[int, List[Component]] = {id(c): [] for c in comps}
    in_degree: Dict[int, int] = {id(c): 0 for c in comps}
    for producer, consumer in valid_dependence_edges(circuit):
        succs[id(producer)].append(consumer)
        in_degree[id(consumer)] += 1

    order: List[Component] = []
    frontier = [c for c in comps if in_degree[id(c)] == 0]
    while frontier:
        next_frontier: List[Component] = []
        for comp in frontier:
            order.append(comp)
            for succ in succs[id(comp)]:
                in_degree[id(succ)] -= 1
                if in_degree[id(succ)] == 0:
                    next_frontier.append(succ)
        # Keep construction order within each level for determinism.
        next_frontier.sort(key=lambda c: position[id(c)])
        frontier = next_frontier

    cyclic = [c for c in comps if in_degree[id(c)] > 0]
    order.extend(cyclic)
    return LevelSchedule(order=order, cyclic=cyclic)
