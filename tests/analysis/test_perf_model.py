"""Unit tests for the PVPerf ratio graph and its exact MCR solver."""

import random
from fractions import Fraction

from repro.analysis.perf import (
    PerfGraph,
    RatioEdge,
    cycle_report,
    max_cycle_ratio,
    perf_graph,
)
from repro.dataflow import (
    Circuit,
    Fifo,
    Fork,
    Join,
    Merge,
    OpaqueBuffer,
    Operator,
    Sink,
    Source,
    TransparentBuffer,
    TransparentFifo,
)


# ----------------------------------------------------------------------
# max_cycle_ratio
# ----------------------------------------------------------------------
class TestMaxCycleRatio:
    def test_acyclic_graph_has_no_constraint(self):
        edges = [
            RatioEdge(0, 1, latency=3, capacity=1),
            RatioEdge(1, 2, latency=5, capacity=1),
        ]
        assert max_cycle_ratio(3, edges) is None

    def test_self_loop_ratio_is_exact(self):
        edges = [RatioEdge(0, 0, latency=3, capacity=2)]
        cycle = max_cycle_ratio(1, edges)
        assert cycle.ratio == Fraction(3, 2)
        assert cycle.latency == 3
        assert cycle.capacity == 2
        assert cycle.edges == (0,)
        assert not cycle.is_combinational

    def test_two_edge_cycle(self):
        edges = [
            RatioEdge(0, 1, latency=2, capacity=3),
            RatioEdge(1, 0, latency=3, capacity=2),
        ]
        cycle = max_cycle_ratio(2, edges)
        assert cycle.ratio == Fraction(5, 5)
        assert cycle.latency == 5
        assert cycle.capacity == 5
        assert sorted(cycle.edges) == [0, 1]

    def test_competing_cycles_pick_the_maximum(self):
        # cycle A (nodes 0<->1): ratio 2/2 = 1; cycle B (self-loop on 2):
        # ratio 3/1 = 3 must win.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=1),
            RatioEdge(1, 0, latency=1, capacity=1),
            RatioEdge(2, 2, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(3)
        assert cycle.edges == (2,)

    def test_iterative_improvement_over_shared_nodes(self):
        # Two cycles through node 0: 0->1->0 with ratio 2/4 and 0->2->0
        # with ratio 7/3.  The solver must improve past the first cycle
        # it finds and settle on the exact maximum.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=2),
            RatioEdge(1, 0, latency=1, capacity=2),
            RatioEdge(0, 2, latency=4, capacity=2),
            RatioEdge(2, 0, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(7, 3)
        assert sorted(cycle.edges) == [2, 3]

    def test_zero_capacity_cycle_is_combinational(self):
        edges = [
            RatioEdge(0, 1, latency=0, capacity=0),
            RatioEdge(1, 0, latency=0, capacity=0),
            RatioEdge(2, 2, latency=1, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.is_combinational
        assert cycle.ratio is None
        assert cycle.capacity == 0

    def test_unbounded_edge_excludes_its_cycle(self):
        # The only cycle runs through capacity=None storage: it imposes
        # no throughput constraint, so no critical cycle exists.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=1),
            RatioEdge(1, 0, latency=1, capacity=None),
        ]
        assert max_cycle_ratio(2, edges) is None

    def test_unbounded_edge_does_not_mask_other_cycles(self):
        edges = [
            RatioEdge(0, 1, latency=9, capacity=None),
            RatioEdge(1, 0, latency=9, capacity=1),
            RatioEdge(2, 2, latency=1, capacity=4),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(1, 4)
        assert cycle.edges == (2,)

    def test_fractional_ratio_is_exact_not_floated(self):
        edges = [
            RatioEdge(0, 1, latency=1, capacity=3),
            RatioEdge(1, 2, latency=1, capacity=3),
            RatioEdge(2, 0, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(5, 7)
        assert isinstance(cycle.ratio, Fraction)

    def test_matches_brute_force_cycle_enumeration(self):
        rng = random.Random(20260413)
        for _ in range(5000):
            n_nodes = rng.randint(1, 7)
            edges = [
                RatioEdge(
                    rng.randrange(n_nodes),
                    rng.randrange(n_nodes),
                    latency=rng.randint(0, 4),
                    capacity=rng.choice([None, 0, 1, 2, 3, 5]),
                )
                for _ in range(rng.randint(0, 14))
            ]
            cycles = _simple_cycles(n_nodes, edges)
            got = max_cycle_ratio(n_nodes, edges)
            context = (n_nodes, edges)
            if not cycles:
                assert got is None, context
                continue
            assert got is not None, context
            _assert_simple_cycle(edges, got.edges)
            assert got.latency == sum(edges[i].latency for i in got.edges)
            assert got.capacity == sum(edges[i].capacity for i in got.edges)
            if any(sum(edges[i].capacity for i in c) == 0 for c in cycles):
                assert got.is_combinational, context
                assert got.capacity == 0, context
                continue
            best = max(
                Fraction(
                    sum(edges[i].latency for i in c),
                    sum(edges[i].capacity for i in c),
                )
                for c in cycles
            )
            assert got.ratio == best, context


def _simple_cycles(n_nodes, edges):
    """Every simple cycle over the bounded edges, as edge-index lists.

    Each cycle is enumerated once, from its smallest node; parallel
    edges give distinct cycles.
    """
    out = {node: [] for node in range(n_nodes)}
    for idx, edge in enumerate(edges):
        if edge.capacity is not None:
            out[edge.src].append(idx)
    cycles = []

    def walk(start, node, path, on_path):
        for idx in out[node]:
            nxt = edges[idx].dst
            if nxt == start:
                cycles.append(path + [idx])
            elif nxt > start and nxt not in on_path:
                walk(start, nxt, path + [idx], on_path | {nxt})

    for start in range(n_nodes):
        walk(start, start, [], {start})
    return cycles


def _assert_simple_cycle(edges, cycle):
    nodes = [edges[i].src for i in cycle]
    assert len(set(nodes)) == len(nodes), cycle
    for here, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert edges[here].dst == edges[nxt].src, cycle


# ----------------------------------------------------------------------
# perf_model defaults
# ----------------------------------------------------------------------
class TestPerfModels:
    def test_buffer_models(self):
        assert OpaqueBuffer("b").perf_model() == (1, 1)
        assert TransparentBuffer("b").perf_model() == (0, 1)
        assert Fifo("b", depth=4).perf_model() == (1, 4)
        assert TransparentFifo("b", depth=3).perf_model() == (0, 3)

    def test_operator_models(self):
        comb = Operator("op", lambda a: a, 1, latency=0)
        assert comb.perf_model() == (0, 0)
        piped = Operator("op", lambda a: a, 1, latency=3)
        assert piped.perf_model() == (3, 3)

    def test_combinational_routing_is_zero_zero(self):
        assert Merge("m", 2).perf_model() == (0, 0)
        assert Fork("f", 2).perf_model() == (0, 0)
        assert Join("j", 2).perf_model() == (0, 0)

    def test_decoupled_components_are_unbounded(self):
        # Sink is unconditionally ready (does not observe input valid):
        # the base model cannot bound its storage, so it must report
        # capacity=None rather than a fake constraint.
        assert Sink("s").perf_model()[1] is None


# ----------------------------------------------------------------------
# perf_graph over a hand-built circuit
# ----------------------------------------------------------------------
def _ring():
    """src -> merge -> oehb -> fork -> {sink, back to merge}."""
    circuit = Circuit("ring")
    src = circuit.add(Source("src", value=1, limit=1))
    merge = circuit.add(Merge("mrg", 2))
    buf = circuit.add(OpaqueBuffer("oehb"))
    fork = circuit.add(Fork("fk", 2))
    sink = circuit.add(Sink("snk"))
    circuit.connect(src, "out", merge, "in0")
    circuit.connect(merge, "out", buf, "in")
    circuit.connect(buf, "out", fork, "in")
    circuit.connect(fork, "out0", sink, "in")
    circuit.connect(fork, "out1", merge, "in1")
    return circuit


class TestPerfGraph:
    def test_one_edge_per_channel_weighted_by_consumer(self):
        circuit = _ring()
        graph = perf_graph(circuit)
        assert isinstance(graph, PerfGraph)
        assert graph.n_nodes == len(circuit.components)
        assert len(graph.edges) == len(graph.channels)
        by_tag = {e.tag: e for e in graph.edges}
        # merge -> oehb edge carries the buffer's (1, 1) model
        [into_buf] = [
            e for name, e in by_tag.items()
            if circuit.channels[graph.edges.index(e)].consumer.name == "oehb"
        ]
        assert (into_buf.latency, into_buf.capacity) == (1, 1)

    def test_critical_cycle_is_the_ring(self):
        graph = perf_graph(_ring())
        cycle = graph.critical_cycle()
        assert cycle is not None
        # ring storage: one opaque buffer -> latency 1, capacity 1
        assert cycle.ratio == Fraction(1, 1)
        assert cycle.latency == 1
        assert cycle.capacity == 1
        names = {ch.consumer.name for ch in graph.cycle_channels(cycle)}
        assert names == {"mrg", "oehb", "fk"}

    def test_cycle_report_shape(self):
        graph = perf_graph(_ring())
        cycle = graph.critical_cycle()
        report = cycle_report(graph, cycle)
        assert report["ratio"] == "1"
        assert report["latency"] == 1
        assert report["capacity"] == 1
        assert report["combinational"] is False
        assert len(report["channels"]) == len(cycle.edges)
        assert all(isinstance(n, str) for n in report["channels"])
