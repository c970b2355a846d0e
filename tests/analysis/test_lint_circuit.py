"""Circuit-layer lint passes: connectivity, deadlock detector, token
drain — plus the guarantee that every seed kernel's generated circuit
lints clean under both memory styles."""

import pytest

from repro.analysis.lint import lint_circuit, lint_kernel
from repro.analysis.lint.circuit_passes import (
    cuts_token_cycle,
    is_token_consumer,
)
from repro.config import HardwareConfig
from repro.dataflow import (
    Circuit,
    Fork,
    Merge,
    OpaqueBuffer,
    Operator,
    Sink,
    Source,
    TransparentBuffer,
)
from repro.kernels import kernel_names


def line(*components):
    circuit = Circuit("line")
    for comp in components:
        circuit.add(comp)
    for producer, consumer in zip(components, components[1:]):
        circuit.connect(producer, "out", consumer, "in")
    return circuit


def cyclic_circuit(loop_buffer, in_port="in"):
    """source -> merge -> fork -> (sink, loop_buffer -> back to merge)."""
    circuit = Circuit("cyc")
    src = circuit.add(Source("src", value=1))
    merge = circuit.add(Merge("m", 2))
    fork = circuit.add(Fork("f", 2))
    sink = circuit.add(Sink("k"))
    buf = circuit.add(loop_buffer)
    circuit.connect(src, "out", merge, merge.in_port(0))
    circuit.connect(merge, "out", fork, "in")
    circuit.connect(fork, fork.out_port(0), sink, "in")
    circuit.connect(fork, fork.out_port(1), buf, in_port)
    circuit.connect(buf, "out", merge, merge.in_port(1))
    return circuit


class TestClassifiers:
    def test_opaque_storage_cuts_cycles(self):
        assert cuts_token_cycle(OpaqueBuffer("b"))
        assert not cuts_token_cycle(TransparentBuffer("b"))
        assert not cuts_token_cycle(Fork("f", 2))

    def test_pipelined_operator_cuts_combinational_does_not(self):
        mul = Operator.from_opcode("m", "mul")
        add = Operator.from_opcode("a", "add")
        assert mul.latency >= 1 and cuts_token_cycle(mul)
        assert add.latency == 0 and not cuts_token_cycle(add)

    def test_consumers(self):
        assert is_token_consumer(Sink("k"))
        assert not is_token_consumer(OpaqueBuffer("b"))


class TestConnectivity:
    def test_pv101_fork_with_unwired_output(self):
        circuit = Circuit("c")
        src = circuit.add(Source("src", value=1))
        fork = circuit.add(Fork("f", 2))
        sink = circuit.add(Sink("k"))
        circuit.connect(src, "out", fork, "in")
        circuit.connect(fork, fork.out_port(0), sink, "in")
        # fork.out1 left dangling: Circuit.validate misses it, the lint
        # pass derives the expectation from the declared arity.
        report = lint_circuit(circuit)
        pv101 = report.by_code("PV101")
        assert len(pv101) == 1
        assert "out1" in pv101[0].message

    def test_pv102_dangling_channel(self):
        circuit = line(Source("src", value=1), Sink("k"))
        circuit.channels[0].consumer = None
        report = lint_circuit(circuit)
        assert "PV102" in report.codes()

    def test_clean_line_is_clean(self):
        report = lint_circuit(
            line(Source("src", value=1), OpaqueBuffer("b"), Sink("k"))
        )
        assert report.ok
        assert len(report) == 0


class TestDeadlockDetector:
    def test_pv103_buffer_free_cycle(self):
        report = lint_circuit(cyclic_circuit(TransparentBuffer("tb")))
        pv103 = report.by_code("PV103")
        assert len(pv103) == 1
        assert "combinational cycle" in pv103[0].message
        assert not report.ok

    def test_opaque_buffer_cuts_the_cycle(self):
        report = lint_circuit(cyclic_circuit(OpaqueBuffer("ob")))
        assert report.by_code("PV103") == []
        assert report.ok

    def test_pipelined_operator_cuts_the_cycle(self):
        op = Operator("mul", lambda a: a, n_inputs=1, latency=4)
        report = lint_circuit(cyclic_circuit(op, in_port=op.in_port(0)))
        assert report.by_code("PV103") == []


class TestTokenDrain:
    def test_pv104_region_without_consumer(self):
        circuit = Circuit("c")
        src = circuit.add(Source("src", value=1))
        buf = circuit.add(OpaqueBuffer("b"))
        circuit.connect(src, "out", buf, "in")
        report = lint_circuit(circuit)
        pv104 = report.by_code("PV104")
        assert {d.message.split(":")[0] for d in pv104} == {"b", "src"}

    def test_sink_drains_everything(self):
        report = lint_circuit(
            line(Source("src", value=1), OpaqueBuffer("b"), Sink("k"))
        )
        assert report.by_code("PV104") == []


class TestCodegenCompilability:
    """PV208: the compiled engine's declines must be visible up front."""

    def _clean(self):
        return line(Source("src", value=1), OpaqueBuffer("b"), Sink("k"))

    def test_pv208_unaudited_class_is_flagged_once(self):
        from repro.dataflow.component import Component

        class OffMenu(Component):
            pass

        circuit = self._clean()
        circuit.add(OffMenu("rogue1"))
        circuit.add(OffMenu("rogue2"))
        report = lint_circuit(circuit)
        pv208 = report.by_code("PV208")
        assert len(pv208) == 1  # per class, not per instance
        assert "OffMenu" in pv208[0].message
        from repro.analysis.lint import Severity

        assert pv208[0].severity is Severity.WARNING

    def test_pv208_instance_override_is_flagged(self):
        circuit = self._clean()
        buf = next(c for c in circuit.components if c.name == "b")
        buf.propagate = type(buf).propagate.__get__(buf)
        report = lint_circuit(circuit)
        pv208 = report.by_code("PV208")
        assert len(pv208) == 1
        assert "instance-level propagate" in pv208[0].message

    def test_pv208_silent_on_compilable_circuit(self):
        report = lint_circuit(self._clean())
        assert report.by_code("PV208") == []


@pytest.mark.parametrize("style", ["prevv", "dynamatic"])
@pytest.mark.parametrize("kernel", kernel_names())
def test_every_seed_kernel_lints_clean(kernel, style):
    """No errors *and no warnings*: with PV208 registered this doubles
    as the guarantee that every generated circuit is accepted by the
    step-code compiler (no silent interpreted fallback on the grid)."""
    report = lint_kernel(kernel, HardwareConfig(memory_style=style))
    assert report.ok, report.format()
    assert not report.warnings, report.format()
