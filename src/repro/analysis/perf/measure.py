"""Measured counterparts of the static bounds, and their comparison.

Soundness is only checkable when each static bound is paired with the
quantity it actually constrains — mixing loops (or cycles) turns a true
bound into a false alarm.  The pairings:

* **graph** — the critical cycle's ratio against the cycle's *own*
  firing count: among its channels, the one with the most transfers
  ``T`` satisfies ``cycles + L + C >= ratio * T`` (the ``L + C`` slack
  absorbs pipeline fill and drain; one extra cycle-load of tokens can be
  in flight at either end of the run).
* **validation** — per PreVV unit, the summed real-validation work
  ``sum(iters(loop) * n_real / v)`` can never exceed the cycle count:
  the arbiter retires at most ``v`` real operations per clock, whichever
  loop produced them.  Replayed iterations only add work on the measured
  side, so the architectural iteration counts stay a lower bound.
* **floor** — any loop's header fires once per body activation and a
  channel fires at most once per clock, so ``cycles >= iters(loop)``.

:func:`compare` evaluates every applicable pairing and returns one
record per check; a failed record means the *static analysis* is wrong
(an unsound model), never the circuit — which is exactly what the PV404
lint pass and the ``--perf`` bench sweep alarm on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from ...compile import compile_function
from ...dataflow import make_simulator
from ...eval.runner import make_done_condition
from ...ir.interpreter import run_golden
from ...kernels import get_kernel
from .predict import PerfPrediction, predict


@dataclass
class PerfMeasurement:
    """Dynamic facts of one simulated kernel run."""

    subject: str
    cycles: int
    #: per-channel transfer counts (needs the stats-collecting engine)
    channel_transfers: Dict[str, int] = field(default_factory=dict)
    #: per-loop body activations from the golden interpreter, keyed by
    #: header block name (architectural — replays not included)
    loop_activations: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckRecord:
    """One static-vs-measured soundness comparison."""

    kind: str        # "graph" | "validation" | "floor"
    subject: str     # what was compared (cycle channels, unit, loop)
    static: Fraction
    measured: Fraction
    note: str = ""

    @property
    def ok(self) -> bool:
        """The lower bound held (static never exceeds measured)."""
        return self.static <= self.measured

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "static": str(self.static),
            "measured": str(self.measured),
            "ok": self.ok,
            "note": self.note,
        }


def measure_kernel(
    kernel_name: str,
    config,
    sizes: Optional[Dict[str, int]] = None,
    max_cycles: int = 2_000_000,
    engine: str = "auto",
):
    """Compile, predict, interpret and simulate one (kernel, config).

    Returns ``(prediction, measurement)`` ready for :func:`compare`.
    The checks need per-channel *transfer* counts only, which the
    compiled engine supplies through its fused counters
    (``count_transfers``); the interpreted engine falls back to the full
    stats-collecting path.  ``engine="auto"`` therefore measures with
    the compiled engine whenever the compiler accepts the circuit.
    """
    kernel = get_kernel(kernel_name, **(sizes or {}))
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    prediction = predict(build, fn, kernel.args)

    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)

    build.memory.initialize(kernel.memory_init)
    sim = make_simulator(build.circuit, engine=engine,
                         max_cycles=max_cycles, count_transfers=True)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))

    measurement = PerfMeasurement(
        subject=build.circuit.name,
        cycles=stats.cycles,
        channel_transfers={
            ch.name: ch.transfers for ch in build.circuit.channels
        },
        loop_activations=dict(golden.loop_activations),
    )
    return prediction, measurement


def compare(
    prediction: PerfPrediction, measurement: PerfMeasurement
) -> List[CheckRecord]:
    """All applicable static-vs-measured checks, graph check first."""
    records: List[CheckRecord] = []
    cycles = Fraction(measurement.cycles)

    cycle = prediction.cycle
    if cycle is not None and not cycle.is_combinational:
        names = [ch.name for ch in prediction.graph.cycle_channels(cycle)]
        fired = max(
            (measurement.channel_transfers.get(name, 0) for name in names),
            default=0,
        )
        if fired > 0:
            slack = cycle.latency + cycle.capacity
            records.append(
                CheckRecord(
                    kind="graph",
                    subject=";".join(names),
                    static=cycle.ratio,
                    measured=Fraction(measurement.cycles + slack, fired),
                    note=f"{fired} firings, fill/drain slack {slack}",
                )
            )

    per_unit: Dict[str, Fraction] = {}
    for vp in prediction.validation:
        iters = measurement.loop_activations.get(vp.loop)
        if iters is None:
            continue
        work = Fraction(iters * vp.n_real_ops, vp.validations_per_cycle)
        per_unit[vp.unit] = per_unit.get(vp.unit, Fraction(0)) + work
    for unit in sorted(per_unit):
        records.append(
            CheckRecord(
                kind="validation",
                subject=unit,
                static=per_unit[unit],
                measured=cycles,
                note="summed real-validation work vs total cycles",
            )
        )

    if measurement.loop_activations:
        loop = max(
            sorted(measurement.loop_activations),
            key=lambda name: measurement.loop_activations[name],
        )
        records.append(
            CheckRecord(
                kind="floor",
                subject=loop,
                static=Fraction(measurement.loop_activations[loop]),
                measured=cycles,
                note="busiest loop's activations vs total cycles",
            )
        )
    return records
