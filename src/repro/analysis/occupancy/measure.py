"""Measured peak occupancies, and the static-vs-measured comparison.

The measured side samples every modeled place at every end-of-cycle
hook of whichever engine :func:`~repro.dataflow.make_simulator` picks
(normally the compiled one).  Both engines commit sequential state onto
the component objects before the hooks run — the compiled tick
templates write buffers' ``_slot``/``_items`` directly — so the sampled
``occupancy`` is never stale, and the engine actually used is recorded
on the measurement.  End-of-cycle sampling is exact, not an
approximation: every component's ``tick`` pops its outgoing token
before pushing the incoming one, so the end-of-tick occupancy *is* the
cycle's peak.  The premature queue and the LSQ keep their own running
peaks (``max_occupancy`` counters), which the hook does not need to
duplicate.

:func:`compare` pairs each static claim with the quantity it bounds:

* **capacity** — a place's measured peak against its structural
  capacity; a violation means the *hardware model* (``perf_model``,
  queue depths) mis-states the implementation → PV501;
* **bound** — a place's measured peak against PVBound's derived upper
  bound; a violation means the transfer function is unsound → PV504;
* **overflow** — per unit, observed physical overflow against the
  predicted reachable set; prediction must be a superset → PV504 (and
  the fuzz oracle's invariant).

A failed record always indicts the static analysis, never the
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...compile import compile_function
from ...dataflow import make_simulator
from ...errors import QueueOverflowError
from ...eval.runner import make_done_condition
from ...kernels import get_kernel
from ...lsq.lsq import LoadStoreQueue
from ...memory.controller import MemoryController
from ...prevv.unit import PreVVUnit
from .model import OccupancyPrediction, analyze_build
from .queue_model import ArbiterPolicy


@dataclass
class OccupancyMeasurement:
    """Peak occupancies of one simulated kernel run."""

    subject: str
    cycles: int
    #: peak simultaneous occupancy per place name (same names as the
    #: prediction's place graph; channels are not sampled — their
    #: capacity-1 bound is structural)
    peaks: Dict[str, int] = field(default_factory=dict)
    #: units whose premature queue physically overflowed during the run
    overflowed_units: List[str] = field(default_factory=list)
    #: simulation engine actually used ("compiled" or "reference")
    engine: str = ""

    @property
    def overflowed(self) -> bool:
        return bool(self.overflowed_units)


class _PeakSampler:
    """End-of-cycle probe reading every modeled place's live occupancy."""

    def __init__(self, circuit):
        self.peaks: Dict[str, int] = {}
        #: (name prefix, component, attribute yielding a list of ints)
        self._vector_probes = []
        self._scalar_probes = []
        for comp in circuit.components:
            if isinstance(comp, MemoryController):
                self._vector_probes.append(
                    (f"mcresp:{comp.name}", comp, "response_occupancies"))
                for i in range(comp.n_loads):
                    self.peaks[f"mcresp:{comp.name}:{i}"] = 0
            elif isinstance(comp, PreVVUnit):
                self._vector_probes.append(
                    (f"pending:{comp.name}", comp, "pending_occupancies"))
                for i in range(len(comp.ports)):
                    self.peaks[f"pending:{comp.name}:{i}"] = 0
            elif isinstance(comp, LoadStoreQueue):
                pass  # keeps its own max_* counters
            elif getattr(type(comp), "occupancy", None) is not None:
                if comp.perf_model()[1] is not None:
                    self._scalar_probes.append((f"buf:{comp.name}", comp))
                    self.peaks[f"buf:{comp.name}"] = 0

    def __call__(self) -> None:
        peaks = self.peaks
        for prefix, comp, attr in self._vector_probes:
            for i, value in enumerate(getattr(comp, attr)):
                key = f"{prefix}:{i}"
                if value > peaks[key]:
                    peaks[key] = value
        for key, comp in self._scalar_probes:
            value = comp.occupancy
            if value > peaks[key]:
                peaks[key] = value


def measure_build(build, max_cycles: int = 2_000_000) -> OccupancyMeasurement:
    """Simulate one already-initialized build and collect peaks."""
    sim = make_simulator(build.circuit, max_cycles=max_cycles)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    sampler = _PeakSampler(build.circuit)
    sim.end_of_cycle_hooks.append(sampler)

    overflowed: List[str] = []
    try:
        sim.run(make_done_condition(build))
    except QueueOverflowError:
        overflowed = [
            u.name for u in build.units
            if u.queue.occupancy >= u.queue.physical_depth
        ] or [u.name for u in build.units]

    peaks = dict(sampler.peaks)
    for unit in build.units:
        peaks[f"queue:{unit.name}"] = unit.queue.max_occupancy
    for lsq in build.lsqs:
        peaks[f"lsq:{lsq.name}:loads"] = lsq.max_load_occupancy
        peaks[f"lsq:{lsq.name}:stores"] = lsq.max_store_occupancy

    return OccupancyMeasurement(
        subject=build.circuit.name,
        cycles=sim.stats.cycles,
        peaks=peaks,
        overflowed_units=overflowed,
        engine=sim.engine_name,
    )


def measure_kernel(
    kernel_name: str,
    config,
    sizes: Optional[Dict[str, int]] = None,
    max_cycles: int = 2_000_000,
    policy: Optional[ArbiterPolicy] = None,
):
    """Compile, prove and simulate one (kernel, config).

    Returns ``(prediction, measurement)`` ready for :func:`compare`.
    """
    kernel = get_kernel(kernel_name, **(sizes or {}))
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    prediction = analyze_build(build, fn, kernel.args, policy=policy)

    build.memory.initialize(kernel.memory_init)
    measurement = measure_build(build, max_cycles=max_cycles)
    return prediction, measurement


@dataclass(frozen=True)
class OccupancyCheck:
    """One static-vs-measured occupancy comparison."""

    kind: str        # "capacity" | "bound" | "overflow"
    subject: str     # place or unit name
    static: Optional[int]
    measured: int
    ok: bool
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "static": self.static,
            "measured": self.measured,
            "ok": self.ok,
            "note": self.note,
        }


def compare(
    prediction: OccupancyPrediction, measurement: OccupancyMeasurement
) -> List[OccupancyCheck]:
    """All applicable occupancy soundness checks, sorted by place."""
    records: List[OccupancyCheck] = []
    for name in sorted(measurement.peaks):
        peak = measurement.peaks[name]
        place = prediction.graph.places.get(name)
        if place is None:
            continue
        if place.capacity is not None:
            records.append(OccupancyCheck(
                kind="capacity", subject=name,
                static=place.capacity, measured=peak,
                ok=peak <= place.capacity,
                note=f"{place.kind} structural capacity",
            ))
        bound = prediction.bounds.get(name)
        records.append(OccupancyCheck(
            kind="bound", subject=name,
            static=bound, measured=peak,
            ok=bound is None or peak <= bound,
            note="derived occupancy bound"
            if bound is not None else "no finite bound derived",
        ))

    predicted = set(prediction.overflow_units)
    for claim in prediction.claims:
        observed = claim.unit in measurement.overflowed_units
        records.append(OccupancyCheck(
            kind="overflow", subject=claim.unit,
            static=claim.bound,
            measured=1 if observed else 0,
            ok=(not observed) or claim.unit in predicted,
            note="predicted-overflow set must cover observed overflow",
        ))
    return records
