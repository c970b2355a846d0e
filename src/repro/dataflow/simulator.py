"""Cycle-accurate simulation of elastic circuits.

Each cycle has two phases:

1. **Combinational fixpoint** — channel signals are reset, then components'
   :meth:`propagate` methods run until no signal changes.  Because all
   handshake logic is monotone (valid/ready only rise within a cycle), the
   iteration reaches the unique least fixpoint regardless of evaluation
   order.  :class:`Simulator` is the seed algorithm, kept deliberately
   simple and order-agnostic: a per-cycle worklist over *all* components
   with tuple snapshots of the channels each batch can drive, waking the
   watchers of every channel that changed.

2. **Clock edge** — per-channel statistics are recorded (when the
   simulator was built with ``collect_stats=True``), a trace is captured
   if one is attached, and every component's :meth:`tick` commits
   sequential state, followed by the end-of-cycle hooks.

:class:`Simulator` is the repo's only interpreted engine.  It is the
oracle the compiled engine (:mod:`repro.dataflow.codegen`) is pinned to by
the equivalence suite in ``tests/dataflow/test_engine_equivalence.py``
(bit-identical cycle counts, transfers, squashes and final memory), and
the fallback :func:`make_simulator` uses for traces, per-channel stats and
circuits the compiler declines.  It is several times slower than the
compiled engine, so evaluation runs should go through
:func:`make_simulator`.

The simulator also provides the deadlock detector used to demonstrate the
paper's Fig. 6 scenario: if no channel fires and no component reports
internal progress for ``deadlock_window`` consecutive cycles, a
:class:`~repro.errors.DeadlockError` is raised with the set of stalled
channels (valid-but-not-ready), which is exactly the observable signature
of a premature-queue deadlock.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional

from ..errors import ConvergenceError, DeadlockError, SimulationError
from .channel import Channel
from .circuit import Circuit
from .component import Component

logger = logging.getLogger(__name__)


class SimulationStats:
    """Aggregate counters for one simulation run."""

    def __init__(self):
        self.cycles = 0
        self.transfers = 0
        self.propagate_calls = 0
        self.squashes = 0
        self.squashed_iterations = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimulationStats({self.as_dict()})"


def _overrides(comp: Component, name: str) -> bool:
    """True when ``comp`` overrides ``Component.<name>`` (class or instance)."""
    if name in comp.__dict__:  # instance-level monkey patch (tests do this)
        return True
    return getattr(type(comp), name) is not getattr(Component, name)


class Simulator:
    """Drives a :class:`Circuit` cycle by cycle (seed algorithm)."""

    engine_name = "reference"

    def __init__(
        self,
        circuit: Circuit,
        max_cycles: int = 1_000_000,
        deadlock_window: int = 256,
        fixpoint_cap: int = 10_000,
        trace=None,
        collect_stats: bool = True,
    ):
        self.circuit = circuit
        self.max_cycles = max_cycles
        self.deadlock_window = deadlock_window
        self.fixpoint_cap = fixpoint_cap
        self.trace = trace
        self.collect_stats = collect_stats
        self.stats = SimulationStats()
        self._quiet_cycles = 0
        #: callables invoked after every clock edge (e.g. squash execution)
        self.end_of_cycle_hooks: List[Callable[[], None]] = []
        #: optional fail-fast predicate checked once per cycle by run();
        #: returning True ends the run immediately (PVSan uses this to
        #: stop a sanitized simulation at the first oracle error instead
        #: of running a corrupted circuit to completion).
        self.abort_condition: Optional[Callable[[], bool]] = None
        circuit.validate()
        # Event-driven bookkeeping: which components observe each channel,
        # and which channels each component can drive.
        self._watchers: Dict[Channel, List[Component]] = {}
        self._adjacent: Dict[Component, List[Channel]] = {
            c: [] for c in circuit.components
        }
        for chan in circuit.channels:
            watchers = []
            if chan.consumer is not None:
                watchers.append(chan.consumer)
                self._adjacent[chan.consumer].append(chan)
            if chan.producer is not None:
                watchers.append(chan.producer)
                self._adjacent[chan.producer].append(chan)
            self._watchers[chan] = watchers

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        comps = self.circuit.components
        channels = self.circuit.channels
        for chan in channels:
            chan.reset_cycle()
        pending = dict.fromkeys(comps)  # ordered set of components to evaluate
        rounds = 0
        while pending:
            rounds += 1
            if rounds > self.fixpoint_cap:
                raise ConvergenceError(
                    f"{self.circuit.name}: combinational fixpoint did not settle "
                    f"within {self.fixpoint_cap} rounds at cycle {self.stats.cycles}"
                )
            batch = list(pending)
            pending.clear()
            # Snapshot only channels the batch can drive, evaluate, then
            # wake the watchers of every changed channel.
            touched: Dict[Channel, tuple] = {}
            for comp in batch:
                for chan in self._adjacent[comp]:
                    if chan not in touched:
                        touched[chan] = (chan.valid, chan.ready, chan.data)
            for comp in batch:
                comp.propagate()
                self.stats.propagate_calls += 1
            for chan, prev in touched.items():
                if (chan.valid, chan.ready, chan.data) != prev:
                    for watcher in self._watchers[chan]:
                        pending[watcher] = None

    def step(self) -> int:
        """Simulate one cycle; returns the number of channel transfers."""
        self._fixpoint()
        fired = 0
        for chan in self.circuit.channels:
            if self.collect_stats:
                chan.record_stats()
            if chan.fires:
                fired += 1
        if self.trace is not None:
            self.trace.capture(self.circuit, self.stats.cycles)
        for comp in self.circuit.components:
            comp.tick()
        for hook in self.end_of_cycle_hooks:
            hook()
        self.stats.cycles += 1
        self.stats.transfers += fired
        return fired

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, done: Callable[[], bool]) -> SimulationStats:
        """Run until ``done()`` is true; raise on deadlock or cycle budget."""
        self._quiet_cycles = 0
        while not done():
            if self.abort_condition is not None and self.abort_condition():
                return self.stats
            if self.stats.cycles >= self.max_cycles:
                raise SimulationError(
                    f"{self.circuit.name}: exceeded {self.max_cycles} cycles "
                    "without completing"
                )
            fired = self.step()
            busy = fired > 0 or any(c.is_busy for c in self.circuit.components)
            if busy:
                self._quiet_cycles = 0
            else:
                self._quiet_cycles += 1
                if self._quiet_cycles >= self.deadlock_window:
                    self._raise_deadlock()
        return self.stats

    def run_cycles(self, n: int) -> SimulationStats:
        """Run exactly ``n`` cycles (no completion/deadlock checks)."""
        for _ in range(n):
            self.step()
        return self.stats

    def _raise_deadlock(self) -> None:
        stuck = [c for c in self.circuit.channels if c.valid and not c.ready]
        names = ", ".join(c.name for c in stuck[:8])
        more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
        raise DeadlockError(
            f"{self.circuit.name}: no progress for {self.deadlock_window} cycles "
            f"at cycle {self.stats.cycles}; stalled channels: {names}{more}",
            stuck_channels=stuck,
        )


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
#: engines make_simulator accepts; "auto" prefers compiled when eligible.
ENGINES = ("auto", "compiled", "reference")


def make_simulator(
    circuit: Circuit,
    engine: str = "auto",
    max_cycles: int = 1_000_000,
    deadlock_window: int = 256,
    fixpoint_cap: int = 10_000,
    trace=None,
    collect_stats: bool = False,
    count_transfers: bool = False,
):
    """Build the best simulator for ``circuit`` under one engine policy.

    ``engine``:

    * ``"auto"`` / ``"compiled"`` — the compiled engine when eligible (no
      trace, no per-channel stats, circuit accepted by the compiler),
      otherwise the interpreted :class:`Simulator`.  A compiler decline
      is logged as a warning naming the circuit and the reason; callers
      read ``sim.engine_name`` for the engine actually used (this is
      what the bench/eval layers record per point).
    * ``"reference"`` — the interpreted :class:`Simulator` (the seed
      oracle; the only engine that runs traces and per-channel stats).

    ``count_transfers`` asks for per-channel transfer counts; the
    compiled engine supplies them via its fused counters, the
    interpreted engine via full ``collect_stats``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine != "reference" and trace is None and not collect_stats:
        from .codegen import CodegenUnsupportedError, CompiledSimulator

        try:
            return CompiledSimulator(
                circuit,
                max_cycles=max_cycles,
                deadlock_window=deadlock_window,
                fixpoint_cap=fixpoint_cap,
                count_transfers=count_transfers,
            )
        except CodegenUnsupportedError as exc:
            logger.warning(
                "%s: compiled engine declined (%s); running the "
                "interpreted reference engine", circuit.name, exc,
            )
    return Simulator(
        circuit,
        max_cycles=max_cycles,
        deadlock_window=deadlock_window,
        fixpoint_cap=fixpoint_cap,
        trace=trace,
        collect_stats=True if count_transfers else collect_stats,
    )
