"""Cycle-accurate simulation of elastic circuits.

Each cycle has two phases:

1. **Combinational fixpoint** — channel signals are reset, then components'
   :meth:`propagate` methods run until no signal changes.  Because all
   handshake logic is monotone (valid/ready only rise within a cycle), the
   iteration reaches the unique least fixpoint regardless of evaluation
   order.  The engine exploits that freedom: components are evaluated once
   in a **statically levelized order** (topological over the valid
   network, computed by :mod:`repro.dataflow.schedule` at construction),
   which settles the forward valid/data wave in a single sweep; the
   backward ready wave and any cyclic residue are finished by a
   dirty worklist that re-evaluates exactly the components whose watched
   signals changed, draining in *schedule-position order* (a binary heap
   keyed by the levelized position): when several components are dirty,
   the most-upstream one runs first, so one re-evaluation wave settles
   reconvergent fan-out instead of bouncing each component once per
   predecessor.  Signal state is *slotted*: every
   channel owns an integer slot in flat last-seen arrays, so change
   detection is list indexing instead of per-round dict/tuple snapshots.

2. **Clock edge** — statistics are recorded (skipped entirely when the
   simulator was built with ``collect_stats=False``) and every stateful
   component's :meth:`tick` commits sequential state.  The components that
   actually override :meth:`tick`, and those whose :attr:`is_busy` can
   ever be true, are cached at construction so the per-cycle loops touch
   no dead weight.

The fixpoint this engine reaches is bit-identical to the seed worklist
algorithm, which is preserved as
:class:`repro.dataflow.reference.ReferenceSimulator` and pinned by the
equivalence suite in ``tests/dataflow/test_engine_equivalence.py``.

The simulator also provides the deadlock detector used to demonstrate the
paper's Fig. 6 scenario: if no channel fires and no component reports
internal progress for ``deadlock_window`` consecutive cycles, a
:class:`~repro.errors.DeadlockError` is raised with the set of stalled
channels (valid-but-not-ready), which is exactly the observable signature
of a premature-queue deadlock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from ..errors import ConvergenceError, DeadlockError, SimulationError
from .arith import Operator
from .component import Component
from .circuit import Circuit
from .schedule import levelize


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
    """Drives a :class:`Circuit` cycle by cycle."""

    engine_name = "levelized"

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
        self._build_schedule()

    # ------------------------------------------------------------------
    # Static schedule construction
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        circuit = self.circuit
        self._channels = list(circuit.channels)
        self.schedule = levelize(circuit)
        order = self.schedule.order
        self._order = order
        pos_of = {id(c): i for i, c in enumerate(order)}

        # Slotted signal state: channel i owns slot i of the flat last-seen
        # arrays below.  A component's evaluation can only change signals it
        # drives — valid/data on its outputs, ready on its inputs — so the
        # per-component watch lists pair each driven channel with the slot
        # to diff against and the position of the single component that
        # reads the signal (the consumer for valid/data, the producer for
        # ready).  A reader that declares it never looks at the signal
        # (``observes_input_valid`` / ``observes_output_ready`` False) gets
        # no wake target at all: its outputs cannot change, so re-running
        # it would be pure waste.  Entries are split statically into *wake*
        # lists (diff against last-seen, enqueue the reader on change) and
        # *record* lists (unconditional last-seen update, no compare) —
        # during the levelized sweep a reader positioned later needs no
        # wake because the sweep has not reached it yet.
        slot_of = {id(ch): s for s, ch in enumerate(self._channels)}
        sweep_plan = []
        drain_plan = []
        props = []
        for pos, comp in enumerate(order):
            ow, orc, iw, irc = [], [], [], []  # sweep-phase lists
            dow, dorc, diw, dirc = [], [], [], []  # drain-phase lists
            for ch in comp.outputs.values():
                s = slot_of[id(ch)]
                cons = ch.consumer
                if cons is not None and cons.observes_input_valid:
                    tgt = pos_of[id(cons)]
                    dow.append((ch, s, tgt))
                    if tgt <= pos:
                        ow.append((ch, s, tgt))
                    else:
                        orc.append((ch, s))
                else:
                    dorc.append((ch, s))
                    orc.append((ch, s))
            for ch in comp.inputs.values():
                s = slot_of[id(ch)]
                prod = ch.producer
                if prod is not None and prod.observes_output_ready:
                    tgt = pos_of[id(prod)]
                    diw.append((ch, s, tgt))
                    if tgt <= pos:
                        iw.append((ch, s, tgt))
                    else:
                        irc.append((ch, s))
                else:
                    dirc.append((ch, s))
                    irc.append((ch, s))
            # The component itself goes into the plan (not a prebound
            # method): tests swap instance-level propagate overrides in
            # and out after the Simulator is built.
            sweep_plan.append(
                (comp, tuple(ow), tuple(orc), tuple(iw), tuple(irc))
            )
            drain_plan.append(
                (tuple(dow), tuple(dorc), tuple(diw), tuple(dirc))
            )
        self._sweep_plan = sweep_plan
        self._drain_plan = drain_plan

        n = len(self._channels)
        self._last_valid = bytearray(n)
        self._last_ready = bytearray(n)
        self._last_data: List = [None] * n
        self._zeros = bytes(n)
        self._nones: List = [None] * n
        self._queued = bytearray(len(order))
        # Dirty worklist: a min-heap of schedule positions (deduplicated
        # by the _queued byte array), so draining always evaluates the
        # most-upstream dirty component first.
        self._worklist: List[int] = []

        # Per-cycle loops only visit components that can do anything there.
        comps = circuit.components
        self._tick_comps = [
            c
            for c in comps
            if _overrides(c, "tick")
            and not (
                isinstance(c, Operator)
                and "tick" not in c.__dict__
                and c.latency == 0
            )
        ]
        self._busy_comps = [c for c in comps if _overrides(c, "is_busy")]

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        channels = self._channels
        lv = self._last_valid
        lr = self._last_ready
        ld = self._last_data
        for ch in channels:
            ch.valid = False
            ch.ready = False
            ch.data = None
        lv[:] = self._zeros
        lr[:] = self._zeros
        ld[:] = self._nones

        queued = self._queued
        worklist = self._worklist
        calls = len(self._sweep_plan)

        # Phase 1: one levelized sweep.  The topological order means a
        # changed signal whose reader comes later needs no bookkeeping —
        # only readers already behind us go on the worklist (the wake
        # lists), everything else just records its last-seen value.
        for comp, ow, orc, iw, irc in self._sweep_plan:
            comp.propagate()
            for ch, s, tgt in ow:
                v = ch.valid
                d = ch.data
                if v != lv[s] or (d is not ld[s] and d != ld[s]):
                    lv[s] = v
                    ld[s] = d
                    if not queued[tgt]:
                        queued[tgt] = 1
                        heappush(worklist, tgt)
            for ch, s in orc:
                lv[s] = ch.valid
                ld[s] = ch.data
            for ch, s, tgt in iw:
                r = ch.ready
                if r != lr[s]:
                    lr[s] = r
                    if not queued[tgt]:
                        queued[tgt] = 1
                        heappush(worklist, tgt)
            for ch, s in irc:
                lr[s] = ch.ready

        # Phase 2: drain the dirty worklist (backward ready chains and the
        # cyclic residue).  Monotonicity bounds the number of rises, but a
        # buggy non-monotone component could oscillate — cap the drain.
        order = self._order
        drain_plan = self._drain_plan
        cap = max(self.fixpoint_cap, 4 * calls)
        drained = 0
        while worklist:
            drained += 1
            if drained > cap:
                self.stats.propagate_calls += calls + drained
                raise ConvergenceError(
                    f"{self.circuit.name}: combinational fixpoint did not "
                    f"settle within {cap} re-evaluations at cycle "
                    f"{self.stats.cycles}"
                )
            pos = heappop(worklist)
            queued[pos] = 0
            order[pos].propagate()
            dow, dorc, diw, dirc = drain_plan[pos]
            for ch, s, tgt in dow:
                v = ch.valid
                d = ch.data
                if v != lv[s] or (d is not ld[s] and d != ld[s]):
                    lv[s] = v
                    ld[s] = d
                    if not queued[tgt]:
                        queued[tgt] = 1
                        heappush(worklist, tgt)
            for ch, s in dorc:
                lv[s] = ch.valid
                ld[s] = ch.data
            for ch, s, tgt in diw:
                r = ch.ready
                if r != lr[s]:
                    lr[s] = r
                    if not queued[tgt]:
                        queued[tgt] = 1
                        heappush(worklist, tgt)
            for ch, s in dirc:
                lr[s] = ch.ready
        self.stats.propagate_calls += calls + drained

    def step(self) -> int:
        """Simulate one cycle; returns the number of channel transfers."""
        self._fixpoint()
        fired = 0
        if self.collect_stats:
            for chan in self._channels:
                chan.record_stats()
                if chan.valid and chan.ready:
                    fired += 1
        else:
            # The last-seen arrays mirror the settled signals: count fires
            # without touching a single Channel object (1-valued bytes).
            fired = bin(
                int.from_bytes(bytes(self._last_valid), "big")
                & int.from_bytes(bytes(self._last_ready), "big")
            ).count("1")
        if self.trace is not None:
            self.trace.capture(self.circuit, self.stats.cycles)
        for comp in self._tick_comps:
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
            busy = fired > 0 or any(c.is_busy for c in self._busy_comps)
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
ENGINES = ("auto", "compiled", "levelized", "reference")


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

    * ``"auto"`` — the compiled engine when eligible (no trace, no
      per-channel stats, circuit accepted by the compiler), otherwise
      the levelized interpreted :class:`Simulator`.
    * ``"compiled"`` — request the compiled engine, but *fall back* to
      the interpreted engine when the compiler declines (callers must
      read ``sim.engine_name`` for the engine actually used — this is
      what the bench/eval layers record per point).
    * ``"levelized"`` — the interpreted engine (the only one that runs
      traces and per-channel stats).
    * ``"reference"`` — the seed worklist oracle.

    ``count_transfers`` asks for per-channel transfer counts; the
    compiled engine supplies them via its fused counters, the
    interpreted fallbacks via full ``collect_stats``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "reference":
        from .reference import ReferenceSimulator

        return ReferenceSimulator(
            circuit,
            max_cycles=max_cycles,
            deadlock_window=deadlock_window,
            fixpoint_cap=fixpoint_cap,
            trace=trace,
            collect_stats=True if count_transfers else collect_stats,
        )
    if engine in ("auto", "compiled") and trace is None and not collect_stats:
        from .codegen import CodegenUnsupportedError, CompiledSimulator

        try:
            return CompiledSimulator(
                circuit,
                max_cycles=max_cycles,
                deadlock_window=deadlock_window,
                fixpoint_cap=fixpoint_cap,
                count_transfers=count_transfers,
            )
        except CodegenUnsupportedError:
            pass  # interpreted fallback below
    return Simulator(
        circuit,
        max_cycles=max_cycles,
        deadlock_window=deadlock_window,
        fixpoint_cap=fixpoint_cap,
        trace=trace,
        collect_stats=True if count_transfers else collect_stats,
    )
