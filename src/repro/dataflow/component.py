"""Component base class for elastic dataflow circuits.

Every hardware unit — from a humble fork up to a whole LSQ — subclasses
:class:`Component` and implements two methods:

* :meth:`Component.propagate` — purely combinational: read input-channel
  ``valid``/``data`` and output-channel ``ready``, then drive output-channel
  ``valid``/``data`` and input-channel ``ready``.  Called repeatedly within a
  cycle until the circuit reaches a fixpoint.  **Monotonicity contract**: a
  component may only *raise* valid/ready signals relative to what it drove
  earlier in the same cycle (data may follow a bounded priority change, e.g.
  a merge switching to a lower-index input).  This guarantees fixpoint
  convergence even across feedback loops.

* :meth:`Component.tick` — sequential: commit internal state at the clock
  edge using the settled signal values.

Components additionally expose:

* :meth:`Component.flush` — drop internal tokens belonging to squashed
  iterations of a squash domain (used by PreVV pipeline flushing);
* :attr:`Component.is_busy` — true while internal activity is pending even
  though no channel fires (keeps the deadlock detector honest for latency
  units such as memory controllers);
* :attr:`Component.resource_class` / :attr:`Component.resource_params` —
  hooks for the FPGA area model (:mod:`repro.area`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import CircuitError
from .channel import Channel
from .token import Token


class Component:
    """Base class for every elastic dataflow unit."""

    #: Scheduling contract (see :mod:`repro.dataflow.schedule`): True when
    #: :meth:`propagate` reads the ``valid``/``data`` of the component's own
    #: input channels.  Components that drive all their signals from
    #: sequential state (opaque buffers, sinks) set this to False, which
    #: removes them from the combinational valid network and cuts loop
    #: back-edges out of the static schedule the compiled engine unrolls
    #: (see :func:`~repro.dataflow.schedule.levelize`).  A propagate may
    #: only ever read its *own* ports' signals; both engines' change
    #: propagation relies on it.
    observes_input_valid: bool = True

    #: True when :meth:`propagate` can carry an input channel's
    #: ``valid``/``data`` through to an *output* channel within the same
    #: cycle.  Components that read input valids only to compute grants /
    #: input readies, while all output valids come from sequential state
    #: (memory controllers, LSQs), set this to False: the valid wave
    #: terminates at them, which removes them — and the loops they sit
    #: on — from the scheduled valid network.
    forwards_valid: bool = True

    #: Dual of :attr:`observes_input_valid` for the backward ready wave:
    #: True when :meth:`propagate` reads the ``ready`` of the component's
    #: own output channels.  Components whose input-ready depends only on
    #: internal occupancy (transparent buffers/FIFOs, sources) set this to
    #: False, which cuts the combinational ready chain exactly where the
    #: hardware's TEHBs cut it, so the compiled engine can settle the
    #: backward wave in one pass.
    observes_output_ready: bool = True

    #: Audit marker for the scheduling contract: a class sets this True
    #: once its three flags above have been checked against its
    #: ``propagate`` body.  Every component class consumed by a PreVV
    #: build must carry the marker — the PV207 lint pass enforces it — so
    #: a future component with an unaudited (hence possibly wrong)
    #: contract cannot silently corrupt the static schedule the compiled
    #: engine trusts.
    scheduling_contract_audited: bool = False

    def __init__(self, name: str):
        self.name = name
        self.inputs: Dict[str, Channel] = {}
        self.outputs: Dict[str, Channel] = {}

    # ------------------------------------------------------------------
    # Port declaration and wiring (used by Circuit.connect)
    # ------------------------------------------------------------------
    def attach_input(self, port: str, channel: Channel) -> None:
        if port in self.inputs:
            raise CircuitError(f"{self.name}: input port {port!r} already connected")
        self.inputs[port] = channel
        channel.consumer = self
        channel.consumer_port = port

    def attach_output(self, port: str, channel: Channel) -> None:
        if port in self.outputs:
            raise CircuitError(f"{self.name}: output port {port!r} already connected")
        self.outputs[port] = channel
        channel.producer = self
        channel.producer_port = port

    def expected_inputs(self):
        """Port names that must be connected; override in subclasses."""
        return list(self.inputs)

    def expected_outputs(self):
        return list(self.outputs)

    # ------------------------------------------------------------------
    # Combinational helpers
    # ------------------------------------------------------------------
    def in_valid(self, port: str) -> bool:
        return self.inputs[port].valid

    def in_token(self, port: str) -> Optional[Token]:
        return self.inputs[port].data

    def in_fires(self, port: str) -> bool:
        return self.inputs[port].fires

    def out_ready(self, port: str) -> bool:
        return self.outputs[port].ready

    def out_fires(self, port: str) -> bool:
        return self.outputs[port].fires

    def drive_out(self, port: str, token: Optional[Token]) -> None:
        """Drive an output channel's valid/data for this cycle."""
        ch = self.outputs[port]
        if token is None:
            return
        ch.valid = True
        ch.data = token

    def drive_ready(self, port: str, ready: bool) -> None:
        if ready:
            self.inputs[port].ready = True

    # ------------------------------------------------------------------
    # Simulation interface
    # ------------------------------------------------------------------
    def propagate(self) -> None:
        """Combinational evaluation; override."""

    def tick(self) -> None:
        """Clock-edge state update; override when stateful."""

    def flush(self, domain: int, min_iter: int) -> None:
        """Drop internal tokens with ``tags[domain] >= min_iter``; override."""

    @property
    def is_busy(self) -> bool:
        """True while internal activity is pending without channel traffic."""
        return False

    # ------------------------------------------------------------------
    # Performance-model interface (PVPerf, :mod:`repro.analysis.perf`)
    # ------------------------------------------------------------------
    def perf_model(self):
        """``(latency, capacity)`` of a token traversing this component.

        ``latency`` is the minimum number of clock edges between a token
        entering on an input channel and the derived token appearing on
        an output channel; ``capacity`` is the maximum number of tokens
        the component can hold in flight, with ``None`` meaning the
        model cannot bound it (unbounded storage constrains no cycle).

        Soundness contract for overrides: PVPerf divides cycle latency
        by cycle capacity to obtain an II *lower* bound, so when exact
        values are unknown, **under**-state latency and **over**-state
        capacity — both weaken the bound, neither can make it unsound.
        The default uses the scheduling contract: a combinational
        pass-through (observes its input valids and forwards them) holds
        nothing and adds no delay; anything driven from sequential state
        is storage of unknown depth.
        """
        if self.observes_input_valid and self.forwards_valid:
            return (0, 0)
        return (0, None)

    # ------------------------------------------------------------------
    # Area-model interface
    # ------------------------------------------------------------------
    #: Cost-library key; ``None`` means zero-cost (simulation-only helper).
    resource_class: Optional[str] = None

    @property
    def resource_params(self) -> Dict[str, float]:
        """Parameters (bit widths, depths, port counts) for the cost library."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"
