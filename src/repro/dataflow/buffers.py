"""Elastic storage: opaque buffers and FIFOs.

* :class:`OpaqueBuffer` (OEHB) — one-slot registered buffer.  It cuts the
  combinational valid/data path, providing the storage that lets tokens
  live on loop back-edges.  ``ready`` is combinational: the slot is
  acceptable when empty or when its occupant leaves this cycle.
* :class:`Fifo` — depth-N opaque FIFO (Dynamatic's elastic FIFO).  Used to
  decouple the main pipeline from the PreVV arbiter ("we use a simple FIFO
  to cache data before it enters the arbiter", Sec. IV-A) and for slack on
  memory paths.

Both honour :meth:`flush`: tokens belonging to squashed iterations vanish,
modelling the pipeline flush that follows an erroneous premature operation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .component import Component
from .token import Token


class OpaqueBuffer(Component):
    """One-slot opaque elastic buffer (OEHB)."""

    resource_class = "oehb"
    observes_input_valid = False  # propagate drives from the slot only
    scheduling_contract_audited = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self._slot: Optional[Token] = None
        self._out_ch = None  # bound lazily after wiring

    def _bind(self):
        self._out_ch = self.outputs["out"]
        self._in_ch = self.inputs["in"]
        return self._out_ch

    def propagate(self) -> None:
        out_ch = self._out_ch or self._bind()
        slot = self._slot
        if slot is None:
            self._in_ch.ready = True
            return
        out_ch.valid = True
        out_ch.data = slot
        if out_ch.ready:
            self._in_ch.ready = True

    def tick(self):
        out_ch = self._out_ch or self._bind()
        if self._slot is not None and out_ch.valid and out_ch.ready:
            self._slot = None
        in_ch = self._in_ch
        if in_ch.valid and in_ch.ready:
            self._slot = in_ch.data

    def flush(self, domain: int, min_iter: int) -> None:
        if self._slot is not None and self._slot.is_squashed_by(domain, min_iter):
            self._slot = None

    def perf_model(self):
        return (1, 1)  # registered slot: one cycle, one token

    @property
    def occupancy(self) -> int:
        return 0 if self._slot is None else 1

    @property
    def resource_params(self):
        return {"width": self.width}


class TransparentBuffer(Component):
    """One-slot transparent elastic buffer (TEHB).

    Cuts the combinational *ready* path: ``in.ready`` depends only on the
    slot state, never on ``out.ready``.  When empty, tokens pass through
    combinationally; when the consumer stalls, the token parks in the slot.
    An OEHB+TEHB pair on a loop back-edge breaks both the valid and the
    ready cycles, which is what lets a single token circulate with II = 1.
    """

    resource_class = "tehb"
    observes_output_ready = False  # in.ready depends on the slot only
    scheduling_contract_audited = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self._slot: Optional[Token] = None
        self._out_ch = None  # bound lazily after wiring

    def _bind(self):
        self._out_ch = self.outputs["out"]
        self._in_ch = self.inputs["in"]
        return self._out_ch

    def propagate(self) -> None:
        out_ch = self._out_ch or self._bind()
        slot = self._slot
        if slot is not None:
            out_ch.valid = True
            out_ch.data = slot
            return
        in_ch = self._in_ch
        if in_ch.valid:
            out_ch.valid = True
            out_ch.data = in_ch.data
        in_ch.ready = True

    def tick(self):
        out_ch = self._out_ch or self._bind()
        out_fired = out_ch.valid and out_ch.ready
        in_ch = self._in_ch
        if self._slot is None:
            if in_ch.valid and in_ch.ready and not out_fired:
                self._slot = in_ch.data
        elif out_fired:
            self._slot = None

    def flush(self, domain: int, min_iter: int) -> None:
        if self._slot is not None and self._slot.is_squashed_by(domain, min_iter):
            self._slot = None

    def perf_model(self):
        return (0, 1)  # combinational pass-through with one parking slot

    @property
    def occupancy(self) -> int:
        return 0 if self._slot is None else 1

    @property
    def resource_params(self):
        return {"width": self.width}


class TransparentFifo(Component):
    """Depth-N transparent FIFO: zero latency when empty, slack when stalled.

    The generalization of the TEHB to N slots: tokens pass through
    combinationally while the consumer keeps up and park in the FIFO when
    it stalls.  ``in.ready`` depends only on occupancy (state), so the
    ready path is cut.  Used as the slack Dynamatic's buffer placement
    inserts in front of memory ports, letting address computation run
    ahead of data computation.
    """

    resource_class = "fifo"
    observes_output_ready = False  # in.ready depends on occupancy only
    scheduling_contract_audited = True

    def __init__(self, name: str, depth: int, width: int = 32):
        super().__init__(name)
        if depth < 1:
            raise ValueError("fifo depth must be >= 1")
        self.depth = depth
        self.width = width
        self._items: Deque[Token] = deque()
        self._out_ch = None  # bound lazily after wiring

    def _bind(self):
        self._out_ch = self.outputs["out"]
        self._in_ch = self.inputs["in"]
        return self._out_ch

    def propagate(self) -> None:
        out_ch = self._out_ch or self._bind()
        items = self._items
        in_ch = self._in_ch
        if items:
            out_ch.valid = True
            out_ch.data = items[0]
        elif in_ch.valid:
            out_ch.valid = True
            out_ch.data = in_ch.data
        if len(items) < self.depth:
            in_ch.ready = True

    def tick(self):
        out_ch = self._out_ch or self._bind()
        out_fired = out_ch.valid and out_ch.ready
        in_ch = self._in_ch
        in_fired = in_ch.valid and in_ch.ready
        if self._items:
            if out_fired:
                self._items.popleft()
            if in_fired:
                self._items.append(in_ch.data)
        elif in_fired and not out_fired:
            self._items.append(in_ch.data)

    def flush(self, domain: int, min_iter: int) -> None:
        self._items = deque(
            t for t in self._items if not t.is_squashed_by(domain, min_iter)
        )

    def perf_model(self):
        return (0, self.depth)  # zero-latency when empty, depth slots

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def resource_params(self):
        return {"width": self.width, "depth": self.depth}


class Fifo(Component):
    """Depth-N opaque FIFO with single-cycle minimum latency."""

    resource_class = "fifo"
    observes_input_valid = False  # propagate drives from stored items only
    scheduling_contract_audited = True

    def __init__(self, name: str, depth: int, width: int = 32):
        super().__init__(name)
        if depth < 1:
            raise ValueError("fifo depth must be >= 1")
        self.depth = depth
        self.width = width
        self._items: Deque[Token] = deque()
        self._out_ch = None  # bound lazily after wiring

    def _bind(self):
        self._out_ch = self.outputs["out"]
        self._in_ch = self.inputs["in"]
        return self._out_ch

    def propagate(self) -> None:
        out_ch = self._out_ch or self._bind()
        items = self._items
        if items:
            out_ch.valid = True
            out_ch.data = items[0]
        if len(items) < self.depth or out_ch.ready:
            self._in_ch.ready = True

    def tick(self):
        out_ch = self._out_ch or self._bind()
        if self._items and out_ch.valid and out_ch.ready:
            self._items.popleft()
        in_ch = self._in_ch
        if in_ch.valid and in_ch.ready:
            self._items.append(in_ch.data)

    def flush(self, domain: int, min_iter: int) -> None:
        self._items = deque(
            t for t in self._items if not t.is_squashed_by(domain, min_iter)
        )

    def perf_model(self):
        return (1, self.depth)  # registered FIFO: one cycle, depth slots

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def resource_params(self):
        return {"width": self.width, "depth": self.depth}
