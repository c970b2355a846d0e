"""Squash domains: domain gates and the squash controller.

A **squash domain** is one loop body.  Every channel entering the body
(the true-outputs of the loop-header branches) routes through the
domain's single :class:`DomainGate`, which handles each iteration's entry
tokens **atomically as one bundle**:

* a bundle passes only when every channel's token is present and every
  output can accept it (all-or-nothing — so replay state can never
  desynchronize across channels);
* each passing token is tagged with the domain's iteration number (tags
  then propagate to every derived token downstream);
* the bundle is stored until its iteration retires, so a squash can
  re-inject the complete inputs of the erroneous iteration and let the
  pipeline re-execute it ("the entire pipeline following it needs to be
  squashed").

The :class:`SquashController` reproduces the squash path of Fig. 3/5:
when an arbiter detects a violation it (1) expands the squash over every
domain whose stored bundles are contaminated by the squashed iterations
(enclosing loops, sibling loops fed by squashed values), (2) flushes all
tagged tokens, (3) rolls back their memory writes, (4) rewinds the gates
(replay survivors; contaminated bundles regenerate through the dataflow),
and (5) notifies every PreVV unit.  It also aggregates retirement so the
gates and the memory write log stay bounded.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..dataflow.component import Component
from ..dataflow.token import Token
from ..errors import ValidationError

Bundle = Tuple[Token, ...]


class DomainGate(Component):
    """Per-iteration gate over all entry channels of one domain.

    Each channel is an independent *lane*: tokens pass eagerly (a slow
    loop-carried value must not hold back the address computation of the
    next iteration — that out-of-order slack is exactly what premature
    execution exploits), each lane keeps its own iteration counter and
    replay storage, and squash handling (flush / rewind / contamination /
    pruning) operates consistently across all lanes of the domain.
    """

    resource_class = "replay_gate"
    scheduling_contract_audited = True

    def __init__(self, name: str, domain: int, width: int = 32):
        super().__init__(name)
        self.domain = domain
        self.width = width
        self.n_channels = 0
        self._next_iter: List[int] = []           # per lane
        self._stored: List[List[Tuple[int, Token]]] = []
        self._replay: List[Deque[Tuple[int, Token]]] = []
        self.replayed_tokens = 0
        # Per lane: [source token, iteration, tagged token] — with_tag is
        # pure, so the tagged token is rebuilt only when the (immutable)
        # source token or the iteration changes.  Keeping the output
        # token's identity stable across fixpoint evaluations also lets
        # the engine's change detection skip downstream re-evaluation.
        self._tag_cache: List[list] = []
        self._in_chs = None  # lane channel lists, bound after wiring
        self._out_chs = None

    # ------------------------------------------------------------------
    def add_channel(self) -> int:
        """Register one more gated channel; returns its lane index."""
        idx = self.n_channels
        self.n_channels += 1
        self._next_iter.append(0)
        self._stored.append([])
        self._replay.append(deque())
        self._tag_cache.append([None, -1, None])
        self._in_chs = None  # wiring changed: rebind lazily
        self._out_chs = None
        return idx

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def out_port(self, i: int) -> str:
        return f"out{i}"

    def _bind(self):
        self._in_chs = [
            self.inputs[f"in{i}"] for i in range(self.n_channels)
        ]
        self._out_chs = [
            self.outputs[f"out{i}"] for i in range(self.n_channels)
        ]
        return self._in_chs

    def _tagged(self, lane: int, token: Token, iteration: int) -> Token:
        cell = self._tag_cache[lane]
        if cell[0] is token and cell[1] == iteration:
            return cell[2]
        tagged = token.with_tag(self.domain, iteration)
        cell[0] = token
        cell[1] = iteration
        cell[2] = tagged
        return tagged

    # ------------------------------------------------------------------
    def propagate(self) -> None:
        ins = self._in_chs or self._bind()
        outs = self._out_chs
        for i in range(self.n_channels):
            out_ch = outs[i]
            replay = self._replay[i]
            if replay:
                iteration, token = replay[0]
                out_ch.valid = True
                out_ch.data = self._tagged(i, token, iteration)
                continue  # hold new input on this lane while replaying
            in_ch = ins[i]
            if in_ch.valid:
                out_ch.valid = True
                out_ch.data = self._tagged(i, in_ch.data, self._next_iter[i])
                if out_ch.ready:
                    in_ch.ready = True

    def tick(self):
        ins = self._in_chs or self._bind()
        outs = self._out_chs
        for i in range(self.n_channels):
            out_ch = outs[i]
            if not (out_ch.valid and out_ch.ready):
                continue
            # Lane state only ever moves on an output fire: either a
            # replayed entry is consumed or a live token is stored and the
            # iteration counter advances.
            if self._replay[i]:
                self._replay[i].popleft()
                self.replayed_tokens += 1
                continue
            in_ch = ins[i]
            if in_ch.valid and in_ch.ready:
                self._stored[i].append((self._next_iter[i], in_ch.data))
                self._next_iter[i] += 1

    # ------------------------------------------------------------------
    # Squash / retirement interface (driven by the controller)
    # ------------------------------------------------------------------
    def flush(self, domain: int, min_iter: int) -> None:
        """Drop stored/replay tokens *derived from* squashed iterations.

        The check uses the original tokens' tags (what produced the
        entry), not the iteration it was recorded under: iteration ``e``'s
        entry was produced by ``e - 1`` and must survive a squash at
        ``e``; contaminated entries regenerate through the dataflow.
        """
        for i in range(self.n_channels):
            self._stored[i] = [
                (it, t)
                for it, t in self._stored[i]
                if not t.is_squashed_by(domain, min_iter)
            ]
            self._replay[i] = deque(
                (it, t)
                for it, t in self._replay[i]
                if not t.is_squashed_by(domain, min_iter)
            )

    def rewind(self, min_iter: int) -> None:
        """Queue surviving entries of iterations >= min_iter per lane."""
        for i in range(self.n_channels):
            replays = sorted(
                ((it, t) for it, t in self._stored[i] if it >= min_iter),
                key=lambda pair: pair[0],
            )
            expected = min_iter
            for it, _ in replays:
                if it != expected:
                    raise ValidationError(
                        f"{self.name}/lane{i}: replay gap — have iteration "
                        f"{it}, expected {expected}"
                    )
                expected += 1
            self._replay[i] = deque(replays)
            if replays:
                self._next_iter[i] = expected
            else:
                # Never advance a lane that was still behind the squash
                # point: it keeps waiting for its live input.
                self._next_iter[i] = min(self._next_iter[i], min_iter)

    def prune_by_watermarks(self, watermarks: Dict[int, int],
                            own_watermark: int) -> None:
        """Drop stored entries that can never be replayed again.

        An entry is dead once (a) its own iteration is below the domain's
        retirement watermark — no direct squash can target it — and (b)
        every tag on its token is below the tagging domain's watermark —
        no cascade can flush it.
        """

        def dead(it: int, token: Token) -> bool:
            if it >= own_watermark:
                return False
            return all(
                tag_iter < watermarks.get(dom, 0)
                for dom, tag_iter in token.tags.items()
            )

        for i in range(self.n_channels):
            self._stored[i] = [
                (it, t) for it, t in self._stored[i] if not dead(it, t)
            ]

    def contamination(self, domain: int, min_iter: int) -> Optional[int]:
        """Smallest stored iteration derived from squashed iterations of
        ``domain`` (the cascade trigger), or ``None``."""
        hits = [
            it
            for lane in self._stored
            for it, t in lane
            if t.is_squashed_by(domain, min_iter)
        ]
        return min(hits) if hits else None

    @property
    def is_busy(self) -> bool:
        return any(self._replay[i] for i in range(self.n_channels))

    @property
    def iterations_seen(self) -> int:
        return max(self._next_iter, default=0)

    @property
    def stored_count(self) -> int:
        return sum(len(lane) for lane in self._stored)

    @property
    def resource_params(self):
        return {"width": self.width, "n": max(1, self.n_channels)}


class SquashController:
    """Central coordination of squash, rollback, replay and retirement."""

    def __init__(self, circuit, memory):
        self.circuit = circuit
        self.memory = memory
        self._gates: Dict[int, DomainGate] = {}
        self._units: List = []
        self._pending: List[Tuple[int, int]] = []  # (domain, min_iter)
        # Optional PVSan oracle notified of every *executed* squash (the
        # expanded target map), so it can retract findings whose records
        # the squash rolled back.  Purely observational.
        self.sanitizer = None
        # Statistics
        self.squashes = 0
        self.squashed_iterations = 0
        self.rolled_back_writes = 0
        self.flushes_by_domain: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def register_gate(self, gate: DomainGate) -> None:
        self._gates[gate.domain] = gate

    def register_unit(self, unit) -> None:
        self._units.append(unit)

    def gate_for(self, domain: int) -> Optional[DomainGate]:
        return self._gates.get(domain)

    @property
    def gates(self) -> List[DomainGate]:
        return list(self._gates.values())

    @property
    def domains(self) -> List[int]:
        return sorted(self._gates)

    # ------------------------------------------------------------------
    # Squash path
    # ------------------------------------------------------------------
    def request_squash(self, domain: int, min_iter: int) -> None:
        """Record a squash to be executed at the end of the current cycle.

        Deferral keeps the cycle's already-settled handshakes consistent:
        the flush runs after every component committed its clock edge.
        """
        self._pending.append((domain, min_iter))

    def has_pending_squash(self) -> bool:
        return bool(self._pending)

    def end_of_cycle(self):
        """Simulator hook: execute pending squashes after all ticks.

        The requested targets are expanded transitively: squashing domain
        ``d`` from ``e`` invalidates every stored bundle of *other* domains
        whose tokens derive from the squashed iterations (an enclosing
        loop's sweep that consumed a squashed inner exit, a sibling loop
        fed by squashed values, ...) — those domains are squashed from
        their first contaminated iteration too, until a fixpoint.
        """
        if not self._pending:
            return
        targets: Dict[int, int] = {}
        for domain, min_iter in self._pending:
            if domain not in targets or min_iter < targets[domain]:
                targets[domain] = min_iter
        self._pending.clear()
        changed = True
        while changed:
            changed = False
            for domain, min_iter in list(targets.items()):
                for other_dom, gate in self._gates.items():
                    if other_dom == domain:
                        continue
                    point = gate.contamination(domain, min_iter)
                    if point is not None and point < targets.get(
                        other_dom, 1 << 62
                    ):
                        targets[other_dom] = point
                        changed = True
        self._execute_squashes(targets)

    def _execute_squashes(self, targets: Dict[int, int]) -> None:
        self.squashes += 1
        if self.sanitizer is not None:
            self.sanitizer.on_squash_executed(dict(targets))
        # Phase 1: flush every target domain's tokens everywhere (gates
        # flush their replay storage by token tags at the same time).
        for domain, min_iter in sorted(targets.items()):
            self.flushes_by_domain[domain] = (
                self.flushes_by_domain.get(domain, 0) + 1
            )
            gate = self._gates.get(domain)
            if gate is not None:
                self.squashed_iterations += max(
                    0, gate.iterations_seen - min_iter
                )
            self.circuit.flush(domain, min_iter)
        # Phase 2: roll back the squashed iterations' memory writes.
        for domain, min_iter in sorted(targets.items()):
            self.rolled_back_writes += self.memory.rollback(domain, min_iter)
        # Phase 3: rewind gates (replay survivors, await regeneration).
        for domain, min_iter in sorted(targets.items()):
            gate = self._gates.get(domain)
            if gate is not None:
                gate.rewind(min_iter)
        # Phase 4: units drop poisoned entries / rewind port counters.
        for domain, min_iter in sorted(targets.items()):
            for unit in self._units:
                unit.on_squash(domain, min_iter)

    # ------------------------------------------------------------------
    # Retirement path
    # ------------------------------------------------------------------
    def _watermark(self, domain: int) -> int:
        """No squash of ``domain`` can ever target iterations below this."""
        points = [
            u.retire_point_for(domain)
            for u in self._units
            if u.touches_domain(domain)
        ]
        # Domains without PreVV ports are only squashed via cascades,
        # which the tag-based pruning accounts for.
        return min(points) if points else (1 << 60)

    def notify_retired(self, domain: int, upto_iter: int) -> None:
        """A unit's retire point advanced: re-sweep retirement state."""
        watermarks = {dom: self._watermark(dom) for dom in self._gates}
        for dom, gate in self._gates.items():
            gate.prune_by_watermarks(watermarks, watermarks.get(dom, 1 << 60))
        for dom, mark in watermarks.items():
            self.memory.set_retired(dom, mark)


#: Backwards-compatible alias (the per-channel gate was replaced by the
#: atomic bundle gate).
ReplayGate = DomainGate
