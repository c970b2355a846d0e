"""The PreVV unit: arbiter + premature queue for one validation group.

This component reproduces Fig. 3/Fig. 5 for one (reduced) group of
ambiguous operations on a single array:

* each static member operation is a **port** (``p0 .. p{n-1}``) whose
  channel delivers packed ``(index, value)`` tokens — the output of the
  LMerge/SMerge data-collection path — plus fake tokens (Sec. V-C) and the
  end-of-nest done token;
* arrivals are re-ordered per port by their iteration tag, then the
  arbiter processes up to one load-side and one store-side operation per
  cycle (the LMerge/SMerge + comparator structure of Fig. 5);
* each processed operation is validated against the premature queue
  (Eqs. 2-5 with the ROM resolving same-iteration ties) and then stored;
* violations raise a squash request to the
  :class:`~repro.prevv.replay.SquashController` with the erroneous
  iteration, flushing the pipeline behind it;
* entries retire from the head once every port has advanced past them —
  fake and done tokens are exactly what guarantees this always happens
  (the Fig. 6 deadlock is the behaviour with fakes disabled).

Validation is *value-based* (the paper's key idea, echoing value-based
memory ordering in CPUs): a reordering whose values happen to match is
benign and costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataflow.component import Component
from ..dataflow.token import Token
from ..memory.ram import Memory
from .premature_queue import PrematureQueue
from .properties import ITER_DONE, PTuple
from .replay import SquashController


@dataclass
class PortConfig:
    """Static description of one member operation of the group."""

    kind: str        # "load" | "store"
    array: str
    domain: int      # squash domain (innermost loop body) of the op
    phase: int       # program order of the op's loop nest
    rom_pos: int     # static order inside the body (the arbiter ROM)


class PreVVUnit(Component):
    """Premature-value-validation unit for one ambiguous group."""

    resource_class = "prevv_unit"
    # Acceptance-policy features, keyed on by the static occupancy model
    # (repro.analysis.occupancy) so its transition system describes the
    # implemented arbiter and the PV502 regression test can model the
    # pre-fix semantics by flipping them off in the *model* only.
    #: Full-queue escape also admits version-pinning ports when the head
    #: is position-retirable but version-blocked (cross-phase handoff).
    FULL_QUEUE_VERSION_RELEASE = True
    #: Escape admissions reserve enough physical slots for the records
    #: already pulled from the ports, making slack overflow unreachable.
    FULL_QUEUE_PHYSICAL_GUARD = True
    # Scheduling contract: the unit is a pure consumer — it has no output
    # channels at all, so no input valid can ever be carried to an output
    # valid (the valid wave terminates here) and there is no output ready
    # to observe.  Input valids/data steer only the readies it grants.
    forwards_valid = False
    observes_output_ready = False
    scheduling_contract_audited = True

    def __init__(
        self,
        name: str,
        memory: Memory,
        controller: SquashController,
        ports: List[PortConfig],
        queue_depth: int,
        validations_per_cycle: int = 2,
        reorder_window: int = 8,
        addr_width: int = 32,
        data_width: int = 32,
    ):
        super().__init__(name)
        self.memory = memory
        self.controller = controller
        self.ports = ports
        self.queue = PrematureQueue(
            queue_depth,
            slack=(reorder_window + 1) * max(1, len(ports)) + 8,
        )
        self.validations_per_cycle = validations_per_cycle
        self.reorder_window = reorder_window
        self.addr_width = addr_width
        self.data_width = data_width
        # Per port: next expected iteration and the tag-keyed reorder buffer.
        self._expected: List[int] = [0] * len(ports)
        self._pending: List[Dict[int, PTuple]] = [dict() for _ in ports]
        # Highest memory version observed per port (loads: read version,
        # stores: commit serial). Monotone per port because each port's
        # memory accesses happen in program order; gates retirement so an
        # entry outlives every in-flight operation that raced it.
        self._last_version: List[int] = [0] * len(ports)
        self._notified_points: Dict[int, int] = {}
        # Highest real (non-fake) iteration decoded per port, and the
        # memory-controller port observing the same operation; together
        # they prove "nothing in flight" for the version bound below.
        self._last_real_iter: List[int] = [-1] * len(ports)
        self._mc_link: List = [None] * len(ports)  # (mc, kind, port_idx)
        controller.register_unit(self)
        # Optional PVSan SC-oracle adapter observing every arbiter
        # decision (process/violation); attached by the sanitizer runner,
        # never by the builder.  Must stay purely observational.
        self.sanitizer = None
        # Statistics
        self.violations = 0
        self.violations_by_kind = {"raw": 0, "war": 0, "waw": 0}
        self.benign_reorders = 0
        self.fake_tokens = 0
        self.processed_ops = 0
        self._port_chs = None  # lazy (port_idx, channel) list, wiring-static
        # Per-channel decode cache: id(channel) -> [token, decoded record].
        # A channel offers one token until it fires, but the fixpoint
        # engine may evaluate _accepts many times per cycle — decode once
        # per *token* (identity-keyed; tokens are immutable) and reuse the
        # record at the clock edge too.
        self._dcache: Dict[int, list] = {}
        # Cached result of _next_processable(), invalidated whenever its
        # inputs (_pending contents, _expected) change: arrivals,
        # processing, squash.  is_busy polls every quiet cycle; without
        # the cache each poll rescans every port's pending dict.
        self._np_result: Optional[Tuple[int, PTuple]] = None
        self._np_valid = False

    # ------------------------------------------------------------------
    # Elastic interface
    # ------------------------------------------------------------------
    def port_name(self, i: int) -> str:
        return f"p{i}"

    def fake_port_name(self, i: int) -> str:
        return f"p{i}_fake"

    def done_port_name(self, i: int) -> str:
        return f"p{i}_done"

    def _port_channels(self):
        """(port_idx, channel) pairs for every connected port channel.

        Real, fake and done packets arrive on *separate* channels so a
        fast fake path cannot head-of-line-block the slow real path of
        the same port (and vice versa) inside an external merge.  Wiring
        is static once simulation starts, so the list is computed once.
        """
        cached = self._port_chs
        if cached is None:
            cached = []
            for i in range(len(self.ports)):
                for name in (
                    self.port_name(i),
                    self.fake_port_name(i),
                    self.done_port_name(i),
                ):
                    ch = self.inputs.get(name)
                    if ch is not None:
                        cached.append((i, ch))
            self._port_chs = cached
        return cached

    def _accepts(self, port_idx: int, ch) -> bool:
        """Acceptance: reorder-window room, in-window iteration, and
        architectural backpressure when the premature queue is full
        (Fig. 4c) with the liveness escape for a starving validator side."""
        pending = self._pending[port_idx]
        if len(pending) >= self.reorder_window:
            return False
        if not ch.valid or ch.data is None:
            # Only grant ready once the offered token is inspectable;
            # granting earlier in the fixpoint would bypass the window
            # checks below (ready is monotone and cannot be retracted).
            return False
        record = self._decode_cached(port_idx, ch)
        expected = self._expected[port_idx]
        window_top = expected + self.reorder_window
        if not record.done and record.iteration >= window_top:
            return False  # too far ahead: wait at the channel
        if record.iteration != expected and (
            len(pending) >= self.reorder_window - 1
        ):
            # Reserve the last slot for the expected iteration: each
            # channel delivers in iteration order, so the expected record
            # is always at the head of the channel carrying it and the
            # reservation guarantees it can always enter.
            return False
        if record.done or record.fake:
            return True   # no queue slot needed
        if not self.queue.is_full:
            return True
        # Full queue (Fig. 4c): backpressure with two liveness escapes,
        # both bounded by the physical-slot reservation guard so an
        # admission can never push the queue past its physical capacity.
        #
        # Escape 1 — position-blocked head: the only real operation still
        # admitted is the one holding back the retirement watermark;
        # processing it is what lets the head entries validate and free
        # space. Everything else stalls, which is exactly the
        # backpressure that makes Depth_q a performance knob.
        no_real_pending = all(r.done or r.fake for r in pending.values())
        if no_real_pending and port_idx == self._watermark_port():
            return self._escape_slack_available()
        # Escape 2 — version-blocked head (cross-phase handoff): every
        # port's position is already past the head, but some port may
        # still deliver an operation that *raced* the head — typically a
        # later nest's premature load the controller granted before this
        # arbiter saw any real op on that port, which pins
        # _port_version_bound at the conservative value.  Admitting the
        # watermark port cannot help (its position no longer bounds
        # retirement; every push only burns physical slack — the
        # queue_overflow_cross_phase_min fuzz finding).  Instead admit
        # exactly the next expected record of each pinning port:
        # processing it either raises that port's version bound past the
        # head or detects the violation and squashes — both unblock
        # retirement.
        if self.FULL_QUEUE_VERSION_RELEASE:
            head = self.queue.peek_head()
            if (
                head is not None
                and head.version is not None
                and (head.phase, head.iteration) < self._watermark()
                and record.iteration == self._expected[port_idx]
                and self._port_version_bound(port_idx) < head.version
            ):
                return self._escape_slack_available()
        return False

    def _escape_slack_available(self) -> bool:
        """Room for a full-queue escape admission in the physical slots.

        Every real record currently pending in a reorder window will be
        pushed without any further channel acceptance, and at most one
        real record per port can be accepted this cycle; reserving both
        keeps next cycle's occupancy at or below the physical depth, so
        :class:`QueueOverflowError` is structurally unreachable.  Healthy
        runs sit far below the threshold (physical depth is architectural
        depth + (window+1)*ports + 8) and pay one comparison.
        """
        if not self.FULL_QUEUE_PHYSICAL_GUARD:
            return True
        pending_real = sum(
            1
            for pending in self._pending
            for r in pending.values()
            if not (r.done or r.fake)
        )
        return (
            self.queue.occupancy + pending_real + len(self.ports)
            <= self.queue.physical_depth
        )

    def propagate(self) -> None:
        for i, ch in self._port_channels():
            if self._accepts(i, ch):
                self.drive_ready(ch.consumer_port, True)

    def attach_mc_port(self, port_idx: int, mc, kind: str, mc_port: int) -> None:
        """Link a unit port to the controller port carrying the same op."""
        self._mc_link[port_idx] = (mc, kind, mc_port)
        mc.set_port_domain(kind, mc_port, self.ports[port_idx].domain)

    def _advance_version(self, port_idx: int, version) -> None:
        if version is not None and version > self._last_version[port_idx]:
            self._last_version[port_idx] = version

    def tick(self):
        # 0. Account backpressure once per cycle at the clock edge (doing
        # it in propagate would tie the statistic to the fixpoint engine's
        # evaluation count).
        if self.queue.is_full:
            self.queue.record_full_stall()
        arrived = False
        # 1. Pull arrivals into the reorder buffers.
        for i, ch in self._port_channels():
            if ch.fires:
                record = self._decode_cached(i, ch)
                self._pending[i][record.iteration] = record
                arrived = True
                if not record.fake and not record.done:
                    if record.iteration > self._last_real_iter[i]:
                        self._last_real_iter[i] = record.iteration
        # 2. Process in program order. Real operations are bounded per cycle
        # by the comparator bandwidth (Fig. 5); fake and done markers only
        # advance counters (a register update in hardware), so they do not
        # consume validation slots.
        budget = self.validations_per_cycle
        marker_budget = 4 * max(1, len(self.ports))
        if arrived:
            self._np_valid = False
        while budget > 0 and marker_budget > 0:
            choice = self._next_processable()
            if choice is None:
                break
            port_idx, record = choice
            if record.fake or record.done:
                marker_budget -= 1
            else:
                budget -= 1
            del self._pending[port_idx][record.iteration]
            squashed_self = self._process(port_idx, record)
            if not squashed_self:
                if record.done:
                    self._expected[port_idx] = ITER_DONE
                else:
                    self._expected[port_idx] = record.iteration + 1
            self._np_valid = False
            if squashed_self:
                break
        # 3. Retire entries no future arrival can accuse.
        self._retire()

    # ------------------------------------------------------------------
    # Decoding / ordering
    # ------------------------------------------------------------------
    def _decode_cached(self, port_idx: int, ch) -> PTuple:
        """Decode the channel's offered token at most once.

        Identity-keyed: tokens are immutable and a channel holds one token
        object until it fires, so ``cell[0] is token`` proves the cached
        record is the decode of exactly this offer.  A squash replaces the
        offered token object (or re-offers the same immutable token, whose
        decode is identical), so no explicit invalidation is needed.
        """
        token = ch.data
        cell = self._dcache.get(id(ch))
        if cell is not None and cell[0] is token:
            return cell[1]
        record = self._decode(port_idx, token)
        self._dcache[id(ch)] = [token, record]
        return record

    def _decode(self, port_idx: int, token: Token) -> PTuple:
        # The record aliases the token's tag dict instead of copying it:
        # tokens are immutable and nothing mutates PTuple.tags, the squash
        # predicate only reads it.
        cfg = self.ports[port_idx]
        payload = token.value
        iteration = token.tag(cfg.domain)
        if isinstance(payload, tuple) and payload and payload[0] == "fake":
            return PTuple(
                op="fake", index=-1, value=0, phase=cfg.phase,
                iteration=iteration, rom_pos=cfg.rom_pos, domain=cfg.domain,
                port=port_idx, fake=True, tags=token.tags,
            )
        if isinstance(payload, tuple) and payload and payload[0] == "done":
            # The exit token's tag is the last executed iteration; the done
            # marker therefore occupies slot tag + 1 so it is processed only
            # after every real iteration of this port.
            return PTuple(
                op="done", index=-1, value=0, phase=cfg.phase,
                iteration=iteration + 1, rom_pos=cfg.rom_pos,
                domain=cfg.domain, port=port_idx, done=True,
                tags=token.tags,
            )
        index, value = payload
        return PTuple(
            op=cfg.kind, index=int(index), value=value, phase=cfg.phase,
            iteration=iteration, rom_pos=cfg.rom_pos, domain=cfg.domain,
            port=port_idx, version=token.version, tags=token.tags,
        )

    def _next_processable(self) -> Optional[Tuple[int, PTuple]]:
        """Oldest (by program position) pending record at its port's turn.

        Cached between calls: the result depends only on ``_pending`` and
        ``_expected``, so it is recomputed only after an arrival, a
        processed record, or a squash invalidated it (``_np_valid``).
        """
        if self._np_valid:
            return self._np_result
        best: Optional[Tuple[int, PTuple]] = None
        for i, pending in enumerate(self._pending):
            record = pending.get(self._expected[i])
            if record is None and pending:
                # A done marker may sit above the expected slot when the
                # loop ran zero iterations for the remaining ports.
                for it, cand in pending.items():
                    if cand.done and it <= self._expected[i]:
                        record = cand
                        break
            if record is None:
                continue
            if best is None or record.position < best[1].position:
                best = (i, record)
        self._np_result = best
        self._np_valid = True
        return best

    # ------------------------------------------------------------------
    # Validation (Eqs. 2-5 generalized)
    # ------------------------------------------------------------------
    def _flag_violation(
        self, kind: str, observed, reference, accused: PTuple
    ) -> None:
        """Account one detected violation (Eqs. 2-5 mismatch).

        ``observed`` is the value the accused operation carried,
        ``reference`` the value program order says it should have seen —
        the very comparison the arbiter just made, handed to the PVSan
        oracle so it can flag squashes on *equal* values as spurious.
        """
        self.violations += 1
        self.violations_by_kind[kind] += 1
        if self.sanitizer is not None:
            self.sanitizer.on_violation(self, kind, observed, reference, accused)

    def _process(self, port_idx: int, record: PTuple) -> bool:
        """Validate ``record``; returns True when its own iteration squashes."""
        self.processed_ops += 1
        if self.sanitizer is not None:
            self.sanitizer.on_process(self, port_idx, record)
        if record.done:
            self._advance_version(port_idx, ITER_DONE)
            return False
        if record.fake:
            self.fake_tokens += 1
            return False
        cfg = self.ports[port_idx]
        if record.op == "store":
            write = self.memory.find_record(
                cfg.array, record.index, record.domain, record.iteration
            )
            if write is not None:
                record.old_value = write.old_value
                record.version = write.serial
            else:
                # The controller has not committed this store yet (port
                # contention); the current content is still the old value
                # and the commit serial is resolved lazily at retirement.
                record.old_value = self.memory.load(cfg.array, record.index)
                record.version = None
            squashed = self._validate_store(record)
        else:
            squashed = self._validate_load(record)
        if not squashed:
            self._advance_version(port_idx, record.version)
            self.queue.push(record)
        return squashed

    def _same_index(self, record: PTuple):
        # O(matching entries): the queue maintains the index→entries map
        # incrementally; the list is already in head→tail order.
        return self.queue.entries_for(record.index)

    def _validate_store(self, store: PTuple) -> bool:
        """Arriving store: accuse younger queued ops that used stale data."""
        entries = self._same_index(store)
        stores = sorted(
            [e for e in entries if e.op == "store"] + [store],
            key=lambda e: e.position,
        )
        for entry in entries:
            if entry.position <= store.position:
                if (
                    entry.op == "load"
                    and entry.version is not None
                    and store.version is not None
                    and entry.version >= store.version
                    and entry.value != store.old_value
                ):
                    # WAR: the program-older load read memory *after* this
                    # store committed (versions prove it) and saw the wrong
                    # value: replay from the load's iteration.
                    self._flag_violation(
                        "war", entry.value, store.old_value, entry
                    )
                    self.controller.request_squash(
                        entry.domain, entry.iteration
                    )
                    self.controller.request_squash(
                        store.domain, store.iteration
                    )
                    return True
                continue
            if entry.op == "load":
                # Eq. (2)-(5): the younger load should hold the value of the
                # latest store older than it (including the arrival).
                older = [s for s in stores if s.position < entry.position]
                expected = older[-1].value if older else None
                if expected is not None and entry.value != expected:
                    self._flag_violation("raw", entry.value, expected, entry)
                    self.controller.request_squash(entry.domain, entry.iteration)
                    return False
                self.benign_reorders += 1
            elif entry.value != store.value:
                # Store/store inversion: the younger store committed first;
                # memory would end with the wrong value. Replay the younger.
                self._flag_violation("waw", entry.value, store.value, entry)
                self.controller.request_squash(entry.domain, entry.iteration)
                return False
        return False

    def _validate_load(self, load: PTuple) -> bool:
        """Arriving load: check against both older and younger stores."""
        entries = self._same_index(load)
        older_stores = [
            e for e in entries
            if e.op == "store" and e.position < load.position
        ]
        if older_stores:
            latest = max(older_stores, key=lambda e: e.position)
            if load.value != latest.value:
                # The load raced ahead of an older store's commit (classic
                # RAW): its own iteration must replay.
                self._flag_violation("raw", load.value, latest.value, load)
                self.controller.request_squash(load.domain, load.iteration)
                return True
            self.benign_reorders += 1
        younger_stores = [
            e for e in entries
            if e.op == "store" and e.position > load.position
        ]
        if younger_stores:
            earliest = min(younger_stores, key=lambda e: e.position)
            if earliest.old_value is not None and load.value != earliest.old_value:
                # WAR: a younger store overwrote memory before this older
                # load read it. Replay the load and the stores behind it.
                self._flag_violation(
                    "war", load.value, earliest.old_value, load
                )
                self.controller.request_squash(load.domain, load.iteration)
                self.controller.request_squash(
                    earliest.domain, earliest.iteration
                )
                return True
            self.benign_reorders += 1
        return False

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _port_position(self, i: int) -> Tuple[int, int]:
        cfg = self.ports[i]
        if self._expected[i] >= ITER_DONE:
            # The port's nest has finished: it can never accuse anything
            # again, so it no longer bounds retirement in any phase.
            return (ITER_DONE, ITER_DONE)
        return (cfg.phase, self._expected[i])

    def _watermark(self) -> Tuple[int, int]:
        return min(self._port_position(i) for i in range(len(self.ports)))

    def _watermark_port(self) -> int:
        """Port whose expected position bounds retirement (the laggard)."""
        return min(
            range(len(self.ports)), key=lambda i: self._port_position(i)
        )

    def _resolve_pending_versions(self) -> None:
        for entry in self.queue.entries():
            if entry.op == "store" and entry.version is None:
                cfg = self.ports[entry.port]
                write = self.memory.find_record(
                    cfg.array, entry.index, entry.domain, entry.iteration
                )
                if write is not None:
                    entry.version = write.serial
                    self._advance_version(entry.port, write.serial)

    def _port_version_bound(self, i: int) -> int:
        """Lower bound on the memory version of this port's future arrivals.

        Per-port accesses happen in program order, so their versions are
        monotone in iteration order: the bound is the version of the *next
        real record this port will process*.  Walking the consecutive run
        of pending records from the expected slot, the first real one
        supplies it (pending stores resolve their commit serial through
        the memory log — the controller commits independently of the
        arbiter).  When nothing real is pending and the controller has no
        operation in flight toward the arbiter, everything still to come
        will access memory later than now, i.e. at ``memory.version`` or
        above; otherwise only the last processed version is guaranteed.
        """
        cfg = self.ports[i]
        it = self._expected[i]
        while it in self._pending[i]:
            record = self._pending[i][it]
            if record.done:
                return ITER_DONE
            if not record.fake:
                version = record.version
                if version is None and record.op == "store":
                    write = self.memory.find_record(
                        cfg.array, record.index, record.domain,
                        record.iteration,
                    )
                    if write is not None:
                        version = write.serial
                        record.version = version
                if version is None:
                    # Unresolved pending store: only the last processed
                    # version is a safe lower bound.
                    return self._last_version[i]
                return max(self._last_version[i], version)
            it += 1
        link = self._mc_link[i]
        if link is not None:
            mc, kind, mc_port = link
            progress = (
                mc.load_progress.get(mc_port, -1)
                if kind == "load"
                else mc.store_progress.get(mc_port, -1)
            )
            if progress <= self._last_real_iter[i]:
                return max(self._last_version[i], self.memory.version)
        return self._last_version[i]

    def _min_version(self) -> int:
        if not self.ports:
            return 0
        return min(
            self._port_version_bound(i) for i in range(len(self.ports))
        )

    def _retire(self) -> None:
        """Retire validated head entries and advance the retire points."""
        if self.controller.has_pending_squash():
            # A violation was detected this cycle and its squash executes
            # at the clock edge; retiring (and advancing retire points) now
            # could prune the very replay state the squash needs.
            return
        self._resolve_pending_versions()
        watermark = self._watermark()
        min_version = self._min_version()
        # Head-only retirement, exactly as Fig. 4 describes: "each time an
        # operation in the queue is validated, the head pointer moves one
        # position forward". Entries stuck behind a not-yet-validated head
        # accumulate, which is what makes Depth_q a real performance knob.
        while not self.queue.is_empty:
            head = self.queue.peek_head()
            retirable = (
                (head.phase, head.iteration) < watermark
                and head.version is not None
                and head.version <= min_version
            )
            if not retirable:
                break
            self.queue.pop_head()
        for domain in set(cfg.domain for cfg in self.ports):
            point = self.retire_point_for(domain)
            if point > self._notified_points.get(domain, -1):
                self._notified_points[domain] = point
                self.controller.notify_retired(domain, point)

    def touches_domain(self, domain: int) -> bool:
        return any(cfg.domain == domain for cfg in self.ports)

    def retire_point_for(self, domain: int) -> int:
        """Largest iteration below which this unit can never squash ``domain``.

        Bounded by (a) the ports' progress — a future arrival can accuse
        anything at or above its position — and (b) the oldest queued or
        pending record of the domain, since any of those can still be the
        target of a squash and the replay gates must keep their iterations
        available.
        """
        phases = [c.phase for c in self.ports if c.domain == domain]
        if not phases:
            return ITER_DONE
        domain_phase = phases[0]
        point = ITER_DONE
        for i, cfg in enumerate(self.ports):
            expected = self._expected[i]
            if cfg.phase < domain_phase and expected < ITER_DONE:
                return 0  # an earlier nest may still accuse anything
            if cfg.phase == domain_phase:
                point = min(point, expected)
            for record in self._pending[i].values():
                if record.domain == domain and not record.done:
                    point = min(point, record.iteration)
        for entry in self.queue.entries():
            if entry.domain == domain:
                point = min(point, entry.iteration)
        return point

    # ------------------------------------------------------------------
    # Squash interface
    # ------------------------------------------------------------------
    def on_squash(self, domain: int, min_iter: int) -> None:
        self._np_valid = False
        if self._notified_points.get(domain, -1) > min_iter:
            self._notified_points[domain] = min_iter
        self.queue.remove_if(
            lambda e: (
                e.tags.get(domain, -1) >= min_iter
                or (e.domain == domain and e.iteration >= min_iter)
            )
        )
        for i, cfg in enumerate(self.ports):
            if cfg.domain == domain and self._expected[i] >= min_iter:
                self._expected[i] = min_iter
            if cfg.domain == domain and self._last_real_iter[i] >= min_iter:
                self._last_real_iter[i] = min_iter - 1
            self._pending[i] = {
                it: rec
                for it, rec in self._pending[i].items()
                if not (
                    rec.tags.get(domain, -1) >= min_iter
                    or (rec.domain == domain and rec.iteration >= min_iter)
                )
            }

    def flush(self, domain: int, min_iter: int) -> None:
        # The controller drives on_squash explicitly; the circuit-wide token
        # flush must not touch queue entries of *older* iterations, so the
        # component-level flush is a no-op for the unit.
        return

    @property
    def is_busy(self) -> bool:
        # Busy only when an accepted record can actually be processed;
        # unprocessable backlog must let the deadlock detector speak.
        return self._next_processable() is not None

    @property
    def has_pending(self) -> bool:
        """True while any port still holds unvalidated records.

        The public quiescence signal completion conditions should poll
        (instead of reaching into ``_pending``): the unit is drained only
        once every accepted packet has been validated and retired.
        """
        return any(self._pending)

    @property
    def pending_occupancies(self) -> List[int]:
        """Per-port reorder-buffer occupancies, for the PVBound
        measured path (sampled from an end-of-cycle hook — nothing on
        the stat-free fast path pays for it)."""
        return [len(pending) for pending in self._pending]

    @property
    def resource_params(self):
        n_loads = sum(1 for c in self.ports if c.kind == "load")
        n_stores = len(self.ports) - n_loads
        return {
            "depth": self.queue.depth,
            "n_loads": max(1, n_loads),
            "n_stores": max(1, n_stores),
            "addr_width": self.addr_width,
            "data_width": self.data_width,
            "iter_width": 16,
        }
