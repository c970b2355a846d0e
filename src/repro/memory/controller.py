"""Plain memory controller (Dynamatic's MC): per-array, no ordering logic.

Used for arrays whose accesses carry **no** potential dependency — the
polyhedral analysis proved them conflict-free — so requests may commit in
any arrival order.  Arrays with possible conflicts go through an LSQ
(:mod:`repro.lsq`) or a PreVV unit (:mod:`repro.prevv`) instead.

Ports (all elastic channels):

* per load port ``i``:  input ``ld{i}_addr``, output ``ld{i}_data``;
* per store port ``j``: inputs ``st{j}_addr`` and ``st{j}_data``.

Bandwidth is limited to ``loads_per_cycle`` load grants and
``stores_per_cycle`` store grants per cycle (round-robin priority),
modelling the BRAM port arbitration of the real controller; loads respond
after ``load_latency`` cycles, fully pipelined.
"""

from __future__ import annotations

from collections import deque
from typing import Dict
from typing import Deque, List

from ..dataflow.component import Component
from ..dataflow.token import combine, merge_tags
from .ram import Memory


class MemoryController(Component):
    """Unordered per-array memory interface."""

    resource_class = "memory_controller"
    # Grants depend on input valids and internal state only; response
    # data comes from the latency queues — never from an output ready.
    observes_output_ready = False
    # Input valids steer only the grant (ready) side; output valids are
    # pure latency-queue state, so the valid wave terminates here.
    forwards_valid = False
    scheduling_contract_audited = True

    def __init__(
        self,
        name: str,
        memory: Memory,
        array: str,
        n_loads: int,
        n_stores: int,
        load_latency: int = 1,
        loads_per_cycle: int = 1,
        stores_per_cycle: int = 1,
        addr_width: int = 32,
        data_width: int = 32,
    ):
        super().__init__(name)
        self.memory = memory
        self.array = array
        self.n_loads = n_loads
        self.n_stores = n_stores
        self.load_latency = max(1, load_latency)
        self.loads_per_cycle = loads_per_cycle
        self.stores_per_cycle = stores_per_cycle
        self.addr_width = addr_width
        self.data_width = data_width
        # Per load port: queue of (cycles_remaining, response token).
        self._responses: List[Deque[List]] = [deque() for _ in range(n_loads)]
        self._rr_load = 0
        self._rr_store = 0
        self.committed_stores = 0
        self.completed_loads = 0
        # Per-port progress in squash-domain iterations (set by the PreVV
        # builder via set_port_domain); lets the arbiter prove a port has
        # no in-flight operation between this controller and the arbiter.
        self._load_domains: Dict[int, int] = {}
        self._store_domains: Dict[int, int] = {}
        self.load_progress: Dict[int, int] = {}
        self.store_progress: Dict[int, int] = {}
        self._ld_addr_chs = None  # port channel lists, bound after wiring

    # ------------------------------------------------------------------
    def _bind(self):
        self._ld_addr_chs = [
            self.inputs[f"ld{i}_addr"] for i in range(self.n_loads)
        ]
        self._ld_data_chs = [
            self.outputs[f"ld{i}_data"] for i in range(self.n_loads)
        ]
        self._st_addr_chs = [
            self.inputs[f"st{j}_addr"] for j in range(self.n_stores)
        ]
        self._st_data_chs = [
            self.inputs[f"st{j}_data"] for j in range(self.n_stores)
        ]
        return self._ld_addr_chs

    def _granted_loads(self) -> List[int]:
        """Load ports granted this cycle (round-robin, bandwidth-limited)."""
        chs = self._ld_addr_chs or self._bind()
        granted = []
        for k in range(self.n_loads):
            i = (self._rr_load + k) % self.n_loads
            if len(granted) >= self.loads_per_cycle:
                break
            if chs[i].valid:
                granted.append(i)
        return granted

    def _granted_stores(self) -> List[int]:
        if self._ld_addr_chs is None:
            self._bind()
        addr_chs = self._st_addr_chs
        data_chs = self._st_data_chs
        granted = []
        for k in range(self.n_stores):
            j = (self._rr_store + k) % self.n_stores
            if len(granted) >= self.stores_per_cycle:
                break
            if addr_chs[j].valid and data_chs[j].valid:
                granted.append(j)
        return granted

    def propagate(self) -> None:
        if self._ld_addr_chs is None:
            self._bind()
        # Drive the grant readies as an exact assignment (set AND clear):
        # under the reference engine's fixpoint this method re-runs as
        # input valids arrive, and a port granted against a partial valid
        # set may lose arbitration to a higher-priority port once every
        # valid has settled.  Leaving the earlier ready latched would
        # accept more than *_per_cycle requests in one cycle.
        granted_loads = self._granted_loads()
        for i in range(self.n_loads):
            self._ld_addr_chs[i].ready = i in granted_loads
        granted_stores = self._granted_stores()
        for j in range(self.n_stores):
            grant = j in granted_stores
            self._st_addr_chs[j].ready = grant
            self._st_data_chs[j].ready = grant
        data_chs = self._ld_data_chs
        for i in range(self.n_loads):
            queue = self._responses[i]
            if queue and queue[0][0] <= 0:
                out_ch = data_chs[i]
                out_ch.valid = True
                out_ch.data = queue[0][1]

    def tick(self):
        if self._ld_addr_chs is None:
            self._bind()
        # Deliver matured responses and age the latency pipeline.
        for i in range(self.n_loads):
            queue = self._responses[i]
            if not queue:
                continue
            out_ch = self._ld_data_chs[i]
            if queue[0][0] <= 0 and out_ch.valid and out_ch.ready:
                queue.popleft()
                self.completed_loads += 1
            for item in queue:
                if item[0] > 0:
                    item[0] -= 1
        # Accept granted loads.
        for i in range(self.n_loads):
            ch = self._ld_addr_chs[i]
            if ch.valid and ch.ready:
                addr = int(ch.data.value)
                value = self.memory.load(self.array, addr)
                token = combine(value, ch.data)
                token.version = self.memory.version
                self._responses[i].append([self.load_latency - 1, token])
                self._rr_load = (i + 1) % self.n_loads
                if i in self._load_domains:
                    self.load_progress[i] = ch.data.tag(self._load_domains[i])
        # Commit granted stores.
        for j in range(self.n_stores):
            addr_ch = self._st_addr_chs[j]
            data_ch = self._st_data_chs[j]
            if (
                addr_ch.valid and addr_ch.ready
                and data_ch.valid and data_ch.ready
            ):
                tags = merge_tags([addr_ch.data, data_ch.data])
                self.memory.store(
                    self.array, int(addr_ch.data.value), data_ch.data.value, tags
                )
                self.committed_stores += 1
                self._rr_store = (j + 1) % self.n_stores
                if j in self._store_domains:
                    self.store_progress[j] = addr_ch.data.tag(
                        self._store_domains[j]
                    )

    def set_port_domain(self, kind: str, port: int, domain: int) -> None:
        """Register the squash domain of a port (PreVV wiring only)."""
        if kind == "load":
            self._load_domains[port] = domain
            self.load_progress.setdefault(port, -1)
        else:
            self._store_domains[port] = domain
            self.store_progress.setdefault(port, -1)

    def flush(self, domain: int, min_iter: int) -> None:
        for port, dom in self._load_domains.items():
            if dom == domain and self.load_progress.get(port, -1) >= min_iter:
                self.load_progress[port] = min_iter - 1
        for port, dom in self._store_domains.items():
            if dom == domain and self.store_progress.get(port, -1) >= min_iter:
                self.store_progress[port] = min_iter - 1
        for queue in self._responses:
            kept = [
                item
                for item in queue
                if not item[1].is_squashed_by(domain, min_iter)
            ]
            queue.clear()
            queue.extend(kept)

    @property
    def is_busy(self) -> bool:
        return any(self._responses[i] for i in range(self.n_loads))

    def perf_model(self):
        # The response queues accumulate without bound while a consumer
        # stalls, so the capacity cannot be bounded: a token-flow cycle
        # through the controller imposes no II constraint (PVPerf drops
        # unbounded edges from the ratio graph).
        return (min(1, self.load_latency), None)

    @property
    def pending_ops(self) -> int:
        return sum(len(q) for q in self._responses)

    @property
    def response_occupancies(self) -> List[int]:
        """Per-load-port response-queue occupancies, for the PVBound
        measured path (sampled from an end-of-cycle hook — nothing on
        the stat-free fast path pays for it)."""
        return [len(q) for q in self._responses]

    @property
    def resource_params(self):
        return {
            "n_loads": self.n_loads,
            "n_stores": self.n_stores,
            "addr_width": self.addr_width,
            "data_width": self.data_width,
        }
