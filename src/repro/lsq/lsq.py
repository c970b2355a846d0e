"""Load-store queue baselines.

:class:`LoadStoreQueue` reproduces the Dynamatic-style LSQ of Josipović
et al. [4][15]: a **group allocator** receives one control token per basic
-block execution and allocates that block's memory operations *in program
order* (the order stored in an on-chip ROM); loads then search older
stores associatively (wait on unknown store addresses, forward matching
data), and stores commit in order from the head.

The queue-full condition stalls group allocation, which backpressures the
basic block's control token — the classic Dynamatic II bottleneck that
Fig. 1 traces to the LSQ.

The fast-allocation variant of Elakhras et al. [8] ("straight to the
queue") is the same queue with a dedicated low-latency allocation network:
modelled by ``alloc_latency=1`` (vs. several cycles through the control
network for [15]) plus extra allocator area in the cost library.  Use
:func:`make_dynamatic_lsq` / :func:`make_fast_lsq`.

Ports:

* ``group{g}`` — control-token input per allocation group (basic block);
* ``ld{i}_addr`` / ``ld{i}_data`` — per static load;
* ``st{j}_addr`` / ``st{j}_data`` — per static store.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..dataflow.component import Component
from ..dataflow.token import Token, combine
from ..errors import QueueOverflowError
from ..memory.ram import Memory


@dataclass
class GroupSpec:
    """One allocation group: the program-ordered ops of a basic block [4]."""

    ops: List[Tuple[str, int]]  # ("load"|"store", port index) in program order

    @property
    def n_loads(self) -> int:
        return sum(1 for kind, _ in self.ops if kind == "load")

    @property
    def n_stores(self) -> int:
        return len(self.ops) - self.n_loads


class _Entry:
    __slots__ = (
        "kind", "port", "port_seq", "addr", "data", "addr_token", "issued",
        "responded", "committed", "forward_from",
    )

    def __init__(self, kind: str, port: int, port_seq: int = 0):
        self.kind = kind
        self.port = port
        self.port_seq = port_seq
        self.addr: Optional[int] = None
        self.data: Optional[Token] = None
        self.addr_token: Optional[Token] = None
        self.issued = False
        self.responded = False
        self.committed = False
        self.forward_from: Optional["_Entry"] = None

    @property
    def done(self) -> bool:
        if self.kind == "load":
            return self.responded
        return self.committed


class LoadStoreQueue(Component):
    """Ordered load-store queue with group allocation."""

    resource_class = "lsq"
    # Allocation/acceptance readys derive from queue occupancy and input
    # valids; load responses come from entry state — no output-ready reads.
    observes_output_ready = False
    # Input valids steer only allocation/acceptance (ready) decisions;
    # load-response valids are pure entry state — no same-cycle carry.
    forwards_valid = False
    scheduling_contract_audited = True

    def __init__(
        self,
        name: str,
        memory: Memory,
        array: str,
        n_loads: int,
        n_stores: int,
        groups: List[GroupSpec],
        depth_loads: int = 16,
        depth_stores: int = 16,
        alloc_latency: int = 3,
        load_latency: int = 1,
        loads_per_cycle: int = 1,
        stores_per_cycle: int = 1,
        style: str = "dynamatic",
        addr_width: int = 32,
        data_width: int = 32,
    ):
        super().__init__(name)
        self.memory = memory
        self.array = array
        self.n_loads = n_loads
        self.n_stores = n_stores
        self.groups = groups
        self.depth_loads = depth_loads
        self.depth_stores = depth_stores
        self.alloc_latency = max(1, alloc_latency)
        self.load_latency = max(1, load_latency)
        self.loads_per_cycle = loads_per_cycle
        self.stores_per_cycle = stores_per_cycle
        self.style = style
        self.addr_width = addr_width
        self.data_width = data_width

        self._order: List[_Entry] = []  # program order, head at index 0
        self._pending_allocs: Deque[List] = deque()  # [countdown, group_idx]
        # Loads may *issue* out of order, but each port's responses must be
        # delivered in program order (the elastic datapath pairs a port's
        # k-th response with its k-th request): a per-port reorder buffer
        # keyed by the entry's port sequence number.
        self._responses: Dict[int, Dict[int, List]] = {
            i: {} for i in range(n_loads)
        }
        self._next_response: List[int] = [0] * n_loads
        self._port_alloc_count: Dict[tuple, int] = {}
        # Statistics
        self.committed_stores = 0
        self.completed_loads = 0
        self.alloc_stalls = 0
        self.max_load_occupancy = 0
        self.max_store_occupancy = 0
        self.forwarded_loads = 0
        self._group_chs = None  # port channel lists, bound after wiring

    # ------------------------------------------------------------------
    # Occupancy bookkeeping (reserved = allocated + in-flight allocations)
    # ------------------------------------------------------------------
    def _reserved(self) -> Tuple[int, int]:
        loads = sum(1 for e in self._order if e.kind == "load")
        stores = len(self._order) - loads
        for _, group_idx in self._pending_allocs:
            loads += self.groups[group_idx].n_loads
            stores += self.groups[group_idx].n_stores
        return loads, stores

    def _can_accept_group(self, group_idx: int) -> bool:
        loads, stores = self._reserved()
        group = self.groups[group_idx]
        return (
            loads + group.n_loads <= self.depth_loads
            and stores + group.n_stores <= self.depth_stores
        )

    # ------------------------------------------------------------------
    # Elastic interface
    # ------------------------------------------------------------------
    def _bind(self):
        self._group_chs = [
            self.inputs[f"group{g}"] for g in range(len(self.groups))
        ]
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
        return self._group_chs

    def propagate(self) -> None:
        groups = self._group_chs
        if groups is None:
            groups = self._bind()
        for g, ch in enumerate(groups):
            if ch.valid and self._can_accept_group(g):
                ch.ready = True
        # Address/data acceptance: ready when an allocated entry awaits it.
        for i in range(self.n_loads):
            if self._awaiting_addr("load", i) is not None:
                self._ld_addr_chs[i].ready = True
        for j in range(self.n_stores):
            if self._awaiting_addr("store", j) is not None:
                self._st_addr_chs[j].ready = True
            if self._awaiting_data(j) is not None:
                self._st_data_chs[j].ready = True
        # Load responses, strictly in per-port program order.
        for i in range(self.n_loads):
            item = self._responses[i].get(self._next_response[i])
            if item is not None and item[0] <= 0:
                out_ch = self._ld_data_chs[i]
                out_ch.valid = True
                out_ch.data = item[1]

    def _awaiting_addr(self, kind: str, port: int) -> Optional[_Entry]:
        for entry in self._order:
            if entry.kind == kind and entry.port == port and entry.addr is None:
                return entry
        return None

    def _awaiting_data(self, port: int) -> Optional[_Entry]:
        for entry in self._order:
            if (
                entry.kind == "store"
                and entry.port == port
                and entry.data is None
            ):
                return entry
        return None

    # ------------------------------------------------------------------
    def tick(self):
        if self._group_chs is None:
            self._bind()
        self._tick_responses()
        self._tick_allocation()
        self._tick_port_fills()
        self._tick_issue_loads()
        self._tick_commit_stores()
        self._tick_retire()
        loads, stores = self._reserved()
        self.max_load_occupancy = max(self.max_load_occupancy, loads)
        self.max_store_occupancy = max(self.max_store_occupancy, stores)

    def _tick_responses(self) -> None:
        for i in range(self.n_loads):
            head = self._next_response[i]
            item = self._responses[i].get(head)
            if (
                item is not None
                and item[0] <= 0
                and self._ld_data_chs[i].fires
            ):
                del self._responses[i][head]
                self._next_response[i] = head + 1
                self.completed_loads += 1
            for item in self._responses[i].values():
                if item[0] > 0:
                    item[0] -= 1

    def _tick_allocation(self) -> None:
        # Mature pending allocations.
        while self._pending_allocs and self._pending_allocs[0][0] <= 0:
            _, group_idx = self._pending_allocs.popleft()
            for kind, port in self.groups[group_idx].ops:
                key = (kind, port)
                seq = self._port_alloc_count.get(key, 0)
                self._port_alloc_count[key] = seq + 1
                self._order.append(_Entry(kind, port, seq))
        for item in self._pending_allocs:
            item[0] -= 1
        # Accept new group tokens.
        for g, ch in enumerate(self._group_chs):
            if ch.fires:
                self._pending_allocs.append([self.alloc_latency - 1, g])
            elif ch.valid:
                self.alloc_stalls += 1

    def _tick_port_fills(self) -> None:
        for i in range(self.n_loads):
            ch = self._ld_addr_chs[i]
            if ch.fires:
                entry = self._awaiting_addr("load", i)
                if entry is None:
                    raise QueueOverflowError(f"{self.name}: load addr w/o entry")
                entry.addr = int(ch.data.value)
                entry.addr_token = ch.data
        for j in range(self.n_stores):
            ch = self._st_addr_chs[j]
            if ch.fires:
                entry = self._awaiting_addr("store", j)
                if entry is None:
                    raise QueueOverflowError(f"{self.name}: store addr w/o entry")
                entry.addr = int(ch.data.value)
                entry.addr_token = ch.data
            dch = self._st_data_chs[j]
            if dch.fires:
                entry = self._awaiting_data(j)
                if entry is None:
                    raise QueueOverflowError(f"{self.name}: store data w/o entry")
                entry.data = dch.data

    def _tick_issue_loads(self) -> None:
        issued = 0
        for pos, entry in enumerate(self._order):
            if issued >= self.loads_per_cycle:
                break
            if entry.kind != "load" or entry.issued or entry.addr is None:
                continue
            older_stores = [
                e
                for e in self._order[:pos]
                if e.kind == "store" and not e.committed
            ]
            if any(e.addr is None for e in older_stores):
                continue  # unknown older address: must wait (associative search)
            matches = [e for e in older_stores if e.addr == entry.addr]
            if matches:
                source = matches[-1]
                if source.data is None:
                    continue  # true dependence, data not yet available
                value = source.data.value
                self.forwarded_loads += 1
                latency = 1
            else:
                value = self.memory.load(self.array, entry.addr)
                latency = self.load_latency
            entry.issued = True
            token = combine(value, entry.addr_token)
            self._responses[entry.port][entry.port_seq] = [latency - 1, token]
            issued += 1

    def _tick_commit_stores(self) -> None:
        committed = 0
        for pos, entry in enumerate(self._order):
            if committed >= self.stores_per_cycle:
                break
            if entry.kind == "load":
                if not entry.issued:
                    break  # stores commit strictly behind unissued older loads
                continue
            if entry.committed:
                continue
            if entry.addr is None or entry.data is None:
                break  # in-order commit: cannot skip ahead
            entry.committed = True
            self.memory.store(self.array, entry.addr, entry.data.value)
            self.committed_stores += 1
            committed += 1

    def _tick_retire(self) -> None:
        while self._order:
            head = self._order[0]
            if head.kind == "load":
                if not head.responded:
                    # A load retires once its response was delivered, i.e.
                    # the port's in-order delivery pointer passed it.
                    delivered = (
                        self._next_response[head.port] > head.port_seq
                    )
                    if head.issued and delivered:
                        head.responded = True
                    else:
                        break
            if head.done:
                self._order.pop(0)
            else:
                break

    @property
    def is_busy(self) -> bool:
        return bool(
            self._order
            or self._pending_allocs
            or any(self._responses[i] for i in self._responses)
        )

    def perf_model(self):
        # Matured responses park in unbounded queues while the consumer
        # stalls; like the memory controller, the LSQ therefore cannot
        # bound any token-flow cycle it sits on.
        return (1, None)

    @property
    def resource_params(self):
        return {
            "depth_loads": self.depth_loads,
            "depth_stores": self.depth_stores,
            "n_loads": max(1, self.n_loads),
            "n_stores": max(1, self.n_stores),
            "n_groups": max(1, len(self.groups)),
            "addr_width": self.addr_width,
            "data_width": self.data_width,
            "style": self.style,
        }


def make_dynamatic_lsq(name, memory, array, n_loads, n_stores, groups, **kw):
    """Plain Dynamatic LSQ [15]: slow allocation through the control net."""
    kw.setdefault("alloc_latency", 3)
    kw.setdefault("style", "dynamatic")
    return LoadStoreQueue(
        name, memory, array, n_loads, n_stores, groups, **kw
    )


def make_fast_lsq(name, memory, array, n_loads, n_stores, groups, **kw):
    """Fast-allocation LSQ [8]: straight-to-the-queue token delivery."""
    kw.setdefault("alloc_latency", 1)
    kw.setdefault("style", "fast")
    return LoadStoreQueue(
        name, memory, array, n_loads, n_stores, groups, **kw
    )
