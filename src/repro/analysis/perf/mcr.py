"""Exact maximum cycle ratio over (latency, capacity)-weighted graphs.

The steady-state initiation interval of an elastic circuit is bounded
below by its *worst cycle*: a directed cycle of total latency ``L`` whose
storage can hold at most ``C`` tokens sustains at most ``C / L``
traversals per clock, so any computation that must send one token per
iteration around it has ``II >= L / C``.  Finding the binding constraint
is therefore a maximum-cycle-ratio problem over the token-flow graph.

The solver is Lawler-style iterative improvement: starting from a ratio
every cycle beats, repeatedly find a cycle whose weight
``sum(L - lambda * C)`` is positive under the current candidate
``lambda`` (Bellman-Ford longest-path relaxation with positive-cycle
extraction), tighten ``lambda`` to that cycle's exact ratio, and stop
when no cycle beats it.  Each round strictly increases ``lambda`` within
the finite set of simple-cycle ratios, so termination is guaranteed,
and the final cycle — the *critical cycle* — is returned alongside the
ratio.

Relaxation runs on integers.  For ``lambda = p/q`` (``q > 0``) each edge
weighs ``L*q - p*C``: ``q`` times its rational weight.  Scaling every
weight by one positive constant preserves every comparison Bellman-Ford
makes, so the relaxation order, the predecessor chains and the extracted
cycle are exactly those of the rational computation.  The ratio itself
stays exact: ``lambda`` is carried between rounds, and returned, as a
:class:`~fractions.Fraction`.

Edges with ``capacity=None`` (components whose storage the model cannot
bound) are excluded: a cycle through unbounded storage imposes no
throughput constraint, so dropping those edges computes the exact
maximum over the *constrained* cycles only.  Cycles whose total capacity
is zero hold no token at all — a combinational cycle, the same structure
PV103 flags — and are reported as an infinite ratio (``ratio=None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NoReturn, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class RatioEdge:
    """One edge of the ratio graph: ``src -> dst`` with its traversal cost.

    ``capacity=None`` means unbounded storage (the edge constrains no
    cycle); ``capacity=0`` means the edge holds no token (a cycle of only
    such edges is combinational).
    """

    src: int
    dst: int
    latency: int
    capacity: Optional[int]
    #: opaque label carried through to the critical-cycle report
    tag: str = ""


@dataclass(frozen=True)
class CriticalCycle:
    """The binding cycle of a ratio graph.

    ``ratio`` is ``None`` for a combinational (zero-capacity) cycle —
    the II constraint is infinite because the cycle can never fire.
    """

    ratio: Optional[Fraction]
    latency: int
    capacity: int
    #: edge indices (into the input edge list) along the cycle, in order
    edges: Tuple[int, ...]

    @property
    def is_combinational(self) -> bool:
        return self.ratio is None


def _zero_capacity_cycle(
    n_nodes: int, edges: Sequence[RatioEdge]
) -> Optional[Tuple[int, ...]]:
    """A cycle made entirely of zero-capacity edges, if one exists.

    Iterative DFS with an explicit edge stack; deterministic for a given
    edge order (lowest edge index explored first).
    """
    out: Dict[int, List[int]] = {}
    for idx, edge in enumerate(edges):
        if edge.capacity == 0:
            out.setdefault(edge.src, []).append(idx)
    color: Dict[int, int] = {}  # 0/absent = white, 1 = on stack, 2 = done
    for root in sorted(out):
        if color.get(root):
            continue
        path: List[int] = []  # edge indices of the current DFS path
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            succs = out.get(node, [])
            if i < len(succs):
                stack[-1] = (node, i + 1)
                eidx = succs[i]
                nxt = edges[eidx].dst
                state = color.get(nxt, 0)
                if state == 1:  # back edge: close the cycle
                    cycle = [eidx]
                    for pidx in reversed(path):
                        if edges[cycle[-1]].src == nxt:
                            break
                        cycle.append(pidx)
                    cycle.reverse()
                    # rotate so the cycle starts at its smallest edge index
                    k = cycle.index(min(cycle))
                    return tuple(cycle[k:] + cycle[:k])
                if state == 0:
                    color[nxt] = 1
                    path.append(eidx)
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
                if path:
                    path.pop()
    return None


def _positive_cycle(
    n_nodes: int,
    src: Sequence[int],
    dst: Sequence[int],
    weights: Sequence[int],
    lam: Fraction,
) -> Optional[List[int]]:
    """Edge positions (into ``src``/``dst``) of a positive cycle, or ``None``.

    ``weights[k]`` is edge ``k``'s ``latency - lam * capacity`` scaled by
    ``lam``'s denominator.  Bellman-Ford longest-path relaxation from a
    virtual source connected to every node with weight 0.  If any edge
    still relaxes after ``n_nodes`` full rounds, a positive cycle exists
    and is extracted by walking the predecessor chain.
    """
    dist = [0] * n_nodes
    pred = [-1] * n_nodes  # node -> edge position that last improved it
    n_edges = len(weights)
    order = list(enumerate(zip(src, dst, weights)))

    witness = -1
    for _ in range(n_nodes + 1):
        changed = False
        for k, (s, d, w) in order:
            cand = dist[s] + w
            if cand > dist[d]:
                dist[d] = cand
                pred[d] = k
                changed = True
                witness = d
        if not changed:
            return None
    # ``witness`` was the last node relaxed in round n+1, so its
    # predecessor chain is exactly as it stood at that update.  A chain
    # ending at a node with no predecessor would make ``dist[witness]``
    # a simple path's weight, which n rounds had already reached — so
    # the walk always closes a cycle, and walking n steps lands inside
    # it.  A break means the solver itself is wrong: returning would
    # silently under-state the maximum, so abort loudly instead.
    node = witness
    for _ in range(n_nodes):
        k = pred[node]
        if k < 0:
            _broken_chain(n_nodes, n_edges, lam)
        node = src[k]
    cycle: List[int] = []
    seen: Set[int] = set()
    while node not in seen:
        seen.add(node)
        k = pred[node]
        if k < 0:
            _broken_chain(n_nodes, n_edges, lam)
        cycle.append(k)
        node = src[k]
    # The pred-walk collects edges dst->src order; keep only the simple
    # cycle closing at the revisited node, then restore forward order.
    start = node
    trimmed: List[int] = []
    for k in cycle:
        trimmed.append(k)
        if src[k] == start:
            break
    trimmed.reverse()
    k = trimmed.index(min(trimmed))
    return trimmed[k:] + trimmed[:k]


def _broken_chain(n_nodes: int, n_edges: int, lam: Fraction) -> NoReturn:
    # RuntimeError, not a ReproError: no caller may catch this and fall
    # back to a weaker bound.
    raise RuntimeError(
        f"internal error in max_cycle_ratio: broken predecessor chain "
        f"after a strict relaxation in round {n_nodes + 1} "
        f"(V={n_nodes}, E={n_edges}, lambda={lam})"
    )


def max_cycle_ratio(
    n_nodes: int, edges: Sequence[RatioEdge]
) -> Optional[CriticalCycle]:
    """The maximum latency/capacity cycle ratio and its critical cycle.

    Returns ``None`` when the constrained subgraph is acyclic (no cycle
    bounds the II), a :class:`CriticalCycle` with ``ratio=None`` when a
    zero-capacity (combinational) cycle exists, and the exact maximum
    ratio as a :class:`~fractions.Fraction` otherwise.
    """
    combinational = _zero_capacity_cycle(n_nodes, edges)
    if combinational is not None:
        latency = sum(edges[i].latency for i in combinational)
        return CriticalCycle(
            ratio=None, latency=latency, capacity=0, edges=combinational
        )

    bounded = [i for i, e in enumerate(edges) if e.capacity is not None]
    if not bounded:
        return None

    # Self-loops short-circuit Bellman-Ford: their ratio is immediate.
    best: Optional[CriticalCycle] = None
    lam = Fraction(-1)
    for idx in bounded:
        edge = edges[idx]
        if edge.src == edge.dst:
            ratio = Fraction(edge.latency, edge.capacity)
            if best is None or ratio > best.ratio:
                best = CriticalCycle(
                    ratio=ratio,
                    latency=edge.latency,
                    capacity=edge.capacity,
                    edges=(idx,),
                )
    if best is not None:
        lam = best.ratio

    # Flat per-edge lists, hoisted once; position k is edge bounded[k].
    src = [edges[i].src for i in bounded]
    dst = [edges[i].dst for i in bounded]
    lat = [edges[i].latency for i in bounded]
    cap = [edges[i].capacity for i in bounded]
    while True:
        p, q = lam.numerator, lam.denominator
        weights = [l * q - p * c for l, c in zip(lat, cap)]
        found = _positive_cycle(n_nodes, src, dst, weights, lam)
        if found is None:
            return best
        latency = sum(lat[k] for k in found)
        capacity = sum(cap[k] for k in found)
        ratio = Fraction(latency, capacity)
        if best is not None and ratio <= best.ratio:
            # Numerically impossible (the cycle was strictly positive
            # under lam = best.ratio) but guards against livelock.
            return best
        best = CriticalCycle(
            ratio=ratio,
            latency=latency,
            capacity=capacity,
            edges=tuple(bounded[k] for k in found),
        )
        lam = ratio
