"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``seed`` (and an index), built on
``random.Random`` methods whose algorithms are stable across Python
versions (``randrange``/``random``).  The program under test only ever
sees what these functions return.

* :func:`gaussian_matrix` — an ``n x n`` elimination input: seeded
  off-diagonals around the kernel's own dominant diagonal (``3 + d``),
  redrawn until every pivot of the integer elimination stays nonzero.
* :func:`histogram_keys` — ``n`` keys spread over a seed-chosen number
  of buckets (2 … ``buckets``, within a given stratum of that range):
  few buckets mean many same-address collisions and PreVV squashes,
  many buckets mean few.
* :func:`fuzz_spec` — one loop-nest kernel over the ``repro.fuzz.spec``
  grammar.  The benchmark owns this generator (it does not call
  ``repro.fuzz.generate_spec``) so the ``fuzz_stream`` workload cannot
  change when the fuzzer's generator does.  Shapes rotate with the
  index, so every pass of the stream has the same mix; one of the four
  shapes is two statements of one body touching the same array, the
  shape the fuzzer's own generator leaves out.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.fuzz.spec import (
    Affine,
    ArraySpec,
    Expr,
    Guard,
    KernelSpec,
    LoopSpec,
    NestSpec,
    ReduceStmt,
    StoreStmt,
    Subscript,
    validate_spec,
)

#: fuzz_stream shapes, taken in turn by kernel index
FUZZ_SHAPES = ("rmw", "recurrence", "same_array", "two_nests")


def _rng(seed: int, *salt: int) -> random.Random:
    state = seed & 0xFFFFFFFF
    for s in salt:
        state = state * 1_000_003 + s
    return random.Random(state)


# ----------------------------------------------------------------------
# input_sweep inputs
# ----------------------------------------------------------------------
def eliminate(matrix: List[int], n: int) -> List[int]:
    """The gaussian kernel's integer elimination, in program order.

    Mirrors ``repro.kernels.gaussian`` exactly (C-style truncating
    division, ``A[j][i]`` re-read on every ``k``); returns the pivots
    ``A[i][i]`` in the order the kernel divides by them.  Raises
    ``ZeroDivisionError`` on a zero pivot.
    """
    a = list(matrix)
    pivots = []
    for i in range(n):
        pivots.append(a[i * n + i])
        for j in range(i + 1, n):
            for k in range(i, n):
                num, den = a[j * n + i], a[i * n + i]
                q = abs(num) // abs(den)
                factor = q if (num >= 0) == (den > 0) else -q
                a[j * n + k] -= factor * a[i * n + k]
    if 0 in pivots:
        raise ZeroDivisionError("zero pivot")
    return pivots


def gaussian_matrix(seed: int, stream: int, index: int, n: int) -> List[int]:
    """Seeded elimination input whose pivots are all nonzero."""
    for attempt in range(1000):
        rng = _rng(seed, 1, stream, index, attempt)
        values = [rng.randrange(21) for _ in range(n * n)]
        for d in range(n):
            values[d * n + d] = 3 + d
        try:
            eliminate(values, n)
        except ZeroDivisionError:
            continue
        return values
    raise RuntimeError(f"no pivot-safe matrix for seed {seed} index {index}")


def histogram_keys(seed: int, stream: int, index: int, n: int,
                   buckets: int, stratum: int, strata: int) -> List[int]:
    """``n`` keys over the first ``used`` buckets, ``used`` drawn from
    stratum ``stratum`` of ``strata`` equal slices of 2 … ``buckets``.

    Few buckets mean many same-address collisions and PreVV squashes,
    many buckets mean few; callers spread their inputs over the strata.
    """
    rng = _rng(seed, 2, stream, index)
    lo = 2 + stratum * (buckets - 1) // strata
    hi = 2 + (stratum + 1) * (buckets - 1) // strata
    used = lo + rng.randrange(max(1, hi - lo))
    return [rng.randrange(used) for _ in range(n)]


# ----------------------------------------------------------------------
# fuzz_stream kernels
# ----------------------------------------------------------------------
def _load(array: str, affine: Affine, indirect: str = None) -> Expr:
    return Expr("load", array=array,
                subscript=Subscript(affine=affine, indirect=indirect))


def _iv_affine(rng: random.Random, ivs: List[str]) -> Affine:
    """``const + sum(coef * iv)`` over a non-empty subset of ``ivs``."""
    coeffs = {iv: 1 + rng.randrange(2) for iv in ivs if rng.random() < 0.7}
    if not coeffs:
        coeffs[ivs[-1]] = 1
    return Affine(const=rng.randrange(3), coeffs=coeffs)


def _value(rng: random.Random, ivs: List[str], arrays: List[str]) -> Expr:
    """``load op (iv | const)``: one load, so every statement has the same
    number of memory ports and circuit sizes stay comparable."""
    load = _load(arrays[rng.randrange(len(arrays))], _iv_affine(rng, ivs))
    if rng.random() < 0.5:
        other = Expr("iv", name=ivs[rng.randrange(len(ivs))])
    else:
        other = Expr("const", value=1 + rng.randrange(5))
    op = ("add", "sub", "mul", "xor")[rng.randrange(4)]
    return Expr("bin", op=op, lhs=load, rhs=other)


def _loops(tag: str, depth: int) -> List[LoopSpec]:
    """Nine iterations: one loop of 9 or a 3 x 3 nest.

    Loop bounds are run-time arguments, not structure, so fixing them
    costs no structural variety and keeps simulated work per kernel
    even."""
    if depth == 1:
        return [LoopSpec(iv=f"{tag}i", bound=9)]
    return [LoopSpec(iv=f"{tag}i", bound=3), LoopSpec(iv=f"{tag}j", bound=3)]


def _rmw(rng, tag, depth, arrays) -> NestSpec:
    """``x[s] = x[s] op f(...)``: a may-RAW pair inside one statement."""
    loops = _loops(tag, depth)
    ivs = [lp.iv for lp in loops]
    target = arrays[rng.randrange(len(arrays))]
    sub = _iv_affine(rng, ivs)
    guard = None
    if rng.random() < 0.3:
        guard = Guard(affine=Affine(coeffs={ivs[-1]: 1}), op="eq",
                      rhs=rng.randrange(2), parity=True)
    expr = Expr("bin", op=("add", "xor", "sub")[rng.randrange(3)],
                lhs=_load(target, Affine(sub.const, dict(sub.coeffs))),
                rhs=_value(rng, ivs, arrays))
    return NestSpec(tag=tag, loops=loops, stmts=[
        StoreStmt(array=target, subscript=Subscript(affine=sub),
                  expr=expr, guard=guard)])


def _recurrence(rng, tag, depth, arrays) -> NestSpec:
    """``t[i+1] = f(t[i])`` plus a reduction into another array."""
    loops = _loops(tag, depth)
    ivs = [lp.iv for lp in loops]
    inner = ivs[-1]
    t, other = arrays[0], arrays[1]
    prev = _load(t, Affine(coeffs={inner: 1}))
    step = Expr("bin", op=("add", "mul")[rng.randrange(2)], lhs=prev,
                rhs=Expr("const", value=1 + rng.randrange(3)))
    stmts = [StoreStmt(array=t, subscript=Subscript(
        affine=Affine(const=1, coeffs={inner: 1})), expr=step)]
    outer = Affine(const=rng.randrange(2),
                   coeffs={ivs[0]: 1} if len(ivs) > 1 else {})
    stmts.append(ReduceStmt(
        op=("add", "xor")[rng.randrange(2)],
        expr=_load(other, _iv_affine(rng, ivs)),
        out_array=other, out_subscript=Subscript(affine=outer),
        init=rng.randrange(3)))
    return NestSpec(tag=tag, loops=loops, stmts=stmts)


def _same_array(rng, tag, depth, arrays) -> NestSpec:
    """Two independent statements of one body on the same array.

    ``x[s1] = f(y); z[s2] = g(x[s3])`` — the second statement reads
    (directly or through the index array) what the first one writes,
    with no dataflow edge ordering the pair.
    """
    loops = _loops(tag, depth)
    ivs = [lp.iv for lp in loops]
    x, y, z = arrays[0], arrays[1], arrays[2]
    first = StoreStmt(array=x, subscript=Subscript(affine=_iv_affine(rng, ivs)),
                      expr=_value(rng, ivs, [y]))
    read = _load(x, _iv_affine(rng, ivs),
                 indirect="idx" if rng.random() < 0.5 else None)
    second = StoreStmt(array=z, subscript=Subscript(affine=_iv_affine(rng, ivs)),
                       expr=Expr("bin", op="add", lhs=read,
                                 rhs=Expr("const", value=1 + rng.randrange(3))))
    return NestSpec(tag=tag, loops=loops, stmts=[first, second])


def _loads(expr: Expr):
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.kind == "bin":
            stack.extend((e.lhs, e.rhs))
        elif e.kind == "load":
            yield e


def _target(stmt) -> str:
    return stmt.array if isinstance(stmt, StoreStmt) else stmt.out_array


def _size_for(nests: List[NestSpec]) -> int:
    """Array size covering every statically reachable affine subscript."""
    hi = 1
    for nest in nests:
        bounds = {lp.iv: lp.bound for lp in nest.loops}
        for stmt in nest.stmts:
            store = (stmt.subscript if isinstance(stmt, StoreStmt)
                     else stmt.out_subscript)
            subs = [store] + [e.subscript for e in _loads(stmt.expr)]
            for sub in subs:
                reach = sub.affine.const + sum(
                    c * (bounds[iv] - 1) for iv, c in sub.affine.coeffs.items())
                hi = max(hi, reach + sub.offset)
    return hi + 2


def fuzz_spec(seed: int, index: int) -> KernelSpec:
    """One fuzz_stream kernel.

    The index picks the shape (``FUZZ_SHAPES[index % 4]``) and the loop
    depth (1 or 2, alternating every four kernels); the seed picks
    everything else.
    """
    rng = _rng(seed, 3, index)
    shape = FUZZ_SHAPES[index % len(FUZZ_SHAPES)]
    depth = 1 + (index // len(FUZZ_SHAPES)) % 2
    arrays = ["a0", "a1", "a2"]
    if shape == "rmw":
        nests = [_rmw(rng, "p", depth, arrays)]
    elif shape == "recurrence":
        nests = [_recurrence(rng, "p", depth, arrays)]
    elif shape == "same_array":
        nests = [_same_array(rng, "p", depth, arrays)]
    else:
        nests = [_rmw(rng, "p", depth, arrays), _rmw(rng, "q", depth, arrays)]
    size = _size_for(nests)
    specs: Dict[str, ArraySpec] = {
        name: ArraySpec(size=size, init_seed=1 + rng.randrange(1 << 16),
                        lo=0, hi=9)
        for name in arrays
    }
    specs["idx"] = ArraySpec(size=size, init_seed=1 + rng.randrange(1 << 16),
                             lo=0, hi=size - 1)
    spec = KernelSpec(name=f"bench_s{seed}_k{index}", arrays=specs,
                      nests=nests)
    validate_spec(spec)
    return spec


def is_same_array_multi_statement(spec: KernelSpec) -> bool:
    """Some body has one statement reading an array another one writes."""
    return any(
        other is not first
        and any(e.array == _target(first) for e in _loads(other.expr))
        for nest in spec.nests
        for first in nest.stmts
        for other in nest.stmts
    )
