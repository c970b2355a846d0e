"""run_batch edge cases: degenerate batches and lazy inputs.

The batch API is the entry point of the ROADMAP's simulation-service
story, so the degenerate shapes a service actually receives — empty
request, single lane, every lane identical, a generator instead of a
list — must all behave exactly like the obvious sequential loop.
tests/dataflow/test_codegen.py pins the one-compile-per-structure plan
cache; this module pins the boundaries.
"""

import pytest

from repro.eval.configs import DYNAMATIC
from repro.eval.runner import run_batch, run_kernel
from repro.kernels import get_kernel

ENGINES = ("compiled",)


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_batch(engine):
    assert run_batch([], DYNAMATIC, engine=engine) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_single_kernel_batch(engine):
    kernel = get_kernel("vadd", n=6)
    (res,) = run_batch([kernel], DYNAMATIC, engine=engine)
    base = run_kernel(get_kernel("vadd", n=6), DYNAMATIC,
                      engine="compiled")
    assert (res.cycles, res.transfers, res.verified, res.memory) == (
        base.cycles, base.transfers, base.verified, base.memory,
    )


def test_all_duplicate_lanes_sequential():
    """Sixteen identical requests: sixteen equal results, each owning
    its memory dict."""
    kernels = [get_kernel("vadd", n=9) for _ in range(16)]
    batch = run_batch(kernels, DYNAMATIC)
    assert len(batch) == 16
    base = run_kernel(get_kernel("vadd", n=9), DYNAMATIC,
                      engine="compiled")
    for res in batch:
        assert (res.cycles, res.memory) == (base.cycles, base.memory)
    assert batch[0].memory is not batch[15].memory


@pytest.mark.parametrize("engine", ENGINES)
def test_generator_input_accepted(engine):
    """A generator expression works like a list."""
    sizes = [5, 7, 5, 11]
    batch = run_batch(
        (get_kernel("vadd", n=n) for n in sizes),
        DYNAMATIC, engine=engine,
    )
    assert [r.kernel for r in batch] == ["vadd"] * len(sizes)
    for res, n in zip(batch, sizes):
        base = run_kernel(get_kernel("vadd", n=n), DYNAMATIC,
                          engine="compiled")
        assert (res.cycles, res.memory) == (base.cycles, base.memory)
