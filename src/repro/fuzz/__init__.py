"""PVFuzz: random kernel generation + differential fuzzing of the engines.

The package turns the repo's equivalence/soundness machinery (the
bit-identical simulation engines, the PVSan sequential-consistency
oracle and the PVSan/PVPerf static provers) into a bug-finding loop:

* :mod:`repro.fuzz.spec` — a serializable grammar of fully-nested loop
  kernels (the shape :class:`repro.kernels.Kernel` requires) and its
  translation to :mod:`repro.ir` via the existing builders;
* :mod:`repro.fuzz.generator` — seeded random sampling of that grammar:
  loop depth/bounds, affine and indirect subscripts, loop-carried
  recurrences, conditional stores and reductions;
* :mod:`repro.fuzz.harness` — the differential check: every engine and
  config against the seed :class:`~repro.dataflow.Simulator`, the
  interpreter golden memory, the SC oracle, and the static depth/II
  bounds;
* :mod:`repro.fuzz.shrink` — delta debugging of a failing spec down to a
  minimal reproducer;
* :mod:`repro.fuzz.corpus` — the committed regression corpus under
  ``tests/fuzz/corpus/`` (shrunk failures become tier-1 tests forever);
* ``python -m repro.fuzz`` — the CLI entry point with JSONL reporting.
"""

from .spec import (
    Affine,
    ArraySpec,
    Guard,
    KernelSpec,
    LoopSpec,
    NestSpec,
    ReduceStmt,
    StoreStmt,
    instruction_count,
    spec_from_dict,
    spec_to_kernel,
    validate_spec,
)
from .generator import generate_spec
from .harness import (
    DEFAULT_ENGINES,
    Divergence,
    KernelReport,
    check_kernel,
    check_spec,
    configs_from_names,
    sabotage_kill_index_check,
)
from .shrink import shrink_spec
from .corpus import (
    CorpusEntry,
    corpus_entries,
    default_corpus_dir,
    load_entry,
    load_spec,
    save_spec,
)

__all__ = [
    "Affine",
    "ArraySpec",
    "Guard",
    "KernelSpec",
    "LoopSpec",
    "NestSpec",
    "ReduceStmt",
    "StoreStmt",
    "instruction_count",
    "spec_from_dict",
    "spec_to_kernel",
    "validate_spec",
    "generate_spec",
    "DEFAULT_ENGINES",
    "Divergence",
    "KernelReport",
    "check_kernel",
    "check_spec",
    "configs_from_names",
    "sabotage_kill_index_check",
    "shrink_spec",
    "CorpusEntry",
    "corpus_entries",
    "default_corpus_dir",
    "load_entry",
    "load_spec",
    "save_spec",
]
