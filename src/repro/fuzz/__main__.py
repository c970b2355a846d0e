"""``python -m repro.fuzz`` — the differential fuzzing CLI.

Typical runs::

    # 50 kernels from seed 9, all engines x 4 configs, JSONL report
    python -m repro.fuzz --seed 9 --count 50 --out fuzz_report.jsonl

    # CI smoke: stop after 60 s, shrink any failure into the corpus
    python -m repro.fuzz --seed 9 --count 200 --time-budget 60 --shrink

    # prove the harness has teeth: sabotage the arbiter, watch it burn
    python -m repro.fuzz --seed 9 --count 20 --sabotage kill-index-check

Exit status: 0 when every generated kernel agreed on every invariant,
1 when any divergence was found, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from ..dataflow import ENGINES
from .corpus import save_spec
from .generator import generate_spec
from .harness import (
    DEFAULT_CONFIG_NAMES,
    DEFAULT_ENGINES,
    check_spec,
    configs_from_names,
    sabotage_kill_index_check,
)
from .shrink import shrink_spec
from .spec import instruction_count

_SABOTAGES = {
    "none": None,
    "kill-index-check": sabotage_kill_index_check,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="random-kernel differential fuzzing of the engines",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (default 0)")
    p.add_argument("--count", type=int, default=20,
                   help="number of kernels to generate (default 20)")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="stop starting new kernels after SEC seconds")
    p.add_argument("--engines", default=",".join(DEFAULT_ENGINES),
                   help="comma-separated engines to check against the"
                        f" reference (default {','.join(DEFAULT_ENGINES)})")
    p.add_argument("--configs", default=",".join(DEFAULT_CONFIG_NAMES),
                   help="comma-separated config names; prevv<N> selects a"
                        f" depth (default {','.join(DEFAULT_CONFIG_NAMES)})")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug the first failing kernel and save the"
                        " minimized spec to the corpus")
    p.add_argument("--corpus-dir", default=None,
                   help="corpus directory (default tests/fuzz/corpus)")
    p.add_argument("--out", default=None, metavar="JSONL",
                   help="write one JSON line per kernel to this file")
    p.add_argument("--max-cycles", type=int, default=400_000,
                   help="per-simulation cycle cap (default 400000)")
    p.add_argument("--no-perf", action="store_true",
                   help="skip the PVPerf static-bound checks")
    p.add_argument("--sabotage", choices=sorted(_SABOTAGES),
                   default="none",
                   help="deliberately break the PreVV arbiter to prove the"
                        " oracle catches it (expect divergences)")
    return p


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        configs = configs_from_names(
            [c for c in args.configs.split(",") if c]
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engines = tuple(e for e in args.engines.split(",") if e)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        print(f"error: unknown engine {unknown[0]!r}; choose from "
              f"{', '.join(ENGINES)}", file=sys.stderr)
        return 2
    mutate = _SABOTAGES[args.sabotage]

    out = open(args.out, "w") if args.out else None
    t0 = time.monotonic()
    total = failed = 0
    first_failure = None
    try:
        for index in range(args.count):
            elapsed = time.monotonic() - t0
            if args.time_budget is not None and elapsed > args.time_budget:
                print(f"time budget exhausted after {total} kernels"
                      f" ({elapsed:.1f}s)")
                break
            spec = generate_spec(args.seed, index)
            started = time.monotonic()
            report = check_spec(
                spec, configs=configs, engines=engines,
                max_cycles=args.max_cycles, mutate=mutate,
                perf=not args.no_perf,
            )
            seconds = time.monotonic() - started
            total += 1
            if not report.ok:
                failed += 1
                if first_failure is None:
                    first_failure = spec
            line = {
                "seed": args.seed,
                "index": index,
                "kernel": spec.name,
                "instructions": instruction_count(spec),
                "configs": [c.name for c in configs],
                "engines": list(engines),
                "checks": report.checks,
                "ok": report.ok,
                "divergences": [d.to_dict() for d in report.divergences],
                "seconds": round(seconds, 3),
            }
            if out:
                out.write(json.dumps(line, sort_keys=True) + "\n")
                out.flush()
            status = "ok" if report.ok else (
                f"FAIL ({len(report.divergences)} divergences)"
            )
            print(f"[{index + 1}/{args.count}] {spec.name}: {status}"
                  f" ({report.checks} checks, {seconds:.2f}s)")
            if not report.ok:
                for d in report.divergences[:4]:
                    print(f"    {d.config}/{d.engine} {d.invariant}:"
                          f" {d.detail}")
    finally:
        if out:
            out.close()

    if first_failure is not None and args.shrink:
        print(f"shrinking {first_failure.name} ...")

        def still_fails(candidate):
            return not check_spec(
                candidate, configs=configs, engines=engines,
                max_cycles=args.max_cycles, mutate=mutate,
                perf=not args.no_perf,
            ).ok

        shrunk = shrink_spec(first_failure, still_fails)
        shrunk.spec.name = f"{first_failure.name}_min"
        # A sabotage-induced failure means the kernel itself is clean
        # (it guards the oracle's teeth); an organic failure is an open
        # finding until someone fixes the model and flips the status.
        path = save_spec(
            shrunk.spec,
            directory=args.corpus_dir,
            status="guard" if mutate is not None else "open",
            reason=f"shrunk from {first_failure.name}"
                   f" ({shrunk.original_instructions} ->"
                   f" {shrunk.final_instructions} instructions,"
                   f" {shrunk.steps} steps)",
            invariant="; ".join(sorted({
                d.invariant
                for d in check_spec(
                    shrunk.spec, configs=configs, engines=engines,
                    max_cycles=args.max_cycles, mutate=mutate,
                    perf=not args.no_perf,
                ).divergences
            })) or "unknown",
            provenance={
                "seed": args.seed,
                "sabotage": args.sabotage,
                "trail": shrunk.trail,
            },
        )
        print(f"minimized to {shrunk.final_instructions} instructions"
              f" -> {path}")

    elapsed = time.monotonic() - t0
    print(f"{total} kernels, {failed} failing, {elapsed:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
