"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]
    python3 perfbench/spread.py --workload NAME --pin 1,2

Run from the repository root.  The first form prints, per metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``),
``n`` and the spread ``(q3 - q1) / median`` beside the metric's bound
from BENCHMARK.json; ``--json FILE`` also saves every raw value.

``--pin A,B`` runs the traced benchmark twice on seed A and once on
seed B and checks the deterministic metrics (simulated cycles, paper
accuracy, every ``prevv.*``, ``lsq.*``, ``area.*`` count and the
plan-cache counts): identical across the two seed-A runs, and the same
metric names under seed B.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: per-layer metrics that must repeat exactly for one seed
DETERMINISTIC_PREFIXES = ("dataflow.cycles.", "eval.table2", "eval.prevv",
                          "prevv.", "lsq.", "area.luts.",
                          "area.clock_period_ns.", "codegen.plan_hits",
                          "codegen.plan_misses", "compile.components",
                          "compile.channels", "analysis.errors",
                          "analysis.warnings", "analysis.infos")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(workload, seeds, seconds, trace, save):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(fh)["end_to_end"]}
    values = {}
    for seed in seeds:
        result = run_once(workload, seed, seconds, trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}",
              flush=True)
    print(f"{'metric':<36}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}"
          f"{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:<36}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(vals):>4}"
              f"{spread:>9.4f}{bound if bound is not None else '':>7}{flag}")
    if save:
        with open(save, "w") as fh:
            json.dump({"workload": workload, "seeds": seeds,
                       "values": values}, fh, indent=1)


def pin(workload, seeds, seconds):
    a, b = seeds[:2]
    first, again, other = (run_once(workload, s, seconds, 1)
                           for s in (a, a, b))
    fixed = [n for n in first["metrics"]
             if n.startswith(DETERMINISTIC_PREFIXES)]
    moved = [n for n in fixed if first["metrics"][n] != again["metrics"][n]]
    same_names = list(first["metrics"]) == list(other["metrics"])
    changed = [n for n in fixed if first["metrics"][n] != other["metrics"][n]]
    print(f"{len(fixed)} deterministic metrics; seed {a} twice: "
          f"{len(moved)} differ {moved}")
    print(f"seed {b}: same metric names: {same_names}; "
          f"{len(changed)} deterministic values differ from seed {a}")
    return 0 if not moved and same_names else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="save raw values to this file")
    parser.add_argument("--pin", help="seeds A,B: check determinism")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.pin:
        return pin(args.workload, parse_seeds(args.pin), args.seconds)
    summarise(args.workload, parse_seeds(args.seeds), args.seconds,
              args.trace, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
