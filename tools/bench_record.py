"""Record a BENCH_<n>.json: the benchmark run on two checkouts, alternating.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_9.json \
        --seed N [--note TEXT]

Each pair runs ``python3 perfbench/run.py --workload W --seed N --trace 0``
in the parent and in the change checkout, with seeds N..N+9, one per pair,
and alternates which side runs first; every workload of ``BENCHMARK.json``
gets 10 pairs.  Per workload and side the file holds the median and
quartiles of each end-to-end metric and the raw runs, and how many pairs
the change won per metric (ties count for neither side).  One traced
run (``--trace 1``) per workload and side gives the layer metrics.  The file
also holds the machine fingerprint, the ``src/`` line count of both sides
and the wall time of the tier-1 suite in the change checkout.  Both
checkouts must be whole (``git archive`` of a commit), as tier-1 reads the
README.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """The result line of one benchmark run in checkout ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def machine() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - start, 1),
            "summary": proc.stdout.strip().splitlines()[-1], "exit": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [args.seed + i for i in range(PAIRS)]

    workloads, traced = {}, {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            # alternate which side runs first, so drift favours neither
            for side in list(sides)[::1 if i % 2 == 0 else -1]:
                runs[side].append(bench(sides[side], w, seed, 0))
                print(w, seed, side, runs[side][-1]["metrics"], file=sys.stderr)
        values = {side: {m: [r["metrics"][m]["value"] for r in rs] for m in metrics}
                  for side, rs in runs.items()}
        won = {m: sum(c < p if better == "lower" else c > p
                      for p, c in zip(values["parent"][m], values["change"][m]))
               for m, better in metrics.items()}
        workloads[w] = {
            **{side: {m: summary(v) for m, v in vals.items()}
               for side, vals in values.items()},
            "change_better_pairs": won,
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs)}
        traced[w] = {side: {m: v["value"] for m, v in
                            bench(root, w, seeds[0], 1)["metrics"].items()}
                     for side, root in sides.items()}

    record = {"note": args.note, "machine": machine(),
              "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
              "seeds": seeds, "workloads": workloads, "traced": traced,
              "src_lines": {side: src_lines(root) for side, root in sides.items()},
              "tier1": tier1(sides["change"])}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
