"""turnwalk benchmark: time-to-verdict of fixed `turnwalk verify` op lists.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each workload runs in one worker process
(``worker.py``) with BLAS pools pinned to 1.  Before it, the set-up is timed
in separate processes; ``setup_s`` is the median over those and the
worker's own set-up.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  ``correct`` is false when any op fails its output check or the
oracle law check, or when the traced run's layer times do not add up.

``--smoke`` runs every workload once at reduced sample counts, traced and
untraced, and exits 0 only if all checks pass.

The benchmark exits with status 1 and prints no result when the checkout
has no turnwalk sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
PINNED_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _worker(args: list, timeout: float) -> tuple:
    """Run worker.py; returns (its last JSON line, seconds from spawn to ready)."""
    env = {**os.environ, **PINNED_ENV}
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout), check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def measure(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """One benchmark run: set-up probes, then the workload process."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = [_worker(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--setup-only"], deadline - time.perf_counter())[1]
              for _ in range(SETUP_PROBES)]
    result, setup = _worker(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)],
                            deadline - time.perf_counter())
    raw = {**result["metrics"], "setup_s": statistics.median(setups + [setup])}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in raw]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": result["failed"] == 0 and not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def smoke(seed: int) -> dict:
    """Every workload at reduced size, one untraced and one traced pass."""
    out = {}
    for workload in WORKLOADS:
        result, _ = _worker(["--workload", workload, "--seed", str(seed), "--seconds",
                             "0", "--trace", "1", "--smoke"], 600.0)
        out[workload] = result
    return {"correct": all(r["failed"] == 0 and not r["problems"] for r in out.values()),
            "attempted": sum(r["attempted"] for r in out.values()),
            "failed": sum(r["failed"] for r in out.values()),
            "workloads": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (ROOT / "src" / "turnwalk" / "__init__.py").is_file():
        print(f"error: no turnwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.smoke:
            result = smoke(args.seed)
        else:
            seconds = spec["run_seconds"] if args.seconds is None else args.seconds
            result = measure(args.workload, args.seed, seconds, args.trace, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
