"""One workload process: import turnwalk, then run the workload's op list in passes.

Started by ``run.py`` with BLAS thread pools pinned to 1.  The process first
does the set-up a ``turnwalk`` user pays (import numpy, scipy and turnwalk,
build the CLI parser) and reports the clock reading when it is done; with
``--setup-only`` it stops there.  It then runs passes over the op list, one
op after another in this thread (a closed loop with one client), until the
next pass would end after ``--seconds``.  With ``--trace 1`` passes alternate
untraced and traced, so the traced per-layer numbers and the untraced wall
time come from the same process.

The last line of stdout is a JSON object with the set-up clock reading, op
counts, problems found and raw metrics.  The full record (machine
fingerprint, ops, pass times, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, ops, stated_size

ROOT = Path(__file__).resolve().parent.parent
WALK_LAYERS = ("walk.sample_positions", "walk.sample_visit_stats")


def setup() -> float:
    """Import turnwalk from this checkout and build its parser; returns the clock."""
    sys.path.insert(0, str(ROOT / "src"))
    import turnwalk.cli
    if Path(turnwalk.__file__).resolve().parent != ROOT / "src" / "turnwalk":
        raise SystemExit(f"turnwalk imported from {turnwalk.__file__}, not this checkout")
    turnwalk.cli._build_parser()
    return time.perf_counter()


def run_op(op: dict, tracer) -> dict:
    """Run one op; the record says whether it failed and whether it rejected."""
    import checks
    from turnwalk import cli

    rec = {"op": op, "failed": False, "rejected": False, "reason": None, "out_bytes": 0}
    start = time.perf_counter()
    try:
        if op["kind"] == "oracle":
            law_check = checks.oracle_law_check
            if tracer is not None:
                law_check = tracer.wrap("bench.oracle_check", law_check)
            rec["pvalues"] = law_check(op["schedule"], op["samples"], op["seed"])
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(op["argv"])
            rec.update(code=code, stderr=err.getvalue()[-2000:],
                       out_bytes=len(out.getvalue().encode()))
            rec["rejected"] = not checks.check_cli_output(op, code, out.getvalue())
    except checks.OpFailure as exc:
        rec.update(failed=True, reason=str(exc))
    except Exception:  # an escaped exception is a failed op; keep running
        rec.update(failed=True, reason=traceback.format_exc(limit=8))
    rec["seconds"] = time.perf_counter() - start
    return rec


def layer_metrics(spans: list, lo: int, hi: int, wall: float, records: list) -> tuple:
    """Per-layer metrics of one traced pass, and the completeness problems found."""
    from tracer import layer_totals

    totals = layer_totals(spans, lo, hi)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    m = {}
    for layer in WALK_LAYERS:
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
        m[f"{layer}.path_steps"] = get(layer, "work")
    walk_self = sum(m[f"{layer}.self_s"] for layer in WALK_LAYERS)
    walk_steps = sum(m[f"{layer}.path_steps"] for layer in WALK_LAYERS)
    m["walk.path_steps_per_s"] = walk_steps / walk_self if walk_self > 0 else 0.0
    elems = get("schedule.prefix_probs", "work")
    m.update({"schedule.prefix_probs.calls": get("schedule.prefix_probs", "calls"),
              "schedule.prefix_probs.self_s": get("schedule.prefix_probs", "self_s"),
              "schedule.prefix_probs.elems": elems,
              "schedule.prefix_probs.mb": elems * 8 / 1e6})
    m.update({"verify.calls": get("verify", "calls"),
              "verify.self_s": get("verify", "self_s"),
              "verify.rejects": sum(r["rejected"] for r in records),
              "verify.stats.calls": get("verify.stats", "calls"),
              "verify.stats.self_s": get("verify.stats", "self_s"),
              "verify.stats.values": get("verify.stats", "work")})
    for layer in ("zigzag", "analytics"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    m.update({"oracle.exact_distribution.calls": get("oracle.exact_distribution", "calls"),
              "oracle.exact_distribution.self_s": get("oracle.exact_distribution", "self_s"),
              "oracle.exact_distribution.cells": get("oracle.exact_distribution", "work"),
              "cli.self_s": get("cli", "self_s"),
              "cli.out_bytes": sum(r["out_bytes"] for r in records),
              "other.self_s": get("other", "self_s")})

    roots = [s for s in spans[lo:hi] if s[3] < 0]
    unspanned = wall - sum(end - start for _n, start, end, *_ in roots)
    m["trace.wall_s"] = wall
    m["trace.unspanned_s"] = unspanned

    problems = []
    accounted = sum(t["self_s"] for t in totals.values()) + unspanned
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"layer self times + unspanned = {accounted}, traced wall = {wall}")
    negative = [layer for layer, t in totals.items() if t["self_s"] < -1e-9]
    if negative or unspanned < -1e-9:
        problems.append(f"negative self time in {negative or ['unspanned']}")
    return m, problems


def fingerprint() -> dict:
    import numpy
    import scipy
    from run import PINNED_ENV

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "blas_pins": {k: os.environ.get(k) for k in PINNED_ENV}}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sample counts, one pass per mode")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ready = setup()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_ops = ops(args.workload, args.seed, len(passes), args.smoke)
        if traced:
            tracer.install()
            lo = len(tracer.spans)
        start = time.perf_counter()
        records = []
        for i, op in enumerate(pass_ops):
            if traced:
                tracer.op_id = f"{len(passes)}:{i}"
            records.append(run_op(op, tracer if traced else None))
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "wall_s": wall, "records": records,
                       "spans": (lo, len(tracer.spans)) if traced else None})
        done = len(passes) >= (2 if args.trace else 1)
        typical = statistics.median(p["wall_s"] for p in passes)
        if done and (args.smoke or time.perf_counter() + typical > deadline):
            break

    records = [r for p in passes for r in p["records"]]
    failed = sum(r["failed"] for r in records)
    problems = [r["reason"] for r in records if r["failed"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    metrics = {"wall_s": statistics.median(plain),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if args.trace:
        per_pass = []
        for p in passes:
            if p["traced"]:
                m, found = layer_metrics(tracer.spans, *p["spans"], p["wall_s"], p["records"])
                per_pass.append(m)
                problems += found
        metrics.update({k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]})
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "why": WORKLOADS[args.workload]["why"],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "stated_input_size": stated_size(args.workload),
              "fingerprint": fingerprint(), "metrics": metrics, "problems": problems,
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
              "spans": tracer.spans if tracer else []}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, default=str))
    print(json.dumps({"ready": ready, "attempted": len(records), "failed": failed,
                      "problems": problems, "metrics": metrics}))


if __name__ == "__main__":
    main()
