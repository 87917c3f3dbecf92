"""The benchmark's workloads: fixed op lists run in one process, one after another.

Each op is either a ``turnwalk`` CLI argv (run in-process through
``turnwalk.cli.run``) or the benchmark's own oracle law check.  Schedules,
dimensions and horizons follow the acceptance criteria they come from; only
sample counts are sized so that one pass of a workload takes about ten
seconds on a 2-core machine, which lets a run repeat the pass and report
medians.

There are two workloads, one per walk engine entry point, so that each run
can be long: on a shared 2-core host the speed drifts by 10-20% over tens
of seconds, and only long runs of many passes give medians that repeat.
Each layer's mechanism runs on one workload and is bypassed on the other.

``ops(name, seed, pass_index, smoke)`` expands a workload into concrete ops.
Every op's seed is derived from the workload seed and the pass index, so the
same workload seed gives the same inputs, and no pass repeats another's
inputs (a cache keyed on argv cannot make later passes cheaper).
"""

from __future__ import annotations

import json

CRITICAL_1 = json.dumps({"kind": "Critical", "a": 1})
CRITICAL_1_N0_2 = json.dumps({"kind": "Critical", "a": 1, "n0": 2})
CONSTANT_05 = json.dumps({"kind": "Constant", "p": 0.5})
POWER_DECAY = json.dumps({"kind": "PowerDecay", "c": 1, "gamma": 0.7})

# (d, n) of the oracle law check's sub-tests; each runs with both methods
ORACLE_CONFIGS = ((1, 10), (2, 8), (3, 6))

# Each spec: (argv without --samples/--seed, samples, horizon).  The horizon
# is the walk length one sample covers; samples * horizon is the stated
# input size.  An ("oracle", schedule_json) spec is the law check, with
# samples per sub-test.
WORKLOADS = {
    "endpoints": {
        "why": "endpoint laws through walk.sample_positions: constant-rate verdicts "
               "(per-step engine; volkov's matrix sets the memory peak) and "
               "critical-window verdicts (event engine, zigzag, KS, poisson_gof)",
        "ops": [
            # c04, c05, c09, c11: constant rates, per-step engine
            (["verify", "tail", "--d", "2", "--p", "0.9", "--n", "10000",
              "--a", "20"], 1_000, 10_000),
            (["verify", "scaling", "--d", "2", "--p", "0.5", "--n", "10000"],
             10_000, 10_000),
            (["verify", "moment4", "--p", "0.5", "--n", "1000"], 10_000, 1_000),
            (["verify", "volkov", "--p", "0.55", "--i", "5", "--j", "6"],
             4_096, 8_192),
            (["oracle", CONSTANT_05], 100_000, None),
            # c03, c06: critical schedules, about ln n runs per path
            *[(["verify", "critical", "--d", str(d), "--a", "1", "--delta", "0.1",
                "--n", "100000"], 100_000, 100_000) for d in (1, 2, 3)],
            (["verify", "covariance", "--schedule", CRITICAL_1_N0_2,
              "--i", "20", "--j", "25"], 1_000_000, 25),
            (["oracle", CRITICAL_1_N0_2], 100_000, None),
        ],
    },
    "visits": {
        "why": "origin visits through walk.sample_visit_stats: many runs on few "
               "paths, few runs on many paths, and critical horizons to 10^7 "
               "where the O(n) schedule and hazard tables dominate",
        "ops": [
            # c10: few paths with many runs (Constant), many with few (PowerDecay)
            (["verify", "recurrence", "--d", "2", "--schedule", CONSTANT_05,
              "--horizons", "1000,10000,100000"], 200, 100_000),
            (["verify", "recurrence", "--d", "2", "--schedule", POWER_DECAY,
              "--horizons", "1000,10000,100000"], 20_000, 100_000),
            # critical recurrence to 10^7: about ln n runs per path
            *[(["verify", "recurrence", "--d", str(d), "--schedule", CRITICAL_1,
                "--horizons", "100000,1000000,10000000"], 1_000, 10_000_000)
              for d in (1, 2)],
        ],
    },
}

SMOKE_DIVISOR = 20
SMOKE_MIN_SAMPLES = 10


def oracle_horizon() -> int:
    """Walk steps one oracle-check sample covers, over all sub-tests."""
    return 2 * sum(n for _d, n in ORACLE_CONFIGS)


def stated_size(name: str) -> int:
    """Sum of samples x horizon over one pass of the workload."""
    return sum(samples * (horizon if horizon is not None else oracle_horizon())
               for _argv, samples, horizon in WORKLOADS[name]["ops"])


def ops(name: str, seed: int, pass_index: int, smoke: bool = False) -> list:
    """Concrete ops of one pass: dicts with kind, argv or schedule, samples, seed."""
    out = []
    for i, (argv, samples, _horizon) in enumerate(WORKLOADS[name]["ops"]):
        if smoke:
            samples = max(SMOKE_MIN_SAMPLES, samples // SMOKE_DIVISOR)
        op_seed = seed * 1_000_000 + pass_index * 1_000 + i
        if argv[0] == "oracle":
            out.append({"kind": "oracle", "schedule": argv[1],
                        "samples": samples, "seed": op_seed})
        else:
            out.append({"kind": "cli", "experiment": argv[1],
                        "argv": argv + ["--samples", str(samples),
                                        "--seed", str(op_seed)],
                        "samples": samples, "seed": op_seed})
    return out
