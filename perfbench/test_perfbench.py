"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _cli_op(experiment: str, args: list, samples: int, seed: int = 0) -> dict:
    return {"kind": "cli", "experiment": experiment, "samples": samples, "seed": seed,
            "argv": ["verify", experiment, *args, "--samples", str(samples),
                     "--seed", str(seed)]}


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name, run in result["workloads"].items():
        assert run["attempted"] == 2 * len(workloads.WORKLOADS[name]["ops"])
        assert per_layer <= set(run["metrics"]), name
    # two oracle ops, each with three configs and two methods
    assert result["workloads"]["endpoints"]["metrics"]["oracle.exact_distribution.calls"] == 12


def test_nan_statistic_counts_as_failed_op():
    # one sample gives NaN variances; the verdict must not read as a pass
    rec = worker.run_op(_cli_op("scaling", ["--d", "2", "--p", "0.5", "--n", "1000"], 1),
                        None)
    assert rec["failed"]


def test_escaped_exception_counts_as_failed_op():
    rec = worker.run_op(_cli_op("moment4", ["--p", "0.5", "--n", "10"], 0), None)
    assert rec["failed"]


def test_consistent_rejection_is_not_a_failure():
    op = _cli_op("critical", [], 100)
    report = {"statistic": 2.0, "threshold": 1.0, "rejected": True,
              "config": {"seed": 0, "samples": 100}, "details": {}}
    assert checks.check_cli_output(op, 1, json.dumps(report)) is False
    with pytest.raises(checks.OpFailure):
        checks.check_cli_output(op, 0, json.dumps(report))
    with pytest.raises(checks.OpFailure):
        checks.check_cli_output(op, 0, json.dumps({**report, "rejected": False}))
    with pytest.raises(checks.OpFailure):
        checks.check_cli_output(op, 2, "")


def test_oracle_check_passes_both_samplers_and_catches_a_wrong_law(monkeypatch):
    pvalues = checks.oracle_law_check(workloads.CONSTANT_05, 20_000, 1)
    assert set(pvalues) == {f"d{d}_n{n}_{m}" for d, n in workloads.ORACLE_CONFIGS
                            for m in checks.METHODS}

    from turnwalk import Constant, walk
    right = walk.sample_positions

    def wrong(d, schedule, n, samples, rng, **kw):
        return right(d, Constant(0.6), n, samples, rng, **kw)

    monkeypatch.setattr(walk, "sample_positions", wrong)
    with pytest.raises(checks.OpFailure):
        checks.oracle_law_check(workloads.CONSTANT_05, 20_000, 1)


def test_fails_without_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "endpoints",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
