import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from turnwalk import analytics, cli, verify, walk
from turnwalk.schedule import PowerDecay
from turnwalk.verify import EstimatorResult, VolkovResult

CONST_HALF = '{"kind": "Constant", "p": 0.5}'
CRITICAL_1 = '{"kind": "Critical", "a": 1}'
CRITICAL_1_N0_2 = '{"kind": "Critical", "a": 1, "n0": 2}'
POWER_DECAY = '{"kind": "PowerDecay", "c": 1, "gamma": 0.7}'


def _run(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


# --- moments ---

def test_moments_sgeom(capsys):
    blob = _run_json(capsys, ["moments", "--op", "sgeom", "--p", "0.5", "--m", "2"])
    assert blob["op"] == "sgeom"
    assert blob["value"] == 6.0
    assert blob["config"]["p"] == 0.5


def test_moments_b_from_a(capsys):
    blob = _run_json(capsys, ["moments", "--op", "b-from-a", "--a", "1", "--d", "2"])
    assert blob["value"] == 0.75


def test_moments_ld_bound(capsys):
    blob = _run_json(capsys, ["moments", "--op", "ld-bound", "--p", "0.9",
                              "--a", "20", "--d", "2"])
    assert blob["value"] == pytest.approx(0.20232, abs=1e-5)


def test_moments_fourth_moment_modes(capsys):
    exact = _run_json(capsys, ["moments", "--op", "fourth-moment",
                               "--p", "0.5", "--n", "40"])
    asym = _run_json(capsys, ["moments", "--op", "fourth-moment", "--p", "0.5",
                              "--n", "40", "--mode", "asymptotic"])
    assert exact["value"] == pytest.approx(analytics.fourth_moment_L(0.5, 40))
    assert asym["value"] == pytest.approx(
        analytics.fourth_moment_L(0.5, 40, mode="asymptotic"))


def test_moments_correlation(capsys):
    blob = _run_json(capsys, ["moments", "--op", "correlation", "--schedule",
                              CONST_HALF, "--i", "2", "--j", "4"])
    assert blob["value"] == pytest.approx(0.25)


def test_moments_gambler_gap_handling(capsys):
    inf = _run_json(capsys, ["moments", "--op", "gambler", "--p", "0.7"])
    assert inf["value"]["single"] == pytest.approx(0.4)
    assert inf["value"]["joint"] == pytest.approx(0.16)
    assert inf["config"]["gap"] == "inf"
    g5 = _run_json(capsys, ["moments", "--op", "gambler", "--p", "0.7",
                            "--gap", "5"])
    assert g5["value"]["joint"] == pytest.approx(0.16 / (1 - (3 / 7) ** 5))


def test_moments_lyapunov(capsys):
    blob = _run_json(capsys, ["moments", "--op", "lyapunov", "--p", "0.5",
                              "--a", "43", "--position", "200,0"])
    expect = analytics.lyapunov_drift(analytics.LyapunovConfig(0.5, 43.0), (200, 0))
    assert blob["value"] == pytest.approx(expect, rel=1e-12)
    assert blob["value"] < 0


def test_moments_arith_count(capsys):
    blob = _run_json(capsys, ["moments", "--op", "arith-count", "--s", "0.25",
                              "--s0", "0", "--M", "4"])
    assert blob["value"] == 2


def test_moments_cosine_bound(capsys):
    blob = _run_json(capsys, ["moments", "--op", "cosine-bound", "--q", "1.0",
                              "--a", "0.5", "--s", str(math.pi / 2)])
    assert blob["value"]["h"] == pytest.approx(0.0, abs=1e-15)
    assert blob["value"]["bound"] == pytest.approx(0.5)


@pytest.mark.parametrize("args", [
    ["--op", "lyapunov", "--p", "0.5", "--a", "43", "--position", "inf,3"],
    ["--op", "lyapunov", "--p", "0.5", "--a", "43", "--position", "nan,3"],
    ["--op", "cosine-bound", "--q", "0.5,nan", "--a", "0.5", "--s", "1"],
    ["--op", "cosine-bound", "--q", "1.0", "--a", "nan", "--s", "1"],
    ["--op", "arith-count", "--s", "0.25", "--s0", "nan", "--M", "4"],
    ["--op", "arith-count", "--s", "0.25", "--s0", "inf", "--M", "4"],
])
def test_moments_non_finite_input_exit_2(capsys, args):
    # these used to crash (exit 3) or print a value (null, 0) and exit 0
    rc, out, err = _run(capsys, ["moments", *args])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("position", ["1e200,0", "1e154,0"])
def test_lyapunov_huge_position_exit_2(capsys, position):
    # these used to crash in `** 2` (exit 3) and print "value": null (exit 0)
    rc, out, err = _run(capsys, ["moments", "--op", "lyapunov", "--p", "0.5", "--a", "43",
                                 "--position", position])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "position" in err


@pytest.mark.parametrize("p", ["1e-17", "1e-10"])
def test_lyapunov_tiny_p_exit_2_without_allocating(capsys, p):
    # 1e-17 used to crash (1 - p rounds to 1, exit 3); at 1e-10 the sum would
    # need about 2.8e11 magnitudes, terabytes if allocated
    tracemalloc.start()
    try:
        rc, out, err = _run(capsys, ["moments", "--op", "lyapunov", "--p", p, "--a", "43",
                                     "--position", "200,0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: p = {p} is too small")
    assert peak < 1 << 20


@pytest.mark.parametrize("s0", ["1e300", "-1e300"])
def test_arith_count_huge_s0(capsys, s0):
    # an integer s0 leaves frac(k/4 + s0) = frac(k/4): k = 2, 4 count, 1, 3 do not
    blob = _run_json(capsys, ["moments", "--op", "arith-count", "--s", "0.25",
                              f"--s0={s0}", "--M", "4"])
    assert blob["value"] == 2


def test_moments_missing_flags_exit_2(capsys):
    rc, _, err = _run(capsys, ["moments", "--op", "sgeom", "--p", "0.5"])
    assert rc == 2
    assert "error:" in err and "--m" in err


# --- simulate ---

def test_simulate_zero_steps_header_only(capsys):
    rc, out, _ = _run(capsys, ["simulate", "--d", "2", "--schedule", CONST_HALF,
                               "--n", "0"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert json.loads(lines[0][len("# config "):])["n"] == 0
    assert lines[1] == "k,tau_k,axis,sign"
    assert len(lines) == 2


def test_simulate_repeat_runs_identical(capsys):
    argv = ["simulate", "--d", "2", "--schedule", CONST_HALF, "--n", "50",
            "--seed", "9"]
    rc, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc == rc2 == 0
    assert out1 == out2


def test_simulate_dense_rows(capsys):
    rc, out, _ = _run(capsys, ["simulate", "--d", "2", "--schedule", CONST_HALF,
                               "--n", "10", "--dense"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,x_1,x_2"
    assert lines[2] == "0,0,0"
    assert len(lines) == 2 + 11


def test_simulate_multi_sample_has_path_column(capsys):
    rc, out, _ = _run(capsys, ["simulate", "--d", "1", "--schedule", CONST_HALF,
                               "--n", "20", "--samples", "3",
                               "--sampler", "events"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "path,k,tau_k,axis,sign"
    ids = {line.split(",")[0] for line in lines[2:]}
    assert ids == {"0", "1", "2"}


def test_simulate_out_file_matches_stdout(tmp_path, capsys):
    argv = ["simulate", "--d", "1", "--schedule", CONST_HALF, "--n", "30",
            "--seed", "4"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    target = tmp_path / "run.csv"
    rc = cli.run(argv + ["--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.read_text(encoding="utf-8") == out


def test_simulate_pinned_digest(capsys):
    # --samples 3 output, sparse and dense, hashed per schedule and sampler.
    # The events sampler draws its three paths as one group of the run
    # engine; at a constant rate it places them as geometric gaps.
    digests = {}
    for d, schedule, n in ((2, CONST_HALF, 30), (3, CRITICAL_1_N0_2, 50)):
        for sampler in ("step", "events"):
            h = hashlib.sha256()
            for dense in ([], ["--dense"]):
                rc, out, _ = _run(capsys, ["simulate", "--d", str(d), "--schedule",
                                           schedule, "--n", str(n), "--samples", "3",
                                           "--seed", "6", "--sampler", sampler, *dense])
                assert rc == 0
                h.update(out.encode())
            digests[schedule, sampler] = h.hexdigest()
    assert digests == {
        (CONST_HALF, "step"): "96c316118b3b8b9c5baf6e3082aa3fe26cfeda8b1edeb6397e27dac788b8b7c5",
        (CONST_HALF, "events"): "9a5337090efc2fb587c7c5c8a525353b4fe74e8553e7423f32c834bb190fe9d1",
        (CRITICAL_1_N0_2, "step"): "5f93ea896d7f948d0c6100fe344e32cf43df5d9527cdd5a7c660ff1a176429d0",
        (CRITICAL_1_N0_2, "events"): "6d0af0e25fc9a26bce893fce9e11c91282e004e878b84d8625c2193331c4c083",
    }


def test_simulate_memory_does_not_grow_with_samples(tmp_path):
    # each path is written as it is drawn: three times the paths, the same peak
    def peak(samples):
        tracemalloc.start()
        try:
            rc = cli.run(["simulate", "--d", "2", "--schedule", CONST_HALF,
                          "--n", "1000", "--samples", str(samples),
                          "--sampler", "events", "--out", str(tmp_path / "paths.csv")])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        return top

    assert peak(30) < 1.5 * peak(10)


def test_simulate_events_builds_one_hazard_table(tmp_path, monkeypatch):
    # --sampler events runs the engine once per group of paths, and every
    # group reads the one PowerDecay table that the command built
    built, groups = [], []
    prefix_probs, runs = PowerDecay.prefix_probs, walk._runs

    def counted_table(self, n):
        built.append(n)
        return prefix_probs(self, n)

    def counted_runs(*args, **kwargs):
        groups.append(args[3])
        return runs(*args, **kwargs)

    monkeypatch.setattr(PowerDecay, "prefix_probs", counted_table)
    monkeypatch.setattr(walk, "_runs", counted_runs)
    rc = cli.run(["simulate", "--d", "2", "--schedule", POWER_DECAY, "--n", "1000000",
                  "--samples", "50", "--sampler", "events",
                  "--out", str(tmp_path / "paths.csv")])
    assert rc == 0
    assert sum(groups) == 50 and len(groups) > 1
    assert built == [10 ** 6]


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", "1", "--schedule", CRITICAL_1, "--n", "18014398509481985",
     "--sampler", "events", "--seed", "0"],
    ["verify", "recurrence", "--d", "1", "--schedule", CRITICAL_1,
     "--horizons", "18014398509481985", "--samples", "10"],
])
def test_run_engine_horizon_past_2_53_exits_2(capsys, argv):
    # float64 steps are inexact there, where settling a step never ended
    start = time.perf_counter()
    rc, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "n < 2^53" in err


def test_simulate_rejected_argument_writes_nothing(tmp_path, capsys):
    # the first path is drawn before any output is opened
    target = tmp_path / "run.csv"
    rc, out, err = _run(capsys, ["simulate", "--d", "2", "--schedule", CONST_HALF,
                                 "--n", "-1", "--samples", "3", "--out", str(target)])
    assert rc == 2
    assert out == "" and not target.exists()
    assert "n_steps must be >= 0, got -1" in err


def test_simulate_schedule_from_file(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text(CONST_HALF, encoding="utf-8")
    blob = _run_json(capsys, ["moments", "--op", "correlation", "--schedule",
                              "@" + str(sched), "--i", "1", "--j", "3"])
    assert blob["value"] == pytest.approx(0.25)


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", "2", "--schedule", CONST_HALF, "--n", "8", "--samples", "0"],
    ["simulate", "--d", "2", "--schedule", CONST_HALF, "--n", "8", "--samples", "-1"],
    ["zigzag", "--d", "2", "--b", "1.5", "--grid", "0"],
    ["zigzag", "--d", "2", "--b", "1.5", "--grid", "-2"],
])
def test_degenerate_counts_exit_2(capsys, argv):
    # a header-only CSV is not a result
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


@pytest.mark.parametrize("argv", [
    # a JSON true once passed as n0 = 1 and was echoed back
    ["classify", "--d", "2", "--schedule", '{"kind": "Critical", "a": 1, "n0": true}'],
    # intensities whose points would fill no memory: once a MemoryError, exit 3
    ["zigzag", "--d", "1", "--b", "1e12"],
    ["verify", "critical", "--d", "1", "--a", "1e12", "--n", "10000", "--delta", "0.5",
     "--samples", "10"],
])
def test_refused_integer_or_intensity_exit_2(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == ""
    assert "error" in err and "internal" not in err


def test_critical_many_samples_not_refused(capsys):
    # 10^5 samples of about 193 points each: the intensity bound is per
    # sample, so a large batch costs time but is not refused
    report = _run_json(capsys, ["verify", "critical", "--d", "3", "--a", "100",
                                "--n", "100000", "--delta", "0.1", "--samples", "100000"])
    assert report["config"]["samples"] == 100000


def test_critical_past_float_series_exit_0(capsys):
    # a = 1e100 once overflowed in its tail series, which no step up to
    # n0 = 10^301 reads
    schedule = json.dumps({"kind": "Critical", "a": 1e100, "n0": 10 ** 301})
    report = _run_json(capsys, ["verify", "recurrence", "--d", "1", "--schedule", schedule,
                                "--horizons", "10", "--samples", "5"])
    assert report["config"]["schedule"]["n0"] == 10 ** 301


def test_simulate_bad_schedule_exit_2(capsys):
    rc, _, err = _run(capsys, ["simulate", "--d", "2", "--schedule",
                               '{"kind": "Mystery"}', "--n", "5"])
    assert rc == 2


# --- zigzag ---

def test_zigzag_intervals_csv(capsys):
    rc, out, _ = _run(capsys, ["zigzag", "--d", "2", "--b", "1.5",
                               "--epsilon", "0.05", "--seed", "3"])
    assert rc == 0
    lines = out.strip().splitlines()
    cfg = json.loads(lines[0][len("# config "):])
    assert cfg["b"] == 1.5 and cfg["epsilon"] == 0.05
    assert lines[1] == "left,right,axis,sign"
    first_left = float(lines[2].split(",")[0])
    last_right = float(lines[-1].split(",")[1])
    assert first_left == 0.05
    assert last_right == 1.0


def test_zigzag_grid_trajectory(capsys):
    rc, out, _ = _run(capsys, ["zigzag", "--d", "2", "--a", "1.0",
                               "--epsilon", "0.1", "--grid", "5", "--seed", "3"])
    assert rc == 0
    lines = out.strip().splitlines()
    cfg = json.loads(lines[0][len("# config "):])
    assert cfg["b"] == 0.75  # derived from --a 1.0 at d=2
    assert lines[1] == "t,z_1,z_2"
    assert len(lines) == 2 + 5
    assert float(lines[-1].split(",")[0]) == pytest.approx(1.0)


def test_zigzag_requires_exactly_one_rate(capsys):
    rc, _, err = _run(capsys, ["zigzag", "--d", "2", "--b", "1.0", "--a", "1.0"])
    assert rc == 2
    assert "error:" in err
    rc, _, _ = _run(capsys, ["zigzag", "--d", "2"])
    assert rc == 2


@pytest.mark.parametrize("extra", [[], ["--epsilon", "0.1"]])
def test_zigzag_infinite_horizon_exit_2(capsys, recwarn, extra):
    # a precondition naming the horizon, not numpy's Poisson rate error
    rc, out, err = _run(capsys, ["zigzag", "--d", "2", "--b", "1", "--horizon", "inf",
                                 *extra])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite horizon" in err
    assert len(recwarn) == 0


@pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1"])
def test_zigzag_bad_horizon_names_its_flag(capsys, horizon):
    # the message blames --horizon, not an --epsilon the user never gave
    rc, out, err = _run(capsys, ["zigzag", "--d", "1", "--b", "1", "--horizon", horizon])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "--horizon" in err


# --- classify ---

def test_classify_json(capsys):
    blob = _run_json(capsys, ["classify", "--schedule", CONST_HALF, "--d", "2"])
    assert blob["op"] == "classify"
    assert blob["regime"] == "Recurrent"
    assert blob["theorem_ref"]
    assert all(isinstance(flag, bool) for _name, flag in blob["checked_conditions"])
    assert blob["config"]["schedule"]["kind"] == "Constant"


# --- verify subcommands ---

def test_verify_moment4_small(capsys):
    blob = _run_json(capsys, ["verify", "moment4", "--p", "0.5", "--n", "1",
                              "--samples", "500"])
    assert blob["op"] == "moment4"
    assert blob["expected"] == 1.0
    assert blob["estimate"] == 1.0
    assert blob["within_4se"] is True


def test_verify_covariance_diagonal(capsys):
    blob = _run_json(capsys, ["verify", "covariance", "--schedule", CONST_HALF,
                              "--i", "3", "--j", "3", "--samples", "1000"])
    assert blob["estimate"] == 1.0
    assert blob["within_4se"] is True


def test_verify_tail_impossible_event(capsys):
    blob = _run_json(capsys, ["verify", "tail", "--d", "1", "--p", "0.5",
                              "--n", "100", "--a", "50", "--samples", "2000"])
    assert blob["verdict"] == "holds"
    assert blob["estimate"] == 0.0


def test_verify_recurrence_points(capsys):
    blob = _run_json(capsys, ["verify", "recurrence", "--d", "1", "--schedule",
                              CONST_HALF, "--horizons", "0,10", "--samples",
                              "200"])
    assert blob["op"] == "recurrence"
    assert [pt["horizon"] for pt in blob["points"]] == [0, 10]


@pytest.mark.parametrize("d", ["130", "200"])
def test_verify_recurrence_beyond_256_direction_codes(capsys, d):
    # d > 128 has more than 256 direction codes, more than one byte holds
    blob = _run_json(capsys, ["verify", "recurrence", "--d", d, "--schedule",
                              CONST_HALF, "--horizons", "10,100", "--samples",
                              "200"])
    assert [pt["horizon"] for pt in blob["points"]] == [10, 100]


def test_verify_critical_window_before_step_one_exit_2(capsys):
    # delta n = 0.1: the turn-count window (delta n, n] would start at step 0
    rc, out, err = _run(capsys, ["verify", "critical", "--d", "2", "--a", "1",
                                 "--n", "10000", "--delta", "0.00001"])
    assert rc == 2
    assert out == ""
    assert "need delta * n >= 1, got delta=1e-05, n=10000" in err
    assert "count_changes_in" not in err


def test_verify_volkov_small(capsys):
    blob = _run_json(capsys, ["verify", "volkov", "--p", "0.7", "--i", "2",
                              "--j", "3", "--samples", "20000"])
    assert blob["config"]["horizon"] == 512
    assert blob["config"]["certified_error"] <= 1e-6
    assert blob["single"]["within_4se"] is True
    assert blob["joint"]["within_4se"] is True


def test_verify_precondition_exit_2(capsys):
    rc, _, err = _run(capsys, ["verify", "scaling", "--d", "2", "--p", "0.5",
                               "--n", "10", "--samples", "100"])
    assert rc == 2
    assert "error:" in err


def test_verify_violated_verdict_exit_1(capsys, monkeypatch):
    # the real envelope judges a faked estimate far above the bound (0.27)
    monkeypatch.setattr(verify, "estimate_tail",
                        lambda *args, **kwargs: _estimate(0.9))
    rc, out, _ = _run(capsys, ["verify", "tail", "--d", "1", "--p", "0.5",
                               "--n", "10", "--a", "40", "--samples", "10"])
    assert rc == 1
    blob = json.loads(out)
    assert blob["verdict"] == "violated"
    assert blob["argmax"] == "bound" and blob["passed"] is False


def test_verify_rejected_report_exit_1(capsys, monkeypatch):
    def fake_scaling(*args, **kwargs):
        return verify._limit_report("scaling", {"d": 2}, {"ks[0]": (2.0, 1.0)}, {})

    monkeypatch.setattr(verify, "scaling_limit_test", fake_scaling)
    rc, out, _ = _run(capsys, ["verify", "scaling", "--d", "2", "--p", "0.5",
                               "--n", "1000", "--samples", "100"])
    assert rc == 1
    assert json.loads(out)["rejected"] is True


def _estimate(value):
    return EstimatorResult(value, 0.01, 100, (value - 0.02, value + 0.02), 0)


def test_verify_covariance_disagreement_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "estimate_covariance",
                        lambda *args, **kwargs: _estimate(0.0))  # expected 0.25
    rc, out, _ = _run(capsys, ["verify", "covariance", "--schedule", CONST_HALF,
                               "--i", "2", "--j", "4", "--samples", "10"])
    assert rc == 1
    blob = json.loads(out)
    assert blob["expected"] == pytest.approx(0.25) and blob["within_4se"] is False


def test_verify_moment4_disagreement_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "moment4_experiment",
                        lambda *args, **kwargs: _estimate(0.0))
    rc, out, _ = _run(capsys, ["verify", "moment4", "--p", "0.5", "--n", "10",
                               "--samples", "10"])
    assert rc == 1
    blob = json.loads(out)
    assert blob["expected"] == analytics.fourth_moment_L(0.5, 10)
    assert blob["within_4se"] is False


@pytest.mark.parametrize("bad", ["single", "joint"])
def test_verify_volkov_one_half_disagrees_exit_1(capsys, monkeypatch, bad):
    single, _ = analytics.gambler_pass_once(0.7, math.inf)
    _, joint = analytics.gambler_pass_once(0.7, 1)
    halves = {"single": single, "joint": joint}
    fake = {k: _estimate(v + (0.5 if k == bad else 0.0)) for k, v in halves.items()}
    monkeypatch.setattr(verify, "volkov_bc_experiment",
                        lambda *args, **kwargs: VolkovResult(**fake, horizon=512,
                                                             certified_error=0.0))
    rc, out, _ = _run(capsys, ["verify", "volkov", "--p", "0.7", "--i", "2",
                               "--j", "3", "--samples", "10"])
    assert rc == 1
    blob = json.loads(out)
    for half, expected in halves.items():
        assert blob[half]["expected"] == expected
        assert blob[half]["within_4se"] is (half != bad)


_VERIFY_ARGS = {
    "tail": ["--d", "2", "--p", "0.5", "--n", "100", "--a", "2"],
    "covariance": ["--schedule", CONST_HALF, "--i", "2", "--j", "4"],
    "scaling": ["--d", "2", "--p", "0.5", "--n", "1000"],
    "critical": ["--d", "2", "--a", "1", "--n", "10000", "--delta", "0.1"],
    "recurrence": ["--d", "2", "--schedule", CONST_HALF, "--horizons", "10,100"],
    "volkov": ["--p", "0.7", "--i", "2", "--j", "3"],
    "moment4": ["--p", "0.5", "--n", "10"],
}


def _force_scaling_ks(monkeypatch, value):
    """The second coordinate's KS distance becomes ``value``."""
    real, calls = verify.ks_one_sample_normal, []

    def ks(values):
        calls.append(None)
        return value if len(calls) == 2 else real(values)
    monkeypatch.setattr(verify, "ks_one_sample_normal", ks)


def _force_critical_chi2(monkeypatch):
    real = verify.poisson_gof

    def gof(counts, lam, alpha):
        _stat, crit, dof = real(counts, lam, alpha=alpha)
        return 100.0 * crit, crit, dof
    monkeypatch.setattr(verify, "poisson_gof", gof)


def _force_volkov(monkeypatch, bad):
    single, _ = analytics.gambler_pass_once(0.7, math.inf)
    _, joint = analytics.gambler_pass_once(0.7, 1)
    halves = {"single": single, "joint": joint}
    fake = {k: _estimate(v + (0.5 if k == bad else 0.0)) for k, v in halves.items()}
    monkeypatch.setattr(verify, "volkov_bc_experiment",
                        lambda *args, **kwargs: VolkovResult(**fake, horizon=512,
                                                             certified_error=0.0))


def _fake(name, value):
    return lambda monkeypatch: monkeypatch.setattr(
        verify, name, lambda *args, **kwargs: _estimate(value))


# experiment, argv, forcing, the sub-check it pushes over its allowance
_FORCED = [
    ("tail", ["--d", "1", "--p", "0.5", "--n", "10", "--a", "40"],
     _fake("estimate_tail", 0.9), "bound"),
    ("covariance", _VERIFY_ARGS["covariance"], _fake("estimate_covariance", 0.0),
     "expected"),
    ("moment4", _VERIFY_ARGS["moment4"], _fake("moment4_experiment", 0.0), "expected"),
    ("scaling", _VERIFY_ARGS["scaling"],
     lambda monkeypatch: _force_scaling_ks(monkeypatch, 1.0), "ks[1]"),
    ("critical", _VERIFY_ARGS["critical"], _force_critical_chi2, "chi2"),
    ("volkov", _VERIFY_ARGS["volkov"],
     lambda monkeypatch: _force_volkov(monkeypatch, "single"), "single"),
    ("volkov", _VERIFY_ARGS["volkov"],
     lambda monkeypatch: _force_volkov(monkeypatch, "joint"), "joint"),
]


@pytest.mark.parametrize("exp,args,force,name", _FORCED,
                         ids=[f"{exp}-{name}" for exp, _a, _f, name in _FORCED])
def test_verify_forced_subcheck_flips_exit_and_names_it(capsys, monkeypatch, exp,
                                                        args, force, name):
    argv = ["verify", exp, *args, "--samples", "2000", "--seed", "3"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and json.loads(out)["passed"] is True
    force(monkeypatch)
    rc, out, _ = _run(capsys, argv)
    blob = json.loads(out)
    assert rc == 1
    assert blob["passed"] is False and blob["statistic"] > 1.0
    assert blob["argmax"] == name


@pytest.mark.parametrize("exp,force,name", [
    ("scaling", lambda monkeypatch: _force_scaling_ks(monkeypatch, math.nan), "ks[1]"),
    ("covariance", _fake("estimate_covariance", math.nan), "expected"),
    ("tail", _fake("estimate_tail", math.nan), "bound"),
])
def test_verify_nan_subcheck_exits_1_and_names_it(capsys, monkeypatch, exp, force,
                                                  name):
    force(monkeypatch)
    rc, out, _ = _run(capsys, ["verify", exp, *_VERIFY_ARGS[exp], "--samples", "2000"])
    blob = json.loads(out)
    assert rc == 1
    assert blob["passed"] is False and blob["statistic"] is None
    assert blob["argmax"] == name


def test_verify_recurrence_is_informational(capsys):
    blob = _run_json(capsys, ["verify", "recurrence", *_VERIFY_ARGS["recurrence"],
                              "--samples", "10"])
    assert (blob["statistic"], blob["argmax"], blob["passed"]) == (0.0, None, True)


def _assert_one_report_shape(report, op):
    """``report`` is the one builder's shape, its verdict read from its ``checks``."""
    assert report["op"] == op
    assert list(report)[-4:] == ["checks", "statistic", "argmax", "passed"]
    ratios = {name: verify._ratio(*(math.nan if v is None else v for v in check))
              for name, check in report["checks"].items()}
    nans = [name for name, ratio in ratios.items() if math.isnan(ratio)]
    if nans:
        argmax = nans[0]
    else:
        argmax = next((name for name, ratio in ratios.items()
                       if ratio == max(ratios.values())), None)
    statistic = 0.0 if argmax is None else ratios[argmax]
    assert report["argmax"] == argmax
    assert report["statistic"] == verify._builtin(statistic)  # null when not finite
    assert report["passed"] is (statistic <= 1)


@pytest.mark.parametrize("exp", sorted(cli._EXPERIMENTS))
def test_verify_reports_have_one_shape(capsys, exp):
    rc, out, _ = _run(capsys, ["verify", exp, *_VERIFY_ARGS[exp], "--samples", "500"])
    report = _strict_json(out)
    assert rc == (0 if report["passed"] else 1)
    _assert_one_report_shape(report, exp)
    if exp == "volkov":
        for half in ("single", "joint"):
            _assert_one_report_shape(report[half], f"volkov_{half}")
            assert report["checks"][half] == report[half]["checks"]["expected"]


@pytest.mark.parametrize("argv", [
    ["verify", "recurrence", "--d", "1", "--schedule", POWER_DECAY,
     "--horizons", "1000000000000", "--samples", "10"],
    ["simulate", "--d", "1", "--schedule", POWER_DECAY, "--n", "1000000000000",
     "--sampler", "events"],
])
def test_huge_table_horizon_exit_2_without_allocating(capsys, monkeypatch, argv):
    # these used to ask for a 7.28 TiB hazard table: MemoryError, exit 3
    def no_table(self, n):
        raise AssertionError(f"prefix_probs({n}) called")
    monkeypatch.setattr(PowerDecay, "prefix_probs", no_table)
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "n = 1000000000000" in err
    assert str(1 << 27) in err


@pytest.mark.parametrize("exp", sorted(_VERIFY_ARGS))
def test_verify_zero_samples_exit_2(capsys, exp):
    rc, out, err = _run(capsys, ["verify", exp, *_VERIFY_ARGS[exp],
                                 "--samples", "0"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "samples must be >= " in err


def test_verify_args_name_every_required_flag():
    for exp, (required, *_rest) in cli._EXPERIMENTS.items():
        flags = _VERIFY_ARGS[exp][::2]
        assert flags == ["--" + f.replace("_", "-") for f in required]


@pytest.mark.parametrize("exp,k", [
    pytest.param(exp, k, id=f"{exp}{args[k]}")
    for exp, args in sorted(_VERIFY_ARGS.items()) for k in range(0, len(args), 2)])
def test_verify_missing_required_flag_exit_2(capsys, exp, k):
    args = _VERIFY_ARGS[exp]
    rc, out, err = _run(capsys, ["verify", exp, *args[:k], *args[k + 2:],
                                 "--samples", "10"])
    assert rc == 2
    assert out == ""
    assert "the following arguments are required: " + args[k] in err


@pytest.mark.parametrize("name", sorted(cli._EXPERIMENTS))
def test_verify_table_matches_operation_signature(name):
    # an operation takes exactly its row's flags plus samples and seed
    required, optional, _samples, op = cli._EXPERIMENTS[name]
    params = inspect.signature(getattr(verify, op)).parameters
    assert set(params) == {*required, *optional, "samples", "seed"}


@pytest.mark.parametrize("argv", [
    ["verify", "moment4", *_VERIFY_ARGS["moment4"], "--shards", "2"],
    ["verify", "critical", *_VERIFY_ARGS["critical"], "--zigzag-samples", "5"],
])
def test_verify_removed_flags_exit_2(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["verify", "tail", "--d", "2", "--p", "0.5", "--n", "10", "--a", "nan",
     "--samples", "10"],
    ["verify", "critical", "--d", "2", "--a", "inf", "--n", "10000", "--delta", "0.1",
     "--samples", "10"],
])
def test_verify_non_finite_rate_exit_2(capsys, argv):
    # NaN used to pass validation and read as "holds"; inf used to crash
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("exp", ["scaling", "critical"])
def test_verify_single_sample_exit_2(capsys, exp):
    # one sample leaves the variances undefined (NaN); refuse, never pass
    rc, out, err = _run(capsys, ["verify", exp, *_VERIFY_ARGS[exp],
                                 "--samples", "1"])
    assert rc == 2
    assert out == ""
    assert "samples must be >= 2" in err


def test_verify_scaling_zero_rate_exit_2(capsys):
    # p = 0 runs every path straight along one axis: refused, not a crash
    rc, out, err = _run(capsys, ["verify", "scaling", "--d", "2", "--p", "0",
                                 "--n", "1000", "--samples", "100"])
    assert rc == 2
    assert out == ""
    assert "needs 0 < p <= 1" in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_verify_critical_equal_turn_counts_is_a_verdict(capsys):
    # both sampled turn counts are equal, so their s.e. is 0
    rc, out, _ = _run(capsys, ["verify", "critical", "--d", "1", "--a", "1",
                               "--n", "10000", "--delta", "0.1", "--samples", "2",
                               "--seed", "3"])
    assert rc in (0, 1)
    report = _strict_json(out)
    det = report["details"]
    assert det["turn_count_se"] == 0.0
    assert rc == (1 if det["turn_count_mean"] != det["poisson_mean"] else 0)
    # an infinite statistic is written as null, and still rejects
    assert (report["statistic"] is None) == report["rejected"] == (rc == 1)


def test_verify_scaling_zero_se_is_a_verdict(capsys):
    # the two sampled cross products are equal, so their s.e. is 0
    rc, out, _ = _run(capsys, ["verify", "scaling", "--d", "2", "--p", "1",
                               "--n", "1000", "--samples", "2", "--seed", "11"])
    assert rc == 1
    report = _strict_json(out)
    assert report["rejected"] is True
    assert report["details"]["cross_covariances"][0]["std_error"] == 0.0


def test_json_output_is_strict(capsys):
    report = verify._limit_report("demo", {"x": math.nan}, {"c": (math.inf, 1.0)},
                                  {"v": [1.0, -math.inf]})
    cli._emit_json(report, None)
    out = _strict_json(capsys.readouterr().out)
    assert out["statistic"] is None and out["rejected"] is True
    assert out["config"] == {"x": None} and out["details"] == {"v": [1.0, None]}
    assert out["checks"] == {"c": [None, 1.0]}


def test_nonpositive_dimension_exit_2(capsys):
    rc, _, err = _run(capsys, ["simulate", "--d", "0", "--schedule", CONST_HALF,
                               "--n", "5"])
    assert rc == 2
    assert "d must be >= 1" in err


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(verify, "moment4_experiment", crash)
    rc, out, err = _run(capsys, ["verify", "moment4", "--p", "0.5", "--n", "10",
                                 "--samples", "10"])
    assert rc == 3
    assert out == ""
    assert "error: internal error: ZeroDivisionError: boom" in err


# --- parser-level errors ---

def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands, in_block = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("turnwalk "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse(capsys):
    # parse only: README and the parser cannot drift apart
    commands = _readme_commands()
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: turnwalk {shlex.join(argv)}"
                        f"\n{capsys.readouterr().err}")
    shown = {argv[1] for argv in commands if argv[0] == "verify"}
    assert shown == set(cli._EXPERIMENTS)
    assert {argv[0] for argv in commands} == {
        "simulate", "zigzag", "classify", "moments", "verify"}


def test_unknown_subcommand_exit_2(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exit_2(capsys):
    assert cli.run(["simulate", "--d", "2", "--n", "5"]) == 2
    capsys.readouterr()


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports turnwalk from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)


def test_import_and_parser_load_no_scipy():
    # scipy.special alone took about half of a command's start-up time
    proc = _python("import sys, turnwalk.cli; turnwalk.cli._build_parser(); "
                   "print(sorted(m for m in sys.modules "
                   "if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_runs_with_scipy_blocked():
    # a None entry makes every `import scipy...` raise ImportError
    proc = _python(
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from turnwalk import cli\n"
        "for argv in (['verify', 'scaling', '--d', '2', '--p', '0.5', '--n', '1000',\n"
        "              '--samples', '400'],\n"
        "             ['verify', 'critical', '--d', '2', '--a', '1', '--n', '10000',\n"
        "              '--delta', '0.1', '--samples', '400']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = cli.run(argv)\n"
        "    print(rc, 'statistic' in json.loads(out.getvalue()))\n")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        rc, has_statistic = line.split()
        assert rc in ("0", "1") and has_statistic == "True"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "turnwalk.cli", "moments", "--op", "b-from-a",
         "--a", "2", "--d", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(5 / 3)
