"""Full-scale checks, one test per numbered criterion.

Everything runs at the stated sample sizes with seed 0 and asserts both the
statistical outcome and the runtime budget.  The conftest hook prints one
PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import time

import numpy as np

from turnwalk import analytics, oracle, verify, walk, zigzag
from turnwalk.analytics import LyapunovConfig
from turnwalk.schedule import Constant, Critical, PowerDecay

# criterion 11 reuses criterion 4's serialized reports when available
_ENVELOPES = {}

_TAIL_CONFIGS = [
    (2, 0.9, 10 ** 4, 20.0),
    (2, 0.9, 10 ** 4, 25.0),
    (1, 0.9, 10 ** 4, 10.0),
]


def test_c01_oracle_agreement():
    # endpoint law vs the exact DP at 10^6 samples per configuration; the
    # vectorized engines carry the load for both sampling strategies (their
    # law identity with the scalar samplers is covered in test_walk)
    t0 = time.perf_counter()
    idx = 0
    for d in (1, 2):
        for p in (0.3, 0.5, 0.8):
            marg = oracle.exact_distribution(d, Constant(p), 6).marginal_positions()
            for method in ("step", "events"):
                # one independent stream per configuration
                ss = np.random.SeedSequence(
                    0, spawn_key=(verify.STREAMS["simulate"], idx))
                rng = np.random.Generator(np.random.Philox(ss))
                idx += 1
                pos = walk.sample_positions(d, Constant(p), 6, 1_000_000, rng,
                                            method=method).at(6)
                uniq, counts = np.unique(pos, axis=0, return_counts=True)
                emp = {tuple(int(v) for v in row): c / 1_000_000
                       for row, c in zip(uniq, counts)}
                keys = set(emp) | set(marg)
                tv = 0.5 * sum(abs(emp.get(k, 0.0) - marg.get(k, 0.0))
                               for k in keys)
                assert tv < 0.01, (d, p, method, tv)
    assert time.perf_counter() - t0 < 60.0


def test_c02_fourth_moment_formula():
    t0 = time.perf_counter()
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in range(1, 13):
            closed = analytics.fourth_moment_L(p, n)
            brute = oracle.brute_force_L_moment(p, n, 4)
            assert abs(closed - brute) <= 1e-10 * abs(brute), (p, n)
    assert time.perf_counter() - t0 < 10.0


def test_c03_correlation_decay():
    t0 = time.perf_counter()
    cases = [
        (Constant(0.5), 5, 8), (Constant(0.5), 1, 1), (Constant(0.3), 2, 10),
        (Constant(0.8), 3, 6), (Constant(0.5), 1, 20),
        (Critical(1.0, n0=2), 20, 25), (Critical(2.0, n0=3), 10, 14),
        (Critical(1.0, n0=2), 5, 5), (Critical(3.0, n0=4), 8, 20),
        (Critical(1.0, n0=1), 2, 12),
    ]
    for sched, i, j in cases:
        r = verify.estimate_covariance(sched, i, j, 1_000_000, seed=0)
        e = analytics.correlation_e(sched, i, j)
        if r.std_error == 0.0:
            assert r.estimate == e == 1.0, (sched.kind, i, j)
        else:
            assert abs(r.estimate - e) <= 4 * r.std_error, (sched.kind, i, j)
    assert time.perf_counter() - t0 < 60.0


def test_c04_tail_bounds():
    t0 = time.perf_counter()
    for d, p, n, a in _TAIL_CONFIGS:
        rep = verify.tail_report(d, p, n, a, 100_000, seed=0)
        assert rep["bound"] == analytics.ld_bound(p, a, d)
        assert rep["verdict"] == "holds", (d, a, rep)
        _ENVELOPES[(d, p, n, a)] = json.dumps(rep)
    assert time.perf_counter() - t0 < 300.0


def test_c05_scaling_limit():
    t0 = time.perf_counter()
    rep = verify.scaling_limit_test(2, 0.5, 100_000, 10_000, seed=0)
    det = rep["details"]
    assert not rep["rejected"]
    assert rep["statistic"] <= rep["threshold"]
    for ks in det["ks_per_coordinate"]:
        assert ks < det["ks_threshold"]
    for v in det["variances"]:
        assert 0.96 <= v <= 1.04
    assert time.perf_counter() - t0 < 600.0


def test_c06_critical_regime():
    t0 = time.perf_counter()
    rep = verify.critical_limit_test(2, 1.0, 100_000, 100_000, 0.1, seed=0)
    det = rep["details"]
    assert not rep["rejected"]
    assert det["b"] == 0.75
    lam = 0.75 * math.log(10.0)
    assert abs(det["turn_count_mean"] - lam) <= 4 * det["turn_count_se"]
    assert det["ks_norm"] < det["ks_threshold"]
    assert time.perf_counter() - t0 < 600.0


def test_c07_lyapunov_drift():
    t0 = time.perf_counter()
    radii = (200, 500, 1000, 2000)
    for p in (0.3, 0.5, 0.7):
        a = math.ceil(1.5 + 18 * (1 - p) / p ** 2) + 5
        # the certified remainder at the default tail mass swamps the tiny
        # drift at r = 2000; tighten the truncation so the sign is resolved
        cfg = LyapunovConfig(p, float(a), truncation_tail=1e-16)
        vals = []
        for r in radii:
            drift = analytics.lyapunov_drift(cfg, (r, 0))
            assert drift < 0.0, (p, a, r, drift)
            vals.append(drift * r ** 4)
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert spread < 0.5, (p, spread)
    assert time.perf_counter() - t0 < 30.0


def test_c08_counting_and_cosine_bounds():
    t0 = time.perf_counter()
    # low-fractional-part counts stay above (2/15) M on the whole grid
    floor = 2.0 / 15.0
    for k in range(1, 51):
        s = k / 100.0
        for j in range(10):
            s0 = j / 10.0
            for M in range(2, 1001):
                if M * s < 1.0 - 1e-12:
                    continue
                count = analytics.count_arith_progression(s, s0, M)
                assert count >= floor * M - 1e-9, (s, s0, M, count)

    # pointwise quadratic minorant of 1 - cos on [0, pi/2]
    grid = np.linspace(0.0, math.pi / 2, 10_000)
    assert np.all(1.0 - np.cos(grid) >= grid * grid / 4.0 - 1e-15)

    # linear majorant of the cosine average for admissible distributions
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(808)))
    s_grid = np.linspace(0.0, math.pi / 2, 200)
    for _ in range(100):
        M = int(rng.integers(1, 11))
        a = float(rng.uniform(0.05, 1.0))
        extra = int(rng.integers(0, 5))
        q = rng.dirichlet(np.ones(M + extra)) * (1.0 - a)
        q[:M] += a / M
        for s in s_grid:
            h, bound = analytics.cosine_sum_bound(q, M, a, float(s))
            assert h <= bound + 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_c09_pass_once_probabilities():
    t0 = time.perf_counter()
    gap1 = verify.volkov_bc_experiment(0.7, 5, 6, 100_000, seed=0)
    gap5 = verify.volkov_bc_experiment(0.7, 5, 10, 100_000, seed=0)
    for res in (gap1, gap5):
        assert res.certified_error <= 1e-6
        assert abs(res.single.estimate - 0.4) <= 4 * res.single.std_error
    assert abs(gap1.joint.estimate - 0.28) <= 4 * gap1.joint.std_error
    joint5 = 0.16 / (1.0 - (3.0 / 7.0) ** 5)
    assert abs(gap5.joint.estimate - joint5) <= 4 * gap5.joint.std_error
    assert time.perf_counter() - t0 < 60.0


def test_c10_regime_trends():
    t0 = time.perf_counter()
    horizons = (10 ** 3, 10 ** 4, 10 ** 5)
    visits = verify.recurrence_experiment(2, Constant(0.5), horizons, 2_000,
                                          seed=0)
    assert visits[0].mean_visits < visits[1].mean_visits < visits[2].mean_visits
    late = verify.recurrence_experiment(2, PowerDecay(1.0, 0.7), horizons,
                                        40_000, seed=0)
    assert late[0].fraction_late > late[1].fraction_late > late[2].fraction_late
    assert time.perf_counter() - t0 < 600.0


def test_c11_determinism():
    d, p, n, a = _TAIL_CONFIGS[2]
    first = _ENVELOPES.get((d, p, n, a))
    if first is None:  # standalone run without criterion 4
        first = json.dumps(verify.tail_report(d, p, n, a, 100_000, seed=0))
    again = json.dumps(verify.tail_report(d, p, n, a, 100_000, seed=0))
    assert again == first
