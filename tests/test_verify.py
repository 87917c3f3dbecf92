import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats as sps

from turnwalk import analytics, verify, zigzag
from turnwalk.schedule import Constant, Critical, PowerDecay
from turnwalk.verify import (EstimatorResult, envelope, ks_critical,
                             ks_one_sample_normal, ks_two_sample, poisson_gof,
                             stream_rng)


# --- seeding ---

def test_stream_rng_reproducible_and_separated():
    a = stream_rng(7, "tail").integers(0, 2 ** 63, size=8)
    b = stream_rng(7, "tail").integers(0, 2 ** 63, size=8)
    assert np.array_equal(a, b)
    c = stream_rng(7, "covariance").integers(0, 2 ** 63, size=8)
    e = stream_rng(8, "tail").integers(0, 2 ** 63, size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, e)


@pytest.mark.parametrize("stream", sorted(verify.STREAMS))
def test_stream_rng_is_the_documented_derivation(stream):
    # spawn key (stream id, 0): the stream every seeded result was drawn from
    ss = np.random.SeedSequence(7, spawn_key=(verify.STREAMS[stream], 0))
    want = np.random.Generator(np.random.Philox(ss)).integers(0, 2 ** 63, size=8)
    assert np.array_equal(stream_rng(7, stream).integers(0, 2 ** 63, size=8), want)


def test_stream_rng_unknown_stream():
    with pytest.raises(KeyError):
        stream_rng(0, "nonsense")


# --- result containers ---

def test_estimator_result_validation_and_json():
    r = EstimatorResult(0.5, 0.01, 1000, (0.48, 0.52), 3)
    blob = r.to_json()
    assert blob["estimate"] == 0.5
    assert blob["ci95"] == [0.48, 0.52]
    json.dumps(blob)
    with pytest.raises(ValueError):
        EstimatorResult(0.5, -0.01, 1000, (0.4, 0.6), 0)


def test_report_rejected_flag():
    cfg = {"x": 1}

    def limit(observed, details=None):
        return verify._limit_report("demo", cfg, {"c": (observed, 1.0)}, details or {})
    assert limit(1.2)["rejected"]
    assert not limit(1.0)["rejected"]
    assert not limit(0.3)["rejected"]
    assert limit(math.nan)["rejected"]
    blob = limit(0.3, {"note": []})
    assert list(blob) == ["op", "config", "threshold", "rejected", "details", "checks",
                          "statistic", "argmax", "passed"]
    assert blob["threshold"] == 1.0 and blob["details"] == {"note": []}
    assert blob["argmax"] == "c" and blob["passed"] is True
    json.dumps(blob)


def test_envelope_verdicts_and_key_order():
    r = EstimatorResult(0.5, 0.01, 1000, (0.48, 0.52), 3)
    env = envelope("demo", {"p": 0.5}, r, bound=0.46)
    assert list(env) == ["op", "config", "estimate", "std_error", "n_samples",
                         "ci95", "seed", "bound", "verdict",
                         "checks", "statistic", "argmax", "passed"]
    assert env["verdict"] == "holds"  # 0.5 - 0.04 = 0.46 <= 0.46
    assert env["argmax"] == "bound" and env["passed"] is True
    env = envelope("demo", {"p": 0.5}, r, bound=0.459)
    assert env["verdict"] == "violated"
    env = envelope("demo", {"p": 0.5}, r)
    assert "bound" not in env and "verdict" not in env
    json.dumps(env)


def test_envelope_agreement_flag_and_key_order():
    r = EstimatorResult(0.5, 0.125, 1000, (0.25, 0.75), 3)  # 4 s.e. = 0.5
    env = envelope("demo", {"p": 0.5}, r, expected=1.0)
    assert list(env) == ["op", "config", "estimate", "std_error", "n_samples",
                         "ci95", "seed", "expected", "within_4se",
                         "checks", "statistic", "argmax", "passed"]
    assert env["expected"] == 1.0 and env["within_4se"] is True
    assert envelope("demo", {}, r, expected=0.0)["within_4se"] is True
    assert envelope("demo", {}, r, expected=1.0 + 1e-9)["within_4se"] is False
    assert envelope("demo", {}, r, expected=-0.25)["within_4se"] is False
    both = envelope("demo", {}, r, bound=0.0, expected=0.5)
    assert list(both)[-8:] == ["bound", "verdict", "expected", "within_4se",
                               "checks", "statistic", "argmax", "passed"]
    assert both["checks"] == {"bound": [0.0, 0.0], "expected": [0.0, 0.5]}
    nan = EstimatorResult(math.nan, 0.125, 1000, (0.0, 1.0), 3)
    assert envelope("demo", {}, nan, expected=0.5)["within_4se"] is False
    json.dumps(env)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEG = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def _near(x: float, steps: int) -> float:
    """x moved ``steps`` floats up (or down, when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=500, deadline=None)
@given(_NONNEG, _NONNEG, st.integers(-2, 2), st.booleans())
def test_ratio_at_most_one_is_exactly_observed_at_most_allowed(o, a, steps, adjacent):
    # adjacent pairs (o one or two floats from a) are where rounding could bite
    if adjacent:
        o = max(0.0, _near(a, steps))
    assert (verify._ratio(o, a) <= 1.0) == (o <= a)


@settings(max_examples=500, deadline=None)
@given(_FINITE, _NONNEG, _FINITE, st.integers(-2, 2), st.booleans())
def test_bound_subcheck_is_exactly_the_one_sided_rule(e, s, b, steps, adjacent):
    if adjacent:
        b = _near(e - 4.0 * s, steps)
    assume(0.0 < b < math.inf)
    holds = e - 4.0 * s <= b
    assert (verify._ratio(max(0.0, e - 4.0 * s), b) <= 1.0) == holds
    env = envelope("demo", {}, EstimatorResult(e, s, 1, (e, e), 0), bound=b)
    assert env["passed"] == holds and (env["verdict"] == "holds") == holds


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300), st.floats(-1e300, 1e300))
def test_expected_subcheck_is_exactly_the_two_sided_rule(e, s, x):
    # bounded so that |e - x| and 4 s stay finite: inf / inf would be NaN
    within = abs(e - x) <= 4.0 * s
    env = envelope("demo", {}, EstimatorResult(e, s, 1, (e, e), 0), expected=x)
    assert env["passed"] == env["within_4se"] == within


def test_judge_names_the_largest_subcheck_and_nan_wins():
    def judge(checks):
        report = verify._report("demo", {}, checks)
        assert report["checks"] == {name: list(check) for name, check in checks.items()}
        return {key: report[key] for key in ("statistic", "argmax", "passed")}

    assert judge({}) == {"statistic": 0.0, "argmax": None, "passed": True}
    assert judge({"a": (1.0, 2.0), "b": (3.0, 2.0), "c": (3.0, 2.0)}) == {
        "statistic": 1.5, "argmax": "b", "passed": False}
    nan = judge({"a": (5.0, 1.0), "b": (math.nan, 1.0), "c": (9.0, 1.0)})
    assert math.isnan(nan["statistic"]) and nan["argmax"] == "b" and not nan["passed"]
    assert judge({"zero": (0.0, 0.0)})["argmax"] == "zero"


def test_envelope_cleans_numpy_scalars():
    r = EstimatorResult(float(np.float64(0.5)), 0.01, 1000, (0.4, 0.6), 0)
    env = envelope("demo", {"n": np.int64(4), "xs": np.arange(3)}, r)
    json.dumps(env)
    assert env["config"]["n"] == 4
    assert env["config"]["xs"] == [0, 1, 2]


# --- statistics helpers vs scipy ---

def test_ks_one_sample_matches_scipy():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    for size in (10, 100, 5_000):
        x = rng.normal(size=size)
        assert ks_one_sample_normal(x) == pytest.approx(
            sps.kstest(x, "norm").statistic, rel=1e-12)


def test_ks_two_sample_matches_scipy_with_ties():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    for _ in range(20):
        x = rng.integers(0, 12, size=int(rng.integers(5, 400))).astype(float)
        y = rng.integers(0, 12, size=int(rng.integers(5, 400))).astype(float)
        assert ks_two_sample(x, y) == pytest.approx(
            sps.ks_2samp(x, y).statistic, rel=1e-12)


def _ks_two_sample_searchsorted(x, y):
    # the ECDFs read at every pooled value by binary search
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


_TIED = st.lists(st.integers(-3, 3).map(lambda v: v / 2), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(_TIED, st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=2)),
       y=_TIED)
def test_ks_two_sample_is_the_searchsorted_statistic(x, y):
    assert ks_two_sample(x, y) == _ks_two_sample_searchsorted(x, y)
    assert ks_two_sample(y, x) == _ks_two_sample_searchsorted(y, x)


def test_critical_limit_test_memory():
    # the verify critical --d 3 batch; the zigzag side once sorted all its
    # points and peaked at 39.0 MB here
    tracemalloc.start()
    try:
        report = verify.critical_limit_test(3, 1.0, 10 ** 5, 10 ** 5, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak <= 26e6


def test_ks_critical_value():
    assert ks_critical(0.01) == pytest.approx(math.sqrt(-math.log(0.005) / 2))
    assert ks_critical(0.01) == pytest.approx(1.6276, abs=2e-4)
    with pytest.raises(ValueError):
        ks_critical(0.0)


def test_poisson_gof_accepts_true_poisson():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    counts = rng.poisson(3.0, size=100_000)
    stat, crit, dof = poisson_gof(counts, 3.0)
    assert dof >= 3
    assert crit == pytest.approx(sps.chi2.ppf(0.99, dof))
    assert stat < crit


def test_poisson_gof_rejects_shifted_mean():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    counts = rng.poisson(3.6, size=10_000)
    stat, crit, _ = poisson_gof(counts, 3.0)
    assert stat > crit


def test_chi2_critical_is_the_scipy_quantile():
    # Solved for Q = alpha directly, so compared with chi2.isf, which does the
    # same; chi2.ppf(1 - alpha) rounds 1 - alpha first, which alone moves the
    # quantile by about 2e-12 relative at alpha = 1e-6.
    for alpha in (0.01, 0.05, 1e-6):
        for dof in range(1, 301):
            crit = verify._chi2_critical(dof, alpha)
            assert crit == pytest.approx(sps.chi2.isf(alpha, dof), rel=2e-14, abs=0)
            assert abs(special.gammaincc(dof / 2, crit / 2) / alpha - 1) <= 1e-12


def test_normal_cdf_matches_ndtr():
    x = np.linspace(-40.0, 40.0, 16_001)  # step 0.005, so |x| > 8 is well covered
    assert np.max(np.abs(verify._normal_cdf(x) - special.ndtr(x))) <= 1e-14
    left = x[(x >= -8.0) & (x <= 0.0)]
    assert np.max(np.abs(verify._normal_cdf(left) / special.ndtr(left) - 1)) <= 1e-13


def test_subcheck_ratio_zero_allowance_and_nan():
    assert verify._ratio(0.5, 2.0) == 0.25
    # with nothing allowed, only an exact match passes
    assert verify._ratio(0.0, 0.0) == 0.0
    assert verify._ratio(1e-300, 0.0) == math.inf
    assert not verify._report("demo", {}, {"c": (1e-300, 0.0)})["passed"]
    for observed, allowed in ((math.nan, 0.0), (math.nan, 1.0), (0.5, math.nan)):
        assert math.isnan(verify._ratio(observed, allowed))
        assert not verify._report("demo", {}, {"c": (observed, allowed)})["passed"]


# --- simulation-backed estimators ---

def test_tail_impossible_event_is_zero():
    # a sqrt(n) > n makes the event empty; the estimator must return an
    # exact zero with zero s.e.
    rep = verify.tail_report(1, 0.5, 100, 50.0, 2_000, seed=1)
    assert rep["estimate"] == 0.0
    assert rep["std_error"] == 0.0
    assert rep["verdict"] == "holds"


def test_tail_threshold_validation():
    with pytest.raises(ValueError):
        verify.estimate_tail(2, 0.5, 100, 1.2, 100)  # a < sqrt(2)
    with pytest.raises(ValueError):
        verify.estimate_tail(1, 0.5, 100, 0.5, 100)


_NON_FINITE_SITES = {
    "estimate_tail": lambda x: verify.estimate_tail(2, 0.5, 10, x, 10),
    "ld_bound_d1": lambda x: analytics.ld_bound(0.5, x, 1),
    "ld_bound_d2": lambda x: analytics.ld_bound(0.5, x, 2),
    "LyapunovConfig": lambda x: analytics.LyapunovConfig(0.5, x),
    "Critical": lambda x: Critical(x),
    "PowerDecay": lambda x: PowerDecay(x, 0.5),
    "b_from_a": lambda x: zigzag.b_from_a(x, 2),
    "sample_ppp": lambda x: zigzag.sample_ppp(x, 0.1, 1.0, np.random.default_rng(0)),
    "sample_endpoints": lambda x: zigzag.sample_endpoints(2, x, 0.1, 5,
                                                          np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(_NON_FINITE_SITES))
def test_non_finite_parameter_refused(site, value):
    # NaN fails every comparison, so each check is written to fail on it
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_SITES[site](value)


def test_covariance_diagonal_is_exact_one():
    r = verify.estimate_covariance(Constant(0.3), 4, 4, 1_000, seed=2)
    assert r.estimate == 1.0
    assert r.std_error == 0.0


def test_covariance_matches_product_formula():
    r = verify.estimate_covariance(Constant(0.5), 2, 4, 200_000, seed=2)
    e = analytics.correlation_e(Constant(0.5), 2, 4)
    assert abs(r.estimate - e) < 4 * r.std_error
    r = verify.estimate_covariance(Critical(2.0, n0=3), 10, 14, 200_000, seed=2)
    e = analytics.correlation_e(Critical(2.0, n0=3), 10, 14)
    assert abs(r.estimate - e) < 4 * r.std_error


def test_covariance_validation():
    with pytest.raises(ValueError):
        verify.estimate_covariance(Constant(0.5), 3, 2, 100)
    with pytest.raises(ValueError):
        verify.estimate_covariance(Constant(0.5), 0, 2, 100)


def test_covariance_pinned_values():
    # any change to the per-step engine's draws or their order moves these
    r = verify.estimate_covariance(Constant(0.5), 2, 6, 50_000, seed=5)
    assert (repr(r.estimate), repr(r.std_error)) == ("0.04696", "0.004467246836014983")
    r = verify.estimate_covariance(Critical(2.0, n0=3), 1, 9, 50_000, seed=13)
    assert (repr(r.estimate), repr(r.std_error)) == ("0.00436", "0.0044721381696450485")


def test_covariance_memory_bounded():
    # one byte of heading per path at steps i and j, not int64 positions
    tracemalloc.start()
    try:
        verify.estimate_covariance(Critical(1.0, n0=2), 20, 25, 1_000_000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_covariance_window_memory_is_the_window():
    # two simulated steps at the end of a 10^6-step horizon: the rates are
    # read step by step, with no table of p_1..p_j (8 MB here)
    tracemalloc.start()
    try:
        verify.estimate_covariance(Constant(0.5), 10 ** 6 - 1, 10 ** 6, 100, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_moment4_single_step_is_exact_one():
    r = verify.moment4_experiment(0.5, 1, 500, seed=3)
    assert r.estimate == 1.0
    assert r.std_error == 0.0


def test_moment4_matches_formula():
    r = verify.moment4_experiment(0.5, 100, 300_000, seed=3)
    expect = analytics.fourth_moment_L(0.5, 100)
    assert abs(r.estimate - expect) < 4 * r.std_error
    assert 0.95 < r.estimate / expect < 1.05


def test_estimators_are_deterministic():
    a = verify.tail_report(1, 0.9, 200, 3.0, 5_000, seed=11)
    b = verify.tail_report(1, 0.9, 200, 3.0, 5_000, seed=11)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    x = verify.estimate_covariance(Constant(0.5), 2, 5, 20_000, seed=11)
    y = verify.estimate_covariance(Constant(0.5), 2, 5, 20_000, seed=11)
    assert x.estimate == y.estimate and x.std_error == y.std_error


def test_shard_counts_consistent_law():
    # the one stream stays within 4 s.e. of the exact value
    e = analytics.correlation_e(Constant(0.5), 2, 4)
    r = verify.estimate_covariance(Constant(0.5), 2, 4, 120_000, seed=5)
    assert r.n_samples == 120_000
    assert abs(r.estimate - e) < 4 * r.std_error


def test_scaling_report_structure():
    rep = verify.scaling_limit_test(2, 0.5, 1_000, 3_000, seed=7)
    assert rep["op"] == "scaling"
    assert rep["threshold"] == 1.0
    assert rep["config"]["n"] == 1_000
    det = rep["details"]
    assert len(det["ks_per_coordinate"]) == 2
    assert det["lattice_allowance"] > 0
    assert det["variance_band"] == [0.96, 1.04]
    assert len(det["cross_covariances"]) == 1
    assert det["cross_covariances"][0]["axes"] == [0, 1]
    json.dumps(rep)


def test_scaling_zero_se_cross_covariance_is_a_verdict():
    # at p = 1 the two sampled cross products are equal, so their s.e. is 0
    rep = verify.scaling_limit_test(2, 1.0, 1_000, 2, seed=11)
    assert rep["details"]["cross_covariances"][0]["std_error"] == 0.0
    assert rep["rejected"]
    json.dumps(verify._builtin(rep), allow_nan=False)


def test_scaling_preconditions():
    with pytest.raises(ValueError):
        verify.scaling_limit_test(2, 0.5, 999, 1_000)
    with pytest.raises(ValueError):
        verify.scaling_limit_test(2, 1.5, 10_000, 1_000)


def test_scaling_ks_shrinks_with_horizon():
    # the lattice bias at short horizons dominates; the per-coordinate KS
    # mean must decay as n grows.  At 10^6 samples the gaps between the
    # means (about 3e-3 and 1e-3) are several times their seed-to-seed
    # spread (2e-4 to 3e-4); at 10^4 samples they are not.
    means = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        rep = verify.scaling_limit_test(2, 0.5, n, 1_000_000, seed=0)
        means.append(float(np.mean(rep["details"]["ks_per_coordinate"])))
    assert means[0] > means[1] > means[2]


def test_nan_subcheck_rejects_scaling(monkeypatch):
    monkeypatch.setattr(verify, "ks_one_sample_normal", lambda values: math.nan)
    rep = verify.scaling_limit_test(2, 0.5, 1_000, 2_000, seed=7)
    assert math.isnan(rep["statistic"])
    assert rep["rejected"]


def test_nan_subcheck_rejects_critical(monkeypatch):
    # the KS sub-checks come after finite ones, so Python's max would drop their NaN
    monkeypatch.setattr(verify, "ks_two_sample", lambda x, y: math.nan)
    rep = verify.critical_limit_test(2, 1.0, 10_000, 2_000, 0.1, seed=9)
    assert math.isnan(rep["statistic"])
    assert rep["rejected"]


def test_critical_report_structure():
    rep = verify.critical_limit_test(2, 1.0, 10_000, 2_000, 0.1, seed=9)
    assert rep["op"] == "critical"
    det = rep["details"]
    assert det["b"] == pytest.approx(0.75)
    assert det["poisson_mean"] == pytest.approx(0.75 * math.log(10))
    for key in ("turn_count_mean", "turn_count_se", "chi2_statistic",
                "chi2_critical", "chi2_dof", "ks_norm", "ks_threshold"):
        assert key in det
    # the walks start at step floor(delta n), so no whole-path comparison
    assert "ks_norm_untruncated_info" not in det
    assert len(det["ks_per_coordinate"]) == 2
    json.dumps(rep)


def test_critical_walks_start_at_the_window(monkeypatch):
    # the walk leg simulates steps m + 1..n only, m = floor(delta n)
    calls = []
    sample_positions = verify.walk.sample_positions

    def spy(*args, **kwargs):
        calls.append((args[2], kwargs["first"], kwargs["times"], kwargs["count_changes_in"]))
        return sample_positions(*args, **kwargs)

    monkeypatch.setattr(verify.walk, "sample_positions", spy)
    verify.critical_limit_test(2, 1.0, 10_000, 2_000, 0.1, seed=9)
    assert calls == [(10_000, 1_000, (10_000,), (1_000, 10_000))]


def test_critical_preconditions():
    with pytest.raises(ValueError):
        verify.critical_limit_test(2, 1.0, 10_000, 1_000, 0.0)
    with pytest.raises(ValueError):
        verify.critical_limit_test(2, 1.0, 10_000, 1_000, 1.0)
    with pytest.raises(ValueError):
        verify.critical_limit_test(2, 1.0, 5_000, 1_000, 0.1)


def test_critical_refuses_empty_window_start(monkeypatch):
    # delta n < 1 would open the window at step 0; refused before sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating delta")

    monkeypatch.setattr(verify.walk, "sample_positions", no_sampling)
    with pytest.raises(ValueError, match=r"delta \* n >= 1.*delta=1e-05, n=10000"):
        verify.critical_limit_test(2, 1.0, 10_000, 1_000, 0.00001)


def test_recurrence_experiment_horizon_zero_and_order():
    pts = verify.recurrence_experiment(1, Constant(0.5), (0, 10, 100), 2_000,
                                       seed=13)
    assert [pt.horizon for pt in pts] == [0, 10, 100]
    assert pts[0].mean_visits == 0.0 and pts[0].se_visits == 0.0
    assert pts[0].fraction_late == 0.0
    assert all(math.isfinite(pt.mean_visits) for pt in pts)
    blob = pts[1].to_json()
    assert list(blob) == ["horizon", "mean_visits", "se_visits",
                          "fraction_late", "se_late"]
    json.dumps(blob)


def test_recurrence_experiment_validation():
    with pytest.raises(ValueError):
        verify.recurrence_experiment(1, Constant(0.5), (10, 10), 100)
    with pytest.raises(ValueError):
        verify.recurrence_experiment(1, Constant(0.5), (100, 10), 100)
    with pytest.raises(ValueError):
        verify.recurrence_experiment(1, Constant(0.5), (-1, 10), 100)


def test_volkov_certification_and_estimates():
    res = verify.volkov_bc_experiment(0.7, 5, 10, 20_000, seed=15)
    assert res.certified_error <= 1e-6
    assert res.horizon == 512  # doubled once from the 256 floor
    assert 0.0 <= res.single.estimate <= 1.0
    assert 0.0 <= res.joint.estimate <= 1.0
    single_exact, _ = analytics.gambler_pass_once(0.7, 5)
    assert abs(res.single.estimate - single_exact) < 4 * res.single.std_error


class _StepRng:
    """Uniforms that script a +-1 walk: 0 steps up, 0.99 steps down."""

    def __init__(self, ups):
        self.u = np.where(np.asarray(ups), 0.0, 0.99)

    def random(self, shape):
        out, self.u = self.u[:shape[1]], self.u[shape[1]:]
        return out.reshape(shape)


@pytest.mark.parametrize("cells", [2, 3, 1 << 21])
def test_volkov_streams_first_hits_and_fall_backs(monkeypatch, cells):
    # x = 1, 2, 3, 2, 3, 4, 5: level 3 falls back at step 4, level 4 passes,
    # and level 5 is first hit on the last step, which counts as passed;
    # two- and three-step blocks cut the walk around every event
    monkeypatch.setattr(verify, "_VOLKOV_CELLS", cells)
    ups = [1, 1, 1, 0, 1, 1, 1]
    passed = verify._volkov_chunk(0.5, (3, 4, 5), 1, 7, 6, _StepRng(ups))
    assert [bool(f[0]) for f in passed] == [False, True, True]


@pytest.mark.parametrize("cells", [2, 3, 1 << 21])
def test_volkov_passes_once_means_one_visit(monkeypatch, cells):
    # x = 1, 0, 1, 0, 1, 2, 3: level 1 is visited three times, level 2
    # once and level 4 never, so only level 2 is passed once
    monkeypatch.setattr(verify, "_VOLKOV_CELLS", cells)
    ups = [1, 0, 1, 0, 1, 1, 1]
    passed = verify._volkov_chunk(0.5, (1, 2, 4), 1, 7, 5, _StepRng(ups))
    assert passed.shape == (3, 1)
    assert [bool(f[0]) for f in passed] == [False, True, False]


class _BlockRng:
    """Scripted blocks of uniforms (0 steps up, 0.99 steps down); logs each shape.

    A block asked for in a shape the script does not expect steps down.
    """

    def __init__(self, blocks):
        self.blocks = [np.where(np.asarray(b), 0.0, 0.99) for b in blocks]
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        down = np.full(shape, 0.99)
        block = self.blocks.pop(0) if self.blocks else down
        return block if block.shape == shape else down


def test_volkov_stops_walks_out_of_reach(monkeypatch):
    # levels 2 and 3, reach 4, 3-step blocks.  Walk 0 ends block 1 at
    # 3 = reach - 1 and is kept: it falls back to 2 and 1 in block 2, and
    # leaves at 5 after block 3.  Walk 1 ends block 2 at 4 = reach and is
    # asked for no uniforms after it.
    monkeypatch.setattr(verify, "_VOLKOV_CELLS", 6)
    rng = _BlockRng([[[1, 1, 1], [1, 1, 1]],
                     [[0, 0, 1], [1, 1, 0]],
                     [[1, 1, 1]]])
    passed = verify._volkov_chunk(0.5, (2, 3), 2, 12, 4, rng)
    assert rng.shapes == [(2, 3), (2, 3), (1, 3)]
    assert passed.tolist() == [[False, True], [False, True]]


def test_volkov_certify_reach_is_the_charged_depth():
    # reach = j + Delta, Delta the least depth whose fall r^Delta <= 2.5e-7
    for p, j in [(0.55, 6), (0.7, 10), (0.9, 2)]:
        _, reach, err = verify._volkov_certify(p, j, None)
        r = (1 - p) / p
        depth = reach - j
        assert r ** depth <= 2.5e-7 < r ** (depth - 1)
        assert err <= 1e-6


def test_volkov_pinned_values():
    # any change to the uniforms drawn, or to how a walk is judged, moves these
    r = verify.volkov_bc_experiment(0.55, 5, 6, 4096, seed=7)
    assert r.horizon == 8192
    assert (repr(r.single.estimate), repr(r.single.std_error)) == (
        "0.092529296875", "0.004527682488266509")
    assert (repr(r.joint.estimate), repr(r.joint.std_error)) == (
        "0.049072265625", "0.003375295790403008")
    r = verify.volkov_bc_experiment(0.7, 5, 10, 30_000, seed=11)
    assert r.horizon == 512
    assert (repr(r.single.estimate), repr(r.single.std_error)) == (
        "0.40253333333333335", "0.002831373335143736")
    assert (repr(r.joint.estimate), repr(r.joint.std_error)) == (
        "0.16433333333333333", "0.0021395317937100856")


def test_volkov_matches_gambler_across_time_blocks(monkeypatch):
    # 64-step blocks: walks cross many block boundaries before and after
    # their first hits
    monkeypatch.setattr(verify, "_VOLKOV_CELLS", 2048 * 64)
    res = verify.volkov_bc_experiment(0.6, 2, 4, 40_000, seed=21)
    single, _ = analytics.gambler_pass_once(0.6, math.inf)
    _, joint = analytics.gambler_pass_once(0.6, 2)
    assert abs(res.single.estimate - single) < 4 * res.single.std_error
    assert abs(res.joint.estimate - joint) < 4 * res.joint.std_error


def test_volkov_matches_gambler_with_short_blocks(monkeypatch):
    # 4-step blocks: walks leave soon after they first end a block at
    # j + Delta, where a shallower stop would drop the walks that fall back
    monkeypatch.setattr(verify, "_VOLKOV_CELLS", 2048 * 4)
    res = verify.volkov_bc_experiment(0.6, 2, 4, 40_000, seed=23)
    single, joint = analytics.gambler_pass_once(0.6, 2)
    assert abs(res.single.estimate - single) < 4 * res.single.std_error
    assert abs(res.joint.estimate - joint) < 4 * res.joint.std_error


def test_volkov_memory_bounded():
    # 16 walks of 2^20 steps: one walks x steps matrix of uniforms alone
    # would take 134 MB; streamed, memory stays a fixed multiple of
    # _VOLKOV_CELLS whatever the horizon
    tracemalloc.start()
    try:
        verify.volkov_bc_experiment(0.7, 5, 6, 16, horizon=1 << 20, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * verify._VOLKOV_CELLS


def test_volkov_memory_per_cell():
    # two 2048-walk chunks of 8192 steps; per cell of a time block: the
    # uniforms, their comparison mask and the last block's step signs, about
    # 10 bytes; the positions and the level mask come after the uniforms go
    tracemalloc.start()
    try:
        verify.volkov_bc_experiment(0.55, 5, 6, 4096, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * verify._VOLKOV_CELLS


def test_volkov_validation():
    with pytest.raises(ValueError):
        verify.volkov_bc_experiment(0.5, 1, 2, 100)
    with pytest.raises(ValueError):
        verify.volkov_bc_experiment(0.7, 3, 3, 100)
    with pytest.raises(ValueError):
        verify.volkov_bc_experiment(0.7, 0, 2, 100)
    with pytest.raises(ValueError):
        verify.volkov_bc_experiment(0.7, 1, 2, 100, horizon=16)
