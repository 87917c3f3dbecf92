import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turnwalk import verify, zigzag
from turnwalk.verify import ks_critical, ks_two_sample, poisson_gof
from turnwalk.walk import Direction
from turnwalk.zigzag import LabeledIntervals, PPPRealization, ZigzagPath


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_b_from_a_values():
    assert zigzag.b_from_a(1.0, 2) == pytest.approx(0.75)
    assert zigzag.b_from_a(2.0, 3) == pytest.approx(5 / 3)
    with pytest.raises(ValueError):
        zigzag.b_from_a(0.0, 2)
    with pytest.raises(ValueError):
        zigzag.b_from_a(1.0, 0)


def test_sample_ppp_epsilon_equal_horizon_is_empty():
    ppp = zigzag.sample_ppp(1.0, 2.0, 2.0, _rng(1))
    assert ppp.points == ()
    assert ppp.epsilon == ppp.horizon == 2.0


def test_sample_ppp_points_sorted_in_window():
    rng = _rng(2)
    for _ in range(200):
        ppp = zigzag.sample_ppp(2.0, 0.05, 3.0, rng)
        pts = np.asarray(ppp.points)
        assert np.all(np.diff(pts) > 0) if pts.size > 1 else True
        if pts.size:
            assert pts[0] > 0.05 and pts[-1] <= 3.0


def test_sample_ppp_default_epsilon():
    ppp = zigzag.sample_ppp(1.0, None, 10.0, _rng(3))
    assert ppp.epsilon == pytest.approx(1e-3)


def test_sample_ppp_validation():
    rng = _rng(4)
    with pytest.raises(ValueError):
        zigzag.sample_ppp(0.0, 0.1, 1.0, rng)
    with pytest.raises(ValueError):
        zigzag.sample_ppp(1.0, 2.0, 1.0, rng)
    with pytest.raises(ValueError):
        zigzag.sample_ppp(1.0, 0.0, 1.0, rng)


@pytest.mark.parametrize("epsilon, T", [(None, math.inf), (0.1, math.inf),
                                        (None, math.nan), (math.nan, 1.0)])
def test_sample_ppp_refuses_non_finite_window(epsilon, T):
    with pytest.raises(ValueError, match="finite horizon"):
        zigzag.sample_ppp(1.0, epsilon, T, _rng(4))


def test_sample_ppp_mean_count():
    # log-uniform construction: the count is Poisson(b ln(T/eps))
    rng = _rng(5)
    lam = math.log(100.0)
    counts = np.array([len(zigzag.sample_ppp(1.0, 0.01, 1.0, rng).points)
                       for _ in range(100_000)], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - lam) < 4 * se


@pytest.mark.parametrize("b,delta", [(0.75, 0.1), (0.75, 0.25),
                                     (1.5, 0.1), (1.5, 0.25)])
def test_ppp_count_is_poisson(b, delta):
    rng = _rng(int(b * 100) + int(delta * 1000))
    counts = np.array([len(zigzag.sample_ppp(b, delta, 1.0, rng).points)
                       for _ in range(100_000)])
    stat, crit, dof = poisson_gof(counts, b * math.log(1.0 / delta))
    assert dof >= 2
    assert stat < crit


def test_ppp_disjoint_windows_independent():
    # counts in (0.01, 0.1] and (0.1, 1] form independent Poissons
    from scipy.stats import chi2_contingency
    rng = _rng(6)
    lo, hi = [], []
    for _ in range(20_000):
        pts = np.asarray(zigzag.sample_ppp(0.5, 0.01, 1.0, rng).points)
        lo.append(np.count_nonzero(pts <= 0.1))
        hi.append(np.count_nonzero(pts > 0.1))
    lo = np.minimum(lo, 3)  # pool the tail
    hi = np.minimum(hi, 3)
    table = np.zeros((4, 4))
    np.add.at(table, (lo, hi), 1)
    _, pval, _, _ = chi2_contingency(table)
    assert pval > 0.01


def test_label_intervals_empty_realization():
    ppp = PPPRealization(points=(), epsilon=0.2, horizon=2.0, intensity_b=1.0)
    iv = zigzag.label_intervals(ppp, 2, _rng(7))
    assert iv.boundaries == (0.2, 2.0)
    assert len(iv.labels) == 1


def test_label_intervals_single_interval_uniform():
    ppp = PPPRealization(points=(), epsilon=0.2, horizon=2.0, intensity_b=1.0)
    rng = _rng(8)
    freq = np.zeros(4)
    for _ in range(20_000):
        freq[zigzag.label_intervals(ppp, 2, rng).labels[0].index] += 1
    chi2 = np.sum((freq - 5_000.0) ** 2 / 5_000.0)
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.99, 3)


def test_label_chain_marginals_uniform_fixed_points():
    # symmetric neighbor transitions keep every interval's marginal uniform,
    # wherever the anchor interval is
    from scipy.stats import chi2 as chi2_dist
    ppp = PPPRealization(points=(0.3, 0.8, 1.4, 2.5), epsilon=0.1,
                         horizon=3.0, intensity_b=1.0)
    rng = _rng(9)
    draws = 20_000
    freq = np.zeros((5, 4))
    for _ in range(draws):
        iv = zigzag.label_intervals(ppp, 2, rng)
        for k, lab in enumerate(iv.labels):
            freq[k, lab.index] += 1
    expected = draws / 4.0
    for k in range(5):
        chi2 = np.sum((freq[k] - expected) ** 2 / expected)
        assert chi2 < chi2_dist.ppf(0.999, 3)


def test_label_intervals_adjacent_differ():
    rng = _rng(10)
    for _ in range(200):
        ppp = zigzag.sample_ppp(3.0, 0.01, 2.0, rng)
        iv = zigzag.label_intervals(ppp, 2, rng)
        assert all(a != b for a, b in zip(iv.labels, iv.labels[1:]))


def test_label_intervals_d1_alternates():
    rng = _rng(11)
    ppp = zigzag.sample_ppp(5.0, 0.01, 2.0, rng)
    iv = zigzag.label_intervals(ppp, 1, rng)
    assert all(lab.axis == 0 for lab in iv.labels)
    assert all(a.sign == -b.sign for a, b in zip(iv.labels, iv.labels[1:]))


def test_label_intervals_anchor_must_exist():
    rng = _rng(12)
    with pytest.raises(ValueError):
        zigzag.label_intervals(
            PPPRealization((), epsilon=1.5, horizon=2.0, intensity_b=1.0), 2, rng)
    with pytest.raises(ValueError):
        zigzag.label_intervals(
            PPPRealization((), epsilon=0.1, horizon=0.9, intensity_b=1.0), 2, rng)


def test_labeled_intervals_validation():
    d01 = Direction(0, 1)
    d11 = Direction(1, 1)
    with pytest.raises(ValueError):
        LabeledIntervals(d=2, boundaries=(0.1, 1.0), labels=(d01, d11))
    with pytest.raises(ValueError):
        LabeledIntervals(d=2, boundaries=(0.1, 0.5, 1.0), labels=(d01, d01))


def test_position_single_interval():
    iv = LabeledIntervals(d=2, boundaries=(0.2, 2.0), labels=(Direction(0, 1),))
    path = ZigzagPath(iv)
    assert path.position_at(1.0) == pytest.approx((0.8, 0.0))
    assert path.position_at(2.0) == pytest.approx((1.8, 0.0))
    with pytest.raises(ValueError):
        path.position_at(0.2)
    with pytest.raises(ValueError):
        path.position_at(2.5)


def test_position_two_intervals():
    iv = LabeledIntervals(d=2, boundaries=(0.1, 0.6, 2.0),
                          labels=(Direction(0, 1), Direction(1, -1)))
    path = ZigzagPath(iv)
    assert path.position_at(0.5) == pytest.approx((0.4, 0.0))
    assert path.position_at(1.5) == pytest.approx((0.5, -0.9))


def test_positions_grid_shape():
    iv = LabeledIntervals(d=3, boundaries=(0.1, 1.0), labels=(Direction(2, 1),))
    grid = ZigzagPath(iv).positions([0.2, 0.5, 1.0])
    assert grid.shape == (3, 3)
    assert grid[:, 2] == pytest.approx([0.1, 0.4, 0.9])


def test_unit_speed_in_l1():
    rng = _rng(13)
    for _ in range(1_000):
        ppp = zigzag.sample_ppp(2.0, 0.05, 2.0, rng)
        path = ZigzagPath(zigzag.label_intervals(ppp, 2, rng))
        s, t = sorted(rng.uniform(0.05, 2.0, size=2))
        if s <= 0.05:
            continue
        zs, zt = path.position_at(s), path.position_at(t)
        gap = sum(abs(a - b) for a, b in zip(zs, zt))
        assert gap <= (t - s) + 1e-12
        assert sum(abs(c) for c in zt) <= (t - 0.05) + 1e-12


def test_truncation_bias_within_epsilon():
    # lowering the cutoff moves E|Z_1| by at most the sum of the cutoffs
    rng = _rng(14)

    def mean_abs(eps, n):
        out = np.empty(n)
        for k in range(n):
            ppp = zigzag.sample_ppp(0.75, eps, 1.0, rng)
            path = ZigzagPath(zigzag.label_intervals(ppp, 2, rng))
            out[k] = abs(path.position_at(1.0)[0])
        return out

    coarse = mean_abs(0.2, 20_000)
    fine = mean_abs(0.02, 20_000)
    se = math.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / math.sqrt(20_000)
    assert abs(coarse.mean() - fine.mean()) <= 0.2 + 0.02 + 4 * se


def test_zigzag_csv_exports():
    iv = LabeledIntervals(d=2, boundaries=(0.1, 0.6, 2.0),
                          labels=(Direction(0, 1), Direction(1, -1)))
    path = ZigzagPath(iv)
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "left,right,axis,sign"
    assert lines[1] == "0.1,0.6,0,1"
    assert len(lines) == 3

    buf = io.StringIO()
    path.trajectory_to_csv([0.5, 1.5], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,z_1,z_2"
    assert len(lines) == 3
    t, z1, z2 = (float(v) for v in lines[2].split(","))
    assert (t, z1, z2) == pytest.approx((1.5, 0.5, -0.9))


def test_ppp_realization_validation():
    with pytest.raises(ValueError):
        PPPRealization(points=(0.5, 0.5), epsilon=0.1, horizon=1.0, intensity_b=1.0)
    with pytest.raises(ValueError):
        PPPRealization(points=(0.05,), epsilon=0.1, horizon=1.0, intensity_b=1.0)


def test_zigzag_endpoint_sampler_matches_interval_construction():
    # vectorized batch sampler vs the literal construction, per coordinate
    rng = verify.stream_rng(17, "zigzag")
    vec = zigzag.sample_endpoints(2, 0.75, 0.1, 30_000, rng)
    assert vec.shape == (30_000, 2)
    scal = np.empty((5_000, 2))
    rng2 = verify.stream_rng(18, "zigzag")
    for k in range(scal.shape[0]):
        ppp = zigzag.sample_ppp(0.75, 0.1, 1.0, rng2)
        path = ZigzagPath(zigzag.label_intervals(ppp, 2, rng2))
        scal[k] = path.position_at(1.0)
    thresh = ks_critical(0.001) * math.sqrt((30_000 + 5_000) / (30_000 * 5_000))
    for c in range(2):
        assert ks_two_sample(vec[:, c], scal[:, c]) < thresh
    norms = np.hypot(vec[:, 0], vec[:, 1]), np.hypot(scal[:, 0], scal[:, 1])
    assert ks_two_sample(*norms) < thresh


def test_sample_endpoints_validation():
    with pytest.raises(ValueError):
        zigzag.sample_endpoints(0, 0.75, 0.1, 10, _rng())
    with pytest.raises(ValueError):
        zigzag.sample_endpoints(2, 0.0, 0.1, 10, _rng())
    with pytest.raises(ValueError):
        zigzag.sample_endpoints(2, 0.75, 1.5, 10, _rng())


@pytest.mark.parametrize("d, digest", [
    (1, "2c086e400ad465199a4a2646dd2574cd40e98e58a8059a0b3ada0ed74108dd4f"),
    (2, "91224805b03071824abd37121e3c732066f371558de1da324abf0ba201045dea"),
    (3, "a3360810e417b9ee91e3f8f6079ae1c56d47eac8e37043d3870c236b565f9d9d"),
])
def test_sample_endpoints_pinned_digest(d, digest):
    # the endpoints' float64 bytes, hashed: the samples grouped by count,
    # each group's points drawn as exponential spacings, and the lengths
    # summed in interval order give these bits
    out = zigzag.sample_endpoints(d, zigzag.b_from_a(1, d), 0.1, 20_000,
                                  np.random.default_rng(d))
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_sample_endpoints_memory():
    # the verify critical --d 3 batch: 10^5 samples, about 1.9 points each
    tracemalloc.start()
    try:
        zigzag.sample_endpoints(3, zigzag.b_from_a(1, 3), 0.1, 100_000,
                                np.random.default_rng(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9.8e6  # 8.54 MB measured, plus 15%


def test_huge_intensity_refused_before_any_draw():
    # 10^12 ln(10^4) points per path, or 10^12 ln 2 per sample, fit in no memory
    rng = _rng(5)
    with pytest.raises(ValueError, match=r"b = 1000000000000.0 on \(epsilon, T\]"):
        zigzag.sample_ppp(1e12, None, 1.0, rng)
    with pytest.raises(ValueError, match="b = 1000000000000.0 and epsilon = 0.5"):
        zigzag.sample_endpoints(1, 1e12, 0.5, 10, rng)
    assert np.array_equal(rng.random(4), _rng(5).random(4))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), b=st.floats(0.05, 20.0),
       epsilon=st.floats(1e-6, 1.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_endpoints_within_l1_ball(d, b, epsilon, seed):
    # unit speed on (epsilon, 1]: every endpoint has |Z|_1 <= 1 - epsilon
    out = zigzag.sample_endpoints(d, b, epsilon, 200, _rng(seed))
    assert out.shape == (200, d)
    assert np.all(np.abs(out).sum(axis=1) <= 1.0 - epsilon + 1e-12)
