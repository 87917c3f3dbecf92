import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turnwalk import analytics, oracle
from turnwalk.analytics import LyapunovConfig
from turnwalk.schedule import Constant, Critical, Explicit, Periodic, PowerDecay


# --- step-sign correlations ---

def test_correlation_examples():
    assert analytics.correlation_e(Constant(0.9), 7, 7) == 1.0
    assert analytics.correlation_e(Constant(0.5), 2, 4) == pytest.approx(0.25)
    # p_k = 1/k: telescoping product (10/11)(11/12)
    assert analytics.correlation_e(Critical(1.0, n0=1), 10, 12) == pytest.approx(10 / 12)


def test_correlation_reads_only_its_window():
    tracemalloc.start()
    try:
        e = analytics.correlation_e(Constant(0.5), 10 ** 7 - 1, 10 ** 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e == 0.5
    assert peak < 1 << 20  # a table of p_1..p_j would take 80 MB


@pytest.mark.parametrize("sched", [
    Constant(0.3), Critical(1, n0=2), Critical(2.0, n0=3), PowerDecay(1, 0.7),
    Periodic((0.1, 0.9, 0.35), n0=3), Explicit((1, 0.2, 0.77, 0.31))])
def test_correlation_equals_the_table_product_bit_for_bit(sched):
    # the window's factors, multiplied in step order, as np.prod of the table does
    for i, j in [(1, 2), (3, 3), (2, 40), (17, 1000), (999, 5000)]:
        table = sched.prefix_probs(j)
        assert analytics.correlation_e(sched, i, j) == float(np.prod(1.0 - table[i:j]))


def test_correlation_validation():
    with pytest.raises(ValueError):
        analytics.correlation_e(Constant(0.5), 3, 2)
    with pytest.raises(ValueError):
        analytics.correlation_e(Constant(0.5), 0, 2)
    with pytest.raises(ValueError, match="i 1.0 is not an integer"):
        analytics.correlation_e(Constant(0.5), 1.0, 2)


# --- symmetrized geometric moments ---

def test_sgeom_closed_forms():
    assert analytics.sgeom_moment(1.0, 2) == 1.0
    assert analytics.sgeom_moment(1.0, 4) == 1.0
    assert analytics.sgeom_moment(0.5, 2) == pytest.approx(6.0)
    assert analytics.sgeom_moment(0.5, 4) == pytest.approx(150.0)


def test_sgeom_rejects():
    with pytest.raises(ValueError):
        analytics.sgeom_moment(0.5, 3)
    with pytest.raises(ValueError):
        analytics.sgeom_moment(0.0, 2)


def test_sgeom_against_sampled_jumps():
    # signed geometric jump: magnitude Geometric(p), sign a fair coin
    p = 0.35
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    mags = rng.geometric(p, size=1_000_000).astype(float)
    for m in (2, 4):
        x = mags ** m
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - analytics.sgeom_moment(p, m)) < 4 * se


# --- fourth moment of the 1-d position ---

def _ref_fourth_moment_fraction(p, n):
    # O(n^4) definition: E (sum Y_i)^4 with E prod = q^(b-a) q^(d-c) on
    # sorted indices
    q = 1 - p
    total = Fraction(0)
    for quad in itertools.product(range(1, n + 1), repeat=4):
        a, b, c, d = sorted(quad)
        total += q ** ((b - a) + (d - c))
    return total


def _ref_fourth_moment_float(p, n):
    q = 1.0 - p
    idx = np.arange(1, n + 1)
    g = np.stack(np.meshgrid(idx, idx, idx, idx, indexing="ij"), axis=-1)
    g = np.sort(g.reshape(-1, 4), axis=1)
    return float(np.sum(q ** ((g[:, 1] - g[:, 0]) + (g[:, 3] - g[:, 2])).astype(float)))


def test_fourth_moment_matches_quadruple_loop_exact():
    for p in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 9)):
        for n in (1, 2, 3, 5, 8):
            assert analytics.fourth_moment_L(p, n) == _ref_fourth_moment_fraction(p, n)


def test_fourth_moment_matches_quadruple_loop_float():
    for p, n in ((0.3, 12), (0.62, 12), (0.5, 30)):
        assert analytics.fourth_moment_L(p, n) == pytest.approx(
            _ref_fourth_moment_float(p, n), rel=1e-12)


def test_fourth_moment_matches_pattern_enumeration():
    for p in (Fraction(1, 4), Fraction(2, 3)):
        for n in (2, 6, 10):
            assert analytics.fourth_moment_L(p, n) == oracle.brute_force_L_moment(p, n, 4)


def test_asymptotic_mode_closed_form():
    p, n = 0.4, 17
    expect = (3 * n ** 2 * (2 - p) ** 2 / p ** 2
              - 2 * n * (2 - p) * (p ** 2 + 12 * (1 - p)) / p ** 3
              + 8 * (1 - p) * (3 - 2 * p) * (3 - p) / p ** 4)
    assert analytics.fourth_moment_L(p, n, mode="asymptotic") == pytest.approx(expect)


def test_asymptotic_error_decays_like_n_q_n(fixtures):
    # the gap between modes, measured in units of n q^n, computed in exact
    # rational arithmetic (floats cannot resolve it: the two values agree to
    # 16 digits at n = 50)
    p = Fraction(1, 2)
    n = 50
    exact = analytics.fourth_moment_L(p, n, mode="exact")
    asym = (3 * n ** 2 * (2 - p) ** 2 / p ** 2
            - 2 * n * (2 - p) * (p ** 2 + 12 * (1 - p)) / p ** 3
            + 8 * (1 - p) * (3 - 2 * p) * (3 - p) / p ** 4)
    ratio = abs(exact - asym) / (n * (1 - p) ** n)
    assert ratio == Fraction(392, 5)
    assert float(ratio) == fixtures["el4_remainder_ratio_p_half_n50"]
    assert ratio <= 100


def test_fourth_moment_validation():
    with pytest.raises(ValueError):
        analytics.fourth_moment_L(0.5, 0)
    with pytest.raises(ValueError):
        analytics.fourth_moment_L(1.0, 5)
    with pytest.raises(ValueError):
        analytics.fourth_moment_L(0.5, 5, mode="series")


# --- tail bound ---

def test_ld_bound_values():
    assert analytics.ld_bound(0.9, 20.0, 2) == pytest.approx(
        2 * math.exp(-0.81 * (20 / math.sqrt(2)) / 5))
    assert analytics.ld_bound(0.9, 20.0, 2) == pytest.approx(0.20232, abs=1e-5)
    assert analytics.ld_bound(0.8, 10.0, 1) == pytest.approx(2 * math.exp(-0.64 * 10 / 5))


def test_ld_bound_clamps_to_one():
    assert analytics.ld_bound(0.5, 2.0, 1) == 1.0
    assert analytics.ld_bound(0.5, 4.0, 2) == 1.0


def test_ld_bound_thresholds():
    with pytest.raises(ValueError):
        analytics.ld_bound(0.5, 0.9, 1)
    with pytest.raises(ValueError):
        analytics.ld_bound(0.5, 1.2, 2)  # needs a >= sqrt(2)
    with pytest.raises(ValueError):
        analytics.ld_bound(0.0, 2.0, 1)
    with pytest.raises(ValueError):
        analytics.ld_bound(0.5, 2.0, 0)


# --- planar log-distance drift ---

def test_lyapunov_config_validation():
    with pytest.raises(ValueError):
        LyapunovConfig(0.0, 40.0)
    with pytest.raises(ValueError):
        LyapunovConfig(0.5, 0.5)
    with pytest.raises(ValueError):
        LyapunovConfig(0.5, 40.0, truncation_tail=1e-3)
    with pytest.raises(ValueError):
        LyapunovConfig(0.5, 40.0, truncation_tail=0.0)


def test_lyapunov_drift_validation():
    cfg = LyapunovConfig(0.5, 40.0)
    with pytest.raises(ValueError):
        analytics.lyapunov_drift(cfg, (1, 2, 3))
    with pytest.raises(ValueError):
        analytics.lyapunov_drift(cfg, (6, 0))  # |z|^2 = 36 <= a + 1
    for position in ((1e200, 0), (1e154, 0), (0, -1e100)):  # |z|^4 overflows
        with pytest.raises(ValueError, match="position"):
            analytics.lyapunov_drift(cfg, position)
    assert math.isfinite(analytics.lyapunov_drift(cfg, (1e76, 0)))


def test_lyapunov_drift_fixture(fixtures):
    drift = analytics.lyapunov_drift(LyapunovConfig(0.5, 40.0), (1000, 0))
    assert drift == pytest.approx(fixtures["lyapunov_drift_p05_a40_x1000"], rel=1e-12)


def test_lyapunov_drift_negative_on_radius_grid():
    cfg = LyapunovConfig(0.5, 43.0)
    for pos in [(100, 0), (120, 50), (200, 200), (300, 41), (425, 0)]:
        assert analytics.lyapunov_drift(cfg, pos) < 0.0


def test_lyapunov_drift_magnitude_decreases_with_radius():
    cfg = LyapunovConfig(0.5, 43.0, truncation_tail=1e-16)
    drifts = [analytics.lyapunov_drift(cfg, (r, 0)) for r in (100, 200, 400, 800)]
    assert all(d < 0 for d in drifts)
    assert all(abs(b) < abs(a) for a, b in zip(drifts, drifts[1:]))


def test_lyapunov_drift_matches_direct_summation():
    # independent reference: term-by-term expectation plus the same
    # remainder formula; fsum keeps the cancellation under control
    p, a, tail = 0.5, 43.0, 1e-12
    x, y = 50.0, 10.0
    q = 1 - p
    M = math.ceil(math.log(tail) / math.log(q))
    fz = math.log(x * x + y * y - a)
    terms = []
    for m in range(1, M + 1):
        w = 0.25 * p * q ** (m - 1)
        for dx, dy in ((m, 0), (-m, 0), (0, m), (0, -m)):
            r2 = (x + dx) ** 2 + (y + dy) ** 2
            f_new = math.log(r2 - a) if r2 - a >= 1 else 0.0
            terms.append(w * (f_new - fz))
    r2 = x * x + y * y
    remainder = q ** M * (fz + math.log(2 * r2 + 2 * M * M) + 2 / (M * p))
    ref = math.fsum(terms) + remainder
    got = analytics.lyapunov_drift(LyapunovConfig(p, a, tail), (x, y))
    assert got == pytest.approx(ref, abs=1e-12)


def _paired_drift_unchunked(p, a, tail, x, y):
    # the paired log1p sum over all M magnitudes at once, plus the remainder
    q = 1 - p
    M = math.ceil(math.log(tail) / math.log1p(-p))
    r2 = x * x + y * y
    m = np.arange(1, M + 1, dtype=float)
    w = 0.25 * p * q ** (m - 1.0)
    A = r2 - a
    ux = m * m * (2.0 * A + m * m - 4.0 * x * x) / (A * A)
    uy = m * m * (2.0 * A + m * m - 4.0 * y * y) / (A * A)
    fz = math.log(A)
    remainder = q ** M * (fz + math.log(2 * r2 + 2 * M * M) + 2 / (M * p))
    return float(np.sum(w * (np.log1p(ux) + np.log1p(uy)))) + remainder


def test_lyapunov_drift_one_chunk_is_the_unchunked_sum():
    # M = 40 fits one chunk, so the drift is the old single sum bit for bit
    got = analytics.lyapunov_drift(LyapunovConfig(0.5, 43.0), (200, 0))
    assert got == _paired_drift_unchunked(0.5, 43.0, 1e-12, 200.0, 0.0)


def test_lyapunov_drift_chunks_match_unchunked(monkeypatch):
    # M = 2750 magnitudes in chunks of 64
    monkeypatch.setattr(analytics, "_MAGNITUDE_CHUNK", 64)
    got = analytics.lyapunov_drift(LyapunovConfig(0.01, 43.0), (3000, 4000))
    assert got == pytest.approx(_paired_drift_unchunked(0.01, 43.0, 1e-12, 3000.0, 4000.0),
                                rel=1e-12)


def test_lyapunov_drift_tiny_p_in_bounded_memory():
    # p = 1e-6: M = 27,631,008, which the unchunked sum held as five arrays
    # of 221 MB each; here the reference sums the same terms in 10^6 slices
    p, a, tail, x, y = 1e-6, 43.0, 1e-12, 1e4, 1e4
    tracemalloc.start()
    try:
        got = analytics.lyapunov_drift(LyapunovConfig(p, a, tail), (x, y))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    q, M, A = 1 - p, math.ceil(math.log(tail) / math.log1p(-p)), x * x + y * y - a
    assert M == 27_631_008
    parts = []
    for lo in range(1, M + 1, 10 ** 6):
        m = np.arange(lo, min(lo + 10 ** 6, M + 1), dtype=float)
        u = m * m * (2.0 * A + m * m - 4.0 * x * x) / (A * A)  # x == y
        parts.append(float(np.sum(0.5 * p * q ** (m - 1.0) * np.log1p(u))))
    fz = math.log(A)
    ref = math.fsum(parts) + q ** M * (fz + math.log(2 * (A + a) + 2 * M * M) + 2 / (M * p))
    assert got == pytest.approx(ref, rel=1e-12)


def test_lyapunov_drift_near_disc_uses_plateau():
    # reachable points inside the disc contribute f = 0; just check the
    # fallback evaluates and bounds stay finite
    val = analytics.lyapunov_drift(LyapunovConfig(0.5, 43.0), (7, 0))
    assert math.isfinite(val)


def test_lyapunov_tighter_tail_reduces_remainder():
    loose = analytics.lyapunov_drift(LyapunovConfig(0.5, 43.0, 1e-8), (2000, 0))
    tight = analytics.lyapunov_drift(LyapunovConfig(0.5, 43.0, 1e-16), (2000, 0))
    # both are upper bounds on the same true drift; the tight one is smaller
    assert tight < loose
    assert tight < 0.0


# --- pass-once probabilities ---

def test_gambler_examples():
    single, joint = analytics.gambler_pass_once(0.7, math.inf)
    assert single == pytest.approx(0.4)
    assert joint == pytest.approx(0.16)
    _, joint1 = analytics.gambler_pass_once(0.7, 1)
    assert joint1 == pytest.approx(0.28)


def test_gambler_validation():
    with pytest.raises(ValueError):
        analytics.gambler_pass_once(0.5, 1)
    with pytest.raises(ValueError):
        analytics.gambler_pass_once(0.7, 0)
    with pytest.raises(ValueError):
        analytics.gambler_pass_once(0.7, 2.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.501, max_value=0.999),
       st.integers(min_value=1, max_value=60))
def test_gambler_joint_monotone_and_bracketed(p, gap):
    single, joint = analytics.gambler_pass_once(p, gap)
    _, joint_next = analytics.gambler_pass_once(p, gap + 1)
    _, joint_inf = analytics.gambler_pass_once(p, math.inf)
    assert joint_inf <= joint_next <= joint <= single * p + 1e-15
    assert joint >= single ** 2


# --- low-fractional-part counting ---

def test_count_arith_examples():
    assert analytics.count_arith_progression(0.5, 0.0, 2) == 1
    assert analytics.count_arith_progression(0.25, 0.0, 4) == 2
    for s0 in (1e300, -1e300):  # integers, so the counts of s0 = 0
        assert analytics.count_arith_progression(0.25, s0, 4) == 2
        assert analytics.count_arith_progression(0.3, s0, 40) == \
            analytics.count_arith_progression(0.3, 0.0, 40)


def test_count_arith_exact_path_boundary():
    # fractional part exactly 1/2 is excluded
    s, s0 = Fraction(1, 3), Fraction(1, 6)
    assert analytics.count_arith_progression(s, s0, 6) == 2


def test_count_arith_float_matches_exact_on_dyadics():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(13)))
    for _ in range(200):
        num = int(rng.integers(1, 33))
        s = Fraction(num, 64)
        s0 = Fraction(int(rng.integers(0, 128)), 128)
        m_low = max(2, int(math.ceil(64 / num)))
        M = int(rng.integers(m_low, m_low + 400))
        exact = analytics.count_arith_progression(s, s0, M)
        approx = analytics.count_arith_progression(float(s), float(s0), M)
        assert exact == approx


def test_count_arith_validation():
    with pytest.raises(ValueError):
        analytics.count_arith_progression(0.6, 0.0, 10)
    with pytest.raises(ValueError):
        analytics.count_arith_progression(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        analytics.count_arith_progression(0.25, 0.0, 1)
    with pytest.raises(ValueError):
        analytics.count_arith_progression(0.01, 0.0, 50)  # M s < 1


# --- cosine averages ---

def test_cosine_bound_at_zero():
    h, bound = analytics.cosine_sum_bound([0.5, 0.3, 0.2], 2, 0.4, 0.0)
    assert h == 1.0
    assert bound == 1.0


def test_cosine_bound_single_atom():
    h, bound = analytics.cosine_sum_bound([1.0], 1, 0.5, math.pi / 2)
    assert h == pytest.approx(0.0, abs=1e-15)
    assert bound == pytest.approx(0.5)


def test_cosine_bound_validation():
    with pytest.raises(ValueError):
        analytics.cosine_sum_bound([0.6, 0.5], 2, 0.4, 0.1)  # sums to 1.1
    with pytest.raises(ValueError):
        analytics.cosine_sum_bound([0.5, 0.5], 3, 0.4, 0.1)  # M too large
    with pytest.raises(ValueError):
        analytics.cosine_sum_bound([0.9, 0.1], 2, 0.4, 0.1)  # q_2 < a/M
    with pytest.raises(ValueError):
        analytics.cosine_sum_bound([0.5, 0.5], 2, 0.4, 2.0)  # s > pi/2
    with pytest.raises(ValueError):
        analytics.cosine_sum_bound([0.5, 0.5], 2, 0.0, 0.1)


def test_cosine_bound_dominates_on_random_distributions():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(29)))
    for _ in range(100):
        M = int(rng.integers(1, 12))
        a = float(rng.uniform(0.05, 1.0))
        # floor a/M on the first M entries keeps the hypothesis satisfied
        extra = int(rng.integers(0, 4))
        bulk = rng.dirichlet(np.ones(M + extra)) * (1.0 - a)
        q = bulk.copy()
        q[:M] += a / M
        s = float(rng.uniform(0.0, math.pi / 2))
        h, bound = analytics.cosine_sum_bound(q, M, a, s)
        assert h <= bound + 1e-12


def test_one_minus_cos_quadratic_lower_bound():
    # pointwise inequality behind the linear bound: 1 - cos(t) >= t^2 / 4
    # on |t| <= 2
    t = np.linspace(-2.0, 2.0, 10_001)
    assert np.all(1.0 - np.cos(t) >= t * t / 4.0 - 1e-15)
