import dataclasses
import hashlib
import io
import json
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from turnwalk import analytics, oracle, verify, walk, zigzag
from turnwalk.schedule import (Constant, Critical, Explicit, Periodic, PowerDecay,
                               classify_regime)
from turnwalk.walk import Direction, Path, TurnEvent, WalkState


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@given(st.integers(min_value=1, max_value=6))
def test_direction_index_round_trip(d):
    dirs = walk.all_directions(d)
    assert len(dirs) == 2 * d
    assert len(set(dirs)) == 2 * d
    for dr in dirs:
        assert Direction.from_index(dr.index) == dr
        vec = dr.vector(d)
        assert sum(abs(v) for v in vec) == 1
        assert vec[dr.axis] == dr.sign


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(0, 2)
    with pytest.raises(ValueError):
        Direction(-1, 1)
    with pytest.raises(ValueError):
        Direction(1, 1).vector(1)


def test_step_p_zero_preserves_direction():
    rng = _rng(5)
    state = WalkState((0, 0), Direction(1, -1), 3)
    for _ in range(200):
        new = walk.step(state, Constant(0.0), rng)
        assert new.direction == Direction(1, -1)
        assert new.time == state.time + 1
        state = new
    assert state.position == (0, -200)


def test_step_p_one_d1_is_fair_coin():
    rng = _rng(6)
    state = WalkState((0,), Direction(0, 1), 0)
    ups = sum(walk.step(state, Constant(1.0), rng).direction.sign == 1
              for _ in range(40_000))
    # binomial(40000, 1/2): 4 s.e. = 0.01
    assert abs(ups / 40_000 - 0.5) < 0.01


def test_step_d2_change_probability():
    # P(direction changes) = 3p/4: update (p) times drawing one of the
    # other three directions (3/4)
    p = 0.6
    rng = _rng(7)
    state = WalkState((0, 0), Direction(0, 1), 9)
    changed = sum(walk.step(state, Constant(p), rng).direction != state.direction
                  for _ in range(40_000))
    se = math.sqrt(0.45 * 0.55 / 40_000)
    assert abs(changed / 40_000 - 3 * p / 4) < 4 * se


def test_simulate_zero_steps():
    path = walk.simulate(2, Constant(0.5), 0, _rng())
    assert path.events == ()
    assert path.endpoint() == (0, 0)
    assert path.horizon == 0


def test_simulate_endpoint_l1_bound_and_start():
    rng = _rng(1)
    for _ in range(50):
        n = int(rng.integers(0, 40))
        path = walk.simulate(2, Constant(0.3), n, rng, start=(5, -2))
        end = path.endpoint()
        assert abs(end[0] - 5) + abs(end[1] + 2) <= n


def test_simulate_events_constant_one_updates_every_step():
    path = walk.simulate_events(2, Constant(1.0), 12, _rng(3))
    assert [ev.update_time for ev in path.events] == list(range(1, 13))


def test_mean_gap_geometric_half():
    # inter-update gaps for Constant(0.5) are Geometric(1/2), mean 2
    rng = _rng(11)
    gaps = []
    for _ in range(200):
        path = walk.simulate_events(1, Constant(0.5), 10_000, rng)
        t = [ev.update_time for ev in path.events]
        gaps.extend(b - a for a, b in zip(t, t[1:]))
    gaps = np.asarray(gaps, dtype=float)
    assert gaps.size > 900_000
    se = gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert abs(gaps.mean() - 2.0) < 3 * se


def test_embedded_jump_moments():
    # |xi| is Geometric(p): mean 1/p, variance (1-p)/p^2
    p = 0.45
    rng = _rng(12)
    mags = []
    for _ in range(400):
        path = walk.simulate_events(2, Constant(p), 2_000, rng)
        mags.extend(length for _direction, length in walk.embedded_jumps(path))
    mags = np.asarray(mags, dtype=float)
    n = mags.size
    se_mean = mags.std(ddof=1) / math.sqrt(n)
    assert abs(mags.mean() - 1 / p) < 4 * se_mean
    # variance of the sample variance for a geometric, via the 4th moment
    m = mags.mean()
    cent4 = ((mags - m) ** 4).mean()
    var = mags.var(ddof=1)
    se_var = math.sqrt(max(cent4 - var ** 2, 0.0) / n)
    assert abs(var - (1 - p) / p ** 2) < 4 * se_var


def _tv_against_oracle(d, schedule, n, samples, seed, sampler):
    dist = oracle.exact_distribution(d, schedule, n)
    marg = dist.marginal_positions()
    rng = _rng(seed)
    if sampler in ("step", "events"):
        pos = walk.sample_positions(d, schedule, n, samples, rng,
                                    method=sampler).at(n)
        rows = [tuple(int(v) for v in row) for row in pos]
    else:
        fn = walk.simulate if sampler == "scalar-step" else walk.simulate_events
        rows = [fn(d, schedule, n, rng).endpoint() for _ in range(samples)]
    emp = {}
    for r in rows:
        emp[r] = emp.get(r, 0) + 1
    keys = set(emp) | set(marg)
    return 0.5 * sum(abs(emp.get(k, 0) / samples - marg.get(k, 0.0)) for k in keys)


# schedule mixing a forced step with low and high rates
_MIXED = Explicit((0.3, 0.05, 1.0, 0.02, 0.9, 0.4, 0.07, 0.6))


@pytest.mark.parametrize("sampler", ["scalar-step", "scalar-events"])
def test_scalar_samplers_match_oracle_mixed_schedule(sampler):
    tv = _tv_against_oracle(1, _MIXED, 8, 30_000, 21, sampler)
    assert tv < 0.02


@pytest.mark.parametrize("sampler", ["step", "events"])
def test_batch_engines_match_oracle_mixed_schedule(sampler):
    tv = _tv_against_oracle(1, _MIXED, 8, 200_000, 22, sampler)
    assert tv < 0.008


@pytest.mark.parametrize("sampler", ["step", "events"])
def test_batch_engines_match_oracle_d2(sampler):
    tv = _tv_against_oracle(2, Explicit((1.0, 0.05, 0.9)), 3, 200_000, 23, sampler)
    assert tv < 0.008


def _chi_square_pvalue(points, law):
    """Endpoint cells against an exact law; cells expecting < 5 are pooled."""
    uniq, freq = np.unique(points, axis=0, return_counts=True)
    counts = {tuple(int(v) for v in row): c for row, c in zip(uniq, freq)}
    assert set(counts) <= set(law)  # nothing outside the support
    cells = sorted(law, key=law.get)
    expected = np.array([law[c] for c in cells]) * len(points)
    observed = np.array([counts.get(c, 0) for c in cells], dtype=float)
    # pool the smallest cells until every cell expects at least 5
    cut = 0
    while cut < expected.size and (expected[cut] < 5.0
                                   or 0 < expected[:cut].sum() < 5.0):
        cut += 1
    if cut:
        expected = np.append(expected[cut:], expected[:cut].sum())
        observed = np.append(observed[cut:], observed[:cut].sum())
    if expected.size < 2:
        return 1.0
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, expected.size - 1))


@pytest.mark.parametrize("d, n", [(1, 9), (2, 7), (3, 5), (2, 1)])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0, Fraction(1, 3)])
def test_constant_endpoint_shortcut_matches_oracle(d, n, p):
    law = oracle.exact_distribution(d, Constant(p), n).marginal_positions()
    pos = walk.sample_positions(d, Constant(p), n, 200_000, _rng(24)).at(n)
    assert _chi_square_pvalue(pos, law) > 1e-3


def test_constant_endpoint_shortcut_zero_horizon():
    out = walk.sample_positions(3, Constant(0.5), 0, 10, _rng(25))
    assert np.array_equal(out.at(0), np.zeros((10, 3), dtype=np.int64))


def test_constant_shortcut_taken_only_for_endpoints(monkeypatch):
    calls = []
    real = walk._constant_endpoints

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(walk, "_constant_endpoints", spy)
    rng = _rng(26)
    walk.sample_positions(2, Constant(0.5), 20, 50, rng)
    assert len(calls) == 1
    # snapshots, change windows, the per-step law and other schedules all
    # run the engines
    walk.sample_positions(2, Constant(0.5), 20, 50, rng, times=(5, 20))
    walk.sample_positions(2, Constant(0.5), 20, 50, rng,
                          count_changes_in=(10, 20))
    walk.sample_positions(2, Constant(0.5), 20, 50, rng, method="step")
    walk.sample_positions(2, Critical(1.0), 20, 50, rng)
    assert len(calls) == 1


def test_samplers_reject_nonpositive_dimension():
    with pytest.raises(ValueError, match="d must be"):
        walk.sample_positions(0, Constant(0.5), 5, 10, _rng())
    with pytest.raises(ValueError, match="d must be"):
        walk.sample_visit_stats(0, Constant(0.5), 5, 10, _rng())
    with pytest.raises(ValueError, match="d must be"):
        walk.simulate(0, Constant(0.5), 5, _rng())
    with pytest.raises(ValueError, match="d must be"):
        walk.simulate_events(-1, Constant(0.5), 5, _rng())


def test_visit_stats_validates_samples_and_horizons():
    # checked up front, not left to an IndexError or to numpy's shape error
    with pytest.raises(ValueError, match="horizons must be nonempty"):
        walk.sample_visit_stats(2, Constant(0.5), 5, 10, _rng(), horizons=[])
    with pytest.raises(ValueError, match="samples must be >= 0, got -1"):
        walk.sample_visit_stats(2, Constant(0.5), 5, -1, _rng())
    empty = walk.sample_visit_stats(2, Constant(0.5), 5, 0, _rng())
    assert empty.counts[5].shape == (0,)


# d > 128 has more than 256 direction codes, more than one byte holds

@pytest.mark.parametrize("d", [130, 200])
def test_run_engine_positions_beyond_256_direction_codes(d):
    pos = walk.sample_positions(d, Critical(1.0), 10, 5, _rng(1)).at(10)
    assert pos.shape == (5, d)
    assert (np.abs(pos).sum(axis=1) <= 10).all()
    assert (np.abs(pos).sum(axis=1) % 2 == 0).all()
    pos = walk.sample_positions(d, Constant(1.0), 3, 2_000, _rng(2),
                                times=(1, 3)).at(1)
    assert (np.abs(pos).sum(axis=1) == 1).all()
    # the first step points along every axis, the last ones included
    assert np.count_nonzero(pos[:, 128:]) > 0
    assert np.count_nonzero(pos[:, d - 1]) > 0


@pytest.mark.parametrize("d", [130, 200])
def test_run_engine_visits_beyond_256_direction_codes(d):
    # every step redraws: S_2 = 0 exactly when step 2 reverses step 1
    n = 52_000
    stats = walk.sample_visit_stats(d, Constant(1.0), 2, n, _rng(3))
    hits = int(stats.counts[2].sum())
    assert abs(hits - n / (2 * d)) < 4 * math.sqrt(n / (2 * d))


@pytest.mark.parametrize("d", [130, 200])
def test_simulate_events_beyond_256_direction_codes(d):
    rng = _rng(4)
    paths = [walk.simulate_events(d, Constant(1.0), 50, rng) for _ in range(20)]
    axes = [ev.new_direction.axis for path in paths for ev in path.events]
    assert len(axes) == 20 * 50
    assert 128 <= max(axes) < d


def test_batch_engines_match_scalar_law():
    # same mixed schedule: batch "step"/"events" vs the scalar samplers,
    # two-sample chi-square over endpoint cells
    from scipy.stats import chi2_contingency
    d, n, N = 1, 8, 30_000
    rng = _rng(31)
    scalar = np.array([walk.simulate(d, _MIXED, n, rng).endpoint()[0]
                       for _ in range(N)])
    batch = walk.sample_positions(d, _MIXED, n, N, _rng(32), method="step").at(n)[:, 0]
    cells = np.arange(-9, 11, 2)  # endpoint parity is fixed, pool pairs
    o1 = np.histogram(scalar, bins=cells)[0]
    o2 = np.histogram(batch, bins=cells)[0]
    keep = (o1 + o2) >= 10
    _, pval, _, _ = chi2_contingency(np.vstack([o1[keep], o2[keep]]))
    assert pval > 0.01


def test_simulate_vs_simulate_events_chi_square_d2():
    # endpoint laws of the two sampling strategies agree; coarse 2-d grid
    from scipy.stats import chi2_contingency
    n, N = 1_000, 100_000
    a = walk.sample_positions(2, Constant(0.3), n, N, _rng(41), method="step").at(n)
    b = walk.sample_positions(2, Constant(0.3), n, N, _rng(42), method="events").at(n)
    edges = np.array([-10_000, -40, -15, 0, 15, 40, 10_000])
    ha = np.histogram2d(a[:, 0], a[:, 1], bins=(edges, edges))[0].ravel()
    hb = np.histogram2d(b[:, 0], b[:, 1], bins=(edges, edges))[0].ravel()
    keep = (ha + hb) >= 10
    _, pval, _, _ = chi2_contingency(np.vstack([ha[keep], hb[keep]]))
    assert pval > 0.01


def test_marginal_symmetry():
    pos = walk.sample_positions(2, Constant(0.4), 50, 100_000, _rng(51),
                                method="step").at(50).astype(float)
    for c in range(2):
        se = pos[:, c].std(ddof=1) / math.sqrt(pos.shape[0])
        assert abs(pos[:, c].mean()) < 4 * se


def _exact_law(d, schedule, n, observe):
    """Law of ``observe(positions, headings, redraws)`` over all walks of n steps.

    Enumerates every redraw set of steps 2..n and every direction sequence,
    replaying the walk step by step; positions[t] and headings[t] are S_t
    and the direction code of step t (index 0 is the start), and redraws
    lists the redraw steps, step 1 included.
    """
    probs = [float(schedule.p_at(t)) for t in range(2, n + 1)]
    law = {}
    for redraws in itertools.product((False, True), repeat=n - 1):
        weight = math.prod(p if r else 1.0 - p for p, r in zip(probs, redraws))
        if weight == 0.0:
            continue
        times = [1] + [t for t, r in zip(range(2, n + 1), redraws) if r]
        share = weight / (2 * d) ** len(times)
        for dirs in itertools.product(range(2 * d), repeat=len(times)):
            drawn = dict(zip(times, dirs))
            headings = [None]
            pos = [0] * d
            positions = [tuple(pos)]
            for t in range(1, n + 1):
                headings.append(drawn.get(t, headings[-1]))
                pos[headings[-1] // 2] += 1 - 2 * (headings[-1] % 2)
                positions.append(tuple(pos))
            key = observe(positions, headings, times)
            law[key] = law.get(key, 0.0) + share
    return law


def _exact_visit_law(d, schedule, n, target, horizons):
    """Law of (count at each horizon, late flag at each horizon)."""
    def observe(positions, _headings, _redraws):
        hits = [t for t in range(1, n + 1) if positions[t] == target]
        return tuple(sum(v <= h for v in hits) for h in horizons) \
            + tuple(int(any(h // 2 < v <= h for v in hits)) for h in horizons)
    return _exact_law(d, schedule, n, observe)


def _visit_stats_pvalue(d, schedule, n, target, seed, samples=200_000):
    horizons = (4, n)
    stats = walk.sample_visit_stats(d, schedule, n, samples, _rng(seed),
                                    target=target, horizons=horizons)
    assert np.all(stats.counts[4] <= stats.counts[n])
    cols = [stats.counts[h] for h in horizons] + [stats.late[h] for h in horizons]
    law = _exact_visit_law(d, schedule, n, target, horizons)
    return _chi_square_pvalue(np.stack(cols, axis=1).astype(np.int64), law)


_VISIT_SCHEDULES = {
    "const-half": Constant(0.5),
    "const-zero": Constant(0.0),
    "const-one": Constant(1.0),
    "forced-and-frozen": Explicit((0.4, 1.0, 0.3, 0.0, 1.0, 0.6, 0.0)),
    "critical": Critical(1.0, n0=2),
    "critical-prefix": Critical(0.7, n0=3, prefix_p=0.4),
    "critical-forced-n0": Critical(2.0, n0=2),
    "power": PowerDecay(1.0, 0.7),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(_VISIT_SCHEDULES))
def test_visit_stats_match_exact_law(d, name):
    schedule = _VISIT_SCHEDULES[name]
    assert _visit_stats_pvalue(d, schedule, 7, (0,) * d, 101 + d) > 1e-3


@pytest.mark.parametrize("d, target", [(1, (1,)), (1, (-2,)), (2, (1, 0)),
                                       (2, (1, -1))])
@pytest.mark.parametrize("name", ["const-half", "forced-and-frozen"])
def test_visit_stats_off_origin_target(d, target, name):
    schedule = _VISIT_SCHEDULES[name]
    assert _visit_stats_pvalue(d, schedule, 7, target, 111) > 1e-3


@pytest.mark.parametrize("d, target, name", [(1, (0,), "const-half"),
                                             (2, (1, 0), "const-half"),
                                             (2, (0, 0), "const-one"),
                                             (2, (0, 0), "forced-and-frozen")])
def test_visit_stats_exact_law_across_blocks(monkeypatch, d, target, name):
    # four-cell blocks: every path crosses segment and block boundaries,
    # carrying its position and direction over each
    monkeypatch.setattr(walk, "_BLOCK_CELLS", 4)
    schedule = _VISIT_SCHEDULES[name]
    assert len(walk._segments(schedule.hazard(7), 7)) >= 2
    assert _visit_stats_pvalue(d, schedule, 7, target, 121, samples=4_000) > 1e-3


class _ScriptedRng:
    """Starting headings forward, every later draw backwards, unit spacings,
    and the given Poisson counts in every segment."""

    def __init__(self, counts):
        self.counts = np.asarray(counts)
        self.started = False

    def integers(self, low, high, size, dtype):
        code = high - 1 if self.started else 0
        self.started = True
        return np.full(size, code, dtype=dtype)

    def poisson(self, lam, size):
        return self.counts.copy()

    def standard_exponential(self, shape):
        return np.ones(shape)


def test_visit_block_carries_each_rows_own_heading():
    # two segments, (0, 5] and (5, 10], of a table schedule, where redraws
    # are Poisson points.  Path 0 redraws twice in each, path 1 never: path 1
    # keeps its heading and runs straight on, path 0 ends on its last draw.
    # With unit spacings path 0 redraws at steps 3, 4, 7, 9.
    out = walk.sample_positions(1, Explicit((0.5,)), 10, 2, _ScriptedRng([2, 0]),
                                times=(5, 10))
    # path 0: +2 on steps 1-2, then back on steps 3-10
    assert out.at(10)[:, 0].tolist() == [-6, 10]


class _ScriptedGapRng(_ScriptedRng):
    """Headings as ``_ScriptedRng``; exponentials of 1 in row 0 and of 100 in
    row 1, and no Poisson counts."""

    def __init__(self):
        super().__init__(())

    def poisson(self, lam, size):
        raise AssertionError("a constant rate places its redraws as gaps")

    def standard_exponential(self, shape):
        return np.where(np.arange(shape[0])[:, None] == 0, 1.0, 100.0) * np.ones(shape)


def test_gap_block_carries_each_rows_own_heading():
    # the same two segments at the constant rate 1/2, where a gap is
    # 1 + floor(E / log 2): path 0 redraws every second step from step 1,
    # at 3, 5 and then, from step 5, at 7 and 9; path 1's gaps pass hi
    out = walk.sample_positions(1, Constant(0.5), 10, 2, _ScriptedGapRng(),
                                times=(5, 10))
    assert out.at(10)[:, 0].tolist() == [-6, 10]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 0.3, 0.9]), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=20))
def test_forced_lookup_matches_reference_loop(values, n):
    schedule = Explicit(tuple(values))
    p = schedule.prefix_probs(n)
    forced = [j for j in range(2, n + 1) if p[j - 1] >= 1.0]
    with np.errstate(divide="ignore"):
        hazard = -np.log1p(-np.where(p >= 1.0, 0.0, p))
    hazard[0] = 0.0  # step 1 draws the starting heading
    hz = schedule.hazard(n)
    assert hz.forced(0, n).tolist() == forced
    assert np.array_equal([hz.at(t) for t in range(n + 1)],
                          np.concatenate([[0.0], np.cumsum(hazard)]))


def _exact_positions_law(d, schedule, n, times, window, redraws=False):
    """Law of (S_t for t in times, direction changes at steps in window),
    and with ``redraws`` also the number of redraw steps."""
    lo, hi = window

    def observe(positions, headings, drawn):
        moved = sum(headings[t] != headings[t - 1] for t in range(lo + 1, hi + 1))
        return tuple(c for t in times for c in positions[t]) + (moved,) \
            + ((len(drawn),) if redraws else ())
    return _exact_law(d, schedule, n, observe)


def _path_key(path, times, window):
    """(S_t for t in times, changes in window, redraw steps) of one path."""
    dense = path.positions_dense()
    moves = [tuple(step) for step in np.diff(dense, axis=0)]  # moves[t - 1]: step t
    moved = sum(moves[t - 1] != moves[t - 2] for t in range(window[0] + 1, window[1] + 1))
    return tuple(int(c) for t in times for c in dense[t]) + (moved, len(path.events))


_POSITION_CASES = [
    (1, _VISIT_SCHEDULES["forced-and-frozen"], 7, (3, 7), (2, 6)),
    (2, _VISIT_SCHEDULES["forced-and-frozen"], 6, (2, 6), (1, 6)),
    (2, _VISIT_SCHEDULES["const-half"], 6, (4, 6), (3, 5)),
    (1, _VISIT_SCHEDULES["critical"], 7, (5, 7), (1, 7)),
    (2, _VISIT_SCHEDULES["power"], 5, (1, 5), (2, 4)),
    (1, _VISIT_SCHEDULES["critical-prefix"], 7, (2, 7), (1, 7)),
]


@pytest.mark.parametrize("cells, method", [
    pytest.param(None, "events", id="None"),
    pytest.param(4, "events", id="4"),
    pytest.param(None, "step", id="step"),
])
@pytest.mark.parametrize("case", range(len(_POSITION_CASES)))
def test_event_positions_match_exact_law(monkeypatch, case, cells, method):
    # snapshots and windowed change counts jointly, from either engine; with
    # four-cell blocks paths cross many segment and block boundaries
    d, schedule, n, times, window = _POSITION_CASES[case]
    if cells:
        monkeypatch.setattr(walk, "_BLOCK_CELLS", cells)
    samples = 4_000 if cells else 200_000
    out = walk.sample_positions(d, schedule, n, samples, _rng(131 + case), times=times,
                                count_changes_in=window, method=method)
    points = np.concatenate([out.at(t) for t in times]
                            + [out.change_counts[:, None]], axis=1)
    law = _exact_positions_law(d, schedule, n, times, window)
    assert _chi_square_pvalue(points, law) > 1e-3


def test_step_engine_pinned_digest():
    # snapshots (int64) and change counts of the per-step engine, hashed;
    # forced and frozen steps, snapshot times 0 and 1, and no window
    cases = [
        (1, Constant(0.3), 12, (0, 1, 5, 12), (2, 11)),
        (2, Critical(1.0, n0=2), 10, (3, 10), (1, 10)),
        (3, Explicit((0.5, 1.0, 0.0, 0.2, 1.0, 0.0, 0.7)), 9, (2, 6, 9), (3, 9)),
        (2, Constant(0.0), 7, (7,), None),
    ]
    h = hashlib.sha256()
    for k, (d, schedule, n, times, window) in enumerate(cases):
        out = walk.sample_positions(d, schedule, n, 3_000, _rng(200 + k), times=times,
                                    count_changes_in=window, method="step")
        for t in times:
            h.update(out.at(t).tobytes())
        if window:
            h.update(out.change_counts.tobytes())
    assert h.hexdigest() == \
        "53f62227a684a3ad988058a2b4fc69f9dbd55f3318efd21df30b12ee7e3b1e81"


def test_headings_window_starts_at_first():
    # the window 3..6 yields exactly those steps; step 3's heading is a
    # uniform draw, and each later step k redraws with its own p_k:
    # p_4 = p_6 = 0 keep the heading, p_5 = 1 draws it afresh
    schedule = Explicit((0.5, 0.5, 0.5, 0.0, 1.0, 0.0))
    samples = 40_000
    seen = [(k, code.copy()) for k, code in
            walk._headings(2, schedule, 6, samples, _rng(7), first=3)]
    assert [k for k, _ in seen] == [3, 4, 5, 6]
    code = dict(seen)
    assert np.array_equal(code[4], code[3]) and np.array_equal(code[6], code[5])
    counts = np.bincount(code[3], minlength=4)
    assert abs(counts - samples / 4).max() < 4 * math.sqrt(samples * 3 / 16)
    kept = np.count_nonzero(code[5] == code[4])  # a fresh code matches 1/4 of the time
    assert abs(kept - samples / 4) < 4 * math.sqrt(samples * 3 / 16)


_WINDOW_SCHEDULES = {
    "critical": Critical(1.0, n0=2),
    "power": PowerDecay(1.0, 0.7),
    "explicit": Explicit((0.4, 1.0, 0.3, 0.0, 1.0, 0.6, 0.0, 0.5, 0.8)),
}


@pytest.mark.parametrize("method, cells, samples", [
    pytest.param("step", None, 100_000, id="step"),
    pytest.param("events", None, 100_000, id="events"),
    pytest.param("events", 4, 4_000, id="events-4"),
])
@pytest.mark.parametrize("name", sorted(_WINDOW_SCHEDULES))
def test_window_from_first_has_the_whole_paths_law(monkeypatch, name, method, cells,
                                                   samples):
    # (S_9 - S_3, changes in (3, 9]) of walks started at step 3, against the
    # same quantities of whole walks, by a two-sample chi-square; cells seen
    # fewer than 10 times in both samples together are pooled
    from scipy.stats import chi2_contingency
    if cells:
        monkeypatch.setattr(walk, "_BLOCK_CELLS", cells)
    d, m, n, schedule = 2, 3, 9, _WINDOW_SCHEDULES[name]
    win = walk.sample_positions(d, schedule, n, samples, _rng(400), times=(n,),
                                count_changes_in=(m, n), method=method, first=m)
    whole = walk.sample_positions(d, schedule, n, samples, _rng(401), times=(m, n),
                                  count_changes_in=(m, n), method=method)
    a = np.column_stack([win.at(n), win.change_counts])
    b = np.column_stack([whole.at(n) - whole.at(m), whole.change_counts])
    _, cell = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    table = np.stack([np.bincount(cell[:samples], minlength=cell.max() + 1),
                      np.bincount(cell[samples:], minlength=cell.max() + 1)])
    keep = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    _, pval, _, _ = chi2_contingency(table)
    assert pval > 1e-3


_WINDOW_CASES = [
    # d, schedule, n, first, snapshot times (None: the horizon only)
    (1, Critical(1.0), 12, 5, (5, 8, 12)),
    (2, PowerDecay(1.0, 0.7), 11, 3, (3, 4, 11)),
    (3, _WINDOW_SCHEDULES["explicit"], 9, 1, (1, 5, 9)),
    (2, Constant(0.5), 10, 7, None),
    (2, Critical(1.0, n0=2), 10, 10, (10,)),
]


@pytest.mark.parametrize("method, cells", [("step", None), ("events", None),
                                           ("events", 4)])
def test_window_displacement_fits_its_steps(monkeypatch, method, cells):
    # exact: |S_t - S_first|_1 <= t - first with the parity of t - first,
    # and at most n - first changes in (first, n]
    if cells:
        monkeypatch.setattr(walk, "_BLOCK_CELLS", cells)
    for k, (d, schedule, n, first, times) in enumerate(_WINDOW_CASES):
        out = walk.sample_positions(d, schedule, n, 300, _rng(500 + k), times=times,
                                    count_changes_in=(max(first, 1), n) if times else None,
                                    method=method, first=first)
        for t in times or (n,):
            l1 = np.abs(out.at(t)).sum(axis=1)
            assert np.all(l1 <= t - first)
            assert np.all((t - first - l1) % 2 == 0)
        if times:
            assert np.all(out.change_counts <= n - first)


@pytest.mark.parametrize("method", ["step", "events"])
def test_window_start_bounds_times_and_change_window(method):
    rng = _rng(9)
    with pytest.raises(ValueError, match=r"snapshot times must lie in \[4, 10\]"):
        walk.sample_positions(2, Critical(1.0), 10, 5, rng, times=(3, 10),
                              method=method, first=4)
    with pytest.raises(ValueError, match="count_changes_in must satisfy 4 <= lo"):
        walk.sample_positions(2, Critical(1.0), 10, 5, rng, count_changes_in=(3, 10),
                              method=method, first=4)
    for first in (-1, 11):
        with pytest.raises(ValueError, match=r"first must lie in \[0, 10\]"):
            walk.sample_positions(2, Critical(1.0), 10, 5, rng, method=method,
                                  first=first)


def test_run_engine_pinned_digest():
    # the run engine's snapshots, change counts, visit counts and redraw
    # events, hashed per case: its one-byte direction codes for d <= 128
    # keep the stream of every seed.  The Poisson placement of the Critical
    # and Explicit cases keeps the stream it had before constant rates took
    # geometric gaps; the Constant case pins the gap placement.
    cases = {
        "constant": (1, Constant(0.3), 12, (0, 1, 5, 12), (2, 11)),
        "critical": (2, Critical(1.0, n0=2), 10, (3, 10), (1, 10)),
        "explicit": (3, Explicit((0.5, 1.0, 0.0, 0.2, 1.0, 0.0, 0.7)), 9, (2, 6, 9), (3, 9)),
    }
    digests = {}
    for k, (name, (d, schedule, n, times, window)) in enumerate(cases.items()):
        h = hashlib.sha256()
        rng = _rng(300 + k)
        out = walk.sample_positions(d, schedule, n, 3_000, rng, times=times,
                                    count_changes_in=window)
        for t in times:
            h.update(out.at(t).tobytes())
        h.update(out.change_counts.tobytes())
        stats = walk.sample_visit_stats(d, schedule, n, 3_000, rng, horizons=(n // 2, n))
        h.update(stats.counts[n // 2].tobytes() + stats.counts[n].tobytes())
        path = walk.simulate_events(d, schedule, 40, rng)
        h.update(repr(path.events).encode())
        digests[name] = h.hexdigest()
    assert digests == {
        "constant": "2bae113e9ee3aa1ebbf857ce238b84ee61e8f1663fd0e281d2fd03bed6f98e99",
        "critical": "d2e6bf76f78591f250dac2fc0be7b6d6df17b02ef90d33f4555f318e0ec79861",
        "explicit": "97a1e03f963e2f08859ace75b3fa810bdd70aa3e5031c9ce5ccd71ab0abe7150",
    }


def test_run_engine_window_pinned_digest():
    # the run engine's snapshots and change counts from a window start
    # first > 0, hashed per case, at a block size small enough that rows
    # cross many blocks and segments; Critical to 2^40 takes int64 positions
    cases = {
        "constant": (Constant(0.3), 400, 150, (150, 151, 260, 400), (170, 390)),
        "power": (PowerDecay(1.0, 0.7), 600, 50, (50, 300, 599, 600), (51, 600)),
        "critical": (Critical(1.0, n0=2), 500, 100, (100, 250, 500), (120, 480)),
        "explicit": (Explicit((0.5, 1.0, 0.0, 0.2, 1.0, 0.0, 0.7, 0.1, 0.9)), 9, 2,
                     (2, 5, 9), (3, 9)),
        "long": (Critical(1.0), 2 ** 40, 2 ** 39, (2 ** 39 + 7, 2 ** 40),
                 (2 ** 39 + 1, 2 ** 40)),
    }
    digests = {}
    for k, (name, (schedule, n, first, times, window)) in enumerate(cases.items()):
        h = hashlib.sha256()
        for d in (1, 2, 3):
            with mock.patch.object(walk, "_BLOCK_CELLS", 64):
                out = walk.sample_positions(d, schedule, n, 700, _rng(600 + 10 * k + d),
                                            times=times, count_changes_in=window,
                                            first=first)
            for t in times:
                h.update(out.at(t).tobytes())
            h.update(out.change_counts.tobytes())
        digests[name] = h.hexdigest()
    with mock.patch.object(walk, "_BLOCK_CELLS", 64):
        assert len(walk._segments(Constant(0.3).hazard(400), 400, first=150)) >= 3
        blocks = list(Constant(0.3).hazard(400).redraws(150, 260, 700, 64, _rng(0)))
        assert len(blocks) >= 10
    assert digests == {
        "constant": "1bf4149ca3a93165a8878f0a3c81ad76aeb0fff9d1ed47983f9e42f50dc474ab",
        "power": "e87f45e525615065bd22df361297ad0ee7f251778a8f6c2321b6a20c90408dd8",
        "critical": "b0a5934fbc68f30fbdfceeac210abc4ee78524e2aba97ec0e74b091937c696f0",
        "explicit": "45714bcba3cb942f570c459dfcffcece4d6f7623d540d4db1b45bd82b0fb75a5",
        "long": "176138eca22907b78b3b4983bc71693d6d56a2e7a55f09d97825ad6ff2f77e57",
    }


def test_step_engine_window_pinned_digest():
    # snapshots and change counts of the per-step engine at p = 0.5 from a
    # window start first > 0, hashed, for d = 1, 2, 3
    h = hashlib.sha256()
    for d in (1, 2, 3):
        n, first, times, window = 40, 9, (9, 10, 25, 40), (12, 39)
        out = walk.sample_positions(d, Constant(0.5), n, 5_000, _rng(700 + d), times=times,
                                    count_changes_in=window, method="step", first=first)
        for t in times:
            h.update(out.at(t).tobytes())
        h.update(out.change_counts.tobytes())
    assert h.hexdigest() == \
        "70f83f88ef1f9a03fbb5e1499cfb9f483e492a14ecd1fbf93787b93f87b496a1"


def test_visit_stats_pinned_digest():
    # visit counts and late flags at every horizon, for d = 1, 2, 3 and a
    # nonzero target, hashed per case: constant-rate gaps over several blocks
    # with top-ups (no spare gaps drawn), Poisson placement over several
    # segments, the engine's int64 steps at 2^40, and the observer's int64
    # offsets for a target past 2^31, reachable ("far") or not ("wrap")
    cases = {
        "constant": (Constant(0.5), 3_000, 600, (10, 100, 1_000, 3_000), (2, -1, 1),
                     walk._BLOCK_CELLS, 0.0),
        "power": (PowerDecay(1.0, 0.7), 100_000, 100, (1_000, 30_000, 100_000),
                  (1, 1, -1), 64, 6.0),
        "critical": (Critical(1.0), 2 ** 40, 2_000, (2 ** 10, 2 ** 20, 2 ** 30, 2 ** 40),
                     (3, -2, 1), walk._BLOCK_CELLS, 6.0),
        "far": (Constant(1e-10), 2 ** 36, 500, (2 ** 32, 2 ** 34, 2 ** 36),
                (2 ** 32 + 1, 0, 0), walk._BLOCK_CELLS, 6.0),
        "wrap": (Constant(0.5), 2_000, 300, (1_000, 2_000), (2 ** 32 + 1, 0, 0),
                 walk._BLOCK_CELLS, 6.0),
    }
    digests = {}
    for k, (name, (schedule, n, samples, horizons, target, cells, sigmas)) in \
            enumerate(cases.items()):
        h = hashlib.sha256()
        for d in (1, 2, 3):
            with mock.patch.object(walk, "_BLOCK_CELLS", cells), \
                    mock.patch("turnwalk.schedule._GAP_SIGMAS", sigmas):
                stats = walk.sample_visit_stats(d, schedule, n, samples,
                                                _rng(400 + 10 * k + d),
                                                target=target[:d], horizons=horizons)
            for t in horizons:
                h.update(stats.counts[t].tobytes() + stats.late[t].tobytes())
            if name == "wrap":  # 2^32 + 1 is past any path of n steps
                assert not any(stats.counts[t].any() for t in horizons)
        digests[name] = h.hexdigest()
    # the cases reach what they pin: blocks and top-ups, then segments
    hz = Constant(0.5).hazard(3_000)
    with mock.patch("turnwalk.schedule._GAP_SIGMAS", 0.0):
        blocks = list(hz.redraws(0, 3_000, 600, walk._BLOCK_CELLS, _rng(0)))
        assert len(blocks) >= 3
        assert any(steps.shape[1] > hz._gap_width(2_999) for _, steps, _ in blocks)
    with mock.patch.object(walk, "_BLOCK_CELLS", 64):
        assert len(walk._segments(PowerDecay(1.0, 0.7).hazard(100_000), 100_000)) >= 3
    assert digests == {
        "constant": "d80c20236d2c24f62fcc429ee88053640991d56a563cb2caa6cc915a37414ebc",
        "power": "298236a28f1e795402440d1c4fac5b27c22c8ecedb194a82d1bb92ef094abdb4",
        "critical": "5351be20e550b7927c73277102a08634cde69226f095608ff41caa516ffbdaa5",
        "far": "afbbf69df6ae4b05a0b43662b77078677c4137e64894c6932a8215309c14805d",
        "wrap": "9dd76d9311e87123c936ab0d956e9ead34dae3fb68beb075b6ee6fee9b08d9e0",
    }


@pytest.mark.parametrize("case, cells, grouped", [
    pytest.param(case, cells, grouped, id=f"{'group-' * grouped}{case}-{cells}")
    for case, cells, grouped in [(0, None, False), (1, None, False), (0, 4, False),
                                 (1, 4, False), (1, None, True), (1, 4, True)]])
def test_simulate_events_matches_exact_law(monkeypatch, case, cells, grouped):
    # the events are the distinct redraw steps, so their count has the law
    # of the redraw set; four-cell blocks give the paths many segments.
    # Grouped, the paths come from one _event_paths call, not one call each.
    d, schedule, n, times, window = _POSITION_CASES[case]
    if cells:
        monkeypatch.setattr(walk, "_BLOCK_CELLS", cells)
    rng = _rng(141 + case + 2 * grouped)
    paths = (walk._event_paths(d, schedule, n, 10_000, rng) if grouped else
             (walk.simulate_events(d, schedule, n, rng) for _ in range(10_000)))
    keys = [_path_key(path, times, window) for path in paths]
    assert len(keys) == 10_000
    law = _exact_positions_law(d, schedule, n, times, window, redraws=True)
    assert _chi_square_pvalue(np.array(keys), law) > 1e-3


_SCHEDULES = st.one_of(
    st.builds(Constant, st.sampled_from([0.0, 5e-324, 0.05, 0.5, 1 - 1e-16, 1.0])),
    st.builds(lambda a, extra: Critical(a, n0=math.ceil(a) + extra),
              st.sampled_from([0.5, 1.0, 2.5]), st.integers(0, 3)),
    st.builds(PowerDecay, st.sampled_from([0.3, 1.0]), st.sampled_from([0.2, 0.7]),
              st.integers(1, 4), st.sampled_from([0.0, 1.0])),
    st.builds(Periodic, st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=1,
                                 max_size=4), st.integers(1, 5)),
    st.builds(Explicit, st.lists(st.sampled_from([0.0, 0.1, 0.9, 1.0]), min_size=1,
                                 max_size=8)),
)


def _replay_runs(d, samples, blocks, times, window, target=None):
    """Snapshots at ``times``, direction changes in ``window`` and, per path,
    the steps t >= 1 with S_t == ``target``, of the recorded
    ``(lo, hi, rows, length, dirs)`` blocks, replayed step by step."""
    pos = np.zeros((samples, d), dtype=np.int64)
    snaps = {t: np.zeros((samples, d), dtype=np.int64) for t in times}
    changes = np.zeros(samples, dtype=np.int64)
    hits = [[] for _ in range(samples)]
    for lo, hi, rows, length, dirs in blocks:
        for path, lengths, codes in zip(rows.tolist(), length.tolist(), dirs.tolist()):
            heading = [codes[0]]  # at step lo: the carried run's
            for steps, code in zip(lengths, codes):
                heading += [code] * steps
            assert len(heading) == hi - lo + 1
            for t, code in enumerate(heading[1:], start=lo + 1):
                pos[path, code >> 1] += -1 if code & 1 else 1
                if tuple(pos[path].tolist()) == target:
                    hits[path].append(t)
            if window[0] <= lo and hi <= window[1]:
                changes[path] += sum(a != b for a, b in zip(heading, heading[1:]))
            if hi in snaps:
                snaps[hi][path] = pos[path]
    return snaps, changes, hits


@settings(max_examples=60, deadline=None)
@given(_SCHEDULES, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=60), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, walk._BLOCK_CELLS]), st.integers(1, 5), st.data())
def test_simulate_events_times_increase_from_one(schedule, d, n, seed, cells, size, data):
    # one path, then a group of ``size`` paths from one _event_paths call
    with mock.patch.object(walk, "_BLOCK_CELLS", cells):
        path = walk.simulate_events(d, schedule, n, _rng(seed))
        group = list(walk._event_paths(d, schedule, n, size, _rng(seed)))
    assert len(group) == size
    # sample_positions from step ``first`` with snapshot cuts: its
    # snapshots, endpoints and change counts are those of a step-by-step
    # replay of the very runs the engine yielded
    first = data.draw(st.integers(0, n - 1))
    times = data.draw(st.sets(st.integers(first, n), max_size=3)) | {n}
    w0 = data.draw(st.integers(max(first, 1), n))
    window = (w0, data.draw(st.integers(w0, n)))
    blocks, runs = [], walk._runs

    def recorded(*args, **kwargs):
        for lo, hi, rows, starts, length, dirs in runs(*args, **kwargs):
            blocks.append((lo, hi, rows.copy(), length.copy(), dirs.copy()))
            yield lo, hi, rows, starts, length, dirs
    with mock.patch.object(walk, "_BLOCK_CELLS", cells), \
            mock.patch.object(walk, "_runs", recorded):
        out = walk.sample_positions(d, schedule, n, 2 * size, _rng(seed), times=times,
                                    count_changes_in=window, first=first)
    snaps, changes, _ = _replay_runs(d, 2 * size, blocks, times, window)
    for t in times:
        assert np.array_equal(out.at(t), snaps[t])
    assert np.array_equal(out.change_counts, changes)
    # sample_visit_stats: the counts and late flags of a drawn target at
    # drawn horizons are those of a replay of the very runs it read
    target = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    horizons = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3))
    blocks.clear()
    with mock.patch.object(walk, "_BLOCK_CELLS", cells), \
            mock.patch.object(walk, "_runs", recorded):
        stats = walk.sample_visit_stats(d, schedule, n, 2 * size, _rng(seed),
                                        target=target, horizons=horizons)
    *_, hits = _replay_runs(d, 2 * size, blocks, (), (n + 1, n), target)
    for h in horizons:
        assert stats.counts[h].tolist() == [sum(t <= h for t in own) for own in hits]
        assert stats.late[h].tolist() == [any(h // 2 < t <= h for t in own)
                                          for own in hits]
    p = schedule.prefix_probs(n)
    for path in [path, *group]:
        times = [ev.update_time for ev in path.events]
        assert times[0] == 1
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
        assert times[-1] <= n
        # forced steps always redraw, frozen ones never do
        assert {t for t in range(2, n + 1) if p[t - 1] >= 1.0} <= set(times)
        assert not {t for t in times if t > 1 and p[t - 1] == 0.0}


class _NoDrawRng:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} called")


@pytest.mark.parametrize("schedule", [Critical(1.0), Constant(0.5), Constant(1.0)])
def test_run_engine_refuses_horizons_past_2_53_before_any_draw(schedule):
    # past 2^53 float64 steps are inexact (t - 1 == t at 2^54 + 1)
    n = 2 ** 53
    with pytest.raises(ValueError, match=r"n < 2\^53"):
        walk.sample_visit_stats(1, schedule, n, 3, _NoDrawRng())
    with pytest.raises(ValueError, match=r"n < 2\^53"):
        walk.sample_positions(1, schedule, n, 3, _NoDrawRng(), count_changes_in=(1, n))
    with pytest.raises(ValueError, match=r"n < 2\^53"):
        walk.simulate_events(1, schedule, n, _NoDrawRng())


def test_constant_shortcut_serves_horizons_past_2_53():
    # the composition shortcut never places steps, so any n is exact
    n = 2 ** 60 + 1
    end = walk.sample_positions(2, Constant(0.5), n, 50, _rng(3)).at(n)
    l1 = np.abs(end).sum(axis=1)
    assert np.all(l1 <= n) and np.all(l1 % 2 == 1)


@pytest.mark.parametrize("n, samples", [(4_000_000, 1), (100_000, 2_000)])
def test_visit_stats_memory_bounded(n, samples):
    # one long path spans many blocks; many paths fill many blocks.  A
    # constant rate needs no hazard table, so memory stays under a fixed cap.
    tracemalloc.start()
    try:
        walk.sample_visit_stats(2, Constant(0.5), n, samples, _rng(7),
                                horizons=(n // 10, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_critical_visits_to_a_billion_steps_in_small_memory():
    # one path of Critical(1) to 10^9 has about 21 redraws; a table of the
    # cumulative hazard alone would take 8 GB
    tracemalloc.start()
    try:
        stats = walk.sample_visit_stats(2, Critical(1.0), 10 ** 9, 1, _rng(7),
                                        horizons=(10 ** 6, 10 ** 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.counts[10 ** 6] <= stats.counts[10 ** 9]
    assert peak < 1e6


def test_simulate_events_memory_in_the_redraws():
    # Constant(1e-3) to 10^8: about 10^5 redraws, kept as events; memory
    # goes with them, not with the 10^8 steps
    n, p = 10 ** 8, 1e-3
    tracemalloc.start()
    try:
        path = walk.simulate_events(2, Constant(p), n, _rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(len(path.events) - n * p) < 5 * math.sqrt(n * p)
    assert peak < 400 * n * p


def test_no_hazard_table_outlives_the_engine():
    # the caller of the run engine builds the O(n) table of a PowerDecay
    # horizon and drops it: nothing of it stays allocated after the call
    tracemalloc.start()
    try:
        walk.sample_visit_stats(2, PowerDecay(1.0, 0.7), 10 ** 6, 10, _rng(5))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 1e6


@pytest.mark.parametrize("schedule", [Critical(0.7, n0=3, prefix_p=0.4),
                                      Critical(2.5, n0=3)])
def test_run_engine_redraw_law_past_the_short_table(schedule):
    # steps 201..1000 lie past the exact short sum of the Critical tail,
    # where the run engine inverts its asymptotic series: the count of
    # distinct redraw steps there is a sum of independent Bernoulli(a/j)
    n, w = 1_000, 200
    counts = np.zeros(100_000, dtype=np.int64)
    for _lo, _hi, rows, starts, length, *_ in walk._runs(1, schedule.hazard(n), n,
                                                         counts.size, _rng(151)):
        redraw = (length[:, 1:] > 0) & (starts[:, 1:-1] > w)
        counts[rows] += np.count_nonzero(redraw, axis=1)
    law = np.array([1.0])
    for j in range(w + 1, n + 1):
        p = schedule.a / j
        law = np.append(law * (1 - p), 0.0) + np.append(0.0, law * p)
    assert _chi_square_pvalue(counts[:, None], {(k,): q for k, q in enumerate(law)}) > 1e-3


def _gap_redraws_and_width(n, p, samples, seed):
    """Per path: the distinct redraw steps in 2..n, and the most gaps one
    block row held; through the run engine at the constant rate p."""
    redraws = np.zeros(samples, dtype=np.int64)
    widest = 0
    for _lo, _hi, rows, _starts, length, *_ in walk._runs(1, Constant(p).hazard(n), n,
                                                          samples, _rng(seed)):
        redraws[rows] += np.count_nonzero(length[:, 1:] > 0, axis=1)
        widest = max(widest, length.shape[1] - 1)
    return redraws, widest


def _binomial_law(trials, p):
    return {(k,): math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
            for k in range(trials + 1)}


def test_gap_top_ups_keep_the_redraw_law(monkeypatch):
    # a margin of -1 sigma leaves most rows short of hi after their first
    # gaps: they draw more from their last step, often more than once.  The
    # count of distinct redraw steps in 2..n stays Binomial(n - 1, p).
    monkeypatch.setattr("turnwalk.schedule._GAP_SIGMAS", -1.0)
    n, p = 200, 0.3
    first = Constant(p).hazard(n)._gap_width(n - 1)
    redraws, widest = _gap_redraws_and_width(n, p, 100_000, 161)
    assert widest > first
    assert np.count_nonzero(redraws > first) > redraws.size / 2  # rows that topped up
    assert _chi_square_pvalue(redraws[:, None], _binomial_law(n - 1, p)) > 1e-3


@pytest.mark.parametrize("cells", [None, 4])
def test_gap_top_ups_keep_the_exact_law(monkeypatch, cells):
    # the same short first draw against the joint laws of visits and of
    # snapshots with change counts; four-cell blocks add segment boundaries
    monkeypatch.setattr("turnwalk.schedule._GAP_SIGMAS", -1.0)
    if cells:
        monkeypatch.setattr(walk, "_BLOCK_CELLS", cells)
    samples = 4_000 if cells else 200_000
    schedule = _VISIT_SCHEDULES["const-half"]
    assert _visit_stats_pvalue(2, schedule, 7, (1, 0), 171, samples=samples) > 1e-3
    d, schedule, n, times, window = _POSITION_CASES[2]
    out = walk.sample_positions(d, schedule, n, samples, _rng(172), times=times,
                                count_changes_in=window)
    points = np.concatenate([out.at(t) for t in times] + [out.change_counts[:, None]],
                            axis=1)
    assert _chi_square_pvalue(points, _exact_positions_law(d, schedule, n, times,
                                                           window)) > 1e-3


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1 - 1e-16])
def test_constant_gaps_at_extreme_rates_warn_nothing(p):
    # at a subnormal or tiny h, E / h and the gap sums overflow to inf, and
    # near p = 1 every step redraws: each step is capped at hi + 1 before
    # the engine casts it, so no cast or overflow warning escapes
    n, samples = 1_000, 50
    every = p > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = _rng(181)
        stats = walk.sample_visit_stats(2, Constant(p), n, samples, rng,
                                        horizons=(10, n))
        out = walk.sample_positions(2, Constant(p), n, samples, rng,
                                    times=(5, 500, n), count_changes_in=(3, 900))
        path = walk.simulate_events(2, Constant(p), n, rng)
    assert [ev.update_time for ev in path.events] == list(range(1, n + 1 if every else 2))
    assert np.all(stats.counts[10] <= stats.counts[n])
    for t in (5, 500, n):
        l1 = np.abs(out.at(t)).sum(axis=1)
        assert np.all(l1 % 2 == t % 2) and np.all(l1 <= t)
        if not every:  # one heading throughout: a straight line
            assert np.all(l1 == t) and not stats.counts[n].any()
    if not every:
        assert not out.change_counts.any()


def test_visits_straight_path():
    path = Path(start=(0, 0),
                events=(TurnEvent(1, Direction(0, 1)),),
                horizon=5)
    assert walk.visits(path, (3, 0)) == 1
    assert walk.visits(path, (6, 0)) == 0
    assert walk.visits(path, (2, 1)) == 0
    assert walk.visits(path, (0, 0)) == 0  # start does not count


def test_visits_matches_dense_replay():
    rng = _rng(61)
    for _ in range(2_000):
        n = int(rng.integers(0, 300))
        path = walk.simulate_events(2, Constant(0.2), n, rng)
        dense = path.positions_dense()
        target = tuple(int(x) for x in dense[int(rng.integers(0, n + 1))]) \
            if n else (0, 0)
        expect = int(np.sum(np.all(dense[1:] == target, axis=1)))
        assert walk.visits(path, target) == expect


def test_positions_dense_endpoint_consistency():
    rng = _rng(62)
    for _ in range(100):
        n = int(rng.integers(0, 200))
        path = walk.simulate_events(3, Constant(0.15), n, rng)
        dense = path.positions_dense()
        assert dense.shape == (n + 1, 3)
        assert tuple(dense[-1]) == path.endpoint()
        # unit steps everywhere
        if n:
            assert np.all(np.abs(np.diff(dense, axis=0)).sum(axis=1) == 1)


def test_change_count_window_mean():
    # actual direction changes in (10, 100] for d=1 Critical(1):
    # each update flips with probability 1/2, so the mean is sum 1/(2k)
    n, N = 100, 200_000
    out = walk.sample_positions(1, Critical(1.0, n0=1), n, N, _rng(71),
                                times=(n,), count_changes_in=(10, n),
                                method="events")
    expect = sum(1.0 / (2 * k) for k in range(11, n + 1))
    counts = out.change_counts.astype(float)
    se = counts.std(ddof=1) / math.sqrt(N)
    assert abs(counts.mean() - expect) < 4 * se


def test_sample_positions_snapshot_times():
    out = walk.sample_positions(2, Constant(0.5), 20, 500, _rng(81),
                                times=(5, 20), method="events")
    assert set(out.positions) == {5, 20}
    assert out.at(5).shape == (500, 2)
    assert np.all(np.abs(out.at(5)).sum(axis=1) <= 5)
    # parity: |S_t|_1 has the parity of t
    assert np.all((np.abs(out.at(5)).sum(axis=1) - 5) % 2 == 0)


def test_path_validation():
    with pytest.raises(ValueError):
        Path(start=(0,), events=(TurnEvent(2, Direction(0, 1)),
                                 TurnEvent(2, Direction(0, -1))), horizon=5)
    with pytest.raises(ValueError):
        Path(start=(0,), events=(TurnEvent(7, Direction(0, 1)),), horizon=5)
    with pytest.raises(ValueError):
        walk.simulate(1, Constant(0.5), -1, _rng())


def test_initial_state_validation():
    assert walk.initial_state(3).position == (0, 0, 0)
    with pytest.raises(ValueError):
        walk.initial_state(2, start=(1, 2, 3))


@pytest.mark.parametrize("bad", [1.9, 0.7, float("inf"), float("nan"), 2.0,
                                 np.float64(1.0), "1"])
def test_non_integer_coordinates_are_refused(bad):
    # refused by name, never truncated (1.9 to 1, 0.7 to 0) or overflowed (inf)
    rng = _rng(92)
    message = f"coordinate {re.escape(repr(bad))} is not an integer"
    with pytest.raises(ValueError, match="target " + message):
        walk.sample_visit_stats(2, Constant(0.5), 5, 3, rng, target=(0, bad))
    with pytest.raises(ValueError, match="target " + message):
        walk.visits(Path((0,), (), 0), (bad,))
    for sampler in (walk.simulate, walk.simulate_events):
        with pytest.raises(ValueError, match="start " + message):
            sampler(1, Constant(0.5), 5, rng, start=(bad,))
    with pytest.raises(ValueError, match="start " + message):
        walk.initial_state(2, start=(bad, 0))


def test_numpy_integer_coordinates_pass():
    start = walk.initial_state(2, start=(np.int64(3), np.int8(-1))).position
    assert start == (3, -1) and all(type(x) is int for x in start)
    assert walk.visits(Path((0,), (), 0), np.array([2])) == 0
    stats = walk.sample_visit_stats(2, Constant(0.0), 4, 40, _rng(93),
                                    target=np.array([0, 2], dtype=np.uint8))
    # a straight walk of 4 steps stands on (0, 2) once, at step 2, iff it
    # heads +y: about a quarter of the paths
    assert set(stats.counts[4].tolist()) == {0, 1}


_NOT_STEPS = [2.7, 2.0, np.float64(3.0)]


def _refused(what, bad):
    return pytest.raises(ValueError, match=f"{what} {re.escape(repr(bad))} is not an integer")


@pytest.mark.parametrize("method", ["step", "events"])
def test_non_integer_snapshot_times_are_refused(method):
    # refused by name, never truncated: times=(2.7, 10) once snapshotted step 2
    rng = _rng(94)
    for bad in _NOT_STEPS:
        with _refused("snapshot time", bad):
            walk.sample_positions(2, Critical(1.0), 10, 5, rng, times=(bad, 10),
                                  method=method)
    out = walk.sample_positions(2, Critical(1.0), 10, 5, rng,
                                times=(np.int64(2), np.uint8(10)), method=method)
    assert list(out.positions) == [2, 10]
    assert all(type(t) is int for t in out.positions)


@pytest.mark.parametrize("method", ["step", "events"])
def test_non_integer_change_window_is_refused(method):
    # the run engine once crashed with TypeError on (2.5, 9.5), and the
    # per-step engine compared steps against the float bounds
    rng = _rng(95)
    for bad in _NOT_STEPS:
        for window, named in (((bad, 9), bad), ((1, bad + 6), bad + 6)):
            with _refused("count_changes_in bound", named):
                walk.sample_positions(2, Critical(1.0), 10, 5, rng, count_changes_in=window,
                                      method=method)
    out = walk.sample_positions(2, Constant(1.0), 10, 5, rng, method=method,
                                count_changes_in=(np.int64(2), np.uint8(9)))
    assert np.all(out.change_counts <= 7)


@pytest.mark.parametrize("method", ["step", "events"])
def test_non_integer_first_is_refused(method):
    rng = _rng(96)
    for bad in _NOT_STEPS:
        with _refused("first", bad):
            walk.sample_positions(2, Critical(1.0), 10, 5, rng, times=(10,),
                                  method=method, first=bad)
    out = walk.sample_positions(2, Critical(1.0), 10, 5, rng, times=(10,), method=method,
                                first=np.int64(9))
    assert np.all(np.abs(out.at(10)).sum(axis=1) == 1)


def test_non_integer_horizons_are_refused():
    # horizons=(4.9, 10) once counted visits up to step 4
    rng = _rng(97)
    for bad in _NOT_STEPS:
        with _refused("horizon", bad):
            walk.sample_visit_stats(2, Critical(1.0), 10, 5, rng, horizons=(bad, 10))
    stats = walk.sample_visit_stats(2, Critical(1.0), 10, 5, rng,
                                    horizons=(np.int64(4), np.uint8(10)))
    assert list(stats.counts) == [4, 10] and list(stats.late) == [4, 10]
    assert all(type(h) is int for h in stats.counts)


_HALF = Constant(0.5)
_FAMILIES = (_HALF, Critical(1.0, n0=2), PowerDecay(0.5, 0.5), Periodic((0.5, 0.25)),
             Explicit((1.0, 0.5)))

# one integer argument per public function: name -> (the argument's name, a
# call with it, a valid value)
_INTEGER_ARGS = {
    "Critical n0": ("n0", lambda v: Critical(1.0, n0=v), 2),
    "PowerDecay n0": ("n0", lambda v: PowerDecay(0.5, 0.5, n0=v), 2),
    "Periodic n0": ("n0", lambda v: Periodic((0.5, 0.25), n0=v), 2),
    **{f"{s.kind}.p_at": ("step", lambda v, s=s: s.p_at(v), 3) for s in _FAMILIES},
    **{f"{s.kind}.prefix_probs": ("n", lambda v, s=s: s.prefix_probs(v), 5)
       for s in _FAMILIES},
    "classify_regime": ("d", lambda v: classify_regime(_HALF, v), 3),
    "all_directions": ("d", walk.all_directions, 2),
    "initial_state": ("d", walk.initial_state, 2),
    "simulate d": ("d", lambda v: walk.simulate(v, _HALF, 6, _rng(1)), 2),
    "simulate n_steps": ("n_steps", lambda v: walk.simulate(2, _HALF, v, _rng(1)), 6),
    "simulate_events": ("n_steps", lambda v: walk.simulate_events(2, _HALF, v, _rng(1)), 6),
    "sample_positions d": ("d", lambda v: walk.sample_positions(v, _HALF, 6, 4, _rng(1)), 2),
    "sample_positions n": ("n", lambda v: walk.sample_positions(2, _HALF, v, 4, _rng(1)), 6),
    "sample_positions samples": (
        "samples", lambda v: walk.sample_positions(2, _HALF, 6, v, _rng(1), method="step"), 4),
    "sample_visit_stats d": ("d", lambda v: walk.sample_visit_stats(v, _HALF, 6, 4, _rng(1)), 2),
    "sample_visit_stats n": ("n", lambda v: walk.sample_visit_stats(2, _HALF, v, 4, _rng(1)), 6),
    "sample_visit_stats samples": (
        "samples", lambda v: walk.sample_visit_stats(2, _HALF, 6, v, _rng(1)), 4),
    "correlation_e i": ("i", lambda v: analytics.correlation_e(Critical(1.0), v, 5), 2),
    "correlation_e j": ("j", lambda v: analytics.correlation_e(Critical(1.0), 2, v), 5),
    "sgeom_moment": ("m", lambda v: analytics.sgeom_moment(0.5, v), 4),
    "fourth_moment_L": ("n", lambda v: analytics.fourth_moment_L(Fraction(1, 3), v), 6),
    "ld_bound": ("d", lambda v: analytics.ld_bound(0.5, 3.0, v), 2),
    "gambler_pass_once": ("gap", lambda v: analytics.gambler_pass_once(0.7, v), 3),
    "count_arith_progression": (
        "M", lambda v: analytics.count_arith_progression(0.25, 0.1, v), 8),
    "cosine_sum_bound": ("M", lambda v: analytics.cosine_sum_bound([0.5, 0.5], v, 0.5, 0.3), 2),
    "exact_distribution d": ("d", lambda v: oracle.exact_distribution(v, _HALF, 3), 2),
    "exact_distribution n": ("n", lambda v: oracle.exact_distribution(2, _HALF, v), 3),
    "ExactDistribution.prob": ("position coordinate", lambda v: oracle.exact_distribution(
        1, _HALF, 3).prob((v,)), 1),
    "brute_force_L_moment n": ("n", lambda v: oracle.brute_force_L_moment(0.5, v, 4), 5),
    "brute_force_L_moment m": ("m", lambda v: oracle.brute_force_L_moment(0.5, 5, v), 4),
    "b_from_a": ("d", lambda v: zigzag.b_from_a(1.0, v), 2),
    "label_intervals": ("d", lambda v: zigzag.label_intervals(
        zigzag.sample_ppp(2.0, 0.1, 1.0, _rng(1)), v, _rng(2)), 2),
    "sample_endpoints d": ("d", lambda v: zigzag.sample_endpoints(v, 0.5, 0.1, 4, _rng(1)), 2),
    "sample_endpoints samples": (
        "samples", lambda v: zigzag.sample_endpoints(2, 0.5, 0.1, v, _rng(1)), 4),
    "stream_rng": ("seed", lambda v: verify.stream_rng(v, "tail").random(4), 3),
    "estimate_tail": ("samples", lambda v: verify.estimate_tail(2, 0.5, 10, 2.0, v), 50),
    "tail_report": ("d", lambda v: verify.tail_report(v, 0.5, 10, 2.0, 50), 2),
    "estimate_covariance": ("i", lambda v: verify.estimate_covariance(_HALF, v, 5, 50), 2),
    "covariance_report": ("j", lambda v: verify.covariance_report(_HALF, 2, v, 50), 5),
    "scaling_limit_test": ("n", lambda v: verify.scaling_limit_test(1, 0.5, v, 20), 1000),
    "critical_limit_test": (
        "n", lambda v: verify.critical_limit_test(1, 1.0, v, 20, 0.5), 10_000),
    "recurrence_experiment": (
        "horizon", lambda v: verify.recurrence_experiment(1, _HALF, (v, 20), 20), 10),
    "recurrence_report": ("samples", lambda v: verify.recurrence_report(1, _HALF, (10, 20), v),
                          20),
    "volkov_bc_experiment": ("i", lambda v: verify.volkov_bc_experiment(0.7, v, 3, 20), 1),
    "volkov_report": ("horizon", lambda v: verify.volkov_report(0.7, 1, 2, 20, horizon=v), 4096),
    "moment4_experiment": ("n", lambda v: verify.moment4_experiment(0.5, v, 20), 6),
    "moment4_report": ("samples", lambda v: verify.moment4_report(0.5, 6, v), 20),
}


def _canon(x):
    """``x`` as nested tuples of reprs, so equal means the same types and bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, _canon(vars(x))
    if isinstance(x, dict):
        return tuple((_canon(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(_canon(v) for v in x)
    return repr(x)


@pytest.mark.parametrize("case", sorted(_INTEGER_ARGS))
def test_integer_rule(case):
    # a float, even a whole one, and a bool are refused by name; a numpy
    # integer gives exactly what the Python int gives
    name, call, good = _INTEGER_ARGS[case]
    # a 0-d float array has __index__ but refuses it with a TypeError
    for bad in (2.0, True, np.array(2.0)):
        with _refused(name, bad):
            call(bad)
    assert _canon(call(np.int64(good))) == _canon(call(good))


def test_integer_rule_mends_truncations_and_crashes():
    # these once truncated (10.7 to 10, 5.5 to 5 levels never reached),
    # raised TypeError, or crashed inside numpy
    with _refused("horizon", 10.7):
        verify.recurrence_experiment(1, Constant(0.5), (10.7, 100), 50)
    with _refused("i", 5.5):
        verify.volkov_bc_experiment(0.7, 5.5, 6, 2000)
    with _refused("i", 1.0):
        analytics.correlation_e(Constant(0.5), 1.0, 2)
    with _refused("samples", 100.0):
        verify.estimate_tail(2, 0.5, 10, 2.0, samples=100.0)
    with _refused("d", 2.0):
        walk.sample_positions(2.0, Constant(0.5), 5, 3, _rng())
    with _refused("n_steps", 3.0):
        walk.simulate(1, Constant(0.5), 3.0, _rng())
    # numpy integers, once refused outside walk, are stored as Python ints
    schedule = Critical(1, n0=np.int64(2))
    assert type(schedule.n0) is int and json.dumps(schedule.to_json())
    assert oracle.exact_distribution(np.int64(1), Constant(0.5), 3).d == 1


def test_path_csv_exports():
    path = walk.simulate_events(2, Constant(0.5), 15, _rng(91))
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,tau_k,axis,sign"
    assert len(lines) == 1 + len(path.events)
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"  # first step always updates

    buf = io.StringIO()
    path.dense_to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,x_1,x_2"
    assert len(lines) == 17  # header + positions 0..15
    assert lines[1] == "0,0,0"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_first_event_always_at_time_one(seed):
    path = walk.simulate_events(2, Constant(0.05), 30, _rng(seed))
    assert path.events[0].update_time == 1
