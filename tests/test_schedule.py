import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turnwalk import schedule as schedule_module
from turnwalk.schedule import (
    Constant,
    Critical,
    Explicit,
    Periodic,
    PowerDecay,
    Regime,
    Schedule,
    _settle,
    classify_regime,
    count_order,
    schedule_from_json,
    schedule_to_json,
)


def test_constant_p_at():
    assert Constant(0.3).p_at(7) == 0.3
    assert Constant(0.3).p_at(1) == 0.3


def test_critical_p_at():
    s = Critical(a=2.0, n0=10)
    assert s.p_at(100) == pytest.approx(0.02)
    assert s.p_at(9) == 1.0  # prefix_p default
    assert s.p_at(10) == pytest.approx(0.2)


def test_power_decay_p_at():
    s = PowerDecay(c=1.0, gamma=0.7, n0=1)
    assert s.p_at(1000) == pytest.approx(1000 ** -0.7)
    assert s.p_at(1000) == pytest.approx(0.00794328, abs=1e-8)


def test_periodic_cycles():
    s = Periodic(values=(0.4, 0.6), n0=2)
    assert s.p_at(1) == 1.0
    assert [s.p_at(n) for n in range(2, 8)] == [0.4, 0.6, 0.4, 0.6, 0.4, 0.6]


def test_explicit_table_and_persistence():
    s = Explicit(values=(0.5, 0.2, 0.9))
    assert [s.p_at(n) for n in (1, 2, 3, 4, 10)] == [0.5, 0.2, 0.9, 0.9, 0.9]


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        Constant(1.5)
    with pytest.raises(ValueError):
        Constant(-0.1)
    # a/n0 > 1 would put p_n above 1 at the start of the critical range
    with pytest.raises(ValueError):
        Critical(a=3.0, n0=2)
    with pytest.raises(ValueError):
        PowerDecay(c=2.0, gamma=0.5, n0=1)  # p_1 = 2
    with pytest.raises(ValueError):
        PowerDecay(c=1.0, gamma=1.2)
    with pytest.raises(ValueError):
        Periodic(values=())
    with pytest.raises(ValueError):
        Explicit(values=(0.5, 1.1))


def test_prefix_probs_matches_p_at():
    for s in [Constant(0.4), Critical(2.0, n0=4), PowerDecay(0.8, 0.6, n0=3),
              Periodic((0.2, 0.7, 0.5), n0=2), Explicit((1.0, 0.3))]:
        arr = s.prefix_probs(40)
        assert arr.shape == (40,)
        assert np.allclose(arr, [s.p_at(n) for n in range(1, 41)])


@pytest.mark.parametrize("s", [
    Constant(0.4), Constant(Fraction(1, 3)), Critical(1.0), Critical(2.5, n0=4, prefix_p=0.3),
    PowerDecay(1.0, 0.7), PowerDecay(0.8, 0.5, n0=3), PowerDecay(2.0, 0.99, n0=3, prefix_p=0.5),
    Periodic((0.2, 0.7, 0.5), n0=2), Periodic((1.0,), n0=9, prefix_p=0.0),
    Explicit((1.0, 0.3)), Explicit((0.5, 1.0, 0.0, 0.2)),
], ids=repr)
def test_p_at_is_prefix_probs_bit_for_bit(s):
    # the per-step samplers read p_at, the hazard tables prefix_probs: one
    # schedule must give both the same bits
    n = 20_000
    each = np.array([float(s.p_at(k)) for k in range(1, n + 1)])
    assert np.array_equal(each.view(np.uint64), s.prefix_probs(n).view(np.uint64))


def _old_prefix_probs(s, n):
    """The earlier expressions, which allocated temporaries next to the output."""
    out = np.full(n, float(s.prefix_p))
    if n >= s.n0:
        if isinstance(s, Critical):
            out[s.n0 - 1:] = float(s.a) / np.arange(s.n0, n + 1)
        elif isinstance(s, PowerDecay):
            out[s.n0 - 1:] = s.c * np.arange(s.n0, n + 1, dtype=float) ** (-s.gamma)
        else:
            cycle = np.asarray(s.values, dtype=float)
            m = n - s.n0 + 1
            out[s.n0 - 1:] = np.tile(cycle, -(-m // len(cycle)))[:m]
    return out


_IN_PLACE = [Critical(1.0), Critical(2.5, n0=4, prefix_p=0.3), Critical(3.0, n0=50),
             PowerDecay(1.0, 0.7), PowerDecay(0.8, 0.5, n0=3), PowerDecay(0.3, 0.25),
             PowerDecay(2.0, 0.99, n0=3, prefix_p=0.5),
             Periodic((0.2, 0.7, 0.5), n0=2), Periodic((1.0,), n0=9, prefix_p=0.0)]


@pytest.mark.parametrize("n", [1, 7, 12_345])
@pytest.mark.parametrize("s", _IN_PLACE)
def test_prefix_probs_bit_identical_to_earlier_expression(s, n):
    assert s.prefix_probs(n).tobytes() == _old_prefix_probs(s, n).tobytes()


@pytest.mark.parametrize("s", [Critical(1.0), PowerDecay(1.0, 0.7),
                               Periodic((0.2, 0.7, 0.5), n0=2)])
def test_prefix_probs_fills_its_output_in_place(s):
    n = 10 ** 6
    tracemalloc.start()
    try:
        s.prefix_probs(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n


@given(st.sampled_from([
    Constant(0.0), Constant(1.0), Constant(0.37),
    Critical(1.0, n0=1), Critical(5.0, n0=7),
    PowerDecay(0.9, 0.3), PowerDecay(1.0, 0.99, n0=2),
    Periodic((0.0, 1.0, 0.25)), Explicit((0.6,)),
]), st.integers(min_value=1, max_value=10 ** 6))
def test_p_at_always_a_probability(schedule, n):
    assert 0.0 <= schedule.p_at(n) <= 1.0


_PROBS = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))

_ALL_FAMILIES = st.one_of(
    st.builds(Constant, _PROBS),
    # a is capped at n0, so a == n0 (step n0 forced) comes up often
    st.builds(lambda n0, a, prefix_p: Critical(min(a, n0), n0, prefix_p),
              st.integers(1, 6),
              st.one_of(st.sampled_from([0.7, 1.0, 2.0, 2.5]), st.floats(0.01, 6.0)),
              _PROBS),
    st.builds(PowerDecay, st.floats(0.05, 1.0), st.floats(0.05, 0.95),
              st.integers(1, 5), _PROBS),
    st.builds(Periodic, st.lists(_PROBS, min_size=1, max_size=4), st.integers(1, 6),
              _PROBS),
    st.builds(Explicit, st.lists(_PROBS, min_size=1, max_size=10)),
)


@settings(max_examples=300, deadline=None)
@given(_ALL_FAMILIES, st.integers(1, 400), st.data())
@example(Critical(0.7, n0=3, prefix_p=0.4), 2_000, None)
@example(Critical(2.5, n0=3, prefix_p=0.0), 2_000, None)
@example(Critical(2.0, n0=2), 2_000, None)
@example(Critical(1.0), 2_000, None)
# the table's guide: a subnormal total (n / nc(n) overflows), no hazard at
# all, one bin that spans almost every step, and the benchmark's PowerDecay
@example(Periodic((2.225073858507203e-309,), 1, 0.0), 2, None)
@example(Explicit((0.5, 0.0)), 10, None)
@example(Explicit((0.5, 1 - 1e-12, 1e-9)), 10_000, None)
@example(PowerDecay(1.0, 0.7), 100_000, None)
def test_hazard_step_inverts_at_and_matches_the_table(schedule, n, data):
    hz = schedule.hazard(n)
    empty = hz.step(np.empty((3, 0)))  # a block of width 0
    assert empty.shape == (3, 0) and empty.dtype.kind == "i"
    nc = np.array([hz.at(t) for t in range(n + 1)])
    assert nc[0] == 0.0 and np.all(np.diff(nc) >= 0)
    # the inverse at each boundary nc(t) and one ulp to either side
    x = np.concatenate([nc, np.nextafter(nc, np.inf), np.nextafter(nc, -np.inf)])
    lo, hi = 0, n
    if data is not None:
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
    x = x[(x > nc[lo]) & (x <= nc[hi])]
    assert np.array_equal(hz.step(x), np.searchsorted(nc, x))
    # the base class's table: the same hazard up to its cumsum drift, the
    # same steps for random points and the same forced steps
    table = Schedule.hazard(schedule, n)
    assert np.allclose(nc, [table.at(t) for t in range(n + 1)],
                       rtol=1e-10, atol=1e-12)
    points = np.random.default_rng(n).uniform(0.0, nc[n], 1_000)
    points = points[points > 0]
    assert np.array_equal(hz.step(points), table.step(points))
    p = schedule.prefix_probs(n)
    forced = [s for s in range(2, n + 1) if p[s - 1] >= 1.0]
    assert hz.forced(lo, hi).tolist() == [s for s in forced if lo < s <= hi]
    assert hz.forced(0, n).tolist() == table.forced(0, n).tolist() == forced
    assert [hz.n_forced(s) for s in range(n + 1)] == \
        [sum(f <= s for f in forced) for s in range(n + 1)]


def test_table_hazard_memory():
    # the table keeps nc (8 bytes a step) and its guide (4 bytes a step);
    # the guide is built a chunk of steps at a time
    n = 10 ** 6
    tracemalloc.start()
    try:
        hz = PowerDecay(1.0, 0.7).hazard(n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hz.at(n) > 0
    assert peak <= 24e6
    assert kept <= 12 * n + 2 ** 16


@pytest.mark.parametrize("schedule", [PowerDecay(1.0, 0.7), Periodic([0.5, 0.1]),
                                      Explicit([0.2, 0.3])])
def test_table_hazard_refuses_horizons_past_its_cap(monkeypatch, schedule):
    # refused before prefix_probs builds the table; the cap clears every
    # table horizon in use (10^6 at most)
    def no_table(self, n):
        raise AssertionError(f"prefix_probs({n}) called")
    monkeypatch.setattr(type(schedule), "prefix_probs", no_table)
    cap = schedule_module._MAX_TABLE_STEPS
    assert cap > 10 ** 6
    for n in (cap + 1, 10 ** 12):
        with pytest.raises(ValueError, match=f"at most {cap} steps, got n = {n}"):
            schedule.hazard(n)


@pytest.mark.parametrize("layout", ["contiguous", "strided rows"])
def test_table_hazard_step_memory(layout):
    # the lookup's temporaries are chunk-sized: step allocates about what a
    # binary search allocates for its output alone
    hz = PowerDecay(1.0, 0.7).hazard(100_000)
    x = np.sort(np.random.default_rng(4).uniform(0.0, hz.at(100_000), 1 << 18))
    if layout == "strided rows":  # the engine's points: a (rows, width) view
        x = np.pad(x.reshape(1 << 14, 16), ((0, 0), (0, 1)))[:, :16]
    flat = np.ascontiguousarray(x)
    peaks = []
    for search in (lambda: np.searchsorted(hz._nc, flat), lambda: hz.step(x)):
        tracemalloc.start()
        try:
            search()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1e6


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.one_of(st.integers(0, 5), st.integers(0, 1 << 17)), max_size=60))
def test_count_order_is_the_stable_argsort(counts):
    # uint16 counts go through a radix sort; counts from 2^16 up do not
    counts = np.array(counts, dtype=np.int64)
    assert np.array_equal(count_order(counts), np.argsort(counts, kind="stable"))


def _settle_form(form):
    """(at, the steps of its explicit table) for the constant and the
    Critical tail forms that ``_settle`` corrects."""
    if form == "constant":
        h = -math.log1p(-0.3)
        return (lambda s: (s - 1) * h), np.arange(1.0, 2_000.0)
    hz = Critical(float(form[len("critical "):]), n0=3).hazard(10 ** 6)
    return (lambda s: hz._f(s + (1 - hz._a)) + hz._c), \
        np.arange(hz._end + 10.0, hz._end + 2_000.0)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (400,), (20, 20)])
@pytest.mark.parametrize("form", ["constant", "critical 1", "critical 2.5"])
def test_settle_lands_on_the_table_search(form, shape):
    # guesses up to 3 steps off either way settle on min{t : at(t) >= x},
    # the step np.searchsorted finds in an explicit table of at
    at, steps = _settle_form(form)
    table = at(steps)
    rng = np.random.default_rng(17)
    size = math.prod(shape)
    x = np.concatenate([table[10:-10], np.nextafter(table[10:-10], np.inf),
                        rng.uniform(table[10], table[-10], 2_000)])
    x = rng.choice(x, size).reshape(shape)
    want = steps[np.searchsorted(table, x)]
    guess = want + rng.integers(-3, 4, shape)
    got = _settle(at, x, guess.astype(float))
    assert got.shape == shape and np.array_equal(got, want)


@pytest.mark.parametrize("schedule", [Critical(1.0, n0=2), Critical(2.5, n0=3, prefix_p=0.4),
                                      PowerDecay(1.0, 0.7),
                                      Explicit((0.5, 1.0, 0.0, 0.9, 1.0, 0.3))])
def test_step_inverts_only_real_points(schedule):
    # per block, ``step`` sees exactly the rows' sum(k) Poisson points, none
    # of the padding to the widest row, which reads hi + 1 uninverted
    n, samples = 400, 600
    hz = schedule.hazard(n)
    seen, step = [], hz.step
    hz.step = lambda x: (seen.append(np.size(x)), step(x))[1]
    rng = np.random.default_rng(23)
    blocks = 0
    for lo, hi in ((0, 40), (40, n)):
        forced = hz.forced(lo, hi).size
        for rows, steps, count in hz.redraws(lo, hi, samples, 256, rng):
            k = count - forced
            assert seen == ([int(k.sum())] if k.max() else [])
            seen.clear()
            assert np.array_equal(np.count_nonzero(steps <= hi, axis=1), count)
            assert np.all(steps[steps > hi] == hi + 1)
            blocks += 1
    assert blocks > 2


@pytest.mark.parametrize("t", [10 ** 4, 10 ** 7, 10 ** 9])
@pytest.mark.parametrize("a", [0.7, 1.0, 2.5])
def test_critical_tail_per_step_hazard(a, t):
    # at(t) is about a log t while one step adds about a/t: the tail must
    # not come from the difference of two lgamma terms, which cancel
    hz = Critical(a, n0=math.ceil(a)).hazard(10 ** 9)
    assert hz.at(t) - hz.at(t - 1) == pytest.approx(-math.log1p(-a / t), rel=1e-5)


def test_json_round_trip():
    for s in [Constant(0.5), Critical(2.0, n0=3, prefix_p=0.5),
              PowerDecay(1.0, 0.7, n0=2), Periodic((0.4, 0.6), n0=2),
              Explicit((0.1, 0.9))]:
        assert schedule_from_json(schedule_to_json(s)) == s


def test_json_parses_plain_dict_and_rejects_junk():
    assert schedule_from_json({"kind": "Constant", "p": 0.5}) == Constant(0.5)
    with pytest.raises(ValueError):
        schedule_from_json({"p": 0.5})
    with pytest.raises(ValueError):
        schedule_from_json({"kind": "Nope"})
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps({"kind": "Constant", "q": 0.5}))


# classification


def test_classify_constant_half_d2_recurrent():
    out = classify_regime(Constant(0.5), 2)
    assert out.regime is Regime.RECURRENT
    assert out.theorem_ref


def test_classify_power_decay_fast_d2_strongly_transient():
    out = classify_regime(PowerDecay(c=1.0, gamma=0.6, n0=1), 2)
    assert out.regime is Regime.STRONGLY_TRANSIENT


def test_classify_periodic_d2_not_strongly_transient():
    out = classify_regime(Periodic((0.4, 0.6), n0=2), 2)
    assert out.regime is Regime.NOT_STRONGLY_TRANSIENT


def test_classify_critical_d2_conjectured():
    out = classify_regime(Critical(1.0, n0=2), 2)
    assert out.regime is Regime.CONJECTURED_STRONGLY_TRANSIENT


def test_classify_d1_unknown():
    for s in [Constant(0.5), Critical(1.0), PowerDecay(1.0, 0.7)]:
        out = classify_regime(s, 1)
        assert out.regime is Regime.UNKNOWN
        assert out.theorem_ref == ""


def test_classify_theorem_ref_empty_iff_unknown():
    cases = [
        (Constant(0.5), 2), (Constant(0.5), 3), (Constant(0.0), 2),
        (Critical(1.0), 2), (Critical(1.0), 4),
        (PowerDecay(1.0, 0.3), 2), (PowerDecay(1.0, 0.7), 5),
        (Periodic((0.4, 0.6)), 2), (Periodic((0.0, 0.5)), 3),
        (Explicit((0.1, 0.2, 0.3)), 2), (Constant(0.5), 1),
    ]
    for sched, d in cases:
        out = classify_regime(sched, d)
        assert (out.regime is Regime.UNKNOWN) == (out.theorem_ref == "")


def test_classify_power_decay_window_conditions_all_satisfied():
    # every gamma in (0,1) and every d >= 2 satisfies the three
    # window-theorem hypotheses
    for gamma in (0.1, 0.5, 0.9):
        for d in (2, 3, 5):
            out = classify_regime(PowerDecay(1.0, gamma), d)
            assert out.regime is Regime.STRONGLY_TRANSIENT
            window = [ok for name, ok in out.checked_conditions
                      if "window" in name or "diverges" in name or "converges" in name]
            assert len(window) >= 3
            assert all(window)


def test_classify_is_pure():
    a = classify_regime(PowerDecay(1.0, 0.6), 2)
    b = classify_regime(PowerDecay(1.0, 0.6), 2)
    assert a == b


def test_classify_ignores_prefix():
    a = classify_regime(Critical(1.0, n0=1), 2)
    b = classify_regime(Critical(1.0, n0=50, prefix_p=0.2), 2)
    assert a.regime == b.regime


def test_classify_explicit_nonconstant_unknown():
    out = classify_regime(Explicit((0.1, 0.2, 0.3)), 2)
    assert out.regime is Regime.UNKNOWN
