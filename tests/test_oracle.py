import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from turnwalk import oracle
from turnwalk.schedule import Constant, Critical, Explicit
from turnwalk.walk import Direction


def test_one_step_law_is_uniform_over_directions():
    for d in (1, 2, 3):
        dist = oracle.exact_distribution(d, Constant(0.123), 1)
        assert len(dist.entries) == 2 * d
        for (pos, direction), prob in dist.entries.items():
            assert pos == direction.vector(d)
            assert prob == pytest.approx(1.0 / (2 * d), abs=1e-15)


def test_d1_two_step_return_probability():
    # returning to 0 needs an update at step 2 (prob p) and a sign flip (1/2)
    for p in (0.2, 0.5, 0.9):
        dist = oracle.exact_distribution(1, Constant(p), 2)
        assert dist.prob((0,)) == pytest.approx(p / 2, abs=1e-14)
        assert dist.prob((2,)) == pytest.approx((1 - p / 2) / 2, abs=1e-14)


def test_total_mass_and_error_bound():
    dist = oracle.exact_distribution(2, Critical(1.0, n0=1), 8)
    assert abs(dist.total_mass - 1.0) < 1e-12
    assert all(v >= 0 for v in dist.entries.values())
    assert dist.fp_error_bound < 1e-13


def test_rational_mode_is_exact():
    dist = oracle.exact_distribution(2, Constant(Fraction(1, 3)), 6, rational=True)
    assert dist.total_mass == 1
    assert dist.fp_error_bound == 0.0
    assert all(isinstance(v, Fraction) for v in dist.entries.values())


def test_float_dp_matches_rational_dp():
    sched = Critical(2.0, n0=3)
    fl = oracle.exact_distribution(2, sched, 6)
    ra = oracle.exact_distribution(2, sched, 6, rational=True)
    assert set(fl.entries) == set(ra.entries)
    for key, v in fl.entries.items():
        assert abs(v - float(ra.entries[key])) <= fl.fp_error_bound + 1e-15


def _mirror(direction, axis):
    if direction.axis == axis:
        return Direction(axis, -direction.sign)
    return direction


def test_reflection_symmetry_exact():
    dist = oracle.exact_distribution(2, Critical(2.0, n0=3), 5, rational=True)
    for (pos, direction), prob in dist.entries.items():
        mirrored = ((-pos[0], pos[1]), _mirror(direction, 0))
        assert dist.entries[mirrored] == prob


def test_axis_permutation_symmetry_exact():
    dist = oracle.exact_distribution(2, Constant(Fraction(2, 5)), 5, rational=True)
    for (pos, direction), prob in dist.entries.items():
        swapped = ((pos[1], pos[0]), Direction(1 - direction.axis, direction.sign))
        assert dist.entries[swapped] == prob


def _srw_prob_d1(n, k):
    if (n + k) % 2 or abs(k) > n:
        return 0.0
    return math.comb(n, (n + k) // 2) / 2 ** n


def _srw_prob_d2(n, x, y):
    total = 0
    for a in range(n + 1):          # steps +x
        b = a - x                   # steps -x
        if b < 0 or a + b > n:
            continue
        rem = n - a - b
        if (rem + y) % 2 or abs(y) > rem:
            continue
        c = (rem + y) // 2          # steps +y
        e = rem - c
        total += math.factorial(n) // (math.factorial(a) * math.factorial(b)
                                       * math.factorial(c) * math.factorial(e))
    return total / 4 ** n


def test_constant_one_is_simple_random_walk():
    # with every step redrawing, the walk is the SRW; compare the DP marginal
    # to the multinomial closed form
    for n in (1, 3, 5, 8):
        dist = oracle.exact_distribution(1, Constant(1.0), n)
        for k in range(-n, n + 1):
            assert dist.prob((k,)) == pytest.approx(_srw_prob_d1(n, k), abs=1e-12)
    for n in (2, 4, 6):
        dist = oracle.exact_distribution(2, Constant(1.0), n)
        marg = dist.marginal_positions()
        for (x, y), prob in marg.items():
            assert prob == pytest.approx(_srw_prob_d2(n, x, y), abs=1e-12)


def test_first_step_ignores_schedule_value():
    # p_1 never matters: the first step always draws a fresh direction
    a = oracle.exact_distribution(2, Explicit((0.01, 0.5)), 2, rational=True)
    b = oracle.exact_distribution(2, Explicit((0.99, 0.5)), 2, rational=True)
    assert a.entries == b.entries


def test_prob_with_direction():
    dist = oracle.exact_distribution(2, Constant(0.5), 1)
    assert dist.prob((1, 0), Direction(0, 1)) == pytest.approx(0.25)
    assert dist.prob((1, 0), Direction(1, 1)) == 0.0
    assert dist.prob((5, 5)) == 0.0
    with pytest.raises(ValueError, match="position has 3 coordinates, expected 2"):
        dist.prob((5, 5, 5))


def test_marginal_positions_sum():
    dist = oracle.exact_distribution(3, Constant(0.4), 4)
    marg = dist.marginal_positions()
    assert sum(marg.values()) == pytest.approx(1.0, abs=1e-12)
    # parity constraint: |z|_1 has the parity of n
    assert all((sum(abs(c) for c in pos) - 4) % 2 == 0 for pos in marg)


def test_resource_caps():
    # the float DP is capped by its work, n 2d (2n + 1)^d <= 2^28 cell updates:
    # 50 * 6 * 101^3 is past it, while d = 3, n = 40 is not
    with pytest.raises(oracle.ResourceLimitError, match="d = 3, n = 50"):
        oracle.exact_distribution(3, Constant(0.5), 50)
    with pytest.raises(oracle.ResourceLimitError):
        oracle.exact_distribution(1, Constant(0.5), 11, rational=True)
    with pytest.raises(oracle.ResourceLimitError):
        oracle.brute_force_L_moment(0.5, 15, 2)
    dist = oracle.exact_distribution(1, Constant(0.5), 22)
    assert abs(dist.total_mass - 1.0) < 1e-11


def test_argument_validation():
    with pytest.raises(ValueError):
        oracle.exact_distribution(0, Constant(0.5), 3)
    with pytest.raises(ValueError):
        oracle.exact_distribution(2, Constant(0.5), 0)
    with pytest.raises(ValueError):
        oracle.brute_force_L_moment(0.5, 3, 3)
    with pytest.raises(ValueError):
        oracle.brute_force_L_moment(0.0, 3, 2)
    with pytest.raises(ValueError):
        oracle.brute_force_L_moment(1.0, 3, 2)


def test_brute_force_small_values():
    # n=1: L_1 = +-1 so both moments are 1
    assert oracle.brute_force_L_moment(Fraction(1, 2), 1, 2) == 1
    assert oracle.brute_force_L_moment(Fraction(1, 2), 1, 4) == 1
    # n=2, p=1/2: update at step 2 -> blocks (1,1), E L^4 = 8; else block
    # (2) -> E L^4 = 16; average 12
    assert oracle.brute_force_L_moment(Fraction(1, 2), 2, 4) == 12


def test_brute_force_second_moment_closed_form():
    # E L_n^2 = n + 2 sum_{m=1}^{n-1} (n - m) q^m, from the pair correlations
    for p in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
        q = 1 - p
        for n in (1, 2, 3, 5, 8, 11):
            expect = n + 2 * sum((n - m) * q ** m for m in range(1, n))
            assert oracle.brute_force_L_moment(p, n, 2) == expect


def test_brute_force_float_matches_rational():
    exact = oracle.brute_force_L_moment(Fraction(7, 10), 10, 4)
    approx = oracle.brute_force_L_moment(0.7, 10, 4)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_to_csv_format():
    dist = oracle.exact_distribution(2, Constant(0.5), 1)
    buf = io.StringIO()
    dist.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x_1,x_2,axis,sign,prob"
    assert len(lines) == 5
    probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert probs == pytest.approx([0.25] * 4)
    # sorted and reproducible
    again = io.StringIO()
    dist.to_csv(again)
    assert again.getvalue() == buf.getvalue()


def test_dp_agrees_with_brute_force_moments():
    # two independent oracles for E L_n^4 on the 1-d walk
    for p in (0.3, 0.62):
        for n in (2, 4, 7):
            dist = oracle.exact_distribution(1, Constant(p), n)
            dp_m4 = sum(prob * pos[0] ** 4
                        for pos, prob in dist.marginal_positions().items())
            assert dp_m4 == pytest.approx(
                oracle.brute_force_L_moment(p, n, 4), rel=1e-12)


def test_exact_distribution_pinned_digest():
    # every entry and the marginal, in insertion order, hashed by repr per
    # case: the float DP and the rational DP, with forced (p = 1) and frozen
    # (p = 0) steps in the Explicit schedule
    forced = Explicit((0.5, 1.0, 0.0, 0.2, 1.0, 0.0, 0.7, 0.25))
    cases = {
        "constant": [(1, Constant(0.3), 9), (2, Constant(0.5), 7), (3, Constant(0.2), 5)],
        "critical": [(1, Critical(1.0), 10), (2, Critical(2.0, n0=3), 8),
                     (3, Critical(1.0, n0=2), 6)],
        "explicit": [(1, forced, 8), (2, forced, 8), (3, forced, 6)],
    }
    digests = {}
    for name, runs in cases.items():
        for rational in (False, True):
            h = hashlib.sha256()
            for d, schedule, n in runs:
                dist = oracle.exact_distribution(d, schedule, n, rational=rational)
                h.update(repr(list(dist.entries.items())).encode())
                h.update(repr(list(dist.marginal_positions().items())).encode())
            digests[f"{name}-{'rational' if rational else 'float'}"] = h.hexdigest()
    assert digests == {
        "constant-float": "d95e643df644ce18d392cc6123664f02f4e22f5ea55fd1c25f32c5a8020cce6f",
        "constant-rational": "2799ceaead9b17180025e843171a673b1f26a89b09c5e45dededae55e1c18c6a",
        "critical-float": "140ea28b596e8bde14c17c1edbec9222aff774c5fd37b5223428e86f860b1d47",
        "critical-rational": "df9cf82eff3e36865400f75120d192f71e8cf95473d9c979ece05914c9d20c91",
        "explicit-float": "d574a8264a054f38cc1ac10a63917aa95f294aad3481a0215b4a4753f5c28bd4",
        "explicit-rational": "9a8ab36fb0b9130435e4906d31ad00d3897751cc13cd5f2e582a8eddee62b130",
    }
