"""Exact small-scale ground truth, independent of the samplers.

Two oracles: a forward dynamic program over (position, direction) that
computes the full law of the walk at a small horizon, and a brute-force
enumeration of update patterns for moments of the 1-d walk.  Both exist to
be disagreed with: every Monte Carlo claim in the test suite is checked
against one of these.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .schedule import Schedule, _integer
from .walk import Direction, _lattice_point

__all__ = [
    "ResourceLimitError",
    "ExactDistribution",
    "exact_distribution",
    "brute_force_L_moment",
]


class ResourceLimitError(ValueError):
    """Raised when a request exceeds the exact computations' caps."""


# Most cell updates, n steps over 2d (2n + 1)^d cells, the float DP may make:
# about 2 s near the cap on a 2-core machine (d = 2, n = 250: 1.6 s; d = 3,
# n = 46: 2.1 s), against 0.05 s, 0.7 s and 1.1 s at d = 1, 2, 3 for
# n = 2000, 200, 40
_MAX_DP_WORK = 1 << 28


@dataclass(frozen=True)
class ExactDistribution:
    """Full law of (S_n, Y_n): probability per (lattice point, direction).

    ``entries`` maps (position tuple, Direction) to probability; zero cells
    are omitted.  ``fp_error_bound`` is a crude per-entry absolute error
    estimate for the float DP (zero in rational mode, where entries are
    Fractions).
    """

    d: int
    horizon: int
    entries: dict = field(repr=False)
    rational: bool = False

    @property
    def total_mass(self):
        return sum(self.entries.values())

    @property
    def fp_error_bound(self) -> float:
        if self.rational:
            return 0.0
        # each DP step does a handful of multiply-adds per cell on mass <= 1
        return self.horizon * (2 * self.d + 3) * np.finfo(float).eps

    def marginal_positions(self) -> dict:
        """P(S_n = z) summed over directions."""
        out = {}
        for (pos, _direction), prob in self.entries.items():
            out[pos] = out.get(pos, 0 * prob) + prob
        return out

    def prob(self, position, direction: Direction | None = None):
        pos = _lattice_point("position", position, self.d)
        zero = Fraction(0) if self.rational else 0.0
        if direction is not None:
            return self.entries.get((pos, direction), zero)
        return sum((v for (z, _), v in self.entries.items() if z == pos), zero)

    def to_csv(self, fileobj) -> None:
        """Rows (x_1..x_d, axis, sign, prob), sorted for reproducibility."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow([f"x_{k + 1}" for k in range(self.d)] + ["axis", "sign", "prob"])
        keys = sorted(self.entries, key=lambda e: (e[0], e[1].axis, e[1].sign))
        for pos, direction in keys:
            prob = self.entries[(pos, direction)]
            writer.writerow([*pos, direction.axis, direction.sign, repr(float(prob))])


def _offsets(d: int, n: int):
    # slice pairs implementing a shift by +-1 along each axis without wrap
    slices = []
    for axis in range(d):
        for sign in (1, -1):
            src = [slice(None)] * d
            dst = [slice(None)] * d
            if sign == 1:
                src[axis] = slice(0, 2 * n)
                dst[axis] = slice(1, 2 * n + 1)
            else:
                src[axis] = slice(1, 2 * n + 1)
                dst[axis] = slice(0, 2 * n)
            slices.append((2 * axis + (0 if sign == 1 else 1), tuple(dst), tuple(src)))
    return slices


def exact_distribution(d: int, schedule: Schedule, n: int,
                       rational: bool = False) -> ExactDistribution:
    """Forward DP for the law of the walk after n steps.

    The first step draws a uniform direction regardless of the schedule; at
    step k >= 2, mass at (z, dir) splits into (1 - p_k) continuing along dir
    and p_k/(2d) restarting along each of the 2d directions, then advances.
    Dense float arrays over the box [-n, n]^d are used by default, for at
    most ``_MAX_DP_WORK`` cell updates n 2d (2n + 1)^d; rational mode
    (n <= 10) switches to a Fraction-valued sparse DP with exact output.
    Past either cap a ``ResourceLimitError`` is raised.
    """
    d, n = _integer("d", d, 1), _integer("n", n, 1)
    if rational:
        if n > 10:
            raise ResourceLimitError(f"rational mode is capped at n = 10, got {n}")
        return _exact_rational(d, schedule, n)
    work = n * 2 * d * (2 * n + 1) ** d
    if work > _MAX_DP_WORK:
        raise ResourceLimitError(f"the float DP at d = {d}, n = {n} makes {work} cell "
                                 f"updates, more than its cap 2^28")

    probs = schedule.prefix_probs(n)
    shape = (2 * d,) + (2 * n + 1,) * d
    mass = np.zeros(shape)
    shifts = _offsets(d, n)
    origin = (n,) * d
    for idx, dst, _src in shifts:
        target = tuple(o + v for o, v in zip(origin, Direction.from_index(idx).vector(d)))
        mass[(idx,) + target] = 1.0 / (2 * d)
    for k in range(2, n + 1):
        p = probs[k - 1]
        total = mass.sum(axis=0)
        new = np.zeros(shape)
        for idx, dst, src in shifts:
            new[(idx,) + dst] = (1.0 - p) * mass[(idx,) + src] + (p / (2 * d)) * total[src]
        mass = new

    # nonzero cells per direction in C order, converted in bulk
    entries = {}
    for idx in range(2 * d):
        direction = Direction.from_index(idx)
        cells = np.nonzero(mass[idx] > 0.0)
        positions = map(tuple, (np.stack(cells, axis=1) - n).tolist())
        entries.update(zip(((pos, direction) for pos in positions),
                           mass[idx][cells].tolist()))
    return ExactDistribution(d=d, horizon=n, entries=entries, rational=False)


def _exact_rational(d: int, schedule: Schedule, n: int) -> ExactDistribution:
    probs = [Fraction(schedule.p_at(k)) for k in range(1, n + 1)]
    dirs = [Direction.from_index(i) for i in range(2 * d)]
    vecs = {dir_: dir_.vector(d) for dir_ in dirs}
    share = Fraction(1, 2 * d)
    state = {}
    for dir_ in dirs:
        state[(vecs[dir_], dir_)] = share
    for k in range(2, n + 1):
        p = probs[k - 1]
        stay = 1 - p
        redraw = p * share
        totals = {}
        for (pos, _dir), w in state.items():
            totals[pos] = totals.get(pos, Fraction(0)) + w
        new = {}
        for (pos, dir_), w in state.items():
            if stay:
                vec = vecs[dir_]
                key = (tuple(a + b for a, b in zip(pos, vec)), dir_)
                new[key] = new.get(key, Fraction(0)) + stay * w
        if redraw:
            for pos, w in totals.items():
                for dir_ in dirs:
                    vec = vecs[dir_]
                    key = (tuple(a + b for a, b in zip(pos, vec)), dir_)
                    new[key] = new.get(key, Fraction(0)) + redraw * w
        state = new
    entries = {k: v for k, v in state.items() if v}
    return ExactDistribution(d=d, horizon=n, entries=entries, rational=True)


def brute_force_L_moment(p, n: int, m: int):
    """Exact E[L_n^m] for the 1-d walk by enumerating update patterns.

    The first step always updates; each later step i updates with
    probability p.  Conditional on the update pattern, the walk is a sum of
    blocks with lengths l_1..l_B carrying independent uniform signs, so

        E[(sum l_b s_b)^2] = sum l_b^2
        E[(sum l_b s_b)^4] = 3 (sum l_b^2)^2 - 2 sum l_b^4.

    Patterns are weighted by p^(#updates) (1-p)^(#non-updates) over steps
    2..n; 2^(n-1) patterns total, capped at n = 14.  Generic arithmetic, so
    Fraction p gives the exact rational moment.  Only m in {2, 4}.
    """
    n, m = _integer("n", n, 1), _integer("m", m)
    if n > 14:
        raise ResourceLimitError(f"brute force is capped at n = 14, got {n}")
    if m not in (2, 4):
        raise ValueError(f"unsupported moment order m={m}; only 2 and 4 are implemented")
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    q = 1 - p
    p_pow = [1 + 0 * p]
    q_pow = [1 + 0 * p]
    for _ in range(n):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)

    total = 0 * p
    for pattern in range(1 << (n - 1)):
        # bit i-2 set <=> step i updates (i = 2..n); step 1 always does
        lengths = []
        run = 1
        for i in range(2, n + 1):
            if (pattern >> (i - 2)) & 1:
                lengths.append(run)
                run = 1
            else:
                run += 1
        lengths.append(run)
        updates = len(lengths) - 1
        weight = p_pow[updates] * q_pow[n - 1 - updates]
        s2 = sum(l * l for l in lengths)
        if m == 2:
            inner = s2
        else:
            s4 = sum(l ** 4 for l in lengths)
            inner = 3 * s2 * s2 - 2 * s4
        total = total + weight * inner
    return total
