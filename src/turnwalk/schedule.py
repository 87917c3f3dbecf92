"""Turning-probability schedules and their recurrence/transience classification.

A schedule assigns to every step n >= 1 the probability p_n that the walker
redraws its direction at that step.  Five parametric families are provided:

* ``Constant(p)``            p_n = p for every n
* ``Critical(a, n0)``        p_n = a/n for n >= n0
* ``PowerDecay(c, g, n0)``   p_n = c * n**(-g) for n >= n0, 0 < g < 1
* ``Periodic(values, n0)``   p_n cycles through ``values`` from n0 on
* ``Explicit(values)``       p_n read from a table, last entry persisting

Families with an ``n0`` use ``prefix_p`` (default 1, i.e. free redraws) for
the steps before n0.  Construction validates all parameters up front so that
``p_at`` can never return a value outside [0, 1]; in particular Critical and
PowerDecay reject parameters that would need clamping (e.g. Critical with
a > n0).

``classify_regime`` maps a schedule and a dimension to a recurrence verdict,
applying the known sufficient conditions in a fixed priority order and
recording which hypotheses were checked.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Schedule",
    "Constant",
    "Critical",
    "PowerDecay",
    "Periodic",
    "Explicit",
    "Regime",
    "RegimeClassification",
    "classify_regime",
    "schedule_from_json",
    "schedule_to_json",
]

# Steps the table fallback of ``Schedule.hazard`` may hold: it peaks at
# about 20 bytes a step while it builds, 2.7 GB at the cap
_MAX_TABLE_STEPS = 1 << 27

Prob = Union[int, float]  # fractions.Fraction also works; arithmetic is generic


def _check_prob(x, name: str) -> None:
    if not (0 <= x <= 1):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


def _integer(name, x, minimum=None):
    """``x`` as a Python int, at least ``minimum`` if given.

    The one integer rule: Python and numpy integers pass, while a float, even
    a whole one, and a bool are refused, never truncated or read as 0 or 1.
    """
    if isinstance(x, bool):
        raise ValueError(f"{name} {x!r} is not an integer")
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} {x!r} is not an integer") from None
    if minimum is not None and x < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {x}")
    return x


class Schedule:
    """Base class; concrete families implement ``p_at`` and ``prefix_probs``."""

    kind: str = "?"

    def p_at(self, n: int):
        """Turning probability at step n (n >= 1)."""
        raise NotImplementedError

    def prefix_probs(self, n: int) -> np.ndarray:
        """Vectorized [p_1, ..., p_n] as a new float64 array the caller owns.

        The table fallback of ``hazard`` overwrites it in place with hazards.
        """
        raise NotImplementedError

    def hazard(self, n: int):
        """Steps 1..n on the cumulative-hazard axis, for the run engine.

        The returned object has

        * ``at(t)``: nc(t) = sum over 2 <= j <= t of -log(1 - p_j), for an
          integer 0 <= t <= n; step 1, which draws the starting heading,
          and the forced (p_j == 1) steps add 0;
        * ``step(x)``: its inverse, min{t : nc(t) >= x} for each x in
          (0, nc(n)] (Devroye, *Non-Uniform Random Variate Generation*,
          1986, II.2);
        * ``forced(lo, hi)``: the forced steps in (lo, hi], sorted, and
          ``n_forced(t)``, how many lie in [2, t];
        * ``redraws(lo, hi, samples, cells, rng)``: each path's redraw
          steps in (lo, hi], in blocks of at most about ``cells`` cells
          (``_Hazard.redraws``).  By default they are the steps that
          Poisson points in hazard time hit, found through ``step``, plus
          the forced steps; ``Constant`` at 0 < p < 1 places them as
          geometric gaps instead, with no duplicates and no inversion.

        This default tabulates nc from ``prefix_probs`` and finds each
        point's step by indexed search in a guide table (``_TableHazard``):
        O(n) memory and O(1) expected probes per point, so a horizon above
        ``_MAX_TABLE_STEPS`` is refused before the table is built.
        ``Constant`` and ``Critical`` override it with closed forms that need
        no O(n) memory.
        """
        if n > _MAX_TABLE_STEPS:
            raise ValueError(f"the hazard table of a {self.kind} schedule holds at most "
                             f"{_MAX_TABLE_STEPS} steps, got n = {n}")
        return _TableHazard(self.prefix_probs(n))

    def to_json(self) -> dict:
        raise NotImplementedError

    def _tail(self) -> tuple:
        """Tagged description of the eventual behavior, for classification."""
        raise NotImplementedError


def count_order(counts: np.ndarray) -> np.ndarray:
    """The stable ascending order of nonnegative integer ``counts``.

    Below 2^16 the counts are sorted as uint16, for which numpy's stable
    sort is a radix sort; the permutation is that of ``np.argsort(counts,
    kind="stable")``, which larger counts still use.
    """
    if counts.size and counts.max() < 1 << 16:
        counts = counts.astype(np.uint16)
    return np.argsort(counts, kind="stable")


# Points per chunk of ``_TableHazard.step`` (and steps per chunk of its guide):
# its temporaries are a few arrays of this length
_CHUNK = 1 << 14
# Forward probes of ``_TableHazard.step`` before a point falls back to a
# binary search
_PROBES = 4
# Standard deviations above the mean redraw count in the gaps a constant
# rate draws per row at first; a row still short draws more
_GAP_SIGMAS = 6.0


class _Hazard:
    """The run engine's placement of redraws as Poisson points in hazard time."""

    def redraws(self, lo, hi, samples, cells, rng):
        """Yield ``(rows, steps, count)`` blocks: the redraws in (lo, hi] of each path.

        Each path draws its count of Poisson points over nc(lo)..nc(hi); the
        paths, ordered by count so that blocks carry little padding, are cut
        into blocks of at most about ``cells`` cells (rows x (columns + 2)).
        Row r is path ``rows[r]``: its points, placed as normalized
        exponential spacings so they come out sorted, and the segment's
        forced steps give ``count[r]`` ascending redraw steps
        ``steps[r, :count[r]]``; a step hit twice appears twice, and the
        rest of the row is hi + 1.  Only each row's own points go through
        ``step``; the padding to the block's widest row is set to hi + 1
        without an inversion (``_poisson_steps``).
        """
        seg_forced = self.forced(lo, hi)
        base, top = self.at(lo), self.at(hi)
        k = rng.poisson(top - base, samples)
        order = count_order(k)
        k = k[order]
        r0 = 0
        while r0 < samples:
            # a row fills at least 2 cells, so no block has more than cells // 2 + 1 rows
            rest = k[r0:r0 + cells // 2 + 1]
            fill = np.arange(1, rest.size + 1) * (rest + seg_forced.size + 2)
            r1 = r0 + max(1, int(np.searchsorted(fill, cells, side="right")))
            # no name here keeps the steps alive while the engine runs the block
            yield (order[r0:r1], self._poisson_steps(lo, hi, base, top, seg_forced,
                                                     k[r0:r1], rng),
                   k[r0:r1] + seg_forced.size)
            r0 = r1

    def _poisson_steps(self, lo, hi, base, top, seg_forced, k, rng):
        """One block's redraw steps: ``k[r]`` points per row (``k`` ascending).

        Row r's points are the first k[r] normalized spacings of its row,
        scaled to nc(lo)..nc(hi).  Only these real points are inverted by
        ``step``; the rest of each row, the padding to the widest count, is
        set to hi + 1 without an inversion.
        """
        b = k.size
        width = int(k[-1])
        spacings = rng.standard_exponential((b, width + 1))
        if not width:  # no points to invert, as always where nc(lo) == nc(hi)
            steps = np.empty((b, 0), dtype=np.int64)
        else:
            np.cumsum(spacings, axis=1, out=spacings)
            scale = (top - base) / spacings[np.arange(b), k]
            real = np.arange(width) < k[:, None]
            points = spacings[:, :width][real]
            del spacings
            points *= np.repeat(scale, k)
            points += base
            np.minimum(points, top, out=points)  # rounding past the end
            found = self.step(points)
            del points
            np.clip(found, lo + 1, hi, out=found)  # rounding at the ends
            steps = np.full((b, width), hi + 1, dtype=np.int64)
            steps[real] = found
        if seg_forced.size:
            steps = np.sort(np.concatenate(
                [steps, np.broadcast_to(seg_forced, (b, seg_forced.size))], axis=1), axis=1)
        return steps


class _TableHazard(_Hazard):
    """``Schedule.hazard`` by table: nc, its guide and the forced steps as O(n) arrays.

    ``step`` is an indexed search (Chen & Asau 1974; Devroye 1986, III.2.4).
    ``_bin`` cuts [0, nc(n)) into n bins of equal width, and guide[i] is the
    first step t whose nc(t) lies in bin i or above.  ``_bin`` is monotone,
    so guide[_bin(x)] never passes min{t : nc(t) >= x}, and a walk forward
    from it ends there: for x >= 0 the result equals
    ``np.searchsorted(nc, x)``.  The engine's points are uniform on the
    hazard axis and the bins hold about one step each, so a point takes
    under two probes on average.  A bin that holds many steps cannot stall
    the walk: after ``_PROBES`` rounds its points are finished by binary
    search.
    """

    def __init__(self, h):
        # h holds p_1..p_n and becomes the per-step hazards in place
        n = h.size
        h[0] = 0.0
        self._forced = np.flatnonzero(h >= 1.0) + 1
        h[self._forced - 1] = 0.0  # -log(0) would poison the cumsum
        np.negative(h, out=h)
        np.log1p(h, out=h)
        np.negative(h, out=h)
        # nc(0..n), then +inf, where every forward walk stops
        self._nc = np.empty(n + 2)
        self._nc[0] = 0.0
        np.cumsum(h, out=self._nc[1:n + 1])
        self._nc[n + 1] = np.inf
        self._n = n
        total = float(self._nc[n])
        # no hazard, or so little that n / total overflows: one bin, and
        # every point goes to the binary search
        self._scale = n / total if total > n / sys.float_info.max else 0.0
        # guide[i] = t for the bins i in (_bin(nc(t - 1)), _bin(nc(t))],
        # filled a chunk of steps at a time; bins past _bin(nc(n)) get n + 1
        self._guide = np.empty(n + 1, dtype=np.int32 if n < 2 ** 31 - 1 else np.int64)
        self._guide[0] = 0
        filled = 0
        for a in range(1, n + 1, _CHUNK):
            b = min(a + _CHUNK, n + 1)
            key = self._bin(self._nc[a:b])
            top = int(key[-1])
            self._guide[filled + 1:top + 1] = np.repeat(
                np.arange(a, b, dtype=self._guide.dtype), np.diff(key, prepend=filled))
            filled = top
        self._guide[filled + 1:] = n + 1

    def _bin(self, v):
        """The guide bin of each hazard v >= 0: min(floor(v n / nc(n)), n)."""
        key = v * self._scale
        np.minimum(key, self._n, out=key)
        return key.astype(np.intp)

    def at(self, t):
        return self._nc[t]

    def step(self, x):
        out = np.empty(np.shape(x), dtype=np.intp)
        nc = self._nc
        # x in chunks of at most _CHUNK points; a strided x (the engine's
        # block of points) is copied a chunk at a time
        with np.nditer([x, out], flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readonly"], ["writeonly"]], op_dtypes=[float, np.intp],
                       buffersize=_CHUNK) as chunks:
            for xs, t in chunks:
                t[...] = self._guide[self._bin(xs)]
                short = (nc[t] < xs).nonzero()[0]
                for _ in range(_PROBES):
                    if not short.size:
                        break
                    t[short] += 1
                    short = short[nc[t[short]] < xs[short]]
                if short.size:
                    t[short] = np.searchsorted(nc, xs[short])
        return out

    def n_forced(self, t):
        return int(np.searchsorted(self._forced, t, side="right"))

    def forced(self, lo, hi):
        return self._forced[self.n_forced(lo):self.n_forced(hi)]


def _settle(at, x, t):
    """Move each guess t, off by a few steps, to min{t : at(t) >= x}.

    ``at`` must be elementwise and nondecreasing, and t float64 below 2^53
    (where t - 1 != t).  It is evaluated on every point once in each
    direction; after that only the points still off are moved and evaluated
    again.
    """
    shape = np.shape(t)
    x, t = np.ravel(x), np.ravel(t)
    off = np.flatnonzero(at(t - 1) >= x)
    while off.size:
        t[off] -= 1
        off = off[at(t[off] - 1) >= x[off]]
    off = np.flatnonzero(at(t) < x)
    while off.size:
        t[off] += 1
        off = off[at(t[off]) < x[off]]
    return t.reshape(shape)


def _constant_step(x, h):
    """min{t : (t - 1) h >= x} for h > 0 and x > 0: ceil(x / h) + 1, settled.

    The steps stay in float64, exact below 2^53, until the end.
    """
    t = np.divide(x, h)
    np.ceil(t, out=t)
    t += 1
    return _settle(lambda s: (s - 1) * h, x, t).astype(np.int64)


class _ForcedSpan(_Hazard):
    """Forced steps that form one run, first..last (empty when first > last)."""

    def __init__(self, first, last):
        self._first, self._last = first, last

    def n_forced(self, t):
        return max(0, min(t, self._last) - self._first + 1)

    def forced(self, lo, hi):
        return np.arange(max(lo + 1, self._first), min(hi, self._last) + 1)


class _ConstantHazard(_ForcedSpan):
    """nc(t) = max(t - 1, 0) h with h = -log(1 - p); every step forced at p = 1.

    For 0 < p < 1 the redraws are placed as geometric gaps, not as Poisson
    points: the decisions at steps 2..n are iid Bernoulli(p), so the gaps
    between redraw steps are iid Geometric(p), drawn by inversion as
    G = 1 + floor(E / h) with E ~ Exp(1) (Devroye 1986).  Every step
    drawn is a distinct redraw, and no step is inverted from hazard time.
    """

    def __init__(self, p, n):
        p = float(p)
        super().__init__(2, n if p == 1 else 1)
        self._p = p
        self._h = 0.0 if p == 1 else -math.log1p(-p)

    def at(self, t):
        return np.maximum(np.asarray(t) - 1, 0) * self._h

    def step(self, x):
        return _constant_step(x, self._h)

    def redraws(self, lo, hi, samples, cells, rng):
        """The blocks of ``_Hazard.redraws``, from gaps counted from max(lo, 1).

        The segment has L = hi - max(lo, 1) Bernoulli steps.  Each row first
        draws W = min(L, ceil(Lp + _GAP_SIGMAS sqrt(Lp(1 - p)) + 1)) gaps,
        more than its redraw count needs unless that count lies _GAP_SIGMAS
        standard deviations above its mean.  A row whose last step is still
        below hi draws more gaps from that step, which keeps the law exact
        since the gaps are memoryless.  Blocks hold the rows in order,
        ``cells // (W + 2)`` of them.
        """
        if not 0 < self._p < 1:  # no hazard: only the forced steps, if any
            yield from super().redraws(lo, hi, samples, cells, rng)
            return
        first = max(lo, 1)
        width = self._gap_width(hi - first)
        per_block = max(1, cells // (width + 2))
        for r0 in range(0, samples, per_block):
            rows = np.arange(r0, min(r0 + per_block, samples))
            yield (rows, *self._gap_block(first, hi, (rows.size, width), rng))

    def _gap_block(self, first, hi, shape, rng):
        """One block's redraw steps after ``first`` and their count per row."""
        steps = self._gap_steps(first, hi, shape, rng)
        short = np.flatnonzero(steps[:, -1] < hi) if shape[1] else np.arange(0)
        while short.size:  # top-ups, each from the row's last step
            last = steps[short, -1:]
            more = np.full((shape[0], self._gap_width(hi - int(last.min()))), hi + 1.0)
            more[short] = self._gap_steps(last, hi, (short.size, more.shape[1]), rng)
            steps = np.concatenate([steps, more], axis=1)
            short = short[more[short, -1] < hi]
        return steps, np.count_nonzero(steps <= hi, axis=1)

    def _gap_width(self, steps):
        """W of ``redraws`` for ``steps`` Bernoulli steps; never more than ``steps``."""
        mean = steps * self._p
        return min(steps, math.ceil(mean + _GAP_SIGMAS * math.sqrt(mean * (1 - self._p)) + 1))

    def _gap_steps(self, start, hi, shape, rng):
        """``start`` plus cumulative Geometric(p) gaps, as floats capped at hi + 1."""
        gaps = rng.standard_exponential(shape)
        # at a tiny h, E / h and the sums may overflow to inf: past any step
        with np.errstate(over="ignore"):
            gaps /= self._h
            np.floor(gaps, out=gaps)
            np.cumsum(gaps, axis=1, out=gaps)
        gaps += start + np.arange(1.0, shape[1] + 1)  # float64 like gaps: no cast
        # the cap precedes any cast to the engine's integer steps: a gap
        # past hi, even an infinite one, becomes hi + 1
        np.minimum(gaps, hi + 1, out=gaps)
        return gaps


# B_0..B_6, for the Bernoulli polynomials of the Critical tail's series
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42)


class _CriticalHazard(_ForcedSpan):
    """nc for ``Critical(a, n0, prefix_p)`` in closed form.

    Steps 2..n0-1 take the constant form at rate ``prefix_p``, and step n0
    is forced when a == n0.  From the first tail step m on (n0, or n0 + 1
    when step n0 is forced, and at least 2), nc(t) - nc(m - 1) =
    sum_{j=m}^{t} -log(1 - a/j) = F(t) - F(m - 1) with
    F(t) = log Gamma(t + 1) - log Gamma(t + 1 - a).  The two lgamma terms
    cancel at large t (at t = 10^9 one step's hazard is lost in their
    rounding), so F is summed exactly in a short table up to about
    64 max(a, 1) and continued by its asymptotic series in z = t + 1 - a,

        F = a log z + sum_{k=1}^{6} (-1)^(k+1) (B_{k+1}(a) - B_{k+1}(0)) / (k (k+1) z^k)

    with B_k the Bernoulli polynomials; at z >= 64 max(a, 1) the dropped
    terms are below 4e-15 a.  For a == 1 the series vanishes and the tail is
    log t exactly.  The inverse takes an exp guess and settles it by +-1
    steps.
    """

    def __init__(self, a, n0, prefix_p, n):
        a, prefix_p = float(a), float(prefix_p)
        forced_n0 = a == n0
        super().__init__(2 if prefix_p == 1 else max(n0, 2), n0 - 1 + forced_n0)
        self._a = a
        self._h0 = 0.0 if prefix_p == 1 else -math.log1p(-prefix_p)
        self._pre = max(n0 - 2, 0)  # prefix steps 2..n0-1
        self._m = max(n0 + forced_n0, 2)
        self._end = self._m - 1 if a == 1 else \
            max(self._m - 1, min(n, math.ceil(64 * max(a, 1))))
        # the series serves only steps past the table, so none is built when
        # the table reaches n: its a^7 term overflows from a ~ 1e44 on
        self._coef = () if a == 1 or self._end >= n else tuple(
            (-1) ** (k + 1) / (k * (k + 1))
            * sum(math.comb(k + 1, j) * _BERNOULLI[j] * a ** (k + 1 - j)
                  for j in range(k + 1))
            for k in range(1, 7))
        # table[i] = nc(m - 1 + i) for m - 1 + i <= end, built in place:
        # j = m..end becomes -log(1 - a/j), then the cumsum from nc(m - 1)
        self._table = np.arange(self._m - 1, self._end + 1, dtype=float)
        tail = self._table[1:]
        np.divide(-a, tail, out=tail)
        np.log1p(tail, out=tail)
        np.negative(tail, out=tail)
        self._table[0] = self._pre * self._h0
        np.cumsum(self._table, out=self._table)
        self._c = float(self._table[-1] - self._f(np.float64(self._end + 1 - a)))

    def _f(self, z):
        """F up to a constant: a log z plus the series in 1/z (Horner)."""
        f = np.log(z)
        f *= self._a
        if self._coef:
            w = 1.0 / z
            s = w * self._coef[-1]
            for c in reversed(self._coef[:-1]):
                s += c
                s *= w
            f += s
        return f

    def at(self, t):
        t = int(t)
        if t > self._end:
            return self._f(np.float64(t + (1 - self._a))) + self._c
        if t >= self._m:
            return self._table[t - (self._m - 1)]
        return np.float64(min(max(t - 1, 0), self._pre) * self._h0)

    def step(self, x):
        x = np.asarray(x)
        far = x > self._table[-1]
        if far.all():  # the usual case: every point past the short table
            return self._far_step(x)
        t = np.zeros(x.shape, dtype=np.int64)  # nc(0) >= x: no hazard yet
        t[far] = self._far_step(x[far])
        pre = x <= self._table[0]
        if self._h0 > 0:
            t[pre] = _constant_step(x[pre], self._h0)
        mid = ~pre & ~far
        t[mid] = np.searchsorted(self._table, x[mid]) + (self._m - 1)
        return t

    def _far_step(self, x):
        """The inverse past the short table, with steps in float64."""
        a, end, c, top = self._a, self._end, self._c, self._table[-1]
        # a log z = x - c gives z0, and the series' a(a - 1)/(2z) term moves
        # the root t = z - 1 + a to about z0 + (a - 1)/2
        t = np.exp((x - c) / a)
        t += (a - 1) / 2
        np.ceil(t, out=t)
        np.maximum(t, end + 1, out=t)

        def at(s):
            f = self._f(s + (1 - a))
            f += c
            f[s <= end] = top
            return f
        return _settle(at, x, t).astype(np.int64)


@dataclass(frozen=True)
class Constant(Schedule):
    """p_n = p at every step."""

    p: Prob
    kind = "Constant"

    def __post_init__(self):
        _check_prob(self.p, "p")

    def p_at(self, n: int):
        _integer("step", n, 1)
        return self.p

    def prefix_probs(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        return np.full(n, float(self.p))

    def hazard(self, n: int):
        return _ConstantHazard(self.p, n)

    def to_json(self) -> dict:
        return {"kind": "Constant", "p": float(self.p)}

    def _tail(self) -> tuple:
        return ("constant", self.p)


@dataclass(frozen=True)
class Critical(Schedule):
    """p_n = a/n for n >= n0, ``prefix_p`` before that.

    Requires a <= n0 so that a/n never exceeds 1 on its own range.
    """

    a: Prob
    n0: int = 1
    prefix_p: Prob = 1
    kind = "Critical"

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        object.__setattr__(self, "n0", _integer("n0", self.n0, 1))
        if self.a > self.n0:
            raise ValueError(
                f"a/n exceeds 1 at n = n0: need a <= n0, got a={self.a!r}, n0={self.n0}"
            )
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        n = _integer("step", n, 1)
        if n < self.n0:
            return self.prefix_p
        return self.a / n

    def prefix_probs(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        out = np.arange(1, n + 1, dtype=float)
        tail = out[self.n0 - 1:]
        np.divide(float(self.a), tail, out=tail)
        out[:self.n0 - 1] = float(self.prefix_p)
        return out

    def hazard(self, n: int):
        return _CriticalHazard(self.a, self.n0, self.prefix_p, n)

    def to_json(self) -> dict:
        return {"kind": "Critical", "a": float(self.a), "n0": self.n0,
                "prefix_p": float(self.prefix_p)}

    def _tail(self) -> tuple:
        return ("critical", self.a)


@dataclass(frozen=True)
class PowerDecay(Schedule):
    """p_n = c * n**(-gamma) for n >= n0, with gamma strictly inside (0, 1)."""

    c: float
    gamma: float
    n0: int = 1
    prefix_p: Prob = 1
    kind = "PowerDecay"

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c!r}")
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        object.__setattr__(self, "n0", _integer("n0", self.n0, 1))
        # c * n**(-gamma) is decreasing, so the n0 value is the maximum
        if self.c * self.n0 ** (-self.gamma) > 1:
            raise ValueError(
                f"c * n**(-gamma) exceeds 1 at n = n0 = {self.n0}; reduce c or raise n0"
            )
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        n = _integer("step", n, 1)
        if n < self.n0:
            return self.prefix_p
        # np.power, as in prefix_probs: Python's ** differs in the last bit
        return float(self.c * np.power(np.float64(n), -self.gamma))

    def prefix_probs(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        out = np.arange(1, n + 1, dtype=float)
        tail = out[self.n0 - 1:]
        np.power(tail, -self.gamma, out=tail)
        np.multiply(self.c, tail, out=tail)
        out[:self.n0 - 1] = float(self.prefix_p)
        return out

    def to_json(self) -> dict:
        return {"kind": "PowerDecay", "c": self.c, "gamma": self.gamma,
                "n0": self.n0, "prefix_p": float(self.prefix_p)}

    def _tail(self) -> tuple:
        return ("power", self.c, self.gamma)


@dataclass(frozen=True)
class Periodic(Schedule):
    """p_n cycles through ``values`` with period len(values), starting at n0."""

    values: tuple
    n0: int = 1
    prefix_p: Prob = 1
    kind = "Periodic"

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("values must be a nonempty list of probabilities")
        for v in vals:
            _check_prob(v, "values[]")
        object.__setattr__(self, "n0", _integer("n0", self.n0, 1))
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        n = _integer("step", n, 1)
        if n < self.n0:
            return self.prefix_p
        return self.values[(n - self.n0) % len(self.values)]

    def prefix_probs(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        out = np.full(n, float(self.prefix_p))
        if n >= self.n0:
            for i, v in enumerate(self.values):
                out[self.n0 - 1 + i::len(self.values)] = float(v)
        return out

    def to_json(self) -> dict:
        return {"kind": "Periodic", "values": [float(v) for v in self.values],
                "n0": self.n0, "prefix_p": float(self.prefix_p)}

    def _tail(self) -> tuple:
        if len(set(self.values)) == 1:
            return ("constant", self.values[0])
        return ("periodic", self.values)


@dataclass(frozen=True)
class Explicit(Schedule):
    """p_n read from a finite table; the last entry persists past the table.

    ``values[0]`` is p_1, ``values[1]`` is p_2, and so on.  Note that p_1 is
    irrelevant to the walk law (the first step always redraws) but is kept so
    tables round-trip exactly.
    """

    values: tuple
    kind = "Explicit"

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("values must be a nonempty list of probabilities")
        for v in vals:
            _check_prob(v, "values[]")

    def p_at(self, n: int):
        n = _integer("step", n, 1)
        if n <= len(self.values):
            return self.values[n - 1]
        return self.values[-1]

    def prefix_probs(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        vals = np.asarray(self.values, dtype=float)
        if n <= len(vals):
            return vals[:n].copy()
        out = np.full(n, float(vals[-1]))
        out[: len(vals)] = vals
        return out

    def to_json(self) -> dict:
        return {"kind": "Explicit", "values": [float(v) for v in self.values]}

    def _tail(self) -> tuple:
        # Classification only trusts a table that is literally constant; an
        # arbitrary finite table carries no asymptotic information.
        if len(set(self.values)) == 1:
            return ("constant", self.values[0])
        return ("table",)


_KINDS = {
    "Constant": Constant,
    "Critical": Critical,
    "PowerDecay": PowerDecay,
    "Periodic": Periodic,
    "Explicit": Explicit,
}


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(schedule.to_json())


def schedule_from_json(obj) -> Schedule:
    """Build a schedule from a JSON object or string, e.g. {"kind":"Constant","p":0.5}."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("schedule JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {sorted(_KINDS)}")
    params = {k: v for k, v in obj.items() if k != "kind"}
    if "values" in params:
        params["values"] = tuple(params["values"])
    try:
        return _KINDS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind}: {exc}") from None


class Regime(enum.Enum):
    RECURRENT = "Recurrent"
    NOT_STRONGLY_TRANSIENT = "NotStronglyTransient"
    STRONGLY_TRANSIENT = "StronglyTransient"
    CONJECTURED_STRONGLY_TRANSIENT = "ConjecturedStronglyTransient"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RegimeClassification:
    """Outcome of ``classify_regime``.

    ``theorem_ref`` names the result whose hypotheses were verified; it is
    empty exactly when the regime is Unknown.  ``checked_conditions`` lists
    (condition description, satisfied) pairs for every hypothesis examined,
    including those of results that also matched or failed to match.
    """

    regime: Regime
    theorem_ref: str
    checked_conditions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.regime is not Regime.UNKNOWN and not self.theorem_ref:
            raise ValueError("theorem_ref must be nonempty unless regime is Unknown")
        object.__setattr__(self, "checked_conditions", tuple(self.checked_conditions))

    def to_json(self) -> dict:
        return {
            "regime": self.regime.value,
            "theorem_ref": self.theorem_ref,
            "checked_conditions": [[name, bool(ok)] for name, ok in self.checked_conditions],
        }


_REF_CONSTANT_RECURRENT = "constant-rate planar recurrence"
_REF_SRW = "uniform-update reduction to the planar simple random walk"
_REF_FAST_DECAY = "fast-decay planar strong transience"
_REF_WINDOW = "strong transience under window-stable square-summable rates"
_REF_PERIODIC = "periodic-rate non-strong-transience"
_REF_CRITICAL = "critical-rate strong-transience conjecture"
_REF_FINITE_UPDATES = "finitely many direction updates"


def _window_conditions(d: int, eps: float, checks: list, ratio_ok: bool,
                       growth_ok: bool, summable_ok: bool) -> bool:
    """Record the three window-theorem hypotheses; return overall verdict."""
    checks.append((f"backward-window max/min rate ratio bounded (eps'={eps / 2:.4g})", ratio_ok))
    checks.append((f"p_n * n^(1-eps) / log n diverges (eps={eps:.4g})", growth_ok))
    checks.append((f"sum of (p_n / n^(1-eps))^(d/2) converges (eps={eps:.4g})", summable_ok))
    return ratio_ok and growth_ok and summable_ok


def classify_regime(schedule: Schedule, d: int) -> RegimeClassification:
    """Classify a schedule's walk in dimension d by the known sufficient conditions.

    Priority when several results apply: Recurrent, then StronglyTransient,
    then NotStronglyTransient, then ConjecturedStronglyTransient; everything
    outside the recognized hypotheses is Unknown.  Dimension 1 is always
    Unknown here (its dichotomy is settled by other means and not reproduced
    in this toolkit).  The verdict depends only on the eventual behavior of
    p_n, never on the prefix.
    """
    d = _integer("d", d, 1)
    checks: list = []
    if d == 1:
        checks.append(("dimension at least 2", False))
        return RegimeClassification(Regime.UNKNOWN, "", checks)
    checks.append(("dimension at least 2", True))

    tail = schedule._tail()

    if tail[0] == "constant":
        v = tail[1]
        if v == 0:
            checks.append(("turn rates eventually all zero, so only finitely many updates", True))
            return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_FINITE_UPDATES, checks)
        checks.append(("rate eventually constant and positive", True))
        if d == 2:
            if v == 1:
                checks.append(("every step updates, reducing to the simple random walk", True))
                checks.append(("periodic-rate non-strong-transience also applies", True))
                return RegimeClassification(Regime.RECURRENT, _REF_SRW, checks)
            checks.append(("constant rate strictly inside (0, 1)", True))
            checks.append(("periodic-rate non-strong-transience also applies", True))
            return RegimeClassification(Regime.RECURRENT, _REF_CONSTANT_RECURRENT, checks)
        # d >= 3 with liminf p > 0: all three window hypotheses hold with
        # eps < 1 - 2/d (the ratio tends to 1 and the sum is a p-series).
        eps = (1 - 2 / d) / 2
        _window_conditions(d, eps, checks, True, True, True)
        return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_WINDOW, checks)

    if tail[0] == "critical":
        checks.append(("rate eventually a/n (critical decay)", True))
        # p_n * n^(1-eps)/log n = a/(n^eps log n) -> 0 for every eps > 0, so
        # the window theorem never applies; the verdict is the conjecture.
        checks.append(("p_n * n^(1-eps) / log n diverges (any eps)", False))
        checks.append(("sum of (p_n / n^(1-eps))^(d/2) converges", True))
        return RegimeClassification(
            Regime.CONJECTURED_STRONGLY_TRANSIENT, _REF_CRITICAL, checks)

    if tail[0] == "power":
        _, c, gamma = tail
        eps = min(gamma, 1 - gamma) / 2
        _window_conditions(d, eps, checks, True, True, True)
        if d == 2:
            fast = gamma > 0.5
            label = "rate eventually below n^(-1/2-eps)"
            if fast:
                checks.append((f"{label} (eps={(gamma - 0.5) / 2:.4g})", True))
                return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_FAST_DECAY, checks)
            checks.append((f"{label} for some eps > 0", False))
        return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_WINDOW, checks)

    if tail[0] == "periodic":
        values = tail[1]
        checks.append(("rate sequence eventually periodic", True))
        positive = max(values) > 0
        checks.append(("some positive rate in the cycle", positive))
        if not positive:
            return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_FINITE_UPDATES, checks)
        if d == 2:
            return RegimeClassification(Regime.NOT_STRONGLY_TRANSIENT, _REF_PERIODIC, checks)
        if min(values) > 0:
            eps = (1 - 2 / d) / 2
            _window_conditions(d, eps, checks, True, True, True)
            return RegimeClassification(Regime.STRONGLY_TRANSIENT, _REF_WINDOW, checks)
        # Zeros inside the cycle make the window max/min ratio unbounded.
        _window_conditions(d, (1 - 2 / d) / 2, checks, False, False, True)
        return RegimeClassification(Regime.UNKNOWN, "", checks)

    checks.append(("table is eventually constant in a recognized way", False))
    return RegimeClassification(Regime.UNKNOWN, "", checks)
