"""The zigzag process: scaling limit of the walk in the critical regime.

A scale-free Poisson point process with intensity b/x on (epsilon, T] cuts
the time window into intervals.  Each interval carries one of the 2d signed
axis directions; adjacent intervals must differ.  The process position at
time t is, per axis, the signed Lebesgue measure of the labeled intervals up
to t.  Simulation truncates at epsilon > 0 because the full point set
accumulates at 0; the truncation displaces each coordinate by at most
epsilon, which is the certified bias of every sampled position.

Labels are assigned by anchoring at time 1 (whose interval's label is
uniform over all 2d directions) and extending to both sides, each neighbor
uniform over the 2d - 1 directions different from its already-labeled
neighbor.  That chain has symmetric transitions, hence uniform marginals on
every interval, so where the anchor sits does not matter for the law.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .schedule import _integer, count_order
from .walk import Direction

__all__ = [
    "PPPRealization",
    "LabeledIntervals",
    "ZigzagPath",
    "b_from_a",
    "sample_ppp",
    "label_intervals",
    "position_at",
    "sample_endpoints",
]

# Most expected points one sample or path may hold: past them an intensity is
# refused before any draw, not left to fail in the allocator.
# ``sample_endpoints`` holds one group of equal-count samples at a time, 32
# bytes a point (512 MiB for one sample at the cap); its total over all
# samples costs only time, 40-80 ns a point.  A ``sample_ppp`` point becomes
# Python objects through ``label_intervals``, about 160 B and 30 us each
# (170 MB and 30 s at its cap).
_MAX_POINTS = 1 << 24
_MAX_PPP_POINTS = 1 << 20


def b_from_a(a: float, d: int) -> float:
    """Zigzag intensity matching the critical schedule p_n = a/n: only a
    fraction (2d-1)/2d of direction redraws actually change the direction."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be positive and finite, got {a}")
    d = _integer("d", d, 1)
    return (2 * d - 1) * a / (2 * d)


@dataclass(frozen=True)
class PPPRealization:
    """Sorted points of the intensity-b/x Poisson process on (epsilon, T]."""

    points: tuple
    epsilon: float
    horizon: float
    intensity_b: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(float(t) for t in self.points))
        pts = self.points
        if any(t2 <= t1 for t1, t2 in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        if pts and not (self.epsilon < pts[0] and pts[-1] <= self.horizon):
            raise ValueError("points must lie in (epsilon, horizon]")


@dataclass(frozen=True)
class LabeledIntervals:
    """Half-open intervals (boundaries[i], boundaries[i+1]] with one signed
    axis direction each; adjacent labels always differ (checked)."""

    d: int
    boundaries: tuple
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(float(b) for b in self.boundaries))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.boundaries) - 1:
            raise ValueError("need exactly one label per interval")
        if len(self.labels) >= 2:
            for a, b in zip(self.labels, self.labels[1:]):
                if a == b:
                    raise ValueError("adjacent interval labels must differ")

    @property
    def epsilon(self) -> float:
        return self.boundaries[0]

    @property
    def horizon(self) -> float:
        return self.boundaries[-1]


@dataclass(frozen=True)
class ZigzagPath:
    """A labeled realization together with its position evaluation."""

    intervals: LabeledIntervals

    @property
    def d(self) -> int:
        return self.intervals.d

    def position_at(self, t: float) -> tuple:
        return position_at(self, t)

    def positions(self, times) -> np.ndarray:
        """Evaluate on a grid; rows are positions, shape (len(times), d)."""
        return np.array([self.position_at(t) for t in times])

    def to_csv(self, fileobj) -> None:
        """Interval rows (left, right, axis, sign)."""
        iv = self.intervals
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["left", "right", "axis", "sign"])
        for k, label in enumerate(iv.labels):
            writer.writerow([repr(iv.boundaries[k]), repr(iv.boundaries[k + 1]),
                             label.axis, label.sign])

    def trajectory_to_csv(self, times, fileobj) -> None:
        """Sampled rows (t, z_1..z_d)."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["t"] + [f"z_{k + 1}" for k in range(self.d)])
        for t in times:
            z = self.position_at(t)
            writer.writerow([repr(float(t))] + [repr(c) for c in z])


def sample_ppp(b: float, epsilon: float | None, T: float,
               rng: np.random.Generator) -> PPPRealization:
    """Draw the PPP restricted to (epsilon, T].

    In log-time the intensity is uniform, so the count is
    Poisson(b ln(T/epsilon)) and each point is exp of a uniform variate on
    [ln epsilon, ln T].  epsilon = None defaults to 1e-4 * T.  Boundary hits
    and ties (probability zero, float artifacts only) are resampled.
    epsilon = T is allowed and yields an empty realization.
    """
    if epsilon is None:
        epsilon = 1e-4 * T
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"b must be positive and finite, got {b}")
    if not (math.isfinite(T) and 0 < epsilon <= T):
        raise ValueError(f"need a finite horizon T and 0 < epsilon <= T, "
                         f"got epsilon={epsilon}, T={T}")
    lam = b * (np.log(T) - np.log(epsilon))
    if not lam <= _MAX_PPP_POINTS:
        raise ValueError(f"b = {b} on (epsilon, T] = ({epsilon}, {T}] expects {lam:.6g} "
                         f"points, more than {_MAX_PPP_POINTS}")
    while True:
        count = int(rng.poisson(lam))
        pts = np.sort(np.exp(rng.uniform(np.log(epsilon), np.log(T), size=count)))
        if count == 0:
            break
        if pts[0] > epsilon and pts[-1] <= T and np.all(np.diff(pts) > 0):
            break
    return PPPRealization(points=tuple(float(t) for t in pts), epsilon=float(epsilon),
                          horizon=float(T), intensity_b=float(b))


def label_intervals(ppp: PPPRealization, d: int,
                    rng: np.random.Generator) -> LabeledIntervals:
    """Label the intervals of a realization, anchored at time 1.

    The interval containing 1 gets a uniform label over the 2d directions;
    the chain then extends forward to T and backward to epsilon, each step
    uniform over the 2d - 1 directions differing from the neighbor already
    labeled.  Requires epsilon < 1 <= T so the anchor interval exists.
    """
    d = _integer("d", d, 1)
    if not (ppp.epsilon < 1.0 <= ppp.horizon):
        raise ValueError(
            f"anchor time 1 outside (epsilon, T] = ({ppp.epsilon}, {ppp.horizon}]")
    bounds = (ppp.epsilon,) + ppp.points + (ppp.horizon,)
    n_intervals = len(bounds) - 1
    # interval i is (bounds[i], bounds[i+1]]; the one containing 1 has
    # bounds[i] < 1 <= bounds[i+1]
    anchor = bisect_left(bounds, 1.0) - 1
    labels = [None] * n_intervals
    labels[anchor] = Direction.from_index(int(rng.integers(0, 2 * d)))
    for i in range(anchor + 1, n_intervals):
        step = 1 + int(rng.integers(0, 2 * d - 1))
        labels[i] = Direction.from_index((labels[i - 1].index + step) % (2 * d))
    for i in range(anchor - 1, -1, -1):
        step = 1 + int(rng.integers(0, 2 * d - 1))
        labels[i] = Direction.from_index((labels[i + 1].index + step) % (2 * d))
    return LabeledIntervals(d=d, boundaries=bounds, labels=tuple(labels))


def position_at(path: ZigzagPath, t: float) -> tuple:
    """Z_t per axis: signed length of the labeled intervals inside (eps, t]."""
    iv = path.intervals
    if not iv.epsilon < t <= iv.horizon:
        raise ValueError(f"t = {t} outside (epsilon, T] = ({iv.epsilon}, {iv.horizon}]")
    coords = [0.0] * iv.d
    for k, label in enumerate(iv.labels):
        left = iv.boundaries[k]
        if left >= t:
            break
        right = min(iv.boundaries[k + 1], t)
        coords[label.axis] += label.sign * (right - left)
    return tuple(coords)


def sample_endpoints(d: int, b: float, epsilon: float, samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Z_1 of ``samples`` independent labeled realizations on (epsilon, 1].

    Batched: shape (samples, d).  Each sample first draws its count of
    points, Poisson(b ln(1/epsilon)).  The samples are then taken in groups
    of equal count k, in the stable order of their counts.  A group of r
    samples draws an (r, k + 1) block of standard exponentials; the first k
    row cumsums divided by the (k + 1)-th are k sorted uniforms (normalized
    exponential spacings; Devroye, *Non-Uniform Random Variate Generation*,
    1986, V.2), which exp(ln(epsilon) (1 - u)) maps to the sample's points
    in time order, so no points are sorted.  The label chain is generated
    forward from the first interval instead of outward from the anchor at
    t = 1; the chain's transition matrix is symmetric, so labels are
    uniform on every interval and both constructions induce the same joint
    law (this equivalence is tested against ``label_intervals``).
    """
    d, samples = _integer("d", d, 1), _integer("samples", samples, 0)
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"b must be positive and finite, got {b}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"need 0 < epsilon <= 1, got epsilon={epsilon}")
    log_eps = math.log(epsilon)
    points = 1 - b * log_eps  # a sample's points and the end 1
    if not points <= _MAX_POINTS:
        raise ValueError(f"b = {b} and epsilon = {epsilon} expect {points:.6g} points "
                         f"a sample, more than {_MAX_POINTS}")
    counts = rng.poisson(-b * log_eps, samples)
    order = count_order(counts)
    ends = np.flatnonzero(np.diff(counts[order])) + 1
    coords = np.empty((samples, d))
    for rows in np.split(order, ends) if samples else ():
        r, k = rows.size, int(counts[rows[0]])
        # row cumsums over their last: k sorted uniforms, then exactly 1,
        # which the map takes to the k points, then to the right end 1
        rights = rng.standard_exponential((r, k + 1))
        np.cumsum(rights, axis=1, out=rights)
        rights /= rights[:, -1:]
        np.subtract(1.0, rights, out=rights)
        rights *= log_eps
        np.exp(rights, out=rights)
        lengths = np.diff(rights, axis=1, prepend=epsilon)
        del rights
        # the label chain, built in place: a uniform first label, then
        # steps of 1..2d - 1 mod 2d; odd labels run backwards on axis label >> 1
        labels = np.empty((r, k + 1), dtype=np.intp)
        labels[:, 0] = rng.integers(0, 2 * d, r)
        labels[:, 1:] = rng.integers(0, 2 * d - 1, (r, k))
        labels[:, 1:] += 1
        np.cumsum(labels, axis=1, out=labels)
        np.remainder(labels, 2 * d, out=labels)
        lengths *= 1 - ((labels & 1) << 1)  # -1 on odd labels, exact
        # summed in interval order per (row, axis) cell, as a sequential add
        np.right_shift(labels, 1, out=labels)
        labels += d * np.arange(r)[:, None]
        coords[rows] = np.bincount(labels.ravel(), weights=lengths.ravel(),
                                   minlength=r * d).reshape(r, d)
    return coords
