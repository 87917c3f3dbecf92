"""Samplers for the direction-persistent lattice walk.

The walk lives on the d-dimensional integer lattice.  At step n it keeps its
current direction with probability 1 - p_n and with probability p_n redraws
the direction uniformly over all 2d signed unit vectors (the redraw may
repeat the old direction).  The first step always redraws, so the initial
direction is uniform.

Two samplers produce the same law:

* ``simulate``         one Bernoulli decision per step, the reference;
* ``simulate_events``  draws the redraw set whole, with the run engine
                       below.

Paths are stored sparsely as the ordered list of redraw times with the
direction drawn at each.  ``visits`` counts target hits segment by segment
without materializing every position; ``Path.positions_dense`` replays all
steps and exists for cross-checking.

``sample_positions`` is the vectorized many-path workhorse used by the
statistical experiments; it implements both laws batch-wise and can record
position snapshots and direction-change counts along the way.  Its event
engine is the run engine below; its per-step engine is the batched
reference, the generator ``_headings`` of every path's direction code
after each step, read by ``sample_positions(method="step")`` (unit steps,
code changes) and ``verify.estimate_covariance`` (codes at two steps).
Code c steps by 1 - 2 (c & 1) along axis c >> 1; ``sample_positions``
keeps its positions coordinate-major and moves them by this sign
arithmetic, one coordinate row at a time, not by gathering unit steps.

A statistic that reads only steps first + 1..n need not simulate the steps
before them.  The heading's law is uniform at every step, whatever the
schedule, and given the heading at step ``first`` the later steps do not
depend on the earlier ones; so a walk started at step ``first`` with a
uniform heading has exactly the law of the window of a whole path, and its
positions are the displacements S_t - S_first.  Both engines of
``sample_positions(first=...)`` start there, as the per-step engine does
for ``estimate_covariance``; the run engine then draws only the window's
redraws.  ``verify.critical_limit_test`` simulates its window (delta n, n]
this way.

For a ``Constant`` rate the endpoint alone needs O(d) variates per path.
The redraws at steps 2..n are iid Bernoulli(p), so given R runs the cut
set is a uniform (R-1)-subset of {1..n-1}: the run lengths form a uniform
composition of n into R parts, and each run has an iid uniform direction.
The runs per signed direction are Multinomial(R, 1/2d), and the total
length of m of the R parts of a uniform composition of N is
m + BetaBinomial(N - R, m, R - m) (Devroye, *Non-Uniform Random Variate
Generation*, 1986); splitting n class by class gives the 2d direction
totals, and coordinate i is T(+i) - T(-i).

One run engine serves ``_event_paths`` (``simulate_events``) and the event
engine of ``sample_positions`` and ``sample_visit_stats``: it draws each
path's redraw set whole, placed by the hazard (``Schedule.hazard``) that
each caller builds.  The redraw indicators of steps 2..n are independent,
and step j redraws with probability p_j = 1 - exp(-h_j), h_j = -log(1 - p_j).

At a constant rate 0 < p < 1 the indicators are iid, so the gaps between
redraw steps are iid Geometric(p); each gap is 1 + floor(E / h) with
E ~ Exp(1), its law by inversion (Devroye, *Non-Uniform Random Variate
Generation*, 1986), and the steps are the cumulative sums of the gaps.

Every other schedule gives step j an interval of length h_j on the
cumulative-hazard axis: the steps hit by a unit-rate Poisson process there
have exactly the law of the redraw set.  Steps with p_j = 1 own no
interval and are added as forced redraws, as is step 1.  This is the
discrete analogue of thinning (Lewis & Shedler, 1979).  A point x lands on
step min{t : nc(t) >= x}, nc the cumulative hazard; the hazard supplies
nc, this inverse and its forced steps.  ``Critical`` inverts nc in closed
form, so its horizons need no O(n) memory; the table families look the
point up by indexed search in an O(n) table of nc and its guide, in O(1)
expected probes.  Given its count K ~ Poisson(H), the process's points are
sorted uniforms over the hazard range H, drawn as normalized exponential
spacings (Devroye 1986), so a path's runs come out sorted without a sort or
a sequential loop.  A step hit twice keeps a zero-length run with its own
direction; only the last draw at a step moves the walk, so the law is
unchanged.  Such duplicates occur only in this Poisson placement.

Paths are processed in (paths x runs) blocks of bounded size, and a
horizon too long for one block is cut into segments that each path crosses
carrying its heading; snapshot times and change-window bounds also end
segments.  The engine draws runs and nothing else; each observer does its
own arithmetic on them.  ``sample_positions`` carries each path's
position, summed per block by one bincount of run lengths by (path,
direction) and added row by row, one 1-D gather per coordinate, so a
snapshot is a carried position; it counts direction changes between
consecutive nonzero-length runs; ``sample_visit_stats``
carries each path's position relative to its target and finds the target
hits run by run; ``_event_paths`` reads each path's redraw events.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .schedule import Constant, Schedule, _integer

__all__ = [
    "Direction",
    "WalkState",
    "TurnEvent",
    "Path",
    "all_directions",
    "initial_state",
    "step",
    "simulate",
    "simulate_events",
    "visits",
    "embedded_jumps",
    "sample_positions",
    "PositionsSample",
    "sample_visit_stats",
    "VisitStats",
]

# Cells (paths x runs) in one block of the run engine; its memory beyond
# the per-path state (and, for a schedule without a closed-form hazard, the
# O(n) hazard table its caller built) is a fixed multiple of this, about
# 30-40 bytes a cell.  ``verify._volkov_chunk`` draws its time blocks in
# pieces of this size too.  2^16 keeps a block's temporaries near 2 MB.  On
# a 2-core box, with 200 paths of Constant(0.5) to 10^5 steps, the traced
# peak was 1.9, 1.8, 4.5 and 8.9 MB at 2^15, 2^16, 2^17 and 2^18 cells.
# The benchmark's `visits` peak RSS was 112.6, 114.3, 118.0 and 125.7 MB.
# Its wall time did not move beyond the box's drift.  Below 2^16 the RSS
# falls only 1.7 MB more, while the blocks, each with fixed per-call
# costs, double in number again.
_BLOCK_CELLS = 1 << 16

# Expected redraws in one group of ``_event_paths``, held as Python events
_GROUP_CELLS = 1 << 10


@dataclass(frozen=True)
class Direction:
    """A signed axis direction; exactly 2d of these exist in dimension d."""

    axis: int
    sign: int

    def __post_init__(self):
        if self.axis < 0:
            raise ValueError(f"axis must be nonnegative, got {self.axis}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def vector(self, d: int) -> tuple:
        if self.axis >= d:
            raise ValueError(f"axis {self.axis} out of range for dimension {d}")
        v = [0] * d
        v[self.axis] = self.sign
        return tuple(v)

    @property
    def index(self) -> int:
        """Stable encoding in [0, 2d): +axis0, -axis0, +axis1, ..."""
        return 2 * self.axis + (0 if self.sign > 0 else 1)

    @staticmethod
    def from_index(idx: int) -> "Direction":
        return Direction(idx // 2, 1 if idx % 2 == 0 else -1)


def all_directions(d: int) -> list:
    return [Direction.from_index(i) for i in range(2 * _integer("d", d, 1))]


@dataclass(frozen=True)
class WalkState:
    """Position and heading after ``time`` steps.

    ``direction`` is None only in the start state (time 0), where no heading
    exists yet; the first ``step`` from such a state always draws one.
    """

    position: tuple
    direction: Direction | None
    time: int


@dataclass(frozen=True)
class TurnEvent:
    update_time: int
    new_direction: Direction


@dataclass(frozen=True)
class Path:
    """Sparse trajectory: start point, redraw events, and the horizon."""

    start: tuple
    events: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        times = [e.update_time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        if times and (times[0] < 1 or times[-1] > self.horizon):
            raise ValueError("event times must lie in [1, horizon]")

    @property
    def d(self) -> int:
        return len(self.start)

    def segments(self) -> Iterator[tuple]:
        """Yield (t_first, t_last, direction, position_before) per constant run.

        The run covers steps t_first..t_last inclusive; position_before is the
        location after step t_first - 1.
        """
        pos = self.start
        for k, ev in enumerate(self.events):
            t0 = ev.update_time
            t1 = self.events[k + 1].update_time - 1 if k + 1 < len(self.events) else self.horizon
            t1 = min(t1, self.horizon)
            yield t0, t1, ev.new_direction, pos
            vec = ev.new_direction.vector(self.d)
            steps = t1 - t0 + 1
            pos = tuple(x + steps * v for x, v in zip(pos, vec))

    def endpoint(self) -> tuple:
        pos = self.start
        for t0, t1, direction, before in self.segments():
            pos = tuple(x + (t1 - t0 + 1) * v
                        for x, v in zip(before, direction.vector(self.d)))
        return pos

    def positions_dense(self) -> np.ndarray:
        """Replay every step; shape (horizon + 1, d) including the start row."""
        out = np.zeros((self.horizon + 1, self.d), dtype=np.int64)
        out[0] = self.start
        for t0, t1, direction, before in self.segments():
            vec = np.asarray(direction.vector(self.d))
            steps = np.arange(1, t1 - t0 + 2)[:, None]
            out[t0: t1 + 1] = np.asarray(before) + steps * vec
        return out

    def to_csv(self, fileobj) -> None:
        """Redraw-event rows (k, tau_k, axis, sign)."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["k", "tau_k", "axis", "sign"])
        for k, ev in enumerate(self.events, start=1):
            writer.writerow([k, ev.update_time, ev.new_direction.axis,
                             ev.new_direction.sign])

    def dense_to_csv(self, fileobj) -> None:
        """Step rows (n, x_1..x_d) for n = 0..horizon."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n"] + [f"x_{k + 1}" for k in range(self.d)])
        for t, row in enumerate(self.positions_dense()):
            writer.writerow([t] + [int(x) for x in row])


def _lattice_point(name, point, d):
    """``point`` as d Python ints; a float coordinate, even a whole one, is refused."""
    coords = [_integer(f"{name} coordinate", x) for x in point]
    if len(coords) != d:
        raise ValueError(f"{name} has {len(coords)} coordinates, expected {d}")
    return tuple(coords)


def initial_state(d: int, start: Sequence[int] | None = None) -> WalkState:
    d = _integer("d", d, 1)
    return WalkState(_lattice_point("start", (0,) * d if start is None else start, d),
                     None, 0)


def _draw_direction(d: int, rng: np.random.Generator) -> Direction:
    return Direction.from_index(int(rng.integers(0, 2 * d)))


def _step_impl(state: WalkState, schedule: Schedule, rng: np.random.Generator,
               d: int) -> tuple:
    n = state.time + 1
    if state.direction is None:
        updated = True
    else:
        updated = rng.random() < schedule.p_at(n)
    direction = _draw_direction(d, rng) if updated else state.direction
    vec = direction.vector(d)
    pos = tuple(x + v for x, v in zip(state.position, vec))
    return WalkState(pos, direction, n), updated


def step(state: WalkState, schedule: Schedule, rng: np.random.Generator) -> WalkState:
    """Advance one step: redraw the heading with probability p_n, then move."""
    return _step_impl(state, schedule, rng, len(state.position))[0]


def simulate(d: int, schedule: Schedule, n_steps: int, rng: np.random.Generator,
             start: Sequence[int] | None = None) -> Path:
    """Direct stepping sampler; the first direction is uniform over 2d options."""
    d, n_steps = _integer("d", d, 1), _integer("n_steps", n_steps, 0)
    state = initial_state(d, start)
    events = []
    for _ in range(n_steps):
        state, updated = _step_impl(state, schedule, rng, d)
        if updated:
            events.append(TurnEvent(state.time, state.direction))
    return Path(initial_state(d, start).position, tuple(events), n_steps)


def simulate_events(d: int, schedule: Schedule, n_steps: int,
                    rng: np.random.Generator,
                    start: Sequence[int] | None = None) -> Path:
    """Event-driven sampler with the same law as ``simulate``: one path of
    ``_event_paths``."""
    return next(_event_paths(d, schedule, n_steps, 1, rng, start))


def _event_paths(d, schedule, n, samples, rng, start=None):
    """Yield ``samples`` run-engine paths, drawn from one hazard in groups of
    about ``_GROUP_CELLS`` expected redraws.  A path's events are its distinct
    redraw steps, each with the last direction drawn there, in step order."""
    d, n = _integer("d", d, 1), _integer("n_steps", n, 0)
    origin = initial_state(d, start).position
    if n == 0:
        yield from (Path(origin, (), 0) for _ in range(samples))
        return
    hz = schedule.hazard(n)
    group = max(1, int(_GROUP_CELLS // (1 + hz.at(n) + hz.n_forced(n))))
    for g0 in range(0, samples, group):
        events = [[] for _ in range(min(group, samples - g0))]
        for lo, _hi, rows, starts, length, dirs in _runs(d, hz, n, len(events), rng):
            # a zero-length run is a draw overwritten at the same step; the
            # carried run is the step-1 draw in the first segment only
            keep = length > 0
            keep[:, 0] &= lo == 0
            for r, t, c in zip(np.repeat(rows, np.count_nonzero(keep, axis=1)).tolist(),
                               starts[:, :-1][keep].tolist(), dirs[keep].tolist()):
                events[r].append(TurnEvent(t, Direction.from_index(c)))
        yield from (Path(origin, own, n) for own in events)


def visits(path: Path, target: Sequence[int]) -> int:
    """Exact count of times 1 <= t <= horizon with S_t == target.

    Each constant-direction segment is an axis-aligned run of lattice points
    and can contain the target at most once, so the count needs one O(d)
    check per event rather than a full replay.
    """
    target = _lattice_point("target", target, path.d)
    count = 0
    for t0, t1, direction, before in path.segments():
        delta = [t - x for t, x in zip(target, before)]
        off_axis_ok = all(delta[i] == 0 for i in range(path.d) if i != direction.axis)
        if not off_axis_ok:
            continue
        m = delta[direction.axis] * direction.sign
        if 1 <= m <= t1 - t0 + 1:
            count += 1
    return count


def embedded_jumps(path: Path) -> list:
    """Displacements between consecutive redraw times, as (direction, length).

    For a constant schedule the lengths are Geometric(p) and the directions
    uniform.  The final partial run up to the horizon is not a complete
    jump and is omitted.
    """
    jumps = []
    for k in range(len(path.events) - 1):
        gap = path.events[k + 1].update_time - path.events[k].update_time
        jumps.append((path.events[k].new_direction, gap))
    return jumps


@dataclass(frozen=True)
class PositionsSample:
    """Batched sampler output: positions per requested time, change counts."""

    positions: dict
    change_counts: np.ndarray | None

    def at(self, t: int) -> np.ndarray:
        return self.positions[t]


def sample_positions(d: int, schedule: Schedule, n: int, samples: int,
                     rng: np.random.Generator, *,
                     times: Sequence[int] | None = None,
                     count_changes_in: tuple | None = None,
                     method: str = "events", first: int = 0) -> PositionsSample:
    """Sample ``samples`` independent walks, vectorized across paths.

    Returns positions (int64 arrays of shape (samples, d)) at each requested
    time (default: the horizon only).  ``count_changes_in=(lo, hi)`` also
    counts, per path, the steps t in (lo, hi] at which the direction actually
    changed.  ``method`` selects the per-step engine ("step") or the run
    engine ("events"); both draw the same law, matching ``simulate`` and
    ``simulate_events``.  "step" replays every step through the heading
    generator ``_headings`` and is the reference the other paths are
    tested against.

    ``first`` starts every walk at step ``first`` with a uniform heading
    and simulates steps first + 1..n only; positions are then the
    displacements S_t - S_first.  The heading is uniform at every step, so
    this window has exactly the law of steps first + 1..n of a whole path
    (module docstring).  Snapshot times must lie in [first, n], and a
    change window in [max(first, 1), n].

    With "events", a ``Constant`` schedule, only the horizon requested, no
    change window and ``first`` 0, the endpoints come from the composition
    shortcut in the module docstring: O(d) variates per path, independent
    of n.  Every other "events" request runs the run engine, with memory
    bounded as in ``sample_visit_stats``.
    """
    d, n, samples = _integer("d", d, 1), _integer("n", n, 0), _integer("samples", samples, 0)
    times = tuple(sorted({_integer("snapshot time", t)
                          for t in ((n,) if times is None else times)}))
    first = _integer("first", first)
    if not 0 <= first <= n:
        raise ValueError(f"first must lie in [0, {n}], got {first}")
    if times and (times[0] < first or times[-1] > n):
        raise ValueError(f"snapshot times must lie in [{first}, {n}]")
    if count_changes_in is not None:
        lo, hi = count_changes_in = tuple(_integer("count_changes_in bound", t)
                                          for t in count_changes_in)
        if not (max(first, 1) <= lo <= hi <= n):
            raise ValueError(f"count_changes_in must satisfy "
                             f"{max(first, 1)} <= lo <= hi <= n")
    if method not in ("step", "events"):
        raise ValueError(f"method must be 'step' or 'events', got {method!r}")

    positions = {t: np.zeros((samples, d), dtype=np.int64) for t in times}
    changes = np.zeros(samples, dtype=np.int64) if count_changes_in else None
    if samples == 0 or n == first:
        return PositionsSample(positions, changes)

    if method == "step":
        # coordinate-major: pos[c] is every path's coordinate c
        pos = np.zeros((d, samples), dtype=np.int32 if n < 2 ** 31 else np.int64)
        lo, hi = count_changes_in or (n, n)
        for k, code in _headings(d, schedule, n, samples, rng, first=max(first, 1)):
            if lo < k <= hi:
                changes += code != prev
            if lo <= k < hi:
                prev = code.copy()
            if k > first:  # the window moves from step first + 1 on
                # each path steps by sign 1 - 2 (code & 1) on axis code >> 1
                sign, axis = _signs(code, pos.dtype), code >> 1
                for c, coord in enumerate(pos):
                    coord += sign * (axis == c)
                if k in positions:
                    positions[k][:] = pos.T
    elif isinstance(schedule, Constant) and times == (n,) and changes is None \
            and first == 0:
        positions[n][:] = _constant_endpoints(d, schedule.p, n, samples, rng)
    else:
        cuts = set(times) | set(count_changes_in or ())
        # coordinate-major, so a block's update is one 1-D gather per coordinate
        pos = np.zeros((d, samples), dtype=_engine_dtype(n))
        for lo, hi, rows, _starts, length, dirs in _runs(
                d, schedule.hazard(n), n, samples, rng, cuts=cuts, first=first):
            moved = _displacements(d, length, dirs, pos.dtype)
            for c, coord in enumerate(pos):
                at = coord[rows]
                at += moved[:, c]
                coord[rows] = at
                if hi in positions:
                    positions[hi][:, c][rows] = at
            if changes is not None and count_changes_in[0] <= lo \
                    and hi <= count_changes_in[1]:
                changes[rows] += _turns(length, dirs)
    return PositionsSample(positions, changes)


def _constant_endpoints(d, p, n, samples, rng):
    """Endpoints S_n at constant rate p for n >= 1, shape (samples, d).

    Draws the run count R = 1 + Binomial(n - 1, p), the runs per signed
    direction m ~ Multinomial(R, 1/2d), then each direction's total length
    T_c = m_c + Binomial(N - R, Beta(m_c, R - m_c)) out of the N steps and
    R runs still unassigned; the last direction takes the remainder.
    """
    k = 2 * d
    runs = 1 + rng.binomial(n - 1, float(p), samples)
    per_class = rng.multinomial(runs, np.full(k, 1.0 / k))
    totals = np.empty((samples, k), dtype=np.int64)
    steps_left = np.full(samples, n, dtype=np.int64)
    runs_left = runs
    for c in range(k - 1):
        m = per_class[:, c]
        rest = runs_left - m
        # share of the N - R spare steps: 0 without runs, all with no rest
        share = (rest == 0).astype(float)
        mixed = (m > 0) & (rest > 0)
        share[mixed] = rng.beta(m[mixed], rest[mixed])
        totals[:, c] = m + rng.binomial(steps_left - runs_left, share)
        steps_left = steps_left - totals[:, c]
        runs_left = rest
    totals[:, k - 1] = steps_left
    return totals[:, 0::2] - totals[:, 1::2]


def _displacements(d, length, dirs, dtype):
    """Each row's displacement over its runs, shape (b, d), in ``dtype``.

    One bincount by (row, direction code) gives the total length T(c) of
    each direction, and coordinate i is T(+i) - T(-i), as in
    ``_constant_endpoints``.  The float64 sums are exact: every total is at
    most n < 2^53.
    """
    b = dirs.shape[0]
    key = np.add(dirs, (2 * d) * np.arange(b)[:, None], dtype=np.intp)
    totals = np.bincount(key.ravel(), weights=length.ravel(), minlength=2 * d * b)
    del key
    totals = totals.reshape(b, d, 2)
    return (totals[:, :, 0] - totals[:, :, 1]).astype(dtype)


def _turns(length, dirs):
    """Each row's direction changes over its runs.

    A change is a nonzero-length run heading elsewhere than the previous
    such run in its row, or else than the carried run 0, which holds the
    heading at the segment's start whatever its length.  So run 0 and the
    nonzero-length runs are taken in order, and consecutive codes compared.
    """
    keep = length > 0
    keep[:, 0] = True
    count = np.count_nonzero(keep, axis=1)
    code = dirs[keep]
    turned = np.empty(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=turned[1:])
    first = np.zeros(count.size, dtype=np.intp)  # each row's run 0
    np.cumsum(count[:-1], out=first[1:])
    turned[first] = False
    return np.add.reduceat(turned, first, dtype=np.intp)


def _signs(codes, dtype):
    """The sign 1 - 2 (code & 1) of each direction code's step, in ``dtype``."""
    sign = (codes & 1).astype(dtype)
    sign <<= 1
    return np.subtract(1, sign, out=sign)


def _engine_dtype(n):
    """The run engine's integers over n steps: int32 when n < 2^31 - 1."""
    return np.int32 if n < 2 ** 31 - 1 else np.int64


def _code_dtype(d):
    """The smallest unsigned type that holds the direction codes 0..2d - 1."""
    return np.min_scalar_type(2 * d - 1)


def _headings(d, schedule, n, samples, rng, first=1):
    """The per-step engine: yield ``(k, code)`` after each step k = first..n.

    ``code`` holds every path's direction code, encoded as in ``_runs``,
    and is updated in place; callers copy what they keep.  The heading at
    step ``first`` is drawn uniform, its law at every step, so the window
    first..n has the law of those steps of a whole path.  Each p_k is read
    at its step, so the window needs no table of the rates before it.
    """
    code = rng.integers(0, 2 * d, samples).astype(_code_dtype(d))
    yield first, code
    for k in range(first + 1, n + 1):
        # integer indices: numpy's boolean setitem is about twice as slow
        hit = np.flatnonzero(rng.random(samples) < float(schedule.p_at(k)))
        if hit.size:
            code[hit] = rng.integers(0, 2 * d, hit.size)
        yield k, code


@dataclass(frozen=True)
class VisitStats:
    """Per-horizon visit statistics over a batch of paths.

    ``counts[h]`` holds, per path, the number of times 1 <= t <= h with
    S_t equal to the target; ``late[h]`` flags paths with at least one such
    visit in (h // 2, h].
    """

    counts: dict
    late: dict


def sample_visit_stats(d: int, schedule: Schedule, n: int, samples: int,
                       rng: np.random.Generator, *,
                       target: Sequence[int] | None = None,
                       horizons: Sequence[int] | None = None) -> VisitStats:
    """Sample walks and count target visits at several nested horizons.

    The run engine (module docstring) draws each path's redraw set whole.
    Per constant-direction run the target can be met at most once, so hits
    are detected run by run without storing positions.  All horizons must
    be integers <= n; they observe the same paths, so per-path counts are
    monotone in the horizon by construction.

    The work runs in blocks of at most about ``_BLOCK_CELLS`` (paths x runs)
    cells, so beyond O(samples) per-path state and results, memory grows
    with neither ``samples`` nor ``n``; only a schedule without a
    closed-form hazard (not ``Constant`` or ``Critical``) adds its O(n)
    hazard table, which this call builds and frees.  The steps are cut into
    segments of at most half a block of expected redraws each; a path
    crosses a segment boundary carrying its position and direction.
    """
    d, n, samples = _integer("d", d, 1), _integer("n", n, 1), _integer("samples", samples, 0)
    target = _lattice_point("target", (0,) * d if target is None else target, d)
    horizons = (n,) if horizons is None else \
        tuple(sorted({_integer("horizon", h) for h in horizons}))
    if not horizons:
        raise ValueError("horizons must be nonempty")
    if horizons[0] < 1 or horizons[-1] > n:
        raise ValueError(f"horizons must lie in [1, {n}]")

    counts = {h: np.zeros(samples, dtype=np.int64) for h in horizons}
    late = {h: np.zeros(samples, dtype=bool) for h in horizons}
    if samples == 0:
        return VisitStats(counts, late)

    # |position - target|_1 <= n + |target|_1 bounds every integer below
    dtype = np.int32 if n + sum(abs(x) for x in target) < 2 ** 31 - 1 else np.int64
    # position - target, coordinate-major like the positions of sample_positions
    rel = np.repeat(-np.asarray(target, dtype=dtype)[:, None], samples, axis=1)
    for _lo, _hi, rows, starts, length, dirs in _runs(
            d, schedule.hazard(n), n, samples, rng):
        axis = dirs >> 1
        signed = _signs(dirs, dtype)  # each run's signed length
        signed *= length
        # q[..., c]: position - target before each run, an exclusive per-row
        # cumsum from the carried one.  Coordinates are innermost: numpy
        # accumulates a strided row several times faster than a contiguous one.
        # At d = 1 a spare coordinate keeps the rows strided too.
        q = np.empty(dirs.shape + (max(d, 2),), dtype=dtype)[..., :d]
        for c, (qc, rc) in enumerate(zip(np.moveaxis(q, -1, 0), rel)):
            qc[:, 0] = rc[rows]
            np.multiply(signed[:, :-1], axis[:, :-1] == c, out=qc[:, 1:])
            np.cumsum(qc, axis=1, out=qc)
            rc[rows] = qc[:, -1] + signed[:, -1] * (axis[:, -1] == c)
        del axis, signed
        # the run hits iff the target lies ahead on its axis, within its
        # length: then the L1 distance equals the signed on-axis offset
        dist = np.abs(q[..., 0])
        for c in range(1, d):
            dist += np.abs(q[..., c])
        cand = np.flatnonzero(dist <= length)
        row, col = np.divmod(cand, length.shape[1])
        code = dirs.ravel()[cand]
        offset = q[row, col, code >> 1]
        ahead = np.where(code & 1, offset, -offset)
        hit = (ahead == dist.ravel()[cand]) & (ahead >= 1)
        row, col, ahead = row[hit], col[hit], ahead[hit]
        who = rows[row]
        when = starts[row, col] + ahead - 1
        for h in horizons:
            within = when <= h
            np.add.at(counts[h], who[within], 1)
            late[h][who[within & (when > h // 2)]] = True
    return VisitStats(counts, late)


def _segments(hz, n, cuts=(), first=0):
    """Step ranges (lo, hi] covering first + 1..n with at most half a block of load.

    A segment's load is its expected Poisson points plus its forced steps,
    counted from step ``first``.  Cuts fall on step boundaries and one step
    adds at most about 38 (p just below 1), so no segment exceeds its share
    by more than that.  Every step in ``cuts`` inside (first, n) also ends
    a segment.
    """
    def load(t):
        return hz.at(t) + hz.n_forced(t)

    base = load(first)
    total = load(n) - base
    parts = max(1, math.ceil(total / (_BLOCK_CELLS // 2)))
    bounds = [first]
    for j in range(1, parts):
        goal = base + j * total / parts
        a, b = bounds[-1] + 1, n
        while a < b:
            mid = (a + b) // 2
            if load(mid) >= goal:
                b = mid
            else:
                a = mid + 1
        if a < n:
            bounds.append(a)
    bounds = sorted({first, n, *bounds, *(c for c in cuts if first < c < n)})
    return list(zip(bounds[:-1], bounds[1:]))


def _runs(d, hz, n, samples, rng, cuts=(), first=0):
    """Draw ``samples`` paths over steps first + 1..n and yield their runs by block.

    Each path starts at step ``first`` (0 for a whole path) with a uniform
    heading: step 1's draw, or the heading at step ``first``, whose law is
    the same.  The steps are cut into segments (``_segments``); each path
    crosses a segment carrying its heading, and nothing else.  Per segment,
    ``hz``, the caller's ``schedule.hazard(n)``, places each path's redraw
    steps in blocks of at most about ``_BLOCK_CELLS`` runs: Poisson points
    in hazard time, or geometric gaps at a constant rate.  Per block, yields
    ``(lo, hi, rows, starts, length, dirs)``:

    * ``lo, hi``: the segment, steps lo + 1..hi;
    * ``rows``: the block's paths;
    * ``starts`` (b, m + 1) and ``length`` (b, m): run j of row r covers
      steps starts[r, j]..starts[r, j + 1] - 1, and ``dirs`` (b, m) is its
      direction code (axis ``code >> 1``, backwards when odd).  Run 0 is
      the one carried in, then one run per redraw; padding runs start at
      hi + 1.  A zero-length run is a draw overwritten at the same step,
      which only the Poisson placement makes.

    Positions are left to the callers (module docstring).  The steps are
    placed in float64, so n must stay below 2^53, where every step is
    exact; a longer horizon is refused before any draw.
    """
    if n >= 2 ** 53:
        raise ValueError(f"the run engine needs n < 2^53, where float64 steps are "
                         f"exact, got n = {n}")
    dtype = _engine_dtype(n)
    heading = rng.integers(0, 2 * d, samples, dtype=_code_dtype(d))
    for lo, hi in _segments(hz, n, cuts, first):
        for rows, steps, count in hz.redraws(lo, hi, samples, _BLOCK_CELLS, rng):
            starts, dirs = _block_runs(d, lo, hi, steps, count, heading, rows, dtype, rng)
            del steps  # the runs' starts replace it for the rest of the block
            yield lo, hi, rows, starts, np.diff(starts, axis=1), dirs


def _block_runs(d, lo, hi, steps, count, heading, rows, dtype, rng):
    """Run starts and direction codes of paths ``rows`` over steps lo + 1..hi.

    Row r redraws ``count[r]`` times, at ``steps[r, :count[r]]``
    (ascending, the rest hi + 1), as ``redraws`` of the hazard places them.
    ``heading[rows]`` gives the direction of the carried run and advances
    to step hi in place: to the run at each row's count.
    """
    b = rows.size
    m = steps.shape[1] + 1  # runs per row: the carried one, then one per redraw
    starts = np.empty((b, m + 1), dtype=dtype)
    starts[:, 0] = lo + 1
    starts[:, 1:m] = steps
    starts[:, m] = hi + 1
    dirs = np.empty((b, m), dtype=heading.dtype)
    dirs[:, 0] = heading[rows]
    dirs[:, 1:] = rng.integers(0, 2 * d, (b, m - 1), dtype=heading.dtype)
    heading[rows] = dirs[np.arange(b), count]
    return starts, dirs
