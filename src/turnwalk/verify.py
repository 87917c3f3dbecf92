"""Monte Carlo confrontation of the samplers with the closed-form results.

Seeding contract
----------------
Every operation draws its whole sample from one generator,

    Philox(SeedSequence(master_seed, spawn_key=(stream_id, 0)))

with one fixed stream id per operation (the ``STREAMS`` table), so the
operations' streams never overlap and identical (seed, config) always
produce bit-identical results.  KS and chi-square sub-checks run at level
``_ALPHA``.

Reports
-------
Every report is a dict built by ``_report``: ``op``, ``config``, the
experiment's own fields, then ``checks``, its named sub-checks as
[observed, allowed] in a fixed order, and the verdict read from them.  Each
sub-check scores observed / allowed (``_ratio``: a zero allowance scores 0
on an exact match, else +inf); ``statistic`` is the largest score (a NaN
one first), ``argmax`` its sub-check's name (null if none) and ``passed``
statistic <= 1.  A bound is the one-sided sub-check ``bound``, observed
max(estimate - 4 se, 0), so it "holds" iff estimate - 4 se <= bound; an
exact value is the two-sided ``expected``, observed |estimate - expected|
against 4 se (``within_4se``).  For finite nonnegative observed and
positive allowed, the rounded observed / allowed <= 1 iff observed <=
allowed, so the scores agree with these flags bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import walk
from .analytics import correlation_e, fourth_moment_L, gambler_pass_once, ld_bound
from .schedule import Constant, Critical, Schedule, _integer
from .zigzag import b_from_a, sample_endpoints

__all__ = [
    "STREAMS",
    "EstimatorResult",
    "RecurrencePoint",
    "VolkovResult",
    "estimate_tail",
    "tail_report",
    "estimate_covariance",
    "covariance_report",
    "scaling_limit_test",
    "critical_limit_test",
    "recurrence_experiment",
    "recurrence_report",
    "volkov_bc_experiment",
    "volkov_report",
    "moment4_experiment",
    "moment4_report",
    "envelope",
]

# Cells (walks x steps) the pass-once experiment holds at a time
_VOLKOV_CELLS = 1 << 21

_MIN_EXPECTED = 5.0  # poisson_gof pools cells expecting fewer counts

_ALPHA = 0.01  # level of the KS and chi-square sub-checks

_EPS = 2.0 ** -52  # relative accuracy of the incomplete gamma's sums
_TINY = 1e-300  # Lentz's guard against a zero denominator

STREAMS = {
    "tail": 1,
    "covariance": 2,
    "scaling": 3,
    "critical_walk": 4,
    "critical_zigzag": 5,
    "recurrence": 6,
    "volkov": 7,
    "moment4": 8,
    "simulate": 9,
    "zigzag": 10,
}


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """The one rng derivation used everywhere; see the module docstring."""
    ss = np.random.SeedSequence(_integer("seed", seed, 0), spawn_key=(STREAMS[stream], 0))
    return np.random.Generator(np.random.Philox(ss))


def _builtin(obj):
    """Recursively strip numpy scalar/array types for JSON-stable output.

    Non-finite floats become None (JSON null): strict JSON has no token for
    them.
    """
    if isinstance(obj, dict):
        return {k: _builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_builtin(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_builtin(v) for v in obj.tolist()]
    return obj


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    std_error: float
    n_samples: int
    ci95: tuple
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        object.__setattr__(self, "ci95", tuple(self.ci95))

    def to_json(self) -> dict:
        return _builtin(asdict(self))


def _ratio(observed: float, allowed: float) -> float:
    """A sub-check's observed / allowed, by the rules in the module docstring."""
    if math.isnan(observed) or math.isnan(allowed):
        return math.nan
    if allowed == 0.0:
        return 0.0 if observed == 0.0 else math.inf
    return observed / allowed


def _report(op: str, config: dict, checks: dict, **fields) -> dict:
    """The one report builder: ``op``, ``config``, ``fields``, then the named
    (observed, allowed) ``checks`` as given and their verdict (module
    docstring)."""
    ratios = {name: _ratio(*check) for name, check in checks.items()}
    argmax = max(ratios, key=lambda k: (math.isnan(ratios[k]), ratios[k]), default=None)
    statistic = 0.0 if argmax is None else float(ratios[argmax])
    return {"op": op, "config": _builtin(config), **fields,
            "checks": {name: list(check) for name, check in checks.items()},
            "statistic": statistic, "argmax": argmax, "passed": statistic <= 1.0}


def _limit_report(op: str, config: dict, checks: dict, details: dict) -> dict:
    """A limit test's report, which also holds ``statistic`` to a ``threshold``
    of 1 and says whether it was ``rejected`` (not passed)."""
    report = _report(op, config, checks, threshold=1.0, rejected=None, details=details)
    report["rejected"] = not report["passed"]  # set in place, so it keeps its key slot
    return report


def _mean_estimator(sum_x: float, sum_x2: float, n: int, seed: int) -> EstimatorResult:
    mean = sum_x / n
    var = max(0.0, (sum_x2 - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    se = math.sqrt(var / n)
    return EstimatorResult(mean, se, n, (mean - 1.96 * se, mean + 1.96 * se), seed)


def _proportion_estimator(hits: int, n: int, seed: int) -> EstimatorResult:
    est = hits / n
    se = math.sqrt(est * (1.0 - est) / n)
    return EstimatorResult(est, se, n, (est - 1.96 * se, est + 1.96 * se), seed)


def envelope(op: str, config: dict, result: EstimatorResult,
             bound: float | None = None, expected: float | None = None) -> dict:
    """Self-describing JSON object for one estimator run, judged as in the
    module docstring: a bound (>= 0) is the sub-check ``bound``, its
    ``verdict`` "holds" or "violated", and an exact value the sub-check
    ``expected``, its flag ``within_4se``.
    """
    fields, checks = result.to_json(), {}
    if bound is not None:
        # estimate first, so a NaN estimate is not clipped away
        checks["bound"] = (max(result.estimate - 4.0 * result.std_error, 0.0), bound)
        fields["bound"] = float(bound)
        fields["verdict"] = "holds" if _ratio(*checks["bound"]) <= 1.0 else "violated"
    if expected is not None:
        checks["expected"] = (abs(result.estimate - expected), 4.0 * result.std_error)
        fields["expected"] = float(expected)
        fields["within_4se"] = _ratio(*checks["expected"]) <= 1.0
    return _report(op, config, checks, **fields)


# ---------------------------------------------------------------------------
# statistical helpers


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-z / sqrt(2)) of a 1-d float array, through math.erfc."""
    return 0.5 * np.array([math.erfc(v) for v in (z * -math.sqrt(0.5)).tolist()])


def ks_one_sample_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance against the standard normal CDF."""
    z = np.sort(np.asarray(values, dtype=float))
    n = z.size
    cdf = _normal_cdf(z)
    d_plus = float(np.max(np.arange(1, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0, n) / n))
    return max(d_plus, d_minus)


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS statistic, tie-safe (evaluates ECDFs with side='right').

    The sorted samples are merged by one stable argsort, which for two
    sorted runs is a single timsort merge.  Counting the elements of x along
    the merged order gives both ECDFs, read at the last element of each run
    of equal values.  The samples must hold no NaN.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled, kind="stable")
    cx = np.cumsum(order < x.size)
    cy = np.arange(1, pooled.size + 1) - cx
    pooled = pooled[order]
    last = np.append(pooled[1:] != pooled[:-1], True)
    return float(np.max(np.abs(cx[last] / x.size - cy[last] / y.size)))


def ks_critical(alpha: float) -> float:
    """Asymptotic Kolmogorov critical constant c(alpha) = sqrt(-ln(alpha/2)/2)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


def _log_upper_gamma(a: float, x: float) -> float:
    """ln Q(a, x), the regularized upper incomplete gamma, for a, x > 0.

    Below x = a + 1 by the series of P = 1 - Q, above it by the continued
    fraction of Q, evaluated by the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., section 6.2).
    """
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return math.log1p(-total * math.exp(log_front))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return log_front + math.log(h)


def _chi2_critical(dof: int, alpha: float) -> float:
    """The chi-square quantile x with P(chi2_dof > x) = alpha, 0 < alpha < 1.

    x = 2 y for the root y of ln Q(dof/2, y) = ln alpha, found by Newton's
    method from the Wilson-Hilferty start and kept inside the bracket its
    iterates establish (bisection, or doubling while there is no upper end,
    when a step leaves it).  Solving for Q itself, rather than for
    P = 1 - alpha, keeps a small alpha exact: the result agrees with
    scipy.stats.chi2.isf(alpha, dof) to about 1e-14 relative, where
    chi2.ppf(1 - alpha, dof) is off by 2e-12 at alpha = 1e-6.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    a, target = dof / 2.0, math.log(alpha)
    # upper normal quantile z(alpha), Abramowitz & Stegun 26.2.23 (|error| < 4.5e-4)
    t = math.sqrt(-2.0 * math.log(min(alpha, 1.0 - alpha)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3)
    h = 2.0 / (9.0 * dof)
    y = max(a * (1.0 - h + math.copysign(z, 0.5 - alpha) * math.sqrt(h)) ** 3, 1e-3)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        log_q = _log_upper_gamma(a, y)
        if log_q > target:
            lo = y
        else:
            hi = y
        # d ln Q(a, y) / dy = -y^(a-1) e^(-y) / (Gamma(a) Q)
        step = (log_q - target) * math.exp(y + log_q + math.lgamma(a) - (a - 1.0) * math.log(y))
        if abs(step) <= 1e-9 * y:  # quadratic convergence: y + step is exact to rounding
            return 2.0 * (y + step)
        y += step
        if not lo < y < hi:
            y = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    raise ArithmeticError(f"chi-square quantile did not converge (dof={dof}, alpha={alpha})")


def poisson_gof(counts: np.ndarray, lam: float, alpha: float = 0.01) -> tuple:
    """Chi-square goodness of fit of integer counts against Poisson(lam).

    Cells with expected count below ``_MIN_EXPECTED`` are pooled inward from
    both ends.  Returns (statistic, critical_value, dof); lam is treated as
    known, so dof = cells - 1.
    """
    counts = np.asarray(counts)
    kmax = int(counts.max())
    ks = np.arange(kmax + 1, dtype=float)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])
    pmf = np.exp(-lam + ks * math.log(lam) - log_factorial)
    expected = np.append(pmf, max(0.0, 1.0 - pmf.sum())) * counts.size
    observed = np.append(np.bincount(counts, minlength=kmax + 1), 0).astype(float)
    while expected.size > 2 and expected[-1] < _MIN_EXPECTED:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected.size > 2 and expected[0] < _MIN_EXPECTED:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = expected.size - 1
    return stat, _chi2_critical(dof, alpha), dof


# ---------------------------------------------------------------------------
# operations


def estimate_tail(d: int, p: float, n: int, a: float, samples: int,
                  seed: int = 0) -> EstimatorResult:
    """Empirical P(|S_n| > a sqrt(n)), Euclidean norm, binomial s.e."""
    d, samples = _integer("d", d, 1), _integer("samples", samples, 1)
    if not (math.isfinite(a) and a >= (1.0 if d == 1 else math.sqrt(d))):
        raise ValueError(f"a = {a} is not finite or is below the bound's validity "
                         f"threshold for d = {d}")
    pos = walk.sample_positions(d, Constant(p), n, samples,
                                stream_rng(seed, "tail")).at(n)
    r2 = np.sum(pos.astype(float) ** 2, axis=1)
    hits = int(np.count_nonzero(r2 > a * a * n))
    return _proportion_estimator(hits, samples, seed)


def tail_report(d: int, p: float, n: int, a: float, samples: int,
                seed: int = 0) -> dict:
    """estimate_tail judged against its closed-form bound, as the JSON envelope."""
    result = estimate_tail(d, p, n, a, samples, seed=seed)
    config = {"d": d, "p": p, "n": n, "a": a, "samples": samples, "seed": seed}
    return envelope("tail", config, result, bound=ld_bound(p, a, d))


def estimate_covariance(schedule: Schedule, i: int, j: int, samples: int,
                        seed: int = 0) -> EstimatorResult:
    """Empirical E[Y_i Y_j] for the 1-d walk's step signs.

    Only steps i..j are simulated: the headings form a Markov chain whose
    law at every step is uniform (each draw is), so a uniform heading run
    through steps i + 1..j has the law of (Y_i, Y_j).  The closed form
    prod (1 - p_k) is never used.
    """
    i, j, samples = _integer("i", i), _integer("j", j), _integer("samples", samples, 1)
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    rng = stream_rng(seed, "covariance")
    for k, code in walk._headings(1, schedule, j, samples, rng, first=i):
        if k == i:
            code_i = code.copy()
    # Y_i Y_j = +1 exactly when the 1-d headings at steps i and j agree
    total = samples - 2 * int(np.count_nonzero(code_i != code))
    # products are +-1, so the sum of their squares is the sample count
    return _mean_estimator(total, samples, samples, seed)


def covariance_report(schedule: Schedule, i: int, j: int, samples: int,
                      seed: int = 0) -> dict:
    """estimate_covariance judged against prod (1 - p_k), as the JSON envelope."""
    result = estimate_covariance(schedule, i, j, samples, seed=seed)
    config = {"schedule": schedule.to_json(), "i": i, "j": j, "samples": samples,
              "seed": seed}
    return envelope("covariance", config, result, expected=correlation_e(schedule, i, j))


def scaling_limit_test(d: int, p: float, n: int, samples: int,
                       seed: int = 0) -> dict:
    """Endpoint normality check under diffusive rescaling.

    Each coordinate of S_n is scaled by sqrt(d p / (2-p)) / sqrt(n), which
    normalizes the per-coordinate variance to 1 (the 1/d of the steps spent
    on an axis joins the (2-p)/p run-length factor).  Sub-checks, each
    contributing observed/allowed to the normalized statistic: per-coordinate
    KS distance to the standard normal against the ``_ALPHA`` critical value plus
    a one-lattice-spacing allowance (``ks[c]``); per-coordinate variance
    within 4% of 1 (``variance[c]``); pairwise cross-covariances within
    4 s.e. of 0 (``cross[c1,c2]``).
    """
    n = _integer("n", n)
    if n < 1_000:
        raise ValueError("scaling_limit_test needs n >= 10^3 to be meaningful")
    if not 0.0 < p <= 1.0:
        # at p = 0 each path runs straight along one axis: no diffusive limit
        raise ValueError(f"scaling_limit_test needs 0 < p <= 1, got p = {p}")
    samples = _integer("samples", samples, 2)
    pos = walk.sample_positions(d, Constant(p), n, samples,
                                stream_rng(seed, "scaling")).at(n).astype(float)
    factor = math.sqrt(d * p / (2.0 - p)) / math.sqrt(n)
    z = pos * factor

    # coordinate parity is fixed only in one dimension, where S_n has the
    # parity of n and the lattice spacing doubles
    spacing = factor * (2.0 if d == 1 else 1.0)
    ks_thresh = ks_critical(_ALPHA) / math.sqrt(samples) + spacing
    ks = [ks_one_sample_normal(z[:, c]) for c in range(d)]
    variances = z.var(axis=0, ddof=1)
    checks = {f"ks[{c}]": (dc, ks_thresh) for c, dc in enumerate(ks)}
    checks.update({f"variance[{c}]": (abs(v - 1.0), 0.04) for c, v in enumerate(variances)})
    cross = []
    for c1 in range(d):
        for c2 in range(c1 + 1, d):
            prod = z[:, c1] * z[:, c2]
            cov = float(prod.mean())
            se = float(prod.std(ddof=1)) / math.sqrt(samples)
            cross.append({"axes": [c1, c2], "cov": cov, "std_error": se})
            checks[f"cross[{c1},{c2}]"] = (abs(cov), 4.0 * se)
    config = {"op": "scaling", "d": d, "p": p, "n": n, "samples": samples,
              "seed": seed}
    details = {
        "ks_per_coordinate": ks,
        "ks_threshold": ks_thresh,
        "lattice_allowance": spacing,
        "variances": list(variances),
        "variance_band": [0.96, 1.04],
        "cross_covariances": cross,
    }
    return _limit_report("scaling", config, checks, details)


def critical_limit_test(d: int, a: float, n: int, samples: int, delta: float,
                        seed: int = 0) -> dict:
    """Critical-regime comparison of the walk with the zigzag process.

    Two legs, windowed to (delta n, n] on the walk side and (delta, 1] on
    the zigzag side so both laws carry the same truncation:

    1. the number of direction changes of the walk in (delta n, n] is
       compared to Poisson(b ln(1/delta)) by mean (4 s.e., sub-check
       ``turn_count_mean``) and by chi-square (``chi2``);
    2. the rescaled windowed displacement (S_n - S_{floor(delta n)})/n is
       compared per coordinate (``ks[c]``) and in Euclidean norm
       (``ks_norm``) to as many truncated zigzag endpoints Z_1 by
       two-sample KS.  Matching the truncations also matches the straight-run atoms (both
       sit exactly at 1 - delta).

    Both legs read only steps m + 1..n, m = floor(delta n), so the walks
    start at step m with a uniform heading (``sample_positions(first=m)``),
    which gives that window its exact law; the steps before m are never
    simulated.  No comparison of the whole path S_n is reported: against
    the truncated Z_1 it would mix different laws.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    n = _integer("n", n)
    if n < 10_000:
        raise ValueError("critical_limit_test needs n >= 10^4 to be meaningful")
    m = int(delta * n)
    if m < 1:
        raise ValueError(f"need delta * n >= 1, got delta={delta}, n={n}")
    samples = _integer("samples", samples, 2)
    b = b_from_a(a, d)
    schedule = Critical(a=a, n0=max(1, math.ceil(a)))

    # the zigzag side first (its own stream), so a refused intensity runs no walk
    zz = sample_endpoints(d, b, delta, samples, stream_rng(seed, "critical_zigzag"))
    out = walk.sample_positions(d, schedule, n, samples, stream_rng(seed, "critical_walk"),
                                times=(n,), count_changes_in=(m, n), method="events",
                                first=m)
    counts = out.change_counts
    windowed = out.at(n) / n

    lam = b * math.log(1.0 / delta)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(samples)
    chi_stat, chi_crit, chi_dof = poisson_gof(counts, lam, alpha=_ALPHA)

    # two samples of size s: sqrt((s + s) / (s s)), which int division rounds
    # exactly as 2 / s
    ks_thresh = ks_critical(_ALPHA) * math.sqrt(2 / samples)
    ks_coords = [ks_two_sample(windowed[:, c], zz[:, c]) for c in range(d)]
    ks_norm = ks_two_sample(np.linalg.norm(windowed, axis=1),
                            np.linalg.norm(zz, axis=1))

    checks = {"turn_count_mean": (abs(mean - lam), 4.0 * se), "chi2": (chi_stat, chi_crit)}
    checks.update({f"ks[{c}]": (dc, ks_thresh) for c, dc in enumerate(ks_coords)})
    checks["ks_norm"] = (ks_norm, ks_thresh)
    config = {"op": "critical", "d": d, "a": a, "n": n, "samples": samples,
              "delta": delta, "seed": seed}
    details = {
        "b": b,
        "turn_count_mean": mean,
        "turn_count_se": se,
        "poisson_mean": lam,
        "chi2_statistic": chi_stat,
        "chi2_critical": chi_crit,
        "chi2_dof": chi_dof,
        "ks_per_coordinate": ks_coords,
        "ks_norm": ks_norm,
        "ks_threshold": ks_thresh,
    }
    return _limit_report("critical", config, checks, details)


@dataclass(frozen=True)
class RecurrencePoint:
    horizon: int
    mean_visits: float
    se_visits: float
    fraction_late: float
    se_late: float

    def to_json(self) -> dict:
        return _builtin(asdict(self))


def recurrence_experiment(d: int, schedule: Schedule, horizons, samples: int,
                          seed: int = 0) -> list:
    """Origin-visit statistics at nested horizons over a shared path set.

    For each horizon h: the mean number of visits to the origin in [1, h],
    and the fraction of paths with at least one visit in (h/2, h] (the
    "still coming back late" signature).  Horizons must be increasing; each
    path is simulated once to the largest horizon.
    """
    horizons = [_integer("horizon", h, 0) for h in horizons]
    if any(h2 <= h1 for h1, h2 in zip(horizons, horizons[1:])) or not horizons:
        raise ValueError("horizons must be a nonempty strictly increasing list")
    samples = _integer("samples", samples, 1)
    positive = [h for h in horizons if h >= 1]
    if positive:
        stats = walk.sample_visit_stats(d, schedule, positive[-1], samples,
                                        stream_rng(seed, "recurrence"), horizons=positive)
    out = []
    for h in horizons:
        if h == 0:
            out.append(RecurrencePoint(0, 0.0, 0.0, 0.0, 0.0))
            continue
        counts, late = stats.counts[h], stats.late[h]
        mean = float(counts.mean())
        se = float(counts.std(ddof=1)) / math.sqrt(samples) if samples > 1 else 0.0
        frac = float(late.mean())
        se_frac = math.sqrt(frac * (1.0 - frac) / samples)
        out.append(RecurrencePoint(h, mean, se, frac, se_frac))
    return out


def recurrence_report(d: int, schedule: Schedule, horizons, samples: int,
                      seed: int = 0) -> dict:
    """recurrence_experiment as a JSON report: informational, no sub-checks yet."""
    points = recurrence_experiment(d, schedule, horizons, samples, seed=seed)
    config = {"d": d, "schedule": schedule.to_json(), "horizons": horizons,
              "samples": samples, "seed": seed}
    return _report("recurrence", config, {}, points=[pt.to_json() for pt in points])


@dataclass(frozen=True)
class VolkovResult:
    single: EstimatorResult
    joint: EstimatorResult
    horizon: int
    certified_error: float


def _volkov_certify(p: float, j: int, horizon: int | None) -> tuple:
    """Pick/validate a horizon making truncation error < 1e-6.

    Returns (horizon, reach, error), reach = j + Delta.  A walk is misjudged
    only if it is stepped to H and X_H < reach (Hoeffding), or if it falls
    Delta levels after its last step, taken at reach or above (r^Delta,
    twice for the two levels): stopping walks at reach before H changes
    neither term.  Delta is fixed so the fall part is below 5e-7.
    """
    r = (1.0 - p) / p
    mu = 2.0 * p - 1.0
    delta = math.ceil(math.log(2.5e-7) / math.log(r))

    def err(h: int) -> float:
        slack = mu * h - j - delta
        hoeff = 1.0 if slack <= 0 else math.exp(-slack * slack / (2.0 * h))
        return hoeff + 2.0 * r ** delta

    if horizon is None:
        horizon = 256
        while err(horizon) > 1e-6:
            horizon *= 2
    elif err(horizon) > 1e-6:
        raise ValueError(
            f"horizon {horizon} cannot certify truncation error < 1e-6 for p={p}, j={j}")
    return horizon, j + delta, err(horizon)


def _volkov_chunk(p: float, levels: tuple, c: int, horizon: int, reach: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Pass-once flags of c walks, one row per level, streamed in blocks of time.

    A +-1 walk from 0 falls back to a level l >= 1 only by stepping on it,
    so it passes l once exactly when it visits l once (gambler's ruin;
    Feller, Vol. 1, ch. XIV).  Each walk carries its position and one visit
    count per level: a fixed number of cells per walk, whatever the horizon.
    A walk that ends a block at ``reach`` or above is stepped no further
    (its later falls are charged by ``_volkov_certify``): later blocks draw
    uniforms for the live walks only, and the chunk ends when none are left.
    """
    width = max(1, _VOLKOV_CELLS // c)
    live = np.arange(c)
    x0 = np.zeros((c, 1), dtype=np.int32)
    visits = np.zeros((len(levels), c), dtype=np.int64)
    for t0 in range(0, horizon, width):
        w = min(width, horizon - t0)
        steps = (rng.random((live.size, w)) < p).astype(np.int8) * 2 - 1
        x = np.cumsum(steps, axis=1, dtype=np.int32)
        x += x0
        for k, level in enumerate(levels):
            visits[k, live] += np.count_nonzero(x == level, axis=1)
        # row selection copies, so the next block's uniforms never sit
        # beside these positions
        keep = x[:, -1] < reach
        x0 = x[keep, -1:]
        live = live[keep]
        del x
        if not live.size:
            break
    return visits == 1


def volkov_bc_experiment(p: float, i: int, j: int, samples: int,
                         horizon: int | None = None, seed: int = 0) -> VolkovResult:
    """Pass-once frequencies for the biased +-1 walk.

    The walk passes level l "once" when, after first hitting l, it never
    falls back to l or below: a +-1 walk does so iff it visits l once.
    Detection runs within a horizon certified so that post-horizon
    reversals, and walks that end it below a level visited once (counted
    as passed, X_H < j + Delta), add < 1e-6 misclassification mass;
    horizon=None picks the smallest power-of-two that certifies.  Walks
    stop once they end a time block at j + Delta or above, where only a
    fall of Delta levels, already charged, could change their verdict.
    Returns estimators for P(pass i) and P(pass i and pass j).
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must be in (1/2, 1), got {p}")
    i, j, samples = _integer("i", i), _integer("j", j), _integer("samples", samples, 1)
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got i={i}, j={j}")
    horizon = None if horizon is None else _integer("horizon", horizon, 1)
    horizon, reach, cert = _volkov_certify(p, j, horizon)
    rng = stream_rng(seed, "volkov")
    hits_i = 0
    hits_ij = 0
    chunk = 2048
    for done in range(0, samples, chunk):
        passed = _volkov_chunk(p, (i, j), min(chunk, samples - done), horizon, reach, rng)
        hits_i += int(passed[0].sum())
        hits_ij += int((passed[0] & passed[1]).sum())
    single = _proportion_estimator(hits_i, samples, seed)
    joint = _proportion_estimator(hits_ij, samples, seed)
    return VolkovResult(single=single, joint=joint, horizon=horizon,
                        certified_error=cert)


def volkov_report(p: float, i: int, j: int, samples: int, horizon: int | None = None,
                  seed: int = 0) -> dict:
    """volkov_bc_experiment judged against the pass-once probabilities: an
    envelope per half, and on top the sub-checks ``single`` and ``joint``,
    each its half's ``expected``."""
    result = volkov_bc_experiment(p, i, j, samples, horizon=horizon, seed=seed)
    exp_single, _ = gambler_pass_once(p, math.inf)
    _, exp_joint = gambler_pass_once(p, j - i)
    config = {"p": p, "i": i, "j": j, "samples": samples, "seed": seed,
              "horizon": result.horizon, "certified_error": result.certified_error}
    single = envelope("volkov_single", config, result.single, expected=exp_single)
    joint = envelope("volkov_joint", config, result.joint, expected=exp_joint)
    checks = {"single": single["checks"]["expected"], "joint": joint["checks"]["expected"]}
    return _report("volkov", config, checks, single=single, joint=joint)


def moment4_experiment(p: float, n: int, samples: int, seed: int = 0) -> EstimatorResult:
    """Empirical E[L_n^4] of the 1-d walk, s.e. from the sample variance."""
    n, samples = _integer("n", n, 1), _integer("samples", samples, 1)
    pos = walk.sample_positions(1, Constant(p), n, samples, stream_rng(seed, "moment4")).at(n)
    x = pos[:, 0].astype(float) ** 4
    return _mean_estimator(float(x.sum()), float((x * x).sum()), samples, seed)


def moment4_report(p: float, n: int, samples: int, seed: int = 0) -> dict:
    """moment4_experiment judged against the exact E[L_n^4], as the JSON envelope."""
    result = moment4_experiment(p, n, samples, seed=seed)
    config = {"p": p, "n": n, "samples": samples, "seed": seed}
    return envelope("moment4", config, result, expected=fourth_moment_L(p, n))
