"""Correctness checks the benchmark applies to every op, independent of the
library's own verdict logic.

``check_cli_output`` judges one ``turnwalk verify`` run from its exit code and
stdout alone.  An op fails on exit code 2 (or any code but 0/1), output that
is not JSON, a missing verdict field, any non-finite number anywhere in the
output, a verdict that disagrees with the numbers it reports, or an exit code
that disagrees with the verdict.  A statistical rejection with consistent
numbers is not a failure; it is reported as ``rejected``.

``oracle_law_check`` samples endpoints at small n with both batched samplers
and compares them by chi-square with the exact DP law.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import chi2

from turnwalk import oracle, walk
from turnwalk.schedule import schedule_from_json

from workloads import ORACLE_CONFIGS

METHODS = ("step", "events")
ORACLE_FALSE_ALARM = 1e-6  # per op, split evenly over the sub-tests
MIN_EXPECTED = 5.0


class OpFailure(Exception):
    """An op's output is wrong; the message says how."""


def _nonfinite_paths(obj, path="$"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{path}[{i}]")]
    raise OpFailure(f"unexpected JSON value at {path}: {obj!r}")


def _field(obj: dict, key: str, kind):
    if key not in obj:
        raise OpFailure(f"missing field {key!r}")
    value = obj[key]
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise OpFailure(f"field {key!r} is {value!r}, expected {kind.__name__}")
    return value


def _within_4se(obj: dict) -> bool:
    """The ``within_4se`` flag, checked against estimate, expected and s.e."""
    flag = _field(obj, "within_4se", bool)
    est = _field(obj, "estimate", float)
    se = _field(obj, "std_error", float)
    expected = _field(obj, "expected", float)
    if flag != (abs(est - expected) <= 4.0 * se):
        raise OpFailure(f"within_4se={flag} disagrees with |{est} - {expected}| vs 4 x {se}")
    return flag


def _test_report(obj: dict) -> bool:
    rejected = _field(obj, "rejected", bool)
    stat = _field(obj, "statistic", float)
    threshold = _field(obj, "threshold", float)
    if rejected != (stat > threshold):
        raise OpFailure(f"rejected={rejected} disagrees with {stat} > {threshold}")
    return not rejected


def _tail(obj: dict) -> bool:
    verdict = _field(obj, "verdict", str)
    est = _field(obj, "estimate", float)
    se = _field(obj, "std_error", float)
    bound = _field(obj, "bound", float)
    if verdict not in ("holds", "violated"):
        raise OpFailure(f"unknown verdict {verdict!r}")
    if (verdict == "holds") != (est - 4.0 * se <= bound):
        raise OpFailure(f"verdict {verdict!r} disagrees with {est} - 4 x {se} vs {bound}")
    return verdict == "holds"


def _volkov(obj: dict) -> bool:
    # a list, not a generator: the joint flag is checked even when single rejects
    return all([_within_4se(_field(obj, "single", dict)),
                _within_4se(_field(obj, "joint", dict))])


def _recurrence(obj: dict, argv: list) -> bool:
    horizons = [int(h) for h in argv[argv.index("--horizons") + 1].split(",")]
    points = _field(obj, "points", list)
    if [pt.get("horizon") for pt in points] != horizons:
        raise OpFailure(f"points cover {[pt.get('horizon') for pt in points]}, "
                        f"expected {horizons}")
    for pt in points:
        if _field(pt, "mean_visits", float) < 0:
            raise OpFailure(f"negative mean_visits at horizon {pt['horizon']}")
        if not 0.0 <= _field(pt, "fraction_late", float) <= 1.0:
            raise OpFailure(f"fraction_late outside [0, 1] at horizon {pt['horizon']}")
    return True


_VERDICTS = {
    "tail": _tail,
    "covariance": _within_4se,
    "moment4": _within_4se,
    "scaling": _test_report,
    "critical": _test_report,
    "volkov": _volkov,
}


def check_cli_output(op: dict, code: int, stdout: str) -> bool:
    """Validate one CLI op; returns True for a pass, False for a rejection.

    Raises ``OpFailure`` when the output is wrong.
    """
    if code not in (0, 1):
        raise OpFailure(f"exit code {code}")
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OpFailure(f"output is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise OpFailure("output is not a JSON object")
    bad = _nonfinite_paths(obj)
    if bad:
        raise OpFailure(f"non-finite values at {', '.join(bad[:5])}")
    config = _field(obj, "config", dict)
    for key in ("seed", "samples"):
        if config.get(key) != op[key]:
            raise OpFailure(f"config {key}={config.get(key)!r}, requested {op[key]!r}")
    exp = op["experiment"]
    passed = _recurrence(obj, op["argv"]) if exp == "recurrence" else _VERDICTS[exp](obj)
    if code != (0 if passed else 1):
        raise OpFailure(f"exit code {code} disagrees with verdict passed={passed}")
    return passed


def chi_square_pvalue(points: np.ndarray, law: dict, n: int) -> float:
    """P-value of sampled lattice points in [-n, n]^d against an exact law.

    ``law`` maps points to probabilities.  Cells with expected count below
    MIN_EXPECTED are pooled, smallest first; a sample outside the law's
    support gives p-value 0.
    """
    total, d = points.shape
    radix = (2 * n + 1) ** np.arange(d)
    observed = np.bincount((points + n) @ radix, minlength=(2 * n + 1) ** d)
    prob = np.zeros(observed.size)
    for point, p in law.items():
        prob[(np.asarray(point) + n) @ radix] = p
    if observed[prob == 0].any():
        return 0.0
    order = np.argsort(prob[prob > 0], kind="stable")
    expected = (prob[prob > 0] * total)[order]
    obs = observed[prob > 0][order].astype(float)
    # pool the smallest cells until the pool reaches MIN_EXPECTED
    cut = 0
    pooled = 0.0
    while cut < expected.size and (expected[cut] < MIN_EXPECTED or 0 < pooled < MIN_EXPECTED):
        pooled += expected[cut]
        cut += 1
    if cut:
        expected = np.append(expected[cut:], pooled)
        obs = np.append(obs[cut:], obs[:cut].sum())
    if expected.size < 2:
        return 1.0
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return float(chi2.sf(stat, expected.size - 1))


def oracle_law_check(schedule_json: str, samples: int, seed: int) -> dict:
    """Chi-square of ``walk.sample_positions`` against ``oracle.exact_distribution``.

    Runs d, n from ORACLE_CONFIGS with both methods; the op fails when any
    p-value is below ORACLE_FALSE_ALARM divided by the number of sub-tests,
    so a correct sampler fails an op with probability at most 1e-6.
    Returns the p-values; raises ``OpFailure`` on a failed check.
    """
    schedule = schedule_from_json(schedule_json)
    tests = [(d, n, m) for d, n in ORACLE_CONFIGS for m in METHODS]
    alpha = ORACLE_FALSE_ALARM / len(tests)
    pvalues = {}
    for k, (d, n, method) in enumerate(tests):
        rng = np.random.default_rng([seed, k])
        pts = walk.sample_positions(d, schedule, n, samples, rng, method=method).at(n)
        law = oracle.exact_distribution(d, schedule, n).marginal_positions()
        pvalues[f"d{d}_n{n}_{method}"] = chi_square_pvalue(pts, law, n)
    worst = min(pvalues, key=pvalues.get)
    if pvalues[worst] < alpha:
        raise OpFailure(f"sampler law differs from the exact DP: {worst} "
                        f"p = {pvalues[worst]:.3g} < {alpha:.3g}")
    return pvalues
