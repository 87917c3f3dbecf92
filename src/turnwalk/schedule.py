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

Prob = Union[int, float]  # fractions.Fraction also works; arithmetic is generic


def _check_prob(x, name: str) -> None:
    if not (0 <= x <= 1):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


class Schedule:
    """Base class; concrete families implement ``p_at`` and ``prefix_probs``."""

    kind: str = "?"

    def p_at(self, n: int):
        """Turning probability at step n (n >= 1)."""
        raise NotImplementedError

    def prefix_probs(self, n: int) -> np.ndarray:
        """Vectorized [p_1, ..., p_n] as a new float64 array the caller owns.

        The batch samplers overwrite it in place with hazards.
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _tail(self) -> tuple:
        """Tagged description of the eventual behavior, for classification."""
        raise NotImplementedError

    @staticmethod
    def _require_step(n: int) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"step index must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class Constant(Schedule):
    """p_n = p at every step."""

    p: Prob
    kind = "Constant"

    def __post_init__(self):
        _check_prob(self.p, "p")

    def p_at(self, n: int):
        self._require_step(n)
        return self.p

    def prefix_probs(self, n: int) -> np.ndarray:
        return np.full(n, float(self.p))

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
        if not isinstance(self.n0, int) or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0!r}")
        if self.a > self.n0:
            raise ValueError(
                f"a/n exceeds 1 at n = n0: need a <= n0, got a={self.a!r}, n0={self.n0}"
            )
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        self._require_step(n)
        if n < self.n0:
            return self.prefix_p
        return self.a / n

    def prefix_probs(self, n: int) -> np.ndarray:
        out = np.arange(1, n + 1, dtype=float)
        tail = out[self.n0 - 1:]
        np.divide(float(self.a), tail, out=tail)
        out[:self.n0 - 1] = float(self.prefix_p)
        return out

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
        if not isinstance(self.n0, int) or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0!r}")
        # c * n**(-gamma) is decreasing, so the n0 value is the maximum
        if self.c * self.n0 ** (-self.gamma) > 1:
            raise ValueError(
                f"c * n**(-gamma) exceeds 1 at n = n0 = {self.n0}; reduce c or raise n0"
            )
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        self._require_step(n)
        if n < self.n0:
            return self.prefix_p
        return self.c * n ** (-self.gamma)

    def prefix_probs(self, n: int) -> np.ndarray:
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
        if not isinstance(self.n0, int) or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0!r}")
        _check_prob(self.prefix_p, "prefix_p")

    def p_at(self, n: int):
        self._require_step(n)
        if n < self.n0:
            return self.prefix_p
        return self.values[(n - self.n0) % len(self.values)]

    def prefix_probs(self, n: int) -> np.ndarray:
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
        self._require_step(n)
        if n <= len(self.values):
            return self.values[n - 1]
        return self.values[-1]

    def prefix_probs(self, n: int) -> np.ndarray:
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
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
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
