"""Closed-form quantities for the direction-persistent walk.

Everything here is deterministic arithmetic: step-sign correlation products,
moments of the symmetrized geometric jump law, the exact and asymptotic
fourth moment of the 1-d walk, sub-Gaussian tail bounds, the log-distance
Lyapunov drift with a certified truncation remainder, pass-once probabilities
for the biased gambler walk, and two small number-theoretic / trigonometric
bounds used by the transience analysis.

Arithmetic is kept generic where exactness matters: ``fourth_moment_L``,
``sgeom_moment`` and ``count_arith_progression`` run unchanged on
``fractions.Fraction`` inputs and then return exact values.  This is not a
flourish; the float cancellation in the fourth-moment remainder check is
larger than the remainder itself, so the calibration fixture must be computed
in exact arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .schedule import Schedule, _integer

__all__ = [
    "correlation_e",
    "sgeom_moment",
    "fourth_moment_L",
    "ld_bound",
    "LyapunovConfig",
    "lyapunov_drift",
    "gambler_pass_once",
    "count_arith_progression",
    "cosine_sum_bound",
]


def correlation_e(schedule: Schedule, i: int, j: int) -> float:
    """Correlation of the step signs at times i <= j: the product of
    (1 - p_k) over k = i+1 .. j, in that order, reading each p_k at its step
    (O(1) memory).  Empty product (i == j) is 1."""
    i, j = _integer("i", i), _integer("j", j)
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    return float(math.prod(1.0 - schedule.p_at(k) for k in range(i + 1, j + 1)))


def sgeom_moment(p, m: int):
    """Even moments of the symmetrized geometric jump length.

    E xi^2 = (2-p)/p^2 and E xi^4 = (2-p)(p^2 + 12(1-p))/p^4; both reduce to
    1 at p = 1 where the jump is deterministically +-1.  Only m in {2, 4} is
    supported; other moments raise.
    """
    m = _integer("m", m)
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if m == 2:
        return (2 - p) / (p * p)
    if m == 4:
        return (2 - p) * (p * p + 12 * (1 - p)) / (p * p * p * p)
    raise ValueError(f"unsupported moment order m={m}; only 2 and 4 have closed forms here")


def fourth_moment_L(p, n: int, mode: str = "exact"):
    """Fourth moment of the 1-d walk position L_n = Y_1 + ... + Y_n.

    Exact mode expands E L_n^4 over index patterns.  With q = 1 - p and
    E[Y_i Y_j] = q^(j-i), the sorted-index classes contribute

        all equal            -> n
        two distinct pairs   -> 3 n (n-1)
        triple + single      -> 8 A
        pair + two singles   -> 12 (n-2) A
        four distinct        -> 24 B

    where A = sum_{g=1}^{n-1} (n-g) q^g and B telescopes over prefix sums of
    the one-sided geometric tails, so the whole thing is O(n).  Asymptotic
    mode returns the closed form

        3 n^2 (2-p)^2 / p^2  -  2 n (2-p)(p^2 + 12(1-p)) / p^3
                             +  8 (1-p)(3-2p)(3-p) / p^4

    whose error against exact mode decays like n q^n.  Both modes accept
    Fraction inputs and stay exact on them.
    """
    n = _integer("n", n, 1)
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if mode == "asymptotic":
        p2 = p * p
        return (3 * n * n * (2 - p) ** 2 / p2
                - 2 * n * (2 - p) * (p2 + 12 * (1 - p)) / (p2 * p)
                + 8 * (1 - p) * (3 - 2 * p) * (3 - p) / (p2 * p2))
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")

    q = 1 - p
    # A = sum_{g=1}^{n-1} (n - g) q^g
    A = 0 * p
    qpow = 1 + 0 * p  # exact one in the input's arithmetic
    for g in range(1, n):
        qpow = qpow * q
        A = A + (n - g) * qpow
    # B = sum over b < c of g(b) h(c) with
    #   g(b) = sum_{a<b} q^(b-a) = q (1 - q^(b-1)) / p
    #   h(c) = sum_{d>c} q^(d-c) = q (1 - q^(n-c)) / p
    # accumulated as h(c) times the running prefix sum of g.
    B = 0 * p
    prefix_g = 0 * p
    qpow_b = 1 + 0 * p  # q^(b-1) for the g-term being appended
    # q^(n-c) for c = 2..n: maintain by dividing is unstable; build a list once
    qpow_tail = [1 + 0 * p]
    for _ in range(n - 1):
        qpow_tail.append(qpow_tail[-1] * q)
    for c in range(2, n + 1):
        prefix_g = prefix_g + q * (1 - qpow_b) / p  # g(c-1) joins the prefix
        qpow_b = qpow_b * q
        h_c = q * (1 - qpow_tail[n - c]) / p
        B = B + h_c * prefix_g
    return n + 3 * n * (n - 1) + (12 * n - 16) * A + 24 * B


def ld_bound(p: float, a: float, d: int) -> float:
    """Sub-Gaussian bound on P(|S_n| > a sqrt(n)), clamped to 1.

    Dimension 1 gives 2 exp(-p^2 a / 5) for a >= 1; dimension d >= 2 gives
    d exp(-p^2 (a / sqrt(d)) / 5) for a >= sqrt(d).  Below those thresholds
    the inequality is not available and a ValueError is raised.
    """
    d = _integer("d", d, 1)
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if d == 1:
        if not (math.isfinite(a) and a >= 1):
            raise ValueError(f"d=1 bound requires finite a >= 1, got a={a}")
        return min(1.0, 2.0 * math.exp(-p * p * a / 5.0))
    root = math.sqrt(d)
    if not (math.isfinite(a) and a >= root):
        raise ValueError(
            f"d={d} bound requires finite a >= sqrt(d) = {root:.6g}, got a={a}")
    return min(1.0, d * math.exp(-p * p * (a / root) / 5.0))


@dataclass(frozen=True)
class LyapunovConfig:
    """Parameters for the planar log-distance drift: jump rate p, disc shift
    a in ln(x^2 + y^2 - a), and the geometric-tail mass at which the jump
    magnitude sum is truncated."""

    p: float
    a: float
    truncation_tail: float = 1e-12

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if not (math.isfinite(self.a) and self.a >= 1):
            raise ValueError(f"a must be finite and >= 1, got {self.a}")
        if not 0 < self.truncation_tail <= 1e-6:
            raise ValueError(
                f"truncation_tail must be in (0, 1e-6], got {self.truncation_tail}")


# Largest |z|^2 lyapunov_drift accepts: its terms, up to A^2 with A = |z|^2 - a
# and 2 |z|^2 + 2 M^2, then stay finite floats.
_MAX_R2 = math.sqrt(sys.float_info.max)


# Most jump magnitudes lyapunov_drift sums, and how many it sums at a time
_MAX_MAGNITUDES = 10**8
_MAGNITUDE_CHUNK = 1 << 16


def lyapunov_drift(config: LyapunovConfig, position) -> float:
    """Expected one-jump change of f(z) = ln(|z|^2 - a) for the planar
    embedded walk at ``position``, plus a certified truncation remainder.

    The jump is a uniform axis direction times a Geometric(p) magnitude.
    Magnitudes are summed up to M = ceil(ln(tail)/ln(1-p)), in chunks of
    ``_MAGNITUDE_CHUNK``; an M above ``_MAX_MAGNITUDES`` (a tiny p) is refused
    with a ``ValueError``.  The discarded tail is covered by the bound

        q^M [ f(z) + ln(2|z|^2 + 2 M^2) + 2/(M p) ]

    which majorizes |f(z + jump) - f(z)| against the geometric weights, so
    the returned value is an upper bound on the true drift (negativity of
    the return value certifies negative drift).

    Opposite-direction magnitude pairs are combined through log1p to kill
    the leading cancellation; when a reachable point falls inside the disc,
    where f plateaus at 0, the code falls back to summing the four moves'
    terms directly.
    """
    if len(position) != 2:
        raise ValueError("lyapunov_drift is defined for 2-d positions")
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"position must be finite, got ({x}, {y})")
    p, a, tail = config.p, config.a, config.truncation_tail
    q = 1.0 - p
    r2 = x * x + y * y
    if not r2 <= _MAX_R2:
        raise ValueError(f"position ({x}, {y}) is too far out: |z|^2 = {r2:.6g} exceeds "
                         f"{_MAX_R2:.6g}, beyond which |z|^4 overflows a float")
    if r2 <= a + 1.0:
        raise ValueError(
            f"position with |z|^2 = {r2:.6g} is inside the f = 0 disc (need > a + 1 = {a + 1})")
    if p == 1.0:
        M = 1
    else:
        # log1p keeps ln(1 - p) nonzero where 1 - p rounds to 1
        magnitudes = math.log(tail) / math.log1p(-p)
        if not magnitudes <= _MAX_MAGNITUDES:
            raise ValueError(f"p = {p} is too small: the jump sum would need "
                             f"{magnitudes:.6g} magnitudes, more than {_MAX_MAGNITUDES:.0e}")
        M = max(1, math.ceil(magnitudes))

    fz = math.log(r2 - a)
    # Smallest |z'|^2 reachable by m <= M axis moves; if it stays outside the
    # disc the paired log1p form is valid for every retained term.
    def worst(u: float, v: float) -> float:
        m_star = min(max(1.0, round(abs(u))), M)
        return (abs(u) - m_star) ** 2 + v * v

    remainder = (q ** M) * (fz + math.log(2.0 * r2 + 2.0 * M * M) + 2.0 / (M * p))
    paired = min(worst(x, y), worst(y, x)) >= a + 1.0
    A = r2 - a
    drift = 0.0
    for lo in range(1, M + 1, _MAGNITUDE_CHUNK):
        m = np.arange(lo, min(lo + _MAGNITUDE_CHUNK, M + 1), dtype=float)
        w = 0.25 * p * q ** (m - 1.0)
        if paired:
            ux = m * m * (2.0 * A + m * m - 4.0 * x * x) / (A * A)
            uy = m * m * (2.0 * A + m * m - 4.0 * y * y) / (A * A)
            drift += float(np.sum(w * (np.log1p(ux) + np.log1p(uy))))
            continue
        for zx, zy in ((x + m, y), (x - m, y), (x, y + m), (x, y - m)):
            # f(z') = ln(|z'|^2 - a) outside the disc |z'|^2 >= a + 1, 0 inside
            f = np.log(np.maximum(zx * zx + zy * zy - a, 1.0))
            drift += float(np.sum(w * (f - fz)))
    return drift + remainder


def gambler_pass_once(p: float, gap) -> tuple:
    """Pass-once probabilities for the biased +-1 walk with up-probability p.

    Returns (single, joint): single = p - q is the probability that the walk,
    upon first hitting a level, never returns to it; joint is the probability
    of this happening at two levels ``gap`` apart,
    (p - q)^2 / (1 - (q/p)^gap).  gap = math.inf gives the independent-limit
    product (p - q)^2.
    """
    if not 0.5 < p <= 1:
        raise ValueError(f"p must be in (1/2, 1], got {p}")
    qq = 1.0 - p
    single = p - qq
    if gap == math.inf:
        return single, single * single
    gap = _integer("gap", gap, 1)
    r = qq / p
    return single, single * single / (1.0 - r ** gap)


def count_arith_progression(s, s0, M: int) -> int:
    """Count k in 1..M with frac(k s + s0) in [0, 1/2).

    Hypotheses: 0 < s <= 1/2, M >= 2, and M s >= 1 (a tolerance of 1e-12 is
    allowed on the last product when s is a float).  Float inputs go through
    a vectorized path; exact types (Fraction and friends) are counted with
    exact modular arithmetic, which is well defined because the 1/2 cutoff
    is dyadic.
    """
    M = _integer("M", M, 2)
    if not 0 < s <= Fraction(1, 2):
        raise ValueError(f"s must be in (0, 1/2], got {s}")
    if isinstance(s0, float) and not math.isfinite(s0):
        raise ValueError(f"s0 must be finite, got {s0}")
    if isinstance(s, float) and isinstance(s0, (int, float)):
        if M * s < 1.0 - 1e-12:
            raise ValueError(f"need M*s >= 1, got {M * s}")
        k = np.arange(1, M + 1, dtype=float)
        # s0 mod 1 first (fmod is exact), so that a huge s0 cannot swallow k s
        s0 = math.fmod(s0, 1.0) if isinstance(s0, float) else s0 % 1
        vals = np.mod(k * s + s0, 1.0)
        return int(np.count_nonzero(vals < 0.5))
    if M * s < 1:
        raise ValueError(f"need M*s >= 1, got {M * s}")
    half = Fraction(1, 2)
    return sum(1 for k in range(1, M + 1) if (k * s + s0) % 1 < half)


def cosine_sum_bound(q_dist, M: int, a: float, s: float) -> tuple:
    """Evaluate h(s) = sum_j q_j |cos(j s)| and its linear upper bound.

    ``q_dist`` lists q_1, q_2, ... (a probability distribution on positive
    integers, finite support).  The bound 1 - (a/M) sum_{j<=M} (1 - |cos(js)|)
    dominates h whenever q_j >= a/M for j = 1..M, which is checked (with a
    1e-12 slack for float rounding) and violated inputs raise.
    """
    q = np.asarray(q_dist, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_dist must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(q) & (q >= 0)):
        raise ValueError("q_dist entries must be finite and nonnegative")
    if abs(float(q.sum()) - 1.0) > 1e-12:
        raise ValueError(f"q_dist must sum to 1 within 1e-12, got {q.sum()!r}")
    M = _integer("M", M, 1)
    if M > q.size:
        raise ValueError(f"need q_j defined (listed) for j = 1..{M}; got {q.size} entries")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be positive and finite, got {a}")
    if not -1e-12 <= s <= math.pi / 2 + 1e-12:
        raise ValueError(f"s must lie in [0, pi/2], got {s}")
    if float(q[:M].min()) < a / M - 1e-12:
        raise ValueError(
            f"hypothesis q_j >= a/M = {a / M:.6g} fails at j = {int(q[:M].argmin()) + 1}")
    j = np.arange(1, q.size + 1, dtype=float)
    abscos = np.abs(np.cos(j * s))
    h = float(np.dot(q, abscos))
    bound = 1.0 - (a / M) * float(np.sum(1.0 - abscos[:M]))
    return h, bound
