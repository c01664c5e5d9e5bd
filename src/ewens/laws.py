"""Exact finite-n laws for Ewens partitions.

Conventions used throughout the package:

* a partition of n is the vector of cycle counts (c_1, ..., c_n) with
  sum_j j*c_j = n;
* K_n = sum_j c_j is the number of blocks, with success probabilities
  p_j = theta/(theta+j-1) and q_j = 1 - p_j in the Bernoulli decomposition
  K_n = 1 + sum_{j=2..n} Bernoulli(p_j);
* T_{lm} = sum_{j=l+1..m} j*Z_j for independent Z_j ~ Poisson(theta/j);
* integer laws are carried as `Pmf` windows with explicitly tracked
  tail mass, never silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .special import (
    STIRLING_CAP,
    harmonic_number,
    log_bignat,
    log_rising_factorial,
    stirling_first_row,
)

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class EsfParams:
    """Sample size n >= 1 and mutation parameter theta > 0."""

    n: int
    theta: float

    def __post_init__(self) -> None:
        if self.n != int(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        th = float(self.theta)
        if not math.isfinite(th) or th <= 0.0:
            raise ValueError(f"theta must be positive and finite, got {self.theta!r}")
        object.__setattr__(self, "theta", th)


class Partition:
    """Cycle-count vector (c_1, ..., c_n) of a partition of n."""

    __slots__ = ("n", "counts")

    def __init__(self, counts: Sequence[int] | np.ndarray):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d integer vector")
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        n = arr.size
        weighted = int(np.arange(1, n + 1, dtype=np.int64) @ arr)
        if weighted != n:
            raise ValueError(
                f"counts encode weight {weighted}, expected n = {n} (vector length)"
            )
        self.n = n
        self.counts = arr

    @property
    def num_blocks(self) -> int:
        return int(self.counts.sum())

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Partition({self.as_tuple()})"


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All cycle-count vectors of partitions of n.

    Ordered lexicographically in the reversed vector (c_n, ..., c_1), i.e.
    the all-singleton partition comes first and the single n-cycle last.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)

    def gen(remaining: int, max_part: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    out = []
    for parts in gen(n, n):
        c = [0] * n
        for p in parts:
            c[p - 1] += 1
        out.append(tuple(c))
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


@dataclass
class Pmf:
    """Probability mass on consecutive integers offset..offset+len(probs)-1.

    `tail_mass` is mass known to lie beyond the stored window. The total
    must come out to 1 within 1e-9; nothing is ever renormalized.
    """

    offset: int
    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        if float(arr.min(initial=0.0)) < -1e-12:
            raise ValueError(f"negative probability {arr.min()} in pmf")
        arr = np.clip(arr, 0.0, None)
        if not 0.0 <= self.tail_mass <= 1.0 + 1e-12:
            raise ValueError(f"tail mass {self.tail_mass!r} outside [0, 1]")
        total = float(arr.sum()) + self.tail_mass
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"pmf mass {total} differs from 1 by more than {_MASS_TOL}")
        self.probs = arr
        self.offset = int(self.offset)

    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.probs.size)

    def prob(self, value: int) -> float:
        idx = value - self.offset
        if 0 <= idx < self.probs.size:
            return float(self.probs[idx])
        return 0.0

    def mean(self) -> float:
        """Mean over the stored window (tail mass excluded)."""
        return float(self.support() @ self.probs)

    def reversed_about(self, n: int) -> "Pmf":
        """Law of n - X for X ~ self. Requires a tail-free window."""
        if self.tail_mass != 0.0:
            raise ValueError("cannot reverse a pmf with unlocated tail mass")
        last = self.offset + self.probs.size - 1
        return Pmf(n - last, self.probs[::-1].copy(), 0.0)

    @staticmethod
    def poisson(lam: float, tail_eps: float = 1e-14) -> "Pmf":
        """Poisson(lam) truncated where the survival drops below tail_eps.

        The clipped mass is carried in tail_mass, computed by suffix
        summation so it is accurate in relative terms.
        """
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
        if lam == 0.0:
            return Pmf(0, np.array([1.0]), 0.0)
        hi = int(lam + 20.0 * math.sqrt(lam + 1.0) + 60.0)
        k = np.arange(hi + 1)
        p = np.exp(k * math.log(lam) - lam - gammaln(k + 1.0))
        # surv[i] = P(X > i) restricted to the window, plus a bound on the
        # remainder beyond hi (geometric domination, utterly negligible).
        surv = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])
        remainder = float(p[hi]) * (lam / (hi + 1.0)) / max(1.0 - lam / (hi + 2.0), 0.5)
        surv += remainder
        below = np.flatnonzero(surv <= tail_eps)
        cap = int(below[0]) if below.size else hi
        return Pmf(0, p[: cap + 1].copy(), float(surv[cap]))


def poisson_logpmf(k: np.ndarray, lam: float) -> np.ndarray:
    """Vector of log P(Poisson(lam) = k); lam = 0 handled as a point mass."""
    k = np.asarray(k)
    if lam == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(lam) - lam - gammaln(np.asarray(k, dtype=np.float64) + 1.0)


def esf_pmf(params: EsfParams, a: Partition) -> float:
    """P(C^n = a) = n!/(theta)_n * prod_j (theta/j)^{c_j} / c_j!."""
    if a.n != params.n:
        raise ValueError(f"partition of {a.n} does not match n = {params.n}")
    n, theta = params.n, params.theta
    logp = math.lgamma(n + 1) - log_rising_factorial(theta, n)
    lt = math.log(theta)
    for j, cj in enumerate(a.counts, start=1):
        if cj:
            cj = int(cj)
            logp += cj * (lt - math.log(j)) - math.lgamma(cj + 1)
    return math.exp(logp)


# maxsize=1: every caller works through one (n, theta) at a time, and Monte
# Carlo sweeps move to a new (n, theta) per request, so an older array (up to
# 8 MB at n = 1e6) would never be read again.
@lru_cache(maxsize=1)
def success_probs(n: int, theta: float) -> np.ndarray:
    """p_j = theta/(theta+j-1) for j = 1..n, cached read-only.

    j - 1 is added to theta as an exact integer, so a tiny theta is not
    rounded away.
    """
    p = theta / (theta + np.arange(n, dtype=np.float64))
    p.setflags(write=False)
    return p


def failure_probs(n: int, theta: float) -> np.ndarray:
    """q_j = (j-1)/(theta+j-1) for j = 1..n, without the cancellation of 1 - p_j."""
    i = np.arange(n, dtype=np.float64)
    return i / (theta + i)


def _kn_log_bernoulli(params: EsfParams) -> np.ndarray:
    """Log-law of K_n via convolution of the Bernoulli decomposition.

    Index i of the result holds log P(K_n = i + 1).
    """
    n, theta = params.n, params.theta
    lp = np.array([0.0])
    for pj in success_probs(n, theta)[1:].tolist():
        # log1p(-p_j), not log(q_j): where q_j is near 1 this keeps its log
        # accurate to an ulp of p_j
        llo = math.log1p(-pj)
        lhi = math.log(pj)
        new = np.empty(lp.size + 1)
        new[0] = lp[0] + llo
        new[-1] = lp[-1] + lhi
        if lp.size > 1:
            new[1:-1] = np.logaddexp(lp[1:] + llo, lp[:-1] + lhi)
        lp = new
    return lp


def kn_pmf(params: EsfParams, method: str | None = None) -> Pmf:
    """Law of the number of blocks K_n on {1..n}.

    method="stirling" uses P(K_n = k) = s(n,k) theta^k / (theta)_n with the
    exact integer Stirling table (n <= STIRLING_CAP); "bernoulli_convolution"
    runs the O(n^2) log-space convolution and works for any n. The default
    None takes the Stirling route up to STIRLING_CAP, where its table is
    built once and each law then costs a tenth of the convolution, and the
    convolution above it.
    """
    n, theta = params.n, params.theta
    if method is None:
        method = "stirling" if n <= STIRLING_CAP else "bernoulli_convolution"
    if method == "stirling":
        if n > STIRLING_CAP:
            raise ValueError(
                f"stirling method limited to n <= {STIRLING_CAP}; "
                "use method='bernoulli_convolution'"
            )
        row = stirling_first_row(n)
        lrf = log_rising_factorial(theta, n)
        lt = math.log(theta)
        logp = np.array([log_bignat(row[k]) + k * lt - lrf for k in range(1, n + 1)])
        return Pmf(1, np.exp(logp), 0.0)
    if method == "bernoulli_convolution":
        return Pmf(1, np.exp(_kn_log_bernoulli(params)), 0.0)
    raise ValueError(f"unknown method {method!r}")


def kn_mean_var(params: EsfParams) -> tuple[float, float]:
    """Mean sum p_j and variance sum p_j q_j of K_n, as Bernoulli sums."""
    p = success_probs(params.n, params.theta)
    return math.fsum(p), math.fsum(p * failure_probs(params.n, params.theta))


def cjn_mean(params: EsfParams, j: int) -> float:
    """E[C_j^n] = (theta/j) * n!/(n-j)! * Gamma(n+theta-j)/Gamma(n+theta)."""
    n, theta = params.n, params.theta
    if j != int(j) or not 1 <= j <= n:
        raise ValueError(f"j must be in 1..{n}, got {j!r}")
    j = int(j)
    logv = (
        math.log(theta)
        - math.log(j)
        + math.lgamma(n + 1)
        - math.lgamma(n - j + 1)
        - log_rising_factorial(n + theta - j, j)
    )
    return math.exp(logv)


def singleton_pmf(params: EsfParams) -> Pmf:
    """Full law of the number of singletons C_1^n on {0..n}.

    P(C_1 = k) = (theta^k/k!) sum_{j=0}^{n-k} (-1)^j (theta^j/j!)
                 (n+1-k-j)_{k+j} / (n+theta-k-j)_{k+j}.

    For n <= 30 the alternating series is summed in exact rational
    arithmetic (theta at its exact binary-float value). Beyond that the
    same law is computed by conditioning the Poisson representation,
    P(C_1 = k) = P(Z_1 = k) P(T_1n = n-k) / P(T_0n = n), whose log-space
    convolution has only positive terms and none of the alternating
    cancellation the series suffers at scale.
    """
    n, theta = params.n, params.theta
    if n <= 30:
        th = Fraction(theta)
        probs = np.empty(n + 1)
        for k in range(n + 1):
            acc = Fraction(0)
            for j in range(n - k + 1):
                num = Fraction(1)
                den = Fraction(1)
                for i in range(k + j):
                    num *= n + 1 - k - j + i
                    den *= th + (n - k - j + i)
                term = th**j / math.factorial(j) * num / den
                acc += term if j % 2 == 0 else -term
            probs[k] = float(th**k / math.factorial(k) * acc)
        return Pmf(0, probs, 0.0)

    lt = math.log(theta)
    lt1n = _tlm_log(theta, 1, n, n)
    lp0n = t0n_log(params)
    ks = np.arange(n + 1)
    logp = -theta + ks * lt - np.array([math.lgamma(k + 1) for k in range(n + 1)])
    logp += lt1n[::-1] - lp0n
    return Pmf(0, np.exp(logp), 0.0)


def _tlm_log(theta: float, l: int, m: int, max_value: int) -> np.ndarray:
    """log P(T_{lm} = v) for v = 0..max_value, T_{lm} = sum_{j=l+1..m} j Z_j.

    Log-space dynamic program; each Poisson factor is truncated at
    k <= max_value // j, whose clipped mass ends up (implicitly) in the
    complement of the returned window, never renormalized away.
    """
    if not math.isfinite(theta) or theta <= 0.0:
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if m != int(m) or m <= l:
        raise ValueError(f"m must be an integer > l = {l}, got {m!r}")
    if max_value != int(max_value) or max_value < 0:
        raise ValueError(f"max_value must be a nonnegative integer, got {max_value!r}")
    l, m, max_value = int(l), int(m), int(max_value)

    lp = np.full(max_value + 1, -np.inf)
    lp[0] = 0.0
    for j in range(l + 1, m + 1):
        lam = theta / j
        kmax = max_value // j
        if kmax == 0:
            lp += -lam
            continue
        w = poisson_logpmf(np.arange(kmax + 1), lam)
        new = lp + w[0]
        for k in range(1, kmax + 1):
            shift = k * j
            np.logaddexp(new[shift:], lp[: max_value + 1 - shift] + w[k], out=new[shift:])
        lp = new
    return lp


def tlm_pmf(theta: float, l: int, m: int, max_value: int) -> Pmf:
    """Law of T_{lm} = sum_{j=l+1..m} j Z_j on {0..max_value} plus tail."""
    lp = _tlm_log(theta, l, m, max_value)
    tail = max(0.0, -math.expm1(float(logsumexp(lp))))
    return Pmf(0, np.exp(lp), tail)


def t0n_log(params: EsfParams) -> float:
    """log P(T_{0n} = n) = -theta*H_n + log (theta)_n - log n!."""
    n, theta = params.n, params.theta
    return (
        -theta * harmonic_number(n)
        + log_rising_factorial(theta, n)
        - math.lgamma(n + 1)
    )


def t0n_closed(params: EsfParams) -> float:
    """P(T_{0n} = n) in closed form (exp of t0n_log)."""
    return math.exp(t0n_log(params))


def conditioned_joint_prob(params: EsfParams, b: int, a_b: Sequence[int]) -> float:
    """P(C_1^n = a_1, ..., C_b^n = a_b) for a prefix of cycle counts.

    Uses the conditioning relation: the prefix law equals
    P(Z_b = a_b) * P(T_{bn} = n - a) / P(T_{0n} = n) with a = sum_j j*a_j;
    returns 0 when a > n.
    """
    n, theta = params.n, params.theta
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    b = int(b)
    a_b = [int(v) for v in a_b]
    if len(a_b) != b:
        raise ValueError(f"prefix has length {len(a_b)}, expected b = {b}")
    if any(v < 0 for v in a_b):
        raise ValueError("prefix counts must be nonnegative")
    a = sum(j * v for j, v in enumerate(a_b, start=1))
    if a > n:
        return 0.0
    log_z = math.fsum(
        v * (math.log(theta) - math.log(j)) - theta / j - math.lgamma(v + 1)
        for j, v in enumerate(a_b, start=1)
    )
    if b == n:
        log_rest = 0.0 if a == n else -math.inf
    else:
        log_rest = float(_tlm_log(theta, b, n, n - a)[n - a])
    if log_rest == -math.inf:
        return 0.0
    return math.exp(log_z + log_rest - t0n_log(params))


def tilted_conditioning_check(params: EsfParams, x: float) -> float:
    """Max abs deviation between the ESF law and the x-tilted conditional law.

    Conditioning independent Poissons with means (theta/j) x^j on
    sum_j j Z_j = n must reproduce the ESF for every tilt x > 0. Enumerates
    all partitions, so n is capped at 10.
    """
    n, theta = params.n, params.theta
    if n > 10:
        raise ValueError(f"enumeration check capped at n <= 10, got {n}")
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    lx = math.log(x)
    lt = math.log(theta)
    log_weights = []
    esf = []
    for counts in partitions_of(n):
        lw = 0.0
        for j, cj in enumerate(counts, start=1):
            lam_log = lt - math.log(j) + j * lx
            lw += cj * lam_log - math.lgamma(cj + 1)
        log_weights.append(lw)
        esf.append(esf_pmf(params, Partition(counts)))
    log_weights = np.array(log_weights)
    cond = np.exp(log_weights - logsumexp(log_weights))
    return float(np.max(np.abs(cond - np.array(esf))))
