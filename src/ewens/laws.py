"""Exact finite-n laws for Ewens partitions.

Conventions used throughout the package:

* a partition of n has cycle counts (c_1, ..., c_n) with sum_j j*c_j = n;
  a `Partition` stores only the sizes j with c_j > 0 and those c_j;
* K_n = sum_j c_j is the number of blocks, with success probabilities
  p_j = theta/(theta+j-1) and q_j = 1 - p_j in the Bernoulli decomposition
  K_n = 1 + sum_{j=2..n} Bernoulli(p_j);
* T_{lm} = sum_{j=l+1..m} j*Z_j for independent Z_j ~ Poisson(theta/j);
  every law of T_{lm} comes from one O(n) kernel, Panjer's recursion for
  Q_{lm}(v) = P(T_{lm} = v) e^{theta(H_m - H_l)}, and the laws conditioned
  on T_{0n} = n take ratios of Q in which the e^{-theta H} normalisers
  cancel exactly;
* integer laws are carried as `Pmf` windows with explicitly tracked
  tail mass, never silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln

from .special import harmonic_number

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
    """A partition of n as its distinct block sizes and their multiplicities.

    `sizes` increases within 1..n, each entry of `mults` is at least 1 and
    sizes @ mults = n, so a partition with K distinct block sizes is stored
    and checked in O(K); the cycle-count vector (c_1, ..., c_n) is built
    only when `counts` or `prefix` is read.
    """

    __slots__ = ("n", "sizes", "mults")

    def __init__(self, counts: Sequence[int] | np.ndarray):
        """From the cycle-count vector (c_1, ..., c_n); n is its length."""
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d integer vector")
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        idx = np.flatnonzero(arr)
        self._set(arr.size, idx + 1, arr[idx])

    @classmethod
    def from_blocks(cls, blocks: Sequence[int] | np.ndarray) -> Partition:
        """The partition of n = sum(blocks) whose blocks have these sizes."""
        sizes, mults = np.unique(np.asarray(blocks, dtype=np.int64), return_counts=True)
        part = cls.__new__(cls)
        part._set(int(sizes @ mults), sizes, mults)
        return part

    def _set(self, n: int, sizes: np.ndarray, mults: np.ndarray) -> None:
        # both constructors give increasing sizes and mults >= 1
        if sizes.size == 0 or sizes[0] < 1:
            raise ValueError("a partition needs at least one block, and block sizes >= 1")
        weight = int(sizes @ mults)
        if weight != n:
            raise ValueError(f"blocks weigh {weight}, expected n = {n}")
        self.n, self.sizes, self.mults = n, sizes, mults.astype(np.int64, copy=False)

    @property
    def num_blocks(self) -> int:
        return int(self.mults.sum())

    @property
    def counts(self) -> np.ndarray:
        """The dense vector (c_1, ..., c_n), built on each read."""
        return self.prefix(self.n)

    def prefix(self, b: int) -> np.ndarray:
        """(c_1, ..., c_b) for 0 <= b <= n, in O(b + log K)."""
        if not 0 <= b <= self.n:
            raise ValueError(f"prefix length must be in 0..{self.n}, got {b!r}")
        out = np.zeros(b, dtype=np.int64)
        k = int(np.searchsorted(self.sizes, b, side="right"))
        out[self.sizes[:k] - 1] = self.mults[:k]
        return out

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.mults, other.mults)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sizes.tobytes(), self.mults.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, sizes={self.sizes.tolist()}, mults={self.mults.tolist()})"


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All cycle-count vectors of partitions of n.

    Ordered lexicographically in the reversed vector (c_n, ..., c_1), i.e.
    the all-singleton partition comes first and the single n-cycle last.
    The vectors are generated in that order directly: c_j runs upwards for
    j = n down to 1, and c_1 takes whatever weight is left.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    out = []
    counts = [0] * n

    def fill(j: int, remaining: int) -> None:
        if j == 1 or remaining == 0:
            counts[0] = remaining
            out.append(tuple(counts))
            return
        for c in range(remaining // j + 1):
            counts[j - 1] = c
            fill(j - 1, remaining - c * j)
        counts[j - 1] = 0

    fill(n, n)
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


def esf_pmf(params: EsfParams, a: Partition) -> float:
    """P(C^n = a) = n!/(theta)_n * prod_j (theta/j)^{c_j} / c_j!."""
    if a.n != params.n:
        raise ValueError(f"partition of {a.n} does not match n = {params.n}")
    n, theta = params.n, params.theta
    logp = -log_q_ratio(theta, 0, n)
    lt = math.log(theta)
    for j, cj in zip(a.sizes.tolist(), a.mults.tolist()):
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


# maxsize=1, read-only: `tv` reads the law of K_n and of n - K_n at one
# (n, theta), and a new (n, theta) replaces the cached array (up to 8 MB).
@lru_cache(maxsize=1)
def _kn_tree(n: int, theta: float) -> np.ndarray:
    """P(K_n = k), k = 1..n, as a pairwise convolution tree over the Bernoulli(p_j).

    The leaves are the laws of `leaf` consecutive factors j = 2..n, all
    built at once, one numpy step per position over a (leaf+1 x leaves)
    array; the last leaf is padded with p = 0, q = 1. The leaf grows with n,
    from 4 factors below n = 32 to 64 from n = 2048 on, so a small law does
    not pay a long leaf loop. Neighbouring laws are then convolved in pairs
    up a binary tree (Biscarri, Zhao & Brunner 2018). Every term is positive
    and q_j keeps its full relative precision, so each entry keeps its
    relative accuracy. The law is log-concave, so only a node's ends
    underflow to 0.0; dropping them makes each convolution cost its window
    of representable entries.
    """
    leaf = min(64, max(4, 1 << (n.bit_length() // 2)))
    leaves = max(1, -(-(n - 1) // leaf))
    pad = leaves * leaf - (n - 1)
    # position-major: step t reads one contiguous row of p and q for all leaves
    p = np.concatenate([success_probs(n, theta)[1:], np.zeros(pad)])
    p = p.reshape(leaves, leaf).T.copy()
    q = np.concatenate([failure_probs(n, theta)[1:], np.ones(pad)])
    q = q.reshape(leaves, leaf).T.copy()
    law = np.zeros((leaf + 1, leaves))  # law[s, b] = P(s successes in leaf b)
    law[0] = 1.0
    for t in range(leaf):
        shifted = law[: t + 1] * p[t]
        law[: t + 1] *= q[t]
        law[1 : t + 2] += shifted
    del p, q, shifted
    # a node is (its least success count, its law from there, nonzero at both ends)
    nonzero = law != 0.0
    lo = nonzero.argmax(axis=0).tolist()
    hi = (leaf + 1 - nonzero[::-1].argmax(axis=0)).tolist()
    nodes = [(a, col[a:b]) for a, b, col in zip(lo, hi, law.T)]
    while len(nodes) > 1:
        paired = []
        for (off_a, a), (off_b, b) in zip(nodes[::2], nodes[1::2]):
            c = np.convolve(a, b)
            if c[0] == 0.0 or c[-1] == 0.0:  # an end underflowed
                kept = np.flatnonzero(c)
                off_a += int(kept[0])
                c = c[kept[0] : kept[-1] + 1]
            paired.append((off_a + off_b, c))
        nodes = paired + nodes[2 * len(paired) :]
    out = np.zeros(n)  # out[k - 1] = P(K_n = k) = P(k - 1 successes)
    off, probs = nodes[0]
    out[off : off + probs.size] = probs
    out.setflags(write=False)
    return out


def kn_pmf(params: EsfParams) -> Pmf:
    """Law of the number of blocks K_n on {1..n}, by the tree `_kn_tree`.

    The law covers all of 1..n with tail_mass 0.0; entries below the
    smallest double are 0.0. `bruteforce.kn_stirling_pmf` is its exact-integer
    oracle for n <= 500.
    """
    return Pmf(1, _kn_tree(params.n, params.theta), 0.0)


def kn_mean_var(params: EsfParams) -> tuple[float, float]:
    """Mean sum p_j and variance sum p_j q_j of K_n, as Bernoulli sums."""
    p = success_probs(params.n, params.theta)
    return math.fsum(p), math.fsum(p * failure_probs(params.n, params.theta))


def cjn_mean(params: EsfParams, j: int) -> float:
    """E[C_j^n] = (theta/j) Q_0,n-j(n-j)/Q_0n(n), in O(j) by `log_q_ratio`."""
    n, theta = params.n, params.theta
    if j != int(j) or not 1 <= j <= n:
        raise ValueError(f"j must be in 1..{n}, got {j!r}")
    j = int(j)
    return math.exp(math.log(theta) - math.log(j) - log_q_ratio(theta, n - j, n))


def singleton_pmf(params: EsfParams) -> Pmf:
    """Full law of the number of singletons C_1^n on {0..n}.

    Conditioning the Poisson representation on T_0n = n gives
    P(C_1 = k) = (theta^k/k!) Q_1n(n-k) / Q_0n(n), where Q_lm is the law of
    T_lm without its normaliser (see `_tlm_log`). The factors e^{-theta}
    and e^{-theta(H_n - 1)} of the numerator cancel e^{-theta H_n} of the
    denominator exactly, so no theta*H_n is ever formed, and every term of
    the recursion is positive.
    """
    n, theta = params.n, params.theta
    ks = np.arange(n + 1)
    logp = ks * math.log(theta) - gammaln(ks + 1.0)
    logp += conditioning_log_ratio(theta, 1, n)
    return Pmf(0, np.exp(logp), 0.0)


def _tlm_log(theta: float, l: int, m: int, max_value: int) -> np.ndarray:
    """log Q(v) for v = 0..max_value, Q(v) = P(T_{lm} = v) e^{theta(H_m - H_l)}.

    Q drops the normaliser P(T_{lm} = 0), which callers subtract or cancel
    in a ratio; T_{ll} = 0. Panjer's recursion v Q(v) = theta
    sum_{j=l+1}^{min(v,m)} Q(v-j), Q(0) = 1, adds only positive terms: for
    v <= m the window is a running prefix sum, beyond m it is summed
    directly, because a sliding difference would cancel in the far tail.
    That is O(max_value) for max_value <= m and O(m - l) more per value
    beyond m. The values still to be read are rescaled by powers of two,
    which is exact, and each value's exponent is carried into its log.
    """
    if not 2.0**-1000 <= theta <= 2.0**1000:
        raise ValueError(f"theta must lie in [2^-1000, 2^1000], got {theta!r}")
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if m != int(m) or m < l:
        raise ValueError(f"m must be an integer >= l = {l}, got {m!r}")
    if max_value != int(max_value) or max_value < 0:
        raise ValueError(f"max_value must be a nonnegative integer, got {max_value!r}")
    l, m, max_value = int(l), int(m), int(max_value)

    # Live values stay in 2^-k..2^k: theta times a window sum stays finite,
    # and values about theta (at most 2^1000 or 2^-1000) apart stay normal.
    k = max(1, min(512, (1000 - math.frexp(theta)[1]) // 2))
    huge, tiny = 2.0**k, 2.0**-k
    q = [1.0] + [0.0] * max_value
    ex = [0] * (max_value + 1)
    total, e = 0.0, 0
    for v in range(l + 1, max_value + 1):
        if v <= m:
            total += q[v - l - 1]
            x = theta * total / v
        else:
            x = theta * sum(q[v - m : v - l]) / v
        q[v] = x
        ex[v] = e
        if x > huge or 0.0 < x < tiny:
            s = math.frexp(x)[1]
            e += s
            f = 2.0**-s
            lo = max(0, v + 1 - m) if max_value > m else v - l
            q[lo : v + 1] = [y * f for y in q[lo : v + 1]]
            ex[lo : v + 1] = [t + s for t in ex[lo : v + 1]]
            total *= f  # unused beyond m, where it may overflow harmlessly
    with np.errstate(divide="ignore"):
        return np.log(q) + math.log(2.0) * np.array(ex, dtype=np.float64)


def tlm_logpmf(theta: float, l: int, m: int, max_value: int) -> np.ndarray:
    """log P(T_{lm} = v) for v = 0..max_value: `_tlm_log` minus theta(H_m - H_l)."""
    return _tlm_log(theta, l, m, max_value) - theta * math.fsum(1.0 / j for j in range(l + 1, m + 1))


def _logsumexp(x: np.ndarray) -> float:
    """log sum_i exp(x_i) of a nonempty 1-d float64 array, finite or -inf entries.

    `scipy.special.logsumexp`'s own algorithm, bit for bit: with m = max x,
    s = sum of exp(x_i - m) over the entries below m, divided by the count k
    of entries equal to m, gives log1p(s) + log(k) + m. It is rewritten here,
    against "call, don't rewrite", because scipy's array-API dispatch costs
    about 68 us on a 30-entry array, where these numpy calls take about 4 us
    (2-vCPU VM); the tests keep scipy as the oracle.
    """
    top = x.max()
    if top == -np.inf:
        return -math.inf
    ties = x == top
    count = np.float64(np.count_nonzero(ties))
    s = np.exp(np.where(ties, -np.inf, x) - top).sum() / count
    return float(np.log1p(s) + np.log(count) + top)


def tlm_pmf(theta: float, l: int, m: int, max_value: int) -> Pmf:
    """Law of T_{lm} = sum_{j=l+1..m} j Z_j on {0..max_value} plus tail."""
    lp = tlm_logpmf(theta, l, m, max_value)
    tail = max(0.0, -math.expm1(_logsumexp(lp)))
    return Pmf(0, np.exp(lp), tail)


def log_q_ratio(theta: float, k: int, n: int) -> float:
    """log Q_0n(n) - log Q_0k(k) = log prod_{i=k+1..n} (theta+i-1)/i, 0 <= k <= n.

    Q_0m(m) = P(T_0m = m) e^{theta H_m} = (theta)_m/m! normalises every law
    conditioned on T_0m = m. Past the factor theta at i = 1 each term is
    log1p((theta-1)/i), and their fsum has none of the cancellation by which
    an lgamma difference loses about eps*log(n!).
    """
    i = np.arange(max(k, 1) + 1, n + 1, dtype=np.float64)
    head = [math.log(theta)] if k == 0 < n else []
    return math.fsum(head + np.log1p((theta - 1.0) / i).tolist())


def conditioning_log_ratio(theta: float, b: int, n: int) -> np.ndarray:
    """log Q_bn(n - a) - log Q_0n(n) for a = 0..n, Q as in `_tlm_log`.

    That is log P(T_bn = n - a)/P(T_0n = n) - theta H_b, the ratio behind
    every law conditioned on T_0n = n, with no theta*H_n ever formed.
    """
    return _tlm_log(theta, b, n, n)[::-1] - log_q_ratio(theta, 0, n)


def t0n_log(params: EsfParams) -> float:
    """log P(T_{0n} = n) = -theta*H_n + log Q_0n(n)."""
    return -params.theta * harmonic_number(params.n) + log_q_ratio(params.theta, 0, params.n)


def conditioned_joint_prob(params: EsfParams, b: int, a_b: Sequence[int]) -> float:
    """P(C_1^n = a_1, ..., C_b^n = a_b) for a prefix of cycle counts.

    `conditioned_prefix_probs` of this one prefix.
    """
    return conditioned_prefix_probs(params, b, [a_b])[0]


def conditioned_prefix_probs(params: EsfParams, b: int, prefixes: Iterable[Sequence[int]]) -> list[float]:
    """P(C_1^n = a_1, ..., C_b^n = a_b) for each prefix (a_1, ..., a_b) given.

    Uses the conditioning relation: the prefix law equals
    P(Z_b = a_b) * P(T_{bn} = n - a) / P(T_{0n} = n) with a = sum_j j*a_j,
    whose normalisers e^{-theta H_b} e^{-theta(H_n - H_b)} / e^{-theta H_n}
    cancel exactly; 0 where a > n. One `conditioning_log_ratio` serves
    every prefix.
    """
    n, theta = params.n, params.theta
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    b = int(b)
    ratio = conditioning_log_ratio(theta, b, n)
    out = []
    for a_b in prefixes:
        a_b = [int(v) for v in a_b]
        if len(a_b) != b:
            raise ValueError(f"prefix has length {len(a_b)}, expected b = {b}")
        if any(v < 0 for v in a_b):
            raise ValueError("prefix counts must be nonnegative")
        a = sum(j * v for j, v in enumerate(a_b, start=1))
        if a > n:
            out.append(0.0)
            continue
        log_z = math.fsum(
            v * (math.log(theta) - math.log(j)) - math.lgamma(v + 1)
            for j, v in enumerate(a_b, start=1)
        )
        out.append(math.exp(log_z + ratio[a]))
    return out
