"""Growth-regime classification, K_n standardization, and limit laws.

A growth rule theta(n) = a * n^beta is classified into Case A (n/theta ->
infinity), B (n/theta -> c), C1/C2/C3 (n/theta -> 0, split by n^2/theta).
Power laws span all five cases; anything else (say theta = n^2/log n) does
not fit the type and is rejected by construction rather than misclassified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .laws import EsfParams, Pmf, kn_pmf
from .sampling import RngState
from .special import log1p_ratio

MIN_REPLICATES = 10**3  # zn_mc_distribution


@dataclass(frozen=True)
class GrowthRule:
    """theta(n) = coeff * n**exponent, nondecreasing in n."""

    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coeff) and self.coeff > 0.0):
            raise ValueError(f"coeff must be positive and finite, got {self.coeff!r}")
        if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ValueError(
                f"exponent must be nonnegative and finite, got {self.exponent!r}"
            )

    def theta_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return self.coeff * float(n) ** self.exponent


@dataclass(frozen=True)
class RegimeCase:
    """Case label with the limit constant where one exists (B and C2)."""

    label: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.label not in ("A", "B", "C1", "C2", "C3"):
            raise ValueError(f"unknown case label {self.label!r}")
        if (self.c is not None) != (self.label in ("B", "C2")):
            raise ValueError(f"constant c must be present iff case is B or C2")
        if self.c is not None and not self.c > 0.0:
            raise ValueError(f"limit constant must be positive, got {self.c!r}")


def classify(rule: GrowthRule) -> RegimeCase:
    """Map the exponent to the case: <1 A, =1 B, (1,2) C1, =2 C2, >2 C3.

    For B the constant is c = lim n/theta = 1/coeff; for C2 it is
    c = lim n^2/theta = 1/coeff.
    """
    beta = rule.exponent
    if beta < 1.0:
        return RegimeCase("A")
    if beta == 1.0:
        return RegimeCase("B", 1.0 / rule.coeff)
    if beta < 2.0:
        return RegimeCase("C1")
    if beta == 2.0:
        return RegimeCase("C2", 1.0 / rule.coeff)
    return RegimeCase("C3")


def lln_constant(case: RegimeCase) -> float:
    """Limit of K_n over its natural normalizer for the given case.

    Case A: K_n/(theta log(n/theta)) -> 1. Case B: K_n/n -> log(1+c)/c
    with c = lim n/theta, written so the two degenerate limits match the
    neighbours (-> 1 as c -> 0 like Case C, -> 0 as c -> infinity like
    Case A). Cases C1-C3: K_n/n -> 1.
    """
    if case.label == "B":
        return math.log1p(case.c) / case.c
    return 1.0


@dataclass(frozen=True)
class Standardization:
    """mu = theta*log(1+n/theta), sigma2 = theta*(log(1+n/theta) - n/(n+theta))."""

    mu: float
    sigma2: float

    def z(self, k: float) -> float:
        return (k - self.mu) / math.sqrt(self.sigma2)


def standardize(params: EsfParams) -> Standardization:
    """Standardization constants for Z_n = (K_n - mu)/sigma; needs n >= 2."""
    n, theta = params.n, params.theta
    if n < 2:
        raise ValueError("standardization needs n >= 2 (sigma vanishes at n = 1)")
    log_term = log1p_ratio(n, theta)
    return Standardization(theta * log_term, theta * (log_term - n / (n + theta)))


@dataclass(frozen=True)
class LawDescriptor:
    """Limit law of Z_n: a cdf plus explicit atoms when the law is discrete.

    kind "normal" has no atoms; "c2_lattice" carries atoms at
    (c/2 - k)/sqrt(c/2) with Poisson(c/2) weights; "point_mass" sits at 0.
    """

    kind: str
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None

    def cdf(self, x: float) -> float:
        if self.kind == "normal":
            return ndtr(x)
        total = 0.0
        for a, w in zip(self.atoms, self.weights):
            if a <= x:
                total += w
        return min(1.0, total)


def limit_law(case: RegimeCase) -> LawDescriptor:
    """Limit of Z_n: N(0,1) in A/B/C1, a reflected Poisson lattice in C2
    (atoms (c/2-k)/sqrt(c/2), k >= 0), the point mass at 0 in C3."""
    if case.label in ("A", "B", "C1"):
        return LawDescriptor("normal")
    if case.label == "C3":
        return LawDescriptor(
            "point_mass", np.array([0.0]), np.array([1.0])
        )
    lam = case.c / 2.0
    law = Pmf.poisson(lam, tail_eps=1e-16)
    ks = np.array(law.support(), dtype=np.float64)
    atoms = (lam - ks) / math.sqrt(lam)
    return LawDescriptor("c2_lattice", atoms, law.probs.copy())


def singleton_full_prob(params: EsfParams) -> float:
    """P(C_1^n = n) = theta^n / (theta)_n = prod_{i<n} 1/(1 + i/theta).

    The log1p terms are all positive and their fsum cancels nothing, where
    n log(theta) - log (theta)_n loses about n * eps * log(theta).
    """
    i = np.arange(1, params.n, dtype=np.float64)
    return math.exp(-math.fsum(np.log1p(i / params.theta).tolist()))


@dataclass(frozen=True)
class C2Report:
    """Finite-n quantities the C2/C3 limits predict."""

    p_singleton_exact: float
    p_singleton_approx: float
    cycle2_law: Pmf


def c2_predictions(params: EsfParams) -> C2Report:
    """Exact P(C_1^n = n), its e^(-n^2/(2 theta)) approximation, and the
    predicted Poisson(n^2/(2 theta)) law of the 2-cycle count."""
    n, theta = params.n, params.theta
    lam = n * n / (2.0 * theta)
    return C2Report(
        singleton_full_prob(params),
        math.exp(-lam),
        Pmf.poisson(lam),
    )


def zn_mc_distribution(
    rule: GrowthRule, n: int, replicates: int, rng: RngState
) -> np.ndarray:
    """Standardized Monte Carlo draws (K_n - mu)/sigma under the rule.

    The exact law `kn_pmf` is computed once; replicate i is the inverse of
    its cumulative sum at double i of the state's own stream
    (`rng.generator().random(replicates)`). Each replicate reads exactly one
    uniform, so a longer run extends a shorter one without a per-replicate
    key. The smallest k whose cumulative sum exceeds the uniform has
    positive mass; a uniform at or past the sum's last value, which rounding
    can leave below 1, takes the largest k of positive mass.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {replicates}")
    params = EsfParams(n, rule.theta_at(n))
    std = standardize(params)
    law = kn_pmf(params)
    u = rng.generator().random(replicates)
    idx = np.minimum(np.searchsorted(np.cumsum(law.probs), u, side="right"), np.flatnonzero(law.probs)[-1])
    return (law.offset + idx - std.mu) / math.sqrt(std.sigma2)


def standardized_lattice_tv(z_values: np.ndarray, c: float) -> float:
    """TV between standardized draws mapped back to the C2 lattice and
    Poisson(c/2).

    Each draw is inverted to k = rint(c/2 - z*sqrt(c/2)); draws landing off
    the lattice or below 0 count fully against the distance.
    """
    lam = c / 2.0
    k_real = lam - np.asarray(z_values, dtype=np.float64) * math.sqrt(lam)
    k_hat = np.rint(k_real)
    on_lattice = (np.abs(k_real - k_hat) < 0.25) & (k_hat >= 0.0)
    m = z_values.size
    invalid = float(np.count_nonzero(~on_lattice)) / m
    ks = k_hat[on_lattice].astype(np.int64)
    law = Pmf.poisson(lam)
    kmax = max(int(ks.max(initial=0)), law.probs.size - 1)
    emp = np.bincount(ks, minlength=kmax + 1) / m
    pois = np.pad(law.probs, (0, kmax + 1 - law.probs.size))
    return 0.5 * (float(np.abs(emp - pois).sum()) + law.tail_mass + invalid)
