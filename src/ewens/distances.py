"""Poisson approximation distances and every closed-form bound around them.

Total variation distances are reported as certified intervals whenever a law
carries truncated tail mass; closed-form bounds come back as `BoundReport`
records so sweeps can be dumped uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .laws import (
    EsfParams,
    Pmf,
    _tlm_log,
    failure_probs,
    kn_mean_var,
    kn_pmf,
    success_probs,
    t0n_log,
)
from .sampling import RngState, sample_feller
from .special import digamma, log_rising_factorial


def _tol(value: float) -> float:
    return 1e-12 * max(1.0, abs(value))


@dataclass(frozen=True)
class BoundReport:
    """A computed quantity with optional certified bounds around it."""

    name: str
    value: float
    lower: float | None = None
    upper: float | None = None
    satisfied: bool = True
    detail: str = ""


def make_report(
    name: str,
    value: float,
    lower: float | None = None,
    upper: float | None = None,
    detail: str = "",
) -> BoundReport:
    ok = True
    if lower is not None and value < lower - _tol(value):
        ok = False
    if upper is not None and value > upper + _tol(value):
        ok = False
    return BoundReport(name, value, lower, upper, ok, detail)


@dataclass(frozen=True)
class TvBound:
    """Point estimate plus certified interval for a total variation distance."""

    value: float
    lower: float
    upper: float


def tv_discrete(p: Pmf, q: Pmf) -> TvBound:
    """Total variation distance between two integer laws.

    Windows are aligned on their union; tail mass (location unknown beyond
    the windows) widens the certified interval by half the total tail on
    each side.
    """
    lo = min(p.offset, q.offset)
    hi = max(p.offset + p.probs.size, q.offset + q.probs.size)
    pv = np.zeros(hi - lo)
    qv = np.zeros(hi - lo)
    pv[p.offset - lo : p.offset - lo + p.probs.size] = p.probs
    qv[q.offset - lo : q.offset - lo + q.probs.size] = q.probs
    d = float(np.abs(pv - qv).sum())
    tails = p.tail_mass + q.tail_mass
    value = min(1.0, 0.5 * d)
    return TvBound(value, max(0.0, 0.5 * (d - tails)), min(1.0, 0.5 * (d + tails)))


def bh_bounds(p_list: Sequence[float]) -> tuple[float, float]:
    """Poisson-approximation sandwich for a sum of independent Bernoullis.

    For S = sum Bernoulli(p_j) and lambda = sum p_j:
    (1 ^ 1/lambda)/32 * sum p_j^2  <=  d_TV(S, Poisson(lambda))
                                   <=  (1-e^-lambda)/lambda * sum p_j^2.
    """
    ps = [float(p) for p in p_list]
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise ValueError("entries must be probabilities in [0, 1]")
    lam = math.fsum(ps)
    s2 = math.fsum(p * p for p in ps)
    if lam == 0.0:
        return 0.0, 0.0
    lower = min(1.0, 1.0 / lam) / 32.0 * s2
    upper = -math.expm1(-lam) / lam * s2
    return lower, upper


def yannaros_bound(lambda1: float, lambda2: float) -> float:
    """d_TV(Poisson(l1), Poisson(l2)) <= min(|sqrt l1 - sqrt l2|, |l1 - l2|)."""
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("Poisson means must be nonnegative")
    return min(
        abs(math.sqrt(lambda1) - math.sqrt(lambda2)), abs(lambda1 - lambda2)
    )


@dataclass(frozen=True)
class PrelimSums:
    """The four Bernoulli moment sums behind every K_n bound."""

    sum_p: float
    sum_p2: float
    sum_q: float
    sum_q2: float


def prelim_sums(
    params: EsfParams, case_c_gap: bool | None = None
) -> tuple[PrelimSums, list[BoundReport]]:
    """Moment sums of p_j = theta/(theta+j-1) with their certified sandwiches.

    Reports: the four two-sided bounds on sum p, sum p^2, sum q, sum q^2,
    the gap of sum p to the Case-A centering theta*(log n - psi(theta)), and
    (only when n < theta, or on request) the gap to the Case-C expansion
    sum_j (theta/j)(n/theta)^j.

    Args:
        case_c_gap: None = include the Case-C gap iff n < theta; True with
            n >= theta raises (the expansion diverges there).
    """
    n, theta = params.n, params.theta
    ps = success_probs(n, theta)
    qs = failure_probs(n, theta)
    sums = PrelimSums(math.fsum(ps), math.fsum(ps * ps), math.fsum(qs), math.fsum(qs * qs))
    mu_a_log = theta * math.log1p(n / theta)
    reports = [
        make_report(
            "sum_p_gap",
            sums.sum_p - mu_a_log,
            lower=n / (2.0 * (theta + n)),
            upper=n / (theta + n),
            detail="sum p_j - theta*log(1+n/theta)",
        ),
        make_report(
            "sum_p2_gap",
            sums.sum_p2 - n * theta / (n + theta),
            lower=0.0,
            upper=1.0,
            detail="sum p_j^2 - n*theta/(n+theta)",
        ),
        make_report(
            "sum_q",
            sums.sum_q,
            lower=n * (n - 1.0) / (2.0 * (theta + n)),
            upper=n * (n - 1.0) / (2.0 * theta),
        ),
        make_report(
            "sum_q2",
            sums.sum_q2,
            lower=n * (n - 1.0) * (2.0 * n - 1.0) / (6.0 * (theta + n) ** 2),
            upper=n * (n - 1.0) * (2.0 * n - 1.0) / (6.0 * theta**2),
        ),
        make_report(
            "case_a_centering_gap",
            sums.sum_p - theta * (math.log(n) - digamma(theta)),
            detail="sum p_j - theta*(log n - psi(theta)); O(theta^2/n) in Case A",
        ),
    ]
    want_c = n < theta if case_c_gap is None else case_c_gap
    if want_c:
        if n >= theta:
            raise ValueError(
                f"Case-C expansion needs n < theta, got n={n}, theta={theta}"
            )
        expansion = math.fsum(
            theta / j * (n / theta) ** j for j in range(1, n + 1)
        )
        reports.append(
            make_report(
                "case_c_centering_gap",
                sums.sum_p - expansion,
                detail="sum p_j - sum_j (theta/j)(n/theta)^j; O(n^2/theta) in Case C",
            )
        )
    return sums, reports


@dataclass(frozen=True)
class PoissonTv:
    """Exact TV to a Poisson center plus the closed-form upper bound."""

    exact_tv: TvBound
    upper_bound: float
    lam: float
    center: str


def _pap1_bound(params: EsfParams) -> float:
    n, theta = params.n, params.theta
    return (n * theta + n + theta) / (
        theta * (n + theta) * math.log1p(n / theta) + n / 2.0
    )


def kn_poisson_tv(params: EsfParams, center: str = "exact_mean") -> PoissonTv:
    """TV between K_n and a Poisson at one of three centerings.

    exact_mean uses lambda = E[K_n] and the direct bound; the approximate
    centerings mu_A = theta*log(1+n/theta) and mu_a = theta*(log n -
    psi(theta)) add the Poisson-vs-Poisson triangle term to the bound.
    mu_a is a Case-A quantity and requires n > theta.
    """
    n, theta = params.n, params.theta
    lam_exact, _ = kn_mean_var(params)
    base = _pap1_bound(params)
    if center == "exact_mean":
        lam, upper = lam_exact, base
    elif center == "mu_A":
        lam = theta * math.log1p(n / theta)
        upper = base + yannaros_bound(lam_exact, lam)
    elif center == "mu_a":
        if n <= theta:
            raise ValueError(f"mu_a centering needs n > theta, got n={n} theta={theta}")
        lam = theta * (math.log(n) - digamma(theta))
        upper = base + yannaros_bound(lam_exact, lam)
    else:
        raise ValueError(f"unknown center {center!r}")
    exact = tv_discrete(kn_pmf(params), Pmf.poisson(lam))
    return PoissonTv(exact, upper, lam, center)


def nkn_poisson_tv(params: EsfParams) -> PoissonTv:
    """TV between n - K_n and Poisson(sum q_j) with its closed-form bound."""
    n, theta = params.n, params.theta
    lam = math.fsum(failure_probs(n, theta))
    upper = 2.0 * n * (n + theta) / (3.0 * theta**2) * -math.expm1(-n * n / (2.0 * theta))
    exact = tv_discrete(kn_pmf(params).reversed_about(n), Pmf.poisson(lam))
    return PoissonTv(exact, upper, lam, "exact_mean")


@dataclass(frozen=True)
class DbExact:
    """d_b(n) with the certified truncation slack of the a-sum."""

    value: float
    slack: float


def db_exact(params: EsfParams, b: int) -> DbExact:
    """TV between (C_1..C_b) and independent Poissons, by compound laws.

    d_b(n) = sum_{a>=0} P(T_{0b} = a) (1 - P(T_{bn} = n-a)/P(T_{0n} = n))^+.
    Terms with a > n have the ratio identically zero, so they sum to
    P(T_{0b} > n) exactly; that mass is folded in via the complement, which
    makes the truncation slack zero up to float rounding.
    """
    n, theta = params.n, params.theta
    if b != int(b) or not 1 <= b < n:
        raise ValueError(f"b must be in 1..{n - 1}, got {b!r}")
    b = int(b)
    lt0b = _tlm_log(theta, 0, b, n)
    ltbn = _tlm_log(theta, b, n, n)
    lp0n = t0n_log(params)
    with np.errstate(over="ignore"):
        ratio = np.exp(ltbn[::-1] - lp0n)
    deficit = np.clip(1.0 - ratio, 0.0, None)
    head = float(np.exp(lt0b) @ deficit)
    tail = max(0.0, -math.expm1(float(logsumexp(lt0b))))
    return DbExact(head + tail, 0.0)


def _ld_rate(theta: float, w: float) -> float:
    """log of the Chernoff bound on P(T_{0b} >= b*w): w*log(theta*e/w)."""
    return w * math.log(theta * math.e / w)


def _ld_quantile(theta: float, b: int, log_eps: float) -> int:
    """Smallest convenient M with certified P(T_{0b} > M) <= exp(log_eps)."""
    lo = theta * math.e
    hi = max(2.0 * lo, 4.0)
    while _ld_rate(theta, hi) > log_eps:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _ld_rate(theta, mid) > log_eps:
            lo = mid
        else:
            hi = mid
    return int(math.ceil(b * hi)) + 1


def e_abs_t0b(theta: float, b: int) -> float:
    """E|T_{0b} - theta*b| computed from the exact law of T_{0b}.

    The law is evaluated out past the 1e-16 large-deviation quantile, which
    leaves the neglected tail contribution far below 1e-12.
    """
    if b != int(b) or b < 0:
        raise ValueError(f"b must be a nonnegative integer, got {b!r}")
    b = int(b)
    if b == 0:
        return 0.0
    m_cut = _ld_quantile(theta, b, math.log(1e-16))
    m_cut = max(m_cut, int(math.ceil(theta * b + 10.0 * math.sqrt(theta * b) + 20.0)))
    lp = _tlm_log(theta, 0, b, m_cut)
    a = np.arange(m_cut + 1, dtype=np.float64)
    return float(np.exp(lp) @ np.abs(a - theta * b))


def db_leading_term(params: EsfParams, b: int) -> float:
    """Leading term (theta-1)/(2n) * E|T_{0b} - theta*b| of d_b(n).

    Requires theta >= 1 (hypothesis of the expansion); exactly 0 at theta=1.
    """
    n, theta = params.n, params.theta
    if theta < 1.0:
        raise ValueError(f"leading term requires theta >= 1, got {theta}")
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    return (theta - 1.0) / (2.0 * n) * e_abs_t0b(theta, int(b))


def dbw_bounds(
    params: EsfParams, b: int, with_wb1: bool | None = None
) -> list[BoundReport]:
    """Closed-form bounds around the prefix TV and Wasserstein distances.

    Emits the TV upper bound, the general Wasserstein upper bound, the
    theta>=1 Wasserstein sandwich, the uniform-in-b budget minimized over
    its two prescribed splits, the asymptotic rate theta^2 b/n (diagnostic,
    not a bound), and the order-only lower bound b/n whose constant is not
    computable.
    """
    n, theta = params.n, params.theta
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    b = int(b)
    reports = [
        make_report(
            "db_tv_upper",
            b * theta / (theta + n) * (theta + n / (theta + n - b)),
            detail="upper bound on d_b(n)",
        ),
        make_report(
            "dbw_upper",
            b * theta / (theta + n - b) * (theta + n / (theta + n)),
            detail="upper bound on d_b^W(n), any theta",
        ),
    ]
    want_wb1 = theta >= 1.0 if with_wb1 is None else with_wb1
    if want_wb1:
        if theta < 1.0:
            raise ValueError(f"wb1 sandwich requires theta >= 1, got {theta}")
        reports.append(
            make_report(
                "dbw_lower_wb1",
                theta
                * (theta - 1.0)
                * b
                / (theta + n - 1.0)
                * (1.0 - (theta - 1.0) * (b + 1.0) / (4.0 * (theta + n - 1.0))),
                detail="lower bound on d_b^W(n), theta >= 1",
            )
        )
        reports.append(
            make_report(
                "dbw_upper_wb1",
                b * theta * (theta + 1.0) / (theta + n),
                detail="upper bound on d_b^W(n), theta >= 1",
            )
        )
    splits = {max(1, int(n // theta)), max(1, n // 2)}
    budgets = {
        bp: bp * theta * (theta + 1.0) / (theta + n - bp)
        + 1.0
        + 2.0 * theta * math.log(n / bp)
        for bp in splits
    }
    best = min(budgets, key=budgets.get)
    reports.append(
        make_report(
            "dnw_budget",
            budgets[best],
            detail=f"uniform d_n^W budget, split b'={best}",
        )
    )
    reports.append(
        make_report(
            "dbw_rate",
            theta * theta * b / n,
            detail="asymptotic rate theta^2 b/n (diagnostic, not a bound)",
        )
    )
    reports.append(
        make_report(
            "db_lower_order",
            b / n,
            detail="order of the TV lower bound; constant c3(theta) not computable",
        )
    )
    return reports


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    estimate: float
    se: float
    replicates: int
    bias_bound: float = 0.0


def dbw_mc(
    params: EsfParams,
    b: int,
    replicates: int,
    rng: RngState,
    tail_bound: float = 1e-4,
) -> McEstimate:
    """Feller-coupling estimate of sum_{j<=b} E|C_j^n - Z_j|.

    An upper-bound estimator for the prefix Wasserstein distance; the
    per-sample extension residual gives the certified bias bound.
    """
    n = params.n
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    b = int(b)
    total = 0
    total_sq = 0
    residual = 0.0
    for i in range(replicates):
        s = sample_feller(params, rng.substream(i), b_max=b, tail_bound=tail_bound)
        x = int(np.abs(s.c_n.counts[:b] - s.c_inf[:b]).sum())
        total += x
        total_sq += x * x
        residual = s.residual
    mean = total / replicates
    var = (total_sq - replicates * mean * mean) / (replicates - 1)
    return McEstimate(mean, math.sqrt(max(var, 0.0) / replicates), replicates, residual)


@dataclass(frozen=True)
class LdTail:
    """Chernoff bound and certified exact value of log P(T_{0b} >= b*w)."""

    bound_log: float
    exact_log: float


def ld_tail_bound(theta: float, b: int, w: float) -> LdTail:
    """Large-deviation tail of T_{0b}: bound w*log(theta*e/w) vs exact."""
    if b != int(b) or b < 1:
        raise ValueError(f"b must be a positive integer, got {b!r}")
    if not w > 0.0:
        raise ValueError(f"w must be positive, got {w!r}")
    b = int(b)
    bound = _ld_rate(theta, w)
    a0 = int(math.ceil(b * w - 1e-9))
    m_cut = max(
        2 * a0 + 20,
        _ld_quantile(theta, b, min(math.log(1e-20), 3.0 * bound)),
        int(math.ceil(theta * b + 10.0 * math.sqrt(theta * b) + 20.0)),
    )
    lp = _tlm_log(theta, 0, b, m_cut)
    inside = float(logsumexp(lp[a0:])) if a0 <= m_cut else -math.inf
    remainder = _ld_rate(theta, (m_cut + 1) / b)
    exact = float(np.logaddexp(inside, remainder))
    return LdTail(bound, exact)


def _a1_residual(n: int, theta: float) -> float:
    """Normalized residual of the rising-factorial expansion.

    R = Gamma(theta)(theta)_n/n! - n^(theta-1)(1 + theta(theta-1)/(2n)),
    normalized by n^(theta-3) * theta^4. Exact rational arithmetic when
    theta is integral, lgamma differences otherwise.
    """
    if float(theta).is_integer() and theta >= 1:
        t = int(theta)
        exact = Fraction(1)
        for i in range(1, t):
            exact *= n + i
        approx = Fraction(n) ** (t - 1) * (1 + Fraction(t * (t - 1), 2 * n))
        residual = exact - approx
        scale = Fraction(n) ** (t - 1) / n**2 * t**4
        return abs(float(residual / scale))
    lead = math.exp(
        math.lgamma(theta) + log_rising_factorial(theta, n) - math.lgamma(n + 1)
    )
    approx = n ** (theta - 1.0) * (1.0 + theta * (theta - 1.0) / (2.0 * n))
    return abs(lead - approx) * n**2 / (n ** (theta - 1.0) * theta**4)


def appendix_checks(
    a1_grid: Sequence[tuple[int, float]] = tuple(
        (n, th) for n in (10**3, 10**4, 10**5) for th in (2.0, 5.0, 10.0)
    ),
    a2_bases: Sequence[float] = (1.1, 2.0, 5.0),
    a2_max_b: int = 50,
    a3_grid: Sequence[tuple[float, int]] = ((0.5, 2), (1.0, 3), (2.0, 5), (5.0, 4)),
    jn_grid: Sequence[tuple[int, float]] = ((10**4, 2.0), (10**6, 5.0)),
) -> list[BoundReport]:
    """Inequality checks for the auxiliary expansions.

    Covers: the rising-factorial residual (normalized values stay below a
    single pinned constant), the partial-sum bound sum_{j<=b} a^j/j <=
    log b + a^b for a > 1, monotonicity of (x-a)_b/(x)_b in x, and the
    min(b*theta*log n, b^(2/3)(theta n)^(1/3)) branch switch.
    """
    reports = []
    for n, th in a1_grid:
        reports.append(
            make_report(
                f"a1_residual_n{n}_theta{th:g}",
                _a1_residual(n, th),
                upper=0.5,
                detail="|R| n^2 / (n^(theta-1) theta^4)",
            )
        )
    for a in a2_bases:
        if a <= 1.0:
            raise ValueError(f"a2 bases must exceed 1, got {a}")
        worst = -math.inf
        for bb in range(1, a2_max_b + 1):
            lhs = math.fsum(a**j / j for j in range(1, bb + 1))
            rhs = math.log(bb) + a**bb
            worst = max(worst, lhs - rhs)
        reports.append(
            make_report(
                f"a2_partial_sum_a{a:g}",
                worst,
                upper=0.0,
                detail=f"max over b<={a2_max_b} of sum a^j/j - (log b + a^b)",
            )
        )
    for a, bb in a3_grid:
        xs = [a + 0.1 * 1.35**i for i in range(30)]
        vals = []
        for x in xs:
            r = 1.0
            for i in range(bb):
                r *= (x - a + i) / (x + i)
            vals.append(r)
        min_step = min(v2 - v1 for v1, v2 in zip(vals, vals[1:]))
        reports.append(
            make_report(
                f"a3_monotone_a{a:g}_b{bb}",
                min_step,
                lower=0.0,
                detail="min increment of (x-a)_b/(x)_b over increasing x",
            )
        )
    for n, th in jn_grid:
        b_star = n / (th**2 * math.log(n) ** 3)
        if b_star < 1.0:
            continue
        worst = -math.inf
        bs = sorted({int(round(b_star * f)) for f in (0.1, 0.25, 0.5, 0.75, 1.0)})
        for bb in bs:
            if bb < 1:
                continue
            worst = max(
                worst, bb * th * math.log(n) - bb ** (2.0 / 3.0) * (th * n) ** (1.0 / 3.0)
            )
        reports.append(
            make_report(
                f"jn_switch_n{n}_theta{th:g}",
                worst,
                upper=0.0,
                detail="linear branch must win up to b* = n/(theta^2 log^3 n)",
            )
        )
    return reports
