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
from scipy.special import digamma, lambertw

from .laws import (
    EsfParams,
    Pmf,
    _logsumexp,
    conditioning_log_ratio,
    failure_probs,
    kn_mean_var,
    kn_pmf,
    success_probs,
    tlm_logpmf,
    tlm_pmf,
)
from .sampling import RngState, sample_feller
from .special import harmonic_number, log1p_ratio


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
    # a bounded value that is not finite (an overflow) satisfies no bound
    ok = math.isfinite(value) or (lower is None and upper is None)
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


def prelim_sums(params: EsfParams) -> tuple[PrelimSums, list[BoundReport]]:
    """Moment sums of p_j = theta/(theta+j-1) with their certified sandwiches.

    Reports: the four two-sided bounds on sum p, sum p^2, sum q, sum q^2,
    the gap of sum p to the Case-A centering theta*(log n - psi(theta)), and
    (only when n < theta; the expansion diverges otherwise) the gap to the
    Case-C expansion sum_j (theta/j)(n/theta)^j.
    """
    n, theta = params.n, params.theta
    ps = success_probs(n, theta)
    qs = failure_probs(n, theta)
    sums = PrelimSums(math.fsum(ps), math.fsum(ps * ps), math.fsum(qs), math.fsum(qs * qs))
    reports = [
        make_report(
            "sum_p_gap",
            sums.sum_p - theta * log1p_ratio(n, theta),
            lower=n / (2.0 * (theta + n)),
            upper=n / (theta + n),
            detail="sum p_j - theta*log(1+n/theta)",
        ),
        make_report(
            "sum_p2_gap",
            sums.sum_p2 - n / (1.0 + n / theta),
            lower=0.0,
            upper=1.0,
            detail="sum p_j^2 - n*theta/(n+theta)",
        ),
        make_report(
            "sum_q",
            sums.sum_q,
            lower=n * (n - 1.0) / (2.0 * (theta + n)),
            upper=n * (n - 1.0) / theta / 2.0,
        ),
        make_report(
            "sum_q2",
            sums.sum_q2,
            lower=n / (theta + n) * ((n - 1.0) / (theta + n)) * (2.0 * n - 1.0) / 6.0,
            upper=n / theta * ((n - 1.0) / theta) * (2.0 * n - 1.0) / 6.0,
        ),
        make_report(
            "case_a_centering_gap",
            sums.sum_p - theta * (math.log(n) - float(digamma(theta))),
            detail="sum p_j - theta*(log n - psi(theta)); O(theta^2/n) in Case A",
        ),
    ]
    if n < theta:
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
    """(n theta + n + theta) / (theta (n + theta) log(1 + n/theta) + n/2).

    Above theta = 1 both sides are divided by theta, so theta (n + theta)
    cannot overflow.
    """
    n, theta = params.n, params.theta
    log_term = log1p_ratio(n, theta)
    if theta > 1.0:
        return (n + 1.0 + n / theta) / ((n + theta) * log_term + n / (2.0 * theta))
    return (n * theta + n + theta) / (theta * (n + theta) * log_term + n / 2.0)


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
        lam = theta * log1p_ratio(n, theta)
        upper = base + yannaros_bound(lam_exact, lam)
    elif center == "mu_a":
        if n <= theta:
            raise ValueError(f"mu_a centering needs n > theta, got n={n} theta={theta}")
        lam = theta * (math.log(n) - float(digamma(theta)))
        upper = base + yannaros_bound(lam_exact, lam)
    else:
        raise ValueError(f"unknown center {center!r}")
    exact = tv_discrete(kn_pmf(params), Pmf.poisson(lam))
    return PoissonTv(exact, upper, lam, center)


def nkn_poisson_tv(params: EsfParams) -> PoissonTv:
    """TV between n - K_n and Poisson(sum q_j) with its closed-form bound."""
    n, theta = params.n, params.theta
    lam = math.fsum(failure_probs(n, theta))
    upper = 2.0 * (n / theta) * ((n + theta) / theta) / 3.0 * -math.expm1(-n / theta * n / 2.0)
    exact = tv_discrete(kn_pmf(params).reversed_about(n), Pmf.poisson(lam))
    return PoissonTv(exact, upper, lam, "exact_mean")


@dataclass(frozen=True)
class DbExact:
    """d_b(n), which lies in [value, value + slack]."""

    value: float
    slack: float


_DB_EPS = 1e-300


def db_exact(params: EsfParams, b: int) -> DbExact:
    """TV between (C_1..C_b) and independent Poissons, by compound laws.

    d_b(n) = sum_{a>=0} P(T_{0b} = a) (1 - P(T_{bn} = n-a)/P(T_{0n} = n))^+,
    whose log ratio is `conditioning_log_ratio` plus theta H_b. Term a lies
    in [0, P(T_{0b} = a)], so the sum stops at the T_0b window M at _DB_EPS,
    and the certified P(T_{0b} > M) <= _DB_EPS is the slack. Where M reaches
    n, the terms a > n (ratio zero) sum to the tail mass of `tlm_pmf`'s
    window 0..n, and the slack is zero up to float rounding.
    """
    n, theta = params.n, params.theta
    if b != int(b) or not 1 <= b < n:
        raise ValueError(f"b must be in 1..{n - 1}, got {b!r}")
    b = int(b)
    m = _t0b_window(theta, b, math.log(_DB_EPS), limit=n)
    t0b = tlm_pmf(theta, 0, b, m)
    with np.errstate(over="ignore"):
        ratio = np.exp(conditioning_log_ratio(theta, b, n)[: m + 1] + theta * harmonic_number(b))
    deficit = np.clip(1.0 - ratio, 0.0, None)
    if m == n:
        return DbExact(float(t0b.probs @ deficit) + t0b.tail_mass, 0.0)
    return DbExact(float(t0b.probs @ deficit), _DB_EPS)


def _ld_rate(theta: float, w: float) -> float:
    """log of the Chernoff bound on P(T_{0b} >= b*w): w*log(theta*e/w)."""
    return w * math.log(theta * math.e / w)


# The largest window 0..M of a T_0b law, and the largest M*b, that
# `_t0b_window` accepts. The recursion takes about 60 bytes and 1 us per
# value plus 10 ns per value and term beyond b: at most about 7 s and 120 MB
# on a 2-vCPU Xeon VM.
_T0B_MAX_WINDOW = 2_000_000
_T0B_MAX_CELLS = 500_000_000


def _t0b_window(theta: float, b: int, log_eps: float, *cuts: int, limit: int | None = None) -> int:
    """The largest of cuts, theta*b + 10 sd + b + 20 and a quantile M, within the caps.

    A window of limit values or more is cut to limit and never refused. The
    floor keeps every single jump 1..b, which E|T_0b - theta b| is made of
    at tiny theta. M = b theta x has log P(T_{0b} > M) <= log_eps by the
    Chernoff bound log P(T_{0b} >= b w) <= `_ld_rate`(theta, w) - theta,
    w >= theta (convexity gives (e^{sj} - 1)/j <= (e^{sb} - 1)/b; the paper
    drops the -theta). With c = -log_eps/theta, x (log x - 1) = c - 1 at
    x = e^{1 + W_0((c - 1)/e)}; c >= 1e-15 keeps (c - 1)/e above the branch
    point -1/e and only widens the window.
    """
    c = max(-log_eps / theta, 1e-15)
    x = math.exp(1.0 + lambertw((c - 1.0) / math.e).real)
    floor = theta * b + 10.0 * math.sqrt(theta * b) + b + 20.0
    m_cut = max((int(math.ceil(max(b * theta * x + 1.0, floor))), *cuts))
    if limit is not None and m_cut >= limit:
        return limit
    if m_cut > _T0B_MAX_WINDOW or m_cut * b > _T0B_MAX_CELLS:
        raise ValueError(
            f"the law of T_0b at theta={theta:g}, b={b} needs a window of {m_cut} values; "
            f"at most {_T0B_MAX_WINDOW} values and {_T0B_MAX_CELLS} values times b are supported"
        )
    return m_cut


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
    law = tlm_pmf(theta, 0, b, _t0b_window(theta, b, math.log(1e-16)))
    return float(law.probs @ np.abs(law.support() - theta * b))


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


def dbw_bounds(params: EsfParams, b: int) -> list[BoundReport]:
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
    if theta >= 1.0:
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


def dbw_mc(params: EsfParams, b: int, replicates: int, rng: RngState) -> McEstimate:
    """Feller-coupling estimate of sum_{j<=b} E|C_j^n - Z_j|.

    An upper-bound estimator for the prefix Wasserstein distance; the
    per-sample extension residual gives the certified bias bound. The
    replicates are `sample_feller` draws read in order from the one stream
    `rng.generator()`, so a longer run extends a shorter one.
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
    gen = rng.generator()
    for _ in range(replicates):
        s = sample_feller(params, gen, b_max=b)
        x = int(np.abs(s.c_n.prefix(b) - s.c_inf).sum())
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
    log_eps = min(math.log(1e-20), 3.0 * bound)
    # the window need only reach a0; where its Chernoff remainder is not
    # below 1e-16 of the mass inside (a0 near or past the quantile), it
    # reaches 2 a0 + 20
    for cut in (a0 + 1, 2 * a0 + 20):
        m_cut = _t0b_window(theta, b, log_eps, cut)
        inside = _logsumexp(tlm_logpmf(theta, 0, b, m_cut)[a0:])
        remainder = _ld_rate(theta, (m_cut + 1) / b) - theta
        if remainder < inside + math.log(1e-16):
            break
    return LdTail(bound, float(np.logaddexp(inside, remainder)))


def _a1_residual(n: int, t: int) -> float:
    """Normalized residual of the rising-factorial expansion, integer theta = t >= 1.

    R = Gamma(t)(t)_n/n! - n^(t-1)(1 + t(t-1)/(2n)), normalized by
    n^(t-3) * t^4, in exact rational arithmetic: Gamma(t)(t)_n/n! is
    (n+1)...(n+t-1).
    """
    exact = Fraction(1)
    for i in range(1, t):
        exact *= n + i
    approx = Fraction(n) ** (t - 1) * (1 + Fraction(t * (t - 1), 2 * n))
    scale = Fraction(n) ** (t - 1) / n**2 * t**4
    return abs(float((exact - approx) / scale))


# The fixed parameter grids of `appendix_checks`
_A1_GRID = tuple((n, th) for n in (10**3, 10**4, 10**5) for th in (2, 5, 10))
_A2_BASES = (1.1, 2.0, 5.0)
_A2_MAX_B = 50
_A3_GRID = ((0.5, 2), (1.0, 3), (2.0, 5), (5.0, 4))
_JN_GRID = ((10**4, 2.0), (10**6, 5.0))


def appendix_checks() -> list[BoundReport]:
    """Inequality checks for the auxiliary expansions.

    Covers: the rising-factorial residual (normalized values stay below a
    single pinned constant), the partial-sum bound sum_{j<=b} a^j/j <=
    log b + a^b for a > 1, monotonicity of (x-a)_b/(x)_b in x, and the
    min(b*theta*log n, b^(2/3)(theta n)^(1/3)) branch switch.
    """
    reports = []
    for n, th in _A1_GRID:
        reports.append(
            make_report(
                f"a1_residual_n{n}_theta{th:g}",
                _a1_residual(n, th),
                upper=0.5,
                detail="|R| n^2 / (n^(theta-1) theta^4)",
            )
        )
    for a in _A2_BASES:
        worst = -math.inf
        for bb in range(1, _A2_MAX_B + 1):
            lhs = math.fsum(a**j / j for j in range(1, bb + 1))
            rhs = math.log(bb) + a**bb
            worst = max(worst, lhs - rhs)
        reports.append(
            make_report(
                f"a2_partial_sum_a{a:g}",
                worst,
                upper=0.0,
                detail=f"max over b<={_A2_MAX_B} of sum a^j/j - (log b + a^b)",
            )
        )
    for a, bb in _A3_GRID:
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
    for n, th in _JN_GRID:
        b_star = n / (th**2 * math.log(n) ** 3)
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
