"""Enumeration oracles: small-n ground truth the fast paths are tested against.

Everything here enumerates partitions outright (p(16) = 231, so tiny), or
reads exact big-integer Stirling numbers, and sums in plain doubles with
fsum compensation. Deliberately naive; no shared code with the scalable
routines beyond the partition law, P(C^n = a) = n!/(theta)_n
prod_j (theta/j)^{c_j} / c_j!, which `enumerate_esf` evaluates inline with
one normaliser log Q_0n(n) per table and the operations of `laws.esf_pmf`
in its order, so each probability is bit-identical to `esf_pmf`'s. A
`PartitionTable` answers every question asked of one (n, theta), the
prefix laws and the prefix distance d_b(n) included, so a caller that
needs several b enumerates once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laws import EsfParams, Partition, Pmf, log_q_ratio, partitions_of

_ENUM_CAP = 16
_DB_CAP = 12
# Largest n for which unsigned Stirling numbers of the first kind are tabled.
# Rows are big integers; 500 rows take about 70 ms and 28 MB to build.
STIRLING_CAP = 500

_stirling_rows: list[list[int]] = [[1]]


@dataclass
class PartitionTable:
    """Exhaustive listing of one EsfParams' partition law.

    `counts[i]` is the i-th cycle-count vector of `laws.partitions_of(n)`
    and `probs[i]` its probability.
    """

    params: EsfParams
    counts: list[tuple[int, ...]]
    probs: list[float]

    def __post_init__(self) -> None:
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"partition table mass {total} differs from 1 beyond 1e-12")

    @property
    def entries(self) -> list[tuple[Partition, float]]:
        """(partition, probability) pairs, built on each read."""
        return [(Partition(c), p) for c, p in zip(self.counts, self.probs)]

    def prefix_law(self, b: int) -> dict[tuple[int, ...], float]:
        """Exact law of (C_1^n, ..., C_b^n), by marginalizing the table."""
        n = self.params.n
        if b != int(b) or not 1 <= b <= n:
            raise ValueError(f"b must be in 1..{n}, got {b!r}")
        b = int(b)
        buckets: dict[tuple[int, ...], list[float]] = {}
        for c, p in zip(self.counts, self.probs):
            buckets.setdefault(c[:b], []).append(p)
        return {prefix: math.fsum(ps) for prefix, ps in sorted(buckets.items())}

    def poisson_tv(self, b: int) -> float:
        """Total variation distance between (C_1..C_b) and independent Poissons.

        The independent side has mean theta/j in coordinate j. Off the
        partition-prefix support the absolute difference is just the Poisson
        mass, and that total equals 1 minus the Poisson mass *on* the prefix
        support, so the TV is exact with no product-space enumeration:

            d_b(n) = 1/2 [ sum_{a in supp C} |P_C(a) - P_Z(a)|
                           + 1 - sum_{a in supp C} P_Z(a) ].
        """
        theta = self.params.theta
        diffs = []
        z_on_support = []
        for prefix, pc in self.prefix_law(b).items():
            log_pz = math.fsum(
                a * (math.log(theta) - math.log(j)) - theta / j - math.lgamma(a + 1)
                for j, a in enumerate(prefix, start=1)
            )
            pz = math.exp(log_pz)
            diffs.append(abs(pc - pz))
            z_on_support.append(pz)
        return 0.5 * (math.fsum(diffs) + 1.0 - math.fsum(z_on_support))

    def tilt_deviation(self, x: float) -> float:
        """Max abs deviation between the ESF law and the x-tilted conditional law.

        Conditioning independent Poissons with means (theta/j) x^j on
        sum_j j Z_j = n must reproduce the ESF for every tilt x > 0.
        """
        if not math.isfinite(x) or x <= 0.0:
            raise ValueError(f"x must be positive and finite, got {x!r}")
        lx = math.log(x)
        lt = math.log(self.params.theta)
        log_weights = [
            math.fsum(cj * (lt - math.log(j) + j * lx) - math.lgamma(cj + 1) for j, cj in enumerate(c, start=1))
            for c in self.counts
        ]
        top = max(log_weights)
        total = math.fsum(math.exp(lw - top) for lw in log_weights)
        return max(abs(math.exp(lw - top) / total - p) for lw, p in zip(log_weights, self.probs))


def enumerate_esf(params: EsfParams) -> PartitionTable:
    """All partitions of n with their ESF probabilities (n <= 16)."""
    n, theta = params.n, params.theta
    if n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at n <= {_ENUM_CAP}, got {n}")
    counts = partitions_of(n)
    log_norm = -log_q_ratio(theta, 0, n)
    lt = math.log(theta)
    # the terms of `esf_pmf`, each computed once per table
    per_size = [0.0] + [lt - math.log(j) for j in range(1, n + 1)]
    lgam = [math.lgamma(c + 1) for c in range(n + 1)]
    probs = []
    for c in counts:
        logp = log_norm
        for j, cj in enumerate(c, start=1):
            if cj:
                logp += cj * per_size[j] - lgam[cj]
        probs.append(math.exp(logp))
    return PartitionTable(params, counts, probs)


def stirling_first_row(n: int) -> list[int]:
    """Row [s(n,0), ..., s(n,n)] of unsigned Stirling numbers, first kind.

    Computed once per n via s(n+1,k) = s(n,k-1) + n*s(n,k) in exact integer
    arithmetic and memoized module-wide.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n > STIRLING_CAP:
        raise ValueError(f"n = {n} exceeds the Stirling table cap {STIRLING_CAP}")
    while len(_stirling_rows) <= n:
        m = len(_stirling_rows) - 1
        prev = _stirling_rows[m]
        row = [0] * (m + 2)
        for k in range(1, m + 2):
            above = prev[k] if k <= m else 0
            row[k] = prev[k - 1] + m * above
        _stirling_rows.append(row)
    return _stirling_rows[n]


def kn_stirling_pmf(params: EsfParams) -> Pmf:
    """P(K_n = k) = s(n,k) theta^k / (theta)_n on {1..n}, n <= STIRLING_CAP.

    The exact Stirling integers go straight to `math.log`, and
    log (theta)_n is an fsum of log(theta + i). The sum
    log s(n,k) + k log theta - log (theta)_n cancels at large theta, to
    about 4e-12 relative at (500, 1e15), so this oracle is checked in
    absolute terms; `laws.kn_pmf` is the accurate route.
    """
    n, theta = params.n, params.theta
    row = stirling_first_row(n)
    lrf = math.fsum(math.log(theta + i) for i in range(n))
    lt = math.log(theta)
    return Pmf(1, [math.exp(math.log(row[k]) + k * lt - lrf) for k in range(1, n + 1)], 0.0)


def joint_prefix_law(params: EsfParams, b: int) -> dict[tuple[int, ...], float]:
    """Exact law of (C_1^n, ..., C_b^n): `PartitionTable.prefix_law` of the full table."""
    return enumerate_esf(params).prefix_law(b)


def db_bruteforce(params: EsfParams, b: int) -> float:
    """d_b(n) by enumeration (n <= 12): `PartitionTable.poisson_tv` of the full table."""
    if params.n > _DB_CAP:
        raise ValueError(f"brute-force distance capped at n <= {_DB_CAP}, got {params.n}")
    return enumerate_esf(params).poisson_tv(b)


def tilted_conditioning_check(params: EsfParams, x: float) -> float:
    """`PartitionTable.tilt_deviation(x)` of the full table, n <= 10."""
    if params.n > 10:
        raise ValueError(f"enumeration check capped at n <= 10, got {params.n}")
    return enumerate_esf(params).tilt_deviation(x)
