"""Enumeration oracles: small-n ground truth the fast paths are tested against.

Everything here enumerates partitions outright (p(16) = 231, so tiny) and
sums in plain doubles with fsum compensation. Deliberately naive; no shared
code with the scalable routines beyond the pmf formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laws import EsfParams, Partition, esf_pmf, partitions_of

_ENUM_CAP = 16
_DB_CAP = 12


@dataclass
class PartitionTable:
    """Exhaustive (partition, probability) listing for one EsfParams."""

    params: EsfParams
    entries: list[tuple[Partition, float]]

    def __post_init__(self) -> None:
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"partition table mass {total} differs from 1 beyond 1e-12")

    def prob(self, counts: tuple[int, ...]) -> float:
        for part, p in self.entries:
            if part.as_tuple() == counts:
                return p
        return 0.0


def enumerate_esf(params: EsfParams) -> PartitionTable:
    """All partitions of n with their ESF probabilities (n <= 16)."""
    if params.n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at n <= {_ENUM_CAP}, got {params.n}")
    entries = [
        (Partition(counts), esf_pmf(params, Partition(counts)))
        for counts in partitions_of(params.n)
    ]
    return PartitionTable(params, entries)


def joint_prefix_law(params: EsfParams, b: int) -> dict[tuple[int, ...], float]:
    """Exact law of (C_1^n, ..., C_b^n) by marginalizing the full table."""
    n = params.n
    if b != int(b) or not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b!r}")
    b = int(b)
    table = enumerate_esf(params)
    buckets: dict[tuple[int, ...], list[float]] = {}
    for part, p in table.entries:
        prefix = part.as_tuple()[:b]
        buckets.setdefault(prefix, []).append(p)
    return {prefix: math.fsum(ps) for prefix, ps in sorted(buckets.items())}


def db_bruteforce(params: EsfParams, b: int) -> float:
    """Total variation distance between (C_1..C_b) and independent Poissons.

    The independent side has mean theta/j in coordinate j. Off the
    partition-prefix support the absolute difference is just the Poisson
    mass, and that total equals 1 minus the Poisson mass *on* the prefix
    support, so the TV is exact with no product-space enumeration:

        d_b(n) = 1/2 [ sum_{a in supp C} |P_C(a) - P_Z(a)|
                       + 1 - sum_{a in supp C} P_Z(a) ].
    """
    n, theta = params.n, params.theta
    if params.n > _DB_CAP:
        raise ValueError(f"brute-force distance capped at n <= {_DB_CAP}, got {n}")
    law_c = joint_prefix_law(params, b)
    diffs = []
    z_on_support = []
    for prefix, pc in law_c.items():
        log_pz = math.fsum(
            a * (math.log(theta) - math.log(j)) - theta / j - math.lgamma(a + 1)
            for j, a in enumerate(prefix, start=1)
        )
        pz = math.exp(log_pz)
        diffs.append(abs(pc - pz))
        z_on_support.append(pz)
    return 0.5 * (math.fsum(diffs) + 1.0 - math.fsum(z_on_support))
