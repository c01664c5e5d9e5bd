"""Cycle-count empirical processes X1-X5 and their Brownian references.

A sampled path jumps only at the K_n distinct cycle sizes, so every
functional costs O(K_n) per path. X1 and X3-X5 are piecewise algebraic in
u between jumps: sups come from endpoint evaluation (each branch is
monotone in u) and L2 norms from closed-form antiderivatives. X2 lives on
the grid j = 1..n; on a run of j with constant count S, (S - theta H_j) /
sqrt(theta H_j) is monotone in j, so its sup comes from run endpoints, and
with w_j = log(1 + 1/j) its L2 sum over a run is S^2/theta (A_b - A_{a-1})
- 2 S log((b+1)/a) + theta (C_b - C_{a-1}) from the prefix sums
A_j = sum_{i<=j} w_i/H_i and C_j = sum_{i<=j} w_i H_i. H, A and C sit in
one grow-only table of max n entries, built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .laws import EsfParams, Partition
from .sampling import RngState, sample_feller

_PROCESSES = ("X1", "X2", "X3", "X4", "X5")
DEFAULT_EPS = 0.01
MIN_REPLICATES = 10**3  # mc_functionals
MIN_REF_REPLICATES = 100  # reference_functionals
MIN_GRID_M = 2**10  # reference_functionals


@dataclass(frozen=True)
class StepPath:
    """Right-continuous step path u -> S(u) = sum of cycle counts j <= n^u.

    sizes holds the distinct cycle sizes j present and jump_u their
    log j / log n; cum_counts the cumulative count at each jump; k_total the
    final block count. Only `build_path` makes one, from a valid `Partition`.
    """

    n: int
    jump_u: np.ndarray
    cum_counts: np.ndarray
    k_total: int
    sizes: np.ndarray

    def value_at(self, u: float) -> int:
        """S(u): cumulative count at the largest jump <= u."""
        i = int(np.searchsorted(self.jump_u, u, side="right")) - 1
        return int(self.cum_counts[i]) if i >= 0 else 0


def build_path(a: Partition) -> StepPath:
    """Step representation of u -> sum_{j <= n^u} c_j for a partition."""
    n = a.n
    if n < 2:
        raise ValueError("paths need n >= 2 (log n vanishes at n = 1)")
    cum = np.cumsum(a.mults)
    # np.log on both sides, so a cycle of size n sits at u = 1 exactly
    return StepPath(n, np.log(a.sizes) / np.log(n), cum, int(cum[-1]), a.sizes)


class _HarmonicTable:
    """Grow-only prefix sums over j = 0..size, each 0 at j = 0.

    h[j] = H_j is the float64 sequential cumsum of 1/i; a[j] = sum w_i/H_i
    and c[j] = sum w_i H_i with w_i = log(1 + 1/i) accumulate in long
    double, since the X2 L2 sum takes differences of them (where long
    double is plain double, as with MSVC or on Apple arm64, that sum loses
    about 1e-11 relative at n = 1e6). The table grows in aligned chunks, so
    temporaries stay one chunk long; each chunk's cumsum starts from the
    previous chunk's last entry, so an entry does not depend on how far the
    table has grown.
    """

    CHUNK = 1 << 15

    def __init__(self) -> None:
        self.h = np.zeros(1)
        self.a = np.zeros(1, dtype=np.longdouble)
        self.c = np.zeros(1, dtype=np.longdouble)

    def upto(self, n: int) -> _HarmonicTable:
        have = self.h.size - 1
        if n <= have:
            return self
        size = -(-n // self.CHUNK) * self.CHUNK
        h = np.empty(size + 1)
        a = np.empty(size + 1, dtype=np.longdouble)
        c = np.empty(size + 1, dtype=np.longdouble)
        h[: have + 1], a[: have + 1], c[: have + 1] = self.h, self.a, self.c
        for lo in range(have, size, self.CHUNK):
            hi = lo + self.CHUNK + 1
            j = np.arange(lo + 1, hi)
            h[lo + 1 : hi] = 1.0 / j
            np.cumsum(h[lo:hi], out=h[lo:hi])
            w = np.log1p(1.0 / j.astype(np.longdouble))
            hj = h[lo + 1 : hi].astype(np.longdouble)
            a[lo + 1 : hi] = w / hj
            c[lo + 1 : hi] = w * hj
            np.cumsum(a[lo:hi], out=a[lo:hi])
            np.cumsum(c[lo:hi], out=c[lo:hi])
        self.h, self.a, self.c = h, a, c
        return self


_TABLE = _HarmonicTable()


def _intervals(path: StepPath) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constancy intervals [a, b) of u -> S(u) covering [0, 1], with S on each."""
    a = np.concatenate(([0.0], path.jump_u))
    b = np.append(path.jump_u, 1.0)
    s = np.concatenate(([0], path.cum_counts))
    keep = b > a
    return a[keep], b[keep], s[keep].astype(np.float64)


def process_value(
    path: StepPath, theta: float, which: str, u: float, eps: float = DEFAULT_EPS
) -> float:
    """Pointwise value of the chosen process at u (0 where an indicator cuts)."""
    if which not in _PROCESSES:
        raise ValueError(f"unknown process {which!r}")
    big_l = math.log(path.n)
    s = float(path.value_at(u))
    k = path.k_total
    if which == "X1":
        return (s - u * theta * big_l) / math.sqrt(theta * big_l)
    if which == "X2":
        j = int(math.floor(path.n**u + 1e-9))
        j = min(max(j, 1), path.n)
        h = float(_TABLE.upto(path.n).h[j])
        return (s - theta * h) / math.sqrt(theta * h)
    if which == "X3":
        if not u > eps / big_l:
            return 0.0
        return (s - u * theta * big_l) / math.sqrt(theta * big_l * u)
    if which == "X4":
        return math.sqrt(theta * big_l) * (s / k - u)
    if not eps / big_l < u < 1.0 - eps / big_l:
        return 0.0
    return math.sqrt(theta * big_l) * (s / k - u) / math.sqrt(u * (1.0 - u))


def _x2_stat(path: StepPath, theta: float) -> tuple[float, float]:
    """(sup_j |v_j|, sum_{j<n} v_j^2 w_j / log n) over the runs of constant S."""
    n = path.n
    table = _TABLE.upto(n)
    if path.sizes[0] == 1:
        starts, s = path.sizes, path.cum_counts
    else:
        starts = np.concatenate(([1], path.sizes))
        s = np.concatenate(([0], path.cum_counts))
    ends = np.append(starts[1:] - 1, n)
    js = np.concatenate((starts, ends))
    h = table.h[js]
    v = (np.concatenate((s, s)) - theta * h) / np.sqrt(theta * h)
    sup = float(np.abs(v).max())
    # w_n carries no weight: the last run stops at n - 1 (and may be empty)
    ends[-1] = n - 1
    sl = s.astype(np.longdouble)
    th = np.longdouble(theta)
    sum_w = np.log1p((ends - starts + 1) / starts.astype(np.longdouble))
    sum_a = table.a[ends] - table.a[starts - 1]
    sum_c = table.c[ends] - table.c[starts - 1]
    l2 = sl * sl / th * sum_a - 2.0 * sl * sum_w + th * sum_c
    # the expansion cancels where v_j is near 0 (n = 2, S ~ theta H_1);
    # a one-point run takes v_a^2 w_a directly
    one = ends == starts
    l2[one] = v[: starts.size][one] ** 2 * sum_w[one]
    return sup, float(l2.sum()) / math.log(n)


def functional_stat(
    path: StepPath, theta: float, which: str, eps: float = DEFAULT_EPS
) -> tuple[float, float]:
    """Exact (sup |X|, integral X^2) of a process along one path, in O(K_n).

    Sups evaluate both endpoints of every constancy interval (each branch
    is monotone in u); L2 integrals use closed-form antiderivatives. X3 and
    X5 are cut to u > eps/log n (and u < 1 - eps/log n for X5).
    """
    if which not in _PROCESSES:
        raise ValueError(f"unknown process {which!r}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if which == "X2":
        return _x2_stat(path, theta)
    big_l = math.log(path.n)
    tl = theta * big_l
    rt = math.sqrt(tl)
    a, b, s = _intervals(path)
    if which in ("X3", "X5"):
        lo = np.maximum(a, eps / big_l)
        hi = b if which == "X3" else np.minimum(b, 1.0 - eps / big_l)
        keep = lo < hi
        a, b, s = lo[keep], hi[keep], s[keep]
    u = np.concatenate((a, b))
    if which in ("X1", "X3"):
        big_a = s / tl
        ends = np.abs(np.concatenate((s, s)) - u * tl)
        ends = ends / (rt if which == "X1" else np.sqrt(tl * u))
        # X(1) = (K - theta log n)/sqrt(theta log n) lies in no [a, b) when
        # the last jump sits at u = 1 (a single n-cycle)
        ends = np.append(ends, abs(path.k_total - tl) / rt)
    else:
        big_a = s / path.k_total
        ends = rt * np.abs(np.concatenate((big_a, big_a)) - u)
        if which == "X5":
            ends = ends / np.sqrt(u * (1.0 - u))
    sup = float(np.max(ends, initial=0.0))
    if which in ("X1", "X4"):
        l2 = tl * ((big_a - a) ** 3 - (big_a - b) ** 3) / 3.0
    elif which == "X3":
        l2 = (
            s * s * (np.log(b) - np.log(a))
            - 2.0 * s * tl * (b - a)
            + tl * tl * (b * b - a * a) / 2.0
        ) / tl
    else:
        l2 = tl * (_x5_antiderivative(big_a, b) - _x5_antiderivative(big_a, a))
    return sup, float(l2.sum())


def _x5_antiderivative(big_a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Antiderivative of (A-u)^2/(u(1-u)): A^2 log u - (A-1)^2 log(1-u) - u."""
    return big_a * big_a * np.log(u) - (big_a - 1.0) ** 2 * np.log1p(-u) - u


@dataclass(frozen=True)
class FunctionalSample:
    """Monte Carlo draws of one functional of one process."""

    which: str
    stat_kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.which not in _PROCESSES:
            raise ValueError(f"unknown process {self.which!r}")
        if self.stat_kind not in ("sup", "l2"):
            raise ValueError(f"stat_kind must be sup or l2, got {self.stat_kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("functional values must be finite")


def mc_functionals(
    params: EsfParams,
    which: str,
    stat_kind: str,
    eps: float,
    replicates: int,
    rng: RngState,
) -> FunctionalSample:
    """Sampled functional values over independent partition draws.

    Replicate i draws from substream i (through `RngState.generators`);
    the Feller coupling draws the partition (extension disabled, only C^n
    is needed).
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {replicates}")
    idx = 0 if stat_kind == "sup" else 1
    if stat_kind not in ("sup", "l2"):
        raise ValueError(f"stat_kind must be sup or l2, got {stat_kind!r}")
    values = np.empty(replicates, dtype=np.float64)
    for i, gen in enumerate(rng.generators(replicates)):
        path = build_path(sample_feller(params, gen).c_n)
        values[i] = functional_stat(path, params.theta, which, eps)[idx]
    return FunctionalSample(which, stat_kind, values)


def reference_functionals(
    which: str,
    stat_kind: str,
    eps: float,
    grid_m: int,
    replicates: int,
    rng: RngState,
) -> FunctionalSample:
    """The same functional evaluated on simulated Brownian limits.

    X1/X2/X3 use Brownian motion, X4/X5 the bridge; X3 weights by sqrt(u)
    and X5 by sqrt(u(1-u)). eps is the absolute u-cutoff of the weighted
    windows (mirror an mc run by passing its eps / log n). Paths live on a
    uniform grid: sups by grid maxima, L2 by the trapezoid rule.
    """
    if which not in _PROCESSES:
        raise ValueError(f"unknown process {which!r}")
    if stat_kind not in ("sup", "l2"):
        raise ValueError(f"stat_kind must be sup or l2, got {stat_kind!r}")
    if grid_m < MIN_GRID_M:
        raise ValueError(f"grid_m must be at least {MIN_GRID_M}, got {grid_m}")
    if replicates < MIN_REF_REPLICATES:
        raise ValueError(f"need at least {MIN_REF_REPLICATES} replicates, got {replicates}")
    if which in ("X3", "X5") and not 0.0 < eps < 0.5:
        raise ValueError(f"weighted references need eps in (0, 0.5), got {eps!r}")
    t = np.arange(grid_m + 1) / grid_m
    if which == "X3":
        window = t >= eps
    elif which == "X5":
        window = (t >= eps) & (t <= 1.0 - eps)
    else:
        window = np.ones(t.size, dtype=bool)
    weight2 = {
        "X1": np.ones(t.size),
        "X2": np.ones(t.size),
        "X3": np.where(t > 0.0, t, np.inf),
        "X4": np.ones(t.size),
        "X5": np.where((t > 0.0) & (t < 1.0), t * (1.0 - t), np.inf),
    }[which]
    t_sub = t[window]
    w2_sub = weight2[window]
    gen = rng.generator()
    values = np.empty(replicates, dtype=np.float64)
    scale = 1.0 / math.sqrt(grid_m)
    chunk = max(1, min(replicates, (1 << 25) // (grid_m + 1)))
    done = 0
    while done < replicates:
        m = min(chunk, replicates - done)
        incr = gen.standard_normal((m, grid_m)) * scale
        b = np.concatenate([np.zeros((m, 1)), np.cumsum(incr, axis=1)], axis=1)
        if which in ("X4", "X5"):
            b = b - t[None, :] * b[:, -1:]
        v = b[:, window]
        if stat_kind == "sup":
            values[done : done + m] = np.abs(v / np.sqrt(w2_sub)).max(axis=1)
        else:
            values[done : done + m] = np.trapezoid(v * v / w2_sub, t_sub, axis=1)
        done += m
    return FunctionalSample(which, stat_kind, values)


def kolmogorov_cdf(x):
    """CDF of the Kolmogorov law P(sup_u |B°(u)| <= x), elementwise."""
    return 1.0 - kolmogorov(x)


def ks_distance(sample, reference) -> float:
    """Kolmogorov-Smirnov distance, two-sample or to a callable cdf that takes an array."""
    xs = np.sort(np.asarray(getattr(sample, "values", sample), dtype=np.float64))
    m = xs.size
    if m < 100:
        raise ValueError(f"need at least 100 sample points, got {m}")
    if callable(reference):
        cdf = reference(xs)
        grid = np.arange(m, dtype=np.float64)
        return float(
            np.maximum(cdf - grid / m, (grid + 1.0) / m - cdf).max()
        )
    ys = np.sort(np.asarray(getattr(reference, "values", reference), dtype=np.float64))
    if ys.size < 100:
        raise ValueError(f"need at least 100 reference points, got {ys.size}")
    both = np.concatenate([xs, ys])
    f1 = np.searchsorted(xs, both, side="right") / m
    f2 = np.searchsorted(ys, both, side="right") / ys.size
    return float(np.abs(f1 - f2).max())
