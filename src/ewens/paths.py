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
one grow-only table of max n entries, built once and kept for the process's
lifetime at 40 bytes an entry, so X2 is refused for n > `X2_MAX_N`.

Cost model: `_stats` computes every functional for many paths at once,
laid out back to back, and `functional_stat` is `_stats` on one path.
`mc_functionals` keeps only the Feller success cells of a block of
`_REPLICATE_BLOCK` replicates, drawn by `sampling._FellerHits` in a few
numpy calls, so a replicate costs the min(n, ceil(16 theta)) uniforms of
its dense window, two uniforms per thinned Poisson point past it, and
O(K_n) vectorised work; one `_stats` call serves the block.

References: six (process, stat) pairs have closed-form comparison laws,
held in `EXACT_REFERENCES` as elementwise cdfs. X4's sup is Kolmogorov's
law and X4's L2 Cramér-von Mises' (Anderson & Darling 1952); X1's sup and
L2 are those of sup |B| and int B^2 over [0, 1]. X2 is compared with X1's
laws, as its simulated reference always was, although X2 tends to
B(u)/sqrt(u) and not to B(u). The weighted windows of X3 and X5 have no
closed form here: `reference_functionals` simulates them on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import binom, erfc, kolmogorov, kv

from .laws import EsfParams, Partition
from .sampling import RngState, _FellerHits, _key_rows

_PROCESSES = ("X1", "X2", "X3", "X4", "X5")
DEFAULT_EPS = 0.01
MIN_REPLICATES = 10**3  # mc_functionals
MIN_REF_REPLICATES = 100  # reference_functionals
MIN_GRID_M = 2**10  # reference_functionals
# replicates per `_FellerHits.draw` and `_stats` call in `mc_functionals`,
# which holds O(_REPLICATE_BLOCK K_n) besides the replicates' values
_REPLICATE_BLOCK = 4096
# bytes of normals per block of `reference_functionals` walks: rows of
# grid_m + 1 doubles, so a block's two buffers stay in a core's L2 cache
_REFERENCE_BLOCK_BYTES = 1 << 19
# the largest n of X2's harmonic table: 40 bytes an entry, about 400 MB
X2_MAX_N = 10**7


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


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("paths need n >= 2 (log n vanishes at n = 1)")


def build_path(a: Partition) -> StepPath:
    """Step representation of u -> sum_{j <= n^u} c_j for a partition."""
    n = a.n
    _check_n(n)
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
        if n > X2_MAX_N:
            raise ValueError(
                f"X2 keeps a harmonic table of 40 bytes per j <= n for the process's lifetime, "
                f"so n must be at most {X2_MAX_N}, got {n}"
            )
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


def _check(which: str, eps: float) -> None:
    if which not in _PROCESSES:
        raise ValueError(f"unknown process {which!r}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


def _spread(values: np.ndarray, slots: np.ndarray, fill) -> np.ndarray:
    """An array with values in the True slots and fill elsewhere."""
    out = np.full(slots.size, fill, dtype=values.dtype)
    out[slots] = values
    return out


def _per_path(ufunc: np.ufunc, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """ufunc.reduceat over consecutive runs of counts[r] values; 0.0 for an empty run."""
    out = np.zeros(counts.size, values.dtype)
    full = counts > 0
    out[full] = ufunc.reduceat(values, (np.cumsum(counts) - counts)[full])
    return out


def _stats(
    n: int,
    theta: float,
    which: str,
    eps: float,
    starts: np.ndarray,
    sizes: np.ndarray,
    cum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (sup |X|, integral X^2) along many paths of size n, one entry each.

    Path r's distinct cycle sizes (increasing, at least one) and cumulative
    counts are sizes[starts[r]:starts[r+1]] and cum[...], back to back. The
    paths' constancy intervals (X2: runs of j) are laid out back to back,
    K_r + 1 slots for path r, evaluated in one vectorised pass and reduced
    per path with reduceat. Sups evaluate both endpoints of every interval
    (each branch is monotone in u); L2 integrals use closed-form
    antiderivatives. X3 and X5 are cut to u > eps/log n (and
    u < 1 - eps/log n for X5).
    """
    m = starts.size
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1] = sizes.size
    # path r's slots run from starts[r] + r, where u = 0 (X2: j = 1), to
    # stops[r] + r, where u = 1 (X2: j = n); the jumps fill the rest
    r = np.arange(m)
    lead = starts + r
    after_jump = np.ones(sizes.size + m, dtype=bool)
    after_jump[lead] = False
    before_jump = np.ones(sizes.size + m, dtype=bool)
    before_jump[stops + r] = False
    if which == "X2":
        return _x2_stats(n, theta, sizes, cum, lead, after_jump, before_jump)
    k_total = cum[stops - 1]
    big_l = math.log(n)
    tl = theta * big_l
    rt = math.sqrt(tl)
    # np.log on both sides, as in build_path, so a cycle of size n sits at u = 1
    u = np.log(sizes) / np.log(n)
    a = _spread(u, after_jump, 0.0)
    b = _spread(u, before_jump, 1.0)
    if which in ("X3", "X5"):
        a = np.maximum(a, eps / big_l)
        if which == "X5":
            b = np.minimum(b, 1.0 - eps / big_l)
    keep = b > a
    counts = np.add.reduceat(keep, lead, dtype=np.intp)
    a, b = a[keep], b[keep]
    s = _spread(cum.astype(np.float64), after_jump, 0.0)[keep]
    if which in ("X1", "X3"):
        ea, eb = np.abs(s - a * tl), np.abs(s - b * tl)
        if which == "X1":
            ea, eb = ea / rt, eb / rt
        else:
            ea, eb = ea / np.sqrt(tl * a), eb / np.sqrt(tl * b)
    else:
        big_a = s / np.repeat(k_total, stops - starts + 1)[keep]
        ea, eb = rt * np.abs(big_a - a), rt * np.abs(big_a - b)
        if which == "X5":
            ea, eb = ea / np.sqrt(a * (1.0 - a)), eb / np.sqrt(b * (1.0 - b))
    sup = _per_path(np.maximum, np.maximum(ea, eb), counts)
    if which in ("X1", "X3"):
        # X(1) = (K - theta log n)/sqrt(theta log n) lies in no [a, b) when
        # the last jump sits at u = 1 (a single n-cycle)
        sup = np.maximum(sup, np.abs(k_total - tl) / rt)
    if which == "X1":
        big_a = s / tl
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
    return sup, _per_path(np.add, l2, counts)


def _x5_antiderivative(big_a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Antiderivative of (A-u)^2/(u(1-u)): A^2 log u - (A-1)^2 log(1-u) - u."""
    return big_a * big_a * np.log(u) - (big_a - 1.0) ** 2 * np.log1p(-u) - u


def _x2_stats(
    n: int,
    theta: float,
    sizes: np.ndarray,
    cum: np.ndarray,
    lead: np.ndarray,
    after_jump: np.ndarray,
    before_jump: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """X2's (sup_j |v_j|, sum_{j<n} v_j^2 w_j / log n) over the runs of constant S.

    A path's runs start at 1 and at each of its sizes, and end one before
    the next start or at n; the run from 1 is empty where the first size is 1.
    """
    table = _TABLE.upto(n)
    first = _spread(sizes, after_jump, 1)
    last = _spread(sizes - 1, before_jump, n)
    s = _spread(cum, after_jump, 0)
    keep = first <= last
    counts = np.add.reduceat(keep, lead, dtype=np.intp)
    first, last, s = first[keep], last[keep], s[keep]
    h_first, h_last = table.h[first], table.h[last]
    v_first = (s - theta * h_first) / np.sqrt(theta * h_first)
    v_last = (s - theta * h_last) / np.sqrt(theta * h_last)
    sup = _per_path(np.maximum, np.maximum(np.abs(v_first), np.abs(v_last)), counts)
    # w_n carries no weight: each path's last run stops at n - 1 (and may be empty)
    last[np.cumsum(counts) - 1] = n - 1
    sl = s.astype(np.longdouble)
    th = np.longdouble(theta)
    sum_w = np.log1p((last - first + 1) / first.astype(np.longdouble))
    sum_a = table.a[last] - table.a[first - 1]
    sum_c = table.c[last] - table.c[first - 1]
    l2 = sl * sl / th * sum_a - 2.0 * sl * sum_w + th * sum_c
    # the expansion cancels where v_j is near 0 (n = 2, S ~ theta H_1);
    # a one-point run takes v_a^2 w_a directly
    one = last == first
    l2[one] = v_first[one] ** 2 * sum_w[one]
    return sup, _per_path(np.add, l2, counts).astype(np.float64) / math.log(n)


_ONE_PATH = np.zeros(1, dtype=np.intp)


def functional_stat(
    path: StepPath, theta: float, which: str, eps: float = DEFAULT_EPS
) -> tuple[float, float]:
    """Exact (sup |X|, integral X^2) of a process along one path, in O(K_n).

    `_stats` on this one path. X3 and X5 are cut to u > eps/log n (and
    u < 1 - eps/log n for X5).
    """
    _check(which, eps)
    sup, l2 = _stats(path.n, theta, which, eps, _ONE_PATH, path.sizes, path.cum_counts)
    return float(sup[0]), float(l2[0])


def _feller_blocks(
    n: int, count: int, rep: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, sizes, cum) of `_stats` for `count` Feller draws given as success cells.

    (rep[k], pos[k]) are the successes in 1..n, less one, of replicates
    0..count-1, sorted by replicate then position; a replicate's blocks are
    the gaps between them, n + 1 - t_last closing them. All replicates'
    (replicate, size) keys, below count (n + 1), are grouped in one sort, so
    count is at most `sampling._key_rows(n)`.
    """
    gaps = np.empty_like(pos)
    np.subtract(pos[1:], pos[:-1], out=gaps[:-1])
    last = np.append(np.flatnonzero(rep[1:] != rep[:-1]), pos.size - 1)
    gaps[last] = n - pos[last]
    keys = rep * (n + 1)
    keys += gaps
    keys.sort()
    new = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    mults = np.diff(new, append=keys.size)
    rep, sizes = np.divmod(keys[new], n + 1)
    bounds = np.searchsorted(rep, np.arange(count + 1))
    # exact in int64, since all the weights sum to count n < 2^63
    weight = np.diff(np.concatenate(([0], np.cumsum(sizes * mults)))[bounds])
    if np.any(weight != n):
        bad = int(np.flatnonzero(weight != n)[0])
        raise ValueError(f"blocks of replicate {bad} weigh {weight[bad]}, expected n = {n}")
    starts = bounds[:-1]
    cum = np.cumsum(mults)
    cum -= np.repeat(cum[starts] - mults[starts], np.diff(starts, append=rep.size))
    return starts, sizes, cum


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

    The replicates' Feller successes in 1..n come from
    `sampling._FellerHits(rng, theta, n)`, a block of `_REPLICATE_BLOCK`
    replicates per `draw`, fewer where n is so large that the block's
    (replicate, size) keys would overflow int64; replicate i's value is
    `functional_stat` on the path of its blocks. Each block is grouped and
    reduced by one `_stats` call. Per replicate that is the
    min(n, ceil(16 theta)) uniforms of the dense window, two per thinned
    Poisson point past it (about theta log2(n/(16 theta)) points) and
    O(K_n) vectorised work, and memory is O(_REPLICATE_BLOCK K_n) besides
    the replicates' values.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {replicates}")
    idx = 0 if stat_kind == "sup" else 1
    if stat_kind not in ("sup", "l2"):
        raise ValueError(f"stat_kind must be sup or l2, got {stat_kind!r}")
    _check(which, eps)
    n, theta = params.n, params.theta
    _check_n(n)
    if which == "X2":
        _TABLE.upto(n)  # refuses n > X2_MAX_N before anything is drawn
    values = np.empty(replicates, dtype=np.float64)
    hits = _FellerHits(rng, theta, n)
    block = min(_REPLICATE_BLOCK, _key_rows(n))
    for lo in range(0, replicates, block):
        count = min(block, replicates - lo)
        values[lo : lo + count] = _stats(n, theta, which, eps, *_feller_blocks(n, count, *hits.draw(count)))[idx]
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
    uniform grid: sups by grid maxima, L2 by the trapezoid rule. X2 is
    simulated exactly as X1, with unit weight, which is not X2's limit.

    The walks are built a block of rows at a time, about
    `_REFERENCE_BLOCK_BYTES` of normals each, in two preallocated buffers,
    so memory is O(_REFERENCE_BLOCK_BYTES + replicates) at any grid_m. A
    row's value depends only on its own normals, which the generator fills
    in order, so the values do not depend on the block size. The pairs in
    `EXACT_REFERENCES` have closed-form laws; `fclt` simulates only X3 and X5.
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
    # the weighted windows t >= eps (and t <= 1 - eps) are contiguous
    lo = int(np.searchsorted(t, eps)) if which in ("X3", "X5") else 0
    hi = int(np.searchsorted(t, 1.0 - eps, side="right")) if which == "X5" else t.size
    t_sub = t[lo:hi]
    # squared weight on the window; X1, X2 and X4 have unit weight
    w2_sub = {"X3": t_sub, "X5": t_sub * (1.0 - t_sub)}.get(which)
    width = hi - lo
    gen = rng.generator()
    values = np.empty(replicates, dtype=np.float64)
    scale = 1.0 / math.sqrt(grid_m)
    rows = max(1, min(replicates, _REFERENCE_BLOCK_BYTES // (8 * grid_m)))
    # a block's normals; once summed into the walks, scratch for the bridge
    # term and the trapezoids
    spare = np.empty(rows * (grid_m + 1))
    walks = np.empty((rows, grid_m + 1))
    walks[:, 0] = 0.0
    if stat_kind == "sup" and w2_sub is not None:
        weight = np.sqrt(w2_sub)
    if stat_kind == "l2":
        dt = np.diff(t_sub)
    for done in range(0, replicates, rows):
        m = min(rows, replicates - done)
        z = spare[: m * grid_m].reshape(m, grid_m)
        gen.standard_normal(out=z)
        z *= scale
        b = walks[:m]
        np.cumsum(z, axis=1, out=b[:, 1:])
        v = b[:, lo:hi]
        if which in ("X4", "X5"):
            v -= np.multiply(t_sub, b[:, -1:], out=spare[: m * width].reshape(m, width))
        out = values[done : done + m]
        if stat_kind == "sup":
            if w2_sub is not None:
                v /= weight
            np.abs(v, out=v).max(axis=1, out=out)
        else:
            # np.trapezoid(v * v / w2_sub, t_sub, axis=1) bit for bit, in place
            v *= v
            if w2_sub is not None:
                v /= w2_sub
            areas = np.add(v[:, 1:], v[:, :-1], out=spare[: m * (width - 1)].reshape(m, width - 1))
            areas *= dt
            areas /= 2.0
            areas.sum(axis=1, out=out)
    return FunctionalSample(which, stat_kind, values)


def kolmogorov_cdf(x):
    """CDF of the Kolmogorov law P(sup_u |B°(u)| <= x), elementwise."""
    return 1.0 - kolmogorov(x)


# Series terms of the closed-form cdfs below, measured against 40-digit
# mpmath sums: 12 terms of either sup series leave nothing a double holds;
# the L2 series leave under 1e-18 unsummed below their cutoffs (32 and 8),
# past which 1 - F < 1e-17, so F rounds to 1 and is returned as 1.
_SUP_ODD = 2.0 * np.arange(12) + 1.0
_SUP_ALTERNATE = (-1.0) ** np.arange(12)
_L2_ODD = 4.0 * np.arange(26) + 1.0
# binom(-1/2, k) = (-1)^k Gamma(k + 1/2)/(Gamma(1/2) k!), the weights of both L2 series
_L2_BINOM = binom(-0.5, np.arange(26))
_L2_ONE = 32.0
_CVM_ODD = _L2_ODD[:14]
_CVM_WEIGHTS = np.abs(_L2_BINOM[:14]) * np.sqrt(_CVM_ODD)
_CVM_ONE = 8.0


def _clipped(x, top: float) -> np.ndarray:
    """x as float64, clipped to [1e-4, top].

    Each law below has a leading term of about exp(-1/(8x)), so its cdf is
    0.0 in double from 1e-4 down, and 1 from its cutoff top up; clipping
    keeps x <= 0 and x = inf out of every series.
    """
    return np.clip(np.asarray(x, dtype=np.float64), 1e-4, top)


def _sup_theta_series(x: np.ndarray) -> np.ndarray:
    """(4/pi) sum_k (-1)^k/(2k+1) exp(-pi^2 (2k+1)^2/(8x^2)), for 0 < x <= 1."""
    terms = np.exp(np.multiply.outer(-math.pi * math.pi / 8.0 / (x * x), _SUP_ODD * _SUP_ODD))
    return 4.0 / math.pi * (_SUP_ALTERNATE / _SUP_ODD * terms).sum(axis=-1)


def _sup_erfc_series(x: np.ndarray) -> np.ndarray:
    """1 - 2 sum_k (-1)^k erfc((2k+1) x/sqrt 2), for x >= 1."""
    return 1.0 - 2.0 * (_SUP_ALTERNATE * erfc(np.multiply.outer(x / math.sqrt(2.0), _SUP_ODD))).sum(axis=-1)


def brownian_sup_cdf(x):
    """CDF of P(sup_[0,1] |B| <= x), elementwise: the limit of X1's sup.

    The theta-function series below x = 1 and the reflection (erfc) series
    from 1 on.
    """
    xs = _clipped(x, np.inf)
    return np.where(xs < 1.0, _sup_theta_series(np.minimum(xs, 1.0)), _sup_erfc_series(np.maximum(xs, 1.0)))


def brownian_l2_cdf(x):
    """CDF of P(int_0^1 B^2 <= x), elementwise: the limit of X1's L2.

    sqrt 2 sum_k binom(-1/2, k) erfc((4k+1)/(2 sqrt(2x))), the inversion of
    E exp(-s int B^2) = cosh(sqrt(2s))^(-1/2) (Cameron & Martin 1944).
    """
    xs = _clipped(x, _L2_ONE)
    r = 1.0 / (2.0 * np.sqrt(2.0 * xs))
    f = math.sqrt(2.0) * (_L2_BINOM * erfc(np.multiply.outer(r, _L2_ODD))).sum(axis=-1)
    return np.where(xs < _L2_ONE, np.minimum(f, 1.0), 1.0)


def cramer_von_mises_cdf(x):
    """CDF of P(int_0^1 B°^2 <= x), elementwise: the limit of X4's L2.

    (1/(pi sqrt x)) sum_k [Gamma(k+1/2)/(Gamma(1/2) k!)] sqrt(4k+1)
    e^{-y} K_{1/4}(y) with y = (4k+1)^2/(16x) (Anderson & Darling 1952).
    """
    xs = _clipped(x, _CVM_ONE)
    y = np.multiply.outer(1.0 / (16.0 * xs), _CVM_ODD * _CVM_ODD)
    f = (_CVM_WEIGHTS * np.exp(-y) * kv(0.25, y)).sum(axis=-1) / (math.pi * np.sqrt(xs))
    return np.where(xs < _CVM_ONE, np.minimum(f, 1.0), 1.0)


# (process, stat) -> cdf of its comparison law, for the pairs whose law is
# known in closed form. X2 shares X1's unit-weight law here, as its simulated
# reference always has; that is not X2's limit, which is B(u)/sqrt(u).
EXACT_REFERENCES = {
    ("X1", "sup"): brownian_sup_cdf,
    ("X2", "sup"): brownian_sup_cdf,
    ("X1", "l2"): brownian_l2_cdf,
    ("X2", "l2"): brownian_l2_cdf,
    ("X4", "sup"): kolmogorov_cdf,
    ("X4", "l2"): cramer_von_mises_cdf,
}


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
