"""Exact samplers: Feller coupling, Chinese restaurant process, K_n.

Reproducibility model: an `RngState` is (seed, stream) feeding a
counter-based Philox generator, so draws are bit-for-bit stable across
platforms. A Monte Carlo loop reads its replicates in order from its
state's own stream(s), so reruns are byte-identical and a longer run
extends a shorter one; `substream(k)` derives named sibling streams, never
one per replicate, so a replicate of a block draw cannot be regenerated
alone. `sample_feller`, `sample_kn` and `sample_crp` take either an
`RngState` or a generator to draw from.

Cost per draw: `sample_feller` and `sample_kn` read C^n and K_n off one
vectorised uniform per position 1..n. Every Feller success past that
window comes from `_FellerHits`: cells [start, stop) of a block of
replicates in a few numpy calls on three streams, one uniform per cell of
the dense window start..J-1, J = max(start, min(stop, ceil(16 theta))),
then about theta log2(stop/J) Poisson points of two uniforms each, about
theta ln(stop/J) kept. That is O(J - start + theta log(stop/J)) per
replicate and no Python work per replicate: `paths.mc_functionals` draws
[0, n), at (1e4, 2) 32 uniforms, 9 counts and about 16 points, in place of
1e4 uniforms; `distances.dbw_mc` [0, horizon + b), at (1e4, 10, 5) 160
uniforms, 15 counts and about 150 points; `sample_feller`'s extension one
row from n, holding all its points at once, 80 bytes each.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .laws import EsfParams, Partition, success_probs

DEFAULT_SEED = 424242

_MASK64 = (1 << 64) - 1
# cells per unit of theta that `_FellerHits` draws with one uniform each
# before it switches to thinned Poisson points, two uniforms a point:
# 4, 8, 16 and 32 timed alike, within run noise, for mc_functionals at
# m = 1000 from (1e3, 0.5) to (1e6, 1) and (1e3, 1e6) (2-vCPU VM)
_DENSE_PER_THETA = 16
# values (window uniforms, two per expected point) a pass of `_FellerHits`
# may hold, about 8 MiB of doubles
_HIT_VALUES = 1 << 20


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    """Master seed from the ESF_SEED environment variable, else the default.

    A value outside 0..2^64-1 is a ValueError rather than wrapped, so the
    seed recorded in an output is the seed that drew it.
    """
    raw = os.environ.get("ESF_SEED")
    if raw is None:
        return default
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ValueError(f"ESF_SEED must be an integer, got {raw!r}") from exc
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"ESF_SEED must be in 0..{_MASK64}, got {raw!r}")
    return seed


@dataclass(frozen=True)
class RngState:
    """Counter-based generator state (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence(entropy=(self.seed, self.stream)))
        )

    def substream(self, index: int) -> "RngState":
        """The named sibling stream `index`: blake2b(seed, stream, index) -> 64 bits."""
        packed = struct.pack("<QQQ", self.seed, self.stream, int(index) & _MASK64)
        return RngState(self.seed, int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little"))


@dataclass
class FellerSample:
    """One coupled draw of the cycle counts and their Poisson companions.

    c_inf[j-1] for j = 1..b_max counts spacings of size j between successive
    successes of the extended Bernoulli sequence (no larger size is kept);
    `residual` is a certified upper bound on the expected number of spacings
    of size <= b_max missed beyond the sampling horizon (0.0, with c_inf
    empty, when the extension was disabled with b_max = 0).
    """

    c_n: Partition
    c_inf: np.ndarray
    residual: float


def _generator(rng: RngState | np.random.Generator) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else rng.generator()


def sample_feller(
    params: EsfParams,
    rng: RngState | np.random.Generator,
    b_max: int = 0,
    tail_bound: float = 1e-4,
) -> FellerSample:
    """Draw (C^n, C^inf) from the Feller coupling.

    C^n is read off the spacings between the successes in 1..n of xi_j ~
    Bernoulli(theta/(theta+j-1)), one uniform per position, n+1-t_last
    closing them. C^inf is `_coupled_counts` up to the horizon of `_horizon`;
    the successes past n are one row of `_FellerHits` cells [n, horizon +
    b_max), drawn from the same generator after the window: about 0.2 s and
    100 MiB at (n, theta, b_max) = (1000, 5e4, 5), mostly the points' arrays.

    Args:
        params: (n, theta).
        rng: generator state, one per sample, or a generator to draw from.
        b_max: largest spacing size kept in c_inf, at most n. The default
            0 disables the extension entirely and leaves c_inf empty.
        tail_bound: certified bias budget for the extension. An extension
            reaching 2^62 (see `_horizon`) is a ValueError.
    """
    n, theta = params.n, params.theta
    b_max, horizon, residual = _horizon(n, theta, b_max, tail_bound)
    gen = _generator(rng)
    pos = np.flatnonzero(gen.random(n) < success_probs(n, theta)) + 1  # the successes in 1..n
    part = Partition.from_blocks(np.diff(np.append(pos, n + 1)))
    c_inf = np.zeros(0, np.int64)
    if b_max:
        _, later = _FellerHits(theta, n, horizon + b_max, gen, gen, gen).draw(1)
        cell = np.append(pos - 1, later)
        c_inf = _coupled_counts(np.zeros_like(cell), cell, 1, b_max, n, horizon)[1][0]
    return FellerSample(part, c_inf, residual)


def _horizon(n: int, theta: float, b_max: int, tail_bound: float = 1e-4) -> tuple[int, int, float]:
    """(b_max, horizon, residual) of a C^inf extension keeping spacing sizes 1..b_max, b_max validated.

    horizon = n + ceil(b_max theta^2/tail_bound), and the residual
    b_max theta^2/(theta + horizon - 1) <= tail_bound bounds the expected
    number of spacings of size <= b_max whose left end lies past it.
    """
    if b_max != int(b_max) or not 0 <= b_max <= n:
        raise ValueError(f"b_max must be in 0..{n}, got {b_max!r}")
    if not 0.0 < tail_bound <= 1.0:
        raise ValueError(f"tail_bound must be in (0, 1], got {tail_bound!r}")
    span = b_max * theta * theta / tail_bound
    if not n + span + b_max < 2.0**62:  # inf fails too
        raise ValueError(f"horizon n + b_max*theta^2/tail_bound + b_max = {n + span + b_max:.3g} is not below "
                         f"2^62 (b_max={b_max}, theta={theta!r}, tail_bound={tail_bound!r})")
    horizon = n + math.ceil(span)
    return int(b_max), horizon, b_max * theta * theta / (theta + horizon - 1.0)


def _coupled_counts(rep: np.ndarray, cell: np.ndarray, rows: int, b: int, n: int, horizon: int) -> tuple:
    """(C^n_j, C^inf_j), j = 1..b, two (rows, b) arrays, from the success cells (rep, cell).

    The cells, position - 1, are sorted by replicate then cell and reach
    cell horizon + b - 1. C^n counts the spacings in cells 0..n-1 and the
    closing block n - c_last; C^inf every spacing whose left end is at or
    before position horizon, so the one straddling n counts in C^inf only.
    """
    last = np.append(rep[1:] != rep[:-1], True)
    nxt = np.append(cell[1:], n)
    gap = nxt - cell
    size_n = np.where(last, n, np.minimum(nxt, n)) - cell
    fin = (cell < n) & (size_n <= b)
    inf = ~last & (cell < horizon) & (gap <= b)
    return tuple(np.bincount(rep[k] * b + s[k] - 1, minlength=rows * b).reshape(rows, b)
                 for k, s in ((fin, size_n), (inf, gap)))


def _dense_window(theta: float, n: int) -> int:
    """J = min(n, ceil(_DENSE_PER_THETA theta)), the dense window of `_FellerHits`."""
    reach = _DENSE_PER_THETA * theta
    return n if reach >= n else math.ceil(reach)


def _key_rows(n: int) -> int:
    """The most replicates whose (replicate, cell) keys r (n + 1) + c, 0 <= c <= n, fit in int64."""
    return (1 << 63) // (n + 1)


class _FellerHits:
    """The Feller successes in cells [start, stop) of consecutive replicates, a block at a time.

    Cell i = j - 1 of a replicate holds xi_j ~ Bernoulli(p_i),
    p_i = theta/(theta+i), independent; `draw(count)` returns the next
    `count` replicates' successes as flat (replicate, cell) arrays,
    replicates counted from 0 in each call, sorted by replicate then cell.

    - Cells start..J-1, J = max(start, `_dense_window`(theta, stop)), are
      one uniform each from `cells`: a row of `random((rows, J - start)) < p`.
      From start = 0, cell 0 is always a success.
    - Past J the cells are cut into the blocks [lo, min(stop, 2 lo)), lo = J,
      2J, 4J, ... Cell i succeeds iff a Poisson process of rate
      lambda_i = log1p(theta/i) = -log(1 - p_i) puts a point in it, which
      happens with probability 1 - e^-lambda_i = p_i, independently of the
      other cells. A block of L cells draws one Poisson(L lambda_lo) count
      per replicate from `counts`, lambda_lo being its largest rate; each
      point reads two uniforms from `points`, falls in cell
      lo + floor(u_1 L) and is kept iff u_2 lambda_lo < lambda_i (thinning,
      Lewis & Shedler 1979), and a cell with a kept point is a success. The
      rates are evaluated per point, so p_i is exact to rounding; a table of
      cumulative rates inverted by `searchsorted` would lose about 1e-9
      relative in p_i at n = 1e6.

    The generators `cells`, `counts` and `points` are each read in
    replicate order, so the draws do not depend on how the replicates are
    split into calls or passes, and a longer run extends a shorter one; one
    generator may serve all three in a one-row pass. A pass holds at most
    `_HIT_VALUES // (J - start + 2 sum_blocks L lambda_lo)` replicates, the
    window's uniforms and two per expected point, and at most
    `_key_rows(stop)`, so that its (replicate, cell) keys fit in int64. A
    stop of 2^62 or more (n for `paths.mc_functionals`) is a ValueError.
    """

    def __init__(self, theta: float, start: int, stop: int, *streams: np.random.Generator) -> None:
        if stop >= 1 << 62:
            raise ValueError(f"n must be below 2^62, the Feller sampler's position bound, got {stop}")
        self.theta, self.start, self.stop = theta, start, stop
        window = max(start, _dense_window(theta, stop))
        self.p = theta / (theta + np.arange(start, window, dtype=np.float64))
        lo = []
        while window < stop:
            lo.append(window)
            window *= 2
        self.lo = np.array(lo, dtype=np.int64)
        self.span = np.minimum(self.lo, stop - self.lo)
        self.rate = np.log1p(theta / self.lo)
        self.mean = self.span * self.rate
        self.rows = min(max(1, int(_HIT_VALUES // (self.p.size + 2.0 * float(self.mean.sum())))), _key_rows(stop))
        self.cells, self.counts, self.points = streams

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(replicate, cell) of every success of the next `count` replicates."""
        parts = [self._pass(first, min(self.rows, count - first)) for first in range(0, count, self.rows)]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def _pass(self, first: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        rep, cell = np.divmod(np.flatnonzero(self.cells.random((rows, self.p.size)) < self.p), self.p.size)
        cell += self.start
        if self.lo.size:
            rep, cell = self._with_thinned(rows, rep, cell)
        rep += first
        return rep, cell

    def _with_thinned(self, rows: int, rep: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The window's successes (rep, cell) of `rows` replicates, each followed by its thinned ones."""
        blocks = self.lo.size
        point = np.repeat(np.arange(rows * blocks), self.counts.poisson(self.mean, (rows, blocks)).ravel())
        u = self.points.random((point.size, 2))
        b = point % blocks
        at = self.lo[b] + (u[:, 0] * self.span[b]).astype(np.int64)
        keep = u[:, 1] * self.rate[b] < np.log1p(self.theta / at)
        keys = np.sort(point[keep] // blocks * self.stop + at[keep])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        later = keys // self.stop
        # a replicate's window cells all lie below its thinned cells
        runs = np.column_stack((np.bincount(rep, minlength=rows), np.bincount(later, minlength=rows)))
        in_window = np.repeat(np.tile((True, False), rows), runs.ravel())
        pos = np.empty(in_window.size, dtype=np.int64)
        pos[in_window] = cell
        pos[~in_window] = keys - later * self.stop
        return np.repeat(np.arange(rows), runs.sum(axis=1)), pos


def sample_crp(params: EsfParams, rng: RngState | np.random.Generator) -> Partition:
    """One Ewens partition from the Chinese restaurant process.

    Customer i+1 opens a new block with probability theta/(theta+i), else
    joins the block of a uniformly chosen earlier customer (which is the
    size-biased choice).
    """
    n, theta = params.n, params.theta
    gen = _generator(rng)
    block_of = np.empty(n, dtype=np.int64)
    sizes: list[int] = [1]
    block_of[0] = 0
    for i in range(1, n):
        u = gen.random() * (theta + i)
        if u < theta:
            block_of[i] = len(sizes)
            sizes.append(1)
        else:
            t = min(int(u - theta), i - 1)
            b = block_of[t]
            sizes[b] += 1
            block_of[i] = b
    return Partition.from_blocks(sizes)


def sample_kn(params: EsfParams, rng: RngState | np.random.Generator) -> int:
    """K_n, the successes in 1..n: c_n.num_blocks of `sample_feller` on the same state."""
    return int(np.count_nonzero(_generator(rng).random(params.n) < success_probs(params.n, params.theta)))
