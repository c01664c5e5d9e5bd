"""Exact samplers: Feller coupling, Chinese restaurant process, K_n.

Reproducibility model: an `RngState` is (seed, stream) feeding a
counter-based Philox generator, so draws are bit-for-bit stable across
platforms and any replicate can be regenerated in isolation via
`substream(i)` without running the loop up to i.
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


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    """Master seed from the ESF_SEED environment variable, else the default."""
    raw = os.environ.get("ESF_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"ESF_SEED must be an integer, got {raw!r}") from exc


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
        """Stable per-replicate stream: blake2b(seed, stream, index) -> 64 bits."""
        packed = struct.pack(
            "<QQQ", self.seed, self.stream, int(index) & _MASK64
        )
        digest = hashlib.blake2b(packed, digest_size=8).digest()
        return RngState(self.seed, int.from_bytes(digest, "little"))


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


def sample_feller(
    params: EsfParams,
    rng: RngState,
    b_max: int | None = None,
    tail_bound: float = 1e-4,
) -> FellerSample:
    """Draw (C^n, C^inf) from the Feller coupling.

    The window part simulates xi_i ~ Bernoulli(theta/(theta+i-1)) for
    i = 1..n (xi_1 = 1) and reads cycle counts off the spacings between
    successes, with the boundary spacing n+1-t_last closing C^n. The
    infinite companion continues the sequence past n; instead of stepping
    position by position, each spacing is drawn exactly in O(1):
    conditioned on a success at t, P(next spacing > s) = (t)_s/(theta+t)_s
    = E[(1-W)^s] for W ~ Beta(theta, t), so W ~ Beta(theta, t) followed by
    Geometric(W) reproduces the spacing law exactly. Jumps continue to a
    horizon chosen so the expected number of missed spacings of size
    <= b_max is below tail_bound.

    Args:
        params: (n, theta).
        rng: generator state; one sample consumes one state.
        b_max: largest spacing size kept in c_inf (defaults to n). 0
            disables the extension entirely and leaves c_inf empty.
        tail_bound: certified bias budget for the extension.
    """
    n, theta = params.n, params.theta
    if b_max is None:
        b_max = n
    if b_max != int(b_max) or not 0 <= b_max <= n:
        raise ValueError(f"b_max must be in 0..{n}, got {b_max!r}")
    b_max = int(b_max)
    if not 0.0 < tail_bound <= 1.0:
        raise ValueError(f"tail_bound must be in (0, 1], got {tail_bound!r}")

    gen = rng.generator()
    u = gen.random(n)
    xi = u < success_probs(n, theta)
    xi[0] = True
    pos = np.flatnonzero(xi) + 1
    gaps = np.diff(pos)

    boundary = n + 1 - int(pos[-1])  # in 1..n since pos[-1] <= n
    part = Partition.from_blocks(np.append(gaps, boundary))
    c_inf = np.bincount(gaps[gaps <= b_max], minlength=b_max + 1)[1:]

    residual = 0.0
    if b_max > 0:
        horizon = n + int(math.ceil(b_max * theta * theta / tail_bound))
        # first extension spacing: survival from n, left endpoint pos[-1]
        w = gen.beta(theta, n)
        g = _geometric(gen, w)
        t = n + g
        spacing = t - int(pos[-1])
        if spacing <= b_max:
            c_inf[spacing - 1] += 1
        while t <= horizon:
            w = gen.beta(theta, t)
            g = _geometric(gen, w)
            if g <= b_max:
                c_inf[g - 1] += 1
            t += g
        residual = b_max * theta * theta / (theta + horizon - 1.0)

    return FellerSample(part, c_inf, residual)


def _geometric(gen: np.random.Generator, w: float) -> int:
    """Geometric(w) on {1, 2, ...} by exact inversion of one uniform.

    Returns a float-safe huge value as an int only when it fits; callers
    compare against their horizon before using it, and w = 0 yields an
    effectively infinite jump.
    """
    u = gen.random()
    if w >= 1.0:
        return 1
    if u <= 0.0:
        u = 5e-324
    denom = math.log1p(-w)
    if denom == 0.0:
        return 1 << 62
    g = math.floor(math.log(u) / denom) + 1.0
    if g > float(1 << 62):
        return 1 << 62
    return int(g)


def sample_crp(params: EsfParams, rng: RngState) -> Partition:
    """One Ewens partition from the Chinese restaurant process.

    Customer i+1 opens a new block with probability theta/(theta+i), else
    joins the block of a uniformly chosen earlier customer (which is the
    size-biased choice).
    """
    n, theta = params.n, params.theta
    gen = rng.generator()
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


def sample_kn(params: EsfParams, rng: RngState) -> int:
    """Number of blocks K_n = 1 + sum_{j=2..n} Bernoulli(theta/(theta+j-1))."""
    n = params.n
    gen = rng.generator()
    if n == 1:
        return 1
    u = gen.random(n - 1)
    return 1 + int(np.count_nonzero(u < success_probs(n, params.theta)[1:]))
