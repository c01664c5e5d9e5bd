"""Sampler tests: determinism, substream independence, and law agreement.

Law checks compare empirical frequencies against the exact enumerated
distributions at fixed seeds; thresholds sit several standard errors above
the values the pinned seeds actually produce, so the tests are deterministic.
"""

import collections
import math

import numpy as np
import pytest

from ewens.bruteforce import enumerate_esf
from ewens.laws import EsfParams, Partition, kn_pmf, singleton_pmf, success_probs
from ewens.sampling import (
    DEFAULT_SEED,
    FellerSample,
    RngState,
    _coupled_counts,
    _dense_window,
    _FellerHits,
    sample_crp,
    sample_feller,
    sample_kn,
    seed_from_env,
)


def _loop_feller(params, rng, b_max=0, tail_bound=1e-4):
    """Reference Feller draw: the window 1..n, one uniform per position, then
    C^inf by a plain loop over the successes, those in 1..n followed by the
    `_FellerHits` cells past n drawn from the same generator."""
    n, theta = params.n, params.theta
    gen = rng.generator()
    xi = gen.random(n) < success_probs(n, theta)
    xi[0] = True
    pos = np.flatnonzero(xi) + 1
    part = Partition.from_blocks(np.append(np.diff(pos), n + 1 - int(pos[-1])))
    c_inf = np.zeros(b_max, np.int64)
    residual = 0.0
    if b_max > 0:
        horizon = n + int(math.ceil(b_max * theta * theta / tail_bound))
        _, later = _FellerHits(theta, n, horizon + b_max, gen, gen, gen).draw(1)
        succ = pos.tolist() + (later + 1).tolist()
        for t, nxt in zip(succ, succ[1:]):
            if t <= horizon and nxt - t <= b_max:
                c_inf[nxt - t - 1] += 1
        residual = b_max * theta * theta / (theta + horizon - 1.0)
    return FellerSample(part, c_inf, residual)


def _hits(rng, theta, n):
    """`_FellerHits` on the cells [0, n) and rng.substream(0/1/2), as `paths.mc_functionals` draws."""
    return _FellerHits(theta, 0, n, *(rng.substream(s).generator() for s in range(3)))


def _poisson_product_tv(draws, theta):
    """TV between the empirical law of the tuples `draws` and the product of Poisson(theta/j)."""
    freq = collections.Counter(draws)
    probs = {
        k: math.prod(math.exp(-theta / j) * (theta / j) ** kj / math.factorial(kj) for j, kj in enumerate(k, 1))
        for k in freq
    }
    m = len(draws)
    return 0.5 * (math.fsum(abs(c / m - probs[k]) for k, c in freq.items()) + 1.0 - math.fsum(probs.values()))


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(7).generator().random(5)
        b = RngState(7).generator().random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngState(7).generator().random(5)
        b = RngState(8).generator().random(5)
        assert not np.array_equal(a, b)

    def test_substreams_are_distinct_and_reproducible(self):
        root = RngState(123)
        a1 = root.substream(0).generator().random(4)
        a2 = root.substream(0).generator().random(4)
        b = root.substream(1).generator().random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_nested_substreams_do_not_collide(self):
        root = RngState(5)
        seen = set()
        for i in range(20):
            for j in range(20):
                v = tuple(root.substream(i).substream(j).generator().random(2))
                assert v not in seen
                seen.add(v)


class TestGenerators:
    def test_longer_run_extends_a_shorter_one(self):
        # a sampler reads only the generator it is given, so a loop of draws
        # on one stream is a prefix of every longer loop on it
        params = EsfParams(60, 1.5)

        def run(m):
            gen = RngState(17).generator()
            return [
                (sample_kn(params, gen), sample_crp(params, gen), sample_feller(params, gen, b_max=2).c_inf.tolist())
                for _ in range(m)
            ]

        assert run(300)[:100] == run(100)

    def test_samplers_take_a_generator(self):
        params = EsfParams(200, 1.5)
        assert sample_kn(params, RngState(4).generator()) == sample_kn(params, RngState(4))
        assert sample_crp(params, RngState(4).generator()) == sample_crp(params, RngState(4))
        a = sample_feller(params, RngState(4).generator(), b_max=3)
        b = sample_feller(params, RngState(4), b_max=3)
        assert a.c_n == b.c_n and np.array_equal(a.c_inf, b.c_inf)


class TestSeedFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("ESF_SEED", raising=False)
        assert seed_from_env() == DEFAULT_SEED

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ESF_SEED", "99")
        assert seed_from_env() == 99

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("ESF_SEED", "not-a-seed")
        with pytest.raises(ValueError):
            seed_from_env()

    @pytest.mark.parametrize("raw", ["-5", "18446744073709551616"])
    def test_out_of_range_rejected(self, monkeypatch, raw):
        # RngState would wrap these onto another seed than the one recorded
        monkeypatch.setenv("ESF_SEED", raw)
        with pytest.raises(ValueError, match="ESF_SEED"):
            seed_from_env()

    def test_largest_seed_accepted(self, monkeypatch):
        monkeypatch.setenv("ESF_SEED", str(2**64 - 1))
        assert seed_from_env() == 2**64 - 1


class TestFellerSampler:
    def test_deterministic_under_seed(self):
        params = EsfParams(200, 1.5)
        s1 = sample_feller(params, RngState(31), b_max=5)
        s2 = sample_feller(params, RngState(31), b_max=5)
        assert np.array_equal(s1.c_n.counts, s2.c_n.counts)
        assert np.array_equal(s1.c_inf, s2.c_inf)
        assert s1.residual == s2.residual

    def test_partition_is_valid(self):
        for i in range(50):
            s = sample_feller(EsfParams(37, 0.8), RngState(9).substream(i))
            counts = s.c_n.counts
            assert int((np.arange(1, 38) * counts).sum()) == 37

    def test_extension_disabled_with_bmax_zero(self):
        s = sample_feller(EsfParams(50, 1.0), RngState(3), b_max=0)
        assert s.residual == 0.0

    def test_default_call_has_no_extension(self):
        params = EsfParams(1000, 2.0)
        for i in range(20):
            s = sample_feller(params, RngState(5).substream(i))
            assert s.c_inf.size == 0 and s.residual == 0.0
            assert s.c_n == sample_feller(params, RngState(5).substream(i), b_max=0).c_n

    def test_residual_bound_formula(self):
        # residual = b_max * theta^2 / (theta + horizon - 1) <= tail_bound
        s = sample_feller(EsfParams(100, 2.0), RngState(4), b_max=3, tail_bound=1e-4)
        assert 0.0 < s.residual <= 1e-4

    def test_empirical_law_matches_enumeration(self):
        params = EsfParams(6, 2.0)
        table = enumerate_esf(params)
        m = 20000
        freq = {}
        root = RngState(77)
        for i in range(m):
            key = sample_feller(params, root.substream(i)).c_n.as_tuple()
            freq[key] = freq.get(key, 0) + 1
        tv = 0.5 * math.fsum(
            abs(freq.get(part.as_tuple(), 0) / m - p) for part, p in table.entries
        )
        assert tv < 0.02

    @pytest.mark.parametrize("b_max", [0, 1, 5, 100])
    def test_companion_keeps_b_max_sizes(self, b_max):
        s = sample_feller(EsfParams(100, 3.0), RngState(8), b_max=b_max)
        assert s.c_inf.size == b_max
        assert s.c_inf.dtype == np.int64 and np.all(s.c_inf >= 0)

    def test_companion_marginals_match_poisson_means(self):
        # E C_j^inf = theta / j; check j = 1..3 within 5 SE at theta = 3
        params = EsfParams(100, 3.0)
        m = 20000
        root = RngState(15)
        acc = np.zeros(3)
        for i in range(m):
            acc += sample_feller(params, root.substream(i), b_max=3).c_inf[:3]
        for j in range(1, 4):
            mean = acc[j - 1] / m
            se = math.sqrt(3.0 / j / m)
            assert abs(mean - 3.0 / j) < 5 * se + 1e-4

    @pytest.mark.parametrize(
        "n,theta,b_max",
        [(1000, 5e5, 0), (1000, 2.0, 5), (300, 1.5, 0), (50, 1.5, 5), (100, 3.0, 100), (500, 0.5, 3), (1, 0.3, 1)],
    )
    def test_bit_identical_to_the_loop_reference(self, n, theta, b_max):
        params = EsfParams(n, theta)
        root = RngState(7)
        for i in range(40):
            got = sample_feller(params, root.substream(i), b_max=b_max)
            want = _loop_feller(params, root.substream(i), b_max=b_max)
            assert got.c_n == want.c_n
            assert np.array_equal(got.c_inf, want.c_inf)
            assert got.residual == want.residual

    def test_tiny_theta_extension_survives_a_subnormal_beta(self):
        # a Beta-Geometric step drew w ~ 1e-321 from Beta(0.01, 6) on this
        # state; the thinned extension draws on it like any other
        s = sample_feller(EsfParams(6, 0.01), RngState(1).substream(2737), b_max=6)
        assert s.c_inf.size == 6 and s.c_n.n == 6

    @pytest.mark.parametrize("n,theta,b_max,seed,tol", [(10**4, 2.0, 3, 61, 0.05), (100, 50.0, 2, 62, 0.125),
                                                         (6, 0.01, 6, 63, 0.005)])
    def test_companion_joint_law_matches_poisson_product(self, n, theta, b_max, seed, tol):
        # 1e4 draws on one stream; the seed's TV is 0.0425, 0.1161 and 0.0014,
        # where 1e4 draws from the product law reach 0.0465, 0.122 and 0.0045
        # at their 99th percentile (400 trials). The extension past n is
        # thinned only at (1e4, 2), dense to 16 theta = 800 then thinned at
        # (100, 50), and at theta = 0.01 its horizon is 12
        gen = RngState(seed).generator()
        params = EsfParams(n, theta)
        draws = [tuple(sample_feller(params, gen, b_max=b_max).c_inf.tolist()) for _ in range(10**4)]
        assert _poisson_product_tv(draws, theta) < tol

    def test_horizon_past_int64_is_refused(self):
        with pytest.raises(ValueError, match="b_max=1, theta=1e[+]200, tail_bound=0.0001"):
            sample_feller(EsfParams(10, 1e200), RngState(1), b_max=1)
        with pytest.raises(ValueError, match="2\\^62"):
            sample_feller(EsfParams(10, 1e9), RngState(1), b_max=10, tail_bound=1e-3)


class _ScriptedStream:
    """A generator stub: `random` and `poisson` return fixed values of the asked
    shape, and `poisson` records its means."""

    def __init__(self, values):
        self.values, self.means = np.array(values), []

    def random(self, size):
        assert self.values.shape == size
        return self.values

    def poisson(self, lam, size):
        assert self.values.shape == size
        self.means.append(np.array(lam))
        return self.values


def _empirical_tv(values, pmf):
    counts = np.bincount(values, minlength=pmf.offset + pmf.probs.size)
    return 0.5 * float(np.abs(counts[pmf.offset :] / values.size - pmf.probs).sum())


class TestFellerPositions:
    @pytest.mark.parametrize(
        "theta,n,window", [(2.0, 10**4, 32), (0.01, 1000, 1), (1e-9, 50, 1), (2.5, 500, 40), (1e307, 10, 10)]
    )
    def test_dense_window_is_16_theta_capped_at_n(self, theta, n, window):
        assert _dense_window(theta, n) == window

    @pytest.mark.parametrize("n,theta,tol", [(500, 0.5, 0.02), (1000, 0.01, 0.008), (1000, 0.1, 0.015),
                                             (10**4, 2.0, 0.025), (300, 50.0, 0.03), (2000, 50.0, 0.04),
                                             (50, 1e6, 0.002)])
    def test_block_count_law_matches_kn_pmf(self, n, theta, tol):
        # 2e4 draws; the seed's TV is 0.0073, 0.0015, 0.0018, 0.0134, 0.0177,
        # 0.0205 and 0, where multinomial draws from the exact law reach 0.014,
        # 0.005, 0.010, 0.017, 0.022, 0.027 and 0.0007 at their 99th
        # percentile. 16 theta >= n at (300, 50) and (50, 1e6): the window is
        # every cell; (2000, 50) has a window of 800 cells and two blocks
        rep, _ = _hits(RngState(31), theta, n).draw(20000)
        assert _empirical_tv(np.bincount(rep, minlength=20000), kn_pmf(EsfParams(n, theta))) < tol

    def test_singleton_law_matches_singleton_pmf(self):
        # the seed's TV is 0.0070; exact multinomial draws reach 0.012 at the 99th percentile
        n, theta, m = 1000, 2.0, 20000
        rep, pos = _hits(RngState(32), theta, n).draw(m)
        # a replicate's last gap runs to the next replicate's cell 0, or to 0 past the end
        gaps = np.diff(pos, append=0)
        gaps[np.diff(rep, append=m) != 0] += n
        c1 = np.bincount(rep[gaps == 1], minlength=m)
        assert _empirical_tv(c1, singleton_pmf(EsfParams(n, theta))) < 0.02

    def test_cell_mapping_and_thinning_rule(self):
        # theta = 1, n = 64: window 0..15, blocks [16, 32) and [32, 64), with
        # rates log1p(1/16) and log1p(1/32). Replicate 0's window makes cells 0
        # and 3 successes; its first block gets three points, its second one.
        # A point at u_1 falls in cell lo + floor(u_1 L) and is kept iff
        # u_2 log1p(1/lo) < log1p(1/cell): cell 31 keeps u_2 < 0.5237
        # (p_31/p_16 = 0.5313 would keep 0.53), cell 24 keeps u_2 < 0.6732
        window = np.full((2, 16), 0.99)
        window[:, 0] = 0.5
        window[0, 3] = 0.2
        counts = _ScriptedStream([[3, 1], [0, 1]])
        points = _ScriptedStream([[0.5, 0.6], [0.5, 0.1], [0.99, 0.53], [0.0, 0.999], [0.5, 0.2]])
        rep, pos = _FellerHits(1.0, 0, 64, _ScriptedStream(window), counts, points).draw(2)
        assert rep.tolist() == [0, 0, 0, 0, 1, 1]
        assert pos.tolist() == [0, 3, 24, 32, 0, 48]  # 24 twice, once; 31 thinned away
        np.testing.assert_array_equal(counts.means[0], [16 * math.log1p(1 / 16), 32 * math.log1p(1 / 32)])

    def test_cells_start_at_start(self):
        # theta = 1, cells [10, 64): window 10..15, blocks [16, 32) and [32, 64).
        # Cells 10 (p = 1/11) and 15 (p = 1/16) succeed; the one point in the
        # first block falls in cell 24 and is kept
        window = np.full((1, 6), 0.99)
        window[0, 0], window[0, 5] = 0.05, 0.01
        counts = _ScriptedStream([[1, 0]])
        rep, pos = _FellerHits(1.0, 10, 64, _ScriptedStream(window), counts, _ScriptedStream([[0.5, 0.1]])).draw(1)
        assert rep.tolist() == [0, 0, 0]
        assert pos.tolist() == [10, 15, 24]
        np.testing.assert_array_equal(counts.means[0], [16 * math.log1p(1 / 16), 32 * math.log1p(1 / 32)])

    def test_window_covering_n_draws_no_points(self):
        rep, pos = _FellerHits(1.0, 0, 10, _ScriptedStream(np.zeros((3, 10))), None, None).draw(3)
        assert rep.tolist() == [i for i in range(3) for _ in range(10)]
        assert pos.tolist() == list(range(10)) * 3

    @pytest.mark.parametrize("n,theta", [(1000, 2.0), (300, 50.0), (10**5, 0.3)])
    def test_draws_do_not_depend_on_calls_or_passes(self, n, theta, monkeypatch):
        whole = _hits(RngState(9), theta, n).draw(700)
        monkeypatch.setattr("ewens.sampling._HIT_VALUES", 1)  # one replicate a pass
        hits = _hits(RngState(9), theta, n)
        parts = [hits.draw(300), hits.draw(1), hits.draw(399)]
        rep = np.concatenate([r + first for (r, _), first in zip(parts, (0, 300, 301))])
        assert np.array_equal(rep, whole[0])
        assert np.array_equal(np.concatenate([p for _, p in parts]), whole[1])

    def test_passes_keep_int64_keys_at_huge_n(self):
        # 9760 replicates a pass by _HIT_VALUES, but their keys of about
        # rows n pass 2^63 at n = 1e15: the passes are cut to 9223 replicates,
        # and equal smaller calls concatenated
        n, m = 10**15, 20000
        rep, pos = _hits(RngState(1), 1.0, n).draw(m)
        hits = _hits(RngState(1), 1.0, n)
        parts = [hits.draw(1000) for _ in range(m // 1000)]
        assert np.array_equal(rep, np.concatenate([r + 1000 * i for i, (r, _) in enumerate(parts)]))
        assert np.array_equal(pos, np.concatenate([p for _, p in parts]))
        firsts = np.flatnonzero(np.diff(rep, prepend=-1))
        assert firsts.size == m and not pos[firsts].any() and pos.max() < n
        assert np.all((np.diff(pos) > 0) | (np.diff(rep) > 0))

    def test_position_bound_is_refused(self):
        with pytest.raises(ValueError, match=r"^n must be below 2\^62.*got 4611686018427387904$"):
            _FellerHits(1.0, 0, 2**62, None, None, None)


class TestCoupledCounts:
    # n = 10, b = 3, horizon = 20: position 20 is cell 19
    def test_spacing_from_the_horizon_counts_and_one_past_it_does_not(self):
        rep = np.array([0, 0, 0, 1, 1, 1])
        cell = np.array([0, 19, 22, 0, 20, 23])
        c_n, c_inf = _coupled_counts(rep, cell, 2, 3, 10, 20)
        assert c_inf.tolist() == [[0, 0, 1], [0, 0, 0]]
        assert c_n.tolist() == [[0, 0, 0], [0, 0, 0]]  # one block of 10 each

    def test_spacing_straddling_n_counts_in_c_inf_only(self):
        # 8 -> 11 crosses n = 10: C^inf_3 = 1, while C^n closes with 10 - 8 = 2
        c_n, c_inf = _coupled_counts(np.zeros(4, np.int64), np.array([0, 8, 11, 30]), 1, 3, 10, 20)
        assert c_n.tolist() == [[0, 1, 0]]
        assert c_inf.tolist() == [[0, 0, 1]]

    def test_closing_block_counts_in_c_n(self):
        # blocks 1, 8 and the closing 10 - 9 = 1; the last drawn success
        # opens no C^inf spacing
        c_n, c_inf = _coupled_counts(np.zeros(3, np.int64), np.array([0, 1, 9]), 1, 3, 10, 20)
        assert c_n.tolist() == [[2, 0, 0]]
        assert c_inf.tolist() == [[1, 0, 0]]


class TestCrpSampler:
    def test_deterministic_under_seed(self):
        a = sample_crp(EsfParams(64, 2.0), RngState(11))
        b = sample_crp(EsfParams(64, 2.0), RngState(11))
        assert a == b

    def test_partition_is_valid(self):
        for i in range(50):
            part = sample_crp(EsfParams(23, 1.1), RngState(6).substream(i))
            assert int((np.arange(1, 24) * part.counts).sum()) == 23

    def test_empirical_law_matches_enumeration(self):
        params = EsfParams(5, 0.7)
        table = enumerate_esf(params)
        m = 20000
        freq = {}
        root = RngState(88)
        for i in range(m):
            key = sample_crp(params, root.substream(i)).as_tuple()
            freq[key] = freq.get(key, 0) + 1
        tv = 0.5 * math.fsum(
            abs(freq.get(part.as_tuple(), 0) / m - p) for part, p in table.entries
        )
        assert tv < 0.02


class TestKnSampler:
    def test_deterministic_under_seed(self):
        params = EsfParams(1000, 2.0)
        a = [sample_kn(params, RngState(21).substream(i)) for i in range(10)]
        b = [sample_kn(params, RngState(21).substream(i)) for i in range(10)]
        assert a == b

    def test_range(self):
        for i in range(100):
            k = sample_kn(EsfParams(12, 1.0), RngState(2).substream(i))
            assert 1 <= k <= 12

    def test_empirical_pmf_matches_exact(self):
        params = EsfParams(30, 2.0)
        pmf = kn_pmf(params)
        m = 30000
        root = RngState(99)
        counts = np.zeros(31)
        for i in range(m):
            counts[sample_kn(params, root.substream(i))] += 1
        tv = 0.5 * float(np.abs(counts[1:] / m - pmf.probs).sum())
        assert tv < 0.02

    @pytest.mark.parametrize("n,theta,b_max", [(1000, 5e5, 0), (1000, 2.0, 0), (500, 0.5, 5), (1, 1.0, 1)])
    def test_counts_the_blocks_of_the_feller_draw_on_its_state(self, n, theta, b_max):
        params = EsfParams(n, theta)
        root = RngState(23)
        for i in range(40):
            k = sample_kn(params, root.substream(i))
            assert k == sample_feller(params, root.substream(i), b_max=b_max).c_n.num_blocks

    def test_mean_matches_exact_within_se(self):
        params = EsfParams(500, 5.0)
        m = 5000
        root = RngState(14)
        draws = np.array([sample_kn(params, root.substream(i)) for i in range(m)])
        from ewens.laws import kn_mean_var

        mean, var = kn_mean_var(params)
        se = math.sqrt(var / m)
        assert abs(draws.mean() - mean) < 5 * se


class TestCrossSamplerConsistency:
    def test_feller_and_crp_block_counts_agree_in_law(self):
        # Two independent constructions of the same partition law; compare
        # their empirical K_n distributions to the exact one.
        params = EsfParams(10, 1.0)
        pmf = kn_pmf(params)
        m = 10000
        for sampler, seed in ((sample_feller, 101), (sample_crp, 102)):
            root = RngState(seed)
            counts = np.zeros(11)
            for i in range(m):
                drawn = sampler(params, root.substream(i))
                part = drawn.c_n if hasattr(drawn, "c_n") else drawn
                counts[part.num_blocks] += 1
            tv = 0.5 * float(np.abs(counts[1:] / m - pmf.probs).sum())
            assert tv < 0.025
