"""Path-functional tests.

The closed-form sup and L2 statistics are checked against frozen values
obtained by exact symbolic integration of the piecewise definitions (five
hand-built partitions covering every process), against adaptive quadrature,
against the algebraic identities linking the processes, and (for X2)
against the dense route over every grid point j = 1..n. The batched
Monte Carlo matches a loop of `functional_stat` over substreams bit for
bit, edge draws included. The Brownian reference simulator is validated
on known distributional facts and against its masked-copy route.
"""

import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.special import ndtr
from hypothesis import given, settings
from hypothesis import strategies as st

import ewens
from ewens import paths, sampling
from ewens.laws import EsfParams, Partition
from ewens.paths import (
    DEFAULT_EPS,
    FunctionalSample,
    build_path,
    functional_stat,
    ks_distance,
    mc_functionals,
    process_value,
    reference_functionals,
)
from ewens.sampling import RngState, _FellerHits, sample_feller

# grid_m, replicates, process, stat, sha256 of reference_functionals' values
# at eps = 0.01/log 5000 on RngState(DEFAULT_SEED).substream(2**32), as `fclt`
# seeds its reference; X2's walks are X1's
PINNED_REFERENCE_DIGESTS = """
1024 1000 X1 sup c1a2ff227109d737bd1fc7aa144a9fd881931f6151c87812754e9bc80251cbab
1024 1000 X1 l2 34a261096251970094847f440ae876da8fca053d19d3bec888a3c4673e8e8a51
1024 1000 X2 sup c1a2ff227109d737bd1fc7aa144a9fd881931f6151c87812754e9bc80251cbab
1024 1000 X2 l2 34a261096251970094847f440ae876da8fca053d19d3bec888a3c4673e8e8a51
1024 1000 X3 sup 4f061027c7b742634734567c4d089561f06c6f895b33efe6ef679cecfe7cad73
1024 1000 X3 l2 578556d75bf4127b51ab4119e94d7c06f644fc128cc15b2af09a7f3fdea153ca
1024 1000 X4 sup 6f19d4d854272aa14d0423823e32ed8c076c81f1ea28d8b34f8c04b667fcabf9
1024 1000 X4 l2 c4475a91b0cd417968566f56042456932ea84c89e9ce6b28cde3dba3a5818083
1024 1000 X5 sup 79630933473e05bfc00c420e2bf3db663aa91a8c6088c7747244365df45790aa
1024 1000 X5 l2 1d08f7110fab98c0ddcf70cfd763c16b0a7e465abc542bbad1e8cbea893c07c4
4096 1500 X1 sup a0ecdc5dd5a08cfc37c38044abb771c4bc6ea0eac40199e71195e22fae4d0756
4096 1500 X1 l2 2a0f5dbed8cb0092fbf13e23eb126995282c338ed514e7f3ae82a9a0005b8c70
4096 1500 X2 sup a0ecdc5dd5a08cfc37c38044abb771c4bc6ea0eac40199e71195e22fae4d0756
4096 1500 X2 l2 2a0f5dbed8cb0092fbf13e23eb126995282c338ed514e7f3ae82a9a0005b8c70
4096 1500 X3 sup 8be472f22bb7f06b8c9c16ec663bb575f012524090ee2436135f61903bfe4529
4096 1500 X3 l2 33f4dc3b18c9d5e4adde0abfeef6c3c5676e4d045603c8f45daa3779e763a3e3
4096 1500 X4 sup c64630524ad17006fa405a457efcd59439f7f76ae095ff001f680485ad8e7399
4096 1500 X4 l2 5c539944c5c5f827316aed71691254e282d275c9d08f87d9e2967a4092f13ad8
4096 1500 X5 sup 44d6cc4e5b10d0450a49c54b79fb5daf5f7cd4528589018f97599efb96a4d7cc
4096 1500 X5 l2 805a216129959fe853153b1e960f2aa118c5837491e16d91bf4266f902492169
"""

# (n, counts, theta) -> {process: (sup, l2)}; values from exact symbolic
# integration of the step-function definitions at eps = 0.01.
HAND_WORKED = [
    (
        4,
        (4, 0, 0, 0),
        2.0,
        {
            "X1": (2.4022448175728996, 2.6949764043024474),
            "X2": (1.4142135623730950, 1.1037821970789631),
            "X3": (28.142849891224591, 21.904289295322713),
            "X4": (1.6651092223153955, 0.92419624074659375),
            "X5": (19.534324211815503, 10.921204181404087),
        },
    ),
    (
        4,
        (0, 0, 0, 1),
        0.5,
        {
            "X1": (0.83255461115769776, 0.23104906018664844),
            "X2": (0.95742710775633811, 0.65958645827323698),
            "X3": (0.83255461115769776, 0.34655555659196154),
            "X4": (0.83255461115769776, 0.23104906018664844),
            "X5": (9.7671621059077513, 2.7303010453510217),
        },
    ),
    (
        4,
        (2, 1, 0, 0),
        2.0,
        {
            "X1": (1.2011224087864498, 0.51857568219115928),
            "X2": (0.57154760664940822, 0.025153787835081444),
            "X3": (14.000714267493641, 4.7801659440154525),
            "X4": (1.1100728148769303, 0.38508176697774739),
            "X5": (12.975571407148453, 4.6035900608052474),
        },
    ),
    (
        10,
        (1, 2, 0, 0, 1, 0, 0, 0, 0, 0),
        1.7,
        {
            "X1": (0.92073061444147230, 0.19689815062431130),
            "X2": (0.53687549219315931, 0.12272842218319463),
            "X3": (7.5392658403696514, 1.0515108469755760),
            "X4": (0.88827948441753374, 0.17406629782803073),
            "X5": (7.3911923240756721, 1.381411119431018),
        },
    ),
    (
        12,
        (0, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        1.0,
        {
            "X1": (2.4749365679502979, 2.6563886100976677),
            "X2": (2.3387383286073219, 2.3086105615456713),
            "X3": (3.7221758360318020, 4.5640847907509714),
            "X4": (0.87942826044008094, 0.18595127375948398),
            "X5": (1.7707634173987325, 0.86986672118726309),
        },
    ),
]


# (n, theta, eps) draws at the edges of the batched kernel and of the
# dense window, cells 0..min(n, ceil(16 theta)) - 1
EDGE_DRAWS = [(300, 2.0, DEFAULT_EPS), (2, 1.0, DEFAULT_EPS), (50, 1e6, DEFAULT_EPS),
              (1000, 0.05, DEFAULT_EPS), (1000, 2.0, 3.0), (200, 5.0, 50.0),
              (10**4, 2.0, DEFAULT_EPS), (1000, 0.01, DEFAULT_EPS)]


@functools.cache
def sampled_paths(n, theta):
    """The paths of replicates 0..999 of RngState(44), from `_FellerHits`' own cells."""
    rep, pos = _FellerHits(theta, 0, n, *(RngState(44).substream(s).generator() for s in range(3))).draw(1000)
    return [
        build_path(Partition.from_blocks(np.diff(cells + 1, append=n + 1)))
        for cells in np.split(pos, np.flatnonzero(np.diff(rep)) + 1)
    ]


def dense_x2(path, theta):
    """X2 (sup, L2) over every grid point j = 1..n: the O(n) oracle route."""
    n = path.n
    big_l = math.log(n)
    js = np.arange(1, n + 1)
    u_all = np.log(js) / big_l
    idx = np.searchsorted(path.jump_u, u_all, side="right") - 1
    s_all = np.where(idx >= 0, path.cum_counts[np.maximum(idx, 0)], 0)
    h_all = np.cumsum(1.0 / js)
    v = (s_all - theta * h_all) / np.sqrt(theta * h_all)
    widths = (np.log(js[1:]) - np.log(js[:-1])) / big_l
    return float(np.abs(v).max()), float(v[:-1] ** 2 @ widths)


def loop_stat(path, theta, which, eps):
    """X1, X3-X5 (sup, L2) by a Python loop over constancy intervals: the
    oracle for the array route."""
    big_l = math.log(path.n)
    tl = theta * big_l
    rt = math.sqrt(tl)
    cuts = np.unique(np.concatenate(([0.0], path.jump_u, [1.0])))
    sup = l2 = 0.0
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        s = float(path.value_at(a))
        if which in ("X3", "X5"):
            a = max(a, eps / big_l)
            if which == "X5":
                b = min(b, 1.0 - eps / big_l)
            if a >= b:
                continue
        if which in ("X1", "X3"):
            big_a = s / tl
            wa = rt if which == "X1" else math.sqrt(tl * a)
            wb = rt if which == "X1" else math.sqrt(tl * b)
            sup = max(sup, abs(s - a * tl) / wa, abs(s - b * tl) / wb)
        else:
            big_a = s / path.k_total
            wa = 1.0 if which == "X4" else math.sqrt(a * (1.0 - a))
            wb = 1.0 if which == "X4" else math.sqrt(b * (1.0 - b))
            sup = max(sup, rt * abs(big_a - a) / wa, rt * abs(big_a - b) / wb)
        if which in ("X1", "X4"):
            l2 += tl * ((big_a - a) ** 3 - (big_a - b) ** 3) / 3.0
        elif which == "X3":
            l2 += (
                s * s * math.log(b / a) - 2.0 * s * tl * (b - a) + tl * tl * (b * b - a * a) / 2.0
            ) / tl
        else:
            l2 += tl * (
                big_a**2 * math.log(b / a)
                - (big_a - 1.0) ** 2 * (math.log1p(-b) - math.log1p(-a))
                - (b - a)
            )
    if which in ("X1", "X3"):
        sup = max(sup, abs(path.k_total - tl) / rt)
    return sup, l2


class TestBuildPath:
    def test_two_singletons(self):
        path = build_path(Partition([2, 0]))
        assert path.n == 2
        np.testing.assert_allclose(path.jump_u, [0.0])
        assert path.k_total == 2
        assert path.value_at(0.0) == 2
        assert path.value_at(1.0) == 2

    def test_one_two_cycle(self):
        path = build_path(Partition([0, 1]))
        np.testing.assert_allclose(path.jump_u, [1.0])
        assert path.value_at(0.5) == 0
        assert path.value_at(1.0) == 1

    def test_jump_locations_are_log_ratios(self):
        path = build_path(Partition([1, 2, 0, 1, 0, 0, 0, 0, 0]))
        expected = np.log([1, 2, 4]) / math.log(9)
        np.testing.assert_allclose(path.jump_u, expected, rtol=1e-14)
        np.testing.assert_array_equal(path.cum_counts, [1, 3, 4])

    def test_rejects_n_one(self):
        with pytest.raises(ValueError):
            build_path(Partition([1]))

    @pytest.mark.parametrize("n", [9170, 94869])
    def test_size_n_cycle_jumps_at_one(self, n):
        # math.log(n) and np.log(n) differ in the last bit at these n
        path = build_path(Partition((0,) * (n - 1) + (1,)))
        assert path.jump_u[-1] == 1.0
        assert path.value_at(1.0) == 1
        assert process_value(path, 1.0, "X4", 1.0) == 0.0

    def test_draw_to_path_builds_no_length_n_vector(self):
        params = EsfParams(10**6, 2.0)
        build_path(sample_feller(params, RngState(1), b_max=0).c_n)  # caches p_j
        tracemalloc.start()
        try:
            draw = sample_feller(params, RngState(2), b_max=0)
            path = build_path(draw.c_n)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the window's 1e6 uniforms (8 MB) and success mask (1 MB) are the
        # peak; one dense int64 count vector would add another 8 MB
        assert peak < 12 * 2**20
        assert retained < 2**20
        assert path.k_total == draw.c_n.num_blocks

    def test_keeps_integer_sizes(self):
        path = build_path(Partition([1, 2, 0, 1, 0, 0, 0, 0, 0]))
        np.testing.assert_array_equal(path.sizes, [1, 2, 4])
        assert path.sizes.dtype.kind == "i"


class TestAgainstLoopRoute:
    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 0.4, 50.0])
    @pytest.mark.parametrize("n,theta", [(2, 1.0), (12, 0.3), (1000, 2.0), (50_000, 40.0)])
    def test_array_route_matches_interval_loop(self, n, theta, eps):
        root = RngState(4242)
        for i in range(6):
            path = build_path(sample_feller(EsfParams(n, theta), root.substream(i), b_max=0).c_n)
            for which in ("X1", "X3", "X4", "X5"):
                sup, l2 = functional_stat(path, theta, which, eps)
                sup_l, l2_l = loop_stat(path, theta, which, eps)
                assert sup == sup_l, which
                assert math.isclose(l2, l2_l, rel_tol=1e-12, abs_tol=1e-300), which

    @pytest.mark.parametrize("theta", [1e-9, 0.1, 5.0])
    def test_sup_includes_the_endpoint_value(self, theta):
        # one n-cycle: the only jump is at u = 1, where X1 = X3 = (1 - theta L)/sqrt(theta L)
        path = build_path(Partition((0,) * 999 + (1,)))
        for which in ("X1", "X3"):
            end = abs(process_value(path, theta, which, 1.0))
            sup, _ = functional_stat(path, theta, which)
            assert math.isclose(sup, max(end, math.sqrt(theta * math.log(1000))), rel_tol=1e-15)


class TestX2AgainstDenseRoute:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.floats(math.log10(2), math.log10(2e5)).map(lambda e: round(10.0**e)),
        theta=st.floats(-9.0, 9.0).map(lambda e: 10.0**e),
        draw=st.integers(0, 1000),
    )
    def test_runs_match_dense_route(self, n, theta, draw):
        s = sample_feller(EsfParams(n, theta), RngState(8128).substream(draw), b_max=0)
        path = build_path(s.c_n)
        sup, l2 = functional_stat(path, theta, "X2")
        sup_d, l2_d = dense_x2(path, theta)
        assert sup == sup_d
        assert math.isclose(l2, l2_d, rel_tol=1e-12)

    def test_large_n_where_float64_prefix_sums_drift(self):
        # float64 prefix sums of w_j/H_j and w_j H_j miss 1e-12 here
        params = EsfParams(800_000, 8.0)
        for i in range(5):
            path = build_path(sample_feller(params, RngState(99).substream(i), b_max=0).c_n)
            sup, l2 = functional_stat(path, params.theta, "X2")
            sup_d, l2_d = dense_x2(path, params.theta)
            assert sup == sup_d
            assert math.isclose(l2, l2_d, rel_tol=1e-12)

    @pytest.mark.parametrize("theta", [1.3, 2.0 * (1.0 + 1e-8)])
    @pytest.mark.parametrize("counts", [(2, 0), (0, 1), (0, 0, 0, 0, 1), (5, 0, 0, 0, 0)])
    def test_single_run_edges(self, counts, theta):
        # a jump at j = 1, at j = n, or both: the first or the last run is
        # empty; at (2, 0) with theta near 2, v_1 is near 0
        path = build_path(Partition(counts))
        sup, l2 = functional_stat(path, theta, "X2")
        sup_d, l2_d = dense_x2(path, theta)
        assert sup == sup_d
        assert math.isclose(l2, l2_d, rel_tol=1e-12)

    def test_refused_past_the_table_cap_before_allocating(self):
        have = paths._TABLE.h.size
        params = EsfParams(paths.X2_MAX_N + 1, 2.0)
        with pytest.raises(ValueError, match="at most 10000000"):
            mc_functionals(params, "X2", "sup", DEFAULT_EPS, 1000, RngState(1))
        assert paths._TABLE.h.size == have

    def test_table_growth_leaves_results_unchanged(self):
        # the prefix table is built chunk by chunk from the previous chunk's
        # last entry, so an entry cannot depend on how far the table grew
        script = """
import sys
import numpy as np
from ewens.laws import EsfParams, Partition
from ewens.paths import build_path, functional_stat, process_value
from ewens.sampling import RngState, sample_feller
if sys.argv[1] == "grow":
    counts = np.zeros(1_000_003, dtype=np.int64)
    counts[-1] = 1
    process_value(build_path(Partition(counts)), 2.0, "X2", 1.0)
s = sample_feller(EsfParams(1000, 2.0), RngState(5).substream(0), b_max=0)
print(repr(functional_stat(build_path(s.c_n), 2.0, "X2")))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(ewens.__file__).parents[1])}
        outs = [
            subprocess.run(
                [sys.executable, "-c", script, mode],
                capture_output=True, check=True, text=True, env=env,
            ).stdout
            for mode in ("grow", "fresh")
        ]
        assert outs[0] == outs[1] != ""


class TestHandWorkedClosedForms:
    @pytest.mark.parametrize("n,counts,theta,expected", HAND_WORKED)
    def test_sup_and_l2_match_symbolic_values(self, n, counts, theta, expected):
        path = build_path(Partition(counts))
        for which, (sup_e, l2_e) in expected.items():
            sup, l2 = functional_stat(path, theta, which, eps=0.01)
            assert math.isclose(sup, sup_e, rel_tol=1e-12), which
            assert math.isclose(l2, l2_e, rel_tol=1e-12), which

    @pytest.mark.parametrize("n,counts,theta,expected", HAND_WORKED[:3])
    def test_l2_matches_adaptive_quadrature(self, n, counts, theta, expected):
        path = build_path(Partition(counts))
        eps = 0.01
        for which in ("X1", "X3", "X4", "X5"):
            lo = 0.0
            if which == "X3":
                lo = eps / math.log(n)
            hi = 1.0
            if which == "X5":
                lo, hi = eps / math.log(n), 1.0 - eps / math.log(n)
            val, err = scipy.integrate.quad(
                lambda u: process_value(path, theta, which, u, eps) ** 2,
                lo,
                hi,
                points=list(path.jump_u),
                limit=200,
            )
            assert math.isclose(functional_stat(path, theta, which, eps)[1], val, rel_tol=1e-9)


class TestProcessIdentities:
    def sample_paths(self, count=25):
        from ewens.sampling import sample_feller

        params = EsfParams(1000, 2.0)
        root = RngState(7331)
        return params, [
            build_path(sample_feller(params, root.substream(i), b_max=0).c_n)
            for i in range(count)
        ]

    def test_x4_vanishes_at_endpoint(self):
        params, paths = self.sample_paths()
        for path in paths:
            assert process_value(path, params.theta, "X4", 1.0, DEFAULT_EPS) == 0.0

    def test_x3_is_weighted_x1(self):
        params, paths = self.sample_paths(5)
        for path in paths:
            for u in (0.05, 0.3, 0.77, 1.0):
                x1 = process_value(path, params.theta, "X1", u, DEFAULT_EPS)
                x3 = process_value(path, params.theta, "X3", u, DEFAULT_EPS)
                assert math.isclose(x3, x1 / math.sqrt(u), rel_tol=1e-12)

    def test_x5_is_weighted_x4(self):
        params, paths = self.sample_paths(5)
        for path in paths:
            for u in (0.05, 0.3, 0.77):
                x4 = process_value(path, params.theta, "X4", u, DEFAULT_EPS)
                x5 = process_value(path, params.theta, "X5", u, DEFAULT_EPS)
                assert math.isclose(x5, x4 / math.sqrt(u * (1 - u)), rel_tol=1e-12)

    def test_x4_recenters_x1_by_its_endpoint(self):
        # X4(u) = sqrt(theta L)/K * ((1-u) S(u) - u (K - S(u))) so
        # X4 = (S(u) - u K)/ (K / sqrt(theta L)); compare to the direct form
        params, paths = self.sample_paths(5)
        tl = params.theta * math.log(params.n)
        for path in paths:
            k = path.k_total
            for u in (0.0, 0.21, 0.64, 1.0):
                s = path.value_at(u)
                direct = math.sqrt(tl) * (s / k - u)
                assert math.isclose(
                    process_value(path, params.theta, "X4", u, DEFAULT_EPS),
                    direct,
                    rel_tol=1e-12,
                    abs_tol=1e-15,
                )

    def test_x2_uses_harmonic_centering(self):
        params, paths = self.sample_paths(3)
        theta = params.theta
        for path in paths:
            for u in (0.1, 0.5, 0.9):
                j = math.floor(params.n**u + 1e-9)
                h = math.fsum(1 / i for i in range(1, j + 1))
                expected = (path.value_at(u) - theta * h) / math.sqrt(theta * h)
                assert math.isclose(
                    process_value(path, theta, "X2", u, DEFAULT_EPS), expected, rel_tol=1e-11
                )

    def test_x1_and_x2_centerings_are_close_at_scale(self):
        # theta u L - theta H_{floor(n^u)} stays bounded by theta(1 + gamma),
        # so the sups differ by a vanishing fraction at n = 1000
        params, paths = self.sample_paths(10)
        for path in paths:
            s1, _ = functional_stat(path, params.theta, "X1", DEFAULT_EPS)
            s2, _ = functional_stat(path, params.theta, "X2", DEFAULT_EPS)
            assert abs(s1 - s2) < 3.5 * params.theta / math.sqrt(
                params.theta * math.log(params.n)
            )


class TestFunctionalSampleContainer:
    def test_finite_values_required(self):
        with pytest.raises(ValueError):
            FunctionalSample("X1", "sup", np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            FunctionalSample("X9", "sup", np.array([1.0]))
        with pytest.raises(ValueError):
            FunctionalSample("X1", "median", np.array([1.0]))


def _mc_peak(params):
    """Traced peak bytes of mc_functionals(params, X4 sup, m = 1000), its caches warm."""
    mc_functionals(params, "X4", "sup", DEFAULT_EPS, 1000, RngState(3))  # caches p_j
    tracemalloc.start()
    try:
        mc_functionals(params, "X4", "sup", DEFAULT_EPS, 1000, RngState(4))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMcFunctionals:
    def test_deterministic_and_prefix(self):
        params = EsfParams(500, 1.0)
        a = mc_functionals(params, "X4", "sup", DEFAULT_EPS, 1000, RngState(17))
        b = mc_functionals(params, "X4", "sup", DEFAULT_EPS, 1000, RngState(17))
        assert np.array_equal(a.values, b.values)
        longer = mc_functionals(params, "X4", "sup", DEFAULT_EPS, 1500, RngState(17))
        assert np.array_equal(longer.values[:1000], a.values)

    @pytest.mark.parametrize(
        "which,stat_kind", [(w, k) for w in ("X1", "X2", "X3", "X4", "X5") for k in ("sup", "l2")]
    )
    def test_matches_a_loop_over_substreams(self, which, stat_kind):
        # the reference loop: `functional_stat` on each replicate's path, built
        # from the cells `_FellerHits` draws. The edge draws: n = 2; only
        # singletons at theta = 1e6 (all 1000 paths); a single cycle at
        # theta = 0.05 (693 of 1000); X3/X5 windows cutting the first intervals
        # (eps = 3 at n = 1000 cuts u below 0.43) or every interval (eps = 50);
        # thinned points past a window of 32 at n = 1e4 and of 1 at theta = 0.01
        idx = 0 if stat_kind == "sup" else 1
        for n, theta, eps in EDGE_DRAWS:
            params, rng = EsfParams(n, theta), RngState(44)
            ref = [functional_stat(path, theta, which, eps)[idx] for path in sampled_paths(n, theta)]
            got = mc_functionals(params, which, stat_kind, eps, 1000, rng)
            assert np.array_equal(got.values, ref), (n, theta, eps)

    def test_blocks_must_weigh_n(self):
        # cell 0 is always a success; without it the blocks miss n
        rep, pos = np.array([0, 0, 1, 1, 1, 1]), np.array([0, 4, 0, 1, 2, 9])
        starts, sizes, cum = paths._feller_blocks(10, 2, rep, pos)
        np.testing.assert_array_equal(starts, [0, 2])
        np.testing.assert_array_equal(sizes, [4, 6, 1, 7])
        np.testing.assert_array_equal(cum, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="replicate 1 weigh 8"):
            paths._feller_blocks(10, 2, np.array([0, 0, 1, 1]), np.array([0, 4, 2, 5]))

    def test_kernel_runs_once_per_block_of_replicates(self, monkeypatch):
        calls = []
        kernel = paths._stats

        def counting(n, theta, which, eps, starts, sizes, cum):
            calls.append(starts.size)
            return kernel(n, theta, which, eps, starts, sizes, cum)

        monkeypatch.setattr(paths, "_stats", counting)
        params, rng = EsfParams(1000, 2.0), RngState(44)
        whole = mc_functionals(params, "X5", "l2", DEFAULT_EPS, 1000, rng)
        assert calls == [1000]
        monkeypatch.setattr(paths, "_REPLICATE_BLOCK", 300)
        blocked = mc_functionals(params, "X5", "l2", DEFAULT_EPS, 1000, rng)
        assert calls == [1000, 300, 300, 300, 100]
        assert np.array_equal(blocked.values, whole.values)

    def test_prefix_across_a_block_of_replicates(self):
        params = EsfParams(300, 2.0)
        short = mc_functionals(params, "X1", "l2", DEFAULT_EPS, 4096, RngState(19))
        longer = mc_functionals(params, "X1", "l2", DEFAULT_EPS, 5000, RngState(19))
        assert np.array_equal(longer.values[:4096], short.values)

    def test_blocks_keep_int64_keys_at_huge_n(self, monkeypatch):
        # 4096 replicates' keys of about 4096 (n + 1) pass 2^63 at n = 3e15:
        # the blocks and passes are cut to 3074 replicates, and equal smaller ones
        params = EsfParams(3 * 10**15, 1.0)
        whole = mc_functionals(params, "X4", "sup", DEFAULT_EPS, 4096, RngState(23))
        monkeypatch.setattr(paths, "_REPLICATE_BLOCK", 1000)
        smaller = mc_functionals(params, "X4", "sup", DEFAULT_EPS, 4096, RngState(23))
        assert np.array_equal(smaller.values, whole.values)

    @pytest.mark.parametrize("n,theta", [(1000, 2.0), (200, 30.0)])
    def test_values_do_not_depend_on_the_pass_size(self, n, theta, monkeypatch):
        whole = mc_functionals(EsfParams(n, theta), "X2", "sup", DEFAULT_EPS, 1000, RngState(21))
        monkeypatch.setattr(sampling, "_HIT_VALUES", 500)  # a few replicates a pass
        passes = mc_functionals(EsfParams(n, theta), "X2", "sup", DEFAULT_EPS, 1000, RngState(21))
        assert np.array_equal(passes.values, whole.values)

    @pytest.mark.parametrize("n,theta,parent", [(10**3, 500.0, 25.4), (10**4, 100.0, 21.4)])
    def test_memory_stays_below_the_per_replicate_draws(self, n, theta, parent):
        # the bound is the traced peak, in MiB, of the per-replicate loop that
        # drew these before the block sampler; 17.8 and 18.3 MiB measured, for
        # windows of 1000 and 1600 cells and about 550 and 460 successes a
        # replicate
        assert _mc_peak(EsfParams(n, theta)) <= parent * 2**20

    def test_memory_stays_per_replicate(self):
        # the block's 32-cell windows, its thinned points and then its O(m K)
        # kernel arrays: 2.0 MiB measured, where one m x n boolean array would
        # be 100 MB at m = 1000, n = 1e5
        assert _mc_peak(EsfParams(10**5, 2.0)) < 4 * 2**20

    def test_memory_stays_below_the_window_at_n_1e6(self):
        # 2.4 MiB measured; a dense draw holds n = 1e6 uniforms, 8 MB, at once
        assert _mc_peak(EsfParams(10**6, 2.0)) < 4 * 2**20

    def test_meta_records_configuration(self):
        params = EsfParams(500, 1.0)
        s = mc_functionals(params, "X1", "l2", 0.02, 1000, RngState(5))
        assert s.which == "X1" and s.stat_kind == "l2"

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            mc_functionals(EsfParams(100, 1.0), "X1", "sup", 0.01, 10, RngState(1))


class TestReferenceFunctionals:
    def test_deterministic(self):
        a = reference_functionals("X4", "sup", 0.001, 1 << 10, 200, RngState(31))
        b = reference_functionals("X4", "sup", 0.001, 1 << 10, 200, RngState(31))
        assert np.array_equal(a.values, b.values)

    def test_motion_l2_has_unit_mean(self):
        # E int_0^1 B(t)^2 dt = 1/2; X3 divides by the weight so
        # E int (B/sqrt t)^2 dt = 1 on (eps, 1]
        ref = reference_functionals("X3", "l2", 1e-6, 1 << 12, 4000, RngState(607))
        se = ref.values.std(ddof=1) / math.sqrt(ref.values.size)
        assert abs(ref.values.mean() - 1.0) < 4 * se + 0.01

    def test_endpoint_sup_positive(self):
        ref = reference_functionals("X1", "sup", 0.001, 1 << 10, 200, RngState(9))
        assert float(ref.values.min()) > 0.0

    @pytest.mark.parametrize("which", ["X1", "X2", "X3", "X4", "X5"])
    def test_matches_the_masked_route(self, which):
        # the oracle: a zero column concatenated to the walk, the window as a
        # boolean mask, every process divided by its weight; same normals
        grid_m, m, eps = 1 << 10, 150, 0.013
        t = np.arange(grid_m + 1) / grid_m
        window = (t >= (eps if which in ("X3", "X5") else 0.0)) & (t <= (1.0 - eps if which == "X5" else 1.0))
        w2 = {"X3": t, "X5": t * (1.0 - t)}.get(which, np.ones(t.size))[window]
        incr = RngState(71).generator().standard_normal((m, grid_m)) * (1.0 / math.sqrt(grid_m))
        b = np.concatenate([np.zeros((m, 1)), np.cumsum(incr, axis=1)], axis=1)
        if which in ("X4", "X5"):
            b = b - t[None, :] * b[:, -1:]
        v = b[:, window]
        sup = reference_functionals(which, "sup", eps, grid_m, m, RngState(71)).values
        l2 = reference_functionals(which, "l2", eps, grid_m, m, RngState(71)).values
        assert np.array_equal(sup, np.abs(v / np.sqrt(w2)).max(axis=1))
        np.testing.assert_allclose(l2, np.trapezoid(v * v / w2, t[window], axis=1), rtol=1e-14)

    @pytest.mark.parametrize("which", ["X1", "X2", "X3", "X4", "X5"])
    def test_l2_equals_trapezoid_on_the_window_slice(self, which):
        # the in-place trapezoid sum against np.trapezoid of the squared,
        # weighted window slice, with the same normals: equal bit for bit
        grid_m, m, eps = 1 << 10, 300, 0.013
        t = np.arange(grid_m + 1) / grid_m
        lo = int(np.searchsorted(t, eps)) if which in ("X3", "X5") else 0
        hi = int(np.searchsorted(t, 1.0 - eps, side="right")) if which == "X5" else t.size
        w2 = {"X3": t, "X5": t * (1.0 - t)}.get(which, np.ones(t.size))[lo:hi]
        incr = RngState(72).generator().standard_normal((m, grid_m)) * (1.0 / math.sqrt(grid_m))
        b = np.concatenate([np.zeros((m, 1)), np.cumsum(incr, axis=1)], axis=1)
        if which in ("X4", "X5"):
            b -= t * b[:, -1:]
        v = b[:, lo:hi]
        l2 = reference_functionals(which, "l2", eps, grid_m, m, RngState(72)).values
        assert np.array_equal(l2, np.trapezoid(v * v / w2, t[lo:hi], axis=1))

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            reference_functionals("X1", "sup", 0.001, 100, 200, RngState(1))

    @pytest.mark.parametrize(
        "grid_m,replicates,which,stat,digest",
        [(int(g), int(m), w, s, d) for g, m, w, s, d in (line.split() for line in PINNED_REFERENCE_DIGESTS.strip().splitlines())],
    )
    def test_pinned_output_digest(self, grid_m, replicates, which, stat, digest):
        # the values recorded before the walks were built in cache-sized row
        # blocks; 1500 rows leave a partial last block at either grid
        eps = 0.01 / math.log(5000)
        ref = reference_functionals(which, stat, eps, grid_m, replicates, RngState(sampling.DEFAULT_SEED).substream(2**32))
        assert hashlib.sha256(ref.values.tobytes()).hexdigest() == digest

    def test_memory_stays_at_a_block_at_the_cli_defaults(self):
        # 4096 x 10^4 walks: about 1 GiB when held at once; two blocks of
        # buffers and the values, about 1.2 MiB, when walked in row blocks
        tracemalloc.start()
        try:
            ref = reference_functionals("X5", "l2", 0.01 / math.log(5000), 4096, 10**4, RngState(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert ref.values.size == 10**4


class TestKsDistance:
    def test_two_point_sample_against_uniform(self):
        # empirical CDF of {0.1, 0.9} vs U(0,1): the gap peaks at 0.4
        sample = np.array([0.1] * 100 + [0.9] * 100)
        assert math.isclose(ks_distance(sample, lambda x: np.clip(x, 0.0, 1.0)), 0.4, rel_tol=1e-12)

    def test_identical_samples_have_zero_distance(self):
        a = np.linspace(0.0, 1.0, 500)
        assert ks_distance(a, a.copy()) == 0.0

    def test_disjoint_samples_have_distance_one(self):
        a = np.linspace(0.0, 1.0, 200)
        b = np.linspace(5.0, 6.0, 200)
        assert math.isclose(ks_distance(a, b), 1.0, rel_tol=1e-14)

    def test_accepts_functional_samples(self):
        s = FunctionalSample("X1", "sup", np.abs(np.linspace(0.1, 2.0, 300)))
        d = ks_distance(s, ndtr)
        assert 0.0 <= d <= 1.0

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([1.0, 2.0]), ndtr)

    def test_gaussian_sample_against_normal_cdf(self):
        gen = RngState(404).generator()
        z = gen.standard_normal(20000)
        assert ks_distance(z, ndtr) < 0.015
