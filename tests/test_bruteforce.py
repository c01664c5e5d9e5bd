"""Enumeration-oracle tests.

The oracle is itself checked against exact rational arithmetic and a frozen
hand computation of the prefix distance at n = 2, where every quantity can
be written down in closed form. Stirling rows are checked by brute-force
cycle counting over permutations.
"""

import itertools
import math
from fractions import Fraction

import pytest

from ewens.bruteforce import (
    STIRLING_CAP,
    db_bruteforce,
    enumerate_esf,
    joint_prefix_law,
    stirling_first_row,
)
from ewens.laws import EsfParams, Partition, esf_pmf, partitions_of, tlm_pmf


class TestEnumerateEsf:
    @pytest.mark.parametrize("n,theta", [(1, 1.0), (4, 0.5), (8, 2.0), (12, 5.0)])
    def test_total_mass_one(self, n, theta):
        table = enumerate_esf(EsfParams(n, theta))
        assert math.isclose(math.fsum(p for _, p in table.entries), 1.0, rel_tol=1e-12)

    def test_rows_match_pointwise_pmf(self):
        params = EsfParams(7, 1.5)
        table = enumerate_esf(params)
        assert len(table.entries) == len(partitions_of(7))
        for part, p in table.entries:
            assert math.isclose(p, esf_pmf(params, part), rel_tol=1e-13)

    @pytest.mark.parametrize("theta", [1e-9, 0.3, 1.0, 2.5, 1e4])
    def test_rows_equal_pointwise_pmf_bit_for_bit(self, theta):
        # one normaliser per table, then esf_pmf's terms in its order
        for n in range(1, 17):
            params = EsfParams(n, theta)
            table = enumerate_esf(params)
            assert table.counts == partitions_of(n)
            assert table.probs == [esf_pmf(params, Partition(c)) for c in table.counts]
            assert [(part.as_tuple(), p) for part, p in table.entries] == list(zip(table.counts, table.probs))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_esf(EsfParams(17, 1.0))


class TestJointPrefixLaw:
    @pytest.mark.parametrize("n,b,theta", [(5, 1, 1.0), (5, 3, 2.0), (8, 2, 0.5)])
    def test_marginalizes_the_full_table(self, n, b, theta):
        params = EsfParams(n, theta)
        law = joint_prefix_law(params, b)
        direct = {}
        for counts in partitions_of(n):
            key = counts[:b]
            direct[key] = direct.get(key, 0.0) + esf_pmf(params, Partition(counts))
        assert set(law) == set(direct)
        for key in law:
            assert math.isclose(law[key], direct[key], rel_tol=1e-12)

    def test_mass_one(self):
        law = joint_prefix_law(EsfParams(9, 2.0), 4)
        assert math.isclose(math.fsum(law.values()), 1.0, rel_tol=1e-12)

    def test_table_answers_every_b_as_the_wrappers_do(self):
        params = EsfParams(9, 1.3)
        table = enumerate_esf(params)
        for b in range(1, 10):
            assert table.prefix_law(b) == joint_prefix_law(params, b)
            assert table.poisson_tv(b) == db_bruteforce(params, b)


class TestDbBruteforce:
    def test_hand_worked_n2(self):
        # n=2, theta=1, b=1. C_1 is 0 or 2 with probability 1/2 each;
        # Z_1 ~ Poisson(1). d_1 = sum_m P(Z_1 = m) (1 - P(C_1 = m)/P(Z_1 = m))^+
        # restricted to the matchable atoms:
        #   m=0: (e^{-1} - 1/2)^+ = 0, m=2: (e^{-1}/2 - 1/2)^+ = 0
        #   unmatched Poisson mass: m=1 and m >= 3.
        z = [math.exp(-1) / math.factorial(m) for m in range(3)]
        expected = (
            max(z[0] - 0.5, 0.0)
            + z[1]
            + max(z[2] - 0.5, 0.0)
            + (1.0 - math.fsum(z))
        )
        got = db_bruteforce(EsfParams(2, 1.0), 1)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(got, 0.4481808382428366, rel_tol=1e-13)

    def test_exact_rational_cross_check_n3(self):
        # Same quantity at n=3, theta=2, b=1 with rationals for the ESF side:
        # P(C_1 = 3) = 1/3, P(C_1 = 1) = 1/2, P(C_1 = 0) = 1/6.
        params = EsfParams(3, 2.0)
        c1 = {0: Fraction(1, 6), 1: Fraction(1, 2), 3: Fraction(1, 3)}
        lam = 2.0
        acc = 0.0
        for m in range(0, 60):
            pz = math.exp(-lam) * lam**m / math.factorial(m)
            acc += max(pz - float(c1.get(m, 0)), 0.0)
        assert math.isclose(db_bruteforce(params, 1), acc, rel_tol=1e-10)

    def test_zero_when_prefix_matches_poisson_exactly(self):
        # d_b is a positive-part integral, so it is always within [0, 1]
        for theta in (0.5, 1.0, 2.0):
            for b in (1, 2, 4):
                v = db_bruteforce(EsfParams(5, theta), b)
                assert 0.0 <= v <= 1.0

    def test_monotone_in_b(self):
        # Conditioning a longer prefix can only move the joint law further
        # from the independent Poisson block.
        params = EsfParams(8, 1.0)
        values = [db_bruteforce(params, b) for b in range(1, 8)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            db_bruteforce(EsfParams(13, 1.0), 1)


class TestTlmAgainstEnumeration:
    def test_prefix_weight_law_via_partitions(self):
        # P(T_03 = v) from tlm_pmf matches direct summation over the full
        # (unconditioned) Poisson product restricted to weight v: for v <= 3
        # the partitions of v enumerate exactly the contributing states.
        theta = 1.7
        pmf = tlm_pmf(theta, 0, 3, 12)
        for v in (0, 1, 2, 3):
            acc = Fraction(0)
            for counts in ([()] if v == 0 else partitions_of(v)):
                term = Fraction(1)
                for j, aj in enumerate(counts, start=1):
                    if j > 3:
                        term = Fraction(0)
                        break
                    term *= Fraction(17, 10 * j) ** aj / math.factorial(aj)
                acc += term
            h3 = Fraction(11, 6)
            expected = float(acc) * math.exp(-theta * float(h3))
            assert math.isclose(pmf.prob(v), expected, rel_tol=1e-12)


def cycle_count_table(n):
    """Number of permutations of n with k cycles, by exhaustive enumeration."""
    table = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        table[cycles] += 1
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stirling_row_matches_permutation_count(n):
    table = cycle_count_table(n)
    row = stirling_first_row(n)
    assert len(row) == n + 1
    assert row[0] == 0
    for k in range(1, n + 1):
        assert row[k] == table[k]


@pytest.mark.parametrize("n", [1, 5, 20, 90])
def test_stirling_row_identities(n):
    row = stirling_first_row(n)
    assert sum(row) == math.factorial(n)
    assert row[1] == math.factorial(n - 1)
    assert row[n] == 1
    if n >= 2:
        assert row[n - 1] == n * (n - 1) // 2


def test_stirling_rejects_bad_input():
    with pytest.raises(ValueError):
        stirling_first_row(-1)
    with pytest.raises(ValueError):
        stirling_first_row(STIRLING_CAP + 1)
