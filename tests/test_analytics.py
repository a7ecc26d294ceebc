"""Exact-arithmetic checks of the closed-form resource formulas."""

import math
from fractions import Fraction

import pytest

from freearm import analytics


def full_retry_arms_expectation(m, cutoff=300):
    """Independent truncated-sum oracle for the full-CZ-retry arms per side.

    The weave ends in round k when both sides succeed there (s^2, with
    s = m/(m+1)) after k-1 rounds that were not joint successes; side A
    failed in j of those (1-s each) and succeeded while B failed in the rest
    (s(1-s) each).  Side A then used j + 1 arms.
    """
    s = m / (m + 1)
    return math.fsum((j + 1) * math.comb(k - 1, j) * (1 - s) ** j
                     * (s * (1 - s)) ** (k - 1 - j) * s * s
                     for k in range(1, cutoff) for j in range(k))


class TestSuccessProbabilities:
    @pytest.mark.parametrize("n,expected", [
        (1, Fraction(1, 2)),
        (2, Fraction(2, 3)),
        (3, Fraction(3, 4)),
        (10, Fraction(10, 11)),
    ])
    def test_teleport_success(self, n, expected):
        assert analytics.ftel_success(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
    def test_gate_success_is_teleport_squared(self, n):
        assert analytics.cz_success(n) == analytics.ftel_success(n) ** 2

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
    def test_step_back_is_half_failure(self, n):
        # q = (1 - p)/2: failure splits evenly between backward and neutral
        assert analytics.step_back_prob(n) == (1 - analytics.cz_success(n)) / 2

    def test_probabilities_bounded(self):
        for n in range(1, 40):
            assert 0 < analytics.cz_success(n) < 1
            assert 0 < analytics.step_back_prob(n) < Fraction(1, 2)


class TestWalkRates:
    @pytest.mark.parametrize("n,expected", [
        (2, Fraction(6)),
        (3, Fraction(32, 11)),
        (4, Fraction(50, 23)),
    ])
    def test_attempts_per_link(self, n, expected):
        assert analytics.attempts_per_link(n) == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_attempts_is_inverse_drift(self, n):
        p = analytics.cz_success(n)
        q = analytics.step_back_prob(n)
        assert analytics.attempts_per_link(n) == 1 / (p - q)

    def test_per_link_resources_order_two(self):
        r = analytics.resources_per_link(2)
        assert r.two_photon_units == Fraction(27, 2)
        assert r.cs_states == Fraction(45, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_per_link_closed_forms(self, n):
        r = analytics.resources_per_link(n)
        denom = 2 * n * n - 2 * n - 1
        assert r.two_photon_units == Fraction(2 * (n + 1) ** 4, n * n * denom)
        assert r.cs_states == Fraction(2 * (n + 1) ** 3 * (2 * n + 1), n * n * denom)

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_large_order_limits(self, n):
        # near-deterministic gates: ~1 attempt, ~1 unit, ~2 ancillas per link
        assert abs(float(analytics.attempts_per_link(n)) - 1) < 4 / n
        r = analytics.resources_per_link(n)
        assert abs(float(r.two_photon_units) - 1) < 6 / n
        assert abs(float(r.cs_states) - 2) < 10 / n


class TestGateCosts:
    def test_gate_cost_order_two(self):
        g = analytics.resources_per_gate(2, 2)
        assert g.construction_cs == Fraction(135, 2)
        assert g.construction_units == Fraction(81, 2)
        assert g.weave_cs == Fraction(9, 4)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_gate_cost_composition(self, n, m):
        g = analytics.resources_per_gate(n, m)
        link = analytics.resources_per_link(n)
        factor = 2 * Fraction(m + 1, m)
        assert g.construction_cs == factor * link.cs_states
        assert g.construction_units == factor * link.two_photon_units
        assert g.weave_cs == Fraction((m + 1) ** 2, m * m)

    @pytest.mark.parametrize("m,expected", [(1, Fraction(2)), (2, Fraction(3, 2)),
                                            (3, Fraction(4, 3))])
    def test_free_arms_per_chain(self, m, expected):
        assert analytics.free_arms_per_gate_per_chain(m) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_full_retry_arms_per_side(self, m):
        assert analytics.full_retry_arms_per_side(m) == Fraction(m * m + m + 1, m * m)
        assert abs(full_retry_arms_expectation(m)
                   - float(analytics.full_retry_arms_per_side(m))) < 1e-12


class TestClusterVariant:
    @pytest.mark.parametrize("n,units,cs", [
        (1, Fraction(16, 3), Fraction(28, 3)),
        (2, Fraction(81, 34), Fraction(117, 34)),
    ])
    def test_cluster_rates(self, n, units, cs):
        r = analytics.cluster_resources_per_unit(n)
        assert r.two_photon_units == units
        assert r.cs_states == cs

    def test_cluster_defined_at_order_one(self):
        # the four-photon-unit variant tolerates order 1, unlike the plain walk
        r = analytics.cluster_resources_per_unit(1)
        assert r.two_photon_units > 0


class TestDomainErrors:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_order_validation(self, bad):
        with pytest.raises(analytics.OrderOutOfRangeError):
            analytics.ftel_success(bad)

    def test_negative_drift_rejected(self):
        with pytest.raises(analytics.NonPositiveDriftError):
            analytics.attempts_per_link(1)
        with pytest.raises(analytics.NonPositiveDriftError):
            analytics.resources_per_gate(1, 2)

    def test_resource_rates_positive(self):
        with pytest.raises(ValueError):
            analytics.ResourceRates(Fraction(0), Fraction(1))


class TestSerialization:
    def test_decimal_rendering(self):
        assert analytics.to_decimal(Fraction(45, 2)) == "22.5"
        assert analytics.to_decimal(Fraction(32, 11), sig=6) == "2.90909"
