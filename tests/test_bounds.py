"""Tests for the feasibility bound formulas, evaluated on base-10 logs."""

import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import (
    BoundReport,
    Categorical,
    DatasetSpec,
    DistributionPair,
    ParameterError,
    achievability_alpha_bound,
    alphabet_log10,
    exact_type3_risk,
    impossibility_min_n,
    load_catalog,
    min_n_exponent,
    near_indistinguishable_pair,
    sbd_infinite_alphabet_feasible,
    sbd_min_n,
    table_report,
    tv_distance,
    type3_risk_floor,
)

class TestImpossibilityMinN:
    def test_alpha_half_is_zero(self):
        for log_k in (6.35, 1888.06, 739811.32):
            n = impossibility_min_n(0.5, 0.001, log_k)
            assert n == -math.inf

    def test_beta_alphabet_below_one_clamps(self):
        assert impossibility_min_n(0.1, 0.0, 100.0) == -math.inf
        assert impossibility_min_n(0.1, 0.001, math.log10(500.0)) == -math.inf

    @pytest.mark.parametrize("log_k", [-1.0, math.inf, math.nan])
    def test_bad_log_alphabet_rejected(self, log_k):
        with pytest.raises(ParameterError):
            impossibility_min_n(0.1, 0.001, log_k)
        with pytest.raises(ParameterError):
            sbd_min_n(0.1, 0.001, 0.25, log_k)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            impossibility_min_n(0.0, 0.5, math.log10(10.0))
        with pytest.raises(ParameterError):
            impossibility_min_n(0.7, 0.5, math.log10(10.0))

    def test_matches_direct_float_evaluation(self):
        for alpha in (0.01, 0.1, 0.3, 0.49):
            for beta, k in ((0.25, 10**6), (0.5, 10**4), (0.9, 100)):
                a = math.log(2 * alpha)
                expected = max(
                    0.0, a / 2 + math.sqrt(a * a / 4 + (beta * k - 1) * (-a))
                )
                got = impossibility_min_n(alpha, beta, math.log10(k))
                if expected == 0.0 or beta * k <= 1.0:
                    continue
                assert 10**got == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_alpha(self):
        log_k = 20.0
        values = [
            impossibility_min_n(a, 0.01, log_k) for a in (0.01, 0.05, 0.1, 0.3, 0.5)
        ]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi

    def test_monotone_in_beta_alphabet(self):
        values = [
            impossibility_min_n(0.1, 0.01, e)
            for e in (4.0, 8.0, 16.0, 100.0)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi

    def test_alpha_to_zero_approaches_beta_alphabet(self):
        # with beta*K = 5 and alpha = 1e-300 the bound sits within 1% of beta*K - 1
        target = 0.5 * 10 - 1
        got = 10 ** impossibility_min_n(1e-300, 0.5, math.log10(10))
        assert got == pytest.approx(target, rel=0.01)
        farther = 10 ** impossibility_min_n(1e-30, 0.5, math.log10(10))
        assert farther < got


def reference_min_n(alpha: float, beta: float, log_k: float) -> tuple[float, decimal.Decimal]:
    """(log10 N_min, beta*|X| - 1) in 60-digit decimal arithmetic on the exact
    input floats, where N_min = sqrt(L^2/4 + (beta*|X| - 1) L) - L/2 and
    L = -ln(2 alpha); log10 N_min is -inf when the bound is 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax = decimal.MAX_EMAX
        big_l = -(2 * decimal.Decimal(alpha)).ln()
        excess = decimal.Decimal(beta) * decimal.Decimal(10) ** decimal.Decimal(log_k) - 1
        if big_l <= 0 or excess <= 0:
            return -math.inf, excess
        min_n = (big_l * big_l / 4 + excess * big_l).sqrt() - big_l / 2
        return float(min_n.log10()), excess


class TestDecimalReference:
    """log10 N_min within 1e-13 * max(1, |log10 N_min|) of a 60-digit reference.

    Within 1% above beta*|X| = 1 the value is ill-conditioned in the inputs
    themselves: one ulp of beta moves log10 N_min by more than the tolerance.
    There N_min < (beta*|X| - 1) < 0.01, and that is what is checked.
    """

    @staticmethod
    def assert_matches(alpha: float, beta: float, log_k: float) -> None:
        got = impossibility_min_n(alpha, beta, log_k)
        ref, excess = reference_min_n(alpha, beta, log_k)
        if excess < decimal.Decimal("0.01"):
            assert got < -2.0 + 1e-13
        else:
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (got, ref)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(0.1, 0.001), (0.05, 0.001), (0.01, 0.0001), (0.3, 0.01), (0.49, 1.0), (1e-300, 0.5)],
    )
    def test_bundled_catalog(self, alpha, beta):
        for spec in load_catalog():
            self.assert_matches(alpha, beta, alphabet_log10(spec))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-300, 0.49),
        st.floats(1e-4, 1.0),
        st.floats(0.0, 7.4e5),
    )
    def test_random_inputs(self, alpha, beta, log_k):
        self.assert_matches(alpha, beta, log_k)


class TestGoldenTable:
    EXPECTED = {
        "Lisa Traffic Sign": 369904,
        "ImageNet": 181252,
        "CIFAR10": 3697,
        "MNIST": 942,
        "B/W MNIST": 116,
        "Adult": 9,
        "Heart Disease": 5,
        "Iris": 1,
    }

    def test_bundled_catalog_exponents(self):
        rows = table_report(0.1, 0.001, load_catalog())
        assert {r.name: r.min_n_exponent for r in rows} == self.EXPECTED

    def test_alphabet_log10_values(self):
        catalog = {spec.name: spec for spec in load_catalog()}
        bw = alphabet_log10(catalog["B/W MNIST"])
        assert bw == pytest.approx(784 * math.log10(2), abs=1e-9)
        mnist = alphabet_log10(catalog["MNIST"])
        assert mnist == pytest.approx(1888.1, abs=0.1)
        assert alphabet_log10(catalog["Iris"]) == pytest.approx(6.35)

    def test_categorical_cardinalities_shape(self):
        spec = DatasetSpec(name="t", cardinalities=(10, 20, 5))
        assert alphabet_log10(spec) == pytest.approx(math.log10(1000))

    def test_incomplete_image_shape_rejected(self):
        with pytest.raises(ParameterError):
            DatasetSpec(name="t", width=10, height=10)

    def test_negative_exponent_report_rejected(self):
        with pytest.raises(ParameterError):
            BoundReport(name="t", log10_alphabet=1.0, min_n_exponent=-1)

    def test_exponent_clamps_at_zero(self):
        assert min_n_exponent(-math.inf) == 0
        assert min_n_exponent(math.log10(0.5)) == 0
        assert min_n_exponent(math.log10(59.2)) == 1


class TestAchievability:
    def test_gamma_zero_unsatisfiable(self):
        assert achievability_alpha_bound(100, 0.0, 0.1, 5) == 10.0

    def test_beta_one_unsatisfiable(self):
        assert achievability_alpha_bound(100, 0.5, 1.0, 5) == 10.0

    def test_binary_alphabet_value(self):
        got = achievability_alpha_bound(100, 1.0, 0.0, 2)
        assert got == pytest.approx(4.0 * math.exp(-50.0), rel=1e-12)
        assert got == pytest.approx(7.715e-22, rel=1e-3)

    def test_monotone_increasing_in_alphabet(self):
        values = [achievability_alpha_bound(50, 1.0, 0.0, k) for k in (2, 4, 8, 64)]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi


class TestRiskFloor:
    def test_indistinguishable_pair(self):
        assert type3_risk_floor(0.5, 10, 0.0) == 0.5

    def test_clamps_at_zero(self):
        assert type3_risk_floor(1.0, 10, 1.0) == 0.0

    def test_hand_value(self):
        assert type3_risk_floor(0.1, 2, 1.0) == pytest.approx(0.4)

    def test_exact_risk_identical_distributions(self):
        p = Categorical.uniform(2)
        pair = DistributionPair(p, p, gamma=1.0, beta=0.5)
        assert exact_type3_risk(pair, 3) == pytest.approx(0.5)

    def test_exact_risk_disjoint_supports(self):
        pair = DistributionPair(
            Categorical.point_mass(0, 2), Categorical.point_mass(1, 2), 1.0, 0.0
        )
        for n in (1, 2, 4):
            assert exact_type3_risk(pair, n) == pytest.approx(0.0)

    def test_exact_risk_half_mixture(self):
        pair = DistributionPair(
            Categorical.uniform(2), Categorical.point_mass(0, 2), 0.5, 0.5
        )
        assert exact_type3_risk(pair, 2) == pytest.approx(0.34375, abs=1e-15)


class TestSbdBound:
    def test_alpha_equals_r_is_zero(self):
        assert sbd_min_n(0.25, 0.001, 0.25, 100.0) == -math.inf

    def test_r_half_reproduces_impossibility(self):
        for alpha in (0.05, 0.1, 0.3):
            for log_k in (6.35, 942.0):
                assert sbd_min_n(alpha, 0.001, 0.5, log_k) == impossibility_min_n(
                    alpha, 0.001, log_k
                )

    def test_matches_direct_float_evaluation(self):
        alpha, r, beta, k = 0.1, 0.25, 0.001, 10**6
        a = math.log(alpha / r)
        expected = a / 2 + math.sqrt(a * a / 4 + (beta * k - 1) * (-a))
        got = sbd_min_n(alpha, beta, r, math.log10(k))
        assert 10**got == pytest.approx(expected, rel=1e-9)

    def test_r_validation(self):
        with pytest.raises(ParameterError):
            sbd_min_n(0.1, 0.001, 0.0, math.log10(10.0))

    def test_infinite_alphabet_verdict(self):
        assert sbd_infinite_alphabet_feasible(0.3, 0.25)
        assert not sbd_infinite_alphabet_feasible(0.1, 0.25)


class TestNearIndistinguishablePair:
    def test_documented_construction(self):
        pair = near_indistinguishable_pair(gamma=1.0, n=10, epsilon=0.25)
        assert pair.alphabet_size == 21
        assert pair.pb.probs[0] == 0.0
        assert tv_distance(pair.p0, pair.pb) == pytest.approx(1 / 21, abs=1e-12)
        assert tv_distance(pair.p0, pair.pb) <= 0.05

    def test_small_support_construction(self):
        pair = near_indistinguishable_pair(gamma=1.0, n=2, epsilon=0.5)
        assert pair.alphabet_size == 3
        assert tv_distance(pair.p0, pair.pb) == pytest.approx(1 / 3, abs=1e-12)

    def test_risk_floor_conclusion(self):
        for gamma, n, eps in ((1.0, 10, 0.25), (0.5, 20, 0.1), (0.8, 8, 0.3)):
            pair = near_indistinguishable_pair(gamma, n, eps)
            floor = type3_risk_floor(gamma, n, tv_distance(pair.p0, pair.pb))
            assert floor >= 0.5 - eps - 1e-12

    def test_too_small_support_rejected(self):
        with pytest.raises(ParameterError):
            near_indistinguishable_pair(gamma=0.1, n=1, epsilon=0.5)


class TestCatalogLoading:
    def test_external_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('[{"name": "tiny", "log10_size": 3.0}]')
        rows = table_report(0.1, 0.5, load_catalog(str(path)))
        assert rows[0].name == "tiny"
        assert rows[0].log10_alphabet == pytest.approx(3.0)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"name": "tiny"}')
        with pytest.raises(ParameterError):
            load_catalog(str(path))
