"""Tests for log-space arithmetic and the feasibility bound formulas."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import (
    BoundReport,
    Categorical,
    DatasetSpec,
    DistributionPair,
    LogNumber,
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

positive_floats = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


class TestLogNumber:
    def test_zero_round_trip(self):
        z = LogNumber.from_float(0.0)
        assert z.is_zero and z.to_float() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            LogNumber.from_float(-1.0)

    def test_huge_exponent(self):
        big = LogNumber.from_log10(3697.5)
        assert big.to_float() == math.inf
        assert big.power(2).log10_value == pytest.approx(7395.0)

    @settings(max_examples=100, deadline=None)
    @given(positive_floats, positive_floats)
    def test_arithmetic_matches_floats(self, a, b):
        la, lb = LogNumber.from_float(a), LogNumber.from_float(b)
        assert (la * lb).to_float() == pytest.approx(a * b, rel=1e-12)
        assert (la + lb).to_float() == pytest.approx(a + b, rel=1e-12)
        assert (la / lb).to_float() == pytest.approx(a / b, rel=1e-12)
        if a >= b:
            diff = (la - lb).to_float()
            assert diff == pytest.approx(a - b, rel=1e-9, abs=1e-9 * a)
        assert (la < lb) == (a < b)

    def test_adjacent_floats_ordered(self):
        below, top = math.nextafter(1e6, 0.0), 1e6
        assert math.log10(below) == math.log10(top)  # the logs collide
        lb, lt = LogNumber.from_float(below), LogNumber.from_float(top)
        assert lb < lt and lb <= lt and lb != lt and not lt < lb
        assert (lt - lb).is_zero

    def test_subtraction_of_larger_rejected(self):
        with pytest.raises(ParameterError):
            LogNumber.from_float(1.0) - LogNumber.from_float(2.0)

    def test_subtracting_negligible_term(self):
        big = LogNumber.from_log10(1000.0)
        assert (big - LogNumber.from_float(5.0)).log10_value == pytest.approx(1000.0)

    def test_sqrt(self):
        assert LogNumber.from_float(81.0).sqrt().to_float() == pytest.approx(9.0)


class TestImpossibilityMinN:
    def test_alpha_half_is_zero(self):
        for log_k in (6.35, 1888.06, 739811.32):
            n = impossibility_min_n(0.5, 0.001, LogNumber.from_log10(log_k))
            assert n.is_zero

    def test_beta_alphabet_below_one_clamps(self):
        assert impossibility_min_n(0.1, 0.0, LogNumber.from_log10(100.0)).is_zero
        assert impossibility_min_n(0.1, 0.001, LogNumber.from_float(500.0)).is_zero

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            impossibility_min_n(0.0, 0.5, LogNumber.from_float(10.0))
        with pytest.raises(ParameterError):
            impossibility_min_n(0.7, 0.5, LogNumber.from_float(10.0))

    def test_matches_direct_float_evaluation(self):
        for alpha in (0.01, 0.1, 0.3, 0.49):
            for beta, k in ((0.25, 10**6), (0.5, 10**4), (0.9, 100)):
                a = math.log(2 * alpha)
                expected = max(
                    0.0, a / 2 + math.sqrt(a * a / 4 + (beta * k - 1) * (-a))
                )
                got = impossibility_min_n(alpha, beta, LogNumber.from_float(k))
                if expected == 0.0 or beta * k <= 1.0:
                    continue
                assert got.to_float() == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_alpha(self):
        log_k = LogNumber.from_log10(20.0)
        values = [
            impossibility_min_n(a, 0.01, log_k) for a in (0.01, 0.05, 0.1, 0.3, 0.5)
        ]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi

    def test_monotone_in_beta_alphabet(self):
        values = [
            impossibility_min_n(0.1, 0.01, LogNumber.from_log10(e))
            for e in (4.0, 8.0, 16.0, 100.0)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi

    def test_alpha_to_zero_approaches_beta_alphabet(self):
        # with beta*K = 5 and alpha = 1e-300 the bound sits within 1% of beta*K - 1
        target = 0.5 * 10 - 1
        got = impossibility_min_n(1e-300, 0.5, LogNumber.from_float(10)).to_float()
        assert got == pytest.approx(target, rel=0.01)
        farther = impossibility_min_n(1e-30, 0.5, LogNumber.from_float(10)).to_float()
        assert farther < got


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
        bw = alphabet_log10(catalog["B/W MNIST"]).log10_value
        assert bw == pytest.approx(784 * math.log10(2), abs=1e-9)
        mnist = alphabet_log10(catalog["MNIST"]).log10_value
        assert mnist == pytest.approx(1888.1, abs=0.1)
        assert alphabet_log10(catalog["Iris"]).log10_value == pytest.approx(6.35)

    def test_categorical_cardinalities_shape(self):
        spec = DatasetSpec(name="t", cardinalities=(10, 20, 5))
        assert alphabet_log10(spec).log10_value == pytest.approx(math.log10(1000))

    def test_incomplete_image_shape_rejected(self):
        with pytest.raises(ParameterError):
            DatasetSpec(name="t", width=10, height=10)

    def test_negative_exponent_report_rejected(self):
        with pytest.raises(ParameterError):
            BoundReport(name="t", log10_alphabet=1.0, min_n_exponent=-1)

    def test_exponent_clamps_at_zero(self):
        assert min_n_exponent(LogNumber.zero()) == 0
        assert min_n_exponent(LogNumber.from_float(0.5)) == 0
        assert min_n_exponent(LogNumber.from_float(59.2)) == 1


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
        assert sbd_min_n(0.25, 0.001, 0.25, LogNumber.from_log10(100.0)).is_zero

    def test_r_half_reproduces_impossibility(self):
        for alpha in (0.05, 0.1, 0.3):
            for log_k in (6.35, 942.0):
                lk = LogNumber.from_log10(log_k)
                assert sbd_min_n(alpha, 0.001, 0.5, lk) == impossibility_min_n(
                    alpha, 0.001, lk
                )

    def test_matches_direct_float_evaluation(self):
        alpha, r, beta, k = 0.1, 0.25, 0.001, 10**6
        a = math.log(alpha / r)
        expected = a / 2 + math.sqrt(a * a / 4 + (beta * k - 1) * (-a))
        got = sbd_min_n(alpha, beta, r, LogNumber.from_float(k))
        assert got.to_float() == pytest.approx(expected, rel=1e-9)

    def test_r_validation(self):
        with pytest.raises(ParameterError):
            sbd_min_n(0.1, 0.001, 0.0, LogNumber.from_float(10.0))

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
