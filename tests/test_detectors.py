"""Tests for the detector hierarchy, the KS primitive, and the reductions."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtr, ndtri

from bdlimits import (
    AlphabetMismatchError,
    Categorical,
    DistributionPair,
    ImpossibleSampleError,
    ParameterError,
    SymbolDataset,
    estimate_risk,
    ks_pvalue,
    ks_statistic,
    np_type3,
    ood_risk_exact,
    per_row,
    tv_distance,
    type1_tv,
    type2_tv,
    type1_trial_detector,
    type2_trial_detector,
)
from bdlimits.detectors import kolmogorov_sf, normal_cdf, tv_threshold, type1_distances
from bdlimits.distributions import draw_symbols
from bdlimits.rng import substream


def pair_of(p0, pb, gamma, beta=0.0):
    return DistributionPair(Categorical(np.array(p0)), Categorical(np.array(pb)), gamma, beta)


class TestNpType3:
    def test_disjoint_support_backdoor_side(self):
        pair = pair_of([1.0, 0.0], [0.0, 1.0], gamma=1.0)
        d = SymbolDataset(np.array([1, 1]), 2)
        assert np_type3(d, pair) == 1

    def test_disjoint_support_clean_side(self):
        pair = pair_of([1.0, 0.0], [0.0, 1.0], gamma=1.0)
        d = SymbolDataset(np.array([0, 0]), 2)
        assert np_type3(d, pair) == 0

    def test_hand_computed_llr(self):
        # p1 = (0.375, 0.625); llr of (1, 0) is log 2.5 + log 0.5 = log 1.25 > 0
        pair = pair_of([0.75, 0.25], [0.0, 1.0], gamma=0.5)
        d = SymbolDataset(np.array([1, 0]), 2)
        assert np_type3(d, pair) == 1

    def test_tie_resolves_to_backdoored(self):
        pair = pair_of([0.5, 0.5], [0.5, 0.5], gamma=1.0)
        d = SymbolDataset(np.array([0, 1]), 2)
        assert np_type3(d, pair) == 1

    @pytest.mark.parametrize("k", [2, 5])
    def test_alphabet_mismatch_raises(self, k):
        pair = pair_of([0.5, 0.3, 0.2], [0.1, 0.1, 0.8], gamma=0.5)
        d = SymbolDataset(np.array([0, k - 1]), k)
        with pytest.raises(AlphabetMismatchError):
            np_type3(d, pair)

    def test_impossible_symbol_raises(self):
        pair = pair_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], gamma=1.0)
        d = SymbolDataset(np.array([2]), 3)
        with pytest.raises(ImpossibleSampleError):
            np_type3(d, pair)


class TestType2Tv:
    def test_type_equal_to_p0_is_clean(self):
        d = SymbolDataset(np.array([0, 1]), 2)
        assert type2_tv(d, Categorical.uniform(2), gamma=1.0, beta=0.0) == 0

    def test_concentrated_dataset_flagged(self):
        # type (1,0,0,0) vs uniform on 4: TV = 0.75 >= 0.5
        d = SymbolDataset(np.array([0, 0, 0, 0]), 4)
        assert type2_tv(d, Categorical.uniform(4), gamma=1.0, beta=0.0) == 1

    def test_exact_threshold_flagged(self):
        # type (1,0): TV to (0.5,0.5) = 0.5, threshold gamma(1-beta)/2 = 0.5
        d = SymbolDataset(np.array([0]), 2)
        assert type2_tv(d, Categorical.uniform(2), gamma=1.0, beta=0.0) == 1
        # type (3/4, 1/4): TV = 0.25, threshold at beta = 0.5 = 0.25; the
        # clean sample [0, 1] has type (1/2, 1/2), so type1_tv ties as well,
        # and so do the block scorers
        d = SymbolDataset(np.array([0, 0, 0, 1]), 2)
        pair = DistributionPair(Categorical.uniform(2), Categorical.uniform(2), 1.0, 0.5)
        clean = np.array([[0, 1]])
        assert type2_tv(d, pair.p0, pair.gamma, pair.beta) == 1
        assert type1_tv(d, SymbolDataset(clean[0], 2), pair.gamma, pair.beta) == 1
        assert type2_trial_detector()(pair)(d.symbols[None, :], substream(0, 0)).tolist() == [1]
        threshold = tv_threshold(pair.gamma, pair.beta)
        assert (type1_distances(d.symbols[None, :], clean, 2) >= threshold).tolist() == [True]

    def test_verdicts_are_plain_ints(self):
        pair = pair_of([0.75, 0.25], [0.0, 1.0], gamma=0.5)
        d = SymbolDataset(np.array([1, 0]), 2)
        for verdict in (
            np_type3(d, pair),
            type2_tv(d, pair.p0, pair.gamma, pair.beta),
            type1_tv(d, SymbolDataset(np.array([0, 0, 1]), 2), pair.gamma, pair.beta),
        ):
            assert type(verdict) is int and verdict in (0, 1)

    def test_parameter_validation(self):
        d = SymbolDataset(np.array([0]), 2)
        with pytest.raises(ParameterError):
            type2_tv(d, Categorical.uniform(2), gamma=0.0, beta=0.0)
        with pytest.raises(ParameterError):
            type2_tv(d, Categorical.uniform(2), gamma=0.5, beta=1.0)


class TestKsStatistic:
    def test_single_median_value(self):
        assert ks_statistic([0.0], lambda x: ndtr(x)) == pytest.approx(0.5)

    def test_values_at_quantiles(self):
        n = 40
        quantiles = ndtri((np.arange(1, n + 1)) / (n + 1))
        d = ks_statistic(quantiles, lambda x: ndtr(x))
        assert d <= 1.0 / (n + 1) + 1e-9

    def test_gross_misfit(self):
        values = np.full(20, -50.0)
        assert ks_statistic(values, lambda x: ndtr(x)) > 0.99

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ks_statistic([], lambda x: ndtr(x))


class TestNormalCdf:
    """The package's normal CDF against scipy's ``ndtr`` as a reference."""

    def test_matches_ndtr(self):
        x = np.concatenate([np.linspace(-30.0, 30.0, 60001), [-30.0, -8.0, 8.0, 30.0]])
        got, ref = normal_cdf(x), ndtr(x)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    def test_infinities_and_shape(self):
        x = np.array([[-np.inf, 0.0], [np.inf, -8.0]])
        got = normal_cdf(x)
        assert got.shape == x.shape
        assert got[0, 0] == 0.0 and got[0, 1] == 0.5 and got[1, 0] == 1.0
        assert got[1, 1] == pytest.approx(ndtr(-8.0), rel=1e-13)


class TestKolmogorovSf:
    """The two fixed-length series against scipy's ``kolmogorov``."""

    def test_matches_kolmogorov(self):
        lam = np.concatenate(
            [np.linspace(0.0, 20.0, 40001), [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.82, 1e-3, 40.0, 1e6]]
        )
        err = max(abs(kolmogorov_sf(float(x)) - kolmogorov(x)) for x in lam)
        assert err <= 1e-14, err

    def test_ends(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(40.0) == 0.0


class TestKsPvalue:
    def test_zero_statistic_clamps_to_one(self):
        assert ks_pvalue(0.0, 50) == 1.0

    def test_maximal_statistic_near_zero(self):
        assert ks_pvalue(1.0, 1000) < 1e-12

    def test_series_value_at_lambda_one(self):
        # alternating series evaluated to 1e-10: 2(e^-2 - e^-8 + e^-18 - ...);
        # at n = 25 the corrected lambda is (5 + 0.12 + 0.022) * d = 1
        expected = 2.0 * (math.exp(-2) - math.exp(-8) + math.exp(-18) - math.exp(-32))
        p = ks_pvalue(1.0 / (5 + 0.12 + 0.022), 25)
        assert p == pytest.approx(expected, abs=1e-9)
        assert p == pytest.approx(0.2700, abs=5e-4)

    def test_monotone_decreasing_in_statistic(self):
        stats = np.linspace(0.0, 1.0, 41)
        pvals = [ks_pvalue(float(s), 100) for s in stats]
        assert all(a >= b for a, b in zip(pvals, pvals[1:]))

    def test_small_sample_correction_applied(self):
        # correction factor shifts lambda, so p differs from the raw series
        raw = kolmogorov(math.sqrt(25) * 0.2)
        corrected = ks_pvalue(0.2, 25)
        assert corrected != raw
        assert corrected == pytest.approx(
            kolmogorov((math.sqrt(25) + 0.12 + 0.11 / math.sqrt(25)) * 0.2), abs=1e-15
        )


class TestOodRisk:
    def test_constant_classifiers(self):
        p0, pb = Categorical.uniform(3), Categorical.point_mass(0, 3)
        assert ood_risk_exact(lambda x: 0, p0, pb) == 0.5
        assert ood_risk_exact(lambda x: 1, p0, pb) == 0.5

    def test_label_array_matches_callable(self):
        p0, pb = Categorical.uniform(4), Categorical.point_mass(2, 4)
        labels = [0, 0, 1, 0]
        assert ood_risk_exact(labels, p0, pb) == ood_risk_exact(lambda x: labels[x], p0, pb)

    def test_bruteforce_minimum_equals_tv_identity(self):
        rng = substream(21, 0)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            pb = Categorical(rng.dirichlet(np.ones(k)))
            best = min(
                ood_risk_exact(list(labels), p0, pb)
                for labels in itertools.product([0, 1], repeat=k)
            )
            assert best == pytest.approx(0.5 - 0.5 * tv_distance(p0, pb), abs=1e-12)

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(AlphabetMismatchError):
            ood_risk_exact([0, 1], Categorical.uniform(2), Categorical.point_mass(0, 3))


class TestAdapters:
    """The reductions are harness detectors: a Type-2 detector is a Type-3
    one reading only ``pair.p0``, and ``type1_trial_detector(m)`` is the
    Type-1 test drawing its m clean samples from p0 with the block's
    generator. Each matches its per-row pipeline over the one-dataset test."""

    def pair(self):
        return pair_of([0.85, 0.15], [0.1, 0.9], gamma=0.9, beta=0.3)

    def test_adapted_deterministic_given_seed(self):
        pair = self.pair()
        score = type1_trial_detector(16)(pair)
        # half ones: a row flags when its 16 clean draws hold at most two
        # ones, which Binomial(16, 0.15) gives with probability 0.56
        symbols = np.array([0, 1] * 5)[None, :].repeat(50, axis=0)
        first = score(symbols, substream(5, 0))
        assert np.array_equal(first, score(symbols, substream(5, 0)))
        assert 0 < first.sum() < first.size  # the clean draws differ by row

    def test_adapted_risk_matches_source_risk(self):
        pair = self.pair()
        m, trials = 32, 10**4
        # the Type-1 test run per row, on m clean samples drawn from p0 with the block's rng
        g2 = lambda d, pair, rng: type1_tv(
            d, SymbolDataset(draw_symbols(pair.p0, m, rng), pair.alphabet_size),
            pair.gamma, pair.beta,
        )
        r_adapted = estimate_risk(per_row(g2), pair, 8, trials, seed=77)
        r_source = estimate_risk(type1_trial_detector(m), pair, 8, trials, seed=78)
        width = max(r_adapted.ci_width, r_source.ci_width)
        assert abs(r_adapted.p_hat - r_source.p_hat) <= width

    def test_type3_from_type2_identical_verdicts(self):
        pair = self.pair()
        score = type2_trial_detector()(pair)
        symbols = substream(9, 4).integers(0, 2, (50, 12))
        verdicts = [type2_tv(SymbolDataset(row, 2), pair.p0, pair.gamma, pair.beta) for row in symbols]
        assert score(symbols, None).tolist() == verdicts

    def test_type3_from_type2_risk_equality_same_seed(self):
        pair = self.pair()
        r2 = estimate_risk(type2_trial_detector(), pair, 10, 500, seed=6)
        g3 = lambda d, pair, rng: type2_tv(d, pair.p0, pair.gamma, pair.beta)
        r3 = estimate_risk(per_row(g3), pair, 10, 500, seed=6)
        assert r3.p_hat == r2.p_hat
