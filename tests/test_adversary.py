"""Tests for the two attacker constructions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from bdlimits import (
    Categorical,
    DegenerateDirectionError,
    DegenerateFitError,
    ImpossibilityConfig,
    ParameterError,
    ToyAttackReport,
    ToyConfig,
    imposs_probe,
    imposs_risk,
    imposs_risk_floor,
    ks_pvalue,
    ks_statistic,
    projections,
    toy_attack_report,
    toy_backdoor,
    toy_delta,
    toy_ks_defense,
    toy_poison,
    toy_sample_clean,
    toy_train_classifier,
    type1_trial_detector,
    type2_trial_detector,
    type2_tv,
)
from bdlimits.adversary import _draw_anchored
from bdlimits.detectors import normal_cdf
from bdlimits.distributions import sparse_types
from bdlimits.rng import BLOCK, Domain, substream


def reference_config(gamma=0.5, n=150):
    return ToyConfig.from_direction([0.981, 0.196], sigma=0.5, gamma=gamma, n=n)


class TestToyConfig:
    def test_freezes_a_copy_not_the_callers_array(self):
        v = np.array([0.6, 0.8])
        cfg = ToyConfig(sigma=0.5, gamma=0.5, n=10, v=v)
        assert v.flags.writeable
        assert not cfg.v.flags.writeable
        with pytest.raises(ValueError):
            cfg.v[0] = 1.0
        v[0] = 1.0  # the caller's array stays its own
        assert cfg.v.tolist() == [0.6, 0.8]


class TestToyDelta:
    def test_axis_direction(self):
        # v = e1 in K = 2: mu = 1, delta = (0, 2) - (2, 0)
        delta = toy_delta(np.array([1.0, 0.0]), 2)
        assert np.allclose(delta, [-2.0, 2.0])

    def test_zero_mu_direction(self):
        v = np.array([1.0, -1.0]) / math.sqrt(2)
        delta = toy_delta(v, 2)
        assert np.allclose(delta, [math.sqrt(2), math.sqrt(2)])

    def test_reference_direction(self):
        cfg = reference_config()
        assert cfg.mu == pytest.approx(1.177, abs=2e-3)
        assert np.allclose(cfg.delta, [-2.70, 1.50], atol=5e-3)
        assert float(cfg.v @ cfg.delta) == pytest.approx(-2 * cfg.mu, abs=1e-12)

    def test_projection_identity_random_directions(self):
        rng = substream(31, 0)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 6))
            v = rng.standard_normal(k)
            v /= np.linalg.norm(v)
            mu = float(v.sum())
            if mu * mu >= k - 1e-6:
                continue
            delta = toy_delta(v, k)
            assert float(v @ delta) == pytest.approx(-2 * mu, abs=1e-9)
            checked += 1

    def test_degenerate_direction_rejected(self):
        k = 4
        v = np.full(k, 1.0 / math.sqrt(k))  # mu^2 = k
        with pytest.raises(DegenerateDirectionError):
            toy_delta(v, k)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ParameterError):
            toy_delta(np.array([1.0, 1.0]), 2)


class TestToySampling:
    def test_noiseless_case(self):
        cfg = ToyConfig.from_direction([1.0, 0.0], sigma=0.0, gamma=0.5, n=50)
        y, z = toy_sample_clean(cfg, seed=3)
        assert y.shape == (50,) and z.shape == (50, 2)
        assert np.allclose(z, y[:, None] * np.ones(2))

    def test_same_seed_identical(self):
        cfg = reference_config(n=20)
        ya, za = toy_sample_clean(cfg, seed=5)
        yb, zb = toy_sample_clean(cfg, seed=5)
        assert np.array_equal(ya, yb) and np.array_equal(za, zb)

    def test_projection_mean_matches_mu(self):
        cfg = reference_config(n=10**5)
        f = projections(*toy_sample_clean(cfg, seed=11), cfg)
        assert abs(f.mean() - cfg.mu) < 0.02

    def test_projection_law_invariance_moments(self):
        # first four moments of the projection are unchanged by the backdoor
        cfg = reference_config(n=10**5)
        clean = toy_sample_clean(cfg, seed=13)
        f_clean = projections(*clean, cfg)
        f_bad = projections(*toy_backdoor(*clean, cfg), cfg)
        assert abs(f_clean.mean() - f_bad.mean()) < 0.02
        assert abs(f_clean.var() - f_bad.var()) < 0.02
        c3 = ((f_clean - f_clean.mean()) ** 3).mean()
        b3 = ((f_bad - f_bad.mean()) ** 3).mean()
        assert abs(c3 - b3) < 0.02
        c4 = ((f_clean - f_clean.mean()) ** 4).mean()
        b4 = ((f_bad - f_bad.mean()) ** 4).mean()
        assert abs(c4 - b4) < 0.03


class TestToyBackdoor:
    def test_direct_substitution(self):
        cfg = ToyConfig.from_direction([1.0, 0.0], sigma=0.5, gamma=0.5, n=10)
        yb, zb = toy_backdoor(np.array([1]), np.zeros((1, 2)), cfg)
        assert yb.tolist() == [-1]
        assert np.allclose(zb, [[-2.0, 2.0]])

    def test_involution(self):
        cfg = reference_config()
        y, z = np.array([-1]), np.array([[0.3, -1.2]])
        yy, zz = toy_backdoor(*toy_backdoor(y, z, cfg), cfg)
        assert np.array_equal(yy, y)
        assert np.allclose(zz, z, atol=1e-12)


class TestToyPoison:
    def test_gamma_zero_unchanged(self):
        cfg = reference_config(gamma=0.0, n=30)
        y, z = toy_sample_clean(cfg, seed=2)
        yp, zp = toy_poison(y, z, cfg, seed=3)
        assert np.array_equal(yp, y) and np.array_equal(zp, z)

    def test_gamma_one_all_flipped(self):
        cfg = reference_config(gamma=1.0, n=30)
        y, z = toy_sample_clean(cfg, seed=2)
        yp, _ = toy_poison(y, z, cfg, seed=3)
        assert np.array_equal(yp, -y)

    def test_replacement_fraction_binomial_band(self):
        n = 10**4
        cfg = reference_config(n=n)
        y, z = toy_sample_clean(cfg, seed=4)
        yp, _ = toy_poison(y, z, cfg, seed=5)
        frac = np.mean(y != yp)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)


class TestKsDefense:
    def test_statistic_and_pvalue_ranges(self):
        cfg = reference_config()
        result = toy_ks_defense(*toy_sample_clean(cfg, seed=1), cfg)
        assert 0.0 <= result.statistic <= 1.0
        assert 0.0 <= result.p_value <= 1.0
        assert result.n == 150

    def test_gross_shift_detected(self):
        cfg = reference_config()
        y, z = toy_sample_clean(cfg, seed=1)
        shifted = z + y[:, None] * 10 * cfg.sigma * cfg.v
        assert toy_ks_defense(y, shifted, cfg).p_value < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            toy_ks_defense(np.empty(0, dtype=np.int64), np.empty((0, 2)), reference_config())


class TestToyClassifier:
    def test_clean_boundary_angle(self):
        cfg = ToyConfig.from_direction([1.0, 0.0], sigma=0.5, gamma=0.5, n=1000)
        clf = toy_train_classifier(*toy_sample_clean(cfg, seed=8))
        ideal = np.ones(2) / math.sqrt(2)
        cosine = float(clf.w @ ideal) / np.linalg.norm(clf.w)
        assert math.degrees(math.acos(min(1.0, cosine))) < 15.0

    def test_separable_pair(self):
        z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        clf = toy_train_classifier(np.array([1, -1]), z)
        assert clf.predict(z).tolist() == [1, -1]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateFitError):
            toy_train_classifier(np.ones(4, dtype=np.int64), np.zeros((4, 2)))

    def test_full_poisoning_flips_predictions(self):
        # classifier trained at gamma = 1 anti-agrees with the clean classifier;
        # the axis direction keeps the flipped clusters well separated
        cfg = ToyConfig.from_direction([1.0, 0.0], sigma=0.5, gamma=1.0, n=1000)
        clean = toy_sample_clean(cfg, seed=9)
        clean_clf = toy_train_classifier(*clean)
        flipped_clf = toy_train_classifier(*toy_poison(*clean, cfg, seed=10))
        _, zs = toy_sample_clean(dataclasses.replace(cfg, n=2000), seed=11)
        agree = np.mean(clean_clf.predict(zs) == flipped_clf.predict(zs))
        assert agree < 0.2


class TestToyAttackReport:
    def test_deterministic(self):
        cfg = reference_config()
        assert toy_attack_report(cfg, seed=21) == toy_attack_report(cfg, seed=21)

    def test_no_poisoning_attack_ineffective(self):
        # with v = e1 the shift is boundary-parallel, so backdoored samples
        # misclassify at about the clean error rate when nothing is poisoned
        cfg = ToyConfig.from_direction([1.0, 0.0], sigma=0.5, gamma=0.0, n=400)
        report = toy_attack_report(cfg, seed=22)
        clean_error = 1.0 - report.clean_accuracy
        assert abs(report.attack_success_rate - clean_error) < 0.05

    def test_reference_parameters_effective(self):
        report = toy_attack_report(reference_config(), seed=23)
        assert report.attack_success_rate > 0.9
        assert report.clean_accuracy > 0.9


# One toy configuration per dimension K; every direction has mu^2 < K.
PER_ROW_CONFIGS = {
    2: ToyConfig.from_direction([0.981, 0.196], sigma=0.5, gamma=0.5, n=150),
    3: ToyConfig.from_direction([0.6, 0.3, 0.2], sigma=0.5, gamma=0.4, n=90),
    5: ToyConfig.from_direction([0.3, -0.2, 0.5, 0.1, 0.4], sigma=0.7, gamma=0.6, n=120),
    7: ToyConfig.from_direction([0.2, 0.1, -0.4, 0.5, 0.3, 0.1, -0.2], sigma=0.8, gamma=0.5, n=60),
}


class TestPerRowReference:
    """The array forms equal, bit for bit, the same steps taken one sample
    at a time: one ``float(v @ z_i)`` and one ``z_i + y_i * delta`` per row."""

    @staticmethod
    def backdoor_row(y_i, z_i, config):
        return -int(y_i), z_i + int(y_i) * config.delta

    @staticmethod
    def projection_rows(rows, config):
        return np.array([y_i * float(config.v @ z_i) for y_i, z_i in rows])

    @classmethod
    def poison_rows(cls, y, z, config, seed):
        replace = substream(seed, Domain.TOY_POISON).random(y.size) < config.gamma
        return [
            cls.backdoor_row(y_i, z_i, config) if r else (int(y_i), z_i)
            for y_i, z_i, r in zip(y, z, replace)
        ]

    @classmethod
    def reference_report(cls, config, seed):
        def draw(n, rng):
            y = rng.integers(0, 2, n) * 2 - 1
            z = y[:, None] * np.ones(config.k) + config.sigma * rng.standard_normal((n, config.k))
            return y, z

        def phi(x):
            return 0.5 * math.erfc(-x / math.sqrt(2.0))

        poisoned = cls.poison_rows(*draw(config.n, substream(seed, Domain.TOY_CLEAN)), config, seed)
        f = cls.projection_rows(poisoned, config)
        # the package's CDF; TestNormalCdf checks it against scipy's ndtr
        stat = ks_statistic(f, lambda x: normal_cdf((x - config.mu) / config.sigma))
        labels = np.array([y_i for y_i, _ in poisoned], dtype=float)
        design = np.hstack([np.array([z_i for _, z_i in poisoned]), np.ones((config.n, 1))])
        coef, *_ = np.linalg.lstsq(design, labels, rcond=None)
        # the closed form one scalar at a time: s = sigma |w|, a = w . 1 and
        # t = w . (1 + delta), one erfc per term. The sums run in another
        # order than numpy's, so the two rates are compared to rounding.
        w, b = coef[:-1].tolist(), float(coef[-1])
        s = config.sigma * math.sqrt(math.fsum(w_i * w_i for w_i in w))
        a = math.fsum(w)
        t = math.fsum(w_i * (1.0 + d_i) for w_i, d_i in zip(w, config.delta.tolist()))
        return ToyAttackReport(
            p_value=ks_pvalue(stat, f.size),
            ks_statistic=stat,
            clean_accuracy=pytest.approx(0.5 * phi((a + b) / s) + 0.5 * phi((a - b) / s), rel=1e-13),
            attack_success_rate=pytest.approx(0.5 * phi(-(t + b) / s) + 0.5 * phi((b - t) / s), rel=1e-13),
        )

    @staticmethod
    def assert_rows_equal(y, z, rows):
        assert y.tolist() == [y_i for y_i, _ in rows]
        assert np.array_equal(z, np.array([z_i for _, z_i in rows]))

    @pytest.mark.parametrize("k", sorted(PER_ROW_CONFIGS))
    def test_arrays_match_rows(self, k):
        config = PER_ROW_CONFIGS[k]
        for seed in range(10):
            y, z = toy_sample_clean(config, seed)
            rows = list(zip(y.tolist(), z))
            assert np.array_equal(projections(y, z, config), self.projection_rows(rows, config))
            self.assert_rows_equal(
                *toy_backdoor(y, z, config), [self.backdoor_row(y_i, z_i, config) for y_i, z_i in rows]
            )
            yp, zp = toy_poison(y, z, config, seed)
            poisoned = self.poison_rows(y, z, config, seed)
            self.assert_rows_equal(yp, zp, poisoned)
            assert np.array_equal(projections(yp, zp, config), self.projection_rows(poisoned, config))

    @pytest.mark.parametrize("k", sorted(PER_ROW_CONFIGS))
    def test_report_matches_rows(self, k):
        config = PER_ROW_CONFIGS[k]
        for seed in range(10):
            assert toy_attack_report(config, seed) == self.reference_report(config, seed)


class TestClosedFormEvaluation:
    """The report's closed-form rates against ``predict`` on fresh samples
    from a generator of this test's own."""

    SAMPLES = 200_000

    @pytest.mark.parametrize("k", sorted(PER_ROW_CONFIGS))
    def test_rates_match_sampled_predictions(self, k):
        config = PER_ROW_CONFIGS[k]
        for seed in range(5):
            clf = toy_train_classifier(*toy_poison(*toy_sample_clean(config, seed), config, seed))
            report = toy_attack_report(config, seed)
            rng = np.random.default_rng([k, seed])
            y = rng.integers(0, 2, self.SAMPLES) * 2 - 1
            z = y[:, None] + config.sigma * rng.standard_normal((self.SAMPLES, k))
            yb, zb = toy_backdoor(y, z, config)
            for exact, hits in (
                (report.clean_accuracy, clf.predict(z) == y),
                (report.attack_success_rate, clf.predict(zb) == yb),
            ):
                se = math.sqrt(exact * (1.0 - exact) / self.SAMPLES)
                assert abs(np.mean(hits) - exact) <= 6.0 * se + 1.0 / self.SAMPLES


class TestImpossibilitySampler:
    """The anchored construction, drawn by ``_draw_anchored`` as the probe draws it."""

    def test_anchor_count_validation(self):
        with pytest.raises(ParameterError):
            ImpossibilityConfig(k=10, beta=0.05, gamma=1.0, n=5)

    @pytest.mark.parametrize("k", [100, 10**5])
    @pytest.mark.parametrize("beta", [0.29, 0.57, 0.58])
    def test_anchor_count_at_decimal_boundaries(self, k, beta):
        # beta * k falls just short of the integer: 0.29 * 100 = 28.999999999999996
        cfg = ImpossibilityConfig(k=k, beta=beta, gamma=1.0, n=5)
        assert cfg.m == round(beta * k)
        assert cfg.m / k <= beta < (cfg.m + 1) / k

    @pytest.mark.parametrize("k, m", [(10**5, 1000), (10**6, 10**4)])
    def test_anchor_count_of_the_default_probes(self, k, m):
        # the README's probe at K = 1e5 and the benchmark's probes at K = 1e5 and 1e6
        assert ImpossibilityConfig(k=k, beta=0.01, gamma=1.0, n=20).m == m

    def test_gamma_zero_uniform(self):
        cfg = ImpossibilityConfig(k=10, beta=0.5, gamma=0.0, n=2000)
        x = _draw_anchored(1, cfg, substream(1), cfg.gamma)
        counts = np.bincount(x[0], minlength=10)
        assert chisquare(counts).pvalue > 1e-4

    def test_gamma_one_single_anchor_constant(self):
        cfg = ImpossibilityConfig(k=50, beta=0.02, gamma=1.0, n=40)
        assert cfg.m == 1
        x = _draw_anchored(200, cfg, substream(2), cfg.gamma)
        assert (x == x[:, :1]).all()
        assert len(np.unique(x[:, 0])) > 1  # each row draws its own anchor

    def test_deterministic(self):
        cfg = ImpossibilityConfig(k=100, beta=0.1, gamma=0.8, n=25)
        x = _draw_anchored(50, cfg, substream(3), cfg.gamma)
        assert np.array_equal(x, _draw_anchored(50, cfg, substream(3), cfg.gamma))

    def test_marginal_uniformity(self):
        # the first symbol of independent rows is uniform on the alphabet
        cfg = ImpossibilityConfig(k=100, beta=0.1, gamma=1.0, n=5)
        firsts = _draw_anchored(100000, cfg, substream(4), cfg.gamma)[:, 0]
        counts = np.bincount(firsts, minlength=100)
        assert chisquare(counts).pvalue > 0.01

    def test_conditional_mixture_law(self):
        # Given the anchors, symbols are i.i.d. (1-gamma) U + gamma Q_anchors.
        # Averaged over uniform anchors, that law's second moment is the pair
        # law P(x0=a, x1=b) = (1 - gamma^2/m)/K^2 + [a=b] gamma^2/(m K):
        # two anchored positions share an anchor with probability 1/m.
        k, gamma = 3, 0.8
        cfg = ImpossibilityConfig(k=k, beta=1.0, gamma=gamma, n=2)
        assert cfg.m == 3
        rows = 100000
        x = _draw_anchored(rows, cfg, substream(5), cfg.gamma)
        counts = np.bincount(x[:, 0] * k + x[:, 1], minlength=k * k)
        share = gamma**2 / cfg.m
        law = np.full((k, k), (1 - share) / k**2) + np.eye(k) * share / k
        assert chisquare(counts, law.ravel() * rows).pvalue > 1e-4


class TestImpossProbe:
    def test_floor_value(self):
        assert imposs_risk_floor(20, 1000) == pytest.approx(
            0.5 * math.exp(-400 / 980), rel=1e-12
        )

    def test_floor_requires_m_above_n(self):
        with pytest.raises(ParameterError):
            imposs_risk_floor(10, 10)

    @pytest.mark.parametrize("n", [-5, 0])
    def test_floor_requires_n_at_least_one(self, n):
        with pytest.raises(ParameterError, match="^n must be >= 1$"):
            imposs_risk_floor(n, 10)

    def test_floor_and_risk_share_the_regime_message(self):
        message = "floor(beta*k) = 10 must exceed n = 25; increase k or beta, or decrease n"
        cfg = ImpossibilityConfig(k=100, beta=0.1, gamma=1.0, n=25)
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            imposs_risk_floor(25, 10)
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            imposs_risk(type2_trial_detector(), cfg, trials=200, seed=0)

    def test_probe_regime_validation(self):
        cfg = ImpossibilityConfig(k=100, beta=0.1, gamma=1.0, n=25)
        with pytest.raises(ParameterError):
            imposs_probe(lambda d, p0: 1, cfg, trials=200, seed=0)

    def test_risk_respects_floor(self):
        cfg = ImpossibilityConfig(k=2000, beta=0.05, gamma=1.0, n=10)
        detector = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.05))
        estimate = imposs_probe(detector, cfg, trials=2000, seed=5)
        floor = imposs_risk_floor(cfg.n, cfg.m)
        assert estimate.p_hat >= floor - 3 * estimate.ci_width

    def test_probe_deterministic(self):
        cfg = ImpossibilityConfig(k=500, beta=0.1, gamma=1.0, n=8)
        detector = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.1))
        a = imposs_probe(detector, cfg, trials=300, seed=9)
        b = imposs_probe(detector, cfg, trials=300, seed=9)
        assert a == b

    def test_beta_one_fixed_detector_accepted(self):
        # ImpossibilityConfig takes beta = 1 (m = k anchors), and so does the
        # clean view's DistributionPair; a fixed detector ignores beta
        cfg = ImpossibilityConfig(k=200, beta=1.0, gamma=1.0, n=10)
        assert cfg.m == 200
        estimate = imposs_probe(lambda d, p0: 1, cfg, trials=300, seed=2)
        assert estimate == imposs_probe(lambda d, p0: 1, cfg, trials=300, seed=2)
        assert 0.0 < estimate.p_hat < 1.0


def _collision_block(pair):
    """Flag a row that holds some symbol twice; anchors make repeats likely."""

    def score(symbols, rng):
        row, _, counts = sparse_types(symbols)
        return np.bincount(row, weights=counts > 1, minlength=symbols.shape[0]) > 0

    return score


def _collision_row(d, p0):
    return int(np.unique(d.symbols).size < d.symbols.size)


#: (k, beta, n) of informative configs, m = floor(beta k) > n
PROBE_SIZES = [(200, 0.1, 10), (10**5, 0.01, 20), (10**6, 0.01, 20)]


class TestImpossRisk:
    """The block path agrees with the per-row path bit for bit."""

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @pytest.mark.parametrize("k, beta, n", PROBE_SIZES)
    def test_type2_matches_fixed_detector(self, k, beta, n, gamma):
        cfg = ImpossibilityConfig(k=k, beta=beta, gamma=gamma, n=n)
        fixed = lambda d, p0: int(type2_tv(d, p0, gamma, beta))  # noqa: E731
        block = imposs_risk(type2_trial_detector(), cfg, trials=1000, seed=3)
        assert block == imposs_probe(fixed, cfg, trials=1000, seed=3)

    def test_type2_across_block_boundary(self):
        cfg = ImpossibilityConfig(k=10**5, beta=0.01, gamma=1.0, n=20)
        fixed = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.01))  # noqa: E731
        trials = 2 * BLOCK + 37
        block = imposs_risk(type2_trial_detector(), cfg, trials, seed=0)
        assert block == imposs_probe(fixed, cfg, trials, seed=0)
        assert block.trials == trials

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_varying_verdicts_match(self, gamma):
        # the type-distance test flags every row in the informative regime;
        # a repeat test flags some rows only, so each verdict is compared
        cfg = ImpossibilityConfig(k=200, beta=0.1, gamma=gamma, n=10)
        trials = BLOCK + 500
        block = imposs_risk(_collision_block, cfg, trials, seed=11)
        assert block == imposs_probe(_collision_row, cfg, trials, seed=11)
        assert 0.05 < block.p_hat < 0.45

    def test_detector_bound_to_honest_view(self):
        cfg = ImpossibilityConfig(k=300, beta=0.2, gamma=0.7, n=12)
        seen = []

        def detector(pair):
            seen.append(pair)
            return lambda symbols, rng: np.ones(symbols.shape[0], dtype=np.int64)

        imposs_risk(detector, cfg, trials=BLOCK + 1, seed=0)
        assert len(seen) == 1
        pair = seen[0]
        assert pair.p0 == pair.pb == Categorical.uniform(300)
        assert pair.mixture is pair.p0
        assert (pair.gamma, pair.beta) == (0.7, 0.2)

    def test_randomized_detector_respects_floor(self):
        # a detector that uses its generator is a mixture of fixed detectors
        cfg = ImpossibilityConfig(k=2000, beta=0.05, gamma=1.0, n=10)
        estimate = imposs_risk(type1_trial_detector(30), cfg, trials=2000, seed=5)
        floor = imposs_risk_floor(cfg.n, cfg.m)
        assert estimate.p_hat >= floor - 3 * estimate.ci_width

    def test_regime_validation(self):
        cfg = ImpossibilityConfig(k=100, beta=0.1, gamma=1.0, n=25)
        with pytest.raises(ParameterError):
            imposs_risk(type2_trial_detector(), cfg, trials=200, seed=0)
        ok = ImpossibilityConfig(k=2000, beta=0.05, gamma=1.0, n=10)
        with pytest.raises(ParameterError):
            imposs_risk(type2_trial_detector(), ok, trials=99, seed=0)

    def test_beta_one_block_matches_fixed_detector(self):
        # the clean view takes beta = 1, so a detector that ignores beta runs
        cfg = ImpossibilityConfig(k=200, beta=1.0, gamma=1.0, n=10)
        block = imposs_risk(_collision_block, cfg, trials=5000, seed=4)
        assert block == imposs_probe(_collision_row, cfg, trials=5000, seed=4)

    def test_beta_one_rejected_by_the_clean_view(self):
        cfg = ImpossibilityConfig(k=200, beta=1.0, gamma=1.0, n=10)
        with pytest.raises(ParameterError, match="beta"):
            imposs_risk(type2_trial_detector(), cfg, trials=200, seed=0)


class TestProbeGoldens:
    """Error counts of the fixed-detector probe, pinned across refactors."""

    def test_type2_huge_alphabet(self):
        cfg = ImpossibilityConfig(k=10**5, beta=0.01, gamma=1.0, n=20)
        fixed = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.01))  # noqa: E731
        assert imposs_probe(fixed, cfg, trials=500, seed=7).p_hat * 500 == 234

    def test_collision_beta_one(self):
        cfg = ImpossibilityConfig(k=200, beta=1.0, gamma=1.0, n=10)
        assert imposs_probe(_collision_row, cfg, trials=5000, seed=4).p_hat == 0.4218

    def test_collision_across_block_boundary(self):
        cfg = ImpossibilityConfig(k=200, beta=0.1, gamma=0.3, n=10)
        estimate = imposs_probe(_collision_row, cfg, trials=4596, seed=11)
        assert estimate.p_hat == 1924 / 4596
