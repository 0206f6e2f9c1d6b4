"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``)
and asserts both the criterion and its runtime budget. All randomness is
seeded, so the suite is deterministic.
"""

import math
import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bdlimits import (
    Categorical,
    DistributionPair,
    ImpossibilityConfig,
    SymbolDataset,
    ToyConfig,
    TrainerStub,
    achievability_alpha_bound,
    benchmark_instances,
    estimate_risk,
    exact_conditional_errors,
    exact_type3_risk,
    imposs_probe,
    imposs_risk_floor,
    ks_statistic,
    ks_pvalue,
    mix,
    np_trial_detector,
    ood_risk_exact,
    per_row,
    product_tv_exact,
    toy_attack_report,
    toy_ks_defense,
    toy_sample_clean,
    tv_distance,
    type0_demo_risk,
    type0_tv_detector,
    type1_trial_detector,
    type1_tv,
    type2_trial_detector,
    type2_tv,
    type_exceedance_frequency,
)
from bdlimits import harness
from bdlimits.cli import main as cli_main
from bdlimits.distributions import draw_symbols
from bdlimits.rng import substream


class Budget:
    """Context manager asserting a wall-clock budget and printing a pass line."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.1f}s over budget"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f} s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL")
        return False


def test_criterion_1_dataset_table_reproduction():
    expected = {
        "Lisa Traffic Sign": 369904,
        "ImageNet": 181252,
        "CIFAR10": 3697,
        "MNIST": 942,
        "B/W MNIST": 116,
        "Adult": 9,
        "Heart Disease": 5,
        "Iris": 1,
    }
    with Budget("1 dataset-table reproduction", 1.0):
        result = CliRunner().invoke(cli_main, ["bounds-table", "--alpha", "0.1", "--beta", "0.001", "--format", "json"])
        assert result.exit_code == 0
        import json

        rows = json.loads(result.stdout)
        assert {row["name"]: row["min_n_exponent"] for row in rows} == expected


def test_criterion_2_np_detector_optimality():
    with Budget("2 likelihood-ratio optimality", 60.0):
        rng = substream(0, 99)
        for i in range(20):
            while True:
                k = int(rng.integers(2, 4))
                p0 = Categorical(rng.dirichlet(np.ones(k)))
                pb = Categorical(rng.dirichlet(np.ones(k)))
                tv = tv_distance(p0, pb)
                if tv >= 0.05:
                    break
            gamma = float(rng.uniform(0.3, 1.0))
            n = int(rng.integers(1, 6))
            pair = DistributionPair(p0, pb, gamma, beta=min(1 - tv + 1e-12, 0.999))
            exact = exact_type3_risk(pair, n)
            est = estimate_risk(np_trial_detector(), pair, n, 10**4, seed=i)
            assert est.ci_low <= exact <= est.ci_high, (i, exact, est)


def test_criterion_3_type_detector_achievability():
    with Budget("3 type-detector achievability", 60.0):
        rng = substream(7, 3)
        for i in range(20):
            k = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.05, 0.4))
            overlap = beta * float(rng.uniform(0.2, 0.9))
            half = max(1, k // 2)
            p0 = np.zeros(k)
            pb = np.zeros(k)
            p0[:half] = rng.dirichlet(np.ones(half)) * (1 - overlap / 2)
            p0[half:] = overlap / 2 / (k - half)
            pb[half:] = rng.dirichlet(np.ones(k - half)) * (1 - overlap / 2)
            pb[:half] = overlap / 2 / half
            pair = DistributionPair(
                Categorical(p0), Categorical(pb), float(rng.uniform(0.5, 1.0)), beta
            )
            assert pair.is_admissible()
            n = int(rng.integers(150, 400))
            bound = achievability_alpha_bound(n, pair.gamma, pair.beta, k)
            est = estimate_risk(type2_trial_detector(), pair, n, 1000, seed=300 + i)
            assert est.p_hat <= bound + 3 * est.ci_width, (i, est.p_hat, bound)


def test_criterion_4_impossibility_probe():
    with Budget("4 impossibility probe", 120.0):
        cfg1 = ImpossibilityConfig(k=10**5, beta=0.01, gamma=1.0, n=20)
        det1 = lambda d, p0: int(type2_tv(d, p0, cfg1.gamma, cfg1.beta))
        est1 = imposs_probe(det1, cfg1, trials=10**4, seed=0)
        assert imposs_risk_floor(cfg1.n, cfg1.m) == pytest.approx(0.3324, abs=5e-4)
        assert est1.p_hat >= 0.331 - 3 * est1.ci_width

        cfg2 = ImpossibilityConfig(k=10**6, beta=0.01, gamma=1.0, n=10)
        det2 = lambda d, p0: int(type2_tv(d, p0, cfg2.gamma, cfg2.beta))
        est2 = imposs_probe(det2, cfg2, trials=2000, seed=0)
        assert est2.p_hat >= 0.45


def test_criterion_5_toy_attack_ensemble():
    with Budget("5 toy attack ensemble", 60.0):
        config = ToyConfig.from_direction([0.981, 0.196], sigma=0.5, gamma=0.5, n=150)

        # (d) the shift keeps the projection law fixed
        assert float(config.v @ config.delta) == pytest.approx(-2 * config.mu, abs=1e-9)

        reports = [toy_attack_report(config, seed) for seed in range(100)]

        # (a) the defense stays blind on poisoned data
        median_p = float(np.median([r.p_value for r in reports]))
        assert median_p > 0.05

        # (b) clean-data p-values are uniform at level 0.01
        clean_ps = np.sort(
            [
                toy_ks_defense(*toy_sample_clean(config, seed), config).p_value
                for seed in range(100)
            ]
        )
        d_unif = ks_statistic(clean_ps, lambda x: np.clip(x, 0.0, 1.0))
        assert ks_pvalue(d_unif, clean_ps.size) > 0.01

        # (c) the poisoned classifier obeys the attacker
        median_success = float(np.median([r.attack_success_rate for r in reports]))
        assert median_success > 0.9


def test_criterion_6_type_concentration_grid():
    with Budget("6 type concentration grid", 60.0):
        trials = 10**4
        for k in (2, 4, 8):
            p = Categorical.uniform(k)
            for n in (20, 100, 200):
                for t in (0.05, 0.1, 0.2, 0.4):
                    freq = type_exceedance_frequency(
                        p, n, t, trials, seed=1000 * k + 10 * n + int(100 * t)
                    ).p_hat
                    bound = min(1.0, 2 * k * math.exp(-8 * n * t * t / (k * k)))
                    sd = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
                    assert freq <= bound + 3 * sd, (k, n, t, freq, bound)
                    # the exact exceedance: p's flagged mass, where the cap allows
                    if math.comb(n + k - 1, n) * n <= harness.EXACT_SCORE_CAP:
                        exceeds = lambda pair: harness._type_exceeds(p, t)
                        exact, _ = exact_conditional_errors(exceeds, DistributionPair(p, p, 1.0, 0.0), n)
                        assert exact <= bound, (k, n, t, exact, bound)


def test_criterion_7_tv_identity_suite():
    with Budget("7 TV identity suite", 10.0):
        rng = substream(17, 5)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            p1 = Categorical(rng.dirichlet(np.ones(k)))
            gamma = float(rng.uniform(0.0, 1.0))

            # mixture scaling: TV(p0, (1-g) p0 + g p1) = g TV(p0, p1)
            pair = DistributionPair(p0, p1, gamma, beta=0.0)
            assert tv_distance(p0, mix(pair)) == pytest.approx(
                gamma * tv_distance(p0, p1), abs=1e-12
            )

            # product sandwich: TV <= TV of n-fold products <= n TV
            n = int(rng.integers(2, 7))
            if k**n <= 10**4:
                base = tv_distance(p0, p1)
                prod = product_tv_exact(p0, p1, n)
                assert base - 1e-12 <= prod <= n * base + 1e-12


def test_criterion_8_ood_bruteforce_identity():
    with Budget("8 OOD brute force", 10.0):
        rng = substream(23, 1)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            pb = Categorical(rng.dirichlet(np.ones(k)))
            best = min(
                ood_risk_exact(list(labels), p0, pb)
                for labels in itertools.product([0, 1], repeat=k)
            )
            assert best == pytest.approx(0.5 - 0.5 * tv_distance(p0, pb), abs=1e-12)


def test_criterion_9_reduction_ordering():
    with Budget("9 reduction ordering", 120.0):
        trials = 2000
        trainer = TrainerStub()
        for inst in benchmark_instances():
            pair, n, m = inst.pair, inst.n, inst.m
            r0 = type0_demo_risk(
                type0_tv_detector(pair.gamma, pair.beta), pair, n, m, trainer, trials, seed=11
            )
            r1 = estimate_risk(type1_trial_detector(m), pair, n, trials, seed=12)
            r2 = estimate_risk(type2_trial_detector(), pair, n, trials, seed=13)
            r3 = estimate_risk(np_trial_detector(), pair, n, trials, seed=14)

            # the reductions track their source detector: the Type-1 test run
            # per row on m clean samples drawn from p0 (Type-1 as Type-2), and
            # the Type-2 test reading only pair.p0 (Type-2 as Type-3)
            adapted2 = lambda d, pair, rng: type1_tv(
                d, SymbolDataset(draw_symbols(pair.p0, m, rng), pair.alphabet_size),
                pair.gamma, pair.beta,
            )
            r2_adapted = estimate_risk(per_row(adapted2), pair, n, trials, seed=12)
            assert abs(r2_adapted.p_hat - r1.p_hat) <= 3 * max(
                r2_adapted.ci_width, r1.ci_width
            )
            assert r2_adapted.p_hat == r1.p_hat

            g3 = lambda d, pair, rng: type2_tv(d, pair.p0, pair.gamma, pair.beta)
            r3_adapted = estimate_risk(per_row(g3), pair, n, trials, seed=13)
            assert r3_adapted.p_hat == r2.p_hat

            # more oracle access never hurts beyond Monte-Carlo noise
            width = max(r0.ci_width, r1.ci_width, r2.ci_width, r3.ci_width)
            assert r0.p_hat >= r1.p_hat - 3 * width, inst.label
            assert r1.p_hat >= r2.p_hat - 3 * width, inst.label
            assert r2.p_hat >= r3.p_hat - 3 * width, inst.label

            # and exactly: the Type-2 test's own exact risk against the optimum
            exact2 = 0.5 * sum(exact_conditional_errors(type2_trial_detector(), pair, n))
            assert exact2 >= exact_type3_risk(pair, n), inst.label
