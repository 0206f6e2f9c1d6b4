"""Tests for Monte-Carlo risk estimation and experiment plumbing."""

import contextlib
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import (
    Categorical,
    ConfigurationError,
    DistributionPair,
    Flavor,
    ImpossibilityConfig,
    JointPrior,
    ParameterError,
    TrainerStub,
    SymbolDataset,
    bayes_probe_detector,
    estimate_conditional_errors,
    estimate_generalized_risk,
    estimate_risk,
    exact_conditional_errors,
    exact_type3_risk,
    imposs_risk,
    mix,
    np_trial_detector,
    per_row,
    tv_distance,
    type0_demo_risk,
    type0_tv_detector,
    type1_trial_detector,
    type2_trial_detector,
    wilson_interval,
)
from bdlimits import harness, results
from bdlimits.distributions import draw_grouped, draw_symbols
from bdlimits.results import append_result, config_hash
from bdlimits.rng import BLOCK, Domain, block_errors, substream


def pair_of(p0, pb, gamma, beta=0.0):
    return DistributionPair(Categorical(np.array(p0)), Categorical(np.array(pb)), gamma, beta)


ORACLE_PAIR = DistributionPair(
    Categorical.uniform(2), Categorical.point_mass(0, 2), gamma=0.5, beta=0.5
)
ORACLE_RISK = 0.34375  # exact optimal risk of ORACLE_PAIR at n = 2


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for errors in (0, 1, 50, 99, 100):
            est = wilson_interval(errors, 100)
            assert est.ci_low <= est.p_hat <= est.ci_high

    def test_extremes_clamped(self):
        est = wilson_interval(0, 200)
        assert est.ci_low == 0.0 and est.ci_high > 0.0
        est = wilson_interval(200, 200)
        assert est.ci_high == 1.0 and est.ci_low < 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(5, 0)
        with pytest.raises(ParameterError):
            wilson_interval(11, 10)


@pytest.mark.parametrize(
    "detector",
    [
        np_trial_detector(),
        type2_trial_detector(),
        type1_trial_detector(4),
        type0_tv_detector(0.5, 0.5),
        bayes_probe_detector(ORACLE_PAIR),
        per_row(lambda d, pair, rng: 1),
    ],
    ids=["np", "type2", "type1", "type0", "bayes-probe", "per-row"],
)
def test_detector_binds_to_the_pair_alone(detector):
    assert len(inspect.signature(detector).parameters) == 1
    detector(ORACLE_PAIR)


class TestPerRow:
    """``per_row`` checks its block once, as ``SymbolDataset`` checks one dataset."""

    @pytest.mark.parametrize(
        "block",
        [np.array([[0.0, 1.0]]), np.array([[True, False]]), np.array([[0, 1], [1, 2]])],
        ids=["float", "bool", "out-of-range"],
    )
    def test_block_check_keeps_the_dataset_message(self, block):
        with pytest.raises(ParameterError) as one_dataset:
            SymbolDataset(block[-1], ORACLE_PAIR.alphabet_size)
        calls = []
        score = per_row(lambda d, pair, rng: calls.append(d) or 0)(ORACLE_PAIR)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(one_dataset.value))}$"):
            score(block, substream(0))
        assert calls == []

    def test_rows_reach_fn_as_read_only_int64_datasets_in_order(self):
        block = substream(3).integers(0, 2, (5, 4))
        rng = substream(0)
        seen = []

        def fn(d, pair, generator):
            assert pair is ORACLE_PAIR and generator is rng
            seen.append(d)
            return int(d.symbols[0])

        verdicts = per_row(fn)(ORACLE_PAIR)(block, rng)
        assert verdicts.tolist() == block[:, 0].tolist()
        assert len(seen) == len(block)
        for d, row in zip(seen, block):
            assert isinstance(d, SymbolDataset)
            assert d.alphabet_size == ORACLE_PAIR.alphabet_size and len(d) == block.shape[1]
            assert d.symbols.dtype == np.int64 and not d.symbols.flags.writeable
            np.testing.assert_array_equal(d.symbols, row)
        assert block.dtype == np.int64 and block.flags.writeable


class TestEstimateRisk:
    def test_disjoint_supports_perfect_separation(self):
        pair = pair_of([1.0, 0.0], [0.0, 1.0], gamma=1.0)
        est = estimate_risk(np_trial_detector(), pair, 3, 500, seed=1)
        assert est.p_hat == 0.0

    def test_identical_distributions_random_guess(self):
        p = [0.4, 0.6]
        pair = pair_of(p, p, gamma=1.0, beta=0.999)
        for detector in (np_trial_detector(), type2_trial_detector()):
            est = estimate_risk(detector, pair, 4, 2000, seed=2)
            assert est.ci_low <= 0.5 <= est.ci_high

    def test_matches_enumeration_oracle(self):
        est = estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, 10**4, seed=3)
        assert est.ci_low <= ORACLE_RISK <= est.ci_high

    def test_minimum_trials_enforced(self):
        with pytest.raises(ParameterError):
            estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, 99, seed=0)

    def test_bit_identical_given_seed(self):
        a = estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, 500, seed=4)
        b = estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, 500, seed=4)
        assert a == b

    def test_trial_order_independent(self):
        # blocks draw from streams keyed by block index, so evaluating them
        # in any order gives the same counts, and the estimate is their sum
        p1 = mix(ORACLE_PAIR)
        score = np_trial_detector()(ORACLE_PAIR)

        def draw(rows, rng):
            # fair labels as lanes at or above 2^31, then the J = 0 rows first
            ones = int(np.count_nonzero(draw_symbols(Categorical.uniform(2), rows, rng)))
            j = np.repeat([0, 1], [rows - ones, ones])
            return j, draw_grouped((ORACLE_PAIR.p0, p1), (rows - ones, ones), 2, rng)

        sizes = [BLOCK, BLOCK, 37]
        forward = [
            block_errors(draw, score, 4, (Domain.RISK,), b, rows) for b, rows in enumerate(sizes)
        ]
        backward = [
            block_errors(draw, score, 4, (Domain.RISK,), b, sizes[b]) for b in reversed(range(3))
        ]
        assert forward == list(reversed(backward))
        trials = 2 * BLOCK + 37
        est = estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, trials, seed=4)
        assert est == wilson_interval(sum(forward), trials)

    def test_ci_calibration(self):
        # the 99% interval should cover a known exact risk in >= 97% of runs
        covered = 0
        meta_trials = 1000
        for t in range(meta_trials):
            est = estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, 200, seed=5000 + t)
            covered += est.ci_low <= ORACLE_RISK <= est.ci_high
        assert covered / meta_trials >= 0.97

    def test_type2_never_beats_np_beyond_noise(self):
        rng = substream(88, 0)
        for i in range(5):
            k = int(rng.integers(2, 4))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            pb = Categorical(rng.dirichlet(np.ones(k)))
            tv = tv_distance(p0, pb)
            pair = DistributionPair(p0, pb, 0.8, beta=min(0.999, 1 - tv + 1e-9))
            np_est = estimate_risk(np_trial_detector(), pair, 4, 2000, seed=900 + i)
            t2_est = estimate_risk(type2_trial_detector(), pair, 4, 2000, seed=900 + i)
            width = max(np_est.ci_width, t2_est.ci_width)
            assert t2_est.p_hat >= np_est.p_hat - 3 * width
            exact2 = 0.5 * sum(exact_conditional_errors(type2_trial_detector(), pair, 4))
            assert exact2 >= exact_type3_risk(pair, 4)


class TestConditionalErrors:
    def test_disjoint_np_both_zero(self):
        pair = pair_of([1.0, 0.0], [0.0, 1.0], gamma=1.0)
        fb, mb = estimate_conditional_errors(np_trial_detector(), pair, 3, 300, seed=6)
        assert fb.p_hat == 0.0 and mb.p_hat == 0.0

    def test_symmetric_pair_symmetric_errors(self):
        # With n = 5 the NP test flags iff at least 3 symbols are 1, so each
        # branch errs when at least 3 of 5 draws land on that branch's
        # unlikely symbol: a binomial tail, the same for both branches.
        pair = pair_of([0.8, 0.2], [0.2, 0.8], gamma=1.0, beta=0.5)
        fb, mb = estimate_conditional_errors(np_trial_detector(), pair, 5, 4000, seed=7)

        def tail(q):
            return sum(math.comb(5, c) * q**c * (1 - q) ** (5 - c) for c in range(3, 6))

        exact_fb = tail(pair.p0.probs[1])
        exact_mb = tail(mix(pair).probs[0])
        assert exact_fb == pytest.approx(exact_mb, abs=1e-15)
        assert exact_fb == pytest.approx(0.05792, abs=1e-12)
        assert fb.ci_low <= exact_fb <= fb.ci_high
        assert mb.ci_low <= exact_mb <= mb.ci_high

    def test_average_matches_risk_and_remark_bound(self):
        pair = pair_of([0.75, 0.25], [0.2, 0.8], gamma=0.7, beta=0.5)
        fb, mb = estimate_conditional_errors(np_trial_detector(), pair, 3, 5000, seed=8)
        risk = estimate_risk(np_trial_detector(), pair, 3, 10**4, seed=9)
        assert risk.ci_low - 0.02 <= (fb.p_hat + mb.p_hat) / 2 <= risk.ci_high + 0.02
        for branch in (fb, mb):
            assert branch.p_hat <= 2 * risk.p_hat + 3 * risk.ci_width


class TestGeneralizedRisk:
    def test_ood_bayes_rule_matches_tv_identity(self):
        pair = pair_of([0.6, 0.3, 0.1], [0.1, 0.2, 0.7], gamma=1.0, beta=0.9)

        def bayes(pair):
            return lambda theta, d_prime, x, rng: pair.pb.probs[x] >= pair.p0.probs[x]

        est = estimate_generalized_risk(
            bayes, pair, n=4, m=4, prior=JointPrior.ood_default(),
            target=Flavor.OOD, trainer=TrainerStub(), trials=4000, seed=10,
        )
        expected = 0.5 - 0.5 * tv_distance(pair.p0, pair.pb)
        assert est.ci_low - 0.01 <= expected <= est.ci_high + 0.01

    def test_constant_detector_symmetric_prior(self):
        pair = pair_of([0.7, 0.3], [0.2, 0.8], gamma=0.8, beta=0.5)
        est = estimate_generalized_risk(
            lambda pair: lambda theta, d, x, rng: np.zeros(x.size), pair, n=3, m=3,
            prior=JointPrior.mbd_default(), target=Flavor.MBD,
            trainer=TrainerStub(), trials=2000, seed=11,
        )
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_zero_mass_cells_never_drawn(self):
        # pb concentrates on a symbol p0 never emits, so probes reveal i = 1
        p0 = Categorical(np.array([0.5, 0.5, 0.0]))
        pb = Categorical.point_mass(2, 3)
        pair = DistributionPair(p0, pb, gamma=1.0, beta=0.2)
        seen = []

        def recorder(pair):
            def score(theta, d_prime, x, rng):
                seen.extend(x.tolist())
                return np.zeros(x.size)

            return score

        estimate_generalized_risk(
            recorder, pair, n=2, m=2, prior=JointPrior(0.5, 0.0, 0.5, 0.0),
            target=Flavor.SBD, trainer=TrainerStub(), trials=500, seed=12,
        )
        assert 2 not in seen

        seen.clear()
        estimate_generalized_risk(
            recorder, pair, n=2, m=2, prior=JointPrior.sbd_default(),
            target=Flavor.SBD, trainer=TrainerStub(), trials=500, seed=12,
        )
        assert 2 in seen

    def test_prior_flavor_mismatch_rejected(self):
        pair = pair_of([0.7, 0.3], [0.2, 0.8], gamma=0.8, beta=0.5)
        with pytest.raises(ConfigurationError):
            estimate_generalized_risk(
                lambda pair: lambda theta, d, x, rng: np.zeros(x.size), pair, n=2, m=2,
                prior=JointPrior.ood_default(), target=Flavor.SBD,
                trainer=TrainerStub(), trials=200, seed=0,
            )

    def test_prior_validation(self):
        with pytest.raises(ParameterError):
            JointPrior(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ParameterError):
            JointPrior(0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize(
        "total", [1 + 4503 * 2.0**-52, 1 - 9007 * 2.0**-53], ids=["above-one", "below-one"]
    )
    def test_prior_at_the_sum_tolerance_runs(self, total):
        # the farthest sums from 1 that the prior accepts (the next double
        # out is rejected); its cell is drawn from a Categorical over the
        # four cells, which must accept them too
        outside = np.nextafter(total, 2 * total - 1)
        with pytest.raises(ParameterError, match="prior cells must sum to 1"):
            JointPrior(outside - 0.5, 0.0, 0.5, 0.0)
        pair = pair_of([0.7, 0.3], [0.2, 0.8], gamma=0.8, beta=0.5)
        estimate = estimate_generalized_risk(
            lambda pair: lambda theta, d, x, rng: np.zeros(x.size), pair, n=2, m=2,
            prior=JointPrior(total - 0.5, 0.0, 0.5, 0.0), target=Flavor.MBD,
            trainer=TrainerStub(), trials=200, seed=0,
        )
        assert estimate.trials == 200

    @pytest.mark.parametrize(
        "cells",
        [
            (math.nan, 0.0, 0.5, 0.5),
            (0.5, math.nan, 0.5, 0.0),
            (math.inf, 0.0, 0.5, 0.5),
            (math.inf, -math.inf, 0.5, 0.5),
        ],
        ids=["nan", "nan-on-empty-cell", "inf", "inf-minus-inf"],
    )
    def test_non_finite_prior_rejected(self, cells):
        with pytest.raises(ParameterError, match="prior cells"):
            JointPrior(*cells)

    def test_flavor_targets(self):
        assert Flavor.MBD.target(1, 0) == 1
        assert Flavor.MBD.target(0, 1) == 0
        assert Flavor.SBD.target(0, 1) == 1
        assert Flavor.OOD.target(0, 1) == 1


class TestTrainerStub:
    def test_smoothed_frequencies(self):
        d = SymbolDataset(np.array([0, 0, 1]), 3)
        theta = TrainerStub(smoothing=1.0)(d)
        assert np.allclose(theta.probs, [(2 + 1) / 6, (1 + 1) / 6, (0 + 1) / 6])

    def test_deterministic(self):
        d = SymbolDataset(draw_symbols(Categorical.uniform(4), 20, substream(13)), 4)
        trainer = TrainerStub()
        assert trainer(d) == trainer(d)

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_outside_range_rejected(self, smoothing):
        with pytest.raises(ParameterError, match="smoothing"):
            TrainerStub(smoothing=smoothing)

    def test_zero_smoothing_is_plain_frequency(self):
        theta = TrainerStub(smoothing=0.0).batch(np.array([[0, 1]]), 2)
        assert theta(np.array([0, 0]), np.array([0, 1])).tolist() == [0.5, 0.5]


class TestType0Demo:
    PAIR = pair_of([0.85, 0.15], [0.1, 0.9], gamma=0.9, beta=0.3)

    def test_well_separated_pair_low_risk(self):
        est = type0_demo_risk(
            type0_tv_detector(self.PAIR.gamma, self.PAIR.beta),
            self.PAIR, n=10, m=40, trainer=TrainerStub(), trials=2000, seed=14,
        )
        assert est.p_hat < 0.1

    def test_constant_detector_random_guess(self):
        est = type0_demo_risk(
            lambda pair: lambda theta, d, x, rng: np.ones(x.size), self.PAIR, n=10, m=40,
            trainer=TrainerStub(), trials=2000, seed=15,
        )
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_never_beats_np_beyond_noise(self):
        est0 = type0_demo_risk(
            type0_tv_detector(self.PAIR.gamma, self.PAIR.beta),
            self.PAIR, n=10, m=40, trainer=TrainerStub(), trials=2000, seed=16,
        )
        est3 = estimate_risk(np_trial_detector(), self.PAIR, 10, 2000, seed=16)
        assert est0.p_hat >= est3.p_hat - 3 * max(est0.ci_width, est3.ci_width)

    @pytest.mark.parametrize("gamma, beta", [(0.0, 0.5), (0.5, 1.0)])
    def test_degenerate_threshold_rejected(self, gamma, beta):
        with pytest.raises(ParameterError):
            type0_tv_detector(gamma, beta)


class TestEstimatorEntryPoints:
    """The default pair, a pair given as a JSON document, and the OOD flavor,
    each through the estimator that runs it."""

    def test_mbd_oracle_interval(self):
        pair = harness.uniform_vs_point_mass(2, 0.5, 0.5)
        est = estimate_risk(np_trial_detector(), pair, 2, 5000, seed=1)
        assert est.ci_low <= ORACLE_RISK <= est.ci_high

    def test_explicit_pair_type2(self):
        pair = DistributionPair.from_jsonable(
            {"p0": [0.9, 0.1], "pb": [0.1, 0.9], "gamma": 1.0, "beta": 0.3}
        )
        est = estimate_risk(type2_trial_detector(), pair, 10, 500, seed=2)
        assert est.p_hat < 0.2

    def test_ood_bayes_probe_value(self):
        pair_doc = {"p0": [0.8, 0.15, 0.05], "pb": [0.05, 0.15, 0.8], "gamma": 1.0, "beta": 0.3}
        pair = DistributionPair.from_jsonable(pair_doc)
        est = estimate_generalized_risk(
            bayes_probe_detector(pair), pair, 3, 3, JointPrior.ood_default(), Flavor.OOD,
            TrainerStub(), 3000, 3,
        )
        expected = 0.5 - 0.5 * tv_distance(pair.p0, pair.pb)
        assert est.ci_low - 0.01 <= expected <= est.ci_high + 0.01


#: each Monte-Carlo estimator as a function of its trial count
TRIAL_COUNTED = {
    "estimate_risk": lambda trials: estimate_risk(np_trial_detector(), ORACLE_PAIR, 2, trials, 0),
    "estimate_conditional_errors": lambda trials: estimate_conditional_errors(
        np_trial_detector(), ORACLE_PAIR, 2, trials, 0
    ),
    "estimate_generalized_risk": lambda trials: estimate_generalized_risk(
        bayes_probe_detector(ORACLE_PAIR), ORACLE_PAIR, 2, 2, JointPrior.sbd_default(),
        Flavor.SBD, TrainerStub(), trials, 0,
    ),
    "type0_demo_risk": lambda trials: type0_demo_risk(
        type0_tv_detector(0.5, 0.5), ORACLE_PAIR, 2, 2, TrainerStub(), trials, 0
    ),
    "imposs_risk": lambda trials: imposs_risk(
        type2_trial_detector(), ImpossibilityConfig(k=2000, beta=0.05, gamma=1.0, n=10), trials, 0
    ),
}


@pytest.mark.parametrize("estimator", TRIAL_COUNTED.values(), ids=TRIAL_COUNTED.keys())
def test_one_trial_floor(estimator):
    with pytest.raises(ParameterError, match=re.escape("at least 100 trials are required") + "$"):
        estimator(99)
    estimates = estimator(100)
    for estimate in estimates if isinstance(estimates, tuple) else (estimates,):
        assert estimate.trials == 100


K3 = next(inst for inst in harness.benchmark_instances() if inst.label == "k3")


class TestEstimatorGoldens:
    """Error counts of each estimator on the k3 instance at seed 7 over
    5,000 trials (one full block and one partial), pinned across refactors."""

    @pytest.mark.parametrize(
        "estimate, errors",
        [
            (lambda: estimate_risk(np_trial_detector(), K3.pair, K3.n, 5000, 7), 39),
            (lambda: estimate_risk(type2_trial_detector(), K3.pair, K3.n, 5000, 7), 186),
            (lambda: estimate_risk(type1_trial_detector(K3.m), K3.pair, K3.n, 5000, 7), 356),
            (lambda: estimate_conditional_errors(np_trial_detector(), K3.pair, K3.n, 5000, 7)[0], 46),
            (lambda: estimate_conditional_errors(np_trial_detector(), K3.pair, K3.n, 5000, 7)[1], 45),
            (
                lambda: estimate_generalized_risk(
                    bayes_probe_detector(K3.pair), K3.pair, K3.n, K3.m, JointPrior.sbd_default(),
                    Flavor.SBD, TrainerStub(), 5000, 7,
                ),
                636,
            ),
            (
                lambda: type0_demo_risk(
                    type0_tv_detector(K3.pair.gamma, K3.pair.beta), K3.pair, K3.n, K3.m,
                    TrainerStub(), 5000, 7,
                ),
                281,
            ),
        ],
        ids=["risk-np", "risk-type2", "risk-type1", "false-backdoor", "missed-backdoor", "sbd", "type0"],
    )
    def test_golden(self, estimate, errors):
        assert estimate() == wilson_interval(errors, 5000)


@pytest.fixture
def parsed(monkeypatch):
    """Every text ``json.loads`` parses while the test runs."""
    texts = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: texts.append(text) or real_loads(text))
    return texts


class TestResultsFile:
    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_append_deduplicates(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        record = {"config_hash": "abc123", "payload": {"x": 1}}
        assert append_result(path, record) is True
        assert append_result(path, {"config_hash": "abc123", "payload": {"x": 2}}) is False
        assert append_result(path, {"config_hash": "def456", "payload": {"x": 3}}) is True
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 2
        assert {r["config_hash"] for r in lines} == {"abc123", "def456"}

    def test_none_hash_appends_without_check(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        assert append_result(path, {"payload": 1}) is True
        assert append_result(path, {"config_hash": None, "payload": 1}) is True
        assert len(Path(path).read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("digest", [17, ["abc"], {"a": 1}, 1.5])
    def test_non_string_hash_rejected(self, tmp_path, digest):
        path = tmp_path / "results.jsonl"
        with pytest.raises(ParameterError):
            append_result(str(path), {"config_hash": digest})
        assert not path.exists()

    def test_partial_last_line_closed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        fragment = b'{"config_hash": "aaaa", "payl'
        path.write_bytes(fragment)
        assert append_result(str(path), {"config_hash": "bbbb"}) is True
        assert append_result(str(path), {"config_hash": "bbbb"}) is False
        lines = path.read_bytes().split(b"\n")
        assert lines == [fragment, b'{"config_hash": "bbbb"}', b""]

    def test_parses_only_lines_holding_the_digest(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(3000):
                record = {"config_hash": f"{i:016x}", "payload": {"n": i, "p_hat": i / 3000}}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        parsed = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real_loads(text))
        digest = "ffffffffffffffff"
        assert append_result(str(path), {"config_hash": digest}) is True
        assert len(parsed) == 0
        assert append_result(str(path), {"config_hash": digest}) is False
        assert len(parsed) == 1

    def test_parses_each_candidate_line_once(self, tmp_path, parsed):
        # candidates spread over several blocks: lines holding the hash (some
        # twice), lines holding a backslash, and lines holding both
        digest = "0123456789abcdef"
        lines = []
        for i in range(6000):
            payload = {"n": i}
            if i % 50 == 0:
                payload["note"] = digest * (1 + i % 3)
            if i % 50 == 25 or i % 500 == 0:
                payload["name"] = "caf\u00e9 \\"
            lines.append(json.dumps({"config_hash": f"{i:016x}", "payload": payload}, sort_keys=True))
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > 4 * results._SCAN_BLOCK
        assert append_result(str(path), {"config_hash": digest}) is True
        expected = [line for line in lines if digest in line or "\\" in line]
        assert len(expected) == 240
        assert sorted(text.rstrip("\n") for text in parsed) == sorted(expected)

    def test_hash_in_another_lines_value_appended(self, tmp_path, parsed):
        digest = "0123456789abcdef"
        lines = [json.dumps({"config_hash": f"{i:016x}", "payload": {"n": i}}) for i in range(3000)]
        lines[1500] = json.dumps({"config_hash": "other", "payload": {"note": digest}})
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert append_result(str(path), {"config_hash": digest}) is True
        assert [text.rstrip("\n") for text in parsed] == [lines[1500]]
        assert append_result(str(path), {"config_hash": digest}) is False

    @pytest.mark.parametrize("where", ["head", "straddle", "tail"])
    def test_line_longer_than_a_block_found(self, tmp_path, where):
        digest = "0123456789abcdef"
        prefix = "".join(json.dumps({"config_hash": f"{i:016x}"}) + "\n" for i in range(100))
        before, key = '{"a": "', '", "config_hash": "'
        pad = 3 * results._SCAN_BLOCK
        # "straddle" starts the hash 8 bytes before the first block ends
        straddle = results._SCAN_BLOCK - 8 - len(prefix + before + key)
        head = {"head": 0, "straddle": straddle, "tail": pad}[where]
        line = before + "x" * head + key + digest + '", "z": "' + "x" * (pad - head) + '"}\n'
        path = tmp_path / "results.jsonl"
        path.write_text(prefix + line + prefix)
        offset = (prefix + line).index(digest)
        if where == "straddle":
            assert offset < results._SCAN_BLOCK < offset + len(digest)
        assert len(line) > results._SCAN_BLOCK
        assert append_result(str(path), {"config_hash": digest}) is False
        assert path.read_text() == prefix + line + prefix

    def test_recent_duplicate_found_in_the_last_block(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        lines = [
            json.dumps({"config_hash": f"{i:016x}", "payload": {"n": i}}) + "\n" for i in range(6000)
        ]
        path.write_text("".join(lines))
        size = path.stat().st_size
        assert size > 4 * results._SCAN_BLOCK
        reads = []  # the length of every block read
        real_pread = os.pread

        def pread(*args):
            block = real_pread(*args)
            reads.append(len(block))
            return block

        monkeypatch.setattr(results.os, "pread", pread)
        assert append_result(str(path), {"config_hash": f"{5999:016x}"}) is False
        assert 0 < sum(reads) <= results._SCAN_BLOCK
        # a miss reads every byte once, plus the partial first line of each
        # block, which the next, earlier read takes again
        reads.clear()
        assert append_result(str(path), {"config_hash": "0123456789abcdef"}) is True
        longest = max(map(len, lines))
        assert size <= sum(reads) <= size + len(reads) * longest

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_oldest_duplicate_found_at_any_block_size(self, tmp_path, block):
        path = tmp_path / "results.jsonl"
        content = "".join(
            json.dumps({"config_hash": f"{i:016x}", "payload": {"n": i}}) + "\n" for i in range(300)
        )
        path.write_text(content)
        with mock.patch.object(results, "_SCAN_BLOCK", block), _deadline(10):
            assert append_result(str(path), {"config_hash": f"{0:016x}"}) is False
        assert path.read_text() == content

    @pytest.mark.parametrize("newline", ["", "\n"])
    def test_last_line_longer_than_a_block_found(self, tmp_path, newline):
        digest = "0123456789abcdef"
        prefix = "".join(json.dumps({"config_hash": f"{i:016x}"}) + "\n" for i in range(100))
        pad = "x" * (3 * results._SCAN_BLOCK)
        line = json.dumps({"a": pad, "config_hash": digest, "z": pad}) + newline
        assert len(line) > results._SCAN_BLOCK
        path = tmp_path / "results.jsonl"
        path.write_text(prefix + line)
        with _deadline(10):
            assert append_result(str(path), {"config_hash": digest}) is False
        assert path.read_text() == prefix + line

    @pytest.mark.parametrize("block", [1, 7, results._SCAN_BLOCK])
    @pytest.mark.parametrize("stored", [False, True])
    @pytest.mark.parametrize("digest", ["\nab", "ab\n", "\n", "", "\\", "a\\b"])
    def test_newline_and_empty_hashes_terminate(self, tmp_path, parsed, digest, stored, block):
        # a search that resumed at a line's newline, not past it, would find a
        # hash that starts with b"\n" at the same place forever
        raw = digest.encode()
        lines = [b"x" + raw + b"y", raw, b'{"config_hash": "' + raw + b'"}', b'{"config_hash": "other"}']
        if stored:
            lines.append(json.dumps({"config_hash": digest}).encode())
        content = b"\n".join(lines) + b"\n"
        path = tmp_path / "results.jsonl"
        path.write_bytes(content)
        held = _reference_holds(content, digest)
        parsed.clear()  # keep only the parses append_result makes
        with mock.patch.object(results, "_SCAN_BLOCK", block), _deadline(10):
            appended = append_result(str(path), {"config_hash": digest})
        assert appended is not held
        assert not (stored and appended)
        assert all(digest in text or "\\" in text for text in parsed)

    @pytest.mark.parametrize(
        "line", [b'{"config_hash": "abcd"}\r{"n": 1}', b'{"n": 1}\r{"config_hash": "abcd"}']
    )
    def test_carriage_return_does_not_end_a_line(self, tmp_path, line):
        path = tmp_path / "results.jsonl"
        path.write_bytes(line + b"\r\n")
        assert _reference_holds(line, "abcd") is False
        assert append_result(str(path), {"config_hash": "abcd"}) is True

    def test_scan_memory_bounded(self, tmp_path):
        path = tmp_path / "results.jsonl"
        longest = 0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(56_000):
                payload = {"n": i, "rows": list(range(i % 50))}
                line = json.dumps({"config_hash": f"{i:016x}", "payload": payload}) + "\n"
                longest = max(longest, len(line))
                fh.write(line)
        assert path.stat().st_size >= 8 << 20
        tracemalloc.start()
        try:
            assert append_result(str(path), {"config_hash": "0123456789abcdef"}) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * results._SCAN_BLOCK + longest

    @pytest.mark.parametrize("stored", [False, True], ids=["miss", "hit"])
    def test_every_block_a_candidate_parses_each_line_once(self, tmp_path, parsed, stored):
        digest = "0123456789abcdef"
        path = tmp_path / "results.jsonl"
        lines = _escaped_results(path, 6000, digest if stored else None)
        assert path.stat().st_size > 4 * results._SCAN_BLOCK
        assert append_result(str(path), {"config_hash": digest}) is not stored
        assert parsed == lines[::-1]  # newest first, each line once

    def test_recent_duplicate_found_without_splitting_its_block(self, tmp_path, parsed):
        # every line is a candidate; the duplicate is the newest one, so the
        # scan parses that line alone and holds little more than one block
        path = tmp_path / "results.jsonl"
        lines = _escaped_results(path, 13_000, None)
        digest = json.loads(lines[-1])["config_hash"]
        parsed.clear()
        tracemalloc.start()
        try:
            assert append_result(str(path), {"config_hash": digest}) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == lines[-1:]
        assert peak < 1.5 * results._SCAN_BLOCK

    @pytest.mark.parametrize("stored", [False, True], ids=["miss", "hit"])
    def test_every_block_a_candidate_memory_bounded(self, tmp_path, stored):
        digest = "0123456789abcdef"
        path = tmp_path / "results.jsonl"
        lines = _escaped_results(path, 13_000, digest if stored else None)
        longest = max(map(len, lines)) + 1
        assert path.stat().st_size >= 1 << 20
        tracemalloc.start()
        try:
            assert append_result(str(path), {"config_hash": digest}) is not stored
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * results._SCAN_BLOCK + longest

    def test_concurrent_writers_serialized(self, tmp_path):
        path = tmp_path / "results.jsonl"
        paths = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", _APPEND_MANY, str(path), str(i)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            )
            for i in range(4)
        ]
        try:
            for worker in workers:
                assert worker.stdout.readline() == b"ready\n"
            for worker in workers:
                worker.stdin.close()  # all four start appending at once
            assert [worker.wait(timeout=60) for worker in workers] == [0, 0, 0, 0]
        finally:
            for worker in workers:
                worker.kill()
                worker.stdin.close()
                worker.stdout.close()
        digests = sorted(json.loads(line)["config_hash"] for line in path.read_bytes().splitlines())
        assert digests == ["own-0", "own-1", "own-2", "own-3", "shared"]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_parsing_every_line(self, data):
        digest = data.draw(_digests)
        lines = data.draw(st.lists(_results_lines(digest), max_size=8))
        content = b"".join(lines)
        if content and data.draw(st.booleans()):
            content = content.rstrip(b"\n")  # a partial last line
        record = {"config_hash": digest, "payload": 1}
        block = data.draw(st.sampled_from([1, 7, 64, results._SCAN_BLOCK]))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(results, "_SCAN_BLOCK", block):
            path = Path(tmp) / "results.jsonl"
            path.write_bytes(content)
            appended = append_result(str(path), record)
            after = path.read_bytes()
        assert appended is not _reference_holds(content, digest)
        if appended:
            glue = b"\n" if content and not content.endswith(b"\n") else b""
            assert after == content + glue + (json.dumps(record, sort_keys=True) + "\n").encode()
        else:
            assert after == content


#: a writer process: 25 rounds of one shared and one own record, started
#: when its stdin closes. A pause after each dedup miss holds the window
#: between check and write open, so writers that did not exclude each other
#: would all miss the shared record and all write it.
_APPEND_MANY = """
import sys, time
from bdlimits import harness, results
holds_digest = results._holds_digest

def holds_digest_then_pause(fh, digest):
    found = holds_digest(fh, digest)
    if not found:
        time.sleep(0.05)
    return found

results._holds_digest = holds_digest_then_pause
path, worker = sys.argv[1], sys.argv[2]
print("ready", flush=True)
sys.stdin.read()
for _ in range(25):
    harness.append_result(path, {"config_hash": "shared", "payload": 0})
    harness.append_result(path, {"config_hash": f"own-{worker}", "payload": worker})
"""


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body, rather than hang, after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _escaped_results(path: Path, count: int, digest: str | None) -> list[str]:
    """Write ``count`` records to ``path``, each line holding a backslash
    (``json.dumps`` escapes the payload's non-ASCII name), the oldest with
    ``digest`` as its hash when one is given. Returns the lines."""
    lines = [
        json.dumps({"config_hash": f"{i:016x}", "payload": {"n": i, "name": "caf\u00e9"}})
        for i in range(count)
    ]
    if digest is not None:
        lines[0] = json.dumps({"config_hash": digest, "payload": {"name": "caf\u00e9"}})
    assert all("\\" in line for line in lines)
    path.write_text("\n".join(lines) + "\n")
    return lines


def _reference_holds(content: bytes, digest: str) -> bool:
    """Whether a line of ``content`` parses as an object with this hash,
    parsing every line."""
    for raw in content.split(b"\n"):
        try:
            existing = json.loads(raw.decode("utf-8"))
        except ValueError:
            continue
        if isinstance(existing, dict) and existing.get("config_hash") == digest:
            return True
    return False


_digests = st.one_of(
    st.sampled_from(["abc123", "0123456789abcdef"]),
    st.text(min_size=1, max_size=4),
)


def _escaped(text: str) -> str:
    """``text`` as a JSON string body with every UTF-16 unit \\u-escaped."""
    units = text.encode("utf-16-be", "surrogatepass")
    return "".join(f"\\u{units[i]:02x}{units[i + 1]:02x}" for i in range(0, len(units), 2))


@st.composite
def _results_lines(draw, digest: str) -> bytes:
    """One line of a results file: well-formed or not, holding ``digest``,
    another hash, or a hash spelled with escapes."""
    value = draw(st.one_of(st.just(digest), _digests, st.text(max_size=3)))
    plain = json.dumps(value, ensure_ascii=draw(st.booleans()))[1:-1]
    key = draw(st.sampled_from(["config_hash", "config_hash", "config_hash", "hash"]))
    key_text = _escaped(key) if draw(st.booleans()) else key
    value_text = _escaped(value) if draw(st.booleans()) else plain
    record = f'{{"{key_text}": "{value_text}", "payload": 1}}'
    line = draw(
        st.one_of(
            st.just(record.encode("utf-8")),
            st.just(record[: draw(st.integers(0, len(record)))].encode("utf-8")),
            st.just(b"\xff" + record.encode("utf-8")),
            st.just(json.dumps([value]).encode()),
            st.just(json.dumps(value).encode()),
            st.sampled_from([b"", b"   ", b"null", b"{}"]),
            st.binary(max_size=12),
        )
    )
    ending = draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    return line + ending
