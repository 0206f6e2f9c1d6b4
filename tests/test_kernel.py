"""Contract tests for the block Monte-Carlo kernel.

Every built-in detector has a batch form that scores a whole block; any
other callable is called once per row. The two paths must agree verdict by
verdict, and on huge alphabets memory must stay O(BLOCK * n) plus the
probability vectors.
"""

import tracemalloc

import numpy as np
import pytest

from bdlimits import (
    Categorical,
    DistributionPair,
    ImpossibilityConfig,
    ImpossibleSampleError,
    SymbolDataset,
    TrainerStub,
    bayes_probe_detector,
    benchmark_instances,
    estimate_risk,
    imposs_probe,
    mix,
    np_trial_detector,
    type0_tv_detector,
    type1_trial_detector,
    type2_trial_detector,
    type2_tv,
    type_exceedance_frequency,
)
from bdlimits.distributions import draw_symbols
from bdlimits.harness import row_verdicts
from bdlimits.rng import substream

ROWS = 500

#: p1 = pb puts no mass on symbol 0, p0 none on symbol 2, neither on symbol 3
ZERO_MASS_PAIR = DistributionPair(
    Categorical(np.array([0.5, 0.5, 0.0, 0.0])),
    Categorical(np.array([0.0, 0.5, 0.5, 0.0])),
    gamma=1.0,
    beta=0.2,
)

PAIRS = [(inst.label, inst.pair, inst.n, inst.m) for inst in benchmark_instances()]
PAIRS.append(("zero-mass", ZERO_MASS_PAIR, 6, 24))

MB = 2**20


def dataset_block(pair, n, seed):
    """Half the rows from p0, half from the mixture, as the risk kernel draws them."""
    rng = substream(seed, 0)
    return np.vstack(
        [draw_symbols(pair.p0, (ROWS // 2, n), rng), draw_symbols(mix(pair), (ROWS // 2, n), rng)]
    )


def dataset_verdicts(detector, pair, symbols):
    """(batch verdicts, fallback verdicts) on the same block and generator key."""
    batch = detector.bind(pair, mix(pair))(symbols, substream(1, 2))
    rng = substream(1, 2)
    k = pair.alphabet_size
    fallback = row_verdicts(detector, ((SymbolDataset(row, k), pair, rng) for row in symbols))
    return np.asarray(batch, dtype=np.int64), fallback


@pytest.mark.parametrize("label,pair,n,m", PAIRS, ids=[p[0] for p in PAIRS])
@pytest.mark.parametrize(
    "factory",
    [np_trial_detector, type2_trial_detector, lambda: type1_trial_detector(24)],
    ids=["np", "type2", "type1"],
)
def test_dataset_detectors_batch_equals_fallback(factory, label, pair, n, m):
    symbols = dataset_block(pair, n, seed=3)
    batch, fallback = dataset_verdicts(factory(), pair, symbols)
    assert batch.tolist() == fallback.tolist()
    assert 0 < batch.sum() < ROWS


def test_np_zero_mass_rules_batch_equals_fallback():
    # rows over {0, 1, 2} hit every rule: a symbol impossible under the
    # mixture (0) clears the row, one impossible under p0 only (2) flags it
    # when no 0 is present, and rows of 1s alone have a log ratio of 0
    rng = substream(4, 0)
    symbols = rng.integers(0, 3, (ROWS, 3))
    symbols[:20] = 1
    batch, fallback = dataset_verdicts(np_trial_detector(), ZERO_MASS_PAIR, symbols)
    assert batch.tolist() == fallback.tolist()
    has0 = (symbols == 0).any(axis=1)
    has2 = (symbols == 2).any(axis=1)
    assert np.all(batch[has0] == 0)
    assert np.all(batch[~has0 & has2] == 1)
    assert np.all(batch[:20] == 1)
    assert has0.any() and (~has0 & has2).any()


def test_np_impossible_symbol_raises_in_both_forms():
    symbols = np.array([[1, 1, 0], [1, 3, 2]])
    detector = np_trial_detector()
    with pytest.raises(ImpossibleSampleError, match="symbol 3"):
        detector.bind(ZERO_MASS_PAIR, mix(ZERO_MASS_PAIR))(symbols, substream(1, 2))
    with pytest.raises(ImpossibleSampleError, match="symbol 3"):
        detector(SymbolDataset(symbols[1], 4), ZERO_MASS_PAIR, substream(1, 2))


@pytest.mark.parametrize("label,pair,n,m", PAIRS, ids=[p[0] for p in PAIRS])
def test_trained_detectors_batch_equals_fallback(label, pair, n, m):
    k = pair.alphabet_size
    rng = substream(5, 0)
    train = dataset_block(pair, n, seed=6)
    d_prime = draw_symbols(pair.p0, (ROWS, m), rng)
    x = draw_symbols(pair.pb, ROWS, rng)
    trainer = TrainerStub()
    theta = trainer.batch(train, k)
    rows = [(trainer(SymbolDataset(t, k)), SymbolDataset(d, k)) for t, d in zip(train, d_prime)]

    type0 = type0_tv_detector(pair.gamma, pair.beta)
    batch0 = type0.bind(pair, mix(pair))(theta, d_prime)
    assert np.asarray(batch0, dtype=np.int64).tolist() == row_verdicts(type0, rows).tolist()

    probe = bayes_probe_detector(pair)
    batch_probe = probe.bind(pair, mix(pair))(theta, d_prime, x, substream(1, 2))
    rng = substream(1, 2)
    fallback_probe = row_verdicts(probe, ((t, d, int(xr), rng) for (t, d), xr in zip(rows, x)))
    assert np.asarray(batch_probe, dtype=np.int64).tolist() == fallback_probe.tolist()


def test_trainer_batch_matches_per_row_parameters():
    k = 5
    train = substream(7, 0).integers(0, k, (50, 8))
    trainer = TrainerStub(smoothing=0.5)
    theta = trainer.batch(train, k)
    for r, row in enumerate(train):
        expected = trainer(SymbolDataset(row, k)).probs
        got = theta(np.full(k, r), np.arange(k))
        assert got == pytest.approx(expected, abs=1e-15)


def peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_huge_alphabet_risk_memory():
    # a dense counts[BLOCK, K] array would be 32 GB here
    k = 10**6
    pair = DistributionPair(
        Categorical.uniform(k), Categorical.point_mass(0, k), gamma=1.0, beta=0.01
    )
    result = {}
    peak = peak_mb(
        lambda: result.setdefault(
            "est", estimate_risk(type2_trial_detector(), pair, 20, 5000, seed=0)
        )
    )
    assert peak < 100, peak
    # every type of 20 draws sits far from p0, so the detector always flags
    assert result["est"].ci_low <= 0.5 <= result["est"].ci_high


def test_huge_alphabet_probe_memory():
    # a dense anchors[BLOCK, m] table would be 328 MB here (m = 1e4)
    config = ImpossibilityConfig(k=10**6, beta=0.01, gamma=1.0, n=20)
    detector = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.01))  # noqa: E731
    peak = peak_mb(lambda: imposs_probe(detector, config, trials=5000, seed=0))
    assert peak < 100, peak


def test_type_exceedance_memory():
    # a dense trials x K count matrix would be 8 GB here
    p = Categorical.uniform(10**5)
    peak = peak_mb(lambda: type_exceedance_frequency(p, 20, 0.5, 10**4, seed=0))
    assert peak < 100, peak
