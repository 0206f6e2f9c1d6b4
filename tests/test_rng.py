"""The determinism contract: one stream per seed, one generator per block."""

import numpy as np
import pytest

from bdlimits import rng
from bdlimits.adversary import ImpossibilityConfig, imposs_risk
from bdlimits.errors import ParameterError
from bdlimits.harness import (
    estimate_conditional_errors,
    estimate_risk,
    np_trial_detector,
    per_row,
    uniform_vs_point_mass,
)
from bdlimits.rng import BLOCK, Domain, substream

TRIALS = 2 * BLOCK + 37


class TestSubstream:
    @pytest.mark.parametrize(
        "seed, draws",
        [
            (0, [6173295166163544437, 5603661728689618961]),
            (7, [5203777326315721154, 2436123261115208572]),
            (2**63, [3188810874255758774, 2780696889305424629]),
            (2**64 - 1, [6183778891753401621, 4695567287652799367]),
        ],
    )
    def test_seeds_below_two_to_the_64_pinned(self, seed, draws):
        # an IntEnum and an np.int64 path element key the stream as plain ints
        stream = substream(seed, Domain.RISK, np.int64(3))
        assert stream.integers(0, 2**63, 2).tolist() == draws

    def test_bit_generator_is_sfc64(self):
        # every pinned draw in the tests and README was recorded on SFC64
        assert type(substream(0, Domain.RISK).bit_generator) is np.random.SFC64

    @pytest.mark.parametrize("seed", [5, 2**64 - 1, 2**70])
    def test_seed_not_reduced_mod_two_to_the_64(self, seed):
        low = substream(seed, 1).random(4)
        high = substream(seed + 2**64, 1).random(4)
        assert not np.array_equal(low, high)

    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match=f"seed must be >= 0, got {seed}"):
            substream(seed, 1)

    @pytest.mark.parametrize("seed", [True, False, np.True_, 1.9, 2.0, "1", None])
    def test_seed_taken_whole(self, seed):
        # a bool or a float would be truncated to another seed's stream
        with pytest.raises(ParameterError, match="seed must be an integer, got"):
            substream(seed, 1)

    def test_non_integral_seed_rejected_by_estimates(self):
        pair = uniform_vs_point_mass(3, 0.5, 0.5)
        with pytest.raises(ParameterError, match="seed must be an integer, got 1.9"):
            estimate_risk(np_trial_detector(), pair, 4, 100, seed=1.9)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.uint64(5), np.int8(5)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        assert np.array_equal(substream(seed, 1).random(4), substream(5, 1).random(4))


def tuple_keyed(*key) -> np.random.Generator:
    """The stream of a key given to numpy as a tuple of Python ints."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(tuple(map(int, key)))))


class TestStreamKeys:
    """A key below 2^32 goes to numpy as one uint32 array, a wider one as a
    tuple; both must spell the words numpy splits the tuple into."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**33 + 7, 2**64 + 5])
    @pytest.mark.parametrize(
        "path",
        [
            (1, 0),
            (np.int64(1), np.int64(2**31)),
            (Domain.CONDITIONAL, 1, 3),
            (2**32 - 1,),
            (2**32,),
            (),
        ],
        ids=["int", "np.int64", "Domain", "widest-word", "two-words", "empty"],
    )
    def test_same_stream_as_tuple_key(self, seed, path):
        got = substream(seed, *path).integers(0, 2**63, 4)
        assert got.tolist() == tuple_keyed(seed, *path).integers(0, 2**63, 4).tolist()

    def test_random_keys_below_two_to_the_32(self):
        keys = np.random.default_rng(34).integers(0, 2**32, (300, 4))
        for seed, *path in keys.tolist():
            assert substream(seed, *path).random() == tuple_keyed(seed, *path).random()

    @pytest.mark.parametrize("b", [0, 1, 5])
    def test_wide_seed_collision_unchanged(self, b):
        # documented: a seed above 2^32 can spell another seed's key
        wide = substream(2**33 + 7, Domain.RISK, b).random(3)
        assert np.array_equal(wide, substream(7, Domain.CONDITIONAL, 1, b).random(3))

    def test_negative_path_entry_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            substream(3, Domain.RISK, -1)


def record_substreams(monkeypatch) -> list[tuple[tuple, np.random.Generator]]:
    """Record the key and the generator of every stream ``block_errors`` builds."""
    built = []

    def recording(seed, *path):
        gen = substream(seed, *path)
        built.append(((seed, *path), gen))
        return gen

    monkeypatch.setattr(rng, "substream", recording)
    return built


class TestOneGeneratorPerBlock:
    PAIR = uniform_vs_point_mass(3, 0.5, 0.5)
    PROBE = ImpossibilityConfig(k=200, beta=0.2, gamma=0.5, n=10)

    def test_one_generator_per_block(self, monkeypatch):
        built = record_substreams(monkeypatch)
        estimate_risk(np_trial_detector(), self.PAIR, 4, TRIALS, seed=9)
        assert [key for key, _ in built] == [(9, Domain.RISK, b) for b in range(3)]

    @staticmethod
    def recording_detector(draws: int, rows: list, generators: list):
        """A per-row detector that records each row and its generator, then
        draws ``draws`` uniforms from that generator for its verdict."""

        def fn(d, pair, gen):
            rows.append(d.symbols.tolist())
            generators.append(gen)
            return int(gen.random(draws).sum() > draws / 2)

        return per_row(fn)

    @pytest.mark.parametrize(
        "run",
        [
            lambda det, pair, probe: estimate_risk(det, pair, 4, TRIALS, seed=3),
            lambda det, pair, probe: estimate_conditional_errors(det, pair, 4, TRIALS, seed=3),
            lambda det, pair, probe: imposs_risk(det, probe, TRIALS, seed=3),
        ],
        ids=["risk", "conditional", "imposs"],
    )
    def test_data_independent_of_detector_draws(self, monkeypatch, run):
        seen = []
        for draws in (0, 3):
            built = record_substreams(monkeypatch)
            rows, generators = [], []
            run(self.recording_detector(draws, rows, generators), self.PAIR, self.PROBE)
            # the detector draws from each block's one generator, after its data
            assert {id(gen) for gen in generators} == {id(gen) for _, gen in built}
            seen.append(rows)
        assert seen[0] == seen[1]
        assert len(seen[0]) % TRIALS == 0
