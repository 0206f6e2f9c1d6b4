"""The determinism contract: one stream per seed, one generator per block."""

import ast
from pathlib import Path

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

#: numpy's generators, bit generators and seeders; only ``rng`` may name one
GENERATOR_NAMES = {
    "SeedSequence", "default_rng", "RandomState",
    "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937",
}


class TestSubstream:
    @pytest.mark.parametrize(
        "seed, draws",
        [
            (0, [4534101526943308299, 7418760212452799692]),
            (7, [6275058507318024234, 8535112915791605163]),
            (2**63, [7158576151886998285, 3528714695494689694]),
            (2**64 - 1, [4659173041518654206, 6010686054268748075]),
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


def words_stream(*words) -> np.random.Generator:
    """The SFC64 generator numpy seeds from these 32-bit words."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.array(words, np.uint32))))


def tuple_keyed(*key) -> np.random.Generator:
    """The stream of a key given to numpy as a tuple of Python ints, each of
    which numpy splits into its 32-bit words, least significant first."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(tuple(map(int, key)))))


#: each seed's 32-bit words, least significant first, spelled by hand
SEED_WORDS = {
    0: [0],
    1: [1],
    2**32 - 1: [2**32 - 1],
    2**32: [0, 1],
    2**33 + 7: [7, 2],
    2**64 + 5: [5, 0, 1],
    2**200: [0, 0, 0, 0, 0, 0, 256],
}


class TestStreamKeys:
    """A stream's key is the uint32 array [len(path), *path, w0, w1, ...], the
    w_i the seed's 32-bit words, least significant first, at least one: the
    words numpy splits the tuple (len(path), *path, seed) into."""

    @pytest.mark.parametrize("seed", sorted(SEED_WORDS))
    @pytest.mark.parametrize(
        "path, path_words",
        [
            pytest.param((1, 0), [1, 0], id="int"),
            pytest.param((np.int64(1), np.int64(2**31)), [1, 2**31], id="np.int64"),
            pytest.param((Domain.CONDITIONAL, 1, 3), [2, 1, 3], id="Domain"),
            pytest.param((2**32 - 1,), [2**32 - 1], id="widest-word"),
            pytest.param((2**32 - 1, 2**32 - 1), [2**32 - 1, 2**32 - 1], id="two-words"),
            pytest.param((), [], id="empty"),
        ],
    )
    def test_same_stream_as_tuple_key(self, seed, path, path_words):
        got = substream(seed, *path).integers(0, 2**63, 4).tolist()
        by_hand = words_stream(len(path_words), *path_words, *SEED_WORDS[seed])
        assert got == by_hand.integers(0, 2**63, 4).tolist()
        assert got == tuple_keyed(len(path), *path, seed).integers(0, 2**63, 4).tolist()

    def test_random_keys_below_two_to_the_32(self):
        keys = np.random.default_rng(34).integers(0, 2**32, (300, 4))
        for seed, *path in keys.tolist():
            assert substream(seed, *path).random() == tuple_keyed(3, *path, seed).random()

    @pytest.mark.parametrize("b", [0, 1, 5])
    def test_wide_seed_spells_no_other_key(self, b):
        # as bare words, 2**33 + 7 was (7, 2), and both keys were 7, 2, 1, b
        wide = substream(2**33 + 7, Domain.RISK, b).random(3)
        assert not np.array_equal(wide, substream(7, Domain.CONDITIONAL, 1, b).random(3))

    def test_trailing_zero_entry_is_another_key(self):
        # numpy pads a short key with zero words; the length word tells them apart
        assert not np.array_equal(substream(3, 1).random(3), substream(3, 1, 0).random(3))

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_seeds_two_to_the_32_apart_differ(self, domain, seed):
        low = substream(seed, domain, 0).random(3)
        assert not np.array_equal(low, substream(seed + 2**32, domain, 0).random(3))

    def test_negative_path_entry_rejected(self):
        message = r"^path entries must lie in \[0, 2\^32\), got -1$"
        for entry in (-1, np.int64(-1)):
            with pytest.raises(ParameterError, match=message):
                substream(3, Domain.RISK, entry)

    def test_path_entry_of_two_words_rejected(self):
        # as a numpy integer cast to uint32 it would wrap silently onto another key
        for entry in (2**32, np.int64(2**32)):
            with pytest.raises(ParameterError, match=r"got 4294967296$"):
                substream(3, Domain.RISK, entry)


def test_all_randomness_goes_through_substream():
    # a module that seeded its own generator would draw outside the stream keys
    named = {}
    for path in sorted(Path(rng.__file__).parent.rglob("*.py")):
        if path.name == "rng.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {
            alias.name.split(".")[-1]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        if names & GENERATOR_NAMES:
            named[path.name] = sorted(names & GENERATOR_NAMES)
    assert not named


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
