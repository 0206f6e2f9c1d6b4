"""Contract tests for the small-alphabet sampling and type kernels.

Small alphabets draw symbols by counting integer levels at or below 32-bit
lanes of raw words and read types off a type table; large ones
binary-search the float CDF at uniforms and sort each row. The sampler must
give exactly what a pure-Python inversion of the same words gives, or the
search on the same uniforms, on both sides of its size threshold; each
type kernel must give exactly what the sort gives. The seeded streams and
type distances are pinned by digest so that no kernel change can move a
seeded value silently.
"""

import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import Categorical, SymbolDataset
from bdlimits.detectors import _type1_distance, type1_distances
from bdlimits.distributions import (
    _COUNT_LEVELS_MAX_K,
    draw_grouped,
    draw_symbols,
    sparse_types,
    tv_to_type,
    type_counts,
    type_distances,
)
from bdlimits.harness import TrainerStub
from bdlimits.rng import substream

#: alphabet sizes the sampler is checked at: one and two symbols, two
#: mid-size alphabets, and both sides of its lane threshold
THRESHOLD_KS = (1, 2, 6, 7, _COUNT_LEVELS_MAX_K, _COUNT_LEVELS_MAX_K + 1)

#: 1 - 2**-53, the largest value ``Generator.random`` returns
TOP_UNIFORM = np.nextafter(1.0, 0.0)

#: lanes are 32-bit: they lie below this
LANES = 2**32


def full_cdf(law):
    """The law's K CDF levels, the last one forced to 1."""
    cdf = np.cumsum(law.probs)
    cdf[-1] = 1.0
    return cdf


def searched(law, u):
    """The binary-search inversion, capped at the last symbol with mass:
    min(searchsorted(cdf, u, "right"), that symbol)."""
    last = np.flatnonzero(law.probs)[-1]
    return np.minimum(np.searchsorted(np.cumsum(law.probs), u, side="right"), last)


def lane_levels(law):
    """The integer levels ceil(c * 2^32) of the float inner CDF levels c, in
    exact rational arithmetic."""
    return [math.ceil(Fraction(c) * LANES) for c in np.cumsum(law.probs)[:-1].tolist()]


def lanes_of(words):
    """The 32-bit lanes of raw 64-bit words, each word's low half first."""
    return [half for w in words for half in (w & (LANES - 1), w >> 32)]


def lane_inverted(law, lanes):
    """The pure-Python inversion of lanes: the number of integer levels at
    or below each lane, capped at the last symbol with mass."""
    last = int(np.flatnonzero(law.probs)[-1])
    levels = lane_levels(law)
    return [min(sum(level <= lane for level in levels), last) for lane in lanes]


def reference_draw(law, shape, rng):
    """What ``draw_symbols(law, shape, rng)`` must give: the lane inversion
    of ceil(size / 2) raw words up to ``_COUNT_LEVELS_MAX_K`` symbols, and
    ``searched`` on ``rng.random(shape)`` above."""
    if law.alphabet_size > _COUNT_LEVELS_MAX_K:
        return searched(law, rng.random(shape))
    size = math.prod(shape)
    lanes = lanes_of(rng.bit_generator.random_raw((size + 1) // 2).tolist())[:size]
    return np.array(lane_inverted(law, lanes), dtype=np.int64).reshape(shape)


def reference_grouped(laws, counts, n, rng):
    """What ``draw_grouped`` must give: one block buffer of ``reference_draw``'s
    kind, each group's rows inverted with its own law."""
    rows = sum(counts)
    if laws[0].alphabet_size > _COUNT_LEVELS_MAX_K:
        u = rng.random((rows, n))
        parts = np.split(u, np.cumsum(counts)[:-1])
        return np.concatenate([searched(law, part) for law, part in zip(laws, parts)])
    lanes = lanes_of(rng.bit_generator.random_raw((rows * n + 1) // 2).tolist())[: rows * n]
    symbols, start = [], 0
    for law, count in zip(laws, counts):
        symbols += lane_inverted(law, lanes[start : start + count * n])
        start += count * n
    return np.array(symbols, dtype=np.int64).reshape(rows, n)


class Words:
    """A stand-in generator whose bit generator yields these raw 64-bit words,
    then all-ones words, and whose uniforms are the doubles those words give."""

    def __init__(self, words=()):
        self.words = list(words)
        self.bit_generator = self

    def random_raw(self, size):
        taken, self.words = self.words[:size], self.words[size:]
        return np.array(taken + [2**64 - 1] * (size - len(taken)), dtype=np.uint64)

    def random(self, shape):
        words = self.random_raw(math.prod(np.atleast_1d(shape)))
        return ((words >> np.uint64(11)) * 2.0**-53).reshape(shape)


def from_lanes(lanes):
    """Raw words that carry these lanes, low half first."""
    lanes = list(lanes) + [0] * (len(lanes) % 2)
    return [lo | hi << 32 for lo, hi in zip(lanes[::2], lanes[1::2])]


def sorted_types(symbols):
    """Sparse types by sorting each row and counting its runs of equal symbols."""
    rows, n = symbols.shape
    ordered = np.sort(symbols, axis=1)
    first = np.empty(ordered.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, rows * n))
    return starts // n, ordered.ravel()[starts], counts


def sparse_counts(symbols, k):
    """``type_counts`` by binary search over the sorted keys row * k + symbol
    of the sparse types, the lookup every block used before the type table."""
    row, sym, counts = sorted_types(symbols)
    keys = row * k + sym

    def at(rows, syms):
        query = rows * k + syms
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[pos] == query, counts[pos], 0)

    return at


def sparse_distances(symbols, reference):
    """``type_distances`` over the observed symbols of the sparse types alone,
    as every block was scored before the type table."""
    rows, n = symbols.shape
    row, sym, counts = sorted_types(symbols)
    p_obs = reference(row, sym)
    terms = np.abs(counts / n - p_obs) - p_obs
    return 0.5 * (np.bincount(row, weights=terms, minlength=rows) + 1.0)


def hexes(values):
    return [float.hex(x) for x in values.tolist()]


@st.composite
def laws(draw, k=None):
    """Laws with zero masses anywhere, interior and trailing ones included."""
    if k is None:
        k = draw(st.integers(1, 8) | st.sampled_from(THRESHOLD_KS))
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.0]), min_size=k, max_size=k))
    )
    weights[draw(st.integers(0, k - 1))] += 1.0  # some mass somewhere
    return Categorical(weights / weights.sum())


@st.composite
def uniforms(draw, law, size):
    """Uniforms in [0, 1), with 0, the largest uniform below 1 and values
    exactly on the CDF levels mixed in."""
    u = substream(draw(st.integers(0, 2**32)), 0).random(size)
    on_level = [x for x in [0.0, TOP_UNIFORM, *full_cdf(law)[:-1]] if x < 1.0]
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        u[i] = draw(st.sampled_from(on_level))
    return u


class TestLevelCounting:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_quantile_equals_search(self, data):
        law = data.draw(laws())
        u = data.draw(uniforms(law, 64))
        expected = searched(law, u)
        got = law.quantile(u.copy())
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("k", THRESHOLD_KS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_both_sides_of_the_threshold(self, k, data):
        law = data.draw(laws(k))
        shape = data.draw(st.sampled_from([(20, 10), (7, 3), (5,)]))
        seed = data.draw(st.integers(0, 2**32))
        got = draw_symbols(law, shape, substream(seed, 0))
        assert got.shape == shape and got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_draw(law, shape, substream(seed, 0)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_lanes_on_a_level_and_one_below(self, data):
        # a lane exactly on a level counts it, a lane one below does not
        law = data.draw(laws(data.draw(st.integers(1, 8) | st.just(_COUNT_LEVELS_MAX_K))))
        levels = [level for level in lane_levels(law) if level < LANES]
        lanes = [0, LANES - 1, *levels, *(level - 1 for level in levels if level > 0)]
        got = draw_symbols(law, len(lanes), Words(from_lanes(lanes)))
        assert got.tolist() == lane_inverted(law, lanes)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_lane_masses_within_two_to_the_minus_32(self, data):
        # bisect, for each symbol s > 0, the first lane at which the sampler
        # draws s or more (2^32 if none does); symbol s's mass is its share
        # of the 2^32 lanes, compared with p_s in exact arithmetic
        law = data.draw(laws(data.draw(st.integers(1, 8) | st.just(_COUNT_LEVELS_MAX_K))))
        k = law.alphabet_size
        targets = np.arange(1, k)
        low, high = np.zeros(k - 1, dtype=np.int64), np.full(k - 1, LANES)
        while (active := low < high).any():
            mid = (low + high) // 2
            lanes = np.minimum(mid, LANES - 1).tolist()
            above = draw_symbols(law, k - 1, Words(from_lanes(lanes))) >= targets
            high = np.where(active & above, mid, high)
            low = np.where(active & ~above, mid + 1, low)
        starts = [0, *high.tolist(), LANES]
        masses = [Fraction(b - a, LANES) for a, b in zip(starts, starts[1:])]
        # the float CDF the levels are taken from adds its own rounding
        slack = Fraction(1, LANES) + Fraction(k, 2**52)
        for s, (mass, p) in enumerate(zip(masses, law.probs.tolist())):
            if p == 0.0:
                assert mass == 0, s
            else:
                assert abs(mass - Fraction(p)) < slack, s

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_grouped_draw_equals_inversion_group_by_group(self, data):
        k = data.draw(st.integers(1, 8) | st.sampled_from(THRESHOLD_KS))
        group_laws = data.draw(st.lists(laws(k), min_size=1, max_size=4))
        counts = data.draw(st.lists(st.integers(0, 15), min_size=len(group_laws), max_size=len(group_laws)))
        n = data.draw(st.sampled_from([1, 3, 20]))
        seed = data.draw(st.integers(0, 2**32))
        symbols = draw_grouped(group_laws, counts, n, substream(seed, 0))
        assert symbols.shape == (sum(counts), n) and symbols.dtype == np.int64
        expected = reference_grouped(group_laws, counts, n, substream(seed, 0))
        np.testing.assert_array_equal(symbols, expected)


class TestMasslessLastSymbol:
    # the float cumsum of these masses ends at 1 - 2**-53, so a level at
    # the rounded cumsum would let TOP_UNIFORM reach the massless symbol 3
    MASSES = (0.36506899198262255, 0.5787927773682225, 0.05613823064915503, 0.0)

    @pytest.mark.parametrize("k", [4, _COUNT_LEVELS_MAX_K + 9], ids=["count", "search"])
    def test_quantile_stops_at_the_last_mass(self, k):
        law = Categorical(np.r_[self.MASSES, np.zeros(k - 4)])
        assert np.cumsum(law.probs)[2] == TOP_UNIFORM
        assert law.quantile(np.full(5, TOP_UNIFORM)).tolist() == [2] * 5

    @pytest.mark.parametrize("k", [4, _COUNT_LEVELS_MAX_K + 9], ids=["lanes", "floats"])
    def test_draw_stops_at_the_last_mass(self, k):
        # all-ones words: every lane is 2^32 - 1 and every uniform TOP_UNIFORM
        law = Categorical(np.r_[self.MASSES, np.zeros(k - 4)])
        other = Categorical.uniform(k)
        assert draw_symbols(law, 5, Words()).tolist() == [2] * 5
        symbols = draw_grouped((law, other, law), (1, 1, 1), 4, Words())
        assert symbols.tolist() == [[2] * 4, [k - 1] * 4, [2] * 4]

    @pytest.mark.parametrize("k", [2, _COUNT_LEVELS_MAX_K])
    def test_tail_below_one_lane_is_never_drawn(self, k):
        # the last level ceil(c * 2^32) is 2^32, above the top lane 2^32 - 1
        law = Categorical(np.r_[np.zeros(k - 2), 1.0 - 1e-12, 1e-12])
        assert lane_levels(law)[-1] == LANES
        assert draw_symbols(law, 5, Words()).tolist() == [k - 2] * 5


class TestHistogramTypes:
    @pytest.mark.parametrize("extra", [0, 1], ids=["k=n", "k=n+1"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_sort(self, extra, dtype, data):
        rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        k = n + extra  # the largest symbol plus 1
        symbols = substream(data.draw(st.integers(0, 2**32)), 0).integers(0, k, (rows, n))
        symbols.flat[data.draw(st.integers(0, rows * n - 1))] = k - 1
        symbols = symbols.astype(dtype)
        got, expected = sparse_types(symbols), sorted_types(symbols)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestSortedTypesPath:
    """``sparse_types``' sort path, forced by a first symbol >= n, against
    ``sorted_types``: runs are counted over the flat sorted block, so a run
    must end at every row start."""

    @staticmethod
    def assert_sorted_types(symbols):
        assert symbols[0, 0] >= symbols.shape[1]  # the sort path
        got, expected = sparse_types(symbols), sorted_types(symbols)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize(
        "rows",
        [[[5], [5], [7], [7]], [[9, 9, 9], [9, 9, 9]], [[4, 6, 5], [6, 7, 6], [7, 9, 9]]],
        ids=["n=1", "one-symbol-rows", "chained-rows"],
    )
    def test_runs_end_at_row_starts(self, dtype, rows):
        self.assert_sorted_types(np.array(rows, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_sort(self, dtype, data):
        rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        span = data.draw(st.integers(1, 2 * n))  # span 1: each row one repeated symbol
        symbols = n + substream(data.draw(st.integers(0, 2**32)), 0).integers(0, span, (rows, n))
        if data.draw(st.booleans()):
            # chain the rows: row r + 1's smallest symbol is row r's largest
            for r in range(1, rows):
                symbols[r] += symbols[r - 1].max() - symbols[r].min()
        self.assert_sorted_types(symbols.astype(dtype))


class TestTypeTable:
    """Blocks whose symbols all lie below their row length n are scored on
    their (rows, k) type table; they must give what the sparse types give,
    counts exactly and distances bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_sparse_types(self, data):
        rows, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, n))  # k = n included, and n = 1
        seed = data.draw(st.integers(0, 2**32))
        symbols = substream(seed, 0).integers(0, k, (rows, n))
        got, expected = type_counts(symbols, k), sparse_counts(symbols, k)
        every = np.arange(rows).repeat(k), np.tile(np.arange(k), rows)
        np.testing.assert_array_equal(got(*every), expected(*every))
        # an alphabet larger than n over the same symbols, all below n, is
        # looked up on the sorted types
        wide = data.draw(st.integers(n + 1, 2 * n + 1))
        every = np.arange(rows).repeat(wide), np.tile(np.arange(wide), rows)
        got, expected = type_counts(symbols, wide), sparse_counts(symbols, wide)
        np.testing.assert_array_equal(got(*every), expected(*every))
        # a law with zero masses, a row-dependent one, and the type of a
        # second block, whose own lookup is sparse when it is shorter than k
        law = data.draw(laws(k)).probs
        masses = substream(seed, 1).random((rows, k))
        masses[substream(seed, 2).random((rows, k)) < 0.3] = 0.0
        m = data.draw(st.integers(1, 10))
        clean = substream(seed, 3).integers(0, k, (rows, m))
        counts, reference_counts = type_counts(clean, k), sparse_counts(clean, k)
        for reference, expected in [
            (lambda row, sym: law[sym], lambda row, sym: law[sym]),
            (lambda row, sym: masses[row, sym], lambda row, sym: masses[row, sym]),
            (lambda row, sym: counts(row, sym) / m, lambda row, sym: reference_counts(row, sym) / m),
        ]:
            assert hexes(type_distances(symbols, reference)) == hexes(
                sparse_distances(symbols, expected)
            )


@functools.cache
def huge_uniform():
    """The uniform law on 10**9 symbols, built once: its check sums 10**9
    broadcast entries."""
    return Categorical.uniform(10**9)


@st.composite
def one_rows(draw, k):
    """A row of 1 to 128 symbols below k, whose symbols span at most its
    length when k allows, which ``type_distances`` scores on a type table,
    or anywhere below k, which it sorts."""
    n = draw(st.integers(1, 128))
    span = min(k, n) if draw(st.booleans()) else k
    return substream(draw(st.integers(0, 2**32)), 0).integers(0, span, n)


class TestRowWalk:
    """``tv_to_type`` and ``type1_tv`` walk one dataset in Python instead of
    calling the block kernel; each must give the kernel's one-row distance
    bit for bit, on either of the kernel's paths."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_tv_to_type_equals_type_distances(self, data):
        law = data.draw(laws() | st.builds(huge_uniform))
        symbols = data.draw(one_rows(law.alphabet_size))
        expected = type_distances(symbols[None, :], lambda row, sym: law.probs[sym])
        got = tv_to_type(law, SymbolDataset(symbols, law.alphabet_size))
        assert float.hex(got) == hexes(expected)[0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_type1_distance_equals_type1_distances(self, data):
        k = data.draw(st.integers(1, 160) | st.just(10**9))
        symbols, clean = data.draw(one_rows(k)), data.draw(one_rows(k))
        if data.draw(st.booleans()):
            # the clean sample misses every symbol of d above its smallest
            clean = np.minimum(clean, symbols.min())
        expected = type1_distances(symbols[None, :], clean[None, :], k)
        got = _type1_distance(SymbolDataset(symbols, k), SymbolDataset(clean, k))
        assert float.hex(got) == hexes(expected)[0]


def pinned_law(k, flip=False):
    """A fixed law on k symbols; from k = 4 on, symbol 1 and symbol k-1 are massless."""
    w = 1.0 + np.arange(k) % 5
    if k >= 4:
        w[1] = w[-1] = 0.0
    if flip:
        w = w[::-1]
    return Categorical(w / w.sum())


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def words_stream(*words):
    """The SFC64 generator keyed by these 32-bit words. The distance digests
    below were recorded when substream(seed, *path) was keyed by the words
    (seed, *path) alone, so they draw from those keys to stay pinned to the
    same inputs; the stream digests draw from the same keys."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.array(words, np.uint32))))


#: SHA-256 of the seeded streams below, recorded with the reference kernels
#: above (``reference_draw`` for every draw, ``reference_grouped`` for the
#: grouped ones, and ``sorted_types``), so they pin the package kernels to
#: the references
STREAM_DIGESTS = {
    2: (
        "e62c681a57f6790e9b88ff63f041e749e7e0ae831d1cc5173e8c82beceeb20a6",
        "06cd0dbb56672002db214e3cbb3f698223b8aedd49af7e2e5ec465679b30f956",
        "63f1bd0d747ad27674cc63a136e5276fa9b8ccf6d6db1cd80f8e2088a5f7f078",
    ),
    4: (
        "2f637fe6c2dc11fb601d77b7533dd3453c575ae83119f68b992e5de3b83a90e4",
        "c65df7351103818d655314c3e8b00d0c2d8d3d8b3e3468611b094785987bee68",
        "bcc46bee3e14d98fa1387d93235c7d231acd1278a762892ad9b54bb7f7d7ee36",
    ),
    64: (
        "919ad9364fd0352044d69f7739099ddb8fb1729364793d419712615db5ae3729",
        "dcb941058b45d42ef35f82e6ae4abc91bbdf876b38afb615c59c78697f91cb75",
        "bb2a9223a4d7c3823290feded87345b6dd067456aa859b618f1a8d2843c79d43",
    ),
    65: (
        "60b31a9dea4c98ffc18da2a0acf684500f968100a84044ef10847ae7a994c026",
        "b726ea0648737f4f52b92e6b77099f7737fcbcfcfc05396ddaaf90f4ae5c760f",
        "51ca2dd7be2fdebedecc1488181c3e7eae59fc0310ae69cc1bcccfc472a14dfb",
    ),
    1000: (
        "53d6f3301a30527fde71d17767bdfd8b18c0590bbf527f7d5cbc846f5151b0d5",
        "9533263d8799bae6b5234284f203c50e8591ab44ad4b73d3fc7ce839f4af8732",
        "60e8509d2229e722d6e420d2896e4363287180e8a5fbf93bb36bc04b950a952d",
    ),
}


def seeded_streams(k, draw, grouped):
    """The pinned draws on the stream of key (13, k), with these samplers:
    a block, fair labels, the block and probes of those labels, a wide block."""
    law, other = pinned_law(k), pinned_law(k, flip=True)
    rng = words_stream(13, k)
    drawn = draw(law, (300, 20), rng)
    ones = int(np.count_nonzero(draw(Categorical.uniform(2), (300,), rng)))
    labeled = grouped((law, other), (300 - ones, ones), 20, rng)
    probe = grouped((law, other), (300 - ones, ones), 1, rng)
    wide = draw(law, (40, 80), rng)
    return (
        digest(drawn, wide),
        digest(labeled, probe),
        digest(*sparse_types(drawn), *sparse_types(wide)),
    )


@pytest.mark.parametrize("k", sorted(STREAM_DIGESTS))
def test_seeded_streams_are_pinned(k):
    assert seeded_streams(k, draw_symbols, draw_grouped) == STREAM_DIGESTS[k]


def full_law(k):
    """A fixed law on k symbols, each with mass."""
    w = 1.0 + np.arange(k) % 3
    return Categorical(w / w.sum())


#: SHA-256 of the ``float.hex`` of ``type_distances`` on the seeded blocks
#: below against each of the package's references, recorded with the sparse
#: types, before any block was scored on its type table. At n = k - 1 the
#: blocks take the sort path, at n = k and k + 1 the table. The blocks are
#: drawn as they were then, by ``searched`` on float uniforms, so the digests
#: pin the type layer alone, whatever the sampler.
DISTANCE_DIGESTS = {
    "p0": "daad05f8fe83081294b4f6443bf34c55dfe71edada998f58812a7fb33a6c14ef",
    "trained": "60a6ca7c513a5345d865a7b7d5f6367bb40da10cb0449b79c1e7ae2121551101",
    "type1": "7cee6d51169f05dad2fa147c84551296888a958df937f2abc2084a2c735be4d5",
}


@pytest.mark.parametrize("reference", sorted(DISTANCE_DIGESTS))
def test_seeded_distances_are_pinned(reference):
    h = hashlib.sha256()
    for k in (2, 3, 4, 64):
        for n in (k - 1, k, k + 1):
            rng = words_stream(17, k, n)
            law = full_law(k)
            symbols, train, clean = (searched(law, rng.random((40, n))) for _ in range(3))
            if reference == "p0":
                probs = pinned_law(k).probs
                distances = type_distances(symbols, lambda row, sym: probs[sym])
            elif reference == "trained":
                distances = type_distances(symbols, TrainerStub().batch(train, k))
            else:
                distances = type1_distances(symbols, clean, k)
            h.update(" ".join(hexes(distances)).encode())
    assert h.hexdigest() == DISTANCE_DIGESTS[reference]


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 20])
def test_labeled_draw_memory(n):
    # a grouped draw holds no more than the uniforms and the symbols, plus
    # O(rows) per level: no rows x K table, on lanes and on floats
    rows = 4096
    counts = (rows // 2 - 100, rows // 2 + 100)
    for k in (4, _COUNT_LEVELS_MAX_K + 1):
        pair = (pinned_law(k), pinned_law(k, flip=True))
        rng = substream(2, 0)
        draw_grouped(pair, counts, n, rng)
        symbols, peak = peak_bytes(lambda: draw_grouped(pair, counts, n, rng))
        assert symbols.shape == (rows, n)
        assert peak <= 2 * 8 * rows * n + 8 * rows * k + 16 * 1024, (k, peak)


def test_histogram_types_memory():
    # one block of (row, symbol) keys and a rows x k histogram no larger
    # than the block, then the triples and the cells they come from
    rows, n, k = 4096, 64, 4
    symbols = substream(3, 0).integers(0, k, (rows, n))
    (row, _, _), peak = peak_bytes(lambda: sparse_types(symbols))
    assert peak <= 8 * rows * n + 8 * rows * k + 4 * 8 * row.size + 16 * 1024, peak


def test_type_table_memory():
    # the table's worst case, k = n, where it is as large as the block; on
    # this block the sparse types peaked at 7,996,662 B in type_distances
    # and at 7,428,344 B building the type_counts lookup
    rows, n = 4096, 64
    symbols = substream(3, 0).integers(0, n, (rows, n))
    probs = np.full(n, 1.0 / n)
    _, peak = peak_bytes(lambda: type_distances(symbols, lambda row, sym: probs[sym]))
    assert peak <= 7_996_662, peak
    _, peak = peak_bytes(lambda: type_counts(symbols, n))
    assert peak <= 7_428_344, peak
