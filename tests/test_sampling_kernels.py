"""Contract tests for the small-alphabet sampling and type kernels.

Small alphabets invert the CDF by counting levels and read types off a
type table; large ones binary-search the CDF and sort each row. Each kernel
must give exactly what the search and the sort give, on both sides of its
size threshold, and the seeded streams and type distances are pinned by
digest so that no kernel change can move a seeded value silently.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import Categorical
from bdlimits.detectors import type1_distances
from bdlimits.distributions import (
    _COUNT_LEVELS_MAX_K,
    _ROW_LEVELS_MAX_K,
    draw_labeled,
    draw_symbols,
    sparse_types,
    type_counts,
    type_distances,
)
from bdlimits.harness import TrainerStub
from bdlimits.rng import substream

#: alphabet sizes on both sides of each kernel's threshold
THRESHOLD_KS = (_ROW_LEVELS_MAX_K, _ROW_LEVELS_MAX_K + 1, _COUNT_LEVELS_MAX_K, _COUNT_LEVELS_MAX_K + 1)

#: 1 - 2**-53, the largest value ``Generator.random`` returns
TOP_UNIFORM = np.nextafter(1.0, 0.0)


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
        u = data.draw(uniforms(law, 200)).reshape(20, 10)
        np.testing.assert_array_equal(law.quantile(u.copy()), searched(law, u))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_labeled_draw_equals_search_row_by_row(self, data):
        k = data.draw(st.integers(1, 8) | st.sampled_from(THRESHOLD_KS))
        pair = (data.draw(laws(k)), data.draw(laws(k)))
        rows, n = data.draw(st.integers(1, 40)), data.draw(st.sampled_from([1, 3, 20]))
        seed = data.draw(st.integers(0, 2**32))
        labels = substream(seed, 1).integers(0, 2, rows)
        symbols = draw_labeled(pair, labels, n, substream(seed, 0))
        u = substream(seed, 0).random((rows, n))
        assert symbols.shape == (rows, n) and symbols.dtype == np.int64
        for r in range(rows):
            np.testing.assert_array_equal(symbols[r], searched(pair[labels[r]], u[r]))


class TopUniforms:
    """A stand-in generator whose every uniform is ``TOP_UNIFORM``."""

    def random(self, shape):
        return np.full(shape, TOP_UNIFORM)


class TestMasslessLastSymbol:
    # the float cumsum of these masses ends at 1 - 2**-53, so a level at
    # the rounded cumsum would let TOP_UNIFORM reach the massless symbol 3
    MASSES = (0.36506899198262255, 0.5787927773682225, 0.05613823064915503, 0.0)

    @pytest.mark.parametrize("k", [4, _COUNT_LEVELS_MAX_K + 9], ids=["count", "search"])
    def test_quantile_stops_at_the_last_mass(self, k):
        law = Categorical(np.r_[self.MASSES, np.zeros(k - 4)])
        assert np.cumsum(law.probs)[2] == TOP_UNIFORM
        assert law.quantile(np.full(5, TOP_UNIFORM)).tolist() == [2] * 5

    @pytest.mark.parametrize("k", [4, _COUNT_LEVELS_MAX_K + 9], ids=["row-levels", "gathered"])
    def test_labeled_draw_stops_at_the_last_mass(self, k):
        law = Categorical(np.r_[self.MASSES, np.zeros(k - 4)])
        other = Categorical.uniform(k)
        symbols = draw_labeled((law, other), np.array([0, 1, 0]), 4, TopUniforms())
        assert symbols.tolist() == [[2] * 4, [k - 1] * 4, [2] * 4]


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
    """The SFC64 generator keyed by these 32-bit words. The digests below were
    recorded when substream(seed, *path) was keyed by the words (seed, *path)
    alone, so they draw from those keys to stay pinned to the same inputs."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.array(words, np.uint32))))


#: SHA-256 of the seeded streams below, recorded with the reference kernels
#: above (``searched`` for every draw, row by row for the labeled ones, and
#: ``sorted_types``), so they pin the package kernels to the references
STREAM_DIGESTS = {
    2: (
        "8873481453bdf7904189ee3ce70389824cff3fef2ab5feb17ec1c12584897589",
        "4f21f669b40de9d02865e5ebba7da9e1a72b756d522e86a3069f5a3aa219f579",
        "1acc7a8e1e2ddffee7016c9e80318400ccc51ac6aff97b59176548a3264febe9",
    ),
    4: (
        "74417a7aa8318ff759788e346906f983eb1ea02977edfbed82ddd3f3265f5cd8",
        "aea9b247c886f4af53179b0738a63e81f34708c6d910aa4caa45daeb413da1a9",
        "d18919f544cc414eff50062db42cbe425368570662f198f26545c38f049eb240",
    ),
    64: (
        "f3a52af28cc93e4910a12cb690991ae42de79fd08f435727973193867251ee3b",
        "da22cc47d9fd98e27a0951829ba01e63303b2c30640f024ea91ccafb4279cee4",
        "c699b2668907af59562ba7d6bd993d41b525ae157b5fab460196fbde48286341",
    ),
    65: (
        "60b31a9dea4c98ffc18da2a0acf684500f968100a84044ef10847ae7a994c026",
        "61d70eee485f5aa10dd6a45ecc0e898ac80502dd24642f7b7ef5234393e4091f",
        "51ca2dd7be2fdebedecc1488181c3e7eae59fc0310ae69cc1bcccfc472a14dfb",
    ),
    1000: (
        "53d6f3301a30527fde71d17767bdfd8b18c0590bbf527f7d5cbc846f5151b0d5",
        "4b914985cd414faa02f7bc2b9d5ffbad8818d3f7e98c82d7231aed52f80d357e",
        "60e8509d2229e722d6e420d2896e4363287180e8a5fbf93bb36bc04b950a952d",
    ),
}


@pytest.mark.parametrize("k", sorted(STREAM_DIGESTS))
def test_seeded_streams_are_pinned(k):
    law, other = pinned_law(k), pinned_law(k, flip=True)
    rng = words_stream(13, k)
    drawn = draw_symbols(law, (300, 20), rng)
    labels = rng.integers(0, 2, 300)
    labeled = draw_labeled((law, other), labels, 20, rng)
    probe = draw_labeled((law, other), labels, 1, rng)
    wide = draw_symbols(law, (40, 80), rng)
    got = (
        digest(drawn, wide),
        digest(labeled, probe),
        digest(*sparse_types(drawn), *sparse_types(wide)),
    )
    assert got == STREAM_DIGESTS[k]


def full_law(k):
    """A fixed law on k symbols, each with mass."""
    w = 1.0 + np.arange(k) % 3
    return Categorical(w / w.sum())


#: SHA-256 of the ``float.hex`` of ``type_distances`` on the seeded blocks
#: below against each of the package's references, recorded with the sparse
#: types, before any block was scored on its type table. At n = k - 1 the
#: blocks take the sort path, at n = k and k + 1 the table.
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
            symbols, train, clean = (draw_symbols(full_law(k), (40, n), rng) for _ in range(3))
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
    # the uniforms and the symbols, plus O(rows) per level: no rows x K table
    k, rows = _ROW_LEVELS_MAX_K, 4096
    pair = (pinned_law(k), pinned_law(k, flip=True))
    labels = substream(2, 1).integers(0, 2, rows)
    rng = substream(2, 0)
    draw_labeled(pair, labels, n, rng)
    symbols, peak = peak_bytes(lambda: draw_labeled(pair, labels, n, rng))
    assert symbols.shape == (rows, n)
    assert peak <= 2 * 8 * rows * n + 8 * rows * k + 16 * 1024, peak


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
