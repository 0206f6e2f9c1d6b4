"""Contract tests for the small-alphabet sampling and type kernels.

Small alphabets invert the CDF by counting levels and read types off a
histogram; large ones binary-search the CDF and sort each row. Each kernel
must give exactly what the search and the sort give, on both sides of its
size threshold, and the seeded streams are pinned by digest so that no
kernel change can move a seeded value silently.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlimits import Categorical
from bdlimits.distributions import (
    _COUNT_LEVELS_MAX_K,
    _ROW_LEVELS_MAX_K,
    draw_labeled,
    draw_symbols,
    sparse_types,
)
from bdlimits.rng import substream

#: alphabet sizes on both sides of each kernel's threshold
THRESHOLD_KS = (_ROW_LEVELS_MAX_K, _ROW_LEVELS_MAX_K + 1, _COUNT_LEVELS_MAX_K, _COUNT_LEVELS_MAX_K + 1)


def searched(law, u):
    """The binary-search inversion: min(searchsorted(cdf, u, "right"), K - 1)."""
    return np.minimum(np.searchsorted(law._cdf, u, side="right"), law.alphabet_size - 1)


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
    """Uniforms in [0, 1), with 0 and values exactly on the CDF levels mixed in."""
    u = substream(draw(st.integers(0, 2**32)), 0).random(size)
    on_level = [x for x in [0.0, *law._cdf[:-1]] if x < 1.0]
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


#: SHA-256 of the seeded streams below, recorded before the small-alphabet
#: kernels existed (binary search, mask-and-scatter labeled draws, sorted types)
STREAM_DIGESTS = {
    2: (
        "0d8f38ea5693b7a2f7232e7aa7eb760ec1d180e3973fea509a2d5e60e247e0ad",
        "2599640f53979df77c2d9a5711814e9494783918dc205a1c830f91945a8f9d8c",
        "a83f670a51eef4bc29ae32aa86900884b962908dcc176bd9ee3fc0ddf358216f",
    ),
    4: (
        "039b68ab7c967871ff2a23301a95205237b20666fe9b97ee9e9335dd1103f3ef",
        "4c40a85a1c8e6618050c39f863328810fdde5aa889dbb41b0022a83731f80253",
        "690a88b3ff24a04fb33f6f77df7423e0acdba1a099ac90e78a41b9cac4866379",
    ),
    64: (
        "34acdbefd5043eef5a5d33872c508c3e48a74973b6a731b5ae3c888447e6166c",
        "5c4c8dfff83117853db6023c0c82fab7e7944c3316d53a1bb81326dfb3c7beda",
        "a576d092aad97e4f9739de7e56eef065e70c635f2bd7d11b25e1bd45b2976025",
    ),
    65: (
        "4d90af82462430a18134d8886a349e1c23fcb900d7d5d81abaf37933feb84b84",
        "ce04055f4c1de6d907cb977139898c5dd745ba5a6ad6941f869ea6944a6d3287",
        "130854d1d319a9668405311d46a4a735c734dd0db3158032d6c068e4d63b9d8c",
    ),
    1000: (
        "dc8bde9d42c06a455df521e1b53de5a88eafcf0307cf3534a5b5a21f5e570e9c",
        "14e8d3e80df3f1fe38574507ec6a7f4ce93c71a3d4b6cc3a2669108e188b11a1",
        "1075ddc54218581b241792f59037921e9378cb91634876bdca0dda98fd5569f8",
    ),
}


@pytest.mark.parametrize("k", sorted(STREAM_DIGESTS))
def test_seeded_streams_are_pinned(k):
    law, other = pinned_law(k), pinned_law(k, flip=True)
    rng = substream(13, k)
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
