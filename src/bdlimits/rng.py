"""Deterministic random streams and the one Monte-Carlo block kernel.

All randomness in the package flows through :func:`substream`, which maps an
integer seed >= 0, taken whole, plus a path of integers below 2^32 (domain
tag, block index, ...) onto a fresh SFC64 generator seeded from that key
alone. Each block seeds its own, so a stream depends only on its key, not on
what a sibling stream drew, and the same (seed, path) gives the same stream
on any platform.

Every risk the package estimates counts the seeded trials whose verdict
differs from a target, by one block rule (:func:`block_errors`), over fixed
blocks of ``BLOCK = 4096`` trials, each on its own generator. Block counts
are summed in block order (:func:`count_errors`), so aggregates are
bit-identical no matter how blocks are scheduled.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

#: Trials per Monte-Carlo block. Part of the determinism contract: changing
#: it changes every seeded Monte-Carlo value.
BLOCK = 4096

#: Each word of a stream's key is below this.
_WORD = 1 << 32
_MASK = _WORD - 1


class Domain(enum.IntEnum):
    """Namespace tags keeping unrelated substreams disjoint.

    A tag's value is part of its streams' keys, so a retired tag leaves a
    gap in the values rather than moving the others.
    """

    RISK = 1
    CONDITIONAL = 2
    GENERALIZED = 3
    TYPE0 = 4
    PROBE = 5
    TOY_CLEAN = 7
    TOY_POISON = 8
    CONCENTRATION = 11


def substream(seed: int, *path: int) -> np.random.Generator:
    """A fresh SFC64 generator seeded from (seed, *path) alone, for any integer
    seed >= 0 (a Python or numpy integer, not a bool) and path entries in
    [0, 2^32).

    Its key is the uint32 array [len(path), *path, w0, w1, ...], where the
    w_i are the seed's 32-bit words, least significant first, as many as the
    seed needs and at least one. The first word fixes where the seed starts
    and the last seed word is nonzero unless the seed is 0, so numpy's zero
    padding of short keys never makes two keys equal: distinct (seed, path)
    give statistically independent streams.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    words = [len(path), *map(operator.index, path)]
    if min(words) < 0 or max(words) >= _WORD:
        bad = next(entry for entry in words[1:] if not 0 <= entry < _WORD)
        raise ParameterError(f"path entries must lie in [0, 2^32), got {bad}")
    words += [(seed >> shift) & _MASK for shift in range(0, seed.bit_length() or 1, 32)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.array(words, np.uint32))))


def block_errors(
    draw: Callable, score: Callable, seed: int, path: Sequence[int], index: int, rows: int
) -> int:
    """Errors among the ``rows`` trials of block ``index``.

    The block rule: one generator, substream(seed, *path, index), first
    gives ``target, *inputs = draw(rows, rng)``, where the target is one
    per row or one for the block, then goes to ``score(*inputs, rng)``,
    which returns one verdict per row. An error is a verdict other than
    the row's target. A pure function of its arguments.
    """
    rng = substream(seed, *path, index)
    target, *inputs = draw(rows, rng)
    return int(np.count_nonzero(score(*inputs, rng) != target))


def count_errors(
    draw: Callable, score: Callable, trials: int, seed: int, path: Sequence[int]
) -> int:
    """Errors over ``trials`` trials, in blocks of :data:`BLOCK` summed in block order."""
    return sum(
        block_errors(draw, score, seed, path, index, min(BLOCK, trials - start))
        for index, start in enumerate(range(0, trials, BLOCK))
    )
