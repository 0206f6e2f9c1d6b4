"""Deterministic random streams and the one Monte-Carlo block kernel.

All randomness in the package flows through :func:`substream`, which maps an
integer seed >= 0, taken whole, plus a path of integers (domain tag, block
index, ...) onto a fresh SFC64 generator seeded from that key alone. Each
block seeds its own, so a stream depends only on its key, not on what a
sibling stream drew, and the same (seed, path) gives the same stream on any
platform.

Every risk the package estimates counts the seeded trials whose verdict
differs from a target, by one block rule (:func:`block_errors`), over fixed
blocks of ``BLOCK = 4096`` trials, each on its own generator. Block counts
are summed in block order (:func:`count_errors`), so aggregates are
bit-identical no matter how blocks are scheduled.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

#: Trials per Monte-Carlo block. Part of the determinism contract: changing
#: it changes every seeded Monte-Carlo value.
BLOCK = 4096

#: Keys whose entries all lie below this are one 32-bit word per entry.
_WORD = 1 << 32


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
    seed >= 0 (a Python or numpy integer, not a bool).

    Its key is the 32-bit words of the seed and of each path entry in turn,
    padded with zero words to four. Equal keys give the same stream and
    distinct keys statistically independent ones. A seed below 2^32 is one
    word, so on the package's paths, one length per domain, distinct (seed,
    path) have distinct keys. A wider seed takes more words and can spell
    another seed's key: substream(2**33 + 7, RISK, b) is substream(7,
    CONDITIONAL, 1, b).

    A key whose entries all lie below 2^32 goes to numpy as one uint32 array
    of those words, which skips its per-entry conversion; a wider key goes
    as a tuple of ints, which numpy splits into the same words.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    key = (seed, *path)
    if 0 <= min(key) and max(key) < _WORD:
        words = np.array(key, dtype=np.uint32)
    else:
        words = tuple(map(int, key))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


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
