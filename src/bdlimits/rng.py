"""Deterministic random streams.

All randomness in the package flows through :func:`substream`, which maps an
integer seed plus a path of integers (domain tag, block index, ...) onto an
independent Philox generator. Philox is counter-based, so a stream depends
only on its key, never on how many draws a sibling stream consumed. Two
consequences the rest of the package relies on:

* identical (seed, path) always reproduces the identical stream, on any
  platform;
* Monte-Carlo trials run in fixed blocks of ``BLOCK = 4096`` trials, each
  block on streams keyed by (seed, domain, block index), so aggregates are
  bit-identical no matter how blocks are scheduled.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

#: Trials per Monte-Carlo block. Part of the determinism contract: changing
#: it changes every seeded Monte-Carlo value.
BLOCK = 4096


class Domain(enum.IntEnum):
    """Namespace tags keeping unrelated substreams disjoint."""

    SAMPLE = 0
    RISK = 1
    CONDITIONAL = 2
    GENERALIZED = 3
    TYPE0 = 4
    PROBE = 5
    PROBE_SAMPLER = 6
    TOY_CLEAN = 7
    TOY_POISON = 8
    TOY_EVAL = 9  # reserved: the toy evaluation is closed form and draws nothing
    CONCENTRATION = 11


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path).

    The same arguments always yield the same stream; distinct paths yield
    statistically independent streams.
    """
    entropy = tuple(int(x) & _MASK64 for x in (seed, *path))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


#: One block of trials: (rows, data generator, detector generator) to the
#: number of the block's trials that count, e.g. wrong verdicts.
BlockStep = Callable[[int, np.random.Generator, np.random.Generator], int]


def block_errors(step: BlockStep, seed: int, path: Sequence[int], index: int, rows: int) -> int:
    """Errors among the ``rows`` trials of block ``index``.

    A pure function of its arguments: the block draws its data from
    substream(seed, *path, index) and its detector randomness from
    substream(seed, *path, index, 1).
    """
    return int(step(rows, substream(seed, *path, index), substream(seed, *path, index, 1)))


def count_errors(step: BlockStep, trials: int, seed: int, path: Sequence[int]) -> int:
    """Errors over ``trials`` trials, in blocks of :data:`BLOCK` summed in block order."""
    return sum(
        block_errors(step, seed, path, index, min(BLOCK, trials - start))
        for index, start in enumerate(range(0, trials, BLOCK))
    )
