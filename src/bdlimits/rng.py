"""Deterministic random streams.

All randomness in the package flows through :func:`substream`, which maps a
seed >= 0 plus a path of integers (domain tag, block index, ...) onto an
independent Philox generator. Philox is counter-based, so a stream depends
only on its key, never on how many draws a sibling stream consumed. Two
consequences the rest of the package relies on:

* identical (seed, path) always reproduces the identical stream, on any
  platform, and distinct seeds on one path give distinct streams;
* Monte-Carlo trials run in fixed blocks of ``BLOCK = 4096`` trials, each
  block on one generator keyed by (seed, domain, block index), so
  aggregates are bit-identical no matter how blocks are scheduled.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

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
    """Independent generator for (seed, *path), for any integer seed >= 0.

    The same arguments always yield the same stream; distinct seeds on one
    path, and distinct paths, yield statistically independent streams.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(map(int, (seed, *path))))))


#: One block of trials: (rows, the block's generator) to the number of the
#: block's trials that count; a step draws its data before its detector's.
BlockStep = Callable[[int, np.random.Generator], int]


def block_errors(step: BlockStep, seed: int, path: Sequence[int], index: int, rows: int) -> int:
    """Errors among the ``rows`` trials of block ``index``.

    A pure function of its arguments: the block draws its data, then its
    detector's draws, from the one generator substream(seed, *path, index).
    """
    return int(step(rows, substream(seed, *path, index)))


def count_errors(step: BlockStep, trials: int, seed: int, path: Sequence[int]) -> int:
    """Errors over ``trials`` trials, in blocks of :data:`BLOCK` summed in block order."""
    return sum(
        block_errors(step, seed, path, index, min(BLOCK, trials - start))
        for index, start in enumerate(range(0, trials, BLOCK))
    )
