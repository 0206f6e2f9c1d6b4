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
from typing import Iterator

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
    TOY_EVAL = 9
    CONCENTRATION = 11


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path).

    The same arguments always yield the same stream; distinct paths yield
    statistically independent streams.
    """
    entropy = tuple(int(x) & _MASK64 for x in (seed, *path))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def blocks(trials: int) -> Iterator[tuple[int, int]]:
    """(block index, rows) for each block of ``trials`` trials, in order.

    Every block holds :data:`BLOCK` rows except possibly the last.
    """
    for index, start in enumerate(range(0, trials, BLOCK)):
        yield index, min(BLOCK, trials - start)
