"""The benchmark's workloads: which cases each one runs, in which order.

Every workload is a pool of seeded cases.  The timed loop walks the pool in
order and runs each case twice in a row, so every case that runs at all is
also checked for byte-identical repeats.  Sizes are chosen so one op takes
a fraction of a second to about a second on a 2-core x86 machine, giving
tens of ops per run for the medians.
"""

from __future__ import annotations

from typing import Callable

import families
from families import Case

RANDOM_N = 50
RANDOM_POOL = 40

# Gambler's-ruin lengths, each used once per block of the pool in a seeded
# order, so every run sees the same mix of sizes whatever the seed.
BIRTH_DEATH_LENGTHS = (54, 57, 60, 63, 66)
BIRTH_DEATH_BLOCKS = 8

LADDER_BLOCKS = 12
LADDER_POOL = 16

WIDE_N = 260
WIDE_WIDTH = 16
"""Narrow enough that the collapse's solve stays a few percent of an op, so
dense storage, parse, validate and prune are what this workload measures."""
WIDE_POOL = 16


def _random(seed: int) -> list[Case]:
    return [families.random_chain(seed, i, RANDOM_N) for i in range(RANDOM_POOL)]


def _birth_death(seed: int) -> list[Case]:
    rng = families.seeded_rng("birthdeath-order", seed, 0)
    lengths = []
    for _ in range(BIRTH_DEATH_BLOCKS):
        lengths += rng.sample(BIRTH_DEATH_LENGTHS, len(BIRTH_DEATH_LENGTHS))
    return [families.birth_death(seed, i, n) for i, n in enumerate(lengths)]


def _ladder(seed: int) -> list[Case]:
    return [families.ladder(seed, i, LADDER_BLOCKS) for i in range(LADDER_POOL)]


def _wide(seed: int) -> list[Case]:
    return [families.wide_chain(seed, i, WIDE_N, WIDE_WIDTH) for i in range(WIDE_POOL)]


BLOCKS = {"check-birthdeath": len(BIRTH_DEATH_LENGTHS)}
"""Cases per block of a workload's pool (1 if absent).  A run stops only at
a block boundary, so the median of every run sees each size equally often."""

WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "check-random": _random,
    "check-birthdeath": _birth_death,
    "refine-ladder": _ladder,
    "abstract-wide": _wide,
}

SMOKE_FILE = "tests/data/example8.dtmc"
SMOKE_CALLS = tuple(
    ("check", families.FILE, "--goal", "7,8", "--method", method)
    for method in ("direct", "scc", "recursive")
)
