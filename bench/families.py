"""Seeded generators for the benchmark's model families.

Every generator is a pure function of its seed and size arguments: the same
arguments give byte-identical model text.  A :class:`Case` carries the model
(states, initial state, positive entries), the CLI calls one benchmark op
makes on it, and the generator parameters the reference answers are derived
from.  Model text is written here in the canonical file format, without the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FILE = "{file}"
"""Placeholder in a call's argv for the path of the case's model file."""


@dataclass(frozen=True)
class Case:
    family: str
    name: str
    n: int
    init: int
    entries: dict[tuple[int, int], Fraction]
    calls: tuple[tuple[str, ...], ...]
    params: dict

    def text(self) -> str:
        lines = [f"dtmc {self.n} {self.init}"]
        for (s, t), p in sorted(self.entries.items()):
            lines.append(f"{s} {t} {p.numerator}/{p.denominator}")
        return "\n".join(lines) + "\n"

    def argv(self, path: str) -> list[list[str]]:
        return [[path if a == FILE else a for a in call] for call in self.calls]


def seeded_rng(family: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"{family}/{seed}/{index}")


def _weights_to_probs(weights: list[int]) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_chain(seed: int, index: int, n: int) -> Case:
    """Unstructured chain: states ``1..n-2`` each have three successors with
    seeded integer weights; ``n-1`` and ``n`` are absorbing goals.

    One successor of ``s`` is always ``s+1`` and state ``n-2`` feeds both
    goals, so every state reaches a goal, both answers are positive and the
    reaching set of the direct collapse is all ``n-2`` states; the other
    successors are uniform over the remaining states.
    """
    rng = seeded_rng("random", seed, index)
    entries: dict[tuple[int, int], Fraction] = {}
    for s in range(1, n - 1):
        forced = [s + 1] if s < n - 2 else [n - 1, n]
        others = [t for t in range(1, n + 1) if t != s and t not in forced]
        succ = [*forced, *rng.sample(others, 3 - len(forced))]
        weights = [rng.randint(1, 9) for _ in succ]
        for t, p in zip(succ, _weights_to_probs(weights)):
            entries[(s, t)] = p
    entries[(n - 1, n - 1)] = Fraction(1)
    entries[(n, n)] = Fraction(1)
    return Case(
        "random",
        f"random-{seed}-{index}",
        n,
        1,
        entries,
        (("check", FILE, "--goal", f"{n - 1},{n}", "--method", "direct"),),
        {"goals": (n - 1, n)},
    )


BIRTH_DEATH_P = Fraction(2, 5)


def birth_death(seed: int, index: int, length: int) -> Case:
    """Gambler's ruin on ``0..length``, stored as states ``1..length+1``.

    Up-probability ``p = 2/5``; state 1 (ruin) and state ``length+1`` (win)
    absorb.  The start ``i`` is drawn from the middle third of the chain.
    """
    rng = seeded_rng("birthdeath", seed, index)
    p, q = BIRTH_DEATH_P, 1 - BIRTH_DEATH_P
    n = length + 1
    start = rng.randint(length // 3, 2 * length // 3)
    entries: dict[tuple[int, int], Fraction] = {(1, 1): Fraction(1), (n, n): Fraction(1)}
    for i in range(1, length):
        entries[(i + 1, i + 2)] = p
        entries[(i + 1, i)] = q
    return Case(
        "birthdeath",
        f"birthdeath-{seed}-{index}",
        n,
        start + 1,
        entries,
        (("check", FILE, "--goal", f"1,{n}", "--method", "direct"),),
        {"length": length, "start": start},
    )


LADDER_BLOCK = 6


def ladder(seed: int, index: int, blocks: int) -> Case:
    """A chain of cyclic blocks with nested inner cycles.

    Block ``b`` holds states ``e, m1, m2, m3, m4, x`` (``6b+1 .. 6b+6``):
    ``e -> m1 -> m2 -> m3 -> m4 -> x``, an inner cycle ``m4 -> m1`` with a
    self-loop on ``m2`` nested inside it, and an outer cycle ``x -> e``.  The
    exit ``x`` also moves on to the next block's ``e`` (the goal after the
    last block) or to the absorbing fail state.  Every route through a block
    reaches ``x``, so the block is passed with probability
    ``next / (next + fail)`` and the goal is reached with the product of
    those: the reference needs no solver.
    """
    rng = seeded_rng("ladder", seed, index)
    fail, goal = LADDER_BLOCK * blocks + 1, LADDER_BLOCK * blocks + 2
    entries: dict[tuple[int, int], Fraction] = {
        (fail, fail): Fraction(1),
        (goal, goal): Fraction(1),
    }
    passes = []
    for b in range(blocks):
        e, m1, m2, m3, m4, x = range(LADDER_BLOCK * b + 1, LADDER_BLOCK * b + 7)
        nxt = e + LADDER_BLOCK if b + 1 < blocks else goal
        loop = Fraction(rng.randint(1, 4), 8)
        inner = Fraction(rng.randint(1, 4), 8)
        back, on, out = _weights_to_probs([rng.randint(1, 4) for _ in range(3)])
        entries.update(
            {
                (e, m1): Fraction(1),
                (m1, m2): Fraction(1),
                (m2, m2): loop,
                (m2, m3): 1 - loop,
                (m3, m4): Fraction(1),
                (m4, m1): inner,
                (m4, x): 1 - inner,
                (x, e): back,
                (x, nxt): on,
                (x, fail): out,
            }
        )
        passes.append(on / (on + out))
    seq = ";".join(
        ",".join(str(LADDER_BLOCK * b + k) for k in range(1, LADDER_BLOCK + 1))
        for b in range(blocks)
    )
    reach = Fraction(1)
    for p in passes:
        reach *= p
    return Case(
        "ladder",
        f"ladder-{seed}-{index}",
        goal,
        1,
        entries,
        (
            # The threshold is the exact answer, so no step exceeds it and
            # refine walks the whole sequence before concretizing.
            ("refine", FILE, "--target", str(goal), "--threshold",
             f"{reach.numerator}/{reach.denominator}", "--seq", seq, "--concretize"),
            ("check", FILE, "--goal", f"{fail},{goal}", "--method", "recursive"),
        ),
        {"blocks": blocks, "passes": tuple(passes), "fail": fail, "goal": goal},
    )


WIDE_BAND = 8


def wide_chain(seed: int, index: int, n: int, width: int) -> Case:
    """Large sparse chain with local structure, and a window to collapse.

    States ``1..n-2`` each move to two successors ahead (within
    ``WIDE_BAND``) and one behind, with seeded weights; ``n-1`` and ``n``
    absorb.  The collapsed set is ``width`` consecutive states from the
    middle of the chain; members that no outside state feeds lose all
    transitions and are removed by ``--prune``.
    """
    rng = seeded_rng("wide", seed, index)
    entries: dict[tuple[int, int], Fraction] = {}
    for s in range(1, n - 1):
        ahead = list(range(s + 1, min(s + WIDE_BAND, n) + 1))
        behind = list(range(max(1, s - WIDE_BAND), s))
        if behind and len(ahead) >= 2:
            succ = [*rng.sample(ahead, 2), rng.choice(behind)]
        else:
            succ = rng.sample(ahead + behind, min(3, len(ahead + behind)))
        weights = [rng.randint(1, 9) for _ in succ]
        for t, p in zip(succ, _weights_to_probs(weights)):
            entries[(s, t)] = p
    entries[(n - 1, n - 1)] = Fraction(1)
    entries[(n, n)] = Fraction(1)
    lo = rng.randint(n // 3, 2 * n // 3 - width)
    subset = tuple(range(lo, lo + width))
    return Case(
        "wide",
        f"wide-{seed}-{index}",
        n,
        1,
        entries,
        (("abstract", FILE, "--set", ",".join(map(str, subset)), "--prune"),),
        {"subset": subset},
    )
