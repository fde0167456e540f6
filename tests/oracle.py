"""Word combinatorics over state alphabets and a brute-force path oracle.

Words are plain tuples of state indices.  The central operation collapses
every maximal run of letters drawn from a chosen subset to the run's first
letter; its bounded preimage recovers the concrete words such a collapsed
word stands for.  The probabilities computed here, by direct products over
explicit words and by truncated hop-bounded sums, are deliberately naive:
they are the ground truth the linear-algebra route is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise, product
from typing import Iterable

from pathfold.core import Dtmc, DtmcError, state_set

Word = tuple[int, ...]


class EmptyWordError(DtmcError):
    """A probability was requested for the empty word."""


def minus(word: Iterable[int], subset: Iterable[int]) -> Word:
    """Collapse each maximal run of ``subset`` letters to its first letter."""
    members = frozenset(subset)
    out: list[int] = []
    in_run = False
    for letter in word:
        if letter in members:
            if not in_run:
                out.append(letter)
            in_run = True
        else:
            out.append(letter)
            in_run = False
    return tuple(out)


def minus_seq(word: Iterable[int], subsets: Iterable[Iterable[int]]) -> Word:
    """Apply :func:`minus` once per subset, left to right."""
    out = tuple(word)
    for subset in subsets:
        out = minus(out, subset)
    return out


def splice(u: Word, v: Word) -> Word:
    """Join two words that overlap in one letter (last of u = first of v)."""
    if not u or not v or u[-1] != v[0]:
        raise ValueError(f"words {u} and {v} do not share a junction letter")
    return u + v[1:]


def minimal_prefixes(words: Iterable[Iterable[int]]) -> set[Word]:
    """Drop every word that has a strict prefix in the set; idempotent."""
    pool = {tuple(w) for w in words}
    return {w for w in pool if not any(w[:i] in pool for i in range(len(w)))}


def is_prefix(shorter: Word, longer: Word) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def preimage_min_bounded(word: Iterable[int], subset: Iterable[int], bound: int) -> set[Word]:
    """Prefix-minimal words of length <= ``bound`` that collapse to ``word``.

    A collapsed word never carries two adjacent ``subset`` letters, so the
    preimage is empty whenever ``word`` does.  Otherwise every minimal
    preimage arises by padding each non-final ``subset`` letter of ``word``
    with a run over ``subset``; padding anywhere else either changes the
    collapsed image or loses prefix-minimality.  Runs are generated in
    lexicographic state order, shortest first.
    """
    word = tuple(word)
    members = frozenset(subset)
    if any(a in members and b in members for a, b in pairwise(word)):
        return set()
    budget = bound - len(word)
    if budget < 0:
        return set()
    letters = sorted(members)
    slots = {i for i in range(len(word) - 1) if word[i] in members}
    out: set[Word] = set()

    def expand(idx: int, acc: Word, remaining: int) -> None:
        if idx == len(word):
            out.add(acc)
            return
        acc = acc + (word[idx],)
        if idx in slots:
            for length in range(remaining + 1):
                for run in product(letters, repeat=length):
                    expand(idx + 1, acc + run, remaining - length)
        else:
            expand(idx + 1, acc, remaining)

    expand(0, (), budget)
    return out


def path_prob(d: Dtmc, word: Iterable[int]) -> Fraction:
    """Product of one-step probabilities along ``word``; 1 for a single state."""
    word = tuple(word)
    if not word:
        raise EmptyWordError("the empty word has no probability")
    for letter in word:
        if not 1 <= letter <= d.n:
            raise ValueError(f"letter {letter} out of range 1..{d.n}")
    p = Fraction(1)
    for a, b in pairwise(word):
        p *= d.prob(a, b)
    return p


def finite_set_prob(d: Dtmc, words: Iterable[Iterable[int]]) -> Fraction:
    """Probability mass of a finite word set: sum over its minimal prefixes."""
    return sum((path_prob(d, w) for w in sorted(minimal_prefixes(words))), Fraction(0))


def local_reach_prob_bounded(
    d: Dtmc, s: int, subset: Iterable[int], t: int, hops: int
) -> Fraction:
    """Mass of the walks from ``s`` to ``t`` whose interior letters stay in
    ``subset``, truncated at ``hops`` interior letters.

    Propagates the exact mass of the bounded walk prefixes one hop at a
    time, summing the same finite path set literal enumeration would.
    Nondecreasing in ``hops``; converges from below to the untruncated
    value.
    """
    members = state_set(subset, d.n)
    if t in members:
        raise ValueError(f"target {t} must lie outside the subset")
    inside = sorted(members)
    total = d.prob(s, t)
    mass = {r: d.prob(s, r) for r in inside if d.prob(s, r) > 0}
    for hop in range(1, hops + 1):
        if not mass:
            break
        total += sum((mass[r] * d.prob(r, t) for r in sorted(mass)), Fraction(0))
        if hop < hops:
            nxt: dict[int, Fraction] = {}
            for r in sorted(mass):
                for r2 in inside:
                    q = d.prob(r, r2)
                    if q > 0:
                        nxt[r2] = nxt.get(r2, Fraction(0)) + mass[r] * q
            mass = nxt
    return total
