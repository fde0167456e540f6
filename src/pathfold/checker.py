"""Reachability queries, threshold refinement and witness extraction."""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, NamedTuple, Sequence

from .abstraction import path_abstract
from .core import Dtmc, DtmcError, StateSet, non_absorbing, state_set
from .scc import abstract_recursive, abstract_via_sccs

METHODS = ("direct", "scc", "recursive")

Word = tuple[int, ...]


class GoalNotAbsorbingError(DtmcError):
    """A goal or refinement target lacks a full self-loop."""


class InitIsGoalError(DtmcError):
    """The initial state may not itself be a goal."""


class InvalidSequenceError(DtmcError):
    """An abstraction sequence strayed outside the non-absorbing states."""


class NotAPathError(DtmcError):
    """The given word is not a positive-probability path where required."""


class ReachabilityResult(NamedTuple):
    per_goal: dict[int, Fraction]
    total: Fraction


class RefinementStep(NamedTuple):
    """One collapse step: the subset used, the chain it produced, and the
    best single witness in that chain."""

    subset: tuple[int, ...]
    chain: Dtmc
    witness_path: Word | None
    witness_prob: Fraction


class RefinementReport(NamedTuple):
    violated: bool
    witness_path: Word | None
    witness_prob: Fraction
    trace: tuple[RefinementStep, ...]


def model_check(
    d: Dtmc, goals: Iterable[int], method: str = "direct"
) -> ReachabilityResult:
    """Probability of eventually reaching each absorbing goal state.

    Each method is one call on the non-absorbing states ``k``: collapse
    them at once (``direct``), component by component (``scc``, through
    :func:`abstract_via_sccs`), or recursively inside the components
    something enters (``recursive``, through :func:`abstract_recursive`).
    All three agree exactly; they differ only in the collapses made on the
    way, which none of them returns.
    """
    goal_set = state_set(goals, d.n)
    if d.init in goal_set:
        raise InitIsGoalError(f"initial state {d.init} is a goal")
    k = non_absorbing(d)
    if bad := goal_set & k:
        raise GoalNotAbsorbingError(f"goal {min(bad)} is not absorbing")
    if method == "direct":
        final = path_abstract(d, k)
    elif method == "scc":
        final = abstract_via_sccs(d, k)
    elif method == "recursive":
        final = abstract_recursive(d, k)
    else:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    per_goal = {g: final.prob(d.init, g) for g in sorted(goal_set)}
    return ReachabilityResult(per_goal, sum(per_goal.values(), Fraction(0)))


class _Entry:
    """A path with its probability ``num / den``; the more probable entry is
    the smaller, and of two equally probable ones the lexicographically
    smaller path.  Denominators are positive, so cross-multiplying compares
    exactly."""

    __slots__ = ("num", "den", "path")

    def __init__(self, num: int, den: int, path: Word):
        self.num, self.den, self.path = num, den, path

    def __lt__(self, other: "_Entry") -> bool:
        mine, theirs = self.num * other.den, other.num * self.den
        return mine > theirs or (mine == theirs and self.path < other.path)


def most_probable_path(
    d: Dtmc, src: int, dst: int, within: Iterable[int] | None = None
) -> tuple[Word, Fraction]:
    """Single path of maximal probability from ``src`` to ``dst``.

    Best-first search: transition probabilities never exceed one, so
    extending a path never improves it and the first settlement of the
    destination is optimal.  Each heap entry carries its path's probability
    as an unreduced integer pair, the products of the numerators and of the
    denominators along the path; entries compare by cross-multiplication,
    so ties are exact, and they resolve to the lexicographically smallest
    path.  The one :class:`Fraction` built is the returned probability.
    With ``within`` given, every state after ``src`` other than ``dst``
    must lie in ``within``.  The first pop settles ``src``, so a search
    from a state to itself returns ``((src,), 1)``; it returns ``((), 0)``
    if the destination is unreachable.
    """
    if not (1 <= src <= d.n and 1 <= dst <= d.n):
        raise ValueError(f"state pair ({src},{dst}) out of range 1..{d.n}")
    allowed = None if within is None else {*state_set(within, d.n), dst}
    rows, succ = d.rows, d.succ
    heap = [_Entry(1, 1, (src,))]
    settled: set[int] = set()
    while heap:
        entry = heapq.heappop(heap)
        path = entry.path
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == dst:
            return path, Fraction(entry.num, entry.den)
        num, den, row = entry.num, entry.den, rows[v - 1]
        for t in succ[v - 1]:
            if t not in settled and (allowed is None or t in allowed):
                p = row[t - 1]
                heapq.heappush(
                    heap, _Entry(num * p.numerator, den * p.denominator, path + (t,))
                )
    return (), Fraction(0)


def refine(
    d: Dtmc,
    target: int,
    threshold,
    subsets: Iterable[Iterable[int]],
) -> RefinementReport:
    """Collapse along ``subsets``, checking after each step for a single
    path from the initial state to ``target`` whose probability exceeds
    ``threshold``, an exact value from 0 to 1 (a ``float`` raises
    ``TypeError``); stop at the first step exhibiting one.

    Witness probabilities only grow along the sequence (a collapsed path
    carries at least the mass of any single path it stands for), so a run
    with no violation reports the final step's witness -- which is the
    exact reachability probability itself whenever the final subset covers
    all non-absorbing states.
    """
    state_set((target,), d.n)  # a bad target is named alone, as a bad goal is
    k = non_absorbing(d)
    if target in k:
        raise GoalNotAbsorbingError(f"target {target} is not absorbing")
    if isinstance(threshold, float):
        raise TypeError(f"threshold {threshold!r} is a binary float")
    threshold = Fraction(threshold)
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold {threshold} is not in 0..1")
    sets: list[StateSet] = []
    for i, subset in enumerate(subsets):
        try:
            fs = state_set(subset, d.n)
        except ValueError as exc:
            raise InvalidSequenceError(f"step {i}: {exc}") from None
        stray = sorted(fs - k)
        if stray:
            raise InvalidSequenceError(
                f"step {i}: absorbing states {stray} in abstraction set"
            )
        sets.append(fs)

    trace: list[RefinementStep] = []
    current = d
    if not sets:
        path, prob = most_probable_path(d, d.init, target)
    for fs in sets:
        current = path_abstract(current, fs)
        path, prob = most_probable_path(current, d.init, target)
        trace.append(RefinementStep(tuple(sorted(fs)), current, path or None, prob))
        if prob > threshold:
            break
    return RefinementReport(prob > threshold, path or None, prob, tuple(trace))


def concretize_witness(
    d: Dtmc, steps: Sequence[RefinementStep], abstract_path: Iterable[int]
) -> Word:
    """Expand a witness from the chain of the last of ``steps`` back into
    ``d``, the chain :func:`refine` started from.

    Walks the steps backwards over the chains :func:`refine` recorded; at
    every level each transition leaving the collapsed subset is replaced by
    the most probable route through the subset, found by best-first search
    confined to the subset plus the transition's endpoints.  The result is
    a positive-probability path of ``d`` that collapses back onto the
    witness level by level.
    """
    word = tuple(abstract_path)
    chains = [d, *(step.chain for step in steps)]
    last = chains[-1]
    if not (
        word
        and all(1 <= s <= last.n for s in word)
        and all(b in last.succ[a - 1] for a, b in pairwise(word))
    ):
        raise NotAPathError(f"{word} is not a path of the abstracted chain")
    for level in range(len(steps) - 1, -1, -1):
        word = _expand_once(chains[level], frozenset(steps[level].subset), word)
    return word


def _expand_once(m: Dtmc, fs: StateSet, word: Word) -> Word:
    out = list(word[:1])
    for a, b in pairwise(word):
        if a in fs:
            piece, _ = most_probable_path(m, a, b, within=fs)
            if not piece:
                raise NotAPathError(f"no route from {a} to {b} through {sorted(fs)}")
        else:
            piece = (a, b)
        out += piece[1:]
    return tuple(out)
