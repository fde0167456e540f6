"""Numerical collapse of a state subset into direct border transitions.

Given a subset, the states it can be entered and left through are
identified, the probability of leaving the subset through each exit is
obtained from one exact rational linear solve whose right-hand side is the
one-step exit probabilities, and a new matrix is assembled in which every
route through the subset is replaced by a single transition carrying the
route set's total probability.  Reachability probabilities from the
initial state are preserved exactly; the state space itself never changes
(dropping states that become isolated is a separate, explicit step).

The solve eliminates over Python ints on sparse rows: each row is scaled
to integers once, combined with pivot rows by cross-multiplication and
kept divided by the gcd of its entries, so no rational is normalised
until the answer is read off and zero entries cost nothing.  Eliminating
one unknown is itself a collapse of one state, and the collapse is exact
along any sequence of subsets, so the elimination order is picked for
cost alone: sparsest column first, and the rows the collapse reads last,
so that back substitution touches only those.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .core import Dtmc, DtmcError, StateSet, state_set


class SingularMatrixError(DtmcError):
    """No usable pivot: the reaching set handed to the solver was not
    produced by :func:`reach_backward`."""


@dataclass(frozen=True)
class FrontierSets:
    """The four state sets steering one collapse step.

    ``interior_zero``
        Members of the subset, other than the initial state, with no
        incoming transition from outside; they lose all transitions.
    ``entries``
        The remaining members, the ones a path can enter through.
    ``exits``
        Outside states fed directly from the subset.
    ``reaching``
        Members with a route to an exit that stays inside the subset.
    """

    interior_zero: StateSet
    entries: StateSet
    exits: StateSet
    reaching: StateSet


@dataclass(frozen=True)
class LinearSystem:
    """``a @ q = b`` over the reaching set: ``a`` is ``I - P`` there and ``b``
    holds the one-step exit probabilities, so row ``i`` of ``q`` is reaching
    state ``i``'s probability of leaving through each exit."""

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]


def frontier(d: Dtmc, subset: Iterable[int]) -> FrontierSets:
    """Compute all four frontier sets for collapsing ``subset``."""
    s1 = state_set(subset, d.n)
    interior = interior_zero(d, s1)
    outside = [s for s in d.states() if s not in s1]
    inside = [d.rows[s - 1] for s in s1]
    exits = frozenset(
        t for row in inside for t in outside if row[t - 1] and row[t - 1] > 0
    )
    reaching = reach_backward(d, s1, exits)
    return FrontierSets(interior, s1 - interior, exits, reaching)


def interior_zero(d: Dtmc, subset: Iterable[int]) -> StateSet:
    """Members of ``subset``, other than the initial state, that no state
    outside ``subset`` feeds: the ones a collapse of it clears."""
    s1 = state_set(subset, d.n)
    outside = [d.rows[r - 1] for r in d.states() if r not in s1]
    return frozenset(
        s for s in s1 if s != d.init and not any(row[s - 1] for row in outside)
    )


def reach_backward(d: Dtmc, subset: Iterable[int], exits: Iterable[int]) -> StateSet:
    """Members of ``subset`` with a positive-probability route to ``exits``
    that stays inside ``subset`` until the final step.

    A search backwards from the exits: each state it takes from the
    worklist has its column read once, over the members not reached yet,
    and the predecessors found there join the worklist.  So no entry is
    read twice, and the search stops reading once nothing new is reached.
    """
    s1 = state_set(subset, d.n)
    exit_set = state_set(exits, d.n)
    rows = d.rows
    unreached = set(s1 - exit_set)
    todo = list(exit_set)
    while todo and unreached:
        c = todo.pop() - 1
        found = [r for r in unreached if rows[r - 1][c] and rows[r - 1][c] > 0]
        unreached.difference_update(found)
        todo += found
    return s1 - exit_set - unreached


def linear_system(d: Dtmc, fr: FrontierSets) -> LinearSystem:
    """Assemble the exact exit system for one collapse step; rows follow
    ``sorted(fr.reaching)``, ``b``'s columns ``sorted(fr.exits)``."""
    cols = [r - 1 for r in sorted(fr.reaching)]
    exits = [t - 1 for t in sorted(fr.exits)]
    zero = Fraction(0)
    a = []
    for i, r in enumerate(cols):
        row = d.rows[r]
        arow = [-row[c] if row[c] else zero for c in cols]
        arow[i] = 1 - row[r]
        a.append(tuple(arow))
    b = tuple(tuple(d.rows[r][t] for t in exits) for r in cols)
    return LinearSystem(tuple(a), b)


def solve_linear(
    system: LinearSystem, rows: Sequence[int] | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact solve of ``a @ q = b`` by fraction-free elimination on sparse rows.

    Returns row ``i`` of ``q`` for each ``i`` in ``rows``, in that order, or
    every row in order when ``rows`` is omitted.

    Each row of ``[a | b]`` is scaled to integers by the lcm of its
    denominators and kept as a ``{column: int}`` map of its nonzero entries.
    The pivot order is approximate Markowitz: the next pivot column is the
    live column with the fewest live rows, read off a lazy heap of column
    counts, and its shortest live row becomes the pivot row.  Columns of
    unknowns outside ``rows`` all go first.  Every other live row with a
    nonzero entry in the pivot column is replaced by the integer
    combination that cancels it and then divided by the gcd of its
    entries, so it stays the smallest integer multiple of the exact
    eliminated row; rows already zero there are never touched.  A column
    no live row reaches means the matrix is singular, whatever ``rows``
    asks for.  Back substitution then runs over the pivots of the wanted
    unknowns only: they come last, so they refer to nothing else.  It works
    on integer numerators with one denominator per row; ``Fraction``s are
    built only for the returned entries.
    """
    m = len(system.a)
    wanted = range(m) if rows is None else tuple(rows)
    tail = set(wanted)
    if any(not 0 <= r < m for r in tail):
        raise ValueError(f"rows must lie in 0..{m - 1}")
    live: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = [set() for _ in range(m)]
    for r, (arow, brow) in enumerate(zip(system.a, system.b)):
        entries = [(c, x) for c, x in enumerate((*arow, *brow)) if x]
        scale = lcm(*(x.denominator for _, x in entries))
        live[r] = {c: x.numerator * scale // x.denominator for c, x in entries}
        for c, _ in entries:
            if c < m:
                holders[c].add(r)
    heap = [(c in tail, len(holders[c]), c) for c in range(m)]
    heapq.heapify(heap)
    done = [False] * m
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap:
        _, count, col = heapq.heappop(heap)
        if done[col] or count != len(holders[col]):
            continue
        if not count:
            raise SingularMatrixError(f"no pivot in column {col}")
        done[col] = True
        p = min(holders[col], key=lambda r: (len(live[r]), r))
        piv = live.pop(p)
        pivots.append((col, piv))
        touched = {c for c in piv if c < m}
        for c in touched:
            holders[c].discard(p)
        for r in list(holders[col]):
            row = live[r]
            live[r] = new = _cancel(row, piv, col)
            for c in row.keys() - new.keys():
                if c < m:
                    holders[c].discard(r)
                    touched.add(c)
            for c in new.keys() - row.keys():
                if c < m:
                    holders[c].add(r)
                    touched.add(c)
        for c in touched:
            if not done[c]:
                heapq.heappush(heap, (c in tail, len(holders[c]), c))
    solved = _back_substitute(pivots[m - len(tail):], m, len(system.b[0]) if m else 0)
    return tuple(solved[i] for i in wanted)


def _cancel(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """``row`` minus the multiple of ``piv`` that zeroes column ``col``,
    cross-multiplied to stay integral and divided by its content."""
    p, f = piv[col], row[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {c: p * x for c, x in row.items()}
    for c, x in piv.items():
        y = out.get(c, 0) - f * x
        if y:
            out[c] = y
        else:
            del out[c]
    g = gcd(*out.values())
    return out if g == 1 else {c: x // g for c, x in out.items()}


def _back_substitute(
    pivots: list[tuple[int, dict[int, int]]], m: int, k: int
) -> dict[int, tuple[Fraction, ...]]:
    """Solve ``(column, row)`` pivots from the last one up.

    Each pivot row refers only to its own column and to columns pivoted
    after it.  A column's solution is held as numerators over one common
    denominator, of either sign; the right-hand side starts at column ``m``.
    """
    dens: dict[int, int] = {}
    nums: dict[int, list[int]] = {}
    for col, row in reversed(pivots):
        later = [(c, x) for c, x in row.items() if c < m and c != col]
        common = lcm(*(dens[c] for c, _ in later))
        acc = [row.get(m + j, 0) * common for j in range(k)]
        for c, x in later:
            w = x * (common // dens[c])
            acc = [a - w * y for a, y in zip(acc, nums[c])]
        den = row[col] * common
        g = gcd(den, *acc)
        dens[col] = den // g
        nums[col] = [a // g for a in acc]
    return {
        col: tuple(Fraction(a, den) for a in nums[col]) for col, den in dens.items()
    }


def path_abstract(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse ``subset``: interior states lose all their transitions,
    entry states gain direct transitions onto the exits carrying the total
    mass of all routes through the subset, and everything else is kept.

    The state count and initial state stay fixed.  Collapsing a region
    with no way out (one containing a bottom strongly connected component,
    say) silently drops the trapped mass and leaves the result
    substochastic; that is intended, not an error.
    """
    s1 = state_set(subset, d.n)
    fr = frontier(d, s1)
    zero = Fraction(0)
    zero_row = (zero,) * d.n
    # No outside row feeds an interior state, so outside rows stay as they are.
    rows = [zero_row if s in s1 else row for s, row in enumerate(d.rows, 1)]
    sources = list(fr.entries & fr.reaching)
    if sources:
        index = {s: i for i, s in enumerate(sorted(fr.reaching))}
        q = solve_linear(linear_system(d, fr), [index[s] for s in sources])
        exits = [t - 1 for t in sorted(fr.exits)]
        for s, probs in zip(sources, q):
            row = [zero] * d.n
            for c, p in zip(exits, probs):
                row[c] = p
            rows[s - 1] = tuple(row)
    return Dtmc(d.init, tuple(rows))


def path_abstract_seq(d: Dtmc, subsets: Iterable[Iterable[int]]) -> Dtmc:
    """Fold :func:`path_abstract` over ``subsets``, left to right."""
    current = d
    for subset in subsets:
        current = path_abstract(current, subset)
    return current


def prune_isolated(d: Dtmc) -> tuple[Dtmc, dict[int, int]]:
    """Drop non-initial states whose row and column are entirely zero.

    Returns the smaller chain and the old-to-new index map of the kept
    states; probabilities are untouched.
    """
    used = {d.init}
    for s, row in enumerate(d.rows, 1):
        targets = [t for t, p in enumerate(row, 1) if p and p > 0]
        if targets:
            used.add(s)
            used.update(targets)
    keep = sorted(used)
    mapping = {old: new for new, old in enumerate(keep, start=1)}
    cols = [t - 1 for t in keep]
    rows = tuple(tuple(d.rows[s - 1][c] for c in cols) for s in keep)
    return Dtmc(mapping[d.init], rows), mapping
