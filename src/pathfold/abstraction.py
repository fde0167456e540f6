"""Numerical collapse of a state subset into direct border transitions.

Given a subset, the states it can be entered and left through are
identified, the probability of leaving the subset through each exit is
obtained from one exact rational linear solve whose right-hand side is the
one-step exit probabilities, and a new matrix is assembled in which every
route through the subset is replaced by a single transition carrying the
route set's total probability.  Reachability probabilities from the
initial state are preserved exactly; the state space itself never changes
(dropping states that become isolated is a separate, explicit step).

Every collapse is a step of one fold, :func:`path_abstract_seq`, which
collapses its subsets in place on one copy of the chain with one
predecessor index, skips the states an earlier step cleared and a subset
equal to the one just before it, and checks each subset once;
:func:`path_abstract` is that fold over one subset.  A step so costs what
its members' and exits' lists hold, and a long fold pays for the chain's
size once.  :func:`frontier` and :func:`reach_backward` read the same
kind of index, built for the chain they are handed.

Integers start where the exit system is assembled: each of its rows is
scaled to integers once, from the chain's ``Fraction``s.  The solve then
eliminates over Python ints on sparse rows: each row is combined with
pivot rows by cross-multiplication in place and kept divided by the gcd
of its entries, so no rational is built until the answer is read off and
zero entries cost nothing.
The pass that combines two rows also updates which rows hold each
column.  Eliminating one unknown is itself a collapse of one state, and
the collapse is exact along any sequence of subsets, so the elimination
order is picked for cost alone: sparsest column first, and the rows the
collapse reads last.  The same combination then clears those rows of each
other's columns, from the last one up, so each is left holding its own
diagonal and right-hand side.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .core import Dtmc, DtmcError, StateSet, state_set

_ZERO = Fraction(0)


class SingularMatrixError(DtmcError):
    """No usable pivot: the reaching set handed to the solver was not
    produced by :func:`reach_backward`."""


class FrontierSets(NamedTuple):
    """The three state sets steering one collapse step.

    ``entries``
        Members of the subset a path can enter through; a collapse clears
        the others of all their transitions.
    ``exits``
        Outside states fed directly from the subset.
    ``reaching``
        Members with a route to an exit that stays inside the subset.
    """

    entries: StateSet
    exits: StateSet
    reaching: StateSet


class LinearSystem(NamedTuple):
    """``a @ q = b`` over the reaching set: ``a`` is ``I - P`` there and ``b``
    holds the one-step exit probabilities, so row ``i`` of ``q`` is reaching
    state ``i``'s probability of leaving through each exit.  Each row of
    ``[a | b]`` is held as integers, the exact row times a positive scale
    of its own.  Each row of ``a`` maps columns to its diagonal entry and
    its nonzero other entries; ``b`` is dense."""

    a: tuple[dict[int, int], ...]
    b: tuple[tuple[int, ...], ...]


def frontier(d: Dtmc, subset: Iterable[int]) -> FrontierSets:
    """Compute the three frontier sets for collapsing ``subset``."""
    return FrontierSets(*map(frozenset, _Fold(d).frontier(state_set(subset, d.n))))


def reach_backward(d: Dtmc, subset: Iterable[int], exits: Iterable[int]) -> StateSet:
    """Members of ``subset`` with a positive-probability route to ``exits``
    that stays inside ``subset`` until the final step."""
    s1 = state_set(subset, d.n)
    exit_set = state_set(exits, d.n)
    return _Fold(d).reach(s1 - exit_set, exit_set)


def linear_system(
    rows: Sequence[tuple[Fraction, ...]],
    succ: Sequence[tuple[int, ...]],
    unknowns: Sequence[int],
    exits: Sequence[int],
) -> LinearSystem:
    """Assemble the exact exit system of the chain with ``rows`` and
    support ``succ`` for one collapse step: row ``i`` is state
    ``unknowns[i]``'s and column ``j`` of ``b`` is ``exits[j]``; the two
    must not share a state.  Each row reads only the nonzero entries
    ``succ`` lists and is scaled to integers by the lcm of the denominators
    of the entries it keeps: this is where the collapse leaves
    ``Fraction``s behind.  A self-loop is one of those entries, so the
    diagonal, ``1 - p`` for a loop of ``p``, is written last, over the
    loop's own entry."""
    m = len(unknowns)
    k = len(exits)
    col = dict(zip(unknowns, range(m)))
    col.update(zip(exits, range(m, m + k)))
    a, b = [], []
    for i, r in enumerate(unknowns):
        row = rows[r - 1]
        kept = []
        scale = 1
        for t in succ[r - 1]:
            c = col.get(t)
            if c is not None:
                x, d = row[t - 1].as_integer_ratio()
                kept.append((c, x, d))
                if scale % d:
                    scale = lcm(scale, d)
        arow, brow = {}, [0] * k
        for c, x, d in kept:
            w = x * (scale // d)
            if c < m:
                arow[c] = -w
            else:
                brow[c - m] = w
        arow[i] = scale + arow.get(i, 0)
        a.append(arow)
        b.append(tuple(brow))
    return LinearSystem(tuple(a), tuple(b))


def solve_linear(
    system: LinearSystem, rows: Iterable[int]
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact solve of ``a @ q = b`` by fraction-free elimination on sparse rows.

    Returns row ``i`` of ``q`` for each ``i`` in ``rows``, in that order.

    Integers in, ``Fraction``s out: each integer row of ``[a | b]``,
    ``b``'s columns numbered from ``m`` on, is copied into a ``{column:
    int}`` map of its nonzero entries.
    The pivot order is approximate Markowitz: the next pivot column is the
    live column with the fewest live rows, read off a lazy heap of column
    counts, and its shortest live row becomes the pivot row.  Columns of
    unknowns outside ``rows`` all go first.  Every other live row with a
    nonzero entry in the pivot column is rewritten in place by
    :func:`_cancel` into the integer combination that cancels it, divided
    by the gcd of its entries, so it stays the smallest integer multiple of
    the exact eliminated row; rows already zero there are never touched.
    That same pass updates the per-column sets of live rows the heap's
    counts are read from.  A column no live row reaches means the matrix
    is singular, whatever ``rows`` asks for.  The wanted unknowns are
    pivoted last, so each of their pivot rows holds only its own column
    and later pivots' ones.  From the last pivot up, :func:`_cancel`
    clears each such column with that column's pivot row, which by then
    holds only its own.  A wanted entry is then its row's ``b`` entry over
    the diagonal, one ``Fraction`` each.
    """
    m = len(system.a)
    wanted = tuple(rows)
    tail = set(wanted)
    if tail and not (0 <= min(tail) and max(tail) < m):
        raise ValueError(f"rows must lie in 0..{m - 1}")
    live: list[dict[int, int]] = []
    holders: list[set[int]] = [set() for _ in range(m)]
    for r, (arow, brow) in enumerate(zip(system.a, system.b)):
        row = {}
        for c, x in arow.items():
            if x:
                row[c] = x
                holders[c].add(r)
        c = m
        for x in brow:
            if x:
                row[c] = x
            c += 1
        live.append(row)
    heap = [(c in tail, len(h), c) for c, h in enumerate(holders)]
    heapq.heapify(heap)
    done = [False] * m
    pivots: list[tuple[int, int]] = []
    while heap:
        _, count, col = heapq.heappop(heap)
        if done[col] or count != len(holders[col]):
            continue
        if not count:
            raise SingularMatrixError(f"no pivot in column {col}")
        done[col] = True
        if count == 1:
            (p,) = holders[col]
        else:
            p = min([(len(live[r]), r) for r in holders[col]])[1]
        piv = live[p]
        pivots.append((col, p))
        touched = set()
        for c in piv:
            if c < m:
                holders[c].discard(p)
                touched.add(c)
        for r in list(holders[col]):
            _cancel(live[r], r, piv, col, holders, touched)
        for c in touched:
            if not done[c]:
                heapq.heappush(heap, (c in tail, len(holders[c]), c))
    rhs = range(m, m + len(system.b[0])) if m else ()
    reduced: dict[int, dict[int, int]] = {}
    solved: dict[int, tuple[Fraction, ...]] = {}
    for col, p in reversed(pivots[m - len(tail):]):
        row = reduced[col] = live[p]
        for c in [c for c in row if c < m and c != col]:
            _cancel(row, p, reduced[c], c, (), set())
        solved[col] = tuple([Fraction(row.get(c, 0), row[col]) for c in rhs])
    return tuple([solved[i] for i in wanted])


def _cancel(
    row: dict[int, int],
    r: int,
    piv: dict[int, int],
    col: int,
    holders: Sequence[set[int]],
    touched: set[int],
) -> None:
    """Rewrite row ``r`` in place as itself minus the multiple of ``piv``
    that zeroes column ``col``, cross-multiplied to stay integral and
    divided by its content; scaling and division are skipped when the
    factor is 1.  This is the solve's one row combination: it eliminates
    down the live rows and then clears the wanted pivot rows upwards.

    The same pass over ``piv`` keeps the forward elimination's column
    bookkeeping: an unknown's column that gains an entry gets ``r`` added
    to its ``holders`` set, one that loses its entry gets ``r`` dropped,
    and either way the column joins ``touched``.  Columns from
    ``len(holders)`` on are ``b``'s, so the upward pass, which no live row
    follows, hands no holders and tracks no column.
    """
    m = len(holders)
    p, f = piv[col], row[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for c in row:
            row[c] *= p
    for c, x in piv.items():
        if c in row:
            y = row[c] - f * x
            if y:
                row[c] = y
                continue
            del row[c]
            if c < m:
                holders[c].discard(r)
                touched.add(c)
        else:
            row[c] = -f * x
            if c < m:
                holders[c].add(r)
                touched.add(c)
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


class _Fold:
    """The chain :func:`path_abstract_seq` collapses in place: working
    copies of ``rows`` and ``succ``, and the predecessor index, in which
    ``pred[t - 1]`` is the set of states whose list holds ``t``."""

    __slots__ = ("init", "rows", "succ", "pred", "zero_row")

    def __init__(self, d: Dtmc):
        self.init = d.init
        self.rows = list(d.rows)
        self.succ = list(d.succ)
        self.zero_row = (_ZERO,) * d.n
        self.pred: list[set[int]] = [set() for _ in d.succ]
        for s, targets in enumerate(d.succ, 1):
            for t in targets:
                self.pred[t - 1].add(s)

    def interior(self, s1: StateSet) -> StateSet:
        """Members of ``s1``, other than the initial state, that no state
        outside ``s1`` feeds."""
        pred, init = self.pred, self.init
        return frozenset(s for s in s1 if s != init and pred[s - 1] <= s1)

    def reach(self, members: AbstractSet[int], exits: Iterable[int]) -> AbstractSet[int]:
        """Members with a route to ``exits`` that stays among ``members``
        until the final step: a backward search over the index, in which
        each state taken from the worklist hands on the members not reached
        yet among its predecessors."""
        pred = self.pred
        unreached = set(members)
        todo = list(exits)
        while todo and unreached:
            found = pred[todo.pop() - 1] & unreached
            unreached -= found
            todo += found
        return members - unreached

    def frontier(self, s1: StateSet) -> tuple[AbstractSet[int], ...]:
        """Entries, exits and reaching set of ``s1``, as in
        :class:`FrontierSets`.  They are read off the members that are not
        skipped alone: a skipped member feeds no state and no state feeds
        it, so no other member's predecessors or successors hold it.  The
        entries are the live members that are the initial state or have a
        predecessor outside the live ones."""
        succ, pred, init = self.succ, self.pred, self.init
        live = set()
        for s in s1:
            if succ[s - 1] or pred[s - 1] or s == init:
                live.add(s)
        entries = set()
        exits = set()
        for s in live:
            if s == init or not pred[s - 1] <= live:
                entries.add(s)
            exits.update(succ[s - 1])
        exits -= live
        return entries, exits, self.reach(live, exits)

    def collapse(self, s1: StateSet) -> None:
        """Collapse the checked subset ``s1`` in place, as
        :func:`path_abstract` describes."""
        rows, succ, pred = self.rows, self.succ, self.pred
        n = len(rows)
        entries, exits, reaching = self.frontier(s1)
        unknowns = sorted(reaching)
        outs = sorted(exits)
        at = [i for i, s in enumerate(unknowns) if s in entries]
        solved = solve_linear(linear_system(rows, succ, unknowns, outs), at) if at else ()
        for s in s1:
            if succ[s - 1]:
                for t in succ[s - 1]:
                    pred[t - 1].discard(s)
                rows[s - 1] = self.zero_row
                succ[s - 1] = ()
        for i, probs in zip(at, solved):
            s = unknowns[i]
            row = [_ZERO] * n
            targets = []
            for t, p in zip(outs, probs):
                if p:
                    row[t - 1] = p
                    targets.append(t)
                    pred[t - 1].add(s)
            rows[s - 1] = tuple(row)
            succ[s - 1] = tuple(targets)

    def chain(self) -> Dtmc:
        """The chain as the collapses so far have left it."""
        return Dtmc(self.init, tuple(self.rows), tuple(self.succ))


def path_abstract(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse ``subset``: interior states lose all their transitions,
    entry states gain direct transitions onto the exits carrying the total
    mass of all routes through the subset, and everything else is kept.

    The state count and initial state stay fixed.  Collapsing a region
    with no way out (one containing a bottom strongly connected component,
    say) silently drops the trapped mass and leaves the result
    substochastic; that is intended, not an error.

    This is the fold of :func:`path_abstract_seq` over the one subset, so
    the new chain shares every row and successor list of ``d`` outside the
    subset.
    """
    return path_abstract_seq(d, [subset])


def path_abstract_seq(d: Dtmc, subsets: Iterable[Iterable[int]]) -> Dtmc:
    """Collapse ``subsets`` one after another, left to right, as
    :func:`path_abstract` would one call at a time.

    The fold works on one mutable copy of ``d``'s rows and successor lists
    and one predecessor index, all built once, and freezes one chain at
    the end.  Each collapse reads its entries, exits and backward reach off
    the index, skips the members an earlier collapse cleared (no row, no
    predecessor, not the initial state), and rewrites only the rows, lists
    and index entries of the members it changes.  So after the set-up a
    collapse costs what its members' and exits' lists hold, not what the
    chain holds.

    Each subset is checked once, by :func:`pathfold.core.state_set`, before
    its collapse.  A subset equal to the one just collapsed is skipped: its
    interior is already cleared and each of its entries already leads
    straight to an exit, so a second collapse would rewrite the same rows.
    """
    fold = _Fold(d)
    last = None
    for subset in subsets:
        s1 = state_set(subset, d.n)
        if s1 != last:
            fold.collapse(s1)
            last = s1
    return fold.chain()


def prune_isolated(d: Dtmc) -> tuple[Dtmc, dict[int, int]]:
    """Drop non-initial states whose row and column are entirely zero.

    Returns the smaller chain and the old-to-new index map of the kept
    states; probabilities are untouched.  The used states are read off
    ``d.succ``, and the result carries ``d``'s support renumbered: the map
    is monotone, so every list stays ascending.
    """
    used = {d.init}
    for s, targets in enumerate(d.succ, 1):
        if targets:
            used.add(s)
            used.update(targets)
    keep = sorted(used)
    mapping = {old: new for new, old in enumerate(keep, start=1)}
    cols = [t - 1 for t in keep]
    rows = tuple(tuple(d.rows[s - 1][c] for c in cols) for s in keep)
    succ = tuple(tuple([mapping[t] for t in d.succ[s - 1]]) for s in keep)
    return Dtmc(mapping[d.init], rows, succ), mapping
