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
until the answer is read off and zero entries cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

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
    outside = [s for s in d.states() if s not in s1]
    interior = frozenset(
        s for s in s1 if s != d.init and not any(d.rows[r - 1][s - 1] for r in outside)
    )
    inside = [d.rows[s - 1] for s in s1]
    exits = frozenset(
        t for row in inside for t in outside if row[t - 1] and row[t - 1] > 0
    )
    reaching = reach_backward(d, s1, exits)
    return FrontierSets(interior, s1 - interior, exits, reaching)


def reach_backward(d: Dtmc, subset: Iterable[int], exits: Iterable[int]) -> StateSet:
    """Members of ``subset`` with a positive-probability route to ``exits``
    that stays inside ``subset`` until the final step.

    Worklist iteration: seed with the exits, repeatedly add the subset
    states with a one-step transition into the newest layer, and return
    everything gathered except the exits themselves.
    """
    s1 = state_set(subset, d.n)
    exit_set = state_set(exits, d.n)
    seen = set(exit_set)
    layer = set(exit_set)
    while layer:
        cols = [x - 1 for x in layer]
        nxt = set()
        for r in s1 - seen:
            row = d.rows[r - 1]
            if any(row[c] and row[c] > 0 for c in cols):
                nxt.add(r)
        seen |= nxt
        layer = nxt
    return frozenset(seen - exit_set)


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


def solve_linear(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Exact solve of ``a @ q = b`` by fraction-free elimination on sparse rows.

    Each row of ``[a | b]`` is scaled to integers by the lcm of its
    denominators and kept as a ``{column: int}`` map of its nonzero entries.
    Column by column, the first remaining row with a nonzero entry there
    becomes the pivot row; every other remaining row with a nonzero entry
    in that column is replaced by the integer combination that cancels it
    and then divided by the gcd of its entries, so it stays the smallest
    integer multiple of the exact eliminated row.  Rows already zero in the
    column are never touched, which keeps banded systems linear.  Back
    substitution runs over integer numerators with one denominator per
    row; ``Fraction``s are built only for the returned entries.
    """
    m = len(system.a)
    remaining = []
    for arow, brow in zip(system.a, system.b):
        entries = [(c, x) for c, x in enumerate((*arow, *brow)) if x]
        scale = lcm(*(x.denominator for _, x in entries))
        remaining.append({c: x.numerator * scale // x.denominator for c, x in entries})
    pivots = []
    for col in range(m):
        piv = next((row for row in remaining if col in row), None)
        if piv is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        pivots.append(piv)
        remaining = [
            row if col not in row else _cancel(row, piv, col)
            for row in remaining
            if row is not piv
        ]
    return _back_substitute(pivots, m, len(system.b[0]) if m else 0)


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
    pivots: list[dict[int, int]], m: int, k: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Solve the upper-triangular integer rows from the last one up.

    Row ``r``'s solution is held as numerators over one common
    denominator, of either sign; the right-hand side starts at column ``m``.
    """
    dens = [0] * m
    nums: list[list[int]] = [[]] * m
    for r in range(m - 1, -1, -1):
        row = pivots[r]
        later = [(c, x) for c, x in row.items() if r < c < m]
        common = lcm(*(dens[c] for c, _ in later))
        acc = [row.get(m + j, 0) * common for j in range(k)]
        for c, x in later:
            w = x * (common // dens[c])
            acc = [a - w * y for a, y in zip(acc, nums[c])]
        den = row[r] * common
        g = gcd(den, *acc)
        dens[r] = den // g
        nums[r] = [a // g for a in acc]
    return tuple(
        tuple(Fraction(a, den) for a in num) for num, den in zip(nums, dens)
    )


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
    sources = fr.entries & fr.reaching
    if sources:
        q = dict(zip(sorted(fr.reaching), solve_linear(linear_system(d, fr))))
        exits = [t - 1 for t in sorted(fr.exits)]
        for s in sources:
            row = [zero] * d.n
            for c, p in zip(exits, q[s]):
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
