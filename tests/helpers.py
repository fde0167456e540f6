"""Shared test material: the worked 8-state chain, its known collapses,
random model generators, and brute-force oracles kept deliberately naive."""

from __future__ import annotations

import contextlib
import heapq
import os
import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path
from unittest import mock

import pathfold
from oracle import path_prob
from pathfold import abstraction
from pathfold.abstraction import (
    FrontierSets,
    LinearSystem,
    SingularMatrixError,
    linear_system,
)
from pathfold.core import (
    Dtmc,
    EntryExceedsOneError,
    InitOutOfRangeError,
    NegativeEntryError,
    RowSumExceedsOneError,
    ValidationError,
    state_set,
)
from pathfold.scc import nontrivial_sccs

ME_TRANSITIONS = {
    (1, 2): "5/6",
    (1, 3): "1/6",
    (2, 3): "2/3",
    (2, 5): "1/3",
    (3, 4): "1",
    (4, 3): "3/4",
    (4, 7): "1/6",
    (4, 8): "1/12",
    (5, 6): "1",
    (6, 2): "1/4",
    (6, 5): "1/2",
    (6, 8): "1/4",
    (7, 7): "1",
    (8, 8): "1",
}

S1 = frozenset({2, 5, 6})
S2 = frozenset({3, 4})
S0 = frozenset({5, 6})
K = frozenset(range(1, 7))

# Expected collapses of the worked chain, complete entry maps.
FIG_MINUS_S1 = {
    (1, 2): "5/6",
    (1, 3): "1/6",
    (2, 3): "4/5",
    (2, 8): "1/5",
    (3, 4): "1",
    (4, 3): "3/4",
    (4, 7): "1/6",
    (4, 8): "1/12",
    (7, 7): "1",
    (8, 8): "1",
}
FIG_MINUS_S1_S2 = {
    (1, 2): "5/6",
    (1, 3): "1/6",
    (2, 3): "4/5",
    (2, 8): "1/5",
    (3, 7): "2/3",
    (3, 8): "1/3",
    (7, 7): "1",
    (8, 8): "1",
}
FIG_MINUS_K = {
    (1, 7): "5/9",
    (1, 8): "4/9",
    (7, 7): "1",
    (8, 8): "1",
}
FIG_MINUS_S0 = {
    (1, 2): "5/6",
    (1, 3): "1/6",
    (2, 3): "2/3",
    (2, 5): "1/3",
    (3, 4): "1",
    (4, 3): "3/4",
    (4, 7): "1/6",
    (4, 8): "1/12",
    (5, 2): "1/2",
    (5, 8): "1/2",
    (7, 7): "1",
    (8, 8): "1",
}
FIG_MINUS_1234 = {
    (1, 5): "5/18",
    (1, 7): "13/27",
    (1, 8): "13/54",
    (2, 5): "1/3",
    (2, 7): "4/9",
    (2, 8): "2/9",
    (5, 6): "1",
    (6, 2): "1/4",
    (6, 5): "1/2",
    (6, 8): "1/4",
    (7, 7): "1",
    (8, 8): "1",
}

# Child interpreters import the same pathfold as this process, installed or not.
_PACKAGE_ROOT = str(Path(pathfold.__file__).parents[1])
PACKAGE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, os.getenv("PYTHONPATH")])
    ),
}


def me_dtmc() -> Dtmc:
    return Dtmc.from_transitions(8, 1, ME_TRANSITIONS)


def entry_map(d: Dtmc) -> dict[tuple[int, int], Fraction]:
    return {(s, t): p for s, t, p in d.transitions()}


def row_sum(d: Dtmc, s: int) -> Fraction:
    return sum((p for (src, _), p in entry_map(d).items() if src == s), Fraction(0))


def is_stochastic(d: Dtmc) -> bool:
    return all(sum(row, Fraction(0)) == 1 for row in d.rows)


@contextlib.contextmanager
def counting_fractions():
    """Count the ``Fraction``s built inside the block: the calls of
    ``Fraction.__new__`` and, from Python 3.12 on, of the
    ``Fraction._from_coprime_ints`` its arithmetic builds results with."""
    calls = [0]

    def counting(build):
        def counted(cls, *args, **kwargs):
            calls[0] += 1
            return build(cls, *args, **kwargs)

        return counted

    with contextlib.ExitStack() as patches:
        patches.enter_context(
            mock.patch.object(Fraction, "__new__", counting(Fraction.__new__))
        )
        if hasattr(Fraction, "_from_coprime_ints"):
            build = counting(Fraction._from_coprime_ints.__func__)
            patches.enter_context(
                mock.patch.object(Fraction, "_from_coprime_ints", classmethod(build))
            )
        yield calls


def str_of_any_length(value) -> str:
    """``str(value)`` with the interpreter's int-string digit limit lifted,
    if it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def as_fractions(table: dict) -> dict[tuple[int, int], Fraction]:
    return {k: Fraction(v) for k, v in table.items()}


def random_dtmc(rng: random.Random, n: int, max_weight: int = 6) -> Dtmc:
    """Row-normalized chain with random rational entries."""
    transitions = {}
    for s in range(1, n + 1):
        k = rng.randint(1, n)
        targets = rng.sample(range(1, n + 1), k)
        weights = [rng.randint(1, max_weight) for _ in targets]
        total = sum(weights)
        for t, w in zip(targets, weights):
            transitions[s, t] = Fraction(w, total)
    return Dtmc.from_transitions(n, rng.randint(1, n), transitions)


def random_substochastic(rng: random.Random, n: int, max_weight: int = 6) -> Dtmc:
    transitions = {}
    for s in range(1, n + 1):
        k = rng.randint(1, n)
        targets = rng.sample(range(1, n + 1), k)
        weights = [rng.randint(1, max_weight) for _ in targets]
        total = sum(weights) + rng.randint(0, max_weight)
        for t, w in zip(targets, weights):
            transitions[s, t] = Fraction(w, total)
    return Dtmc.from_transitions(n, rng.randint(1, n), transitions)


def random_subset(rng: random.Random, pool, allow_empty: bool = True) -> frozenset[int]:
    pool = sorted(pool)
    k = rng.randint(0 if allow_empty else 1, len(pool))
    return frozenset(rng.sample(pool, k))


def random_trapping(rng: random.Random, n: int) -> Dtmc:
    """Stochastic chain with a closed region that no route leaves."""
    d = random_dtmc(rng, n)
    trap = sorted(random_subset(rng, d.states(), allow_empty=False))
    transitions = {(s, t): p for s, t, p in d.transitions() if s not in trap}
    for s in trap:
        targets = rng.sample(trap, rng.randint(1, len(trap)))
        share = Fraction(1, len(targets))
        transitions.update({(s, t): share for t in targets})
    return Dtmc.from_transitions(n, d.init, transitions)


MODELS = {
    "stochastic": random_dtmc,
    "substochastic": random_substochastic,
    "trapping": random_trapping,
}


def nested_cycle(n: int) -> Dtmc:
    """States 1 -> 2 -> ... -> n+1; state n+1 returns to each of 2..n and
    leaves for the absorbing n+2 and n+3, each with probability 1/(n+2).

    Every component of 2..n+1 nests the next one, n levels deep, and each
    goal is reached with probability 1/3.
    """
    share = Fraction(1, n + 2)
    transitions = {(s, s + 1): 1 for s in range(1, n + 1)}
    transitions.update({(n + 1, t): share for t in [*range(2, n + 1), n + 2, n + 3]})
    transitions.update({(n + 2, n + 2): 1, (n + 3, n + 3): 1})
    return Dtmc.from_transitions(n + 3, 1, transitions)


def random_goal_model(
    rng: random.Random, n: int, n_goals: int = 2, fast: bool = False
) -> tuple[Dtmc, list[int]]:
    """Stochastic chain whose last ``n_goals`` states are absorbing; every
    transient state carries a direct goal edge, with at least two thirds of
    its row mass on it when ``fast`` is set (forcing fast convergence of
    truncated reachability sums).
    """
    goals = list(range(n - n_goals + 1, n + 1))
    transitions = {}
    for s in range(1, n + 1):
        if s in goals:
            transitions[s, s] = 1
        else:
            k = rng.randint(1, n - 1)
            weights = {t: rng.randint(1, 3) for t in rng.sample(range(1, n + 1), k)}
            g = rng.choice(goals)
            other = sum(w for t, w in weights.items() if t != g)
            weights[g] = 2 * other + rng.randint(1, 3) if fast else max(
                weights.get(g, 0), 1
            )
            total = sum(weights.values())
            for t, w in weights.items():
                transitions[s, t] = Fraction(w, total)
    init = rng.randint(1, n - n_goals)
    return Dtmc.from_transitions(n, init, transitions), goals


def random_fast_exit_instance(
    rng: random.Random, n: int
) -> tuple[Dtmc, frozenset[int]]:
    """Chain plus subset where every subset state puts at least a third of
    its row mass directly outside the subset.  The mass still inside after
    k hops is then at most (2/3)^k, so truncated sums at k=64 land within
    3*(2/3)^65 < 2^-32 of the exact collapse entries.
    """
    size = rng.randint(1, n - 1)
    s1 = frozenset(rng.sample(range(1, n + 1), size))
    inside = sorted(s1)
    outside = sorted(set(range(1, n + 1)) - s1)
    transitions = {}
    for s in range(1, n + 1):
        if s in s1:
            in_targets = rng.sample(inside, rng.randint(0, len(inside)))
            in_weights = {t: rng.randint(1, 3) for t in in_targets}
            w_in = sum(in_weights.values())
            out_targets = rng.sample(outside, rng.randint(1, len(outside)))
            out_weights = {t: rng.randint(1, 3) for t in out_targets}
            while 2 * sum(out_weights.values()) < w_in:
                out_weights[rng.choice(out_targets)] += 1
            weights = {**in_weights, **out_weights}
        else:
            targets = rng.sample(range(1, n + 1), rng.randint(1, n))
            weights = {t: rng.randint(1, 3) for t in targets}
        total = sum(weights.values())
        for t, w in weights.items():
            transitions[s, t] = Fraction(w, total)
    return Dtmc.from_transitions(n, rng.randint(1, n), transitions), s1


def random_acyclic_inside_instance(
    rng: random.Random, n: int
) -> tuple[Dtmc, frozenset[int]]:
    """Chain plus subset whose induced sub-digraph is acyclic: internal
    edges only run towards larger state indices."""
    size = rng.randint(1, n - 1)
    s1 = frozenset(rng.sample(range(1, n + 1), size))
    transitions = {}
    for s in range(1, n + 1):
        allowed = [
            t for t in range(1, n + 1) if not (s in s1 and t in s1 and t <= s)
        ]
        targets = rng.sample(allowed, rng.randint(1, len(allowed)))
        weights = [rng.randint(1, 4) for _ in targets]
        total = sum(weights)
        for t, w in zip(targets, weights):
            transitions[s, t] = Fraction(w, total)
    return Dtmc.from_transitions(n, rng.randint(1, n), transitions), s1


def enumerated_walk_prob(d: Dtmc, s: int, subset, r: int, i: int) -> Fraction:
    """Mass of the words s*w*r with w ranging over subset^(i-1), summed by
    literal enumeration of every word."""
    inside = sorted(subset)
    total = Fraction(0)
    for mid in product(inside, repeat=i - 1):
        total += path_prob(d, (s, *mid, r))
    return total


def submatrix_power_entry(d: Dtmc, subset, power: int, s: int, r: int) -> Fraction:
    """Entry (s, r) of the subset-restricted matrix raised to ``power``."""
    inside = sorted(subset)
    idx = {v: i for i, v in enumerate(inside)}
    m = [[d.prob(a, b) for b in inside] for a in inside]
    acc = [
        [Fraction(1) if i == j else Fraction(0) for j in range(len(inside))]
        for i in range(len(inside))
    ]
    for _ in range(power):
        acc = [
            [
                sum((acc[i][k] * m[k][j] for k in range(len(inside))), Fraction(0))
                for j in range(len(inside))
            ]
            for i in range(len(inside))
        ]
    return acc[idx[s]][idx[r]]


def system_from_dense(a, b) -> LinearSystem:
    """The :class:`LinearSystem` of dense rational ``a`` and ``b``: each row
    of ``[a | b]`` scaled to integers by the lcm of its denominators, the
    row of ``a`` kept as the map of its nonzero entries, ``b`` as tuples."""
    a_rows, b_rows = [], []
    for arow, brow in zip(a, b):
        scale = lcm(*(x.denominator for x in [*arow, *brow]))
        a_rows.append(
            {c: x.numerator * (scale // x.denominator) for c, x in enumerate(arow) if x}
        )
        b_rows.append(tuple(x.numerator * (scale // x.denominator) for x in brow))
    return LinearSystem(tuple(a_rows), tuple(b_rows))


def gauss_jordan_solve(
    system: LinearSystem, rows=None
) -> tuple[tuple[Fraction, ...], ...]:
    """Dense Gauss-Jordan elimination over ``Fraction`` with multiple
    right-hand sides, pivoting on the first nonzero entry in each column:
    the reference the sparse integer solver is checked against.  Like the
    solver, it returns only the solution rows listed in ``rows`` if given,
    but it always solves for all of them."""
    m = len(system.a)
    a = [[Fraction(row.get(c, 0)) for c in range(m)] for row in system.a]
    b = [list(map(Fraction, row)) for row in system.b]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pivot = a[col][col]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    solved = tuple(tuple(x / a[r][r] for x in b[r]) for r in range(m))
    return solved if rows is None else tuple(solved[r] for r in rows)


# Entry-by-entry references for the layers that scan ``Dtmc.rows``
# directly: each reads every entry through the bounds-checked ``Dtmc.prob``.


def validate_by_prob(d: Dtmc) -> None:
    """:func:`pathfold.core.validate` over all n² entries, zeros included."""
    n = d.n
    if not (1 <= d.init <= n):
        raise InitOutOfRangeError(d.init, n)
    if any(len(row) != n for row in d.rows):
        raise ValidationError("matrix is not square")
    for s in d.states():
        total = Fraction(0)
        for t in d.states():
            p = d.prob(s, t)
            if p < 0:
                raise NegativeEntryError(s, t, p)
            if p > 1:
                raise EntryExceedsOneError(s, t, p)
            total += p
        if total > 1:
            raise RowSumExceedsOneError(s, total)


def transition_count_by_prob(d: Dtmc) -> int:
    return sum(1 for s in d.states() for t in d.states() if d.prob(s, t) != 0)


def reach_backward_by_prob(d: Dtmc, subset, exits) -> frozenset[int]:
    s1 = state_set(subset, d.n)
    exit_set = frozenset(exits)
    seen = set(exit_set)
    layer = set(exit_set)
    while layer:
        nxt = {r for r in s1 if r not in seen and any(d.prob(r, x) > 0 for x in layer)}
        seen |= nxt
        layer = nxt
    return frozenset(seen - exit_set)


def interior_by_prob(d: Dtmc, subset) -> frozenset[int]:
    """Members of ``subset``, other than the initial state, that no state
    outside it feeds: the ones a collapse of it clears."""
    outside = [r for r in d.states() if r not in subset]
    return frozenset(
        s for s in subset if s != d.init and all(d.prob(r, s) == 0 for r in outside)
    )


def frontier_by_prob(d: Dtmc, subset) -> FrontierSets:
    s1 = state_set(subset, d.n)
    outside = [s for s in d.states() if s not in s1]
    exits = frozenset(t for t in outside if any(d.prob(s, t) > 0 for s in s1))
    reaching = reach_backward_by_prob(d, s1, exits)
    return FrontierSets(s1 - interior_by_prob(d, s1), exits, reaching)


def exit_system(d: Dtmc, fr: FrontierSets) -> LinearSystem:
    """:func:`linear_system` over ``fr``'s reaching set and exits, sorted, as
    a collapse of ``d`` assembles it."""
    return linear_system(d.rows, d.succ, sorted(fr.reaching), sorted(fr.exits))


def linear_system_by_prob(d: Dtmc, fr: FrontierSets) -> LinearSystem:
    u = sorted(fr.reaching)
    exits = sorted(fr.exits)
    one, zero = Fraction(1), Fraction(0)
    a = [[(one if r == c else zero) - d.prob(r, c) for c in u] for r in u]
    b = [[d.prob(r, t) for t in exits] for r in u]
    return system_from_dense(a, b)


def prune_isolated_by_prob(d: Dtmc) -> tuple[Dtmc, dict[int, int]]:
    keep = [
        s
        for s in d.states()
        if s == d.init
        or any(d.prob(s, t) != 0 for t in d.states())
        or any(d.prob(r, s) != 0 for r in d.states())
    ]
    mapping = {old: new for new, old in enumerate(keep, start=1)}
    transitions = {(mapping[s], mapping[t]): d.prob(s, t) for s in keep for t in keep}
    return Dtmc.from_transitions(len(keep), mapping[d.init], transitions), mapping


def succ_by_prob(d: Dtmc) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(t for t in d.states() if d.prob(s, t) != 0) for s in d.states()
    )


def sccs_by_prob(d: Dtmc, subset) -> list[frozenset[int]]:
    """Components as classes of mutual reachability inside ``subset``,
    listed by smallest member."""
    s1 = sorted(state_set(subset, d.n))
    reach = {v: {v} for v in s1}
    changed = True
    while changed:
        changed = False
        for v in s1:
            more = {t for u in reach[v] for t in s1 if d.prob(u, t) > 0}
            if not more <= reach[v]:
                reach[v] |= more
                changed = True
    comps = {frozenset(w for w in s1 if v in reach[w] and w in reach[v]) for v in s1}
    return sorted(comps, key=min)


def most_probable_path_by_prob(
    d: Dtmc, src: int, dst: int, within=None
) -> tuple[tuple[int, ...], Fraction]:
    """Every simple path from ``src`` to ``dst`` whose inner states lie in
    ``within`` (any states when it is None), walked by depth-first search:
    the most probable one, ties to the lexicographically smallest."""
    if src == dst:
        return (src,), Fraction(1)
    inner = set(d.states()) if within is None else set(within)
    best: tuple[Fraction, tuple[int, ...]] = (Fraction(0), ())
    stack = [((src,), Fraction(1))]
    while stack:
        path, prob = stack.pop()
        for t in d.states():
            p = d.prob(path[-1], t)
            if p == 0 or t in path:
                continue
            if t == dst:
                cand = (prob * p, path + (t,))
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
            elif t in inner:
                stack.append((path + (t,), prob * p))
    return best[1], best[0]


def most_probable_path_fraction_keyed(
    d: Dtmc, src: int, dst: int, within=None
) -> tuple[tuple[int, ...], Fraction]:
    """The best-first search of :func:`pathfold.checker.most_probable_path`
    keyed on the negated path probability as a :class:`Fraction`, built
    and compared per heap entry: the reference the integer-keyed search is
    checked against on chains too large for the exhaustive one."""
    if src == dst:
        return (src,), Fraction(1)
    allowed = None if within is None else {*state_set(within, d.n), dst}
    heap: list[tuple[Fraction, tuple[int, ...]]] = [(Fraction(-1), (src,))]
    settled: set[int] = set()
    while heap:
        neg, path = heapq.heappop(heap)
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == dst:
            return path, -neg
        for t in d.succ[v - 1]:
            if t not in settled and (allowed is None or t in allowed):
                heapq.heappush(heap, (neg * d.prob(v, t), path + (t,)))
    return (), Fraction(0)


def sccs_over_filtered_lists(d: Dtmc, subset) -> list[frozenset[int]]:
    """Tarjan's search over a dict of each member's successor list filtered
    to ``subset``, roots ascending, its emission order reversed: the
    reference for the order :func:`pathfold.scc.sccs` lists components in."""
    members = state_set(subset, d.n)
    vertices = sorted(members)
    succ = {v: [t for t in d.succ[v - 1] if t in members] for v in vertices}
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[frozenset[int]] = []
    for root in vertices:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            descended = False
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps[::-1]


def collapse_sequence(d: Dtmc, method: str, region=None) -> list[frozenset[int]]:
    """The subsets ``model_check(d, goals, method)`` collapses, in order;
    with ``region`` given, the ones its strategy collapses on ``region``
    instead of on the non-absorbing states ``k``.

    ``direct`` collapses the region at once, ``scc`` each nontrivial
    component of the region and then the region, and ``recursive`` the
    nested order of each component something enters, then the region.  The
    region is not collapsed a second time when it was the last component.
    The components and their order come from :func:`nontrivial_sccs`, all
    of them on ``d``; which states a component's outside feeds is read
    through ``prob()``.
    """
    if region is None:
        region = (s for s in d.states() if d.prob(s, s) < 1)
    k = frozenset(region)
    if method == "direct":
        return [k]
    comps = nontrivial_sccs(d, k)
    if method == "scc":
        seq = comps
    else:
        entered = [c for c in comps if interior_by_prob(d, c) != c]
        seq = [c for comp in entered for c in _nested_order(d, comp)]
    return seq if seq[-1:] == [k] else [*seq, k]


def _nested_order(d: Dtmc, comp) -> list[frozenset[int]]:
    """Innermost first: the order of each component of ``comp``'s interior,
    in turn, then ``comp``."""
    inner = nontrivial_sccs(d, interior_by_prob(d, comp))
    return [*(c for sub in inner for c in _nested_order(d, sub)), comp]


def record_collapses(monkeypatch) -> list[frozenset[int]]:
    """Wrap the collapse step of the package's one fold, which every
    collapse goes through; return the list each step appends its checked
    subset to.  A subset the fold skips is not a step."""
    original = abstraction._Fold.collapse
    subsets = []

    def recording(fold, s1):
        subsets.append(s1)
        return original(fold, s1)

    monkeypatch.setattr(abstraction._Fold, "collapse", recording)
    return subsets
