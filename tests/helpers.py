"""Shared test material: the worked 8-state chain, its known collapses,
random model generators, and brute-force oracles kept deliberately naive."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pathfold
from pathfold.abstraction import FrontierSets, LinearSystem, SingularMatrixError
from pathfold.core import Dtmc, state_set
from pathfold.words import path_prob

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


def as_fractions(table: dict) -> dict[tuple[int, int], Fraction]:
    return {k: Fraction(v) for k, v in table.items()}


def random_dtmc(rng: random.Random, n: int, max_weight: int = 6) -> Dtmc:
    """Row-normalized chain with random rational entries."""
    rows = []
    for _ in range(n):
        k = rng.randint(1, n)
        targets = rng.sample(range(n), k)
        weights = [rng.randint(1, max_weight) for _ in targets]
        total = sum(weights)
        row = [Fraction(0)] * n
        for t, w in zip(targets, weights):
            row[t] = Fraction(w, total)
        rows.append(row)
    return Dtmc.from_rows(rng.randint(1, n), rows)


def random_substochastic(rng: random.Random, n: int, max_weight: int = 6) -> Dtmc:
    rows = []
    for _ in range(n):
        k = rng.randint(1, n)
        targets = rng.sample(range(n), k)
        weights = [rng.randint(1, max_weight) for _ in targets]
        total = sum(weights) + rng.randint(0, max_weight)
        row = [Fraction(0)] * n
        for t, w in zip(targets, weights):
            row[t] = Fraction(w, total)
        rows.append(row)
    return Dtmc.from_rows(rng.randint(1, n), rows)


def random_subset(rng: random.Random, pool, allow_empty: bool = True) -> frozenset[int]:
    pool = sorted(pool)
    k = rng.randint(0 if allow_empty else 1, len(pool))
    return frozenset(rng.sample(pool, k))


def random_trapping(rng: random.Random, n: int) -> Dtmc:
    """Stochastic chain with a closed region that no route leaves."""
    d = random_dtmc(rng, n)
    trap = sorted(random_subset(rng, d.states(), allow_empty=False))
    rows = [[d.prob(s, t) for t in d.states()] for s in d.states()]
    for s in trap:
        targets = rng.sample(trap, rng.randint(1, len(trap)))
        share = Fraction(1, len(targets))
        rows[s - 1] = [share if t in targets else Fraction(0) for t in d.states()]
    return Dtmc.from_rows(d.init, rows)


MODELS = {
    "stochastic": random_dtmc,
    "substochastic": random_substochastic,
    "trapping": random_trapping,
}


def random_goal_model(
    rng: random.Random, n: int, n_goals: int = 2, fast: bool = False
) -> tuple[Dtmc, list[int]]:
    """Stochastic chain whose last ``n_goals`` states are absorbing; every
    transient state carries a direct goal edge, with at least two thirds of
    its row mass on it when ``fast`` is set (forcing fast convergence of
    truncated reachability sums).
    """
    goals = list(range(n - n_goals + 1, n + 1))
    rows = []
    for s in range(1, n + 1):
        row = [Fraction(0)] * n
        if s in goals:
            row[s - 1] = Fraction(1)
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
                row[t - 1] = Fraction(w, total)
        rows.append(row)
    init = rng.randint(1, n - n_goals)
    return Dtmc.from_rows(init, rows), goals


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
    rows = []
    for s in range(1, n + 1):
        row = [Fraction(0)] * n
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
            row[t - 1] = Fraction(w, total)
        rows.append(row)
    return Dtmc.from_rows(rng.randint(1, n), rows), s1


def random_acyclic_inside_instance(
    rng: random.Random, n: int
) -> tuple[Dtmc, frozenset[int]]:
    """Chain plus subset whose induced sub-digraph is acyclic: internal
    edges only run towards larger state indices."""
    size = rng.randint(1, n - 1)
    s1 = frozenset(rng.sample(range(1, n + 1), size))
    rows = []
    for s in range(1, n + 1):
        allowed = [
            t for t in range(1, n + 1) if not (s in s1 and t in s1 and t <= s)
        ]
        targets = rng.sample(allowed, rng.randint(1, len(allowed)))
        weights = [rng.randint(1, 4) for _ in targets]
        total = sum(weights)
        row = [Fraction(0)] * n
        for t, w in zip(targets, weights):
            row[t - 1] = Fraction(w, total)
        rows.append(row)
    return Dtmc.from_rows(rng.randint(1, n), rows), s1


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


def gauss_jordan_solve(
    system: LinearSystem, rows=None
) -> tuple[tuple[Fraction, ...], ...]:
    """Dense Gauss-Jordan elimination over ``Fraction`` with multiple
    right-hand sides, pivoting on the first nonzero entry in each column:
    the reference the sparse integer solver is checked against.  Like the
    solver, it returns only the solution rows listed in ``rows`` if given,
    but it always solves for all of them."""
    a = [list(row) for row in system.a]
    b = [list(row) for row in system.b]
    m = len(a)
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


def transition_count_by_prob(d: Dtmc) -> int:
    return sum(1 for s in d.states() for t in d.states() if d.prob(s, t) > 0)


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


def frontier_by_prob(d: Dtmc, subset) -> FrontierSets:
    s1 = state_set(subset, d.n)
    outside = [s for s in d.states() if s not in s1]
    interior = frozenset(
        s for s in s1 if s != d.init and all(d.prob(r, s) == 0 for r in outside)
    )
    exits = frozenset(t for t in outside if any(d.prob(s, t) > 0 for s in s1))
    reaching = reach_backward_by_prob(d, s1, exits)
    return FrontierSets(interior, s1 - interior, exits, reaching)


def linear_system_by_prob(d: Dtmc, fr: FrontierSets) -> LinearSystem:
    u = sorted(fr.reaching)
    exits = sorted(fr.exits)
    one, zero = Fraction(1), Fraction(0)
    a = tuple(tuple((one if r == c else zero) - d.prob(r, c) for c in u) for r in u)
    b = tuple(tuple(d.prob(r, t) for t in exits) for r in u)
    return LinearSystem(a, b)


def prune_isolated_by_prob(d: Dtmc) -> tuple[Dtmc, dict[int, int]]:
    keep = [
        s
        for s in d.states()
        if s == d.init
        or any(d.prob(s, t) > 0 for t in d.states())
        or any(d.prob(r, s) > 0 for r in d.states())
    ]
    mapping = {old: new for new, old in enumerate(keep, start=1)}
    rows = [[d.prob(s, t) for t in keep] for s in keep]
    return Dtmc.from_rows(mapping[d.init], rows), mapping
