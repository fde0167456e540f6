"""Expected CLI output for every benchmark case, computed without the program.

Each family has its own independent route to the answer: a closed form for
gambler's ruin, the per-block product for the ladder, and an exact
fraction-free solver written here for the random chain and for the collapse
of the wide chain.  Nothing in this module imports ``pathfold``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from families import BIRTH_DEATH_P, LADDER_BLOCK, Case

SMOKE_STDOUT = "7 5/9\n8 4/9\ntotal 1/1\n"
"""``check --goal 7,8`` on ``tests/data/example8.dtmc`` under every method."""


def _fmt(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact ``x`` with ``a @ x = b`` for a nonsingular square ``a``.

    Bareiss fraction-free elimination: each row is scaled to integers, the
    forward pass divides exactly by the previous pivot, and only the back
    substitution works over fractions.
    """
    m = len(a)
    rows = []
    for ra, rb in zip(a, b):
        scale = lcm(*(Fraction(x).denominator for x in (*ra, *rb)))
        rows.append([int(x * scale) for x in (*ra, *rb)])
    width = len(rows[0]) if rows else 0
    prev = 1
    for c in range(m):
        piv = next((r for r in range(c, m) if rows[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError(f"singular system: no pivot in column {c}")
        rows[c], rows[piv] = rows[piv], rows[c]
        pivot_row = rows[c]
        pc = pivot_row[c]
        for r in range(c + 1, m):
            row = rows[r]
            rc = row[c]
            for j in range(c + 1, width):
                row[j] = (row[j] * pc - rc * pivot_row[j]) // prev
            row[c] = 0
        prev = pc
    x: list[list[Fraction]] = [[] for _ in range(m)]
    for r in range(m - 1, -1, -1):
        row = rows[r]
        x[r] = [
            (row[m + k] - sum((row[j] * x[j][k] for j in range(r + 1, m)), Fraction(0)))
            / row[r]
            for k in range(width - m)
        ]
    return x


def _successors(case: Case) -> dict[int, dict[int, Fraction]]:
    succ: dict[int, dict[int, Fraction]] = {s: {} for s in range(1, case.n + 1)}
    for (s, t), p in case.entries.items():
        succ[s][t] = p
    return succ


def _random_stdout(case: Case) -> str:
    goals = sorted(case.params["goals"])
    succ = _successors(case)
    transient = [s for s in range(1, case.n + 1) if succ[s].get(s) != 1]
    index = {s: i for i, s in enumerate(transient)}
    a = [[Fraction(0)] * len(transient) for _ in transient]
    b = [[succ[s].get(g, Fraction(0)) for g in goals] for s in transient]
    for s in transient:
        a[index[s]][index[s]] += 1
        for t, p in succ[s].items():
            if t in index:
                a[index[s]][index[t]] -= p
    # Every state reaches a goal through the s -> s+1 backbone, so the
    # system over all transient states is nonsingular.
    x = solve(a, b)[index[case.init]]
    lines = [f"{g} {_fmt(p)}" for g, p in zip(goals, x)]
    return "\n".join([*lines, f"total {_fmt(sum(x, Fraction(0)))}"]) + "\n"


def _birth_death_stdout(case: Case) -> str:
    length, start = case.params["length"], case.params["start"]
    r = (1 - BIRTH_DEATH_P) / BIRTH_DEATH_P
    win = (1 - r**start) / (1 - r**length)
    return f"1 {_fmt(1 - win)}\n{case.n} {_fmt(win)}\ntotal 1/1\n"


def _ladder_stdouts(case: Case) -> list[tuple[int, str]]:
    fail, goal = case.params["fail"], case.params["goal"]
    reach = Fraction(1)
    for p in case.params["passes"]:
        reach *= p
    # The most probable route through every block is its straight line
    # e, m1, m2, m3, m4, x; each cycle only multiplies in further factors
    # below one.
    concrete = [*range(1, LADDER_BLOCK * case.params["blocks"] + 1), goal]
    refine = f"OK best={_fmt(reach)} concrete={','.join(map(str, concrete))}\n"
    check = f"{fail} {_fmt(1 - reach)}\n{goal} {_fmt(reach)}\ntotal 1/1\n"
    return [(0, refine), (0, check)]


def _wide_stdout(case: Case) -> str:
    """Collapse the window, prune isolated states, print canonically."""
    succ = _successors(case)
    pred: dict[int, set[int]] = {s: set() for s in succ}
    for (s, t) in case.entries:
        pred[t].add(s)
    window = set(case.params["subset"])
    interior = {s for s in window if s != case.init and pred[s] <= window}
    exits = sorted({t for s in window for t in succ[s] if t not in window})
    reaching: set[int] = set()
    layer = set(exits)
    while layer:
        layer = {r for t in layer for r in pred[t] if r in window and r not in reaching}
        reaching |= layer
    out = {(s, t): p for (s, t), p in case.entries.items() if s not in window}
    sources = sorted((window - interior) & reaching)
    if sources and exits:
        u = sorted(reaching)
        index = {s: i for i, s in enumerate(u)}
        a = [
            [(1 if i == j else 0) - succ[si].get(sj, Fraction(0)) for j, sj in enumerate(u)]
            for i, si in enumerate(u)
        ]
        b = [[succ[s].get(t, Fraction(0)) for t in exits] for s in u]
        x = solve(a, b)
        for s in sources:
            for t, p in zip(exits, x[index[s]]):
                if p:
                    out[(s, t)] = p
    touched = {s for pair in out for s in pair}
    keep = [s for s in range(1, case.n + 1) if s == case.init or s in touched]
    new = {old: i for i, old in enumerate(keep, start=1)}
    lines = [f"# map {old} -> {new[old]}" for old in keep]
    lines.append(f"dtmc {len(keep)} {new[case.init]}")
    lines += [f"{new[s]} {new[t]} {_fmt(p)}" for (s, t), p in sorted(out.items())]
    return "\n".join(lines) + "\n"


def expected(case: Case) -> list[tuple[int, str]]:
    """(exit code, stdout) of every call one op of ``case`` makes."""
    if case.family == "random":
        return [(0, _random_stdout(case))]
    if case.family == "birthdeath":
        return [(0, _birth_death_stdout(case))]
    if case.family == "ladder":
        return _ladder_stdouts(case)
    if case.family == "wide":
        return [(0, _wide_stdout(case))]
    raise ValueError(f"unknown family {case.family!r}")
