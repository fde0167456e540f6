"""Differential check of the sparse integer solver against the dense
Gauss-Jordan oracle, on raw linear systems, for chosen solution rows and
through the collapse, plus a bound on the solver's fill-in."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS, entry_map, gauss_jordan_solve, random_subset
from pathfold import abstraction
from pathfold.abstraction import (
    LinearSystem,
    SingularMatrixError,
    path_abstract,
    solve_linear,
)

ZERO = Fraction(0)


@st.composite
def systems(draw):
    """Square systems of size 1-12 with 1-3 right-hand-side columns: dense,
    sparse, tridiagonal, or with a last row combined from two others."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["dense", "sparse", "tridiagonal", "dependent"]))
    density = draw(st.floats(0.05, 0.5)) if shape == "sparse" else 1.0
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value(chance):
        if rng.random() >= chance:
            return ZERO
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    band = m if shape != "tridiagonal" else 1
    a = [
        [value(density) if abs(i - j) <= band else ZERO for j in range(m)]
        for i in range(m)
    ]
    b = [[value(0.7) for _ in range(k)] for _ in range(m)]
    if shape == "dependent" and m >= 3:
        x, y = value(1), value(1)
        a[-1] = [x * p + y * q for p, q in zip(a[0], a[1])]
    return LinearSystem(tuple(map(tuple, a)), tuple(map(tuple, b)))


def _outcome(solver, system):
    try:
        return solver(system)
    except SingularMatrixError:
        return SingularMatrixError


@settings(max_examples=400)
@given(systems())
def test_solve_linear_equals_gauss_jordan(system):
    assert _outcome(solve_linear, system) == _outcome(gauss_jordan_solve, system)


def test_solve_linear_differential_covers_both_outcomes():
    seen = set()

    @settings(max_examples=200)
    @given(systems())
    def record(system):
        seen.add(_outcome(solve_linear, system) is SingularMatrixError)

    record()
    assert seen == {True, False}


def test_solve_linear_long_tridiagonal_matches_oracle():
    # a gambler's-ruin hitting system: banded, so elimination fills nothing in
    m, p = 60, Fraction(2, 5)
    diagonals = {-1: p - 1, 0: Fraction(1), 1: -p}
    a = [[diagonals.get(j - i, ZERO) for j in range(m)] for i in range(m)]
    b = [[p if i == m - 1 else ZERO, 1 - p if i == 0 else ZERO] for i in range(m)]
    system = LinearSystem(tuple(map(tuple, a)), tuple(map(tuple, b)))
    assert solve_linear(system) == gauss_jordan_solve(system)


@settings(max_examples=300)
@given(st.data())
def test_solve_linear_rows_equal_gauss_jordan_rows(data):
    system = data.draw(systems())
    m = len(system.a)
    rows = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    assert _outcome(lambda s: solve_linear(s, rows), system) == _outcome(
        lambda s: gauss_jordan_solve(s, rows), system
    )


def test_solve_linear_rows_must_be_unknowns():
    system = LinearSystem(((Fraction(1),),), ((Fraction(1, 2),),))
    assert solve_linear(system, [0]) == ((Fraction(1, 2),),)
    for rows in ([1], [-1]):
        with pytest.raises(ValueError):
            solve_linear(system, rows)


def _arrow(m):
    """``I - P`` for a star: state 0 moves to each other state with
    probability 1/(2(m-1)) and each other state back to 0 with probability
    1/2, so ``a`` is a dense first row and column plus the diagonal."""
    out, back = Fraction(-1, 2 * (m - 1)), Fraction(-1, 2)
    a = [[ZERO] * m for _ in range(m)]
    for j in range(m):
        a[j][j] = Fraction(1)
        if j:
            a[0][j], a[j][0] = out, back
    b = [[Fraction(1, 2), Fraction(j, 2 * m)] for j in range(m)]
    return LinearSystem(tuple(map(tuple, a)), tuple(map(tuple, b)))


@pytest.mark.parametrize("rows", [None, [0], [5, 0, 39]])
def test_arrow_system_fills_nothing_in(rows):
    # Pivoting on the dense first column first turns every row dense and
    # costs 780 row combinations; the sparse columns first cost one each.
    m = 40
    system = _arrow(m)
    with mock.patch.object(abstraction, "_cancel", wraps=abstraction._cancel) as cancel:
        got = solve_linear(system) if rows is None else solve_linear(system, rows)
    assert cancel.call_count <= m
    assert got == gauss_jordan_solve(system, rows)


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 9))
def test_path_abstract_equals_oracle_collapse(kind, seed, n):
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    subset = random_subset(rng, d.states())
    new = path_abstract(d, subset)
    with mock.patch.object(abstraction, "solve_linear", gauss_jordan_solve):
        old = path_abstract(d, subset)
    assert entry_map(new) == entry_map(old)
    assert (new.n, new.init) == (old.n, old.init)
