"""Differential check of the sparse integer solver against the dense
Gauss-Jordan oracle, on raw linear systems, for chosen solution rows and
through the collapse, plus a bound on the solver's fill-in, a fixed count
of its row combinations, a check that every row it combines stays
primitive and a count of the ``Fraction``s the exit system and its solve
build."""

import contextlib
import copy
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MODELS,
    S1,
    counting_fractions,
    entry_map,
    exit_system,
    gauss_jordan_solve,
    random_goal_model,
    random_subset,
    system_from_dense,
)
from pathfold import abstraction
from pathfold.abstraction import (
    LinearSystem,
    SingularMatrixError,
    frontier,
    path_abstract,
    solve_linear,
)
from pathfold.core import Dtmc

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import families  # noqa: E402

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
    return system_from_dense(a, b)


def _outcome(solver, system):
    try:
        return solver(system)
    except SingularMatrixError:
        return SingularMatrixError


def _solve_all(system):
    return solve_linear(system, range(len(system.a)))


@contextlib.contextmanager
def _checking_primitive_rows():
    """Check after every row combination of the solver that the combined
    row's entries have gcd 1, so that it is the smallest integer multiple
    of its exact row; a row that cancelled out entirely has no entry and
    gcd 0.  Yields the list of combinations checked."""
    cancel = abstraction._cancel
    checked = []

    def checking(row, *args):
        cancel(row, *args)
        checked.append(gcd(*row.values()))
        assert checked[-1] <= 1, row

    with mock.patch.object(abstraction, "_cancel", checking):
        yield checked


@settings(max_examples=400)
@given(systems())
def test_solve_linear_equals_gauss_jordan(system):
    # every row combined on the way stays primitive
    with _checking_primitive_rows():
        got = _outcome(_solve_all, system)
    assert got == _outcome(gauss_jordan_solve, system)


def test_solve_linear_differential_covers_both_outcomes():
    seen = set()

    @settings(max_examples=200)
    @given(systems())
    def record(system):
        seen.add(_outcome(_solve_all, system) is SingularMatrixError)

    record()
    assert seen == {True, False}


def test_solve_linear_long_tridiagonal_matches_oracle():
    # a gambler's-ruin hitting system: banded, so elimination fills nothing in
    m, p = 60, Fraction(2, 5)
    diagonals = {-1: p - 1, 0: Fraction(1), 1: -p}
    a = [[diagonals.get(j - i, ZERO) for j in range(m)] for i in range(m)]
    b = [[p if i == m - 1 else ZERO, 1 - p if i == 0 else ZERO] for i in range(m)]
    system = system_from_dense(a, b)
    assert _solve_all(system) == gauss_jordan_solve(system)


@settings(max_examples=300)
@given(st.data())
def test_solve_linear_rows_equal_gauss_jordan_rows(data):
    system = data.draw(systems())
    m = len(system.a)
    rows = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    # the wanted rows, cleared of each other's columns, stay primitive too
    with _checking_primitive_rows():
        got = _outcome(lambda s: solve_linear(s, rows), system)
    assert got == _outcome(lambda s: gauss_jordan_solve(s, rows), system)


@settings(max_examples=200)
@given(st.data())
def test_solve_linear_reads_any_sequence_of_rows_once(data):
    # ``rows`` may repeat an index, be a generator that can be read only
    # once, a ``range`` or empty: each asks for the rows ``list(rows)``
    # lists, in that order, and none changes the caller's system
    system = data.draw(systems())
    m = len(system.a)
    picks = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    for make in (
        lambda: [*picks, *picks],
        lambda: (i for i in picks),
        lambda: range(start, stop),
        list,
    ):
        before = copy.deepcopy(system)
        got = _outcome(lambda s: solve_linear(s, make()), system)
        assert system == before
        assert got == _outcome(lambda s: gauss_jordan_solve(s, list(make())), system)


def test_solve_linear_rows_must_be_unknowns():
    system = system_from_dense([[Fraction(1)]], [[Fraction(1, 2)]])
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
    return system_from_dense(a, b)


@pytest.mark.parametrize(
    ("rows", "cancels"),
    [pytest.param(range(40), 78, id="all"), ([0], 39), ([5, 0, 39], 41)],
)
def test_arrow_system_fills_nothing_in(rows, cancels):
    # Pivoting on the dense first column first turns every row dense and
    # costs 780 row combinations; the sparse columns first cost one each,
    # and clearing a wanted sparse row of the dense column one more.
    system = _arrow(40)
    with mock.patch.object(abstraction, "_cancel", wraps=abstraction._cancel) as cancel:
        got = solve_linear(system, rows)
    assert cancel.call_count == cancels
    assert got == gauss_jordan_solve(system, rows)


def _random_chain_exit_system():
    """The exit system of a direct collapse of a seeded 50-state bench
    chain: its 48 non-goal states all reach a goal, and row 0 is its one
    entry, the initial state."""
    case = families.random_chain(1, 0, 50)
    d = Dtmc.from_transitions(case.n, case.init, case.entries)
    return exit_system(d, frontier(d, range(1, 49)))


@pytest.mark.parametrize(
    ("system", "rows", "cancels"),
    [
        (_arrow(40), range(40), 78),
        (_random_chain_exit_system(), [0], 189),
        (_random_chain_exit_system(), range(48), 382),
    ],
    ids=["arrow 40", "random 50 entry", "random 50 all"],
)
def test_elimination_makes_a_fixed_number_of_row_combinations(system, rows, cancels):
    # The pivot rule fixes how many rows are combined, on the way down and
    # in clearing the wanted rows on the way up; a rewrite that keeps every
    # result but changes the rule, or its tie-break, changes the count.
    # Each combined row stays primitive: without the division by its
    # content, a random-50 row gathers a common factor of hundreds of
    # digits, and dividing only the pivot rows leaves it on the rows
    # combined in between.
    with _checking_primitive_rows() as checked:
        got = solve_linear(system, rows)
    assert len(checked) == cancels
    assert got == gauss_jordan_solve(system, rows)


EXIT_SYSTEM_MODELS = {
    **MODELS,
    "goal": lambda rng, n: random_goal_model(rng, max(n, 3))[0],
}


@pytest.mark.parametrize("kind", sorted(EXIT_SYSTEM_MODELS))
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12))
def test_solve_linear_on_exit_systems_equals_gauss_jordan(kind, seed, n):
    # The systems a collapse really hands over, for random wanted rows.  The
    # solver rewrites its rows in place, so it must leave the caller's
    # system as it found it.
    rng = random.Random(seed)
    d = EXIT_SYSTEM_MODELS[kind](rng, n)
    system = exit_system(d, frontier(d, random_subset(rng, d.states())))
    m = len(system.a)
    rows = rng.sample(range(m), rng.randint(0, m))
    before = copy.deepcopy(system)
    got = solve_linear(system, rows)
    assert system == before
    assert got == gauss_jordan_solve(system, rows)


def test_worked_example_exit_system_is_integer_rows(me):
    # reaching = [2, 5, 6], exits = [3, 8]; each row is scaled by the lcm
    # of its kept entries' denominators and its diagonal's: 3, 1 and 4
    fr = frontier(me, S1)
    with counting_fractions() as built:
        system = exit_system(me, fr)
    assert built[0] == 0
    assert system == LinearSystem(
        ({0: 3, 1: -1}, {1: 1, 2: -1}, {0: -1, 1: -2, 2: 4}),
        ((2, 0), (0, 0), (0, 1)),
    )


@pytest.mark.parametrize("kind", sorted(EXIT_SYSTEM_MODELS))
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12))
def test_exit_system_builds_no_fraction_and_solve_one_per_entry(kind, seed, n):
    rng = random.Random(seed)
    d = EXIT_SYSTEM_MODELS[kind](rng, n)
    fr = frontier(d, random_subset(rng, d.states()))
    with counting_fractions() as built:
        system = exit_system(d, fr)
    assert built[0] == 0
    m = len(system.a)
    rows = rng.sample(range(m), rng.randint(0, m))
    with counting_fractions() as built:
        got = solve_linear(system, rows)
    assert built[0] <= sum(map(len, got))


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
