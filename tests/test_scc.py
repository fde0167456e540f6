"""Component decomposition and the two staged collapse strategies."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import pairwise, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIG_MINUS_K,
    FIG_MINUS_S1,
    K,
    MODELS,
    PACKAGE_ENV,
    S1,
    as_fractions,
    collapse_sequence,
    entry_map,
    me_dtmc,
    nested_cycle,
    random_dtmc,
    random_goal_model,
    random_subset,
    record_collapses,
    sccs_over_filtered_lists,
)
from oracle import path_prob
from pathfold.abstraction import path_abstract, path_abstract_seq
from pathfold.checker import METHODS, model_check
from pathfold.cli import serialize
from pathfold.core import Dtmc, non_absorbing
from pathfold.scc import (
    abstract_recursive,
    abstract_via_sccs,
    nontrivial_sccs,
    sccs,
)


def test_components_worked_example(me):
    assert sccs(me, K) == [
        frozenset({1}),
        frozenset({2, 5, 6}),
        frozenset({3, 4}),
    ]


def test_components_of_acyclic_chain_are_singletons():
    d = Dtmc.from_transitions(3, 1, {(1, 2): 1, (2, 3): 1, (3, 3): 1})
    assert sccs(d, {1, 2, 3}) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_components_of_complete_digraph_merge():
    third = Fraction(1, 3)
    pairs = [(s, t) for s in range(1, 4) for t in range(1, 4)]
    d = Dtmc.from_transitions(3, 1, dict.fromkeys(pairs, third))
    assert sccs(d, {1, 2, 3}) == [frozenset({1, 2, 3})]


def test_components_restricted_to_subset(me):
    # without state 5 the 2-5-6 cycle is broken, and 6 feeds 2, so the
    # singleton {6} is the ancestor and comes first
    assert sccs(me, {2, 6}) == [frozenset({6}), frozenset({2})]


def _reaches_within(d, comp, s, t):
    comp = sorted(comp)
    for i in range(len(comp) + 1):
        for mid in product(comp, repeat=i):
            if path_prob(d, (s, *mid, t)) > 0:
                return True
    return False


def test_components_partition_and_cycle_random():
    rng = random.Random(71)
    for _ in range(25):
        d = random_dtmc(rng, rng.randint(2, 5))
        subset = random_subset(rng, d.states())
        comps = sccs(d, subset)
        assert sorted(s for comp in comps for s in comp) == sorted(subset)
        assert all(
            not a & b for i, a in enumerate(comps) for b in comps[i + 1 :]
        )
        for comp in comps:
            for s in comp:
                for t in comp:
                    if s != t:
                        assert _reaches_within(d, comp, s, t)


def test_components_order_is_ancestors_first():
    rng = random.Random(73)
    for _ in range(25):
        d = random_dtmc(rng, rng.randint(2, 6))
        comps = sccs(d, d.states())
        position = {s: i for i, comp in enumerate(comps) for s in comp}
        for s, t, _ in d.transitions():
            assert position[s] <= position[t]


def test_components_that_cannot_reach_each_other_keep_their_order():
    # the search from 1 finishes {2, 3} before {4, 5}, and 6 is a root of
    # its own: the reversed emission lists {6} first and {4, 5} before
    # {2, 3}, although neither pair can reach the other
    half = Fraction(1, 2)
    d = Dtmc.from_transitions(6, 1, {
        (1, 2): half, (1, 4): half, (2, 3): 1, (3, 2): 1,
        (4, 5): 1, (5, 4): 1, (6, 6): 1,
    })
    expected = [{6}, {1}, {4, 5}, {2, 3}]
    assert sccs(d, d.states()) == [frozenset(c) for c in expected]
    assert nontrivial_sccs(d, d.states()) == [
        frozenset(c) for c in ({6}, {4, 5}, {2, 3})
    ]
    assert sccs(d, {2, 3, 4, 5}) == [frozenset({4, 5}), frozenset({2, 3})]


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12))
def test_components_come_in_the_order_of_the_filtered_list_search(kind, seed, n):
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    for chain in (d, path_abstract(d, random_subset(rng, d.states()))):
        subset = random_subset(rng, d.states())
        assert sccs(chain, subset) == sccs_over_filtered_lists(chain, subset)


def test_nontrivial_drops_loopless_singletons(me):
    assert nontrivial_sccs(me, K) == [frozenset({2, 5, 6}), frozenset({3, 4})]


def test_nontrivial_empty_for_loopless_chain():
    d = Dtmc.from_transitions(3, 1, {(1, 2): 1, (2, 3): 1, (3, 3): 1})
    assert nontrivial_sccs(d, {1, 2}) == []


def test_nontrivial_keeps_self_loop_singleton():
    d = Dtmc.from_transitions(2, 1, {(1, 1): "1/2", (1, 2): "1/2", (2, 2): 1})
    assert nontrivial_sccs(d, {1}) == [frozenset({1})]


def test_staged_collapse_matches_final_figure(me):
    assert entry_map(abstract_via_sccs(me, K)) == as_fractions(FIG_MINUS_K)


def test_staged_collapse_equals_direct_random():
    rng = random.Random(79)
    for _ in range(40):
        d = random_dtmc(rng, rng.randint(2, 8))
        k = non_absorbing(d)
        assert abstract_via_sccs(d, k) == path_abstract(d, k)


def test_staged_collapse_ignores_component_order(me):
    comps = nontrivial_sccs(me, K)
    rng = random.Random(83)
    reference = abstract_via_sccs(me, K)
    for _ in range(5):
        shuffled = comps[:]
        rng.shuffle(shuffled)
        assert path_abstract_seq(me, [*shuffled, K]) == reference


def test_recursive_collapse_worked_example(me):
    got = abstract_recursive(me, S1)
    assert entry_map(got) == as_fractions(FIG_MINUS_S1)


def test_recursive_collapse_trivial_interior_base_case(me):
    # the interior of {3, 4} is {4}, a single state without a self-loop
    assert abstract_recursive(me, {3, 4}) == path_abstract(me, {3, 4})


def test_recursive_collapse_equals_direct_on_components():
    rng = random.Random(89)
    checked = 0
    while checked < 40:
        d = random_dtmc(rng, rng.randint(3, 8))
        for comp in nontrivial_sccs(d, non_absorbing(d)):
            assert abstract_recursive(d, comp) == path_abstract(d, comp)
            checked += 1


def test_recursive_collapse_accepts_split_subset(me):
    # {2, 3} splits into two loopless singletons, {2, ..., 6} into the
    # components {2, 5, 6} and {3, 4}
    for subset in ({2, 3}, K - {1}):
        assert abstract_recursive(me, subset) == path_abstract(me, subset)


def test_recursive_collapse_accepts_empty_subset(me):
    assert abstract_recursive(me, frozenset()) == path_abstract(me, frozenset())


def _unentered_cycle() -> Dtmc:
    # states 2 and 3 swap forever and nothing else ever enters them
    return Dtmc.from_transitions(
        4, 1, {(1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 4): 1}
    )


def test_recursive_collapse_accepts_unentered_cycle():
    d = _unentered_cycle()
    assert abstract_recursive(d, {2, 3}) == path_abstract(d, {2, 3})


def test_recursive_collapse_accepts_entered_cycle():
    d = Dtmc.from_transitions(
        4,
        1,
        {(1, 2): "1/2", (1, 4): "1/2", (2, 3): 1, (3, 2): "1/2", (3, 4): "1/2", (4, 4): 1},
    )
    got = abstract_recursive(d, {2, 3})
    assert got == path_abstract(d, {2, 3})
    assert got.prob(1, 4) == Fraction(1, 2)
    assert got.prob(2, 4) == 1


# --- nested cycles ----------------------------------------------------------


_LOW_RECURSION_LIMIT_MAIN = """
import sys
sys.setrecursionlimit(250)
from pathfold.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_recursive_nesting_depth_needs_no_interpreter_stack(tmp_path):
    # 120 nesting levels under a recursion limit of 250: a strategy that
    # recursed once or twice per level would raise RecursionError.
    model = tmp_path / "nested.dtmc"
    model.write_text(serialize(nested_cycle(120)))
    argv = ["check", str(model), "--goal", "122,123", "--method", "recursive"]
    child = subprocess.run(
        [sys.executable, "-c", _LOW_RECURSION_LIMIT_MAIN, *argv],
        capture_output=True,
        env=PACKAGE_ENV,
        text=True,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "122 1/3\n123 1/3\ntotal 2/3\n"


@st.composite
def nested_cycle_families(draw):
    """:func:`nested_cycle` with random weights, random extra back edges
    from the inner states and an optional leak in every row."""
    n = draw(st.integers(1, 9))
    weight = st.integers(1, 4)
    rows = {}
    for s in range(2, n + 1):
        back = draw(st.lists(st.integers(2, s), unique=True, max_size=2))
        rows[s] = {t: draw(weight) for t in [*back, s + 1]}
    rows[n + 1] = {t: draw(weight) for t in [*range(2, n + 1), n + 2, n + 3]}
    leak = draw(st.integers(0, 2))
    transitions = {(1, 2): 1, (n + 2, n + 2): 1, (n + 3, n + 3): 1}
    for s, weights in rows.items():
        total = sum(weights.values()) + leak
        transitions.update({(s, t): Fraction(w, total) for t, w in weights.items()})
    return Dtmc.from_transitions(n + 3, 1, transitions)


@settings(max_examples=150)
@given(nested_cycle_families())
def test_recursive_equals_direct_on_nested_cycle_families(d):
    goals = [d.n - 1, d.n]
    assert model_check(d, goals, "recursive") == model_check(d, goals, "direct")
    outer = frozenset(range(2, d.n - 1))
    assert abstract_recursive(d, outer) == path_abstract(d, outer)


def _sequence_cases():
    yield "worked example", me_dtmc(), [7, 8]
    yield "unentered cycle", _unentered_cycle(), [4]
    # the unentered cycle 4-5 leaks into the entered cycle 2-3 and precedes it
    yield "unentered before entered", Dtmc.from_transitions(6, 1, {
        (1, 2): "1/2", (1, 6): "1/2", (2, 3): 1, (3, 2): "1/2", (3, 6): "1/2",
        (4, 5): 1, (5, 4): "1/2", (5, 2): "1/2", (6, 6): 1,
    }), [6]
    for n in range(1, 7):
        yield f"nested cycle {n}", nested_cycle(n), [n + 2, n + 3]
    rng = random.Random(11)
    for i in range(30):
        d, goals = random_goal_model(rng, rng.randint(3, 9))
        yield f"goal model {i}", d, goals
    for kind, make in MODELS.items():
        for i in range(15):
            d = make(rng, rng.randint(2, 7))
            goals = [g for g in d.states() if g != d.init and d.prob(g, g) == 1]
            yield f"{kind} {i}", d, goals


@pytest.mark.parametrize("method", METHODS)
def test_each_method_collapses_its_reference_sequence(method, monkeypatch):
    subsets = record_collapses(monkeypatch)
    for name, d, goals in _sequence_cases():
        subsets.clear()
        model_check(d, goals, method)
        assert subsets == collapse_sequence(d, method), name


@pytest.mark.parametrize("method", METHODS)
def test_no_method_collapses_a_subset_twice_in_a_row(method, monkeypatch):
    # a second collapse of the subset just collapsed changes nothing
    subsets = record_collapses(monkeypatch)
    for name, d, goals in _sequence_cases():
        subsets.clear()
        model_check(d, goals, method)
        assert all(a != b for a, b in pairwise(subsets)), name


def _with_unentered_cycle(d: Dtmc, leak_to: int) -> Dtmc:
    """``d`` plus states ``n + 1`` and ``n + 2``, which swap with each other
    and leak into ``leak_to``; nothing enters them."""
    a, b = d.n + 1, d.n + 2
    half = Fraction(1, 2)
    transitions = {**entry_map(d), (a, b): 1, (b, a): half, (b, leak_to): half}
    return Dtmc.from_transitions(d.n + 2, d.init, transitions)


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 9), plant=st.booleans())
def test_recursive_collapse_takes_any_subset(kind, seed, n, plant):
    # empty subsets, subsets that split into several components and
    # subsets holding a cycle that nothing enters all collapse in the
    # reference order and land where one collapse does
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    if plant:
        d = _with_unentered_cycle(d, rng.randint(1, d.n))
    subset = random_subset(rng, d.states())
    with pytest.MonkeyPatch.context() as patch:
        subsets = record_collapses(patch)
        got = abstract_recursive(d, subset)
    assert subsets == collapse_sequence(d, "recursive", subset)
    assert got == path_abstract(d, subset)
