"""Metamorphic relations: renumbering the states of a chain, its initial
state included, renumbers every result and changes no probability.  The
relations need no oracle, so they run on chains of any size, and they
catch what a small oracle misses: a special case for one state number, or
a tie-break that leaks into a value."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS, nested_cycle, random_goal_model, random_subset
from pathfold.abstraction import path_abstract, prune_isolated
from pathfold.checker import METHODS, model_check, refine
from pathfold.core import Dtmc, non_absorbing
from pathfold.scc import sccs


def _permutation(rng: random.Random, d: Dtmc) -> dict[int, int]:
    """A random renumbering of ``d``'s states that moves the initial state
    whenever there is another state to move it to."""
    images = list(d.states())
    rng.shuffle(images)
    i = d.init - 1
    if d.n > 1 and images[i] == d.init:
        j = (i + 1) % d.n
        images[i], images[j] = images[j], images[i]
    return dict(zip(d.states(), images))


def _relabel(d: Dtmc, pi: dict[int, int]) -> Dtmc:
    """``π·d``: state ``s`` of ``d`` is state ``pi[s]`` of the result."""
    entries = {(pi[s], pi[t]): p for s, t, p in d.transitions()}
    return Dtmc.from_transitions(d.n, pi[d.init], entries)


def _image(pi: dict[int, int], states) -> frozenset[int]:
    return frozenset(pi[s] for s in states)


def _assert_relabelling_commutes(rng: random.Random, d: Dtmc, goals=()) -> None:
    """Each layer run on ``π·d`` gives ``π`` of its result on ``d``; with
    ``goals``, which are absorbing, also the reachability values and the
    witness probabilities of a refinement."""
    pi = _permutation(rng, d)
    moved = _relabel(d, pi)
    subset = random_subset(rng, d.states())
    collapsed = path_abstract(d, subset)
    moved_collapsed = path_abstract(moved, _image(pi, subset))
    expected = _relabel(collapsed, pi)
    assert moved_collapsed == expected and moved_collapsed.succ == expected.succ
    assert set(sccs(moved, _image(pi, subset))) == {
        _image(pi, comp) for comp in sccs(d, subset)
    }
    # the collapse leaves isolated states behind for the prune to drop
    pruned, mapping = prune_isolated(collapsed)
    moved_pruned, moved_mapping = prune_isolated(moved_collapsed)
    assert set(moved_mapping) == _image(pi, mapping)
    expected = _relabel(pruned, {mapping[s]: moved_mapping[pi[s]] for s in mapping})
    assert moved_pruned == expected and moved_pruned.succ == expected.succ
    if not goals:
        return
    for method in METHODS:
        values = model_check(d, goals, method).per_goal
        assert model_check(moved, _image(pi, goals), method).per_goal == {
            pi[g]: p for g, p in values.items()
        }
    # the witness paths break ties by state number, so only their
    # probabilities are compared
    k = sorted(non_absorbing(d))
    steps = [random_subset(rng, k) for _ in range(rng.randint(0, 4))]
    target = rng.choice(sorted(goals))
    threshold = Fraction(rng.randint(0, 8), 8)
    report = refine(d, target, threshold, steps)
    moved_report = refine(
        moved, pi[target], threshold, [_image(pi, step) for step in steps]
    )
    assert moved_report.violated == report.violated
    assert moved_report.witness_prob == report.witness_prob
    assert [step.witness_prob for step in moved_report.trace] == [
        step.witness_prob for step in report.trace
    ]


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12))
def test_relabelling_commutes_with_collapse_components_and_prune(kind, seed, n):
    rng = random.Random(seed)
    _assert_relabelling_commutes(rng, MODELS[kind](rng, n))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 12), fast=st.booleans())
def test_relabelling_keeps_reachability_and_witness_probabilities(seed, n, fast):
    rng = random.Random(seed)
    d, goals = random_goal_model(rng, n, fast=fast)
    _assert_relabelling_commutes(rng, d, goals)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32), depth=st.integers(1, 37))
def test_relabelling_nested_cycles(seed, depth):
    # up to 40 states, each of the chain's components nesting the next
    _assert_relabelling_commutes(
        random.Random(seed), nested_cycle(depth), [depth + 2, depth + 3]
    )
