"""Metamorphic relations: renumbering the states of a chain, its initial
state included, renumbers every result and changes no probability; and a
fold along any sequence of subsets that ends in ``k`` lands where the one
collapse of ``k`` does.  The relations need no oracle, so they run on
chains of any size, and they catch what a small oracle misses: a special
case for one state number, a tie-break that leaks into a value, or a step
that goes wrong only after many others.  Every chain a refinement step or a
prune produces also survives a round trip through the text format."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS, entry_map, nested_cycle, random_goal_model, random_subset
from pathfold.abstraction import path_abstract, path_abstract_seq, prune_isolated
from pathfold.checker import METHODS, model_check, refine
from pathfold.cli import parse, serialize
from pathfold.core import Dtmc, non_absorbing
from pathfold.scc import sccs

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import families  # noqa: E402


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


def _bench_chain(family: str) -> Dtmc:
    if family == "nested cycle 150":
        return nested_cycle(150)
    case = (
        families.ladder(5, 0, 40)
        if family == "ladder 40"
        else families.random_chain(5, 0, 120)
    )
    return Dtmc.from_transitions(case.n, case.init, case.entries)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["ladder 40", "random 120", "nested cycle 150"])
def test_any_sequence_ending_in_k_lands_on_the_collapse_of_k(family, seed):
    # PAPER.md's theorem at the benchmark's scale: runs of neighbouring
    # states and scattered samples of ``k``, some repeated and most
    # overlapping, then ``k`` itself
    d = _bench_chain(family)
    k = non_absorbing(d)
    rng = random.Random(seed)
    pool = sorted(k)
    subsets = []
    for _ in range(16):
        roll = rng.random()
        if subsets and roll < 0.2:
            subsets.append(subsets[-1])
        elif roll < 0.6:
            start = rng.randrange(len(pool))
            subsets.append(frozenset(pool[start : start + rng.randint(1, 40)]))
        else:
            subsets.append(frozenset(rng.sample(pool, rng.randint(0, 12))))
    direct = path_abstract(d, k)
    folded = path_abstract_seq(d, [*subsets, k])
    assert folded == direct and folded.succ == direct.succ


def _assert_refinement_chains_round_trip(d: Dtmc, target: int, steps) -> None:
    """Each chain of ``refine``'s trace, and its prune, reads back from its
    text form equal and with the same support lists; at threshold 1 no step
    is a violation, so the trace holds a chain for every step."""
    for step in refine(d, target, 1, steps).trace:
        for chain in (step.chain, prune_isolated(step.chain)[0]):
            again = parse(serialize(chain))
            assert again == chain and again.succ == chain.succ


@pytest.mark.parametrize("kind", [*sorted(MODELS), "goal"])
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 12))
def test_refinement_chains_round_trip_through_the_text_format(kind, seed, n):
    rng = random.Random(seed)
    if kind == "goal":
        d, goals = random_goal_model(rng, n)
        target = rng.choice(goals)
    else:
        # refine needs an absorbing target; one that nothing reaches
        # changes no collapse of the chain's own states
        chain = MODELS[kind](rng, n)
        target = n + 1
        entries = {**entry_map(chain), (target, target): 1}
        d = Dtmc.from_transitions(target, chain.init, entries)
    k = sorted(non_absorbing(d))
    steps = [random_subset(rng, k) for _ in range(rng.randint(1, 4))]
    _assert_refinement_chains_round_trip(d, target, steps)


def test_ladder_refinement_chains_round_trip_through_the_text_format():
    # a refine-ladder case's sequence, block by block, then ``k``
    case = families.ladder(5, 0, 12)
    d = Dtmc.from_transitions(case.n, case.init, case.entries)
    size = families.LADDER_BLOCK
    blocks = [
        range(b * size + 1, (b + 1) * size + 1) for b in range(case.params["blocks"])
    ]
    steps = [*blocks, non_absorbing(d)]
    _assert_refinement_chains_round_trip(d, case.params["goal"], steps)
