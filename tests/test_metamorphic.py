"""Metamorphic relations: renumbering the states of a chain, its initial
state included, renumbers every result and changes no probability; a fold
along any sequence of subsets that ends in ``k`` lands where the one
collapse of ``k`` does; appending a chain that nothing reaches changes no
value, and a collapse on the union is the collapse on each part; and
routing one edge through a fresh state changes no reachability value.
The relations need no oracle, so they run on chains of any size, and they
catch what a small oracle misses: a special case for one state number, a
tie-break that leaks into a value, or a step that goes wrong only after
many others.  Every chain a refinement step or a prune produces also
survives a round trip through the text format."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS, entry_map, nested_cycle, random_goal_model, random_subset
from pathfold.abstraction import path_abstract, path_abstract_seq, prune_isolated
from pathfold.checker import METHODS, model_check, most_probable_path, refine
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", ["ladder 40", "random 120"])
def test_relabelling_benchmark_chains(family, seed):
    # both families keep their two goals in the last two states
    d = _bench_chain(family)
    _assert_relabelling_commutes(random.Random(seed), d, [d.n - 1, d.n])


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


def _goal_model(rng: random.Random, kind: str, n: int) -> tuple[Dtmc, list[int]]:
    """A chain of ``n`` states with absorbing goals: ``random_goal_model``'s,
    or a ``MODELS`` chain with two states other than its initial one made
    absorbing."""
    if kind == "goal":
        return random_goal_model(rng, n)
    chain = MODELS[kind](rng, n)
    goals = sorted(rng.sample([s for s in chain.states() if s != chain.init], 2))
    entries = {(s, t): p for s, t, p in chain.transitions() if s not in goals}
    entries.update({(g, g): 1 for g in goals})
    return Dtmc.from_transitions(n, chain.init, entries), goals


def _ladder(seed: int) -> tuple[Dtmc, list[int]]:
    case = families.ladder(seed, 0, 12)
    d = Dtmc.from_transitions(case.n, case.init, case.entries)
    return d, [case.params["fail"], case.params["goal"]]


def _union(d: Dtmc, e: Dtmc) -> Dtmc:
    """``d`` with ``e`` appended as states ``d.n + 1 ..``, which nothing in
    ``d`` reaches; the initial state is ``d``'s."""
    n = d.n
    entries = entry_map(d)
    entries.update({(s + n, t + n): p for s, t, p in e.transitions()})
    return Dtmc.from_transitions(n + e.n, d.init, entries)


def _assert_disjoint_union_changes_nothing(
    rng: random.Random, d: Dtmc, goals, e: Dtmc
) -> None:
    """On ``d`` with ``e`` appended, every reachability value, every
    refinement step's witness and a collapse of a subset of each part are
    what they are on the parts."""
    union = _union(d, e)
    expected = model_check(d, goals).per_goal
    for method in METHODS:
        assert model_check(union, goals, method).per_goal == expected
    # the union's initial state is d's: a collapse would keep e's own as
    # an entry, so it stays out of e's subset
    mine = random_subset(rng, d.states())
    theirs = random_subset(rng, [s for s in e.states() if s != e.init])
    collapsed = path_abstract(union, mine | {s + d.n for s in theirs})
    parts = _union(path_abstract(d, mine), path_abstract(e, theirs))
    assert collapsed == parts and collapsed.succ == parts.succ
    k = sorted(non_absorbing(d))
    steps = [random_subset(rng, k) for _ in range(rng.randint(1, 4))]
    target = rng.choice(goals)
    threshold = Fraction(rng.randint(0, 8), 8)
    assert _witnesses(refine(union, target, threshold, steps)) == _witnesses(
        refine(d, target, threshold, steps)
    )


def _witnesses(report) -> tuple:
    """What a refinement reports, less the chains of its steps."""
    steps = [(step.witness_path, step.witness_prob) for step in report.trace]
    return report.violated, report.witness_path, report.witness_prob, steps


@pytest.mark.parametrize("kind", [*sorted(MODELS), "goal"])
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 10), m=st.integers(1, 8))
def test_an_unreached_chain_changes_no_value_and_no_collapse(kind, seed, n, m):
    rng = random.Random(seed)
    d, goals = _goal_model(rng, kind, n)
    e = MODELS[rng.choice(sorted(MODELS))](rng, m)
    _assert_disjoint_union_changes_nothing(rng, d, goals, e)


def test_an_unreached_ladder_changes_no_value_and_no_collapse():
    d, goals = _ladder(5)
    e, _ = _ladder(6)
    _assert_disjoint_union_changes_nothing(random.Random(0), d, goals, e)


def _assert_subdivision_changes_nothing(rng: random.Random, d: Dtmc, goals) -> None:
    """Routing one edge ``s -> t`` of a state that is not absorbing through
    a fresh state ``u``, as ``s -> u`` with the edge's probability and
    ``u -> t`` with 1, changes no reachability value and no best path's
    probability."""
    k = non_absorbing(d)
    edges = [(s, t) for s, t, _ in d.transitions() if s in k]
    if not edges:
        return
    s, t = rng.choice(edges)
    u = d.n + 1
    entries = entry_map(d)
    entries.update({(s, u): entries.pop((s, t)), (u, t): 1})
    routed = Dtmc.from_transitions(u, d.init, entries)
    expected = model_check(d, goals).per_goal
    for method in METHODS:
        assert model_check(routed, goals, method).per_goal == expected
    # u numbers last, so a tie may now break to another path: only the
    # probabilities are compared
    for g in goals:
        _, p = most_probable_path(d, d.init, g)
        assert most_probable_path(routed, d.init, g)[1] == p


@pytest.mark.parametrize("kind", [*sorted(MODELS), "goal"])
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 12))
def test_routing_an_edge_through_a_fresh_state_changes_no_value(kind, seed, n):
    rng = random.Random(seed)
    _assert_subdivision_changes_nothing(rng, *_goal_model(rng, kind, n))


def test_routing_a_ladder_edge_through_a_fresh_state_changes_no_value():
    d, goals = _ladder(5)
    rng = random.Random(0)
    for _ in range(4):
        _assert_subdivision_changes_nothing(rng, d, goals)
