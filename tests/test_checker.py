"""Reachability queries, refinement runs and witness handling."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    K,
    MODELS,
    S1,
    S2,
    most_probable_path_by_prob,
    most_probable_path_fraction_keyed,
    random_goal_model,
    random_subset,
)
from oracle import local_reach_prob_bounded, minus_seq, path_prob
from pathfold.abstraction import path_abstract
from pathfold.checker import (
    METHODS,
    GoalNotAbsorbingError,
    InitIsGoalError,
    InvalidSequenceError,
    NotAPathError,
    concretize_witness,
    model_check,
    most_probable_path,
    refine,
)
from pathfold.core import Dtmc, non_absorbing

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import families  # noqa: E402

REFINEMENT_SET = frozenset({1, 2, 3, 4})


# --- model checking --------------------------------------------------------


def test_model_check_single_goal(me):
    result = model_check(me, {7})
    assert result.per_goal == {7: Fraction(5, 9)}
    assert result.total == Fraction(5, 9)


def test_model_check_two_goals_total_one(me):
    result = model_check(me, {7, 8})
    assert result.per_goal == {7: Fraction(5, 9), 8: Fraction(4, 9)}
    assert result.total == 1


def test_model_check_unreachable_goal():
    d = Dtmc.from_transitions(3, 1, {(1, 2): 1, (2, 2): 1, (3, 3): 1})
    assert model_check(d, {3}).per_goal == {3: Fraction(0)}


def test_model_check_rejects_non_absorbing_goal(me):
    # 3 and 4 keep less than their full mass on the diagonal; the error
    # names the smallest such goal, wherever the caller lists it
    for goals, named in [({3}, 3), ([7, 4], 4), ([8, 4, 3], 3), ([4, 7, 3], 3)]:
        with pytest.raises(GoalNotAbsorbingError, match=rf"^goal {named} is not"):
            model_check(me, goals)


def test_model_check_rejects_goal_equal_to_init():
    d = Dtmc.from_transitions(2, 1, {(1, 1): 1, (2, 2): 1})
    with pytest.raises(InitIsGoalError):
        model_check(d, {1})


def test_model_check_rejects_unknown_method(me):
    with pytest.raises(ValueError):
        model_check(me, {7}, method="magic")


def test_methods_agree_exactly(me):
    results = [model_check(me, {7, 8}, m) for m in METHODS]
    assert results[0] == results[1] == results[2]


def test_methods_agree_on_random_models():
    rng = random.Random(97)
    for _ in range(30):
        d, goals = random_goal_model(rng, rng.randint(3, 8))
        results = [model_check(d, goals, m) for m in METHODS]
        assert results[0] == results[1] == results[2]
        assert results[0].total <= 1


def test_totality_when_goals_always_reachable():
    rng = random.Random(101)
    for _ in range(30):
        d, goals = random_goal_model(rng, rng.randint(3, 8))
        # every transient row carries a direct goal edge by construction
        assert model_check(d, goals).total == 1


def test_truncated_sums_approach_model_check_answer():
    rng = random.Random(103)
    for _ in range(15):
        d, goals = random_goal_model(rng, rng.randint(3, 6), fast=True)
        k = non_absorbing(d)
        answer = model_check(d, goals).total
        previous = Fraction(0)
        for hops in (4, 16, 64):
            truncated = sum(
                (local_reach_prob_bounded(d, d.init, k, g, hops) for g in goals),
                Fraction(0),
            )
            assert previous <= truncated <= answer
            previous = truncated
        assert answer - previous <= Fraction(1, 2**64)


# --- witness search ---------------------------------------------------------


def test_best_path_is_direct_edge_after_collapse(me):
    collapsed = path_abstract(me, REFINEMENT_SET)
    path, prob = most_probable_path(collapsed, 1, 7)
    assert path == (1, 7)
    assert prob == Fraction(13, 27)


def test_best_path_worked_example(me):
    path, prob = most_probable_path(me, 1, 7)
    assert path == (1, 2, 3, 4, 7)
    assert prob == Fraction(5, 54)


def test_best_path_unreachable_pair():
    d = Dtmc.from_transitions(2, 1, {(1, 1): 1, (2, 2): 1})
    assert most_probable_path(d, 1, 2) == ((), Fraction(0))


def test_best_path_same_endpoints_is_trivial(me):
    assert most_probable_path(me, 3, 3) == ((3,), Fraction(1))
    assert most_probable_path(me, 3, 3, within=set()) == ((3,), Fraction(1))


def test_best_path_within_stays_inside_the_given_states(me):
    assert most_probable_path(me, 1, 7, within={2, 3, 4}) == (
        (1, 2, 3, 4, 7),
        Fraction(5, 54),
    )
    assert most_probable_path(me, 1, 7, within={3, 4, 5, 6}) == (
        (1, 3, 4, 7),
        Fraction(1, 36),
    )
    assert most_probable_path(me, 1, 7, within={2, 5, 6}) == ((), Fraction(0))
    assert most_probable_path(me, 1, 7, within=set()) == ((), Fraction(0))


def test_best_path_within_rejects_out_of_range_states(me):
    # also when the search would end at its first pop
    for src, dst in [(1, 7), (3, 3)]:
        for within in ({0}, {2, 9}):
            with pytest.raises(ValueError, match=r"^state (0|9) out of range 1\.\.8$"):
                most_probable_path(me, src, dst, within=within)


def test_best_path_rejects_out_of_range_endpoints(me):
    for src, dst in [(0, 7), (9, 7), (1, 0), (1, 9)]:
        with pytest.raises(ValueError, match="out of range"):
            most_probable_path(me, src, dst)


def test_best_path_dominates_random_paths(me):
    rng = random.Random(107)
    _, best = most_probable_path(me, 1, 7)
    for _ in range(200):
        walk = [1]
        while walk[-1] != 7 and len(walk) < 12:
            nxt = [t for t in me.states() if me.prob(walk[-1], t) > 0]
            walk.append(rng.choice(nxt))
        if walk[-1] == 7:
            assert path_prob(me, tuple(walk)) <= best


@st.composite
def halves_and_quarters(draw):
    """Chains of at most 7 states whose every entry is 1/2 or 1/4, so that
    many paths tie."""
    n = draw(st.integers(2, 7))
    transitions = {}
    for s in range(1, n + 1):
        room = Fraction(1)
        targets = st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True)
        for t in draw(targets):
            p = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2)]))
            if p <= room:
                transitions[s, t] = p
                room -= p
    return Dtmc.from_transitions(n, 1, transitions)


@settings(max_examples=200)
@given(d=halves_and_quarters(), within=st.sets(st.integers(1, 7)))
def test_best_path_breaks_exact_ties_like_the_exhaustive_search(d, within):
    within = {s for s in within if s <= d.n}
    for src in d.states():
        for dst in d.states():
            assert most_probable_path(d, src, dst) == most_probable_path_by_prob(
                d, src, dst
            )
            assert most_probable_path(
                d, src, dst, within=within
            ) == most_probable_path_by_prob(d, src, dst, within=within)


def _agrees_with_the_fraction_keyed_search(rng, d, pairs):
    for src, dst in pairs:
        for within in (None, random_subset(rng, d.states())):
            assert most_probable_path(
                d, src, dst, within=within
            ) == most_probable_path_fraction_keyed(d, src, dst, within=within), (
                src,
                dst,
                within,
            )


def test_best_path_equals_the_fraction_keyed_search_on_ladder_steps():
    case = families.ladder(1, 0, 12)
    d = Dtmc.from_transitions(case.n, case.init, case.entries)
    goal = case.params["goal"]
    size = families.LADDER_BLOCK
    blocks = [range(size * b + 1, size * b + size + 1) for b in range(12)]
    trace = refine(d, goal, 1, blocks).trace
    assert len(trace) == 12
    rng = random.Random(113)
    for chain in (d, *(step.chain for step in trace)):
        pairs = [(d.init, goal)]
        pairs += [(rng.randint(1, d.n), rng.randint(1, d.n)) for _ in range(30)]
        _agrees_with_the_fraction_keyed_search(rng, chain, pairs)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 30))
def test_best_path_equals_the_fraction_keyed_search_on_goal_models(seed, n):
    rng = random.Random(seed)
    d, goals = random_goal_model(rng, n)
    pairs = [(d.init, g) for g in goals]
    pairs += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(10)]
    _agrees_with_the_fraction_keyed_search(rng, d, pairs)


# --- refinement --------------------------------------------------------------


def test_refine_flags_first_step(me):
    report = refine(me, 7, Fraction(4, 9), [REFINEMENT_SET])
    assert report.violated
    assert report.witness_path == (1, 7)
    assert report.witness_prob == Fraction(13, 27)
    assert len(report.trace) == 1


def test_refine_threshold_one_never_fires(me):
    report = refine(me, 7, Fraction(1), [REFINEMENT_SET, K])
    assert not report.violated
    assert report.witness_prob == Fraction(5, 9)
    assert report.witness_path == (1, 7)
    assert len(report.trace) - 1 == 1


def test_refine_three_step_sequence(me):
    report = refine(me, 7, Fraction(4, 9), [S1, S2, K])
    assert report.violated
    assert len(report.trace) - 1 == 2
    assert report.witness_prob == Fraction(5, 9)
    # one step earlier the best witness ties the threshold, which is no
    # violation under a strict comparison
    assert report.trace[1].witness_prob == Fraction(4, 9)
    assert report.trace[0].witness_prob == Fraction(1, 9)


def test_refine_reports_exact_probability_when_sequence_ends_at_k(me):
    report = refine(me, 7, Fraction(2, 3), [S1, S2, K])
    assert not report.violated
    assert report.witness_prob == model_check(me, {7}).total


def test_refine_rejects_absorbing_states_in_sequence(me):
    with pytest.raises(InvalidSequenceError):
        refine(me, 7, Fraction(1, 2), [frozenset({2, 7})])


def test_refine_rejects_out_of_range_sequence(me):
    with pytest.raises(InvalidSequenceError):
        refine(me, 7, Fraction(1, 2), [frozenset({2, 99})])


def test_refine_rejects_out_of_range_target_naming_the_state(me):
    for target in (0, 9):
        with pytest.raises(ValueError, match=rf"^state {target} out of range 1\.\.8$"):
            refine(me, target, Fraction(1, 2), [S1])


def test_refine_rejects_non_absorbing_target(me):
    with pytest.raises(GoalNotAbsorbingError):
        refine(me, 3, Fraction(1, 2), [S1])


def _rejected_as_not_absorbing(call) -> bool:
    try:
        call()
    except GoalNotAbsorbingError:
        return True
    return False


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_refine_and_model_check_share_one_absorption_test(kind):
    # a target is rejected exactly when the same state as a goal would be
    rng = random.Random(61)
    seen = set()
    for _ in range(80):
        d = MODELS[kind](rng, rng.randint(2, 5))
        for t in d.states():
            if t != d.init:
                rejected = _rejected_as_not_absorbing(lambda: refine(d, t, 0, []))
                assert rejected == _rejected_as_not_absorbing(
                    lambda: model_check(d, {t})
                )
                seen.add(rejected)
    assert seen == {True, False}


def test_refine_rejects_threshold_outside_zero_to_one():
    # the target is unreachable, so every witness has probability 0
    # and a negative threshold would otherwise report a violation
    d = Dtmc.from_transitions(2, 1, {(1, 1): Fraction(1, 2), (2, 2): 1})
    for threshold in [Fraction(-1, 5), Fraction(3, 2)]:
        with pytest.raises(ValueError, match="threshold"):
            refine(d, 2, threshold, [{1}])


def test_refine_rejects_binary_float_threshold():
    # the witness 1,2 has probability exactly 3/10, which exceeds the binary
    # 0.3 (just below 3/10) but not 3/10; a subclass of float is caught too
    d = Dtmc.from_transitions(
        3, 1, {(1, 2): "3/10", (1, 3): "7/10", (2, 2): 1, (3, 3): 1}
    )
    for threshold in [0.3, type("F", (float,), {})(0.3)]:
        with pytest.raises(TypeError, match=r"threshold 0\.3 is a binary float"):
            refine(d, 2, threshold, [{1}])
    assert not refine(d, 2, "3/10", [{1}]).violated


def test_refine_empty_sequence_reports_plain_witness(me):
    report = refine(me, 7, Fraction(1, 100), [])
    assert report.violated
    assert report.trace == ()
    assert report.witness_prob == Fraction(5, 54)


def test_refine_trace_records_shrinking_chains(me):
    report = refine(me, 7, Fraction(1), [S1, S2, K])
    counts = [step.chain.transition_count() for step in report.trace]
    assert counts == sorted(counts, reverse=True)
    assert [step.subset for step in report.trace] == [
        (2, 5, 6),
        (3, 4),
        (1, 2, 3, 4, 5, 6),
    ]


def _witnesses_match_a_fresh_search_and_never_fall(d, target, seq):
    # threshold 1 never fires, so every step of seq is taken
    _, best = most_probable_path(d, d.init, target)
    for step in refine(d, target, 1, seq).trace:
        found = (step.witness_path or (), step.witness_prob)
        assert found == most_probable_path(step.chain, d.init, target)
        assert step.witness_prob >= best
        best = step.witness_prob


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(3, 12))
def test_refine_witnesses_grow_along_the_sequence_on_goal_models(seed, n):
    rng = random.Random(seed)
    d, goals = random_goal_model(rng, n)
    moving = non_absorbing(d)
    seq = [random_subset(rng, moving) for _ in range(rng.randint(1, 4))]
    _witnesses_match_a_fresh_search_and_never_fall(d, rng.choice(goals), seq)


@settings(max_examples=100)
@given(
    d=halves_and_quarters(),
    seq=st.lists(st.sets(st.integers(1, 7)), min_size=1, max_size=4),
)
def test_refine_witnesses_grow_along_the_sequence_when_paths_tie(d, seq):
    # the mass a row leaves unassigned goes to an absorbing target n + 1
    target = d.n + 1
    transitions = {(s, t): p for s, t, p in d.transitions()}
    for s in d.states():
        if (rest := 1 - sum(d.rows[s - 1])) > 0:
            transitions[s, target] = rest
    transitions[target, target] = 1
    tied = Dtmc.from_transitions(target, d.init, transitions)
    seq = [{s for s in subset if s <= d.n} for subset in seq]
    _witnesses_match_a_fresh_search_and_never_fall(tied, target, seq)


# --- witness concretization ---------------------------------------------------


def _steps(d, seq):
    """The recorded steps of a refinement run through all of ``seq``."""
    return refine(d, 7, Fraction(1), seq).trace


def test_concretize_expands_through_collapsed_block(me):
    steps = _steps(me, [REFINEMENT_SET])
    assert concretize_witness(me, steps, (1, 7)) == (1, 2, 3, 4, 7)


def test_concretize_without_steps_returns_path(me):
    assert concretize_witness(me, (), (1, 2, 3)) == (1, 2, 3)


def test_concretize_prefers_direct_edge(me):
    assert concretize_witness(me, _steps(me, [S1]), (2, 3)) == (2, 3)


def test_concretize_rejects_non_path(me):
    with pytest.raises(NotAPathError):
        concretize_witness(me, _steps(me, [REFINEMENT_SET]), (1, 4, 7))
    with pytest.raises(NotAPathError):
        concretize_witness(me, (), ())
    with pytest.raises(NotAPathError):
        concretize_witness(me, (), (1, 99))
    # a one-letter word has no step, so only the range check rejects these
    for word in [(99,), (0,)]:
        with pytest.raises(NotAPathError):
            concretize_witness(me, (), word)
    # (1, 2, 3) is a path of the chain recorded for S1, but steps recorded
    # on `me` do not expand in a chain where every state only loops
    loops = Dtmc.from_transitions(8, 1, {(s, s): 1 for s in range(1, 9)})
    with pytest.raises(NotAPathError, match="no route from 2 to 3"):
        concretize_witness(loops, _steps(me, [S1]), (1, 2, 3))


def test_concretize_collapses_back_and_is_sound():
    rng = random.Random(109)
    for _ in range(30):
        d, goals = random_goal_model(rng, rng.randint(4, 7))
        target = goals[0]
        k = non_absorbing(d)
        seq = [random_subset(rng, k) for _ in range(rng.randint(1, 3))]
        report = refine(d, target, Fraction(1), seq)
        assert not report.violated
        if report.witness_path is None:
            continue
        upto = len(report.trace)
        concrete = concretize_witness(d, report.trace, report.witness_path)
        assert path_prob(d, concrete) > 0
        assert minus_seq(concrete, seq[:upto]) == report.witness_path
        assert concrete[0] == d.init and concrete[-1] == target
        assert path_prob(d, concrete) <= model_check(d, [target]).total


def test_violated_witness_concretizes_into_original(me):
    report = refine(me, 7, Fraction(4, 9), [REFINEMENT_SET])
    concrete = concretize_witness(me, report.trace, report.witness_path)
    assert concrete == (1, 2, 3, 4, 7)
    assert path_prob(me, concrete) <= model_check(me, {7}).total
