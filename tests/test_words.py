"""Collapse laws on words and the explicit path-probability oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import S1, random_substochastic, random_subset
from oracle import (
    EmptyWordError,
    finite_set_prob,
    is_prefix,
    local_reach_prob_bounded,
    minimal_prefixes,
    minus,
    minus_seq,
    path_prob,
    preimage_min_bounded,
    splice,
)
from pathfold.abstraction import path_abstract

LATIN = {c: i for i, c in enumerate("abcdefghijklmnopqrstuvwxyz", start=1)}


def w(text: str) -> tuple[int, ...]:
    return tuple(LATIN[c] for c in text)


BREAK = frozenset(w("break"))


# --- collapsing ---------------------------------------------------------


def test_collapse_error_to_eor():
    assert minus(w("error"), BREAK) == w("eor")


def test_collapse_spacebar_to_space():
    assert minus(w("spacebar"), BREAK) == w("space")


def test_collapse_with_empty_subset_is_identity():
    assert minus(w("coffee"), frozenset()) == w("coffee")


def test_collapse_empty_word():
    assert minus((), BREAK) == ()


def test_collapse_chain_two_subsets():
    assert minus_seq(w("error"), [frozenset(w("e")), BREAK]) == w("eor")


def test_collapse_chain_empty_sequence():
    assert minus_seq(w("error"), []) == w("error")


# --- minimal prefixes and splicing --------------------------------------


def test_minimal_prefixes_drops_extensions():
    assert minimal_prefixes({(1, 2), (1,)}) == {(1,)}


def test_minimal_prefixes_singleton():
    assert minimal_prefixes({(3, 1)}) == {(3, 1)}


def test_minimal_prefixes_empty():
    assert minimal_prefixes(set()) == set()


def test_minimal_prefixes_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        pool = {
            tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 8))
        }
        once = minimal_prefixes(pool)
        assert minimal_prefixes(once) == once


def test_splice_joins_on_shared_letter():
    assert splice((1, 2, 3), (3, 4)) == (1, 2, 3, 4)


def test_splice_requires_junction():
    with pytest.raises(ValueError):
        splice((1, 2), (3, 4))
    with pytest.raises(ValueError):
        splice((), (1,))


# --- bounded preimages ---------------------------------------------------


def test_preimage_of_coffee_is_empty():
    assert preimage_min_bounded(w("coffee"), BREAK, 12) == set()


def test_preimage_of_eor_contains_error():
    assert w("error") in preimage_min_bounded(w("eor"), BREAK, 5)


def test_preimage_with_empty_subset_is_the_word_itself():
    assert preimage_min_bounded(w("eor"), frozenset(), 3) == {w("eor")}


def test_preimage_bound_below_word_length_is_empty():
    assert preimage_min_bounded(w("eor"), BREAK, 2) == set()


def _brute_preimage_min(word, subset, n, bound):
    pool = [
        y
        for length in range(bound + 1)
        for y in product(range(1, n + 1), repeat=length)
        if minus(y, subset) == word
    ]
    return minimal_prefixes(pool)


def test_preimage_matches_brute_force_enumeration():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
        subset = random_subset(rng, range(1, n + 1))
        bound = len(word) + rng.randint(0, 2)
        assert preimage_min_bounded(word, subset, bound) == _brute_preimage_min(
            word, subset, n, bound
        )


# --- probabilities -------------------------------------------------------


def test_path_prob_examples(me):
    assert path_prob(me, (2, 5)) == Fraction(1, 3)
    assert path_prob(me, (2, 2)) == 0
    assert path_prob(me, (4,)) == 1


def test_path_prob_rejects_empty_word(me):
    with pytest.raises(EmptyWordError):
        path_prob(me, ())


def test_path_prob_rejects_out_of_range_letters(me):
    with pytest.raises(ValueError):
        path_prob(me, (1, 9))


def test_finite_set_prob_single_word(me):
    assert finite_set_prob(me, {(2, 5, 6, 2)}) == Fraction(1, 12)


def test_finite_set_prob_empty_set(me):
    assert finite_set_prob(me, set()) == 0


def test_finite_set_prob_keeps_only_minimal_prefixes(me):
    assert finite_set_prob(me, {(2, 5), (2, 5, 6)}) == Fraction(1, 3)


def test_finite_set_prob_bounded_by_one():
    rng = random.Random(31)
    for _ in range(100):
        d = random_substochastic(rng, rng.randint(2, 5))
        start = rng.randint(1, d.n)
        words = {
            (start, *(rng.randint(1, d.n) for _ in range(rng.randint(0, 5))))
            for _ in range(rng.randint(1, 10))
        }
        assert finite_set_prob(d, words) <= 1


def test_finite_set_prob_monotone_under_inclusion():
    rng = random.Random(37)
    for _ in range(100):
        d = random_substochastic(rng, rng.randint(2, 5))
        big = {
            tuple(rng.randint(1, d.n) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 10))
        }
        small = {x for x in big if rng.random() < 0.5}
        assert finite_set_prob(d, small) <= finite_set_prob(d, big)


def test_truncated_reach_examples(me):
    assert local_reach_prob_bounded(me, 2, S1, 3, 0) == Fraction(2, 3)
    # enumerating by hand: the only extra path within three interior hops
    # is 2-5-6-2-3 with mass 1/18
    assert local_reach_prob_bounded(me, 2, S1, 3, 3) == Fraction(13, 18)
    assert local_reach_prob_bounded(me, 2, S1, 3, 5) == Fraction(3, 4)


def test_truncated_reach_is_monotone_and_bounded(me):
    exact = path_abstract(me, S1).prob(2, 3)
    assert exact == Fraction(4, 5)
    previous = Fraction(0)
    for hops in range(0, 40, 4):
        value = local_reach_prob_bounded(me, 2, S1, 3, hops)
        assert previous <= value <= exact
        previous = value
    assert exact - previous < Fraction(1, 10**4)


def test_truncated_reach_rejects_target_inside(me):
    with pytest.raises(ValueError):
        local_reach_prob_bounded(me, 2, S1, 5, 3)


# --- randomized law checks (the acceptance suite runs larger batches) ----


@st.composite
def word_and_subset(draw):
    n = draw(st.integers(1, 6))
    word = tuple(draw(st.lists(st.integers(1, n), max_size=10)))
    subset = frozenset(draw(st.sets(st.integers(1, n), max_size=n)))
    return n, word, subset


@given(word_and_subset(), st.data())
@settings(max_examples=200)
def test_collapse_preserves_prefix_order(case, data):
    _, word, subset = case
    cut = data.draw(st.integers(0, len(word)))
    assert is_prefix(minus(word[:cut], subset), minus(word, subset))


@given(word_and_subset(), st.data())
@settings(max_examples=200)
def test_collapse_splits_at_fresh_junctions(case, data):
    n, word, subset = case
    junction = data.draw(st.integers(1, n))
    tail = tuple(data.draw(st.lists(st.integers(1, n), max_size=8)))
    assume(not (word and word[-1] in subset and junction in subset))
    left = word + (junction,)
    assert minus(left + tail, subset) == splice(
        minus(left, subset), minus((junction, *tail), subset)
    )


@given(word_and_subset(), st.data())
@settings(max_examples=200)
def test_collapse_by_subset_then_superset_equals_superset(case, data):
    n, word, big = case
    small = frozenset(data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big)))) if big else frozenset()
    assert minus_seq(word, [small, big]) == minus(word, big)
