"""The in-place fold behind every collapse, step by step: what each step
reads off its predecessor index must be what a fresh look at the chain
it works on gives, the index must stay the inverse of the successor
lists, and the fold must land where chained one-subset collapses do."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS, frontier_by_prob, random_goal_model, random_subset
from pathfold.abstraction import (
    FrontierSets,
    _Fold,
    frontier,
    path_abstract,
    path_abstract_seq,
)
from pathfold.core import Dtmc


def _inverted(succ) -> list[set[int]]:
    pred = [set() for _ in succ]
    for s, targets in enumerate(succ, 1):
        for t in targets:
            pred[t - 1].add(s)
    return pred


def _chain(rng: random.Random, kind: str, n: int) -> Dtmc:
    if kind == "goal":
        return random_goal_model(rng, max(n, 3))[0]
    return MODELS[kind](rng, n)


def _subsets(rng: random.Random, d: Dtmc) -> list[frozenset[int]]:
    """Up to five subsets, empty ones included; some repeat the one before
    and some are forced to hold the initial state."""
    out = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if out and roll < 0.2:
            out.append(out[-1])
        elif roll < 0.4:
            out.append(random_subset(rng, d.states()) | {d.init})
        else:
            out.append(random_subset(rng, d.states()))
    return out


@pytest.mark.parametrize("kind", [*sorted(MODELS), "goal"])
@settings(max_examples=120)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 10))
def test_each_fold_step_reads_the_frontier_of_its_chain(kind, seed, n):
    rng = random.Random(seed)
    d = _chain(rng, kind, n)
    subsets = _subsets(rng, d)
    fold = _Fold(d)
    chained = d
    for s1 in subsets:
        frozen = fold.chain()
        assert frozen == chained and frozen.succ == chained.succ
        assert fold.pred == _inverted(frozen.succ)
        read = FrontierSets(*fold.frontier(s1))
        assert read == frontier(frozen, s1) == frontier_by_prob(frozen, s1)
        fold.collapse(s1)
        chained = path_abstract(chained, s1)
    done = fold.chain()
    assert done == chained and done.succ == chained.succ
    assert fold.pred == _inverted(done.succ)
    folded = path_abstract_seq(d, subsets)
    assert folded == chained and folded.succ == chained.succ
