"""Differential check of the layers that scan ``Dtmc.rows`` directly
against their entry-by-entry references, which read every entry through
the bounds-checked ``Dtmc.prob``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MODELS,
    frontier_by_prob,
    linear_system_by_prob,
    prune_isolated_by_prob,
    random_subset,
    transition_count_by_prob,
)
from pathfold.abstraction import frontier, linear_system, path_abstract, prune_isolated


def _all_fractions(rows) -> bool:
    return all(isinstance(p, Fraction) for row in rows for p in row)


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 10))
def test_row_scans_equal_entry_by_entry_references(kind, seed, n):
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    subset = random_subset(rng, d.states())
    # the collapsed chain shares rows with ``d`` and has interior zeros,
    # so it exercises what a plain generated model does not
    for chain in (d, path_abstract(d, random_subset(rng, d.states()))):
        assert _all_fractions(chain.rows)
        fr = frontier(chain, subset)
        assert fr == frontier_by_prob(chain, subset)
        system = linear_system(chain, fr)
        assert system == linear_system_by_prob(chain, fr)
        assert _all_fractions(system.a) and _all_fractions(system.b)
        pruned, mapping = prune_isolated(chain)
        assert (pruned, mapping) == prune_isolated_by_prob(chain)
        assert _all_fractions(pruned.rows)
        assert chain.transition_count() == transition_count_by_prob(chain)
