"""Differential check of the layers that read ``Dtmc.rows`` and the
support ``Dtmc.succ`` directly against their entry-by-entry references,
which read every entry through the bounds-checked ``Dtmc.prob``; and a
count of the entries the graph layers read, which must stay linear in the
transitions."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MODELS,
    frontier_by_prob,
    linear_system_by_prob,
    most_probable_path_by_prob,
    nested_cycle,
    prune_isolated_by_prob,
    random_subset,
    reach_backward_by_prob,
    sccs_by_prob,
    succ_by_prob,
    transition_count_by_prob,
    validate_by_prob,
)
from pathfold.abstraction import (
    frontier,
    interior_zero,
    linear_system,
    path_abstract,
    path_abstract_seq,
    prune_isolated,
    reach_backward,
)
from pathfold.checker import most_probable_path
from pathfold.cli import parse, serialize
from pathfold.core import Dtmc, ValidationError, validate
from pathfold.scc import sccs


def _all_fractions(d: Dtmc) -> bool:
    return all(
        isinstance(d.prob(s, t), Fraction) for s in d.states() for t in d.states()
    )


def _all_ints(rows) -> bool:
    return all(type(x) is int for row in rows for x in row)


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
        assert _all_fractions(chain)
        fr = frontier(chain, subset)
        assert fr == frontier_by_prob(chain, subset)
        # exits that overlap the subset, which no frontier hands over
        exits = random_subset(rng, d.states())
        assert reach_backward(chain, subset, exits) == reach_backward_by_prob(
            chain, subset, exits
        )
        system = linear_system(chain, fr)
        assert system == linear_system_by_prob(chain, fr)
        assert _all_ints(row.values() for row in system.a)
        assert _all_ints(system.b)
        pruned, mapping = prune_isolated(chain)
        assert (pruned, mapping) == prune_isolated_by_prob(chain)
        assert _all_fractions(pruned)
        assert chain.transition_count() == transition_count_by_prob(chain)


def _verdict(check, d: Dtmc):
    """The report ``check`` returns, or the class, fields and message of
    the validation error it raises."""
    try:
        return check(d)
    except ValidationError as exc:
        return type(exc), vars(exc), str(exc)


def _corrupt(rng: random.Random, table: dict, n: int, kind: str) -> None:
    """Overwrite one to three entries of the complete ``table`` so that the
    chain breaks the rule ``kind`` names, maybe more than once."""
    for _ in range(rng.randint(1, 3)):
        s, t = rng.randint(1, n), rng.randint(1, n)
        if kind == "negative":
            table[s, t] = Fraction(-rng.randint(1, 4), rng.randint(1, 4))
        elif kind == "above one":
            table[s, t] = 1 + Fraction(rng.randint(1, 4), rng.randint(1, 4))
        elif kind == "row sum":
            # two entries in range whose sum is not
            for u in (t, t % n + 1):
                table[s, u] = Fraction(rng.randint(3, 4), 5)


@pytest.mark.parametrize("build", ["from_transitions", "collapsed"])
@pytest.mark.parametrize("kind", ["valid", "negative", "above one", "row sum", "init"])
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 8), zeros=st.booleans())
def test_validate_reads_the_support_to_the_same_verdict(build, kind, seed, n, zeros):
    assume(n > 1 or kind != "row sum")
    rng = random.Random(seed)
    d = MODELS[rng.choice(sorted(MODELS))](rng, n)
    table = {(s, t): d.prob(s, t) for s in d.states() for t in d.states()}
    _corrupt(rng, table, n, kind)
    broken = {s for (s, t), p in table.items() if p != d.prob(s, t)}
    if not zeros:  # else explicit zeros stay in the mapping
        table = {pair: p for pair, p in table.items() if p}
    init = rng.choice([0, n + 1]) if kind == "init" else d.init
    chain = Dtmc.from_transitions(n, init, table)
    if build == "collapsed":
        # a subset of intact rows keeps the exit system solvable; the
        # broken rows stay outside, so the collapse hands them on as read
        chain = path_abstract(chain, random_subset(rng, set(d.states()) - broken))
    # the references follow positive entries, and a negative one is not
    assert chain.succ == succ_by_prob(chain)
    assert kind == "negative" or _graph_matches(chain, seed)
    verdict = _verdict(validate, chain)
    assert verdict == _verdict(validate_by_prob, chain)
    assert (kind == "valid") == (not isinstance(verdict, tuple))


def _graph_matches(d: Dtmc, seed: int) -> bool:
    """``d.succ`` lists the support, and the interior and backward reach
    derived from it match the references on a subset drawn from ``seed``."""
    subset = random_subset(random.Random(seed), d.states())
    return d.succ == succ_by_prob(d) and frontier(d, subset) == frontier_by_prob(
        d, subset
    )


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 10))
def test_every_chain_carries_its_positive_digraph(kind, seed, n):
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    assert _graph_matches(d, seed)
    # explicit zeros in the mapping must not enter the lists
    table = {(s, t): d.prob(s, t) for s in d.states() for t in d.states()}
    assert _graph_matches(Dtmc.from_transitions(d.n, d.init, table), seed)
    # inserted out of order, the lists must still come out ascending
    pairs = list(table.items())
    random.Random(seed).shuffle(pairs)
    assert _graph_matches(Dtmc.from_transitions(d.n, d.init, dict(pairs)), seed)
    zeros = [(s, t) for s in d.states() for t in d.states() if d.prob(s, t) == 0]
    parsed = parse(serialize(d) + "".join(f"{s} {t} 0\n" for s, t in zeros[:1]))
    assert parsed == d and _graph_matches(parsed, seed)
    # each collapse derives its lists from the lists of the chain before
    for chain in (d, parsed):
        subsets = [random_subset(rng, d.states()) for _ in range(rng.randint(1, 3))]
        for k in range(1, len(subsets) + 1):
            collapsed = path_abstract_seq(chain, subsets[:k])
            assert _graph_matches(collapsed, seed)
        pruned = prune_isolated(collapsed)[0]
        # the prune hands its lists on, renumbered, and serializing the
        # pruned chain reads its entries through them alone
        assert _graph_matches(pruned, seed)
        counted, reads = _counting_chain(pruned)
        assert serialize(counted) == serialize(pruned)
        assert reads[0] == pruned.transition_count()


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 7))
def test_graph_walks_equal_entry_by_entry_references(kind, seed, n):
    rng = random.Random(seed)
    d = MODELS[kind](rng, n)
    for chain in (d, path_abstract(d, random_subset(rng, d.states()))):
        subset = random_subset(rng, d.states())
        comps = sccs(chain, subset)
        assert sorted(comps, key=min) == sccs_by_prob(chain, subset)
        # no transition inside the subset leads back to an earlier component
        rank = {s: k for k, comp in enumerate(comps) for s in comp}
        assert all(
            rank[s] <= rank[t]
            for s in rank
            for t in rank
            if chain.prob(s, t) > 0
        )
        assert sccs(parse(serialize(chain)), subset) == comps
        src, dst = rng.randint(1, n), rng.randint(1, n)
        assert most_probable_path(chain, src, dst) == most_probable_path_by_prob(
            chain, src, dst
        )
        assert most_probable_path(
            chain, src, dst, within=subset
        ) == most_probable_path_by_prob(chain, src, dst, within=subset)


def _counting_chain(d: Dtmc) -> tuple[Dtmc, list[int]]:
    """``d`` built directly over rows that count the entries read from them,
    by index or by iteration."""
    reads = [0]

    class Row(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            reads[0] += len(self)
            return tuple.__iter__(self)

    return Dtmc(d.init, tuple(Row(row) for row in d.rows), d.succ), reads


def test_graph_layers_read_entries_linear_in_the_transitions():
    chain, reads = _counting_chain(nested_cycle(60))
    # the chain is built with the lists of ``d``, so reading them costs no
    # row read; what is bounded below is each layer's own reads
    nnz = chain.transition_count()
    n = chain.n
    layers = {
        "interior_zero": lambda s1: interior_zero(chain, s1),
        "reach_backward": lambda s1: reach_backward(chain, s1, {n - 1, n}),
        "sccs": lambda s1: sccs(chain, s1),
        "most_probable_path": lambda s1: most_probable_path(chain, 1, n),
        "most_probable_path within": lambda s1: most_probable_path(
            chain, 1, n, within=s1
        ),
        "validate": lambda s1: validate(chain),
    }
    for s1 in (range(2, n - 1), range(2, n // 2), range(n // 2, n - 1)):
        for name, layer in layers.items():
            reads[0] = 0
            layer(frozenset(s1))
            assert reads[0] <= 2 * nnz, (name, s1, reads[0], nnz)
        # the pruned chain carries its lists, so serializing it reads
        # exactly its nonzero entries and no dense row to find them
        pruned, _ = prune_isolated(path_abstract(chain, s1))
        assert pruned.succ == succ_by_prob(pruned)
        counted, reads = _counting_chain(pruned)
        serialize(counted)
        assert reads[0] == pruned.transition_count(), (s1, reads[0])
