"""Differential check of the layers that read ``Dtmc.rows`` and the
support ``Dtmc.succ`` directly against their entry-by-entry references,
which read every entry through the bounds-checked ``Dtmc.prob``; and a
count of the entries the graph layers read, which must stay linear in the
transitions."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MODELS,
    collapse_sequence,
    counting_fractions,
    entry_map,
    exit_system,
    frontier_by_prob,
    is_stochastic,
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
from pathfold import abstraction
from pathfold.abstraction import (
    frontier,
    path_abstract,
    path_abstract_seq,
    prune_isolated,
    reach_backward,
)
from pathfold.checker import most_probable_path
from pathfold.cli import parse, serialize
from pathfold.core import (
    Dtmc,
    EntryExceedsOneError,
    NegativeEntryError,
    RowSumExceedsOneError,
    ValidationError,
    validate,
)
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
        system = exit_system(chain, fr)
        assert system == linear_system_by_prob(chain, fr)
        assert _all_ints(row.values() for row in system.a)
        assert _all_ints(system.b)
        pruned, mapping = prune_isolated(chain)
        assert (pruned, mapping) == prune_isolated_by_prob(chain)
        assert _all_fractions(pruned)
        assert chain.transition_count() == transition_count_by_prob(chain)


def _verdict(check, d: Dtmc):
    """Whether ``d`` is stochastic once ``check`` passes it, or the class,
    fields and message of the validation error it raises."""
    try:
        assert check(d) is None
    except ValidationError as exc:
        return type(exc), vars(exc), str(exc)
    return is_stochastic(d)


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
            # two entries in range whose sum is not, each above a half over
            # a denominator of up to 600 digits
            for u in (t, t % n + 1):
                q = rng.randint(2, 10 ** rng.choice([1, 3, 600]))
                table[s, u] = Fraction(rng.randint(q // 2 + 1, q), q)


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
    assert _fractions_built(chain) == _fractions_expected(verdict)


def _fractions_built(d: Dtmc) -> int:
    """How many ``Fraction``s :func:`validate` builds on ``d``."""
    with counting_fractions() as built:
        try:
            validate(d)
        except ValidationError:
            pass
    return built[0]


def _fractions_expected(verdict) -> int:
    """One ``Fraction``, the reported total, on a row-sum error; none else."""
    return int(isinstance(verdict, tuple) and verdict[0] is RowSumExceedsOneError)


# 600 digits; q, q + 1 and 2q + 1 are pairwise coprime
_Q = 10**599 + 7
_ROWS = {
    "coprime_below_one": ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)], False),
    "coprime_above_one": (
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
        RowSumExceedsOneError,
    ),
    "600_digits_below_one": (
        [Fraction(1, _Q), Fraction(_Q // 3, _Q + 1), Fraction(_Q, 2 * _Q + 1)],
        False,
    ),
    "600_digits_exactly_one": (
        [
            Fraction(1, _Q),
            Fraction(1, _Q + 1),
            1 - Fraction(1, _Q) - Fraction(1, _Q + 1),
        ],
        True,
    ),
    "one_plus_one_over_1200_digits": (
        [Fraction(1, 2), Fraction(1, 2) + Fraction(1, _Q * (2 * _Q + 1)), 0],
        RowSumExceedsOneError,
    ),
    "600_digits_one_plus_one_over_2q_plus_1": (
        [
            Fraction(1, _Q),
            Fraction(1, _Q + 1),
            1 - Fraction(1, _Q) - Fraction(1, _Q + 1) + Fraction(1, 2 * _Q + 1),
        ],
        RowSumExceedsOneError,
    ),
    "negative_after_a_sum_above_one": (
        [Fraction(3, 4), Fraction(3, 4), Fraction(-1, _Q)],
        NegativeEntryError,
    ),
    "above_one_after_a_sum_above_one": (
        [Fraction(3, 4), Fraction(3, 4), Fraction(_Q + 1, _Q)],
        EntryExceedsOneError,
    ),
    "ints_exactly_one": ([0, 1, 0], True),
    "a_bool_and_ints": ([True, 0, 0], True),
    "ints_above_one": ([1, 0, 1], RowSumExceedsOneError),
    "int_above_one": ([0, 2, 0], EntryExceedsOneError),
    "negative_int": ([Fraction(1, 3), -1, 0], NegativeEntryError),
}


@pytest.mark.parametrize("name", sorted(_ROWS))
@pytest.mark.parametrize("first", [1, 2])
@pytest.mark.parametrize("last", ["absorbing", "row_sum"])
def test_validate_sums_rows_over_one_denominator_to_the_same_verdict(
    name, first, last
):
    # the row under test is state ``first`` of a raw 3-state chain; the
    # other one of states 1 and 2 is stochastic, and state 3 is absorbing
    # or breaks its row sum, which only a valid row under test lets show
    entries, expected = _ROWS[name]
    rows = [(Fraction(1, 3), Fraction(2, 3), Fraction(0))] * 2
    rows[first - 1] = tuple(entries)
    third = Fraction(1, 2), Fraction(1, 2) + Fraction(1, 7)
    rows.append((*third, Fraction(0)) if last == "row_sum" else (0, 0, Fraction(1)))
    succ = tuple(tuple(t for t, p in enumerate(row, 1) if p) for row in rows)
    chain = Dtmc(1, tuple(rows), succ)
    verdict = _verdict(validate, chain)
    assert verdict == _verdict(validate_by_prob, chain)
    if isinstance(expected, bool) and last == "row_sum":
        assert verdict[0] is RowSumExceedsOneError and verdict[1]["state"] == 3
    elif isinstance(expected, bool):
        assert verdict is expected
    else:
        assert verdict[0] is expected
        assert verdict[1].get("src", verdict[1].get("state")) == first
    assert _fractions_built(chain) == _fractions_expected(verdict)


@pytest.mark.parametrize(
    "value",
    [Decimal("0.5"), Decimal("-0.5"), Decimal("1.5"), "1/2", 0.5j, None],
    ids=["decimal", "negative_decimal", "decimal_above_one", "str", "complex", "none"],
)
def test_validate_rejects_entries_neither_int_nor_fraction(value):
    # the entry-by-entry reference rejects each too: it cannot compare or
    # add the entry, or cannot print it in its range error
    chain = Dtmc(1, ((Fraction(1, 4), value), (Fraction(0), 1)), ((1, 2), (2,)))
    message = rf"^entry \(1,2\) is not an int or Fraction: {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        validate(chain)
    with pytest.raises((TypeError, AttributeError)):
        validate_by_prob(chain)


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
    """``d`` built directly over rows and successor lists that count the
    elements read from them, by index, by iteration or by a membership
    test: ``reads[0]`` counts row entries, ``reads[1]`` list elements.
    Rows ``d`` shares stay shared."""
    reads = [0, 0]

    def counting(k: int) -> type:
        class Counted(tuple):
            def __getitem__(self, i):
                reads[k] += 1
                return tuple.__getitem__(self, i)

            def __iter__(self):
                reads[k] += len(self)
                return tuple.__iter__(self)

            def __contains__(self, x):
                reads[k] += len(self)
                return tuple.__contains__(self, x)

        return Counted

    row, targets = counting(0), counting(1)
    distinct = {id(r): r for r in d.rows}
    wrapped = {key: row(r) for key, r in distinct.items()}
    rows = tuple(wrapped[id(r)] for r in d.rows)
    return Dtmc(d.init, rows, tuple(map(targets, d.succ))), reads


def test_graph_layers_read_entries_linear_in_the_transitions():
    chain, reads = _counting_chain(nested_cycle(60))
    # the chain is built with the lists of ``d``, so reading them costs no
    # row read; what is bounded below is each layer's own reads
    nnz = chain.transition_count()
    n = chain.n
    layers = {
        "frontier": lambda s1: frontier(chain, s1),
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


def _step_reads(d: Dtmc, subsets) -> list[tuple[int, int]]:
    """Row entries and list elements each step of a fold of ``d`` along
    ``subsets`` reads, the fold's set-up left out."""
    chain, reads = _counting_chain(d)
    steps = []
    collapse = abstraction._Fold.collapse

    def counted(fold, subset):
        before = tuple(reads)
        collapse(fold, subset)
        steps.append((reads[0] - before[0], reads[1] - before[1]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abstraction._Fold, "collapse", counted)
        path_abstract_seq(chain, subsets)
    return steps


def test_fold_steps_read_what_they_touch_not_the_chain():
    # 10 000 states that nothing enters or leaves change no step's reads:
    # a step reads its members' and exits' rows and lists, not all n
    d = nested_cycle(60)
    padded = Dtmc.from_transitions(d.n + 10_000, d.init, entry_map(d))
    subsets = collapse_sequence(d, "recursive")
    steps = _step_reads(d, subsets)
    assert len(steps) == len(subsets) == 60
    assert _step_reads(padded, subsets) == steps
    # each step reads its members' lists a bounded number of times, and
    # no more than that: the levels a step clears cost it nothing later
    chain = d
    for s1, (rows, lists) in zip(subsets, steps):
        held = sum(len(chain.succ[s - 1]) for s in s1)
        assert 0 < rows + lists <= 4 * (held + len(s1)), (sorted(s1), rows, lists)
        chain = path_abstract(chain, s1)
