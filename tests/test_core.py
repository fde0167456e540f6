"""Model validation, absorbing-state detection and edge enumeration."""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    K,
    S0,
    S1,
    S2,
    entry_map,
    random_dtmc,
    random_subset,
    str_of_any_length,
)
import pathfold
from pathfold.abstraction import path_abstract, prune_isolated
from pathfold.core import (
    Dtmc,
    EntryExceedsOneError,
    InitOutOfRangeError,
    NegativeEntryError,
    RowSumExceedsOneError,
    ValidationError,
    non_absorbing,
    state_set,
    validate,
)


def test_validate_worked_example_is_stochastic(me):
    assert validate(me)


def test_validate_half_self_loop_is_substochastic():
    d = Dtmc.from_transitions(1, 1, {(1, 1): "1/2"})
    assert not validate(d)


def test_validate_rejects_row_sum_above_one():
    d = Dtmc.from_transitions(2, 1, {(1, 1): "2/3", (1, 2): "1/2", (2, 2): 1})
    with pytest.raises(RowSumExceedsOneError) as info:
        validate(d)
    assert info.value.state == 1


def test_validate_rejects_negative_entry():
    d = Dtmc.from_transitions(2, 1, {(1, 1): Fraction(-1, 2), (1, 2): 1, (2, 2): 1})
    with pytest.raises(NegativeEntryError):
        validate(d)


def test_validate_rejects_entry_above_one():
    d = Dtmc.from_transitions(2, 1, {(1, 1): "3/2", (2, 2): 1})
    with pytest.raises(EntryExceedsOneError):
        validate(d)


def test_validate_rejects_init_out_of_range():
    d = Dtmc.from_transitions(2, 3, {(1, 1): 1, (2, 2): 1})
    with pytest.raises(InitOutOfRangeError):
        validate(d)


def test_validate_rejects_ragged_matrix():
    rows = ((Fraction(1), Fraction(0)), (Fraction(1),))
    d = Dtmc(1, rows, ((1,), (1,)))
    with pytest.raises(ValidationError):
        validate(d)


def test_equality_hash_and_repr_ignore_the_support_lists():
    entries = {(1, 1): "1/2", (1, 2): "1/2", (2, 2): 1, (3, 1): "1/3", (3, 3): "2/3"}
    d = Dtmc.from_transitions(3, 1, entries)
    # the same chain, with every pair it leaves out given as an explicit zero
    table = {(s, t): entries.get((s, t), 0) for s in range(1, 4) for t in range(1, 4)}
    same = [Dtmc.from_transitions(3, 1, table), path_abstract(d, ())]
    raw = Dtmc(d.init, d.rows, ())
    for other in same + [raw]:
        assert other == d and hash(other) == hash(d)
    assert "succ" not in repr(d) and "pred" not in repr(d)


def test_validate_accepts_all_published_collapses(me):
    # the collapsed matrix keeps zeroed interior rows, so it is only
    # stochastic again once the isolated states are dropped, which is
    # exactly what the published drawings show
    for subset in (S1, S2, S0, frozenset({1, 2, 3, 4}), K):
        collapsed = path_abstract(me, subset)
        validate(collapsed)
        pruned, _ = prune_isolated(collapsed)
        assert validate(pruned)


def test_collapsing_a_trapping_region_goes_substochastic(me):
    # state 7 only loops onto itself; collapsing a set containing it drops
    # the trapped mass, and state 7 stays visible (state 4 still feeds it)
    # with an all-zero row even after pruning
    pruned, mapping = prune_isolated(path_abstract(me, {5, 6, 7}))
    assert 7 in mapping
    assert not validate(pruned)


def test_non_absorbing_worked_example(me):
    assert non_absorbing(me) == K


def test_non_absorbing_empty_when_all_states_loop():
    d = Dtmc.from_transitions(2, 1, {(1, 1): 1, (2, 2): 1})
    assert non_absorbing(d) == frozenset()


def test_non_absorbing_scans_the_diagonal():
    d = Dtmc.from_transitions(
        3, 1, {(1, 1): "1/2", (1, 2): "1/2", (2, 3): 1, (3, 3): 1}
    )
    assert non_absorbing(d) == frozenset({1, 2})


def test_support_edges_worked_example(me):
    edges = list(entry_map(me))
    assert len(edges) == 14
    assert edges == sorted(edges)
    for pair in ((1, 2), (6, 2), (7, 7)):
        assert pair in edges


def test_support_edges_zero_matrix():
    d = Dtmc.from_transitions(2, 1, {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0})
    assert list(entry_map(d)) == []


def test_support_edges_identity_loops():
    d = Dtmc.from_transitions(2, 1, {(1, 1): 1, (2, 2): 1})
    assert list(entry_map(d)) == [(1, 1), (2, 2)]


def test_state_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        state_set({0, 1}, 4)
    with pytest.raises(ValueError):
        state_set({5}, 4)


def test_prob_rejects_out_of_range(me):
    with pytest.raises(ValueError):
        me.prob(0, 1)
    with pytest.raises(ValueError):
        me.prob(1, 9)


def test_from_transitions_rejects_out_of_range_pairs():
    for pair in [(0, 1), (-1, 1), (1, 3), (3, 1), (1, 0)]:
        with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
            Dtmc.from_transitions(2, 1, {pair: 1})


def test_builders_reject_binary_floats():
    # 0.1 as a binary float is 3602879701896397/36028797018963968, so this
    # row, written as stochastic, would have validated as substochastic; a
    # subclass of float is caught too
    tenths = {(1, 1): 0.1, (1, 2): "1/5", (1, 3): Fraction(7, 10)}
    tenths.update({(2, 2): 1, (3, 3): 1})
    with pytest.raises(TypeError, match=r"entry \(1,1\) is a binary float"):
        Dtmc.from_transitions(3, 1, tenths)
    with pytest.raises(TypeError, match=r"entry \(2,3\)"):
        Dtmc.from_transitions(3, 1, {(2, 3): type("F", (float,), {})(1)})
    with pytest.raises(TypeError, match=r"entry \(1,2\)"):
        Dtmc.from_transitions(2, 1, {(1, 1): 0, (1, 2): 0.5, (2, 2): 1})
    assert validate(Dtmc.from_transitions(3, 1, {**tenths, (1, 1): "1/10"}))


def test_validate_rejects_binary_floats_from_the_raw_constructor():
    # the raw constructor takes rows as given, so validate checks each
    # entry of the support and names the first float in (src, dst) order
    d = Dtmc(1, ((0.5, 0.5), (0.0, 1.0)), ((1, 2), (2,)))
    with pytest.raises(TypeError, match=r"^entry \(1,1\) is a binary float: 0\.5$"):
        validate(d)
    half = Fraction(1, 2)
    d = Dtmc(1, ((half, half), (Fraction(0), 1.0)), ((1, 2), (2,)))
    with pytest.raises(TypeError, match=r"^entry \(2,2\) is a binary float: 1\.0$"):
        validate(d)


def test_validation_errors_print_values_of_any_length():
    # each message shows its value as str(Fraction) does, also past the
    # interpreter's int-string digit limit
    big = 10**5000
    entries = [
        (Fraction(-(big + 1), big), NegativeEntryError, "is negative"),
        (Fraction(-big), NegativeEntryError, "is negative"),
        (Fraction(-1, 2), NegativeEntryError, "is negative"),
        (Fraction(big + 1, big), EntryExceedsOneError, "exceeds one"),
        (Fraction(3, 2), EntryExceedsOneError, "exceeds one"),
        (Fraction(2), EntryExceedsOneError, "exceeds one"),
    ]
    for value, error, what in entries:
        with pytest.raises(error) as info:
            validate(Dtmc.from_transitions(1, 1, {(1, 1): value}))
        assert str(info.value) == f"entry (1,1) {what}: {str_of_any_length(value)}"
        assert info.value.value == value
    for p, total in [
        (Fraction(big + 1, 2 * big), Fraction(big + 1, big)),
        (Fraction(3, 4), Fraction(3, 2)),
        (Fraction(1), Fraction(2)),
    ]:
        with pytest.raises(RowSumExceedsOneError) as info:
            validate(Dtmc.from_transitions(2, 1, {(1, 1): p, (1, 2): p, (2, 2): 1}))
        assert str(info.value) == f"row 1 sums to {str_of_any_length(total)} > 1"
        assert info.value.total == total


def test_pipeline_outputs_stay_in_lowest_terms():
    rng = random.Random(11)
    for _ in range(25):
        d = random_dtmc(rng, rng.randint(3, 7))
        collapsed = path_abstract(d, random_subset(rng, d.states()))
        for s in collapsed.states():
            for t in collapsed.states():
                p = collapsed.prob(s, t)
                assert isinstance(p, Fraction)
                assert p.denominator > 0
                assert math.gcd(abs(p.numerator), p.denominator) == 1


def test_package_root_exports_only_the_documented_names():
    assert pathfold.__all__ == [
        "Dtmc",
        "DtmcError",
        "model_check",
        "path_abstract",
        "refine",
    ]
    assert all(hasattr(pathfold, name) for name in pathfold.__all__)
