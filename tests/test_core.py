"""Model validation, absorbing-state detection and edge enumeration."""

import ast
import copy
import math
import pickle
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    K,
    S0,
    S1,
    S2,
    entry_map,
    is_stochastic,
    random_dtmc,
    random_subset,
    str_of_any_length,
)
import pathfold
from pathfold.abstraction import path_abstract, prune_isolated
from pathfold.checker import model_check, refine
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

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402


def test_validate_worked_example_is_stochastic(me):
    assert validate(me) is None
    assert is_stochastic(me)


def test_validate_half_self_loop_is_substochastic():
    d = Dtmc.from_transitions(1, 1, {(1, 1): "1/2"})
    assert validate(d) is None
    assert not is_stochastic(d)


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
    # a chain equals only a chain, not a tuple of its fields or another type
    for other in ((d.init, d.rows), (d.init, d.rows, d.succ), object()):
        assert d != other and not d == other
    assert d.__eq__(0) is NotImplemented


def test_chains_are_immutable_and_survive_pickle_and_copy(me):
    for name in ("init", "rows", "succ"):
        with pytest.raises(AttributeError):
            setattr(me, name, getattr(me, name))
        with pytest.raises(AttributeError):
            delattr(me, name)
    for twin in (
        pickle.loads(pickle.dumps(me)),
        copy.copy(me),
        copy.deepcopy(me),
    ):
        assert twin == me and twin.succ == me.succ
    # a report's steps hold the chains their collapses produced
    report = refine(me, 7, Fraction(4, 9), [S2, S1, K])
    assert len(report.trace) > 1
    assert pickle.loads(pickle.dumps(report)) == report
    result = model_check(me, {7, 8})
    assert pickle.loads(pickle.dumps(result)) == result


def test_validate_accepts_all_published_collapses(me):
    # the collapsed matrix keeps zeroed interior rows, so it is only
    # stochastic again once the isolated states are dropped, which is
    # exactly what the published drawings show
    for subset in (S1, S2, S0, frozenset({1, 2, 3, 4}), K):
        collapsed = path_abstract(me, subset)
        validate(collapsed)
        pruned, _ = prune_isolated(collapsed)
        validate(pruned)
        assert is_stochastic(pruned)


def test_collapsing_a_trapping_region_goes_substochastic(me):
    # state 7 only loops onto itself; collapsing a set containing it drops
    # the trapped mass, and state 7 stays visible (state 4 still feeds it)
    # with an all-zero row even after pruning
    pruned, mapping = prune_isolated(path_abstract(me, {5, 6, 7}))
    assert 7 in mapping
    validate(pruned)
    assert not is_stochastic(pruned)


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


def test_from_transitions_keeps_a_fraction_and_converts_every_other_value():
    # a Fraction is immutable, so the builder stores the object it is given;
    # any other value comes out as a plain Fraction, a subclass's too, which
    # an isinstance test would have let through
    half = Fraction(1, 2)
    d = Dtmc.from_transitions(2, 1, {(1, 1): half, (1, 2): half, (2, 2): 1})
    assert d.prob(1, 1) is half and d.prob(1, 2) is half
    sub = type("SubFraction", (Fraction,), {})
    for value, want in [
        (1, 1),
        (0, 0),
        ("2/6", Fraction(1, 3)),
        (Decimal("0.25"), Fraction(1, 4)),
        (True, 1),
        (False, 0),
        (sub(2, 7), Fraction(2, 7)),
    ]:
        p = Dtmc.from_transitions(1, 1, {(1, 1): value}).prob(1, 1)
        assert p.__class__ is Fraction and p == want, value
    with pytest.raises(TypeError, match=r"^entry \(1,1\) is a binary float: 0\.5$"):
        Dtmc.from_transitions(1, 1, {(1, 1): 0.5})


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
    exact = Dtmc.from_transitions(3, 1, {**tenths, (1, 1): "1/10"})
    validate(exact)
    assert is_stochastic(exact)


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


def _names_used(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as
    the attribute of something else."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_of_the_package_is_used_by_the_package():
    # code that only the tests call does not belong in the installed
    # package; the benchmark's tracer wraps some layers by name, so those
    # stay while it does
    modules = {
        f.stem: ast.parse(f.read_text(), str(f))
        for f in sorted(Path(pathfold.__file__).parent.glob("*.py"))
    }
    used = sum(map(_names_used, modules.values()), Counter())
    traced = {(module, name.split(".")[0]) for module, name, _, _ in tracer.TARGETS}
    unused = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] == _names_used(node)[node.name]
        and (module, node.name) not in traced
        and node.name not in pathfold.__all__
    ]
    assert not unused, f"used only outside the package: {', '.join(unused)}"
