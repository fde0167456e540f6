"""Frontier analysis, the exact solver, and the collapse operator."""

import random
from fractions import Fraction

import pytest

from helpers import (
    FIG_MINUS_1234,
    FIG_MINUS_K,
    FIG_MINUS_S1,
    K,
    S0,
    S1,
    as_fractions,
    entry_map,
    enumerated_walk_prob,
    exit_system,
    interior_by_prob,
    random_dtmc,
    random_subset,
    row_sum,
    submatrix_power_entry,
    system_from_dense,
)
from oracle import local_reach_prob_bounded
from pathfold.abstraction import (
    SingularMatrixError,
    frontier,
    path_abstract,
    path_abstract_seq,
    prune_isolated,
    reach_backward,
    solve_linear,
)
from pathfold.core import Dtmc, validate


# --- frontier sets --------------------------------------------------------


def test_frontier_worked_example(me):
    fr = frontier(me, S1)
    assert S1 - fr.entries == frozenset({5, 6})
    assert fr.entries == frozenset({2})
    assert fr.exits == frozenset({3, 8})
    assert fr.reaching == frozenset({2, 5, 6})


def test_frontier_excludes_init_from_interior(me):
    # nothing feeds state 1, yet as the initial state it is an entry
    assert frontier(me, {1}).entries == frozenset({1})


def test_frontier_invariants_random():
    rng = random.Random(41)
    for _ in range(50):
        d = random_dtmc(rng, rng.randint(2, 8))
        s1 = random_subset(rng, d.states())
        fr = frontier(d, s1)
        # the members that are not entries are those no outside state feeds
        assert s1 - fr.entries == interior_by_prob(d, s1)
        assert d.init not in s1 - fr.entries
        assert not fr.exits & s1
        assert fr.reaching <= s1


def test_reach_backward_worked_example(me):
    assert reach_backward(me, S1, {3, 8}) == S1


def test_reach_backward_trapped_region(me):
    # no edge leaves state 7, so nothing in {7} reaches an exit
    assert frontier(me, {7}).exits == frozenset()
    assert reach_backward(me, {7}, frozenset()) == frozenset()


def test_reach_backward_chained_exits(me):
    assert reach_backward(me, {3, 4}, {7, 8}) == frozenset({3, 4})


def test_reach_backward_rejects_out_of_range_exits(me):
    for exits in ({0}, {8, 9}):
        with pytest.raises(ValueError):
            reach_backward(me, S1, exits)


# --- the exact solver -----------------------------------------------------


def _frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_solve_identity_returns_rhs():
    a = _frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = _frac_rows([[1, 2], [3, 4], ["5/7", 6]])
    assert solve_linear(system_from_dense(a, b), range(3)) == b


def test_solve_scalar_division():
    system = system_from_dense(_frac_rows([["3/4"]]), _frac_rows([[1]]))
    assert solve_linear(system, [0]) == ((Fraction(4, 3),),)


def test_solve_worked_example_return_mass(me):
    fr = frontier(me, S1)
    q = solve_linear(exit_system(me, fr), [0])
    # reaching = [2, 5, 6], exits = [3, 8]
    assert q[0] == (Fraction(4, 5), Fraction(1, 5))


def test_solve_singular_raises():
    system = system_from_dense(
        _frac_rows([[1, -1], [1, -1]]), _frac_rows([[1], [0]])
    )
    with pytest.raises(SingularMatrixError):
        solve_linear(system, range(2))


def test_solve_checks_against_multiplication():
    rng = random.Random(43)
    for _ in range(25):
        m = rng.randint(1, 5)
        a = _frac_rows(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(m)
            ]
        )
        b = _frac_rows(
            [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(m)]
        )
        try:
            q = solve_linear(system_from_dense(a, b), range(m))
        except SingularMatrixError:
            continue
        for i in range(m):
            for j in range(2):
                assert (
                    sum(a[i][k] * q[k][j] for k in range(m)) == b[i][j]
                )


# --- the collapse operator ------------------------------------------------


def test_collapse_matches_first_published_figure(me):
    assert entry_map(path_abstract(me, S1)) == as_fractions(FIG_MINUS_S1)


def test_collapse_matches_refinement_figure(me):
    got = entry_map(path_abstract(me, {1, 2, 3, 4}))
    assert got == as_fractions(FIG_MINUS_1234)


def test_collapse_of_empty_subset_is_identity(me):
    assert path_abstract(me, frozenset()) == me


def test_collapse_of_everything_clears_the_matrix(me):
    collapsed = path_abstract(me, set(me.states()))
    assert collapsed.transition_count() == 0
    assert collapsed.init == me.init


def test_collapse_keeps_state_count_and_init(me):
    collapsed = path_abstract(me, S1)
    assert collapsed.n == me.n
    assert collapsed.init == me.init


def test_collapse_chain_absorbs_subset_step(me):
    assert path_abstract_seq(me, [S0, S1]) == path_abstract(me, S1)


def test_collapse_chain_reaches_final_figure(me):
    got = path_abstract_seq(me, [S1, frozenset({3, 4}), K])
    assert entry_map(got) == as_fractions(FIG_MINUS_K)


def test_collapse_chain_empty_sequence(me):
    assert path_abstract_seq(me, []) == me


def test_collapse_trapping_subset_is_silent(me):
    collapsed = path_abstract(me, {5, 6, 7})
    validate(collapsed)
    assert row_sum(collapsed, 7) == 0
    assert collapsed.prob(4, 7) == Fraction(1, 6)


def test_row_sums_never_exceed_one_random():
    rng = random.Random(47)
    for _ in range(60):
        d = random_dtmc(rng, rng.randint(2, 8))
        collapsed = path_abstract(d, random_subset(rng, d.states()))
        for s in collapsed.states():
            assert row_sum(collapsed, s) <= 1


def test_subset_then_superset_collapse_random():
    rng = random.Random(53)
    for _ in range(50):
        d = random_dtmc(rng, rng.randint(3, 8))
        big = random_subset(rng, d.states())
        small = frozenset(rng.sample(sorted(big), rng.randint(0, len(big))))
        assert path_abstract_seq(d, [small, big]) == path_abstract(d, big)


def test_truncated_sums_stay_below_collapse_entries():
    rng = random.Random(59)
    for _ in range(25):
        d = random_dtmc(rng, rng.randint(2, 6))
        s1 = random_subset(rng, d.states(), allow_empty=False)
        fr = frontier(d, s1)
        collapsed = path_abstract(d, s1)
        for s in sorted(fr.entries & fr.reaching):
            for t in sorted(fr.exits):
                exact = collapsed.prob(s, t)
                gap_before = exact - local_reach_prob_bounded(d, s, s1, t, 4)
                gap_after = exact - local_reach_prob_bounded(d, s, s1, t, 16)
                assert Fraction(0) <= gap_after <= gap_before


def test_matrix_power_equals_enumeration_random():
    rng = random.Random(61)
    for _ in range(30):
        d = random_dtmc(rng, rng.randint(2, 6))
        size = rng.randint(1, min(3, d.n))
        s1 = frozenset(rng.sample(range(1, d.n + 1), size))
        s = rng.choice(sorted(s1))
        r = rng.choice(sorted(s1))
        for i in range(1, 5):
            assert submatrix_power_entry(d, s1, i, s, r) == enumerated_walk_prob(
                d, s, s1, r, i
            )


def test_new_edges_appear_only_from_entries_to_exits():
    rng = random.Random(67)
    for _ in range(50):
        d = random_dtmc(rng, rng.randint(2, 8))
        s1 = random_subset(rng, d.states())
        fr = frontier(d, s1)
        collapsed = path_abstract(d, s1)
        old = {(s, t) for s, t, _ in d.transitions()}
        for s, t, _ in collapsed.transitions():
            if (s, t) not in old:
                assert s in fr.entries & fr.reaching
                assert t in fr.exits


def test_collapse_shares_every_row_and_successor_list_it_leaves_alone():
    # half the chains have states without an entry, which share one zero row
    rng = random.Random(71)
    for i in range(60):
        d = random_dtmc(rng, rng.randint(2, 9))
        if i % 2:
            keep = random_subset(rng, d.states())
            d = Dtmc.from_transitions(
                d.n, d.init, {(s, t): p for s, t, p in d.transitions() if s in keep}
            )
        s1 = random_subset(rng, d.states())
        collapsed = path_abstract(d, s1)
        for s in d.states():
            if s not in s1:
                assert collapsed.rows[s - 1] is d.rows[s - 1]
                assert collapsed.succ[s - 1] is d.succ[s - 1]


def test_transition_count_shrinks_on_the_worked_family(me):
    base = me.transition_count()
    for subset in (S0, S1, frozenset({3, 4}), frozenset({1, 2, 3, 4}), K):
        assert path_abstract(me, subset).transition_count() <= base


def test_collapse_can_add_net_transitions():
    # two entry states funnelling through one inner state towards three
    # exits: 6 merged transitions replace 5, so the total rises from 10
    # to 11.  Collapsing trades paths for transitions but not always
    # fewer of them.
    d = Dtmc.from_transitions(
        7,
        1,
        {
            (1, 2): "1/2",
            (1, 3): "1/2",
            (2, 4): 1,
            (3, 4): 1,
            (4, 5): "1/3",
            (4, 6): "1/3",
            (4, 7): "1/3",
            (5, 5): 1,
            (6, 6): 1,
            (7, 7): 1,
        },
    )
    collapsed = path_abstract(d, {2, 3, 4})
    assert d.transition_count() == 10
    assert collapsed.transition_count() == 11


# --- pruning ---------------------------------------------------------------


def test_prune_matches_drawn_nodes_of_first_figure(me):
    pruned, mapping = prune_isolated(path_abstract(me, S1))
    assert pruned.n == 6
    assert mapping == {1: 1, 2: 2, 3: 3, 4: 4, 7: 5, 8: 6}
    assert pruned.prob(2, 3) == Fraction(4, 5)
    assert pruned.prob(2, 6) == Fraction(1, 5)


def test_prune_without_isolated_states_is_identity(me):
    pruned, mapping = prune_isolated(me)
    assert pruned == me
    assert mapping == {s: s for s in me.states()}


def test_prune_matches_drawn_nodes_of_refinement_figure(me):
    pruned, mapping = prune_isolated(path_abstract(me, {1, 2, 3, 4}))
    assert pruned.n == 6
    assert 3 not in mapping and 4 not in mapping


def test_prune_keeps_isolated_init():
    d = Dtmc.from_transitions(3, 1, {(2, 3): 1, (3, 3): 1})
    pruned, mapping = prune_isolated(d)
    assert mapping[1] == 1
    assert pruned.n == 3
