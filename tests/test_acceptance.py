"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is exact rational equality unless a bound is stated inline.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from helpers import (
    FIG_MINUS_1234,
    FIG_MINUS_S0,
    FIG_MINUS_S1,
    FIG_MINUS_S1_S2,
    K,
    PACKAGE_ENV,
    S0,
    S1,
    S2,
    as_fractions,
    entry_map,
    enumerated_walk_prob,
    me_dtmc,
    random_acyclic_inside_instance,
    random_dtmc,
    random_fast_exit_instance,
    random_subset,
    row_sum,
    submatrix_power_entry,
)
from oracle import (
    local_reach_prob_bounded,
    minus,
    minus_seq,
    preimage_min_bounded,
    splice,
)
from pathfold.abstraction import (
    frontier,
    path_abstract,
    path_abstract_seq,
)
from pathfold.checker import model_check, refine
from pathfold.cli import parse, serialize
from pathfold.core import Dtmc, non_absorbing, validate
from pathfold.scc import abstract_recursive

EXAMPLE = Path(__file__).parent / "data" / "example8.dtmc"


def _ok(number: int, text: str) -> None:
    print(f"criterion {number}: PASS ({text})")


def test_criterion_1_worked_example_pipeline():
    me = me_dtmc()
    for method in ("direct", "scc", "recursive"):
        result = model_check(me, {7, 8}, method)
        assert result.per_goal[7] == Fraction(5, 9)
        assert result.per_goal[8] == Fraction(4, 9)
        assert result.total == 1
    _ok(1, "reachability 5/9 and 4/9 exact under all three methods")


def test_criterion_2_intermediate_collapses_exact():
    me = me_dtmc()
    assert entry_map(path_abstract(me, S1)) == as_fractions(FIG_MINUS_S1)
    assert entry_map(path_abstract_seq(me, [S1, S2])) == as_fractions(
        FIG_MINUS_S1_S2
    )
    assert entry_map(path_abstract(me, S0)) == as_fractions(FIG_MINUS_S0)
    assert entry_map(path_abstract(me, {1, 2, 3, 4})) == as_fractions(
        FIG_MINUS_1234
    )
    _ok(2, "all four published intermediate collapses reproduced exactly")


def test_criterion_3_refinement_reproduction():
    report = refine(me_dtmc(), 7, Fraction(4, 9), [frozenset({1, 2, 3, 4})])
    assert report.violated
    assert len(report.trace) - 1 == 0
    assert report.witness_prob == Fraction(13, 27)
    _ok(3, "threshold 4/9 violated at step 0 with witness mass 13/27")


def test_criterion_4_monotonic_absorption_500_models():
    rng = random.Random(4001)
    for _ in range(500):
        n = rng.randint(4, 10)
        d = random_dtmc(rng, n)
        big = random_subset(rng, d.states())
        small = frozenset(rng.sample(sorted(big), rng.randint(0, len(big))))
        assert path_abstract_seq(d, [small, big]) == path_abstract(d, big)
        cover = random_subset(rng, d.states())
        chain = [
            frozenset(rng.sample(sorted(cover), rng.randint(0, len(cover))))
            for _ in range(rng.randint(1, 4))
        ]
        assert path_abstract_seq(d, [*chain, cover]) == path_abstract(d, cover)
    _ok(4, "subset-first collapse chains match direct collapse on 500 models")


def test_criterion_5_oracle_equivalence_200_models():
    rng = random.Random(5001)
    tolerance = Fraction(1, 2**32)
    pairs_checked = 0
    for _ in range(200):
        d, s1 = random_fast_exit_instance(rng, rng.randint(2, 6))
        fr = frontier(d, s1)
        collapsed = path_abstract(d, s1)
        for s in sorted(fr.entries & fr.reaching):
            for t in sorted(fr.exits):
                exact = collapsed.prob(s, t)
                approx = local_reach_prob_bounded(d, s, s1, t, 64)
                assert approx <= exact
                assert exact - approx <= tolerance
                pairs_checked += 1
    assert pairs_checked >= 200
    for _ in range(100):
        d, s1 = random_acyclic_inside_instance(rng, rng.randint(2, 6))
        fr = frontier(d, s1)
        collapsed = path_abstract(d, s1)
        for s in sorted(fr.entries & fr.reaching):
            for t in sorted(fr.exits):
                assert local_reach_prob_bounded(
                    d, s, s1, t, len(s1)
                ) == collapsed.prob(s, t)
    _ok(5, "hop-bounded sums within 2^-32 at k=64; exact on acyclic interiors")


def test_criterion_6_word_laws_1000_cases_each():
    rng = random.Random(6001)

    def draw_word(n, limit=10):
        return tuple(rng.randint(1, n) for _ in range(rng.randint(0, limit)))

    def draw_subset(n, pool=None):
        pool = sorted(pool) if pool is not None else list(range(1, n + 1))
        return frozenset(rng.sample(pool, rng.randint(0, len(pool))))

    for _ in range(1000):  # prefix monotonicity
        n = rng.randint(1, 6)
        word, subset = draw_word(n), draw_subset(n)
        cut = rng.randint(0, len(word))
        shorter, longer = minus(word[:cut], subset), minus(word, subset)
        assert longer[: len(shorter)] == shorter

    checked = attempts = 0
    while checked < 1000:  # splice law
        attempts += 1
        assert attempts < 50000
        n = rng.randint(1, 6)
        head, tail, subset = draw_word(n, 8), draw_word(n, 8), draw_subset(n)
        junction = rng.randint(1, n)
        if head and head[-1] in subset and junction in subset:
            continue
        left = head + (junction,)
        assert minus(left + tail, subset) == splice(
            minus(left, subset), minus((junction, *tail), subset)
        )
        checked += 1

    for _ in range(1000):  # collapse law: subset then superset
        n = rng.randint(1, 6)
        word, big = draw_word(n), draw_subset(n)
        small = draw_subset(n, big)
        assert minus_seq(word, [small, big]) == minus(word, big)

    for _ in range(1000):  # bounded preimage splice
        n = rng.randint(1, 5)
        head, tail, subset = draw_word(n, 2), draw_word(n, 2), draw_subset(n)
        junction = rng.randint(1, n)
        left, right = head + (junction,), (junction, *tail)
        whole = left + tail
        bound = len(whole) + 2
        spliced = {
            splice(u, v)
            for u in preimage_min_bounded(left, subset, bound)
            for v in preimage_min_bounded(right, subset, bound)
            if len(u) + len(v) - 1 <= bound
        }
        assert spliced == preimage_min_bounded(whole, subset, bound)

    for _ in range(1000):  # bounded preimage partition
        n = rng.randint(1, 5)
        word, big = draw_word(n, 3), draw_subset(n)
        small = draw_subset(n, big)
        bound = len(word) + 2
        whole = preimage_min_bounded(word, big, bound)
        anchors = [y for y in sorted(whole) if minus(y, small) == y]
        parts = [preimage_min_bounded(y, small, bound) for y in anchors]
        union = set().union(*parts) if parts else set()
        assert union == whole
        assert sum(len(p) for p in parts) == len(union)

    latin = {c: i for i, c in enumerate("abcdefghijklmnopqrstuvwxyz", 1)}
    w = lambda text: tuple(latin[c] for c in text)
    sub = frozenset(w("break"))
    assert minus(w("error"), sub) == w("eor")
    assert minus(w("spacebar"), sub) == w("space")
    assert preimage_min_bounded(w("coffee"), sub, 12) == set()
    _ok(6, "five collapse laws hold on 1000 cases each plus the text examples")


def test_criterion_7_matrix_power_identity_200_instances():
    rng = random.Random(7001)
    for _ in range(200):
        n = rng.randint(2, 6)
        d = random_dtmc(rng, n)
        s1 = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(4, n))))
        s = rng.choice(sorted(s1))
        r = rng.choice(sorted(s1))
        for i in range(1, 7):
            assert submatrix_power_entry(d, s1, i, s, r) == enumerated_walk_prob(
                d, s, s1, r, i
            )
    _ok(7, "restricted matrix powers equal enumerated walk masses up to i=6")


def test_criterion_8_robustness():
    me = me_dtmc()
    # collapsing across a trapping component loses mass, never raises
    trapped = path_abstract(me, {5, 6, 7})
    validate(trapped)
    assert row_sum(trapped, 7) == 0
    rng = random.Random(8001)
    for _ in range(50):
        d = random_dtmc(rng, rng.randint(3, 7))
        loop = rng.randint(1, d.n)  # plant a one-state trapping component
        transitions = {(s, t): p for s, t, p in d.transitions() if s != loop}
        transitions[loop, loop] = 1
        planted = Dtmc.from_transitions(d.n, d.init, transitions)
        subset = random_subset(rng, planted.states(), allow_empty=False) | {loop}
        collapsed = path_abstract(planted, subset)
        validate(collapsed)
        assert all(row_sum(collapsed, s) <= 1 for s in collapsed.states())

    # a subset equal to its interior, which has no entry to anchor on, is
    # collapsed like one that something enters
    unentered = Dtmc.from_transitions(
        4, 1, {(1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 4): 1}
    )
    assert frontier(unentered, {2, 3}).entries == frozenset()
    assert abstract_recursive(unentered, {2, 3}) == path_abstract(unentered, {2, 3})
    entered = Dtmc.from_transitions(
        4,
        1,
        {(1, 2): "1/2", (1, 4): "1/2", (2, 3): 1, (3, 2): "1/2", (3, 4): "1/2", (4, 4): 1},
    )
    assert frontier(entered, {2, 3}).entries == frozenset({2})
    assert abstract_recursive(entered, {2, 3}) == path_abstract(entered, {2, 3})

    # absorbing self-loops survive the full collapse
    assert non_absorbing(me) == K
    final = path_abstract(me, K)
    assert final.prob(7, 7) == 1
    assert final.prob(8, 8) == 1
    _ok(8, "trapping subsets stay silent, recursion guard exact, loops kept")


def test_criterion_9_round_trip_and_determinism():
    rng = random.Random(9001)
    for _ in range(100):
        n = rng.randint(1, 8)
        d = random_dtmc(rng, n)
        text = serialize(d)
        assert parse(text) == d
        assert serialize(parse(text)) == text
    runs = [
        subprocess.run(
            [sys.executable, "-m", "pathfold", "check", str(EXAMPLE), "--goal", "7,8"],
            capture_output=True,
            check=True,
            env=PACKAGE_ENV,
        ).stdout
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2] == b"7 5/9\n8 4/9\ntotal 1/1\n"
    _ok(9, "100 canonical round trips and byte-identical command output")
