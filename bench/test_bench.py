"""Checks on the benchmark itself: generators, references, trace, contract.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import families
import reference
from tracer import COUNT_METRICS, TARGETS, TIME_METRICS, Tracer
from worker import ROOT, run_calls
from workloads import SMOKE_CALLS, SMOKE_FILE, WORKLOADS

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
from pathfold import abstraction, cli  # noqa: E402

SMALL = [
    families.random_chain(3, 0, 12),
    families.birth_death(3, 0, 10),
    families.ladder(3, 0, 3),
    families.wide_chain(3, 0, 60, 12),
]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write(case, tmp_path: Path) -> str:
    path = tmp_path / f"{case.name}.dtmc"
    path.write_text(case.text())
    return str(path)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    first, again, other = (WORKLOADS[workload](s) for s in (7, 7, 8))
    assert [(c.text(), c.calls) for c in first] == [(c.text(), c.calls) for c in again]
    assert [c.text() for c in first] != [c.text() for c in other]


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.family)
def test_small_cases_match_reference(case, tmp_path):
    op = run_calls(cli, case.argv(_write(case, tmp_path)))
    assert op["outputs"] == reference.expected(case)


def test_smoke_op_gives_the_worked_example():
    path = str(ROOT / SMOKE_FILE)
    op = run_calls(cli, [[path if a == families.FILE else a for a in c] for c in SMOKE_CALLS])
    assert op["outputs"] == [(0, reference.SMOKE_STDOUT)] * 3


def test_reference_solver_is_exact():
    a = [[F(1), F(-1, 2)], [F(-1, 3), F(1)]]
    b = [[F(1, 2), F(0)], [F(0), F(2, 3)]]
    x = reference.solve(a, b)
    for i in range(2):
        for k in range(2):
            assert sum(a[i][j] * x[j][k] for j in range(2)) == b[i][k]


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.family)
def test_trace_counts_repeat_exactly(case, tmp_path):
    path = _write(case, tmp_path)
    tracer = Tracer()
    original = cli.main
    runs = [run_calls(cli, case.argv(path), tracer) for _ in range(2)]
    assert cli.main is original, "wrappers must be removed after the op"
    assert tracer.missing == set()
    counts = [{k: op["layers"][k] for k in COUNT_METRICS} for op in runs]
    assert counts[0] == counts[1]
    assert counts[0]["abstraction.collapses"] >= 1
    assert counts[0]["core.nnz_in"] == len(case.entries) * len(case.calls)  # one parse per call
    for op in runs:
        assert op["outputs"] == reference.expected(case)
        assert all(op["layers"][k] >= 0 for k in TIME_METRICS)
        # On ops this small, argument parsing in ``main`` is a large share.
        assert 0 <= op["layers"]["trace.unattributed_ratio"] < 1


def test_ladder_trace_reaches_scc_and_checker(tmp_path):
    case = SMALL[2]
    op = run_calls(cli, case.argv(_write(case, tmp_path)), Tracer())
    layers = op["layers"]
    assert layers["scc.components"] > 0
    assert layers["checker.refine_steps"] == case.params["blocks"]
    assert layers["checker.witness_len"] == families.LADDER_BLOCK * case.params["blocks"] + 1
    assert layers["scc.strategy_s"] > 0 and layers["checker.concretize_s"] > 0


def _escapes(case, tmp_path: Path) -> dict[str, tuple[int, int]]:
    """Per time metric whose wrapped functions ran more often than their
    wrappers: (calls seen by a profiler, spans recorded)."""
    codes = {}
    for module, attr, metric, _ in TARGETS:
        owner = sys.modules[f"pathfold.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        codes[getattr(owner, "__func__", owner).__code__] = metric
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    tracer = Tracer()
    sys.setprofile(profile)
    try:
        run_calls(cli, case.argv(_write(case, tmp_path)), tracer)
    finally:
        sys.setprofile(None)
    spans = Counter(span[0] for span in tracer.spans)
    return {m: (calls[m], spans[m]) for m in calls if calls[m] != spans[m]}


def _unwrapped_prune(monkeypatch) -> None:
    """Bind ``cli``'s ``prune_isolated`` to a copy the tracer does not know,
    as a refactor that re-binds it under another object would."""
    raw = abstraction.prune_isolated
    copy = types.FunctionType(raw.__code__, raw.__globals__, raw.__name__)
    monkeypatch.setattr(cli, "prune_isolated", copy)


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.family)
def test_every_call_of_a_wrapped_function_is_traced(case, tmp_path):
    assert _escapes(case, tmp_path) == {}


def test_an_escaped_call_is_caught(tmp_path, monkeypatch):
    _unwrapped_prune(monkeypatch)
    assert _escapes(SMALL[3], tmp_path) == {"abstraction.prune_isolated_s": (1, 0)}


def test_an_escaped_call_raises_the_unattributed_share(tmp_path, monkeypatch):
    case = families.wide_chain(3, 0, 150, 16)
    path = _write(case, tmp_path)
    traced = run_calls(cli, case.argv(path), Tracer())["layers"]
    _unwrapped_prune(monkeypatch)
    escaped = run_calls(cli, case.argv(path), Tracer())["layers"]
    assert escaped["abstraction.prune_isolated_s"] == 0
    share = traced["abstraction.prune_isolated_s"] / sum(traced[m] for m in TIME_METRICS)
    assert share > 0.05 and traced["trace.unattributed_ratio"] < 0.1
    assert (escaped["trace.unattributed_ratio"]
            > traced["trace.unattributed_ratio"] + share / 2)


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-random",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_the_contract(trace):
    done = _run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout
