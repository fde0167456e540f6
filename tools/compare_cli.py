"""Exactness gate: this checkout's CLI against the CLI at a git revision.

    python tools/compare_cli.py --against HEAD~1

Extracts ``src/`` at the revision with ``git archive`` into a temporary
directory and runs that tree's ``pathfold.cli.main`` and this checkout's,
each in a child interpreter of its own that imports nothing else of the
project, on the same seeded list of calls:

* small models of the benchmark families (``bench/families.py``, imported
  read-only), with the calls the benchmark makes on them;
* the 12-block ladder the benchmark's refine-ladder workload runs, with its
  two calls;
* long folds: nested cycles 40 and 120 levels deep under each method, and
  a 40-block ladder with the benchmark's two calls and ``check --method
  scc``;
* lattices whose routes all tie, through ``refine --concretize``;
* the random models and nested cycles of ``tests/helpers.py``;
* the worked 8-state example;
* invalid inputs and calls that exit 1 and 2.

Every model gets ``check`` with each method, with and without ``--json``,
``abstract`` with and without ``--prune``, and ``refine`` with and without
``--concretize``.  Standard output, standard error and the exit code of each
call must be identical.  The two children share no module, so a tree that
patches the standard library on import changes only its own outputs, and
each runs under its own hash seed, so an output that follows set order
shows as a difference too.  Prints the number of calls and every
difference, and exits 1 on any difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _dir in ("src", "tests", "bench"):
    if str(ROOT / _dir) not in sys.path:
        sys.path.append(str(ROOT / _dir))

import families  # noqa: E402
import helpers  # noqa: E402

FILE = families.FILE
METHODS = ("direct", "scc", "recursive")
SEED = 12


@dataclass(frozen=True)
class Call:
    """One CLI call: ``argv`` names the model file as :data:`FILE`; a call
    whose ``text`` is None gets a path where no file exists."""

    model: str
    text: str | None
    argv: tuple[str, ...]


def _text(n: int, init: int, entries) -> str:
    lines = [f"dtmc {n} {init}"]
    lines += [f"{s} {t} {p.numerator}/{p.denominator}" for s, t, p in entries]
    return "\n".join(lines) + "\n"


def _csv(states) -> str:
    return ",".join(map(str, sorted(states)))


def _model_calls(rng: random.Random, name: str, d) -> list[Call]:
    """``check`` on the absorbing states, ``abstract`` on two random subsets
    and ``refine`` along a random sequence of non-absorbing subsets, each
    with and without its flag."""
    text = _text(d.n, d.init, sorted(d.transitions()))
    absorbing = [s for s in d.states() if d.prob(s, s) == 1]
    moving = [s for s in d.states() if s not in absorbing]
    argvs = []
    goals = _csv(absorbing or rng.sample(list(d.states()), 1))
    for method in METHODS:
        argvs += [
            ("check", FILE, "--goal", goals, "--method", method),
            ("check", FILE, "--goal", goals, "--method", method, "--json"),
        ]
    for _ in range(2):
        subset = _csv(helpers.random_subset(rng, d.states(), allow_empty=False))
        abstract = ("abstract", FILE, "--set", subset)
        argvs += [abstract, (*abstract, "--prune")]
    target = str(rng.choice(absorbing or list(d.states())))
    steps = [helpers.random_subset(rng, moving) for _ in range(rng.randint(1, 3))]
    seq = ";".join(_csv(s) for s in steps if s) or _csv(moving) or "1"
    for threshold in ("0", f"1/{rng.randint(2, 40)}"):
        refine = ("refine", FILE, "--target", target, "--threshold", threshold)
        argvs += [(*refine, "--seq", seq), (*refine, "--seq", seq, "--concretize")]
    return [Call(name, text, argv) for argv in argvs]


def _family_cases(seed: int) -> list:
    cases = [families.random_chain(seed, i, n) for i, n in enumerate(range(6, 15))]
    cases += [families.birth_death(seed, i, n) for i, n in enumerate(range(3, 13, 2))]
    cases += [families.ladder(seed, i, b) for i, b in enumerate((1, 1, 2, 2, 3))]
    cases += [families.wide_chain(seed, i, n, 4) for i, n in enumerate((30, 36, 42))]
    return cases


def _helper_models(rng: random.Random) -> list[tuple[str, object]]:
    models = []
    for kind, make in sorted(helpers.MODELS.items()):
        models += [(f"{kind}-{i}", make(rng, rng.randint(2, 9))) for i in range(6)]
    for i in range(24):
        d, _ = helpers.random_goal_model(rng, rng.randint(3, 10))
        models.append((f"goal-{i}", d))
    models += [(f"nested-{n}", helpers.nested_cycle(n)) for n in range(1, 9)]
    return models


def _tied_routes(k: int) -> list[Call]:
    """A k x k lattice walked right or down with probability 1/2 each, off
    the far edges into an absorbing fail state: every route from the first
    corner to the last has the same probability, so the witness searches
    of ``refine --concretize`` are settled by their tie-break alone."""
    n = k * k + 2
    fail, goal = n - 1, n
    transitions = {(fail, fail): 1, (goal, goal): 1, (k * k, goal): 1}
    for i in range(k):
        for j in range(k):
            if (i, j) == (k - 1, k - 1):
                continue
            s = i * k + j + 1
            transitions[s, s + k if i + 1 < k else fail] = "1/2"
            transitions[s, s + 1 if j + 1 < k else fail] = "1/2"
    d = helpers.Dtmc.from_transitions(n, 1, transitions)
    text = _text(d.n, d.init, d.transitions())
    rows = ";".join(_csv(range(i * k + 1, i * k + k + 1)) for i in range(k))
    diagonals = ";".join(
        _csv(i * k + j + 1 for i in range(k) for j in range(k) if i + j == t)
        for t in range(2 * k - 1)
    )
    argvs = []
    for seq in (rows, diagonals, _csv(range(1, k * k + 1))):
        for threshold in ("0", "1"):
            refine = ("refine", FILE, "--target", str(goal), "--threshold", threshold)
            argvs.append((*refine, "--seq", seq, "--concretize"))
    return [Call(f"tied-routes-{k}", text, argv) for argv in argvs]


def _long_folds() -> list[Call]:
    """Calls whose collapses run along sequences of 40 to 120 subsets."""
    calls = []
    for depth in (40, 120):
        d = helpers.nested_cycle(depth)
        text = _text(d.n, d.init, d.transitions())
        goals = f"{depth + 2},{depth + 3}"
        for method in METHODS:
            argv = ("check", FILE, "--goal", goals, "--method", method)
            calls.append(Call(f"nested-{depth}", text, argv))
    ladder = families.ladder(SEED, 6, 40)
    goals = f"{ladder.params['fail']},{ladder.params['goal']}"
    argvs = [*ladder.calls, ("check", FILE, "--goal", goals, "--method", "scc")]
    return calls + [Call(ladder.name, ladder.text(), argv) for argv in argvs]


def _worked_example() -> list[Call]:
    text = (ROOT / "tests" / "data" / "example8.dtmc").read_text()
    argvs = []
    for method in METHODS:
        argvs += [
            ("check", FILE, "--goal", "7,8", "--method", method),
            ("check", FILE, "--goal", "7,8", "--method", method, "--json"),
        ]
    # goals that keep less than their full mass: 4 after an absorbing 8,
    # and 4 and 3 together, where the smaller one is named
    argvs += [("check", FILE, "--goal", "8,4"), ("check", FILE, "--goal", "7,4,3")]
    for subset in (helpers.S0, helpers.S1, helpers.S2, helpers.K, {1, 2, 3, 4}):
        abstract = ("abstract", FILE, "--set", _csv(subset))
        argvs += [abstract, (*abstract, "--prune")]
    for threshold in ("4/9", "1/10", "1"):
        for seq in ("1,2,3,4", "2,5,6;3,4", "5,6;2,5,6;1,2,3,4,5,6"):
            refine = ("refine", FILE, "--target", "7", "--threshold", threshold)
            argvs += [(*refine, "--seq", seq), (*refine, "--seq", seq, "--concretize")]
    return [Call("example8", text, argv) for argv in argvs]


def _invalid() -> list[Call]:
    """Inputs rejected with exit 1 (unreadable or invalid model) or 2 (bad
    arguments for a valid model)."""
    check = ("check", FILE, "--goal", "2")
    bad_models = {
        "no-header": "1 2 1/1\n",
        "bad-header": "dtmc two 1\n",
        "empty": "",
        "bad-prob": "dtmc 2 1\n1 2 0.5\n",
        "prob-above-one": "dtmc 2 1\n1 2 3/2\n",
        "zero-denominator": "dtmc 2 1\n1 2 1/0\n",
        "row-sum-above-one": "dtmc 2 1\n1 2 2/3\n1 1 2/3\n2 2 1\n",
        "pair-out-of-range": "dtmc 2 1\n1 3 1\n",
        "duplicate": "dtmc 2 1\n1 2 1/2\n1 2 1/2\n2 2 1\n",
        "init-out-of-range": "dtmc 2 3\n1 2 1\n2 2 1\n",
        "short-line": "dtmc 2 1\n1 2\n",
    }
    calls = [Call(name, text, check) for name, text in bad_models.items()]
    calls.append(Call("missing-file", None, check))
    valid = "dtmc 3 1\n1 2 1/2\n1 3 1/2\n2 2 1\n3 1 1/3\n3 2 2/3\n"
    bad_argvs = [
        ("check", FILE, "--goal", "3"),
        ("check", FILE, "--goal", "2,3"),
        ("check", FILE, "--goal", "1,2"),
        ("check", FILE, "--goal", "4"),
        ("check", FILE, "--goal", ""),
        ("check", FILE, "--goal", "x"),
        ("check", FILE, "--goal", "2", "--method", "fast"),
        ("abstract", FILE, "--set", "0,1"),
        ("abstract", FILE),
        ("refine", FILE, "--target", "3", "--threshold", "1/2", "--seq", "1"),
        ("refine", FILE, "--target", "2", "--threshold", "3/2", "--seq", "1"),
        ("refine", FILE, "--target", "2", "--threshold", "1/2", "--seq", "1,2"),
        ("refine", FILE, "--target", "2", "--threshold", "1/2", "--seq", ";"),
        ("refine", FILE, "--target", "2", "--threshold", "1/2", "--seq", "4"),
        ("solve", FILE),
    ]
    calls += [Call("bad-args", valid, argv) for argv in bad_argvs]
    return calls


def build_calls() -> list[Call]:
    """The seeded call list, the same on every run."""
    rng = random.Random(SEED)
    calls = []
    for case in _family_cases(SEED):
        d = helpers.Dtmc.from_transitions(case.n, case.init, case.entries)
        calls += [Call(case.name, case.text(), call) for call in case.calls]
        calls += _model_calls(rng, case.name, d)
    for name, d in _helper_models(rng):
        calls += _model_calls(rng, name, d)
    ladder = families.ladder(SEED, 5, 12)
    calls += [Call(ladder.name, ladder.text(), call) for call in ladder.calls]
    calls += _long_folds()
    for k in (3, 5, 7):
        calls += _tied_routes(k)
    return calls + _worked_example() + _invalid()


def model_argvs(calls: list[Call], tmp: Path) -> list[list[str]]:
    """Each call's argv, naming its model written once into ``tmp``, or
    a path there where no file exists for a call without text."""
    paths: dict[str | None, str] = {None: str(tmp / "missing.dtmc")}
    argvs = []
    for call in calls:
        path = paths.get(call.text)
        if path is None:
            path = paths[call.text] = str(tmp / f"m{len(paths)}.dtmc")
            Path(path).write_text(call.text)
        argvs.append([path if a == FILE else a for a in call.argv])
    return argvs


# Reads the argv lists and binds its encoder and stdout before importing the
# tree, so a tree that rebinds ``json`` or ``sys`` on import cannot change
# how its results come back: one JSON line per call.
_RUNNER = """\
import contextlib, io, json, sys
argvs, encode, stdout = json.load(sys.stdin), json.JSONEncoder().encode, sys.stdout
sys.path.insert(0, sys.argv[1])
from pathfold.cli import main
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    print(encode([code, out.getvalue(), err.getvalue()]), file=stdout, flush=True)
"""


def outcomes(src: Path, argvs: list[list[str]]) -> list[list]:
    """Exit code, stdout and stderr of ``pathfold.cli.main(argv)`` for each
    argv, run by the source tree ``src`` in a child interpreter of its own.
    Raises ``RuntimeError`` with the child's stderr unless the child exits 0
    with one result per argv."""
    # -I: no PYTHONPATH, user site or working directory on the child's path
    child = subprocess.run(
        [sys.executable, "-I", "-c", _RUNNER, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True,
    )
    lines = child.stdout.splitlines()
    if child.returncode or len(lines) != len(argvs):
        raise RuntimeError(
            f"{src}: exit {child.returncode}, {len(lines)} results"
            f" for {len(argvs)} calls\n{child.stderr}"
        )
    return [json.loads(line) for line in lines]


def compare(old_src: Path, new_src: Path, calls: list[Call]) -> list[str]:
    """One line per call whose exit code, stdout or stderr differ."""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = model_argvs(calls, Path(tmp))
        old, new = outcomes(old_src, argvs), outcomes(new_src, argvs)
    diffs = []
    for i, (call, a, b) in enumerate(zip(calls, old, new)):
        for part, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                shown = " ".join(call.argv)
                diffs.append(f"{i} {call.model}: {shown}: {part} {x!r} != {y!r}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare")
    args = parser.parse_args(argv)
    calls = build_calls()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", args.against, "src"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        diffs = compare(Path(tmp) / "src", ROOT / "src", calls)
    for line in diffs:
        print(line)
    inputs = len({c.text for c in calls})
    print(
        f"{len(calls)} calls on {inputs} inputs against {args.against}:"
        f" {len(diffs)} differences"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
