"""The exactness gate ``tools/compare_cli.py``, run on two source trees
without git: an unchanged copy shows no difference, a planted change does."""

import shutil
import sys
from pathlib import Path

import pathfold.cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import compare_cli  # noqa: E402

CALLS = compare_cli.build_calls()


def _copy(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_the_call_list_reaches_every_command_and_exit_code(tmp_path):
    assert len(CALLS) >= 1000
    assert {call.argv[0] for call in CALLS} >= {"check", "abstract", "refine"}
    flags = {flag for call in CALLS for flag in call.argv if flag.startswith("--")}
    assert flags >= {"--json", "--prune", "--concretize", "--method"}
    assert {m for call in CALLS for m in call.argv} >= set(compare_cli.METHODS)
    modules = compare_cli.load(ROOT / "src")
    codes = set()
    path = tmp_path / "model.dtmc"
    for call in CALLS:
        if call.text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(call.text)
        argv = [str(path) if a == compare_cli.FILE else a for a in call.argv]
        codes.add(compare_cli.run(modules, argv)[0])
    assert codes == {0, 1, 2, 3}


def test_an_unchanged_copy_shows_no_difference(tmp_path):
    assert compare_cli.compare(_copy(tmp_path), ROOT / "src", CALLS) == []
    # both trees were loaded aside: this process still has its own package
    assert sys.modules["pathfold.cli"] is pathfold.cli


def test_a_copy_whose_model_check_halves_the_total_is_caught(tmp_path):
    src = _copy(tmp_path)
    checker = src / "pathfold" / "checker.py"
    exact = "sum(per_goal.values(), Fraction(0))"
    assert exact in checker.read_text()
    checker.write_text(checker.read_text().replace(exact, f"{exact} / 2"))
    diffs = compare_cli.compare(ROOT / "src", src, CALLS[::4])
    assert diffs
    assert all(" check " in line and ": stdout " in line for line in diffs)
    assert any("--json" in line for line in diffs)
