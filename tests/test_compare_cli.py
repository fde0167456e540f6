"""The exactness gate ``tools/compare_cli.py``, run on two source trees
without git: an unchanged copy shows no difference, a planted change does."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import compare_cli  # noqa: E402

CALLS = compare_cli.build_calls()


@pytest.fixture(scope="module")
def ours(tmp_path_factory):
    """This checkout's outcome of every call, computed once."""
    argvs = compare_cli.model_argvs(CALLS, tmp_path_factory.mktemp("models"))
    return compare_cli.outcomes(ROOT / "src", argvs)


def _copy(tmp_path: Path, cli_tail: str = "") -> Path:
    """A copy of ``src/`` whose ``pathfold/cli.py`` ends with ``cli_tail``."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "pathfold" / "cli.py"
    cli.write_text(cli.read_text() + cli_tail)
    return src


def test_the_call_list_reaches_every_command_and_exit_code(ours):
    assert len(CALLS) >= 1000
    assert {call.argv[0] for call in CALLS} >= {"check", "abstract", "refine"}
    flags = {flag for call in CALLS for flag in call.argv if flag.startswith("--")}
    assert flags >= {"--json", "--prune", "--concretize", "--method"}
    assert {m for call in CALLS for m in call.argv} >= set(compare_cli.METHODS)
    assert len(ours) == len(CALLS)
    assert {code for code, _, _ in ours} == {0, 1, 2, 3}
    # the model bytes reach the CLI as given, a byte that is not UTF-8 too
    (not_utf8,) = [o for call, o in zip(CALLS, ours) if call.model == "not-utf-8"]
    assert not_utf8[:2] == [1, ""]
    assert not_utf8[2].startswith("error: 'utf-8' codec can't decode byte 0xff")
    # a comment holding a line separator leaves the worked example as it is
    example = {call.argv: o for call, o in zip(CALLS, ours) if call.model == "example8"}
    commented = [(c, o) for c, o in zip(CALLS, ours) if c.model.startswith("comment-")]
    assert len(commented) == 16
    assert all(o == example[call.argv] and o[0] == 0 for call, o in commented)
    # only spaces and tabs are blanks: any other whitespace fails a model
    # line with exit 1 and a value with exit 2, and tabs and runs of spaces
    # give the worked example's outputs
    blanks = [(c, o) for c, o in zip(CALLS, ours) if c.model.startswith("blank-")]
    codes = {"line": 1, "value": 2}
    rejected = [(c, o) for c, o in blanks if c.model != "blank-accepted"]
    assert len(rejected) == 3 * 4 + 15 * 4 + 1
    for call, (code, out, err) in rejected:
        assert (code, out) == (codes[call.model.split("-")[1]], ""), call
        assert err.startswith("error: ")
    accepted = [(c, o) for c, o in blanks if c.model == "blank-accepted"]
    assert len(accepted) == len(example)
    unpadded = str.maketrans("", "", " \t")
    for call, o in accepted:
        plain = tuple(a.translate(unpadded) for a in call.argv)
        assert plain != call.argv and o == example[plain]
    assert {o[0] for _, o in accepted} == {0, 2, 3}


def test_an_unchanged_copy_shows_no_difference(tmp_path):
    assert compare_cli.compare(_copy(tmp_path), ROOT / "src", CALLS) == []


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


def test_a_copy_that_patches_the_standard_library_on_import_is_caught(tmp_path):
    # the old tree must print through its own json.dumps, not the patched one
    tail = "\nimport functools\njson.dumps = functools.partial(json.dumps, indent=1)\n"
    diffs = compare_cli.compare(ROOT / "src", _copy(tmp_path, tail), CALLS[::4])
    assert diffs
    assert all(" --json: stdout " in line for line in diffs)


def test_a_tree_that_fails_to_import_raises_with_its_stderr(tmp_path):
    src = _copy(tmp_path, "\nraise ImportError('planted at import')\n")
    with pytest.raises(RuntimeError, match="planted at import"):
        compare_cli.compare(src, ROOT / "src", CALLS[:2])


def test_a_child_that_returns_fewer_results_than_calls_raises(tmp_path):
    # an empty result list would zip to no difference at all
    src = _copy(tmp_path, "\nimport os\nmain = lambda argv: os._exit(0)\n")
    argvs = compare_cli.model_argvs(CALLS[:2], tmp_path)
    with pytest.raises(RuntimeError, match="exit 0, 0 results for 2 calls"):
        compare_cli.outcomes(src, argvs)
