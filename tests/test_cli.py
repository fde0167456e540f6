"""Text format parsing, canonical serialization, and the three commands."""

import errno
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import pathfold
from helpers import (
    PACKAGE_ENV,
    S1,
    is_stochastic,
    random_dtmc,
    random_substochastic,
    record_collapses,
    str_of_any_length,
)
from pathfold.abstraction import path_abstract
from pathfold.cli import (
    _PARSER,
    DuplicateTransitionError,
    ModelSyntaxError,
    ProbabilityOutOfRangeError,
    main,
    parse,
    serialize,
)
from pathfold.core import InitOutOfRangeError, RowSumExceedsOneError, validate

DATA = Path(__file__).parent / "data"
EXAMPLE = DATA / "example8.dtmc"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="this interpreter converts int strings of any length"
)


# --- parsing -----------------------------------------------------------------


def test_parse_worked_example_file(me):
    d = parse(EXAMPLE.read_text())
    assert d == me
    assert validate(d) is None
    assert is_stochastic(d)


def test_parse_accepts_bare_integers_and_comments():
    text = "# demo\ndtmc 2 1  # header\n1 2 1\n\n2 2 1\n"
    d = parse(text)
    assert d.prob(1, 2) == 1
    assert d.prob(2, 2) == 1


def test_parse_minimal_substochastic_model():
    d = parse("dtmc 1 1\n")
    assert d.n == 1
    assert validate(d) is None
    assert not is_stochastic(d)


def test_parse_allocates_only_the_rows_with_entries():
    # a dense table for this header would hold 9 M entries (138 MB)
    tracemalloc.start()
    try:
        d = parse("dtmc 3000 1\n1 2 1/2\n2 2 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert list(d.transitions()) == [(1, 2, Fraction(1, 2)), (2, 2, Fraction(1))]
    assert d.prob(3000, 3000) == 0


def test_parse_normalizes_probabilities():
    d = parse("dtmc 2 1\n1 2 2/4\n")
    assert d.prob(1, 2) == Fraction(1, 2)


def test_parse_rejects_probability_above_one():
    with pytest.raises(ProbabilityOutOfRangeError) as info:
        parse("dtmc 2 1\n1 2 3/2\n")
    assert info.value.line == 2


def test_parse_rejects_malformed_probability():
    for bad in ("0.5", "-1/2", "1/2/3", "x", "\u0661/\u0662", "\u0661"):
        with pytest.raises(ModelSyntaxError):
            parse(f"dtmc 2 1\n1 2 {bad}\n")


def test_parse_rejects_bare_integer_above_one():
    with pytest.raises(ModelSyntaxError):
        parse("dtmc 2 1\n1 2 2\n")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ModelSyntaxError):
        parse("dtmc 2 1\n1 2 1/0\n")


@needs_digit_limit
def test_parse_rejects_number_past_digit_limit():
    with pytest.raises(ModelSyntaxError) as info:
        parse("dtmc 2 1\n1 2 1/" + "1" * (DIGIT_LIMIT + 100) + "\n")
    assert info.value.line == 2
    with pytest.raises(ModelSyntaxError) as info:
        parse("dtmc 2 1\n2 2 1\n" + "1" * (DIGIT_LIMIT + 100) + " 2 1/2\n")
    assert info.value.line == 3


def test_parse_rejects_duplicate_transition():
    with pytest.raises(DuplicateTransitionError) as info:
        parse("dtmc 2 1\n1 2 1/2\n1 2 1/3\n")
    assert info.value.line == 3


def test_parse_rejects_missing_header():
    with pytest.raises(ModelSyntaxError):
        parse("1 2 1/2\n")
    with pytest.raises(ModelSyntaxError):
        parse("# only comments\n")


def test_parse_rejects_out_of_range_pair():
    with pytest.raises(ModelSyntaxError):
        parse("dtmc 2 1\n1 3 1/2\n")
    with pytest.raises(ModelSyntaxError):
        parse("dtmc 2 1\n0 1 1/2\n")


def test_parse_rejects_row_sum_above_one():
    with pytest.raises(RowSumExceedsOneError) as info:
        parse("dtmc 2 1\n1 1 2/3\n1 2 1/2\n")
    assert info.value.state == 1


def test_parse_rejects_init_out_of_range():
    with pytest.raises(InitOutOfRangeError):
        parse("dtmc 2 3\n")


# --- serialization --------------------------------------------------------------


def test_serialize_round_trips_canonical_file():
    text = EXAMPLE.read_text()
    assert serialize(parse(text)) == text


def test_serialize_collapse_contains_new_edge(me):
    out = serialize(path_abstract(me, S1))
    assert "2 3 4/5" in out.splitlines()
    assert "2 8 1/5" in out.splitlines()


def test_serialize_header_only_for_empty_chain():
    d = parse("dtmc 3 2\n")
    assert serialize(d) == "dtmc 3 2\n"


def test_round_trip_random_models():
    rng = random.Random(113)
    for _ in range(40):
        d = (
            random_dtmc(rng, rng.randint(1, 7))
            if rng.random() < 0.5
            else random_substochastic(rng, rng.randint(1, 7))
        )
        text = serialize(d)
        assert parse(text) == d
        assert serialize(parse(text)) == text


# --- commands --------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_command_golden_output(capsys):
    code, out, err = run(capsys, "check", str(EXAMPLE), "--goal", "7,8")
    assert code == 0 and err == ""
    assert out == "7 5/9\n8 4/9\ntotal 1/1\n"


def test_check_command_json(capsys):
    code, out, _ = run(capsys, "check", str(EXAMPLE), "--goal", "7,8", "--json")
    assert code == 0
    assert out == '{"7": "5/9", "8": "4/9", "total": "1/1"}\n'


@pytest.mark.parametrize("method", ["direct", "scc", "recursive"])
def test_check_command_is_method_independent(capsys, method):
    code, out, _ = run(
        capsys, "check", str(EXAMPLE), "--goal", "7", "--method", method
    )
    assert code == 0
    assert out == "7 5/9\ntotal 5/9\n"


def test_check_command_non_absorbing_goal_exits_2(capsys):
    code, _, err = run(capsys, "check", str(EXAMPLE), "--goal", "3")
    assert code == 2
    assert "not absorbing" in err


def test_check_command_init_goal_exits_2(capsys, tmp_path):
    model = tmp_path / "loop.dtmc"
    model.write_text("dtmc 2 1\n1 1 1\n2 2 1\n")
    code, _, err = run(capsys, "check", str(model), "--goal", "1")
    assert code == 2
    assert "goal" in err


def test_check_command_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.dtmc"
    for prob in ("3/2", "\u0661/\u0662"):
        bad.write_text(f"dtmc 2 1\n1 2 {prob}\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(bad), "--goal", "2")
        assert code == 1
        assert "line 2" in err


@needs_digit_limit
def test_check_command_number_past_digit_limit_exits_1(capsys, tmp_path):
    bad = tmp_path / "huge.dtmc"
    bad.write_text("dtmc 2 1\n1 2 1/" + "1" * (DIGIT_LIMIT + 100) + "\n")
    code, out, err = run(capsys, "check", str(bad), "--goal", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2: ")


def test_parse_rejects_a_state_count_above_any_index(capsys, tmp_path):
    # rejected on the header line before anything is allocated
    for count in (sys.maxsize + 1, 10**20):
        text = f"# too many states\ndtmc {count} 1\n1 1 1\n"
        with pytest.raises(ModelSyntaxError) as info:
            parse(text)
        assert info.value.line == 2
        model = tmp_path / "huge.dtmc"
        model.write_text(text)
        code, out, err = run(capsys, "check", str(model), "--goal", "1")
        assert (code, out) == (1, "")
        assert err == f"error: line 2: state count exceeds {sys.maxsize}\n"


def test_check_command_row_sum_too_long_for_str_exits_1(capsys, tmp_path):
    # every token is within the digit limit, but the row's sum is not
    b, d = 10**2200 + 1, 10**2200 + 3
    model = tmp_path / "long.dtmc"
    model.write_text(f"dtmc 2 1\n1 1 {b - 1}/{b}\n1 2 {d - 1}/{d}\n2 2 1\n")
    code, out, err = run(capsys, "check", str(model), "--goal", "2")
    total = Fraction(b - 1, b) + Fraction(d - 1, d)
    assert (code, out) == (1, "")
    assert err == f"error: row 1 sums to {str_of_any_length(total)} > 1\n"


def test_check_command_non_ascii_goal_exits_2(capsys):
    code, out, err = run(capsys, "check", str(EXAMPLE), "--goal", "\u0667,8")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _os_error(number: int, path: str) -> str:
    return f"error: [Errno {number}] {os.strerror(number)}: {path!r}\n"


def test_check_command_missing_file_exits_1(capsys, tmp_path):
    missing = str(tmp_path / "nope.dtmc")
    code, out, err = run(capsys, "check", missing, "--goal", "2")
    assert (code, out) == (1, "")
    assert err == _os_error(errno.ENOENT, missing)


def test_check_command_directory_or_empty_path_exits_1(capsys, tmp_path, monkeypatch):
    # an empty name is the working directory, as pathlib reads it
    monkeypatch.chdir(tmp_path)
    for path, shown in [(str(tmp_path), str(tmp_path)), (".", "."), ("", ".")]:
        code, out, err = run(capsys, "check", path, "--goal", "2")
        assert (code, out) == (1, "")
        assert err == _os_error(errno.EISDIR, shown)
    # pathlib drops a trailing slash, so the file is read
    code, out, _ = run(capsys, "check", f"{EXAMPLE}/", "--goal", "7,8")
    assert (code, out) == (0, "7 5/9\n8 4/9\ntotal 1/1\n")


def test_check_command_non_utf8_file_exits_1(capsys, tmp_path):
    # the position counts from the start of the file, also past io's 8 KiB
    # buffer, from whose start a decoder fed buffer by buffer would count
    model = b"dtmc 2 1\n1 2 1\n2 2 1\n"
    bad = tmp_path / "latin1.dtmc"
    for text in [b"# caf\xff\n" + model, model + b"# pad\n" * 4000 + b"# caf\xff\n"]:
        bad.write_bytes(text)
        code, out, err = run(capsys, "check", str(bad), "--goal", "2")
        assert (code, out) == (1, "")
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position"
            f" {text.index(0xFF)}: invalid start byte\n"
        )


READ_CALLS = [
    ("check", "--goal", "7,8"),
    ("check", "--goal", "7,8", "--json"),
    ("abstract", "--set", "2,5,6", "--prune"),
    ("refine", "--target", "7", "--threshold", "4/9", "--seq", "2,5,6;1,2,3,4",
     "--concretize"),
]


def test_crlf_and_lone_cr_line_endings_read_like_newlines(capsys, tmp_path):
    text = "# the worked example  \n\n" + EXAMPLE.read_text()
    bad = text + "# the next line is 19\n1 9 1/2\n"
    outputs = {}
    for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        model, broken = tmp_path / f"{name}.dtmc", tmp_path / f"{name}-bad.dtmc"
        model.write_bytes(text.replace("\n", end).encode())
        broken.write_bytes(bad.replace("\n", end).encode())
        outputs[name] = [
            run(capsys, cmd, str(model), *rest) for cmd, *rest in READ_CALLS
        ]
        code, out, err = run(capsys, "check", str(broken), "--goal", "7,8")
        assert (code, out) == (1, "")
        assert err == "error: line 19: state pair (1,9) out of range 1..8\n"
    assert outputs["crlf"] == outputs["lf"] == outputs["cr"]
    assert [code for code, _, _ in outputs["lf"]] == [0, 0, 0, 3]
    assert outputs["lf"][0][1] == "7 5/9\n8 4/9\ntotal 1/1\n"


# every character besides \n and \r at which str.splitlines() ends a line:
# VT, FF, FS, GS, RS, NEL, LINE SEPARATOR and PARAGRAPH SEPARATOR
OTHER_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_SEPARATORS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_a_comment_holding_another_line_separator_stays_a_comment(sep):
    # what follows the separator is still the comment, not a transition
    d = parse(f"dtmc 2 1\n# note{sep}1 2 1/2\n1 1 1/2\n2 2 1\n")
    assert d == parse("dtmc 2 1\n1 1 1/2\n2 2 1\n")
    assert d.prob(1, 2) == 0


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_nel_in_a_comment_moves_no_line_number(capsys, tmp_path, end):
    # the NEL in the comment ends no line, so the bad pair is on line 4
    text = end.join(["dtmc 2 1", "# a\x85b", "2 2 1", "1 3 1/2", ""])
    with pytest.raises(ModelSyntaxError) as info:
        parse(text)
    assert info.value.line == 4
    model = tmp_path / "nel.dtmc"
    model.write_bytes(text.encode())
    code, out, err = run(capsys, "check", str(model), "--goal", "2")
    assert (code, out) == (1, "")
    assert err == "error: line 4: state pair (1,3) out of range 1..2\n"


def test_abstract_command_collapse(capsys):
    code, out, _ = run(capsys, "abstract", str(EXAMPLE), "--set", "2,5,6")
    assert code == 0
    lines = out.splitlines()
    assert "2 3 4/5" in lines
    assert "2 8 1/5" in lines
    assert not any(line.startswith(("5 ", "6 ")) for line in lines)


def test_abstract_command_empty_set_echoes_canonically(capsys):
    code, out, _ = run(capsys, "abstract", str(EXAMPLE), "--set", "")
    assert code == 0
    assert out == EXAMPLE.read_text()


def test_abstract_command_refinement_set(capsys):
    code, out, _ = run(capsys, "abstract", str(EXAMPLE), "--set", "1,2,3,4")
    assert code == 0
    assert "1 7 13/27" in out.splitlines()


def test_abstract_command_prune(capsys):
    code, out, _ = run(
        capsys, "abstract", str(EXAMPLE), "--set", "2,5,6", "--prune"
    )
    assert code == 0
    lines = out.splitlines()
    # one line per kept state, ascending in the old index
    assert [line for line in lines if line.startswith("# map")] == [
        *(f"# map {s} -> {s}" for s in range(1, 5)),
        "# map 7 -> 5",
        "# map 8 -> 6",
    ]
    assert "dtmc 6 1" in lines
    # comments parse away, so the pruned output is loadable as-is
    pruned = parse(out)
    assert pruned.n == 6
    assert pruned.prob(2, 6) == Fraction(1, 5)


def test_abstract_command_out_of_range_set_exits_2(capsys):
    code, _, err = run(capsys, "abstract", str(EXAMPLE), "--set", "2,9")
    assert code == 2
    assert err


def test_refine_command_violation(capsys):
    code, out, _ = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "4/9",
        "--seq",
        "1,2,3,4",
    )
    assert code == 3
    assert out == "VIOLATED step=0 path=1,7 prob=13/27\n"


def test_refine_command_concretize(capsys):
    code, out, _ = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "4/9",
        "--seq",
        "1,2,3,4",
        "--concretize",
    )
    assert code == 3
    assert out == "VIOLATED step=0 path=1,7 prob=13/27 concrete=1,2,3,4,7\n"


def test_refine_concretize_collapses_once_per_step(capsys, monkeypatch):
    subsets = record_collapses(monkeypatch)
    code, out, _ = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "1",
        "--seq",
        "2,5,6;3,4;1,2,3,4,5,6",
        "--concretize",
    )
    assert code == 0
    assert out == "OK best=5/9 concrete=1,2,3,4,7\n"
    assert subsets == [{2, 5, 6}, {3, 4}, {1, 2, 3, 4, 5, 6}]


def test_main_reuses_one_parser_without_leaking_flags(capsys, monkeypatch):
    # main parses with the parser built at import and builds no other
    monkeypatch.setattr(pathfold.cli, "_build_parser", None)
    code, out, _ = run(capsys, "check", str(EXAMPLE), "--goal", "7,8", "--json")
    assert (code, out) == (0, '{"7": "5/9", "8": "4/9", "total": "1/1"}\n')
    code, out, _ = run(capsys, "check", str(EXAMPLE), "--goal", "7,8")
    assert (code, out) == (0, "7 5/9\n8 4/9\ntotal 1/1\n")
    argv = ["refine", str(EXAMPLE), "--target", "7", "--threshold", "4/9"]
    argv += ["--seq", "1,2,3,4"]
    violated = "VIOLATED step=0 path=1,7 prob=13/27"
    code, out, _ = run(capsys, *argv, "--concretize")
    assert (code, out) == (3, f"{violated} concrete=1,2,3,4,7\n")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (3, f"{violated}\n")
    assert pathfold.cli._PARSER is _PARSER


def test_refine_command_threshold_one_is_ok(capsys):
    code, out, _ = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "1",
        "--seq",
        "1,2,3,4;1,2,3,4,5,6",
    )
    assert code == 0
    assert out == "OK best=5/9\n"


def test_refine_command_three_step_sequence(capsys):
    code, out, _ = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "4/9",
        "--seq",
        "2,5,6;3,4;1,2,3,4,5,6",
    )
    assert code == 3
    assert out == "VIOLATED step=2 path=1,7 prob=5/9\n"


def test_refine_command_invalid_sequence_exits_2(capsys):
    code, _, err = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "7",
        "--threshold",
        "1/2",
        "--seq",
        "7,8",
    )
    assert code == 2
    assert "absorbing" in err


def test_refine_command_non_absorbing_target_exits_2(capsys):
    code, _, err = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "3",
        "--threshold",
        "1/2",
        "--seq",
        "2,5,6",
    )
    assert code == 2
    assert "not absorbing" in err


def test_refine_command_out_of_range_target_exits_2(capsys, tmp_path):
    model = tmp_path / "three.dtmc"
    model.write_text("dtmc 3 1\n1 2 1/2\n1 3 1/2\n2 2 1\n3 3 1\n")
    argv = ("refine", str(model), "--target", "9", "--threshold", "1/2", "--seq", "1")
    assert run(capsys, *argv) == (2, "", "error: state 9 out of range 1..3\n")


def test_refine_command_bad_threshold_exits_2(capsys):
    for bad in ("0.4", "1/0", "00/0"):
        code, _, err = run(
            capsys,
            "refine",
            str(EXAMPLE),
            "--target",
            "7",
            "--threshold",
            bad,
            "--seq",
            "2,5,6",
        )
        assert code == 2
        assert "threshold" in err


def _tiny_steps_chain(path: Path) -> None:
    """7 states: five 1/10^1000 steps from 1 to 6, the rest of each row to 7."""
    step = "1/1" + "0" * 1000
    rest = "9" * 1000 + "/1" + "0" * 1000
    lines = ["dtmc 7 1"]
    for s in range(1, 6):
        lines += [f"{s} {s + 1} {step}", f"{s} 7 {rest}"]
    lines += ["6 6 1", "7 7 1"]
    path.write_text("\n".join(lines) + "\n")


def test_huge_exact_answer_prints(capsys, tmp_path):
    model = tmp_path / "tiny.dtmc"
    _tiny_steps_chain(model)
    den = "1" + "0" * 5000
    to_6 = f"1/{den}"
    to_7 = f"{'9' * 5000}/{den}"

    code, out, err = run(capsys, "check", str(model), "--goal", "6,7")
    assert (code, err) == (0, "")
    assert out == f"6 {to_6}\n7 {to_7}\ntotal 1/1\n"

    code, out, err = run(capsys, "check", str(model), "--goal", "6,7", "--json")
    assert (code, err) == (0, "")
    assert out == f'{{"6": "{to_6}", "7": "{to_7}", "total": "1/1"}}\n'

    code, out, err = run(capsys, "abstract", str(model), "--set", "1,2,3,4,5")
    assert (code, err) == (0, "")
    assert f"1 6 {to_6}" in out.splitlines()
    assert f"1 7 {to_7}" in out.splitlines()


def test_refine_command_non_ascii_target_exits_2(capsys):
    code, out, err = run(
        capsys,
        "refine",
        str(EXAMPLE),
        "--target",
        "٧",
        "--threshold",
        "4/9",
        "--seq",
        "1,2,3,4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# --- package -----------------------------------------------------------------

_LOADED_MODULES = """
import sys
before = set(sys.modules)
import pathfold.cli
print(*sorted(name for name in sys.modules if name.split(".")[0] == "pathfold"))
print(*sorted(set(sys.modules) - before))
"""


def test_cli_import_loads_every_module_of_the_package():
    # the package holds only what the library and CLI need: a module that
    # importing the CLI leaves unloaded serves something else
    files = Path(pathfold.__file__).parent.glob("*.py")
    stems = {f.stem for f in files} - {"__init__", "__main__"}
    child = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES],
        capture_output=True,
        check=True,
        env=PACKAGE_ENV,
        text=True,
    )
    package, loaded = child.stdout.splitlines()
    assert package.split() == sorted(
        ["pathfold", *(f"pathfold.{stem}" for stem in stems)]
    )
    # every CLI process pays for its imports: a frozen dataclass compiles
    # its generated methods on each import, and dataclasses loads inspect
    assert {"dataclasses", "inspect"}.isdisjoint(loaded.split())
