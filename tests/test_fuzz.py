"""Fuzzing of the text format and the command line: malformed input is
rejected with a typed error and its documented exit code, never with an
uncaught exception."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_goal_model, random_substochastic
from pathfold.checker import METHODS
from pathfold.cli import ModelFormatError, main, parse, serialize
from pathfold.core import ValidationError

# A header of n states costs n-entry ``rows`` and ``succ`` tuples, and n
# entries per row that has an entry, so every generated header names at
# most this many states, or more than any index, which parse rejects before
# it allocates anything.
MAX_STATES = 40

# with the characters other than \n and \r that str.splitlines() ends a
# line at, which parse reads as whitespace inside a line
TOKENS = ["dtmc", "#", "0", "1", "2", "3", "7", "40", "1/2", "2/3", "1/3",
          "3/2", "1/0", "0/1", "-1", "+1", "1.5", "٧", "x", "", " ",
          "99999999999999999999",
          "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _small_headers(text: str) -> bool:
    """True when no line of ``text`` could be read as a header naming more
    than :data:`MAX_STATES` states and fewer than ``2**63``.  Lines end
    where parse ends them: at ``\\n``, ``\\r\\n`` or ``\\r``."""
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        tokens = line.split("#", 1)[0].split()
        if len(tokens) == 3 and tokens[0] == "dtmc" and tokens[1].isdecimal():
            count = int(tokens[1])
            if (len(tokens[1]) > 2 or count > MAX_STATES) and count < 2**63:
                return False
    return True


@st.composite
def models(draw):
    """Model text with its state count and absorbing states: arbitrary
    text, a valid model, a valid model with lines of arbitrary text or of
    format-like tokens spliced in, or one whose header names more states
    than any index."""
    kinds = ["arbitrary", "spliced", "huge", "valid", "valid", "valid"]
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 8))
    if kind == "arbitrary":
        return draw(st.text(max_size=200).filter(_small_headers)), n, []
    rng = random.Random(draw(st.integers(0, 2**32)))
    if n >= 3 and draw(st.integers(0, 2)):
        d, goals = random_goal_model(rng, n)
    else:
        d = random_substochastic(rng, n)
        goals = [s for s in d.states() if d.prob(s, s) == 1]
    lines = serialize(d).splitlines()
    if kind == "huge":
        lines[0] = f"dtmc {draw(st.integers(2**63, 10**30))} {d.init}"
    if kind == "spliced":
        for _ in range(draw(st.integers(1, 3))):
            junk = draw(
                st.text(max_size=30)
                | st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)
            )
            lines.insert(draw(st.integers(0, len(lines))), junk)
    text = "\n".join(lines) + "\n"
    return (text if _small_headers(text) else "dtmc 1 1\n"), n, goals


# A word starting with "-" may abbreviate --help, which exits 0 by design.
VALUES = st.text(max_size=8).filter(lambda s: not s.startswith("-"))


def _states(draw, n, preferred=()):
    """A comma-separated state list: often a few of ``preferred``, else
    mostly states of the model, sometimes out of range or not a number."""
    if preferred and draw(st.integers(0, 3)):
        picked = draw(st.lists(st.sampled_from(sorted(preferred)), min_size=1, max_size=3))
    else:
        items = st.one_of(st.integers(1, n), st.integers(0, n + 2), st.sampled_from(TOKENS))
        picked = draw(st.lists(items, max_size=4))
    return ",".join(map(str, picked))


@st.composite
def argvs(draw, n, goals):
    """``check`` / ``abstract`` / ``refine`` arguments for a model of ``n``
    states, mostly well-formed, sometimes with bad values or stray words."""
    command = draw(st.sampled_from(["check", "abstract", "refine"]))
    argv = [command, "MODEL"]
    if command == "check":
        argv += ["--goal", _states(draw, n, goals)]
        argv += ["--method", draw(st.sampled_from([*METHODS, *METHODS, "fast"]))]
        if draw(st.booleans()):
            argv.append("--json")
    elif command == "abstract":
        argv += ["--set", _states(draw, n)]
        if draw(st.booleans()):
            argv.append("--prune")
    else:
        transient = set(range(1, n + 1)) - set(goals)
        segments = [_states(draw, n, transient) for _ in range(draw(st.integers(0, 3)))]
        target = st.sampled_from(goals) if goals else st.integers(1, n)
        argv += ["--target", str(draw(st.one_of(target, target, st.integers(0, n + 2), VALUES)))]
        argv += ["--threshold", draw(st.sampled_from(
            ["0", "1/100", "1/2", "4/9", "1", "3/2", "1/0", "x"]
        ))]
        argv += ["--seq", ";".join(segments)]
        if draw(st.booleans()):
            argv.append("--concretize")
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(VALUES))
    return argv


@st.composite
def cli_cases(draw):
    """File bytes (a generated model or arbitrary bytes) and an argv."""
    text, n, goals = draw(models())
    data = text.encode()
    if draw(st.integers(0, 7)) == 0:
        data = draw(st.binary(max_size=200))
        if not _small_headers(data.decode("utf-8", "replace")):
            data = b"dtmc 1 1\n"
    return data, draw(argvs(n, goals))


@settings(max_examples=500)
@given(models().map(lambda m: m[0]))
def test_parse_raises_only_typed_errors(text):
    try:
        parse(text)
    except (ModelFormatError, ValidationError):
        pass


@settings(max_examples=400)
@given(cli_cases())
def test_main_returns_documented_codes(case):
    data, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.dtmc"
        model.write_bytes(data)
        argv = [str(model) if a == "MODEL" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                return
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
