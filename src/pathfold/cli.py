"""Plain-text chain format and the command-line interface.

Model files look like::

    # optional comments
    dtmc <n> <init>
    <src> <dst> <prob>

One transition per line; ``prob`` is ``p/q`` or the bare integers 0 or 1;
pairs not listed carry probability zero.  Serialization is canonical --
positive entries sorted by source then destination, probabilities always
in ``p/q`` lowest terms -- so parse and serialize round-trip bit for bit
on canonical input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .abstraction import path_abstract, prune_isolated
from .checker import (
    METHODS,
    GoalNotAbsorbingError,
    InitIsGoalError,
    InvalidSequenceError,
    concretize_witness,
    model_check,
    refine,
)
from .core import Dtmc, DtmcError, ValidationError, decimal_str, validate


class ModelFormatError(DtmcError):
    """Malformed model text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModelSyntaxError(ModelFormatError):
    pass


class DuplicateTransitionError(ModelFormatError):
    pass


class ProbabilityOutOfRangeError(ModelFormatError):
    pass


_INT = re.compile(r"^[0-9]+$")
_PROB = re.compile(r"^[0-9]+/[0-9]+$|^[01]$")


def _fraction(token: str, what: str) -> Fraction:
    """``p/q``, 0 or 1 as a fraction; a ValueError names ``what`` otherwise."""
    if not _PROB.match(token):
        raise ValueError(f"bad {what} {token!r} (want p/q, 0 or 1)")
    if "/" in token and token.split("/")[1].strip("0") == "":
        raise ValueError(f"zero denominator in {what} {token!r}")
    return Fraction(token)


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError as exc:  # more digits than the int-string limit
        raise ModelSyntaxError(line, str(exc)) from None


def _parse_prob(token: str, line: int) -> Fraction:
    try:
        value = _fraction(token, "probability")
    except ValueError as exc:
        raise ModelSyntaxError(line, str(exc)) from None
    if value > 1:
        raise ProbabilityOutOfRangeError(line, f"probability {token} exceeds 1")
    return value


def parse(text: str) -> Dtmc:
    """Parse model text; the result always satisfies :func:`core.validate`.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and at no other character,
    so a form feed or U+2028 inside a comment stays in the comment, and
    error messages count lines the same way for all three."""
    header: tuple[int, int] | None = None
    entries: dict[tuple[int, int], Fraction] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if header is None:
            if (
                len(tokens) != 3
                or tokens[0] != "dtmc"
                or not (_INT.match(tokens[1]) and _INT.match(tokens[2]))
            ):
                raise ModelSyntaxError(
                    line_no, f"expected 'dtmc <n> <init>', got {stripped!r}"
                )
            header = (_parse_int(tokens[1], line_no), _parse_int(tokens[2], line_no))
            if header[0] > sys.maxsize:
                raise ModelSyntaxError(line_no, f"state count exceeds {sys.maxsize}")
            continue
        if len(tokens) != 3:
            raise ModelSyntaxError(
                line_no, f"expected '<src> <dst> <prob>', got {stripped!r}"
            )
        if not (_INT.match(tokens[0]) and _INT.match(tokens[1])):
            raise ModelSyntaxError(
                line_no, "source and destination must be positive integers"
            )
        src, dst = _parse_int(tokens[0], line_no), _parse_int(tokens[1], line_no)
        n = header[0]
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ModelSyntaxError(
                line_no, f"state pair ({src},{dst}) out of range 1..{n}"
            )
        if (src, dst) in entries:
            raise DuplicateTransitionError(
                line_no, f"duplicate transition ({src},{dst})"
            )
        entries[(src, dst)] = _parse_prob(tokens[2], line_no)
    if header is None:
        raise ModelSyntaxError(0, "missing 'dtmc <n> <init>' header")
    d = Dtmc.from_transitions(header[0], header[1], entries)
    validate(d)
    return d


def serialize(d: Dtmc) -> str:
    """Canonical text form: header, then positive entries sorted by (src, dst)."""
    lines = [f"dtmc {d.n} {d.init}"]
    lines += [f"{s} {t} {_fmt(p)}" for s, t, p in d.transitions()]
    return "\n".join(lines) + "\n"


def _fmt(p: Fraction) -> str:
    return f"{decimal_str(p.numerator)}/{decimal_str(p.denominator)}"


def _fmt_path(path) -> str:
    return ",".join(str(s) for s in path)


def _parse_states_csv(text: str) -> list[int]:
    if not text.strip():
        return []
    return [_parse_state(chunk) for chunk in text.split(",")]


def _parse_state(text: str) -> int:
    text = text.strip()
    if not _INT.match(text):
        raise ValueError(f"bad state index {text!r}")
    return int(text)


def _parse_threshold(text: str) -> Fraction:
    text = text.strip()
    value = _fraction(text, "threshold")
    if value > 1:
        raise ValueError(f"threshold {text} exceeds 1")
    return value


def _cmd_check(args: argparse.Namespace, d: Dtmc) -> int:
    goals = _parse_states_csv(args.goal)
    if not goals:
        raise ValueError("--goal needs at least one state")
    result = model_check(d, goals, method=args.method)
    ordered = sorted(result.per_goal.items())
    if args.json:
        payload = {str(g): _fmt(p) for g, p in ordered}
        payload["total"] = _fmt(result.total)
        print(json.dumps(payload))
    else:
        lines = [f"{g} {_fmt(p)}\n" for g, p in ordered]
        sys.stdout.write("".join(lines) + f"total {_fmt(result.total)}\n")
    return 0


def _cmd_abstract(args: argparse.Namespace, d: Dtmc) -> int:
    subset = _parse_states_csv(args.set)
    result = path_abstract(d, subset)
    header = ""
    if args.prune:
        result, mapping = prune_isolated(result)
        header = "".join(f"# map {old} -> {new}\n" for old, new in mapping.items())
    sys.stdout.write(header + serialize(result))
    return 0


def _cmd_refine(args: argparse.Namespace, d: Dtmc) -> int:
    threshold = _parse_threshold(args.threshold)
    seq = [
        _parse_states_csv(segment)
        for segment in args.seq.split(";")
        if segment.strip()
    ]
    if not seq:
        raise ValueError("--seq needs at least one abstraction set")
    report = refine(d, _parse_state(args.target), threshold, seq)
    if report.violated:
        line = (
            f"VIOLATED step={len(report.trace) - 1}"
            f" path={_fmt_path(report.witness_path)}"
            f" prob={_fmt(report.witness_prob)}"
        )
    else:
        line = f"OK best={_fmt(report.witness_prob)}"
    if args.concretize and report.witness_path:
        concrete = concretize_witness(d, report.trace, report.witness_path)
        line += f" concrete={_fmt_path(concrete)}"
    print(line)
    return 3 if report.violated else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfold",
        description=(
            "Exact reachability analysis for discrete-time Markov chains "
            "by collapsing state subsets."
        ),
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    check = sub.add_parser(
        "check", help="reachability probabilities of absorbing goal states"
    )
    check.add_argument("file", help="model file")
    check.add_argument(
        "--goal", required=True, help="comma-separated absorbing goal states"
    )
    check.add_argument("--method", choices=METHODS, default="direct")
    check.add_argument("--json", action="store_true", help="emit one JSON object")
    check.set_defaults(run=_cmd_check)

    abstract = sub.add_parser(
        "abstract", help="collapse a state subset and print the resulting model"
    )
    abstract.add_argument("file", help="model file")
    abstract.add_argument(
        "--set", required=True, help="comma-separated states to collapse"
    )
    abstract.add_argument(
        "--prune",
        action="store_true",
        help="drop isolated non-initial states, noting the renumbering in comments",
    )
    abstract.set_defaults(run=_cmd_abstract)

    refine_cmd = sub.add_parser(
        "refine", help="threshold check along a sequence of collapse steps"
    )
    refine_cmd.add_argument("file", help="model file")
    refine_cmd.add_argument("--target", required=True)
    refine_cmd.add_argument("--threshold", required=True, help="p/q, 0 or 1")
    refine_cmd.add_argument(
        "--seq",
        required=True,
        help="semicolon-separated list of comma-separated state sets",
    )
    refine_cmd.add_argument(
        "--concretize",
        action="store_true",
        help="also print the witness expanded back into the original model",
    )
    refine_cmd.set_defaults(run=_cmd_refine)
    return parser


# The one parser of this process, built when the module is imported; each
# ``parse_args`` fills a fresh namespace, so no flag outlives a call.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # one read of the bytes; parse ends a line at \r\n or \r too, so no
        # newline translation is needed
        d = parse(Path(args.file).read_bytes().decode("utf-8"))
    except (OSError, UnicodeDecodeError, ModelFormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args, d)
    except (
        GoalNotAbsorbingError,
        InitIsGoalError,
        InvalidSequenceError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
