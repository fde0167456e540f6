"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions of the ``pathfold`` modules
``cli``, ``core``, ``abstraction``, ``scc`` and ``checker`` with wrappers that
record one span (metric, start, end, parent, bookkeeping time) per call into
an in-memory list.  A wrapper is also bound under every other name that held
the original function in any ``pathfold`` module (``from .x import y``
copies), so calls through those names are traced too.  Per-entry helpers
such as ``Dtmc.prob`` are left alone: a wrapper would cost more than they do.

A span's self time is its duration minus the durations of its child spans
and minus the time its own count hook took, so bookkeeping is attributed to
no layer.  ``cli.main`` itself is not wrapped: the op is its call, and what
the named layers' self times leave of the op time is reported as the
unattributed share.  That share is ``main``'s own work (argument parsing,
reading the file, printing) plus the time of any function that escaped the
trace from there, so a re-binding that hides a layer from the wrappers
shows up as a rise.  An escape below a wrapped layer moves time into that
layer's self time instead; ``test_bench.py`` catches those by counting every
call of each wrapped function with a profiler.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable


def _count_parse(counts: Counter, args: tuple, result) -> None:
    counts["core.states"] += result.n
    counts["core.nnz_in"] += sum(1 for _ in result.transitions())


def _count_solve(counts: Counter, args: tuple, result) -> None:
    system = args[0]
    dim = len(system.a)
    counts["abstraction.solve_dim_sum"] += dim
    counts["abstraction.solve_dim_max"] = max(counts["abstraction.solve_dim_max"], dim)
    counts["abstraction.rhs_cols_sum"] += len(system.b[0]) if system.b else 0


def _count_collapse(counts: Counter, args: tuple, result) -> None:
    counts["abstraction.collapses"] += 1
    bits = counts["abstraction.max_bits"]
    nnz = 0
    for _, _, p in result.transitions():
        nnz += 1
        bits = max(bits, p.numerator.bit_length(), p.denominator.bit_length())
    counts["abstraction.nnz_out"] += nnz
    counts["abstraction.max_bits"] = bits


def _count_sccs(counts: Counter, args: tuple, result) -> None:
    counts["scc.components"] += len(result)


def _count_refine(counts: Counter, args: tuple, result) -> None:
    counts["checker.refine_steps"] += len(result.trace)


def _count_concretize(counts: Counter, args: tuple, result) -> None:
    counts["checker.witness_len"] += len(result)


Hook = Callable[[Counter, tuple, object], None]

TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    # (module, attribute, time metric, count hook)
    ("cli", "parse", "cli.parse_s", _count_parse),
    ("cli", "serialize", "cli.serialize_s", None),
    ("core", "Dtmc.from_transitions", "core.from_transitions_s", None),
    ("core", "validate", "core.validate_s", None),
    ("core", "Dtmc.transition_count", "core.transition_count_s", None),
    ("abstraction", "frontier", "abstraction.frontier_s", None),
    ("abstraction", "reach_backward", "abstraction.reach_backward_s", None),
    ("abstraction", "linear_system", "abstraction.linear_system_s", None),
    ("abstraction", "solve_linear", "abstraction.solve_linear_s", _count_solve),
    ("abstraction", "path_abstract", "abstraction.assemble_s", _count_collapse),
    ("abstraction", "path_abstract_seq", "abstraction.assemble_s", None),
    ("abstraction", "prune_isolated", "abstraction.prune_isolated_s", None),
    ("scc", "sccs", "scc.sccs_s", _count_sccs),
    ("scc", "nontrivial_sccs", "scc.sccs_s", None),
    ("scc", "abstract_via_sccs", "scc.strategy_s", None),
    ("scc", "abstract_recursive", "scc.strategy_s", None),
    ("checker", "model_check", "checker.model_check_s", None),
    ("checker", "refine", "checker.refine_s", _count_refine),
    ("checker", "most_probable_path", "checker.most_probable_path_s", None),
    ("checker", "concretize_witness", "checker.concretize_s", _count_concretize),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
COUNT_METRICS = (
    "cli.bytes_out",
    "core.states",
    "core.nnz_in",
    "abstraction.solve_dim_sum",
    "abstraction.solve_dim_max",
    "abstraction.rhs_cols_sum",
    "abstraction.collapses",
    "abstraction.nnz_out",
    "abstraction.max_bits",
    "scc.components",
    "checker.refine_steps",
    "checker.witness_len",
)


class Tracer:
    """Installs the wrappers for one op at a time and reads its spans back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "pathfold" or name.startswith("pathfold.")
        ]
        for module, attr, metric, hook in TARGETS:
            owner = sys.modules.get(f"pathfold.{module}")
            *cls, name = attr.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.missing.add(f"{module}.{attr}")
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, name, classmethod(self._wrap(raw.__func__, metric, hook)))
                continue
            wrapper = self._wrap(raw, metric, hook)
            self._patch(owner, name, wrapper)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is raw:
                        self._patch(m, alias, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fn: Callable, metric: str, hook: Hook | None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        missing = self.missing

        def wrapper(*args, **kwargs):
            span = [metric, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    # The program's data no longer has the shape the hook
                    # reads; report it rather than fail the op.
                    missing.add(f"{metric} count hook")
                span[4] = clock() - end
                span[2] = end + span[4]
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def op_metrics(self, wall: float) -> dict[str, float]:
        """Self time per metric, the op's counts and its unattributed share."""
        spans = self.spans
        children = [0.0] * len(spans)
        for metric, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        attributed = 0.0
        for i, (metric, start, end, _, hook_s) in enumerate(spans):
            own = end - start - hook_s - children[i]
            out[metric] += own
            attributed += own + hook_s
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        out["trace.unattributed_ratio"] = (wall - attributed) / wall
        return out
