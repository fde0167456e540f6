"""pathfold benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload check-random --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/``.  The workload runs in a child process (``worker.py``) that calls
``pathfold.cli.main`` in-process on seeded model files; this process then
checks every op against the references in ``reference.py`` and prints the
result as the last line of standard output:

* ``--trace 0``: the end-to-end metrics -- median wall and CPU time of one op,
  peak RSS of the child, median set-up time (import plus writing the model
  files, repeated nine times).
* ``--trace 1``: the per-layer metrics -- median self time per op of each
  wrapped layer, the counts of one op on the seed's first case, the tracing
  overhead, the share of op time the layers' self times leave unattributed
  (``cli.main``'s own work plus anything that escaped the trace), the number
  of wrap targets no longer found, the calibration kernel's raw time, the
  raw op wall time and the share of failed ops.

Every time except the ``harness.*`` ones is in reference-speed seconds: the
measured time times ``KERNEL_REF_S`` over the mean time of the calibration
kernel runs just before and after it (see ``worker.py``).  That cancels the
drift of a shared machine's speed, which moves raw times by a third.
``KERNEL_REF_S`` is the median kernel time on the machine ``baseline.json``
was measured on, so there a reference second is a wall second at median
speed, and absolute targets ("under 1 s") are read from ``op_s_p50``.

An op fails on an unexpected exit code, a wrong answer, or output that
differs from an earlier run of the same case.  The exit code is 0 whenever
a result is printed, and nonzero when the workload could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from reference import SMOKE_STDOUT, expected
from tracer import COUNT_METRICS, TIME_METRICS
from worker import KERNEL_REF_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_GRACE_S = 120


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _failures(report: dict, cases: list) -> list[str]:
    """One message per failed op; the smoke op comes first."""
    messages = []
    smoke = report["smoke"]
    if smoke["rc"] != [0, 0, 0] or set(smoke["sha"]) != {_sha(SMOKE_STDOUT)}:
        messages.append(f"smoke op on example8: got {smoke['outputs']}")
    want: dict[int, list] = {}
    for op in report["ops"]:
        i = op["case"]
        if i not in want:
            want[i] = expected(cases[i])
        rcs = [rc for rc, _ in want[i]]
        shas = [_sha(text) for _, text in want[i]]
        if op["rc"] != rcs:
            messages.append(f"{cases[i].name}: exit codes {op['rc']}, want {rcs}")
        elif op["sha"] != shas:
            first = report["outputs"][str(i)]
            kind = "repeat differs" if [_sha(t) for _, t in first] == shas else "wrong answer"
            messages.append(f"{cases[i].name}: {kind}; first output {first!r:.300}")
    return messages


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the reference speed the kernel was calibrated at."""
    return seconds * KERNEL_REF_S / kernel_s


def _end_to_end(report: dict) -> dict:
    ops = report["ops"]
    return {
        "op_s_p50": _metric(
            statistics.median(_scaled(op["wall"], op["kernel"][0]) for op in ops), "s"),
        "op_cpu_s_p50": _metric(
            statistics.median(_scaled(op["cpu"], op["kernel"][1]) for op in ops), "s"),
        "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(_scaled(*pair) for pair in report["setups"]), "s"),
    }


def _per_layer(report: dict, attempted: int, failed: int) -> dict:
    ops = report["ops"]
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    out = {}
    for name in TIME_METRICS:
        out[name] = _metric(statistics.median(
            _scaled(op["layers"][name], op["kernel"][0]) for op in traced), "s")
    # Counts come from the first case, which every run traces, so they
    # repeat exactly for a seed however many ops the time allows.
    first = traced[0]["layers"]
    for name in COUNT_METRICS:
        out[name] = _metric(first[name], "B" if name == "cli.bytes_out" else "count")
    out["trace.overhead_ratio"] = _metric(
        statistics.median(_scaled(op["wall"], op["kernel"][0]) for op in traced)
        / statistics.median(_scaled(op["wall"], op["kernel"][0]) for op in plain),
        "ratio",
    )
    out["trace.unattributed_ratio"] = _metric(
        statistics.median(op["layers"]["trace.unattributed_ratio"] for op in traced), "ratio"
    )
    out["trace.missing"] = _metric(len(report["missing"]), "count")
    out["harness.kernel_s"] = _metric(statistics.median(op["kernel"][0] for op in ops), "s")
    out["harness.op_wall_s_p50"] = _metric(statistics.median(op["wall"] for op in plain), "s")
    out["failed_ratio"] = _metric(failed / attempted, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathfold" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'pathfold'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    report = json.loads(child.stdout.splitlines()[-1])

    cases = WORKLOADS[args.workload](args.seed)
    failures = _failures(report, cases)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    if report["missing"]:
        print(f"trace: not wrapped: {', '.join(report['missing'])}", file=sys.stderr)
    attempted = len(report["ops"]) + 1
    failed = len(failures)
    if args.trace:
        metrics = _per_layer(report, attempted, failed)
    else:
        metrics = _end_to_end(report)
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
