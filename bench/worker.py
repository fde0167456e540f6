"""One workload run in a process of its own; ``run.py`` starts it.

The process imports the program from ``src/`` of the checkout, writes the
workload's model files, runs ops until the time is up and prints one JSON
report: set-up times, peak RSS, and per op its wall and CPU time, exit
codes and a hash of its output.  A fixed calibration kernel runs between
any two measurements; each is reported with the mean kernel time of the
runs on either side of it.  The first output of every case is sent in
full so the parent can check it against the reference.  Each workload gets
its own process because ``ru_maxrss`` is a high-water mark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from families import FILE
from tracer import Tracer
from workloads import BLOCKS, SMOKE_CALLS, SMOKE_FILE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

KERNEL_REF_S = 0.044
"""Kernel wall seconds at the reference speed: the median kernel reading on
the 2-core x86 VM (Python 3.11) where ``baseline.json`` was measured, so a
reported time is that machine's wall time at its median speed.  Times are
reported as ``measured * KERNEL_REF_S / kernel``: the speed of a shared
machine drifts by a third within seconds, and the kernel runs on either
side of each measurement cancel that drift."""


def kernel() -> int:
    """Fixed work of the program's kind: exact Gauss-Jordan over
    ``Fraction`` and a scan of a dense matrix for positive entries."""
    m = 16
    a = [[Fraction((i * 7 + j * 3) % 11 + (6 if i == j else 0), (i + j) % 5 + 2)
          for j in range(m)] for i in range(m)]
    for c in range(m):
        pivot = a[c][c]
        for r in range(m):
            if r != c and a[r][c]:
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    dense = [[Fraction((i * j) % 3, 3) for j in range(100)] for i in range(100)]
    return sum(1 for row in dense for x in row if x > 0)


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one :func:`kernel` run."""
    start, cpu = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - start, time.process_time() - cpu


class Calibration:
    """Kernel runs interleaved with measurements, one run between any two."""

    def __init__(self) -> None:
        self.last = calibrate()

    def around(self) -> tuple[float, float]:
        """Mean kernel (wall, CPU) of the runs before and after the
        measurement that just ended."""
        before, self.last = self.last, calibrate()
        return (before[0] + self.last[0]) / 2, (before[1] + self.last[1]) / 2


def import_program():
    """``pathfold.cli`` from the checkout's ``src/``, imported afresh."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "pathfold" or n.startswith("pathfold.")]:
        del sys.modules[name]
    return importlib.import_module("pathfold.cli")


def write_models(texts: list[tuple[str, str]], workdir: Path) -> list[str]:
    """Write each ``(name, text)`` model to ``workdir``; return the paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in texts:
        path = workdir / f"{name}.dtmc"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def run_calls(cli, argvs, tracer: Tracer | None = None) -> dict:
    """One op: every call in ``argvs`` through ``cli.main``, timed as a whole."""
    gc.collect()  # every op starts from the same collector state
    if tracer is not None:
        tracer.reset()
        tracer.install()
    outputs = []
    start, cpu = time.perf_counter(), time.process_time()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its arguments
                rc = f"exit {exc.code}"
            except Exception as exc:  # the run goes on; the op is counted failed
                rc = f"{type(exc).__name__}: {exc}"
            outputs.append((rc, out.getvalue()))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    op = {
        "wall": wall,
        "cpu": cpu,
        "rc": [rc for rc, _ in outputs],
        "sha": [hashlib.sha256(text.encode()).hexdigest() for _, text in outputs],
        "outputs": outputs,
    }
    if tracer is not None:
        layers = tracer.op_metrics(wall)
        layers["cli.bytes_out"] = sum(len(text.encode()) for _, text in outputs)
        op["layers"] = layers
    return op


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    # The cases are generated once, untimed: set-up times only what the
    # program's user pays, importing it and writing its input files.
    cases = WORKLOADS[workload](seed)
    texts = [(case.name, case.text()) for case in cases]
    setups = []
    calibration = Calibration()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_program()
        paths = write_models(texts, workdir)
        setups.append((time.perf_counter() - start, calibration.around()[0]))

    smoke_path = str(ROOT / SMOKE_FILE)
    smoke = run_calls(cli, [[smoke_path if a == FILE else a for a in c] for c in SMOKE_CALLS])
    tracer = Tracer() if trace else None
    ops, first = [], {}
    gc.collect()
    gc.freeze()  # harness objects stay out of the program's collections
    deadline = time.perf_counter() + seconds
    calibration = Calibration()
    block = BLOCKS.get(workload, 1)
    k = 0
    while not ops or k % block or time.perf_counter() < deadline:
        index = k % len(cases)
        argvs = cases[index].argv(paths[index])
        # Traced runs alternate which of the pair is traced, so neither
        # side always runs on a warm cache.
        modes = ((None, tracer) if k % 2 else (tracer, None)) if trace else (None, None)
        for mode in modes:
            op = run_calls(cli, argvs, mode)
            op["kernel"] = calibration.around()
            outputs = op.pop("outputs")
            first.setdefault(index, outputs)
            op["case"], op["traced"] = index, mode is not None
            ops.append(op)
        k += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setups": setups,
        "peak_rss_mb": peak_kb / 1024,
        "smoke": smoke,
        "ops": ops,
        "outputs": {str(i): v for i, v in first.items()},
        "missing": sorted(tracer.missing) if tracer else [],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
