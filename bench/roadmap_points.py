"""Re-measure the hand-timed points of the ROADMAP baseline, one op each.

    python3 bench/roadmap_points.py

Prints one JSON object: wall seconds of ``check --method direct`` on a random
chain (this benchmark's generator) with n=50/100/150 and on gambler's ruin
with n=100/200, and parse and check seconds plus peak RSS on the 3-line file
``dtmc N 1 / 1 2 1 / 2 2 1`` for N=500/1000/2000.  N=2000 needs about half
a gigabyte of memory; the larger sizes take tens of seconds each.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import families
from worker import import_program


def _check_seconds(cli, case) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.dtmc"
        path.write_text(case.text())
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            rc = cli.main(case.argv(str(path))[0])
        if rc != 0:
            raise RuntimeError(f"{case.name}: exit code {rc}")
        return time.perf_counter() - start


def main() -> int:
    cli = import_program()
    from pathfold.checker import model_check

    out: dict[str, float] = {}
    for n in (50, 100, 150):
        out[f"random_n{n}_direct_s"] = _check_seconds(cli, families.random_chain(0, 0, n))
    for n in (100, 200):
        out[f"birthdeath_n{n}_direct_s"] = _check_seconds(cli, families.birth_death(0, 0, n))
    for n in (500, 1000, 2000):
        text = f"dtmc {n} 1\n1 2 1\n2 2 1\n"
        start = time.perf_counter()
        d = cli.parse(text)
        out[f"line3_n{n}_parse_s"] = time.perf_counter() - start
        start = time.perf_counter()
        model_check(d, {2})
        out[f"line3_n{n}_check_s"] = time.perf_counter() - start
        del d
        out[f"line3_n{n}_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
