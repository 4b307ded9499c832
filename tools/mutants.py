"""Re-run the recorded mutation checks of the planner.

    python3 tools/mutants.py [--only NAME ...]

Each mutant below replaces one exact snippet of a file under src/ and
names the pytest selection that must fail on it (mutation testing:
DeMillo, Lipton and Sayward, IEEE Computer 1978).  The script applies
each mutant to a temporary copy of src/, runs the selection from this
checkout's tests/ against that copy, and reports each mutant as killed
(the selection failed or ran past TIMEOUT_S) or survived.  It exits 1
when any mutant survives.  tests/test_mutants.py checks only that every
snippet still occurs exactly once, so a refactor of the listed code
updates this list in the same change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60.0  # the slowest selection takes about 10 s


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str  # occurs exactly once in the file
    replacement: str
    selection: tuple  # pytest arguments, relative to the repository root


SOLVE_TESTS = ("tests/test_ilp.py",
               "tests/test_properties.py::test_solve_equals_first_best")

MUTANTS = (
    Mutant("dominance test made strict", "pdrplan/ilp.py",
           "pw <= w and ph <= h and pa <= a for",
           "pw <= w and ph <= h and pa < a for", SOLVE_TESTS),
    Mutant("a later point also drops earlier points of equal area",
           "pdrplan/ilp.py",
           "not (w <= p[0] and h <= p[1] and a < p[2])",
           "not (w <= p[0] and h <= p[1] and a <= p[2])", SOLVE_TESTS),
    Mutant("region caps built without the other regions' least sizes",
           "pdrplan/ilp.py",
           "self.cx[r], self.cy[r] = _through(\n"
           "                self.spans, widths, heights, r)",
           "self.cx[r], self.cy[r] = _through(\n"
           "                self.spans, dict.fromkeys(widths, 0),"
           " dict.fromkeys(heights, 0), r)", SOLVE_TESTS),
    Mutant("incumbent budget off by one", "pdrplan/ilp.py",
           "self.budget = (self.width + self.height - self.floor[0],",
           "self.budget = (self.width + self.height - self.floor[0] - 1,",
           SOLVE_TESTS),
    Mutant("budget without the area tie key", "pdrplan/ilp.py",
           "(x + y, a + self.total_area - least[2]) <= self.budget",
           "x + y <= self.budget[0]", SOLVE_TESTS),
    Mutant("ties kept on >=", "pdrplan/ilp.py",
           "else child > self.best[0]", "else child >= self.best[0]",
           SOLVE_TESTS),
    Mutant("tail without the modules after the next one", "pdrplan/ilp.py",
           "xtail[t] = max(xtail[t], widths[u] + xtail[u])",
           "xtail[t] = max(xtail[t], widths[u])", SOLVE_TESTS),
    Mutant("no deadline check in the layer sweep", "pdrplan/ilp.py",
           "if not self._tick():\n                return\n"
           "            if t == len(ranks):",
           "self.nodes += 1\n            if t == len(ranks):",
           ("tests/test_ilp.py::TestSolve::"
            "test_deadline_honoured_on_crowded_instance",)),
)


def run(mutant: Mutant) -> tuple:
    """(killed, seconds, what killed it or the pytest summary line) of one
    mutant's selection."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly "
                             f"once in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy),
                   PYTHONDONTWRITEBYTECODE="1")
        started = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *mutant.selection],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.monotonic() - started, "timed out"
        if done.returncode in (4, 5):  # usage error, nothing collected
            raise SystemExit(f"{mutant.name}: bad selection\n{done.stdout}")
        lines = done.stdout.strip().splitlines() or [""]
        failed = [line for line in lines if line.startswith("FAILED ")]
        return (done.returncode != 0, time.monotonic() - started,
                (failed or lines)[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only the mutants with these names")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    survivors = 0
    for mutant in chosen:
        killed, seconds, last = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED':8s} {seconds:6.1f}s  "
              f"{mutant.name}: {last}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
