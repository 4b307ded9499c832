"""Digest every file a fixed set of planner runs writes.

    python3 tools/identity_digests.py --src path/to/checkout/src [--out DIR]
    python3 tools/identity_digests.py --src SRC --python PY [--python PY ...]

Run it on two checkouts and compare the listings: a change meant to leave
the planner's results alone prints the same listing as its parent.  Run
it under every supported interpreter too (python3.10, 3.11, 3.12 and
3.13): all of them must print the same listing, so that seeded outputs
do not depend on the Python version.  With --python, the script reruns
itself under each given interpreter instead, prints one line per
interpreter with that interpreter's listing digest, and exits 1 when the
digests differ.

The runs are the benchmark's inputs, made by planbench/inputs.py next to
this script, so both checkouts see the same graphs:

- `pdrplan run --runs 1 --seed 0` and `pdrplan explore --seed 1` on the
  run-t10 graphs (t10-1, t10-2, t10-3, graph seed 0);
- `run_pipeline` with `SAConfig(iterations_per_temperature=1)`, one run of
  seed 0, on the plan-large graphs (t100-1, t200-1);
- `pdrplan postopt --export-lp --out` on the instances in planbench/postopt.

That is 61 files: the graphs, every file the runs write and each CLI call's
stdout with its exit code.  Wall times ("runtime per seed" lines) and the
output directory are masked before hashing.  The script prints
`sha256  relative/path` per file, then the sha256 of that listing.  With
--out the files stay in DIR (which must not exist yet) for a diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "planbench"))
from inputs import make_graph, write_graph  # noqa: E402

POSTOPT = ROOT / "planbench" / "postopt"
RUNTIME = re.compile(r"^runtime per seed \(s\):.*$", re.MULTILINE)


def import_planner(src: Path):
    sys.path.insert(0, str(src))
    import pdrplan
    from pdrplan import cli, explore, report
    if Path(pdrplan.__file__).resolve().parent != (src / "pdrplan").resolve():
        sys.exit(f"pdrplan imported from {pdrplan.__file__}, not {src}")
    return pdrplan, cli, explore, report


def cli_call(cli, argv, stdout_path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    stdout_path.write_text(f"{out.getvalue()}exit {code}\n", encoding="utf-8")


def write_outputs(src: Path, work: Path):
    pdrplan, cli, explore, report = import_planner(src)
    for family in ("t10-1", "t10-2", "t10-3"):
        graph = write_graph(make_graph(family, 0), work / f"{family}.graph")
        run_dir, explore_dir = work / f"{family}.run", work / f"{family}.explore"
        cli_call(cli, ["run", "--graph", graph, "--out-dir", run_dir,
                       "--runs", "1", "--seed", "0"], work / f"{family}.run.stdout")
        cli_call(cli, ["explore", "--graph", graph, "--seed", "1",
                       "--out-dir", explore_dir],
                 work / f"{family}.explore.stdout")
    chip = pdrplan.builtin_xc7vx485t()
    for family in ("t100-1", "t200-1"):
        graph = write_graph(make_graph(family, 0), work / f"{family}.graph")
        report.run_pipeline(pdrplan.load_graph(graph), chip,
                            report.PipelineConfig(
                                runs=1, seed=0, out_dir=str(work / family),
                                sa=explore.SAConfig(iterations_per_temperature=1)))
    for sol in sorted(POSTOPT.glob("*.solution")):
        name = sol.stem
        cli_call(cli, ["postopt", "--graph", sol.with_suffix(".graph"),
                       "--solution", sol, "--export-lp", work / f"{name}.lp",
                       "--out", work / f"{name}.solution"],
                 work / f"{name}.postopt.stdout")


def listing(work: Path) -> list:
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8").replace(str(work), "<out>")
        text = RUNTIME.sub("runtime per seed (s): <masked>", text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    return lines


def compare_interpreters(src: Path, pythons: list) -> int:
    """Print each interpreter's listing digest; 1 when they differ."""
    digests = set()
    for python in pythons:
        run = subprocess.run([python, __file__, "--src", str(src)],
                             capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            sys.exit(f"{python} exited {run.returncode}")
        digest = run.stdout.split()[-1]
        digests.add(digest)
        print(f"{digest}  {python}")
    return 0 if len(digests) <= 1 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src directory of the checkout to run")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep the files in this new directory")
    parser.add_argument("--python", action="append", default=[],
                        help="rerun under this interpreter and compare the "
                             "listing digests (repeatable)")
    args = parser.parse_args(argv)
    if args.python:
        if args.out is not None:
            parser.error("--out and --python do not combine")
        return compare_interpreters(args.src.resolve(), args.python)
    work = args.out or Path(tempfile.mkdtemp(prefix="identity-"))
    work.mkdir(parents=True, exist_ok=args.out is None)
    try:
        write_outputs(args.src, work)
        lines = listing(work)
    finally:
        if args.out is None:
            shutil.rmtree(work)
    print("\n".join(lines))
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    print(f"listing of {len(lines)} files: {hashlib.sha256(body).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
