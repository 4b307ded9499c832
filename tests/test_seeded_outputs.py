"""Pinned digests of the files a seeded pipeline run writes.

A change meant to leave the planner's results alone (a refactor, a
deletion, a speedup) must leave these bytes alone too.  The test runs
run_pipeline on two preset graphs and compares the sha256 of every file
it writes: the solutions, the trace CSVs and runs.csv.  summary.txt is
left out because it holds wall times.

A change to the search itself changes these digests.  Such a change
updates DIGESTS and records the update in CHANGES.md.
"""

import hashlib

import pytest

from pdrplan.chip import builtin_xc7vx485t
from pdrplan.explore import SAConfig
from pdrplan.report import PipelineConfig, run_pipeline
from pdrplan.taskgraph import generate, preset_spec

CHIP = builtin_xc7vx485t()

DIGESTS = {
    "t10-2": {
        "runs.csv": "1883454ad0cf2bc98aa80c96075e88817657303dfee7ff8ccfdb7996d52a66d0",
        "seed0.solution": "0a9bb12599ff29a08b322e32cf1eaf8816b2d86deafc9f372f639d42f8fc50b0",
        "seed0.trace.csv": "fb0170d7a0a5cb26e1f1b830ba33579b16d82cb8ccafad27507284beffb9ec39",
        "seed1.solution": "7e10c0536d525e66443c78de98ce77e0a0f9bf76dd8ccf1499c7317636358162",
        "seed1.trace.csv": "3ad3eea0f442a4b69abe178550b397117948c1dde8792cdfd4625b3a92870d9d",
    },
    "t30-1": {
        "runs.csv": "d9339ba800d89d6465a1d20d1b8c1902aed8283dd22756a34ab0f398db6081ad",
        "seed0.solution": "c12516e6501979bc5ffaeaef52785929e8bdad17e59376d868f172d2e33158ff",
        "seed0.trace.csv": "b2bee5905d8dab5738ae6070e32d8d80caedddf306c98a6b681f85fb1d0cf96d",
        "seed1.solution": "0b4f9dbcfa2cc022a478ec820228b5a7807b54e60c358ad76fdb5f702019c977",
        "seed1.trace.csv": "d9261e570b7fdfb8a87c92ebc1fac622c98ce09f1bd33ba964f858f7009b3997",
    },
}


def written_digests(name, out_dir):
    g = generate(preset_spec(name, seed=0))
    cfg = PipelineConfig(runs=2, seed=0, out_dir=str(out_dir),
                         sa=SAConfig(iterations_per_temperature=4))
    run_pipeline(g, CHIP, cfg)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "summary.txt"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_pipeline_outputs_match_pinned_digests(name, tmp_path):
    assert written_digests(name, tmp_path) == DIGESTS[name]
