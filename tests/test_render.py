import pytest

from helpers import make_graph
from pdrplan.chip import builtin_xc7vx485t
from pdrplan.pst import CostWeights, PST, evaluate
from pdrplan.render import render_svg
from pdrplan.shapes import Shape


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def solution_with_layers(chip):
    g = make_graph(3, conf=1.0)
    pst = PST(ps=["m1", "m2", "m3"], qs=["m1", "m2", "m3"],
              rs=[(0, 0), (0, 1)],
              partition={"m1": (0, 0), "m2": (0, 0), "m3": (0, 1)})
    shapes = {"m1": Shape(8, 5), "m2": Shape(6, 10), "m3": Shape(4, 5)}
    return evaluate(pst, shapes, g, chip, CostWeights().resolve(g, chip))


def test_one_file_per_layer_plus_overview(chip):
    sol = solution_with_layers(chip)
    drawings = render_svg(sol, chip)
    assert len(drawings) == 3
    names = [name for name, _ in drawings]
    assert names[-1] == "overview.svg"
    assert names[0].startswith("layer01")


def test_byte_identical_across_runs(chip):
    sol = solution_with_layers(chip)
    a = render_svg(sol, chip)
    b = render_svg(sol, chip)
    assert a == b


def test_modules_and_labels_present(chip):
    sol = solution_with_layers(chip)
    drawings = dict(render_svg(sol, chip))
    layer1 = drawings["layer01_r0_tl0.svg"]
    assert "m1 8x5" in layer1
    assert "m2 6x10" in layer1
    assert "m3" not in layer1.split("</text>")[-1]  # m3 lives in layer 2
    layer2 = drawings["layer02_r0_tl1.svg"]
    assert "m3 4x5" in layer2


def test_empty_solution_draws_outline_only(chip):
    g = make_graph(1)
    # an artificial empty placement: no modules, no regions
    from pdrplan.pst import (CostBreakdown, Placement, ScheduleResult,
                             Solution, PST)
    sol = Solution(
        pst=PST((), (), (), {}),
        shapes={},
        placement=Placement({}, {}, 0, 0),
        timeline=ScheduleResult({}, {}, {}, {}, 0.0),
        costs=CostBreakdown(0, 0, 0, 0, 0, 0, 0, 0, 0, True),
        feasible=True,
    )
    drawings = render_svg(sol, chip)
    assert len(drawings) == 1
    name, svg = drawings[0]
    assert name == "overview.svg"
    assert "<svg" in svg and svg.count("<rect") >= 146 - 111 + 1


def test_svg_well_formed(chip):
    import xml.etree.ElementTree as ET
    sol = solution_with_layers(chip)
    for _, svg in render_svg(sol, chip):
        ET.fromstring(svg)


def test_module_ids_are_escaped(chip, tmp_path):
    """Ids may hold XML markup characters; every SVG stays well formed."""
    import xml.etree.ElementTree as ET
    from pdrplan.cli import main
    from pdrplan.explore import initial_solution
    from pdrplan.report import PipelineConfig, prepare_instance
    from pdrplan.shapes import ShapeGenConfig
    from pdrplan.solio import write_solution
    from pdrplan.taskgraph import parse_graph

    text = ("module a<b clb=800 bram=4 dsp=2 exec=20 conf=1\n"
            "module c&d clb=600 bram=0 dsp=4 exec=30 conf=1\n"
            "edge a<b c&d weight=3\n")
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    g, lists = prepare_instance(parse_graph(text), chip, ShapeGenConfig(),
                                PipelineConfig.cfg_rate)
    shapes = {m: lists[m].min_area_shape() for m in g.module_ids}
    sol = evaluate(initial_solution(g, lists, chip), shapes, g, chip,
                   CostWeights().resolve(g, chip))
    solution = tmp_path / "solution.txt"
    solution.write_text(write_solution(sol))
    out_dir = tmp_path / "svg"
    assert main(["render", "--graph", str(graph), "--solution", str(solution),
                 "--out-dir", str(out_dir)]) == 0
    svgs = sorted(out_dir.glob("*.svg"))
    assert len(svgs) == len(sol.pst.rs) + 1
    labels = []
    for path in svgs:
        labels += [t.text for t in ET.parse(path).iter()
                   if t.tag.endswith("text")]
    assert any(label.startswith("a<b ") for label in labels)
    assert any(label.startswith("c&d ") for label in labels)
