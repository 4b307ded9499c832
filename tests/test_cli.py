from pathlib import Path

import pytest

from pdrplan.chip import builtin_xc7vx485t
from pdrplan.cli import main
from pdrplan.report import prepare_instance
from pdrplan.shapes import ShapeGenConfig
from pdrplan.taskgraph import load_graph

POSTOPT = Path(__file__).resolve().parents[1] / "planbench" / "postopt"

GRAPH = """\
module m1 clb=2000 bram=20 dsp=10 exec=40 conf=2
module m2 clb=1500 bram=0 dsp=40 exec=50 conf=2
module m3 clb=1000 bram=10 dsp=0 exec=30 conf=1
edge m1 m2 weight=10
edge m1 m3 weight=5
"""

CHIP = """\
width 20
height 60
quantum 5
macro_rows 24
bram_cols 4,12
dsp_cols 8,16
"""


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text(GRAPH)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenBench:
    def test_writes_parseable_graph(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        code, _, _ = run_cli(["gen-bench", "--preset", "t10-1", "--seed", "3",
                              "--out", str(out)], capsys)
        assert code == 0
        from pdrplan.taskgraph import load_graph
        g = load_graph(out)
        assert len(g.modules) == 10
        assert not g.has_unresolved_conf()

    def test_stdout_and_determinism(self, capsys):
        code, text_a, _ = run_cli(["gen-bench", "--modules", "4",
                                   "--density", "0.5", "--seed", "9"], capsys)
        assert code == 0
        code, text_b, _ = run_cli(["gen-bench", "--modules", "4",
                                   "--density", "0.5", "--seed", "9"], capsys)
        assert text_a == text_b

    def test_unknown_preset_is_input_error(self, capsys):
        code, _, err = run_cli(["gen-bench", "--preset", "t7-9"], capsys)
        assert code == 2
        assert "preset" in err


class TestShapes:
    def test_prints_one_line_per_module(self, graph_file, capsys):
        code, out, _ = run_cli(["shapes", "--graph", graph_file], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("module")]
        assert len(lines) == 3
        assert lines[0].startswith("module m1: (")

    def test_custom_chip_file(self, tmp_path, capsys):
        chip_path = tmp_path / "chip.txt"
        chip_path.write_text(CHIP)
        graph = tmp_path / "g.txt"
        graph.write_text("module m1 clb=100 bram=4 dsp=2 exec=5 conf=1\n")
        code, out, _ = run_cli(["shapes", "--chip", str(chip_path),
                                "--graph", str(graph)], capsys)
        assert code == 0
        assert out.startswith("module m1:")

    def test_missing_graph_file(self, capsys):
        code, _, err = run_cli(["shapes", "--graph", "/nonexistent"], capsys)
        assert code == 2


class TestExploreAndFriends:
    def test_explore_postopt_metrics_render(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "runout"
        code, out, _ = run_cli(
            ["explore", "--graph", graph_file, "--seed", "1",
             "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "solution.txt").exists()
        assert (out_dir / "trace.csv").exists()
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "restart,iteration,temperature,current_cost,best_cost"
        assert len(trace) > 10

        sol_file = str(out_dir / "solution.txt")
        lp_file = str(tmp_path / "model.lp")
        code, out, _ = run_cli(
            ["postopt", "--graph", graph_file, "--solution", sol_file,
             "--export-lp", lp_file, "--out", str(tmp_path / "fixed.txt")],
            capsys)
        assert code == 0
        assert out.startswith("optimal objective=")
        assert (tmp_path / "model.lp").read_text().startswith("\\")

        code, out, _ = run_cli(
            ["metrics", "--graph", graph_file, "--solution", sol_file], capsys)
        assert code == 0
        assert "makespan" in out and "resource reuse" in out

        render_dir = tmp_path / "svg"
        code, out, _ = run_cli(
            ["render", "--graph", graph_file, "--solution", sol_file,
             "--out-dir", str(render_dir)], capsys)
        assert code == 0
        assert list(render_dir.glob("*.svg"))

    def test_postopt_prints_node_count(self, capsys):
        args = ["postopt", "--graph", str(POSTOPT / "t10-2-s0.graph"),
                "--solution", str(POSTOPT / "t10-2-s0.solution")]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.splitlines() == ["optimal objective=101.0", "nodes=11"]
        assert run_cli(args, capsys)[1] == out  # no wall time in stdout

    def test_run_pipeline_summary(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "batch"
        code, out, _ = run_cli(
            ["run", "--graph", graph_file, "--runs", "2", "--seed", "7",
             "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert "success rate" in out
        assert (out_dir / "runs.csv").exists()

    def test_bad_chip_spec(self, graph_file, capsys):
        code, _, err = run_cli(["shapes", "--graph", graph_file,
                                "--chip", "builtin:unobtainium"], capsys)
        assert code == 2
        assert "builtin" in err


class TestSolutionShapes:
    """Solution files must carry shapes the explorer could have produced."""

    def plan(self, tmp_path, graph_file, resize):
        """One region, one layer per module; each module's min-area shape
        (w, h) is written as resize(module, w, h)."""
        g, lists = prepare_instance(load_graph(graph_file), builtin_xc7vx485t(),
                                    ShapeGenConfig(), 0.001)
        ids = list(g.module_ids)
        lines = ["ps " + " ".join(ids), "qs " + " ".join(ids),
                 "rs " + " ".join(f"0.{i}" for i in range(len(ids)))]
        for i, m in enumerate(ids):
            s = lists[m].min_area_shape()
            w, h = resize(m, s.w, s.h)
            lines.append(f"place {m} region=0 layer={i} w={w} h={h}")
        path = tmp_path / "plan.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_undersized_shape_rejected(self, graph_file, tmp_path, capsys):
        sol = self.plan(tmp_path, graph_file,
                        lambda m, w, h: (1, 5) if m == "m1" else (w, h))
        code, _, err = run_cli(["metrics", "--graph", graph_file,
                                "--solution", sol], capsys)
        assert code == 2
        assert "module m1" in err and "demand" in err

    def test_unaligned_height_rejected(self, graph_file, tmp_path, capsys):
        sol = self.plan(tmp_path, graph_file, lambda m, w, h: (w, h - 2))
        for verb in ("metrics", "postopt"):
            code, _, err = run_cli([verb, "--graph", graph_file,
                                    "--solution", sol], capsys)
            assert code == 2
            assert "module m1" in err and "quantum" in err

    def test_oversized_shape_rejected(self, graph_file, tmp_path, capsys):
        sol = self.plan(tmp_path, graph_file,
                        lambda m, w, h: (147, h) if m == "m2" else (w, h))
        code, _, err = run_cli(["render", "--graph", graph_file,
                                "--solution", sol,
                                "--out-dir", str(tmp_path / "svg")], capsys)
        assert code == 2
        assert "module m2" in err and "chip" in err

    def test_second_place_line_rejected(self, graph_file, tmp_path, capsys):
        sol = self.plan(tmp_path, graph_file, lambda m, w, h: (w, h))
        with open(sol, "a") as f:
            f.write("place m1 region=0 layer=0 w=146 h=350\n")
        code, _, err = run_cli(["metrics", "--graph", graph_file,
                                "--solution", sol], capsys)
        assert code == 2
        assert f"{sol}:7: second place line for module m1" in err

    @pytest.mark.parametrize("extra, what", [
        (" w=146", "duplicate attribute 'w'"),
        (" bogus=7", "unknown attribute 'bogus'"),
    ])
    def test_repeated_or_unknown_place_key_rejected(self, graph_file, tmp_path,
                                                   capsys, extra, what):
        sol = self.plan(tmp_path, graph_file, lambda m, w, h: (w, h))
        lines = Path(sol).read_text().splitlines()
        assert lines[3].startswith("place m1 ")
        lines[3] += extra
        Path(sol).write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["metrics", "--graph", graph_file,
                                "--solution", sol], capsys)
        assert code == 2
        assert f"{sol}:4: {what}" in err
