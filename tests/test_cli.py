import argparse
from pathlib import Path

import pytest

from pdrplan.chip import builtin_xc7vx485t
from pdrplan.cli import build_parser, main
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

    def test_no_preset_is_t10_1(self, capsys):
        _, plain, _ = run_cli(["gen-bench", "--seed", "3"], capsys)
        _, preset, _ = run_cli(["gen-bench", "--preset", "t10-1", "--seed",
                                "3"], capsys)
        assert plain == preset

    @pytest.mark.parametrize("flag, value", [
        ("--modules", "3"), ("--exec", "5,9"), ("--weight", "1,2"),
        ("--clb", "10,20"), ("--bram", "0,0"), ("--dsp", "0,0"),
        ("--density", "0"), ("--seed", "1"),
    ])
    def test_flag_overrides_preset(self, flag, value, capsys):
        _, preset, _ = run_cli(["gen-bench", "--preset", "t10-1"], capsys)
        code, changed, _ = run_cli(["gen-bench", "--preset", "t10-1", flag,
                                    value], capsys)
        assert code == 0
        assert changed != preset

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
        assert trace[0] == "iteration,temperature,current_cost,best_cost"
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
        assert out.splitlines() == ["optimal objective=101.0", "nodes=130"]
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

    def test_missing_module_rejected(self, graph_file, tmp_path, capsys):
        """A plan that leaves a module of its graph out is rejected, both
        the explored plan without m3 and a benchmark plan without m8."""
        sol = Path(self.plan(tmp_path, graph_file, lambda m, w, h: (w, h)))
        lines = [x.replace(" m3", "").replace(" 0.2", "")
                 for x in sol.read_text().splitlines()
                 if not x.startswith("place m3 ")]
        sol.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["metrics", "--graph", graph_file,
                                  "--solution", str(sol)], capsys)
        assert (code, out) == (2, "")
        assert f"{sol}: invalid solution: missing modules: m3" in err

        text = (POSTOPT / "t10-2-s0.solution").read_text()
        lines = [" ".join(t for t in x.split() if t != "m8")
                 for x in text.splitlines() if not x.startswith("place m8 ")]
        sol = tmp_path / "no-m8.solution"
        sol.write_text("\n".join(lines) + "\n")
        for verb in ("metrics", "postopt"):
            code, _, err = run_cli([verb, "--graph",
                                    str(POSTOPT / "t10-2-s0.graph"),
                                    "--solution", str(sol)], capsys)
            assert code == 2
            assert "missing modules: m8" in err

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


# Every verb's flags; each one can change the verb's result.
VERB_FLAGS = {
    "gen-bench": {"--chip", "--seed", "--cfg-rate", "--preset", "--modules",
                  "--exec", "--weight", "--clb", "--bram", "--dsp",
                  "--density", "--out"},
    "shapes": {"--chip", "--graph", "--n", "--gamma-ar"},
    "explore": {"--chip", "--seed", "--out-dir", "--graph", "--n",
                "--gamma-ar", "--cfg-rate", "--alpha", "--beta",
                "--gamma-comm", "--lambda", "--time-limit"},
    "postopt": {"--chip", "--graph", "--solution", "--n", "--gamma-ar",
                "--cfg-rate", "--alpha", "--beta", "--gamma-comm", "--lambda",
                "--time-limit", "--export-lp", "--out"},
    "run": {"--chip", "--seed", "--out-dir", "--graph", "--n", "--gamma-ar",
            "--cfg-rate", "--alpha", "--beta", "--gamma-comm", "--lambda",
            "--runs", "--time-limit", "--postopt-time-limit"},
    "render": {"--chip", "--out-dir", "--graph", "--solution"},
    "metrics": {"--chip", "--graph", "--solution", "--cfg-rate", "--alpha",
                "--beta", "--gamma-comm", "--lambda"},
}


def verb_actions():
    """{verb: [argparse action of each of its flags]}."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {verb: [a for a in p._actions if a.dest != "help"]
            for verb, p in sub.choices.items()}


class TestFlagSets:
    def test_each_verb_takes_only_flags_that_change_its_result(self):
        got = {verb: {a.option_strings[0] for a in actions}
               for verb, actions in verb_actions().items()}
        assert got == VERB_FLAGS

    def test_settable_values(self):
        assert sum(map(len, verb_actions().values())) == 67


# Values each numeric flag rejects, keyed by the flag's dest: 0, -1, nan
# and inf wherever they are invalid.  A time limit of 0 is valid (stop at
# the first check) and so is inf (no limit); inf is a valid aspect bound.
INVALID = {
    "seed": ("nan", "inf"),
    "n": ("0", "-1", "nan", "inf"),
    "gamma_ar": ("0", "-1", "nan"),
    "cfg_rate": ("-1", "nan", "inf"),
    "alpha": ("-1", "nan", "inf"),
    "beta": ("-1", "nan", "inf"),
    "gamma_comm": ("-1", "nan", "inf"),
    "lambda_": ("-1", "nan", "inf"),
    "module_count": ("0", "-1", "nan", "inf"),
    "edge_density": ("-1", "nan", "inf"),
    "runs": ("0", "-1", "nan", "inf"),
    "time_limit": ("-1", "nan"),
    "postopt_time_limit": ("-1", "nan"),
}


def numeric_flags():
    """(verb, flag, dest, type) of every flag that takes an int or a float."""
    return [(verb, a.option_strings[0], a.dest, a.type)
            for verb, actions in verb_actions().items() for a in actions
            if a.type in (int, float)]


BAD_VALUES = [(*flag, value) for flag in numeric_flags()
              for value in INVALID.get(flag[2], ())]


@pytest.fixture(scope="module")
def plan_files(tmp_path_factory):
    """A tiny graph and a plan of it: the greedy start, as explore writes
    it with no time to anneal."""
    d = tmp_path_factory.mktemp("plan")
    graph = d / "graph.txt"
    graph.write_text(GRAPH)
    assert main(["explore", "--graph", str(graph), "--time-limit", "0",
                 "--out-dir", str(d)]) == 0
    return str(graph), str(d / "solution.txt")


def exit_code(args):
    """main's return value, or the code argparse exits with."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def assert_rejected(args, named, capsys):
    code = exit_code(args)
    err = capsys.readouterr().err
    assert code == 2, (args, err)
    assert "error:" in err and named in err, (args, err)
    assert "Traceback" not in err


class TestBadValues:
    def test_table_covers_every_numeric_flag(self):
        assert {dest for _, _, dest, _ in numeric_flags()} == set(INVALID)

    @pytest.mark.parametrize("verb, flag, dest, kind, value", BAD_VALUES,
                             ids=[f"{v}{f}={x}" for v, f, _, _, x in BAD_VALUES])
    def test_bad_value_exits_2(self, verb, flag, dest, kind, value, plan_files,
                               tmp_path, capsys):
        graph, solution = plan_files
        args = [verb, flag, value]
        if verb != "gen-bench":
            args += ["--graph", graph]
        if verb in ("postopt", "metrics"):
            args += ["--solution", solution]
        if verb in ("explore", "run"):
            args += ["--out-dir", str(tmp_path)]
        # argparse names the flag of a value that is no int; a config check
        # names the field the flag fills.
        int_parse_error = kind is int and value in ("nan", "inf")
        named = f"argument {flag}" if int_parse_error else f"{dest} must"
        assert_rejected(args, named, capsys)

    @pytest.mark.parametrize("flag, value, named", [
        ("--exec", "nan,nan", "exec_range must"),
        ("--exec", "0,inf", "exec_range must"),
        ("--weight", "5,1", "edge_weight_range must"),
        ("--clb", "0,inf", "argument --clb"),
        ("--clb", "1.5,3000", "argument --clb"),
        ("--bram", "-1,5", "bram_range must"),
    ])
    def test_bad_range_exits_2(self, flag, value, named, capsys):
        assert_rejected(["gen-bench", f"{flag}={value}"], named, capsys)

    def test_directory_for_a_file_exits_2(self, plan_files, tmp_path, capsys):
        graph, _ = plan_files
        for args in (["shapes", "--graph", str(tmp_path)],
                     ["metrics", "--graph", graph, "--solution", str(tmp_path)]):
            assert_rejected(args, "Is a directory", capsys)

    @pytest.mark.parametrize("value", ["0", "inf"])
    def test_zero_and_infinite_time_limits_run(self, value, plan_files,
                                               tmp_path, capsys):
        graph, _ = plan_files
        code, _, err = run_cli(["run", "--graph", graph, "--runs", "1",
                                "--time-limit", value, "--postopt-time-limit",
                                value, "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err


def test_rejected_time_limit_writes_no_lp(tmp_path, capsys):
    lp = tmp_path / "model.lp"
    assert_rejected(["postopt", "--graph", str(POSTOPT / "t10-2-s0.graph"),
                     "--solution", str(POSTOPT / "t10-2-s0.solution"),
                     "--time-limit", "nan", "--export-lp", str(lp)],
                    "time_limit must", capsys)
    assert not lp.exists()


def test_postopt_timeout_prints_its_incumbents_objective(tmp_path, capsys):
    """The timeout incumbent is the plan written, so its objective shows."""
    out = tmp_path / "plan.txt"
    code, stdout, _ = run_cli(
        ["postopt", "--graph", str(POSTOPT / "t10-2-s0.graph"),
         "--solution", str(POSTOPT / "t10-2-s0.solution"),
         "--time-limit", "0", "--out", str(out)], capsys)
    assert code == 0
    assert stdout.splitlines() == ["timeout objective=101.0", "nodes=0"]
    assert out.is_file()
