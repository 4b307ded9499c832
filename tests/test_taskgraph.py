from dataclasses import replace

import pytest

from pdrplan.chip import ResourceVector
from pdrplan.cli import main
from pdrplan.errors import GraphCycleError, InputFileError
from pdrplan.taskgraph import (BenchSpec, Edge, TaskGraph, TaskModule,
                               assign_conf_times, generate, parse_graph,
                               preset_spec)


def mk(mid, exec_time=10.0, conf=1.0, clb=0, bram=0, dsp=0):
    return TaskModule(mid, ResourceVector(clb, bram, dsp), exec_time, conf)


def brute_force_cpt(g):
    """Enumerate every directed path and take the heaviest."""
    best = 0.0
    succ = g.successors

    def walk(node, acc):
        nonlocal best
        acc += g.module(node).exec_time
        best = max(best, acc)
        for nxt in succ[node]:
            walk(nxt, acc)

    for m in g.modules:
        walk(m.id, 0.0)
    return best


class TestParse:
    def test_two_modules_one_edge(self):
        g = parse_graph(
            "module m1 clb=10 bram=0 dsp=0 exec=5 conf=1\n"
            "module m2 clb=20 bram=1 dsp=0 exec=7 conf=2\n"
            "edge m1 m2 weight=3\n")
        assert len(g.modules) == 2
        assert len(g.edges) == 1
        assert g.module("m2").demand.bram == 1

    def test_self_edge_rejected(self):
        with pytest.raises(InputFileError, match="self edge"):
            parse_graph("module m1 clb=1 bram=0 dsp=0 exec=5\n"
                        "edge m1 m1 weight=1\n")

    def test_cycle_rejected_with_cycle_listed(self):
        with pytest.raises(GraphCycleError) as exc:
            parse_graph("module m1 clb=1 bram=0 dsp=0 exec=5\n"
                        "module m2 clb=1 bram=0 dsp=0 exec=5\n"
                        "edge m1 m2 weight=1\n"
                        "edge m2 m1 weight=1\n")
        assert "m1" in str(exc.value) and "m2" in str(exc.value)

    # m0 -> m1 -> m2 -> m3 -> m1 with a tail m3 -> m4: m0 leads into the
    # cycle and m4 hangs off it, and neither is on it.
    CYCLE_EDGES = (("m0", "m1"), ("m1", "m2"), ("m2", "m3"), ("m3", "m1"),
                   ("m3", "m4"))

    @pytest.mark.parametrize("ids", [["m0", "m1", "m2", "m3", "m4"],
                                     ["m4", "m3", "m2", "m1", "m0"]])
    def test_cycle_error_names_a_real_cycle(self, ids):
        with pytest.raises(GraphCycleError) as exc:
            TaskGraph([mk(m) for m in ids],
                      [Edge(s, d, 1.0) for s, d in self.CYCLE_EDGES])
        cycle = exc.value.cycle
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(pair in self.CYCLE_EDGES for pair in zip(cycle, cycle[1:]))
        assert "m0" not in cycle and "m4" not in cycle

    def test_cycle_exits_2_from_the_cli(self, tmp_path, capsys):
        path = tmp_path / "cycle.graph"
        path.write_text("".join(
            f"module {m} clb=100 bram=0 dsp=0 exec=5 conf=1\n"
            for m in ("m0", "m1", "m2", "m3", "m4"))
            + "".join(f"edge {s} {d} weight=1\n" for s, d in self.CYCLE_EDGES))
        assert main(["shapes", "--graph", str(path)]) == 2
        assert "dependency cycle" in capsys.readouterr().err

    def test_unknown_module_rejected(self):
        with pytest.raises(InputFileError, match="unknown module"):
            parse_graph("module m1 clb=1 bram=0 dsp=0 exec=5\n"
                        "edge m1 m9 weight=1\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(InputFileError, match=":2:"):
            parse_graph("module m1 clb=1 bram=0 dsp=0 exec=5\nbogus line here\n")

    def test_parallel_edges_merged(self):
        g = parse_graph("module m1 clb=1 bram=0 dsp=0 exec=5\n"
                        "module m2 clb=1 bram=0 dsp=0 exec=5\n"
                        "edge m1 m2 weight=3\n"
                        "edge m1 m2 weight=4\n")
        assert len(g.edges) == 1
        assert g.edges[0].weight == 7

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\nmodule m1 clb=1 bram=0 dsp=0 exec=5  # tail\n")
        assert len(g.modules) == 1


class TestGenerate:
    def spec(self, **kw):
        base = dict(module_count=10, exec_range=(40, 55),
                    edge_weight_range=(20, 30), clb_range=(2000, 3000),
                    bram_range=(0, 80), dsp_range=(0, 80),
                    edge_density=0.8, seed=11)
        base.update(kw)
        return BenchSpec(**base)

    def test_attributes_in_range(self):
        g = generate(self.spec())
        for m in g.modules:
            assert 40 <= m.exec_time <= 55
            assert 2000 <= m.demand.clb <= 3000
            assert 0 <= m.demand.bram <= 80
            assert 0 <= m.demand.dsp <= 80
        for e in g.edges:
            assert 20 <= e.weight <= 30
        assert len(g.edges) == 8

    def test_non_integral_resource_range_rejected(self):
        with pytest.raises(ValueError, match="clb_range"):
            self.spec(clb_range=(1.5, 3000))

    def test_single_node_no_edges(self):
        g = generate(self.spec(module_count=1, edge_density=0.0))
        assert len(g.modules) == 1 and len(g.edges) == 0

    def test_deterministic_per_seed(self):
        assert generate(self.spec()) == generate(self.spec())
        assert generate(self.spec()) != generate(self.spec(seed=12))

    def test_acyclic_by_construction(self):
        for seed in range(5):
            generate(self.spec(seed=seed, edge_density=3.0))  # would raise on a cycle

    def test_round_trip_serialize_parse(self):
        g = generate(self.spec())
        g = assign_conf_times(g, {m.id: 100 for m in g.modules}, 0.001)
        assert parse_graph(g.serialize()) == g

    def test_preset_matches_family_parameters(self):
        spec = preset_spec("t10-1", seed=3)
        g = generate(spec)
        assert len(g.modules) == 10
        assert len(g.edges) == 8


class TestCriticalPath:
    def test_single_module(self):
        g = TaskGraph([mk("m1", exec_time=40.0)], [])
        assert g.critical_path_time() == 40.0

    def test_chain(self):
        g = TaskGraph([mk("m1", 10.0), mk("m2", 20.0), mk("m3", 30.0)],
                      [Edge("m1", "m2", 1), Edge("m2", "m3", 1)])
        assert g.critical_path_time() == brute_force_cpt(g) == 60.0

    def test_diamond(self):
        g = TaskGraph(
            [mk("m1", 5.0), mk("m2", 7.0), mk("m3", 9.0), mk("m4", 5.0)],
            [Edge("m1", "m2", 1), Edge("m1", "m3", 1),
             Edge("m2", "m4", 1), Edge("m3", "m4", 1)])
        assert g.critical_path_time() == brute_force_cpt(g) == 19.0

    def test_random_graphs_match_enumeration(self):
        for seed in range(6):
            spec = BenchSpec(module_count=8, exec_range=(1, 9),
                             edge_weight_range=(1, 2), clb_range=(1, 2),
                             bram_range=(0, 0), dsp_range=(0, 0),
                             edge_density=1.5, seed=seed)
            g = generate(spec)
            assert g.critical_path_time() == pytest.approx(brute_force_cpt(g))

    def test_bounded_by_total_exec(self):
        for seed in range(4):
            spec = BenchSpec(module_count=6, exec_range=(1, 9),
                             edge_weight_range=(1, 2), clb_range=(1, 2),
                             bram_range=(0, 0), dsp_range=(0, 0),
                             edge_density=1.0, seed=seed)
            g = generate(spec)
            assert g.critical_path_time() <= sum(
                m.exec_time for m in g.modules) + 1e-9


class TestConfAssignment:
    def test_fills_only_unresolved(self):
        g = TaskGraph([mk("m1", conf=None), mk("m2", conf=4.0)], [])
        out = assign_conf_times(g, {"m1": 200, "m2": 999}, 0.01)
        assert out.module("m1").conf_time == pytest.approx(2.0)
        assert out.module("m2").conf_time == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mk("m1", exec_time=0.0)
        with pytest.raises(ValueError):
            Edge("m1", "m1", 1.0)
        with pytest.raises(ValueError):
            TaskGraph([mk("m1"), mk("m1")], [])


@pytest.mark.parametrize("text", [
    "module m1 clb=1 bram=0 dsp=0 exec=inf",
    "module m1 clb=1 bram=0 dsp=0 exec=nan",
    "module m1 clb=1 bram=0 dsp=0 exec=5 conf=nan",
    "module m1 clb=1 bram=0 dsp=0 exec=5 conf=inf",
    "module m1 clb=1 bram=0 dsp=0 exec=5\nmodule m2 clb=1 bram=0 dsp=0 exec=5"
    "\nedge m1 m2 weight=nan",
    "module m1 clb=1 bram=0 dsp=0 exec=5\nmodule m2 clb=1 bram=0 dsp=0 exec=5"
    "\nedge m1 m2 weight=inf",
])
def test_graph_file_rejects_nan_and_inf(text):
    with pytest.raises(InputFileError, match="finite"):
        parse_graph(text + "\n")


@pytest.mark.parametrize("field, value", [
    ("edge_density", float("nan")), ("edge_density", float("inf")),
    ("exec_range", (float("nan"), float("nan"))), ("exec_range", (1, float("inf"))),
    ("edge_weight_range", (float("nan"), 5)), ("module_count", float("nan")),
])
def test_bench_spec_rejects_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        replace(preset_spec("t10-1"), **{field: value})
