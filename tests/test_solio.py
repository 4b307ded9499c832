import pytest

from helpers import make_graph
from pdrplan.chip import builtin_xc7vx485t
from pdrplan.errors import InputFileError
from pdrplan.pst import CostWeights, PST, evaluate
from pdrplan.shapes import Shape
from pdrplan.solio import parse_solution, write_solution


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def sample_solution(chip):
    g = make_graph(3, edges=[("m1", "m2", 2.0)], conf=1.0)
    pst = PST(ps=["m1", "m2", "m3"], qs=["m1", "m2", "m3"],
              rs=[(0, 0), (1, 0)],
              partition={"m1": (0, 0), "m2": (0, 0), "m3": (1, 0)})
    shapes = {"m1": Shape(8, 5), "m2": Shape(5, 10), "m3": Shape(4, 5)}
    return g, evaluate(pst, shapes, g, chip, CostWeights().resolve(g, chip))


def test_round_trip(chip):
    g, sol = sample_solution(chip)
    text = write_solution(sol)
    pst, shapes, metrics = parse_solution(text)
    assert pst == sol.pst
    assert shapes == sol.shapes
    assert metrics["makespan"] == pytest.approx(sol.costs.makespan)
    assert metrics["feasible"] == 1.0
    # writing the re-evaluated parse yields identical bytes
    again = evaluate(pst, shapes, g, chip, CostWeights().resolve(g, chip))
    assert write_solution(again) == text


def test_rejects_missing_sections(chip):
    with pytest.raises(InputFileError, match="needs ps, qs, and rs"):
        parse_solution("place m1 region=0 layer=0 x=1 y=1 w=4 h=5\n")


def test_rejects_mismatched_place_lines(chip):
    text = ("ps m1 m2\nqs m1 m2\nrs 0.0\n"
            "place m1 region=0 layer=0 x=1 y=1 w=4 h=5\n")
    with pytest.raises(InputFileError, match="place lines"):
        parse_solution(text)


def test_rejects_bad_layer_key(chip):
    with pytest.raises(InputFileError, match="layer key"):
        parse_solution("ps m1\nqs m1\nrs zero\n"
                       "place m1 region=0 layer=0 x=1 y=1 w=4 h=5\n")


def test_comments_ignored(chip):
    g, sol = sample_solution(chip)
    text = "# produced by a test\n" + write_solution(sol)
    pst, _, _ = parse_solution(text)
    assert pst == sol.pst


@pytest.mark.parametrize("extra, lineno, what", [
    ("place m1 region=0 layer=0 x=1 y=1 w=146 h=350\n", 8,
     "second place line for module m1"),
    ("ps m1 m2 m3\n", 8, "second ps line"),
    ("qs m1 m2 m3\n", 8, "second qs line"),
    ("rs 0.0 1.0\n", 8, "second rs line"),
    ("metrics makespan=1.0\n", 8, "second metrics line"),
])
def test_rejects_repeated_lines(chip, extra, lineno, what):
    _, sol = sample_solution(chip)
    text = write_solution(sol)
    assert len(text.splitlines()) == lineno - 1
    with pytest.raises(InputFileError, match=f"plan.txt:{lineno}: {what}"):
        parse_solution(text + extra, source="plan.txt")


@pytest.mark.parametrize("lineno, extra, what", [
    (4, " w=146", "duplicate attribute 'w'"),
    (4, " bogus=7", "unknown attribute 'bogus'"),
    (7, " total=1.0", "duplicate attribute 'total'"),
    (7, " bogus=7", "unknown attribute 'bogus'"),
])
def test_rejects_repeated_and_unknown_keys(chip, lineno, extra, what):
    _, sol = sample_solution(chip)
    lines = write_solution(sol).splitlines()
    assert lines[lineno - 1].split()[0] == ("place" if lineno == 4 else "metrics")
    lines[lineno - 1] += extra
    with pytest.raises(InputFileError, match=f"plan.txt:{lineno}: {what}"):
        parse_solution("\n".join(lines) + "\n", source="plan.txt")
