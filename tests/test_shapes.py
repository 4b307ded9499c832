import random

import pytest

from helpers import TOY_CHIP, sweep_shapes
from pdrplan.chip import ChipModel, Rect, ResourceVector, builtin_xc7vx485t
from pdrplan.errors import InfeasibleModuleError
from pdrplan.shapes import (Shape, ShapeGenConfig, ShapeList, aspect_ratio,
                            generate, initial_width, min_height_for_width)
from pdrplan.taskgraph import TaskModule


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def module(clb=0, bram=0, dsp=0, mid="m1"):
    return TaskModule(mid, ResourceVector(clb, bram, dsp), 10.0, 1.0)


def feasible_everywhere(chip, demand, w, h):
    """Sweep oracle: demand met at every horizontal offset."""
    for x in range(1, chip.width - w + 2):
        if not chip.resources_in_window(Rect(x, 1, w, h)).covers(demand):
            return False
    return True


def brute_force_lists(mod, chip, cfg):
    """Reference enumeration over all (w, h) followed by the same pruning."""
    kept = []
    seen = set()
    best_any = None
    for w in range(1, chip.width + 1):
        for h in range(chip.quantum, chip.height + 1, chip.quantum):
            if feasible_everywhere(chip, mod.demand, w, h):
                s = Shape(w, h)
                if best_any is None or (s.area, s.w) < (best_any.area, best_any.w):
                    best_any = s
                if h not in seen and aspect_ratio(s, chip) <= cfg.gamma_ar:
                    kept.append(s)
                    seen.add(h)
                break  # taller windows at this width are not minimal
    if best_any is not None and best_any not in kept:
        kept = [s for s in kept if s.h != best_any.h]
        kept.append(best_any)
    kept.sort(key=lambda s: (s.area, s.w))
    return kept[:cfg.n]


class TestInitialWidth:
    def test_zero_demand_clamped_to_one(self, chip):
        assert initial_width(module(), chip) == 1

    def test_clb_bound(self, chip):
        # Two full-height CLB columns hold only 700 tiles.
        assert initial_width(module(clb=701), chip) == 3
        assert chip.resources_in_window(Rect(1, 1, 2, 350)).clb == 700

    def test_bram_bound(self, chip):
        # A full BRAM column holds 140 tiles.
        assert initial_width(module(bram=281), chip) == 3

    def test_overdemand_rejected(self, chip):
        with pytest.raises(InfeasibleModuleError):
            initial_width(module(clb=40000), chip)


class TestMinHeight:
    def test_zero_demand_gives_quantum(self, chip):
        for w in (1, 10, 146):
            assert min_height_for_width(module(), chip, w) == chip.quantum

    def test_full_chip_demand_needs_full_height(self, chip):
        cap = chip.capacity()
        mod = module(clb=cap.clb, bram=cap.bram, dsp=cap.dsp)
        assert min_height_for_width(mod, chip, chip.width) == chip.height

    def test_minimal_and_feasible_at_sample_width(self, chip):
        mod = module(clb=2000, bram=40, dsp=40)
        h = min_height_for_width(mod, chip, 20)
        assert h is not None
        assert feasible_everywhere(chip, mod.demand, 20, h)
        assert not feasible_everywhere(chip, mod.demand, 20, h - chip.quantum)

    def test_matches_scan_oracle(self, chip):
        rng = random.Random(5)
        for _ in range(25):
            mod = module(clb=rng.randint(0, 4000), bram=rng.randint(0, 120),
                         dsp=rng.randint(0, 120))
            w = rng.randint(1, chip.width)
            got = min_height_for_width(mod, chip, w)
            want = None
            for h in range(chip.quantum, chip.height + 1, chip.quantum):
                if chip.min_window_over_x(w, h).covers(mod.demand):
                    want = h
                    break
            assert got == want


class TestGenerate:
    def test_zero_demand_minimal_shape_first(self, chip):
        sl = generate(module(), chip)
        assert sl.shapes[0] == Shape(1, chip.quantum)

    def test_bram_demand_covered_at_every_offset(self, chip):
        mod = module(clb=500, bram=30)
        sl = generate(mod, chip)
        for s in sl.shapes:
            assert feasible_everywhere(chip, mod.demand, s.w, s.h)

    def test_sorted_dominance_and_length(self, chip):
        rng = random.Random(9)
        for _ in range(10):
            mod = module(clb=rng.randint(1000, 4000), bram=rng.randint(0, 120),
                         dsp=rng.randint(0, 120))
            sl = generate(mod, chip)
            areas = [s.area for s in sl.shapes]
            assert areas == sorted(areas)
            assert len(sl.shapes) <= 10
            heights = [s.h for s in sl.shapes]
            assert len(set(heights)) == len(heights)

    def test_matches_brute_force_on_small_chip(self):
        toy = ChipModel(width=16, height=20, bram_cols=frozenset({2, 6, 10, 14}),
                        dsp_cols=frozenset({4, 12}),
                        macro_rows_per_col=8, quantum=5)
        cfg = ShapeGenConfig(n=10, gamma_ar=2.5)
        rng = random.Random(4)
        for _ in range(40):
            mod = module(clb=rng.randint(0, 120), bram=rng.randint(0, 10),
                         dsp=rng.randint(0, 6))
            if not toy.capacity().covers(mod.demand):
                continue
            try:
                got = list(generate(mod, toy, cfg).shapes)
            except InfeasibleModuleError:
                assert brute_force_lists(mod, toy, cfg) == []
                continue
            assert got == brute_force_lists(mod, toy, cfg)

    def test_tall_and_wide_variants_ranked_by_area(self):
        # Toy layout where demand (20 CLB, 4 BRAM) admits a narrow/tall
        # 5x10 and a wide/short 8x5 candidate; the smaller-area 8x5 wins.
        toy = ChipModel(width=15, height=20, bram_cols=frozenset({1, 4, 9, 12}),
                        dsp_cols=frozenset(), macro_rows_per_col=8, quantum=5)
        mod = module(clb=20, bram=4)
        sl = generate(mod, toy, ShapeGenConfig(n=10, gamma_ar=100.0))
        assert Shape(5, 10) in sl.shapes
        assert Shape(8, 5) in sl.shapes
        assert sl.shapes.index(Shape(8, 5)) < sl.shapes.index(Shape(5, 10))

    def test_fallback_keeps_minimum_area_shape(self):
        # Narrow tall chip: the only feasible shape is the full-width sliver,
        # whose ratio is far beyond any sane bound.
        toy = ChipModel(width=2, height=100, bram_cols=frozenset({2}),
                        dsp_cols=frozenset(), macro_rows_per_col=40, quantum=5)
        mod = module(clb=10)
        sl = generate(mod, toy, ShapeGenConfig(n=10, gamma_ar=1.5))
        assert sl.shapes == (Shape(2, 10),)

    def test_impossible_demand_raises(self, chip):
        with pytest.raises(InfeasibleModuleError):
            generate(module(clb=50000), chip)


    @pytest.mark.parametrize("toy", [False, True])
    def test_equals_plain_width_sweep(self, chip, toy):
        """The same list, or the same error, as one min_height_for_width
        call, Shape and aspect_ratio per width, over random demands, list
        lengths and ratio bounds."""
        chip = TOY_CHIP if toy else chip
        cap = chip.capacity()
        rng = random.Random(12 + toy)
        for _ in range(300):
            mod = module(clb=rng.randint(0, cap.clb // 8),
                         bram=rng.choice([0, rng.randint(0, cap.bram // 8)]),
                         dsp=rng.choice([0, rng.randint(0, cap.dsp // 8)]))
            cfg = ShapeGenConfig(n=rng.randint(1, 12),
                                 gamma_ar=rng.choice([1.0, 1.5, 2.5,
                                                      rng.uniform(1, 8)]))
            try:
                want = sweep_shapes(mod, chip, cfg)
            except InfeasibleModuleError:
                with pytest.raises(InfeasibleModuleError):
                    generate(mod, chip, cfg)
                continue
            assert generate(mod, chip, cfg) == want


class TestShapeMinimality:
    def test_height_reduction_breaks_feasibility(self, chip):
        rng = random.Random(1)
        for _ in range(8):
            mod = module(clb=rng.randint(2000, 4000), bram=rng.randint(0, 120),
                         dsp=rng.randint(0, 120))
            for s in generate(mod, chip).shapes:
                if s.h > chip.quantum:
                    assert not chip.min_window_over_x(s.w, s.h - chip.quantum).covers(
                        mod.demand)


class TestPickInitial:
    """The explorer's starting shape: ShapeList.min_area_shape()."""

    def test_minimum_area_first(self):
        sl = ShapeList("m1", (Shape(8, 5), Shape(5, 10)))
        assert sl.min_area_shape() == Shape(8, 5)

    def test_singleton(self):
        sl = ShapeList("m1", (Shape(3, 5),))
        assert sl.min_area_shape() == Shape(3, 5)

    def test_tie_broken_by_width(self, chip):
        # Equal areas 40: (4,10) sorts before (5,8) by smaller width.
        shapes = sorted([Shape(5, 8), Shape(4, 10)], key=lambda s: (s.area, s.w))
        assert ShapeList("m1", tuple(shapes)).shapes[0] == Shape(4, 10)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            ShapeList("m1", ())
