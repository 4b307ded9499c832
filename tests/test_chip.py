from operator import add

import pytest

from pdrplan.chip import (ChipModel, Rect, ResourceVector, builtin_xc7vx485t,
                          parse_chip)
from pdrplan.errors import InputFileError


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def brute_force_window(chip, rect):
    """Per-tile oracle: walk every column and count tiles by kind."""
    clb = bram = dsp = 0
    mt = rect.h * chip.macro_rows_per_col // chip.height
    for x in range(rect.x, rect.x + rect.w):
        if x in chip.bram_cols:
            bram += mt
        elif x in chip.dsp_cols:
            dsp += mt
        else:
            clb += rect.h
    return ResourceVector(clb, bram, dsp)


class TestBuiltinDevice:
    def test_column_inventory(self, chip):
        assert chip.width == 146
        assert chip.height == 350
        bram = sum(x in chip.bram_cols for x in range(1, 147))
        dsp = sum(x in chip.dsp_cols for x in range(1, 147))
        assert 146 - bram - dsp == 111
        assert bram == 15
        assert dsp == 20

    def test_known_column_positions(self, chip):
        assert 5 in chip.bram_cols
        assert 142 in chip.bram_cols
        assert 14 in chip.dsp_cols
        assert 133 in chip.dsp_cols

    def test_total_capacity(self, chip):
        # 111*350 CLB, 15*140 BRAM, 20*140 DSP
        assert chip.capacity().as_tuple() == (38850, 2100, 2800)

    def test_column_kind_values(self, chip):
        assert 5 in chip.bram_cols and 5 not in chip.dsp_cols
        assert 14 in chip.dsp_cols and 14 not in chip.bram_cols
        assert 1 not in chip.bram_cols and 1 not in chip.dsp_cols


class TestResourcesInWindow:
    def test_full_chip(self, chip):
        full = Rect(1, 1, 146, 350)
        assert chip.resources_in_window(full).as_tuple() == (38850, 2100, 2800)

    def test_pure_clb_strip(self, chip):
        # Columns 1-4 are all CLB (first BRAM column is 5, first DSP is 14).
        got = chip.resources_in_window(Rect(1, 1, 4, 350))
        assert got.as_tuple() == (1400, 0, 0)

    def test_minimal_window_single_clb_column(self, chip):
        got = chip.resources_in_window(Rect(1, 1, 1, chip.quantum))
        assert got.as_tuple() == (chip.quantum, 0, 0)

    def test_matches_per_tile_oracle(self, chip):
        import random
        rng = random.Random(7)
        for _ in range(200):
            w = rng.randint(1, 30)
            h = rng.randrange(5, 355, 5)
            if h > 350:
                continue
            x = rng.randint(1, 146 - w + 1)
            y = rng.randrange(1, 351 - h + 1, 5)
            rect = Rect(x, y, w, h)
            assert chip.resources_in_window(rect) == brute_force_window(chip, rect)

    def test_rejects_unaligned_rect(self, chip):
        with pytest.raises(ValueError):
            chip.resources_in_window(Rect(1, 2, 4, 5))
        with pytest.raises(ValueError):
            chip.resources_in_window(Rect(1, 1, 4, 7))

    def test_rejects_out_of_bounds_rect(self, chip):
        with pytest.raises(ValueError):
            chip.resources_in_window(Rect(146, 1, 2, 5))
        with pytest.raises(ValueError):
            chip.resources_in_window(Rect(1, 346, 1, 10))


class TestMinWindowOverX:
    def test_full_width_single_position(self, chip):
        assert chip.min_window_over_x(146, 350).as_tuple() == (38850, 2100, 2800)

    def test_single_column_is_all_zero(self, chip):
        # Some column is BRAM and some is CLB, so every component bottoms out.
        assert chip.min_window_over_x(1, 350).as_tuple() == (0, 0, 0)

    def test_matches_sweep_oracle(self, chip):
        w, h = 10, 50
        sweep = None
        for x in range(1, 146 - w + 2):
            got = chip.resources_in_window(Rect(x, 1, w, h))
            sweep = got if sweep is None else ResourceVector(
                *map(min, sweep.as_tuple(), got.as_tuple()))
        assert chip.min_window_over_x(w, h) == sweep

    def test_lower_bound_on_every_window(self, chip):
        w, h = 7, 25
        lo = chip.min_window_over_x(w, h)
        for x in range(1, 146 - w + 2):
            assert chip.resources_in_window(Rect(x, 1, w, h)).covers(lo)


class TestWindowProperties:
    def test_monotone_in_nested_rects(self, chip):
        import random
        rng = random.Random(3)
        for _ in range(100):
            w2 = rng.randint(2, 40)
            h2 = rng.randrange(10, 200, 5)
            x2 = rng.randint(1, 146 - w2 + 1)
            y2 = rng.randrange(1, 351 - h2, 5)
            outer = Rect(x2, y2, w2, h2)
            w1 = rng.randint(1, w2)
            h1 = rng.randrange(5, h2 + 5, 5)
            x1 = rng.randint(x2, x2 + w2 - w1)
            y1 = rng.randrange(y2, y2 + h2 - h1 + 1, 5)
            inner = Rect(x1, y1, w1, h1)
            assert chip.resources_in_window(outer).covers(
                chip.resources_in_window(inner))

    def test_y_translation_invariant(self, chip):
        w, h = 9, 35
        base = chip.resources_in_window(Rect(30, 1, w, h))
        for y in range(1, 351 - h + 1, 5):
            assert chip.resources_in_window(Rect(30, y, w, h)) == base

    def test_tiling_adds_up_to_capacity(self, chip):
        total = (0, 0, 0)
        for x0, w in ((1, 50), (51, 50), (101, 46)):
            for y0, h in ((1, 100), (101, 100), (201, 150)):
                window = chip.resources_in_window(Rect(x0, y0, w, h))
                total = tuple(map(add, total, window.as_tuple()))
        assert total == chip.capacity().as_tuple()


class TestChipFile:
    GOOD = """\
# toy device
width 16
height 20
quantum 5
macro_rows 8
bram_cols 2,6,10,14
dsp_cols 4,12
"""

    def test_parse_round_trip_queries(self):
        toy = parse_chip(self.GOOD)
        assert toy.width == 16
        assert 2 in toy.bram_cols and 2 not in toy.dsp_cols
        assert 4 in toy.dsp_cols and 4 not in toy.bram_cols
        assert toy.macro_tiles(5) == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(InputFileError, match="unknown key"):
            parse_chip("width 4\nheight 10\nquantum 5\nmacro_rows 4\nfrobnicate 3\n")

    def test_missing_key_rejected(self):
        with pytest.raises(InputFileError, match="missing"):
            parse_chip("width 4\nheight 10\n")

    def test_bad_pitch_rejected(self):
        # 7 macro rows over 20 CLB rows: pitch 20/7 does not divide quantum 5.
        with pytest.raises(InputFileError):
            parse_chip("width 4\nheight 20\nquantum 5\nmacro_rows 7\n")

    def test_overlapping_kinds_rejected(self):
        with pytest.raises(ValueError):
            ChipModel(width=4, height=10, bram_cols=frozenset({2}),
                      dsp_cols=frozenset({2}), macro_rows_per_col=4, quantum=5)
