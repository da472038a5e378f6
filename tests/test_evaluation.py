"""Accuracy scoring against gold judgments: gold-file loading, cell scoring,
percent formatting, style comparison, and the reference figures."""

from __future__ import annotations

from decimal import Decimal

import pytest

from reference_figures import REFERENCE_ACCURACY, VALIDATION_FOODS, build_tables_and_gold
from hazardex.evaluation import (
    AccuracyReport,
    CellScore,
    GoldFormatError,
    GoldJudgment,
    StyleSummary,
    compare_prompts,
    format_cell,
    grid_rows,
    load_gold,
    percent_display,
    report_to_json_dict,
    score,
    select_prompt,
    write_grid_csv,
)
from hazardex.linker import HazardTable, LinkedHazard


def hazard_row(food, chebi_id, name="substance"):
    return LinkedHazard(
        food=food,
        chebi_id=chebi_id,
        preferred_name=name,
        mention_count=1,
        first_seen_year=2020,
        supporting_dois=("10.1/x",),
    )


def table(food, ids):
    return HazardTable(food=food, rows=tuple(hazard_row(food, i) for i in ids))


# --------------------------------------------------------------------------
# gold loading
# --------------------------------------------------------------------------


class TestLoadGold:
    def write(self, tmp_path, text):
        path = tmp_path / "gold.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_judgments_with_notes(self, tmp_path):
        path = self.write(
            tmp_path,
            "food,chebi_id,verdict,note\n"
            "salmon,CHEBI:87200,incorrect,odor compound not a hazard\n"
            "dairy,CHEBI:166655,incorrect,flavor constituent\n"
            "dairy,CHEBI:28628,correct,\n",
        )
        gold = load_gold(path)
        assert gold == {
            GoldJudgment("salmon", "CHEBI:87200", "incorrect", "odor compound not a hazard"),
            GoldJudgment("dairy", "CHEBI:166655", "incorrect", "flavor constituent"),
            GoldJudgment("dairy", "CHEBI:28628", "correct", ""),
        }

    def test_duplicate_food_id_pair_is_an_error_naming_the_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "food,chebi_id,verdict,note\n"
            "dairy,CHEBI:2,correct,\n"
            "dairy,CHEBI:2,incorrect,\n",
        )
        with pytest.raises(GoldFormatError, match=r":3: duplicate"):
            load_gold(path)

    def test_unknown_verdict_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "food,chebi_id,verdict,note\ndairy,CHEBI:2,maybe,\n")
        with pytest.raises(GoldFormatError, match="verdict"):
            load_gold(path)

    def test_malformed_identifier_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "food,chebi_id,verdict,note\ndairy,28628,correct,\n")
        with pytest.raises(GoldFormatError, match="invalid identifier"):
            load_gold(path)

    def test_missing_columns_are_an_error(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(GoldFormatError, match="missing columns"):
            load_gold(path)

    def test_header_only_file_is_an_empty_gold_set(self, tmp_path):
        path = self.write(tmp_path, "food,chebi_id,verdict,note\n")
        assert load_gold(path) == set()

    def test_note_column_is_optional(self, tmp_path):
        path = self.write(tmp_path, "food,chebi_id,verdict\ndairy,CHEBI:2,correct\n")
        assert load_gold(path) == {GoldJudgment("dairy", "CHEBI:2", "correct", "")}


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------


class TestScore:
    GOLD = {
        GoldJudgment("dairy", "CHEBI:1", "correct"),
        GoldJudgment("dairy", "CHEBI:2", "incorrect"),
        GoldJudgment("dairy", "CHEBI:3", "correct"),
    }

    def test_counts_correct_over_total(self):
        report = score([table("dairy", ["CHEBI:1", "CHEBI:2", "CHEBI:3"])], self.GOLD, "simple")
        assert report.cells == {("dairy", "simple"): CellScore(correct=2, total=3)}
        assert report.unjudged == {}

    def test_unjudged_rows_count_in_total_only(self):
        report = score([table("dairy", ["CHEBI:1", "CHEBI:99"])], self.GOLD, "simple")
        assert report.cells[("dairy", "simple")] == CellScore(correct=1, total=2)
        assert report.unjudged[("dairy", "simple")] == ("CHEBI:99",)

    def test_gold_order_is_irrelevant(self):
        tables = [table("dairy", ["CHEBI:1", "CHEBI:2"])]
        a = score(tables, sorted(self.GOLD, key=lambda g: g.chebi_id), "simple")
        b = score(tables, sorted(self.GOLD, key=lambda g: g.chebi_id, reverse=True), "simple")
        assert a.cells == b.cells

    def test_judgments_are_scoped_per_food(self):
        gold = {GoldJudgment("dairy", "CHEBI:1", "correct")}
        report = score([table("maize", ["CHEBI:1"])], gold, "simple")
        assert report.cells[("maize", "simple")] == CellScore(correct=0, total=1)
        assert report.unjudged[("maize", "simple")] == ("CHEBI:1",)

    def test_empty_table_scores_zero_of_zero(self):
        report = score([HazardTable(food="dairy", rows=())], self.GOLD, "simple")
        assert report.cells[("dairy", "simple")] == CellScore(correct=0, total=0)

    def test_cell_accessor(self):
        report = score([table("dairy", ["CHEBI:1"])], self.GOLD, "simple")
        assert report.cell("dairy") == CellScore(correct=1, total=1)
        assert report.cell("maize") is None


# --------------------------------------------------------------------------
# percent formatting
# --------------------------------------------------------------------------


class TestFormatting:
    @pytest.mark.parametrize(
        "correct,total,display",
        [
            (20, 31, "64.5"),    # 64.51… rounds down
            (91, 102, "89.2"),   # 89.21…
            (73, 79, "92.4"),    # 92.40…
            (75, 76, "98.7"),    # 98.68… rounds up
            (69, 75, "92.0"),    # exact .0 keeps one decimal
            (48, 54, "88.9"),    # 88.88… rounds up
            (15, 16, "93.8"),    # 93.75 half rounds up
            (39, 42, "92.9"),    # 92.85… half-up at the third digit
            (1, 3, "33.3"),
            (2, 3, "66.7"),
            (1, 8, "12.5"),      # 12.5 stays (no spurious rounding)
        ],
    )
    def test_percent_display_rounds_half_up_to_one_decimal(self, correct, total, display):
        assert percent_display(CellScore(correct, total)) == Decimal(display)

    def test_perfect_score_displays_as_bare_100(self):
        assert percent_display(CellScore(21, 21)) == Decimal("100")
        assert format_cell(CellScore(21, 21)) == "21/21 (100%)"

    def test_empty_cell_displays_a_dash(self):
        assert percent_display(CellScore(0, 0)) is None
        assert format_cell(CellScore(0, 0)) == "0/0 (-)"

    def test_format_cell_layout(self):
        assert format_cell(CellScore(20, 31)) == "20/31 (64.5%)"
        assert format_cell(CellScore(69, 75)) == "69/75 (92.0%)"


# --------------------------------------------------------------------------
# reference figures through the real scorer
# --------------------------------------------------------------------------


class TestReferenceFigures:
    @pytest.mark.parametrize("style", ["simple", "step_by_step", "pseudo_code"])
    def test_scoring_synthetic_tables_reproduces_every_cell(self, style):
        tables, gold = build_tables_and_gold(style)
        report = score(tables, gold, style)
        for (cell_style, food), (correct, total, display) in REFERENCE_ACCURACY.items():
            if cell_style != style:
                continue
            cell = report.cells[(food, style)]
            assert (cell.correct, cell.total) == (correct, total)
            expected = f"{correct}/{total} ({display}%)"
            assert format_cell(cell) == expected
        assert report.unjudged == {}

    def test_grid_renders_the_step_by_step_row(self):
        tables, gold = build_tables_and_gold("step_by_step")
        report = score(tables, gold, "step_by_step")
        foods = ["leafy_greens", "shellfish", "dairy", "maize", "salmon"]
        rows = grid_rows([report], foods)
        assert rows[0] == ["style", *foods]
        assert rows[1] == [
            "step_by_step",
            "21/21 (100%)", "73/79 (92.4%)", "75/76 (98.7%)",
            "69/75 (92.0%)", "48/54 (88.9%)",
        ]

    def test_grid_leaves_unpopulated_cells_blank(self):
        tables, gold = build_tables_and_gold("simple")
        report = score(tables, gold, "simple")
        rows = grid_rows([report], ["leafy_greens", "dairy"])
        assert rows[1] == ["simple", "20/31 (64.5%)", ""]


# --------------------------------------------------------------------------
# style comparison
# --------------------------------------------------------------------------


def report_from_cells(style, cells):
    report = AccuracyReport(style=style)
    for food, (correct, total) in cells.items():
        report.cells[(food, style)] = CellScore(correct, total)
    return report


class TestComparePrompts:
    def test_step_by_step_wins_on_the_validation_foods(self):
        reports = {}
        for style in ("simple", "step_by_step", "pseudo_code"):
            cells = {
                food: REFERENCE_ACCURACY[(style, food)][:2]
                for food in VALIDATION_FOODS
            }
            reports[style] = report_from_cells(style, cells)
        comparison = compare_prompts(reports)
        assert comparison.best == ("step_by_step",)
        assert comparison.summaries["step_by_step"] == StyleSummary("step_by_step", 94, 100)
        assert comparison.summaries["simple"] == StyleSummary("simple", 111, 133)
        assert comparison.summaries["pseudo_code"] == StyleSummary("pseudo_code", 54, 58)

    def test_pools_cells_before_ranking(self):
        # 9/10 then 0/10 pooled is 45%, losing to a flat 60%
        streaky = report_from_cells("streaky", {"a": (9, 10), "b": (0, 10)})
        steady = report_from_cells("steady", {"a": (6, 10), "b": (6, 10)})
        assert compare_prompts([streaky, steady]).best == ("steady",)

    def test_equal_ratio_ties_break_on_correct_count(self):
        small = report_from_cells("small", {"a": (1, 2)})
        large = report_from_cells("large", {"a": (5, 10)})
        assert compare_prompts([small, large]).best == ("large",)

    def test_exact_ties_report_every_winner(self):
        one = report_from_cells("one", {"a": (3, 4)})
        two = report_from_cells("two", {"b": (3, 4)})
        assert compare_prompts([one, two]).best == ("one", "two")

    def test_selection_uses_only_the_shared_foods(self):
        # Pooled over every cell "wide" wins; on the one food both have, "narrow" does.
        wide = report_from_cells("wide", {"a": (5, 10), "b": (10, 10), "c": (9, 10)})
        narrow = report_from_cells("narrow", {"a": (6, 10)})
        assert compare_prompts([wide, narrow]).best == ("wide",)
        assert select_prompt({"wide": wide, "narrow": narrow}) == {
            "selection_foods": ["a"], "selected": "narrow", "test_foods": [], "test_mean_percent": None}
        tied = report_from_cells("tied", {"a": (5, 10), "d": (1, 1)})
        assert select_prompt({"wide": wide, "tied": tied}) == {
            "selection_foods": ["a"], "selected": None, "test_foods": [], "test_mean_percent": None}
        assert select_prompt({"wide": wide})["test_mean_percent"] is None
        assert select_prompt({"wide": wide, "other": report_from_cells("other", {"b": (1, 2)})}) == {
            "selection_foods": ["b"], "selected": "wide", "test_foods": ["a", "c"], "test_mean_percent": 70.0}

    def test_no_reports_no_best(self):
        comparison = compare_prompts([])
        assert comparison.best == ()
        assert comparison.summaries == {}


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


class TestReportOutput:
    def test_report_json_shape(self):
        tables, gold = build_tables_and_gold("pseudo_code")
        obj = report_to_json_dict(score(tables, gold, "pseudo_code"))
        assert obj["style"] == "pseudo_code"
        by_food = {cell["food"]: cell for cell in obj["cells"]}
        assert by_food["leafy_greens"]["correct"] == 15
        assert by_food["leafy_greens"]["total"] == 16
        assert by_food["leafy_greens"]["percent"] == 93.8
        assert by_food["shellfish"]["unjudged"] == []

    def test_write_grid_csv(self, tmp_path):
        rows = [["style", "dairy"], ["simple", "1/2 (50.0%)"]]
        path = tmp_path / "grid.csv"
        write_grid_csv(rows, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "style,dairy",
            'simple,1/2 (50.0%)',
        ]
