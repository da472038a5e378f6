"""Score linked hazard tables against expert gold judgments.

A cell is correct/total for one (food, prompt style): total is the table's
row count, correct counts rows judged correct. Percentages are displayed at
one decimal, rounded half-up, matching how the counts are reported. Styles
are compared on pooled accuracy first, then on the absolute number of correct
hazards; a full tie reports both styles without a winner.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifacts import atomic_open
from .lexicon import is_chebi_id
from .linker import HazardTable

VERDICT_CORRECT = "correct"
VERDICT_INCORRECT = "incorrect"

GOLD_COLUMNS = ("food", "chebi_id", "verdict", "note")


class GoldFormatError(Exception):
    """The gold CSV is malformed; the message names the offending row."""


@dataclass(frozen=True)
class GoldJudgment:
    food: str
    chebi_id: str
    verdict: str
    note: str = ""


def load_gold(path: str | Path) -> set[GoldJudgment]:
    """Read gold judgments; duplicates and unknown verdicts are load errors."""
    path = Path(path)
    judgments: set[GoldJudgment] = set()
    seen: dict[tuple[str, str], int] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames = tuple(reader.fieldnames or ())
        missing = [c for c in ("food", "chebi_id", "verdict") if c not in fieldnames]
        if missing:
            raise GoldFormatError(f"{path}: missing columns {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            food = (row.get("food") or "").strip()
            chebi_id = (row.get("chebi_id") or "").strip()
            verdict = (row.get("verdict") or "").strip().casefold()
            if not food or not chebi_id:
                raise GoldFormatError(f"{path}:{lineno}: food and chebi_id are required")
            if not is_chebi_id(chebi_id):
                raise GoldFormatError(f"{path}:{lineno}: invalid identifier {chebi_id!r}")
            if verdict not in (VERDICT_CORRECT, VERDICT_INCORRECT):
                raise GoldFormatError(f"{path}:{lineno}: verdict must be correct or incorrect")
            key = (food, chebi_id)
            if key in seen:
                raise GoldFormatError(
                    f"{path}:{lineno}: duplicate judgment for {key} (first at line {seen[key]})"
                )
            seen[key] = lineno
            judgments.add(
                GoldJudgment(food=food, chebi_id=chebi_id, verdict=verdict, note=(row.get("note") or "").strip())
            )
    return judgments


@dataclass(frozen=True)
class CellScore:
    correct: int
    total: int

    @property
    def ratio(self) -> float | None:
        if self.total == 0:
            return None
        return self.correct / self.total


def percent_display(cell: CellScore) -> Decimal | None:
    """Percentage at one decimal, half-up (93.75% prints as 93.8)."""
    if cell.total == 0:
        return None
    value = Decimal(cell.correct) * 100 / Decimal(cell.total)
    return value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def format_cell(cell: CellScore) -> str:
    percent = percent_display(cell)
    if percent is None:
        return "0/0 (-)"
    shown = "100" if percent == 100 else str(percent)
    return f"{cell.correct}/{cell.total} ({shown}%)"


@dataclass
class AccuracyReport:
    style: str
    cells: dict[tuple[str, str], CellScore] = field(default_factory=dict)
    unjudged: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)

    def cell(self, food: str) -> CellScore | None:
        return self.cells.get((food, self.style))


def score(
    tables: Iterable[HazardTable], gold: Iterable[GoldJudgment], style: str
) -> AccuracyReport:
    """One cell per table: total = row count, correct = rows judged correct.

    Rows without a judgment still count in the total but are reported in the
    unjudged sidecar instead of being guessed either way.
    """
    verdicts = {(g.food, g.chebi_id): g.verdict for g in gold}
    report = AccuracyReport(style=style)
    for table in tables:
        correct = 0
        missing: list[str] = []
        for row in table.rows:
            verdict = verdicts.get((table.food, row.chebi_id))
            if verdict is None:
                missing.append(row.chebi_id)
            elif verdict == VERDICT_CORRECT:
                correct += 1
        key = (table.food, style)
        report.cells[key] = CellScore(correct=correct, total=len(table.rows))
        if missing:
            report.unjudged[key] = tuple(missing)
    return report


@dataclass(frozen=True)
class StyleSummary:
    style: str
    correct: int
    total: int

    @property
    def ratio(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class PromptComparison:
    summaries: dict[str, StyleSummary]
    best: tuple[str, ...]


def compare_prompts(reports: Mapping[str, AccuracyReport] | Iterable[AccuracyReport]) -> PromptComparison:
    """Rank styles by pooled accuracy, breaking ties on total correct count."""
    if not isinstance(reports, Mapping):
        reports = {r.style: r for r in reports}
    summaries = {}
    for style, report in reports.items():
        correct = sum(c.correct for c in report.cells.values())
        total = sum(c.total for c in report.cells.values())
        summaries[style] = StyleSummary(style=style, correct=correct, total=total)
    if not summaries:
        return PromptComparison(summaries={}, best=())
    top = max((s.ratio, s.correct) for s in summaries.values())
    best = tuple(
        sorted(style for style, s in summaries.items() if (s.ratio, s.correct) == top)
    )
    return PromptComparison(summaries=summaries, best=best)


def report_to_json_dict(report: AccuracyReport) -> dict:
    cells = []
    for (food, style), cell in sorted(report.cells.items()):
        percent = percent_display(cell)
        cells.append(
            {
                "food": food,
                "style": style,
                "correct": cell.correct,
                "total": cell.total,
                "ratio": cell.ratio,
                "percent": None if percent is None else float(percent),
                "unjudged": list(report.unjudged.get((food, style), ())),
            }
        )
    return {"style": report.style, "cells": cells}


def grid_rows(
    reports: Sequence[AccuracyReport], foods: Sequence[str]
) -> list[list[str]]:
    """Accuracy grid: one row per style, one column per food, cells "c/t (p%)"."""
    header = ["style", *foods]
    out = [header]
    for report in reports:
        row = [report.style]
        for food in foods:
            cell = report.cells.get((food, report.style))
            row.append(format_cell(cell) if cell is not None else "")
        out.append(row)
    return out


def write_grid_csv(rows: list[list[str]], destination: str | Path) -> None:
    with atomic_open(destination) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
