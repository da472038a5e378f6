"""Expected outputs computed from the generator's ground truth.

Given which identifiers each answered abstract contributes to each
(food, style), the oracle folds them into hazard-table rows, renders the
exact CSV and JSON report bytes the pipeline must write, and scores the rows
against the gold judgments. It never imports hazardex: the rules it applies
are the ones the README states (one row per identifier, support counted in
distinct abstracts, rows ordered by support then name then identifier, cells
as correct/total over table rows).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

CSV_COLUMNS = ("food", "chebi_id", "preferred_name", "mention_count", "first_seen_year", "supporting_dois")


def table_rows(run: dict, names: dict[str, str]) -> list[dict]:
    support: dict[str, set[str]] = {}
    first: dict[str, int] = {}
    for c in run["contributions"]:
        for cid in c["ids"]:
            support.setdefault(cid, set()).add(c["support"])
            first[cid] = min(first.get(cid, c["year"]), c["year"])
    rows = [
        {
            "food": run["food"],
            "chebi_id": cid,
            "preferred_name": names[cid],
            "mention_count": len(keys),
            "first_seen_year": first[cid],
            "supporting_dois": sorted(keys),
        }
        for cid, keys in support.items()
    ]
    rows.sort(key=lambda r: (-r["mention_count"], r["preferred_name"], r["chebi_id"]))
    return rows


def report_bytes(food: str, rows: list[dict]) -> tuple[bytes, bytes]:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([r["food"], r["chebi_id"], r["preferred_name"], r["mention_count"],
                         r["first_seen_year"], ";".join(r["supporting_dois"])])
    as_json = json.dumps({"food": food, "rows": rows}, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    return buf.getvalue().encode("utf-8"), as_json.encode("utf-8")


def expected(truth: dict) -> dict:
    """Report bytes per file name, accuracy cells per style, pooled per style."""
    verdicts = {(food, cid): verdict for food, cid, verdict in truth["gold"]}
    files: dict[str, bytes] = {}
    cells: dict[str, dict[str, tuple[int, int]]] = {}
    for run in truth["runs"]:
        food, style = run["food"], run["style"]
        rows = table_rows(run, truth["names"])
        csv_bytes, json_bytes = report_bytes(food, rows)
        files[f"hazards__{food}__{style}.csv"] = csv_bytes
        files[f"hazards__{food}__{style}.json"] = json_bytes
        correct = sum(1 for r in rows if verdicts.get((food, r["chebi_id"])) == "correct")
        cells.setdefault(style, {})[food] = (correct, len(rows))
    pooled = {
        style: (sum(c for c, _ in by_food.values()), sum(t for _, t in by_food.values()))
        for style, by_food in cells.items()
    }
    return {"files": files, "cells": cells, "pooled": pooled}


def check(reports_dir: Path, truth: dict) -> list[str]:
    """Differences between the reports on disk and the expectation; empty when correct."""
    want = expected(truth)
    problems = []
    for name, data in sorted(want["files"].items()):
        path = reports_dir / name
        if not path.exists():
            problems.append(f"missing report {name}")
        elif path.read_bytes() != data:
            problems.append(f"report {name} differs from the oracle")
    for style, by_food in sorted(want["cells"].items()):
        path = reports_dir / f"accuracy__{style}.json"
        if not path.exists():
            problems.append(f"missing accuracy__{style}.json")
            continue
        got = {c["food"]: (c["correct"], c["total"]) for c in json.loads(path.read_text("utf-8"))["cells"]}
        if got != by_food:
            problems.append(f"accuracy cells for {style}: got {got}, expected {by_food}")
    if len(want["pooled"]) > 1:
        path = reports_dir / "comparison.json"
        if not path.exists():
            problems.append("missing comparison.json")
        else:
            styles = json.loads(path.read_text("utf-8"))["styles"]
            got = {s: (v["correct"], v["total"]) for s, v in styles.items()}
            if got != want["pooled"]:
                problems.append(f"pooled comparison: got {got}, expected {want['pooled']}")
    return problems
