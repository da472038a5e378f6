"""Acceptance gate: one test per release criterion, each with its stated
time budget. The conftest reporter prints a PASS/FAIL/SKIP line per criterion
at the end of the run.

Two optional criteria are environment-gated:
  HAZARDEX_FULL_CHEBI=/path/to/names.tsv[.gz]  full-scale lexicon build
  HAZARDEX_LIVE_API=1                          live corpus count (informational)
"""

from __future__ import annotations

import csv
import json
import os
import random
import time
from datetime import date

import pytest
from click.testing import CliRunner

from conftest import E2E_EXPECTED_TABLE, make_workspace
from oracles import oracle_expand, random_digit_name
from parser_fixtures import FIXTURES
from reference_figures import REFERENCE_ACCURACY, build_tables_and_gold
from hazardex.cli import main
from hazardex.corpus import AbstractRecord, BUILTIN_FOODS, build_search_query
from hazardex.evaluation import format_cell, score
from hazardex.lexicon import (
    ParseStats,
    build_index,
    default_stoplist,
    expand_numeric_variants,
    parse_chebi_source,
)
from hazardex.linker import aggregate, link_candidate
from hazardex.prompting import PLACEHOLDER, PromptStyle, load_template, render_prompt
from hazardex.response_parser import (
    WELL_FORMED,
    ExtractionCandidate,
    extract_mapping_text,
    to_mapping_literal,
)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_reference_accuracy_cells():
    """reference accuracy: all nine populated cells reproduce exactly (<1s)"""
    with Stopwatch() as watch:
        for style in ("simple", "step_by_step", "pseudo_code"):
            tables, gold = build_tables_and_gold(style)
            report = score(tables, gold, style)
            for (cell_style, food), (correct, total, display) in REFERENCE_ACCURACY.items():
                if cell_style != style:
                    continue
                cell = report.cells[(food, style)]
                assert (cell.correct, cell.total) == (correct, total), (style, food)
                assert format_cell(cell) == f"{correct}/{total} ({display}%)", (style, food)
    assert watch.elapsed < 1.0


def test_identifier_identity_for_symbol_and_name(lexicon_index):
    """lexicon lookup: symbol and full name resolve to one identifier (<1s)"""
    with Stopwatch() as watch:
        assert lexicon_index.lookup("Cd") == "CHEBI:28628"
        assert lexicon_index.lookup("cadmium") == "CHEBI:28628"
        assert lexicon_index.lookup("Cd") == lexicon_index.lookup("cadmium")
    assert watch.elapsed < 1.0


def test_variant_expansion_matches_the_oracle():
    """numeric variants: implementation equals the brute-force oracle (<10s)"""
    with Stopwatch() as watch:
        assert "210-polonium" in expand_numeric_variants("polonium-210")
        assert "aflatoxin b-1" in expand_numeric_variants("aflatoxin b1")
        rng = random.Random(20230402)
        for _ in range(1000):
            name = random_digit_name(rng)
            assert expand_numeric_variants(name) == oracle_expand(name), name
    assert watch.elapsed < 10.0


def test_parser_fixture_corpus_and_round_trip():
    """response parsing: 30+ frozen fixtures classify and round-trip (<5s)"""
    assert len(FIXTURES) >= 30
    with Stopwatch() as watch:
        for name, text, expected_terms, expected_status in FIXTURES:
            terms, status = extract_mapping_text(text)
            assert (terms, status) == (expected_terms, expected_status), name
            if status != WELL_FORMED:
                continue
            candidate = ExtractionCandidate("k", PromptStyle.SIMPLE, terms, status)
            literal = to_mapping_literal(candidate)
            assert extract_mapping_text(literal) == (terms, WELL_FORMED), name
            rendered_again = to_mapping_literal(
                ExtractionCandidate("k", PromptStyle.SIMPLE, terms, WELL_FORMED)
            )
            assert rendered_again == literal, name
    assert watch.elapsed < 5.0


def test_template_integrity_and_shared_warning():
    """prompt templates: sentinel excision is byte-exact, warning shared (<1s)"""
    sentinel = "QWXZV-SENTINEL-31415"
    record = AbstractRecord("k", "10.1/k", "T", sentinel, 2020)
    with Stopwatch() as watch:
        for style in PromptStyle:
            template = load_template(style)
            rendered = render_prompt(record, style).text
            prefix, suffix = template.split(PLACEHOLDER)
            assert rendered == prefix + sentinel + suffix, style
            # excising the sentinel recovers the template byte-for-byte
            assert rendered.replace(sentinel, PLACEHOLDER, 1) == template, style
        simple = load_template(PromptStyle.SIMPLE)
        warning = next(
            p for p in simple.split("\n\n")
            if p.startswith("I want to warn you against some pitfalls.")
        )
        for style in (PromptStyle.STEP_BY_STEP, PromptStyle.PSEUDO_CODE):
            assert warning in load_template(style), style
    assert watch.elapsed < 1.0


def test_pipeline_is_deterministic_across_fresh_workdirs(tmp_path):
    """pipeline determinism: fresh reruns emit byte-identical reports (<30s/run)"""
    runner = CliRunner()
    outputs = []
    for name in ("first", "second"):
        workspace = make_workspace(tmp_path / name)
        with Stopwatch() as watch:
            result = runner.invoke(
                main,
                ["--config", str(workspace["config"]), "run-all", "--food", "dairy"],
                catch_exceptions=False,
            )
        assert result.exit_code == 0, result.output
        assert watch.elapsed < 30.0
        reports = workspace["workdir"] / "reports"
        outputs.append({
            p.name: p.read_bytes()
            for p in sorted(reports.iterdir())
            if p.suffix in {".csv", ".json"} and not p.name.endswith(".manifest.json")
        })
    assert outputs[0].keys() == outputs[1].keys()
    assert set(outputs[0]) >= {
        "hazards__dairy__step_by_step.csv",
        "accuracy__step_by_step.csv",
        "accuracy__step_by_step.json",
    }
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name

    # and the hazard table is the expected one, not merely stable
    with (tmp_path / "first" / "work" / "reports" / "hazards__dairy__step_by_step.csv").open(
        newline="", encoding="utf-8"
    ) as fh:
        got = [
            (r["chebi_id"], r["preferred_name"], int(r["mention_count"]),
             int(r["first_seen_year"]))
            for r in csv.DictReader(fh)
        ]
    assert got == list(E2E_EXPECTED_TABLE)


def test_mentions_aggregate_across_abstracts(lexicon_index):
    """aggregation: symbol and name in different abstracts merge to one row (<1s)"""
    first = AbstractRecord(
        "10.1/one", "10.1/one", "T",
        "We measured cadmium (Cd) in dairy milk across three seasons.", 2018,
    )
    second = AbstractRecord(
        "10.1/two", "10.1/two", "T",
        "Cadmium levels in dairy products exceeded regulatory limits.", 2021,
    )
    with Stopwatch() as watch:
        mentions = []
        for record, terms in ((first, ["Cd"]), (second, ["cadmium"])):
            candidate = ExtractionCandidate(
                record.record_key, PromptStyle.STEP_BY_STEP, {"dairy": terms}, WELL_FORMED
            )
            outcome = link_candidate(candidate, record, lexicon_index)
            mentions += [(chebi_id, record) for _, chebi_id in outcome.pairs]
        table = aggregate(mentions, BUILTIN_FOODS["dairy"], lexicon_index)
    assert watch.elapsed < 1.0
    (row,) = table.rows
    assert row.chebi_id == "CHEBI:28628"
    assert row.preferred_name == "cadmium"
    assert row.mention_count == 2
    assert row.first_seen_year == 2018
    assert row.supporting_dois == ("10.1/one", "10.1/two")


@pytest.mark.skipif(
    not os.environ.get("HAZARDEX_FULL_CHEBI"),
    reason="set HAZARDEX_FULL_CHEBI=/path/to/names dump to run the full-scale build",
)
def test_full_scale_lexicon_build():
    """full dump (optional): 100k+ entries, 1.0-2.0M surfaces, fast lookups"""
    dump = os.environ["HAZARDEX_FULL_CHEBI"]
    stats = ParseStats()
    with Stopwatch() as build_watch:
        index = build_index(
            parse_chebi_source(dump, stats),
            default_stoplist(),
            parse_stats=stats,
        )
        index.lookup("cadmium")  # the surface map is made on the first lookup
    assert build_watch.elapsed < 120.0
    assert index.stats.entry_count >= 100_000
    assert 1_000_000 <= index.stats.surface_count <= 2_000_000
    probes = ["cadmium", "aflatoxin b1", "Pb", "not-a-chemical-xyz"] * 250
    with Stopwatch() as lookup_watch:
        for probe in probes:
            index.lookup(probe)
    assert lookup_watch.elapsed / len(probes) < 5e-6


@pytest.mark.skipif(
    not os.environ.get("HAZARDEX_LIVE_API"),
    reason="set HAZARDEX_LIVE_API=1 to query the live literature API",
)
def test_live_corpus_count_is_informational():
    """live search (optional): report the corpus size, never block release"""
    from hazardex.epmc import DEFAULT_ENDPOINT, EuropePmcClient

    query = build_search_query(date(2023, 4, 2))
    client = EuropePmcClient(DEFAULT_ENDPOINT, page_size=25)
    try:
        page = next(client.iter_pages(query.rendered))
    except Exception as exc:  # noqa: BLE001 - informational by design
        pytest.skip(f"live API unreachable: {exc}")
    print(f"\nlive hit count for the standard query: {page.hit_count}")
    print(f"first page carries {len(page.records)} records")
