"""Configuration loading and the command-line pipeline, end to end against
local fixtures and a stub literature API."""

from __future__ import annotations

import csv
import json
import os
from datetime import date
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (
    E2E_EXPECTED_TABLE,
    e2e_records,
    make_workspace,
    provider_record,
    write_chebi_tsv,
    write_mock_fixtures,
)
from hazardex.cli import main
from hazardex.config import ConfigError, load_config
from hazardex.corpus import record_to_json_dict


runner = CliRunner()


def invoke(*args, **kwargs):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False, **kwargs)


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, environ={})
        assert cfg.api_endpoint is None  # fetch adopts an existing corpus
        assert cfg.cutoff_date == date(2023, 4, 2)
        assert cfg.page_size == 1000
        assert cfg.rate_limit == 5.0
        assert cfg.max_retries == 5
        assert cfg.backend_kind == "mock"
        assert cfg.max_new_tokens == 1024
        assert cfg.repetition_penalty == 1.0
        assert cfg.concurrency == 1
        assert cfg.workdir == Path("work")
        assert cfg.gold_path is None
        assert sorted(cfg.foods) == ["dairy", "leafy_greens", "maize", "salmon", "shellfish"]

    def test_file_overrides_defaults_and_resolves_relative_paths(self, tmp_path):
        (tmp_path / "cfg.yaml").write_text(
            "api:\n  page_size: 50\nlexicon:\n  chebi_dump: names.tsv\n"
            "run:\n  workdir: out\n",
            encoding="utf-8",
        )
        cfg = load_config(tmp_path / "cfg.yaml", environ={})
        assert cfg.page_size == 50
        assert cfg.chebi_dump == tmp_path / "names.tsv"
        assert cfg.workdir == tmp_path / "out"

    def test_environment_overrides_the_file(self, tmp_path):
        (tmp_path / "cfg.yaml").write_text("api:\n  page_size: 50\n", encoding="utf-8")
        cfg = load_config(
            tmp_path / "cfg.yaml",
            environ={"HAZARDEX_API_PAGE_SIZE": "7", "HAZARDEX_RUN_CONCURRENCY": "3"},
        )
        assert cfg.page_size == 7
        assert cfg.concurrency == 3

    def test_workdir_argument_outranks_everything(self, tmp_path):
        (tmp_path / "cfg.yaml").write_text("run:\n  workdir: out\n", encoding="utf-8")
        cfg = load_config(
            tmp_path / "cfg.yaml",
            workdir=tmp_path / "flag",
            environ={"HAZARDEX_RUN_WORKDIR": str(tmp_path / "env")},
        )
        assert cfg.workdir == tmp_path / "flag"

    def test_unknown_section_and_key_are_errors(self, tmp_path):
        (tmp_path / "bad1.yaml").write_text("mystery:\n  a: 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(tmp_path / "bad1.yaml", environ={})
        (tmp_path / "bad2.yaml").write_text("api:\n  pagesize: 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"api\.pagesize"):
            load_config(tmp_path / "bad2.yaml", environ={})

    def test_declared_foods_replace_the_builtins(self, tmp_path):
        (tmp_path / "cfg.yaml").write_text(
            "foods:\n  rice:\n    - rice\n    - paddy\n", encoding="utf-8"
        )
        cfg = load_config(tmp_path / "cfg.yaml", environ={})
        assert sorted(cfg.foods) == ["rice"]
        assert cfg.food("rice").keywords == frozenset({"rice", "paddy"})

    def test_unknown_food_lookup_is_an_error(self):
        cfg = load_config(None, environ={})
        with pytest.raises(ConfigError, match="unknown food"):
            cfg.food("durian")


# --------------------------------------------------------------------------
# fetch against the stub literature API
# --------------------------------------------------------------------------


def fetch_workspace(tmp_path, endpoint, page_size=10):
    root = tmp_path / "fw"
    root.mkdir()
    (root / "config.yaml").write_text(
        f"api:\n  endpoint: {endpoint}\n  page_size: {page_size}\n"
        "run:\n  workdir: work\n",
        encoding="utf-8",
    )
    return root / "config.yaml", root / "work"


class TestFetchCommand:
    def test_downloads_cleans_and_dedupes(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        result = invoke("--config", config, "fetch")
        assert result.exit_code == 0, result.output
        rows = read_jsonl(workdir / "abstracts" / "abstracts.jsonl")
        assert len(rows) == 25
        assert set(rows[0]) == {"doi", "title", "abstract_text", "publication_year", "record_key"}
        assert len(stub.requests) == 3

    def test_rerun_is_a_no_op(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        invoke("--config", config, "fetch")
        requests_before = len(stub.requests)
        result = invoke("--config", config, "fetch")
        assert result.exit_code == 0
        assert "up to date" in result.output
        assert len(stub.requests) == requests_before

    def test_interrupted_fetch_resumes_from_the_failing_cursor(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        stub.fail_plan.extend([None, 404])  # first page fine, second dies
        failing = invoke("--config", config, "fetch")
        assert failing.exit_code == 2
        assert "cursor" in failing.output

        healed = invoke("--config", config, "fetch")
        assert healed.exit_code == 0, healed.output
        rows = read_jsonl(workdir / "abstracts" / "abstracts.jsonl")
        assert {r["doi"] for r in rows} == {f"10.5555/stub{i}" for i in range(25)}
        # the resumed run continued from the second page rather than restarting
        cursors = [req["cursorMark"] for req in stub.requests]
        assert cursors.count("*") == 1

    def test_rejected_and_duplicate_records_are_counted(self, tmp_path, stub_api):
        records = [
            provider_record(0),
            provider_record(0),  # same DOI → duplicate
            provider_record(1, text="Too short."),
            provider_record(2, text="<i></i>"),
        ]
        stub = stub_api(records)
        config, workdir = fetch_workspace(tmp_path, stub.url)
        result = invoke("--config", config, "fetch")
        assert result.exit_code == 0
        rows = read_jsonl(workdir / "abstracts" / "abstracts.jsonl")
        assert len(rows) == 1
        assert "duplicates=1" in result.output
        assert "rejected_too_short=1" in result.output
        assert "rejected_empty=1" in result.output

    def test_no_endpoint_and_no_artifact_is_an_error(self, tmp_path):
        root = tmp_path / "e"
        root.mkdir()
        (root / "config.yaml").write_text(
            "api:\n  endpoint: null\nrun:\n  workdir: work\n", encoding="utf-8"
        )
        result = invoke("--config", root / "config.yaml", "fetch")
        assert result.exit_code == 2
        assert "endpoint" in result.output


# --------------------------------------------------------------------------
# individual stages
# --------------------------------------------------------------------------


def corn_workspace(tmp_path):
    """Six abstracts, two mentioning corn, adopted without an endpoint."""
    root = tmp_path / "corn"
    (root / "work" / "abstracts").mkdir(parents=True)
    texts = [
        "Corn kernels stored in humid cribs developed visible fungal growth.",
        "Wheat flour shipments were recalled over suspected contamination.",
        "Sweet corn processing lines were swabbed for chemical sanitizers.",
        "Rice paddies received elevated irrigation water this season again.",
        "Soybean oil oxidation products were profiled after deep frying.",
        "Barley malt kilning generates characteristic flavor compounds.",
    ]
    lines = []
    for i, text in enumerate(texts):
        rec = {"doi": f"10.2/c{i}", "title": f"t{i}", "abstract_text": text,
               "publication_year": 2020, "record_key": f"10.2/c{i}"}
        lines.append(json.dumps(rec, sort_keys=True))
    (root / "work" / "abstracts" / "abstracts.jsonl").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    (root / "config.yaml").write_text(
        "api:\n  endpoint: null\nrun:\n  workdir: work\n", encoding="utf-8"
    )
    return root


class TestStageCommands:
    def test_filter_counts_matching_abstracts(self, tmp_path):
        root = corn_workspace(tmp_path)
        result = invoke("--config", root / "config.yaml", "filter", "--food", "maize")
        assert result.exit_code == 0, result.output
        assert "matched=2" in result.output
        kept = read_jsonl(root / "work" / "abstracts" / "filtered__maize.jsonl")
        assert [r["doi"] for r in kept] == ["10.2/c0", "10.2/c2"]

    def test_build_lexicon_requires_a_dump(self, tmp_path):
        root = corn_workspace(tmp_path)
        result = invoke("--config", root / "config.yaml", "build-lexicon")
        assert result.exit_code == 2
        assert "chebi_dump" in result.output

    def test_link_requires_extract_first(self, workspace):
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 2
        assert "extract" in result.output

    def test_extract_requires_filter_first(self, workspace):
        result = invoke("--config", workspace["config"], "extract", "--food", "dairy")
        assert result.exit_code == 2
        assert "filter" in result.output

    def test_unknown_food_is_a_usage_error(self, workspace):
        result = invoke("--config", workspace["config"], "filter", "--food", "durian")
        assert result.exit_code == 2
        assert "unknown food" in result.output

    def test_extract_reports_partial_failures(self, workspace):
        fixtures = workspace["root"] / "fixtures"
        victim = next(iter(sorted(fixtures.glob("step_by_step__*d5*.txt"))))
        victim.unlink()
        invoke("--config", workspace["config"], "filter", "--food", "dairy")
        result = invoke("--config", workspace["config"], "extract", "--food", "dairy")
        assert result.exit_code == 1
        assert "failed=1" in result.output

    def test_failed_extract_retries_only_the_gap_on_rerun(self, workspace):
        fixtures = workspace["root"] / "fixtures"
        victim = next(iter(sorted(fixtures.glob("step_by_step__*d5*.txt"))))
        moved = victim.read_text(encoding="utf-8")
        victim.unlink()
        invoke("--config", workspace["config"], "filter", "--food", "dairy")
        invoke("--config", workspace["config"], "extract", "--food", "dairy")
        victim.write_text(moved, encoding="utf-8")
        result = invoke("--config", workspace["config"], "extract", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "new=1" in result.output
        assert "skipped_existing=9" in result.output

    def test_lexicon_from_an_older_index_version_is_rebuilt(self, workspace, monkeypatch):
        import hazardex.lexicon
        import hazardex.pipeline

        version = hazardex.lexicon.INDEX_VERSION
        monkeypatch.setattr(hazardex.lexicon, "INDEX_VERSION", version - 1)
        monkeypatch.setattr(hazardex.pipeline, "INDEX_VERSION", version - 1)
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        monkeypatch.undo()
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        header = json.loads(index_path.read_text(encoding="utf-8").splitlines()[0])
        assert header["version"] == version
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "resolved=8" in result.output

    def test_truncated_index_is_a_configuration_error(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        blob = index_path.read_bytes()
        index_path.write_bytes(blob[: len(blob) // 2])
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 2
        assert "rerun build-lexicon" in result.output

    def test_truncated_index_is_rebuilt_by_build_lexicon(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        blob = index_path.read_bytes()
        index_path.write_bytes(blob[: len(blob) // 2])
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        assert index_path.read_bytes() == blob
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 0, result.output

    def test_manifest_without_output_sizes_counts_as_stale(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        manifest = workspace["workdir"] / "lexicon" / "build.manifest.json"
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        assert set(recorded["output_sizes"]) == {"index.jsonl", "build_report.json"}
        del recorded["output_sizes"]
        manifest.write_text(json.dumps(recorded), encoding="utf-8")
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert "up to date" in result.output

    def test_locked_workdir_is_refused(self, workspace):
        workdir = workspace["workdir"]
        (workdir / ".lock").write_text(str(os.getpid()), encoding="utf-8")
        result = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert result.exit_code == 2
        assert "locked" in result.output

    def test_stale_lock_is_cleared(self, workspace):
        workdir = workspace["workdir"]
        (workdir / ".lock").write_text("999999999", encoding="utf-8")
        result = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert not (workdir / ".lock").exists()


# --------------------------------------------------------------------------
# the full pipeline
# --------------------------------------------------------------------------


def expected_csv_rows():
    return [
        {
            "food": "dairy",
            "chebi_id": chebi_id,
            "preferred_name": name,
            "mention_count": str(count),
            "first_seen_year": str(year),
        }
        for chebi_id, name, count, year in E2E_EXPECTED_TABLE
    ]


def read_hazard_csv(workdir):
    path = workdir / "reports" / "hazards__dairy__step_by_step.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        return [
            {k: v for k, v in row.items() if k != "supporting_dois"}
            for row in csv.DictReader(fh)
        ]


class TestRunAll:
    def test_produces_the_expected_hazard_table_and_accuracy(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert read_hazard_csv(workspace["workdir"]) == expected_csv_rows()
        accuracy = json.loads(
            (workspace["workdir"] / "reports" / "accuracy__step_by_step.json").read_text()
        )
        (cell,) = accuracy["cells"]
        assert (cell["correct"], cell["total"], cell["percent"]) == (5, 7, 71.4)
        assert cell["unjudged"] == ["CHEBI:25016"]
        assert "5/7 (71.4%)" in result.output

    def test_stage_counts_in_output(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        for token in (
            "kept=12", "matched=10", "new=10",
            "well_formed=8", "recovered=1", "unparseable=1",
            "resolved=8", "unresolved=1", "dropped_by_gating=1", "table_rows=7",
        ):
            assert token in result.output, token

    def test_second_run_skips_every_stage_and_changes_nothing(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        reports_dir = workspace["workdir"] / "reports"

        def snapshot():
            # evaluation is recomputed every run (it is cheap and must print),
            # so its manifest timestamp legitimately moves; reports must not
            return {
                p.name: p.read_bytes()
                for p in reports_dir.iterdir()
                if not p.name.endswith(".manifest.json")
            }

        before = snapshot()
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0
        assert result.output.count("up to date") >= 5
        assert snapshot() == before

    def test_stagewise_run_equals_run_all(self, tmp_path):
        ws_all = make_workspace(tmp_path / "all")
        ws_steps = make_workspace(tmp_path / "steps")
        invoke("--config", ws_all["config"], "run-all", "--food", "dairy")
        for args in (
            ["fetch"], ["build-lexicon"], ["filter", "--food", "dairy"],
            ["extract", "--food", "dairy"], ["link", "--food", "dairy"],
            ["report", "--food", "dairy"], ["evaluate"],
        ):
            result = invoke("--config", ws_steps["config"], *args)
            assert result.exit_code == 0, (args, result.output)
        for name in ("hazards__dairy__step_by_step.csv", "accuracy__step_by_step.csv",
                     "accuracy__step_by_step.json", "hazards__dairy__step_by_step.json"):
            assert (ws_all["workdir"] / "reports" / name).read_bytes() == (
                ws_steps["workdir"] / "reports" / name
            ).read_bytes(), name

    def test_workdir_flag_overrides_the_config(self, workspace, tmp_path):
        override = tmp_path / "override"
        # the adopted corpus lives in the config workdir, so point the flag at
        # a copy
        (override / "abstracts").mkdir(parents=True)
        source = workspace["workdir"] / "abstracts" / "abstracts.jsonl"
        (override / "abstracts" / "abstracts.jsonl").write_bytes(source.read_bytes())
        result = invoke(
            "--config", workspace["config"], "--workdir", override,
            "run-all", "--food", "dairy",
        )
        assert result.exit_code == 0, result.output
        assert (override / "reports" / "hazards__dairy__step_by_step.csv").exists()
        assert not (workspace["workdir"] / "reports").exists()


# --------------------------------------------------------------------------
# evaluation command
# --------------------------------------------------------------------------


class TestEvaluateCommand:
    def prepared(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        return workspace

    def test_prints_the_accuracy_grid(self, workspace):
        ws = self.prepared(workspace)
        result = invoke("--config", ws["config"], "evaluate")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        header = next(l for l in lines if l.startswith("style"))
        assert "dairy" in header
        row = next(l for l in lines if l.startswith("step_by_step"))
        assert "5/7 (71.4%)" in row

    def test_gold_option_overrides_the_config(self, workspace, tmp_path):
        ws = self.prepared(workspace)
        harsher = tmp_path / "harsher.csv"
        harsher.write_text(
            "food,chebi_id,verdict,note\ndairy,CHEBI:28628,correct,\n", encoding="utf-8"
        )
        result = invoke("--config", ws["config"], "evaluate", "--gold", harsher)
        assert result.exit_code == 0
        assert "1/7 (14.3%)" in result.output

    def test_without_gold_anywhere_is_an_error(self, tmp_path):
        ws = make_workspace(tmp_path / "nogold", with_gold=False)
        invoke("--config", ws["config"], "run-all", "--food", "dairy")
        result = invoke("--config", ws["config"], "evaluate")
        assert result.exit_code == 2
        assert "gold" in result.output

    def test_requires_linked_tables(self, workspace):
        result = invoke("--config", workspace["config"], "evaluate")
        assert result.exit_code == 2
