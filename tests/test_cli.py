"""Configuration loading and the command-line pipeline, end to end against
local fixtures and a stub literature API."""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import subprocess
import sys
from contextlib import contextmanager
from datetime import date, datetime
from unittest import mock
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (
    E2E_ABSTRACTS,
    E2E_EXPECTED_TABLE,
    E2E_RESPONSES,
    e2e_records,
    make_workspace,
    provider_record,
    write_chebi_tsv,
    write_mock_fixtures,
)
from hazardex.cli import main
from hazardex.config import ConfigError, load_config
from hazardex.prompting import PromptStyle


runner = CliRunner()


class _Crash(BaseException):
    """Stands in for the process dying at an injected point. Like a signal or
    KeyboardInterrupt it is not an `Exception`, so the CLI cannot turn it into
    an exit code."""


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

    @pytest.mark.parametrize("key", ["api.endpoint", "backend.url"])
    @pytest.mark.parametrize("url", [
        "localhost:8000/v1", "file:///etc/passwd", "ftp://example.org/x", "http://",
        "https:///path", "http://host:port/", "//host/v1", 8000,
    ])
    def test_url_that_is_not_http_with_a_host_is_an_error(self, tmp_path, key, url):
        section, name = key.split(".")
        (tmp_path / "cfg.yaml").write_text(f"{section}:\n  {name}: {json.dumps(url)}\n",
                                           encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"{key}: expected an http:// or https:// URL"):
            load_config(tmp_path / "cfg.yaml", environ={})

    def test_http_and_https_urls_are_kept(self):
        cfg = load_config(None, environ={
            "HAZARDEX_API_ENDPOINT": "https://www.ebi.ac.uk/europepmc/webservices/rest/search",
            "HAZARDEX_BACKEND_URL": "http://127.0.0.1:8000/v1/completions",
        })
        assert cfg.api_endpoint == "https://www.ebi.ac.uk/europepmc/webservices/rest/search"
        assert cfg.backend_url == "http://127.0.0.1:8000/v1/completions"

    def test_url_without_a_scheme_stops_any_command_with_exit_2(self, workspace):
        env = {"HAZARDEX_BACKEND_KIND": "http", "HAZARDEX_BACKEND_URL": "localhost:8000/v1"}
        result = invoke("--config", workspace["config"], "filter", "--food", "dairy", env=env)
        assert result.exit_code == 2
        assert "backend.url: expected an http:// or https:// URL with a host" in result.output

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

    def test_torn_last_raw_record_is_cut_before_a_resumed_fetch(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        stub.fail_plan.extend([None, 404])
        assert invoke("--config", config, "fetch").exit_code == 2
        raw_path = workdir / "abstracts" / "raw_records.jsonl"
        with raw_path.open("ab") as fh:
            fh.write(b'{"source_id": "torn", "ti')

        healed = invoke("--config", config, "fetch")
        assert healed.exit_code == 0, healed.output
        rows = read_jsonl(workdir / "abstracts" / "abstracts.jsonl")
        assert {r["doi"] for r in rows} == {f"10.5555/stub{i}" for i in range(25)}
        raw_lines = raw_path.read_bytes().split(b"\n")
        assert raw_lines[-1] == b""
        assert len([json.loads(line) for line in raw_lines[:-1]]) == 25

    def test_crash_while_writing_the_fetch_state_keeps_the_previous_state(
        self, tmp_path, stub_api, monkeypatch
    ):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        dump = json.dump
        states = []

        def torn_dump(obj, fh, **kwargs):
            if isinstance(obj, dict) and "next_cursor" in obj:
                states.append(obj)
                if len(states) == 2:  # the state after the second page
                    fh.write(json.dumps(obj, **kwargs)[:12])
                    raise _Crash
            return dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(_Crash):
            invoke("--config", config, "fetch")
        monkeypatch.undo()
        state = json.loads((workdir / "abstracts" / "fetch_state.json").read_text("utf-8"))
        assert state["next_cursor"] == "c10"
        assert sorted(p.name for p in (workdir / "abstracts").iterdir()) == [
            "fetch_state.json", "raw_records.jsonl"]

        healed = invoke("--config", config, "fetch")
        assert healed.exit_code == 0, healed.output
        assert "raw=25" in healed.output and "duplicates=0" in healed.output
        assert [req["cursorMark"] for req in stub.requests] == ["*", "c10", "c10", "c20"]

    def test_crash_between_a_page_and_its_state_fetches_that_page_once(
        self, tmp_path, stub_api, monkeypatch
    ):
        import hazardex.pipeline

        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        write_json = hazardex.pipeline._write_json
        states = []

        def crash_before_the_second_state(path, obj):
            if path.name == "fetch_state.json":
                states.append(obj)
                if len(states) == 2:  # the second page is in the cache, its state is not
                    raise _Crash
            write_json(path, obj)

        monkeypatch.setattr(hazardex.pipeline, "_write_json", crash_before_the_second_state)
        with pytest.raises(_Crash):
            invoke("--config", config, "fetch")
        monkeypatch.undo()
        raw_path = workdir / "abstracts" / "raw_records.jsonl"
        assert len(raw_path.read_bytes().splitlines()) == 20

        healed = invoke("--config", config, "fetch")
        assert healed.exit_code == 0, healed.output
        assert "raw=25" in healed.output and "duplicates=0" in healed.output
        sources = [json.loads(line)["source_id"] for line in raw_path.read_bytes().splitlines()]
        assert len(sources) == len(set(sources)) == 25

    def test_unreadable_fetch_state_fetches_from_the_start(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        stub.fail_plan.extend([None, 404])
        assert invoke("--config", config, "fetch").exit_code == 2
        (workdir / "abstracts" / "fetch_state.json").write_text('{"signature": "ab', "utf-8")

        healed = invoke("--config", config, "fetch")
        assert healed.exit_code == 0, healed.output
        assert "raw=25" in healed.output and "duplicates=0" in healed.output

    def test_torn_last_raw_record_of_a_finished_fetch_is_left_out(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        assert invoke("--config", config, "fetch").exit_code == 0
        with (workdir / "abstracts" / "raw_records.jsonl").open("ab") as fh:
            fh.write(b'{"source_id": "torn", "ti')
        (workdir / "abstracts" / "fetch.manifest.json").unlink()

        result = invoke("--config", config, "fetch")
        assert result.exit_code == 0, result.output
        assert "raw=25" in result.output
        assert len(read_jsonl(workdir / "abstracts" / "abstracts.jsonl")) == 25

    def test_unreadable_raw_record_line_is_a_configuration_error(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        assert invoke("--config", config, "fetch").exit_code == 0
        raw_path = workdir / "abstracts" / "raw_records.jsonl"
        lines = raw_path.read_bytes().split(b"\n")
        lines[1] = b"not json"
        raw_path.write_bytes(b"\n".join(lines))
        (workdir / "abstracts" / "fetch.manifest.json").unlink()

        result = invoke("--config", config, "fetch")
        assert result.exit_code == 2
        assert "raw_records.jsonl: line 2" in result.output

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

    def test_identical_rebuild_leaves_link_up_to_date(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        (workspace["workdir"] / "lexicon" / "build.manifest.json").unlink()
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert "up to date" not in result.output
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "link: up to date" in result.output

    def test_stoplist_change_that_keeps_the_records_makes_link_stale(self, workspace):
        from hazardex.lexicon import default_stoplist

        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        before = index_path.read_bytes().split(b"\n", 1)
        stoplist = workspace["root"] / "stoplist.txt"
        stoplist.write_text("\n".join([*sorted(default_stoplist()), "no such name"]) + "\n",
                            encoding="utf-8")
        env = {"HAZARDEX_LEXICON_STOPLIST": str(stoplist)}
        result = invoke("--config", workspace["config"], "build-lexicon", env=env)
        assert "up to date" not in result.output
        after = index_path.read_bytes().split(b"\n", 1)
        assert after[1] == before[1] and after[0] != before[0]
        result = invoke("--config", workspace["config"], "link", "--food", "dairy", env=env)
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output

    def test_body_edited_behind_its_header_stops_link_with_exit_2(self, workspace):
        for args in (["fetch"], ["build-lexicon"], ["filter", "--food", "dairy"],
                     ["extract", "--food", "dairy"]):
            assert invoke("--config", workspace["config"], *args).exit_code == 0, args
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        blob = index_path.read_bytes()
        index_path.write_bytes(blob.replace(b'"cadmium"', b'"kadmium"'))
        assert index_path.read_bytes() != blob
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 2
        assert "body does not match its checksum" in result.output

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

    def test_expansion_named_by_no_response_is_linked_by_a_second_load(self, tmp_path,
                                                                         monkeypatch):
        from hazardex.lexicon import LexiconIndex

        load = LexiconIndex.load.__func__
        outputs, loads = {}, {}
        for mode in ("restricted", "full"):
            ws = make_workspace(tmp_path / mode)
            # "Deoxynivalenol (DON)" defines the abbreviation; only "DON" is answered.
            (fixture,) = (ws["root"] / "fixtures").glob("step_by_step__*d4*.txt")
            fixture.write_text("{'dairy feed': ['DON']}", encoding="utf-8")
            seen = loads[mode] = []

            def spy(cls, path, wanted=None, _mode=mode, _seen=seen):
                _seen.append(None if wanted is None else set(wanted))
                return load(cls, path, None if _mode == "full" else wanted)

            monkeypatch.setattr(LexiconIndex, "load", classmethod(spy))
            result = invoke("--config", ws["config"], "run-all", "--food", "dairy")
            monkeypatch.undo()
            assert result.exit_code == 0, result.output
            outputs[mode] = {
                path.relative_to(ws["workdir"]).as_posix(): path.read_bytes()
                for area in ("candidates", "tables", "reports")
                for path in sorted((ws["workdir"] / area).iterdir())
                if not path.name.endswith(".manifest.json")
            }
        first, second = loads["restricted"]
        assert {"Cd", "cd", "DON", "don"} <= first and "Deoxynivalenol" not in first
        assert {"Deoxynivalenol", "deoxynivalenol"} <= second
        assert outputs["restricted"] == outputs["full"]
        table = json.loads(outputs["full"]["tables/dairy__step_by_step.json"])
        assert "CHEBI:4995" in [row["chebi_id"] for row in table["rows"]]

    def test_torn_last_response_line_is_dropped_then_requested_again(self, workspace):
        config = workspace["config"]
        invoke("--config", config, "run-all", "--food", "dairy")
        store = workspace["workdir"] / "responses" / "dairy__step_by_step.jsonl"
        whole = store.read_bytes()
        *kept, last = whole.splitlines(keepends=True)
        store.write_bytes(b"".join(kept) + last[: len(last) // 2])

        result = invoke("--config", config, "link", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "responses=9" in result.output
        result = invoke("--config", config, "extract", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "new=1" in result.output and "skipped_existing=9" in result.output

        def answers(blob):
            rows = [json.loads(line) for line in blob.splitlines()]
            return [{k: v for k, v in row.items() if k != "latency_ms"} for row in rows]

        assert store.read_bytes().endswith(b"\n")
        assert answers(store.read_bytes()) == answers(whole)
        result = invoke("--config", config, "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert read_hazard_csv(workspace["workdir"]) == expected_csv_rows()

    def test_unreadable_response_line_is_a_configuration_error(self, workspace):
        config = workspace["config"]
        invoke("--config", config, "run-all", "--food", "dairy")
        store = workspace["workdir"] / "responses" / "dairy__step_by_step.jsonl"
        lines = store.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3][:20] + b"\n"
        store.write_bytes(b"".join(lines))
        for command in ("link", "extract"):
            result = invoke("--config", config, command, "--food", "dairy")
            assert result.exit_code == 2, (command, result.output)
            assert "line 4 is not a stored response" in result.output

    def test_locked_workdir_is_refused(self, workspace):
        workdir = workspace["workdir"]
        (workdir / ".lock").write_text(str(os.getpid()), encoding="utf-8")
        result = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert result.exit_code == 2
        assert "locked" in result.output

    def test_an_unexpected_error_is_one_line_and_exit_2(self, workspace, monkeypatch, caplog):
        import hazardex.cli

        def broken(cfg, food_name):
            raise RuntimeError("disk gremlin")

        monkeypatch.setattr(hazardex.cli, "stage_filter", broken)
        with caplog.at_level(logging.DEBUG, logger="hazardex.cli"):
            result = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert result.exit_code == 2
        assert result.stderr == "error: RuntimeError: disk gremlin\n"
        assert "Traceback" not in result.output
        assert not (workspace["workdir"] / ".lock").exists()
        # --verbose shows the traceback: it is logged at DEBUG.
        assert [r.exc_info[0] for r in caplog.records if r.exc_info] == [RuntimeError]

    def test_each_invocation_logs_to_its_own_stderr_at_its_own_level(self, workspace, monkeypatch):
        import hazardex.cli

        quiet = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert quiet.exit_code == 0, quiet.output
        assert "INFO hazardex.pipeline: filter__dairy:" in quiet.stderr
        assert "DEBUG" not in quiet.stderr

        def broken(cfg, food_name):
            raise RuntimeError("disk gremlin")

        monkeypatch.setattr(hazardex.cli, "stage_filter", broken)
        loud = invoke("--config", workspace["config"], "--verbose", "filter", "--food", "dairy")
        assert loud.exit_code == 2
        assert "DEBUG hazardex.cli: unexpected failure\nTraceback" in loud.stderr

    def test_manifest_records_when_the_stage_started_and_finished(self, workspace):
        result = invoke("--config", workspace["config"], "filter", "--food", "dairy")
        assert result.exit_code == 0, result.output
        manifest = json.loads(
            (workspace["workdir"] / "abstracts" / "filter__dairy.manifest.json").read_text("utf-8")
        )
        started = datetime.fromisoformat(manifest["started_at"])
        finished = datetime.fromisoformat(manifest["finished_at"])
        assert started <= finished
        assert isinstance(manifest["duration_s"], float)
        assert 0 <= manifest["duration_s"] < 60

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
            # every stage skips, evaluation included, so not even a manifest
            # is rewritten
            return {p.name: p.read_bytes() for p in reports_dir.iterdir()}

        before = snapshot()
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0
        assert result.output.count("up to date") == 7
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

    def test_every_manifest_records_its_timing(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        manifests = sorted(workspace["workdir"].rglob("*.manifest.json"))
        assert len(manifests) == 7
        for path in manifests:
            manifest = json.loads(path.read_text("utf-8"))
            assert {"started_at", "finished_at", "duration_s"} <= set(manifest), path.name

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
# crash safety: a crash while writing an artifact leaves the previous one
# --------------------------------------------------------------------------


class _CrashAfterFirstLine:
    """A file opened for writing that raises `_Crash` once it has been given
    a whole line, leaving what it wrote so far on disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        written = self._fh.write(data)
        if ("\n" if isinstance(data, str) else b"\n") in data:
            self._fh.close()
            raise _Crash
        return written

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@contextmanager
def crash_writing(target: str):
    """Every file opened for writing whose path ends with `target`, or with
    `target` plus ".tmp", crashes after its first line."""
    real_open = io.open

    def crashing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = os.fspath(file) if isinstance(file, (str, os.PathLike)) else ""
        if set(mode) & set("wax+") and name.endswith((target, target + ".tmp")):
            return _CrashAfterFirstLine(fh)
        return fh

    with mock.patch("io.open", crashing_open), mock.patch("builtins.open", crashing_open):
        yield


def two_style_workspace(root):
    ws = make_workspace(root)
    write_mock_fixtures(ws["root"] / "fixtures", PromptStyle.SIMPLE)
    return ws


def run_two_styles(ws):
    for style in ("step_by_step", "simple"):
        result = invoke("--config", ws["config"], "run-all", "--food", "dairy", "--style", style)
        assert result.exit_code == 0, result.output


def artifact_bytes(workdir):
    """Every artifact but the manifests and the responses, whose latencies vary."""
    return {
        str(p.relative_to(workdir)): p.read_bytes()
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and not p.name.endswith(".manifest.json") and p.parent.name != "responses"
    }


@pytest.fixture(scope="module")
def uninterrupted_artifacts(tmp_path_factory):
    ws = two_style_workspace(tmp_path_factory.mktemp("uninterrupted"))
    run_two_styles(ws)
    return artifact_bytes(ws["workdir"])


@pytest.mark.parametrize("target", [
    "lexicon/index.jsonl",
    "lexicon/build_report.json",
    "abstracts/filtered__dairy.jsonl",
    "candidates/dairy__step_by_step.jsonl",
    "tables/dairy__step_by_step.json",
    "candidates/link__dairy__step_by_step.manifest.json",
    "reports/hazards__dairy__step_by_step.csv",
    "reports/hazards__dairy__step_by_step.json",
    "reports/accuracy__step_by_step.csv",
    "reports/accuracy__step_by_step.json",
    "reports/comparison.csv",
    "reports/comparison.json",
])
def test_crash_while_writing_an_artifact_keeps_the_previous_one(
    tmp_path, target, uninterrupted_artifacts
):
    ws = two_style_workspace(tmp_path / "ws")
    path = ws["workdir"] / target
    # First on a fresh workdir, where there is no previous file, then on a
    # finished one whose manifests are gone, so every stage writes again.
    for rewrite in (False, True):
        if rewrite:
            for manifest in ws["workdir"].rglob("*.manifest.json"):
                manifest.unlink()
        previous = path.read_bytes() if path.exists() else None
        with crash_writing(target), pytest.raises(_Crash):
            run_two_styles(ws)
        assert (path.read_bytes() if path.exists() else None) == previous
        assert not path.with_name(path.name + ".tmp").exists()
        run_two_styles(ws)
        assert artifact_bytes(ws["workdir"]) == uninterrupted_artifacts


def test_crash_while_writing_the_abstracts_keeps_the_previous_file(tmp_path, stub_api):
    stub = stub_api([provider_record(i) for i in range(25)])
    config, workdir = fetch_workspace(tmp_path, stub.url)
    assert invoke("--config", config, "fetch").exit_code == 0
    path = workdir / "abstracts" / "abstracts.jsonl"
    previous = path.read_bytes()
    (workdir / "abstracts" / "fetch.manifest.json").unlink()
    with crash_writing("abstracts/abstracts.jsonl"), pytest.raises(_Crash):
        invoke("--config", config, "fetch")
    assert path.read_bytes() == previous
    healed = invoke("--config", config, "fetch")
    assert healed.exit_code == 0, healed.output
    assert path.read_bytes() == previous


def test_benchmark_spans_find_every_traced_name(monkeypatch):
    """perfbench wraps these names by attribute: a refactor that drops one
    fails here rather than in the next traced benchmark run."""
    import hazardex.cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    for stage in spans.STAGES:
        assert callable(getattr(hazardex.cli, f"stage_{stage}")), stage


def test_importing_the_cli_leaves_requests_unloaded():
    import hazardex

    src = str(Path(hazardex.__file__).resolve().parents[1])
    code = ("import sys, hazardex.cli; print(sorted({'requests', 'urllib3', 'urllib.request', "
            "'http.client'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_fetch_and_extract_over_http_in_a_process_that_cannot_import_requests(
    tmp_path, stub_api, local_server, no_proxy_env
):
    import hazardex

    reference = make_workspace(tmp_path / "mock")
    assert invoke("--config", reference["config"], "run-all", "--food", "dairy").exit_code == 0

    provider = []
    for i, (doi, year, text) in enumerate(E2E_ABSTRACTS):
        rec = {"id": f"E2E{i}", "title": f"Fixture abstract {i}", "abstractText": text,
               "pubYear": str(year), "pubTypeList": {"pubType": ["research-article"]}}
        provider.append({**rec, "doi": doi} if doi else rec)
    search = stub_api(provider)
    refused = {3}

    def complete(method, target, body):
        prompt = json.loads(body)["prompt"]
        (i,) = [i for i, (_, _, text) in enumerate(E2E_ABSTRACTS) if text in prompt]
        if i in refused:
            refused.discard(i)
            return 400, {}, b'{"error": "content policy refusal"}'
        answer = {"choices": [{"text": E2E_RESPONSES[i], "finish_reason": "stop"}]}
        return 200, {"Content-Type": "application/json"}, json.dumps(answer).encode("utf-8")

    completions = local_server(complete)
    ws = make_workspace(tmp_path / "http")
    (ws["workdir"] / "abstracts" / "abstracts.jsonl").unlink()
    config = ws["config"].read_text(encoding="utf-8")
    config = config.replace("  endpoint: null\n", f"  endpoint: {search.url}\n  page_size: 5\n")
    config = config.replace("  kind: mock\n", f"  kind: http\n  url: {completions.url}/v1/completions\n")
    ws["config"].write_text(config, encoding="utf-8")

    src = str(Path(hazardex.__file__).resolve().parents[1])
    code = "import sys; sys.modules['requests'] = None; from hazardex.cli import main; main()"
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run([sys.executable, "-c", code, "--config", str(ws["config"]), *args],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("fetch")
    assert done.returncode == 0, done.stderr
    assert "raw=12 kept=12" in done.stdout
    assert len(search.requests) == 3
    done = run("run-all", "--food", "dairy")
    assert done.returncode == 1, done.stderr
    assert "failed=1" in done.stdout
    assert "HTTP 400: {\"error\": \"content policy refusal\"}" in done.stderr
    done = run("run-all", "--food", "dairy")
    assert done.returncode == 0, done.stderr
    assert len(completions.seen) == 11

    for name in ("abstracts/abstracts.jsonl", *(
        f"reports/{p.name}" for p in sorted((reference["workdir"] / "reports").iterdir())
        if not p.name.endswith(".manifest.json")
    )):
        assert (ws["workdir"] / name).read_bytes() == (reference["workdir"] / name).read_bytes(), name


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

    def test_second_evaluate_is_up_to_date_and_prints_the_same_grid(self, workspace):
        def grid(output):
            return [l for l in output.splitlines() if l.startswith(("style", "step_by_step"))]

        computed = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        reports = workspace["workdir"] / "reports"
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        result = invoke("--config", workspace["config"], "evaluate")
        assert result.exit_code == 0, result.output
        assert "evaluate: up to date" in result.output
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before
        assert len(grid(result.output)) == 2
        assert grid(result.output) == grid(computed.output)
        assert "5/7 (71.4%)" in grid(result.output)[1]

    def test_linking_another_style_makes_evaluate_stale(self, workspace):
        ws = self.prepared(workspace)
        write_mock_fixtures(ws["root"] / "fixtures", PromptStyle.SIMPLE)
        for command in ("extract", "link"):
            result = invoke("--config", ws["config"], command, "--food", "dairy", "--style", "simple")
            assert result.exit_code == 0, result.output
        result = invoke("--config", ws["config"], "evaluate")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        assert (ws["workdir"] / "reports" / "comparison.json").exists()
        assert "up to date" in invoke("--config", ws["config"], "evaluate").output

    def test_without_gold_anywhere_is_an_error(self, tmp_path):
        ws = make_workspace(tmp_path / "nogold", with_gold=False)
        invoke("--config", ws["config"], "run-all", "--food", "dairy")
        result = invoke("--config", ws["config"], "evaluate")
        assert result.exit_code == 2
        assert "gold" in result.output

    def test_requires_linked_tables(self, workspace):
        result = invoke("--config", workspace["config"], "evaluate")
        assert result.exit_code == 2
