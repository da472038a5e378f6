"""Configuration loading and the command-line pipeline, end to end against
local fixtures and a stub literature API."""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from datetime import date, datetime
from unittest import mock
from pathlib import Path

import pytest

from conftest import (
    E2E_ABSTRACTS,
    E2E_EXPECTED_TABLE,
    E2E_RESPONSES,
    e2e_records,
    invoke,
    make_workspace,
    provider_record,
    write_chebi_tsv,
    write_mock_fixtures,
)
from oracles import oracle_index_v3
from hazardex.config import ConfigError, load_config
from hazardex.prompting import PromptStyle


class _Crash(BaseException):
    """Stands in for the process dying at an injected point. Like a signal or
    KeyboardInterrupt it is not an `Exception`, so the CLI cannot turn it into
    an exit code."""


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
# usage
# --------------------------------------------------------------------------

# Every command and the options it takes, besides --help.
_COMMAND_OPTIONS = {
    "fetch": [],
    "build-lexicon": [],
    "filter": ["--food"],
    "extract": ["--food", "--style"],
    "link": ["--food", "--style"],
    "report": ["--food"],
    "evaluate": ["--gold", "--style"],
    "run-all": ["--food", "--style"],
}


@pytest.mark.parametrize("args", [
    [],
    ["frobnicate"],
    ["filter"],
    ["extract", "--food", "dairy", "--style", "bogus"],
    ["evaluate", "--gold"],
], ids=["no-command", "unknown-command", "filter-without-food", "unknown-style", "gold-without-value"])
def test_a_usage_error_exits_2_and_creates_nothing(workspace, args):
    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in workspace["root"].rglob("*")}

    before = tree()
    result = invoke("--config", workspace["config"], *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: hazardex")
    assert len([line for line in result.stderr.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in result.output
    assert tree() == before


def test_help_names_every_command_and_the_global_options():
    result = invoke("--help")
    assert result.exit_code == 0, result.output
    for token in [*_COMMAND_OPTIONS, "--config", "-c", "--workdir", "--verbose", "-v"]:
        assert re.search(rf"(?<![\w-]){re.escape(token)}\b", result.stdout), token


@pytest.mark.parametrize("command", sorted(_COMMAND_OPTIONS))
def test_command_help_names_its_options(command):
    result = invoke(command, "--help")
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith(f"usage: hazardex {command} ")
    for option in ("--food", "--style", "--gold"):
        assert (option in result.stdout) == (option in _COMMAND_OPTIONS[command]), option


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

    def test_a_damaged_corpus_names_fetch(self, tmp_path, stub_api):
        stub = stub_api([provider_record(i) for i in range(25)])
        config, workdir = fetch_workspace(tmp_path, stub.url)
        config.write_text(config.read_text("utf-8") + "foods:\n  dairy: [dairy]\n", "utf-8")
        assert invoke("--config", config, "fetch").exit_code == 0
        path = workdir / "abstracts" / "abstracts.jsonl"
        fetched = path.read_bytes()
        path.write_bytes(fetched + b"not a record\n")
        refused = invoke("--config", config, "filter", "--food", "dairy")
        assert refused.exit_code == 2
        assert refused.stderr.startswith(f"error: {path}: line 26 is not an abstract record")
        assert refused.stderr.endswith("; delete it and rerun fetch\n")
        path.unlink()
        assert invoke("--config", config, "fetch").exit_code == 0
        assert path.read_bytes() == fetched
        result = invoke("--config", config, "filter", "--food", "dairy")
        assert result.exit_code == 0, result.output

    def test_a_damaged_adopted_corpus_is_the_users_to_mend(self, workspace):
        path = workspace["workdir"] / "abstracts" / "abstracts.jsonl"
        path.write_bytes(path.read_bytes() + b"not a record\n")
        refused = invoke("--config", workspace["config"], "fetch")
        assert refused.exit_code == 2
        assert refused.stderr.endswith("; replace it, or set api.endpoint\n")

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

    @pytest.mark.parametrize(
        "setup, delete, config_edit, command, missing, remedy",
        [
            pytest.param([], ["work/abstracts/abstracts.jsonl"], None, ["filter", "--food", "dairy"],
                         "work/abstracts/abstracts.jsonl", "run fetch first", id="filter"),
            pytest.param([], [], None, ["extract", "--food", "dairy"],
                         "work/abstracts/filtered__dairy.jsonl", "run filter first", id="extract"),
            pytest.param([["filter", "--food", "dairy"]], ["fixtures"], None,
                         ["extract", "--food", "dairy"], "fixtures", "set backend.fixtures_dir",
                         id="extract-no-fixtures"),
            pytest.param([], [], None, ["link", "--food", "dairy"],
                         "work/responses/dairy__step_by_step.jsonl", "run extract first",
                         id="link-no-responses"),
            pytest.param([["filter", "--food", "dairy"], ["extract", "--food", "dairy"]],
                         ["work/abstracts/filtered__dairy.jsonl"], None, ["link", "--food", "dairy"],
                         "work/abstracts/filtered__dairy.jsonl", "run filter first",
                         id="link-no-filtered"),
            pytest.param([["filter", "--food", "dairy"], ["extract", "--food", "dairy"]], [], None,
                         ["link", "--food", "dairy"], "work/lexicon/index.jsonl",
                         "run build-lexicon first", id="link-no-index"),
            pytest.param([], [], None, ["report", "--food", "dairy"],
                         "work/tables/dairy__*.json", "run link first", id="report"),
            pytest.param([], [], ("evaluation:\n  gold: gold.csv\n", ""), ["evaluate"],
                         "path", "pass --gold or set evaluation.gold", id="evaluate-no-gold"),
            pytest.param([], ["gold.csv"], None, ["evaluate"],
                         "gold.csv", "pass --gold or set evaluation.gold", id="evaluate-gold-gone"),
            pytest.param([], [], None, ["evaluate"],
                         "work/tables/*__step_by_step.json", "run link first",
                         id="evaluate-no-tables"),
            pytest.param([], [], ("chebi_dump: chebi_names.tsv", "chebi_dump: null"),
                         ["build-lexicon"], "path", "set lexicon.chebi_dump", id="lexicon-no-dump"),
            pytest.param([], ["chebi_names.tsv"], None, ["build-lexicon"],
                         "chebi_names.tsv", "set lexicon.chebi_dump", id="lexicon-dump-gone"),
            pytest.param([], [], ("chebi_names.tsv\n", "chebi_names.tsv\n  stoplist: stop.txt\n"),
                         ["build-lexicon"], "stop.txt", "set lexicon.stoplist",
                         id="lexicon-stoplist-gone"),
            pytest.param([["filter", "--food", "dairy"]], [],
                         ("kind: mock\n  fixtures_dir: fixtures\n", "kind: http\n"),
                         ["extract", "--food", "dairy"], "url", "set backend.url",
                         id="extract-http-no-url"),
        ],
    )
    def test_missing_input_is_refused_with_its_remedy(
        self, workspace, setup, delete, config_edit, command, missing, remedy
    ):
        """A stage whose input is missing exits 2 with one error line naming
        the input and what makes it, and leaves every file as it was.
        `missing` is a path under the workspace, or the kind of a setting
        the config leaves unset."""
        root, config = workspace["root"], workspace["config"]
        if config_edit:
            config.write_text(config.read_text("utf-8").replace(*config_edit), encoding="utf-8")
        for args in setup:
            assert invoke("--config", config, *args).exit_code == 0, args
        for name in delete:
            shutil.rmtree(root / name) if (root / name).is_dir() else (root / name).unlink()

        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

        before = tree()
        result = invoke("--config", config, *command)
        assert result.exit_code == 2
        if missing in ("path", "url"):
            where = f"no {missing} configured"
        else:
            where = f"{root / missing} not found"
        assert result.stderr == f"error: {where}; {remedy}\n"
        assert tree() == before

    def test_an_error_while_counting_surfaces_is_one_error_line(self, workspace, monkeypatch):
        """build-lexicon counts surfaces in its own process: an exception
        there reaches the CLI as one `error:` line and leaves no index."""
        from hazardex import lexicon

        def surface_count(normalized, stoplist):
            raise ValueError("counting failed")

        monkeypatch.setattr(lexicon, "_surface_count", surface_count)
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 2
        assert result.stderr == "error: ValueError: counting failed\n"
        assert not (workspace["workdir"] / "lexicon" / "index.jsonl").exists()

        monkeypatch.undo()
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 0, result.output

    def test_a_damaged_filtered_corpus_names_filter(self, workspace):
        """The error names the stage that writes the file, and doing what it
        says lets extract run."""
        config = workspace["config"]
        for args in (["fetch"], ["filter", "--food", "dairy"]):
            assert invoke("--config", config, *args).exit_code == 0, args
        path = workspace["workdir"] / "abstracts" / "filtered__dairy.jsonl"
        path.write_bytes(path.read_bytes() + b"not a record\n")
        refused = invoke("--config", config, "extract", "--food", "dairy")
        assert refused.exit_code == 2
        (error,) = [line for line in refused.stderr.splitlines() if line.startswith("error:")]
        assert re.fullmatch(
            rf"error: {re.escape(str(path))}: line \d+ is not an abstract record .+; "
            "delete it and rerun filter", error), error
        path.unlink()
        for args in (["filter", "--food", "dairy"], ["extract", "--food", "dairy"]):
            result = invoke("--config", config, *args)
            assert result.exit_code == 0, result.output

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

        version = hazardex.lexicon.INDEX_VERSION
        monkeypatch.setattr(hazardex.lexicon, "INDEX_VERSION", version - 1)
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

    def test_a_workdir_left_by_the_version_3_layout_is_refused_then_rebuilt(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        lexicon_dir = workspace["workdir"] / "lexicon"
        index_path = lexicon_dir / "index.jsonl"
        built = index_path.read_bytes()
        # What a version-3 build left: its index, and its manifest, which
        # recorded the byte size of each output.
        index_path.write_bytes(oracle_index_v3(built))
        manifest_path = lexicon_dir / "build.manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["input_hashes"]["index_version"] = 3
        del manifest["output_sha256"]
        manifest["output_sizes"] = {p.name: p.stat().st_size
                                    for p in (index_path, lexicon_dir / "build_report.json")}
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        # The index is not the one link recorded, so link loads it.
        refused = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert refused.exit_code == 2
        assert "expected hazardex-lexicon v4, got 'hazardex-lexicon' v3; rerun build-lexicon" in (
            refused.output)
        rebuilt = invoke("--config", workspace["config"], "build-lexicon")
        assert rebuilt.exit_code == 0, rebuilt.output
        assert "up to date" not in rebuilt.output
        assert index_path.read_bytes() == built
        result = invoke("--config", workspace["config"], "link", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "link: up to date" in result.output

    def test_a_workdir_filtered_by_substring_is_filtered_and_linked_again(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        # What the substring rule left: manifests that signed the keyword list.
        workdir = workspace["workdir"]
        for path in [workdir / "abstracts" / "filter__dairy.manifest.json",
                     *(workdir / "candidates").glob("link__dairy__*.manifest.json")]:
            manifest = json.loads(path.read_text("utf-8"))
            del manifest["input_hashes"]["food_pattern"]
            manifest["input_hashes"]["keywords"] = ["dairy"]
            path.write_text(json.dumps(manifest), encoding="utf-8")
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "build-lexicon: up to date" in result.output
        assert "filter: up to date" not in result.output
        assert "link: up to date" not in result.output

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

    def test_an_index_edited_to_its_own_size_is_refused_by_link_and_rebuilt_by_run_all(
        self, workspace, tmp_path
    ):
        """The edit keeps the index's size, not its sha256: link alone names
        the index and a remedy, and run-all rebuilds it first."""
        config = workspace["config"]
        for args in (["fetch"], ["build-lexicon"], ["filter", "--food", "dairy"],
                     ["extract", "--food", "dairy"]):
            assert invoke("--config", config, *args).exit_code == 0, args
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        blob = index_path.read_bytes()
        index_path.write_bytes(blob.replace(b'"cadmium"', b'"kadmium"'))
        assert index_path.stat().st_size == len(blob)
        refused = invoke("--config", config, "link", "--food", "dairy")
        assert refused.exit_code == 2
        assert [line for line in refused.stderr.splitlines() if line.startswith("error:")] == [
            f"error: {index_path}: body does not match its checksum; delete it and rerun build-lexicon"]
        result = invoke("--config", config, "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "build-lexicon: up to date" not in result.output
        assert index_path.read_bytes() == blob
        fresh = make_workspace(tmp_path / "fresh")
        assert invoke("--config", fresh["config"], "run-all", "--food", "dairy").exit_code == 0
        assert report_bytes(workspace["workdir"]) == report_bytes(fresh["workdir"])

    def test_an_index_whose_version_is_edited_is_refused_as_damage_and_rebuilt_by_run_all(
        self, workspace, tmp_path
    ):
        """The edit keeps the index's size and every input of build-lexicon;
        the header's checksum tells it from an older build when link loads
        the index alone, and run-all rebuilds the index first."""
        from hazardex.lexicon import INDEX_VERSION

        config = workspace["config"]
        assert invoke("--config", config, "run-all", "--food", "dairy").exit_code == 0
        index_path = workspace["workdir"] / "lexicon" / "index.jsonl"
        blob = index_path.read_bytes()
        version = f'"version": {INDEX_VERSION}'.encode()
        index_path.write_bytes(blob.replace(version, f'"version": {INDEX_VERSION + 1}'.encode(), 1))
        assert index_path.stat().st_size == len(blob)
        refused = invoke("--config", config, "link", "--food", "dairy")
        assert refused.exit_code == 2
        assert [line for line in refused.stderr.splitlines() if line.startswith("error:")] == [
            f"error: {index_path}: header does not match its checksum; "
            "delete it and rerun build-lexicon"]
        result = invoke("--config", config, "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "build-lexicon: up to date" not in result.output
        assert index_path.read_bytes() == blob
        fresh = make_workspace(tmp_path / "fresh")
        assert invoke("--config", fresh["config"], "run-all", "--food", "dairy").exit_code == 0
        assert report_bytes(workspace["workdir"]) == report_bytes(fresh["workdir"])

    def test_a_manifest_that_records_output_sizes_counts_as_stale(self, workspace):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        manifest = workspace["workdir"] / "lexicon" / "build.manifest.json"
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        assert set(recorded["output_sha256"]) == {"index.jsonl", "build_report.json"}
        # What an earlier build recorded: each output's byte size, not its sha256.
        recorded["output_sizes"] = {name: (manifest.parent / name).stat().st_size
                                    for name in recorded.pop("output_sha256")}
        manifest.write_text(json.dumps(recorded), encoding="utf-8")
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        result = invoke("--config", workspace["config"], "build-lexicon")
        assert "up to date" in result.output

    def test_expansion_named_by_no_response_is_linked_after_one_load(self, tmp_path,
                                                                      monkeypatch):
        from hazardex import pipeline
        from hazardex.lexicon import LexiconIndex

        load, build = LexiconIndex.load.__func__, pipeline.build_index
        outputs = {}
        for mode in ("loaded", "built"):
            ws = make_workspace(tmp_path / mode)
            # "Deoxynivalenol (DON)" defines the abbreviation; only "DON" is answered.
            (fixture,) = (ws["root"] / "fixtures").glob("step_by_step__*d4*.txt")
            fixture.write_text("{'dairy feed': ['DON']}", encoding="utf-8")
            built, seen = [], []

            def build_spy(*args, _built=built, **kwargs):
                _built.append(build(*args, **kwargs))
                return _built[-1]

            def load_spy(cls, path, _mode=mode, _seen=seen, _built=built):
                _seen.append(path)
                # The reference run looks every surface up in the build's whole claim map.
                return load(cls, path) if _mode == "loaded" else _built[-1]

            monkeypatch.setattr(pipeline, "build_index", build_spy)
            monkeypatch.setattr(LexiconIndex, "load", classmethod(load_spy))
            result = invoke("--config", ws["config"], "run-all", "--food", "dairy")
            monkeypatch.undo()
            assert result.exit_code == 0, result.output
            links = list((ws["workdir"] / "candidates").glob("link__*.manifest.json"))
            assert len(seen) == len(links) == 1
            outputs[mode] = {
                path.relative_to(ws["workdir"]).as_posix(): path.read_bytes()
                for area in ("candidates", "tables", "reports")
                for path in sorted((ws["workdir"] / area).iterdir())
                if not path.name.endswith(".manifest.json")
            }
        assert outputs["loaded"] == outputs["built"]
        table = json.loads(outputs["loaded"]["tables/dairy__step_by_step.json"])
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

    def test_a_corpus_that_loses_an_abstract_relinks_as_a_fresh_run(self, tmp_path):
        """The response store keeps d3's answer, so extract asks nothing new;
        link must still notice the smaller corpus and leave d3 out."""

        def drop_d3(ws):
            path = ws["workdir"] / "abstracts" / "abstracts.jsonl"
            lines = path.read_text("utf-8").splitlines(keepends=True)
            kept = [line for line in lines if json.loads(line)["doi"] != "10.1000/d3"]
            assert len(kept) == len(lines) - 1
            path.write_text("".join(kept), encoding="utf-8")

        def outputs(ws):
            return {
                p.relative_to(ws["workdir"]).as_posix(): p.read_bytes()
                for area in ("candidates", "tables", "reports")
                for p in (ws["workdir"] / area).iterdir()
                if not p.name.endswith(".manifest.json")
            }

        rerun = make_workspace(tmp_path / "rerun")
        assert invoke("--config", rerun["config"], "run-all", "--food", "dairy").exit_code == 0
        drop_d3(rerun)
        result = invoke("--config", rerun["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "new=0" in result.output and "missing_abstract=1" in result.output
        assert "4/6 (66.7%)" in result.output
        fresh = make_workspace(tmp_path / "fresh")
        drop_d3(fresh)
        assert invoke("--config", fresh["config"], "run-all", "--food", "dairy").exit_code == 0
        assert outputs(rerun) == outputs(fresh)
        assert "CHEBI:27744" not in (rerun["workdir"] / "tables" / "dairy__step_by_step.json").read_text()

    def test_an_adopted_corpus_that_keeps_its_size_is_counted_again(self, workspace):
        """One record dropped and another's title padded by as many bytes:
        fetch signs the corpus it adopts, so it records the new count."""
        assert invoke("--config", workspace["config"], "fetch").exit_code == 0
        path = workspace["workdir"] / "abstracts" / "abstracts.jsonl"
        size = path.stat().st_size
        dropped, *lines = path.read_text("utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["title"] += " " * len(dropped.encode("utf-8"))
        lines[0] = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert path.stat().st_size == size
        result = invoke("--config", workspace["config"], "fetch")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output
        manifest = json.loads((path.parent / "fetch.manifest.json").read_text("utf-8"))
        assert manifest["counts"]["kept"] == 11

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

    def test_a_copied_workdir_stays_fresh(self, workspace, tmp_path):
        invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        copy = tmp_path / "copy"
        shutil.copytree(workspace["workdir"], copy)

        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in copy.rglob("*")}

        before = tree()
        result = invoke("--config", workspace["config"], "--workdir", copy,
                        "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert [line for line in result.stdout.splitlines() if ":" in line] == [
            f"{stage}: up to date" for stage in
            ("fetch", "build-lexicon", "filter", "extract", "link", "report", "evaluate")]
        assert tree() == before

    def test_an_empty_corpus_runs_through_to_empty_reports(self, workspace):
        """extract leaves a response store even when it asks nothing, so link
        runs on an empty corpus as on any other."""
        (workspace["workdir"] / "abstracts" / "abstracts.jsonl").write_bytes(b"")
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        assert "matched=0" in result.stdout and "table_rows=0" in result.stdout
        assert read_hazard_csv(workspace["workdir"]) == []
        rerun = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert rerun.exit_code == 0, rerun.output
        assert rerun.stdout.count("up to date") == 7

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

    def test_a_stage_that_worked_prints_the_duration_its_manifest_records(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        recorded: dict[str, float] = {}
        for path in sorted(workspace["workdir"].rglob("*.manifest.json")):
            manifest = json.loads(path.read_text("utf-8"))
            recorded[manifest["stage"]] = recorded.get(manifest["stage"], 0) + manifest["duration_s"]
        lines = {line.split(":")[0]: line for line in result.output.splitlines()
                 if line.split(":")[0] in recorded}
        assert lines.keys() == recorded.keys() and len(lines) == 7
        for stage, duration_s in recorded.items():
            assert lines[stage].endswith(f" in {duration_s:.2f} s"), lines[stage]
        assert re.fullmatch(r"build-lexicon: entry_count=11 surface_count=\d+ collisions=\d+ "
                            r"skipped_rows=0 in \d+\.\d\d s", lines["build-lexicon"])
        assert re.fullmatch(r"report: done in \d+\.\d\d s", lines["report"])
        rerun = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert rerun.exit_code == 0, rerun.output
        assert sorted(line for line in rerun.output.splitlines() if line.endswith("up to date")) == [
            f"{stage}: up to date" for stage in sorted(recorded)]
        assert not any(line.endswith(" s") for line in rerun.output.splitlines())

    def test_every_manifest_records_the_peak_memory_so_far(self, workspace):
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert result.exit_code == 0, result.output
        manifests = sorted(workspace["workdir"].rglob("*.manifest.json"))
        assert len(manifests) == 7
        for path in manifests:
            peak = json.loads(path.read_text("utf-8"))["peak_rss_mb"]
            # This test process's high-water mark: at least the interpreter.
            assert isinstance(peak, float) and 5 < peak < 100_000, (path.name, peak)

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


# --------------------------------------------------------------------------
# damage matrix: every file a finished run-all leaves, damaged five ways
# --------------------------------------------------------------------------


def _flip_middle_bit(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1 :]


# The last two keep the file's size.
_DAMAGES = {
    "cut_to_half": lambda data: data[: len(data) // 2],
    "garbage_line": lambda data: data + b"not a record\n",
    "emptied": lambda data: b"",
    "first_byte_x": lambda data: b"X" + data[1:],
    "middle_bit_flipped": _flip_middle_bit,
}

# Every file under the workdir after run-all on the E2E workspace. The
# adopted corpus is an input as well: a fresh run reads the same damage.
_WORKDIR_FILES = [
    "abstracts/abstracts.jsonl",
    "abstracts/fetch.manifest.json",
    "abstracts/filter__dairy.manifest.json",
    "abstracts/filtered__dairy.jsonl",
    "candidates/dairy__step_by_step.jsonl",
    "candidates/link__dairy__step_by_step.manifest.json",
    "lexicon/build.manifest.json",
    "lexicon/build_report.json",
    "lexicon/index.jsonl",
    "reports/accuracy__step_by_step.csv",
    "reports/accuracy__step_by_step.json",
    "reports/evaluate__step_by_step.manifest.json",
    "reports/hazards__dairy__step_by_step.csv",
    "reports/hazards__dairy__step_by_step.json",
    "reports/report__dairy__step_by_step.manifest.json",
    "responses/dairy__step_by_step.jsonl",
    "responses/extract__dairy__step_by_step.manifest.json",
    "tables/dairy__step_by_step.json",
]
_INPUTS = {"abstracts/abstracts.jsonl"}


def report_bytes(workdir: Path) -> dict[str, bytes]:
    """The reports, without their manifests, which record times."""
    return {p.name: p.read_bytes() for p in sorted((workdir / "reports").glob("*"))
            if not p.name.endswith(".manifest.json")}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    ws = make_workspace(tmp_path_factory.mktemp("finished") / "ws")
    result = invoke("--config", ws["config"], "run-all", "--food", "dairy")
    assert result.exit_code == 0, result.output
    return ws


def test_the_damage_matrix_covers_every_file_run_all_leaves(finished_run):
    workdir = finished_run["workdir"]
    assert sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*") if p.is_file()) == (
        _WORKDIR_FILES)


@pytest.mark.parametrize("damage", sorted(_DAMAGES))
@pytest.mark.parametrize("target", _WORKDIR_FILES)
def test_a_damaged_file_is_one_error_line_or_reports_as_a_fresh_run(
    tmp_path, finished_run, target, damage
):
    damaged = _DAMAGES[damage]
    ws = tmp_path / "ws"
    shutil.copytree(finished_run["root"], ws)
    path = ws / "work" / target
    path.write_bytes(damaged(path.read_bytes()))
    result = invoke("--config", ws / "config.yaml", "run-all", "--food", "dairy")
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        (error,) = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert re.fullmatch(rf"error: {re.escape(str(path))}: .+; [a-z].+", error), error
        return
    assert result.exit_code == 0, result.output
    if target in _INPUTS:
        fresh = make_workspace(tmp_path / "fresh")
        corpus = fresh["workdir"] / target
        corpus.write_bytes(damaged(corpus.read_bytes()))
        assert invoke("--config", fresh["config"], "run-all", "--food", "dairy").exit_code == 0
        expected = report_bytes(fresh["workdir"])
    else:
        expected = report_bytes(finished_run["workdir"])
    assert report_bytes(ws / "work") == expected


def test_a_table_damaged_to_its_own_size_is_refused_by_report_and_relinked_by_run_all(
    tmp_path, finished_run
):
    """report, which signs the table, names it and a remedy when it runs
    alone; run-all finds the table's sha256 changed and links again first."""
    ws = tmp_path / "ws"
    shutil.copytree(finished_run["root"], ws)
    path = ws / "work" / "tables" / "dairy__step_by_step.json"
    path.write_bytes(b"X" + path.read_bytes()[1:])
    refused = invoke("--config", ws / "config.yaml", "report", "--food", "dairy")
    assert refused.exit_code == 2
    (error,) = [line for line in refused.stderr.splitlines() if line.startswith("error:")]
    assert re.fullmatch(rf"error: {re.escape(str(path))}: .+; delete it and rerun link", error)
    result = invoke("--config", ws / "config.yaml", "run-all", "--food", "dairy")
    assert result.exit_code == 0, result.output
    assert "link: up to date" not in result.output
    assert report_bytes(ws / "work") == report_bytes(finished_run["workdir"])


@pytest.mark.parametrize("damage", ["first_byte_x", "middle_bit_flipped"])
@pytest.mark.parametrize("name", [
    "hazards__dairy__step_by_step.csv",
    "hazards__dairy__step_by_step.json",
    "accuracy__step_by_step.csv",
    "accuracy__step_by_step.json",
])
def test_a_report_edited_to_its_own_size_is_written_again_by_one_run_all(
    tmp_path, finished_run, name, damage
):
    """No later stage reads a report, so only the sha256 its stage recorded
    tells the edit; run-all writes the report again."""
    ws = tmp_path / "ws"
    shutil.copytree(finished_run["root"], ws)
    path = ws / "work" / "reports" / name
    before = path.read_bytes()
    path.write_bytes(_DAMAGES[damage](before))
    assert path.stat().st_size == len(before) and path.read_bytes() != before
    result = invoke("--config", ws / "config.yaml", "run-all", "--food", "dairy")
    assert result.exit_code == 0, result.output
    assert report_bytes(ws / "work") == report_bytes(finished_run["workdir"])


def _swap_last_lines(data: bytes) -> bytes:
    *head, last_but_one, last = data.splitlines(keepends=True)
    return b"".join([*head, last, last_but_one])


def _swapcase_after(marker: bytes):
    def edit(data: bytes) -> bytes:
        at = data.index(marker) + len(marker)
        return data[:at] + data[at:at + 1].swapcase() + data[at + 1:]

    return edit


_DUMP = "chebi_names.tsv"
_STOPLIST = "stoplist.txt"


@pytest.fixture
def signed_run(tmp_path):
    """Both styles run through on the E2E workspace, with a stoplist file."""
    from hazardex.lexicon import DEFAULT_STOPLIST

    ws = two_style_workspace(tmp_path / "ws")
    (ws["root"] / _STOPLIST).write_bytes(DEFAULT_STOPLIST.read_bytes())
    config = ws["config"].read_text("utf-8")
    ws["config"].write_text(config.replace(f"chebi_dump: {_DUMP}\n",
                                           f"chebi_dump: {_DUMP}\n  stoplist: {_STOPLIST}\n"),
                            encoding="utf-8")
    run_two_styles(ws)
    return ws


@pytest.mark.parametrize("command, target, edit, refusal", [
    pytest.param(["fetch"], "work/abstracts/abstracts.jsonl", _swap_last_lines, None,
                 id="fetch-adopted-corpus"),
    pytest.param(["build-lexicon"], _DUMP, _swap_last_lines, None, id="build-lexicon-dump"),
    pytest.param(["build-lexicon"], _STOPLIST, _swap_last_lines, None, id="build-lexicon-stoplist"),
    pytest.param(["filter", "--food", "dairy"], "work/abstracts/abstracts.jsonl", _swap_last_lines,
                 None, id="filter-corpus"),
    pytest.param(["extract", "--food", "dairy"], "work/abstracts/filtered__dairy.jsonl",
                 _swap_last_lines, None, id="extract-filtered"),
    pytest.param(["link", "--food", "dairy"], "work/responses/dairy__step_by_step.jsonl",
                 _swap_last_lines, None, id="link-responses"),
    pytest.param(["link", "--food", "dairy"], "work/abstracts/filtered__dairy.jsonl",
                 _swap_last_lines, None, id="link-filtered"),
    # The header checks itself, so an edit of it keeps link from loading the index.
    pytest.param(["link", "--food", "dairy"], "work/lexicon/index.jsonl",
                 _swapcase_after(b'"stoplist": ["'), "header does not match its checksum",
                 id="link-index-header"),
    pytest.param(["report", "--food", "dairy"], "work/tables/dairy__step_by_step.json",
                 _swapcase_after(b'"preferred_name": "'), None, id="report-table"),
    pytest.param(["evaluate"], "gold.csv", _swap_last_lines, None, id="evaluate-gold"),
    pytest.param(["evaluate"], "work/tables/dairy__step_by_step.json",
                 _swapcase_after(b'"preferred_name": "'), None, id="evaluate-own-table"),
    pytest.param(["evaluate"], "work/tables/dairy__simple.json",
                 _swapcase_after(b'"preferred_name": "'), None, id="evaluate-other-table"),
])
def test_every_declared_input_signs_its_stage(signed_run, command, target, edit, refusal):
    """An edit that keeps the input's size makes its stage run again."""
    config, path = signed_run["config"], signed_run["root"] / target
    invoke("--config", config, *command)
    assert "up to date" in invoke("--config", config, *command).output
    data = path.read_bytes()
    edited = edit(data)
    assert edited != data and len(edited) == len(data)
    path.write_bytes(edited)
    result = invoke("--config", config, *command)
    assert "up to date" not in result.output
    if refusal is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 2 and refusal in result.stderr


def test_a_dump_and_a_stoplist_that_share_a_file_name_are_both_signed(workspace):
    root, config = workspace["root"], workspace["config"]
    dump, stoplist = root / "dump" / "names.txt", root / "stop" / "names.txt"
    dump.parent.mkdir()
    stoplist.parent.mkdir()
    (root / _DUMP).rename(dump)
    stoplist.write_text("molecule\nsolvent\nacid\n", encoding="utf-8")
    config.write_text(config.read_text("utf-8").replace(
        f"chebi_dump: {_DUMP}\n", "chebi_dump: dump/names.txt\n  stoplist: stop/names.txt\n"),
        encoding="utf-8")
    assert invoke("--config", config, "build-lexicon").exit_code == 0
    for path in (stoplist, dump):
        assert "up to date" in invoke("--config", config, "build-lexicon").output
        path.write_bytes(_swap_last_lines(path.read_bytes()))
        result = invoke("--config", config, "build-lexicon")
        assert result.exit_code == 0, result.output
        assert "up to date" not in result.output, path


def test_benchmark_spans_find_every_traced_name(workspace):
    """perfbench hooks these names by attribute, calls the stages as
    `in_process_pass` does and loads the index as `traced` does: a refactor
    that breaks one fails here rather than in the next traced benchmark run. The benchmark's files are read, not
    imported, so nothing is written under perfbench/. Its tracer, installed
    over a two-style `run-all`, records a span for every name the run calls
    and its wrappers stay in place: a stand-in that rebound its own name
    would record only its first call."""
    import ast
    import importlib
    import inspect

    import hazardex.cli
    from hazardex import pipeline
    from hazardex.lexicon import LexiconIndex

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spans = {"__name__": "spans"}
    exec(compile((perfbench / "spans.py").read_text("utf-8"), "spans.py", "exec"), spans)
    for module, attr, *_ in spans["_FUNCTIONS"]:
        assert attr in vars(importlib.import_module(module)), (module, attr)
    for module, cls, attr, *_ in spans["_METHODS"]:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (cls, attr)
    for stage in spans["STAGES"]:
        assert callable(getattr(hazardex.cli, f"stage_{stage}")), stage

    run = ast.parse((perfbench / "run.py").read_text("utf-8"))

    def calls(function, matches):
        (node,) = [n for n in run.body if getattr(n, "name", "") == function]
        return [c for c in ast.walk(node) if isinstance(c, ast.Call) and matches(c.func)]

    def bind(target, call):
        inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})

    stages = calls("in_process_pass", lambda f: getattr(f, "attr", "").startswith("stage_"))
    assert sorted(c.func.attr for c in stages) == sorted(f"stage_{s}" for s in spans["STAGES"])
    for call in stages:
        bind(getattr(pipeline, call.func.attr), call)
    loads = calls("traced", lambda f: ast.unparse(f) == "LexiconIndex.load")
    assert loads
    for call in loads:
        bind(LexiconIndex.load, call)

    # Fetch adopts the corpus here, so it cleans and dedupes nothing, and
    # `surfaces_for` has no caller in the package.
    unreached = {"corpus.clean_record", "corpus.dedupe", "lexicon.surfaces_for"}
    write_mock_fixtures(workspace["root"] / "fixtures", PromptStyle.SIMPLE)
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        installed = {(m, a): vars(importlib.import_module(m))[a] for m, a, *_ in spans["_FUNCTIONS"]}
        for style in ("step_by_step", "simple"):
            result = invoke("--config", workspace["config"], "run-all", "--food", "dairy", "--style", style)
            assert result.exit_code == 0, result.output
        assert {(m, a): vars(importlib.import_module(m))[a] for m, a in installed} == installed
    finally:
        tracer.uninstall()
    recorded = {span[1] for span in tracer.spans}
    assert {name for _, _, name, _ in spans["_FUNCTIONS"]} - recorded == unreached


def _loaded_after(code: str, *args) -> list[str]:
    """The lines `code` prints, run in a fresh interpreter on this package."""
    import hazardex

    src = str(Path(hazardex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env=env, check=True)
    return done.stdout.splitlines()


def test_importing_the_cli_leaves_requests_unloaded():
    code = ("import sys, hazardex.cli; print(sorted({'requests', 'urllib3', 'urllib.request', "
            "'http.client'} & set(sys.modules)))")
    assert _loaded_after(code) == ["[]"]


# The modules a command loads only when its stage needs them.
_STAGE_MODULES = ("lexicon", "prompting", "response_parser", "linker", "evaluation", "epmc", "transport")


def _stage_modules_loaded(prelude: str, *args) -> list[str]:
    code = (f"import sys; {prelude}; "
            f"print(sorted(m for m in {_STAGE_MODULES!r} if 'hazardex.' + m in sys.modules))")
    return _loaded_after(code, *args)


def test_importing_the_cli_loads_no_stage_module():
    assert _stage_modules_loaded("import hazardex.cli") == ["[]"]


def test_an_up_to_date_command_loads_only_what_its_freshness_check_needs(workspace):
    result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
    assert result.exit_code == 0, result.output
    run = ("from hazardex import cli; "
           "cli.main(['--config', sys.argv[1], *sys.argv[2:]])")
    expected = {
        ("fetch",): [],
        ("build-lexicon",): ["lexicon"],
        ("filter", "--food", "dairy"): [],
        ("extract", "--food", "dairy"): ["prompting", "transport"],
        ("link", "--food", "dairy"): ["lexicon"],
        ("report", "--food", "dairy"): [],
        ("evaluate",): [],
    }
    for argv, modules in expected.items():
        # `evaluate` prints its grid first.
        lines = _stage_modules_loaded(run, workspace["config"], *argv)[-2:]
        assert lines == [f"{argv[0]}: up to date", str(modules)], argv


def test_an_evaluate_that_does_work_loads_only_evaluation_and_linker(workspace):
    result = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
    assert result.exit_code == 0, result.output
    manifests = list((workspace["workdir"] / "reports").glob("evaluate__*.manifest.json"))
    assert manifests
    for manifest in manifests:
        manifest.unlink()
    run = ("from hazardex import cli; "
           "cli.main(['--config', sys.argv[1], 'evaluate'])")
    lines = _stage_modules_loaded(run, workspace["config"])
    assert "evaluate: up to date" not in lines
    assert lines[-1] == str(["evaluation", "linker"])


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

    def test_the_comparison_selects_on_the_shared_foods_and_reports_the_test_mean(self, workspace):
        """Over the paper's nine cells, step_by_step wins on the two foods every
        style was judged on, and its mean over its other three is 93.2%."""
        from reference_figures import REFERENCE_ACCURACY, VALIDATION_FOODS, build_tables_and_gold

        tables_area = workspace["workdir"] / "tables"
        tables_area.mkdir()
        gold_lines = ["food,chebi_id,verdict"]
        styles = sorted({style for style, _ in REFERENCE_ACCURACY})
        for n, style in enumerate(styles):
            # Each style's rows get their own identifiers, so one gold file judges them all.
            renumber = {f"CHEBI:{i}": f"CHEBI:{n * 1000 + i}" for i in range(1, 1000)}
            tables, gold = build_tables_and_gold(style)
            for table in tables:
                rows = [{**vars(row), "chebi_id": renumber[row.chebi_id]} for row in table.rows]
                (tables_area / f"{table.food}__{style}.json").write_text(
                    json.dumps({"style": style, "food": table.food, "rows": rows}), encoding="utf-8")
            gold_lines += [f"{g.food},{renumber[g.chebi_id]},{g.verdict}" for g in gold]
        gold_path = workspace["root"] / "reference_gold.csv"
        gold_path.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")

        result = invoke("--config", workspace["config"], "evaluate", "--gold", gold_path)
        assert result.exit_code == 0, result.output
        comparison = json.loads((workspace["workdir"] / "reports" / "comparison.json").read_text())
        assert comparison["best"] == ["step_by_step"]
        assert sorted(comparison["styles"]) == styles
        assert comparison["selection_foods"] == sorted(VALIDATION_FOODS)
        assert comparison["selected"] == "step_by_step"
        assert comparison["test_foods"] == ["dairy", "maize", "salmon"]
        assert comparison["test_mean_percent"] == 93.2

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

    def test_a_second_style_reads_each_table_once(self, workspace, monkeypatch):
        """With tables of two styles, `evaluate` scores each style once and
        builds the comparison from the same reports."""
        from hazardex import pipeline

        write_mock_fixtures(workspace["root"] / "fixtures", PromptStyle.SIMPLE)
        first = invoke("--config", workspace["config"], "run-all", "--food", "dairy")
        assert first.exit_code == 0, first.output
        read_table, stage_evaluate = pipeline._read_table, pipeline.stage_evaluate
        evaluating, reads = [], []

        def spy_read(path):
            if evaluating:
                reads.append(path.name)
            return read_table(path)

        def spy_evaluate(*args):
            evaluating.append(True)
            try:
                return stage_evaluate(*args)
            finally:
                evaluating.pop()

        monkeypatch.setattr(pipeline, "_read_table", spy_read)
        monkeypatch.setattr(pipeline, "stage_evaluate", spy_evaluate)
        result = invoke("--config", workspace["config"], "run-all", "--food", "dairy",
                        "--style", "simple")
        assert result.exit_code == 0, result.output
        assert sorted(reads) == ["dairy__simple.json", "dairy__step_by_step.json"]
        comparison = json.loads((workspace["workdir"] / "reports" / "comparison.json").read_text())
        assert sorted(comparison["styles"]) == ["simple", "step_by_step"]

    def test_without_gold_anywhere_is_an_error(self, tmp_path):
        ws = make_workspace(tmp_path / "nogold", with_gold=False)
        invoke("--config", ws["config"], "run-all", "--food", "dairy")
        result = invoke("--config", ws["config"], "evaluate")
        assert result.exit_code == 2
        assert "gold" in result.output

    def test_requires_linked_tables(self, workspace):
        result = invoke("--config", workspace["config"], "evaluate")
        assert result.exit_code == 2
