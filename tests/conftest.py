"""Shared fixtures: chemical-dump builder, stub literature API, mock backend
fixtures, and a complete offline end-to-end workspace.

Also prints one PASS/FAIL/SKIP line per acceptance criterion at the end of a
run (see test_acceptance.py).
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from hazardex.corpus import RawRecord, clean_record
from hazardex.prompting import PromptStyle, fixture_filename

# --------------------------------------------------------------------------
# acceptance criterion reporting
# --------------------------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance" not in item.nodeid:
        return
    label = (item.function.__doc__ or item.name).strip().splitlines()[0]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[item.nodeid] = (label, "PASS" if report.passed else "FAIL")
    elif report.skipped:
        _ACCEPTANCE_RESULTS[item.nodeid] = (label, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, verdict in _ACCEPTANCE_RESULTS.values():
        terminalreporter.write_line(f"{verdict:<5} {label}")


# --------------------------------------------------------------------------
# chemical names dump
# --------------------------------------------------------------------------

# One shared id space for every test. CHEBI:28628 carries both "cadmium" and
# "Cd" so identifier-identity checks read naturally.
CHEBI_ROWS = [
    ("CHEBI:28628", "NAME", "cadmium"),
    ("CHEBI:28628", "SYNONYM", "Cd"),
    ("CHEBI:27744", "NAME", "aflatoxin M1"),
    ("CHEBI:4995", "NAME", "deoxynivalenol"),
    ("CHEBI:27902", "NAME", "tetracycline"),
    ("CHEBI:27701", "NAME", "oxytetracycline"),
    ("CHEBI:25016", "NAME", "lead"),
    ("CHEBI:25016", "SYNONYM", "Pb"),
    ("CHEBI:16526", "NAME", "benzene"),
    ("CHEBI:2504", "NAME", "aflatoxin B1"),
    ("CHEBI:8102", "NAME", "perfluorooctanoic acid"),
    ("CHEBI:34959", "NAME", "saxitoxin"),
    ("CHEBI:16170", "NAME", "methylmercury"),
    ("CHEBI:23367", "NAME", "molecule"),  # stoplisted; must never index
]

PREFERRED_NAMES = {
    chebi_id: name for chebi_id, kind, name in CHEBI_ROWS if kind == "NAME"
}


def write_chebi_tsv(path: Path, rows=CHEBI_ROWS) -> Path:
    lines = ["COMPOUND_ID\tTYPE\tNAME"]
    lines += [f"{i.removeprefix('CHEBI:')}\t{t}\t{n}" for i, t, n in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def chebi_dump(tmp_path_factory) -> Path:
    return write_chebi_tsv(tmp_path_factory.mktemp("chebi") / "names.tsv")


@pytest.fixture(scope="session")
def lexicon_index(chebi_dump):
    from hazardex.lexicon import ParseStats, build_index, parse_chebi_source

    stats = ParseStats()
    return build_index(
        parse_chebi_source(chebi_dump, stats),
        _default_stoplist(),
        source_checksum="fixture",
        parse_stats=stats,
    )


def _default_stoplist():
    from hazardex.lexicon import default_stoplist

    return default_stoplist()


# --------------------------------------------------------------------------
# a local server with a pluggable answer: origin, forward proxy, gzip source
# --------------------------------------------------------------------------


class LocalServer:
    """HTTP server on 127.0.0.1 that answers every GET and POST with
    `respond(method, target, body) -> (status, headers, payload)` and records
    each request's (method, target, headers) in `seen`. A forward proxy gets
    the absolute URI as its target."""

    def __init__(self, respond):
        self.respond = respond
        self.seen: list[tuple[str, str, dict]] = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
                server.seen.append((self.command, self.path, dict(self.headers)))
                status, headers, payload = server.respond(self.command, self.path, body)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_POST = do_GET

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True).start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


def canned(payload: bytes, status: int = 200, headers: dict | None = None):
    """A `respond` that gives every request the same answer."""
    return lambda method, target, body: (status, headers or {}, payload)


@pytest.fixture
def local_server():
    servers: list[LocalServer] = []

    def start(respond) -> LocalServer:
        server = LocalServer(respond)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Clear every *_proxy variable, so a test sets exactly the ones it means."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


# --------------------------------------------------------------------------
# stub literature API
# --------------------------------------------------------------------------


def provider_record(i: int, *, doi: str | None = "auto", text: str | None = None) -> dict:
    body = text or (
        f"Contaminant survey number {i} covering dairy farms and their supply "
        "chains in detail sufficient for inclusion."
    )
    rec = {
        "id": f"STUB{i}",
        "title": f"Survey {i}",
        "abstractText": body,
        "pubYear": str(2000 + (i % 20)),
        "pubTypeList": {"pubType": ["research-article"]},
    }
    if doi == "auto":
        rec["doi"] = f"10.5555/stub{i}"
    elif doi:
        rec["doi"] = doi
    return rec


class StubApi(LocalServer):
    """Cursor-paginated canned search endpoint with failure injection.

    fail_plan is consumed one entry per request before any data is served:
    an int is returned as that HTTP status; the string "garbage" returns 200
    with a non-JSON body; None lets the request through untouched.
    """

    def __init__(self, records: list[dict], fail_plan: list | None = None):
        self.records = records
        self.fail_plan = list(fail_plan or [])
        self.requests: list[dict] = []
        super().__init__(self._search)

    @property
    def url(self) -> str:
        return f"{super().url}/search"

    def _search(self, method, target, body):
        params = {k: v[0] for k, v in parse_qs(urlparse(target).query).items()}
        self.requests.append(params)
        step = self.fail_plan.pop(0) if self.fail_plan else None
        if step == "garbage":
            return 200, {"Content-Type": "application/json"}, b"this is not json {"
        if step is not None:
            return int(step), {}, b"err"
        page_size = int(params.get("pageSize", "25"))
        cursor = params.get("cursorMark", "*")
        offset = 0 if cursor == "*" else int(cursor.removeprefix("c"))
        chunk = self.records[offset : offset + page_size]
        next_offset = offset + len(chunk)
        next_cursor = f"c{next_offset}" if next_offset < len(self.records) else cursor
        body = {
            "hitCount": len(self.records),
            "nextCursorMark": next_cursor,
            "resultList": {"result": chunk},
        }
        return 200, {"Content-Type": "application/json"}, json.dumps(body).encode("utf-8")


@pytest.fixture
def stub_api():
    stubs: list[StubApi] = []

    def start(records, fail_plan=None) -> StubApi:
        stub = StubApi(records, fail_plan)
        stubs.append(stub)
        return stub

    yield start
    for stub in stubs:
        stub.close()


# --------------------------------------------------------------------------
# offline end-to-end workspace (dairy, 10 matching abstracts)
# --------------------------------------------------------------------------

E2E_FOOD = "dairy"
E2E_STYLE = PromptStyle.STEP_BY_STEP

# (doi, year, abstract_text) — ten dairy abstracts plus two off-topic ones.
E2E_ABSTRACTS = [
    ("10.1000/d1", 2018,
     "We measured cadmium (Cd) in dairy milk sampled from managed farms "
     "across three seasons and found elevated concentrations."),
    ("10.1000/d2", 2021,
     "Cadmium levels in dairy products from industrial regions exceeded "
     "regulatory limits in several markets."),
    ("10.1000/d3", 2019,
     "Aflatoxin M1 occurrence in dairy milk correlates with contaminated "
     "feed across the studied cooperatives."),
    ("10.1000/d4", 2020,
     "Deoxynivalenol (DON) carryover from cereal feed into dairy cattle "
     "was quantified using tandem mass spectrometry."),
    ("10.1000/d5", 2017,
     "Tetracycline and oxytetracycline residues persist in dairy supply "
     "chains despite mandated withdrawal periods."),
    ("10.1000/d6", 2022,
     "A survey of dairy herds documented management practices without any "
     "accompanying chemical analysis of samples."),
    ("10.1000/d7", 2016,
     "Lead contamination near smelters affects milk; dairy operations in "
     "the vicinity were surveyed for exposure."),
    ("10.1000/d8", 2015,
     "Benzene migration from packaging into dairy beverages was assessed "
     "under accelerated heat stress conditions."),
    ("10.1000/d9", 2023,
     "An unidentified contaminant in dairy whey concentrates prompted "
     "further chemical screening of the process line."),
    (None, 2014,
     "Lead uptake in dairy cheese production lines was measured after the "
     "refurbishing of aging equipment."),
    ("10.1000/x1", 2020,
     "Mercury accumulation in riverine fish raises chronic exposure "
     "concerns for recreational anglers."),
    ("10.1000/x2", 2019,
     "Pesticide drift over orchards altered pollinator foraging behavior "
     "during the spring bloom period."),
]

# abstract index (into E2E_ABSTRACTS) → canned model response
E2E_RESPONSES = {
    0: "Chemicals: [Cd]\nFoods: [dairy milk]\nDictionary: {'dairy milk': ['Cd']}",
    1: "{'dairy': ['cadmium']}",
    2: "{'dairy milk': ['aflatoxin M1']}",
    3: "{'dairy feed': ['DON', 'deoxynivalenol']}",
    4: "{'dairy': ['tetracycline', 'oxytetracycline']}",
    5: "The abstract describes management practices; no chemical hazards were identified.",
    6: "{'milk': ['lead']}",
    7: "Dictionary: {'dairy': 'benzene'}",
    8: "{'dairy': ['mystery compound X']}",
    9: "{'dairy cheese': ['lead']}",
}

E2E_GOLD_ROWS = [
    ("dairy", "CHEBI:28628", "correct", ""),
    ("dairy", "CHEBI:27744", "correct", ""),
    ("dairy", "CHEBI:4995", "correct", ""),
    ("dairy", "CHEBI:27902", "correct", ""),
    ("dairy", "CHEBI:27701", "incorrect", "not supported by the abstract"),
    ("dairy", "CHEBI:16526", "correct", ""),
    # lead (CHEBI:25016) deliberately left unjudged
]

# The hazard table run-all must produce: (id, preferred, count, first_year).
E2E_EXPECTED_TABLE = [
    ("CHEBI:28628", "cadmium", 2, 2018),
    ("CHEBI:27744", "aflatoxin M1", 1, 2019),
    ("CHEBI:16526", "benzene", 1, 2015),
    ("CHEBI:4995", "deoxynivalenol", 1, 2020),
    ("CHEBI:25016", "lead", 1, 2014),
    ("CHEBI:27701", "oxytetracycline", 1, 2017),
    ("CHEBI:27902", "tetracycline", 1, 2017),
]


def e2e_records():
    records = []
    for i, (doi, year, text) in enumerate(E2E_ABSTRACTS):
        raw = RawRecord(
            source_id=f"E2E{i}",
            doi=doi,
            title=f"Fixture abstract {i}",
            abstract_text=text,
            publication_year=year,
            publication_types=("research-article",),
        )
        record = clean_record(raw)
        assert not isinstance(record, tuple), record
        records.append(record)
    return records


def write_mock_fixtures(fixtures_dir: Path, style: PromptStyle = E2E_STYLE) -> None:
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    records = e2e_records()
    for i, text in E2E_RESPONSES.items():
        name = fixture_filename(records[i].record_key, style)
        (fixtures_dir / name).write_text(text, encoding="utf-8")


def write_gold_csv(path: Path, rows=E2E_GOLD_ROWS) -> Path:
    lines = ["food,chebi_id,verdict,note"]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_workspace(root: Path, *, with_gold: bool = True) -> dict:
    """Lay out config + inputs + adopted corpus under one directory."""
    from hazardex.artifacts import write_jsonl

    root.mkdir(parents=True, exist_ok=True)
    workdir = root / "work"
    (workdir / "abstracts").mkdir(parents=True)
    write_jsonl(workdir / "abstracts" / "abstracts.jsonl", e2e_records())
    write_chebi_tsv(root / "chebi_names.tsv")
    write_mock_fixtures(root / "fixtures")
    gold_line = ""
    if with_gold:
        write_gold_csv(root / "gold.csv")
        gold_line = "evaluation:\n  gold: gold.csv\n"
    config = (
        "api:\n"
        "  endpoint: null\n"
        "  cutoff_date: 2023-04-02\n"
        "lexicon:\n"
        "  chebi_dump: chebi_names.tsv\n"
        "backend:\n"
        "  kind: mock\n"
        "  fixtures_dir: fixtures\n"
        "run:\n"
        "  workdir: work\n" + gold_line
    )
    config_path = root / "config.yaml"
    config_path.write_text(config, encoding="utf-8")
    return {"root": root, "config": config_path, "workdir": workdir}


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path / "ws")
