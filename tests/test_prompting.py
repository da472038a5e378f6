"""Prompt templates, rendering, completion backends, and the resumable
extraction loop."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hazardex.corpus import AbstractRecord
from hazardex.prompting import (
    PLACEHOLDER,
    BackendError,
    DecodingParams,
    HttpBackend,
    LlmResponse,
    MockBackend,
    PromptStyle,
    RenderedPrompt,
    ResponseStore,
    TemplateError,
    complete,
    fixture_filename,
    load_template,
    render_prompt,
    response_from_json_dict,
    response_to_json_dict,
    run_extraction,
)

PARAMS = DecodingParams()

WARNING_OPENING = "I want to warn you against some pitfalls."


def record(key="10.1/k", text="Cadmium was detected in milk at unsafe levels."):
    return AbstractRecord(key, key, "Title", text, 2020)


# --------------------------------------------------------------------------
# templates
# --------------------------------------------------------------------------


class TestTemplates:
    def test_three_styles(self):
        assert [s.value for s in PromptStyle] == ["simple", "step_by_step", "pseudo_code"]

    def test_each_template_has_exactly_one_placeholder(self):
        for style in PromptStyle:
            assert load_template(style).count(PLACEHOLDER) == 1

    def test_warning_paragraph_is_shared_verbatim(self):
        simple = load_template(PromptStyle.SIMPLE)
        paragraph = next(
            p for p in simple.split("\n\n") if p.startswith(WARNING_OPENING)
        )
        assert paragraph.endswith("no other explanation or justification is necessary.")
        for style in (PromptStyle.STEP_BY_STEP, PromptStyle.PSEUDO_CODE):
            assert paragraph in load_template(style)

    def test_missing_template_file(self, tmp_path):
        with pytest.raises(TemplateError):
            load_template(PromptStyle.SIMPLE, str(tmp_path))

    def test_template_without_placeholder_is_rejected(self, tmp_path):
        (tmp_path / "simple.txt").write_text("no slot here", encoding="utf-8")
        with pytest.raises(TemplateError):
            load_template(PromptStyle.SIMPLE, str(tmp_path))

    def test_template_with_two_placeholders_is_rejected(self, tmp_path):
        (tmp_path / "simple.txt").write_text(
            f"{PLACEHOLDER} and again {PLACEHOLDER}", encoding="utf-8"
        )
        with pytest.raises(TemplateError):
            load_template(PromptStyle.SIMPLE, str(tmp_path))


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


class TestRenderPrompt:
    def test_substitution_leaves_template_bytes_untouched(self):
        sentinel = "XQZV-SENTINEL-00042"
        rec = record(text=sentinel)
        for style in PromptStyle:
            prefix, suffix = load_template(style).split(PLACEHOLDER)
            assert render_prompt(rec, style).text == prefix + sentinel + suffix

    def test_rendering_is_pure(self):
        rec = record()
        for style in PromptStyle:
            assert render_prompt(rec, style) == render_prompt(rec, style)

    def test_backtick_styles_embed_the_abstract_verbatim(self):
        rec = record(text="Milk with 'quotes' and \\ backslash content.")
        for style in (PromptStyle.SIMPLE, PromptStyle.STEP_BY_STEP):
            assert rec.abstract_text in render_prompt(rec, style).text

    def test_pseudo_code_escapes_quotes_and_backslashes(self):
        rec = record(text="Milk with 'quotes' and \\ backslash content.")
        text = render_prompt(rec, PromptStyle.PSEUDO_CODE).text
        assert "\\'quotes\\'" in text
        assert "\\\\ backslash" in text
        assert rec.abstract_text not in text

    def test_prompt_carries_key_and_style(self):
        prompt = render_prompt(record(key="10.1/ab"), PromptStyle.STEP_BY_STEP)
        assert prompt.abstract_key == "10.1/ab"
        assert prompt.style is PromptStyle.STEP_BY_STEP

    def test_custom_templates_dir_wins(self, tmp_path):
        (tmp_path / "simple.txt").write_text(f"Custom: {PLACEHOLDER}", encoding="utf-8")
        prompt = render_prompt(record(text="BODY"), PromptStyle.SIMPLE, str(tmp_path))
        assert prompt.text == "Custom: BODY"


class TestFixtureFilename:
    def test_slash_and_colon_are_sanitized(self):
        assert fixture_filename("10.1000/d1", PromptStyle.STEP_BY_STEP) == (
            "step_by_step__10.1000_d1.txt"
        )
        assert fixture_filename("sha256:abc", PromptStyle.SIMPLE) == "simple__sha256_abc.txt"


# --------------------------------------------------------------------------
# mock backend
# --------------------------------------------------------------------------


class TestMockBackend:
    def test_replays_fixture_text(self, tmp_path):
        rec = record()
        prompt = render_prompt(rec, PromptStyle.SIMPLE)
        (tmp_path / fixture_filename(rec.record_key, PromptStyle.SIMPLE)).write_text(
            "{'milk': ['cadmium']}", encoding="utf-8"
        )
        response = complete(MockBackend(tmp_path), prompt, PARAMS)
        assert response.text == "{'milk': ['cadmium']}"
        assert response.truncated is False
        assert response.backend_name == "mock"
        assert response.abstract_key == rec.record_key
        assert response.latency_ms >= 0.0

    def test_missing_fixture_is_a_backend_error(self, tmp_path):
        prompt = render_prompt(record(key="10.1/nope"), PromptStyle.SIMPLE)
        with pytest.raises(BackendError) as err:
            MockBackend(tmp_path).complete(prompt, PARAMS)
        assert "10.1/nope" in str(err.value)
        assert "simple" in str(err.value)


# --------------------------------------------------------------------------
# HTTP backend against a local completion stub
# --------------------------------------------------------------------------


class CompletionStub:
    """POST endpoint that records request bodies and replays a script.

    Script entries: an int HTTP status, "garbage" for a non-JSON 200 body, or
    a dict served as the JSON payload.
    """

    def __init__(self, script):
        self.script = list(script)
        self.bodies: list[dict] = []
        self.headers_seen: list[dict] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                stub.bodies.append(json.loads(self.rfile.read(length)))
                stub.headers_seen.append(dict(self.headers))
                step = stub.script.pop(0) if stub.script else {"text": ""}
                if step == "garbage":
                    self.send_response(200)
                    self.end_headers()
                    self.wfile.write(b"not json")
                    return
                if isinstance(step, int):
                    self.send_response(step)
                    self.end_headers()
                    self.wfile.write(b"err")
                    return
                payload = json.dumps(step).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(payload)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def completion_stub():
    stubs = []

    def start(script):
        stub = CompletionStub(script)
        stubs.append(stub)
        return stub

    yield start
    for stub in stubs:
        stub.close()


def http_backend(url, **kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return HttpBackend(url, "test-model", **kwargs)


PROMPT = RenderedPrompt(text="What is in the milk?", style=PromptStyle.SIMPLE, abstract_key="k")


class TestHttpBackend:
    def test_prompt_payload_pins_greedy_decoding(self, completion_stub):
        stub = completion_stub([{"choices": [{"text": "ok"}]}])
        text, truncated = http_backend(stub.url).complete(PROMPT, PARAMS)
        assert (text, truncated) == ("ok", False)
        body = stub.bodies[0]
        assert body == {
            "model": "test-model",
            "temperature": 0,
            "max_tokens": 1024,
            "prompt": "What is in the milk?",
        }

    def test_messages_payload_and_custom_headers(self, completion_stub):
        stub = completion_stub([{"choices": [{"message": {"content": "hi"}}]}])
        backend = http_backend(stub.url, use_messages=True, headers={"X-Auth": "tok"})
        text, _ = backend.complete(PROMPT, PARAMS)
        assert text == "hi"
        assert stub.bodies[0]["messages"] == [{"role": "user", "content": "What is in the milk?"}]
        assert "prompt" not in stub.bodies[0]
        assert stub.headers_seen[0].get("X-Auth") == "tok"

    def test_non_default_repetition_penalty_is_forwarded(self, completion_stub):
        stub = completion_stub([{"text": "ok"}])
        http_backend(stub.url).complete(PROMPT, DecodingParams(repetition_penalty=1.2))
        assert stub.bodies[0]["repetition_penalty"] == 1.2

    def test_length_finish_reason_marks_truncation(self, completion_stub):
        stub = completion_stub([{"choices": [{"text": "cut", "finish_reason": "length"}]}])
        assert http_backend(stub.url).complete(PROMPT, PARAMS) == ("cut", True)

    def test_plain_text_payload_shapes(self, completion_stub):
        stub = completion_stub([{"completion": "alt"}])
        assert http_backend(stub.url).complete(PROMPT, PARAMS) == ("alt", False)

    def test_retries_transient_errors_then_succeeds(self, completion_stub):
        stub = completion_stub([500, 429, {"text": "ok"}])
        assert http_backend(stub.url).complete(PROMPT, PARAMS) == ("ok", False)
        assert len(stub.bodies) == 3

    def test_gives_up_after_max_retries(self, completion_stub):
        stub = completion_stub([500] * 5)
        with pytest.raises(BackendError, match="unreachable"):
            http_backend(stub.url, max_retries=1).complete(PROMPT, PARAMS)
        assert len(stub.bodies) == 2

    def test_client_error_fails_immediately(self, completion_stub):
        stub = completion_stub([400])
        with pytest.raises(BackendError, match="HTTP 400"):
            http_backend(stub.url).complete(PROMPT, PARAMS)
        assert len(stub.bodies) == 1

    def test_non_json_body_is_a_backend_error(self, completion_stub):
        stub = completion_stub(["garbage"])
        with pytest.raises(BackendError, match="invalid JSON"):
            http_backend(stub.url).complete(PROMPT, PARAMS)

    def test_payload_without_any_completion_text(self, completion_stub):
        stub = completion_stub([{"usage": {}}])
        with pytest.raises(BackendError, match="no completion text"):
            http_backend(stub.url).complete(PROMPT, PARAMS)


# --------------------------------------------------------------------------
# response store
# --------------------------------------------------------------------------


def make_response(key, style=PromptStyle.SIMPLE, text="{}"):
    return LlmResponse(
        abstract_key=key,
        style=style,
        text=text,
        truncated=False,
        latency_ms=1.5,
        backend_name="mock",
    )


class TestResponseStore:
    def test_append_then_load_round_trips(self, tmp_path):
        store = ResponseStore(tmp_path / "r.jsonl")
        first = make_response("a")
        second = make_response("b", PromptStyle.PSEUDO_CODE, "{'milk': ['Pb']}")
        store.append(first)
        store.append(second)
        assert store.load() == [first, second]
        assert store.completed_pairs() == {("a", "simple"), ("b", "pseudo_code")}

    def test_json_dict_round_trip(self):
        resp = make_response("x", PromptStyle.STEP_BY_STEP, "text")
        assert response_from_json_dict(response_to_json_dict(resp)) == resp

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResponseStore(tmp_path / "absent.jsonl").load() == []


# --------------------------------------------------------------------------
# extraction loop
# --------------------------------------------------------------------------


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def complete(self, prompt, params):
        self.calls.append(prompt.abstract_key)
        return self.inner.complete(prompt, params)


def seed_fixtures(tmp_path, keys, style=PromptStyle.SIMPLE):
    for key in keys:
        (tmp_path / fixture_filename(key, style)).write_text(
            f"{{'milk': ['{key}-chem']}}", encoding="utf-8"
        )


class TestRunExtraction:
    def make_records(self, n=4):
        return [record(key=f"10.1/r{i}") for i in range(n)]

    def test_partial_failure_does_not_abort_the_batch(self, tmp_path):
        records = self.make_records()
        seed_fixtures(tmp_path, [r.record_key for r in records[:3]])
        store = ResponseStore(tmp_path / "resp.jsonl")
        backend = CountingBackend(MockBackend(tmp_path))
        result = run_extraction(records, PromptStyle.SIMPLE, backend, PARAMS, store)
        assert result.new_count == 3
        assert result.skipped_count == 0
        assert [f.abstract_key for f in result.failures] == ["10.1/r3"]
        assert [r.abstract_key for r in store.load()] == ["10.1/r0", "10.1/r1", "10.1/r2"]
        assert backend.calls == [f"10.1/r{i}" for i in range(4)]

    def test_rerun_only_retries_what_is_missing(self, tmp_path):
        records = self.make_records()
        seed_fixtures(tmp_path, [r.record_key for r in records[:3]])
        store = ResponseStore(tmp_path / "resp.jsonl")
        run_extraction(records, PromptStyle.SIMPLE, MockBackend(tmp_path), PARAMS, store)

        seed_fixtures(tmp_path, ["10.1/r3"])  # repair the failing abstract
        backend = CountingBackend(MockBackend(tmp_path))
        result = run_extraction(records, PromptStyle.SIMPLE, backend, PARAMS, store)
        assert backend.calls == ["10.1/r3"]
        assert result.skipped_count == 3
        assert result.new_count == 1
        assert result.failures == []
        assert len(store.load()) == 4

    def test_styles_are_tracked_independently(self, tmp_path):
        records = self.make_records(1)
        seed_fixtures(tmp_path, ["10.1/r0"], PromptStyle.SIMPLE)
        seed_fixtures(tmp_path, ["10.1/r0"], PromptStyle.PSEUDO_CODE)
        store = ResponseStore(tmp_path / "resp.jsonl")
        run_extraction(records, PromptStyle.SIMPLE, MockBackend(tmp_path), PARAMS, store)
        result = run_extraction(records, PromptStyle.PSEUDO_CODE, MockBackend(tmp_path), PARAMS, store)
        assert result.new_count == 1
        assert store.completed_pairs() == {("10.1/r0", "simple"), ("10.1/r0", "pseudo_code")}

    def test_concurrent_run_matches_sequential_output(self, tmp_path):
        records = self.make_records(6)
        seed_fixtures(tmp_path, [r.record_key for r in records])
        sequential = ResponseStore(tmp_path / "seq.jsonl")
        run_extraction(records, PromptStyle.SIMPLE, MockBackend(tmp_path), PARAMS, sequential)
        concurrent = ResponseStore(tmp_path / "conc.jsonl")
        run_extraction(
            records, PromptStyle.SIMPLE, MockBackend(tmp_path), PARAMS, concurrent,
            concurrency=4,
        )
        strip = lambda r: (r.abstract_key, r.style, r.text, r.truncated)
        assert [strip(r) for r in sequential.load()] == [strip(r) for r in concurrent.load()]
