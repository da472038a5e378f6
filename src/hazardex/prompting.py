"""Prompt rendering and LLM completion for hazard extraction.

Three prompt styles share one contract: the abstract text is substituted for
the single {ABSTRACT} placeholder and decoding is greedy, so a (template,
abstract) pair always yields the same prompt and, against a deterministic
backend, the same response. Responses are appended to a JSONL store in
corpus order; a rerun skips every (abstract, style) pair already on disk.
"""

from __future__ import annotations

import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .artifacts import cut_torn_tail, json_line, read_jsonl
from .common import BackendError, PromptStyle, TemplateError
from .corpus import AbstractRecord
from .transport import Transport, Unreachable

log = logging.getLogger(__name__)

PLACEHOLDER = "{ABSTRACT}"
TEMPLATE_VERSION = "v1"

_KEY_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


@dataclass(frozen=True)
class DecodingParams:
    """Greedy decoding: temperature 0, no sampling, no beam search."""

    max_new_tokens: int = 1024
    repetition_penalty: float = 1.0


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    style: PromptStyle
    abstract_key: str


@dataclass(frozen=True)
class LlmResponse:
    abstract_key: str
    style: PromptStyle
    text: str
    truncated: bool
    latency_ms: float
    backend_name: str


def _packaged_templates_dir() -> Path:
    from importlib.resources import files

    return Path(str(files("hazardex").joinpath("templates"))) / TEMPLATE_VERSION


@lru_cache(maxsize=None)
def load_template(style: PromptStyle, templates_dir: str | None = None) -> str:
    base = Path(templates_dir) if templates_dir else _packaged_templates_dir()
    path = base / f"{style.value}.txt"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TemplateError(f"cannot read template {path}: {exc}") from exc
    if text.count(PLACEHOLDER) != 1:
        raise TemplateError(
            f"{path}: template must contain exactly one {PLACEHOLDER} placeholder"
        )
    return text


def _quote_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'")


def render_prompt(
    record: AbstractRecord, style: PromptStyle, templates_dir: str | None = None
) -> RenderedPrompt:
    """Substitute the abstract into the style's template.

    The pseudo-code template quotes the abstract as a Python string argument,
    so backslashes and single quotes are escaped there; the other styles embed
    the abstract verbatim between triple backticks.
    """
    template = load_template(style, templates_dir)
    abstract = record.abstract_text
    if style is PromptStyle.PSEUDO_CODE:
        abstract = _quote_escape(abstract)
    text = template.replace(PLACEHOLDER, abstract)
    return RenderedPrompt(text=text, style=style, abstract_key=record.record_key)


def fixture_filename(abstract_key: str, style: PromptStyle) -> str:
    safe = _KEY_SAFE_RE.sub("_", abstract_key)
    return f"{style.value}__{safe}.txt"


class MockBackend:
    """Replays canned completions from a fixtures directory.

    Fixture files are named `<style>__<sanitized-abstract-key>.txt`; a missing
    fixture is a completion failure, which is also how tests stage failures.
    """

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)
        self.name = "mock"

    def complete(self, prompt: RenderedPrompt, params: DecodingParams) -> tuple[str, bool]:
        path = self.fixtures_dir / fixture_filename(prompt.abstract_key, prompt.style)
        try:
            return path.read_text(encoding="utf-8"), False
        except OSError as exc:
            raise BackendError(f"no fixture for ({prompt.abstract_key}, {prompt.style.value})") from exc


class HttpBackend:
    """Completion client for a JSON chat/completions endpoint.

    Decoding is pinned deterministic: temperature 0 and the caller's token
    budget, regardless of server defaults. Requests go through a
    `transport.Transport`: a 5xx, a 429 or a transport error is retried with
    backoff; any other status but 200 fails the prompt at once, with
    the start of the body in the message. Credentials go in `headers`.
    """

    def __init__(
        self,
        url: str,
        model: str,
        *,
        use_messages: bool = False,
        headers: dict[str, str] | None = None,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url
        self.model = model
        self.use_messages = use_messages
        self.headers = {"Content-Type": "application/json", **(headers or {})}
        self.name = f"http:{model}"
        self._transport = Transport(
            timeout=timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            retryable=lambda status: status >= 500 or status == 429,
            sleep=sleep,
        )

    def _payload(self, prompt: RenderedPrompt, params: DecodingParams) -> dict:
        payload: dict = {
            "model": self.model,
            "temperature": 0,
            "max_tokens": params.max_new_tokens,
        }
        if params.repetition_penalty != 1.0:
            payload["repetition_penalty"] = params.repetition_penalty
        if self.use_messages:
            payload["messages"] = [{"role": "user", "content": prompt.text}]
        else:
            payload["prompt"] = prompt.text
        return payload

    @staticmethod
    def _extract_completion(payload: dict) -> tuple[str, bool]:
        choices = payload.get("choices")
        if isinstance(choices, list) and choices:
            first = choices[0]
            text = first.get("text")
            if text is None:
                text = first.get("message", {}).get("content")
            if text is not None:
                return str(text), first.get("finish_reason") == "length"
        for key in ("text", "completion", "content"):
            if isinstance(payload.get(key), str):
                return payload[key], False
        raise BackendError(f"no completion text in response keys {sorted(payload)}")

    def complete(self, prompt: RenderedPrompt, params: DecodingParams) -> tuple[str, bool]:
        data = json.dumps(self._payload(prompt, params)).encode("utf-8")
        try:
            status, body = self._transport.send(self.url, data=data, headers=self.headers)
        except Unreachable as exc:
            raise BackendError(
                f"backend unreachable after {self._transport.max_retries} retries: {exc.last_error}"
            ) from exc
        if status != 200:
            raise BackendError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            return self._extract_completion(json.loads(body))
        except ValueError as exc:
            raise BackendError(f"invalid JSON from backend: {exc}") from exc


def complete(backend, prompt: RenderedPrompt, params: DecodingParams) -> LlmResponse:
    """Run one completion and wrap it with timing and provenance."""
    start = time.perf_counter()
    text, truncated = backend.complete(prompt, params)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return LlmResponse(
        abstract_key=prompt.abstract_key,
        style=prompt.style,
        text=text,
        truncated=truncated,
        latency_ms=latency_ms,
        backend_name=backend.name,
    )


class ResponseStore:
    """Append-only JSONL sink; what is on disk is never re-requested.

    A last line without its newline is an append that did not finish: `load`
    leaves it out and the next `append` cuts it off, so its prompt is
    requested again. Any other unreadable line is an `ArtifactFormatError`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> list[LlmResponse]:
        if not self.path.exists():
            return []
        return read_jsonl(
            self.path,
            lambda obj: LlmResponse(**{**obj, "style": PromptStyle(obj["style"])}),
            "a stored response",
            "delete the file to request every prompt again",
            append_only=True,
        )

    def completed_pairs(self) -> set[tuple[str, str]]:
        return {(r.abstract_key, r.style.value) for r in self.load()}

    def append(self, response: LlmResponse) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            cut_torn_tail(fh, self.path)
            fh.write(json_line(response).encode("utf-8"))


@dataclass(frozen=True)
class ExtractionFailure:
    abstract_key: str
    reason: str


@dataclass
class ExtractionRunResult:
    new_count: int
    skipped_count: int
    failures: list[ExtractionFailure]


def run_extraction(
    records: Sequence[AbstractRecord] | Iterable[AbstractRecord],
    style: PromptStyle,
    backend,
    params: DecodingParams,
    store: ResponseStore,
    *,
    templates_dir: str | None = None,
    concurrency: int = 1,
) -> ExtractionRunResult:
    """Prompt the backend once per abstract not already in the store.

    One failing abstract never aborts the batch: the failure is recorded and
    the run carries on. Responses are appended to the store in corpus order,
    not as they complete: with `concurrency` above 1, `Executor.map` yields
    them in input order, so an answer that finished early waits in memory
    behind every slower one before it. An interrupted run loses the answers
    not yet appended and resumes after the last one that was.
    """
    records = list(records)
    done = store.completed_pairs()
    todo = [r for r in records if (r.record_key, style.value) not in done]
    skipped = len(records) - len(todo)
    if skipped:
        log.info("skipping %d abstracts already completed for style %s", skipped, style.value)
    prompts = [render_prompt(r, style, templates_dir) for r in todo]
    failures: list[ExtractionFailure] = []

    def _one(prompt: RenderedPrompt) -> LlmResponse | ExtractionFailure:
        try:
            return complete(backend, prompt, params)
        except BackendError as exc:
            log.warning("completion failed for %s: %s", prompt.abstract_key, exc)
            return ExtractionFailure(prompt.abstract_key, str(exc))

    # Appending in input order keeps the store deterministic for a given
    # corpus and fixture set.
    new_count = 0

    def _drain(outcomes) -> None:
        nonlocal new_count
        for outcome in outcomes:
            if isinstance(outcome, ExtractionFailure):
                failures.append(outcome)
            else:
                store.append(outcome)
                new_count += 1

    if concurrency > 1 and len(prompts) > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            _drain(pool.map(_one, prompts))
    else:
        _drain(_one(p) for p in prompts)
    return ExtractionRunResult(
        new_count=new_count,
        skipped_count=skipped,
        failures=failures,
    )
