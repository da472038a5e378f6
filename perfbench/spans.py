"""Spans around the pipeline's public functions, recorded from outside the package.

`Tracer.install` rebinds each function in the namespace that calls it (the
stage functions and what they call as `hazardex.pipeline` binds them, the
back-trace as `hazardex.linker` binds it, rendering and completion as
`hazardex.prompting` binds them) and a few methods on their classes.
`uninstall` puts the originals back. Spans are kept in memory as
(id, name, start, end, parent, ok) and written out by the caller.

`LexiconIndex.lookup` is deliberately not wrapped: a span costs more than the
lookup, so the benchmark times it with a direct loop instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
from pathlib import Path
from time import perf_counter

STAGES = ("fetch", "build_lexicon", "filter", "extract", "link", "report", "evaluate")

# (module, attribute, span name, kind); kind "call" times each call, "iter"
# times each step of the iterator the function returns.
_FUNCTIONS = (
    *(("hazardex.pipeline", f"stage_{s}", f"pipeline.stage_{s}", "call") for s in STAGES),
    ("hazardex.pipeline", "parse_chebi_source", "lexicon.parse_chebi_source", "iter"),
    ("hazardex.pipeline", "build_index", "lexicon.build_index", "call"),
    ("hazardex.pipeline", "file_sha256", "lexicon.file_sha256", "call"),
    ("hazardex.lexicon", "surfaces_for", "lexicon.surfaces_for", "call"),
    ("hazardex.pipeline", "clean_record", "corpus.clean_record", "call"),
    ("hazardex.pipeline", "dedupe", "corpus.dedupe", "iter"),
    ("hazardex.pipeline", "filter_by_food", "corpus.filter_by_food", "iter"),
    ("hazardex.pipeline", "run_extraction", "prompting.run_extraction", "call"),
    ("hazardex.prompting", "render_prompt", "prompting.render_prompt", "call"),
    ("hazardex.prompting", "complete", "prompting.complete", "call"),
    ("hazardex.pipeline", "extract_mapping", "response_parser.extract_mapping", "call"),
    ("hazardex.pipeline", "gate_by_food", "response_parser.gate_by_food", "call"),
    ("hazardex.pipeline", "write_candidates_jsonl", "response_parser.write_candidates_jsonl", "call"),
    ("hazardex.pipeline", "link_candidate", "linker.link_candidate", "call"),
    ("hazardex.linker", "resolve_abbreviation", "linker.resolve_abbreviation", "call"),
    ("hazardex.pipeline", "aggregate", "linker.aggregate", "call"),
    ("hazardex.pipeline", "emit_report", "linker.emit_report", "call"),
    ("hazardex.pipeline", "load_gold", "evaluation.load_gold", "call"),
    ("hazardex.pipeline", "score", "evaluation.score", "call"),
    ("hazardex.pipeline", "compare_prompts", "evaluation.compare_prompts", "call"),
)

# (module, class, method, span name, kind)
_METHODS = (
    ("hazardex.lexicon", "LexiconIndex", "save", "lexicon.save", "call"),
    ("hazardex.lexicon", "LexiconIndex", "load", "lexicon.load", "call"),
    ("hazardex.prompting", "ResponseStore", "append", "prompting.store_append", "call"),
    ("hazardex.prompting", "ResponseStore", "load", "prompting.store_load", "call"),
    ("hazardex.epmc", "EuropePmcClient", "iter_pages", "epmc.page", "iter"),
    ("hazardex.epmc", "RateLimiter", "wait", "epmc.rate_wait", "call"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, bool]] = []
        # Per-call facts the metrics need besides timing, keyed by span id.
        self.facts: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, stack

    def _call(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = tracer._open()
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, ok))
            tracer._note(name, sid, args, result)
            return result

        return wrapper

    def _iter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def steps():
                while True:
                    sid, parent, stack = tracer._open()
                    ok = False
                    start = perf_counter()
                    try:
                        item = next(it)
                        ok = True
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        tracer.spans.append((sid, name, start, perf_counter(), parent, ok))
                    yield item

            return steps()

        return wrapper

    def _note(self, name: str, sid: int, args, result) -> None:
        if name == "lexicon.build_index":
            self.facts[sid] = result.stats.surface_count
        elif name == "lexicon.file_sha256":
            self.facts[sid] = os.path.getsize(args[0])
        elif name == "corpus.clean_record":
            self.facts[sid] = type(result).__name__ != "Rejection"
        elif name == "response_parser.extract_mapping":
            self.facts[sid] = (len(args[0].text.encode("utf-8")), result.parse_status)
        elif name == "linker.link_candidate":
            hazards = sum(len(v) for v in args[0].food_terms.values())
            self.facts[sid] = (hazards, len(result.unresolved))

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every traced function and method."""
        import importlib

        for module_name, attr, name, kind in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._swap(module, attr, name, kind, getattr(module, attr))
        for module_name, cls_name, attr, name, kind in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._swap(cls, attr, name, kind, getattr(cls, attr))

    def _swap(self, owner, attr: str, name: str, kind: str, fn) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, (self._call if kind == "call" else self._iter)(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, ok in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "ok": ok}) + "\n")


# ---------------------------------------------------------------- analysis


class SpanSet:
    """Durations, self times and counts over one slice of the recorded spans."""

    def __init__(self, spans, facts):
        self.facts = facts
        self.by_name: dict[str, list[tuple]] = {}
        child_time: dict[int, float] = {}
        for span in spans:
            self.by_name.setdefault(span[1], []).append(span)
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
        self.child_time = child_time

    def get(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def count(self, name: str, ok_only: bool = False) -> int:
        return sum(1 for s in self.get(name) if s[5] or not ok_only)

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.get(name))

    def self_total(self, name: str) -> float:
        return sum(s[3] - s[2] - self.child_time.get(s[0], 0.0) for s in self.get(name))

    def mean(self, name: str) -> float:
        spans = self.get(name)
        return self.total(name) / len(spans) if spans else 0.0

    def durations(self, name: str, ok_only: bool = False) -> list[float]:
        return [s[3] - s[2] for s in self.get(name) if s[5] or not ok_only]

    def self_durations(self, name: str, ok_only: bool = False) -> list[float]:
        return [s[3] - s[2] - self.child_time.get(s[0], 0.0) for s in self.get(name) if s[5] or not ok_only]

    def fact_list(self, name: str) -> list:
        return [self.facts[s[0]] for s in self.get(name) if s[0] in self.facts]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def layer_metrics(cold: SpanSet, second: SpanSet) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the cold pass (and the second pass where named)."""
    m: dict[str, tuple[float, str]] = {}

    # lexicon
    m["lexicon.parse_chebi_source_s"] = (cold.total("lexicon.parse_chebi_source"), "s")
    m["lexicon.surfaces_for_us"] = (cold.mean("lexicon.surfaces_for") * 1e6, "us")
    m["lexicon.build_index_s"] = (cold.self_total("lexicon.build_index"), "s")
    m["lexicon.surface_count"] = (float(sum(cold.fact_list("lexicon.build_index"))), "count")
    m["lexicon.save_s"] = (cold.total("lexicon.save"), "s")
    m["lexicon.load_s"] = (cold.mean("lexicon.load"), "s")
    m["lexicon.load_calls"] = (float(cold.count("lexicon.load")), "count")
    m["lexicon.file_sha256_s"] = (second.total("lexicon.file_sha256"), "s")
    m["lexicon.sha256_mb"] = (sum(second.fact_list("lexicon.file_sha256")) / 1e6, "MB")

    # epmc
    m["epmc.pages"] = (float(cold.count("epmc.page", ok_only=True)), "count")
    pages = cold.self_durations("epmc.page", ok_only=True)
    m["epmc.page_ms"] = (statistics.median(pages) * 1e3 if pages else 0.0, "ms")
    m["epmc.rate_wait_s"] = (cold.total("epmc.rate_wait"), "s")

    # corpus
    m["corpus.clean_record_us"] = (cold.mean("corpus.clean_record") * 1e6, "us")
    kept = cold.fact_list("corpus.clean_record")
    m["corpus.kept_ratio"] = (_ratio(sum(kept), len(kept)), "ratio")
    m["corpus.dedupe_ms"] = (cold.total("corpus.dedupe") * 1e3, "ms")
    m["corpus.filter_by_food_ms"] = (cold.total("corpus.filter_by_food") * 1e3, "ms")
    m["corpus.matched"] = (float(cold.count("corpus.filter_by_food", ok_only=True)), "count")

    # prompting
    m["prompting.render_prompt_us"] = (cold.mean("prompting.render_prompt") * 1e6, "us")
    m["prompting.store_append_us"] = (cold.mean("prompting.store_append") * 1e6, "us")
    m["prompting.run_extraction_s"] = (cold.total("prompting.run_extraction"), "s")
    completes = cold.durations("prompting.complete")
    m["prompting.complete_ms_p50"] = (_percentile(completes, 50) * 1e3, "ms")
    m["prompting.complete_ms_p99"] = (_percentile(completes, 99) * 1e3, "ms")
    m["prompting.completions"] = (float(len(completes)), "count")
    m["prompting.completions_failed"] = (
        float(len(completes) - len(cold.durations("prompting.complete", ok_only=True))), "count")
    m["prompting.store_load_s"] = (second.total("prompting.store_load"), "s")
    m["prompting.store_load_calls"] = (float(second.count("prompting.store_load")), "count")

    # response_parser
    parsed = cold.fact_list("response_parser.extract_mapping")
    kb = sum(size for size, _ in parsed) / 1024
    m["response_parser.extract_mapping_us_per_kb"] = (
        _ratio(cold.total("response_parser.extract_mapping") * 1e6, kb), "us/KB")
    for status in ("well_formed", "recovered", "unparseable"):
        hits = sum(1 for _, s in parsed if s == status)
        m[f"response_parser.{status}_ratio"] = (_ratio(hits, len(parsed)), "ratio")
    m["response_parser.gate_by_food_us"] = (cold.mean("response_parser.gate_by_food") * 1e6, "us")
    m["response_parser.write_candidates_ms"] = (
        cold.total("response_parser.write_candidates_jsonl") * 1e3, "ms")

    # linker
    links = cold.get("linker.link_candidate")
    abbrev = cold.get("linker.resolve_abbreviation")
    calls_in: dict[int, int] = {}
    for span in abbrev:
        calls_in[span[4]] = calls_in.get(span[4], 0) + 1
    hazards = abbrev_hits = 0
    for span in links:
        n, unresolved = cold.facts.get(span[0], (0, 0))
        hazards += n
        abbrev_hits += calls_in.get(span[0], 0) - unresolved
    m["linker.link_candidate_us"] = (cold.mean("linker.link_candidate") * 1e6, "us")
    m["linker.direct_hit_ratio"] = (_ratio(hazards - len(abbrev), hazards), "ratio")
    m["linker.resolve_abbreviation_us"] = (cold.mean("linker.resolve_abbreviation") * 1e6, "us")
    m["linker.abbrev_calls"] = (float(len(abbrev)), "count")
    m["linker.abbrev_hit_ratio"] = (_ratio(abbrev_hits, len(abbrev)), "ratio")
    m["linker.aggregate_ms"] = (cold.total("linker.aggregate") * 1e3, "ms")
    m["linker.emit_report_ms"] = (cold.total("linker.emit_report") * 1e3, "ms")

    # evaluation
    m["evaluation.load_gold_ms"] = (cold.total("evaluation.load_gold") * 1e3, "ms")
    m["evaluation.score_ms"] = (cold.total("evaluation.score") * 1e3, "ms")
    m["evaluation.compare_prompts_ms"] = (cold.total("evaluation.compare_prompts") * 1e3, "ms")

    # pipeline
    for stage in STAGES:
        m[f"pipeline.stage_{stage}_s"] = (cold.self_total(f"pipeline.stage_{stage}"), "s")
    m["pipeline.skip_s"] = (sum(second.total(f"pipeline.stage_{s}") for s in STAGES), "s")
    return m
