"""Staged pipeline over a workdir: fetch, lexicon, filter, extract, link, report, evaluate.

Every stage writes its outputs plus a manifest recording the hashes of its
inputs and the byte sizes of its outputs; rerunning a stage whose inputs are
unchanged and whose outputs keep those sizes is a no-op. Fetching
additionally keeps its own cursor state so an interrupted crawl resumes
instead of refetching, and extraction skips every (abstract, style) pair the
response store already holds. All data goes to files under the workdir; a
`.lock` file keeps concurrent runs off the same workdir.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .config import PipelineConfig
from .corpus import (
    AbstractRecord,
    RawRecord,
    Rejection,
    build_search_query,
    clean_record,
    dedupe,
    filter_by_food,
    record_from_json_dict,
    record_to_json_dict,
)
from .epmc import FIRST_CURSOR, DecodeError, EuropePmcClient, FetchError
from .evaluation import (
    AccuracyReport,
    compare_prompts,
    grid_rows,
    load_gold,
    report_to_json_dict,
    score,
    write_grid_csv,
)
from .lexicon import (
    INDEX_VERSION,
    LexiconIndex,
    ParseStats,
    build_index,
    default_stoplist,
    file_sha256,
    header_sha256,
    load_stoplist,
    normalize,
    parse_chebi_source,
)
from .linker import aggregate, emit_report, link_candidate, table_from_json_dict, table_to_json_dict
from .prompting import (
    DecodingParams,
    HttpBackend,
    MockBackend,
    PromptStyle,
    ResponseStore,
    complete_lines,
    load_template,
    run_extraction,
)
from .response_parser import (
    RECOVERED,
    UNPARSEABLE,
    WELL_FORMED,
    ExtractionCandidate,
    extract_mapping,
    gate_by_food,
    write_candidates_jsonl,
)

log = logging.getLogger(__name__)

AREAS = ("abstracts", "lexicon", "responses", "candidates", "tables", "reports")


class PipelineError(Exception):
    """A stage cannot run: missing input, bad artifact, or transport gave up."""


@dataclass
class StageResult:
    stage: str
    skipped: bool
    counts: dict = field(default_factory=dict)
    failures: int = 0


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _canon(obj):
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hash_obj(obj) -> str:
    return _hash_text(json.dumps(_canon(obj), sort_keys=True))


def _write_json(path: Path, obj) -> None:
    """Write `obj` to a temp file beside `path`, then rename it over: a crash
    leaves the previous file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_json(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _area(cfg: PipelineConfig, name: str) -> Path:
    path = cfg.workdir / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _output_sizes(outputs) -> dict[str, int | None]:
    return {p.name: p.stat().st_size if p.exists() else None for p in map(Path, outputs)}


def _fresh(manifest_path: Path, signature, outputs) -> dict | None:
    """Previous counts when the manifest matches the inputs and every output
    still has the byte size the manifest recorded (a stat, not a hash)."""
    if not manifest_path.exists():
        return None
    try:
        manifest = _read_json(manifest_path)
    except (OSError, json.JSONDecodeError):
        return None
    if manifest.get("input_hashes") != _canon(signature):
        return None
    sizes = _output_sizes(outputs)
    if None in sizes.values() or manifest.get("output_sizes") != sizes:
        return None
    return manifest.get("counts", {})


def _record(manifest_path: Path, stage: str, signature, counts, started_at: str, outputs) -> None:
    _write_json(
        manifest_path,
        {
            "stage": stage,
            "input_hashes": _canon(signature),
            "output_sizes": _output_sizes(outputs),
            "started_at": started_at,
            "counts": _canon(counts),
        },
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@contextmanager
def workdir_lock(workdir: Path):
    """Advisory lock: one pipeline invocation per workdir at a time."""
    workdir.mkdir(parents=True, exist_ok=True)
    lock_path = workdir / ".lock"
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            pid: int | None = None
            try:
                pid = int(lock_path.read_text().strip() or "0")
            except (OSError, ValueError):
                pass
            if pid and _pid_alive(pid):
                raise PipelineError(f"workdir {workdir} is locked by running process {pid}")
            log.warning("removing stale lock left by pid %s", pid)
            try:
                lock_path.unlink()
            except FileNotFoundError:
                pass
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except FileNotFoundError:
            pass


def _write_records_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json_dict(rec), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def _read_records_jsonl(path: Path) -> list[AbstractRecord]:
    records = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(record_from_json_dict(json.loads(line)))
    return records


def _raw_to_dict(raw: RawRecord) -> dict:
    return {
        "source_id": raw.source_id,
        "doi": raw.doi,
        "title": raw.title,
        "abstract_text": raw.abstract_text,
        "publication_year": raw.publication_year,
        "publication_types": list(raw.publication_types),
    }


def _raw_from_dict(obj: dict) -> RawRecord:
    return RawRecord(
        source_id=obj.get("source_id", ""),
        doi=obj.get("doi"),
        title=obj.get("title", ""),
        abstract_text=obj.get("abstract_text", ""),
        publication_year=obj.get("publication_year"),
        publication_types=tuple(obj.get("publication_types", ())),
    )


def _read_raw_records(path: Path) -> list[RawRecord]:
    """Raw records of the fetch cache, torn last line left out as in the
    response store; any other unreadable line is a `PipelineError`."""
    raws = []
    for line_no, line in complete_lines(path):
        try:
            raws.append(_raw_from_dict(json.loads(line)))
        except (ValueError, AttributeError, TypeError) as exc:
            raise PipelineError(
                f"{path}: line {line_no} is not a raw record ({exc!r}); "
                "delete it and fetch_state.json to fetch again"
            ) from exc
    return raws


def _count_jsonl(path: Path) -> int:
    with path.open("r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _stem(food_name: str, style: PromptStyle) -> str:
    return f"{food_name}__{style.value}"


def stage_fetch(cfg: PipelineConfig) -> StageResult:
    """Fetch, clean and dedupe the corpus into abstracts/abstracts.jsonl."""
    started = _now()
    area = _area(cfg, "abstracts")
    out = area / "abstracts.jsonl"
    manifest = area / "fetch.manifest.json"
    query = build_search_query(cfg.cutoff_date)
    signature = {
        "query_sha256": _hash_text(query.rendered),
        "endpoint": cfg.api_endpoint or "",
        "page_size": cfg.page_size,
    }
    previous = _fresh(manifest, signature, [out])
    if previous is not None:
        log.info("fetch: inputs unchanged, keeping %s", out)
        return StageResult("fetch", skipped=True, counts=previous)
    if not cfg.api_endpoint:
        if out.exists():
            counts = {"kept": _count_jsonl(out), "adopted": True}
            log.info("fetch: no endpoint configured, adopting existing %s", out)
            _record(manifest, "fetch", signature, counts, started, [out])
            return StageResult("fetch", skipped=False, counts=counts)
        raise PipelineError(
            "api.endpoint is not configured and no abstracts artifact exists to adopt"
        )

    raw_path = area / "raw_records.jsonl"
    state_path = area / "fetch_state.json"
    state_sig = _hash_obj(signature)
    try:
        state = _read_json(state_path)
    except FileNotFoundError:
        state = {}
    except json.JSONDecodeError:
        log.warning("fetch: %s is unreadable, fetching from the start", state_path)
        state = {}
    raw_done = state.get("signature") == state_sig and state.get("done")
    if not raw_done:
        # `raw_bytes` is the length of the cache after the last page the state
        # covers: a page appended after it, whole or torn, is cut and fetched again.
        raw_bytes = state.get("raw_bytes")
        if (
            state.get("signature") == state_sig
            and state.get("next_cursor")
            and isinstance(raw_bytes, int)
            and raw_path.exists()
            and raw_path.stat().st_size >= raw_bytes
        ):
            cursor = state["next_cursor"]
            mode = "a"
            log.info("fetch: resuming from cursor %r", cursor)
            with raw_path.open("r+b") as fh:
                fh.truncate(raw_bytes)
        else:
            cursor = FIRST_CURSOR
            mode = "w"
        client = EuropePmcClient(
            cfg.api_endpoint,
            page_size=cfg.page_size,
            rate_limit=cfg.rate_limit,
            max_retries=cfg.max_retries,
        )
        with raw_path.open(mode, encoding="utf-8", newline="\n") as fh:

            def save_state(next_cursor) -> None:
                fh.flush()
                _write_json(
                    state_path,
                    {
                        "signature": state_sig,
                        "next_cursor": next_cursor,
                        "raw_bytes": os.fstat(fh.fileno()).st_size,
                        "done": False,
                    },
                )

            try:
                for page in client.iter_pages(query.rendered, cursor):
                    for raw in page.records:
                        fh.write(json.dumps(_raw_to_dict(raw), ensure_ascii=False, sort_keys=True))
                        fh.write("\n")
                    save_state(page.next_cursor or page.cursor)
            except (FetchError, DecodeError) as exc:
                save_state(exc.cursor)
                raise PipelineError(
                    f"fetch stopped at cursor {exc.cursor!r}: {exc}; rerun to resume"
                ) from exc
        _write_json(state_path, {"signature": state_sig, "next_cursor": None, "done": True})

    raws = _read_raw_records(raw_path)
    rejected: Counter[str] = Counter()
    cleaned: list[AbstractRecord] = []
    for raw in raws:
        result = clean_record(raw)
        if isinstance(result, Rejection):
            rejected[result.reason] += 1
        else:
            cleaned.append(result)
    records = list(dedupe(cleaned))
    _write_records_jsonl(out, records)
    counts = {
        "raw": len(raws),
        "kept": len(records),
        "duplicates": len(cleaned) - len(records),
        **{f"rejected_{reason}": n for reason, n in sorted(rejected.items())},
    }
    _record(manifest, "fetch", signature, counts, started, [out])
    log.info("fetch: %s", counts)
    return StageResult("fetch", skipped=False, counts=counts)


def stage_build_lexicon(cfg: PipelineConfig) -> StageResult:
    """Parse the names dump and serialize the surface index."""
    started = _now()
    if cfg.chebi_dump is None:
        raise PipelineError("lexicon.chebi_dump is not configured")
    dump = Path(cfg.chebi_dump)
    if not dump.exists():
        raise PipelineError(f"names dump not found: {dump}")
    if cfg.stoplist_path is not None and not Path(cfg.stoplist_path).exists():
        raise PipelineError(f"stoplist not found: {cfg.stoplist_path}")
    area = _area(cfg, "lexicon")
    out = area / "index.jsonl"
    report_path = area / "build_report.json"
    manifest = area / "build.manifest.json"
    stoplist = load_stoplist(cfg.stoplist_path) if cfg.stoplist_path else default_stoplist()
    checksum = file_sha256(dump)
    signature = {
        "dump_sha256": checksum,
        "stoplist_sha256": _hash_obj(sorted(stoplist)),
        "index_version": INDEX_VERSION,
    }
    previous = _fresh(manifest, signature, [out, report_path])
    if previous is not None:
        log.info("build-lexicon: inputs unchanged, keeping %s", out)
        return StageResult("build-lexicon", skipped=True, counts=previous)
    stats = ParseStats()
    index = build_index(
        parse_chebi_source(dump, stats),
        stoplist,
        source_checksum=checksum,
        parse_stats=stats,
    )
    index.save(out)
    counts = index.stats.as_dict()
    _write_json(report_path, counts)
    _record(manifest, "build-lexicon", signature, counts, started, [out, report_path])
    log.info("build-lexicon: %s", counts)
    return StageResult("build-lexicon", skipped=False, counts=counts)


def stage_filter(cfg: PipelineConfig, food_name: str) -> StageResult:
    """Write the per-food slice of the corpus."""
    started = _now()
    food = cfg.food(food_name)
    area = _area(cfg, "abstracts")
    src = area / "abstracts.jsonl"
    if not src.exists():
        raise PipelineError(f"no abstracts artifact at {src}; run fetch first")
    out = area / f"filtered__{food_name}.jsonl"
    manifest = area / f"filter__{food_name}.manifest.json"
    signature = {"abstracts_sha256": file_sha256(src), "keywords": sorted(food.keywords)}
    previous = _fresh(manifest, signature, [out])
    if previous is not None:
        log.info("filter[%s]: inputs unchanged, keeping %s", food_name, out)
        return StageResult("filter", skipped=True, counts=previous)
    records = _read_records_jsonl(src)
    kept = list(filter_by_food(records, food))
    _write_records_jsonl(out, kept)
    counts = {"input": len(records), "matched": len(kept)}
    _record(manifest, "filter", signature, counts, started, [out])
    log.info("filter[%s]: %s", food_name, counts)
    return StageResult("filter", skipped=False, counts=counts)


def _make_backend(cfg: PipelineConfig):
    if cfg.backend_kind == "mock":
        if cfg.fixtures_dir is None:
            raise PipelineError("backend.fixtures_dir is required for the mock backend")
        if not Path(cfg.fixtures_dir).is_dir():
            raise PipelineError(f"fixtures directory not found: {cfg.fixtures_dir}")
        return MockBackend(cfg.fixtures_dir)
    if not cfg.backend_url:
        raise PipelineError("backend.url is required for the http backend")
    return HttpBackend(cfg.backend_url, cfg.backend_model, use_messages=cfg.use_messages)


def stage_extract(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> StageResult:
    """Prompt the backend for every filtered abstract not yet answered."""
    started = _now()
    src = _area(cfg, "abstracts") / f"filtered__{food_name}.jsonl"
    if not src.exists():
        raise PipelineError(f"no filtered corpus at {src}; run filter first")
    area = _area(cfg, "responses")
    out = area / f"{_stem(food_name, style)}.jsonl"
    manifest = area / f"extract__{_stem(food_name, style)}.manifest.json"
    templates_dir = str(cfg.templates_dir) if cfg.templates_dir else None
    template_text = load_template(style, templates_dir)
    signature = {
        "filtered_sha256": file_sha256(src),
        "style": style.value,
        "template_sha256": _hash_text(template_text),
        "backend": {
            "kind": cfg.backend_kind,
            "url": cfg.backend_url or "",
            "model": cfg.backend_model,
            "fixtures_dir": str(cfg.fixtures_dir or ""),
        },
        "decoding": {
            "max_new_tokens": cfg.max_new_tokens,
            "repetition_penalty": cfg.repetition_penalty,
        },
    }
    previous = _fresh(manifest, signature, [out])
    if previous is not None and previous.get("failed", 0) == 0:
        log.info("extract[%s]: inputs unchanged, keeping %s", _stem(food_name, style), out)
        return StageResult("extract", skipped=True, counts=previous)
    records = _read_records_jsonl(src)
    backend = _make_backend(cfg)
    params = DecodingParams(
        max_new_tokens=cfg.max_new_tokens, repetition_penalty=cfg.repetition_penalty
    )
    store = ResponseStore(out)
    result = run_extraction(
        records,
        style,
        backend,
        params,
        store,
        templates_dir=templates_dir,
        concurrency=cfg.concurrency,
    )
    counts = {
        "total": len(records),
        "new": result.new_count,
        "skipped_existing": result.skipped_count,
        "failed": len(result.failures),
        "failures": [
            {"abstract_key": f.abstract_key, "reason": f.reason} for f in result.failures
        ],
    }
    _record(manifest, "extract", signature, counts, started, [out])
    log.info(
        "extract[%s]: %d total, %d new, %d already stored, %d failed",
        _stem(food_name, style),
        counts["total"],
        counts["new"],
        counts["skipped_existing"],
        counts["failed"],
    )
    return StageResult("extract", skipped=False, counts=counts, failures=len(result.failures))


def stage_link(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> StageResult:
    """Parse responses, gate by food, link to identifiers, aggregate the table."""
    started = _now()
    food = cfg.food(food_name)
    stem = _stem(food_name, style)
    responses_path = _area(cfg, "responses") / f"{stem}.jsonl"
    if not responses_path.exists():
        raise PipelineError(f"no responses at {responses_path}; run extract first")
    filtered_path = _area(cfg, "abstracts") / f"filtered__{food_name}.jsonl"
    if not filtered_path.exists():
        raise PipelineError(f"no filtered corpus at {filtered_path}; run filter first")
    index_path = _area(cfg, "lexicon") / "index.jsonl"
    if not index_path.exists():
        raise PipelineError(f"no lexicon index at {index_path}; run build-lexicon first")
    candidates_path = _area(cfg, "candidates") / f"{stem}.jsonl"
    table_path = _area(cfg, "tables") / f"{stem}.json"
    manifest = _area(cfg, "candidates") / f"link__{stem}.manifest.json"
    signature = {
        "responses_sha256": file_sha256(responses_path),
        # The header pins the body by its sha256; `load` checks the body.
        "index_header_sha256": header_sha256(index_path),
        "index_bytes": index_path.stat().st_size,
        "keywords": sorted(food.keywords),
    }
    previous = _fresh(manifest, signature, [candidates_path, table_path])
    if previous is not None:
        log.info("link[%s]: inputs unchanged, keeping %s", stem, table_path)
        return StageResult("link", skipped=True, counts=previous)
    records = {r.record_key: r for r in _read_records_jsonl(filtered_path)}
    responses = ResponseStore(responses_path).load()
    status_counts = {WELL_FORMED: 0, RECOVERED: 0, UNPARSEABLE: 0}
    candidates = []
    gated_pairs: list[tuple[ExtractionCandidate, AbstractRecord]] = []
    dropped_by_gating = missing_abstract = truncated = 0
    for response in responses:
        if response.truncated:
            truncated += 1
        candidate = extract_mapping(response)
        candidates.append(candidate)
        status_counts[candidate.parse_status] += 1
        record = records.get(response.abstract_key)
        if record is None:
            missing_abstract += 1
            log.warning("link[%s]: response for unknown abstract %s", stem, response.abstract_key)
            continue
        gated = gate_by_food(candidate, food)
        dropped_by_gating += len(candidate.food_terms) - len(gated.food_terms)
        gated_pairs.append((gated, record))
    # Load only the names that can spell these hazards; `lookup` tries the raw
    # string before its normalized form. An abbreviation expansion is known only
    # once its lookup has missed, so one that falls outside gets a second load.
    wanted = {
        form
        for gated, _ in gated_pairs
        for hazards in gated.food_terms.values()
        for hazard in hazards
        for form in (hazard, normalize(hazard))
    }
    index = LexiconIndex.load(index_path, wanted=wanted)
    mentions, resolved, unresolved = _link_all(gated_pairs, index)
    if index.unplanned:
        log.info("link[%s]: %d expanded surfaces not in the first load, loading again",
                 stem, len(index.unplanned))
        index = LexiconIndex.load(index_path, wanted=wanted | index.unplanned)
        mentions, resolved, unresolved = _link_all(gated_pairs, index)
    write_candidates_jsonl(candidates_path, candidates)
    table = aggregate(mentions, food, index)
    _write_json(table_path, {"style": style.value, **table_to_json_dict(table)})
    counts = {
        "responses": len(responses),
        **status_counts,
        "truncated": truncated,
        "missing_abstract": missing_abstract,
        "resolved": resolved,
        "unresolved": unresolved,
        "dropped_by_gating": dropped_by_gating,
        "table_rows": len(table.rows),
    }
    _record(manifest, "link", signature, counts, started, [candidates_path, table_path])
    log.info("link[%s]: %s", stem, counts)
    return StageResult("link", skipped=False, counts=counts)


def _link_all(gated_pairs, index: LexiconIndex):
    """Link every gated candidate: the mentions, then the resolved and unresolved counts."""
    mentions: list[tuple[str, AbstractRecord]] = []
    resolved = unresolved = 0
    for gated, record in gated_pairs:
        outcome = link_candidate(gated, record, index)
        unresolved += len(outcome.unresolved)
        resolved += len(outcome.pairs)
        mentions.extend((chebi_id, record) for _, chebi_id in outcome.pairs)
    return mentions, resolved, unresolved


def stage_report(cfg: PipelineConfig, food_name: str, style: PromptStyle | None = None) -> StageResult:
    """Emit hazard tables as CSV and JSON reports."""
    started = _now()
    tables_area = _area(cfg, "tables")
    if style is not None:
        table_paths = [tables_area / f"{_stem(food_name, style)}.json"]
        if not table_paths[0].exists():
            raise PipelineError(f"no linked table at {table_paths[0]}; run link first")
    else:
        table_paths = sorted(tables_area.glob(f"{food_name}__*.json"))
        if not table_paths:
            raise PipelineError(f"no linked tables for food {food_name!r}; run link first")
    reports_area = _area(cfg, "reports")
    emitted = []
    all_skipped = True
    for table_path in table_paths:
        stem = table_path.stem
        csv_path = reports_area / f"hazards__{stem}.csv"
        json_path = reports_area / f"hazards__{stem}.json"
        manifest = reports_area / f"report__{stem}.manifest.json"
        signature = {"table_sha256": file_sha256(table_path)}
        if _fresh(manifest, signature, [csv_path, json_path]) is not None:
            emitted.append(stem)
            continue
        all_skipped = False
        table = table_from_json_dict(_read_json(table_path))
        emit_report(table, "csv", csv_path)
        emit_report(table, "json", json_path)
        _record(
            manifest, "report", signature, {"rows": len(table.rows)}, started, [csv_path, json_path]
        )
        emitted.append(stem)
    counts = {"reports": emitted}
    log.info("report[%s]: emitted %s", food_name, ", ".join(emitted))
    return StageResult("report", skipped=all_skipped, counts=counts)


def _tables_for_style(cfg: PipelineConfig, style: PromptStyle):
    tables_area = _area(cfg, "tables")
    tables = []
    for path in sorted(tables_area.glob(f"*__{style.value}.json")):
        tables.append(table_from_json_dict(_read_json(path)))
    return tables


def _food_order(cfg: PipelineConfig, reports: list[AccuracyReport]) -> list[str]:
    present = {food for report in reports for (food, _) in report.cells}
    ordered = [f for f in cfg.foods if f in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def stage_evaluate(
    cfg: PipelineConfig, gold_path: Path, style: PromptStyle
) -> tuple[StageResult, list[list[str]]]:
    """Score the style's tables against gold; returns the printable grid.

    The comparison across styles is rewritten from every style's tables, so
    all of them, the gold file and the food order make up the signature.
    """
    started = _now()
    gold_path = Path(gold_path)
    if not gold_path.exists():
        raise PipelineError(f"gold file not found: {gold_path}")
    tables_area = _area(cfg, "tables")
    styles_present = [s for s in PromptStyle if any(tables_area.glob(f"*__{s.value}.json"))]
    if style not in styles_present:
        raise PipelineError(f"no linked tables for style {style.value!r}; run link first")
    reports_area = _area(cfg, "reports")
    json_path = reports_area / f"accuracy__{style.value}.json"
    csv_path = reports_area / f"accuracy__{style.value}.csv"
    outputs = [json_path, csv_path]
    if len(styles_present) > 1:
        outputs += [reports_area / "comparison.csv", reports_area / "comparison.json"]
    manifest = reports_area / f"evaluate__{style.value}.manifest.json"
    signature = {
        "gold_sha256": file_sha256(gold_path),
        "tables": {p.name: file_sha256(p) for p in sorted(tables_area.glob("*.json"))},
        "foods": list(cfg.foods),
    }
    previous = _fresh(manifest, signature, outputs)
    if previous is not None:
        log.info("evaluate[%s]: inputs unchanged, keeping %s", style.value, csv_path)
        with csv_path.open("r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return StageResult("evaluate", skipped=True, counts=previous), rows

    gold = load_gold(gold_path)
    report = score(_tables_for_style(cfg, style), gold, style.value)
    for (food, _), ids in sorted(report.unjudged.items()):
        log.warning(
            "evaluate[%s]: %d unjudged identifiers for %s: %s",
            style.value,
            len(ids),
            food,
            ", ".join(ids),
        )
    rows = grid_rows([report], _food_order(cfg, [report]))
    _write_json(json_path, report_to_json_dict(report))
    write_grid_csv(rows, csv_path)

    # With tables for several styles on disk, also emit the side-by-side
    # comparison picking the best style.
    if len(styles_present) > 1:
        all_reports = {
            s.value: score(_tables_for_style(cfg, s), gold, s.value) for s in styles_present
        }
        comparison = compare_prompts(all_reports)
        ordered = [all_reports[s.value] for s in styles_present]
        write_grid_csv(grid_rows(ordered, _food_order(cfg, ordered)), reports_area / "comparison.csv")
        _write_json(
            reports_area / "comparison.json",
            {
                "best": list(comparison.best),
                "styles": {
                    name: {"correct": s.correct, "total": s.total, "ratio": s.ratio}
                    for name, s in comparison.summaries.items()
                },
            },
        )
    counts = {
        "foods": len(report.cells),
        "unjudged": sum(len(v) for v in report.unjudged.values()),
    }
    _record(manifest, "evaluate", signature, counts, started, outputs)
    return StageResult("evaluate", skipped=False, counts=counts), rows


def run_all(
    cfg: PipelineConfig, food_name: str, style: PromptStyle
) -> tuple[list[StageResult], list[list[str]] | None]:
    """Run every stage for one food and style; evaluation only with gold configured."""
    results = [
        stage_fetch(cfg),
        stage_build_lexicon(cfg),
        stage_filter(cfg, food_name),
        stage_extract(cfg, food_name, style),
        stage_link(cfg, food_name, style),
        stage_report(cfg, food_name, style),
    ]
    grid = None
    if cfg.gold_path is not None:
        result, grid = stage_evaluate(cfg, cfg.gold_path, style)
        results.append(result)
    return results, grid
