"""Staged pipeline over a workdir: fetch, lexicon, filter, extract, link, report, evaluate.

Every stage runs through `_stage`, which writes the stage's outputs plus a
manifest recording the hashes of its inputs, the byte sizes of its outputs,
its counts and its timing; rerunning a stage whose inputs are unchanged,
whose outputs keep those sizes and whose counts record no failures is a
no-op. Fetching additionally keeps its own cursor state so an interrupted
crawl resumes instead of refetching, and extraction skips every (abstract,
style) pair the response store already holds. All data goes to files under
the workdir, written through `artifacts`; a `.lock` file keeps concurrent
runs off the same workdir.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .artifacts import json_line, read_jsonl, write_json as _write_json, write_jsonl
# `perfbench/spans.py` times the candidates write under this name.
from .artifacts import write_jsonl as write_candidates_jsonl
from .config import PipelineConfig
from .corpus import (
    AbstractRecord,
    RawRecord,
    Rejection,
    build_search_query,
    clean_record,
    dedupe,
    filter_by_food,
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
from .linker import HazardTable, LinkedHazard, aggregate, emit_report, link_candidate
from .prompting import (
    DecodingParams,
    HttpBackend,
    MockBackend,
    PromptStyle,
    ResponseStore,
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
)

log = logging.getLogger(__name__)


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
    """Previous counts when the manifest matches the inputs, records no
    failures, and every output still has the byte size the manifest recorded
    (a stat, not a hash)."""
    try:
        manifest = _read_json(manifest_path)
    except (OSError, json.JSONDecodeError):
        return None
    counts = manifest.get("counts", {})
    if manifest.get("input_hashes") != _canon(signature) or counts.get("failed"):
        return None
    sizes = _output_sizes(outputs)
    if None in sizes.values() or manifest.get("output_sizes") != sizes:
        return None
    return counts


def _stage(name: str, manifest: Path, signature, outputs: list[Path], work) -> StageResult:
    """Skip the stage when `_fresh` says so; otherwise `work()` writes the
    outputs and returns the counts, and the manifest records them with the
    signature, the output sizes and when the work started and finished. The
    count "failed" is the result's number of partial failures."""
    started, clock = _now(), time.perf_counter()
    label = manifest.name.removesuffix(".manifest.json")
    previous = _fresh(manifest, signature, outputs)
    if previous is not None:
        log.info("%s: inputs unchanged, keeping %s", label, ", ".join(p.name for p in outputs))
        return StageResult(name, skipped=True, counts=previous)
    counts = work()
    _write_json(
        manifest,
        {
            "stage": name,
            "input_hashes": _canon(signature),
            "output_sizes": _output_sizes(outputs),
            "started_at": started,
            "finished_at": _now(),
            "duration_s": round(time.perf_counter() - clock, 3),
            "counts": _canon(counts),
        },
    )
    log.info("%s: %s", label, {k: v for k, v in counts.items() if not isinstance(v, list)})
    return StageResult(name, skipped=False, counts=counts, failures=counts.get("failed", 0))


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


def _read_records(path: Path) -> list[AbstractRecord]:
    return read_jsonl(
        path,
        lambda obj: AbstractRecord(**obj),
        "an abstract record",
        "delete it and rerun the stage that writes it",
    )


def _read_table(path: Path) -> HazardTable:
    obj = _read_json(path)
    rows = tuple(
        LinkedHazard(**{**row, "supporting_dois": tuple(row["supporting_dois"])})
        for row in obj["rows"]
    )
    return HazardTable(food=obj["food"], rows=rows)


def _stem(food_name: str, style: PromptStyle) -> str:
    return f"{food_name}__{style.value}"


def stage_fetch(cfg: PipelineConfig) -> StageResult:
    """Fetch, clean and dedupe the corpus into abstracts/abstracts.jsonl."""
    area = _area(cfg, "abstracts")
    out = area / "abstracts.jsonl"
    query = build_search_query(cfg.cutoff_date)
    signature = {
        "query_sha256": _hash_text(query.rendered),
        "endpoint": cfg.api_endpoint or "",
        "page_size": cfg.page_size,
    }

    def work() -> dict:
        if not cfg.api_endpoint:
            if out.exists():
                log.info("fetch: no endpoint configured, adopting existing %s", out)
                return {"kept": len(_read_records(out)), "adopted": True}
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
        if not (state.get("signature") == state_sig and state.get("done")):
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
                        fh.writelines(map(json_line, page.records))
                        save_state(page.next_cursor or page.cursor)
                except (FetchError, DecodeError) as exc:
                    save_state(exc.cursor)
                    raise PipelineError(
                        f"fetch stopped at cursor {exc.cursor!r}: {exc}; rerun to resume"
                    ) from exc
            _write_json(state_path, {"signature": state_sig, "next_cursor": None, "done": True})

        raws = read_jsonl(
            raw_path,
            lambda obj: RawRecord(**{**obj, "publication_types": tuple(obj["publication_types"])}),
            "a raw record",
            "delete it and fetch_state.json to fetch again",
            append_only=True,
        )
        rejected: Counter[str] = Counter()
        cleaned: list[AbstractRecord] = []
        for raw in raws:
            result = clean_record(raw)
            if isinstance(result, Rejection):
                rejected[result.reason] += 1
            else:
                cleaned.append(result)
        records = list(dedupe(cleaned))
        write_jsonl(out, records)
        return {
            "raw": len(raws),
            "kept": len(records),
            "duplicates": len(cleaned) - len(records),
            **{f"rejected_{reason}": n for reason, n in sorted(rejected.items())},
        }

    return _stage("fetch", area / "fetch.manifest.json", signature, [out], work)


def stage_build_lexicon(cfg: PipelineConfig) -> StageResult:
    """Parse the names dump and serialize the surface index."""
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
    stoplist = load_stoplist(cfg.stoplist_path) if cfg.stoplist_path else default_stoplist()
    checksum = file_sha256(dump)
    signature = {
        "dump_sha256": checksum,
        "stoplist_sha256": _hash_obj(sorted(stoplist)),
        "index_version": INDEX_VERSION,
    }

    def work() -> dict:
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
        return counts

    return _stage("build-lexicon", area / "build.manifest.json", signature, [out, report_path], work)


def stage_filter(cfg: PipelineConfig, food_name: str) -> StageResult:
    """Write the per-food slice of the corpus."""
    food = cfg.food(food_name)
    area = _area(cfg, "abstracts")
    src = area / "abstracts.jsonl"
    if not src.exists():
        raise PipelineError(f"no abstracts artifact at {src}; run fetch first")
    out = area / f"filtered__{food_name}.jsonl"
    signature = {"abstracts_sha256": file_sha256(src), "keywords": sorted(food.keywords)}

    def work() -> dict:
        records = _read_records(src)
        kept = list(filter_by_food(records, food))
        write_jsonl(out, kept)
        return {"input": len(records), "matched": len(kept)}

    return _stage("filter", area / f"filter__{food_name}.manifest.json", signature, [out], work)


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
    src = _area(cfg, "abstracts") / f"filtered__{food_name}.jsonl"
    if not src.exists():
        raise PipelineError(f"no filtered corpus at {src}; run filter first")
    area = _area(cfg, "responses")
    out = area / f"{_stem(food_name, style)}.jsonl"
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

    def work() -> dict:
        records = _read_records(src)
        backend = _make_backend(cfg)
        params = DecodingParams(
            max_new_tokens=cfg.max_new_tokens, repetition_penalty=cfg.repetition_penalty
        )
        result = run_extraction(
            records,
            style,
            backend,
            params,
            ResponseStore(out),
            templates_dir=templates_dir,
            concurrency=cfg.concurrency,
        )
        return {
            "total": len(records),
            "new": result.new_count,
            "skipped_existing": result.skipped_count,
            "failed": len(result.failures),
            "failures": [
                {"abstract_key": f.abstract_key, "reason": f.reason} for f in result.failures
            ],
        }

    manifest = area / f"extract__{_stem(food_name, style)}.manifest.json"
    return _stage("extract", manifest, signature, [out], work)


def stage_link(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> StageResult:
    """Parse responses, gate by food, link to identifiers, aggregate the table."""
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
    signature = {
        "responses_sha256": file_sha256(responses_path),
        # The header pins the body by its sha256; `load` checks the body.
        "index_header_sha256": header_sha256(index_path),
        "index_bytes": index_path.stat().st_size,
        "keywords": sorted(food.keywords),
    }

    def work() -> dict:
        records = {r.record_key: r for r in _read_records(filtered_path)}
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
        _write_json(table_path, {"style": style.value, **vars(table)})
        return {
            "responses": len(responses),
            **status_counts,
            "truncated": truncated,
            "missing_abstract": missing_abstract,
            "resolved": resolved,
            "unresolved": unresolved,
            "dropped_by_gating": dropped_by_gating,
            "table_rows": len(table.rows),
        }

    manifest = _area(cfg, "candidates") / f"link__{stem}.manifest.json"
    return _stage("link", manifest, signature, [candidates_path, table_path], work)


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
    """Emit hazard tables as CSV and JSON reports, one report stage per table."""
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
    results = []
    for table_path in table_paths:
        stem = table_path.stem
        csv_path = reports_area / f"hazards__{stem}.csv"
        json_path = reports_area / f"hazards__{stem}.json"

        def work() -> dict:
            table = _read_table(table_path)
            emit_report(table, "csv", csv_path)
            emit_report(table, "json", json_path)
            return {"rows": len(table.rows)}

        manifest = reports_area / f"report__{stem}.manifest.json"
        signature = {"table_sha256": file_sha256(table_path)}
        results.append(_stage("report", manifest, signature, [csv_path, json_path], work))
    emitted = [p.stem for p in table_paths]
    log.info("report[%s]: emitted %s", food_name, ", ".join(emitted))
    return StageResult(
        "report", skipped=all(r.skipped for r in results), counts={"reports": emitted}
    )


def _tables_for_style(cfg: PipelineConfig, style: PromptStyle) -> list[HazardTable]:
    return [_read_table(p) for p in sorted(_area(cfg, "tables").glob(f"*__{style.value}.json"))]


def _food_order(cfg: PipelineConfig, reports: list[AccuracyReport]) -> list[str]:
    present = {food for report in reports for (food, _) in report.cells}
    ordered = [f for f in cfg.foods if f in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def stage_evaluate(
    cfg: PipelineConfig, gold_path: Path, style: PromptStyle
) -> tuple[StageResult, list[list[str]]]:
    """Score the style's tables against gold; returns the printable grid,
    read back from the accuracy CSV whether the stage ran or was skipped.

    The comparison across styles is rewritten from every style's tables, so
    all of them, the gold file and the food order make up the signature.
    """
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
    signature = {
        "gold_sha256": file_sha256(gold_path),
        "tables": {p.name: file_sha256(p) for p in sorted(tables_area.glob("*.json"))},
        "foods": list(cfg.foods),
    }

    def work() -> dict:
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
        _write_json(json_path, report_to_json_dict(report))
        write_grid_csv(grid_rows([report], _food_order(cfg, [report])), csv_path)

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
        return {
            "foods": len(report.cells),
            "unjudged": sum(len(v) for v in report.unjudged.values()),
        }

    manifest = reports_area / f"evaluate__{style.value}.manifest.json"
    result = _stage("evaluate", manifest, signature, outputs, work)
    with csv_path.open("r", encoding="utf-8", newline="") as fh:
        return result, list(csv.reader(fh))


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
