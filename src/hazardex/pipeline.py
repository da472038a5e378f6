"""Staged pipeline over a workdir: fetch, lexicon, filter, extract, link, report, evaluate.

Every stage runs through `_stage`, given the files it reads. It refuses a
stage whose input is missing before hashing or writing anything, naming the
command that makes the input or the config key that names it. Otherwise it
digests every input itself, so no stage reads a file its signature leaves
out, and writes the stage's outputs, making their directories, plus a
manifest recording those digests with what else the stage reads, the
sha256 of its outputs, its counts and its timing; rerunning a stage whose
inputs are unchanged, whose outputs keep those digests and whose counts
record no failures is a no-op. Fetching additionally keeps its own cursor
state so an interrupted crawl resumes instead of refetching, and extraction
skips every (abstract, style) pair the response store already holds. All data goes to files under the workdir, written through
`artifacts`; a `.lock` file keeps concurrent runs off the same workdir.

Each CLI command runs one stage in a fresh interpreter, so this module loads
no stage module when imported: a stage imports the modules it uses when it
runs, and a module that only its `work()` uses inside `work()`, so a stage
found up to date loads only what its signature reads. The stage functions that
`perfbench/spans.py` times by rebinding them in this module's namespace
(`build_index`, `link_candidate`, …) stay module-level names, bound to
stand-ins by `_on_first_call`: a local import would bypass the timing
wrapper. Once the benchmark wraps them in their defining modules instead,
the stand-ins can become local imports.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import json
import logging
import os
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from .artifacts import ArtifactFormatError, file_sha256, json_line, read_jsonl, write_jsonl
from .artifacts import write_json as _write_json
# `perfbench/spans.py` times the candidates write under this name.
from .artifacts import write_jsonl as write_candidates_jsonl
from .common import PromptStyle
from .config import PipelineConfig
from .corpus import (
    AbstractRecord,
    RawRecord,
    Rejection,
    build_search_query,
    clean_record,
    dedupe,
    filter_by_food,
    food_pattern,
)

if TYPE_CHECKING:
    from .evaluation import AccuracyReport
    from .linker import HazardTable


def _on_first_call(module: str, name: str):
    """A stand-in for `module.name` that imports the module on its first
    call, looks the function up once and forwards every call to it. It never
    rebinds its own global, so a wrapper put over it stays in place."""
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module, __package__), name)
        return target(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


parse_chebi_source = _on_first_call(".lexicon", "parse_chebi_source")
build_index = _on_first_call(".lexicon", "build_index")
run_extraction = _on_first_call(".prompting", "run_extraction")
extract_mapping = _on_first_call(".response_parser", "extract_mapping")
gate_by_food = _on_first_call(".response_parser", "gate_by_food")
link_candidate = _on_first_call(".linker", "link_candidate")
aggregate = _on_first_call(".linker", "aggregate")
emit_report = _on_first_call(".linker", "emit_report")
load_gold = _on_first_call(".evaluation", "load_gold")
score = _on_first_call(".evaluation", "score")
compare_prompts = _on_first_call(".evaluation", "compare_prompts")

log = logging.getLogger(__name__)


class PipelineError(Exception):
    """A stage cannot run: missing input, bad artifact, or transport gave up."""


@dataclass
class StageResult:
    stage: str
    skipped: bool
    counts: dict = field(default_factory=dict)
    # `evaluate`'s accuracy grid, header row first, for the CLI to print.
    grid: list[list[str]] | None = None
    # The seconds its work took, as its manifest records (report: the sum of
    # its tables' manifests); read only when the stage was not skipped.
    duration_s: float | None = None

    @property
    def failures(self) -> int:
        return self.counts.get("failed", 0)


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


def _output_sha256(outputs) -> dict[str, str | None]:
    return {p.name: file_sha256(p) if p.exists() else None for p in map(Path, outputs)}


def _fresh(manifest_path: Path, signature, outputs) -> dict | None:
    """Previous counts when the manifest matches the inputs, records no
    failures, and every output still has the sha256 the manifest recorded."""
    try:
        manifest = _read_json(manifest_path)
    except (OSError, json.JSONDecodeError):
        return None
    counts = manifest.get("counts", {})
    if manifest.get("input_hashes") != _canon(signature) or counts.get("failed"):
        return None
    digests = _output_sha256(outputs)
    if None in digests.values() or manifest.get("output_sha256") != digests:
        return None
    return counts


def _peak_rss_mb() -> float:
    """The high-water mark so far of this process's resident memory, in MB.
    Under `run-all` it may be an earlier stage's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kib * 1024 / 1e6, 1)  # Linux counts `ru_maxrss` in KiB


def _found(path: Path | None, remedy: str) -> list[Path]:
    """The files an input names, or a refusal: a `*` in the name needs one
    match, and None is a path the config lacks."""
    if path is None:
        raise PipelineError(f"no path configured; {remedy}")
    path = Path(path)
    if "*" in path.name:
        found = sorted(path.parent.glob(path.name))
    else:
        found = [path] if path.exists() else []
    if not found:
        raise PipelineError(f"{path} not found; {remedy}")
    return found


def _stage(name: str, manifest: Path, inputs, fields, outputs: list[Path], work) -> StageResult:
    """Find every input, then sign them: the signature is `fields()`, what
    the stage reads besides its input files, plus under "inputs" one
    {file name: digest} per input in declared order, a `*` input match by
    match. An input is (path, remedy) or (path, remedy, digest); the digest
    defaults to `file_sha256`. Skip the stage when `_fresh` says so;
    otherwise make the output directories, and `work()` writes the outputs
    and returns the counts, which the manifest records with the signature,
    the output digests and when the work started and finished. The count
    "failed" is the result's number of partial failures."""
    found = [(_found(path, remedy), digest[0] if digest else file_sha256)
             for path, remedy, *digest in inputs]
    sig = {**fields(), "inputs": [{p.name: digest(p) for p in paths} for paths, digest in found]}
    started, clock = _now(), time.perf_counter()
    label = manifest.name.removesuffix(".manifest.json")
    previous = _fresh(manifest, sig, outputs)
    if previous is not None:
        log.info("%s: inputs unchanged, keeping %s", label, ", ".join(p.name for p in outputs))
        return StageResult(name, skipped=True, counts=previous)
    for directory in {p.parent for p in (manifest, *outputs)}:
        directory.mkdir(parents=True, exist_ok=True)
    counts = work()
    duration_s = round(time.perf_counter() - clock, 3)
    _write_json(
        manifest,
        {
            "stage": name,
            "input_hashes": _canon(sig),
            "output_sha256": _output_sha256(outputs),
            "started_at": started,
            "finished_at": _now(),
            "duration_s": duration_s,
            "peak_rss_mb": _peak_rss_mb(),
            "counts": _canon(counts),
        },
    )
    log.info("%s: %s", label, {k: v for k, v in counts.items() if not isinstance(v, list)})
    return StageResult(name, skipped=False, counts=counts, duration_s=duration_s)


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


_FILTERED_REMEDY = "delete it and rerun filter"


def _read_records(path: Path, remedy: str) -> list[AbstractRecord]:
    return read_jsonl(path, lambda obj: AbstractRecord(**obj), "an abstract record", remedy)


def _corpus_remedy(cfg: PipelineConfig) -> str:
    """What to do about an unreadable `abstracts.jsonl`. Only a fetch from an
    endpoint writes it; without one it is the user's corpus to mend."""
    return "delete it and rerun fetch" if cfg.api_endpoint else "replace it, or set api.endpoint"


def _read_table(path: Path) -> HazardTable:
    from .linker import HazardTable, LinkedHazard

    try:
        obj = _read_json(path)
        rows = tuple(
            LinkedHazard(**{**row, "supporting_dois": tuple(row["supporting_dois"])})
            for row in obj["rows"]
        )
        return HazardTable(food=obj["food"], rows=rows)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactFormatError(
            f"{path}: not a hazard table ({exc!r}); delete it and rerun link"
        ) from exc


def _stem(food_name: str, style: PromptStyle) -> str:
    return f"{food_name}__{style.value}"


def stage_fetch(cfg: PipelineConfig) -> StageResult:
    """Fetch, clean and dedupe the corpus into abstracts/abstracts.jsonl."""
    area = cfg.workdir / "abstracts"
    out = area / "abstracts.jsonl"
    query = build_search_query(cfg.cutoff_date)
    fields = {
        "query_sha256": _hash_text(query.rendered),
        "endpoint": cfg.api_endpoint or "",
        "page_size": cfg.page_size,
    }

    # Without an endpoint the stage adopts, and signs, the corpus already in place.
    inputs = [] if cfg.api_endpoint else [(out, "set api.endpoint")]

    def work() -> dict:
        if not cfg.api_endpoint:
            log.info("fetch: no endpoint configured, adopting existing %s", out)
            return {"kept": len(_read_records(out, _corpus_remedy(cfg))), "adopted": True}
        from .epmc import FIRST_CURSOR, DecodeError, EuropePmcClient, FetchError

        raw_path = area / "raw_records.jsonl"
        state_path = area / "fetch_state.json"
        state_sig = _hash_obj(fields)
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

    return _stage("fetch", area / "fetch.manifest.json", inputs, lambda: fields, [out], work)


def stage_build_lexicon(cfg: PipelineConfig) -> StageResult:
    """Parse the names dump and serialize the surface index."""
    from .lexicon import DEFAULT_STOPLIST, INDEX_VERSION, ParseStats, load_stoplist

    area = cfg.workdir / "lexicon"
    out = area / "index.jsonl"
    report_path = area / "build_report.json"
    stoplist_path = cfg.stoplist_path or DEFAULT_STOPLIST
    # The dump's digest is also the index's `source_sha256`: the dump is hashed once.
    dump_sha256 = functools.cache(file_sha256)
    inputs = [
        (cfg.chebi_dump, "set lexicon.chebi_dump", dump_sha256),
        (stoplist_path, "set lexicon.stoplist"),
    ]

    def work() -> dict:
        stats = ParseStats()
        index = build_index(
            parse_chebi_source(cfg.chebi_dump, stats),
            load_stoplist(stoplist_path),
            source_checksum=dump_sha256(cfg.chebi_dump),
            parse_stats=stats,
        )
        index.save(out)
        _write_json(report_path, index.stats)
        return vars(index.stats)

    manifest = area / "build.manifest.json"
    fields = {"index_version": INDEX_VERSION}
    return _stage("build-lexicon", manifest, inputs, lambda: fields, [out, report_path], work)


def stage_filter(cfg: PipelineConfig, food_name: str) -> StageResult:
    """Write the per-food slice of the corpus."""
    food = cfg.food(food_name)
    area = cfg.workdir / "abstracts"
    src = area / "abstracts.jsonl"
    out = area / f"filtered__{food_name}.jsonl"

    def work() -> dict:
        records = _read_records(src, _corpus_remedy(cfg))
        kept = list(filter_by_food(records, food))
        write_jsonl(out, kept)
        return {"input": len(records), "matched": len(kept)}

    def fields() -> dict:
        return {"food_pattern": food_pattern(food).pattern}

    manifest = area / f"filter__{food_name}.manifest.json"
    return _stage("filter", manifest, [(src, "run fetch first")], fields, [out], work)


def _make_backend(cfg: PipelineConfig):
    from .prompting import HttpBackend, MockBackend

    if cfg.backend_kind == "mock":
        return MockBackend(cfg.fixtures_dir)
    return HttpBackend(cfg.backend_url, cfg.backend_model, use_messages=cfg.use_messages)


def stage_extract(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> StageResult:
    """Prompt the backend for every filtered abstract not yet answered."""
    from .prompting import DecodingParams, ResponseStore, load_template

    src = cfg.workdir / "abstracts" / f"filtered__{food_name}.jsonl"
    area = cfg.workdir / "responses"
    out = area / f"{_stem(food_name, style)}.jsonl"
    templates_dir = str(cfg.templates_dir) if cfg.templates_dir else None
    inputs = [(src, "run filter first")]
    if cfg.backend_kind == "mock":
        # A directory of answers, signed by its path.
        inputs.append((cfg.fixtures_dir, "set backend.fixtures_dir", str))
    elif not cfg.backend_url:
        # A URL is no path for `_found`; refused here, before `_stage` makes directories.
        raise PipelineError("no url configured; set backend.url")

    def fields() -> dict:
        return {
            "style": style.value,
            "template_sha256": _hash_text(load_template(style, templates_dir)),
            "backend": {
                "kind": cfg.backend_kind,
                "url": cfg.backend_url or "",
                "model": cfg.backend_model,
            },
            "decoding": {
                "max_new_tokens": cfg.max_new_tokens,
                "repetition_penalty": cfg.repetition_penalty,
            },
        }

    def work() -> dict:
        records = _read_records(src, _FILTERED_REMEDY)
        # The store exists even when no prompt was answered, so `link` runs on
        # an empty corpus as on any other.
        out.touch()
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
    return _stage("extract", manifest, inputs, fields, [out], work)


def stage_link(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> StageResult:
    """Parse responses, gate by food, link to identifiers, aggregate the table."""
    from .lexicon import LexiconIndex, header_sha256

    food = cfg.food(food_name)
    stem = _stem(food_name, style)
    responses_path = cfg.workdir / "responses" / f"{stem}.jsonl"
    filtered_path = cfg.workdir / "abstracts" / f"filtered__{food_name}.jsonl"
    index_path = cfg.workdir / "lexicon" / "index.jsonl"
    candidates_path = cfg.workdir / "candidates" / f"{stem}.jsonl"
    table_path = cfg.workdir / "tables" / f"{stem}.json"
    inputs = [
        (responses_path, "run extract first"),
        (filtered_path, "run filter first"),
        # The header pins the body by its sha256; `load` checks the body.
        (index_path, "run build-lexicon first", lambda p: [header_sha256(p), p.stat().st_size]),
    ]

    def fields() -> dict:
        return {"food_pattern": food_pattern(food).pattern}

    def work() -> dict:
        from .prompting import ResponseStore
        from .response_parser import RECOVERED, UNPARSEABLE, WELL_FORMED

        records = {r.record_key: r for r in _read_records(filtered_path, _FILTERED_REMEDY)}
        responses = ResponseStore(responses_path).load()
        index = LexiconIndex.load(index_path)
        status_counts = {WELL_FORMED: 0, RECOVERED: 0, UNPARSEABLE: 0}
        candidates = []
        mentions: list[tuple[str, AbstractRecord]] = []
        dropped_by_gating = missing_abstract = truncated = resolved = unresolved = 0
        for response in responses:
            # The store keeps answers for abstracts that have left the corpus
            # since; they are counted, and linked as a fresh run would: not at all.
            record = records.get(response.abstract_key)
            if record is None:
                missing_abstract += 1
                log.warning("link[%s]: response for unknown abstract %s", stem, response.abstract_key)
                continue
            if response.truncated:
                truncated += 1
            candidate = extract_mapping(response)
            candidates.append(candidate)
            status_counts[candidate.parse_status] += 1
            gated = gate_by_food(candidate, food)
            dropped_by_gating += len(candidate.food_terms) - len(gated.food_terms)
            outcome = link_candidate(gated, record, index)
            unresolved += len(outcome.unresolved)
            resolved += len(outcome.pairs)
            mentions.extend((chebi_id, record) for _, chebi_id in outcome.pairs)
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

    manifest = candidates_path.with_name(f"link__{stem}.manifest.json")
    return _stage("link", manifest, inputs, fields, [candidates_path, table_path], work)


def stage_report(cfg: PipelineConfig, food_name: str) -> StageResult:
    """Emit every linked table of the food as CSV and JSON reports, one
    report stage per table; the tables that did not change are skipped."""
    tables = cfg.workdir / "tables" / f"{food_name}__*.json"
    table_paths = _found(tables, "run link first")
    reports_area = cfg.workdir / "reports"
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
        outputs = [csv_path, json_path]
        inputs = [(table_path, "run link first")]
        results.append(_stage("report", manifest, inputs, lambda: {}, outputs, work))
    emitted = [p.stem for p in table_paths]
    log.info("report[%s]: emitted %s", food_name, ", ".join(emitted))
    done = [r.duration_s for r in results if not r.skipped]
    return StageResult(
        "report", skipped=not done, counts={"reports": emitted}, duration_s=sum(done)
    )


def _food_order(cfg: PipelineConfig, reports: list[AccuracyReport]) -> list[str]:
    present = {food for report in reports for (food, _) in report.cells}
    ordered = [f for f in cfg.foods if f in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def stage_evaluate(cfg: PipelineConfig, gold_path: Path | None, style: PromptStyle) -> StageResult:
    """Score every style's tables against gold, each style once; the result
    carries the printable grid of `style`, read back from its accuracy CSV
    whether the stage ran or was skipped.

    The comparison across styles is rewritten from the same reports, so the
    gold file, every style's tables and the food order make up the signature.
    """
    tables_area = cfg.workdir / "tables"
    styles_present = [s for s in PromptStyle if any(tables_area.glob(f"*__{s.value}.json"))]
    reports_area = cfg.workdir / "reports"
    json_path = reports_area / f"accuracy__{style.value}.json"
    csv_path = reports_area / f"accuracy__{style.value}.csv"
    outputs = [json_path, csv_path]
    if len(styles_present) > 1:
        outputs += [reports_area / "comparison.csv", reports_area / "comparison.json"]
    inputs = [(gold_path, "pass --gold or set evaluation.gold")]
    inputs += [(tables_area / f"*__{s.value}.json", "run link first")
               for s in PromptStyle if s in styles_present or s == style]

    def work() -> dict:
        from .evaluation import grid_rows, report_to_json_dict, select_prompt, write_grid_csv

        gold = load_gold(gold_path)
        reports = {}
        for s in styles_present:
            tables = [_read_table(p) for p in sorted(tables_area.glob(f"*__{s.value}.json"))]
            reports[s.value] = score(tables, gold, s.value)
        report = reports[style.value]
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
        # comparison picking the best style, pooled over every cell and, as
        # the paper picks its prompt, over the foods every style has.
        if len(reports) > 1:
            comparison = compare_prompts(reports)
            ordered = list(reports.values())
            write_grid_csv(grid_rows(ordered, _food_order(cfg, ordered)), reports_area / "comparison.csv")
            _write_json(
                reports_area / "comparison.json",
                {
                    "best": list(comparison.best),
                    "styles": {
                        name: {"correct": s.correct, "total": s.total, "ratio": s.ratio}
                        for name, s in comparison.summaries.items()
                    },
                    **select_prompt(reports),
                },
            )
        return {
            "foods": len(report.cells),
            "unjudged": sum(len(v) for v in report.unjudged.values()),
        }

    manifest = reports_area / f"evaluate__{style.value}.manifest.json"
    result = _stage("evaluate", manifest, inputs, lambda: {"foods": list(cfg.foods)}, outputs, work)
    with csv_path.open("r", encoding="utf-8", newline="") as fh:
        result.grid = list(csv.reader(fh))
    return result


def run_all(cfg: PipelineConfig, food_name: str, style: PromptStyle) -> list[StageResult]:
    """Run every stage for one food and style, reporting every linked table of
    the food; evaluation only with gold configured."""
    results = [
        stage_fetch(cfg),
        stage_build_lexicon(cfg),
        stage_filter(cfg, food_name),
        stage_extract(cfg, food_name, style),
        stage_link(cfg, food_name, style),
        stage_report(cfg, food_name),
    ]
    if cfg.gold_path is not None:
        results.append(stage_evaluate(cfg, cfg.gold_path, style))
    return results
