"""Command-line entry points for the extraction pipeline.

Exit codes: 0 on success, 1 when a stage finished with partial failures
(e.g. some abstracts got no response), 2 on configuration or I/O errors and
on any other error, which prints one `error:` line rather than a traceback.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .artifacts import ArtifactFormatError
from .config import ConfigError, load_config
from .evaluation import GoldFormatError
from .lexicon import IndexFormatError, LexiconSourceError
from .pipeline import (
    PipelineError,
    StageResult,
    run_all,
    stage_build_lexicon,
    stage_evaluate,
    stage_extract,
    stage_fetch,
    stage_filter,
    stage_link,
    stage_report,
    workdir_lock,
)
from .prompting import BackendError, PromptStyle, TemplateError

_HARD_ERRORS = (
    ConfigError,
    PipelineError,
    GoldFormatError,
    LexiconSourceError,
    IndexFormatError,
    TemplateError,
    BackendError,
    ArtifactFormatError,
    OSError,
)

log = logging.getLogger(__name__)

_STYLE_CHOICE = click.Choice([s.value for s in PromptStyle])


@click.group()
@click.option(
    "--config",
    "-c",
    "config_path",
    type=click.Path(path_type=Path),
    default=None,
    help="YAML config file.",
)
@click.option(
    "--workdir",
    type=click.Path(path_type=Path),
    default=None,
    help="Override the working directory for all artifacts.",
)
@click.option("--verbose", "-v", is_flag=True, help="Log at DEBUG level.")
@click.pass_context
def main(ctx: click.Context, config_path: Path | None, workdir: Path | None, verbose: bool) -> None:
    """Mine chemical food-safety hazards from scientific abstracts."""
    # Each invocation logs to its own stderr at its own level. The handler
    # sits on the package logger, not the root, whose handlers stay as they
    # are; its level holds even where a module logger is set lower.
    level = logging.DEBUG if verbose else logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(level)
    package_log = logging.getLogger("hazardex")
    package_log.handlers = [handler]
    package_log.setLevel(level)

    def restore() -> None:
        package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)

    ctx.call_on_close(restore)
    ctx.obj = {"config_path": config_path, "workdir": workdir}


def _run(ctx: click.Context, body) -> None:
    """Load the config, run `body(cfg)` under the workdir lock and print what
    it returns: a list of stage results and an optional accuracy grid. Any
    exception is one `error:` line and exit 2; --verbose logs its traceback."""
    opts = ctx.obj
    try:
        cfg = load_config(opts["config_path"], workdir=opts["workdir"])
        with workdir_lock(cfg.workdir):
            results, rows = body(cfg)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, _HARD_ERRORS):
            log.debug("unexpected failure", exc_info=True)
            message = f"{type(exc).__name__}: {message}"
        click.echo(f"error: {message}", err=True)
        raise SystemExit(2)
    if rows is not None:
        _print_grid(rows)
    _finish(results)


def _describe(result: StageResult) -> str:
    if result.skipped:
        return f"{result.stage}: up to date"
    scalars = {k: v for k, v in result.counts.items() if not isinstance(v, (list, dict))}
    body = " ".join(f"{k}={v}" for k, v in scalars.items())
    return f"{result.stage}: {body}" if body else f"{result.stage}: done"


def _finish(results: list[StageResult]) -> None:
    for result in results:
        click.echo(_describe(result))
    if any(r.failures for r in results):
        raise SystemExit(1)


def _print_grid(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


@main.command()
@click.pass_context
def fetch(ctx: click.Context) -> None:
    """Download, clean and deduplicate the abstract corpus."""
    _run(ctx, lambda cfg: ([stage_fetch(cfg)], None))


@main.command("build-lexicon")
@click.pass_context
def build_lexicon(ctx: click.Context) -> None:
    """Build the chemical-name surface index from the names dump."""
    _run(ctx, lambda cfg: ([stage_build_lexicon(cfg)], None))


@main.command("filter")
@click.option("--food", required=True, help="Food of interest, e.g. leafy_greens.")
@click.pass_context
def filter_cmd(ctx: click.Context, food: str) -> None:
    """Select the abstracts mentioning a configured food."""
    _run(ctx, lambda cfg: ([stage_filter(cfg, food)], None))


@main.command()
@click.option("--food", required=True, help="Food of interest.")
@click.option("--style", type=_STYLE_CHOICE, default=PromptStyle.STEP_BY_STEP.value)
@click.pass_context
def extract(ctx: click.Context, food: str, style: str) -> None:
    """Prompt the model on each filtered abstract, storing raw responses."""
    _run(ctx, lambda cfg: ([stage_extract(cfg, food, PromptStyle(style))], None))


@main.command()
@click.option("--food", required=True, help="Food of interest.")
@click.option("--style", type=_STYLE_CHOICE, default=PromptStyle.STEP_BY_STEP.value)
@click.pass_context
def link(ctx: click.Context, food: str, style: str) -> None:
    """Parse stored responses and link hazard names to identifiers."""
    _run(ctx, lambda cfg: ([stage_link(cfg, food, PromptStyle(style))], None))


@main.command()
@click.option("--food", required=True, help="Food of interest.")
@click.pass_context
def report(ctx: click.Context, food: str) -> None:
    """Write CSV and JSON hazard reports for every linked table of a food."""
    _run(ctx, lambda cfg: ([stage_report(cfg, food)], None))


@main.command()
@click.option("--gold", type=click.Path(path_type=Path), default=None, help="Gold judgments CSV.")
@click.option("--style", type=_STYLE_CHOICE, default=PromptStyle.STEP_BY_STEP.value)
@click.pass_context
def evaluate(ctx: click.Context, gold: Path | None, style: str) -> None:
    """Score linked tables against gold judgments and print the accuracy grid."""

    def body(cfg):
        gold_path = gold if gold is not None else cfg.gold_path
        if gold_path is None:
            raise PipelineError("no gold file: pass --gold or set evaluation.gold in the config")
        result, rows = stage_evaluate(cfg, gold_path, PromptStyle(style))
        return [result], rows

    _run(ctx, body)


@main.command("run-all")
@click.option("--food", required=True, help="Food of interest.")
@click.option("--style", type=_STYLE_CHOICE, default=PromptStyle.STEP_BY_STEP.value)
@click.pass_context
def run_all_cmd(ctx: click.Context, food: str, style: str) -> None:
    """Run fetch, build-lexicon, filter, extract, link, report and evaluate."""
    _run(ctx, lambda cfg: run_all(cfg, food, PromptStyle(style)))


if __name__ == "__main__":
    main()
