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
from .common import (
    BackendError,
    GoldFormatError,
    IndexFormatError,
    LexiconSourceError,
    PromptStyle,
    TemplateError,
)
from .config import ConfigError, load_config
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

_food_option = click.option("--food", required=True, help="Food of interest.")
_style_option = click.option(
    "--style",
    type=click.Choice([s.value for s in PromptStyle]),
    default=PromptStyle.STEP_BY_STEP.value,
    callback=lambda ctx, param, value: PromptStyle(value),
)


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
    """Load the config, run `body(cfg)` under the workdir lock and print the
    stage results it returns, grids first; partial failures exit 1. Any
    exception is one `error:` line and exit 2; --verbose logs its traceback."""
    opts = ctx.obj
    try:
        cfg = load_config(opts["config_path"], workdir=opts["workdir"])
        with workdir_lock(cfg.workdir):
            results = body(cfg)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, _HARD_ERRORS):
            log.debug("unexpected failure", exc_info=True)
            message = f"{type(exc).__name__}: {message}"
        click.echo(f"error: {message}", err=True)
        raise SystemExit(2)
    for grid in (r.grid for r in results if r.grid):
        widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
        for row in grid:
            click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for result in results:
        click.echo(_describe(result))
    if any(r.failures for r in results):
        raise SystemExit(1)


def _describe(result: StageResult) -> str:
    if result.skipped:
        return f"{result.stage}: up to date"
    scalars = {k: v for k, v in result.counts.items() if not isinstance(v, (list, dict))}
    body = " ".join(f"{k}={v}" for k, v in scalars.items()) or "done"
    return f"{result.stage}: {body} in {result.duration_s:.2f} s"


@main.command()
@click.pass_context
def fetch(ctx: click.Context) -> None:
    """Download, clean and deduplicate the abstract corpus."""
    _run(ctx, lambda cfg: [stage_fetch(cfg)])


@main.command("build-lexicon")
@click.pass_context
def build_lexicon(ctx: click.Context) -> None:
    """Build the chemical-name surface index from the names dump."""
    _run(ctx, lambda cfg: [stage_build_lexicon(cfg)])


@main.command("filter")
@_food_option
@click.pass_context
def filter_cmd(ctx: click.Context, food: str) -> None:
    """Select the abstracts mentioning a configured food."""
    _run(ctx, lambda cfg: [stage_filter(cfg, food)])


@main.command()
@_food_option
@_style_option
@click.pass_context
def extract(ctx: click.Context, food: str, style: PromptStyle) -> None:
    """Prompt the model on each filtered abstract, storing raw responses."""
    _run(ctx, lambda cfg: [stage_extract(cfg, food, style)])


@main.command()
@_food_option
@_style_option
@click.pass_context
def link(ctx: click.Context, food: str, style: PromptStyle) -> None:
    """Parse stored responses and link hazard names to identifiers."""
    _run(ctx, lambda cfg: [stage_link(cfg, food, style)])


@main.command()
@_food_option
@click.pass_context
def report(ctx: click.Context, food: str) -> None:
    """Write CSV and JSON hazard reports for every linked table of a food."""
    _run(ctx, lambda cfg: [stage_report(cfg, food)])


@main.command()
@click.option("--gold", type=click.Path(path_type=Path), default=None, help="Gold judgments CSV.")
@_style_option
@click.pass_context
def evaluate(ctx: click.Context, gold: Path | None, style: PromptStyle) -> None:
    """Score linked tables against gold judgments and print the accuracy grid."""
    _run(ctx, lambda cfg: [stage_evaluate(cfg, gold or cfg.gold_path, style)])


@main.command("run-all")
@_food_option
@_style_option
@click.pass_context
def run_all_cmd(ctx: click.Context, food: str, style: PromptStyle) -> None:
    """Run fetch, build-lexicon, filter, extract, link, report and evaluate."""
    _run(ctx, lambda cfg: run_all(cfg, food, style))


if __name__ == "__main__":
    main()
