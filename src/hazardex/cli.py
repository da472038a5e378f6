"""Command-line entry points for the extraction pipeline.

`COMMANDS` is the one table of commands: each row holds a command's name, its
one-line help, its options and its stage call. Global options come before the
command: `hazardex [-c CONFIG] [--workdir DIR] [-v] <command> [options]`.

Exit codes: 0 on success, 1 when a stage finished with partial failures
(e.g. some abstracts got no response), 2 on a usage error, on configuration
or I/O errors and on any other error, which prints one `error:` line rather
than a traceback.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .artifacts import ArtifactFormatError
from .common import (BackendError, GoldFormatError, IndexFormatError, LexiconSourceError,
                     PromptStyle, TemplateError)
from .config import ConfigError, load_config
from .pipeline import (PipelineError, StageResult, run_all, stage_build_lexicon, stage_evaluate,
                       stage_extract, stage_fetch, stage_filter, stage_link, stage_report,
                       workdir_lock)

_HARD_ERRORS = (ConfigError, PipelineError, GoldFormatError, LexiconSourceError, IndexFormatError,
                TemplateError, BackendError, ArtifactFormatError, OSError)

log = logging.getLogger(__name__)

# An option is (flags, add_argument keywords).
_FOOD = (("--food",), {"required": True, "help": "Food of interest."})
_STYLE = (
    ("--style",),
    {"type": PromptStyle, "choices": list(PromptStyle), "default": PromptStyle.STEP_BY_STEP,
     "metavar": "{" + ",".join(s.value for s in PromptStyle) + "}",
     "help": "Prompt style (default: step_by_step)."},
)
_GOLD = (("--gold",), {"type": Path, "metavar": "PATH", "help": "Gold judgments CSV."})

# name, help, options, and the call that runs it on (config, parsed arguments).
# Each call names its stage function at call time, so a stage rebound on this
# module is the one that runs.
COMMANDS = (
    ("fetch", "Download, clean and deduplicate the abstract corpus.", (),
     lambda cfg, a: [stage_fetch(cfg)]),
    ("build-lexicon", "Build the chemical-name surface index from the names dump.", (),
     lambda cfg, a: [stage_build_lexicon(cfg)]),
    ("filter", "Select the abstracts mentioning a configured food.", (_FOOD,),
     lambda cfg, a: [stage_filter(cfg, a.food)]),
    ("extract", "Prompt the model on each filtered abstract, storing raw responses.", (_FOOD, _STYLE),
     lambda cfg, a: [stage_extract(cfg, a.food, a.style)]),
    ("link", "Parse stored responses and link hazard names to identifiers.", (_FOOD, _STYLE),
     lambda cfg, a: [stage_link(cfg, a.food, a.style)]),
    ("report", "Write CSV and JSON hazard reports for every linked table of a food.", (_FOOD,),
     lambda cfg, a: [stage_report(cfg, a.food)]),
    ("evaluate", "Score linked tables against gold judgments and print the accuracy grid.",
     (_GOLD, _STYLE),
     lambda cfg, a: [stage_evaluate(cfg, a.gold or cfg.gold_path, a.style)]),
    ("run-all", "Run fetch, build-lexicon, filter, extract, link, report and evaluate.",
     (_FOOD, _STYLE),
     lambda cfg, a: run_all(cfg, a.food, a.style)),
)


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    # `--help` alone, no `-h`, and no abbreviated long options: the options are
    # the ones the table names.
    parser = argparse.ArgumentParser(
        prog=prog_name,
        description="Mine chemical food-safety hazards from scientific abstracts.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--config", "-c", dest="config_path", type=Path, metavar="PATH",
                        help="YAML config file.")
    parser.add_argument("--workdir", type=Path, metavar="PATH",
                        help="Override the working directory for all artifacts.")
    parser.add_argument("--verbose", "-v", action="store_true", help="Log at DEBUG level.")
    commands = parser.add_subparsers(dest="command", metavar="<command>", required=True)
    for name, summary, options, call in COMMANDS:
        command = commands.add_parser(name, help=summary, description=summary, add_help=False,
                                      allow_abbrev=False)
        command.add_argument("--help", action="help", help="Show this message and exit.")
        for flags, kwargs in options:
            command.add_argument(*flags, **kwargs)
        command.set_defaults(call=call)
    return parser


def main(argv: list[str] | None = None, prog_name: str | None = None) -> None:
    """Parse `argv` (default: the process's arguments) and run its command.
    A usage error exits 2 before anything runs."""
    args = _parser(prog_name).parse_args(argv)
    # Each invocation logs to its own stderr at its own level. The handler
    # sits on the package logger, not the root, whose handlers stay as they
    # are; its level holds even where a module logger is set lower.
    level = logging.DEBUG if args.verbose else logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(level)
    package_log = logging.getLogger("hazardex")
    package_log.handlers = [handler]
    package_log.setLevel(level)
    try:
        _run(args)
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)


def _run(args: argparse.Namespace) -> None:
    """Load the config, run the command's call under the workdir lock and
    print the stage results it returns, grids first; partial failures exit 1.
    Any exception is one `error:` line and exit 2; --verbose logs its
    traceback."""
    try:
        cfg = load_config(args.config_path, workdir=args.workdir)
        with workdir_lock(cfg.workdir):
            results = args.call(cfg, args)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, _HARD_ERRORS):
            log.debug("unexpected failure", exc_info=True)
            message = f"{type(exc).__name__}: {message}"
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)
    for grid in (r.grid for r in results if r.grid):
        widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
        for row in grid:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for result in results:
        print(_describe(result))
    if any(r.failures for r in results):
        raise SystemExit(1)


def _describe(result: StageResult) -> str:
    if result.skipped:
        return f"{result.stage}: up to date"
    scalars = {k: v for k, v in result.counts.items() if not isinstance(v, (list, dict))}
    body = " ".join(f"{k}={v}" for k, v in scalars.items()) or "done"
    return f"{result.stage}: {body} in {result.duration_s:.2f} s"


if __name__ == "__main__":
    main()
