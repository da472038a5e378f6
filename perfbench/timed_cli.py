"""Run the hazardex CLI and record how long its stage functions took.

Usage: python3 perfbench/timed_cli.py <hazardex CLI arguments>

The file named by PERFBENCH_STAGE_TIMES receives a JSON object mapping each
stage the command ran to its wall time in seconds. The traced benchmark run
uses it to split a command's wall time into stage time and start-up
overhead, and as the untraced stage times the traced ones are compared with
for tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time

from spans import STAGES

from hazardex import cli


def _timed(name, fn, spent):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - start

    return wrapper


def main() -> None:
    spent: dict[str, float] = {}
    for stage in STAGES:
        name = f"stage_{stage}"
        setattr(cli, name, _timed(stage, getattr(cli, name), spent))
    try:
        cli.main(sys.argv[1:], prog_name="hazardex")
    finally:
        with open(os.environ["PERFBENCH_STAGE_TIMES"], "w", encoding="utf-8") as fh:
            json.dump(spent, fh)


if __name__ == "__main__":
    main()
