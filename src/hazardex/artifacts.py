"""How artifacts sit on disk: the one place that writes and reads them.

Whole files (JSON, JSONL, CSV, the lexicon index) are written to a temp file
beside their path and renamed over it, so a crash leaves the previous file or
the new one, never a torn one. The two append-only JSONL files, the fetch
cache and the response store, grow by whole lines instead: a last line
without its newline is an append that did not finish, which `complete_lines`
leaves out and `cut_torn_tail` cuts before the next append.

A dataclass is written as its field dict, keys sorted, so its reader rebuilds
it as `Cls(**obj)`. JSON writes a tuple as a list and a `str` enum as its
value; the reader converts those fields back. The writers pass `vars` as
`json`'s `default`, so a record and the records nested in it are encoded in
place; `dataclasses.asdict` deep-copies every field first, which made
`extract`, `link` and `report` measurably slower.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")


class ArtifactFormatError(Exception):
    """A JSONL artifact holds a line that is not the record it should be."""


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """A file opened on a temp file beside `path` and renamed over `path` once
    the block ends; if the block raises, the temp file goes and `path` stays
    as it was. Text mode is UTF-8 with "\\n" line endings."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {"encoding": "utf-8", "newline": "\n"} if "b" not in mode else {}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, obj) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2, default=vars)
        fh.write("\n")


def json_line(record) -> str:
    """A dataclass record as one JSONL line, newline included."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True, default=vars) + "\n"


def write_jsonl(path: str | Path, records: Iterable) -> None:
    with atomic_open(path) as fh:
        fh.writelines(map(json_line, records))


def complete_lines(path: Path) -> list[tuple[int, bytes]]:
    """The numbered, non-blank lines of an append-only JSONL file.

    A last line without its newline is an append that did not finish: it is
    left out with a warning, and `cut_torn_tail` removes it before the next
    append.
    """
    lines = path.read_bytes().split(b"\n")
    if lines[-1]:
        log.warning("%s: ignoring a torn last line of %d bytes", path, len(lines[-1]))
    return [(line_no, line) for line_no, line in enumerate(lines[:-1], start=1) if line.strip()]


def cut_torn_tail(fh, path: Path) -> None:
    """Cut a last line without its newline from `fh`, a binary file opened
    for reading and writing, so the next append starts on a line of its own."""
    end = fh.seek(0, os.SEEK_END)
    if end:
        fh.seek(end - 1)
        if fh.read(1) != b"\n":
            fh.seek(0)
            keep = fh.read().rfind(b"\n") + 1
            log.warning("%s: cutting a torn last line of %d bytes", path, end - keep)
            fh.truncate(keep)


def read_jsonl(
    path: Path, make: Callable[[dict], T], what: str, remedy: str, *, append_only: bool = False
) -> list[T]:
    """`make(obj)` for every line of `path`. An append-only file leaves out a
    torn last line; a file written whole has none, so its last line counts
    with or without a newline. A line that does not read is an
    `ArtifactFormatError` naming the file, the line and `remedy`."""
    if append_only:
        lines = complete_lines(path)
    else:
        lines = enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
    records = []
    for line_no, line in lines:
        if not line.strip():
            continue
        try:
            records.append(make(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ArtifactFormatError(
                f"{path}: line {line_no} is not {what} ({exc!r}); {remedy}"
            ) from exc
    return records


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
