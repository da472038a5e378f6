"""ChEBI-backed chemical gazetteer: parse a names dump, expand writing variants,
index every surface form to its identifier.

Surface expansion is rule-driven and deterministic. A name containing one
number next to a word ("polonium-210", "aflatoxin b1") appears in text under
several conventions: separator swapped between hyphen/space/nothing, and the
number written on the other side of the word ("210-polonium"). Names are also
pluralized with plain English rules. The index maps every generated surface
back to one identifier, resolving cross-entry collisions deterministically.

The saved index (format version 2) is UTF-8 JSON Lines: a header object with
the format marker, version, dump checksum and build counts, then one array per
identifier in ChEBI numeric order, `[chebi_id, preferred_name, [surfaces]]`,
its surfaces sorted. The file is replaced atomically on save.

`LexiconIndex.load(path, wanted=...)` reads only what a caller will look up.
A row without a backslash holds no escaped quote, so its surfaces are the
pieces between `",["` and `"]]`, split on `","`; only rows sharing a piece
with `wanted` are parsed as JSON, and rows with a backslash always are. Such
an index knows only the identifiers that own a wanted surface and cannot be
saved; when a lookup's raw string misses, the raw and normalized forms that
lie outside `wanted` go to `unplanned`, for the caller to load again. Both
loads check the header, the identifier and surface counts and every row, so
a torn or cut file is an `IndexFormatError` either way.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import json
import logging
import os
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

log = logging.getLogger(__name__)

INDEX_FORMAT = "hazardex-lexicon"
INDEX_VERSION = 2
_REBUILD = "rerun build-lexicon"

_WS_RE = re.compile(r"\s+")

# Variant generation sees letter runs `[^\W\d_]+` and digit runs `\d+`. A slot
# is a variable separator position between a letter run and a digit run: a
# lone space or hyphen between them, or the empty gap where the two touch.
_DIGITS_RE = re.compile(r"\d+")
_SLOT_RE = re.compile(r"((?<=[^\W\d_])[ \-]?(?=\d)|(?<=\d)[ \-]?(?=[^\W\d_]))")
# The word beside the digit run, left side preferred, joined by at most a slot.
# The lookbehind starts a match only at a word's first letter, so a search does
# not retry (and backtrack) from every letter of every word.
_WORD_DIGITS_RE = re.compile(r"(?<![^\W\d_])([^\W\d_]+)[ \-]?(\d+)")
_DIGITS_WORD_RE = re.compile(r"(\d+)[ \-]?([^\W\d_]+)")

_SEPARATOR_CHOICES = ("-", " ", "")
_SWAP_MAX_TOKENS = 4

_VOWELS = frozenset("aeiou")
_ES_SUFFIXES = ("s", "x", "z", "ch", "sh")


class LexiconSourceError(Exception):
    """The names dump cannot be read in the expected tab-separated layout."""


class IndexFormatError(Exception):
    """An index artifact is malformed, truncated, or of another format or version."""


def is_chebi_id(value: str) -> bool:
    # `isdecimal` is the regex `\d`: any Unicode decimal digit, which `int` reads.
    return value.startswith("CHEBI:") and value[6:].isdecimal()


def chebi_numeric(chebi_id: str) -> int:
    if not is_chebi_id(chebi_id):
        raise ValueError(f"not a ChEBI identifier: {chebi_id!r}")
    return int(chebi_id[6:])


def normalize(surface: str) -> str:
    """Casefold, apply NFKC, collapse whitespace; hyphens survive untouched."""
    text = unicodedata.normalize("NFKC", surface).casefold()
    return _WS_RE.sub(" ", text).strip()


def load_stoplist(source: str | Path | TextIO) -> frozenset[str]:
    """Read one normalized entry per line; blank lines and '#' comments skipped."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    entries = set()
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            entries.add(normalize(line))
    return frozenset(entries)


def default_stoplist() -> frozenset[str]:
    from importlib.resources import files

    text = files("hazardex").joinpath("data/stoplist.txt").read_text(encoding="utf-8")
    return load_stoplist(io.StringIO(text))


def _assignments(name: str, cross_product: bool) -> set[str]:
    """`name` with its slots refilled: every separator combination, or one slot at a time."""
    parts = _SLOT_RE.split(name)  # literal text at even indexes, slots at odd ones
    if cross_product:
        choices = [(part,) for part in parts]
        choices[1::2] = [_SEPARATOR_CHOICES] * (len(parts) // 2)
        return set(map("".join, itertools.product(*choices)))
    out = {name}
    for i in range(1, len(parts), 2):
        original = parts[i]
        for sep in _SEPARATOR_CHOICES:
            parts[i] = sep
            out.add("".join(parts))
        parts[i] = original
    return out


def expand_numeric_variants(name: str) -> set[str]:
    """All writing variants of a name whose number sits next to a word.

    Separator positions between a digit run and a letter run take each of
    hyphen/space/nothing. Names with at most four space-separated tokens and
    exactly one digit run additionally get the number moved to the other side
    of its word, with every separator combination; longer or multi-number
    names only get one separator varied at a time. The input is always a
    member of the result.
    """
    digit_runs = _DIGITS_RE.findall(name)
    if not digit_runs:
        return {name}
    capped = len(digit_runs) == 1 and len(name.split()) <= _SWAP_MAX_TOKENS
    out = _assignments(name, cross_product=capped)
    if capped:
        m = _WORD_DIGITS_RE.search(name) or _DIGITS_WORD_RE.search(name)
        if m is not None:
            swapped = name[: m.start()] + m[2] + m[1] + name[m.end() :]
            out |= _assignments(swapped, cross_product=True)
    return out


def pluralize(name: str) -> set[str]:
    """The name plus its regular English plural.

    No plural is generated when the name ends in a digit or a non-letter, or
    when the trailing alphabetic segment is a single letter ("aflatoxin b").
    """
    plural = _plural(name)
    return {name} if plural is None else {name, plural}


def _plural(name: str) -> str | None:
    # The trailing letter run (`[^\W\d_]+`: "²" counts, "_" does not) needs two characters.
    if len(name) < 2 or not name[-1].isalpha() or name[-2].isdecimal() or not name[-2].isalnum():
        return None
    if name.endswith(_ES_SUFFIXES):
        return name + "es"
    if name[-1] == "y" and name[-2].isalpha() and name[-2] not in _VOWELS:
        return name[:-1] + "ies"
    return name + "s"


def surfaces_for(name: str) -> set[str]:
    """Full surface set for one dump name: normalize, expand, pluralize."""
    return _surfaces(normalize(name))


def _surfaces(normalized: str) -> set[str]:
    out = expand_numeric_variants(normalized)
    out.update([plural for variant in out if (plural := _plural(variant)) is not None])
    return out


@dataclass
class ParseStats:
    rows: int = 0
    skipped: int = 0


def parse_chebi_source(
    path: str | Path, stats: ParseStats | None = None
) -> Iterator[tuple[str, str, str]]:
    """Yield (chebi_id, name, name_type) rows from a tab-separated names dump.

    The dump must carry a header row naming COMPOUND_ID, TYPE and NAME (other
    columns are ignored); gzip-compressed dumps are accepted. Malformed rows
    are skipped with a warning and counted in `stats`.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", errors="replace", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split("\t")
        columns = {col.strip().upper(): i for i, col in enumerate(header)}
        try:
            id_col = columns["COMPOUND_ID"]
            type_col = columns["TYPE"]
            name_col = columns["NAME"]
        except KeyError as exc:
            raise LexiconSourceError(
                f"{path}: header must name COMPOUND_ID, TYPE and NAME, got {header!r}"
            ) from exc
        needed = max(id_col, type_col, name_col)
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\r\n").split("\t")
            if len(parts) <= needed:
                _skip_row(path, lineno, "too few columns", stats)
                continue
            compound_id = parts[id_col].strip()
            if compound_id.upper().startswith("CHEBI:"):
                compound_id = compound_id[6:]
            name = parts[name_col].strip()
            if not compound_id.isdecimal() or not name:
                _skip_row(path, lineno, "missing id or name", stats)
                continue
            if stats is not None:
                stats.rows += 1
            name_type = parts[type_col].strip().upper() or "SYNONYM"
            yield (f"CHEBI:{int(compound_id)}", name, name_type)


def _skip_row(path: Path, lineno: int, why: str, stats: ParseStats | None) -> None:
    log.warning("%s:%d: skipping row (%s)", path, lineno, why)
    if stats is not None:
        stats.skipped += 1


@dataclass(frozen=True)
class IndexStats:
    entry_count: int
    surface_count: int
    collisions: int
    skipped_rows: int

    def as_dict(self) -> dict:
        return {
            "entry_count": self.entry_count,
            "surface_count": self.surface_count,
            "collisions": self.collisions,
            "skipped_rows": self.skipped_rows,
        }


class LexiconIndex:
    """Immutable surface → identifier map with per-identifier display names.

    `surfaces_by_id`, when given, is the same map grouped by identifier, as
    `save` writes it; `build_index` has it for free, a loaded index does not.
    `wanted` is set on an index loaded with it: it holds only the identifiers
    that own one of those surfaces, so a miss on a form outside them is not
    an answer, and the form lands in `unplanned` for the caller to load again.
    """

    def __init__(
        self,
        surface_to_id: dict[str, str],
        id_to_name: dict[str, str],
        stats: IndexStats,
        source_checksum: str = "",
        surfaces_by_id: dict[str, list[str]] | None = None,
        wanted: frozenset[str] | None = None,
    ):
        self._surface_to_id = surface_to_id
        self._id_to_name = id_to_name
        self.stats = stats
        self.source_checksum = source_checksum
        self._surfaces_by_id = surfaces_by_id
        self.wanted = wanted
        self.unplanned: set[str] = set()

    def lookup(self, surface: str) -> str | None:
        # Keys are normalized, so a raw hit can only be an already-normal form;
        # the fallback pays the normalization cost only when needed.
        hit = self._surface_to_id.get(surface)
        if hit is not None:
            return hit
        key = normalize(surface)
        if self.wanted is not None:
            self.unplanned.update(s for s in (surface, key) if s not in self.wanted)
        return self._surface_to_id.get(key)

    def preferred_name(self, chebi_id: str) -> str:
        return self._id_to_name.get(chebi_id, chebi_id)

    def save(self, path: str | Path) -> None:
        """Write the artifact to a temp file beside `path`, then rename it over."""
        path = Path(path)
        if self.wanted is not None:
            raise ValueError(f"not saving a partly loaded index over {path}")
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "source_sha256": self.source_checksum,
            **self.stats.as_dict(),
        }
        by_id = self._surfaces_by_id
        if by_id is None:
            by_id = {chebi_id: [] for chebi_id in self._id_to_name}
            for surface, chebi_id in self._surface_to_id.items():
                by_id[chebi_id].append(surface)
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n")
                for chebi_id in sorted(by_id, key=chebi_numeric):
                    surfaces = sorted(by_id[chebi_id])
                    fh.write(encode([chebi_id, self._id_to_name[chebi_id], surfaces]) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path, wanted: Iterable[str] | None = None) -> "LexiconIndex":
        """Read a saved index; with `wanted`, only the rows owning one of those surfaces."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                found = (header.get("format"), header.get("version"))
            except (ValueError, AttributeError) as exc:
                raise IndexFormatError(f"{path}: not an index artifact; {_REBUILD}") from exc
            if found != (INDEX_FORMAT, INDEX_VERSION):
                raise IndexFormatError(
                    f"{path}: expected {INDEX_FORMAT} v{INDEX_VERSION}, "
                    f"got {found[0]!r} v{found[1]!r}; {_REBUILD}"
                )
            if wanted is not None:
                wanted = frozenset(wanted)
                surface_to_id, id_to_name, body = _read_wanted_rows(path, fh, wanted)
            else:
                surface_to_id: dict[str, str] = {}
                id_to_name: dict[str, str] = {}
                try:
                    for line in fh:
                        chebi_id, name, surfaces = json.loads(line)
                        id_to_name[chebi_id] = name
                        surface_to_id.update(dict.fromkeys(surfaces, chebi_id))
                except (ValueError, TypeError) as exc:
                    line_no = len(id_to_name) + 2
                    raise IndexFormatError(
                        f"{path}: bad row on line {line_no}; {_REBUILD}"
                    ) from exc
                body = (len(id_to_name), len(surface_to_id))
        declared = (header.get("entry_count"), header.get("surface_count"))
        if declared != body:
            raise IndexFormatError(
                f"{path}: header declares {declared[0]} ids and {declared[1]} surfaces, "
                f"body has {body[0]} and {body[1]}; {_REBUILD}"
            )
        stats = IndexStats(
            entry_count=body[0],
            surface_count=body[1],
            collisions=header.get("collisions", 0),
            skipped_rows=header.get("skipped_rows", 0),
        )
        return cls(surface_to_id, id_to_name, stats, header.get("source_sha256", ""), wanted=wanted)


def _surface_pieces(row: str) -> list[str] | None:
    """A saved row's surfaces, split without parsing; None when it needs a parse.

    Without a backslash no string in the row holds an escaped quote, so the
    first `",["` ends the name, `","` only ever separates two surfaces, and
    each piece is the surface itself.
    """
    if row.startswith('["') and row.endswith('"]]') and "\\" not in row:
        tail = row.partition('",["')[2]
        if len(tail) >= 3:  # the opening `"` of the surfaces is not the closing one
            return tail[:-3].split('","')
    return None


def _read_wanted_rows(
    path: Path, fh: TextIO, wanted: frozenset[str]
) -> tuple[dict[str, str], dict[str, str], tuple[int, int]]:
    """The two maps over the rows sharing a surface with `wanted`, and the
    row and surface counts of the whole body."""
    surface_to_id: dict[str, str] = {}
    id_to_name: dict[str, str] = {}
    try:
        rows = fh.read().split("\n")
    except ValueError as exc:
        raise IndexFormatError(f"{path}: not UTF-8 text; {_REBUILD}") from exc
    if rows[-1] == "":
        rows.pop()
    surface_count = 0
    for line_no, row in enumerate(rows, start=2):
        pieces = _surface_pieces(row)
        if pieces is not None:
            surface_count += len(pieces)
            if wanted.isdisjoint(pieces):
                continue
        try:
            chebi_id, name, surfaces = json.loads(row)
            if pieces is None:
                surface_count += len(surfaces)
                if wanted.isdisjoint(surfaces):
                    continue
            id_to_name[chebi_id] = name
            surface_to_id.update(dict.fromkeys(surfaces, chebi_id))
        except (ValueError, TypeError) as exc:
            raise IndexFormatError(f"{path}: bad row on line {line_no}; {_REBUILD}") from exc
    return surface_to_id, id_to_name, (len(rows), surface_count)


def build_index(
    rows: Iterable[tuple[str, str, str]],
    stoplist: frozenset[str],
    *,
    source_checksum: str = "",
    parse_stats: ParseStats | None = None,
) -> LexiconIndex:
    """Build the surface index from parsed dump rows.

    Pipeline per row: stoplist filter, normalize, numeric-variant expansion,
    pluralization, insert. When two chemicals claim one surface, the claim
    backed by a primary NAME row beats synonym claims, then the numerically
    smaller identifier wins; every collision is counted.
    """
    claims: dict[str, tuple[int, int, str]] = {}
    owned: dict[str, list[str]] = {}
    preferred: dict[str, tuple[int, str]] = {}
    collisions = 0
    for chebi_id, name, name_type in rows:
        normalized = normalize(name)
        if normalized in stoplist:
            continue
        rank = 0 if name_type == "NAME" else 1
        if rank < preferred.get(chebi_id, (2,))[0]:
            preferred[chebi_id] = (rank, name)
        claim = (rank, chebi_numeric(chebi_id), chebi_id)
        mine = owned.setdefault(chebi_id, [])
        surfaces = _surfaces(normalized) - stoplist
        surfaces.discard("")
        contested = claims.keys() & surfaces
        for surface in contested:
            current = claims[surface]
            if current[2] != chebi_id:
                collisions += 1
                log.debug("surface %r claimed by %s and %s", surface, current[2], chebi_id)
            if claim[:2] < current[:2]:
                claims[surface] = claim
                owned[current[2]].remove(surface)
                mine.append(surface)
        surfaces -= contested
        claims.update(dict.fromkeys(surfaces, claim))
        mine.extend(surfaces)
    if not claims:
        raise LexiconSourceError("no entries survived the build; check the dump and stoplist")
    surfaces_by_id = {chebi_id: surfaces for chebi_id, surfaces in owned.items() if surfaces}
    # Overwrite each claim with its identifier in place: no second 1M-entry dict.
    surface_to_id: dict[str, str] = claims  # type: ignore[assignment]
    for chebi_id, surfaces in surfaces_by_id.items():
        surface_to_id.update(dict.fromkeys(surfaces, chebi_id))
    id_to_name = {chebi_id: preferred[chebi_id][1] for chebi_id in surfaces_by_id}
    stats = IndexStats(
        entry_count=len(id_to_name),
        surface_count=len(surface_to_id),
        collisions=collisions,
        skipped_rows=parse_stats.skipped if parse_stats else 0,
    )
    return LexiconIndex(surface_to_id, id_to_name, stats, source_checksum, surfaces_by_id)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
