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

CHEBI_ID_RE = re.compile(r"^CHEBI:\d+$")

_WS_RE = re.compile(r"\s+")
_ALPHA_TAIL_RE = re.compile(r"[^\W\d_]+$")

# Atom classes for variant generation: letter runs, digit runs, separator runs
# (space/hyphen only), and anything else passed through opaquely.
_ATOM_RE = re.compile(r"(?P<alpha>[^\W\d_]+)|(?P<digit>\d+)|(?P<sep>[ \-]+)|(?P<other>.)", re.DOTALL)

_SEPARATOR_CHOICES = ("-", " ", "")
_SWAP_MAX_TOKENS = 4

_VOWELS = frozenset("aeiou")
_ES_SUFFIXES = ("s", "x", "z", "ch", "sh")


class LexiconSourceError(Exception):
    """The names dump cannot be read in the expected tab-separated layout."""


class IndexFormatError(Exception):
    """An index artifact is malformed, truncated, or of another format or version."""


def is_chebi_id(value: str) -> bool:
    return bool(CHEBI_ID_RE.match(value))


def chebi_numeric(chebi_id: str) -> int:
    if not is_chebi_id(chebi_id):
        raise ValueError(f"not a ChEBI identifier: {chebi_id!r}")
    return int(chebi_id.split(":", 1)[1])


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


def _atoms(name: str) -> list[tuple[str, str]]:
    out = []
    for m in _ATOM_RE.finditer(name):
        kind = m.lastgroup or "other"
        out.append((kind[0].upper(), m.group()))
    return out


def _segments(atoms: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Flatten atoms into ("lit"|"slot", text) runs.

    A slot is a variable separator position: a single space or hyphen between a
    letter run and a digit run, or the empty gap where the two touch directly.
    """
    segs: list[tuple[str, str]] = []
    for i, (cls, text) in enumerate(atoms):
        prev_cls = atoms[i - 1][0] if i else None
        next_cls = atoms[i + 1][0] if i + 1 < len(atoms) else None
        if cls == "S" and text in ("-", " ") and {prev_cls, next_cls} == {"A", "D"}:
            segs.append(("slot", text))
            continue
        if cls in ("A", "D") and prev_cls in ("A", "D") and prev_cls != cls:
            segs.append(("slot", ""))
        segs.append(("lit", text))
    return segs


def _assignments(segs: list[tuple[str, str]], cross_product: bool) -> set[str]:
    slots = [i for i, (kind, _) in enumerate(segs) if kind == "slot"]
    base = [text for _, text in segs]
    out = {"".join(base)}
    if cross_product:
        for combo in itertools.product(_SEPARATOR_CHOICES, repeat=len(slots)):
            parts = list(base)
            for idx, sep in zip(slots, combo):
                parts[idx] = sep
            out.add("".join(parts))
    else:
        for idx in slots:
            for sep in _SEPARATOR_CHOICES:
                parts = list(base)
                parts[idx] = sep
                out.add("".join(parts))
    return out


def _digit_neighbor(atoms: list[tuple[str, str]], d: int) -> int | None:
    """Index of the letter run adjacent to the digit atom, left side preferred."""
    for j in (d - 1, d - 2):
        if j < 0:
            continue
        if j == d - 2 and not (atoms[d - 1][0] == "S" and atoms[d - 1][1] in ("-", " ")):
            continue
        if atoms[j][0] == "A":
            return j
    for j in (d + 1, d + 2):
        if j >= len(atoms):
            continue
        if j == d + 2 and not (atoms[d + 1][0] == "S" and atoms[d + 1][1] in ("-", " ")):
            continue
        if atoms[j][0] == "A":
            return j
    return None


def _swapped_atoms(atoms: list[tuple[str, str]], d: int, w: int) -> list[tuple[str, str]]:
    """Move the digit atom to the other side of its word, dropping the connector."""
    if w < d:
        return atoms[:w] + [atoms[d], atoms[w]] + atoms[d + 1 :]
    return atoms[: d] + [atoms[w], atoms[d]] + atoms[w + 1 :]


def expand_numeric_variants(name: str) -> set[str]:
    """All writing variants of a name whose number sits next to a word.

    Separator positions between a digit run and a letter run take each of
    hyphen/space/nothing. Names with at most four space-separated tokens and
    exactly one digit run additionally get the number moved to the other side
    of its word, with every separator combination; longer or multi-number
    names only get one separator varied at a time. The input is always a
    member of the result.
    """
    if not any(ch.isdigit() for ch in name):
        return {name}
    atoms = _atoms(name)
    digit_positions = [i for i, (cls, _) in enumerate(atoms) if cls == "D"]
    capped = len(digit_positions) == 1 and len(name.split()) <= _SWAP_MAX_TOKENS
    out = _assignments(_segments(atoms), cross_product=capped)
    if capped:
        d = digit_positions[0]
        w = _digit_neighbor(atoms, d)
        if w is not None:
            out |= _assignments(_segments(_swapped_atoms(atoms, d, w)), cross_product=True)
    out.add(name)
    return out


def pluralize(name: str) -> set[str]:
    """The name plus its regular English plural.

    No plural is generated when the name ends in a digit or a non-letter, or
    when the trailing alphabetic segment is a single letter ("aflatoxin b").
    """
    out = {name}
    if not name or not name[-1].isalpha():
        return out
    tail = _ALPHA_TAIL_RE.search(name)
    if tail is None or len(tail.group()) < 2:
        return out
    if any(name.endswith(suffix) for suffix in _ES_SUFFIXES):
        out.add(name + "es")
    elif name.endswith("y") and name[-2].isalpha() and name[-2] not in _VOWELS:
        out.add(name[:-1] + "ies")
    else:
        out.add(name + "s")
    return out


def surfaces_for(name: str) -> set[str]:
    """Full surface set for one dump name: normalize, expand, pluralize."""
    out: set[str] = set()
    for variant in expand_numeric_variants(normalize(name)):
        out |= pluralize(variant)
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
            if not compound_id.isdigit() or not name:
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
    """Immutable surface → identifier map with per-identifier display names."""

    def __init__(
        self,
        surface_to_id: dict[str, str],
        id_to_name: dict[str, str],
        stats: IndexStats,
        source_checksum: str = "",
    ):
        self._surface_to_id = surface_to_id
        self._id_to_name = id_to_name
        self.stats = stats
        self.source_checksum = source_checksum

    def lookup(self, surface: str) -> str | None:
        # Keys are normalized, so a raw hit can only be an already-normal form;
        # the fallback pays the normalization cost only when needed.
        hit = self._surface_to_id.get(surface)
        if hit is not None:
            return hit
        return self._surface_to_id.get(normalize(surface))

    def preferred_name(self, chebi_id: str) -> str:
        return self._id_to_name.get(chebi_id, chebi_id)

    def save(self, path: str | Path) -> None:
        """Write the artifact to a temp file beside `path`, then rename it over."""
        path = Path(path)
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "source_sha256": self.source_checksum,
            **self.stats.as_dict(),
        }
        by_id: dict[str, list[str]] = {chebi_id: [] for chebi_id in self._id_to_name}
        for surface, chebi_id in self._surface_to_id.items():
            by_id[chebi_id].append(surface)
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n")
                for chebi_id in sorted(by_id, key=chebi_numeric):
                    surfaces = sorted(by_id.pop(chebi_id))
                    fh.write(encode([chebi_id, self._id_to_name[chebi_id], surfaces]) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "LexiconIndex":
        path = Path(path)
        rebuild = "delete it and rerun build-lexicon"
        surface_to_id: dict[str, str] = {}
        id_to_name: dict[str, str] = {}
        with path.open("r", encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                found = (header.get("format"), header.get("version"))
            except (ValueError, AttributeError) as exc:
                raise IndexFormatError(f"{path}: not an index artifact; {rebuild}") from exc
            if found != (INDEX_FORMAT, INDEX_VERSION):
                raise IndexFormatError(
                    f"{path}: expected {INDEX_FORMAT} v{INDEX_VERSION}, "
                    f"got {found[0]!r} v{found[1]!r}; {rebuild}"
                )
            try:
                for line in fh:
                    chebi_id, name, surfaces = json.loads(line)
                    id_to_name[chebi_id] = name
                    surface_to_id.update(dict.fromkeys(surfaces, chebi_id))
            except (ValueError, TypeError) as exc:
                line_no = len(id_to_name) + 2
                raise IndexFormatError(f"{path}: bad row on line {line_no}; {rebuild}") from exc
        declared = (header.get("entry_count"), header.get("surface_count"))
        if declared != (len(id_to_name), len(surface_to_id)):
            raise IndexFormatError(
                f"{path}: header declares {declared[0]} ids and {declared[1]} surfaces, "
                f"body has {len(id_to_name)} and {len(surface_to_id)}; {rebuild}"
            )
        stats = IndexStats(
            entry_count=len(id_to_name),
            surface_count=len(surface_to_id),
            collisions=header.get("collisions", 0),
            skipped_rows=header.get("skipped_rows", 0),
        )
        return cls(surface_to_id, id_to_name, stats, header.get("source_sha256", ""))


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
    preferred: dict[str, str] = {}
    preferred_rank: dict[str, int] = {}
    collisions = 0
    for chebi_id, name, name_type in rows:
        if normalize(name) in stoplist:
            continue
        rank = 0 if name_type == "NAME" else 1
        current_rank = preferred_rank.get(chebi_id)
        if current_rank is None or rank < current_rank:
            preferred[chebi_id] = name
            preferred_rank[chebi_id] = rank
        numeric = chebi_numeric(chebi_id)
        for surface in surfaces_for(name):
            if not surface or surface in stoplist:
                continue
            claim = (rank, numeric, chebi_id)
            current = claims.get(surface)
            if current is None:
                claims[surface] = claim
                continue
            if current[2] != chebi_id:
                collisions += 1
                log.debug(
                    "surface %r claimed by %s and %s", surface, current[2], chebi_id
                )
            if claim[:2] < current[:2]:
                claims[surface] = claim
    surface_to_id = {surface: claim[2] for surface, claim in claims.items()}
    if not surface_to_id:
        raise LexiconSourceError("no entries survived the build; check the dump and stoplist")
    linked_ids = set(surface_to_id.values())
    id_to_name = {chebi_id: preferred[chebi_id] for chebi_id in linked_ids}
    stats = IndexStats(
        entry_count=len(id_to_name),
        surface_count=len(surface_to_id),
        collisions=collisions,
        skipped_rows=parse_stats.skipped if parse_stats else 0,
    )
    return LexiconIndex(surface_to_id, id_to_name, stats, source_checksum)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
