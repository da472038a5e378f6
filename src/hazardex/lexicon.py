"""ChEBI-backed chemical gazetteer: parse a names dump, expand writing variants,
index every surface form to its identifier.

Surface expansion is rule-driven and deterministic. A name containing one
number next to a word ("polonium-210", "aflatoxin b1") appears in text under
several conventions: separator swapped between hyphen/space/nothing, and the
number written on the other side of the word ("210-polonium"). Names are also
pluralized with plain English rules. The index maps every generated surface
back to one identifier, resolving cross-entry collisions deterministically.

The saved index (format version 3) is UTF-8 text. The first line is a JSON
header: the format marker, version, dump checksum, build counts, the stoplist
and the sha256 of everything after it. Then one tab-separated record per dump
name the stoplist kept, `key letters, key digits, normalized name, numeric
id, rank` (0 for a NAME row, 1 for a synonym), the records sorted as text;
a blank line; and one `chebi_id<TAB>"preferred name"` line (the name as a
JSON string) per identifier, in ChEBI numeric order. The file is replaced
atomically on save.

A name's spelling key is its letter runs joined and its digit runs in order.
Separator changes and the swapped number keep it, and a plural only adds an
ending to its letters, so from any surface a few candidate keys reach every
name that can spell it. Every ending a plural adds or replaces is made of
"s", "e", "i" and "y", so the keys of two names that share a surface agree
once a final run of those letters is stripped. That stripped key is the
name's spelling group, and no surface is claimed across two groups. The
build claims the dump one group at a time, in dump order within a group,
and never holds a map of every surface; a group of one name needs no map at
all. A surface goes to its smallest `(rank, numeric id)` claimant, which
does not depend on the order of the names; the collision count does.

`LexiconIndex.load(path, wanted=...)` binary-searches the sorted records for
the candidate keys of the wanted surfaces and claims only the names it
finds. Such an index knows only the wanted surfaces and their owners and
cannot be saved; when a lookup's raw string misses, the raw and normalized
forms that lie outside `wanted` go to `unplanned`, for the caller to load
again. The full load counts every group as the build does and checks the
counts and owners against the header. A built or fully loaded index makes
its surface map from its records on its first `lookup`. Both loads check the
body against its checksum first, so a torn, cut or edited file is an
`IndexFormatError` either way.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import io
import itertools
import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .artifacts import atomic_open

log = logging.getLogger(__name__)

INDEX_FORMAT = "hazardex-lexicon"
INDEX_VERSION = 3
_REBUILD = "rerun build-lexicon"

_WS_RE = re.compile(r"\s+")

# Variant generation sees letter runs `[^\W\d_]+` and digit runs `\d+`. A slot
# is a variable separator position between a letter run and a digit run: a
# lone space or hyphen between them, or the empty gap where the two touch.
_DIGITS_RE = re.compile(r"\d+")
_NON_LETTERS_RE = re.compile(r"[\W\d_]+")
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

    `records` are the sorted name records the surfaces come from, and
    `stoplist` is the one they are expanded under; `save` writes both. A
    built or fully loaded index claims every record's surfaces into its map
    on its first `lookup`, not before. `wanted` is set on an index loaded
    with it: it holds only those surfaces and the identifiers that own them,
    so a miss on a form outside them is not an answer, and the form lands in
    `unplanned` for the caller to load again.
    """

    def __init__(
        self,
        id_to_name: dict[str, str],
        stats: IndexStats,
        source_checksum: str = "",
        records: list[str] | None = None,
        stoplist: frozenset[str] = frozenset(),
        *,
        claims: dict[str, tuple[int, int, str]] | None = None,
        wanted: frozenset[str] | None = None,
    ):
        if claims is not None:
            self._claims = claims
        self._id_to_name = id_to_name
        self.stats = stats
        self.source_checksum = source_checksum
        self._records = records
        self._stoplist = stoplist
        self.wanted = wanted
        self.unplanned: set[str] = set()

    @functools.cached_property
    def _claims(self) -> dict[str, tuple[int, int, str]]:
        return _claim(map(_parse_record, self._records), self._stoplist)[0]

    def lookup(self, surface: str) -> str | None:
        # Keys are normalized, so a raw hit can only be an already-normal form;
        # the fallback pays the normalization cost only when needed.
        claim = self._claims.get(surface)
        if claim is not None:
            return claim[2]
        key = normalize(surface)
        if self.wanted is not None:
            self.unplanned.update(s for s in (surface, key) if s not in self.wanted)
        claim = self._claims.get(key)
        return None if claim is None else claim[2]

    def preferred_name(self, chebi_id: str) -> str:
        return self._id_to_name.get(chebi_id, chebi_id)

    def save(self, path: str | Path) -> None:
        """Write the artifact; a crash leaves the previous file (`atomic_open`)."""
        if self._records is None:
            raise ValueError(f"not saving a partly loaded index over {path}")
        encode = json.JSONEncoder(ensure_ascii=False).encode
        names = b"".join(_encoded(
            f"{chebi_id}\t{encode(self._id_to_name[chebi_id])}"
            for chebi_id in sorted(self._id_to_name, key=chebi_numeric)
        ))

        def body() -> Iterator[bytes]:
            # The records are encoded twice, for the checksum and for the file,
            # rather than held a second time as bytes.
            yield from _encoded(self._records)
            yield b"\n"
            yield names

        digest = hashlib.sha256()
        for chunk in body():
            digest.update(chunk)
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "source_sha256": self.source_checksum,
            **self.stats.as_dict(),
            "stoplist": sorted(self._stoplist),
            "body_sha256": digest.hexdigest(),
        }
        with atomic_open(path, "wb") as fh:
            fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.writelines(body())

    @classmethod
    def load(cls, path: str | Path, wanted: Iterable[str] | None = None) -> "LexiconIndex":
        """Read a saved index; with `wanted`, only the names that can spell those surfaces."""
        path = Path(path)
        header, blob, body_start, ids_start = _read_artifact(path)
        stoplist = frozenset(header.get("stoplist", ()))
        stats = IndexStats(
            entry_count=header.get("entry_count"),
            surface_count=header.get("surface_count"),
            collisions=header.get("collisions", 0),
            skipped_rows=header.get("skipped_rows", 0),
        )
        source_checksum = header.get("source_sha256", "")
        try:
            if wanted is not None:
                wanted = frozenset(wanted)
                found = _spelling_records(blob, body_start, ids_start - 1, wanted)
                claims, _ = _claim(found, stoplist)
                claims = {s: claims[s] for s in wanted if s in claims}
                id_to_name = {
                    chebi_id: _preferred(blob, ids_start, chebi_id)
                    for chebi_id in set(map(itemgetter(2), claims.values()))
                }
                return cls(id_to_name, stats, source_checksum, stoplist=stoplist,
                           claims=claims, wanted=wanted)
            records = blob[body_start : ids_start - 1].decode("utf-8").split("\n")[:-1]
            surface_count, _, owners = _claim_groups(records, stoplist)
            id_to_name = {}
            for line in blob[ids_start:].decode("utf-8").split("\n")[:-1]:
                chebi_id, name = line.split("\t")
                id_to_name[chebi_id] = json.loads(name)
        except (ValueError, TypeError) as exc:
            raise IndexFormatError(f"{path}: bad record ({exc}); {_REBUILD}") from exc
        declared = (stats.entry_count, stats.surface_count)
        body = (len(id_to_name), surface_count)
        if declared != body or id_to_name.keys() != {f"CHEBI:{n}" for n in owners}:
            raise IndexFormatError(
                f"{path}: header declares {declared[0]} ids and {declared[1]} surfaces, "
                f"body has {body[0]} and {body[1]}; {_REBUILD}"
            )
        return cls(id_to_name, stats, source_checksum, records, stoplist)


def _spelling_key(text: str) -> str:
    """What every writing variant of a name keeps: its letter runs joined, a
    tab, then its digit runs in order joined by commas."""
    return _NON_LETTERS_RE.sub("", text) + "\t" + ",".join(_DIGITS_RE.findall(text))


def _candidate_keys(surface: str) -> set[str]:
    """The spelling keys of every name that can have `surface` among its surfaces.

    Separators and the swapped number keep a name's key; a plural only adds
    "s" or "es" to its letters, or turns a final "y" into "ies", so undoing
    one such ending gives the key of the name it was made from.
    """
    letters = _NON_LETTERS_RE.sub("", surface)
    stems = {letters}
    if letters.endswith("s"):
        stems.add(letters[:-1])
        if letters.endswith("es"):
            stems.add(letters[:-2])
        if letters.endswith("ies"):
            stems.add(letters[:-3] + "y")
    digits = ",".join(_DIGITS_RE.findall(surface))
    return {f"{stem}\t{digits}" for stem in stems}


def _record(normalized: str, numeric: int, rank: int) -> str:
    # A normalized name holds no tab or newline: `normalize` folds all whitespace.
    return f"{_spelling_key(normalized)}\t{normalized}\t{numeric}\t{rank}"


def _parse_record(record: str) -> tuple[str, int, int]:
    _, _, normalized, numeric, rank = record.split("\t")
    return normalized, int(numeric), int(rank)


def _spelling_records(
    blob: bytes, lo: int, hi: int, wanted: frozenset[str]
) -> list[tuple[str, int, int]]:
    """The records among the sorted ones in `blob[lo:hi]` of every name that
    can spell one of the `wanted` surfaces."""
    found: set[bytes] = set()
    for form in wanted:
        for key in _candidate_keys(form):
            prefix = f"{key}\t".encode("utf-8")
            pos = _bisect_lines(blob, lo, hi, prefix.__gt__)
            while pos < hi and blob.startswith(prefix, pos):
                end = blob.index(b"\n", pos)
                found.add(blob[pos:end])
                pos = end + 1
    return [_parse_record(line.decode("utf-8")) for line in found]


def _encoded(lines: Iterable[str]) -> Iterator[bytes]:
    """`lines`, each ended by a newline, UTF-8 encoded a few thousand at a time."""
    it = iter(lines)
    while chunk := list(itertools.islice(it, 4096)):
        chunk.append("")
        yield "\n".join(chunk).encode("utf-8")


def _bisect_lines(blob: bytes, lo: int, hi: int, before) -> int:
    """Offset of the first line of the sorted, newline-ended lines in
    `blob[lo:hi]` that `before` does not hold for; `hi` if there is none.

    UTF-8 keeps code point order, so lines sorted as text are sorted as bytes.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        start = max(lo, blob.rfind(b"\n", lo, mid) + 1)
        end = blob.index(b"\n", start)
        if before(blob[start:end]):
            lo = end + 1
        else:
            hi = start
    return lo


def _preferred(blob: bytes, ids_start: int, chebi_id: str) -> str:
    """The preferred name on the identifier line of `chebi_id`."""
    numeric = chebi_numeric(chebi_id)
    pos = _bisect_lines(blob, ids_start, len(blob), lambda line: _line_numeric(line) < numeric)
    end = blob.find(b"\n", pos)
    if end < 0 or _line_numeric(blob[pos:end]) != numeric:
        raise ValueError(f"no name line for {chebi_id}")
    return json.loads(blob[pos:end].partition(b"\t")[2])


def _line_numeric(line: bytes) -> int:
    return chebi_numeric(line[: line.index(b"\t")].decode("utf-8"))


def _read_artifact(path: Path) -> tuple[dict, bytes, int, int]:
    """The header and bytes of a saved index whose body matches its checksum,
    with the offsets where its name records and its identifier lines start."""
    blob = path.read_bytes()
    body_start = blob.find(b"\n") + 1
    try:
        header = json.loads(blob[:body_start])
        found = (header.get("format"), header.get("version"))
    except (ValueError, AttributeError) as exc:
        raise IndexFormatError(f"{path}: not an index artifact; {_REBUILD}") from exc
    if found != (INDEX_FORMAT, INDEX_VERSION):
        raise IndexFormatError(
            f"{path}: expected {INDEX_FORMAT} v{INDEX_VERSION}, "
            f"got {found[0]!r} v{found[1]!r}; {_REBUILD}"
        )
    body = memoryview(blob)[body_start:]
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise IndexFormatError(f"{path}: body does not match its checksum; {_REBUILD}")
    ids_start = blob.find(b"\n\n", body_start) + 2
    if ids_start < 2 or not blob.endswith(b"\n"):
        raise IndexFormatError(f"{path}: no identifier section; {_REBUILD}")
    return header, blob, body_start, ids_start


def _claim(
    records: Iterable[tuple[str, int, int]], stoplist: frozenset[str]
) -> tuple[dict[str, tuple[int, int, str]], int]:
    """Give every surface of every `(normalized name, numeric id, rank)` record
    to its smallest `(rank, numeric id)` claimant, whatever the record order;
    also count the claims that met another identifier's, which does depend
    on the order."""
    claims: dict[str, tuple[int, int, str]] = {}
    ids: dict[int, str] = {}
    collisions = 0
    for normalized, numeric, rank in records:
        chebi_id = ids.get(numeric) or ids.setdefault(numeric, f"CHEBI:{numeric}")
        claim = (rank, numeric, chebi_id)
        surfaces = _surfaces(normalized) - stoplist
        surfaces.discard("")
        contested = claims.keys() & surfaces
        for surface in contested:
            current = claims[surface]
            if current[2] != chebi_id:
                collisions += 1
                log.debug("surface %r claimed by %s and %s", surface, current[2], chebi_id)
            if claim < current:  # the numeric id decides the identifier
                claims[surface] = claim
        surfaces -= contested
        claims.update(dict.fromkeys(surfaces, claim))
    return claims, collisions


def _group(record: str) -> str:
    """The spelling group of a record: its key letters without a final run of
    "s", "e", "i" and "y", the letters of every plural ending, then its key
    digits. Two names that share a surface share a group."""
    letters, digits, _ = record.split("\t", 2)
    return f"{letters.rstrip('seiy')}\t{digits}"


def _claim_groups(records: list[str], stoplist: frozenset[str]) -> tuple[int, int, set[int]]:
    """Claim the surfaces of the `records` one spelling group at a time, each
    group in the order of `records`: the surface count, the collisions and
    the numeric ids that own a surface."""
    surface_count = collisions = 0
    owners: set[int] = set()
    for _, group in itertools.groupby(sorted(records, key=_group), key=_group):
        group = list(map(_parse_record, group))
        if len(group) == 1:
            normalized, numeric, _ = group[0]
            surfaces = _surfaces(normalized) - stoplist
            surfaces.discard("")
            if surfaces:
                surface_count += len(surfaces)
                owners.add(numeric)
            continue
        claims, clashes = _claim(group, stoplist)
        surface_count += len(claims)
        collisions += clashes
        owners.update(claim[1] for claim in claims.values())
    return surface_count, collisions, owners


def build_index(
    rows: Iterable[tuple[str, str, str]],
    stoplist: frozenset[str],
    *,
    source_checksum: str = "",
    parse_stats: ParseStats | None = None,
) -> LexiconIndex:
    """Build the surface index from parsed dump rows.

    Pipeline per row: stoplist filter, normalize, record. Then each spelling
    group's names are expanded (numeric variants, plurals) and claimed on
    their own, in dump order. When two chemicals claim one surface, the claim
    backed by a primary NAME row beats synonym claims, then the numerically
    smaller identifier wins; every collision is counted. Identifiers come
    out as `CHEBI:<int>`.
    """
    records: list[str] = []
    preferred: dict[int, tuple[int, str]] = {}
    for chebi_id, name, name_type in rows:
        normalized = normalize(name)
        if normalized in stoplist:
            continue
        rank = 0 if name_type == "NAME" else 1
        numeric = chebi_numeric(chebi_id)
        if rank < preferred.get(numeric, (2,))[0]:
            preferred[numeric] = (rank, name)
        records.append(_record(normalized, numeric, rank))
    # In dump order within each group: the collision count depends on it.
    surface_count, collisions, owners = _claim_groups(records, stoplist)
    if not surface_count:
        raise LexiconSourceError("no entries survived the build; check the dump and stoplist")
    records.sort()
    id_to_name = {f"CHEBI:{numeric}": preferred[numeric][1] for numeric in owners}
    stats = IndexStats(
        entry_count=len(id_to_name),
        surface_count=surface_count,
        collisions=collisions,
        skipped_rows=parse_stats.skipped if parse_stats else 0,
    )
    return LexiconIndex(id_to_name, stats, source_checksum, records, stoplist)


def header_sha256(path: str | Path) -> str:
    """The sha256 of a saved index's first line. The header carries the
    stoplist and pins the body through `body_sha256`, so it changes whenever
    anything a load reads does; `load` checks the body against it."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.readline()).hexdigest()


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
