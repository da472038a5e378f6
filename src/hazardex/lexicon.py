"""ChEBI-backed chemical gazetteer: parse a names dump, expand writing variants,
index every surface form to its identifier.

Surface expansion is rule-driven and deterministic. A name containing one
number next to a word ("polonium-210", "aflatoxin b1") appears in text under
several conventions: separator swapped between hyphen/space/nothing, and the
number written on the other side of the word ("210-polonium"). Names are also
pluralized with plain English rules. The index maps every generated surface
back to one identifier, resolving cross-entry collisions deterministically.

The saved index (format version 4) is UTF-8 text and holds nothing a load
can compute. The first line is a JSON header: the format marker, version,
dump checksum, build counts, the stoplist, the sha256 of everything after
it, and the sha256 of its own other fields. Then one tab-separated record
per dump name the stoplist kept, `normalized name, numeric id, rank` (0 for
a NAME row, 1 for a synonym), sorted by the name's spelling key and then as
text; a blank line; and one `numeric id<TAB>"preferred name"` line (the name
as a JSON string) per identifier, in numeric order. The file is replaced
atomically on save.

A name's spelling key is its letter runs joined and its digit runs in order.
Separator changes and the swapped number keep it, and a plural only adds an
ending to its letters, so from any surface a few candidate keys reach every
name that can spell it. Every ending a plural adds or replaces is made of
"s", "e", "i" and "y", so the keys of two names that share a surface agree
once a final run of those letters is stripped. That stripped key is the
name's spelling group, and no surface is claimed across two groups. The
build never holds a map of every surface. As it reads the dump it counts
each name's own surfaces and notes a hash of its spelling group; sorting
the hashes then finds the groups of two or more names. A name alone in its
group, as nearly every name is, keeps its count, and the names of a larger
group are claimed together, in dump order. A surface goes to its smallest
`(rank, numeric id)` claimant, which does not depend on the order of the
names; the collision count does.

A count is worked out, not made: the separator variants of a spelling are
all distinct, those of its swapped number are others, a plural doubles
them, and a stoplist entry without a digit removes no surface of a name
with one (`_surface_count`); only a stoplist with a digit in an entry has
such names' surfaces made. The formula reads only a name's shape: its
runs of letters, digits and other characters in order, with each digit run
written "1" and each letter run cut to its last two characters. Names with a
digit run make most of the surfaces, and many share a shape, so each shape
is worked out once. The build runs in one process.

`build_index` ends by encoding the index as `save` writes it, and
`LexiconIndex.load` checks the header and the body of a saved one against
their checksums, so a torn, cut or edited file is an `IndexFormatError`.
Either way the index keeps the bytes and nothing else. The first `lookup`
of a surface binary-searches the sorted records for its candidate keys,
computing the key of each name it probes (its letters first, its digits
only when the letters tie), claims the names it finds and keeps only that
surface's owner; a preferred name is binary-searched among the identifier
lines.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import itertools
import json
import logging
import re
import unicodedata
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .artifacts import atomic_open
from .common import IndexFormatError, LexiconSourceError, is_chebi_id

log = logging.getLogger(__name__)

INDEX_FORMAT = "hazardex-lexicon"
INDEX_VERSION = 4
# The remedy for a damaged index: deleting it first rebuilds it whatever its
# manifest records. build-lexicon signs `INDEX_VERSION` itself, so an older
# build needs only the rerun.
_REBUILD = "delete it and rerun build-lexicon"

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


def chebi_numeric(chebi_id: str) -> int:
    if not is_chebi_id(chebi_id):
        raise ValueError(f"not a ChEBI identifier: {chebi_id!r}")
    return int(chebi_id[6:])


def normalize(surface: str) -> str:
    """Casefold, apply NFKC, collapse whitespace; hyphens survive untouched."""
    if surface.isascii():
        # NFKC keeps ASCII, casefold is lower, and `\s` is `str.isspace` there.
        return " ".join(surface.lower().split())
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


# The stoplist a build uses when the config names none.
DEFAULT_STOPLIST = Path(__file__).with_name("data") / "stoplist.txt"


def default_stoplist() -> frozenset[str]:
    return load_stoplist(DEFAULT_STOPLIST)


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
    capped = _capped(name, digit_runs)
    out = _assignments(name, cross_product=capped)
    if capped and (swapped := _swapped(name)) is not None:
        out |= _assignments(swapped, cross_product=True)
    return out


def _capped(name: str, digit_runs: list[str]) -> bool:
    """Whether a name gets every separator combination and the swapped number."""
    return len(digit_runs) == 1 and len(name.split()) <= _SWAP_MAX_TOKENS


def _swapped(name: str) -> str | None:
    """`name` with its number moved to the other side of its word, if one touches it."""
    m = _WORD_DIGITS_RE.search(name) or _DIGITS_WORD_RE.search(name)
    return None if m is None else name[: m.start()] + m[2] + m[1] + name[m.end() :]


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
        raw_id = chebi_id = None
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\r\n").split("\t")
            if len(parts) <= needed:
                _skip_row(path, lineno, "too few columns", stats)
                continue
            if parts[id_col] != raw_id:  # a dump lists an id's names together
                raw_id = parts[id_col]
                compound_id = raw_id.strip()
                if compound_id.upper().startswith("CHEBI:"):
                    compound_id = compound_id[6:]
                chebi_id = f"CHEBI:{int(compound_id)}" if compound_id.isdecimal() else None
            name = parts[name_col].strip()
            if chebi_id is None or not name:
                _skip_row(path, lineno, "missing id or name", stats)
                continue
            if stats is not None:
                stats.rows += 1
            name_type = parts[type_col].strip().upper() or "SYNONYM"
            yield (chebi_id, name, name_type)


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


class LexiconIndex:
    """Surface → identifier lookups over the bytes of a saved index.

    `build_index` and `load` make the same index: the header, the bytes
    `save` writes, and the offsets where the name records and the identifier
    lines start. A lookup searches the records for the names that can spell
    the surface asked, computing the spelling key of each name it probes,
    claims those names and keeps that surface's owner and nothing else,
    since the other surfaces of those names may have claimants it did not
    find. A preferred name is binary-searched among the identifier lines
    each time it is asked for.
    """

    def __init__(self, header: dict, blob: bytes | bytearray, body_start: int, ids_start: int):
        self.stats = IndexStats(
            entry_count=header.get("entry_count"),
            surface_count=header.get("surface_count"),
            collisions=header.get("collisions", 0),
            skipped_rows=header.get("skipped_rows", 0),
        )
        self._stoplist = frozenset(header.get("stoplist", ()))
        self._blob, self._body_start, self._ids_start = blob, body_start, ids_start
        self._answers: dict[str, tuple[int, int, str] | None] = {}

    def lookup(self, surface: str) -> str | None:
        # Keys are normalized, so a raw hit can only be an already-normal form;
        # the fallback pays the normalization cost only when needed.
        claim = self._claim_of(surface) or self._claim_of(normalize(surface))
        return None if claim is None else claim[2]

    def _claim_of(self, surface: str) -> tuple[int, int, str] | None:
        if surface in self._answers:
            return self._answers[surface]
        found = _spelling_records(self._blob, self._body_start, self._ids_start - 1, surface)
        claim = self._answers[surface] = _claim(found, self._stoplist)[0].get(surface)
        return claim

    def preferred_name(self, chebi_id: str) -> str:
        name = _preferred(self._blob, self._ids_start, chebi_id)
        return chebi_id if name is None else name

    def save(self, path: str | Path) -> None:
        """Write the artifact; a crash leaves the previous file (`atomic_open`)."""
        with atomic_open(path, "wb") as fh:
            fh.write(self._blob)

    @classmethod
    def load(cls, path: str | Path) -> "LexiconIndex":
        """Read a saved index whose body matches its checksum; its surfaces
        and names are found when they are asked for."""
        return cls(*_read_artifact(Path(path)))


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


def _parse_record(record: str) -> tuple[str, int, int]:
    """A record, with or without the build's key columns in front, as
    `(normalized name, numeric id, rank)`."""
    *_, normalized, numeric, rank = record.split("\t")
    return normalized, int(numeric), int(rank)


def _spelling_records(blob: bytes, lo: int, hi: int, surface: str) -> Iterator[tuple[str, int, int]]:
    """The records among the sorted ones in `blob[lo:hi]` of every name that
    can spell `surface`. The records are sorted by the spelling key of their
    name first, so each key's records are one run of lines."""
    for key in _candidate_keys(surface):
        letters, _, digits = key.partition("\t")
        pos = _bisect_lines(blob, lo, hi, lambda line: _line_before(line, letters, digits))
        while pos < hi:
            end = blob.index(b"\n", pos)
            record = _parse_record(blob[pos:end].decode("utf-8"))
            if _spelling_key(record[0]) != key:
                break
            yield record
            pos = end + 1


def _line_before(line: bytes, letters: str, digits: str) -> bool:
    """Whether the name leading a record line has a spelling key below
    `letters` and `digits`. A tab sorts before every character a key holds,
    so keys sort as `(letters, digits)`: the digit runs are only found when
    the letters tie."""
    name = line[: line.index(b"\t")].decode("utf-8")
    name_letters = _NON_LETTERS_RE.sub("", name)
    if name_letters != letters:
        return name_letters < letters
    return ",".join(_DIGITS_RE.findall(name)) < digits


def _encoded(lines: Iterable[str]) -> Iterator[bytes]:
    """`lines`, each ended by a newline, UTF-8 encoded a few hundred at a
    time, so a chunk in flight adds little to the buffer it goes into."""
    it = iter(lines)
    while chunk := list(itertools.islice(it, 256)):
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


def _preferred(blob: bytes, ids_start: int, chebi_id: str) -> str | None:
    """The preferred name on the identifier line of `chebi_id`, if it has one."""
    numeric = chebi_numeric(chebi_id)
    pos = _bisect_lines(blob, ids_start, len(blob), lambda line: _line_numeric(line) < numeric)
    end = blob.find(b"\n", pos)
    if end < 0 or _line_numeric(blob[pos:end]) != numeric:
        return None
    return json.loads(blob[pos:end].partition(b"\t")[2])


def _line_numeric(line: bytes) -> int:
    return int(line[: line.index(b"\t")])


_UNKNOWN_SHA256 = "0" * 64


def _header_line(header: dict) -> bytes:
    return json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8") + b"\n"


def _fields_sha256(fields: dict) -> str:
    """The sha256 of `fields` as canonical JSON: sorted keys, no spaces, UTF-8."""
    text = json.dumps(fields, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_artifact(path: Path) -> tuple[dict, bytes, int, int]:
    """The header and bytes of a saved index whose header and body match
    their checksums, with the offsets where its name records and its
    identifier lines start."""
    blob = path.read_bytes()
    body_start = blob.find(b"\n") + 1
    try:
        header = json.loads(blob[:body_start])
        found = (header.get("format"), header.get("version"))
    except (ValueError, AttributeError) as exc:
        raise IndexFormatError(f"{path}: not an index artifact; {_REBUILD}") from exc
    # A header that carries a checksum is checked against it before its
    # version, so an edited version reads as damage and not as an older build,
    # which the signed `INDEX_VERSION` rebuilds. A version-3 header has none.
    current = found == (INDEX_FORMAT, INDEX_VERSION)
    fields = {key: value for key, value in header.items() if key != "header_sha256"}
    if (current or "header_sha256" in header) and (
            _fields_sha256(fields) != header.get("header_sha256")):
        raise IndexFormatError(f"{path}: header does not match its checksum; {_REBUILD}")
    if not current:
        raise IndexFormatError(
            f"{path}: expected {INDEX_FORMAT} v{INDEX_VERSION}, "
            f"got {found[0]!r} v{found[1]!r}; rerun build-lexicon"
        )
    body = memoryview(blob)[body_start:]
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise IndexFormatError(f"{path}: body does not match its checksum; {_REBUILD}")
    ids_start = blob.find(b"\n\n", body_start) + 2
    if ids_start < 2 or not blob.endswith(b"\n"):
        raise IndexFormatError(f"{path}: no identifier section; {_REBUILD}")
    return header, blob, body_start, ids_start


def _own_surfaces(normalized: str, stoplist: frozenset[str]) -> set[str]:
    """The surfaces a name can claim: its own, less the stoplist and ""."""
    surfaces = _surfaces(normalized) - stoplist
    surfaces.discard("")
    return surfaces


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
        surfaces = _own_surfaces(normalized, stoplist)
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


def _surface_count(normalized: str, stoplist: frozenset[str]) -> int:
    """`len(_own_surfaces(normalized, stoplist))`, mostly without making them.

    Let k(s) be the number of slots in a spelling s, and p(s) 2 when s has a
    plural and 1 otherwise. A name that gets every separator combination
    has 3**k(name) * p(name) surfaces, plus 3**k(swapped) * p(swapped) when
    its number can be swapped; any other name with a digit run has
    (1 + 2*k(name)) * p(name). The formula is exact because:

    - each slot is followed by a letter or a digit, so different separator
      choices give different strings;
    - the swap moves the digit run past at least one letter, and separators
      move no letter past a digit, so no variant of the swapped spelling is
      a variant of the name;
    - the variants of one spelling share its last literal part, so either
      every variant has a plural or none has;
    - a plural changes the letters, so it never equals a variant or the
      plural of another variant;
    - every surface of a name with a digit run holds its digits, so a
      stoplist with no digit in any entry removes none of them.

    The formula reads a name's shape and nothing else, so it is worked out
    once per shape (`_shape_count`). The shape is the name with each digit
    run written "1" and each letter run cut to its last two characters. It
    keeps the order of letter runs, digit runs and every other character,
    so it has the same slots, digit runs and words, and a swap moves the
    same word past the same number. Only the interiors of letter runs are
    cut, and the plural rule reads at most a spelling's last two
    characters, which the shape keeps. A swap can join its word to the
    letter run after the number. The joined run ends in that run's last two
    characters, or, when that run is one letter, in the word's last letter
    and that one; the shape keeps these too.

    A stoplist entry with a digit in it may remove a surface, so under such
    a stoplist the surfaces are made and counted.
    """
    if not _DIGITS_RE.search(normalized):
        return _plain_count(normalized, stoplist)
    if _holds_digits(stoplist):
        return len(_own_surfaces(normalized, stoplist))
    return _shape_count(_RUN_HEAD_RE.sub("", _DIGITS_RE.sub("1", normalized)))


# All of a letter run but its last two characters.
_RUN_HEAD_RE = re.compile(r"[^\W\d_]+(?=[^\W\d_]{2})")


# Bounded, so a dump whose shapes never repeat does not grow it for the life
# of the process; the generated dumps hold 63 shapes.
@functools.lru_cache(maxsize=4096)
def _shape_count(shape: str) -> int:
    """The surface count of every name with a digit run whose shape is `shape`."""
    slots = len(_SLOT_RE.findall(shape))
    if not _capped(shape, _DIGITS_RE.findall(shape)):
        return (1 + 2 * slots) * _forms(shape)
    count = 3**slots * _forms(shape)
    swapped = _swapped(shape)
    if swapped is not None:
        count += 3 ** len(_SLOT_RE.findall(swapped)) * _forms(swapped)
    return count


def _plain_count(normalized: str, stoplist: frozenset[str]) -> int:
    """The surfaces of a name without a digit run: itself and its plural."""
    plural = _plural(normalized)
    return (normalized not in stoplist and normalized != "") + (
        plural is not None and plural not in stoplist)


def _forms(spelling: str) -> int:
    """2 when the spelling has a plural, else 1."""
    return 1 if _plural(spelling) is None else 2


@functools.lru_cache(maxsize=4)
def _holds_digits(stoplist: frozenset[str]) -> bool:
    return any(_DIGITS_RE.search(entry) for entry in stoplist)


# The largest numeric id the build keeps in its 64-bit id array.
_MAX_NUMERIC = 2**63 - 1


def _tally(
    records: list[str], counts: array, groups: array, numerics: array, stoplist: frozenset[str]
) -> tuple[int, int, set[int]]:
    """The surface count, the collisions and the numeric ids that own a
    surface, for `records` whose names have `counts` surfaces on their own,
    whose spelling groups hash to `groups` and whose ids are `numerics`.

    A name whose group hash no other name has keeps its surfaces. The hashes
    two or more names share are found by sorting a copy; the names of each
    are claimed with `_claim`, in the order of `records`, and their `counts`
    are set to 0. Groups whose hashes agree are claimed together, which
    gives what claiming each apart gives: no surface is shared across groups.
    """
    ordered = sorted(groups)
    shared = {group for group, after in zip(ordered, itertools.islice(ordered, 1, None))
              if group == after}
    del ordered
    members: dict[int, list[int]] = {}
    for i in [i for i, group in enumerate(groups) if group in shared]:
        members.setdefault(groups[i], []).append(i)
        counts[i] = 0  # its group is claimed below
    surface_count, collisions = sum(counts), 0
    owners = set(itertools.compress(numerics, counts))
    for group in members.values():
        claims, clashes = _claim((_parse_record(records[i]) for i in group), stoplist)
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

    Each row, in dump order: stoplist filter, normalize, record, and count
    the name's own surfaces (numeric variants, plurals) by formula, once per
    shape for the names with a digit run (`_surface_count`). A name alone in
    its spelling group keeps its count; the names of a larger group are
    claimed together, in dump order. When two chemicals claim one
    surface, the claim backed by a primary NAME row beats synonym claims,
    then the numerically smaller identifier wins; every collision is counted.
    Identifiers come out as `CHEBI:<int>`. The index is encoded as it is
    saved, header, records and identifier lines in one buffer, and answers
    from those bytes as a loaded one does.
    """
    records: list[str] = []
    # An id's preferred name is its first NAME row's, else its first synonym's.
    names: dict[int, str] = {}
    synonyms: dict[int, str] = {}
    # Each record's own surface count, its spelling group, hashed, and its
    # numeric id. A 32-bit hash lets a few groups share one, which claims them
    # together and so changes nothing; it keeps the array, and the ints
    # `_tally` sorts, small.
    counts, groups, numerics = array("I"), array("I"), array("q")
    last_id = None
    for chebi_id, name, name_type in rows:
        normalized = normalize(name)
        if normalized in stoplist:
            continue
        rank = 0 if name_type == "NAME" else 1
        if chebi_id != last_id:  # a dump lists an id's names together
            numeric, last_id = int(chebi_id[6:]), chebi_id
            if numeric > _MAX_NUMERIC:
                raise LexiconSourceError(f"{chebi_id}: identifier too large to index")
        if rank == 0:
            names.setdefault(numeric, name)
        elif numeric not in names:
            synonyms.setdefault(numeric, name)
        if normalized.isalpha():  # the name is its own letters, with no digit
            letters, digits = normalized, ""
        else:
            letters = _NON_LETTERS_RE.sub("", normalized)
            digits = ",".join(_DIGITS_RE.findall(normalized))
        # `normalize` folds all whitespace, so a name holds no tab or newline.
        records.append(f"{letters}\t{digits}\t{normalized}\t{numeric}\t{rank}")
        # Every ending a plural adds or replaces is made of these letters.
        groups.append(hash((letters.rstrip("seiy"), digits)) & 0xFFFFFFFF)
        numerics.append(numeric)
        counts.append(_surface_count(normalized, stoplist) if digits
                      else _plain_count(normalized, stoplist))
    # In dump order within each group: the collision count depends on it.
    surface_count, collisions, owners = _tally(records, counts, groups, numerics, stoplist)
    del counts, groups, numerics  # freed before the sort and the encoding below
    if not surface_count:
        raise LexiconSourceError("no entries survived the build; check the dump and stoplist")
    # Sorting as text sorts by spelling key first, since the tab that ends a
    # key sorts before any character a key holds.
    records.sort()
    for numeric, name in synonyms.items():
        names.setdefault(numeric, name)
    fields = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "source_sha256": source_checksum,
        "entry_count": len(owners),
        "surface_count": surface_count,
        "collisions": collisions,
        "skipped_rows": parse_stats.skipped if parse_stats else 0,
        "stoplist": sorted(stoplist),
        "body_sha256": _UNKNOWN_SHA256,
    }
    # The header goes first with stand-in digests, which are written over
    # in place once the body is hashed: a digest is 64 hex digits either way.
    blob = bytearray(_header_line({**fields, "header_sha256": _UNKNOWN_SHA256}))
    body_start = len(blob)
    for chunk in _encoded(record.split("\t", 2)[2] for record in records):
        blob += chunk
    del records
    blob += b"\n"
    ids_start = len(blob)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    for chunk in _encoded(f"{numeric}\t{encode(names[numeric])}" for numeric in sorted(owners)):
        blob += chunk
    fields["body_sha256"] = hashlib.sha256(memoryview(blob)[body_start:]).hexdigest()
    header = {**fields, "header_sha256": _fields_sha256(fields)}
    blob[:body_start] = _header_line(header)
    return LexiconIndex(header, blob, body_start, ids_start)


def header_sha256(path: str | Path) -> str:
    """The sha256 of a saved index's first line. The header carries the
    stoplist and pins the body through `body_sha256`, so it changes whenever
    anything a load reads does; `load` checks the header against its own
    `header_sha256` and the body against `body_sha256`."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.readline()).hexdigest()
