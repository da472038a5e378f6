"""Independent brute-force reference implementations used to pin behavior.

These are deliberately written from the rules, not from the package sources:
a character-class decomposition via itertools.groupby instead of the regex
scanner, and dict folding instead of the production aggregation. The
response scanners are the parser's earlier one-character-at-a-time loops,
kept as the reference for the `str.find` and regex versions, and the
mapping parser is its earlier method-per-token version. Tests assert
set-for-set / row-for-row equality between package output and these oracles.
"""

from __future__ import annotations

import hashlib
import html
import json
import random
import re
from itertools import groupby, product

SEPARATORS = ("-", " ", "")


def _cls(ch: str) -> str:
    # A digit is any Unicode decimal digit ("١" as well as "1"): NFKC keeps
    # Arabic-Indic digits, and they are numbers in a name all the same.
    if ch.isdecimal():
        return "d"
    if ch in " -":
        return "s"
    if ch.isalpha():
        return "a"
    return "o"


def _chunks(name: str) -> list[tuple[str, str]]:
    return [(kind, "".join(group)) for kind, group in groupby(name, key=_cls)]


def _is_pair(chunks, left: int, right: int) -> bool:
    if left < 0 or right >= len(chunks):
        return False
    kinds = {chunks[left][0], chunks[right][0]}
    return kinds == {"a", "d"}


def _layout(chunks) -> list[tuple[str, str]]:
    """Flatten chunks into ("lit", text) parts and ("slot", original) gaps.

    A slot is a letter/digit boundary: either a single space/hyphen between
    the two runs (original = that character) or direct contact (original "").
    """
    parts: list[tuple[str, str]] = []
    for i, (kind, text) in enumerate(chunks):
        if kind == "s" and len(text) == 1 and _is_pair(chunks, i - 1, i + 1):
            parts.append(("slot", text))
            continue
        parts.append(("lit", text))
        if kind in "ad" and i + 1 < len(chunks):
            next_kind = chunks[i + 1][0]
            if next_kind in "ad" and next_kind != kind:
                parts.append(("slot", ""))
    return parts


def _render(parts, fills) -> str:
    out = []
    it = iter(fills)
    for tag, payload in parts:
        out.append(next(it) if tag == "slot" else payload)
    return "".join(out)


def _cross_product(chunks) -> set[str]:
    parts = _layout(chunks)
    slots = sum(1 for tag, _ in parts if tag == "slot")
    return {_render(parts, combo) for combo in product(SEPARATORS, repeat=slots)}


def _single_substitutions(chunks) -> set[str]:
    parts = _layout(chunks)
    originals = [payload for tag, payload in parts if tag == "slot"]
    out = set()
    for vary in range(len(originals)):
        for sep in SEPARATORS:
            fills = list(originals)
            fills[vary] = sep
            out.add(_render(parts, fills))
    return out


def _swap(chunks):
    digit_positions = [i for i, (kind, _) in enumerate(chunks) if kind == "d"]
    if len(digit_positions) != 1:
        return None
    d = digit_positions[0]

    def word_at(j):
        return 0 <= j < len(chunks) and chunks[j][0] == "a"

    def single_sep(j):
        return 0 <= j < len(chunks) and chunks[j][0] == "s" and len(chunks[j][1]) == 1

    if word_at(d - 1):
        w = d - 1
    elif single_sep(d - 1) and word_at(d - 2):
        w = d - 2
    elif word_at(d + 1):
        w = d + 1
    elif single_sep(d + 1) and word_at(d + 2):
        w = d + 2
    else:
        return None
    digit, word = chunks[d], chunks[w]
    if w < d:
        return chunks[:w] + [digit, word] + chunks[d + 1 :]
    return chunks[:d] + [word, digit] + chunks[w + 1 :]


def oracle_expand(name: str) -> set[str]:
    """Reference enumeration of the numeric-variant rules."""
    out = {name}
    chunks = _chunks(name)
    if not any(kind == "d" for kind, _ in chunks):
        return out
    digit_runs = sum(1 for kind, _ in chunks if kind == "d")
    capped = len(name.split()) <= 4 and digit_runs == 1
    if capped:
        out |= _cross_product(chunks)
        swapped = _swap(chunks)
        if swapped is not None:
            out |= _cross_product(swapped)
    else:
        out |= _single_substitutions(chunks)
    return out


def oracle_spelling_key(name: str) -> tuple[str, tuple[str, ...]]:
    """Reference for the lexicon's spelling key: the letters of the name in
    order (a letter is a word character that is neither a decimal digit nor
    "_", so "²" counts), and its runs of decimal digits in order."""
    def kind(ch: str) -> str:
        if ch.isdecimal():
            return "d"
        return "a" if ch.isalnum() else "o"

    letters, digits = [], []
    for k, group in groupby(name, key=kind):
        if k == "a":
            letters.append("".join(group))
        elif k == "d":
            digits.append("".join(group))
    return "".join(letters), tuple(digits)


def oracle_index_v3(blob: bytes) -> bytes:
    """A saved version-4 lexicon index in the version-3 layout: each name
    record led by its spelling key's letters and digits, each identifier
    line by "CHEBI:", a header with version 3 and no checksum of itself."""
    header_line, body = blob.split(b"\n", 1)
    records, ids = body.decode("utf-8").split("\n\n")
    lines = []
    for record in records.split("\n"):
        letters, digits = oracle_spelling_key(record.split("\t")[0])
        lines.append(f"{letters}\t{','.join(digits)}\t{record}\n")
    lines.append("\n")
    lines.extend(f"CHEBI:{line}\n" for line in ids.split("\n")[:-1])
    v3_body = "".join(lines).encode("utf-8")
    header = json.loads(header_line)
    del header["header_sha256"]
    header.update(version=3, body_sha256=hashlib.sha256(v3_body).hexdigest())
    return json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8") + b"\n" + v3_body


_ALPHA_FRAGMENTS = (
    "aflatoxin", "b", "polonium", "ochratoxin", "pcb", "vitamin", "dioxin",
    "benzo", "pyrene", "omega", "acid", "fumonisin", "toxin", "chloro",
    "méthyl", "α", "x",
)
_OTHER_CHARS = ",.()[]'"


def random_digit_name(rng: random.Random) -> str:
    """A random name guaranteed to contain at least one digit run."""
    pieces: list[str] = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.4:
            pieces.append(rng.choice(_ALPHA_FRAGMENTS))
        elif roll < 0.7:
            pieces.append(str(rng.randint(0, 999)))
        elif roll < 0.9:
            pieces.append(rng.choice(["-", " ", "--", " - ", "  "]))
        else:
            pieces.append(rng.choice(_OTHER_CHARS))
    if not any(ch.isdecimal() for piece in pieces for ch in piece):
        pieces.append(str(rng.randint(0, 99)))
    return "".join(pieces)


def oracle_pluralize(name: str) -> set[str]:
    """Reference for the plural rules: the name plus its regular English plural.

    No plural when the name does not end in a letter, or when its trailing
    run of letters is a single letter. Otherwise "-es" after s, x, z, ch or
    sh; "-ies" for a consonant before a final y; "-s" for everything else.
    """
    letters = 0
    for ch in reversed(name):
        if not ch.isalpha():
            break
        letters += 1
    if letters < 2:
        return {name}
    if name[-1] in "sxz" or name[-2:] in ("ch", "sh"):
        return {name, name + "es"}
    if name[-1] == "y" and name[-2] not in "aeiou":
        return {name, name[:-1] + "ies"}
    return {name, name + "s"}


def oracle_surfaces(name: str) -> set[str]:
    """Every writing variant of a normalized name, and the plural of each."""
    return set().union(*map(oracle_pluralize, oracle_expand(name)))


def oracle_claim(records, stoplist):
    """The global claim: one map of every surface of every `(normalized name,
    numeric id, rank)` record, claimed in the order given.

    A surface goes to its smallest `(rank, numeric id, identifier)` claim.
    Each claim that finds the surface held by another identifier is one
    collision. Returns the map and the collision count.
    """
    claims: dict[str, tuple[int, int, str]] = {}
    collisions = 0
    for normalized, numeric, rank in records:
        claim = (rank, numeric, f"CHEBI:{numeric}")
        for surface in oracle_surfaces(normalized) - stoplist - {""}:
            current = claims.setdefault(surface, claim)
            if current[2] != claim[2]:
                collisions += 1
            claims[surface] = min(current, claim)
    return claims, collisions


_WORDS = (
    "aflatoxin", "vitamin", "patulin", "benzo", "pyrene", "méthyl", "straße",
    "carotène", "mercury", "alloy", "bismuth", "flash", "borax", "quartz",
    "toxin", "dioxin", "gas", "PCB",
)
_TAILS = (
    "k", "b", "B", "y", "ay", "ey", "ry", "py", "ch", "sh", "x", "z", "s",
    "é", "ß", "_k", "k_", "x²", "²", "b²", "1", "b1", "210", "ol", "ii",
)
_JOINERS = (" ", "-", "", "  ", "_", " - ")


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def random_surface_name(rng: random.Random) -> str:
    """A random dump-style name exercising every plural rule and its exceptions.

    Names mix non-ASCII letters, superscript digits, underscores, digit runs
    (some in Arabic-Indic digits, which NFKC keeps), single-letter tails
    ("vitamin-k", "aflatoxin b"), vowel-y and consonant-y endings, and
    s/x/z/ch/sh endings, with irregular spacing and case.
    """
    pieces = [rng.choice(_WORDS)]
    for _ in range(rng.randint(0, 3)):
        pieces.append(rng.choice(_JOINERS))
        roll = rng.random()
        if roll < 0.06:
            pieces.append(str(rng.randint(0, 999)).translate(_ARABIC_INDIC))
        elif roll < 0.3:
            pieces.append(str(rng.randint(0, 999)))
        else:
            pieces.append(rng.choice(_WORDS if roll < 0.7 else _TAILS))
    pieces.append(rng.choice(_JOINERS))
    pieces.append(rng.choice(_TAILS + _WORDS))
    name = "".join(pieces)
    return name.upper() if rng.random() < 0.2 else name


def oracle_aggregate(mentions, food_name: str, preferred: dict[str, str]):
    """Reference group-by: rows as plain tuples.

    Returns [(food, id, name, mention_count, first_seen_year, supporting)] in
    the production sort order.
    """
    grouped: dict[str, set[str]] = {}
    years: dict[str, list[int]] = {}
    for chebi_id, record in mentions:
        grouped.setdefault(chebi_id, set()).add(record.doi or record.record_key)
        if record.publication_year is not None:
            years.setdefault(chebi_id, []).append(record.publication_year)
    rows = []
    for chebi_id, keys in grouped.items():
        rows.append(
            (
                food_name,
                chebi_id,
                preferred[chebi_id],
                len(keys),
                min(years[chebi_id]) if chebi_id in years else None,
                tuple(sorted(keys)),
            )
        )
    rows.sort(key=lambda r: (-r[3], r[2], r[1]))
    return rows


# --------------------------------------------------------------------------
# response scanning: the one-character-at-a-time scanners the parser and the
# abbreviation back-trace used before they moved to `str.find` and regexes
# --------------------------------------------------------------------------

_QUOTES = "'\""
_OPENERS = "{[:,"
_STRUCTURAL = "{}[]:,"
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}


class OracleUnterminated(Exception):
    """The oracle tokenizer met a string that never closes."""


def oracle_mapping_regions(text: str) -> list[tuple[int, int]]:
    """Spans of every balanced {...} region, ordered by closing position."""
    regions: list[tuple[int, int]] = []
    stack: list[int] = []
    quote: str | None = None
    last_sig = ""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if not stack:
            if ch == "{":
                stack.append(i)
                last_sig = "{"
            i += 1
            continue
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
                last_sig = "s"
            i += 1
            continue
        if ch in _QUOTES and last_sig in _OPENERS:
            quote = ch
            i += 1
            continue
        if ch == "{":
            stack.append(i)
        elif ch == "}":
            regions.append((stack.pop(), i + 1))
        if not ch.isspace():
            last_sig = ch
        i += 1
    regions.sort(key=lambda span: span[1])
    return regions


def oracle_tokenize(src: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _STRUCTURAL:
            tokens.append((ch, ch))
            i += 1
            continue
        if ch in _QUOTES:
            i += 1
            buf: list[str] = []
            while i < n:
                c = src[i]
                if c == "\\" and i + 1 < n:
                    buf.append(_ESCAPES.get(src[i + 1], src[i + 1]))
                    i += 2
                    continue
                if c == ch:
                    i += 1
                    break
                buf.append(c)
                i += 1
            else:
                raise OracleUnterminated
            tokens.append(("str", "".join(buf)))
            continue
        j = i
        while j < n and src[j] not in _STRUCTURAL:
            j += 1
        tokens.append(("str", src[i:j].strip()))
        i = j
    return tokens


class OracleParseFailure(Exception):
    """The oracle parser met tokens that do not make a mapping."""


class OracleParser:
    """The parser's earlier method-per-token recursive descent over a token list."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str:
        if self._pos >= len(self._tokens):
            raise OracleParseFailure("unexpected end of mapping")
        return self._tokens[self._pos][0]

    def _take(self, expected: str | None = None) -> tuple[str, str]:
        kind = self._peek()
        if expected is not None and kind != expected:
            raise OracleParseFailure(f"expected {expected!r}, found {kind!r}")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def finished(self) -> bool:
        return self._pos == len(self._tokens)

    def parse_mapping(self, depth: int) -> list[tuple[str, object]]:
        self._take("{")
        pairs: list[tuple[str, object]] = []
        if self._peek() == "}":
            self._take()
            return pairs
        while True:
            key = self._take("str")[1]
            self._take(":")
            pairs.append((key, self._parse_value(depth)))
            kind = self._take()[0]
            if kind == ",":
                if self._peek() == "}":
                    self._take()
                    return pairs
                continue
            if kind == "}":
                return pairs
            raise OracleParseFailure(f"expected ',' or '}}', found {kind!r}")

    def _parse_value(self, depth: int):
        kind = self._peek()
        if kind == "str":
            return ("str", self._take()[1])
        if kind == "[":
            return ("list", self._parse_list())
        if kind == "{":
            if depth >= 1:
                raise OracleParseFailure("mapping nested deeper than one level")
            return ("map", self.parse_mapping(depth + 1))
        raise OracleParseFailure(f"unexpected value token {kind!r}")

    def _parse_list(self) -> list[str]:
        self._take("[")
        items: list[str] = []
        if self._peek() == "]":
            self._take()
            return items
        while True:
            items.append(self._take("str")[1])
            kind = self._take()[0]
            if kind == ",":
                if self._peek() == "]":
                    self._take()
                    return items
                continue
            if kind == "]":
                return items
            raise OracleParseFailure(f"expected ',' or ']', found {kind!r}")


def oracle_parse_region(tokens: list[tuple[str, str]]) -> list[tuple[str, object]] | None:
    """The pairs of the one mapping the tokens make, or None when they make none."""
    parser = OracleParser(tokens)
    try:
        pairs = parser.parse_mapping(depth=0)
    except OracleParseFailure:
        return None
    return pairs if parser.finished() else None


def oracle_last_sentence(preceding: str) -> str:
    """The text after the last sentence boundary: ".", "!" or "?" followed by
    whitespace. Empty when the text ends on a boundary."""
    return re.split(r"(?<=[.!?])\s+", preceding)[-1]


SCAN_ALPHABET = "{}[]:,'\"\\ ab\n\t"

_PROSE = (
    "Step 1: read the abstract.",
    "The study's samples (n = 40) were 'fresh' and \"frozen\".",
    "Let's list the foods: salmon, trout, and {maybe} cod.",
    "Note: escapes like \\n and \\' appear in echoed code.",
    "Step 2: pick the hazards!",
    "Is it {'fish': ['Hg']}? Yes.",
    "Here is an echo: print({'a': [1, 2]}) and d = {\"k\": v}",
    "Unbalanced { brace and a stray } here, then ['x', 'y'].",
)


def random_scan_text(rng: random.Random, size: int) -> str:
    """A string of `size` characters over the scanner's special alphabet."""
    return "".join(rng.choice(SCAN_ALPHABET) for _ in range(size))


def random_long_response(rng: random.Random) -> str:
    """Reasoning prose with echoed code around one small mapping, the shape
    of a step-by-step answer, several KB long."""
    parts = [rng.choice(_PROSE) for _ in range(rng.randint(20, 80))]
    mapping = rng.choice(
        (
            "{'salmon': ['mercury', 'PCBs']}",
            '{"salmon fillet": "dioxin", "cod": ["Cd",]}',
            "{salmon: [arsenic, 'lead\\'s salts']}",
            "{'salmon': {'metals': ['Hg'], 'other': 'PFOA'}}",
            "{'salmon': ['unterminated}",
        )
    )
    parts.insert(rng.randrange(len(parts) + 1), mapping)
    parts.extend(random_scan_text(rng, rng.randint(0, 12)) for _ in range(rng.randint(0, 3)))
    return rng.choice((" ", "\n", "\n\n")).join(parts)


_COPYRIGHT_MARKERS = ("©", "copyright", "all rights reserved")


def oracle_clean_text(text: str) -> str:
    """`corpus.clean_text` as it was before its fast paths: every tag pass and
    whitespace pass by regex, every text split into sentences, and each
    sentence casefolded once per copyright marker."""
    while True:
        decoded = html.unescape(text)
        if decoded == text:
            break
        text = decoded
    text = re.sub(r"</?[A-Za-z][^<>]*>|<!--.*?-->", " ", text, flags=re.DOTALL)
    text = re.sub(r"\s+", " ", text).strip()
    sentences = re.split(r"(?<=[.!?])\s+", text)
    kept = [
        s
        for s in sentences
        if not any(marker in s.casefold() for marker in _COPYRIGHT_MARKERS)
    ]
    return " ".join(kept).strip()


_CLEANING_PIECES = (
    "Cadmium was found in rice.",
    "Straße samples were ß-rich!",
    "COPYRIGHT 2020 Elsevier.",
    "All Rights Reserved.",
    "© 2021 The Authors.",
    "Is the level safe?",
    "copy right is not a marker.",
    "<b>Lead</b> &amp; zinc",
    "&lt;i&gt;Hg&lt;/i&gt;\u00a0levels\u2028rose.",
    "ALL RIGHTS",
    "reserved",
    "Ⓒ İstanbul ΣΑΣ ﬁsh.",
)


def random_abstract_text(rng: random.Random) -> str:
    """Prose with copyright markers in several cases, "ß", markup, entities
    and sentence ends, joined by assorted whitespace."""
    parts = [rng.choice(_CLEANING_PIECES) for _ in range(rng.randint(0, 12))]
    return "".join(part + rng.choice((" ", "  ", "\n", "\t ", "", ". ")) for part in parts)
