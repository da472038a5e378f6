"""Tolerant parsing of LLM responses into food → hazards candidates.

Responses are asked for as a Python-style dictionary but arrive wrapped in
prose, echoed code, scaffold lines ("Chemicals: ..."), odd quoting or mild
format drift. The parser finds the last brace-delimited mapping that reads as
food → hazards and accommodates the common deviations: single or double
quotes, unquoted bare words, trailing commas, a bare string instead of a
one-element list, and hazards nested one level inside another mapping.
Anything beyond that is unparseable, which is a normal recorded outcome, not
an error.

Answers are long and the mapping small, so the scanners move with `str.find`
and compiled regexes instead of one step per character:

- Outside every {...} region the region scan jumps to the next "{".
- Inside a region and outside strings it jumps to the next brace or quote.
  A quote opens a string only when the last non-space character before it
  is one of "{[:,"; that character is read from the text it jumped over.
- Inside a string it jumps to whichever comes first: the closing quote, or a
  backslash, which escapes the character after it.
- A region's tokens come from one regex whose alternatives are a structural
  character, a single- or double-quoted string (escapes mapped only when the
  string holds a backslash), a quote that never closes (the region fails to
  parse), and a bare word: a non-space character and everything up to the
  next structural character, trailing whitespace stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .corpus import FoodSpec
from .prompting import LlmResponse, PromptStyle

WELL_FORMED = "well_formed"
RECOVERED = "recovered"
UNPARSEABLE = "unparseable"

PARSE_STATUSES = (WELL_FORMED, RECOVERED, UNPARSEABLE)

_QUOTES = "'\""
_OPENERS = "{[:,"
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}

# Inside a region and outside strings, only braces and quotes stop the scan.
_REGION_STOP_RE = re.compile(r"[{}'\"]")
# Whitespace is skipped; every other character starts exactly one token: a
# structural character, a quoted string (a backslash escapes the next
# character), a quote that never closes, or a bare word running up to the
# next structural character.
_STRUCT, _SINGLE, _DOUBLE, _LONE_QUOTE, _BARE = range(1, 6)
_TOKEN_RE = re.compile(
    r"""\s*(?:
        ([{}\[\]:,])
      | '([^'\\]*(?:\\.[^'\\]*)*)'
      | "([^"\\]*(?:\\.[^"\\]*)*)"
      | (['"])
      | ([^\s{}\[\]:,'"][^{}\[\]:,]*)
    )""",
    re.DOTALL | re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


@dataclass(frozen=True)
class ExtractionCandidate:
    """Parsed food → hazard terms for one (abstract, style) response."""

    abstract_key: str
    style: PromptStyle
    food_terms: dict[str, list[str]]
    parse_status: str


class _ParseFailure(Exception):
    pass


def _string_end(text: str, i: int, quote: str) -> int:
    """Index just past the quote closing the string that starts at i, or
    len(text) when it never closes. A backslash escapes the next character."""
    while True:
        close = text.find(quote, i)
        if close < 0:
            return len(text)
        backslash = text.find("\\", i, close)
        if backslash < 0:
            return close + 1
        i = backslash + 2


def _mapping_regions(text: str) -> list[tuple[int, int]]:
    """Spans of every balanced {...} region, ordered by closing position.

    Quote tracking only applies inside a region, and a quote only opens a
    string right after a structural delimiter, so prose apostrophes neither
    hide mappings nor unbalance the scan.
    """
    regions: list[tuple[int, int]] = []
    stack: list[int] = []
    last_sig = ""
    i = 0
    while True:
        if not stack:
            i = text.find("{", i)
            if i < 0:
                break
            stack.append(i)
            last_sig = "{"
            i += 1
            continue
        stop = _REGION_STOP_RE.search(text, i)
        if stop is None:
            break
        j = stop.start()
        skipped = text[i:j].rstrip()
        if skipped:
            last_sig = skipped[-1]
        ch = text[j]
        i = j + 1
        if ch in _QUOTES and last_sig in _OPENERS:
            i = _string_end(text, i, ch)
            last_sig = "s"
            continue
        if ch == "{":
            stack.append(j)
        elif ch == "}":
            regions.append((stack.pop(), j + 1))
        last_sig = ch
    regions.sort(key=lambda span: span[1])
    return regions


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def _tokenize(src: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    for match in _TOKEN_RE.finditer(src):
        group = match.lastindex
        if group == _STRUCT:
            ch = match[_STRUCT]
            tokens.append((ch, ch))
        elif group == _BARE:
            tokens.append(("str", match[_BARE].rstrip()))
        elif group == _LONE_QUOTE:
            raise _ParseFailure("unterminated string")
        else:
            body = match[group]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            tokens.append(("str", body))
    return tokens


# Ends every token list the parser reads: its kind matches nothing the parser
# expects, so a mapping cut short fails where it ends, without a bounds check.
_END = ("end", "")


def _parse_region(src: str) -> list[tuple[str, object]]:
    """The pairs of the one mapping that the region `src` holds."""
    tokens = _tokenize(src)
    tokens.append(_END)
    pairs, pos = _parse_mapping(tokens, 0, depth=0)
    if pos != len(tokens) - 1:
        raise _ParseFailure("trailing tokens inside mapping region")
    return pairs


def _parse_mapping(
    tokens: list[tuple[str, str]], pos: int, depth: int
) -> tuple[list[tuple[str, object]], int]:
    """The pairs of the mapping opening at `tokens[pos]`, and the position after it."""
    if tokens[pos][0] != "{":
        raise _ParseFailure(f"expected '{{', found {tokens[pos][0]!r}")
    pos += 1
    pairs: list[tuple[str, object]] = []
    if tokens[pos][0] == "}":
        return pairs, pos + 1
    while True:
        kind, key = tokens[pos]
        if kind != "str" or tokens[pos + 1][0] != ":":
            raise _ParseFailure(f"expected a key and ':' at token {pos}")
        kind, text = tokens[pos + 2]
        if kind == "str":
            value: tuple[str, object] = ("str", text)
            pos += 3
        elif kind == "[":
            items, pos = _parse_list(tokens, pos + 2)
            value = ("list", items)
        elif kind == "{":
            if depth >= 1:
                raise _ParseFailure("mapping nested deeper than one level")
            inner, pos = _parse_mapping(tokens, pos + 2, depth + 1)
            value = ("map", inner)
        else:
            raise _ParseFailure(f"unexpected value token {kind!r}")
        pairs.append((key, value))
        kind = tokens[pos][0]
        pos += 1
        if kind == ",":
            if tokens[pos][0] == "}":
                return pairs, pos + 1
            continue
        if kind == "}":
            return pairs, pos
        raise _ParseFailure(f"expected ',' or '}}', found {kind!r}")


def _parse_list(tokens: list[tuple[str, str]], pos: int) -> tuple[list[str], int]:
    """The strings of the list opening at `tokens[pos]`, and the position after it."""
    pos += 1
    items: list[str] = []
    if tokens[pos][0] == "]":
        return items, pos + 1
    while True:
        kind, item = tokens[pos]
        if kind != "str":
            raise _ParseFailure(f"expected 'str', found {kind!r}")
        items.append(item)
        kind = tokens[pos + 1][0]
        pos += 2
        if kind == ",":
            if tokens[pos][0] == "]":
                return items, pos + 1
            continue
        if kind == "]":
            return items, pos
        raise _ParseFailure(f"expected ',' or ']', found {kind!r}")


def _assemble(pairs: list[tuple[str, object]]) -> tuple[dict[str, list[str]], bool]:
    recovered = False
    food_terms: dict[str, list[str]] = {}
    for key, value in pairs:
        key = key.strip()
        if not key:
            recovered = True
            continue
        tag, payload = value
        if tag == "str":
            items = [payload]
            recovered = True
        elif tag == "list":
            items = list(payload)
        else:
            # One level of nesting: keep the leaf hazard strings, drop the
            # intermediate keys.
            recovered = True
            items = []
            for _, leaf in payload:
                leaf_tag, leaf_payload = leaf
                if leaf_tag == "str":
                    items.append(leaf_payload)
                else:
                    items.extend(leaf_payload)
        if key in food_terms:
            recovered = True
        bucket = food_terms.setdefault(key, [])
        seen = {h.casefold() for h in bucket}
        for item in items:
            item = item.strip()
            if not item:
                recovered = True
                continue
            folded = item.casefold()
            if folded in seen:
                continue
            seen.add(folded)
            bucket.append(item)
    return food_terms, recovered


def extract_mapping_text(text: str) -> tuple[dict[str, list[str]], str]:
    """Parse the last readable mapping in free text.

    Returns the food → hazards dict and a parse status: well_formed when the
    mapping was already a dict of string lists, recovered when an
    accommodation fired, unparseable when no region reads as a mapping.

    Fallback after a failed region only moves to *disjoint* earlier regions:
    descending into a failed mapping's sub-braces would promote value-level
    keys into food keys.
    """
    failed: list[tuple[int, int]] = []
    for start, end in reversed(_mapping_regions(text)):
        if any(fs <= start and end <= fe for fs, fe in failed):
            continue
        try:
            pairs = _parse_region(text[start:end])
        except _ParseFailure:
            failed.append((start, end))
            continue
        food_terms, recovered = _assemble(pairs)
        return food_terms, RECOVERED if recovered else WELL_FORMED
    return {}, UNPARSEABLE


def extract_mapping(response: LlmResponse) -> ExtractionCandidate:
    food_terms, status = extract_mapping_text(response.text)
    return ExtractionCandidate(
        abstract_key=response.abstract_key,
        style=response.style,
        food_terms=food_terms,
        parse_status=status,
    )


def gate_by_food(candidate: ExtractionCandidate, food: FoodSpec) -> ExtractionCandidate:
    """Keep only food keys naming the target food (case-insensitive substring)."""
    keywords = [kw.casefold() for kw in food.keywords]
    kept = {
        key: list(hazards)
        for key, hazards in candidate.food_terms.items()
        if any(kw in key.casefold() for kw in keywords)
    }
    return replace(candidate, food_terms=kept)


def _quote(text: str) -> str:
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def to_mapping_literal(candidate: ExtractionCandidate) -> str:
    """Canonical single-quoted mapping literal for a candidate."""
    inner = ", ".join(
        f"{_quote(key)}: [{', '.join(_quote(h) for h in hazards)}]"
        for key, hazards in candidate.food_terms.items()
    )
    return "{" + inner + "}"
