"""Link extracted hazard surfaces to ChEBI identifiers and aggregate per food.

Lookup against the expanded gazetteer comes first. A surface that misses is
treated as a potential abbreviation and traced back in its own abstract: the
defining pattern "long form (ABBR)" is searched, and the longest word window
before the parenthesis whose letters can spell the abbreviation (each word
contributing its initial) becomes the replacement surface. Per-food tables
count distinct supporting abstracts per identifier, so one chemical written
three ways in one abstract still counts once.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .artifacts import atomic_open, write_json
from .corpus import AbstractRecord, FoodSpec
from .lexicon import LexiconIndex
from .response_parser import ExtractionCandidate

ABBREVIATION_WINDOW_WORDS = 8

HAZARD_CSV_COLUMNS = (
    "food",
    "chebi_id",
    "preferred_name",
    "mention_count",
    "first_seen_year",
    "supporting_dois",
)

# A sentence boundary, ".", "!" or "?" then whitespace, read backwards: the
# first match in the reversed text is the last boundary in the text.
_REVERSED_BOUNDARY_RE = re.compile(r"\s+(?=[.!?])")
_EDGE_PUNCT_RE = re.compile(r"^[^\w]+|[^\w]+$")


@dataclass(frozen=True)
class LinkedHazard:
    food: str
    chebi_id: str
    preferred_name: str
    mention_count: int
    first_seen_year: int | None
    supporting_dois: tuple[str, ...]


@dataclass(frozen=True)
class HazardTable:
    food: str
    rows: tuple[LinkedHazard, ...]


@dataclass
class LinkOutcome:
    pairs: list[tuple[str, str]]
    unresolved: list[str]


def _word_chars(word: str) -> str:
    return "".join(ch for ch in word.casefold() if ch.isalnum())


def _letters_spell(abbr: str, words: tuple[str, ...]) -> bool:
    """Can the words spell the abbreviation?

    The abbreviation's alphanumeric characters must appear in order across the
    words' characters, every word must contribute its initial character, and
    the first abbreviation character must be the first word's initial.
    """
    chars = [_word_chars(w) for w in words]
    if not all(chars):
        return False

    @lru_cache(maxsize=None)
    def feasible(ai: int, wi: int, ci: int) -> bool:
        if wi == len(chars):
            return ai == len(abbr)
        word = chars[wi]
        if ci == len(word):
            return feasible(ai, wi + 1, 0)
        if ci == 0:
            if ai < len(abbr) and abbr[ai] == word[0]:
                return feasible(ai + 1, wi, 1)
            return False
        if ai < len(abbr) and abbr[ai] == word[ci] and feasible(ai + 1, wi, ci + 1):
            return True
        return feasible(ai, wi, ci + 1)

    return feasible(0, 0, 0)


def _sentence_before(text: str, reversed_text: str, end: int) -> str:
    """What follows the last sentence boundary in text[:end]; empty when
    text[:end] ends on one. reversed_text is text[::-1], searched from `end`
    back towards the start, so only the last sentence is ever scanned."""
    boundary = _REVERSED_BOUNDARY_RE.search(reversed_text, len(text) - end)
    return text[len(text) - boundary.start() if boundary else 0 : end]


def resolve_abbreviation(term: str, abstract_text: str) -> str:
    """Expand an abbreviation via its defining parenthesis in the abstract.

    Looks for "(term)" occurrences; for the earliest one preceded by words
    that can spell the term (longest window first, at most eight words, never
    crossing a sentence boundary), returns that word sequence. When no
    occurrence matches, the term comes back unchanged.
    """
    abbr = "".join(ch for ch in term.casefold() if ch.isalnum())
    if not abbr:
        return term
    pattern = re.compile(r"\(\s*" + re.escape(term) + r"\s*\)", re.IGNORECASE)
    reversed_text = abstract_text[::-1]
    for match in pattern.finditer(abstract_text):
        sentence = _sentence_before(abstract_text, reversed_text, match.start())
        words = sentence.split()
        for span in range(min(ABBREVIATION_WINDOW_WORDS, len(words)), 0, -1):
            window = tuple(words[-span:])
            if _letters_spell(abbr, window):
                cleaned = [_EDGE_PUNCT_RE.sub("", w) for w in window]
                return " ".join(cleaned)
    return term


def link_candidate(
    candidate: ExtractionCandidate, abstract: AbstractRecord, index: LexiconIndex
) -> LinkOutcome:
    """Resolve each hazard surface to an identifier, or record it unresolved.

    Duplicate (food surface, identifier) pairs within one candidate collapse,
    so "Cd" and "cadmium" from one response contribute a single pair.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    unresolved: list[str] = []
    for food_surface, hazards in candidate.food_terms.items():
        for hazard in hazards:
            chebi_id = index.lookup(hazard)
            if chebi_id is None:
                expanded = resolve_abbreviation(hazard, abstract.abstract_text)
                if expanded != hazard:
                    chebi_id = index.lookup(expanded)
            if chebi_id is None:
                unresolved.append(hazard)
                continue
            pair = (food_surface, chebi_id)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return LinkOutcome(pairs=pairs, unresolved=unresolved)


def aggregate(
    mentions: Iterable[tuple[str, AbstractRecord]], food: FoodSpec, index: LexiconIndex
) -> HazardTable:
    """Fold (identifier, abstract) mentions into one table row per identifier.

    mention_count is the number of distinct supporting abstracts (DOI when
    present, content key otherwise); rows sort by descending support, then
    preferred name, then identifier.
    """
    support: dict[str, set[str]] = {}
    years: dict[str, int] = {}
    for chebi_id, record in mentions:
        support.setdefault(chebi_id, set()).add(record.doi or record.record_key)
        year = record.publication_year
        if year is not None and (chebi_id not in years or year < years[chebi_id]):
            years[chebi_id] = year
    rows = [
        LinkedHazard(
            food=food.canonical_name,
            chebi_id=chebi_id,
            preferred_name=index.preferred_name(chebi_id),
            mention_count=len(keys),
            first_seen_year=years.get(chebi_id),
            supporting_dois=tuple(sorted(keys)),
        )
        for chebi_id, keys in support.items()
    ]
    rows.sort(key=lambda r: (-r.mention_count, r.preferred_name, r.chebi_id))
    return HazardTable(food=food.canonical_name, rows=tuple(rows))


def emit_report(table: HazardTable, fmt: str, destination: str | Path) -> None:
    """Write one hazard table as CSV or JSON; both carry identical rows."""
    if fmt == "csv":
        with atomic_open(destination) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HAZARD_CSV_COLUMNS)
            for row in table.rows:
                writer.writerow(
                    [
                        row.food,
                        row.chebi_id,
                        row.preferred_name,
                        row.mention_count,
                        "" if row.first_seen_year is None else row.first_seen_year,
                        ";".join(row.supporting_dois),
                    ]
                )
    elif fmt == "json":
        write_json(destination, table)
    else:
        raise ValueError(f"unsupported report format: {fmt!r}")
