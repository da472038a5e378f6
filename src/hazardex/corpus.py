"""Abstract corpus handling: query assembly, record cleaning, dedup, food filtering.

Raw search hits come in with embedded markup, boilerplate copyright sentences
and duplicates; everything downstream (prompting, linking) assumes the cleaned
single-line plain-text form produced here.
"""

from __future__ import annotations

import hashlib
import html
import re
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator

# Query term groups: hazard vocabulary AND health vocabulary, combined with a
# publication-date ceiling. Wildcards are passed through to the search engine.
HAZARD_TERMS = (
    "food contamination",
    "chemical pollutant*",
    "chemical hazard*",
    "contamina*",
    "toxin*",
    "toxic substance*",
    "toxic compound*",
    "pollutant*",
    "agricultural chemical*",
    "chemical compound*",
    "chemical substance*",
    "residu*",
)

HEALTH_TERMS = (
    "public health",
    "haccp",
    "consumer protection",
    "consumer*",
    "food safety",
    "risk assessment*",
    "risk analys*",
    "hazard analys*",
    "human health*",
    "health impact",
    "health risk*",
    "bioaccumulation",
)

# Field tags searched for every term: title, abstract and keywords.
_QUERY_FIELDS = ("TITLE", "ABSTRACT", "KW")

MIN_ABSTRACT_CHARS = 60

_COPYRIGHT_MARKERS = ("©", "copyright", "all rights reserved")
_ERRATUM_TITLE_MARKERS = ("erratum", "correction to", "corrigendum", "retraction")
_ERRATUM_PUB_TYPES = ("erratum", "correction", "corrigendum", "retraction")

REJECT_EMPTY = "empty"
REJECT_TOO_SHORT = "too_short"
REJECT_ERRATUM = "erratum"

_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>|<!--.*?-->", re.DOTALL)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class SearchQuery:
    """A rendered provider query plus the date ceiling it encodes."""

    rendered: str
    cutoff_date: date


@dataclass(frozen=True)
class RawRecord:
    """One search hit as returned by the provider, before any cleaning."""

    source_id: str
    doi: str | None
    title: str
    abstract_text: str
    publication_year: int | None
    publication_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class AbstractRecord:
    """A cleaned, deduplicatable abstract ready for prompting."""

    record_key: str
    doi: str | None
    title: str
    abstract_text: str
    publication_year: int | None


@dataclass(frozen=True)
class Rejection:
    """Why a raw record was dropped during cleaning."""

    source_id: str
    reason: str


@dataclass(frozen=True)
class FoodSpec:
    """A food of interest plus the surface keywords that identify it in text."""

    canonical_name: str
    keywords: frozenset[str]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError(f"food {self.canonical_name!r} has no keywords")


BUILTIN_FOODS: dict[str, FoodSpec] = {
    spec.canonical_name: spec
    for spec in (
        FoodSpec(
            "leafy_greens",
            frozenset({"leafy green", "leafy greens", "leafy vegetable", "leafy vegetables"}),
        ),
        FoodSpec("shellfish", frozenset({"shellfish"})),
        FoodSpec("dairy", frozenset({"dairy"})),
        FoodSpec("maize", frozenset({"maize", "corn"})),
        FoodSpec("salmon", frozenset({"salmon"})),
    )
}


def _field_clause(term: str) -> str:
    scoped = " OR ".join(f"{f}:'{term}'" for f in _QUERY_FIELDS)
    return f"({scoped})"


def build_search_query(cutoff_date: date) -> SearchQuery:
    """Assemble the corpus query: hazard terms AND health terms, dated <= cutoff."""
    hazard = " OR ".join(_field_clause(t) for t in HAZARD_TERMS)
    health = " OR ".join(_field_clause(t) for t in HEALTH_TERMS)
    rendered = (
        f"(({hazard}) AND ({health}))"
        f" AND (FIRST_PDATE:[* TO {cutoff_date.isoformat()}])"
    )
    return SearchQuery(rendered=rendered, cutoff_date=cutoff_date)


def _unescape_entities(text: str) -> str:
    # Some providers double-escape entities; decode to a fixpoint so cleaning
    # stays idempotent. Each pass strictly shrinks, so this terminates.
    while True:
        decoded = html.unescape(text)
        if decoded == text:
            return decoded
        text = decoded


def _strip_markup(text: str) -> str:
    text = _unescape_entities(text)
    if "<" in text:
        text = _TAG_RE.sub(" ", text)
    # str.split and the regex `\s` share one definition of whitespace.
    return " ".join(text.split())


def _has_copyright_marker(text: str) -> bool:
    folded = text.casefold()
    return any(marker in folded for marker in _COPYRIGHT_MARKERS)


def _drop_copyright_sentences(text: str) -> str:
    """Drop every sentence that carries a copyright marker from markup-free
    text. No marker spans a sentence break, so text without one anywhere is
    returned as it is: `_strip_markup` leaves single spaces, and the split
    and join would give it back unchanged."""
    if not _has_copyright_marker(text):
        return text
    kept = [s for s in _SENTENCE_SPLIT_RE.split(text) if not _has_copyright_marker(s)]
    return " ".join(kept).strip()


def clean_text(text: str) -> str:
    """Strip markup, collapse whitespace and drop copyright boilerplate."""
    return _drop_copyright_sentences(_strip_markup(text))


def _looks_like_erratum(raw: RawRecord) -> bool:
    title = raw.title.casefold()
    if any(marker in title for marker in _ERRATUM_TITLE_MARKERS):
        return True
    for pub_type in raw.publication_types:
        folded = pub_type.casefold()
        if any(marker in folded for marker in _ERRATUM_PUB_TYPES):
            return True
    return False


def content_key(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_key_for(doi: str | None, abstract_text: str) -> str:
    if doi:
        return doi.strip().casefold()
    return content_key(abstract_text)


def clean_record(raw: RawRecord) -> AbstractRecord | Rejection:
    """Clean one raw hit, or explain why it is unusable."""
    if _looks_like_erratum(raw):
        return Rejection(raw.source_id, REJECT_ERRATUM)
    text = clean_text(raw.abstract_text or "")
    if not text:
        return Rejection(raw.source_id, REJECT_EMPTY)
    if len(text) < MIN_ABSTRACT_CHARS:
        return Rejection(raw.source_id, REJECT_TOO_SHORT)
    title = clean_text(raw.title or "")
    doi = raw.doi.strip() if raw.doi and raw.doi.strip() else None
    return AbstractRecord(
        record_key=record_key_for(doi, text),
        doi=doi,
        title=title,
        abstract_text=text,
        publication_year=raw.publication_year,
    )


def dedupe(records: Iterable[AbstractRecord]) -> Iterator[AbstractRecord]:
    """Keep the first record per record_key, preserving input order."""
    seen: set[str] = set()
    for rec in records:
        if rec.record_key in seen:
            continue
        seen.add(rec.record_key)
        yield rec


def matches_food(record: AbstractRecord, food: FoodSpec) -> bool:
    text = record.abstract_text.casefold()
    return any(kw.casefold() in text for kw in food.keywords)


def filter_by_food(records: Iterable[AbstractRecord], food: FoodSpec) -> Iterator[AbstractRecord]:
    """Yield records whose abstract text mentions any of the food's keywords."""
    for rec in records:
        if matches_food(rec, food):
            yield rec
