"""Independent brute-force reference implementations used to pin behavior.

These are deliberately written from the rules, not from the package sources:
a character-class decomposition via itertools.groupby instead of the regex
scanner, and dict folding instead of the production aggregation. Tests assert
set-for-set / row-for-row equality between package output and these oracles.
"""

from __future__ import annotations

import random
from itertools import groupby, product

SEPARATORS = ("-", " ", "")
_DIGITS = set("0123456789")


def _cls(ch: str) -> str:
    if ch in _DIGITS:
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
    if not any(ch in _DIGITS for piece in pieces for ch in piece):
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


def random_surface_name(rng: random.Random) -> str:
    """A random dump-style name exercising every plural rule and its exceptions.

    Names mix non-ASCII letters, superscript digits, underscores, digit runs,
    single-letter tails ("vitamin-k", "aflatoxin b"), vowel-y and consonant-y
    endings, and s/x/z/ch/sh endings, with irregular spacing and case.
    """
    pieces = [rng.choice(_WORDS)]
    for _ in range(rng.randint(0, 3)):
        pieces.append(rng.choice(_JOINERS))
        roll = rng.random()
        if roll < 0.3:
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
