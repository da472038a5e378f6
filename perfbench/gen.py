"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the pipeline is made here from one seed: a
ChEBI-style names dump, the provider records served by the literature-search
stub, one model response per (abstract, prompt style), and a gold CSV. The
same (workload, seed) always gives byte-identical inputs.

The generator also keeps the ground truth the oracle needs: for every
abstract that survives cleaning, which identifiers each response contributes
to each food. It knows this by construction: hazard names come from a curated
pool whose surfaces no filler name can produce (every filler name carries a
marker syllable no hazard contains), and every surface a response uses is one
the names dump defines, one of its numeric-placement or plural variants, or an
abbreviation defined at the start of a sentence in the abstract itself.

This module never imports hazardex.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

STYLES = ("simple", "step_by_step", "pseudo_code")

# Food name -> (configured keywords, phrases used in abstracts, response keys).
# Keywords mirror the pipeline's built-in foods. Every phrase and key contains
# a keyword as a whole word, so food matching finds them under a substring
# rule and under a whole-word rule alike.
FOODS = {
    "maize": (("maize", "corn"), ("maize", "corn grain"), ("maize", "corn", "maize flour")),
    "salmon": (("salmon",), ("farmed salmon", "salmon fillets"), ("salmon", "farmed salmon")),
}

# Foods no keyword matches, even as a substring.
OTHER_FOODS = ("poultry", "rice", "wheat flour", "apple juice", "eggs", "honey", "olive oil")

# Sentences that contain a food keyword only inside a longer word. Only
# abstracts not about the workload's food carry one, so their responses
# name no hazard for the trap food and the expected tables are the same under
# either matching rule.
TRAPS = {
    "salmon": (
        "Salmonella enterica was not detected in any of the samples.",
        "Co-occurrence with Salmonella contamination was assessed separately.",
    ),
    "maize": (
        "Samples of popcorn sold at cinemas were included for comparison.",
        "Acorn flour from local mills was screened with the same method.",
        "A unicorn-shaped confectionery line was sampled as a control.",
    ),
}

# (name, abbreviation or None, typographic variants, plural or None)
HAZARDS = (
    ("cadmium", "Cd", (), None),
    ("lead", None, (), None),
    ("mercury", None, (), None),
    ("arsenic", "As", (), None),
    ("methylmercury", None, (), None),
    ("aflatoxin B1", "AFB1", ("aflatoxin B-1", "aflatoxin B 1"), None),
    ("aflatoxin M1", "AFM1", ("aflatoxin M-1",), None),
    ("ochratoxin A", "OTA", (), None),
    ("deoxynivalenol", "DON", (), None),
    ("zearalenone", "ZEN", (), None),
    ("fumonisin B1", "FB1", ("fumonisin B-1",), None),
    ("nivalenol", "NIV", (), None),
    ("T-2 toxin", None, ("T2 toxin", "T-2-toxin"), "T-2 toxins"),
    ("patulin", None, (), None),
    ("citrinin", None, (), None),
    ("sterigmatocystin", None, (), None),
    ("ergotamine", None, (), None),
    ("acrylamide", None, (), None),
    ("benzene", None, (), None),
    ("furan", None, (), "furans"),
    ("dioxin", None, (), "dioxins"),
    ("bisphenol A", "BPA", (), None),
    ("perfluorooctanoic acid", "PFOA", (), None),
    ("perfluorooctane sulfonate", "PFOS", (), "perfluorooctane sulfonates"),
    ("polychlorinated biphenyl", "PCB", (), "polychlorinated biphenyls"),
    ("PCB 153", None, ("PCB-153", "PCB153"), None),
    ("hexachlorobenzene", "HCB", (), None),
    ("dichlorodiphenyltrichloroethane", "DDT", (), None),
    ("chlorpyrifos", None, (), None),
    ("glyphosate", None, (), None),
    ("carbendazim", None, (), None),
    ("imidacloprid", None, (), None),
    ("thiamethoxam", None, (), None),
    ("clothianidin", None, (), None),
    ("cypermethrin", None, (), None),
    ("deltamethrin", None, (), None),
    ("permethrin", None, (), None),
    ("lindane", None, (), None),
    ("endosulfan", None, (), None),
    ("atrazine", None, (), None),
    ("dimethoate", None, (), None),
    ("malathion", None, (), None),
    ("diazinon", None, (), None),
    ("fipronil", None, (), None),
    ("chlordecone", None, (), None),
    ("toxaphene", None, (), None),
    ("nitrate", None, (), "nitrates"),
    ("nitrite", None, (), "nitrites"),
    ("perchlorate", None, (), "perchlorates"),
    ("chlorate", None, (), "chlorates"),
    ("bromate", None, (), None),
    ("histamine", None, (), None),
    ("tyramine", None, (), None),
    ("cadaverine", None, (), None),
    ("putrescine", None, (), None),
    ("tetracycline", None, (), "tetracyclines"),
    ("oxytetracycline", None, (), None),
    ("chloramphenicol", "CAP", (), None),
    ("enrofloxacin", None, (), None),
    ("ciprofloxacin", None, (), None),
    ("sulfamethazine", None, (), None),
    ("ivermectin", None, (), None),
    ("nitrofurazone", None, (), None),
    ("semicarbazide", "SEM", (), None),
    ("diethylstilbestrol", "DES", (), None),
    ("melamine", None, (), None),
    ("malachite green", "MG", (), None),
    ("rhodamine B", None, (), None),
    ("saxitoxin", "STX", (), None),
    ("tetrodotoxin", "TTX", (), None),
    ("domoic acid", "DA", (), None),
    ("okadaic acid", "OA", (), None),
    ("brevetoxin", None, (), "brevetoxins"),
    ("ciguatoxin", None, (), None),
    ("azaspiracid", None, (), None),
    ("yessotoxin", None, (), None),
    ("polonium-210", None, ("polonium 210", "210-polonium"), None),
    ("caesium-137", None, ("caesium 137",), None),
    ("strontium-90", None, ("strontium 90", "90-strontium"), None),
    ("tributyltin", "TBT", (), None),
    ("nickel", None, (), None),
    ("chromium", None, (), None),
    ("antimony", None, (), None),
    ("thallium", None, (), None),
    ("uranium", None, (), None),
    ("ethylene oxide", "EO", (), None),
    ("ethyl carbamate", "EC", (), None),
    ("N-nitrosodimethylamine", "NDMA", (), None),
    ("hydroxymethylfurfural", "HMF", (), None),
    ("hydrogen cyanide", "HCN", (), None),
    ("glycidol", None, (), None),
    ("acrolein", None, (), None),
    ("formaldehyde", None, (), None),
    ("amygdalin", None, (), None),
    ("solanine", None, (), None),
)
HAZARD_ID_BASE = 500_000

# Names no index entry matches: they reach the abbreviation back-trace and
# stay unresolved.
UNKNOWN_NAMES = (
    "unidentified contaminant",
    "mystery compound X",
    "toxic residues",
    "heavy metals",
    "chemical residues",
    "mycotoxins",
    "pesticide residues",
)

# Every filler stem ends in one of these; no hazard name contains one.
MARKERS = ("vox", "qir", "zyx", "jev", "kuz", "wop")
_CONSONANTS = "bdfgklmnprst"
_VOWELS = "aeiou"
_SUFFIXES = ("ine", "ol", "ate", "ide", "ene", "one", "ane", "in", "ic acid", " oxide")
_NAME_TYPES = ("SYNONYM", "SYNONYM", "IUPAC NAME", "INN", "BRAND NAME")

FILLER_SENTENCES = (
    "Samples were collected over two consecutive seasons from retail outlets and producers.",
    "Extraction followed a modified QuEChERS protocol with dispersive clean-up.",
    "Quantification used isotope-labelled internal standards & matrix-matched calibration.",
    "Limits of quantification ranged from 0.5 to 5 ug/kg depending on the analyte.",
    "Recoveries between 78 and 104 percent were obtained at three spiking levels.",
    "Dietary exposure was estimated with deterministic and probabilistic models.",
    "Hazard quotients above one were observed only for high consumers.",
    "The results support continued monitoring within national control programmes.",
    "Processing steps such as washing and cooking reduced levels only partially.",
    "Regional differences were attributed to soil composition and irrigation water.",
    "The margin of exposure approach indicated a possible health concern for children.",
    "Findings were compared with maximum levels set in current food legislation.",
    "Risk characterisation accounted for body weight and consumption frequency.",
    "Statistical analysis showed a significant effect of production system (p < 0.05).",
    "Further work should address cumulative exposure from multiple dietary sources.",
)

REASONING_LINES = (
    "Step 1: I read the abstract and list every chemical it names, including abbreviations.",
    "Step 2: I list the foods the abstract studies, keeping the wording of the text.",
    "Step 3: I pair each food with each chemical and check whether the text reports it as a contaminant.",
    "Step 4: I keep only the pairs the abstract's findings support; methods and controls aren't hazards.",
    "Note: the study's internal standards and reagents are not food safety hazards, so I leave them out.",
    "Where the abstract gives both a full name and an abbreviation, I report what the authors wrote.",
    "The exposure assessment mentions consumers' intake but doesn't add new chemicals to the list.",
)

_KEY_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")

ON_TOPIC = 0.95  # share of abstracts about the workload's food
TRAPPED = 0.5  # share of the other abstracts that carry a trap sentence
LATENCY_MEAN_MS = 8.0  # completion stub's mean answer latency; see _stub_behaviour


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload's inputs."""

    filler_ids: int
    raw_records: int
    food: str
    styles: tuple[str, ...]
    backend: str  # "mock", or "http" with long, messy responses
    # How a run samples each stage (perfbench/run.py, end_to_end): the heavy
    # stage's commands run once, and one command of the slow stage is
    # replayed per round.
    heavy_stage: str
    slow_stage: str
    refuse_share: float = 0.0

    @property
    def runs(self) -> tuple[tuple[str, str], ...]:
        """The (food, style) pairs the workload extracts."""
        return tuple((self.food, s) for s in self.styles)


SPECS = {
    "lexicon_full": Spec(
        filler_ids=90_000,
        raw_records=1_100,
        food="maize",
        styles=STYLES,
        backend="mock",
        heavy_stage="build_lexicon",
        slow_stage="link",
    ),
    "extract_stub": Spec(
        filler_ids=3_000,
        raw_records=1_600,
        food="salmon",
        styles=("step_by_step",),
        backend="http",
        heavy_stage="extract",
        slow_stage="",
        refuse_share=0.05,
    ),
}


@dataclass
class Abstract:
    """One record that survives cleaning, with what the oracle needs to know."""

    number: int
    doi: str | None
    year: int
    text: str
    foods: tuple[str, ...]
    record_key: str = ""
    support_key: str = ""
    # style -> response text; style -> food -> identifiers the response links
    responses: dict[str, str] = field(default_factory=dict)
    contributions: dict[str, dict[str, list[str]]] = field(default_factory=dict)


@dataclass
class Inputs:
    spec: Spec
    dump_rows: list[str]
    hazard_names: dict[str, str]
    provider_records: list[dict]
    abstracts: list[Abstract]
    gold_rows: list[tuple[str, str, str]]
    refused: frozenset[int] = frozenset()
    latency_s: dict[int, float] = field(default_factory=dict)

    def sizes(self) -> dict:
        spec = self.spec
        completions = len(spec.styles) * sum(1 for a in self.abstracts if _mentions(a.text, spec.food))
        return {
            "dump_rows": len(self.dump_rows),
            "dump_ids": spec.filler_ids + len(HAZARDS),
            "provider_records": len(self.provider_records),
            "kept_records": len(self.abstracts),
            "completions": completions,
            "refused": len(self.refused),
            "traps": sum(1 for a in self.abstracts if not a.foods and _mentions(a.text, spec.food)),
            "gold_rows": len(self.gold_rows),
        }


def _mentions(text: str, food: str) -> bool:
    """Substring food match, the widest rule the pipeline may apply."""
    folded = text.casefold()
    return any(kw in folded for kw in FOODS[food][0])


def fixture_filename(record_key: str, style: str) -> str:
    """Mock-backend fixture name for one (abstract key, style)."""
    return f"{style}__{_KEY_SAFE_RE.sub('_', record_key)}.txt"


def hazard_table() -> list[tuple[str, str, str | None, tuple[str, ...], str | None]]:
    out = []
    for i, (name, abbr, variants, plural) in enumerate(HAZARDS):
        out.append((f"CHEBI:{HAZARD_ID_BASE + i}", name, abbr, variants, plural))
    return out


def _check_pool() -> None:
    seen = set()
    for _, name, _, variants, plural in hazard_table():
        folded = name.casefold()
        if any(m in folded for m in MARKERS):
            raise AssertionError(f"hazard {name!r} contains a filler marker")
        for form in (name, *variants, *([plural] if plural else [])):
            key = form.casefold()
            if key in seen:
                raise AssertionError(f"hazard surface {form!r} used twice")
            seen.add(key)


# ---------------------------------------------------------------- names dump


def _stem(rng: random.Random) -> str:
    syllables = rng.choice((1, 2, 2, 3))
    body = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
    return body + rng.choice(MARKERS)


def _filler_name(rng: random.Random, stem: str) -> str:
    """One name shaped like a ChEBI name; the shape sets its surface count."""
    r = rng.random()
    suffix = rng.choice(_SUFFIXES)
    if r < 0.50:
        return stem + suffix  # plain word: name + plural
    if r < 0.62:
        return f"{rng.choice(('methyl', 'ethyl', 'sodium', 'dimethyl'))} {stem}{suffix}"
    if r < 0.72:
        return f"{rng.randint(1, 9)}-{stem}{suffix}"  # digit prefix, swappable
    if r < 0.82:
        return f"{stem}{suffix.strip()} {rng.choice('ABCDGM')}{rng.randint(1, 4)}"
    if r < 0.88:
        return f"{stem}-{rng.randint(10, 250)}"
    if r < 0.95:
        a, b = sorted(rng.sample(range(1, 9), 2))
        return f"{a},{b}-di{stem}-{rng.randint(1, 9)}-ol"
    return f"α-{stem}{suffix}"


def _dump(rng: random.Random, filler_ids: int) -> list[str]:
    hazards = hazard_table()
    hazard_ids = {int(cid.split(":")[1]): name for cid, name, *_ in hazards}
    ids = sorted(rng.sample(range(1, HAZARD_ID_BASE), filler_ids))
    used: set[str] = set()
    rows = ["ID\tCOMPOUND_ID\tTYPE\tSOURCE\tNAME\tADAPTED\tLANGUAGE"]
    row_id = 0

    def emit(cid: int, kind: str, name: str) -> None:
        nonlocal row_id
        row_id += 1
        rows.append(f"{row_id}\t{cid}\t{kind}\tChEBI\t{name}\tF\ten")

    for cid in ids:
        names = []
        for _ in range(1 + rng.choice((0, 0, 1, 1, 2, 3))):
            while True:
                name = _filler_name(rng, _stem(rng))
                if name not in used:
                    used.add(name)
                    names.append(name)
                    break
        emit(cid, "NAME", names[0])
        for name in names[1:]:
            emit(cid, rng.choice(_NAME_TYPES), name)
        if rng.random() < 0.001:
            row_id += 1
            rows.append(f"{row_id}\t\tSYNONYM\tChEBI\t\tF\ten")  # malformed: skipped
    for cid, name in sorted(hazard_ids.items()):
        emit(cid, "NAME", name)
    return rows


def write_dump(rows: list[str], path: Path) -> None:
    data = ("\n".join(rows) + "\n").encode("utf-8")
    with path.open("wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=1) as fh:
        fh.write(data)


# ---------------------------------------------------------------- abstracts


def _cap(text: str) -> str:
    return text[0].upper() + text[1:]


def _mention_sentence(rng: random.Random, name: str, phrase: str) -> str:
    return rng.choice(
        (
            f"Concentrations of {name} in {phrase} exceeded the maximum level in {rng.randint(2, 30)} of {rng.randint(31, 120)} samples.",
            f"{_cap(name)} was detected in {phrase} collected from {rng.choice(('coastal', 'inland', 'urban', 'rural'))} markets.",
            f"Exposure to {name} through consumption of {phrase} was estimated for adult consumers.",
            f"The mean level of {name} in {phrase} was {rng.randint(1, 90)}.{rng.randint(0, 9)} ug/kg.",
        )
    )


def _definition_sentence(rng: random.Random, name: str, abbr: str, phrase: str) -> str:
    # Starts the sentence, so the back-trace window is the long form itself.
    tail = rng.choice(
        (
            f"was quantified in {phrase} by LC-MS/MS.",
            f"occurred in {phrase} from {rng.randint(3, 14)} producing regions.",
            f"levels in {phrase} were compared with the tolerable intake.",
        )
    )
    return f"{_cap(name)} ({abbr}) {tail}"


def _raw_markup(rng: random.Random, text: str) -> str:
    """Provider form of a clean text: tags, entities and boilerplate to strip."""
    words = text.split(" ")
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(words))
        tag = rng.choice(("i", "b", "sup", "sub"))
        words[i] = f"<{tag}>{words[i]}</{tag}>"
    out = []
    for i, word in enumerate(words):
        word = word.replace("&", rng.choice(("&amp;", "&amp;amp;", "&#38;")))
        sep = "&nbsp;" if i and rng.random() < 0.02 else " "
        out.append((sep if i else "") + word)
    body = "".join(out)
    if rng.random() < 0.3:
        body += " <!-- provider note -->"
    if rng.random() < 0.4:
        body += f" Copyright © {rng.randint(2000, 2022)} Elsevier Ltd. All rights reserved."
    return f"<p>{body}</p>" if rng.random() < 0.5 else f"<jats:p>{body}</jats:p>"


def _abstract(rng: random.Random, number: int, spec: Spec, hazards, doi_seed: int):
    """One clean abstract, its provider record, and the hazards it reports per food."""
    foods = (spec.food,) if rng.random() < ON_TOPIC else ()
    sentences = [f"Sample set {number} was analysed for chemical contaminants."]
    # food -> hazard indexes; hazards whose abbreviation the abstract defines
    picked: dict[str, list[int]] = {}
    defined: set[int] = set()
    for food in foods:
        phrase = rng.choice(FOODS[food][1])
        chosen = rng.sample(range(len(hazards)), rng.randint(1, 4))
        picked[food] = []
        for h in chosen:
            _, name, abbr, _, _ = hazards[h]
            if abbr and h not in defined and rng.random() < 0.5:
                sentences.append(_definition_sentence(rng, name, abbr, phrase))
                defined.add(h)
            else:
                sentences.append(_mention_sentence(rng, name, phrase))
            picked[food].append(h)
    if not foods:
        sentences.append(
            _mention_sentence(rng, hazards[rng.randrange(len(hazards))][1], rng.choice(OTHER_FOODS))
        )
    for _ in range(rng.randint(2, 6)):
        sentences.insert(rng.randint(1, len(sentences)), rng.choice(FILLER_SENTENCES))
    if not foods and rng.random() < TRAPPED:
        sentences.insert(rng.randint(1, len(sentences)), rng.choice(TRAPS[spec.food]))
    text = " ".join(sentences)
    doi = f"10.5555/hzx.{doi_seed}.{number}" if rng.random() < 0.9 else None
    year = rng.randint(1995, 2022)
    abstract = Abstract(number=number, doi=doi, year=year, text=text, foods=foods)
    abstract.record_key = doi if doi else "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    abstract.support_key = doi if doi else abstract.record_key
    lead = hazards[picked[foods[0]][0]][1] if foods else "chemical contaminants"
    raw = {
        "id": f"HZX{number}",
        "title": _raw_markup(rng, f"Occurrence of {lead} in food: a survey") if rng.random() < 0.2
        else f"Occurrence of {lead} in food: a survey",
        "abstractText": _raw_markup(rng, text),
        "pubYear": str(year),
        "pubTypeList": {"pubType": ["research-article", "Journal Article"]},
    }
    if doi:
        raw["doi"] = doi
    return abstract, raw, picked, defined


# ---------------------------------------------------------------- responses


def _surface(rng: random.Random, hazard, abbr_defined: bool) -> str:
    _, name, abbr, variants, plural = hazard
    if abbr_defined and rng.random() < 0.6:
        return abbr
    r = rng.random()
    if variants and r < 0.4:
        return rng.choice(variants)
    if plural and r < 0.6:
        return plural
    if r < 0.75:
        return _cap(name)
    if r < 0.8:
        return name.upper()
    return name


def _well_formed(rng: random.Random, mapping: list[tuple[str, list[str]]]) -> str:
    form = rng.random()
    if form < 0.5:
        return "{" + ", ".join(f"{k!r}: [{', '.join(map(repr, hs))}]" for k, hs in mapping) + "}"
    if form < 0.8:
        return json.dumps(dict(mapping))
    return "{" + ", ".join(f"{k}: [{', '.join(hs)}]" for k, hs in mapping) + "}"  # bare words


def _recovered(rng: random.Random, mapping: list[tuple[str, list[str]]]) -> str:
    """A mapping the parser reads only with an accommodation."""
    form = rng.randrange(3)
    parts = []
    for k, hs in mapping:
        if form == 0 and len(hs) == 1:
            parts.append(f"'{k}': '{hs[0]}'")  # bare string instead of a list
        elif form == 1 and hs:
            half = max(1, len(hs) // 2)
            sub = f"{{'reported': [{', '.join(repr(h) for h in hs[:half])}], 'suspected': [{', '.join(repr(h) for h in hs[half:])}]}}"
            parts.append(f"'{k}': {sub}")  # hazards nested one level down
        else:
            parts.append(f"'{k}': [{', '.join(repr(h) for h in [*hs, ''])}]")  # empty item
    if form == 2 and mapping:
        k, hs = mapping[0]
        parts.append(f"'{k}': [{', '.join(repr(h) for h in hs)}]")  # duplicate key
    return "{" + ", ".join(parts) + "}"


def _unparseable(rng: random.Random, mapping: list[tuple[str, list[str]]]) -> str:
    k, hs = mapping[0] if mapping else ("food", ["chemical"])
    form = rng.randrange(3)
    if form == 0:
        return "I could not identify food-chemical pairs with confidence in this abstract."
    if form == 1:
        items = " ".join(repr(h) for h in [*hs, "residues"])
        return f"{{'{k}': [{items}]}}"  # missing commas
    return f"{{'{k}': [{', '.join(repr(h) for h in hs)}"  # cut off mid-mapping


def _response(rng: random.Random, style: str, mapping, status: str, long: bool, abstract: Abstract) -> str:
    if status == "well_formed":
        body = _well_formed(rng, mapping)
    elif status == "recovered":
        body = _recovered(rng, mapping)
    else:
        body = _unparseable(rng, mapping)
    chemicals = sorted({h for _, hs in mapping for h in hs})
    foods = [k for k, _ in mapping]
    lines = []
    if long:
        lines += rng.sample(REASONING_LINES, rng.randint(3, len(REASONING_LINES)))
        lines.append("The abstract reads: " + abstract.text[: rng.randint(200, 900)])
        if status != "unparseable" and rng.random() < 0.3:
            lines.append("Expected format: {'food': ['chemical', 'chemical']}")
    if style == "step_by_step":
        lines += [f"Chemicals: [{', '.join(chemicals)}]", f"Foods: [{', '.join(foods)}]", f"Dictionary: {body}"]
    elif style == "pseudo_code":
        lines += ["```python", f"chemical_hazards_per_food = {body}", "```"]
    else:
        lines.append(body)
    return "\n\n".join(lines) if long else "\n".join(lines)


def _respond(rng: random.Random, abstract: Abstract, picked, defined, hazards, spec: Spec, style: str) -> None:
    keep = {"simple": 0.85, "step_by_step": 0.95, "pseudo_code": 0.9}[style]
    mapping: list[tuple[str, list[str]]] = []
    linked: dict[str, set[str]] = {}
    for food in abstract.foods:
        key = rng.choice(FOODS[food][2])
        surfaces, ids = [], set()
        for h in picked[food]:
            if rng.random() < keep:
                surfaces.append(_surface(rng, hazards[h], h in defined))
                ids.add(hazards[h][0])
        if rng.random() < 0.15:  # a hazard the abstract never mentions
            h = rng.randrange(len(hazards))
            surfaces.append(hazards[h][1])
            ids.add(hazards[h][0])
        if rng.random() < 0.2:
            surfaces.append(rng.choice(UNKNOWN_NAMES))
        # Undefined anywhere in the abstract, so the back-trace cannot resolve it.
        undefined = [h for h in picked[food] if hazards[h][2] and h not in defined]
        if undefined and rng.random() < 0.3:
            surfaces.append(hazards[rng.choice(undefined)][2])  # abbreviation with no definition
        mapping.append((key, _dedupe_folded(surfaces)))
        linked[food] = ids
    if rng.random() < 0.2 or not mapping:
        mapping.append((rng.choice(OTHER_FOODS), [hazards[rng.randrange(len(hazards))][1]]))
    r = rng.random()
    status = "well_formed" if r < 0.72 else "recovered" if r < 0.92 else "unparseable"
    abstract.responses[style] = _response(rng, style, mapping, status, spec.backend == "http", abstract)
    abstract.contributions[style] = {
        food: (sorted(ids) if status != "unparseable" else []) for food, ids in linked.items()
    }


def _dedupe_folded(items: list[str]) -> list[str]:
    seen, out = set(), []
    for item in items:
        if item.casefold() not in seen:
            seen.add(item.casefold())
            out.append(item)
    return out


# ---------------------------------------------------------------- assembly


def generate(workload: str, seed: int) -> Inputs:
    _check_pool()
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    hazards = hazard_table()
    dump_rows = _dump(random.Random(f"{workload}:{seed}:dump"), spec.filler_ids)

    abstracts: list[Abstract] = []
    provider: list[dict] = []
    extras = int(spec.raw_records * 0.08)
    number = 0
    while len(abstracts) < spec.raw_records - extras:
        number += 1
        abstract, raw, picked, defined = _abstract(rng, number, spec, hazards, seed)
        if abstract.doi is None and any(a.record_key == abstract.record_key for a in abstracts[-50:]):
            continue
        for style in spec.styles:
            _respond(rng, abstract, picked, defined, hazards, spec, style)
        abstracts.append(abstract)
        provider.append(raw)

    # Records cleaning or dedup must drop; each is placed after its original.
    for i in range(extras):
        kind = i % 6
        pos = rng.randrange(1, len(provider) + 1)
        number += 1
        if kind in (0, 1):
            earlier = [p for p in provider[:pos] if p.get("doi")]
            if earlier:
                dup = dict(rng.choice(earlier))
                dup["id"] = f"HZX{number}"
                dup["doi"] = f"  {dup['doi'].upper()} "
                dup["abstractText"] = dup["abstractText"].replace("analysed", "re-analysed")
                provider.insert(pos, dup)
                continue
        if kind == 2:
            earlier = [p for p in provider[:pos] if not p.get("doi")]
            if earlier:
                dup = dict(rng.choice(earlier))
                dup["id"] = f"HZX{number}"
                provider.insert(pos, dup)
                continue
        rec = {
            "id": f"HZX{number}",
            "doi": f"10.5555/hzx.{seed}.x{number}",
            "title": "Survey of contaminants in food",
            "abstractText": "Sample set analysed. " * 4,
            "pubYear": str(rng.randint(1995, 2022)),
            "pubTypeList": {"pubType": ["research-article"]},
        }
        if kind == 3:
            rec["title"] = "Erratum to: " + rec["title"]
        elif kind == 4:
            rec["pubTypeList"] = {"pubType": ["Published Erratum"]}
        elif kind == 5:
            rec["abstractText"] = rng.choice(("Abstract not available.", "<p> </p>", ""))
        provider.insert(pos, rec)

    hazard_ids = [h[0] for h in hazards]
    gold = []
    for cid in hazard_ids:
        r = rng.random()
        if r < 0.05:
            continue  # left unjudged
        gold.append((spec.food, cid, "correct" if r < 0.8 else "incorrect"))

    inputs = Inputs(
        spec=spec,
        dump_rows=dump_rows,
        hazard_names={h[0]: h[1] for h in hazards},
        provider_records=provider,
        abstracts=abstracts,
        gold_rows=gold,
    )
    if spec.backend == "http":
        _stub_behaviour(inputs, random.Random(f"{workload}:{seed}:latency"))
    return inputs


def _stub_behaviour(inputs: Inputs, rng: random.Random, mean_ms: float = LATENCY_MEAN_MS) -> None:
    """Per-prompt latency and one-shot refusals for the completion stub.

    The latency model is a time-budget stand-in, not a measurement of any
    model server: Pareto draws (shape 1.6, tail capped at 50 times the
    minimum) scaled to a fixed mean, so the total wait is the same for every
    seed and only its spread over the prompts changes. Real servers answer in
    seconds; the mean here is chosen so that the wait is most of the extract
    command's wall time while a run stays short. The benchmark prints the
    measured share with every run.

    Refusals go only to abstracts about the food. Every food-matching rule
    prompts those, so the refusals a cold pass meets do not depend on it.
    """
    food = inputs.spec.food
    asked = [a.number for a in inputs.abstracts if _mentions(a.text, food)]
    draws = [min(rng.paretovariate(1.6), 50.0) for _ in asked]
    scale = mean_ms * len(draws) / sum(draws)
    inputs.latency_s = {n: d * scale / 1000.0 for n, d in zip(asked, draws)}
    about = [a.number for a in inputs.abstracts if food in a.foods]
    inputs.refused = frozenset(rng.sample(about, round(len(about) * inputs.spec.refuse_share)))


def write_inputs(inputs: Inputs, root: Path, endpoints: dict) -> Path:
    """Lay out dump, fixtures, gold and config under root; return the config path."""
    root.mkdir(parents=True, exist_ok=True)
    write_dump(inputs.dump_rows, root / "names.tsv.gz")
    with (root / "gold.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("food,chebi_id,verdict,note\n")
        for food, cid, verdict in inputs.gold_rows:
            fh.write(f"{food},{cid},{verdict},\n")
    fixtures = root / "fixtures"
    fixtures.mkdir(exist_ok=True)
    if inputs.spec.backend == "mock":
        for a in inputs.abstracts:
            if _mentions(a.text, inputs.spec.food):
                for style in inputs.spec.styles:
                    (fixtures / fixture_filename(a.record_key, style)).write_text(
                        a.responses[style], encoding="utf-8"
                    )
    backend = (
        f"backend:\n  kind: http\n  url: {endpoints['completions']}\n  model: stub\n"
        if inputs.spec.backend == "http"
        else "backend:\n  kind: mock\n  fixtures_dir: fixtures\n"
    )
    config = (
        "api:\n"
        f"  endpoint: {endpoints['search']}\n"
        "  cutoff_date: 2023-04-02\n"
        "  rate_limit: 10\n"
        "lexicon:\n"
        "  chebi_dump: names.tsv.gz\n"
        + backend
        + "run:\n"
        "  workdir: work\n"
        f"  concurrency: {endpoints['concurrency']}\n"
        "evaluation:\n"
        "  gold: gold.csv\n"
    )
    path = root / "config.yaml"
    path.write_text(config, encoding="utf-8")
    return path


def truth(inputs: Inputs, answered: set[int] | None = None) -> dict:
    """Ground truth for the oracle: per (food, style) contributing abstracts.

    `answered` limits the abstracts to those whose completion was stored
    (all of them when None).
    """
    runs = []
    for food, style in inputs.spec.runs:
        contributions = []
        for a in inputs.abstracts:
            if answered is not None and a.number not in answered:
                continue
            ids = a.contributions.get(style, {}).get(food, [])
            if ids:
                contributions.append({"support": a.support_key, "year": a.year, "ids": ids})
        runs.append({"food": food, "style": style, "contributions": contributions})
    return {"names": inputs.hazard_names, "gold": inputs.gold_rows, "runs": runs}
