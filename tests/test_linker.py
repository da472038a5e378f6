"""Linking extracted hazard terms to chemical identifiers: abbreviation
back-tracing, lexicon resolution, aggregation (checked against an independent
oracle), and report emission."""

from __future__ import annotations

import csv
import json
import random
from unittest import mock

import pytest

from conftest import PREFERRED_NAMES, lexicon_index  # noqa: F401  (fixture)
from oracles import oracle_aggregate, oracle_last_sentence
from hazardex import linker
from hazardex.corpus import AbstractRecord, BUILTIN_FOODS
from hazardex.linker import (
    ABBREVIATION_WINDOW_WORDS,
    HAZARD_CSV_COLUMNS,
    HazardTable,
    LinkedHazard,
    _sentence_before,
    aggregate,
    emit_report,
    link_candidate,
    resolve_abbreviation,
)
from hazardex.artifacts import write_json
from hazardex.pipeline import _read_table
from hazardex.prompting import PromptStyle
from hazardex.response_parser import ExtractionCandidate

DAIRY = BUILTIN_FOODS["dairy"]


def abstract(text, *, doi="10.1/a", year=2018):
    return AbstractRecord(doi or f"sha256:{text[:8]}", doi, "Title", text, year)


def candidate(food_terms, key="10.1/a"):
    return ExtractionCandidate(key, PromptStyle.STEP_BY_STEP, food_terms, "well_formed")


# --------------------------------------------------------------------------
# abbreviation back-tracing
# --------------------------------------------------------------------------


class TestResolveAbbreviation:
    @pytest.mark.parametrize(
        "term,text,expected",
        [
            # plain definition immediately before the parenthesis
            ("Cd", "We measured cadmium (Cd) in dairy milk.", "cadmium"),
            ("DON", "Deoxynivalenol (DON) carryover from feed.", "Deoxynivalenol"),
            ("PFOA", "Perfluorooctanoic acid (PFOA) was detected.", "Perfluorooctanoic acid"),
            ("BPA", "Bisphenol A (BPA) migrates from packaging.", "Bisphenol A"),
            ("AFM1", "Aflatoxin M1 (AFM1) in milk.", "Aflatoxin M1"),
            ("AFB1", "Aflatoxin B1 (AFB1) contaminates maize.", "Aflatoxin B1"),
            ("OTA", "Ochratoxin A (OTA) in cereals.", "Ochratoxin A"),
            ("HCB", "Hexachlorobenzene (HCB) residues persist.", "Hexachlorobenzene"),
            ("PCB", "Polychlorinated biphenyl (PCB) then another random (PCB) mention.",
             "Polychlorinated biphenyl"),
            ("PAH", "Polycyclic aromatic hydrocarbon (PAH) levels rose.",
             "Polycyclic aromatic hydrocarbon"),
            ("PFOS", "Perfluorooctane sulfonate (PFOS) was ubiquitous.",
             "Perfluorooctane sulfonate"),
            ("HMF", "Hydroxymethylfurfural (HMF) forms in honey.", "Hydroxymethylfurfural"),
            ("BaP", "Benzo[a]pyrene (BaP) in smoked fish.", "Benzo[a]pyrene"),
            ("3-MCPD", "3-monochloropropane-1,2-diol (3-MCPD) esters occur in oils.",
             "3-monochloropropane-1,2-diol"),
            ("STX", "Saxitoxin (STX) causes paralytic shellfish poisoning.", "Saxitoxin"),
            # multi-word span with initials on separate words
            ("CP", "The carbamate pesticide (CP) class was reviewed.", "carbamate pesticide"),
            # lowercase throughout
            ("ddt", "dichlorodiphenyltrichloroethane (ddt) was banned.",
             "dichlorodiphenyltrichloroethane"),
            # mid-sentence definition after punctuation
            ("Cd", "Heavy metals, e.g. cadmium (Cd), were assayed.", "cadmium"),
            ("DON", "The toxin deoxynivalenol (DON) affects grain.", "deoxynivalenol"),
            ("MC", "The microcystin (MC) family includes many congeners.", "microcystin"),
        ],
    )
    def test_resolves(self, term, text, expected):
        assert resolve_abbreviation(term, text) == expected

    @pytest.mark.parametrize(
        "term,text",
        [
            # definition lives in the previous sentence
            ("DDT", "Dichlorodiphenyltrichloroethane was studied. Later (DDT) appeared again."),
            # the parenthesis opens a sentence: the sentence before it is empty
            ("Cd", "We measured cadmium. (Cd) levels were high."),
            ("Cd", "We measured cadmium!\n\t(Cd) levels were high."),
            # definition farther back than the word window
            ("TCDD", "Tetrachlorodibenzodioxin one two three four five six seven eight (TCDD)."),
            # no letter overlap with anything nearby
            ("XYZ", "Cadmium (XYZ) is odd."),
            # term never appears in parentheses
            ("Cd", "No parenthetical definition here."),
            # hyphenated single token hides the inner initials
            ("NDMA", "N-nitrosodimethylamine, known as (NDMA), forms during processing."),
        ],
    )
    def test_falls_back_to_the_input(self, term, text):
        assert resolve_abbreviation(term, text) == term

    def test_window_constant(self):
        assert ABBREVIATION_WINDOW_WORDS == 8

    def test_earliest_occurrence_with_a_fitting_expansion_wins(self):
        text = "Aged brie (AB) was tested. Actual bromide (AB) follows."
        assert resolve_abbreviation("AB", text) == "Aged brie"

    def test_falls_through_to_a_later_occurrence(self):
        text = "An unrelated clause (AB) opens. Actual bromide (AB) follows."
        assert resolve_abbreviation("AB", text) == "Actual bromide"

    def test_last_sentence_matches_the_split_oracle(self):
        rng = random.Random(9)
        alphabet = "ab .!?\n\t\u00a0()"
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            reversed_text = text[::-1]
            for end in range(len(text) + 1):
                assert _sentence_before(text, reversed_text, end) == oracle_last_sentence(
                    text[:end]
                ), (text, end)

    def test_resolves_like_the_split_oracle_on_long_abstracts(self):
        def split_sentence(text, reversed_text, end):
            return oracle_last_sentence(text[:end])

        rng = random.Random(10)
        words = ("Cadmium", "cadmium", "dairy", "levels", "(Cd)", "Cd.", "e.g.", "milk!", "is?")
        for _ in range(300):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 200)))
            got = resolve_abbreviation("Cd", text)
            with mock.patch.object(linker, "_sentence_before", split_sentence):
                assert got == resolve_abbreviation("Cd", text), text


# --------------------------------------------------------------------------
# candidate linking
# --------------------------------------------------------------------------


class TestLinkCandidate:
    def test_direct_lookup_beats_back_tracing(self, lexicon_index):
        # "Cd" is an indexed synonym; the abstract's parenthetical is not needed
        text = "Milk samples were screened for Cd residues over two years now."
        out = link_candidate(candidate({"dairy": ["Cd"]}), abstract(text), lexicon_index)
        assert out.pairs == [("dairy", "CHEBI:28628")]
        assert out.unresolved == []

    def test_abbreviation_back_trace_then_lookup(self, lexicon_index):
        # "DON" is not in the index; its in-text definition is
        text = "Deoxynivalenol (DON) carryover into dairy cattle was quantified."
        out = link_candidate(candidate({"dairy feed": ["DON"]}), abstract(text), lexicon_index)
        assert out.pairs == [("dairy feed", "CHEBI:4995")]

    def test_unknown_terms_are_tallied_not_dropped_silently(self, lexicon_index):
        out = link_candidate(
            candidate({"dairy": ["mystery compound X", "cadmium"]}),
            abstract("Screening of dairy whey concentrates continued apace this season."),
            lexicon_index,
        )
        assert out.pairs == [("dairy", "CHEBI:28628")]
        assert out.unresolved == ["mystery compound X"]

    def test_terms_mapping_to_one_id_dedupe_within_a_candidate(self, lexicon_index):
        text = "We measured cadmium (Cd) in dairy milk over three full seasons."
        out = link_candidate(
            candidate({"dairy milk": ["Cd", "cadmium", "cadmiums"]}),
            abstract(text),
            lexicon_index,
        )
        assert out.pairs == [("dairy milk", "CHEBI:28628")]

    def test_same_id_under_different_foods_is_kept_per_food(self, lexicon_index):
        out = link_candidate(
            candidate({"dairy": ["cadmium"], "dairy milk": ["Cd"]}),
            abstract("Cadmium levels in dairy milk were compared across regions."),
            lexicon_index,
        )
        assert out.pairs == [("dairy", "CHEBI:28628"), ("dairy milk", "CHEBI:28628")]

    def test_plural_and_variant_spellings_resolve(self, lexicon_index):
        out = link_candidate(
            candidate({"dairy": ["aflatoxin m-1", "tetracyclines"]}),
            abstract("Aflatoxin M1 and tetracycline residues were quantified in full."),
            lexicon_index,
        )
        assert out.pairs == [("dairy", "CHEBI:27744"), ("dairy", "CHEBI:27902")]


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def rows_as_tuples(table: HazardTable):
    return [
        (r.food, r.chebi_id, r.preferred_name, r.mention_count, r.first_seen_year,
         r.supporting_dois)
        for r in table.rows
    ]


class TestAggregate:
    def test_counts_distinct_abstracts_and_earliest_year(self, lexicon_index):
        a1 = abstract("Cadmium in milk was measured in winter.", doi="10.1/a", year=2018)
        a2 = abstract("Cadmium again, in cheese this time around.", doi="10.1/b", year=2015)
        mentions = [("CHEBI:28628", a1), ("CHEBI:28628", a2), ("CHEBI:28628", a1)]
        table = aggregate(mentions, DAIRY, lexicon_index)
        assert rows_as_tuples(table) == [
            ("dairy", "CHEBI:28628", "cadmium", 2, 2015, ("10.1/a", "10.1/b")),
        ]

    def test_sorted_by_count_then_name_then_id(self, lexicon_index):
        a = abstract("Multi-hazard survey of the dairy chain this year.", doi="10.1/m")
        mentions = [
            ("CHEBI:27902", a),  # tetracycline
            ("CHEBI:16526", a),  # benzene
            ("CHEBI:28628", a), ("CHEBI:28628", abstract("More cadmium data.", doi="10.1/n")),
        ]
        table = aggregate(mentions, DAIRY, lexicon_index)
        assert [r.preferred_name for r in table.rows] == ["cadmium", "benzene", "tetracycline"]

    def test_missing_doi_counts_by_content_key(self, lexicon_index):
        a1 = abstract("Lead uptake in dairy cheese production lines studied.", doi=None, year=2014)
        a2 = abstract("A different abstract on lead in dairy snacks too.", doi=None, year=2016)
        table = aggregate([("CHEBI:25016", a1), ("CHEBI:25016", a2)], DAIRY, lexicon_index)
        (row,) = table.rows
        assert row.mention_count == 2
        assert row.first_seen_year == 2014
        assert all(k.startswith("sha256:") for k in row.supporting_dois)

    def test_year_is_none_when_no_support_has_one(self, lexicon_index):
        a = AbstractRecord("10.1/u", "10.1/u", "T", "Benzene in dairy drinks examined.", None)
        table = aggregate([("CHEBI:16526", a)], DAIRY, lexicon_index)
        assert table.rows[0].first_seen_year is None

    def test_matches_oracle_on_randomized_mention_streams(self, lexicon_index):
        rng = random.Random(42)
        ids = [i for i in PREFERRED_NAMES if lexicon_index.lookup(PREFERRED_NAMES[i])]
        abstracts = [
            abstract(f"Fixture abstract number {i} about dairy hazards.",
                     doi=f"10.1/o{i}" if i % 3 else None,
                     year=2010 + i if i % 4 else None)
            for i in range(8)
        ]
        for _ in range(25):
            mentions = [
                (rng.choice(ids), rng.choice(abstracts))
                for _ in range(rng.randrange(0, 14))
            ]
            table = aggregate(mentions, DAIRY, lexicon_index)
            expected = oracle_aggregate(mentions, "dairy", PREFERRED_NAMES)
            assert rows_as_tuples(table) == expected

    def test_permutation_invariant(self, lexicon_index):
        a = abstract("Permutation check abstract for the dairy table.", doi="10.1/p")
        b = abstract("Second supporting abstract for the dairy table.", doi="10.1/q")
        mentions = [("CHEBI:28628", a), ("CHEBI:25016", b), ("CHEBI:28628", b)]
        tables = {
            tuple(rows_as_tuples(aggregate(perm, DAIRY, lexicon_index)))
            for perm in ([mentions[0], mentions[1], mentions[2]],
                         [mentions[2], mentions[0], mentions[1]],
                         [mentions[1], mentions[2], mentions[0]])
        }
        # all orderings collapse to one canonical table
        assert len(tables) == 1


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------


def sample_table(lexicon_index):
    a1 = abstract("Cadmium in dairy milk sampled from managed farms.", doi="10.1/a", year=2018)
    a2 = abstract("Cadmium in dairy products from industrial regions.", doi="10.1/b", year=2021)
    a3 = abstract("Deoxynivalenol (DON) carryover into dairy cattle.", doi="10.1/c", year=2020)
    a4 = abstract("Tetracycline residues persist in dairy supply chains.", doi="10.1/d", year=2017)
    mentions = [
        ("CHEBI:28628", a1), ("CHEBI:28628", a2),
        ("CHEBI:4995", a3), ("CHEBI:27902", a4),
    ]
    return aggregate(mentions, DAIRY, lexicon_index)


class TestEmitReport:
    def test_csv_columns_and_rows(self, lexicon_index, tmp_path):
        table = sample_table(lexicon_index)
        path = tmp_path / "hazards.csv"
        emit_report(table, "csv", path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(HAZARD_CSV_COLUMNS)
        assert [r["preferred_name"] for r in rows] == [
            "cadmium", "deoxynivalenol", "tetracycline",
        ]
        assert rows[0]["supporting_dois"] == "10.1/a;10.1/b"
        assert rows[0]["mention_count"] == "2"

    def test_json_and_csv_describe_the_same_table(self, lexicon_index, tmp_path):
        table = sample_table(lexicon_index)
        emit_report(table, "csv", tmp_path / "t.csv")
        emit_report(table, "json", tmp_path / "t.json")
        obj = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
        with (tmp_path / "t.csv").open(newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert obj["food"] == "dairy"
        assert len(obj["rows"]) == len(csv_rows)
        for json_row, csv_row in zip(obj["rows"], csv_rows):
            assert json_row["chebi_id"] == csv_row["chebi_id"]
            assert json_row["mention_count"] == int(csv_row["mention_count"])
            assert ";".join(json_row["supporting_dois"]) == csv_row["supporting_dois"]

    def test_empty_table_emits_header_only(self, lexicon_index, tmp_path):
        table = aggregate([], DAIRY, lexicon_index)
        path = tmp_path / "empty.csv"
        emit_report(table, "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(HAZARD_CSV_COLUMNS)]

    def test_unknown_format_is_rejected(self, lexicon_index, tmp_path):
        with pytest.raises(ValueError):
            emit_report(sample_table(lexicon_index), "xml", tmp_path / "t.xml")

    def test_table_json_round_trip(self, lexicon_index, tmp_path):
        table = sample_table(lexicon_index)
        write_json(tmp_path / "table.json", table)
        assert _read_table(tmp_path / "table.json") == table
