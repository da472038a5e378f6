"""Corpus construction: cleaning, rejection, keys, dedup, food filtering,
and the provider search query."""

from __future__ import annotations

import json
import random
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_clean_text, random_abstract_text
from hazardex.corpus import (
    BUILTIN_FOODS,
    HAZARD_TERMS,
    HEALTH_TERMS,
    MIN_ABSTRACT_CHARS,
    AbstractRecord,
    FoodSpec,
    RawRecord,
    Rejection,
    build_search_query,
    clean_record,
    clean_text,
    dedupe,
    filter_by_food,
    record_key_for,
)
from hazardex.artifacts import json_line, write_jsonl
from hazardex.pipeline import _read_records


def make_raw(text, *, source_id="S1", doi="10.1/x", year=2020, types=()):
    return RawRecord(source_id, doi, "A title", text, year, tuple(types))


# --------------------------------------------------------------------------
# text cleaning
# --------------------------------------------------------------------------


class TestCleanText:
    def test_strips_markup_and_collapses_whitespace(self):
        assert clean_text("<p>Cadmium in  rice.</p>") == "Cadmium in rice."

    def test_decodes_entities_to_fixpoint(self):
        # double-escaped ampersand needs two decoding passes
        assert clean_text("Lead &amp;amp; zinc levels") == "Lead & zinc levels"

    def test_decodes_escaped_markup_then_strips_it(self):
        assert clean_text("A&lt;sub&gt;1&lt;/sub&gt; toxin") == "A 1 toxin"

    def test_removes_copyright_sentence(self):
        cleaned = clean_text("Cadmium in rice. © 2020 Elsevier Ltd.")
        assert cleaned == "Cadmium in rice."
        assert "©" not in cleaned

    def test_marker_case_and_eszett_do_not_change_what_is_dropped(self):
        text = "STRASSE milk. Straße cheese! COPYRIGHT 2020. All Rights Reserved. Whey?"
        assert clean_text(text) == "STRASSE milk. Straße cheese! Whey?"

    def test_matches_the_oracle_on_seeded_texts(self):
        rng = random.Random(10)
        marked = 0
        for _ in range(2000):
            text = random_abstract_text(rng)
            assert clean_text(text) == oracle_clean_text(text), text
            marked += any(m in text.casefold() for m in ("©", "copyright", "all rights reserved"))
        assert marked > 500

    @given(st.text(alphabet=st.sampled_from("©ßSsCcOoPpYyRrIiGgHhTt .!?<>&;/b\n\t\x1c\x85\xa0\u2028"),
                   max_size=80))
    def test_matches_the_oracle_on_arbitrary_input(self, text):
        assert clean_text(text) == oracle_clean_text(text)

    @given(st.text(max_size=200))
    def test_matches_the_oracle_on_any_text(self, text):
        assert clean_text(text) == oracle_clean_text(text)

    def test_plain_text_is_a_fixpoint(self):
        text = "Cadmium accumulation in paddy rice was quantified over two seasons."
        assert clean_text(text) == text
        assert clean_text(clean_text(text)) == clean_text(text)

    @given(st.text(max_size=200))
    def test_idempotent_on_arbitrary_input(self, text):
        once = clean_text(text)
        assert clean_text(once) == once


# --------------------------------------------------------------------------
# record cleaning and rejection
# --------------------------------------------------------------------------


LONG_BODY = "Cadmium accumulation in paddy rice was quantified over two seasons."


class TestCleanRecord:
    def test_keeps_a_normal_record(self):
        rec = clean_record(make_raw(LONG_BODY))
        assert isinstance(rec, AbstractRecord)
        assert rec.abstract_text == LONG_BODY
        assert rec.publication_year == 2020

    def test_rejects_empty_abstract(self):
        rej = clean_record(make_raw("   "))
        assert rej == Rejection(source_id="S1", reason="empty")

    def test_rejects_markup_only_abstract_as_empty(self):
        assert clean_record(make_raw("<p> </p>")).reason == "empty"

    def test_rejects_short_abstract_after_cleaning(self):
        # markup and the copyright line do not count toward the minimum
        raw = make_raw("<p>Cadmium in  rice.</p> © 2020 Elsevier.")
        assert clean_record(raw) == Rejection(source_id="S1", reason="too_short")

    def test_length_threshold_is_sixty_characters(self):
        base = "x" * (MIN_ABSTRACT_CHARS - 1)
        assert clean_record(make_raw(base)).reason == "too_short"
        kept = clean_record(make_raw(base + "y"))
        assert isinstance(kept, AbstractRecord)
        assert MIN_ABSTRACT_CHARS == 60

    def test_rejects_errata_by_publication_type(self):
        raw = make_raw(LONG_BODY, types=("erratum",))
        assert clean_record(raw) == Rejection(source_id="S1", reason="erratum")

    def test_erratum_check_is_case_insensitive(self):
        raw = make_raw(LONG_BODY, types=("Erratum",))
        assert clean_record(raw).reason == "erratum"


# --------------------------------------------------------------------------
# record keys and dedup
# --------------------------------------------------------------------------


class TestRecordKeys:
    def test_doi_key_is_casefolded(self):
        assert record_key_for("10.1/UPPER", LONG_BODY) == "10.1/upper"
        assert record_key_for("10.1/UPPER", "a") == record_key_for("10.1/upper", "b")

    def test_missing_doi_falls_back_to_content_hash(self):
        key = record_key_for(None, LONG_BODY)
        assert key.startswith("sha256:")
        assert key == record_key_for(None, LONG_BODY)
        assert key != record_key_for(None, LONG_BODY + "!")

    def test_record_key_set_by_clean_record(self):
        rec = clean_record(make_raw(LONG_BODY, doi="10.1000/A.B"))
        assert rec.record_key == "10.1000/a.b"

    def test_dedupe_keeps_first_occurrence(self):
        first = clean_record(make_raw(LONG_BODY, source_id="A", year=2018))
        second = clean_record(make_raw(LONG_BODY + " Later copy.", source_id="B"))
        kept = list(dedupe([first, second]))
        assert kept == [first]

    def test_dedupe_preserves_distinct_records(self):
        a = clean_record(make_raw(LONG_BODY, doi="10.1/a"))
        b = clean_record(make_raw(LONG_BODY, doi="10.1/b"))
        assert list(dedupe([a, b])) == [a, b]

    @given(st.lists(st.sampled_from(["10.1/a", "10.1/b", "10.1/c", None]), max_size=8))
    def test_dedupe_yields_unique_keys_in_first_seen_order(self, dois):
        records = [
            clean_record(make_raw(LONG_BODY + f" Variant {i}." if doi is None else LONG_BODY, doi=doi))
            for i, doi in enumerate(dois)
        ]
        kept = list(dedupe(records))
        keys = [r.record_key for r in kept]
        assert len(keys) == len(set(keys))
        # order of survivors matches order of first appearance
        seen = []
        for rec in records:
            if rec.record_key not in seen:
                seen.append(rec.record_key)
        assert keys == seen


# --------------------------------------------------------------------------
# food filtering
# --------------------------------------------------------------------------


def record_with_abstract(text, title="Unrelated title"):
    rec = clean_record(RawRecord("S", "10.1/f", title, text + " " + "pad " * 20, 2020))
    assert isinstance(rec, AbstractRecord)
    return rec


class TestFilterByFood:
    def test_builtin_foods_and_their_keywords(self):
        expected = {
            "leafy_greens": {"leafy green", "leafy greens", "leafy vegetable", "leafy vegetables"},
            "shellfish": {"shellfish"},
            "dairy": {"dairy"},
            "maize": {"maize", "corn"},
            "salmon": {"salmon"},
        }
        assert {k: set(v.keywords) for k, v in BUILTIN_FOODS.items()} == expected

    def test_match_is_case_insensitive(self):
        rec = record_with_abstract("Residues were found in DAIRY products.")
        assert list(filter_by_food([rec], BUILTIN_FOODS["dairy"])) == [rec]

    def test_match_is_substring_based(self):
        rec = record_with_abstract("Corn salad samples were analysed.")
        assert list(filter_by_food([rec], BUILTIN_FOODS["maize"])) == [rec]

    def test_title_alone_does_not_match(self):
        rec = record_with_abstract("No relevant foods appear here.", title="Cadmium in dairy milk")
        assert list(filter_by_food([rec], BUILTIN_FOODS["dairy"])) == []

    def test_any_keyword_suffices(self):
        maize = record_with_abstract("The maize kernels were milled.")
        corn = record_with_abstract("Sweet corn is processed fresh.")
        neither = record_with_abstract("Rice paddies were sampled.")
        assert list(filter_by_food([maize, corn, neither], BUILTIN_FOODS["maize"])) == [maize, corn]

    def test_custom_food_spec(self):
        spec = FoodSpec(canonical_name="rice", keywords=frozenset({"rice", "paddy"}))
        rec = record_with_abstract("Paddy fields were irrigated weekly.")
        assert list(filter_by_food([rec], spec)) == [rec]

    @pytest.mark.parametrize("food,text", [
        ("salmon", "Salmonella counts rose in stored eggs."),
        ("maize", "Samples of popcorn sold at cinemas were tested."),
        ("maize", "Acorn flour from local mills was tested."),
        ("maize", "The unicorn horn powder was tested."),
    ])
    def test_a_keyword_inside_another_word_is_no_match(self, food, text):
        assert list(filter_by_food([record_with_abstract(text)], BUILTIN_FOODS[food])) == []

    @pytest.mark.parametrize("food,text", [
        ("maize", "Corn salad samples were analysed."),
        ("dairy", "DAIRY-BASED DRINKS were analysed."),
        ("salmon", "Fillets of farmed salmon were analysed."),
        ("leafy_greens", "Washed leafy greens were analysed."),
        ("dairy", "Three regional dairies were sampled."),
    ])
    def test_a_whole_keyword_or_its_plural_matches(self, food, text):
        rec = record_with_abstract(text)
        assert list(filter_by_food([rec], BUILTIN_FOODS[food])) == [rec]

    def test_a_custom_keyword_matches_its_plural(self):
        spec = FoodSpec(canonical_name="mussels", keywords=frozenset({"mussel"}))
        rec = record_with_abstract("Mussels from two farms were sampled.")
        assert list(filter_by_food([rec], spec)) == [rec]

    def test_food_spec_requires_keywords(self):
        with pytest.raises(ValueError):
            FoodSpec(canonical_name="empty", keywords=frozenset())


# --------------------------------------------------------------------------
# search query
# --------------------------------------------------------------------------


class TestSearchQuery:
    def test_hazard_and_health_term_inventories(self):
        assert HAZARD_TERMS == (
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
        assert HEALTH_TERMS == (
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

    def test_every_term_is_scoped_to_title_abstract_and_keywords(self):
        rendered = build_search_query(date(2023, 4, 2)).rendered
        for term in HAZARD_TERMS + HEALTH_TERMS:
            assert f"(TITLE:'{term}' OR ABSTRACT:'{term}' OR KW:'{term}')" in rendered

    def test_query_combines_groups_with_and_and_caps_the_date(self):
        query = build_search_query(date(2023, 4, 2))
        assert query.cutoff_date == date(2023, 4, 2)
        assert ") AND (" in query.rendered
        assert "FIRST_PDATE:[* TO 2023-04-02]" in query.rendered

    def test_cutoff_date_is_rendered_iso(self):
        assert "FIRST_PDATE:[* TO 1999-01-31]" in build_search_query(date(1999, 1, 31)).rendered


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


class TestRecordSerialization:
    def test_json_dict_uses_the_documented_keys(self):
        rec = clean_record(make_raw(LONG_BODY))
        obj = json.loads(json_line(rec))
        assert set(obj) == {"doi", "title", "abstract_text", "publication_year", "record_key"}

    def test_round_trip(self, tmp_path):
        rec = clean_record(make_raw(LONG_BODY, doi=None))
        write_jsonl(tmp_path / "records.jsonl", [rec])
        assert _read_records(tmp_path / "records.jsonl", "delete it and rerun filter") == [rec]
