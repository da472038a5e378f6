"""Tolerant mapping parser: frozen fixtures, round-trip guarantees, food
gating, and never-crash behavior on arbitrary text."""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    SCAN_ALPHABET,
    OracleUnterminated,
    oracle_mapping_regions,
    oracle_parse_region,
    oracle_tokenize,
    random_long_response,
    random_scan_text,
)
from parser_fixtures import FIXTURES
from hazardex import response_parser
from hazardex.artifacts import json_line, write_jsonl
from hazardex.corpus import FoodSpec
from hazardex.prompting import LlmResponse, PromptStyle
from hazardex.response_parser import (
    PARSE_STATUSES,
    RECOVERED,
    UNPARSEABLE,
    WELL_FORMED,
    ExtractionCandidate,
    extract_mapping,
    extract_mapping_text,
    gate_by_food,
    to_mapping_literal,
)


def make_candidate(food_terms, status=WELL_FORMED, key="k"):
    return ExtractionCandidate(key, PromptStyle.SIMPLE, food_terms, status)


def make_response(text, key="k", style=PromptStyle.STEP_BY_STEP):
    return LlmResponse(
        abstract_key=key,
        style=style,
        text=text,
        truncated=False,
        latency_ms=0.0,
        backend_name="mock",
    )


# --------------------------------------------------------------------------
# frozen fixtures
# --------------------------------------------------------------------------


class TestFixtureCorpus:
    def test_at_least_thirty_fixtures(self):
        assert len(FIXTURES) >= 30

    def test_every_status_is_represented(self):
        statuses = {expected_status for _, _, _, expected_status in FIXTURES}
        assert statuses == set(PARSE_STATUSES)

    @pytest.mark.parametrize(
        "name,text,expected_terms,expected_status",
        FIXTURES,
        ids=[f[0] for f in FIXTURES],
    )
    def test_fixture(self, name, text, expected_terms, expected_status):
        terms, status = extract_mapping_text(text)
        assert status == expected_status
        assert terms == expected_terms


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,text,expected_terms,expected_status",
        [f for f in FIXTURES if f[3] == WELL_FORMED],
        ids=[f[0] for f in FIXTURES if f[3] == WELL_FORMED],
    )
    def test_well_formed_literals_round_trip_byte_exactly(
        self, name, text, expected_terms, expected_status
    ):
        terms, status = extract_mapping_text(text)
        literal = to_mapping_literal(make_candidate(terms, status))
        reparsed, restatus = extract_mapping_text(literal)
        assert restatus == WELL_FORMED
        assert reparsed == terms
        # the canonical literal is a fixpoint of parse → render
        again = to_mapping_literal(make_candidate(reparsed, restatus))
        assert again == literal

    def test_recovered_mappings_render_to_well_formed_literals(self):
        for _, text, _, status in FIXTURES:
            if status != RECOVERED:
                continue
            terms, _ = extract_mapping_text(text)
            literal = to_mapping_literal(make_candidate(terms, RECOVERED))
            assert extract_mapping_text(literal) == (terms, WELL_FORMED)


# --------------------------------------------------------------------------
# response-level wrapper
# --------------------------------------------------------------------------


class TestExtractMapping:
    def test_carries_key_and_style(self):
        candidate = extract_mapping(make_response("{'milk': ['Pb']}", key="10.1/z"))
        assert candidate.abstract_key == "10.1/z"
        assert candidate.style is PromptStyle.STEP_BY_STEP
        assert candidate.parse_status == WELL_FORMED
        assert candidate.food_terms == {"milk": ["Pb"]}

    def test_prose_yields_empty_unparseable_candidate(self):
        candidate = extract_mapping(make_response("No hazards were mentioned."))
        assert candidate.food_terms == {}
        assert candidate.parse_status == UNPARSEABLE


# --------------------------------------------------------------------------
# never-crash property
# --------------------------------------------------------------------------


class TestTotality:
    @given(st.text(max_size=300))
    def test_any_text_yields_a_classified_candidate(self, text):
        terms, status = extract_mapping_text(text)
        assert status in PARSE_STATUSES
        assert isinstance(terms, dict)
        for food, chems in terms.items():
            assert isinstance(food, str) and food
            assert isinstance(chems, list)
            assert all(isinstance(c, str) and c for c in chems)

    @given(
        st.dictionaries(
            st.text(st.characters(exclude_characters="\\'", exclude_categories=("C",)), min_size=1).map(str.strip).filter(bool),
            st.lists(
                st.text(st.characters(exclude_characters="\\'", exclude_categories=("C",)), min_size=1).map(str.strip).filter(bool),
                max_size=4,
            ),
            max_size=4,
        )
    )
    def test_rendered_mappings_always_reparse(self, terms):
        deduped = {}
        for food, chems in terms.items():
            seen = set()
            kept = []
            for chem in chems:
                if chem.casefold() not in seen:
                    seen.add(chem.casefold())
                    kept.append(chem)
            if food.casefold() not in {k.casefold() for k in deduped}:
                deduped[food] = kept
        literal = to_mapping_literal(make_candidate(deduped))
        assert extract_mapping_text(literal) == (deduped, WELL_FORMED)


# --------------------------------------------------------------------------
# scanners against the one-character-at-a-time oracles
# --------------------------------------------------------------------------


def tokens_or_failure(tokenize, src):
    try:
        return tokenize(src)
    except (OracleUnterminated, response_parser._ParseFailure):
        return "unterminated string"


def parse_or_none(src):
    try:
        return response_parser._parse_region(src)
    except response_parser._ParseFailure:
        return None


def _oracle_tokenize_for_parser(src):
    try:
        return oracle_tokenize(src)
    except OracleUnterminated:
        raise response_parser._ParseFailure("unterminated string") from None


@contextmanager
def oracle_scanners():
    with mock.patch.object(response_parser, "_mapping_regions", oracle_mapping_regions), \
            mock.patch.object(response_parser, "_tokenize", _oracle_tokenize_for_parser):
        yield


def assert_scans_like_the_oracles(text):
    regions = response_parser._mapping_regions(text)
    assert regions == oracle_mapping_regions(text)
    for piece in [text] + [text[a:b] for a, b in regions]:
        tokens = tokens_or_failure(oracle_tokenize, piece)
        assert tokens_or_failure(response_parser._tokenize, piece) == tokens, piece
        if tokens != "unterminated string":
            assert parse_or_none(piece) == oracle_parse_region(tokens), piece
    with oracle_scanners():
        expected = extract_mapping_text(text)
    assert extract_mapping_text(text) == expected


class TestScannersMatchTheOracles:
    def test_seeded_texts_over_the_special_alphabet(self):
        rng = random.Random(8)
        for _ in range(5000):
            assert_scans_like_the_oracles(random_scan_text(rng, rng.randint(0, 40)))

    @given(st.text(alphabet=SCAN_ALPHABET, max_size=80))
    def test_generated_texts_over_the_special_alphabet(self, text):
        assert_scans_like_the_oracles(text)

    @given(st.text(max_size=120))
    def test_any_text(self, text):
        assert_scans_like_the_oracles(text)

    @pytest.mark.parametrize("text", [f[1] for f in FIXTURES], ids=[f[0] for f in FIXTURES])
    def test_every_fixture(self, text):
        assert_scans_like_the_oracles(text)

    def test_long_responses_with_prose_and_echoed_code(self):
        rng = random.Random(88)
        texts = [random_long_response(rng) for _ in range(150)]
        assert min(len(t) for t in texts) > 500
        for text in texts:
            assert_scans_like_the_oracles(text)

    @pytest.mark.parametrize(
        "text,regions",
        [
            # an escaped quote does not close the string, so the brace inside
            # it closes nothing
            ("{'a': 'it\\'s } here'}", [(0, 21)]),
            ('x {"k": "\\\\"} y', [(2, 13)]),
            # a quote only opens a string after a delimiter
            ("{it's: {'a': ['b']}}", [(7, 19), (0, 20)]),
            # a string that never closes swallows the rest of the text
            ("{'a': 'b} {}", []),
        ],
    )
    def test_escapes_and_quote_rules(self, text, regions):
        assert response_parser._mapping_regions(text) == regions
        assert oracle_mapping_regions(text) == regions

    @pytest.mark.parametrize(
        "src,tokens",
        [
            ("{a b , }", [("{", "{"), ("str", "a b"), (",", ","), ("}", "}")]),
            ("a \n\t ", [("str", "a")]),
            (" \n", []),
            ("'it\\'s' \"\\n\"", [("str", "it's"), ("str", "\n")]),
            ("'\\q'", [("str", "q")]),
        ],
    )
    def test_tokens(self, src, tokens):
        assert response_parser._tokenize(src) == tokens
        assert oracle_tokenize(src) == tokens

    @pytest.mark.parametrize("src", ["'abc", "{'a': \"b}", "'ends in a backslash\\"])
    def test_a_string_that_never_closes_is_a_parse_failure(self, src):
        with pytest.raises(response_parser._ParseFailure, match="unterminated string"):
            response_parser._tokenize(src)


# --------------------------------------------------------------------------
# food gating
# --------------------------------------------------------------------------

DAIRY = FoodSpec(canonical_name="dairy", keywords=frozenset({"dairy"}))


class TestGating:
    def test_keeps_only_keys_naming_the_food(self):
        candidate = make_candidate(
            {"dairy milk": ["cadmium"], "milk": ["lead"], "Dairy products": ["Hg"]}
        )
        gated = gate_by_food(candidate, DAIRY)
        assert gated.food_terms == {"dairy milk": ["cadmium"], "Dairy products": ["Hg"]}

    def test_preserves_status_and_identity(self):
        candidate = make_candidate({"milk": ["Pb"]}, status=RECOVERED, key="10.1/q")
        gated = gate_by_food(candidate, DAIRY)
        assert gated.food_terms == {}
        assert gated.parse_status == RECOVERED
        assert gated.abstract_key == "10.1/q"

    def test_idempotent(self):
        candidate = make_candidate({"dairy": ["Pb"], "fish": ["Hg"]})
        once = gate_by_food(candidate, DAIRY)
        assert gate_by_food(once, DAIRY) == once

    def test_match_is_case_insensitive_substring(self):
        candidate = make_candidate({"DAIRY-BASED DRINKS": ["melamine"]})
        assert gate_by_food(candidate, DAIRY).food_terms == candidate.food_terms

    def test_keys_must_name_the_food_as_a_whole_word(self):
        candidate = make_candidate({
            "Salmonella-positive salmon": ["Hg"], "Salmonella": ["Pb"], "popcorn": ["Cd"],
            "acorn": ["As"], "unicorn": ["Sn"], "Corn salad": ["nitrate"], "sweetcorns": ["Zn"],
            "leafy greens": ["Cu"], "mussels": ["Cd"],
        })
        salmon = FoodSpec("salmon", frozenset({"salmon"}))
        maize = FoodSpec("maize", frozenset({"maize", "corn"}))
        leafy = FoodSpec("leafy_greens", frozenset({"leafy green"}))
        mussel = FoodSpec("mussels", frozenset({"mussel"}))
        assert list(gate_by_food(candidate, salmon).food_terms) == ["Salmonella-positive salmon"]
        assert list(gate_by_food(candidate, maize).food_terms) == ["Corn salad"]
        assert list(gate_by_food(candidate, leafy).food_terms) == ["leafy greens"]
        assert list(gate_by_food(candidate, mussel).food_terms) == ["mussels"]


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


class TestCandidateSerialization:
    def test_json_dict_round_trip(self):
        candidate = make_candidate({"dairy": ["Cd", "Pb"]}, status=RECOVERED, key="10.1/s")
        obj = json.loads(json_line(candidate))
        assert set(obj) == {"abstract_key", "style", "parse_status", "food_terms"}
        assert obj["style"] == "simple"

    def test_jsonl_file_round_trip(self, tmp_path):
        candidates = [
            make_candidate({"dairy": ["Cd"]}, key="a"),
            make_candidate({}, status=UNPARSEABLE, key="b"),
        ]
        path = tmp_path / "candidates.jsonl"
        write_jsonl(path, candidates)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            {**asdict(c), "style": c.style.value} for c in candidates
        ]
