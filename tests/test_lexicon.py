"""Chemical-name lexicon: normalization, plural and numeric-variant surface
generation (checked against an independent oracle), dump parsing, index
construction, and the on-disk format."""

from __future__ import annotations

import gzip
import io
import json
import os
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHEBI_ROWS, write_chebi_tsv
from oracles import (
    oracle_claim,
    oracle_expand,
    oracle_index_v3,
    oracle_pluralize,
    oracle_spelling_key,
    oracle_surfaces,
    random_digit_name,
    random_surface_name,
)
from hazardex import lexicon
from hazardex.artifacts import file_sha256
from hazardex.lexicon import (
    INDEX_VERSION,
    IndexFormatError,
    IndexStats,
    LexiconIndex,
    _candidate_keys,
    _line_before,
    _own_surfaces,
    _spelling_key,
    _surface_count,
    _surfaces,
    LexiconSourceError,
    ParseStats,
    build_index,
    chebi_numeric,
    default_stoplist,
    expand_numeric_variants,
    is_chebi_id,
    load_stoplist,
    normalize,
    parse_chebi_source,
    pluralize,
    surfaces_for,
)


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Cadmium", "cadmium"),
            ("aflatoxin  B1 ", "aflatoxin b1"),
            ("Aflatoxin B-1", "aflatoxin b-1"),
            ("ＣＡＤＭＩＵＭ", "cadmium"),  # fullwidth letters
            ("lead acetate", "lead acetate"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize(raw) == expected

    def test_idempotent(self):
        for raw in ["Cadmium", " PCB  153 ", "Aflatoxin B-1"]:
            assert normalize(normalize(raw)) == normalize(raw)


# --------------------------------------------------------------------------
# pluralization
# --------------------------------------------------------------------------


class TestPluralize:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("aflatoxin", {"aflatoxin", "aflatoxins"}),
            ("dioxin", {"dioxin", "dioxins"}),
            ("fox", {"fox", "foxes"}),
            ("patch", {"patch", "patches"}),
            ("mercury", {"mercury", "mercuries"}),
            ("aflatoxin b1", {"aflatoxin b1"}),  # ends in a digit
            ("vitamin k", {"vitamin k"}),  # single-letter final segment
        ],
    )
    def test_examples(self, name, expected):
        assert pluralize(name) == expected

    def test_always_contains_the_original(self):
        for name in ["lead", "pcb 138", "benzo[a]pyrene", "2,4-d"]:
            assert name in pluralize(name)

    @pytest.mark.parametrize(
        "name",
        ["", "y", "ay", "toy", "spy", "quartz", "flash", "β-carotène", "straße",
         "vitamin-k", "aflatoxin b", "pcb_a", "ok_", "1b", "b-1", "sugar alcohols"],
    )
    def test_matches_oracle(self, name):
        assert pluralize(name) == oracle_pluralize(name)


# --------------------------------------------------------------------------
# numeric-variant expansion, checked against the independent oracle
# --------------------------------------------------------------------------


class TestNumericVariants:
    def test_no_digit_means_no_expansion(self):
        assert expand_numeric_variants("cadmium") == {"cadmium"}

    def test_aflatoxin_b1_expands_to_twelve_orderable_spellings(self):
        # original ordering varies only the letter/digit contact; the swapped
        # ordering ("...1b") opens a second junction next to "aflatoxin"
        expected = {
            "aflatoxin b1", "aflatoxin b-1", "aflatoxin b 1",
            "aflatoxin 1b", "aflatoxin 1-b", "aflatoxin 1 b",
            "aflatoxin-1b", "aflatoxin-1-b", "aflatoxin-1 b",
            "aflatoxin1b", "aflatoxin1-b", "aflatoxin1 b",
        }
        assert expand_numeric_variants("aflatoxin b1") == expected

    def test_polonium_210_expands_to_six(self):
        assert expand_numeric_variants("polonium-210") == {
            "polonium-210", "polonium 210", "polonium210",
            "210-polonium", "210 polonium", "210polonium",
        }

    @pytest.mark.parametrize(
        "name,size",
        [
            ("pcb 138", 6),
            ("2,4-d", 3),
            ("omega-3 fatty acid 22", 7),
            ("x1", 6),
            ("a 1 b 2", 7),
        ],
    )
    def test_frozen_set_sizes(self, name, size):
        got = expand_numeric_variants(name)
        assert len(got) == size
        assert name in got

    def test_long_names_only_vary_one_slot_at_a_time(self):
        got = expand_numeric_variants("omega-3 fatty acid 22")
        assert "omega 3 fatty acid 22" in got
        assert "omega-3 fatty acid-22" in got
        # changing two slots at once stays out of the set
        assert "omega 3 fatty acid-22" not in got

    @pytest.mark.parametrize(
        "name",
        [
            "polonium-210", "aflatoxin b1", "pcb 138", "2,4-d",
            "omega-3 fatty acid 22", "x1", "a 1 b 2", "benzo[a]pyrene 4",
            "1,2-dibromo-3-chloropropane", "carbon-14", "pm2.5",
            "aflatoxin b1 g2", "e 171", "90sr",
        ],
    )
    def test_matches_oracle_on_hand_picked_names(self, name):
        assert expand_numeric_variants(name) == oracle_expand(name)

    def test_matches_oracle_on_random_names(self):
        rng = random.Random(20230402)
        for _ in range(1000):
            name = random_digit_name(rng)
            assert expand_numeric_variants(name) == oracle_expand(name), name


class TestSurfacesFor:
    def test_combines_normalization_variants_and_plurals(self):
        got = surfaces_for("Aflatoxin B1")
        assert len(got) == 12
        assert "aflatoxin b-1" in got
        assert all(s == normalize(s) for s in got)

    def test_plain_name_gets_plural_and_itself(self):
        assert surfaces_for("Cadmium") == {"cadmium", "cadmiums"}

    def test_matches_the_oracles_on_random_names(self):
        rng = random.Random(20240518)
        names = [random_surface_name(rng) for _ in range(1000)]
        for feature in ("é", "ß", "²", "_", "ch", "sh", "x", "z", "ay", "ry", "١"):
            assert any(feature in name for name in names), feature
        assert any(name[-2] in " -" and name[-1].isalpha() for name in names)
        for name in names:
            expected = set().union(*map(oracle_pluralize, oracle_expand(normalize(name))))
            assert surfaces_for(name) == expected, name


_LETTERS = "abcshyxzABSYé²αβγ"
_DIGITS = "0129١"
_OTHERS = " -,()'"


@st.composite
def run_names(draw):
    """Names put together from runs: letters, digits, separators and the
    punctuation of chemical names. Letter pieces that meet make longer runs."""
    pieces = st.one_of(
        st.text(alphabet=_LETTERS, min_size=1, max_size=6),
        st.text(alphabet=_DIGITS, min_size=1, max_size=3),
        st.sampled_from([*_OTHERS, " - "]),
    )
    return "".join(draw(st.lists(pieces, max_size=8)))


class TestSurfaceCount:
    """The build counts a name's own surfaces without making them, once per
    shape; the count is the size of the set a lookup makes."""

    @settings(deadline=None)
    @given(st.one_of(st.text(alphabet=_LETTERS + _DIGITS + _OTHERS, max_size=24), run_names()),
           st.data())
    def test_any_name_under_any_stoplist(self, name, data):
        own = sorted(_surfaces(name))
        stopped = frozenset(data.draw(st.lists(st.sampled_from(own), max_size=3)))
        # The empty and default stoplists hold no digit; `stopped` holds one
        # whenever the name does, and "x1" always does.
        for stoplist in (frozenset(), default_stoplist(), stopped, stopped | {"x1"}):
            assert _surface_count(name, stoplist) == len(_own_surfaces(name, stoplist)), stoplist

    def test_random_names_with_a_digit_run(self):
        rng = random.Random(2026)
        names = {normalize(random_digit_name(rng)) for _ in range(5000)}
        swapped = {n for n in names if lexicon._capped(n, lexicon._DIGITS_RE.findall(n))
                   and lexicon._swapped(n) is not None}
        assert len(swapped) > 500
        assert sum(any(ch in n for ch in ",()'") for n in swapped) > 100
        for name in names:
            assert _surface_count(name, frozenset()) == len(_own_surfaces(name, frozenset())), name

    def test_seeded_dump_names(self):
        stoplist = default_stoplist()
        names = {normalize(name) for _, name, _ in _seeded_dump_rows()}
        assert sum(_surface_count(n, stoplist) > 2 for n in names) > 500
        for name in names:
            assert _surface_count(name, stoplist) == len(_own_surfaces(name, stoplist)), name


# --------------------------------------------------------------------------
# stoplist
# --------------------------------------------------------------------------


class TestStoplist:
    def test_default_stoplist_contents(self):
        stop = default_stoplist()
        assert len(stop) == 68
        for term in ["molecule", "solvent", "vitamins", "application", "voltage",
                     "alpha", "acid", "compound", "metal", "ion", "group"]:
            assert term in stop
        assert "cadmium" not in stop

    def test_load_stoplist_skips_comments_and_normalizes(self):
        text = "# generic terms\nSolvent\n\n acid \n"
        assert load_stoplist(io.StringIO(text)) == frozenset({"solvent", "acid"})

    def test_apply_stoplist_matches_normalized_names(self):
        rows = [("CHEBI:1", "Solvent", "NAME"), ("CHEBI:2", "cadmium", "NAME"),
                ("CHEBI:3", "VOLTAGE", "NAME")]
        idx = build_index(rows, default_stoplist())
        assert idx.stats.entry_count == 1
        assert idx.lookup("cadmium") == "CHEBI:2"
        assert idx.lookup("solvent") is None
        assert idx.lookup("voltage") is None


# --------------------------------------------------------------------------
# dump parsing
# --------------------------------------------------------------------------


class TestParseChebiSource:
    def test_yields_rows_in_file_order(self, tmp_path):
        path = write_chebi_tsv(tmp_path / "names.tsv")
        rows = list(parse_chebi_source(path))
        assert rows[0] == ("CHEBI:28628", "cadmium", "NAME")
        assert rows[1] == ("CHEBI:28628", "Cd", "SYNONYM")
        assert len(rows) == len(CHEBI_ROWS)

    def test_counts_malformed_rows_without_failing(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text(
            "COMPOUND_ID\tTYPE\tNAME\n"
            "28628\tNAME\tcadmium\n"
            "only-one-column\n"
            "12\tNAME\t\n"
            "16526\tNAME\tbenzene\n",
            encoding="utf-8",
        )
        stats = ParseStats()
        rows = list(parse_chebi_source(path, stats))
        assert [r[0] for r in rows] == ["CHEBI:28628", "CHEBI:16526"]
        assert stats.skipped == 2

    def test_non_decimal_digit_ids_are_skipped_and_counted(self, tmp_path):
        # "²" and "½" pass `isdigit`/`isnumeric` but `int` refuses them.
        path = tmp_path / "names.tsv"
        path.write_text(
            "COMPOUND_ID\tTYPE\tNAME\n"
            "1²\tNAME\tsquared\n"
            "CHEBI:½\tNAME\thalf\n"
            "١٢\tNAME\tArabic-Indic\n"
            "16526\tNAME\tbenzene\n",
            encoding="utf-8",
        )
        stats = ParseStats()
        rows = list(parse_chebi_source(path, stats))
        assert [r[0] for r in rows] == ["CHEBI:12", "CHEBI:16526"]
        assert stats.skipped == 2

    def test_each_row_in_a_run_of_one_id_is_read_on_its_own(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text(
            "COMPOUND_ID\tTYPE\tNAME\n"
            "007\tNAME\tbond\n"
            "007\tSYNONYM\t\n"
            "007\tSYNONYM\tagent\n"
            "chebi:7 \tSYNONYM\tspy\n"
            "x7\tNAME\tnot an id\n"
            "x7\tSYNONYM\tstill not\n"
            "8\tNAME\teight\n"
            "007\tsynonym\tback\n",
            encoding="utf-8",
        )
        stats = ParseStats()
        assert list(parse_chebi_source(path, stats)) == [
            ("CHEBI:7", "bond", "NAME"), ("CHEBI:7", "agent", "SYNONYM"),
            ("CHEBI:7", "spy", "SYNONYM"), ("CHEBI:8", "eight", "NAME"),
            ("CHEBI:7", "back", "SYNONYM")]
        assert (stats.rows, stats.skipped) == (5, 3)

    def test_reads_gzip_compressed_dumps(self, tmp_path):
        plain = write_chebi_tsv(tmp_path / "names.tsv")
        gz = tmp_path / "names.tsv.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write(plain.read_text(encoding="utf-8"))
        assert list(parse_chebi_source(gz)) == list(parse_chebi_source(plain))


# --------------------------------------------------------------------------
# index construction
# --------------------------------------------------------------------------


def small_index(rows, stoplist=frozenset()):
    return build_index(rows, stoplist)


class TestBuildIndex:
    def test_lookup_by_name_synonym_and_plural(self, lexicon_index):
        assert lexicon_index.lookup("cadmium") == "CHEBI:28628"
        assert lexicon_index.lookup("Cd") == "CHEBI:28628"
        assert lexicon_index.lookup("cadmiums") == "CHEBI:28628"
        assert lexicon_index.lookup("hazardous") is None
        assert lexicon_index.lookup("CADMIUM") == "CHEBI:28628"

    def test_numeric_variants_are_looked_up(self, lexicon_index):
        assert lexicon_index.lookup("aflatoxin m-1") == "CHEBI:27744"
        assert lexicon_index.lookup("aflatoxin 1m") == "CHEBI:27744"

    def test_preferred_name_round_trip(self, lexicon_index):
        assert lexicon_index.preferred_name("CHEBI:28628") == "cadmium"
        assert lexicon_index.preferred_name("CHEBI:4995") == "deoxynivalenol"

    def test_stoplisted_names_never_index(self, lexicon_index):
        assert lexicon_index.lookup("molecule") is None

    def test_an_identifier_past_64_bits_is_a_source_error(self):
        largest = 2**63 - 1
        idx = small_index([(f"CHEBI:{largest}", "lead", "NAME")])
        assert idx.lookup("lead") == f"CHEBI:{largest}"
        with pytest.raises(LexiconSourceError, match=f"CHEBI:{largest + 1}: identifier too large"):
            small_index([("CHEBI:1", "tin", "NAME"), (f"CHEBI:{largest + 1}", "lead", "NAME")])

    def test_primary_name_outranks_synonym_on_contested_surface(self):
        idx = small_index([
            ("CHEBI:10", "lead", "NAME"),
            ("CHEBI:2", "plumbum", "NAME"),
            ("CHEBI:2", "lead", "SYNONYM"),
        ])
        assert idx.lookup("lead") == "CHEBI:10"
        assert idx.lookup("plumbum") == "CHEBI:2"
        assert idx.stats.collisions == 2  # "lead" and "leads"

    def test_equal_rank_collisions_go_to_the_smaller_id(self):
        idx = small_index([
            ("CHEBI:90", "prontosil", "NAME"),
            ("CHEBI:4", "prontosil", "NAME"),
        ])
        assert idx.lookup("prontosil") == "CHEBI:4"
        assert idx.stats.collisions == 2

    def test_zero_surviving_entries_is_a_build_error(self):
        with pytest.raises(LexiconSourceError):
            small_index([("CHEBI:5", "solvent", "NAME")], default_stoplist())

    def test_stats_reflect_entries_and_surfaces(self, lexicon_index):
        stats = vars(lexicon_index.stats)
        assert stats["entry_count"] == 11  # 12 names minus the stoplisted one
        assert stats["surface_count"] == 46
        assert stats["collisions"] == 0
        assert set(stats) == {"entry_count", "surface_count", "collisions", "skipped_rows"}


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


def _read_body(path):
    """A saved index read by hand: its header, its name records as
    `(name, numeric id, rank)` string tuples, and its identifier lines as an
    ordered numeric id → preferred name dict. Every id is a bare number."""
    header_line, body = path.read_bytes().split(b"\n", 1)
    records, ids = body.decode("utf-8").split("\n\n")
    names = {}
    for line in ids.split("\n")[:-1]:
        numeric, name = line.split("\t")
        assert numeric == str(int(numeric)), line
        names[int(numeric)] = json.loads(name)
    records = [tuple(line.split("\t")) for line in records.split("\n")]
    assert all(len(record) == 3 and record[1] == str(int(record[1])) for record in records)
    return json.loads(header_line), records, names


def _keyed(record):
    """A `(name, numeric id, rank)` record as text led by the oracle's spelling
    key of its name: the order the records are saved in."""
    letters, digits = oracle_spelling_key(record[0])
    return "\t".join((letters, ",".join(digits), *record))


def _seeded_dump_rows():
    """1500 identifiers with up to three names each, in shuffled dump order; 30%
    of the names come from a pool of 150, so many surfaces are contested."""
    rng = random.Random(1001)
    shared = [random_surface_name(rng) for _ in range(150)]
    rows = []
    for number in rng.sample(range(1, 200_000), 1500):
        chebi_id = f"CHEBI:{number}"
        for rank in [0] + [1] * rng.randint(0, 2):
            name = rng.choice(shared) if rng.random() < 0.3 else random_surface_name(rng)
            rows.append((chebi_id, name, "SYNONYM" if rank else "NAME"))
    rng.shuffle(rows)
    return rows


def _load_and_ask(path, asked):
    """Load `path` as `link` does and look up each of `asked` on it. The
    whole body is checked before any lookup, so a file that asking only some
    surfaces would read in part ("restricted") fails as a bare load ("full")."""
    index = LexiconIndex.load(path)
    for surface in asked:
        index.lookup(surface)
    return index


class TestIndexPersistence:
    def test_save_then_load_preserves_lookups_and_stats(self, lexicon_index, tmp_path):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        loaded = LexiconIndex.load(path)
        assert loaded.lookup("Cd") == "CHEBI:28628"
        assert loaded.preferred_name("CHEBI:16526") == "benzene"
        assert loaded.stats == lexicon_index.stats

    def test_build_and_save_are_deterministic(self, chebi_dump, tmp_path):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            idx = build_index(parse_chebi_source(chebi_dump), default_stoplist())
            idx.save(tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_seeded_dump_saves_identical_bytes_and_matches_a_hand_fold(self, tmp_path):
        rows = _seeded_dump_rows()
        stoplist = default_stoplist()
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for path in paths:
            build_index(list(rows), stoplist).save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        claims: dict[str, list[tuple[int, int, str]]] = {}
        preferred: dict[str, tuple[int, int, str]] = {}
        records = []
        for position, (chebi_id, name, name_type) in enumerate(rows):
            if normalize(name) in stoplist:
                continue
            rank = 0 if name_type == "NAME" else 1
            preferred[chebi_id] = min(preferred.get(chebi_id, (2,)), (rank, position, name))
            records.append((normalize(name), str(chebi_numeric(chebi_id)), str(rank)))
            for surface in oracle_surfaces(normalize(name)) - stoplist:
                claims.setdefault(surface, []).append((rank, chebi_numeric(chebi_id), chebi_id))
        expected = {surface: min(claimants)[2] for surface, claimants in claims.items()}

        header, saved_records, names = _read_body(paths[0])
        assert saved_records == sorted(records, key=_keyed)
        assert names == {chebi_numeric(chebi_id): preferred[chebi_id][2]
                         for chebi_id in set(expected.values())}
        assert header["surface_count"] == len(expected)
        assert header["stoplist"] == sorted(stoplist)
        loaded = LexiconIndex.load(paths[0])
        assert {surface: loaded.lookup(surface) for surface in expected} == expected
        assert loaded.stats.surface_count == len(expected)
        contested = [c for c in claims.values() if len({chebi_id for *_, chebi_id in c}) > 1]
        assert len(contested) > 100
        assert any({rank for rank, *_ in c} == {0, 1} for c in contested)

    def test_header_declares_format_and_version(self, lexicon_index, tmp_path):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["format"] == "hazardex-lexicon"
        assert header["version"] == INDEX_VERSION

    def test_body_has_one_row_per_identifier(self, lexicon_index, tmp_path):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        header, records, names = _read_body(path)
        assert len(names) == lexicon_index.stats.entry_count == header["entry_count"]
        assert list(names) == sorted(names)
        assert names[28628] == "cadmium"
        # One record per dump name that the stoplist keeps, sorted by spelling key.
        kept = [(n, t) for i, t, n in CHEBI_ROWS if normalize(n) not in default_stoplist()]
        assert len(records) == len(kept) == len(CHEBI_ROWS) - 1
        assert records == sorted(records, key=_keyed)
        assert ("cadmium", "28628", "0") in records
        assert ("cd", "28628", "1") in records
        assert ("aflatoxin m1", "27744", "0") in records

    def test_round_trip_keeps_unusual_surfaces_and_is_byte_stable(self, tmp_path):
        idx = small_index([
            ("CHEBI:7", "β-Carotène", "NAME"),
            ("CHEBI:12", 'the "quoted" back\\slash', "NAME"),
            ("CHEBI:30", "ochratoxin", "NAME"),
            ("CHEBI:5", "ochratoxin", "SYNONYM"),
            ("CHEBI:5", "patulin", "NAME"),
        ])
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        idx.save(first)
        loaded = LexiconIndex.load(first)
        for surface in ("β-carotène", "β-carotènes", 'the "quoted" back\\slash',
                        "ochratoxin", "ochratoxins", "patulin"):
            assert loaded.lookup(surface) == idx.lookup(surface) is not None, surface
        assert loaded.lookup("ochratoxin") == "CHEBI:30"
        assert loaded.preferred_name("CHEBI:7") == "β-Carotène"
        assert loaded.preferred_name("CHEBI:12") == 'the "quoted" back\\slash'
        assert loaded.stats == idx.stats
        idx.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert "β-Carotène".encode("utf-8") in first.read_bytes()

    def test_names_with_line_breaks_quotes_and_backslashes_round_trip(self, tmp_path):
        # NEL and LINE SEPARATOR end a line for `str.splitlines`, not for the file.
        rows = [("CHEBI:40", "Next\x85line", "NAME"), ("CHEBI:41", "line\u2028sep toxin", "NAME"),
                ("CHEBI:42", 'say "x" \\ y', "NAME"), ("CHEBI:43", "plain", "NAME")]
        path = tmp_path / "index.jsonl"
        small_index(rows).save(path)
        assert path.read_bytes().count(b"\n") == 1 + len(rows) + 1 + len(rows)
        loaded = LexiconIndex.load(path)
        for chebi_id, name, _ in rows[:3]:
            assert loaded.lookup(normalize(name)) == chebi_id
            assert loaded.preferred_name(chebi_id) == name

    def test_failed_save_leaves_the_previous_file_intact(self, lexicon_index, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        before = path.read_bytes()
        written = []

        def fail_instead_of_renaming(src, dst):
            written.append(Path(src).read_bytes())
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_instead_of_renaming)
        replacement = small_index([("CHEBI:1", "patulin", "NAME")] * 2
                                  + [("CHEBI:2", "benzene", "NAME"), ("CHEBI:3", "lead", "NAME")])
        with pytest.raises(OSError, match="disk full"):
            replacement.save(path)
        monkeypatch.undo()
        assert len(written) == 1 and written[0] != before  # the temp file held the new index
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.jsonl"]
        replacement.save(path)
        assert path.read_bytes() == written[0]

    @pytest.mark.parametrize(
        "cut,asked",
        [
            pytest.param(cut, asked, id=f"{cut}-restricted" if asked else cut)
            for asked in ((), ("cadmium", "benzene"))
            for cut in ("torn_line", "line_boundary", "garbage_row", "torn_brackets",
                        "edited_rank")
        ],
    )
    def test_load_rejects_corrupt_or_truncated_bodies(self, lexicon_index, tmp_path, cut, asked):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        lines = path.read_bytes().splitlines(keepends=True)
        if cut == "torn_line":
            body = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        elif cut == "line_boundary":
            body = b"".join(lines[:-1])
        elif cut == "torn_brackets":  # the last row loses its closing `"`; no count changes
            body = b"".join(lines)[: -len(b'"\n')] + b"\n"
        elif cut == "edited_rank":  # every line still parses and no count changes
            first = next(i for i, line in enumerate(lines) if line.endswith(b"\t1\n"))
            lines[first] = lines[first][:-2] + b"0\n"
            body = b"".join(lines)
        else:
            body = b"".join(lines[:2] + [b'{"id": "CHEBI:1"}\n'] + lines[2:])
        path.write_bytes(body)
        with pytest.raises(IndexFormatError, match="rerun build-lexicon"):
            _load_and_ask(path, asked)

    @pytest.mark.parametrize("field,edit", [
        ("stoplist", lambda stoplist: sorted(stoplist + ["cadmium"])),
        ("entry_count", lambda count: count + 1),
    ], ids=["stoplist", "entry_count"])
    def test_load_rejects_an_edited_header(self, lexicon_index, tmp_path, field, edit):
        # The body still matches `body_sha256`; the header no longer matches itself.
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header[field] = edit(header[field])
        path.write_bytes(json.dumps(header, ensure_ascii=False, sort_keys=True).encode() + b"\n" + body)
        with pytest.raises(IndexFormatError, match="header does not match its checksum; delete it and rerun build-lexicon"):
            LexiconIndex.load(path)

    def test_load_refuses_the_version_3_layout(self, lexicon_index, tmp_path):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        path.write_bytes(oracle_index_v3(path.read_bytes()))
        with pytest.raises(IndexFormatError, match="expected hazardex-lexicon v4, got 'hazardex-lexicon' v3"):
            LexiconIndex.load(path)

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other", "version": 1}) + "\n", encoding="utf-8")
        with pytest.raises(IndexFormatError):
            LexiconIndex.load(path)


# --------------------------------------------------------------------------
# a loaded index, read one surface at a time
# --------------------------------------------------------------------------

# Names whose saved rows need escapes: a quote, a backslash, and quoted text
# that reads like the row separators `","` and `",["` once its escapes are
# ignored. The last row owns only plain surfaces but has a name like that.
# Then names that share one spelling key, or whose keys differ by a plural
# ending, so one search must bring back several claimants.
_AWKWARD_ROWS = [
    ("CHEBI:11", 'the "quoted" toxin', "NAME"),
    ("CHEBI:12", "back\\slash oil", "NAME"),
    ("CHEBI:13", 'fake","separator', "NAME"),
    ("CHEBI:14", 'fake",["opening', "NAME"),
    ("CHEBI:15", "β-carotène", "NAME"),
    ("CHEBI:15", "betacarotene", "SYNONYM"),
    ("CHEBI:16", "aflatoxin b١", "NAME"),
    ("CHEBI:17", 'odd",["name', "NAME"),
    ("CHEBI:17", "patulin", "SYNONYM"),
    ("CHEBI:18", "toxin b1", "SYNONYM"),
    ("CHEBI:19", "toxin-b 1", "NAME"),
    ("CHEBI:20", "toxinb1", "SYNONYM"),
    ("CHEBI:21", "berry", "NAME"),
    ("CHEBI:22", "berries", "NAME"),
    ("CHEBI:23", "berrie", "SYNONYM"),
    ("CHEBI:24", "borax", "SYNONYM"),
    ("CHEBI:25", "boraxes", "NAME"),
    ("CHEBI:26", "boraxe", "NAME"),
]


def _seeded_index_rows():
    rng = random.Random(6006)
    rows = list(_AWKWARD_ROWS)
    for number in rng.sample(range(100, 50_000), 400):
        for name_type in ["NAME"] + ["SYNONYM"] * rng.randint(0, 2):
            rows.append((f"CHEBI:{number}", random_surface_name(rng), name_type))
    return rows


@pytest.fixture(scope="module")
def seeded_index():
    return build_index(_seeded_index_rows(), default_stoplist())


@pytest.fixture(scope="module")
def seeded_claims():
    """The global claim of the seeded index's rows: surface → identifier."""
    stoplist = default_stoplist()
    claims, _ = oracle_claim(_dump_records(_seeded_index_rows(), stoplist), stoplist)
    return {surface: claim[2] for surface, claim in claims.items()}


def _claimed(claims, surface):
    """What `lookup` answers for `surface` under the global claim `claims`:
    the owner of the surface as asked, else of its normalized form."""
    return claims.get(surface) or claims.get(normalize(surface))


@pytest.fixture(scope="module")
def seeded_index_file(seeded_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("seeded") / "index.jsonl"
    seeded_index.save(path)
    return path


def _saved_surfaces(path):
    header, records, _ = _read_body(path)
    surfaces = set().union(*(oracle_surfaces(name) for name, _, _ in records))
    return sorted(surfaces - set(header["stoplist"]) - {""})


def _respellings(surface):
    return [surface.upper(), f"  {surface} ", surface.replace(" ", "   "),
            surface.translate(str.maketrans("abc", "ａｂｃ")), surface.title()]


class TestSpellingKey:
    """Every surface of a name leads a lookup on a loaded index back to that name."""

    @staticmethod
    def check(name):
        letters, digits = oracle_spelling_key(name)
        assert _spelling_key(name) == f"{letters}\t{','.join(digits)}", name
        for surface in _surfaces(name) | oracle_surfaces(name):
            assert _spelling_key(name) in _candidate_keys(surface), (name, surface)

    @pytest.mark.parametrize("name", [
        "aflatoxin b١", "aflatoxin b1", "x² toxin", "b²", "β-carotene", "berry", "alloy",
        "benzyl 2-ch", "toxin-x", "borax", "5-y", "straße 3", "ochratoxin a 2", "polonium-210",
        "berrie", "_k", "a_b1",
    ])
    def test_pinned_names(self, name):
        self.check(name)
        self.check(normalize(name))

    def test_oracle_names(self):
        rng = random.Random(9009)
        names = [random_surface_name(rng) for _ in range(2000)]
        names += [random_digit_name(rng) for _ in range(2000)]
        for feature in ("١", "²", "ry", "ch", "x"):
            assert any(feature in name for name in names), feature
        for name in names:
            self.check(name)
            self.check(normalize(name))

    @given(st.text(alphabet="abcxyhsé²١β1 -_.", max_size=14))
    def test_any_name(self, name):
        self.check(name)

    @given(st.text(alphabet="abyzé²β19١ -,", max_size=10),
           st.text(alphabet="abyzé²β19١ -,", max_size=10))
    def test_a_search_compares_letters_first_in_key_order(self, name, other):
        key = _spelling_key(other)
        line = f"{name}\t1\t0".encode("utf-8")
        assert _line_before(line, *key.split("\t")) == (_spelling_key(name) < key)


class TestRestrictedLoad:
    """A loaded index reads only the records that can spell what it is asked."""

    def test_awkward_rows_are_escaped_in_the_file(self, seeded_index_file):
        text = seeded_index_file.read_text(encoding="utf-8")
        assert '\\",\\"separator' in text and '\\",[\\"opening' in text
        assert "١" in text and "β-carotène" in text

    def test_a_loaded_index_answers_as_the_built_one(self, seeded_index, seeded_index_file,
                                                     seeded_claims):
        loaded = LexiconIndex.load(seeded_index_file)
        assert loaded.stats == seeded_index.stats
        # "boraxe" finds only CHEBI:26, whose plural "boraxes" is CHEBI:25's name:
        # the claim that found it must not answer for "boraxes".
        assert loaded.lookup("boraxe") == "CHEBI:26"
        assert loaded.lookup("boraxes") == "CHEBI:25"
        assert loaded.lookup("Β-CAROTÈNE") == "CHEBI:15"
        assert loaded.preferred_name("CHEBI:15") == "β-carotène"
        surfaces = _saved_surfaces(seeded_index_file)
        awkward = sorted(set().union(*(surfaces_for(name) for _, name, _ in _AWKWARD_ROWS)))
        rng = random.Random(7007)
        unknown = [random_surface_name(rng) + " unknown" for _ in range(100)]
        asked = surfaces + [r for s in surfaces for r in _respellings(s)] + awkward + unknown
        asked += ["", "PATULINS", '"]]', '","', "toxin b1", "toxin-b1", "toxinb-1", "berries"]
        for surface in asked:
            chebi_id = loaded.lookup(surface)
            assert chebi_id == seeded_index.lookup(surface) == _claimed(seeded_claims, surface), (
                surface)
            if chebi_id is not None:
                assert loaded.preferred_name(chebi_id) == seeded_index.preferred_name(chebi_id)
        assert [loaded.lookup(s) for s in ("toxin b1", "toxin-b1", "toxinb-1", "berries")] == [
            "CHEBI:18", "CHEBI:19", "CHEBI:20", "CHEBI:21"]

    def test_random_wanted_sets_answer_as_the_full_load(self, seeded_index, seeded_index_file,
                                                        seeded_claims):
        # Each trial asks a fresh load a random set, in a random order; the
        # global claim, which claims every record at once, is the full answer.
        surfaces = _saved_surfaces(seeded_index_file)
        awkward = [surfaces_for(name) for _, name, _ in _AWKWARD_ROWS]
        rng = random.Random(7007)
        for trial in range(40):
            asked = rng.sample(surfaces, rng.randint(0, 12))
            asked += [rng.choice(sorted(s)) for s in rng.sample(awkward, 3)]
            asked += [random_surface_name(rng) + " unknown" for _ in range(rng.randint(0, 5))]
            asked += [rng.choice(_respellings(s)) for s in rng.sample(surfaces, 5)]
            asked += ["", "patulin", "PATULINS", '"]]', '","', 'fake","separator']
            rng.shuffle(asked)
            loaded = LexiconIndex.load(seeded_index_file)
            assert loaded.stats == seeded_index.stats
            for surface in asked:
                chebi_id = loaded.lookup(surface)
                assert chebi_id == _claimed(seeded_claims, surface), (trial, surface)
                if chebi_id is not None:
                    assert loaded.preferred_name(chebi_id) == seeded_index.preferred_name(chebi_id)

    def test_each_surface_alone_answers_as_the_full_load(self, seeded_index, seeded_index_file,
                                                         seeded_claims):
        # One surface per load: no earlier lookup has claimed anything for it.
        awkward = sorted(set().union(*(surfaces_for(name) for _, name, _ in _AWKWARD_ROWS)))
        rng = random.Random(8008)
        for surface in awkward + rng.sample(_saved_surfaces(seeded_index_file), 150):
            loaded = LexiconIndex.load(seeded_index_file)
            chebi_id = loaded.lookup(surface)
            assert chebi_id == _claimed(seeded_claims, surface) is not None, surface
            assert loaded.preferred_name(chebi_id) == seeded_index.preferred_name(chebi_id)

    def test_a_surface_that_normalize_changes_is_found_by_its_raw_form(self, tmp_path):
        # The swap moves "1" before "a", so the acute accent that followed
        # "1" now follows "a", and NFKC composes the two into "á". The raw
        # spelling is a surface of the name and its normalized spelling is
        # not, so a lookup that searched only `normalize(surface)` would miss.
        name = "\u0390a1\u0301\u00c5\u0130xz"
        raw = "\u03b9\u0308\u03011 a\u0301\u00e5i\u0307xz"
        assert raw in surfaces_for(name) and normalize(raw) not in surfaces_for(name)
        built = small_index([("CHEBI:1", name, "NAME")])
        built.save(tmp_path / "index.jsonl")
        for index in (built, LexiconIndex.load(tmp_path / "index.jsonl")):
            assert index.lookup(raw) == "CHEBI:1"
            assert index.lookup(normalize(raw)) is None

    @pytest.mark.parametrize("made_by", ["build", "load"])
    def test_a_miss_outside_the_wanted_set_is_recorded_and_a_second_load_answers_it(
        self, seeded_index_file, monkeypatch, made_by
    ):
        # A lookup searches the saved records once per surface, a miss included;
        # the surfaces asked so far are the only ones an index holds. A built
        # index is searched as a loaded one is: building it searches nothing.
        searched = []
        spelling_records = lexicon._spelling_records
        monkeypatch.setattr(lexicon, "_spelling_records",
                            lambda blob, lo, hi, surface: searched.append(surface)
                            or spelling_records(blob, lo, hi, surface))

        def fresh():
            if made_by == "build":
                return build_index(_seeded_index_rows(), default_stoplist())
            return LexiconIndex.load(seeded_index_file)

        loaded = fresh()
        assert searched == []
        assert loaded.lookup("patulin") == "CHEBI:17"
        assert loaded.preferred_name("CHEBI:17") == 'odd",["name'
        assert searched == ["patulin"]
        # The raw form misses and is kept as a miss; its normalized form answers.
        assert loaded.lookup("Β-CAROTÈNE") == "CHEBI:15"
        assert searched == ["patulin", "Β-CAROTÈNE", "β-carotène"]
        assert loaded.lookup("patulin unknown") is None
        assert [loaded.lookup(s) for s in ("Β-CAROTÈNE", "patulin unknown")] == ["CHEBI:15", None]
        assert searched == ["patulin", "Β-CAROTÈNE", "β-carotène", "patulin unknown"]
        # A second index starts with nothing kept and answers the same.
        again = fresh()
        assert again.lookup("Β-CAROTÈNE") == "CHEBI:15"
        assert again.preferred_name("CHEBI:15") == "β-carotène"
        assert again.lookup("patulin unknown") is None
        assert searched[4:] == ["Β-CAROTÈNE", "β-carotène", "patulin unknown"]

    def test_a_loaded_index_saves_the_bytes_it_loaded(self, seeded_index_file, tmp_path):
        loaded = LexiconIndex.load(seeded_index_file)
        assert loaded.lookup("patulin") == "CHEBI:17"
        target = tmp_path / "index.jsonl"
        loaded.save(target)
        assert target.read_bytes() == seeded_index_file.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.jsonl"]
        assert LexiconIndex.load(target).lookup("Β-CAROTÈNE") == "CHEBI:15"

    @pytest.mark.parametrize("asked", [(), ("patulin",)], ids=["full", "restricted"])
    def test_a_cut_inside_a_character_is_a_format_error(self, seeded_index_file, tmp_path,
                                                        asked):
        blob = seeded_index_file.read_bytes()
        path = tmp_path / "index.jsonl"
        path.write_bytes(blob[: blob.index("β".encode("utf-8")) + 1])
        with pytest.raises(IndexFormatError, match="rerun build-lexicon"):
            _load_and_ask(path, asked)


# --------------------------------------------------------------------------
# claiming one spelling group at a time, against the global claim
# --------------------------------------------------------------------------


def _dump_records(rows, stoplist):
    """The `(normalized name, numeric id, rank)` records of the rows the
    stoplist keeps, in dump order."""
    return [
        (normalize(name), chebi_numeric(chebi_id), 0 if name_type == "NAME" else 1)
        for chebi_id, name, name_type in rows
        if normalize(name) not in stoplist
    ]


def _check_against_the_global_claim(rows, stoplist):
    """`build_index` has the stats, owners and answers of `oracle_claim`,
    which it returns with the index. No name in `rows` is an identifier, so
    an identifier with a preferred name other than itself owns a surface."""
    claims, collisions = oracle_claim(_dump_records(rows, stoplist), stoplist)
    if not claims:
        with pytest.raises(LexiconSourceError):
            build_index(rows, stoplist)
        return None, claims
    owners = {chebi_id for *_, chebi_id in claims.values()}
    idx = build_index(rows, stoplist)
    assert idx.stats == IndexStats(len(owners), len(claims), collisions, 0)
    assert {chebi_id for chebi_id, _, _ in rows if idx.preferred_name(chebi_id) != chebi_id} == (
        owners)
    assert {surface: idx.lookup(surface) for surface in claims} == {
        surface: claim[2] for surface, claim in claims.items()}
    misses = {normalize(name) + "qq" for _, name, _ in rows} | stoplist
    for surface in misses - claims.keys():
        assert idx.lookup(surface) is None, surface
    return idx, claims


# Stems whose names share spelling groups through "s", "es", "ies", "e" and
# "ie" endings, and, with a number, through its separator and its side.
_CLASHING_STEMS = ("berr", "borax", "toxin b", "ax", "se")
_CLASHING_ENDINGS = ("", "y", "s", "es", "ies", "ie", "e")


@st.composite
def clashing_rows(draw):
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        word = draw(st.sampled_from(_CLASHING_STEMS)) + draw(st.sampled_from(_CLASHING_ENDINGS))
        digits = draw(st.sampled_from(("", "1", "21")))
        sep = draw(st.sampled_from(("", " ", "-")))
        if digits:
            word = f"{digits}{sep}{word}" if draw(st.booleans()) else f"{word}{sep}{digits}"
        chebi_id = f"CHEBI:{draw(st.integers(1, 6))}"
        rows.append((chebi_id, word, draw(st.sampled_from(("NAME", "SYNONYM")))))
    return draw(st.permutations(rows))


class TestGroupedClaim:
    def test_seeded_dump_matches_the_global_claim(self, tmp_path):
        rows = _seeded_dump_rows()
        idx, claims = _check_against_the_global_claim(rows, default_stoplist())
        assert idx.stats.collisions > 100
        path = tmp_path / "index.jsonl"
        idx.save(path)
        loaded = LexiconIndex.load(path)
        assert loaded.stats == idx.stats
        assert all(loaded.lookup(s) == claim[2] for s, claim in claims.items())

    def test_awkward_rows_match_the_global_claim(self):
        idx, _ = _check_against_the_global_claim(_AWKWARD_ROWS, default_stoplist())
        assert idx.stats.collisions > 0

    @settings(deadline=None)
    @given(clashing_rows(), st.sampled_from([frozenset(), frozenset({"boraxes", "ax", "1-se"})]))
    def test_clashing_rows_match_the_global_claim(self, rows, stoplist):
        _check_against_the_global_claim(rows, stoplist)

    def test_groups_that_share_a_hash_build_the_same_index(self, monkeypatch, tmp_path):
        """Spelling groups are found by a hash of the group; groups whose
        hashes agree are claimed together, here every group at once."""
        rows = _seeded_dump_rows()
        blobs = []
        for _ in range(2):
            path = tmp_path / f"{len(blobs)}.jsonl"
            build_index(rows, default_stoplist()).save(path)
            blobs.append(path.read_bytes())
            monkeypatch.setattr(lexicon, "hash", lambda text: 7, raising=False)
        assert blobs[0] == blobs[1]

    def test_build_peak_is_under_half_of_the_global_claim(self):
        # A ratio of two peaks on one input, so it does not depend on the machine.
        rows = _seeded_dump_rows()
        stoplist = default_stoplist()
        records = _dump_records(rows, stoplist)

        def peak(build):
            # Once untraced first, so the caches a first call fills (shape
            # counts, compiled patterns) count on neither side.
            build()
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        built = peak(lambda: build_index(rows, stoplist))
        global_claim = peak(lambda: oracle_claim(records, stoplist))
        assert built < global_claim / 2, (built, global_claim)


class TestDigitStoplist:
    """A stoplist with a digit in an entry has the surfaces of names with a
    digit run made and counted, not worked out by shape."""

    def test_a_digit_stoplist_builds_what_the_global_claim_builds(self, tmp_path):
        rows = _seeded_dump_rows()
        normalized = [normalize(name) for _, name, _ in rows]
        with_digits = [n for n in normalized if not _spelling_key(n).endswith("\t")]
        # Stoplist a spelling of some names with a digit run, besides the defaults.
        extra = {min(_surfaces(n) - {n}) for n in with_digits if len(_surfaces(n)) > 1}
        stoplist = default_stoplist() | set(sorted(extra)[:40])
        index, _ = _check_against_the_global_claim(rows, stoplist)
        path = tmp_path / "index.jsonl"
        index.save(path)
        assert LexiconIndex.load(path).stats == index.stats
        assert index.stats.collisions > 100
        assert index.stats.surface_count < build_index(rows, default_stoplist()).stats.surface_count


# --------------------------------------------------------------------------
# identifiers and checksums
# --------------------------------------------------------------------------


class TestIdentifiers:
    def test_is_chebi_id(self):
        assert is_chebi_id("CHEBI:123")
        assert not is_chebi_id("123")
        assert not is_chebi_id("chebi:123")

    def test_chebi_numeric(self):
        assert chebi_numeric("CHEBI:28628") == 28628

    @pytest.mark.parametrize(
        "bad", ["CHEBI:", "CHEBI:12a", "CHEBI:-3", "CHEBI:1\n", "chebi:5", "CHEBI:²"]
    )
    def test_chebi_numeric_rejects_what_is_not_an_identifier(self, bad):
        assert not is_chebi_id(bad)
        with pytest.raises(ValueError, match="not a ChEBI identifier"):
            chebi_numeric(bad)

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "f.bin"
        path.write_bytes(b"abc123")
        assert file_sha256(path) == hashlib.sha256(b"abc123").hexdigest()
