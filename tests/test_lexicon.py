"""Chemical-name lexicon: normalization, plural and numeric-variant surface
generation (checked against an independent oracle), dump parsing, index
construction, and the on-disk format."""

from __future__ import annotations

import gzip
import io
import json
import random

import pytest

from conftest import CHEBI_ROWS, write_chebi_tsv
from oracles import (
    oracle_expand,
    oracle_pluralize,
    random_digit_name,
    random_surface_name,
)
from hazardex.lexicon import (
    INDEX_VERSION,
    IndexFormatError,
    LexiconIndex,
    LexiconSourceError,
    ParseStats,
    build_index,
    chebi_numeric,
    default_stoplist,
    expand_numeric_variants,
    file_sha256,
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
        for feature in ("é", "ß", "²", "_", "ch", "sh", "x", "z", "ay", "ry"):
            assert any(feature in name for name in names), feature
        assert any(name[-2] in " -" and name[-1].isalpha() for name in names)
        for name in names:
            expected = set().union(*map(oracle_pluralize, oracle_expand(normalize(name))))
            assert surfaces_for(name) == expected, name


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
        stats = lexicon_index.stats.as_dict()
        assert stats["entry_count"] == 11  # 12 names minus the stoplisted one
        assert stats["surface_count"] == 46
        assert stats["collisions"] == 0
        assert set(stats) == {"entry_count", "surface_count", "collisions", "skipped_rows"}


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


class TestIndexPersistence:
    def test_save_then_load_preserves_lookups_and_stats(self, lexicon_index, tmp_path):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        loaded = LexiconIndex.load(path)
        assert loaded.lookup("Cd") == "CHEBI:28628"
        assert loaded.preferred_name("CHEBI:16526") == "benzene"
        assert loaded.stats.as_dict() == lexicon_index.stats.as_dict()

    def test_build_and_save_are_deterministic(self, chebi_dump, tmp_path):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            idx = build_index(parse_chebi_source(chebi_dump), default_stoplist())
            idx.save(tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_seeded_dump_saves_identical_bytes_and_matches_a_hand_fold(self, tmp_path):
        rng = random.Random(1001)
        shared = [random_surface_name(rng) for _ in range(150)]
        rows = []
        for number in rng.sample(range(1, 200_000), 1500):
            chebi_id = f"CHEBI:{number}"
            for rank in [0] + [1] * rng.randint(0, 2):
                name = rng.choice(shared) if rng.random() < 0.3 else random_surface_name(rng)
                rows.append((chebi_id, name, "SYNONYM" if rank else "NAME"))
        rng.shuffle(rows)
        stoplist = default_stoplist()
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for path in paths:
            build_index(list(rows), stoplist).save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        claims: dict[str, list[tuple[int, int, str]]] = {}
        preferred: dict[str, tuple[int, int, str]] = {}
        for position, (chebi_id, name, name_type) in enumerate(rows):
            if normalize(name) in stoplist:
                continue
            rank = 0 if name_type == "NAME" else 1
            preferred[chebi_id] = min(preferred.get(chebi_id, (2,)), (rank, position, name))
            surfaces = set().union(*map(oracle_pluralize, oracle_expand(normalize(name))))
            for surface in surfaces - stoplist:
                claims.setdefault(surface, []).append((rank, chebi_numeric(chebi_id), chebi_id))
        expected = {surface: min(claimants)[2] for surface, claimants in claims.items()}
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        saved, names = {}, {}
        for chebi_id, name, surfaces in map(json.loads, lines[1:]):
            saved.update(dict.fromkeys(surfaces, chebi_id))
            names[chebi_id] = name
        assert saved == expected
        assert names == {chebi_id: preferred[chebi_id][2] for chebi_id in names}
        assert json.loads(lines[0])["surface_count"] == len(expected)
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
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == lexicon_index.stats.entry_count
        assert sum(len(surfaces) for _, _, surfaces in rows) == lexicon_index.stats.surface_count
        assert [chebi_numeric(chebi_id) for chebi_id, _, _ in rows] == sorted(
            chebi_numeric(chebi_id) for chebi_id, _, _ in rows
        )
        cadmium = next(row for row in rows if row[0] == "CHEBI:28628")
        assert cadmium[1] == "cadmium"
        assert cadmium[2] == sorted(cadmium[2])
        assert {"cadmium", "cadmiums", "cd"} <= set(cadmium[2])

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
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert "β-Carotène".encode("utf-8") in first.read_bytes()

    def test_failed_save_leaves_the_previous_file_intact(self, lexicon_index, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        before = path.read_bytes()
        encode = json.JSONEncoder.encode
        calls = []

        def fail_on_third_row(self, obj):
            calls.append(obj)
            if len(calls) == 4:  # the header, then two rows, then the failure
                raise OSError("disk full")
            return encode(self, obj)

        monkeypatch.setattr(json.JSONEncoder, "encode", fail_on_third_row)
        replacement = small_index([("CHEBI:1", "patulin", "NAME")] * 2
                                  + [("CHEBI:2", "benzene", "NAME"), ("CHEBI:3", "lead", "NAME")])
        with pytest.raises(OSError, match="disk full"):
            replacement.save(path)
        assert len(calls) == 4
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.jsonl"]

    @pytest.mark.parametrize("cut", ["torn_line", "line_boundary", "garbage_row"])
    def test_load_rejects_corrupt_or_truncated_bodies(self, lexicon_index, tmp_path, cut):
        path = tmp_path / "index.jsonl"
        lexicon_index.save(path)
        lines = path.read_bytes().splitlines(keepends=True)
        if cut == "torn_line":
            body = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        elif cut == "line_boundary":
            body = b"".join(lines[:-1])
        else:
            body = b"".join(lines[:2] + [b'{"id": "CHEBI:1"}\n'] + lines[2:])
        path.write_bytes(body)
        with pytest.raises(IndexFormatError, match="rerun build-lexicon"):
            LexiconIndex.load(path)

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other", "version": 1}) + "\n", encoding="utf-8")
        with pytest.raises(IndexFormatError):
            LexiconIndex.load(path)


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

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "f.bin"
        path.write_bytes(b"abc123")
        assert file_sha256(path) == hashlib.sha256(b"abc123").hexdigest()
