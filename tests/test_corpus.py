import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_manifest, write_shard
from mtforge import corpus
from mtforge.corpus import (
    CorpusManifest,
    Direction,
    OriginPool,
    SentencePair,
    ShardEntry,
    corpus_stats,
    count_lines,
    load_manifest,
    read_pairs,
    write_manifest,
)
from mtforge.errors import MalformedLineError, TableError


class TestDirection:
    def test_parse(self):
        d = Direction.parse("hr-en")
        assert d.src == "hr" and d.tgt == "en"
        assert str(d) == "hr-en"

    def test_parse_needs_a_dash(self):
        with pytest.raises(ValueError, match="expected src-tgt direction, got 'hren'"):
            Direction.parse("hren")

    def test_same_sides_rejected(self):
        with pytest.raises(ValueError):
            Direction("en", "en")

    @pytest.mark.parametrize("code", ["EN", "e", "abcdefghi", "e1", ""])
    def test_bad_codes(self, code):
        with pytest.raises(ValueError):
            Direction(code, "en")

    def test_reversed(self):
        assert Direction("hr", "en").reversed() == Direction("en", "hr")


class TestOriginPool:
    def test_aliases(self):
        assert OriginPool.parse("bt") is OriginPool.BACK_TRANSLATION
        assert OriginPool.parse("bitext") is OriginPool.BITEXT
        assert OriginPool.parse("dual_pseudo") is OriginPool.DUAL_PSEUDO

    def test_unknown(self):
        with pytest.raises(ValueError):
            OriginPool.parse("mystery")

    @pytest.mark.parametrize("member", list(OriginPool))
    @pytest.mark.parametrize("round_trip", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_hash_agrees_with_equality(self, member, round_trip):
        # OriginPool hashes by identity, which needs every round trip to
        # return the member itself.
        back = round_trip(member)
        assert back is member
        assert back == member and hash(back) == hash(member)
        assert all((other == member) == (other is member) for other in OriginPool)
        assert {member: 1}[back] == 1


class TestLoadManifest:
    def test_round_trip_order_preserved(self, tmp_path):
        manifest = build_manifest(tmp_path, [
            ("a.tsv", "hr-en", "bitext", [("x", "y")]),
            ("b.tsv", "en-hr", "bt", [("p", "q")]),
        ])
        assert [s.raw_path for s in manifest.shards] == ["a.tsv", "b.tsv"]
        assert manifest.shards[0].origin is OriginPool.BITEXT
        assert manifest.shards[1].origin is OriginPool.BACK_TRANSLATION
        assert manifest.shards[1].direction == Direction("en", "hr")

    def test_duplicate_path(self, tmp_path):
        write_shard(tmp_path / "a.tsv", [("x", "y")])
        (tmp_path / "m.tsv").write_text(
            "a.tsv\thr\ten\tbitext\t1\na.tsv\ten\thr\tbitext\t1\n", encoding="utf-8")
        with pytest.raises(TableError, match=":2: duplicate shard path 'a.tsv'"):
            load_manifest(tmp_path / "m.tsv")

    def test_same_language_direction(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.tsv\ten\ten\tbitext\t1\n", encoding="utf-8")
        with pytest.raises(TableError, match="direction must have distinct sides"):
            load_manifest(tmp_path / "m.tsv")

    def test_bad_field_count(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\n", encoding="utf-8")
        with pytest.raises(TableError, match="expected 5 fields, got 4") as err:
            load_manifest(tmp_path / "m.tsv")
        assert err.value.line_no == 1

    def test_bad_origin(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tnope\t1\n", encoding="utf-8")
        with pytest.raises(TableError, match="unknown origin pool: 'nope'"):
            load_manifest(tmp_path / "m.tsv")

    def test_negative_count(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t-3\n", encoding="utf-8")
        with pytest.raises(TableError, match="negative line count"):
            load_manifest(tmp_path / "m.tsv")

    def test_comments_and_blank_lines(self, tmp_path):
        write_shard(tmp_path / "a.tsv", [("x", "y")])
        (tmp_path / "m.tsv").write_text(
            "# header\n\na.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        assert len(load_manifest(tmp_path / "m.tsv").shards) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.tsv")

    def test_verify_detects_mismatch(self, tmp_path):
        write_shard(tmp_path / "a.tsv", [("x", "y"), ("p", "q")])
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t5\n", encoding="utf-8")
        load_manifest(tmp_path / "m.tsv")  # advisory count: fine unverified
        with pytest.raises(TableError, match="declared 5 lines but found 2"):
            load_manifest(tmp_path / "m.tsv", verify=True)

    def test_verify_mismatch_names_its_line(self, tmp_path):
        write_shard(tmp_path / "a.tsv", [("x", "y")])
        write_shard(tmp_path / "b.tsv", [("x", "y"), ("p", "q")])
        (tmp_path / "m.tsv").write_text(
            "# path\tsrc\ttgt\torigin\tcount\na.tsv\thr\ten\tbitext\t1\n"
            "b.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        with pytest.raises(TableError) as info:
            load_manifest(tmp_path / "m.tsv", verify=True)
        assert info.value.line_no == 3
        assert str(info.value) == (f"{tmp_path / 'm.tsv'}:3: shard b.tsv: "
                                   "declared 1 lines but found 2")

    def test_verify_reads_shards_by_the_line_rule(self, tmp_path):
        (tmp_path / "a.tsv").write_bytes(b"s0\tt0\nsource \xff\ttarget\n")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t2\n", encoding="utf-8")
        load_manifest(tmp_path / "m.tsv")   # unverified, the shard is not read
        with pytest.raises(TableError) as info:
            load_manifest(tmp_path / "m.tsv", verify=True)
        assert (info.value.path, info.value.line_no) == (tmp_path / "m.tsv", 1)
        assert info.value.reason == "a.tsv:2: not UTF-8 at byte 8 (invalid start byte)"

    def test_write_round_trip(self, tmp_path):
        manifest = build_manifest(tmp_path, [
            ("a.tsv", "hr-en", "bitext", [("x", "y")]),
            ("b.tsv", "en-hu", "dual_pseudo", [("p", "q"), ("r", "s")]),
        ])
        write_manifest(manifest, tmp_path / "copy.tsv")
        again = load_manifest(tmp_path / "copy.tsv")
        assert [(s.raw_path, s.direction, s.origin, s.declared_line_count)
                for s in again.shards] == \
               [(s.raw_path, s.direction, s.origin, s.declared_line_count)
                for s in manifest.shards]


class TestReadPairs:
    def test_enumeration(self, make_corpus):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext",
                                 [("s1", "t1"), ("s2", "t2"), ("s3", "t3")])])
        pairs = list(read_pairs(manifest.shard("a.tsv")))
        assert [p.line_no for p in pairs] == [1, 2, 3]
        assert pairs[1].source == "s2" and pairs[1].target == "t2"
        assert pairs[0].shard_id == "a.tsv"
        assert pairs[0].origin is OriginPool.BITEXT

    def test_empty_file(self, tmp_path):
        (tmp_path / "a.tsv").write_text("", encoding="utf-8")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t0\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "m.tsv")
        assert list(read_pairs(manifest.shard("a.tsv"))) == []

    def test_no_tab(self, tmp_path):
        (tmp_path / "a.tsv").write_text("hello world\n", encoding="utf-8")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "m.tsv")
        with pytest.raises(MalformedLineError) as err:
            list(read_pairs(manifest.shard("a.tsv")))
        assert err.value.line_no == 1

    def test_two_tabs(self, tmp_path):
        (tmp_path / "a.tsv").write_text("a\tb\tc\n", encoding="utf-8")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        with pytest.raises(MalformedLineError):
            list(read_pairs(load_manifest(tmp_path / "m.tsv").shard("a.tsv")))

    def test_unknown_shard(self, make_corpus):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [("x", "y")])])
        with pytest.raises(KeyError):
            list(read_pairs(manifest.shard("other.tsv")))

    def test_streaming_memory_bounded(self, tmp_path):
        """Iterating a large shard must not materialize it."""
        path = tmp_path / "big.tsv"
        with path.open("w", encoding="utf-8") as fh:
            for i in range(200_000):
                fh.write(f"source sentence {i}\ttarget sentence {i}\n")
        (tmp_path / "m.tsv").write_text("big.tsv\thr\ten\tbitext\t200000\n",
                                        encoding="utf-8")
        manifest = load_manifest(tmp_path / "m.tsv")
        tracemalloc.start()
        n = 0
        for _ in read_pairs(manifest.shard("big.tsv")):
            n += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n == 200_000
        assert peak < 2_000_000  # bytes; the file itself is ~9 MB


    @staticmethod
    def raw_shard(tmp_path, data):
        (tmp_path / "a.tsv").write_bytes(data)
        n = count_lines(tmp_path / "a.tsv")
        (tmp_path / "m.tsv").write_text(f"a.tsv\thr\ten\tbitext\t{n}\n", encoding="utf-8")
        return load_manifest(tmp_path / "m.tsv").shard("a.tsv")

    @pytest.mark.parametrize("data, line_no", [
        (b"s1\tt1\rs2\tt2\ns3\tt3\n", 1),   # counted as 2 lines, not 3
        (b"a\tb\nc\td\r", 2),               # a final \r with no \n after it
        (b"a\tb\r\r\nc\td\n", 1),           # \r before a CRLF line end
        (b"a\tb\n\rc\td\n", 2),
    ])
    def test_stray_carriage_return(self, tmp_path, data, line_no):
        entry = self.raw_shard(tmp_path, data)
        with pytest.raises(MalformedLineError) as err:
            list(read_pairs(entry))
        assert (err.value.path, err.value.line_no) == ("a.tsv", line_no)
        assert "carriage return outside a CRLF line end" in str(err.value)

    @pytest.mark.parametrize("data, rows", [
        (b"s0\tt0\r\ns1\tt1\r\n", [("s0", "t0"), ("s1", "t1")]),
        (b"s0\tt0\ns1\tt1", [("s0", "t0"), ("s1", "t1")]),
        (b"s0\tt0\r\ns1\tt1", [("s0", "t0"), ("s1", "t1")]),
        ("\u0161\tx\x0by\x1cz\x85\u2028 \n\t\n".encode(),
         [("\u0161", "x\x0by\x1cz\x85\u2028 "), ("", "")]),
    ])
    def test_lines_are_the_counted_lines(self, tmp_path, data, rows):
        entry = self.raw_shard(tmp_path, data)
        pairs = list(read_pairs(entry))
        assert [(p.source, p.target) for p in pairs] == rows
        assert [p.line_no for p in pairs] == list(range(1, entry.declared_line_count + 1))


class TestWriteShard:
    @pytest.mark.parametrize("n", [
        0, 1, corpus._ROWS_PER_WRITE - 1, corpus._ROWS_PER_WRITE,
        corpus._ROWS_PER_WRITE + 1, 2 * corpus._ROWS_PER_WRITE + 1,
    ])
    def test_same_as_one_write_per_row(self, tmp_path, n):
        rows = [(f"izvor {i} \u0161\u0111 \u2211", f"c\u00edl {i} \u65e5\u672c \x85")
                for i in range(n)]
        write_shard(tmp_path / "ref.tsv", rows)  # conftest: one write per row
        columns = ([s for s, _ in rows], tuple(t for _, t in rows))
        assert corpus.write_shard(tmp_path / "out.tsv", columns) == n
        assert (tmp_path / "out.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    @pytest.mark.parametrize("rows, data", [
        ([("one",), ("two",)], b"one\ntwo\n"),
        ([("s", "t", "Empty"), ("", "x", "Empty")], b"s\tt\tEmpty\n\tx\tEmpty\n"),
    ])
    def test_rows_of_any_width(self, tmp_path, rows, data):
        columns = list(zip(*rows))   # one tuple per field
        assert corpus.write_shard(tmp_path / "out", columns) == len(rows)
        first = [column[:1] for column in columns]
        assert corpus.write_shard(tmp_path / "out", first, append=True) == 1
        assert (tmp_path / "out").read_bytes() == data + data.split(b"\n")[0] + b"\n"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_append_across_batches(self, tmp_path, k):
        n = corpus._ROWS_PER_WRITE + 3
        columns = [[f"{j}:{i}" for i in range(n)] for j in range(k)]
        assert corpus.write_shard(tmp_path / "out", [c[:5] for c in columns]) == 5
        assert corpus.write_shard(tmp_path / "out", [c[5:] for c in columns], append=True) \
            == n - 5
        assert (tmp_path / "out").read_text(encoding="utf-8") == "".join(
            "\t".join(f"{j}:{i}" for j in range(k)) + "\n" for i in range(n))

    def test_no_columns_write_no_row(self, tmp_path):
        (tmp_path / "out").write_bytes(b"old\n")
        assert corpus.write_shard(tmp_path / "out", (), append=True) == 0
        assert (tmp_path / "out").read_bytes() == b"old\n"
        assert corpus.write_shard(tmp_path / "out", ()) == 0
        assert (tmp_path / "out").read_bytes() == b""

    @pytest.mark.parametrize("append", [False, True])
    def test_unequal_columns_leave_the_file_alone(self, tmp_path, append):
        (tmp_path / "out").write_bytes(b"s\tt\n")
        with pytest.raises(ValueError, match=r"unequal lengths: \[2, 1\]"):
            corpus.write_shard(tmp_path / "out", (["a", "b"], ["c"]), append=append)
        assert (tmp_path / "out").read_bytes() == b"s\tt\n"
        with pytest.raises(ValueError):
            corpus.write_shard(tmp_path / "new", (["a"], [], ["c"]), append=append)
        assert not (tmp_path / "new").exists()


class TestUnusedName:
    """``Outputs.name``: the naming rule of ``filter`` and ``augment run`` shards."""

    @staticmethod
    def _taking(*names):
        outputs = corpus.Outputs([])
        for name in names:
            assert outputs.name(name) == name
        return outputs

    def test_free_name_is_kept(self):
        outputs = self._taking("b.tsv")
        assert outputs.name("a.tsv") == "a.tsv"
        assert outputs.name("a.tsv") == "a.2.tsv"   # now taken
        assert outputs.name("b.tsv") == "b.2.tsv"

    def test_least_free_number_from_two(self):
        outputs = self._taking("a.tsv", "a.3.tsv")
        assert [outputs.name("a.tsv") for _ in range(3)] == ["a.2.tsv", "a.4.tsv", "a.5.tsv"]

    @pytest.mark.parametrize("name, renamed", [
        ("bt.hr-en.tsv", "bt.hr-en.2.tsv"), ("shard", "shard.2"), (".hidden", ".hidden.2"),
        ("a.2.tsv", "a.2.2.tsv"),
    ])
    def test_the_number_goes_before_the_suffix(self, name, renamed):
        assert self._taking(name).name(name) == renamed

    def test_the_output_manifest_name_is_taken_from_the_start(self):
        assert corpus.Outputs([]).name("manifest.tsv") == "manifest.2.tsv"


_FIELD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                 max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_FIELD, _FIELD), max_size=20),
       direction=st.sampled_from(["hr-en", "en-hu", "mk-sl"]),
       origin=st.sampled_from(list(OriginPool)))
def test_write_shard_read_pairs_round_trip(tmp_path_factory, rows, direction, origin):
    path = tmp_path_factory.mktemp("shard") / "s.tsv"
    assert corpus.write_shard(path, ([s for s, _ in rows], [t for _, t in rows])) == len(rows)
    entry = ShardEntry("s.tsv", path, Direction.parse(direction), origin, len(rows))
    pairs = list(read_pairs(entry))
    assert all(type(p) is SentencePair for p in pairs)
    assert [(p.source, p.target) for p in pairs] == rows
    assert {(p.direction, p.origin, p.shard_id) for p in pairs} <= \
        {(entry.direction, origin, "s.tsv")}
    assert [p.line_no for p in pairs] == list(range(1, len(rows) + 1))


class TestSentencePair:
    PAIR = SentencePair("izvor", "target", Direction("hr", "en"), OriginPool.BITEXT, "a.tsv", 3)

    @pytest.mark.parametrize("name", SentencePair._fields)
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.PAIR, name, None)

    def test_hashable_and_equal_by_field(self):
        twin = SentencePair(*self.PAIR)
        other = self.PAIR._replace(line_no=4)
        assert twin == self.PAIR and hash(twin) == hash(self.PAIR)
        assert {self.PAIR, twin, other} == {self.PAIR, other}

    def test_is_a_tuple_of_its_fields(self):
        assert self.PAIR == ("izvor", "target", Direction("hr", "en"), OriginPool.BITEXT,
                             "a.tsv", 3)
        assert self.PAIR < self.PAIR._replace(line_no=4)
        assert repr(self.PAIR) == ("SentencePair(source='izvor', target='target', "
                                   "direction=Direction(src='hr', tgt='en'), "
                                   "origin=<OriginPool.BITEXT: 'bitext'>, "
                                   "shard_id='a.tsv', line_no=3)")

    def test_replace_returns_a_pair(self):
        changed = self.PAIR._replace(source="novo")
        assert type(changed) is SentencePair
        assert changed.source == "novo" and changed[1:] == self.PAIR[1:]


class TestCorpusStats:
    def test_single_shard(self, make_corpus):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext",
                                 [("s", "t")] * 10)])
        stats = corpus_stats(manifest)
        assert stats.per_language == {"en": 10, "hr": 10}
        assert stats.per_direction == {Direction("hr", "en"): 10}

    def test_additivity(self, make_corpus):
        manifest = make_corpus([
            ("a.tsv", "hr-en", "bitext", [("s", "t")] * 10),
            ("b.tsv", "en-hu", "bitext", [("s", "t")] * 5),
        ])
        stats = corpus_stats(manifest)
        assert stats.per_language == {"en": 15, "hr": 10, "hu": 5}

    def test_empty_manifest(self):
        stats = corpus_stats(CorpusManifest([]))
        assert stats.per_language == {} and stats.per_direction == {}

    def test_order_invariance(self, make_corpus):
        manifest = make_corpus([
            ("a.tsv", "hr-en", "bitext", [("s", "t")] * 3),
            ("b.tsv", "en-hu", "bt", [("s", "t")] * 7),
            ("c.tsv", "hu-hr", "dual_pseudo", [("s", "t")] * 2),
        ])
        reordered = CorpusManifest(list(reversed(manifest.shards)))
        assert corpus_stats(manifest) == corpus_stats(reordered)

    def test_language_total_is_twice_pair_total(self, tmp_path):
        """Each pair contributes one sentence to each side's language."""
        rng = random.Random(7)
        langs = ["en", "hr", "hu", "mk", "ta"]
        shards = []
        for i in range(12):
            src, tgt = rng.sample(langs, 2)
            rows = [("s", "t")] * rng.randint(0, 20)
            shards.append((f"s{i}.tsv", f"{src}-{tgt}", "bitext", rows))
        stats = corpus_stats(build_manifest(tmp_path, shards))
        assert sum(stats.per_language.values()) == 2 * stats.total_pairs
