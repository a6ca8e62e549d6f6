import random
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_manifest

from mtforge import cleaning
from mtforge.cleaning import (
    FilterConfig,
    RejectReason,
    apply_filters,
    filter_corpus,
    shuffle_dataset,
    truncate_tokens,
)
from mtforge.corpus import Direction, OriginPool, SentencePair, load_manifest
from mtforge.errors import MalformedLineError, MTForgeError
from mtforge.subword import SubwordTokenizer, default_tokenizer

TOK = default_tokenizer()


def pair(source, target, direction="hr-en", origin=OriginPool.BITEXT, line_no=1):
    return SentencePair(source, target, Direction.parse(direction), origin,
                        "test.tsv", line_no)


class TestProvenanceKept:
    PAIR = SentencePair("a " * 10, "b " * 10, Direction.parse("mk-sl"),
                        OriginPool.DUAL_PSEUDO, "dp/mk-sl.tsv", 17)

    @staticmethod
    def provenance(p):
        return p.direction, p.origin, p.shard_id, p.line_no

    def test_apply_filters(self):
        verdict = apply_filters(self.PAIR, FilterConfig(max_tokens=3), TOK)
        assert type(verdict) is SentencePair
        assert verdict.source != self.PAIR.source   # truncated
        assert self.provenance(verdict) == self.provenance(self.PAIR)


class TestApplyFilters:
    def test_too_long_source(self):
        p = pair(" ".join(["word"] * 1025), "short")
        verdict = apply_filters(p, FilterConfig(), TOK)
        assert verdict is RejectReason.TOO_LONG

    def test_at_word_limit_kept(self):
        p = pair(" ".join(["w"] * 1024), "w " * 5)
        cfg = FilterConfig(max_tokens=5000, length_ratio_limit=2000.0)
        assert isinstance(apply_filters(p, cfg, TOK), SentencePair)

    def test_latin_serbian_rejected(self):
        cfg = FilterConfig(script_rules={"sr": "Cyrillic"})
        p = pair("ovo je potpuno latinicno", "this is latin", direction="sr-en")
        verdict = apply_filters(p, cfg, TOK)
        assert verdict is RejectReason.WRONG_SCRIPT

    def test_cyrillic_serbian_kept(self):
        cfg = FilterConfig(script_rules={"sr": "Cyrl"})
        p = pair("ово је ћирилица",
                 "this is fine", direction="sr-en")
        assert isinstance(apply_filters(p, cfg, TOK), SentencePair)

    def test_mixed_script_majority_rule(self):
        # one Latin name inside a Cyrillic sentence stays below the majority
        cfg = FilterConfig(script_rules={"sr": "Cyrl"})
        p = pair("прича о граду Nis",
                 "a story about Nis", direction="sr-en")
        assert isinstance(apply_filters(p, cfg, TOK), SentencePair)

    def test_unk_in_target(self):
        p = pair("clean source", "bad [UNK] target")
        verdict = apply_filters(p, FilterConfig(), TOK)
        assert verdict is RejectReason.CONTAINS_UNK

    def test_unk_must_be_whole_token(self):
        p = pair("clean source", "weird[UNK]glued target word")
        assert isinstance(apply_filters(p, FilterConfig(), TOK), SentencePair)

    def test_ratio_exceeded(self):
        # unknown single words tokenize to one piece per character
        p = pair("a" * 10, "b" * 31)
        cfg = FilterConfig(length_ratio_limit=3.0)
        verdict = apply_filters(p, cfg, TOK)
        assert verdict is RejectReason.RATIO_EXCEEDED

    def test_ratio_at_limit_kept(self):
        p = pair("a" * 10, "b" * 30)
        verdict = apply_filters(p, FilterConfig(length_ratio_limit=3.0), TOK)
        assert isinstance(verdict, SentencePair)

    def test_identical_sides_kept_unchanged(self):
        p = pair("w x y z q", "w x y z q")
        verdict = apply_filters(p, FilterConfig(length_ratio_limit=1.5), TOK)
        assert isinstance(verdict, SentencePair) and verdict == p

    def test_empty_side(self):
        verdict = apply_filters(pair("  ", "target"), FilterConfig(), TOK)
        assert verdict is RejectReason.EMPTY

    def test_langid_mismatch(self):
        verdict = apply_filters(pair("s", "t"), FilterConfig(), TOK,
                                langid=("de", "en"))
        assert verdict is RejectReason.BAD_LANGID

    def test_langid_match(self):
        verdict = apply_filters(pair("s", "t"), FilterConfig(), TOK, langid=("hr", "en"))
        assert isinstance(verdict, SentencePair)

    def test_langid_required_but_missing(self):
        cfg = FilterConfig(langid_required=True)
        assert apply_filters(pair("s", "t"), cfg, TOK) is RejectReason.BAD_LANGID

    def test_check_order_empty_before_langid(self):
        cfg = FilterConfig(langid_required=True)
        assert apply_filters(pair("", ""), cfg, TOK) is RejectReason.EMPTY

    def test_check_order_too_long_before_unk(self):
        p = pair(" ".join(["w"] * 1025), "[UNK]")
        assert apply_filters(p, FilterConfig(), TOK) is RejectReason.TOO_LONG

    def test_kept_pairs_truncated(self):
        cfg = FilterConfig(max_tokens=4, length_ratio_limit=3.0)
        p = pair("abcd efgh", "abcd efg")  # 9 vs 8 char-fallback tokens
        verdict = apply_filters(p, cfg, TOK)
        assert isinstance(verdict, SentencePair)
        assert len(TOK.tokenize(verdict.source)) <= 4
        assert len(TOK.tokenize(verdict.target)) <= 4

    def test_deterministic(self):
        p = pair("x" * 10, "y" * 25)
        cfg = FilterConfig(length_ratio_limit=2.0)
        assert apply_filters(p, cfg, TOK) == apply_filters(p, cfg, TOK)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ratio_limit_rejected(self, limit):
        with pytest.raises(ValueError):
            FilterConfig(length_ratio_limit=limit)

    @pytest.mark.parametrize("limits", [{"max_words": 0}, {"max_tokens": 0}])
    def test_word_and_token_limits_must_be_positive(self, limits):
        with pytest.raises(ValueError, match="max_words and max_tokens must be >= 1"):
            FilterConfig(**limits)

    @pytest.mark.parametrize("lang", ["HR", "sr-Latn", ""])
    def test_script_rule_keys_must_be_language_codes(self, lang):
        with pytest.raises(ValueError, match="invalid language code"):
            FilterConfig(script_rules={"hr": "Latin", lang: "Latin"})


class CountingTokenizer:
    """Passes calls through to a tokenizer and records the texts."""

    def __init__(self, inner):
        self.inner = inner
        self.tokenized: list[str] = []
        self.counted: list[str] = []

    def tokenize(self, text):
        self.tokenized.append(text)
        return self.inner.tokenize(text)

    def count(self, text):
        self.counted.append(text)
        return self.inner.count(text)

    def detokenize(self, tokens):
        return self.inner.detokenize(tokens)


def test_apply_filters_counts_each_side_and_tokenizes_only_a_side_it_cuts():
    cfg = FilterConfig(max_tokens=3, length_ratio_limit=3.0)
    pairs = [
        pair("the cat", "the dog"),            # within the limit, unchanged
        pair("the cat sat down", "zzzz"),      # both sides truncated
        pair("xx" + "e\u0301", "xxyy"),        # cut at max_tokens lands on a combining mark
        pair("x", "y" * 10),                   # rejected by the ratio check
        pair("same", "same"),
        pair("the cat", "zzzz"),               # only the target truncated
    ]
    for p in pairs:
        stub = CountingTokenizer(TOK)
        verdict = apply_filters(p, cfg, stub)
        assert sorted(stub.counted) == sorted([p.source, p.target])
        n_src, n_tgt = len(TOK.tokenize(p.source)), len(TOK.tokenize(p.target))
        kept = isinstance(verdict, SentencePair)
        assert kept == (max(n_src, n_tgt) / min(n_src, n_tgt) <= 3.0)
        cut = [text for text, n in ((p.source, n_src), (p.target, n_tgt)) if kept and n > 3]
        assert sorted(stub.tokenized) == sorted(cut)
        if kept:
            assert verdict.source == truncate_tokens(p.source, TOK, 3)
            assert verdict.target == truncate_tokens(p.target, TOK, 3)
            if max(n_src, n_tgt) <= 3:   # untruncated: the pair itself, not a copy
                assert verdict is p
            else:
                assert verdict is not p
                assert type(verdict) is SentencePair
                assert verdict[2:] == p[2:]   # provenance kept
    assert apply_filters(pairs[2], cfg, TOK).source == "xx"
    assert apply_filters(pairs[5], cfg, TOK) == pairs[5]._replace(target="zzz")


@pytest.mark.parametrize("side, max_tokens", [
    ("e" + "\u0301" * 20, 5),   # the back-off past combining marks reaches zero tokens
    ("  " + "z" * 10, 2),        # the cut keeps only the leading whitespace
])
def test_truncation_that_keeps_nothing_is_too_long(side, max_tokens):
    verdict = apply_filters(pair(side, side), FilterConfig(max_tokens=max_tokens), TOK)
    assert verdict is RejectReason.TOO_LONG


def test_ratio_ladder_monotone():
    """A pair kept at a tight ratio limit stays kept at looser limits."""
    rng = random.Random(123)
    configs = [FilterConfig(length_ratio_limit=r) for r in (1.5, 2.0, 2.5, 3.0)]
    for _ in range(2000):
        p = pair("x" * rng.randint(1, 40), "y" * rng.randint(1, 40))
        kept = [isinstance(apply_filters(p, cfg, TOK), SentencePair) for cfg in configs]
        for tight, loose in zip(kept, kept[1:]):
            assert not tight or loose


@settings(max_examples=300, deadline=None)
@given(source=st.text(alphabet="ab z\u0301", min_size=1, max_size=40),
       target=st.text(alphabet="ab z\u0301", min_size=1, max_size=40),
       limits=st.lists(st.floats(1.0, 50.0, exclude_min=True), min_size=2, max_size=2))
def test_ratio_ladder_monotone_property(source, target, limits):
    """Kept at ratio limit r implies kept at every r' > r, on any text."""
    tight, loose = sorted(limits)
    kept = [isinstance(apply_filters(pair(source, target), FilterConfig(length_ratio_limit=r),
                                     TOK), SentencePair)
            for r in (tight, loose)]
    assert not kept[0] or kept[1]


class TestTruncateTokens:
    def test_under_limit_unchanged(self):
        text = "the cat sat"
        assert truncate_tokens(text, TOK, 512) == text

    def test_long_text_truncated(self):
        text = "z" * 600  # 600 fallback tokens
        out = truncate_tokens(text, TOK, 512)
        assert len(TOK.tokenize(out)) == 512

    def test_limit_one(self):
        assert truncate_tokens("the cat", TOK, 1) == "the"

    def test_never_grows(self):
        rng = random.Random(5)
        for _ in range(200):
            text = " ".join(rng.choices(["the", "zzz", "cat", "qqqq"],
                                        k=rng.randint(1, 30)))
            limit = rng.randint(1, 20)
            assert len(TOK.tokenize(truncate_tokens(text, TOK, limit))) <= limit

    def test_no_mid_grapheme_cut(self):
        # NFD "e" + combining acute: never strand the base letter
        text = "xx" + "é"
        out = truncate_tokens(text, TOK, 3)
        assert not out.endswith("e")

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            truncate_tokens("x", TOK, 0)


class TestShuffleDataset:
    def test_same_seed_identical(self, make_corpus, tmp_path):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext",
                                 [(f"s{i}", f"t{i}") for i in range(5)])])
        out1, out2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
        shuffle_dataset(manifest, 7, out1)
        shuffle_dataset(manifest, 7, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_permutation_of_lines(self, make_corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(cleaning, "_LINES_PER_CHUNK", 20)
        rows = [(f"s{i}", f"t{i}") for i in range(137)]
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", rows)])
        out = tmp_path / "out.tsv"
        n = shuffle_dataset(manifest, 99, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert n == 137
        assert sorted(lines) == sorted(f"s{i}\tt{i}" for i in range(137))

    def test_single_line(self, make_corpus, tmp_path):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [("only", "line")])])
        out = tmp_path / "out.tsv"
        shuffle_dataset(manifest, 1, out)
        assert out.read_text(encoding="utf-8") == "only\tline\n"

    def test_distinct_seeds_differ(self, make_corpus, tmp_path):
        rows = [(f"s{i}", f"t{i}") for i in range(150)]
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", rows)])
        out1, out2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
        shuffle_dataset(manifest, 1, out1)
        shuffle_dataset(manifest, 2, out2)
        assert out1.read_bytes() != out2.read_bytes()

    def test_empty_corpus(self, make_corpus, tmp_path):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [])])
        out = tmp_path / "out.tsv"
        assert shuffle_dataset(manifest, 3, out) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_multi_shard_merge(self, make_corpus, tmp_path):
        manifest = make_corpus([
            ("a.tsv", "hr-en", "bitext", [("a1", "a2"), ("a3", "a4")]),
            ("b.tsv", "en-hu", "bt", [("b1", "b2")]),
        ])
        out = tmp_path / "out.tsv"
        shuffle_dataset(manifest, 11, out)
        assert sorted(out.read_text(encoding="utf-8").splitlines()) == \
            ["a1\ta2", "a3\ta4", "b1\tb2"]

    def test_stray_carriage_return_raises(self, tmp_path):
        # One line by count_lines; text mode would write two.
        (tmp_path / "a.tsv").write_bytes(b"s0\tt0\ns1\tt1\rs2\tt2\n")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t2\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "m.tsv")
        with pytest.raises(MalformedLineError) as err:
            shuffle_dataset(manifest, 5, tmp_path / "out.tsv")
        assert (err.value.path, err.value.line_no) == ("a.tsv", 2)
        assert not (tmp_path / "out.tsv").exists()

    def test_crlf_shard_gives_lf_output(self, tmp_path):
        (tmp_path / "a.tsv").write_bytes(b"s1\tt1\r\ns2\tt2\r\ns3\tt3")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t3\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert shuffle_dataset(load_manifest(tmp_path / "m.tsv", verify=True), 5, out) == 3
        data = out.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == 3
        assert sorted(data.decode().splitlines()) == ["s1\tt1", "s2\tt2", "s3\tt3"]

    def test_one_file_is_open_at_a_time(self, make_corpus, tmp_path, monkeypatch):
        # 200 one-line chunks: the scatter used to hold all 200 open at once.
        manifest = make_corpus([("a.tsv", "hr-en", "bitext",
                                 [(f"s{i}", f"t{i}") for i in range(200)])])
        opened, most, path_open = [], 0, Path.open

        def counting_open(path, *args, **kwargs):
            nonlocal most
            opened.append(fh := path_open(path, *args, **kwargs))
            most = max(most, sum(not f.closed for f in opened))
            return fh

        monkeypatch.setattr(Path, "open", counting_open)
        monkeypatch.setattr(cleaning, "_LINES_PER_CHUNK", 1)
        assert shuffle_dataset(manifest, 3, tmp_path / "out.tsv") == 200
        assert len(opened) > 200 and most <= 2   # a shard, and a scratch or output file


_LINE_TEXT = st.text(alphabet="ab \u00e9\x85\u2028", max_size=6)


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(st.lists(st.tuples(_LINE_TEXT, _LINE_TEXT), max_size=12),
                       min_size=1, max_size=3),
       seed=st.integers(0, 2**32), lines_per_chunk=st.integers(1, 5))
def test_shuffle_is_a_seeded_permutation(shards, seed, lines_per_chunk):
    """The output holds every input line once, the same seed gives the same
    bytes, and they are those of the documented algorithm: one
    ``randrange(n_chunks)`` per line in manifest order, then one ``shuffle``
    per chunk in chunk order."""
    with (tempfile.TemporaryDirectory() as tmp,
          patch.object(cleaning, "_LINES_PER_CHUNK", lines_per_chunk)):
        root = Path(tmp)
        manifest = build_manifest(root, [(f"s{i}.tsv", "hr-en", "bitext", rows)
                                         for i, rows in enumerate(shards)])
        outputs = [root / "o1.tsv", root / "o2.tsv"]
        counts = [shuffle_dataset(manifest, seed, out) for out in outputs]
        data = [out.read_bytes() for out in outputs]
    expected = [f"{s}\t{t}" for rows in shards for s, t in rows]
    assert counts == [len(expected)] * 2
    assert data[0] == data[1]
    assert sorted(data[0].decode().split("\n")[:-1]) == sorted(expected)
    rng = random.Random(seed)
    chunks = [[] for _ in range(max(1, -(-len(expected) // lines_per_chunk)))]
    for line in expected:
        chunks[rng.randrange(len(chunks))].append(line)
    for chunk in chunks:
        rng.shuffle(chunk)
    assert data[0] == "".join(line + "\n" for chunk in chunks for line in chunk).encode()


class TestFilterCorpus:
    def test_writes_filtered_shards_and_rejects(self, make_corpus, tmp_path):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [
            ("good line", "fine line"),
            ("", "empty source"),
            ("has [UNK] inside", "target"),
        ])])
        out_dir, rej_dir = tmp_path / "clean", tmp_path / "rej"
        filtered, counts = filter_corpus(manifest, FilterConfig(), TOK,
                                         out_dir, rej_dir)
        assert counts["kept"] == 1
        assert counts["rejected_Empty"] == 1
        assert counts["rejected_ContainsUnk"] == 1
        assert (out_dir / "a.tsv").read_text(encoding="utf-8") == "good line\tfine line\n"
        reject_lines = (rej_dir / "a.tsv").read_text(encoding="utf-8").splitlines()
        assert reject_lines == ["\tempty source\tEmpty",
                                "has [UNK] inside\ttarget\tContainsUnk"]
        assert (out_dir / "manifest.tsv").exists()
        assert filtered.shards[0].declared_line_count == 1

    def test_langid_sidecar(self, make_corpus, tmp_path):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [
            ("prva recenica ovdje", "first sentence here"),
            ("zapravo njemacki tekst", "actually german text"),
        ])])
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        (langid_dir / "a.tsv.langid").write_text("hr\ten\nde\ten\n", encoding="utf-8")
        _, counts = filter_corpus(manifest, FilterConfig(), TOK,
                                  tmp_path / "clean", langid_dir=langid_dir)
        assert counts["kept"] == 1
        assert counts["rejected_BadLangId"] == 1

    def test_same_basename_shards_read_their_own_sidecars(self, tmp_path):
        # The filtered names a.tsv and a.2.tsv name the sidecars, not the
        # shared basename, which gave sub/a.tsv the sidecar of a.tsv.
        (tmp_path / "sub").mkdir()
        for name in ("a.tsv", "sub/a.tsv"):
            (tmp_path / name).write_text("prva recenica\tfirst sentence\n"
                                         "druga recenica\tsecond sentence\n", encoding="utf-8")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t2\n"
                                        "sub/a.tsv\thu\ten\tbitext\t2\n", encoding="utf-8")
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        (langid_dir / "a.tsv.langid").write_text("hr\ten\nde\ten\n", encoding="utf-8")
        (langid_dir / "a.2.tsv.langid").write_text("hu\ten\nhu\ten\n", encoding="utf-8")
        filtered, counts = filter_corpus(load_manifest(tmp_path / "m.tsv"), FilterConfig(), TOK,
                                         tmp_path / "clean", langid_dir=langid_dir)
        assert [e.declared_line_count for e in filtered.shards] == [1, 2]
        assert counts["kept"] == 3 and counts["rejected_BadLangId"] == 1

    @pytest.mark.parametrize("sidecar_text", ["hr\ten\n", "hr\ten\nhr\ten\nhr\ten\n"])
    def test_langid_sidecar_length_must_match_shard(self, make_corpus, tmp_path,
                                                    sidecar_text):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [
            ("prva recenica", "first sentence"),
            ("druga recenica", "second sentence"),
        ])])
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        sidecar = langid_dir / "a.tsv.langid"
        sidecar.write_text(sidecar_text, encoding="utf-8")
        with pytest.raises(MTForgeError, match="langid lines, but shard") as exc:
            filter_corpus(manifest, FilterConfig(), TOK, tmp_path / "clean",
                          langid_dir=langid_dir)
        message = str(exc.value)
        assert str(sidecar) in message
        assert f"{sidecar_text.count(chr(10))} langid lines" in message
        assert "2 lines" in message

    @pytest.mark.parametrize("sidecar_text, error, message", [
        ("hr\ten\n", MalformedLineError, "^a.tsv:1: carriage return outside"),
        ("hr\ten\nhr\ten\n", MTForgeError, "2 langid lines, but shard .* has 1 lines$"),
    ])
    def test_stray_carriage_return_counts_one_line(self, tmp_path, sidecar_text, error,
                                                   message):
        # One line by count_lines; text mode would read two and filter both.
        (tmp_path / "a.tsv").write_bytes(b"s1\tt1\rs2\tt2\n")
        (tmp_path / "m.tsv").write_text("a.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "m.tsv")
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        (langid_dir / "a.tsv.langid").write_text(sidecar_text, encoding="utf-8")
        with pytest.raises(error, match=message):
            filter_corpus(manifest, FilterConfig(), TOK, tmp_path / "clean",
                          langid_dir=langid_dir)

    def test_stray_carriage_return_in_sidecar(self, make_corpus, tmp_path):
        # Text mode would read three verdicts here; count_lines counts two.
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [("s1", "t1"), ("s2", "t2")])])
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        (langid_dir / "a.tsv.langid").write_bytes(b"hr\ten\r\nhr\ten\rde\ten\n")
        with pytest.raises(MalformedLineError) as err:
            filter_corpus(manifest, FilterConfig(), TOK, tmp_path / "clean",
                          langid_dir=langid_dir)
        assert err.value.line_no == 2 and "a.tsv.langid" in str(err.value)

    @pytest.mark.parametrize("sidecar_text, line_no", [
        ("hr en\nhr\ten\n", 1),        # no tab: it read as ("hr en", "")
        ("hr\ten\nhr\ten\textra\n", 2),  # two: it read as ("hr", "en\textra")
    ])
    def test_sidecar_line_holds_one_tab(self, make_corpus, tmp_path, sidecar_text, line_no):
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", [("s1", "t1"), ("s2", "t2")])])
        langid_dir = tmp_path / "langid"
        langid_dir.mkdir()
        sidecar = langid_dir / "a.tsv.langid"
        sidecar.write_text(sidecar_text, encoding="utf-8")
        with pytest.raises(MalformedLineError) as err:
            filter_corpus(manifest, FilterConfig(), TOK, tmp_path / "clean",
                          langid_dir=langid_dir)
        assert (err.value.path, err.value.line_no) == (sidecar, line_no)
        assert str(err.value).startswith(f"{sidecar}:{line_no}: expected exactly one tab")

    def test_shard_named_like_the_manifest(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.tsv").write_text("s\tt\n", encoding="utf-8")
        (tmp_path / "m.tsv").write_text("data/manifest.tsv\thr\ten\tbitext\t1\n",
                                        encoding="utf-8")
        out_dir = tmp_path / "clean"
        filtered, _ = filter_corpus(load_manifest(tmp_path / "m.tsv"), FilterConfig(), TOK,
                                    out_dir)
        assert [e.raw_path for e in filtered.shards] == ["manifest.2.tsv"]
        assert (out_dir / "manifest.2.tsv").read_text(encoding="utf-8") == "s\tt\n"
        assert load_manifest(out_dir / "manifest.tsv", verify=True).shards == filtered.shards

    @pytest.mark.parametrize("pairs_per_write", [1, 2, 3, 100])
    def test_output_is_independent_of_the_batch_size(self, make_corpus, tmp_path,
                                                     monkeypatch, pairs_per_write):
        rows = [("good line", "fine line"), ("", "empty source"),
                ("has [UNK] inside", "target"), ("second good", "line here"), ("x", "y")]
        manifest = make_corpus([("a.tsv", "hr-en", "bitext", rows),
                                ("b.tsv", "hr-en", "bitext", rows[:2])])
        monkeypatch.setattr(cleaning, "_PAIRS_PER_WRITE", pairs_per_write)
        _, counts = filter_corpus(manifest, FilterConfig(), TOK, tmp_path / "clean",
                                  tmp_path / "rej")
        assert counts["kept"] == 4 and counts["rejected_Empty"] == 2
        assert (tmp_path / "clean" / "a.tsv").read_bytes() == \
            b"good line\tfine line\nsecond good\tline here\nx\ty\n"
        assert (tmp_path / "rej" / "a.tsv").read_bytes() == \
            b"\tempty source\tEmpty\nhas [UNK] inside\ttarget\tContainsUnk\n"
        assert (tmp_path / "clean" / "b.tsv").read_bytes() == b"good line\tfine line\n"
