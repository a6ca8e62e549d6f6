import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bleu_oracle import bleu_oracle, bleu_oracle_full, clipped_matches
from greedy_oracle import greedy_oracle
from mtforge import corpus, subword
from mtforge.corpus import Direction, iter_line_chunks
from mtforge.errors import (
    EmptyCorpusError,
    LengthMismatchError,
    MalformedLineError,
    TableError,
)
from mtforge.evaluation import (MAX_ORDER, ScoreMatrix, _add_clipped_matches, corpus_bleu,
                                evaluate_directions, stream_bleu)
from mtforge.subword import SubwordTokenizer, default_tokenizer
from mtforge.translator import (
    NOISE_TOKEN,
    CipherLanguage,
    CipherTranslator,
    Direct,
    NoisyTranslator,
    PivotVia,
)


class TestSubwordTokenizer:
    def test_whole_word_longest_match(self):
        tok = default_tokenizer()
        assert tok.tokenize("the cat") == ["the", " ", "cat"]

    def test_unknown_word_falls_back_to_characters(self):
        tok = SubwordTokenizer(["the", " "])
        assert tok.tokenize("the qat") == ["the", " ", "q", "a", "t"]

    def test_empty_string(self):
        assert default_tokenizer().tokenize("") == []

    def test_round_trip_simple(self):
        tok = default_tokenizer()
        for text in ("the cat sat", "  double  spaces ", "tabs\tand\nnewlines",
                     "ünïcödé — ♞ 漢字"):
            assert tok.detokenize(tok.tokenize(text)) == text

    def test_round_trip_fuzzed_unicode(self):
        """Identity on 10^4 random Unicode strings (character fallback makes
        tokenization total)."""
        rng = random.Random(2024)
        tok = default_tokenizer()
        alphabets = (
            [chr(c) for c in range(0x20, 0x7f)]
            + [chr(c) for c in range(0x400, 0x450)]   # Cyrillic
            + [chr(c) for c in range(0x4e00, 0x4e40)]  # CJK
            + ["́", "é", "\t", "\n", " ", "▁"]
        )
        for _ in range(10_000):
            text = "".join(rng.choices(alphabets, k=rng.randint(0, 30)))
            assert tok.detokenize(tok.tokenize(text)) == text

    def test_multichar_whitespace_piece_uses_greedy_fallback(self):
        tok = SubwordTokenizer(["a b", "a", " "])
        assert tok.tokenize("a b a") == tok._greedy("a b a") == ["a b", " ", "a"]

    def test_longest_match_prefers_longer_piece(self):
        tok = SubwordTokenizer(["a", "ab", "abc"])
        assert tok.tokenize("abcab") == ["abc", "ab"]

    def test_vocab_file_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("hello\t-1.5\nworld\n \n", encoding="utf-8")
        tok = SubwordTokenizer.from_file(path)
        assert tok.tokenize("hello world") == ["hello", " ", "world"]
        assert tok.vocab["hello"] == -1.5

    def test_vocab_file_keeps_comment_and_space_pieces(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"#\t-2\r\n \n\n  \t0.5\nab\r\n")
        assert SubwordTokenizer.from_file(path).vocab == {"#": -2.0, " ": 0.0,
                                                          "  ": 0.5, "ab": 0.0}

    def test_vocab_file_stray_carriage_return(self, tmp_path):
        # One line by count_lines; universal newlines would read two pieces.
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"ab\rcd\t-1.5\n")
        with pytest.raises(MalformedLineError) as err:
            SubwordTokenizer.from_file(path)
        assert (err.value.shard_id, err.value.line_no) == (path, 1)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "high"])
    def test_vocab_file_bad_score_is_located(self, tmp_path, score):
        path = tmp_path / "vocab.txt"
        path.write_text(f"a\t-1\n\nb\t{score}\n", encoding="utf-8")
        with pytest.raises(TableError) as err:
            SubwordTokenizer.from_file(path)
        assert (err.value.path, err.value.line_no) == (path, 3)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_refused(self, score):
        with pytest.raises(ValueError, match="piece 'b': not a finite score"):
            SubwordTokenizer({"a": -1.0, "b": score})


# Letters, every kind of whitespace the run splitter must treat alike
# (ASCII, the \x1c-\x1f separators, NEL, NBSP, LINE SEPARATOR) and a
# combining mark. Texts also draw "x", which starts no piece.
_LETTERS = "abc\u0301"
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2028"
_word_pieces = st.text(alphabet=_LETTERS, min_size=1, max_size=4)
_any_pieces = st.text(alphabet=_LETTERS + _SPACES, min_size=1, max_size=4)
_multichar_space_pieces = st.sampled_from(["a b", "  ", "\t\n", "c\xa0", "\u2028a"])
_vocabs = st.one_of(
    # No multi-character piece holds whitespace: tokenized per run.
    st.lists(st.one_of(_word_pieces, st.sampled_from(_SPACES)), max_size=12),
    # At least one does: the whole-string greedy fallback.
    st.tuples(st.lists(_any_pieces, max_size=12), _multichar_space_pieces)
    .map(lambda t: t[0] + [t[1]]),
)


@st.composite
def _vocab_and_texts(draw):
    """A vocabulary, with or without the " " piece, and texts that are
    either pieces of it, one whitespace character apart (the all-piece path
    when that character is a piece); words joined by single spaces, each a
    whitespace-free piece or not (the split test, also on "" and one word);
    or any text of the letters, "x" and whitespace (runs that start no
    piece, and the per-run fallback)."""
    vocab = [p for p in draw(_vocabs) if p != " "] + [" "] * draw(st.booleans())
    of_pieces = st.lists(
        st.tuples(st.sampled_from(vocab or ["a"]), st.sampled_from(_SPACES)),
        max_size=8).map(lambda pairs: "".join(p + space for p, space in pairs))
    words = [p for p in vocab if p.split() == [p]] or ["a"]
    single_spaced = st.lists(st.one_of(st.sampled_from(words), _word_pieces, st.just("x")),
                             max_size=8).map(" ".join)
    any_text = st.text(alphabet=_LETTERS + "x" + _SPACES, max_size=40)
    return vocab, draw(st.lists(st.one_of(of_pieces, single_spaced, any_text),
                                min_size=1, max_size=4))


@settings(max_examples=400, deadline=None)
@given(case=_vocab_and_texts())
def test_tokenize_matches_greedy_and_round_trips(case):
    """``tokenize`` and ``_greedy`` equal the window-scan oracle, also when
    one tokenizer sees the texts a second time (runs then come from the
    memo)."""
    vocab, texts = case
    tok = SubwordTokenizer(vocab)
    for text in texts + texts:
        tokens = tok.tokenize(text)
        assert tokens == tok._greedy(text) == greedy_oracle(set(vocab), text)
        assert tok.detokenize(tokens) == text


_COUNT_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\x85", "\u2028", "\u3000"])
_COUNT_ENDS = st.sampled_from(["", "", " ", "  ", "\u3000"])


@st.composite
def _spaced_text(draw, words):
    """Words between drawn whitespace, with drawn leading and trailing
    whitespace; no words gives the empty text or whitespace alone."""
    parts = [draw(_COUNT_ENDS)]
    for i, word in enumerate(draw(st.lists(words, max_size=6))):
        parts += [draw(_COUNT_SEPARATORS)] * (i > 0) + [word]
    return "".join(parts + [draw(_COUNT_ENDS)])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), words=st.lists(_word_pieces, max_size=6),
       spaces=st.sets(st.sampled_from([" ", "\t"])),
       wide_space=st.sampled_from([None, "  ", " \t", "\u3000 "]))
def test_count_is_the_length_of_tokenize(data, words, spaces, wide_space):
    """``count`` equals ``len(tokenize)``: on the all-piece path (pieces
    between single spaces), off it, and when a multi-character whitespace
    piece turns the run path off."""
    tok = SubwordTokenizer(words + sorted(spaces) + [wide_space] * (wide_space is not None))
    assert tok._by_runs == (wide_space is None)
    texts = data.draw(st.lists(
        st.one_of(st.lists(st.sampled_from(words or ["x"]), min_size=1, max_size=8).map(" ".join),
                  _spaced_text(st.sampled_from(words + ["x"])), st.just(""),
                  st.text(alphabet=_LETTERS + "x \t\x85\u2028\u3000", max_size=20)),
        min_size=1, max_size=4))
    for text in texts + texts:   # the second time, greedy runs come from the memo
        assert tok.count(text) == len(tok.tokenize(text))


class _Probes(dict):
    """A vocabulary that records every window looked up in it."""

    def __init__(self, pieces):
        super().__init__(pieces)
        self.probes = []

    def __contains__(self, key):
        self.probes.append(key)
        return super().__contains__(key)


class _NoRegex:
    def findall(self, text):
        raise AssertionError(f"run regex called on {text!r}")


class TestTokenizePaths:
    def test_all_piece_text_is_its_runs(self):
        tok = SubwordTokenizer(["kafo", "bi", " ", "zu"])
        tok._greedy = None   # any greedy call would fail
        assert tok.tokenize("kafo bi zu kafo") == ["kafo", " ", "bi", " ", "zu", " ", "kafo"]

    def test_whitespace_piece_between_spaces_is_not_split_again(self, monkeypatch):
        # "\t" is a word of the split at " " and a piece, so the words decide
        # the tokens; the whitespace split differs, so the split compare
        # alone would send this text to the run regex.
        def no_greedy(text):
            raise AssertionError(f"greedy matching called on {text!r}")

        monkeypatch.setattr(subword, "_RUNS", _NoRegex())
        tok = SubwordTokenizer(["kafo", "bi", " ", "\t"])
        tok._greedy = no_greedy
        assert tok.tokenize("kafo \t bi") == ["kafo", " ", "\t", " ", "bi"]

    @pytest.mark.parametrize("vocab, text", [
        (["kafo", "bi", " ", "zu"], "kafo bi zu kafo"),
        (["kafo", "bi", " ", "zu"], "kafo"),
        (["kafo", "bi", " ", "zu"], "kafo qbi zu"),   # a word that is no piece
        (["kafo", "bi"], "kafo bi"),                  # " " is no piece
    ])
    def test_single_spaced_text_is_not_split_by_the_run_regex(self, monkeypatch, vocab, text):
        monkeypatch.setattr(subword, "_RUNS", _NoRegex())
        assert SubwordTokenizer(vocab).tokenize(text) == greedy_oracle(set(vocab), text)

    @pytest.mark.parametrize("text", ["kafo  bi", "kafo\tbi", "kafo\xa0bi", "kafo bi ",
                                      " kafo bi", "kafo qbi", "", " "])
    def test_text_off_the_all_piece_path_matches_the_oracle(self, text):
        vocab = ["kafo", "bi", " ", "\t"]
        assert SubwordTokenizer(vocab).tokenize(text) == greedy_oracle(set(vocab), text)

    def test_start_that_begins_no_piece_is_not_probed(self):
        tok = SubwordTokenizer(["no", "is", "e"])
        tok.vocab = _Probes(tok.vocab)
        assert tok._greedy("<noise>") == ["<", "no", "is", "e", ">"]
        assert tok.vocab.probes
        assert not any(probe[0] in "<>" for probe in tok.vocab.probes)

    def test_memo_is_bounded_in_runs_and_run_length(self):
        tok = SubwordTokenizer(["a", " "])
        long_run = "ab" * subword._MEMO_RUN_CHARS
        for i in range(2 * subword._MEMO_RUNS):
            assert tok.tokenize(f"a{i:x}q {long_run}") == greedy_oracle({"a", " "},
                                                                       f"a{i:x}q {long_run}")
            assert len(tok._memo) <= subword._MEMO_RUNS
        assert long_run not in tok._memo


class TestCorpusBleu:
    def test_identity_scores_100(self):
        refs = ["the cat sat on the mat", "a stitch in time saves nine"]
        result = corpus_bleu(refs, refs)
        assert result.score == 100.0
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)
        assert result.brevity_penalty == 1.0

    def test_brevity_penalty_hand_case(self):
        # one missing trailing token: all clipped precisions are 1 and only
        # the brevity penalty bites: 100 * exp(1 - 7/6)
        result = corpus_bleu(["a b c d e f"], ["a b c d e f g"])
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)
        assert result.brevity_penalty == pytest.approx(math.exp(-1 / 6), abs=1e-12)
        assert result.score == pytest.approx(100 * math.exp(-1 / 6), abs=1e-9)
        assert result.score == pytest.approx(84.648, abs=1e-3)
        assert (result.hyp_len, result.ref_len) == (6, 7)

    def test_zero_fourgram_overlap_smoothed(self):
        # hand-derived: p1=6/8, p2=3/6, p3=1/4, p4 smoothed to 1/3, bp=1
        # => 100 * (0.75 * 0.5 * 0.25 * (1/3))**0.25 = 100 * 2**-1.25
        hyps = ["a b c d", "e f g h"]
        refs = ["a b x d", "e f g z"]
        result = corpus_bleu(hyps, refs)
        assert result.precisions == (6 / 8, 3 / 6, 1 / 4, 1 / 3)
        assert result.score == pytest.approx(100 * 2 ** -1.25, abs=1e-9)
        assert result.score == pytest.approx(42.0448, abs=1e-3)
        assert 0 < result.score < 100
        assert result.score == bleu_oracle(hyps, refs)

    def test_matches_brute_force_oracle_exactly(self):
        rng = random.Random(77)
        vocab = list("abcdefg")
        for _ in range(100):
            n_segments = rng.randint(1, 6)
            hyps, refs = [], []
            for _ in range(n_segments):
                hyps.append(" ".join(rng.choices(vocab, k=rng.randint(1, 12))))
                refs.append(" ".join(rng.choices(vocab, k=rng.randint(1, 12))))
            assert corpus_bleu(hyps, refs).score == bleu_oracle(hyps, refs)

    def test_segment_permutation_invariance(self):
        rng = random.Random(5)
        hyps = [" ".join(rng.choices("abcd", k=8)) for _ in range(10)]
        refs = [" ".join(rng.choices("abcd", k=8)) for _ in range(10)]
        base = corpus_bleu(hyps, refs)
        order = list(range(10))
        rng.shuffle(order)
        permuted = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert permuted == base

    def test_no_unigram_overlap_scores_zero(self):
        result = corpus_bleu(["a b c"], ["x y z"])
        assert result.score == 0.0
        assert result.precisions[0] == 0.0

    def test_subword_tokenizer_changes_lengths(self):
        tok = default_tokenizer()
        result = corpus_bleu(["the cat"], ["the cat"], tok)
        assert result.score == 100.0
        assert result.hyp_len == 3  # ["the", " ", "cat"]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            corpus_bleu([], [])

    def test_longer_hypothesis_no_brevity_penalty(self):
        result = corpus_bleu(["a b c d"], ["a b c"])
        assert result.brevity_penalty == 1.0

    def test_score_within_bounds_fuzzed(self):
        rng = random.Random(13)
        for _ in range(300):
            hyps = [" ".join(rng.choices("abc", k=rng.randint(1, 9)))]
            refs = [" ".join(rng.choices("abc", k=rng.randint(1, 9)))]
            score = corpus_bleu(hyps, refs).score
            assert 0.0 <= score <= 100.0

    def test_100_only_for_equal_corpora_fuzzed(self):
        """Equality gives 100; on fuzzed corpora a 100 never appears for
        unequal token streams."""
        rng = random.Random(29)
        hits = 0
        for _ in range(2000):
            n = rng.randint(1, 3)
            hyps = [" ".join(rng.choices("ab", k=rng.randint(1, 6)))
                    for _ in range(n)]
            refs = ([h for h in hyps] if rng.random() < 0.3
                    else [" ".join(rng.choices("ab", k=rng.randint(1, 6)))
                          for _ in range(n)])
            score = corpus_bleu(hyps, refs).score
            if [h.split() for h in hyps] == [r.split() for r in refs]:
                assert score == 100.0
                hits += 1
            else:
                assert score < 100.0
        assert hits > 100  # both branches exercised


class CountingTokenizer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def tokenize(self, text):
        self.calls += 1
        return self.inner.tokenize(text)


class TestIdenticalSegments:
    def test_identical_pairs_tokenize_once_per_segment(self):
        tok = CountingTokenizer(default_tokenizer())
        refs = ["the cat sat", "good day to you", "", "x"]
        assert corpus_bleu(list(refs), refs, tok).score == 100.0
        assert tok.calls == len(refs)

    def test_differing_pairs_tokenize_twice_per_segment(self):
        tok = CountingTokenizer(default_tokenizer())
        hyps = ["the cat sat", "good day", "a", "x y"]
        refs = ["the cat sits", "good day to you", "b", "y x"]
        corpus_bleu(hyps, refs, tok)
        assert tok.calls == 2 * len(refs)

    def test_identical_segment_counts(self):
        # 5 subword tokens: 5 + 4 + 3 + 2 n-grams, every one matched
        result = corpus_bleu(["the cat sat"], ["the cat sat"], default_tokenizer())
        assert (result.hyp_len, result.ref_len) == (5, 5)
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)
        # "a b" adds 2 matched unigrams and 1 matched bigram and no 3- or
        # 4-grams to the 3/4, 1/3, 0/2 and 0/1 of the differing segment.
        mixed = corpus_bleu(["a b", "c d e f"], ["a b", "c d x f"])
        assert mixed.precisions == (5 / 6, 2 / 4, (0 + 1) / (2 + 1), (0 + 1) / (1 + 1))


_TEXT = st.text(alphabet="ab c\u0301", max_size=16)
_BLEU_TOKENIZERS = {"split": None, "subword": SubwordTokenizer(["ab", "ba", "abc", "c a", " "])}


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(st.tuples(_TEXT, _TEXT, st.integers(0, 3)), min_size=1, max_size=8),
       share=st.integers(0, 4), tokenizer=st.sampled_from(sorted(_BLEU_TOKENIZERS)))
def test_corpus_bleu_matches_oracle_with_identical_segments(segments, share, tokenizer):
    """A drawn share (0, 1/4, ... 4/4) of the segments has hyp == ref; every
    field of the score equals the brute-force oracle's."""
    refs = [ref for ref, _, _ in segments]
    hyps = [ref if k < share else hyp for ref, hyp, k in segments]
    tok = _BLEU_TOKENIZERS[tokenizer]
    result = corpus_bleu(hyps, refs, tok)
    expected = bleu_oracle_full(hyps, refs, tok.tokenize if tok else str.split)
    assert (result.score, result.precisions, result.brevity_penalty,
            result.hyp_len, result.ref_len) == expected


@st.composite
def _segment_tokens(draw):
    """A reference of up to 40 tokens over three symbols, and a hypothesis
    that is shorter, as long or longer; either side may be empty. Few
    symbols make repeated n-grams, so clipping takes the hypothesis count
    (h_g < r_g) as well as the reference count (h_g > r_g)."""
    symbols = st.sampled_from("abc")
    ref = draw(st.lists(symbols, max_size=40))
    low, high = draw(st.sampled_from([(0, max(len(ref) - 1, 0)), (len(ref), len(ref)),
                                      (len(ref) + 1, 41)]))
    return draw(st.lists(symbols, min_size=low, max_size=high)), ref


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_segment_tokens())
@example(case=([], []))
@example(case=([], list("abca")))
@example(case=(list("abca"), []))
@example(case=(list("aaaab"), list("aab")))   # h_g > r_g
@example(case=(list("ab"), list("aabab")))    # h_g < r_g
def test_clipped_matches_equal_the_oracle_at_every_order(case):
    hyp, ref = case
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    _add_clipped_matches(hyp, ref, matches, totals)
    assert list(zip(matches, totals)) == [clipped_matches(hyp, ref, n)
                                          for n in range(1, MAX_ORDER + 1)]


# Tokens as the subword tokenizer emits them: whole words of several
# characters, the " " between them and the pieces "<noise>" splits into.
# A unigram whose order were taken from its length would land in order 2
# ("no", "is") or 3 ("the", "cat").
_PIECES = ["the", "cat", " ", *default_tokenizer().tokenize(NOISE_TOKEN)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hyp=st.lists(st.sampled_from(_PIECES), max_size=30),
       ref=st.lists(st.sampled_from(_PIECES), max_size=30))
@example(hyp=["the", " ", "cat"], ref=["the", " ", "cat", " ", "the"])
@example(hyp=["<", "no", "is", "e", ">", "no"], ref=["no", "is", "<", "no", "is", "e", ">"])
def test_clipped_matches_of_subword_pieces_equal_the_oracle_at_every_order(hyp, ref):
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    _add_clipped_matches(hyp, ref, matches, totals)
    assert list(zip(matches, totals)) == [clipped_matches(hyp, ref, n)
                                          for n in range(1, MAX_ORDER + 1)]


def _chunks(draw, lines):
    """``lines`` cut at drawn places into chunks, some of them empty, as a
    one-pass iterator."""
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=4)))
    bounds = [0, *cuts, len(lines)]
    return iter([lines[a:b] for a, b in zip(bounds, bounds[1:])])


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       segments=st.lists(st.tuples(_TEXT, _TEXT, st.integers(0, 3)), min_size=1, max_size=10),
       share=st.integers(0, 4), tokenizer=st.sampled_from(sorted(_BLEU_TOKENIZERS)),
       extra=st.lists(_TEXT, max_size=2), longer=st.sampled_from(["hyps", "refs"]))
def test_stream_bleu_equals_corpus_bleu_and_the_oracle(data, segments, share, tokenizer,
                                                      extra, longer):
    """Both streams are cut into chunks independently, and a drawn share
    (0, 1/4, ... 4/4) of the segments has hyp == ref. Every field of the
    score equals ``corpus_bleu`` on the joined lists and the oracle's; when
    one stream has ``extra`` lines, the error names both counts."""
    refs = [ref for ref, _, _ in segments]
    hyps = [ref if k < share else hyp for ref, hyp, k in segments]
    tok = _BLEU_TOKENIZERS[tokenizer]
    if extra:
        hyps, refs = (hyps + extra, refs) if longer == "hyps" else (hyps, refs + extra)
        with pytest.raises(LengthMismatchError,
                           match=f"^{len(hyps)} hypotheses vs {len(refs)} references$"):
            stream_bleu(_chunks(data.draw, hyps), _chunks(data.draw, refs), tok)
        return
    result = stream_bleu(_chunks(data.draw, hyps), _chunks(data.draw, refs), tok)
    assert result == corpus_bleu(hyps, refs, tok)
    assert (result.score, result.precisions, result.brevity_penalty,
            result.hyp_len, result.ref_len) == bleu_oracle_full(
                hyps, refs, tok.tokenize if tok else str.split)


def _stream_peak(tmp_path, n):
    """Peak traced memory of ``stream_bleu`` over two files of ``n`` lines;
    every other reference equals its hypothesis, the rest add " a"."""
    rng = random.Random(n)
    lines = [" ".join(rng.choices("abcdefgh", k=rng.randint(3, 12))) for _ in range(n)]
    hyp, ref = tmp_path / f"h{n}.txt", tmp_path / f"r{n}.txt"
    hyp.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    ref.write_text("".join(f"{line} a\n" if i % 2 else f"{line}\n"
                           for i, line in enumerate(lines)), encoding="utf-8")
    tracemalloc.start()
    try:
        stream_bleu(iter_line_chunks(hyp), iter_line_chunks(ref))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_bleu_memory_does_not_grow_with_identical_segments(tmp_path, monkeypatch):
    """The token lengths of identical segments are held one chunk at a time.
    Reads of 1 KiB keep the fixed peak (the read buffers and one chunk of
    each side) small enough that a length list kept over the whole stream
    would pass the bound at 8000 lines."""
    monkeypatch.setattr(corpus, "_BYTES_PER_READ", 1024)
    _stream_peak(tmp_path, 200)   # one-time allocations
    small = _stream_peak(tmp_path, 2000)
    large = _stream_peak(tmp_path, 8000)
    assert large < 1.5 * small


@pytest.fixture(scope="module")
def cipher_world():
    translator = CipherTranslator([
        CipherLanguage.from_seed(lang, i) for i, lang in enumerate(["hr", "hu", "mk"])
    ])
    rng = random.Random(99)
    from mtforge.wordlist import COMMON_WORDS

    def devset(directions, n=12):
        sets = {}
        for d in directions:
            english = [" ".join(rng.choices(COMMON_WORDS, k=rng.randint(3, 9)))
                       for _ in range(n)]
            src = (english if d.src == "en"
                   else translator.translate(english, Direction("en", d.src)))
            ref = (english if d.tgt == "en"
                   else translator.translate(english, Direction("en", d.tgt)))
            sets[d] = (src, ref)
        return sets

    return translator, devset


def all_directions():
    langs = ["en", "hr", "hu", "mk"]
    return [Direction(a, b) for a in langs for b in langs if a != b]


class TestEvaluateDirections:
    def test_perfect_ciphers_score_100(self, cipher_world):
        translator, devset = cipher_world
        matrix = evaluate_directions(translator, devset(all_directions()))
        assert all(s.score == 100.0 for s in matrix.scores.values())
        assert matrix.avg_all == 100.0
        assert matrix.avg_x_to_en == 100.0
        assert matrix.avg_en_to_y == 100.0
        assert matrix.avg_x_to_y == 100.0

    def test_direction_class_counting(self, cipher_world):
        translator, devset = cipher_world
        matrix = evaluate_directions(translator, devset(all_directions()))
        assert len(matrix.scores) == 12
        assert sum(1 for d in matrix.scores if d.tgt == "en") == 3
        assert sum(1 for d in matrix.scores if d.src == "en") == 3
        assert sum(1 for d in matrix.scores
                   if "en" not in (d.src, d.tgt)) == 6

    def test_full_noise_scores_at_smoothing_floor(self, cipher_world):
        translator, devset = cipher_world
        noisy = NoisyTranslator(translator, 1.0, seed=1)
        matrix = evaluate_directions(noisy, devset(all_directions()))
        assert all(s.score < 5.0 for s in matrix.scores.values())

    def test_pivot_strategy_uses_bridge(self, cipher_world):
        translator, devset = cipher_world
        grid = [d for d in all_directions() if "en" not in (d.src, d.tgt)]
        noisy = NoisyTranslator(translator, 0.8, seed=2, directions=grid)
        dev = devset(grid)
        direct = evaluate_directions(noisy, dev, strategy=Direct())
        pivoted = evaluate_directions(noisy, dev, strategy=PivotVia("en"))
        assert all(s.score == 100.0 for s in pivoted.scores.values())
        assert all(s.score < 100.0 for s in direct.scores.values())

    def test_pivot_strategy_decodes_pivot_directions_directly(self, cipher_world):
        # a pivot through itself is undefined; en->X stays a single hop
        translator, devset = cipher_world
        dev = devset([Direction("en", "hr"), Direction("hr", "en")])
        matrix = evaluate_directions(translator, dev, strategy=PivotVia("en"))
        assert all(s.score == 100.0 for s in matrix.scores.values())

    def test_monotone_degradation_with_noise(self, cipher_world):
        """BLEU does not climb as the corruption rate rises (one small
        inversion between adjacent rates is tolerated)."""
        translator, devset = cipher_world
        dev = devset([Direction("hr", "hu")], n=30)
        scores = []
        for i, rate in enumerate(r / 10 for r in range(10)):
            noisy = NoisyTranslator(translator, rate, seed=500 + i)
            matrix = evaluate_directions(noisy, dev)
            scores.append(matrix.avg_all)
        inversions = sum(1 for a, b in zip(scores, scores[1:]) if b > a + 1e-9)
        assert inversions <= 1
        assert scores[-1] < scores[0]

    def test_matrix_save_load_round_trip(self, cipher_world, tmp_path):
        translator, devset = cipher_world
        noisy = NoisyTranslator(translator, 0.4, seed=9)
        matrix = evaluate_directions(noisy, devset(all_directions()[:4]))
        path = tmp_path / "scores.tsv"
        matrix.save(path)
        loaded = ScoreMatrix.load(path)
        assert set(loaded.scores) == set(matrix.scores)
        for d in matrix.scores:
            assert loaded.scores[d].score == pytest.approx(
                matrix.scores[d].score, abs=1e-6)
