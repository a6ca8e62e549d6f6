import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtforge import translator
from mtforge.corpus import Direction
from mtforge.errors import MalformedLineError, MTForgeError
from mtforge.translator import (
    NOISE_TOKEN,
    OOV_CLOSE,
    OOV_OPEN,
    _SPLIT_BLOCK,
    CipherLanguage,
    CipherTranslator,
    DecodingConfig,
    LineProtocolTranslator,
    NoisyTranslator,
    Translator,
    _noise_draw,
    pivot_translate,
)


@pytest.fixture(scope="module")
def ciphers():
    return CipherTranslator([
        CipherLanguage.from_seed("xx", 1),
        CipherLanguage.from_seed("yy", 2),
    ])


class TestCipherLanguage:
    def test_same_seed_same_map(self):
        a = CipherLanguage.from_seed("xx", 99)
        b = CipherLanguage.from_seed("xx", 99)
        assert a.token_map == b.token_map

    def test_distinct_seeds_differ(self):
        a = CipherLanguage.from_seed("xx", 1)
        b = CipherLanguage.from_seed("xx", 2)
        assert a.token_map != b.token_map

    def test_map_is_bijection(self):
        a = CipherLanguage.from_seed("xx", 5)
        values = list(a.token_map.values())
        assert len(values) == len(set(values))
        assert not (set(values) & set(a.token_map))

    def test_oov_round_trip(self):
        a = CipherLanguage.from_seed("xx", 5)
        assert a.decode(a.encode("zyzzyva the qwerty")) == "zyzzyva the qwerty"

    def test_bijection_rejected_if_broken(self):
        with pytest.raises(ValueError):
            CipherLanguage("xx", 0, {"a": "z", "b": "z"})


class TestCipherTranslator:
    def test_round_trip(self, ciphers):
        out = ciphers.translate(["the cat sat"], Direction("en", "xx"))
        back = ciphers.translate(out, Direction("xx", "en"))
        assert back == ["the cat sat"]

    def test_encoding_changes_tokens(self, ciphers):
        out = ciphers.translate(["the cat sat"], Direction("en", "xx"))
        assert out[0] != "the cat sat"
        assert len(out[0].split()) == 3

    def test_empty_input(self, ciphers):
        assert ciphers.translate([], Direction("en", "xx")) == []

    def test_unsupported_direction(self, ciphers):
        with pytest.raises(MTForgeError, match="^direction en-de not supported$"):
            ciphers.translate(["x"], Direction("en", "de"))

    def test_cross_language_equals_composition(self, ciphers):
        src = ciphers.translate(["we want water"], Direction("en", "xx"))
        direct = ciphers.translate(src, Direction("xx", "yy"))
        via_en = ciphers.translate(
            ciphers.translate(src, Direction("xx", "en")), Direction("en", "yy"))
        assert direct == via_en

    def test_length_preserved(self, ciphers):
        sentences = ["one", "the cat sat on the mat", "a b c d"]
        for direction in (Direction("en", "xx"), Direction("xx", "yy")):
            out = ciphers.translate(sentences, direction)
            assert [len(s.split()) for s in out] == [len(s.split()) for s in sentences]

    def test_supported_directions_all_ordered_pairs(self, ciphers):
        assert len(ciphers.supported_directions) == 6  # {en,xx,yy} ordered pairs

    def test_duplicate_language(self):
        with pytest.raises(MTForgeError, match="^duplicate language 'xx'$"):
            CipherTranslator([CipherLanguage.from_seed("xx", 1),
                              CipherLanguage.from_seed("xx", 2)])

    def test_english_cipher_rejected(self):
        with pytest.raises(MTForgeError, match="^duplicate language 'en'$"):
            CipherTranslator([CipherLanguage.from_seed("en", 1)])


def test_benchmark_constructor_names_are_the_classes():
    # perfbench/workloads.py builds its translators through these names.
    assert translator.make_cipher_translator is CipherTranslator
    assert translator.with_noise is NoisyTranslator


class TestPivotTranslate:
    def test_equals_two_hops(self, ciphers):
        text = ["the dog sat"]
        src = ciphers.translate(text, Direction("en", "xx"))
        expected = ciphers.translate(
            ciphers.translate(src, Direction("xx", "en")), Direction("en", "yy"))
        assert pivot_translate(ciphers, src, "xx", "yy", "en") == expected

    def test_pivot_equal_to_endpoint_rejected(self, ciphers):
        with pytest.raises(MTForgeError, match="pivot 'xx' must differ from both endpoints"):
            pivot_translate(ciphers, ["x"], "xx", "yy", "xx")
        with pytest.raises(MTForgeError, match="pivot 'yy' must differ from both endpoints"):
            pivot_translate(ciphers, ["x"], "xx", "yy", "yy")

    def test_pivot_direct_equivalence(self, ciphers):
        """On perfect ciphers the direct X->Y output and the pivot output
        agree token for token."""
        english = ["we take water", "the moon over the river"]
        src = ciphers.translate(english, Direction("en", "xx"))
        direct = ciphers.translate(src, Direction("xx", "yy"))
        pivoted = pivot_translate(ciphers, src, "xx", "yy", "en")
        assert direct == pivoted


class TestNoise:
    def test_zero_noise_identity(self, ciphers):
        noisy = NoisyTranslator(ciphers, 0.0, seed=5)
        text = ["the cat sat", "good day"]
        assert noisy.translate(text, Direction("en", "xx")) == \
            ciphers.translate(text, Direction("en", "xx"))

    def test_full_noise_corrupts_everything(self, ciphers):
        noisy = NoisyTranslator(ciphers, 1.0, seed=5)
        out = noisy.translate(["the cat sat"], Direction("en", "xx"))
        assert out[0].split() == [NOISE_TOKEN] * 3

    def test_rate_matches_binomial_bound(self, ciphers):
        # 10k tokens at rate 0.3: observed fraction within 0.3 +/- 0.02
        sentences = ["the cat sat on the mat and so on there"] * 1000
        noisy = NoisyTranslator(ciphers, 0.3, seed=11)
        out = noisy.translate(sentences, Direction("en", "xx"))
        tokens = [t for s in out for t in s.split()]
        fraction = sum(t == NOISE_TOKEN for t in tokens) / len(tokens)
        assert abs(fraction - 0.3) <= 0.02

    def test_position_keyed_not_call_order(self, ciphers):
        noisy = NoisyTranslator(ciphers, 0.5, seed=3)
        first = noisy.translate(["the cat sat"], Direction("en", "xx"))
        noisy.translate(["other call in between"], Direction("en", "xx"))
        again = noisy.translate(["the cat sat"], Direction("en", "xx"))
        assert first == again

    def test_direction_restriction(self, ciphers):
        noisy = NoisyTranslator(ciphers, 1.0, seed=3,
                                directions=[Direction("xx", "yy")])
        assert noisy.supported_directions == ciphers.supported_directions
        clean_out = noisy.translate(["the cat"], Direction("en", "xx"))
        assert NOISE_TOKEN not in clean_out[0]
        noisy_out = noisy.translate(clean_out, Direction("xx", "yy"))
        assert set(noisy_out[0].split()) == {NOISE_TOKEN}

    def test_bad_rate(self, ciphers):
        with pytest.raises(ValueError):
            NoisyTranslator(ciphers, 1.5, seed=0)


_NOISE_DIRECTIONS = [Direction(a, b) for a in ("en", "xx", "yy")
                     for b in ("en", "xx", "yy") if a != b]
_SENTENCES = st.lists(st.sampled_from(["the", "cat", "sat", "good", "day", "qwerty"]),
                      max_size=12).map(" ".join)


def _noise_reference(out, rate, seed):
    """Each token of ``out`` replaced by the marker where its position's
    draw falls below ``rate``; computed afresh, with no flags kept."""
    return [" ".join(NOISE_TOKEN if _noise_draw(seed, i, j) < rate else token
                     for j, token in enumerate(sentence.split()))
            for i, sentence in enumerate(out)]


@settings(max_examples=100, deadline=None)
@given(rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**64),
       noisy_directions=st.one_of(st.none(), st.sets(st.sampled_from(_NOISE_DIRECTIONS))),
       calls=st.lists(st.tuples(st.sampled_from(_NOISE_DIRECTIONS),
                                st.lists(_SENTENCES, max_size=8)), min_size=1, max_size=6))
def test_noise_is_the_same_on_every_call(ciphers, rate, seed, noisy_directions, calls):
    """One instance, through calls of mixed directions, sizes and sentence
    lengths, and the same calls again in reverse order, gives what a fresh
    instance per call gives, and the per-position draw."""
    noisy = NoisyTranslator(ciphers, rate, seed, noisy_directions)
    for direction, sentences in calls + calls[::-1]:
        got = noisy.translate(sentences, direction)
        assert got == NoisyTranslator(ciphers, rate, seed, noisy_directions).translate(
            sentences, direction)
        out = ciphers.translate(sentences, direction)
        noised = noisy_directions is None or direction in noisy_directions
        assert got == (_noise_reference(out, rate, seed) if noised and rate else out)


class TestDecodingConfig:
    def test_defaults(self):
        cfg = DecodingConfig()
        assert cfg.beam_size == 4 and cfg.length_penalty == 1.0

    def test_beam_must_be_positive(self):
        with pytest.raises(ValueError):
            DecodingConfig(beam_size=0)


class TestLineProtocolTranslator:
    def test_subprocess_round_trip(self):
        command = [sys.executable, "-c",
                   "import sys\n"
                   "for line in sys.stdin:\n"
                   "    sys.stdout.write(line.upper())"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        out = t.translate(["hello there", "good day"], Direction("en", "de"))
        assert out == ["HELLO THERE", "GOOD DAY"]

    def test_placeholders_substituted(self):
        command = [sys.executable, "-c",
                   "import sys\n"
                   "for line in sys.stdin:\n"
                   "    sys.stdout.write('{src}-{tgt} ' + line)"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        assert t.translate(["x"], Direction("en", "de")) == ["en-de x"]

    def test_only_placeholders_substituted(self):
        # str.format would take {'a': ...} and {print} for fields.
        command = [sys.executable, "-c",
                   "import sys\n"
                   "d = {'a': '{src}{tgt}', 'b': '{{x}}{print}'}\n"
                   "for line in sys.stdin:\n"
                   "    sys.stdout.write(d['a'] + d['b'] + ' ' + line)"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        assert t.translate(["x"], Direction("en", "de")) == ["ende{{x}}{print} x"]

    @pytest.mark.parametrize("output, line_no", [
        (b"a\rb\nc\n", 1), (b"a\r\nb\r\r\n", 2), (b"a\nb\r", 2),
    ])
    def test_stray_carriage_return_in_output(self, output, line_no):
        command = [sys.executable, "-c",
                   f"import sys; sys.stdin.read(); sys.stdout.buffer.write({output!r})"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        with pytest.raises(MalformedLineError) as err:
            t.translate(["a", "b"], Direction("en", "de"))
        assert str(err.value) == \
            f"translator output:{line_no}: carriage return outside a CRLF line end"

    def test_empty_input_spawns_nothing(self):
        t = LineProtocolTranslator(["/nonexistent-binary"], [Direction("en", "de")])
        assert t.translate([], Direction("en", "de")) == []

    def test_line_count_mismatch(self):
        command = [sys.executable, "-c", "print('only one line')"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        with pytest.raises(MTForgeError):
            t.translate(["a", "b"], Direction("en", "de"))

    def test_failing_command(self):
        command = [sys.executable, "-c", "import sys; sys.exit(3)"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        with pytest.raises(MTForgeError):
            t.translate(["a"], Direction("en", "de"))

    def test_unsupported_direction(self):
        t = LineProtocolTranslator(["true"], [Direction("en", "de")])
        with pytest.raises(MTForgeError, match="^direction de-en not supported$"):
            t.translate(["a"], Direction("de", "en"))

    def test_only_newline_ends_an_output_line(self):
        # Each output line holds U+2028, NEL and \x1c and ends in CRLF.
        command = [sys.executable, "-c",
                   "import sys\n"
                   "for line in sys.stdin.buffer:\n"
                   "    sys.stdout.buffer.write("
                   "line[:-1] + '\\u2028\\x85\\x1c.'.encode() + b'\\r\\n')"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        out = t.translate(["a", "b\u2028c"], Direction("en", "de"))
        assert out == ["a\u2028\x85\x1c.", "b\u2028c\u2028\x85\x1c."]

    def test_output_must_be_utf8(self):
        command = [sys.executable, "-c", "import sys; sys.stdout.buffer.write(b'\\xff\\n')"]
        t = LineProtocolTranslator(command, [Direction("en", "de")])
        with pytest.raises(MTForgeError, match="not UTF-8"):
            t.translate(["a"], Direction("en", "de"))

    @pytest.mark.parametrize("sentence", ["two\nlines", "carriage\rreturn", "crlf\r\n"])
    def test_line_break_in_source_rejected_before_spawning(self, sentence):
        t = LineProtocolTranslator(["/nonexistent-binary"], [Direction("en", "de")])
        with pytest.raises(MTForgeError, match="sentence 2 contains a line break"):
            t.translate(["fine", sentence], Direction("en", "de"))

    def test_timeout_kills_a_hung_command(self):
        t = LineProtocolTranslator(["sleep", "30"], [Direction("en", "de")], timeout=0.2)
        start = time.monotonic()
        with pytest.raises(MTForgeError, match="killed after 0.2 s: sleep"):
            t.translate(["a"], Direction("en", "de"))
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a positive number"):
            LineProtocolTranslator(["/nonexistent-binary"], [Direction("en", "de")],
                                   timeout=timeout)


class OracleCipherTranslator(Translator):
    """``CipherTranslator`` as it was before its lookup tables: a method call
    per token, and X->Y as ``tgt.encode(src.decode(sentence))``."""

    def __init__(self, languages):
        self._maps = {c.lang: dict(c.token_map) for c in languages}
        self._inverses = {lang: {v: k for k, v in m.items()}
                          for lang, m in self._maps.items()}

    @property
    def supported_directions(self):
        codes = ["en", *self._maps]
        return frozenset(Direction(a, b) for a in codes for b in codes if a != b)

    def encode_token(self, lang, token):
        mapped = self._maps[lang].get(token)
        if mapped is not None:
            return mapped
        return f"{OOV_OPEN}{token}{OOV_CLOSE}"

    def decode_token(self, lang, token):
        original = self._inverses[lang].get(token)
        if original is not None:
            return original
        if len(token) >= 2 and token.startswith(OOV_OPEN) and token.endswith(OOV_CLOSE):
            return token[1:-1]
        return token

    def translate(self, sentences, direction, config=None):
        self._check_direction(direction)
        out = []
        for sentence in sentences:
            if direction.src != "en":
                sentence = " ".join(self.decode_token(direction.src, t)
                                    for t in sentence.split())
            if direction.tgt != "en":
                sentence = " ".join(self.encode_token(direction.tgt, t)
                                    for t in sentence.split())
            out.append(sentence)
        return out


_SEPARATORS = [" ", "  ", "\t", "\xa0", "\x1c", "\x85", "\u2028"]
# Short words over a tiny alphabet, so vocabularies and sentences collide;
# words may hold whitespace, be empty or carry the OOV markers.
_WORDS = st.text(alphabet="ab" + OOV_OPEN + OOV_CLOSE + " \u2028", max_size=4)
_PLAIN_WORDS = st.text(alphabet="abcd", min_size=1, max_size=4)


def _vocab(keys, values):
    return st.lists(st.tuples(keys, values), max_size=8,
                    unique_by=(lambda kv: kv[0], lambda kv: kv[1])).map(dict)


@st.composite
def _sentences(draw, words, oov=st.one_of(_WORDS, st.just(OOV_OPEN + OOV_CLOSE))):
    """Sentences of vocabulary and OOV words, with repeated, leading and
    non-space whitespace between them."""
    pieces = []
    for _ in range(draw(st.integers(0, 8))):
        pieces.append(draw(st.sampled_from(_SEPARATORS)))
        pieces.append(draw(st.sampled_from(words) | oov if words else oov))
    if draw(st.booleans()):
        pieces.append(draw(st.sampled_from(_SEPARATORS)))
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), xx=_vocab(_WORDS, _WORDS), yy=_vocab(_WORDS, _WORDS))
def test_cipher_translate_matches_oracle(data, xx, yy):
    languages = [CipherLanguage("xx", 0, xx), CipherLanguage("yy", 0, yy)]
    fast = CipherTranslator(languages)
    oracle = OracleCipherTranslator(languages)
    words = sorted({*xx, *xx.values(), *yy, *yy.values()})
    sentences = data.draw(st.lists(_sentences(words), max_size=6))
    for direction in (Direction("en", "xx"), Direction("xx", "en"),
                      Direction("xx", "yy"), Direction("yy", "xx")):
        assert fast.translate(sentences, direction) == \
            oracle.translate(sentences, direction), direction


@settings(max_examples=200, deadline=None)
@given(data=st.data(), xx=_vocab(_WORDS, _PLAIN_WORDS))
def test_cipher_round_trip(data, xx):
    ciphers = CipherTranslator([CipherLanguage("xx", 0, xx)])
    words = sorted(w for w in {*xx, *xx.values()} if not w.startswith(OOV_OPEN))
    sentence = data.draw(_sentences(words, oov=st.text(alphabet="abc \u2028", max_size=4)))
    assume(not any(t.startswith(OOV_OPEN) for t in sentence.split()))
    encoded = ciphers.translate([sentence], Direction("en", "xx"))
    assert ciphers.translate(encoded, Direction("xx", "en")) == [" ".join(sentence.split())]


_DIRECTIONS = [Direction(a, b) for a in ("en", "xx", "yy") for b in ("en", "xx", "yy") if a != b]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), xx=_vocab(_WORDS, _WORDS), yy=_vocab(_WORDS, _WORDS))
def test_translate_many_equals_translate(data, xx, yy):
    """Empty sentences, tabs and other whitespace, OOV tokens and markers;
    vocabulary keys holding whitespace send X->Y sentences down the
    whole-sentence fallback."""
    ciphers = CipherTranslator([CipherLanguage("xx", 0, xx), CipherLanguage("yy", 0, yy)])
    words = sorted({*xx, *xx.values(), *yy, *yy.values()})
    sentences = data.draw(st.lists(st.just("") | _sentences(words), max_size=6))
    directions = data.draw(st.lists(st.sampled_from(_DIRECTIONS), max_size=8))
    got = ciphers.translate_many(sentences, directions)
    assert list(got) == list(dict.fromkeys(directions))
    for direction in directions:
        assert got[direction] == ciphers.translate(sentences, direction), direction


def test_translate_many_falls_back_per_sentence_and_direction():
    # "p" decodes to "a b", two English tokens, so xx->yy must take the
    # long way for the sentences holding it, and only for that direction.
    xx = CipherLanguage("xx", 0, {"a b": "p", "c": "q"})
    yy = CipherLanguage("yy", 0, {"a": "r", "b": "s", "c": "t"})
    ciphers = CipherTranslator([xx, yy])
    sentences = ["p q", "q", "", "q  p"]
    directions = [Direction("xx", "yy"), Direction("xx", "en"), Direction("en", "yy")]
    assert ciphers.translate_many(sentences, directions) == {
        Direction("xx", "yy"): ["r s t", "t", "", "t r s"],
        Direction("xx", "en"): ["a b c", "c", "", "c a b"],
        Direction("en", "yy"): [f"{OOV_OPEN}p{OOV_CLOSE} {OOV_OPEN}q{OOV_CLOSE}",
                                f"{OOV_OPEN}q{OOV_CLOSE}", "",
                                f"{OOV_OPEN}q{OOV_CLOSE} {OOV_OPEN}p{OOV_CLOSE}"],
    }
    for direction in directions:
        assert ciphers.translate(sentences, direction) == \
            OracleCipherTranslator([xx, yy]).translate(sentences, direction)


def test_translate_many_across_split_blocks():
    # More sentences than one split block holds, the fallback ones among
    # them; translating each sentence alone never crosses a block.
    xx = CipherLanguage("xx", 0, {"a b": "p", "c": "q"})
    yy = CipherLanguage("yy", 0, {"a": "r", "b": "s", "c": "t"})
    ciphers = CipherTranslator([xx, yy])
    rng = random.Random(0)
    sentences = [" ".join(rng.choices(["p", "q", "z", "⟨p⟩"], k=rng.randint(0, 5)))
                 for _ in range(3 * _SPLIT_BLOCK + 5)]
    got = ciphers.translate_many(sentences, _DIRECTIONS)
    for direction in _DIRECTIONS:
        assert got[direction] == [ciphers.translate([s], direction)[0] for s in sentences]


def test_translate_many_checks_every_direction_first(ciphers):
    with pytest.raises(MTForgeError, match="^direction en-zz not supported$"):
        ciphers.translate_many(["the cat"], [Direction("en", "xx"), Direction("en", "zz")])
    assert ciphers.translate_many(["the cat"], []) == {}


@settings(max_examples=100, deadline=None)
@given(rate=st.floats(0, 1), seed=st.integers(0, 2**64),
       sentences=st.lists(_SENTENCES, max_size=8),
       directions=st.lists(st.sampled_from(_NOISE_DIRECTIONS), max_size=6))
def test_default_translate_many_calls_translate(ciphers, rate, seed, sentences, directions):
    noisy = NoisyTranslator(ciphers, rate, seed, _NOISE_DIRECTIONS[:3])
    assert noisy.translate_many(sentences, directions) == \
        {d: noisy.translate(sentences, d) for d in directions}
