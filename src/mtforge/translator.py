"""Pluggable translation interface plus deterministic cipher-language
reference translators.

A cipher language is a seeded bijection over a fixed English word
vocabulary; translating en->X substitutes each whitespace token through the
bijection, X->en inverts it, and X->Y composes the two through English.
Because ciphers are exact and invertible they give the rest of the toolkit
(augmentation, routing, evaluation) outputs that can be checked
token-for-token.
"""

from __future__ import annotations

import abc
import hashlib
import math
import random
import shlex
import subprocess
from dataclasses import dataclass
from itertools import islice
from typing import Collection, Iterable, Mapping, Sequence

from .corpus import Direction, check_lang_code, decode_lines
from .errors import MTForgeError
from .wordlist import COMMON_WORDS

OOV_OPEN = "⟨"    # mathematical left angle bracket
OOV_CLOSE = "⟩"
NOISE_TOKEN = "<noise>"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class DecodingConfig:
    """Decoding settings carried through the translator interface.

    Cipher translators are deterministic and ignore these; adapters for real
    models are expected to honor them.
    """

    beam_size: int = 4
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")


@dataclass(frozen=True)
class Direct:
    """Decode straight through the requested direction."""


@dataclass(frozen=True)
class PivotVia:
    """Decode through a bridge language (two hops)."""

    lang: str


Strategy = Direct | PivotVia


class Translator(abc.ABC):
    """Batch sentence translator for a fixed set of directions.

    ``translate_many`` translates the same sentences in several directions
    at once. Each direction's list keeps the order and count of the
    sentences and equals what ``translate`` gives for that direction. The
    default calls ``translate`` once per direction; a translator that can
    share work between directions overrides it.
    """

    @property
    @abc.abstractmethod
    def supported_directions(self) -> frozenset[Direction]: ...

    @abc.abstractmethod
    def translate(
        self,
        sentences: Sequence[str],
        direction: Direction,
        config: DecodingConfig | None = None,
    ) -> list[str]:
        """Translate sentences, preserving order and count."""

    def translate_many(
        self,
        sentences: Sequence[str],
        directions: Iterable[Direction],
        config: DecodingConfig | None = None,
    ) -> dict[Direction, list[str]]:
        """``translate`` of the sentences in each direction, by direction."""
        return {d: self.translate(sentences, d, config) for d in directions}

    def _check_direction(self, direction: Direction) -> None:
        if direction not in self.supported_directions:
            raise MTForgeError(f"direction {direction} not supported")


@dataclass(frozen=True)
class CipherLanguage:
    """A seeded token bijection standing in for one language.

    ``token_map`` maps vocabulary words (``COMMON_WORDS`` for ``from_seed``) to
    pseudo-words. Out-of-vocabulary tokens are wrapped in angle-bracket markers
    so decoding can restore them exactly, keeping every round trip lossless.
    """

    lang: str
    seed: int
    token_map: Mapping[str, str]

    def __post_init__(self):
        check_lang_code(self.lang)
        decode = _DecodeTable((v, k) for k, v in self.token_map.items())
        if len(decode) != len(self.token_map):
            raise ValueError("token_map must be a bijection")
        object.__setattr__(self, "_encode", _EncodeTable(self.token_map))
        object.__setattr__(self, "_decode", decode)

    @classmethod
    def from_seed(cls, lang: str, seed: int) -> "CipherLanguage":
        rng = random.Random(seed)
        taken = set(COMMON_WORDS)
        mapping: dict[str, str] = {}
        for word in COMMON_WORDS:
            while True:
                n = rng.randint(2, 4)
                pseudo = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                                 for _ in range(n))
                if pseudo not in taken:
                    break
            taken.add(pseudo)
            mapping[word] = pseudo
        return cls(lang, seed, mapping)

    def encode(self, sentence: str) -> str:
        return " ".join(map(self._encode.__getitem__, sentence.split()))

    def decode(self, sentence: str) -> str:
        return " ".join(map(self._decode.__getitem__, sentence.split()))


class _EncodeTable(dict):
    """Word -> pseudo-word; an out-of-vocabulary token comes back wrapped
    in the OOV markers."""

    __slots__ = ()

    def __missing__(self, token: str) -> str:
        return f"{OOV_OPEN}{token}{OOV_CLOSE}"


class _DecodeTable(dict):
    """Pseudo-word -> word; any other token comes back with its OOV markers
    stripped, or unchanged when it has none."""

    __slots__ = ()

    def __missing__(self, token: str) -> str:
        if len(token) >= 2 and token.startswith(OOV_OPEN) and token.endswith(OOV_CLOSE):
            return token[1:-1]
        return token


class _NotOneToken(Exception):
    """A token decodes to something other than exactly one token, so the
    sentence cannot be translated token by token through a composed table."""


class _ComposedTable(dict):
    """X-token -> Y-token through English for one X->Y call, filled as
    tokens are first seen.

    Composing per token equals ``tgt.encode(src.decode(sentence))`` only when
    the decoded token re-splits into itself. Otherwise (an empty decode, or
    a vocabulary key holding whitespace) lookup raises _NotOneToken and the
    caller translates that sentence the long way.
    """

    __slots__ = ("_decode", "_encode")

    def __init__(self, src: CipherLanguage, tgt: CipherLanguage):
        super().__init__()
        self._decode = src._decode
        self._encode = tgt._encode

    def __missing__(self, token: str) -> str:
        word = self._decode[token]
        if word.split() != [word]:
            raise _NotOneToken(token)
        mapped = self[token] = self._encode[word]
        return mapped


# Sentences split at a time by CipherTranslator.translate_many. Only their
# tokens are held at once, and a block amortizes the loop over directions.
_SPLIT_BLOCK = 64


def _translate_into(block: list[list[str]], jobs) -> None:
    """Append the translation of each split sentence of ``block`` to every
    job's ``out`` list.

    A job is ``(lookup, fallback, out)``: ``lookup`` maps one token, and
    ``fallback`` translates the tokens of a sentence whose lookup raised
    _NotOneToken.
    """
    for lookup, fallback, out in jobs:
        for tokens in block:
            try:
                sentence = " ".join(map(lookup, tokens))
            except _NotOneToken:
                sentence = fallback(tokens)
            out.append(sentence)


class CipherTranslator(Translator):
    """Exact translator over {en} plus a set of cipher languages.

    English is the interlingua: en->X encodes, X->en decodes, and X->Y is
    the composition decode-then-encode. All ordered pairs are supported.
    ``translate_many`` splits each sentence once for all its directions.
    """

    def __init__(self, languages: Iterable[CipherLanguage]):
        self._ciphers: dict[str, CipherLanguage] = {}
        for cipher in languages:
            if cipher.lang == "en" or cipher.lang in self._ciphers:
                raise MTForgeError(f"duplicate language {cipher.lang!r}")
            self._ciphers[cipher.lang] = cipher
        codes = ["en"] + sorted(self._ciphers)
        self._supported = frozenset(
            Direction(a, b) for a in codes for b in codes if a != b)

    @property
    def supported_directions(self) -> frozenset[Direction]:
        return self._supported

    def translate(self, sentences, direction, config=None):
        return self.translate_many(sentences, (direction,), config)[direction]

    def translate_many(self, sentences, directions, config=None):
        outs = {}
        for direction in directions:
            self._check_direction(direction)
            outs[direction] = []
        jobs = [(*self._job(d), out) for d, out in outs.items()]
        split = map(str.split, sentences)
        while block := list(islice(split, _SPLIT_BLOCK)):
            _translate_into(block, jobs)
        return outs

    def _job(self, direction: Direction):
        """The token lookup of one direction and its whole-sentence fallback."""
        src = self._ciphers.get(direction.src)
        tgt = self._ciphers.get(direction.tgt)
        if src is None:
            return tgt._encode.__getitem__, None
        if tgt is None:
            return src._decode.__getitem__, None
        return (_ComposedTable(src, tgt).__getitem__,
                lambda tokens: tgt.encode(src.decode(" ".join(tokens))))


def derive_language_seed(master_seed: int, lang: str) -> int:
    """Stable per-language seed derived from a master seed."""
    digest = hashlib.blake2b(f"{master_seed}:{lang}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _noise_draw(seed: int, sentence_idx: int, token_idx: int) -> float:
    """Uniform [0, 1) draw keyed by position, stable across platforms."""
    digest = hashlib.blake2b(
        f"{seed}:{sentence_idx}:{token_idx}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def check_noise_rate(rate: float) -> float:
    """``rate``, or ValueError unless it is in [0, 1] (NaN is not)."""
    if not 0 <= rate <= 1:
        raise ValueError("noise_rate must be in [0, 1]")
    return rate


def check_timeout(timeout: float | None) -> float | None:
    """``timeout``, or ValueError unless it is None or in (0, inf) (NaN is not)."""
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout!r}")
    return timeout


class NoisyTranslator(Translator):
    """Wraps a translator, corrupting output tokens at a fixed rate.

    Corruption replaces a token with a marker rather than deleting it, so
    lengths (and the BLEU brevity penalty) are unaffected. ``directions``
    restricts the noise to a subset of directions (all when None), which is
    how an imperfect direct system with clean pivot hops is modeled. Each
    (sentence index, token index) position corrupts independently, keyed
    only by the seed and position, never by call order. The sentence index
    counts from the start of each call, so a caller that splits its
    sentences over several calls, as ``run_plan`` does, gets other noise
    than one call.

    Each position's flag is computed once per instance and reused by later
    calls and other directions. The flags are one ``bytes`` per sentence
    index, a byte per token position, so they grow with the largest call,
    not with the number of calls: about 41 bytes per sentence index plus one
    per token of the longest sentence seen at that index (53 KB, by
    ``tracemalloc``, for 1,000 sentences of 8 tokens on average). An
    instance is not safe to share between threads.
    """

    def __init__(self, inner: Translator, noise_rate: float, seed: int,
                 directions: Collection[Direction] | None = None):
        self._inner = inner
        self._rate = check_noise_rate(noise_rate)
        self._seed = seed
        self._directions = None if directions is None else frozenset(directions)
        self._flags: list[bytes] = []   # [i][j] == 1: corrupt token j of sentence i

    @property
    def supported_directions(self) -> frozenset[Direction]:
        return self._inner.supported_directions

    def translate(self, sentences, direction, config=None):
        out = self._inner.translate(sentences, direction, config)
        if self._rate == 0 or (self._directions is not None
                               and direction not in self._directions):
            return out
        flags = self._flags
        flags.extend([b""] * (len(out) - len(flags)))
        noisy = []
        for i, sentence in enumerate(out):
            tokens = sentence.split()
            drawn = flags[i]
            if len(drawn) < len(tokens):
                drawn = flags[i] = drawn + bytes(
                    _noise_draw(self._seed, i, j) < self._rate
                    for j in range(len(drawn), len(tokens)))
            noisy.append(" ".join([NOISE_TOKEN if flag else token
                                   for token, flag in zip(tokens, drawn)]))
        return noisy


# perfbench/workloads.py is the only caller of these aliases; ROADMAP item 7 deletes them.
make_cipher_translator = CipherTranslator
with_noise = NoisyTranslator


def pivot_translate(
    translator: Translator,
    sentences: Sequence[str],
    src: str,
    tgt: str,
    pivot: str,
) -> list[str]:
    """Translate src->pivot->tgt in two hops."""
    if pivot in (src, tgt):
        raise MTForgeError(f"pivot {pivot!r} must differ from both endpoints {src!r}, {tgt!r}")
    mid = translator.translate(sentences, Direction(src, pivot))
    return translator.translate(mid, Direction(pivot, tgt))


class LineProtocolTranslator(Translator):
    """Adapter for external translators speaking a line protocol.

    Runs a subprocess per call: one sentence per line on stdin, one
    translation per line on stdout, both UTF-8. ``decode_lines`` decodes and
    splits the output, named ``translator output``; a source sentence
    holding ``\\n`` or ``\\r`` is rejected before the command runs. Each
    ``{src}`` and ``{tgt}`` in the command is replaced by the direction's
    language code, and no other text. With ``timeout``, a call whose
    command runs longer than that many seconds kills it and raises
    MTForgeError.
    """

    def __init__(self, command: str | Sequence[str], directions: Iterable[Direction],
                 timeout: float | None = None):
        self._timeout = check_timeout(timeout)
        self._command = shlex.split(command) if isinstance(command, str) else list(command)
        self._supported = frozenset(directions)

    @property
    def supported_directions(self) -> frozenset[Direction]:
        return self._supported

    def translate(self, sentences, direction, config=None):
        self._check_direction(direction)
        if not sentences:
            return []
        for i, sentence in enumerate(sentences):
            if "\n" in sentence or "\r" in sentence:
                raise MTForgeError(f"sentence {i + 1} contains a line break")
        argv = [a.replace("{src}", direction.src).replace("{tgt}", direction.tgt)
                for a in self._command]
        try:
            proc = subprocess.run(
                argv, input=("\n".join(sentences) + "\n").encode(),
                capture_output=True, timeout=self._timeout)
        except subprocess.TimeoutExpired:
            raise MTForgeError(
                f"translator command killed after {self._timeout} s: {argv[0]}") from None
        if proc.returncode != 0:
            raise MTForgeError(
                f"translator command failed ({proc.returncode}): "
                f"{proc.stderr.decode(errors='replace').strip()}")
        lines = decode_lines(proc.stdout, "translator output")
        if len(lines) != len(sentences):
            raise MTForgeError(
                f"translator returned {len(lines)} lines for {len(sentences)} sentences")
        return lines
