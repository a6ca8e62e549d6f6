"""Deterministic subword tokenizer: greedy longest-match with character
fallback.

The tokenizer operates directly on the raw string, so whitespace is part of
the token stream (a single space is a vocabulary piece). That makes
``detokenize(tokenize(text)) == text`` hold for every input, including
unusual spacing: any character not covered by a vocabulary piece becomes its
own single-character token.

When no multi-character piece contains a whitespace character, a match can
never cross a whitespace boundary. The text is then handled one run at a
time: each whitespace character is one token, a non-whitespace run that is
a piece (or a single character) is one token, and any other run is matched
greedily on its own. The words of ``text.split(" ")`` are checked against
the vocabulary first, in one C-level pass. If every word is a piece, the
tokens are the words with one ``" "`` between each two, and nothing else
is split or compared; ``count`` takes the same pass and then returns
``2 * len(words) - 1`` without building the list. Pieces are non-empty,
so such a split had no leading, trailing or double space; a piece that
holds whitespace is one character; and the run path makes each character
of a whitespace run its own token, so it gives the same list. Otherwise
``tokenize`` and ``count`` both hand the words to the run path, so no
text is split at ``" "`` or checked word by word twice. The runs come from a
second C-level split when they can: if ``text.split(" ") == text.split()``,
the text is non-empty words between single spaces. The whitespace split
never yields an empty string or one that holds whitespace, and it cuts at
the same characters as the ``\\s`` of the run regex. So equal lists rule
out empty text, leading, trailing and double spaces and every other
whitespace character, and the runs are exactly the words with one ``" "``
between each two. Only other text is split by the run regex, and its runs
are returned as they are when all are pieces. A lone space is one token
whether or not it is a piece. A vocabulary with a multi-character piece
that holds whitespace (``"a b"``, ``"  "``) falls back to greedy matching
over the whole string. All paths give the same tokens.

Greedy matching probes windows only at a start that some piece begins with;
any other character is its own token. The tokens of a run matched
greedily are kept for its next occurrence: at most ``_MEMO_RUNS`` runs of
at most ``_MEMO_RUN_CHARS`` characters, under 1.6 KB a run and 2 MB in all.
The memo is emptied when it is full.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import finite_float, read_lines
from .errors import TableError
from .wordlist import COMMON_WORDS

_SUBWORD_PIECES = [
    " ", ".", ",", "!", "?", "'", "-",
    "ing", "ed", "er", "est", "tion", "ment", "ness", "ly", "able",
    "th", "ch", "sh", "qu", "re", "un", "pre", "ation",
]

DEFAULT_VOCAB = tuple(dict.fromkeys(COMMON_WORDS + _SUBWORD_PIECES))

_RUNS = re.compile(r"\s+|\S+")
_MEMO_RUNS = 1024
_MEMO_RUN_CHARS = 16
_SPACE = re.compile(r"\s")


class SubwordTokenizer:
    """Greedy longest-match tokenizer over a fixed piece vocabulary."""

    def __init__(self, vocab: Iterable[str] | Mapping[str, float] = DEFAULT_VOCAB):
        """A mapping gives each piece a score; a score that is not a finite
        number raises ValueError."""
        if isinstance(vocab, Mapping):
            pieces = {p: float(s) for p, s in vocab.items() if p}
            for piece, score in pieces.items():
                if not math.isfinite(score):
                    raise ValueError(f"piece {piece!r}: not a finite score: {score}")
        else:
            pieces = {p: 0.0 for p in vocab if p}
        self.vocab = pieces
        self._max_len = max((len(p) for p in pieces), default=1)
        self._firsts = {p[0] for p in pieces}
        self._by_runs = not _SPACE.search("".join(p for p in pieces if len(p) > 1))
        self._memo: dict[str, tuple[str, ...]] = {}   # run -> _greedy(run)

    def tokenize(self, text: str) -> list[str]:
        if not self._by_runs:
            return self._greedy(text)
        words = text.split(" ")
        if all(map(self.vocab.__contains__, words)):   # " " is one token, piece or not
            runs = [" "] * (2 * len(words) - 1)
            runs[::2] = words
            return runs
        return self._run_tokens(text, words)

    def count(self, text: str) -> int:
        """``len(self.tokenize(text))``; no list is built when every word of
        ``text.split(" ")`` is a piece."""
        if not self._by_runs:
            return len(self._greedy(text))
        words = text.split(" ")
        if all(map(self.vocab.__contains__, words)):
            return 2 * len(words) - 1
        return len(self._run_tokens(text, words))

    def _run_tokens(self, text: str, words: list[str]) -> list[str]:
        """The tokens of ``text``, whose split at ``" "`` is ``words``, when
        some word is not a piece."""
        vocab = self.vocab
        if words == text.split():   # non-empty words between single spaces
            runs = [" "] * (2 * len(words) - 1)
            runs[::2] = words
        else:
            runs = _RUNS.findall(text)
            if all(map(vocab.__contains__, runs)):
                return runs
        memo = self._memo
        tokens: list[str] = []
        for run in runs:
            if run in vocab or len(run) == 1:
                tokens.append(run)
            elif run[0].isspace():
                tokens.extend(run)
            else:
                pieces = memo.get(run)
                if pieces is None:
                    pieces = self._greedy(run)
                    if len(run) <= _MEMO_RUN_CHARS:
                        if len(memo) >= _MEMO_RUNS:
                            memo.clear()
                        memo[run] = tuple(pieces)
                tokens.extend(pieces)
        return tokens

    def _greedy(self, text: str) -> list[str]:
        vocab, firsts = self.vocab, self._firsts
        tokens: list[str] = []
        i = 0
        n = len(text)
        while i < n:
            piece = text[i]
            if piece in firsts:
                for length in range(min(self._max_len, n - i), 1, -1):
                    candidate = text[i:i + length]
                    if candidate in vocab:
                        piece = candidate
                        break
            tokens.append(piece)
            i += len(piece)
        return tokens

    def detokenize(self, tokens: Iterable[str]) -> str:
        return "".join(tokens)

    @classmethod
    def from_file(cls, path: str | Path) -> "SubwordTokenizer":
        """Load a vocabulary file: one piece per line, optional tab-separated
        score (ignored by greedy matching but preserved).

        Lines follow the table line policy of ``read_lines``, but ``#`` and
        whitespace are pieces, not comments or blanks; only empty lines are
        skipped. A score that is not a finite number raises TableError.
        """
        pieces: dict[str, float] = {}
        for line_no, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            piece, _, score = line.partition("\t")
            try:
                pieces[piece] = finite_float(score) if score else 0.0
            except ValueError as exc:
                raise TableError(path, line_no, str(exc)) from None
        return cls(pieces)


@lru_cache(maxsize=1)
def default_tokenizer() -> SubwordTokenizer:
    return SubwordTokenizer(DEFAULT_VOCAB)
