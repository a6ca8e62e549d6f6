"""Corpus BLEU on subword tokens, and per-direction score matrices.

BLEU-4 with modified (clipped) n-gram precision, corpus-level brevity
penalty, and add-one smoothing applied to zero counts of order >= 2. With
``tokenizer=None`` segments are split on whitespace (pre-tokenized input);
otherwise the subword tokenizer defines the token stream.

``corpus_bleu`` works in two steps, as sacreBLEU does. Each segment adds its
sufficient statistics to corpus sums: clipped matches and n-gram counts per
order, and the hypothesis and reference lengths. ``bleu_from_stats`` then
turns the sums into a ``BleuScore``. A segment whose hypothesis equals its
reference is tokenized once and counts no n-grams: a deterministic tokenizer
gives both sides the same ``L`` tokens, so order ``n`` has ``L - n + 1``
n-grams and every one of them matches.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .corpus import Direction, finite_float, read_table, write_table
from .errors import EmptyCorpusError, LengthMismatchError
from .subword import SubwordTokenizer, default_tokenizer
from .translator import (
    DecodingConfig,
    Direct,
    PivotVia,
    Strategy,
    Translator,
    pivot_translate,
)

MAX_ORDER = 4
ENGLISH = "en"   # the language the ScoreMatrix direction classes are relative to


@dataclass(frozen=True)
class BleuScore:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def corpus_bleu(
    hyps: Sequence[str],
    refs: Sequence[str],
    tokenizer: SubwordTokenizer | None = None,
) -> BleuScore:
    if len(hyps) != len(refs):
        raise LengthMismatchError(
            f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpusError("need at least one segment")

    split = tokenizer.tokenize if tokenizer is not None else str.split
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        if hyp == ref:
            length = len(split(hyp))
            hyp_len += length
            ref_len += length
            for n in range(min(length, MAX_ORDER)):
                matches[n] += length - n
                totals[n] += length - n
            continue
        hyp_tokens = split(hyp)
        ref_tokens = split(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        _add_clipped_matches(hyp_tokens, ref_tokens, matches, totals)
    return bleu_from_stats(matches, totals, hyp_len, ref_len)


def _orders(tokens: Sequence[str]) -> list[Iterator[tuple[str, ...]]]:
    """The n-grams of ``tokens`` for n = 1 .. MAX_ORDER, one iterator each."""
    shifted = [tokens[i:] for i in range(MAX_ORDER)]
    return [zip(*shifted[:n]) for n in range(1, MAX_ORDER + 1)]


def _add_clipped_matches(hyp_tokens: Sequence[str], ref_tokens: Sequence[str],
                         matches: list[int], totals: list[int]) -> None:
    """Add one segment's clipped n-gram matches and n-gram counts per order.

    One Counter holds every order of the reference: tuples of different
    lengths never collide. Clipping runs in C through ``map``. Once an
    order's n-grams are all distinct, so are those of every higher order,
    and a match is then just membership in the reference.
    """
    ref_counts = Counter(chain.from_iterable(_orders(ref_tokens)))
    distinct = False
    for n, grams in enumerate(_orders(hyp_tokens)):
        totals[n] += max(0, len(hyp_tokens) - n)
        if distinct:
            matches[n] += sum(map(ref_counts.__contains__, grams))
            continue
        hyp_counts = Counter(grams)
        matches[n] += sum(map(min, hyp_counts.values(),
                              map(ref_counts.get, hyp_counts, repeat(0))))
        distinct = len(hyp_counts) == len(hyp_tokens) - n


def bleu_from_stats(matches: Sequence[int], totals: Sequence[int],
                    hyp_len: int, ref_len: int) -> BleuScore:
    """Corpus BLEU from summed sufficient statistics: clipped matches and
    n-gram counts per order, and the hypothesis and reference lengths."""
    precisions = []
    for n in range(1, MAX_ORDER + 1):
        m, t = matches[n - 1], totals[n - 1]
        if m > 0:
            precisions.append(m / t)
        elif n >= 2:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(0.0)

    if hyp_len == 0 or precisions[0] == 0.0:
        bp = 0.0 if hyp_len < ref_len else 1.0
        return BleuScore(0.0, tuple(precisions), bp, hyp_len, ref_len)

    bp = math.exp(1 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    log_mean = sum(math.log(p) for p in precisions) / MAX_ORDER
    score = 100.0 * bp * math.exp(log_mean)
    return BleuScore(score, tuple(precisions), bp, hyp_len, ref_len)


@dataclass
class ScoreMatrix:
    """Per-direction BLEU plus the standard direction-class averages.

    The classes are defined relative to English: X->En (into English),
    En->Y (out of English), X->Y (neither side English), and the overall
    mean. An empty class averages to None.
    """

    scores: dict[Direction, BleuScore]

    def _mean(self, directions) -> float | None:
        values = [self.scores[d].score for d in directions]
        return sum(values) / len(values) if values else None

    @property
    def avg_x_to_en(self) -> float | None:
        return self._mean([d for d in self.scores if d.tgt == ENGLISH])

    @property
    def avg_en_to_y(self) -> float | None:
        return self._mean([d for d in self.scores if d.src == ENGLISH])

    @property
    def avg_x_to_y(self) -> float | None:
        return self._mean([d for d in self.scores if ENGLISH not in (d.src, d.tgt)])

    @property
    def avg_all(self) -> float | None:
        return self._mean(list(self.scores))

    def save(self, path: str | Path) -> None:
        write_table(path, (
            (d.src, d.tgt, *(f"{x:.6f}" for x in (s.score, *s.precisions, s.brevity_penalty)),
             s.hyp_len, s.ref_len)
            for d, s in sorted(self.scores.items())
        ), header="src tgt score p1 p2 p3 p4 bp hyp_len ref_len".split())

    @classmethod
    def load(cls, path: str | Path) -> "ScoreMatrix":
        def row(src, tgt, score, p1, p2, p3, p4, bp, hyp_len, ref_len):
            return Direction(src, tgt), BleuScore(
                finite_float(score), tuple(map(finite_float, (p1, p2, p3, p4))),
                finite_float(bp), int(hyp_len), int(ref_len))
        return cls(dict(read_table(path, 10, row)))


DevSet = Mapping[Direction, tuple[Sequence[str], Sequence[str]]]


def evaluate_directions(
    translator: Translator,
    devset: DevSet,
    config: DecodingConfig | None = None,
    strategy: Strategy = Direct(),
    tokenizer: SubwordTokenizer | None = None,
) -> ScoreMatrix:
    """Score every devset direction under one decoding strategy.

    With a pivot strategy, directions into or out of the pivot language are
    decoded directly (a pivot through itself is undefined). ``tokenizer``
    defaults to the toolkit's subword tokenizer.
    """
    tok = tokenizer if tokenizer is not None else default_tokenizer()
    scores: dict[Direction, BleuScore] = {}
    for direction in sorted(devset):
        sources, references = devset[direction]
        if isinstance(strategy, PivotVia) and strategy.lang not in (direction.src,
                                                                    direction.tgt):
            hyps = pivot_translate(translator, sources, direction.src,
                                   direction.tgt, strategy.lang, config)
        else:
            hyps = translator.translate(sources, direction, config)
        scores[direction] = corpus_bleu(hyps, references, tok)
    return ScoreMatrix(scores)
