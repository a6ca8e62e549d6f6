"""Corpus BLEU on subword tokens, and per-direction score matrices.

BLEU-4 with modified (clipped) n-gram precision, corpus-level brevity
penalty, and add-one smoothing applied to zero counts of order >= 2. With
``tokenizer=None`` segments are split on whitespace (pre-tokenized input);
otherwise the subword tokenizer defines the token stream.

BLEU works in two steps, as sacreBLEU does. Each segment adds its sufficient
statistics to corpus sums: clipped matches and n-gram counts per order, and
the hypothesis and reference lengths. ``bleu_from_stats`` then turns the
sums into a ``BleuScore``. Sums add up, so ``stream_bleu`` reads its segments
one chunk of lines at a time; ``corpus_bleu`` is the one-chunk case. A
segment whose hypothesis equals its reference is tokenized once and counts
no n-grams: a deterministic tokenizer gives both sides the same ``L``
tokens, so order ``n`` has ``L - n + 1`` n-grams and every one of them
matches. Its statistics are a function of ``L`` alone, so each chunk keeps
only the lengths of its identical segments and adds them once per distinct
length.

Any other segment's clipped matches come from two dicts. The n-grams of
every order of the shorter side go into one: a unigram is the token string
itself and a higher-order n-gram a tuple, and a string never equals a
tuple, nor a tuple one of another length. The second counts only those
n-grams of the longer side that the first one holds, one order after the
other. Each of its keys adds the lesser of its two counts to its order's
matches; ``min`` is symmetric, so it does not matter which side was counted
whole. The n-gram counts per order follow from the hypothesis length alone.
"""

from __future__ import annotations

import math
from collections import Counter, _count_elements
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Direction, finite_float, read_table, write_table
from .errors import MTForgeError
from .subword import SubwordTokenizer, default_tokenizer
from .translator import Direct, PivotVia, Strategy, Translator, pivot_translate

MAX_ORDER = 4    # BLEU-4; _orders spells the four orders out
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
    """BLEU of ``hyps`` against ``refs``: ``stream_bleu`` of one chunk each."""
    return stream_bleu([hyps], [refs], tokenizer)


def stream_bleu(hyp_chunks: Iterable[Sequence[str]], ref_chunks: Iterable[Sequence[str]],
                tokenizer: SubwordTokenizer | None = None) -> BleuScore:
    """BLEU of two streams of line chunks, as ``corpus.iter_line_chunks``
    yields them. Each hypothesis chunk is zipped with as many reference
    lines and its segments' statistics are added to the sums, so memory
    holds about one chunk of each side. A length mismatch is known only when
    both streams have ended; it then raises MTForgeError with both
    counts. Only ``tokenizer.tokenize`` is called (``str.split`` when
    ``tokenizer`` is None): once for a segment whose hypothesis equals its
    reference, twice for any other. Such identical segments are kept as
    token lengths until their chunk ends, then added by distinct length."""
    split = tokenizer.tokenize if tokenizer is not None else str.split
    ref_lines = chain.from_iterable(ref_chunks)
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    hyp_len = ref_len = n_hyps = n_refs = 0
    for hyps in hyp_chunks:
        refs = list(islice(ref_lines, len(hyps)))
        n_hyps += len(hyps)
        n_refs += len(refs)
        same = []   # the token length of each identical segment
        for hyp, ref in zip(hyps, refs):
            if hyp == ref:
                same.append(len(split(hyp)))
                continue
            hyp_tokens = split(hyp)
            ref_tokens = split(ref)
            hyp_len += len(hyp_tokens)
            ref_len += len(ref_tokens)
            _add_clipped_matches(hyp_tokens, ref_tokens, matches, totals)
        for length, k in Counter(same).items():
            hyp_len += k * length
            ref_len += k * length
            for n in range(min(length, MAX_ORDER)):
                matches[n] += k * (length - n)
                totals[n] += k * (length - n)
        del hyps, refs, same   # before the next chunk is read
    n_refs += sum(1 for _ in ref_lines)
    if n_hyps != n_refs:
        raise MTForgeError(f"{n_hyps} hypotheses vs {n_refs} references")
    if not n_hyps:
        raise MTForgeError("need at least one segment")
    return bleu_from_stats(matches, totals, hyp_len, ref_len)


def _orders(tokens: Sequence[str]) -> list[Iterable[str | tuple[str, ...]]]:
    """The n-grams of ``tokens`` for n = 1 .. MAX_ORDER, one iterable each:
    the tokens themselves for n = 1, ``zip`` tuples above."""
    t1, t2, t3 = tokens[1:], tokens[2:], tokens[3:]
    return [tokens, zip(tokens, t1), zip(tokens, t1, t2), zip(tokens, t1, t2, t3)]


def _add_clipped_matches(hyp_tokens: Sequence[str], ref_tokens: Sequence[str],
                         matches: list[int], totals: list[int]) -> None:
    """Add one segment's clipped n-gram matches and n-gram counts per order.

    (a) Order ``n`` has ``len(hyp_tokens) - n + 1`` hypothesis n-grams.
    (b) One dict counts every order of the shorter side in one pass: a
    unigram is the token string, a higher order a tuple, so no two orders
    share a key. (c) A second dict counts, one order after the other, only
    the n-grams of the longer side that (b) holds, filtered in C; its size
    after each order is where the next order's keys begin. (d) Each of its
    keys adds ``min`` of its two counts, the same whichever side (b)
    counted, to its order's matches. ``collections._count_elements``, the C
    loop behind ``Counter``, fills the dicts without a ``Counter`` frame per
    pass, which is measurably faster on short segments.
    """
    length = len(hyp_tokens)
    for n in range(min(length, MAX_ORDER)):
        totals[n] += length - n
    short, long = ((hyp_tokens, ref_tokens) if length <= len(ref_tokens)
                   else (ref_tokens, hyp_tokens))
    counts, common, bounds = {}, {}, [0]
    _count_elements(counts, chain.from_iterable(_orders(short)))
    for grams in _orders(long):
        _count_elements(common, filter(counts.__contains__, grams))
        bounds.append(len(common))
    clipped = list(map(min, common.values(), map(counts.__getitem__, common)))
    for n in range(MAX_ORDER):
        matches[n] += sum(clipped[bounds[n]:bounds[n + 1]])


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
            bleu = BleuScore(
                finite_float(score), tuple(map(finite_float, (p1, p2, p3, p4))),
                finite_float(bp), int(hyp_len), int(ref_len))
            if bleu.hyp_len < 0 or bleu.ref_len < 0:
                raise ValueError(f"negative length: hyp_len {hyp_len}, ref_len {ref_len}")
            return Direction(src, tgt), bleu
        return cls(dict(read_table(path, 10, row)))


DevSet = Mapping[Direction, tuple[Sequence[str], Sequence[str]]]


def strategy_hops(direction: Direction, strategy: Strategy) -> list[Direction]:
    """The one or two directions ``strategy`` decodes ``direction`` through.
    A pivot that is one of the direction's languages decodes directly."""
    if isinstance(strategy, PivotVia) and strategy.lang not in (direction.src, direction.tgt):
        return [Direction(direction.src, strategy.lang), Direction(strategy.lang, direction.tgt)]
    return [direction]


def decode(translator: Translator, sentences: Sequence[str], direction: Direction,
           strategy: Strategy) -> list[str]:
    """``sentences`` translated in ``direction`` through its ``strategy_hops``;
    two hops are one ``pivot_translate`` call."""
    hops = strategy_hops(direction, strategy)
    if len(hops) == 2:
        return pivot_translate(translator, sentences, direction.src, direction.tgt, hops[0].tgt)
    return translator.translate(sentences, direction)


def evaluate_directions(
    translator: Translator,
    devset: DevSet,
    strategy: Strategy = Direct(),
    tokenizer: SubwordTokenizer | None = None,
) -> ScoreMatrix:
    """Score every devset direction under one decoding strategy (``decode``;
    directions into or out of a pivot language are decoded directly).
    ``tokenizer`` defaults to the toolkit's subword tokenizer.
    """
    tok = tokenizer if tokenizer is not None else default_tokenizer()
    scores: dict[Direction, BleuScore] = {}
    for direction in sorted(devset):
        sources, references = devset[direction]
        hyps = decode(translator, sources, direction, strategy)
        scores[direction] = corpus_bleu(hyps, references, tok)
    return ScoreMatrix(scores)
