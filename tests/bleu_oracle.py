"""Brute-force BLEU oracle used to cross-check the production scorer.

Counts are derived by explicit n-gram list enumeration (no shared counting
code with the implementation); the final combination formula is written out
the same way so agreement is exact, not approximate.
"""

import math


def clipped_matches(hyp_tokens, ref_tokens, n):
    hyp_ngrams = [tuple(hyp_tokens[i:i + n]) for i in range(len(hyp_tokens) - n + 1)]
    ref_ngrams = [tuple(ref_tokens[i:i + n]) for i in range(len(ref_tokens) - n + 1)]
    matched = 0
    for gram in set(hyp_ngrams):
        matched += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
    return matched, len(hyp_ngrams)


def bleu_oracle_full(hyps, refs, tokenize=str.split):
    """``(score, precisions, brevity_penalty, hyp_len, ref_len)``; every
    segment is tokenized on both sides, identical or not."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_tokens = tokenize(hyp)
        ref_tokens = tokenize(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in (1, 2, 3, 4):
            m, t = clipped_matches(hyp_tokens, ref_tokens, n)
            matches[n - 1] += m
            totals[n - 1] += t

    precisions = []
    for n in (1, 2, 3, 4):
        m, t = matches[n - 1], totals[n - 1]
        if m > 0:
            precisions.append(m / t)
        elif n >= 2:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(0.0)

    if hyp_len == 0 or precisions[0] == 0.0:
        bp = 0.0 if hyp_len < ref_len else 1.0
        return 0.0, tuple(precisions), bp, hyp_len, ref_len
    bp = math.exp(1 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    log_mean = sum(math.log(p) for p in precisions) / 4
    return 100.0 * bp * math.exp(log_mean), tuple(precisions), bp, hyp_len, ref_len


def bleu_oracle(hyps, refs, tokenize=str.split):
    return bleu_oracle_full(hyps, refs, tokenize)[0]
