"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from bleu_oracle import bleu_oracle
from conftest import build_manifest
from mtforge.cleaning import FilterConfig, RejectReason, apply_filters
from mtforge.cli import main
from mtforge.corpus import Direction, LanguageStats, OriginPool, SentencePair
from mtforge.curriculum import (
    AllDirections,
    Clean,
    FreshRandom,
    Inherited,
    ModelShape,
    Noisy,
    SelectedDirections,
    StageDescriptor,
    average_checkpoints,
    grow_encoder,
    stage_schedule,
    validate_transition,
)
from mtforge.errors import InvalidScheduleError
from mtforge.evaluation import corpus_bleu, evaluate_directions
from mtforge.routing import build_routing_table, route_translate
from mtforge.sampling import BatchScheduler, MixtureWeights, language_distribution
from mtforge.subword import default_tokenizer
from mtforge.translator import (
    CipherLanguage,
    CipherTranslator,
    Direct,
    NoisyTranslator,
    PivotVia,
)
from mtforge.augmentation import MonoCorpusRef, all_ordered_pairs, plan_dual_pseudo, run_plan
from mtforge.wordlist import COMMON_WORDS


def test_criterion_1_temperature_sampling():
    started = time.perf_counter()

    dist = language_distribution(
        LanguageStats(per_language={"aa": 32, "bb": 1}), temperature=5.0)
    assert abs(dist.q["aa"] - 2 / 3) < 1e-12
    assert abs(dist.q["bb"] - 1 / 3) < 1e-12

    draws = 100_000
    rng = random.Random(12345)
    counts = {"aa": 0, "bb": 0}
    for _ in range(draws):
        counts[dist.sample(rng)] += 1
    observed = [counts["aa"], counts["bb"]]
    expected = [dist.q["aa"] * draws, dist.q["bb"] * draws]
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 0.001

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: temperature sampling q=(2/3,1/3) at 1e-12, "
          f"chi-square p={result.pvalue:.3f} over {draws} draws, {elapsed:.2f}s")


def test_criterion_2_mixture_weighting(tmp_path):
    started = time.perf_counter()

    rows = [(f"s{i}", f"t{i}") for i in range(50)]
    manifest = build_manifest(tmp_path, [
        ("bx.tsv", "hr-en", "bitext", rows),
        ("bt.tsv", "en-hu", "bt", rows),
        ("dp.tsv", "hr-hu", "dual_pseudo", rows),
    ])
    from mtforge.corpus import corpus_stats
    stats = corpus_stats(manifest)
    dist = language_distribution(stats, 5.0)
    draws = 100_000
    scheduler = BatchScheduler(manifest, dist,
                               MixtureWeights(0.6, 0.2, 0.2),
                               batch_size=draws, seed=2021)
    batch = scheduler.next_batch()

    expected = {OriginPool.BITEXT: 0.6, OriginPool.BACK_TRANSLATION: 0.2,
                OriginPool.DUAL_PSEUDO: 0.2}
    fractions = {}
    for origin, p in expected.items():
        observed = sum(pair.origin is origin for pair in batch.pairs) / draws
        bound = 3 * math.sqrt(p * (1 - p) / draws)
        assert abs(observed - p) <= bound
        fractions[origin.value] = observed

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: pool fractions {fractions} within 3-sigma of "
          f"(0.6, 0.2, 0.2), {elapsed:.2f}s")


def test_criterion_3_filter_pipeline():
    tokenizer = default_tokenizer()
    cfg = FilterConfig(length_ratio_limit=3.0,
                       script_rules={"sr": "Cyrl"})

    def pair(source, target, direction):
        return SentencePair(source, target, Direction.parse(direction),
                            OriginPool.BITEXT, "acceptance.tsv", 1)

    cyrillic = ("ово је добра "
                "реченица")
    corpus = [
        (pair("the cat sat", "dobar dan svima", "en-hr"), None),
        (pair(" ".join(["word"] * 1025), "short target", "en-hr"),
         RejectReason.TOO_LONG),
        (pair("clean source text", "noisy [UNK] target", "en-hr"),
         RejectReason.CONTAINS_UNK),
        (pair("ovo je latinica sasvim", "fully latin serbian", "sr-en"),
         RejectReason.WRONG_SCRIPT),
        (pair("a" * 10, "b" * 35, "en-hr"), RejectReason.RATIO_EXCEEDED),
        (pair("source without target", "", "en-hr"), RejectReason.EMPTY),
        (pair("verdict says german", "target text", "en-hr"),
         RejectReason.BAD_LANGID),
        (pair(cyrillic, "a good sentence", "sr-en"), None),
        (pair("a" * 10, "b" * 30, "en-hr"), None),
        (pair("short source", " ".join(["word"] * 1025), "en-hr"),
         RejectReason.TOO_LONG),
        (pair("[UNK] leading source", "target text", "en-hr"),
         RejectReason.CONTAINS_UNK),
        (pair("same tokens here", "same tokens here", "en-hr"), None),
    ]
    assert len(corpus) == 12

    def run_once():
        verdicts = []
        for p, expected in corpus:
            langid = (("de", "en") if expected is RejectReason.BAD_LANGID
                      else (p.direction.src, p.direction.tgt))
            verdicts.append(apply_filters(p, cfg, tokenizer, langid))
        return verdicts

    first = run_once()
    second = run_once()
    assert first == second  # deterministic across runs
    for (p, expected), verdict in zip(corpus, first):
        assert (verdict if isinstance(verdict, RejectReason) else None) is expected
        assert isinstance(verdict, SentencePair) == (expected is None)

    # ratio-ladder monotonicity on 10^4 fuzzed pairs
    rng = random.Random(31337)
    ladder_cfgs = [FilterConfig(length_ratio_limit=r) for r in (1.5, 2.0, 2.5, 3.0)]
    for _ in range(10_000):
        p = pair("x" * rng.randint(1, 40), "y" * rng.randint(1, 40), "en-hr")
        kept = [isinstance(apply_filters(p, c, tokenizer), SentencePair) for c in ladder_cfgs]
        for tight, loose in zip(kept, kept[1:]):
            assert not tight or loose

    rejected = sum(1 for _, expected in corpus if expected is not None)
    print(f"ACCEPTANCE 3 PASS: 12-pair corpus gives {rejected} expected rejections "
          f"across all reasons, deterministic; ladder monotone on 10^4 fuzzed pairs")


def test_criterion_4_bleu_oracle():
    identity = corpus_bleu(["the cat sat", "on the mat"],
                           ["the cat sat", "on the mat"])
    assert identity.score == 100.0

    single = corpus_bleu(["a b c d e f"], ["a b c d e f g"])
    expected = 100 * math.exp(-1 / 6)
    assert abs(single.score - expected) < 1e-3
    assert abs(single.score - 84.648) < 1e-3

    rng = random.Random(424242)
    vocab = list("abcdefgh")
    exact_matches = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        hyps = [" ".join(rng.choices(vocab, k=rng.randint(1, 10))) for _ in range(n)]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 10))) for _ in range(n)]
        assert corpus_bleu(hyps, refs).score == bleu_oracle(hyps, refs)
        exact_matches += 1

    print(f"ACCEPTANCE 4 PASS: identity=100.00, brevity case {single.score:.3f} "
          f"~ 84.648, oracle matched exactly on {exact_matches}/100 random corpora")


def test_criterion_5_pivot_routing_end_to_end():
    started = time.perf_counter()

    translator = CipherTranslator([
        CipherLanguage.from_seed(lang, 1000 + i)
        for i, lang in enumerate(["hr", "hu", "mk"])])
    grid = all_ordered_pairs(["hr", "hu", "mk"])
    rng = random.Random(55)

    def devset(n=20):
        sets = {}
        for d in grid:
            english = [" ".join(rng.choices(COMMON_WORDS, k=7)) for _ in range(n)]
            sets[d] = (translator.translate(english, Direction("en", d.src)),
                       translator.translate(english, Direction("en", d.tgt)))
        return sets

    dev, devtest = devset(), devset()

    noisy = NoisyTranslator(translator, 0.5, seed=77, directions=grid)
    table = build_routing_table(
        evaluate_directions(noisy, dev, strategy=Direct()),
        evaluate_directions(noisy, dev, strategy=PivotVia("en")), "en")
    assert all(e.strategy == PivotVia("en") for e in table.entries.values())

    routed_scores = []
    for d in grid:
        sources, refs = devtest[d]
        hyps = route_translate(noisy, table, sources, d)
        score = corpus_bleu(hyps, refs).score
        assert score == 100.0
        routed_scores.append(score)

    # validation-set hybrid dominance: routed score is the per-direction max
    for entry in table.entries.values():
        chosen = (entry.bleu_direct if isinstance(entry.strategy, Direct)
                  else entry.bleu_pivot)
        assert chosen == max(entry.bleu_direct, entry.bleu_pivot)

    clean = NoisyTranslator(translator, 0.0, seed=77, directions=grid)
    tie_table = build_routing_table(
        evaluate_directions(clean, dev, strategy=Direct()),
        evaluate_directions(clean, dev, strategy=PivotVia("en")), "en")
    assert all(e.strategy == Direct() for e in tie_table.entries.values())

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5 PASS: noise 0.5 routes all {len(grid)} X->Y via pivot "
          f"with routed BLEU 100.00; noise 0 ties resolve direct, {elapsed:.2f}s")


def test_criterion_6_dual_pseudo_exactness(tmp_path):
    translator = CipherTranslator([
        CipherLanguage.from_seed(lang, 9000 + i)
        for i, lang in enumerate(["hr", "hu", "mk"])])
    rng = random.Random(606)
    mono_path = tmp_path / "mono.en.txt"
    with mono_path.open("w", encoding="utf-8") as fh:
        for _ in range(1000):
            fh.write(" ".join(rng.choices(COMMON_WORDS, k=rng.randint(3, 10))) + "\n")

    plan = plan_dual_pseudo(MonoCorpusRef(mono_path, "en"),
                            all_ordered_pairs(["hr", "hu", "mk"]))
    manifest = run_plan(plan, translator, None, tmp_path / "out")
    assert len(manifest.shards) == 6

    for shard in manifest.shards:
        sources, targets = [], []
        for line in shard.path.read_text(encoding="utf-8").splitlines():
            s, t = line.split("\t")
            sources.append(s)
            targets.append(t)
        assert len(sources) == 1000
        assert translator.translate(sources, shard.direction) == targets

    print("ACCEPTANCE 6 PASS: all 6 dual-pseudo corpora over 1000 lines satisfy "
          "direct-translate(source) == target line-for-line")


def test_criterion_7_curriculum():
    thirds = MixtureWeights(0.33, 0.33, 0.33)
    reset = MixtureWeights(0.6, 0.2, 0.2)
    selected = SelectedDirections(frozenset({Direction("hr", "en")}))
    ladder = [
        StageDescriptor("noisy-all-24", Noisy(), AllDirections(), thirds, 24, 12),
        StageDescriptor("clean-selected-24", Clean(3.0), selected, reset, 24, 12),
        StageDescriptor("clean-selected-36", Clean(3.0), selected, reset, 36, 12),
    ]
    assert stage_schedule(ladder) == ladder

    loosenings = [
        StageDescriptor("b1", Noisy(), AllDirections(), thirds, 24, 12),
        StageDescriptor("b2", Clean(2.0), selected, thirds, 24, 12),
        StageDescriptor("b3", Clean(3.0), selected, thirds, 24, 12),
    ]
    with pytest.raises(InvalidScheduleError):
        stage_schedule(loosenings)
    assert validate_transition(ladder[2], ladder[1])  # encoder shrink rejected

    grown = grow_encoder(ModelShape.pretrained(24, 12), 12, "deepen")
    assert grown.encoder_layers == 36
    assert sum(isinstance(p, Inherited) for p in grown.layer_provenance) == 24
    assert sum(isinstance(p, FreshRandom) for p in grown.layer_provenance) == 12

    rng = random.Random(70707)
    for _ in range(100):
        k = rng.randint(1, 8)
        length = rng.randint(1, 12)
        vectors = [[rng.uniform(-10, 10) for _ in range(length)] for _ in range(k)]
        ours = average_checkpoints(vectors)
        oracle = np.mean(np.array(vectors), axis=0)
        assert np.max(np.abs(np.array(ours) - oracle)) < 1e-12

    print("ACCEPTANCE 7 PASS: three-stage ladder validates, loosenings rejected, "
          "24+12 growth provenance exact, averaging matches mean oracle to 1e-12")


def test_criterion_8_demo_determinism(tmp_path):
    def digest(root):
        h = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["demo", "--out", str(d1), "--seed", "42"]) == 0
    assert main(["demo", "--out", str(d2), "--seed", "42"]) == 0
    files1 = sorted(str(p.relative_to(d1)) for p in d1.rglob("*") if p.is_file())
    files2 = sorted(str(p.relative_to(d2)) for p in d2.rglob("*") if p.is_file())
    assert files1 == files2
    assert digest(d1) == digest(d2)

    print(f"ACCEPTANCE 8 PASS: demo --seed 42 twice -> byte-identical trees "
          f"({len(files1)} files)")
