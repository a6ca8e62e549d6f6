"""Desk-scale end-to-end pipeline over synthetic cipher languages.

Generates an English monolingual corpus and bitext shards (with some junk
lines injected), then runs filter -> augment (back-translation, dual-pseudo,
triangulation) -> sample -> route-build -> route-translate -> BLEU, writing
every artifact under one output directory. All randomness is derived from a
single seed and all written paths are relative, so two runs with the same
seed produce byte-identical output trees.
"""

from __future__ import annotations

import random
from pathlib import Path

from .augmentation import (
    BitextCorpusRef,
    MonoCorpusRef,
    all_ordered_pairs,
    plan_backtranslation,
    plan_dual_pseudo,
    plan_triangulation,
    run_plan,
)
from .cleaning import FilterConfig, filter_corpus
from .corpus import (CorpusManifest, Direction, OriginPool, Outputs, ShardEntry, corpus_stats,
                     write_manifest, write_shard, write_table)
from .evaluation import ScoreMatrix, corpus_bleu, evaluate_directions
from .routing import build_routing_table, route_translate
from .sampling import BatchScheduler, MixtureWeights, language_distribution, write_composition
from .subword import DEFAULT_VOCAB, SubwordTokenizer
from .translator import (
    CipherLanguage,
    CipherTranslator,
    Direct,
    NoisyTranslator,
    PivotVia,
    check_noise_rate,
    derive_language_seed,
)
from .wordlist import COMMON_WORDS

DEMO_LANGS = ("hr", "hu", "mk")
MONO_LINES = 120     # English monolingual lines
BITEXT_LINES = 60    # pairs per generated bitext shard, not counting junk rows
DEV_LINES = 16       # segments per dev and devtest direction
BATCHES = 3          # batches drawn, of BATCH_SIZE pairs each
BATCH_SIZE = 16


def _sentence(rng: random.Random) -> str:
    return " ".join(rng.choices(COMMON_WORDS, k=rng.randint(4, 12)))


def _junk_rows() -> list[tuple[str, str]]:
    """Pairs the filter must reject, one per reachable reason."""
    return [
        (" ".join(["word"] * 1025), "short target"),            # TooLong
        ("good source line", "line with [UNK] token"),          # ContainsUnk
        ("tiny", "x" * 40),                                     # RatioExceeded
        ("source without target", ""),                          # Empty
    ]


def pipeline_demo(out_dir: str | Path, seed: int, direct_noise: float = 0.0) -> Path:
    """Run the full pipeline; returns the path of the summary report.
    A ``direct_noise`` outside [0, 1] raises ValueError before anything is
    written."""
    check_noise_rate(direct_noise)
    out = Path(out_dir)
    raw = out / "raw"
    clean = out / "clean"
    rejects = out / "rejects"
    augment_dir = out / "augment"
    reports = out / "reports"
    Outputs(()).start(raw, reports)   # filter_corpus and run_plan make the others

    rng = random.Random(seed)
    summary: list[tuple[str, str, str]] = []

    # Cipher languages and the exact reference translator.
    ciphers = [CipherLanguage.from_seed(lang, derive_language_seed(seed, lang))
               for lang in DEMO_LANGS]
    perfect = CipherTranslator(ciphers)

    # Shared multilingual subword vocabulary: without the cipher words the
    # non-English side falls back to character pieces and the length-ratio
    # filter would reject well-aligned pairs.
    vocab = list(DEFAULT_VOCAB)
    for cipher in ciphers:
        vocab.extend(sorted(cipher.token_map.values()))
    tokenizer = SubwordTokenizer(vocab)

    # Synthetic raw corpora: English monolingual + en->X bitext + one X-Y bitext.
    mono_path = raw / "mono.en.txt"
    mono = [_sentence(rng) for _ in range(MONO_LINES)]
    write_shard(mono_path, [mono])

    shards: list[ShardEntry] = []
    for lang in DEMO_LANGS:
        direction = Direction("en", lang)
        sources = [_sentence(rng) for _ in range(BITEXT_LINES)]
        targets = perfect.translate(sources, direction)
        junk_sources, junk_targets = map(list, zip(*_junk_rows()))
        name = f"bitext.en-{lang}.tsv"
        count = write_shard(raw / name, (sources + junk_sources, targets + junk_targets))
        shards.append(ShardEntry(name, raw / name, direction, OriginPool.BITEXT, count))

    xy = Direction(DEMO_LANGS[0], DEMO_LANGS[1])
    english = [_sentence(rng) for _ in range(BITEXT_LINES)]
    name = f"bitext.{xy}.tsv"
    count = write_shard(raw / name, [perfect.translate(english, Direction("en", lang))
                                     for lang in (xy.src, xy.tgt)])
    shards.append(ShardEntry(name, raw / name, xy, OriginPool.BITEXT, count))

    raw_manifest = CorpusManifest(shards)
    write_manifest(raw_manifest, raw / "manifest.tsv")

    # Filter.
    cfg = FilterConfig()
    clean_manifest, counts = filter_corpus(raw_manifest, cfg, tokenizer, clean, rejects)
    for key in sorted(counts):
        summary.append(("filter", key, str(counts[key])))

    # Augment: all three schemes against the perfect ciphers.
    mono_ref = MonoCorpusRef(mono_path, "en")
    plan = plan_backtranslation(mono_ref, list(DEMO_LANGS))
    plan = plan.extend(plan_dual_pseudo(mono_ref, all_ordered_pairs(list(DEMO_LANGS))))
    tri_input = clean_manifest.shard(f"bitext.{xy}.tsv")
    plan = plan.extend(plan_triangulation(
        BitextCorpusRef(tri_input.path, xy), new_tgt=DEMO_LANGS[2]))
    augmented = run_plan(plan, perfect, None, augment_dir)
    summary.append(("augment", "tasks", str(len(plan.tasks))))
    summary.append(("augment", "shards", str(len(augmented.shards))))

    # Generated shards go through the cleaning pass before admission.
    augment_clean = out / "augment_clean"
    augmented_clean, aug_counts = filter_corpus(augmented, cfg, tokenizer, augment_clean)
    summary.append(("augment", "kept_after_clean", str(aug_counts["kept"])))

    # Merge pools into one manifest (paths relative to the output root).
    merged_entries = [
        ShardEntry(f"clean/{e.raw_path}", e.path, e.direction, e.origin,
                   e.declared_line_count)
        for e in clean_manifest.shards
    ] + [
        ShardEntry(f"augment_clean/{e.raw_path}", e.path, e.direction, e.origin,
                   e.declared_line_count)
        for e in augmented_clean.shards
    ]
    merged = CorpusManifest(merged_entries)
    write_manifest(merged, out / "merged_manifest.tsv")

    # Sample batches and report the composition.
    stats = corpus_stats(merged)
    dist = language_distribution(stats, temperature=5.0)
    weights = MixtureWeights(0.6, 0.2, 0.2)
    scheduler = BatchScheduler(merged, dist, weights, BATCH_SIZE, seed=rng.randrange(2**63))
    with scheduler:
        write_composition(scheduler, BATCHES, reports / "composition.tsv")
    summary.append(("sample", "batches", str(BATCHES)))
    summary.append(("sample", "batch_size", str(BATCH_SIZE)))

    # Dev and devtest sets for the non-English grid.
    grid = all_ordered_pairs(list(DEMO_LANGS))

    def make_devset(n):
        devset = {}
        for d in grid:
            english = [_sentence(rng) for _ in range(n)]
            sources = perfect.translate(english, Direction("en", d.src))
            references = perfect.translate(english, Direction("en", d.tgt))
            devset[d] = (sources, references)
        return devset

    dev = make_devset(DEV_LINES)
    devtest = make_devset(DEV_LINES)

    # Direct decoding is degraded on X->Y only; pivot hops stay exact.
    system = NoisyTranslator(perfect, direct_noise, seed=rng.randrange(2**63),
                             directions=grid)
    direct_scores = evaluate_directions(system, dev, strategy=Direct())
    pivot_scores = evaluate_directions(system, dev, strategy=PivotVia("en"))
    direct_scores.save(reports / "bleu_direct.tsv")
    pivot_scores.save(reports / "bleu_pivot.tsv")

    table = build_routing_table(direct_scores, pivot_scores, "en")
    table.save(reports / "routing.tsv")
    pivot_count = sum(1 for e in table.entries.values()
                      if not isinstance(e.strategy, Direct))
    summary.append(("route", "directions", str(len(table.entries))))
    summary.append(("route", "pivot_routed", str(pivot_count)))

    # Routed devtest scores.
    routed = {}
    for d in grid:
        sources, references = devtest[d]
        hyps = route_translate(system, table, sources, d)
        routed[d] = corpus_bleu(hyps, references, tokenizer)
    routed_matrix = ScoreMatrix(routed)
    routed_matrix.save(reports / "bleu_routed.tsv")
    summary.append(("bleu", "devtest_avg_x_to_y", f"{routed_matrix.avg_x_to_y:.2f}"))
    summary.append(("bleu", "devtest_avg_all", f"{routed_matrix.avg_all:.2f}"))

    summary_path = reports / "summary.tsv"
    write_table(summary_path, summary, header=("stage", "key", "value"))
    return summary_path
