"""mtforge: corpus engineering for multilingual machine translation.

Filtering, temperature-balanced sampling, three-pool corpus mixing,
back-translation and dual-pseudo augmentation, subword BLEU, hybrid
direct/pivot routing, and progressive-learning schedules — all against a
pluggable translator interface with deterministic cipher-language reference
translators for exact end-to-end verification.
"""

from .augmentation import (
    AugmentationPlan,
    AugmentationTask,
    BitextCorpusRef,
    MonoCorpusRef,
    all_ordered_pairs,
    plan_backtranslation,
    plan_dual_pseudo,
    plan_triangulation,
    run_plan,
)
from .cleaning import (
    FilterConfig,
    RejectReason,
    apply_filters,
    filter_corpus,
    shuffle_dataset,
    truncate_tokens,
)
from .corpus import (
    CorpusManifest,
    Direction,
    LanguageStats,
    OriginPool,
    SentencePair,
    ShardEntry,
    corpus_stats,
    load_manifest,
    read_pairs,
    write_manifest,
)
from .curriculum import (
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
    load_schedule,
    stage_schedule,
    validate_transition,
)
from .evaluation import BleuScore, ScoreMatrix, corpus_bleu, evaluate_directions
from .routing import RouteEntry, RoutingTable, build_routing_table, route_translate
from .sampling import (
    Batch,
    BatchScheduler,
    MixtureWeights,
    SamplingDistribution,
    language_distribution,
)
from .subword import SubwordTokenizer, default_tokenizer
from .translator import (
    CipherLanguage,
    CipherTranslator,
    DecodingConfig,
    Direct,
    LineProtocolTranslator,
    PivotVia,
    Translator,
    pivot_translate,
)

__version__ = "0.1.0"
