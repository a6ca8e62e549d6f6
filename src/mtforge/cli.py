"""Command-line entry point.

Exit codes: 0 success, 1 validation/usage errors, 2 I/O errors. Every
randomized subcommand takes ``--seed``; when omitted, a fresh seed is drawn
and printed so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial
from pathlib import Path

from . import augmentation, cleaning, curriculum, demo
from .corpus import (Direction, Outputs, check_lang_code, corpus_stats, iter_line_chunks,
                     load_manifest, read_lines, write_shard, write_table)
from .errors import MTForgeError
from .evaluation import ScoreMatrix, strategy_hops, stream_bleu
from .routing import RoutingTable, build_routing_table, route_translate
from .sampling import (BatchScheduler, MixtureWeights, check_batch_size, check_batches,
                       check_temperature, language_distribution, write_composition)
from .subword import SubwordTokenizer, default_tokenizer
from .translator import (
    CipherLanguage,
    CipherTranslator,
    LineProtocolTranslator,
    PivotVia,
    check_noise_rate,
    check_timeout,
    derive_language_seed,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own
    # error handling so usage problems map to exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: {message}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = random.SystemRandom().randrange(2**63)
    print(f"seed\t{seed}")
    return seed


def _flag(check, convert=str):
    """An argparse ``type`` that converts a flag's text and returns
    ``check(value)``. A text that does not convert stays argparse's usage
    error, named by ``convert``; the check's ValueError becomes MTForgeError,
    which argparse lets through to ``main``'s one ``error:`` line."""
    def parse(text):
        value = convert(text)
        try:
            return check(value)
        except ValueError as exc:
            raise MTForgeError(str(exc)) from None
    parse.__name__ = convert.__name__
    return parse


def _translator(spec: str):
    """The builder, called with ``(directions, timeout)``, of the translator
    that a ``cipher:SEED`` or ``exec:CMD`` spec names; ``timeout`` limits
    each call of an ``exec:`` command."""
    kind, colon, arg = spec.partition(":")
    if colon and kind == "exec":
        return partial(LineProtocolTranslator, arg)
    if colon and kind == "cipher":
        seed = int(arg)
        return lambda directions, timeout: CipherTranslator(
            CipherLanguage.from_seed(lang, derive_language_seed(seed, lang))
            for lang in sorted({lang for d in directions for lang in (d.src, d.tgt)} - {"en"}))
    raise ValueError(f"unknown translator spec {spec!r} (use cipher:SEED or exec:CMD)")


def _each(check):
    """A ``type`` that returns ``check`` of each item of a comma-separated list."""
    return _flag(lambda text: [check(item) for item in text.split(",")])


class _ScriptRules(argparse.Action):
    """Repeated ``--script LANG=SCRIPT`` flags, gathered into a new dict on
    each flag; a language given twice is an error."""

    def __call__(self, parser, namespace, rule, option_string=None):
        lang, _, script = rule.partition("=")
        if not script:
            raise MTForgeError(f"--script expects lang=Script, got {rule!r}")
        rules = getattr(namespace, self.dest)
        if lang in rules:
            raise MTForgeError(f"--script gives language {lang!r} twice")
        setattr(namespace, self.dest, {**rules, lang: script})


# --- subcommand handlers -----------------------------------------------------

def _cmd_stats(args) -> int:
    manifest = load_manifest(args.manifest, verify=args.verify)
    if args.out:
        Outputs(manifest.files()).claim(args.out)
    stats = corpus_stats(manifest)
    rows = [("language", lang, n) for lang, n in stats.per_language.items()]
    rows += [("direction", d.src, d.tgt, n) for d, n in stats.per_direction.items()]
    if args.out:
        write_table(args.out, rows)
    else:
        print("\n".join("\t".join(map(str, row)) for row in rows))
    return 0


def _cmd_filter(args) -> int:
    cfg = cleaning.FilterConfig(
        max_words=args.max_words,
        max_tokens=args.max_tokens,
        length_ratio_limit=args.ratio,
        unk_token=args.unk_token,
        script_rules=args.script,
        langid_required=args.langid_required,
    )
    manifest = load_manifest(args.manifest)
    tokenizer = SubwordTokenizer.from_file(args.vocab) if args.vocab else default_tokenizer()
    _, counts = cleaning.filter_corpus(
        manifest, cfg, tokenizer, args.out,
        rejects_dir=args.rejects, langid_dir=args.langid)
    for key in sorted(counts):
        print(f"{key}\t{counts[key]}")
    return 0


def _cmd_shuffle(args) -> int:
    manifest = load_manifest(args.manifest)
    seed = _resolve_seed(args)
    n = cleaning.shuffle_dataset(manifest, seed, args.out)
    print(f"lines\t{n}")
    return 0


def _cmd_sample(args) -> int:
    manifest = load_manifest(args.manifest)
    Outputs(manifest.files()).claim(args.report)
    seed = _resolve_seed(args)
    stats = corpus_stats(manifest)
    dist = language_distribution(stats, args.temperature)
    with BatchScheduler(manifest, dist, args.mixture, args.batch_size, seed) as scheduler:
        write_composition(scheduler, args.batches, args.report)
    print(f"batches\t{args.batches}")
    return 0


def _cmd_bleu(args) -> int:
    tokenizer = SubwordTokenizer.from_file(args.vocab) if args.vocab else None
    result = stream_bleu(iter_line_chunks(args.hyp), iter_line_chunks(args.ref), tokenizer)
    precisions = "\t".join(f"{p:.4f}" for p in result.precisions)
    print(f"{result.score:.2f}\t{precisions}\t{result.brevity_penalty:.4f}")
    return 0


def _cmd_augment_plan(args) -> int:
    Outputs([args.mono, args.bitext]).claim(args.out)
    if args.kind == "bt":
        if not args.mono or not args.langs:
            raise MTForgeError("--kind bt needs --mono and --langs")
        plan = augmentation.plan_backtranslation(
            augmentation.MonoCorpusRef(Path(args.mono), args.mono_lang), args.langs)
    elif args.kind == "dual":
        if not args.mono:
            raise MTForgeError("--kind dual needs --mono")
        if not args.pairs and not args.langs:
            raise MTForgeError("--kind dual needs --pairs or --langs")
        plan = augmentation.plan_dual_pseudo(
            augmentation.MonoCorpusRef(Path(args.mono), args.mono_lang),
            args.pairs or augmentation.all_ordered_pairs(args.langs))
    else:  # tri
        if not args.bitext or not args.direction:
            raise MTForgeError("--kind tri needs --bitext and --direction")
        plan = augmentation.plan_triangulation(
            augmentation.BitextCorpusRef(Path(args.bitext), args.direction),
            new_src=args.new_src, new_tgt=args.new_tgt)
    augmentation.save_plan(plan, args.out)
    print(f"tasks\t{len(plan.tasks)}")
    return 0


def _cmd_augment_run(args) -> int:
    plan = augmentation.load_plan(args.plan)
    translator = args.translator(plan.needed_directions, args.timeout)
    manifest = augmentation.run_plan(plan, translator, None, args.out)
    print(f"shards\t{len(manifest.shards)}")
    return 0


def _cmd_route_build(args) -> int:
    Outputs([args.direct, args.pivot]).claim(args.out)
    direct = ScoreMatrix.load(args.direct)
    pivot = ScoreMatrix.load(args.pivot)
    table = build_routing_table(direct, pivot, args.pivot_lang)
    table.save(args.out)
    pivoted = sum(isinstance(e.strategy, PivotVia) for e in table.entries.values())
    print(f"entries\t{len(table.entries)}")
    print(f"pivot_routed\t{pivoted}")
    return 0


def _cmd_route_translate(args) -> int:
    Outputs([args.table, args.input]).claim(args.out)
    table = RoutingTable.load(args.table)
    hops = strategy_hops(args.direction, table.strategy(args.direction))
    translator = args.translator(hops, args.timeout)
    sentences = read_lines(args.input)
    write_shard(args.out, [route_translate(translator, table, sentences, args.direction)])
    print(f"sentences\t{len(sentences)}")
    return 0


def _cmd_curriculum_check(args) -> int:
    stages = curriculum.load_schedule(args.schedule)
    print(f"ok\t{len(stages)}")
    return 0


def _cmd_demo(args) -> int:
    seed = _resolve_seed(args)
    summary = demo.pipeline_demo(args.out, seed, direct_noise=args.direct_noise)
    print(f"summary\t{summary.name}")
    return 0


# --- parser ------------------------------------------------------------------

# The options that augment run and route translate both take.
_TRANSLATOR_OPTIONS = {
    "--translator": dict(type=_flag(_translator), required=True,
                         metavar="cipher:SEED|exec:CMD"),
    "--timeout": dict(type=_flag(check_timeout, float), metavar="SECONDS",
                      help="kill an exec: translator call that runs longer than this"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="mtforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("stats", help="per-language and per-direction corpus counts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--verify", action="store_true",
                   help="recount shards against declared line counts")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("filter", help="run the cleaning filters over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejects")
    p.add_argument("--ratio", type=float, default=3.0)
    p.add_argument("--max-words", type=int, default=1024)
    p.add_argument("--max-tokens", type=int, default=512)
    p.add_argument("--unk-token", default="[UNK]")
    p.add_argument("--script", action=_ScriptRules, default={}, metavar="LANG=SCRIPT")
    p.add_argument("--langid", help="directory of per-shard langid sidecar files")
    p.add_argument("--langid-required", action="store_true")
    p.add_argument("--vocab")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("shuffle", help="seeded shuffle of all shard lines")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("sample", help="draw batches from the three-pool mixture")
    p.add_argument("--manifest", required=True)
    p.add_argument("--temperature", type=_flag(check_temperature, float), default=5.0)
    p.add_argument("--lambda", dest="mixture", type=_flag(MixtureWeights.parse),
                   default="0.6,0.2,0.2", metavar="L1,L2,L3")
    p.add_argument("--batch-size", type=_flag(check_batch_size, int), default=32)
    p.add_argument("--batches", type=_flag(check_batches, int), default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bleu", help="corpus BLEU between two files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--vocab", help="subword vocabulary; whitespace tokens if omitted")
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("augment", help="plan and run data augmentation")
    aug = p.add_subparsers(dest="augment_command", parser_class=_Parser)
    pp = aug.add_parser("plan")
    pp.add_argument("--kind", choices=["bt", "dual", "tri"], required=True)
    pp.add_argument("--mono")
    pp.add_argument("--mono-lang", type=_flag(check_lang_code), default="en")
    pp.add_argument("--langs", type=_each(check_lang_code))
    pp.add_argument("--pairs", type=_each(Direction.parse))
    pp.add_argument("--bitext")
    pp.add_argument("--direction", type=_flag(Direction.parse))
    pp.add_argument("--new-src", type=_flag(check_lang_code))
    pp.add_argument("--new-tgt", type=_flag(check_lang_code))
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_augment_plan)
    pr = aug.add_parser("run")
    pr.add_argument("--plan", required=True)
    for option, kwargs in _TRANSLATOR_OPTIONS.items():
        pr.add_argument(option, **kwargs)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_augment_run)

    p = sub.add_parser("route", help="build routing tables and translate through them")
    route = p.add_subparsers(dest="route_command", parser_class=_Parser)
    rb = route.add_parser("build")
    rb.add_argument("--direct", required=True)
    rb.add_argument("--pivot", required=True)
    rb.add_argument("--pivot-lang", type=_flag(check_lang_code), default="en")
    rb.add_argument("--out", required=True)
    rb.set_defaults(func=_cmd_route_build)
    rt = route.add_parser("translate")
    rt.add_argument("--table", required=True)
    for option, kwargs in _TRANSLATOR_OPTIONS.items():
        rt.add_argument(option, **kwargs)
    rt.add_argument("--direction", type=_flag(Direction.parse), required=True)
    rt.add_argument("--input", required=True)
    rt.add_argument("--out", required=True)
    rt.set_defaults(func=_cmd_route_translate)

    p = sub.add_parser("curriculum", help="validate progressive-learning schedules")
    cur = p.add_subparsers(dest="curriculum_command", parser_class=_Parser)
    cc = cur.add_parser("check")
    cc.add_argument("--schedule", required=True)
    cc.set_defaults(func=_cmd_curriculum_check)

    p = sub.add_parser("demo", help="end-to-end pipeline on synthetic cipher data")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--direct-noise", type=_flag(check_noise_rate, float), default=0.0)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (MTForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{exc.strerror}: {name}" if name else str(exc)
        print(f"io error: {detail}", file=sys.stderr)
        return 2
