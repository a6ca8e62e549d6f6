"""The four workloads: set-up, one timed pass through mtforge, and the checks
of a pass's output against references computed from the generated inputs.

Every call into the package goes through a module attribute
(``cleaning.filter_corpus``, not an imported name), so that the traced pass
can wrap it. ``run`` returns a ``Pass``; ``check`` returns the number of
checks made and a message for each one that failed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from mtforge import augmentation, cleaning, corpus, evaluation, routing, sampling
from mtforge import subword
from mtforge import translator as translator_mod
from mtforge.corpus import Direction

from .gen import XY_LANGS, combined_digest, derive_seed, file_digests
from .tracer import TracedTokenizer, TracedTranslator, Tracer, scheduler_kwargs

_now = time.perf_counter
XY_GRID = [Direction(a, b) for a in XY_LANGS for b in XY_LANGS if a != b]


@dataclass
class Pass:
    """Clock readings of one pass; the worker turns them into timings."""
    start: float          # first call into the package
    end: float            # complete result in hand
    first: tuple[float, float]  # the wait for the first unit of output
    rest: tuple[float, float, int] | None  # (from, to, units) of the others
    items: int
    ops: int              # calls into the package's public functions
    digest: str = ""      # of the output, filled in untimed after the pass
    data: dict[str, Any] = field(default_factory=dict)


def _read_lines(path: Path) -> list[str]:
    with path.open(encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def _read_cipher(path: Path) -> dict[str, str]:
    return dict(line.split("\t") for line in _read_lines(path))


def _hash_lines(lines) -> str:
    h = hashlib.blake2b(digest_size=16)
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _ciphers(inputs: Path, seed: int, langs) -> list[translator_mod.CipherLanguage]:
    return [translator_mod.CipherLanguage(lang, derive_seed(seed, f"cipher:{lang}"),
                                          _read_cipher(inputs / f"cipher.{lang}.tsv"))
            for lang in langs]


def _files_digest(p: Pass, out: Path) -> str:
    return combined_digest(file_digests(out))


def _one_batch(t0: float, items: int, ops: int, **data) -> Pass:
    """A pass whose whole output arrives as one unit."""
    end = _now()
    return Pass(t0, end, (t0, end), None, items, ops, data=data)


class Clean:
    """filter_corpus with a rejects dir, then shuffle_dataset."""

    memory_pass = False
    digest = staticmethod(_files_digest)

    @staticmethod
    def build(inputs: Path, seed: int) -> dict:
        vocab = list(subword.DEFAULT_VOCAB) + _read_lines(inputs / "vocab.en.txt")
        for lang in XY_LANGS:
            vocab += _read_cipher(inputs / f"cipher.{lang}.tsv").values()
        return {"tokenizer": subword.SubwordTokenizer(vocab),
                "config": cleaning.FilterConfig(max_words=48)}

    @staticmethod
    def prepare(ctx: dict, inputs: Path, seed: int) -> None:
        ctx["shuffle_seed"] = derive_seed(seed, "shuffle")

    @staticmethod
    def run(ctx: dict, inputs: Path, out: Path, tracer: Tracer | None = None) -> Pass:
        tok = ctx["tokenizer"] if tracer is None else TracedTokenizer(ctx["tokenizer"], tracer)
        t0 = _now()
        manifest = corpus.load_manifest(inputs / "manifest.tsv")
        clean, counts = cleaning.filter_corpus(manifest, ctx["config"], tok,
                                               out / "clean", out / "rejects")
        lines = cleaning.shuffle_dataset(clean, ctx["shuffle_seed"], out / "shuffled.tsv")
        items = sum(counts.values())
        return _one_batch(t0, items, 3, counts=counts, shuffled=lines)

    @staticmethod
    def check(ctx: dict, inputs: Path, out: Path, p: Pass,
              expect: dict) -> tuple[int, list[str]]:
        failures, checks = [], 0
        planted_total: dict[str, int] = {}
        kept_all, n_input = [], 0
        for name, planted in expect["shards"].items():
            rows = _read_lines(inputs / name)
            n_input += len(rows)
            kept = [r for i, r in enumerate(rows, 1) if str(i) not in planted]
            rejected = [f"{rows[int(i) - 1]}\t{reason}" for i, reason in
                        sorted(planted.items(), key=lambda kv: int(kv[0]))]
            for reason in planted.values():
                planted_total[reason] = planted_total.get(reason, 0) + 1
            kept_all += kept
            checks += 2
            if _read_lines(out / "clean" / name) != kept:
                failures.append(f"clean/{name}: kept rows differ from the planted-clean rows")
            if _read_lines(out / "rejects" / name) != rejected:
                failures.append(f"rejects/{name}: rejected rows or reasons differ "
                                "from the planted junk")
        want = {"kept": len(kept_all)}
        for reason in cleaning.RejectReason:
            want[f"rejected_{reason.value}"] = planted_total.get(reason.value, 0)
        checks += 2
        if p.data["counts"] != want:
            failures.append(f"filter counts {p.data['counts']} != {want}")
        if sum(p.data["counts"].values()) != n_input:
            failures.append("kept plus rejected differs from the input row count")
        shuffled = _read_lines(out / "shuffled.tsv")
        checks += 1
        if p.data["shuffled"] != len(kept_all) or \
                _hash_lines(sorted(shuffled)) != _hash_lines(sorted(kept_all)):
            failures.append("shuffled.tsv is not a permutation of the clean lines")
        return checks, failures


class Augment:
    """Back-translation into three languages, dual-pseudo over their six
    ordered pairs and triangulation hr-hu -> hr-mk, through run_plan."""

    memory_pass = True
    digest = staticmethod(_files_digest)

    @staticmethod
    def build(inputs: Path, seed: int) -> dict:
        return {"translator": translator_mod.make_cipher_translator(
            _ciphers(inputs, seed, XY_LANGS))}

    @staticmethod
    def prepare(ctx: dict, inputs: Path, seed: int) -> None:
        with (inputs / "mono.en.txt").open("rb") as fh:
            ctx["mono_lines"] = sum(1 for _ in fh)

    @staticmethod
    def run(ctx: dict, inputs: Path, out: Path, tracer: Tracer | None = None) -> Pass:
        tr = ctx["translator"] if tracer is None else TracedTranslator(ctx["translator"], tracer)
        t0 = _now()
        mono = augmentation.MonoCorpusRef(inputs / "mono.en.txt", "en")
        plan = augmentation.plan_backtranslation(mono, list(XY_LANGS))
        plan = plan.extend(augmentation.plan_dual_pseudo(
            mono, augmentation.all_ordered_pairs(list(XY_LANGS))))
        plan = plan.extend(augmentation.plan_triangulation(
            augmentation.BitextCorpusRef(inputs / "bitext.hr-hu.tsv", Direction("hr", "hu")),
            new_tgt="mk"))
        manifest = augmentation.run_plan(plan, tr, None, out)
        return _one_batch(t0, ctx["mono_lines"], 5, manifest=manifest)

    @staticmethod
    def check(ctx: dict, inputs: Path, out: Path, p: Pass,
              expect: dict) -> tuple[int, list[str]]:
        maps = {lang: _read_cipher(inputs / f"cipher.{lang}.tsv") for lang in XY_LANGS}
        mono = _read_lines(inputs / "mono.en.txt")
        enc = {"en": mono}
        for lang, m in maps.items():
            enc[lang] = [" ".join(m[w] for w in line.split()) for line in mono]
        expected: dict[str, tuple[Direction, str, list[tuple[str, str]]]] = {}
        for lang in XY_LANGS:
            expected[f"bt.{lang}-en.tsv"] = (Direction(lang, "en"), "back_translation",
                                             list(zip(enc[lang], mono)))
            expected[f"bt.en-{lang}.tsv"] = (Direction("en", lang), "back_translation",
                                             list(zip(mono, enc[lang])))
        for d in XY_GRID:
            expected[f"dual.{d}.tsv"] = (d, "dual_pseudo", list(zip(enc[d.src], enc[d.tgt])))
        hu_inverse = {v: k for k, v in maps["hu"].items()}
        tri = []
        for line in _read_lines(inputs / "bitext.hr-hu.tsv"):
            hr, hu = line.split("\t")
            tri.append((hr, " ".join(maps["mk"][hu_inverse[t]] for t in hu.split())))
        expected["tri.hr-mk.tsv"] = (Direction("hr", "mk"), "dual_pseudo", tri)

        failures, checks = [], 1
        got = {e.raw_path: e for e in p.data["manifest"].shards}
        if set(got) != set(expected):
            failures.append(f"shards {sorted(got)} != {sorted(expected)}")
        for name, (direction, origin, rows) in sorted(expected.items()):
            checks += 1
            entry = got.get(name)
            if entry is None:
                continue
            if (entry.direction, entry.origin.value, entry.declared_line_count) != \
                    (direction, origin, len(rows)):
                failures.append(f"{name}: manifest entry {entry} does not match its input")
            elif _hash_lines(_read_lines(out / name)) != \
                    _hash_lines(f"{s}\t{t}" for s, t in rows):
                failures.append(f"{name}: rows do not decode to their source rows")
        return checks, failures


class Sample:
    """corpus_stats -> language_distribution(T=5) -> BatchScheduler(0.6, 0.2,
    0.2; batch 32) -> first batch -> the remaining batches."""

    memory_pass = True
    temperature = 5.0
    weights = (0.6, 0.2, 0.2)
    batch_size = 32
    batches = 10_000

    @staticmethod
    def build(inputs: Path, seed: int) -> dict:
        return {}

    @classmethod
    def prepare(cls, ctx: dict, inputs: Path, seed: int) -> None:
        ctx["seed"] = derive_seed(seed, "scheduler")
        ctx["batches"] = max(10, round(cls.batches * min(1.0, ctx["scale"])))

    @classmethod
    def run(cls, ctx: dict, inputs: Path, out: Path, tracer: Tracer | None = None) -> Pass:
        n = ctx["batches"]
        t0 = _now()
        manifest = corpus.load_manifest(inputs / "manifest.tsv")
        t_stats = _now()
        stats = corpus.corpus_stats(manifest)
        dist = sampling.language_distribution(stats, cls.temperature)
        scheduler = sampling.BatchScheduler(
            manifest, distribution=dist, weights=sampling.MixtureWeights(*cls.weights),
            batch_size=cls.batch_size, seed=ctx["seed"], **scheduler_kwargs(stats))
        drawn = list(scheduler.next_batch().pairs)
        t_first = _now()
        for _ in range(n - 1):
            drawn.extend(scheduler.next_batch().pairs)
        t_end = _now()
        return Pass(t0, t_end, (t_stats, t_first), (t_first, t_end, n - 1),
                    len(drawn), 4 + n, data={"drawn": drawn, "stats": stats})

    @staticmethod
    def digest(p: Pass, out: Path) -> str:
        return _hash_lines(f"{pair.shard_id}\t{pair.line_no}" for pair in p.data["drawn"])

    @classmethod
    def check(cls, ctx: dict, inputs: Path, out: Path, p: Pass,
              expect: dict) -> tuple[int, list[str]]:
        failures = []
        manifest = corpus.load_manifest(inputs / "manifest.tsv")
        entries = {e.shard_id: e for e in manifest.shards}
        sizes = {e.direction: e.declared_line_count for e in manifest.shards}
        checks = 2
        if p.data["stats"].per_direction != sizes:
            failures.append("corpus_stats per-direction counts differ from the generated sizes")
        lines = {sid: _read_lines(e.path) for sid, e in entries.items()}
        bad = 0
        for pair in p.data["drawn"]:
            e = entries.get(pair.shard_id)
            if e is None or not 0 < pair.line_no <= len(lines[pair.shard_id]) or \
                    lines[pair.shard_id][pair.line_no - 1] != f"{pair.source}\t{pair.target}" \
                    or (pair.direction, pair.origin) != (e.direction, e.origin):
                bad += 1
        if bad:
            failures.append(f"{bad} drawn pairs are not at their shard and line")

        # Reference distribution, computed here from the shard sizes.
        per_lang: dict[str, int] = {}
        for d, n in sizes.items():
            for lang in (d.src, d.tgt):
                per_lang[lang] = per_lang.get(lang, 0) + n
        total = sum(per_lang.values())
        scaled = {l: (c / total) ** (1 / cls.temperature) for l, c in per_lang.items()}
        q = {l: w / sum(scaled.values()) for l, w in scaled.items()}
        drawn = p.data["drawn"]
        by_pool: dict[str, list] = {}
        for pair in drawn:
            by_pool.setdefault(pair.origin.value, []).append(pair.direction)
        lam = dict(zip(("bitext", "back_translation", "dual_pseudo"), cls.weights))
        for pool, share in lam.items():
            checks += 1
            got = len(by_pool.get(pool, []))
            if not _within_binomial(got, len(drawn), share):
                failures.append(f"pool {pool}: {got} of {len(drawn)} draws, expected share {share}")
            dirs = [e.direction for e in manifest.shards if e.origin.value == pool]
            weights = {d: q[d.src] * q[d.tgt] for d in dirs}
            counts: dict[Direction, int] = {}
            for d in by_pool.get(pool, []):
                counts[d] = counts.get(d, 0) + 1
            for d in dirs:
                checks += 1
                want = weights[d] / sum(weights.values())
                if not _within_binomial(counts.get(d, 0), got, want):
                    failures.append(f"pool {pool} direction {d}: {counts.get(d, 0)} of {got}, "
                                    f"expected share {want:.4f}")

        # Pairs are drawn uniformly within a direction: the mean relative
        # line position stays within five standard errors of one half.
        positions: dict[str, list[float]] = {}
        for pair in drawn:
            n = entries[pair.shard_id].declared_line_count
            positions.setdefault(pair.shard_id, []).append((pair.line_no - 0.5) / n)
        for sid, pos in sorted(positions.items()):
            checks += 1
            if abs(sum(pos) / len(pos) - 0.5) > 5 * (1 / 12 / len(pos)) ** 0.5:
                failures.append(f"{sid}: draws are not uniform over the shard's lines")
        return checks, failures


def _within_binomial(k: int, n: int, p: float) -> bool:
    """``k`` successes of ``n`` within five standard deviations of ``n * p``."""
    return abs(k - n * p) <= 5 * (n * p * (1 - p)) ** 0.5 + 1


class Route:
    """with_noise(0.3) on X->Y, evaluate_directions Direct and PivotVia(en) on
    dev, build_routing_table, then route_translate + corpus_bleu on devtest.
    A unit of output is one direction's routed and scored devtest."""

    memory_pass = False
    noise = 0.3

    @staticmethod
    def build(inputs: Path, seed: int) -> dict:
        ciphers = _ciphers(inputs, seed, XY_LANGS)
        vocab = list(subword.DEFAULT_VOCAB)
        for c in ciphers:
            vocab.extend(sorted(c.token_map.values()))
        return {"translator": translator_mod.make_cipher_translator(ciphers),
                "tokenizer": subword.SubwordTokenizer(vocab)}

    @staticmethod
    def prepare(ctx: dict, inputs: Path, seed: int) -> None:
        for split in ("dev", "devtest"):
            sets = {}
            for d in XY_GRID:
                rows = [line.split("\t") for line in _read_lines(inputs / f"{split}.{d}.tsv")]
                sets[d] = ([s for s, _ in rows], [t for _, t in rows])
            ctx[split] = sets
        ctx["noise_seed"] = derive_seed(seed, "noise")

    @classmethod
    def run(cls, ctx: dict, inputs: Path, out: Path, tracer: Tracer | None = None) -> Pass:
        perfect, tok = ctx["translator"], ctx["tokenizer"]
        if tracer is not None:
            perfect, tok = TracedTranslator(perfect, tracer), TracedTokenizer(tok, tracer)
        dev, devtest = ctx["dev"], ctx["devtest"]
        t0 = _now()
        system = translator_mod.with_noise(perfect, cls.noise, ctx["noise_seed"], XY_GRID)
        if tracer is not None:
            system = TracedTranslator(system, tracer, "translator.noisy")
        direct = evaluation.evaluate_directions(
            system, dev, strategy=translator_mod.Direct(), tokenizer=tok)
        pivot = evaluation.evaluate_directions(
            system, dev, strategy=translator_mod.PivotVia("en"), tokenizer=tok)
        table = routing.build_routing_table(direct, pivot, "en")
        routed, hyps, done = {}, {}, []
        for d in XY_GRID:
            sources, references = devtest[d]
            hyps[d] = routing.route_translate(system, table, sources, d)
            routed[d] = evaluation.corpus_bleu(hyps[d], references, tok)
            done.append(_now())
        items = sum(len(dev[d][0]) * 2 + len(devtest[d][0]) for d in XY_GRID)
        rest = (done[0], done[-1], len(done) - 1) if len(done) > 1 else None
        return Pass(t0, done[-1], (t0, done[0]), rest, items, 4 + 2 * len(XY_GRID),
                    data={"direct": direct, "pivot": pivot, "table": table,
                          "routed": routed, "hyps": hyps})

    @staticmethod
    def check(ctx: dict, inputs: Path, out: Path, p: Pass,
              expect: dict) -> tuple[int, list[str]]:
        failures, checks = [], 0
        for d in XY_GRID:
            checks += 3
            entry = p.data["table"].entries.get(d)
            if entry is None or entry.strategy != translator_mod.PivotVia("en"):
                failures.append(f"{d}: not routed via the en pivot")
            if not p.data["direct"].scores[d].score < 100.0:
                failures.append(f"{d}: direct dev BLEU is not below 100")
            if p.data["routed"][d].score != 100.0 or p.data["hyps"][d] != ctx["devtest"][d][1]:
                failures.append(f"{d}: routed devtest is not exact (BLEU "
                                f"{p.data['routed'][d].score})")
        return checks, failures

    @staticmethod
    def digest(p: Pass, out: Path) -> str:
        rows = [f"{d}\t{type(p.data['table'].entries[d].strategy).__name__}"
                f"\t{p.data['direct'].scores[d].score!r}\t{p.data['pivot'].scores[d].score!r}"
                f"\t{p.data['routed'][d].score!r}" for d in XY_GRID]
        return _hash_lines(rows)


WORKLOADS = {"clean": Clean, "augment": Augment, "sample": Sample, "route": Route}

