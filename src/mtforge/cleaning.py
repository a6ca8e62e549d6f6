"""Corpus cleaning: the filter ladder, language tagging, token truncation,
and a seeded external-memory shuffle.

``apply_filters`` returns the kept pair, or the RejectReason of the first
check that fails in this fixed order, so rejection reasons are deterministic:
Empty -> BadLangId -> TooLong -> ContainsUnk -> WrongScript -> RatioExceeded.
Word limits apply to whitespace-separated words; the ratio and truncation
limits apply to subword tokens. The ratio is checked before truncation, on
token counts (``SubwordTokenizer.count``); only a side over ``max_tokens``
is tokenized, to be cut.
"""

from __future__ import annotations

import enum
import math
import os
import random
import tempfile
import unicodedata
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Mapping

from .corpus import (CorpusManifest, Outputs, SentencePair, ShardEntry, check_lang_code,
                     check_tabs, count_lines, iter_line_chunks, read_lines, read_pairs,
                     write_manifest, write_shard)
from .errors import AlreadyTaggedError, LengthMismatchError, MTForgeError
from .subword import SubwordTokenizer

_PAIRS_PER_WRITE = 4096   # pairs that filter_corpus filters per append of their rows
_LINES_PER_CHUNK = 100_000   # lines per shuffle_dataset chunk, and held before a flush
# ISO 15924-ish names -> Unicode character-name prefixes.
_SCRIPT_PREFIXES = {
    "cyrl": "CYRILLIC", "cyrillic": "CYRILLIC",
    "latn": "LATIN", "latin": "LATIN",
    "grek": "GREEK", "greek": "GREEK",
    "arab": "ARABIC", "arabic": "ARABIC",
    "deva": "DEVANAGARI", "devanagari": "DEVANAGARI",
    "taml": "TAMIL", "tamil": "TAMIL",
    "hang": "HANGUL", "hangul": "HANGUL",
}


@dataclass
class FilterConfig:
    max_words: int = 1024
    max_tokens: int = 512
    length_ratio_limit: float = 3.0
    unk_token: str = "[UNK]"
    script_rules: Mapping[str, str] = field(default_factory=dict)
    langid_required: bool = False

    def __post_init__(self):
        if self.max_words < 1 or self.max_tokens < 1:
            raise ValueError("max_words and max_tokens must be >= 1")
        if not math.isfinite(self.length_ratio_limit) or self.length_ratio_limit <= 1:
            raise ValueError("length_ratio_limit must be finite and > 1")
        for lang in self.script_rules:
            check_lang_code(lang)


class RejectReason(enum.Enum):
    EMPTY = "Empty"
    BAD_LANGID = "BadLangId"
    TOO_LONG = "TooLong"
    CONTAINS_UNK = "ContainsUnk"
    WRONG_SCRIPT = "WrongScript"
    RATIO_EXCEEDED = "RatioExceeded"


def _script_prefix(name: str) -> str:
    return _SCRIPT_PREFIXES.get(name.strip().lower(), name.strip().upper())


def _majority_outside_script(text: str, script: str) -> bool:
    """True when more than half of the alphabetic characters are outside the
    required script. The majority rule tolerates quoted names and loanwords."""
    prefix = _script_prefix(script)
    letters = inside = 0
    for ch in text:
        if not ch.isalpha():
            continue
        letters += 1
        if unicodedata.name(ch, "").startswith(prefix):
            inside += 1
    return letters > 0 and inside * 2 < letters


def apply_filters(
    pair: SentencePair,
    cfg: FilterConfig,
    tokenizer: SubwordTokenizer,
    langid: tuple[str, str] | None = None,
) -> SentencePair | RejectReason:
    """Return the pair kept by the filter ladder, or the reason it is rejected.

    ``langid`` is an externally supplied (source, target) language verdict;
    the toolkit itself does no language identification. A kept pair with no
    side over ``cfg.max_tokens`` tokens is returned as it is, the same
    object; any other comes back as a new pair truncated to
    ``cfg.max_tokens`` per side but otherwise unchanged. A pair whose
    truncation would leave a side blank is rejected as TooLong.
    """
    if not pair.source.strip() or not pair.target.strip():
        return RejectReason.EMPTY

    if langid is None:
        if cfg.langid_required:
            return RejectReason.BAD_LANGID
    elif langid != (pair.direction.src, pair.direction.tgt):
        return RejectReason.BAD_LANGID

    src_words = pair.source.split()
    tgt_words = pair.target.split()
    if len(src_words) > cfg.max_words or len(tgt_words) > cfg.max_words:
        return RejectReason.TOO_LONG

    if cfg.unk_token in src_words or cfg.unk_token in tgt_words:
        return RejectReason.CONTAINS_UNK

    if cfg.script_rules:
        for text, lang in ((pair.source, pair.direction.src),
                           (pair.target, pair.direction.tgt)):
            script = cfg.script_rules.get(lang)
            if script and _majority_outside_script(text, script):
                return RejectReason.WRONG_SCRIPT

    n_src, n_tgt = tokenizer.count(pair.source), tokenizer.count(pair.target)
    if max(n_src, n_tgt) / min(n_src, n_tgt) > cfg.length_ratio_limit:
        return RejectReason.RATIO_EXCEEDED
    if n_src <= cfg.max_tokens and n_tgt <= cfg.max_tokens:
        return pair

    source, target = pair.source, pair.target   # only a side over the limit is tokenized
    if n_src > cfg.max_tokens:
        source = truncate_tokens(source, tokenizer, cfg.max_tokens)
    if n_tgt > cfg.max_tokens:
        target = truncate_tokens(target, tokenizer, cfg.max_tokens)
    if not source.strip() or not target.strip():
        # The cut kept nothing but whitespace (e.g. it backed off past
        # combining marks to zero tokens): no non-blank prefix that ends on
        # a grapheme boundary fits in max_tokens.
        return RejectReason.TOO_LONG
    return pair._replace(source=source, target=target)


def language_tag(direction) -> str:
    """The tag prefixed to a source sentence: the *target* language, which is
    what actually encodes the translation direction for a shared encoder."""
    return f"__{direction.tgt}__"


def prefix_language_tag(pair: SentencePair) -> SentencePair:
    """Prefix the source with the target-language tag. Tagging twice raises."""
    head = pair.source.split(" ", 1)[0]
    if len(head) > 4 and head.startswith("__") and head.endswith("__"):
        raise AlreadyTaggedError(f"source already tagged: {head}")
    return pair._replace(source=f"{language_tag(pair.direction)} {pair.source}")


def _starts_with_combining(token: str) -> bool:
    return bool(token) and unicodedata.combining(token[0]) > 0


def truncate_tokens(text: str, tokenizer: SubwordTokenizer, max_tokens: int) -> str:
    """Keep at most ``max_tokens`` subword tokens and detokenize.

    Text already within the limit is returned unchanged (byte-identical).
    The cut backs off past combining marks so no grapheme is split.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    tokens = tokenizer.tokenize(text)
    if len(tokens) <= max_tokens:
        return text
    cut = max_tokens
    while 0 < cut < len(tokens) and _starts_with_combining(tokens[cut]):
        cut -= 1
    return tokenizer.detokenize(tokens[:cut])


def shuffle_dataset(manifest: CorpusManifest, seed: int, out_path: str | Path) -> int:
    """Shuffle every line of every shard into one output file.

    External-memory: a seeded RNG scatters the lines into temporary chunk
    files, then each chunk is shuffled in memory and appended to the
    output. The scatter holds each chunk's lines in a list and appends every
    list to its chunk file once about ``_LINES_PER_CHUNK`` lines are held, so
    no more than one file is open at a time, at the price of up to about
    n_chunks² appends. The lines still held when the scatter ends are not
    written out: each chunk is its file's lines, if any were appended,
    followed by its held list. Peak RAM is thus the held lines (about
    ``_LINES_PER_CHUNK``) plus one chunk, not the corpus size. Same seed,
    same inputs -> byte-identical output.
    Returns the line count. Lines are those of ``iter_line_chunks``,
    written with ``\\n`` ends. An ``out_path`` that is the manifest file or
    one of its shards raises MTForgeError (``corpus.Outputs``) before
    anything is read.
    """
    rng = random.Random(seed)
    out_path = Outputs(manifest.files()).claim(out_path)

    total = sum(count_lines(entry.path) for entry in manifest.shards)
    n_chunks = max(1, -(-total // _LINES_PER_CHUNK))

    with tempfile.TemporaryDirectory(prefix="mtforge-shuffle-") as tmp:
        chunks = [(Path(tmp) / f"chunk{i:05d}", []) for i in range(n_chunks)]
        held = 0
        flushed = False
        for entry in manifest.shards:
            for shard_lines in iter_line_chunks(entry.path, entry.shard_id):
                for line in shard_lines:
                    chunks[rng.randrange(n_chunks)][1].append(line)
                held += len(shard_lines)
                if held >= _LINES_PER_CHUNK:
                    _append_chunks(chunks)
                    held = 0
                    flushed = True
        written = write_shard(out_path, ())
        for path, held_lines in chunks:
            lines = read_lines(path) + held_lines if flushed else held_lines
            if lines:
                rng.shuffle(lines)
                written += write_shard(out_path, [lines], append=True)
    return written


def _append_chunks(chunks: list[tuple[Path, list[str]]]) -> None:
    """Append each chunk's held lines to its file, then empty the list."""
    for path, lines in chunks:
        write_shard(path, [lines], append=True)
        lines.clear()


def filter_corpus(
    manifest: CorpusManifest,
    cfg: FilterConfig,
    tokenizer: SubwordTokenizer,
    out_dir: str | Path,
    rejects_dir: str | Path | None = None,
    langid_dir: str | Path | None = None,
) -> tuple[CorpusManifest, dict[str, int]]:
    """Filter every shard of a manifest into ``out_dir``.

    Writes one filtered shard per input shard, named by its basename or, if
    that is taken (``manifest.tsv`` always is), by ``corpus.Outputs.name``;
    an ``out_dir/manifest.tsv`` of the kept shards; and, when
    ``rejects_dir`` is given, per-shard reject files with a reason column.
    A ``rejects_dir`` that is ``out_dir`` (by ``os.path.samefile``, or by
    ``os.path.realpath`` while either does not exist), or an output file
    that is an input shard or the manifest file it was loaded from
    (``corpus.Outputs.claim``), raises MTForgeError before any directory
    or shard is made; a ``langid_dir`` that is missing or not a directory
    raises OSError, also before.
    Each batch of ``_PAIRS_PER_WRITE`` pairs is appended by ``write_shard``
    once filtered, so a bad shard line raises MalformedLineError after the
    earlier batches are written. Language-id verdicts come from
    ``langid_dir/<name>.langid`` sidecars (``src<TAB>tgt`` per shard line)
    when present, where ``<name>`` is the filtered shard's name in
    ``out_dir`` (``a.tsv``, or ``a.2.tsv`` for a second shard named
    ``a.tsv``); a sidecar line without exactly one tab, or a sidecar whose
    line count differs from its shard's, raises MalformedLineError or
    LengthMismatchError before that shard is filtered.

    Returns the filtered manifest and a counter of kept/rejected lines.
    """
    out_dir = Path(out_dir)
    rejects_dir = None if rejects_dir is None else Path(rejects_dir)
    if rejects_dir is not None and (
            os.path.samefile(out_dir, rejects_dir) if out_dir.exists() and rejects_dir.exists()
            else os.path.realpath(out_dir) == os.path.realpath(rejects_dir)):
        raise MTForgeError(f"the rejects directory {rejects_dir} is the output directory "
                           f"{out_dir}: reject rows would be appended to the kept shards")

    if langid_dir is not None:
        os.scandir(langid_dir).close()   # OSError unless it is a directory
    files = Outputs(manifest.files())
    out_files = [files.claim(out_dir / files.name(Path(e.raw_path).name)) for e in manifest.shards]
    rej_files = [files.claim(rejects_dir / p.name) if rejects_dir else None for p in out_files]
    manifest_path = files.claim(out_dir / "manifest.tsv")   # written last, so claimed last
    files.start(out_dir, rejects_dir)

    counts = {"kept": 0} | {f"rejected_{reason.value}": 0 for reason in RejectReason}

    entries: list[ShardEntry] = []
    for entry, out_file, rej_file in zip(manifest.shards, out_files, rej_files):
        verdicts = _shard_langid(langid_dir, out_file.name, entry) if langid_dir else None
        kept = 0
        for path in filter(None, (out_file, rej_file)):
            write_shard(path, ())   # start empty; batches are appended
        pairs = read_pairs(entry)
        while batch := list(islice(pairs, _PAIRS_PER_WRITE)):
            sources, targets = [], []
            rejected = ([], [], [])   # source, target, reason
            for pair in batch:
                langid = verdicts[pair.line_no - 1] if verdicts is not None else None
                result = apply_filters(pair, cfg, tokenizer, langid)
                if type(result) is RejectReason:
                    reason = result.value
                    counts[f"rejected_{reason}"] += 1
                    rejected[0].append(pair.source)
                    rejected[1].append(pair.target)
                    rejected[2].append(reason)
                else:
                    sources.append(result.source)
                    targets.append(result.target)
            kept += write_shard(out_file, (sources, targets), append=True)
            if rej_file is not None:
                write_shard(rej_file, rejected, append=True)
        counts["kept"] += kept
        entries.append(ShardEntry(out_file.name, out_file, entry.direction, entry.origin, kept))

    filtered = CorpusManifest(entries)
    write_manifest(filtered, manifest_path)
    return filtered, counts


def _shard_langid(langid_dir, name: str, entry) -> list[tuple[str, str]] | None:
    sidecar = Path(langid_dir) / f"{name}.langid"
    if not sidecar.exists():
        return None
    lines = read_lines(sidecar)
    check_tabs(lines, 1, sidecar)
    shard_lines = count_lines(entry.path)
    if len(lines) != shard_lines:
        raise LengthMismatchError(
            f"{sidecar}: {len(lines)} langid lines, but shard {entry.path} "
            f"has {shard_lines} lines")
    return [line.partition("\t")[::2] for line in lines]
