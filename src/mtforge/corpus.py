"""Corpus domain types, manifest ingestion, and streaming pair readers.

File formats:
  * Manifest: one shard per line, ``path<TAB>src<TAB>tgt<TAB>origin<TAB>count``.
    ``#`` starts a comment, blank lines are ignored. Shard paths are resolved
    relative to the manifest's own directory so manifests stay relocatable.
  * Shard: one pair per line, ``source<TAB>target``, UTF-8, LF or CRLF endings.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DuplicateShardPathError, MalformedLineError, ManifestError

_LANG_RE = re.compile(r"[a-z]{2,8}\Z")
_ROWS_PER_WRITE = 512
STRAY_CR = "carriage return outside a CRLF line end"


def check_lang_code(code: str) -> str:
    """Validate a language code (2-8 lowercase ASCII letters)."""
    if not _LANG_RE.fullmatch(code):
        raise ValueError(f"invalid language code: {code!r}")
    return code


@dataclass(frozen=True, order=True)
class Direction:
    """An ordered (source language, target language) translation pair."""

    src: str
    tgt: str

    def __post_init__(self):
        check_lang_code(self.src)
        check_lang_code(self.tgt)
        if self.src == self.tgt:
            raise ValueError(f"direction must have distinct sides: {self.src}")

    def __str__(self) -> str:
        return f"{self.src}-{self.tgt}"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        """Parse ``src-tgt`` notation, e.g. ``hr-en``."""
        src, sep, tgt = text.partition("-")
        if not sep:
            raise ValueError(f"expected src-tgt direction, got {text!r}")
        return cls(src, tgt)

    def reversed(self) -> "Direction":
        return Direction(self.tgt, self.src)


class OriginPool(enum.Enum):
    """Which of the three training pools a pair belongs to."""

    BITEXT = "bitext"
    BACK_TRANSLATION = "back_translation"
    DUAL_PSEUDO = "dual_pseudo"

    @classmethod
    def parse(cls, text: str) -> "OriginPool":
        try:
            return _ORIGIN_ALIASES[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown origin pool: {text!r}") from None


_ORIGIN_ALIASES = {
    "bitext": OriginPool.BITEXT,
    "back_translation": OriginPool.BACK_TRANSLATION,
    "bt": OriginPool.BACK_TRANSLATION,
    "dual_pseudo": OriginPool.DUAL_PSEUDO,
    "dp": OriginPool.DUAL_PSEUDO,
}


@dataclass(frozen=True)
class SentencePair:
    """One aligned sentence pair with its provenance.

    Construction does not require the sides to be non-empty; the filter
    pipeline establishes that invariant (empty pairs are rejected there,
    not at read time).
    """

    source: str
    target: str
    direction: Direction
    origin: OriginPool
    shard_id: str
    line_no: int


@dataclass(frozen=True)
class ShardEntry:
    """One manifest row. ``raw_path`` is the path as written in the manifest
    and doubles as the shard id; ``path`` is resolved for I/O."""

    raw_path: str
    path: Path
    direction: Direction
    origin: OriginPool
    declared_line_count: int

    @property
    def shard_id(self) -> str:
        return self.raw_path


@dataclass
class CorpusManifest:
    """Ordered list of corpus shards plus the directory paths resolve against."""

    shards: list[ShardEntry] = field(default_factory=list)
    root: Path = Path(".")

    def shard(self, shard_id: str) -> ShardEntry:
        for entry in self.shards:
            if entry.shard_id == shard_id:
                return entry
        raise KeyError(f"no shard {shard_id!r} in manifest")

    def by_origin(self, origin: OriginPool) -> list[ShardEntry]:
        return [s for s in self.shards if s.origin == origin]


@dataclass
class LanguageStats:
    """Per-language sentence counts and per-direction pair counts.

    A pair counts once for each side, so a (hr, en) pair increments both
    the hr and the en totals.
    """

    per_language: dict[str, int] = field(default_factory=dict)
    per_direction: dict[Direction, int] = field(default_factory=dict)

    @property
    def total_pairs(self) -> int:
        return sum(self.per_direction.values())


def load_manifest(path: str | Path, verify: bool = False) -> CorpusManifest:
    """Read a manifest file.

    Declared line counts are advisory; with ``verify=True`` each shard is
    recounted and a mismatch raises ManifestError.
    """
    path = Path(path)
    root = path.parent
    shards: list[ShardEntry] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ManifestError(path, line_no, f"expected 5 fields, got {len(fields)}")
            raw, src, tgt, origin_text, count_text = fields
            if raw in seen:
                raise DuplicateShardPathError(path, line_no, f"duplicate shard path {raw!r}")
            seen.add(raw)
            try:
                direction = Direction(src, tgt)
                origin = OriginPool.parse(origin_text)
                count = int(count_text)
                if count < 0:
                    raise ValueError("negative line count")
            except ValueError as exc:
                raise ManifestError(path, line_no, str(exc)) from None
            shards.append(ShardEntry(raw, root / raw, direction, origin, count))
    manifest = CorpusManifest(shards, root)
    if verify:
        for entry in manifest.shards:
            actual = count_lines(entry.path)
            if actual != entry.declared_line_count:
                raise ManifestError(
                    path, 0,
                    f"shard {entry.raw_path}: declared {entry.declared_line_count} "
                    f"lines but found {actual}",
                )
    return manifest


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for entry in manifest.shards:
            fh.write(
                f"{entry.raw_path}\t{entry.direction.src}\t{entry.direction.tgt}"
                f"\t{entry.origin.value}\t{entry.declared_line_count}\n"
            )


def count_lines(path: Path) -> int:
    """Lines split at ``\\n``; a last line without one counts too."""
    n = 0
    last = b"\n"
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
            last = chunk[-1:]
    return n + (last != b"\n")


def read_pairs(entry: ShardEntry) -> Iterator[SentencePair]:
    """Stream the pairs of one shard in file order.

    Yields lazily, so memory stays bounded regardless of shard size. A line
    ends at ``\\n`` or ``\\r\\n`` and the last may have no end, so lines are
    the ones ``count_lines`` counts. Raises MalformedLineError for any other
    ``\\r`` and for any line without exactly one tab.
    """
    with entry.path.open(encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")
            if "\r" in line:
                raise MalformedLineError(entry.shard_id, line_no, STRAY_CR)
            if line.count("\t") != 1:
                raise MalformedLineError(entry.shard_id, line_no)
            source, target = line.split("\t")
            yield SentencePair(source, target, entry.direction, entry.origin,
                               entry.shard_id, line_no)


def iter_all_pairs(manifest: CorpusManifest) -> Iterator[SentencePair]:
    """Stream every pair of every shard, in manifest order."""
    for entry in manifest.shards:
        yield from read_pairs(entry)


def corpus_stats(manifest: CorpusManifest) -> LanguageStats:
    """Count lines per direction and per language across all shards.

    Counts are exact (shards are re-read); declared manifest counts are
    ignored. The result is independent of shard order in the manifest.
    """
    per_direction: dict[Direction, int] = {}
    for entry in manifest.shards:
        n = count_lines(entry.path)
        per_direction[entry.direction] = per_direction.get(entry.direction, 0) + n
    per_language: dict[str, int] = {}
    for direction, n in per_direction.items():
        per_language[direction.src] = per_language.get(direction.src, 0) + n
        per_language[direction.tgt] = per_language.get(direction.tgt, 0) + n
    return LanguageStats(
        per_language=dict(sorted(per_language.items())),
        per_direction=dict(sorted(per_direction.items())),
    )


def write_shard(path: str | Path, rows: Iterable[tuple[str, str]]) -> int:
    """Write ``source<TAB>target`` lines; returns the number written.

    Rows are formatted and written ``_ROWS_PER_WRITE`` at a time, which
    saves the call overhead of one ``write`` per row; a larger batch only
    adds memory.
    """
    n = 0
    rows = iter(rows)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        while batch := list(islice(rows, _ROWS_PER_WRITE)):
            fh.write("".join([f"{source}\t{target}\n" for source, target in batch]))
            n += len(batch)
    return n
