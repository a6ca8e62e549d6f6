"""Corpus domain types, manifest ingestion, streaming pair readers, the TSV
table reader and writer that every table format and report goes through,
and ``write_shard``, through which every text file is written.

File formats:
  * Manifest: a table of ``path<TAB>src<TAB>tgt<TAB>origin<TAB>count`` rows.
    Shard paths are resolved relative to the manifest's own directory so
    manifests stay relocatable.
  * Shard: one pair per line, ``source<TAB>target``, UTF-8, LF or CRLF endings.
"""

from __future__ import annotations

import enum
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import MalformedLineError, MTForgeError, TableError

_LANG_RE = re.compile(r"[a-z]{2,8}\Z")
_ROWS_PER_WRITE = 512
_BYTES_PER_READ = 1 << 18
STRAY_CR = "carriage return outside a CRLF line end"
ONE_TAB = "expected exactly one tab separator"


def check_lang_code(code: str) -> str:
    """Validate a language code (2-8 lowercase ASCII letters)."""
    if not _LANG_RE.fullmatch(code):
        raise ValueError(f"invalid language code: {code!r}")
    return code


def finite_float(text: str) -> float:
    """Parse a number field of a table; NaN and the infinities are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


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


class OriginPool(enum.Enum):
    """Which of the three training pools a pair belongs to."""

    BITEXT = "bitext"
    BACK_TRANSLATION = "back_translation"
    DUAL_PSEUDO = "dual_pseudo"

    # Hashed in C, by identity, instead of by ``Enum.__hash__``'s Python-level
    # ``hash(self._name_)``: the scheduler hashes a pool for every batch
    # composition key. This agrees with ``==``, which for an Enum is
    # identity, because each member is a singleton: pickle, copy and
    # deepcopy all return the same member. No code iterates a set of pools,
    # so no output order depends on this hash.
    __hash__ = object.__hash__

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


class SentencePair(NamedTuple):
    """One aligned sentence pair with its provenance.

    A named tuple: immutable, hashable, and it compares equal to a plain
    tuple of its six fields, iterates over them and orders like a tuple.
    Assigning a field raises ``AttributeError``; derive a changed pair with
    ``pair._replace(...)``, not ``dataclasses.replace``.

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
    """Ordered list of corpus shards, and the manifest file it was read from
    (None when built in code), which a command must not write over."""

    shards: list[ShardEntry] = field(default_factory=list)
    path: Path | None = field(default=None, compare=False)

    def files(self) -> list[Path | None]:
        """The manifest file (None when built in code) and each shard: ``Outputs``' inputs."""
        return [self.path, *(e.path for e in self.shards)]

    def shard(self, shard_id: str) -> ShardEntry:
        for entry in self.shards:
            if entry.shard_id == shard_id:
                return entry
        raise KeyError(f"no shard {shard_id!r} in manifest")


@dataclass
class LanguageStats:
    """Per-language sentence counts and per-direction pair counts.

    A pair counts once for each side, so a (hr, en) pair increments both
    the hr and the en totals.
    """

    per_language: dict[str, int] = field(default_factory=dict)
    per_direction: dict[Direction, int] = field(default_factory=dict)


def read_table(path: str | Path, arity: int, parse: Callable[..., object]) -> list:
    """``parse(*fields)`` of every row of a TSV table, in file order.

    Lines are those of ``iter_line_chunks``, so a line that breaks the line
    rule raises MalformedLineError at ``path``. Blank lines and lines whose
    first non-blank character is ``#`` are skipped; every other line must
    have ``arity`` tab-separated fields. A ValueError on a row, from these
    checks or from ``parse``, becomes ``TableError(path, line_no, reason)``.
    """
    rows = []
    for line_no, line in enumerate(chain.from_iterable(iter_line_chunks(path)), start=1):
        try:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != arity:
                raise ValueError(f"expected {arity} fields, got {len(fields)}")
            rows.append(parse(*fields))
        except ValueError as exc:
            raise TableError(path, line_no, str(exc)) from None
    return rows


def write_table(path: str | Path, rows: Iterable[Iterable[object]],
                header: Iterable[str] | None = None) -> None:
    """Write each row as its fields (through ``str``) joined by tabs, after a
    ``# col<TAB>...`` line when ``header`` names the columns.

    Raises TableError, before the file is opened, for a row that would not
    read back as written: a field holding a tab or a line break, or a row
    that ``read_table`` would skip as blank or as a comment.
    """
    lines = [] if header is None else ["# " + "\t".join(header)]
    for row in rows:
        fields = list(map(str, row))
        line = "\t".join(fields)
        if (line.count("\t") != len(fields) - 1 or "\n" in line or "\r" in line
                or line.lstrip()[:1] in ("", "#")):   # read_table would skip it
            raise TableError(path, len(lines) + 1,
                             f"row would not read back as written: {fields!r}")
        lines.append(line)
    write_shard(path, [lines])


def line_text(data: bytes) -> str | None:
    """``data`` decoded, or None when it is not UTF-8 or holds a ``\\r``
    outside a ``\\r\\n``: the check of ``decode_lines`` without its split."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    return text if b"\r" not in data or data.count(b"\r") == data.count(b"\r\n") else None


def decode_lines(data: bytes, name, line_no: int = 0) -> list[str]:
    """The lines of ``data``, whole lines of UTF-8 text each ended by ``\\n``
    or ``\\r\\n`` but the last, which may be unended: the one line rule of
    every text reader and of the ``exec:`` protocol. Numbering from
    ``line_no + 1``, the first line that holds any other ``\\r``, or bytes
    that are not UTF-8, raises MalformedLineError(name, its number, reason).
    """
    if (text := line_text(data)) is not None:
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        return lines
    # Walk to the first bad line; a \n byte is never part of a multi-byte character.
    *ended, last = data.split(b"\n")
    for n, line in enumerate([line.removesuffix(b"\r") for line in ended] + [last], line_no + 1):
        if b"\r" in line:
            raise MalformedLineError(name, n, STRAY_CR)
        try:
            line.decode()
        except UnicodeDecodeError as exc:
            raise MalformedLineError(
                name, n, f"not UTF-8 at byte {exc.start + 1} ({exc.reason})") from None
    raise AssertionError("decode_lines found no bad line")


def iter_line_chunks(path: str | Path, name=None) -> Iterator[list[str]]:
    """The lines of a text file by ``decode_lines``, one non-empty list per
    read of ``_BYTES_PER_READ`` bytes that ends a line. A bad line raises
    MalformedLineError at ``name`` (default ``path``) after the lines before
    it, so a reader with its own line checks still fails at the first bad
    line. A ``\\r`` that no ``\\n`` follows fails at the read that shows it.
    """
    name = path if name is None else name
    line_no = 0   # lines yielded so far
    rest = []     # the pieces of a line that no read has ended yet
    with Path(path).open("rb") as fh:
        while block := fh.read(_BYTES_PER_READ):
            if end := block.rfind(b"\n") + 1:
                rest.append(block[:end])
                try:
                    lines = decode_lines(b"".join(rest), name, line_no)
                except MalformedLineError as exc:
                    if good := exc.line_no - line_no - 1:   # yield the lines before it
                        *before, _ = b"".join(rest).split(b"\n", good)
                        yield decode_lines(b"\n".join(before) + b"\n", name, line_no)
                    raise
                rest = []
                line_no += len(lines)
                yield lines
                del lines   # the reader then holds the only reference during the next read
                block = block[end:]
            if block.find(b"\r", 0, -1) >= 0 or (rest and rest[-1].endswith(b"\r")):
                decode_lines(b"".join(rest) + block, name, line_no)   # raises: a stray \r
            if block:
                rest.append(block)
    if rest:
        yield decode_lines(b"".join(rest), name, line_no)


def check_tabs(lines: list[str], tabs: int, name, line_no: int = 0) -> None:
    """Raise MalformedLineError(name, its number) at the first of ``lines``,
    numbered from ``line_no + 1``, that does not hold exactly ``tabs`` tabs:
    1 for a pair line, 0 for a monolingual line. The count is one
    C-level pass over the lines.
    """
    counts = list(map(str.count, lines, repeat("\t")))
    if counts.count(tabs) != len(counts):
        bad = next(i for i, n in enumerate(counts, start=line_no + 1) if n != tabs)
        raise MalformedLineError(name, bad, ONE_TAB if tabs else "expected no tab")


def read_lines(path: str | Path) -> list[str]:
    """Every line of ``iter_line_chunks(path)``, in one list."""
    return list(chain.from_iterable(iter_line_chunks(path)))


def load_manifest(path: str | Path, verify: bool = False) -> CorpusManifest:
    """Read a manifest file.

    Declared line counts are advisory; with ``verify=True`` each shard's
    lines are recounted by the line rule of ``iter_line_chunks`` as its row
    is read, and a mismatch or a bad shard line raises TableError at the
    row's line.
    """
    path = Path(path)
    seen: set[str] = set()

    def shard(raw, src, tgt, origin_text, count_text) -> ShardEntry:
        if raw in seen:
            raise ValueError(f"duplicate shard path {raw!r}")
        seen.add(raw)
        direction = Direction(src, tgt)
        origin = OriginPool.parse(origin_text)
        count = int(count_text)
        if count < 0:
            raise ValueError("negative line count")
        if verify and (actual := sum(map(len, iter_line_chunks(path.parent / raw, raw)))) != count:
            raise ValueError(f"shard {raw}: declared {count} lines but found {actual}")
        return ShardEntry(raw, path.parent / raw, direction, origin, count)

    return CorpusManifest(read_table(path, 5, shard), path)


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    write_table(path, ((e.raw_path, e.direction.src, e.direction.tgt, e.origin.value,
                        e.declared_line_count) for e in manifest.shards))


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

    Reads a chunk of lines at a time (``iter_line_chunks``), so memory stays
    bounded. Raises MalformedLineError, named by the shard id, at the first
    line holding a stray ``\\r`` or not exactly one tab.

    Each pair is made by ``tuple.__new__`` in one C-level call, without the
    named tuple's Python-level ``__new__``; the fields are the same.
    """
    new, direction, origin, shard_id = tuple.__new__, entry.direction, entry.origin, entry.shard_id
    line_no = 0
    for lines in iter_line_chunks(entry.path, shard_id):
        check_tabs(lines, 1, shard_id, line_no)
        for line_no, line in enumerate(lines, line_no + 1):
            source, target = line.split("\t")
            yield new(SentencePair, (source, target, direction, origin, shard_id, line_no))
        del lines   # before the next chunk is read


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


def write_shard(path: str | Path, columns: Sequence[Sequence[str]],
                append: bool = False) -> int:
    """Write the rows that ``columns`` hold, one list or tuple of fields per
    field of a row, all of one length. Row ``i`` is ``columns[j][i]`` for
    each ``j``, joined by tabs and ended by ``\\n``. The rows go after the
    file's present lines when ``append`` is set; returns the row count, and
    no columns, ``()``, write none. Every text file is written here:
    shards, reject rows, plain lines (one column), tables and
    ``shuffle_dataset``'s scratch chunks and output.

    Columns of unequal lengths raise ValueError before the file is opened.
    Fields are not checked (a C-level count a batch slows ``augment`` by a
    tenth or more), so the caller's hold no ``\\n`` or ``\\r``, and no tab
    when there are two or more columns: they passed the line rule and
    ``check_tabs``, a column check, or were built in code.

    Rows are written ``_ROWS_PER_WRITE`` at a time. Each batch is one join
    over a flat list of separators into which each column's slice is
    assigned at its field's stride, so no Python call is made per row.
    Batches of 4,096 rows measured slower on ``augment``.
    """
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal lengths: {[len(c) for c in columns]}")
    step = 2 * len(columns)
    pattern = ["\t"] * (step - 1) + ["\n"]   # field, tab, ..., field, newline
    with Path(path).open("a" if append else "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, n, _ROWS_PER_WRITE):
            stop = min(start + _ROWS_PER_WRITE, n)
            flat = pattern * (stop - start)
            for j, column in enumerate(columns):
                flat[2 * j::step] = column[start:stop]
            fh.write("".join(flat))
    return n


class Outputs:
    """The files that one command writes, kept apart from the ``inputs`` it
    reads (None is none). The command claims each before its first write."""

    def __init__(self, inputs: Iterable[str | Path | None]):
        self._read: dict = {}   # the first path of each input file, by _file_id
        for path in map(Path, filter(None, inputs)):
            self._read.setdefault(_file_id(path), path)
        self._names = {"manifest.tsv"}
        self._dirs: dict[Path, None] = {}   # of the claimed files, in claim order

    def claim(self, path: str | Path) -> Path:
        """``path`` as a Path; MTForgeError naming both paths if it is an input
        file (by ``os.path.samefile``), which writing it would truncate."""
        path = Path(path)
        if (key := _file_id(path)) and key in self._read:
            raise MTForgeError(f"output {path} is the input {self._read[key]}: "
                               "writing it would truncate the input")
        self._dirs[path.parent] = None
        return path

    def name(self, name: str) -> str:
        """``name``, or if it is taken ``stem.N.suffix`` with the least free
        N >= 2 (``a.tsv``, ``a.2.tsv``); ``manifest.tsv`` is taken at first."""
        path, n = Path(name), 2
        while name in self._names:
            name, n = f"{path.stem}.{n}{path.suffix}", n + 1
        self._names.add(name)
        return name

    def start(self, *directories: Path | None) -> None:
        """Make the claimed files' directories, then ``directories``."""
        for directory in filter(None, [*self._dirs, *directories]):
            directory.mkdir(parents=True, exist_ok=True)


def _file_id(path: Path) -> tuple[int, int] | None:
    """The (device, inode) pair that ``os.path.samefile`` compares."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino
