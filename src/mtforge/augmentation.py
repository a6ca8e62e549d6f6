"""Data augmentation planners and the plan runner.

Three schemes, all producing tab-separated shards labeled with their origin
pool:

  * back-translation: monolingual English is translated to X; the English
    side is kept verbatim, giving X->en pairs (synthetic source, authentic
    target) and en->X pairs from the same pass.
  * dual-pseudo: the same English lines are translated to X and to Y; the
    (X, Y) columns are aligned through the shared English row.
  * triangulation: one side of an existing (X1, Y1) bitext is translated
    into a third language, yielding (X1, Y2) or (X2, Y1).

Each task names its corpus: the ``MonoCorpusRef`` or ``BitextCorpusRef``
it was planned from, whose ``sides`` are the languages of the input's
columns. All three put an input column beside translations of it, so
``run_plan`` runs them by one rule: each side of an output direction names
the input's own column in that language, or else a needed translation into
it. Planning reads no input line; it checks only that a monolingual input
exists and is not empty. ``run_plan`` does the translation and the rest of
the I/O. It streams each input one chunk of lines at a time, so its memory
does not grow with the input, and computes the needed directions from each
input side with one ``Translator.translate_many`` call per chunk, shared by
the tasks on that input. The cipher translator splits each line once for
all of them; a translator that implements only ``translate`` is called
once per chunk per direction (an ``exec:`` command is started that many
times). A translator must translate each sentence independently of the
others in the call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

from .corpus import (CorpusManifest, Direction, OriginPool, Outputs, ShardEntry, check_tabs,
                     iter_line_chunks, read_table, write_manifest, write_shard, write_table)
from .errors import MTForgeError, TableError
from .translator import DecodingConfig, Translator


class TaskKind(enum.Enum):
    BACK_TRANSLATION = "bt"
    DUAL_PSEUDO = "dual"
    TRIANGULATION = "tri"


@dataclass(frozen=True)
class MonoCorpusRef:
    """A monolingual corpus: one sentence per line."""

    path: Path
    lang: str

    @property
    def sides(self) -> tuple[str, ...]:
        return (self.lang,)


@dataclass(frozen=True)
class BitextCorpusRef:
    """A parallel corpus: ``source<TAB>target`` per line."""

    path: Path
    direction: Direction

    @property
    def sides(self) -> tuple[str, ...]:
        return self.direction.src, self.direction.tgt


@dataclass(frozen=True)
class TaskOutput:
    direction: Direction
    origin: OriginPool


@dataclass(frozen=True)
class AugmentationTask:
    """Translate the lines of ``corpus``, the input the task names, in the
    ``needed`` directions and write one shard per output."""

    kind: TaskKind
    corpus: MonoCorpusRef | BitextCorpusRef
    needed: tuple[Direction, ...]
    outputs: tuple[TaskOutput, ...]


@dataclass
class AugmentationPlan:
    """Tasks in run order, and the plan file they were read from (None when
    planned in code), which ``run_plan`` must not write over (``corpus.Outputs``)."""

    tasks: list[AugmentationTask]
    path: Path | None = field(default=None, compare=False)

    @property
    def needed_directions(self) -> set[Direction]:
        return {d for task in self.tasks for d in task.needed}

    def extend(self, other: "AugmentationPlan") -> "AugmentationPlan":
        return AugmentationPlan(self.tasks + other.tasks)


def _require_nonempty(ref: MonoCorpusRef) -> None:
    if not ref.path.exists() or ref.path.stat().st_size == 0:
        raise MTForgeError(f"monolingual corpus {ref.path} is missing or empty")


def _check_once(items: Sequence, what: str) -> None:
    """ValueError naming the first of ``items`` that an earlier one equals:
    a repeated task would write the same rows twice."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValueError(f"{what} {item} is given twice")
        seen.add(item)


def plan_backtranslation(mono: MonoCorpusRef, langs: Sequence[str]) -> AugmentationPlan:
    """One task per target language X: translate the monolingual side to X
    and emit both the X->en and en->X orientations from the single pass."""
    if mono.lang in langs:
        raise ValueError(f"target languages must exclude the monolingual side {mono.lang!r}")
    _check_once(langs, "target language")
    tasks = []
    if langs:
        _require_nonempty(mono)
    for lang in langs:
        tasks.append(AugmentationTask(
            kind=TaskKind.BACK_TRANSLATION,
            corpus=mono,
            needed=(Direction(mono.lang, lang),),
            outputs=(
                TaskOutput(Direction(lang, mono.lang), OriginPool.BACK_TRANSLATION),
                TaskOutput(Direction(mono.lang, lang), OriginPool.BACK_TRANSLATION),
            ),
        ))
    return AugmentationPlan(tasks)


def plan_dual_pseudo(mono: MonoCorpusRef, pairs: Sequence[Direction]) -> AugmentationPlan:
    """One task per (X, Y) direction; both sides are translations of the
    same monolingual line, so row i of the output aligns through row i of
    the input."""
    for d in pairs:
        if mono.lang in (d.src, d.tgt):
            raise MTForgeError(
                f"dual-pseudo pair {d} must not contain the pivot language {mono.lang!r}")
    _check_once(pairs, "dual-pseudo pair")
    tasks = []
    if pairs:
        _require_nonempty(mono)
    for d in pairs:
        tasks.append(AugmentationTask(
            kind=TaskKind.DUAL_PSEUDO,
            corpus=mono,
            needed=(Direction(mono.lang, d.src), Direction(mono.lang, d.tgt)),
            outputs=(TaskOutput(d, OriginPool.DUAL_PSEUDO),),
        ))
    return AugmentationPlan(tasks)


def all_ordered_pairs(langs: Sequence[str]) -> list[Direction]:
    """All K*(K-1) ordered directions over a language set; fewer than two
    languages, or a language given twice, raises ValueError."""
    if len(langs) < 2:
        raise ValueError(f"ordered pairs need at least two languages, got {len(langs)}")
    _check_once(langs, "language")
    return [Direction(a, b) for a in langs for b in langs if a != b]


def plan_triangulation(
    bitext: BitextCorpusRef,
    new_src: str | None = None,
    new_tgt: str | None = None,
) -> AugmentationPlan:
    """Extend an (X1, Y1) bitext with a third language on either side."""
    if new_src is None and new_tgt is None:
        raise MTForgeError("triangulation needs new_src and/or new_tgt")
    x1, y1 = bitext.direction.src, bitext.direction.tgt
    tasks = []
    if new_tgt is not None:
        if new_tgt in (x1, y1):
            raise ValueError(f"new target {new_tgt!r} collides with the bitext sides")
        tasks.append(AugmentationTask(
            kind=TaskKind.TRIANGULATION,
            corpus=bitext,
            needed=(Direction(y1, new_tgt),),
            outputs=(TaskOutput(Direction(x1, new_tgt), OriginPool.DUAL_PSEUDO),),
        ))
    if new_src is not None:
        if new_src in (x1, y1):
            raise ValueError(f"new source {new_src!r} collides with the bitext sides")
        tasks.append(AugmentationTask(
            kind=TaskKind.TRIANGULATION,
            corpus=bitext,
            needed=(Direction(x1, new_src),),
            outputs=(TaskOutput(Direction(new_src, y1), OriginPool.DUAL_PSEUDO),),
        ))
    return AugmentationPlan(tasks)


def _task_columns(task: AugmentationTask) -> list[tuple[str | Direction, str | Direction]]:
    """The keys of each output's two columns: a side of the output direction
    is keyed by its language when it names an input column, else by the
    needed direction into it. Raises ValueError saying why the task does not
    fit its kind, or which output side names neither; a plan file may pair
    any kind with any meta and directions."""
    tri = task.kind is TaskKind.TRIANGULATION
    if tri != isinstance(task.corpus, BitextCorpusRef):
        raise ValueError("needs a bitext input (dir=)" if tri
                         else "needs a monolingual input (lang=)")
    sides = task.corpus.sides
    needed = 2 if task.kind is TaskKind.DUAL_PSEUDO else 1
    if len(task.needed) != needed:
        raise ValueError(f"needs {needed} needed direction(s), got {len(task.needed)}")
    if task.kind is not TaskKind.BACK_TRANSLATION and len(task.outputs) != 1:
        raise ValueError(f"needs 1 output, got {len(task.outputs)}")
    if any(d.src not in sides for d in task.needed):
        raise ValueError(f"needs directions from {' or '.join(sides)}")
    keys = {d.tgt: d for d in task.needed} | dict(zip(sides, sides))
    for output in task.outputs:
        for lang in (output.direction.src, output.direction.tgt):
            if lang not in keys:
                raise ValueError(f"output {output.direction} names {lang}, which is neither "
                                 "a side of the input nor the target of a needed direction")
    return [(keys[o.direction.src], keys[o.direction.tgt]) for o in task.outputs]


def _check_translations(column: list[str] | None, direction: Direction,
                        lines: list[str], path: Path, line_no: int) -> None:
    """Raise TableError at ``path:line`` unless ``column`` holds one
    translation per line of the chunk, numbered from ``line_no + 1``, and
    none holds a tab or line break, which would misalign its shard row.
    The whole column is tested at once; it is walked only to find a bad
    translation."""
    if column is None or len(column) != len(lines):
        got = "no" if column is None else len(column)
        raise TableError(path, line_no + 1, f"the translator returned {got} {direction} "
                         f"translations for the {len(lines)} lines from here")
    joined = "".join(column)
    if "\t" in joined or "\n" in joined or "\r" in joined:
        bad = next(i for i, text in enumerate(column, start=line_no + 1)
                   if "\t" in text or "\n" in text or "\r" in text)
        raise TableError(path, bad, f"its {direction} translation holds a tab or line break")


def run_plan(
    plan: AugmentationPlan,
    translator: Translator,
    config: DecodingConfig | None,
    out_dir: str | Path,
) -> CorpusManifest:
    """Execute a plan: one shard per task output and, last,
    ``out_dir/manifest.tsv`` listing them.

    Each side of an output direction names a column: the input's own column
    in that language (a monolingual line, or a side of a bitext line), else
    the task's needed translation into it. Before writing anything, raises
    MTForgeError if the translator lacks a needed direction, naming the
    task if it does not fit its kind, an output side names neither kind of
    column or tasks on one input disagree on its meta, or naming both files
    if an output is an input file or the plan file (``corpus.Outputs.claim``).

    Each input is read one chunk of lines at a time (``iter_line_chunks``)
    and split into its side columns once. One ``translator.translate_many``
    call per side computes the needed directions from it, shared by the
    input's tasks, and one ``write_shard`` call per output appends its two
    columns, reopening the shard. So memory does not grow with the input,
    no descriptor is held per shard, and the translator must translate
    each sentence independently of the others in the call.

    Input lines follow the line rule of ``iter_line_chunks``. A bitext line
    must hold exactly one tab and a monolingual line none, and a translated
    column one translation per line, none with a tab, ``\n`` or ``\r``, as a
    shard row would otherwise be misaligned. A chunk that breaks this raises
    MalformedLineError, or TableError naming the direction (and both counts
    when the size is wrong), at the input's ``path:line`` before its rows
    are written but after those of earlier chunks: the shards may then be
    partial, and no manifest is written.
    """
    missing = sorted(plan.needed_directions - translator.supported_directions)
    if missing:
        raise MTForgeError("translator does not support: " + ", ".join(str(d) for d in missing))

    # Name each task's shards in plan order. Per input path, note the number
    # and corpus of its first task, the needed directions in plan order, and
    # each output's column keys beside its shard.
    out_dir = Path(out_dir)
    files = Outputs([plan.path] + [task.corpus.path for task in plan.tasks])
    shards = [[out_dir / files.name(f"{task.kind.value}.{output.direction}.tsv")
               for output in task.outputs] for task in plan.tasks]
    inputs: dict[Path, tuple[int, MonoCorpusRef | BitextCorpusRef, dict, list]] = {}
    for number, (task, paths) in enumerate(zip(plan.tasks, shards), start=1):
        first, corpus, needed, outputs = inputs.setdefault(
            task.corpus.path, (number, task.corpus, {}, []))
        try:
            outputs += zip(_task_columns(task), paths)
            if task.corpus != corpus:
                raise ValueError(f"its input meta differs from that of plan task {first}")
        except ValueError as exc:
            raise MTForgeError(
                f"plan task {number} ({task.kind.value} {task.corpus.path}): {exc}") from None
        needed.update(dict.fromkeys(task.needed))

    for path in chain(*shards, [out_dir / "manifest.tsv"]):   # written last, so claimed last
        files.claim(path)
    files.start()
    counts = {path: write_shard(path, ()) for paths in shards for path in paths}

    for input_path, (_, corpus, needed, outputs) in inputs.items():
        sides = corpus.sides
        passes = [(side, ds) for side in sides if (ds := [d for d in needed if d.src == side])]
        line_no = 0
        for lines in iter_line_chunks(input_path):
            check_tabs(lines, len(sides) - 1, input_path, line_no)
            columns: dict[str | Direction, Sequence[str]] = dict(zip(
                sides, zip(*map(str.split, lines, repeat("\t"))) if len(sides) > 1 else [lines]))
            for side, directions in passes:
                columns |= translator.translate_many(columns[side], directions, config)
                for d in directions:
                    _check_translations(columns.get(d), d, lines, input_path, line_no)
            for (src, tgt), path in outputs:
                counts[path] += write_shard(path, (columns[src], columns[tgt]), append=True)
            line_no += len(lines)
            del lines, columns   # before the next chunk is read and translated

    manifest = CorpusManifest(
        [ShardEntry(path.name, path, output.direction, output.origin, counts[path])
         for task, paths in zip(plan.tasks, shards)
         for output, path in zip(task.outputs, paths)])
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


# --- plan file serialization (TSV, one task per line) -----------------------
#
# Input paths are stored as given and, when loaded, stay relative to the
# working directory, not to the plan file.

def save_plan(plan: AugmentationPlan, path: str | Path) -> None:
    write_table(path, (
        (task.kind.value, task.corpus.path,
         f"lang={task.corpus.lang}" if isinstance(task.corpus, MonoCorpusRef)
         else f"dir={task.corpus.direction}",
         ",".join(str(d) for d in task.needed),
         ",".join(f"{o.direction}:{o.origin.value}" for o in task.outputs))
        for task in plan.tasks
    ), header="kind input_path input_meta needed outputs".split())


def _task(kind_text, input_path, meta, needed_text, outputs_text) -> AugmentationTask:
    kind = TaskKind(kind_text)
    if meta.startswith("lang="):
        corpus = MonoCorpusRef(Path(input_path), meta[5:])
    elif meta.startswith("dir="):
        corpus = BitextCorpusRef(Path(input_path), Direction.parse(meta[4:]))
    else:
        raise ValueError(f"input_meta must start with lang= or dir=, got {meta!r}")
    needed = tuple(Direction.parse(d) for d in needed_text.split(","))
    outputs = []
    for chunk in outputs_text.split(","):
        d, _, origin = chunk.partition(":")
        outputs.append(TaskOutput(Direction.parse(d), OriginPool.parse(origin)))
    return AugmentationTask(kind, corpus, needed, tuple(outputs))


def load_plan(path: str | Path) -> AugmentationPlan:
    """The plan in a plan file. A task equal to an earlier one, which would
    write the same rows twice, raises TableError at its line."""
    numbers: dict[AugmentationTask, int] = {}

    def task(*fields) -> AugmentationTask:
        parsed = _task(*fields)
        if parsed in numbers:
            raise ValueError(f"plan task {len(numbers) + 1} ({parsed.kind.value} "
                             f"{parsed.corpus.path}) repeats plan task {numbers[parsed]}")
        numbers[parsed] = len(numbers) + 1
        return parsed

    return AugmentationPlan(read_table(path, 5, task), Path(path))
