"""The shared TSV table layer: ``read_table``/``write_table`` and every format
built on them (manifest, score matrix, routing table, augmentation plan,
schedule), plus the line rule that every text reader shares and the one
writer of every text file."""

import ast
import io
import re
import tempfile
import time
from itertools import pairwise
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtforge
from mtforge import corpus, sampling
from mtforge.augmentation import (
    AugmentationPlan,
    AugmentationTask,
    BitextCorpusRef,
    MonoCorpusRef,
    TaskKind,
    TaskOutput,
    load_plan,
    save_plan,
)
from mtforge.cleaning import shuffle_dataset
from mtforge.corpus import (
    STRAY_CR,
    CorpusManifest,
    Direction,
    OriginPool,
    ShardEntry,
    count_lines,
    iter_line_chunks,
    load_manifest,
    read_lines,
    read_pairs,
    read_table,
    write_manifest,
    write_table,
)
from mtforge.curriculum import (
    RATIO_LADDER,
    AllDirections,
    Clean,
    Noisy,
    SelectedDirections,
    StageDescriptor,
    load_schedule,
)
from mtforge.errors import MalformedLineError, TableError
from mtforge.evaluation import BleuScore, ScoreMatrix
from mtforge.routing import RouteEntry, RoutingTable
from mtforge.sampling import MixtureWeights
from mtforge.translator import Direct, LineProtocolTranslator, PivotVia

_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# One good row per format, as its loader reads it.
GOOD_ROWS = {
    "manifest": "a.tsv\thr\ten\tbitext\t3",
    "scores": "hr\ten\t12.500000\t0.5\t0.4\t0.3\t0.2\t1.0\t10\t11",
    "routing": "hr\thu\tpivot\ten\t10.000000\t12.000000",
    "plan": "bt\tmono.txt\tlang=en\ten-hr\thr-en:back_translation",
    "schedule": "s1\tclean:2.0\tall\t0.6,0.2,0.2\t6\t6",
}
LOADERS = {
    "manifest": load_manifest,
    "scores": ScoreMatrix.load,
    "routing": RoutingTable.load,
    "plan": load_plan,
    "schedule": load_schedule,
}
# A row whose field count is right but whose value is not.
BAD_VALUES = {
    "manifest": "a.tsv\thr\ten\tbitext\tmany",
    "scores": "hr\ten\thigh\t0.5\t0.4\t0.3\t0.2\t1.0\t10\t11",
    "routing": "hr\thu\tpviot\ten\t10.000000\t12.000000",
    "plan": "bt\tmono.txt\tlang=en\ten-EN\thr-en:back_translation",
    "schedule": "s1\tclean:2.2\tall\t0.6,0.2,0.2\t6\t6",
}


def _bad_rows(fmt):
    good = GOOD_ROWS[fmt]
    return {
        "short": good.rsplit("\t", 1)[0],
        "bad_value": BAD_VALUES[fmt],
        # Text mode would split this row in two at the \r.
        "stray_cr": good.replace("\t", "\r\t", 1),
    }


@pytest.mark.parametrize("fmt", sorted(LOADERS))
@pytest.mark.parametrize("case", ["short", "bad_value", "stray_cr"])
def test_loader_errors_are_located(tmp_path, fmt, case):
    path = tmp_path / f"{fmt}.tsv"
    path.write_bytes(f"# columns\n\n{_bad_rows(fmt)[case]}\n".encode())
    with pytest.raises(TableError) as err:
        LOADERS[fmt](path)
    assert err.value.path == path and err.value.line_no == 3
    assert str(err.value).startswith(f"{path}:3: ")
    if case == "stray_cr":
        assert err.value.reason == STRAY_CR


@pytest.mark.parametrize("row, reason", [
    ("hr\ten\tnan\t0.5\t0.4\t0.3\t0.2\t1.0\t10\t11", "not a finite number"),
    ("hr\ten\t12.5\t0.5\tinf\t0.3\t0.2\t1.0\t10\t11", "not a finite number"),
    ("hr\ten\t12.5\t0.5\t0.4\t0.3\t0.2\t-inf\t10\t11", "not a finite number"),
    ("hr\ten\t12.5\t0.5\t0.4\t0.3\t0.2\t1.0\t-5\t-7", "negative length"),
])
def test_score_matrix_rejects_non_finite(tmp_path, row, reason):
    path = tmp_path / "scores.tsv"
    path.write_text(f"{GOOD_ROWS['scores'].replace('hr', 'hu')}\n{row}\n", encoding="utf-8")
    with pytest.raises(TableError) as err:
        ScoreMatrix.load(path)
    assert (err.value.path, err.value.line_no) == (path, 2)
    assert reason in err.value.reason


@pytest.mark.parametrize("direct, pivot", [("nan", "12.0"), ("10.0", "inf"), ("-inf", "NaN")])
def test_routing_table_rejects_non_finite(tmp_path, direct, pivot):
    path = tmp_path / "routing.tsv"
    path.write_text(f"# header\nhr\thu\tdirect\ten\t{direct}\t{pivot}\n", encoding="utf-8")
    with pytest.raises(TableError) as err:
        RoutingTable.load(path)
    assert (err.value.path, err.value.line_no) == (path, 2)
    assert "not a finite number" in err.value.reason


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_loaders_share_one_line_policy(tmp_path, fmt):
    """CRLF ends, an indented comment, blank and whitespace-only lines and a
    last line without an end all read as LF text with those lines skipped."""
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_text(f"{GOOD_ROWS[fmt]}\n", encoding="utf-8")
    crlf.write_bytes(f"  # note\r\n\r\n \t \r\n{GOOD_ROWS[fmt]}".encode())
    loaded, expected = LOADERS[fmt](crlf), LOADERS[fmt](lf)
    if fmt == "manifest":
        loaded, expected = loaded.shards, expected.shards
    assert loaded == expected


def test_duplicate_shard_path_is_located(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.tsv\thr\ten\tbitext\t1\n# again\na.tsv\ten\thr\tbt\t1\n",
                    encoding="utf-8")
    with pytest.raises(TableError, match="duplicate shard path 'a.tsv'") as err:
        load_manifest(path)
    assert err.value.line_no == 3 and str(err.value).startswith(f"{path}:3: ")


def test_read_table_locates_errors_raised_by_parse(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("1\t2\n3\tx\n", encoding="utf-8")
    with pytest.raises(TableError, match=r":2: invalid literal") as err:
        read_table(path, 2, lambda a, b: (int(a), int(b)))
    assert type(err.value) is TableError


@pytest.mark.parametrize("row", [("a\tb", "x"), ("a\nb", "x"), ("a", "b\rc"), ("", ""),
                                 (" ", "#a"), ("#a", "x"), (" #a", "x")])
def test_write_table_rejects_rows_that_would_not_read_back(tmp_path, row):
    path = tmp_path / "t.tsv"
    with pytest.raises(TableError) as err:
        write_table(path, [("ok", "row"), row], header=("c1", "c2"))
    assert err.value.line_no == 3
    assert not path.exists()


def test_save_plan_rejects_tab_in_input_path(tmp_path):
    task = AugmentationTask(TaskKind.BACK_TRANSLATION, MonoCorpusRef(Path("mono\tcopy.txt"), "en"),
                            (Direction("en", "hr"),),
                            (TaskOutput(Direction("hr", "en"), OriginPool.BACK_TRANSLATION),))
    with pytest.raises(TableError, match="mono\\\\tcopy"):
        save_plan(AugmentationPlan([task]), tmp_path / "plan.tsv")


def test_write_table_header_and_fields(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, [(0, "hr", 1.5), ("x y", "#", "")], header=("a", "b", "c"))
    assert path.read_bytes() == "# a\tb\tc\n0\thr\t1.5\nx y\t#\t\n".encode()
    assert read_table(path, 3, lambda *f: f) == [("0", "hr", "1.5"), ("x y", "#", "")]


class TestReadLines:
    @pytest.mark.parametrize("data, lines", [
        (b"", []),
        (b"\n", [""]),
        (b"a\nb\n", ["a", "b"]),
        (b"a\r\nb", ["a", "b"]),
        (b"a\n\nb\r\n", ["a", "", "b"]),
        ("a b\x85c\x1cd\tz\n".encode(), ["a b\x85c\x1cd\tz"]),
    ])
    def test_line_ends(self, tmp_path, data, lines):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert read_lines(path) == lines

    @pytest.mark.parametrize("data, line_no", [
        (b"a\rb\n", 1), (b"a\r\nb\r\r\n", 2), (b"a\nb\nc\r", 3), (b"\r\n\r", 2),
    ])
    def test_stray_cr(self, tmp_path, data, line_no):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(MalformedLineError, match=f":{line_no}: {STRAY_CR}") as err:
            read_lines(path)
        assert err.value.line_no == line_no

    def test_not_utf8_past_the_first_read(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"s\tt\n" * 100_000 + b"\xff\tbad\n")
        got = []
        with pytest.raises(MalformedLineError, match="^a.tsv:100001: not UTF-8 at byte 1 "):
            for chunk in iter_line_chunks(path, "a.tsv"):
                got.extend(chunk)
        assert got == ["s\tt"] * 100_000

    def test_long_line_in_linear_time(self, tmp_path, monkeypatch):
        # The pieces of an unended line are joined once, when a read ends it.
        # Copying the line so far at each of these 8,192 reads takes seconds.
        path = tmp_path / "t.txt"
        path.write_bytes(b"x" * (2 << 20) + b"\ty\n")
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 256)
        start = time.perf_counter()
        assert read_lines(path) == ["x" * (2 << 20) + "\ty"]
        assert time.perf_counter() - start < 0.5

    def test_cr_line_ends_fail_at_the_first_read(self, tmp_path, monkeypatch):
        # No \n ever comes, so waiting for one would read the whole file.
        path = tmp_path / "t.txt"
        path.write_bytes(b"one line\r" * 200_000)
        reads = []

        class Reader(io.BufferedReader):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)
        monkeypatch.setattr(corpus, "Path", lambda p: SimpleNamespace(
            open=lambda mode: Reader(io.FileIO(p))))
        with pytest.raises(MalformedLineError, match=f"^t.txt:1: {STRAY_CR}$"):
            list(iter_line_chunks(path, "t.txt"))
        assert reads == [corpus._BYTES_PER_READ]

    def test_crlf_split_between_reads(self, tmp_path, monkeypatch):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ab\r\ncd\r\n")
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 3)   # reads "ab\r", "\ncd", "\r\n"
        assert list(iter_line_chunks(path)) == [["ab"], ["cd"]]


def _policy_lines(text: str, tabs: int | None = None) -> tuple[list[str], int | None]:
    """The line rule applied one line at a time: the lines before the first
    bad one, and that line's number (None when every line is good). A bad
    line holds a stray ``\\r``, a byte that is not UTF-8 (decoded with
    ``surrogateescape``) or, with ``tabs``, not exactly that many tabs."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended] + ([last] if last else [])
    for line_no, line in enumerate(lines, start=1):
        if ("\r" in line or _NOT_UTF8.search(line)
                or (tabs is not None and line.count("\t") != tabs)):
            return lines[:line_no - 1], line_no
    return lines, None


def _chunked_lines(path):
    for chunk in iter_line_chunks(path):
        assert chunk
        yield from chunk


def _pair_lines(path):
    entry = ShardEntry("s.tsv", path, Direction("hr", "en"), OriginPool.BITEXT, 0)
    for line_no, pair in enumerate(read_pairs(entry), start=1):
        assert (pair.shard_id, pair.line_no) == ("s.tsv", line_no)
        yield f"{pair.source}\t{pair.target}"


def _counted_lines(path):
    """As many lines as ``count_lines`` counts; it checks nothing."""
    return [None] * count_lines(path)


def _shuffled_lines(path):
    entry = ShardEntry("s.tsv", path, Direction("hr", "en"), OriginPool.BITEXT, 0)
    out = path.with_name("shuffled.tsv")
    n = shuffle_dataset(CorpusManifest([entry]), 7, out)
    lines = read_lines(out)
    assert n == len(lines)
    return sorted(lines)


def _indexed_lines(path):
    """The lines at the byte offsets that ``BatchScheduler`` indexes."""
    data = path.read_bytes()
    with path.open("rb") as fh:
        offsets = sampling._index_lines(fh, "s.tsv")
    return [data[start:end].removesuffix(b"\n").removesuffix(b"\r").decode()
            for start, end in pairwise(offsets)]


def _exec_output_lines(path):
    translator = LineProtocolTranslator(["cat", str(path)], [Direction("hr", "en")])
    return translator.translate(["s"] * count_lines(path), Direction("hr", "en"))


# Each reader gives the lines it reads, or raises MalformedLineError at a bad
# one: shuffle_dataset gives them sorted, count_lines only as many. The pair
# readers also apply the one-tab rule.
READERS = {"iter_line_chunks": _chunked_lines, "read_lines": read_lines,
           "read_pairs": _pair_lines, "count_lines": _counted_lines,
           "shuffle_dataset": _shuffled_lines, "scheduler_index": _indexed_lines,
           "exec_output": _exec_output_lines}
PAIR_READERS = {"read_pairs", "scheduler_index"}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(read=st.sampled_from([2**18, 1, 2, 3, 5]),
       pad=st.sampled_from([(0, 0), (1, -2), (1, -1), (1, 0), (2, -1)]),
       pieces=st.lists(st.sampled_from(["x", "é", "\x85", "\t", "\n", "\r\n", "\r"]),
                       max_size=12))
def test_readers_match_per_line_policy(reader, read, pad, pieces):
    """Every text reader, and the ``exec:`` output splitter, gives the lines
    of the one-line-at-a-time oracle or fails at its first bad line,
    wherever a read ends, including between the \\r and the \\n of a CRLF.
    ``iter_line_chunks`` yields non-empty chunks, and every line before a
    stray \\r. The pieces start ``reads * read + shift`` characters in."""
    reads, shift = pad
    text = "a" * max(0, reads * read + shift) + "".join(pieces)
    lines, bad = _policy_lines(text, 1 if reader in PAIR_READERS else None)
    got = []
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(corpus, "_BYTES_PER_READ", read):
        path = Path(tmp) / "s.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            for line in READERS[reader](path):
                got.append(line)
        except MalformedLineError as exc:
            assert bad is not None and exc.line_no == bad, (exc, bad)
        else:
            if reader == "count_lines":   # a counter counts bad lines too
                assert len(got) == len(lines) if bad is None else len(got) >= bad
                return
            assert bad is None
    if reader == "iter_line_chunks" or bad is None:
        assert got == (sorted(lines) if reader == "shuffle_dataset" else lines)
    else:
        assert got == lines[:len(got)]


@pytest.mark.parametrize("reader", ["iter_line_chunks", "read_lines", "read_pairs",
                                    "shuffle_dataset", "scheduler_index", "exec_output"])
@settings(max_examples=100, deadline=None)
@given(read=st.sampled_from([2**18, 1, 2, 3, 5]),
       pad=st.sampled_from([(0, 0), (1, -1), (1, 0), (2, -1)]),
       pieces=st.lists(st.sampled_from([b"x", "\u00e9".encode(), b"\t", b"\n", b"\r\n",
                                        b"\r", b"\xff", b"\xc3"]), max_size=12))
def test_readers_locate_the_first_line_not_utf8(reader, read, pad, pieces):
    """Every reader that decodes through ``decode_lines`` fails at the first
    line holding a byte that is not UTF-8, a stray ``\\r`` or a bad tab
    count, wherever a read ends; ``iter_line_chunks`` gives every line
    before it."""
    reads, shift = pad
    data = b"a" * max(0, reads * read + shift) + b"".join(pieces)
    lines, bad = _policy_lines(data.decode(errors="surrogateescape"),
                               1 if reader in PAIR_READERS else None)
    got = []
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(corpus, "_BYTES_PER_READ", read):
        path = Path(tmp) / "s.tsv"
        path.write_bytes(data)
        try:
            for line in READERS[reader](path):
                got.append(line)
        except MalformedLineError as exc:
            assert bad is not None and exc.line_no == bad, (exc, bad)
        else:
            assert bad is None
    if reader == "iter_line_chunks" or bad is None:
        assert got == (sorted(lines) if reader == "shuffle_dataset" else lines)
    else:
        assert got == lines[:len(got)]


def _file_calls(source: str) -> list[tuple[str | None, str, list[str], int]]:
    """(enclosing function, callee name, modes, line number) of each call in
    ``source``, in line order. A function is named with the classes and
    functions around it (``Outputs.start``). ``modes`` are the string
    constants of an ``open`` call's mode: ``["r"]`` without a mode, ``[]``
    when no part of it is a literal."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                at = 1 if isinstance(func, ast.Name) else 0   # open(file, mode), Path.open(mode)
                mode = next((k.value for k in child.keywords if k.arg == "mode"),
                            child.args[at] if len(child.args) > at else ast.Constant("r"))
                modes = [n.value for n in ast.walk(mode)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                calls.append((function, name, modes, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, ".".join(filter(None, (function, child.name))) if is_def else function)

    visit(ast.parse(source), None)
    return sorted(calls, key=lambda call: call[3])


def _text_reads(source: str) -> list[int]:
    """The line numbers of the calls in ``source`` that may read a file in
    text mode: ``read_text``, and ``open`` with a mode other than ``"rb"``
    that may read (no mode, ``r`` or ``+``) or that is not a literal."""
    return [line for _, name, modes, line in _file_calls(source)
            if name == "read_text" or name == "open" and (
                not modes or any(m != "rb" and ("r" in m or "+" in m) for m in modes))]


def test_text_reads_are_found():
    assert _text_reads("open(p)\nopen(p, 'rb')\nopen(p, mode)\nopen(p, 'w')") == [1, 3]
    assert _text_reads("p.open(encoding='utf-8')\np.open('rb')\np.open('r+b')\n"
                       "p.open('a' if x else 'w')\np.open(mode='r')\np.read_text()") \
        == [1, 3, 5, 6]


def test_no_module_reads_a_file_in_text_mode():
    """Every text file is read as bytes and decoded by ``corpus.decode_lines``,
    so no reader can follow another line rule."""
    found = {path.name: lines for path in sorted(Path(mtforge.__file__).parent.glob("*.py"))
             if (lines := _text_reads(path.read_text(encoding="utf-8")))}
    assert found == {}


def _text_writes(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line number) of each call in ``source`` that may
    write a file: ``write_text``, ``write_bytes``, and ``open`` with a mode
    that may write (``w``, ``a``, ``x`` or ``+``; binary too, as bytes can
    hold text lines) or that is not a literal."""
    return [(function, line) for function, name, modes, line in _file_calls(source)
            if name in ("write_text", "write_bytes") or name == "open" and (
                not modes or any(set(m) & set("wax+") for m in modes))]


# The writers that the package had before every text file went through
# ``corpus.write_shard``, as they were written.
_FORMER_WRITERS = """
def write_table(path, rows, header=None):
    with Path(path).open("w", encoding="utf-8", newline="\\n") as fh:
        fh.write("".join(line + "\\n" for line in lines))

def _write_lines(path, lines):
    with Path(path).open("w", encoding="utf-8", newline="\\n") as fh:
        for line in lines:
            fh.write(line + "\\n")

def pipeline_demo(out_dir, seed):
    mono_path.write_text("".join(line + "\\n" for line in mono), encoding="utf-8")

def filter_corpus(manifest, cfg, tokenizer, out_dir, rejects_dir=None):
    for entry in manifest.shards:
        rej_fh = (rejects_dir / name).open("w", encoding="utf-8", newline="\\n") \\
            if rejects_dir is not None else None
        with out_file.open("w", encoding="utf-8", newline="\\n") as out_fh:
            pass
"""


def test_text_writes_are_found():
    assert _text_writes(_FORMER_WRITERS) == [
        ("write_table", 3), ("_write_lines", 7), ("pipeline_demo", 12),
        ("filter_corpus", 16), ("filter_corpus", 18)]
    assert _text_writes("open(p, 'w')\nopen(p)\nopen(p, mode)\nopen(p, 'rb')\n"
                        "p.open('ab')\np.open('r+b')\np.open('a' if x else 'w')\n"
                        "p.open(mode='x')\np.open(mode='r')\np.write_bytes(b'')") == [
        (None, 1), (None, 3), (None, 5), (None, 6), (None, 7), (None, 8), (None, 10)]


# Every call in the package that may write a file, by module and function,
# with how many there are and why each is allowed.
_ALLOWED_WRITES = {
    ("corpus.py", "write_shard"): (1, "the one text writer"),
}


def test_no_module_writes_outside_corpus():
    """Every text file is written by ``corpus.write_shard``, so no writer can
    follow another row format or line end."""
    found = {}
    for path in sorted(Path(mtforge.__file__).parent.glob("*.py")):
        for function, _ in _text_writes(path.read_text(encoding="utf-8")):
            found[path.name, function] = found.get((path.name, function), 0) + 1
    assert found == {key: n for key, (n, _) in _ALLOWED_WRITES.items()}


# Every call in the package that makes a directory or identifies a file,
# by module, function and callee, with how many there are and why each is
# allowed: what a command writes, and that it is none of the files the
# command reads, has one owner, ``corpus.Outputs``.
_ALLOWED_OUTPUT_CALLS = {
    ("corpus.py", "Outputs.__init__", "_file_id"): (1, "identifies the input files"),
    ("corpus.py", "Outputs.claim", "_file_id"): (1, "refuses an output that is an input file"),
    ("corpus.py", "Outputs.start", "mkdir"): (1, "makes the directories of the claimed files"),
}


def test_outputs_have_one_owner():
    found = {}
    for path in sorted(Path(mtforge.__file__).parent.glob("*.py")):
        for function, name, _, _ in _file_calls(path.read_text(encoding="utf-8")):
            if name in ("mkdir", "makedirs", "_file_id"):
                key = path.name, function, name
                found[key] = found.get(key, 0) + 1
    assert found == {key: n for key, (n, _) in _ALLOWED_OUTPUT_CALLS.items()}


def test_calls_are_named_with_their_class():
    assert [call[:2] for call in _file_calls(
        "class A:\n    def f(self):\n        g()\n        def h():\n            k()\nm()")] \
        == [("A.f", "g"), ("A.f.h", "k"), (None, "m")]


def _unjustified_errors(errors_source: str, package_sources: list[str]) -> list[str]:
    """The classes defined in ``errors_source`` that no ``except`` clause in
    ``package_sources`` names and whose ``__init__`` sets no attribute."""
    caught = {node.id for source in package_sources for handler in ast.walk(ast.parse(source))
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    found = []
    for cls in ast.parse(errors_source).body:
        if isinstance(cls, ast.ClassDef) and cls.name not in caught and not any(
                isinstance(target, ast.Attribute)
                for init in cls.body if getattr(init, "name", None) == "__init__"
                for node in ast.walk(init) if isinstance(node, ast.Assign)
                for target in node.targets):
            found.append(cls.name)
    return found


def test_unjustified_errors_are_found():
    errors = ("class Base(Exception):\n    pass\n"
              "class Named(Base):\n    pass\n"
              "class Located(Base):\n    def __init__(self, at):\n        self.at = at\n")
    assert _unjustified_errors(errors, ["try:\n    f()\nexcept (Base, ValueError):\n    pass"]) \
        == ["Named"]
    assert _unjustified_errors(errors, []) == ["Base", "Named"]


def test_each_error_class_carries_data_or_is_caught():
    """A failure that needs only its message raises MTForgeError; a class in
    ``mtforge.errors`` is kept only when some code catches it by type or it
    carries fields beyond its message."""
    package = Path(mtforge.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert _unjustified_errors((package / "errors.py").read_text(encoding="utf-8"), sources) == []


# --- save -> load round trips ------------------------------------------------

_LANGS = st.from_regex(r"[a-z]{2,8}", fullmatch=True)
_DIRECTIONS = st.tuples(_LANGS, _LANGS).filter(lambda p: p[0] != p[1]) \
    .map(lambda p: Direction(*p))
# Any text a field may hold: no tab, no line break that read_table splits on.
_FIELD = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\t\n\r"), max_size=12)
# A first field must not make its row read back as a comment.
_FIRST_FIELD = _FIELD.filter(lambda f: not f.lstrip().startswith("#"))
# Values on the six-decimal grid that the score formats write.
_SCORES = st.integers(0, 100_000_000).map(lambda i: i / 1e6)


def _round_trip(save, load):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        save(path)
        return load(path)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_FIRST_FIELD, _DIRECTIONS, st.sampled_from(OriginPool),
                               st.integers(0, 2**63)),
                     unique_by=lambda r: r[0], max_size=6))
def test_manifest_round_trip(rows):
    manifest = CorpusManifest([ShardEntry(raw, Path(raw), d, o, n) for raw, d, o, n in rows])
    loaded = _round_trip(lambda p: write_manifest(manifest, p), load_manifest)
    assert [(e.raw_path, e.direction, e.origin, e.declared_line_count)
            for e in loaded.shards] == [(raw, d, o, n) for raw, d, o, n in rows]


@settings(max_examples=60, deadline=None)
@given(scores=st.dictionaries(_DIRECTIONS, st.builds(
    BleuScore, _SCORES, st.tuples(_SCORES, _SCORES, _SCORES, _SCORES), _SCORES,
    st.integers(0, 10**9), st.integers(0, 10**9)), max_size=6))
def test_score_matrix_round_trip(scores):
    matrix = ScoreMatrix(scores)
    assert _round_trip(matrix.save, ScoreMatrix.load) == matrix


@settings(max_examples=60, deadline=None)
@given(pivot=_LANGS, data=st.data())
def test_routing_table_round_trip(pivot, data):
    entries = data.draw(st.dictionaries(_DIRECTIONS, st.builds(
        RouteEntry, st.sampled_from([Direct(), PivotVia(pivot)]), _SCORES, _SCORES),
        max_size=6))
    table = RoutingTable(entries, pivot)
    loaded = _round_trip(table.save, RoutingTable.load)
    assert loaded == (table if entries else RoutingTable({}, "en"))


_TASKS = st.builds(
    lambda kind, ref, needed, outputs: AugmentationTask(kind, ref, tuple(needed), tuple(outputs)),
    st.sampled_from(TaskKind),
    st.one_of(st.builds(MonoCorpusRef, _FIELD.map(Path), _LANGS),
              st.builds(BitextCorpusRef, _FIELD.map(Path), _DIRECTIONS)),
    st.lists(_DIRECTIONS, min_size=1, max_size=3),
    st.lists(st.builds(TaskOutput, _DIRECTIONS, st.sampled_from(OriginPool)),
             min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(tasks=st.lists(_TASKS, max_size=5, unique=True))   # load_plan refuses a repeat
def test_plan_round_trip(tasks):
    plan = AugmentationPlan(tasks)
    assert _round_trip(lambda p: save_plan(plan, p), load_plan) == plan


def _stage_row(s: StageDescriptor) -> tuple:
    """A schedule row as the README describes the format."""
    tier = "noisy" if isinstance(s.data_tier, Noisy) else f"clean:{s.data_tier.ratio_limit}"
    dirs = "all" if isinstance(s.direction_set, AllDirections) \
        else ",".join(sorted(map(str, s.direction_set.directions)))
    m = s.mixture
    return (s.stage_id, tier, dirs, f"{m.bitext!r},{m.back_translation!r},{m.dual_pseudo!r}",
            s.encoder_layers, s.decoder_layers)


@settings(max_examples=60, deadline=None)
@given(tier=st.one_of(st.just(Noisy()), st.sampled_from(RATIO_LADDER).map(Clean)),
       dirs=st.one_of(st.just(AllDirections()), st.frozensets(
           _DIRECTIONS, min_size=1, max_size=4).map(SelectedDirections)),
       stages=st.lists(st.tuples(_FIRST_FIELD, st.tuples(*[st.integers(0, 1000)] * 3)
                                 .filter(any)), min_size=1, max_size=4),
       encoder=st.lists(st.integers(1, 48), min_size=4, max_size=4),
       decoder=st.integers(1, 12))
def test_schedule_round_trip(tier, dirs, stages, encoder, decoder):
    """A schedule that only deepens the encoder is valid with any mixtures."""
    schedule = [StageDescriptor(stage_id, tier, dirs, MixtureWeights(*weights), enc, decoder)
                for (stage_id, weights), enc in zip(stages, sorted(encoder))]
    header = "stage_id tier directions lambdas enc dec".split()

    def save(path):
        write_table(path, map(_stage_row, schedule), header)
    assert _round_trip(save, load_schedule) == schedule
