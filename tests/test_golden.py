"""Golden runs of every subcommand: a characterization net under refactors.

Each case runs ``cli.main`` in-process on a fresh copy of one small input
tree, built in code from a fixed seed, with the tree as the working
directory, so every path that a message names is relative. The exit code,
stdout, stderr and a digest of the whole tree afterwards (files and
directories) must match that case's row of ``golden.tsv``.

The table is rewritten on purpose only, never by a test:

    PYTHONPATH=src python tests/test_golden.py

rewrites ``tests/golden.tsv`` and prints each row that changed.
"""

import argparse
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import test_cli
from mtforge.cli import build_parser, main
from mtforge.wordlist import COMMON_WORDS

GOLDEN = Path(__file__).with_name("golden.tsv")
SEED = 2214


def _sentence(rng, low=3, high=9):
    return " ".join(rng.choices(COMMON_WORDS, k=rng.randint(low, high)))


def _rows(rng, n):
    return [(_sentence(rng), _sentence(rng)) for _ in range(n)]


def _write(root, name, lines):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("".join(line + "\n" for line in lines).encode())


def _pairs(rows):
    return ["\t".join(row) for row in rows]


def build_tree(root):
    """Write every input file of every case under ``root``."""
    rng = random.Random(SEED)
    junk = [("", "empty source"),                          # Empty
            ("good source", "with [UNK] token"),            # ContainsUnk
            (" ".join(["word"] * 40), "short"),             # TooLong at --max-words 30
            ("tiny", "x" * 60),                             # RatioExceeded
            ("ово је ћирилица", "this is cyrillic")]        # WrongScript at --script hr=latn
    long_row = (" ".join(["morning"] * 20), " ".join(["night"] * 20))   # truncated
    shards = [("a.tsv", "hr\ten\tbitext", _rows(rng, 6) + [long_row] + junk),
              ("sub/a.tsv", "hu\ten\tbitext", _rows(rng, 12)),   # named a.2.tsv by filter
              ("bt.tsv", "en\thr\tbt", _rows(rng, 10)),
              ("dp.tsv", "hr\thu\tdual_pseudo", _rows(rng, 8))]
    for name, _, rows in shards:
        _write(root, name, _pairs(rows))
    _write(root, "manifest.tsv", [f"{name}\t{meta}\t{len(rows)}" for name, meta, rows in shards])
    _write(root, "miscount.tsv", ["bt.tsv\ten\thr\tbt\t9"])
    _write(root, "none.tsv", [])
    # A sidecar is named after the filtered shard: a.tsv and dp.tsv have
    # one, and sub/a.tsv (filtered as a.2.tsv) and bt.tsv have none.
    _write(root, "langid/a.tsv.langid", ["hr\ten"] * 4 + ["hu\ten"] + ["hr\ten"] * 7)
    _write(root, "langid/dp.tsv.langid", ["hr\thu"] * 8)
    _write(root, "bad/x.tsv", _pairs(_rows(rng, 3)))
    _write(root, "bad/y.tsv", _pairs(_rows(rng, 2)) + ["no tab here"])
    _write(root, "bad/manifest.tsv", ["x.tsv\thr\ten\tbitext\t3", "y.tsv\thr\ten\tbitext\t3"])
    _write(root, "vocab.txt", COMMON_WORDS[:80] + [" ", "ing", "ed", "er", "th\t0.5"])

    _write(root, "mono.en.txt", [_sentence(rng) for _ in range(8)])
    _write(root, "mono2.en.txt", [_sentence(rng) for _ in range(5)])
    _write(root, "mono_tab.en.txt", ["one line", "a\ttab", "three"])
    _write(root, "bi.hr-en.tsv", _pairs(_rows(rng, 6)))
    bt = "bt\t{}\tlang=en\ten-{lang}\t{lang}-en:back_translation,en-{lang}:back_translation"
    header = "# kind\tinput_path\tinput_meta\tneeded\toutputs"
    _write(root, "plan.tsv", [
        header, bt.format("mono.en.txt", lang="hr"),
        "dual\tmono.en.txt\tlang=en\ten-hr,en-hu\thr-hu:dual_pseudo",
        "tri\tbi.hr-en.tsv\tdir=hr-en\ten-mk\thr-mk:dual_pseudo",
        bt.format("mono2.en.txt", lang="hr")])   # its shards are named *.2.tsv
    _write(root, "plan_exec.tsv", [header, bt.format("mono2.en.txt", lang="hu")])
    _write(root, "plan_tab.tsv", [header, bt.format("mono_tab.en.txt", lang="hr")])
    _write(root, "plans/manifest.tsv", [header, bt.format("mono2.en.txt", lang="hr")])

    grid = [(a, b) for a in ("hr", "hu", "mk") for b in ("hr", "hu", "mk") if a != b]
    for name in ("direct.tsv", "pivot.tsv"):
        _write(root, name, [f"{a}\t{b}\t{rng.uniform(5, 40):.6f}\t0.5\t0.4\t0.3\t0.2\t1.0\t50\t50"
                            for a, b in grid])
    _write(root, "table.tsv", [
        f"{a}\t{b}\t{'pivot' if a == 'hr' else 'direct'}\ten\t20.000000\t30.000000"
        for a, b in grid])
    _write(root, "in.hr.txt", [_sentence(rng) for _ in range(5)])
    refs = [_sentence(rng, 5, 12) for _ in range(6)]
    _write(root, "ref.txt", refs)
    _write(root, "hyp.txt", refs[:3] + [_sentence(rng, 5, 12) for _ in range(3)])
    _write(root, "schedule.tsv", ["s1\tnoisy\tall\t0.34,0.33,0.33\t24\t12",
                                  "s2\tclean:3.0\thr-en,hu-en\t0.6,0.2,0.2\t36\t12"])
    _write(root, "schedule_bad.tsv", ["s1\tclean:1.5\tall\t0.34,0.33,0.33\t24\t12",
                                      "s2\tnoisy\tall\t0.34,0.33,0.33\t24\t12"])


# An exec: translator that prefixes each line with its target language.
EXEC = "exec:" + " ".join([shlex.quote(sys.executable), "-c", shlex.quote(
    "import sys\nfor line in sys.stdin: sys.stdout.write(sys.argv[1] + ':' + line)"), "{tgt}"])

FILTER = ["filter", "--manifest", "manifest.tsv"]
SAMPLE = ["sample", "--manifest", "manifest.tsv", "--seed", "5"]
PLAN = ["augment", "plan"]
RUN = ["augment", "run"]
BUILD = ["route", "build", "--direct", "direct.tsv", "--pivot", "pivot.tsv"]
TRANSLATE = ["route", "translate", "--table", "table.tsv", "--input", "in.hr.txt"]

CASES = [
    ("no-command", []),
    ("stats", ["stats", "--manifest", "manifest.tsv"]),
    ("stats-verify-out", ["stats", "--manifest", "manifest.tsv", "--verify", "--out", "s.tsv"]),
    ("stats-verify-miscount", ["stats", "--manifest", "miscount.tsv", "--verify"]),
    ("stats-out-is-input", ["stats", "--manifest", "manifest.tsv", "--out", "bt.tsv"]),
    ("filter", FILTER + ["--out", "clean"]),
    ("filter-every-option", FILTER + [
        "--out", "clean", "--rejects", "rej", "--ratio", "2.5", "--max-words", "30",
        "--max-tokens", "12", "--unk-token", "[UNK]", "--script", "hr=latn",
        "--script", "hu=latin", "--langid", "langid", "--vocab", "vocab.txt"]),
    ("filter-langid-required", FILTER + ["--out", "clean", "--langid", "langid",
                                         "--langid-required"]),
    ("filter-no-shards", ["filter", "--manifest", "none.tsv", "--out", "o/clean",
                          "--rejects", "o/rej"]),
    ("filter-bad-line", ["filter", "--manifest", "bad/manifest.tsv", "--out", "clean",
                         "--rejects", "rej"]),
    ("filter-out-is-input", FILTER + ["--out", "sub", "--rejects", "rej"]),
    ("filter-rejects-is-out", FILTER + ["--out", "clean", "--rejects", "./clean"]),
    ("shuffle", ["shuffle", "--manifest", "manifest.tsv", "--seed", "3", "--out", "shuf.txt"]),
    ("shuffle-out-is-input", ["shuffle", "--manifest", "manifest.tsv", "--seed", "3",
                              "--out", "dp.tsv"]),
    ("sample", SAMPLE + ["--report", "comp.tsv"]),
    ("sample-every-option", SAMPLE + [
        "--temperature", "2", "--lambda", "0.5,0.3,0.2", "--batch-size", "4",
        "--batches", "3", "--report", "comp.tsv"]),
    ("sample-report-is-input", SAMPLE + ["--report", "manifest.tsv"]),
    ("bleu", ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"]),
    ("bleu-vocab", ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--vocab", "vocab.txt"]),
    ("plan-bt", PLAN + ["--kind", "bt", "--mono", "mono.en.txt", "--langs", "hr,hu",
                        "--out", "p.tsv"]),
    ("plan-dual-langs", PLAN + ["--kind", "dual", "--mono", "mono.en.txt", "--mono-lang", "en",
                                "--langs", "hr,hu,mk", "--out", "p.tsv"]),
    ("plan-dual-pairs", PLAN + ["--kind", "dual", "--mono", "mono.en.txt",
                                "--pairs", "hr-hu,mk-hr", "--out", "p.tsv"]),
    ("plan-tri", PLAN + ["--kind", "tri", "--bitext", "bi.hr-en.tsv", "--direction", "hr-en",
                         "--new-src", "mk", "--new-tgt", "hu", "--out", "p.tsv"]),
    ("plan-missing-flag", PLAN + ["--kind", "tri", "--bitext", "bi.hr-en.tsv",
                                  "--out", "p.tsv"]),
    ("plan-out-is-input", PLAN + ["--kind", "bt", "--mono", "mono.en.txt", "--langs", "hr",
                                  "--out", "mono.en.txt"]),
    ("run-cipher", RUN + ["--plan", "plan.tsv", "--translator", "cipher:7", "--out", "aug"]),
    ("run-exec", RUN + ["--plan", "plan_exec.tsv", "--translator", EXEC, "--timeout", "60",
                        "--out", "aug"]),
    ("run-bad-line", RUN + ["--plan", "plan_tab.tsv", "--translator", "cipher:7",
                            "--out", "aug"]),
    ("run-out-is-input", RUN + ["--plan", "plans/manifest.tsv", "--translator", "cipher:7",
                                "--out", "plans"]),
    ("route-build", BUILD + ["--pivot-lang", "en", "--out", "t.tsv"]),
    ("route-build-out-is-input", BUILD + ["--out", "direct.tsv"]),
    ("route-translate-cipher", TRANSLATE + ["--translator", "cipher:7", "--direction", "hr-hu",
                                            "--out", "o.txt"]),
    ("route-translate-exec", TRANSLATE + ["--translator", EXEC, "--timeout", "60",
                                          "--direction", "hu-mk", "--out", "o.txt"]),
    ("route-translate-out-is-input", TRANSLATE + ["--translator", "cipher:7",
                                                  "--direction", "hr-hu", "--out", "table.tsv"]),
    ("curriculum", ["curriculum", "check", "--schedule", "schedule.tsv"]),
    ("curriculum-loosened", ["curriculum", "check", "--schedule", "schedule_bad.tsv"]),
    ("demo", ["demo", "--out", "d", "--seed", "4", "--direct-noise", "0.5"]),
    ("demo-bad-noise", ["demo", "--out", "d", "--seed", "4", "--direct-noise", "nan"]),
]


def tree_digest(root):
    """A digest over every file and directory under ``root``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(b"/" if path.is_dir() else hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def run_case(case_id, argv, root):
    """The table row of ``argv`` run in ``root``, the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    fields = [case_id, str(code), json.dumps(out.getvalue(), ensure_ascii=False),
              json.dumps(err.getvalue(), ensure_ascii=False), tree_digest(root)]
    return "\t".join(fields)


def read_golden():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {line.split("\t", 1)[0]: line for line in lines if not line.startswith("#")}


@pytest.mark.parametrize("case_id, argv", CASES, ids=[case_id for case_id, _ in CASES])
def test_golden_run(tmp_path, monkeypatch, case_id, argv):
    build_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to the terminal width
    assert run_case(case_id, argv, tmp_path) == read_golden().get(case_id)


def test_table_holds_the_cases():
    assert list(read_golden()) == [case_id for case_id, _ in CASES]


def _options(parser, command=()):
    """(subcommand words, option string, action) of every option of every
    subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, command + (name,))
        elif not isinstance(action, argparse._HelpAction):
            yield from ((command, option, action) for option in action.option_strings)


def _unused(options, argvs):
    """The (subcommand words, option string) of ``options`` that no argv runs."""
    return [(command, option) for command, option, _ in options
            if not any(tuple(argv[:len(command)]) == command and option in argv
                       for argv in argvs)]


def test_every_option_is_run():
    assert _unused(_options(build_parser()), [argv for _, argv in CASES]) == []


def test_every_checked_option_has_a_usage_error_row():
    # A value checked while the command line is parsed, by a ``type`` that
    # is more than a converter or by an action of the CLI's own, has a row
    # of test_cli.TestUsageErrors, which gives it a bad value.
    checked = [(command, option, action) for command, option, action in _options(build_parser())
               if action.type not in (None, int, float)
               or type(action).__module__ == "mtforge.cli"]
    assert {("sample", "--temperature"), ("filter", "--script")} <= \
        {(command[0], option) for command, option, _ in checked}
    assert _unused(checked, [row.values[0] for row in test_cli.TestUsageErrors.ROWS]) == []


def regenerate():
    """Rewrite ``golden.tsv`` from the present code; print changed rows."""
    old = read_golden() if GOLDEN.exists() else {}
    rows = []
    os.environ["COLUMNS"] = "80"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, argv in CASES:
            root = Path(tmp) / case_id
            root.mkdir()
            build_tree(root)
            os.chdir(root)
            try:
                rows.append(run_case(case_id, argv, root))
            finally:
                os.chdir(cwd)
    GOLDEN.write_text("# case\texit\tstdout\tstderr\ttree_digest\n"
                      + "".join(row + "\n" for row in rows), encoding="utf-8")
    for row in rows:
        if old.get(row.split("\t", 1)[0]) != row:
            print(row)


if __name__ == "__main__":
    regenerate()
