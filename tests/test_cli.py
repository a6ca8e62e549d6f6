import errno
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import build_manifest
from mtforge import corpus
from mtforge.cli import main
from mtforge.corpus import Direction, load_manifest
from mtforge.evaluation import corpus_bleu
from mtforge.translator import CipherLanguage, CipherTranslator, derive_language_seed


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["stats"]) == 1
        assert "--manifest" in capsys.readouterr().err

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        rc = main(["filter", "--manifest", str(tmp_path / "absent.tsv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "absent.tsv" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.tsv\ten\ten\tbitext\t1\n", encoding="utf-8")
        assert main(["stats", "--manifest", str(bad)]) == 1


class TestUsageErrors:
    """A flag value or flag combination the command cannot use fails with
    one ``error:`` line before anything is read or written."""

    PLAN = ["augment", "plan", "--out", "plan.tsv", "--kind"]

    ROWS = [
        pytest.param(["filter", "--manifest", "manifest.tsv", "--out", "out",
                      "--script", "sr"], "--script expects lang=Script, got 'sr'",
                     id="filter-script-without-equals"),
        pytest.param(["filter", "--manifest", "manifest.tsv", "--out", "out",
                      "--script", "HR=latn"], "invalid language code: 'HR'",
                     id="filter-script-key-not-a-language-code"),
        pytest.param(["filter", "--manifest", "absent.tsv", "--out", "out", "--ratio", "nan"],
                     "length_ratio_limit must be finite and > 1",
                     id="filter-ratio-nan-before-manifest"),
        pytest.param(["filter", "--manifest", "absent.tsv", "--out", "out", "--script", "sr"],
                     "--script expects lang=Script, got 'sr'",
                     id="filter-script-without-equals-before-manifest"),
        pytest.param(["filter", "--manifest", "absent.tsv", "--out", "out",
                      "--script", "HR=latn"], "invalid language code: 'HR'",
                     id="filter-script-key-before-manifest"),
        pytest.param(["filter", "--manifest", "absent.tsv", "--out", "out",
                      "--script", "hr=Cyrl", "--script", "hr=Latn"],
                     "--script gives language 'hr' twice", id="filter-script-language-twice"),
        pytest.param(["sample", "--manifest", "absent.tsv", "--report", "r.tsv",
                      "--lambda", "1,1"], "expected three comma-separated weights, got '1,1'",
                     id="sample-lambda-before-manifest"),
        pytest.param(["sample", "--manifest", "absent.tsv", "--report", "r.tsv",
                      "--temperature", "nan"], "temperature must be positive and finite",
                     id="sample-temperature-before-manifest"),
        pytest.param(["sample", "--manifest", "absent.tsv", "--report", "r.tsv",
                      "--batch-size", "0"], "batch_size must be >= 1",
                     id="sample-batch-size-before-manifest"),
        pytest.param(["sample", "--manifest", "absent.tsv", "--report", "r.tsv",
                      "--batches", "-1"], "batches must be >= 0, got -1",
                     id="sample-batches-before-manifest"),
        pytest.param(["route", "build", "--direct", "absent.tsv", "--pivot", "absent2.tsv",
                      "--pivot-lang", "EN", "--out", "t.tsv"], "invalid language code: 'EN'",
                     id="route-build-pivot-lang-before-matrices"),
        pytest.param(["route", "translate", "--table", "absent.tsv", "--translator", "cipher:1",
                      "--direction", "hr", "--input", "absent.txt", "--out", "o.txt"],
                     "expected src-tgt direction, got 'hr'",
                     id="route-translate-direction-before-table"),
        pytest.param(["route", "translate", "--table", "absent.tsv", "--translator", "cipher:1",
                      "--timeout", "nan", "--direction", "hr-en", "--input", "absent.txt",
                      "--out", "o.txt"], "timeout must be a positive number of seconds, got nan",
                     id="route-translate-timeout-before-table"),
        pytest.param(["augment", "run", "--plan", "absent.tsv", "--translator", "cipher:1",
                      "--timeout", "nan", "--out", "o"],
                     "timeout must be a positive number of seconds, got nan",
                     id="augment-run-timeout-before-plan"),
        pytest.param(["augment", "run", "--plan", "absent.tsv", "--translator", "foo:1",
                      "--out", "o"],
                     "unknown translator spec 'foo:1' (use cipher:SEED or exec:CMD)",
                     id="augment-run-translator-before-plan"),
        pytest.param(["route", "translate", "--table", "absent.tsv", "--translator", "foo:1",
                      "--direction", "hr-en", "--input", "absent.txt", "--out", "o.txt"],
                     "unknown translator spec 'foo:1' (use cipher:SEED or exec:CMD)",
                     id="route-translate-translator-before-table"),
        pytest.param(PLAN + ["bt", "--mono", "mono.txt"], "--kind bt needs --mono and --langs",
                     id="plan-bt-without-langs"),
        pytest.param(PLAN + ["bt", "--langs", "hr"], "--kind bt needs --mono and --langs",
                     id="plan-bt-without-mono"),
        pytest.param(PLAN + ["dual", "--langs", "hr,hu"], "--kind dual needs --mono",
                     id="plan-dual-without-mono"),
        pytest.param(PLAN + ["dual", "--mono", "mono.txt"],
                     "--kind dual needs --pairs or --langs", id="plan-dual-without-pairs"),
        pytest.param(PLAN + ["tri", "--bitext", "a.tsv"],
                     "--kind tri needs --bitext and --direction", id="plan-tri-without-direction"),
        pytest.param(PLAN + ["tri", "--direction", "hr-en"],
                     "--kind tri needs --bitext and --direction", id="plan-tri-without-bitext"),
        pytest.param(PLAN + ["bt", "--mono", "mono.txt", "--langs", "hr,hr"],
                     "target language hr is given twice", id="plan-bt-language-twice"),
        pytest.param(PLAN + ["dual", "--mono", "mono.txt", "--pairs", "hr-hu,hr-hu"],
                     "dual-pseudo pair hr-hu is given twice", id="plan-dual-pair-twice"),
        pytest.param(PLAN + ["dual", "--mono", "mono.txt", "--langs", "hr,hr,hu"],
                     "language hr is given twice", id="plan-dual-language-twice"),
        pytest.param(PLAN + ["dual", "--mono", "absent.txt", "--langs", "hr"],
                     "ordered pairs need at least two languages, got 1",
                     id="plan-dual-one-language"),
        # A value that one flag holds is checked before the corpus is looked
        # at, and before a check of two flags.
        pytest.param(PLAN + ["bt", "--mono", "absent.txt", "--langs", "HR"],
                     "invalid language code: 'HR'", id="plan-bt-langs-code-before-mono"),
        pytest.param(PLAN + ["bt", "--mono", "absent.txt", "--mono-lang", "EN", "--langs", "hr"],
                     "invalid language code: 'EN'", id="plan-mono-lang-before-mono"),
        pytest.param(PLAN + ["tri", "--bitext", "absent.tsv", "--new-src", "MK"],
                     "invalid language code: 'MK'", id="plan-new-src-before-direction-check"),
        pytest.param(PLAN + ["tri", "--direction", "hr-en", "--new-tgt", "HU"],
                     "invalid language code: 'HU'", id="plan-new-tgt-before-bitext-check"),
        pytest.param(PLAN + ["tri", "--direction", "hr"], "expected src-tgt direction, got 'hr'",
                     id="plan-direction-before-bitext-check"),
        pytest.param(PLAN + ["dual", "--pairs", "hr"], "expected src-tgt direction, got 'hr'",
                     id="plan-pairs-before-mono-check"),
        pytest.param(["demo", "--out", "d", "--direct-noise", "nan"],
                     "noise_rate must be in [0, 1]", id="demo-direct-noise-before-seed"),
    ]

    @pytest.mark.parametrize("argv, message", ROWS)
    def test_one_error_line_and_nothing_written(self, tmp_path, capsys, monkeypatch,
                                                argv, message):
        monkeypatch.chdir(tmp_path)
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("s1", "t1")])])
        (tmp_path / "mono.txt").write_text("the cat sat\n", encoding="utf-8")
        before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            [f"error: {message}"]
        assert "Traceback" not in err
        assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mtforge", "stats"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "usage: mtforge stats" in proc.stderr
        assert "--manifest" in proc.stderr


class TestNotUtf8:
    @pytest.mark.parametrize("command", ["filter", "shuffle"])
    def test_bad_line_past_the_first_read_is_located(self, tmp_path, capsys, command):
        # The decoder's position would be 137,856, not the file offset
        # 400,000 of line 100,001.
        (tmp_path / "a.tsv").write_bytes(b"s\tt\n" * 100_000 + b"\xff\tbad\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a.tsv\thr\ten\tbitext\t100001\n", encoding="utf-8")
        assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     *(["--seed", "1"] if command == "shuffle" else [])]) == 1
        assert "error: a.tsv:100001: not UTF-8" in capsys.readouterr().err


class TestStats:
    def test_counts(self, tmp_path, capsys):
        build_manifest(tmp_path, [
            ("a.tsv", "hr-en", "bitext", [("s", "t")] * 4),
            ("b.tsv", "en-hu", "bt", [("s", "t")] * 2),
        ])
        assert main(["stats", "--manifest", str(tmp_path / "manifest.tsv")]) == 0
        out = capsys.readouterr().out
        assert "language\ten\t6" in out
        assert "direction\thr\ten\t4" in out

    def test_out_file_holds_the_printed_rows(self, tmp_path, capsys):
        build_manifest(tmp_path, [
            ("a.tsv", "hr-en", "bitext", [("s", "t")] * 4),
            ("b.tsv", "en-hu", "bt", [("s", "t")] * 2),
        ])
        manifest, out = str(tmp_path / "manifest.tsv"), tmp_path / "stats.tsv"
        assert main(["stats", "--manifest", manifest]) == 0
        printed = capsys.readouterr().out
        assert main(["stats", "--manifest", manifest, "--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode() == (
            b"language\ten\t6\nlanguage\thr\t4\nlanguage\thu\t2\n"
            b"direction\ten\thu\t2\ndirection\thr\ten\t4\n")

    def test_verify_failure(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("s", "t")])])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a.tsv\thr\ten\tbitext\t9\n", encoding="utf-8")
        assert main(["stats", "--manifest", str(manifest), "--verify"]) == 1

    def test_verify_reads_shards_by_the_line_rule(self, tmp_path, capsys):
        # Two lines by their \n bytes, but the second is not UTF-8: the
        # count fails where shuffle and sample would.
        (tmp_path / "a.tsv").write_bytes(b"s0\tt0\nsource \xff\ttarget\n")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.tsv\thr\ten\tbitext\t2\n", encoding="utf-8")
        assert main(["stats", "--manifest", str(manifest), "--verify"]) == 1
        assert capsys.readouterr() == (
            "", f"error: {manifest}:1: a.tsv:2: not UTF-8 at byte 8 (invalid start byte)\n")


class TestBleu:
    def test_identity(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("the cat sat\na b c\n", encoding="utf-8")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[0] == "100.00"

    def test_mismatched_lengths(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\n", encoding="utf-8")
        ref.write_text("a\nb\n", encoding="utf-8")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 1

    def test_stray_carriage_return_in_hypotheses(self, tmp_path, capsys):
        # Text mode would read two hypotheses against two references.
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_bytes(b"a b\rc d\n")
        ref.write_text("a b\nc d\n", encoding="utf-8")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 1
        assert f"{hyp}:1: carriage return" in capsys.readouterr().err

    def test_fixed_tsv_shape(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b c d e f\n", encoding="utf-8")
        ref.write_text("a b c d e f g\n", encoding="utf-8")
        main(["bleu", "--hyp", str(hyp), "--ref", str(ref)])
        fields = capsys.readouterr().out.strip().split("\t")
        assert len(fields) == 6  # score, p1..p4, bp
        assert fields[0] == "84.65"

    def _traced_peak(self, tmp_path, n):
        rng = random.Random(n)
        lines = [" ".join(rng.choices("abcdefgh", k=rng.randint(3, 12))) for _ in range(n)]
        hyp, ref = tmp_path / f"h{n}.txt", tmp_path / f"r{n}.txt"
        hyp.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        ref.write_text("".join(f"{line} a\n" for line in lines), encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 4096)
        self._traced_peak(tmp_path, 100)   # one-time allocations
        small = self._traced_peak(tmp_path, 1000)
        large = self._traced_peak(tmp_path, 4000)
        assert large < 1.5 * small

    @pytest.mark.parametrize("n_hyps, n_refs", [(3, 1), (1, 3), (2000, 1999), (1999, 2000)])
    def test_mismatch_found_at_the_end_names_both_counts(self, tmp_path, capsys, monkeypatch,
                                                         n_hyps, n_refs):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 4096)
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("a b c\n" * n_hyps, encoding="utf-8")
        ref.write_text("a b d\n" * n_refs, encoding="utf-8")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 1
        assert f"error: {n_hyps} hypotheses vs {n_refs} references" in capsys.readouterr().err

    def test_streamed_score_equals_corpus_bleu(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 256)
        rng = random.Random(3)
        hyps = [" ".join(rng.choices("abcd", k=rng.randint(0, 9))) for _ in range(300)]
        refs = [h if rng.random() < 0.3 else " ".join(rng.choices("abcd", k=rng.randint(1, 9)))
                for h in hyps]
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("".join(f"{line}\n" for line in hyps), encoding="utf-8")
        ref.write_text("".join(f"{line}\n" for line in refs), encoding="utf-8")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        result = corpus_bleu(hyps, refs)
        precisions = "\t".join(f"{p:.4f}" for p in result.precisions)
        assert capsys.readouterr().out == \
            f"{result.score:.2f}\t{precisions}\t{result.brevity_penalty:.4f}\n"

    def test_empty_files(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_bytes(b"")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(hyp)]) == 1
        assert "need at least one segment" in capsys.readouterr().err


class TestFilterCli:
    def test_filter_writes_outputs(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [
            ("good source", "good target"),
            ("has [UNK] here", "target"),
        ])])
        out_dir = tmp_path / "clean"
        rc = main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--out", str(out_dir), "--rejects", str(tmp_path / "rej"),
                   "--ratio", "3.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kept\t1" in out
        assert "rejected_ContainsUnk\t1" in out
        filtered = load_manifest(out_dir / "manifest.tsv")
        assert filtered.shards[0].declared_line_count == 1

    def test_non_finite_ratio_is_validation_error(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("a b", "c d")])])
        rc = main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--out", str(tmp_path / "clean"), "--ratio", "nan"])
        assert rc == 1
        assert "length_ratio_limit" in capsys.readouterr().err

    def test_bad_later_line_leaves_no_manifest(self, tmp_path, capsys):
        # The shards and kept lines before the bad line are already written.
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("s", "t")] * 3),
                                  ("b.tsv", "hr-en", "bitext", [("s", "t")] * 3)])
        with (tmp_path / "b.tsv").open("ab") as fh:
            fh.write(b"\xff\tbad\n")
        out_dir = tmp_path / "clean"
        assert main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(out_dir)]) == 1
        assert "error: b.tsv:4: not UTF-8" in capsys.readouterr().err
        assert not (out_dir / "manifest.tsv").exists()

    @pytest.mark.parametrize("rejects", ["clean", "clean/."])
    def test_rejects_into_the_output_directory_is_refused(self, tmp_path, capsys, rejects):
        # Reject rows would be appended to the kept shard of the same name.
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext",
                                   [("good one", "fine one"), ("", "empty")])])
        out_dir = tmp_path / "clean"
        assert main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(out_dir), "--rejects", str(tmp_path / rejects)]) == 1
        assert "is the output directory" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--out", "--rejects"])
    @pytest.mark.parametrize("via_link", [False, True])
    def test_output_shard_that_is_its_input_is_refused(self, tmp_path, capsys, flag, via_link):
        # Each output shard was started empty before its input was read: an
        # in-place --out exited 0 with "kept 0", an emptied a.tsv and an
        # input manifest overwritten with a count of 0.
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext",
                                   [("good one", "fine one"), ("good two", "fine two")])])
        before = {name: (tmp_path / name).read_bytes() for name in ("a.tsv", "manifest.tsv")}
        here = tmp_path
        if via_link:
            here = tmp_path / "link"
            here.symlink_to(tmp_path, target_is_directory=True)
        dirs = {"--out": tmp_path / "clean", "--rejects": tmp_path / "rej", flag: here}
        assert main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--out", str(dirs["--out"]), "--rejects", str(dirs["--rejects"])]) == 1
        err = capsys.readouterr().err
        assert f"error: output {here / 'a.tsv'} is the input {tmp_path / 'a.tsv'}" in err
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        # The refusal comes before any directory is made, the other one too.
        assert not dirs["--rejects" if flag == "--out" else "--out"].exists()

    def test_output_manifest_that_is_the_input_manifest_is_refused(self, tmp_path, capsys):
        # The input manifest was replaced by the filtered one and the run exited 0.
        (tmp_path / "raw").mkdir()
        (tmp_path / "meta").mkdir()
        (tmp_path / "raw" / "a.tsv").write_text("good one\tfine one\n", encoding="utf-8")
        manifest = tmp_path / "meta" / "manifest.tsv"
        manifest.write_text("../raw/a.tsv\thr\ten\tbitext\t1\n", encoding="utf-8")
        before = manifest.read_bytes()
        assert main(["filter", "--manifest", str(manifest),
                     "--out", str(tmp_path / "meta")]) == 1
        err = capsys.readouterr().err
        assert f"error: output {manifest} is the input {manifest}" in err
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in (tmp_path / "meta").iterdir()) == ["manifest.tsv"]

    def test_colliding_basenames(self, tmp_path, capsys):
        # A per-index prefix named y/a.tsv's output 002_a.tsv, over the
        # output of the shard 002_a.tsv.
        rows = {"x/a.tsv": "x", "002_a.tsv": "z", "y/a.tsv": "y"}
        for name, row in rows.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(f"{row} one\t{row} two\n", encoding="utf-8")
        (tmp_path / "m.tsv").write_text(
            "".join(f"{name}\thr\ten\tbitext\t1\n" for name in rows), encoding="utf-8")
        out_dir, rej_dir = tmp_path / "clean", tmp_path / "rej"
        assert main(["filter", "--manifest", str(tmp_path / "m.tsv"),
                     "--out", str(out_dir), "--rejects", str(rej_dir)]) == 0
        assert "kept\t3" in capsys.readouterr().out
        assert {p.name: p.read_text(encoding="utf-8") for p in out_dir.glob("*a.*")} == {
            "a.tsv": "x one\tx two\n", "002_a.tsv": "z one\tz two\n",
            "a.2.tsv": "y one\ty two\n"}
        assert sorted(p.name for p in rej_dir.iterdir()) == ["002_a.tsv", "a.2.tsv", "a.tsv"]
        assert main(["stats", "--manifest", str(out_dir / "manifest.tsv"), "--verify"]) == 0
        assert "direction\thr\ten\t3" in capsys.readouterr().out

    def test_script_rule_flag(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "sr-en", "bitext", [
            ("latinica ovde", "latin here"),
        ])])
        main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
              "--out", str(tmp_path / "clean"), "--script", "sr=Cyrl"])
        assert "rejected_WrongScript\t1" in capsys.readouterr().out

    @pytest.mark.parametrize("is_file, code", [(False, errno.ENOENT), (True, errno.ENOTDIR)],
                             ids=["missing", "file"])
    def test_langid_that_is_not_a_directory_is_io_error(self, tmp_path, capsys, is_file, code):
        # It exited 0 with "kept 2", or "rejected_BadLangId 2" with
        # --langid-required: no sidecar was found, so no verdict applied.
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("s1", "t1"), ("s2", "t2")])])
        langid = tmp_path / "langid"
        if is_file:
            langid.write_text("hr\ten\nhr\ten\n", encoding="utf-8")
        for extra in ([], ["--langid-required"]):
            assert main(["filter", "--manifest", str(tmp_path / "manifest.tsv"),
                         "--out", str(tmp_path / "o1"), "--langid", str(langid), *extra]) == 2
            assert capsys.readouterr().err.splitlines() == \
                [f"io error: {os.strerror(code)}: {langid}"]
            assert not (tmp_path / "o1").exists()


class TestShuffleCli:
    def test_deterministic(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext",
                                   [(f"s{i}", f"t{i}") for i in range(30)])])
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        main(["shuffle", "--manifest", str(tmp_path / "manifest.tsv"),
              "--seed", "5", "--out", str(o1)])
        main(["shuffle", "--manifest", str(tmp_path / "manifest.tsv"),
              "--seed", "5", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_missing_seed_is_printed(self, tmp_path, capsys):
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext", [("s", "t")])])
        main(["shuffle", "--manifest", str(tmp_path / "manifest.tsv"),
              "--out", str(tmp_path / "o")])
        assert "seed\t" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["manifest.tsv", "a.tsv"])
    def test_out_that_is_an_input_is_refused(self, tmp_path, capsys, name):
        # The file was replaced by the shuffled pair lines and the run exited 0.
        build_manifest(tmp_path, [("a.tsv", "hr-en", "bitext",
                                   [(f"s{i}", f"t{i}") for i in range(5)])])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["shuffle", "--manifest", str(tmp_path / "manifest.tsv"),
                     "--seed", "5", "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert f"error: output {tmp_path / name} is the input {tmp_path / name}" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSampleCli:
    def test_report_written(self, tmp_path, capsys):
        build_manifest(tmp_path, [
            ("bx.tsv", "hr-en", "bitext", [(f"s{i}", f"t{i}") for i in range(10)]),
            ("bt.tsv", "en-hu", "bt", [(f"s{i}", f"t{i}") for i in range(10)]),
            ("dp.tsv", "hr-hu", "dual_pseudo", [(f"s{i}", f"t{i}") for i in range(10)]),
        ])
        report = tmp_path / "composition.tsv"
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--temperature", "5", "--lambda", "0.6,0.2,0.2",
                   "--batch-size", "8", "--batches", "2", "--seed", "3",
                   "--report", str(report)])
        assert rc == 0
        lines = [l for l in report.read_text(encoding="utf-8").splitlines()
                 if not l.startswith("#")]
        assert lines
        batches = {line.split("\t")[0] for line in lines}
        assert batches == {"0", "1"}

    def test_empty_pool_fails_validation(self, tmp_path):
        build_manifest(tmp_path, [("bx.tsv", "hr-en", "bitext", [("s", "t")])])
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "0.6,0.2,0.2", "--seed", "1",
                   "--report", str(tmp_path / "r.tsv")])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan,0,0"), ("--lambda", "inf,1,1"), ("--temperature", "nan"),
    ])
    def test_non_finite_number_is_validation_error(self, tmp_path, capsys, flag, value):
        build_manifest(tmp_path, [("bx.tsv", "hr-en", "bitext", [("s", "t")])])
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "1,0,0", flag, value, "--seed", "1",
                   "--report", str(tmp_path / "r.tsv")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_weights_whose_sum_overflows_are_validation_error(self, tmp_path, capsys):
        # All three weights normalized to 0.0 and _cumulative raised IndexError.
        build_manifest(tmp_path, [("bx.tsv", "hr-en", "bitext", [("s", "t")])])
        report = tmp_path / "r.tsv"
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "1e308,1e308,0", "--seed", "1", "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == ["error: mixture weights must have a finite sum"]
        assert not report.exists()

    def test_negative_batches_is_validation_error(self, tmp_path, capsys):
        build_manifest(tmp_path, [("bx.tsv", "hr-en", "bitext", [("s", "t")])])
        report = tmp_path / "r.tsv"
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "1,0,0", "--batches", "-3", "--seed", "1",
                   "--report", str(report)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "batches must be >= 0, got -3" in captured.err
        assert "batches\t" not in captured.out
        assert not report.exists()

    @pytest.mark.parametrize("name", ["manifest.tsv", "bx.tsv"])
    def test_report_that_is_an_input_is_refused(self, tmp_path, capsys, name):
        # The file was replaced by the composition report and the run exited 0.
        build_manifest(tmp_path, [("bx.tsv", "hr-en", "bitext", [("s", "t")] * 4)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "1,0,0", "--seed", "1", "--report", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error: output {tmp_path / name} is the input {tmp_path / name}" in captured.err
        assert "batches\t" not in captured.out
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_stray_carriage_return_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "bx.tsv").write_bytes(b"s1\tt1\rs2\tt2\ns3\tt3\n")
        (tmp_path / "manifest.tsv").write_text("bx.tsv\thr\ten\tbitext\t2\n",
                                               encoding="utf-8")
        rc = main(["sample", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--lambda", "1,0,0", "--seed", "1", "--report", str(tmp_path / "r.tsv")])
        assert rc == 1
        assert "bx.tsv:1: carriage return" in capsys.readouterr().err


class TestAugmentCli:
    def test_plan_and_run(self, tmp_path, capsys):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("the cat sat\ngood day\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        rc = main(["augment", "plan", "--kind", "dual", "--mono", str(mono),
                   "--langs", "hr,hu", "--out", str(plan_path)])
        assert rc == 0
        assert "tasks\t2" in capsys.readouterr().out

        out_dir = tmp_path / "aug"
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", "cipher:42", "--out", str(out_dir)])
        assert rc == 0
        manifest = load_manifest(out_dir / "manifest.tsv")
        assert {str(s.direction) for s in manifest.shards} == {"hr-hu", "hu-hr"}

        # cipher:SEED must reproduce the same translator independently
        ciphers = CipherTranslator([
            CipherLanguage.from_seed(lang, derive_language_seed(42, lang))
            for lang in ("hr", "hu")])
        english = mono.read_text(encoding="utf-8").splitlines()
        shard = manifest.shard("dual.hr-hu.tsv")
        first_source = shard.path.read_text(encoding="utf-8").splitlines()[0].split("\t")[0]
        assert first_source == ciphers.translate([english[0]], Direction("en", "hr"))[0]

    def test_exec_translator(self, tmp_path):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("hello\nbye\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "de", "--out", str(plan_path)])
        command = (f"exec:{sys.executable} -c "
                   "'import sys\n"
                   "for line in sys.stdin: sys.stdout.write(line.upper())'")
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", command, "--out", str(tmp_path / "aug")])
        assert rc == 0
        shard = (tmp_path / "aug" / "bt.de-en.tsv").read_text(encoding="utf-8")
        assert shard.splitlines()[0] == "HELLO\thello"

    def test_triangulation_plan(self, tmp_path, capsys):
        bitext = tmp_path / "b.tsv"
        bitext.write_text("x\ty\n", encoding="utf-8")
        rc = main(["augment", "plan", "--kind", "tri", "--bitext", str(bitext),
                   "--direction", "hr-hu", "--new-tgt", "mk",
                   "--out", str(tmp_path / "plan.tsv")])
        assert rc == 0
        assert "tasks\t1" in capsys.readouterr().out
        rc = main(["augment", "run", "--plan", str(tmp_path / "plan.tsv"),
                   "--translator", "cipher:3", "--out", str(tmp_path / "aug")])
        assert rc == 0
        assert (tmp_path / "aug" / "tri.hr-mk.tsv").exists()

    def test_bad_translator_spec(self, tmp_path):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("x\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "de", "--out", str(plan_path)])
        assert main(["augment", "run", "--plan", str(plan_path),
                     "--translator", "magic", "--out", str(tmp_path / "a")]) == 1


    def test_plan_with_unknown_input_meta(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.tsv"
        plan_path.write_text("tri\tm.txt\tfoo\tmk-hr\thr-mk:dp\n", encoding="utf-8")
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", "cipher:1", "--out", str(tmp_path / "aug")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{plan_path}:1: input_meta must start with lang= or dir=" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("row", [
        "tri\tb.tsv\tlang=en\tmk-hr\thr-mk:dp",
        "bt\tb.tsv\tdir=hr-hu\thr-hu\thu-hr:bt,hr-hu:bt",
        # Output sides that name no column of the task. Each exited 0 with a
        # mislabelled shard: bt.hu-en.tsv with English as its hu column and
        # hr text as its en one, hr and hu text under dual.mk-sr.tsv, and mk
        # text under tri.hr-sr.tsv.
        "bt\tm.txt\tlang=en\ten-hr\thu-en:bt,en-hu:bt",
        "dual\tm.txt\tlang=en\ten-hr,en-hu\tmk-sr:dp",
        "tri\tb.tsv\tdir=hr-hu\thu-mk\thr-sr:dp",
    ])
    def test_task_that_does_not_fit_its_kind(self, tmp_path, capsys, monkeypatch, row):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("the cat sat\n", encoding="utf-8")
        (tmp_path / "b.tsv").write_text("hr words\thu words\n", encoding="utf-8")
        (tmp_path / "plan.tsv").write_text(row + "\n", encoding="utf-8")
        rc = main(["augment", "run", "--plan", "plan.tsv",
                   "--translator", "cipher:1", "--out", "aug"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: plan task 1 (" in err
        assert "Traceback" not in err
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("row", [
        "tri\tm.txt\tdir=en-hu\thu-mk\ten-mk:dp",
        "bt\tm.txt\tlang=hr\thr-mk\tmk-hr:bt",
    ])
    def test_tasks_that_disagree_on_an_input_meta(self, tmp_path, capsys, monkeypatch, row):
        # One input has one column layout and language per column, which
        # every task on it must name alike.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("the cat sat\n", encoding="utf-8")
        (tmp_path / "plan.tsv").write_text(f"bt\tm.txt\tlang=en\ten-hr\thr-en:bt\n{row}\n",
                                           encoding="utf-8")
        rc = main(["augment", "run", "--plan", "plan.tsv",
                   "--translator", "cipher:1", "--out", "aug"])
        assert rc == 1
        assert (f"error: plan task 2 ({row.split()[0]} m.txt): its input meta differs from "
                "that of plan task 1") in capsys.readouterr().err
        assert not (tmp_path / "aug").exists()

    def test_output_shard_that_is_an_input_is_refused(self, tmp_path, capsys, monkeypatch):
        # A mono input with the name of a shard written for it was started
        # empty before it was read, and the run exited 0 with empty shards.
        monkeypatch.chdir(tmp_path)
        Path("aug").mkdir()
        mono = Path("aug/bt.hr-en.tsv")
        mono.write_text("the cat sat\ngood day\n", encoding="utf-8")
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "hr", "--out", "plan.tsv"])
        capsys.readouterr()
        rc = main(["augment", "run", "--plan", "plan.tsv",
                   "--translator", "cipher:1", "--out", "aug"])
        assert rc == 1
        assert f"error: output {mono} is the input {mono}" in capsys.readouterr().err
        assert mono.read_text(encoding="utf-8") == "the cat sat\ngood day\n"
        assert sorted(p.name for p in Path("aug").iterdir()) == ["bt.hr-en.tsv"]

    def test_repeated_plan_task_is_refused(self, tmp_path, capsys, monkeypatch):
        # A plan that gave one task twice ran, and wrote bt.hr-en.tsv and
        # bt.hr-en.2.tsv with the same rows.
        monkeypatch.chdir(tmp_path)
        Path("mono.en.txt").write_text("the cat sat\n", encoding="utf-8")
        main(["augment", "plan", "--kind", "bt", "--mono", "mono.en.txt",
              "--langs", "hr", "--out", "plan.tsv"])
        capsys.readouterr()
        header, task = Path("plan.tsv").read_text(encoding="utf-8").splitlines()
        Path("plan.tsv").write_text(f"{header}\n{task}\n{task}\n", encoding="utf-8")
        rc = main(["augment", "run", "--plan", "plan.tsv",
                   "--translator", "cipher:1", "--out", "aug"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: plan.tsv:3: plan task 2 (bt mono.en.txt) repeats plan task 1\n"
        assert not Path("aug").exists()

    def test_output_manifest_that_is_the_plan_is_refused(self, tmp_path, capsys, monkeypatch):
        # The plan was replaced by the output manifest and the run exited 0.
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        Path("mono.en.txt").write_text("the cat sat\ngood day\n", encoding="utf-8")
        plan = Path("d/manifest.tsv")
        main(["augment", "plan", "--kind", "bt", "--mono", "mono.en.txt",
              "--langs", "hr", "--out", str(plan)])
        capsys.readouterr()
        before = plan.read_bytes()
        rc = main(["augment", "run", "--plan", str(plan),
                   "--translator", "cipher:1", "--out", "d"])
        assert rc == 1
        assert f"error: output {plan} is the input {plan}" in capsys.readouterr().err
        assert plan.read_bytes() == before
        assert sorted(p.name for p in Path("d").iterdir()) == ["manifest.tsv"]

    def test_stray_carriage_return_past_the_first_chunk(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 64)
        mono = tmp_path / "mono.en.txt"
        lines = ["the cat sat on the mat"] * 40
        lines[34] = "the cat\rsat"
        mono.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "hr", "--out", str(plan_path)])
        out = tmp_path / "aug"
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", "cipher:1", "--out", str(out)])
        assert rc == 1
        assert f"{mono}:35: " in capsys.readouterr().err
        assert not (out / "manifest.tsv").exists()
        # The rows of the chunks before the bad line are already written.
        assert (out / "bt.hr-en.tsv").read_text(encoding="utf-8").count("\n") > 0

    def test_tab_in_monolingual_line(self, tmp_path, capsys):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("the cat sat\ngood\tday\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "hr", "--out", str(plan_path)])
        out = tmp_path / "aug"
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", "cipher:1", "--out", str(out)])
        assert rc == 1
        assert f"{mono}:2: expected no tab" in capsys.readouterr().err
        assert (out / "bt.hr-en.tsv").read_bytes() == b""
        assert not (out / "manifest.tsv").exists()

    def test_tab_in_translation(self, tmp_path, capsys):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("hello world\ngood day\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "hr", "--out", str(plan_path)])
        # Like `tr o '\t'`: every "o" becomes a tab.
        command = (f"exec:{sys.executable} -c "
                   "'import sys\n"
                   "for line in sys.stdin: sys.stdout.write(line.replace(chr(111), chr(9)))'")
        out = tmp_path / "aug"
        rc = main(["augment", "run", "--plan", str(plan_path),
                   "--translator", command, "--out", str(out)])
        assert rc == 1
        assert f"{mono}:1: its en-hr translation holds a tab" in capsys.readouterr().err
        assert (out / "bt.hr-en.tsv").read_bytes() == b""
        assert not (out / "manifest.tsv").exists()

    @pytest.mark.parametrize("timeout", ["nan", "-5", "inf"])
    @pytest.mark.parametrize("translator", ["cipher:1", "exec:/nonexistent-binary"])
    @pytest.mark.parametrize("command", ["augment run", "route translate"])
    def test_timeout_must_be_positive_and_finite(self, tmp_path, capsys,
                                                 command, translator, timeout):
        mono = tmp_path / "mono.en.txt"
        mono.write_text("hello\n", encoding="utf-8")
        plan_path = tmp_path / "plan.tsv"
        main(["augment", "plan", "--kind", "bt", "--mono", str(mono),
              "--langs", "de", "--out", str(plan_path)])
        table = tmp_path / "table.tsv"
        table.write_text("en\tde\tdirect\ten\t10.0\t12.0\n", encoding="utf-8")
        inputs = {"augment run": ["--plan", str(plan_path)],
                  "route translate": ["--table", str(table), "--direction", "en-de",
                                      "--input", str(mono)]}
        out = tmp_path / "out"
        rc = main([*command.split(), *inputs[command], f"--timeout={timeout}",
                   "--translator", translator, "--out", str(out)])
        assert rc == 1
        assert "timeout must be a positive number" in capsys.readouterr().err
        assert not out.exists()


class TestRouteCli:
    def test_build_and_translate(self, tmp_path, capsys):
        direct = tmp_path / "direct.tsv"
        pivot = tmp_path / "pivot.tsv"
        direct.write_text("hr\thu\t10.0\t1\t1\t1\t1\t1.0\t10\t10\n", encoding="utf-8")
        pivot.write_text("hr\thu\t60.0\t1\t1\t1\t1\t1.0\t10\t10\n", encoding="utf-8")
        table_path = tmp_path / "table.tsv"
        rc = main(["route", "build", "--direct", str(direct), "--pivot", str(pivot),
                   "--pivot-lang", "en", "--out", str(table_path)])
        assert rc == 0
        assert "pivot_routed\t1" in capsys.readouterr().out

        ciphers = CipherTranslator([
            CipherLanguage.from_seed(lang, derive_language_seed(7, lang))
            for lang in ("hr", "hu")])
        english = ["the cat sat", "good day"]
        sources = ciphers.translate(english, Direction("en", "hr"))
        expected = ciphers.translate(english, Direction("en", "hu"))
        src_file = tmp_path / "in.txt"
        src_file.write_text("".join(s + "\n" for s in sources), encoding="utf-8")
        out_file = tmp_path / "out.txt"
        rc = main(["route", "translate", "--table", str(table_path),
                   "--translator", "cipher:7", "--direction", "hr-hu",
                   "--input", str(src_file), "--out", str(out_file)])
        assert rc == 0
        assert out_file.read_bytes() == "".join(s + "\n" for s in expected).encode()

    def test_endpoint_pivot_row_decodes_directly(self, tmp_path, capsys):
        # It failed with "pivot 'en' must differ from both endpoints" and no
        # table location, while evaluate_directions decodes en-hr directly.
        table = tmp_path / "table.tsv"
        table.write_text("en\thr\tpivot\ten\t10.0\t60.0\n", encoding="utf-8")
        (tmp_path / "in.txt").write_text("the cat sat\ngood day\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["route", "translate", "--table", str(table), "--translator", "cipher:7",
                     "--direction", "en-hr", "--input", str(tmp_path / "in.txt"),
                     "--out", str(out)]) == 0
        hr = CipherTranslator([CipherLanguage.from_seed("hr", derive_language_seed(7, "hr"))])
        expected = hr.translate(["the cat sat", "good day"], Direction("en", "hr"))
        assert out.read_bytes() == "".join(s + "\n" for s in expected).encode()

    def test_unknown_direction_is_found_before_the_input_is_read(self, tmp_path, capsys):
        # It read --input first, so a missing input exited 2 (io error).
        table = tmp_path / "table.tsv"
        table.write_text("hr\thu\tdirect\ten\t60.0\t10.0\n", encoding="utf-8")
        assert main(["route", "translate", "--table", str(table), "--translator", "cipher:7",
                     "--direction", "hr-mk", "--input", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "out.txt")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: no routing entry for hr-mk"]
        assert not (tmp_path / "out.txt").exists()

    def test_mismatched_matrices(self, tmp_path):
        direct = tmp_path / "direct.tsv"
        pivot = tmp_path / "pivot.tsv"
        direct.write_text("hr\thu\t10.0\t1\t1\t1\t1\t1.0\t10\t10\n", encoding="utf-8")
        pivot.write_text("hu\thr\t60.0\t1\t1\t1\t1\t1.0\t10\t10\n", encoding="utf-8")
        assert main(["route", "build", "--direct", str(direct),
                     "--pivot", str(pivot), "--out", str(tmp_path / "t")]) == 1


    def test_bad_pivot_language(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("hr\thu\t10.0\t1\t1\t1\t1\t1.0\t10\t10\n", encoding="utf-8")
        table = tmp_path / "table.tsv"
        assert main(["route", "build", "--direct", str(scores), "--pivot", str(scores),
                     "--pivot-lang", "EN", "--out", str(table)]) == 1
        assert "invalid language code: 'EN'" in capsys.readouterr().err
        assert not table.exists()


class TestOutputThatIsAnInput:
    """An output path that names one of the command's inputs is refused
    before anything is written. Each of these replaced its input and exited 0
    before the check."""

    @staticmethod
    def _tree(root):
        build_manifest(root, [("a.tsv", "hr-en", "bitext", [("s1", "t1"), ("s2", "t2")])])
        (root / "mono.txt").write_text("the cat sat\ngood day\n", encoding="utf-8")
        (root / "direct.tsv").write_text("hr\thu\t10.0\t1\t1\t1\t1\t1.0\t10\t10\n",
                                         encoding="utf-8")
        (root / "pivot.tsv").write_text("hr\thu\t60.0\t1\t1\t1\t1\t1.0\t10\t10\n",
                                        encoding="utf-8")
        assert main(["route", "build", "--direct", "direct.tsv", "--pivot", "pivot.tsv",
                     "--out", "table.tsv"]) == 0
        (root / "in.txt").write_text("the cat sat\n", encoding="utf-8")

    STATS = ["stats", "--manifest", "manifest.tsv"]
    BUILD = ["route", "build", "--direct", "direct.tsv", "--pivot", "pivot.tsv"]
    TRANSLATE = ["route", "translate", "--table", "table.tsv", "--translator", "cipher:7",
                 "--direction", "hr-hu", "--input", "in.txt"]

    @pytest.mark.parametrize("argv, out", [
        pytest.param(STATS, "manifest.tsv", id="stats-manifest"),
        pytest.param(STATS, "a.tsv", id="stats-shard"),
        pytest.param(["augment", "plan", "--kind", "bt", "--mono", "mono.txt", "--langs", "hr"],
                     "mono.txt", id="augment-plan-mono"),
        pytest.param(["augment", "plan", "--kind", "tri", "--bitext", "a.tsv",
                      "--direction", "hr-en", "--new-tgt", "mk"], "a.tsv",
                     id="augment-plan-bitext"),
        pytest.param(BUILD, "direct.tsv", id="route-build-direct"),
        pytest.param(BUILD, "pivot.tsv", id="route-build-pivot"),
        pytest.param(TRANSLATE, "table.tsv", id="route-translate-table"),
        pytest.param(TRANSLATE, "in.txt", id="route-translate-input"),
    ])
    def test_refused_with_the_input_unchanged(self, tmp_path, capsys, monkeypatch, argv, out):
        monkeypatch.chdir(tmp_path)
        self._tree(tmp_path)
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv + ["--out", out]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: output {out} is the input {out}: "
                          "writing it would truncate the input"]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert main(argv + ["--out", "elsewhere.out"]) == 0   # control: only the path is at fault


class TestCurriculumCli:
    def test_valid_schedule(self, tmp_path, capsys):
        path = tmp_path / "schedule.tsv"
        path.write_text(
            "s1\tnoisy\tall\t0.33,0.33,0.33\t24\t12\n"
            "s2\tclean:3.0\thr-en\t0.6,0.2,0.2\t36\t12\n", encoding="utf-8")
        assert main(["curriculum", "check", "--schedule", str(path)]) == 0
        assert "ok\t2" in capsys.readouterr().out

    def test_invalid_schedule(self, tmp_path, capsys):
        path = tmp_path / "schedule.tsv"
        path.write_text(
            "s1\tclean:1.5\tall\t0.33,0.33,0.33\t24\t12\n"
            "s2\tnoisy\tall\t0.33,0.33,0.33\t24\t12\n", encoding="utf-8")
        assert main(["curriculum", "check", "--schedule", str(path)]) == 1
        assert "loosened" in capsys.readouterr().err


class TestDemoCli:
    def test_seed_42_bytes_are_pinned(self, tmp_path, capsys):
        assert main(["demo", "--out", str(tmp_path / "d"), "--seed", "42"]) == 0
        assert capsys.readouterr().out == "summary\tsummary.tsv\n"
        assert tree_digest(tmp_path / "d") == \
            "894a0b61c3fd04ae55f98d5bc3f5e80389089d10104786a07bbdecc439cbc751"

    def test_two_runs_identical_trees(self, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["demo", "--out", str(d1), "--seed", "777"]) == 0
        assert main(["demo", "--out", str(d2), "--seed", "777"]) == 0
        assert tree_digest(d1) == tree_digest(d2)

    def test_different_seeds_differ(self, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        main(["demo", "--out", str(d1), "--seed", "1"])
        main(["demo", "--out", str(d2), "--seed", "2"])
        assert tree_digest(d1) != tree_digest(d2)

    @pytest.mark.parametrize("noise", ["nan", "-0.1", "1.5", "inf"])
    def test_bad_noise_is_refused_before_any_write(self, tmp_path, capsys, noise):
        # A NaN was refused only after 45 files were written.
        out = tmp_path / "d"
        assert main(["demo", "--out", str(out), "--direct-noise", noise, "--seed", "1"]) == 1
        assert "noise_rate must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_noisy_demo_routes_via_pivot(self, tmp_path):
        out = tmp_path / "demo"
        main(["demo", "--out", str(out), "--seed", "9", "--direct-noise", "0.5"])
        summary = (out / "reports" / "summary.tsv").read_text(encoding="utf-8")
        assert "route\tpivot_routed\t6" in summary
        assert "bleu\tdevtest_avg_all\t100.00" in summary
