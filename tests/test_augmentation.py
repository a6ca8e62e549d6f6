import os
import random
import tracemalloc

import pytest

from mtforge import corpus
from mtforge.augmentation import (
    AugmentationPlan,
    AugmentationTask,
    BitextCorpusRef,
    MonoCorpusRef,
    TaskKind,
    TaskOutput,
    all_ordered_pairs,
    load_plan,
    plan_backtranslation,
    plan_dual_pseudo,
    plan_triangulation,
    run_plan,
    save_plan,
)
from mtforge.corpus import Direction, OriginPool
from mtforge.errors import MalformedLineError, MTForgeError, TableError
from mtforge.translator import CipherLanguage, CipherTranslator, Translator
from mtforge.wordlist import COMMON_WORDS


@pytest.fixture
def mono(tmp_path):
    path = tmp_path / "mono.en.txt"
    path.write_text("the cat sat\ngood day to you\nwe want water\n",
                    encoding="utf-8")
    return MonoCorpusRef(path, "en")


@pytest.fixture
def translator():
    return CipherTranslator([CipherLanguage.from_seed(lang, i)
                             for i, lang in enumerate(["hr", "hu", "mk"])])


class TestPlanBacktranslation:
    def test_single_language(self, mono):
        plan = plan_backtranslation(mono, ["hr"])
        assert len(plan.tasks) == 1
        task = plan.tasks[0]
        assert task.needed == (Direction("en", "hr"),)
        assert {o.direction for o in task.outputs} == \
            {Direction("hr", "en"), Direction("en", "hr")}
        assert all(o.origin is OriginPool.BACK_TRANSLATION for o in task.outputs)

    def test_two_languages_two_tasks(self, mono):
        assert len(plan_backtranslation(mono, ["hr", "hu"]).tasks) == 2

    def test_no_languages_empty_plan(self, mono):
        assert plan_backtranslation(mono, []).tasks == []

    def test_empty_monolingual(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(MTForgeError, match=f"monolingual corpus {empty} is missing or empty"):
            plan_backtranslation(MonoCorpusRef(empty, "en"), ["hr"])

    def test_mono_language_excluded(self, mono):
        with pytest.raises(ValueError):
            plan_backtranslation(mono, ["en", "hr"])

    def test_repeated_language(self, tmp_path):
        # Checked before the corpus is, so the missing file is not named.
        with pytest.raises(ValueError, match="^target language hr is given twice$"):
            plan_backtranslation(MonoCorpusRef(tmp_path / "absent.txt", "en"), ["hr", "hu", "hr"])


class TestPlanDualPseudo:
    def test_single_pair(self, mono):
        plan = plan_dual_pseudo(mono, [Direction("hr", "hu")])
        task = plan.tasks[0]
        assert set(task.needed) == {Direction("en", "hr"), Direction("en", "hu")}
        assert task.outputs[0].origin is OriginPool.DUAL_PSEUDO

    def test_full_grid_needs_k_passes(self, mono):
        langs = ["hr", "hu", "mk"]
        plan = plan_dual_pseudo(mono, all_ordered_pairs(langs))
        assert len(plan.tasks) == 6  # K*(K-1)
        assert plan.needed_directions == {Direction("en", l) for l in langs}

    def test_english_in_pair(self, mono):
        with pytest.raises(MTForgeError, match="pair hr-en must not contain the pivot language"):
            plan_dual_pseudo(mono, [Direction("hr", "en")])

    def test_repeated_pair(self, tmp_path):
        pairs = [Direction("hr", "hu"), Direction("hu", "hr"), Direction("hr", "hu")]
        with pytest.raises(ValueError, match="^dual-pseudo pair hr-hu is given twice$"):
            plan_dual_pseudo(MonoCorpusRef(tmp_path / "absent.txt", "en"), pairs)

    def test_repeated_language_in_grid(self):
        with pytest.raises(ValueError, match="^language hr is given twice$"):
            all_ordered_pairs(["hr", "hu", "hr"])

    @pytest.mark.parametrize("langs", [[], ["hr"]])
    def test_grid_needs_two_languages(self, langs):
        # One language made an empty grid, and so a plan of no tasks.
        with pytest.raises(ValueError, match="^ordered pairs need at least two languages, "
                                             f"got {len(langs)}$"):
            all_ordered_pairs(langs)


class TestPlanTriangulation:
    def test_new_target(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        plan = plan_triangulation(bitext, new_tgt="mk")
        task = plan.tasks[0]
        assert task.needed == (Direction("hu", "mk"),)
        assert task.outputs[0].direction == Direction("hr", "mk")
        assert task.outputs[0].origin is OriginPool.DUAL_PSEUDO

    def test_both_sides(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        plan = plan_triangulation(bitext, new_src="et", new_tgt="mk")
        outputs = {t.outputs[0].direction for t in plan.tasks}
        assert outputs == {Direction("hr", "mk"), Direction("et", "hu")}

    def test_neither_side(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        with pytest.raises(MTForgeError, match="triangulation needs new_src and/or new_tgt"):
            plan_triangulation(bitext)

    def test_collision_with_existing_side(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        with pytest.raises(ValueError):
            plan_triangulation(bitext, new_tgt="hr")

    def test_new_source_collides_with_a_side(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        with pytest.raises(ValueError, match="new source 'hu' collides with the bitext sides"):
            plan_triangulation(bitext, new_src="hu")


class TestRunPlan:
    def test_backtranslation_preserves_authentic_side(self, mono, translator, tmp_path):
        plan = plan_backtranslation(mono, ["hr"])
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        assert len(manifest.shards) == 2
        english = mono.path.read_text(encoding="utf-8").splitlines()

        to_en = manifest.shard("bt.hr-en.tsv")
        rows = [line.split("\t") for line in
                to_en.path.read_text(encoding="utf-8").splitlines()]
        assert [r[1] for r in rows] == english  # target side untouched
        from_en = manifest.shard("bt.en-hr.tsv")
        rows2 = [line.split("\t") for line in
                 from_en.path.read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows2] == english
        # same synthetic pass reused on both orientations
        assert [r[0] for r in rows] == [r[1] for r in rows2]

    def test_dual_pseudo_rows_align_through_english(self, mono, translator, tmp_path):
        plan = plan_dual_pseudo(mono, [Direction("hr", "hu")])
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        shard = manifest.shards[0]
        english = mono.path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(shard.path.read_text(encoding="utf-8").splitlines()):
            x, y = line.split("\t")
            assert x == translator.translate([english[i]], Direction("en", "hr"))[0]
            assert y == translator.translate([english[i]], Direction("en", "hu"))[0]

    def test_dual_pseudo_direct_translate_equals_target(self, mono, translator, tmp_path):
        plan = plan_dual_pseudo(mono, all_ordered_pairs(["hr", "hu"]))
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        for shard in manifest.shards:
            sources, targets = [], []
            for line in shard.path.read_text(encoding="utf-8").splitlines():
                s, t = line.split("\t")
                sources.append(s)
                targets.append(t)
            assert translator.translate(sources, shard.direction) == targets

    def test_triangulation(self, translator, tmp_path):
        english = ["the cat sat", "good day"]
        bitext_path = tmp_path / "b.tsv"
        with bitext_path.open("w", encoding="utf-8") as fh:
            for e in english:
                hr = translator.translate([e], Direction("en", "hr"))[0]
                hu = translator.translate([e], Direction("en", "hu"))[0]
                fh.write(f"{hr}\t{hu}\n")
        plan = plan_triangulation(BitextCorpusRef(bitext_path, Direction("hr", "hu")),
                                  new_tgt="mk")
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        shard = manifest.shards[0]
        assert shard.direction == Direction("hr", "mk")
        for i, line in enumerate(shard.path.read_text(encoding="utf-8").splitlines()):
            x, y = line.split("\t")
            assert y == translator.translate([english[i]], Direction("en", "mk"))[0]

    def test_fail_fast_before_output(self, mono, translator, tmp_path):
        plan = plan_backtranslation(mono, ["de"])  # no such cipher
        out = tmp_path / "out"
        with pytest.raises(MTForgeError, match="translator does not support: en-de"):
            run_plan(plan, translator, None, out)
        assert not out.exists() or not list(out.iterdir())

    def test_empty_plan(self, translator, tmp_path):
        manifest = run_plan(AugmentationPlan([]), translator, None, tmp_path / "out")
        assert manifest.shards == []

    def test_stray_carriage_return_in_input(self, translator, tmp_path):
        # Text mode would translate four lines; the file has three.
        path = tmp_path / "mono.en.txt"
        path.write_bytes(b"the cat sat\r\ngood day\rto you\nwe want water\n")
        plan = plan_backtranslation(MonoCorpusRef(path, "en"), ["hr"])
        with pytest.raises(MalformedLineError) as err:
            run_plan(plan, translator, None, tmp_path / "out")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("kind, data, line_no", [
        ("bt", "the cat sat\ngood\tday\n", 2),      # would be a row with two tabs
        ("dual", "good\tday\n", 1),
        ("tri", "x\ty\nno tab here\n", 2),         # would be read as ("no tab here", "")
        ("tri", "x\ty\nx\ty\tz\n", 2),             # would put the second tab in the target
    ])
    def test_input_line_that_would_misalign_rows(self, translator, tmp_path,
                                                 kind, data, line_no):
        path = tmp_path / "input.txt"
        path.write_text(data, encoding="utf-8")
        if kind == "tri":
            plan = plan_triangulation(BitextCorpusRef(path, Direction("hr", "hu")),
                                      new_tgt="mk")
        elif kind == "bt":
            plan = plan_backtranslation(MonoCorpusRef(path, "en"), ["hr"])
        else:
            plan = plan_dual_pseudo(MonoCorpusRef(path, "en"), [Direction("hr", "hu")])
        out = tmp_path / "out"
        with pytest.raises(MalformedLineError) as err:
            run_plan(plan, translator, None, out)
        assert (err.value.path, err.value.line_no) == (path, line_no)
        assert str(err.value).startswith(f"{path}:{line_no}: expected ")
        # The chunk holding the bad line wrote no row.
        assert all(shard.read_bytes() == b"" for shard in out.iterdir())

    @pytest.mark.parametrize("kind", ["bt", "dual", "tri"])
    @pytest.mark.parametrize("bad", ["\t", "\n", "\r"])
    def test_translation_that_would_misalign_rows(self, translator, tmp_path, monkeypatch,
                                                  kind, bad):
        path = tmp_path / "input.txt"
        row = "the cat\tsat down" if kind == "tri" else "the cat sat down"
        path.write_text(f"{row}\n" * 40, encoding="utf-8")
        if kind == "tri":
            plan = plan_triangulation(BitextCorpusRef(path, _BITEXT), new_src="mk")
        elif kind == "bt":
            plan = plan_backtranslation(MonoCorpusRef(path, "en"), ["hr"])
        else:
            plan = plan_dual_pseudo(MonoCorpusRef(path, "en"), [Direction("hr", "hu")])
        direction = plan.tasks[0].needed[-1]
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 100)   # line 31 is in a later chunk
        faulty = _Rewriting(translator, direction, lambda out, start: [
            text + bad if start + i == 31 else text for i, text in enumerate(out)])
        with pytest.raises(TableError) as err:
            run_plan(plan, faulty, None, tmp_path / "out")
        assert (err.value.path, err.value.line_no) == (path, 31)
        assert str(err.value) == \
            f"{path}:31: its {direction} translation holds a tab or line break"

    @pytest.mark.parametrize("kind", ["bt", "tri"])
    def test_translation_of_the_wrong_size(self, translator, tmp_path, kind):
        path = tmp_path / "input.txt"
        if kind == "tri":
            path.write_text("x\ty\nz\tw\n", encoding="utf-8")
            plan = plan_triangulation(BitextCorpusRef(path, _BITEXT), new_tgt="mk")
        else:
            path.write_text("the cat\ngood day\n", encoding="utf-8")
            plan = plan_backtranslation(MonoCorpusRef(path, "en"), ["hr"])
        direction = plan.tasks[0].needed[0]
        short = _Rewriting(translator, direction, lambda out, start: out[:-1])
        with pytest.raises(MTForgeError, match=(
                f"^{path}:1: the translator returned 1 {direction} translations "
                "for the 2 lines from here$")):
            run_plan(plan, short, None, tmp_path / "out")
        assert all(shard.read_bytes() == b"" for shard in (tmp_path / "out").iterdir())

    def test_translation_of_a_missing_direction(self, mono, tmp_path):
        class Forgetful(CipherTranslator):
            def translate_many(self, sentences, directions, config=None):
                out = super().translate_many(sentences, directions, config)
                del out[Direction("en", "hu")]
                return out

        forgetful = Forgetful(CipherLanguage.from_seed(lang, 1) for lang in ("hr", "hu"))
        plan = plan_dual_pseudo(mono, [Direction("hr", "hu")])
        with pytest.raises(MTForgeError, match=(
                f"^{mono.path}:1: the translator returned no en-hu translations "
                "for the 3 lines from here$")):
            run_plan(plan, forgetful, None, tmp_path / "out")

    def test_manifest_counts_match_files(self, mono, translator, tmp_path):
        plan = plan_backtranslation(mono, ["hr", "hu"])
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        for shard in manifest.shards:
            actual = len(shard.path.read_text(encoding="utf-8").splitlines())
            assert actual == shard.declared_line_count == 3


_BITEXT = Direction("hr", "hu")
_BT, _DUAL, _TRI = TaskKind.BACK_TRANSLATION, TaskKind.DUAL_PSEUDO, TaskKind.TRIANGULATION


class TestTaskKindChecks:
    """A plan file may pair any kind with any input meta and outputs;
    ``run_plan`` refuses a task that does not fit its kind, or an output
    side that names no column of the task, before it writes anything."""

    @pytest.mark.parametrize("kind, meta, needed, outputs, problem", [
        (_TRI, "en", ["mk-hr"], ["hr-mk"], "needs a bitext input"),
        (_BT, _BITEXT, ["hr-hu"], ["hu-hr", "hr-hu"], "needs a monolingual input"),
        (_DUAL, _BITEXT, ["en-hr", "en-hu"], ["hr-hu"], "needs a monolingual input"),
        (_DUAL, "en", ["en-hr"], ["hr-hu"], "needs 2 needed direction"),
        (_BT, "en", ["en-hr", "en-hu"], ["hr-en"], "needs 1 needed direction"),
        (_DUAL, "en", ["en-hr", "en-hu"], ["hr-hu", "hu-hr"], "needs 1 output"),
        (_BT, "en", ["hr-hu"], ["hu-en"], "needs directions from en"),
        (_TRI, _BITEXT, ["mk-en"], ["hr-en"], "needs directions from hr or hu"),
        (_BT, "en", ["en-hr"], ["hu-en", "en-hu"], "output hu-en names hu, which is neither"),
        (_DUAL, "en", ["en-hr", "en-hu"], ["mk-sr"], "output mk-sr names mk, which is neither"),
        (_TRI, _BITEXT, ["hu-mk"], ["hr-sr"], "output hr-sr names sr, which is neither"),
    ])
    def test_mismatched_task_fails_before_output(self, mono, translator, tmp_path,
                                                 kind, meta, needed, outputs, problem):
        bitext = tmp_path / "b.tsv"
        bitext.write_text("hr words\thu words\n", encoding="utf-8")
        ref = MonoCorpusRef(bitext, meta) if isinstance(meta, str) \
            else BitextCorpusRef(bitext, meta)
        task = AugmentationTask(
            kind, ref, tuple(map(Direction.parse, needed)),
            tuple(TaskOutput(Direction.parse(d), OriginPool.DUAL_PSEUDO) for d in outputs))
        plan = plan_backtranslation(mono, ["hr"]).extend(AugmentationPlan([task]))
        out = tmp_path / "out"
        with pytest.raises(MTForgeError, match=rf"plan task 2 \({kind.value} .*\): {problem}"):
            run_plan(plan, translator, None, out)
        assert not out.exists()


def _english(n: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choices(COMMON_WORDS, k=rng.randint(4, 20))) for _ in range(n)]


class _Recorder(Translator):
    """Passes calls through, noting each call's direction, size and the
    number of descriptors the process has open during it."""

    def __init__(self, inner: Translator):
        self._inner = inner
        self.calls: list[tuple[Direction, int, int]] = []

    @property
    def supported_directions(self):
        return self._inner.supported_directions

    def translate(self, sentences, direction, config=None):
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
        self.calls.append((direction, len(sentences), fds))
        return self._inner.translate(sentences, direction, config)


class _Rewriting(_Recorder):
    """Passes calls through, with each translation list of ``direction``
    rewritten by ``rewrite(out, start)``; ``start`` numbers the call's first
    sentence from 1 across calls."""

    def __init__(self, inner: Translator, direction: Direction, rewrite):
        super().__init__(inner)
        self._direction = direction
        self._rewrite = rewrite
        self._start = 1

    def translate(self, sentences, direction, config=None):
        out = super().translate(sentences, direction, config)
        if direction != self._direction:
            return out
        start, self._start = self._start, self._start + len(sentences)
        return self._rewrite(out, start)


class _ManyRecorder(_Recorder):
    """A _Recorder that also passes ``translate_many`` through, noting each
    call's sentences and directions."""

    def __init__(self, inner: Translator):
        super().__init__(inner)
        self.many: list[tuple[tuple[str, ...], list[Direction]]] = []

    def translate_many(self, sentences, directions, config=None):
        directions = list(directions)
        self.many.append((tuple(sentences), directions))
        return self._inner.translate_many(sentences, directions, config)


def _outputs(plan, translator, out) -> dict[str, bytes]:
    run_plan(plan, translator, None, out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestStreaming:
    @pytest.fixture
    def mixed_plan(self, tmp_path, translator):
        """bt (one language twice, so a shard name is numbered), dual over
        three languages and tri on both sides, over inputs with CRLF ends
        and no last line end."""
        english = _english(300)
        mono = tmp_path / "mono.en.txt"
        mono.write_bytes("".join(line + ("\r\n" if i % 7 == 0 else "\n")
                                 for i, line in enumerate(english)).encode()[:-1])
        hr = translator.translate(english[:120], Direction("en", "hr"))
        hu = translator.translate(english[:120], Direction("en", "hu"))
        bitext = tmp_path / "b.tsv"
        bitext.write_text("".join(f"{x}\t{y}\r\n" for x, y in zip(hr, hu)), encoding="utf-8")
        ref = MonoCorpusRef(mono, "en")
        return (plan_backtranslation(ref, ["hr", "mk"])
                .extend(plan_dual_pseudo(ref, all_ordered_pairs(["hr", "hu", "mk"])))
                .extend(plan_backtranslation(ref, ["hr"]))
                .extend(plan_triangulation(BitextCorpusRef(bitext, _BITEXT),
                                           new_src="mk", new_tgt="mk")))

    def test_chunked_run_equals_single_chunk_run(self, mixed_plan, translator, tmp_path,
                                                 monkeypatch):
        whole = _outputs(mixed_plan, translator, tmp_path / "whole")
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 97)
        recorder = _Recorder(translator)
        chunked = _outputs(mixed_plan, recorder, tmp_path / "chunked")
        assert chunked == whole
        assert len(whole) == 3 * 2 + 6 + 2 + 1   # shards and the manifest
        assert "bt.hr-en.2.tsv" in whole
        # Each en->X pass is computed once per chunk and shared by its tasks.
        per_direction = {}
        for direction, n, _ in recorder.calls:
            per_direction.setdefault(direction, []).append(n)
        assert sum(per_direction[Direction("en", "hr")]) == 300
        assert len(per_direction[Direction("en", "hr")]) > 50
        assert sum(per_direction[Direction("hu", "mk")]) == 120

    def test_translate_many_once_per_mono_chunk(self, mixed_plan, translator, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 97)
        cipher = _outputs(mixed_plan, translator, tmp_path / "cipher")
        # _Recorder implements only translate: one call per chunk and direction.
        assert _outputs(mixed_plan, _Recorder(translator), tmp_path / "translate") == cipher
        recorder = _ManyRecorder(translator)
        assert _outputs(mixed_plan, recorder, tmp_path / "many") == cipher
        mono_chunks = list(corpus.iter_line_chunks(mixed_plan.tasks[0].corpus.path))
        bitext_chunks = list(corpus.iter_line_chunks(mixed_plan.tasks[-1].corpus.path))
        assert len(mono_chunks) > 1 and len(bitext_chunks) > 1
        # One call per input side per chunk: the mono column for all en->X
        # passes, and each bitext side for the hops that start from it.
        shared = [Direction("en", "hr"), Direction("en", "mk"), Direction("en", "hu")]
        expected = [(tuple(lines), shared) for lines in mono_chunks]
        for lines in bitext_chunks:
            sources, targets = zip(*(line.split("\t") for line in lines))
            expected += [(sources, [Direction("hr", "mk")]), (targets, [Direction("hu", "mk")])]
        assert recorder.many == expected
        assert recorder.calls == []

    @staticmethod
    def _traced_peak(tmp_path, translator, n: int) -> int:
        mono = tmp_path / f"mono{n}.en.txt"
        mono.write_text("".join(line + "\n" for line in _english(n, seed=n)), encoding="utf-8")
        ref = MonoCorpusRef(mono, "en")
        plan = plan_backtranslation(ref, ["hr", "hu", "mk"]).extend(
            plan_dual_pseudo(ref, all_ordered_pairs(["hr", "hu", "mk"])))
        tracemalloc.start()
        try:
            run_plan(plan, translator, None, tmp_path / f"out{n}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_input(self, translator, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 4096)
        self._traced_peak(tmp_path, translator, 100)   # one-time allocations
        small = self._traced_peak(tmp_path, translator, 1000)
        large = self._traced_peak(tmp_path, translator, 4000)
        assert large < 1.5 * small

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_descriptors_do_not_grow_with_shards(self, tmp_path, monkeypatch):
        langs = ["hr", "hu", "mk", "sr", "bs", "sl"]
        recorder = _Recorder(CipherTranslator(
            CipherLanguage.from_seed(lang, i) for i, lang in enumerate(langs)))
        mono = tmp_path / "mono.en.txt"
        mono.write_text("".join(line + "\n" for line in _english(200)), encoding="utf-8")
        plan = plan_dual_pseudo(MonoCorpusRef(mono, "en"), all_ordered_pairs(langs))
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 512)
        before = len(os.listdir("/proc/self/fd"))
        manifest = run_plan(plan, recorder, None, tmp_path / "out")
        assert len(manifest.shards) == 30
        assert len(recorder.calls) > 6 * 10
        # Only the input file is open while translating, whatever the shard count.
        assert max(fds for _, _, fds in recorder.calls) <= before + 1


class TestPlanSerialization:
    def test_round_trip(self, mono, tmp_path):
        plan = plan_backtranslation(mono, ["hr"])
        plan = plan.extend(plan_dual_pseudo(mono, [Direction("hr", "hu")]))
        plan = plan.extend(plan_triangulation(
            BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu")),
            new_tgt="mk"))
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert [t.kind for t in loaded.tasks] == [
            TaskKind.BACK_TRANSLATION, TaskKind.DUAL_PSEUDO, TaskKind.TRIANGULATION]
        assert loaded.tasks == plan.tasks

    def test_repeated_task_is_refused_at_its_line(self, tmp_path):
        bt = "bt\tmono.en.txt\tlang=en\ten-hr\thr-en:bt,en-hr:bt"
        dual = "dual\tmono.en.txt\tlang=en\ten-hr,en-hu\thr-hu:dp"
        path = tmp_path / "plan.tsv"
        path.write_text(f"# kind\n{bt}\n{dual}\n{bt}\n", encoding="utf-8")
        with pytest.raises(TableError) as caught:
            load_plan(path)
        assert (caught.value.line_no, caught.value.reason) == \
            (4, "plan task 3 (bt mono.en.txt) repeats plan task 1")

    def test_tasks_that_differ_only_in_their_input_stay_legal(self, tmp_path):
        path = tmp_path / "plan.tsv"
        path.write_text("".join(f"bt\t{name}\tlang=en\ten-hr\thr-en:bt\n"
                                for name in ("a.txt", "b.txt")), encoding="utf-8")
        assert [str(task.corpus.path) for task in load_plan(path).tasks] == ["a.txt", "b.txt"]
