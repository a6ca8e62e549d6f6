import pytest

from mtforge.augmentation import (
    AugmentationPlan,
    BitextCorpusRef,
    MonoCorpusRef,
    TaskKind,
    all_ordered_pairs,
    load_plan,
    plan_backtranslation,
    plan_dual_pseudo,
    plan_triangulation,
    run_plan,
    save_plan,
)
from mtforge.corpus import Direction, OriginPool
from mtforge.errors import (
    EmptyMonolingualError,
    EnglishInPairError,
    MalformedLineError,
    NothingToDoError,
    UnsupportedDirectionError,
)
from mtforge.translator import CipherLanguage, make_cipher_translator


@pytest.fixture
def mono(tmp_path):
    path = tmp_path / "mono.en.txt"
    path.write_text("the cat sat\ngood day to you\nwe want water\n",
                    encoding="utf-8")
    return MonoCorpusRef(path, "en")


@pytest.fixture
def translator():
    return make_cipher_translator([CipherLanguage.from_seed(lang, i)
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
        with pytest.raises(EmptyMonolingualError):
            plan_backtranslation(MonoCorpusRef(empty, "en"), ["hr"])

    def test_mono_language_excluded(self, mono):
        with pytest.raises(ValueError):
            plan_backtranslation(mono, ["en", "hr"])


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
        with pytest.raises(EnglishInPairError):
            plan_dual_pseudo(mono, [Direction("hr", "en")])


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
        with pytest.raises(NothingToDoError):
            plan_triangulation(bitext)

    def test_collision_with_existing_side(self, tmp_path):
        bitext = BitextCorpusRef(tmp_path / "b.tsv", Direction("hr", "hu"))
        with pytest.raises(ValueError):
            plan_triangulation(bitext, new_tgt="hr")


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
        with pytest.raises(UnsupportedDirectionError):
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

    def test_manifest_counts_match_files(self, mono, translator, tmp_path):
        plan = plan_backtranslation(mono, ["hr", "hu"])
        manifest = run_plan(plan, translator, None, tmp_path / "out")
        for shard in manifest.shards:
            actual = len(shard.path.read_text(encoding="utf-8").splitlines())
            assert actual == shard.declared_line_count == 3


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
