import random

import pytest

from mtforge.corpus import Direction
from mtforge.curriculum import (
    AllDirections,
    Clean,
    FreshRandom,
    Inherited,
    ModelShape,
    Noisy,
    SelectedDirections,
    StageDescriptor,
    average_checkpoints,
    grow_encoder,
    load_schedule,
    stage_schedule,
    validate_transition,
)
from mtforge.errors import InvalidScheduleError
from mtforge.sampling import MixtureWeights

THIRDS = MixtureWeights(0.33, 0.33, 0.33)
RESET = MixtureWeights(0.6, 0.2, 0.2)

SELECTED = SelectedDirections(frozenset({Direction("hr", "en"),
                                         Direction("en", "hr")}))


def stage(stage_id, tier=Noisy(), dirs=AllDirections(), mixture=THIRDS,
          enc=24, dec=12):
    return StageDescriptor(stage_id, tier, dirs, mixture, enc, dec)


class TestValidateTransition:
    def test_canonical_tightening_ok(self):
        frm = stage("s1")
        to = stage("s2", tier=Clean(3.0), dirs=SELECTED, mixture=RESET, enc=36)
        assert validate_transition(frm, to) == []

    def test_clean_to_noisy_rejected(self):
        violations = validate_transition(stage("a", tier=Clean(2.0)),
                                         stage("b", tier=Noisy()))
        assert any("noisy" in v for v in violations)

    def test_ratio_loosening_rejected(self):
        violations = validate_transition(stage("a", tier=Clean(2.0)),
                                         stage("b", tier=Clean(3.0)))
        assert len(violations) == 1

    def test_ratio_tightening_ok(self):
        assert validate_transition(stage("a", tier=Clean(3.0)),
                                   stage("b", tier=Clean(2.0))) == []

    def test_noisy_to_clean_ok(self):
        assert validate_transition(stage("a"), stage("b", tier=Clean(1.5))) == []

    def test_selected_to_all_rejected(self):
        violations = validate_transition(stage("a", dirs=SELECTED), stage("b"))
        assert any("grew" in v for v in violations)

    def test_selected_growth_rejected(self):
        bigger = SelectedDirections(frozenset(
            {Direction("hr", "en"), Direction("en", "hr"), Direction("hu", "en")}))
        violations = validate_transition(stage("a", dirs=SELECTED),
                                         stage("b", dirs=bigger))
        assert violations

    def test_selected_shrink_ok(self):
        smaller = SelectedDirections(frozenset({Direction("hr", "en")}))
        assert validate_transition(stage("a", dirs=SELECTED),
                                   stage("b", dirs=smaller)) == []

    def test_encoder_shrink_rejected(self):
        violations = validate_transition(stage("a", enc=36), stage("b", enc=24))
        assert any("encoder" in v for v in violations)

    def test_decoder_change_rejected(self):
        violations = validate_transition(stage("a", dec=12), stage("b", dec=6))
        assert any("decoder" in v for v in violations)

    def test_multiple_violations_all_reported(self):
        frm = stage("a", tier=Clean(1.5), dirs=SELECTED, enc=36)
        to = stage("b", tier=Noisy(), dirs=AllDirections(), enc=24, dec=6)
        assert len(validate_transition(frm, to)) == 4

    def test_clean_tier_requires_ladder_value(self):
        with pytest.raises(ValueError):
            Clean(2.7)

    def test_selected_set_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SelectedDirections(frozenset())

    @pytest.mark.parametrize("enc, dec", [(0, 12), (24, 0)])
    def test_layer_counts_must_be_positive(self, enc, dec):
        with pytest.raises(ValueError, match="layer counts must be >= 1"):
            stage("a", enc=enc, dec=dec)


class TestStageSchedule:
    def test_three_stage_ladder_valid(self):
        # noisy/all/24 -> clean/selected/24 (mixture reset) -> clean/selected/36
        stages = [
            stage("noisy-all", tier=Noisy(), enc=24),
            stage("clean-selected", tier=Clean(3.0), dirs=SELECTED,
                  mixture=RESET, enc=24),
            stage("deep", tier=Clean(3.0), dirs=SELECTED, mixture=RESET, enc=36),
        ]
        assert stage_schedule(stages) == stages

    def test_single_stage_trivially_valid(self):
        assert len(stage_schedule([stage("only")])) == 1

    def test_growth_mid_schedule_rejected(self):
        stages = [stage("a", dirs=SELECTED), stage("b", dirs=AllDirections())]
        with pytest.raises(InvalidScheduleError) as err:
            stage_schedule(stages)
        assert err.value.stage_pair == "a -> b"

    def test_accepted_schedules_are_monotone(self):
        rng = random.Random(4)
        ladder = (1.5, 2.0, 2.5, 3.0)
        for _ in range(200):
            stages = []
            for i in range(rng.randint(1, 5)):
                tier = Noisy() if rng.random() < 0.4 else Clean(rng.choice(ladder))
                stages.append(stage(f"s{i}", tier=tier, enc=rng.choice([12, 24, 36])))
            try:
                accepted = stage_schedule(stages)
            except InvalidScheduleError:
                continue
            ratios = [s.data_tier.ratio_limit for s in accepted
                      if isinstance(s.data_tier, Clean)]
            assert ratios == sorted(ratios, reverse=True)
            encs = [s.encoder_layers for s in accepted]
            assert encs == sorted(encs)


class TestModelShape:
    def test_grow_24_to_36(self):
        shape = ModelShape.pretrained(24, 12)
        grown = grow_encoder(shape, 12, "deepen")
        assert grown.encoder_layers == 36
        assert grown.decoder_layers == 12
        assert grown.count_inherited() == 24
        assert grown.count_fresh() == 12
        assert grown.layer_provenance[:24] == shape.layer_provenance
        assert all(p == FreshRandom("deepen") for p in grown.layer_provenance[24:])

    def test_grow_by_one(self):
        grown = grow_encoder(ModelShape.pretrained(24, 12), 1, "s")
        assert grown.count_fresh() == 1
        assert isinstance(grown.layer_provenance[-1], FreshRandom)

    def test_grow_twice_records_both_stages(self):
        shape = ModelShape.pretrained(24, 12)
        grown = grow_encoder(grow_encoder(shape, 6, "stage2"), 6, "stage3")
        assert grown.encoder_layers == 36
        assert grown.layer_provenance[24:30] == tuple(FreshRandom("stage2")
                                                      for _ in range(6))
        assert grown.layer_provenance[30:] == tuple(FreshRandom("stage3")
                                                    for _ in range(6))
        # inherited count is conserved across any growth sequence
        assert grown.count_inherited() == 24

    def test_provenance_length_enforced(self):
        with pytest.raises(ValueError):
            ModelShape(3, 12, (Inherited("x"),))

    def test_grow_requires_positive_extra(self):
        with pytest.raises(ValueError):
            grow_encoder(ModelShape.pretrained(24, 12), 0, "s")


class TestAverageCheckpoints:
    def test_single_checkpoint_identity(self):
        assert average_checkpoints([[1.0, 2.0, 3.0]]) == [1.0, 2.0, 3.0]

    def test_two_checkpoints(self):
        assert average_checkpoints([[0.0, 0.0], [2.0, 4.0]]) == [1.0, 2.0]

    def test_constant_idempotence(self):
        v = [3.5, -1.25, 0.0]
        assert average_checkpoints([v] * 5) == v

    def test_empty_list(self):
        with pytest.raises(ValueError):
            average_checkpoints([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            average_checkpoints([[1.0], [1.0, 2.0]])

    def test_permutation_invariant_and_bounded(self):
        rng = random.Random(8)
        for _ in range(50):
            vectors = [[rng.uniform(-5, 5) for _ in range(6)] for _ in range(4)]
            mean = average_checkpoints(vectors)
            shuffled = vectors[:]
            rng.shuffle(shuffled)
            assert average_checkpoints(shuffled) == pytest.approx(mean, abs=1e-12)
            for j, value in enumerate(mean):
                column = [v[j] for v in vectors]
                assert min(column) <= value <= max(column)


class TestScheduleFile:
    def test_load_valid_schedule(self, tmp_path):
        path = tmp_path / "schedule.tsv"
        path.write_text(
            "# stage_id\ttier\tdirections\tlambdas\tenc\tdec\n"
            "s1\tnoisy\tall\t0.33,0.33,0.33\t24\t12\n"
            "s2\tclean:3.0\thr-en,en-hr\t0.6,0.2,0.2\t24\t12\n"
            "s3\tclean:3.0\thr-en,en-hr\t0.6,0.2,0.2\t36\t12\n",
            encoding="utf-8")
        stages = load_schedule(path)
        assert [s.stage_id for s in stages] == ["s1", "s2", "s3"]
        assert stages[1].data_tier == Clean(3.0)
        assert stages[1].direction_set == SelectedDirections(
            frozenset({Direction("hr", "en"), Direction("en", "hr")}))

    def test_load_invalid_schedule(self, tmp_path):
        path = tmp_path / "schedule.tsv"
        path.write_text(
            "s1\tclean:2.0\tall\t0.33,0.33,0.33\t24\t12\n"
            "s2\tclean:3.0\tall\t0.33,0.33,0.33\t24\t12\n",
            encoding="utf-8")
        with pytest.raises(InvalidScheduleError):
            load_schedule(path)

    def test_lambdas_whose_sum_overflows_fail_at_their_line(self, tmp_path):
        # They loaded as three 0.0 weights.
        path = tmp_path / "schedule.tsv"
        path.write_text("s1\tnoisy\tall\t0.3,0.3,0.4\t24\t12\n"
                        "s2\tnoisy\tall\t1e308,1e308,0\t24\t12\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: mixture weights must have a finite sum"):
            load_schedule(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "schedule.tsv"
        path.write_text("s1\tmystery\tall\t0.3,0.3,0.4\t24\t12\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_schedule(path)
        assert ":1:" in str(err.value)
