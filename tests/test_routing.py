import math
import random

import pytest

from mtforge.corpus import Direction
from mtforge.errors import MTForgeError, TableError
from mtforge.evaluation import (BleuScore, ScoreMatrix, corpus_bleu, evaluate_directions,
                                strategy_hops)
from mtforge.routing import RouteEntry, RoutingTable, build_routing_table, route_translate
from mtforge.translator import (
    CipherLanguage,
    CipherTranslator,
    Direct,
    NoisyTranslator,
    PivotVia,
)
from mtforge.wordlist import COMMON_WORDS


def score(value):
    return BleuScore(value, (1, 1, 1, 1), 1.0, 10, 10)


def matrix(values):
    return ScoreMatrix({d: score(v) for d, v in values.items()})


class TestBuildRoutingTable:
    def test_pivot_wins(self):
        d = Direction("hr", "hu")
        table = build_routing_table(matrix({d: 20.0}), matrix({d: 25.0}), "en")
        assert table.entries[d].strategy == PivotVia("en")
        assert table.entries[d].bleu_direct == 20.0
        assert table.entries[d].bleu_pivot == 25.0

    def test_tie_resolves_to_direct(self):
        d = Direction("hr", "hu")
        table = build_routing_table(matrix({d: 25.0}), matrix({d: 25.0}), "en")
        assert table.entries[d].strategy == Direct()

    def test_direct_wins(self):
        d = Direction("hr", "hu")
        table = build_routing_table(matrix({d: 30.0}), matrix({d: 25.0}), "en")
        assert table.entries[d].strategy == Direct()

    def test_pivot_language_directions_always_direct(self):
        d = Direction("en", "hr")
        table = build_routing_table(matrix({d: 1.0}), matrix({d: 99.0}), "en")
        assert table.entries[d].strategy == Direct()

    @pytest.mark.parametrize("pivot_lang", ["EN", "", "e"])
    def test_bad_pivot_language(self, pivot_lang):
        d = Direction("hr", "hu")
        with pytest.raises(ValueError, match="invalid language code"):
            build_routing_table(matrix({d: 20.0}), matrix({d: 25.0}), pivot_lang)

    def test_direction_set_mismatch(self):
        a = Direction("hr", "hu")
        b = Direction("hu", "hr")
        with pytest.raises(MTForgeError, match="cover different direction sets"):
            build_routing_table(matrix({a: 1.0}), matrix({b: 1.0}), "en")

    @pytest.mark.parametrize("direct, pivot", [
        (math.nan, 25.0), (25.0, math.nan), (math.inf, 25.0), (20.0, -math.inf)])
    def test_non_finite_score_rejected(self, direct, pivot):
        # A NaN direct score fails d >= p and would silently route via the pivot.
        d = Direction("hr", "hu")
        with pytest.raises(MTForgeError, match="hr-hu"):
            build_routing_table(matrix({d: direct}), matrix({d: pivot}), "en")

    def test_hybrid_dominates_on_validation(self):
        """The routed strategy's stored score is max(direct, pivot) for every
        direction, so the hybrid average beats both pure strategies."""
        rng = random.Random(42)
        langs = ["hr", "hu", "mk", "et"]
        grid = [Direction(a, b) for a in langs for b in langs if a != b]
        direct_scores = {d: rng.uniform(5, 40) for d in grid}
        pivot_scores = {d: rng.uniform(5, 40) for d in grid}
        table = build_routing_table(matrix(direct_scores), matrix(pivot_scores), "en")
        routed = []
        for d, entry in table.entries.items():
            chosen = (entry.bleu_direct if isinstance(entry.strategy, Direct)
                      else entry.bleu_pivot)
            assert chosen == max(entry.bleu_direct, entry.bleu_pivot)
            routed.append(chosen)
        hybrid_avg = sum(routed) / len(routed)
        assert hybrid_avg >= sum(direct_scores.values()) / len(grid)
        assert hybrid_avg >= sum(pivot_scores.values()) / len(grid)

    def test_argmax_invariant_under_increasing_transform(self):
        rng = random.Random(17)
        grid = [Direction(a, b) for a in ["hr", "hu", "mk"]
                for b in ["hr", "hu", "mk"] if a != b]
        direct_scores = {d: rng.uniform(0, 60) for d in grid}
        pivot_scores = {d: rng.uniform(0, 60) for d in grid}
        base = build_routing_table(matrix(direct_scores), matrix(pivot_scores), "en")
        for transform in (lambda x: 2 * x + 1, math.sqrt, lambda x: x ** 3 / 100):
            mapped = build_routing_table(
                matrix({d: transform(v) for d, v in direct_scores.items()}),
                matrix({d: transform(v) for d, v in pivot_scores.items()}), "en")
            assert {d: e.strategy for d, e in mapped.entries.items()} == \
                   {d: e.strategy for d, e in base.entries.items()}


@pytest.mark.parametrize("kind", ["direct", "pivot"])
def test_load_checks_the_pivot_language(tmp_path, kind):
    path = tmp_path / "routing.tsv"
    path.write_text(f"hr\thu\t{kind}\ten\t1.0\t2.0\nhu\thr\t{kind}\tEN\t1.0\t2.0\n",
                    encoding="utf-8")
    with pytest.raises(TableError) as err:
        RoutingTable.load(path)
    assert (err.value.path, err.value.line_no) == (path, 2)
    assert err.value.reason == "invalid language code: 'EN'"


def test_load_refuses_a_second_pivot_language(tmp_path):
    # The table loaded with the last row's pivot, en, so routing hr-hu through
    # it asked for hr-en-hu, not the hr-mk-hu that its row names.
    path = tmp_path / "routing.tsv"
    path.write_text("hr\thu\tpivot\tmk\t1.0\t2.0\nhr\tsr\tdirect\ten\t3.0\t2.0\n",
                    encoding="utf-8")
    with pytest.raises(TableError) as err:
        RoutingTable.load(path)
    assert (err.value.path, err.value.line_no) == (path, 2)
    assert err.value.reason == "pivot_lang en differs from the first row's mk"


@pytest.fixture(scope="module")
def world():
    translator = CipherTranslator([
        CipherLanguage.from_seed(lang, 7 + i)
        for i, lang in enumerate(["hr", "hu", "mk"])])
    rng = random.Random(3)
    grid = [Direction(a, b) for a in ["hr", "hu", "mk"]
            for b in ["hr", "hu", "mk"] if a != b]

    def devset(n=10):
        sets = {}
        for d in grid:
            english = [" ".join(rng.choices(COMMON_WORDS, k=6)) for _ in range(n)]
            sets[d] = (translator.translate(english, Direction("en", d.src)),
                       translator.translate(english, Direction("en", d.tgt)))
        return sets

    return translator, grid, devset


class TestRouteTranslate:
    def test_direct_dispatch(self, world):
        translator, grid, devset = world
        d = grid[0]
        table = RoutingTable({d: RouteEntry(Direct(), 50.0, 40.0)}, "en")
        sources, _ = devset()[d]
        assert route_translate(translator, table, sources, d) == \
            translator.translate(sources, d)

    def test_pivot_dispatch(self, world):
        from mtforge.translator import pivot_translate
        translator, grid, devset = world
        d = grid[0]
        table = RoutingTable({d: RouteEntry(PivotVia("en"), 10.0, 90.0)}, "en")
        sources, _ = devset()[d]
        assert route_translate(translator, table, sources, d) == \
            pivot_translate(translator, sources, d.src, d.tgt, "en")

    def test_endpoint_pivot_decodes_directly(self, world):
        # A loaded table may route en-hr "via en"; evaluate_directions decodes
        # such a direction directly, and route_translate used to raise.
        translator, _, _ = world
        d = Direction("en", "hr")
        table = RoutingTable({d: RouteEntry(PivotVia("en"), 10.0, 90.0)}, "en")
        sources = ["the cat sat", "good day"]
        assert route_translate(translator, table, sources, d) == \
            translator.translate(sources, d)

    def test_strategy_hops(self):
        d = Direction("hr", "hu")
        assert strategy_hops(d, Direct()) == [d]
        assert strategy_hops(d, PivotVia("en")) == [Direction("hr", "en"), Direction("en", "hu")]
        for endpoint in (Direction("en", "hr"), Direction("hr", "en")):
            assert strategy_hops(endpoint, PivotVia("en")) == [endpoint]

    def test_unknown_direction(self, world):
        translator, grid, _ = world
        table = RoutingTable({}, "en")
        with pytest.raises(MTForgeError, match=f"^no routing entry for {grid[0]}$"):
            route_translate(translator, table, ["x"], grid[0])


class TestEndToEnd:
    def test_noisy_direct_routes_everything_through_pivot(self, world):
        translator, grid, devset = world
        system = NoisyTranslator(translator, 0.5, seed=101, directions=grid)
        dev = devset()
        direct = evaluate_directions(system, dev, strategy=Direct())
        pivot = evaluate_directions(system, dev, strategy=PivotVia("en"))
        table = build_routing_table(direct, pivot, "en")
        assert all(e.strategy == PivotVia("en") for e in table.entries.values())

        devtest = devset()
        for d in grid:
            sources, refs = devtest[d]
            hyps = route_translate(system, table, sources, d)
            assert corpus_bleu(hyps, refs).score == 100.0

    def test_zero_noise_ties_go_direct(self, world):
        translator, grid, devset = world
        system = NoisyTranslator(translator, 0.0, seed=101, directions=grid)
        dev = devset()
        direct = evaluate_directions(system, dev, strategy=Direct())
        pivot = evaluate_directions(system, dev, strategy=PivotVia("en"))
        table = build_routing_table(direct, pivot, "en")
        assert all(e.strategy == Direct() for e in table.entries.values())

    def test_table_save_load_round_trip(self, world, tmp_path):
        translator, grid, devset = world
        system = NoisyTranslator(translator, 0.5, seed=5, directions=grid)
        dev = devset()
        table = build_routing_table(
            evaluate_directions(system, dev, strategy=Direct()),
            evaluate_directions(system, dev, strategy=PivotVia("en")), "en")
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = RoutingTable.load(path)
        assert loaded.pivot_lang == "en"
        assert {d: e.strategy for d, e in loaded.entries.items()} == \
               {d: e.strategy for d, e in table.entries.items()}
