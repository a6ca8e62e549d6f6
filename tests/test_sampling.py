import gc
import math
import os
import random
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_manifest
from mtforge import corpus, sampling
from mtforge.corpus import (
    Direction,
    LanguageStats,
    OriginPool,
    corpus_stats,
    count_lines,
    decode_lines,
    load_manifest,
    read_pairs,
)
from mtforge.errors import MalformedLineError, MTForgeError
from mtforge.sampling import (
    Batch,
    BatchScheduler,
    MixtureWeights,
    SamplingDistribution,
    language_distribution,
)


def stats_for(counts):
    return LanguageStats(per_language=dict(counts))


class TestLanguageDistribution:
    def test_symmetric_counts(self):
        for t in (0.5, 1.0, 5.0, 100.0):
            dist = language_distribution(stats_for({"aa": 50, "bb": 50}), t)
            assert dist.q["aa"] == pytest.approx(0.5, abs=1e-12)
            assert dist.q["bb"] == pytest.approx(0.5, abs=1e-12)

    def test_fifth_root_case(self):
        # 32^(1/5) = 2, so the rescaled weights are exactly 2 : 1
        dist = language_distribution(stats_for({"aa": 32, "bb": 1}), 5.0)
        assert dist.q["aa"] == pytest.approx(2 / 3, abs=1e-12)
        assert dist.q["bb"] == pytest.approx(1 / 3, abs=1e-12)

    def test_temperature_one_is_proportional(self):
        dist = language_distribution(stats_for({"aa": 32, "bb": 1}), 1.0)
        assert dist.q["aa"] == pytest.approx(32 / 33, abs=1e-12)
        assert dist.q["bb"] == pytest.approx(1 / 33, abs=1e-12)

    def test_zero_count_language_dropped(self):
        dist = language_distribution(stats_for({"aa": 10, "bb": 0}), 5.0)
        assert "bb" not in dist.q
        assert dist.q["aa"] == pytest.approx(1.0)

    def test_empty_stats(self):
        with pytest.raises(ValueError):
            language_distribution(stats_for({}), 5.0)
        with pytest.raises(ValueError):
            language_distribution(stats_for({"aa": 0}), 5.0)

    def test_non_positive_temperature(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                language_distribution(stats_for({"aa": 1}), t)

    def test_sums_to_one(self):
        rng = random.Random(3)
        for _ in range(100):
            counts = {f"l{chr(97 + i)}": rng.randint(1, 10**6) for i in range(6)}
            dist = language_distribution(stats_for(counts), rng.uniform(0.2, 50))
            assert math.isclose(sum(dist.q.values()), 1.0, abs_tol=1e-9)

    def test_temperature_flattens_monotonically(self):
        """With D_a > D_b the ratio q_a/q_b falls toward 1 as T grows."""
        counts = stats_for({"aa": 1000, "bb": 3})
        ratios = []
        for t in (1.0, 5.0, 100.0):
            dist = language_distribution(counts, t)
            ratios.append(dist.q["aa"] / dist.q["bb"])
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] == pytest.approx(1.0, abs=0.1)

    def test_scale_invariance(self):
        base = language_distribution(stats_for({"aa": 4, "bb": 9, "cc": 25}), 5.0)
        scaled = language_distribution(
            stats_for({"aa": 4000, "bb": 9000, "cc": 25000}), 5.0)
        assert base.q == scaled.q

    def test_sample_reproducible(self):
        dist = language_distribution(stats_for({"aa": 32, "bb": 1}), 5.0)
        draws1 = [dist.sample(random.Random(42)) for _ in range(1)]
        draws2 = [dist.sample(random.Random(42)) for _ in range(1)]
        assert draws1 == draws2


class TestSamplingDistribution:
    @pytest.mark.parametrize("q", [
        {"en": 1, "hr": 1, "hu": -0.2},
        {"en": 1, "hr": math.nan},
        {"en": 1, "hr": math.inf},
        {"en": 1, "hr": -math.inf},
        {"en": 0, "hr": 0},
        {},
        {"en": 1e308, "hr": 1e308},   # each finite, the sum is not
    ])
    def test_bad_probabilities_rejected(self, q):
        with pytest.raises(ValueError):
            SamplingDistribution(q)

    def test_q_is_a_read_only_copy(self):
        q = {"en": 0.5, "hr": 0.5}
        dist = SamplingDistribution(q)
        q["hr"] = -0.2
        assert dist.q == {"en": 0.5, "hr": 0.5}
        with pytest.raises(TypeError):
            dist.q["hr"] = -0.2

    def test_sample_is_random_choices(self):
        q = {"hu": 0.25, "en": 0.0, "hr": 0.5, "mk": 0.125}
        dist = SamplingDistribution(q)
        got, want = random.Random(11), random.Random(11)
        for _ in range(500):
            assert dist.sample(got) == want.choices(sorted(q), [q[l] for l in sorted(q)])[0]
        assert got.getstate() == want.getstate()


class TestMixtureWeights:
    def test_normalizes_decimal_shorthand(self):
        w = MixtureWeights(0.33, 0.33, 0.33)
        assert w.bitext == pytest.approx(1 / 3, abs=1e-12)
        assert math.isclose(w.bitext + w.back_translation + w.dual_pseudo, 1.0,
                            abs_tol=1e-9)

    def test_parse(self):
        w = MixtureWeights.parse("0.6,0.2,0.2")
        assert w.for_pool(OriginPool.BITEXT) == pytest.approx(0.6, abs=1e-9)
        assert w.for_pool(OriginPool.DUAL_PSEUDO) == pytest.approx(0.2, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MixtureWeights(-0.1, 0.6, 0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            MixtureWeights(0, 0, 0)

    def test_parse_wrong_arity(self):
        with pytest.raises(ValueError):
            MixtureWeights.parse("0.5,0.5")


def three_pool_corpus(make_corpus, n=20):
    rows = lambda k: [(f"s{i}", f"t{i}") for i in range(k)]
    return make_corpus([
        ("bx1.tsv", "hr-en", "bitext", rows(n)),
        ("bx2.tsv", "en-hu", "bitext", rows(n)),
        ("bt1.tsv", "hu-en", "bt", rows(n)),
        ("dp1.tsv", "hr-hu", "dual_pseudo", rows(n)),
    ])


def scheduler_for(manifest, weights, batch_size=8, seed=0, temperature=5.0):
    from mtforge.corpus import corpus_stats
    stats = corpus_stats(manifest)
    dist = language_distribution(stats, temperature)
    return BatchScheduler(manifest, dist, weights, batch_size, seed)


class TestScheduler:
    def test_degenerate_mixture_all_bitext(self, make_corpus):
        sched = scheduler_for(three_pool_corpus(make_corpus),
                              MixtureWeights(1, 0, 0))
        batch = sched.next_batch()
        assert all(p.origin is OriginPool.BITEXT for p in batch.pairs)

    def test_empty_pool_with_positive_weight(self, make_corpus):
        manifest = make_corpus([
            ("bx.tsv", "hr-en", "bitext", [("s", "t")]),
            ("bt.tsv", "en-hr", "bt", [("s", "t")]),
        ])
        with pytest.raises(MTForgeError, match="pool dual_pseudo has weight .* but no pairs"):
            scheduler_for(manifest, MixtureWeights(0.33, 0.33, 0.33))

    @pytest.mark.parametrize("q, error, message", [
        ({"hr": 1.0, "en": 0.0}, MTForgeError, "no direction has positive sampling weight"),
        ({"hr": 1e200, "en": 1e200}, ValueError, "direction weights must be finite"),  # 1e400
    ], ids=["zero", "overflow"])
    def test_pool_needs_a_positive_finite_direction_weight(self, make_corpus, q, error,
                                                           message):
        manifest = make_corpus([("bx.tsv", "hr-en", "bitext", [("s", "t")])])
        with pytest.raises(error, match=f"pool bitext: {message}"):
            BatchScheduler(manifest, SamplingDistribution(q), MixtureWeights(1, 0, 0), 8, 0)

    def test_batch_size_contract(self, make_corpus):
        sched = scheduler_for(three_pool_corpus(make_corpus),
                              MixtureWeights(0.6, 0.2, 0.2), batch_size=8)
        assert len(sched.next_batch().pairs) == 8

    def test_same_seed_same_batches(self, make_corpus):
        manifest = three_pool_corpus(make_corpus)
        w = MixtureWeights(0.6, 0.2, 0.2)
        a = scheduler_for(manifest, w, seed=42).next_batch()
        b = scheduler_for(manifest, w, seed=42).next_batch()
        assert a.pairs == b.pairs

    def test_single_direction_manifest(self, make_corpus):
        manifest = make_corpus([("bx.tsv", "hr-en", "bitext",
                                 [(f"s{i}", f"t{i}") for i in range(5)])])
        sched = scheduler_for(manifest, MixtureWeights(1, 0, 0))
        batch = sched.next_batch()
        assert {p.direction for p in batch.pairs} == {Direction("hr", "en")}

    def test_composition_tallies_match_pairs(self, make_corpus):
        sched = scheduler_for(three_pool_corpus(make_corpus),
                              MixtureWeights(0.6, 0.2, 0.2), batch_size=32)
        batch = sched.next_batch()
        # each pair contributes its two sides
        assert sum(batch.composition.values()) == 2 * len(batch.pairs)
        origin_totals = {}
        for (lang, origin), n in batch.composition.items():
            origin_totals[origin] = origin_totals.get(origin, 0) + n
        for origin, total in origin_totals.items():
            assert total == 2 * sum(p.origin is origin for p in batch.pairs)

    def test_pool_marginals_within_three_sigma(self, make_corpus):
        draws = 20_000
        sched = scheduler_for(three_pool_corpus(make_corpus),
                              MixtureWeights(0.6, 0.2, 0.2),
                              batch_size=draws, seed=7)
        batch = sched.next_batch()
        expected = {OriginPool.BITEXT: 0.6, OriginPool.BACK_TRANSLATION: 0.2,
                    OriginPool.DUAL_PSEUDO: 0.2}
        for origin, p in expected.items():
            observed = sum(pair.origin is origin for pair in batch.pairs) / draws
            assert abs(observed - p) <= 3 * math.sqrt(p * (1 - p) / draws)

    def test_invalid_batch_size(self, make_corpus):
        with pytest.raises(ValueError):
            scheduler_for(three_pool_corpus(make_corpus),
                          MixtureWeights(1, 0, 0), batch_size=0)

    def test_direction_weights_follow_q_product(self, make_corpus):
        """Within one pool, directions are drawn proportionally to
        q_src * q_tgt; checked against the analytic marginal."""
        rows = lambda k: [(f"s{i}", f"t{i}") for i in range(k)]
        manifest = make_corpus([
            ("a.tsv", "hr-en", "bitext", rows(80)),
            ("b.tsv", "hu-en", "bitext", rows(10)),
        ])
        from mtforge.corpus import corpus_stats
        stats = corpus_stats(manifest)
        dist = language_distribution(stats, 5.0)
        sched = BatchScheduler(manifest, dist, MixtureWeights(1, 0, 0),
                               batch_size=30_000, seed=3)
        batch = sched.next_batch()
        w_hr = dist.q["hr"] * dist.q["en"]
        w_hu = dist.q["hu"] * dist.q["en"]
        expected = w_hr / (w_hr + w_hu)
        observed = sum(p.direction == Direction("hr", "en")
                       for p in batch.pairs) / len(batch.pairs)
        assert abs(observed - expected) <= 3 * math.sqrt(
            expected * (1 - expected) / len(batch.pairs))


class TestNonFinite:
    @pytest.mark.parametrize("values", [
        (math.nan, 0, 0), (math.inf, 1, 1), (1, -math.inf, 0), (0.5, 0.5, math.nan),
        # Finite weights whose sum is inf: each normalized to 0.0.
        (1e308, 1e308, 1e308), (1e308, 1e308, 0),
    ])
    def test_mixture_weights(self, values):
        with pytest.raises(ValueError, match="finite"):
            MixtureWeights(*values)

    @pytest.mark.parametrize("text", ["nan,0,0", "inf,1,1"])
    def test_mixture_parse(self, text):
        with pytest.raises(ValueError, match="finite"):
            MixtureWeights.parse(text)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_temperature(self, t):
        with pytest.raises(ValueError, match="finite"):
            language_distribution(stats_for({"aa": 1, "bb": 3}), t)

    def test_temperature_that_zeroes_every_weight(self):
        # 0.5 ** 1e300 underflows to 0 for both languages.
        with pytest.raises(ValueError):
            language_distribution(stats_for({"aa": 1, "bb": 1}), 1e-300)


def raw_corpus(root, shards):
    """Write shards as raw bytes plus a manifest; ``shards`` is a list of
    (name, "src-tgt", origin, bytes). Declared counts are binary ``\\n`` lines,
    and the manifest is loaded unverified, as a shard may break the line rule."""
    lines = []
    for name, direction, origin, data in shards:
        (root / name).write_bytes(data)
        src, tgt = direction.split("-")
        lines.append(f"{name}\t{src}\t{tgt}\t{origin}\t{count_lines(root / name)}\n")
    (root / "manifest.tsv").write_text("".join(lines), encoding="utf-8")
    return load_manifest(root / "manifest.tsv")


def draw_all(manifest, weights=MixtureWeights(1, 0, 0), draws=400, seed=0):
    dist = language_distribution(corpus_stats(manifest), 5.0)
    with BatchScheduler(manifest, dist, weights, draws, seed) as sched:
        return sched.next_batch().pairs


class TestLineIndex:
    def test_stray_carriage_return_fails_loudly(self, tmp_path):
        # Counted as 2 lines, but text mode would read 3 and shift the rest.
        manifest = raw_corpus(tmp_path, [
            ("bx.tsv", "hr-en", "bitext", b"s1\tt1\rs2\tt2\ns3\tt3\n")])
        assert manifest.shards[0].declared_line_count == 2
        with pytest.raises(MalformedLineError) as err:
            draw_all(manifest)
        assert (err.value.path, err.value.line_no) == ("bx.tsv", 1)
        assert "carriage return" in str(err.value)

    @pytest.mark.parametrize("data, line_no", [
        (b"a\tb\nc\td\r", 2),          # a final \r with no \n after it
        (b"a\tb\r\r\nc\td\n", 1),      # \r before a CRLF line end
        (b"a\tb\n\rc\td\n", 2),
    ])
    def test_other_stray_carriage_returns(self, tmp_path, data, line_no):
        manifest = raw_corpus(tmp_path, [("bx.tsv", "hr-en", "bitext", data)])
        with pytest.raises(MalformedLineError) as err:
            draw_all(manifest)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("data", [
        b"s0\tt0\r\ns1\tt1\r\ns2\tt2\r\n",          # CRLF
        b"s0\tt0\ns1\tt1\ns2\tt2",                  # no final newline
        b"s0\tt0\r\ns1\tt1\ns2\tt2",                # both, mixed
        "šđ\tx\x0by\x1cz\x85 \n\t\n".encode(),  # not line ends
    ])
    def test_draws_match_read_pairs(self, tmp_path, data):
        manifest = raw_corpus(tmp_path, [("bx.tsv", "hr-en", "bitext", data)])
        lines = list(read_pairs(manifest.shard("bx.tsv")))
        drawn = draw_all(manifest)
        assert {p.line_no for p in drawn} == set(range(1, len(lines) + 1))
        assert all(p == lines[p.line_no - 1] for p in drawn)

    def test_invalid_utf8_fails_at_build(self, tmp_path):
        manifest = raw_corpus(tmp_path, [
            ("bx.tsv", "hr-en", "bitext", b"a\tb\nc\t\xc3\nd\te\n")])
        with pytest.raises(MalformedLineError, match="^bx.tsv:2: not UTF-8 at byte 3 ") as err:
            draw_all(manifest)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("data, line_no", [
        (b"a\tb\nno tab\n", 2), (b"a\tb\tc\n", 1), (b"a\tb\n\nc\td\n", 2),
        (b"a\tb\tc\nd\n", 1),   # as many tabs as lines, not one on each
    ])
    def test_tab_count_fails_at_build(self, tmp_path, data, line_no):
        manifest = raw_corpus(tmp_path, [("bx.tsv", "hr-en", "bitext", data)])
        with pytest.raises(MalformedLineError) as err:
            draw_all(manifest)
        assert err.value.line_no == line_no

    def test_bad_line_in_zero_weight_pool_still_fails(self, tmp_path):
        manifest = raw_corpus(tmp_path, [
            ("bx.tsv", "hr-en", "bitext", b"a\tb\n"),
            ("bt.tsv", "en-hr", "bt", b"a\tb\nbad\n"),
        ])
        with pytest.raises(MalformedLineError):
            draw_all(manifest)

    def test_lines_across_index_chunks(self, tmp_path):
        # Lines long enough that the index pass reads the shard in several steps.
        rows = [(f"s{i}" + "x" * 5000, f"t{i}") for i in range(200)]
        data = "".join(f"{s}\t{t}\n" for s, t in rows).encode()
        manifest = raw_corpus(tmp_path, [("bx.tsv", "hr-en", "bitext", data)])
        drawn = draw_all(manifest, draws=300)
        assert all((p.source, p.target) == rows[p.line_no - 1] for p in drawn)

    @pytest.mark.parametrize("limit, typecodes", [
        (sampling._I_OFFSET_LIMIT, "III"), (40, "IQI"), (0, "QQQ")])
    def test_8_byte_offsets_draw_the_same_pairs(self, tmp_path, monkeypatch,
                                                 limit, typecodes):
        small = "".join(f"s{i}\tt{i}\n" for i in range(5)).encode()   # 30 bytes
        large = "".join(f"s{i}š\tt{i}\r\n" for i in range(20)).encode()
        manifest = raw_corpus(tmp_path, [
            ("a.tsv", "hr-en", "bitext", small),
            ("b.tsv", "hr-en", "bitext", large),   # a second shard: the bisect path
            ("c.tsv", "en-hu", "bitext", small),
        ])
        want = draw_all(manifest)
        index_lines, seen = sampling._index_lines, []
        monkeypatch.setattr(sampling, "_I_OFFSET_LIMIT", limit)
        monkeypatch.setattr(sampling, "_index_lines",
                            lambda *args: seen.append(index_lines(*args)) or seen[-1])
        assert draw_all(manifest) == want
        assert "".join(offsets.typecode for offsets in seen) == typecodes

    @pytest.mark.parametrize("data", [
        b"s0\tt0\ns1\tt1\n",                      # ASCII
        "šđ\tčć\nжзи\tλμ\n".encode(),          # non-ASCII UTF-8
        b"s0\tt0\r\ns1\tt1\r\n",                  # CRLF
        b"s0\tt0\ns1\tt1",                        # an unended last line
        "".join(f"s{i}š\tt{i}\r\n" for i in range(40)).encode(),   # straddling reads
    ], ids=["ascii", "utf8", "crlf", "unended", "straddling"])
    def test_valid_chunks_take_the_fast_path(self, tmp_path, monkeypatch, data):
        # A silent fall back to the per-line walk would keep every result
        # and only cost time; count the walk's calls instead.
        monkeypatch.setattr(corpus, "_BYTES_PER_READ", 16)
        calls = []
        monkeypatch.setattr(sampling, "decode_lines",
                            lambda *args: calls.append(args) or decode_lines(*args))
        manifest = raw_corpus(tmp_path, [("bx.tsv", "hr-en", "bitext", data)])
        draw_all(manifest)
        assert calls == []
        (tmp_path / "bx.tsv").write_bytes(data + b"\nno tab\n")   # the control
        with pytest.raises(MalformedLineError):
            draw_all(manifest)
        assert calls


_ALPHABET = [b"a", "š".encode(), b"\t", b"\n", b"\r", b"\xc3"]
_SIDE = st.lists(st.sampled_from(_ALPHABET[:2]), max_size=3).map(b"".join)


@st.composite
def _shard_bytes(draw):
    """Either any string of alphabet bytes, nearly always malformed, or valid
    lines, into which about half the time a run of alphabet bytes is spliced
    at a drawn offset, and whose last line end may be cut off."""
    if draw(st.booleans()):
        return b"".join(draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=30)))
    rows = draw(st.lists(st.tuples(_SIDE, _SIDE, st.sampled_from([b"\n", b"\r\n"])),
                         min_size=1, max_size=8))
    data = b"".join(source + b"\t" + target + end for source, target, end in rows)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        junk = draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=4))
        data = data[:at] + b"".join(junk) + data[at:]
    return data[:-1] if draw(st.booleans()) else data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_shard_bytes(), bytes_per_read=st.integers(1, 12))
def test_index_agrees_with_read_pairs(data, bytes_per_read):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_BYTES_PER_READ", bytes_per_read)   # reads split lines
        manifest = raw_corpus(Path(tmp), [("bx.tsv", "hr-en", "bitext", data)])
        try:
            want = list(read_pairs(manifest.shard("bx.tsv")))
        except MalformedLineError as exc:
            with pytest.raises(MalformedLineError) as err:
                draw_all(manifest)
            assert (err.value.path, err.value.line_no, err.value.reason) == \
                (exc.path, exc.line_no, exc.reason)
            return
        drawn = draw_all(manifest, draws=40 * len(want))
        assert {p.line_no for p in drawn} == set(range(1, len(want) + 1))
        assert all(p == want[p.line_no - 1] for p in drawn)


class MaterializingScheduler:
    """The scheduler as it was before the offset index: every pair is held
    in memory and each pick calls ``random.choices``. Kept as the reference
    that the draw stream must match exactly."""

    def __init__(self, manifest, distribution, weights, batch_size, seed):
        self.batch_size = batch_size
        self._rng = random.Random(seed)
        pools = {}
        for pair in chain.from_iterable(map(read_pairs, manifest.shards)):
            pools.setdefault(pair.origin, {}).setdefault(pair.direction, []).append(pair)
        self._pools = []
        self._pool_weights = []
        for pool in OriginPool:
            lam = weights.for_pool(pool)
            if lam <= 0:
                continue
            by_dir = {d: ps for d, ps in pools.get(pool, {}).items() if ps}
            if not by_dir:
                raise MTForgeError(
                    f"pool {pool.value} has weight {lam:g} but no pairs in the manifest")
            directions = sorted(by_dir)
            dir_weights = [distribution.q.get(d.src, 0.0) * distribution.q.get(d.tgt, 0.0)
                           for d in directions]
            if sum(dir_weights) <= 0:
                raise MTForgeError(f"pool {pool.value}: no direction has positive sampling weight")
            self._pools.append((directions, dir_weights, by_dir))
            self._pool_weights.append(lam)

    def draw(self):
        directions, dir_weights, by_dir = self._rng.choices(
            self._pools, weights=self._pool_weights)[0]
        pairs = by_dir[self._rng.choices(directions, weights=dir_weights)[0]]
        return pairs[self._rng.randrange(len(pairs))]

    def next_batch(self):
        pairs = [self.draw() for _ in range(self.batch_size)]
        composition = {}
        for pair in pairs:
            for lang in (pair.direction.src, pair.direction.tgt):
                key = (lang, pair.origin)
                composition[key] = composition.get(key, 0) + 1
        return Batch(pairs, composition)


_DIRECTIONS = ["hr-en", "en-hr", "hu-en", "hr-hu", "mk-hu"]
_ORIGINS = ["bitext", "bt", "dual_pseudo"]
_SIDES = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\t\r\n"), max_size=6)
_SHARDS = st.lists(
    st.tuples(st.sampled_from(_DIRECTIONS), st.sampled_from(_ORIGINS),
              st.lists(st.tuples(_SIDES, _SIDES), max_size=6),
              st.sampled_from(["\n", "\r\n"]), st.booleans()),
    min_size=1, max_size=7)
_WEIGHTS = st.tuples(*[st.sampled_from([0, 0.2, 1, 2.5])] * 3).filter(lambda w: sum(w) > 0)


def _write_random_corpus(root, shards):
    """``shards`` as drawn from ``_SHARDS``: (direction, origin, rows, line
    end, whether the last line has its end)."""
    entries = []
    for i, (direction, origin, rows, end, final_end) in enumerate(shards):
        text = end.join(f"{s}\t{t}" for s, t in rows)
        if rows and final_end:
            text += end
        entries.append((f"shard{i}.tsv", direction, origin, text.encode()))
    return raw_corpus(root, entries)


@settings(max_examples=80, deadline=None)
@given(shards=_SHARDS, weights=_WEIGHTS, seed=st.integers(0, 2**64),
       batch_size=st.integers(1, 40))
def test_draw_stream_matches_materializing_oracle(shards, weights, seed, batch_size):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _write_random_corpus(Path(tmp), shards)
        stats = corpus_stats(manifest)
        assume(stats.total_pairs > 0)
        dist = language_distribution(stats, 5.0)
        weights = MixtureWeights(*weights)
        try:
            oracle = MaterializingScheduler(manifest, dist, weights, batch_size, seed)
        except MTForgeError as exc:
            with pytest.raises(MTForgeError) as err:
                BatchScheduler(manifest, dist, weights, batch_size, seed)
            assert str(err.value) == str(exc)
            return
        with BatchScheduler(manifest, dist, weights, batch_size, seed) as sched:
            for _ in range(3):
                got, want = sched.next_batch(), oracle.next_batch()
                assert got.pairs == want.pairs
                assert list(got.composition.items()) == list(want.composition.items())


def _composition_rows(batches):
    return ["\t".join(map(str, row)) for b, batch in enumerate(batches)
            for row in sorted((b, lang, origin.value, n)
                              for (lang, origin), n in batch.composition.items())]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shards=_SHARDS, weights=_WEIGHTS, seed=st.integers(0, 2**64),
       batch_size=st.integers(1, 40), batches=st.integers(1, 4))
def test_composition_report_reads_no_line(shards, weights, seed, batch_size, batches):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _write_random_corpus(Path(tmp), shards)
        stats = corpus_stats(manifest)
        assume(stats.total_pairs > 0)
        dist = language_distribution(stats, 5.0)
        weights = MixtureWeights(*weights)
        try:
            oracle = MaterializingScheduler(manifest, dist, weights, batch_size, seed)
        except MTForgeError:
            return
        want = [oracle.next_batch() for _ in range(batches + 1)]
        report = Path(tmp) / "composition.tsv"
        with BatchScheduler(manifest, dist, weights, batch_size, seed) as sched:
            def no_read(*args):
                raise AssertionError("a line was read")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "pread", no_read)
                mp.setattr(sampling, "_read_batch", no_read)
                sampling.write_composition(sched, batches, report)
            got = sched.next_batch()
        assert report.read_text(encoding="utf-8").splitlines() == \
            ["# batch\tlanguage\torigin\tcount"] + _composition_rows(want[:batches])
        assert got.pairs == want[batches].pairs
        assert list(got.composition.items()) == list(want[batches].composition.items())


@settings(max_examples=25, deadline=None)
@given(weights=_WEIGHTS, seed=st.integers(0, 2**32))
def test_pool_fractions_follow_mixture_weights(tmp_path_factory, weights, seed):
    manifest = three_pool_corpus(
        lambda shards: build_manifest(tmp_path_factory.mktemp("corpus"), shards))
    draws = 4000
    pairs = draw_all(manifest, MixtureWeights(*weights), draws=draws, seed=seed)
    for origin, w in zip(OriginPool, weights):
        p = w / sum(weights)
        observed = sum(pair.origin is origin for pair in pairs) / draws
        assert abs(observed - p) <= 5 * math.sqrt(p * (1 - p) / draws)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDescriptors:
    def corpus(self, make_corpus):
        rows = [("s", "t")] * 3
        return make_corpus([
            ("bx1.tsv", "hr-en", "bitext", rows),
            ("bx2.tsv", "hr-en", "bitext", rows),
            ("empty.tsv", "en-hu", "bitext", []),
            ("bt.tsv", "hu-en", "bt", rows),
            ("dp.tsv", "hr-hu", "dual_pseudo", rows),
        ])

    def test_one_per_drawable_shard_released_on_close(self, make_corpus):
        manifest = self.corpus(make_corpus)
        before = open_descriptors()
        # dual_pseudo has zero weight and empty.tsv has no lines: 3 kept.
        sched = scheduler_for(manifest, MixtureWeights(0.5, 0.5, 0))
        assert open_descriptors() == before + 3
        sched.next_batch()
        sched.close()
        assert open_descriptors() == before
        sched.close()
        with pytest.raises(ValueError, match="closed"):
            sched.next_batch()

    @pytest.mark.parametrize("batches", [3, 0])
    def test_composition_report_refused_when_closed(self, make_corpus, tmp_path, batches):
        sched = scheduler_for(self.corpus(make_corpus), MixtureWeights(0.5, 0.5, 0))
        sched.close()
        report = tmp_path / "composition.tsv"
        with pytest.raises(ValueError, match="closed"):
            sampling.write_composition(sched, batches, report)
        assert not report.exists()

    def test_released_when_dropped(self, make_corpus):
        manifest = self.corpus(make_corpus)
        before = open_descriptors()
        sched = scheduler_for(manifest, MixtureWeights(1, 1, 1))
        assert open_descriptors() == before + 4
        del sched
        gc.collect()
        assert open_descriptors() == before

    def test_released_when_construction_fails(self, make_corpus, tmp_path):
        manifest = self.corpus(make_corpus)
        (tmp_path / "dp.tsv").write_text("no tab\n", encoding="utf-8")
        before = open_descriptors()
        with pytest.raises(MalformedLineError):
            scheduler_for(manifest, MixtureWeights(1, 1, 1))
        gc.collect()
        assert open_descriptors() == before
