"""Input generators for the benchmark workloads.

Run as ``python3 -m perfbench.gen --workload W --seed N --out DIR`` from the
checkout root. Every file is a function of (workload, seed, scale) only. The
generator writes the cipher maps as plain ``word<TAB>pseudo`` files, so the
inputs do not depend on how mtforge derives its own ciphers, and prints one
JSON object: the generation times, the input properties, the blake2b digest
of every file, and the planted facts the output checks compare against.

Generation runs in its own process so that the workload process's peak RSS
belongs to the workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import time
from itertools import accumulate
from pathlib import Path

from mtforge.wordlist import COMMON_WORDS

from .speed import SpeedProbe

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Planted junk for the clean workload, in the order the filter ladder checks.
JUNK_REASONS = ("Empty", "TooLong", "ContainsUnk", "RatioExceeded")
MAX_WORDS = 48
JUNK_SHARE = 0.03

SAMPLE_SIZES = {  # (origin, src, tgt) -> pairs; skewed so temperature matters
    ("bitext", "en", "hr"): 150_000, ("bitext", "en", "hu"): 50_000,
    ("bitext", "en", "mk"): 15_000, ("bitext", "en", "sl"): 5_000,
    ("back_translation", "hr", "en"): 60_000, ("back_translation", "hu", "en"): 25_000,
    ("back_translation", "mk", "en"): 10_000, ("back_translation", "sl", "en"): 5_000,
    ("dual_pseudo", "hr", "hu"): 30_000, ("dual_pseudo", "hu", "mk"): 15_000,
    ("dual_pseudo", "mk", "sl"): 10_000, ("dual_pseudo", "hr", "sl"): 5_000,
}
XY_LANGS = ("hr", "hu", "mk")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 15, 2.0


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def cipher_map(words, rng: random.Random) -> dict[str, str]:
    """A bijection from ``words`` to CV-syllable pseudo-words outside ``words``."""
    taken = set(words)
    mapping = {}
    for word in words:
        while True:
            pseudo = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                             for _ in range(rng.randint(2, 4)))
            if pseudo not in taken:
                break
        taken.add(pseudo)
        mapping[word] = pseudo
    return mapping


def long_tail_vocab(size: int, rng: random.Random) -> list[str]:
    """COMMON_WORDS first, then synthetic English-like words up to ``size``."""
    onsets = ["b", "bl", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "fr", "g",
              "gl", "gr", "h", "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s",
              "sc", "sh", "sk", "sl", "sp", "st", "str", "t", "th", "tr", "v", "w",
              "wh", "y", "z"]
    nuclei = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "ie"]
    codas = ["", "", "b", "ck", "d", "ft", "g", "k", "l", "ld", "lt", "m", "mp", "n",
             "nd", "ng", "nk", "nt", "p", "r", "rd", "rk", "rm", "rn", "rt", "s", "sh",
             "sk", "st", "t", "th", "x"]
    suffixes = ["", "", "", "s", "ed", "er", "est", "ing", "ly", "ness", "ment",
                "tion", "able", "ful", "less", "ish"]
    vocab = list(dict.fromkeys(COMMON_WORDS))
    seen = set(vocab)
    while len(vocab) < size:
        word = "".join(rng.choice(onsets) + rng.choice(nuclei) + rng.choice(codas)
                       for _ in range(rng.choice((1, 2, 2, 3)))) + rng.choice(suffixes)
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _write_lines(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_cipher(path: Path, mapping: dict[str, str]) -> None:
    _write_lines(path, (f"{w}\t{p}" for w, p in mapping.items()))


def _write_manifest(path: Path, rows) -> None:
    _write_lines(path, ("\t".join(map(str, row)) for row in rows))


def _encoder(mapping: dict[str, str] | None):
    if mapping is None:
        return lambda words: " ".join(words)
    get = mapping.__getitem__
    return lambda words: " ".join(map(get, words))


# --- workloads ---------------------------------------------------------------

def gen_clean(seed: int, scale: float, out: Path):
    """Three en->X shards of Zipf-distributed long-tail English and its exact
    cipher, with planted junk rows; returns (texts, expect)."""
    rng = random.Random(derive_seed(seed, "clean"))
    # The vocabulary is the same for every seed: the longest piece sets the
    # tokenizer's match window, so a per-seed vocabulary would make the
    # tokenizer's cost differ between seeds.
    vocab = long_tail_vocab(max(len(COMMON_WORDS) + 1, scaled(30_000, scale)),
                            random.Random(derive_seed(0, "vocab")))
    cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(vocab))))
    _write_lines(out / "vocab.en.txt", vocab)
    rows_per_shard = scaled(1_000, scale)
    manifest, texts, pools, expect = [], [], {}, {"shards": {}}
    for lang in XY_LANGS:
        mapping = cipher_map(vocab, random.Random(derive_seed(seed, f"cipher:{lang}")))
        _write_cipher(out / f"cipher.{lang}.tsv", mapping)
        enc = _encoder(mapping)

        def words(k):
            return rng.choices(vocab, cum_weights=cum, k=k)

        n_junk = max(len(JUNK_REASONS), round(rows_per_shard * JUNK_SHARE))
        junk_at = sorted(rng.sample(range(rows_per_shard), min(n_junk, rows_per_shard)))
        planted = {line: JUNK_REASONS[i % len(JUNK_REASONS)]
                   for i, line in enumerate(junk_at)}
        rows = []
        for i in range(rows_per_shard):
            reason = planted.get(i)
            if reason == "TooLong":
                ws = words(rng.randint(MAX_WORDS + 1, MAX_WORDS + 16))
                rows.append((" ".join(ws), enc(ws)))
                continue
            ws = words(rng.randint(3, 40))
            src, tgt = " ".join(ws), enc(ws)
            if reason == "Empty":
                src, tgt = rng.choice([(src, ""), ("", tgt), ("  ", tgt)])
            elif reason == "ContainsUnk":
                side = tgt.split(" ")
                side.insert(rng.randint(0, len(side)), "[UNK]")
                tgt = " ".join(side)
            elif reason == "RatioExceeded":
                # One word against 8-16: 1 subword token against 15-31.
                src, tgt = ws[0], enc(words(rng.randint(8, 16)))
            rows.append((src, tgt))
        name = f"bitext.en-{lang}.tsv"
        _write_lines(out / name, (f"{s}\t{t}" for s, t in rows))
        manifest.append((name, "en", lang, "bitext", len(rows)))
        pools[f"bitext.en-{lang}"] = len(rows)
        texts.extend(s for row in rows for s in row)
        expect["shards"][name] = {str(line + 1): r for line, r in planted.items()}
    _write_manifest(out / "manifest.tsv", manifest)
    return texts, pools, expect


def gen_augment(seed: int, scale: float, out: Path):
    """English mono lines plus one hr-hu bitext built from English rows."""
    rng = random.Random(derive_seed(seed, "augment"))
    maps = {lang: cipher_map(COMMON_WORDS, random.Random(derive_seed(seed, f"cipher:{lang}")))
            for lang in XY_LANGS}
    for lang, mapping in maps.items():
        _write_cipher(out / f"cipher.{lang}.tsv", mapping)
    mono = [" ".join(rng.choices(COMMON_WORDS, k=rng.randint(4, 20)))
            for _ in range(scaled(200_000, scale))]
    _write_lines(out / "mono.en.txt", mono)
    enc_hr, enc_hu = _encoder(maps["hr"]), _encoder(maps["hu"])
    bitext = []
    for _ in range(scaled(50_000, scale)):
        ws = rng.choices(COMMON_WORDS, k=rng.randint(4, 20))
        bitext.append((enc_hr(ws), enc_hu(ws)))
    _write_lines(out / "bitext.hr-hu.tsv", (f"{s}\t{t}" for s, t in bitext))
    pools = {"mono.en": len(mono), "bitext.hr-hu": len(bitext)}
    return mono + [s for row in bitext for s in row], pools, {}


def gen_sample(seed: int, scale: float, out: Path):
    """A three-pool corpus with skewed per-direction sizes."""
    rng = random.Random(derive_seed(seed, "sample"))
    langs = sorted({l for _, s, t in SAMPLE_SIZES for l in (s, t)} - {"en"})
    maps = {lang: cipher_map(COMMON_WORDS, random.Random(derive_seed(seed, f"cipher:{lang}")))
            for lang in langs}
    encs = {"en": _encoder(None), **{lang: _encoder(m) for lang, m in maps.items()}}
    manifest, texts, pools = [], [], {}
    for (origin, src, tgt), size in SAMPLE_SIZES.items():
        rows = []
        for _ in range(scaled(size, scale)):
            ws = rng.choices(COMMON_WORDS, k=rng.randint(4, 12))
            rows.append(f"{encs[src](ws)}\t{encs[tgt](ws)}")
        name = f"{origin}.{src}-{tgt}.tsv"
        _write_lines(out / name, rows)
        manifest.append((name, src, tgt, origin, len(rows)))
        pools[f"{origin}.{src}-{tgt}"] = len(rows)
        texts.extend(s for row in rows for s in row.split("\t"))
    _write_manifest(out / "manifest.tsv", manifest)
    return texts, pools, {}


def gen_route(seed: int, scale: float, out: Path):
    """Dev and devtest sets for every X->Y direction over three ciphers."""
    rng = random.Random(derive_seed(seed, "route"))
    maps = {lang: cipher_map(COMMON_WORDS, random.Random(derive_seed(seed, f"cipher:{lang}")))
            for lang in XY_LANGS}
    for lang, mapping in maps.items():
        _write_cipher(out / f"cipher.{lang}.tsv", mapping)
    texts, pools = [], {}
    for split in ("dev", "devtest"):
        for src in XY_LANGS:
            for tgt in XY_LANGS:
                if src == tgt:
                    continue
                rows = []
                for _ in range(scaled(1_000, scale)):
                    ws = rng.choices(COMMON_WORDS, k=rng.randint(4, 12))
                    rows.append((_encoder(maps[src])(ws), _encoder(maps[tgt])(ws)))
                _write_lines(out / f"{split}.{src}-{tgt}.tsv", (f"{s}\t{t}" for s, t in rows))
                pools[f"{split}.{src}-{tgt}"] = len(rows)
                texts.extend(s for row in rows for s in row)
    return texts, pools, {}


GENERATORS = {"clean": gen_clean, "augment": gen_augment, "sample": gen_sample,
              "route": gen_route}


def file_digests(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.blake2b(digest_size=16)
        with path.open("rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        digests[path.relative_to(root).as_posix()] = h.hexdigest()
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, digest in sorted(digests.items()):
        h.update(f"{name}\t{digest}\n".encode())
    return h.hexdigest()


def text_properties(texts: list[str]) -> dict[str, float]:
    """Word counts over every text side the package will read."""
    words = 0
    types: set[str] = set()
    for text in texts:
        ws = text.split()
        words += len(ws)
        types.update(ws)
    return {
        "sentences": len(texts),
        "words": words,
        "word_types": len(types),
        # Share of word occurrences that repeat an earlier-seen word: the hit
        # rate a per-word cache would reach over this input.
        "word_repeat_share": 1 - len(types) / words if words else 0.0,
        "mean_sentence_words": words / len(texts) if texts else 0.0,
    }


def setup_repeats(step, after=lambda: None) -> list[tuple[float, float]]:
    """Run ``step()`` at least ``SETUP_MIN_REPEATS`` times and for at least
    ``SETUP_MIN_S`` seconds in all, at most ``SETUP_MAX_REPEATS`` times, so
    that a short set-up is timed often enough for a steady median. Returns
    the clock readings around each step; ``after()`` runs outside them."""
    spans: list[tuple[float, float]] = []
    while len(spans) < SETUP_MIN_REPEATS or (
            sum(b - a for a, b in spans) < SETUP_MIN_S and len(spans) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        step()
        spans.append((t0, time.perf_counter()))
        after()
    return spans


def generate(workload: str, seed: int, scale: float, out: Path) -> dict:
    """Generate the inputs into ``out`` repeatedly; every repetition must
    give the same bytes."""
    made: dict = {}

    def step():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        made["result"] = GENERATORS[workload](seed, scale, out)

    def same_bytes():
        digests = file_digests(out)
        if made.setdefault("digests", digests) != digests:
            raise SystemExit("input generation is not deterministic")

    with SpeedProbe() as probe:
        spans = setup_repeats(step, same_bytes)
    times = [probe.seconds(a, b) for a, b in spans]
    texts, pools, expect = made["result"]
    props = text_properties(texts)
    props["pairs"] = sum(pools.values())
    props["pools"] = pools
    props["bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return {"gen_s": times, "gen_median_s": statistics.median(times),
            "digests": made["digests"], "input_digest": combined_digest(made["digests"]),
            "properties": props, "expect": expect}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    result = generate(args.workload, args.seed, args.scale, args.out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
