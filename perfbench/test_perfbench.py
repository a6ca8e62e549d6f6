"""Self-tests of the benchmark, at reduced input scale.

They run ``perfbench/run.py`` end to end in subprocesses: every workload in
both modes, a repeat with one seed, a copy of the package with one output
corrupted, and a checkout without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, work: Path, trace: int = 0, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "0.01", "--work", str(work)],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_scale_run(tmp_path, workload, trace):
    proc, line = _run(ROOT, workload, tmp_path, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_same_seed_same_digests(tmp_path):
    provenance = []
    for i in range(2):
        proc, line = _run(ROOT, "clean", tmp_path / str(i), seed=7)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / str(i) / "clean" / "report.json").read_text())
        provenance.append(report["provenance"])
    assert provenance[0]["input_digest"] == provenance[1]["input_digest"]
    assert provenance[0]["output_digest"] == provenance[1]["output_digest"]


def test_speed_probe_scales_to_full_speed():
    probe = SpeedProbe()
    # Samples at 0, 1, 2 and 3 s: full speed, then half speed.
    probe.at = [0.0, 1.0, 2.0, 3.0]
    probe.took = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert probe.seconds(0.0, 1.5) == pytest.approx(1.5 - 2 * REFERENCE_S)
    assert probe.seconds(2.0, 3.5) == pytest.approx((1.5 - 4 * REFERENCE_S) / 2)
    assert probe.seconds(1.5, 2.5) == pytest.approx((1.0 - 2 * REFERENCE_S) / 2)
    assert probe.seconds(1.2, 1.4) == pytest.approx(0.2)   # no sample: the one before


def _checkout(dest: Path, with_package: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_package:
        shutil.copytree(ROOT / "src" / "mtforge", dest / "src" / "mtforge", ignore=ignore)
    return dest


_TRANSLATE = ("translator.py", "            out.append(sentence)\n",
              "            out.append(sentence if out else sentence[::-1])\n")
MUTATIONS = {
    # The first sentence of every translate call comes back reversed.
    "augment": _TRANSLATE,
    "route": _TRANSLATE,
    # The shuffle loses one line of each chunk.
    "clean": ("cleaning.py", "                rng.shuffle(lines)\n",
              "                rng.shuffle(lines)\n                lines = lines[1:]\n"),
    # Draws come from the first half of each direction only.
    "sample": ("sampling.py", "        return pairs[self._rng.randrange(len(pairs))]\n",
               "        return pairs[self._rng.randrange(len(pairs)) // 2]\n"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_caught(tmp_path, workload):
    root = _checkout(tmp_path / "checkout")
    name, old, new = MUTATIONS[workload]
    module = root / "src" / "mtforge" / name
    text = module.read_text(encoding="utf-8")
    assert text.count(old) == 1
    module.write_text(text.replace(old, new), encoding="utf-8")
    proc, line = _run(root, workload, tmp_path / "work")
    assert proc.returncode != 0
    assert line is not None and not line["correct"] and line["failed"] >= 1, proc.stdout


def test_fails_without_the_package(tmp_path):
    root = _checkout(tmp_path, with_package=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert sorted(p.name for p in root.iterdir()) == ["BENCHMARK.json", "perfbench"]
