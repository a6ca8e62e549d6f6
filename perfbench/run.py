"""Run one mtforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/mtforge``. Workloads:
``clean``, ``augment``, ``sample``, ``route`` (see README.md). The inputs are
generated from ``--seed`` in a separate process, several times. A worker
process then builds the ciphers and tokenizer, also several times, runs timed
passes for ``--seconds`` and checks the output. Set-up and pass times are
scaled to the host's full speed (see ``speed.py``). With ``--trace 1`` it also
runs traced passes and reports the per-layer metrics instead of the
end-to-end ones.

Every metric is printed as ``name value unit``; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every operation and every output
check succeeded. Everything is written under ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clean", "augment", "sample", "route")
TIME_LIMIT_S = 170


def _run_json(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               PYTHONHASHSEED="0")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:4])} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: int, scale: float,
        work: Path, spec: dict) -> tuple[dict, dict]:
    """Returns (result line, report). ``spec`` is BENCHMARK.json, which
    names every metric and its unit."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    py = sys.executable
    gen = _run_json([py, "-m", "perfbench.gen", "--workload", workload, "--seed", str(seed),
                     "--scale", str(scale), "--out", str(inputs)], deadline)
    meta_path = work / "inputs.json"
    meta_path.write_text(json.dumps(gen), encoding="utf-8")
    res = _run_json([py, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace), "--scale", str(scale),
                     "--inputs", str(inputs), "--out", str(work / "out"),
                     "--meta", str(meta_path)], deadline)
    if not Path(res["mtforge"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"mtforge was imported from {res['mtforge']}, not {ROOT / 'src'}")

    metrics: dict[str, float] = {}
    passes = res.get("passes", [])
    if passes:
        wall = statistics.median(p["wall"] for p in passes)
        metrics = {
            "setup_s": gen["gen_median_s"] + res["build_median_s"],
            "wall_s": wall,
            "items_per_s": passes[-1]["items"] / wall,
            "peak_rss_mib": res["peak_rss_mib"],
            "first_batch_s": statistics.median(p["first_batch"] for p in passes),
            "batches_per_s": statistics.median(p["batches_per_s"] for p in passes),
        }
    if trace:
        props = gen["properties"]
        metrics = dict(res.get("per_layer", {}))
        for key in ("pairs", "words", "word_types", "word_repeat_share",
                    "mean_sentence_words", "bytes"):
            metrics[f"input.{key}"] = props[key]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    line = {"correct": res["failed"] == 0, "attempted": max(1, res["attempted"]),
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "provenance": {
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_commit": _git_commit(), "input_digest": gen["input_digest"],
            "output_digest": res.get("output_digest"), "input_files": gen["digests"],
        },
        "input": gen["properties"], "setup": {"gen_s": gen["gen_s"], "build_s": res["build_s"]},
        "speed": res.get("speed"), "passes": passes, "failures": res["failures"],
    }
    return line, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every input size (reduced-scale self-tests)")
    ap.add_argument("--work", type=Path, default=ROOT / ".perfbench-work")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mtforge" / "__init__.py").is_file():
        print(f"no mtforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        line, report = run(args.workload, args.seed, args.seconds, args.trace, args.scale,
                           args.work / args.workload, spec)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 2
    (args.work / args.workload / "report.json").write_text(
        json.dumps({**report, "result": line}, indent=1, sort_keys=True), encoding="utf-8")

    print(f"# workload {args.workload}  seed {args.seed}  passes {len(report['passes'])}")
    print("# provenance " + json.dumps({k: v for k, v in report["provenance"].items()
                                        if k != "input_files"}, sort_keys=True))
    print("# input " + json.dumps(report["input"], sort_keys=True))
    for failure in report["failures"]:
        print("# FAILED " + failure.replace("\n", "\n#   "))
    print(f"ops_failed {line['failed']} count (of {line['attempted']} ops)")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
