"""The process that runs one workload: set-up, timed passes, output checks
and, with ``--trace 1``, the traced passes.

Run as ``python3 -m perfbench.worker`` by ``perfbench/run.py``, which has
already generated the inputs in another process. Prints one JSON object.

Passes repeat until ``--seconds`` have gone by and at least ``MIN_PASSES``
have run; each one starts from an empty output directory. The output of the
last pass is checked against references built from the inputs, and every
pass must give the same output digest. The peak RSS is read before the
checks, so that it is the high-water mark of the workload alone. Without
``--trace`` a ``SpeedProbe`` runs through set-up and passes, and their times
are reported at the host's full speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import mtforge

from . import tracer as tracing
from .gen import setup_repeats
from .speed import SpeedProbe
from .workloads import WORKLOADS

MIN_PASSES = 3
_now = time.perf_counter


def _fresh(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()


class Runner:
    def __init__(self, wl, ctx, inputs: Path, out: Path):
        self.wl, self.ctx, self.inputs, self.out = wl, ctx, inputs, out
        self.ops = 0
        self.failures: list[str] = []

    def passes(self, seconds: float, minimum: int, tracer_factory=None):
        """Run passes; keep the data of the last one only."""
        done, traces, last = [], [], None
        t_start = _now()
        while True:
            if last is not None:
                last.data = {}
            _fresh(self.out)
            tracer = tracer_factory() if tracer_factory else None
            try:
                if tracer is None:
                    p = self.wl.run(self.ctx, self.inputs, self.out)
                else:
                    with tracing.patched(tracer):
                        p = self.wl.run(self.ctx, self.inputs, self.out, tracer)
                    tracer.finish()
            except Exception:
                self.ops += 1
                self.failures.append("pass raised:\n" + traceback.format_exc())
                return done, traces, last
            self.ops += p.ops
            p.digest = self.wl.digest(p, self.out)
            done.append(p)
            if tracer is not None:
                traces.append(tracer)
            last = p
            if len(done) >= minimum and _now() - t_start >= seconds:
                return done, traces, last

    def same_output(self, runs, reference: str) -> None:
        self.ops += len(runs)
        for i, p in enumerate(runs):
            if p.digest != reference:
                self.failures.append(f"pass {i} output digest {p.digest} != {reference}")


def _timings(p, seconds) -> dict:
    """A pass's timings, with ``seconds(a, b)`` as the clock."""
    wall = seconds(p.start, p.end)
    if p.rest is None:
        rate = 1 / wall
    else:
        a, b, units = p.rest
        rate = units / seconds(a, b)
    return {"wall": wall, "first_batch": seconds(*p.first), "batches_per_s": rate,
            "items": p.items, "clock_wall": p.end - p.start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--meta", type=Path, required=True, help="the generator's JSON")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    scratch = args.out.parent / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)     # shuffle_dataset's chunk files
    meta = json.loads(args.meta.read_text(encoding="utf-8"))
    budget = args.seconds / 2 if args.trace else args.seconds
    # The timed run scales its timings to the host's full speed; the traced
    # run reads the plain clock, so that it and its overhead stay comparable.
    probe = None if args.trace else SpeedProbe()
    built: dict = {}
    with probe or contextlib.nullcontext():
        build = setup_repeats(lambda: built.update(ctx=wl.build(args.inputs, args.seed)))
        ctx = built["ctx"]
        ctx["scale"] = args.scale
        wl.prepare(ctx, args.inputs, args.seed)
        runner = Runner(wl, ctx, args.inputs, args.out)
        runs, _, last = runner.passes(budget, 1 if args.trace else MIN_PASSES)
    result: dict = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    seconds = probe.seconds if probe else (lambda a, b: b - a)
    build_s = [seconds(a, b) for a, b in build]
    result.update({"mtforge": mtforge.__file__, "build_s": build_s,
                   "build_median_s": statistics.median(build_s)})
    if probe:
        result["speed"] = {"samples": len(probe.took), "fastest_s": probe.fastest,
                           "mean_share": probe.speed(probe.at[0], probe.at[-1] + 1)}
    checks = 0
    if last is not None:
        n, failed = wl.check(ctx, args.inputs, args.out, last, meta["expect"])
        checks += n
        runner.failures += failed
        runner.same_output(runs, last.digest)
        last.data = {}
        result["output_digest"] = last.digest
        result["passes"] = [_timings(p, seconds) for p in runs]
    if args.trace and last is not None and not runner.failures:
        traced, traces, _ = runner.passes(budget, 1, tracing.Tracer)
        runner.same_output(traced, last.digest)
        probe = None
        if wl.memory_pass and not runner.failures:
            probe = tracing.MemoryProbe()
            with probe.patched():
                mem_runs, _, _ = runner.passes(0, 1)
            runner.same_output(mem_runs, last.digest)
        if traces:
            walls = [t.root.dur for t in traces]
            chosen = traces[walls.index(statistics.median_low(walls))]
            layer = tracing.summarize(chosen, probe, meta["properties"]["pairs"])
            layer["trace.overhead_s"] = chosen.root.dur - statistics.median(
                p.end - p.start for p in runs)
            result["per_layer"] = layer
            # Self times of the layers, the benchmark and the tracer's own
            # bookkeeping must add up to the traced pass.
            checks += 1
            parts = [f"{name}.self_s" for name in (*tracing.LAYERS, "bench", "trace")]
            if abs(sum(layer[k] for k in parts) - layer["trace.wall_s"]) > 1e-6:
                runner.failures.append("self times do not add up to the traced wall time")
    result["attempted"] = runner.ops + checks
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
