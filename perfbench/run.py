"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload spot-c5 --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, and every file the run writes stays inside the checkout.

With `--trace 0` each stage runs as its own CLI process and the last line
of stdout is a JSON object with the end-to-end metrics. With `--trace 1`
the stages are replayed in this process, once untraced and once with
spans around the package's public functions, and the metrics are the
per-layer ones. The line before the result holds the environment record,
the per-stage timings and any failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
WORKLOADS = ("spot-c5", "ground-c6", "split-scale")

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "infer_windows_per_s": "windows/s",
    "quality_ap": "AP",
    "final_train_loss": "nats",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least two passes run regardless")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds(root: Path, repeats: int = 3) -> float:
    """Median wall of a process that only imports spotground.cli."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spotground.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _summary(passes) -> list[list[dict]]:
    return [[{"stage": r.stage, "ok": r.ok, "wall_s": r.wall_s,
              "maxrss_mb": r.maxrss_kb / 1024.0, **r.info,
              **({"reason": r.reason} if r.reason else {})}
             for r in p.values()] for p in passes]


def measure(name: str, seed: int, seconds: float, work: Path, tiny: bool = False):
    """Untraced run: returns (metrics, passes, setup times)."""
    from perfbench import harness, workloads

    wl = workloads.make(name, tiny=tiny)
    inp = work / "inputs"
    t0 = time.perf_counter()
    setup = harness.SetupTimer(wl, inp, seed)
    facts = wl.facts(inp)
    runner = harness.SubprocessRunner(ROOT, work / "logs")
    budget = seconds - (time.perf_counter() - t0)  # set-up is part of the measuring time
    passes = harness.run_passes(wl, inp, work / "runs", seed, budget, runner, facts,
                                between=setup.sample)
    return harness.end_to_end(passes, facts, setup.times), passes, setup.times


def measure_traced(name: str, seed: int, work: Path, spans_path: Path | None, tiny: bool = False):
    """Traced run: one untraced and one traced in-process pass over every stage."""
    from perfbench import harness, layers, workloads
    from perfbench.spans import Tracer

    wl = workloads.make(name, tiny=tiny)
    inp = work / "inputs"
    tracer = Tracer(layers.COUNTERS)
    workloads.clear(inp)
    with tracer:
        tracer.run = "setup"
        wl.setup(inp, seed)
    facts = wl.facts(inp)
    runner = harness.InProcessRunner()
    base = harness.run_pass(wl.stages(inp, work / "u-train", work / "u", seed), runner, facts, None)
    with tracer:
        tracer.run = f"{name}/{seed}/0"
        traced = harness.run_pass(wl.stages(inp, work / "t-train", work / "t", seed),
                                  runner, facts, None)
    for stage, run in traced.items():
        if run.ok and base[stage].ok and run.digest != base[stage].digest:
            run.ok, run.reason = False, "traced output differs from untraced output"
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    untraced_s = sum(r.wall_s for r in base.values())
    traced_s = sum(r.wall_s for r in traced.values())
    extra = {
        "cli.import_s": import_seconds(ROOT),
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    return layers.per_layer(tracer.spans, extra), [base, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds, so the stage process and work files go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = ROOT / "src"
    if not (src / "spotground" / "cli.py").is_file():
        print(f"error: no spotground sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import envinfo

    # one BLAS thread unless the caller sets one: on a few shared cores a
    # second thread mostly measures the scheduler. Set before numpy loads,
    # here and in every stage process.
    for var in envinfo.THREAD_VARS:
        os.environ.setdefault(var, "1")
    from perfbench import harness, layers

    work = ROOT / WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        if args.trace:
            spans = ROOT / OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics, passes = measure_traced(args.workload, args.seed, work, spans)
            units, setup_times = layers.UNITS, []
        else:
            metrics, passes, setup_times = measure(args.workload, args.seed, args.seconds, work)
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = harness.count_ops(passes)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": envinfo.environment(ROOT, args.seed),
        "setup_s_each": setup_times,
        "passes": _summary(passes),
        "failures": harness.failures(passes),
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
