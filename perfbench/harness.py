"""Run a workload's CLI stages, check their outputs and reduce timings to metrics.

A benchmark run sets the inputs up once to warm caches, then runs the
whole pipeline, training included, in passes until the run's time is
used; every timing is a median over the passes, so it samples the whole
run. A stage can run `reps` times in each pass, for more samples. Set-up
is timed before the first pass and after each pass. Each stage is its
own `python -m spotground.cli` process, so its wall time and peak RSS
(from `os.wait4`) are what a user pays, interpreter start-up included.

A stage fails when it exits non-zero, writes to stderr, leaves output
that the package's own readers reject, reports a quality outside [0, 1]
(or below C5's gate where it applies), or writes output that differs
from the first pass. A stage whose input stage failed is counted as
attempted and failed without being run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spotground.checkpoint import load_model
from spotground.cli import read_ground_predictions, read_spot_predictions
from spotground.errors import SpotGroundError
from spotground.vocab import DEFAULT_VOCAB

from .workloads import Facts, Stage, Workload, clear

# a slice of timed set-up repeats runs at least once, then until it has
# lasted this long (the first slice, then every later one) or run
# SETUP_MAX_REPEATS times
SETUP_FIRST_SLICE_S = 0.3
SETUP_SLICE_S = 0.15
SETUP_MAX_REPEATS = 40
MIN_PASSES = 2  # the byte-for-byte comparison needs a second pass
MAX_PASSES = 40
STAGE_TIMEOUT_S = 150.0


class CheckError(Exception):
    pass


@dataclass
class StageRun:
    stage: str
    ok: bool
    wall_s: float = 0.0
    maxrss_kb: int = 0
    reason: str = ""
    info: dict = field(default_factory=dict)
    digest: dict | None = None


# ---------------------------------------------------------------------------
# running one stage


class SubprocessRunner:
    """Runs a stage as `python -m spotground.cli ...`, one process at a time."""

    def __init__(self, root: Path, log_dir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log_dir = log_dir

    def __call__(self, stage: Stage) -> tuple[int, str, float, int]:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        err_path = self.log_dir / "stderr.txt"
        with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "spotground.cli", *stage.argv],
                                    stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no stage process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, err_path.read_text(errors="replace"), wall, usage.ru_maxrss


class InProcessRunner:
    """Runs a stage through `spotground.cli.run` in this process (traced runs)."""

    def __call__(self, stage: Stage) -> tuple[int, str, float, int]:
        import spotground.cli as cli

        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(stage.argv))
            except Exception:  # a traceback is a failed stage, as it would be on the CLI
                traceback.print_exc()
                code = 1
        return code, err.getvalue(), time.perf_counter() - t0, 0


# ---------------------------------------------------------------------------
# output checks


def _finite_unit(value, what: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckError(f"{what} {value} is not a finite number in [0, 1]")
    return value


def _count_ground(out: Path) -> int:
    files = sorted(out.glob("*/grounding.json"))
    if not files:
        raise CheckError(f"no grounding.json under {out}")
    return sum(len(preds) for f in files for _, preds in read_ground_predictions(f))


def check_outputs(stage: Stage, facts: Facts) -> dict:
    """Parse a stage's outputs with the package's readers; return what they say."""
    out, kind = stage.out, stage.name
    if kind.endswith("train"):
        history = json.loads((out / "history.json").read_text(encoding="utf-8"))
        loss = float(history[-1]["train_loss"])
        if not math.isfinite(loss):
            raise CheckError(f"final train loss {loss} is not finite")
        load_model(out / "model.sgckpt")
        return {"final_train_loss": loss}
    if kind == "spot infer":
        files = sorted(out.glob("*/spotting.json"))
        if not files:
            raise CheckError(f"no spotting.json under {out}")
        return {"predictions": sum(len(read_spot_predictions(f, DEFAULT_VOCAB)) for f in files)}
    if kind in ("ground infer", "ground fuse", "ground merge"):
        n = _count_ground(out)
        if kind == "ground fuse" and n == 0:
            raise CheckError("fusion emitted no predictions")
        return {"predictions": n}
    if kind == "eval spot":
        doc = json.loads((out / "spot_eval.json").read_text(encoding="utf-8"))
        ap = _finite_unit(doc["average_map"], "Average-mAP")
        if facts.quality_gate is not None and ap < facts.quality_gate:
            raise CheckError(f"Average-mAP {ap} below the gate {facts.quality_gate}")
        return {"quality_ap": ap}
    if kind == "eval ground":
        doc = json.loads((out / "ground_eval.json").read_text(encoding="utf-8"))
        return {"quality_ap": _finite_unit(doc["average_ap"], "average-AP")}
    raise CheckError(f"no check for stage {kind!r}")


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root except manifests, which carry wall time."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


# ---------------------------------------------------------------------------
# passes


def run_stage(stage: Stage, runner, facts: Facts, upstream: dict[str, StageRun]) -> StageRun:
    if any(not upstream[n].ok for n in stage.needs if n in upstream):
        return StageRun(stage.name, False, reason="an input stage failed")
    clear(stage.out)
    code, err, wall, rss = runner(stage)
    run = StageRun(stage.name, False, wall, rss)
    if code != 0:
        run.reason = f"exit code {code}: {err.strip()[-300:]}"
    elif err.strip():
        run.reason = f"wrote to stderr: {err.strip()[-300:]}"
    else:
        try:
            run.info = check_outputs(stage, facts)
            run.digest = tree_digest(stage.out)
            run.ok = True
        except (CheckError, SpotGroundError, OSError, ValueError, KeyError, TypeError,
                IndexError, StopIteration) as exc:
            run.reason = f"output check: {type(exc).__name__}: {exc}"
    return run


def rep_key(name: str, rep: int) -> str:
    """Key of a stage's rep-th run within a pass: "eval spot", "eval spot #2", ..."""
    return name if rep == 1 else f"{name} #{rep}"


def is_first_rep(key: str) -> bool:
    return "#" not in key


def run_pass(stages: list[Stage], runner, facts: Facts,
             first: dict[str, StageRun] | None) -> dict[str, StageRun]:
    """Run stages in order, each `reps` times.

    Every run of a stage must write the same bytes as its first run in
    `first` (or, in the first pass, as its own first rep).
    """
    done: dict[str, StageRun] = {}
    ran: dict[str, StageRun] = {}
    for stage in stages:
        for rep in range(1, stage.reps + 1):
            run = run_stage(stage, runner, facts, done)
            ref = (first or ran).get(stage.name)
            if run.ok and ref is not None and ref.ok and run.digest != ref.digest:
                run.ok, run.reason = False, "output differs from the first pass"
            ran[rep_key(stage.name, rep)] = run
            if rep == 1:
                done[stage.name] = run
    return ran


class SetupTimer:
    """Times a workload's set-up in slices spread over a run.

    The constructor writes the inputs once untimed, to warm imports, the
    allocator and the file cache, then times a first slice of repeats into
    `inp`. Later slices (`sample`) write to a probe directory beside it, so
    the inputs the stages read are never rewritten under them. Every
    repeat must write the same bytes.
    """

    def __init__(self, workload: Workload, inp: Path, seed: int):
        self.workload, self.seed = workload, seed
        self.probe = inp.parent / "setup-probe"
        self.times: list[float] = []
        clear(inp)
        workload.setup(inp, seed)
        self.ref = tree_digest(inp)
        self._slice(inp, SETUP_FIRST_SLICE_S)

    def sample(self) -> None:
        self._slice(self.probe, SETUP_SLICE_S)
        clear(self.probe)

    def _slice(self, target: Path, min_seconds: float) -> None:
        times: list[float] = []
        while not times or (len(times) < SETUP_MAX_REPEATS and sum(times) < min_seconds):
            clear(target)
            t0 = time.perf_counter()
            self.workload.setup(target, self.seed)
            times.append(time.perf_counter() - t0)
            if tree_digest(target) != self.ref:
                raise RuntimeError("set-up is not deterministic for a fixed seed")
        self.times += times


def run_passes(workload: Workload, inp: Path, work: Path, seed: int, seconds: float,
               runner, facts: Facts, between=None) -> list[dict[str, StageRun]]:
    """Run the whole pipeline in passes until another would overrun `seconds`.

    `between()`, if given, runs after each pass and counts against `seconds`.
    """
    t_start = time.perf_counter()
    passes: list[dict[str, StageRun]] = []
    while len(passes) < MAX_PASSES:
        out = work / f"pass{len(passes)}"
        stages = workload.stages(inp, out / "train", out, seed)
        t0 = time.perf_counter()
        passes.append(run_pass(stages, runner, facts, passes[0] if passes else None))
        if len(passes) > 1:
            clear(out)
        if between is not None:
            between()
        next_s = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - t_start + next_s > seconds:
            break
    return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[dict[str, StageRun]], facts: Facts,
               setup_times: list[float]) -> dict[str, float]:
    """Reduce the passes of one run to its end-to-end metrics (medians over passes).

    `wall_s` counts each stage once per pass; the rates take the median over
    every run of their stage.
    """
    names = [n for n in passes[0] if is_first_rep(n)]
    metrics = {"setup_s": statistics.median(setup_times)}

    chains = [sum(p[n].wall_s for n in names) for p in passes if all(p[n].ok for n in names)]
    if chains:
        metrics["wall_s"] = statistics.median(chains)
    train = [r for p in passes for n, r in p.items() if n.endswith("train") and r.ok]
    if train:
        metrics["train_samples_per_s"] = statistics.median(
            facts.train_samples / r.wall_s for r in train)
        metrics["final_train_loss"] = train[0].info["final_train_loss"]

    infer = [r for p in passes for n, r in p.items() if n.endswith("infer") and r.ok]
    if infer:
        metrics["infer_windows_per_s"] = statistics.median(
            facts.infer_windows / r.wall_s for r in infer)
    evals = [r for p in passes for n, r in p.items() if n.startswith("eval") and r.ok]
    if evals:
        metrics["quality_ap"] = evals[0].info["quality_ap"]
    runs = [r for p in passes for r in p.values()]
    rss = [r.maxrss_kb for r in runs if r.maxrss_kb]
    if rss:
        metrics["peak_rss_mb"] = max(rss) / 1024.0
    attempted, failed = count_ops(passes)
    metrics["ops_ok_ratio"] = 1.0 - failed / attempted
    return metrics


def count_ops(passes: list[dict[str, StageRun]]) -> tuple[int, int]:
    runs = [r for p in passes for r in p.values()]
    return len(runs), sum(not r.ok for r in runs)


def failures(passes: list[dict[str, StageRun]]) -> list[str]:
    return [f"pass {i} {r.stage}: {r.reason}"
            for i, p in enumerate(passes) for r in p.values() if not r.ok]
