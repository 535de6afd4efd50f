import json
import math
from pathlib import Path

import pytest

from perfbench import harness, layers, run, workloads
from perfbench.workloads import Facts, Stage

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_of_each_workload(name, tmp_path):
    metrics, passes, setup_times = run.measure(name, seed=3, seconds=0, work=tmp_path, tiny=True)
    assert harness.failures(passes) == []
    assert len(passes) == harness.MIN_PASSES
    assert len(setup_times) >= 1 + harness.MIN_PASSES  # a slice before and after each pass
    assert set(metrics) == set(run.UNITS)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert 0.0 <= metrics["quality_ap"] <= 1.0
    assert metrics["ops_ok_ratio"] == 1.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    metrics, passes = run.measure_traced(name, seed=3, work=tmp_path, spans_path=None, tiny=True)
    assert harness.failures(passes) == []
    assert set(metrics) == set(layers.UNITS)
    assert metrics["cli.import_s"] > 0
    assert metrics["nn.adam_step.calls"] > 0
    assert metrics["train.step_ms.samples"] == metrics["nn.adam_step.calls"] - 1
    if name == "split-scale":
        assert metrics["spotting.score_series.windows"] > 0
        assert metrics["spotting.netvlad_backward.busy_s"] > 0
    if name == "ground-c6":
        assert metrics["grounding.sample_grounding_pairs.pairs"] > 0
        assert metrics["grounding.merge_nms.kept_ratio"] > 0


def test_bad_checkpoint_fails_only_the_stage_that_reads_it(tmp_path):
    wl = workloads.make("split-scale", tiny=True)
    inp = tmp_path / "inputs"
    harness.SetupTimer(wl, inp, seed=3)
    facts = wl.facts(inp)
    (inp / "model.sgckpt").write_bytes(b"not a checkpoint")
    runner = harness.SubprocessRunner(ROOT, tmp_path / "logs")
    passes = harness.run_passes(wl, inp, tmp_path / "runs", 3, 0, runner, facts)
    attempted, failed = harness.count_ops(passes)
    assert (attempted, failed) == (3 * len(passes), len(passes))
    assert all(p["spot train"].ok and not p["spot infer"].ok and p["eval spot"].ok
               for p in passes)
    assert "exit code 1" in passes[0]["spot infer"].reason
    metrics = harness.end_to_end(passes, facts, [1.0])
    assert metrics["ops_ok_ratio"] == pytest.approx(2 / 3)  # train and eval pass
    assert "infer_windows_per_s" not in metrics and "wall_s" not in metrics


def test_failed_training_fails_everything_downstream(tmp_path):
    wl = workloads.make("spot-c5", tiny=True)
    inp = tmp_path / "inputs"
    harness.SetupTimer(wl, inp, seed=3)
    facts = wl.facts(inp)
    next((inp / "data").glob("*/1_*.npy")).write_bytes(b"\x93NUMPY broken")
    runner = harness.SubprocessRunner(ROOT, tmp_path / "logs")
    passes = harness.run_passes(wl, inp, tmp_path / "runs", 3, 0, runner, facts)
    attempted, failed = harness.count_ops(passes)
    # train, two infer reps and eval per pass
    assert attempted == failed == 4 * len(passes)
    assert passes[1]["spot infer #2"].reason == "an input stage failed"
    assert passes[1]["eval spot"].reason == "an input stage failed"
    assert harness.end_to_end(passes, facts, [1.0])["ops_ok_ratio"] == 0.0


class _FlakyEval:
    """Writes a valid eval report whose score changes on every call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, stage):
        self.calls += 1
        stage.out.mkdir(parents=True)
        doc = {"average_ap": 0.5 + 0.1 * self.calls, "num_predictions": 4}
        (stage.out / "ground_eval.json").write_text(json.dumps(doc))
        return 0, "", 0.01, 0


def test_output_that_changes_between_passes_is_a_failure(tmp_path):
    runner = _FlakyEval()
    wl = workloads.Workload("flaky", "")
    wl.stages = lambda inp, train, out, seed: [Stage("eval ground", (), out / "eval")]
    passes = harness.run_passes(wl, tmp_path, tmp_path / "runs", 0, 0, runner, Facts())
    assert passes[0]["eval ground"].ok
    assert not passes[1]["eval ground"].ok
    assert passes[1]["eval ground"].reason == "output differs from the first pass"


def test_every_rep_is_checked_against_the_first(tmp_path):
    runner = _FlakyEval()
    wl = workloads.Workload("flaky", "")
    wl.stages = lambda inp, train, out, seed: [Stage("eval ground", (), out / "eval", reps=3)]
    passes = harness.run_passes(wl, tmp_path, tmp_path / "runs", 0, 0, runner, Facts())
    assert list(passes[0]) == ["eval ground", "eval ground #2", "eval ground #3"]
    assert passes[0]["eval ground"].ok
    assert not passes[0]["eval ground #2"].ok and not passes[1]["eval ground"].ok
    assert runner.calls == 3 * len(passes)


def test_stderr_output_is_a_failure(tmp_path):
    stage = Stage("eval ground", (), tmp_path / "eval")
    result = harness.run_stage(stage, lambda st: (0, "warning: x\n", 0.1, 0), Facts(), {})
    assert not result.ok and result.reason.startswith("wrote to stderr")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
