"""Self-test of the benchmark harness on a tiny scene.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from cfmatch import baselines  # noqa: E402
from cfmatch.evaluate import EvalContext, Matching  # noqa: E402

TINY = bench.Workload("tiny", 5, 8, 3, tracing.STRATEGIES)
TINY_SWEEP = bench.Workload("tiny-sweep", 5, 8, 3, ("ea", "da", "cs"), kappa0=(0.5, 1.0))
TINY_WORKLOADS = pytest.mark.parametrize("workload", [TINY, TINY_SWEEP],
                                         ids=lambda w: w.name)


def _run(workload, count, reference=None, tracer=None):
    setup = bench.Setup(workload, seed=0)
    try:
        if tracer is None:
            return bench.run_calls(setup, count=count, reference=reference)
        with tracer:
            return bench.run_calls(setup, count=count, reference=reference)
    finally:
        setup.close()


def _traced_attributes() -> dict:
    """Every attribute a Tracer replaces, with its current value."""
    owners = [(o, a) for o, a, _ in tracing._GLOBALS]
    owners += [(EvalContext, "evaluate_assoc"), (Matching, "from_assoc")]
    snapshot = {(id(o), a): vars(o)[a] for o, a in owners}
    snapshot.update({("STRATEGIES", k): v for k, v in baselines.STRATEGIES.items()})
    return snapshot


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@TINY_WORKLOADS
def test_traced_outputs_identical_and_wrappers_removed(workload):
    before = _traced_attributes()
    plain = _run(workload, 2)
    tracer = tracing.Tracer()
    traced = _run(workload, 2, tracer=tracer)
    after = _traced_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.names, "no spans recorded"
    assert [r.entries for r in traced] == [r.entries for r in plain]
    assert [r.summaries for r in traced] == [r.summaries for r in plain]
    assert sum(r.failed for r in plain + traced) == 0


def test_wrappers_removed_when_traced_call_raises():
    before = _traced_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _traced_attributes()
    assert all(after[k] is before[k] for k in before)


@TINY_WORKLOADS
def test_perturbed_reference_is_a_failure(workload):
    result = _run(workload, 1)[0]
    reference = [{"entries": result.entries, "summaries": result.summaries}]
    assert _run(workload, 1, reference=reference)[0].failed == 0

    float_off = copy.deepcopy(reference)
    float_off[0]["entries"][0][-1] *= 1.0 + 1e-6
    assert _run(workload, 1, reference=float_off)[0].failed == 1

    count_off = copy.deepcopy(reference)
    count_off[0]["entries"][-1][3] += 1
    assert _run(workload, 1, reference=count_off)[0].failed == 1

    if workload.is_sweep:
        summary_off = copy.deepcopy(reference)
        summary_off[0]["summaries"][0][2]["kappa_mean"] *= 1.0 + 1e-6
        assert _run(workload, 1, reference=summary_off)[0].failed == workload.num_steps


def test_reference_tolerates_float_reordering():
    result = _run(TINY, 1)[0]
    jittered = copy.deepcopy(result.entries)
    jittered[0][-1] *= 1.0 + 1e-13
    reference = [{"entries": jittered, "summaries": []}]
    assert _run(TINY, 1, reference=reference)[0].failed == 0


def test_declared_metrics_match_harness():
    decl = _declared()
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == bench.E2E_METRICS
    assert ({m["name"]: (m["unit"], m["better"]) for m in decl["per_layer"]}
            == tracing.LAYER_METRICS)
    results = _run(TINY, 1)
    assert list(bench.e2e_metrics(results, setup_s=0.1)) == list(bench.E2E_METRICS)
    tracer = tracing.Tracer()
    traced = _run(TINY, 1, tracer=tracer)
    assert list(tracer.layer_metrics(TINY, traced, untraced_s=1.0)) == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "swap-10x25",
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        _check_spans(bench.spans_path(bench.WORKLOADS["swap-10x25"]), result["metrics"])


def _check_spans(path, metrics):
    """The spans file of a traced run agrees with its per-layer metrics."""
    with open(path, encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    os.remove(path)
    for i, span in enumerate(spans):
        assert set(span) == {"name", "start", "end", "parent"}
        assert span["start"] <= span["end"]
        assert -1 <= span["parent"] < i
    names = [span["name"] for span in spans]
    for name in ("simulation.run_episode", "evaluate.evaluate_assoc", "baselines.da-smp"):
        assert names.count(name) == metrics[f"{name}.calls"]["value"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap-10x25",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
