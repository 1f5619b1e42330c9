"""Self-test of the benchmark at smoke scale.

    python3 -m pytest perfbench -q

Runs every workload through ``run.py`` with ``--scale smoke`` (the same
code paths in about a second) and checks the output contract: the last
line is the JSON result, every metric ``BENCHMARK.json`` declares is
present with its unit and is also printed in the report.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace, extra=("--scale", "smoke"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f" {m['name']} " in report and f" {m['unit']}" in report
    if not trace:
        for name in ("runs_failed", "success_rate", "attackers_caught",
                     "detection_latency_s", "good_peers_cut"):
            assert f" {name} " in report


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_recorded_digest_must_match():
    sys.path.insert(0, HERE)
    import run

    key = run.digest_key("des-police", "bench", 29, 1)
    doc = {"digests": {key: "aaaa"}}
    assert run.digest_problem(doc, key, "aaaa") is None
    assert "differs" in run.digest_problem(doc, key, "bbbb")
    assert run.digest_problem(doc, run.digest_key("des-police", "bench", 29, 2), "bbbb") is None


def test_self_times_sum_to_root():
    sys.path.insert(0, HERE)
    import spans

    rec = spans.Recorder()
    root = rec.open("engine.run")
    for name in ("simkit.seen.insert", "overlay.soa.wave"):
        i = rec.open(name)
        j = rec.open("metrics.accounting")
        rec.close(j)
        rec.close(i)
    rec.close(root)
    costs = dict.fromkeys(("span_in", "span_out", "handler_in", "handler_out"), 0.0)
    out = spans.layer_metrics(rec, "engine.run", 1.0, costs)
    named = sum(out["self_s"].values())
    assert out["trace.min_self_s"] >= 0.0 and out["trace.wrapper_s"] == pytest.approx(0.0)
    assert out["simkit.seen.insert_calls"] == 1 and out["metrics.accounting_calls"] == 2
    assert named + out["engine.residual_s"] == pytest.approx(out["trace.run_s"])
    assert out["overlay.soa.wave_share"] == pytest.approx(
        out["self_s"]["overlay.soa.wave_share"] / out["trace.run_s"])


def test_wrapper_cost_comes_off_the_caller():
    sys.path.insert(0, HERE)
    import spans

    rec = spans.Recorder()
    root = rec.open("engine.run")
    for _ in range(3):
        rec.close(rec.open("metrics.accounting"))
    rec.close(root)
    costs = {"span_in": 1e-7, "span_out": 1e-6, "handler_in": 0.0, "handler_out": 0.0}
    wrap = rec.wrapper_costs(costs)
    assert wrap[0] == pytest.approx(1e-7 + 3e-6)
    assert list(wrap[1:]) == pytest.approx([1e-7] * 3)
    out = spans.layer_metrics(rec, "engine.run", 1.0, costs)
    assert out["trace.wrapper_s"] == pytest.approx(wrap.sum())
    named = sum(out["self_s"].values())
    assert named + out["engine.residual_s"] == pytest.approx(
        out["trace.run_s"] - out["trace.wrapper_s"])
