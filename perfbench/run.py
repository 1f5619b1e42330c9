"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload soa-police-sketch --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` repetitions run without wrappers until ``--seconds``
is spent, with stand-alone set-ups interleaved, and the last line of
output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``. With ``--trace 1`` one untraced repetition is
followed by two traced ones, and the JSON holds every per-layer metric.
The lines before it are the human-readable report: each repetition's
outcome digest, every metric with its unit, the host, and the baseline
recorded in ``perfbench/baseline.json``. A run whose outcome digest
differs from the one recorded there for the same inputs is not correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
OUT_DIR = os.path.join(HERE, "out")

#: Stand-alone set-ups after each repetition take this share of the
#: repetition's wall time (at least one set-up per repetition).
SETUP_SHARE = 0.1
#: Fewest repetitions of a run, so that the digest check has a pair.
MIN_REPS = 2

#: Outcome metrics printed for every workload (n/a where the engine has
#: none). They are deterministic per seed, so they live in the digest
#: and the report rather than in the bounded end-to-end set.
OUTCOME_UNITS = {
    "success_rate": "ratio",
    "attackers_caught": "ratio",
    "detection_latency_s": "s",
    "good_peers_cut": "count",
}


def _load_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources at {src}; run from a repository checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as f:
        return json.load(f)


def _host() -> Dict[str, Any]:
    from repro.obs.manifest import environment_info

    env = environment_info()
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": env["python"],
        "numpy": env["numpy"],
        "platform": env["platform"],
    }


def _baseline_doc() -> Dict[str, Any]:
    try:
        with open(BASELINE_PATH) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def digest_key(workload: str, scale: str, base_seed: int, seed: int) -> str:
    """Key of a recorded outcome digest in ``baseline.json``."""
    return f"{workload} {scale} base_seed={base_seed} seed={seed}"


def digest_problem(doc: Dict[str, Any], key: str, digest: str) -> Optional[str]:
    """Why ``digest`` contradicts the one recorded for ``key``, if it does."""
    recorded = doc.get("digests", {}).get(key)
    if recorded is None or recorded == digest:
        return None
    return (
        f"outcome digest {digest} differs from {recorded} recorded in baseline.json for "
        f"{key}: what the program decides changed (re-record with sweep.py --out "
        "only if that is intended)"
    )


def _line(name: str, value: Any, unit: str, base: Optional[float] = None) -> str:
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    tail = "" if base is None else f"   baseline {base:.6g}"
    return f"  {name:<34} {shown:>14} {unit}{tail}"


def _rep(wl: Any, cfg: Any, scale: str, label: str, report: List[str]):
    """One repetition, or ``None`` when it raised; a failure never stops the run."""
    import workloads

    try:
        rep = workloads.run_rep(wl, cfg, scale)
    except Exception as exc:
        traceback.print_exc()
        report.append(f"{label}: FAILED {type(exc).__name__}: {exc}")
        return None
    status = "ok" if not rep.problems else "FAILED " + "; ".join(rep.problems)
    report.append(
        f"{label}: setup_s={rep.setup_s:.4f} run_s={rep.run_s:.4f} digest={rep.digest} {status}"
    )
    return rep


def _check_digests(reps: List[Any], key: str, report: List[str]) -> bool:
    """Whether every repetition produced one digest, equal to any recorded one."""
    digests = {r.digest for r in reps}
    if len(digests) > 1:
        report.append(f"CHECK FAILED: digests differ across repetitions of one seed: {sorted(digests)}")
        return False
    problem = digest_problem(_baseline_doc(), key, reps[0].digest) if reps else None
    if problem:
        report.append("CHECK FAILED: " + problem)
        return False
    return True


def measure(wl: Any, cfg: Any, scale: str, seconds: float, key: str,
            report: List[str]) -> Dict[str, Any]:
    """Repetitions until about ``seconds`` is spent, each followed by set-ups.

    After each repetition the run collects garbage and times the reference
    work of ``hostspeed``, then times stand-alone set-ups. A repetition's
    run time is scaled by ``REFERENCE_S`` over the mean of the reference
    timings just before and after it (the first has only the one after
    it), a set-up's by the reference timing just before it, so ``run_s``
    and ``setup_s`` are seconds on a host running at the reference speed;
    the wall-time medians are printed beside them. ``peak_rss_mb`` is the
    process's peak after the first repetition: imports plus one run of
    the workload.
    """
    import hostspeed
    import workloads

    started = time.perf_counter()
    reps, attempted, failed = [], 0, 0
    run_ref, run_wall, setup_ref, setup_wall, speed = [], [], [], [], []
    before = peak_rss = None
    while True:
        t0 = time.perf_counter()
        rep = _rep(wl, cfg, scale, f"rep {attempted + 1}", report)
        rep_wall = time.perf_counter() - t0
        attempted += 1
        if peak_rss is None:
            peak_rss = workloads.peak_rss_mb()
        # The engines leave reference cycles behind; collect them so that
        # neither the reference work nor the next timing pays for them.
        gc.collect()
        after = hostspeed.reference_work()
        scale_by = hostspeed.REFERENCE_S / (after if before is None else (before + after) / 2)
        speed.append(scale_by)
        before = after
        if rep is None or rep.problems:
            failed += 1
        else:
            reps.append(rep)
            run_wall.append(rep.run_s)
            run_ref.append(rep.run_s * scale_by)
        budget_end = time.perf_counter() + SETUP_SHARE * rep_wall
        while True:
            setup_wall.append(workloads.setup_probe(wl, cfg))
            setup_ref.append(setup_wall[-1] * hostspeed.REFERENCE_S / after)
            if time.perf_counter() >= budget_end:
                break
        gc.collect()
        now = time.perf_counter()
        # Start another repetition if it is expected to end no later than
        # half a cycle past ``seconds``; on average a run then lasts ``seconds``.
        if attempted >= MIN_REPS and now + (now - t0) / 2 > started + seconds:
            break
    if not _check_digests(reps, key, report):
        failed = attempted
    metrics: Dict[str, Any] = {"runs_failed": failed / attempted}
    if reps:
        metrics.update({
            "setup_s": statistics.median(setup_ref),
            "run_s": statistics.median(run_ref),
            "peak_rss_mb": peak_rss,
        })
        metrics.update({k: reps[0].outcome[k] for k in OUTCOME_UNITS})
        report.append(f"{attempted} repetitions, {len(setup_wall)} stand-alone set-ups")
        report.append(
            f"wall-time medians: run {statistics.median(run_wall):.4f} s, "
            f"set-up {statistics.median(setup_wall):.6f} s; "
            f"reference-speed factor median {statistics.median(speed):.4f} "
            f"(min {min(speed):.4f}, max {max(speed):.4f})"
        )
        report.append(f"digest {reps[0].digest} deliveries={reps[0].deliveries} " + " ".join(
            f"{k}={v}" for k, v in sorted(reps[0].counts.items()) if v))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def trace(wl: Any, cfg: Any, scale: str, key: str, report: List[str]) -> Dict[str, Any]:
    import spans
    import workloads

    base = _rep(wl, cfg, scale, "untraced rep", report)
    failed = int(base is None or bool(base.problems))
    if base is not None and not _check_digests([base], key, report):
        failed = 1
    layers: List[Dict[str, Any]] = []
    counts: List[Dict[str, Any]] = []
    digests = set()
    root = "simkit.heap.run" if wl.engine == "des" else "engine.run"
    for k in range(2):
        rec = spans.Recorder()
        costs = spans.calibrate()
        inst = spans.install(rec)
        try:
            rep = workloads.run_rep(wl, cfg, scale)
        except Exception as exc:  # a failed repetition must not stop the others
            traceback.print_exc()
            report.append(f"traced rep {k + 1}: FAILED {type(exc).__name__}: {exc}")
            failed += 1
            continue
        finally:
            inst.remove()
        per = spans.layer_metrics(rec, root, rep.setup_s, costs)
        self_s = per.pop("self_s")
        per.update(rep.counts)
        status = "ok" if not rep.problems else "FAILED " + "; ".join(rep.problems)
        report.append(
            f"traced rep {k + 1}: run_s={rep.run_s:.4f} spans={per['trace.spans']} "
            f"wrapper_s={per['trace.wrapper_s']:.4f} digest={rep.digest} {status}"
        )
        report.append("  wrapper cost per span (us): " + " ".join(
            f"{name}={c * 1e6:.3f}" for name, c in costs.items()))
        report.append("  self seconds: " + " ".join(
            f"{m.replace('_share', '')}={t:.4g}" for m, t in self_s.items() if t))
        failed += bool(rep.problems)
        if k == 0:
            os.makedirs(OUT_DIR, exist_ok=True)
            rec.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))
        layers.append(per)
        counts.append({**rec.counts, **{k: v for k, v in per.items() if isinstance(v, int)}})
        digests.add(rep.digest)

    problems = []
    if base is not None and digests - {base.digest}:
        problems.append("traced outcome digest differs from the untraced one")
    if any(p["trace.min_self_s"] < -1e-9 for p in layers):
        problems.append("a span has negative self time")
    if len(counts) == 2 and counts[0] != counts[1]:
        problems.append("per-layer counts differ between the two traced runs")
    report.extend("CHECK FAILED: " + p for p in problems)

    metrics: Dict[str, Any] = {}
    if layers:
        for name in layers[0]:
            vals = [p[name] for p in layers]
            metrics[name] = vals[0] if isinstance(vals[0], int) else statistics.fmean(vals)
        if base is not None:
            metrics["trace.overhead"] = metrics["trace.run_s"] / base.run_s
            metrics["trace.corrected_overhead"] = (
                metrics["trace.run_s"] - metrics["trace.wrapper_s"]) / base.run_s
    return {"attempted": 3, "failed": failed + bool(problems), "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--seed", type=int, required=True,
        help="content-catalog seed (the whole model's seed for fluid-police)",
    )
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    p.add_argument(
        "--base-seed", type=int, default=None,
        help="overlay/agent/query-clock seed (default 29; 7 is the held-out seed)",
    )
    args = p.parse_args(argv)
    _load_program()
    import workloads

    spec = _spec()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        p.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    base_seed = workloads.BASE_SEED if args.base_seed is None else args.base_seed
    cfg = workloads.build_config(wl, args.scale, base_seed, args.seed)

    report = [
        f"perfbench {wl.name} engine={wl.engine} seed={args.seed} base_seed={base_seed} "
        f"scale={args.scale} trace={args.trace}",
        "host " + json.dumps(_host(), sort_keys=True),
    ]
    started = time.perf_counter()
    key = digest_key(wl.name, args.scale, base_seed, args.seed)
    if key not in _baseline_doc().get("digests", {}):
        report.append(f"no outcome digest recorded for {key}")
    if args.trace:
        result = trace(wl, cfg, args.scale, key, report)
        declared = spec["per_layer"]
    else:
        result = measure(wl, cfg, args.scale, args.seconds, key, report)
        declared = spec["end_to_end"]
    measured = result["metrics"]
    base = _baseline_doc().get("workloads", {}).get(wl.name, {}) if args.scale == "bench" else {}

    report.append("metrics:")
    units = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        report.append(_line(m["name"], measured.get(m["name"]), m["unit"], base.get(m["name"])))
    if not args.trace:
        report.append(_line("runs_failed", measured["runs_failed"], "ratio"))
        for key, unit in OUTCOME_UNITS.items():
            report.append(_line(key, measured.get(key), unit))
    report.append(f"wall {time.perf_counter() - started:.2f} s")
    print("\n".join(report), flush=True)

    complete = all(measured.get(name) is not None for name in units)
    correct = result["failed"] == 0 and complete
    out = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()
            if measured.get(name) is not None
        },
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
