"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10                    # every workload
    python3 perfbench/sweep.py --workloads soa-police-sketch --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/sweep.py --seeds 3 --scale smoke --seconds 1 --out perfbench/baseline.json

Each run is a separate ``perfbench/run.py`` process, started only after
the previous one has exited. For every metric the summary gives the
median and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. ``--out`` merges into a baseline file the outcome digest of every
(workload, scale, base seed, seed) an untraced run swept, which later
runs on the same inputs must reproduce, and, for the benchmark's own
inputs and run length (scale ``bench``, base seed 29, ``run_seconds`` of
``BENCHMARK.json``), the medians and spreads together with the host they
were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> List[int]:
    """``1-10``, ``3`` or a comma-separated mix such as ``0,11-20``."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int,
             base_seed: Optional[int] = None, scale: str = "bench"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale]
    if base_seed is not None:
        cmd += ["--base-seed", str(base_seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    host = next((json.loads(ln[5:]) for ln in lines if ln.startswith("host ")), None)
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    return json.loads(lines[-1]), host, digest


def summarise(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    p.add_argument("--out", default=None, help="baseline JSON file to merge digests and medians into")
    args = p.parse_args()

    sys.path.insert(0, HERE)
    import run

    run._load_program()
    from workloads import BASE_SEED

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    digests: Dict[str, str] = {}
    host = None
    ok = True
    base_seed = BASE_SEED if args.base_seed is None else args.base_seed
    for wl in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        for seed in _seeds(args.seeds):
            result, host, digest = run_once(
                wl, seed, args.seconds, args.trace, args.base_seed, args.scale)
            if digest is not None:
                digests[run.digest_key(wl, args.scale, base_seed, seed)] = digest
            ok &= bool(result["correct"]) and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        summary[wl] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[wl].items():
            bound = bounds.get(name)
            if bound is None:
                continue
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {wl:<18} {name:<14} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" (bound {bound}){flag}", flush=True)

    if args.out:
        try:
            with open(args.out) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            doc = {}
        doc.setdefault("digests", {}).update(digests)
        # Medians and spreads describe the benchmark as it is run: its own
        # inputs and run length.
        if (args.scale, base_seed, args.seconds) == ("bench", BASE_SEED, spec["run_seconds"]):
            doc["host"] = host
            doc["run_seconds"] = args.seconds
            for wl, metrics in summary.items():
                doc.setdefault("workloads", {}).setdefault(wl, {}).update(
                    {name: s["median"] for name, s in metrics.items()}
                )
                doc.setdefault("spread", {}).setdefault(wl, {}).update(
                    {name: round(s["spread"], 4) for name, s in metrics.items() if name in bounds}
                )
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
