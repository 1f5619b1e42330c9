"""Workload table, one repetition per engine, outcome checks and digests.

Every repetition runs in this process through an engine's public entry
point (``run_soa_experiment``, ``run_des_experiment``,
``FluidSimulation(cfg).run``), with no worker pool and ``obs`` off.

Inputs. A message-level workload fixes the overlay, the attack agents
and the query clock with its *base seed* (29; 7 is the held-out seed for
re-checking a claim), and the benchmark's ``--seed`` draws the
shared-content catalog (which peers hold which objects). Agent placement
alone moves the flood size 4x between base seeds, which would swamp any
regression bound, so the per-run seed varies the input that leaves the
amount of work steady. See :func:`build_config` for the fluid model.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core.config import DDPoliceConfig
from repro.evidence import EvidenceConfig
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.experiments.spec import _extract_case_result
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.overlay.content import ContentConfig
from repro.overlay.network import NetworkConfig
from repro.overlay.soa_network import SoaFloodEngine, run_soa_experiment
from repro.overlay.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

BASE_SEED = 29
#: Windows a minute row waits before it is emitted (NetworkConfig default).
GRACE_MINUTES = 1


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "soa" | "des" | "fluid"
    #: scale ("bench" or "smoke") -> keyword arguments of the workload's config.
    sizes: Dict[str, Dict[str, Any]]


def _des_config(
    base_seed: int,
    content_seed: int,
    *,
    n: int,
    duration_s: float,
    agents: int,
    ba_m: int,
    evidence: str = "exact",
    soa: bool = True,
) -> DESConfig:
    topo = TopologyConfig(n=n, seed=base_seed, ba_m=ba_m)
    network = NetworkConfig(default_ttl=3)
    if soa:
        network = replace(network, hop_latency_jitter_s=0.0)
    return DESConfig(
        n=n,
        duration_s=duration_s,
        seed=base_seed,
        topology=topo,
        network=network,
        content=ContentConfig(num_objects=100, seed=content_seed),
        workload=WorkloadConfig(queries_per_minute=0.3, seed=base_seed),
        num_agents=agents,
        attack_start_s=60.0,
        attack_rate_qpm=2000.0,
        defense="ddpolice",
        police=DDPoliceConfig(evidence=EvidenceConfig(backend=evidence)),
    )


#: 130 s holds the first attacked minute, the police round at its roll
#: (t=120 s) and that round's conclusions (t <= 125.1 s).
_POLICE = dict(agents=10, ba_m=1, duration_s=130.0)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "soa-police-sketch",
            "soa",
            {
                "bench": dict(n=5_000, evidence="sketch", **_POLICE),
                "smoke": dict(n=600, evidence="sketch", **dict(_POLICE, agents=4)),
            },
        ),
        Workload(
            "des-police",
            "des",
            {
                "bench": dict(n=100, duration_s=180.0, agents=2, ba_m=1),
                "smoke": dict(n=40, duration_s=180.0, agents=1, ba_m=1),
            },
        ),
        Workload(
            "fluid-police",
            "fluid",
            {
                "bench": dict(n=20_000, agents=100, minutes=12),
                "smoke": dict(n=500, agents=3, minutes=12),
            },
        ),
    )
}


def build_config(wl: Workload, scale: str, base_seed: int, seed: int) -> Any:
    """The workload's config; ``seed`` is the benchmark's ``--seed``.

    The message engines take it as the content-catalog seed. The fluid
    model uses replica *counts* only, so placement cannot move it; there
    ``seed`` seeds the whole model (its 100 agents average out where the
    message workloads' 2-10 do not).
    """
    kwargs = dict(wl.sizes[scale])
    if wl.engine == "fluid":
        return FluidConfig(
            n=kwargs["n"], seed=seed, num_agents=kwargs["agents"], attack_start_min=10,
            defense="ddpolice",
        )
    return _des_config(base_seed, seed, soa=wl.engine == "soa", **kwargs)


def fluid_minutes(wl: Workload, scale: str) -> int:
    return int(wl.sizes[scale]["minutes"])


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

#: Per-layer counts every repetition reports; zero where an engine lacks the layer.
COUNT_KEYS = (
    "simkit.heap.events", "overlay.soa.waves", "overlay.soa.deliveries",
    "overlay.soa.deliveries_per_wave", "overlay.soa.dup_ratio", "overlay.soa.capdrop_ratio",
    "core.police.judgments", "core.police.conviction_ratio", "evidence.bytes",
    "fluid.minutes",
)


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    run_s: float
    #: Messages delivered (0 for the fluid model, which has none).
    deliveries: int
    outcome: Dict[str, Any]
    #: Deterministic per-seed counts (the per-layer counts the run exposes).
    counts: Dict[str, float]
    digest: str
    problems: List[str]


def _digest(parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _judgment_rows(judgments: Any) -> List[tuple]:
    if judgments is None:
        return []
    return [
        (j.time, getattr(j.observer, "value", j.observer),
         getattr(j.suspect, "value", j.suspect), j.disconnected)
        for j in judgments.judgments
    ]


def _police_counts(judg: List[tuple]) -> Dict[str, float]:
    convicted = sum(1 for j in judg if j[3])
    return {
        "core.police.judgments": len(judg),
        "core.police.conviction_ratio": convicted / len(judg) if judg else 0.0,
    }


def _success_from(rows: List[Any], first_minute: int) -> Optional[float]:
    sel = [r.success_rate for r in rows if r.minute >= first_minute]
    return sum(sel) / len(sel) if sel else None


def _message_rep(wl: Workload, cfg: DESConfig) -> Rep:
    soa = wl.engine == "soa"
    t0 = time.perf_counter()
    run = run_soa_experiment(cfg) if soa else run_des_experiment(cfg)
    setup_s = time.perf_counter() - t0 - run.wall_s
    case = _extract_case_result(run, cfg)
    stats = run.stats if soa else run.network.stats
    rows = list(run.collector.minutes)
    agents = cfg.num_agents
    # Window k covers [(k-1)*60, k*60) s; S is averaged from the first
    # window the attack fills (from window 1 with no attack). A run too
    # short to emit such a row reports its whole-run good-query S.
    first = int(cfg.attack_start_s // 60) + 1 if agents else 1
    success = _success_from(rows, first)
    if success is None:
        success = (run.accounting if soa else run.network.accounting).success_rate("good")
    outcome = {
        "attackers_caught": case.caught_attackers / agents if agents else None,
        "detection_latency_s": case.detection_latency_s,
        "good_peers_cut": case.false_negative if run.judgments is not None else None,
        "success_rate": success,
    }
    deliveries = stats.messages_delivered
    events = run.heap_events if soa else run.sim.events_fired
    waves = run.waves_processed if soa else 0
    dropped = stats.queries_dropped_capacity + (stats.queries_dropped_duplicate if soa else 0)
    judg = _judgment_rows(run.judgments)
    counts: Dict[str, float] = {**dict.fromkeys(COUNT_KEYS, 0), **_police_counts(judg)}
    counts["simkit.heap.events"] = events
    counts["evidence.bytes"] = run.evidence_bytes
    if soa:
        counts["overlay.soa.waves"] = waves
        counts["overlay.soa.deliveries"] = deliveries
        counts["overlay.soa.deliveries_per_wave"] = deliveries / waves if waves else 0.0
        if stats.query_messages:
            counts["overlay.soa.dup_ratio"] = stats.queries_dropped_duplicate / stats.query_messages
            counts["overlay.soa.capdrop_ratio"] = stats.queries_dropped_capacity / stats.query_messages
    problems = []
    if deliveries != stats.query_messages + stats.hit_messages + stats.control_messages:
        problems.append("deliveries != query + hit (+ control) messages")
    if dropped > stats.query_messages:
        problems.append("dropped queries exceed query deliveries")
    if case.caught_attackers > agents:
        problems.append("more attackers caught than agents")
    expected_rows = int(cfg.duration_s // 60) - GRACE_MINUTES
    if len(rows) != max(0, expected_rows):
        problems.append(f"{len(rows)} minute rows, expected {expected_rows}")
    digest = _digest((
        deliveries, stats.query_messages, stats.hit_messages, dropped, waves, events,
        judg, [(r.minute, r.queries_issued, r.queries_succeeded, r.messages) for r in rows],
    ))
    return Rep(setup_s, run.wall_s, deliveries, outcome, counts, digest, problems)


def _fluid_rep(wl: Workload, cfg: FluidConfig, minutes: int) -> Rep:
    t0 = time.perf_counter()
    sim = FluidSimulation(cfg)
    t1 = time.perf_counter()
    sim.run(minutes)
    t2 = time.perf_counter()
    bad = sim.bad_peers
    caught = len(bad & set(sim.judgments.disconnected_suspects()))
    judg = _judgment_rows(sim.judgments)
    outcome = {
        "attackers_caught": caught / len(bad) if bad else None,
        "detection_latency_s": None,
        "good_peers_cut": sim.error_counts().false_negative,
        "success_rate": _success_from(sim.rows, cfg.attack_start_min if bad else 1),
    }
    counts: Dict[str, float] = {**dict.fromkeys(COUNT_KEYS, 0), **_police_counts(judg)}
    counts["fluid.minutes"] = len(sim.rows)
    problems = []
    if len(sim.rows) != minutes:
        problems.append(f"{len(sim.rows)} minute rows, expected {minutes}")
    if caught > cfg.num_agents:
        problems.append("more attackers caught than agents")
    if any(not 0.0 <= r.dropped_fraction <= 1.0 for r in sim.rows):
        problems.append("dropped fraction outside [0, 1]")
    digest = _digest((
        [(r.minute, r.online, r.edges_directed, r.success_rate, r.edges_cut,
          r.query_messages_qpm) for r in sim.rows],
        judg,
    ))
    sim.close_obs()
    return Rep(t1 - t0, t2 - t1, 0, outcome, counts, digest, problems)


def run_rep(wl: Workload, cfg: Any, scale: str) -> Rep:
    if wl.engine == "fluid":
        return _fluid_rep(wl, cfg, fluid_minutes(wl, scale))
    return _message_rep(wl, cfg)


def setup_probe(wl: Workload, cfg: Any) -> float:
    """Seconds of one set-up alone: the engine built, no event loop run."""
    t0 = time.perf_counter()
    if wl.engine == "soa":
        SoaFloodEngine(cfg)
        return time.perf_counter() - t0
    if wl.engine == "fluid":
        FluidSimulation(cfg)
        return time.perf_counter() - t0
    # The message DES builds inside its entry call; a run that ends at
    # the first instant leaves only set-up (and the t=0 events).
    run = run_des_experiment(replace(cfg, duration_s=1e-9))
    return time.perf_counter() - t0 - run.wall_s


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

