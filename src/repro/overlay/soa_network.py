"""Struct-of-arrays flood engine: batched vectorized DES backend.

The message-level engine (:mod:`repro.overlay.network`) pays one Python
heap event per message delivery; at n >= 100k the flood dominates and
per-event dispatch caps throughput around tens of thousands of events
per second. This module replays the *same* protocol semantics with peer
state in numpy arrays indexed by peer id and flooding advanced in
*waves*: every query delivery sharing one exact virtual timestamp is
processed as one vectorized step (dedup mask -> token-bucket clamp ->
CSR gather/scatter fan-out). The binary-heap engine is retained for the
sparse control plane: workload issue timers, attack batches, the
per-minute window roll, and DD-POLICE conclusion timeouts.

Messages are named by the directed edge they travel on. A query block
is one int64 ``(5, k)`` array (rows ``QID, EDGE, TTL, OBJ, SIZE``); the
receiver and sender of a query are ``_dst[e]`` and ``_src[e]``, and
its reverse edge ``_rev[e]`` is where a forward must not go and where
a QueryHit travels back. The seen-map stores each first sight's arrival
edge (or ``ORIGIN`` for the issuing peer), so the route of a hit is an
edge id too and no (src, dst) pair is ever searched for its edge.

Equivalence contract (enforced by ``tests/property/test_soa_equivalence.py``)
-----------------------------------------------------------------------------
With churn/faults/bandwidth off and ``hop_latency_jitter_s == 0`` the
wave schedule reproduces the message engine's delivery timeline exactly:
every hop adds the same ``hop_latency_s`` float, so all copies of one
TTL generation share one timestamp, and per-receiver arrival order is
identical to the DES event order (one forwarder event sends one query
to many *distinct* receivers, so reordering inside a forwarder's send
loop never permutes any single receiver's arrival sequence). Dedup
winners, reverse routes, token-bucket grants, drop counts, per-minute
rows, and S(t) therefore match the message DES float-for-float.

Known divergences, all confined to DD-POLICE runs:

* the SoA engine sends no control-plane messages (exchange lists,
  liveness pings, Neighbor_Traffic, Bye), so ``messages_delivered`` and
  ``bytes_transferred`` exclude the control plane (compare
  ``query_messages``/``hit_messages`` instead);
* buddy groups are derived from *current* alive neighbor sets rather
  than the directory's last-broadcast snapshot. The two agree whenever
  the attack starts after the directory has converged (first exchange
  broadcasts complete by t = exchange start delay <= 120 s) and no edge
  was cut in the preceding exchange period.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING, Tuple

import numpy as np

from repro.attack.cheating import CheatStrategy
from repro.core.indicators import NeighborReport, indicators_from_reports
from repro.errors import ConfigError
from repro.evidence.hashing import mix64, mix64_offset
from repro.fluid.flows import build_edge_arrays, edge_slice_index
from repro.metrics.accounting import QueryAccounting
from repro.metrics.collectors import _SeriesMixin
from repro.metrics.errors import ErrorCounts, Judgment, JudgmentLog
from repro.overlay.content import ContentCatalog
from repro.overlay.ids import PeerId
from repro.overlay.message import GNUTELLA_HEADER_SIZE
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.simkit.soa import Int64Map, TokenBucketArray
from repro.simkit.timers import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a layering cycle
    from repro.experiments.runner import DESConfig

#: Route-table sentinel: the keyed peer originated the query.
ORIGIN = -2
#: Route lookup miss (seen-set entry expired or never existed).
MISSING = -3

#: Rows of a query block, the int64 ``(5, k)`` array of k queries in flight.
QID, EDGE, TTL, OBJ, SIZE = range(5)

#: Count-min increment, in the sketch cells' dtype.
_ONE32 = np.int32(1)

#: QueryHit wire size: 23-byte header + 11 + 40 * result_count(1) + 16.
HIT_SIZE = 90


def query_size_bytes(keywords: Tuple[str, ...]) -> int:
    """Wire size of a Query: header + min_speed(2) + NUL search string."""
    payload = 2 + sum(len(k) for k in keywords) + max(0, len(keywords) - 1) + 1
    return GNUTELLA_HEADER_SIZE + payload


@dataclass
class SoaStats:
    """Aggregate counters, aligned with :class:`NetworkStats` field names.

    ``control_messages`` stays 0 by construction: the SoA engine models
    no control plane.
    """

    messages_delivered: int = 0
    bytes_transferred: int = 0
    query_messages: int = 0
    hit_messages: int = 0
    control_messages: int = 0
    queries_dropped_capacity: int = 0
    # Extras (sums of the DES per-peer counters, for the oracle tests).
    queries_dropped_duplicate: int = 0
    hits_dropped_no_route: int = 0
    queries_issued: int = 0
    attack_queries_sent: int = 0
    edges_cut: int = 0


class SoaCollector(_SeriesMixin):
    """Read-side facade over the accounting rows (collector duck type)."""

    def __init__(self, accounting: QueryAccounting) -> None:
        self._accounting = accounting

    @property
    def minutes(self):
        return self._accounting.rows


@dataclass
class SoaRun:
    """A finished SoA run with the surfaces result extraction needs."""

    config: "DESConfig"
    n: int
    stats: SoaStats
    accounting: QueryAccounting
    collector: SoaCollector
    judgments: Optional[JudgmentLog]
    bad_peers: Set[PeerId] = field(default_factory=set)
    wall_s: float = 0.0
    heap_events: int = 0
    waves_processed: int = 0
    #: Bytes of per-minute traffic-evidence state (exact windows or
    #: count-min cells) at the end of the run.
    evidence_bytes: int = 0

    @property
    def deliveries(self) -> int:
        return self.stats.messages_delivered

    def error_counts(self) -> ErrorCounts:
        if self.judgments is None:
            raise ConfigError("run had no defense; no judgments recorded")
        return self.judgments.error_counts(set(self.bad_peers))


def _reject_unsupported(config: "DESConfig") -> None:
    """Refuse configurations whose semantics the wave engine cannot honor.

    Mirrors the fluid backend's policy: fail loudly rather than run a
    simulation that silently ignores part of the configuration.
    """
    if config.churn.enabled:
        raise ConfigError("backend 'des-soa' cannot simulate churn (DES only)")
    if config.faults.enabled:
        raise ConfigError(
            "backend 'des-soa' cannot simulate fault injection (DES only)"
        )
    if config.defense not in ("none", "ddpolice"):
        raise ConfigError(
            f"backend 'des-soa' has no {config.defense!r} defense (DES only)"
        )
    if config.adaptive.strategy != "static":
        raise ConfigError(
            f"backend 'des-soa' cannot simulate adaptive strategy "
            f"{config.adaptive.strategy!r} (DES only)"
        )
    if config.defense == "ddpolice":
        if config.cheat_strategy is not CheatStrategy.SILENT:
            raise ConfigError(
                f"backend 'des-soa' only models cheat_strategy 'silent' "
                f"under ddpolice, got {config.cheat_strategy!r} (DES only)"
            )
        if config.police.radius != 1:
            raise ConfigError("backend 'des-soa' requires police radius 1")
        if not config.police.assume_zero_on_missing:
            raise ConfigError(
                "backend 'des-soa' requires assume_zero_on_missing=True"
            )
        if getattr(config.police, "report_quorum", 0):
            raise ConfigError("backend 'des-soa' does not model report quorums")
        if getattr(config.police, "report_retry_limit", 0):
            raise ConfigError("backend 'des-soa' does not model report retries")
    if config.network.evidence.sketched:
        raise ConfigError(
            "backend 'des-soa' keys its seen-set by integer qid (Int64Map, "
            "already O(in-flight) memory); Bloom dedup applies to the "
            "message engines only. Set police.evidence.backend='sketch' "
            "for sketched traffic windows instead."
        )
    if config.network.hop_latency_jitter_s != 0.0:
        raise ConfigError(
            "backend 'des-soa' requires hop_latency_jitter_s=0 (wave "
            "batching relies on shared per-generation timestamps)"
        )
    if config.network.bandwidth_enabled:
        raise ConfigError("backend 'des-soa' has no bandwidth model (DES only)")
    if config.metrics_mode != "incremental":
        raise ConfigError("backend 'des-soa' supports metrics_mode 'incremental' only")


class SoaFloodEngine:
    """One configured run of the wave-batched flood simulation."""

    def __init__(self, config: "DESConfig") -> None:
        _reject_unsupported(config)
        self.config = config
        n = config.n
        self.n = n
        self.stats = SoaStats()
        rngs = RngRegistry(config.seed)

        # -- topology -> CSR edge arrays --------------------------------
        topo_cfg = config.topology or TopologyConfig(n=n, seed=config.seed)
        if topo_cfg.n != n:
            raise ConfigError(
                f"topology n={topo_cfg.n} does not match config n={n}"
            )
        topology = generate_topology(topo_cfg)
        adjacency = {u: vs for u, vs in enumerate(topology.adjacency)}
        src, dst, rev = build_edge_arrays(adjacency)
        self._src = src.astype(np.int64)
        self._dst = dst.astype(np.int64)
        self._rev = rev.astype(np.int64)
        self._indptr = edge_slice_index(self._src, n)
        self._E = len(src)
        self.edge_alive = np.ones(self._E, dtype=bool)
        self._deg = np.diff(self._indptr)

        # DES peers keep neighbors in a Python set, and issue_query /
        # _on_query emit sends in its *iteration order*. Which same-depth
        # forwarder fires first decides the dedup winner at the next hop
        # (= route parent = the neighbor excluded from that peer's
        # fan-out), so per-edge counters only match if the batched
        # fan-out emits in the same order. Replaying the identical
        # insertions into an identical set reproduces the (deterministic)
        # order; edge cuts never reorder survivors, matching set.discard.
        proto = np.empty(self._E, dtype=np.int64)
        for u in range(n):
            a, b = int(self._indptr[u]), int(self._indptr[u + 1])
            if a == b:
                continue
            replay = {PeerId(v) for v in topology.adjacency[u]}
            order = np.fromiter(
                (p.value for p in replay), dtype=np.int64, count=b - a
            )
            proto[a:b] = a + np.searchsorted(self._dst[a:b], order)
        self._proto_edge = proto

        # -- content ----------------------------------------------------
        self.content = ContentCatalog(config.content, n)
        holder_keys: List[int] = []
        for peer, objs in self.content.peer_objects.items():
            for obj in objs:
                holder_keys.append(obj * n + peer)
        # Closed by a sentinel above every real key, so a searchsorted
        # position is always a valid index, for an empty catalog too.
        holder_keys.append(np.iinfo(np.int64).max)
        self._holder_keys = np.array(sorted(holder_keys), dtype=np.int64)

        # -- per-peer / per-edge dynamic state --------------------------
        net = config.network
        self._hop = net.hop_latency_s
        self._default_ttl = net.default_ttl
        self.bucket = TokenBucketArray(n, net.processing_qpm_good)
        ev = config.police.evidence
        self._sketched = ev.sketched
        if self._sketched:
            # Count-min traffic evidence: one (depth, width) int32 sketch
            # per direction replaces the two length-E minute windows.
            # Updates are plain (non-conservative) count-min -- batched
            # ``np.add.at`` cannot do the read-modify-min of conservative
            # update -- which still never undercounts, so no attacker
            # edge is ever missed; collisions only add false suspicion.
            # Cells are stored flat: row r occupies [r * width, (r + 1) * width).
            self._cm_w = np.uint64(ev.cm_width)
            self._cm_out = np.zeros(ev.cm_depth * ev.cm_width, dtype=np.int32)
            self._cm_in = np.zeros(ev.cm_depth * ev.cm_width, dtype=np.int32)
            # Row r hashes with mix64(e, seed=r + 1); shifting e by the
            # row's seed offset lets one seed-0 call hash every row.
            base = mix64_offset(0)
            self._cm_offsets = np.array(
                [(mix64_offset(r + 1) - base) % 2**64 for r in range(ev.cm_depth)],
                dtype=np.uint64,
            )[:, None]
            self._cm_row_base = (
                np.arange(ev.cm_depth, dtype=np.int64)[:, None] * ev.cm_width
            )
            self.win_out: Optional[np.ndarray] = None
            self.win_in: Optional[np.ndarray] = None
        else:
            self.win_out = np.zeros(self._E, dtype=np.int64)
            self.win_in = np.zeros(self._E, dtype=np.int64)
        # Seen-set + reverse routes; epoch is sized to 3x the one-way
        # flood depth so entries (which survive 1-2 epochs) always outlive
        # a query's full out-and-back lifetime of 2*ttl*hop.
        lifetime = 2.0 * self._default_ttl * self._hop
        self.seen = Int64Map(
            initial_log2_cap=14, epoch_s=max(0.5, 1.5 * lifetime)
        )
        self._pending_seen: List[np.ndarray] = []

        # -- metrics ----------------------------------------------------
        # retire_records=False switches off per-query key tracking (the
        # SoA engine keeps no QueryRecord table to retire); the emitted
        # rows are identical either way.
        self.accounting = QueryAccounting(
            grace_minutes=net.metrics_grace_minutes, retire_records=False
        )
        self.collector = SoaCollector(self.accounting)
        #: qid -> (window, issued_at, is_attack) for queries that can be
        #: answered (workload-issued; bogus attack batches never match).
        self._meta: Dict[int, Tuple[int, float, bool]] = {}
        self._next_qid = 0

        # -- simulator + timers -----------------------------------------
        self.sim = Simulator()
        self.minute_index = 0
        self._minute_task = PeriodicTask(
            self.sim,
            net.minute_window_s,
            self._roll_minute,
            start_delay=net.minute_window_s,
            priority=-1,
        )
        #: wave buffers: timestamp -> (query blocks, hit chunks), appended
        #: in DES event order. Every message carries the edge id it
        #: travels on: a query block's EDGE row, a hit chunk's second array.
        self._waves: Dict[float, Tuple[list, list]] = {}
        self.waves_processed = 0

        # -- workload ----------------------------------------------------
        self._wl_rng = rngs.stream("workload")
        self._wl_mean_gap = 60.0 / config.workload.queries_per_minute
        self._wl_max = config.workload.max_queries_total
        self._wl_issued = 0
        self._origin_mask = np.zeros(n, dtype=bool)

        # -- attack ------------------------------------------------------
        self.bad_peers: Set[PeerId] = set()
        self._bad_mask = np.zeros(n, dtype=bool)
        self._agents: List[dict] = []
        if config.num_agents > 0:
            atk_rng = rngs.stream("attack")
            chosen = atk_rng.sample(list(range(n)), config.num_agents)
            for pid in chosen:
                atk_rng.getrandbits(32)  # per-agent rng seed draw (unused here)
                self._agents.append({"pid": pid, "carry": 0.0, "nonce": 0})
            self.bad_peers = {PeerId(p) for p in chosen}
            self._bad_mask[chosen] = True
            self.sim.schedule_at(config.attack_start_s, self._attack_launch)

        # -- defense -----------------------------------------------------
        self.judgments: Optional[JudgmentLog] = None
        if config.defense == "ddpolice":
            self.judgments = JudgmentLog()

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _cm_cells(self, eids: np.ndarray) -> np.ndarray:
        """Flat sketch cells of ``eids``, shape ``(depth, len(eids))``.

        Row r's cell is ``mix64(e, seed=r + 1) % width + r * width``. It is
        stateless (no column table is stored, so evidence memory is the
        cells alone) and takes one ``mix64`` call for all rows.
        """
        cols = mix64(eids.astype(np.uint64) + self._cm_offsets, seed=0)
        cols %= self._cm_w
        return cols.view(np.int64) + self._cm_row_base

    def _count_out(self, eids: np.ndarray) -> None:
        """Count one outgoing query on each edge id (repeats allowed)."""
        if self._sketched:
            # An increment of the cells' own dtype keeps ``add.at`` on
            # its fast path.
            np.add.at(self._cm_out, self._cm_cells(eids), _ONE32)
        else:
            np.add.at(self.win_out, eids, 1)

    def _count_in(self, eids: np.ndarray) -> None:
        """Count one incoming query on each edge id (repeats allowed)."""
        if self._sketched:
            np.add.at(self._cm_in, self._cm_cells(eids), _ONE32)
        else:
            np.add.at(self.win_in, eids, 1)

    def _cm_estimate_all(self, cm: np.ndarray) -> np.ndarray:
        """Row-min estimates for every edge id, materialized as int64.

        The police round then runs unchanged over these (possibly
        overestimated, never underestimated) per-edge minute counts.
        """
        return cm[self._cm_cells(np.arange(self._E))].min(axis=0).astype(np.int64)

    def evidence_bytes(self) -> int:
        """Bytes of per-minute traffic-evidence state (both directions)."""
        if self._sketched:
            return int(self._cm_out.nbytes + self._cm_in.nbytes)
        return int(self.win_out.nbytes + self.win_in.nbytes)

    def _alive_out_edges(self, p: int) -> np.ndarray:
        a, b = int(self._indptr[p]), int(self._indptr[p + 1])
        return a + np.flatnonzero(self.edge_alive[a:b])

    def _proto_out_edges(self, p: int) -> np.ndarray:
        """Alive out-edges of ``p`` in DES neighbor-set iteration order."""
        a, b = int(self._indptr[p]), int(self._indptr[p + 1])
        e = self._proto_edge[a:b]
        return e[self.edge_alive[e]]

    def _wave_at(self, t: float) -> Tuple[list, list]:
        wave = self._waves.get(t)
        if wave is None:
            wave = self._waves[t] = ([], [])
            # Priority 1: same-time heap events (issues, attack batches,
            # police conclusions at 0; minute roll at -1) fire first,
            # matching the DES seq order of in-flight deliveries.
            self.sim.schedule_at(t, self._process_wave, t, priority=1)
        return wave

    def _push_queries(self, t: float, block: np.ndarray) -> None:
        """A query block arriving at ``t``, each over its EDGE (src -> dst)."""
        self._wave_at(t)[0].append(block)

    def _new_queries(
        self, t: float, qid: int | np.ndarray, edge: np.ndarray, obj: int, size: int | np.ndarray
    ) -> None:
        """Queries leaving their origin over ``edge`` with the default TTL."""
        block = np.empty((5, len(edge)), dtype=np.int64)
        block[QID] = qid
        block[EDGE] = edge
        block[TTL] = self._default_ttl
        block[OBJ] = obj
        block[SIZE] = size
        self._count_out(edge)
        self._push_queries(t, block)

    def _push_hits(self, t: float, qid: np.ndarray, edge: np.ndarray) -> None:
        """QueryHits arriving at ``t``, each over edge ``edge``."""
        self._wave_at(t)[1].append((qid, edge))

    # ------------------------------------------------------------------
    # workload (good queries; replicates QueryWorkload's rng sequence)
    # ------------------------------------------------------------------
    def start_workload(self) -> None:
        rate = 1.0 / self._wl_mean_gap
        rng = self._wl_rng
        self.sim.schedule_bulk(
            (rng.expovariate(rate), self._issue, pid) for pid in range(self.n)
        )

    def _issue(self, pid: int) -> None:
        if self._wl_max is not None and self._wl_issued >= self._wl_max:
            return
        eids = self._proto_out_edges(pid)
        if len(eids):
            obj = self.content.sample_object(self._wl_rng)
            keywords = self.content.keywords_for(obj)
            size = query_size_bytes(keywords)
            now = self.sim.now
            qid = self._next_qid
            self._next_qid += 1
            is_attack = bool(self._origin_mask[pid])
            window = self.accounting.on_issued(None, is_attack)
            self._meta[qid] = (window, now, is_attack)
            self._pending_seen.append(
                np.array([qid * self.n + pid], dtype=np.int64)
            )
            self._new_queries(now + self._hop, qid, eids, obj, size)
            self._wl_issued += 1
            self.stats.queries_issued += 1
        self.sim.schedule_in(
            self._wl_rng.expovariate(1.0 / self._wl_mean_gap), self._issue, pid
        )

    # ------------------------------------------------------------------
    # attack (replicates AttackScenario/DDoSAgent batch arithmetic)
    # ------------------------------------------------------------------
    def _attack_launch(self) -> None:
        # Origins register at launch (not construction): agent peers'
        # earlier workload queries keep their GOOD class.
        for agent in self._agents:
            self._origin_mask[agent["pid"]] = True
        # The first batch fires at launch time but *after* any same-time
        # workload issues, like the DES agents' schedule_in(0) batches.
        self.sim.schedule_at(self.sim.now, self._attack_batch)

    def _attack_batch(self) -> None:
        rate_qpm = self.config.attack_rate_qpm
        now = self.sim.now
        n = self.n
        deliver_at = now + self._hop
        for agent in self._agents:
            pid = agent["pid"]
            eids = self._alive_out_edges(pid)
            if not len(eids):
                continue  # carry/nonce untouched, exactly like the DES agent
            per_batch = rate_qpm * 1.0 / 60.0 + agent["carry"]
            count = int(per_batch)
            agent["carry"] = per_batch - count
            if count == 0:
                continue
            nonce0 = agent["nonce"]
            agent["nonce"] = nonce0 + count
            nonces = np.arange(nonce0 + 1, nonce0 + count + 1, dtype=np.int64)
            # Query size: header + min_speed + "bogus x{pid}n{nonce}" NUL.
            # 23 + (2 + 5 + (2 + d(pid) + d(nonce)) + 1 + 1)
            digits = np.ones(count, dtype=np.int64)
            p10 = 10
            while p10 <= int(nonces[-1]):
                digits += nonces >= p10
                p10 *= 10
            sizes = 34 + len(str(pid)) + digits
            qid0 = self._next_qid
            self._next_qid = qid0 + count
            qids = np.arange(qid0, qid0 + count, dtype=np.int64)
            self.accounting.on_issued_many(count, is_attack=True)
            self._pending_seen.append(qids * n + pid)
            # Round-robin over dst-sorted alive neighbors (the DES agent
            # sorts its neighbor set by peer id).
            self._new_queries(deliver_at, qids, np.resize(eids, count), -1, sizes)
            self.stats.attack_queries_sent += count
            self.stats.queries_issued += count
        self.sim.schedule_in(1.0, self._attack_batch)

    # ------------------------------------------------------------------
    # wave processing
    # ------------------------------------------------------------------
    def _flush_pending_seen(self) -> None:
        if not self._pending_seen:
            return
        keys = np.concatenate(self._pending_seen)
        self._pending_seen.clear()
        self.seen.insert_new(keys, np.full(len(keys), ORIGIN, dtype=np.int64))

    def _process_wave(self, t: float) -> None:
        qchunks, hchunks = self._waves.pop(t)
        self._flush_pending_seen()
        self.seen.maybe_rotate(t)
        if qchunks:
            self._process_queries(t, qchunks)
        if hchunks:
            self._process_hits(t, hchunks)
        self.waves_processed += 1

    def _process_queries(self, t: float, blocks: list) -> None:
        wave = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        qid, e, ttl, obj, size = wave
        m = len(qid)
        stats = self.stats
        stats.messages_delivered += m
        stats.bytes_transferred += int(size.sum())
        stats.query_messages += m

        # In_query window stamps: receiver-side, gated on the connection
        # still existing (in-flight copies on a cut edge deliver but do
        # not resurrect the counter key).
        alive = self.edge_alive[e]
        n_alive = np.count_nonzero(alive)
        if n_alive == m:
            self._count_in(e)
        elif n_alive:
            self._count_in(e[alive])

        # Duplicate suppression: within-wave first occurrence, then the
        # cross-wave seen-set. A stable sort puts each key's copies side
        # by side in arrival order, so the first of a run is the first
        # arrival. Route = arrival edge of the first sight, recorded even
        # for copies the capacity clamp later drops.
        dst = self._dst[e]
        keys = qid * self.n + dst
        order = keys.argsort(kind="stable")
        ks = keys[order]
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(ks[1:], ks[:-1], out=head[1:])
        first_idx = order[head]
        fresh = self.seen.insert_new(ks[head], e[first_idx])
        k = int(np.count_nonzero(fresh))
        stats.queries_dropped_duplicate += m - k
        if k == 0:
            return
        if k < m:
            keep = np.sort(first_idx[fresh])  # back to arrival order
            wave = wave[:, keep]
            qid, e, ttl, obj, size = wave
            dst = dst[keep]

        # Capacity clamp: per receiving peer, the first `granted` fresh
        # arrivals (in arrival order) consume tokens; the rest drop.
        order = dst.argsort(kind="stable")
        ds = dst[order]
        cut = np.empty(k + 1, dtype=bool)
        cut[0] = cut[k] = True
        np.not_equal(ds[1:], ds[:-1], out=cut[1:k])
        bounds = cut.nonzero()[0]
        starts = bounds[:-1]
        counts = bounds[1:] - starts
        granted = self.bucket.grant(ds[starts], counts, t)
        if np.count_nonzero(granted != counts):
            rank = np.arange(k) - np.repeat(starts, counts)
            passed = np.empty(k, dtype=bool)
            passed[order] = rank < np.repeat(granted, counts)
            k_pass = int(np.count_nonzero(passed))
            stats.queries_dropped_capacity += k - k_pass
            if k_pass == 0:
                return
            wave = wave[:, passed]
            qid, e, ttl, obj, size = wave
            dst = dst[passed]

        # Local content match -> QueryHit back along the arrival edge.
        cand = (obj >= 0).nonzero()[0]
        if len(cand):
            hkeys = obj[cand] * self.n + dst[cand]
            holders = self._holder_keys
            found = holders[holders.searchsorted(hkeys)] == hkeys
            if np.count_nonzero(found):
                hit = cand[found]
                self._push_hits(t + self._hop, qid[hit], self._rev[e[hit]])

        # CSR fan-out of the survivors with TTL left: forward to every
        # alive neighbor except back along the arrival edge.
        f_idx = (ttl > 1).nonzero()[0]
        if not len(f_idx):
            return
        u = dst[f_idx]
        lens = self._deg[u]
        ends = lens.cumsum()
        total = int(ends[-1])
        if total == 0:
            return
        # Position i of the concatenated neighbor rows maps to row
        # indptr[u] + (i - first row of its owner).
        rows = np.arange(total) + np.repeat(self._indptr[u] - (ends - lens), lens)
        # Map row positions through the protocol-order permutation so
        # each owner's forwards are emitted in DES set-iteration order.
        out = self._proto_edge[rows]
        owner = np.repeat(f_idx, lens)
        ok = self.edge_alive[out] & (out != self._rev[e[owner]])
        if not np.count_nonzero(ok):
            return
        out = out[ok]
        self._count_out(out)
        block = wave[:, owner[ok]]
        block[EDGE] = out
        block[TTL] -= 1
        self._push_queries(t + self._hop, block)

    def _process_hits(self, t: float, chunks: list) -> None:
        if len(chunks) == 1:
            qid, e = chunks[0]
        else:
            qid = np.concatenate([c[0] for c in chunks])
            e = np.concatenate([c[1] for c in chunks])
        m = len(qid)
        stats = self.stats
        stats.messages_delivered += m
        stats.bytes_transferred += HIT_SIZE * m
        stats.hit_messages += m

        # The seen-map holds the edge each query first arrived on; the
        # hit goes back along its reverse.
        back = self.seen.lookup(qid * self.n + self._dst[e], missing=MISSING)
        is_origin = back == ORIGIN
        if is_origin.any():
            meta = self._meta
            for q in qid[is_origin].tolist():
                rec = meta.pop(q, None)
                if rec is not None:
                    window, issued_at, is_attack = rec
                    self.accounting.on_first_response(
                        window, is_attack, t - issued_at
                    )
        lost = back == MISSING
        stats.hits_dropped_no_route += int(lost.sum())
        route = ~(is_origin | lost)
        if not route.any():
            return
        q2 = qid[route]
        e2 = self._rev[back[route]]
        alive = self.edge_alive[e2]
        stats.hits_dropped_no_route += int((~alive).sum())
        if alive.any():
            self._push_hits(t + self._hop, q2[alive], e2[alive])

    # ------------------------------------------------------------------
    # minute roll + DD-POLICE
    # ------------------------------------------------------------------
    def _roll_minute(self) -> None:
        self.minute_index += 1
        if self._sketched:
            # Materialize per-edge row-min estimates into transient
            # arrays so the police round below runs unchanged, then
            # reset the sketches for the next minute window.
            prev_out = self._cm_estimate_all(self._cm_out)
            prev_in = self._cm_estimate_all(self._cm_in)
            self._cm_out.fill(0)
            self._cm_in.fill(0)
        else:
            prev_out = self.win_out
            prev_in = self.win_in
            self.win_out = np.zeros(self._E, dtype=np.int64)
            self.win_in = np.zeros(self._E, dtype=np.int64)
        self.last_minute_out = prev_out
        self.last_minute_in = prev_in
        self.accounting.on_minute_rolled(
            self.sim.now,
            self.stats.messages_delivered,
            self.stats.bytes_transferred,
        )
        if self.judgments is not None:
            self._police_round(prev_out, prev_in)

    def _police_round(self, prev_out: np.ndarray, prev_in: np.ndarray) -> None:
        """One suspicion/evidence round over the just-completed minute.

        Edge e = (j -> u) crossing the warning threshold makes observer u
        open an investigation of suspect j at the roll. Good investigators
        push Neighbor_Traffic reports to the whole buddy group (arriving
        one hop later), every member that receives one joins, and joiners'
        own reports arrive a second hop later; SILENT attackers
        investigate and judge but never report. An investigation
        concludes the moment its last expected report arrives -- one hop
        after the roll when every other member is a direct observer, two
        hops when a joiner's report is needed -- and only falls back to
        the collection-window timer (+5 s for directs, one hop later for
        joiners) when a SILENT member's report never comes. These are the
        same decision instants the message engine's early-completion path
        (``Investigation.complete``) produces.
        """
        police = self.config.police
        crossing = np.flatnonzero(
            self.edge_alive & (prev_in > police.warning_threshold_qpm)
        )
        if not len(crossing):
            return
        now = self.sim.now
        report_at = now + self._hop  # direct observers' reports land here
        by_time: Dict[float, List[tuple]] = {}
        suspects = np.unique(self._src[crossing])
        for j in suspects.tolist():
            observers = set(
                self._dst[crossing[self._src[crossing] == j]].tolist()
            )
            good_direct = any(not self._bad_mask[u] for u in observers)
            # Edge j -> m for every alive neighbor m; its reverse is m -> j.
            e_from_j = self._alive_out_edges(j)
            nbrs = self._dst[e_from_j].tolist()
            e_to_j = self._rev[e_from_j]
            out_to_j = prev_out[e_to_j].tolist()  # Q_mj: m's Out toward j
            in_from_j = prev_in[e_from_j].tolist()  # Q_jm: m's In from j
            at = {m: i for i, m in enumerate(nbrs)}
            # What each member reports does not depend on who investigates:
            # without a good direct observer no reports circulate, and
            # SILENT attackers never report.
            bad = self._bad_mask[nbrs].tolist()
            sent: List[Optional[NeighborReport]] = [
                NeighborReport(member=m, outgoing=out_to_j[i], incoming=in_from_j[i])
                if good_direct and not bad[i] else None
                for i, m in enumerate(nbrs)
            ]
            # Without a good direct observer nobody joins: only the
            # directs investigate (on silence).
            members = nbrs if good_direct else sorted(observers)
            for u in members:
                iu = at[u]
                reports: Dict[int, Optional[NeighborReport]] = {}
                missing = False
                last_direct = -1
                last_joiner = -1
                for i, mem in enumerate(nbrs):
                    if i == iu:
                        continue
                    rep = reports[mem] = sent[i]
                    if rep is None:
                        missing = True
                    elif mem in observers:
                        last_direct = max(last_direct, mem)
                    else:
                        last_joiner = max(last_joiner, mem)
                g, s = indicators_from_reports(
                    u, out_to_j[iu], in_from_j[iu], reports, police.q_threshold_qpm
                )
                convicted = g > police.cut_threshold or s > police.cut_threshold
                # An investigation completes at the arrival of its *last*
                # expected report, and a conviction's disconnect evicts
                # the endpoints' still-pending investigations of each
                # other. Reports are sent in ascending sender-id order
                # (the roll visits peers in id order), so the delivery
                # rank of that last report -- the sender's id -- orders
                # same-instant conclusions exactly like the message
                # engine's event sequence.
                if missing or not reports:
                    # Never completes: the collection-window timer fires,
                    # anchored at the investigation's opening time (the
                    # roll for directs, first report arrival for joiners);
                    # timers fire in opening order = observer-id order.
                    opened = now if u in observers else report_at
                    t_end = opened + police.collection_window_s
                    rank = u
                elif last_joiner < 0:
                    t_end = report_at
                    rank = last_direct
                else:
                    t_end = report_at + self._hop
                    rank = last_joiner
                # (rank, u, j) is unique, so the sort never compares past it.
                by_time.setdefault(t_end, []).append((
                    rank, u, j, g, s, convicted,
                    int(e_to_j[iu]), int(e_from_j[iu]),
                ))
        for t_end in sorted(by_time):
            decisions = [
                d[1:] for d in sorted(by_time[t_end])
            ]
            self.sim.schedule_at(t_end, self._conclude, decisions)

    def _conclude(self, decisions: List[tuple]) -> None:
        """Record each ``(u, j, g, s, convicted, e_uj, e_ju)`` decision."""
        now = self.sim.now
        for u, j, g, s, convicted, e_uj, e_ju in decisions:
            if not self.edge_alive[e_uj]:
                # The edge died before this conclusion (possibly cut by an
                # earlier decision in this same batch): the message engine
                # evicts the investigation via its neighbor-gone listener,
                # so no judgment is recorded.
                continue
            if convicted:
                self.edge_alive[e_uj] = False
                self.edge_alive[e_ju] = False
                self.stats.edges_cut += 1
                disconnected = True
            else:
                disconnected = False
            self.judgments.record(
                Judgment(
                    time=now,
                    observer=PeerId(u),
                    suspect=PeerId(j),
                    g_value=g,
                    s_value=s,
                    disconnected=disconnected,
                )
            )

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.start_workload()
        self.sim.run(until=self.config.duration_s)


def run_soa_experiment(config: "DESConfig") -> SoaRun:
    """Build and run one wave-batched experiment end to end."""
    engine = SoaFloodEngine(config)
    t0 = time.perf_counter()
    engine.run()
    wall_s = time.perf_counter() - t0
    return SoaRun(
        config=config,
        n=engine.n,
        stats=engine.stats,
        accounting=engine.accounting,
        collector=engine.collector,
        judgments=engine.judgments,
        bad_peers=engine.bad_peers,
        wall_s=wall_s,
        heap_events=engine.sim.events_fired,
        waves_processed=engine.waves_processed,
        evidence_bytes=engine.evidence_bytes(),
    )
