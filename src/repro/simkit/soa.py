"""Struct-of-arrays primitives for the batched flood engine.

The SoA backend (:mod:`repro.overlay.soa_network`) advances flooding in
*waves*: every message delivery sharing one exact virtual timestamp is
processed as one vectorized step. That step needs three primitives that
have no per-element Python cost:

* :class:`Int64Map` -- an open-addressing int64 -> int64 hash table with
  fully vectorized batch insert/lookup. It backs the unified seen-set /
  reverse-route table (key ``qid * n + peer``, value = the edge id the
  query arrived on, or the ``ORIGIN`` sentinel for own issues).
  Because flood state is only live for one query lifetime
  (``2 * TTL * hop_latency`` seconds), the map is *generational*: two
  tables rotate on an epoch clock and lookups consult both, so memory is
  bounded by two epochs of insert volume instead of the whole run.
* :class:`TokenBucketArray` -- per-peer token buckets in two float64
  arrays, refilled lazily and in bulk. Matches
  :class:`repro.overlay.capacity.TokenBucket` float-for-float when
  refill points coincide (capped linear refill composes path
  independently, so it does).

Waves are small (tens of deliveries), so these primitives are written
to make few numpy calls per batch rather than to scale per element:
no ``np.unique`` (a sort plus several passes) on the per-wave path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Empty-slot key sentinel (keys must be non-negative).
EMPTY = np.int64(-1)

#: Fibonacci multiplier for int64 hashing (2^64 / golden ratio, odd).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _hash_slots(keys: np.ndarray, log2_cap: int) -> np.ndarray:
    """Fibonacci-hash int64 keys into ``[0, 2**log2_cap)`` slots."""
    h = keys.astype(np.uint64) * _GOLDEN
    return (h >> np.uint64(64 - log2_cap)).astype(np.int64)


#: Consecutive slots one probe round reads. At the engine's usual load
#: (well below the 0.5 cap) nearly every probe chain ends inside its
#: first window, so a batch usually resolves in one round; longer chains
#: continue in the next window. A wider window costs memory per key.
_WINDOW = 4
_WINDOW_OFFSETS = np.arange(_WINDOW, dtype=np.int64)


class _Table:
    """One open-addressing generation (linear probing): parallel key/value arrays."""

    __slots__ = ("keys", "vals", "log2_cap", "mask", "size", "max_key")

    def __init__(self, log2_cap: int) -> None:
        cap = 1 << log2_cap
        self.keys = np.full(cap, EMPTY, dtype=np.int64)
        self.vals = np.empty(cap, dtype=np.int64)
        self.log2_cap = log2_cap
        self.mask = np.int64(cap - 1)
        self.size = 0
        #: Upper bound of the keys stored (EMPTY while there are none).
        self.max_key = int(EMPTY)

    def may_hold(self, query_keys: np.ndarray) -> bool:
        """False when none of the (non-empty) ``query_keys`` can be stored here."""
        return self.size > 0 and int(query_keys.min()) <= self.max_key

    # -- vectorized probing -------------------------------------------------
    def _probe(self, want: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Per key, the first slot from ``start`` on holding it or EMPTY.

        Reads one window of slots per key and round; only the keys whose
        window held neither go on to the next round.
        """
        slots = rows = None  # rows: those of ``want`` still probing
        keys = want
        while True:
            # mode="wrap" takes slot indices modulo the (power-of-two)
            # capacity, so the window wraps around the table's end.
            seen = self.keys.take(start[:, None] + _WINDOW_OFFSETS, mode="wrap")
            stop = seen == keys[:, None]
            stop |= seen == EMPTY
            # argmax is 0 where no slot of the window stops the probe;
            # such a row finds another key at its ``at``.
            at = (start + stop.argmax(axis=1)) & self.mask
            if rows is None:
                slots = at
            else:
                slots[rows] = at
            held = self.keys[at]
            going = ((held != keys) & (held != EMPTY)).nonzero()[0]
            if not len(going):
                return slots
            rows = going if rows is None else rows[going]
            keys = keys[going]
            start = (at[going] + _WINDOW) & self.mask

    def lookup(self, query_keys: np.ndarray, out: np.ndarray) -> None:
        """Write values for found keys into ``out`` (missing untouched)."""
        if not len(query_keys):
            return
        slots = self._probe(query_keys, _hash_slots(query_keys, self.log2_cap))
        found = self.keys[slots] == query_keys
        out[found] = self.vals[slots[found]]

    def contains(self, query_keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask for ``query_keys``."""
        if not len(query_keys):
            return np.zeros(0, dtype=bool)
        slots = self._probe(query_keys, _hash_slots(query_keys, self.log2_cap))
        return self.keys[slots] == query_keys

    def insert_unique(self, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Insert batch-unique keys; return the freshly-inserted mask.

        ``keys`` must contain no within-batch duplicates. Keys already
        present keep their stored value (first writer wins, matching the
        DES reverse-route table, which is only written on first sight of
        a GUID). Several new keys can reach the same empty slot; every
        contender's key is scattered into it and the slot read back: the
        key that landed wins, the others probe on from that slot. Which
        contender wins only changes the table layout, never membership
        or stored values.
        """
        if not len(keys):
            return np.zeros(0, dtype=bool)
        self.max_key = max(self.max_key, int(keys.max()))
        slots = self._probe(keys, _hash_slots(keys, self.log2_cap))
        fresh = self.keys[slots] != keys  # not present: slots[i] is empty
        rows = fresh.nonzero()[0]
        while len(rows):
            want = keys[rows]
            at = slots[rows]
            self.keys[at] = want
            won = self.keys[at] == want
            self.vals[at[won]] = vals[rows[won]]
            self.size += int(np.count_nonzero(won))
            lost = (~won).nonzero()[0]
            rows = rows[lost]
            if len(rows):
                slots[rows] = self._probe(keys[rows], at[lost])
        return fresh


class Int64Map:
    """Generational vectorized int64 -> int64 map (seen-set + routes).

    Two generations (``current``/``previous``) rotate on an epoch clock:
    inserts go to ``current``; lookups and duplicate checks consult both.
    Entries therefore survive between one and two epochs -- choose
    ``epoch_s`` longer than the flood lifetime (``2 * TTL * hop_latency``)
    and the rotation is semantically invisible, exactly like the DES
    peers' LRU ``_seen`` caches whose capacity is never binding.

    The previous generation is skipped when it cannot hold any key of a
    batch: when it is empty, or when every key is above its largest.
    Keys that grow with time (the engine's ``qid * n + peer``) make the
    second case common once an epoch's old floods have died out.
    """

    def __init__(self, *, initial_log2_cap: int = 10, epoch_s: float = 2.0) -> None:
        if epoch_s <= 0:
            raise ConfigError("epoch_s must be positive")
        if initial_log2_cap < 4:
            raise ConfigError("initial_log2_cap must be >= 4")
        self._initial_log2_cap = initial_log2_cap
        self.epoch_s = float(epoch_s)
        self._current = _Table(initial_log2_cap)
        self._previous = _Table(initial_log2_cap)
        self._epoch_start = 0.0
        self.rotations = 0

    # ------------------------------------------------------------------
    def maybe_rotate(self, now: float) -> None:
        """Retire the previous generation once an epoch has elapsed."""
        if now - self._epoch_start >= self.epoch_s:
            self._previous = self._current
            self._current = _Table(max(self._initial_log2_cap, self._previous.log2_cap))
            self._epoch_start = now
            self.rotations += 1

    def _grow_current(self, incoming: int) -> None:
        cur = self._current
        needed = cur.size + incoming
        log2 = cur.log2_cap
        while needed * 2 > (1 << log2):  # keep load factor <= 0.5
            log2 += 1
        if log2 == cur.log2_cap:
            return
        bigger = _Table(log2)
        occupied = cur.keys != EMPTY
        if occupied.any():
            bigger.insert_unique(cur.keys[occupied], cur.vals[occupied])
        self._current = bigger

    # ------------------------------------------------------------------
    def insert_new(self, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Insert batch-unique ``keys``; True where the key was unseen.

        A key already present in either generation is a duplicate: it is
        not reinserted and its stored value is untouched.
        """
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        self._grow_current(len(keys))
        if self._previous.may_hold(keys):
            in_prev = self._previous.contains(keys)
            if np.count_nonzero(in_prev):
                fresh = np.zeros(len(keys), dtype=bool)
                todo = ~in_prev
                fresh[todo] = self._current.insert_unique(keys[todo], vals[todo])
                return fresh
        return self._current.insert_unique(keys, vals)

    def lookup(self, keys: np.ndarray, missing: int = -3) -> np.ndarray:
        """Values for ``keys``; ``missing`` where absent from both tables."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), missing, dtype=np.int64)
        # An entry can only exist in one generation (inserts check both),
        # so the order of the two lookups is moot.
        if len(keys) and self._previous.may_hold(keys):
            self._previous.lookup(keys, out)
        self._current.lookup(keys, out)
        return out

    @property
    def size(self) -> int:
        return self._current.size + self._previous.size


class TokenBucketArray:
    """Per-peer token buckets in flat arrays (capacity clamp, Section 2.3).

    Mirrors :class:`repro.overlay.capacity.TokenBucket`: depth defaults
    to one second of tokens, buckets start full, refill is capped-linear.
    Refill is lazy -- only peers touched by a wave are updated -- which
    is float-exact against the sequential bucket because capped linear
    refill composes path-independently between consumption points.
    """

    def __init__(self, n: int, rate_per_min: float, burst: float = 0.0) -> None:
        if rate_per_min <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_min}")
        if burst <= 0:
            burst = rate_per_min / 60.0
        self.rate_per_sec = rate_per_min / 60.0
        self.burst = float(burst)
        self.tokens = np.full(n, self.burst, dtype=np.float64)
        self.last = np.zeros(n, dtype=np.float64)

    def grant(self, peers: np.ndarray, counts: np.ndarray, now: float) -> np.ndarray:
        """Refill ``peers`` (unique) at ``now``; grant up to ``counts`` tokens.

        Returns the integer number granted per peer. Matches running
        ``try_consume(now)`` ``counts[i]`` times on the sequential
        bucket: the bucket admits ``floor(tokens + 1e-12)`` unit
        consumes, and failed consumes still advance the refill clock.
        """
        t = self.tokens[peers]
        dt = now - self.last[peers]
        # DES tolerates out-of-order stamps by skipping refill; waves are
        # time-ordered so dt >= 0 always, but clip for safety.
        np.maximum(dt, 0.0, out=dt)
        t = np.minimum(self.burst, t + dt * self.rate_per_sec)
        avail = np.floor(t + 1e-12).astype(np.int64)
        granted = np.minimum(np.asarray(counts, dtype=np.int64), avail)
        self.tokens[peers] = t - granted
        self.last[peers] = now
        return granted
