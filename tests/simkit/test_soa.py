"""Unit tests for the struct-of-arrays primitives behind the batched engine."""

import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.overlay.capacity import TokenBucket
from repro.simkit.soa import Int64Map, TokenBucketArray, _hash_slots


# ----------------------------------------------------------------------
# Int64Map vs dict oracle
# ----------------------------------------------------------------------
def test_int64map_matches_dict_oracle_under_random_batches():
    rng = random.Random(42)
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)  # never rotates
    oracle = {}
    for _ in range(50):
        batch = rng.sample(range(10_000), rng.randint(1, 200))
        keys = np.unique(np.array(batch, dtype=np.int64))
        vals = np.arange(len(keys), dtype=np.int64)
        fresh = table.insert_new(keys, vals)
        for k, v, f in zip(keys.tolist(), vals.tolist(), fresh.tolist()):
            assert f == (k not in oracle)
            oracle.setdefault(k, v)
        probe = np.array(
            rng.sample(range(12_000), 300), dtype=np.int64
        )
        got = table.lookup(probe, missing=-3)
        want = [oracle.get(k, -3) for k in probe.tolist()]
        assert got.tolist() == want
    assert table.size == len(oracle)


def test_int64map_first_writer_wins_on_reinsert():
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)
    keys = np.array([7, 8, 9], dtype=np.int64)
    assert table.insert_new(keys, np.array([1, 2, 3])).all()
    fresh = table.insert_new(keys, np.array([10, 20, 30]))
    assert not fresh.any()
    assert table.lookup(keys).tolist() == [1, 2, 3]


def test_int64map_rotation_retires_only_stale_generations():
    table = Int64Map(initial_log2_cap=4, epoch_s=1.0)
    a = np.array([1, 2], dtype=np.int64)
    b = np.array([3, 4], dtype=np.int64)
    table.insert_new(a, a)
    table.maybe_rotate(1.0)  # a -> previous generation
    table.insert_new(b, b)
    # both generations visible: a is a duplicate, values still found
    assert not table.insert_new(a, a * 10).any()
    assert table.lookup(np.array([1, 3])).tolist() == [1, 3]
    table.maybe_rotate(2.0)  # a dropped, b -> previous
    assert table.lookup(np.array([1, 3]), missing=-3).tolist() == [-3, 3]
    # a re-inserts as fresh after falling off both generations
    assert table.insert_new(a, a * 10).all()
    assert table.rotations == 2


def test_int64map_handles_slot_collisions_in_one_batch():
    # With a 16-slot initial table and >16 keys, several keys of one
    # batch must contend for slots; growth keeps load factor <= 0.5.
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)
    keys = np.arange(0, 4096, 7, dtype=np.int64)
    fresh = table.insert_new(keys, keys * 2)
    assert fresh.all()
    assert table.lookup(keys).tolist() == (keys * 2).tolist()


def _colliding_keys(log2_cap, count):
    """``count`` keys that all hash to the second-to-last slot of a
    ``2**log2_cap`` table, so their probe chains wrap around its end."""
    pool = np.arange(100_000, dtype=np.int64)
    return pool[_hash_slots(pool, log2_cap) == (1 << log2_cap) - 2][:count]


def test_int64map_matches_generational_oracle_across_rotations():
    # Every key shares one home slot, so each insert and lookup walks a
    # probe chain that wraps around the table's end, and same-batch keys
    # contend for the same empty slot.
    # Small batches keep each generation below half of the 16 slots, so
    # the table never grows and the collisions hold throughout.
    rng = random.Random(3)
    pool = _colliding_keys(4, 14).tolist()
    assert len(pool) == 14
    table = Int64Map(initial_log2_cap=4, epoch_s=1.0)
    current, previous = {}, {}
    paths = set()
    now = 0.0
    for step in range(300):
        if rng.random() < 0.3:
            now += 1.0
            table.maybe_rotate(now)
            previous, current = current, {}
        batch = rng.sample(pool, rng.randint(1, 3))
        if len(current) + len(batch) > 8:
            continue
        keys = np.array(batch, dtype=np.int64)
        if not previous:
            paths.add("previous empty")
        elif table._previous.may_hold(keys):
            paths.add("both generations")
        vals = np.array([rng.randrange(1000) for _ in batch], dtype=np.int64)
        fresh = table.insert_new(keys, vals)
        for k, v, f in zip(batch, vals.tolist(), fresh.tolist()):
            assert f == (k not in current and k not in previous), step
            if f:
                current[k] = v
        probe = np.array(pool + [10**9], dtype=np.int64)
        want = [current.get(k, previous.get(k, -3)) for k in probe.tolist()]
        assert table.lookup(probe, missing=-3).tolist() == want, step
        assert table.size == len(current) + len(previous)
        assert table._current.log2_cap == 4
    # Both the empty-previous shortcut and the two-generation path ran.
    assert paths == {"previous empty", "both generations"}


def test_int64map_settles_same_slot_contention_in_one_batch():
    table = Int64Map(initial_log2_cap=5, epoch_s=1e9)
    keys = _colliding_keys(5, 6)
    assert table.insert_new(keys, keys + 1).all()
    assert table.lookup(keys).tolist() == (keys + 1).tolist()
    assert not table.insert_new(keys[::-1], keys).any()
    assert table.lookup(keys).tolist() == (keys + 1).tolist()


def test_int64map_rejects_bad_config():
    with pytest.raises(ConfigError):
        Int64Map(epoch_s=0.0)
    with pytest.raises(ConfigError):
        Int64Map(initial_log2_cap=2)


# ----------------------------------------------------------------------
# TokenBucketArray vs the sequential TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_array_matches_sequential_bucket_exactly():
    rng = random.Random(7)
    rate = 123.4
    n = 5
    seq = [TokenBucket(rate_per_min=rate) for _ in range(n)]
    arr = TokenBucketArray(n, rate)
    now = 0.0
    for _ in range(200):
        now += rng.random() * 0.3
        # counts >= 1: the engine only includes peers with at least one
        # fresh arrival, so both sides refill at identical time points
        # (the exactness contract; a zero-count refill would round the
        # capped-linear path differently in the last ulp).
        peers = sorted(rng.sample(range(n), rng.randint(1, n)))
        counts = [rng.randint(1, 4) for _ in peers]
        granted = arr.grant(
            np.array(peers, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            now,
        )
        for p, c, g in zip(peers, counts, granted.tolist()):
            want = sum(1 for _ in range(c) if seq[p].try_consume(now))
            assert g == want, (p, c, now)
    # internal float state must agree too, or later grants would drift
    for p in range(n):
        assert arr.tokens[p] == seq[p]._tokens


def test_token_bucket_array_rejects_nonpositive_rate():
    with pytest.raises(ConfigError):
        TokenBucketArray(3, 0.0)
