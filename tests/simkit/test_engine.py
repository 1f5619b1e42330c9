"""Unit tests for the DES engine."""

import pytest

from repro.simkit.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_negative_start_time_rejected():
    with pytest.raises(ValueError):
        Simulator(start_time=-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "b")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(3.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_many_same_time_same_priority_events_fire_fifo_by_seq():
    sim = Simulator()
    fired = []
    events = [sim.schedule_at(2.0, fired.append, i, priority=3) for i in range(10_000)]
    sim.run()
    assert fired == list(range(10_000))
    assert [ev.seq for ev in events] == sorted(ev.seq for ev in events)


def test_priority_orders_same_time_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "late", priority=5)
    sim.schedule_at(1.0, fired.append, "early", priority=-5)
    sim.run()
    assert fired == ["early", "late"]


def test_schedule_in_is_relative():
    sim = Simulator()
    times = []
    sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [15.0]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_scheduling_into_past_rejected():
    sim = Simulator()
    sim.schedule_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule_in(-1.0, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(50.0, fired.append, 50)
    sim.run(until=10.0)
    assert fired == [1]
    assert sim.now == 10.0
    # remaining event still fires on the next run
    sim.run()
    assert fired == [1, 50]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(1.0, fired.append, "x")
    assert ev.cancel()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent_and_reports_state():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    assert ev.cancel() is True
    assert ev.cancel() is False


def test_stop_exits_loop():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()

    sim.schedule_at(1.0, stopper)
    sim.schedule_at(2.0, fired.append, "after")
    sim.run()
    assert fired == ["stop"]


def test_max_events_limits_run():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(2.0, fired.append, 2)
    ev = sim.step()
    assert fired == [1]
    assert ev is not None and ev.time == 1.0
    assert sim.step() is not None
    assert sim.step() is None


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule_in(1.0, chain, n + 1)

    sim.schedule_at(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    ev.cancel()
    assert sim.peek_time() == 2.0


def test_drain_reports_pending_and_cancelled():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    ev = sim.schedule_at(2.0, lambda: None)
    ev.cancel()
    pending, cancelled = sim.drain()
    assert (pending, cancelled) == (1, 1)
    assert sim.peek_time() is None


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None).cancel()
    assert sim.pending_count == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule_at(1.0, reenter)
    sim.run()


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule_at(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 5


def test_pending_count_is_exact_under_heavy_cancellation():
    sim = Simulator()
    events = [sim.schedule_at(float(i), lambda: None) for i in range(1000)]
    assert sim.pending_count == 1000
    for ev in events[::2]:
        ev.cancel()
    assert sim.pending_count == 500
    sim.run()
    assert sim.events_fired == 500
    assert sim.pending_count == 0


def test_heap_compacts_when_cancelled_entries_dominate():
    from repro.simkit.engine import COMPACTION_MIN_CANCELLED

    sim = Simulator()
    n = 2 * COMPACTION_MIN_CANCELLED
    events = [sim.schedule_at(float(i), lambda: None) for i in range(n)]
    for ev in events:
        ev.cancel()
    # every entry was cancelled; compaction must have emptied the heap
    # without waiting for the run loop to pop the garbage
    assert sim.pending_count == 0
    assert len(sim._heap) < COMPACTION_MIN_CANCELLED
    sim.run()
    assert sim.events_fired == 0


def test_cancel_after_drain_does_not_corrupt_counter():
    sim = Simulator()
    keep = sim.schedule_at(1.0, lambda: None)
    sim.drain()
    # the drained event is already CANCELLED; a late cancel() is a no-op
    assert keep.cancel() is False
    fresh = [sim.schedule_at(float(i), lambda: None) for i in range(4)]
    assert sim.pending_count == 4
    fresh[0].cancel()
    assert sim.pending_count == 3
    sim.run()
    assert sim.events_fired == 3


def test_schedule_bulk_matches_sequential_pop_order():
    mixed = [(5.0, "a"), (1.0, "b"), (5.0, "c"), (3.0, "d"), (1.0, "e")]
    seq_sim, bulk_sim = Simulator(), Simulator()
    seq_fired, bulk_fired = [], []
    for t, label in mixed:
        seq_sim.schedule_at(t, seq_fired.append, label)
    bulk_sim.schedule_bulk((t, bulk_fired.append, label) for t, label in mixed)
    seq_sim.run()
    bulk_sim.run()
    # ties broken by sequence number = iteration order, same as one
    # schedule_at call per item
    assert bulk_fired == seq_fired == ["b", "e", "d", "a", "c"]


def test_schedule_bulk_interleaves_with_preexisting_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "old")
    sim.schedule_bulk([(1.0, fired.append, "new1"), (2.0, fired.append, "new2")])
    sim.run()
    # the pre-existing event at t=2.0 has the smaller seq, so it wins its tie
    assert fired == ["new1", "old", "new2"]


def test_schedule_bulk_rejects_past_times():
    import pytest

    from repro.simkit.engine import SimulationError

    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.schedule_bulk([(6.0, lambda: None), (4.0, lambda: None)])


def test_schedule_bulk_events_are_cancellable():
    sim = Simulator()
    fired = []
    events = sim.schedule_bulk((float(i), fired.append, i) for i in range(10))
    for ev in events[::2]:
        assert ev.cancel() is True
    assert sim.pending_count == 5
    sim.run()
    assert fired == [1, 3, 5, 7, 9]


def test_heap_entries_support_cancel_compaction_peek_and_drain():
    from repro.simkit.engine import COMPACTION_MIN_CANCELLED

    sim = Simulator()
    fired = []
    n = 4 * COMPACTION_MIN_CANCELLED
    events = [sim.schedule_at(1.0 + (i % 7), fired.append, i) for i in range(n)]
    # Cancel three of every four, plus the first: compaction runs part-way.
    for i, ev in enumerate(events):
        if i % 4 or i == 0:
            assert ev.cancel()
    assert len(sim._heap) < n
    survivors = sorted((ev.time, ev.seq) for ev in events if ev.pending)
    assert sim.pending_count == len(survivors) == n // 4 - 1
    assert sim.peek_time() == survivors[0][0]
    sim.run(until=3.0)
    assert fired == [seq for time, seq in survivors if time <= 3.0]
    late = sim.schedule_at(3.0, fired.append, "late")
    assert sim.peek_time() == 3.0
    in_heap = len(sim._heap)
    pending, cancelled = sim.drain()
    assert pending == sum(1 for time, _ in survivors if time > 3.0) + 1
    assert pending + cancelled == in_heap
    assert late.cancelled and sim.peek_time() is None and sim.pending_count == 0


def test_compaction_triggered_inside_a_running_callback():
    from repro.simkit.engine import COMPACTION_MIN_CANCELLED

    sim = Simulator()
    fired = []
    n = 4 * COMPACTION_MIN_CANCELLED
    victims = [sim.schedule_at(2.0 + i, fired.append, i) for i in range(n)]

    def cancel_most():
        fired.append("cancel")
        for ev in victims:
            if ev.seq % 8:
                ev.cancel()

    sim.schedule_at(1.0, cancel_most)
    sim.run()
    assert fired == ["cancel"] + [ev.seq for ev in victims if ev.seq % 8 == 0]
    assert sim.pending_count == 0
