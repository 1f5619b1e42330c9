"""Event objects for the DES kernel.

The scheduler orders events on ``(time, priority, sequence)``, a
deterministic total order: earlier time first, then lower priority
number, then insertion order (FIFO among ties). It keeps that key in
its heap entries, so events themselves are never compared.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Tuple


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Event:
    """A scheduled callback.

    Parameters
    ----------
    time:
        Virtual time at which the event fires.
    seq:
        Monotone sequence number assigned by the simulator; breaks ties
        deterministically (FIFO) among events scheduled for the same time.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    priority:
        Secondary ordering key; events at equal time fire in ascending
        priority. Defaults to 0. Use negative priorities for bookkeeping
        that must observe state *before* same-time application events.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "state", "tag", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        self.time = float(time)
        self.priority = int(priority)
        self.seq = int(seq)
        self.callback = callback
        self.args = args
        self.state = EventState.PENDING
        self.tag = tag
        #: Owning scheduler, set by ``Simulator.schedule_at``; lets
        #: ``cancel`` report lazily-cancelled events so the engine can keep
        #: an O(1) pending count and compact the heap.
        self.owner: Optional[Any] = None

    def cancel(self) -> bool:
        """Cancel a pending event. Returns True if it was still pending."""
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            if self.owner is not None:
                self.owner.note_cancelled()
            return True
        return False

    @property
    def cancelled(self) -> bool:
        return self.state is EventState.CANCELLED

    @property
    def pending(self) -> bool:
        return self.state is EventState.PENDING

    def fire(self) -> None:
        """Invoke the callback; transitions PENDING -> FIRED."""
        if self.state is not EventState.PENDING:
            raise RuntimeError(f"cannot fire event in state {self.state}")
        self.state = EventState.FIRED
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        return (
            f"Event(t={self.time:.6g}, prio={self.priority}, seq={self.seq}, "
            f"cb={name}, state={self.state.value})"
        )
