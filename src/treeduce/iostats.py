"""Byte accounting for random-access reads.

One ``IoStats`` instance belongs to one byte source (a local file or a
remote connector). Sources update their own stats from a single owner
thread; cross-worker aggregation happens through :meth:`IoStats.merge`,
never through shared mutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class IoStats:
    """Counters for caller-visible reads vs bytes actually moved.

    ``bytes_requested`` sums the lengths the caller asked for,
    ``bytes_fetched`` the bytes that crossed the wire (or came off disk),
    so ``amplification`` > 1 means the source over-fetched (read-ahead)
    and < 1 means cache hits served repeat requests. ``fetch_done`` holds
    one (``time.perf_counter()`` at completion, bytes) pair per fetch, from
    which the engine derives its fetched-bytes timeline. Time spent reading
    is not kept here: the engine times each task's stages itself.
    """

    bytes_requested: int = 0
    bytes_fetched: int = 0
    fetch_calls: int = 0
    fetch_done: list[tuple[float, int]] = field(default_factory=list)

    def record_request(self, nbytes: int) -> None:
        self.bytes_requested += nbytes

    def record_fetch(self, nbytes: int) -> None:
        self.fetch_calls += 1
        self.bytes_fetched += nbytes
        self.fetch_done.append((time.perf_counter(), nbytes))

    @property
    def amplification(self) -> float:
        return self.bytes_fetched / max(self.bytes_requested, 1)

    def merge(self, other: "IoStats") -> "IoStats":
        self.bytes_requested += other.bytes_requested
        self.bytes_fetched += other.bytes_fetched
        self.fetch_calls += other.fetch_calls
        self.fetch_done += other.fetch_done
        return self
