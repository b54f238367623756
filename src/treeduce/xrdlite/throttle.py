"""Token-bucket rate limiting for the server's outbound payload bytes."""

from __future__ import annotations

import threading
import time

TICK_S = 0.01  # seconds; the refill step a consumer sleeps at most


class TokenBucket:
    """Caps long-run consumption at ``rate`` units/second.

    Refills continuously; capacity is two ticks' worth so small frames
    never stall, while sustained streams converge on the cap. Safe for
    concurrent consumers.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.capacity = max(1.0, rate * TICK_S * 2)
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    @property
    def chunk_size(self) -> int:
        """Largest single grab that cannot exceed one tick's budget."""
        return max(1, int(self.rate * TICK_S))

    def consume(self, n: float) -> None:
        """Block until n tokens are available, then take them."""
        if n > self.capacity:
            raise ValueError(f"cannot consume {n} > capacity {self.capacity}")
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.rate)
                self._updated = now
                if self._tokens >= n:
                    self._tokens -= n
                    return
                deficit = n - self._tokens
            time.sleep(min(deficit / self.rate, TICK_S))
