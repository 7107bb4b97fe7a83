"""Server CPU accounting.

Every piece of server work — RPC decode, per-frame reassembly, UFS trips,
driver trips, reply generation — acquires the CPU for its cost.  The meter
behind it produces the "server cpu util. (%)" row of the paper's tables,
and CPU contention naturally degrades service when the server saturates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.sim import Environment, Event, UtilizationMeter

__all__ = ["Cpu"]


class Cpu:
    """A (possibly multi-core) CPU shared by all server work.

    A FIFO pool of cores driven by callbacks: each hold is one timer entry
    whose callback frees the core, starts the next queued hold on it and
    resumes the holder — no request or grant events.
    """

    def __init__(self, env: Environment, cores: int = 1) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.env = env
        self.cores = cores
        self.meter = UtilizationMeter(env, "cpu")
        self._busy = 0
        #: Holds waiting for a core, as (seconds, holder's wakeup).
        self._queue: Deque[Tuple[float, Event]] = deque()
        #: What a hold of no time returns: already processed, so the
        #: yielding process continues without a scheduler round.
        self._idle = Event(env)._finish_now()

    def consume(self, seconds: float) -> Event:
        """Hold one core for ``seconds`` of work; yield the returned event.

        It fires once the work is done (for ``seconds <= 0`` it is already
        processed).
        """
        if seconds <= 0:
            return self._idle
        wakeup = Event(self.env)
        if self._busy < self.cores:
            self._start(seconds, wakeup)
        else:
            self._queue.append((seconds, wakeup))
        return wakeup

    def _start(self, seconds: float, wakeup: Event) -> None:
        self._busy += 1
        self.meter.begin()
        self.env.call_later(seconds, self._finish, wakeup)

    def _finish(self, wakeup: Event) -> None:
        self.meter.end()
        self._busy -= 1
        if self._queue:
            self._start(*self._queue.popleft())
        wakeup.fire()

    def utilization(self) -> float:
        """Busy fraction in [0, 1]; for multi-core, mean busy cores / cores."""
        if self.cores == 1:
            return self.meter.utilization()
        return min(1.0, self.meter.mean_concurrency() / self.cores)

    def reset(self) -> None:
        self.meter.reset()
