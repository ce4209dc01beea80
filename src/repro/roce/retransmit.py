"""Retransmission timers, one per queue pair (Section 4.1).

Hardware keeps an array of per-QP deadlines in on-chip memory and a
module counts them down; re-arming only rewrites a QP's entry.  This
module models that as a lazy deadline table:

- :meth:`RetransmissionTimer.arm` records ``(deadline, key)`` for the QP,
  where ``key`` is a scheduler id drawn at arm time.  It starts no
  process and schedules nothing unless the QP has no pending wake-up at
  or before the new deadline, so at most one wake-up per QP is live.
- A wake-up that pops finds one of three cases: the QP was disarmed or
  the wake-up was superseded by an earlier one (nothing happens); the
  QP was re-armed since (the wake-up moves to the recorded deadline);
  or the deadline is the one it was pushed for (the timer expires).
- Because the wake-up is pushed at the recorded ``(deadline, key)``
  (:meth:`Simulator.call_at`), an expiry dispatches in the same place
  among same-picosecond events as a timeout created at arm time would.

Recovery semantics beyond the paper's fixed timeout:

- **Exponential backoff with jitter.**  Consecutive expirations without
  forward progress double the next deadline (capped), and backoff rounds
  add a seeded uniform jitter so many QPs recovering from one event do
  not retry in lockstep.  The *first* expiration of a round fires at
  exactly ``timeout`` — matching the hardware's fixed interval — so
  clean-link behaviour is unchanged.
- **Bounded retry budget.**  After ``max_retries`` consecutive
  expirations the timer gives up and calls ``on_exhausted(qpn)`` instead
  of retrying forever; the NIC uses this to transition the QP into an
  error state that completes outstanding work requests with error
  status.
- **Progress tracking.**  :meth:`note_progress` resets the consecutive
  count; if expirations had occurred, the episode is counted as a
  *recovery* (the ``<name>.recoveries`` counter the fault-sweep CI gate
  asserts on).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from ..algos.hashing import fnv1a64
from ..obs.runtime import registry_for
from ..sim import Simulator


class RetransmissionTimer:
    """Per-QP one-shot retransmission timers.

    ``callback(qpn)`` runs when a timer armed for ``qpn`` expires without
    being re-armed or disarmed; a generator it returns runs as a new
    process.  With a ``max_retries`` budget, ``on_exhausted(qpn)``
    replaces the callback once the budget is spent.
    """

    def __init__(self, env: Simulator, timeout: int,
                 callback: Callable[[int], object],
                 name: str = "timer",
                 max_retries: Optional[int] = None,
                 backoff_cap: Optional[int] = None,
                 jitter: int = 0,
                 on_exhausted: Optional[Callable[[int], object]] = None
                 ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries is not None and max_retries < 1:
            raise ValueError("retry budget must allow at least one retry")
        if backoff_cap is not None and backoff_cap < timeout:
            raise ValueError("backoff cap must be >= the base timeout")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.env = env
        self.timeout = timeout
        self.callback = callback
        self.name = name
        self.max_retries = max_retries
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.on_exhausted = on_exhausted
        self._rng = random.Random(fnv1a64(name.encode()) & 0x7FFF_FFFF)
        #: ``(deadline, key)`` of each armed QP.  The burst fast path
        #: gates folds on the deadline landing after the analytically
        #: scheduled completion.
        self._due: Dict[int, Tuple[int, int]] = {}
        #: The ``_due`` entry each QP's one live wake-up was pushed for.
        self._wakeup: Dict[int, Tuple[int, int]] = {}
        #: Consecutive expirations without progress, per QP.
        self._attempts: Dict[int, int] = {}
        # Imported here, not at module scope: repro.check reaches back
        # into repro.roce for PSN arithmetic, and this module is pulled
        # in by the roce package __init__.
        from ..check import checker_for
        self.check = checker_for(env)
        metrics = registry_for(env)
        self.expirations = metrics.counter(f"{name}.expirations")
        #: Episodes where expirations happened but progress resumed.
        self.recoveries = metrics.counter(f"{name}.recoveries")
        #: QPs whose retry budget ran out (error-state transitions).
        self.exhaustions = metrics.counter(f"{name}.exhaustions")

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def attempts(self, qpn: int) -> int:
        """Consecutive expirations without progress for ``qpn``."""
        return self._attempts.get(qpn, 0)

    def next_delay(self, qpn: int) -> int:
        """The deadline the next :meth:`arm` call would set: exponential
        in the consecutive-expiration count, capped, jittered after the
        first round."""
        attempts = self._attempts.get(qpn, 0)
        delay = self.timeout << min(attempts, 32)
        if self.backoff_cap is not None:
            delay = min(delay, self.backoff_cap)
        if attempts > 0 and self.jitter:
            delay += self._rng.randrange(self.jitter + 1)
        return delay

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, qpn: int) -> None:
        """(Re)start the timer for ``qpn``."""
        if self.check is not None:
            self.check.on_timer_arm(self, qpn)
        env = self.env
        due = (env.now + self.next_delay(qpn), env.next_key())
        self._due[qpn] = due
        pending = self._wakeup.get(qpn)
        if pending is None or pending > due:
            self._push(qpn, due)

    def disarm(self, qpn: int) -> None:
        """Cancel the timer for ``qpn`` (no-op if not armed)."""
        self._due.pop(qpn, None)

    def is_armed(self, qpn: int) -> bool:
        return qpn in self._due

    def deadline(self, qpn: int) -> Optional[int]:
        """Absolute expiry time of the armed timer, or None."""
        due = self._due.get(qpn)
        return None if due is None else due[0]

    def note_progress(self, qpn: int) -> None:
        """Forward progress happened (new ACK / data): reset the backoff
        and, if the QP had been expiring, count one recovery."""
        if self._attempts.get(qpn, 0) > 0:
            self.recoveries.add()
            self._attempts[qpn] = 0

    def _push(self, qpn: int, due: Tuple[int, int]) -> None:
        self._wakeup[qpn] = due
        self.env.call_at(due[0], due[1], self._wake, (qpn, due))

    def _wake(self, event) -> None:
        qpn, pushed_for = event.value
        if self._wakeup.get(qpn) is not pushed_for:
            return  # superseded by an earlier wake-up
        del self._wakeup[qpn]
        due = self._due.get(qpn)
        if due is None:
            return
        if due is not pushed_for:
            self._push(qpn, due)  # re-armed since: wake at the new deadline
            return
        del self._due[qpn]
        self.expirations.add()
        attempts = self._attempts.get(qpn, 0) + 1
        self._attempts[qpn] = attempts
        if self.max_retries is not None and attempts > self.max_retries:
            self.exhaustions.add()
            self._attempts[qpn] = 0
            handler = self.on_exhausted
            if handler is None:
                return
            result = handler(qpn)
        else:
            result = self.callback(qpn)
        # Allow generator callbacks (processes) as well as plain calls.
        if result is not None and hasattr(result, "send"):
            self.env.process(result)
