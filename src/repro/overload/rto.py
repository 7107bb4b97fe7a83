"""Adaptive retransmission: Van Jacobson RTO estimation with Karn's rule.

The reference port's client (§4.1) retransmits on a fixed 1.1 s doubling
schedule — fine against a paper-era server, but under overload it is the
engine of congestion collapse: every client that misses the window fires
again on the same schedule, re-synchronizing the storm.  This module is
the client half of ``repro.overload``:

* :class:`RtoEstimator` — the TCP-style smoothed round-trip estimator
  (SRTT/RTTVAR, ``RTO = SRTT + 4·RTTVAR``), clamped to a floor/ceiling;
* **Karn's algorithm** — a reply to a retransmitted call is ambiguous
  (it may answer any transmission), so it must never feed the estimator;
  instead a timeout *backs the RTO off* and the backoff is retained until
  a clean (first-transmission) sample arrives;
* **seeded jitter** — each (client host, xid, attempt) draws its own
  deterministic perturbation, so N clients that time out together do not
  re-synchronize, and same-seed runs stay byte-identical;
* **retry budget** — soft-mount semantics: after ``max_attempts``
  transmissions the call fails with
  :class:`~repro.rpc.client.RpcTimeoutError` (surfaced to the workload as
  ``ETIMEDOUT``).  ``max_attempts=None`` is a hard mount: retry forever.

:class:`AdaptiveRetryPolicy` is a drop-in replacement for
:class:`~repro.rpc.client.RpcTimeoutPolicy` — same ``timeout_for`` /
``observe`` / ``base`` surface, per weight class — so an
:class:`~repro.rpc.client.RpcClient` takes either without caring which.
"""

from __future__ import annotations

from typing import Dict, Optional

# The jitter draw lives with the RPC client that arms the timers.  This
# module depends on repro.rpc and never the reverse, which keeps the
# import graph acyclic (repro.overload's package init pulls in
# repro.rpc through the admission queue).
from repro.rpc.client import retransmit_jitter
from repro.rpc.messages import CLASS_HEAVY, CLASS_LIGHT, CLASS_MEDIUM

__all__ = ["RtoEstimator", "AdaptiveRetryPolicy", "retransmit_jitter"]

#: Cap on the exponential-backoff exponent (2**16 · ceiling is already
#: astronomically past any ceiling clamp; this just bounds the arithmetic).
MAX_BACKOFF_EXPONENT = 16


class RtoEstimator:
    """Van Jacobson SRTT/RTTVAR retransmission-timeout estimator.

    ``observe`` folds one *clean* round-trip sample (Karn filtering is the
    caller's job); ``backoff`` doubles the working RTO after a timeout and
    the doubled value sticks until the next clean sample (Karn's backoff
    retention).
    """

    def __init__(
        self,
        initial_rto: float = 1.1,
        min_rto: float = 0.02,
        max_rto: float = 60.0,
        k: float = 4.0,
        alpha: float = 0.125,
        beta: float = 0.25,
    ) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError(f"need 0 < min_rto <= max_rto, got {min_rto}, {max_rto}")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = self._clamp(initial_rto)
        #: Retained backoff doublings (Karn): cleared by a clean sample.
        self.backoff_level = 0
        self.samples = 0

    def _clamp(self, value: float) -> float:
        return min(self.max_rto, max(self.min_rto, value))

    @property
    def rto(self) -> float:
        """The working timeout, including any retained backoff."""
        return self._clamp(self._rto * (2 ** min(self.backoff_level, MAX_BACKOFF_EXPONENT)))

    def observe(self, rtt: float) -> None:
        """Fold one clean (first-transmission) round-trip sample."""
        if rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {rtt}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            error = rtt - self.srtt
            self.rttvar = (1.0 - self.beta) * self.rttvar + self.beta * abs(error)
            self.srtt = self.srtt + self.alpha * error
        self._rto = self._clamp(self.srtt + self.k * self.rttvar)
        self.backoff_level = 0  # a valid sample ends the backed-off regime
        self.samples += 1

    def backoff(self) -> None:
        """A timeout fired: double the working RTO (retained until a clean
        sample arrives — Karn's other half)."""
        self.backoff_level = min(self.backoff_level + 1, MAX_BACKOFF_EXPONENT)


class AdaptiveRetryPolicy:
    """Per-class adaptive retransmission timers with a retry budget.

    Drop-in for :class:`~repro.rpc.client.RpcTimeoutPolicy`: the
    :class:`~repro.rpc.client.RpcClient` calls ``interval_for`` per
    transmission, ``observe`` per completion (with the retransmission flag
    for Karn's rule), and ``on_timeout`` per expiry.
    """

    def __init__(
        self,
        initial_rto: float = 1.1,
        min_rto: float = 0.02,
        max_rto: float = 60.0,
        jitter: float = 0.1,
        jitter_seed: int = 0,
        max_attempts: Optional[int] = None,
    ) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.jitter = jitter
        self.jitter_seed = jitter_seed
        #: Soft-mount retry budget; None = hard mount (retry forever).
        self.max_attempts = max_attempts
        self._estimators: Dict[str, RtoEstimator] = {
            weight: RtoEstimator(initial_rto=initial_rto, min_rto=min_rto, max_rto=max_rto)
            for weight in (CLASS_LIGHT, CLASS_MEDIUM, CLASS_HEAVY)
        }
        self.karn_suppressed = 0

    def estimator(self, weight: str) -> RtoEstimator:
        est = self._estimators.get(weight)
        if est is None:
            est = self._estimators[weight] = RtoEstimator()
        return est

    def timeout_for(self, weight: str, attempt: int) -> float:
        """Unjittered interval before transmission ``attempt`` expires."""
        est = self.estimator(weight)
        exponent = min(attempt - 1, MAX_BACKOFF_EXPONENT)
        return min(est.max_rto, est.rto * (2 ** exponent))

    def interval_for(self, weight: str, attempt: int, host: str, xid: int) -> float:
        """The jittered retransmission interval actually armed."""
        factor = retransmit_jitter(self.jitter_seed, host, xid, attempt, self.jitter)
        return self.timeout_for(weight, attempt) * factor

    def observe(self, weight: str, latency: float, retransmitted: bool = False) -> None:
        """Fold one completed call's round trip — unless it was ever
        retransmitted, in which case Karn's rule discards the ambiguous
        sample (the reply may answer any of the transmissions)."""
        if retransmitted:
            self.karn_suppressed += 1
            return
        self.estimator(weight).observe(latency)

    def on_timeout(self, weight: str) -> None:
        """A retransmission timer expired: back the class's RTO off."""
        self.estimator(weight).backoff()

    def base(self, weight: str) -> float:
        """The class's working RTO (RpcTimeoutPolicy-compatible probe)."""
        return self.estimator(weight).rto
