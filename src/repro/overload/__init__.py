"""repro.overload — graceful degradation under retransmit storms.

NFS-over-UDP congestion collapse, and its mitigation, in four pieces:

* :mod:`repro.overload.rto` — client-side adaptive retransmission: Van
  Jacobson SRTT/RTTVAR RTO estimation, Karn's algorithm, seeded jitter,
  and a soft/hard-mount retry budget;
* :mod:`repro.overload.window` — an AIMD congestion window on a client's
  outstanding biod write-behind;
* :mod:`repro.overload.admission` — server-side backpressure: a bounded
  admission queue with pluggable shed policies (drop-newest, drop-oldest,
  dup-cache-aware early reply);
* :mod:`repro.overload.experiment` — the ``repro overload`` goodput-vs-
  offered-load sweep past saturation, with a mid-storm crash checked by
  the :class:`~repro.faults.oracle.Oracle`.
"""

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read, so
#: switching on one mechanism (say, admission control) loads only its module.
_LAZY = {
    "AdaptiveRetryPolicy": "repro.overload.rto",
    "RtoEstimator": "repro.overload.rto",
    "retransmit_jitter": "repro.overload.rto",
    "WriteWindow": "repro.overload.window",
    "AdmissionQueue": "repro.overload.admission",
    "SHED_POLICIES": "repro.server.config",
    "OverloadConfig": "repro.overload.experiment",
    "OverloadReport": "repro.overload.experiment",
    "MODES": "repro.overload.experiment",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
