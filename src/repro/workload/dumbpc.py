"""The "dumb PC" single-threaded client (§6.10).

"Single threaded PCs (or clients with no biods, or clients that emit a
single write every once in a while) are the worst case for write gathering.
There is added processing and latency for no gain."  Easily simulated — as
the paper says — "by killing all biods": an NfsClient with ``nbiods=0``
whose every write blocks the application.  ``think_time`` distinguishes a
"reasonably quick" single-threaded client from a truly slow PC, for whom
the paper predicts the loss fades into insignificance.

A dumb PC is ``testbed.add_client(nbiods=0, host="pc")``.
"""

from __future__ import annotations

__all__ = ["DUMB_PC_THINK_TIME", "FAST_CLIENT_THINK_TIME"]

#: A quick single-threaded client (the paper's 15%-loss case).
FAST_CLIENT_THINK_TIME = 0.0005
#: A genuinely slow PC: per-8K production time dominates everything.
DUMB_PC_THINK_TIME = 0.020
