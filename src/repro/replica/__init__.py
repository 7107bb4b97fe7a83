"""repro.replica — synchronous primary/backup shard replication.

Each shard of a :class:`~repro.cluster.fleet.Cluster` can be a *replica
group*: the primary plus K backups on distinct hosts and disks.  A
stable WRITE (or namespace mutation) is acked to the client only after
``quorum`` backups confirm it on their own stable storage, piggybacking
on the gathered flush — one batch, one replication round trip.  When a
primary dies, the freshest backup is promoted in place: the router's
alias table repoints the shard's logical name, clients retransmit into
the new primary, and its replication-primed duplicate cache replays any
ack the old primary already sent.  The guarantee under test: **no acked
write is ever missing from the surviving replica set.**
"""

from repro.replica.experiment import (
    ReplicaArm,
    ReplicaRunResult,
    replica_storm,
    run_replica_arm,
)
from repro.replica.group import ReplicaGroup
from repro.replica.messages import ReplBatch, ReplOp, namespace_op
from repro.replica.replicator import REPLICATED_NAMESPACE, Replicator

__all__ = [
    "REPLICATED_NAMESPACE",
    "ReplBatch",
    "ReplOp",
    "ReplicaArm",
    "ReplicaGroup",
    "ReplicaRunResult",
    "Replicator",
    "namespace_op",
    "replica_storm",
    "run_replica_arm",
]
