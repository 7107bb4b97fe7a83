"""The paper's contribution: NFS write gathering."""

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read.
_LAZY = {
    "GatheringWritePath": "repro.core.gather",
    "GatherStats": "repro.core.gather",
    "GatherPolicy": "repro.core.policy",
    "REPLY_FIFO": "repro.core.policy",
    "REPLY_LIFO": "repro.core.policy",
    "LearnedClientDb": "repro.core.learned",
    "hunt": "repro.core.mbuf_hunter",
    "SivaWritePath": "repro.core.siva",
    "NfsdStateTable": "repro.core.state_table",
    "NfsdState": "repro.core.state_table",
    "STAGE_IDLE": "repro.core.state_table",
    "STAGE_DECODE": "repro.core.state_table",
    "STAGE_WRITING": "repro.core.state_table",
    "STAGE_GATHER_WAIT": "repro.core.state_table",
    "STAGE_FLUSHING": "repro.core.state_table",
    "ActiveWriteQueue": "repro.core.write_queue",
    "WriteDescriptor": "repro.core.write_queue",
    "WriteQueueRegistry": "repro.core.write_queue",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
