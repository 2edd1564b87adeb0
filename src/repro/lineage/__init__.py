"""Write-ahead lineage and mid-query recovery.

Queries record a compact input-page -> output-batch lineage log on the
WAL's log device (:class:`repro.storage.log.LogDevice`) while they run;
after a crash, the :class:`RecoveryManager` consults the durable
lineage frontier and resumes from it -- re-scanning only unconsumed
pages and restoring checkpointed operator state -- instead of
restarting from scratch.
Recovered results are byte-identical to the fault-free run.
"""

from repro.lineage.recovery import RecoveryManager, RecoveryReport
from repro.lineage.tracker import LineageRecord, LineageTracker, resume_shape

__all__ = [
    "LineageRecord",
    "LineageTracker",
    "RecoveryManager",
    "RecoveryReport",
    "resume_shape",
]
