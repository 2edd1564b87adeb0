"""Process-unique scan-stream identities.

The buffer pool keys its circular-scan rings by a caller-chosen
``stream`` value and only ever compares streams for (in)equality --
but ring entries *outlive* the scan that made them.  Using ``id(op)``
as the stream (the obvious choice) is therefore a latent
nondeterminism: once the op is garbage-collected, a later scan's
object can be allocated at the same address, accidentally match the
dead scan's leftover ring entries, and turn its cold misses into hits
-- a divergence that depends on allocator layout, not on the schedule.

Every engine draws stream identities from this counter instead: values
are unique for the life of the process, so a dead scan's ring entries
can never be matched again.  The tag keeps streams disjoint from the
("q", qid)-style lock-owner tuples some engines sweep by prefix.
"""

from __future__ import annotations

from itertools import count
from typing import Tuple

_ids = count(1)


def next_stream() -> Tuple[str, int]:
    """A fresh scan-stream identity, never equal to any earlier one."""
    # Designated impurity: the counter only mints process-unique ids;
    # no simulated behavior branches on their numeric values, so cell
    # outputs stay reproducible across warm/cold processes.
    return ("scan-stream", next(_ids))
