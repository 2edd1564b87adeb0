"""Row shipment over the network model: the exchange data plane.

An exchange edge moves row batches between shards through
:meth:`repro.hw.net.Network.transfer`.  Payload size is
``rows x row_width`` (the relational row-width estimate the storage
layer also uses for paging); the network layer then rounds each
message up to whole frames, exactly like the disk charges whole
blocks.  Loopback shipments (a shard sending to itself -- every gather
includes one, and 1/N of all shuffle traffic) cost nothing, so a
1-host "sharded" run pays no network tax at all.

Batches are framed at ``batch_rows`` rows so large streams occupy the
NICs as a sequence of bounded messages rather than one giant transfer
-- concurrent exchanges interleave at batch granularity, which is what
makes the fabric's FIFO queues model contention at all.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.hw.net import Network
from repro.relational import BATCH_ROWS

#: Rows per network message.  At the Wisconsin row width (~200 bytes)
#: this is ~25 frames per message -- big enough to amortise latency,
#: small enough that concurrent streams share the NICs fairly.
DEFAULT_BATCH_ROWS = BATCH_ROWS


def ship(
    network: Network,
    src: str,
    dst: str,
    rows: Sequence[tuple],
    row_width: int,
    query: int,
    kind: str,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Generator:
    """Coroutine: ship *rows* from *src* to *dst* in framed batches.

    Returns the total payload bytes (before frame rounding).  Empty
    streams send nothing -- the receiver learns completion from the
    executor's barrier, not from an end-of-stream message, so there is
    no tail exchange to pay for.
    """
    total = 0
    width = max(1, row_width)
    for start in range(0, len(rows), batch_rows):
        chunk = rows[start:start + batch_rows]
        nbytes = len(chunk) * width
        network.sim.tracer.exchange(
            "batch",
            query=query,
            kind=kind,
            src=src,
            dst=dst,
            rows=len(chunk),
            bytes=nbytes,
        )
        yield from network.transfer(src, dst, nbytes, tag=kind)
        total += nbytes
    return total
