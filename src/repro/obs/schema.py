"""The declared registry of every trace event the engine may emit.

Each event the :class:`~repro.obs.tracer.Tracer` records has a dotted
name (``packet.dispatch``, ``pool.hit``) drawn from this module's
:data:`EVENTS` registry, together with the set of fields every instance
must carry.  The registry is the single source of truth that two
enforcement layers share:

* **runtime** -- :meth:`Tracer.event` rejects names outside
  :data:`EVENT_NAMES` (a cheap frozenset lookup; the
  :class:`~repro.obs.tracer.NullTracer` skips it entirely), so a typo'd
  emit fails at the call site instead of producing a trace the
  :class:`~repro.obs.invariants.InvariantChecker` silently ignores;
* **static** -- the ``TRC003`` rule of :mod:`repro.lint` resolves every
  literal emit call site against the same registry, so a missing
  required field is flagged even on a path no traced run reaches.

Dynamic event families (``osp.*``, ``pool.*``, ``lock.*``, ``fault.*``,
``proc.*``) are emitted through f-strings such as ``f"osp.{etype}"``;
the registry enumerates their allowed suffixes so "dynamic" never means
"unchecked".

Adding an event is one :func:`_event` line here; both layers pick it up
with no further wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Tuple


@dataclass(frozen=True)
class EventSpec:
    """One registered trace event: its name, required fields, meaning."""

    name: str
    #: Fields every instance must carry (beyond ``ts`` and ``type``).
    #: Extra event-specific fields are always allowed.
    required: Tuple[str, ...]
    doc: str


class UnknownTraceEvent(ValueError):
    """An emit used an event name missing from :data:`EVENTS`."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"trace event {name!r} is not in the repro.obs.schema registry; "
            f"register it in EVENTS before emitting it"
        )


class TraceFieldError(ValueError):
    """An emitted event lacked one of its registry-required fields."""


EVENTS: Dict[str, EventSpec] = {}


def _event(name: str, required: Tuple[str, ...], doc: str) -> None:
    EVENTS[name] = EventSpec(name, required, doc)


# -- packet lifecycle (dispatcher / micro-engines) --------------------------
_PKT = ("packet", "query", "engine", "op")
_event("packet.create", _PKT + ("parent",),
       "A packet was built for one operator of a query plan.")
_event("packet.enqueue", _PKT,
       "The packet entered its micro-engine's input queue.")
_event("packet.dispatch", _PKT,
       "A worker thread picked the packet up and started executing it.")
_event("packet.complete", _PKT + ("satellite",),
       "The packet finished producing output (standalone or satellite).")
_event("packet.cancel", _PKT + ("reason",),
       "The packet was cancelled (subtree kill, query abort).")
_event("packet.attach", _PKT + ("host", "mechanism"),
       "OSP attached the packet to a compatible in-progress host packet; "
       "carries the window-of-opportunity evidence for the decision.")
_event("packet.detach", _PKT + ("reason",),
       "A satellite was cut loose from its host (host died or stalled) "
       "and will re-execute privately.")

# -- query lifecycle --------------------------------------------------------
_event("query.abort", ("query", "reason"),
       "A whole query was aborted; all of its packets get cancelled.")

# -- OSP coordinator decisions ----------------------------------------------
_event("osp.circular_start", ("packet", "table"),
       "A dedicated circular scanner thread started for a relation.")
_event("osp.circular_attach", ("packet", "table", "position"),
       "A scan packet attached to the circular scanner mid-file.")
_event("osp.scanner_restart", ("table", "position", "consumers"),
       "A crashed scanner thread restarted at its current position.")
_event("osp.scan_detach", ("packet", "table", "position", "remaining"),
       "A stalled consumer was detached into a private catch-up scan.")
_event("osp.mj_split_rejected", ("packet", "host", "saved", "extra"),
       "A merge-join split failed its worst-case cost check (4.3.2).")
_event("osp.deadlock_resolved", ("buffer", "level", "cycle_size"),
       "The deadlock detector materialised one buffer to break a cycle.")

# -- generalized sharing (query folding) ------------------------------------
_event("fold.group_start", ("table", "host"),
       "A fold group opened on a table's circular scanner; later similar "
       "queries may ride its widened filter.")
_event("fold.widen", ("table", "host", "terms"),
       "A member's predicate was unioned into the group's wide scan "
       "predicate before any page was filtered.")
_event("fold.reject", ("table", "query", "reason"),
       "A candidate query failed the subsumption test or the "
       "window-of-opportunity cost rule and dispatched normally.")
_event("fold.seal", ("table", "host", "reason"),
       "The group stopped admitting members (survivor ring overflowed); "
       "existing members are unaffected.")
_event("fold.complete", ("table", "host", "members", "pages"),
       "The group's pass over the table finished; every member received "
       "its residual-filtered rows or merged aggregate exactly once.")

# -- buffer pool ------------------------------------------------------------
_POOL = ("file", "block")
_event("pool.hit", _POOL, "Page found in the pool (or a scan ring).")
_event("pool.miss", _POOL, "Page absent; this process performs the read.")
_event("pool.coalesced", _POOL,
       "Request piggybacked on another process's in-flight read.")
_event("pool.evict", _POOL, "A frame was evicted to make room.")
_event("pool.pin", _POOL, "A frame was pinned (unevictable).")
_event("pool.unpin", _POOL, "A pinned frame was released.")

# -- lock manager -----------------------------------------------------------
_LCK = ("owner", "resource")
_event("lock.acquire", _LCK, "A table lock was granted to an owner.")
_event("lock.release", _LCK, "A table lock was released by its owner.")

# -- fault injection / recovery ---------------------------------------------
_event("fault.retry", ("file", "block", "attempt", "error"),
       "A transient disk fault; the pool retries with backoff.")
_event("fault.giveup", ("file", "block", "attempt", "error"),
       "A permanent fault or exhausted retry budget; the error re-raises.")
_event("fault.scan_failed", ("table", "error"),
       "A circular scan died on an unrecoverable storage fault.")
_event("fault.disk_slow", ("file", "block", "extra"),
       "Injected: a disk read was slowed by extra latency.")
_event("fault.disk_error", ("file", "block", "transient"),
       "Injected: a disk read failed.")
_event("fault.page_corrupt", ("file", "block", "transient"),
       "Injected: a page was corrupted; the checksum check will catch it.")
_event("fault.query_crash", ("query",),
       "Injected: a running query's process was crashed.")
_event("fault.scanner_crash", ("table", "position"),
       "Injected: a circular scanner thread was killed mid-scan.")
_event("fault.client_disconnect", ("client",),
       "Injected: a client process disconnected mid-query.")
_event("fault.log_error", ("query", "transient"),
       "Injected: the next lineage-log flush fails with a write error.")
_event("fault.log_torn", ("query",),
       "Injected: the next flushed lineage record is torn (bad checksum).")

# -- write-ahead lineage / mid-query recovery -------------------------------
_event("lineage.append", ("query", "seq", "kind"),
       "A lineage record entered the per-query log buffer (not yet "
       "durable).")
_event("lineage.flush", ("query", "upto", "blocks"),
       "Buffered lineage records were forced to the log device.")
_event("lineage.torn", ("query", "seq"),
       "A durable lineage record failed its checksum; the durable "
       "frontier truncates strictly before it.")
_event("lineage.disabled", ("query", "reason"),
       "Lineage recording stopped (log device failure); recovery "
       "degrades to clean restart.")
_event("lineage.checkpoint", ("query", "rows", "pages"),
       "An operator-state checkpoint was logged at a page-aligned "
       "input frontier.")
_event("lineage.recover", ("query", "mode", "position", "pages_saved",
                           "rows_kept", "attempt"),
       "A crashed query resumed from its last durable lineage frontier.")
_event("lineage.restart", ("query", "attempt", "reason"),
       "A crashed query had no usable durable frontier and restarted "
       "from scratch.")

# -- network fabric (sharded multi-host execution) --------------------------
_NET = ("src", "dst", "bytes", "frames", "tag")
_event("net.send", _NET,
       "A framed message finished serializing onto the source host's "
       "NIC send queue (bytes are whole-frame wire bytes).")
_event("net.recv", _NET,
       "A framed message completed store-and-forward delivery through "
       "the destination host's NIC receive queue.")

# -- exchange operators (gather / shuffle / broadcast edges) -----------------
_event("exchange.start", ("query", "kind", "shards"),
       "An exchange edge opened between plan fragments: rows will move "
       "between shards (kind: gather | shuffle | broadcast).")
_event("exchange.batch", ("query", "kind", "src", "dst", "rows", "bytes"),
       "One columnar batch of rows crossed a shard boundary (bytes are "
       "payload bytes before frame rounding; loopback batches are free).")
_event("exchange.done", ("query", "kind", "rows", "bytes"),
       "The exchange edge drained: total rows moved and payload bytes.")

# -- sharded query execution -------------------------------------------------
_event("shard.query_start", ("query", "strategy", "shards"),
       "A distributed plan started (strategy: local | gather | shuffle "
       "| broadcast).")
_event("shard.fragment_start", ("query", "shard", "op"),
       "One shard began executing its local plan fragment.")
_event("shard.fragment_done", ("query", "shard", "rows"),
       "A shard's local fragment finished with this many output rows.")
_event("shard.query_done", ("query", "strategy", "rows"),
       "The coordinator assembled the final result of a distributed "
       "plan.")

# -- simulation kernel ------------------------------------------------------
_event("proc.spawn", ("name",), "A simulation process was spawned.")
_event("proc.interrupt", ("name",), "A simulation process was interrupted.")


#: Every registered full event name (the runtime membership check).
EVENT_NAMES: FrozenSet[str] = frozenset(EVENTS)

#: Dynamic family prefix -> allowed suffixes (``"osp" -> {"scan_detach",
#: ...}``).  A family method emitting ``f"{family}.{etype}"`` must use a
#: suffix from this table.
FAMILIES: Dict[str, FrozenSet[str]] = {}
for _name in EVENT_NAMES:
    _prefix, _, _suffix = _name.partition(".")
    FAMILIES.setdefault(_prefix, frozenset())
    FAMILIES[_prefix] = FAMILIES[_prefix] | {_suffix}
del _name, _prefix, _suffix


def is_registered(name: str) -> bool:
    """Whether *name* is a declared event (cheap frozenset lookup)."""
    return name in EVENT_NAMES


def required_fields(name: str) -> Tuple[str, ...]:
    """The fields every instance of *name* must carry."""
    return EVENTS[name].required


def family_suffixes(prefix: str) -> FrozenSet[str]:
    """Allowed suffixes of a dynamic family (empty set when unknown)."""
    return FAMILIES.get(prefix, frozenset())


def validate_event(record: Dict[str, Any]) -> None:
    """Full validation of one recorded event dict (tests and tools).

    Raises :class:`UnknownTraceEvent` for an unregistered ``type`` and
    :class:`TraceFieldError` for a missing required field.  The hot-path
    runtime check in :meth:`Tracer.event` does only the (cheap) name
    membership half of this.
    """
    name = record.get("type")
    if name not in EVENT_NAMES:
        raise UnknownTraceEvent(str(name))
    if "ts" not in record:
        raise TraceFieldError(f"event {name!r} lacks a 'ts' timestamp")
    missing = [f for f in EVENTS[name].required if f not in record]
    if missing:
        raise TraceFieldError(
            f"event {name!r} lacks required field(s): {', '.join(missing)}"
        )


def catalogue() -> List[EventSpec]:
    """Every spec, sorted by name (documentation and reporters)."""
    return [EVENTS[name] for name in sorted(EVENTS)]
