"""Structured tracing of packet lifecycles, OSP decisions, and storage.

The tracer records *typed events* with virtual timestamps as the engine
runs.  Every event is a plain dict with at least ``ts`` (simulation
seconds) and ``type`` (a dotted name such as ``packet.dispatch`` or
``pool.hit``, declared in the :mod:`repro.obs.schema` registry --
unregistered names are rejected at emit time); the remaining keys are
event-specific and deliberately
restricted to deterministic values (packet ids, table names, counts --
never Python object ids), so two identical runs produce byte-identical
exports.

Event families:

* ``packet.*``  -- create / enqueue / dispatch / attach / detach /
  cancel / complete, emitted by the dispatcher and the micro-engines.
  Attach events carry the sharing *mechanism* (``generic``,
  ``sort-reemit``, ``mj-split``, ``fold-scan``, ``fold-agg``) plus the
  window-of-opportunity evidence the decision was based on, which is
  what :class:`~repro.obs.invariants.InvariantChecker` replays.  The
  packet keeps the same name (``Packet.mechanism``), and it decides
  what the satellite does when its host ends (``Packet.end_satellites``):
  a complete, a detach and private re-execution, or nothing.  A fold
  member's host is a circular scanner, which completes it after one
  pass.
* ``osp.*``     -- coordinator decisions above single packets: circular
  scan attaches/detaches, rejected merge-join splits, deadlock
  resolutions.
* ``pool.*``    -- buffer pool hit / miss / coalesced / evict and the
  pin / unpin pairs the pin-balance invariant checks.
* ``proc.*``    -- simulation-kernel process spawn / interrupt.

The :class:`NullTracer` is the default on every
:class:`~repro.sim.kernel.Simulator`; all of its hooks are no-ops taking
positional arguments only, so instrumented hot paths (one call per page
access or per packet transition, never per tuple) allocate nothing when
tracing is off.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.schema import (
    EVENT_NAMES,
    UnknownTraceEvent,
    family_suffixes,
)

def _family_names(family: str) -> Dict[str, str]:
    """Precomputed ``suffix -> "family.suffix"`` cache for one family.

    Family emit hooks (``pool``/``proc``/``osp``/``lock``/``fault``) are
    the per-page and per-packet hot paths; a dict lookup both validates
    the suffix against the schema registry and returns the interned full
    name, so no f-string is built per event.
    """
    return {suffix: f"{family}.{suffix}" for suffix in family_suffixes(family)}


_POOL_NAMES = _family_names("pool")
_PROC_NAMES = _family_names("proc")
_LOCK_NAMES = _family_names("lock")


def _emitter(family: str):
    """The emit hook of a keyword family: ``tracer.<family>(etype,
    **fields)`` records ``{"ts", "type": "<family>.<etype>", **fields}``."""
    names = _family_names(family)

    def emit(self, etype: str, **fields) -> None:
        name = names.get(etype)
        if name is None:
            raise UnknownTraceEvent(f"{family}.{etype}")
        record: Dict[str, Any] = {"ts": self.sim.now, "type": name}
        record.update(fields)
        self.events.append(record)

    emit.__name__ = family
    return emit


def _ignore(self, etype: str, **fields) -> None:
    pass


class NullTracer:
    """The disabled tracer: every hook is an allocation-free no-op."""

    enabled = False
    __slots__ = ()

    # -- packet lifecycle ----------------------------------------------------
    def packet_create(self, packet) -> None:
        pass

    def packet_enqueue(self, packet) -> None:
        pass

    def packet_dispatch(self, packet) -> None:
        pass

    def packet_complete(self, packet) -> None:
        pass

    def packet_cancel(self, packet, reason: str) -> None:
        pass

    def packet_attach(self, packet, host, mechanism: str, **window) -> None:
        pass

    def packet_detach(self, packet, reason: str) -> None:
        pass

    # -- query lifecycle -----------------------------------------------------
    def query_abort(self, query, reason: str, node=None) -> None:
        pass

    # -- keyword families: OSP coordinator decisions, fault injection /
    # -- recovery, write-ahead lineage, query folding, network fabric,
    # -- exchange operators, sharded query execution
    osp = fault = lineage = fold = net = exchange = shard = _ignore

    # -- buffer pool ---------------------------------------------------------
    def pool(self, etype: str, file_id: int, block_no: int) -> None:
        pass

    # -- lock manager --------------------------------------------------------
    def lock(self, etype: str, owner, resource) -> None:
        pass

    # -- simulation kernel ---------------------------------------------------
    def proc(self, etype: str, name: str) -> None:
        pass


#: The shared disabled tracer every Simulator starts with.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """An enabled tracer accumulating events in memory.

    Args:
        sim: the simulator whose virtual clock stamps every event.
            The tracer installs itself as ``sim.tracer``.
    """

    enabled = True
    __slots__ = ("sim", "events")

    def __init__(self, sim):
        self.sim = sim
        self.events: List[Dict[str, Any]] = []
        sim.tracer = self

    def clear(self) -> None:
        self.events = []

    def __len__(self):
        return len(self.events)

    # ------------------------------------------------------------------
    def event(self, etype: str, **fields) -> None:
        """Record one raw event at the current virtual time.

        The name must come from the :mod:`repro.obs.schema` registry --
        the same registry the static ``TRC003`` rule checks emit call
        sites' required fields against -- so a typo'd event can never
        silently slip past the
        :class:`~repro.obs.invariants.InvariantChecker`.
        """
        if etype not in EVENT_NAMES:
            raise UnknownTraceEvent(etype)
        record: Dict[str, Any] = {"ts": self.sim.now, "type": etype}
        record.update(fields)
        self.events.append(record)

    def _packet(self, etype: str, packet, **extra) -> None:
        # Internal call sites only, all with literal registered names
        # (every one is emitted by tier-1's pinned traces), so the record
        # is built directly without the event() double-splat.
        record: Dict[str, Any] = {
            "ts": self.sim.now,
            "type": etype,
            "packet": packet.packet_id,
            "query": packet.query.query_id,
            "engine": packet.engine_name,
            "op": packet.plan.op_name,
        }
        # Every host of a cluster numbers its queries from 1: its packet
        # ids are unique only together with the host's name.
        node = getattr(packet.query.host_machine, "node", None)
        if node is not None:
            record["node"] = node
        if extra:
            record.update(extra)
        self.events.append(record)

    # -- packet lifecycle ----------------------------------------------------
    def packet_create(self, packet) -> None:
        parent = packet.parent
        self._packet(
            "packet.create",
            packet,
            parent=parent.packet_id if parent is not None else None,
        )

    def packet_enqueue(self, packet) -> None:
        self._packet("packet.enqueue", packet)

    def packet_dispatch(self, packet) -> None:
        self._packet("packet.dispatch", packet)

    def packet_complete(self, packet) -> None:
        self._packet(
            "packet.complete", packet, satellite=packet.host is not None
        )

    def packet_cancel(self, packet, reason: str) -> None:
        self._packet("packet.cancel", packet, reason=reason)

    def packet_attach(self, packet, host, mechanism: str, **window) -> None:
        self._packet(
            "packet.attach",
            packet,
            host=host.packet_id,
            mechanism=mechanism,
            **window,
        )

    def packet_detach(self, packet, reason: str) -> None:
        self._packet("packet.detach", packet, reason=reason)

    # -- query lifecycle -----------------------------------------------------
    def query_abort(self, query, reason: str, node=None) -> None:
        host = {} if node is None else {"node": node}
        self.event("query.abort", query=query.query_id, reason=reason, **host)

    # -- keyword families ----------------------------------------------------
    osp = _emitter("osp")
    fault = _emitter("fault")
    lineage = _emitter("lineage")
    fold = _emitter("fold")
    net = _emitter("net")
    exchange = _emitter("exchange")
    shard = _emitter("shard")

    # -- lock manager --------------------------------------------------------
    def lock(self, etype: str, owner, resource) -> None:
        name = _LOCK_NAMES.get(etype)
        if name is None:
            raise UnknownTraceEvent(f"lock.{etype}")
        self.events.append(
            {
                "ts": self.sim.now,
                "type": name,
                "owner": repr(owner),
                "resource": str(resource),
            }
        )

    # -- buffer pool ---------------------------------------------------------
    def pool(self, etype: str, file_id: int, block_no: int) -> None:
        # The per-page hot path: the cached-name lookup validates against
        # the registry and avoids any per-event string build.
        name = _POOL_NAMES.get(etype)
        if name is None:
            raise UnknownTraceEvent(f"pool.{etype}")
        self.events.append(
            {
                "ts": self.sim.now,
                "type": name,
                "file": file_id,
                "block": block_no,
            }
        )

    # -- simulation kernel ---------------------------------------------------
    def proc(self, etype: str, name: str) -> None:
        full = _PROC_NAMES.get(etype)
        if full is None:
            raise UnknownTraceEvent(f"proc.{etype}")
        self.events.append({"ts": self.sim.now, "type": full, "name": name})
