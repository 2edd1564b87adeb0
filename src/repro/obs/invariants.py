"""Trace replay and engine-invariant checking.

The :class:`InvariantChecker` replays a recorded trace (a list of event
dicts, straight from a :class:`~repro.obs.tracer.Tracer` or loaded back
from JSONL) and asserts the engine invariants that every correct run
must satisfy, whatever the workload:

* **Clock monotonicity** -- virtual timestamps never go backwards.
* **Packet lifecycle** -- every packet is created exactly once before
  any other event; dispatch requires a prior enqueue; a packet never
  both runs standalone and attaches as a satellite; nothing happens to
  a packet after it completed; and no packet completes unattached (no
  prior dispatch or attach) or completes twice.  A ``packet.detach``
  (a satellite whose host died, re-executed privately) resets the
  enqueue/dispatch/attach state: the packet may legally enqueue,
  dispatch, or re-attach afterwards.
* **Abort discipline** -- a query aborts at most once, and a packet is
  cancelled at most once.
* **No orphaned satellites** -- every attach is eventually closed out
  by a completion, a cancellation, or a detach; no satellite is left
  dangling on a dead host at end of trace.
* **Lock balance** -- per (owner, resource) pair, releases never exceed
  acquires and every grant is released by end of trace.
* **WoP bounds** -- every satellite attach carries the evidence its
  window-of-opportunity test was based on, and that evidence must
  actually satisfy the operator's sharing rule: a *generic* attach needs
  a host with no output yet or a full replay ring, a *sort re-emission*
  needs a materialised result, and a *merge-join split* must save more
  pages than the second pass of the non-shared relation costs.
* **Pin balance** -- buffer pool pins and unpins pair up per page, the
  count never goes negative, and nothing stays pinned at end of trace;
  a pinned page is never evicted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple


class InvariantViolation(AssertionError):
    """A trace violated an engine invariant; ``violations`` lists them."""

    def __init__(self, violations: List[str]):
        self.violations = violations
        preview = "\n  ".join(violations[:10])
        more = (
            f"\n  ... and {len(violations) - 10} more"
            if len(violations) > 10
            else ""
        )
        super().__init__(
            f"{len(violations)} invariant violation(s):\n  {preview}{more}"
        )


def _key(event: Dict[str, Any], field: str) -> Any:
    """A packet or query id, qualified by its host in a cluster trace.

    Every host of a sharded system numbers its queries from 1, so the
    tracer stamps their lifecycle events with a ``node``; ids are checked
    per node.  Single-host events carry no node and keep the bare id.
    """
    ident = event.get(field)
    node = event.get("node")
    if node is None or ident is None:
        return ident
    return f"{node}/{ident}"


class InvariantChecker:
    """Replays one trace and collects every invariant violation."""

    def __init__(self, events: Iterable[Dict[str, Any]]):
        self.events = list(events)
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Run every invariant; returns (and stores) the violation list."""
        self.violations = []
        self._check_monotonic_clock()
        self._check_packet_lifecycles()
        self._check_attach_windows()
        self._check_pin_balance()
        self._check_lock_balance()
        self._check_aborts()
        self._check_orphan_satellites()
        return self.violations

    def assert_ok(self) -> None:
        """Raise :class:`InvariantViolation` when any invariant fails."""
        if self.check():
            raise InvariantViolation(self.violations)

    @property
    def ok(self) -> bool:
        return not self.check()

    def _flag(self, message: str) -> None:
        self.violations.append(message)

    # ------------------------------------------------------------------
    def _check_monotonic_clock(self) -> None:
        last = None
        for i, event in enumerate(self.events):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                self._flag(f"event #{i} has no numeric ts: {event!r}")
                continue
            if last is not None and ts < last:
                self._flag(
                    f"clock went backwards at event #{i}: "
                    f"{ts} < {last} ({event.get('type')})"
                )
            last = ts

    # ------------------------------------------------------------------
    def _check_packet_lifecycles(self) -> None:
        created: set = set()
        enqueued: set = set()
        dispatched: set = set()
        attached: set = set()
        completed: set = set()
        cancelled: set = set()
        for event in self.events:
            etype = event.get("type", "")
            if not etype.startswith("packet."):
                continue
            kind = etype.split(".", 1)[1]
            pid = _key(event, "packet")
            if pid is None:
                self._flag(f"{etype} event without a packet id: {event!r}")
                continue
            if kind != "create" and pid not in created:
                self._flag(f"{etype} for {pid} before packet.create")
            if pid in completed and kind != "create":
                self._flag(f"{etype} for {pid} after packet.complete")
            if kind == "create":
                if pid in created:
                    self._flag(f"packet {pid} created twice")
                created.add(pid)
            elif kind == "enqueue":
                if pid in enqueued:
                    self._flag(f"packet {pid} enqueued twice")
                enqueued.add(pid)
            elif kind == "dispatch":
                if pid not in enqueued:
                    self._flag(f"packet {pid} dispatched without enqueue")
                if pid in dispatched:
                    self._flag(f"packet {pid} dispatched twice")
                if pid in attached:
                    self._flag(
                        f"packet {pid} dispatched after attaching as satellite"
                    )
                dispatched.add(pid)
            elif kind == "attach":
                if pid in dispatched:
                    self._flag(
                        f"packet {pid} attached as satellite after dispatch"
                    )
                if pid in attached:
                    self._flag(f"packet {pid} attached twice")
                attached.add(pid)
            elif kind == "detach":
                if pid not in attached:
                    self._flag(f"packet {pid} detached without attach")
                # Host-death redispatch: the packet re-enters the queue as
                # if freshly created -- a later enqueue/dispatch (or even
                # a new attach to a different host) is legal again.
                enqueued.discard(pid)
                dispatched.discard(pid)
                attached.discard(pid)
                cancelled.discard(pid)
            elif kind == "complete":
                if pid in completed:
                    self._flag(f"packet {pid} completed twice")
                elif pid not in dispatched and pid not in attached:
                    self._flag(
                        f"packet {pid} completed without dispatch or attach"
                    )
                completed.add(pid)
            elif kind == "cancel":
                cancelled.add(pid)

    # ------------------------------------------------------------------
    def _check_attach_windows(self) -> None:
        for event in self.events:
            if event.get("type") != "packet.attach":
                continue
            pid = _key(event, "packet")
            mechanism = event.get("mechanism")
            if mechanism == "generic":
                host_tuples = event.get("host_tuples", 0)
                can_replay = event.get("can_replay", False)
                if host_tuples != 0 and not can_replay:
                    self._flag(
                        f"generic attach of {pid} outside the WoP: host had "
                        f"produced {host_tuples} tuples with replay exhausted"
                    )
            elif mechanism == "sort-reemit":
                if not event.get("materialized", False):
                    self._flag(
                        f"sort re-emission attach of {pid} without a "
                        f"materialised result"
                    )
            elif mechanism in ("fold-scan", "fold-agg"):
                host_pages = event.get("host_pages", 0)
                subsumed = event.get("subsumed", False)
                ring_ok = event.get("ring_ok", False)
                if host_pages != 0 and not (subsumed and ring_ok):
                    self._flag(
                        f"fold attach of {pid} outside the WoP: joined at "
                        f"page {host_pages} without subsumption "
                        f"(subsumed={subsumed}) or an intact survivor ring "
                        f"(ring_ok={ring_ok})"
                    )
            elif mechanism == "mj-split":
                saved = event.get("saved", 0)
                extra = event.get("extra", 0)
                if saved <= extra:
                    self._flag(
                        f"merge-join split of {pid} against the cost model: "
                        f"saves {saved} pages but re-reads {extra}"
                    )
            else:
                self._flag(
                    f"attach of {pid} with unknown mechanism {mechanism!r}"
                )

    # ------------------------------------------------------------------
    def _check_pin_balance(self) -> None:
        pins: Dict[Tuple[Any, Any], int] = {}
        for event in self.events:
            etype = event.get("type", "")
            if not etype.startswith("pool."):
                continue
            key = (event.get("file"), event.get("block"))
            if etype == "pool.pin":
                pins[key] = pins.get(key, 0) + 1
            elif etype == "pool.unpin":
                count = pins.get(key, 0) - 1
                if count < 0:
                    self._flag(f"unpin of unpinned page {key}")
                    count = 0
                pins[key] = count
            elif etype == "pool.evict":
                if pins.get(key, 0) > 0:
                    self._flag(f"pinned page {key} was evicted")
        leaked = sorted(
            (key for key, count in pins.items() if count > 0),
            key=repr,
        )
        for key in leaked:
            self._flag(
                f"page {key} still pinned at end of trace "
                f"(count={pins[key]})"
            )

    # ------------------------------------------------------------------
    def _check_lock_balance(self) -> None:
        """Per (owner, resource): releases pair up with acquires, nothing
        stays granted at end of trace (aborted queries included)."""
        held: Dict[Tuple[Any, Any], int] = {}
        for event in self.events:
            etype = event.get("type", "")
            if not etype.startswith("lock."):
                continue
            key = (event.get("owner"), event.get("resource"))
            if etype == "lock.acquire":
                held[key] = held.get(key, 0) + 1
            elif etype == "lock.release":
                count = held.get(key, 0) - 1
                if count < 0:
                    self._flag(f"lock release without acquire for {key}")
                    count = 0
                held[key] = count
        for key in sorted(held, key=repr):
            if held[key] > 0:
                self._flag(
                    f"lock {key} still held at end of trace "
                    f"(count={held[key]})"
                )

    # ------------------------------------------------------------------
    def _check_aborts(self) -> None:
        """Exactly-once teardown: one abort per query, one cancel per
        packet (between detaches)."""
        aborted: set = set()
        cancelled: set = set()
        for event in self.events:
            etype = event.get("type", "")
            if etype == "query.abort":
                qid = _key(event, "query")
                if qid in aborted:
                    self._flag(f"query {qid} aborted twice")
                aborted.add(qid)
            elif etype == "packet.cancel":
                pid = _key(event, "packet")
                if pid in cancelled:
                    self._flag(f"packet {pid} cancelled twice")
                cancelled.add(pid)
            elif etype == "packet.detach":
                cancelled.discard(_key(event, "packet"))

    # ------------------------------------------------------------------
    def _check_orphan_satellites(self) -> None:
        """Every attach must be closed out -- by a completion, a
        cancellation, or a detach -- before the trace ends.  A satellite
        still open at the end is an orphan: its host died (or finished)
        without anyone resolving the satellite's fate."""
        open_attach: set = set()
        for event in self.events:
            etype = event.get("type", "")
            if etype == "packet.attach":
                open_attach.add(_key(event, "packet"))
            elif etype in (
                "packet.complete", "packet.cancel", "packet.detach"
            ):
                open_attach.discard(_key(event, "packet"))
        for pid in sorted(open_attach, key=repr):
            self._flag(f"satellite {pid} still attached at end of trace")
