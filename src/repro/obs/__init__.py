"""Observability: packet-lifecycle tracing, trace analysis, invariants.

The subsystem has five parts:

* :mod:`repro.obs.schema` -- the declared registry of every trace event
  and its required fields; the tracer validates names against it at
  runtime and the ``TRC003`` rule of :mod:`repro.lint` checks required
  fields against it statically;
* :mod:`repro.obs.tracer` -- the :class:`Tracer` that records typed
  events with virtual timestamps (and the allocation-free
  :class:`NullTracer` every simulator starts with);
* :mod:`repro.obs.export` -- deterministic JSONL plus Chrome
  ``trace_event`` renderings of a recorded trace;
* :mod:`repro.obs.query_trace` -- the per-query analysis API (critical
  path, wait-time breakdown);
* :mod:`repro.obs.invariants` -- the :class:`InvariantChecker` that
  replays a trace and asserts engine invariants.

Typical use::

    from repro.obs import InvariantChecker, Tracer

    tracer = Tracer(host.sim)          # installs itself on the simulator
    ... run queries ...
    InvariantChecker(tracer.events).assert_ok()
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_dumps,
    read_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.obs.query_trace import PacketTimeline, QueryTrace, query_ids
from repro.obs.schema import (
    EVENT_NAMES,
    EVENTS,
    TraceFieldError,
    UnknownTraceEvent,
    validate_event,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "EVENTS",
    "EVENT_NAMES",
    "InvariantChecker",
    "InvariantViolation",
    "NULL_TRACER",
    "NullTracer",
    "TraceFieldError",
    "UnknownTraceEvent",
    "validate_event",
    "PacketTimeline",
    "QueryTrace",
    "Tracer",
    "chrome_trace",
    "jsonl_dumps",
    "query_ids",
    "read_jsonl",
    "write_chrome",
    "write_jsonl",
]
