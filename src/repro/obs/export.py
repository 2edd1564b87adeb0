"""Trace exporters: JSONL and Chrome ``trace_event`` format.

JSONL is the canonical on-disk format -- one JSON object per line, keys
sorted, minimal separators -- so that two identical runs produce
byte-identical files (the determinism guarantee DESIGN.md claims for the
whole simulation extends to its traces).

The Chrome export renders the same events for ``chrome://tracing`` /
Perfetto: each micro-engine becomes one *thread*, every served packet a
duration slice on its engine's thread, and attaches/OSP decisions
instant markers -- so simultaneous pipelining is literally visible as
one slice serving many queries.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

#: Chrome's ts unit is microseconds; the simulation clock is seconds.
_US = 1_000_000.0


def jsonl_dumps(events: Iterable[Dict[str, Any]]) -> str:
    """The deterministic JSONL rendering of *events* (one dict per line)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def write_jsonl(events: Iterable[Dict[str, Any]], path) -> None:
    """Write *events* to *path* as deterministic JSONL."""
    with open(path, "w") as handle:
        handle.write(jsonl_dumps(events))


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def chrome_trace(events: Iterable[Dict[str, Any]]) -> dict:
    """Convert a trace to the Chrome ``trace_event`` JSON object format.

    Threads: one per micro-engine (named after it), plus ``bufferpool``,
    ``osp``, and ``kernel`` threads for the non-packet event families.
    Packet dispatch..complete pairs become complete ("X") slices; every
    other event an instant ("i") marker.
    """
    tids: Dict[str, int] = {}

    def tid_for(name: str) -> int:
        if name not in tids:
            tids[name] = len(tids) + 1
        return tids[name]

    out: List[dict] = []
    open_slices: Dict[str, Dict[str, Any]] = {}

    def instant(name: str, thread: str, ts: float, args: dict) -> None:
        out.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": ts * _US,
                "pid": 1,
                "tid": tid_for(thread),
                "args": args,
            }
        )

    for event in events:
        etype = event["type"]
        ts = event["ts"]
        if etype == "packet.dispatch":
            open_slices[event["packet"]] = event
            continue
        if etype == "packet.complete":
            start = open_slices.pop(event["packet"], None)
            begin = start["ts"] if start is not None else ts
            out.append(
                {
                    "name": f"{event['packet']}:{event['op']}",
                    "cat": "packet",
                    "ph": "X",
                    "ts": begin * _US,
                    "dur": (ts - begin) * _US,
                    "pid": 1,
                    "tid": tid_for(event["engine"]),
                    "args": {"query": event["query"]},
                }
            )
            continue
        if etype.startswith("packet."):
            args = {
                k: v for k, v in event.items() if k not in ("ts", "type")
            }
            instant(etype, event["engine"], ts, args)
        elif etype.startswith("pool."):
            instant(etype, "bufferpool", ts,
                    {"file": event["file"], "block": event["block"]})
        elif etype.startswith("osp."):
            args = {
                k: v for k, v in event.items() if k not in ("ts", "type")
            }
            instant(etype, "osp", ts, args)
        else:
            args = {
                k: v for k, v in event.items() if k not in ("ts", "type")
            }
            instant(etype, "kernel", ts, args)

    # Packets still running when the trace ended: emit zero-length slices.
    for start in open_slices.values():
        out.append(
            {
                "name": f"{start['packet']}:{start['op']}",
                "cat": "packet",
                "ph": "X",
                "ts": start["ts"] * _US,
                "dur": 0,
                "pid": 1,
                "tid": tid_for(start["engine"]),
                "args": {"query": start["query"], "unfinished": True},
            }
        )

    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "qpipe"},
        }
    ]
    for thread, tid in tids.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome(events: Iterable[Dict[str, Any]], path) -> None:
    """Write the Chrome trace_event rendering of *events* to *path*."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(events), handle, sort_keys=True)
