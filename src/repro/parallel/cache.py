"""Content-addressed on-disk cache for cell results.

Key: SHA-256 of the cell's canonical fingerprint (figure, function,
scale, seeds, grid coordinates) plus the *relevant-source digest* -- a
hash of every source file the cell function's module transitively
imports, computed from a static import graph
(:mod:`repro.parallel.digest`).  Editing any reachable engine file busts
every dependent cell; editing docs, tests, or unreachable subsystems
leaves the cache warm.

Values are JSON documents under ``.repro-cache/<aa>/<hash>.json`` (the
two-character fan-out keeps directories small).  Payloads must therefore
be JSON-serialisable -- which cell payloads already are, because the
figure merge step renders them to text.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, Optional, Tuple

from repro.parallel.cells import CellSpec, fingerprint, spec_hash
from repro.parallel.digest import source_digest

#: Bump when the document layout changes incompatibly; part of the key
#: path so old entries are simply never found.
CACHE_VERSION = 1

DEFAULT_DIR = ".repro-cache"


def default_src_root() -> str:
    """The ``src/`` directory the installed ``repro`` package lives in."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class CellCache:
    """Get/put cell payloads by content address.

    ``source_digests`` may pre-seed the per-module digest table (tests
    inject synthetic digests to exercise invalidation without editing
    real sources); missing entries are computed on demand from the
    import graph of the cell function's module.
    """

    def __init__(
        self,
        directory: str = DEFAULT_DIR,
        src_root: Optional[str] = None,
        source_digests: Optional[Dict[str, str]] = None,
    ):
        self.directory = directory
        self.src_root = src_root or default_src_root()
        self._digests: Dict[str, str] = dict(source_digests or {})
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- keying ---------------------------------------------------------
    def digest_for(self, spec: CellSpec) -> str:
        """The relevant-source digest of *spec*'s cell function module."""
        module = spec.fn.partition(":")[0]
        cached = self._digests.get(module)
        if cached is None:
            cached = source_digest(module, self.src_root)
            self._digests[module] = cached
        return cached

    def key(self, spec: CellSpec) -> str:
        return spec_hash(spec, self.digest_for(spec))

    def path(self, spec: CellSpec) -> str:
        key = self.key(spec)
        return os.path.join(
            self.directory, f"v{CACHE_VERSION}", key[:2], f"{key}.json"
        )

    # -- get / put ------------------------------------------------------
    def get(self, spec: CellSpec) -> Tuple[bool, Any]:
        """``(hit, payload)``; a corrupt or unreadable entry is a miss."""
        path = self.path(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, doc["payload"]

    def put(self, spec: CellSpec, payload: Any) -> str:
        """Store *payload*; returns the entry path.  Atomic via rename
        so a killed run never leaves a truncated entry behind."""
        path = self.path(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "version": CACHE_VERSION,
            "spec": fingerprint(spec),
            "sources": self.digest_for(spec),
            "payload": payload,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
        self.puts += 1
        return path

    # -- maintenance ----------------------------------------------------
    def clear(self) -> None:
        """Delete the whole cache directory (``--cache-clear``)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}
