"""PoolRunner: execute cells on a spawn-context process pool.

Determinism argument: a cell is a pure function of its frozen spec
(fresh seeded system per data point), so *where* and *in which order*
cells execute cannot change their payloads; the runner returns a
``{spec: result}`` mapping and the figure merge step re-orders by grid
coordinate, so ``--jobs N`` output is byte-identical to ``--jobs 1``.

Scheduling is work-stealing: cells are dealt round-robin onto one queue
per worker slot, each slot keeps exactly one cell in flight, and a slot
whose own queue drains *steals* from the tail of the longest remaining
queue (ties to the lowest slot index).  Cell runtimes are wildly uneven
-- a fig12 zero-interarrival cell simulates minutes of virtual time, an
overhead cell milliseconds -- so static dealing alone can leave a slot
idle behind a long queue while another still holds hours of work; the
steal path keeps every slot busy until the bag is empty without
affecting payloads (purity) or merged output (spec-order merges).

Failure handling reuses the :mod:`repro.faults` conventions: a worker
crash (the pool breaks) or an in-cell exception earns the cell one
retry; a second failure raises a typed
:class:`~repro.parallel.errors.CellError` naming the failing spec.
Crash *attribution* uses per-attempt scratch markers -- a worker touches
a marker before running its cell and removes it after -- because a
broken pool fails every outstanding future indiscriminately; only cells
whose marker is still on disk were actually running when the pool died,
so only those spend retry budget.

KeyboardInterrupt cancels every outstanding future, terminates the
worker processes, and re-raises -- ``python -m repro.harness`` must die
promptly on Ctrl-C instead of draining in-flight cells.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.parallel.cache import CellCache
from repro.parallel.cells import CellResult, CellSpec, execute_cell
from repro.parallel.errors import CellError


def _worker(spec: CellSpec, trace: bool, marker: Optional[str]) -> CellResult:
    """Top-level (picklable) worker entry: run one cell, bracketed by
    its crash-attribution marker."""
    if marker:
        with open(marker, "w"):
            pass
    result = execute_cell(spec, trace=trace)
    if marker:
        try:
            os.remove(marker)
        except OSError:
            pass
    return result


def steal_choice(queues, slot: int) -> Optional[int]:
    """Which queue slot *slot* should take its next cell from.

    Its own queue while non-empty; otherwise the longest other queue
    (ties to the lowest slot index) -- the steal; ``None`` when every
    queue is drained.  Own pulls take the queue head (FIFO, preserving
    deal order); steals take the tail, so a thief grabs the cell its
    victim would reach *last* and the two never contend for the same
    end of the deque.
    """
    if queues[slot]:
        return slot
    victim = max(range(len(queues)), key=lambda s: len(queues[s]))
    return victim if queues[victim] else None


def _spawn_executor(jobs: int) -> ProcessPoolExecutor:
    # spawn, not fork: workers must import the engine fresh so module
    # state (dbgen memos, tracer registries) never leaks between cells,
    # and the same start method runs on every platform.
    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


@dataclass
class PoolStats:
    """Aggregate counters over every ``run()`` of one runner."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    #: Cells an idle slot took from another slot's queue.
    steals: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


class PoolRunner:
    """Execute bags of cells, optionally cached and multi-process.

    Args:
        jobs: worker processes; ``1`` runs serially in-process (the
            reference path), ``<= 0`` means ``os.cpu_count()``.
        cache: optional :class:`CellCache` consulted before executing
            and updated after.  Tracing runs bypass cache *reads* (trace
            events are not cached) but still record fresh payloads.
        trace: run every cell with packet-lifecycle tracing enabled.
        retries: extra attempts a failing cell gets before CellError.
        executor_factory: ``f(jobs) -> Executor`` override (tests inject
            fakes to script crashes and interrupts).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[CellCache] = None,
        trace: bool = False,
        retries: int = 1,
        executor_factory: Optional[Callable[[int], Any]] = None,
    ):
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        if executor_factory is None:
            # Real process pools gain nothing from more workers than
            # cores; on a 1-core machine ``--jobs 4`` used to pay four
            # spawn-context interpreter startups for strictly serial
            # execution (a pooled fig12 sweep ran slower than serial).  Clamp
            # to the machine -- payloads are placement-independent, so
            # this only changes wall-clock.  Injected executor factories
            # are test fakes scripting crash scenarios: they need the
            # requested worker count verbatim, not the machine's.
            self.jobs = min(self.jobs, os.cpu_count() or 1)
        #: Real executors also adapt per run() to the cell count -- a
        #: sweep with fewer cells than workers never pays idle spawns,
        #: and an effective width of 1 bypasses the pool entirely so the
        #: parallel fabric can never lose to the serial path.
        self._adaptive = executor_factory is None
        self.cache = cache
        self.trace = trace
        self.retries = retries
        self._factory = executor_factory or _spawn_executor
        self._executor: Optional[Any] = None
        self._scratch: Optional[str] = None
        self.stats = PoolStats()

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "PoolRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._discard_executor(terminate=False)
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    def _ensure_executor(self) -> Any:
        if self._executor is None:
            self._executor = self._factory(self.jobs)
        return self._executor

    def _discard_executor(self, terminate: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        executor.shutdown(wait=False, cancel_futures=True)
        if terminate:
            for proc in getattr(executor, "_processes", {}).values():
                proc.terminate()

    def _marker_dir(self) -> str:
        if self._scratch is None:
            self._scratch = tempfile.mkdtemp(prefix="repro-cells-")
        return self._scratch

    # -- execution ------------------------------------------------------
    def run(self, specs: Iterable[CellSpec]) -> Dict[CellSpec, CellResult]:
        """Execute *specs* (deduplicated, any order); returns
        ``{spec: CellResult}`` covering every requested spec."""
        ordered = list(dict.fromkeys(specs))
        self.stats.total += len(ordered)
        results: Dict[CellSpec, CellResult] = {}
        pending: List[CellSpec] = []
        for spec in ordered:
            if self.cache is not None and not self.trace:
                hit, payload = self.cache.get(spec)
                if hit:
                    results[spec] = CellResult(spec, payload, cached=True)
                    self.stats.cache_hits += 1
                    continue
            pending.append(spec)
        if not pending:
            return results
        jobs = self.jobs
        if self._adaptive:
            # effective jobs = min(requested, cpu_count, cell count);
            # the cpu_count half was clamped in the constructor.
            jobs = min(jobs, len(pending))
        if jobs <= 1:
            self._run_serial(pending, results)
        else:
            self._run_pool(pending, results, jobs)
        return results

    def _store(self, result: CellResult, results: Dict) -> None:
        results[result.spec] = result
        self.stats.executed += 1
        if self.cache is not None:
            _ = self.cache.put(result.spec, result.payload)

    def _run_serial(self, pending: List[CellSpec], results: Dict) -> None:
        for spec in pending:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = execute_cell(spec, trace=self.trace)
                    break
                except Exception as exc:
                    if attempts > self.retries:
                        raise CellError(spec, attempts, exc) from exc
                    self.stats.retries += 1
            result.attempts = attempts
            self._store(result, results)

    def _run_pool(
        self, pending: List[CellSpec], results: Dict, slots: int
    ) -> None:
        attempts: Dict[CellSpec, int] = {spec: 0 for spec in pending}
        markers: Dict[CellSpec, str] = {}
        #: future -> (spec, slot); each slot keeps one cell in flight.
        outstanding: Dict[Any, Any] = {}
        #: Per-slot run queues, dealt round-robin in spec order.
        queues: List[deque] = [deque() for _ in range(slots)]
        for i, spec in enumerate(pending):
            queues[i % slots].append(spec)

        def submit(
            spec: CellSpec, slot: int, count_attempt: bool = True
        ) -> None:
            # Always submit through self._ensure_executor(): recovery
            # discards the broken pool, and the next submit must land on
            # the replacement, not a stale local.
            if count_attempt:
                attempts[spec] += 1
            marker = os.path.join(
                self._marker_dir(),
                f"{spec.slug()}.a{attempts[spec]}.running",
            )
            markers[spec] = marker
            future = self._ensure_executor().submit(
                _worker, spec, self.trace, marker
            )
            outstanding[future] = (spec, slot)

        def next_cell(slot: int) -> Optional[CellSpec]:
            source = steal_choice(queues, slot)
            if source is None:
                return None
            if source == slot:
                return queues[slot].popleft()
            self.stats.steals += 1
            return queues[source].pop()

        def refill(slot: int) -> None:
            spec = next_cell(slot)
            if spec is not None:
                submit(spec, slot)

        for slot in range(slots):
            refill(slot)
        try:
            while outstanding:
                done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                broken: List[Any] = []
                for future in done:
                    spec, slot = outstanding.pop(future)
                    try:
                        result = future.result()
                    except KeyboardInterrupt:
                        raise
                    except BrokenExecutor:
                        broken.append((spec, slot))
                    except Exception as exc:
                        if attempts[spec] > self.retries:
                            raise CellError(
                                spec, attempts[spec], exc
                            ) from exc
                        self.stats.retries += 1
                        submit(spec, slot)
                    else:
                        result.attempts = attempts[spec]
                        self._store(result, results)
                        refill(slot)
                if broken:
                    self._recover(
                        broken, outstanding, attempts, markers, submit
                    )
        except KeyboardInterrupt:
            self._interrupt(outstanding)
            raise

    def _recover(
        self,
        broken: List[Any],
        outstanding: Dict[Any, Any],
        attempts: Dict[CellSpec, int],
        markers: Dict[CellSpec, str],
        submit: Callable,
    ) -> None:
        """A worker died and took the pool with it.  Rebuild the pool,
        charge retry budget to the cells that were actually running
        (their markers are still on disk), and resubmit the rest free.

        Only in-flight ``(spec, slot)`` pairs are victims; the per-slot
        queues are untouched -- queued cells were never submitted, so
        they drain normally once their slots refill."""
        victims = broken + list(outstanding.values())
        outstanding.clear()
        self._discard_executor(terminate=True)
        suspects = [
            spec
            for spec, _slot in victims
            if os.path.exists(markers.get(spec, ""))
        ]
        for spec in suspects:
            if attempts[spec] > self.retries:
                raise CellError(spec, attempts[spec])
            os.remove(markers[spec])
            self.stats.retries += 1
        suspect_set = set(suspects)
        for spec, slot in victims:
            submit(spec, slot, count_attempt=spec in suspect_set)

    def _interrupt(self, outstanding: Dict[Any, CellSpec]) -> None:
        """Ctrl-C: cancel queued cells, kill running workers, bail."""
        for future in outstanding:
            future.cancel()
        outstanding.clear()
        self._discard_executor(terminate=True)
