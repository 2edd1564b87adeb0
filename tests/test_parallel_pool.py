"""PoolRunner failure handling, scripted through fake executors.

The fakes complete futures eagerly (a cell "runs" at submit time), which
is enough to drive every branch of the runner's pool path: retries,
permanent CellError, broken-pool recovery with marker-based crash
attribution, and Ctrl-C teardown.
"""

import os
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.harness.config import SMOKE
from repro.parallel import CellCache, CellError, PoolRunner
from repro.parallel.cells import CellSpec, cell, coords, fn_key


@cell
def ok_cell(spec):
    return spec.coord["x"] + 1


@cell
def boom_cell(spec):
    raise ValueError("boom")


@cell
def flaky_cell(spec):
    """Fails on the first attempt, succeeds on the second (the flag file
    carries 'already tried once' across attempts)."""
    flag = spec.coord["flag"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError("first attempt fails")
    return "recovered"


def ok_spec(x=1):
    return CellSpec("figT", fn_key(ok_cell), SMOKE, coords(x=x))


def boom_spec():
    return CellSpec("figT", fn_key(boom_cell), SMOKE, coords(x=0))


def flaky_spec(tmp_path):
    flag = str(tmp_path / "attempted.flag")
    return CellSpec("figT", fn_key(flaky_cell), SMOKE, coords(flag=flag))


# ---------------------------------------------------------------------------
# Fake executor machinery
# ---------------------------------------------------------------------------
class FakeProc:
    def __init__(self):
        self.terminated = False

    def terminate(self):
        self.terminated = True


class FakeExecutor:
    """Executor double: runs the submitted callable at submit() time.

    ``behavior(fn, args)`` computes the future's outcome; the default
    simply calls through (so the real ``_worker`` body runs in-process).
    """

    def __init__(self, behavior=None):
        self.behavior = behavior or (lambda fn, args: fn(*args))
        self.submitted = []
        self.shutdown_calls = []
        self._processes = {0: FakeProc()}

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()
        try:
            result = self.behavior(fn, args)
        except BaseException as exc:  # includes KeyboardInterrupt
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append((wait, cancel_futures))

    @property
    def terminated(self):
        return self._processes[0].terminated


class Factory:
    """Counts executors handed to the runner; scripts each generation."""

    def __init__(self, *behaviors):
        self.behaviors = list(behaviors)
        self.executors = []

    def __call__(self, jobs):
        behavior = (
            self.behaviors.pop(0) if self.behaviors else None
        )
        executor = FakeExecutor(behavior)
        self.executors.append(executor)
        return executor


# ---------------------------------------------------------------------------
# Serial path (jobs=1): retry budget and typed failure
# ---------------------------------------------------------------------------
def test_serial_retry_recovers(tmp_path):
    runner = PoolRunner(jobs=1)
    spec = flaky_spec(tmp_path)
    results = runner.run([spec])
    assert results[spec].payload == "recovered"
    assert results[spec].attempts == 2
    assert runner.stats.retries == 1


def test_serial_permanent_failure_names_the_cell():
    runner = PoolRunner(jobs=1, retries=1)
    with pytest.raises(CellError) as err:
        runner.run([boom_spec()])
    assert err.value.attempts == 2
    assert isinstance(err.value.cause, ValueError)
    assert "figT" in str(err.value) and "x=0" in str(err.value)


# ---------------------------------------------------------------------------
# Pool path: basics
# ---------------------------------------------------------------------------
def test_pool_runs_and_dedupes():
    factory = Factory()
    with PoolRunner(jobs=2, executor_factory=factory) as runner:
        a, b = ok_spec(1), ok_spec(2)
        results = runner.run([a, a, b])
    assert results[a].payload == 2 and results[b].payload == 3
    assert runner.stats.total == 2 and runner.stats.executed == 2
    assert len(factory.executors[0].submitted) == 2


def test_pool_retry_recovers(tmp_path):
    factory = Factory()
    with PoolRunner(jobs=2, executor_factory=factory) as runner:
        spec = flaky_spec(tmp_path)
        results = runner.run([spec])
    assert results[spec].payload == "recovered"
    assert results[spec].attempts == 2
    assert runner.stats.retries == 1


def test_pool_permanent_failure_raises_cell_error():
    factory = Factory()
    with PoolRunner(jobs=2, executor_factory=factory, retries=1) as runner:
        with pytest.raises(CellError) as err:
            runner.run([boom_spec()])
    assert err.value.attempts == 2
    assert err.value.spec == boom_spec()


# ---------------------------------------------------------------------------
# Pool path: worker crash (broken pool) with marker attribution
# ---------------------------------------------------------------------------
def _breaking_behavior(guilty_slug):
    """First-generation pool: the guilty cell's worker touches its
    marker and dies, breaking the pool -- every future fails."""

    def behavior(fn, args):
        spec, _trace, marker = args
        if spec.slug() == guilty_slug:
            with open(marker, "w"):
                pass
        raise BrokenExecutor("process pool is broken")

    return behavior


def test_broken_pool_charges_only_the_marked_cell():
    guilty, innocent = ok_spec(7), ok_spec(8)
    factory = Factory(_breaking_behavior(guilty.slug()))
    with PoolRunner(jobs=2, executor_factory=factory) as runner:
        results = runner.run([guilty, innocent])
    # Both cells completed on the rebuilt pool.
    assert results[guilty].payload == 8
    assert results[innocent].payload == 9
    # Only the marked (actually running) cell spent retry budget.
    assert results[guilty].attempts == 2
    assert results[innocent].attempts == 1
    assert runner.stats.retries == 1
    # The broken executor was replaced and its processes terminated.
    assert len(factory.executors) == 2
    assert factory.executors[0].terminated
    assert factory.executors[0].shutdown_calls == [(False, True)]


def test_broken_pool_exhausts_budget_into_cell_error():
    guilty = ok_spec(7)
    factory = Factory(
        _breaking_behavior(guilty.slug()),
        _breaking_behavior(guilty.slug()),
    )
    with PoolRunner(jobs=2, executor_factory=factory, retries=1) as runner:
        with pytest.raises(CellError) as err:
            runner.run([guilty])
    assert err.value.spec == guilty
    assert err.value.cause is None
    assert "worker died" in str(err.value)


# ---------------------------------------------------------------------------
# Pool path: Ctrl-C
# ---------------------------------------------------------------------------
def test_keyboard_interrupt_tears_the_pool_down():
    def interrupting(fn, args):
        spec, _trace, _marker = args
        if spec.coord["x"] == 13:
            raise KeyboardInterrupt()
        return fn(*args)

    factory = Factory(interrupting)
    runner = PoolRunner(jobs=2, executor_factory=factory)
    with pytest.raises(KeyboardInterrupt):
        runner.run([ok_spec(13), ok_spec(1), ok_spec(2)])
    executor = factory.executors[0]
    # The pool was shut down without waiting, futures cancelled, and the
    # worker processes terminated -- Ctrl-C must not drain in-flight work.
    assert executor.shutdown_calls == [(False, True)]
    assert executor.terminated
    runner.close()


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------
def _cache(tmp_path):
    return CellCache(
        str(tmp_path / "cache"),
        src_root=str(tmp_path),
        source_digests={ok_cell.__module__: "synthetic"},
    )


def test_runner_consults_and_fills_the_cache(tmp_path):
    specs = [ok_spec(1), ok_spec(2)]
    with PoolRunner(jobs=1, cache=_cache(tmp_path)) as runner:
        first = runner.run(specs)
    assert runner.stats.cache_hits == 0 and runner.stats.executed == 2
    with PoolRunner(jobs=1, cache=_cache(tmp_path)) as warm:
        second = warm.run(specs)
    assert warm.stats.cache_hits == 2 and warm.stats.executed == 0
    assert warm.stats.hit_rate == 1.0
    for spec in specs:
        assert second[spec].cached
        assert second[spec].payload == first[spec].payload


def test_tracing_bypasses_cache_reads(tmp_path):
    spec = ok_spec(1)
    with PoolRunner(jobs=1, cache=_cache(tmp_path)) as runner:
        runner.run([spec])
    with PoolRunner(jobs=1, cache=_cache(tmp_path), trace=True) as traced:
        results = traced.run([spec])
    assert traced.stats.cache_hits == 0 and traced.stats.executed == 1
    assert not results[spec].cached
    assert results[spec].traces == []  # no simulated hosts in ok_cell


# ---------------------------------------------------------------------------
# Worker-count clamping (the pooled-fig12-on-one-core regression)
# ---------------------------------------------------------------------------
def test_jobs_clamped_to_cpu_count(monkeypatch):
    """Real pools never run more workers than cores: on a 1-core
    machine ``--jobs 4`` must behave like ``--jobs 1`` (serial
    in-process) instead of paying four spawn startups for strictly
    serial execution."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    runner = PoolRunner(jobs=4)
    assert runner.jobs == 1
    # jobs == 1 takes the serial in-process path: verify it end to end.
    results = runner.run([ok_spec(5)])
    assert list(results.values())[0].payload == 6
    runner.close()


def test_jobs_zero_still_means_one_per_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 3)
    runner = PoolRunner(jobs=0)
    assert runner.jobs == 3
    runner.close()


def test_fake_executors_keep_the_requested_worker_count(monkeypatch):
    """Injected executor factories script crash scenarios at a given
    worker count; the machine's core count must not reroute them to the
    serial path."""
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
    factory = Factory()
    with PoolRunner(jobs=2, executor_factory=factory) as runner:
        results = runner.run([ok_spec(1), ok_spec(2)])
    assert runner.jobs == 2
    assert factory.executors  # the fake pool actually ran
    assert {r.payload for r in results.values()} == {2, 3}


def test_adaptive_width_bypasses_pool_for_fewer_cells(monkeypatch):
    """Effective width is min(requested, cpu_count, cell count): a
    one-cell run on a many-core machine must never build a process pool,
    and its payload must match the serial reference exactly."""
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 8)
    with PoolRunner(jobs=4) as runner:
        assert runner.jobs == 4  # the cpu clamp leaves 4-of-8 alone
        results = runner.run([ok_spec(7)])
        assert runner._executor is None  # no pool for a width-1 run
    with PoolRunner(jobs=1) as serial_runner:
        serial = serial_runner.run([ok_spec(7)])
    assert [r.payload for r in results.values()] == [
        r.payload for r in serial.values()
    ]


# ---------------------------------------------------------------------------
# One FIFO: a retry keeps its place while the other worker drains the queue
# ---------------------------------------------------------------------------
def test_pool_retries_while_the_queue_drains(tmp_path):
    """Run [flaky, ok, ok] two at a time: the flaky cell's retry takes
    the place its first attempt held, and the queue's last cell runs
    beside it."""
    flaky = flaky_spec(tmp_path)
    specs = [flaky, ok_spec(2), ok_spec(3)]
    factory = Factory()
    with PoolRunner(jobs=2, executor_factory=factory) as runner:
        results = runner.run(specs)
    assert results[flaky].payload == "recovered"
    assert results[ok_spec(2)].payload == 3
    assert results[ok_spec(3)].payload == 4
    assert runner.stats.retries == 1
    assert runner.stats.executed == 3


def test_pool_matches_serial_payloads(tmp_path):
    """Byte-identity across scheduling: an uneven bag run on the pool
    produces exactly the serial runner's payloads."""
    flaky = flaky_spec(tmp_path)
    specs = [flaky, ok_spec(10), ok_spec(11), ok_spec(12), ok_spec(13)]
    with PoolRunner(jobs=2, executor_factory=Factory()) as runner:
        pooled = runner.run(specs)
    serial_flag = str(tmp_path / "serial.flag")
    serial_specs = [
        CellSpec("figT", fn_key(flaky_cell), SMOKE, coords(flag=serial_flag))
    ] + specs[1:]
    with PoolRunner(jobs=1) as reference:
        serial = reference.run(serial_specs)
    assert [pooled[s].payload for s in specs] == [
        serial[s].payload for s in serial_specs
    ]
