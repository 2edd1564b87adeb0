"""Experiment scale presets and system builders.

The harness calibrates the simulated disk so that one LINEITEM scan
takes roughly the same ~110 virtual seconds it takes in the paper's
testbed, independent of the data scale factor.  That keeps the paper's
literal axes (interarrival 0-100 s, think time 0-240 s) meaningful at
every scale.

Three systems (section 5's legend):

* ``qpipe``   -- QPipe w/OSP over an LRU pool.
* ``baseline`` -- the same engine with OSP disabled ("the BerkeleyDB-based
  QPipe implementation with OSP disabled").
* ``dbmsx``   -- the conventional iterator engine over an ARC pool (the
  commercial system whose "buffer pool manager achieves better sharing").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.storage.manager import StorageManager
from repro.workloads.tpch import TpchScale, load_tpch
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin


@dataclass(frozen=True)
class Scale:
    """All experiment knobs in one place."""

    name: str = "default"
    #: TPC-H dbgen scale multiplier (1.0 -> ~60k lineitem rows).
    tpch_factor: float = 0.25
    #: Wisconsin BIG table rows.
    wisconsin_big_rows: int = 4_000
    #: Buffer pool frames.  Paper regime: 2 GB RAM vs a ~3 GB LINEITEM,
    #: with an effective scan window well under 20%% of the table (the
    #: Figure 8 Baseline loses all sharing past 20 s of a ~110 s scan).
    buffer_pages: int = 32
    #: Target seconds for one undisturbed LINEITEM scan (disk calibration).
    lineitem_scan_seconds: float = 110.0
    #: seek = seek_factor * transfer (concurrent-scan thrash severity).
    #: Kept modest: real engines amortise stream switches with multi-page
    #: prefetch, and the paper's 4-disk RAID-0 absorbs concurrent streams.
    seek_factor: float = 0.2
    cores: int = 2
    work_mem_tuples: int = 50_000
    replay_tuples: int = 2048
    buffer_tuples: int = 4096
    seed: int = 20050614
    #: Queries each client submits in throughput experiments.
    queries_per_client: int = 2
    #: Ramp-up delay between client starts in throughput experiments
    #: (clients connect over a few seconds, not in an atomic barrier).
    client_stagger: float = 7.0
    #: Sharded deployments: network link bandwidth (bytes/s) and one-way
    #: latency (s).  The defaults model GbE-class links -- orders of
    #: magnitude faster than the deliberately slow paper-era disks, so
    #: scan scale-out is disk-bound, but every exchanged byte is still
    #: queued and charged through the NIC model.
    net_bandwidth: float = 125_000_000.0
    net_latency: float = 0.0005


#: Tiny preset for unit tests and pytest-benchmark runs.
SMOKE = Scale(
    name="smoke",
    tpch_factor=0.08,
    wisconsin_big_rows=1_500,
    buffer_pages=32,  # ~half of LINEITEM: X's ARC window can work
    lineitem_scan_seconds=100.0,
    queries_per_client=1,
)

#: The scale EXPERIMENTS.md numbers are recorded at.
DEFAULT = Scale(name="default")


# ---------------------------------------------------------------------------
# Experiment RNG seeds.  Every random.Random() in the harness is seeded
# from one of these so the recorded figures replay bit-identically; the
# values themselves are arbitrary but load-bearing -- changing one
# changes every figure drawn from it.
# ---------------------------------------------------------------------------
#: Single-query experiments (figure 1a and friends): the one parameter
#: draw behind a standalone plan.
FIG_QUERY_SEED = 1

#: Shared-parameter experiments (q4 merge/hash pairs): both plans in a
#: pair must draw *identical* parameters or OSP has nothing to share.
SHARED_PARAM_SEED = 5

#: Per-client parameter streams in throughput experiments: client ``i``
#: uses ``CLIENT_SEED_BASE + i``.
CLIENT_SEED_BASE = 100

#: Per-query streams in the chaos/mixed workload: query ``i`` uses
#: ``CHAOS_QUERY_SEED_BASE + i``.
CHAOS_QUERY_SEED_BASE = 1000

#: The fold experiment's workload draw (aggregate flavours in the
#: similar-query cohort).
FOLD_QUERY_SEED = 11


def with_overrides(scale: Scale, **kwargs) -> Scale:
    return replace(scale, **kwargs)


# ---------------------------------------------------------------------------
# Tracing registry (the harness --trace flag)
# ---------------------------------------------------------------------------
#: When enabled, every host built by the system builders gets a
#: :class:`repro.obs.Tracer` attached to its simulator, registered here
#: so the caller can export the traces after the experiment.
_TRACING: Dict[str, object] = {"enabled": False, "tracers": []}


def enable_tracing() -> None:
    """Attach a Tracer to every subsequently built host (resets the
    collected list)."""
    _TRACING["enabled"] = True
    _TRACING["tracers"] = []


def disable_tracing() -> None:
    _TRACING["enabled"] = False
    _TRACING["tracers"] = []


def collected_tracers() -> List[object]:
    """Tracers attached since :func:`enable_tracing`, in creation order."""
    return list(_TRACING["tracers"])  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# System builders
# ---------------------------------------------------------------------------
def _host_for_pages(scale: Scale, calibration_pages: int) -> Host:
    """A host whose disk reads *calibration_pages* sequential blocks in
    ``scale.lineitem_scan_seconds`` virtual seconds."""
    transfer = scale.lineitem_scan_seconds / max(1, calibration_pages)
    config = HostConfig(
        cores=scale.cores,
        disk_transfer_time=transfer,
        disk_seek_time=transfer * scale.seek_factor,
    )
    host = Host(config)
    if _TRACING["enabled"]:
        from repro.obs import Tracer

        _TRACING["tracers"].append(Tracer(host.sim))  # type: ignore[union-attr]
    return host


def _estimate_lineitem_pages(scale: Scale) -> int:
    from repro.storage.page import rows_per_page
    from repro.workloads.tpch.schema import LINEITEM

    rows = int(15_000 * scale.tpch_factor) * 4  # ~4 lineitems per order
    return max(1, rows // rows_per_page(LINEITEM.row_width))


def build_tpch_system(
    scale: Scale, system: str, seed_offset: int = 0,
    backend: str = "packets",
) -> Tuple[Host, StorageManager, object]:
    """A loaded TPC-H database plus the requested engine.

    ``backend`` is kept for one caller, the ``mix_pushed`` workload of
    the ``perf`` benchmark, which passes ``backend="pushed"`` with
    ``system="dbmsx"``.  That builds the same engine as
    ``backend="packets"``: the iterator engine always fuses its
    streaming runs now.  Every other ``"pushed"`` combination is refused
    rather than quietly meaning another server.
    """
    if backend != "packets" and (backend, system) != ("pushed", "dbmsx"):
        raise ValueError(
            f"backend {backend!r} with system {system!r}: want "
            "backend='packets', or 'pushed' only with system='dbmsx'"
        )
    host = _host_for_pages(scale, _estimate_lineitem_pages(scale))
    policy = "arc" if system == "dbmsx" else "lru"
    sm = StorageManager(
        host,
        buffer_pages=scale.buffer_pages,
        policy=policy,
        # Both pools confine scans to a ring; X's ring is *visible* to
        # other scans (commercial shared-scan-window behaviour), which is
        # the timing-sensitive extra sharing the paper credits X with.
        scan_window_shared=(system == "dbmsx"),
        scan_ring_fraction=0.375 if system == "dbmsx" else 0.125,
    )
    load_tpch(sm, TpchScale(scale.tpch_factor), seed=scale.seed + seed_offset)
    engine = make_engine(sm, scale, system)
    return host, sm, engine


def build_wisconsin_system(
    scale: Scale, system: str
) -> Tuple[Host, StorageManager, object]:
    """A loaded Wisconsin database plus the requested engine.

    The disk is calibrated so a BIG table scan takes ~40 s, putting the
    Figure 10 query in the paper's ~140 s regime.
    """
    from repro.storage.page import rows_per_page
    from repro.workloads.wisconsin.gen import WISCONSIN_SCHEMA

    big_pages = max(
        1, scale.wisconsin_big_rows // rows_per_page(WISCONSIN_SCHEMA.row_width)
    )
    host = _host_for_pages(
        with_overrides(scale, lineitem_scan_seconds=40.0), big_pages
    )
    policy = "arc" if system == "dbmsx" else "lru"
    sm = StorageManager(
        host,
        buffer_pages=scale.buffer_pages,
        policy=policy,
        scan_window_shared=(system == "dbmsx"),
        scan_ring_fraction=0.375 if system == "dbmsx" else 0.125,
    )
    load_wisconsin(sm, WisconsinScale(big_rows=scale.wisconsin_big_rows),
                   seed=scale.seed)
    engine = make_engine(sm, scale, system)
    return host, sm, engine


def build_sharded_wisconsin_system(
    scale: Scale,
    hosts: int,
    system: str = "qpipe",
    prefer_shuffle: bool = True,
):
    """An N-host sharded Wisconsin deployment plus its executor.

    BIG1 and BIG2 range-partition across the hosts (contiguous slices of
    the loaded row order -- the byte-identity-preserving scheme); SMALL
    replicates everywhere.  Every host gets the same disk calibration as
    the single-host Wisconsin builder (a *full* BIG scan takes ~40 s),
    so an N-way partitioned scan takes ~40/N s per shard and the figure
    measures genuine scale-out, not recalibrated disks.

    Returns ``(cluster, sharded_system, executor)``; with ``hosts=1``
    the partition metadata marks every table unpartitioned and the
    executor runs everything locally -- the single-host baseline.
    """
    from repro.hw.host import Cluster, ClusterConfig
    from repro.hw.net import NetConfig
    from repro.shard import ShardedExecutor, ShardedSystem
    from repro.storage.page import rows_per_page
    from repro.workloads.wisconsin.gen import (
        WISCONSIN_SCHEMA,
        WisconsinScale,
        generate_wisconsin,
    )

    big_pages = max(
        1, scale.wisconsin_big_rows // rows_per_page(WISCONSIN_SCHEMA.row_width)
    )
    transfer = 40.0 / big_pages
    cluster = Cluster(
        ClusterConfig(
            hosts=hosts,
            host=HostConfig(
                cores=scale.cores,
                disk_transfer_time=transfer,
                disk_seek_time=transfer * scale.seek_factor,
            ),
            net=NetConfig(
                latency=scale.net_latency, bandwidth=scale.net_bandwidth
            ),
        )
    )
    if _TRACING["enabled"]:
        from repro.obs import Tracer

        _TRACING["tracers"].append(Tracer(cluster.sim))  # type: ignore[union-attr]

    def make_sm(host: Host) -> StorageManager:
        return StorageManager(
            host,
            buffer_pages=scale.buffer_pages,
            policy="arc" if system == "dbmsx" else "lru",
            scan_window_shared=(system == "dbmsx"),
            scan_ring_fraction=0.375 if system == "dbmsx" else 0.125,
        )

    sharded = ShardedSystem(
        cluster,
        make_sm,
        lambda sm: make_engine(sm, scale, system),
    )
    tables = generate_wisconsin(
        WisconsinScale(big_rows=scale.wisconsin_big_rows), seed=scale.seed
    )
    sharded.create_table("big1", WISCONSIN_SCHEMA, tables["big1"])
    sharded.create_table("big2", WISCONSIN_SCHEMA, tables["big2"])
    sharded.create_replicated_table("small", WISCONSIN_SCHEMA, tables["small"])
    return cluster, sharded, ShardedExecutor(
        sharded, prefer_shuffle=prefer_shuffle
    )


def make_engine(sm: StorageManager, scale: Scale, system: str):
    """The engine object for a system name (see module docstring)."""
    if system == "dbmsx":
        return IteratorEngine(
            sm, work_mem_tuples=scale.work_mem_tuples, name="dbms-x"
        )
    if system in ("qpipe", "baseline"):
        return QPipeEngine(
            sm,
            QPipeConfig(
                osp_enabled=(system == "qpipe"),
                work_mem_tuples=scale.work_mem_tuples,
                replay_tuples=scale.replay_tuples,
                buffer_tuples=scale.buffer_tuples,
                name=system,
            ),
        )
    raise ValueError(f"unknown system {system!r}; want qpipe|baseline|dbmsx")
