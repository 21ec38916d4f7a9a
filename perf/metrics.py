"""The metric tables: every name the ledger reports, with its unit,
direction, clock, bound and whether it must repeat bit-for-bit.

This module is the one source: ``BENCHMARK.json`` is generated from it
(``python3 -m perf --write-benchmark``) and a self-test keeps the file in
step.  Definitions are in ``perf/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import LAYERS

__all__ = ["Metric", "END_TO_END", "BOUNDED", "PER_LAYER", "VIRT_CATEGORIES", "STEPS",
           "layer_of_metric", "MOVES"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower" | "equal"
    #: "host" (noisy, bounded), "virtual" (deterministic simulated time)
    #: or "count" (deterministic integer-derived).
    clock: str
    #: Must be identical across runs of the same code at the same seed.
    exact: bool = False
    #: Host end-to-end metrics only: the share of the earlier value by
    #: which the metric may worsen before it counts as a regression.
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", "host", bound=0.25),
    Metric("ops_per_s", "ops/s", "higher", "host", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host", bound=0.10),
    Metric("virtual_us", "virt_us", "equal", "virtual", exact=True),
    Metric("fail_ratio", "ratio", "lower", "count", exact=True),  # must be 0
)
#: The end-to-end metrics ``BENCHMARK.json`` can carry: its contract
#: refuses a bounded metric that is 0 or reads the same on every run, so
#: the two exact ones are compared by this ledger only.
BOUNDED = tuple(m for m in END_TO_END if m.bound is not None)

#: §VII-D progress-loop steps and the causal blocked-time categories.
STEPS = tuple(range(1, 8))
VIRT_CATEGORIES = ("retransmit", "flow_control", "fabric", "issue", "lock_wait",
                   "grant_wait", "drain")

#: Layer -> the end-to-end metric its metrics should move, and where.
MOVES = {
    "simtime": "ops_per_s; most on p2p_ring and fanin_1024, least on txn_deferred",
    "network": "ops_per_s; peak_rss_mb and setup_s on fanin_1024 (lazy pools); virtual_us "
               "only if the model changes",
    "mpi": "ops_per_s; most on p2p_ring",
    "rma.engine": "ops_per_s; most on txn_deferred and kv_openloop, control txn_blocking, "
                  "bypass p2p_ring",
    "rma": "ops_per_s; most on txn_deferred, none on p2p_ring",
    "coll": "ops_per_s on kv_openloop",
    "apps": "virtual_us on the metric's own workload",
    "obs": "obs.self_share moves ops_per_s everywhere; the overhead ratios move no "
           "end-to-end metric",
    "faults": "none (must be 0)",
    "other": "ops_per_s",
    "virt": "virtual_us on the five RMA workloads",
}


def layer_of_metric(name: str) -> str:
    """The layer a per-layer metric reports on (key of :data:`MOVES`)."""
    prefix = name.rsplit(".", 1)[0]
    return {"total": "other", "trace": "obs"}.get(prefix, prefix)


def _per_layer() -> tuple[Metric, ...]:
    def count(name, unit="count", better="lower"):
        return Metric(name, unit, better, "count", exact=True)

    def host(name, unit="ratio", better="lower"):
        return Metric(name, unit, better, "host")

    def virtual(name, unit="ratio"):
        return Metric(name, unit, "lower", "virtual", exact=True)

    out = []
    for layer in LAYERS:
        out += [host(f"{layer}.self_share"), count(f"{layer}.calls_per_event", "calls/event")]
    out += [
        count("total.calls_per_event", "calls/event"),
        count("simtime.events"),
        host("simtime.host_us_per_event", "us/event"),
        host("simtime.events_per_s", "1/s", "higher"),
        count("network.messages"),
        count("network.bytes", "B"),
        count("network.fc_stalls"),
        count("network.regcache_hit_rate", "ratio", "higher"),
        count("rma.engine.sweeps"),
        count("rma.engine.windows_visited"),
        count("rma.engine.sweeps_per_event", "sweeps/event"),
        count("rma.lock_grants"),
        count("rma.live_epochs_end"),  # must be 0
    ]
    out += [count(f"rma.engine.step{n}_work") for n in STEPS]
    out += [host(f"rma.engine.step{n}_wall_share") for n in STEPS]
    out += [
        virtual("apps.kv_lat_mean_us", "virt_us"),
        virtual("apps.kv_lat_p99_us", "virt_us"),
        virtual("apps.lu_comm_fraction"),
        # ``virtual_us`` again, so that BENCHMARK.json's traced run sees it.
        virtual("virt.makespan_us", "virt_us"),
    ]
    out += [virtual(f"virt.{cat}_share") for cat in VIRT_CATEGORIES]
    # Traced reps only: these move no end-to-end metric by construction.
    out += [host("obs.metrics_overhead"), host("obs.causal_overhead"),
            host("trace.profile_overhead")]
    return tuple(out)


PER_LAYER = _per_layer()
