"""Human-readable rendering of a run's metrics summary.

Fixed-width tables: the 7-step progress profile, the per-kind
epoch-latency breakdown (queued→activated deferral cost and
activated→completed), and the counter listing.  All consume the plain-dict summary produced by
:meth:`MPIRuntime.metrics_summary`, so they also work on summaries
loaded back from JSON.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import quantile_from_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = [
    "format_step_profile",
    "format_epoch_profile",
    "format_counters",
    "format_signal_boards",
    "format_obs_report",
]


def format_step_profile(summary: dict) -> str:
    """Render the 7-step progress-engine profile."""
    profile = summary.get("profile")
    if not profile:
        return "7-step profile: not collected (runtime built without metrics=True)"
    lines = [
        f"== 7-step progress profile ({profile['sweeps']} sweeps) ==",
        f"{'step':<36}{'invocations':>13}{'work':>10}{'wall ms':>10}",
    ]
    lines.append("-" * len(lines[-1]))
    for num in sorted(profile["steps"], key=int):
        st = profile["steps"][num]
        lines.append(
            f"{num:>2}  {st['name']:<32}{st['invocations']:>13d}{st['work']:>10d}"
            f"{st['wall_ms']:>10.2f}"
        )
    return "\n".join(lines)


def format_epoch_profile(summary: dict) -> str:
    """Render per-kind epoch lifecycle latencies (defer / active)."""
    hists = summary.get("histograms", {})
    rows = []
    for name in sorted(hists):
        if not name.startswith("epoch.") or not name.endswith(("defer_us", "active_us")):
            continue
        _, kind, phase = name.split(".")
        snap = hists[name]
        rows.append((kind, phase.removesuffix("_us"), snap))
    if not rows:
        return "epoch latency: no epochs completed (or metrics disabled)"
    lines = [
        "== epoch lifecycle latency (µs) ==",
        f"{'kind':<16}{'phase':<8}{'count':>7}{'mean':>10}{'p50':>10}{'p99':>10}{'max':>10}",
    ]
    lines.append("-" * len(lines[-1]))
    for kind, phase, snap in rows:
        lines.append(
            f"{kind:<16}{phase:<8}{snap['count']:>7d}{snap['mean']:>10.2f}"
            f"{quantile_from_snapshot(snap, 0.5):>10.2f}"
            f"{quantile_from_snapshot(snap, 0.99):>10.2f}{snap['max']:>10.2f}"
        )
    return "\n".join(lines)


def format_counters(summary: dict, prefix: str = "") -> str:
    """Render the counter section (optionally filtered by ``prefix``)."""
    counters = {
        n: v for n, v in summary.get("counters", {}).items() if n.startswith(prefix)
    }
    if not counters:
        return f"counters: none{f' under {prefix!r}' if prefix else ''}"
    width = max(len(n) for n in counters) + 2
    lines = ["== counters =="]
    lines += [f"{n:<{width}}{v:>12d}" for n, v in counters.items()]
    return "\n".join(lines)


def format_signal_boards(summary: dict) -> str:
    """Render the counter-signal engine's per-window
    :class:`~repro.rma.notify.SignalBoard` state (nonzero counters
    only; empty string for the other engines, which have no boards)."""
    boards = summary.get("signal_board")
    if not boards:
        return ""
    lines = ["== signal boards (final counter state) =="]
    for where in sorted(boards):
        lines.append(where)
        for channel in sorted(boards[where]):
            for direction in sorted(boards[where][channel]):
                cells = boards[where][channel][direction]
                body = "  ".join(f"{peer}:{cells[peer]}" for peer in sorted(cells, key=int))
                lines.append(f"  {channel:<12}{direction:<5}{body}")
    return "\n".join(lines)


def format_obs_report(runtime: "MPIRuntime") -> str:
    """The full ``python -m repro.obs`` report for one finished run."""
    summary = runtime.metrics_summary()
    if summary is None:
        return "no metrics collected: build the runtime with MPIRuntime(..., metrics=True)"
    sections = [
        f"virtual time: {summary['virtual_time_us']:.2f} µs",
        format_step_profile(summary),
        format_epoch_profile(summary),
        format_counters(summary),
    ]
    boards = format_signal_boards(summary)
    if boards:
        sections.append(boards)
    return "\n\n".join(sections)
