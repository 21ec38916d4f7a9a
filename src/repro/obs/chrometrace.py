"""Chrome trace-event JSON export of a run's timeline + metrics.

One exporter over the :mod:`repro.obs.causal` span graph: every rank is
a "thread", and every completed record of the run lands on its track —

- epoch and op spans as async ``b``/``e`` events (reorder flags let
  several epochs of one rank be active at once, which strict ``B``/``E``
  stack nesting could not show);
- ``block`` spans (the rank inside a blocking synchronization call) as
  ``B``/``E`` duration events;
- message spans as one flow-event pair (``s`` at the source rank, ``f``
  at the destination), so Perfetto draws the causal arrows between rank
  tracks;
- every other record (grants, signals, activations, FIFO dones, stalls,
  retransmissions) as an instant ``i``, or as an async pair when it
  lasts;
- detected inefficiency-pattern instances (:mod:`repro.patterns`) as
  ``X`` complete events, which makes Late Complete / Late Unlock
  visually obvious.

With ``metrics=True`` it folds in the :mod:`repro.obs` metric samples:

- one ``C`` (counter) sample per summary counter at the run's final
  virtual time, so Perfetto shows end-of-run totals as counter tracks;
- the 7-step progress profile as per-step ``C`` samples (``work`` and
  ``invocations`` series);
- the full metrics summary (histograms included) under
  ``otherData.metrics`` for downstream tooling.

Every track is named: ``process_name`` for the job, per-rank
``thread_name``/``thread_sort_index`` metadata so rank order is stable
in the viewer regardless of event order.

The produced document loads in ``chrome://tracing`` and
https://ui.perfetto.dev (the JSON flavour of the trace-event format);
:func:`validate_chrome_trace` schema-checks it, and CI runs that check
on every push (jobs ``bench-smoke`` and ``obs-smoke``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from ..mpi.runtime import MPIRuntime
    from ..patterns.detect import PatternInstance
    from .causal import CausalRecorder

__all__ = ["export_chrome_trace", "write_chrome_trace_file", "validate_chrome_trace"]

#: Trace-event phases this exporter may produce.
_EMITTED_PHASES = frozenset("BEXibenMCsf")

#: Phases that require an ``id`` (async + flow events).
_ID_PHASES = frozenset("bensf")


def _timeline(recorder: "CausalRecorder") -> list[dict]:
    """The rank tracks: one or two events per completed span."""
    events: list[dict] = []
    for span in recorder.spans:
        t0, t1 = span.t0, span.t1
        if t1 is None:
            continue  # still open when the run stopped: nothing to end
        kind = span.kind
        base = {"pid": 0, "tid": span.rank, "ts": t0}
        if kind == "msg":
            meta = span.meta
            name = meta["ptype"]
            events.append({**base, "ph": "s", "cat": "msg", "name": name, "id": span.sid})
            events.append({**base, "ph": "f", "cat": "msg", "name": name, "id": span.sid,
                           "bp": "e", "tid": meta["dst"], "ts": t1})
            continue
        args = dict(span.meta or {}, win=span.win, epoch=span.epoch)
        if kind == "block":
            name = f"blocked:{span.meta['call']}"
            events.append({**base, "ph": "B", "cat": "sync", "name": name, "args": args})
            events.append({**base, "ph": "E", "cat": "sync", "name": name, "ts": t1})
        elif t1 == t0:
            events.append({**base, "ph": "i", "s": "t", "cat": "event", "name": kind,
                           "args": args})
        else:
            name = f"epoch#{span.epoch}" if kind == "epoch" else kind
            events.append({**base, "ph": "b", "cat": kind, "name": name, "id": span.sid,
                           "args": args})
            events.append({**base, "ph": "e", "cat": kind, "name": name, "id": span.sid,
                           "ts": t1})
    return events


def export_chrome_trace(
    runtime: "MPIRuntime", patterns: "list[PatternInstance] | None" = None
) -> dict:
    """Build the full trace document for one (finished) runtime.

    The rank tracks need the recorder (``causal=True`` or
    ``metrics=True``) and the counter tracks ``metrics=True``; with
    neither the document is valid but empty.
    ``patterns`` (from :func:`~repro.patterns.detect_patterns`) are
    overlaid as complete events.
    """
    events: list[dict] = [
        {
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": f"repro {runtime.engine_name} x{runtime.nranks}"},
        }
    ]
    for rank in range(runtime.nranks):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": rank,
             "args": {"name": f"rank {rank}"}}
        )
        events.append(
            {"ph": "M", "name": "thread_sort_index", "pid": 0, "tid": rank,
             "args": {"sort_index": rank}}
        )
    if runtime.causal is not None:
        events.extend(_timeline(runtime.causal))
    for inst in patterns or ():
        events.append(
            {"ph": "X", "pid": 0, "tid": inst.rank, "ts": inst.start, "dur": inst.duration,
             "name": inst.pattern, "cat": "inefficiency",
             "args": {"win": inst.win, "epoch": inst.epoch}}
        )

    other: dict[str, Any] = {"nranks": runtime.nranks, "engine": runtime.engine_name}
    summary = runtime.metrics_summary()
    if summary is not None:
        ts = runtime.now
        for name, value in summary["counters"].items():
            events.append(
                {"ph": "C", "pid": 0, "tid": 0, "ts": ts, "name": name,
                 "args": {"value": value}}
            )
        profile = summary.get("profile")
        if profile:
            for num, st in profile["steps"].items():
                events.append(
                    {"ph": "C", "pid": 0, "tid": 0, "ts": ts,
                     "name": f"step{num} {st['name']}",
                     "args": {"work": st["work"], "invocations": st["invocations"]}}
                )
        other["metrics"] = summary
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_chrome_trace_file(
    path: "str | os.PathLike[str]",
    runtime: "MPIRuntime",
    patterns: "list[PatternInstance] | None" = None,
) -> int:
    """Validate and write the trace document; returns the event count."""
    doc = export_chrome_trace(runtime, patterns)
    count = validate_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return count


def _fail(i: int, ev: Any, why: str) -> None:
    raise ValueError(f"traceEvents[{i}] invalid: {why} ({ev!r})")


def validate_chrome_trace(doc: Any) -> int:
    """Schema-check one trace document; returns the event count.

    Raises :class:`ValueError` naming the first offending event.  The
    checks cover what the Chrome/Perfetto JSON importer actually
    requires: the ``traceEvents`` list, known phase letters, numeric
    non-negative timestamps, integer pid/tid, ``dur`` on complete
    events, ``id`` on async events, numeric counter args, and balanced
    ``B``/``E`` duration nesting per (pid, tid) track.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace document must be a JSON object, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no 'traceEvents' list")
    open_depth: dict[tuple[int, int], int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            _fail(i, ev, "event is not an object")
        ph = ev.get("ph")
        if ph not in _EMITTED_PHASES:
            _fail(i, ev, f"unknown phase {ph!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            _fail(i, ev, "pid/tid must be integers")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                _fail(i, ev, f"bad timestamp {ts!r}")
        if ph != "E" and not isinstance(ev.get("name"), str):
            _fail(i, ev, "missing event name")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(i, ev, f"complete event needs non-negative dur, got {dur!r}")
        if ph in _ID_PHASES and "id" not in ev:
            _fail(i, ev, "async/flow event needs an id")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                _fail(i, ev, "counter event needs non-empty args")
            for k, v in args.items():
                if not isinstance(v, (int, float)):
                    _fail(i, ev, f"counter series {k!r} is not numeric")
        if ph == "B":
            key = (ev["pid"], ev["tid"])
            open_depth[key] = open_depth.get(key, 0) + 1
        elif ph == "E":
            key = (ev["pid"], ev["tid"])
            depth = open_depth.get(key, 0)
            if depth <= 0:
                _fail(i, ev, "duration end without matching begin on its track")
            open_depth[key] = depth - 1
    unclosed = {k: d for k, d in open_depth.items() if d}
    if unclosed:
        raise ValueError(f"unbalanced duration events on tracks {sorted(unclosed)}")
    return len(events)
