"""Canonical outcome digests — the differential oracle's comparison unit.

One :class:`OutcomeDigest` summarizes everything observable about one
finished run that a *correct* RMA stack must reproduce:

``strict``
    Facts that must match across **engines and schedules**: the
    workload's own result (reduced to its schedule-independent fields by
    the workload's extractor), a SHA-256 of every window's final memory,
    the semantics-checker verdict, and the ω-counter invariant audit.
    Any strict mismatch between two runs of the same workload is a bug
    in one of the engines (or in the checker).

``engine_only``
    Facts that legitimately differ *between* engine variants but must
    match across **schedules within one variant**: the delivered-
    notification multiset and the raw ω counters.  (The baseline engine
    grants locks with different packet traffic than the deferred-epoch
    engine; both must still do so schedule-independently.)

Digests serialize to canonical JSON (sorted keys, no whitespace) and
compare by SHA-256, so "same outcome" is a byte-level statement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..rma.notify import SignalChannel, row_items

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime
    from .context import ExplorationContext

__all__ = ["OutcomeDigest", "build_digest", "canonical_json", "diff_digests"]


def canonical_json(doc: Any) -> str:
    """Deterministic JSON rendering (the hashing + diffing substrate)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass(frozen=True)
class OutcomeDigest:
    """Strict / engine-only outcome split of one run (see module doc)."""

    strict: dict
    engine_only: dict

    @property
    def strict_sha(self) -> str:
        return _sha(self.strict)

    @property
    def engine_sha(self) -> str:
        return _sha(self.engine_only)

    def to_json(self) -> dict:
        return {
            "strict": self.strict,
            "strict_sha": self.strict_sha,
            "engine_only": self.engine_only,
            "engine_sha": self.engine_sha,
        }


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def _window_memory(runtime: "MPIRuntime") -> dict[str, str]:
    """SHA-256 of every window's final bytes, keyed ``"gid/rank"``."""
    out: dict[str, str] = {}
    for group in runtime.window_groups:
        for rank, win in sorted(group.windows.items()):
            data = np.ascontiguousarray(win.view(np.uint8)).tobytes()
            out[f"{group.gid}/{rank}"] = hashlib.sha256(data).hexdigest()
    return out


def _checker_verdict(runtime: "MPIRuntime") -> dict:
    """Aggregate semantics-checker verdict across all window groups."""
    kinds: dict[str, int] = {}
    total = 0
    for group in runtime.window_groups:
        if group.checker is None:
            continue
        for v in group.checker.report():
            total += 1
            kinds[v.kind.value] = kinds.get(v.kind.value, 0) + 1
    return {"violations": total, "kinds": dict(sorted(kinds.items()))}


#: The ω names as rows of the board: name -> (array, channel).
_OMEGA_ROWS = (
    ("a", "expected", SignalChannel.GRANT),
    ("e", "outbound", SignalChannel.GRANT),
    ("g", "inbound", SignalChannel.GRANT),
    ("done_id", "inbound", SignalChannel.DONE),
)


def _omega_counters(runtime: "MPIRuntime") -> dict[str, dict]:
    """Raw ω-triples and done ids per ``"gid/rank"`` (engine-only): the
    GRANT / DONE rows of the board under the ω names, nonzero entries in
    ascending peer order (the JSON shape is independent of touch order).
    The counter-signal engine reports its board whole in
    :func:`_signal_counters` and keeps the (empty) ω shape here."""
    out: dict[str, dict] = {}
    for rank, engine in enumerate(runtime.engines):
        omega = not engine.supports_notified_access
        for gid, ws in sorted(engine.states.items()):
            out[f"{gid}/{rank}"] = {
                name: {str(r): v for r, v in row_items(getattr(ws.board, array), channel)}
                if omega else {}
                for name, array, channel in _OMEGA_ROWS
            }
    return out


def _signal_counters(runtime: "MPIRuntime") -> dict[str, dict]:
    """Counter boards per ``"gid/rank"`` under the counter-signal engine
    (engine-only; the ω engines report theirs in :func:`_omega_counters`)."""
    out: dict[str, dict] = {}
    for rank, engine in enumerate(runtime.engines):
        if not engine.supports_notified_access:
            continue
        for gid, ws in sorted(engine.states.items()):
            snap = ws.board.snapshot()
            if snap:
                out[f"{gid}/{rank}"] = snap
    return out


def _omega_invariants(runtime: "MPIRuntime") -> list[str]:
    """Counter conservation audit at quiescence (strict: must be []),
    read off the board every engine matches on, in the ω names.

    - **grant conservation** — every grant P_r issued to P_l was
      received: ``g_l[r] == e_r[l]`` (the granter bumps ``e`` when it
      issues, the grantee's ``g`` moves when the update lands);
    - **done causality** — a target never saw a done above what the
      origin requested: ``done_id_r[l] <= a_l[r]``;
    - **matching soundness** — no rank holds more grants than it
      requested accesses: ``g_l[r] <= a_l[r]``  (a grant exists only in
      response to an access epoch).
    """
    bad: list[str] = []
    by_gid: dict[int, dict[int, Any]] = {}
    for rank, engine in enumerate(runtime.engines):
        for gid, ws in engine.states.items():
            by_gid.setdefault(gid, {})[rank] = ws.board
    grant, done = SignalChannel.GRANT, SignalChannel.DONE
    for gid, boards in sorted(by_gid.items()):
        for l, board_l in sorted(boards.items()):
            for r in sorted(boards):
                board_r = boards[r]
                a, g = board_l.expected.get((grant, r), 0), board_l.inbound.get((grant, r), 0)
                e, done_id = board_r.outbound.get((grant, l), 0), board_r.inbound.get((done, l), 0)
                if g != e:
                    bad.append(f"win {gid}: grant conservation g[{l}<-{r}]={g} != e[{r}->{l}]={e}")
                if done_id > a:
                    bad.append(
                        f"win {gid}: done causality done_id[{r}<-{l}]={done_id} > a[{l}->{r}]={a}"
                    )
                if g > a:
                    bad.append(f"win {gid}: ungranted access g[{l}<-{r}]={g} > a[{l}->{r}]={a}")
    return bad


def build_digest(context: "ExplorationContext", result: dict) -> OutcomeDigest:
    """Digest one finished run.

    ``result`` is the workload extractor's schedule-independent summary
    of the application-level answer (never raw timing fields).  The
    context supplies everything below the application: final window
    memory, checker verdicts and ω state from each registered runtime,
    and the delivered-notification multiset the engines logged.
    """
    memory: dict[str, str] = {}
    verdict = {"violations": 0, "kinds": {}}
    invariants: list[str] = []
    omega: dict[str, dict] = {}
    signal: dict[str, dict] = {}
    for runtime in context.runtimes:
        memory.update(_window_memory(runtime))
        rv = _checker_verdict(runtime)
        verdict["violations"] += rv["violations"]
        for kind, count in rv["kinds"].items():
            verdict["kinds"][kind] = verdict["kinds"].get(kind, 0) + count
        invariants.extend(_omega_invariants(runtime))
        omega.update(_omega_counters(runtime))
        signal.update(_signal_counters(runtime))
    verdict["kinds"] = dict(sorted(verdict["kinds"].items()))
    strict = {
        "result": result,
        "memory": memory,
        "checker": verdict,
        "invariants": invariants,
    }
    engine_only = {
        "notifications": context.notification_multiset(),
        "omega": omega,
        "signal": signal,
    }
    return OutcomeDigest(strict=strict, engine_only=engine_only)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

def diff_digests(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Dotted paths at which two digest documents differ (both sides'
    values included, truncated — meant for failure reports, not for
    machine consumption; equality is judged on the canonical SHA)."""
    diffs: list[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                diffs.append(f"{path}: missing left")
            elif key not in b:
                diffs.append(f"{path}: missing right")
            else:
                diffs.extend(diff_digests(a[key], b[key], path))
        return diffs
    if a != b:
        ra, rb = repr(a), repr(b)
        diffs.append(f"{prefix}: {ra[:80]} != {rb[:80]}")
    return diffs
