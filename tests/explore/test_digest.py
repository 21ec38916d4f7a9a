"""Digest construction, canonical hashing, and the diff helper."""

from __future__ import annotations

from repro.explore import (
    ExplorationContext,
    build_digest,
    canonical_json,
    diff_digests,
    run_workload,
)
from repro.rma.notify import SignalChannel
from repro.workloads import SERIES, get_workload


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json({"a": [1, 2], "b": 1})


def test_diff_digests_paths():
    a = {"x": {"y": 1, "z": 2}, "w": [1, 2]}
    b = {"x": {"y": 1, "z": 3}, "v": 0}
    paths = diff_digests(a, b)
    assert any(p.startswith("v:") for p in paths)
    assert any(p.startswith("w:") for p in paths)
    assert any(p.startswith("x.z:") for p in paths)
    assert not any("x.y" in p for p in paths)
    assert diff_digests(a, a) == []


def test_digest_covers_memory_checker_and_omega():
    run = run_workload("transactions", SERIES[2], None)
    strict, engine_only = run.digest.strict, run.digest.engine_only
    # one window x 3 ranks
    assert sorted(strict["memory"]) == ["0/0", "0/1", "0/2"]
    # exploration forces the checker on in report mode; a correct run is clean
    assert strict["checker"] == {"violations": 0, "kinds": {}}
    assert strict["invariants"] == []
    # the engines logged real notification traffic and omega state
    assert engine_only["notifications"]
    assert engine_only["omega"]
    assert run.digest.strict_sha != run.digest.engine_sha


def test_empty_context_digest():
    ctx = ExplorationContext.from_spec(None)
    digest = build_digest(ctx, {"answer": 1})
    assert digest.strict["result"] == {"answer": 1}
    assert digest.strict["memory"] == {}
    assert digest.engine_only["notifications"] == []


def test_omega_invariant_audit_detects_imbalance():
    """Corrupting the grant counter the engine matches on after the run
    must trip the audit — on every engine: they share the board.  (One
    test over all four series rather than a parametrized one, so its
    id stays what it was when the audit could only see the ω engines.)"""
    for series in SERIES:
        ctx = ExplorationContext.from_spec(None)
        result = get_workload("transactions").oracle(series.engine, series.nonblocking, ctx)
        assert build_digest(ctx, result).strict["invariants"] == [], series.name
        board = ctx.runtimes[0].engines[0].states[0].board
        key = (SignalChannel.GRANT, 1)
        board.inbound[key] = board.inbound.get(key, 0) + 1  # a grant nobody issued
        invariants = build_digest(ctx, result).strict["invariants"]
        assert any("grant conservation" in line for line in invariants), series.name
