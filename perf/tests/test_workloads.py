"""The workloads: capture is transparent, generators are faithful, checks bite."""

import copy

import pytest

from perf.harness import _collect, _rep
from perf.spans import Spans
from perf.workloads import (
    FULL,
    QUICK,
    WORKLOADS,
    FanIn1024,
    KvOpenLoop,
    LuGats,
    P2PRing,
    TxnBlocking,
    TxnDeferred,
)
from repro.apps import TransactionsConfig, run_transactions


class SmallDeferred(TxnDeferred):
    nranks, txns_per_rank = 8, 6


class SmallBlocking(TxnBlocking):
    nranks, txns_per_rank = 8, 6


class SmallLu(LuGats):
    nranks, m = 4, 16


class SmallKv(KvOpenLoop):
    nranks, requests_per_rank, rebalance_every = 4, 100, 50


class SmallFanIn(FanIn1024):
    nranks, rounds = 64, 3


class SmallRing(P2PRing):
    nranks, iterations = 8, 20


SMALL = (SmallDeferred, SmallBlocking, SmallLu, SmallKv, SmallFanIn, SmallRing)


def test_six_workloads_each_at_the_issue_shape_and_at_a_quarter_of_it():
    assert list(FULL) == ["txn_deferred", "txn_blocking", "lu_gats", "kv_openloop",
                          "fanin_1024", "p2p_ring"]
    assert list(QUICK) == [f"{name}_quick" for name in FULL]
    assert WORKLOADS == {**FULL, **QUICK}
    # ISSUE 12's operation counts, in FULL's order.
    issue_ops = (3840, 3840, 384, 19200, 12276, 19200)
    for full, quick, ops in zip(FULL.values(), QUICK.values(), issue_ops):
        a, b = full(0), quick(0)
        assert a.ops == ops and a.why and a.shape != b.shape
        assert issubclass(quick, full) and 3 * b.ops <= a.ops <= 4 * b.ops + 4


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_a_rep_verifies_and_repeats_exactly(cls):
    wl = cls(seed=11)
    spans = Spans(wl.name)
    first, second = _rep(wl, spans, "rep[0]"), _rep(wl, spans, "rep[1]")
    assert first["error"] is None and first["failed"] == 0
    assert first["live_epochs_end"] == 0
    for field in ("virtual_us", "events", "digest"):
        assert first[field] == second[field]
    names = {rec["name"] for rec in spans.records}
    assert {"rep[0]", "run", "construct", "collect", "verify"} <= names


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_another_seed_gives_other_inputs_unless_the_workload_has_none(cls):
    a, b = (_rep(cls(seed), Spans(cls.name), "rep") for seed in (11, 12))
    assert b["failed"] == 0
    if cls is SmallFanIn:  # no random input; the seed is recorded, unused
        assert a["digest"] == b["digest"]
    else:
        assert a["digest"] != b["digest"]


def test_blocking_and_deferred_drives_agree_on_the_answer_and_deferred_is_faster():
    deferred = SmallDeferred(5).run(Spans("d"))
    blocking = SmallBlocking(5).run(Spans("b"))
    assert deferred.answer == blocking.answer
    assert blocking.virtual_us > deferred.virtual_us


def test_keep_runtime_capture_leaves_the_run_unchanged():
    wl = SmallDeferred(5)
    captured = wl.run(Spans(wl.name))
    seen = []

    class Plain(TransactionsConfig):  # the app's own config, runtime only observed
        def make_runtime(self):
            seen.append(super().make_runtime())
            return seen[-1]

    cfg = wl.config(None)
    fields = {f: getattr(cfg, f) for f in TransactionsConfig.__dataclass_fields__}
    plain = run_transactions(Plain(**fields))
    assert plain.runtime is None  # the plain config keeps results light
    assert plain.elapsed_us == captured.virtual_us
    assert (plain.applied, plain.rank_sums) == captured.answer
    assert seen[0].sim.events_scheduled == captured.runtime.sim.events_scheduled


def test_owned_fan_in_matches_the_scaling_bench_cell():
    scaling = pytest.importorskip("repro.bench.scaling")
    series = next(s for s in scaling.SERIES if s.engine == "mvapich")
    cell = scaling.run_cell(series, 64, rounds=SmallFanIn.rounds)
    wl = SmallFanIn(0)
    ours = _collect(wl.run(Spans("fanin")))
    assert (cell["puts"], cell["events"], cell["virtual_us"]) == (
        wl.ops, ours["events"], ours["virtual_us"])


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_verify_flags_a_wrong_answer(cls):
    wl = cls(seed=3)
    outcome = wl.run(Spans(wl.name))
    assert wl.verify(outcome) == 0
    bad = copy.copy(outcome)
    if cls is SmallLu:
        bad.answer = outcome.answer.copy()
        bad.answer[3, 5] = bad.answer[3, 5] + 1e-12
        assert wl.verify(bad) == 1
        return
    if cls in (SmallDeferred, SmallBlocking):
        applied, sums = outcome.answer
        bad.answer = (applied, (sums[1], sums[0] + 1, *sums[2:]))
    elif cls is SmallKv:
        tables, stats = outcome.answer
        bad.answer = (((tables[0][0] + 1, *tables[0][1:]), *tables[1:]), stats)
    elif cls is SmallFanIn:
        bad.answer = (0, *outcome.answer[1:-1], outcome.answer[-1] - 1)
    else:
        states, totals = outcome.answer
        bad.answer = ((states[0] ^ 1, *states[1:]), totals)
    assert 0 < wl.verify(bad) <= wl.ops


def test_a_raising_rep_is_counted_not_raised():
    class Broken(SmallRing):
        def run(self, spans, **obs):
            raise RuntimeError("boom")

    rep = _rep(Broken(1), Spans("broken"), "rep[0]")
    assert rep["failed"] == 160 and "boom" in rep["error"] and rep["cpu_s"] >= 0


def test_a_raising_check_is_counted_not_raised():
    class Unchecked(SmallRing):
        def verify(self, outcome):
            raise IndexError("no such rank")

    rep = _rep(Unchecked(1), Spans("unchecked"), "rep[0]")
    assert rep["failed"] == 160 and "no such rank" in rep["error"]
