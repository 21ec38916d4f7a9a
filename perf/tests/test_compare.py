"""The comparator: bounds for host metrics, equality for exact ones."""

import copy
import math

from perf.compare import compare
from perf.metrics import END_TO_END, PER_LAYER

# The comparator applies whatever bounds it is given; these are the test's own.
BOUNDS = {"ops_per_s": 0.10, "peak_rss_mb": 0.10, "setup_s": 0.15}


def ledger(ops_per_s=1000.0, virtual_us=383.65, failed=0, calibration=1.0e7):
    e2e = {"ops_per_s": ops_per_s, "peak_rss_mb": 40.0, "setup_s": 0.3,
           "virtual_us": virtual_us, "fail_ratio": failed / 9600}
    return {"stamp": {"calibration": calibration}, "workloads": {"txn_deferred": {
        "attempted": 9600, "failed": failed,
        "deterministic": {"virtual_us": virtual_us, "events": 35182, "digest": "ab"},
        "end_to_end": {m.name: {"value": e2e[m.name], "unit": m.unit} for m in END_TO_END},
        "per_layer": {m.name: {"value": 1.5, "unit": m.unit} for m in PER_LAYER},
    }}}


def test_identical_documents_pass():
    lines, ok = compare(ledger(), ledger(), BOUNDS)
    assert ok and len(lines) == 1 and "exact fields identical" in lines[0]


def test_nine_percent_slower_passes_eleven_percent_is_flagged():
    assert compare(ledger(), ledger(ops_per_s=910.0), BOUNDS)[1]
    lines, ok = compare(ledger(), ledger(ops_per_s=890.0), BOUNDS)
    assert not ok and "ops_per_s 1000 -> 890 ops/s (-11.0% REGRESSION)" in lines[0]
    # One-sided: faster is never a regression.
    assert compare(ledger(), ledger(ops_per_s=2000.0), BOUNDS)[1]


def test_one_ulp_of_virtual_time_is_drift():
    base = ledger()
    lines, ok = compare(base, ledger(virtual_us=math.nextafter(383.65, math.inf)), BOUNDS)
    assert not ok and "EXACT DRIFT: virtual_us" in lines[0]


def test_exact_per_layer_metric_must_repeat_but_a_host_one_may_move():
    moved = ledger()
    moved["workloads"]["txn_deferred"]["per_layer"]["rma.engine.self_share"]["value"] = 1.6
    assert compare(ledger(), moved, BOUNDS)[1]
    moved["workloads"]["txn_deferred"]["per_layer"]["rma.calls_per_event"]["value"] = 1.6
    lines, ok = compare(ledger(), moved, BOUNDS)
    assert not ok and "EXACT DRIFT: rma.calls_per_event" in lines[0]


def test_failed_operations_are_flagged():
    lines, ok = compare(ledger(), ledger(failed=3), BOUNDS)
    assert not ok and "FAILED OPERATIONS: fail_ratio 0/9600 -> 3/9600" in lines[0]
    # ... also when both documents fail alike: fail_ratio must be 0, not merely equal.
    assert not compare(ledger(failed=3), ledger(failed=3), BOUNDS)[1]


def test_a_workload_missing_from_the_second_document_is_a_failed_row():
    dropped = ledger()
    dropped["workloads"] = {"p2p_ring": dropped["workloads"]["txn_deferred"]}
    lines, ok = compare(ledger(), dropped, BOUNDS)
    assert not ok and lines == ["txn_deferred: MISSING from the second document"]


def test_a_zero_base_is_out_of_bounds_not_a_division_error():
    zero, moved = ledger(ops_per_s=0.0), ledger(ops_per_s=5.0)
    assert compare(zero, zero, BOUNDS)[1]
    lines, ok = compare(zero, moved, BOUNDS)
    assert not ok and "REGRESSION" in lines[0]


def test_the_default_bounds_are_the_metric_tables():
    from perf.compare import BOUNDS as defaults

    assert defaults == {m.name: m.bound for m in END_TO_END if not m.exact}
    assert compare(ledger(), ledger())[1]


def test_calibration_gap_leaves_host_rows_unresolved_but_still_checks_exact_fields():
    slow = ledger(ops_per_s=700.0, calibration=0.8e7)
    lines, ok = compare(ledger(), slow, BOUNDS)
    assert ok and "different machine, host rows unresolved" in lines[0]
    assert "unresolved" in lines[1] and "REGRESSION" not in lines[1]
    drifted = copy.deepcopy(slow)
    drifted["workloads"]["txn_deferred"]["deterministic"]["events"] += 1
    assert not compare(ledger(), drifted, BOUNDS)[1]
