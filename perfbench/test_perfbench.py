"""Tests for the benchmark's own arithmetic: span self times, the CSV
fingerprint comparator and the host-speed calibration. Run with
``python -m pytest perfbench``."""

import signal
import time

import numpy as np
import pytest

import calib
import fingerprint
import tracer


def _spans(rows):
    """rows: (name, parent, start, end) -> the arrays layer_table reads."""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int64),
        "start": np.array([r[2] for r in rows], dtype=np.int64),
        "end": np.array([r[3] for r in rows], dtype=np.int64),
        "count": np.ones(len(rows), dtype=np.int64),
    }


# root [0, 100) holds a [10, 40) and c [50, 90); a holds b [15, 25);
# c holds two b-named calls [60, 70) and [75, 80)
TREE = [("root", -1, 0, 100), ("a", 0, 10, 40), ("b", 1, 15, 25),
        ("c", 0, 50, 90), ("b", 3, 60, 70), ("b", 3, 75, 80)]


def test_self_time_subtracts_direct_children_only():
    s = _spans(TREE)
    own = tracer.self_times(s["parent"], s["start"], s["end"])
    assert own.tolist() == [30.0, 20.0, 10.0, 25.0, 10.0, 5.0]
    # nested spans partition the root interval
    assert own.sum() == 100.0


def test_layer_table_sums_calls_and_times_by_name():
    table = tracer.layer_table(_spans(TREE))
    assert table["b"] == {"calls": 3, "count": 3, "total_ns": 25.0, "self_ns": 25.0}
    assert table["c"]["total_ns"] == 40.0 and table["c"]["self_ns"] == 25.0
    assert sum(r["self_ns"] for r in table.values()) == table["root"]["total_ns"]


def test_recorder_links_parents_and_counts():
    rec = tracer.Recorder()

    def inner(rows):
        return len(rows)

    traced_inner = rec.wrap(inner, "inner", count=lambda a, k: len(a[0]))

    def outer():
        return traced_inner([1, 2]) + traced_inner([3])

    assert rec.wrap(outer, "outer")() == 3
    assert list(rec.parent) == [tracer.ROOT, 0, 0]
    assert list(rec.count) == [1, 2, 1]
    assert [rec.names[i] for i in rec.name_id] == ["outer", "inner", "inner"]
    own = tracer.self_times(np.array(rec.parent), np.array(rec.start), np.array(rec.end))
    assert own.sum() == rec.end[0] - rec.start[0]
    assert (own >= 0).all()


def test_recorder_closes_span_when_call_raises():
    rec = tracer.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "boom")()
    assert rec.end[0] >= rec.start[0] > 0
    assert rec._stack == [tracer.ROOT]


HEADER = ["scheme", "eta", "count"]
ROWS = [["mt3", "0.56599999999999995", "10"],
        ["mt3", "0.40000000000000002", "20"],
        ["lie-trotter", "0.28299999999999997", "30"]]


def _with(row, col, text):
    rows = [list(r) for r in ROWS]
    rows[row][col] = text
    return fingerprint.fingerprint_rows(HEADER, rows)


def test_fingerprint_matches_when_bit_identical():
    ref = fingerprint.fingerprint_rows(HEADER, ROWS)
    assert fingerprint.compare(ref, fingerprint.fingerprint_rows(HEADER, ROWS)) == []


def test_fingerprint_flags_relative_change_of_1e6():
    ref = fingerprint.fingerprint_rows(HEADER, ROWS)
    moved = _with(1, 1, repr(0.4 * (1 + 1e-6)))
    assert any(p.startswith("eta.") for p in fingerprint.compare(ref, moved))


def test_fingerprint_accepts_last_bit_change():
    ref = fingerprint.fingerprint_rows(HEADER, ROWS)
    assert fingerprint.compare(ref, _with(1, 1, repr(float(np.nextafter(0.4, 1.0))))) == []


def test_fingerprint_flags_value_moved_between_rows():
    ref = fingerprint.fingerprint_rows(HEADER, ROWS)
    rows = [list(r) for r in ROWS]
    rows[0][2], rows[1][2] = "20", "10"  # same column total, different rows
    diff = fingerprint.compare(ref, fingerprint.fingerprint_rows(HEADER, rows))
    assert diff and all(p.startswith("count.w") for p in diff)


def test_fingerprint_flags_text_change():
    ref = fingerprint.fingerprint_rows(HEADER, ROWS)
    assert fingerprint.compare(ref, _with(2, 0, "mt3")) == ["text_sha256 differs"]


def test_typical_kernel_time_weights_samples_by_time():
    # probes every tick: half the time at reference speed, half at half speed,
    # so the work done is 3/4 of what the reference host does in that time
    k = calib.REF_KERNEL_S
    assert calib.adjust(10.0, calib.typical([k, 2 * k, k, 2 * k])) == pytest.approx(7.5)


def test_probe_samples_while_work_runs_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = calib.Probe(interval_s=0.01)
    probe.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert len(probe.samples) >= 3
    assert probe.busy_s >= sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
