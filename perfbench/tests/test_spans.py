"""Self-time arithmetic of the benchmark's span recorder."""

import json

import pytest

import spans


def _span(sid, name, start, end, parent):
    return [sid, name, start, end, parent, "w"]


def test_self_time_subtracts_direct_children():
    tree = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 5.0, 0),
        _span(2, "b", 2.0, 3.0, 1),
        _span(3, "b", 3.5, 4.0, 1),
        _span(4, "c", 6.0, 9.0, 0),
    ]
    by_name, rest, wall = spans.self_times(tree, 0)
    assert wall == 10.0
    assert by_name["a"] == pytest.approx(4.0 - 1.5)
    assert by_name["b"] == pytest.approx(1.5)
    assert by_name["c"] == pytest.approx(3.0)
    assert rest == pytest.approx(10.0 - 4.0 - 3.0)
    assert sum(by_name.values()) + rest == pytest.approx(wall)


def test_table_shows_remainder_and_sums_to_wall():
    tree = [_span(0, "root", 0.0, 2.0, None), _span(1, "x", 0.5, 1.5, 0)]
    table = spans.self_time_table(tree, 0)
    assert "(unattributed)" in table
    total = [line for line in table.splitlines() if "total" in line][0]
    assert "2000.00" in total and "100.0%" in total


def test_recorder_nests_and_dumps(tmp_path):
    rec = spans.SpanRecorder("docs")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    assert [s[4] for s in rec.spans] == [None, 0, 0]
    by_name, rest, wall = spans.self_times(rec.spans, 0)
    assert sum(by_name.values()) + rest == pytest.approx(wall)
    path = tmp_path / "spans.json"
    rec.dump(path)
    dumped = json.loads(path.read_text())
    assert dumped[1]["parent"] == 0 and dumped[1]["workload"] == "docs"


def test_null_recorder_records_nothing():
    rec = spans.NullSpans()
    with rec.span("anything"):
        pass
    assert not rec.enabled
