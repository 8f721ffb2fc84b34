"""The benchmark's own span recorder.

Spans are recorded around calls *into* the program, from benchmark code
only; nothing here imports ``repro`` (in particular not ``repro.obs``),
so trimming the program's observability cannot change the instrument.

A span has a name, start, end, parent span and workload.  Spans stay in
memory until :meth:`SpanRecorder.dump` writes them out.  Self time is a
span's duration minus the time its direct children cover; summed per
name under one root it adds up to the root's wall time, with the root's
own self time shown as the unattributed remainder.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullSpans:
    """The untraced recorder: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL


class SpanRecorder:
    """Records nested spans on the calling thread."""

    enabled = True

    def __init__(self, workload: str = ""):
        self.workload = workload
        #: [id, name, start, end, parent_id, workload]
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent,
                  self.workload]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "workload")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans: list, root: int) -> "tuple[dict, float, float]":
    """Per-name self time (seconds) of ``root``'s descendants.

    Returns ``(by_name, unattributed, wall)`` where ``unattributed`` is
    the root's own self time and ``sum(by_name) + unattributed == wall``.
    """
    children: dict = {}
    for sid, _name, _start, _end, parent, _wl in spans:
        children.setdefault(parent, []).append(sid)

    def own(sid: int) -> float:
        s = spans[sid]
        covered = sum(spans[c][3] - spans[c][2]
                      for c in children.get(sid, ()))
        return (s[3] - s[2]) - covered

    by_name: dict = {}
    todo = list(children.get(root, ()))
    while todo:
        sid = todo.pop()
        by_name[spans[sid][1]] = by_name.get(spans[sid][1], 0.0) + own(sid)
        todo.extend(children.get(sid, ()))
    wall = spans[root][3] - spans[root][2]
    return by_name, own(root), wall


def self_time_table(spans: list, root: int) -> str:
    """A text table of :func:`self_times`, largest first."""
    by_name, rest, wall = self_times(spans, root)
    lines = [f"self time under {spans[root][1]!r} "
             f"(wall {wall * 1e3:.1f} ms)",
             f"  {'span':<34} {'ms':>10} {'share':>7}"]
    for name, sec in sorted(by_name.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<34} {sec * 1e3:>10.2f} "
                     f"{sec / wall * 100:>6.1f}%")
    lines.append(f"  {'(unattributed)':<34} {rest * 1e3:>10.2f} "
                 f"{rest / wall * 100:>6.1f}%")
    total = sum(by_name.values()) + rest
    lines.append(f"  {'total':<34} {total * 1e3:>10.2f} "
                 f"{total / wall * 100:>6.1f}%")
    return "\n".join(lines)
