"""One ``repro serve --stdio`` child and an open-loop JSONL client.

The client is one writer thread that sends each request at its seeded
due time, whether or not earlier replies have come back, and one reader
thread that timestamps replies.  Latency runs from the due time, so a
stall also charges the requests that queued behind it; how late the
writer itself ran is reported separately as send lag.

On a host with two or more CPUs the client's threads run on one CPU and
the server child on the others (:func:`cpu_split`), as a client on
another machine would.  Sharing CPUs, the server's validating thread
preempted the writer inside its pipe write (a median 1-2 ms, up to
11 ms), so the client's own scheduling decided much of the latency.
The serving yardstick (``refserve.py``, :func:`start_reference`) runs
on the server's CPUs and is driven the same way.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from gen import SYNTAX_MARKERS


def cpu_split() -> "tuple[set | None, set | None]":
    """``(client CPUs, server CPUs)`` out of the CPUs this process may
    use; ``(None, None)`` (nothing pinned) with fewer than two."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None, None
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def pin(cpus: "set | None") -> None:
    """Keep the calling thread on ``cpus`` (no-op for None)."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


class ServeProcess:
    """A JSONL child (``cmd``) on stdin/stdout, confined to ``cpus``
    (every thread of it) unless that is None."""

    def __init__(self, cmd: list, env: dict, cwd: str,
                 cpus: "set | None" = None):
        # the child inherits the affinity of the thread that forks it
        before = os.sched_getaffinity(0) if cpus is not None else None
        pin(cpus)
        try:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, env=env, cwd=cwd)
        finally:
            pin(before)

    def call(self, req: dict) -> dict:
        """One synchronous request/reply."""
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve child exited (status {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        """EOF on stdin is the clean shutdown; kill if it lingers."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def start_server(env: dict, cache_dir: str, cwd: str, schema: str,
                 root: str, cpus: "set | None" = None,
                 ) -> "tuple[ServeProcess, float, float]":
    """Spawn ``python -m repro -q serve --stdio --cache DIR`` on ``cpus``
    and load ``schema`` as ``"s"``; returns ``(server, spawn_s, load_s)``
    where spawn ends at the first reply."""
    t0 = time.perf_counter()
    server = ServeProcess([sys.executable, "-m", "repro", "-q", "serve",
                           "--stdio", "--cache", cache_dir], env, cwd, cpus)
    try:
        if not server.call({"op": "ping"}).get("ok"):
            raise RuntimeError("serve child did not answer ping")
        t1 = time.perf_counter()
        reply = server.call({"op": "load", "name": "s", "schema": schema,
                             "root": root})
        t2 = time.perf_counter()
        if not reply.get("ok"):
            raise RuntimeError(f"schema load failed: {reply}")
    except BaseException:
        server.close()
        raise
    return server, t1 - t0, t2 - t1


def start_reference(env: dict, folder: str, cwd: str,
                    cpus: "set | None" = None) -> ServeProcess:
    """Spawn the serving yardstick (``refserve.py``) on ``cpus``,
    writing its files to ``folder``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "refserve.py")
    return ServeProcess([sys.executable, script, folder], env, cwd, cpus)


@dataclass
class StepResult:
    replies: list
    #: ms from due time to reply; inf for a missing or failed reply
    latencies_ms: list
    send_lag_ms: list
    #: outstanding requests sampled at each send
    backlog: list


def run_step(server: ServeProcess, docs: list, gaps: list,
             timeout_s: float = 30.0,
             cpus: "set | None" = None) -> StepResult:
    """Send ``docs`` open-loop, request ``i`` due ``sum(gaps[:i+1])``
    seconds after the start; wait for every reply (or the timeout).
    Both client threads run on ``cpus`` unless that is None."""
    n = len(docs)
    lines = [json.dumps({"op": "validate", "schema": "s",
                         "document": d.text, "id": i}).encode() + b"\n"
             for i, d in enumerate(docs)]
    due = []
    t = 0.0
    for g in gaps:
        t += g
        due.append(t)
    sent = [None] * n
    backlog: list = []
    #: (arrival time, raw reply line), decoded after the step so the
    #: reader spends no time parsing while replies arrive
    raw: list = []
    proc = server.proc

    def reader() -> None:
        pin(cpus)
        for _ in range(n):
            line = proc.stdout.readline()
            if not line:
                return
            raw.append((time.perf_counter(), line))

    def writer() -> None:
        pin(cpus)
        try:
            for i in range(n):
                # sleep, never spin: a spinning writer would hold the
                # interpreter lock the reader needs to timestamp replies
                delay = t0 + due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                proc.stdin.write(lines[i])
                proc.stdin.flush()
                sent[i] = time.perf_counter()
                backlog.append(i + 1 - len(raw))
        except OSError:
            return

    rthread = threading.Thread(target=reader, daemon=True)
    wthread = threading.Thread(target=writer, daemon=True)
    # a short switch interval lets the writer wake on time even while
    # the reader holds the interpreter lock, and no collection of the
    # benchmark's own heap may stall the writer mid-step
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter() + 0.005
        rthread.start()
        wthread.start()
        wthread.join(timeout=due[-1] + timeout_s if n else timeout_s)
        rthread.join(timeout=timeout_s)
    finally:
        sys.setswitchinterval(switch)
        if collecting:
            gc.enable()
    if rthread.is_alive() or wthread.is_alive():
        # a wedged child: kill it so both threads see EOF/EPIPE and end
        proc.kill()
        rthread.join(timeout=10)
        wthread.join(timeout=10)
    recv = [None] * n
    replies = [None] * n
    for now, line in raw:
        reply = json.loads(line)
        i = reply.get("id")
        if isinstance(i, int) and 0 <= i < n:
            recv[i] = now
            replies[i] = reply
    lat = [(recv[i] - t0 - due[i]) * 1e3
           if _served(docs[i], replies[i]) else float("inf")
           for i in range(n)]
    lag = [(sent[i] - t0 - due[i]) * 1e3 for i in range(n)
           if sent[i] is not None]
    return StepResult(replies, lat, lag, backlog)


def _served(doc, reply) -> bool:
    """A reply arrived and is a verdict or the expected syntax error."""
    return reply is not None and bool(
        reply.get("ok") or (doc.error is not None
                            and reply.get("code") == "invalid-document"))


def check_reply(doc, reply) -> "str | None":
    """None when ``reply`` matches ``doc``'s known answer, else why not."""
    if reply is None:
        return f"{doc.doc_id}: no reply"
    if doc.error is not None:
        if reply.get("ok") or reply.get("code") != "invalid-document" \
                or SYNTAX_MARKERS[doc.error] not in reply.get("error", ""):
            return f"{doc.doc_id}: expected {doc.error} error, got {reply}"
        return None
    if not reply.get("ok"):
        return f"{doc.doc_id}: request failed: {reply}"
    got = sorted(v["constraint"] for v in reply["report"]["violations"])
    if got != sorted(doc.expect) or reply["valid"] != (not doc.expect):
        return f"{doc.doc_id}: expected {sorted(doc.expect)}, got {got}"
    return None
