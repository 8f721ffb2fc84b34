"""The end-to-end stages of a perfbench run.

Every workload runs every stage on its own input family, so each run
reports all end-to-end metrics:

- ``setup``: process start until the first verdict is ready (a cold
  CLI validation, a served schema load, or a shard fleet's spawn);
- ``inproc``: closed-loop ``Validator.check(text, engine=e)`` for each
  engine, interleaved chunk by chunk;
- ``peak``: tracemalloc peak of one validation, in its own pass;
- ``serve``: a ``serve --stdio`` child fed open-loop at the nominal
  rate, beside the serving yardstick (``refserve.py``), and in the
  traced run on a rate ladder;
- ``corpus``: cold serial and sharded corpus passes, then watch edits.

Every verdict is checked against the generator's known answer; reports
must be byte-identical across engines and coordinators.

Next to its own samples each stage times a fixed pure-Python loop, the
yardstick (:func:`yardstick`), so a metric can be read at the reference
host's speed (:meth:`Ctx.host_slowdown`).
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc

import client
import gen
import stats

ENGINES = ("batch", "stream", "auto")
#: iterations of one yardstick call (about 2 ms on the reference host)
YARDSTICK_N = 20_000


def yardstick() -> int:
    """A fixed pure-Python loop that calls nothing of the program: how
    long it takes is how fast the host runs at that moment."""
    s = 0
    for i in range(YARDSTICK_N):
        s += i * i % 7
    return s


class Ctx:
    """One run's settings, temp space, counters and metrics."""

    def __init__(self, root: str, tmp: str, env: dict, workload: str,
                 seed: int, seconds: float, cfg: dict, spans):
        self.root = root
        self.tmp = tmp
        self.env = env
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cfg = cfg
        self.spans = spans
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.metrics: dict = {}
        self.layer: dict = {}
        #: stage -> seconds per yardstick call, timed next to its samples
        self.host: dict = {}
        #: the last end-to-end stages' raw results, for the traced run
        self.last: dict = {}
        self._validators: dict = {}

    def mkdtemp(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp)

    def probe_host(self, stage: str, budget_s: float = 0.0) -> None:
        """Time yardstick calls for about ``budget_s`` (at least one)
        and file them under ``stage``."""
        samples = self.host.setdefault(stage, [])
        with self.spans.span("host.yardstick"):
            end = time.perf_counter() + budget_s
            while True:
                t0 = time.perf_counter()
                yardstick()
                t1 = time.perf_counter()
                samples.append(t1 - t0)
                if t1 >= end:
                    return

    def host_slowdown(self, stage: str) -> float:
        """The host's speed during ``stage`` against the reference host:
        median yardstick time over ``yardstick_s`` in the config (above
        1 when the host ran slower)."""
        return stats.median(self.host[stage]) / self.cfg["yardstick_s"]

    def outcome(self, problem: "str | None") -> None:
        """Count one operation; ``problem`` is why it was wrong."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<22} {value:>12.5g} {unit:<7} {note}")

    def validator(self, schema: str):
        """The public facade bound to one of the generator's schemas."""
        if schema not in self._validators:
            from repro import Validator, parse_dtdc

            text, root = gen.SCHEMAS[schema]
            self._validators[schema] = Validator(parse_dtdc(text, root=root))
        return self._validators[schema]

    def write_schema(self, schema: str) -> str:
        path = os.path.join(self.tmp, f"{schema}.dtdc")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.SCHEMAS[schema][0])
        return path


def check_report(doc, report, exc) -> "str | None":
    """None when an engine's outcome matches ``doc``'s known answer."""
    if doc.error is not None:
        if exc is None or type(exc).__name__ != "XMLSyntaxError" \
                or gen.SYNTAX_MARKERS[doc.error] not in str(exc):
            return f"{doc.doc_id}: expected {doc.error} syntax error, " \
                   f"got {exc!r}"
        return None
    if exc is not None:
        return f"{doc.doc_id}: unexpected {type(exc).__name__}: {exc}"
    got = sorted(v.to_dict()["constraint"] for v in report.violations)
    if got != sorted(doc.expect) or report.ok != (not doc.expect):
        return f"{doc.doc_id}: expected {sorted(doc.expect)}, got {got}"
    return None


# -- inputs per workload ------------------------------------------------------


def family(ctx: Ctx) -> dict:
    """The workload's inputs for every stage."""
    c = ctx.cfg["inputs"]
    wl, seed = ctx.workload, ctx.seed
    if wl == "big":
        b = c["big"]
        docs = gen.big_docs(seed, b["depth"], b["feed_items"],
                            b["wide_entries"])
        k = b["peak_scale"]
        peak = gen.big_docs(seed, b["depth"] // k, b["feed_items"] // k,
                            b["wide_entries"] // k)
        files = gen.wide_docs(seed, b["corpus_docs"], b["corpus_entries"])
        spares = gen.wide_docs(seed, c["edits"], b["corpus_entries"],
                               stream="spare")
        served = ("library", gen.library_stream(seed, "sreq"))
        return {"docs": docs, "chunk": 1, "files": files,
                "corpus": None, "spares": spares, "served": served,
                "peak": peak}
    if wl == "corpus":
        corpus = gen.registry_corpus(seed, c["corpus_docs"])
        spare = gen.registry_corpus(seed + 10 ** 6, c["edits"],
                                    cross_dup=0, cross_ref=0, ghost=0)
        served = ("registry", gen.registry_stream(seed))
        return {"docs": corpus.docs, "chunk": c["chunk"],
                "files": corpus.docs, "corpus": corpus,
                "spares": spare.docs, "served": served,
                "peak": corpus.docs[:c["peak_sample"]]}
    docs = gen.library_docs(seed, c["docs"])
    spares = gen.library_docs(seed + 10 ** 6, c["edits"],
                              invalid=0, malformed=0, stream="spare")
    return {"docs": docs, "chunk": c["chunk"], "files": docs,
            "corpus": None, "spares": spares,
            "served": ("library", gen.serve_stream(seed)),
            "peak": docs[:c["peak_sample"]]}


# -- set-up: a cold CLI process --------------------------------------------------


def cli_setup(ctx: Ctx, doc, reps: int) -> "list[float]":
    """Wall time of ``python -m repro validate --engine auto DOC SCHEMA``
    in a fresh interpreter, ``reps`` times."""
    path = os.path.join(ctx.tmp, f"setup-{doc.doc_id}.xml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc.text)
    cmd = [sys.executable, "-m", "repro", "-q", "validate", "--engine",
           "auto", path, ctx.write_schema(doc.schema)]
    want = 0 if not doc.expect else 1
    times = []
    for _ in range(reps):
        with ctx.spans.span("setup.cli_validate"):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.tmp,
                                  capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
        ctx.outcome(None if proc.returncode == want else
                    f"cold validate exited {proc.returncode}, want {want}:"
                    f" {proc.stderr.decode(errors='replace')[-300:]}")
    return times


# -- in-process engines --------------------------------------------------------


class Inproc:
    """Closed-loop ``Validator.check(text, engine=e)`` over ``docs``.

    Each call validates one document and is timed on its own.  Each
    round gives every engine at least ``engine_s`` seconds of chunks,
    engines in turn so they share the host's conditions; every engine
    walks the documents in order, so each document is timed several
    times over a run.  :meth:`run` may be called several times; the
    timings pool.

    ``tracers`` maps a label to a span recorder; an engine's chunks go
    to the labels in turn, so a traced and an untraced label measured
    this way share the host's conditions too.
    """

    def __init__(self, ctx: Ctx, docs: list, chunk: int, tracers=None):
        self.ctx = ctx
        self.docs = docs
        self.chunk = chunk
        self.engine_s = ctx.cfg["inputs"]["engine_s"]
        self.tracers = tracers or {"": ctx.spans}
        self.validators = {d.schema: ctx.validator(d.schema) for d in docs}
        #: (label, engine) -> per document, its call times in seconds
        self.times: dict = {(label, e): [[] for _ in docs]
                            for label in self.tracers for e in ENGINES}
        self._json: dict = {}
        self._checked: set = set()
        self._pos = dict.fromkeys(self.times, 0)
        self._turn = dict.fromkeys(ENGINES, 0)

    def run(self, budget_s: float) -> None:
        """Chunks for ``budget_s`` seconds, and at least until every
        document has been timed under every label and engine."""
        deadline = time.perf_counter() + budget_s
        labels = list(self.tracers)
        while True:
            for engine in ENGINES:
                spent = 0.0
                while spent < self.engine_s:
                    label = labels[self._turn[engine] % len(labels)]
                    self._turn[engine] += 1
                    spent += self._chunk(label, engine)
            if time.perf_counter() >= deadline and all(
                    all(per_doc) for per_doc in self.times.values()):
                return

    def _chunk(self, label: str, engine: str) -> float:
        span = self.tracers[label].span
        times = self.times[label, engine]
        pos = self._pos[label, engine]
        self._pos[label, engine] += self.chunk
        elapsed = 0.0
        for k in range(pos, pos + self.chunk):
            i = k % len(self.docs)
            doc = self.docs[i]
            v = self.validators[doc.schema]
            report = exc = None
            with span(f"engine.{engine}"):
                t0 = time.perf_counter()
                try:
                    report = v.check(doc.text, engine=engine)
                except Exception as e:  # classified below
                    exc = e
                t = time.perf_counter() - t0
            times[i].append(t)
            elapsed += t
            if (doc.doc_id, engine) not in self._checked:
                self._checked.add((doc.doc_id, engine))
                self.ctx.outcome(self._verdict(doc, engine, report, exc))
        self.ctx.probe_host("inproc", 0.1 * elapsed)
        return elapsed

    def pass_s(self, engine: str, label: str = "") -> float:
        """Seconds for one pass over the documents, each at its median
        call."""
        return sum(stats.median(ts) for ts in self.times[label, engine])

    def docs_per_s(self, engine: str) -> float:
        return len(self.docs) / self.pass_s(engine)

    def mb_per_s(self, engine: str) -> float:
        return sum(d.nbytes for d in self.docs) / self.pass_s(engine) / 1e6

    def describe(self, engine: str) -> str:
        """Call count and the spread of single calls, per document."""
        per_doc = self.times["", engine]
        calls = [t / stats.median(ts) for ts in per_doc for t in ts]
        return (f"{len(self.docs)} docs x {min(map(len, per_doc))}-"
                f"{max(map(len, per_doc))} calls; a call / the doc's "
                "median: " + stats.describe(calls, "x"))

    def _verdict(self, doc, engine: str, report, exc) -> "str | None":
        """Known answer, and ``to_json()`` identical across engines."""
        problem = check_report(doc, report, exc)
        if problem is None and report is not None:
            js = report.to_json()
            if js != self._json.setdefault(doc.doc_id, js):
                problem = f"{doc.doc_id}: {engine} to_json() differs " \
                          "from another engine's"
        return problem


def peak(ctx: Ctx, docs: list) -> dict:
    """Largest tracemalloc peak (bytes) of one validation per engine;
    inputs and warm validators exist before tracing starts.  Each
    validation starts from a fresh collection, so the collector runs at
    the same points of it every time: left to run wherever its counters
    stood, it moved the deep chain's batch peak by up to 10%."""
    validators = {d.schema: ctx.validator(d.schema) for d in docs}
    out = {}
    for engine in ENGINES:
        worst = 0
        tracemalloc.start()
        try:
            for doc in docs:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                with ctx.spans.span(f"peak.{engine}"):
                    try:
                        validators[doc.schema].check(doc.text, engine=engine)
                    except Exception:
                        pass
                worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        out[engine] = worst
    return out


# -- the served path ------------------------------------------------------------


class Serve:
    """One ``serve --stdio --cache <fresh dir>`` child for the whole run,
    fed open loop in slices: nominal-rate segments and ladder probes a
    few at a time, so both spread over the run.

    The child runs on its own CPUs, the client threads on another
    (:func:`client.cpu_split`).  The serving yardstick
    (``refserve.py``) shares the child's CPUs; each nominal segment is
    sent to both, in turn, so the latency can be read at the reference
    host's."""

    def __init__(self, ctx: Ctx, schema: str, source):
        self.ctx = ctx
        self.cfg = ctx.cfg["serve"]
        self.schema = gen.SCHEMAS[schema]
        self.source = source
        self.rungs = stats.ladder(self.cfg["base"], self.cfg["factor"],
                                  self.cfg["rungs"])
        start = min(range(len(self.rungs)), key=lambda i: abs(
            self.rungs[i] - self.cfg["nominal"] * self.cfg["start_ratio"]))
        self.search = stats.Staircase(len(self.rungs), start,
                                      self.cfg["stride"],
                                      self.cfg["hover_probes"])
        self.rng = random.Random(f"perfbench:arrivals:{ctx.seed}")
        self.spawn: list = []
        self.load: list = []
        self.nominal: list = []
        #: the serving yardstick's latencies (ms) on the nominal segments
        self.reference: list = []
        self.steps: list = []
        #: the child's own ``metrics`` op at close, for the traced run
        self.metrics: dict = {}
        self.client_cpus, self.server_cpus = client.cpu_split()
        self.server = self._start()
        try:
            self.ref = client.start_reference(
                ctx.env, ctx.mkdtemp("refserve"), ctx.tmp, self.server_cpus)
        except BaseException:
            self.server.close()
            raise

    def _start(self):
        with self.ctx.spans.span("setup.serve_spawn_load"):
            server, spawn, load = client.start_server(
                self.ctx.env, self.ctx.mkdtemp("serve-cache"), self.ctx.tmp,
                *self.schema, cpus=self.server_cpus)
        self.spawn.append(spawn)
        self.load.append(load)
        return server

    def _step(self, rate: float, docs: list, name: str):
        gaps = [self.rng.expovariate(rate) for _ in docs]
        with self.ctx.spans.span(name):
            res = client.run_step(self.server, docs, gaps,
                                  cpus=self.client_cpus)
        for doc, reply in zip(docs, res.replies):
            self.ctx.outcome(client.check_reply(doc, reply))
        return res

    def _draw(self, n: int) -> list:
        return [next(self.source) for _ in range(n)]

    def _reference(self, docs: list) -> None:
        """``docs`` again, to the serving yardstick, at the nominal rate."""
        gaps = [self.rng.expovariate(self.cfg["nominal"]) for _ in docs]
        with self.ctx.spans.span("serve.reference"):
            res = client.run_step(self.ref, docs, gaps,
                                  cpus=self.client_cpus)
        if not all(reply and reply.get("ok") for reply in res.replies):
            raise RuntimeError("the serving yardstick lost a reply")
        self.reference += res.latencies_ms

    def warmup(self) -> None:
        rate = self.cfg["nominal"]
        docs = self._draw(round(rate * self.cfg["warmup_s"]))
        self._step(rate, docs, "serve.warmup")
        self._reference(docs)
        self.reference.clear()

    def nominal_slice(self, n: int) -> None:
        """``n`` requests at the nominal rate in segments of ``segment``;
        each segment goes to the server and to the serving yardstick,
        which goes first every other time."""
        rate, seg = self.cfg["nominal"], self.cfg["segment"]
        for k in range(0, n, seg):
            docs = self._draw(min(seg, n - k))
            ref_first = len(self.nominal) % 2 == 1
            if ref_first:
                self._reference(docs)
            self.nominal.append(self._step(rate, docs, "serve.nominal"))
            if not ref_first:
                self._reference(docs)

    def probe(self) -> bool:
        """Run the staircase's next rung; False once it is done."""
        i = self.search.next()
        if i is None:
            return False
        rate = self.rungs[i]
        res = self._step(rate, self._draw(self.cfg["probe_samples"]),
                         "serve.ladder_step")
        ok = stats.step_passes(res.latencies_ms, self.cfg["limit_ms"],
                               res.backlog)
        self.search.record(i, ok)
        self.steps.append((rate, ok, res))
        return True

    @property
    def max_rate(self) -> float:
        best = self.search.best
        return self.rungs[best] if best >= 0 else self.rungs[0] / 2

    def close(self) -> None:
        try:
            self.metrics = self.server.call({"op": "metrics",
                                             "format": "json"})
        finally:
            self.ref.close()
            self.server.close()


# -- corpus and shards -----------------------------------------------------------


class Fleet:
    """Two ``serve --stdio`` shard nodes, spawned before any corpus
    pass; coordinators borrow them through ``node_factory``."""

    def __init__(self, ctx: Ctx, handle):
        from repro.shard import SubprocessNode
        from repro.xmlio.dtdparse import serialize_dtdc

        self.nodes: list = []
        t0 = time.perf_counter()
        try:
            for s in range(2):
                node = SubprocessNode(f"shard-{s}")
                self.nodes.append(node)
                node.request({"op": "ping"})
            self.spawn_s = time.perf_counter() - t0
            text = serialize_dtdc(handle.dtd)
            for node in self.nodes:
                node.load_schema("setup", text, handle.dtd.structure.root,
                                 handle.fingerprint)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def node(self, name: str):
        return self.nodes[int(name.rsplit("-", 1)[1])]

    def close(self) -> None:
        for node in self.nodes:
            node.close()
        self.nodes = []


def write_docs(ctx: Ctx, docs: list, name: str) -> list:
    """Each document as ``<doc_id>.xml`` in a fresh directory."""
    folder = ctx.mkdtemp(name)
    paths = []
    for doc in docs:
        path = os.path.join(folder, f"{doc.doc_id}.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.text)
        paths.append(path)
    return paths


def _findings(report, by_path: dict) -> list:
    return sorted((f.code, f.constraint,
                   tuple(by_path[p].doc_id for p in f.documents))
                  for f in report.corpus_violations)


def _verdict_problem(verdict, doc) -> "str | None":
    if doc.error is not None:
        if verdict.error is None or \
                gen.SYNTAX_MARKERS[doc.error] not in verdict.error:
            return f"{doc.doc_id}: expected {doc.error}, got " \
                   f"{verdict.error!r}"
        return None
    got = sorted(x.to_dict()["constraint"] for x in verdict.violations)
    if got != sorted(doc.expect) or verdict.error is not None:
        return f"{doc.doc_id}: corpus verdict {got} {verdict.error}, " \
               f"expected {sorted(doc.expect)}"
    return None


class Corpus:
    """The workload's documents as files: cold serial and sharded passes
    through one fleet spawned at set-up, and ``WatchSession.poll()``
    after one-file edits of a copy, both in slices over the run."""

    def __init__(self, ctx: Ctx, fam: dict):
        from repro.corpus import ResultCache
        from repro.shard import ShardedCorpusValidator, WatchSession

        self.ctx = ctx
        docs = fam["files"]
        self.expected = fam["corpus"]
        self.validator = ctx.validator(docs[0].schema)
        self.handle = self.validator.handle
        self.paths = write_docs(ctx, docs, "corpus")
        self.by_path = dict(zip(self.paths, docs))
        self.fleets: list = []
        self.serial: list = []
        self.shards: list = []
        self.edit_ms: list = []
        self.revalidated: list = []
        self.fleet = self._spawn()
        try:
            self.ship = ShardedCorpusValidator(
                self.handle, shards=2, engine="auto",
                node_factory=self.fleet.node, schema_name="bench-a")
            with ctx.spans.span("corpus.shards_warmup"):
                self.ship.validate(self.paths)
            # watch edits work on a copy; the timed passes keep theirs
            self.watched = write_docs(ctx, docs, "watch")
            self.session = WatchSession(ShardedCorpusValidator(
                self.handle, shards=2, engine="auto", cache=ResultCache(),
                node_factory=self.fleet.node, schema_name="bench-b"),
                self.watched)
            with ctx.spans.span("watch.first_poll"):
                self.session.poll()
            with ctx.spans.span("watch.idle_poll"):
                t0 = time.perf_counter()
                idle = self.session.poll()
                self.idle_ms = (time.perf_counter() - t0) * 1e3
            ctx.outcome(None if idle is None else
                        "idle poll revalidated files")
        except BaseException:
            self.close()
            raise
        self._spares = iter(enumerate(fam["spares"]))
        self._checked = False

    def _spawn(self) -> Fleet:
        with self.ctx.spans.span("setup.fleet_spawn_load"):
            fleet = Fleet(self.ctx, self.handle)
        self.fleets.append((fleet.spawn_s, fleet.setup_s))
        return fleet

    def setup_rep(self) -> None:
        """Time one more fleet spawn-and-load, then close it."""
        self._spawn().close()

    def passes(self, budget_s: float) -> None:
        """Alternate cold serial and sharded passes for ``budget_s``."""
        ctx = self.ctx
        deadline = time.perf_counter() + budget_s
        while True:
            with ctx.spans.span("corpus.serial"):
                t0 = time.perf_counter()
                serial = self.validator.check_corpus(self.paths, jobs=1,
                                                     engine="auto")
                dt = time.perf_counter() - t0
                self.serial.append(len(self.paths) / dt)
            ctx.probe_host("serial", 0.1 * dt)
            with ctx.spans.span("corpus.shards"):
                t0 = time.perf_counter()
                sharded = self.ship.validate(self.paths)
                dt = time.perf_counter() - t0
                self.shards.append(len(self.paths) / dt)
            ctx.probe_host("shards", 0.1 * dt)
            if not self._checked:
                self._checked = True
                for verdict in serial.verdicts:
                    ctx.outcome(_verdict_problem(
                        verdict, self.by_path[verdict.doc_id]))
            ctx.outcome(None if sharded.verdicts_json()
                        == serial.verdicts_json() else
                        "sharded verdicts_json differs from serial")
            if self.expected is not None:
                got = _findings(sharded, self.by_path)
                resolved = sharded.merge_stats.get(
                    "refs_resolved_cross_document")
                ctx.outcome(None if got == self.expected.findings and
                            resolved == self.expected.resolved_cross_document
                            else f"corpus findings {got} != "
                            f"{self.expected.findings}")
            if time.perf_counter() >= deadline:
                return

    def edits(self, k: int) -> None:
        """Rewrite ``k`` watched files with spares and time each poll."""
        for _ in range(k):
            i, spare = next(self._spares, (None, None))
            if spare is None:
                return
            path = self.watched[i % len(self.watched)]
            before = os.stat(path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spare.text)
            # a same-size rewrite inside one mtime tick would be invisible
            # to the (size, mtime) fast path: move mtime on explicitly
            os.utime(path, ns=(before.st_atime_ns,
                               before.st_mtime_ns + 1_000_000_000))
            with self.ctx.spans.span("watch.edit_poll"):
                t0 = time.perf_counter()
                delta = self.session.poll()
                self.edit_ms.append((time.perf_counter() - t0) * 1e3)
            self.ctx.probe_host("edit")
            changed = [] if delta is None else delta.changed
            self.revalidated.append(len(changed))
            problem = None
            if changed != [path]:
                problem = f"watch edit of {path} revalidated {changed}"
            else:
                verdict = next(v for v in delta.report.verdicts
                               if v.doc_id == path)
                problem = _verdict_problem(verdict, spare)
            self.ctx.outcome(problem)

    def close(self) -> None:
        self.fleet.close()
