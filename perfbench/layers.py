"""The traced run: per-layer metrics, self-time tables, import breakdown.

Every layer is measured from outside, by timing calls into its public
functions, each call wrapped in a span of the benchmark's own
:class:`spans.SpanRecorder`.  The run first repeats the workload's
end-to-end stages with spans on (its self-time table shows where the
workload's wall time went), then measures the tracing overhead in one
loop whose chunks alternate between traced and untraced, then probes
each layer on the input family the layer's target metric is measured
on.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import gen
import spans
import stages
import stats

#: (position in Σ, metric suffix) per generator schema
EVAL_CLASSES = {
    "library": ((0, "key"), (1, "composite_key"), (2, "fk")),
    "registry": ((0, "id"), (1, "idref_fk")),
}
#: subpackages whose cumulative import time is reported
IMPORT_SUBPACKAGES = ("analysis", "synthesis", "server", "shard",
                      "implication", "codegen", "obs", "corpus",
                      "workloads")


def _put(ctx, name: str, value: float, unit: str, note: str = "") -> None:
    ctx.layer[name] = {"value": value, "unit": unit}
    print(f"  {name:<34} {value:>12.5g} {unit:<7} {note}")


def _timed(rec, name: str, fn, *args):
    """``(seconds, result)`` of one call, inside a span."""
    with rec.span(name):
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out


def traced_run(ctx) -> None:
    import run

    rec = ctx.spans
    wl = ctx.workload
    with rec.span(f"workload.{wl}"):
        run.run_e2e(ctx, ladder=True)
    print()
    print(spans.self_time_table(rec.spans, 0))
    # traced and untraced chunks alternate in one loop, so both halves
    # see the same stretch of the host
    fam = ctx.last["fam"]
    paired = stages.Inproc(ctx, fam["docs"], fam["chunk"], tracers={
        "traced": rec, "untraced": spans.NullSpans()})
    with rec.span("trace.overhead"):
        paired.run(ctx.cfg["budget"][wl]["inproc"] * ctx.seconds)
    over = [paired.pass_s(e, "traced") / paired.pass_s(e, "untraced") - 1
            for e in stages.ENGINES]
    print("\ntracing overhead on in-process time: "
          + ", ".join(f"{e} {o * 100:+.1f}%"
                      for e, o in zip(stages.ENGINES, over)))
    root = len(rec.spans)
    with rec.span("layers"):
        print(f"\n[{wl}] per-layer metrics")
        _put(ctx, "trace.overhead_pct", sum(over) / len(over) * 100, "%",
             "traced over untraced in-process time - 1, mean over "
             "engines")
        docs_layers(ctx)
        depth_ratio(ctx)
        stream_codegen(ctx)
        dispatch(ctx)
        server_layers(ctx)
        corpus_layers(ctx)
        shard_layers(ctx)
        obs_ratio(ctx)
        cli_layers(ctx)
    print()
    print(spans.self_time_table(rec.spans, root))
    out = os.path.join(ctx.root, ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{wl}-{ctx.seed}.json")
    rec.dump(path)
    print(f"spans written to {os.path.relpath(path, ctx.root)}")


# -- xmlio, datamodel, dtd, constraints (library + registry docs) ------------


def _library_sample(ctx, n: int = 120) -> list:
    return gen.library_docs(ctx.seed, n, stream="layer")


def docs_layers(ctx) -> None:
    """Batch validation one layer at a time, against the black box."""
    from repro import engines
    from repro.constraints.checker import check, check_constraint
    from repro.datamodel.indexes import AttributeIndex
    from repro.dtd.validate import validate_structure
    from repro.errors import XMLSyntaxError
    from repro.xmlio.parser import parse_document
    from repro.xmlio.tokenizer import Tokenizer

    rec = ctx.spans
    docs = _library_sample(ctx)
    good = [d for d in docs if d.error is None]
    bad = [d for d in docs if d.error is not None]
    acc: dict = {}

    def add(key: str, value: float) -> None:
        acc.setdefault(key, []).append(value)

    for schema, sample in (("library", good),
                           ("registry", gen.registry_corpus(ctx.seed, 60,
                                                            prefix="L").docs)):
        handle = ctx.validator(schema).handle
        dtd = handle.dtd
        structure = dtd.structure
        id_map = structure.id_attribute_map()
        blackbox = engines.create("batch", handle)
        for doc in sample:
            with rec.span("batch.layered"):
                t_tok, n_tok = _timed(
                    rec, "xmlio.tokenize",
                    lambda: sum(1 for _ in Tokenizer(doc.text).tokens()))
                t_parse, tree = _timed(rec, "xmlio.parse", parse_document,
                                       doc.text, structure)
                t_struct, _r = _timed(rec, "dtd.structure",
                                      validate_structure, tree, structure)
                t_index, index = _timed(rec, "datamodel.index",
                                        AttributeIndex, tree, id_map)
                t_eval = 0.0
                for pos, cls in EVAL_CLASSES[schema]:
                    phi = dtd.constraints[pos]
                    t, holds = _timed(
                        rec, f"constraints.eval.{cls}",
                        lambda: check_constraint(tree, phi, structure,
                                                 index=index))
                    t_eval += t
                    add(f"eval.{cls}", t)
                    ctx.outcome(None if holds == (str(phi) not in doc.expect)
                                else f"{doc.doc_id}: check_constraint({phi})"
                                f" = {holds}")
            t_check, report = _timed(rec, "constraints.check", check, tree,
                                     dtd.constraints, structure)
            t_black, _r = _timed(rec, "engines.batch_blackbox",
                                 blackbox.validate, doc.text)
            if schema != "library":
                continue
            add("tokenize", t_tok)
            add("bytes", doc.nbytes)
            add("tokens", n_tok)
            add("parse", t_parse)
            add("structure", t_struct)
            add("index", t_index)
            add("check", t_check)
            add("vertices", tree.size())
            add("violations", len(report.violations))
            add("gap", t_black - (t_parse + t_struct + t_index + t_eval))
            ctx.outcome(stages.check_report(doc, report, None))
    for doc in bad:
        with rec.span("xmlio.parse_error"):
            t0 = time.perf_counter()
            try:
                parse_document(doc.text, ctx.validator("library").dtd.structure)
                problem = f"{doc.doc_id}: malformed document parsed"
            except XMLSyntaxError:
                problem = None
            add("error", time.perf_counter() - t0)
        ctx.outcome(problem)

    def us(key: str) -> float:
        return stats.median(acc[key]) * 1e6

    n = len(acc["parse"])
    _put(ctx, "xmlio.tokenize_mb_per_s",
         sum(acc["bytes"]) / sum(acc["tokenize"]) / 1e6, "MB/s",
         f"Tokenizer(text).tokens() over {n} library docs")
    _put(ctx, "xmlio.tokens_per_doc", stats.median(acc["tokens"]), "count")
    _put(ctx, "xmlio.parse_us_per_doc", us("parse"), "us")
    _put(ctx, "xmlio.error_us_per_doc", us("error"), "us",
         f"{len(acc['error'])} malformed docs to XMLSyntaxError")
    _put(ctx, "datamodel.build_us_per_doc", us("parse") - us("tokenize"),
         "us", "derived: parse minus tokenize")
    _put(ctx, "datamodel.index_us_per_doc", us("index"), "us")
    _put(ctx, "datamodel.vertices_per_doc", stats.median(acc["vertices"]),
         "count")
    _put(ctx, "dtd.structure_us_per_doc", us("structure"), "us")
    _put(ctx, "constraints.check_us_per_doc", us("check"), "us")
    for _schema, classes in EVAL_CLASSES.items():
        for _pos, cls in classes:
            _put(ctx, f"constraints.eval_us.{cls}", us(f"eval.{cls}"), "us")
    found = sum(acc["violations"])
    known = sum(len(d.expect) for d in good)
    ctx.outcome(None if found == known else
                f"check() found {found} violations, known answer {known}")
    _put(ctx, "constraints.violations", found, "count",
         f"known answer {known}")
    _put(ctx, "engines.batch_gap_us", us("gap"), "us",
         "black-box batch minus parse+structure+index+evals")


def depth_ratio(ctx) -> None:
    """Per-vertex cost at depth D over the cost at D/divisor."""
    c = ctx.cfg["depth_ratio"]
    deep = gen.chain_doc(c["depth"])
    shallow = gen.chain_doc(c["depth"] // c["divisor"])
    v = ctx.validator("chain")
    for e in stages.ENGINES:
        cost = {}
        for doc, reps in ((shallow, 5), (deep, 1 if e == "batch" else 3)):
            times = []
            for _ in range(reps):
                t, report = _timed(ctx.spans, f"depth.{e}",
                                   lambda: v.check(doc.text, engine=e))
                times.append(t)
            ctx.outcome(stages.check_report(doc, report, None))
            cost[doc] = stats.median(times) / doc.text.count("<node")
        _put(ctx, f"datamodel.depth_cost_ratio.{e}",
             cost[deep] / cost[shallow], "ratio",
             f"depth {c['depth']} vs {c['depth'] // c['divisor']}")


# -- stream and codegen ------------------------------------------------------------


def stream_codegen(ctx) -> None:
    from repro.codegen import CodegenValidator, compile_schema, generate_source
    from repro.stream import StreamValidator, compile_plan

    rec = ctx.spans
    handle = ctx.validator("library").handle
    compile_t = [_timed(rec, "stream.compile_plan", compile_plan,
                        handle.dtd)[0] for _ in range(5)]
    _put(ctx, "stream.compile_plan_ms", stats.median(compile_t) * 1e3, "ms")
    plan = handle.plan
    gen_t, source = [], ""
    for _ in range(3):
        t, source = _timed(rec, "codegen.generate_source", generate_source,
                           plan, handle.fingerprint)
        gen_t.append(t)
    _put(ctx, "codegen.generate_ms", stats.median(gen_t) * 1e3, "ms",
         "cold generate_source; paid once per machine at set-up")
    _put(ctx, "codegen.source_kb", len(source) / 1024, "KB")
    load_t = [_timed(rec, "codegen.compile_schema", compile_schema, plan,
                     handle.fingerprint)[0] for _ in range(5)]
    _put(ctx, "codegen.cache_load_ms", stats.median(load_t) * 1e3, "ms",
         "compile_schema with a warm disk cache")
    docs = [d for d in _library_sample(ctx) if d.error is None]
    b = ctx.cfg["inputs"]["big"]
    big = gen.big_docs(ctx.seed, b["depth"], b["feed_items"],
                       b["wide_entries"])
    for layer, make in (("stream", lambda h: StreamValidator(h.plan)),
                        ("codegen", lambda h: CodegenValidator(h))):
        lib = make(handle)
        per_doc = []
        for doc in docs:
            t, report = _timed(rec, f"{layer}.validate_text",
                               lib.validate_text, doc.text)
            per_doc.append(t)
            ctx.outcome(stages.check_report(doc, report, None))
        secs, nbytes = 0.0, 0
        for doc in big:
            engine = make(ctx.validator(doc.schema).handle)
            t, report = _timed(rec, f"{layer}.validate_text",
                               engine.validate_text, doc.text)
            secs += t
            nbytes += doc.nbytes
            ctx.outcome(stages.check_report(doc, report, None))
        _put(ctx, f"{layer}.us_per_doc", stats.median(per_doc) * 1e6, "us")
        _put(ctx, f"{layer}.mb_per_s", nbytes / secs / 1e6, "MB/s",
             "over the big documents")


def dispatch(ctx) -> None:
    """``Validator.check(engine=)`` minus the direct validator call."""
    from repro.codegen import CodegenValidator
    from repro.dtd.validate import validate
    from repro.stream import StreamValidator
    from repro.xmlio.parser import parse_document

    v = ctx.validator("library")
    handle = v.handle
    sv = StreamValidator(handle.plan)
    cg = CodegenValidator(handle)
    direct = {
        "batch": lambda text: validate(
            parse_document(text, handle.dtd.structure), handle.dtd),
        "stream": sv.validate_text,
        "auto": cg.validate_text,
    }
    docs = [d for d in _library_sample(ctx) if d.error is None]
    for e in stages.ENGINES:
        via, raw = [], []
        for doc in docs:
            via.append(_timed(ctx.spans, f"engines.check.{e}",
                              lambda: v.check(doc.text, engine=e))[0])
            raw.append(_timed(ctx.spans, f"engines.direct.{e}", direct[e],
                              doc.text)[0])
        _put(ctx, f"engines.dispatch_us.{e}",
             (stats.median(via) - stats.median(raw)) * 1e6, "us")
    chosen = "codegen" if handle.supports_codegen() else "stream"
    print(f"  auto chose {chosen!r} for the library schema")


# -- server, corpus cache, shards --------------------------------------------------


def _handle_times(ctx, schema: str, docs: list) -> dict:
    """In-process ``ValidationServer.handle_request`` seconds per kind:
    first sight (miss), re-submission (hit) and malformed (error)."""
    import client
    from repro import ValidationServer
    from repro.corpus import ResultCache

    text, root = gen.SCHEMAS[schema]
    srv = ValidationServer(cache=ResultCache())
    srv.handle_request({"op": "load", "name": "s", "schema": text,
                        "root": root})
    times: dict = {"miss": [], "hit": [], "error": []}
    for kind in ("miss", "hit"):
        for doc in docs:
            t, (payload, _status) = _timed(
                ctx.spans, f"server.handle.{kind}", srv.handle_request,
                {"op": "validate", "schema": "s", "document": doc.text})
            key = "error" if doc.error is not None else kind
            if kind == "hit" and key == "error":
                continue
            times[key].append(t)
            ctx.outcome(client.check_reply(doc, payload))
    return times


def server_layers(ctx) -> None:
    times = _handle_times(ctx, "library", _library_sample(ctx))
    for kind, ts in times.items():
        _put(ctx, f"server.handle_us.{kind}", stats.median(ts) * 1e6, "us",
             f"in-process handle_request on library docs, n={len(ts)}")
    served = ctx.last["fam"]["served"][0]
    if served != "library":
        times = _handle_times(ctx, served, gen.registry_corpus(
            ctx.seed, 60, prefix="S").docs)
    sv = ctx.last["serve"]
    _put(ctx, "server.spawn_ms", stats.median(sv.spawn) * 1e3, "ms")
    _put(ctx, "server.load_ms", stats.median(sv.load) * 1e3, "ms")
    lat = [x for res in sv.nominal for x in res.latencies_ms]
    _put(ctx, "serve.p99_ms", stats.percentile(lat, 0.99), "ms",
         f"nominal rate, n={len(lat)}; printed, not gated, by the "
         "untraced run")
    _put(ctx, "serve.max_rate", sv.max_rate, "req/s",
         f"staircase over {len(sv.steps)} probes; searched only in the "
         "traced run")
    lag = [x for res in sv.nominal for x in res.send_lag_ms]
    _put(ctx, "serve.send_lag_ms", stats.percentile(lag, 0.99), "ms",
         "p99 lateness of the open-loop writer at the nominal rate")
    _put(ctx, "serve.backlog_max",
         max(max(res.backlog) for res in sv.nominal), "count",
         "outstanding requests, nominal rate")
    # the nominal rate is low: a miss's round trip there is transport
    # plus handling, with little queueing
    misses = [x for res in sv.nominal
              for x, reply in zip(res.latencies_ms, res.replies)
              if reply and reply.get("ok") and not reply.get("cached")]
    _put(ctx, "server.transport_us",
         stats.median(misses) * 1e3 - stats.median(times["miss"]) * 1e6,
         "us", "nominal-rate round trip of a miss minus handle_us.miss")
    counts: dict = {}
    for m in sv.metrics["metrics"]["metrics"]:
        counts[m["name"]] = counts.get(m["name"], 0) + m.get("value", 0)
    hits = counts.get("serve_cache_hits", 0)
    lookups = counts.get("serve_documents_validated", 0)
    _put(ctx, "corpus.cache_hit_ratio", hits / lookups if lookups else 0.0,
         "ratio", f"{hits} of {lookups}, from the run's serve child's "
         "metrics op")


def corpus_layers(ctx) -> None:
    from repro.corpus import CorpusValidator, ResultCache
    from repro.corpus.cache import result_key

    rec = ctx.spans
    handle = ctx.validator("library").handle
    docs = [d for d in _library_sample(ctx) if d.error is None]
    reports = [ctx.validator("library").check(d.text, engine="auto")
               for d in docs]
    keys, key_t = [], []
    for doc in docs:
        t, key = _timed(rec, "corpus.result_key", result_key, doc.text,
                        handle.fingerprint)
        keys.append(key)
        key_t.append(t)
    folder = ctx.mkdtemp("result-cache")
    cache = ResultCache(directory=folder)
    put_t = [_timed(rec, "corpus.cache_put", cache.put, k, r)[0]
             for k, r in zip(keys, reports)]
    cold = ResultCache(directory=folder)
    get_t = []
    for k, r in zip(keys, reports):
        t, got = _timed(rec, "corpus.cache_get", cold.get, k)
        get_t.append(t)
        ctx.outcome(None if got is not None and got.to_json() == r.to_json()
                    else f"cache entry {k[:12]} did not round-trip")
    _put(ctx, "corpus.key_us_per_doc", stats.median(key_t) * 1e6, "us")
    _put(ctx, "corpus.cache_put_us", stats.median(put_t) * 1e6, "us")
    _put(ctx, "corpus.cache_get_us", stats.median(get_t) * 1e6, "us",
         "disk read through a fresh ResultCache")
    corpus = gen.registry_corpus(ctx.seed, ctx.cfg["inputs"]["corpus_docs"])
    paths = stages.write_docs(ctx, corpus.docs, "layer-corpus")
    reg = ctx.validator("registry").handle
    t, report = _timed(rec, "corpus.pool_jobs2",
                       CorpusValidator(reg, jobs=2, engine="auto").validate,
                       paths)
    ctx.outcome(None if report.n_errors == 0 and len(report) == len(paths)
                else "pooled corpus run lost documents")
    _put(ctx, "corpus.pool_docs_per_s", len(paths) / t, "docs/s",
         "CorpusValidator(jobs=2), pool start included")


def shard_layers(ctx) -> None:
    from repro.shard import classify_sigma, fold_aggregates, shard_of
    from repro.xmlio.dtdparse import serialize_dtdc

    rec = ctx.spans
    handle = ctx.validator("registry").handle
    dtd = handle.dtd
    t0 = time.perf_counter()
    for _ in range(200):
        with rec.span("shard.classify_sigma"):
            classify_sigma(dtd)
    _put(ctx, "shard.classify_us", (time.perf_counter() - t0) / 200 * 1e6,
         "us")
    corpus = gen.registry_corpus(ctx.seed, ctx.cfg["inputs"]["corpus_docs"])
    by_shard: dict = {0: [], 1: []}
    for doc in corpus.docs:
        by_shard[shard_of(doc.text.encode(), 2)].append(doc)
    sizes = [len(v) for v in by_shard.values()]
    _put(ctx, "shard.partition_skew", max(sizes) / (sum(sizes) / 2), "ratio",
         f"shard sizes {sizes}")
    fleet = stages.Fleet(ctx, handle)
    try:
        _put(ctx, "shard.spawn_ms", fleet.spawn_s * 1e3, "ms",
             "two serve --stdio nodes, until both answer")
        text = serialize_dtdc(dtd)
        rtt, ship, aggs = [], [], {}
        for s, node in enumerate(fleet.nodes):
            node.load_schema("probe", text, dtd.structure.root,
                             handle.fingerprint)
            pairs = [(d.doc_id, d.text) for d in by_shard[s]]
            ship.append(len(json.dumps(
                {"op": "check-shard", "schema": "probe", "documents":
                 [list(p) for p in pairs], "aggregates": True,
                 "engine": "auto"})) / 1024)
            for _ in range(3):
                t, resp = _timed(rec, "shard.check_shard", node.check_shard,
                                 "probe", pairs, "auto")
                rtt.append(t)
            aggs.update(resp["aggregates"])
    finally:
        fleet.close()
    _put(ctx, "shard.check_shard_ms", stats.median(rtt) * 1e3, "ms",
         "round trip of one batch (half the corpus)")
    _put(ctx, "shard.ship_kb", stats.median(ship), "KB", "request per batch")
    doc_aggs = [(d.doc_id, aggs.get(d.doc_id, {})) for d in corpus.docs]
    fold_t, found = [], None
    for _ in range(5):
        t, (found, merge) = _timed(rec, "shard.fold_aggregates",
                                   fold_aggregates, dtd, doc_aggs)
        fold_t.append(t)
    got = sorted((f.code, f.constraint, tuple(f.documents)) for f in found)
    ctx.outcome(None if got == corpus.findings and
                merge["refs_resolved_cross_document"]
                == corpus.resolved_cross_document
                else f"fold found {got}, expected {corpus.findings}")
    _put(ctx, "shard.fold_ms", stats.median(fold_t) * 1e3, "ms")
    cp = ctx.last["corpus"]
    _put(ctx, "shard.watch_poll_ms.idle", cp.idle_ms, "ms")
    _put(ctx, "shard.watch_revalidated", stats.median(cp.revalidated),
         "count", "files revalidated per one-file edit (must be 1)")


def obs_ratio(ctx) -> None:
    """auto throughput with a live Observability over the no-op one."""
    from repro import Observability, Validator

    docs = _library_sample(ctx)
    plain = ctx.validator("library")
    traced = Validator(plain.handle, obs=Observability())
    rates: dict = {"off": [], "on": []}
    for _round in range(6):
        for key, v in (("off", plain), ("on", traced)):
            t0 = time.perf_counter()
            with ctx.spans.span(f"obs.auto_{key}"):
                for doc in docs:
                    try:
                        v.check(doc.text, engine="auto")
                    except Exception:   # the malformed share
                        pass
            rates[key].append(len(docs) / (time.perf_counter() - t0))
    _put(ctx, "obs.enabled_ratio",
         stats.median(rates["on"]) / stats.median(rates["off"]), "ratio",
         "docs_per_s.auto with Observability() / with the no-op default")


# -- import time ------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_breakdown(stderr: str) -> dict:
    """Cumulative microseconds per module from ``-X importtime``."""
    out: dict = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out.setdefault(m.group(4), int(m.group(2)))
    return out


def cli_layers(ctx) -> None:
    rec = ctx.spans
    runs, bare = [], []
    for _ in range(3):
        with rec.span("cli.importtime"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c",
                 "import repro, repro.codegen"],
                env=ctx.env, cwd=ctx.tmp, capture_output=True, text=True,
                timeout=120)
        ctx.outcome(None if proc.returncode == 0 else
                    f"import repro failed: {proc.stderr[-300:]}")
        runs.append(import_breakdown(proc.stderr))
        t, _p = _timed(rec, "cli.interpreter", subprocess.run,
                       [sys.executable, "-c", "pass"])
        bare.append(t)
    total = stats.median(r.get("repro", 0) for r in runs) / 1e3
    _put(ctx, "cli.import_ms", total, "ms",
         "-X importtime, cumulative for import repro")
    _put(ctx, "cli.interpreter_ms", stats.median(bare) * 1e3, "ms",
         "python -c pass, wall")
    print("  import breakdown (cumulative ms, median of 3; a subpackage"
          " that import repro skips is timed on its own first import):")
    for sub in IMPORT_SUBPACKAGES:
        ms = stats.median(r.get(f"repro.{sub}", 0) for r in runs) / 1e3
        _put(ctx, f"cli.import_ms.{sub}", ms, "ms",
             f"{ms / total * 100:.0f}% of cli.import_ms")
