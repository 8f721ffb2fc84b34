"""perfbench: one benchmark for every validation path of ``repro``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload docs --seed 1 --seconds 16 --trace 0

``--workload`` is one of ``docs``, ``big``, ``corpus`` (see
``perfbench/README.md``).  Inputs are generated from ``--seed`` by
``perfbench/gen.py`` with a known answer for every document; every
verdict is checked.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and the self-time tables.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run works in its own directory under ``.perfbench-tmp/`` (result
caches, the codegen source cache, corpus files) and removes it on
exit; traced runs leave their span file in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("docs", "big", "corpus")


def _isolated_env(tmp: str) -> dict:
    """Environment for this process and its children: the checkout's
    sources, and every cache inside this run's own directory."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CODEGEN_CACHE"] = os.path.join(tmp, "codegen")
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg-cache")
    return env


def run_e2e(ctx, ladder: bool = False) -> None:
    """The untraced run: every end-to-end metric on this workload.

    The run is a number of rounds; each round takes a slice of every
    stage (a set-up, in-process chunks, nominal-rate serve segments,
    corpus passes and watch edits, and with ``ladder`` the serve
    staircase's probes), so each metric's samples spread over the whole
    run and one slow stretch of the host weighs less.  The serve child
    and the shard fleet stay up for the run and take turns: at most two
    processes work at any moment.
    """
    import stages
    import stats

    cfg = ctx.cfg
    wl = ctx.workload
    fam = stages.family(ctx)
    for schema in {d.schema for d in fam["docs"]} | {fam["served"][0]}:
        ctx.validator(schema).handle.codegen   # users compile once
    # inputs are built: keep the collector from re-scanning them, so a
    # measured call pays only for its own garbage
    gc.collect()
    gc.freeze()
    rounds = cfg["rounds"]
    share = cfg["budget"][wl]
    scfg = cfg["serve"]
    nominal_n = math.ceil(scfg["nominal_samples"] / rounds)
    edits = math.ceil(len(fam["spares"]) / rounds)
    # the staircase's seeking probes (about three) plus its hovering ones
    probes = math.ceil((scfg["hover_probes"] + 3) / rounds) if ladder \
        else 0
    first = next(d for d in fam["docs"] if d.error is None)
    if wl != "corpus":
        stages.cli_setup(ctx, first, 1)        # bytecode, codegen cache
    inp = stages.Inproc(ctx, fam["docs"], fam["chunk"])
    serve = stages.Serve(ctx, *fam["served"])
    try:
        corpus = stages.Corpus(ctx, fam)
        try:
            serve.warmup()
            setup: list = []
            for _ in range(rounds):
                if wl == "corpus":
                    corpus.setup_rep()
                else:
                    setup += stages.cli_setup(ctx, first, 1)
                inp.run(share["inproc"] * ctx.seconds / rounds)
                serve.nominal_slice(nominal_n)
                for _ in range(probes):
                    serve.probe()
                corpus.passes(share["corpus"] * ctx.seconds / rounds)
                corpus.edits(edits)
            while ladder and serve.probe():
                pass
        finally:
            corpus.close()
    finally:
        serve.close()
    peaks = stages.peak(ctx, fam["peak"])
    ctx.last = {"fam": fam, "inproc": inp, "serve": serve, "corpus": corpus}
    if wl == "corpus":
        setup = [total for _spawn, total in corpus.fleets]

    print(f"[{wl}] end-to-end metrics (seed {ctx.seed})")
    ctx.metric("setup_s", stats.median(setup), "s",
               f"median of {len(setup)} set-ups")
    # in-process and corpus throughputs are read at the reference host's
    # speed: the host's own speed drifts by 20-40% from minute to minute
    slow = {k: ctx.host_slowdown(k)
            for k in ("inproc", "serial", "shards", "edit")}
    print("  (host slowdown against the yardstick: " + ", ".join(
        f"{k} {v:.3f}" for k, v in slow.items()) + ")")
    for e in stages.ENGINES:
        ctx.metric(f"docs_per_s.{e}", inp.docs_per_s(e) * slow["inproc"],
                   "docs/s", f"as measured {inp.docs_per_s(e):.5g}; "
                   + inp.describe(e))
    for e in stages.ENGINES:
        ctx.metric(f"mb_per_s.{e}", inp.mb_per_s(e) * slow["inproc"],
                   "MB/s", f"as measured {inp.mb_per_s(e):.5g}")
    for e in stages.ENGINES:
        ctx.metric(f"peak_mb.{e}", peaks[e] / 1e6, "MB",
                   f"max over {len(fam['peak'])} documents")
    lat = [x for res in serve.nominal for x in res.latencies_ms]
    lag = [x for res in serve.nominal for x in res.send_lag_ms]
    # the served latency is read at the reference host's too, through
    # the serving yardstick: its drift is in waking an idle CPU, cold
    # caches and file creation, which the pure-Python yardstick misses
    ref = stats.median(serve.reference)
    ctx.metric("p50_ms", _finite(stats.median(lat)) * scfg["reference_ms"]
               / ref, "ms", f"at {scfg['nominal']:g} req/s; as measured "
               + stats.describe(lat, " ms") + f"; serving yardstick "
               f"median {ref:.4g} ms against {scfg['reference_ms']:g}")
    # the tail is printed, not gated: single host stalls of 50-150 ms
    # decide it, so it spreads far beyond any useful bound across runs
    print(f"  (tail: p99 {stats.percentile(lat, 0.99):.2f} ms, limit "
          f"{scfg['limit_ms']} ms; writer lag p99 "
          f"{stats.percentile(lag, 0.99):.2f} ms; per-layer serve.p99_ms)")
    # so is the highest sustainable rate, searched only in the traced
    # run: within one run the staircase wanders over 30-50% of the
    # ladder as the host's speed drifts
    if ladder:
        steps = ", ".join(f"{rate:g}{'+' if ok else '-'}"
                          for rate, ok, _res in serve.steps)
        print(f"  (max_rate {serve.max_rate:g} req/s, per-layer "
              f"serve.max_rate; steps: {steps})")
    for name, passes in (("serial", corpus.serial),
                         ("shards", corpus.shards)):
        ctx.metric(f"docs_per_s.{name}",
                   stats.median(passes) * slow[name], "docs/s",
                   "as measured " + stats.describe(passes))
    ctx.metric("edit_ms", stats.median(corpus.edit_ms) / slow["edit"],
               "ms", "as measured " + stats.describe(corpus.edit_ms, " ms"))


def _finite(value: float) -> float:
    """JSON has no infinity: a tail made of failed requests reads 1e9."""
    return value if math.isfinite(value) else 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program sources at src/repro in "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                           dir=scratch)
    env = _isolated_env(tmp)
    os.environ.update({k: env[k] for k in
                       ("REPRO_CODEGEN_CACHE", "XDG_CACHE_HOME",
                        "PYTHONPATH")})
    sys.path.insert(0, src)

    import spans
    import stages

    # a terminated run still closes its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    recorder = spans.SpanRecorder(args.workload) if args.trace \
        else spans.NullSpans()
    ctx = stages.Ctx(ROOT, tmp, env, args.workload, args.seed,
                     args.seconds, cfg, recorder)
    t0 = time.perf_counter()
    try:
        if args.trace:
            import layers

            layers.traced_run(ctx)
        else:
            run_e2e(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(f"[{args.workload}] attempted {ctx.attempted}, "
          f"succeeded {ctx.attempted - ctx.failed}, failed {ctx.failed} "
          f"({time.perf_counter() - t0:.1f} s)")
    for problem in ctx.errors:
        print(f"  wrong: {problem}")
    metrics = ctx.layer if args.trace else ctx.metrics
    print(json.dumps({"correct": ctx.failed == 0 and ctx.attempted > 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
