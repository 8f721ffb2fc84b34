"""Sharded multi-node corpus validation.

Partition a corpus by content hash across N validator nodes (in-process
servers or real ``serve --stdio`` subprocesses), decide which
constraints each shard can check alone (:mod:`~repro.shard.locality`),
and fold the rest — the ``L_id`` ID/IDREF family, whose scope is the
whole corpus — at the coordinator from per-document aggregates
(:mod:`~repro.shard.aggregates`).  Per-document verdicts stay
byte-identical to a serial :class:`~repro.corpus.CorpusValidator` run;
cross-document findings ride alongside on the
:class:`~repro.shard.coordinator.ShardReport`.
:mod:`~repro.shard.watch` adds the incremental ``--watch`` loop on top.
"""

from repro._lazy import surface as _surface

__all__ = [
    "CorpusViolation",
    "Locality",
    "LocalNode",
    "ShardNode",
    "ShardReport",
    "ShardedCorpusValidator",
    "SubprocessNode",
    "WatchDelta",
    "WatchSession",
    "classify_constraint",
    "classify_sigma",
    "extract_aggregates",
    "fold_aggregates",
    "shard_of",
]

__getattr__, __dir__ = _surface(__name__, {
    "repro.shard.aggregates": (
        "CorpusViolation", "extract_aggregates", "fold_aggregates"),
    "repro.shard.coordinator": (
        "ShardReport", "ShardedCorpusValidator", "shard_of"),
    "repro.shard.locality": (
        "Locality", "classify_constraint", "classify_sigma"),
    "repro.shard.node": ("LocalNode", "ShardNode", "SubprocessNode"),
    "repro.shard.watch": ("WatchDelta", "WatchSession"),
})
