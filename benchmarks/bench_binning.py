"""Bin-index delta benchmark (``make bench-smoke``).

Replays the motivating serving scenario for
:class:`~repro.lsh.binindex.SchemeBinIndex`: a
:class:`~repro.serve.ResolverSession` answers a ``top_k`` query, the
store is extended twice, and each extension is followed by another
query.  The streaming front-end's ``H_1`` delta index carries across
extensions (:class:`~repro.online.StreamCarry`), so only the *new*
records are re-grouped.  After the last extension a carry-less
:class:`~repro.online.StreamingTopK` on the same method inserts every
record; the benchmark checks that both give the same coarse clusters
and the same top-k clusters, and writes the grouping counters to
``BENCH_binning.json``.

Fails (exit 1) if the outputs differ, or if the delta index re-grouped
at least as many rows as a full re-group of the latest extension would
have — the counter floor that pins the "touched buckets only"
property.  The exact delta/full ratio is archived, never gated.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.bench import emit_result
from repro.core.config import AdaptiveConfig
from repro.datasets import generate_spotsigs
from repro.online import StreamingTopK
from repro.serve import ResolverSession


def _cluster_lists(clusters):
    return [[int(r) for r in c] for c in clusters]


def _answer(result):
    return _cluster_lists(c.rids for c in result.clusters)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_binning.json")
    parser.add_argument("--records", type=int, default=600)
    parser.add_argument("--extension", type=int, default=100)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--method-seed", type=int, default=3)
    args = parser.parse_args(argv)

    if args.records <= 2 * args.extension:
        parser.error("--records must exceed twice --extension")
    n_head = args.records - 2 * args.extension
    dataset = generate_spotsigs(n_records=args.records, seed=args.seed)
    store = dataset.store
    head = store.take(np.arange(n_head))
    ext1 = store.take(np.arange(n_head, n_head + args.extension))
    ext2 = store.take(np.arange(n_head + args.extension, args.records))
    config = AdaptiveConfig(seed=args.method_seed, cost_model="analytic")

    with ResolverSession(head, dataset.rule, config=config) as session:
        started = time.perf_counter()
        session.top_k(args.k)
        session.extend_store(ext1)
        session.top_k(args.k)
        session.extend_store(ext2)
        carried_answer = _answer(session.top_k(args.k))
        carried_seconds = time.perf_counter() - started
        carried = session._stream
        carried_coarse = _cluster_lists(carried.current_clusters())
        # The serving method (and its bin index) is re-seated per
        # extension, so the counters cover the *latest* extension only.
        stats = session.serving_stats()["bin_index"]
        table_count = session.method._functions[0].scheme.table_count

        started = time.perf_counter()
        fresh = StreamingTopK(session.store, method=session.method)
        fresh.insert_many(session.store.rids)
        fresh_answer = _answer(fresh.top_k(args.k))
        fresh_seconds = time.perf_counter() - started
        fresh_coarse = _cluster_lists(fresh.current_clusters())

    identical = carried_coarse == fresh_coarse and carried_answer == fresh_answer
    # Delta rows = new records x tables, vs a carry-less front-end
    # re-inserting the whole store (records x tables).
    delta_rows = stats["delta"]["rows"]
    full_rows = args.records * table_count
    ratio = delta_rows / full_rows if full_rows else 0.0

    emit_result(
        args.out,
        "bench_binning",
        config={
            "records": args.records,
            "extension": args.extension,
            "k": args.k,
            "seed": args.seed,
            "method_seed": args.method_seed,
        },
        timings={
            "carried_session_seconds": round(carried_seconds, 4),
            "carryless_stream_seconds": round(fresh_seconds, 4),
        },
        payload={
            "scenario": (
                f"ResolverSession on spotsigs({args.records}), "
                f"2 extensions of {args.extension} with top_k after each; "
                "then a carry-less StreamingTopK re-inserting every record"
            ),
            "stats": stats,
            "table_count": table_count,
            "delta_rows": int(delta_rows),
            "full_regroup_rows": int(full_rows),
            "delta_rows_ratio": round(ratio, 4),
            "identical_outputs": identical,
        },
    )
    if not identical:
        print("FATAL: the carried session and the carry-less stream differ")
        return 1
    if not delta_rows or delta_rows >= full_rows:
        print(
            f"FATAL: delta index re-grouped {delta_rows} rows; expected "
            f"strictly below the full re-group count {full_rows}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
