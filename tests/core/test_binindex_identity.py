"""End-to-end identity of the bin index: final clusters are the same
with fingerprint storage on (default budget) and off (zero budget),
across worker counts and kernel backends, through snapshot restore,
streaming inserts, and serving-session store extensions."""

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveLSH
from repro.datasets import generate_cora, generate_spotsigs
from repro.online import StreamingTopK
from repro.serve import IndexSnapshot, ResolverSession
from tests.oracles import assert_canonical, bucket_partition, partition


def _clusters(result):
    return [tuple(int(r) for r in c.rids) for c in result.clusters]


def _run(dataset, n_jobs=None, kernels=None, k=3, bin_index_bytes=None):
    overrides = {} if bin_index_bytes is None else {"bin_index_bytes": bin_index_bytes}
    config = AdaptiveConfig(
        seed=7, cost_model="analytic", n_jobs=n_jobs, kernels=kernels, **overrides
    )
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        result = method.run(k)
    return result


@pytest.mark.parametrize("generate", [generate_cora, generate_spotsigs])
@pytest.mark.parametrize("n_jobs", [None, 2])
def test_bin_index_on_off_identical(generate, n_jobs):
    dataset = generate(n_records=300, seed=1)
    reference = _run(dataset)
    on = _run(dataset, n_jobs=n_jobs)
    off = _run(dataset, n_jobs=n_jobs, bin_index_bytes=0)
    for result in (on, off):
        assert _clusters(result) == _clusters(reference)
        assert result.counters.pairs_compared == reference.counters.pairs_compared
        assert result.counters.hashes_computed == reference.counters.hashes_computed
    for cluster in on.clusters:
        assert (np.diff(cluster.rids) > 0).all()
    stats = on.bin_index_stats
    assert stats["tables_grouped"] > 0
    assert stats["degraded"] == 0
    assert off.bin_index_stats["degraded"] > 0


@pytest.mark.parametrize("kernels", ["numpy", "packed"])
def test_bin_index_identical_per_kernel_backend(kernels):
    dataset = generate_spotsigs(n_records=300, seed=2)
    reference = _run(dataset, kernels="numpy", bin_index_bytes=0)
    on = _run(dataset, kernels=kernels)
    assert _clusters(reference) == _clusters(on)
    assert on.info["kernels"] == kernels


def test_zero_byte_budget_degrades_identically():
    dataset = generate_cora(n_records=250, seed=3)
    on = _run(dataset)
    broke = _run(dataset, bin_index_bytes=0)
    assert _clusters(on) == _clusters(broke)
    assert broke.bin_index_stats["degraded"] > 0
    assert broke.bin_index_stats["bytes"] == 0


def test_snapshot_restore_keeps_identity():
    dataset = generate_spotsigs(n_records=250, seed=4)
    config = AdaptiveConfig(seed=5, cost_model="analytic")
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
        cold_result = cold.run(3)
        snapshot = IndexSnapshot.capture(cold)
    warm = snapshot.restore(dataset.store)
    try:
        warm_result = warm.run(3)
    finally:
        warm.close()
    assert _clusters(cold_result) == _clusters(warm_result)
    assert warm_result.bin_index_stats["tables_grouped"] > 0


def test_streaming_identical_on_off():
    """Streaming with fingerprint storage on and off gives the same
    coarse clusters and answers; the coarse clusters are the
    brute-force ``H_1`` bucket partition, size-sorted over the
    canonical order."""
    dataset = generate_cora(n_records=300, seed=6)
    rids = np.arange(len(dataset.store), dtype=np.int64)
    outputs = []
    for budget in (None, 0):
        overrides = {} if budget is None else {"bin_index_bytes": budget}
        config = AdaptiveConfig(seed=6, cost_model="analytic", **overrides)
        stream = StreamingTopK(dataset.store, dataset.rule, config=config)
        try:
            per_query = []
            seen = np.empty(0, dtype=np.int64)
            for batch in np.array_split(rids, 4):
                stream.insert_many(batch)
                seen = np.concatenate([seen, batch])
                coarse = stream.current_clusters()
                assert partition(coarse) == bucket_partition(
                    stream.method._functions[0].scheme, seen
                )
                sizes = [c.size for c in coarse]
                assert sizes == sorted(sizes, reverse=True)
                for size in set(sizes):
                    assert_canonical([c for c in coarse if c.size == size])
                per_query.append([c.tolist() for c in coarse])
                per_query.append(_clusters(stream.top_k(3)))
            assert stream.delta_index.indexed_records == rids.size
        finally:
            stream.method.close()
        outputs.append(per_query)
    assert outputs[0] == outputs[1]


def test_session_extension_identical_and_carried():
    """A session that carries the delta index across two extensions
    answers like a carry-less stream that re-inserts every record."""
    full = generate_spotsigs(n_records=500, seed=7)
    n_head, n_mid = 300, 400
    head = full.store.take(np.arange(n_head))
    ext1 = full.store.take(np.arange(n_head, n_mid))
    ext2 = full.store.take(np.arange(n_mid, len(full.store)))
    config = AdaptiveConfig(seed=3, cost_model="analytic")
    with ResolverSession(head, full.rule, config=config) as session:
        session.top_k(4)
        session.extend_store(ext1)
        session.top_k(4)
        session.extend_store(ext2)
        carried_answer = _clusters(session.top_k(4))
        stream = session._stream
        assert stream is not None and stream.carried
        stats = session.serving_stats()["bin_index"]
        # Only the second extension's rows went through the delta
        # insert — a full re-group would touch them all.
        table_count = stream.delta_index.export_state()["table_count"]
        assert stats["delta"]["rows"] == (len(full.store) - n_mid) * table_count
        fresh = StreamingTopK(session.store, method=session.method)
        fresh.insert_many(session.store.rids)
        assert not fresh.carried
        assert [c.tolist() for c in fresh.current_clusters()] == [
            c.tolist() for c in stream.current_clusters()
        ]
        assert _clusters(fresh.top_k(4)) == carried_answer
