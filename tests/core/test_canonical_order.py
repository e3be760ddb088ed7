"""The canonical cluster order contract: every cluster producer emits
members by ascending record id and clusters by their smallest member,
and its partition equals a brute-force oracle's — whatever the order
of its input."""

import numpy as np
import pytest

from repro.core import pairwise_fn
from repro.core.pairmemo import PairVerdictMemo
from repro.core.pairwise_fn import PairwiseComputation
from repro.core.transitive import TransitiveHashingFunction
from repro.distance import JaccardDistance, ThresholdRule
from repro.lsh.design import build_design_context, design_scheme
from repro.online import StreamingTopK
from repro.parallel import ExecutionPool
from tests.conftest import make_shingle_store
from tests.oracles import assert_canonical, bucket_partition, dsu_partition, partition


@pytest.fixture(scope="module")
def case():
    store, _ = make_shingle_store(cluster_sizes=(14, 9, 5, 3), n_noise=25, seed=11)
    rule = ThresholdRule(JaccardDistance("shingles"), 0.45)
    rng = np.random.default_rng(11)
    shuffled = rng.permutation(store.rids).astype(np.int64)
    return store, rule, shuffled


def _match_partition(store, rule, rids):
    a, b = np.triu_indices(rids.size, k=1)
    hits = np.asarray(rule.match_pairs(store, rids[a], rids[b]), dtype=bool)
    edges = zip(rids[a][hits].tolist(), rids[b][hits].tolist())
    return dsu_partition(rids.tolist(), edges)


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_transitive_function(case, order):
    store, rule, shuffled = case
    rids = store.rids if order == "sorted" else shuffled
    ctx = build_design_context(store, rule, seed=3)
    fn = TransitiveHashingFunction(1, design_scheme(ctx, 40))
    clusters = fn.apply(rids)
    assert_canonical(clusters)
    assert partition(clusters) == bucket_partition(fn.scheme, np.sort(rids))


def _pairwise(store, rule, variant):
    if variant == "rowwise":
        return PairwiseComputation(store, rule, strategy="rowwise")
    if variant == "blocked":
        return PairwiseComputation(store, rule, strategy="blocked")
    memo = PairVerdictMemo()
    memo.bind(store, rule)
    return PairwiseComputation(store, rule, strategy="blocked", memo=memo)


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("variant", ["rowwise", "blocked", "blocked-memo"])
def test_pairwise_serial(case, variant, order, monkeypatch):
    store, rule, shuffled = case
    rids = store.rids if order == "sorted" else shuffled
    # Several row-blocks, so cross-block edges are exercised too.
    monkeypatch.setattr(pairwise_fn, "BLOCK", 16)
    pairwise = _pairwise(store, rule, variant)
    expected = _match_partition(store, rule, rids)
    for _ in range(2):  # the memo variant answers from the memo the 2nd time
        clusters = pairwise.apply(rids)
        assert_canonical(clusters)
        assert partition(clusters) == expected


@pytest.mark.parametrize("variant", ["blocked", "blocked-memo"])
def test_pairwise_two_workers(case, variant, monkeypatch):
    store, rule, shuffled = case
    monkeypatch.setattr(pairwise_fn, "BLOCK", 16)
    with ExecutionPool(store, n_jobs=2, min_pairwise_rows=2) as pool:
        pairwise = _pairwise(store, rule, variant)
        pairwise.pool = pool
        clusters = pairwise.apply(shuffled)
        assert pool.parallel_calls >= 1, "parallel path was not taken"
    assert_canonical(clusters)
    assert partition(clusters) == _match_partition(store, rule, shuffled)


def test_streaming_current_clusters(case):
    store, rule, shuffled = case
    stream = StreamingTopK(store, rule, config=None)
    try:
        for batch in np.array_split(shuffled, 3):
            stream.insert_many(batch)
            coarse = stream.current_clusters()
            sizes = [c.size for c in coarse]
            assert sizes == sorted(sizes, reverse=True)
            # Stable size sort over the canonical order: within one size
            # the canonical order survives.
            for size in set(sizes):
                assert_canonical([c for c in coarse if c.size == size])
            seen = np.sort(np.concatenate([c for c in coarse]))
            assert partition(coarse) == bucket_partition(
                stream.method._functions[0].scheme, seen
            )
    finally:
        stream.method.close()
