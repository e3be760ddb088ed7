"""Tests for the union-find structures: the incremental
:class:`UnionFind`, the batch :class:`ClusterUnionFind`, and the
canonical cluster order they emit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import ClusterUnionFind, UnionFind, canonical_clusters, union_find
from tests.oracles import assert_canonical, dsu_partition, partition


class TestBasics:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert not uf.connected(0, 1)
        assert len(uf.components()) == 4

    def test_union_connects(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)

    def test_union_idempotent(self):
        uf = UnionFind(3)
        root = uf.union(0, 1)
        assert uf.union(0, 1) == root

    def test_transitivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)

    def test_sizes_accumulate(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(0, 2)
        assert uf.size[uf.find(3)] == 4

    def test_components_partition(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        comps = sorted(sorted(c) for c in uf.components())
        assert comps == [[0, 1], [2, 3], [4], [5]]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_components_match_reference(n, edges):
    """Property: components equal a brute-force graph reachability."""
    uf = UnionFind(n)
    adj = {i: {i} for i in range(n)}
    for a, b in edges:
        a, b = a % n, b % n
        uf.union(a, b)
    # Brute force: repeated merging of overlapping sets.
    groups = [{i} for i in range(n)]
    for a, b in edges:
        a, b = a % n, b % n
        ga = next(g for g in groups if a in g)
        gb = next(g for g in groups if b in g)
        if ga is not gb:
            ga |= gb
            groups.remove(gb)
    assert {frozenset(c) for c in uf.components()} == {
        frozenset(g) for g in groups
    }


def _edge_arrays(n, edges):
    a = np.array([x % n for x, _ in edges], dtype=np.int64)
    b = np.array([y % n for _, y in edges], dtype=np.int64)
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_union_edges_matches_sequential_unions(n, edges):
    """Property (issue satellite): the batched entry point is the exact
    sequential union order — identical parents and sizes, not merely
    identical components."""
    a, b = _edge_arrays(n, edges)
    batched = UnionFind(n)
    batched.union_edges(a, b)
    sequential = UnionFind(n)
    for x, y in zip(a.tolist(), b.tolist()):
        sequential.union(x, y)
    for x in range(n):  # normalize paths before comparing raw state
        batched.find(x)
        sequential.find(x)
    assert np.array_equal(batched.parent, sequential.parent)
    assert np.array_equal(batched.size, sequential.size)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_cluster_union_find_matches_dsu_oracle(n, edges):
    """``ClusterUnionFind`` gives the oracle's partition, in the
    canonical order (members ascending, clusters by smallest member)."""
    a, b = _edge_arrays(n, edges)
    cuf = ClusterUnionFind(n)
    cuf.union_edges(a, b)
    clusters = cuf.clusters()
    assert_canonical(clusters)
    assert partition(clusters) == dsu_partition(
        range(n), zip(a.tolist(), b.tolist())
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 25),
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=50),
    split=st.integers(0, 50),
)
def test_cluster_union_edges_batching_is_transparent(n, edges, split):
    """Splitting one edge stream across several ``union_edges`` calls
    (as the blocked strategy does, block by block) changes nothing."""
    a, b = _edge_arrays(n, edges)
    cut = min(split, a.size)

    whole = ClusterUnionFind(n)
    whole.union_edges(a, b)
    parts = ClusterUnionFind(n)
    parts.union_edges(a[:cut], b[:cut])
    for i in range(cut, a.size):
        parts.union_edges(a[i : i + 1], b[i : i + 1])

    got, want = parts.clusters(), whole.clusters()
    assert len(got) == len(want)
    for ga, wa in zip(got, want):
        assert np.array_equal(ga, wa)


def test_cluster_union_find_compacts_large_buffers(monkeypatch):
    """Past the buffer threshold the edges fold into one spanning edge
    per node; the partition is unchanged."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 40, size=200)
    b = rng.integers(0, 40, size=200)
    whole = ClusterUnionFind(40)
    whole.union_edges(a, b)
    monkeypatch.setattr(union_find, "_COMPACT_EDGES", 16)
    compacted = ClusterUnionFind(40)
    for lo in range(0, 200, 10):
        compacted.union_edges(a[lo : lo + 10], b[lo : lo + 10])
    assert compacted._pending <= 40 + 10
    assert [c.tolist() for c in compacted.clusters()] == [
        c.tolist() for c in whole.clusters()
    ]


def test_union_find_labels_are_roots():
    uf = UnionFind(7)
    for x, y in [(0, 3), (3, 5), (6, 1)]:
        uf.union(x, y)
    assert uf.labels().tolist() == [uf.find(x) for x in range(7)]


def test_canonical_clusters_sorts_unsorted_input():
    rids = np.array([9, 2, 7, 4, 1])
    labels = np.array([0, 1, 0, 1, 2])
    got = canonical_clusters(rids, labels)
    assert [c.tolist() for c in got] == [[1], [2, 4], [7, 9]]
    assert canonical_clusters(np.empty(0, dtype=np.int64), []) == []
