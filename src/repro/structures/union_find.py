"""Disjoint-set union over dense integer ids, and the canonical cluster
order every cluster producer emits.

A transitive hashing function or the pairwise function outputs the
connected components of a graph (paper Definition 1, App. B.2); nothing
depends on the order of members inside a component.  Every producer
therefore emits the one *canonical* order of :func:`canonical_clusters`:
members by ascending record id, clusters by their smallest member.

:class:`UnionFind` is the incremental structure: streaming ingest keeps
one alive across insert batches, and the rowwise pairwise strategy
consults it to skip already-connected candidates.
:class:`ClusterUnionFind` is the batch structure: it buffers whole edge
arrays and resolves them with one
:func:`scipy.sparse.csgraph.connected_components` call.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..types import IntArray

#: Buffered edges beyond which :class:`ClusterUnionFind` folds its
#: buffer into one spanning edge per node, bounding its memory.
_COMPACT_EDGES = 1 << 22


def canonical_clusters(rids: IntArray, labels: IntArray) -> list[IntArray]:
    """Group ``rids`` by component ``labels`` in the canonical order:
    members ascending, clusters ordered by their smallest member."""
    rids = np.asarray(rids, dtype=np.int64)
    labels = np.asarray(labels)
    if rids.size == 0:
        return []
    if rids.size > 1 and not bool((rids[1:] > rids[:-1]).all()):
        by_rid = np.argsort(rids, kind="stable")
        rids, labels = rids[by_rid], labels[by_rid]
    # A stable sort keeps each component's members in ascending rid
    # order, so a group's first member is its smallest.
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    groups = np.split(rids[order], cuts)
    firsts = rids[order[np.r_[0, cuts]]]
    return [groups[g] for g in np.argsort(firsts).tolist()]


class UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return int(root)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def union_edges(self, a: IntArray, b: IntArray) -> None:
        """Union every edge ``(a[i], b[i])``.

        Equivalent to ``for x, y in zip(a, b): self.union(x, y)`` but
        without per-edge NumPy scalar boxing — the arrays are unpacked
        to native ints once.
        """
        for x, y in zip(a.tolist(), b.tolist()):
            self.union(x, y)

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def labels(self) -> IntArray:
        """Every id's root, by vectorized pointer jumping (the parent
        forest is left as it is)."""
        roots = self.parent
        while True:
            hop = roots[roots]
            if np.array_equal(hop, roots):
                return hop
            roots = hop

    def components(self) -> list[list[int]]:
        """All components as lists of member ids (unordered)."""
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


class ClusterUnionFind:
    """Batch union over ``0..n-1``: :meth:`union_edges` buffers edge
    arrays, :meth:`labels` resolves them with one
    ``connected_components`` call."""

    __slots__ = ("n", "_a", "_b", "_pending")

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._a: list[IntArray] = []
        self._b: list[IntArray] = []
        self._pending = 0

    def union_edges(self, a: IntArray, b: IntArray) -> None:
        """Add every edge ``(a[i], b[i])``; order is irrelevant."""
        if a.size == 0:
            return
        self._a.append(np.asarray(a, dtype=np.int64))
        self._b.append(np.asarray(b, dtype=np.int64))
        self._pending += int(a.size)
        if self._pending > _COMPACT_EDGES:
            # Keep one edge per node to its component's smallest
            # member: the same partition in O(n) memory.
            labels = self.labels()
            first = np.full(int(labels.max()) + 1, self.n, dtype=np.int64)
            np.minimum.at(first, labels, np.arange(self.n, dtype=np.int64))
            self._a = [np.arange(self.n, dtype=np.int64)]
            self._b = [first[labels]]
            self._pending = self.n

    def labels(self) -> IntArray:
        """Component label of every id."""
        if not self._a:
            return np.arange(self.n, dtype=np.int64)
        a = np.concatenate(self._a)
        b = np.concatenate(self._b)
        graph = coo_matrix(
            (np.ones(a.size), (a, b)), shape=(self.n, self.n)
        )
        _, labels = connected_components(graph, directed=False)
        return np.asarray(labels, dtype=np.int64)

    def clusters(self) -> list[IntArray]:
        """All components in the canonical order (ids ascending within
        a component, components by smallest id)."""
        return canonical_clusters(
            np.arange(self.n, dtype=np.int64), self.labels()
        )
