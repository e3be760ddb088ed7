"""Brute-force reference implementations used as test oracles.

Each oracle is the plainest possible statement of what the production
code computes — a dict of bucket bytes, a pure-Python disjoint-set
union — and shares no code with it.  Comparisons are by partition
(sets of frozensets), because the production output order is the
canonical one checked separately by :func:`assert_canonical`.
"""

import numpy as np


def dict_groups(keys):
    """Collision groups (>= 2 positions sharing a key) of a key list."""
    buckets = {}
    for pos, key in enumerate(keys):
        buckets.setdefault(key, []).append(pos)
    return {frozenset(v) for v in buckets.values() if len(v) >= 2}


def row_groups(rows):
    """:func:`dict_groups` over the raw bytes of each row of a uint8
    key matrix."""
    return dict_groups([row.tobytes() for row in np.asarray(rows)])


def table_keys(scheme, rids):
    """Every table's bucket keys for ``rids``, one ``bytes`` per record:
    the raw bytes of each table's span of ``scheme.table_key_rows``."""
    rows, layout = scheme.table_key_rows(rids)
    return [
        [row[offset : offset + nbytes].tobytes() for row in rows]
        for offset, nbytes in layout
    ]


def scheme_groups(scheme, rids):
    """Per-table :func:`dict_groups` of a scheme's bucket keys for
    ``rids`` (positions into ``rids``)."""
    return [dict_groups(keys) for keys in table_keys(scheme, rids)]


def csr_groups(members, starts):
    """CSR collision groups as a set of frozensets."""
    return {
        frozenset(members[starts[i] : starts[i + 1]].tolist())
        for i in range(len(starts) - 1)
    }


def dsu_partition(items, edges):
    """Connected components of ``edges`` over ``items`` by a plain
    dict-based disjoint-set union."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for x in items:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def bucket_partition(scheme, rids):
    """The transitive-hashing partition of ``rids`` under ``scheme``:
    records sharing a bucket key in any table are connected."""
    rids = [int(r) for r in rids]
    edges = []
    for groups in scheme_groups(scheme, np.asarray(rids, dtype=np.int64)):
        for group in groups:
            members = sorted(group)
            edges.extend((rids[members[0]], rids[p]) for p in members[1:])
    return dsu_partition(rids, edges)


def partition(clusters):
    """A cluster list as a set of frozensets of ints."""
    return {frozenset(int(r) for r in c) for c in clusters}


def assert_canonical(clusters):
    """Members strictly ascending; clusters by ascending smallest
    member."""
    for c in clusters:
        c = np.asarray(c)
        assert (np.diff(c) > 0).all(), c
    firsts = [int(c[0]) for c in clusters]
    assert firsts == sorted(firsts)
