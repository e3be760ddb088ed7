"""Transitive hashing functions (paper Definition 1, Appendix B.2).

Applying a function on a set of records builds *fresh* hash tables
(so clusters from different invocations can never merge), groups the
records sharing a bucket in each table, and outputs one cluster per
connected component of the same-bucket graph, in the canonical order of
:func:`~repro.structures.union_find.canonical_clusters`.

Hash *values* are nevertheless reused across invocations and across
functions in the sequence, because they live in the shared
:class:`~repro.lsh.families.SignaturePool` objects referenced by the
function's scheme (Property 4 — incremental computation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..lsh.binindex import LevelBins, SchemeBinIndex, csr_edges
from ..lsh.design import SchemeDesign
from ..lsh.scheme import HashingScheme
from ..structures.union_find import ClusterUnionFind, canonical_clusters
from ..types import ArrayLike, IntArray
from .result import WorkCounters

if TYPE_CHECKING:
    from ..lsh.keycache import LevelEntry


class TransitiveHashingFunction:
    """One function ``H_i`` of the sequence."""

    def __init__(
        self,
        level: int,
        design: SchemeDesign,
        bin_index: LevelBins | None = None,
    ) -> None:
        self.level = level
        self.design = design
        self.scheme: HashingScheme = design.to_scheme()
        #: Optional :class:`~repro.lsh.keycache.LevelEntry` holding this
        #: level's packed bucket keys per record; set by ``AdaptiveLSH``
        #: so re-applying ``H_level`` to subclusters reuses key rows.
        self.key_cache: LevelEntry | None = None
        #: The :class:`~repro.lsh.binindex.LevelBins` that groups each
        #: table's collisions; ``AdaptiveLSH`` passes its shared index,
        #: a standalone function owns a private one.
        self.bin_index: LevelBins = (
            bin_index
            if bin_index is not None
            else SchemeBinIndex(self.scheme.n_records).level(level)
        )

    @property
    def budget(self) -> int:
        """Hash functions this scheme applies per (fresh) record."""
        return self.design.spent_budget

    def apply(
        self, rids: ArrayLike, counters: WorkCounters | None = None
    ) -> list[IntArray]:
        """Split ``rids`` into clusters (connected components of the
        same-bucket graph across all tables)."""
        rids = np.asarray(rids, dtype=np.int64)
        merger = ClusterUnionFind(int(rids.size))
        for members, starts in self.bin_index.iter_table_groups(
            self.scheme, rids, key_cache=self.key_cache
        ):
            merger.union_edges(*csr_edges(members, starts))
        if counters is not None:
            counters.table_inserts += int(rids.size) * self.scheme.table_count
        return canonical_clusters(rids, merger.labels())
