"""Per-level cache of packed table keys, keyed by ``(level, record_id)``.

Applying sequence function ``H_i`` to a record turns its pool columns
into per-table bucket keys — slicing, concatenating across pools, and
packing bytes.  Hash *values* are already incremental (Property 4, the
:class:`~repro.lsh.families.SignaturePool`), but the key packing was
recomputed on every application.  This cache stores each record's
packed key row per level, so re-applying ``H_i`` to records already
hashed at that level (incremental re-runs, :meth:`refine`, repeated
``run`` calls over the same pools) reuses the bytes instead of
recomputing them.

Correctness rests on two facts: pool columns are deterministic per
column index (columnar-determinism contract), and the fingerprint
grouping of :mod:`repro.lsh.binindex` reads exactly these packed bytes
— so cached and freshly computed rows are indistinguishable, bit for
bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..types import AnyArray, BoolArray, IntArray

if TYPE_CHECKING:
    from ..obs.observer import RunObserver
    from .scheme import HashingScheme

#: Default cap on total cached key bytes across all levels; levels that
#: would exceed it degrade to pass-through (compute, don't store).
DEFAULT_MAX_BYTES = 128 << 20


class LevelEntry:
    """Cached packed key rows of one sequence level.

    The row layout (per-table byte spans) is fixed by the level's
    scheme, so it is captured on first use and shared by all rows.
    """

    def __init__(self, cache: LevelKeyCache) -> None:
        self._cache = cache
        self.layout: list[tuple[int, int]] | None = None
        self._data: AnyArray | None = None
        self._filled: BoolArray = np.zeros(cache.n_records, dtype=bool)

    def rows(
        self, scheme: HashingScheme, rids: IntArray
    ) -> tuple[AnyArray, list[tuple[int, int]]]:
        """Packed key rows for ``rids`` (shape ``(len(rids), row_bytes)``,
        uint8) plus the per-table ``(offset, nbytes)`` layout.

        Missing rows are computed through ``scheme.table_key_rows`` and
        stored; known rows are served from the cache.
        """
        cache = self._cache
        if self.layout is None:
            rows, layout = scheme.table_key_rows(rids)
            self.layout = layout
            total = cache.n_records * int(rows.shape[1])
            if cache.reserve(total):
                self._data = np.zeros(
                    (cache.n_records, rows.shape[1]), dtype=np.uint8
                )
                self._data[rids] = rows
                self._filled[rids] = True
            cache.record(0, int(rids.size))
            return rows, layout
        if self._data is None:
            # Over the byte budget: stay a pass-through.
            rows, _ = scheme.table_key_rows(rids)
            cache.record(0, int(rids.size))
            return rows, self.layout
        known = self._filled[rids]
        missing = rids[~known]
        if missing.size:
            fresh, _ = scheme.table_key_rows(missing)
            self._data[missing] = fresh
            self._filled[missing] = True
        cache.record(int(known.sum()), int(missing.size))
        return self._data[rids], self.layout


class LevelKeyCache:
    """All levels' :class:`LevelEntry` objects plus shared accounting."""

    def __init__(
        self, n_records: int, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.n_records = int(n_records)
        self.max_bytes = int(max_bytes)
        self._reserved = 0
        self._levels: dict[int, LevelEntry] = {}
        #: Records served from / added to the cache (work counters).
        self.hits = 0
        self.misses = 0
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, lookups feed ``sigcache.*`` counters.
        self.observer: RunObserver | None = None

    def entry(self, level: int) -> LevelEntry:
        """The (lazily created) cache entry for one sequence level."""
        if level not in self._levels:
            self._levels[level] = LevelEntry(self)
        return self._levels[level]

    def reserve(self, nbytes: int) -> bool:
        """Try to claim ``nbytes`` of the byte budget."""
        if self._reserved + nbytes > self.max_bytes:
            return False
        self._reserved += nbytes
        return True

    @property
    def cached_bytes(self) -> int:
        return self._reserved

    def record(self, hits: int, misses: int) -> None:
        self.hits += hits
        self.misses += misses
        obs = self.observer
        if obs is not None and obs.enabled:
            if hits:
                obs.counter("sigcache.hits").inc(hits)
            if misses:
                obs.counter("sigcache.misses").inc(misses)

    def stats(self) -> dict[str, Any]:
        """Cache summary for run reports."""
        return {
            "levels": len(self._levels),
            "bytes": int(self._reserved),
            "hits": int(self.hits),
            "misses": int(self.misses),
        }
