"""Persistent per-(level, table) bin index: CSR collision groups from
u64-fingerprint grouping, plus delta candidate generation for streams.

Hash values are incremental across the function sequence (Property 4);
this module makes the bucket *structure* incremental too:

* **Fingerprint grouping** — each (record, table) key row is mixed to
  one ``uint64`` fingerprint (splitmix64 over the key's big-endian
  words).  Grouping then argsorts 8-byte integers instead of
  memcmp-sorting 20-100-byte keys, and only rows inside multi-member
  fingerprint runs are touched byte-wise again: a byte-exact tie-break
  inside fingerprint-equal runs splits the (rare) runs that hold more
  than one distinct key, so every group is exactly one bucket.
* **CSR output** — groups come back as ``(members, starts)`` arrays,
  not a Python list of per-bucket arrays, so the consumer unions whole
  edge arrays per table instead of looping bucket by bucket.
* **Fingerprint persistence** — each :class:`LevelBins` caches the
  ``(n_records, n_tables)`` fingerprint matrix under a byte budget with
  the same pass-through degradation as
  :class:`~repro.lsh.keycache.LevelKeyCache`: over budget means
  "compute, don't store", never "fail".
* **Delta candidate generation** — :class:`H1DeltaIndex` keeps the
  first level's per-table ``(fingerprint, rid)`` arrays sorted across
  insert batches.  A new batch merge-inserts its keys and emits
  candidate pairs from touched buckets only, so a streaming refine
  after ``insert_records`` re-groups the arriving records instead of
  the whole store.

Byte comparisons ride on one invariant: key bytes interpreted as
big-endian ``uint64`` words (zero-padded at the tail) compare, word
tuple against word tuple, exactly like ``memcmp`` on the raw bytes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, Any

import numpy as np

from ..kernels.reference import _splitmix64
from ..obs.clock import monotonic
from ..types import AnyArray, BoolArray, IntArray

if TYPE_CHECKING:
    from ..obs.observer import RunObserver
    from ..structures.union_find import UnionFind
    from .keycache import LevelEntry
    from .scheme import HashingScheme

#: Default byte budget per method instance.  A level whose fingerprint
#: matrix would exceed it degrades to pass-through like the key cache;
#: delta-index arrays are never refused but count against it.
DEFAULT_MAX_BYTES = 128 << 20

#: One CSR table: ``members`` concatenates the row positions of every
#: collision group; ``starts[i]:starts[i+1]`` spans group ``i``.
CsrGroups = tuple[IntArray, IntArray]

#: Lazily fetched packed key rows plus their per-table byte layout.
RowsFn = Callable[[], tuple[AnyArray, list[tuple[int, int]]]]


# ----------------------------------------------------------------------
# Key words and fingerprints
def pack_key_words(rows: AnyArray) -> AnyArray:
    """Big-endian ``uint64`` words of packed key rows (``(m, nbytes)``
    uint8), zero-padded so tuple order equals ``memcmp`` order."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    m, nbytes = rows.shape
    nwords = (nbytes + 7) // 8
    if nbytes == nwords * 8:
        return rows.view(">u8").astype(np.uint64)
    padded = np.zeros((m, nwords * 8), dtype=np.uint8)
    padded[:, :nbytes] = rows
    return padded.view(">u8").astype(np.uint64)


def strided_key_words(rows: AnyArray, offset: int, nbytes: int) -> AnyArray:
    """Big-endian ``uint64`` words of ``rows[:, offset:offset+nbytes]``.

    Accumulates the slice column by column, so a table's span of a
    cached key-row matrix feeds the fingerprint mix without a
    per-table contiguous copy.
    """
    words = np.zeros((rows.shape[0], (nbytes + 7) // 8), dtype=np.uint64)
    for b in range(nbytes):
        shift = np.uint64(8 * (7 - (b & 7)))
        words[:, b >> 3] |= rows[:, offset + b].astype(np.uint64) << shift
    return words


def fingerprint_words(words: AnyArray) -> AnyArray:
    """One splitmix64-mixed ``uint64`` fingerprint per word row.

    Equal key rows always fingerprint equally; unequal rows collide
    with probability ~2^-64 per pair, and the grouping tie-break makes
    even those collisions harmless.
    """
    fp = _splitmix64(words[:, 0])
    for j in range(1, words.shape[1]):
        fp = _splitmix64(fp ^ words[:, j])
    return np.asarray(fp, dtype=np.uint64)


def _table_fingerprints(
    rows: AnyArray, layout: list[tuple[int, int]]
) -> AnyArray:
    """Per-table fingerprints of packed key rows: ``(m, n_tables)``."""
    out = np.empty((rows.shape[0], len(layout)), dtype=np.uint64)
    for t, (offset, nbytes) in enumerate(layout):
        out[:, t] = fingerprint_words(strided_key_words(rows, offset, nbytes))
    return out


# ----------------------------------------------------------------------
# CSR grouping
def _empty_csr() -> CsrGroups:
    return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)


def group_table(
    fps: AnyArray, words_of: Callable[[IntArray], AnyArray]
) -> CsrGroups:
    """CSR collision groups of one table from per-row fingerprints.

    ``words_of(positions)`` must return the big-endian key words of the
    given row positions; it is called once, with only the rows that sit
    inside multi-member fingerprint runs (the collision candidates).

    Groups are the >= 2-row sets sharing the exact key bytes, members
    in ascending row position; group order carries no meaning.
    """
    m = int(fps.size)
    if m < 2:
        return _empty_csr()
    order = np.argsort(fps, kind="stable").astype(np.int64, copy=False)
    sfp = fps[order]
    run_change = np.empty(m, dtype=bool)
    run_change[0] = True
    run_change[1:] = sfp[1:] != sfp[:-1]
    run_starts = np.nonzero(run_change)[0]
    run_lens = np.append(run_starts[1:], m) - run_starts
    multi = run_lens >= 2
    if not bool(multi.any()):
        return _empty_csr()
    mstarts = run_starts[multi].astype(np.int64, copy=False)
    mlens = run_lens[multi].astype(np.int64, copy=False)
    bounds = np.zeros(mlens.size + 1, dtype=np.int64)
    np.cumsum(mlens, out=bounds[1:])
    total = int(bounds[-1])
    sel = (
        np.arange(total, dtype=np.int64)
        - np.repeat(bounds[:-1], mlens)
        + np.repeat(mstarts, mlens)
    )
    cand = order[sel]
    words = words_of(cand)
    run_id = np.repeat(np.arange(mlens.size, dtype=np.int64), mlens)
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (run_id[1:] != run_id[:-1]) | (
        (words[1:] != words[:-1]).any(axis=1)
    )
    is_run_head = np.zeros(total, dtype=bool)
    is_run_head[bounds[:-1]] = True
    extra = change & ~is_run_head
    if bool(extra.any()):
        # True 64-bit fingerprint collisions: a run holds more than one
        # distinct key.  Stable-sort each affected run by its key words
        # so equal keys become contiguous while rows within a key keep
        # their ascending positions.
        for r in np.unique(run_id[extra]).tolist():
            s, e = int(bounds[r]), int(bounds[r + 1])
            sub = np.lexsort(words[s:e].T[::-1])
            cand[s:e] = cand[s:e][sub]
            words[s:e] = words[s:e][sub]
        change[1:] = (run_id[1:] != run_id[:-1]) | (
            (words[1:] != words[:-1]).any(axis=1)
        )
    lens = np.diff(np.append(np.nonzero(change)[0], total))
    keep = lens >= 2
    if not bool(keep.any()):
        return _empty_csr()
    starts = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(lens[keep], out=starts[1:])
    return cand[np.repeat(keep, lens)], starts


def csr_edges(members: IntArray, starts: IntArray) -> tuple[IntArray, IntArray]:
    """Spanning edges of CSR groups: each group's head joined to every
    other member (``len(group) - 1`` edges per group)."""
    lens = np.diff(starts)
    heads = np.zeros(members.size, dtype=bool)
    heads[starts[:-1]] = True
    return np.repeat(members[starts[:-1]], lens - 1), members[~heads]


def _words_fn(
    rows_fn: RowsFn, offset: int, nbytes: int
) -> Callable[[IntArray], AnyArray]:
    """``words_of`` for :func:`group_table`: one table's key words of
    the given row positions, read from the lazily fetched key rows."""

    def words_of(positions: IntArray) -> AnyArray:
        rows, _ = rows_fn()
        return pack_key_words(rows[positions, offset : offset + nbytes])

    return words_of


# ----------------------------------------------------------------------
class LevelBins:
    """One sequence level's persistent fingerprint matrix plus the CSR
    grouping entry point used by
    :class:`~repro.core.transitive.TransitiveHashingFunction`."""

    def __init__(self, owner: SchemeBinIndex, level: int) -> None:
        self._owner = owner
        self.level = level
        #: Per-table ``(offset, nbytes)`` spans; fixed by the level's
        #: scheme, captured on first use.
        self.layout: list[tuple[int, int]] | None = None
        self._fps: AnyArray | None = None
        self._have: BoolArray = np.zeros(0, dtype=bool)

    def _rows_fn(
        self,
        scheme: HashingScheme,
        rids: IntArray,
        key_cache: LevelEntry | None,
    ) -> RowsFn:
        """Memoized fetch of the packed key rows for ``rids`` — shared
        by the fingerprint fill and the byte tie-break so the key cache
        is consulted once per application."""
        box: list[tuple[AnyArray, list[tuple[int, int]]] | None] = [None]

        def fetch() -> tuple[AnyArray, list[tuple[int, int]]]:
            if box[0] is None:
                if key_cache is not None:
                    box[0] = key_cache.rows(scheme, rids)
                else:
                    box[0] = scheme.table_key_rows(rids)
            return box[0]

        return fetch

    def fingerprints(
        self,
        scheme: HashingScheme,
        rids: IntArray,
        key_cache: LevelEntry | None,
    ) -> tuple[AnyArray, RowsFn]:
        """Per-table fingerprints for ``rids`` (``(len(rids), n_tables)``
        uint64) plus the shared lazy row fetch.

        Cached fingerprints are served without touching key rows at
        all; missing ones are computed through the strided no-copy path
        and stored when the byte budget allows.
        """
        owner = self._owner
        rows_fn = self._rows_fn(scheme, rids, key_cache)
        if self.layout is None:
            rows, layout = rows_fn()
            self.layout = layout
            total = owner.n_records * (len(layout) * 8 + 1)
            if owner.reserve(total):
                self._fps = np.zeros(
                    (owner.n_records, len(layout)), dtype=np.uint64
                )
                self._have = np.zeros(owner.n_records, dtype=bool)
            else:
                owner.degraded += 1
            fps = _table_fingerprints(rows, layout)
            if self._fps is not None:
                self._fps[rids] = fps
                self._have[rids] = True
            owner.record_fp(0, int(rids.size))
            return fps, rows_fn
        if self._fps is None:
            # Over the byte budget: stay a pass-through.
            rows, _ = rows_fn()
            owner.record_fp(0, int(rids.size))
            return _table_fingerprints(rows, self.layout), rows_fn
        known = self._have[rids]
        if not bool(known.all()):
            rows, _ = rows_fn()
            missing = rids[~known]
            self._fps[missing] = _table_fingerprints(
                rows[~known], self.layout
            )
            self._have[missing] = True
        owner.record_fp(int(known.sum()), int(rids.size - known.sum()))
        return self._fps[rids], rows_fn

    def iter_table_groups(
        self,
        scheme: HashingScheme,
        rids: IntArray,
        key_cache: LevelEntry | None = None,
    ) -> Iterator[CsrGroups]:
        """Yield each table's CSR collision groups for ``rids``, one
        ``(members, starts)`` pair per table in layout order."""
        rids = np.asarray(rids, dtype=np.int64)
        owner = self._owner
        obs = owner.observer
        timed = obs is not None and obs.enabled
        fps, rows_fn = self.fingerprints(scheme, rids, key_cache)
        assert self.layout is not None
        started = 0.0
        for t, (offset, nbytes) in enumerate(self.layout):
            if timed:
                started = monotonic()
            members, starts = group_table(
                fps[:, t], _words_fn(rows_fn, offset, nbytes)
            )
            owner.record_group(int(rids.size), int(starts.size - 1))
            if timed:
                assert obs is not None
                obs.histogram("binindex.table_group_seconds").observe(
                    monotonic() - started
                )
            yield members, starts


# ----------------------------------------------------------------------
class SchemeBinIndex:
    """All levels' :class:`LevelBins` plus the shared byte budget,
    counters, and the streaming :class:`H1DeltaIndex` factory.

    One instance lives per :class:`~repro.core.adaptive.AdaptiveLSH`
    (mirroring :class:`~repro.lsh.keycache.LevelKeyCache`), wired onto
    each :class:`~repro.core.transitive.TransitiveHashingFunction`
    during ``_install_prepared_state``.
    """

    def __init__(
        self, n_records: int, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.n_records = int(n_records)
        #: Byte budget: a fingerprint matrix is stored only while it
        #: fits; the delta index's arrays are always admitted but count
        #: against it (:meth:`charge`), so optional caches yield to them.
        self.max_bytes = int(max_bytes)
        self._reserved = 0
        self._levels: dict[int, LevelBins] = {}
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, grouping work feeds ``binindex.*`` counters.
        self.observer: RunObserver | None = None
        self.fp_hits = 0
        self.fp_misses = 0
        self.tables_grouped = 0
        self.rows_grouped = 0
        self.collision_groups = 0
        self.delta_batches = 0
        self.delta_rows = 0
        self.delta_pairs = 0
        self.delta_buckets = 0
        #: Levels whose fingerprint matrix fell back to pass-through
        #: because the byte budget was exhausted.
        self.degraded = 0

    def level(self, level: int) -> LevelBins:
        """The (lazily created) bin index of one sequence level."""
        if level not in self._levels:
            self._levels[level] = LevelBins(self, level)
        return self._levels[level]

    def reserve(self, nbytes: int) -> bool:
        """Try to claim ``nbytes`` of the byte budget."""
        if self._reserved + nbytes > self.max_bytes:
            return False
        self._reserved += nbytes
        return True

    def charge(self, nbytes: int) -> None:
        """Claim ``nbytes`` unconditionally (delta-index arrays)."""
        self._reserved += nbytes

    @property
    def indexed_bytes(self) -> int:
        """Fingerprint-matrix plus delta-array bytes."""
        return self._reserved

    def h1_delta(
        self, scheme: HashingScheme, key_cache: LevelEntry | None
    ) -> H1DeltaIndex:
        """An empty first-level delta index over this index's level-1
        fingerprints; warm-start it with :meth:`H1DeltaIndex.adopt_state`."""
        return H1DeltaIndex(self, scheme, self.level(1), key_cache)

    def record_fp(self, hits: int, misses: int) -> None:
        self.fp_hits += hits
        self.fp_misses += misses
        obs = self.observer
        if obs is not None and obs.enabled:
            if hits:
                obs.counter("binindex.fp_hits").inc(hits)
            if misses:
                obs.counter("binindex.fp_misses").inc(misses)

    def record_group(self, rows: int, groups: int) -> None:
        self.tables_grouped += 1
        self.rows_grouped += rows
        self.collision_groups += groups
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("binindex.tables_grouped").inc()
            obs.counter("binindex.rows_grouped").inc(rows)
            obs.counter("binindex.collision_groups").inc(groups)

    def record_delta(self, rows: int, pairs: int, buckets: int) -> None:
        self.delta_batches += 1
        self.delta_rows += rows
        self.delta_pairs += pairs
        self.delta_buckets += buckets
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("binindex.delta_rows").inc(rows)
            if pairs:
                obs.counter("binindex.delta_pairs").inc(pairs)
            if buckets:
                obs.counter("binindex.delta_buckets").inc(buckets)

    def stats(self) -> dict[str, Any]:
        """Index summary for run reports (``info["bin_index"]``)."""
        return {
            "levels": len(self._levels),
            "bytes": int(self._reserved),
            "fp_hits": int(self.fp_hits),
            "fp_misses": int(self.fp_misses),
            "tables_grouped": int(self.tables_grouped),
            "rows_grouped": int(self.rows_grouped),
            "collision_groups": int(self.collision_groups),
            "degraded": int(self.degraded),
            "delta": {
                "batches": int(self.delta_batches),
                "rows": int(self.delta_rows),
                "pairs": int(self.delta_pairs),
                "buckets": int(self.delta_buckets),
            },
        }


# ----------------------------------------------------------------------
class H1DeltaIndex:
    """Persistent sorted ``(fingerprint, rid)`` arrays for the first
    level's tables, with delta candidate-pair emission per insert batch.

    Invariant: records sharing a table's exact bucket key are connected
    in the caller's union-find.  Batch-internal groups are
    byte-verified through :func:`group_table`, and matches against
    existing buckets are byte-verified against the bucket head (with a
    rare full-run scan when 64-bit fingerprints collide), so the
    partition equals the ``H_1`` bucket partition of every record
    inserted so far.  The sorted arrays take 16 bytes per record and
    table.
    """

    def __init__(
        self,
        owner: SchemeBinIndex,
        scheme: HashingScheme,
        bins: LevelBins,
        key_cache: LevelEntry | None,
    ) -> None:
        self._owner = owner
        self._scheme = scheme
        self._bins = bins
        self._key_cache = key_cache
        self._fps: list[AnyArray] = []
        self._rids: list[IntArray] = []

    @property
    def indexed_records(self) -> int:
        return int(self._fps[0].size) if self._fps else 0

    def _rows_for(
        self, rids: IntArray
    ) -> tuple[AnyArray, list[tuple[int, int]]]:
        if self._key_cache is not None:
            return self._key_cache.rows(self._scheme, rids)
        return self._scheme.table_key_rows(rids)

    def export_state(self) -> dict[str, Any]:
        """Carryable view of the sorted per-table arrays.

        Fingerprints are a pure function of each record's key bytes, so
        the state stays valid across the snapshot re-seat of a store
        extension (old records keep their signatures bit-identically).
        """
        return {
            "table_count": self._scheme.table_count,
            "fps": [fp.copy() for fp in self._fps],
            "rids": [rid.copy() for rid in self._rids],
        }

    def adopt_state(self, state: dict[str, Any]) -> bool:
        """Adopt a prior index's arrays; ``False`` leaves this index
        empty (table layout mismatch)."""
        if int(state["table_count"]) != self._scheme.table_count:
            return False
        fps = [np.asarray(fp, dtype=np.uint64) for fp in state["fps"]]
        rids = [np.asarray(rid, dtype=np.int64) for rid in state["rids"]]
        if len(fps) != self._scheme.table_count or len(fps) != len(rids):
            return False
        self._owner.charge(sum(fp.size for fp in fps) * 16)
        self._fps = fps
        self._rids = rids
        return True

    def insert(self, rids: IntArray, uf: UnionFind) -> None:
        """Merge-insert a batch and union its delta candidate pairs."""
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return
        fps, rows_fn = self._bins.fingerprints(
            self._scheme, rids, self._key_cache
        )
        layout = self._bins.layout
        assert layout is not None
        if not self._fps:
            self._fps = [
                np.empty(0, dtype=np.uint64) for _ in range(len(layout))
            ]
            self._rids = [
                np.empty(0, dtype=np.int64) for _ in range(len(layout))
            ]
        self._owner.charge(int(rids.size) * len(layout) * 16)
        pairs = 0
        buckets = 0
        for t, (offset, nbytes) in enumerate(layout):
            ex_fp, ex_rid = self._fps[t], self._rids[t]
            fp = fps[:, t]
            order = np.argsort(fp, kind="stable").astype(np.int64, copy=False)
            sfp = fp[order]
            srid = rids[order]
            words_of = _words_fn(rows_fn, offset, nbytes)
            # Batch-internal candidate pairs (byte-verified groups).
            members, starts = group_table(fp, words_of)
            anchors, others = csr_edges(members, starts)
            uf.union_edges(rids[anchors], rids[others])
            pairs += int(others.size)
            buckets += int(starts.size - 1)
            # Delta pairs against existing buckets: every new row whose
            # fingerprint hits an existing run is byte-verified against
            # the run head; mismatches scan the run (real fingerprint
            # collisions only).
            if ex_fp.size:
                pos_l = np.searchsorted(ex_fp, sfp, side="left")
                pos_r = np.searchsorted(ex_fp, sfp, side="right")
                midx = np.nonzero(pos_r > pos_l)[0]
                if midx.size:
                    heads = ex_rid[pos_l[midx]]
                    head_rows, _ = self._rows_for(heads)
                    head_words = pack_key_words(
                        head_rows[:, offset : offset + nbytes]
                    )
                    new_words = words_of(order[midx])
                    ok = (new_words == head_words).all(axis=1)
                    uf.union_edges(srid[midx[ok]], heads[ok])
                    pairs += int(ok.sum())
                    buckets += int(midx.size)
                    for j in np.nonzero(~ok)[0].tolist():
                        i = int(midx[j])
                        s, e = int(pos_l[i]), int(pos_r[i])
                        if e - s <= 1:
                            continue
                        run_rids = ex_rid[s:e]
                        run_rows, _ = self._rows_for(run_rids)
                        run_words = pack_key_words(
                            run_rows[:, offset : offset + nbytes]
                        )
                        hit = np.nonzero(
                            (run_words == new_words[j]).all(axis=1)
                        )[0]
                        if hit.size:
                            uf.union(int(srid[i]), int(run_rids[hit[0]]))
                            pairs += 1
                ins = np.searchsorted(ex_fp, sfp, side="right")
                self._fps[t] = np.insert(ex_fp, ins, sfp)
                self._rids[t] = np.insert(ex_rid, ins, srid)
            else:
                self._fps[t] = sfp.copy()
                self._rids[t] = srid.copy()
        self._owner.record_delta(
            int(rids.size) * len(layout), pairs, buckets
        )
