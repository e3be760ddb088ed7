"""Streaming adaptive LSH (paper §9: "we believe that adaLSH can offer
large performance gains in online settings, where ... input records
arrive dynamically").

:class:`StreamingTopK` keeps the *first* (cheapest) hashing function's
tables alive across insertions: each arriving record pays only the
``H_1`` budget (20 hashes by default) at ingest time, maintaining
coarse clusters incrementally.  A ``top_k(k)`` query hands the current
coarse clusters to the adaptive refinement loop
(:meth:`~repro.core.adaptive.AdaptiveLSH.refine`), which — thanks to
the shared signature pools — only computes the *additional* hash
functions needed by records in still-ambiguous, large clusters.
Repeated queries therefore get cheaper as the pools warm up, and —
because the wrapped method's
:class:`~repro.core.pairmemo.PairVerdictMemo` lives across refines —
pairs verified by one query are never re-evaluated by the next.

The ``H_1`` delta index (:class:`~repro.lsh.binindex.H1DeltaIndex`)
maintains the coarse partition (records sharing a bucket key are
connected): it keeps per-table sorted ``(fingerprint, rid)`` arrays and
emits candidate pairs from touched buckets only.  Its state is
exportable: a successor stream over an extended store adopts it
(:class:`StreamCarry`) and ingests just the new records instead of
re-grouping everything.

Storage note: records live in a regular :class:`RecordStore` created up
front; "arrival" is the ``insert`` call.  This decouples stream order
from storage layout without changing any algorithmic property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.adaptive import AdaptiveLSH
from ..core.config import AdaptiveConfig
from ..core.result import FilterResult
from ..core.transitive import TransitiveHashingFunction
from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..lsh.binindex import H1DeltaIndex
from ..obs.observer import RunObserver
from ..records import RecordStore
from ..structures.union_find import UnionFind, canonical_clusters
from ..types import ArrayLike, BoolArray, IntArray


@dataclass
class StreamCarry:
    """Warm streaming state exported by :meth:`StreamingTopK.carry_state`
    and adopted by a successor stream over an *extended* store.

    Valid because every piece is append-stable: the union-find arrays
    and inserted mask cover a prefix of the extended store's ids, and
    the delta-index fingerprints are pure functions of key bytes that a
    prefix-preserving store extension leaves bit-identical.
    """

    n_records: int
    parent: IntArray
    size: IntArray
    inserted: BoolArray
    h1_state: dict[str, Any]


class StreamingTopK:
    """Incremental top-k filtering over a stream of records.

    Construct either with ``(store, rule, config=...)`` — a fresh
    adaptive method is built — or with ``method=`` to wrap an existing
    (possibly snapshot-restored) :class:`AdaptiveLSH` instance, which
    is how :class:`~repro.serve.ResolverSession` reuses warm pools
    after a store extension.  ``carry=`` additionally adopts a
    predecessor stream's :class:`StreamCarry`; check :attr:`carried`
    to learn whether only the new records still need inserting.
    """

    _h1: TransitiveHashingFunction

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule | None = None,
        config: AdaptiveConfig | None = None,
        observer: RunObserver | None = None,
        method: AdaptiveLSH | None = None,
        carry: StreamCarry | None = None,
    ) -> None:
        if method is not None:
            if config is not None:
                raise ConfigurationError(
                    "pass either method= or config= to StreamingTopK, not both"
                )
            if method.store is not store:
                raise ConfigurationError(
                    "method= must wrap the same store passed to StreamingTopK"
                )
            self._adaptive = method
        else:
            if rule is None:
                raise ConfigurationError(
                    "StreamingTopK needs a rule (or a prepared method=)"
                )
            self._adaptive = AdaptiveLSH(
                store, rule, config=config, observer=observer
            )
        self.store = store
        self._uf = UnionFind(len(store))
        self._inserted = np.zeros(len(store), dtype=bool)
        self._delta: H1DeltaIndex
        self._ready = False
        #: True when a ``carry=`` state was adopted — the caller only
        #: needs to insert records beyond ``carry.n_records``.
        self.carried = False
        if carry is not None:
            if carry.n_records > len(store):
                raise ConfigurationError(
                    "carry state covers more records than the store holds"
                )
            self._ensure_ready(carry)

    @property
    def n_seen(self) -> int:
        return int(self._inserted.sum())

    @property
    def method(self) -> AdaptiveLSH:
        """The underlying adaptive method (shared pools and designs)."""
        return self._adaptive

    @property
    def delta_index(self) -> H1DeltaIndex:
        """The ``H_1`` delta index (prepares the method on first use)."""
        self._ensure_ready()
        return self._delta

    def _ensure_ready(self, carry: StreamCarry | None = None) -> None:
        """Prepare the method and open the ``H_1`` delta index.

        ``carry`` adopts a predecessor's partition and delta-index
        state; when its table layout does not match this method's
        ``H_1``, ``carried`` stays False and the caller re-inserts
        everything, which is always correct.
        """
        if self._ready:
            return
        self._adaptive.prepare()
        self._h1 = self._adaptive._functions[0]
        self._delta = self._adaptive.bin_index.h1_delta(
            self._h1.scheme, self._h1.key_cache
        )
        if carry is not None and self._delta.adopt_state(carry.h1_state):
            n_old = int(carry.n_records)
            self._uf.parent[:n_old] = carry.parent
            self._uf.size[:n_old] = carry.size
            self._inserted[:n_old] = carry.inserted
            self.carried = True
        self._ready = True

    def carry_state(self) -> StreamCarry | None:
        """Exportable warm state for a successor stream, or ``None``
        before the stream is ready (the successor then re-inserts
        everything)."""
        if not self._ready:
            return None
        return StreamCarry(
            n_records=len(self.store),
            parent=self._uf.parent.copy(),
            size=self._uf.size.copy(),
            inserted=self._inserted.copy(),
            h1_state=self._delta.export_state(),
        )

    # ------------------------------------------------------------------
    def insert(self, rid: int) -> None:
        """Ingest one record: ``H_1`` hashes plus table maintenance."""
        self._ensure_ready()
        rid = int(rid)
        if self._inserted[rid]:
            raise ConfigurationError(f"record {rid} was already inserted")
        self._ingest(np.array([rid], dtype=np.int64))

    def insert_many(self, rids: ArrayLike) -> None:
        """Ingest a batch (hash computation is batched across records)."""
        self._ensure_ready()
        rids = np.asarray(rids, dtype=np.int64)
        fresh = rids[~self._inserted[rids]]
        if fresh.size != rids.size:
            raise ConfigurationError("batch contains already-inserted records")
        self._ingest(fresh)

    def _ingest(self, fresh: IntArray) -> None:
        self._delta.insert(fresh, self._uf)
        self._inserted[fresh] = True

    # ------------------------------------------------------------------
    def current_clusters(self) -> list[IntArray]:
        """Coarse (H_1-level) clusters of the records seen so far:
        canonical order (members ascending, clusters by smallest
        member), then stably sorted by size descending."""
        seen = np.nonzero(self._inserted)[0].astype(np.int64)
        clusters = canonical_clusters(seen, self._uf.labels()[seen])
        clusters.sort(key=lambda c: int(c.size), reverse=True)
        return clusters

    def top_k(self, k: int) -> FilterResult:
        """Adaptive refinement of the current coarse clusters."""
        self._ensure_ready()
        if self.n_seen == 0:
            raise ConfigurationError("no records inserted yet")
        initial = [(c, 1) for c in self.current_clusters()]
        return self._adaptive.refine(initial, k)
