"""Tests for the per-level packed-key cache."""

import numpy as np

from repro.distance import CosineDistance
from repro.lsh.design import design_sequence
from repro.lsh.binindex import SchemeBinIndex
from repro.lsh.keycache import LevelKeyCache
from repro.distance.rules import ThresholdRule
from tests.conftest import make_vector_store
from tests.oracles import csr_groups, scheme_groups


def _scheme(store, rule):
    _ctx, designs = design_sequence(store, rule, [20, 40], seed=3)
    return designs[0].to_scheme()


def _setup():
    store, _ = make_vector_store(cluster_sizes=(8, 6), n_noise=20, seed=4)
    rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
    return store, _scheme(store, rule)


class TestLevelKeyCache:
    def test_cached_rows_equal_fresh_rows(self):
        store, scheme = _setup()
        cache = LevelKeyCache(len(store))
        entry = cache.entry(1)
        rids = store.rids
        fresh, layout = scheme.table_key_rows(rids)
        first, first_layout = entry.rows(scheme, rids)
        again, again_layout = entry.rows(scheme, rids)
        assert first_layout == layout and again_layout == layout
        assert np.array_equal(first, fresh)
        assert np.array_equal(again, fresh)
        assert cache.hits == len(store)
        assert cache.misses == len(store)

    def test_partial_fill_then_extend(self):
        store, scheme = _setup()
        cache = LevelKeyCache(len(store))
        entry = cache.entry(1)
        head = store.rids[:10]
        entry.rows(scheme, head)
        rows, _ = entry.rows(scheme, store.rids)
        fresh, _ = scheme.table_key_rows(store.rids)
        assert np.array_equal(rows, fresh)
        assert cache.hits == 10
        assert cache.misses == len(store)

    def test_byte_cap_degrades_to_passthrough(self):
        store, scheme = _setup()
        cache = LevelKeyCache(len(store), max_bytes=8)
        entry = cache.entry(1)
        rows, _ = entry.rows(scheme, store.rids)
        fresh, _ = scheme.table_key_rows(store.rids)
        assert np.array_equal(rows, fresh)
        assert cache.cached_bytes == 0
        assert cache.hits == 0
        # Still correct (and still a miss) on repeat lookups.
        again, _ = entry.rows(scheme, store.rids)
        assert np.array_equal(again, fresh)
        assert cache.hits == 0

    def test_stats_shape(self):
        store, scheme = _setup()
        cache = LevelKeyCache(len(store))
        cache.entry(1).rows(scheme, store.rids)
        stats = cache.stats()
        assert stats["levels"] == 1
        assert stats["bytes"] > 0
        assert stats["misses"] == len(store)

    def test_collisions_with_cache_match_without(self):
        store, scheme = _setup()
        cache = LevelKeyCache(len(store))
        entry = cache.entry(1)
        rids = store.rids[5:40]

        def groups(key_cache):
            bins = SchemeBinIndex(len(store)).level(1)
            return [
                csr_groups(*csr)
                for csr in bins.iter_table_groups(scheme, rids, key_cache=key_cache)
            ]

        plain = groups(None)
        cached = groups(entry)
        cached_again = groups(entry)
        assert cache.hits == rids.size
        assert plain == cached == cached_again == scheme_groups(scheme, rids)
