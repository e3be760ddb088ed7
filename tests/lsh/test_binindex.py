"""Property tests for the persistent bin index.

The load-bearing claim is that fingerprint grouping finds exactly the
buckets of the legacy dict-of-bytes grouping (one dict entry per key,
the structure the streaming front-end kept before the delta index) for
every input, including adversarial fingerprint regimes (all
fingerprints equal, low-entropy fingerprints) where the byte tie-break
inside fingerprint runs does all the work.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.lsh.binindex import (
    H1DeltaIndex,
    SchemeBinIndex,
    fingerprint_words,
    group_table,
    pack_key_words,
    strided_key_words,
)
from repro.lsh.families import SignaturePool
from repro.lsh.minhash import MinHashFamily
from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup
from repro.structures.union_find import UnionFind
from tests.conftest import make_shingle_store
from tests.oracles import bucket_partition, csr_groups, row_groups, scheme_groups


def words_of_rows(rows):
    def words_of(positions):
        return pack_key_words(rows[positions])

    return words_of


def assert_legacy_groups(csr, rows):
    """CSR groups equal the legacy dict-of-bytes groups of ``rows``,
    each group's members in ascending row position."""
    members, starts = csr
    for i in range(len(starts) - 1):
        assert (np.diff(members[starts[i] : starts[i + 1]]) > 0).all()
    assert csr_groups(members, starts) == row_groups(rows)


@st.composite
def key_matrix(draw):
    m = draw(st.integers(0, 60))
    nbytes = draw(st.integers(1, 20))
    alphabet = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, alphabet, size=(m, nbytes), dtype=np.uint8)


class TestGroupTable:
    @settings(max_examples=150, deadline=None)
    @given(rows=key_matrix())
    def test_matches_legacy_with_honest_fingerprints(self, rows):
        fps = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        assert_legacy_groups(group_table(fps, words_of_rows(rows)), rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix())
    def test_matches_legacy_when_all_fingerprints_collide(self, rows):
        fps = np.zeros(rows.shape[0], dtype=np.uint64)
        assert_legacy_groups(group_table(fps, words_of_rows(rows)), rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix(), buckets=st.integers(2, 5))
    def test_matches_legacy_with_low_entropy_fingerprints(
        self, rows, buckets
    ):
        honest = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        fps = honest % np.uint64(buckets)
        assert_legacy_groups(group_table(fps, words_of_rows(rows)), rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix())
    def test_csr_contract(self, rows):
        fps = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        members, starts = group_table(fps, words_of_rows(rows))
        assert starts[0] == 0
        assert starts[-1] == members.size
        lens = np.diff(starts)
        assert (lens >= 2).all()
        if members.size:
            assert members.min() >= 0
            assert members.max() < rows.shape[0]
            assert np.unique(members).size == members.size

    def test_empty_and_singleton(self):
        rows = np.zeros((1, 4), dtype=np.uint8)
        members, starts = group_table(
            np.zeros(1, dtype=np.uint64), words_of_rows(rows)
        )
        assert members.size == 0
        assert starts.tolist() == [0]


class TestWords:
    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix(), data=st.data())
    def test_strided_equals_packed_slice(self, rows, data):
        if rows.shape[0] == 0:
            rows = np.zeros((1, rows.shape[1]), dtype=np.uint8)
        nbytes = data.draw(st.integers(1, rows.shape[1]))
        offset = data.draw(st.integers(0, rows.shape[1] - nbytes))
        np.testing.assert_array_equal(
            strided_key_words(rows, offset, nbytes),
            pack_key_words(rows[:, offset : offset + nbytes]),
        )

    def test_word_order_is_memcmp_order(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 256, size=(64, 11), dtype=np.uint8)
        words = pack_key_words(rows)
        by_words = np.lexsort(words.T[::-1])
        by_bytes = sorted(range(64), key=lambda i: rows[i].tobytes())
        np.testing.assert_array_equal(by_words, np.array(by_bytes))


class TestResolve:
    def test_config_knob_round_trips(self):
        cfg = AdaptiveConfig(bin_index_bytes=1024)
        d = cfg.to_dict()
        assert d["bin_index_bytes"] == 1024
        assert "bin_index" not in d
        assert AdaptiveConfig.from_dict(d).bin_index_bytes == 1024

    def test_retired_switch_key_is_dropped(self):
        d = dict(AdaptiveConfig().to_dict(), bin_index=None)
        assert AdaptiveConfig.from_dict(d) == AdaptiveConfig()


@pytest.fixture(scope="module")
def h1_scheme():
    store, _ = make_shingle_store(seed=5)
    pool = SignaturePool(MinHashFamily(store, "shingles", seed=5))
    scheme = HashingScheme([TableGroup(6, (PoolUse(pool, 2),))])
    return store, scheme


def uf_partition(uf, rids):
    roots = {}
    for rid in rids:
        roots.setdefault(uf.find(int(rid)), set()).add(int(rid))
    return {frozenset(g) for g in roots.values()}


class TestH1DeltaIndex:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_batches=st.integers(1, 5))
    def test_partition_matches_dict_tables(
        self, h1_scheme, seed, n_batches
    ):
        """Random insert batches give the brute-force ``H_1`` bucket
        partition of the records inserted so far, after every batch."""
        store, scheme = h1_scheme
        n = len(store)
        rng = np.random.default_rng(seed)
        rids = rng.permutation(n).astype(np.int64)
        batches = np.array_split(rids, n_batches)

        owner = SchemeBinIndex(n)
        delta = owner.h1_delta(scheme, None)
        assert isinstance(delta, H1DeltaIndex)
        uf = UnionFind(n)
        seen = np.empty(0, dtype=np.int64)
        for batch in batches:
            delta.insert(batch, uf)
            seen = np.sort(np.concatenate([seen, batch]))
            assert uf_partition(uf, seen) == bucket_partition(scheme, seen)
        assert delta.indexed_records == n

    def test_export_adopt_round_trip(self, h1_scheme):
        store, scheme = h1_scheme
        n = len(store)
        rids = np.arange(n, dtype=np.int64)
        first, rest = rids[: n // 2], rids[n // 2 :]

        owner = SchemeBinIndex(n)
        delta = owner.h1_delta(scheme, None)
        uf = UnionFind(n)
        delta.insert(first, uf)
        state = delta.export_state()

        successor_owner = SchemeBinIndex(n)
        successor = successor_owner.h1_delta(scheme, None)
        assert successor.adopt_state(state)
        assert successor.indexed_records == first.size
        successor.insert(rest, uf)
        assert uf_partition(uf, rids) == bucket_partition(scheme, rids)
        assert successor_owner.delta_rows == rest.size * scheme.table_count

    def test_adopt_rejects_layout_mismatch(self, h1_scheme):
        store, scheme = h1_scheme
        owner = SchemeBinIndex(len(store))
        delta = owner.h1_delta(scheme, None)
        uf = UnionFind(len(store))
        delta.insert(np.arange(4, dtype=np.int64), uf)
        state = delta.export_state()
        state["table_count"] = scheme.table_count + 1
        fresh = owner.h1_delta(scheme, None)
        assert not fresh.adopt_state(state)
        assert fresh.indexed_records == 0

    def test_delta_arrays_ignore_fingerprint_budget(self, h1_scheme):
        """The byte budget bounds fingerprint matrices only: inserts
        and adoption always succeed, and their arrays are counted."""
        store, scheme = h1_scheme
        n = len(store)
        owner = SchemeBinIndex(n, max_bytes=0)
        delta = owner.h1_delta(scheme, None)
        uf = UnionFind(n)
        delta.insert(np.arange(10, dtype=np.int64), uf)
        assert delta.indexed_records == 10
        assert owner.indexed_bytes == 10 * scheme.table_count * 16
        successor_owner = SchemeBinIndex(n, max_bytes=0)
        successor = successor_owner.h1_delta(scheme, None)
        assert successor.adopt_state(delta.export_state())
        assert successor.indexed_records == 10


class TestBudgetDegradation:
    def test_zero_budget_groups_identically(self, h1_scheme):
        store, scheme = h1_scheme
        rids = np.arange(len(store), dtype=np.int64)

        cached = SchemeBinIndex(len(store))
        broke = SchemeBinIndex(len(store), max_bytes=0)
        got_cached = [
            csr_groups(*csr)
            for csr in cached.level(1).iter_table_groups(scheme, rids)
        ]
        got_broke = [
            csr_groups(*csr)
            for csr in broke.level(1).iter_table_groups(scheme, rids)
        ]
        assert broke.degraded == 1
        assert broke.indexed_bytes == 0
        assert cached.indexed_bytes > 0
        assert got_cached == got_broke == scheme_groups(scheme, rids)

    def test_cached_fingerprints_hit_on_reuse(self, h1_scheme):
        store, scheme = h1_scheme
        rids = np.arange(len(store), dtype=np.int64)
        owner = SchemeBinIndex(len(store))
        for _ in owner.level(1).iter_table_groups(scheme, rids):
            pass
        assert owner.fp_hits == 0
        for _ in owner.level(1).iter_table_groups(scheme, rids):
            pass
        assert owner.fp_hits == len(store)

    def test_level_groups_match_legacy_on_real_scheme(self, h1_scheme):
        store, scheme = h1_scheme
        rng = np.random.default_rng(11)
        rids = np.sort(
            rng.choice(len(store), size=len(store) // 2, replace=False)
        ).astype(np.int64)
        owner = SchemeBinIndex(len(store))
        got = [
            csr_groups(*csr)
            for csr in owner.level(1).iter_table_groups(scheme, rids)
        ]
        assert len(got) == scheme.table_count
        assert got == scheme_groups(scheme, rids)

    def test_forced_fingerprint_collisions(self, h1_scheme, monkeypatch):
        """Every fingerprint equal: the byte tie-break alone must split
        the one fingerprint run into the true buckets, with and without
        a key cache."""
        from repro.lsh import binindex
        from repro.lsh.keycache import LevelKeyCache

        store, scheme = h1_scheme
        rids = np.arange(len(store), dtype=np.int64)
        expected = scheme_groups(scheme, rids)
        monkeypatch.setattr(
            binindex,
            "fingerprint_words",
            lambda words: np.zeros(words.shape[0], dtype=np.uint64),
        )
        for key_cache in (None, LevelKeyCache(len(store)).entry(1)):
            owner = SchemeBinIndex(len(store))
            got = [
                csr_groups(*csr)
                for csr in owner.level(1).iter_table_groups(
                    scheme, rids, key_cache=key_cache
                )
            ]
            assert got == expected
