"""The benchmark workloads: input preparation and measured passes.

Inputs are made from the workload seed by :func:`prepare`, which runs
in a child process (``prepare.py``) so that dataset generation and the
cold run a snapshot is captured from count toward neither ``setup_s``
nor the measured process's peak RSS.  A pass then replays a fixed
number of operations against those files through the package's public
entry points, timing each operation and checking its answer outside the
timed region.

Every operation is bracketed by the fixed reference computation of
:func:`reference` (numpy and Python only, no ``repro`` code), and each
time metric is reported in *reference-normalised seconds*: the
operation's wall time times ``REF_NOMINAL_S`` over the mean of the two
reference times around it.  The host this benchmark runs on changes
speed by 20-50% over minutes; the reference slows down with it, the
ratio much less (see README.md).  Raw wall times are kept in the
diagnostics.

Every method runs in one process (``n_jobs=1``) with the package
defaults except ``cost_model="analytic"`` and a pinned method seed, so
that the work counters repeat exactly for a given workload seed.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.io
from repro.core.adaptive import AdaptiveLSH
from repro.core.config import AdaptiveConfig
from repro.datasets.base import Dataset
from repro.datasets.cora import generate_cora
from repro.datasets.spotsigs import generate_spotsigs
from repro.eval.metrics import precision_recall_f1
from repro.serve.session import ResolverSession
from repro.serve.snapshot import IndexSnapshot

perf = time.perf_counter

K = 10
METHOD_SEED = 7
COLD_RECORDS = 5_000
#: Distinct stores a cold_batch run resolves in turn.  Stores made from
#: different seeds take up to 15% more or less time for the same counted
#: work, so a run's median spans several of them.
COLD_STORES = 5
WARM_RECORDS = 10_000
#: warm_query's k after the first query (k=10): uniform on 1..30 from
#: this fixed seed, so every workload seed asks the same sequence.
WARM_K_SEED = 20240
WARM_K_MAX = 30
STREAM_BASE = 8_000
STREAM_BATCH = 250
#: Records generated for the stream; the base plus up to 32 batches.
STREAM_RECORDS = 16_000
#: Warm starts per warm_query / stream_ingest run whose median is
#: ``setup_s`` (cold_batch times the set-up of each of its resolves).
SETUP_REPS = 5
#: A top-k answer below this F1 is counted as a failed operation.
MIN_F1 = 0.5

#: Seconds the reference computation takes on an unloaded 2-core x86-64
#: host; it only fixes the unit of the normalised times.
REF_NOMINAL_S = 0.1

#: Approximate seconds per operation (references included) on a 2-core
#: host, used only to turn ``--seconds`` into a fixed operation count.
OP_SECONDS = {"cold_batch": 2.0, "warm_query": 1.0, "stream_ingest": 2.0}
MIN_OPS = {"cold_batch": 3, "warm_query": 5, "stream_ingest": 4}


def op_count(workload: str, seconds: float) -> int:
    """Fixed operation count of one measured pass."""
    count = max(MIN_OPS[workload], round(seconds / OP_SECONDS[workload]))
    if workload == "stream_ingest":
        count = min(count, (STREAM_RECORDS - STREAM_BASE) // STREAM_BATCH)
    return count


def method_config() -> AdaptiveConfig:
    return AdaptiveConfig(seed=METHOD_SEED, cost_model="analytic", n_jobs=1)


# ----------------------------------------------------------------------
# reference computation
_REF_KEYS = np.random.default_rng(0).integers(0, 2**63, size=80_000, dtype=np.uint64)
_REF_TABLE = {i: i * 7 for i in range(10_000)}


def reference() -> float:
    """Seconds for a fixed mix of the work the program does (multiply
    hashing, stable argsort, ``np.unique``, a Python dict loop)."""
    started = perf()
    for r in range(4):
        hashed = _REF_KEYS * np.uint64(0x9E3779B97F4A7C15) + np.uint64(r)
        order = np.argsort(hashed, kind="stable")
        np.unique(hashed[order] >> np.uint64(44))
    total = 0
    for key in range(10_000):
        total += _REF_TABLE[key]
    return perf() - started


# ----------------------------------------------------------------------
# input preparation (child process)
def _save_snapshot_inputs(dataset: Dataset, store: Any, workdir: Path) -> None:
    """The dataset, the snapshot of a cold ``run(10)`` on ``store`` and
    that run's answer."""
    repro.io.save_dataset(dataset, workdir / "data.npz")
    with AdaptiveLSH(store, dataset.rule, config=method_config()) as method:
        answer = method.run(K)
        IndexSnapshot.capture(method).save(workdir / "snapshot.npz")
    np.savez(workdir / "cold_answer.npz", *[c.rids for c in answer.clusters])


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``workdir``."""
    if workload == "cold_batch":
        for i in range(COLD_STORES):
            repro.io.save_dataset(
                generate_spotsigs(COLD_RECORDS, seed=seed * COLD_STORES + i),
                workdir / f"data{i}.npz",
            )
    elif workload == "warm_query":
        dataset = generate_cora(WARM_RECORDS, seed=seed)
        _save_snapshot_inputs(dataset, dataset.store, workdir)
    else:
        dataset = generate_spotsigs(STREAM_RECORDS, seed=seed)
        _save_snapshot_inputs(dataset, dataset.store.take(np.arange(STREAM_BASE)), workdir)


# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one measured pass saw.  Time lists hold reference-normalised
    seconds; ``raw`` holds the same operations' wall times."""

    setups: list[float] = field(default_factory=list)
    queries: list[float] = field(default_factory=list)
    inserts: list[float] = field(default_factory=list)
    #: Normalised time of each operation a ``queries_per_s`` answer
    #: needs: load + prepare + run (cold_batch), the query (warm_query),
    #: insert + query (stream_ingest).
    answer_ops: list[float] = field(default_factory=list)
    raw: dict[str, list[float]] = field(
        default_factory=lambda: {"setup": [], "query": [], "insert": []}
    )
    #: Reference times, one before the first operation and one after
    #: each.
    refs: list[float] = field(default_factory=list)
    #: Wall time of every timed operation (set-ups included).
    op_time: float = 0.0
    records_resolved: int = 0
    records_inserted: int = 0
    f1: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Exact work counts from public result and session stats.
    counts: dict[str, Any] = field(default_factory=dict)
    #: Largest signature-pool allocation seen at an operation boundary,
    #: and the hash values it held.
    pool_bytes: int = 0
    pool_cells: int = 0
    pool_filled: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def start(self) -> None:
        """Warm the reference up, then take the first bracket time."""
        reference()
        self.refs.append(reference())

    def scale(self) -> float:
        """Normalisation of the operation just finished: the reference
        is timed again and averaged with the time before it."""
        self.refs.append(reference())
        return REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def record(self, kind: str, seconds: float, scale: float) -> float:
        self.raw[kind].append(seconds)
        self.op_time += seconds
        normalised = seconds * scale
        {"setup": self.setups, "query": self.queries, "insert": self.inserts}[kind].append(
            normalised
        )
        return normalised

    def summary(self) -> dict[str, float]:
        out = {
            "setup_s": statistics.median(self.setups),
            "query_p50_s": statistics.median(self.queries),
            "queries_per_s": len(self.answer_ops) / sum(self.answer_ops),
            "topk_f1": statistics.fmean(self.f1),
            "raw_setup_s": statistics.median(self.raw["setup"]),
            "raw_query_p50_s": statistics.median(self.raw["query"]),
        }
        if len(self.queries) >= 40:
            out["query_p75_s"] = statistics.quantiles(self.queries, n=4)[2]
        if self.inserts:
            out["insert_p50_s"] = statistics.median(self.inserts)
            out["ingest_records_per_s"] = self.records_inserted / sum(self.answer_ops)
        if self.records_resolved:
            out["resolve_records_per_s"] = self.records_resolved / sum(self.queries)
        return out


class _Counter:
    """Sums the public work counts of every answer a pass computes."""

    RESULT = ("hashes_computed", "pairs_compared", "pairs_charged", "table_inserts", "rounds")
    INFO = {
        "bin_index": ("rows_grouped", "fp_hits", "fp_misses"),
        "memoized_pairs": ("hits", "misses"),
        "signature_cache": ("hits", "misses"),
    }

    def __init__(self, run: Pass) -> None:
        self.run = run
        self.digest = hashlib.sha1()
        self.counts: dict[str, Any] = {"answers": 0, "computed": 0}

    def add(self, result: Any, cached: bool = False) -> None:
        counts = self.counts
        counts["answers"] += 1
        for cluster in result.clusters:
            self.digest.update(np.ascontiguousarray(cluster.rids).tobytes())
            self.digest.update(b"|")
        self.digest.update(b"#")
        if cached:
            return
        counts["computed"] += 1
        for name in self.RESULT:
            counts[name] = counts.get(name, 0) + int(getattr(result.counters, name))
        for section, names in self.INFO.items():
            stats = result.info.get(section) or {}
            for name in names:
                key = f"{section}.{name}"
                counts[key] = counts.get(key, 0) + int(stats.get(name, 0))
            key = f"{section}.bytes"
            counts[key] = max(counts.get(key, 0), int(stats.get("bytes", 0)))
        delta = (result.info.get("bin_index") or {}).get("delta") or {}
        for name in ("rows", "pairs"):
            key = f"bin_index.delta.{name}"
            counts[key] = counts.get(key, 0) + int(delta.get(name, 0))

    def sample_pools(self, method: AdaptiveLSH, fill: bool) -> None:
        """Signature-pool bytes allocated now (len x capacity x itemsize);
        with ``fill``, also the hash values they hold."""
        pools = getattr(method, "_pools", None)
        if not pools:
            # A renamed pool list would read as zero bytes allocated.
            self.run.fail("no signature pools found on the method (AdaptiveLSH._pools)")
            return
        nbytes = sum(len(p) * p.capacity * p.family.dtype.itemsize for p in pools)
        if nbytes >= self.run.pool_bytes:
            self.run.pool_bytes = nbytes
            self.run.pool_cells = sum(len(p) * p.capacity for p in pools)
            if fill:
                self.run.pool_filled = sum(
                    p.filled(rid) for p in pools for rid in range(len(p))
                )

    def finish(self, **extra: Any) -> None:
        self.counts.update(extra)
        self.counts["pool_bytes"] = self.run.pool_bytes
        self.counts["answer_digest"] = self.digest.hexdigest()
        self.counts["f1"] = [round(v, 12) for v in self.run.f1]
        self.run.counts = self.counts


def _f1(result: Any, truth: np.ndarray) -> float:
    return precision_recall_f1(result.output_rids, truth)[2]


def _check_f1(run: Pass, label: str, value: float) -> None:
    run.f1.append(value)
    if value < MIN_F1:
        run.fail(f"{label}: top-k F1 {value:.4f} is below {MIN_F1}")


def _same_answer(result: Any, clusters: list[np.ndarray]) -> bool:
    return len(result.clusters) == len(clusters) and all(
        np.array_equal(c.rids, r) for c, r in zip(result.clusters, clusters)
    )


def _cold_answer(workdir: Path) -> list[np.ndarray]:
    with np.load(workdir / "cold_answer.npz") as data:
        return [data[f"arr_{i}"] for i in range(len(data.files))]


def _warm_starts(
    run: Pass, snapshot: Path, store: Any
) -> ResolverSession | None:
    """``SETUP_REPS`` timed warm starts; the last session is kept."""
    session = None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        run.attempted += 1
        try:
            started = perf()
            session = ResolverSession.from_snapshot(snapshot, store, n_jobs=1)
            elapsed = perf() - started
        except Exception:
            run.fail(traceback.format_exc())
            continue
        run.record("setup", elapsed, run.scale())
    return session


# ----------------------------------------------------------------------
# measured passes
def cold_batch(workdir: Path, n_ops: int, tracer: Any = None) -> Pass:
    """Fixed number of cold one-shot resolves, each on a freshly loaded
    store (the ``COLD_STORES`` stores in turn): load + construct +
    ``prepare()`` (set-up), then ``run(10)``."""
    run = Pass()
    counter = _Counter(run)
    truths: dict[int, np.ndarray] = {}
    outcomes: dict[int, set[Any]] = {i: set() for i in range(COLD_STORES)}
    if tracer is not None:
        tracer.install()
    run.start()
    for rep in range(n_ops):
        store = rep % COLD_STORES
        run.attempted += 1
        try:
            started = perf()
            dataset = repro.io.load_dataset(workdir / f"data{store}.npz")
            method = AdaptiveLSH(dataset.store, dataset.rule, config=method_config())
            method.prepare()
            prepared = perf()
            result = method.run(K)
            done = perf()
        except Exception:
            run.fail(traceback.format_exc())
            continue
        scale = run.scale()
        run.answer_ops.append(
            run.record("setup", prepared - started, scale)
            + run.record("query", done - prepared, scale)
        )
        run.records_resolved += len(dataset.store)
        if store not in truths:
            truths[store] = dataset.top_k_rids(K)
        _check_f1(run, f"resolve {rep}", _f1(result, truths[store]))
        outcomes[store].add(
            (repr(result.counters), tuple(c.rids.tobytes() for c in result.clusters))
        )
        counter.add(result)
        counter.sample_pools(method, fill=tracer is not None)
        method.close()
        del dataset, method, result
        gc.collect()
    if any(len(seen) > 1 for seen in outcomes.values()):
        run.fail("cold resolves of one store differ in their answers or work counts")
    counter.finish()
    return run


def warm_query(workdir: Path, n_ops: int, tracer: Any = None) -> Pass:
    """Warm starts from the snapshot of a cold ``run(10)``, then a closed
    loop of ``top_k`` queries from one client on the last session: k=10
    first, then k uniform on 1..30 from a fixed seed."""
    run = Pass()
    counter = _Counter(run)
    dataset = repro.io.load_dataset(workdir / "data.npz")
    cold = _cold_answer(workdir)
    ks = [K] + [
        int(k) for k in np.random.default_rng(WARM_K_SEED).integers(1, WARM_K_MAX + 1, n_ops - 1)
    ]
    truths = {k: dataset.top_k_rids(k) for k in set(ks)}
    if tracer is not None:
        tracer.install()
    run.start()
    session = _warm_starts(run, workdir / "snapshot.npz", dataset.store)
    if session is None:
        return run
    for step, k in enumerate(ks):
        run.attempted += 1
        hits = session.serving_stats()["cache_hits"]
        try:
            started = perf()
            result = session.top_k(k)
            elapsed = perf() - started
        except Exception:
            run.fail(traceback.format_exc())
            continue
        run.answer_ops.append(run.record("query", elapsed, run.scale()))
        if step == 0 and not _same_answer(result, cold):
            # The snapshot's contract: a warm start answers exactly as
            # the cold run it was captured from.
            run.fail("warm-started top_k(10) differs from the cold run(10) of its snapshot")
        _check_f1(run, f"query {step} (k={k})", _f1(result, truths[k]))
        counter.add(result, cached=session.serving_stats()["cache_hits"] > hits)
        counter.sample_pools(session.method, fill=tracer is not None)
    stats = session.serving_stats()
    counter.finish(lru_queries=stats["queries"], lru_hits=stats["cache_hits"])
    session.close()
    return run


def stream_ingest(workdir: Path, n_ops: int, tracer: Any = None) -> Pass:
    """Closed loop of steps from one client on a session warm-started
    from an 8k-record base: ``extend_store`` with 250 new records, then
    ``top_k(10)``."""
    run = Pass()
    counter = _Counter(run)
    dataset = repro.io.load_dataset(workdir / "data.npz")
    base = dataset.store.take(np.arange(STREAM_BASE))
    batches = [
        dataset.store.take(np.arange(lo, lo + STREAM_BATCH))
        for lo in range(STREAM_BASE, STREAM_BASE + n_ops * STREAM_BATCH, STREAM_BATCH)
    ]
    snapshot = workdir / "snapshot.npz"
    # The snapshot's contract, checked untimed on a session of its own: a
    # warm start answers bit-identically to the cold run it was captured
    # from.
    run.attempted += 1
    with ResolverSession.from_snapshot(snapshot, base, n_jobs=1) as session:
        first = session.top_k(K)
    if not _same_answer(first, _cold_answer(workdir)):
        run.fail("warm-started answer differs from the cold run(10) of its snapshot")
    del session, first
    gc.collect()

    if tracer is not None:
        tracer.install()
    run.start()
    session = _warm_starts(run, snapshot, base)
    if session is None:
        return run
    for step, batch in enumerate(batches):
        run.attempted += 2
        try:
            started = perf()
            session.extend_store(batch)
            inserted = perf()
            result = session.top_k(K)
            done = perf()
        except Exception:
            # Later steps depend on this one's store: stop here, with
            # both of the step's operations counted as failed.
            run.fail(traceback.format_exc())
            run.failed += 1
            break
        scale = run.scale()
        run.answer_ops.append(
            run.record("insert", inserted - started, scale)
            + run.record("query", done - inserted, scale)
        )
        run.records_inserted += len(batch)
        n = len(session.store)
        truth = Dataset("stream", session.store, dataset.labels[:n], dataset.rule)
        _check_f1(run, f"step {step}", _f1(result, truth.top_k_rids(K)))
        counter.add(result)
        counter.sample_pools(session.method, fill=tracer is not None)
    stats = session.serving_stats()
    counter.finish(
        records=len(session.store),
        lru_queries=stats["queries"],
        lru_hits=stats["cache_hits"],
    )
    session.close()
    return run


PASSES: dict[str, Callable[..., Pass]] = {
    "cold_batch": cold_batch,
    "warm_query": warm_query,
    "stream_ingest": stream_ingest,
}
