"""Repository benchmark: adaLSH top-k resolution, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_batch --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries diagnostics (host-speed probe, exact counts,
layer shares, the workload-specific latencies).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from statistics import median
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-checkout scratch: one temporary input directory per run, and the
#: count ledger that later runs of the same seed are checked against.
STATE = ROOT / ".perfbench"
PREPARE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "topk_f1": "ratio",
}


def _prepare_inputs(workload: str, seed: int, workdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(workdir)],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=PREPARE_TIMEOUT_S,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Any, traced: Any, untraced: Any, layers: list[str]
) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts of the traced pass."""
    c = defaultdict(int, traced.counts)
    out: dict[str, tuple[float, str]] = {
        f"{layer}.self_s": (tracer.self_s.get(layer, 0.0), "s") for layer in layers
    }
    out.update(
        {
            "lsh.signatures.hashes_computed": (c["hashes_computed"], "count"),
            "lsh.signatures.alloc_mb": (traced.pool_bytes / 2**20, "MB"),
            "lsh.signatures.fill_ratio": (
                _ratio(traced.pool_filled, traced.pool_cells),
                "ratio",
            ),
            "lsh.keycache.hit_ratio": (
                _ratio(
                    c["signature_cache.hits"],
                    c["signature_cache.hits"] + c["signature_cache.misses"],
                ),
                "ratio",
            ),
            "lsh.keycache.bytes": (c["signature_cache.bytes"], "bytes"),
            "lsh.binindex.group.rows_grouped": (c["bin_index.rows_grouped"], "count"),
            "lsh.binindex.group.fp_hit_ratio": (
                _ratio(
                    c["bin_index.fp_hits"],
                    c["bin_index.fp_hits"] + c["bin_index.fp_misses"],
                ),
                "ratio",
            ),
            "lsh.binindex.group.bytes": (c["bin_index.bytes"], "bytes"),
            "structures.union.edges": (tracer.counts["union_edges"], "count"),
            "core.transitive.table_inserts": (c["table_inserts"], "count"),
            "core.adaptive.rounds": (c["rounds"], "count"),
            "core.pairwise.pairs_compared": (c["pairs_compared"], "count"),
            "core.pairwise.pairs_charged": (c["pairs_charged"], "count"),
            "core.pairmemo.hit_ratio": (
                _ratio(
                    c["memoized_pairs.hits"],
                    c["memoized_pairs.hits"] + c["memoized_pairs.misses"],
                ),
                "ratio",
            ),
            "core.pairmemo.bytes": (c["memoized_pairs.bytes"], "bytes"),
            "online.delta.rows": (tracer.counts["delta_insert_rows"], "count"),
            "online.delta.pairs": (c["bin_index.delta.pairs"], "count"),
            "serve.snapshot.bytes": (tracer.snapshot_bytes, "bytes"),
            "serve.session.lru_hit_ratio": (
                _ratio(c.get("lru_hits", 0), c.get("lru_queries", 0)),
                "ratio",
            ),
            "trace.unattributed_s": (traced.op_time - tracer.total_self(), "s"),
            # Medians of per-operation wall times: the untraced pass runs
            # first in the process and alone pays the first-operation cost.
            "trace.overhead_ratio": (
                _ratio(median(traced.answer_ops), median(untraced.answer_ops)),
                "ratio",
            ),
        }
    )
    return out


def code_digest() -> str:
    """Hash of the measured code (``src/repro`` and this directory), so
    that the count ledger holds counts equal only across runs of the
    same code: a change that does less work starts a ledger of its own."""
    digest = hashlib.sha256()
    files = sorted(SRC.glob("repro/**/*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _check_ledger(path: Path, record: dict[str, Any]) -> list[str]:
    """Compare ``record`` with what earlier runs of the same workload,
    seed and operation count wrote; add any new section.  Returns the
    mismatching keys."""
    known: dict[str, Any] = {}
    if path.exists():
        known = json.loads(path.read_text())
    mismatches = []
    for section, values in record.items():
        if section not in known:
            known[section] = values
            continue
        for key in sorted(set(values) | set(known[section])):
            if values.get(key) != known[section].get(key):
                mismatches.append(f"{section}.{key}")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def _emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cold_batch", "warm_query", "stream_ingest")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Measure the program's defaults, whatever the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    n_ops = workloads.op_count(args.workload, args.seconds)
    run_pass = workloads.PASSES[args.workload]
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    tracer = None
    try:
        _prepare_inputs(args.workload, args.seed, workdir)
        probe_before = workloads.reference()
        untraced = run_pass(workdir, n_ops)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mb = usage.ru_maxrss / 1024
        traced = None
        if args.trace:
            gc.collect()
            tracer = tracing.Tracer()
            try:
                traced = run_pass(workdir, n_ops, tracer)
            finally:
                tracer.uninstall()
        probe_after = workloads.reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = bool(untraced.queries and untraced.setups)
    summary = untraced.summary() if measured else {}
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    problems = [e.strip().splitlines()[-1] for e in untraced.errors]
    if traced is not None:
        problems += [e.strip().splitlines()[-1] for e in traced.errors]
        if traced.counts != untraced.counts:
            diff = sorted(
                k for k in set(traced.counts) | set(untraced.counts)
                if traced.counts.get(k) != untraced.counts.get(k)
            )
            problems.append(f"traced and untraced counts differ: {diff}")
    if tracer is not None and tracer.skipped:
        # A renamed or deleted target would read as a layer doing no work.
        problems.append(f"trace targets missing from the program: {tracer.skipped}")
    record: dict[str, Any] = {"counts": untraced.counts}
    if tracer is not None and traced is not None:
        record["trace"] = {
            **{f"counts.{k}": v for k, v in tracer.counts.items()},
            **{f"calls.{k}": v for k, v in tracer.calls.items()},
            "snapshot_bytes": tracer.snapshot_bytes,
            "pool_filled": traced.pool_filled,
        }
    if failed == 0 and not problems:
        # Only a clean run may set the counts later runs are held to.
        ledger = STATE / f"{args.workload}-seed{args.seed}-ops{n_ops}-{code_digest()}.json"
        mismatches = _check_ledger(ledger, record)
        if mismatches:
            problems.append(f"counts differ from earlier runs of this seed: {mismatches}")

    diagnostics: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": n_ops,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        # CPU time and page faults of the measuring process up to the end
        # of the untraced pass, to tell host slowness from in-process work.
        "rusage": {
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt,
        },
        "summary": summary,
        "failed_ops_ratio": failed / max(attempted, 1),
        "counts": untraced.counts,
        # Normalised and raw seconds of every operation, and the
        # reference times that bracket them.
        "latencies_s": {
            "setup": untraced.setups,
            "query": untraced.queries,
            "insert": untraced.inserts,
        },
        "raw_latencies_s": untraced.raw,
        "reference_s": untraced.refs,
        "problems": problems,
    }
    if tracer is not None and traced is not None:
        total = traced.op_time
        diagnostics["layer_shares"] = {
            layer: tracer.self_s.get(layer, 0.0) / total
            for layer in tracing.LAYERS
            if tracer.self_s.get(layer, 0.0) > 0
        }
        diagnostics["layer_calls"] = dict(tracer.calls)
        diagnostics["trace_skipped"] = tracer.skipped
        diagnostics["traced_op_s"] = total
        diagnostics["untraced_op_s"] = untraced.op_time
    print(json.dumps({"diagnostics": diagnostics}), flush=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = failed == 0 and not problems and measured
    if args.trace:
        metrics = per_layer_metrics(tracer, traced, untraced, tracing.LAYERS)
    else:
        summary["peak_rss_mb"] = peak_rss_mb
        metrics = {
            name: (summary.get(name, 0.0), unit) for name, unit in END_TO_END_UNITS.items()
        }
    _emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
