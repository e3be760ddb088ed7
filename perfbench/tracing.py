"""Outside-in per-layer tracing for the benchmark.

Spans come only from wrapping public functions at their class or module
attribute, from this file; nothing inside ``repro`` is edited.  A span's
self time is its duration minus the time covered by its child spans, so
the layer self times of one operation never overlap and add up to the
operation's wall time minus the benchmark's own glue
(``trace.unattributed_s``).

The tracer counts only what no public stat reports: the edges passed to
``union_edges``, the rows passed to ``H1DeltaIndex.insert`` and the array
bytes of the snapshots captured or loaded.  Every other count comes from
the public stats the workloads sum (``workloads._Counter``).  A target
that does not exist in the program (renamed or deleted by a later
change) is listed in :attr:`Tracer.skipped`, and the run that sees one
is not correct: the benchmark must follow such a change rather than
report a zero for the missing layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

perf = time.perf_counter

#: ``(layer, "module:Class.attr" or "module:function")`` pairs wrapped
#: as spans.  Every concrete kernel backend is added at install time.
SPAN_TARGETS: list[tuple[str, str]] = [
    ("io.load", "repro.io:load_dataset"),
    ("core.prepare", "repro.core.adaptive:AdaptiveLSH.prepare"),
    ("core.adaptive", "repro.core.adaptive:AdaptiveLSH.run"),
    ("core.adaptive", "repro.core.adaptive:AdaptiveLSH.refine"),
    ("core.transitive", "repro.core.transitive:TransitiveHashingFunction.apply"),
    ("lsh.binindex.group", "repro.lsh.binindex:LevelBins.iter_table_groups"),
    ("lsh.keycache", "repro.lsh.keycache:LevelEntry.rows"),
    ("lsh.signatures", "repro.lsh.families:SignaturePool.ensure"),
    ("structures.union", "repro.structures.union_find:ClusterUnionFind.union_edges"),
    ("structures.union", "repro.structures.union_find:UnionFind.union_edges"),
    ("core.pairwise", "repro.core.pairwise_fn:PairwiseComputation.apply"),
    ("core.pairmemo", "repro.core.pairmemo:PairVerdictMemo.lookup"),
    ("core.pairmemo", "repro.core.pairmemo:PairVerdictMemo.record"),
    ("online.delta", "repro.lsh.binindex:H1DeltaIndex.insert"),
    ("online.refine", "repro.online.streaming:StreamingTopK.top_k"),
    ("serve.snapshot.capture", "repro.serve.snapshot:IndexSnapshot.capture"),
    ("serve.snapshot.restore", "repro.serve.snapshot:IndexSnapshot.restore"),
    ("serve.snapshot.load", "repro.serve.snapshot:IndexSnapshot.load"),
    ("records.concat", "repro.records:RecordStore.concat"),
    ("serve.session", "repro.serve.session:ResolverSession.top_k"),
    ("serve.session", "repro.serve.session:ResolverSession.extend_store"),
    ("serve.session", "repro.serve.session:ResolverSession.from_snapshot"),
]

KERNEL_TARGETS = {
    "kernels.minhash": ("minhash_block",),
    "kernels.jaccard": (
        "jaccard_block",
        "jaccard_pairwise",
        "jaccard_one_to_many",
        "jaccard_block_matrix",
    ),
}

#: Every layer the trace reports.
LAYERS = list(dict.fromkeys([layer for layer, _ in SPAN_TARGETS] + list(KERNEL_TARGETS)))


def _resolve(target: str) -> tuple[Any, str] | None:
    """``"module:Owner.attr"`` -> ``(owner object, attr)``, or ``None``
    when the module, class or attribute is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Span stack plus per-layer self-time and count ledgers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: [layer, start, child_seconds].
        self._stack: list[list[Any]] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: Targets :meth:`install` did not find in the program.
        self.skipped: list[str] = []
        #: Largest snapshot (array bytes) captured or loaded.
        self.snapshot_bytes = 0

    # -- spans ---------------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, perf(), 0.0])

    def _exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = perf() - start
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def _wrapper(
        self,
        fn: Callable[..., Any],
        layer: str,
        hook: Callable[..., Any] | None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``; ``hook(tracer, args,
        call)`` counts around ``call()``."""
        tracer = self

        def call_fn(*args: Any, **kwargs: Any) -> Any:
            tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if hook is None:
                return call_fn(*args, **kwargs)
            return hook(tracer, args, lambda: call_fn(*args, **kwargs))

        return wrapper

    def _generator_wrapper(
        self, fn: Callable[..., Iterator[Any]], layer: str
    ) -> Callable[..., Iterator[Any]]:
        """A generator's work happens in its resumptions: each ``next``
        is one span segment of ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                tracer._enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                yield item

        return wrapper

    # -- install / remove ----------------------------------------------
    def _wrap(self, owner: Any, attr: str, layer: str) -> None:
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(fn):
            wrapped = self._generator_wrapper(fn, layer)
        else:
            hook = _HOOKS.get(f"{owner.__name__}.{attr}")
            wrapped = self._wrapper(fn, layer, hook)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every target that exists; note the others in
        :attr:`skipped`."""
        skipped = self.skipped
        for layer, target in SPAN_TARGETS:
            found = _resolve(target)
            if found is None:
                skipped.append(target)
                continue
            self._wrap(*found, layer)
        for module_name in ("repro.kernels.reference", "repro.kernels.packed"):
            try:
                importlib.import_module(module_name)
            except ImportError:
                skipped.append(module_name)
        base = _resolve("repro.kernels.base:KernelBackend.minhash_block")
        if base is None:
            skipped.append("repro.kernels.base:KernelBackend")
        backends = _subclasses(base[0]) if base else []
        for layer, attrs in KERNEL_TARGETS.items():
            wrapped = 0
            for cls in backends:
                for attr in attrs:
                    if attr in vars(cls) and not inspect.isabstract(cls):
                        self._wrap(cls, attr, layer)
                        wrapped += 1
            if not wrapped:
                skipped.append(f"{layer}: no kernel backend method")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def total_self(self) -> float:
        return sum(self.self_s.values())


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ----------------------------------------------------------------------
# Count hooks: ``hook(tracer, args, call)`` reads what it needs around
# ``call()``, which runs the wrapped function inside its span.
def _hook_union(tracer, args, call):
    tracer.counts["union_edges"] += int(getattr(args[1], "size", 0))
    return call()


def _hook_delta(tracer, args, call):
    tracer.counts["delta_insert_rows"] += int(getattr(args[1], "size", 0))
    return call()


def _hook_snapshot(tracer, args, call):
    result = call()
    arrays = getattr(result, "arrays", None)
    if not isinstance(arrays, dict):
        tracer.skipped.append("repro.serve.snapshot:IndexSnapshot.arrays")
        return result
    nbytes = sum(int(a.nbytes) for a in arrays.values())
    tracer.snapshot_bytes = max(tracer.snapshot_bytes, nbytes)
    return result


_HOOKS: dict[str, Callable[..., Any]] = {
    "ClusterUnionFind.union_edges": _hook_union,
    "UnionFind.union_edges": _hook_union,
    "H1DeltaIndex.insert": _hook_delta,
    "IndexSnapshot.capture": _hook_snapshot,
    "IndexSnapshot.load": _hook_snapshot,
}
