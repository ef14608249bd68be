"""Process-wide Ray Data executor tuning shared by every entry point, and
the per-worker state cache of task-mode map stages (``worker_cached``).

``tune_data_context()`` is called by bench.py, the CLI, the test fixture
and ``__ray_entry__`` (the library itself never calls ``ray.init``; a
DataContext can be tuned before or after init, it is plain process
state).

Why reservations are disabled: Ray Data's per-operator resource
reservation (``op_resource_reservation_enabled``, default on since Ray
2.10) splits the object-store budget between operators ahead of time.
On DAGs where a map stage AMPLIFIES rows ahead of an all-to-all — the
shape of every banding pipeline here (minhash/simhash/phash emit
16-32 band rows per input row, then ONE coarse-partition groupby) —
the allocator starves the map stage: measured on the 200k-doc scale
corpus at 16 cpus, `minhash_near_dup_pairs` spent 22.4s walltime on a
stage with 2.5s/task × 16 tasks of actual work (effective concurrency
~1.8 of 16), and the whole query ran 34.0s. Disabling reservations:
10.6s — identical output, 3.2× faster; at 4 cpus 52.8s → 20.3s. Raising
the TOTAL budget (``resource_limits.object_store_memory``) does NOT
help (31.2s) — it is the reservation split itself, not the budget size.
With reservations off the streaming executor still applies global
backpressure against the full object-store budget and spills when it
fills, which is the designed at-scale behavior; the pipelines here
bound their own peak usage (combiner-before-exchange, slim band rows,
footer-sized blocks), so none relies on the reservation guard.
"""

from __future__ import annotations


def tune_data_context(progress_bars: bool = False) -> None:
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = progress_bars
    ctx.op_resource_reservation_enabled = False
    # Push-based sort shuffle pipelines the map and reduce phases of every
    # all-to-all (sort/groupby), cutting the per-exchange barrier stall the
    # banding pipelines pay 3-5x per query. Measured on minhash @ 200k docs:
    # 4 cpus 20.3 -> 12.3 s, 16 cpus 10.6 -> 9.5 s, identical output.
    # (hash_shuffle was also tried: its aggregator actors deadlock against
    # the crawl's state actors on small CPU counts — do not use.)
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    # the driver process gets the workers' filter; the hook dedupes by
    # class name, so repeated calls leave one filter on the logger
    worker_runtime_env()["worker_process_setup_hook"]()


def worker_runtime_env() -> dict:
    """``runtime_env`` for the ``ray.init`` calls WE own (bench, CLI, test
    fixture, tools): installs the known-noise log filter in every worker
    process too. The noise source is environmental — the driver-generated
    testdata parquet carries pandas footer metadata, and a ``pa.Schema``
    with metadata is unhashable in this pyarrow, so Ray's block-schema
    dedup warns once per block in the READ workers. External drivers that
    call ``ray.init`` themselves still see those lines (bounded by Ray's
    log dedup); everything this repo launches is clean.

    The hook is a self-contained CLOSURE on purpose: the setup hook runs at
    worker-process start, BEFORE the driver's sys.path reaches the worker —
    a module-level function would pickle by reference to ``crawler_ray``
    and die with ModuleNotFoundError (which stalls worker startup and hangs
    the whole session). cloudpickle ships a closure by value."""

    def _hook():
        """Drop exactly ONE known-cosmetic Ray log line so real warnings
        stay visible at scale: "Failed to hash the schemas (for
        deduplication): unhashable type 'dict'" from
        ray/data/_internal/arrow_ops/transform_pyarrow.py. Schema dedup is
        a memory micro-optimization, so failing it is harmless, but at one
        line per block it floods multi-thousand-block runs. The filter
        matches that message prefix on that one module's logger only; any
        other message or logger passes through."""
        import logging

        class _DropSchemaHashNoise(logging.Filter):
            def filter(self, record):
                return not str(record.getMessage()).startswith(
                    "Failed to hash the schemas (for deduplication)"
                )

        lg = logging.getLogger(
            "ray.data._internal.arrow_ops.transform_pyarrow"
        )
        if not any(type(f).__name__ == "_DropSchemaHashNoise" for f in lg.filters):
            lg.addFilter(_DropSchemaHashNoise())

    return {"worker_process_setup_hook": _hook}


# slot -> (key, value): the per-worker-process state of task-mode map
# stages. Module-level in an importable module ON PURPOSE: a dict that a
# closure references would be pickled by value with the closure, so every
# task would get a fresh empty copy and rebuild silently.
_WORKER_CACHE: dict[str, tuple[str, object]] = {}


def worker_cached(slot: str, key: str, build):
    """Per-worker-process state for task-mode ``map_batches`` stages.

    Ray Data starts an actor pool per execution, so a query or crawl round
    that maps an actor class pays the pool spin-up on every call. Plain
    tasks run on Ray's pre-started, reused worker processes; a stage that
    needs built state (a resolved broadcast table, a crawl stage's actor
    handles) builds it here once per worker instead of once per task.

    Holds ONE live value per ``slot`` per worker process and rebuilds it
    when ``key`` changes. Callers key by the call's ``ObjectRef.hex()``, so
    nothing built for one query call or crawl can serve the next one.
    """
    hit = _WORKER_CACHE.get(slot)
    if hit is not None and hit[0] == key:
        return hit[1]
    _WORKER_CACHE.pop(slot, None)  # drop the old value before building
    value = build()
    _WORKER_CACHE[slot] = (key, value)
    return value
