"""Out-of-program tracing: spans and counters around calls into crawler_ray.

Nothing here edits the package. ``install()`` replaces selected public
functions and methods with thin wrappers, in the benchmark driver and — via
the Ray ``worker_process_setup_hook`` built by ``worker_hook()`` — in every
Ray worker process, state actors included.

Each process keeps its records in memory:

* spans: ``[id, parent_id, name, op, t0, t1, child_s, counts]`` for calls at
  batch granularity or coarser. ``child_s`` is the time covered by the
  span's direct children, so ``t1 - t0 - child_s`` is its self time.
* aggregates: ``{name: [calls, seconds, {count: n}]}`` for every wrapped
  call, including per-row calls (decode, hash) that are too frequent to keep
  as spans. A per-row call still adds its duration to the parent span's
  ``child_s``.

A background thread appends the new records to ``<trace_dir>/<pid>.jsonl``
every ``FLUSH_S`` seconds, and reads ``<trace_dir>/ENABLED`` to learn
whether recording is on and which operation id to tag spans with. The
benchmark driver flips that file between operations, so one run can time
traced and untraced operations of the same session.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

FLUSH_S = 0.1
_FLAG = "ENABLED"

_lock = threading.Lock()
_tls = threading.local()
_st = {
    "dir": None,
    "enabled": False,
    "op": -1,
    "next_id": 0,
    "spans": [],
    "agg": {},
    "dirty": False,
    "driver": False,
}


# ----------------------------------------------------------------- recording
def _stack() -> list:
    s = getattr(_tls, "stack", None)
    if s is None:
        s = _tls.stack = []
    return s


def _new_id() -> str:
    with _lock:
        _st["next_id"] += 1
        return f"{os.getpid()}:{_st['next_id']}"


class _Open:
    __slots__ = ("id", "parent", "name", "t0", "child_s", "counts", "keep",
                 "family")

    def __init__(self, name: str, keep: bool, family: str | None = None):
        stack = _stack()
        self.parent = stack[-1] if stack else None
        self.id = _new_id() if keep else None
        self.name = name
        self.child_s = 0.0
        self.counts: dict = {}
        self.keep = keep
        self.family = family
        stack.append(self)
        self.t0 = time.perf_counter()


def _close(sp: _Open) -> None:
    t1 = time.perf_counter()
    stack = _stack()
    # pop down to this span; a child left open by an exception is dropped
    while stack:
        top = stack.pop()
        if top is sp:
            break
    dur = t1 - sp.t0
    if sp.parent is not None:
        sp.parent.child_s += dur
    with _lock:
        a = _st["agg"].setdefault(sp.name, [0, 0.0, {}])
        a[0] += 1
        a[1] += dur
        for k, v in sp.counts.items():
            a[2][k] = a[2].get(k, 0) + v
        if sp.keep:
            _st["spans"].append([
                sp.id, sp.parent.id if sp.parent is not None else None,
                sp.name, _st["op"], sp.t0, t1, sp.child_s, sp.counts,
            ])
        _st["dirty"] = True


def enabled() -> bool:
    return _st["enabled"]


def open_span(name: str, keep: bool = True) -> _Open | None:
    return _Open(name, keep) if _st["enabled"] else None


def close_span(sp: _Open | None) -> None:
    if sp is not None:
        _close(sp)


def current() -> _Open | None:
    s = _stack()
    return s[-1] if s else None


def wrap(fn, name: str, keep: bool = True, family: str | None = None,
         counts=None):
    """Wrapper that records ``name`` around ``fn``. ``family``: a call made
    while a span of the same family is already open is not recorded again
    (``SeenSet.check_and_insert`` calls ``SeenSet.gather``). ``counts``:
    ``(args, kwargs, result) -> dict`` of counters to attach.

    The wrapper reaches this module's state only through module-level
    functions: Ray ships wrappers made on the driver (the round function,
    the politeness actor class) by value, and cloudpickle copies the plain
    globals of a by-value function but imports module-level functions by
    reference."""
    if getattr(fn, "__perfbench__", False):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not enabled():
            return fn(*args, **kwargs)
        if family is not None:
            top = current()
            if top is not None and top.family == family:
                return fn(*args, **kwargs)
        sp = _Open(name, keep, family)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            _close(sp)
            raise
        if counts is not None:
            try:
                sp.counts.update(counts(args, kwargs, out))
            except Exception:  # counters never break the traced program
                pass
        _close(sp)
        return out

    wrapper.__perfbench__ = True
    return wrapper


# -------------------------------------------------------------- persistence
def _flush() -> None:
    with _lock:
        if not _st["dirty"] or _st["dir"] is None:
            return
        rec = {"pid": os.getpid(), "driver": _st["driver"],
               "spans": _st["spans"], "agg": _st["agg"]}
        _st["spans"] = []
        _st["dirty"] = False
        line = json.dumps(rec)
    with open(os.path.join(_st["dir"], f"{os.getpid()}.jsonl"), "a") as f:
        f.write(line + "\n")


def _poll_flag() -> None:
    try:
        with open(os.path.join(_st["dir"], _FLAG)) as f:
            txt = f.read().strip()
    except OSError:
        txt = ""
    if txt:
        _st["op"] = int(txt)
        _st["enabled"] = True
    else:
        _st["enabled"] = False


def _loop() -> None:
    while True:
        time.sleep(FLUSH_S)
        try:
            _poll_flag()
            _flush()
        except Exception:  # keep flushing; a lost record shows as a gap
            import traceback

            traceback.print_exc()


def set_enabled(op: int | None) -> None:
    """Driver side: turn recording on for operation ``op`` (or off with
    None) in this process and, through the flag file, in every worker."""
    path = os.path.join(_st["dir"], _FLAG)
    if op is None:
        if os.path.exists(path):
            os.remove(path)
        _st["enabled"] = False
    else:
        with open(path + ".tmp", "w") as f:
            f.write(str(op))
        os.replace(path + ".tmp", path)
        _st["op"] = op
        _st["enabled"] = True


def flush() -> None:
    _flush()


def read_dir(trace_dir: str) -> tuple[list, dict]:
    """All spans and the summed aggregates of every process that wrote to
    ``trace_dir``. Aggregates are cumulative per process, so the last
    parsable record of each file counts."""
    spans: list = []
    agg: dict = {}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".jsonl"):
            continue
        last = None
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # a process killed mid-write
                spans.extend(rec["spans"])
                last = rec["agg"]
        for k, (n, s, c) in (last or {}).items():
            a = agg.setdefault(k, [0, 0.0, {}])
            a[0] += n
            a[1] += s
            for ck, cv in c.items():
                a[2][ck] = a[2].get(ck, 0) + cv
    return spans, agg


# ------------------------------------------------------------ instrumenting
def _patch(owner, attr: str, name: str, **kw) -> None:
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrap(raw.__func__, name, **kw)))
        return
    orig = getattr(owner, attr)
    new = wrap(orig, name, **kw)
    setattr(owner, attr, new)
    if not isinstance(owner, type):
        # modules that imported the name before patching keep the original
        # binding; rebind those too
        import sys

        for mname, mod in list(sys.modules.items()):
            if mname.startswith("crawler_ray") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)


def _keys(args, kwargs, out) -> dict:
    import numpy as np

    n = int(np.asarray(args[1]).size)
    return {"keys": n, "new": int(n - int(np.count_nonzero(out)))}


def _rows(args, kwargs, out) -> dict:
    return {"rows": int(args[1].num_rows)}


def _part(args, kwargs, out) -> dict:
    return {"bytes": int(args[0].nbytes)}


def _dir_bytes(path: str) -> int:
    total = 0
    for dp, _, names in os.walk(path):
        for n in names:
            try:
                total += os.path.getsize(os.path.join(dp, n))
            except OSError:
                pass
    return total


def _instrument_common() -> None:
    """Wrappers that apply in every process (driver and workers)."""
    from crawler_ray.functions import codecs, hashing
    from crawler_ray.sources import io, lance_ray
    from crawler_ray.stages import fetch, parse, process
    from crawler_ray.state import filters, seen

    _patch(codecs, "decode_image", "functions.codecs.decode_image", keep=False)
    _patch(hashing, "phash64", "functions.hashing.phash64", keep=False)
    _patch(hashing, "md5_hex", "functions.hashing.md5_hex", keep=False)
    for kind in list(parse._PARSERS):
        parse._PARSERS[kind] = wrap(parse._PARSERS[kind], "stages.parse.parser",
                                    keep=False)
    _patch(io, "write_part", "sources.io.write_part", counts=_part)
    _patch(io, "read_parts", "sources.io.read_parts")
    _patch(process.CrawlProcessStage, "__call__", "stages.process.call",
           counts=_rows)
    _patch(fetch.SyntheticFetchStage, "__call__", "stages.fetch.call",
           counts=_rows)
    _patch(seen._SeenShardImpl, "check_and_insert",
           "state.seen.shard.check_and_insert", counts=_keys)
    _patch(filters.CuckooFilter, "add", "state.filters.cuckoo_add")
    _patch(seen.SeenSet, "gather", "state.seen.client.wait", family="seen")
    _patch(seen.SeenSet, "check_and_insert", "state.seen.client.wait",
           family="seen")

    orig_tasks = lance_ray.MiniLanceDatasource.get_read_tasks

    @functools.wraps(orig_tasks)
    def get_read_tasks(self, parallelism):
        tasks = orig_tasks(self, parallelism)
        for t in tasks:
            t._read_fn = _wrap_read_fn(t._read_fn)
        return tasks

    lance_ray.MiniLanceDatasource.get_read_tasks = get_read_tasks


def _wrap_read_fn(fn):
    """Time only the production of each block: with operator fusion the
    consumer runs the next stage while this generator is suspended."""

    def read_fn():
        blocks = iter(fn())
        while True:
            sp = open_span("sources.io.read_fragment")
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                close_span(sp)
            yield block

    return read_fn


def _instrument_driver() -> None:
    """Driver-only wrappers: the crawl round boundary and the politeness
    actor class (exported by value when the first actor is created)."""
    import ray.data as rd

    from crawler_ray.stages import process
    from crawler_ray.state import checkpoint, politeness, seen

    cm = checkpoint.CheckpointManager
    orig_begin, orig_save = cm.begin_round, cm.save_round

    def begin_round(self, rnd):
        if not _st["enabled"]:
            return orig_begin(self, rnd)
        top = current()
        if top is not None and top.name == "pipelines.crawl.round":
            _close(top)  # a rolled-back round that never reached save_round
        _Open("pipelines.crawl.round", True)
        sp = _Open("state.checkpoint.begin_round", True)
        try:
            return orig_begin(self, rnd)
        finally:
            _close(sp)

    def save_round(self, rnd, *args, **kwargs):
        if not _st["enabled"]:
            return orig_save(self, rnd, *args, **kwargs)
        sp = _Open("state.checkpoint.save_round", True)
        try:
            return orig_save(self, rnd, *args, **kwargs)
        finally:
            sp.counts["bytes"] = _dir_bytes(self._round_dir(rnd))
            _close(sp)
            top = current()
            if top is not None and top.name == "pipelines.crawl.round":
                _close(top)

    cm.begin_round, cm.save_round = begin_round, save_round
    _patch(seen.SeenSet, "snapshot", "state.seen.snapshot")
    _patch(rd.Dataset, "to_pandas", "ray.data.to_pandas")

    orig_make = process.make_round_fn

    @functools.wraps(orig_make)
    def make_round_fn(*args, **kwargs):
        return wrap(orig_make(*args, **kwargs), "stages.process.round_fn")

    process.make_round_fn = make_round_fn

    cls = politeness.PolitenessActor.__ray_metadata__.modified_class
    cls.grant_many = wrap(cls.grant_many, "state.politeness.grant_many",
                          keep=False)


def install(trace_dir: str, driver: bool) -> None:
    """Instrument this process and start its flush thread (idempotent)."""
    if _st["dir"] is not None:
        return
    _st["dir"] = trace_dir
    _st["driver"] = driver
    _instrument_common()
    if driver:
        _instrument_driver()
    else:
        _poll_flag()
    threading.Thread(target=_loop, name="perfbench-trace", daemon=True).start()


def worker_hook(base_hook, trace_dir: str | None):
    """``worker_process_setup_hook`` = the package's own hook, then (when
    tracing) this module's wrappers. A closure, so cloudpickle ships it by
    value: a module-level hook would be pickled by reference and has to be
    importable before the worker has its ``sys.path`` (see
    ``crawler_ray/context.py``)."""

    def hook():
        if base_hook is not None:
            base_hook()
        if trace_dir is not None:
            import perfbench.tracer as tracer

            tracer.install(trace_dir, driver=False)

    return hook
