"""Ray Data ←→ minilance integration: distributed snapshot reads and
distributed fragment writes with ONE atomic manifest commit.

``crawler_ray.sources.io`` reads and writes every crawl sink through these
two classes. They give the vendored :mod:`crawler_ray.vendor.minilance`
store the same execution shape as ``ray.data.read_lance`` /
``Dataset.write_lance``:

* **Read** — one ``ReadTask`` per committed fragment, or per group of
  whole units (fragments, or co-partitioned bucket dirs) when fewer blocks
  are asked for, planned from the manifest's per-fragment row/byte stats
  (so the streaming executor sizes and schedules blocks from real
  metadata, exactly like the parquet footer-driven reads elsewhere in the
  engine), with column projection pushed into the fragment read.
* **Write** — every Ray write task lands its blocks as immutable fragment
  files (no coordination), returns the manifest entries, and the driver
  commits ALL of them in one atomic manifest rename in
  ``on_write_complete``. A failed/retried task writes orphan files that no
  manifest ever references — the dataset is never half-visible, which is the
  property that makes the crawl sinks resumable.

At the 100-TB design point this is the right split: fragment writes are
embarrassingly parallel and the only serial step is an O(#fragments) JSON
manifest rename on the driver.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import pyarrow as pa

from ray.data._internal.execution.interfaces.task_context import TaskContext
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasink, Datasource, ReadTask
from ray.data.datasource.datasink import WriteResult

from crawler_ray.vendor import minilance


def _total_size(sizes: List[Optional[int]]) -> Optional[int]:
    """Summed byte size, or None (unknown) when no fragment has a size."""
    known = [s for s in sizes if s is not None]
    return sum(known) if known else None


class MiniLanceDatasource(Datasource):
    """Plan read tasks over ONE OR MANY committed datasets.

    Accepting a list of URIs matters: the crawl sinks write one dataset per
    content-addressed part, and a frontier round reads dozens of them. A
    per-part ``read_datasource`` + ``Dataset.union`` plan gives every part
    its own input operator — measured 61 s for a 52-part round on the tiny
    CLI fixture, pure driver/operator overhead — while one datasource over
    all parts is a single operator, exactly how ``read_parquet`` treats a
    directory.

    ``buckets`` (one key per uri) marks a co-partitioned read: the datasets
    that share a key form one indivisible unit (the crawl frontier's
    ``bucket=NNNN`` dirs, each holding every row of its hosts). Without it
    every fragment is its own unit."""

    def __init__(
        self,
        uris: str | List[str],
        columns: Optional[List[str]] = None,
        version: Optional[int] = None,
        buckets: Optional[List[str]] = None,
    ):
        if isinstance(uris, str):
            uris = [uris]
        if not uris:
            raise ValueError("no dataset uris given")
        if version is not None and len(uris) != 1:
            raise ValueError("version= only applies to a single-uri read")
        if buckets is not None and len(buckets) != len(uris):
            raise ValueError("buckets= needs one key per uri")
        self._columns = columns
        self._buckets = buckets
        # resolve the snapshots ONCE on the driver: every read task then
        # reads the same committed versions even if writers commit meanwhile
        self._dsets = [minilance.dataset(u, version=version) for u in uris]

    def get_name(self) -> str:
        return "MiniLance"

    def estimate_inmemory_data_size(self) -> Optional[int]:
        sizes = [
            f.size_bytes for ds in self._dsets for f in ds.get_fragments()
        ]
        return _total_size(sizes) if sizes else 0

    def _units(self) -> List[list]:
        """Fragments in indivisible read units: one per bucket key for a
        co-partitioned read (empty buckets dropped), else one per
        fragment."""
        if self._buckets is None:
            return [[f] for ds in self._dsets for f in ds.get_fragments()]
        by_key: dict = {}
        for key, ds in zip(self._buckets, self._dsets):
            by_key.setdefault(key, []).extend(ds.get_fragments())
        return [frags for _, frags in sorted(by_key.items()) if frags]

    def groups(self, parallelism: int) -> List[list]:
        """Deal whole units into at most ``parallelism`` groups (one per
        unit when ``parallelism`` is unset or not lower), balanced by
        manifest row counts: largest unit first, into the lightest group
        (an empty group first, so every group gets a unit)."""
        units = self._units()
        n = len(units)
        if parallelism and 0 < parallelism < n:
            n = parallelism
        rows = [sum(f.count_rows() for f in u) for u in units]
        load = [0] * n
        members: List[list] = [[] for _ in range(n)]
        for i in sorted(range(len(units)), key=lambda i: (-rows[i], i)):
            g = min(range(n), key=lambda j: (load[j], len(members[j]), j))
            load[g] += rows[i]
            members[g].extend(units[i])
        return members

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        columns = self._columns
        tasks: List[ReadTask] = []
        # one task per group of WHOLE units, yielding ONE concatenated
        # table: a fused map_batches(batch_size=None) consumer sees each
        # group as one batch. The crawl's per-host quota selection relies
        # on it (a group of whole bucket dirs holds every row of its hosts),
        # and read→map fusion needs the task count to match the plan.
        for group in self.groups(parallelism):
            paths = [f.path for f in group]
            rows = sum(f.count_rows() for f in group)
            meta = BlockMetadata(
                num_rows=rows,
                size_bytes=_total_size([f.size_bytes for f in group]),
                exec_stats=None,
                input_files=paths,
            )

            def read_fn(paths=paths, columns=columns) -> Iterable[pa.Table]:
                import pyarrow as _pa
                import pyarrow.feather as feather

                tbls = [feather.read_table(p, columns=columns) for p in paths]
                yield tbls[0] if len(tbls) == 1 else _pa.concat_tables(tbls)

            tasks.append(ReadTask(read_fn, meta))
        if not tasks:
            # empty committed version(s): one task yielding the empty schema
            schema = self._dsets[0].schema
            if columns is not None:
                schema = pa.schema([schema.field(c) for c in columns])
            empty = schema.empty_table()
            tasks.append(
                ReadTask(
                    lambda empty=empty: iter([empty]),
                    BlockMetadata(
                        num_rows=0, size_bytes=0, exec_stats=None, input_files=None
                    ),
                )
            )
        return tasks


class MiniLanceDatasink(Datasink[List[dict]]):
    """Distributed fragment writes + one atomic driver-side commit."""

    def __init__(self, uri: str, mode: str = "create"):
        if mode not in ("create", "overwrite", "append"):
            raise ValueError(f"bad mode {mode!r}")
        self._uri = uri
        self._mode = mode

    def get_name(self) -> str:
        return "MiniLance"

    @property
    def supports_distributed_writes(self) -> bool:
        return True

    def write(
        self, blocks: Iterable[pa.Table], ctx: TaskContext
    ) -> List[dict]:
        entries: List[dict] = []
        schema: Optional[pa.Schema] = None
        for block in blocks:
            if not isinstance(block, pa.Table):  # pandas block from upstream
                block = pa.Table.from_pandas(block, preserve_index=False)
            if block.num_columns:  # a row-filtered empty block has none
                schema = block.schema
            if block.num_rows == 0:
                continue
            entries.append(minilance.write_fragment(block, self._uri))
        # ship the schema of the last block seen, even an empty one, back
        # with the entries: the driver commit must not depend on sink-actor
        # state (write runs in remote tasks), and an all-empty
        # create/overwrite still has to commit an empty version, or the
        # previous version's rows would stay visible
        if schema is not None:
            entries.append({"_schema_b64": minilance._schema_to_b64(schema)})
        return entries

    def on_write_complete(self, write_result: WriteResult[List[dict]]) -> None:
        entries: List[dict] = []
        schema_b64: Optional[str] = None
        for per_task in write_result.write_returns:
            if not per_task:
                continue  # the task saw no block at all
            *frags, last = per_task  # write() ends with the schema entry
            entries.extend(frags)
            if frags or schema_b64 is None:
                schema_b64 = last["_schema_b64"]  # prefer a task that wrote rows
        if entries or self._mode in ("create", "overwrite"):
            # all-empty write: create/overwrite still publishes an (empty)
            # version so callers can truncate a dataset; append of zero rows
            # is a no-op (no version bump needed). Ray may hand the sink no
            # block at all for an all-empty Dataset; the schema then comes
            # from the previous committed version (truncation preserves it).
            if schema_b64 is not None:
                schema = minilance._schema_from_b64(schema_b64)
            elif minilance.is_dataset(self._uri):
                schema = minilance.dataset(self._uri).schema
            else:
                return
            minilance.commit(self._uri, schema, entries, mode=self._mode)


def read_minilance(
    uris: str | List[str],
    columns: Optional[List[str]] = None,
    version: Optional[int] = None,
    override_num_blocks: Optional[int] = None,
    ray_remote_args: Optional[dict] = None,
    buckets: Optional[List[str]] = None,
):
    """``ray.data.read_lance`` twin over the vendored store; a list of uris
    reads many datasets as ONE operator (see MiniLanceDatasource).
    ``ray_remote_args`` must be forwarded by callers whose downstream map
    uses non-default remote args (e.g. the crawl's ``max_retries=0``) or
    Ray Data will not fuse the read with the map — the round-5 minilance
    crawl regression was exactly this missing fusion.

    A co-partitioned read (``buckets``) yields exactly one block per group
    of whole buckets: it asks Ray for as many blocks as ``groups`` makes,
    because a read that plans fewer tasks than requested has each task's
    output split to make up the count."""
    import ray.data as rd

    src = MiniLanceDatasource(uris, columns=columns, version=version,
                              buckets=buckets)
    if buckets is not None:
        override_num_blocks = max(1, len(src.groups(override_num_blocks)))
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if ray_remote_args is not None:
        kwargs["ray_remote_args"] = ray_remote_args
    return rd.read_datasource(src, **kwargs)


def write_minilance(ds, uri: str, mode: str = "create") -> None:
    """``Dataset.write_lance`` twin over the vendored store. The plan runs
    once: the schema comes back from the write tasks themselves."""
    ds.write_datasink(MiniLanceDatasink(uri, mode=mode))
