"""Ray Data datasource over the vendored :mod:`crawler_ray.vendor.minilance`
store: distributed snapshot reads with the execution shape of
``ray.data.read_lance``.

``crawler_ray.sources.io.read_parts`` reads every crawl sink through it:
one ``ReadTask`` per committed fragment, or per group of whole units
(fragments, or the fragments of one host bucket) when fewer blocks are
asked for, planned from the manifest's per-fragment row/byte stats (so
the streaming executor sizes and schedules blocks from real metadata,
exactly like the parquet footer-driven reads elsewhere in the engine),
with column projection pushed into the fragment read. The crawl writes
its sinks as fragments in stage tasks plus one driver commit per sink per
round (``io.write_part``, ``minilance.commit``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import pyarrow as pa

from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from crawler_ray.vendor import minilance


def _total_size(sizes: List[Optional[int]]) -> Optional[int]:
    """Summed byte size, or None (unknown) when no fragment has a size."""
    known = [s for s in sizes if s is not None]
    return sum(known) if known else None


class MiniLanceDatasource(Datasource):
    """Plan read tasks over the latest committed version of one dataset.

    Fragments whose manifest entries record a ``bucket`` (the crawl
    frontier's host buckets, each holding every row of its hosts) are
    grouped by it into indivisible read units; otherwise every fragment is
    its own unit."""

    def __init__(self, uri: str, columns: Optional[List[str]] = None):
        self._columns = columns
        # resolve the snapshot ONCE on the driver: every read task then
        # reads the same committed version even if writers commit meanwhile
        self._ds = minilance.dataset(uri)
        self.bucketed = any(
            "bucket" in f.metadata for f in self._ds.get_fragments()
        )

    def get_name(self) -> str:
        return "MiniLance"

    def estimate_inmemory_data_size(self) -> Optional[int]:
        sizes = [f.size_bytes for f in self._ds.get_fragments()]
        return _total_size(sizes) if sizes else 0

    def _units(self) -> List[list]:
        """Fragments in indivisible read units: one per bucket of a
        bucketed dataset, else one per fragment."""
        frags = self._ds.get_fragments()
        if not self.bucketed:
            return [[f] for f in frags]
        by_bucket: dict = {}
        for f in frags:
            by_bucket.setdefault(f.metadata["bucket"], []).append(f)
        return [by_bucket[b] for b in sorted(by_bucket)]

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
        # on it (a group of whole buckets holds every row of its hosts),
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
            # empty committed version: one task yielding the empty schema
            schema = self._ds.schema
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
