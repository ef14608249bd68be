"""Table IO: minilance part trees, local binary-file ingestion.

The north rule targets **Lance** tables for the image+caption output. Every
crawl sink is written and read here as the vendored
:mod:`crawler_ray.vendor.minilance` store (fragmented, versioned,
atomically-committed datasets with the real library's API subset and write
semantics, Arrow-IPC fragment encoding). This module is the only place that
knows the sink format: a swap to the real ``pylance`` wheel is a change here
and nowhere else. It also owns the part naming (content digests) and the
crawl frontier's host-bucketed layout (``bucket=NNNN`` subdirs), on both
the write side (``write_keyed_part``) and the read side (``read_parts``).

``read_local_images`` is the reference's local-file image source (S5:
``UploadImgsByFile``/``GetImgStr``/``FileHelper.GetAllFiles``,
``BaseSpider.cs:251-261``, ``ShiweijiaProduct.cs:462-472``) re-expressed as
``ray.data.read_binary_files``.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data as rd

from crawler_ray.vendor import minilance


def write_part(table: pa.Table, root: str, stem: str) -> str:
    """ONE deterministically-named part of a table directory — the unit every
    crawl sink writes (images, entities, errors, frontier). Each part is its
    OWN minilance dataset (``part-<stem>.lance``, ``mode="overwrite"``): a
    Ray task retry re-running the same content-derived ``stem`` replaces its
    own part rather than appending a duplicate fragment, so retries stay
    idempotent. Readers go through ``read_parts`` / ``read_parts_table``; a
    post-crawl ``compact_parts`` yields the single north-rule Lance table
    when wanted. Returns the path written."""
    os.makedirs(root, exist_ok=True)
    uri = os.path.join(root, f"part-{stem}.lance")
    minilance.write_dataset(table, uri, mode="overwrite")
    return uri


def _part_entries(root: str):
    """Yield every part path under a ``write_part`` sink tree: parts directly
    in ``root`` and parts one level down (``round_NNNN`` subdirs in the
    images / entity-table layout, ``bucket=NNNN`` subdirs in the frontier
    layout). Sorted for a deterministic read order. A ``.parquet`` part (a
    tree written by an older parquet sink) raises instead of being skipped
    or read silently."""
    if not os.path.isdir(root):
        return

    def emit(dirpath: str, names: list[str]):
        for n in sorted(names):
            if n.endswith(".parquet"):
                raise ValueError(
                    f"parquet part {os.path.join(dirpath, n)} in a minilance "
                    "sink tree: parquet sinks are no longer read"
                )
            if n.endswith(".lance"):
                yield os.path.join(dirpath, n)

    top = sorted(os.listdir(root))
    yield from emit(root, top)
    for name in top:
        p = os.path.join(root, name)
        if os.path.isdir(p):
            yield from emit(p, os.listdir(p))


_BUCKET = "bucket="


def write_keyed_part(table: pa.Table, root: str, tag: str,
                     buckets: int | None = None) -> None:
    """Write a sink batch as part(s) named by a digest of its key column
    (``url``, else ``record``) and ``tag``, so re-running the same batch
    overwrites its own parts.

    With ``buckets`` the rows are host-bucketed (the crawl frontier): the
    rows of bucket ``b = hash(host) % buckets`` go to
    ``root/bucket=NNNN/part-<digest>.lance``. Every row of a host lands in
    one bucket dir, whichever task wrote it, so a reader that hands whole
    bucket dirs to one consumer call (``read_parts``) co-partitions hosts
    without an exchange."""
    import hashlib

    import numpy as np
    import pandas as pd

    def write(t: pa.Table, dest: str) -> None:
        key_col = "url" if "url" in t.column_names else "record"
        digest = hashlib.md5(
            ("\x00".join(t[key_col].to_pylist()) + tag).encode()
        ).hexdigest()[:16]
        write_part(t, dest, digest)

    if buckets is None:
        write(table, root)
        return
    host = table["host"].to_numpy(zero_copy_only=False).astype(object)
    bucket = pd.util.hash_array(host) % np.uint64(buckets)
    for b in np.unique(bucket):
        write(table.filter(pa.array(bucket == b)),
              os.path.join(root, f"{_BUCKET}{int(b):04d}"))


def read_parts(
    root: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
    ray_remote_args: dict | None = None,
) -> rd.Dataset:
    """Distributed read of a ``write_part`` sink tree as ONE datasource over
    every part: a per-part read + union plan pays per-operator driver
    overhead for each part (measured 61 s vs 0.3 s on a 52-part frontier
    round). Column pruning is pushed into the fragment reads. Callers whose
    downstream map uses non-default remote args (the crawl's
    ``max_retries=0``) must pass the same ``ray_remote_args`` here, or Ray
    Data will not fuse the read with the map.

    A host-bucketed tree (parts under ``bucket=NNNN`` subdirs, the crawl
    frontier) is read as one block per group of WHOLE bucket dirs:
    ``override_num_blocks`` groups, fewer when there are fewer non-empty
    buckets (``MiniLanceDatasource.groups``). With a fused
    ``map_batches(batch_size=None)`` consumer, each host's rows therefore
    reach one consumer call, with no exchange."""
    from crawler_ray.sources.lance_ray import read_minilance

    uris = list(_part_entries(root))
    keys = [os.path.basename(os.path.dirname(u)) for u in uris]
    bucketed = any(k.startswith(_BUCKET) for k in keys)
    return read_minilance(
        uris,
        columns=columns,
        override_num_blocks=override_num_blocks,
        ray_remote_args=ray_remote_args,
        buckets=keys if bucketed else None,
    )


def part_rows(root: str) -> int:
    """Rows in a ``write_part`` sink tree, from each part's manifest (no
    data read)."""
    return sum(minilance.dataset(p).count_rows() for p in _part_entries(root))


def read_parts_table(root: str, columns: list[str] | None = None) -> pa.Table | None:
    """Driver-side read of a small ``write_part`` sink tree (entity tables,
    test-scale image checks) → one concatenated Arrow table. Returns None
    when the tree is empty/absent."""
    tables = [
        minilance.dataset(p).to_table(columns=columns) for p in _part_entries(root)
    ]
    return pa.concat_tables(tables) if tables else None


# most rows ``read_parquet_sized`` puts in one block by default: one read
# block, also the bar below which a query's exchange folds in one call
MAX_ROWS_PER_BLOCK = 65536


def read_parquet_sized(
    path: str,
    columns: list[str] | None = None,
    target_rows_per_block: int = 512,
    max_rows_per_block: int = MAX_ROWS_PER_BLOCK,
) -> rd.Dataset:
    """``read_parquet`` with ``override_num_blocks`` derived from the parquet
    FOOTER's row count. Ray's default splitting targets bytes and over-splits
    small row-light tables into hundreds of tiny blocks; every downstream
    sort/groupby exchange then pays per-block scheduling that dwarfs the
    data (measured at sf0.1: the documents table auto-split into 64 blocks
    of 78 rows made a 16k-row join's Sort cost 1.6 s; footer-sized blocks
    → ~0.3 s). Sizing: enough blocks to spread ``target_rows_per_block``
    rows per task up to the cluster CPU count, and never fewer than
    ``rows / max_rows_per_block`` so big tables still bound per-block
    memory — at scale the formula simply yields many blocks."""
    import pyarrow.parquet as pq
    import ray

    n = pq.read_metadata(path).num_rows
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8)) or 8
    except Exception:  # pragma: no cover - uninitialised ray
        cpus = 8
    nb = min(-(-n // target_rows_per_block), cpus)
    nb = max(nb, -(-n // max_rows_per_block), 1)
    return rd.read_parquet(path, columns=columns, override_num_blocks=nb)


def compact_parts(root: str, dest: str, columns: list[str] | None = None) -> int:
    """Post-crawl compaction: the per-round part tree written by
    ``write_part`` → ONE minilance table at ``dest`` (the single north-rule
    Lance table). The part tree stays resumable/idempotent during the crawl;
    compaction is the serving-layout step afterwards. Returns the number of
    rows compacted, read from the committed manifest rather than by running
    the read plan a second time."""
    from crawler_ray.sources.lance_ray import write_minilance

    write_minilance(read_parts(root, columns=columns), dest, mode="overwrite")
    return minilance.dataset(dest).count_rows()


def read_local_images(root: str) -> rd.Dataset:
    """Local image tree → (path, bytes, fmt) rows (S5). Decode/hash happens
    in the normal image stage downstream."""
    from crawler_ray.functions.mime import normalize_fmt

    ds = rd.read_binary_files(root, include_paths=True)

    def project(t: pa.Table) -> pa.Table:
        paths = t["path"].to_pylist()
        return pa.table(
            {
                "path": pa.array(paths, pa.string()),
                "bytes": t["bytes"],
                "fmt": pa.array([normalize_fmt(p) for p in paths], pa.string()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")
