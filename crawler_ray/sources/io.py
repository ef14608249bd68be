"""Table IO: the crawl sinks as minilance datasets, local binary-file
ingestion.

The north rule targets **Lance** tables for the image+caption output. Every
crawl sink (images, the four entity tables, errors, and each round's
frontier) is ONE dataset of the vendored
:mod:`crawler_ray.vendor.minilance` store (fragmented, versioned,
atomically-committed, with the real library's API subset and write
semantics, Arrow-IPC fragment encoding), written and read here. Stage
tasks write fragments (``write_part``, ``write_bucketed``) and get back
their manifest entries, uncommitted; the crawl driver commits each sink's
entries for a round in one manifest (``minilance.commit``). Until then no
reader sees them, and a failed attempt's fragments stay orphans no
manifest references. ``read_parts`` is the one distributed read of a
sink (``lance_ray.MiniLanceDatasource``).

The crawl frontier is host-bucketed: each of its fragments holds the rows
of one bucket ``hash(host) % B``, recorded in its manifest entry, and
``read_parts`` hands whole buckets to one consumer call.

``read_local_images`` is the reference's local-file image source (S5:
``UploadImgsByFile``/``GetImgStr``/``FileHelper.GetAllFiles``,
``BaseSpider.cs:251-261``, ``ShiweijiaProduct.cs:462-472``) re-expressed as
``ray.data.read_binary_files``.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from crawler_ray.vendor import minilance


def write_part(table: pa.Table, uri: str) -> dict:
    """Write ``table`` as ONE fragment of the sink dataset at ``uri`` and
    return its manifest entry, uncommitted: the rows become visible when
    the driver commits the entry."""
    return minilance.write_fragment(table, uri)


def write_bucketed(table: pa.Table, uri: str, buckets: int) -> list[dict]:
    """Write a frontier batch host-bucketed: the rows of bucket
    ``b = hash(host) % buckets`` form one fragment whose entry records
    ``bucket = b``. Every row of a host lands in one bucket, whichever task
    wrote it, so a reader that hands whole buckets to one consumer call
    (``read_parts``) co-partitions hosts without an exchange. Returns the
    entries, uncommitted."""
    import numpy as np
    import pandas as pd

    host = table["host"].to_numpy(zero_copy_only=False).astype(object)
    bucket = pd.util.hash_array(host) % np.uint64(buckets)
    entries = []
    for b in np.unique(bucket):
        entry = write_part(table.filter(pa.array(bucket == b)), uri)
        entries.append({**entry, "bucket": int(b)})
    return entries


def read_parts(
    uri: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
    ray_remote_args: dict | None = None,
) -> rd.Dataset:
    """Distributed read of a sink dataset's latest version, with column
    pruning pushed into the fragment reads. Callers whose downstream map
    uses non-default remote args (the crawl's ``max_retries=0``) must pass
    the same ``ray_remote_args`` here, or Ray Data will not fuse the read
    with the map — the round-5 minilance crawl regression was exactly
    this missing fusion.

    A host-bucketed dataset (the crawl frontier) is read as one block per
    group of WHOLE buckets: ``override_num_blocks`` groups, fewer when
    there are fewer non-empty buckets (``MiniLanceDatasource.groups``).
    The read asks Ray for exactly that many blocks, because a read that
    plans fewer tasks than requested has each task's output split to make
    up the count. With a fused ``map_batches(batch_size=None)`` consumer,
    each host's rows therefore reach one consumer call, with no exchange."""
    from crawler_ray.sources.lance_ray import MiniLanceDatasource

    src = MiniLanceDatasource(uri, columns=columns)
    if src.bucketed:
        override_num_blocks = max(1, len(src.groups(override_num_blocks)))
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if ray_remote_args is not None:
        kwargs["ray_remote_args"] = ray_remote_args
    return rd.read_datasource(src, **kwargs)


def read_parts_table(uri: str, columns: list[str] | None = None) -> pa.Table | None:
    """Driver-side read of a small sink dataset (entity tables, test-scale
    image checks) → one Arrow table. Returns None when nothing was ever
    committed at ``uri``."""
    if not minilance.is_dataset(uri):
        return None
    return minilance.dataset(uri).to_table(columns=columns)


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
