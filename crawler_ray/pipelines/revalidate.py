"""Recrawl revalidation — a conditional-GET freshness sweep over a stored
URL manifest.

The reference re-downloads every known URL unconditionally on refresh (its
exists-check dedup, ``ShiweijiaProduct.cs:183``, only suppresses *re-inserts*,
never re-fetches). At 100 TB scale most recrawled pages are UNCHANGED, so the
dominant cost of a refresh crawl is bytes that did not need to move. This
pipeline closes that gap with standard HTTP validators (RFC 9110 §13):

- the manifest carries the validators captured on the previous crawl
  (``url, etag, last_modified`` — exactly what ``HttpFetchStage`` now emits
  per fetched row);
- each manifest batch is revalidated by an actor-pool fetch stage sending
  ``If-None-Match`` / ``If-Modified-Since``;
- a 304 answer means "fresh": no body on the wire, no re-parse, no re-sink;
- a 200 answer means "changed": the new payload's md5 + the NEW validators
  come back so the caller can re-process the page and persist the rotated
  validators for the next sweep;
- 404/410 mean "gone" (tombstone the entity row); everything else is an
  operational error (retries/dead-letter budget identical to the crawl).

Scale shape: the manifest is a Dataset (read from the entity/frontier
checkpoint parquet at real scale), the sweep is ONE ``map_batches`` over an
actor pool holding per-actor ``requests.Session`` state — no driver loops, no
materialization; the verdict table streams straight to a sink or into the
recrawl-priority scorer (``pipelines/reports.py:recrawl_priority``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

#: status -> verdict mapping applied per batch (vectorized select).
#: 304 = validators matched (fresh); 200 = changed (new body + validators);
#: 404/410 = resource gone; everything else = operational error.
VERDICT_FRESH = "fresh"
VERDICT_CHANGED = "changed"
VERDICT_GONE = "gone"
VERDICT_ERROR = "error"


def _verdicts(status: np.ndarray) -> list[str]:
    out = np.full(len(status), VERDICT_ERROR, dtype=object)
    out[status == 304] = VERDICT_FRESH
    out[status == 200] = VERDICT_CHANGED
    out[(status == 404) | (status == 410)] = VERDICT_GONE
    return out.tolist()


class RevalidateStage:
    """Actor-pool callable: manifest batch -> verdict batch.

    ``__init__`` builds the long-lived ``requests.Session`` (via
    ``HttpFetchStage``) ONCE per actor; ``__call__`` revalidates one batch.
    """

    def __init__(self, http_opts: dict | None = None):
        from crawler_ray.stages.fetch import HttpFetchStage

        self.fetch = HttpFetchStage(**(http_opts or {}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from crawler_ray.functions.hashing import md5_hex
        from crawler_ray.functions.urls import url_host

        if "host" not in batch.column_names:
            batch = batch.append_column(
                "host",
                pa.array(
                    [url_host(u) for u in batch["url"].to_pylist()], pa.string()
                ),
            )
        fetched = self.fetch(batch)
        status = np.asarray(fetched["status"].to_pylist(), dtype=np.int64)
        payloads = fetched["payload"].to_pylist()
        return pa.table(
            {
                "url": fetched["url"],
                "status": fetched["status"],
                "verdict": pa.array(_verdicts(status), pa.string()),
                "etag": fetched["etag"],
                "last_modified": fetched["last_modified"],
                # md5 only for bodies that actually shipped (changed rows);
                # fresh/gone/error rows carry empty payloads by construction
                "content_md5": pa.array(
                    [md5_hex(p) if p else "" for p in payloads], pa.string()
                ),
                "content_len": pa.array(
                    [len(p) for p in payloads], pa.int64()
                ),
                "attempt": fetched["attempt"],
            }
        )


def revalidate_manifest(
    manifest: rd.Dataset | str,
    http_opts: dict | None = None,
    concurrency: int = 2,
    batch_size: int = 64,
) -> rd.Dataset:
    """Revalidate every manifest row; returns the verdict Dataset.

    ``manifest``: a Dataset (or a parquet path) with ``url`` and the stored
    ``etag`` / ``last_modified`` validator columns (empty string / missing
    column ⇒ unconditional fetch — first crawl of that URL).
    """
    ds = rd.read_parquet(manifest) if isinstance(manifest, str) else manifest
    return ds.map_batches(
        RevalidateStage,
        fn_constructor_args=(http_opts,),
        concurrency=concurrency,
        batch_size=batch_size,
        batch_format="pyarrow",
        num_cpus=0.5,  # I/O-bound: oversubscribe CPU slots
    )


def freshness_summary(verdicts: rd.Dataset) -> pa.Table:
    """Small summary for operators: rows + bytes moved per verdict class.
    The interesting scale number is bytes_on_wire(fresh)=0 — the sweep's
    savings vs an unconditional recrawl is sum(content_len of changed) vs
    the whole corpus size."""
    from ray.data.aggregate import Count, Sum

    df = (
        verdicts.groupby("verdict")
        .aggregate(Count(), Sum("content_len"))
        .sort("verdict")
        .to_pandas()  # ≤4 rows: one per verdict class
    )
    df.columns = ["verdict", "n_urls", "bytes_on_wire"]
    return pa.Table.from_pandas(df, preserve_index=False)


def manifest_from_crawl(out_dir: str) -> rd.Dataset:
    """Build the revalidation manifest from a completed crawl's ``pages``
    sink (the ``tables/pages`` dataset): one ``(url, etag, last_modified)``
    row per crawled page, LATEST round wins (a page re-crawled in a later
    round carries fresher validators; each row records its ``round``).

    Closes the refresh loop end-to-end: crawl → pages sink (validators
    captured per fetched page by ``HttpFetchStage``) → this manifest →
    :func:`revalidate_manifest` → verdicts → re-crawl only the
    ``changed`` rows. Distributed shape: one read of the dataset, then one
    url-keyed ``copartition`` picks the max-round row per url. The sink has
    no parquet footer, so its manifest's row count sizes the exchange.
    """
    import os

    from crawler_ray.pipelines.joins import copartition, parts_for_rows
    from crawler_ray.sources.io import read_parts
    from crawler_ray.vendor import minilance

    uri = os.path.join(out_dir, "tables", "pages")
    if not minilance.is_dataset(uri):
        return rd.from_arrow(
            pa.table(
                {"url": pa.array([], pa.string()),
                 "etag": pa.array([], pa.string()),
                 "last_modified": pa.array([], pa.string())}
            )
        )

    def tag(t: pa.Table) -> pa.Table:
        from crawler_ray.functions.hashing import stable_hash_u64

        urls = t["url"].to_pylist()
        # process-salted hash() would scatter one url across partitions
        key = np.asarray([stable_hash_u64(u) for u in urls], np.uint64)
        return t.append_column("key", pa.array(key.view(np.int64)))

    def latest(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        df = (
            df.sort_values(["url", "round"], kind="mergesort")
            .groupby("url", sort=False)
            .tail(1)
        )
        return pa.Table.from_pandas(
            df[["url", "etag", "last_modified"]], preserve_index=False
        )

    cols = ["url", "round", "etag", "last_modified"]
    return copartition(
        [read_parts(uri, columns=cols).map_batches(tag, batch_format="pyarrow")],
        latest,
        pa.schema([("round", pa.int32()), ("url", pa.string()),
                   ("etag", pa.string()), ("last_modified", pa.string())]),
        parts_for_rows(minilance.dataset(uri).count_rows()),
    )
