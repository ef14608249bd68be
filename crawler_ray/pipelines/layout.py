"""Z-order (Morton) clustered data layout + box-pruned reads.

The 100 TB lever the other pipelines don't cover: PHYSICAL layout. A
single-column sort prunes range scans on that one column only; interleaving
the bits of TWO dimensions (user, time) into a Morton code and partitioning
by its prefix gives a layout where a box predicate on EITHER or BOTH
dimensions touches only the grid cells intersecting the box — the classic
Z-order clustering used by large table formats, built here from scratch on
Ray Data + hive-partitioned parquet.

Shape:
- ``write_zorder_events`` — one bounds pass (Min/Max aggregate, scalar
  result), then one distributed pass adding ``zbucket`` (vectorized bit
  interleave per batch) and ``write_parquet(partition_cols=["zbucket"])``.
  Build-once, atomically published, reused across queries and processes
  (the persisted-ANN-index pattern, ``similarity.py:302``).
- ``events_user_window`` — computes the candidate Morton cells for the
  query box DRIVER-SIDE (O(grid) bit math, no data touched), reads ONLY
  those partition directories, and applies the exact predicate in-task.
  At 100 TB the unpruned scan reads everything; this reads
  |box∩grid| / |grid| of the files (the test asserts the fraction).

No reference counterpart (the reference has no layout control); this is
north-rule new design for the "prune at the read" requirement.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray.data as rd


def _morton2(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """Interleave the low ``bits`` of ``a`` (odd positions) and ``b``
    (even positions) — vectorized int64 in, int64 out."""
    out = np.zeros_like(a, dtype=np.int64)
    for i in range(bits):
        out |= ((a >> i) & 1) << (2 * i + 1)
        out |= ((b >> i) & 1) << (2 * i)
    return out


def _cell(v: np.ndarray, lo: int, hi: int, n_cells: int) -> np.ndarray:
    """Map values to equal-width grid cells over [lo, hi], clipped (query
    boxes may exceed the data bounds)."""
    span = max(int(hi) - int(lo) + 1, 1)
    c = ((v.astype(np.int64) - lo) * n_cells) // span
    return np.clip(c, 0, n_cells - 1)


def write_zorder_events(sf_dir: str, out_root: str, grid_bits: int = 3) -> dict:
    """Cluster the events table by the Morton code of (user_id, ts) into
    ``4**grid_bits`` hive partitions. Returns the layout meta (also written
    to ``meta.json`` beside the data)."""
    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    from crawler_ray.sources.io import read_parquet_sized

    def read():
        return read_parquet_sized(
            f"{sf_dir}/events.parquet", columns=cols, target_rows_per_block=4096
        )

    # pass 1: global bounds (scalar driver result — the only thing the
    # driver ever holds)
    def bounds_partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy()
        u = t["user_id"].to_numpy()
        return pa.table(
            {
                "u_min": pa.array([int(u.min())], pa.int64()),
                "u_max": pa.array([int(u.max())], pa.int64()),
                "t_min": pa.array([int(ts.min())], pa.int64()),
                "t_max": pa.array([int(ts.max())], pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Min

    b = (
        read()
        .map_batches(bounds_partial, batch_format="pyarrow")
        .aggregate(
            Min("u_min", alias_name="u_lo"), Max("u_max", alias_name="u_hi"),
            Min("t_min", alias_name="t_lo"), Max("t_max", alias_name="t_hi"),
        )
    )
    n_cells = 1 << grid_bits
    if b is None or b.get("u_lo") is None:  # empty events table: write a
        # degenerate layout (no partitions) so readers prune to nothing
        meta = {
            "grid_bits": grid_bits, "u_lo": 0, "u_hi": 0, "t_lo": 0,
            "t_hi": 0, "n_buckets": n_cells * n_cells,
        }
        os.makedirs(out_root, exist_ok=True)
        with open(os.path.join(out_root, "meta.json"), "w") as f:
            json.dump(meta, f)
        return meta
    meta = {
        "grid_bits": grid_bits,
        "u_lo": int(b["u_lo"]), "u_hi": int(b["u_hi"]),
        "t_lo": int(b["t_lo"]), "t_hi": int(b["t_hi"]),
        "n_buckets": n_cells * n_cells,
    }

    # pass 2: assign zbucket (vectorized) and write hive-partitioned
    def add_bucket(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy()
        u = t["user_id"].to_numpy()
        z = _morton2(
            _cell(u, meta["u_lo"], meta["u_hi"], n_cells),
            _cell(ts, meta["t_lo"], meta["t_hi"], n_cells),
            grid_bits,
        )
        return t.append_column("zbucket", pa.array(z, pa.int64()))

    os.makedirs(out_root, exist_ok=True)
    # co-locate each bucket into ONE block before the partitioned write —
    # without this, hive partitioning fragments every bucket into one tiny
    # file per (input block × bucket) and the pruned read drowns in
    # per-file fixed costs (measured 2.1 s for 3/64 dirs vs 0.4 s full
    # scan at sf0.1). One build-time exchange, amortized over every query.
    read().map_batches(add_bucket, batch_format="pyarrow").groupby(
        "zbucket"
    ).map_groups(lambda g: g, batch_format="pyarrow").write_parquet(
        out_root, partition_cols=["zbucket"]
    )
    with open(os.path.join(out_root, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def candidate_buckets(
    meta: dict, u_lo: int, u_hi: int, t_lo_us: int, t_hi_us: int
) -> list[int]:
    """Morton codes of every grid cell intersecting the query box —
    driver-side bit math over the (tiny) grid, no data read. ``t_hi_us``
    is EXCLUSIVE (matching the query's ``ts < t1``)."""
    n_cells = 1 << meta["grid_bits"]
    cu = _cell(np.array([u_lo, u_hi]), meta["u_lo"], meta["u_hi"], n_cells)
    ct = _cell(
        np.array([t_lo_us, t_hi_us - 1]), meta["t_lo"], meta["t_hi"], n_cells
    )
    uu, tt = np.meshgrid(
        np.arange(cu[0], cu[1] + 1), np.arange(ct[0], ct[1] + 1), indexing="ij"
    )
    z = _morton2(uu.ravel().astype(np.int64), tt.ravel().astype(np.int64),
                 meta["grid_bits"])
    return sorted(int(x) for x in z)


def _ensure_layout(sf_dir: str, grid_bits: int = 3) -> str:
    # grid_bits is part of the cache key (the minhash band-index n_parts
    # lesson): a 3-bit layout served to a 4-bit caller stays CORRECT (the
    # exact predicate always applies and meta.json governs pruning) but
    # silently prunes at the wrong granularity. Build-once/atomic-publish
    # via the shared artifact_cache protocol (every persisted index routes
    # through it rather than re-implementing the rename dance).
    from crawler_ray.state.artifact_cache import (
        cache_dir,
        ensure_dir,
        source_fingerprint,
    )

    return ensure_dir(
        cache_dir("zorder", os.path.abspath(sf_dir), grid_bits,
                  source_fingerprint(f"{sf_dir}/events.parquet")),
        lambda stage: write_zorder_events(sf_dir, stage, grid_bits=grid_bits),
    )


def _iso_us(iso: str) -> int:
    return int(np.datetime64(iso, "us").astype(np.int64))


def events_user_window(
    sf_dir: str,
    u_lo: int = 2,
    u_hi: int = 6,
    t0: str = "2024-01-08",
    t1: str = "2024-01-15",
) -> rd.Dataset:
    """Box query (user_id ∈ [u_lo, u_hi], ts ∈ [t0, t1)) over the Z-order
    clustered events layout: reads ONLY the partition dirs whose Morton
    cell intersects the box, exact predicate applied vectorized in-task.
    Hash-exact vs the plain-SQL filter (the layout must never change
    results, only which files are read)."""
    root = _ensure_layout(sf_dir)
    with open(os.path.join(root, "meta.json")) as f:
        meta = json.load(f)
    t_lo_us, t_hi_us = _iso_us(t0), _iso_us(t1)
    cands = candidate_buckets(meta, u_lo, u_hi, t_lo_us, t_hi_us)
    # ray.data.read_parquet wants files when given a list — expand each
    # candidate partition dir (similarity.py:282, same quirk)
    paths: list[str] = []
    for z in cands:
        d = os.path.join(root, f"zbucket={z}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    if not paths:  # box misses every written cell
        return rd.from_arrow(
            pa.table({
                "event_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
                "user_id": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "value": pa.array([], pa.float64()),
            })
        )

    def exact(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy()
        u = t["user_id"].to_numpy()
        keep = (u >= u_lo) & (u <= u_hi) & (ts >= t_lo_us) & (ts < t_hi_us)
        return t.filter(pa.array(keep)).select(cols)

    return rd.read_parquet(paths, columns=cols).map_batches(
        exact, batch_format="pyarrow"
    )


EVENTS_USER_WINDOW_SQL = """
SELECT event_id, ts, user_id, event_type, value
FROM events
WHERE user_id BETWEEN 2 AND 6
  AND ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
"""
