"""Distributed global order statistics — shared sample-sort rank engine.

The TeraSort recipe behind every ranking verb (``textops.curriculum_export``,
``relational``'s NTILE): sample cut points from sorted per-block key
samples, count per range to exclusive offsets (only O(``N_RANGES``) rows
reach the driver), then rank within ranges and add the offset.
Correctness never depends on the sample — skewed cuts only unbalance range
sizes.

No function here calls ``ray.init`` (driver contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data.aggregate import Sum

# key ranges of the sort, and sorted keys each block contributes to the
# driver-side sample the range cut points come from
N_RANGES = 32
PER_BLOCK_SAMPLE = 8


def global_sort_rank(
    keys: rd.Dataset,
    id_col: str = "id",
    key_col: str = "key",
    rank_col: str = "rank",
) -> tuple[rd.Dataset, int]:
    """Dense 1-based global rank of ``keys`` by ascending ``key_col``
    (ties impossible by contract: callers pack a unique id into the low
    bits of the key). Returns ``(ranks, total)`` where ranks has columns
    (id_col, rank_col) and ``total`` is the global row count (free — it is
    the sum of the per-range counts the offset pass already folds).

    Two passes over the slim materialized key table, none over the source
    data: (1) O(blocks * PER_BLOCK_SAMPLE) driver sample -> cut points;
    (2) per-range counts -> exclusive prefix offsets; (3) in-range sort +
    offset add. All exchanges move only (id, key, range) rows.
    """
    keys = keys.materialize()

    def block_sample(df: pd.DataFrame) -> pd.DataFrame:
        k = np.sort(df[key_col].to_numpy(np.int64))
        if not len(k):
            return pd.DataFrame({key_col: np.array([], np.int64)})
        idx = np.linspace(0, len(k) - 1, num=PER_BLOCK_SAMPLE).astype(int)
        return pd.DataFrame({key_col: k[idx]})

    sdf = keys.map_batches(block_sample, batch_format="pandas").to_pandas()
    # empty corpus: Ray drops the fold's columns entirely, not just its rows
    sample = (
        np.sort(sdf[key_col].to_numpy(np.int64))
        if not sdf.empty
        else np.array([], np.int64)
    )
    qs = np.linspace(0, len(sample) - 1, num=N_RANGES + 1).astype(int)[1:-1]
    cuts = np.unique(sample[qs]) if len(sample) else np.array([], np.int64)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rng"] = np.searchsorted(
            cuts, df[key_col].to_numpy(np.int64), side="right"
        ).astype(np.int64)
        return df

    def rng_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("rng", sort=False).size()
        return pd.DataFrame(
            {"rng": g.index.to_numpy(np.int64), "cnt": g.to_numpy(np.int64)}
        )

    assigned = keys.map_batches(assign, batch_format="pandas").materialize()
    counts = (
        assigned.map_batches(rng_counts, batch_format="pandas")
        .groupby("rng")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    if counts.empty:  # empty corpus: no ranges, rank() never fires
        offsets: dict = {}
        total = 0
    else:
        counts = counts.sort_values("rng")
        cnt_arr = counts["cnt"].to_numpy(np.int64)
        offsets = dict(
            zip(counts["rng"].to_numpy(np.int64), np.cumsum(cnt_arr) - cnt_arr)
        )
        total = int(cnt_arr.sum())

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_col, kind="mergesort")
        base = offsets[int(g["rng"].iloc[0])]
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(np.int64),
                rank_col: base + np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return assigned.groupby("rng").map_groups(rank, batch_format="pandas"), total
