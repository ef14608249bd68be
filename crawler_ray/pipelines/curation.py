"""Flagship corpus-curation pipeline: the end-to-end filter chain a
training-data run actually executes, composed from the suite's own
operators — language-ID gate → quality-score gate → repetition
(Gopher-rules) gate → near-dup keep-one-per-cluster — with a per-doc
verdict and the FIRST failing reason (the standard curation-report shape:
how much data each filter removed, attributable).

Everything stays distributed: the three per-doc signals are computed in
ONE fused map_batches pass (the stages are the same callables the
standalone queries use, so the oracle equivalence carries over), and the
dedup loser set folds in through one doc-keyed ``copartition`` — one
exchange beyond the cluster pipeline itself, no driver-side joins.

Dedup is computed over the WHOLE corpus (not post-filter): reasons are
then independent of filter order except for the stated precedence, and
the report stays stable when thresholds are tuned. Precedence:
lang > quality > repetition > duplicate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from crawler_ray.pipelines.joins import copartition, exchange_parts


class CurationSignals:
    """Fused per-doc signal pass: lang_pred + quality + repetition keep,
    folded into the first failing reason (null = passed all three).
    Sub-kernels are the SAME objects the standalone oracled queries use."""

    def __init__(self, lang_keep: str, min_quality: float):
        from crawler_ray.functions.text import detect_lang, quality_score
        from crawler_ray.pipelines.textops import RepetitionMetrics

        self.detect = detect_lang
        self.score = quality_score
        self.rep = RepetitionMetrics()
        self.lang_keep = lang_keep
        self.min_quality = min_quality

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        pred = np.asarray(df["text"].map(self.detect), dtype=object)
        quality = np.round(self.score(df["text"]), 6)
        rep_keep = self.rep(df)["keep"].to_numpy(zero_copy_only=False)
        reason = np.full(len(df), None, dtype=object)
        reason[rep_keep == False] = "repetition"  # noqa: E712 (numpy mask)
        reason[quality < self.min_quality] = "quality"
        reason[pred != self.lang_keep] = "lang"  # highest precedence last
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
             "reason": pa.array(reason, pa.string())},
        )


def corpus_curation(
    sf_dir: str,
    lang_keep: str = "en",
    min_quality: float = 0.55,
    dup_threshold: float = 0.95,
) -> rd.Dataset:
    """Per-doc curation verdict (doc_id, kept, reason) over the full
    filter chain. ``reason`` is the first gate the doc fails
    (lang/quality/repetition/duplicate) or 'kept'."""
    from crawler_ray.pipelines.clusters import near_dup_clusters
    from crawler_ray.pipelines.dedup import _read_docs

    signals = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        CurationSignals(lang_keep, min_quality),
        batch_format="pandas",
    )
    losers = near_dup_clusters(sf_dir, dup_threshold).map_batches(
        lambda t: t.filter(pc.not_equal(t["doc_id"], t["cluster_id"])),
        batch_format="pyarrow",
    )

    def resolve(sig: pa.Table, losers: pa.Table) -> pa.Table:
        dup = np.isin(sig["doc_id"].to_numpy(), losers["doc_id"].to_numpy())
        reason = sig["reason"].to_numpy(zero_copy_only=False).astype(object)
        unresolved = pc.is_null(sig["reason"]).to_numpy(zero_copy_only=False)
        reason[unresolved] = np.where(dup[unresolved], "duplicate", "kept")
        return pa.table(
            {"doc_id": sig["doc_id"],
             "kept": pa.array(reason == "kept", pa.bool_()),
             "reason": pa.array(reason, pa.string())}
        )

    return copartition(
        [signals, losers], resolve, pa.schema([("reason", pa.string())]),
        # each doc sends at most one row to each side
        exchange_parts(sf_dir, "documents", "documents"), key="doc_id",
    )


def corpus_curation_sql(
    lang_keep: str = "en",
    min_quality: float = 0.55,
    dup_threshold: float = 0.95,
) -> str:
    """One DuckDB statement composing the sub-oracles (each nested WITH is
    the standalone query's own oracle, so any divergence localizes).

    The duplicate test is a LEFT JOIN against the MATERIALIZED loser set —
    the earlier `IN (SELECT ...)` inside the CASE made DuckDB's planner
    re-expand the quadratic pair/closure CTEs per probe at sf0.1 (>80 GB
    of temp spill; the join form runs in seconds)."""
    from crawler_ray.pipelines.clusters import _cluster_ctes
    from crawler_ray.pipelines.textops import (
        doc_lang_id_sql,
        doc_quality_sql,
        doc_repetition_sql,
    )

    return f"""{_cluster_ctes(dup_threshold)},
losers AS MATERIALIZED (
    SELECT DISTINCT doc_id FROM memb WHERE doc_id <> cluster_id
),
lang AS ({doc_lang_id_sql()}),
qual AS ({doc_quality_sql()}),
rep AS ({doc_repetition_sql()})
SELECT doc_id, (reason = 'kept') AS kept, reason
FROM (
    SELECT d.doc_id,
           CASE
               WHEN l.lang_pred <> '{lang_keep}' THEN 'lang'
               WHEN q.quality < {min_quality} THEN 'quality'
               WHEN NOT r.keep THEN 'repetition'
               WHEN lo.doc_id IS NOT NULL THEN 'duplicate'
               ELSE 'kept'
           END AS reason
    FROM documents d
    JOIN lang l USING (doc_id)
    JOIN qual q USING (doc_id)
    JOIN rep r USING (doc_id)
    LEFT JOIN losers lo USING (doc_id)
)
"""


# ---------------------------------------------------------------------------
# Text-axis flagship: curation → split → sequence packing, one manifest


def training_data_build(
    sf_dir: str,
    ctx: int = 256,
    split_seed: int = 3,
    **curation_kwargs,
) -> rd.Dataset:
    """The end-to-end TRAINING-DATA BUILD a pretraining run consumes: the
    full curation chain decides who survives, survivors get deterministic
    90/5/5 train/val/test assignment, and the kept corpus is sequence-
    packed (GPT-style, in doc_id order over SURVIVORS ONLY) into ``ctx``-
    token windows. One manifest row per kept doc:
    (doc_id, split, n_tokens, tok_start, bin_start, bin_end).

    Composition shape (no stage re-reads another's input): the curation
    verdicts and the per-doc token counts are computed in their own
    passes, co-located by ONE doc-keyed ``copartition`` (in-task semi join
    keeps survivor counts), then the pack-spans prefix-sum machinery runs
    over the surviving slim rows — per-range totals to the driver (one per
    partition), exclusive offsets back, in-range cumsum. The md5 split assignment is
    a pure map on the final fold. The oracle composes the curation
    statement and the window-cumsum twin verbatim, so any divergence
    localizes to a sub-oracle."""
    import hashlib

    from crawler_ray.pipelines.dedup import _read_docs
    from crawler_ray.pipelines.textops import _docid_bounds, _range_offsets

    verdicts = corpus_curation(sf_dir, **curation_kwargs)
    # each doc sends at most one row to each side of the semi join
    n_parts = exchange_parts(sf_dir, "documents", "documents")
    lo, hi = _docid_bounds(f"{sf_dir}/documents.parquet")
    rng = max(1, -(-(hi - lo + 1) // n_parts))

    def count_rows(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
             "n_tokens": pa.array(
                 df["text"].str.count(r"\S+").astype("int64").to_numpy())}
        )

    def semi(cnt: pa.Table, kept: pa.Table) -> pa.Table:
        ids = cnt["doc_id"].to_numpy()
        sel = np.isin(ids, kept["doc_id"].to_numpy())
        ids = ids[sel]
        return pa.table(
            {"key": pa.array((ids - lo) // rng, pa.int64()),
             "doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(cnt["n_tokens"].to_numpy()[sel], pa.int64())}
        )

    schema = pa.schema([("n_tokens", pa.int64())])
    counts = copartition(
        [_read_docs(sf_dir, ["doc_id", "text"])
         .map_batches(count_rows, batch_format="pandas"),
         verdicts.map_batches(lambda t: t.filter(t["kept"]),
                              batch_format="pyarrow")],
        semi, schema, n_parts, key="doc_id",
    ).materialize()
    schema = schema.insert(0, pa.field("doc_id", pa.int64()))
    offsets = _range_offsets(counts, "n_tokens", schema, n_parts)
    if not offsets:  # zero survivors (all docs gated out): a TYPED empty.
        # pandas, not rd.from_arrow — Ray's to_pandas drops the columns of
        # a zero-row dataset, which would fail the driver's schema compare
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "split": pd.Series([], dtype=object),
             "n_tokens": pd.Series([], dtype=np.int64),
             "tok_start": pd.Series([], dtype=np.int64),
             "bin_start": pd.Series([], dtype=np.int64),
             "bin_end": pd.Series([], dtype=np.int64)}
        )

    def pack(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = g["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids, toks = ids[order], toks[order]
        start = np.cumsum(toks) - toks + offsets[g["key"][0].as_py()]
        end_tok = start + np.maximum(toks, 1) - 1
        h = np.array(
            [int(hashlib.md5(f"{split_seed}:{i}".encode()).hexdigest()[:8], 16)
             % 100 for i in ids],
            dtype=np.int64,
        )
        split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "split": pa.array(split, pa.string()),
             "n_tokens": pa.array(toks, pa.int64()),
             "tok_start": pa.array(start, pa.int64()),
             "bin_start": pa.array(start // ctx, pa.int64()),
             "bin_end": pa.array(end_tok // ctx, pa.int64())}
        )

    return copartition([counts], pack, schema, n_parts)


def training_data_build_sql(ctx: int = 256, split_seed: int = 3) -> str:
    return rf"""
WITH kept AS MATERIALIZED (
    SELECT doc_id FROM ({corpus_curation_sql()}) WHERE kept
),
toks AS (
    SELECT d.doc_id,
           CASE WHEN trim(d.text) = '' THEN 0
                ELSE length(list_filter(string_split_regex(d.text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) END::BIGINT
               AS n_tokens
    FROM documents d JOIN kept USING (doc_id)
),
c AS (
    SELECT doc_id, n_tokens,
           SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)::BIGINT AS cum
    FROM toks
)
SELECT doc_id,
       CASE WHEN h < 90 THEN 'train' WHEN h < 95 THEN 'val' ELSE 'test' END
           AS split,
       n_tokens,
       (cum - n_tokens) AS tok_start,
       ((cum - n_tokens) // {ctx})::BIGINT AS bin_start,
       ((cum - n_tokens + GREATEST(n_tokens, 1) - 1) // {ctx})::BIGINT
           AS bin_end
FROM (
    SELECT *,
           CAST(concat('0x', substr(
               md5('{split_seed}' || ':' || CAST(doc_id AS VARCHAR)), 1, 8))
               AS BIGINT) % 100 AS h
    FROM c
)
"""
