"""Text-analysis pipelines over the ``documents`` table (training-data suite:
language-ID, quality scoring, token counting, fingerprinting).

Every map stage runs as plain tasks (no actor pool is started per call).
Scorers are callable instances whose constructor state ships with the
pickled callable; state that must be built from a broadcast ref is built
once per worker process through ``context.worker_cached``. Everything
per-batch is vectorized pandas/numpy.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Mean

from crawler_ray.context import worker_cached
from crawler_ray.functions.rounding import round_np
from crawler_ray.pipelines import joins
from crawler_ray.pipelines.dedup import _read_docs
from crawler_ray.pipelines.joins import copartition, exchange_parts
from crawler_ray.pipelines.ordering import global_sort_rank


class TokenStats:
    """Whitespace token counts + char counts (compiled-regex actor state)."""

    def __init__(self):
        import re

        self.token_re = re.compile(r"\S+")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": df["text"].str.count(self.token_re).astype("int64"),
                "text_chars": df["text"].str.len().astype("int64"),
            }
        )


def doc_token_stats(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        TokenStats(), batch_format="pandas"
    )


DOC_TOKEN_STATS_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE length(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) END::BIGINT AS n_tokens,
       length(text)::BIGINT AS text_chars
FROM documents
"""


class BpeTokenStats:
    """BPE-ish subword token count (words | numbers | single symbols) —
    the brief's 'token counting (whitespace + a BPE-ish regex)' second
    half; hash-oracled via the identical RE2 pattern in DuckDB."""

    def __init__(self):
        from crawler_ray.functions.text import bpe_token_count

        self.count = bpe_token_count

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"],
             "n_bpe_tokens": self.count(df["text"]).astype("int64")}
        )


def doc_bpe_token_count(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        BpeTokenStats(), batch_format="pandas"
    )


DOC_BPE_TOKENS_SQL = r"""
SELECT doc_id,
       length(regexp_extract_all(text,
           '[A-Za-z]+|\p{Nd}+|[^A-Za-z\p{Nd}\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]'
       ))::BIGINT AS n_bpe_tokens
FROM documents
"""


class PunctStats:
    def __init__(self):
        import re

        self.punct_re = re.compile(r"[^\w\s]", re.ASCII)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n_punct = df["text"].str.count(self.punct_re).astype("int64")
        n_chars = df["text"].str.len().clip(lower=1)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "punct_ratio": round_np(n_punct / n_chars, 6),
            }
        )


def doc_punct_ratio(sf_dir: str) -> rd.Dataset:
    """Quality feature with an exact SQL twin (ASCII \\w semantics match
    RE2's). The composite quality score (functions/text.py) is covered by the
    rows-only ``doc_quality_scores`` query + unit tests."""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        PunctStats(), batch_format="pandas"
    )


DOC_PUNCT_RATIO_SQL = r"""
SELECT doc_id,
       ROUND(length(regexp_replace(text, '[\w\s]', '', 'g'))
             / GREATEST(length(text), 1)::DOUBLE, 6) AS punct_ratio
FROM documents
"""


def lang_distribution(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["lang", "n_chars"])
    agg = ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Mean("n_chars", alias_name="avg_chars"),
    )
    return agg.map_batches(
        lambda df: df.assign(avg_chars=round_np(df["avg_chars"], 4)), batch_format="pandas"
    )


LANG_DISTRIBUTION_SQL = """
SELECT lang, COUNT(*) AS n_docs, ROUND(AVG(n_chars), 4) AS avg_chars
FROM documents
GROUP BY lang
"""


def token_vocabulary(sf_dir: str) -> rd.Dataset:
    """Corpus token-frequency table: per-batch Counter partials (combiner) →
    single-key groupby over (token, partial-count) rows — the shuffle moves
    one row per distinct token per batch, not one per token occurrence."""
    from collections import Counter

    import pyarrow as pa
    from ray.data.aggregate import Sum

    ds = _read_docs(sf_dir, ["text"])

    def partial(df: pd.DataFrame) -> pa.Table:
        c: Counter = Counter()
        for txt in df["text"]:
            c.update(txt.split())
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n_p": pa.array(list(c.values()), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("n_p", alias_name="n_f"))
        .map_batches(
            lambda df: pd.DataFrame(
                {"token": df["token"], "n": df["n_f"].astype("int64")}
            ),
            batch_format="pandas",
        )
    )


TOKEN_VOCABULARY_SQL = r"""
SELECT w AS token, COUNT(*) AS n
FROM (SELECT unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) AS w
      FROM documents WHERE trim(text) != '')
GROUP BY w
"""


class LangIdStage:
    """Marker-word language-ID heuristic (functions/text.py). Round 3: the
    heuristic IS SQL-expressible (unnest first-200 tokens → marker join →
    argmax with alphabetical tie-break) — DOC_LANG_ID_SQL below upgrades
    this query from rows-only to hash-oracled."""

    def __init__(self):
        from crawler_ray.functions.text import detect_lang

        self.detect = detect_lang

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang_true": df["lang"],
                "lang_pred": df["text"].map(self.detect),
            }
        )


def doc_lang_id(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        LangIdStage(), batch_format="pandas"
    )


def _lang_marker_values() -> str:
    """The _LANG_MARKERS dict as a SQL VALUES list (single source of truth:
    functions/text.py)."""
    from crawler_ray.functions.text import _LANG_MARKERS

    rows = [
        f"('{w}', '{lang}')"
        for lang in sorted(_LANG_MARKERS)
        for w in sorted(_LANG_MARKERS[lang])
    ]
    return ", ".join(rows)


def doc_lang_id_sql() -> str:
    """DuckDB twin of detect_lang: first 200 whitespace tokens of the
    lowercased text, marker-word hits per language, argmax with
    alphabetical tie-break (python's strict `>` keeps the alphabetically
    first max), 'unk' when nothing matches."""
    return rf"""
WITH toks AS (
    SELECT doc_id,
           unnest(list_slice(
               list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != ''), 1, 200)) AS w
    FROM documents
    WHERE trim(text) != ''
),
markers(w, lang) AS (VALUES {_lang_marker_values()}),
hits AS (
    SELECT doc_id, lang, COUNT(*) AS h
    FROM toks JOIN markers USING (w)
    GROUP BY doc_id, lang
),
best AS (
    SELECT doc_id, lang,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY h DESC, lang) AS rn
    FROM hits
)
SELECT d.doc_id, d.lang AS lang_true, COALESCE(b.lang, 'unk') AS lang_pred
FROM documents d
LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
"""


class QualityStage:
    def __init__(self):
        from crawler_ray.functions.text import quality_score

        self.score = quality_score

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "quality": np.round(self.score(df["text"]), 6),
            }
        )


def doc_quality_scores(sf_dir: str) -> rd.Dataset:
    """Composite quality score. Round 3: hash-oracled — the score is plain
    IEEE-double arithmetic over three SQL-expressible features (token count,
    ASCII punct ratio, stopword ratio), written in the same evaluation
    order in DOC_QUALITY_SQL so DuckDB reproduces it bit-for-bit before the
    shared 6-decimal round. (Caveat: python \\w is Unicode, RE2's is ASCII;
    equivalent on this all-ASCII corpus.)"""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        QualityStage(), batch_format="pandas"
    )


def _stopwords_en_list() -> str:
    from crawler_ray.functions.text import STOPWORDS_EN

    return ", ".join(f"'{w}'" for w in sorted(STOPWORDS_EN))


def doc_quality_sql() -> str:
    """DuckDB twin of quality_score: same features, same clip bounds, same
    left-to-right float evaluation order as the numpy expression."""
    return rf"""
WITH feats AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) END::BIGINT
               AS n_tokens,
           length(regexp_extract_all(text,
               '[^\p{{L}}\p{{N}}_\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]'
           ))::BIGINT AS n_punct,
           length(text)::BIGINT AS n_chars,
           CASE WHEN trim(text) = '' THEN 0 ELSE (
               SELECT COUNT(*) FROM unnest(
                   list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS t(w)
               WHERE t.w IN ({_stopwords_en_list()})
           ) END::BIGINT AS n_stop
    FROM documents
)
SELECT doc_id,
       ROUND(
           0.4 * LEAST(n_tokens / 64.0, 1.0)
         + 0.3 * (1.0 - LEAST(n_punct / GREATEST(n_chars, 1)::DOUBLE * 5.0, 1.0))
         + 0.3 * LEAST(n_stop / GREATEST(n_tokens, 1)::DOUBLE * 4.0, 1.0),
       6) AS quality
FROM feats
"""


class FingerprintStage:
    def __init__(self):
        from crawler_ray.functions.hashing import rolling_fingerprint, simhash64
        from crawler_ray.functions.text import TOKEN_RE

        self.fp = rolling_fingerprint
        self.simhash = simhash64
        self.token_re = TOKEN_RE

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "simhash": df["text"]
                .map(lambda t: self.simhash(self.token_re.findall(t.lower())))
                .astype("int64"),
                "fingerprint": df["text"].map(
                    lambda t: ",".join(str(x) for x in self.fp(t))
                ),
            }
        )


def doc_fingerprints(sf_dir: str) -> rd.Dataset:
    """SimHash + winnowing fingerprint per doc (rows-only)."""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        FingerprintStage(), batch_format="pandas"
    )


def stratified_sample_docs(sf_dir: str, k: int = 20) -> rd.Dataset:
    """Deterministic per-language sample: the k docs with the smallest
    md5(doc_id) per lang stratum (ties → doc_id). The standard
    reproducible-downsampling op for training-data pipelines: the sample
    is a pure function of the keys, so re-runs, resumes and the SQL oracle
    all pick the SAME rows — no RNG state to checkpoint.

    Scale shape: per-batch partial top-k per stratum (combiner) BEFORE the
    exchange, so the groupby moves at most k rows per (batch, stratum) —
    never the corpus — then a final per-stratum top-k assigns ranks."""
    import hashlib

    ds = _read_docs(sf_dir, ["doc_id", "lang"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "lang"]].copy()
        out["h"] = [
            hashlib.md5(str(int(i)).encode()).hexdigest() for i in out["doc_id"]
        ]
        out = out.sort_values(["lang", "h", "doc_id"], kind="stable")
        return out.groupby("lang", sort=False).head(k)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["h", "doc_id"], kind="stable").head(k)
        df = df.reset_index(drop=True)
        df["sample_rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["doc_id", "lang", "sample_rank"]]

    return (
        ds.map_batches(partial_topk, batch_format="pandas")
        .groupby("lang")
        .map_groups(finish, batch_format="pandas")
    )


class RepetitionMetrics:
    """Gopher-style repetition quality signals (Rae et al. 2021 table A1,
    adapted to whitespace tokens since the synthetic docs have no line
    structure): duplicate-token fraction and most-frequent-bigram mass.
    Fully vectorized across the batch — one ``pd.factorize`` over the
    concatenated token stream, then ``np.unique`` / ``np.maximum.at``
    segment folds keyed by doc index; no per-doc Python loop."""

    def __init__(self, max_dup_frac: float = 0.6, max_top_bigram: float = 0.18):
        self.max_dup_frac = max_dup_frac
        self.max_top_bigram = max_top_bigram

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        n_docs = len(df)
        toks_per = [t.split() for t in df["text"]]
        lens = np.fromiter((len(x) for x in toks_per), np.int64, n_docs)
        total = int(lens.sum())
        dup_frac = np.zeros(n_docs, np.float64)
        top_frac = np.zeros(n_docs, np.float64)
        if total:
            flat = np.empty(total, object)
            pos = 0
            for x in toks_per:
                flat[pos: pos + len(x)] = x
                pos += len(x)
            codes, _ = pd.factorize(flat)
            doc_idx = np.repeat(np.arange(n_docs), lens)
            uniq = np.unique(np.stack([doc_idx, codes], axis=1), axis=0)
            n_distinct = np.bincount(uniq[:, 0], minlength=n_docs)
            nz = lens > 0
            dup_frac[nz] = (lens[nz] - n_distinct[nz]) / lens[nz]
            same = doc_idx[1:] == doc_idx[:-1]
            if same.any():
                tri = np.stack(
                    [doc_idx[:-1][same], codes[:-1][same], codes[1:][same]],
                    axis=1,
                )
                u, counts = np.unique(tri, axis=0, return_counts=True)
                top = np.zeros(n_docs, np.int64)
                np.maximum.at(top, u[:, 0], counts)
                nb = lens > 1
                top_frac[nb] = top[nb] / (lens[nb] - 1)
        keep = (dup_frac <= self.max_dup_frac) & (top_frac <= self.max_top_bigram)
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
             "dup_token_frac": pa.array(dup_frac, pa.float64()),
             "top_bigram_frac": pa.array(top_frac, pa.float64()),
             "keep": pa.array(keep, pa.bool_())}
        )


def doc_repetition_metrics(sf_dir: str) -> rd.Dataset:
    """Per-doc repetition quality filter (the Gopher rules family) —
    metrics plus the keep/drop verdict; hash-oracled vs DuckDB."""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        RepetitionMetrics(), batch_format="pandas"
    )


def doc_repetition_sql(
    max_dup_frac: float = 0.6, max_top_bigram: float = 0.18
) -> str:
    # fractions are single IEEE divisions of exact integers on both sides,
    # so the doubles are bit-identical — no rounding slack needed
    return rf"""
WITH lists AS (
    SELECT doc_id, list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') AS tk
    FROM documents WHERE trim(text) <> ''
),
toks AS (
    SELECT doc_id, u.ord, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
base AS (
    SELECT doc_id, COUNT(*)::BIGINT AS n, COUNT(DISTINCT tok)::BIGINT AS nd
    FROM toks GROUP BY doc_id
),
big AS (
    SELECT doc_id,
           tok || ' ' || LEAD(tok) OVER (PARTITION BY doc_id ORDER BY ord) AS bg
    FROM toks
    QUALIFY bg IS NOT NULL
),
topb AS (
    SELECT doc_id, MAX(c)::BIGINT AS top
    FROM (SELECT doc_id, bg, COUNT(*) AS c FROM big GROUP BY doc_id, bg)
    GROUP BY doc_id
),
m AS (
    SELECT d.doc_id,
           COALESCE((b.n - b.nd) / CAST(b.n AS DOUBLE), 0.0) AS dup_token_frac,
           COALESCE(t.top / CAST(b.n - 1 AS DOUBLE), 0.0) AS top_bigram_frac
    FROM documents d
    LEFT JOIN base b USING (doc_id)
    LEFT JOIN topb t USING (doc_id)
)
SELECT doc_id, dup_token_frac, top_bigram_frac,
       (dup_token_frac <= {max_dup_frac}
        AND top_bigram_frac <= {max_top_bigram}) AS keep
FROM m
"""


class _ShingleRows:
    """Doc → distinct word-n-gram shingle rows, tagged by side: benchmark
    docs (doc_id ≡ 0 mod ``mod`` — the stand-in for an external eval set)
    carry a null doc_id; corpus docs carry their id. The exchange key is a
    deterministic hash of the shingle string so matching shingles
    co-locate."""

    def __init__(self, ngram: int, mod: int):
        self.ngram, self.mod = ngram, mod
        self.schema = pa.schema(
            [("shingle", pa.string()), ("doc_id", pa.int64()), ("key", pa.int64())]
        )

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        n = self.ngram
        sh_list: list[str] = []
        ids: list[int] = []
        for doc_id, text in zip(df["doc_id"].to_numpy(), df["text"]):
            toks = text.split()
            if len(toks) < n:
                continue
            shingles = {
                " ".join(toks[i: i + n]) for i in range(len(toks) - n + 1)
            }
            is_bench = int(doc_id) % self.mod == 0
            sh_list.extend(shingles)
            ids.extend([None if is_bench else int(doc_id)] * len(shingles))
        sh_arr = np.array(sh_list, object)
        return pa.table(
            {"shingle": pa.array(sh_arr, pa.string()),
             "doc_id": pa.array(ids, pa.int64()),
             "key": pa.array(pd.util.hash_array(sh_arr).view(np.int64))},
        ).cast(self.schema)


def doc_benchmark_overlap(sf_dir: str, ngram: int = 5, mod: int = 97) -> rd.Dataset:
    """Benchmark DECONTAMINATION flag: a corpus doc is contaminated iff it
    shares at least one word ``ngram``-gram with the held-out benchmark
    slice (docs with doc_id ≡ 0 mod ``mod`` stand in for the eval set; the
    real pipeline reads those from a second input). The canonical
    pre-training hygiene op (GPT-3 appendix C / PaLM-style n-gram overlap).

    Scale shape: NO broadcast of the benchmark shingle set — shingles are
    string-hash partitioned so each match test sees only its partition's
    slice of the benchmark (stage 1), and the hit flags fold back onto the
    corpus manifest by doc-id partition with an ``Aggregate`` (stage 2):
    two exchanges total, both over distinct-per-doc shingle/flag rows, so
    a billion-doc corpus with a million-doc benchmark never concentrates
    state anywhere. A doc's shingle count has no footer bound, so stage 1
    takes ``EXCHANGE_PARTS`` partitions."""
    from ray.data.aggregate import Max

    shingles = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _ShingleRows(ngram, mod), batch_format="pandas"
    )

    _HIT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("hit", pa.int64())])

    def match(g: pa.Table) -> pa.Table:
        is_doc = pc.is_valid(g["doc_id"])
        bench = g.filter(pc.invert(is_doc))["shingle"].combine_chunks()
        docs = g.filter(is_doc)
        hit = docs.filter(pc.is_in(docs["shingle"], value_set=bench))
        ids = np.unique(hit["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "hit": pa.array(np.ones(len(ids), np.int64))},
        ).cast(_HIT_SCHEMA)

    def manifest(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ids = ids[ids % mod != 0]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "hit": pa.array(np.zeros(len(ids), np.int64))},
        ).cast(_HIT_SCHEMA)

    corpus = _read_docs(sf_dir, ["doc_id"]).map_batches(
        manifest, batch_format="pyarrow"
    )
    hits = copartition(
        [shingles], match,
        pa.schema([("shingle", pa.string()), ("doc_id", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()),
             "contaminated": pc.equal(t["hit"], 1)}
        )

    return (
        corpus.union(hits)
        .groupby("doc_id")
        .aggregate(Max("hit", alias_name="hit"))
        .map_batches(finish, batch_format="pyarrow")
    )


def doc_benchmark_overlap_sql(ngram: int = 5, mod: int = 97) -> str:
    concat = " || ' ' || ".join(
        "tok" if i == 0 else f"LEAD(tok, {i}) OVER w" for i in range(ngram)
    )
    return rf"""
WITH lists AS (
    SELECT doc_id, list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') AS tk
    FROM documents WHERE trim(text) <> ''
),
toks AS (
    SELECT doc_id, u.ord, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
sh AS (
    SELECT doc_id, {concat} AS shingle
    FROM toks
    WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
    QUALIFY LEAD(tok, {ngram - 1}) OVER w IS NOT NULL
),
bench AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % {mod} = 0),
hits AS (
    SELECT DISTINCT s.doc_id FROM sh s JOIN bench b USING (shingle)
    WHERE s.doc_id % {mod} <> 0
)
SELECT d.doc_id, (h.doc_id IS NOT NULL) AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % {mod} <> 0
"""


def stratified_sample_sql(k: int = 20) -> str:
    return f"""
SELECT doc_id, lang, rn AS sample_rank
FROM (
    SELECT doc_id, lang,
           ROW_NUMBER() OVER (PARTITION BY lang
                              ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                       doc_id) AS rn
    FROM documents
) WHERE rn <= {k}
"""


# --------------------------------------------------------------------------
# Sequence packing: distributed global prefix sum (scan) over token counts
# --------------------------------------------------------------------------


def _docid_bounds(path: str) -> tuple[int, int]:
    """(min, max) of doc_id from the parquet FOOTER's row-group statistics —
    an O(row-groups) metadata read, never a data scan."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    if md.num_rows == 0:  # empty corpus: the (0, -1) bounds make the id
        return 0, -1  # range empty and every range-partition width 1
    idx = md.schema.to_arrow_schema().get_field_index("doc_id")
    lo, hi = None, None
    for rg in range(md.num_row_groups):
        if md.row_group(rg).num_rows == 0:
            continue  # zero-row groups carry no statistics
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:  # pragma: no cover - stats absent
            raise ValueError(f"{path}: doc_id column statistics missing")
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return int(lo), int(hi)


def doc_pack_spans(sf_dir: str, ctx: int = 256) -> rd.Dataset:
    """LLM-training sequence packing: concatenate all docs in doc_id order
    into one token stream and cut it every ``ctx`` tokens; report, per doc,
    its absolute token offset and the [bin_start, bin_end] range of context
    windows it lands in (GPT-style packing lets a doc straddle a boundary).

    Scale shape — a distributed SCAN (global prefix sum), a primitive Ray
    Data has no verb for:
      1. one pass tokenizes to a slim (key, doc_id, n_tokens) dataset
         (key = doc_id // R range-partitions by id, one range per
         ``copartition`` partition; R from the footer's doc_id min/max,
         O(row-groups) metadata), materialized once — 24 B/doc,
         spillable — so the text column is scanned exactly once;
      2. per-range token totals (one row per partition to the driver),
         exclusive prefix offsets computed driver-side;
      3. the same exchange + per-partition vectorized cumsum + offset adds
         the global base — no driver pass over rows, no global sort.
    """
    n_parts = exchange_parts(sf_dir, "documents")
    lo, hi = _docid_bounds(f"{sf_dir}/documents.parquet")
    rng = max(1, -(-(hi - lo + 1) // n_parts))

    def count(df: pd.DataFrame) -> pa.Table:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        toks = df["text"].str.count(r"\S+").astype("int64").to_numpy()
        return pa.table(
            {"key": pa.array((ids - lo) // rng, pa.int64()),
             "doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(toks, pa.int64())}
        )

    counts = (
        _read_docs(sf_dir, ["doc_id", "text"])
        .map_batches(count, batch_format="pandas")
        .materialize()
    )
    schema = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())])
    offsets = _range_offsets(counts, "n_tokens", schema, n_parts)

    def pack(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = g["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids, toks = ids[order], toks[order]
        start = np.cumsum(toks) - toks + offsets[g["key"][0].as_py()]
        # empty docs occupy no tokens: their span degenerates to bin_start
        end_tok = start + np.maximum(toks, 1) - 1
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(toks, pa.int64()),
             "tok_start": pa.array(start, pa.int64()),
             "bin_start": pa.array(start // ctx, pa.int64()),
             "bin_end": pa.array(end_tok // ctx, pa.int64())}
        )

    return copartition([counts], pack, schema, n_parts)


def _range_offsets(
    counts: rd.Dataset, col: str, schema: pa.Schema, parts: int
) -> dict[int, int]:
    """Exclusive prefix offsets of ``col`` per id range: ``counts`` is keyed
    by range index (< ``parts``), so each ``copartition`` partition holds
    one range and sends one total to the driver."""

    def range_total(g: pa.Table) -> pa.Table:
        return pa.table({"r": [g["key"][0].as_py()], "t": [pc.sum(g[col]).as_py()]})

    totals = copartition([counts], range_total, schema, parts).take_all()
    base, offsets = 0, {}
    for row in sorted(totals, key=lambda row: row["r"]):
        offsets[row["r"]] = base
        base += row["t"]
    return offsets


def doc_pack_spans_sql(ctx: int = 256) -> str:
    return rf"""
WITH toks AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) END::BIGINT
               AS n_tokens
    FROM documents
),
c AS (
    SELECT doc_id, n_tokens,
           SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)::BIGINT AS cum
    FROM toks
)
SELECT doc_id, n_tokens, (cum - n_tokens) AS tok_start,
       ((cum - n_tokens) // {ctx})::BIGINT AS bin_start,
       ((cum - n_tokens + GREATEST(n_tokens, 1) - 1) // {ctx})::BIGINT AS bin_end
FROM c
"""


# --------------------------------------------------------------------------
# TF-IDF top terms per doc (small DF side broadcast once via ray.put)
# --------------------------------------------------------------------------


class TfIdfTopK:
    """Per-doc top-k TF-IDF terms, as a task-mode callable instance. It
    holds only the document-frequency table's REF; the term → df map is
    built from it once per worker process per call
    (``context.worker_cached`` keyed by the ref), never per batch or task.
    Scoring is exact-integer (idf_k = N*1e6 // df; score = tf * idf_k) so
    the DuckDB oracle reproduces it bit-for-bit — no float log drift."""

    def __init__(self, df_ref, n_docs: int, k: int):
        self.df_ref = df_ref
        self.n_docs = n_docs
        self.k = k

    def _build_df_map(self) -> dict:
        import ray

        t = ray.get(self.df_ref)
        return dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        df_map = worker_cached("tfidf_df", self.df_ref.hex(), self._build_df_map)
        s = df["text"].str.strip().str.lower().str.split()
        ex = pd.DataFrame(
            {"doc_id": df["doc_id"].repeat(s.str.len()),
             "term": np.concatenate(s.to_numpy()) if len(df) else []}
        )
        tf = ex.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        dfv = tf["term"].map(df_map).astype("int64")
        score = tf["tf"].to_numpy(dtype=np.int64) * (
            self.n_docs * 1_000_000 // dfv.to_numpy()
        )
        tf = tf.assign(df=dfv, score=score).sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True]
        )
        top = tf.groupby("doc_id", sort=False).head(self.k)
        rank = top.groupby("doc_id", sort=False).cumcount() + 1
        return pa.table(
            {"doc_id": pa.array(top["doc_id"].to_numpy(dtype=np.int64)),
             "term": pa.array(top["term"], pa.string()),
             "tf": pa.array(top["tf"].to_numpy(dtype=np.int64)),
             "df": pa.array(top["df"].to_numpy(dtype=np.int64)),
             "score": pa.array(top["score"].to_numpy(dtype=np.int64)),
             "rank": pa.array(rank.to_numpy(dtype=np.int64))}
        )


def doc_top_tfidf(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Top-k TF-IDF terms per doc. DF is computed distributed (per-batch
    distinct (doc, term) combiner → one term exchange) and the resulting
    vocabulary-sized table is broadcast via ``ray.put`` — the standard
    small-side pattern. Guarded: an open vocabulary that outgrows the
    broadcast bound should switch to a term-hash partitioned join (the
    ``partitioned_hash_join`` in pipelines/joins.py); the cap makes that
    switch explicit rather than silently OOMing the driver."""
    import pyarrow.parquet as pq_
    import ray
    from ray.data.aggregate import Sum

    def distinct_terms(df: pd.DataFrame) -> pa.Table:
        s = df["text"].str.strip().str.lower().str.split()
        ex = pd.DataFrame(
            {"doc_id": df["doc_id"].repeat(s.str.len()),
             "term": np.concatenate(s.to_numpy()) if len(df) else []}
        ).drop_duplicates()
        c = ex.groupby("term", sort=False).size()
        return pa.table(
            {"term": pa.array(c.index, pa.string()),
             "df_p": pa.array(c.to_numpy(dtype=np.int64), pa.int64())}
        )

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    df_tbl = (
        docs.map_batches(distinct_terms, batch_format="pandas")
        .groupby("term")
        .aggregate(Sum("df_p", alias_name="df"))
        .materialize()
    )
    n_terms = df_tbl.count()
    if n_terms > 2_000_000:  # pragma: no cover - open-vocab corpora
        raise ValueError(
            f"vocabulary {n_terms} terms exceeds the broadcast bound; "
            "use a term-hash partitioned join for open vocabularies"
        )
    # Ray's Aggregate can emit zero-COLUMN empty blocks; drop them or
    # concat_tables raises on the schema mismatch (seen at 50k docs)
    parts = [
        p for p in (ray.get(r) for r in df_tbl.to_arrow_refs()) if p.num_columns
    ]
    if not parts:
        parts = [pa.table({"term": pa.array([], pa.string()),
                           "df": pa.array([], pa.int64())})]
    df_ref = ray.put(pa.concat_tables(parts))
    n_docs = pq_.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return docs.map_batches(TfIdfTopK(df_ref, n_docs, k), batch_format="pandas")


def doc_top_tfidf_sql(k: int = 3) -> str:
    return rf"""
WITH toks AS (
    SELECT doc_id, unnest(list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS term
    FROM documents WHERE trim(text) <> ''
),
tf AS (SELECT doc_id, term, COUNT(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
dfq AS (SELECT term, COUNT(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY 1),
n AS (SELECT COUNT(*)::BIGINT AS n FROM documents),
s AS (
    SELECT tf.doc_id, tf.term, tf.tf, dfq.df,
           (tf.tf * ((n.n * 1000000) // dfq.df))::BIGINT AS score
    FROM tf JOIN dfq USING (term) CROSS JOIN n
)
SELECT doc_id, term, tf, df, score,
       ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, term)::BIGINT
           AS rank
FROM s
QUALIFY rank <= {k}
"""


# --------------------------------------------------------------------------
# Cross-document repeated n-grams (boilerplate / template detection)
# --------------------------------------------------------------------------


def boilerplate_ngrams(sf_dir: str, n: int = 5, min_docs: int = 3) -> rd.Dataset:
    """Word n-grams appearing in >= min_docs DISTINCT docs — the boilerplate/
    template detector of C4-style curation (repeated spans across pages are
    navigation chrome, license headers, spam templates).

    Scale shape: per-batch combiner emits (ngram, distinct-docs-in-batch,
    occurrences-in-batch) — docs are whole rows, so within-batch distinct is
    exact — then ONE coarse ngram-hash ``copartition`` (int64 hash keys +
    an in-task pandas fold, the engine's segment-fold template; the
    n-gram count has no footer bound, so ``EXCHANGE_PARTS`` partitions)
    sums both and prunes with >= min_docs before anything leaves
    the fold. A direct ``groupby("ngram").aggregate(Sum)`` was measured at
    113 s at sf0.1: Ray's sort-based shuffle over ~250k mostly-unique long
    string keys streamed from an unmaterialized map stage plans
    pathologically; the coarse int-key partition does the same exchange in
    ~3 s. No driver pass, no second scan; the n-gram build is vectorized
    (shifted pandas str.cat over the flat token stream, doc boundaries
    masked)."""

    def partial(df: pd.DataFrame) -> pa.Table:
        toks_per = df["text"].str.strip().str.split()
        lens = toks_per.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        if not total:
            return pa.table({"key": pa.array([], pa.int64()),
                             "ngram": pa.array([], pa.string()),
                             "nd_p": pa.array([], pa.int64()),
                             "cnt_p": pa.array([], pa.int64())})
        flat = pd.Series(np.concatenate(toks_per.to_numpy()), dtype=object)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        ng = flat.str.cat([flat.shift(-i) for i in range(1, n)], sep=" ")
        valid = doc_idx[: total - (n - 1)] == doc_idx[n - 1:]
        sub = pd.DataFrame(
            {"doc": doc_idx[: total - (n - 1)][valid],
             "ngram": ng.to_numpy()[: total - (n - 1)][valid]}
        )
        cnt = sub.groupby("ngram", sort=False).agg(
            nd_p=("doc", "nunique"), cnt_p=("doc", "size")
        )
        return pa.table(
            {"key": pa.array(
                pd.util.hash_array(cnt.index.to_numpy(object)).view(np.int64)),
             "ngram": pa.array(cnt.index, pa.string()),
             "nd_p": pa.array(cnt["nd_p"].to_numpy(dtype=np.int64)),
             "cnt_p": pa.array(cnt["cnt_p"].to_numpy(dtype=np.int64))}
        )

    def fold(t: pa.Table) -> pa.Table:
        df = t.select(["ngram", "nd_p", "cnt_p"]).to_pandas()
        g = df.groupby("ngram", sort=False)[["nd_p", "cnt_p"]].sum()
        g = g[g["nd_p"] >= min_docs]
        return pa.table(
            {"ngram": pa.array(g.index, pa.string()),
             "n_docs": pa.array(g["nd_p"].to_numpy(dtype=np.int64)),
             "occurrences": pa.array(g["cnt_p"].to_numpy(dtype=np.int64))}
        )

    return copartition(
        [_read_docs(sf_dir, ["doc_id", "text"])
         .map_batches(partial, batch_format="pandas")],
        fold,
        pa.schema([("ngram", pa.string()), ("nd_p", pa.int64()),
                   ("cnt_p", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )


def boilerplate_ngrams_sql(n: int = 5, min_docs: int = 3) -> str:
    leads = " || ' ' || ".join(
        ["tok"] + [f"LEAD(tok, {i}) OVER w" for i in range(1, n)]
    )
    return rf"""
WITH lists AS (
    SELECT doc_id, list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') AS tk
    FROM documents WHERE trim(text) <> ''
),
toks AS (
    SELECT doc_id, u.ord, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
ng AS (
    SELECT doc_id, {leads} AS ngram
    FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
    QUALIFY LEAD(tok, {n - 1}) OVER w IS NOT NULL
)
SELECT ngram, COUNT(DISTINCT doc_id)::BIGINT AS n_docs,
       COUNT(*)::BIGINT AS occurrences
FROM ng GROUP BY ngram HAVING COUNT(DISTINCT doc_id) >= {min_docs}
"""


# --------------------------------------------------------------------------
# Dedup-oriented text normalization
# --------------------------------------------------------------------------


class NormalizeStage:
    """Canonical text form for dedup keying: lowercase, collapse runs of
    whitespace to one space, strip ends; md5 of the result is the exact-dup
    key a normalizing dedup would group on. Compiled regex is actor state."""

    def __init__(self):
        import re

        self.ws = re.compile(r"\s+")

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        import hashlib

        norm = (
            df["text"].str.lower().str.replace(self.ws, " ", regex=True).str.strip()
        )
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
             "norm_text": pa.array(norm, pa.string()),
             "norm_md5": pa.array(
                 [hashlib.md5(t.encode()).hexdigest() for t in norm], pa.string()
             )}
        )


def doc_normalized(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        NormalizeStage(), batch_format="pandas"
    )


DOC_NORMALIZED_SQL = r"""
SELECT doc_id,
       trim(regexp_replace(lower(text),
            '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+', ' ', 'g')) AS norm_text,
       md5(trim(regexp_replace(lower(text),
            '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+', ' ', 'g'))) AS norm_md5
FROM documents
"""


# --------------------------------------------------------------------------
# Exact frequent tokens via a Misra-Gries candidate pass (mergeable sketch)
# --------------------------------------------------------------------------


def heavy_hitter_tokens(
    sf_dir: str, phi_num: int = 33, phi_den: int = 1000, k: int = 64
) -> pd.DataFrame:
    """EXACT tokens with frequency > phi of all token occurrences, computed
    with the classic two-pass frequent-items scheme:

      pass 1 — a Misra-Gries sketch per batch (``functions/sketches.py``),
      merged by a token exchange over the (token, weight) sketch rows. MG's
      guarantee (every item with true frequency > n/k survives, k >=
      phi_den/phi_num enforced) makes the merged counter set an exact
      SUPERSET of the answer, of size <= k x batches regardless of the
      token-domain size — this is what bounds state when the domain (open
      vocab, URLs, n-grams) is too large to aggregate exactly;
      pass 2 — exact counts of the candidate tokens only (broadcast
      candidate set, vectorized isin) plus the global token total, then the
      integer-exact threshold cnt * phi_den > phi_num * total.

    Driver-side state is O(candidates) = O(k x parallelism), never
    O(domain). The threshold compare is integer cross-multiplication, so
    the DuckDB oracle reproduces it exactly."""
    import ray
    from ray.data.aggregate import Sum

    from crawler_ray.functions.sketches import MisraGries

    k = max(k, -(-phi_den // phi_num))
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def sketch(df: pd.DataFrame) -> pa.Table:
        toks = df["text"].str.strip().str.split()
        flat = np.concatenate(toks.to_numpy()) if len(df) else np.array([], object)
        mg = MisraGries(k).add(flat) if len(flat) else MisraGries(k)
        items = mg.items()
        return pa.table(
            {"token": pa.array(list(items.keys()), pa.string()),
             "w_p": pa.array(list(items.values()), pa.int64())}
        )

    cand_rows = (
        docs.map_batches(sketch, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("w_p", alias_name="w"))
        .take_all()
    )
    cands = {r["token"] for r in cand_rows}
    cands_ref = ray.put(cands)

    def count_pass(df: pd.DataFrame) -> pa.Table:
        cset = ray.get(cands_ref)
        toks = df["text"].str.strip().str.split()
        flat = pd.Series(
            np.concatenate(toks.to_numpy()) if len(df) else [], dtype=object
        )
        hit = flat[flat.isin(cset)]
        c = hit.groupby(hit, sort=False).size()
        tokens = list(c.index) + [""]  # "" = per-batch total sentinel
        counts = list(c.to_numpy(dtype=np.int64)) + [len(flat)]
        return pa.table(
            {"token": pa.array(tokens, pa.string()),
             "cnt_p": pa.array(counts, pa.int64())}
        )

    agg = (
        docs.map_batches(count_pass, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("cnt_p", alias_name="cnt"))
        .take_all()
    )
    out = pd.DataFrame(agg)
    if out.empty:  # empty corpus: typed empty result, not a KeyError
        return pd.DataFrame(
            {"token": pd.Series([], dtype=object),
             "cnt": pd.Series([], dtype=np.int64)}
        )
    total = int(out.loc[out["token"] == "", "cnt"].iloc[0])
    out = out[(out["token"] != "") & (out["cnt"] * phi_den > phi_num * total)]
    return pd.DataFrame(
        {"token": out["token"].to_numpy(),
         "cnt": out["cnt"].to_numpy(dtype=np.int64)}
    )


def heavy_hitter_tokens_sql(phi_num: int = 33, phi_den: int = 1000) -> str:
    return rf"""
WITH t AS (
    SELECT unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS token
    FROM documents WHERE trim(text) <> ''
),
c AS (SELECT token, COUNT(*)::BIGINT AS cnt FROM t GROUP BY token)
SELECT token, cnt FROM c
WHERE cnt * {phi_den} > {phi_num} * (SELECT SUM(cnt) FROM c)
"""

# --------------------------------------------------------------------------
# Context-window chunking (embedding / RAG prep)
# --------------------------------------------------------------------------


class ChunkStage:
    """Fixed-size sliding-window chunker over whitespace tokens.

    Chunk rule (mirrored exactly by the DuckDB oracle): starts at every
    multiple of ``stride`` below the doc's token count; each chunk is
    ``tokens[s : s+size]`` clipped to the end, so the final chunk may be
    short. Embarrassingly parallel — a doc chunks entirely inside its own
    batch, so the pipeline has ZERO exchanges at any corpus size; chunk
    volume scales the output, not any shuffle."""

    def __init__(self, size: int, stride: int):
        if stride < 1 or size < 1:
            raise ValueError("size and stride must be >= 1")
        self.size, self.stride = size, stride

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        cid: list[int] = []
        nt: list[int] = []
        txt: list[str] = []
        # per-DOC loop (not per-token): join/slice are C-speed; token lists
        # come from one vectorized str.split pass
        for d, ts in zip(
            df["doc_id"].to_numpy(), df["text"].str.split().to_numpy()
        ):
            n = len(ts)
            for j, s in enumerate(range(0, n, self.stride)):
                e = min(s + self.size, n)
                ids.append(d)
                cid.append(j)
                nt.append(e - s)
                txt.append(" ".join(ts[s:e]))
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, np.int64),
                "chunk_id": np.asarray(cid, np.int64),
                "n_tokens": np.asarray(nt, np.int64),
                "chunk": pd.array(txt, dtype=object),
            }
        )


def doc_chunks(sf_dir: str, size: int = 16, stride: int = 8) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        ChunkStage(size, stride), batch_format="pandas"
    )


def doc_chunks_sql(size: int = 16, stride: int = 8) -> str:
    return rf"""
WITH toks AS (
    SELECT doc_id, list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') AS ts
    FROM documents WHERE trim(text) <> ''
),
starts AS (
    SELECT doc_id, ts, unnest(range(0, len(ts), {stride})) AS s
    FROM toks
)
SELECT doc_id,
       (s / {stride})::BIGINT AS chunk_id,
       (least(s + {size}, len(ts)) - s)::BIGINT AS n_tokens,
       array_to_string(ts[s + 1 : least(s + {size}, len(ts))], ' ') AS chunk
FROM starts
"""


# --------------------------------------------------------------------------
# Inverted index (token -> document postings with term frequency)
# --------------------------------------------------------------------------


def token_postings(sf_dir: str) -> rd.Dataset:
    """Inverted-index postings rows (token, doc_id, tf). A document lives
    wholly inside one batch, so every (token, doc_id) group is batch-local:
    the index builds with ZERO exchanges — one vectorized explode +
    batch-local groupby per batch. Assembling sorted per-token posting
    LISTS (the serving layout) is one further token-hash repartition; the
    row form here is the exchange-free build artifact."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sp = (
            df[["doc_id"]]
            .assign(token=df["text"].str.split())
            .explode("token")
            .dropna(subset=["token"])
        )
        g = (
            sp.groupby(["token", "doc_id"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        return pd.DataFrame(
            {
                "token": g["token"],
                "doc_id": g["doc_id"].astype("int64"),
                "tf": g["tf"].astype("int64"),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial, batch_format="pandas"
    )


TOKEN_POSTINGS_SQL = r"""
SELECT w AS token, doc_id, COUNT(*)::BIGINT AS tf
FROM (SELECT doc_id, unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) AS w
      FROM documents WHERE trim(text) <> '')
GROUP BY w, doc_id
"""


# --------------------------------------------------------------------------
# Per-source over-represented tokens (domain-mixing diagnostics)
# --------------------------------------------------------------------------


def source_token_affinity(sf_dir: str) -> pd.DataFrame:
    """Tokens over-represented in a source vs the whole corpus — the
    domain-mixing diagnostic behind sampling-weight decisions. A token
    qualifies when p_source(t) > p_corpus(t), tested as the INTEGER cross
    product cnt_s * total_corpus > cnt_c * total_source (no float ratios,
    so the DuckDB oracle is exact). Scale shape: per-batch explode +
    batch-local (source, token) combiner -> ONE (source, token) exchange;
    corpus counts and totals re-aggregate the aggregated table, which is
    |sources| x |vocab| rows — result-sized, never corpus-sized. An open
    vocabulary keeps the same plan (the exchange key count grows, the fact
    table is never rescanned)."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sp = (
            df[["source"]]
            .assign(token=df["text"].str.split())
            .explode("token")
            .dropna(subset=["token"])
        )
        return (
            sp.groupby(["source", "token"], sort=False)
            .size()
            .reset_index(name="n_p")
        )

    agg = (
        _read_docs(sf_dir, ["source", "text"])
        .map_batches(partial, batch_format="pandas")
        .groupby(["source", "token"])
        .aggregate(Sum("n_p", alias_name="c_s"))
        .to_pandas()  # |sources| x |vocab| rows by construction
    )
    if agg.empty:  # empty corpus: re-type the schema Ray dropped
        agg = pd.DataFrame(
            {"source": pd.Series([], dtype=object),
             "token": pd.Series([], dtype=object),
             "c_s": pd.Series([], dtype=np.int64)}
        )
    agg["c_s"] = agg["c_s"].astype("int64")
    corpus = (
        agg.groupby("token", as_index=False)["c_s"].sum().rename(columns={"c_s": "c_c"})
    )
    totals = (
        agg.groupby("source", as_index=False)["c_s"].sum().rename(columns={"c_s": "t_s"})
    )
    t_c = int(corpus["c_c"].sum())
    m = agg.merge(corpus, on="token").merge(totals, on="source")
    out = m[m["c_s"] * t_c > m["c_c"] * m["t_s"]]
    return pd.DataFrame(
        {
            "source": out["source"].to_numpy(),
            "token": out["token"].to_numpy(),
            "n_source": out["c_s"].to_numpy(dtype=np.int64),
            "n_corpus": out["c_c"].to_numpy(dtype=np.int64),
        }
    )


SOURCE_TOKEN_AFFINITY_SQL = r"""
WITH tok AS (
    SELECT source, unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) AS w
    FROM documents WHERE trim(text) <> ''
),
s AS (SELECT source, w, COUNT(*)::BIGINT AS c_s FROM tok GROUP BY source, w),
c AS (SELECT w, COUNT(*)::BIGINT AS c_c FROM tok GROUP BY w),
ts AS (SELECT source, SUM(c_s)::BIGINT AS t_s FROM s GROUP BY source),
tc AS (SELECT SUM(c_c)::BIGINT AS t_c FROM c)
SELECT s.source, s.w AS token, s.c_s AS n_source, c.c_c AS n_corpus
FROM s JOIN c ON s.w = c.w JOIN ts ON s.source = ts.source CROSS JOIN tc
WHERE s.c_s * tc.t_c > c.c_c * ts.t_s
"""


# --------------------------------------------------------------------------
# PII scrubbing (email / phone / IPv4 redaction with per-doc counts)
# --------------------------------------------------------------------------

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\d{3}[-.]\d{3}[-.]\d{4}"
PII_IPV4_RE = r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"


class PiiScrubStage:
    """Sequential email -> phone -> IPv4 redaction, counting each class on
    the text AS SEEN by its step (the order is the contract: an IPv4-shaped
    span inside an already-redacted phone never double-counts; the DuckDB
    oracle mirrors the same staged regexp_replace chain). Regexes are RE2 ∩
    Python-re compatible (no backreferences/lookaround) so both engines
    find identical non-overlapping leftmost matches. Compiled once per
    actor; every per-batch op is a vectorized pandas str kernel."""

    def __init__(self):
        import re

        self.email = re.compile(PII_EMAIL_RE)
        self.phone = re.compile(PII_PHONE_RE)
        self.ipv4 = re.compile(PII_IPV4_RE)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        t0 = df["text"]
        n_em = t0.str.count(self.email).astype("int64")
        t1 = t0.str.replace(self.email, "<EMAIL>", regex=True)
        n_ph = t1.str.count(self.phone).astype("int64")
        t2 = t1.str.replace(self.phone, "<PHONE>", regex=True)
        n_ip = t2.str.count(self.ipv4).astype("int64")
        t3 = t2.str.replace(self.ipv4, "<IP>", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "text_clean": t3,
                "n_emails": n_em,
                "n_phones": n_ph,
                "n_ipv4": n_ip,
            }
        )


def doc_pii_scrub(sf_dir: str) -> rd.Dataset:
    """Redacted corpus + per-doc PII counts. The driver testdata contains
    no PII (counts are 0 and text_clean == text there — the oracle still
    pins the full regex chain); the planted-fixture test in
    ``tests/test_textops_suite.py`` proves the redaction semantics on text
    that actually contains emails/phones/IPs, value-compared to DuckDB."""
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        PiiScrubStage(), batch_format="pandas"
    )


DOC_PII_SCRUB_SQL = rf"""
WITH s1 AS (
    SELECT doc_id,
           len(regexp_extract_all(text, '{PII_EMAIL_RE}'))::BIGINT AS n_emails,
           regexp_replace(text, '{PII_EMAIL_RE}', '<EMAIL>', 'g') AS t1
    FROM documents
),
s2 AS (
    SELECT doc_id, n_emails,
           len(regexp_extract_all(t1, '{PII_PHONE_RE}'))::BIGINT AS n_phones,
           regexp_replace(t1, '{PII_PHONE_RE}', '<PHONE>', 'g') AS t2
    FROM s1
),
s3 AS (
    SELECT doc_id, n_emails, n_phones,
           len(regexp_extract_all(t2, '{PII_IPV4_RE}'))::BIGINT AS n_ipv4,
           regexp_replace(t2, '{PII_IPV4_RE}', '<IP>', 'g') AS text_clean
    FROM s2
)
SELECT doc_id, text_clean, n_emails, n_phones, n_ipv4 FROM s3
"""

# --------------------------------------------------------------------------
# Domain-mixing rebalance: downsample every source to the smallest source
# --------------------------------------------------------------------------


def balanced_sample_docs(sf_dir: str) -> rd.Dataset:
    """Uniform source mix: every source downsampled to the SMALLEST
    source's doc count — the data-derived-rate version of
    :func:`stratified_sample_docs` (there k is a constant; here it comes
    from a first stats pass, the usual two-phase shape of training-data
    mixing jobs). Selection is the n_min docs with smallest md5(doc_id)
    per source (ties → doc_id), so re-runs, resumes and the SQL oracle
    pick identical rows. The stats pass moves |sources| rows; the
    selection pass is one source exchange whose output is the result
    itself (|sources| x n_min rows — no way to move less)."""
    import hashlib

    from ray.data.aggregate import Count

    ds = _read_docs(sf_dir, ["doc_id", "source"])
    counts = ds.groupby("source").aggregate(Count(alias_name="c")).to_pandas()
    n_min = int(counts["c"].min()) if len(counts) else 0

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "source"]].copy()
        out["h"] = [
            hashlib.md5(str(int(i)).encode()).hexdigest() for i in out["doc_id"]
        ]
        return out

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["h", "doc_id"], kind="stable").head(n_min)
        return df[["doc_id", "source"]].reset_index(drop=True)

    return (
        ds.map_batches(add_hash, batch_format="pandas")
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


BALANCED_SAMPLE_SQL = """
WITH n AS (SELECT source, COUNT(*) AS c FROM documents GROUP BY source),
m AS (SELECT MIN(c)::BIGINT AS n_min FROM n),
r AS (
    SELECT doc_id, source,
           ROW_NUMBER() OVER (PARTITION BY source
                              ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                       doc_id) AS rn
    FROM documents
)
SELECT doc_id, source FROM r CROSS JOIN m WHERE rn <= m.n_min
"""

# --------------------------------------------------------------------------
# Token co-occurrence (PMI-style pair counts within a sliding window)
# --------------------------------------------------------------------------


def token_cooccurrence(
    sf_dir: str, window: int = 2, min_count: int = 2
) -> rd.Dataset:
    """Corpus co-occurrence counts: unordered token pairs whose positions
    in the same doc differ by 1..window (the statistics under PMI /
    word-vector objectives). Pair extraction is fully vectorized — one
    flat token array per batch with doc-boundary masks, one shifted
    comparison per offset — and a batch-local (tok_a, tok_b) combiner
    runs BEFORE the single pair-key exchange, so the shuffle moves one
    row per distinct pair per batch, never one per occurrence. Pairs are
    canonicalized (tok_a <= tok_b) elementwise, matching the
    least()/greatest() of the SQL twin."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split()
        lens = toks.str.len().to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return pd.DataFrame(
                {"tok_a": pd.Series([], dtype=object),
                 "tok_b": pd.Series([], dtype=object),
                 "n_p": pd.Series([], dtype=np.int64)}
            )
        flat = np.concatenate([t for t in toks.to_numpy() if len(t)])
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        pa_, pb_ = [], []
        for d in range(1, window + 1):
            if d >= len(flat):
                break
            same = doc_idx[:-d] == doc_idx[d:]
            pa_.append(flat[:-d][same])
            pb_.append(flat[d:][same])
        if not pa_:
            a = np.array([], dtype=object)
            b = a
        else:
            a = np.concatenate(pa_)
            b = np.concatenate(pb_)
        swap = a > b  # elementwise string compare (np.minimum lacks a U loop)
        lo = np.where(swap, b, a)
        hi = np.where(swap, a, b)
        g = (
            pd.DataFrame({"tok_a": lo, "tok_b": hi})
            .groupby(["tok_a", "tok_b"], sort=False)
            .size()
            .reset_index(name="n_p")
        )
        g["n_p"] = g["n_p"].astype("int64")
        return g

    agg = (
        _read_docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pandas")
        .groupby(["tok_a", "tok_b"])
        .aggregate(Sum("n_p", alias_name="n"))
    )
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["n"] >= min_count]
        return pd.DataFrame(
            {"tok_a": out["tok_a"], "tok_b": out["tok_b"],
             "n": out["n"].astype("int64")}
        )

    return agg.map_batches(finish, batch_format="pandas")


def token_cooccurrence_sql(window: int = 2, min_count: int = 2) -> str:
    return rf"""
WITH pos AS (
    SELECT doc_id,
           unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS w,
           unnest(range(1, len(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) + 1)) AS p
    FROM documents WHERE trim(text) <> ''
)
SELECT least(a.w, b.w) AS tok_a,
       greatest(a.w, b.w) AS tok_b,
       COUNT(*)::BIGINT AS n
FROM pos a JOIN pos b
  ON a.doc_id = b.doc_id AND b.p - a.p BETWEEN 1 AND {window}
GROUP BY 1, 2
HAVING COUNT(*) >= {min_count}
"""


# --------------------------------------------------------------------------
# Model-scoring archetype: hashing-trick linear classifier inference
# --------------------------------------------------------------------------


class HashingTrickScorer:
    """Quality-classifier INFERENCE over text — the batched model-scoring
    archetype of a curation pipeline (fastText/VW-style linear model). The
    model uses the hashing trick: each token's weight derives from
    md5(token) on the fly, so the "model" ships as three integer constants
    and scoring needs no weight broadcast at ANY vocabulary size (the
    broadcast-table variant is ``doc_top_tfidf``'s DF handling). Integer
    margins -> results independent of batch split and summation order.

    Per-batch: flat token stream -> pd.factorize -> md5 per DISTINCT token
    only -> weight take -> per-doc segment sum (np.add.at). Actor state is
    just the constants; the md5 work is bounded by distinct tokens per
    batch."""

    def __init__(self, bias: int = 3, mod: int = 21, off: int = 10):
        import hashlib

        self.bias, self.mod, self.off = bias, mod, off
        self._md5 = hashlib.md5

    def _weight(self, uniq: np.ndarray) -> np.ndarray:
        return np.array(
            [
                int(self._md5(t.encode("utf-8")).hexdigest()[:8], 16)
                % self.mod - self.off
                for t in uniq
            ],
            dtype=np.int64,
        )

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks_per = df["text"].str.strip().str.split()
        lens = toks_per.str.len().to_numpy(dtype=np.int64)
        margins = np.full(len(df), self.bias, dtype=np.int64)
        if int(lens.sum()):
            flat = np.concatenate(toks_per.to_numpy())
            codes, uniq = pd.factorize(flat)
            doc_idx = np.repeat(np.arange(len(df)), lens)
            np.add.at(margins, doc_idx, self._weight(uniq)[codes])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "margin": margins,
                "keep": margins > 0,
            }
        )


def doc_classifier_scores(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        HashingTrickScorer(), batch_format="pandas"
    )


def doc_classifier_sql(bias: int = 3, mod: int = 21, off: int = 10) -> str:
    return rf"""
WITH lists AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') END AS tk
    FROM documents
),
toks AS (
    SELECT doc_id, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
m AS (
    SELECT doc_id,
           SUM(CAST(concat('0x', substr(md5(tok), 1, 8)) AS BIGINT)
               % {mod} - {off})::BIGINT AS s
    FROM toks GROUP BY doc_id
)
SELECT l.doc_id,
       ({bias} + COALESCE(m.s, 0))::BIGINT AS margin,
       ({bias} + COALESCE(m.s, 0)) > 0 AS keep
FROM lists l LEFT JOIN m USING (doc_id)
"""


# --------------------------------------------------------------------------
# Deterministic seeded global shuffle (training-order export)
# --------------------------------------------------------------------------


def shuffled_export(sf_dir: str, seed: int = 42) -> rd.Dataset:
    """Deterministic seeded GLOBAL SHUFFLE rank — the training-order export
    step (every epoch wants the corpus in a reproducible pseudorandom
    permutation). The permutation key is md5(seed ':' doc_id), so re-runs,
    resumes and the SQL twin pick the identical order; contrast with
    ``Dataset.random_shuffle`` whose layout depends on block structure.

    Shape: the global rank is distributed ORDER STATISTICS, not a global
    sort: md5 keys are uniform, so the first key byte range-partitions the
    key space into 256 ordered buckets. The slim keyed table (doc_id,
    key, bucket) is computed and materialized ONCE; pass 1 folds its
    per-bucket counts (combiner per batch; only the 256-row aggregate
    reaches the driver, which turns it into exclusive prefix offsets —
    the doc_pack_spans pattern); pass 2 sorts WITHIN each bucket and adds
    the bucket's offset. The corpus itself is scanned once, doc_id column
    only."""
    import hashlib

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        skey = np.array(
            [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids],
            dtype=object,
        )
        bucket = np.array([int(s[:2], 16) for s in skey], dtype=np.int64)
        return pd.DataFrame({"doc_id": ids, "skey": skey, "bucket": bucket})

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", sort=False).size()
        return pd.DataFrame(
            {"bucket": g.index.to_numpy(np.int64),
             "cnt": g.to_numpy(np.int64)}
        )

    from ray.data.aggregate import Sum

    # keyed rows are computed (and the md5 permutation keys hashed) ONCE:
    # the materialized slim table feeds both the count pass and the rank
    # pass — no second corpus scan
    ds = _read_docs(sf_dir, ["doc_id"]).map_batches(
        keyed, batch_format="pandas"
    ).materialize()
    counts = (
        ds.map_batches(bucket_counts, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    if counts.empty:  # empty corpus: no buckets, rank() never fires
        offsets: dict = {}
    else:
        counts = counts.sort_values("bucket")
        offsets = dict(
            zip(
                counts["bucket"].to_numpy(np.int64),
                np.cumsum(counts["cnt"].to_numpy(np.int64))
                - counts["cnt"].to_numpy(np.int64),
            )
        )

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["skey", "doc_id"], kind="mergesort")
        base = offsets[int(g["bucket"].iloc[0])]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "shuffle_rank": base + np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return ds.groupby("bucket").map_groups(rank, batch_format="pandas")


def shuffled_export_sql(seed: int = 42) -> str:
    return f"""
SELECT doc_id,
       ROW_NUMBER() OVER (
           ORDER BY md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)), doc_id
       )::BIGINT AS shuffle_rank
FROM documents
"""


# --------------------------------------------------------------------------
# Corpus "dataset card": per-source composition report
# --------------------------------------------------------------------------


def corpus_source_report(sf_dir: str) -> rd.Dataset:
    """Per-source corpus composition — the dataset-card numbers a curation
    run publishes: docs, whitespace tokens, total chars, DISTINCT texts
    (exact-dup rate per source) and languages.

    Shape: one pass emits per-batch partials of two kinds as the two sides
    of ONE ``copartition`` — (source, md5) presence rows for the distinct
    count (globally co-located by md5, so the in-partition distinct is
    exact) and additive (docs/tokens/chars/lang-set) partials, all keyed
    to partition 0. The partition fold reduces both; the |sources|-row result re-aggregates on
    the driver-side finish like ``revenue_rollup`` (O(sources) rows only)."""
    ds = _read_docs(sf_dir, ["doc_id", "text", "lang", "source"])
    import hashlib

    _SCHEMA = pa.schema(
        [("source", pa.string()), ("md5", pa.string()),
         ("n_docs", pa.int64()), ("n_tokens", pa.int64()),
         ("n_chars", pa.int64()), ("langs", pa.string())]
    )
    _STATS = ["source", "n_docs", "n_tokens", "n_chars", "langs"]

    def stats_rows(df: pd.DataFrame) -> pa.Table:
        toks = df["text"].str.strip().str.split().str.len().astype("int64")
        chars = df["text"].str.len().astype("int64")
        # additive stats rows: one per (source) per batch
        g = pd.DataFrame(
            {"source": df["source"], "lang": df["lang"],
             "toks": toks, "chars": chars}
        ).groupby("source", sort=False)
        stats = g.agg(
            n_docs=("toks", "size"), n_tokens=("toks", "sum"),
            n_chars=("chars", "sum"),
            langs=("lang", lambda s: ",".join(sorted(set(s)))),
        ).reset_index()
        return pa.table(
            {"key": pa.array(np.zeros(len(stats), np.int64)),
             "source": pa.array(stats["source"], pa.string()),
             "n_docs": pa.array(stats["n_docs"].to_numpy(np.int64)),
             "n_tokens": pa.array(stats["n_tokens"].to_numpy(np.int64)),
             "n_chars": pa.array(stats["n_chars"].to_numpy(np.int64)),
             "langs": pa.array(stats["langs"], pa.string())}
        )

    def presence_rows(df: pd.DataFrame) -> pa.Table:
        # distinct-text presence rows, md5-keyed (batch-local dedup)
        md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]]
        pres = pd.DataFrame({"source": df["source"], "md5": md5s})
        pres = pres.drop_duplicates()
        return pa.table(
            {"key": pa.array([int(m[:8], 16) for m in pres["md5"]], pa.int64()),
             "source": pa.array(pres["source"], pa.string()),
             "md5": pa.array(pres["md5"], pa.string())}
        )

    _MID_SCHEMA = pa.schema(
        [("source", pa.string()), ("n_docs", pa.int64()),
         ("n_tokens", pa.int64()), ("n_chars", pa.int64()),
         ("distinct_texts", pa.int64()), ("langs", pa.string())]
    )

    def fold(stats: pa.Table, pres: pa.Table) -> pa.Table:
        s = stats.select(_STATS).to_pandas().groupby("source", sort=False).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"),
            n_chars=("n_chars", "sum"),
            langs=("langs", lambda x: ",".join(
                sorted(set(",".join(x).split(",")))
            )),
        ).reset_index()
        s["distinct_texts"] = 0
        # exact distinct (source, md5) pairs
        d = pres.select(["source", "md5"]).to_pandas().drop_duplicates()
        p = d.groupby("source", sort=False).size().rename(
            "distinct_texts"
        ).reset_index()
        p["n_docs"] = 0
        p["n_tokens"] = 0
        p["n_chars"] = 0
        # None (not "") marks the no-langs placeholder: a GENUINE
        # empty-string lang value must survive to match the SQL twin's
        # string_agg(DISTINCT lang)
        p["langs"] = None
        return pa.Table.from_pandas(
            pd.concat([s, p])[_MID_SCHEMA.names],
            schema=_MID_SCHEMA, preserve_index=False,
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:  # empty corpus: typed empty report, not a KeyError
            return pd.DataFrame(
                {"source": pd.Series([], dtype=object),
                 "n_docs": pd.Series([], dtype=np.int64),
                 "n_tokens": pd.Series([], dtype=np.int64),
                 "n_chars": pd.Series([], dtype=np.int64),
                 "distinct_texts": pd.Series([], dtype=np.int64),
                 "langs": pd.Series([], dtype=object)}
            )
        g = df.groupby("source", sort=True).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"),
            n_chars=("n_chars", "sum"),
            distinct_texts=("distinct_texts", "sum"),
            langs=("langs", lambda x: ",".join(
                sorted({v for s_ in x if isinstance(s_, str)
                        for v in s_.split(",")})
            )),
        ).reset_index()
        return g

    mid = copartition(
        [ds.map_batches(stats_rows, batch_format="pandas"),
         ds.map_batches(presence_rows, batch_format="pandas")],
        fold, _SCHEMA,
        # each doc sends at most one row to each side
        exchange_parts(sf_dir, "documents", "documents"),
    ).to_pandas()  # |sources| x partitions rows — O(sources) driver work
    import ray.data as _rd

    return _rd.from_pandas(finish(mid))


CORPUS_SOURCE_REPORT_SQL = r"""
SELECT source,
       COUNT(*)::BIGINT AS n_docs,
       SUM(CASE WHEN trim(text) = '' THEN 0
                ELSE length(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != ''))
           END)::BIGINT AS n_tokens,
       SUM(length(text))::BIGINT AS n_chars,
       COUNT(DISTINCT md5(text))::BIGINT AS distinct_texts,
       string_agg(DISTINCT lang, ',' ORDER BY lang) AS langs
FROM documents
GROUP BY source ORDER BY source
"""


# --------------------------------------------------------------------------
# CCNet-style unigram LM perplexity-proxy gate
# --------------------------------------------------------------------------


def doc_lm_scores(sf_dir: str) -> rd.Dataset:
    """Unigram language-model fluency score per doc — the CCNet/KenLM
    perplexity-gate archetype (docs of common, well-distributed tokens
    score high; gibberish scores low). The "model" is the corpus's own
    unigram counts; the score is the mean INTEGER floor-log2 of each
    token's corpus frequency — exact in both engines (numpy frexp exponent
    vs DuckDB printf('%b') length), so unlike float log-prob sums the
    result is independent of accumulation order and hash-exact vs SQL.

    Scale shape — the OPEN-VOCABULARY path (contrast with doc_top_tfidf's
    guarded vocab broadcast): ONE tokenize pass emits occurrence rows into
    a token-hash ``copartition``, so a token's corpus count is its row
    count in the partition; the per-partition attach emits (doc_id,
    sum_ilog2, n) PARTIALS, and one doc-keyed ``copartition`` with a
    manifest side folds them per doc (zero-token docs come from the
    manifest). Nothing is broadcast; no state exceeds a partition; the
    corpus is read and tokenized exactly once. A doc's token count has no
    footer bound, so both exchanges take ``EXCHANGE_PARTS`` partitions."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_parts = joins.EXCHANGE_PARTS

    def tok_rows(df: pd.DataFrame) -> pa.Table:
        toks_per = df["text"].str.strip().str.split()
        lens = toks_per.str.len().to_numpy(dtype=np.int64)
        flat = (np.concatenate(toks_per.to_numpy()) if int(lens.sum())
                else np.array([], object))
        return pa.table(
            {"key": pa.array(pd.util.hash_array(flat).view(np.int64)),
             "tok": pa.array(flat, pa.string()),
             "doc_id": pa.array(
                 np.repeat(df["doc_id"].to_numpy(np.int64), lens), pa.int64())}
        )

    def attach(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        c = df.groupby("tok", sort=False)["doc_id"].transform("size")
        ilog2 = (np.frexp(c.to_numpy(np.float64))[1] - 1).astype(np.int64)
        agg = pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(np.int64), "il": ilog2}
        ).groupby("doc_id", sort=False)["il"].agg(["sum", "size"])
        return pa.table(
            {"key": pa.array(agg.index.to_numpy(np.int64), pa.int64()),
             "s": pa.array(agg["sum"].to_numpy(np.int64)),
             "n": pa.array(agg["size"].to_numpy(np.int64))}
        )

    def finish(df: pd.DataFrame) -> pa.Table:
        s = df["s"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        score = np.where(n == 0, 0.0, s / np.maximum(n, 1).astype(np.float64))
        return pa.table(
            {"doc_id": pa.array(df.index.to_numpy(np.int64), pa.int64()),
             "sum_ilog2": pa.array(s, pa.int64()),
             "lm_score": pa.array(score, pa.float64())}
        )

    partials = copartition(
        [docs.map_batches(tok_rows, batch_format="pandas")], attach,
        pa.schema([("tok", pa.string()), ("doc_id", pa.int64())]), n_parts,
    )
    return _doc_sums(partials, docs, ["s", "n"], finish, n_parts)


def _doc_sums(partials: rd.Dataset, docs: rd.Dataset, cols: list[str],
              finish, parts: int) -> rd.Dataset:
    """Per-doc sums of doc-keyed int64 ``cols`` partials: one doc-keyed
    ``copartition`` whose second side is the ``docs`` manifest, so a doc
    with no partial sums to 0. ``finish`` gets a DataFrame of the sums
    indexed by doc_id."""

    def fold(p: pa.Table, m: pa.Table) -> pa.Table:
        return finish(
            p.select(["key", *cols]).to_pandas()
            .groupby("key", sort=False)[cols].sum()
            .reindex(np.unique(m["key"].to_numpy()), fill_value=0)
        )

    fold.__name__ = finish.__name__
    manifest = docs.map_batches(
        lambda t: pa.table({"key": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return copartition(
        [partials, manifest], fold,
        pa.schema([(c, pa.int64()) for c in cols]), parts,
    )


DOC_LM_SCORES_SQL = r"""
WITH lists AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '') END AS tk
    FROM documents
),
toks AS (
    SELECT doc_id, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
cnt AS (SELECT tok, COUNT(*) AS c FROM toks GROUP BY tok),
sc AS (
    SELECT t.doc_id,
           SUM(length(printf('%b', c.c)) - 1)::BIGINT AS s,
           COUNT(*)::BIGINT AS n
    FROM toks t JOIN cnt c USING (tok) GROUP BY t.doc_id
)
SELECT l.doc_id,
       COALESCE(sc.s, 0)::BIGINT AS sum_ilog2,
       CASE WHEN sc.n IS NULL THEN 0.0
            ELSE sc.s / sc.n::DOUBLE END AS lm_score
FROM lists l LEFT JOIN sc USING (doc_id)
"""


# --------------------------------------------------------------------------
# Quality-curriculum ordering: distributed SAMPLE SORT over a computed key
# --------------------------------------------------------------------------


def curriculum_export(sf_dir: str) -> rd.Dataset:
    """Curriculum-training order: every doc ranked by (classifier margin
    DESC, doc_id) — highest-quality first. The rank is a distributed
    SAMPLE SORT (``ordering.global_sort_rank``): unlike
    ``shuffled_export`` (whose md5 keys are uniform, so 256 static byte
    buckets range-partition for free), a computed quality key is
    arbitrarily skewed, so the cut points must be SAMPLED — the TeraSort
    recipe. Sampling skew affects only range BALANCE, never rank
    correctness.

    The slim (doc_id, key) table is computed once; the key packs
    (-margin, doc_id) into one int64 so ascending key order IS the output
    order (asserted bounds: abs(margin) < 2^30, doc_id < 2^32). The sort
    makes two passes over that key table, none over the corpus text."""
    scorer = HashingTrickScorer()

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        m = scorer(df)
        margin = m["margin"].to_numpy(np.int64)
        ids = m["doc_id"].to_numpy(np.int64)
        assert (np.abs(margin) < (1 << 30)).all() and (
            (ids >= 0) & (ids < (1 << 32))
        ).all()
        key = ((1 << 30) - margin) * (1 << 32) + ids
        return pd.DataFrame({"doc_id": ids, "key": key})

    keys = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        key_rows, batch_format="pandas")
    ranks, _total = global_sort_rank(
        keys, id_col="doc_id", key_col="key", rank_col="curriculum_rank")
    return ranks


def curriculum_export_sql(bias: int = 3, mod: int = 21, off: int = 10) -> str:
    return rf"""
WITH lists AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') END AS tk
    FROM documents
),
toks AS (
    SELECT doc_id, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
m AS (
    SELECT doc_id,
           SUM(CAST(concat('0x', substr(md5(tok), 1, 8)) AS BIGINT)
               % {mod} - {off})::BIGINT AS s
    FROM toks GROUP BY doc_id
)
SELECT l.doc_id,
       ROW_NUMBER() OVER (
           ORDER BY ({bias} + COALESCE(m.s, 0)) DESC, l.doc_id
       )::BIGINT AS curriculum_rank
FROM lists l LEFT JOIN m USING (doc_id)
"""


# --------------------------------------------------------------------------
# Uniform k-sample: reservoir-style bounded fold, no global rank
# --------------------------------------------------------------------------


def uniform_sample_docs(sf_dir: str, k: int = 50, seed: int = 7) -> pd.DataFrame:
    """Deterministic uniform k-sample of the corpus — the reservoir-sample
    archetype, made resumable/rerunnable by replacing randomness with a
    seeded hash order: the sample IS the k smallest md5('seed:doc_id')
    keys. Contrast ``shuffled_export`` (full global rank, two exchanges):
    a k-sample never needs ranks — each block folds to its own k smallest
    keys (bounded partial top-k), and only O(k × blocks) slim rows reach
    the final reduce. No shuffle of the corpus, no driver scan; text is
    attached afterwards by a pruned filtered read of just the k winners.
    """
    import hashlib

    import pyarrow.parquet as pq

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        skey = np.array(
            [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids],
            dtype=object,
        )
        order = np.lexsort((ids, skey))[:k]
        return pd.DataFrame({"doc_id": ids[order], "skey": skey[order]})

    parts = (
        _read_docs(sf_dir, ["doc_id"])
        .map_batches(partial_topk, batch_format="pandas")
        .to_pandas()  # O(k * blocks) rows by construction
    )
    if parts.empty:  # empty corpus: re-type the schema Ray dropped
        parts = pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "skey": pd.Series([], dtype=object)}
        )
    win = parts.sort_values(["skey", "doc_id"], kind="mergesort").head(k)
    win = win.assign(
        sample_rank=np.arange(1, len(win) + 1, dtype=np.int64)
    ).reset_index(drop=True)
    # attach text via a filtered read of ONLY the winners (row-group pruned)
    ids = sorted(int(i) for i in win["doc_id"])
    t = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", ids)],
    ).to_pandas()
    out = win.merge(t, on="doc_id")
    return out[["doc_id", "sample_rank", "text"]]


def uniform_sample_sql(k: int = 50, seed: int = 7) -> str:
    return f"""
SELECT doc_id,
       ROW_NUMBER() OVER (
           ORDER BY md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)), doc_id
       )::BIGINT AS sample_rank,
       text
FROM documents
ORDER BY md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)), doc_id
LIMIT {k}
"""


# --------------------------------------------------------------------------
# Deterministic train/val/test split assignment
# --------------------------------------------------------------------------


def doc_split_assign(sf_dir: str, seed: int = 3) -> rd.Dataset:
    """Deterministic 90/5/5 train/val/test assignment — the export step
    every training-data build ends with, made resumable by hashing instead
    of sampling: split = md5(seed:doc_id) mod 100 bucketed into
    [0,90)/[90,95)/[95,100). Zero exchanges (pure per-batch map); re-runs,
    resharded inputs and the SQL twin agree bit-for-bit, and the expected
    proportions hold corpus-wide without any coordination."""
    import hashlib

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        h = np.array(
            [int(hashlib.md5(f"{seed}:{i}".encode()).hexdigest()[:8], 16) % 100
             for i in ids],
            dtype=np.int64,
        )
        split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
        return pd.DataFrame({"doc_id": ids, "split": split})

    return _read_docs(sf_dir, ["doc_id"]).map_batches(
        assign, batch_format="pandas"
    )


def doc_split_assign_sql(seed: int = 3) -> str:
    return f"""
SELECT doc_id,
       CASE WHEN h < 90 THEN 'train' WHEN h < 95 THEN 'val' ELSE 'test' END
           AS split
FROM (
    SELECT doc_id,
           CAST(concat('0x', substr(
               md5('{seed}' || ':' || CAST(doc_id AS VARCHAR)), 1, 8))
               AS BIGINT) % 100 AS h
    FROM documents
)
"""


# --------------------------------------------------------------------------
# Compression-ratio quality signal (zlib)
# --------------------------------------------------------------------------


def doc_compression_ratio(sf_dir: str, level: int = 6) -> rd.Dataset:
    """Per-doc zlib compression ratio (compressed/raw bytes) — the CCNet/
    RefinedWeb-style redundancy signal: highly repetitive or templated
    text compresses far below natural prose, and near-random strings
    don't compress at all. Zero exchanges (pure per-batch map); zlib is
    deterministic for a fixed level, so re-runs agree bit-for-bit.
    Rows-only driver check (no zlib in SQL); monotonicity properties are
    asserted in tests against constructed texts."""
    import zlib

    def ratios(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        raw = [t.encode("utf-8") for t in df["text"]]
        comp = np.array(
            [len(zlib.compress(b, level)) for b in raw], dtype=np.int64
        )
        n = np.array([len(b) for b in raw], dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": ids,
             "raw_bytes": n,
             "compressed_bytes": comp,
             "compression_ratio": comp / np.maximum(n, 1)}
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        ratios, batch_format="pandas"
    )


# --------------------------------------------------------------------------
# Temperature-based domain mixing (τ = 0.5, integer-exact)
# --------------------------------------------------------------------------


def temperature_sample_docs(sf_dir: str) -> rd.Dataset:
    """τ-temperature source mixing — the standard LLM-pretraining rebalance
    (sample source i proportionally to ``n_i^τ``, upweighting small
    domains; XLM-R/mT5-style, τ = 0.5) made EXACTLY deterministic:

    - weights are ``isqrt(n_i)`` — integer square root, so ``n_i^0.5`` is
      exact in int64 on both engines (no float pow);
    - the total budget ``K = Σn_i // 2`` is apportioned by the largest-
      remainder (Hamilton) method in pure int64 arithmetic: base quota
      ``K*w_i // W``, the ``K - Σbase`` leftovers to the largest
      remainders (ties → source name), then capped at ``n_i`` (a tiny
      source can't supply more docs than it has; the cap is single-round,
      mirrored exactly in the SQL twin);
    - per-source selection is the deterministic md5(doc_id) rank used by
      the whole sampling family, so re-runs and the oracle pick identical
      rows.

    Scale shape: the stats pass moves |sources| rows; quota arithmetic is
    driver-side over that control-plane table; the selection pass is ONE
    source exchange whose output is the result itself.
    """
    import hashlib
    import math

    from ray.data.aggregate import Count

    ds = _read_docs(sf_dir, ["doc_id", "source"])
    counts = (
        ds.groupby("source").aggregate(Count(alias_name="c")).to_pandas()
    )
    if not len(counts):
        return ds.limit(0)
    n_by_src = dict(zip(counts["source"], counts["c"].astype(int)))
    total = sum(n_by_src.values())
    budget = total // 2
    w = {s: math.isqrt(c) for s, c in n_by_src.items()}
    W = sum(w.values())
    base = {s: budget * w[s] // W for s in w}
    rem = {s: budget * w[s] % W for s in w}
    leftover = budget - sum(base.values())
    for s in sorted(rem, key=lambda s: (-rem[s], s))[:leftover]:
        base[s] += 1
    quota = {s: min(base[s], n_by_src[s]) for s in base}

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "source"]].copy()
        out["h"] = [
            hashlib.md5(str(int(i)).encode()).hexdigest() for i in out["doc_id"]
        ]
        return out

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        k = quota.get(df["source"].iloc[0], 0) if len(df) else 0
        df = df.sort_values(["h", "doc_id"], kind="stable").head(k)
        return df[["doc_id", "source"]].reset_index(drop=True)

    return (
        ds.map_batches(add_hash, batch_format="pandas")
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


TEMPERATURE_SAMPLE_SQL = """
WITH n AS (SELECT source, COUNT(*)::BIGINT AS c FROM documents GROUP BY source),
w AS (
    SELECT source, c,
           CASE WHEN f * f > c THEN f - 1
                WHEN (f + 1) * (f + 1) <= c THEN f + 1
                ELSE f END AS w
    FROM (SELECT source, c, CAST(FLOOR(SQRT(c)) AS BIGINT) AS f FROM n)
),
tot AS (
    SELECT SUM(w)::BIGINT AS big_w, (SUM(c) // 2)::BIGINT AS k_budget FROM w
),
base AS (
    SELECT source, c, w,
           (k_budget * w) // big_w AS q,
           (k_budget * w) % big_w AS r
    FROM w CROSS JOIN tot
),
ranked AS (
    SELECT source, c, q, r,
           ROW_NUMBER() OVER (ORDER BY r DESC, source) AS rr,
           (SELECT k_budget FROM tot) - (SELECT SUM(q)::BIGINT FROM base)
               AS leftover
    FROM base
),
quota AS (
    SELECT source,
           LEAST(q + CASE WHEN rr <= leftover THEN 1 ELSE 0 END, c)::BIGINT
               AS k
    FROM ranked
),
rk AS (
    SELECT doc_id, d.source,
           ROW_NUMBER() OVER (PARTITION BY d.source
                              ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                       doc_id) AS rn
    FROM documents d
)
SELECT rk.doc_id, rk.source FROM rk JOIN quota ON rk.source = quota.source
WHERE rn <= quota.k
"""


# --------------------------------------------------------------------------
# DSIR importance weights: n-gram LM ratio target/source (Xie et al. 2023)
# --------------------------------------------------------------------------


def doc_dsir_weights(sf_dir: str, target_lang: str = "en") -> rd.Dataset:
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023)
    weights: per-doc log importance ratio between a TARGET unigram LM
    (docs with lang == ``target_lang`` — the "high-quality domain"
    stand-in) and the SOURCE LM (the whole corpus). Docs whose tokens are
    relatively more frequent in the target score high; resampling is then
    one ORDER BY / Gumbel draw over these weights (the suite's sampling
    verbs).

    Exactness: log-probs are INTEGER floor-log2 of counts — weight =
    Σ_tok [ilog2(c_target(tok)+1) − ilog2(c_source(tok))] — the
    ``doc_lm_scores`` trick (numpy frexp vs DuckDB printf('%b')), so the
    int64 result is accumulation-order-free and hash-exact vs SQL. The +1
    smoothing keeps absent-from-target tokens defined in both engines.

    Scale shape: identical to ``doc_lm_scores`` (the open-vocabulary
    path): each occurrence row carries a target-doc flag, so the corpus is
    tokenized exactly once, one token-hash exchange co-locates a token's
    occurrences (its row count is the source count, its flag sum the
    target count), and one doc-keyed exchange folds the partials.
    Nothing is broadcast; no driver state."""
    docs = _read_docs(sf_dir, ["doc_id", "text", "lang"])
    n_parts = joins.EXCHANGE_PARTS

    def emit(df: pd.DataFrame) -> pa.Table:
        toks_per = df["text"].str.strip().str.split()
        lens = toks_per.str.len().to_numpy(dtype=np.int64)
        flat = (np.concatenate(toks_per.to_numpy()) if int(lens.sum())
                else np.array([], object))
        return pa.table(
            {"key": pa.array(pd.util.hash_array(flat).view(np.int64)),
             "tok": pa.array(flat, pa.string()),
             "doc_id": pa.array(
                 np.repeat(df["doc_id"].to_numpy(np.int64), lens), pa.int64()),
             "is_t": pa.array(np.repeat(
                 (df["lang"] == target_lang).to_numpy(np.int64), lens))}
        )

    def attach(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        by_tok = df.groupby("tok", sort=False)["is_t"]
        c_s = by_tok.transform("size").to_numpy(np.int64)
        c_t = by_tok.transform("sum").to_numpy(np.int64)
        il_s = (np.frexp(c_s.astype(np.float64))[1] - 1).astype(np.int64)
        il_t = (np.frexp((c_t + 1).astype(np.float64))[1] - 1).astype(np.int64)
        agg = pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(np.int64), "w": il_t - il_s}
        ).groupby("doc_id", sort=False)["w"].sum()
        return pa.table(
            {"key": pa.array(agg.index.to_numpy(np.int64), pa.int64()),
             "w": pa.array(agg.to_numpy(np.int64), pa.int64())}
        )

    def finish(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array(df.index.to_numpy(np.int64), pa.int64()),
             "dsir_logweight": pa.array(df["w"].to_numpy(np.int64), pa.int64())}
        )

    partials = copartition(
        [docs.map_batches(emit, batch_format="pandas")], attach,
        pa.schema([("tok", pa.string()), ("doc_id", pa.int64()),
                   ("is_t", pa.int64())]),
        n_parts,
    )
    return _doc_sums(partials, docs, ["w"], finish, n_parts)


DOC_DSIR_WEIGHTS_SQL = r"""
WITH lists AS (
    SELECT doc_id, lang,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '') END AS tk
    FROM documents
),
toks AS (
    SELECT doc_id, lang, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
cs AS (SELECT tok, COUNT(*) AS c FROM toks GROUP BY tok),
ct AS (SELECT tok, COUNT(*) AS c FROM toks WHERE lang = 'en' GROUP BY tok),
sc AS (
    SELECT t.doc_id,
           SUM( (length(printf('%b', COALESCE(ct.c, 0) + 1)) - 1)
              - (length(printf('%b', cs.c)) - 1) )::BIGINT AS w
    FROM toks t JOIN cs USING (tok) LEFT JOIN ct USING (tok)
    GROUP BY t.doc_id
)
SELECT l.doc_id, COALESCE(sc.w, 0)::BIGINT AS dsir_logweight
FROM lists l LEFT JOIN sc USING (doc_id)
"""


def dsir_sample_docs(sf_dir: str, k: int = 200) -> rd.Dataset:
    """The RESAMPLE step of DSIR, deterministic variant: the top-``k``
    docs by (dsir_logweight DESC, doc_id) — greedy importance selection
    (the stochastic Gumbel draw is one seeded key away; determinism keeps
    the exact oracle). Per-block bounded top-k partials, one ≤ k×blocks
    fold — the global winner set is a subset of the per-block winners."""
    w = doc_dsir_weights(sf_dir)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["dsir_logweight", "doc_id"], ascending=[False, True],
            kind="mergesort",
        ).head(k)

    return w.map_batches(topk, batch_format="pandas").repartition(1).map_batches(
        topk, batch_format="pandas", batch_size=None
    )


def dsir_sample_docs_sql(k: int = 200) -> str:
    return (
        DOC_DSIR_WEIGHTS_SQL
        + f" ORDER BY dsir_logweight DESC, doc_id LIMIT {k}"
    )


# --------------------------------------------------------------------------
# Distributed classifier TRAINING (the other half of the model archetype:
# doc_classifier_scores is inference; this trains the weights on-engine)
# --------------------------------------------------------------------------


def _hashed_counts(texts: pd.Series, dim: int) -> "list[tuple]":
    """Per-doc (feature_ids, counts) over the hashing trick, PLUS a
    constant bias feature at index ``dim`` — shared by the distributed
    trainer and the single-node numpy reference so bit-equality is about
    the DISTRIBUTED arithmetic, not tokenizer drift."""
    from crawler_ray.functions.hashing import stable_hash_u64

    bias_id = np.array([dim], np.int64)
    one = np.array([1], np.int64)
    out = []
    for txt in texts:
        toks = txt.split()
        if not toks:
            out.append((bias_id, one))
            continue
        f = np.fromiter(
            (stable_hash_u64(t) % dim for t in toks), np.int64, len(toks)
        )
        ids, cnt = np.unique(f, return_counts=True)
        out.append(
            (np.append(ids, bias_id), np.append(cnt.astype(np.int64), one))
        )
    return out


def _lr_step_partial(
    ids_cnt: "list[tuple]", ys: np.ndarray, w: np.ndarray, dim: int,
    w_scale: int,
) -> np.ndarray:
    """Exact int64 gradient partial for one batch under weights ``w``:
    per-doc float sigmoid (deterministic — no cross-doc accumulation),
    error quantized to int64 BEFORE the sum so the fold is
    order-independent."""
    grad = np.zeros(dim, np.int64)
    for (ids, cnt), y in zip(ids_cnt, ys):
        if len(ids) == 0:
            continue
        margin = float((w[ids] * cnt).sum()) / w_scale
        p = 1.0 / (1.0 + np.exp(-margin))
        e = np.int64(np.floor((p - float(y)) * w_scale))
        grad[ids] += e * cnt
    return grad


def train_doc_classifier(
    sf_dir: str,
    dim: int = 256,
    n_iters: int = 10,
    lr_num: int = 1,
    lr_den: int = 8,
    label_lang: str = "en",
) -> pd.DataFrame:
    """Train a hashing-trick logistic-regression language classifier
    (y = lang == ``label_lang``) by distributed FULL-BATCH gradient
    descent — the model-TRAINING archetype (fastText-style quality/lang
    classifiers are trained on the corpus engine before they gate it).

    Superstep shape (the ``embedding_kmeans`` pattern): weights broadcast
    once per round via ``ray.put``; each batch computes per-doc sigmoid
    errors, quantizes them to int64 (2^16 fixed point) and emits a DENSE
    ``(dim+1)``-length int64 gradient partial (the last slot is the bias);
    the driver folds O(dim × blocks) slim rows and applies
    ``w ← w − (grad · lr_num) // (n_docs · lr_den)``. Every fold is
    integer, so the result is BIT-IDENTICAL to the single-node numpy
    reference at any batch split (asserted in tests), and R rounds =
    R corpus scans with zero shuffles. Driver state is O(dim).

    Returns (feature, weight_scaled, weight) — weight = weight_scaled/2^16;
    feature ``dim`` is the bias. Rows-only driver check (iterative model
    training has no SQL twin); learning behavior (loss decrease, planted
    separable corpus driven to high accuracy) is asserted in tests on a
    PLANTED fixture — the driver corpus's lang signal is deliberately weak
    (it exists to exercise the lang-id heuristic, not to be separable)."""
    import pyarrow.parquet as pq
    import ray as _ray

    W_SCALE = 1 << 16

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    docs = _read_docs(sf_dir, ["doc_id", "text", "lang"])
    w = np.zeros(dim + 1, np.int64)

    # featurize ONCE: tokenize+hash is the per-superstep hot spot, and the
    # features never change across iterations — materialize the slim
    # (ids, counts, y) table and let the R supersteps scan THAT instead of
    # re-tokenizing the corpus R times (measured 4.5 s → ~1.5 s at sf0.1)
    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        ic = _hashed_counts(df["text"], dim)
        return pd.DataFrame(
            {
                "ids": [i for i, _ in ic],
                "cnts": [c for _, c in ic],
                "y": (df["lang"] == label_lang).to_numpy(np.int64),
            }
        )

    feats = docs.map_batches(featurize, batch_format="pandas").materialize()

    def make_partial(w_ref):
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            cur = _ray.get(w_ref) if isinstance(w_ref, _ray.ObjectRef) else w_ref
            ic = list(zip(df["ids"], df["cnts"]))
            ys = df["y"].to_numpy(np.int64)
            grad = _lr_step_partial(ic, ys, cur, dim + 1, W_SCALE)
            return pd.DataFrame(
                {"feature": np.arange(dim + 1, dtype=np.int64), "g": grad}
            )

        return partial

    for _ in range(n_iters):
        ref = _ray.put(w)
        aggdf = feats.map_batches(
            make_partial(ref), batch_format="pandas"
        ).to_pandas()  # dim rows per block — O(dim × blocks) driver fold
        grad = np.zeros(dim + 1, np.int64)
        if not aggdf.empty:  # empty corpus: zero gradient, weights stay 0
            agg = aggdf.groupby("feature", sort=True)["g"].sum()
            grad[agg.index.to_numpy(np.int64)] = agg.to_numpy(np.int64)
        w = w - (grad * np.int64(lr_num)) // (
            np.int64(max(1, n_docs)) * np.int64(lr_den)
        )

    return pd.DataFrame(
        {
            "feature": np.arange(dim + 1, dtype=np.int64),
            "weight_scaled": w,
            "weight": w / float(W_SCALE),
        }
    )


def train_doc_classifier_reference(
    texts: pd.Series,
    labels: np.ndarray,
    dim: int = 256,
    n_iters: int = 10,
    lr_num: int = 1,
    lr_den: int = 8,
) -> np.ndarray:
    """Single-node numpy reference: IDENTICAL arithmetic to the distributed
    trainer (shared featurizer + per-doc quantized errors + integer
    update), one process, one loop. Tests assert bit-equality."""
    W_SCALE = 1 << 16
    ic = _hashed_counts(texts, dim)
    ys = np.asarray(labels, np.int64)
    n = len(texts)
    w = np.zeros(dim + 1, np.int64)
    for _ in range(n_iters):
        grad = _lr_step_partial(ic, ys, w, dim + 1, W_SCALE)
        w = w - (grad * np.int64(lr_num)) // (np.int64(n) * np.int64(lr_den))
    return w


# --------------------------------------------------------------------------
# BPE tokenizer TRAINING (Sennrich et al. 2016) — learn merge rules on the
# engine; the tokenizer-side twin of train_doc_classifier
# --------------------------------------------------------------------------


def _bpe_reference(word_counts: dict, n_merges: int) -> list[tuple]:
    """Single-node reference: identical argmax/tie rules to the
    distributed trainer; tests assert the merge lists are equal."""
    syms = {w: tuple(w) + ("</w>",) for w in word_counts}
    merges = []
    for _ in range(n_merges):
        pairs: dict = {}
        for w, cnt in word_counts.items():
            s = syms[w]
            for a, b in zip(s, s[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + cnt
        if not pairs:
            break
        # deterministic: max count, ties to the lexicographically smallest
        best = min(pairs, key=lambda p: (-pairs[p], p))
        merges.append((best[0], best[1], pairs[best]))
        la, lb = best
        fused = la + lb
        for w, s in syms.items():
            if la not in s:
                continue
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == la and s[i + 1] == lb:
                    out.append(fused)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[w] = tuple(out)
    return merges


def bpe_learn_merges(sf_dir: str, n_merges: int = 12) -> pd.DataFrame:
    """Learn ``n_merges`` BPE merge rules over the corpus (character-level
    with an explicit ``</w>`` end-of-word symbol — Sennrich et al. 2016)
    — tokenizer training as an engine pipeline.

    Scale shape: BPE statistics live on the DISTINCT-WORD table, not the
    corpus — pass 1 folds (word, count) with per-block combiners through
    one word exchange (``EXCHANGE_PARTS`` partitions: the word count has
    no footer bound; corpus-size-independent afterwards; for web text
    the word vocab is orders of magnitude smaller than the corpus). Each
    merge round is one map_batches over the symbolized vocab emitting
    per-block (pair, weighted-count) partials — only O(pairs × blocks)
    slim rows reach the driver fold — followed by a broadcast merge apply;
    the vocab table re-materializes between rounds (the kmeans/pagerank
    superstep pattern). Deterministic: ties break to the lexicographically
    smallest pair, so re-runs, any block split, and the single-node
    reference produce the IDENTICAL merge list (asserted in tests).

    Returns (rank, left, right, pair_count). Rows-only driver check
    (iterative, no SQL twin)."""
    import ray as _ray

    docs = _read_docs(sf_dir, ["text"])

    def word_partial(df: pd.DataFrame) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt in df["text"]:
            c.update(txt.split())
        w = np.array(list(c.keys()), object)
        return pa.table(
            {"key": pa.array(pd.util.hash_array(w).view(np.int64)),
             "word": pa.array(w, pa.string()),
             "n_p": pa.array(np.fromiter(c.values(), np.int64, len(c)))}
        )

    def word_fold(g: pa.Table) -> pd.DataFrame:
        out = g.to_pandas().groupby("word", sort=False)["n_p"].sum().reset_index()
        syms = [list(w) + ["</w>"] for w in out["word"]]
        return pd.DataFrame(
            {"count": out["n_p"].to_numpy(np.int64), "syms": syms}
        )

    vocab = copartition(
        [docs.map_batches(word_partial, batch_format="pandas")], word_fold,
        pa.schema([("word", pa.string()), ("n_p", pa.int64())]),
        joins.EXCHANGE_PARTS,
    ).materialize()

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        pairs: dict = {}
        for cnt, s in zip(df["count"], df["syms"]):
            for a, b in zip(s, s[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + int(cnt)
        if not pairs:
            return pd.DataFrame({"a": [], "b": [], "c": []})
        ks = list(pairs.keys())
        return pd.DataFrame(
            {
                "a": [k[0] for k in ks],
                "b": [k[1] for k in ks],
                "c": np.fromiter(pairs.values(), np.int64),
            }
        )

    def make_apply(la: str, lb: str):
        fused = la + lb

        def apply(df: pd.DataFrame) -> pd.DataFrame:
            new_syms = []
            for s in df["syms"]:
                s = list(s)
                if la not in s:
                    new_syms.append(s)
                    continue
                out, i = [], 0
                while i < len(s):
                    if i + 1 < len(s) and s[i] == la and s[i + 1] == lb:
                        out.append(fused)
                        i += 2
                    else:
                        out.append(s[i])
                        i += 1
                new_syms.append(out)
            return pd.DataFrame(
                {"count": df["count"].to_numpy(np.int64), "syms": new_syms}
            )

        return apply

    merges = []
    for rank in range(n_merges):
        agg = (
            vocab.map_batches(pair_partial, batch_format="pandas")
            .to_pandas()  # O(distinct pairs × blocks) slim rows
        )
        if agg.empty:
            break
        folded = agg.groupby(["a", "b"], sort=False)["c"].sum().reset_index()
        order = folded.sort_values(
            ["c", "a", "b"], ascending=[False, True, True], kind="mergesort"
        )
        best = order.iloc[0]
        merges.append((rank, str(best["a"]), str(best["b"]), int(best["c"])))
        vocab = vocab.map_batches(
            make_apply(str(best["a"]), str(best["b"])), batch_format="pandas"
        ).materialize()

    return pd.DataFrame(
        merges, columns=["rank", "left", "right", "pair_count"]
    ).astype({"rank": "int64", "pair_count": "int64"})


# --------------------------------------------------------------------------
# BM25 full-text search (top-k documents for a term query)
# --------------------------------------------------------------------------


_BM25_STATS_ROW = "\x00__stats__"


class _Bm25Scorer:
    """Per-batch BM25 scoring against a fixed query-term table.

    The score is EXACT integer fixed point so both engines agree bit-for-bit:
    with k1 = 6/5 and b = 3/4 and integer ``avgdl`` (= total_tokens // n_docs),
    the per-term Okapi contribution

        idf · (k1+1)·tf / (tf + k1·(1 − b + b·dl/avgdl))

    becomes  ``idf_fp · 44 · avgdl · tf  //  (20·avgdl·tf + 6·avgdl + 18·dl)``
    with ``idf_fp = (N·10^6) // df`` (the same integer-ratio IDF as
    ``doc_top_tfidf``; monotone in the log IDF, so ranking-equivalent for a
    fixed N). All operands are int64; the caller asserts the overflow
    envelope before broadcasting the constants.
    """

    def __init__(self, terms: list[str], idf_fp: list[int], avgdl: int, k: int):
        self.terms = np.array(terms, dtype=object)
        self.idf = {t: int(v) for t, v in zip(terms, idf_fp)}
        self.avgdl = int(avgdl)
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "n_terms_matched": pd.Series([], dtype=np.int64),
                "dl": pd.Series([], dtype=np.int64),
                "score_fp": pd.Series([], dtype=np.int64),
            }
        )
        if not len(df):
            return empty
        s = df["text"].str.strip().str.lower().str.split()
        dl = s.str.len().to_numpy(dtype=np.int64)
        if not dl.sum():
            return empty
        doc = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), dl)
        toks = np.concatenate(s.to_numpy())
        hit = np.isin(toks, self.terms)
        if not hit.any():
            return empty
        tf = (
            pd.DataFrame({"doc_id": doc[hit], "term": toks[hit]})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        dl_map = pd.Series(dl, index=df["doc_id"].to_numpy(dtype=np.int64))
        d = dl_map.loc[tf["doc_id"]].to_numpy(dtype=np.int64)
        t = tf["tf"].to_numpy(dtype=np.int64)
        idf = tf["term"].map(self.idf).to_numpy(dtype=np.int64)
        a = self.avgdl
        contrib = (idf * 44 * a * t) // (20 * a * t + 6 * a + 18 * d)
        tf["c"] = contrib
        tf["dl"] = d
        out = (
            tf.groupby("doc_id", sort=False)
            .agg(
                n_terms_matched=("term", "size"),
                dl=("dl", "min"),
                score_fp=("c", "sum"),
            )
            .reset_index()
            .astype(
                {"n_terms_matched": np.int64, "dl": np.int64, "score_fp": np.int64}
            )
        )
        # per-batch partial top-k keeps the final exchange O(k × blocks)
        out = out.sort_values(
            ["score_fp", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(self.k)
        return out.reset_index(drop=True)


def bm25_search(
    sf_dir: str, query: str = "hash join vector", k: int = 10
) -> rd.Dataset:
    """Okapi BM25 top-k document search — the classic web-search ranking
    operator over the crawl's document corpus.

    Two streaming passes, no inverted index needed for one-shot queries
    (``token_postings`` is the persisted-index path):

    1. **Stats pass** — per batch, a slim partial table: per-query-term
       document frequency (distinct docs in batch — doc rows are whole) plus
       one row carrying the batch token count and max doc length. The driver
       folds O((q+1) × blocks) rows — query-sized, never corpus-sized.
    2. **Score pass** — a task-mode ``_Bm25Scorer`` instance carries the
       tiny (term → idf_fp) map, ``avgdl`` and ``k`` in the pickled
       callable (no actor pool is started per call); each batch tokenizes,
       computes tf for query terms only, scores in exact int64 fixed point
       (see ``_Bm25Scorer``), and emits its LOCAL top-k, so the final
       sort+limit exchange moves O(k × blocks) rows.

    Ranking ties break on doc_id ascending in both engines, so the top-k SET
    is deterministic. The int64 overflow envelope
    ``idf_max · 44 · avgdl · dl_max < 2^63`` is asserted from the measured
    stats (holds to ≈20× the sf0.1 corpus; beyond that, raise the fixed-point
    scale down or split hi/lo like ``lineitem_qty_price_corr``)."""
    import pyarrow.parquet as pq_

    terms = sorted(set(query.strip().lower().split()))
    if not terms:
        raise ValueError("empty query")
    tarr = np.array(terms, dtype=object)

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def stats_partial(df: pd.DataFrame) -> pa.Table:
        s = df["text"].str.strip().str.lower().str.split()
        dl = s.str.len().to_numpy(dtype=np.int64)
        names = [_BM25_STATS_ROW]
        dfp = [0]
        if dl.sum():
            doc = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), dl)
            toks = np.concatenate(s.to_numpy())
            hit = np.isin(toks, tarr)
            if hit.any():
                dd = (
                    pd.DataFrame({"d": doc[hit], "t": toks[hit]})
                    .drop_duplicates()
                    .groupby("t", sort=False)
                    .size()
                )
                names += list(dd.index)
                dfp += [int(v) for v in dd.to_numpy()]
        n = len(names)
        return pa.table(
            {
                "term": pa.array(names, pa.string()),
                "df_p": pa.array(dfp, pa.int64()),
                "t_p": pa.array([int(dl.sum())] + [0] * (n - 1), pa.int64()),
                "dlmax_p": pa.array(
                    [int(dl.max()) if len(dl) else 0] + [0] * (n - 1), pa.int64()
                ),
            }
        )

    partials = docs.map_batches(stats_partial, batch_format="pandas").to_pandas()
    n_docs = pq_.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    if partials.empty:  # empty corpus: re-type the schema Ray dropped
        partials = pd.DataFrame(
            {"term": pd.Series([], dtype=object),
             "df_p": pd.Series([], dtype=np.int64),
             "t_p": pd.Series([], dtype=np.int64),
             "dlmax_p": pd.Series([], dtype=np.int64)}
        )
    total_tokens = int(partials["t_p"].sum())
    dl_max = int(partials["dlmax_p"].max()) if len(partials) else 0
    df_by_term = partials.groupby("term")["df_p"].sum()
    avgdl = max(1, total_tokens // max(1, n_docs))

    live_terms, idf_fp = [], []
    for t in terms:
        dfv = int(df_by_term.get(t, 0))
        if dfv > 0:  # absent terms contribute nothing; skip (guards div-by-0)
            live_terms.append(t)
            idf_fp.append((n_docs * 1_000_000) // dfv)
    if not live_terms:  # no query term occurs in the corpus: a TYPED empty
        # (a zero-hit scan would return a schema-less dataset — the driver's
        # schema compare would flag columns, not values)
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "n_terms_matched": pd.Series([], dtype=np.int64),
             "dl": pd.Series([], dtype=np.int64),
             "score_fp": pd.Series([], dtype=np.int64)}
        )
    if live_terms:
        worst = max(idf_fp) * 44 * avgdl * max(1, dl_max)
        if worst >= 2**63:  # pragma: no cover - ~20x-sf0.1 envelope
            raise ValueError(
                f"BM25 int64 envelope exceeded (worst={worst:.3g}); lower the "
                "idf fixed-point scale or split hi/lo"
            )
    return docs.map_batches(
        _Bm25Scorer(live_terms, idf_fp, avgdl, k), batch_format="pandas"
    ).sort(["score_fp", "doc_id"], descending=[True, False]).limit(k)


def bm25_search_sql(query: str = "hash join vector", k: int = 10) -> str:
    terms = sorted(set(query.strip().lower().split()))
    qlist = ", ".join("('" + t.replace("'", "''") + "')" for t in terms)
    return rf"""
WITH q(term) AS (VALUES {qlist}),
toks AS (
    SELECT doc_id, unnest(list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS term
    FROM documents WHERE trim(text) <> ''
),
dl AS (SELECT doc_id, COUNT(*)::BIGINT AS dl FROM toks GROUP BY 1),
n AS (SELECT COUNT(*)::BIGINT AS n FROM documents),
tt AS (SELECT COUNT(*)::BIGINT AS t FROM toks),
avg AS (SELECT GREATEST(1, tt.t // GREATEST(1, n.n)) AS avgdl FROM tt, n),
dfq AS (
    SELECT term, COUNT(DISTINCT doc_id)::BIGINT AS df FROM toks
    WHERE term IN (SELECT term FROM q) GROUP BY 1
),
tf AS (
    SELECT doc_id, term, COUNT(*)::BIGINT AS tf FROM toks
    WHERE term IN (SELECT term FROM q) GROUP BY 1, 2
),
sc AS (
    SELECT tf.doc_id,
           COUNT(*)::BIGINT AS n_terms_matched,
           MIN(dl.dl)::BIGINT AS dl,
           SUM( (((n.n * 1000000) // dfq.df) * 44 * avg.avgdl * tf.tf)
                // (20*avg.avgdl*tf.tf + 6*avg.avgdl + 18*dl.dl) )::BIGINT
               AS score_fp
    FROM tf
    JOIN dfq USING (term)
    JOIN dl USING (doc_id)
    CROSS JOIN n CROSS JOIN avg
    GROUP BY 1
)
SELECT doc_id, n_terms_matched, dl, score_fp
FROM sc
ORDER BY score_fp DESC, doc_id
LIMIT {k}
"""


# --------------------------------------------------------------------------
# Fuzzy vocabulary join: edit-distance-1 word pairs (typo detection)
# --------------------------------------------------------------------------


def _lev_le1(a: str, b: str) -> bool:
    """Exact levenshtein(a, b) <= 1 for DISTINCT a != b, O(len) early-exit."""
    la, lb = len(a), len(b)
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    # b is a with ONE insertion iff dropping b's first mismatch char equals a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return b[i + 1:] == a[i:]


def _edit1_pairs(words: rd.Dataset) -> rd.Dataset:
    """All edit-distance-1 pairs over a (word:string, n:int64) dataset via
    POSITION-AWARE FastSS deletion-neighborhood LSH. Bucket key is
    (variant, deletion_position); each word emits its single-deletion
    variants keyed by position PLUS len+1 replicas of itself (one per
    position, covering the insertion case). Within a bucket every
    cross-word pair is PROVABLY lev <= 1 — two words sharing del_i are
    equal everywhere but position i (substitution), and an identity
    replica meeting del_i(b) == a is one insertion — so there is NO string
    verification step at all, and candidate volume equals true-pair volume
    (completeness: an equal-length lev-1 pair differs at exactly one
    position i and co-buckets at (del_i, i); a length±1 pair co-buckets at
    (shorter word, deleted position)).

    Everything here is WORD-TABLE-sized: ~2·(len+1) variant rows per word
    and ONE coarse bucket-hash exchange (``EXCHANGE_PARTS`` partitions:
    the word table has no footer row count) feeding vectorized segment
    walks.
    An insertion pair meets at every deletion position of the inserted
    char's equal-char run; the canonical-position rule inside the walk
    (keep only the run's FIRST position) makes every emitted pair GLOBALLY
    unique, so there is no pair-dedup exchange at all. The ``n`` payload
    rides along unchanged. Output columns: (word_a, word_b, n_a, n_b),
    with word_a < word_b."""
    from crawler_ray.pipelines.reports import _segment_pair_chunks

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        ws_in = df["word"].astype(str).to_numpy(dtype=object)
        ns = df["n"].to_numpy(dtype=np.int64)
        vs, ps, ws, vn = [], [], [], []
        for w, n in zip(ws_in, ns):  # word-table-sized, not corpus-sized
            L = len(w)
            for i in range(L):
                vs.append(w[:i] + w[i + 1:])  # deletion at i
                ps.append(i)
                ws.append(w)
                vn.append(n)
            for i in range(L + 1):  # identity replicas (insertion case)
                vs.append(w)
                ps.append(i)
                ws.append(w)
                vn.append(n)
        out = pd.DataFrame(
            {"variant": vs, "pos": np.asarray(ps, np.int64), "word": ws,
             "n": np.asarray(vn, np.int64)}
        )
        out["key"] = (
            pd.util.hash_array(out["variant"].to_numpy(dtype=object))
            ^ pd.util.hash_array(out["pos"].to_numpy())
        ).view(np.int64)
        return out

    def walk(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(["variant", "pos", "word"], kind="mergesort")
        v = g["variant"].to_numpy(dtype=object)
        p = g["pos"].to_numpy(dtype=np.int64)
        w = g["word"].to_numpy(dtype=object)
        n = g["n"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, (v[1:] != v[:-1]) | (p[1:] != p[:-1])])
        sizes = np.diff(np.r_[starts, len(v)])
        outs = []
        for ai, bi in _segment_pair_chunks(starts, sizes, 1 << 18):
            A, B = w[ai], w[bi]
            keep = A != B  # identity×identity of the same word
            if not keep.any():
                continue
            A, B = A[keep], B[keep]
            na, nb, pp = n[ai][keep], n[bi][keep], p[ai][keep]
            # CANONICAL-POSITION rule (pairs leave globally unique — no
            # pair-dedup exchange): substitution pairs (equal length) meet
            # in exactly one bucket; an insertion pair meets at every
            # deletion position of the equal-char run, and
            # del_{p-1}(b) == del_p(b) ⟺ b[p-1] == b[p], so keeping only
            # p == 0 or b[p-1] != b[p] keeps exactly the run's first
            # position. Per-pair O(1); volume is true pairs only.
            canon = np.fromiter(
                (
                    len(x) == len(y)
                    or (q == 0 or (y if len(y) > len(x) else x)[q - 1]
                        != (y if len(y) > len(x) else x)[q])
                    for x, y, q in zip(A, B, pp)
                ),
                dtype=bool,
                count=len(A),
            )
            if not canon.any():
                continue
            A, B, na, nb = A[canon], B[canon], na[canon], nb[canon]
            swap = A > B
            outs.append(
                pd.DataFrame(
                    {
                        "word_a": np.where(swap, B, A),
                        "word_b": np.where(swap, A, B),
                        "n_a": np.where(swap, nb, na),
                        "n_b": np.where(swap, na, nb),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "word_a": pd.Series([], dtype=object),
                    "word_b": pd.Series([], dtype=object),
                    "n_a": pd.Series([], dtype=np.int64),
                    "n_b": pd.Series([], dtype=np.int64),
                }
            )
        out = pd.concat(outs)
        return out.astype({"n_a": np.int64, "n_b": np.int64})

    return copartition(
        [words.map_batches(variants, batch_format="pandas")], walk,
        pa.schema([("variant", pa.string()), ("pos", pa.int64()),
                   ("word", pa.string()), ("n", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )


def typo_word_pairs(sf_dir: str) -> pd.DataFrame:
    """Edit-distance-1 word pairs over the corpus vocabulary — the fuzzy/
    typo join of text cleaning (OCR noise, misspelling normalization),
    built on the FastSS deletion-neighborhood engine (``_edit1_pairs``)
    instead of a quadratic all-pairs scan.

    Scale shape: the corpus-sized work is the distinct-word combiner (one
    word exchange, one row per distinct token per batch); everything after
    is VOCABULARY-sized. Word counts ride along so the report can rank
    typo candidates by frequency asymmetry (rare word ~1 edit from a
    frequent word ⟹ likely misspelling). Returned as a typed pandas
    DataFrame — the pair table is vocabulary-sized by construction, and
    ``Dataset.to_pandas()`` loses the column schema on an empty result
    (a clean corpus legitimately has zero typo pairs)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = _read_docs(sf_dir, ["text"])

    def partial(df: pd.DataFrame) -> pa.Table:
        c: Counter = Counter()
        for txt in df["text"]:
            c.update(txt.strip().lower().split())
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "n_p": pa.array(list(c.values()), pa.int64()),
            }
        )

    vocab = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("word")
        .aggregate(Sum("n_p", alias_name="n"))
    )
    df = _edit1_pairs(vocab).to_pandas()
    if not len(df.columns):  # Ray drops the schema of an all-empty Dataset
        df = pd.DataFrame(
            {
                "word_a": pd.Series([], dtype=object),
                "word_b": pd.Series([], dtype=object),
                "n_a": pd.Series([], dtype=np.int64),
                "n_b": pd.Series([], dtype=np.int64),
            }
        )
    return df.reset_index(drop=True)


def fuzzy_name_pairs(sf_dir: str) -> rd.Dataset:
    """Entity-resolution fuzzy join: customer-name pairs within edit
    distance 1 — the record-linkage verb (near-identical entity names are
    merge candidates), on the same FastSS deletion-neighborhood engine.
    Names are unique, so the payload is the entity key and the output is
    (custkey_a, custkey_b, name_a, name_b) with name_a < name_b.

    The DuckDB twin is deliberately a DIFFERENT algorithm: equal-length
    zero-padded numeric names are distance 1 iff they differ by d·10^p
    without a decimal carry, so it generates the 81 linear candidate
    offsets per key and verifies each with ``levenshtein() = 1`` — sound
    (every candidate is verified) and complete (one substitution at digit
    position p IS a ±d·10^p difference), giving an independent
    linear-time oracle for the LSH engine."""
    from crawler_ray.sources.io import read_parquet_sized

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(
        lambda t: pa.table(
            {"word": t["c_name"], "n": pc.cast(t["c_custkey"], pa.int64())}
        ),
        batch_format="pyarrow",
    )
    pairs = _edit1_pairs(cust)
    return pairs.map_batches(
        lambda df: pd.DataFrame(
            {
                "custkey_a": df["n_a"].astype(np.int64),
                "custkey_b": df["n_b"].astype(np.int64),
                "name_a": df["word_a"],
                "name_b": df["word_b"],
            }
        ),
        batch_format="pandas",
    )


FUZZY_NAME_PAIRS_SQL = """
WITH d(d) AS (VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9)),
p(p) AS (VALUES (1),(10),(100),(1000),(10000),(100000),(1000000),
                (10000000),(100000000)),
c AS (SELECT c_custkey AS k, c_name AS name FROM customer),
cand AS MATERIALIZED (
    -- materialized so the probe is a hash join, not a nested loop over
    -- the computed key
    SELECT c.k AS ka, c.name AS name_a, c.k + d.d * p.p AS kb
    FROM c CROSS JOIN d CROSS JOIN p
)
SELECT cand.ka AS custkey_a, b.k AS custkey_b,
       cand.name_a AS name_a, b.name AS name_b
FROM cand JOIN c b ON b.k = cand.kb
WHERE levenshtein(cand.name_a, b.name) = 1
"""


# edit distance 1 expressed in CODEPOINTS via one-substitution /
# one-deletion EXISTS checks over codepoint-aware substr — DuckDB's
# levenshtein() counts BYTES, so levenshtein('😀','😀🚀') = 4 while the
# engine's deletion-neighborhood proof (and any text-sane definition)
# says 1 (caught by the adversarial-corpus sweep)
TYPO_WORD_PAIRS_SQL = r"""
WITH toks AS (
    SELECT unnest(list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) AS word
    FROM documents WHERE trim(text) <> ''
),
v AS (SELECT word, COUNT(*)::BIGINT AS n FROM toks GROUP BY 1),
pos AS (SELECT unnest(generate_series(
            1, (SELECT COALESCE(MAX(length(word)), 0) + 1 FROM v)))::INT AS i)
SELECT a.word AS word_a, b.word AS word_b, a.n AS n_a, b.n AS n_b
FROM v a JOIN v b
  ON a.word < b.word
 AND abs(length(a.word) - length(b.word)) <= 1
 AND (
   (length(a.word) = length(b.word) AND EXISTS (
       SELECT 1 FROM pos
       WHERE pos.i <= length(a.word)
         AND substr(a.word, 1, pos.i - 1) = substr(b.word, 1, pos.i - 1)
         AND substr(a.word, pos.i + 1) = substr(b.word, pos.i + 1)
         AND substr(a.word, pos.i, 1) != substr(b.word, pos.i, 1)))
   OR (length(a.word) + 1 = length(b.word) AND EXISTS (
       SELECT 1 FROM pos
       WHERE pos.i <= length(b.word)
         AND substr(b.word, 1, pos.i - 1) || substr(b.word, pos.i + 1) = a.word))
   OR (length(b.word) + 1 = length(a.word) AND EXISTS (
       SELECT 1 FROM pos
       WHERE pos.i <= length(a.word)
         AND substr(a.word, 1, pos.i - 1) || substr(a.word, pos.i + 1) = b.word))
 )
"""
