"""Similarity search over the ``embeddings`` table (``embedding:
list<float>``): brute-force cosine top-k (exact baseline), all-pairs near-dup
(exact, blocked), and an LSH-bucketed approximate variant (the scale path).

Pattern: the query matrix / full embedding matrix is broadcast once with
``ray.put``; every batch does one numpy matmul against it (vectorized, no
per-row Python). The LSH variant replaces the O(n·N) scan with per-bucket
scans — recall measured in tests/test_similarity.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from crawler_ray.functions.rounding import round_np
from crawler_ray.pipelines import joins
from crawler_ray.pipelines.joins import copartition


def _read_emb(sf_dir: str) -> rd.Dataset:
    from crawler_ray.sources.io import read_parquet_sized

    return read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _stack(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy()
    mat = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    return ids, mat


def _empty_topk() -> rd.Dataset:
    """Typed empty (vec_id, cos_sim) — the total answer for an empty corpus
    or an absent query id (building/probing an index of nothing would crash
    on the first np.stack; see tests/test_empty_corpus.py)."""
    return rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "cos_sim": pa.array([], pa.float64())})
    )


def _query_vec(sf_dir: str, query_vec_id: int) -> np.ndarray | None:
    """The query embedding by FILTERED footer-pruned read, or None when the
    corpus is empty / the id is absent."""
    if pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows == 0:
        return None
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", query_vec_id)],
    )
    if qt.num_rows == 0:
        return None
    return np.asarray(qt["embedding"].to_pylist()[0], dtype=np.float64)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


class CosineTopK:
    """Per-batch exact cosine vs the query vector, emitting only the
    batch-local top-k partial (the global top-k is a tiny final sort).
    Used as a task-mode INSTANCE: the state is one small unit vector, so
    shipping it inside the pickled callable beats paying an actor-pool
    spin-up per execution (measured: the pool start dominated these
    sub-second scans)."""

    def __init__(self, query, k: int):
        self.q = ray.get(query) if isinstance(query, ray.ObjectRef) else query
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _stack(batch)
        sims = _normalize(mat) @ self.q
        order = np.lexsort((ids, -sims))[: self.k]
        # carry the RAW similarity: the global top-k sort must order on it
        # (the SQL oracle orders by the raw value — two candidates whose
        # sims round to the same 4 dp could otherwise swap across the k
        # boundary); the reported cos_sim is rounded at the end
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "cos_sim": pa.array(round_np(sims[order], 4), pa.float64()),
                "raw_sim": pa.array(sims[order], pa.float64()),
            }
        )


def knn_brute_force(sf_dir: str, query_vec_id: int = 0, k: int = 20) -> rd.Dataset:
    """Exact top-k by cosine similarity to the embedding of ``query_vec_id``
    (excluded from results). Ties break on vec_id ascending."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", query_vec_id)],
    )
    if t.num_rows == 0:  # empty corpus / unknown query id: typed empty top-k
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})
        )
    q = np.asarray(t["embedding"].to_pylist()[0], dtype=np.float64)
    q = q / np.linalg.norm(q)

    ds = _read_emb(sf_dir).map_batches(
        lambda tb: tb.filter(pa.compute.not_equal(tb["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    )
    partials = ds.map_batches(CosineTopK(q, k), batch_format="pyarrow")
    return (
        partials.sort(["raw_sim", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "cos_sim"])
    )


def knn_sql(query_vec_id: int = 0, k: int = 20) -> str:
    return f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS embedding
           FROM embeddings WHERE vec_id = {query_vec_id})
SELECT e.vec_id,
       ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    q.embedding), 4) AS cos_sim
FROM embeddings e, q
WHERE e.vec_id != {query_vec_id}
ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                q.embedding) DESC, e.vec_id
LIMIT {k}
"""


# block-grid floor of the vector pair walks (``joins.pair_blocks``)
VECTOR_PAIR_BLOCKS = 8


def _emb_rows(sf_dir: str) -> int:
    return joins._footer_rows(f"{sf_dir}/embeddings.parquet")


def embedding_near_dup_pairs(sf_dir: str, threshold: float = 0.3) -> rd.Dataset:
    """All pairs with round(cosine, 3) ≥ threshold (round-then-threshold so
    the DuckDB oracle sees the identical boundary).

    EXACT all-pairs as a block-nested-loop SELF-JOIN (``joins.block_pairs``):
    vectors hash into B blocks (``VECTOR_PAIR_BLOCKS``, more once the
    footer rows pass ``joins.PAIR_BLOCK_ROWS`` per block); every unordered
    block pair (p ≤ q) is one fold holding both blocks' rows, where a
    single matmul scores the cross product. Each vector ships to exactly B
    folds — bounded replication instead of a full-corpus broadcast, no
    driver-side read, per-task memory 2·n/B vectors. (O(n²) WORK is
    inherent to the exact answer; ``ann_lsh_topk`` below is the
    sub-quadratic approximate path.) Every unordered vector pair lands in
    exactly one fold, so the output needs no dedup exchange."""
    out_schema = pa.schema(
        [("vec_a", pa.int64()), ("vec_b", pa.int64()), ("cos_sim", pa.float64())]
    )

    def score(g: pa.Table, left) -> pa.Table:
        ids, mat = _stack(g)
        mat = _normalize(mat)
        if left is None:
            order = np.argsort(ids)
            ids, mat = ids[order], mat[order]
            if len(ids) < 2:
                return out_schema.empty_table()
            sims = round_np((mat @ mat.T).ravel(), 3).reshape(len(ids), len(ids))
            ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
            return pa.table(
                [ids[ai], ids[bi], sims[ai, bi]], schema=out_schema)
        la, lm = ids[left], mat[left]
        ra, rm = ids[~left], mat[~left]
        sims = round_np((lm @ rm.T).ravel(), 3).reshape(len(la), len(ra))
        ai, bi = np.nonzero(sims >= threshold)
        a, b = la[ai], ra[bi]
        return pa.table(
            [np.minimum(a, b), np.maximum(a, b), sims[ai, bi]], schema=out_schema)

    return joins.block_pairs(
        _read_emb(sf_dir), "vec_id",
        joins.footer_schema(sf_dir, "embeddings", ["vec_id", "embedding"]),
        score, out_schema,
        joins.pair_blocks(_emb_rows(sf_dir), VECTOR_PAIR_BLOCKS),
    )


def embedding_near_dup_sql(threshold: float = 0.3) -> str:
    return f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 3) AS cos_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                   CAST(b.embedding AS DOUBLE[])), 3) >= {threshold}
"""


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (the 100-TB path; approximate → rows-only + recall test)


class LshSignStage:
    """Random-hyperplane signature (b bits) per embedding — bucket key.
    Task-mode instance: the plane matrix is (b, d) floats, small enough to
    ship in the pickled callable."""

    def __init__(self, planes):
        self.planes = ray.get(planes) if isinstance(planes, ray.ObjectRef) else planes

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _stack(batch)
        bits = (_normalize(mat) @ self.planes.T) > 0  # (n, b)
        sig = np.zeros(len(ids), dtype=np.int64)
        for j in range(bits.shape[1]):
            sig = (sig << 1) | bits[:, j].astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(sig, pa.int64()),
                "embedding": batch["embedding"],
            }
        )


def build_ann_index(
    sf_dir: str, index_dir: str, n_bits: int = 8, seed: int = 5
) -> int:
    """PERSISTED LSH index (the serving path `ann_lsh_topk` lacks: it
    recomputes bucketing per query). One distributed pass signs every
    embedding and writes a **bucket-partitioned parquet layout**
    (`bucket=<sig>/...` via ``partition_cols``); queries then read ONLY the
    probed partitions — sub-linear I/O per query with zero per-query
    signature work on the corpus. Hyperplanes derive deterministically from
    ``seed`` (data-independent), stored beside the data so any process can
    probe. Returns the number of indexed vectors."""
    import json
    import os

    rng = np.random.Generator(np.random.PCG64(seed))
    # peek dim from one row-group footer, not a full read
    first = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").read_row_group(
        0, columns=["embedding"]
    )
    d = len(first["embedding"][0])
    planes = rng.standard_normal((n_bits, d))
    ds = _read_emb(sf_dir).map_batches(
        LshSignStage(planes), batch_format="pyarrow"
    )
    os.makedirs(index_dir, exist_ok=True)
    ds.write_parquet(index_dir, partition_cols=["bucket"])
    np.save(os.path.join(index_dir, "planes.npy"), planes)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"n_bits": n_bits, "seed": seed, "dim": d}, f)
    return int(_read_emb(sf_dir).count())


def ann_query_indexed(
    index_dir: str, query_vec: np.ndarray, k: int = 10, hamming_probe: int = 2
) -> rd.Dataset:
    """Serve a top-k query from a ``build_ann_index`` layout: compute the
    query signature locally (n_bits dot products), enumerate the multi-probe
    bucket set (Hamming ≤ ``hamming_probe``), and ``read_parquet`` ONLY
    those partition directories — partition pruning at the read, nothing
    else of the corpus is touched."""
    import json
    import os

    planes = np.load(os.path.join(index_dir, "planes.npy"))
    with open(os.path.join(index_dir, "meta.json")) as f:
        n_bits = json.load(f)["n_bits"]
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / np.linalg.norm(q)
    qsig = 0
    for j in range(n_bits):
        qsig = (qsig << 1) | int((planes[j] @ q) > 0)
    probe = {qsig}
    if hamming_probe >= 1:
        probe |= {qsig ^ (1 << b) for b in range(n_bits)}
    if hamming_probe >= 2:
        probe |= {
            qsig ^ (1 << b1) ^ (1 << b2)
            for b1 in range(n_bits)
            for b2 in range(b1 + 1, n_bits)
        }
    # ray.data.read_parquet wants files when given a list — expand each
    # probed partition dir
    paths = []
    for b in sorted(probe):
        d = os.path.join(index_dir, f"bucket={b}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths:
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})
        )
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])
    partials = ds.map_batches(CosineTopK(q, k), batch_format="pyarrow")
    return (
        partials.sort(["raw_sim", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "cos_sim"])
    )


def ann_indexed_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10
) -> rd.Dataset:
    """Two-phase ANN serving: a persisted bucket-partitioned index (built
    ONCE per corpus, cached under /tmp, reused across queries AND
    processes) + partition-pruned probe reads per query. Rows-only driver
    check (approximate); index layout, coverage and recall asserted in
    tests/test_similarity.py::test_persisted_ann_index."""
    import os

    from crawler_ray.state.artifact_cache import (
        cache_dir,
        ensure_dir,
        source_fingerprint,
    )

    q = _query_vec(sf_dir, query_vec_id)
    if q is None:
        return _empty_topk()
    idx = ensure_dir(
        cache_dir("ann", os.path.abspath(sf_dir),
                  source_fingerprint(f"{sf_dir}/embeddings.parquet")),
        lambda stage: build_ann_index(sf_dir, stage),
    )
    res = ann_query_indexed(idx, q, k=k + 1)
    return res.map_batches(
        lambda tb: tb.filter(pa.compute.not_equal(tb["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    ).limit(k)


def _train_centroids(
    sample: np.ndarray, n_centroids: int, seed: int, n_iters: int = 10
) -> np.ndarray:
    """Deterministic Lloyd k-means on unit vectors (cosine == euclidean on
    the sphere). Trains on a BOUNDED sample — sample size is independent of
    corpus size, so the driver-side training cost does not grow with data."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sample = _normalize(sample)
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cents = sample[np.sort(idx)].copy()
    for _ in range(n_iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


class IvfAssignStage:
    """vector → nearest-centroid list id (one matmul per batch; centroids
    ship inside the pickled callable — small, corpus-independent state)."""

    def __init__(self, centroids: np.ndarray):
        self.cents = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _stack(batch)
        assign = np.argmax(_normalize(mat) @ self.cents.T, axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "list_id": pa.array(assign.astype(np.int64), pa.int64()),
                "embedding": batch["embedding"],
            }
        )


def build_ivf_index(
    sf_dir: str, index_dir: str, n_centroids: int = 32, seed: int = 5,
    train_sample: int = 2048,
) -> int:
    """IVF (inverted-file) ANN index — the k-means complement to the LSH
    index above: a coarse quantizer trained on a bounded sample partitions
    the corpus into ``n_centroids`` posting lists (``list_id=<c>/`` parquet
    partitions, one distributed assignment pass); queries score the
    centroids locally and read only the ``nprobe`` closest partitions.
    Unlike hyperplane LSH, the partitioning adapts to the data's cluster
    structure, so recall at equal probe fraction is typically higher.
    Centroids are stored beside the data so any process can probe."""
    import json
    import os

    # bounded training sample from the first row group(s) only
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    rows = []
    got = 0
    for g in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(g, columns=["embedding"])
        rows.append(np.stack(t["embedding"].to_numpy(zero_copy_only=False)))
        got += t.num_rows
        if got >= train_sample:
            break
    sample = np.concatenate(rows)[:train_sample].astype(np.float64)
    cents = _train_centroids(sample, n_centroids, seed)

    ds = _read_emb(sf_dir).map_batches(IvfAssignStage(cents), batch_format="pyarrow")
    os.makedirs(index_dir, exist_ok=True)
    ds.write_parquet(index_dir, partition_cols=["list_id"])
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"n_centroids": int(len(cents)), "seed": seed,
                   "dim": int(cents.shape[1])}, f)
    return int(_read_emb(sf_dir).count())


def ivf_query(
    index_dir: str, query_vec: np.ndarray, k: int = 10, nprobe: int = 4
) -> rd.Dataset:
    """Top-k from an IVF layout: rank centroids by cosine, read ONLY the
    ``nprobe`` best posting-list partitions (partition pruning at the
    read), brute-force cosine inside them."""
    import os

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / np.linalg.norm(q)
    order = np.argsort(-(cents @ q))[:nprobe]
    paths = []
    for c in order:
        d = os.path.join(index_dir, f"list_id={int(c)}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths:
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})
        )
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])
    partials = ds.map_batches(CosineTopK(q, k), batch_format="pyarrow")
    return (
        partials.sort(["raw_sim", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "cos_sim"])
    )


def ann_ivf_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10, nprobe: int = 4
) -> rd.Dataset:
    """IVF serving path (build-once cached index + partition-pruned probes),
    mirroring ann_indexed_topk's caching/publish protocol. Rows-only driver
    check (approximate); recall and layout asserted in tests."""
    import os

    from crawler_ray.state.artifact_cache import (
        cache_dir,
        ensure_dir,
        source_fingerprint,
    )

    q = _query_vec(sf_dir, query_vec_id)
    if q is None:
        return _empty_topk()
    idx = ensure_dir(
        cache_dir("ivf", os.path.abspath(sf_dir),
                  source_fingerprint(f"{sf_dir}/embeddings.parquet")),
        lambda stage: build_ivf_index(sf_dir, stage),
    )
    res = ivf_query(idx, q, k=k + 1, nprobe=nprobe)
    return res.map_batches(
        lambda tb: tb.filter(pa.compute.not_equal(tb["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    ).limit(k)


def ann_lsh_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10, n_bits: int = 8, seed: int = 5
) -> rd.Dataset:
    """Approximate top-k: scan only the query's LSH bucket (plus Hamming-1
    neighbor buckets) instead of the full corpus. Sub-linear per query at
    scale; recall vs brute force asserted in tests."""
    # dim from one row-group footer + a FILTERED read of the query row only —
    # never a whole-corpus driver read (round-2 VERDICT #3)
    q = _query_vec(sf_dir, query_vec_id)
    if q is None:
        return _empty_topk()
    d = len(q)
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.standard_normal((n_bits, d))
    q = q / np.linalg.norm(q)
    qsig = 0
    for j in range(n_bits):
        qsig = (qsig << 1) | int((planes[j] @ q) > 0)
    # multi-probe: the query bucket plus all buckets within Hamming ≤ 2
    # (for 8-bit signatures that is 37/256 buckets ≈ 14% of the corpus —
    # still sub-linear, with much better recall than single-bucket probing)
    probe = {qsig} | {qsig ^ (1 << b) for b in range(n_bits)}
    probe |= {
        qsig ^ (1 << b1) ^ (1 << b2)
        for b1 in range(n_bits)
        for b2 in range(b1 + 1, n_bits)
    }
    probe_arr = pa.array(sorted(probe), pa.int64())

    ds = _read_emb(sf_dir).map_batches(
        lambda tb: tb.filter(pa.compute.not_equal(tb["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    )
    bucketed = ds.map_batches(
        LshSignStage(planes), batch_format="pyarrow"
    ).map_batches(
        lambda tb: tb.filter(pa.compute.is_in(tb["bucket"], value_set=probe_arr)),
        batch_format="pyarrow",
    )
    partials = bucketed.map_batches(CosineTopK(q, k), batch_format="pyarrow")
    return (
        partials.sort(["raw_sim", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "cos_sim"])
    )


def embedding_label_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label embedding CENTROIDS — the vector-column aggregation
    archetype (k-means update step / class prototypes / SemDeDup cluster
    centers). Output is long-format (label, dim, centroid).

    Exactness: float sums are order-dependent, so partials are FIXED-POINT —
    floor(e * 2^20) int64 per element (scaling a float32 by a power of two
    is exact in double, and floor matches DuckDB's floor — unlike round,
    whose half-away-from-zero ties differ from numpy's half-to-even). The
    centroid is the same fx_sum / (n * 2^20) division on both sides, so the
    driver's exact hash compare holds at any block split.

    Shape: per-batch combiner sums the scaled matrix per label (one
    (labels x dims)-row partial per batch — corpus-independent); ONE
    (label, dim)-keyed ``copartition`` folds partials (``EXCHANGE_PARTS``
    partitions: the list column's width has no footer bound). No
    broadcasts, no driver math."""
    from crawler_ray.sources.io import read_parquet_sized

    ds = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"]
    )
    SCALE = float(1 << 20)

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.stack(
            batch["embedding"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        fx = np.floor(mat * SCALE).astype(np.int64)
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        dims = fx.shape[1]
        sums = np.zeros((len(uniq), dims), np.int64)
        np.add.at(sums, inv, fx)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        lab_col = np.repeat(uniq, dims)
        dim_col = np.tile(np.arange(dims, dtype=np.int64), len(uniq))
        return pa.table(
            {"key": pa.array(lab_col * dims + dim_col, pa.int64()),
             "label": pa.array(lab_col, pa.int64()),
             "dim": pa.array(dim_col, pa.int64()),
             "fx": pa.array(sums.ravel(), pa.int64()),
             "n": pa.array(np.repeat(counts, dims), pa.int64())}
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        s = df.groupby(["label", "dim"], sort=False)[["fx", "n"]].sum()
        s = s.reset_index()
        return pa.table(
            {"label": pa.array(s["label"].to_numpy(np.int64)),
             "dim": pa.array(s["dim"].to_numpy(np.int64)),
             "centroid": pa.array(
                 s["fx"].to_numpy(np.float64)
                 / (s["n"].to_numpy(np.float64) * SCALE),
                 pa.float64(),
             )}
        )

    return copartition(
        [ds.map_batches(partial, batch_format="pyarrow")], fold,
        pa.schema([(c, pa.int64()) for c in ("label", "dim", "fx", "n")]),
        joins.EXCHANGE_PARTS,
    )


EMBEDDING_LABEL_CENTROIDS_SQL = """
WITH el AS (
    SELECT label,
           generate_subscripts(embedding, 1) - 1 AS dim,
           FLOOR(unnest(embedding) * 1048576.0) AS fx
    FROM embeddings
)
SELECT label::BIGINT AS label, dim::BIGINT AS dim,
       SUM(fx) / (COUNT(*) * 1048576.0) AS centroid
FROM el GROUP BY label, dim
"""


def _kmeans_seed_ids(sf_dir: str, k: int) -> list[int]:
    """Deterministic, data-independent seed choice: the k vec_ids with the
    smallest md5(str(vec_id)) — reproducible on any engine without reading
    vector data."""
    import hashlib

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    ids = t["vec_id"].to_numpy()
    keys = sorted(
        (hashlib.md5(str(int(i)).encode()).hexdigest(), int(i)) for i in ids
    )
    return [i for _, i in keys[:k]]


def _kmeans_centroids(sf_dir: str, k: int, iters: int) -> np.ndarray:
    """The distributed Lloyd loop shared by :func:`embedding_kmeans` and
    :func:`semantic_dedup`: R rounds = R zero-shuffle corpus passes
    (centroids broadcast once per round via ``ray.put``, fixed-point int64
    partial sums folded on the driver — O(k x d) driver state). Returns the
    final unit-normalized k x d centroid matrix."""
    SCALE = float(1 << 20)
    seed_ids = _kmeans_seed_ids(sf_dir, k)
    if not seed_ids:  # empty corpus: no seeds, no centroids
        return None
    st = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", seed_ids)],
    )
    order = np.argsort(st["vec_id"].to_numpy())
    cents = _normalize(
        np.stack(st["embedding"].to_numpy(zero_copy_only=False))
        .astype(np.float64)[order]
    )
    # a corpus smaller than k yields fewer seeds: every shape below (the
    # per-batch partial grids AND the driver fold) must use the EFFECTIVE k
    # or the fold's boolean masks misalign with the (len(cents), d) matrix
    k = len(cents)

    def make_partial(cents_ref):
        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cents_ref)
            mat = _normalize(
                np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
                .astype(np.float64)
            )
            assign = np.argmax(mat @ c.T, axis=1)
            fx = np.floor(mat * SCALE).astype(np.int64)
            dims = fx.shape[1]
            sums = np.zeros((k, dims), np.int64)
            np.add.at(sums, assign, fx)
            counts = np.bincount(assign, minlength=k).astype(np.int64)
            return pa.table(
                {"cluster": pa.array(
                    np.repeat(np.arange(k, dtype=np.int64), dims)
                 ),
                 "dim": pa.array(
                     np.tile(np.arange(dims, dtype=np.int64), k)
                 ),
                 "fx": pa.array(sums.ravel(), pa.int64()),
                 "n": pa.array(np.repeat(counts, dims), pa.int64())}
            )

        return partial

    ds = _read_emb(sf_dir)
    for _ in range(iters):
        ref = ray.put(cents)
        agg = (
            ds.map_batches(make_partial(ref), batch_format="pyarrow")
            .to_pandas()  # k x d rows per batch; O(k x d x blocks) total
            .groupby(["cluster", "dim"], sort=True)[["fx", "n"]]
            .sum()
            .reset_index()
        )
        dims = int(agg["dim"].max()) + 1
        new = cents.copy()
        fx = np.zeros((k, dims), np.float64)
        n = np.zeros(k, np.float64)
        fx[agg["cluster"].to_numpy(), agg["dim"].to_numpy()] = (
            agg["fx"].to_numpy(np.float64)
        )
        n_per = agg.groupby("cluster")["n"].first()
        n[n_per.index.to_numpy()] = n_per.to_numpy(np.float64)
        nz = n > 0
        new[nz] = fx[nz] / (n[nz, None] * SCALE)
        cents = _normalize(new)

    return cents


def embedding_kmeans(
    sf_dir: str, k: int = 8, iters: int = 5
) -> rd.Dataset:
    """Distributed Lloyd k-means over the full embeddings table — the
    iterative-ML archetype, composed from the engine's existing kernels:
    per round, the k x d centroid matrix is broadcast ONCE via ``ray.put``,
    each batch does a vectorized cosine assignment (argmax against unit
    centroids) and emits FIXED-POINT per-cluster partial sums
    (floor(e * 2^20) int64 — the embedding_label_centroids kernel), and the
    driver folds the O(k x d) aggregate into renormalized centroids. R
    rounds = R corpus passes with ZERO shuffles; driver state is k x d.

    Because the update is fixed-point (order-independent) and the
    assignment/seeding are deterministic, the distributed result is
    BIT-IDENTICAL to a single-node numpy Lloyd reference at any batch
    split — asserted against ``tests/_refs.kmeans_reference`` (the non-SQL
    analogue of the hash oracle).
    Rows-only driver check; returns (vec_id, cluster)."""
    ds = _read_emb(sf_dir)
    cents = _kmeans_centroids(sf_dir, k, iters)
    if cents is None:  # empty corpus: typed empty assignment
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int64())})
        )
    ref = ray.put(cents)

    def final_assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = _normalize(
            np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64)
        )
        return pa.table(
            {"vec_id": batch["vec_id"],
             "cluster": pa.array(
                 np.argmax(mat @ c.T, axis=1).astype(np.int64), pa.int64()
             )}
        )

    return ds.map_batches(final_assign, batch_format="pyarrow")


def _dup_components(
    n: int, ai: np.ndarray, bi: np.ndarray
) -> np.ndarray:
    """Min-label connected components over an in-memory edge list
    (hash-to-min with pointer doubling — the numpy-vectorized miniature of
    clusters.py's BSP engine, for the per-cluster graphs that fit one
    task). Returns, per row index, the component's minimum row index."""
    lab = np.arange(n, dtype=np.int64)
    while True:
        new = lab.copy()
        if len(ai):
            np.minimum.at(new, ai, lab[bi])
            np.minimum.at(new, bi, lab[ai])
        new = new[new]  # pointer doubling
        if np.array_equal(new, lab):
            return lab
        lab = new


def _semantic_dedup_group(
    ids: np.ndarray, mat: np.ndarray, centroid: np.ndarray, threshold: float
) -> pa.Table:
    """Shared per-cluster kernel for :func:`semantic_dedup` and its
    single-node reference (``tests/_refs.semantic_dedup_reference``):
    rows sorted by vec_id, one cosine matmul, CC over the ≥threshold
    graph, keep-one-per-component = LOWEST centroid-cosine (ties → min
    vec_id)."""
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    n = len(ids)
    sims = round_np((mat @ mat.T).ravel(), 3).reshape(n, n)
    ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
    lab = _dup_components(n, ai, bi)
    csim = round_np(mat @ centroid, 3)
    # representative per component: lexicographic argmin of
    # (centroid_sim, vec_id) — one packed sort, first row per component
    srt = np.lexsort((ids, csim, lab))
    first = np.r_[True, lab[srt][1:] != lab[srt][:-1]]
    rep = np.zeros(n, dtype=bool)
    rep[srt[first]] = True
    return pa.table(
        {"vec_id": pa.array(ids, pa.int64()),
         "dup_group": pa.array(ids[lab], pa.int64()),
         "centroid_sim": pa.array(csim, pa.float64()),
         "keep": pa.array(rep)}
    )


def semantic_dedup(
    sf_dir: str, k: int = 16, iters: int = 3, threshold: float = 0.3
) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540) — the sub-quadratic
    scale path for embedding near-dedup: k-means partitions the corpus so
    the cosine-duplicate graph is built WITHIN clusters only (O(n²/k) work
    vs :func:`embedding_near_dup_pairs`' exact O(n²)); per duplicate
    component, KEEP the example with the LOWEST cosine to its cluster
    centroid (the paper's keep-hardest policy; ties → min vec_id) and drop
    the rest.

    Scale shape: ``iters`` zero-shuffle corpus passes train the centroids
    (:func:`_kmeans_centroids` — k×d broadcast per round, fixed-point int64
    partial sums), then ONE cluster-hash exchange ships each embedding
    exactly once into its cluster's group, where a vectorized cosine matmul
    + min-label components + a packed keep-policy sort emit the verdicts.
    Per-task memory is O((n/k)·d + (n/k)²) — size k to the corpus as the
    paper does (n/k ≈ thousands); a pathologically skewed giant cluster is
    the documented partitioning assumption, and the fallback is routing
    that one cluster through embedding_near_dup_pairs' block-nested-loop.

    Deterministic end to end (fixed-point kmeans, cosines rounded to 3
    decimals before thresholding, sorted-by-vec_id group order), so the
    distributed result is row-identical to the single-node
    ``tests/_refs.semantic_dedup_reference`` at any batch split.
    Approximate BY DESIGN vs the global pair graph (cross-cluster
    duplicates are unseen — the paper's accepted trade); recall vs the
    exact graph is measured in tests. Rows-only driver check; returns
    (vec_id, cluster, dup_group, centroid_sim, keep)."""
    ds = _read_emb(sf_dir)
    cents = _kmeans_centroids(sf_dir, k, iters)
    if cents is None:  # empty corpus: typed empty dedup manifest
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int64()),
                      "dup_group": pa.array([], pa.int64()),
                      "centroid_sim": pa.array([], pa.float64()),
                      "keep": pa.array([], pa.bool_())})
        )
    ref = ray.put(cents)

    def assign_emit(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = _normalize(
            np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64)
        )
        return batch.append_column(
            "cluster",
            pa.array(np.argmax(mat @ c.T, axis=1).astype(np.int64), pa.int64()),
        )

    def dedup_group(g: pa.Table) -> pa.Table:
        c = ray.get(ref)
        cluster = int(g["cluster"][0].as_py())
        ids, mat = _stack(g)
        out = _semantic_dedup_group(
            ids, _normalize(mat), c[cluster], threshold
        )
        return out.add_column(
            1, "cluster",
            pa.array(np.full(len(out), cluster, dtype=np.int64), pa.int64()),
        )

    return (
        ds.map_batches(assign_emit, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup_group, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Product quantization (PQ): compressed-domain ANN — the 100 TB scale path


def _train_pq_codebooks(
    sample: np.ndarray, m: int, ks: int, seed: int, n_iters: int = 10
) -> np.ndarray:
    """Deterministic per-subspace euclidean Lloyd on a BOUNDED sample →
    (m, ks, d/m) codebooks. Subvectors are not unit vectors, so this is
    plain euclidean k-means (unlike the spherical `_train_centroids`)."""
    n, d = sample.shape
    dsub = d // m
    rng = np.random.Generator(np.random.PCG64(seed))
    books = np.empty((m, ks, dsub), np.float64)
    for j in range(m):
        sub = sample[:, j * dsub : (j + 1) * dsub]
        idx = rng.choice(n, size=min(ks, n), replace=False)
        cents = sub[np.sort(idx)].copy()
        for _ in range(n_iters):
            d2 = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(cents)):
                members = sub[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        books[j, : len(cents)] = cents
        if len(cents) < ks:  # tiny-sample corner: repeat last centroid
            books[j, len(cents):] = cents[-1]
    return books


class PqEncodeStage:
    """vector → m uint8 codes (one (ks, dsub) argmin per subspace, fully
    vectorized; codebooks ship inside the pickled callable — small,
    corpus-independent state). Output is m bytes/vector: at dim=64/f32
    that is a 32× shrink of what a scan must read."""

    def __init__(self, books: np.ndarray):
        self.books = books  # (m, ks, dsub)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _stack(batch)
        mat = _normalize(mat)
        m, ks, dsub = self.books.shape
        codes = np.empty((len(ids), m), np.uint8)
        for j in range(m):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            # ||x-c||^2 argmin == argmax(c@x - ||c||^2/2), one matmul
            scores = sub @ self.books[j].T - 0.5 * (self.books[j] ** 2).sum(1)
            codes[:, j] = np.argmax(scores, axis=1).astype(np.uint8)
        from crawler_ray.pipelines.dedup import _fixed_binary_from_mat

        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "code": _fixed_binary_from_mat(codes, m),
            }
        )


def build_pq_index(
    sf_dir: str, index_dir: str, m: int = 8, ks: int = 32, seed: int = 11,
    sample_rows: int = 2048,
) -> int:
    """Train PQ codebooks on a bounded sample (first row groups — driver
    cost is corpus-size-independent) and encode the whole corpus in one
    distributed pass to an m-byte/vector codes table. Codebooks persist
    beside the codes so any process can build lookup tables and serve."""
    import json
    import os

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    rows = []
    got = 0
    for g in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(g, columns=["embedding"])
        rows.append(np.array(t["embedding"].to_pylist(), np.float64))
        got += rows[-1].shape[0]
        if got >= sample_rows:
            break
    sample = _normalize(np.concatenate(rows)[:sample_rows])
    books = _train_pq_codebooks(sample, m, ks, seed)
    ds = _read_emb(sf_dir).map_batches(PqEncodeStage(books), batch_format="pyarrow")
    # codes live in their own subdir so sidecar files (codebooks, meta)
    # never collide with the parquet scan
    os.makedirs(os.path.join(index_dir, "codes"), exist_ok=True)
    ds.write_parquet(os.path.join(index_dir, "codes"))
    np.save(os.path.join(index_dir, "codebooks.npy"), books)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"m": m, "ks": ks, "seed": seed}, f)
    # rows INDEXED (parquet footer of the corpus), not the training-sample
    # size ``got`` — the other build_*_index fns return the corpus count
    return int(pf.metadata.num_rows)


def pq_index_dir(sf_dir: str) -> str:
    """Canonical cache location of the persisted PQ index for a corpus."""
    import os

    from crawler_ray.state.artifact_cache import cache_dir, source_fingerprint

    return cache_dir(
        "pq", os.path.abspath(sf_dir),
        source_fingerprint(f"{sf_dir}/embeddings.parquet"),
    )


def ensure_pq_index(sf_dir: str) -> str:
    """Build-once/publish-atomically for the PQ index (codes + codebooks)
    via the shared ``artifact_cache.ensure_dir`` protocol; exposed so
    bench.py can time build and probe separately."""
    from crawler_ray.state.artifact_cache import ensure_dir

    return ensure_dir(pq_index_dir(sf_dir), lambda s: build_pq_index(sf_dir, s))


def ann_pq_topk(
    sf_dir: str, query_vec_id: int = 0, k: int = 10, rerank: int = 16
) -> rd.Dataset:
    """ANN via PQ asymmetric distance: scan the m-byte codes table (32×
    less I/O than raw vectors), score each vector as a LUT-gather sum
    (``Σ_j LUT[j][code_j]`` ≈ cosine), keep per-batch partial top
    ``k*rerank`` candidates, then RERANK the shortlist with EXACT cosine
    via a filtered read of only those vec_ids — so reported similarities
    are exact and recall loss comes only from shortlist misses. The index
    (codes + codebooks) builds once and publishes atomically, like the
    LSH/IVF indexes."""
    import json
    import os

    q = _query_vec(sf_dir, query_vec_id)
    if q is None:
        return _empty_topk()
    idx = ensure_pq_index(sf_dir)

    books = np.load(os.path.join(idx, "codebooks.npy"))
    with open(os.path.join(idx, "meta.json")) as f:
        m = json.load(f)["m"]
    q = q / np.linalg.norm(q)
    dsub = books.shape[2]
    # (m, ks) dot-product lookup tables: ADC score = sum_j lut[j, code_j]
    lut = np.einsum("mkd,md->mk", books, q.reshape(m, dsub))
    shortlist = k * rerank

    def adc_partial(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        from crawler_ray.pipelines.dedup import _binary_col_to_mat

        codes = _binary_col_to_mat(t["code"], m, n, dtype=np.uint8)
        scores = lut[np.arange(m)[None, :], codes].sum(axis=1)
        ids = t["vec_id"].to_numpy()
        top = np.argsort(-scores, kind="stable")[: shortlist]
        return pa.table({"vec_id": pa.array(ids[top], pa.int64()),
                         "adc": pa.array(scores[top], pa.float64())})

    parts = (
        rd.read_parquet(os.path.join(idx, "codes"))
        .map_batches(adc_partial, batch_format="pyarrow")
        .to_pandas()  # O(shortlist × blocks) slim rows by construction
    )
    cand = (
        parts.sort_values(["adc", "vec_id"], ascending=[False, True])
        .head(shortlist)["vec_id"]
        .astype(int)
        .tolist()
    )
    cand = [c for c in cand if c != query_vec_id]
    # exact rerank: filtered read of ONLY the shortlist rows
    rt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", sorted(cand))],
    )
    if rt.num_rows == 0:  # empty shortlist (e.g. single-vector corpus)
        return _empty_topk()
    ids = rt["vec_id"].to_numpy()
    mat = _normalize(np.array(rt["embedding"].to_pylist(), np.float64))
    sims = mat @ q
    order = np.lexsort((ids, -sims))[:k]
    return rd.from_arrow(
        pa.table({"vec_id": pa.array(ids[order], pa.int64()),
                  "cos_sim": pa.array(round_np(sims[order], 4), pa.float64())})
    )


# ---------------------------------------------------------------------------
# hard-negative mining — contrastive-training data prep: for every vector,
# its most similar DIFFERENT-label neighbor (the best "hard" negative)


def hard_negative_pairs(sf_dir: str) -> rd.Dataset:
    """Per vector: the top-1 cosine neighbor with a DIFFERENT label —
    hard-negative mining for contrastive training. Same block-pair walk as
    ``embedding_near_dup_pairs`` (each vector ships to exactly B
    pair folds, per-task memory 2·n/B, O(n²) WORK inherent to the exact
    answer; the ANN indexes are the approximate scale path), plus ONE
    bounded argmax fold: each pair fold emits a per-vector PARTIAL best
    (≤ B rows per vector), the final per-vec_id fold keeps the max.
    Determinism: cosine rounds to 6 before the argmax and ties break to
    the smallest neg_id — identical to the oracle's ROW_NUMBER ordering."""
    from crawler_ray.functions.rounding import round_np
    from crawler_ray.sources.io import read_parquet_sized

    cols = ["vec_id", "embedding", "label"]
    ds = read_parquet_sized(f"{sf_dir}/embeddings.parquet", columns=cols)
    rows = _emb_rows(sf_dir)
    out_schema = pa.schema(
        [("vec_id", pa.int64()), ("neg_id", pa.int64()), ("cos_sim", pa.float64())]
    )

    def _best(ids_l, mat_l, lab_l, ids_r, mat_r, lab_r):
        """Per left vector: best different-label right candidate."""
        sims = round_np((mat_l @ mat_r.T).ravel(), 6).reshape(
            len(ids_l), len(ids_r)
        )
        diff = lab_l[:, None] != lab_r[None, :]
        sims = np.where(diff, sims, -np.inf)
        # argmax with neg_id tiebreak: order candidates by (id) and use
        # argmax's first-hit-wins on the row max
        order = np.argsort(ids_r)
        sims = sims[:, order]
        cand = ids_r[order]
        j = np.argmax(sims, axis=1)  # first (smallest neg_id) among ties
        best = sims[np.arange(len(ids_l)), j]
        ok = np.isfinite(best)
        return ids_l[ok], cand[j[ok]], best[ok]

    def score(g: pa.Table, left) -> pa.Table:
        ids = g["vec_id"].to_numpy()
        mat = _normalize(
            np.stack(g["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64)
        )
        lab = g["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        if left is None:
            if len(ids) < 2:
                return out_schema.empty_table()
            outs = [_best(ids, mat, lab, ids, mat, lab)]
        else:
            li, ri = left, ~left
            outs = [_best(ids[li], mat[li], lab[li], ids[ri], mat[ri], lab[ri]),
                    _best(ids[ri], mat[ri], lab[ri], ids[li], mat[li], lab[li])]
        return pa.table(
            [np.concatenate(col) for col in zip(*outs)], schema=out_schema)

    blocks = joins.pair_blocks(rows, VECTOR_PAIR_BLOCKS)
    partials = joins.block_pairs(
        ds, "vec_id", joins.footer_schema(sf_dir, "embeddings", cols),
        score, out_schema, blocks,
    )

    def final_fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        df = df.sort_values(
            ["vec_id", "cos_sim", "neg_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = df.groupby("vec_id", sort=False).head(1)
        return pa.Table.from_pandas(out, preserve_index=False)

    return copartition(
        [partials], final_fold,
        pa.schema([("neg_id", pa.int64()), ("cos_sim", pa.float64())]),
        # bounded second exchange: ≤ B partial rows per vector
        joins.parts_for_rows(rows * blocks),
        key="vec_id",
    )


def hard_negative_sql() -> str:
    return """
WITH pairs AS (
    SELECT a.vec_id AS vec_id, b.vec_id AS neg_id,
           ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                        CAST(b.embedding AS DOUBLE[])),
                 6) AS cos_sim
    FROM embeddings a JOIN embeddings b
      ON a.vec_id <> b.vec_id AND a.label <> b.label
)
SELECT vec_id, neg_id, cos_sim
FROM (
    SELECT *, ROW_NUMBER() OVER (
        PARTITION BY vec_id ORDER BY cos_sim DESC, neg_id
    ) AS rn
    FROM pairs
) t
WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Distributed PCA projection (SemDeDup / embedding-whitening preprocessing)


def _pca_moments(sf_dir: str):
    """EXACT distributed second moments of the embedding matrix: fixed-point
    fx = floor(e * 2^23) int64, per-batch Gram
    partials fxᵀ·fx (int64-exact for <=4096-row batches x dim<=2^21 values),
    folded across batches with the hi/lo 2^32 split (the
    ``lineitem_qty_price_corr`` overflow recipe — a 100 TB corpus pushes
    Σfx² past 2^63, the split fold never does). Returns Python-int exact
    (n, Σfx per dim, Σfxᵀfx upper triangle) — O(dim²) driver state, zero
    dependence on block boundaries or accumulation order. The moment-keyed
    fold takes ``EXCHANGE_PARTS`` partitions (a batch's O(dim²) partial
    rows have no footer bound)."""
    ds = _read_emb(sf_dir)
    SCALE_I = 1 << 23

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.stack(
            batch["embedding"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        # |e| < 4 keeps the per-batch gram int64-exact: |fx| <= 2^25,
        # products <= 2^50, 4096-row batch sums <= 2^62
        assert np.abs(mat).max(initial=0.0) < 4.0
        fx = np.floor(mat * float(SCALE_I)).astype(np.int64)
        d = fx.shape[1]
        gram = fx.T @ fx
        iu = np.triu_indices(d)
        g = gram[iu]
        idx = (iu[0] * d + iu[1]).astype(np.int64)
        # hi/lo split so the cross-batch fold stays int64-exact at any n
        hi, lo = g >> 32, g & 0xFFFFFFFF
        sums = fx.sum(axis=0)  # |sum|<=4096*2^20=2^32
        s_hi, s_lo = sums >> 32, sums & 0xFFFFFFFF
        rows_idx = np.concatenate([idx, -np.arange(1, d + 1), [-(d + 1)]])
        rows_hi = np.concatenate([hi, s_hi, [0]])
        rows_lo = np.concatenate([lo, s_lo, [len(fx)]])
        return pa.table(
            {"key": pa.array(rows_idx, pa.int64()),
             "hi": pa.array(rows_hi, pa.int64()),
             "lo": pa.array(rows_lo, pa.int64())}
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("key", sort=False)[["hi", "lo"]].sum()
        return pa.Table.from_pandas(df.reset_index(), preserve_index=False)

    moments = copartition(
        [ds.map_batches(partial, batch_format="pyarrow")], fold,
        pa.schema([("hi", pa.int64()), ("lo", pa.int64())]),
        joins.EXCHANGE_PARTS,
    ).to_pandas()  # <= dim(dim+1)/2 + dim + 1 rows by construction
    vals = {
        int(r.key): (int(r.hi) << 32) + int(r.lo) for r in moments.itertuples()
    }
    n = vals.pop(min(vals))  # most-negative idx = -(d+1), the count row
    d = -min(vals)  # remaining most-negative = -d (mean rows)
    s1 = [vals.pop(-(i + 1)) for i in range(d)]
    iu = np.triu_indices(d)
    s2 = np.zeros((d, d), dtype=object)
    for i, j in zip(*iu):
        v = vals[int(i * d + j)]
        s2[i, j] = v
        s2[j, i] = v
    return n, np.array(s1, dtype=object), s2, SCALE_I


def embedding_pca_project(sf_dir: str, k: int = 4) -> rd.Dataset:
    """Distributed PCA: project every embedding onto the top-k principal
    components — the whitening / dimensionality-reduction step in front of
    SemDeDup-style clustering and ANN index builds. Two passes:

    1. ONE moment pass (`_pca_moments`): exact integer (n, Σx, Σxxᵀ) via
       fixed-point + hi/lo-split folds — O(dim²) rows to the driver, never
       a vector.
    2. Driver: exact-rational covariance  C = (n·Sij − Si·Sj) / (n²·2^46)
       evaluated once in float64, then `np.linalg.eigh` on the dim×dim
       matrix (O(dim³), corpus-independent); top-k eigenvectors get a
       CANONICAL sign (largest-|component| entry positive, lowest index on
       ties). C is bit-identical at any block split/parallelism, so the
       basis — and therefore every projected row — is too.
    3. ONE projection pass: (E − μ) @ V per batch against the
       ``ray.put``-broadcast basis; output (vec_id, label, pc0..pc{k-1}).

    Rows-only driver check (eigendecomposition is not SQL-expressible);
    tests assert bit-identical output across parallelism levels, allclose
    agreement with single-node numpy PCA, and that projected components
    are centered and mutually uncorrelated with variances = eigenvalues.
    """
    if pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows == 0:
        # empty corpus: no moments, no basis — typed empty projection
        return rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64()),
                      **{f"pc{c}": pa.array([], pa.float64())
                         for c in range(k)}})
        )
    n, s1, s2, SCALE_I = _pca_moments(sf_dir)
    d = len(s1)
    # exact integers -> one float64 rounding per entry, identical everywhere
    denom = float(n) * float(n) * float(SCALE_I) * float(SCALE_I)
    cov = np.empty((d, d), np.float64)
    for i in range(d):
        for j in range(i, d):
            num = n * int(s2[i, j]) - int(s1[i]) * int(s1[j])
            cov[i, j] = cov[j, i] = float(num) / denom
    mu = np.array([float(v) for v in s1], np.float64) / (float(n) * float(SCALE_I))
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    basis = evecs[:, order]
    # canonical sign: the largest-|v| entry (first on ties) is positive
    for c in range(basis.shape[1]):
        m = np.argmax(np.abs(basis[:, c]))
        if basis[m, c] < 0:
            basis[:, c] = -basis[:, c]
    basis_ref = ray.put((mu, basis))

    from crawler_ray.sources.io import read_parquet_sized

    ds = read_parquet_sized(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    class _Project:
        def __init__(self, ref):
            self.ref = ref
            self._mb = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._mb is None:
                self._mb = ray.get(self.ref) if isinstance(
                    self.ref, ray.ObjectRef) else self.ref
            mu_, v_ = self._mb
            mat = np.stack(
                batch["embedding"].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
            # float64 throughout: fixed fx basis + per-row dot products are
            # order-independent (each output is ONE row's reduction)
            proj = (mat - mu_) @ v_
            cols = {"vec_id": batch["vec_id"], "label": batch["label"]}
            for c in range(proj.shape[1]):
                cols[f"pc{c}"] = pa.array(proj[:, c], pa.float64())
            return pa.table(cols)

    return ds.map_batches(_Project(basis_ref), batch_format="pyarrow")
