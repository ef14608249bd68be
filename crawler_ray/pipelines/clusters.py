"""Distributed connected components → duplicate-cluster labeling.

Near-dup PAIR pipelines (minhash/simhash/jaccard) emit edges; the dedup
decision needs CLUSTERS: every doc labeled with a canonical representative
(min doc_id of its component) so one keep-policy pass can drop the rest.
The reference's dedup stops at the pairwise exists-check
(``ShiweijiaProduct.cs:395-396`` — per-item seen probes); clustering is the
scale-out generalization a 100 TB training-data pipeline needs.

Algorithm: iterative min-label propagation with pointer-jumping
shortcutting — the public MapReduce-CC family (large-star/small-star,
Kiveris et al., "Connected Components in MapReduce and Beyond", SoCC'14).
Everything is hash-partitioned:

- round  = one partitioned hash join (edges ⋈ labels, propagate each
  node's label to its neighbors) + one groupby-MIN (fold contributions
  with the node's own label) + one labels ⋈ labels join (pointer jump:
  ``lab(v) ← lab(lab(v))``, collapsing chains logarithmically),
- the label table lives in the object store between rounds
  (``Dataset.materialize``) — only the scalar changed-label count reaches
  the driver per round,
- convergence is exact: propagation's fixpoint on a symmetric edge set is
  "label constant per component", at which point the pointer jump is the
  identity, so testing the propagate step alone is sound.

At 10^10-edge scale each round is the same constant number of all-to-all
exchanges over (node, lab) rows — no step ever materializes a component's
edges in one task, and skewed (hub) nodes cost one groupby segment, not a
cross product.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Max, Min

from crawler_ray.pipelines import joins
from crawler_ray.pipelines.joins import (
    copartition,
    exchange_parts,
    partitioned_hash_join,
)

_LABELS_SCHEMA = pa.schema([("node", pa.int64()), ("lab", pa.int64())])


def _unionfind_batch(t: pa.Table) -> pa.Table:
    """Whole-graph connected components in one task (small-graph fast
    path): fully VECTORIZED min-label propagation with pointer jumping —
    per sweep, every node scatter-mins its neighbors' labels
    (``np.minimum.at`` over the edge arrays) and chains collapse via
    ``lab = lab[lab]`` to a fixpoint. O(E) numpy work per sweep,
    O(log diameter) sweeps; measured 2.7 s for 20M edges / 20k nodes
    (the round-2 per-edge Python union-find took minutes there). Labels
    converge to each component's MIN node id because np.unique's dense
    rank is order-isomorphic to the ids."""
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(nodes)
    a, b = inv[: len(src)], inv[len(src):]
    lab = np.arange(n, dtype=np.int64)
    while True:
        mv = np.minimum(lab[a], lab[b])
        before = lab.copy()
        np.minimum.at(lab, a, mv)
        np.minimum.at(lab, b, mv)
        while True:  # pointer jumping to the sweep's fixpoint
            nl = lab[lab]
            if np.array_equal(nl, lab):
                break
            lab = nl
        if np.array_equal(lab, before):
            break
    return pa.table(
        {"node": pa.array(nodes, pa.int64()),
         "lab": pa.array(nodes[lab], pa.int64())}
    )
_UNION_SCHEMA = pa.schema(
    [("node", pa.int64()), ("lab", pa.int64()), ("old", pa.int64())]
)


def connected_components(
    edges: rd.Dataset,
    src: str = "doc_a",
    dst: str = "doc_b",
    n_buckets: int = 8,
    max_rounds: int = 30,
    small_edges: int = 50_000_000,
) -> rd.Dataset:
    """Undirected edge list → (node, lab) with ``lab`` = min node id of the
    connected component. Nodes with no edges don't appear (mirror of the
    SQL oracle, where they vanish from the exploded edge relation).

    Two paths, picked by the materialized edge count (known for free from
    block metadata):

    - ``≤ small_edges``: ONE remote task runs the vectorized min-label
      propagation over the whole edge list — the iterative rounds below
      cost ~3 exchanges each, so for graphs that fit one task (after the
      caller's quotient contraction, most do) a single pass wins by ~10×.
      The bound is memory, not time: 50M edges ≈ 1.6 GiB of int64 arrays
      per task (2.7 s measured at 20M); beyond it the BSP rounds take over.
    - above it: BSP rounds. Each round propagates over the data edges PLUS
      the current label pointers as edges (hash-to-min): a chain a←b←c
      collapses because c's label node receives and re-broadcasts the min
      directly, giving the O(log diameter) convergence of pointer jumping
      without a second labels ⋈ labels exchange per round — one join + one
      groupby-MIN total."""

    def sym(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy(zero_copy_only=False)
        b = t["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"src": pa.array(np.concatenate([a, b]), pa.int64()),
             "dst": pa.array(np.concatenate([b, a]), pa.int64())}
        )

    def plain(t: pa.Table) -> pa.Table:
        return pa.table(
            {"src": t[src].cast(pa.int64()), "dst": t[dst].cast(pa.int64())}
        )

    # count UNDIRECTED edges first: the single-task path scatter-mins BOTH
    # endpoints, so it needs no symmetrization — half the repartition(1)
    # volume — and its (small) result is materialized so downstream
    # consumers (join + labels exchange) don't re-run the whole-graph fold
    raw = edges.map_batches(plain, batch_format="pyarrow").materialize()

    if raw.count() == 0:  # empty graph: typed empty labels (a zero-block
        # dataset is schema-less and would crash downstream joins)
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "lab": pa.array([], pa.int64())})
        )
    if raw.count() <= small_edges:
        return raw.repartition(1).map_batches(
            _unionfind_batch, batch_format="pyarrow", batch_size=None
        ).materialize()

    e = raw.map_batches(sym, batch_format="pyarrow").materialize()

    # init folds the first propagation round for free:
    # lab(v) = min(v, min neighbor id)
    def fold_self(t: pa.Table) -> pa.Table:
        node = t["src"].to_numpy(zero_copy_only=False)
        lab = np.minimum(node, t["lab"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"node": pa.array(node, pa.int64()), "lab": pa.array(lab, pa.int64())}
        )

    # every per-round materialization is coalesced back to n_buckets blocks:
    # unions and bucket-joins otherwise COMPOUND block counts round over
    # round (measured: 2.6 s → 27 s by round 3 from per-block scheduling
    # alone on a 176-node graph) — the label table is small per round, so
    # the no-shuffle repartition is cheap and keeps every round's cost flat
    labels = (
        e.groupby("src")
        .aggregate(Min("dst", alias_name="lab"))
        .map_batches(fold_self, batch_format="pyarrow")
        .repartition(n_buckets)
        .materialize()
    )

    def contrib(t: pa.Table) -> pa.Table:
        # (src, dst, lab) join rows → neighbor contributions (node=dst, lab)
        return pa.table(
            {"node": t["dst"].cast(pa.int64()),
             "lab": t["lab"].cast(pa.int64()),
             "old": pa.nulls(t.num_rows, pa.int64())}
        ).cast(_UNION_SCHEMA)

    def self_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t["node"].cast(pa.int64()),
             "lab": t["lab"].cast(pa.int64()),
             "old": t["lab"].cast(pa.int64())}
        ).cast(_UNION_SCHEMA)

    def strip(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t["node"].cast(pa.int64()), "lab": t["lab"].cast(pa.int64())}
        ).cast(_LABELS_SCHEMA)

    def lab_edges(t: pa.Table) -> pa.Table:
        # current label pointers as extra (symmetric) edges — the
        # hash-to-min chain collapser; self-pointers carry no information
        node = t["node"].to_numpy(zero_copy_only=False)
        lab = t["lab"].to_numpy(zero_copy_only=False)
        m = node != lab
        node, lab = node[m], lab[m]
        return pa.table(
            {"src": pa.array(np.concatenate([node, lab]), pa.int64()),
             "dst": pa.array(np.concatenate([lab, node]), pa.int64())}
        )

    for _ in range(max_rounds):
        contribs = partitioned_hash_join(
            e.union(labels.map_batches(lab_edges, batch_format="pyarrow")),
            labels.map_batches(
                lambda t: pa.table(
                    {"src": t["node"].cast(pa.int64()),
                     "lab": t["lab"].cast(pa.int64())}
                ),
                batch_format="pyarrow",
            ),
            on="src",
            n_buckets=n_buckets,
        ).map_batches(contrib, batch_format="pyarrow")
        merged = (
            contribs.union(labels.map_batches(self_rows, batch_format="pyarrow"))
            .groupby("node")
            .aggregate(Min("lab", alias_name="lab"), Max("old", alias_name="old"))
            .repartition(n_buckets)
            .materialize()
        )
        changed = merged.map_batches(
            lambda t: pa.table(
                {"changed": pa.array(
                    (t["lab"].to_numpy(zero_copy_only=False)
                     < t["old"].to_numpy(zero_copy_only=False)).astype(np.int64)
                )}
            ),
            batch_format="pyarrow",
        ).sum("changed")
        # the derived maps only read node/lab, so the materialized merged
        # table (with its extra old column) serves as the next labels
        labels = merged
        if not changed:
            break
    return labels.map_batches(strip, batch_format="pyarrow")


def near_dup_clusters(
    sf_dir: str, threshold: float = 0.95, n_buckets: int = 8, n_blocks: int = 4
) -> rd.Dataset:
    """Duplicate CLUSTERS over the exact token-Jaccard near-dup graph:
    every doc that has at least one near-duplicate, labeled
    (doc_id, cluster_id = min doc_id of its component, cluster_size).
    The keep-one-per-cluster dedup policy is then a trivial
    ``doc_id != cluster_id`` drop filter.

    Scale shape: CC runs on the QUOTIENT graph of distinct canonical token
    sets, not on doc-level pairs — exact duplicates (the bulk of any real
    near-dup corpus) are contracted to one node each BEFORE the iterative
    rounds, so round cost is bounded by distinct-set count (sf0.1: 190,925
    doc pairs collapse to a few hundred set nodes; measured 28 s → ~2 s
    after the distinct segment-fold + row-chunked pairing rewrites; a
    50k-doc corpus whose sets barely contract runs in ~24 s, see
    BASELINE.md "10× scale smoke").
    Docs rejoin by set_id only once at the end. A component is kept iff it
    contains ≥ 2 docs (a single-doc set with no cross-set edge never pairs
    — mirrors the SQL oracle, where such docs vanish from the pair
    relation)."""
    from crawler_ray.pipelines.dedup import (
        _canon_token_set,
        _distinct_set_pairs,
        _keyed_sets,
        _read_docs,
    )

    keyed = _keyed_sets(_read_docs(sf_dir, ["doc_id", "text"]), _canon_token_set)
    set_pairs = _distinct_set_pairs(
        keyed, threshold, n_blocks, exchange_parts(sf_dir, "documents"))
    # the key_a == key_b self pair makes every set a CC node (isolated sets
    # keep their own label) — no left-join null handling anywhere
    cc = connected_components(
        set_pairs, src="key_a", dst="key_b", n_buckets=n_buckets
    )

    members = keyed.map_batches(
        lambda t: pa.table(
            {"node": t["set_id"].cast(pa.int64()),
             "doc_id": t["doc_id"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    # docs rejoin once; then ONE label-hash exchange finishes everything
    per_doc = partitioned_hash_join(members, cc, on="node", n_buckets=n_buckets)
    return _labels_to_clusters(
        per_doc, "doc_id", exchange_parts(sf_dir, "documents"))


def _labels_to_clusters(labeled: rd.Dataset, id_name: str, parts: int) -> rd.Dataset:
    """(id, lab) rows → (id, cluster_id = min id of the component,
    cluster_size), singleton components dropped. A component lives entirely
    inside its lab partition, so a vectorized segment fold (lexsort +
    run-length walk) computes rep/size AND expands them back per id in the
    same task — one exchange total (vs the naive per-label
    groupby-aggregate + a second hash join), over ``parts`` partitions."""

    def label_part(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["lab"].cast(pa.int64()),
                         "id": t[id_name].cast(pa.int64())})

    def finish_part(g: pa.Table) -> pa.Table:
        lab = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = g["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, lab))
        lab, ids = lab[order], ids[order]
        starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        sizes = np.diff(np.r_[starts, len(lab)])
        rep = ids[starts]  # id sorted within lab → first is the min
        keep = np.repeat(sizes >= 2, sizes)  # singleton components vanish
        return pa.table(
            {id_name: pa.array(ids[keep], pa.int64()),
             "cluster_id": pa.array(np.repeat(rep, sizes)[keep], pa.int64()),
             "cluster_size": pa.array(np.repeat(sizes, sizes)[keep], pa.int64())}
        )

    return copartition(
        [labeled.map_batches(label_part, batch_format="pyarrow")],
        finish_part, pa.schema([("id", pa.int64())]), parts,
    )


def embedding_dedup_clusters(
    sf_dir: str, threshold: float = 0.3, n_buckets: int = 8, n_blocks: int = 8
) -> rd.Dataset:
    """SemDeDup-style SEMANTIC duplicate clusters: connected components over
    the embedding-cosine near-dup graph (Abbas et al. 2023's observation
    that semantic dups form transitive groups an embedding threshold graph
    exposes). Same CC engine as :func:`near_dup_clusters`, different edge
    source — the pair pipelines are pluggable front-ends.

    Every vec in the edge list has degree ≥ 1 so every surviving component
    has ≥ 2 members; vecs with no near-dup vanish (mirrors the SQL, where
    they never enter the pair relation)."""
    from crawler_ray.pipelines.similarity import embedding_near_dup_pairs

    pairs = embedding_near_dup_pairs(sf_dir, threshold, n_blocks)
    cc = connected_components(pairs, src="vec_a", dst="vec_b", n_buckets=n_buckets)
    labeled = cc.map_batches(
        lambda t: pa.table(
            {"vec_id": t["node"].cast(pa.int64()), "lab": t["lab"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    return _labels_to_clusters(
        labeled, "vec_id", exchange_parts(sf_dir, "embeddings"))


def dedup_survivors(
    sf_dir: str,
    threshold: float = 0.95,
    n_buckets: int = 8,
    n_blocks: int = 4,
) -> rd.Dataset:
    """The keep-one-per-cluster dedup POLICY applied end-to-end: the
    deduplicated corpus manifest (doc_id, n_chars) after dropping every
    near-dup cluster member except its canonical representative (min
    doc_id). This is the step a training-data pipeline actually ships —
    pairs and clusters are diagnostics; the survivor manifest drives the
    downstream read.

    Scale shape: the loser set (cluster members minus reps) is tiny
    relative to the corpus, but it is NOT broadcast — one hash-partition
    anti join (probe keys collapsed per batch, the
    ``customers_without_urgent_orders`` discipline) keeps the plan valid
    even when half the corpus is duplicates."""
    from crawler_ray.pipelines.dedup import _read_docs

    clusters = near_dup_clusters(sf_dir, threshold, n_buckets, n_blocks)

    def loser_rows(t: pa.Table) -> pa.Table:
        drop = t.filter(pc.not_equal(t["doc_id"], t["cluster_id"]))
        return pa.table({"key": drop["doc_id"].cast(pa.int64())})

    def doc_rows(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"key": pa.array(df["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
             "n_chars": pa.array(
                 df["text"].str.len().to_numpy(dtype=np.int64), pa.int64()
             )},
        )

    def anti(docs: pa.Table, losers: pa.Table) -> pa.Table:
        out = docs.filter(pc.invert(pc.is_in(
            docs["key"], value_set=losers["key"].combine_chunks())))
        return pa.table({"doc_id": out["key"], "n_chars": out["n_chars"]})

    docs = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        doc_rows, batch_format="pandas"
    )
    return copartition(
        [docs, clusters.map_batches(loser_rows, batch_format="pyarrow")],
        anti,
        pa.schema([("n_chars", pa.int64())]),
        # each doc sends one row to each side at most
        exchange_parts(sf_dir, "documents", "documents"),
    )


def _closure_ctes(pairs_sql: str, a: str, b: str, id_name: str) -> str:
    """DuckDB CTE prefix shared by every cluster oracle: a pair relation →
    symmetric edges → recursive transitive closure → per-node component
    membership (``memb``) with cluster_id = min id reachable."""
    # pairs/edges/memb carry MATERIALIZED hints: when these CTEs embed in a
    # larger statement (corpus_curation composes them with three more
    # sub-oracles), DuckDB's inlining re-plans the quadratic pair relation
    # and the recursion's working set per consumer — measured >80 GB of
    # temp spill at sf0.1; materialization keeps each computed once
    return f"""
WITH RECURSIVE pairs AS MATERIALIZED ({pairs_sql}),
edges AS MATERIALIZED (
    SELECT {a} AS src, {b} AS dst FROM pairs
    UNION ALL
    SELECT {b}, {a} FROM pairs
),
reach(src, dst) AS (
    SELECT src, dst FROM edges
    UNION
    SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
memb AS MATERIALIZED (
    SELECT src AS {id_name}, LEAST(src, MIN(dst))::BIGINT AS cluster_id
    FROM reach GROUP BY src
)"""


def _cluster_ctes(threshold: float) -> str:
    from crawler_ray.pipelines.dedup import token_jaccard_sql

    return _closure_ctes(token_jaccard_sql(threshold), "doc_a", "doc_b", "doc_id")


def near_dup_clusters_sql(threshold: float = 0.95) -> str:
    return _cluster_ctes(threshold) + """
SELECT doc_id, cluster_id,
       (COUNT(*) OVER (PARTITION BY cluster_id))::BIGINT AS cluster_size
FROM memb
"""


def embedding_dedup_clusters_sql(threshold: float = 0.3) -> str:
    from crawler_ray.pipelines.similarity import embedding_near_dup_sql

    return _closure_ctes(
        embedding_near_dup_sql(threshold), "vec_a", "vec_b", "vec_id"
    ) + """
SELECT vec_id, cluster_id,
       (COUNT(*) OVER (PARTITION BY cluster_id))::BIGINT AS cluster_size
FROM memb
"""


def dedup_survivors_sql(threshold: float = 0.95) -> str:
    return _cluster_ctes(threshold) + """
SELECT d.doc_id, LENGTH(d.text)::BIGINT AS n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM memb WHERE doc_id <> cluster_id)
"""


def image_dup_clusters(
    sf_dir: str,
    max_hamming: int = 4,
    seed: int = 42,
    n_buckets: int = 8,
    walk: str = "auto",
) -> rd.Dataset:
    """IMAGE duplicate clusters: connected components over the phash
    near-dup pair graph — the image-side twin of :func:`near_dup_clusters`
    (same CC engine, edges from ``reports.images_phash_near_dups``'s
    single-exchange banded walk). The full real plumbing runs per image:
    synthesize → encode → sniff → decode → DCT phash64.

    The corpus is a deterministic function of the documents table's doc_ids
    (the sandbox stand-in for a crawled images table; a real run reads the
    crawl's Lance images output): one image per doc, with planted EXACT
    duplicates (doc_id % 10 == 1 reuses its neighbor's content) and planted
    NEAR duplicates (doc_id % 10 == 6 perturbs its neighbor's pixels before
    encoding — phash lands within Hamming ≤ 2, unrelated images sit ~24
    apart). Expected clusters are therefore {10k, 10k+1, (10k+5, 10k+6)}
    triples of pairs, asserted exactly in tests; the driver check is
    rows-only (pixel synthesis is not SQL-expressible).

    Radius vs occupancy: ``max_hamming + 1`` bands split the 64-bit phash,
    so radius 6 leaves ~9-bit bands whose 512 values SATURATE beyond ~10k
    images and the in-bucket pair walk goes quadratic (measured 33x time
    for 10x images at the 50k smoke). Radius 4 (5 bands x ~13 bits) keeps
    expected bucket occupancy bounded far longer while still catching the
    perturbed copies (Hamming <= 2). ``walk='auto'`` (default) therefore
    routes radii >= 6 through the MULTI-PROBE walk
    (``reports.images_phash_near_dups_multiprobe``: r//2+1 wide bands,
    per-band radius 1 via downward bit probes — identical pair output,
    bucket width stays ~16 bits); 'banded'/'multiprobe' force a walk."""
    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.reports import (
        images_phash_near_dups, images_phash_near_dups_multiprobe,
    )
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth_phash(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads, _caps = planted_image_batch(ids, seed, dup=True)
        out_ph = np.empty(len(ids), np.int64)
        for i, data in enumerate(payloads):
            out_ph[i] = phash64(decode_image(data, sniff_fmt(data)))
        return pa.table(
            {"image_id": pa.array([str(int(d)) for d in ids], pa.string()),
             "phash": pa.array(out_ph, pa.int64())}
        )

    images = docs.map_batches(synth_phash, batch_format="pyarrow")
    use_mp = walk == "multiprobe" or (walk == "auto" and max_hamming >= 6)
    pair_fn = images_phash_near_dups_multiprobe if use_mp else images_phash_near_dups
    pairs = pair_fn(images, max_hamming=max_hamming)

    def to_int_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {"img_a": pc.cast(t["img_a"], pa.int64()),
             "img_b": pc.cast(t["img_b"], pa.int64())}
        )

    edges = pairs.map_batches(to_int_edges, batch_format="pyarrow")
    cc = connected_components(edges, src="img_a", dst="img_b", n_buckets=n_buckets)
    labeled = cc.map_batches(
        lambda t: pa.table(
            {"image_id": t["node"].cast(pa.int64()),
             "lab": t["lab"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    return _labels_to_clusters(labeled, "image_id", n_buckets)


# ---------------------------------------------------------------------------
# PageRank: the other BSP graph verb (crawl priority scoring)


def doc_link_pagerank(sf_dir: str, n_iters: int = 5) -> rd.Dataset:
    """Fixed-point PageRank over a deterministic synthetic link graph —
    the crawl-priority verb (rank frontier hosts/pages by link authority;
    the reference's staleness priority O1 is the degenerate no-graph
    case). The graph derives from the documents table itself: doc d links
    to ``(d*7+1) % N``, ``(d*13+5) % N`` and ``(d*31+11) % N`` (self-loops
    dropped) — expressible identically in SQL, so the whole ITERATIVE
    pipeline is hash-oracled exactly, which floating-point PageRank never
    is. All arithmetic is int64 fixed point (SCALE=1e9): per iteration
    ``r' = 0.15*SCALE + (85 * Σ in-contribs) // 100`` with per-edge
    contribution ``r // outdeg``.

    Scale shape (the BSP pattern shared with ``connected_components``):
    the rank table lives in the object store between supersteps; each
    superstep is ONE map_batches (emit out-contributions — the successor
    list is computed from the node id, so no edge table is ever joined or
    even materialized) + ONE coarse-partition fold (groupby-sum of
    contributions, zero self-rows keep rankless nodes alive). Only
    nothing-but-paths state sits on the driver; per superstep the
    exchange moves O(E) slim int rows.

    Assumes doc_ids are contiguous 0..N-1 (true of the driver tables) so
    every derived successor is a real node; arbitrary ids would need an
    id-densification pass before the graph derivation.
    """
    import pyarrow.parquet as pq

    SCALE = np.int64(1_000_000_000)
    pf = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    n_docs = pf.metadata.num_rows  # footer read, not a scan
    # each doc sends up to 3 contributions and one zero self-row
    n_parts = exchange_parts(sf_dir, *["documents"] * 4)

    def _succ(ids: np.ndarray) -> np.ndarray:
        # (n, 3) successor matrix; self-loops marked -1
        s = np.stack(
            [(ids * 7 + 1) % n_docs, (ids * 13 + 5) % n_docs,
             (ids * 31 + 11) % n_docs],
            axis=1,
        )
        return np.where(s == ids[:, None], -1, s)

    def contribs(t: pa.Table) -> pa.Table:
        ids = t["node"].to_numpy()
        r = t["r"].to_numpy()
        s = _succ(ids)
        deg = (s >= 0).sum(axis=1).astype(np.int64)
        share = r // np.maximum(deg, 1)
        dst = s.ravel()
        keep = dst >= 0
        # zero self-contribution rows keep in-link-less nodes in the fold
        dst = np.concatenate([dst[keep], ids])
        c = np.concatenate([np.repeat(share, 3)[keep], np.zeros(len(ids), np.int64)])
        return pa.table(
            {"key": pa.array(dst, pa.int64()), "c": pa.array(c, pa.int64())}
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        s = df.groupby("key", sort=False)["c"].sum()
        nodes = s.index.to_numpy(np.int64)
        newr = 150_000_000 + (np.int64(85) * s.to_numpy(np.int64)) // 100
        return pa.table(
            {"node": pa.array(nodes, pa.int64()), "r": pa.array(newr, pa.int64())}
        )

    ranks = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(
        lambda t: pa.table(
            {"node": t["doc_id"],
             "r": pa.array(np.full(t.num_rows, SCALE), pa.int64())}
        ),
        batch_format="pyarrow",
    )
    for _ in range(n_iters):
        ranks = copartition(
            [ranks.map_batches(contribs, batch_format="pyarrow")],
            fold, pa.schema([("c", pa.int64())]), n_parts,
        ).materialize()
    return ranks.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "rank_scaled": t["r"]}),
        batch_format="pyarrow",
    )


def doc_link_pagerank_sql(n_iters: int = 5) -> str:
    """The SAME fixed-point iteration unrolled as generated CTEs (standard
    SQL forbids aggregation inside a recursive CTE, so each superstep is
    its own materialized CTE — and being integer arithmetic end-to-end,
    the unrolled chain is hash-exact vs the distributed run)."""
    ctes = [
        "nn AS (SELECT COUNT(*)::BIGINT AS n FROM documents)",
        """edges AS MATERIALIZED (
    SELECT src, dst FROM (
        SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT n FROM nn) AS dst
        FROM documents
        UNION ALL
        SELECT doc_id, (doc_id * 13 + 5) % (SELECT n FROM nn) FROM documents
        UNION ALL
        SELECT doc_id, (doc_id * 31 + 11) % (SELECT n FROM nn) FROM documents
    ) WHERE src <> dst
)""",
        """deg AS MATERIALIZED (
    SELECT src, COUNT(*)::BIGINT AS outdeg FROM edges GROUP BY src
)""",
        "r0 AS (SELECT doc_id AS node, 1000000000::BIGINT AS r FROM documents)",
    ]
    for i in range(n_iters):
        ctes.append(
            f"""c{i + 1} AS (
    SELECT e.dst AS node, SUM(r.r // d.outdeg)::BIGINT AS s
    FROM edges e JOIN r{i} r ON e.src = r.node JOIN deg d ON e.src = d.src
    GROUP BY e.dst
)"""
        )
        ctes.append(
            f"""r{i + 1} AS MATERIALIZED (
    SELECT doc.doc_id AS node,
           (150000000 + (85 * COALESCE(c.s, 0)) // 100)::BIGINT AS r
    FROM documents doc LEFT JOIN c{i + 1} c ON doc.doc_id = c.node
)"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node AS doc_id, r AS rank_scaled FROM r{n_iters}"
    )


def cross_snapshot_image_dups(
    sf_dir: str, max_hamming: int = 4, seed: int = 42
) -> rd.Dataset:
    """Incremental IMAGE near-dedup — the phash twin of
    ``dedup.cross_snapshot_near_dups``: which NEW images (odd doc_id
    corpus half, the "fresh crawl") are Hamming-≤d duplicates of an
    EXISTING base image (even half)? Candidate generation is the
    cross-side-ONLY walk: band rows from both sides co-locate in ONE
    coarse-partition exchange, but pairs are generated probe×base only —
    the base corpus is never re-paired with itself, so a refresh costs
    O(delta), not O(corpus). Banding is the pigeonhole split of
    ``images_phash_near_dups`` (recall guaranteed for the radius);
    exactly-once emission via first-matching-band on the two phashes.
    Rows-only driver check; planted cross-parity duplicates exact in
    tests."""
    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    n_bands = max(2, min(64, max_hamming + 1))
    widths = [64 // n_bands + (1 if i < 64 % n_bands else 0)
              for i in range(n_bands)]
    offsets = np.cumsum([0] + widths[:-1]).tolist()
    off_arr = np.asarray(offsets, dtype=np.uint64)
    mask_arr = np.asarray([(1 << w) - 1 for w in widths], dtype=np.uint64)
    _POP = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1).astype(np.uint8)

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def band_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads, _caps = planted_image_batch(ids, seed, dup=True)
        ph = np.empty(len(ids), np.uint64)
        for i, data in enumerate(payloads):
            ph[i] = np.uint64(np.int64(phash64(decode_image(data, sniff_fmt(data)))))
        side = (ids % 2).astype(np.int64)  # 0 = base (even), 1 = probe (odd)
        band_val = (ph[:, None] >> off_arr[None, :]) & mask_arr[None, :]
        q = np.arange(n_bands, dtype=np.int64)[None, :]
        bucket = ((q << np.int64(48)) | band_val.astype(np.int64)).ravel()
        idx = np.repeat(np.arange(len(ids)), n_bands)
        return pa.table(
            {"key": pa.array(bucket, pa.int64()),
             "doc_id": pa.array(ids[idx], pa.int64()),
             "side": pa.array(side[idx], pa.int64()),
             "phash": pa.array(ph[idx].astype(np.int64), pa.int64())}
        )

    def cross_walk(g: pa.Table) -> pa.Table:
        n = g.num_rows
        out_b, out_n, out_d = [], [], []
        if n >= 2:
            bkt = g["key"].to_numpy()
            ids = g["doc_id"].to_numpy()
            side = g["side"].to_numpy()
            ph = g["phash"].to_numpy().astype(np.uint64)
            order = np.lexsort((ids, side, bkt))
            bkt, ids, side, ph = bkt[order], ids[order], side[order], ph[order]
            starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
            ends = np.r_[starts[1:], n]
            cum = np.r_[0, np.cumsum(side)]
            pc = cum[ends] - cum[starts]
            bc = (ends - starts) - pc
            pair_chunk = 1 << 16  # stream probe×base pairs (a saturated
            # band bucket would otherwise materialize npr*nb index/XOR
            # temporaries in one shot — the dedup.py cross-pair walks
            # learned this at 50k scale)
            for s, nb, npr in zip(starts.tolist(), bc.tolist(), pc.tolist()):
                if nb == 0 or npr == 0:
                    continue
                rows_per = max(1, pair_chunk // nb)
                for p0 in range(0, npr, rows_per):
                    p1 = min(p0 + rows_per, npr)
                    pi = np.repeat(np.arange(p0, p1), nb) + s + nb
                    bi = np.tile(np.arange(nb), p1 - p0) + s
                    x = ph[pi] ^ ph[bi]
                    d = np.zeros(len(x), np.int64)
                    for shift in range(0, 64, 8):
                        d += _POP[
                            ((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(
                                np.uint8
                            )
                        ]
                    ok = d <= max_hamming
                    if not ok.any():
                        continue
                    sel = np.flatnonzero(ok)
                    # canonical-band dedup: emit only from the first band the
                    # two phashes agree on (recomputable in every bucket)
                    bv_a = (
                        ph[pi[sel], None] >> off_arr[None, :]
                    ) & mask_arr[None, :]
                    bv_b = (
                        ph[bi[sel], None] >> off_arr[None, :]
                    ) & mask_arr[None, :]
                    eq = bv_a == bv_b
                    cur = (
                        bkt[pi[sel]].astype(np.uint64) >> np.uint64(48)
                    ).astype(np.int64)
                    keep = (~eq.any(axis=1)) | (eq.argmax(axis=1) == cur)
                    if keep.any():
                        out_b.append(ids[bi[sel[keep]]])
                        out_n.append(ids[pi[sel[keep]]])
                        out_d.append(d[sel[keep]])
        bb = np.concatenate(out_b) if out_b else np.array([], np.int64)
        nn = np.concatenate(out_n) if out_n else np.array([], np.int64)
        dd = np.concatenate(out_d) if out_d else np.array([], np.int64)
        return pa.table(
            {"base_img": pa.array(bb, pa.int64()),
             "new_img": pa.array(nn, pa.int64()),
             "hamming": pa.array(dd, pa.int64())}
        )

    return copartition(
        [docs.map_batches(band_rows, batch_format="pyarrow")],
        cross_walk,
        pa.schema([("doc_id", pa.int64()), ("side", pa.int64()),
                   ("phash", pa.int64())]),
        # each doc sends one row per band
        exchange_parts(sf_dir, *["documents"] * n_bands),
    )


def _derived_link_edges(sf_dir: str) -> tuple[rd.Dataset, int, int]:
    """Canonical UNDIRECTED edge set of the derived doc link graph, shared
    by the triangle and k-core verbs: doc ``d`` links to ``(d*7+1)%N``,
    ``(d*13+5)%N``, ``(d*31+11)%N`` plus ring chords ``(d+1)%N``,
    ``(d+2)%N`` (self-loops dropped). Edges are id-oriented ``u<v``, packed
    as ``u*N+v`` int64 (needs ``N < ~3e9``; beyond that switch to a
    two-column struct key), exact-deduped in ONE hash-partition exchange
    with in-batch pre-dedup as the combiner. Returns the MATERIALIZED
    single-column ``packed`` Dataset, N (from the parquet footer) and the
    partition count of the exchanges over the edges: each doc sends at
    most 5 edges, so the documents footer is named 5 times."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    n = pf.metadata.num_rows  # footer read, not a scan
    n_parts = exchange_parts(sf_dir, *["documents"] * 5)

    def edge_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        s = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 5) % n, (ids * 31 + 11) % n,
             (ids + 1) % n, (ids + 2) % n],
            axis=1,
        )
        src = np.repeat(ids, 5)
        dst = s.ravel()
        keep = dst != src
        u = np.minimum(src[keep], dst[keep])
        v = np.maximum(src[keep], dst[keep])
        packed = np.unique(u * n + v)  # in-batch pre-dedup (combiner)
        return pa.table({"key": pa.array(packed, pa.int64())})

    def dedup_edges(g: pa.Table) -> pa.Table:
        packed = np.unique(g["key"].to_numpy())
        return pa.table({"packed": pa.array(packed, pa.int64())})

    edges = copartition(
        [rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
         .map_batches(edge_batch, batch_format="pyarrow")],
        dedup_edges, pa.schema([]), n_parts,
    ).materialize()
    return edges, n, n_parts


def _tri_batch(t: pa.Table, n: int) -> pa.Table:
    """Whole-graph triangle counts in one task (small-graph fast path):
    the identical wedge walk + membership check the partitioned stages
    run, just over the complete edge array. O(E·d) numpy work."""
    packed = np.sort(t["packed"].to_numpy())
    u = packed // n
    v = packed % n
    _, counts = np.unique(u, return_counts=True)
    kmax = int(counts.max()) if len(counts) else 0
    wc_l, wp_l = [], []
    for k in range(1, kmax):
        m = u[:-k] == u[k:]
        if m.any():
            wc_l.append(u[:-k][m])
            wp_l.append(v[:-k][m] * n + v[k:][m])
    if not wc_l:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_triangles": pa.array([], pa.int64())}
        )
    wc = np.concatenate(wc_l)
    wp = np.concatenate(wp_l)
    hit = np.isin(wp, packed)  # packed is the FULL sorted edge set here
    tp = wp[hit]
    nodes = np.concatenate([wc[hit], tp // n, tp % n])
    uniq, cnt = np.unique(nodes, return_counts=True)
    return pa.table(
        {"doc_id": pa.array(uniq, pa.int64()),
         "n_triangles": pa.array(cnt.astype(np.int64), pa.int64())}
    )


def doc_link_triangles(sf_dir: str, small_edges: int = 1_000_000) -> rd.Dataset:
    """Per-node triangle counts over the derived doc link graph — the third
    graph verb beside ``connected_components`` and ``doc_link_pagerank``
    (triangle participation is the standard local-clustering / spam-farm
    signal a link-graph curation pass computes). Deterministic graph =
    pagerank's links ``(d*7+1)%N``, ``(d*13+5)%N``, ``(d*31+11)%N`` PLUS
    ring chords ``(d+1)%N``, ``(d+2)%N`` (self-loops dropped), taken as
    UNDIRECTED edges — the chords guarantee triangles exist and the
    multiplicative links make the per-node counts irregular (3–6 at test
    scales), so the oracle compare is non-vacuous.

    Distributed shape (the MapReduce wedge-check algorithm, Suri &
    Vassilvitskii, "Counting Triangles and the Curse of the Last Reducer",
    WWW'11 — id-ordered orientation):

    1. derive + canonicalize edges ``(u<v)`` packed as ``u*N+v`` int64,
       ONE hash-partition exchange for exact global dedup;
    2. co-locate each low-endpoint's adjacency (partition by ``u``), emit
       wedges ``(center u, packed (v,w))`` with a distance-``k`` shifted
       segment walk — zero Python per-row work, O(max_degree) vector ops;
    3. existence join: wedges ⋈ edges on the packed pair key (one tagged
       union + partition fold, ``np.isin`` membership) — every hit is a
       triangle ``(u,v,w)``, contributing 1 to each corner;
    4. per-node coarse-partition count fold.

    Every stage moves slim int64 rows; no driver materialization. Packing
    needs ``N < ~3e9`` (``N**2 < 2**63``) — beyond that the pair key
    becomes a two-column struct, same plan otherwise. Skew note: wedge
    fan-out at a hub node is C(deg,2) from its LOW endpoint only; the
    id-ordered orientation bounds it the same way degree-ordering does in
    the paper for power-law graphs (here degrees are ~6 by construction).

    Output: ``(doc_id, n_triangles)`` for every doc in ≥1 triangle.

    Two paths by materialized edge count (the ``connected_components``
    pattern): ``≤ small_edges`` runs the SAME wedge walk + membership
    check in ONE task — the 4 all-to-all exchanges' fixed cost dominates
    small graphs (measured 9.9 s at 25k edges vs ~2 s single-task). The
    crossover is LOW because wedge work is O(E·d) and parallelizes well:
    at 2.5M edges the BSP path already wins 3× (measured 5.0 s vs
    16.1 s single-task on the 500k-node smoke), hence the 1M default —
    much lower than k-core's 50M, whose per-round work is only O(E).
    The exchanges take the edge set's partition count; wedges can
    outnumber edges, but that path runs only above ``small_edges``, far
    past one read block of documents.
    """
    edges, n, n_parts = _derived_link_edges(sf_dir)
    # edges is materialized: count is free, and it's reused downstream

    if edges.count() <= small_edges:
        return edges.repartition(1).map_batches(
            lambda t: _tri_batch(t, n), batch_format="pyarrow", batch_size=None
        )

    def key_by_u(t: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(t["packed"].to_numpy() // n),
                         "packed": t["packed"]})

    def wedge_walk(g: pa.Table) -> pa.Table:
        # rows sorted by packed == sorted by (u, v); same-u runs are
        # contiguous, so pairs-at-distance-k shifted compares enumerate
        # every within-segment (v, w) pair exactly once
        packed = np.sort(g["packed"].to_numpy())
        u = packed // n
        v = packed % n
        _, counts = np.unique(u, return_counts=True)
        kmax = int(counts.max()) if len(counts) else 0
        centers, pairs = [], []
        for k in range(1, kmax):
            m = u[:-k] == u[k:]
            if m.any():
                centers.append(u[:-k][m])
                pairs.append(v[:-k][m] * n + v[k:][m])
        wc = np.concatenate(centers) if centers else np.array([], np.int64)
        wp = np.concatenate(pairs) if pairs else np.array([], np.int64)
        return pa.table(
            {"key": pa.array(wp, pa.int64()), "center": pa.array(wc, pa.int64())}
        )

    wedges = copartition(
        [edges.map_batches(key_by_u, batch_format="pyarrow")],
        wedge_walk, pa.schema([("packed", pa.int64())]), n_parts,
    )

    def tri_nodes(w: pa.Table, e: pa.Table) -> pa.Table:
        wpk = w["key"].to_numpy()
        wc = w["center"].to_numpy()
        hit = np.isin(wpk, e["key"].to_numpy())
        tp = wpk[hit]
        nodes = np.concatenate([wc[hit], tp // n, tp % n])
        uniq, cnt = (
            np.unique(nodes, return_counts=True)
            if len(nodes)
            else (np.array([], np.int64), np.array([], np.int64))
        )
        return pa.table(
            {"key": pa.array(uniq, pa.int64()),
             "c": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def count_fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        s = df.groupby("key", sort=False)["c"].sum()
        return pa.table(
            {
                "doc_id": pa.array(s.index.to_numpy(np.int64), pa.int64()),
                "n_triangles": pa.array(s.to_numpy(np.int64), pa.int64()),
            }
        )

    nodes = copartition(
        [wedges,
         edges.map_batches(lambda t: pa.table({"key": t["packed"]}),
                           batch_format="pyarrow")],
        tri_nodes, pa.schema([("center", pa.int64())]), n_parts,
    )
    return copartition(
        [nodes], count_fold, pa.schema([("c", pa.int64())]), n_parts)


def doc_link_triangles_sql() -> str:
    """Exact SQL twin: same derived edges, id-ordered wedge join, existence
    check, per-corner count — all integers, hash-exact."""
    return """
WITH nn AS (SELECT COUNT(*)::BIGINT AS n FROM documents),
raw AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT n FROM nn) AS dst
    FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 1) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 2) % (SELECT n FROM nn) FROM documents
),
e AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst)::BIGINT AS u, GREATEST(src, dst)::BIGINT AS v
    FROM raw WHERE src <> dst
),
tri AS MATERIALIZED (
    SELECT e1.u AS a, e1.v AS b, e2.v AS c
    FROM e e1
    JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
    JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
)
SELECT node AS doc_id, COUNT(*)::BIGINT AS n_triangles
FROM (
    SELECT a AS node FROM tri
    UNION ALL SELECT b FROM tri
    UNION ALL SELECT c FROM tri
)
GROUP BY node
"""


def image_orbit_dups(
    sf_dir: str,
    max_hamming: int = 4,
    seed: int = 42,
) -> rd.Dataset:
    """Rotation/mirror-INVARIANT image near-dup pairs — catches duplicates
    ``image_dup_clusters``'s plain phash cannot see (a 90° rotation moves
    a phash ~32 bits; re-hosted images are routinely rotated, mirrored or
    EXIF-orientation-stripped). Method: each image contributes its full
    DIHEDRAL ORBIT — the 8 phashes of the 4 rotations × optional flip
    (``functions/hashing.dihedral_phash64s``); the orbit SET is invariant
    under any dihedral transform of the pixels, so two images matching in
    ANY cross-image orbit pair within Hamming ≤ d are near-dups up to
    rotation/mirroring.

    Distributed shape: the 8 orbit rows ride the SAME single-exchange
    banded segment walk as plain phash (8× band-row volume, constant
    factor, size-independent), then ONE slim pair-dedup fold collapses
    pairs re-found via different orbit combinations (keeping the minimum
    Hamming). The walk's per-bucket ``(bucket, image_id)`` dedup already
    prevents self-pairs from symmetric images. The pair count has no
    footer bound, so the fold takes ``EXCHANGE_PARTS`` partitions.

    Planted truth (``planted_image_batch(orbit=True)``): doc ``10k+4`` is
    ``10k+3`` rotated 90° (exact under transform), doc ``10k+9`` is
    ``10k+8`` mirrored + perturbed (orbit-near). Rows-only driver check —
    pixel synthesis is not SQL-expressible; tests assert the planted pairs
    exactly AND that plain phash misses the rotated ones.
    """
    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import dihedral_phash64s
    from crawler_ray.pipelines.reports import images_phash_near_dups
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth_orbit_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads, _caps = planted_image_batch(ids, seed, orbit=True)
        out_id: list[str] = []
        out_ph: list[int] = []
        for d, data in zip(ids, payloads):
            sid = str(int(d))
            for h in dihedral_phash64s(decode_image(data, sniff_fmt(data))):
                out_id.append(sid)
                out_ph.append(h)
        return pa.table(
            {"image_id": pa.array(out_id, pa.string()),
             "phash": pa.array(out_ph, pa.int64())}
        )

    orbit_rows = docs.map_batches(synth_orbit_rows, batch_format="pyarrow")
    pairs = images_phash_near_dups(orbit_rows, max_hamming=max_hamming)

    def key_pairs(t: pa.Table) -> pa.Table:
        a = np.asarray(t["img_a"].to_pylist(), dtype=object)
        b = np.asarray(t["img_b"].to_pylist(), dtype=object)
        keep = a != b  # defensive: cross-orbit self-matches
        t = t.filter(pa.array(keep))
        key = pd.util.hash_array(
            np.char.add(
                np.char.add(a[keep].astype(str), "|"), b[keep].astype(str)
            ).astype(object)
        ).view(np.int64)
        return t.append_column("key", pa.array(key, pa.int64()))

    def dedup_fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = (
            df.groupby(["img_a", "img_b"], sort=False)["hamming"]
            .min()
            .reset_index()
        )
        return pa.table(
            {"img_a": pa.array(out["img_a"], pa.string()),
             "img_b": pa.array(out["img_b"], pa.string()),
             "hamming": pa.array(out["hamming"].to_numpy(np.int64), pa.int64())}
        )

    return copartition(
        [pairs.map_batches(key_pairs, batch_format="pyarrow")],
        dedup_fold,
        pa.schema([("img_a", pa.string()), ("img_b", pa.string()),
                   ("hamming", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )


def image_crop_dups(
    sf_dir: str,
    max_hamming: int = 4,
    seed: int = 42,
) -> rd.Dataset:
    """CROP/derivative image detection — catches the third re-hosting
    transform plain phash misses (beside ``image_orbit_dups``'s
    rotations/mirrors): thumbnails and social-media crops that keep one
    REGION of the original. Method: every image contributes its full-frame
    phash plus the 4 QUADRANT phashes; a crop-of-a-quadrant duplicate is a
    (source-quadrant, crop-full-frame) match — phash is scale-invariant
    (both sides resize to the same 32x32 DCT grid), so an exact quadrant
    crop matches at Hamming 0 regardless of the crop's stored resolution.

    Distributed shape: the 5 tagged hash rows per image ride the SAME
    single-exchange banded segment walk as plain phash (5x band-row
    volume, constant factor, size-independent); a vectorized post-filter
    keeps only full<->quadrant cross-image matches, then ONE slim
    pair-dedup fold keeps the minimum-Hamming quadrant per (src, crop),
    over ``EXCHANGE_PARTS`` partitions (the pair count has no footer bound).
    Finer grids (3x3 overlapped tiles) are the same plan at 10 rows/image.

    Planted truth (``planted_image_batch(crop=True)``): doc ``10k+2`` IS
    doc ``10k+1``'s top-left quadrant (Hamming 0, quadrant 0); doc
    ``10k+5`` is ``10k+4``'s bottom-right quadrant perturbed
    (quadrant-near, quadrant 3). Rows-only driver check — pixel synthesis
    is not SQL-expressible; tests assert the planted pairs exactly AND
    that full-frame phash alone misses them.
    """
    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.reports import images_phash_near_dups
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth_tile_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads, _caps = planted_image_batch(ids, seed, crop=True)
        out_id: list[str] = []
        out_ph: list[int] = []
        for d, data in zip(ids, payloads):
            sid = str(int(d))
            px = decode_image(data, sniff_fmt(data))
            h2, w2 = px.shape[0] // 2, px.shape[1] // 2
            out_id.append(sid + "#f")
            out_ph.append(phash64(px))
            for qi, q in enumerate(
                (px[:h2, :w2], px[:h2, w2:], px[h2:, :w2], px[h2:, w2:])
            ):
                out_id.append(f"{sid}#q{qi}")
                out_ph.append(phash64(q))
        return pa.table(
            {"image_id": pa.array(out_id, pa.string()),
             "phash": pa.array(out_ph, pa.int64())}
        )

    tile_rows = docs.map_batches(synth_tile_rows, batch_format="pyarrow")
    pairs = images_phash_near_dups(tile_rows, max_hamming=max_hamming)

    def cross_kind(t: pa.Table) -> pa.Table:
        """Keep full<->quadrant matches across DIFFERENT images, oriented
        (src=quadrant side, crop=full side); tag the quadrant index."""
        df = t.to_pandas()
        a = df["img_a"].str.rsplit("#", n=1, expand=True)
        b = df["img_b"].str.rsplit("#", n=1, expand=True)
        a_full = a[1] == "f"
        b_full = b[1] == "f"
        keep = (a_full ^ b_full) & (a[0] != b[0])
        df = df[keep]
        src = np.where(a_full[keep], b[0][keep], a[0][keep])
        crp = np.where(a_full[keep], a[0][keep], b[0][keep])
        quad = np.where(a_full[keep], b[1][keep], a[1][keep])
        out = pd.DataFrame(
            {"src_img": src, "crop_img": crp,
             "quadrant": pd.Series(quad).str[1:].astype(np.int64),
             "hamming": df["hamming"].to_numpy(np.int64)}
        )
        out["key"] = pd.util.hash_array(
            (out["src_img"] + "|" + out["crop_img"]).to_numpy(dtype=object)
        ).view(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def dedup_fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        # min-Hamming quadrant per (src, crop); quadrant index breaks ties
        df = df.sort_values(
            ["src_img", "crop_img", "hamming", "quadrant"], kind="mergesort"
        ).drop_duplicates(["src_img", "crop_img"])
        return pa.table(
            {"src_img": pa.array(df["src_img"], pa.string()),
             "crop_img": pa.array(df["crop_img"], pa.string()),
             "quadrant": pa.array(df["quadrant"].to_numpy(np.int64), pa.int64()),
             "hamming": pa.array(df["hamming"].to_numpy(np.int64), pa.int64())}
        )

    return copartition(
        [pairs.map_batches(cross_kind, batch_format="pyarrow")],
        dedup_fold,
        pa.schema([("src_img", pa.string()), ("crop_img", pa.string()),
                   ("quadrant", pa.int64()), ("hamming", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )


def _kcore_batch(t: pa.Table, n: int, k: int) -> pa.Table:
    """Whole-graph k-core peel in one task (small-graph fast path): the
    same peel-to-fixpoint, all numpy. O(E) per sweep, few sweeps."""
    packed = t["packed"].to_numpy()
    u = packed // n
    v = packed % n
    while len(u):
        nodes = np.concatenate([u, v])
        uniq, inv = np.unique(nodes, return_inverse=True)
        cnt = np.bincount(inv)
        if (cnt >= k).all():
            return pa.table(
                {"doc_id": pa.array(uniq, pa.int64()),
                 "core_degree": pa.array(cnt.astype(np.int64), pa.int64())}
            )
        live = uniq[cnt >= k]
        keep = np.isin(u, live) & np.isin(v, live)
        u, v = u[keep], v[keep]
    return pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "core_degree": pa.array([], pa.int64())}
    )


def doc_link_kcore(
    sf_dir: str,
    k: int = 8,
    max_rounds: int = 30,
    small_edges: int = 50_000_000,
) -> rd.Dataset:
    """k-core of the derived doc link graph — the fourth graph verb
    (components, PageRank, triangles, coreness): the maximal subgraph in
    which every node keeps degree ≥ k, the standard "dense-neighborhood"
    filter for link-spam pruning and seed selection. Classic BSP peeling
    (Montresor et al., "Distributed k-Core Decomposition", PODC'11
    simplified to the fixed-k case):

    per round — (1) ONE coarse-partition degree fold over the live edge
    set (in-batch ``np.unique`` partials as the combiner), (2) drop nodes
    with degree < k (only the SCALAR dropped-count reaches the driver),
    (3) two tagged-union semi-join exchanges filter edges to live×live
    endpoints. Fixpoint when nothing drops; the edge set shrinks
    monotonically so later rounds cost less. All rows are slim int64.

    Output: ``(doc_id, core_degree)`` for every node in the k-core, where
    ``core_degree`` is the node's degree WITHIN the core (≥ k by
    construction). Default k=8 peels a 3-round cascade at the driver
    scales while leaving a non-empty core (degrees are 7–10 by
    construction). The SQL oracle unrolls ``KCORE_SQL_ROUNDS`` peeling
    iterations — sound because extra iterations past the fixpoint are
    identity; the distributed side iterates to TRUE fixpoint, so keep the
    unroll ≥ the deepest cascade at oracle scales (3 at sf0.01/sf0.1,
    margin to 8).

    Two paths by materialized edge count (the ``connected_components``
    pattern): ``≤ small_edges`` peels the whole graph in ONE task — the
    BSP rounds cost ~3 exchanges each whose fixed cost dwarfs small
    graphs. Above it, the BSP rounds coalesce blocks per round (a
    ``repartition`` to the exchange's count) so union+exchange block counts don't
    compound round over round; that path runs only above ``small_edges``,
    far past one read block of documents.
    """
    edges, n, n_parts = _derived_link_edges(sf_dir)

    if edges.count() <= small_edges:
        return edges.repartition(1).map_batches(
            lambda t: _kcore_batch(t, n, k),
            batch_format="pyarrow",
            batch_size=None,
        )

    def deg_rows(t: pa.Table) -> pa.Table:
        packed = t["packed"].to_numpy()
        nodes = np.concatenate([packed // n, packed % n])
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table(
            {"key": pa.array(uniq, pa.int64()),
             "c": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def deg_fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        s = df.groupby("key", sort=False)["c"].sum()
        return pa.table(
            {
                "node": pa.array(s.index.to_numpy(np.int64), pa.int64()),
                "deg": pa.array(s.to_numpy(np.int64), pa.int64()),
            }
        )

    def live_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.filter(pc.greater_equal(t["deg"], k))["node"]})

    def key_edges_by(end_idx: int):
        def fn(t: pa.Table) -> pa.Table:
            packed = t["packed"].to_numpy()
            end = packed // n if end_idx == 0 else packed % n
            return pa.table({"key": pa.array(end, pa.int64()),
                             "packed": pa.array(packed, pa.int64())})

        return fn

    def semi_filter(e: pa.Table, live: pa.Table) -> pa.Table:
        keep = np.isin(e["key"].to_numpy(), live["key"].to_numpy())
        return pa.table({"packed": e["packed"].filter(pa.array(keep))})

    def semi_pass(edges: rd.Dataset, live: rd.Dataset, end_idx: int):
        return copartition(
            [edges.map_batches(key_edges_by(end_idx), batch_format="pyarrow"),
             live],
            semi_filter, pa.schema([("packed", pa.int64())]), n_parts,
        ).repartition(n_parts)

    for _ in range(max_rounds):
        deg = copartition(
            [edges.map_batches(deg_rows, batch_format="pyarrow")],
            deg_fold, pa.schema([("c", pa.int64())]), n_parts,
        ).materialize()
        n_low = deg.map_batches(
            lambda t: pa.table(
                {"n": pa.array(
                    [int(np.count_nonzero(t["deg"].to_numpy() < k))], pa.int64()
                )}
            ),
            batch_format="pyarrow",
        ).sum("n")
        # Dataset.sum on an EMPTY dataset returns None (fully peeled graph):
        # treat it as 0 low-degree nodes or the loop burns every remaining
        # round scheduling empty exchanges
        if not n_low:
            break
        # live is materialized: it feeds BOTH semi passes, and the per-round
        # repartition keeps union+groupby block counts flat across rounds
        # (the connected_components lesson: compounding blocks turned 2.6 s
        # rounds into 27 s by round 3)
        live = deg.map_batches(
            live_rows, batch_format="pyarrow"
        ).repartition(n_parts).materialize()
        edges = semi_pass(semi_pass(edges, live, 0), live, 1).materialize()

    return deg.map_batches(
        lambda t: pa.table(
            {"doc_id": t["node"], "core_degree": t["deg"]}
        ),
        batch_format="pyarrow",
    )


KCORE_SQL_ROUNDS = 8


def doc_link_kcore_sql(k: int = 8) -> str:
    """Exact SQL twin: the peeling iteration unrolled as materialized CTEs
    (extra iterations past the fixpoint are identity, so a fixed unroll ≥
    the real cascade depth is exact)."""
    ctes = [
        "nn AS (SELECT COUNT(*)::BIGINT AS n FROM documents)",
        """raw AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT n FROM nn) AS dst
    FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 1) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 2) % (SELECT n FROM nn) FROM documents
)""",
        """e AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst)::BIGINT AS u, GREATEST(src, dst)::BIGINT AS v
    FROM raw WHERE src <> dst
)""",
        """sym AS MATERIALIZED (
    SELECT u AS a, v AS b FROM e UNION ALL SELECT v, u FROM e
)""",
        f"""l0 AS MATERIALIZED (
    SELECT a AS node FROM sym GROUP BY a HAVING COUNT(*) >= {k}
)""",
    ]
    for i in range(KCORE_SQL_ROUNDS):
        ctes.append(
            f"""l{i + 1} AS MATERIALIZED (
    SELECT s.a AS node FROM sym s
    JOIN l{i} x ON s.a = x.node JOIN l{i} y ON s.b = y.node
    GROUP BY s.a HAVING COUNT(*) >= {k}
)"""
        )
    last = f"l{KCORE_SQL_ROUNDS}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
SELECT s.a AS doc_id, COUNT(*)::BIGINT AS core_degree
FROM sym s
JOIN {last} x ON s.a = x.node JOIN {last} y ON s.b = y.node
GROUP BY s.a
"""
    )


# ---------------------------------------------------------------------------
# BFS hop distances: the fifth graph verb (frontier expansion — the same
# shape as the crawl frontier itself, made a queryable operator)


def _bfs_batch(
    t: pa.Table, n: int, seeds_mod: int, n_hops: int
) -> pa.Table:
    """Single-task BFS over the packed edge array (small-graph fast path)."""
    packed = t["packed"].to_numpy()
    u, v = packed // n, packed % n
    dist = np.full(n, -1, np.int64)
    frontier = np.arange(0, n, seeds_mod, dtype=np.int64)
    dist[frontier] = 0
    for h in range(1, n_hops + 1):
        fmask = np.zeros(n, dtype=bool)
        fmask[frontier] = True
        cand = np.unique(np.concatenate([v[fmask[u]], u[fmask[v]]]))
        new = cand[dist[cand] < 0]
        if len(new) == 0:
            break
        dist[new] = h
        frontier = new
    nodes = np.nonzero(dist >= 0)[0].astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "dist": pa.array(dist[nodes], pa.int64()),
        }
    )


def doc_link_distances(
    sf_dir: str,
    n_hops: int = 4,
    seeds_mod: int = 97,
    small_edges: int = 50_000_000,
) -> rd.Dataset:
    """Min-hop distances from a seed set (doc_id % ``seeds_mod`` == 0) over
    the derived doc link graph, bounded at ``n_hops`` — BFS / unweighted
    SSSP, the frontier-expansion verb. Output: ``(doc_id, dist)`` for every
    node within ``n_hops`` (seeds at 0). The crawl scheduler IS this shape
    (expand a frontier level, anti-join the seen set); here it's exposed as
    a graph operator with an exact oracle.

    BSP superstep = two exchanges, all rows slim int64 triples:
    (1) edges keyed by BOTH endpoints union the tagged frontier → per
    partition, neighbors of frontier nodes (``np.isin`` segment walk);
    (2) candidates union the tagged visited set → per partition the
    anti-join keeps first-time nodes, which become the next frontier AND
    the ``dist=h`` output rows. The frontier/visited sets stay distributed
    (hash-partitioned) end to end — only the scalar new-node count reaches
    the driver, exactly like the crawl's de-drivered frontier. Fixed
    ``n_hops`` bounds the unrolled SQL twin; early-exit when a level is
    empty (identity levels keep the oracle exact).

    Small-graph fast path (the ``connected_components`` two-path pattern):
    ≤ ``small_edges`` runs the same BFS in ONE task. Unlike triangles
    (whose O(E·d) wedge work parallelizes past 2.5M edges), BFS levels are
    EXCHANGE-bound — measured on the 500k-node / 2.5M-edge smoke: fast
    5.8 s vs BSP 14.1 s (~2.6 s/level of fixed exchange cost, identical
    outputs) — so the crossover follows k-core's 50M default, not
    triangles' 1M. The BSP path's exchanges take the edge set's partition
    count; it runs only above ``small_edges``, far past one read block.
    """
    edges, n, n_parts = _derived_link_edges(sf_dir)

    if edges.count() <= small_edges:
        return edges.repartition(1).map_batches(
            lambda t: _bfs_batch(t, n, seeds_mod, n_hops),
            batch_format="pyarrow",
            batch_size=None,
        )

    def key_edges_both(t: pa.Table) -> pa.Table:
        packed = t["packed"].to_numpy()
        u, v = packed // n, packed % n
        return pa.table(
            {"key": pa.array(np.concatenate([u, v]), pa.int64()),
             "other": pa.array(np.concatenate([v, u]), pa.int64())}
        )

    def keyed(ds: rd.Dataset) -> rd.Dataset:
        return ds.map_batches(lambda t: pa.table({"key": t["node"]}),
                              batch_format="pyarrow")

    def expand(e: pa.Table, front: pa.Table) -> pa.Table:
        hit = np.isin(e["key"].to_numpy(), front["key"].to_numpy())
        return pa.table(
            {"key": pa.array(np.unique(e["other"].to_numpy()[hit]), pa.int64())}
        )

    def anti(cand: pa.Table, seen: pa.Table) -> pa.Table:
        new = np.unique(cand["key"].to_numpy())
        new = new[~np.isin(new, seen["key"].to_numpy())]
        return pa.table({"node": pa.array(new, pa.int64())})

    seeds = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .map_batches(
            lambda t: pa.table(
                {
                    "node": pa.array(
                        t["doc_id"].to_numpy()[
                            t["doc_id"].to_numpy() % seeds_mod == 0
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .repartition(n_parts)
        .materialize()
    )
    frontier = seeds
    visited = seeds
    levels: list[tuple[rd.Dataset, int]] = [(seeds, 0)]
    for h in range(1, n_hops + 1):
        cand = copartition(
            [edges.map_batches(key_edges_both, batch_format="pyarrow"),
             keyed(frontier)],
            expand, pa.schema([("other", pa.int64())]), n_parts,
        )
        new = copartition(
            [cand, keyed(visited)], anti, pa.schema([]), n_parts,
        ).repartition(n_parts).materialize()
        n_new = new.count()  # scalar only — driver holds no node rows
        if n_new == 0:
            break
        levels.append((new, h))
        frontier = new
        visited = visited.union(new).repartition(n_parts).materialize()

    out = None
    for ds, h in levels:
        lvl = ds.map_batches(
            lambda t, _h=h: pa.table(
                {
                    "doc_id": t["node"],
                    "dist": pa.array(
                        np.full(t.num_rows, _h, np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        out = lvl if out is None else out.union(lvl)
    return out


def doc_link_distances_sql(n_hops: int = 4, seeds_mod: int = 97) -> str:
    """Exact SQL twin: BFS levels unrolled as materialized CTEs (empty
    levels are identity, so the fixed unroll matches the early-exiting
    distributed side exactly)."""
    ctes = [
        "nn AS (SELECT COUNT(*)::BIGINT AS n FROM documents)",
        """raw AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT n FROM nn) AS dst
    FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 1) % (SELECT n FROM nn) FROM documents
    UNION ALL
    SELECT doc_id, (doc_id + 2) % (SELECT n FROM nn) FROM documents
)""",
        """e AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst)::BIGINT AS u, GREATEST(src, dst)::BIGINT AS v
    FROM raw WHERE src <> dst
)""",
        """sym AS MATERIALIZED (
    SELECT u AS a, v AS b FROM e UNION ALL SELECT v, u FROM e
)""",
        f"""f0 AS MATERIALIZED (
    SELECT doc_id::BIGINT AS node FROM documents WHERE doc_id % {seeds_mod} = 0
)""",
        """v0 AS MATERIALIZED (SELECT node, 0::BIGINT AS dist FROM f0)""",
    ]
    for i in range(1, n_hops + 1):
        ctes.append(
            f"""f{i} AS MATERIALIZED (
    SELECT DISTINCT s.b AS node FROM sym s
    JOIN f{i - 1} p ON s.a = p.node
    WHERE s.b NOT IN (SELECT node FROM v{i - 1})
)"""
        )
        ctes.append(
            f"""v{i} AS MATERIALIZED (
    SELECT node, dist FROM v{i - 1}
    UNION ALL SELECT node, {i}::BIGINT FROM f{i}
)"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node AS doc_id, dist FROM v{n_hops}\n"
    )


# ---------------------------------------------------------------------------
# anchor-text aggregation — the classic web-graph operator (per-target
# in-link anchor profiles, how search engines describe pages they haven't
# parsed); sixth verb over the same derived link graph


def anchor_text_profiles(sf_dir: str) -> rd.Dataset:
    """Per link TARGET: in-link count and the most frequent anchor token
    (ties broken lexicographically). Uses the same deterministic derived
    link graph as ``doc_link_pagerank`` (doc d → (d·7+1)%N, (d·13+5)%N,
    (d·31+11)%N, self-loops dropped); the anchor of slot i is the i-th
    whitespace token of the SOURCE doc (repo tokenizer convention:
    Python ``strip().lower().split()`` — UNICODE whitespace; the SQL twin
    uses the char-exact RE2 class
    ``[\\s\\x0b\\x1c-\\x1f\\x85\\p{Z}\\x{2028}\\x{2029}]`` with empty
    tokens filtered), edges whose source is too short carry no anchor and
    are skipped.

    Scale shape: edges never materialize as a table — each documents block
    emits per-(block, dst, anchor) COUNT partials (combiner), ONE dst-hash
    exchange co-locates each target's in-links, and the in-task fold
    resolves total + argmax. The exchange volume is bounded by distinct
    (dst, anchor) pairs per block, not by edge count."""
    import pyarrow.parquet as pq

    from crawler_ray.sources.io import read_parquet_sized

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    docs = read_parquet_sized(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        target_rows_per_block=2048,
    )

    def edge_partials(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ids = df["doc_id"].to_numpy(np.int64)
        toks = df["text"].str.strip().str.lower().str.split()
        parts = []
        for slot, (mul, add) in enumerate([(7, 1), (13, 5), (31, 11)]):
            dst = (ids * mul + add) % n_docs
            anchor = toks.str.get(slot)
            m = anchor.notna().to_numpy() & (dst != ids)
            parts.append(
                pd.DataFrame({"dst": dst[m], "anchor": anchor.to_numpy()[m]})
            )
        e = pd.concat(parts, ignore_index=True)
        out = (
            e.groupby(["dst", "anchor"], sort=False).size().rename("c").reset_index()
        )
        return pa.table(
            {
                "key": pa.array(out["dst"].to_numpy(np.int64), pa.int64()),
                "anchor": pa.array(out["anchor"], pa.string()),
                "c": pa.array(out["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().rename(columns={"key": "dst"})
        cnt = (
            df.groupby(["dst", "anchor"], sort=False)["c"].sum().reset_index()
        )
        tot = cnt.groupby("dst", sort=False)["c"].sum().rename("in_links")
        top = (
            cnt.sort_values(
                ["dst", "c", "anchor"], ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("dst", sort=False)
            .head(1)
            .set_index("dst")
        )
        out = top.join(tot)
        return pa.table(
            {
                "doc_id": pa.array(out.index.to_numpy(np.int64), pa.int64()),
                "in_links": pa.array(
                    out["in_links"].to_numpy(np.int64), pa.int64()
                ),
                "top_anchor": pa.array(out["anchor"], pa.string()),
                "top_anchor_n": pa.array(out["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    return copartition(
        [docs.map_batches(edge_partials, batch_format="pyarrow")],
        fold,
        pa.schema([("anchor", pa.string()), ("c", pa.int64())]),
        # each doc sends at most 3 (dst, anchor) partials
        exchange_parts(sf_dir, *["documents"] * 3),
    )


ANCHOR_TEXT_PROFILES_SQL = r"""
WITH tk AS (
    SELECT doc_id,
           list_filter(list_filter(string_split_regex(lower(text), '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != ''),
                       x -> x <> '') AS t,
           (SELECT COUNT(*) FROM documents) AS n
    FROM documents
),
edges AS (
    SELECT (doc_id * 7 + 1) % n AS dst, t[1] AS anchor
    FROM tk WHERE len(t) >= 1 AND (doc_id * 7 + 1) % n <> doc_id
    UNION ALL
    SELECT (doc_id * 13 + 5) % n, t[2]
    FROM tk WHERE len(t) >= 2 AND (doc_id * 13 + 5) % n <> doc_id
    UNION ALL
    SELECT (doc_id * 31 + 11) % n, t[3]
    FROM tk WHERE len(t) >= 3 AND (doc_id * 31 + 11) % n <> doc_id
),
cnt AS (
    SELECT dst, anchor, COUNT(*)::BIGINT AS c FROM edges GROUP BY 1, 2
),
ranked AS (
    SELECT dst, anchor, c,
           ROW_NUMBER() OVER (PARTITION BY dst ORDER BY c DESC, anchor) AS rn,
           SUM(c) OVER (PARTITION BY dst) AS tot
    FROM cnt
)
SELECT dst AS doc_id, tot::BIGINT AS in_links,
       anchor AS top_anchor, c AS top_anchor_n
FROM ranked WHERE rn = 1
"""


def fuzzy_name_clusters(sf_dir: str, n_buckets: int = 8) -> rd.Dataset:
    """Entity-resolution MERGE GROUPS: connected components over the
    edit-distance-1 customer-name graph — the record-linkage verb that
    turns fuzzy match PAIRS into transitive merge clusters (A~B, B~C ⟹
    {A,B,C} is one entity group even when A and C differ by 2 edits).

    Same pluggable CC engine as :func:`near_dup_clusters`; the edge
    front-end is the FastSS deletion-neighborhood join
    (:func:`~crawler_ray.pipelines.textops.fuzzy_name_pairs`), so the
    corpus-sized work is one distinct-key exchange and nothing is
    quadratic. Every node in the edge list has degree ≥ 1, so every
    surviving component has ≥ 2 members; customers with no fuzzy match
    vanish (mirrors the SQL oracle, where they never enter the pair
    relation). Output: (custkey, cluster_id = min custkey of the group,
    cluster_size)."""
    from crawler_ray.pipelines.textops import fuzzy_name_pairs

    pairs = fuzzy_name_pairs(sf_dir)
    cc = connected_components(
        pairs, src="custkey_a", dst="custkey_b", n_buckets=n_buckets
    )
    labeled = cc.map_batches(
        lambda t: pa.table(
            {"custkey": t["node"].cast(pa.int64()),
             "lab": t["lab"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    return _labels_to_clusters(
        labeled, "custkey", exchange_parts(sf_dir, "customer"))


def fuzzy_name_clusters_sql(n_rounds: int = 24) -> str:
    """Oracle for :func:`fuzzy_name_clusters`. NOT the recursive-closure
    CTE the other cluster oracles use: zero-padded numeric names make the
    whole customer table ONE component (every key is 1 substitution from
    many others), and closure materializes |component|² reachability rows
    — ~225M at sf0.1, unrunnable. Instead: UNROLLED min-label propagation
    with POINTER JUMPING (the pagerank-oracle pattern) — per round each
    node takes ``min(lab, min neighbor lab, lab[lab])``; the jump term
    doubles propagation distance per round, so ``n_rounds=24`` converges
    for any component diameter ≤ 2^24 while each round is one linear
    edge join. Cost O(rounds × edges) — this oracle scales to ×20."""
    from crawler_ray.pipelines.textops import FUZZY_NAME_PAIRS_SQL

    ctes = [
        f"pairs AS MATERIALIZED ({FUZZY_NAME_PAIRS_SQL})",
        """edges AS MATERIALIZED (
    SELECT custkey_a AS src, custkey_b AS dst FROM pairs
    UNION ALL
    SELECT custkey_b, custkey_a FROM pairs
)""",
        "l0 AS MATERIALIZED (SELECT DISTINCT src AS k, src AS lab FROM edges)",
    ]
    for i in range(1, n_rounds + 1):
        prev, cur = f"l{i - 1}", f"l{i}"
        ctes.append(f"""{cur} AS MATERIALIZED (
    SELECT v.k,
           LEAST(v.lab, COALESCE(n.nmin, v.lab), COALESCE(j.lab, v.lab)) AS lab
    FROM {prev} v
    LEFT JOIN (
        SELECT e.dst AS k, MIN(p.lab) AS nmin
        FROM edges e JOIN {prev} p ON p.k = e.src
        GROUP BY e.dst
    ) n ON n.k = v.k
    LEFT JOIN {prev} j ON j.k = v.lab
)""")
    return "WITH " + ",\n".join(ctes) + f"""
SELECT k AS custkey, lab::BIGINT AS cluster_id,
       (COUNT(*) OVER (PARTITION BY lab))::BIGINT AS cluster_size
FROM l{n_rounds}
"""
