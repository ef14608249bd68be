"""Unit tests for the round-3 late additions: global order statistics
(NTILE), the CUBE/correlated-subquery relational verbs, the uniform
k-sample fold, and fixed-point PageRank — beyond the DuckDB conformance
rows, these assert the DISTRIBUTION-invariance properties the oracles
can't see (results independent of partition count / block structure)."""

import numpy as np
import pandas as pd

from crawler_ray.pipelines import clusters, relational, textops
from tests.conftest import SF_DIR


def test_ntile_sizes_follow_sql_standard(ray_session):
    out = relational.order_price_ntile(SF_DIR, n=7).to_pandas()
    sizes = out.groupby("tile").size().sort_index()
    total = len(out)
    q, rem = divmod(total, 7)
    expect = [q + 1] * rem + [q] * (7 - rem)
    assert sizes.tolist() == expect
    assert sorted(sizes.index) == list(range(1, 8))


def test_pagerank_partition_invariance(ray_session, force_parts):
    a = (
        clusters.doc_link_pagerank(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    force_parts(17)
    b = (
        clusters.doc_link_pagerank(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # total mass is conserved up to integer-floor leakage: every node
    # contributes at most its full rank, and the damping sum is exact
    assert (a["rank_scaled"] > 0).all()


def test_pagerank_sink_gets_more_than_base(ray_session):
    # node (0*7+1)%N = 1 receives in-links; base-only rank is 150_000_000
    out = clusters.doc_link_pagerank(SF_DIR).to_pandas().set_index("doc_id")
    assert out["rank_scaled"].max() > 150_000_000


def test_above_avg_excludes_single_order_customers(ray_session):
    out = relational.orders_above_customer_avg(SF_DIR).to_pandas()
    import pyarrow.parquet as pq

    orders = pq.read_table(
        f"{SF_DIR}/orders.parquet", columns=["o_custkey", "o_orderkey"]
    ).to_pandas()
    counts = orders.groupby("o_custkey").size()
    singles = set(counts[counts == 1].index)
    assert not set(out["o_custkey"]) & singles
    # strictly-above means no customer has ALL orders selected
    sel = out.groupby("o_custkey").size()
    assert (sel < counts.loc[sel.index]).all()


def test_revenue_cube_grouping_sets_consistent(ray_session):
    cube = relational.revenue_cube(SF_DIR)
    fine = cube[(cube.priority != "ALL") & (cube.status != "ALL")]
    total = cube[(cube.priority == "ALL") & (cube.status == "ALL")]
    assert len(total) == 1
    assert int(fine["n_orders"].sum()) == int(total["n_orders"].iloc[0])
    by_pri = cube[(cube.priority != "ALL") & (cube.status == "ALL")]
    assert np.isclose(by_pri["revenue"].sum(), total["revenue"].iloc[0])


def test_uniform_sample_is_prefix_of_shuffle_order(ray_session):
    k = 20
    samp = textops.uniform_sample_docs(SF_DIR, k=k)
    rank = textops.shuffled_export(SF_DIR, seed=7).to_pandas()
    expect = set(rank.nsmallest(k, "shuffle_rank")["doc_id"])
    assert set(samp["doc_id"]) == expect
    assert samp["sample_rank"].tolist() == list(range(1, k + 1))


def test_global_sort_rank_matches_argsort_property(ray_session):
    """Property: for arbitrary (possibly skewed) int64 keys, the sample-
    sort rank equals the single-node argsort rank, for several shapes."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from crawler_ray.pipelines.ordering import global_sort_rank

    rng = np.random.Generator(np.random.PCG64(5))
    for n, skew in [(1, False), (7, False), (500, True), (2000, False)]:
        if skew:  # heavy ties broken by packing id into low bits
            base = rng.integers(0, 3, size=n) * (1 << 32)
        else:
            base = rng.integers(0, 1 << 40, size=n)
        ids = rng.permutation(n).astype(np.int64)
        keys = (base + ids).astype(np.int64)
        ds = rd.from_arrow(
            pa.table({"id": pa.array(ids, pa.int64()),
                      "key": pa.array(keys, pa.int64())})
        ).repartition(5)
        ranks, total = global_sort_rank(ds, id_col="id", key_col="key")
        got = ranks.to_pandas().sort_values("id").reset_index(drop=True)
        expect = pd.DataFrame({"id": ids, "key": keys})
        expect["rank"] = expect["key"].rank(method="first").astype("int64")
        expect = expect.sort_values("id").reset_index(drop=True)[["id", "rank"]]
        assert total == n
        pd.testing.assert_frame_equal(got, expect)


def test_pagerank_matches_numpy_reference(ray_session, tmp_path):
    """Property: the distributed fixed-point supersteps equal a single-
    node numpy implementation of the identical integer recurrence."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.clusters import doc_link_pagerank

    n = 137
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(["x"] * n, pa.string())}),
        str(d / "documents.parquet"),
    )
    got = (
        doc_link_pagerank(str(d), n_iters=4)
        .to_pandas()
        .sort_values("doc_id")["rank_scaled"]
        .to_numpy()
    )
    r = np.full(n, 1_000_000_000, dtype=np.int64)
    succ = np.stack(
        [(np.arange(n) * 7 + 1) % n, (np.arange(n) * 13 + 5) % n,
         (np.arange(n) * 31 + 11) % n], axis=1
    )
    succ = np.where(succ == np.arange(n)[:, None], -1, succ)
    deg = (succ >= 0).sum(axis=1)
    for _ in range(4):
        share = r // np.maximum(deg, 1)
        s = np.zeros(n, dtype=np.int64)
        for j in range(3):
            ok = succ[:, j] >= 0
            np.add.at(s, succ[ok, j], share[ok])
        r = 150_000_000 + (85 * s) // 100
    assert np.array_equal(got, r)


def test_triangle_counts_match_brute_force_and_partitioning(ray_session, force_parts):
    """Per-node triangle counts equal a single-node brute force over the
    same derived graph, and are invariant to the partition count (the
    wedge walk + existence join must not depend on block structure)."""
    import pyarrow.parquet as pq

    got = (
        clusters.doc_link_triangles(SF_DIR)
        .to_pandas()
        .set_index("doc_id")["n_triangles"]
        .sort_index()
    )
    force_parts(17)
    got17 = (
        clusters.doc_link_triangles(SF_DIR)
        .to_pandas()
        .set_index("doc_id")["n_triangles"]
        .sort_index()
    )
    pd.testing.assert_series_equal(got, got17)

    n = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    E = set()
    for d in range(n):
        for t in (d * 7 + 1, d * 13 + 5, d * 31 + 11, d + 1, d + 2):
            t %= n
            if t != d:
                E.add((min(d, t), max(d, t)))
    adj: dict[int, set[int]] = {}
    for u, v in E:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    from collections import Counter

    cnt: Counter = Counter()
    for u, v in E:
        for w in adj[u] & adj[v]:
            if w > v:
                cnt[u] += 1
                cnt[v] += 1
                cnt[w] += 1
    assert dict(got) == dict(cnt)
    assert len(cnt) > 0 and max(cnt.values()) > min(cnt.values())  # non-vacuous


def test_kcore_matches_brute_force_peeling(ray_session):
    """Distributed k-core equals single-node iterative peeling, and the
    default k=8 is non-trivial here (some nodes peeled, non-empty core)."""
    import collections

    import pyarrow.parquet as pq

    k = 8
    got = {
        (int(r.doc_id), int(r.core_degree))
        for r in clusters.doc_link_kcore(SF_DIR, k=k).to_pandas().itertuples()
    }
    n = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    E = set()
    for d in range(n):
        for t in (d * 7 + 1, d * 13 + 5, d * 31 + 11, d + 1, d + 2):
            t %= n
            if t != d:
                E.add((min(d, t), max(d, t)))
    live = None
    while True:
        deg: collections.Counter = collections.Counter()
        for u, v in E:
            deg[u] += 1
            deg[v] += 1
        nl = {x for x in deg if deg[x] >= k}
        if live is not None and nl == live:
            break
        live = nl
        E = {(u, v) for u, v in E if u in live and v in live}
    expected = {(x, deg[x]) for x in live}
    assert got == expected
    assert 0 < len(live) < n  # some peeled, some kept: non-vacuous


def test_kcore_fully_peeled_graph_terminates_early(ray_session):
    """k above the max degree peels every node in round 1; the BSP loop
    must then BREAK (Dataset.sum on the empty degree table returns None,
    which a naive '== 0' check misses) instead of scheduling all 30
    max_rounds of empty exchanges."""
    import time

    t0 = time.monotonic()
    got = clusters.doc_link_kcore(SF_DIR, k=100, small_edges=0).to_pandas()
    wall = time.monotonic() - t0
    assert len(got) == 0
    # with the early break this is one peel round (~2-5s); 30 dead rounds
    # of materialize/exchange would take several times longer
    assert wall < 40, f"fully-peeled k-core took {wall:.1f}s"


def test_graph_verbs_fast_and_bsp_paths_agree(ray_session):
    """The single-task fast path and the partitioned BSP/staged path must
    produce identical tables for triangles and k-core (small_edges=0
    forces the distributed path on the small test graph)."""
    tri_fast = (
        clusters.doc_link_triangles(SF_DIR)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    tri_bsp = (
        clusters.doc_link_triangles(SF_DIR, small_edges=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(tri_fast, tri_bsp)

    kc_fast = (
        clusters.doc_link_kcore(SF_DIR)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    kc_bsp = (
        clusters.doc_link_kcore(SF_DIR, small_edges=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(kc_fast, kc_bsp)


def test_bfs_distances_fast_and_bsp_paths_agree(ray_session):
    """BFS hop distances: single-task fast path == BSP frontier path, and
    both match a brute-force numpy BFS (dist 0 exactly on the seeds)."""
    fast = (
        clusters.doc_link_distances(SF_DIR)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    bsp = (
        clusters.doc_link_distances(SF_DIR, small_edges=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, bsp)
    # seeds at distance 0, all distances within the hop bound
    seeds = fast[fast.dist == 0].doc_id.to_numpy()
    assert (seeds % 97 == 0).all() and len(seeds) > 0
    assert fast.dist.max() <= 4 and fast.doc_id.is_unique
    # non-vacuous: multiple levels populated
    assert fast.dist.nunique() >= 3
