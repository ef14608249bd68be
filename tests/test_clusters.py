"""Connected components / duplicate clusters.

- union-find fast path vs BSP hash-to-min rounds: identical labels on the
  same graphs (chains force multi-round convergence in the BSP path).
- parallelism invariance: the BSP rounds' partition count must not change
  the answer.
- near_dup_clusters vs the DuckDB recursive-CTE oracle: value-EXACT,
  including the membership rule (singleton docs with no near-dup vanish;
  exact-duplicate docs cluster even with no cross-set edge).
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from crawler_ray.pipelines.clusters import (
    connected_components,
    dedup_survivors,
    dedup_survivors_sql,
    near_dup_clusters,
    near_dup_clusters_sql,
)


def _labels(ds):
    return (
        ds.to_pandas().sort_values("node").reset_index(drop=True)
    )


GRAPHS = {
    "chain+pair": ([1, 2, 3, 4, 5, 6, 7, 10], [2, 3, 4, 5, 6, 7, 8, 11]),
    "star+selfloop": ([5, 5, 5, 9], [1, 2, 3, 9]),
    "two-triangles": ([1, 2, 3, 7, 8, 9], [2, 3, 1, 8, 9, 7]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cc_paths_agree(ray_session, force_bsp, force_parts, name):
    a, b = GRAPHS[name]
    edges = rd.from_pandas(pd.DataFrame({"doc_a": a, "doc_b": b}))
    fast = _labels(connected_components(edges))
    # BSP rounds over a real 8-way exchange (a handful of edges alone
    # sizes the rounds to one partition)
    force_bsp()
    force_parts(8)
    bsp = _labels(connected_components(edges))
    pd.testing.assert_frame_equal(fast, bsp)
    # ground truth by brute force
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(a, b):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    exp = pd.DataFrame(
        sorted((n, find(n)) for n in parent), columns=["node", "lab"]
    )
    pd.testing.assert_frame_equal(fast, exp)


def test_cc_bucket_invariance(ray_session, force_bsp, force_parts):
    rng = np.random.default_rng(11)
    a = rng.integers(0, 300, size=400)
    b = rng.integers(0, 300, size=400)
    edges = rd.from_pandas(pd.DataFrame({"doc_a": a, "doc_b": b}))
    luf = _labels(connected_components(edges))
    force_bsp()
    force_parts(4)
    l4 = _labels(connected_components(edges))
    force_parts(16)
    l16 = _labels(connected_components(edges))
    pd.testing.assert_frame_equal(l4, l16)
    pd.testing.assert_frame_equal(l4, luf)


def test_near_dup_clusters_oracle(ray_session, tmp_path):
    # sliding near-dup chain (A~B~C transitively one cluster), an exact
    # duplicate pair with no cross-set edge, and isolated singletons
    base = [f"w{i}" for i in range(40)]
    texts = {
        1: " ".join(base),
        2: " ".join(base[1:] + ["x1"]),          # ~0.95 vs doc 1
        3: " ".join(base[2:] + ["x1", "x2"]),    # chains via doc 2
        4: "dup dup alpha beta gamma delta epsilon zeta eta theta",
        5: "dup dup alpha beta gamma delta epsilon zeta eta theta",
        6: "lonely words that match nothing else at all here",
        7: "another completely unrelated singleton document text",
    }
    df = pd.DataFrame(
        {"doc_id": list(texts), "text": [texts[k] for k in texts]}
    )
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        f"{tmp_path}/documents.parquet",
    )
    got = (
        near_dup_clusters(str(tmp_path), threshold=0.9)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    exp = (
        con.sql(near_dup_clusters_sql(threshold=0.9))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=True)
    # semantic spot checks: singletons 6/7 gone, 4/5 cluster at min id 4
    assert set(got["doc_id"]) == {1, 2, 3, 4, 5}
    assert set(got.loc[got["cluster_id"] == 4, "doc_id"]) == {4, 5}
    assert (got.loc[got["doc_id"].isin([1, 2, 3]), "cluster_id"] == 1).all()
    assert (got.loc[got["doc_id"].isin([1, 2, 3]), "cluster_size"] == 3).all()

    # the keep-policy manifest on the same corpus: cluster reps (min id)
    # survive, other members drop, singletons pass through untouched
    surv = (
        dedup_survivors(str(tmp_path), threshold=0.9)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp_surv = (
        con.sql(dedup_survivors_sql(threshold=0.9))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(surv[exp_surv.columns], exp_surv, check_dtype=True)
    assert set(surv["doc_id"]) == {1, 4, 6, 7}


def test_image_dup_clusters_planted(ray_session):
    """Planted exact-dup (10k, 10k+1) and near-dup (10k+5, 10k+6) image
    pairs are recovered as exactly the expected 2-clusters; nothing else
    clusters (unrelated phashes sit ~24 bits apart vs the default radius 4)."""
    import numpy as np

    import pyarrow.parquet as pq

    from crawler_ray.pipelines.clusters import image_dup_clusters

    sf = "/root/testdata/sf0.001"
    out = image_dup_clusters(sf).to_pandas()
    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    expected = set()
    for d in ids:
        d = int(d)
        if d % 10 == 1 and d - 1 in ids:
            expected |= {(d - 1, d - 1), (d, d - 1)}
        if d % 10 == 6 and d - 1 in ids:
            expected |= {(d - 1, d - 1), (d, d - 1)}
    got = {
        (int(r.image_id), int(r.cluster_id)) for r in out.itertuples()
    }
    assert got == expected
    assert (out["cluster_size"] == 2).all()


def test_cross_snapshot_image_dups_planted(ray_session):
    """Incremental image probe: every pair is cross-parity (base even, new
    odd), all 100 planted duplicates recovered (exact copies at Hamming 0,
    perturbed neighbors within the radius), zero false positives."""
    from crawler_ray.pipelines.clusters import cross_snapshot_image_dups
    from tests.conftest import SF_DIR

    df = cross_snapshot_image_dups(SF_DIR).to_pandas()
    b = df.base_img.to_numpy()
    n = df.new_img.to_numpy()
    assert (b % 2 == 0).all() and (n % 2 == 1).all()
    fam = ((b % 10 == 0) & (n == b + 1)) | ((b % 10 == 6) & (n == b - 1))
    assert fam.all() and len(df) == 100
    exact = df[b % 10 == 0]
    assert len(exact) == 50 and (exact.hamming == 0).all()
    near = df[b % 10 == 6]
    assert len(near) == 50 and near.hamming.max() <= 4


def test_image_orbit_dups_planted(ray_session):
    """Dihedral-orbit near-dedup: the planted ROTATED copies (10k+4 =
    rot90 of 10k+3) and MIRRORED+perturbed copies (10k+9 = fliplr of
    10k+8) are recovered — and the rotated ones are exactly the pairs
    plain phash CANNOT see (orbit hamming 0 but plain hamming far beyond
    the radius). Zero false positives."""
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.clusters import image_orbit_dups
    from crawler_ray.pipelines.reports import images_phash_near_dups

    sf = "/root/testdata/sf0.001"
    out = image_orbit_dups(sf).to_pandas()
    ids = set(
        int(d)
        for d in pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
    )
    expected = set()
    for d in ids:
        if d % 10 == 4 and d - 1 in ids:
            expected.add((min(d - 1, d), max(d - 1, d), "rot"))
        if d % 10 == 9 and d - 1 in ids:
            expected.add((min(d - 1, d), max(d - 1, d), "mirror"))
    got = {
        (min(int(r.img_a), int(r.img_b)), max(int(r.img_a), int(r.img_b)))
        for r in out.itertuples()
    }
    assert got == {(a, b) for a, b, _ in expected}
    # exact-under-transform pairs land at orbit hamming 0
    rot_pairs = {(a, b) for a, b, k in expected if k == "rot"}
    ham = {
        (min(int(r.img_a), int(r.img_b)), max(int(r.img_a), int(r.img_b))):
            int(r.hamming)
        for r in out.itertuples()
    }
    assert all(ham[p] == 0 for p in rot_pairs)

    # plain phash on the SAME planted corpus misses every rotated pair
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.sources.synthetic import planted_image_batch

    id_list = sorted(ids)
    payloads, _ = planted_image_batch(np.array(id_list), 42, orbit=True)
    plain = rd.from_arrow(pa.table({
        "image_id": [str(d) for d in id_list],
        "phash": [phash64(decode_image(p, sniff_fmt(p))) for p in payloads],
    }))
    plain_pairs = {
        (min(int(r["img_a"]), int(r["img_b"])),
         max(int(r["img_a"]), int(r["img_b"])))
        for r in images_phash_near_dups(plain, max_hamming=4).take_all()
    }
    assert not (plain_pairs & rot_pairs)


def test_image_crop_dups_planted(ray_session):
    """Quadrant-phash crop detection: the planted exact top-left crops
    (10k+2 = quadrant 0 of 10k+1, Hamming 0) and perturbed bottom-right
    crops (10k+5 = quadrant 3 of 10k+4, quadrant-near) are recovered with
    the correct orientation (src = original, crop = derived) and quadrant
    index; zero false positives; full-frame phash alone misses them all."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.clusters import image_crop_dups
    from crawler_ray.pipelines.reports import images_phash_near_dups
    from crawler_ray.sources.synthetic import planted_image_batch

    sf = "/root/testdata/sf0.001"
    out = image_crop_dups(sf).to_pandas()
    ids = set(
        int(d)
        for d in pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
    )
    expected = {}
    for d in ids:
        if d % 10 == 2 and d - 1 in ids:
            expected[(d - 1, d)] = 0  # exact top-left
        if d % 10 == 5 and d - 1 in ids:
            expected[(d - 1, d)] = 3  # perturbed bottom-right
    got = {
        (int(r.src_img), int(r.crop_img)): int(r.quadrant)
        for r in out.itertuples()
    }
    assert got == expected
    ham = {(int(r.src_img), int(r.crop_img)): int(r.hamming) for r in out.itertuples()}
    exact = {p for p, q in expected.items() if q == 0}
    assert all(ham[p] == 0 for p in exact)
    assert out["hamming"].max() <= 4

    # full-frame phash on the SAME planted corpus misses every crop pair
    id_list = sorted(ids)
    payloads, _ = planted_image_batch(np.array(id_list), 42, crop=True)
    plain = rd.from_arrow(pa.table({
        "image_id": [str(d) for d in id_list],
        "phash": [phash64(decode_image(p, sniff_fmt(p))) for p in payloads],
    }))
    plain_pairs = images_phash_near_dups(plain, max_hamming=4).to_pandas()
    plain_set = {
        (min(int(r.img_a), int(r.img_b)), max(int(r.img_a), int(r.img_b)))
        for r in plain_pairs.itertuples()
    }
    assert not (plain_set & set(expected))


def test_fuzzy_name_clusters_planted_transitivity(ray_session, tmp_path):
    # edit-distance-1 chain: 1~2 (units digit), 2~12 (tens digit) — 1 and
    # 12 are distance 2 apart yet land in ONE merge group transitively;
    # 500 has no neighbor within 1 edit and must vanish
    import duckdb

    from crawler_ray.pipelines.clusters import (
        fuzzy_name_clusters,
        fuzzy_name_clusters_sql,
    )

    keys = [1, 2, 12, 500]
    df = pd.DataFrame(
        {"c_custkey": keys, "c_name": [f"Customer#{k:09d}" for k in keys]}
    )
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        f"{tmp_path}/customer.parquet",
    )
    got = (
        fuzzy_name_clusters(str(tmp_path))
        .to_pandas()
        .sort_values("custkey")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW customer AS SELECT * FROM read_parquet('{tmp_path}/customer.parquet')"
    )
    exp = (
        con.sql(fuzzy_name_clusters_sql())
        .df()
        .sort_values("custkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=True)
    assert set(got["custkey"]) == {1, 2, 12}
    assert (got["cluster_id"] == 1).all()
    assert (got["cluster_size"] == 3).all()
