"""Crawl-output reports, submit view, phash near-dup, signing, IO."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from crawler_ray.functions.signing import epoch_millis, sign_request, signed_url
from crawler_ray.pipelines.reports import (
    images_phash_near_dups,
    products_per_category,
    recrawl_priority,
    render_detail_html,
    reshape_attributes,
    submit_view,
)


@pytest.fixture(scope="module")
def crawl_out(ray_session, small_site, tmp_path_factory):
    from crawler_ray.pipelines.crawl import CrawlConfig, CrawlDriver

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("reports_out")
    drv = CrawlDriver(
        CrawlConfig(fixture_dir=site_dir, out_dir=str(out), quota_per_host=100,
                    fetch_concurrency=2, num_seen_shards=2)
    )
    drv.run()
    drv.shutdown()
    return str(out), drv


def test_products_per_category(crawl_out):
    out_dir, drv = crawl_out
    rep = products_per_category(out_dir)
    assert not rep.empty
    assert (rep["n_products"] > 0).all()
    assert rep["category_name"].notna().all()
    # every category with products is a leaf → parent is the root
    assert rep["parent_name"].str.startswith("root-").all()


def test_submit_view(crawl_out):
    out_dir, _ = crawl_out
    view = submit_view(out_dir)
    assert not view.empty
    row = view.iloc[0]
    assert "<p>" in row["detail_html"] or "<img" in row["detail_html"]
    attrs = json.loads(row["attributes_json"])
    assert all(set(a) == {"AttributeName", "AttributeValue"} for a in attrs)


def test_render_and_reshape_semantics():
    html = render_detail_html({"k": "v"}, ["http://h/i.png"])
    assert html == '<p>k:v</p><img src="http://h/i.png"/>'
    # crawled values are untrusted: markup must come out inert
    hostile = render_detail_html(
        {"<b>k</b>": 'v"&'}, ['http://h/i.png" onerror="x']
    )
    assert hostile == (
        "<p>&lt;b&gt;k&lt;/b&gt;:v&quot;&amp;</p>"
        '<img src="http://h/i.png&quot; onerror=&quot;x"/>'
    )
    assert reshape_attributes({"a": "1", "b": "", "": "x"}) == [
        {"AttributeName": "a", "AttributeValue": "1"}
    ]


def test_images_phash_near_dups(ray_session, crawl_out):
    import ray.data as rd

    out_dir, drv = crawl_out
    imgs = drv.images_dataset()
    # plant two near-identical phashes
    extra = pa.table(
        {
            "image_id": ["zz_a", "zz_b"],
            "bytes": [b"x", b"y"],
            "w": pa.array([1, 1], pa.int32()),
            "h": pa.array([1, 1], pa.int32()),
            "fmt": ["png", "png"],
            "caption": ["", ""],
            "phash": pa.array([0x0F0F0F0F0F0F0F0F, 0x0F0F0F0F0F0F0F0B], pa.int64()),
        }
    )
    ds = imgs.select_columns(["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]).union(
        rd.from_arrow(extra)
    )
    pairs = images_phash_near_dups(ds, max_hamming=3).to_pandas()
    assert (("zz_a", "zz_b") in set(zip(pairs["img_a"], pairs["img_b"])))
    # identical content (dup images dedup'd already) → planted pair hamming
    planted = pairs[(pairs["img_a"] == "zz_a") & (pairs["img_b"] == "zz_b")]
    assert planted["hamming"].iloc[0] == 1  # 0x..0F ^ 0x..0B = 0x04


def test_recrawl_priority_deterministic():
    df = pd.DataFrame(
        {
            "url": ["u1", "u2", "u3"],
            "last_crawled_epoch": [100.0, 50.0, 100.0],
        }
    )
    out = recrawl_priority(df, now_epoch=200.0, half_life_sec=100.0)
    assert list(out["url"]) == ["u2", "u1", "u3"]  # oldest first, url tiebreak
    assert out["priority"].iloc[0] == pytest.approx(1.5)


def test_signing_deterministic():
    s1 = sign_request({"b": "2", "a": "1"}, nonce="n0", timestamp_ms=1234)
    s2 = sign_request({"a": "1", "b": "2"}, nonce="n0", timestamp_ms=1234)
    assert s1 == s2 and s1 == s1.upper() and len(s1) == 32
    assert sign_request({"a": "1"}, "n0", 1234) != sign_request({"a": "1"}, "n1", 1234)
    assert epoch_millis(1.5) == 1500
    url = signed_url("https://h/api", {"a": "1"}, "n0", 1234)
    assert "sign=" in url and "t=1234" in url


def test_local_image_reader(ray_session, tmp_path):
    from crawler_ray.functions.codecs import encode_image
    from crawler_ray.sources.io import read_local_images

    d = tmp_path / "imgs" / "p1"
    d.mkdir(parents=True)
    px = np.zeros((8, 8, 3), np.uint8)
    (d / "a.png").write_bytes(encode_image(px, "png"))
    (d / "b.jpg").write_bytes(encode_image(px, "jpeg"))
    out = read_local_images(str(tmp_path / "imgs")).to_pandas()
    assert len(out) == 2
    assert set(out["fmt"]) == {"png", "jpeg"}
    assert out["bytes"].map(len).min() > 0


def test_phash_banding_guarantees_requested_distance(ray_session):
    """The round-1 fixed 4x16 banding silently guaranteed only d<=3 at the
    default d=6; adaptive max_hamming+1 bands must find EVERY pair within
    the threshold (checked vs brute force on hashes crafted to differ in
    exactly 4..6 spread-out bits — the old cliff zone)."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from crawler_ray.functions.hashing import hamming64_batch
    from crawler_ray.pipelines.reports import images_phash_near_dups

    rng = np.random.default_rng(21)
    base = rng.integers(0, 1 << 63, size=12, dtype=np.int64)
    rows = [{"image_id": f"b{i}", "phash": int(base[i])} for i in range(12)]
    # craft near-dups at distances 4, 5, 6 with bits flipped ACROSS quarters
    # (each 16-bit quarter differs -> zero recall under the old 4x16 split)
    for i, d in enumerate((4, 5, 6)):
        v = int(base[i])
        for b in range(d):
            v ^= 1 << (b * 63 // max(d - 1, 1))
        if v >= 1 << 63:  # two's-complement into signed int64
            v -= 1 << 64
        rows.append({"image_id": f"m{i}", "phash": v})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    got = images_phash_near_dups(ds, max_hamming=6).to_pandas()
    pairs = {tuple(sorted((a, b))) for a, b in zip(got["img_a"], got["img_b"])}
    # brute-force truth
    ids = [r["image_id"] for r in rows]
    ph = np.array([r["phash"] for r in rows], dtype=np.int64)
    want = set()
    for i, j in itertools.combinations(range(len(ids)), 2):
        if hamming64_batch(ph[i : i + 1], ph[j : j + 1])[0] <= 6:
            want.add(tuple(sorted((ids[i], ids[j]))))
    assert {("b0", "m0"), ("b1", "m1"), ("b2", "m2")} <= want
    assert pairs == want  # guaranteed recall + exact verify = exact result


def test_phash_near_dups_single_exchange_and_partition_invariance(ray_session, force_parts):
    """Round-2 VERDICT #2: the segment-walk rewrite must (a) produce
    identical, globally-unique pairs at different partition counts, and
    (b) run ONE all-to-all exchange — no trailing pair-dedup groupby."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from crawler_ray.pipelines.reports import images_phash_near_dups

    rng = np.random.default_rng(33)
    base = rng.integers(0, 1 << 62, size=40, dtype=np.int64)
    rows = [{"image_id": f"i{k:02d}", "phash": int(v)} for k, v in enumerate(base)]
    for k in range(8):  # planted near-dups at distances 1..4
        v = int(base[k]) ^ ((1 << (k % 4 + 1)) - 1)
        rows.append({"image_id": f"d{k:02d}", "phash": v})

    def run(k):
        force_parts(k)
        ds = rd.from_arrow(pa.Table.from_pylist(rows))
        out = images_phash_near_dups(ds, max_hamming=4)
        df = out.to_pandas()
        return out, sorted(zip(df["img_a"], df["img_b"], df["hamming"]))

    out7, pairs7 = run(7)
    _, pairs1 = run(1)
    assert pairs7 == pairs1 and len(pairs7) >= 8
    # globally unique without a pair-dedup exchange
    assert len({(a, b) for a, b, _ in pairs7}) == len(pairs7)
    stats = out7.stats()
    import re

    assert len(re.findall(r"Operator \d+ Sort", stats)) == 1, stats


def test_image_caption_alignment_separation(ray_session):
    """Aligned pairs score exactly 1.0; planted mismatches fall far below
    the gate; the aligned flag recovers the planted truth exactly."""
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.multimodal import image_caption_alignment

    sf = "/root/testdata/sf0.001"
    out = image_caption_alignment(sf).to_pandas()
    ids = out["image_id"].astype(int)
    is_mismatch = (ids % 10 == 7).to_numpy()
    import numpy as np

    assert np.allclose(out["clip_score"].to_numpy()[~is_mismatch], 1.0)
    assert (out["clip_score"].to_numpy()[is_mismatch] < 0.6).all()
    assert (out["aligned"].to_numpy() == ~is_mismatch).all()
    n = len(pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"]))
    assert len(out) == n


def test_url_trap_families_vs_oracle(ray_session):
    """Digit-collapsed URL families: exact vs the DuckDB twin, search
    families (distinct count grows with the corpus) flagged as traps while
    bounded catalog families are not."""
    import duckdb

    from crawler_ray.pipelines.reports import (
        url_trap_families, url_trap_families_sql,
    )

    sf = "/root/testdata/sf0.01"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{sf}/orders.parquet')"
    )
    got = (
        url_trap_families(sf)
        .to_pandas()
        .sort_values("family")
        .reset_index(drop=True)
    )
    exp = con.sql(url_trap_families_sql()).df().sort_values("family").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=True)
    # structure: 7 catalog + 7 search families; every search family is a
    # trap at sf0.01 (>=1200 distinct urls), no catalog family is
    assert len(got) == 14
    is_search = got["family"].str.contains("search")
    assert is_search.sum() == 7
    assert got.loc[is_search, "is_trap"].all()
    assert not got.loc[~is_search, "is_trap"].any()
    # all 10 digit-collapsed hosts appear in each family
    assert (got["n_hosts"] == 10).all()


def test_multiprobe_phash_walk_identical(ray_session):
    """The multi-probe walk (r//2+1 wide bands, per-band radius 1 via
    downward bit probes, AND-bucket canonical dedup) emits EXACTLY the
    classic banded walk's pair set — same pairs, same Hamming values, each
    pair exactly once — on an adversarial corpus with planted pairs at
    every distance 0..8, at radii spanning the auto crossover."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from crawler_ray.pipelines.reports import (
        images_phash_near_dups, images_phash_near_dups_multiprobe,
    )

    rng = np.random.default_rng(7)
    n = 2000
    ph = rng.integers(-2**63, 2**63, n, dtype=np.int64)
    for i in range(0, 360, 2):
        d = (i // 2) % 9
        v = np.uint64(ph[i].astype(np.uint64))
        for b in rng.choice(64, size=d, replace=False):
            v ^= np.uint64(1) << np.uint64(b)
        ph[i + 1] = v.astype(np.int64)
    ds = rd.from_arrow(pa.table(
        {"image_id": [str(i) for i in range(n)],
         "phash": pa.array(ph, pa.int64())}
    ))

    def norm(df):
        return {
            tuple(sorted((a, b))): h
            for a, b, h in df.itertuples(index=False)
        }

    for r in (2, 6, 8):
        a = norm(images_phash_near_dups(ds, max_hamming=r).to_pandas())
        bdf = images_phash_near_dups_multiprobe(ds, max_hamming=r).to_pandas()
        b = norm(bdf)
        assert a == b, f"radius {r}: pair sets differ"
        assert len(bdf) == len(b), f"radius {r}: duplicate emissions"
        assert len(a) > 0


def test_image_dup_clusters_auto_multiprobe(ray_session, monkeypatch):
    """image_dup_clusters at radius 6 routes through the multi-probe walk
    and recovers the identical clusters the banded walk produces (forced
    by a multi-probe bar above every radius)."""
    from crawler_ray.pipelines import clusters, reports

    sf = "/root/testdata/sf0.001"
    walks = []
    for name in ("images_phash_near_dups", "images_phash_near_dups_multiprobe"):
        real = getattr(reports, name)
        monkeypatch.setattr(
            reports, name,
            lambda *a, _real=real, **k: walks.append(_real.__name__)
            or _real(*a, **k))
    auto = clusters.image_dup_clusters(sf, max_hamming=6).to_pandas()
    monkeypatch.setattr(clusters, "MULTIPROBE_MIN_HAMMING", 65)
    banded = clusters.image_dup_clusters(sf, max_hamming=6).to_pandas()
    assert walks == ["images_phash_near_dups_multiprobe",
                     "images_phash_near_dups"]

    def norm(df):
        return sorted(
            tuple(sorted(g)) for _, g in
            df.groupby("cluster_id")["image_id"].apply(list).items()
        ) if "cluster_id" in df.columns else sorted(
            map(tuple, df.sort_values(df.columns.tolist()).to_numpy().tolist())
        )

    assert norm(auto) == norm(banded)
    assert len(auto) > 0


def test_segment_pair_chunks_exact_coverage():
    """The shared pair-index generator covers every within-segment pair
    exactly once — including mega-segments (> 2048 rows) that stream in
    row blocks rather than materializing O(m²) indices."""
    import numpy as np

    from crawler_ray.pipelines.reports import _segment_pair_chunks

    sizes = np.array([1, 2, 3, 5, 3000, 2, 7, 2500, 1, 64])
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    got = set()
    for ai, bi in _segment_pair_chunks(starts.copy(), sizes.copy(), 1 << 14):
        assert (ai < bi).all()
        pairs = set(zip(ai.tolist(), bi.tolist()))
        assert not (pairs & got)
        got |= pairs
    exp = {
        (s + i, s + j)
        for s, m in zip(starts.tolist(), sizes.tolist())
        for i in range(m) for j in range(i + 1, m)
    }
    assert got == exp
