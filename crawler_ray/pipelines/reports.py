"""Crawl-output pipelines: reference-parity reports and views over the
tables a crawl produces (categories / products / images).

These mirror the reference's post-crawl behaviors (SURVEY.md §2):

- ``products_per_category`` — A1: ``ProductList.GroupBy(CategoryId)`` count
  joined to category names (``ShiweijiaProduct.cs:61-66``), with the J2
  child→parent category self-join for the parent name.
- ``submit_view`` — the submit payload projection (``BaseSpider.SubmitProduct``
  payload build, ``ShiweijiaProduct.cs:392-434``): M9 HTML detail renderer +
  M10 attribute JSON reshaper, as a *view* over the products table (submit ==
  publish row, S10 sandbox semantics).
- ``images_phash_near_dups`` — near-dup images by perceptual-hash Hamming
  distance (the ``phash`` hook of the input schema; banding like SimHash).
- ``recrawl_priority`` — O1: staleness-ordered recrawl frontier (oldest
  ``last_crawled`` first → highest priority), the generalization of
  ``ShiweijiaProduct.cs:50``'s UpdateDate ordering.
"""

from __future__ import annotations

import html as html_mod
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Count

from crawler_ray.pipelines import joins
from crawler_ray.pipelines.joins import copartition, exchange_parts


def load_entity_df(out_dir: str, table: str) -> pd.DataFrame:
    """Crawled entity records (JSON in ``record``) → typed DataFrame."""
    from crawler_ray.sources.io import read_parts_table

    t = read_parts_table(os.path.join(out_dir, "tables", table))
    if t is None:
        return pd.DataFrame()
    return pd.DataFrame([json.loads(r) for r in t["record"].to_pylist()])


def products_per_category(out_dir: str) -> pd.DataFrame:
    """A1 report: product count per category with category + parent names
    (two-hop broadcast join against the small category table)."""
    products = load_entity_df(out_dir, "products")
    categories = load_entity_df(out_dir, "categories")
    if products.empty or categories.empty:
        return pd.DataFrame(
            columns=["category_id", "category_name", "parent_name", "n_products"]
        )
    cats = categories.drop_duplicates("id").set_index("id")
    counts = (
        products.groupby("category_id", sort=True)
        .size()
        .reset_index(name="n_products")
    )
    counts["category_name"] = counts["category_id"].map(cats["category_name"])
    parent_of = cats["parent_id"].to_dict()
    counts["parent_name"] = counts["category_id"].map(
        lambda c: cats["category_name"].get(parent_of.get(c)) if parent_of.get(c) is not None else None
    )
    return counts[["category_id", "category_name", "parent_name", "n_products"]]


def render_detail_html(specifications: dict[str, str], detail_imgs: list[str]) -> str:
    """M9: specs dict + detail images → HTML fragment
    (``GetProductDetails``, ``ShiweijiaProduct.cs:435-461``). Spec keys and
    values are HTML-escaped and image URLs attribute-escaped — crawled
    values are attacker-controlled."""
    esc = html_mod.escape
    parts = [
        f"<p>{esc(str(k))}:{esc(str(v))}</p>" for k, v in sorted(specifications.items())
    ]
    parts += [f'<img src="{esc(u, quote=True)}"/>' for u in detail_imgs]
    return "".join(parts)


def reshape_attributes(specifications: dict[str, str]) -> list[dict[str, str]]:
    """M10: ``{k: v}`` → ``[{AttributeName, AttributeValue}]``, empties
    dropped (``GetProductAttributeJson``, ``ShiweijiaProduct.cs:473-491``)."""
    return [
        {"AttributeName": k, "AttributeValue": v}
        for k, v in sorted(specifications.items())
        if k and v
    ]


def submit_view(out_dir: str) -> pd.DataFrame:
    """S10 submit projection as a view over crawled products."""
    products = load_entity_df(out_dir, "products")
    if products.empty:
        return pd.DataFrame()
    return pd.DataFrame(
        {
            "product_code": products["product_code"],
            "name": products["name"],
            "brand_name": products["brand_name"],
            "category_id": products["category_id"],
            "sale_price": products["sale_price"],
            "detail_html": [
                render_detail_html(s or {}, d or [])
                for s, d in zip(products["specifications"], products["detail_imgs"])
            ],
            "attributes_json": [
                json.dumps(reshape_attributes(s or {}), ensure_ascii=False)
                for s in products["specifications"]
            ],
            "main_img": products["main_imgs"].map(lambda xs: xs[0] if xs else None),
        }
    )


def _segment_pair_chunks(starts: np.ndarray, sizes: np.ndarray, pair_chunk: int):
    """Yield (ai, bi) global pair-index chunks for all within-segment pairs.

    Vectorized across segments: segments are GROUPED BY SIZE and each
    group's pairs come from one ``starts[:, None] + triu`` broadcast — one
    Python iteration per distinct size per chunk instead of one per
    segment (the multi-probe walk sees ~2^16 tiny segments per partition;
    the per-segment ``triu_indices`` loop was ~40 µs × segments = seconds
    of pure Python)."""
    sel = sizes >= 2
    starts, sizes = starts[sel], sizes[sel]
    if not len(starts):
        return
    order = np.argsort(sizes, kind="stable")
    starts, sizes = starts[order], sizes[order]
    # mega-segments (hot buckets) stream out in row blocks so no O(m²)
    # index array is ever materialized (the dedup.py recipe)
    mega = sizes > 2048
    for s, m in zip(starts[mega].tolist(), sizes[mega].tolist()):
        rb = max(1, pair_chunk // m)
        for r0 in range(0, m - 1, rb):
            rows = np.arange(r0, min(r0 + rb, m - 1))
            counts = m - rows - 1
            ai = np.repeat(rows, counts)
            csum = np.cumsum(counts) - counts
            bi = np.arange(int(counts.sum())) - np.repeat(csum, counts) + ai + 1
            yield ai + s, bi + s
    starts, sizes = starts[~mega], sizes[~mega]
    if not len(starts):
        return
    bounds = np.flatnonzero(np.r_[True, sizes[1:] != sizes[:-1]])
    ends = np.r_[bounds[1:], len(sizes)]
    buf_a: list[np.ndarray] = []
    buf_b: list[np.ndarray] = []
    buf_n = 0
    for gi, gs in zip(bounds.tolist(), ends.tolist()):
        m = int(sizes[gi])
        tri_i, tri_j = np.triu_indices(m, k=1)
        st = starts[gi:gs]
        npairs = len(tri_i)
        seg_per_chunk = max(1, pair_chunk // npairs)
        for c0 in range(0, len(st), seg_per_chunk):
            stc = st[c0:c0 + seg_per_chunk]
            buf_a.append((stc[:, None] + tri_i[None, :]).ravel())
            buf_b.append((stc[:, None] + tri_j[None, :]).ravel())
            buf_n += len(stc) * npairs
            if buf_n >= pair_chunk:
                yield np.concatenate(buf_a), np.concatenate(buf_b)
                buf_a, buf_b, buf_n = [], [], 0
    if buf_n:
        yield np.concatenate(buf_a), np.concatenate(buf_b)


def _bucket_walk(bands: rd.Dataset, fold) -> rd.Dataset:
    """(bucket, image_id, phash) band rows → one bucket-keyed
    ``copartition`` feeding ``fold`` per partition."""
    return copartition(
        [bands], fold,
        pa.schema([("image_id", pa.string()), ("phash", pa.int64())]),
        joins.EXCHANGE_PARTS, key="bucket",
    )


def images_phash_near_dups(images: rd.Dataset, max_hamming: int = 6) -> rd.Dataset:
    """Near-dup image pairs by phash Hamming distance ≤ ``max_hamming``.

    ADAPTIVE banding: the 64-bit phash splits into ``max_hamming + 1`` bands
    (pigeonhole: two hashes within distance d share at least one of d+1
    disjoint bands unchanged), so recall is GUARANTEED for any requested
    ``max_hamming ≤ 63`` — the former ``min(8, ...)`` cap silently made
    d > 7 best-effort (round-2 advice). High radii still degrade: 1-bit
    bands bucket half the corpus together, so the cost approaches all-pairs
    — inherent to Hamming LSH, not a bug.

    Round-3 shape (the dedup.py segment-walk template, one exchange total):
    band rows → one bucket-keyed ``copartition`` (``EXCHANGE_PARTS``
    partitions: a caller's Dataset has no footer row count) → per-partition
    numpy segment walk generating pairs, verifying Hamming, and emitting each pair only
    from its FIRST matching band (canonical-band dedup: the bucket IS the
    exact band value, so every bucket holding the pair computes the same
    first-match from the two phashes — globally unique output with no
    trailing pair-dedup exchange)."""
    n_bands = max(2, min(64, max_hamming + 1))
    # band bit-boundaries, as even as 64/n_bands allows
    widths = [64 // n_bands + (1 if i < 64 % n_bands else 0) for i in range(n_bands)]
    offsets = np.cumsum([0] + widths[:-1]).tolist()
    off_arr = np.asarray(offsets, dtype=np.uint64)
    mask_arr = np.asarray([(1 << w) - 1 for w in widths], dtype=np.uint64)
    _POP = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1).astype(np.uint8)

    def explode(t: pa.Table) -> pa.Table:
        ph = t["phash"].to_numpy().astype(np.uint64)
        n = len(ph)
        band_val = (ph[:, None] >> off_arr[None, :]) & mask_arr[None, :]  # (n, B)
        q = np.arange(n_bands, dtype=np.int64)[None, :]
        bucket = ((q << np.int64(48)) | band_val.astype(np.int64)).ravel()
        idx = np.repeat(np.arange(n), n_bands)
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "image_id": t["image_id"].take(pa.array(idx)),
                "phash": t["phash"].take(pa.array(idx)),
            }
        )

    pair_chunk = 1 << 16

    def walk_pairs(g: pa.Table) -> pa.Table:
        n = g.num_rows
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        empty = pa.table(
            {"img_a": pa.array([], pa.string()),
             "img_b": pa.array([], pa.string()),
             "hamming": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        bkt = g["bucket"].to_numpy()
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        ph = g["phash"].to_numpy().astype(np.uint64)
        order = np.lexsort((ids, bkt))
        bkt, ids, ph = bkt[order], ids[order], ph[order]
        # drop (bucket, image_id) duplicates (defensive: duplicate image
        # rows in the input would otherwise self-pair)
        uniq = np.r_[True, (bkt[1:] != bkt[:-1]) | (ids[1:] != ids[:-1])]
        bkt, ids, ph = bkt[uniq], ids[uniq], ph[uniq]
        n = len(bkt)
        starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
        sizes = np.r_[starts[1:], n] - starts
        for ai, bi in _segment_pair_chunks(starts, sizes, pair_chunk):
            xr = ph[ai] ^ ph[bi]
            d = _POP[xr.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
            ok = d <= max_hamming
            if not ok.any():
                continue
            sel = np.flatnonzero(ok)
            xs = xr[sel]
            # canonical-band dedup: first band where the two phashes agree
            band_eq = (xs[:, None] & (mask_arr << off_arr)[None, :]) == 0
            cur = (bkt[ai[sel]] >> np.int64(48)).astype(np.int64)
            keep = band_eq.argmax(axis=1) == cur
            if keep.any():
                ks = sel[keep]
                out_a.append(ids[ai[ks]])
                out_b.append(ids[bi[ks]])
                out_d.append(d[ks])
        if not out_a:
            return empty
        return pa.table(
            {"img_a": pa.array(np.concatenate(out_a), pa.string()),
             "img_b": pa.array(np.concatenate(out_b), pa.string()),
             "hamming": pa.array(np.concatenate(out_d), pa.int64())}
        )

    return _bucket_walk(images.map_batches(explode, batch_format="pyarrow"),
                        walk_pairs)


def images_phash_near_dups_multiprobe(images: rd.Dataset, max_hamming: int = 6) -> rd.Dataset:
    """Multi-probe variant of :func:`images_phash_near_dups` for LARGER
    Hamming radii — the scale path the classic walk's docstring names:
    ``max_hamming + 1`` disjoint bands shrink to ~9 bits at radius 6,
    whose 512 values saturate beyond ~10k images and send the in-bucket
    pair walk quadratic (measured 33x time for 10x images at the 50k
    smoke).

    Here only ``B = r//2 + 1`` WIDE bands are used with per-band radius 1
    (pigeonhole: if every band differed by ≥ 2 the total would be
    ≥ 2B > r), and the 1-bit slack is closed by DOWNWARD probing: each row
    emits, per band, its exact band value plus one probe per SET bit with
    that bit cleared. Any pair at band-distance 1 has exactly one side
    with a 1 at the differing position, so down-only probes meet —
    up-probes would be redundant. Band width stays ~64/(r//2+1) bits
    (16 at radius 6 — occupancy bounded until ~4-billion-value load),
    at the cost of ~B·(1 + w/2) rows/image in the one exchange (~36 at
    radius 6 vs 7 — a constant, size-independent factor).

    Output-uniqueness without a trailing exchange (the canonical-band
    trick adapted): a candidate pair co-occurs in a band's buckets exactly
    at ``bx & by`` (equal values also co-occur in their common down-flips,
    but only the AND equals the exact value), so each verified pair is
    kept only in its FIRST band with band-distance ≤ 1 AND only in the
    bucket equal to ``bx & by`` — both computable from the pair's two
    phashes alone, so every bucket holding the pair makes the same
    decision. Tests assert the pair set is IDENTICAL to the classic walk
    (both are exact) on planted corpora at radius 6.

    Measured (50k images, radius 6, 32 cpus): REAL decoded-image phashes
    — whose DCT band values are heavily skewed — run 27.9 s banded vs
    **4.0 s multiprobe** (identical 20k output rows): the skew saturates
    9-bit bands but spreads fine over 16-bit ones. On UNIFORM random
    hashes the classic walk stays faster (1.6 s vs 3.3 s — 5x band-row
    volume with no saturation to pay for), and under extreme bit bias
    (p(1)=0.2) both are hot-bucket-bound (40 s vs 36 s) — a genuinely hot
    bucket needs recursive re-banding or capping, not probing. Routing:
    ``image_dup_clusters`` uses multiprobe from radius
    ``clusters.MULTIPROBE_MIN_HAMMING`` (6) up, where the real-phash
    regime is the one that matters."""
    B = max(2, max_hamming // 2 + 1)
    widths = [64 // B + (1 if i < 64 % B else 0) for i in range(B)]
    offsets = np.cumsum([0] + widths[:-1]).tolist()
    off_arr = np.asarray(offsets, dtype=np.uint64)
    mask_arr = np.asarray([(1 << w) - 1 for w in widths], dtype=np.uint64)
    _POP = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1).astype(np.uint8)

    def explode(t: pa.Table) -> pa.Table:
        ph = t["phash"].to_numpy().astype(np.uint64)
        n = len(ph)
        buckets: list[np.ndarray] = []
        idxs: list[np.ndarray] = []
        base_idx = np.arange(n)
        for b in range(B):
            val = (ph >> off_arr[b]) & mask_arr[b]
            tag = np.int64(b) << np.int64(48)
            buckets.append(tag | val.astype(np.int64))
            idxs.append(base_idx)
            for bit in range(widths[b]):
                m = np.uint64(1) << np.uint64(bit)
                hit = np.flatnonzero((val & m) != 0)
                if len(hit):
                    buckets.append(tag | (val[hit] ^ m).astype(np.int64))
                    idxs.append(hit)
        bucket = np.concatenate(buckets)
        idx = np.concatenate(idxs)
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "image_id": t["image_id"].take(pa.array(idx)),
                "phash": t["phash"].take(pa.array(idx)),
            }
        )

    pair_chunk = 1 << 16

    def walk_pairs(g: pa.Table) -> pa.Table:
        n = g.num_rows
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        empty = pa.table(
            {"img_a": pa.array([], pa.string()),
             "img_b": pa.array([], pa.string()),
             "hamming": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        bkt = g["bucket"].to_numpy()
        ids = np.asarray(g["image_id"].to_pylist(), dtype=object)
        ph = g["phash"].to_numpy().astype(np.uint64)
        order = np.lexsort((ids, bkt))
        bkt, ids, ph = bkt[order], ids[order], ph[order]
        uniq = np.r_[True, (bkt[1:] != bkt[:-1]) | (ids[1:] != ids[:-1])]
        bkt, ids, ph = bkt[uniq], ids[uniq], ph[uniq]
        n = len(bkt)
        starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
        sizes = np.r_[starts[1:], n] - starts
        for ai, bi in _segment_pair_chunks(starts, sizes, pair_chunk):
            xr = ph[ai] ^ ph[bi]
            d = _POP[xr.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
            ok = d <= max_hamming
            # same image reached via two different probes of one bucket is
            # already impossible (probes of one row are distinct buckets),
            # but identical phashes make ids[ai]==ids[bi] impossible too
            # only after the (bucket, image_id) dedup above
            if not ok.any():
                continue
            sel = np.flatnonzero(ok)
            xs = xr[sel]
            pa_, pb_ = ph[ai[sel]], ph[bi[sel]]
            # per-band distances (k, B)
            bd = np.empty((len(sel), B), np.int64)
            for b in range(B):
                seg = (xs >> off_arr[b]) & mask_arr[b]
                bd[:, b] = _POP[
                    seg.view(np.uint8).reshape(-1, 8)
                ].sum(axis=1).astype(np.int64)
            first = (bd <= 1).argmax(axis=1)
            cur = (bkt[ai[sel]] >> np.int64(48)).astype(np.int64)
            # canonical bucket: AND of the two band values in that band
            band_and = (
                ((pa_ & pb_) >> off_arr[first]) & mask_arr[first]
            ).astype(np.int64)
            low = bkt[ai[sel]] & ((np.int64(1) << np.int64(48)) - 1)
            keep = (first == cur) & (band_and == low)
            if keep.any():
                ks = sel[keep]
                out_a.append(ids[ai[ks]])
                out_b.append(ids[bi[ks]])
                out_d.append(d[ks])
        if not out_a:
            return empty
        return pa.table(
            {"img_a": pa.array(np.concatenate(out_a), pa.string()),
             "img_b": pa.array(np.concatenate(out_b), pa.string()),
             "hamming": pa.array(np.concatenate(out_d), pa.int64())}
        )

    return _bucket_walk(images.map_batches(explode, batch_format="pyarrow"),
                        walk_pairs)


def recrawl_priority(
    urls: pd.DataFrame, now_epoch: float, half_life_sec: float = 86400.0
) -> pd.DataFrame:
    """O1 staleness priority: priority grows with time since last crawl
    (deterministic given an injected ``now_epoch`` — no wall clock)."""
    age = np.maximum(now_epoch - urls["last_crawled_epoch"].to_numpy(), 0.0)
    out = urls.copy()
    out["priority"] = age / half_life_sec
    return out.sort_values(
        ["priority", "url"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Crawler-trap detection: URL-family explosion counts


_TRAP_CATS = ["sofa", "lamp", "desk", "rug", "chair", "bed", "shelf"]


def _trap_urls(t: pa.Table) -> pa.Table:
    """Deterministic URL derivation from the orders table (both engines
    build the IDENTICAL strings): ~1/4 of orders map to a bounded catalog
    path (``/p/<id%100>``), the rest to a session/pagination-exploded
    search URL (``/search?q=..&page=<orderkey>``) — the classic crawler
    trap (calendar pages, session ids, sort permutations) whose distinct
    URL count grows with the crawl instead of the site."""
    k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    host = pd.Series(c % 10).astype(str).radd("shop-") + ".example.com"
    cat = pd.Series(np.array(_TRAP_CATS, dtype=object)[k % 7])
    catalog = (k % 4) == 0
    tail = pd.Series(
        np.where(
            catalog,
            "/p/" + pd.Series(k % 100).astype(str),
            "/search?q=" + pd.Series(k % 5).astype(str)
            + "&page=" + pd.Series(k).astype(str),
        )
    )
    url = "https://" + host + "/" + cat + tail
    return pa.table(
        {"url": pa.array(url, pa.string()), "host": pa.array(host, pa.string())}
    )


def url_trap_families(sf_dir: str, min_urls: int = 1200) -> rd.Dataset:
    """Crawler-trap detection over a URL corpus: collapse every digit run
    to ``N`` (the standard URL-template normalization), then count DISTINCT
    urls and hosts per family — families whose variant count explodes past
    ``min_urls`` are flagged as traps (a frontier-side kill list: a real
    crawl feeds these families into the politeness/selection stage to cap
    or drop them).

    Scale shape: per-batch the family map is ONE compiled vectorized regex
    pass, then an in-batch distinct(family, url) combiner; ONE family-keyed
    ``copartition`` (one url per order row) moves deduplicated triples only; per-partition pandas
    nunique/min folds finish. No driver-side URL state — the output is
    O(|families|).
    """
    from crawler_ray.sources.io import read_parquet_sized

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"],
        target_rows_per_block=4096,
    )

    def fam_rows(t: pa.Table) -> pa.Table:
        u = _trap_urls(t)
        url = u["url"].to_pandas()
        fam = url.str.replace(r"[0-9]+", "N", regex=True)
        df = pd.DataFrame(
            {"family": fam, "url": url, "host": u["host"].to_pandas()}
        ).drop_duplicates(["family", "url"])
        df["key"] = pd.util.hash_array(df["family"].to_numpy(dtype=object)).view(
            np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().drop_duplicates(["family", "url"])
        out = df.groupby("family", sort=False).agg(
            n_urls=("url", "nunique"),
            n_hosts=("host", "nunique"),
            example_url=("url", "min"),
        ).reset_index()
        out["n_urls"] = out["n_urls"].astype(np.int64)
        out["n_hosts"] = out["n_hosts"].astype(np.int64)
        out["is_trap"] = out["n_urls"] >= min_urls
        return pa.Table.from_pandas(out, preserve_index=False)

    return copartition(
        [orders.map_batches(fam_rows, batch_format="pyarrow")], fold,
        pa.schema([("family", pa.string()), ("url", pa.string()),
                   ("host", pa.string())]),
        exchange_parts(sf_dir, "orders"),
    )


def url_trap_families_sql(min_urls: int = 1200) -> str:
    cats = ", ".join(f"'{c}'" for c in _TRAP_CATS)
    return f"""
WITH urls AS (
  SELECT 'https://shop-' || (o_custkey % 10) || '.example.com/'
         || ([{cats}])[(o_orderkey % 7) + 1]
         || CASE WHEN o_orderkey % 4 = 0
                 THEN '/p/' || (o_orderkey % 100)
                 ELSE '/search?q=' || (o_orderkey % 5) || '&page=' || o_orderkey
            END AS url,
         'shop-' || (o_custkey % 10) || '.example.com' AS host
  FROM orders
)
SELECT regexp_replace(url, '[0-9]+', 'N', 'g') AS family,
       COUNT(DISTINCT url)::BIGINT AS n_urls,
       COUNT(DISTINCT host)::BIGINT AS n_hosts,
       MIN(url) AS example_url,
       COUNT(DISTINCT url) >= {min_urls} AS is_trap
FROM urls
GROUP BY 1
"""


def _noisy_urls(t: pa.Table) -> pd.Series:
    """Deterministic RAW URL derivation from orders — the same product page
    reached through the noise variants a real crawl sees: host-case
    differences, an explicit default port, tracking params, param-order
    permutations, and fragments. Both engines derive the IDENTICAL raw
    strings; only the Ray side then runs the real canonicalizer
    (``strip_tracking_params`` + ``normalize_url``), so the SQL twin — which
    constructs the canonical form directly from the integer fields — is
    ground truth for the canonicalizer itself."""
    k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    host_lo = pd.Series(c % 10).astype(str).radd("shop-") + ".example.com"
    host_up = host_lo.str.upper()
    host = pd.Series(np.where(k % 2 == 1, host_up, host_lo))
    port = pd.Series(np.where(k % 5 == 0, ":443", ""))
    pid = pd.Series(k % 400).astype(str)
    ref = pd.Series(c % 5).astype(str)
    q_id_first = "?id=" + pid + "&ref=" + ref
    q_ref_first = "?ref=" + ref + "&id=" + pid
    query = pd.Series(np.where(k % 2 == 0, q_id_first, q_ref_first))
    utm = pd.Series(
        np.where(k % 3 == 0, "&utm_source=aff" + pd.Series(c % 3).astype(str), "")
    )
    frag = pd.Series(np.where(k % 7 == 0, "#s" + pd.Series(k % 4).astype(str), ""))
    return "https://" + host + port + "/item" + query + utm + frag


def url_canonical_dups(sf_dir: str) -> rd.Dataset:
    """URL canonicalization dedup: collapse raw URL variants (host case,
    default port, tracking params, param order, fragments) onto their
    canonical frontier key and count distinct raw variants per canonical
    URL — the normalization step in front of the URL-seen set that keeps a
    crawl from fetching the same page once per campaign tag.

    Uses the REAL canonicalizers (``functions.urls.strip_tracking_params``
    then ``normalize_url``) on the Ray side, validated end-to-end because
    the DuckDB twin constructs the canonical string directly from the
    integer fields the noise was derived from.

    Scale shape: per batch, raw URLs dedup in-batch, the canonicalizer runs
    once per distinct raw (stdlib urlsplit per URL — inherently a string
    parse; ~10 µs/URL, and a real frontier pays this exactly once per
    discovered URL anyway); ONE canonical-keyed ``copartition`` (one url
    per order row) moves deduplicated (canon, raw) pairs; per-partition pandas folds finish. Output is
    O(|canonical urls|); no driver-side URL state."""
    from crawler_ray.functions.urls import normalize_url, strip_tracking_params
    from crawler_ray.sources.io import read_parquet_sized

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"],
        target_rows_per_block=4096,
    )

    def canon_rows(t: pa.Table) -> pa.Table:
        raw = _noisy_urls(t)
        n_rows = raw.groupby(raw, sort=False).size()  # rows per raw, in batch
        uniq = n_rows.index.to_numpy(dtype=object)
        canon = np.array(
            [normalize_url(strip_tracking_params(u)) for u in uniq], dtype=object
        )
        df = pd.DataFrame(
            {"canon": canon, "raw": uniq, "n_rows_p": n_rows.to_numpy(np.int64)}
        )
        df["key"] = pd.util.hash_array(df["canon"].to_numpy(dtype=object)).view(
            np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = (
            df.groupby("canon", sort=False)
            .agg(
                n_variants=("raw", "nunique"),
                n_rows=("n_rows_p", "sum"),
                example_raw=("raw", "min"),
            )
            .reset_index()
            .rename(columns={"canon": "canonical_url"})
        )
        out["n_variants"] = out["n_variants"].astype(np.int64)
        out["n_rows"] = out["n_rows"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return copartition(
        [orders.map_batches(canon_rows, batch_format="pyarrow")], fold,
        pa.schema([("canon", pa.string()), ("raw", pa.string()),
                   ("n_rows_p", pa.int64())]),
        exchange_parts(sf_dir, "orders"),
    )


URL_CANONICAL_DUPS_SQL = """
WITH u AS (
  SELECT
    'https://shop-' || (o_custkey % 10) || '.example.com/item?id='
        || (o_orderkey % 400) || '&ref=' || (o_custkey % 5) AS canon,
    'https://'
    || CASE WHEN o_orderkey % 2 = 1
            THEN upper('shop-' || (o_custkey % 10) || '.example.com')
            ELSE 'shop-' || (o_custkey % 10) || '.example.com' END
    || CASE WHEN o_orderkey % 5 = 0 THEN ':443' ELSE '' END
    || '/item'
    || CASE WHEN o_orderkey % 2 = 0
            THEN '?id=' || (o_orderkey % 400) || '&ref=' || (o_custkey % 5)
            ELSE '?ref=' || (o_custkey % 5) || '&id=' || (o_orderkey % 400) END
    || CASE WHEN o_orderkey % 3 = 0
            THEN '&utm_source=aff' || (o_custkey % 3) ELSE '' END
    || CASE WHEN o_orderkey % 7 = 0
            THEN '#s' || (o_orderkey % 4) ELSE '' END AS raw
  FROM orders
)
SELECT canon AS canonical_url,
       COUNT(DISTINCT raw)::BIGINT AS n_variants,
       COUNT(*)::BIGINT AS n_rows,
       MIN(raw) AS example_raw
FROM u GROUP BY 1
"""
