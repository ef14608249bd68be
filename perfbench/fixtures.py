"""Seeded inputs for the three workloads, written to benchmark-owned dirs.

Everything is a pure function of ``(seed, size)``: the same pair always
writes the same files. The crawl and ingest fixtures come from the
package's own generators (``generate_site``, ``generate_image_frontier``);
the query tables are generated here, with the schemas and value grids of
the TPC-H-like driver testdata (prices and amounts on a cent grid, dates on
a day grid, one 30-word vocabulary), so the package's exact-arithmetic
pipelines and their DuckDB oracles apply unchanged.
"""

from __future__ import annotations

import datetime as dt
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# workload sizes: "bench" is what the benchmark measures, "toy" is the
# self-test size
CRAWL = {
    "bench": dict(n_hosts=16, products_per_host=100, categories_per_host=8,
                  page_size=20, imgs_per_product=2),
    "toy": dict(n_hosts=4, products_per_host=12, categories_per_host=4,
                page_size=5, imgs_per_product=2),
}
INGEST = {"bench": 4000, "toy": 300}
INGEST_PX = 64
# multiples of the sf0.01 driver testdata row counts
QUERY = {"bench": 0.5, "toy": 0.05}

_VOCAB = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the"
).split()
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["de", "en", "es", "fr", "zh"]


def fixture_dir(root: str, workload: str, seed: int, size: str) -> str:
    return os.path.join(root, ".perfbench", "fixtures", f"{workload}-{size}-s{seed}")


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build_site(path: str, seed: int, size: str) -> None:
    """Synthetic shop site + ground truth (``expected_images.parquet``,
    ``expected_seen.json``) for ``crawl_bfs``."""
    from crawler_ray.sources.synthetic import SiteSpec, generate_site, write_site

    write_site(generate_site(SiteSpec(seed=seed, **CRAWL[size])), _fresh(path))


def build_frontier(path: str, seed: int, size: str) -> dict:
    """Image-URL seed list for ``ingest_images``; returns the expected
    counts derived from the URLs alone."""
    from crawler_ray.sources.synthetic import generate_image_frontier

    seeds = generate_image_frontier(INGEST[size], seed=seed,
                                    img_sizes=(INGEST_PX,))
    _fresh(path)
    pq.write_table(seeds, os.path.join(path, "seeds.parquet"))
    with open(os.path.join(path, "robots.json"), "w") as f:
        f.write("{}")
    return expected_ingest(seeds["url"].to_pylist())


def expected_ingest(urls: list[str]) -> dict:
    """Pages = distinct seed URLs. Images = distinct (content_id, fmt, w,
    h): the payload is a function of exactly those, so equal tuples on
    different hosts are one image after md5 dedup."""
    from crawler_ray.sources.synthetic import parse_image_url

    distinct = set(urls)
    images = set()
    for u in distinct:
        _, cid = parse_image_url(u)
        images.add((cid, u.rsplit(".", 1)[1], INGEST_PX, INGEST_PX))
    return {"pages": len(distinct), "images": len(images)}


# ------------------------------------------------------------- query tables
def _cents(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.integers(int(lo * 100), int(hi * 100) + 1, n) / 100.0, 2)


def _days(rng, start: dt.date, span: int, n: int) -> np.ndarray:
    base = np.datetime64(start.isoformat(), "D")
    return (base + rng.integers(0, span, n)).astype("datetime64[us]")


def query_tables(seed: int, scale: float) -> dict[str, pa.Table]:
    rng = np.random.default_rng([seed, 0x51])
    n_cust = max(50, int(1500 * scale))
    n_supp = max(10, int(100 * scale))
    n_part = max(50, int(2000 * scale))
    n_ord = max(200, int(15000 * scale))
    n_ev = max(200, int(10000 * scale))
    n_doc = max(40, int(500 * scale))
    n_emb = max(40, int(500 * scale))
    n_users = max(10, int(150 * scale ** 0.5))

    region = pa.table({
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": _REGIONS,
    })
    nation = pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
    })
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": _cents(rng, -999.99, 9999.99, n_cust),
        "c_mktsegment": [_SEGMENTS[i] for i in rng.integers(0, 5, n_cust)],
    })
    supplier = pa.table({
        "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
        "s_acctbal": _cents(rng, -999.99, 9999.99, n_supp),
    })
    odate = _days(rng, dt.date(1995, 1, 1), 2405, n_ord)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": [("F", "O", "P")[i] for i in rng.integers(0, 3, n_ord)],
        "o_totalprice": _cents(rng, 1000.0, 500000.0, n_ord),
        "o_orderdate": pa.array(odate, pa.timestamp("us")),
        "o_orderpriority": [_PRIORITIES[i] for i in rng.integers(0, 5, n_ord)],
    })
    lines = rng.integers(1, 8, n_ord)
    okey = np.repeat(np.arange(n_ord), lines)
    n_li = int(okey.size)
    lineno = np.concatenate([np.arange(1, k + 1) for k in lines])
    ship = odate[okey] + rng.integers(1, 122, n_li).astype("timedelta64[D]")
    lineitem = pa.table({
        "l_orderkey": pa.array(okey, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n_part, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), pa.int64()),
        "l_linenumber": pa.array(lineno, pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": _cents(rng, 900.0, 105000.0, n_li),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": [("A", "N", "R")[i] for i in rng.integers(0, 3, n_li)],
        "l_linestatus": [("F", "O")[i] for i in rng.integers(0, 2, n_li)],
        "l_shipdate": pa.array(ship.astype("datetime64[us]"), pa.timestamp("us")),
    })
    # events: strictly increasing timestamps with microsecond jitter over
    # ~30 days, so session gaps (30 min) occur at realistic rates
    gaps = rng.integers(1, int(2 * 30 * 86400e6 / n_ev), n_ev)
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.cumsum(gaps).astype(
        "timedelta64[us]")
    events = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_users, n_ev), pa.int64()),
        "event_type": [_EVENT_TYPES[i] for i in rng.integers(0, 5, n_ev)],
        "value": np.round(np.minimum(rng.exponential(50.0, n_ev), 499.99)
                          + 0.01, 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    texts = [
        " ".join(_VOCAB[j] for j in rng.integers(0, len(_VOCAB), k))
        for k in rng.integers(10, 100, n_doc)
    ]
    documents = pa.table({
        "doc_id": pa.array(np.arange(n_doc), pa.int64()),
        "text": texts,
        "lang": [_LANGS[i] for i in rng.integers(0, 5, n_doc)],
        "source": [f"src{i % 20}" for i in range(n_doc)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    vecs = rng.normal(size=(n_emb, 64)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    embeddings = pa.table({
        "vec_id": pa.array(np.arange(n_emb), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_emb), pa.int32()),
    })
    return {
        "region": region, "nation": nation, "customer": customer,
        "supplier": supplier, "orders": orders, "lineitem": lineitem,
        "events": events, "documents": documents, "embeddings": embeddings,
    }


def build_query_tables(path: str, seed: int, size: str) -> list[str]:
    _fresh(path)
    tables = query_tables(seed, QUERY[size])
    for name, t in tables.items():
        pq.write_table(t, os.path.join(path, f"{name}.parquet"))
    return sorted(tables)
