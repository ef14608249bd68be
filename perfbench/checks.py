"""Output checks. Each raises ``CheckFailed`` on the first mismatch; the run
then reports ``correct: false`` and exits non-zero."""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pyarrow.parquet as pq


class CheckFailed(AssertionError):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _hashcheck():
    """``tools/hashcheck.py``: the repo's value-exact oracle comparison."""
    tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    import hashcheck

    return hashcheck


def to_pandas(result):
    return _hashcheck()._to_pandas(result)


def sample_indices(seed: int, n: int, k: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x5A])
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


# ------------------------------------------------------------------ crawl
def load_crawl_expected(fix: str) -> dict:
    with open(os.path.join(fix, "expected_seen.json")) as f:
        n_seen = len(json.load(f))
    return {"images": pq.read_table(os.path.join(fix, "expected_images.parquet")),
            "pages": n_seen}


def check_crawl(out: str, pages_fetched: int, expected: dict) -> None:
    """Images table bit-identical to the generator's ground truth, and one
    fetched page per reachable, robots-allowed URL."""
    from crawler_ray.pipelines.crawl import read_images_table

    _expect(pages_fetched == expected["pages"],
            f"crawl fetched {pages_fetched} pages, expected {expected['pages']}")
    got = read_images_table(out)
    _expect(got.equals(expected["images"]),
            f"crawl images table differs from expected_images.parquet "
            f"({got.num_rows} vs {expected['images'].num_rows} rows)")


# ----------------------------------------------------------------- ingest
def check_ingest(out: str, res, expected: dict, urls: list[str], seed: int,
                 k: int = 16) -> None:
    """Counts derived from the seed URLs, then a seeded sample checked both
    ways: written rows decode to their recorded w/h/phash, and re-synthesized
    seed payloads are present with the right w/h/fmt/phash."""
    from crawler_ray.functions.codecs import decode_image
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.crawl import read_images_table
    from crawler_ray.sources.synthetic import (
        image_meta_for, parse_image_url, synthesize_image_payload)
    from perfbench.fixtures import INGEST_PX

    _expect(res.pages_fetched == expected["pages"],
            f"ingest fetched {res.pages_fetched} pages, expected {expected['pages']}")
    _expect(res.images_written == expected["images"],
            f"ingest wrote {res.images_written} images, expected {expected['images']}")
    table = read_images_table(out)
    _expect(table.num_rows == expected["images"],
            f"images table has {table.num_rows} rows, expected {expected['images']}")
    for row in table.take(sample_indices(seed, table.num_rows, k)).to_pylist():
        px = decode_image(row["bytes"], row["fmt"])
        _expect(px.shape == (row["h"], row["w"], 3),
                f"image {row['image_id']}: decoded {px.shape}, row says "
                f"{row['h']}x{row['w']}")
        _expect(phash64(px) == row["phash"], f"image {row['image_id']}: phash")
        _expect(hashlib.md5(row["bytes"]).hexdigest() == row["image_id"],
                f"image {row['image_id']}: id is not the md5 of its bytes")
    by_id = {iid: i for i, iid in enumerate(table["image_id"].to_pylist())}
    distinct = sorted(set(urls))
    for j in sample_indices(seed + 1, len(distinct), k):
        host, cid = parse_image_url(distinct[j])
        meta = image_meta_for(seed, host, cid, (INGEST_PX,), 0.0)
        payload = synthesize_image_payload(seed, host, cid, (INGEST_PX,), 0.0)
        i = by_id.get(hashlib.md5(payload).hexdigest())
        _expect(i is not None, f"{distinct[j]}: image missing from output")
        row = table.slice(i, 1).to_pylist()[0]
        _expect((row["fmt"], row["w"], row["h"]) == (meta["fmt"], meta["w"], meta["h"]),
                f"{distinct[j]}: fmt/w/h {row['fmt']}/{row['w']}/{row['h']} != "
                f"{meta['fmt']}/{meta['w']}/{meta['h']}")
        _expect(row["phash"] == phash64(decode_image(payload, meta["fmt"])),
                f"{distinct[j]}: phash differs from re-synthesis")


# ------------------------------------------------------------------ query
def oracle_results(sf_dir: str, tables: list[str], sql: dict[str, str]) -> dict:
    import duckdb

    hc = _hashcheck()
    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE OR REPLACE VIEW {t} AS "
                f"SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    out = {n: hc._canon(con.sql(q).df()) for n, q in sql.items()}
    con.close()
    return out


def check_query(name: str, got_df, expected) -> None:
    """``tools/hashcheck.py``'s comparison: canonical column and row order,
    then equal frames."""
    import pandas as pd

    got = _hashcheck()._canon(got_df)
    _expect(list(got.columns) == list(expected.columns),
            f"{name}: columns {list(got.columns)} != {list(expected.columns)}")
    _expect(len(got) == len(expected), f"{name}: {len(got)} rows != {len(expected)}")
    try:
        pd.testing.assert_frame_equal(got, expected, check_dtype=False,
                                      atol=1e-6, rtol=1e-9)
    except AssertionError as e:
        raise CheckFailed(f"{name}: {str(e)[:300]}") from None


def check_no_build_cache(tmp: str) -> None:
    """The query set must not serve from a build-once index cache, or later
    passes would do less work than the first."""
    cached = [n for n in os.listdir(tmp) if n.startswith("crawler_ray_")]
    _expect(not cached, f"query set created build-once caches: {cached}")
