"""Randomized differential fuzzing of the oracle surface.

The fixed sweeps (driver corpus, adversarial-text, hot-key skew, null,
empty/single-row, 20x tiles) each pin ONE adversarial distribution. This
tool samples NEW ones per seed: for every seed it derives a mutated corpus
from ``/root/testdata/sf0.001`` — same schemas, same categorical
vocabularies, same key structure (primary keys untouched), but freshly
randomized value distributions chosen to hit the classic engine-vs-SQL
divergence spots —

  * heavy TIES everywhere (sort keys, timestamps, prices, quantities):
    order-dependence and unstable-sort bugs;
  * exact-midnight / shared-microsecond timestamps: window boundary bugs;
  * Zipf-skewed foreign keys (hot order / customer / user / part) and
    absent parents: join skew and outer-join zero-fill bugs;
  * money values on a 2dp grid up to 10^6 with duplicates: integer-cents
    fold and accumulation-order bugs;
  * documents rebuilt from a tiny Zipf vocabulary with planted exact
    duplicates, one-token near-duplicates, empty and whitespace-only
    texts: dedup/shingle/tokenizer bugs;
  * unit-norm embeddings (the driver generator's contract) with exact
    duplicates and tight clusters: similarity/ANN bugs.

Every oracled query is value-compared against DuckDB with the driver's
canon (columns sorted by name, rows by all columns; float compare at the
conformance tolerance); every rows-only query is run for totality (no
crash) on the same corpus. Exit code = number of failures across all seeds.

Usage:
    python tools/fuzz_oracles.py [--seeds N] [--skip-totality] [name ...]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# hashcheck puts the checkout root (derived from its own path) on sys.path
from hashcheck import (  # noqa: E402
    DEFAULT_SKIP, TABLES, _canon, _to_pandas, init_ray,
)

BASE = os.environ.get("FUZZ_BASE", "/root/testdata/sf0.001")

VOCAB = [
    "the", "fast", "key", "order", "sort", "table", "scan", "merge", "part",
    "window", "small", "hash", "join", "batch", "stream", "spark", "data",
    "group", "query", "row", "slow", "filter", "customer", "line", "value",
    "agg", "big", "café", "中文", "naïve",
]

NASTY_TAILS = ["", "  ", "\t", " \n", " ends ", "a" * 80]


def _money(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """2dp money on a coarse grid → many exact duplicates."""
    cents = rng.integers(int(lo * 100), int(hi * 100) + 1, n)
    # snap 60% of values onto a 1000-cent grid for heavy ties
    snap = rng.random(n) < 0.6
    cents = np.where(snap, (cents // 1000) * 1000 + 99, cents)
    return cents / 100.0


def _ts_with_ties(
    rng: np.random.Generator, n: int, lo: str, hi: str, n_distinct: int
) -> np.ndarray:
    """Timestamps drawn from a SMALL pool that includes exact midnights and
    shared microsecond values — every row shares its ts with ~n/n_distinct
    others."""
    lo_ns = np.datetime64(lo).astype("datetime64[us]").astype(np.int64)
    hi_ns = np.datetime64(hi).astype("datetime64[us]").astype(np.int64)
    pool = rng.integers(lo_ns, hi_ns, n_distinct)
    day_us = 86400_000_000
    pool[: n_distinct // 4] = (pool[: n_distinct // 4] // day_us) * day_us  # midnights
    return pool[rng.integers(0, n_distinct, n)].astype("datetime64[us]")


def _zipf_pick(rng: np.random.Generator, pool: np.ndarray, n: int) -> np.ndarray:
    """Zipf-skewed sample from pool (hot head, absent tail)."""
    ranks = rng.zipf(1.3, n)
    return pool[np.minimum(ranks - 1, len(pool) - 1)]


def build_corpus(seed: int, out_dir: str, barren: bool = False) -> str:
    """``barren=True`` additionally steers every selective predicate used by
    the report queries off-target (order/ship dates before every query
    window, one market segment, one event type, ...) so that most filtered
    results are EMPTY — the empty-RESULT schema sweep (the empty-corpus
    tests cover empty INPUT; an empty result of a non-empty input exercises
    a different failure mode: Ray's ``to_pandas()`` drops the schema of an
    all-empty Dataset)."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    def load(t):
        return pq.read_table(f"{BASE}/{t}.parquet").to_pandas()

    def dump(df, t, schema):
        # shuffle row order: block-split / arrival-order sensitivity
        df = df.sample(frac=1.0, random_state=seed & 0x7FFFFFFF).reset_index(drop=True)
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False).cast(schema),
            f"{out_dir}/{t}.parquet",
        )

    schemas = {t: pq.read_schema(f"{BASE}/{t}.parquet") for t in TABLES}

    # region / nation: contract-fixed dims, copied verbatim
    for t in ("region", "nation"):
        pq.write_table(pq.read_table(f"{BASE}/{t}.parquet"), f"{out_dir}/{t}.parquet")

    cust = load("customer")
    n = len(cust)
    cust["c_nationkey"] = _zipf_pick(rng, np.arange(25, dtype=np.int32), n)
    cust["c_acctbal"] = np.round(
        np.where(rng.random(n) < 0.2, 0.0, _money(rng, n, -1000, 10000)), 2
    )
    segs = ["AUTOMOBILE"] if barren else [
        "AUTOMOBILE", "FURNITURE", "HOUSEHOLD", "MACHINERY", "BUILDING"
    ]
    cust["c_mktsegment"] = _zipf_pick(rng, np.array(segs, dtype=object), n)
    dump(cust, "customer", schemas["customer"])

    supp = load("supplier")
    supp["s_nationkey"] = _zipf_pick(
        rng, np.arange(25, dtype=np.int32), len(supp)
    )
    supp["s_acctbal"] = _money(rng, len(supp), -1000, 10000)
    dump(supp, "supplier", schemas["supplier"])

    part = load("part")
    n = len(part)
    part["p_size"] = _zipf_pick(rng, np.arange(1, 51, dtype=np.int32), n)
    part["p_retailprice"] = _money(rng, n, 900, 920)
    # barren: no Brand#1/2/3, no PROMO — the brand/type-filtered report
    # queries (small_qty_part_revenue, brand_size_quantity_revenue,
    # promo_revenue_share's numerator) come out empty
    brand_pool = np.arange(10, 26) if barren else np.arange(1, 26)
    part["p_brand"] = np.array(
        [f"Brand#{b}" for b in _zipf_pick(rng, brand_pool, n)], dtype=object
    )
    types = ["ECONOMY", "LARGE", "STANDARD", "MEDIUM", "SMALL", "PROMO"]
    if barren:
        types = ["ECONOMY"]
    part["p_type"] = _zipf_pick(rng, np.array(types, dtype=object), n)
    dump(part, "part", schemas["part"])

    orders = load("orders")
    n = len(orders)
    custkeys = cust["c_custkey"].to_numpy()
    # hot-customer skew + absent parents (some customers never order)
    orders["o_custkey"] = _zipf_pick(rng, rng.permutation(custkeys), n)
    orders["o_totalprice"] = _money(rng, n, 1000, 1_000_000)
    if barren:
        # before every report query's date window
        orders["o_orderdate"] = _ts_with_ties(rng, n, "1990-01-01", "1991-01-01", 8)
    else:
        orders["o_orderdate"] = _ts_with_ties(rng, n, "1995-01-01", "2002-01-01", 40)
    orders["o_orderstatus"] = _zipf_pick(
        rng, np.array(["P", "O", "F"], dtype=object), n
    )
    prios = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
    orders["o_orderpriority"] = _zipf_pick(rng, np.array(prios, dtype=object), n)
    dump(orders, "orders", schemas["orders"])

    li = load("lineitem")
    n = len(li)
    okeys = orders["o_orderkey"].to_numpy()
    li["l_orderkey"] = _zipf_pick(rng, rng.permutation(okeys), n)
    li["l_partkey"] = _zipf_pick(rng, rng.permutation(part["p_partkey"].to_numpy()), n)
    li["l_suppkey"] = _zipf_pick(rng, rng.permutation(supp["s_suppkey"].to_numpy()), n)
    li["l_quantity"] = _zipf_pick(rng, np.arange(1, 51), n).astype(float)
    li["l_extendedprice"] = _money(rng, n, 1, 100_000)
    li["l_discount"] = rng.integers(0, 11, n) / 100.0
    li["l_tax"] = rng.integers(0, 9, n) / 100.0
    rflags = ["N"] if barren else ["A", "N", "R"]
    li["l_returnflag"] = _zipf_pick(rng, np.array(rflags, dtype=object), n)
    li["l_linestatus"] = _zipf_pick(rng, np.array(["O", "F"], dtype=object), n)
    li["l_shipdate"] = _ts_with_ties(
        rng, n, *(("1990-01-01", "1991-01-01", 8) if barren
                  else ("1995-01-01", "2002-01-01", 30))
    )
    dump(li, "lineitem", schemas["lineitem"])

    ev = load("events")
    n = len(ev)
    ev["ts"] = _ts_with_ties(rng, n, "2024-01-01", "2024-01-31", 25)
    ev["user_id"] = _zipf_pick(rng, np.arange(0, 15), n)
    # 10% negative values: legal parquet the driver generator never emits —
    # exercises the sign regime of every value fold (integer-cents folds and
    # SQL SUM/AVG agree on negatives; anything assuming value >= 0 surfaces)
    ev["value"] = np.where(
        rng.random(n) < 0.1, -_money(rng, n, 0, 350), _money(rng, n, 0, 350)
    )
    etypes = ["view"] if barren else [
        "signup", "click", "error", "view", "purchase"
    ]
    ev["event_type"] = _zipf_pick(rng, np.array(etypes, dtype=object), n)
    # mostly small counters (the generator's regime) plus a large-k tail up
    # to 10^12 — inside int64 AND float64-exact, so any divergence is an
    # int32 truncation or lossy parse, not a representation gap
    kvals = np.where(
        rng.random(n) < 0.05,
        rng.integers(1_000_000, 1_000_000_000_000, n),
        rng.integers(0, 100, n),
    )
    props_forms = [
        lambda k: f'{{"k": {k}}}',
        lambda k: "{}",
        lambda k: f'{{"other": {k}}}',
        lambda k: f'{{"k": {k}, "s": "x y"}}',
        lambda k: f'{{"nested": {{"k": 1}}, "k": {k}}}',
    ]
    form_idx = rng.integers(0, len(props_forms), n)
    ev["props"] = [props_forms[f](k) for f, k in zip(form_idx, kvals)]
    dump(ev, "events", schemas["events"])

    docs = load("documents")
    n = len(docs)
    vocab = np.array(VOCAB, dtype=object)
    texts = []
    for i in range(n):
        mode = rng.random()
        if mode < 0.04:
            texts.append("")  # empty
        elif mode < 0.07:
            texts.append("   \t ")  # whitespace-only
        else:
            L = int(rng.zipf(1.5)) + int(rng.integers(3, 40))
            words = _zipf_pick(rng, vocab, min(L, 200))
            texts.append(" ".join(words) + NASTY_TAILS[int(rng.integers(0, len(NASTY_TAILS)))])
    # planted exact duplicates (10%) and one-token near-duplicates (5%)
    for _ in range(n // 10):
        a, b = rng.integers(0, n, 2)
        texts[b] = texts[a]
    for _ in range(n // 20):
        a, b = rng.integers(0, n, 2)
        w = texts[a].split()
        if len(w) > 3:
            w[int(rng.integers(0, len(w)))] = "mutant"
            texts[b] = " ".join(w)
    docs["text"] = texts
    docs["n_chars"] = [len(t) for t in texts]
    # barren: no 'en' docs — the lang-gated pipelines (DSIR weights/sample,
    # curation's lang filter) see an empty selected set
    lang_pool = ["de", "fr", "es", "zh"] if barren else ["en", "de", "fr", "es", "zh"]
    docs["lang"] = _zipf_pick(rng, np.array(lang_pool, dtype=object), n)
    docs["source"] = _zipf_pick(
        rng, np.array([f"src{i}" for i in range(20)], dtype=object), n
    )
    dump(docs, "documents", schemas["documents"])

    emb = load("embeddings")
    n = len(emb)
    # tight clusters + exact duplicates + scaled collinear pairs
    n_clusters = 8
    centers = rng.normal(0, 1, (n_clusters, 64))
    assign = rng.integers(0, n_clusters, n)
    vecs = centers[assign] + rng.normal(0, 0.05, (n, 64))
    # contract: driver embeddings are UNIT-NORMALIZED (float32) — normalize
    # BEFORE planting duplicates so dup pairs stay bit-identical
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    for _ in range(n // 10):
        a, b = rng.integers(0, n, 2)
        vecs[b] = vecs[a]  # exact duplicate
    emb["embedding"] = list(vecs)
    emb["label"] = _zipf_pick(rng, np.arange(0, 10, dtype=np.int32), n)
    dump(emb, "embeddings", schemas["embeddings"])
    return out_dir


def run_seed(
    seed: int, names: list[str], totality: bool, barren: bool = False
) -> list[str]:
    import duckdb

    import __ray_entry__ as entry_mod

    tag = "_barren" if barren else ""
    sf_dir = build_corpus(seed, f"/tmp/fuzz_sf_{seed}{tag}", barren=barren)
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE OR REPLACE VIEW {t} AS "
            f"SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    queries = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    # at big bases (sf0.1+) the deliberately-quadratic DuckDB twins don't
    # finish — demote those queries to totality-only (the Ray side is the
    # scale path; their value-exactness is held at the smaller bases)
    skip_quadratic = "--skip-quadratic" in sys.argv or os.environ.get(
        "FUZZ_SKIP_QUADRATIC"
    )
    failures: list[str] = []
    for name in names:
        t0 = time.monotonic()
        try:
            got = _canon(_to_pandas(queries[name](sf_dir)))
            if name in oracles and skip_quadratic and name in DEFAULT_SKIP:
                print(
                    f"  PASS seed={seed} {name}: {len(got)} rows "
                    "(totality only; quadratic oracle skipped)",
                    flush=True,
                )
                continue
            if name in oracles:
                exp = _canon(con.sql(oracles[name]).df())
                assert list(got.columns) == list(exp.columns), (
                    f"columns {list(got.columns)} != {list(exp.columns)}"
                )
                assert len(got) == len(exp), f"rows {len(got)} != {len(exp)}"
                pd.testing.assert_frame_equal(
                    got, exp, check_dtype=False, atol=1e-6, rtol=1e-9
                )
                tag = f"{len(got)} rows"
            else:
                tag = f"{len(got)} rows (totality only)"
            print(
                f"  PASS seed={seed} {name}: {tag} ({time.monotonic() - t0:.1f}s)",
                flush=True,
            )
        except Exception as e:
            msg = str(e).replace("\n", " | ")[:400]
            failures.append(f"seed={seed} {name}: {msg}")
            print(f"  FAIL seed={seed} {name}: {msg}", flush=True)
    con.close()
    return failures


def main(argv: list[str]) -> int:
    n_seeds = 3
    if "--seeds" in argv:
        i = argv.index("--seeds")
        n_seeds = int(argv[i + 1])
        del argv[i : i + 2]
    totality = "--skip-totality" not in argv
    barren = "--barren" in argv
    argv = [a for a in argv if not a.startswith("--")]
    seed0 = int(os.environ.get("FUZZ_SEED0", "1000"))

    init_ray()

    import __ray_entry__ as entry_mod

    oracles = entry_mod.oracle_sql()
    queries = entry_mod.queries()
    if argv:
        names = argv
    else:
        names = sorted(oracles)
        if totality:
            names += sorted(set(queries) - set(oracles))

    all_failures: list[str] = []
    for k in range(n_seeds):
        seed = seed0 + k
        print(f"== seed {seed}{' (barren)' if barren else ''} ==", flush=True)
        all_failures += run_seed(seed, names, totality, barren=barren)
    print(
        f"\n{n_seeds} seeds x {len(names)} queries: "
        f"{len(all_failures)} failures"
    )
    for f in all_failures:
        print("FAIL " + f)
    return len(all_failures)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
