"""Generic relational operators over the driver testdata (TPC-H-ish tables).

These re-express the reference's joins / aggregations / sorts / dedup
(SURVEY.md §2.4–§2.7: brand broadcast-lookup J1/J2, grouped counts A1,
first-match limits O4, exact dedup J5) as reusable Ray Data pipelines, each
with a DuckDB oracle in ``__ray_entry__.oracle_sql``. Conventions:

- column pruning at ``read_parquet`` (only needed columns leave storage),
- vectorized pyarrow/pandas kernels inside ``map_batches`` (no row loops),
- small-side joins are broadcast (``ray.put`` once, resolved once per task
  worker and merged per batch in a task-mode stage) — no shuffle,
- aggregates are named identically to the oracle SQL aliases,
- floats that cross the hash-compare boundary are rounded in BOTH engines.

None of these functions calls ``ray.init`` (driver contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from crawler_ray.context import worker_cached
from crawler_ray.functions.rounding import round_np
from crawler_ray.pipelines.joins import copartition, exchange_parts, footer_schema
from crawler_ray.pipelines.result import scalar_safe, schema_safe
from ray.data.aggregate import Count, Max, Min, Sum


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    from crawler_ray.sources.io import read_parquet_sized

    # cheap columnar scans: coarser blocks than the doc/embedding readers —
    # per-block scheduling dominates trivial per-row work long before CPU does
    return read_parquet_sized(
        f"{sf_dir}/{table}.parquet", columns=columns, target_rows_per_block=4096
    )


def _by_customer(sf_dir: str, orders: rd.Dataset, fold, columns: list[str],
                 cents: bool = False) -> rd.Dataset:
    """One custkey-keyed ``copartition`` of the orders table: every order
    of a customer meets in one ``fold`` call, with its ``o_custkey`` and
    ``columns`` (typed as in the footer) and, with ``cents``, the int64
    ``cents`` column the caller's map adds."""
    schema = footer_schema(sf_dir, "orders", columns)
    if cents:
        schema = schema.append(pa.field("cents", pa.int64()))
    return copartition([orders], fold, schema,
                       exchange_parts(sf_dir, "orders"), key="o_custkey")


def _by_part_type(sf_dir: str, fold) -> rd.Dataset:
    """One p_type-keyed ``copartition`` of the part table: every part of a
    type meets in one ``fold`` call (key: the hashed p_type)."""
    cols = ["p_partkey", "p_type", "p_size"]

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        key = pd.util.hash_array(df["p_type"].to_numpy(object)).view(np.int64)
        return df.assign(key=key)

    return copartition(
        [_read(sf_dir, "part", cols).map_batches(keyed, batch_format="pandas")],
        fold, footer_schema(sf_dir, "part", cols), exchange_parts(sf_dir, "part"),
    )


def _read_pandas(
    sf_dir: str, table: str, columns: list[str] | None = None
) -> pd.DataFrame:
    """Driver-side dim-table read with a SCHEMA-STABLE empty: Ray Data's
    ``to_pandas`` on a zero-block dataset drops every column (empty blocks
    skip all UDFs and the schema nulls out), which turns a merely-empty
    corpus into ``KeyError``s at the first merge. Empty dims fall back to
    the parquet footer schema so joins/folds stay total."""
    df = _read(sf_dir, table, columns).to_pandas()
    if df.empty and len(df.columns) == 0:
        import pyarrow.parquet as pq_

        schema = pq_.read_schema(f"{sf_dir}/{table}.parquet")
        empty = schema.empty_table()
        if columns:
            empty = empty.select(columns)
        df = empty.to_pandas()
    return df


class BroadcastJoiner:
    """Map-side inner hash join against a broadcast small table (J1/J2
    pattern: the reference probes in-memory brand/category bags,
    ``ShiweijiaProduct.cs:228-240,395-396``). ``ray.put`` the small side
    once; the task-mode instance holds only the REF (shipped in the pickled
    callable) and resolves it once per worker process
    (``context.worker_cached``) — never re-shipped per batch, and no
    actor-pool spin-up per execution."""

    def __init__(self, small_ref: ray.ObjectRef, on: str | list[str]):
        self.ref = small_ref
        self.on = on
        self._small: pd.DataFrame | None = None

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        if self._small is None:
            # also held on the instance: two joiners fused into one task
            # alternate on the worker slot, and would otherwise re-resolve
            # per batch
            self._small = worker_cached(
                "broadcast_join", self.ref.hex(), lambda: ray.get(self.ref)
            )
        # Arrow out: broadcast-join results usually feed a groupby shuffle,
        # and sort-shuffles over Arrow blocks are much faster than pandas
        return pa.Table.from_pandas(
            batch.merge(self._small, on=self.on), preserve_index=False
        )


def _bjoin(ds: rd.Dataset, small: pd.DataFrame, on):
    return ds.map_batches(
        BroadcastJoiner(ray.put(small), on), batch_format="pandas"
    )


# broadcast-vs-partitioned crossover: customer (and any other SF-scaled
# "dimension") grows with the data — 15k rows at sf0.1 but ~500 MB pickled
# at sf100 and a driver OOM at the 100-TB design point — so a driver-side
# ``.to_pandas()`` broadcast is only safe below a size bar. Above it the dim
# side streams through ``joins.partitioned_hash_join`` with the same
# downstream combiner. A parquet FOOTER row count (``joins._footer_rows``,
# the bloom prefilter's size signal too; no data scan) decides; tests patch
# the bar to run either path and assert identical results.
BROADCAST_DIM_CROSSOVER_ROWS = 2_000_000


def _want_broadcast(dim_parquet: str) -> bool:
    from crawler_ray.pipelines.joins import _footer_rows

    return _footer_rows(dim_parquet) < BROADCAST_DIM_CROSSOVER_ROWS


# ---------------------------------------------------------------------------
# Q1-style pricing summary (filter → computed cols → grouped aggregate)


def q1_pricing_summary(sf_dir: str) -> rd.Dataset:
    """Pre-aggregated grouped summary: partial sums per (flag, status) are
    computed INSIDE each batch (combiner), so the shuffle moves one row per
    group per batch instead of every lineitem row — the pattern that keeps
    this a non-event at 100 TB. Means decompose into sum/count partials."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-01"))))
        df = pd.DataFrame(
            {
                "grp": pc.binary_join_element_wise(
                    t["l_returnflag"], t["l_linestatus"], "|"
                ).to_pandas(),
                "qty": t["l_quantity"].to_numpy(),  # integer-valued: exact
                # integer-cents: order-independent exact partial sums
                "price": np.round(t["l_extendedprice"].to_numpy() * 100.0),
                "disc": np.round(t["l_discount"].to_numpy() * 100.0),
                # exact integer-cents product (see joins.py li_partial note)
                "disc_price": np.round(t["l_extendedprice"].to_numpy() * 100.0)
                * np.round((1.0 - t["l_discount"].to_numpy()) * 100.0),
            }
        )
        out = (
            df.groupby("grp", sort=True)
            .agg(
                sum_qty_p=("qty", "sum"),
                sum_base_price_p=("price", "sum"),
                sum_disc_price_p=("disc_price", "sum"),
                sum_disc_p=("disc", "sum"),
                n=("qty", "size"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("grp").aggregate(
        Sum("sum_qty_p", alias_name="sum_qty"),
        Sum("sum_base_price_p", alias_name="sum_base_price"),
        Sum("sum_disc_price_p", alias_name="sum_disc_price"),
        Sum("sum_disc_p", alias_name="sum_disc"),
        Sum("n", alias_name="count_order"),
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        from crawler_ray.functions.rounding import round_np

        parts = df["grp"].str.split("|", expand=True)
        return pd.DataFrame(
            {
                "l_returnflag": parts[0],
                "l_linestatus": parts[1],
                "sum_qty": round_np(df["sum_qty"], 2),
                "sum_base_price": df["sum_base_price"].astype("int64") / 100.0,
                "sum_disc_price": round_np(df["sum_disc_price"] / 10000.0, 2),
                "avg_qty": round_np(df["sum_qty"] / df["count_order"], 4),
                "avg_disc": round_np(
                    df["sum_disc"].astype("int64") / 100.0 / df["count_order"], 4
                ),
                "count_order": df["count_order"].astype("int64"),
            }
        )

    return agg.map_batches(final, batch_format="pandas")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2)      AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS sum_disc_price,
       ROUND(AVG(l_quantity), 4)      AS avg_qty,
       ROUND(AVG(l_discount), 4)      AS avg_disc,
       COUNT(*)                       AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# broadcast joins (dimension lookups)


def market_segment_revenue(sf_dir: str) -> rd.Dataset:
    """orders ⋈ customer → revenue per market segment (A1-style grouped
    report joined to names). Customer scales with SF, so the join strategy
    is auto-guarded (``_want_broadcast``): below the crossover the dim is
    broadcast (``ray.put`` once, map-side merge); above it BOTH sides
    stream through ``joins.partitioned_hash_join`` — the orders side
    pre-combined to one cents-row per (custkey, block) so the bucket
    exchange moves combined rows, never raw orders."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        # exact integer-cents: 2-decimal money summed as int64 is
        # associative — no accumulation-order flips vs the oracle whatever
        # the block split (events.py / joins.py pattern); combined per
        # (custkey, block) so the partitioned path shuffles partials
        lambda t: pa.Table.from_pandas(
            pd.DataFrame(
                {"o_custkey": t["o_custkey"].to_numpy(),
                 "cents": np.round(
                     t["o_totalprice"].to_numpy() * 100.0).astype(np.int64)}
            )
            .groupby("o_custkey", sort=False, as_index=False)
            .agg(cents=("cents", "sum"), n_ord=("cents", "size")),
            preserve_index=False,
        ),
        batch_format="pyarrow",
    )
    if _want_broadcast(f"{sf_dir}/customer.parquet"):
        cust = (
            _read_pandas(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        )  # below the crossover — materializing the dim is the point
        joined = _bjoin(
            orders, cust.rename(columns={"c_custkey": "o_custkey"}), "o_custkey"
        )
    else:
        from crawler_ray.pipelines.joins import partitioned_hash_join

        dim = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
            lambda t: t.select(["c_custkey", "c_mktsegment"]).rename_columns(
                ["o_custkey", "c_mktsegment"]),
            batch_format="pyarrow",
        )
        joined = partitioned_hash_join(
            orders, dim, "o_custkey",
            exchange_parts(sf_dir, "orders", "customer"),
            left_schema=pa.schema(
                [("o_custkey", pa.int64()), ("cents", pa.int64()),
                 ("n_ord", pa.int64())]),
            right_schema=pa.schema(
                [("o_custkey", pa.int64()), ("c_mktsegment", pa.string())]),
        )

    # combiner BEFORE the exchange: the aggregate sees one row per (segment,
    # block) instead of one per custkey-partial — int64-cents partials keep
    # the distributed sum exact whatever the block split
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("c_mktsegment", sort=False)[["cents", "n_ord"]]
            .agg(revenue_c=("cents", "sum"), n_orders_p=("n_ord", "sum"))
            .reset_index()
        )

    agg = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue_c", alias_name="revenue_c"),
            Sum("n_orders_p", alias_name="n_orders"),
        )
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {"c_mktsegment": df["c_mktsegment"],
             "revenue": df["revenue_c"].astype("int64") / 100.0,
             "n_orders": df["n_orders"].astype("int64")}
        ),
        batch_format="pandas",
    )


MARKET_SEGMENT_SQL = """
SELECT c_mktsegment,
       ROUND(SUM(o_totalprice), 2) AS revenue,
       COUNT(*)                    AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def customers_per_region(sf_dir: str) -> rd.Dataset:
    """customer ⋈ nation ⋈ region (two chained broadcast joins, J2's
    child→parent two-hop lookup) → counts per region name."""
    nation = _read_pandas(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _read_pandas(sf_dir, "region", ["r_regionkey", "r_name"])
    dim = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )[["n_nationkey", "r_name"]].rename(columns={"n_nationkey": "c_nationkey"})
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = _bjoin(cust, dim, "c_nationkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("r_name", sort=False).size().rename("n_p").reset_index()

    return (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("r_name")
        .aggregate(Sum("n_p", alias_name="n_customers"))
        .map_batches(
            lambda df: df.assign(n_customers=df["n_customers"].astype("int64")),
            batch_format="pandas",
        )
    )


CUSTOMERS_PER_REGION_SQL = """
SELECT r_name, COUNT(*) AS n_customers
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def supplier_nation_balance(sf_dir: str) -> rd.Dataset:
    nation = _read_pandas(sf_dir, "nation", ["n_nationkey", "n_name"])
    supp = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]).map_batches(
        # integer-cents: order-independent exact sums (see market segment)
        lambda t: pa.table(
            {"s_nationkey": t["s_nationkey"],
             "cents": pa.array(
                 np.round(t["s_acctbal"].to_numpy() * 100.0).astype(np.int64),
                 pa.int64())}
        ),
        batch_format="pyarrow",
    )
    joined = _bjoin(
        supp, nation.rename(columns={"n_nationkey": "s_nationkey"}), "s_nationkey"
    )
    agg = joined.groupby("n_name").aggregate(
        Sum("cents", alias_name="balance_c"),
        Count(alias_name="n_suppliers"),
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {"n_name": df["n_name"],
             "total_balance": df["balance_c"].astype("int64") / 100.0,
             "n_suppliers": df["n_suppliers"].astype("int64")}
        ),
        batch_format="pandas",
    )


SUPPLIER_NATION_SQL = """
SELECT n_name,
       ROUND(SUM(s_acctbal), 2) AS total_balance,
       COUNT(*)                 AS n_suppliers
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# sorts / limits / per-group top-k


def top_customers(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Global top-k by balance (O1-style priority ordering). ``sort`` is a
    shuffle; at scale prefer per-block top-k partials then a tiny final sort —
    at dimension-table size the direct sort is fine."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    return ds.sort(["c_acctbal", "c_custkey"], descending=[True, False]).limit(k)


TOP_CUSTOMERS_SQL = """
SELECT c_custkey, c_name, c_acctbal
FROM customer
ORDER BY c_acctbal DESC, c_custkey
LIMIT 10
"""


def top3_orders_per_customer(sf_dir: str) -> rd.Dataset:
    """Per-group top-k (O4 first-match generalized): coarse hash-partition +
    numpy segment walk, rank computed positionally — no per-customer pandas
    group calls and no global sort."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def topk(t: pa.Table) -> pa.Table:
        cust = t["o_custkey"].to_numpy()
        okey = t["o_orderkey"].to_numpy()
        price = t["o_totalprice"].to_numpy()
        order = np.lexsort((okey, -price, cust))
        cust, okey, price = cust[order], okey[order], price[order]
        new = np.r_[True, cust[1:] != cust[:-1]]
        starts = np.flatnonzero(new)
        # positional rank within each customer segment
        rn = np.arange(len(cust)) - np.repeat(starts, np.diff(np.r_[starts, len(cust)])) + 1
        keep = rn <= 3
        return pa.table(
            {"o_custkey": pa.array(cust[keep], pa.int64()),
             "o_orderkey": pa.array(okey[keep], pa.int64()),
             "o_totalprice": pa.array(price[keep], pa.float64()),
             "rn": pa.array(rn[keep], pa.int64())}
        )

    return _by_customer(sf_dir, ds, topk, ["o_orderkey", "o_totalprice"])


TOP3_PER_CUSTOMER_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice,
       ROW_NUMBER() OVER (PARTITION BY o_custkey
                          ORDER BY o_totalprice DESC, o_orderkey) AS rn
FROM orders
QUALIFY rn <= 3
"""


# ---------------------------------------------------------------------------
# filters / projections / dedup


def filtered_revenue_rows(sf_dir: str) -> rd.Dataset:
    """Predicate + computed projection, fully vectorized (M1/M12 pattern)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def fn(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t["l_discount"], 0.05),
            pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
        )
        t = t.filter(keep)
        # exact integer arithmetic in 1e-4 units: price and discount carry 2
        # decimals, so the product is an exact integer (< 2^53) and one
        # float division yields the identical double on both sides — no
        # Arrow-vs-DuckDB rounding canonicalization gap per row
        price_c = np.round(t["l_extendedprice"].to_numpy() * 100.0)
        disc_c = np.round((1.0 - t["l_discount"].to_numpy()) * 100.0)
        rev = pa.array(price_c * disc_c / 10000.0, pa.float64())
        return t.select(["l_orderkey", "l_linenumber"]).append_column("revenue", rev)

    return ds.map_batches(fn, batch_format="pyarrow")


FILTERED_REVENUE_SQL = """
SELECT l_orderkey, l_linenumber,
       ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100) / 10000.0
           AS revenue
FROM lineitem
WHERE l_discount >= 0.05 AND l_shipdate < TIMESTAMP '1997-01-01'
"""


def first_order_per_customer(sf_dir: str) -> rd.Dataset:
    """Exact dedup-by-key keeping the earliest row (J5 exists-check /
    first-wins semantics): coarse hash-partition + numpy segment walk —
    per-key map_groups pays ~ms of pandas overhead per customer (the dedup
    pipelines' lesson), a partition walk pays it once per partition."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def first(t: pa.Table) -> pa.Table:
        cust = t["o_custkey"].to_numpy()
        okey = t["o_orderkey"].to_numpy()
        date = t["o_orderdate"].to_numpy().astype("datetime64[ns]").astype(np.int64)
        order = np.lexsort((okey, date, cust))
        cust, okey, date = cust[order], okey[order], date[order]
        starts = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        return pa.table(
            {"o_custkey": pa.array(cust[starts], pa.int64()),
             "o_orderkey": pa.array(okey[starts], pa.int64()),
             "first_order_epoch": pa.array(date[starts] // 10**9, pa.int64())}
        )

    return _by_customer(sf_dir, ds, first, ["o_orderkey", "o_orderdate"])


FIRST_ORDER_SQL = """
SELECT o_custkey, o_orderkey,
       -- integer FLOOR to seconds: epoch(ts)::BIGINT would ROUND fractional
       -- seconds (cast double->bigint is round-half-even) while the engine
       -- floors ns//1e9 — divergent on any sub-second timestamp (found by
       -- tools/fuzz_oracles.py; the driver corpus is midnight-only so the
       -- driver gate can never see it). Positive epochs only, so // == floor.
       epoch_us(o_orderdate) // 1000000 AS first_order_epoch
FROM orders
QUALIFY ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_orderdate, o_orderkey) = 1
"""


def part_type_stats(sf_dir: str) -> rd.Dataset:
    """Grouped stats with an EXACT integer-cents mean: a float ``Mean``
    over p_retailprice is accumulation-order dependent, and rounding the
    two 1-ulp-apart quotients can land on different 4dp doubles — a latent
    per-run hash flake (caught by the adversarial-corpus sweep, then
    reproduced on the pristine table). Both engines now compute
    ``(Σ round(price·100) / 100.0) / n`` in the identical order."""
    ds = _read(sf_dir, "part", ["p_type", "p_retailprice", "p_size"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["p_retailprice"].to_numpy() * 100.0).astype(np.int64)
        df = pd.DataFrame(
            {"p_type": t["p_type"].to_pandas(), "cents": cents,
             "p_size": t["p_size"].to_numpy()}
        )
        g = df.groupby("p_type", sort=False).agg(
            cents_p=("cents", "sum"), n_p=("cents", "size"),
            mx_p=("p_size", "max"), mn_p=("p_size", "min"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("p_type").aggregate(
        Sum("cents_p", alias_name="cents"),
        Sum("n_p", alias_name="n_parts"),
        Max("mx_p", alias_name="max_size"),
        Min("mn_p", alias_name="min_size"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from crawler_ray.functions.rounding import round_np

        n = df["n_parts"].astype("int64")
        return pd.DataFrame(
            {"p_type": df["p_type"],
             "n_parts": n,
             "avg_price": round_np(
                 (df["cents"].astype("int64") / 100.0) / n, 4
             ),
             "max_size": df["max_size"].astype("int64"),
             "min_size": df["min_size"].astype("int64")}
        )

    return agg.map_batches(finish, batch_format="pandas")


PART_TYPE_SQL = """
SELECT p_type, COUNT(*) AS n_parts,
       ROUND((SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT))::BIGINT / 100.0)
             / COUNT(*), 4) AS avg_price,
       MAX(p_size)::BIGINT AS max_size, MIN(p_size)::BIGINT AS min_size
FROM part
GROUP BY p_type
"""


def distinct_event_types(sf_dir: str) -> rd.Dataset:
    """``unique`` re-expressed as pre-aggregated distinct: per-batch distinct
    (combiner) → tiny groupby — the full shuffle only ever sees one row per
    (batch, value)."""
    ds = _read(sf_dir, "events", ["event_type"])
    partial = ds.map_batches(
        lambda t: pa.table({"event_type": pc.unique(t["event_type"])}),
        batch_format="pyarrow",
    )
    return partial.groupby("event_type").aggregate(Count(alias_name="_n")).select_columns(
        ["event_type"]
    )


DISTINCT_EVENT_TYPES_SQL = "SELECT DISTINCT event_type FROM events"


# lineitem footer rows up to which the quantile finish reads the unmerged
# histogram partials; above it a value-hash exchange merges them first
QUANTILE_MERGE_ROWS = 20_000_000


def lineitem_price_quantiles(
    sf_dir: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
    interpolated: bool = False,
) -> rd.Dataset:
    """EXACT per-group quantiles (``quantile_disc`` semantics: the data
    value at 1-based rank ``ceil(q*n)``) of l_extendedprice per
    l_returnflag — an order-statistic Ray Data has no native verb for.

    Scale shape: order statistics need global order, but never the rows —
    only the VALUE HISTOGRAM. Per-batch (group, value)→count partials
    (combiner) collapse duplicates before any exchange. Up to
    ``QUANTILE_MERGE_ROWS`` input rows the unmerged partials go straight to the
    per-group finish in ONE exchange — the finish's stable sort + cumsum
    sums duplicate (group, value) partials exactly as a merge would, since
    equal values land adjacent. Above it, a value-hash partition merges
    partials first, bounding the per-group finish input by the VALUE DOMAIN
    (prices have two decimals: the merged histogram stops growing once
    every cent value is seen), not the row count — no full sort, no group
    ever materializes its raw rows. Returned values are actual data values
    (no interpolation arithmetic), so they hash-match the oracle
    bit-for-bit."""
    import pyarrow.parquet as pq

    n_total = pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    _HIST_SCHEMA = pa.schema(
        [("l_returnflag", pa.string()), ("v", pa.float64()), ("c", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"l_returnflag": t["l_returnflag"].to_pandas(),
             "v": t["l_extendedprice"].to_numpy()}
        )
        g = df.groupby(["l_returnflag", "v"], sort=False).size().reset_index(name="c")
        # the value's bits are its hash key
        return pa.Table.from_pandas(
            g, schema=_HIST_SCHEMA, preserve_index=False
        ).append_column("key", pa.array(g["v"].to_numpy().view(np.int64)))

    def merge_hist(g: pa.Table) -> pa.Table:
        out = (
            g.to_pandas().groupby(["l_returnflag", "v"], sort=False)["c"]
            .sum().reset_index()
        )
        return pa.Table.from_pandas(out, schema=_HIST_SCHEMA, preserve_index=False)

    def finish(g: pa.Table) -> pa.Table:
        flag = g["l_returnflag"][0].as_py()
        v = g["v"].to_numpy()
        c = g["c"].to_numpy()
        order = np.argsort(v, kind="stable")
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        # quantile_disc pick: 1-based rank ceil(q*n), float64 multiply
        # mirroring the oracle's arithmetic
        vals = {}
        for q in qs:
            if interpolated:
                # percentile_cont: 0-indexed position q*(n-1), DuckDB's
                # lo*(1-frac) + hi*frac blend (1 ulp off the lo+(hi-lo)*frac
                # form — verified empirically against the oracle)
                pos = np.float64(q) * (n - 1)
                frac = pos - np.floor(pos)
                lo = v[int(np.searchsorted(cum, int(np.floor(pos)) + 1,
                                           side="left"))]
                hi = v[int(np.searchsorted(cum, int(np.ceil(pos)) + 1,
                                           side="left"))]
                vals[f"p{int(round(q * 100)):02d}"] = (
                    lo * (1.0 - frac) + hi * frac
                )
            else:
                rank = int(np.ceil(np.float64(q) * n))
                idx = int(np.searchsorted(cum, rank, side="left"))
                vals[f"p{int(round(q * 100)):02d}"] = v[idx]
        cols = {"l_returnflag": pa.array([flag], pa.string())}
        for name, val in vals.items():
            cols[name] = pa.array([float(val)], pa.float64())
        cols["n_rows"] = pa.array([n], pa.int64())
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if n_total <= QUANTILE_MERGE_ROWS:
        return partials.groupby("l_returnflag").map_groups(
            finish, batch_format="pyarrow"
        )
    hist = copartition(
        [partials], merge_hist, _HIST_SCHEMA, exchange_parts(sf_dir, "lineitem"))
    # the merged histogram is tiny (distinct values, not rows) but spread
    # over the exchange's blocks; coalesce to ~one block per flag group so the
    # final groupby doesn't fan out empty-range tasks
    return (
        hist.repartition(3)
        .groupby("l_returnflag")
        .map_groups(finish, batch_format="pyarrow")
    )


LINEITEM_QUANTILES_SQL = """
SELECT l_returnflag,
       quantile_disc(l_extendedprice, 0.25) AS p25,
       quantile_disc(l_extendedprice, 0.50) AS p50,
       quantile_disc(l_extendedprice, 0.75) AS p75,
       quantile_disc(l_extendedprice, 0.90) AS p90,
       quantile_disc(l_extendedprice, 0.99) AS p99,
       COUNT(*) AS n_rows
FROM lineitem
GROUP BY l_returnflag
"""


def customer_rolling_spend(sf_dir: str) -> rd.Dataset:
    """ROWS-window rolling aggregate (the brief's 'windowed aggregate'
    custom operator): per customer, the sum of the current + 2 preceding
    orders' totalprice in (o_orderdate, o_orderkey) order.

    Scale shape: a ROWS window only needs its PARTITION co-located — one
    customer-hash exchange, then a vectorized per-partition pass (lexsort +
    cents cumsum; window = cs[i] − cs[max(i−3, seg_start−1)]) computes every
    customer's windows without per-customer tasks or pair materialization.
    Integer-cents partials make the sum order-independent and the /100.0
    finish bit-identical to the oracle."""
    ds = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": t["o_orderkey"],
             "o_custkey": t["o_custkey"],
             "o_orderdate": t["o_orderdate"],
             "cents": pa.array(
                 np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64),
                 pa.int64(),
             )}
        )

    def window(g: pa.Table) -> pa.Table:
        cust = g["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = g["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        date = g["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((key, date, cust))
        cust, key, date, cents = cust[order], key[order], date[order], cents[order]
        n = len(cust)
        starts = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        seg_start = np.repeat(starts, np.diff(np.r_[starts, n]))
        cs = np.cumsum(cents)
        lo = np.maximum(np.arange(n) - 2, seg_start)
        roll = cs - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pa.table(
            {"o_orderkey": pa.array(key, pa.int64()),
             "o_custkey": pa.array(cust, pa.int64()),
             "o_orderdate": pa.array(date, pa.timestamp("us")),
             "rolling3_spend": pa.array(roll / 100.0, pa.float64())}
        )

    return _by_customer(sf_dir, ds.map_batches(prep, batch_format="pyarrow"),
                        window, ["o_orderkey", "o_orderdate"], cents=True)


CUSTOMER_ROLLING_SPEND_SQL = """
SELECT o_orderkey, o_custkey, o_orderdate,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
           ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
       ) / 100.0 AS rolling3_spend
FROM orders
"""


def customer_spend_7d(sf_dir: str) -> rd.Dataset:
    """RANGE-interval window twin of :func:`customer_rolling_spend`: per
    order, the customer's total spend over the TRAILING 7 DAYS
    (``RANGE BETWEEN INTERVAL 7 DAY PRECEDING AND CURRENT ROW`` — a
    time-based frame, so the row count varies and equal-date peers are
    ALL included, per the SQL standard's RANGE-CURRENT-ROW peer rule).

    Scale shape: identical to the ROWS window — ONE customer-hash
    exchange, then per partition a lexsort + prefix-sum pass; the frame
    bounds come from two ``np.searchsorted`` calls per customer segment
    (C-speed binary searches on the segment's date slice), so per-row
    work stays vectorized and the whole frame logic is O(n log n) per
    partition. Integer-cents partials keep the sums exact."""
    SEVEN_D_US = np.int64(7 * 86_400) * np.int64(1_000_000)
    ds = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": t["o_orderkey"],
             "o_custkey": t["o_custkey"],
             "o_orderdate": t["o_orderdate"],
             "cents": pa.array(
                 np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64),
                 pa.int64(),
             )}
        )

    def window(g: pa.Table) -> pa.Table:
        cust = g["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = g["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        date = g["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((key, date, cust))
        cust, key, date, cents = cust[order], key[order], date[order], cents[order]
        n = len(cust)
        out = np.empty(n, np.int64)
        starts = np.r_[np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]]), n]
        for s, e in zip(starts[:-1], starts[1:]):
            d = date[s:e]
            cs = np.r_[0, np.cumsum(cents[s:e])]
            lo = np.searchsorted(d, d - SEVEN_D_US, side="left")
            hi = np.searchsorted(d, d, side="right")  # equal-date peers in
            out[s:e] = cs[hi] - cs[lo]
        return pa.table(
            {"o_orderkey": pa.array(key, pa.int64()),
             "o_custkey": pa.array(cust, pa.int64()),
             "o_orderdate": pa.array(date, pa.timestamp("us")),
             "spend_7d": pa.array(out / 100.0, pa.float64())}
        )

    return _by_customer(sf_dir, ds.map_batches(prep, batch_format="pyarrow"),
                        window, ["o_orderkey", "o_orderdate"], cents=True)


CUSTOMER_SPEND_7D_SQL = """
SELECT o_orderkey, o_custkey, o_orderdate,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate
           RANGE BETWEEN INTERVAL 7 DAY PRECEDING AND CURRENT ROW
       ) / 100.0 AS spend_7d
FROM orders
"""


def revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(region, nation) revenue report — the hierarchical
    subtotal verb Ray Data lacks. Scale shape: ONE pass over the orders
    fact (cents combiner per batch AFTER the custkey→(region, nation)
    map-join) feeds a groupby at the FINEST level only (|nations| groups);
    the coarser levels — per-region subtotals and the grand total —
    re-aggregate that |nations|-row result, never the fact table.
    Driver-side work is O(groups), not O(orders). The custkey join is
    auto-guarded (``_want_broadcast``): customer scales with SF, so above
    the footer-row-count crossover the customer→(region, nation) dim
    STREAMS (customer broadcast-joined to the fixed-size 25-row
    nation×region map, never materialized) into
    ``joins.partitioned_hash_join`` with the same downstream combiner."""
    nation = _read_pandas(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = _read_pandas(sf_dir, "region", ["r_regionkey", "r_name"])
    nr = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "r_name", "n_name"]
    ].rename(columns={"n_nationkey": "c_nationkey", "r_name": "region",
                      "n_name": "nation"})  # fixed 25 rows — always broadcast

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table(
            {"o_custkey": t["o_custkey"],
             "cents": pa.array(
                 np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64),
                 pa.int64())}
        ),
        batch_format="pyarrow",
    )

    if _want_broadcast(f"{sf_dir}/customer.parquet"):
        cust = _read_pandas(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        dim = cust.merge(nr, on="c_nationkey").rename(
            columns={"c_custkey": "o_custkey"}
        )[["o_custkey", "region", "nation"]]
        joined = _bjoin(orders, dim, "o_custkey")
    else:
        from crawler_ray.pipelines.joins import partitioned_hash_join

        dim_ds = _bjoin(
            _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]), nr,
            "c_nationkey",
        ).map_batches(
            lambda t: t.select(["c_custkey", "region", "nation"]).rename_columns(
                ["o_custkey", "region", "nation"]),
            batch_format="pyarrow",
        )
        joined = partitioned_hash_join(
            orders, dim_ds, "o_custkey",
            exchange_parts(sf_dir, "orders", "customer"),
            left_schema=pa.schema(
                [("o_custkey", pa.int64()), ("cents", pa.int64())]),
            right_schema=pa.schema(
                [("o_custkey", pa.int64()), ("region", pa.string()),
                 ("nation", pa.string())]),
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["region", "nation"], sort=False)["cents"]
            .agg(rev_c="sum", n_p="size")
            .reset_index()
        )

    finest = (
        joined
        .map_batches(partial, batch_format="pandas")
        .groupby(["region", "nation"])
        .aggregate(Sum("rev_c", alias_name="rev_c"), Sum("n_p", alias_name="n"))
        .to_pandas()  # <= |nations| rows by construction
    )
    if finest.empty:  # empty corpus: typed empty rollup, not a KeyError
        return pd.DataFrame(
            {"region": pd.Series([], dtype=object),
             "nation": pd.Series([], dtype=object),
             "revenue": pd.Series([], dtype=np.float64),
             "n_orders": pd.Series([], dtype=np.int64)}
        )
    by_region = (
        finest.groupby("region", as_index=False)[["rev_c", "n"]]
        .sum()
        .assign(nation="ALL")
    )
    total = pd.DataFrame(
        {"region": ["ALL"], "nation": ["ALL"],
         "rev_c": [finest["rev_c"].sum()], "n": [finest["n"].sum()]}
    )
    out = pd.concat([finest, by_region, total], ignore_index=True)
    return pd.DataFrame(
        {"region": out["region"], "nation": out["nation"],
         "revenue": out["rev_c"].astype("int64") / 100.0,
         "n_orders": out["n"].astype("int64")}
    )


REVENUE_ROLLUP_SQL = """
SELECT COALESCE(r_name, 'ALL') AS region,
       COALESCE(n_name, 'ALL') AS nation,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue,
       COUNT(*)::BIGINT AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY ROLLUP (r_name, n_name)
"""


def customer_order_gaps(sf_dir: str) -> rd.Dataset:
    """LAG window: per customer, days since the PREVIOUS order in
    (o_orderdate, o_orderkey) order — NULL (NaN) for each customer's first
    order. Completes the window-verb family beside the ROWS-frame rolling
    sum (``customer_rolling_spend``): LAG/LEAD only need their partition
    co-located, so the shape is identical — ONE customer-hash exchange +
    a vectorized per-partition lexsort/diff (no per-customer tasks).

    The gap is emitted as DOUBLE days from integer microsecond diffs
    (exactly representable — both sides divide the same int by 86400e6, so
    the driver's exact hash compare holds)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def window(g: pa.Table) -> pa.Table:
        cust = g["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = g["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        date = g["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((key, date, cust))
        cust, key, date = cust[order], key[order], date[order]
        gap = np.empty(len(cust), np.float64)
        gap[0] = np.nan
        if len(cust) > 1:
            same = cust[1:] == cust[:-1]
            gap[1:] = np.where(
                same, (date[1:] - date[:-1]) / 86400e6, np.nan
            )
        return pa.table(
            {"o_orderkey": pa.array(key, pa.int64()),
             "o_custkey": pa.array(cust, pa.int64()),
             "gap_days": pa.array(gap, pa.float64(), from_pandas=True)}
        )

    return _by_customer(sf_dir, ds, window, ["o_orderkey", "o_orderdate"])


CUSTOMER_ORDER_GAPS_SQL = """
SELECT o_orderkey, o_custkey,
       (epoch_us(o_orderdate)
        - LAG(epoch_us(o_orderdate)) OVER (
              PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
          )) / 86400e6 AS gap_days
FROM orders
"""


def lineitem_price_percentiles_cont(sf_dir: str) -> rd.Dataset:
    """INTERPOLATED per-group percentiles (``percentile_cont`` semantics) —
    same distributed value-histogram engine as the quantile_disc twin, with
    the linear blend at the finish; hash-exact vs DuckDB because the blend
    reproduces its lo*(1-frac)+hi*frac arithmetic on the same doubles."""
    return lineitem_price_quantiles(sf_dir, interpolated=True)


LINEITEM_PCT_CONT_SQL = """
SELECT l_returnflag,
       percentile_cont(0.25) WITHIN GROUP (ORDER BY l_extendedprice) AS p25,
       percentile_cont(0.5)  WITHIN GROUP (ORDER BY l_extendedprice) AS p50,
       percentile_cont(0.75) WITHIN GROUP (ORDER BY l_extendedprice) AS p75,
       percentile_cont(0.9)  WITHIN GROUP (ORDER BY l_extendedprice) AS p90,
       percentile_cont(0.99) WITHIN GROUP (ORDER BY l_extendedprice) AS p99,
       COUNT(*)::BIGINT AS n_rows
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Correlated-subquery shape: rows above their group's average


def orders_above_customer_avg(sf_dir: str) -> rd.Dataset:
    """Orders strictly above their customer's average order value — the
    correlated-subquery verb (``WHERE price > (SELECT AVG(...) ... same
    customer)``). Decorrelated the classic way: per-customer aggregate +
    join back, but fused into ONE custkey-hash exchange — each partition
    holds every order of its customers, so the per-customer mean and the
    filter both happen in-task; no second pass over the fact and no
    |customers|-row table ever reaches the driver.

    Exactness: the comparison is integer cross-multiplied
    (``cents * cnt > sum_cents``) — no float average crosses the filter
    boundary, so the row set is independent of block structure. The
    reported ``cust_avg`` reproduces the oracle's arithmetic on the same
    doubles ((sum/100.0)/cnt)."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def above_avg(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        cents = np.round(g["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        grp = g.groupby("o_custkey")["o_totalprice"]
        # exact per-customer integer partials, aligned back to rows
        s = (
            pd.Series(cents, index=g.index)
            .groupby(g["o_custkey"])
            .transform("sum")
            .to_numpy(np.int64)
        )
        cnt = grp.transform("size").to_numpy(np.int64)
        keep = cents * cnt > s
        out = g.loc[keep, ["o_orderkey", "o_custkey", "o_totalprice"]].copy()
        out["cust_avg"] = (s[keep].astype(np.float64) / 100.0) / cnt[keep]
        return out

    return _by_customer(sf_dir, orders, above_avg, ["o_orderkey", "o_totalprice"])


ORDERS_ABOVE_CUST_AVG_SQL = """
WITH c AS (
    SELECT o_custkey AS ck,
           SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS sum_c,
           COUNT(*)::BIGINT AS cnt
    FROM orders GROUP BY o_custkey
)
SELECT o_orderkey, o_custkey, o_totalprice,
       (sum_c / 100.0) / cnt AS cust_avg
FROM orders JOIN c ON o_custkey = ck
WHERE CAST(ROUND(o_totalprice * 100) AS BIGINT) * cnt > sum_c
"""


# ---------------------------------------------------------------------------
# CUBE: all grouping sets over two dimensions


def revenue_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(o_orderpriority, o_orderstatus) — every grouping set
    ((pri,status), (pri), (status), ()) with 'ALL' placeholders, the
    other subtotal verb beside ``revenue_rollup``'s hierarchy. Same scale
    shape: ONE pass over the fact with an integer-cents combiner feeds a
    groupby at the finest (|pri|×|status|, tiny) level; the three coarser
    sets re-aggregate that result driver-side — the fact table is never
    re-scanned and never shuffled more than once."""
    orders = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            cents=np.round(df["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        )
        return (
            df.groupby(["o_orderpriority", "o_orderstatus"], sort=False)["cents"]
            .agg(rev_c="sum", n_p="size")
            .reset_index()
        )

    finest = (
        orders.map_batches(partial, batch_format="pandas")
        .groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(Sum("rev_c", alias_name="rev_c"), Sum("n_p", alias_name="n"))
        .to_pandas()  # |priorities| x |statuses| rows by construction
    )
    if finest.empty:  # empty corpus: typed empty cube, not a KeyError
        return pd.DataFrame(
            {"priority": pd.Series([], dtype=object),
             "status": pd.Series([], dtype=object),
             "revenue": pd.Series([], dtype=np.float64),
             "n_orders": pd.Series([], dtype=np.int64)}
        )
    finest = finest.rename(
        columns={"o_orderpriority": "priority", "o_orderstatus": "status"}
    )
    by_pri = (
        finest.groupby("priority", as_index=False)[["rev_c", "n"]]
        .sum()
        .assign(status="ALL")
    )
    by_status = (
        finest.groupby("status", as_index=False)[["rev_c", "n"]]
        .sum()
        .assign(priority="ALL")
    )
    total = pd.DataFrame(
        {"priority": ["ALL"], "status": ["ALL"],
         "rev_c": [finest["rev_c"].sum()], "n": [finest["n"].sum()]}
    )
    out = pd.concat([finest, by_pri, by_status, total], ignore_index=True)
    return pd.DataFrame(
        {"priority": out["priority"], "status": out["status"],
         "revenue": out["rev_c"].astype("int64") / 100.0,
         "n_orders": out["n"].astype("int64")}
    )


REVENUE_CUBE_SQL = """
SELECT COALESCE(o_orderpriority, 'ALL') AS priority,
       COALESCE(o_orderstatus, 'ALL') AS status,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue,
       COUNT(*)::BIGINT AS n_orders
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
"""


def revenue_grouping_sets(sf_dir: str) -> pd.DataFrame:
    """GROUP BY GROUPING SETS ((region), (segment)) — ARBITRARY slice
    lists, the third subtotal verb beside ROLLUP (hierarchy) and CUBE
    (power set). The two requested sets are non-hierarchical (region and
    market segment cut the fact independently), which is exactly what
    GROUPING SETS exists for.

    Scale shape — the same one-pass trick as ROLLUP/CUBE generalized:
    every requested set is a COARSENING of the composite (region, segment)
    grid, so ONE fact pass with an integer-cents combiner feeds one
    groupby at the composite level (|regions| x |segments| ~ 25 rows) and
    each requested set re-aggregates that tiny result driver-side. The
    fact is scanned once, shuffled once (combined rows only); a set list
    whose common refinement is NOT small would instead run one combined
    pass per set — still one fact scan each, never a row-level shuffle.
    The custkey join is auto-guarded (``_want_broadcast``, see
    ``revenue_rollup``): above the crossover the customer-sized dim
    streams into ``joins.partitioned_hash_join``."""
    nation = _read_pandas(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _read_pandas(sf_dir, "region", ["r_regionkey", "r_name"])
    nr = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "r_name"]
    ].rename(columns={"n_nationkey": "c_nationkey", "r_name": "region"})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table(
            {"o_custkey": t["o_custkey"],
             "cents": pa.array(
                 np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64),
                 pa.int64())}
        ),
        batch_format="pyarrow",
    )

    if _want_broadcast(f"{sf_dir}/customer.parquet"):
        cust = _read_pandas(
            sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment"]
        )
        dim = cust.merge(nr, on="c_nationkey").rename(
            columns={"c_custkey": "o_custkey", "c_mktsegment": "segment"}
        )[["o_custkey", "region", "segment"]]
        joined = _bjoin(orders, dim, "o_custkey")
    else:
        from crawler_ray.pipelines.joins import partitioned_hash_join

        dim_ds = _bjoin(
            _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment"]),
            nr, "c_nationkey",
        ).map_batches(
            lambda t: t.select(
                ["c_custkey", "region", "c_mktsegment"]).rename_columns(
                ["o_custkey", "region", "segment"]),
            batch_format="pyarrow",
        )
        joined = partitioned_hash_join(
            orders, dim_ds, "o_custkey",
            exchange_parts(sf_dir, "orders", "customer"),
            left_schema=pa.schema(
                [("o_custkey", pa.int64()), ("cents", pa.int64())]),
            right_schema=pa.schema(
                [("o_custkey", pa.int64()), ("region", pa.string()),
                 ("segment", pa.string())]),
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["region", "segment"], sort=False)["cents"]
            .agg(rev_c="sum", n_p="size")
            .reset_index()
        )

    composite = (
        joined
        .map_batches(partial, batch_format="pandas")
        .groupby(["region", "segment"])
        .aggregate(Sum("rev_c", alias_name="rev_c"), Sum("n_p", alias_name="n"))
        .to_pandas()  # <= |regions| x |segments| rows by construction
    )
    if composite.empty:  # empty corpus: typed empty sets, not a KeyError
        return pd.DataFrame(
            {"region": pd.Series([], dtype=object),
             "segment": pd.Series([], dtype=object),
             "revenue": pd.Series([], dtype=np.float64),
             "n_orders": pd.Series([], dtype=np.int64)}
        )
    by_region = (
        composite.groupby("region", as_index=False)[["rev_c", "n"]]
        .sum()
        .assign(segment="ALL")
    )
    by_segment = (
        composite.groupby("segment", as_index=False)[["rev_c", "n"]]
        .sum()
        .assign(region="ALL")
    )
    out = pd.concat([by_region, by_segment], ignore_index=True)
    return pd.DataFrame(
        {"region": out["region"], "segment": out["segment"],
         "revenue": out["rev_c"].astype("int64") / 100.0,
         "n_orders": out["n"].astype("int64")}
    )


REVENUE_GROUPING_SETS_SQL = """
SELECT COALESCE(r_name, 'ALL') AS region,
       COALESCE(c_mktsegment, 'ALL') AS segment,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue,
       COUNT(*)::BIGINT AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY GROUPING SETS ((r_name), (c_mktsegment))
"""


# ---------------------------------------------------------------------------
# NTILE: equal-frequency bucketing by global order statistics


def order_price_ntile(sf_dir: str, n: int = 10) -> rd.Dataset:
    """``NTILE(n) OVER (ORDER BY o_totalprice, o_orderkey)`` — global
    equal-frequency buckets (price deciles), the window verb that needs a
    GLOBAL sort position. Shape: the slim (orderkey, key) table — key
    packs (cents, orderkey) into one int64 so ascending key order IS the
    window order — goes through ``ordering.global_sort_rank`` (sampled
    range partitioning; only O(ranges) rows reach the driver), then the
    rank→tile map is a pure vectorized formula using the total count the
    rank pass already knows. The fact table is scanned once, two columns.

    Tile sizes follow the SQL standard: the first ``total % n`` tiles get
    one extra row.
    """
    from crawler_ray.pipelines.ordering import global_sort_rank

    def key_rows(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        ids = t["o_orderkey"].to_numpy()
        assert (cents >= 0).all() and (cents < (1 << 29)).all()
        assert (ids >= 0).all() and (ids < (1 << 33)).all()
        return pa.table(
            {
                "o_orderkey": pa.array(ids, pa.int64()),
                "key": pa.array(cents * (1 << 33) + ids, pa.int64()),
            }
        )

    keys = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        key_rows, batch_format="pyarrow"
    )
    ranks, total = global_sort_rank(
        keys, id_col="o_orderkey", key_col="key", rank_col="rank"
    )
    q, rem = divmod(total, n)
    big = rem * (q + 1)

    def to_tile(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy()
        if q == 0:  # fewer rows than tiles: tile == rank
            tile = r
        else:
            tile = np.where(
                r <= big, (r - 1) // (q + 1) + 1, rem + (r - big - 1) // q + 1
            ).astype(np.int64)
        return pa.table(
            {"o_orderkey": t["o_orderkey"], "tile": pa.array(tile, pa.int64())}
        )

    return ranks.map_batches(to_tile, batch_format="pyarrow")


def order_price_ntile_sql(n: int = 10) -> str:
    return f"""
SELECT o_orderkey,
       NTILE({n}) OVER (
           ORDER BY CAST(ROUND(o_totalprice * 100) AS BIGINT), o_orderkey
       )::BIGINT AS tile
FROM orders
"""


# ---------------------------------------------------------------------------
# Grouped second moment: sufficient-statistics combiner (mean + variance)


def part_price_dispersion(sf_dir: str) -> rd.Dataset:
    """Per part type: count, mean and POPULATION variance of retail price —
    the sufficient-statistics pattern every distributed moment aggregate
    reduces to: each batch folds (n, Σc, Σc²) in exact int64 cents
    (order- and block-structure-independent), one tiny groupby merges
    them, and the floating-point mean/variance are derived ONCE at the
    end with the same double expression the oracle uses
    (``s2/n − (s/n)²`` — divisions first, so magnitudes stay small and
    the arithmetic is bit-identical). Bounds: cents < 2^31 and
    Σc² < 2^63 hold through sf ≈ 5000 for this table (asserted)."""
    parts = _read(sf_dir, "part", ["p_type", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["p_retailprice"].to_numpy() * 100.0).astype(np.int64)
        assert (np.abs(cents) < (1 << 31)).all()
        g = pd.DataFrame({"p_type": df["p_type"], "c": cents, "c2": cents * cents})
        out = g.groupby("p_type", sort=False).agg(
            n=("c", "size"), s=("c", "sum"), s2=("c2", "sum")
        )
        return out.reset_index()

    agg = (
        parts.map_batches(partial, batch_format="pandas")
        .groupby("p_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2"),
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64)
        s = df["s"].to_numpy(np.int64)
        s2 = df["s2"].to_numpy(np.int64)
        mean_c = s.astype(np.float64) / n
        var_c = s2.astype(np.float64) / n - mean_c * mean_c
        return pd.DataFrame(
            {"p_type": df["p_type"],
             "n_parts": n,
             "mean_price": mean_c / 100.0,
             "var_price_cents": var_c}
        )

    return agg.map_batches(finish, batch_format="pandas")


PART_PRICE_DISPERSION_SQL = """
WITH s AS (
    SELECT p_type,
           COUNT(*)::BIGINT AS n,
           SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS s,
           SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)
               * CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS s2
    FROM part GROUP BY p_type
)
SELECT p_type,
       n AS n_parts,
       (CAST(s AS DOUBLE) / n) / 100.0 AS mean_price,
       CAST(s2 AS DOUBLE) / n
           - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n)
           AS var_price_cents
FROM s
"""


# ---------------------------------------------------------------------------
# Ordered string aggregation (STRING_AGG ... ORDER BY)


def customer_priority_history(sf_dir: str) -> rd.Dataset:
    """Per customer, the comma-joined sequence of order priorities in
    (o_orderdate, o_orderkey) order — the ordered STRING_AGG / LIST
    aggregation verb (think: per-user session history strings, per-doc
    ordered chunk manifests). Order-sensitive aggregates cannot be folded
    commutatively, so the shape is ONE custkey-hash exchange with the
    in-task mergesort + segment join — same exchange budget as the LAG
    window, and the driver never sees a row."""
    cols = ["o_orderkey", "o_orderdate", "o_orderpriority"]
    orders = _read(sf_dir, "orders", ["o_custkey", *cols])

    def agg(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort"
        )
        out = g.groupby("o_custkey", sort=False)["o_orderpriority"].agg(
            ",".join
        )
        n = g.groupby("o_custkey", sort=False).size()
        return pd.DataFrame(
            {"o_custkey": out.index.to_numpy(np.int64),
             "priority_seq": out.to_numpy(object),
             "n_orders": n.to_numpy(np.int64)}
        )

    return _by_customer(sf_dir, orders, agg, cols)


CUSTOMER_PRIORITY_HISTORY_SQL = """
SELECT o_custkey,
       STRING_AGG(o_orderpriority, ','
                  ORDER BY o_orderdate, o_orderkey) AS priority_seq,
       COUNT(*)::BIGINT AS n_orders
FROM orders
GROUP BY o_custkey
"""


# ---------------------------------------------------------------------------
# Grouped mode (most frequent value)


def part_common_size(sf_dir: str) -> rd.Dataset:
    """Per part type, the MODE of p_size (ties broken by smaller size) and
    its frequency — the most-frequent-value verb. Shape: per-batch
    (type, size) count combiner → one tiny groupby on the pair → the
    per-type argmax folds over the |types|×|sizes| aggregate, never the
    fact table."""
    parts = _read(sf_dir, "part", ["p_type", "p_size"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["p_type", "p_size"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    agg = (
        parts.map_batches(partial, batch_format="pandas")
        .groupby(["p_type", "p_size"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # |types| x |sizes| rows by construction
    )
    if agg.empty:  # empty corpus: typed empty result, not a KeyError
        return rd.from_arrow(
            pa.table({"p_type": pa.array([], pa.string()),
                      "mode_size": pa.array([], pa.int64()),
                      "n_at_mode": pa.array([], pa.int64())})
        )
    agg = agg.sort_values(["p_type", "n", "p_size"],
                          ascending=[True, False, True])
    top = agg.groupby("p_type", as_index=False).head(1)
    return rd.from_arrow(
        pa.table(
            {"p_type": pa.array(top["p_type"].to_numpy(object), pa.string()),
             "mode_size": pa.array(top["p_size"].to_numpy(np.int64), pa.int64()),
             "n_at_mode": pa.array(top["n"].to_numpy(np.int64), pa.int64())}
        )
    )


PART_COMMON_SIZE_SQL = """
SELECT p_type,
       arg_min(p_size, (-n)::BIGINT * 1000 + p_size)::BIGINT AS mode_size,
       MAX(n)::BIGINT AS n_at_mode
FROM (
    SELECT p_type, p_size, COUNT(*)::BIGINT AS n
    FROM part GROUP BY 1, 2
)
GROUP BY p_type
"""


# ---------------------------------------------------------------------------
# Fixed-width histogram


def order_price_histogram(sf_dir: str, bin_width: int = 25000) -> rd.Dataset:
    """Fixed-width histogram of o_totalprice (bin = floor(price/width)) —
    the distribution-profiling verb. The bin id is integer arithmetic on
    exact cents, so bucket boundaries cannot float-drift; per-batch bin
    combiners mean the exchange carries O(bins) rows per block."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])
    width_c = bin_width * 100

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        b = cents // width_c
        u, c = np.unique(b, return_counts=True)
        return pa.table(
            {"bin": pa.array(u, pa.int64()),
             "n": pa.array(c.astype(np.int64), pa.int64())}
        )

    agg = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n_orders"))
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {"bin_low": df["bin"].astype("int64") * bin_width,
             "n_orders": df["n_orders"].astype("int64")}
        ),
        batch_format="pandas",
    )


def order_price_histogram_sql(bin_width: int = 25000) -> str:
    return f"""
SELECT (CAST(ROUND(o_totalprice * 100) AS BIGINT) // {bin_width * 100})
           * {bin_width} AS bin_low,
       COUNT(*)::BIGINT AS n_orders
FROM orders
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Pearson correlation from exact sufficient statistics


def lineitem_qty_price_corr(sf_dir: str) -> rd.Dataset:
    """Per return flag, the Pearson correlation of quantity vs extended
    price — second-moment sufficient statistics generalized to the CROSS
    moment: each batch folds exact int64 (n, Σx, Σy, Σx², Σy², Σxy)
    partials (x = quantity units, y = price cents), one tiny groupby
    merges them, and the correlation derives once at the end with the
    same double expression as the oracle (covariance / sqrt(varx·vary),
    divisions first). The Σy² accumulator is a hi/lo 2^32 split (exact
    through ~4·10^11 rows); Σxy fits int64 through ~3·10^10 rows — both
    asserted per element at the read."""
    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        y = np.round(df["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        assert (np.abs(y) < (1 << 31)).all() and (np.abs(x) < (1 << 16)).all()
        # Σy² overflows int64 above ~10^7 rows of 10^7-cent prices (caught
        # by the ×20 tiled-scale smoke), so the y² fold is carried as an
        # exact hi/lo 2^32 split: per-element y² < 2^62 is exact int64,
        # Σ(y²>>32) and Σ(y² & (2^32−1)) each stay far inside int64
        # (~4·10^11 and ~4·10^9 per row resp.) — recombined as a Python
        # int at the bounded finish
        yy = y * y
        g = pd.DataFrame(
            {"f": df["l_returnflag"], "x": x, "y": y,
             "xx": x * x,
             "yy_hi": yy >> 32, "yy_lo": yy & np.int64((1 << 32) - 1),
             "xy": x * y}
        )
        out = g.groupby("f", sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxx=("xx", "sum"), syy_hi=("yy_hi", "sum"),
            syy_lo=("yy_lo", "sum"), sxy=("xy", "sum"),
        )
        return out.reset_index()

    agg = (
        li.map_batches(partial, batch_format="pandas")
        .groupby("f")
        .aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("syy_hi", alias_name="syy_hi"),
            Sum("syy_lo", alias_name="syy_lo"),
            Sum("sxy", alias_name="sxy"),
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64).astype(np.float64)
        sx = df["sx"].to_numpy(np.int64).astype(np.float64)
        sy = df["sy"].to_numpy(np.int64).astype(np.float64)
        sxx = df["sxx"].to_numpy(np.int64).astype(np.float64)
        # exact recombination in Python ints (few groups), then ONE
        # nearest-rounding to double — identical to DuckDB's HUGEINT→DOUBLE
        syy = np.array(
            [
                float((int(h) << 32) + int(lo))
                for h, lo in zip(df["syy_hi"], df["syy_lo"])
            ],
            np.float64,
        )
        sxy = df["sxy"].to_numpy(np.int64).astype(np.float64)
        cov = sxy / n - (sx / n) * (sy / n)
        vx = sxx / n - (sx / n) * (sx / n)
        vy = syy / n - (sy / n) * (sy / n)
        corr = cov / np.sqrt(vx * vy)
        return pd.DataFrame(
            {"l_returnflag": df["f"],
             "n_rows": df["n"].astype("int64"),
             "corr_qty_price": corr}
        )

    return agg.map_batches(finish, batch_format="pandas")


LINEITEM_QTY_PRICE_CORR_SQL = """
WITH s AS (
    SELECT l_returnflag AS f,
           COUNT(*)::BIGINT AS n,
           SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS sx,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS sy,
           SUM(CAST(ROUND(l_quantity) AS BIGINT)
               * CAST(ROUND(l_quantity) AS BIGINT)) AS sxx,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS syy,
           SUM(CAST(ROUND(l_quantity) AS BIGINT)
               * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS sxy
    FROM lineitem GROUP BY 1
)
SELECT f AS l_returnflag,
       n AS n_rows,
       (CAST(sxy AS DOUBLE) / n - (CAST(sx AS DOUBLE) / n)
            * (CAST(sy AS DOUBLE) / n))
       / sqrt((CAST(sxx AS DOUBLE) / n - (CAST(sx AS DOUBLE) / n)
                   * (CAST(sx AS DOUBLE) / n))
              * (CAST(syy AS DOUBLE) / n - (CAST(sy AS DOUBLE) / n)
                    * (CAST(sy AS DOUBLE) / n))) AS corr_qty_price
FROM s
"""


def priority_year_pivot(sf_dir: str) -> rd.Dataset:
    """PIVOT verb: revenue matrix of order priority × order YEAR — the
    wide-reshape report Ray Data has no native word for, done the
    scale-correct way: ONE grouped aggregate at the finest (priority,
    year) grain (combiner before the exchange, int-cents exact), then the
    tiny |priorities|×|years| result reshapes driver-side. The fact table
    is never pivoted row-wise; only the aggregate is."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        years = t["o_orderdate"].to_numpy().astype("datetime64[Y]").astype(
            np.int64
        ) + 1970
        df = pd.DataFrame(
            {
                "o_orderpriority": t["o_orderpriority"].to_pylist(),
                "year": years,
                "cents": np.round(
                    t["o_totalprice"].to_numpy() * 100.0
                ).astype(np.int64),
            }
        )
        out = (
            df.groupby(["o_orderpriority", "year"], sort=False)["cents"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "year"])
        .aggregate(Sum("cents", alias_name="cents"))
        .to_pandas()  # |priorities| x |years| rows: control-plane size
    )
    # FIXED pivot columns (the testdata's order-date span): a pivot's
    # output schema must not depend on which years happen to have rows,
    # or empty years would silently drop columns vs the SQL twin
    years = list(range(1995, 2002))
    if agg.empty:  # empty corpus: typed empty pivot, not a KeyError
        import ray.data as _rd

        return _rd.from_arrow(
            pa.table(
                {"o_orderpriority": pa.array([], pa.string()),
                 **{f"rev_{y}": pa.array([], pa.float64()) for y in years}}
            )
        )
    wide = agg.pivot_table(
        index="o_orderpriority", columns="year", values="cents",
        aggfunc="sum", fill_value=0,
    ).reset_index()
    out = {"o_orderpriority": wide["o_orderpriority"]}
    for y in years:
        col = wide[y] if y in wide.columns else pd.Series(0, index=wide.index)
        out[f"rev_{y}"] = (col.astype("int64") / 100.0).astype("float64")
    import ray.data as _rd

    return _rd.from_arrow(
        pa.Table.from_pandas(pd.DataFrame(out), preserve_index=False)
    )


PRIORITY_YEAR_PIVOT_SQL = """
SELECT o_orderpriority,
       {cols}
FROM orders
GROUP BY o_orderpriority
"""


def priority_year_pivot_sql(years=(1995, 1996, 1997, 1998, 1999, 2000, 2001)) -> str:
    cols = ",\n       ".join(
        f"SUM(CASE WHEN date_part('year', o_orderdate) = {y} "
        f"THEN CAST(ROUND(o_totalprice * 100) AS BIGINT) ELSE 0 END)::BIGINT"
        f" / 100.0 AS rev_{y}"
        for y in years
    )
    return PRIORITY_YEAR_PIVOT_SQL.format(cols=cols)


def _customer_year_presence(sf_dir: str, y_a: int, y_b: int) -> rd.Dataset:
    """Shared engine for the INTERSECT/EXCEPT set-op verbs: per customer,
    presence flags for order-years ``y_a`` / ``y_b`` — one custkey
    exchange over (custkey, year-bit) pairs pre-deduped per block."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def pairs(t: pa.Table) -> pa.Table:
        years = t["o_orderdate"].to_numpy().astype("datetime64[Y]").astype(
            np.int64
        ) + 1970
        cust = t["o_custkey"].to_numpy()
        m_a, m_b = years == y_a, years == y_b
        ck = np.concatenate([cust[m_a], cust[m_b]])
        bit = np.concatenate(
            [np.ones(int(m_a.sum()), np.int64),
             np.full(int(m_b.sum()), 2, np.int64)]
        )
        packed = np.unique(ck * 4 + bit)  # in-block dedup (combiner)
        return pa.table({"key": pa.array(packed // 4, pa.int64()),
                         "packed": pa.array(packed, pa.int64())})

    def fold(g: pa.Table) -> pa.Table:
        packed = np.unique(g["packed"].to_numpy())
        ck = packed // 4
        bit = packed % 4
        uniq, inv = np.unique(ck, return_inverse=True)
        mask = np.zeros(len(uniq), np.int64)
        np.bitwise_or.at(mask, inv, bit)
        return pa.table(
            {
                "o_custkey": pa.array(uniq, pa.int64()),
                "mask": pa.array(mask, pa.int64()),
            }
        )

    return copartition(
        [ds.map_batches(pairs, batch_format="pyarrow")],
        fold, pa.schema([("packed", pa.int64())]),
        exchange_parts(sf_dir, "orders"),
    )


def repeat_customers(sf_dir: str, y_a: int = 1995, y_b: int = 1996) -> rd.Dataset:
    """INTERSECT verb: customers with orders in BOTH years (the retention
    set). One custkey exchange over bit-packed presence pairs."""
    pres = _customer_year_presence(sf_dir, y_a, y_b)
    return schema_safe(
        pres.map_batches(
            lambda t: t.filter(pc.equal(t["mask"], 3)).select(["o_custkey"]),
            batch_format="pyarrow",
        ),
        pa.schema([("o_custkey", pa.int64())]),
    )


def churned_customers(sf_dir: str, y_a: int = 1995, y_b: int = 1996) -> rd.Dataset:
    """EXCEPT verb: customers who ordered in ``y_a`` but NOT in ``y_b``
    (the churn set). Same presence fold, different mask."""
    pres = _customer_year_presence(sf_dir, y_a, y_b)
    return schema_safe(
        pres.map_batches(
            lambda t: t.filter(pc.equal(t["mask"], 1)).select(["o_custkey"]),
            batch_format="pyarrow",
        ),
        pa.schema([("o_custkey", pa.int64())]),
    )


REPEAT_CUSTOMERS_SQL = """
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1995
INTERSECT
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1996
"""

CHURNED_CUSTOMERS_SQL = """
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1995
EXCEPT
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1996
"""


# ---------------------------------------------------------------------------
# UNPIVOT: wide→long reshape, fused with its consuming aggregate


def lineitem_measure_stats(sf_dir: str) -> rd.Dataset:
    """UNPIVOT verb — melt lineitem's four measure columns
    (quantity / extendedprice / discount / tax) into long form and fold
    per-measure stats, the reshape dual of ``priority_year_pivot``.

    Scale shape: the long table is NEVER materialized. A naive unpivot
    replicates every fact row 4× through an exchange; here each batch
    emits FOUR partial rows (measure, sum_cents, min, max, n) — the
    wide→long reshape and the consuming aggregate fuse into the combiner,
    so the exchange carries 4 × n_blocks rows regardless of fact size.
    At 100 TB that is the difference between a 400 TB shuffle and a
    kilobyte one.

    Exactness: sums fold integer cents (all four measures are ≤2-decimal
    by construction); min/max of doubles are order-independent; the final
    ``/ 100.0`` reproduces the oracle's double division.
    """
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", cols)

    def partial(t: pa.Table) -> pa.Table:
        names, sums, mins, maxs, ns = [], [], [], [], []
        for c in cols:
            v = t[c].to_numpy()
            names.append(c)
            sums.append(int(np.round(v * 100.0).astype(np.int64).sum()))
            mins.append(float(v.min()))
            maxs.append(float(v.max()))
            ns.append(len(v))
        return pa.table(
            {
                "measure": pa.array(names, pa.string()),
                "sum_c": pa.array(sums, pa.int64()),
                "mn": pa.array(mins, pa.float64()),
                "mx": pa.array(maxs, pa.float64()),
                "n_p": pa.array(ns, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("measure")
        .aggregate(
            Sum("sum_c", alias_name="sum_c"),
            Min("mn", alias_name="min_v"),
            Max("mx", alias_name="max_v"),
            Sum("n_p", alias_name="n_rows"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "measure": t["measure"],
                "total": pc.divide(pc.cast(t["sum_c"], pa.float64()), 100.0),
                "min_v": t["min_v"],
                "max_v": t["max_v"],
                "n_rows": pc.cast(t["n_rows"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


LINEITEM_MEASURE_STATS_SQL = """
SELECT measure,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) / 100.0 AS total,
       MIN(value) AS min_v, MAX(value) AS max_v, COUNT(*)::BIGINT AS n_rows
FROM (
  UNPIVOT (SELECT l_quantity, l_extendedprice, l_discount, l_tax FROM lineitem)
  ON l_quantity, l_extendedprice, l_discount, l_tax
  INTO NAME measure VALUE value
)
GROUP BY measure
"""


# ---------------------------------------------------------------------------
# RANK / DENSE_RANK: tie-aware window ranks (vs ROW_NUMBER/NTILE's tie-free
# packed keys — p_size ties heavily inside a type, so the tie semantics are
# actually exercised)


def part_size_ranks(sf_dir: str) -> rd.Dataset:
    """``RANK()`` and ``DENSE_RANK() OVER (PARTITION BY p_type ORDER BY
    p_size)`` — the tie-aware window verbs. ONE p_type-hash exchange; per
    partition the ranks are pure vectorized order statistics
    (``np.unique(..., return_inverse)`` IS dense_rank−1;
    ``searchsorted(side='left')+1`` IS rank), no row loops. Ties make both
    ranks deterministic with no tie-break key needed — the value set per
    (type, size) is what's ranked, not row order."""
    def ranks(t: pa.Table) -> pd.DataFrame:
        out = []
        for _, grp in t.to_pandas().groupby("p_type", sort=False):
            v = grp["p_size"].to_numpy(np.int64)
            sv = np.sort(v)
            uniq, inv = np.unique(v, return_inverse=True)
            out.append(
                pd.DataFrame(
                    {
                        "p_partkey": grp["p_partkey"].to_numpy(np.int64),
                        "p_type": grp["p_type"].to_numpy(),
                        "p_size": v,
                        "rnk": np.searchsorted(sv, v, side="left") + 1,
                        "dense_rnk": inv + 1,
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return _by_part_type(sf_dir, ranks)


PART_SIZE_RANKS_SQL = """
SELECT p_partkey, p_type, p_size::BIGINT AS p_size,
       RANK() OVER (PARTITION BY p_type ORDER BY p_size)::BIGINT AS rnk,
       DENSE_RANK() OVER (PARTITION BY p_type ORDER BY p_size)::BIGINT AS dense_rnk
FROM part
"""


def either_year_customers(sf_dir: str, y_a: int = 1995, y_b: int = 1996) -> rd.Dataset:
    """UNION (distinct) verb: customers with orders in EITHER year —
    completes the set-op trio (INTERSECT ``repeat_customers``, EXCEPT
    ``churned_customers``) on the SAME shared bit-packed presence fold:
    one custkey exchange total, the three verbs differ only in the final
    vectorized mask test."""
    pres = _customer_year_presence(sf_dir, y_a, y_b)
    return schema_safe(
        pres.map_batches(
            lambda t: t.filter(pc.greater(t["mask"], 0)).select(["o_custkey"]),
            batch_format="pyarrow",
        ),
        pa.schema([("o_custkey", pa.int64())]),
    )


EITHER_YEAR_CUSTOMERS_SQL = """
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1995
UNION
SELECT DISTINCT o_custkey FROM orders WHERE date_part('year', o_orderdate) = 1996
"""


# ---------------------------------------------------------------------------
# TPC-H Q17 shape: the per-group correlated average as a co-location fold


def small_qty_part_revenue(sf_dir: str, brand: str = "Brand#3") -> rd.Dataset:
    """Average yearly revenue lost if small-quantity orders (below HALF the
    part's average order quantity) were not taken, for one brand — the
    TPC-H Q17 shape. The correlated per-part AVG decorrelates into ONE
    partkey exchange: all rows of a part co-locate, so each partition
    computes the part's average AND applies the row filter locally.

    Exactness: quantities are integer-valued, so the threshold test is the
    integer cross-multiply ``2 × qty × count < sum_qty`` (no float
    division), and revenue partials are exact price-cents sums; the single
    ``/100/7`` happens once at the finish with the oracle's arithmetic.
    The brand filter broadcasts the part-key set (``SortedLookup``), so
    only ~1/|brands| of lineitem enters the exchange."""
    import pyarrow.parquet as pq_

    from crawler_ray.pipelines.joins import SortedLookup
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "lineitem")

    brand_parts = SortedLookup(
        pq_.read_table(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_brand"],
            filters=[("p_brand", "=", brand)],
        )["p_partkey"].to_numpy()
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
        target_rows_per_block=4096,
    )

    def brand_rows(t: pa.Table) -> pa.Table:
        (hit,) = brand_parts.probe(t["l_partkey"].to_numpy())
        t = t.filter(pa.array(hit))
        return pa.table(
            {
                "l_partkey": t["l_partkey"].cast(pa.int64()),
                "qty": t["l_quantity"].cast(pa.float64()),
                "price_c": pa.array(
                    np.round(t["l_extendedprice"].to_numpy() * 100.0),
                    pa.float64(),
                ),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        st = df.groupby("l_partkey", sort=False)["qty"].agg(["sum", "size"])
        m = df.join(st, on="l_partkey")
        small = m[2.0 * m["qty"] * m["size"] < m["sum"]]
        return pa.table(
            {"rev_c": pa.array([float(small["price_c"].sum())], pa.float64())}
        )

    folded = copartition(
        [li.map_batches(brand_rows, batch_format="pyarrow")],
        fold,
        pa.schema([("qty", pa.float64()), ("price_c", pa.float64())]),
        n_parts,
        key="l_partkey",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        total = float(df["rev_c"].sum())
        assert total < float(1 << 53), "rev sum exceeds exact-f64 envelope"
        return pd.DataFrame(
            {"avg_yearly": [float(round_np([total / 100.0 / 7.0], 2)[0])]}
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    # scalar aggregate: SQL returns exactly ONE row even when nothing
    # matches (COALESCEd to 0 in the oracle); the engine's fold has zero
    # groups then and `finish` never runs — default the scalar here
    return scalar_safe(
        out,
        pa.schema([("avg_yearly", pa.float64())]),
        {"avg_yearly": 0.0},
    )


def small_qty_part_revenue_sql(brand: str = "Brand#3") -> str:
    return f"""
WITH st AS (
    SELECT l_partkey, SUM(l_quantity) AS sq, COUNT(*)::DOUBLE AS cq
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE p_brand = '{brand}'
    GROUP BY 1
)
SELECT ROUND(COALESCE(SUM(ROUND(l_extendedprice * 100)), 0) / 100.0 / 7.0, 2)
           AS avg_yearly
FROM lineitem JOIN st USING (l_partkey)
WHERE 2 * l_quantity * cq < sq
"""


# ---------------------------------------------------------------------------
# TPC-H Q19 shape: disjunctive multi-attribute predicate — a pure broadcast
# filter-scan with ZERO exchanges


def brand_size_quantity_revenue(sf_dir: str) -> rd.Dataset:
    """Revenue from line items matching any of three (brand, size-range,
    quantity-range) predicate groups — the TPC-H Q19 shape. The part
    attributes needed by the predicate are a slim (partkey → brand-id,
    size) map PRE-FILTERED to the three candidate brands and broadcast
    (rows of other brands can never match); the disjunction evaluates
    vectorized per block and per-block exact cent partials fold to one
    global sum. No shuffle of either fact."""
    import pyarrow.parquet as pq_

    from crawler_ray.pipelines.joins import SortedLookup
    from crawler_ray.sources.io import read_parquet_sized

    spec = [  # (brand, max_size, qty_lo, qty_hi)
        ("Brand#1", 10, 1, 20),
        ("Brand#2", 20, 10, 30),
        ("Brand#3", 30, 20, 40),
    ]
    part = pq_.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).to_pandas()
    part = part[part["p_brand"].isin([b for b, *_ in spec])]
    brand_id = {b: i for i, (b, *_ ) in enumerate(spec)}
    part_attrs = SortedLookup(
        part["p_partkey"],
        part["p_brand"].map(brand_id).to_numpy(np.int64),
        part["p_size"].to_numpy(np.int64),
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        target_rows_per_block=4096,
    )

    def disjunct(t: pa.Table) -> pa.Table:
        hit, bid, size = part_attrs.probe(t["l_partkey"].to_numpy())
        qty = t["l_quantity"].to_numpy()
        keep = np.zeros(len(hit), bool)
        for i, (_b, max_size, q_lo, q_hi) in enumerate(spec):
            keep |= (
                hit
                & (bid == i)
                & (size >= 1)
                & (size <= max_size)
                & (qty >= q_lo)
                & (qty <= q_hi)
            )
        t2 = t.filter(pa.array(keep))
        rev = np.round(t2["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t2["l_discount"].to_numpy()) * 100.0
        )
        return pa.table({"rev_p": pa.array([float(rev.sum())], pa.float64())})

    folded = li.map_batches(disjunct, batch_format="pyarrow")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        total = float(df["rev_p"].sum())
        assert total < float(1 << 53), "rev sum exceeds exact-f64 envelope"
        return pd.DataFrame(
            {"revenue": [float(round_np([total / 10000.0], 2)[0])]}
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    # scalar aggregate: one row even over an EMPTY corpus (zero input
    # blocks -> `partial`/`finish` never run), matching the COALESCEd oracle
    return scalar_safe(
        out, pa.schema([("revenue", pa.float64())]), {"revenue": 0.0}
    )


BRAND_SIZE_QTY_REVENUE_SQL = """
SELECT ROUND(COALESCE(
             SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100)),
             0) / 10000.0, 2) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 10 AND l_quantity BETWEEN 1 AND 20)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 20 AND l_quantity BETWEEN 10 AND 30)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 30 AND l_quantity BETWEEN 20 AND 40)
"""


def part_size_percentiles(sf_dir: str) -> rd.Dataset:
    """``PERCENT_RANK()`` and ``CUME_DIST() OVER (PARTITION BY p_type
    ORDER BY p_size)`` — the normalized window verbs completing the rank
    family (``part_size_ranks``). Same ONE p_type-hash exchange + order
    statistics; both outputs are a division of two exact small integers,
    evaluated with the identical float64 expression the oracle uses
    ((rank−1)/(n−1), count≤/n), so values are bit-stable. Single-row
    groups take PERCENT_RANK = 0 (the SQL definition for n = 1)."""
    def pct(t: pa.Table) -> pd.DataFrame:
        out = []
        for _, grp in t.to_pandas().groupby("p_type", sort=False):
            v = grp["p_size"].to_numpy(np.int64)
            n = len(v)
            sv = np.sort(v)
            rnk = np.searchsorted(sv, v, side="left") + 1
            le = np.searchsorted(sv, v, side="right")
            pr = (
                (rnk - 1) / float(n - 1)
                if n > 1
                else np.zeros(n, np.float64)
            )
            out.append(
                pd.DataFrame(
                    {
                        "p_partkey": grp["p_partkey"].to_numpy(np.int64),
                        "p_type": grp["p_type"].to_numpy(),
                        "p_size": v,
                        "pct_rank": np.asarray(pr, np.float64),
                        "cume_dist": le / float(n),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return _by_part_type(sf_dir, pct)


PART_SIZE_PERCENTILES_SQL = """
SELECT p_partkey, p_type, p_size::BIGINT AS p_size,
       PERCENT_RANK() OVER (PARTITION BY p_type ORDER BY p_size) AS pct_rank,
       CUME_DIST() OVER (PARTITION BY p_type ORDER BY p_size) AS cume_dist
FROM part
"""


# ---------------------------------------------------------------------------
# TPC-H Q6 shape: the forecasting-change scan — pure filter + one global sum


def forecast_revenue_change(sf_dir: str) -> rd.Dataset:
    """Revenue that would vanish if 1996 discounts of 5-7% on sub-24-unit
    lines were eliminated: ``SUM(price × discount)`` under the triple
    filter (TPC-H Q6). Zero exchanges: per-block exact 1e-4-unit partials
    (the discount band test runs on integer cents — no float BETWEEN
    edge), one bounded fold. The read prunes to the four needed columns."""
    from crawler_ray.sources.io import read_parquet_sized

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        target_rows_per_block=4096,
    )

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy()
        disc_c = np.round(t["l_discount"].to_numpy() * 100.0)
        keep = (
            (d >= lo) & (d < hi)
            & (disc_c >= 5) & (disc_c <= 7)
            & (t["l_quantity"].to_numpy() < 24)
        )
        price_c = np.round(t["l_extendedprice"].to_numpy()[keep] * 100.0)
        rev = price_c * disc_c[keep]
        return pa.table({"rev_p": pa.array([float(rev.sum())], pa.float64())})

    folded = li.map_batches(partial, batch_format="pyarrow")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # block partials are exact integers in float64; the fold stays
        # exact while the TOTAL is < 2^53 (the corr fix's hi/lo split is
        # the recipe beyond) — assert the envelope instead of silently
        # rounding
        total = float(df["rev_p"].sum())
        assert total < float(1 << 53), "rev sum exceeds exact-f64 envelope"
        return pd.DataFrame(
            {"revenue": [float(round_np([total / 10000.0], 2)[0])]}
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    # scalar aggregate: one row even over an EMPTY corpus (zero input
    # blocks -> `partial`/`finish` never run), matching the COALESCEd oracle
    return scalar_safe(
        out, pa.schema([("revenue", pa.float64())]), {"revenue": 0.0}
    )


FORECAST_REVENUE_SQL = """
-- COALESCE: the engine's fold of ZERO qualifying lines is 0.00 (a sum of
-- no partials), while SQL SUM over the empty set is NULL — align on 0
-- (found by tools/fuzz_oracles.py --barren; the driver corpus always has
-- qualifying lines)
SELECT ROUND(COALESCE(
             SUM(ROUND(l_extendedprice * 100) * ROUND(l_discount * 100)),
             0) / 10000.0, 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND ROUND(l_discount * 100) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


# ---------------------------------------------------------------------------
# TPC-H Q14 shape: promo revenue share per month — a ratio of two exact
# integer folds under a broadcast part-attribute probe, zero fact exchanges


def promo_revenue_share(sf_dir: str, year: int = 1996) -> rd.Dataset:
    """Per ship-month of ``year``, the percentage of revenue from PROMO
    parts (TPC-H Q14). The part attribute is a slim (partkey → is_promo)
    broadcast probe (``SortedLookup``; an open part vocabulary
    would switch to a partitioned join — the doc_top_tfidf guard
    pattern); each block folds [promo, total] exact integer partials per
    month, the exchange is 12 × blocks slim rows, and the only float op
    is the final ratio — the oracle's exact arithmetic."""
    import pyarrow.parquet as pq_

    from crawler_ray.pipelines.joins import SortedLookup
    from crawler_ray.sources.io import read_parquet_sized

    lo = np.datetime64(f"{year}-01-01")
    hi = np.datetime64(f"{year + 1}-01-01")

    part = pq_.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    part_promo = SortedLookup(
        part["p_partkey"], (part["p_type"] == "PROMO").to_numpy()
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        target_rows_per_block=4096,
    )

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy()
        t = t.filter(pa.array((d >= lo) & (d < hi)))
        hit, promo = part_promo.probe(t["l_partkey"].to_numpy())
        month = (
            t["l_shipdate"].to_numpy().astype("datetime64[M]")
            .astype(np.int64) % 12 + 1
        )
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame(
            {
                "month": month,
                "promo": np.where(hit & promo, rev, 0.0),
                "total": rev,
            }
        )
        out = df.groupby("month", sort=False).sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("month")
        .aggregate(
            Sum("promo", alias_name="promo_f"), Sum("total", alias_name="total_f")
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("month", kind="mergesort")
        return pd.DataFrame(
            {
                "l_month": df["month"].astype("int64"),
                "promo_share": round_np(100.0 * df["promo_f"] / df["total_f"], 6),
            }
        )

    out = agg.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("l_month", pa.int64()), ("promo_share", pa.float64())]
    ))


def promo_revenue_share_sql(year: int = 1996) -> str:
    return f"""
SELECT EXTRACT(month FROM l_shipdate)::BIGINT AS l_month,
       ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                 THEN ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100)
                 ELSE 0 END)
             / SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100)),
             6) AS promo_share
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '{year}-01-01'
  AND l_shipdate <  TIMESTAMP '{year + 1}-01-01'
GROUP BY 1
"""


# --------------------------------------------------------------------------
# Pareto frontier (2-D skyline): cheapest price per strictly-better size
# --------------------------------------------------------------------------


def _skyline_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Exact 2-D skyline kernel (minimize price, maximize size), vectorized.

    A row is dominated iff another row has (price <=, size >=) with at least
    one strict. Duplicate (price, size) points are mutually non-dominating
    and are ALL kept. O(n log n): per-price group max, exclusive running max
    over distinct ascending prices, two boolean masks.
    """
    if not len(df):
        return df
    price = df["p_retailprice"].to_numpy()
    size = df["p_size"].to_numpy()
    # per-price max size
    uprice, inv = np.unique(price, return_inverse=True)
    gmax = np.full(len(uprice), np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(gmax, inv, size.astype(np.int64))
    # exclusive running max over strictly-smaller prices (uprice is sorted)
    prevmax = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(gmax)[:-1]]
    )
    keep_price = gmax > prevmax  # frontier prices
    keep = keep_price[inv] & (size.astype(np.int64) == gmax[inv])
    return df.loc[keep]


def pareto_price_size(sf_dir: str) -> rd.Dataset:
    """Pareto-optimal parts on (minimize ``p_retailprice``, maximize
    ``p_size``) — the skyline operator (multi-objective shortlisting:
    price/quality frontiers, best-effort dedup champions). Ray Data has no
    skyline verb; this is the standard exact two-phase decomposition:

    1. **Local prune** (per batch): rows dominated within a batch are
       dominated globally, so each batch emits only its LOCAL skyline —
       corpus-sized work, vectorized sort/running-max kernel, no exchange.
    2. **Global fold**: survivors gather into one partition and the same
       kernel runs once more. Survivor volume is bounded by
       Σ per-batch skyline sizes — data-dependent (anti-chains can be
       large), but for any realistic price/size distribution it is tiny
       (≤ distinct sizes + duplicates at frontier points). The planted
       worst case is tested; if survivors outgrew a single partition the
       fold would become a sorted-by-price repartition + running-max scan
       (the ``doc_pack_spans`` prefix-scan shape).

    Exactness: no arithmetic — only comparisons on values both engines read
    verbatim — so the oracle matches bit-for-bit including duplicates.
    """
    from crawler_ray.sources.io import read_parquet_sized

    parts = read_parquet_sized(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_retailprice", "p_size"],
    )
    local = parts.map_batches(_skyline_2d, batch_format="pandas")
    return local.repartition(1).map_batches(
        _skyline_2d, batch_format="pandas", batch_size=None
    )


PARETO_PRICE_SIZE_SQL = """
WITH g AS (
    SELECT p_retailprice AS price, MAX(p_size) AS msize FROM part GROUP BY 1
),
r AS (
    SELECT price, msize,
           MAX(msize) OVER (ORDER BY price
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prevmax
    FROM g
),
k AS (SELECT price, msize FROM r WHERE prevmax IS NULL OR msize > prevmax)
SELECT p.p_partkey, p.p_retailprice, p.p_size
FROM part p JOIN k ON k.price = p.p_retailprice AND k.msize = p.p_size
"""
