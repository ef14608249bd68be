"""The join family over large sides: two exchange primitives and one
broadcast probe.

Every join-shaped query here is built from:

- ``copartition(sides, fold, schema, n_parts)`` is one hash exchange over N
  streams. Rows of every side whose ``key % n_parts`` agree meet in one
  ``fold`` call, which receives each side's rows as its own Arrow table.
  Inner, outer, semi, anti, as-of and range joins differ only in the fold;
  a side pre-aggregates in its own map (the combiner) before the exchange.
- ``block_pairs(ds, key, schema, fold, out_schema, blocks)`` is the
  exact all-pairs walk (the block-partitioned nested loop of HERO, SIGMOD
  2024): rows hash into B blocks on ``key``, each row is replicated to
  the B unordered block pairs that contain its block, and one
  ``copartition`` over the pair ids hands every block pair to one
  ``fold`` call. The caller works B out once with ``pair_blocks(rows,
  floor)``: its ``floor``, or more once ``rows`` passes
  ``PAIR_BLOCK_ROWS`` per block.
- ``SortedLookup(keys, *vals)`` is a broadcast probe of a small dimension:
  sorted arrays ship once with ``ray.put`` and a fact side's map probes
  them with ``searchsorted``, so the dimension never enters an exchange.

Each query sizes its exchanges with ``exchange_parts``: the summed parquet
footer rows of the tables feeding them. At or below one read block
(``read_parquet_sized``'s ``MAX_ROWS_PER_BLOCK``) that is ONE partition,
and ``copartition`` folds the whole sides in one call with no sort
exchange; above it, ``EXCHANGE_PARTS`` hash partitions. A footer count is
taken before any filter, so while each input row sends at most one row
into the exchange it can only over-state the exchange's input: a wrong
guess falls back to the sort exchange, never the other way. A map that
sends more rows than it reads names its table once per row it may emit
(``events.user_retention`` sums ``events`` twice). The bar is one read
block because that is the most rows one read task is already sized to
hold; where a multi-core fan-out starts to beat one fold is unmeasured,
and no benchmark workload yet runs the exchange side. No query takes a
partition-count, block-count or strategy option; tests force a branch by
patching the module constant behind it (``MAX_ROWS_PER_BLOCK`` and
``EXCHANGE_PARTS`` for the exchange side, ``PAIR_BLOCK_ROWS`` or a
caller's block floor for the pair grid, ``BLOOM_PROBE_CROSSOVER_ROWS``
for the bloom gate). An input with a row count but no footer (a
minilance manifest, a materialized count) goes through ``parts_for_rows``;
one with no row count at all (a caller's Dataset) uses ``EXCHANGE_PARTS``.

``partitioned_hash_join`` is the generic pandas-merge fold over
``copartition``. ``_bloom_gated`` prefilters an orders probe side above a
measured size crossover.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from crawler_ray.functions.rounding import round_np
from crawler_ray.pipelines.result import schema_safe

# hash partitions of an exchange whose inputs exceed one read block
EXCHANGE_PARTS = 32


def copartition(
    sides: list[rd.Dataset],
    fold,
    schema: pa.Schema,
    n_parts: int,
    key: str = "key",
) -> rd.Dataset:
    """One hash exchange over N streams: rows of all ``sides`` with the same
    ``key % n_parts`` meet in one ``fold(*tables)`` call.

    Each side's blocks carry an int64 ``key`` plus any subset of the
    ``schema`` fields; present fields are cast to the schema's types and
    absent ones padded with typed nulls (so the union has one schema), and
    other columns are dropped. Each table handed to ``fold`` holds one
    side's rows of the partition, in ``sides`` order, with columns ``key``
    + ``schema``; fields the side does not carry are all-null there, so
    select a side's own columns before ``to_pandas``.
    The tagging is one map per side, which fuses with the side's own map.

    ``n_parts=1`` (``exchange_parts`` for inputs within one read block)
    skips the sort exchange: the union is coalesced into one block and
    ``fold`` runs once over the whole sides. Either way ``fold`` is never
    called on a partition with no rows."""
    fields = pa.schema([pa.field(key, pa.int64())] + list(schema))

    def tagger(side: int):
        def tag(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = [
                t[f.name].cast(f.type) if f.name in t.column_names
                else pa.nulls(n, f.type)
                for f in fields
            ]
            part = t[key].to_numpy() % n_parts
            return pa.table(
                cols + [pa.array(part, pa.int64()),
                        pa.array(np.full(n, side, np.int8))],
                names=fields.names + ["part", "_side"],
            )

        return tag

    tagged = [
        ds.map_batches(tagger(i), batch_format="pyarrow")
        for i, ds in enumerate(sides)
    ]
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def per_part(g: pa.Table):
        # split sides in ARROW before any pandas conversion: pad nulls live
        # only on the other sides' rows, so a side's own int64 columns
        # reach pandas null-free and cannot degrade to float64 (which
        # silently rounds keys wider than 53 bits and breaks the equi-join)
        side = g["_side"]
        g = g.select(fields.names)
        return fold(*(g.filter(pc.equal(side, i)) for i in range(len(sides))))

    per_part.__name__ = fold.__name__  # keeps the fold's name in the plan
    if n_parts == 1:
        # Repartition(1) emits exactly one block whatever the target block
        # size, and batch_size=None hands it to one call; Ray skips a
        # zero-row block, as the groupby skips an empty partition
        return union.repartition(1).map_batches(
            per_part, batch_format="pyarrow", batch_size=None
        )
    return union.groupby("part").map_groups(per_part, batch_format="pyarrow")


def _footer_rows(parquet: str) -> int:
    """Row count from the parquet footer — the size signal of every
    strategy choice (no data scan)."""
    import pyarrow.parquet as pq_

    return pq_.ParquetFile(parquet).metadata.num_rows


def exchange_parts(sf_dir: str, *tables: str) -> int:
    """Partition count of the exchanges fed by ``tables`` (parquet stems
    under ``sf_dir``): 1 when their summed footer rows fit one read block,
    else ``EXCHANGE_PARTS``. The footer count precedes every filter, so it
    bounds the exchange's input from above as long as each row read sends
    at most one row; a caller whose map fans out names a table once per
    row it may emit."""
    return parts_for_rows(
        sum(_footer_rows(f"{sf_dir}/{t}.parquet") for t in tables))


def parts_for_rows(rows: int) -> int:
    """The sizing rule itself: 1 partition for at most one read block of
    rows, else ``EXCHANGE_PARTS``."""
    from crawler_ray.sources.io import MAX_ROWS_PER_BLOCK

    return 1 if rows <= MAX_ROWS_PER_BLOCK else EXCHANGE_PARTS


# rows per block of a ``block_pairs`` grid: a fold holds two blocks, so
# its pair matrices stay near 4000² entries (an int64 one ≈ 128 MiB) however
# many rows the walk covers
PAIR_BLOCK_ROWS = 4000


def pair_blocks(rows: int, floor: int) -> int:
    """Block count of a ``block_pairs`` walk over ``rows`` rows: ``floor``,
    or more once the rows pass ``floor × PAIR_BLOCK_ROWS``."""
    return max(floor, -(-rows // PAIR_BLOCK_ROWS))


def block_pairs(
    ds: rd.Dataset,
    key: str,
    schema: pa.Schema,
    fold,
    out_schema: pa.Schema,
    blocks: int,
) -> rd.Dataset:
    """The exact all-pairs walk over ``ds`` on a grid of ``B = blocks``
    blocks (the caller's ``pair_blocks`` figure): each row goes to block
    ``key % B`` and is replicated, with one vectorized map, to the B
    unordered block pairs ``(p, q)``, ``p <= q``, holding its block. One
    ``copartition`` over the ``B²`` pair ids hands each pair's rows (columns ``pair`` + ``schema``,
    which must hold ``key``) to one call: ``fold(t, None)`` on a diagonal
    pair, where every row is in block ``p``, else ``fold(t, left)`` with
    ``left`` the boolean mask of the block-``p`` rows (the rest are block
    ``q``). An off-diagonal pair with an empty side yields no
    ``out_schema`` rows. Every unordered row pair meets in exactly one
    call, so the output needs no dedup exchange; per-call memory is two
    blocks."""
    B = blocks

    def replicate(t: pa.Table) -> pa.Table:
        blk = t[key].to_numpy() % B
        other = np.arange(B, dtype=np.int64)
        pair = (np.minimum(blk[:, None], other) * B
                + np.maximum(blk[:, None], other)).ravel()
        rep = t.take(pa.array(np.repeat(np.arange(t.num_rows), B)))
        return rep.append_column("pair", pa.array(pair, pa.int64()))

    def walk(g: pa.Table) -> pa.Table:
        p, q = divmod(g["pair"][0].as_py(), B)
        if p == q:
            return fold(g, None)
        left = g[key].to_numpy() % B == p
        if left.all() or not left.any():
            return out_schema.empty_table()
        return fold(g, left)

    walk.__name__ = fold.__name__
    return copartition(
        [ds.map_batches(replicate, batch_format="pyarrow")],
        walk, schema, B * B, key="pair",
    )


def footer_schema(sf_dir: str, table: str, columns: list[str]) -> pa.Schema:
    """The parquet footer's types of ``columns``: a ``copartition`` schema
    for a side that carries them as read."""
    import pyarrow.parquet as pq_

    schema = pq_.read_schema(f"{sf_dir}/{table}.parquet")
    return pa.schema([schema.field(c) for c in columns])


class SortedLookup:
    """Broadcast probe of a small int64-keyed dimension. The key-sorted
    arrays ship ONCE via ``ray.put`` and resolve lazily, once per worker,
    at the first ``probe``."""

    def __init__(self, keys, *vals):
        keys = np.asarray(keys, np.int64)
        order = np.argsort(keys, kind="stable")
        self._ref = ray.put((keys[order], *(np.asarray(v)[order] for v in vals)))
        self._arrays = None

    def probe(self, k: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(hit, *vals)``: whether each of ``k`` is a key, and each value
        array at the probed positions (meaningful where ``hit``). An empty
        key set misses every probe."""
        if self._arrays is None:
            self._arrays = ray.get(self._ref)
        keys, *vals = self._arrays
        if not len(keys):
            return (np.zeros(len(k), bool),
                    *(np.zeros(len(k), v.dtype) for v in vals))
        pos = np.clip(np.searchsorted(keys, k), 0, len(keys) - 1)
        return (keys[pos] == k, *(v[pos] for v in vals))


def _fields(ds: rd.Dataset, given) -> list[tuple[str, pa.DataType]] | None:
    if given is not None:
        return [(f.name, f.type) for f in given]
    # works for Arrow AND (numeric) pandas block schemas
    sch = ds.schema()
    if sch is None:  # zero-block side (empty corpus): no type info
        return None
    out = []
    for name, typ in zip(sch.names, sch.types):
        if not isinstance(typ, pa.DataType):
            typ = pa.from_numpy_dtype(np.dtype(typ))
        out.append((name, typ))
    return out


def _merge_fold(lf, rf, on: str):
    """The pandas inner merge of one partition's left and right rows.
    Output is an Arrow table with a FIXED schema (left fields, then right
    fields minus ``on``), so empty partitions cannot drift dtypes."""
    lcols = [n for n, _ in lf]
    rcols = [n for n, _ in rf]
    out_schema = pa.schema(lf + [(n, t) for n, t in rf if n != on])

    def merge(left: pa.Table, right: pa.Table) -> pa.Table:
        lg = left.select(lcols).to_pandas()
        rg = right.select(rcols).to_pandas()
        if lg.empty or rg.empty:
            df = pd.DataFrame(columns=out_schema.names)
        else:
            df = lg.merge(rg, on=on)[out_schema.names]
        return pa.Table.from_pandas(df, schema=out_schema, preserve_index=False)

    return merge


def partitioned_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    parts: int,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Hash-partitioned inner join of two Datasets on an integer key
    column: one ``copartition`` exchange over ``parts`` partitions (the
    caller's ``exchange_parts`` / ``parts_for_rows`` figure) and a pandas
    merge per partition. Column sets of the two sides must be disjoint apart from
    ``on``.

    Pass ``left_schema`` / ``right_schema`` when a side's block schema is
    pandas-typed with object columns (bytes vs str is not inferrable)."""
    lf, rf = _fields(left, left_schema), _fields(right, right_schema)
    if lf is None or rf is None:
        # A schema-less side has zero rows, so the inner join is empty;
        # the typed result uses every KNOWN field
        fields = (lf or []) + [(n, t) for n, t in (rf or []) if n != on]
        return rd.from_arrow(
            pa.schema(fields).empty_table() if fields else pa.table({})
        )
    payload = pa.schema([(n, t) for n, t in lf + rf if n != on])
    return copartition(
        [left, right], _merge_fold(lf, rf, on), payload, parts, key=on
    )


def order_lineitem_join_totals(sf_dir: str) -> rd.Dataset:
    """Both-sides-large join: lineitem ⨝ orders on orderkey, then per-order
    revenue. The lineitem side is pre-aggregated per (block, orderkey)
    BEFORE the join shuffle (combiner), so the exchange moves one row per
    order per side instead of one per lineitem.

    ONE exchange serves aggregate AND join: both sides key on the orderkey,
    so instead of a ``groupby().aggregate()`` exchange followed by a join
    exchange, the partials and the orders co-partition once and each
    partition finishes the aggregation and the merge in pandas. (The
    replaced shape measured 7.3 s for the Ray Aggregate alone at sf0.1;
    this runs the whole query in ~1.5 s.) Values stay exact: rev partials
    are 1e-4-unit integers < 2^53, so float64 passage cannot round them."""
    from crawler_ray.sources.io import read_parquet_sized

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        target_rows_per_block=4096,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        # exact integer-cents arithmetic: price and discount have 2 decimals,
        # so round(price*100) * round((1-d)*100) is an exact integer (in
        # float64, < 2^53) and the distributed sum is associative — no
        # summation-order rounding flips vs the oracle
        price_c = np.round(t["l_extendedprice"].to_numpy() * 100.0)
        disc_c = np.round((1.0 - t["l_discount"].to_numpy()) * 100.0)
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(),
                "rev": price_c * disc_c,  # revenue in 1e-4 units, exact
            }
        )
        out = (
            df.groupby("key", sort=False)
            .agg(rev_p=("rev", "sum"), n_items_p=("rev", "size"))
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def o_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_orderkey"], "o_totalprice": t["o_totalprice"]})

    def merge_part(li: pa.Table, o: pa.Table) -> pa.Table:
        og = o.select(["key", "o_totalprice"]).to_pandas()
        lg = li.select(["key", "rev_p", "n_items_p"]).to_pandas()
        agg = (
            lg.groupby("key", sort=False)
            .agg(revenue_raw=("rev_p", "sum"), n_items=("n_items_p", "sum"))
            .reset_index()
        )
        m = og.merge(agg, on="key", how="inner")
        return pa.table(
            {
                "o_orderkey": pa.array(m["key"].to_numpy().astype(np.int64)),
                "o_totalprice": pa.array(m["o_totalprice"].to_numpy(), pa.float64()),
                "lineitem_revenue": pa.array(
                    round_np(m["revenue_raw"].to_numpy() / 10000.0, 2), pa.float64()
                ),
                "n_items": pa.array(m["n_items"].to_numpy().astype(np.int64)),
            }
        )

    return copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"),
         orders.map_batches(o_rows, batch_format="pyarrow")],
        merge_part,
        pa.schema([("rev_p", pa.float64()), ("n_items_p", pa.int64()),
                   ("o_totalprice", pa.float64())]),
        exchange_parts(sf_dir, "lineitem", "orders"),
    )


ORDER_LINEITEM_JOIN_SQL = """
SELECT o_orderkey, o_totalprice,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS lineitem_revenue,
       COUNT(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderkey, o_totalprice
"""


# ---------------------------------------------------------------------------
# as-of join (time-series point-in-time join) — an operator Ray Data has no
# native verb for: ONE fused hash exchange on the equi-key, then a
# vectorized per-partition backward merge_asof


def events_asof_order_join(sf_dir: str) -> rd.Dataset:
    """For each event, the most recent order of the same customer placed at
    or before the event time (backward as-of join), inner semantics.

    Shape: both sides co-partition ONCE on the shared key
    (user_id = o_custkey) — every (key, time)-match is confined to one
    partition, so the merge is embarrassingly parallel. Inside each
    partition ``pd.merge_asof`` (vectorized C galloping search over both
    sides sorted by time) resolves the point-in-time match. Ties on
    o_orderdate break to the HIGHEST o_orderkey: the order side is sorted
    by (o_orderdate, o_orderkey) and merge_asof takes the last row ≤ ts,
    matching the oracle's ``ORDER BY o_orderdate DESC, o_orderkey DESC``
    rank-1 row."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "events", "orders")

    events = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"],
        target_rows_per_block=8192,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        target_rows_per_block=8192,
    )

    def e_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t["user_id"], "event_id": t["event_id"], "ts": t["ts"]}
        )

    def o_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["o_custkey"],
                "o_orderkey": t["o_orderkey"],
                "o_orderdate": t["o_orderdate"],
                "o_totalprice": t["o_totalprice"],
            }
        )

    out_schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()),
         ("asof_orderkey", pa.int64()), ("asof_totalprice", pa.float64())]
    )

    def merge_part(e: pa.Table, o: pa.Table) -> pa.Table:
        eg = e.select(["key", "event_id", "ts"]).to_pandas()
        og = o.select(
            ["key", "o_orderkey", "o_orderdate", "o_totalprice"]
        ).to_pandas()
        if eg.empty or og.empty:
            return pa.Table.from_pylist([], schema=out_schema)
        eg = eg.sort_values("ts", kind="stable")
        og = og.sort_values(["o_orderdate", "o_orderkey"], kind="stable")
        m = pd.merge_asof(
            eg, og, left_on="ts", right_on="o_orderdate",
            by="key", direction="backward",
        )
        m = m[m["o_orderkey"].notna()]  # inner: drop events with no prior order
        return pa.table(
            {
                "event_id": pa.array(m["event_id"].to_numpy(), pa.int64()),
                "user_id": pa.array(m["key"].to_numpy(), pa.int64()),
                "asof_orderkey": pa.array(
                    m["o_orderkey"].to_numpy().astype(np.int64), pa.int64()),
                "asof_totalprice": pa.array(
                    m["o_totalprice"].to_numpy(), pa.float64()),
            }
        )

    return copartition(
        [events.map_batches(e_rows, batch_format="pyarrow"),
         orders.map_batches(o_rows, batch_format="pyarrow")],
        merge_part,
        pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us")),
                   ("o_orderkey", pa.int64()),
                   ("o_orderdate", pa.timestamp("us")),
                   ("o_totalprice", pa.float64())]),
        n_parts,
    )


EVENTS_ASOF_SQL = """
SELECT event_id, user_id, o_orderkey AS asof_orderkey,
       o_totalprice AS asof_totalprice
FROM (
    SELECT e.event_id, e.user_id, o.o_orderkey, o.o_totalprice,
           ROW_NUMBER() OVER (PARTITION BY e.event_id
                              ORDER BY o.o_orderdate DESC,
                                       o.o_orderkey DESC) AS rn
    FROM events e
    JOIN orders o ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts
) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# range (interval) self-join — per-event count of the same user's events in
# the following hour, without materializing the joined pairs


def user_events_next_hour(sf_dir: str) -> rd.Dataset:
    """For each event, how many LATER events the same user produced within
    the next hour (range join ``b.ts > a.ts AND b.ts <= a.ts + 1h``
    aggregated per left row).

    The naive form materializes the pair blowup; here each partition
    (hash(user) % P — one exchange, same key discipline as the other
    joins) answers all its rows with two vectorized ``searchsorted`` calls
    over ONE composite-sorted timestamp array: user segments are offset so
    ranges never cross users, so counts for every row in the partition come
    from upper-bound minus lower-bound positions — no pair rows exist at
    any point."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "events")

    events = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"],
        target_rows_per_block=8192,
    )
    hour_us = 3_600_000_000  # INTERVAL 1 HOUR in microseconds

    def count_window(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        order = np.lexsort((ts, uid))
        uid_s, ts_s, eid_s = uid[order], ts[order], eid[order]
        # collapse (user, ts) into one monotonic int64 axis: rebase ts and
        # give each user a lane wide enough that a +1h probe cannot reach
        # the next user's lane
        ts0 = ts_s - ts_s.min()
        span = int(ts0.max()) + 2 * hour_us + 1
        lane = np.cumsum(np.r_[False, uid_s[1:] != uid_s[:-1]]).astype(np.int64)
        composite = lane * span + ts0
        lo = np.searchsorted(composite, composite, side="right")
        hi = np.searchsorted(composite, composite + hour_us, side="right")
        return pa.table(
            {"event_id": pa.array(eid_s, pa.int64()),
             "n_next_hour": pa.array((hi - lo).astype(np.int64), pa.int64())}
        )

    return copartition(
        [events],
        count_window,
        pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us"))]),
        n_parts,
        key="user_id",
    )


USER_EVENTS_NEXT_HOUR_SQL = """
SELECT a.event_id, COUNT(b.event_id) AS n_next_hour
FROM events a
LEFT JOIN events b
  ON a.user_id = b.user_id
 AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 1 HOUR
GROUP BY a.event_id
"""


# ---------------------------------------------------------------------------
# partitioned anti join (NOT EXISTS)


def customers_without_urgent_orders(sf_dir: str) -> rd.Dataset:
    """Customers with no '1-URGENT' order (anti join / NOT EXISTS).

    The probe side collapses to DISTINCT keys inside ``map_batches``
    BEFORE the exchange (semi/anti joins never need the probe rows, only
    key presence — the same combiner-first discipline as the aggregates),
    then one co-partition brings each customer together with every
    evidence key and a vectorized ``is_in`` mask drops matches."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders")

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"],
        target_rows_per_block=8192,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
        target_rows_per_block=8192,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t["c_custkey"], "c_name": t["c_name"],
             "c_acctbal": t["c_acctbal"]}
        )

    def urgent_keys(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["o_orderpriority"], "1-URGENT")
        keys = np.unique(t.filter(mask)["o_custkey"].to_numpy())
        return pa.table({"key": pa.array(keys, pa.int64())})

    out_schema = pa.schema(
        [("c_custkey", pa.int64()), ("c_name", pa.string()),
         ("c_acctbal", pa.float64())]
    )

    def anti(c: pa.Table, urgent: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(c["key"], value_set=urgent["key"].combine_chunks())
        )
        out = c.filter(keep)
        return pa.table(
            {"c_custkey": out["key"], "c_name": out["c_name"],
             "c_acctbal": out["c_acctbal"]},
            schema=out_schema,
        )

    return copartition(
        [cust.map_batches(c_rows, batch_format="pyarrow"),
         orders.map_batches(urgent_keys, batch_format="pyarrow")],
        anti,
        pa.schema([("c_name", pa.string()), ("c_acctbal", pa.float64())]),
        n_parts,
    )


CUSTOMERS_WITHOUT_URGENT_SQL = """
SELECT c_custkey, c_name, c_acctbal
FROM customer c
WHERE NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
)
"""


# ---------------------------------------------------------------------------
# partitioned LEFT OUTER join aggregate


def customer_order_counts(sf_dir: str) -> rd.Dataset:
    """Every customer with order count and total spend, ZEROS preserved for
    customers with no orders — the LEFT OUTER member of the join-verb family
    (inner = ``partitioned_hash_join``, anti = NOT EXISTS, as-of, range).

    Shape: orders collapse to per-batch (custkey, n, cents) partials BEFORE
    any exchange (combiner-first, integer cents so block split and
    accumulation order cannot flip values); customers and partials
    co-partition ONCE on custkey; the per-partition fold sums partials and
    left-attaches with zero fill. No second exchange — the unmatched side
    is filled in-task."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders")

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"],
        target_rows_per_block=8192,
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"],
        target_rows_per_block=8192,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["c_custkey"], "c_name": t["c_name"]})

    def o_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"key": t["o_custkey"].to_numpy(),
             "cents": np.round(t["o_totalprice"].to_numpy() * 100)
             .astype(np.int64)}
        )
        g = df.groupby("key", sort=False).agg(
            n=("cents", "size"), cents=("cents", "sum")
        ).reset_index()
        return pa.table(
            {"key": pa.array(g["key"].to_numpy(np.int64), pa.int64()),
             "n": pa.array(g["n"].to_numpy(np.int64)),
             "cents": pa.array(g["cents"].to_numpy(np.int64))}
        )

    out_schema = pa.schema(
        [("c_custkey", pa.int64()), ("c_name", pa.string()),
         ("n_orders", pa.int64()), ("total_spend", pa.float64())]
    )

    def fold(c: pa.Table, o: pa.Table) -> pa.Table:
        cg = c.select(["key", "c_name"]).to_pandas()
        og = o.select(["key", "n", "cents"]).to_pandas()
        agg = og.groupby("key", sort=False)[["n", "cents"]].sum()
        m = cg.merge(agg, left_on="key", right_index=True, how="left")
        n = m["n"].fillna(0).astype(np.int64)
        cents = m["cents"].fillna(0).astype(np.int64)
        return pa.Table.from_pandas(
            pd.DataFrame(
                {"c_custkey": m["key"].astype(np.int64),
                 "c_name": m["c_name"],
                 "n_orders": n,
                 "total_spend": cents / 100.0}
            ),
            schema=out_schema, preserve_index=False,
        )

    return copartition(
        [cust.map_batches(c_rows, batch_format="pyarrow"),
         orders.map_batches(o_partial, batch_format="pyarrow")],
        fold,
        pa.schema([("c_name", pa.string()), ("n", pa.int64()),
                   ("cents", pa.int64())]),
        n_parts,
    )


CUSTOMER_ORDER_COUNTS_SQL = """
SELECT c.c_custkey, c.c_name,
       COALESCE(o.n, 0)::BIGINT AS n_orders,
       COALESCE(o.cents, 0) / 100.0 AS total_spend
FROM customer c LEFT JOIN (
    SELECT o_custkey, COUNT(*) AS n,
           SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
    FROM orders GROUP BY o_custkey
) o ON c.c_custkey = o.o_custkey
"""


# ---------------------------------------------------------------------------
# Bloom-prefiltered SEMI join (EXISTS) — completes the join-verb family


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _bloom_ref_from_keys(ds: rd.Dataset, col: str, cap: int | None = None):
    """OR-fold per-block Bloom partials over ``ds[col]`` (slim, already
    filtered) and ``ray.put`` the packed state — the build half of every
    bloom-prefiltered exchange here. Only fixed-size bit arrays reach the
    driver.

    Pass ``cap`` (an upper bound, e.g. the dim table's footer row count)
    to size the filter without a counting pass — oversizing only wastes
    bits (at 10^10-key scale, size from a selectivity estimate instead)."""
    from crawler_ray.state.filters import BloomFilter

    if cap is None:
        ds = ds.materialize()
        cap = int(ds.count())
    cap = max(1024, cap)

    def block_bloom(t: pa.Table) -> pa.Table:
        f = BloomFilter(cap)
        f.add(_splitmix64(t[col].to_numpy()))
        return pa.table({"bits": pa.array([f.bits.tobytes()], pa.binary())})

    parts = ds.map_batches(block_bloom, batch_format="pyarrow").to_pandas()
    bloom = BloomFilter(cap)
    # .empty guard: a zero-row build drops the fold's schema; the all-zero
    # filter then correctly rejects every probe
    for b in (parts["bits"] if not parts.empty else ()):
        bloom.bits |= np.frombuffer(b, dtype=np.uint8)
    return ray.put(bloom.state())


class _BloomGate:
    """Bloom membership filter over one int64 column of a probe side. The
    broadcast state resolves lazily, once per worker. No false negatives:
    survivors still get exact verification in the fold; the bloom only
    cuts exchange volume."""

    def __init__(self, ref, col: str):
        self.ref = ref
        self.col = col
        self._f = None

    def keep(self, t: pa.Table) -> pa.Table:
        if self.ref is None:  # gate disabled (below the bloom crossover)
            return t
        from crawler_ray.state.filters import BloomFilter

        if self._f is None:
            self._f = BloomFilter.from_state(ray.get(self.ref))
        keys = t[self.col].to_numpy()
        return t.filter(pa.array(self._f.contains(_splitmix64(keys))))


# bloom-prefilter crossover: the build's materialize gates the probe stream
# (breaks read/shuffle pipelining), so on small facts it costs more than
# the saved exchange; measured at sf0.1 (150k orders) bloom LOSES ~0.6 s
# per query, and wins once the probe fact is ~10x that. The gate turns on
# when the probe side's footer row count clears this bar (tests patch it
# to force either branch).
BLOOM_PROBE_CROSSOVER_ROWS = 1_500_000


def _bloom_gated(build: rd.Dataset, sf_dir: str) -> tuple[rd.Dataset, _BloomGate]:
    """The guarded bloom prefilter of an ``orders`` probe on ``o_custkey``
    against a filtered ``customer`` build stream keyed by ``key``. Returns
    the build stream and the probe side's gate. Only ~matching customers'
    orders then enter the custkey exchange.

    The orders footer row count decides. Below the crossover the gate
    passes every row and ``build`` streams as given. At or above it,
    ``build`` materializes ONCE (it is the exchange's build side too) and
    the filter is capacity-sized from the customer footer."""
    if _footer_rows(f"{sf_dir}/orders.parquet") < BLOOM_PROBE_CROSSOVER_ROWS:
        return build, _BloomGate(None, "o_custkey")
    build = build.materialize()
    ref = _bloom_ref_from_keys(
        build, "key", cap=_footer_rows(f"{sf_dir}/customer.parquet")
    )
    return build, _BloomGate(ref, "o_custkey")


def orders_from_event_users(sf_dir: str) -> rd.Dataset:
    """SEMI join (``WHERE EXISTS``): orders whose customer appears in the
    events stream (testdata convention: ``events.user_id`` keys the
    customer domain) — the bloom-join shape for a fact⋈fact exists-check
    at scale:

    1. distinct build keys via one slim partition fold (per-batch unique
       → coarse key-hash exchange → in-task unique),
    2. a Bloom filter over the distinct keys is OR-folded from per-block
       partials — only fixed-size bit arrays reach the driver — and
       broadcast once with ``ray.put``,
    3. the probe fact PREFILTERS against the bloom inside ``map_batches``
       (no false negatives), so only ~matching + ε·FP rows enter
    4. the exact semi fold (probe rows and distinct build keys
       co-partitioned by key; in-task membership test removes bloom false
       positives).

    The probe side's shuffle volume shrinks from |orders| to
    |semi matches| + FP — the entire point of a bloom join when the probe
    fact is 100× the match rate. Output is exact regardless of FP rate."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "events", "orders")

    events = read_parquet_sized(f"{sf_dir}/events.parquet", columns=["user_id"])

    def distinct_batch(t: pa.Table) -> pa.Table:
        u = np.unique(t["user_id"].to_numpy())
        return pa.table({"key": pa.array(u, pa.int64())})

    def distinct_fold(g: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(np.unique(g["key"].to_numpy()), pa.int64())})

    users = copartition(
        [events.map_batches(distinct_batch, batch_format="pyarrow")],
        distinct_fold,
        pa.schema([]),
        n_parts,
    ).materialize()  # slim key rows; reused twice below
    gate = _BloomGate(_bloom_ref_from_keys(users, "key"), "o_custkey")

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        target_rows_per_block=4096,
    )

    def probe_rows(t: pa.Table) -> pa.Table:
        t = gate.keep(t)
        return t.append_column("key", t["o_custkey"])

    def semi(probe: pa.Table, build: pa.Table) -> pa.Table:
        keep = np.isin(probe["key"].to_numpy(), build["key"].to_numpy())
        return probe.filter(pa.array(keep)).select(
            ["o_orderkey", "o_custkey", "o_totalprice"]
        )

    return copartition(
        [orders.map_batches(probe_rows, batch_format="pyarrow"), users],
        semi,
        pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                   ("o_totalprice", pa.float64())]),
        n_parts,
    )


ORDERS_FROM_EVENT_USERS_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders
WHERE EXISTS (SELECT 1 FROM events e WHERE e.user_id = o_custkey)
"""


# ---------------------------------------------------------------------------
# FULL OUTER join aggregate — completes the outer-join family


def customer_order_event_counts(sf_dir: str) -> rd.Dataset:
    """FULL OUTER join of two per-key aggregates: order count per customer
    vs event count per user (testdata convention: ``events.user_id`` keys
    the customer domain), zero-filled on BOTH sides — keys present in
    either fact survive. Shape: each fact folds its per-key combiner in
    batch, the two slim partial streams co-partition ONCE on the key, and
    the in-task fold sums each side with zero fill. No driver-side rows,
    no second pass over either fact."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "orders", "events")

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        target_rows_per_block=4096,
    )
    events = read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=["user_id"],
        target_rows_per_block=4096,
    )

    def partial(col: str):
        def fn(t: pa.Table) -> pa.Table:
            k, cnt = np.unique(t[col].to_numpy(), return_counts=True)
            return pa.table(
                {"key": pa.array(k, pa.int64()),
                 "n": pa.array(cnt.astype(np.int64), pa.int64())}
            )

        return fn

    def fold(o: pa.Table, e: pa.Table) -> pa.Table:
        p = pd.DataFrame(
            {"n_orders": o.to_pandas().groupby("key")["n"].sum(),
             "n_events": e.to_pandas().groupby("key")["n"].sum()}
        ).fillna(0)
        return pa.table(
            {"key_id": pa.array(p.index.to_numpy(np.int64), pa.int64()),
             "n_orders": pa.array(p["n_orders"].to_numpy(np.int64), pa.int64()),
             "n_events": pa.array(p["n_events"].to_numpy(np.int64), pa.int64())}
        )

    return copartition(
        [orders.map_batches(partial("o_custkey"), batch_format="pyarrow"),
         events.map_batches(partial("user_id"), batch_format="pyarrow")],
        fold,
        pa.schema([("n", pa.int64())]),
        n_parts,
    )


CUSTOMER_ORDER_EVENT_COUNTS_SQL = """
WITH o AS (SELECT o_custkey AS k, COUNT(*)::BIGINT AS n_orders
           FROM orders GROUP BY 1),
     e AS (SELECT user_id AS k, COUNT(*)::BIGINT AS n_events
           FROM events GROUP BY 1)
SELECT COALESCE(o.k, e.k) AS key_id,
       COALESCE(n_orders, 0)::BIGINT AS n_orders,
       COALESCE(n_events, 0)::BIGINT AS n_events
FROM o FULL OUTER JOIN e ON o.k = e.k
"""


# ---------------------------------------------------------------------------
# EXISTS-aggregate (TPC-H Q4 shape): late-shipped order counts by priority


def late_ship_priority_counts(sf_dir: str, grace_days: int = 30) -> rd.Dataset:
    """Per order priority, how many orders had at least one line item
    shipped more than ``grace_days`` after the order date — the TPC-H Q4
    shape (aggregate over an EXISTS correlated to another fact). ONE
    orderkey co-partition brings each order together with its line items'
    per-batch MAX-shipdate partials (combiner: one slim row per
    (batch, orderkey), never one per line item); the in-task exists-test
    emits per-priority count partials and the final groupby folds
    |priorities| rows."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "orders", "lineitem")

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        target_rows_per_block=4096,
    )
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"key": t["l_orderkey"].to_numpy(),
             # FULL microsecond resolution: the oracle's `l_shipdate >
             # o_orderdate + INTERVAL 30 DAY` compares TIMESTAMPS; a
             # day-truncated compare silently drops orders whose last ship
             # lands later-in-day than odate+30d on the boundary day
             # (invisible on the midnight-only driver dates; found by the
             # sf0.01-base fuzz, seed 11000)
             "ship": t["l_shipdate"].to_numpy().astype("datetime64[us]")
                 .astype(np.int64)}
        )
        g = df.groupby("key", sort=False)["ship"].max()
        return pa.table(
            {"key": pa.array(g.index.to_numpy(np.int64), pa.int64()),
             "ship_max": pa.array(g.to_numpy(np.int64), pa.int64())}
        )

    def o_rows(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {"key": t["o_orderkey"],
             "odate": pa.array(od, pa.int64()),
             "priority": t["o_orderpriority"]}
        )

    def fold(li: pa.Table, o: pa.Table) -> pd.DataFrame:
        mx = li.select(["key", "ship_max"]).to_pandas().groupby("key")["ship_max"].max()
        od = o.select(["key", "odate", "priority"]).to_pandas().set_index("key")
        joined = od.join(mx, how="inner")
        late = joined[
            joined["ship_max"]
            > joined["odate"] + np.int64(grace_days) * 86_400_000_000
        ]
        out = late.groupby("priority", sort=False).size().rename("n_p")
        return out.reset_index()

    agg = (
        copartition(
            [li.map_batches(li_partial, batch_format="pyarrow"),
             orders.map_batches(o_rows, batch_format="pyarrow")],
            fold,
            pa.schema([("ship_max", pa.int64()), ("odate", pa.int64()),
                       ("priority", pa.string())]),
            n_parts,
        )
        .groupby("priority")
        .aggregate(Sum("n_p", alias_name="late_orders"))
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {"o_orderpriority": df["priority"],
             "late_orders": df["late_orders"].astype("int64")}
        ),
        batch_format="pandas",
    )


def late_ship_priority_counts_sql(grace_days: int = 30) -> str:
    return f"""
SELECT o_orderpriority, COUNT(*)::BIGINT AS late_orders
FROM orders o
WHERE EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey
      AND l.l_shipdate > o.o_orderdate + INTERVAL {grace_days} DAY
)
GROUP BY 1
"""


def returned_item_report(sf_dir: str) -> rd.Dataset:
    """TPC-H Q10 shape — the 4-relation join report: revenue lost to
    RETURNED items per customer over a date window, with the customer's
    nation name, top 20. Exercises the full join toolkit in one plan:

    - lineitem filtered to ``l_returnflag='R'`` AT THE READ side and
      pre-aggregated per (block, orderkey) — the combiner — in exact
      1e-4-unit integer revenue;
    - lineitem-partials ⋈ orders (date-window filtered) in ONE orderkey
      co-partition (the ``order_lineitem_join_totals`` shape), re-keyed
      to custkey with in-partition partial sums;
    - ONE custkey exchange finishes the per-customer fold;
    - customer and nation are BROADCAST dimensions (1500 + 25 rows —
      shipping them to every task beats shuffling the fact);
    - deterministic top-20: (revenue_raw DESC, custkey ASC) over exact
      integers, folded per-block then once globally (bounded driver set).
    """
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "lineitem", "orders")

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        price_c = np.round(t["l_extendedprice"].to_numpy() * 100.0)
        disc_c = np.round((1.0 - t["l_discount"].to_numpy()) * 100.0)
        df = pd.DataFrame(
            {"key": t["l_orderkey"].to_numpy(), "rev": price_c * disc_c}
        )
        out = df.groupby("key", sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy()
        t = t.filter(pa.array((d >= lo) & (d < hi)))
        return pa.table(
            {"key": t["o_orderkey"], "o_custkey": t["o_custkey"].cast(pa.int64())}
        )

    def merge_orderkey(li: pa.Table, o: pa.Table) -> pa.Table:
        # join + re-key to custkey with an in-partition partial fold
        og = o.select(["key", "o_custkey"]).to_pandas()
        lg = li.select(["key", "rev"]).to_pandas()
        m = og.merge(
            lg.groupby("key", sort=False)["rev"].sum().reset_index(),
            on="key", how="inner",
        )
        out = m.groupby("o_custkey", sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "c_custkey": pa.array(
                    out["o_custkey"].to_numpy().astype(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    def fold_custkey(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = df.groupby("c_custkey", sort=False)["rev"].sum().reset_index()
        # per-partition top-20 prefilter: the global top 20 is a subset of
        # the union of per-partition top 20s
        out = out.sort_values(
            ["rev", "c_custkey"], ascending=[False, True], kind="mergesort"
        ).head(20)
        return pa.Table.from_pandas(out, preserve_index=False)

    per_cust = copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"),
         orders.map_batches(o_rows, batch_format="pyarrow")],
        merge_orderkey,
        pa.schema([("rev", pa.float64()), ("o_custkey", pa.int64())]),
        n_parts,
    )
    folded = copartition(
        [per_cust], fold_custkey, pa.schema([("rev", pa.float64())]), n_parts,
        key="c_custkey",
    )

    # bounded final fold (≤ 20 × n_parts rows) + broadcast dims
    import pyarrow.parquet as pq_

    cust = pq_.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    ).to_pandas()
    nation = pq_.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    dim = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )[["c_custkey", "c_name", "n_name"]]

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["rev", "c_custkey"], ascending=[False, True], kind="mergesort"
        ).head(20)
        m = df.merge(dim, on="c_custkey", how="left")
        return pd.DataFrame(
            {
                "c_custkey": m["c_custkey"].astype("int64"),
                "c_name": m["c_name"],
                "n_name": m["n_name"],
                "revenue": round_np(m["rev"] / 10000.0, 2),
            }
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("c_custkey", pa.int64()), ("c_name", pa.string()),
         ("n_name", pa.string()), ("revenue", pa.float64())]
    ))


RETURNED_ITEM_REPORT_SQL = """
SELECT c_custkey, c_name, n_name,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY c_custkey, c_name, n_name
ORDER BY SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
         DESC, c_custkey
LIMIT 20
"""


def local_supplier_volume(sf_dir: str, region: str = "ASIA") -> rd.Dataset:
    """TPC-H Q5 shape — the 6-relation join: revenue per nation from
    orders whose customer AND line-supplier sit in the SAME nation of one
    region, over a date window. The widest join plan in the suite, and a
    worked example of choosing per-relation strategies by size:

    - region ⋈ nation: driver-side (5 × 25 rows) → the set of in-region
      nation keys;
    - supplier: slim (s_suppkey → s_nationkey) ``SortedLookup``,
      PRE-FILTERED to in-region nations and probed in the lineitem
      combiner (supplier is ~1/10000 of lineitem — shipping it beats a
      shuffle); lineitem rows of out-of-region suppliers die at the read;
    - orders (date-filtered) ⋈ customer: both large → ONE custkey
      co-partition, emitting (o_orderkey, c_nationkey) re-keyed by
      orderkey;
    - lineitem partials (per-block (orderkey, s_nat) integer-revenue
      combiner) join that stream in ONE orderkey co-partition, keeping
      rows with c_nationkey == s_nationkey (the Q5 "local" predicate) and
      folding to per-nation partials in-task;
    - the final groupby moves ≤ |nations| × n_parts rows.

    Revenue is exact 1e-4-unit integers end to end (the
    ``returned_item_report`` convention); /10000 + round(2) happens once
    at the finish with the oracle's arithmetic."""
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "orders", "customer", "lineitem")

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    # driver-side dims: region⋈nation (tiny)
    nat = pq_.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq_.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    in_region = nat.merge(
        reg[reg["r_name"] == region], left_on="n_regionkey",
        right_on="r_regionkey",
    )
    nat_names = dict(
        zip(in_region["n_nationkey"].astype(int), in_region["n_name"])
    )
    nat_keys = set(nat_names)

    # broadcast supplier map, pre-filtered to the region
    sup = pq_.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    sup = sup[sup["s_nationkey"].isin(nat_keys)]
    sup_nat = SortedLookup(sup["s_suppkey"], sup["s_nationkey"].to_numpy(np.int64))

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy()
        t = t.filter(pa.array((d >= lo) & (d < hi)))
        return pa.table(
            {"key": t["o_custkey"], "o_orderkey": t["o_orderkey"].cast(pa.int64())}
        )

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        target_rows_per_block=4096,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        # only in-region customers can satisfy c_nat == s_nat later
        keep = np.isin(t["c_nationkey"].to_numpy(), list(nat_keys))
        t = t.filter(pa.array(keep))
        return pa.table(
            {"key": t["c_custkey"], "c_nat": t["c_nationkey"].cast(pa.int64())}
        )

    def merge_custkey(o: pa.Table, c: pa.Table) -> pa.Table:
        og = o.select(["key", "o_orderkey"]).to_pandas()
        cg = c.select(["key", "c_nat"]).to_pandas()
        m = og.merge(cg, on="key", how="inner")
        return pa.table(
            {
                "key": pa.array(m["o_orderkey"].to_numpy(np.int64), pa.int64()),
                "c_nat": pa.array(m["c_nat"].to_numpy(np.int64), pa.int64()),
            }
        )

    o_c = copartition(
        [orders.map_batches(o_rows, batch_format="pyarrow"),
         cust.map_batches(c_rows, batch_format="pyarrow")],
        merge_custkey,
        pa.schema([("o_orderkey", pa.int64()), ("c_nat", pa.int64())]),
        n_parts,
    )

    # lineitem combiner: supplier probe, per-block integer partials
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        hit, s_nat = sup_nat.probe(t["l_suppkey"].to_numpy())
        t = t.filter(pa.array(hit))  # in-region suppliers only
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame(
            {"key": t["l_orderkey"].to_numpy(), "s_nat": s_nat[hit], "rev": rev}
        )
        out = df.groupby(["key", "s_nat"], sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "s_nat": pa.array(out["s_nat"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    def merge_orderkey(li: pa.Table, o: pa.Table) -> pa.Table:
        lg = li.select(["key", "s_nat", "rev"]).to_pandas()
        og = o.select(["key", "c_nat"]).to_pandas()
        m = lg.merge(og, on="key", how="inner")
        m = m[m["s_nat"] == m["c_nat"]]  # the Q5 "local" predicate
        out = m.groupby("s_nat", sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "nat": pa.array(out["s_nat"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    folded = copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"), o_c],
        merge_orderkey,
        pa.schema([("s_nat", pa.int64()), ("rev", pa.float64()),
                   ("c_nat", pa.int64())]),
        n_parts,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("nat", sort=False)["rev"].sum().reset_index()
        out["n_name"] = out["nat"].map(nat_names)
        out = out.sort_values("rev", ascending=False, kind="mergesort")
        return pd.DataFrame(
            {
                "n_name": out["n_name"],
                "revenue": round_np(out["rev"] / 10000.0, 2),
            }
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("n_name", pa.string()), ("revenue", pa.float64())]
    ))


LOCAL_SUPPLIER_VOLUME_SQL = """
SELECT n_name,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE c_nationkey = s_nationkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
"""

# ---------------------------------------------------------------------------
# TPC-H Q7 shape: two-nation trade flows — a 6-relation join where BOTH join
# keys (custkey then orderkey) get exactly one exchange each and both nation
# dimensions are driver-resolved / broadcast


def nation_trade_flows(
    sf_dir: str,
    nat_a: str = "NATION_12",
    nat_b: str = "NATION_11",
) -> rd.Dataset:
    """Revenue shipped between two nations per direction per ship-year
    (TPC-H Q7 shape). Reference parity: the reference's report joins are
    broadcast-bag lookups (SURVEY.md §2.6); this is the large-fact
    generalization.

    Plan (two exchanges total, both on integer keys):
    - nation: driver-side name→key (25 rows);
    - supplier: slim suppkey→nationkey ``SortedLookup`` PRE-FILTERED to
      the two nations (rows of out-of-pair suppliers die inside the
      lineitem combiner);
    - orders ⋈ customer (filtered to the two nations): ONE custkey
      co-partition emitting (orderkey, c_nat);
    - lineitem combiner: ship-year window filter + supplier probe + exact
      1e-4-unit integer revenue, pre-folded per (orderkey, s_nat, year);
      joins the o_c stream in ONE orderkey exchange, keeping opposite-nation
      rows only (a ≠ b ⇒ s_nat ≠ c_nat), folded to
      (s_nat, c_nat, year) partials in-task;
    - final groupby moves ≤ 2 directions × 2 years × n_parts rows.
    """
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders", "lineitem")

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1998-01-01")

    nat = pq_.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    key_of = dict(zip(nat["n_name"], nat["n_nationkey"].astype(int)))
    name_of = {v: k for k, v in key_of.items()}
    if nat_a not in key_of or nat_b not in key_of:
        # empty corpus / unknown nation: typed empty flows, not a KeyError
        return rd.from_arrow(
            pa.table({"supp_nation": pa.array([], pa.string()),
                      "cust_nation": pa.array([], pa.string()),
                      "l_year": pa.array([], pa.int64()),
                      "revenue": pa.array([], pa.float64())})
        )
    ka, kb = key_of[nat_a], key_of[nat_b]
    pair = {ka, kb}

    sup = pq_.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    sup = sup[sup["s_nationkey"].isin(pair)]
    sup_nat = SortedLookup(sup["s_suppkey"], sup["s_nationkey"].to_numpy(np.int64))

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        target_rows_per_block=4096,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        keep = np.isin(t["c_nationkey"].to_numpy(), list(pair))
        t = t.filter(pa.array(keep))
        return pa.table(
            {"key": t["c_custkey"], "c_nat": t["c_nationkey"].cast(pa.int64())}
        )

    # bloom-prefilter the orders probe: only ~2/|nations| of customers
    # qualify, so shipping every order through the custkey exchange wastes
    # the dominant shuffle at scale
    cust_f, gate = _bloom_gated(
        cust.map_batches(c_rows, batch_format="pyarrow"), sf_dir
    )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        t = gate.keep(t)
        return pa.table(
            {"key": t["o_custkey"], "o_orderkey": t["o_orderkey"].cast(pa.int64())}
        )

    def merge_custkey(o: pa.Table, c: pa.Table) -> pa.Table:
        og = o.select(["key", "o_orderkey"]).to_pandas()
        cg = c.select(["key", "c_nat"]).to_pandas()
        m = og.merge(cg, on="key", how="inner")
        return pa.table(
            {
                "key": pa.array(m["o_orderkey"].to_numpy(np.int64), pa.int64()),
                "c_nat": pa.array(m["c_nat"].to_numpy(np.int64), pa.int64()),
            }
        )

    o_c = copartition(
        [orders.map_batches(o_rows, batch_format="pyarrow"), cust_f],
        merge_custkey,
        pa.schema([("o_orderkey", pa.int64()), ("c_nat", pa.int64())]),
        n_parts,
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
            "l_shipdate",
        ],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy()
        t = t.filter(pa.array((d >= lo) & (d < hi)))
        hit, s_nat = sup_nat.probe(t["l_suppkey"].to_numpy())
        t = t.filter(pa.array(hit))
        year = (
            t["l_shipdate"].to_numpy().astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(),
                "s_nat": s_nat[hit],
                "year": year,
                "rev": rev,
            }
        )
        out = (
            df.groupby(["key", "s_nat", "year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "s_nat": pa.array(out["s_nat"].to_numpy(np.int64), pa.int64()),
                "year": pa.array(out["year"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    def merge_orderkey(li: pa.Table, o: pa.Table) -> pa.Table:
        lg = li.select(["key", "s_nat", "year", "rev"]).to_pandas()
        og = o.select(["key", "c_nat"]).to_pandas()
        m = lg.merge(og, on="key", how="inner")
        m = m[m["s_nat"] != m["c_nat"]]  # opposite-direction flows only
        out = (
            m.groupby(["s_nat", "c_nat", "year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    folded = copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"), o_c],
        merge_orderkey,
        pa.schema([("s_nat", pa.int64()), ("year", pa.int64()),
                   ("rev", pa.float64()), ("c_nat", pa.int64())]),
        n_parts,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["s_nat", "c_nat", "year"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        out = out.sort_values(["s_nat", "c_nat", "year"], kind="mergesort")
        # typed construction so an empty fold still yields the full schema
        return pd.DataFrame(
            {
                # object (not pandas "string") dtype: Arrow round-trips the
                # pandas extension dtype through block metadata, so the
                # driver-side to_pandas() would diverge from DuckDB's object
                # columns on a strict dtype compare
                "supp_nation": out["s_nat"].map(name_of).astype(object),
                "cust_nation": out["c_nat"].map(name_of).astype(object),
                "l_year": out["year"].astype("int64"),
                "revenue": round_np(out["rev"] / 10000.0, 2),
            }
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("supp_nation", pa.string()), ("cust_nation", pa.string()),
         ("l_year", pa.int64()), ("revenue", pa.float64())]
    ))


def nation_trade_flows_sql(nat_a: str = "NATION_12", nat_b: str = "NATION_11") -> str:
    return f"""
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       EXTRACT(year FROM l_shipdate)::BIGINT AS l_year,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS revenue
FROM lineitem
JOIN supplier  ON l_suppkey = s_suppkey
JOIN orders    ON l_orderkey = o_orderkey
JOIN customer  ON o_custkey = c_custkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
WHERE ((sn.n_name = '{nat_a}' AND cn.n_name = '{nat_b}')
    OR (sn.n_name = '{nat_b}' AND cn.n_name = '{nat_a}'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# TPC-H Q8 shape: national market share — the same two-exchange plan as Q7
# but the per-year fold carries TWO exact integer accumulators (target
# revenue, total revenue) whose ratio is taken once at the finish


def nation_market_share(
    sf_dir: str,
    region: str = "AMERICA",
    target: str = "NATION_1",
) -> rd.Dataset:
    """Per order-year, the fraction of in-region customers' purchase revenue
    supplied by ``target`` (TPC-H Q8 shape). The share is a ratio of two
    exact 1e-4-unit integer sums, so the float64 division at the finish is
    the ONLY inexact step — identical to the oracle's arithmetic.

    - region ⋈ nation driver-side → in-region nation-key set;
    - supplier: FULL slim suppkey→nationkey broadcast (every lineitem needs
      its supplier classified target/other — no prefilter possible);
    - orders (date-window, carrying order-year) ⋈ customer (in-region
      filtered): ONE custkey exchange → (orderkey, year);
    - lineitem combiner folds per (orderkey, is_target) exact revenue,
      joins the (orderkey, year) stream in ONE orderkey exchange, emitting
      per-(year) [target, total] integer partials;
    - final fold is |years| × n_parts rows.
    """
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders", "lineitem")

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1998-01-01")

    nat = pq_.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq_.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    in_region = set(
        nat.merge(
            reg[reg["r_name"] == region],
            left_on="n_regionkey",
            right_on="r_regionkey",
        )["n_nationkey"].astype(int)
    )
    tgt_rows = nat.loc[nat["n_name"] == target, "n_nationkey"]
    if tgt_rows.empty:  # empty corpus / unknown nation: typed empty share
        return rd.from_arrow(
            pa.table({"o_year": pa.array([], pa.int64()),
                      "mkt_share": pa.array([], pa.float64())})
        )
    target_key = int(tgt_rows.iloc[0])

    sup = pq_.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    sup_tgt = SortedLookup(
        sup["s_suppkey"], sup["s_nationkey"].to_numpy(np.int64) == target_key
    )

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        target_rows_per_block=4096,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        keep = np.isin(t["c_nationkey"].to_numpy(), list(in_region))
        return pa.table({"key": t.filter(pa.array(keep))["c_custkey"]})

    # bloom-prefilter the orders probe to in-region customers (the
    # nation_trade_flows rationale + the same measured crossover gate)
    cust_f, gate = _bloom_gated(
        cust.map_batches(c_rows, batch_format="pyarrow"), sf_dir
    )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy()
        t = t.filter(pa.array((d >= lo) & (d < hi)))
        t = gate.keep(t)
        year = (
            t["o_orderdate"].to_numpy().astype("datetime64[Y]")
            .astype(np.int64) + 1970
        )
        return pa.table(
            {
                "key": t["o_custkey"],
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "year": pa.array(year, pa.int64()),
            }
        )

    def merge_custkey(o: pa.Table, c: pa.Table) -> pa.Table:
        og = o.select(["key", "o_orderkey", "year"]).to_pandas()
        cg = c.select(["key"]).to_pandas()
        m = og.merge(cg, on="key", how="inner")
        return pa.table(
            {
                "key": pa.array(m["o_orderkey"].to_numpy(np.int64), pa.int64()),
                "year": pa.array(m["year"].to_numpy(np.int64), pa.int64()),
            }
        )

    o_c = copartition(
        [orders.map_batches(o_rows, batch_format="pyarrow"), cust_f],
        merge_custkey,
        pa.schema([("o_orderkey", pa.int64()), ("year", pa.int64())]),
        n_parts,
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        hit, tgt = sup_tgt.probe(t["l_suppkey"].to_numpy())
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(),
                "rev_t": np.where(hit & tgt, rev, 0.0),
                "rev_all": rev,
            }
        )
        out = df.groupby("key", sort=False).sum().reset_index()
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "rev_t": pa.array(out["rev_t"].to_numpy(), pa.float64()),
                "rev_all": pa.array(out["rev_all"].to_numpy(), pa.float64()),
            }
        )

    def merge_orderkey(li: pa.Table, o: pa.Table) -> pa.Table:
        lg = li.select(["key", "rev_t", "rev_all"]).to_pandas()
        og = o.select(["key", "year"]).to_pandas()
        m = lg.merge(og, on="key", how="inner")
        out = (
            m.groupby("year", sort=False)[["rev_t", "rev_all"]]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    folded = copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"), o_c],
        merge_orderkey,
        pa.schema([("rev_t", pa.float64()), ("rev_all", pa.float64()),
                   ("year", pa.int64())]),
        n_parts,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("year", sort=False)[["rev_t", "rev_all"]].sum().reset_index()
        out = out.sort_values("year", kind="mergesort")
        return pd.DataFrame(
            {
                "o_year": out["year"].astype("int64"),
                "mkt_share": round_np(out["rev_t"] / out["rev_all"], 6),
            }
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("o_year", pa.int64()), ("mkt_share", pa.float64())]
    ))


def nation_market_share_sql(region: str = "AMERICA", target: str = "NATION_1") -> str:
    return f"""
SELECT EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
       ROUND(
         SUM(CASE WHEN sn.n_name = '{target}'
                  THEN ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100)
                  ELSE 0 END)
         / SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100)),
         6) AS mkt_share
FROM lineitem
JOIN orders    ON l_orderkey = o_orderkey
JOIN customer  ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region    ON cn.n_regionkey = r_regionkey
JOIN supplier  ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
WHERE r_name = '{region}'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q18 shape: large-volume orders — a grouped HAVING over one fact that
# then re-joins the other fact and a broadcast dimension


def large_volume_customers(sf_dir: str, min_qty: int = 200, k: int = 100) -> rd.Dataset:
    """Top-``k`` orders by total line-item quantity above ``min_qty``, with
    the customer's name (TPC-H Q18 shape). Quantities are integer-valued
    doubles (1..50), so per-block partial sums are exact.

    - lineitem: per-(block, orderkey) quantity partials (combiner) join
      orders in ONE orderkey co-partition; the HAVING (> min_qty) fires
      in-task, so only qualifying orders (a tiny fraction) leave;
    - customer name attaches via a BROADCAST slim map (the qualifying set
      is small, shipping the dim beats a second exchange — and the dim is
      already bounded: one name per custkey);
    - deterministic top-k: (total_qty DESC, o_orderkey ASC), per-partition
      prefilter then one bounded driver fold.
    """
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "lineitem", "orders")

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(),
                "qty": t["l_quantity"].to_numpy(),
            }
        )
        out = df.groupby("key", sort=False)["qty"].sum().reset_index()
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "qty": pa.array(out["qty"].to_numpy(), pa.float64()),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["o_orderkey"],
                "o_custkey": t["o_custkey"].cast(pa.int64()),
                "o_orderdate": t["o_orderdate"],
                "o_totalprice": t["o_totalprice"],
            }
        )

    def merge_orderkey(li: pa.Table, o: pa.Table) -> pa.Table:
        lg = li.select(["key", "qty"]).to_pandas()
        og = o.select(
            ["key", "o_custkey", "o_orderdate", "o_totalprice"]
        ).to_pandas()
        tot = lg.groupby("key", sort=False)["qty"].sum().reset_index()
        tot = tot[tot["qty"] > float(min_qty)]
        m = og.merge(tot, on="key", how="inner")
        # per-partition top-k prefilter
        m = m.sort_values(
            ["qty", "key"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pa.Table.from_pandas(m, preserve_index=False)

    folded = copartition(
        [li.map_batches(li_partial, batch_format="pyarrow"),
         orders.map_batches(o_rows, batch_format="pyarrow")],
        merge_orderkey,
        pa.schema([("qty", pa.float64()), ("o_custkey", pa.int64()),
                   ("o_orderdate", pa.timestamp("us")),
                   ("o_totalprice", pa.float64())]),
        n_parts,
    )

    cust = pq_.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).to_pandas()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["qty", "key"], ascending=[False, True], kind="mergesort"
        ).head(k)
        m = df.merge(cust, left_on="o_custkey", right_on="c_custkey", how="left")
        return pd.DataFrame(
            {
                "c_name": m["c_name"],
                "c_custkey": m["o_custkey"].astype("int64"),
                "o_orderkey": m["key"].astype("int64"),
                "o_orderdate": m["o_orderdate"],
                "o_totalprice": m["o_totalprice"],
                "total_qty": m["qty"],
            }
        )

    return folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def large_volume_customers_sql(min_qty: int = 200, k: int = 100) -> str:
    return f"""
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       SUM(l_quantity) AS total_qty
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING SUM(l_quantity) > {min_qty}
ORDER BY SUM(l_quantity) DESC, o_orderkey
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# TPC-H Q21 shape: the sole-late-supplier count — per-order set logic
# (EXISTS another supplier / NOT EXISTS another late supplier) resolved
# inside one orderkey partition


def waiting_supplier_counts(sf_dir: str, grace_days: int = 60) -> rd.Dataset:
    """Per supplier, how many multi-supplier orders this supplier alone
    shipped late (last ship > order date + ``grace_days``) — the TPC-H Q21
    shape with the reference schema's dates (no commit/receipt columns;
    lateness is vs the order date, same semantics class).

    The Q21 double-correlation (EXISTS a second supplier, NOT EXISTS a
    second LATE supplier) is per-order set logic, so ONE orderkey exchange
    resolves it: lineitem pre-folds per (block, orderkey, suppkey) max-ship
    partials, orders contribute (orderkey, orderdate), and the in-task fold
    re-maxes per (orderkey, suppkey), flags lateness, and keeps orders with
    ≥ 2 suppliers of which EXACTLY ONE is late — emitting that supplier.
    The final fold is one count row per supplier, named via the broadcast
    100-row supplier dim."""
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "lineitem", "orders")

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(),
                "supp": t["l_suppkey"].to_numpy(),
                # microsecond resolution — same boundary-day reasoning as
                # late_ship_priority_counts (the oracle compares TIMESTAMPS)
                "ship": t["l_shipdate"].to_numpy()
                .astype("datetime64[us]")
                .astype(np.int64),
            }
        )
        out = (
            df.groupby(["key", "supp"], sort=False)["ship"].max().reset_index()
        )
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "supp": pa.array(out["supp"].to_numpy(np.int64), pa.int64()),
                "ship": pa.array(out["ship"].to_numpy(np.int64), pa.int64()),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({"key": t["o_orderkey"], "odate": pa.array(od, pa.int64())})

    def fold(li: pa.Table, o: pa.Table) -> pa.Table:
        ps = (
            li.select(["key", "supp", "ship"])
            .to_pandas()
            .groupby(["key", "supp"], sort=False)["ship"]
            .max()
            .reset_index()
        )
        od = o.select(["key", "odate"]).to_pandas()
        m = ps.merge(od, on="key", how="inner")
        m["late"] = (
            m["ship"] > m["odate"] + np.int64(grace_days) * 86_400_000_000
        )
        grp = m.groupby("key", sort=False)["late"].agg(["size", "sum"])
        keep_orders = grp[(grp["size"] >= 2) & (grp["sum"] == 1)].index
        culprit = m[m["late"] & m["key"].isin(keep_orders)]
        out = culprit.groupby("supp", sort=False).size().rename("n_p").reset_index()
        return pa.table(
            {
                "supp": pa.array(out["supp"].to_numpy(np.int64), pa.int64()),
                "n_p": pa.array(out["n_p"].to_numpy(np.int64), pa.int64()),
            }
        )

    agg = (
        copartition(
            [li.map_batches(li_partial, batch_format="pyarrow"),
             orders.map_batches(o_rows, batch_format="pyarrow")],
            fold,
            pa.schema([("supp", pa.int64()), ("ship", pa.int64()),
                       ("odate", pa.int64())]),
            n_parts,
        )
        .groupby("supp")
        .aggregate(Sum("n_p", alias_name="numwait"))
    )

    sup = pq_.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(sup, left_on="supp", right_on="s_suppkey", how="left")
        m = m.sort_values(
            ["numwait", "s_name"], ascending=[False, True], kind="mergesort"
        )
        return pd.DataFrame(
            {"s_name": m["s_name"], "numwait": m["numwait"].astype("int64")}
        )

    return agg.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def waiting_supplier_counts_sql(grace_days: int = 60) -> str:
    return f"""
WITH per_supp AS (
    SELECT l_orderkey, l_suppkey,
           MAX(CASE WHEN l_shipdate > o_orderdate + INTERVAL {grace_days} DAY
                    THEN 1 ELSE 0 END) AS late
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY 1, 2
),
flagged AS (
    SELECT l_orderkey FROM per_supp
    GROUP BY 1 HAVING COUNT(*) >= 2 AND SUM(late) = 1
)
SELECT s_name, COUNT(*)::BIGINT AS numwait
FROM per_supp
JOIN flagged USING (l_orderkey)
JOIN supplier ON l_suppkey = s_suppkey
WHERE late = 1
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q22 shape: dormant high-balance customers — a global scalar
# aggregate feeding an anti-join, folded per nation


def dormant_customer_balance(sf_dir: str, cutoff: str = "2000-01-01") -> rd.Dataset:
    """Per nation, the count and total balance of customers whose account
    balance is above the average POSITIVE balance and who placed NO order
    since ``cutoff`` (TPC-H Q22 shape; the phone-prefix country code is the
    nation key here, and "never ordered" becomes "dormant since cutoff" —
    this corpus has no order-less customers).

    - pass A (tiny): exact global (sum_cents, count) of positive balances
      via per-block integer partials — the Q22 scalar subquery;
    - the threshold test is EXACT integer cross-multiply
      (bal_cents × n_pos > sum_cents), no float division;
    - ONE custkey exchange: qualifying customers ∪ per-block DISTINCT
      custkeys of post-cutoff orders (combiner) → in-task anti join →
      per-nation (count, balance_cents) partials;
    - final fold is |nations| × n_parts rows, named via broadcast nation.
    """
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders")

    cut = np.datetime64(cutoff)

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
        target_rows_per_block=4096,
    )

    # pass A: exact scalar stats of positive balances (bounded driver fold:
    # one row per block)
    def pos_partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy() * 100.0)
        pos = cents > 0
        return pa.table(
            {
                "s": pa.array([float(cents[pos].sum())], pa.float64()),
                "n": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    stats = cust.map_batches(pos_partial, batch_format="pyarrow").to_pandas()
    if stats.empty:  # empty corpus: Ray drops the fold's schema entirely
        sum_cents, n_pos = 0.0, 0
    else:
        sum_cents, n_pos = float(stats["s"].sum()), int(stats["n"].sum())

    def c_rows(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy() * 100.0)
        keep = cents * float(n_pos) > sum_cents  # bal > avg, exactly
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "key": t["c_custkey"],
                "nat": t["c_nationkey"].cast(pa.int64()),
                "cents": pa.array(cents[keep], pa.float64()),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy()
        t = t.filter(pa.array(d >= cut))
        ck = np.unique(t["o_custkey"].to_numpy())  # per-block distinct
        return pa.table({"key": pa.array(ck, pa.int64())})

    def anti_fold(c: pa.Table, o: pa.Table) -> pa.Table:
        cg = c.select(["key", "nat", "cents"]).to_pandas()
        active = o["key"].to_numpy()
        keep = cg[~cg["key"].isin(pd.unique(active))]
        out = (
            keep.groupby("nat", sort=False)["cents"]
            .agg(["size", "sum"])
            .reset_index()
        )
        return pa.table(
            {
                "nat": pa.array(out["nat"].to_numpy(np.int64), pa.int64()),
                "n_p": pa.array(out["size"].to_numpy(np.int64), pa.int64()),
                "cents_p": pa.array(out["sum"].to_numpy(), pa.float64()),
            }
        )

    folded = copartition(
        [cust.map_batches(c_rows, batch_format="pyarrow"),
         orders.map_batches(o_rows, batch_format="pyarrow")],
        anti_fold,
        pa.schema([("nat", pa.int64()), ("cents", pa.float64())]),
        n_parts,
    )

    nat = pq_.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    name_of = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby("nat", sort=False)[["n_p", "cents_p"]].sum().reset_index()
        )
        out = out.sort_values("nat", kind="mergesort")
        return pd.DataFrame(
            {
                "n_name": out["nat"].map(name_of),
                "numcust": out["n_p"].astype("int64"),
                "totacctbal": round_np(out["cents_p"] / 100.0, 2),
            }
        )

    return folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def dormant_customer_balance_sql(cutoff: str = "2000-01-01") -> str:
    return f"""
WITH st AS (
    SELECT SUM(ROUND(c_acctbal * 100)) AS s, COUNT(*)::DOUBLE AS n
    FROM customer WHERE ROUND(c_acctbal * 100) > 0
)
SELECT n_name, COUNT(*)::BIGINT AS numcust,
       ROUND(SUM(ROUND(c_acctbal * 100)) / 100.0, 2) AS totacctbal
FROM customer
JOIN nation ON c_nationkey = n_nationkey, st
WHERE ROUND(c_acctbal * 100) * st.n > st.s
  AND NOT EXISTS (
      SELECT 1 FROM orders
      WHERE o_custkey = c_custkey
        AND o_orderdate >= TIMESTAMP '{cutoff}'
  )
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q3 shape: shipping-priority top-k — segment-filtered customer gate,
# unshipped-revenue fold per order


def shipping_priority_orders(
    sf_dir: str,
    segment: str = "BUILDING",
    date: str = "1997-01-01",
    k: int = 10,
) -> rd.Dataset:
    """Top-``k`` orders by outstanding revenue: customer in ``segment``,
    order placed BEFORE ``date``, line items shipping AFTER it (TPC-H Q3;
    the reference schema has no o_shippriority, so o_orderpriority is
    reported instead). Two exchanges: segment-filtered customers join
    date-filtered orders on custkey, the (orderkey, odate, opriority)
    stream joins post-date lineitem revenue combiners on orderkey;
    deterministic top-k = (revenue DESC, orderkey ASC) over exact
    integers, per-partition prefilter then one bounded driver fold."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders", "lineitem")

    cut = np.datetime64(date)

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        target_rows_per_block=4096,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": t.filter(pc.equal(t["c_mktsegment"], segment))["c_custkey"]}
        )

    # bloom-prefilter the orders probe to the segment's customers
    # (same measured crossover gate as nation_trade_flows)
    cust_f, gate = _bloom_gated(
        cust.map_batches(c_rows, batch_format="pyarrow"), sf_dir
    )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        target_rows_per_block=4096,
    )

    def o_rows(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy()
        t = t.filter(pa.array(d < cut))
        t = gate.keep(t)
        return pa.table(
            {
                "key": t["o_custkey"],
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_orderdate": t["o_orderdate"],
                "priority": t["o_orderpriority"],
            }
        )

    def merge_custkey(c: pa.Table, o: pa.Table) -> pa.Table:
        og = o.select(
            ["key", "o_orderkey", "o_orderdate", "priority"]
        ).to_pandas()
        cg = c.select(["key"]).to_pandas()
        m = og.merge(cg, on="key", how="inner")
        return pa.table(
            {
                "key": pa.array(m["o_orderkey"].to_numpy(np.int64), pa.int64()),
                "o_orderdate": pa.array(m["o_orderdate"], pa.timestamp("us")),
                "priority": pa.array(m["priority"], pa.string()),
            }
        )

    o_c = copartition(
        [cust_f, orders.map_batches(o_rows, batch_format="pyarrow")],
        merge_custkey,
        pa.schema([("o_orderkey", pa.int64()),
                   ("o_orderdate", pa.timestamp("us")),
                   ("priority", pa.string())]),
        n_parts,
    )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        target_rows_per_block=4096,
    )

    def li_partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy()
        t = t.filter(pa.array(d > cut))
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame({"key": t["l_orderkey"].to_numpy(), "rev": rev})
        out = df.groupby("key", sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "key": pa.array(out["key"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    def merge_orderkey(o: pa.Table, li: pa.Table) -> pa.Table:
        lg = li.select(["key", "rev"]).to_pandas()
        og = o.select(["key", "o_orderdate", "priority"]).to_pandas()
        agg = lg.groupby("key", sort=False)["rev"].sum().reset_index()
        m = og.merge(agg, on="key", how="inner")
        m = m.sort_values(
            ["rev", "key"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pa.Table.from_pandas(m, preserve_index=False)

    folded = copartition(
        [o_c, li.map_batches(li_partial, batch_format="pyarrow")],
        merge_orderkey,
        pa.schema([("o_orderdate", pa.timestamp("us")),
                   ("priority", pa.string()), ("rev", pa.float64())]),
        n_parts,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["rev", "key"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "l_orderkey": df["key"].astype("int64"),
                "revenue": round_np(df["rev"] / 10000.0, 2),
                "o_orderdate": df["o_orderdate"],
                "o_orderpriority": df["priority"],
            }
        )

    out = folded.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("l_orderkey", pa.int64()), ("revenue", pa.float64()),
         ("o_orderdate", pa.timestamp("us")), ("o_orderpriority", pa.string())]
    ))


def shipping_priority_orders_sql(
    segment: str = "BUILDING", date: str = "1997-01-01", k: int = 10
) -> str:
    return f"""
SELECT l_orderkey,
       ROUND(SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
             / 10000.0, 2) AS revenue,
       o_orderdate, o_orderpriority
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{segment}'
  AND o_orderdate < TIMESTAMP '{date}'
  AND l_shipdate  > TIMESTAMP '{date}'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
         DESC, l_orderkey
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# TPC-H Q13 shape: customer order-count distribution — a two-level aggregate
# where the SECOND groupby key is the FIRST aggregate's value


def order_count_distribution(sf_dir: str) -> rd.Dataset:
    """How many customers placed exactly N orders, for every N including 0
    (TPC-H Q13). One custkey exchange: per-block per-custkey order-count
    combiners ∪ bare customer keys; each partition zero-fills its
    customers and emits a per-count distribution PARTIAL, so the second
    aggregate's exchange is |distinct counts| × n_parts rows."""
    from crawler_ray.sources.io import read_parquet_sized

    n_parts = exchange_parts(sf_dir, "customer", "orders")

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        target_rows_per_block=4096,
    )

    def c_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["c_custkey"]})

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        target_rows_per_block=4096,
    )

    def o_partial(t: pa.Table) -> pa.Table:
        ck, cnt = np.unique(t["o_custkey"].to_numpy(), return_counts=True)
        return pa.table(
            {
                "key": pa.array(ck, pa.int64()),
                "n_p": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def fold(c: pa.Table, o: pa.Table) -> pa.Table:
        per_cust = o.to_pandas().groupby("key", sort=False)["n_p"].sum()
        counts = per_cust.reindex(
            c["key"].to_numpy(), fill_value=0
        ).astype(np.int64)
        dist = counts.value_counts()
        return pa.table(
            {
                "c_count": pa.array(dist.index.to_numpy(np.int64), pa.int64()),
                "d_p": pa.array(dist.to_numpy(np.int64), pa.int64()),
            }
        )

    agg = (
        copartition(
            [cust.map_batches(c_rows, batch_format="pyarrow"),
             orders.map_batches(o_partial, batch_format="pyarrow")],
            fold,
            pa.schema([("n_p", pa.int64())]),
            n_parts,
        )
        .groupby("c_count")
        .aggregate(Sum("d_p", alias_name="custdist"))
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "c_count": df["c_count"].astype("int64"),
                "custdist": df["custdist"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )


ORDER_COUNT_DISTRIBUTION_SQL = """
SELECT c_count, COUNT(*)::BIGINT AS custdist
FROM (
    SELECT c_custkey, COUNT(o_orderkey)::BIGINT AS c_count
    FROM customer LEFT JOIN orders ON c_custkey = o_custkey
    GROUP BY c_custkey
) t
GROUP BY c_count
"""


# ---------------------------------------------------------------------------
# TPC-H Q15 shape: top supplier(s) by windowed revenue — aggregate + global
# argmax KEEPING TIES (exact integers make the tie test trustworthy)


def top_revenue_suppliers(
    sf_dir: str, lo: str = "1996-01-01", hi: str = "1996-04-01"
) -> rd.Dataset:
    """Every supplier achieving the MAXIMUM revenue over the ship-date
    window (TPC-H Q15 — the view + WHERE total = MAX(total) shape; exact
    integer revenue makes tie detection deterministic where float sums
    would flap). Per-block (suppkey, rev) combiners → one slim suppkey
    fold (supplier-cardinality exchange) → bounded driver argmax-with-ties
    + broadcast name attach."""
    import pyarrow.parquet as pq_

    from crawler_ray.sources.io import read_parquet_sized

    d_lo, d_hi = np.datetime64(lo), np.datetime64(hi)

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        target_rows_per_block=4096,
    )

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].to_numpy()
        t = t.filter(pa.array((d >= d_lo) & (d < d_hi)))
        rev = np.round(t["l_extendedprice"].to_numpy() * 100.0) * np.round(
            (1.0 - t["l_discount"].to_numpy()) * 100.0
        )
        df = pd.DataFrame({"supp": t["l_suppkey"].to_numpy(), "rev": rev})
        out = df.groupby("supp", sort=False)["rev"].sum().reset_index()
        return pa.table(
            {
                "supp": pa.array(out["supp"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(), pa.float64()),
            }
        )

    agg = li.map_batches(partial, batch_format="pyarrow").groupby(
        "supp"
    ).aggregate(Sum("rev", alias_name="total"))

    sup = pq_.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        best = df["total"].max()
        top = df[df["total"] == best].copy()  # exact ints: safe tie test
        m = top.merge(sup, left_on="supp", right_on="s_suppkey", how="left")
        m = m.sort_values("s_suppkey", kind="mergesort")
        return pd.DataFrame(
            {
                "s_suppkey": m["s_suppkey"].astype("int64"),
                "s_name": m["s_name"],
                "total_revenue": round_np(m["total"] / 10000.0, 2),
            }
        )

    out = agg.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return schema_safe(out, pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()),
         ("total_revenue", pa.float64())]
    ))


def top_revenue_suppliers_sql(lo: str = "1996-01-01", hi: str = "1996-04-01") -> str:
    return f"""
WITH rev AS (
    SELECT l_suppkey,
           SUM(ROUND(l_extendedprice * 100) * ROUND((1 - l_discount) * 100))
               AS total
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{lo}' AND l_shipdate < TIMESTAMP '{hi}'
    GROUP BY 1
)
SELECT s_suppkey, s_name, ROUND(total / 10000.0, 2) AS total_revenue
FROM rev JOIN supplier ON l_suppkey = s_suppkey
WHERE total = (SELECT MAX(total) FROM rev)
"""
