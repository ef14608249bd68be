"""Edge-case tests for the round-3 join/order-statistic operators, on
crafted fixtures the driver testdata can't exercise (its events all
post-date every order, so the as-of search is degenerate there):

- as-of join: interleaved event/order times, date TIES (tie-break must be
  the highest o_orderkey), events before any order (dropped, inner), and
  parallelism invariance (the partition count must not change the answer).
- interval self-join: window boundary semantics (b.ts == a.ts excluded,
  b.ts == a.ts + 1h included), cross-user isolation.
- grouped quantiles: duplicate-heavy values (the histogram path's rank
  arithmetic) vs DuckDB quantile_disc.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry_mod
from crawler_ray.pipelines import joins, relational
from tests.test_conformance import _canon, oracle_con  # noqa: F401

US = 1_000_000


def _write(dirpath, name, df):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   f"{dirpath}/{name}.parquet")


@pytest.fixture(scope="module")
def asof_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("asof")
    base = pd.Timestamp("2024-01-01")
    events = pd.DataFrame(
        {
            "event_id": np.arange(8, dtype=np.int64),
            "user_id": np.array([1, 1, 1, 2, 2, 3, 3, 9], dtype=np.int64),
            "ts": [
                base + pd.Timedelta(days=0, hours=1),   # after u1 order 10
                base + pd.Timedelta(days=5),            # after orders 10,11
                base - pd.Timedelta(days=1),            # BEFORE any u1 order
                base + pd.Timedelta(days=2),            # u2: tie date → max key
                base + pd.Timedelta(days=2, seconds=1),
                base,                                    # u3: exactly AT order ts
                base + pd.Timedelta(days=9),
                base + pd.Timedelta(days=1),            # u9: no orders at all
            ],
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.array([10, 11, 20, 21, 30], dtype=np.int64),
            "o_custkey": np.array([1, 1, 2, 2, 3], dtype=np.int64),
            "o_orderdate": [
                base,
                base + pd.Timedelta(days=3),
                base + pd.Timedelta(days=1),  # u2 TIE: two orders same date
                base + pd.Timedelta(days=1),
                base,
            ],
            "o_totalprice": [100.0, 110.0, 200.0, 210.0, 300.0],
        }
    )
    events["ts"] = events["ts"].astype("datetime64[us]")
    orders["o_orderdate"] = orders["o_orderdate"].astype("datetime64[us]")
    _write(d, "events", events)
    _write(d, "orders", orders)
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')")
    return str(d), con


def _run_sorted(ds, keys):
    return ds.to_pandas().sort_values(keys).reset_index(drop=True)


def test_asof_join_interleaved_and_ties(ray_session, asof_fixture, force_parts):
    d, con = asof_fixture
    force_parts(7)
    got = _run_sorted(joins.events_asof_order_join(d), ["event_id"])
    exp = con.sql(joins.EVENTS_ASOF_SQL).df().sort_values("event_id").reset_index(drop=True)
    exp = exp[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    by_event = got.set_index("event_id")
    # inner semantics: the pre-first-order event and the orderless user drop
    assert 2 not in by_event.index and 7 not in by_event.index
    # tie on o_orderdate resolves to the HIGHEST o_orderkey
    assert by_event.loc[3, "asof_orderkey"] == 21
    # an event exactly AT the order timestamp matches it (<=, backward)
    assert by_event.loc[5, "asof_orderkey"] == 30
    # a later order supersedes an earlier one only once its date passes
    assert by_event.loc[0, "asof_orderkey"] == 10
    assert by_event.loc[1, "asof_orderkey"] == 11


def test_asof_join_parallelism_invariant(ray_session, asof_fixture, force_parts):
    d, _ = asof_fixture
    a = _run_sorted(joins.events_asof_order_join(d), ["event_id"])
    force_parts(7)
    b = _run_sorted(joins.events_asof_order_join(d), ["event_id"])
    pd.testing.assert_frame_equal(a, b)


@pytest.fixture(scope="module")
def window_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("window")
    base = pd.Timestamp("2024-06-01").value // 1000  # us
    rows = [
        # user 1: probe row 0 at t0; rows at t0 (dup ts, excluded), t0+1h
        # (included, boundary), t0+1h+1us (excluded)
        (0, 1, base),
        (1, 1, base),
        (2, 1, base + 3600 * US),
        (3, 1, base + 3600 * US + 1),
        # user 2 inside user 1's window range: must not leak across users
        (4, 2, base + 60 * US),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    _write(d, "events", df)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    return str(d), con


def test_interval_join_boundaries(ray_session, window_fixture, force_parts):
    d, con = window_fixture
    force_parts(7)
    got = _run_sorted(joins.user_events_next_hour(d), ["event_id"])
    exp = con.sql(joins.USER_EVENTS_NEXT_HOUR_SQL).df().sort_values(
        "event_id").reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    n = got.set_index("event_id")["n_next_hour"]
    # same-instant row excluded, boundary row included, +1us beyond excluded,
    # other user's row never counted
    assert n.loc[0] == 1
    assert n.loc[2] == 1  # row 3 sits 1us after row 2 → inside row 2's window
    assert n.loc[4] == 0


@pytest.mark.parametrize("merge_rows", [20_000_000, 0])
def test_quantiles_duplicate_heavy(ray_session, tmp_path, monkeypatch,
                                   merge_rows):
    # a merge bar of 0 rows forces the large-n two-phase value-hash merge
    # path; the default takes the single-exchange unmerged-histogram fast
    # path — both must rank duplicates identically
    monkeypatch.setattr(relational, "QUANTILE_MERGE_ROWS", merge_rows)
    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "l_returnflag": rng.choice(["A", "N", "R"], size=5000),
            "l_extendedprice": rng.integers(1, 40, size=5000) / 2.0,
        }
    )
    _write(tmp_path, "lineitem", df)
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{tmp_path}/lineitem.parquet')"
    )
    got = _run_sorted(
        relational.lineitem_price_quantiles(str(tmp_path)),
        ["l_returnflag"],
    )
    exp = con.sql(relational.LINEITEM_QUANTILES_SQL).df().sort_values(
        "l_returnflag").reset_index(drop=True)[got.columns]
    # quantile_disc returns actual data values: compare EXACTLY
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=0, rtol=0)


def test_rolling_spend_boundaries(ray_session, tmp_path):
    # customers with 1/2/4 orders + equal-date ties (orderkey tie-break)
    import duckdb as _duckdb
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from crawler_ray.pipelines import relational as _rel

    d = pd.Timestamp("2024-01-01")
    rows = [
        (1, 10, d, 1.00),
        (2, 20, d, 2.00), (3, 20, d, 3.00),          # same date -> key order
        (4, 30, d, 1.11), (5, 30, d + pd.Timedelta(days=1), 2.22),
        (6, 30, d + pd.Timedelta(days=2), 4.44),
        (7, 30, d + pd.Timedelta(days=3), 8.88),     # window drops row 4
    ]
    t = _pa.table({
        "o_orderkey": _pa.array([r[0] for r in rows], _pa.int64()),
        "o_custkey": _pa.array([r[1] for r in rows], _pa.int64()),
        "o_orderdate": _pa.array([r[2] for r in rows], _pa.timestamp("us")),
        "o_totalprice": _pa.array([r[3] for r in rows], _pa.float64()),
    })
    _pq.write_table(t, f"{tmp_path}/orders.parquet")
    got = _run_sorted(_rel.customer_rolling_spend(str(tmp_path)), ["o_orderkey"])
    con = _duckdb.connect()
    con.sql(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{tmp_path}/orders.parquet')"
    )
    exp = con.sql(_rel.CUSTOMER_ROLLING_SPEND_SQL).df().sort_values(
        "o_orderkey").reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp)
    assert got["rolling3_spend"].tolist() == [1.0, 2.0, 5.0, 1.11, 3.33, 7.77, 15.54]


def test_customer_order_counts_zero_fill(ray_session):
    """Customers with no orders appear with exact zeros (the LEFT-ness)."""
    import duckdb

    from crawler_ray.pipelines.joins import customer_order_counts

    sf = "/root/testdata/sf0.001"
    out = customer_order_counts(sf).to_pandas()
    n_cust = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf}/customer.parquet')"
    ).fetchone()[0]
    assert len(out) == n_cust
    orderless = duckdb.sql(
        f"""SELECT COUNT(*) FROM read_parquet('{sf}/customer.parquet') c
            WHERE NOT EXISTS (SELECT 1 FROM read_parquet('{sf}/orders.parquet') o
                              WHERE o.o_custkey = c.c_custkey)"""
    ).fetchone()[0]
    zeros = out[out["n_orders"] == 0]
    assert len(zeros) == orderless
    assert (zeros["total_spend"] == 0.0).all()


def test_bloom_semi_join_matches_naive(ray_session):
    """Bloom prefilter must be output-invisible (no false negatives; FPs
    removed by the exact fold): result equals the naive pandas semi join."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.joins import orders_from_event_users
    from tests.conftest import SF_DIR

    got = (
        orders_from_event_users(SF_DIR)
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    users = np.unique(
        pq.read_table(f"{SF_DIR}/events.parquet", columns=["user_id"])[
            "user_id"
        ].to_numpy()
    )
    orders = pq.read_table(
        f"{SF_DIR}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).to_pandas()
    naive = (
        orders[orders.o_custkey.isin(users)]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    assert got.equals(naive)


def test_partitioned_hash_join_matches_pandas(ray_session):
    """The merge fold over a 16-way exchange equals a pandas merge, with
    one hot key holding three quarters of the left rows and a right key
    no left row matches."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    lk = np.concatenate([rng.integers(100, 200, 2000),
                         np.full(6000, 7)]).astype(np.int64)
    left = pd.DataFrame({"k": lk, "lv": np.arange(len(lk), dtype=np.int64)})
    rk = np.concatenate([np.arange(100, 200), [7, 999]]).astype(np.int64)
    right = pd.DataFrame({"k": rk, "rv": rk * 10})
    got = joins.partitioned_hash_join(
        rd.from_pandas(left).repartition(8), rd.from_pandas(right).repartition(4),
        "k", 16,
    ).to_pandas()
    exp = left.merge(right, on="k")

    def norm(df):
        return df.sort_values(["k", "lv"], kind="mergesort").reset_index(
            drop=True)[exp.columns]

    pd.testing.assert_frame_equal(norm(got), norm(exp), check_dtype=False)


def test_bloom_prefilter_on_off_identical(ray_session, monkeypatch):
    """The bloom gate is an exchange-volume optimization only: forced ON
    (a crossover of no rows) vs forced OFF must produce identical rows (no
    false negatives; FPs die in the exact in-partition merge)."""
    sf = "/root/testdata/sf0.001"
    for fn in (
        joins.nation_trade_flows,
        joins.nation_market_share,
        joins.shipping_priority_orders,
    ):
        monkeypatch.setattr(joins, "BLOOM_PROBE_CROSSOVER_ROWS", 0)
        on = fn(sf).to_pandas()
        monkeypatch.setattr(joins, "BLOOM_PROBE_CROSSOVER_ROWS", 1 << 62)
        off = fn(sf).to_pandas()
        cols = sorted(on.columns)
        on = on[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        off = off[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(on, off)


# ---------------------------------------------------------------------------
# the two join-family primitives: copartition and SortedLookup


def test_copartition_zero_row_side(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({"key": pa.array([1, 2, 3], pa.int64()),
                                   "lv": pa.array([10, 20, 30], pa.int64())}))
    empty = rd.from_arrow(pa.table({"key": pa.array([], pa.int64()),
                                    "rv": pa.array([], pa.float64())}))

    def fold(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"key": lt["key"], "lv": lt["lv"],
                         "n_right": pa.array(np.full(lt.num_rows, rt.num_rows))})

    out = joins.copartition(
        [left, empty], fold,
        pa.schema([("lv", pa.int64()), ("rv", pa.float64())]), n_parts=4,
    ).to_pandas().sort_values("key")
    assert out["key"].tolist() == [1, 2, 3]
    assert out["lv"].tolist() == [10, 20, 30]
    assert (out["n_right"] == 0).all()


def test_copartition_key_only_side(ray_session):
    """A side may carry nothing but ``key`` (semi-join evidence): its
    table holds the schema fields as typed all-null columns."""
    import ray.data as rd

    rows = rd.from_arrow(pa.table({"key": np.arange(20, dtype=np.int64),
                                   "v": pa.array(np.arange(20) * 1.5)}))
    evidence = rd.from_arrow(pa.table({"key": pa.array([3, 7, 7, 19], pa.int64())}))

    def semi(rt: pa.Table, et: pa.Table) -> pa.Table:
        assert et.schema.field("v").type == pa.float64()
        assert et["v"].null_count == et.num_rows
        keep = pc.is_in(rt["key"], value_set=et["key"].combine_chunks())
        return rt.filter(keep)

    out = joins.copartition(
        [rows, evidence], semi, pa.schema([("v", pa.float64())]), n_parts=5
    ).to_pandas().sort_values("key")
    assert out["key"].tolist() == [3, 7, 19]
    assert out["v"].tolist() == [4.5, 10.5, 28.5]


def test_copartition_wide_int64_exact(ray_session):
    """Keys and int64 payloads above 2^53 survive the exchange exactly:
    float64 would merge 2^53 and 2^53 + 1."""
    import ray.data as rd

    base = 1 << 53
    lk = np.array([base, base + 1, base + 3, (1 << 62) + 7], np.int64)
    left = rd.from_arrow(pa.table({"key": lk, "big": lk + 1}))
    right = rd.from_arrow(pa.table({"key": lk[[1, 3]],
                                    "tag": pa.array([1, 3], pa.int64())}))
    got = joins.partitioned_hash_join(left, right, "key", 3)
    got = got.to_pandas().sort_values("key")
    assert got["key"].tolist() == [int(base + 1), int((1 << 62) + 7)]
    assert got["big"].tolist() == [int(base + 2), int((1 << 62) + 8)]
    assert got["tag"].tolist() == [1, 3]


def test_copartition_n_parts_invariant(ray_session):
    """Three streams, one fold: the answer is the same at 1 and 7 parts."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    a = rd.from_arrow(pa.table({"key": rng.integers(0, 50, 400),
                                "x": rng.integers(0, 9, 400)})).repartition(4)
    b = rd.from_arrow(pa.table({"key": rng.integers(0, 50, 300),
                                "y": rng.integers(0, 9, 300)})).repartition(3)
    c = rd.from_arrow(pa.table({"key": np.arange(0, 50, 2, dtype=np.int64)}))

    def fold(at: pa.Table, bt: pa.Table, ct: pa.Table) -> pa.Table:
        sx = at.select(["key", "x"]).to_pandas().groupby("key")["x"].sum()
        sy = bt.select(["key", "y"]).to_pandas().groupby("key")["y"].sum()
        keys = ct["key"].to_numpy()
        return pa.table({
            "key": keys,
            "sx": sx.reindex(keys, fill_value=0).to_numpy(np.int64),
            "sy": sy.reindex(keys, fill_value=0).to_numpy(np.int64),
        })

    schema = pa.schema([("x", pa.int64()), ("y", pa.int64())])
    one, seven = (
        joins.copartition([a, b, c], fold, schema, n_parts=n)
        .to_pandas().sort_values("key").reset_index(drop=True)
        for n in (1, 7)
    )
    pd.testing.assert_frame_equal(one, seven)
    assert len(one) == 25 and one["sx"].sum() > 0 and one["sy"].sum() > 0


def test_sorted_lookup_probe(ray_session):
    look = joins.SortedLookup(np.array([30, 10, 20]), np.array([3, 1, 2]))
    hit, val = look.probe(np.array([20, 5, 30, 31]))
    assert hit.tolist() == [True, False, True, False]
    assert val[hit].tolist() == [2, 3]
    # an empty key set misses every probe instead of indexing an empty array
    empty = joins.SortedLookup(np.array([], np.int64), np.array([], np.float64))
    hit, val = empty.probe(np.array([1, 2, 3]))
    assert not hit.any() and len(val) == 3


def test_anti_join_keeps_customer_with_null_payload(ray_session, tmp_path,
                                                    force_parts):
    """Sides split on the exchange's side tag, not on a payload column's
    validity: a customer whose name is NULL is still a customer row, not
    anti-join evidence that removes its own key."""
    _write(tmp_path, "customer", pd.DataFrame({
        "c_custkey": np.array([1, 2, 3], np.int64),
        "c_name": ["a", None, "c"],
        "c_acctbal": [1.0, 2.0, 3.0],
    }))
    _write(tmp_path, "orders", pd.DataFrame({
        "o_custkey": np.array([3], np.int64),
        "o_orderpriority": ["1-URGENT"],
    }))
    force_parts(7)
    got = joins.customers_without_urgent_orders(str(tmp_path))
    got = got.to_pandas().sort_values("c_custkey")
    assert got["c_custkey"].tolist() == [1, 2]
    assert got["c_name"].tolist() == ["a", None]


def _all_to_all_ops(ds) -> list[str]:
    import re

    names = re.findall(r"^Operator \d+ (\S+?):", ds.stats(), re.M)
    return [n for n in names
            if n in ("Sort", "Repartition", "Aggregate", "RandomShuffle")]


@pytest.mark.parametrize("name", [
    "local_supplier_volume", "nation_market_share", "nation_trade_flows",
    "shipping_priority_orders",
])
def test_join_plan_shape_pinned(ray_session, name, force_parts):
    """Each multi-join plan runs two co-partitions and one final
    repartition; a strategy change must show up here. At sf0.001 every
    input fits one read block, so each co-partition is a one-block fold
    with no Sort; forcing 32 parts restores the two sort exchanges."""
    ds = getattr(joins, name)(SF_DIR).materialize()
    assert _all_to_all_ops(ds) == ["Repartition", "Repartition", "Repartition"]
    force_parts(32)
    ds = getattr(joins, name)(SF_DIR).materialize()
    assert _all_to_all_ops(ds) == ["Sort", "Sort", "Repartition"]


def test_sessionize_plan_has_no_sort_within_one_block(ray_session,
                                                      force_parts):
    from crawler_ray.pipelines import events

    assert _all_to_all_ops(events.sessionize(SF_DIR).materialize()) == [
        "Repartition"]
    force_parts(32)
    assert _all_to_all_ops(events.sessionize(SF_DIR).materialize()) == [
        "Sort"]


@pytest.mark.parametrize("name", [
    "daily_active_users", "user_retention", "event_type_transitions",
    "funnel_conversions",
])
def test_events_count_plan_has_no_sort_or_aggregate(ray_session, name):
    """Within one read block the per-pair fold is a one-block repartition
    and its per-partition partials sum in one more ``repartition(1)``
    call: no Sort, and no second Aggregate exchange."""
    from crawler_ray.pipelines import events

    ds = getattr(events, name)(SF_DIR).materialize()
    assert _all_to_all_ops(ds) == ["Repartition", "Repartition"]


def test_join_plan_keeps_sort_exchange_above_one_block(ray_session):
    """sf0.01's lineitem alone is 60,000 rows; with orders and customer the
    multi-join's inputs exceed one read block."""
    sf01 = SF_DIR.replace("sf0.001", "sf0.01")
    ds = joins.local_supplier_volume(sf01).materialize()
    assert _all_to_all_ops(ds) == ["Sort", "Sort", "Repartition"]


def test_exchange_parts_bar_is_one_read_block(tmp_path):
    """Footer rows summed over the tables: 65,536 (one read block) folds in
    one partition, one row more takes the 32-way exchange."""
    from crawler_ray.sources.io import MAX_ROWS_PER_BLOCK

    assert MAX_ROWS_PER_BLOCK == 65_536
    for name, n in (("block", 65_536), ("over", 65_537), ("one", 1)):
        pq.write_table(pa.table({"k": np.zeros(n, np.int8)}),
                       f"{tmp_path}/{name}.parquet")
    assert joins.exchange_parts(str(tmp_path), "block") == 1
    assert joins.exchange_parts(str(tmp_path), "over") == 32
    assert joins.exchange_parts(str(tmp_path), "block", "one") == 32
    assert joins.exchange_parts(str(tmp_path), "one", "one") == 1


def _groupby_sites(path, col: str) -> list[tuple[str, str | None]]:
    """(file:line, enclosing top-level function) of every
    ``groupby(col)`` call in one module."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    sites, stack = [], [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "groupby"
            and any(isinstance(a, ast.Constant) and a.value == col
                    for a in node.args)
        ):
            rel = path.relative_to(path.parent.parent.parent)
            sites.append((f"{rel}:{node.lineno}", func))
        stack.extend((c, func) for c in ast.iter_child_nodes(node))
    return sites


def _pipeline_modules():
    import pathlib

    return sorted(pathlib.Path(joins.__file__).resolve().parent.glob("*.py"))


def test_part_exchanges_go_through_copartition():
    """Every pipeline picks its exchange in one place: a hand-written
    ``groupby("part")`` would bypass the sizing rule."""
    sites = [site for path in _pipeline_modules()
             for site in _groupby_sites(path, "part")]
    bad = sorted(loc for loc, func in sites if func != "copartition")
    assert not bad, f"groupby(\"part\") outside copartition: {bad}"
    assert [func for _, func in sites] == ["copartition"]


# parameter names that would let a caller pick a plan: block and bucket
# counts, one-task crossovers, strategy switches and sort sampling
PLAN_PARAMS = {
    "n_buckets", "n_blocks", "small_edges", "broadcast", "bloom_prefilter",
    "merge_threshold", "n_ranges", "per_block_sample", "walk",
}


def _params(path) -> list[tuple[str, str, str]]:
    """(file:line, function, parameter) of every parameter of every
    function (lambdas included) in one module."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(path.parent.parent.parent)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for x in (*a.posonlyargs, *a.args, *a.kwonlyargs):
                out.append((f"{rel}:{node.lineno}",
                            getattr(node, "name", "<lambda>"), x.arg))
    return out


def test_only_copartition_takes_n_parts():
    """Every plan choice is worked out from the inputs, never passed by a
    caller: no pipeline function but ``copartition`` takes ``n_parts``, none
    takes a ``PLAN_PARAMS`` parameter, and the only all-pairs exchange is
    ``joins.block_pairs`` (no ``groupby("pair")`` anywhere else)."""
    found = [site for path in _pipeline_modules() for site in _params(path)]
    n_parts = [(loc, func) for loc, func, arg in found if arg == "n_parts"]
    bad = sorted(loc for loc, func in n_parts if func != "copartition")
    assert not bad, f"n_parts parameter outside copartition: {bad}"
    assert [func for _, func in n_parts] == ["copartition"]
    plan = sorted(f"{loc} {func}({arg})" for loc, func, arg in found
                  if arg in PLAN_PARAMS)
    assert not plan, f"plan parameters: {plan}"
    pairs = sorted(loc for path in _pipeline_modules()
                   for loc, func in _groupby_sites(path, "pair")
                   if func != "block_pairs")
    assert not pairs, f"groupby(\"pair\") outside block_pairs: {pairs}"


# every oracled query whose exchange goes through copartition and sizes
# itself from its inputs (typo_word_pairs is left out: it has no pairs at
# sf0.001; fuzzy_name_pairs runs the same exchange)
SIZED_QUERIES = [
    "order_lineitem_join_totals", "events_asof_order_join",
    "user_events_next_hour", "customers_without_urgent_orders",
    "customer_order_counts", "orders_from_event_users",
    "customer_order_event_counts", "late_ship_priority_counts",
    "returned_item_report", "local_supplier_volume", "nation_trade_flows",
    "nation_market_share", "large_volume_customers",
    "waiting_supplier_counts", "dormant_customer_balance",
    "shipping_priority_orders", "order_count_distribution",
    "small_qty_part_revenue", "sessionize", "user_activity_streaks",
    "daily_active_users", "event_type_transitions", "user_retention",
    "funnel_conversions",
    # clusters
    "doc_link_distances", "anchor_text_profiles", "fuzzy_name_clusters",
    "near_dup_clusters", "dedup_survivors", "embedding_dedup_clusters",
    "doc_link_pagerank", "doc_link_triangles", "doc_link_kcore",
    # relational
    "top3_orders_per_customer", "first_order_per_customer",
    "customer_rolling_spend", "customer_spend_7d", "customer_order_gaps",
    "orders_above_customer_avg", "customer_priority_history",
    "repeat_customers", "churned_customers", "either_year_customers",
    "part_size_ranks", "part_size_percentiles", "lineitem_price_quantiles",
    # textops
    "doc_benchmark_overlap", "doc_pack_spans", "boilerplate_ngrams",
    "corpus_source_report", "doc_lm_scores", "doc_dsir_weights",
    "fuzzy_name_pairs",
    # dedup
    "exact_dedup_docs", "token_jaccard_pairs", "bigram_jaccard_pairs",
    "substring_span_dedup", "corpus_diff", "snapshot_merge",
    # reports, curation, similarity
    "url_trap_families", "url_canonical_dups", "corpus_curation",
    "training_data_build", "embedding_label_centroids", "hard_negative_pairs",
]


def _to_pandas(result) -> pd.DataFrame:
    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def _exact(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True)


@pytest.mark.parametrize("name", SIZED_QUERIES)
def test_sized_query_matches_oracle_at_any_n_parts(ray_session, oracle_con,
                                                   force_parts, name):
    """The default plan, the one-partition fold and a 7-way exchange give
    the same rows, and those rows are the oracle's. At sf0.001 every
    footer-sized exchange defaults to one partition; one whose input has
    no footer bound defaults to ``EXCHANGE_PARTS``."""
    fn = entry_mod.queries()[name]
    assert joins.exchange_parts(
        SF_DIR, "customer", "orders", "lineitem", "events", "events") == 1
    default = _exact(_to_pandas(fn(SF_DIR)))
    force_parts(1)
    one = _exact(_to_pandas(fn(SF_DIR)))
    force_parts(7)
    seven = _exact(_to_pandas(fn(SF_DIR)))
    pd.testing.assert_frame_equal(default, one)
    pd.testing.assert_frame_equal(one, seven)
    exp = _canon(oracle_con.sql(entry_mod.oracle_sql()[name]).df())
    assert len(exp) == len(one) > 0
    pd.testing.assert_frame_equal(_canon(one), exp, check_dtype=False,
                                  atol=1e-6, rtol=1e-9)


def test_one_block_fold_gets_whole_sides_under_small_block_size(
    ray_session, oracle_con, monkeypatch
):
    """An 8 KiB target_max_block_size splits every read into many small
    blocks, yet the one-partition fold still sees each side whole: the
    fold runs once and both join queries stay oracle-exact."""
    import ray.data as rd
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        8 * 1024)
    rows = pa.table({"key": np.arange(4000, dtype=np.int64) % 97,
                     "v": np.arange(4000, dtype=np.int64)})
    side = rd.from_arrow(rows).repartition(16)
    seen = joins.copartition(
        [side, side],
        lambda a, b: pa.table({"n": [a.num_rows + b.num_rows]}),
        pa.schema([("v", pa.int64())]), 1,
    ).to_pandas()
    assert seen["n"].tolist() == [8000]
    for name in ("local_supplier_volume", "nation_market_share"):
        got = _canon(entry_mod.queries()[name](SF_DIR).to_pandas())
        exp = _canon(oracle_con.sql(entry_mod.oracle_sql()[name]).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      atol=1e-6, rtol=1e-9)


# ------------------------------------------------------------ 2-D skyline


def _write_parts(tmp_path, rows):
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array([r[0] for r in rows], pa.int64()),
                "p_retailprice": pa.array([r[1] for r in rows], pa.float64()),
                "p_size": pa.array([r[2] for r in rows], pa.int32()),
            }
        ),
        f"{tmp_path}/part.parquet",
    )


def test_pareto_skyline_planted(ray_session, tmp_path):
    """Planted frontier with duplicates, an equal-price-worse-size row, an
    equal-size-worse-price row, and an interior point."""
    from crawler_ray.pipelines.relational import pareto_price_size

    rows = [
        (1, 10.0, 5),   # frontier
        (2, 10.0, 5),   # duplicate of a frontier point -> kept too
        (3, 10.0, 4),   # same price, smaller size -> dominated
        (4, 12.0, 5),   # same size, higher price -> dominated
        (5, 12.0, 7),   # frontier
        (6, 11.0, 6),   # frontier (between)
        (7, 15.0, 6),   # interior -> dominated by 6
        (8, 20.0, 9),   # frontier (most expensive, biggest)
    ]
    _write_parts(tmp_path, rows)
    got = pareto_price_size(str(tmp_path)).to_pandas()
    assert sorted(got["p_partkey"]) == [1, 2, 5, 6, 8]
    assert str(got["p_size"].dtype) == "int32"


def test_pareto_skyline_worstcase_antichain(ray_session, tmp_path):
    """Every point on the frontier (price and size both strictly increasing):
    the local prune removes nothing, forcing the global fold to handle the
    full survivor volume — and still return every row exactly once."""
    from crawler_ray.pipelines.relational import pareto_price_size

    n = 5000
    rows = [(i, float(i), i) for i in range(n)]
    _write_parts(tmp_path, rows)
    got = pareto_price_size(str(tmp_path)).to_pandas()
    assert len(got) == n
    assert sorted(got["p_partkey"]) == list(range(n))


# ---------------------------------------------------------------------------
# broadcast-vs-partitioned auto-guard (VERDICT r3 #1): customer scales with
# SF, so the dim-join strategy must switch above a footer-row-count
# crossover. These force BOTH paths on the driver testdata (by patching the
# crossover) and assert identical, oracle-exact results — proving the
# partitioned fallback is a drop-in for the broadcast fast path.


SF_DIR = "/root/testdata/sf0.001"


def _norm(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


@pytest.fixture
def both_dim_paths(monkeypatch, force_parts):
    """``both_dim_paths(fn)`` runs ``fn(SF_DIR)`` with the customer dim
    broadcast, then partitioned as the inputs size it (the one-partition
    fold at sf0.001), then partitioned over a forced 7-way exchange."""

    def run(fn):
        monkeypatch.setattr(relational, "BROADCAST_DIM_CROSSOVER_ROWS", 1 << 62)
        out = [fn(SF_DIR)]
        monkeypatch.setattr(relational, "BROADCAST_DIM_CROSSOVER_ROWS", 0)
        out.append(fn(SF_DIR))
        force_parts(7)
        out.append(fn(SF_DIR))
        return out

    return run


def test_market_segment_revenue_partitioned_path_matches(ray_session,
                                                         both_dim_paths):
    bro, par, par7 = (_norm(ds.to_pandas(), ["c_mktsegment"])
                      for ds in both_dim_paths(relational.market_segment_revenue))
    pd.testing.assert_frame_equal(bro, par)
    pd.testing.assert_frame_equal(bro, par7)
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    ora = _norm(con.execute(relational.MARKET_SEGMENT_SQL).df(),
                ["c_mktsegment"])
    pd.testing.assert_frame_equal(
        par.astype({"n_orders": "int64"}), ora.astype({"n_orders": "int64"}))


def test_revenue_rollup_partitioned_path_matches(ray_session, both_dim_paths):
    bro, par, par7 = (_norm(df, ["region", "nation"])
                      for df in both_dim_paths(relational.revenue_rollup))
    pd.testing.assert_frame_equal(bro, par)
    pd.testing.assert_frame_equal(bro, par7)


def test_revenue_grouping_sets_partitioned_path_matches(ray_session,
                                                        both_dim_paths):
    bro, par, par7 = (_norm(df, ["region", "segment"])
                      for df in both_dim_paths(relational.revenue_grouping_sets))
    pd.testing.assert_frame_equal(bro, par)
    pd.testing.assert_frame_equal(bro, par7)


def test_want_broadcast_crossover(tmp_path, monkeypatch):
    """The gate reads ONLY the parquet footer: below the bar -> broadcast,
    at or above it -> partitioned."""
    small = pd.DataFrame({"k": np.arange(10, dtype=np.int64)})
    pq.write_table(pa.Table.from_pandas(small, preserve_index=False),
                   f"{tmp_path}/small.parquet")
    assert relational._want_broadcast(f"{tmp_path}/small.parquet")
    monkeypatch.setattr(relational, "BROADCAST_DIM_CROSSOVER_ROWS", 10)
    assert not relational._want_broadcast(f"{tmp_path}/small.parquet")
