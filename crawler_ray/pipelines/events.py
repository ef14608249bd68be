"""Stream-shaped pipelines over the ``events`` table.

Ray Data is a batch engine; the reference is batch too (SURVEY.md §2.9), so
windows are expressed over the event log as an ordered, partitioned table:
tumbling windows = groupby a bucketed time key; session windows = per-user
folds over ts-sorted rows (the ordering assumption — events of one user meet
in one fold call — is the documented partitioning contract). Every per-user
or per-pair exchange here is a single-side ``joins.copartition``, sized by
``joins.exchange_parts`` from the events footer: an event log within one
read block folds in one call with no sort exchange. A count's
per-partition partials then sum in one ``repartition(1)`` call
(``_finish_once``), not in a second aggregate exchange.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from crawler_ray.pipelines.joins import copartition, exchange_parts


def _finish_once(partials: rd.Dataset, finish) -> rd.Dataset:
    """Every per-partition partial meets in ONE ``finish`` call: a
    ``repartition(1)`` block, not a second sort-based aggregate exchange.
    The partials are tiny (partitions × groups rows) at any input size."""
    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def _read_events(sf_dir: str, columns: list[str]) -> rd.Dataset:
    from crawler_ray.sources.io import read_parquet_sized

    return read_parquet_sized(
        f"{sf_dir}/events.parquet", columns=columns, target_rows_per_block=4096
    )


def hourly_event_counts(sf_dir: str) -> rd.Dataset:
    """Tumbling 1-hour window per event type. The hour key is computed
    vectorized per batch; the groupby shuffles one row per (hour, type,
    batch) after the in-batch pre-aggregation."""
    ds = _read_events(sf_dir, ["ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        # hour bucket as an INTEGER (hours since epoch) — the human-readable
        # hour string is formatted AFTER aggregation, on thousands of window
        # rows instead of strftime over every event (the measured hot spot)
        hour_i = t["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        # exact integer-cents partial sums (joins.py li_partial pattern): the
        # value column has 2 decimals, so round(value*100) is an exact int64
        # and the distributed sum is associative — no summation-order flips
        # vs the oracle regardless of block split
        cents = np.round(t["value"].to_numpy() * 100.0).astype(np.int64)
        # factorize + bincount: a (hour, type) combine at numpy speed (the
        # pandas multi-key groupby over every event measured ~1s/1M rows).
        # bincount weights are float64 but cents stay < 2^53 — exact.
        code_arr, uniq = pd.factorize(t["event_type"].to_pandas())
        code_arr = code_arr.astype(np.int64)
        comb = hour_i * np.int64(max(len(uniq), 1)) + code_arr
        u, inv = np.unique(comb, return_inverse=True)
        n_events = np.bincount(inv)
        sum_cents = np.bincount(inv, weights=cents).astype(np.int64)
        h = u // max(len(uniq), 1)
        c = u % max(len(uniq), 1)
        et = np.asarray(uniq, dtype=object)[c]
        win_key = np.char.add(
            np.char.add(et.astype(str), "|"), h.astype(str)
        )
        # Arrow out: feeds the window-key groupby shuffle
        return pa.table(
            {"win_key": pa.array(win_key.tolist(), pa.string()),
             "n_events": pa.array(n_events, pa.int64()),
             "sum_cents": pa.array(sum_cents, pa.int64())}
        )

    partial = ds.map_batches(bucket, batch_format="pyarrow")
    agg = partial.groupby("win_key").aggregate(
        Sum("n_events", alias_name="n_events_f"),
        Sum("sum_cents", alias_name="sum_cents_f"),
    )

    def split(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["win_key"].str.split("|", expand=True, regex=False)
        hour = pd.to_datetime(
            parts[1].astype("int64"), unit="h"
        ).dt.strftime("%Y-%m-%d %H:%M:%S")
        return pd.DataFrame(
            {
                "hour": hour,
                "event_type": parts[0],
                "n_events": df["n_events_f"].astype("int64"),
                # cents/100.0 is the nearest double to the 2-decimal value —
                # identical to DuckDB's ROUND canonical representation
                "sum_value": df["sum_cents_f"].astype("int64") / 100.0,
            }
        )

    return agg.map_batches(split, batch_format="pandas")


HOURLY_EVENTS_SQL = """
SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
       event_type,
       COUNT(*)             AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM events
GROUP BY 1, 2
"""


def sessionize(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """Session windows: per-user, a new session starts when the gap since the
    previous event exceeds ``gap_minutes``. Partitioning contract: one user's
    events co-locate (one user-keyed ``copartition``), but users are
    processed per coarse PARTITION with a numpy segment walk — Ray's
    per-group map_groups costs ~ms of pandas overhead per user (the dedup
    pipelines' lesson); sums use exact integer cents (order-independent,
    DuckDB-canonical). An event log within one read block is ONE partition:
    the walk runs once over every event, with no sort exchange."""
    ds = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    gap_ns = np.int64(gap_minutes * 60) * np.int64(10**9)

    def sessions(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "session_id": pa.array([], pa.int64()),
                 "n_events": pa.array([], pa.int64()),
                 "sum_value": pa.array([], pa.float64()),
                 "session_start_epoch": pa.array([], pa.int64())}
            )
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        ts = t["ts"].to_numpy().astype("datetime64[ns]").astype(np.int64)
        cents = np.round(t["value"].to_numpy() * 100.0).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, cents = uid[order], ts[order], cents[order]
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        brk = new_user | np.r_[False, (ts[1:] - ts[:-1]) > gap_ns]
        gid = np.cumsum(brk)  # global session index, 1-based
        sess_start = np.flatnonzero(brk)
        # per-user session_id: global index minus the user's first, plus 1
        user_start = np.flatnonzero(new_user)
        # for each session start, the gid at its user's first session
        user_of_sess = np.searchsorted(user_start, sess_start, side="right") - 1
        first_gid = gid[user_start][user_of_sess]
        sid = gid[sess_start] - first_gid + 1
        sess_end = np.r_[sess_start[1:], n]
        return pa.table(
            {
                "user_id": pa.array(uid[sess_start], pa.int64()),
                "session_id": pa.array(sid, pa.int64()),
                "n_events": pa.array(sess_end - sess_start, pa.int64()),
                "sum_value": pa.array(
                    np.add.reduceat(cents, sess_start) / 100.0, pa.float64()
                ),
                # sessions are ts-sorted, so the start row holds the min ts
                "session_start_epoch": pa.array(
                    ts[sess_start] // 10**9, pa.int64()
                ),
            }
        )

    return copartition(
        [ds],
        sessions,
        pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us")),
                   ("value", pa.float64())]),
        exchange_parts(sf_dir, "events"),
        key="user_id",
    )


SESSIONIZE_SQL = """
WITH marked AS (
    SELECT user_id, event_id, ts, value,
           CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                     OR LAG(ts) OVER w IS NULL
                THEN 1 ELSE 0 END AS brk
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sessions AS (
    SELECT user_id, ts, value,
           SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
    FROM marked
)
SELECT user_id, session_id::BIGINT AS session_id, COUNT(*) AS n_events,
       ROUND(SUM(value), 2) AS sum_value,
       (epoch_us(MIN(ts)) // 1000000)::BIGINT AS session_start_epoch
FROM sessions
GROUP BY user_id, session_id
"""


def props_key_sum(sf_dir: str) -> rd.Dataset:
    """JSON property extraction (the reference's tolerant ``TryGetProperty``
    parsing, ``ShiweijiaProduct.cs:249-263``) + grouped sum."""
    ds = _read_events(sf_dir, ["event_type", "props"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized extraction of the flat {"k": N} payload (tolerant like
        # the reference's TryGetProperty: missing key / null props -> 0);
        # fall back to per-row json.loads only for rows the regex misses
        ks = pd.to_numeric(
            df["props"].str.extract(r'"k"\s*:\s*(-?\d+)(?![.\d])', expand=False),
            errors="coerce",
        )
        # the regex is only sound for flat objects with no quoting tricks:
        # nested JSON could match an inner "k" first, and a '"k": N' sequence
        # can hide inside an ESCAPED-QUOTE string value of a flat object
        # (e.g. {"s": "\\"k\\": 5", "k": 7}) — route multi-object strings,
        # strings containing escaped quotes, and multi-'"k"' strings to the
        # JSON parser (round-2 advice)
        unsafe = (
            (df["props"].str.count(r"\{") > 1)
            | df["props"].str.contains("\\\\", regex=False)
            | (df["props"].str.count('"k"') > 1)
        )
        miss = (ks.isna() | unsafe) & df["props"].notna() & (df["props"] != "")
        if miss.any():
            ks[miss] = df.loc[miss, "props"].map(
                lambda s: json.loads(s).get("k", 0)
            )
        out = (
            df.assign(k=ks.fillna(0).astype("int64"))
            .groupby("event_type", sort=True)["k"]
            .sum()
            .reset_index(name="k_sum")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partial = ds.map_batches(extract, batch_format="pandas")
    return (
        partial.groupby("event_type")
        .aggregate(Sum("k_sum", alias_name="k_sum"))
        .map_batches(
            lambda df: df.assign(k_sum=df["k_sum"].astype("int64")),
            batch_format="pandas",
        )
    )


PROPS_KEY_SUM_SQL = """
SELECT event_type,
       SUM(json_extract_string(props, '$.k')::BIGINT)::BIGINT AS k_sum
FROM events
GROUP BY event_type
"""


def top_users_by_value(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Grouped sum → global top-k (pre-aggregate per batch, tiny sort)."""
    ds = _read_events(sf_dir, ["user_id", "value"])

    def partial(df: pd.DataFrame) -> pa.Table:
        # integer-cents partial sums: exact + order-independent (see sessions)
        cents = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        out = (
            df.assign(cents=cents)
            .groupby("user_id", sort=False)["cents"]
            .agg(["sum", "size"])
            .reset_index()
        )
        out.columns = ["user_id", "sum_p", "n_p"]
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("user_id")
        .aggregate(Sum("sum_p", alias_name="total_value_f"),
                   Sum("n_p", alias_name="n_events_f"))
        .map_batches(
            lambda df: pd.DataFrame(
                {
                    "user_id": df["user_id"].astype("int64"),
                    "total_value": df["total_value_f"].astype("int64") / 100.0,
                    "n_events": df["n_events_f"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
    )
    return agg.sort(["total_value", "user_id"], descending=[True, False]).limit(k)


TOP_USERS_SQL = """
SELECT user_id, ROUND(SUM(value), 2) AS total_value, COUNT(*) AS n_events
FROM events
GROUP BY user_id
ORDER BY SUM(value) DESC, user_id
LIMIT 10
"""


def distinct_users_hll(sf_dir: str, p: int = 12) -> rd.Dataset:
    """Approximate distinct users per event type via mergeable HLL sketches:
    one serialized sketch per (event_type, batch) inside map_batches, merged
    in a tiny final stage — the shuffle moves sketches, never user ids
    (the distinct-count pattern that survives 100 TB). Rows-only driver
    check (approximate); accuracy asserted vs exact in tests."""
    from crawler_ray.functions.sketches import HyperLogLog

    ds = _read_events(sf_dir, ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            h = HyperLogLog(p)
            h.add(g["user_id"].astype(str).tolist())
            rows.append({"event_type": et, "sketch": h.serialize()})
        return pd.DataFrame(rows)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        acc = HyperLogLog.deserialize(g["sketch"].iloc[0])
        for s in g["sketch"].iloc[1:]:
            acc.merge(HyperLogLog.deserialize(s))
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "approx_distinct_users": [int(round(acc.estimate()))],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(combine, batch_format="pandas")
    )


def event_value_quantiles(
    sf_dir: str, qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99), k: int = 256
) -> rd.Dataset:
    """Approximate per-event-type value quantiles via mergeable MRL
    sketches (``functions/sketches.py MRLQuantile``) — the third member of
    the sketch-aggregate family beside HLL (distinct) and Misra-Gries
    (frequent items). One deterministic sketch per (event_type, batch)
    inside map_batches; the exchange moves O(k log(n/k)) floats per
    (type, batch), never the values. Deterministic compaction -> re-runs
    and resumes return bit-identical estimates (rows-only driver check;
    rank-error accuracy asserted vs exact quantiles in tests)."""
    from crawler_ray.functions.sketches import MRLQuantile

    ds = _read_events(sf_dir, ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            s = MRLQuantile(k).add(g["value"].to_numpy(dtype=np.float64))
            rows.append({"event_type": et, "sketch": s.serialize()})
        return pd.DataFrame(rows)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        acc = MRLQuantile.deserialize(g["sketch"].iloc[0])
        for s in g["sketch"].iloc[1:]:
            acc = acc.merge(MRLQuantile.deserialize(s))
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]] * len(qs),
                "q": np.asarray(qs, np.float64),
                "value_est": [acc.quantile(q) for q in qs],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(combine, batch_format="pandas")
    )


def user_event_counts_cms(
    sf_dir: str, width: int = 4096, depth: int = 4, top: int = 50
) -> rd.Dataset:
    """Approximate per-USER event counts via mergeable Count-Min sketches —
    the point-frequency member of the sketch family (HLL distinct, MG
    frequent items, MRL quantiles). One sketch per batch in map_batches;
    merge = elementwise counter sum in one call over a ``repartition(1)``
    block (the fold is global at any size, so it needs no exchange
    sizing); only the fixed-size grids reach the fold, never user ids. The
    ``top`` highest-traffic users (found with the existing Misra-Gries
    pass) are then point-queried against the merged sketch. Rows-only
    driver check (approximate); the one-sided error bound (est >= true,
    est <= true + eps*N) is asserted vs exact in tests."""
    import numpy as np

    from crawler_ray.functions.sketches import CountMin, MisraGries

    ds = _read_events(sf_dir, ["user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cm = CountMin(width, depth)
        mg = MisraGries(4 * top)
        ids = df["user_id"].astype(str).to_numpy()
        vals, cnts = np.unique(ids, return_counts=True)
        cm.add(vals, cnts)
        mg.add(vals, cnts)
        import pickle

        return pd.DataFrame(
            {"cm": [cm.serialize()], "mg": [pickle.dumps(mg.items())]}
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        import pickle

        cm = CountMin.deserialize(g["cm"].iloc[0])
        mg = MisraGries(4 * top)
        mg.add(list(pickle.loads(g["mg"].iloc[0]).keys()),
               list(pickle.loads(g["mg"].iloc[0]).values()))
        for cm_b, mg_b in zip(g["cm"].iloc[1:], g["mg"].iloc[1:]):
            cm = cm.merge(CountMin.deserialize(cm_b))
            items = pickle.loads(mg_b)
            mg.add(list(items.keys()), list(items.values()))
        cand = sorted(
            mg.items().items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]
        users = np.array([u for u, _ in cand], dtype=object)
        est = cm.estimate(users)
        order = np.lexsort((users.astype(str), -est))
        return pd.DataFrame(
            {"user_id": users[order],
             "approx_events": est[order].astype(np.int64)}
        )

    # a global fold: every partial meets in ONE call, whatever the size
    return _finish_once(ds.map_batches(partial, batch_format="pandas"), combine)


def sliding_event_counts(
    sf_dir: str, window_min: int = 60, slide_min: int = 15
) -> rd.Dataset:
    """SLIDING (overlapping) windows per event type — the hopping-window
    verb `hourly_event_counts`'s tumbling windows can't express. An event
    belongs to ``window/slide`` consecutive windows; the naive plan emits
    that many rows PER EVENT into the shuffle. This one combines per
    (slide-bucket, type) IN BATCH first (the factorize+bincount kernel),
    then expands only the combined partials to their member windows — the
    exchange moves O(slide_buckets × types × replication) rows,
    independent of event count. Window = [start, start + window); both
    engines share the integer slide-bucket arithmetic, so values are
    hash-exact."""
    assert window_min % slide_min == 0
    repl = window_min // slide_min
    slide_s = slide_min * 60
    ds = _read_events(sf_dir, ["ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        sec = t["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        sb = sec // slide_s
        cents = np.round(t["value"].to_numpy() * 100.0).astype(np.int64)
        code_arr, uniq = pd.factorize(t["event_type"].to_pandas())
        code_arr = code_arr.astype(np.int64)
        comb = sb * np.int64(max(len(uniq), 1)) + code_arr
        u, inv = np.unique(comb, return_inverse=True)
        n_events = np.bincount(inv)
        sum_cents = np.bincount(inv, weights=cents).astype(np.int64)
        b = u // max(len(uniq), 1)
        c = u % max(len(uniq), 1)
        et = np.asarray(uniq, dtype=object)[c]
        # expand combined partials to their member windows (start bucket
        # = slide bucket - k): replication happens AFTER the combine
        ks = np.arange(repl, dtype=np.int64)
        win_b = (b[:, None] - ks[None, :]).ravel()
        et_r = np.repeat(et, repl)
        n_r = np.repeat(n_events, repl)
        s_r = np.repeat(sum_cents, repl)
        win_key = np.char.add(
            np.char.add(et_r.astype(str), "|"), win_b.astype(str)
        )
        return pa.table(
            {"win_key": pa.array(win_key.tolist(), pa.string()),
             "n_events": pa.array(n_r, pa.int64()),
             "sum_cents": pa.array(s_r, pa.int64())}
        )

    partial = ds.map_batches(bucket, batch_format="pyarrow")
    agg = partial.groupby("win_key").aggregate(
        Sum("n_events", alias_name="n_events_f"),
        Sum("sum_cents", alias_name="sum_cents_f"),
    )

    def split(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["win_key"].str.split("|", expand=True, regex=False)
        ws = pd.to_datetime(
            parts[1].astype("int64") * slide_s, unit="s"
        ).dt.strftime("%Y-%m-%d %H:%M:%S")
        return pd.DataFrame(
            {"window_start": ws,
             "event_type": parts[0],
             "n_events": df["n_events_f"].astype("int64"),
             "sum_value": df["sum_cents_f"].astype("int64") / 100.0}
        )

    return agg.map_batches(split, batch_format="pandas")


def sliding_event_counts_sql(window_min: int = 60, slide_min: int = 15) -> str:
    repl = window_min // slide_min
    slide_s = slide_min * 60
    ks = ", ".join(f"({k})" for k in range(repl))
    return f"""
SELECT strftime(to_timestamp(
           (date_diff('second', TIMESTAMP '1970-01-01', ts) // {slide_s} - k.k)
           * {slide_s}), '%Y-%m-%d %H:%M:%S') AS window_start,
       event_type,
       COUNT(*)::BIGINT AS n_events,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) / 100.0 AS sum_value
FROM events, (VALUES {ks}) k(k)
GROUP BY 1, 2
"""


def _assert_pack_envelope(
    hi: np.ndarray, lo: np.ndarray, hi_name: str, lo_name: str, who: str
) -> None:
    """Guard a (hi << 32 | lo) int64 pack: a negative value in either word
    (e.g. a negative user_id or a pre-1970 timestamp's day) borrows across
    the 32-bit boundary and silently corrupts the packed key, and a hi
    word >= 2^31 overflows int64 (same envelope-assert style as
    bm25_search's fixed-point scores)."""
    if len(lo) and (
        lo.min() < 0
        or hi.min() < 0
        or lo.max() >= (1 << 32)
        or hi.max() >= (1 << 31)
    ):
        raise ValueError(
            f"{who} pack requires 0 <= {lo_name} < 2^32 "
            f"and 0 <= {hi_name} < 2^31"
        )


def _assert_day_uid_envelope(day: np.ndarray, uid: np.ndarray, who: str) -> None:
    """(day << 32 | user_id) variant — day is the high word."""
    _assert_pack_envelope(day, uid, "day(ts)", "user_id", who)


def daily_active_users(sf_dir: str) -> rd.Dataset:
    """Per-day EXACT distinct user count — the COUNT(DISTINCT) verb as a
    distributed presence fold: each batch emits its unique (day, user)
    pairs, ONE pair-keyed ``copartition`` co-locates every copy of a pair
    so the in-task dedup is globally exact, and the per-partition per-day
    counts (partitions × days rows) sum in one ``repartition(1)`` call. The
    approximate twin is ``distinct_users_hll``; this is the exact path
    whose exchange moves distinct pairs, not events."""
    ds = _read_events(sf_dir, ["ts", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        uid = t["user_id"].to_numpy()
        _assert_day_uid_envelope(day, uid, "daily_active_users")
        comb = np.unique(day * np.int64(1 << 32) + uid)
        d = comb >> np.int64(32)
        u = comb & np.int64((1 << 32) - 1)
        return pa.table(
            {"key": pa.array(d * np.int64(1000003) + u, pa.int64()),
             "day": pa.array(d, pa.int64()),
             "user_id": pa.array(u, pa.int64())}
        )

    def count_fold(g: pa.Table) -> pa.Table:
        df = g.select(["day", "user_id"]).to_pandas().drop_duplicates()
        c = df.groupby("day", sort=False).size()
        return pa.table(
            {"day": pa.array(c.index.to_numpy(np.int64), pa.int64()),
             "n": pa.array(c.to_numpy(np.int64), pa.int64())}
        )

    agg = copartition(
        [ds.map_batches(pairs, batch_format="pyarrow")],
        count_fold,
        pa.schema([("day", pa.int64()), ("user_id", pa.int64())]),
        exchange_parts(sf_dir, "events"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("day")["n"].sum()
        day = pd.to_datetime(n.index.to_numpy(np.int64), unit="D").strftime(
            "%Y-%m-%d"
        )
        return pd.DataFrame(
            {"day": day, "active_users": n.to_numpy(np.int64)}
        )

    return _finish_once(agg, finish)


DAILY_ACTIVE_USERS_SQL = """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       COUNT(DISTINCT user_id)::BIGINT AS active_users
FROM events
GROUP BY 1
"""


def event_type_transitions(sf_dir: str) -> rd.Dataset:
    """Per-user consecutive event-type transition counts (the Markov /
    funnel matrix): for each user's events in (ts, event_id) order, count
    (from_type → to_type) pairs corpus-wide. Sequence analytics needs
    per-key ORDER, so the shape is one user-keyed ``copartition`` + in-task
    mergesort + shifted vectorized compare; the per-partition (from, to)
    combiner means the final sum sees O(partitions × types²) rows, not
    one per transition."""
    ds = _read_events(sf_dir, ["ts", "user_id", "event_id", "event_type"])

    def fold(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        same_user = df["user_id"].to_numpy()[1:] == df["user_id"].to_numpy()[:-1]
        frm = df["event_type"].to_numpy()[:-1][same_user]
        to = df["event_type"].to_numpy()[1:][same_user]
        out = (
            pd.DataFrame({"from_type": frm, "to_type": to})
            .groupby(["from_type", "to_type"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return out

    agg = copartition(
        [ds],
        fold,
        pa.schema([("ts", pa.timestamp("us")), ("event_id", pa.int64()),
                   ("event_type", pa.string())]),
        exchange_parts(sf_dir, "events"),
        key="user_id",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["from_type", "to_type"], as_index=False)["n"].sum()
        return out.astype({"n": "int64"})

    return _finish_once(agg, finish)


EVENT_TYPE_TRANSITIONS_SQL = """
WITH s AS (
    SELECT user_id, event_type,
           LEAD(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS nxt
    FROM events
)
SELECT event_type AS from_type, nxt AS to_type, COUNT(*)::BIGINT AS n
FROM s WHERE nxt IS NOT NULL
GROUP BY 1, 2
"""


def user_retention(sf_dir: str) -> rd.Dataset:
    """Next-day retention cohorts: for each day D, how many of its active
    users were also active on D+1 (plus the cohort size) — the metric
    every engagement pipeline derives from the raw event stream. Built on
    the same exact presence-pair fold as ``daily_active_users``: each
    distinct (day, user) emits itself AND a (day−1, user) \"came back\"
    marker; one pair-keyed ``copartition`` co-locates a user's two adjacent
    days, the in-task fold counts cohort and retained exactly, and the
    per-day re-aggregate is tiny."""
    ds = _read_events(sf_dir, ["ts", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        uid = t["user_id"].to_numpy()
        _assert_day_uid_envelope(day, uid, "user_retention")
        comb = np.unique(day * np.int64(1 << 32) + uid)
        d = comb >> np.int64(32)
        u = comb & np.int64((1 << 32) - 1)
        # side 0: active on day d; side 1: marker for day d-1's cohort
        dd = np.concatenate([d, d - 1])
        uu = np.concatenate([u, u])
        side = np.r_[np.zeros(len(d), np.int64), np.ones(len(d), np.int64)]
        return pa.table(
            {"key": pa.array(dd * np.int64(1000003) + uu, pa.int64()),
             "day": pa.array(dd, pa.int64()),
             "user_id": pa.array(uu, pa.int64()),
             "side": pa.array(side, pa.int64())}
        )

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().drop_duplicates(["day", "user_id", "side"])
        p = df.pivot_table(
            index=["day", "user_id"], columns="side", values="key",
            aggfunc="size", fill_value=0,
        ).reindex(columns=[0, 1], fill_value=0)
        active = p[0] > 0
        retained = active & (p[1] > 0)
        by_day = pd.DataFrame(
            {"cohort": active.groupby(level=0).sum(),
             "retained": retained.groupby(level=0).sum()}
        ).reset_index()
        return pa.table(
            {"day": pa.array(by_day["day"].to_numpy(np.int64), pa.int64()),
             "cohort_p": pa.array(by_day["cohort"].to_numpy(np.int64), pa.int64()),
             "retained_p": pa.array(
                 by_day["retained"].to_numpy(np.int64), pa.int64())}
        )

    agg = copartition(
        [ds.map_batches(pairs, batch_format="pyarrow")],
        fold,
        pa.schema([("day", pa.int64()), ("user_id", pa.int64()),
                   ("side", pa.int64())]),
        # pairs sends up to two rows per event: count the events twice
        exchange_parts(sf_dir, "events", "events"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("day")[["cohort_p", "retained_p"]].sum()
        s = s[s["cohort_p"] > 0]
        day = pd.to_datetime(s.index.to_numpy(np.int64), unit="D").strftime(
            "%Y-%m-%d"
        )
        return pd.DataFrame(
            {"day": day,
             "cohort": s["cohort_p"].to_numpy(np.int64),
             "retained_next_day": s["retained_p"].to_numpy(np.int64)}
        )

    return _finish_once(agg, finish)


USER_RETENTION_SQL = """
WITH act AS (
    SELECT DISTINCT CAST(date_trunc('day', ts) AS DATE) AS d, user_id
    FROM events
)
SELECT strftime(a.d, '%Y-%m-%d') AS day,
       COUNT(*)::BIGINT AS cohort,
       COUNT(b.user_id)::BIGINT AS retained_next_day
FROM act a LEFT JOIN act b
    ON b.user_id = a.user_id AND b.d = a.d + INTERVAL 1 DAY
GROUP BY 1
"""


def late_event_audit(
    sf_dir: str, delay_s: int = 1800, jitter_s: int = 3600, seed: int = 7
) -> rd.Dataset:
    """Watermark / late-arrival audit — the streaming-semantics verb over
    a replayed stream: each event ARRIVES at ``ts + jitter`` where jitter
    is a deterministic md5-derived displacement in [−jitter_s, +jitter_s)
    (the stand-in for network delay), the watermark is the running max
    EVENT time over everything that arrived earlier, and an event is late
    when its own time sits more than ``delay_s`` behind that watermark.

    This is a distributed PREFIX-MAX SCAN (the running-max twin of
    ``doc_pack_spans``'s prefix sum): arrival times range-partition into
    ordered DAY buckets (jitter is bounded, so bucket count is bounded by
    the stream's span); pass 1 folds per-bucket max event times into
    exclusive cross-bucket prefix maxima on the driver (O(days) rows),
    pass 2 computes the in-bucket EXCLUSIVE cummax seeded with its
    bucket's prefix — two passes over a slim materialized key table.

    Output: (event_id, late ∈ {0,1}, lateness_s) — exact, hash-oracled
    vs the ROWS UNBOUNDED PRECEDING window twin."""
    import hashlib

    ds = _read_events(sf_dir, ["event_id", "ts"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["event_id"].to_numpy()
        tsec = df["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        jit = np.array(
            [int(hashlib.md5(f"{seed}:{i}".encode()).hexdigest()[:8], 16)
             % (2 * jitter_s) for i in ids],
            dtype=np.int64,
        ) - jitter_s
        arr = tsec + jit
        return pd.DataFrame(
            {"event_id": ids, "tsec": tsec, "arr": arr,
             "bucket": arr // 86400}
        )

    keys = ds.map_batches(keyed, batch_format="pandas").materialize()

    def bucket_max(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", sort=False)["tsec"].max()
        return pd.DataFrame(
            {"bucket": g.index.to_numpy(np.int64),
             "mx": g.to_numpy(np.int64)}
        )

    from ray.data.aggregate import Max

    bm = (
        keys.map_batches(bucket_max, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Max("mx", alias_name="mx"))
        .to_pandas()
    )
    # exclusive cross-bucket prefix max (bucket order IS arrival order)
    NEG = np.int64(-(1 << 62))
    if bm.empty:  # empty stream: no buckets, audit() never fires
        seeds: dict = {}
    else:
        bm = bm.sort_values("bucket")
        pref = np.r_[
            NEG, np.maximum.accumulate(bm["mx"].to_numpy(np.int64))[:-1]
        ]
        seeds = dict(zip(bm["bucket"].to_numpy(np.int64), pref))

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["arr", "event_id"], kind="mergesort")
        tsec = g["tsec"].to_numpy(np.int64)
        seed0 = seeds[int(g["bucket"].iloc[0])]
        prior = np.r_[NEG, np.maximum.accumulate(tsec)[:-1]]
        prior = np.maximum(prior, seed0)
        lateness = np.maximum(prior - np.int64(delay_s) - tsec, 0)
        return pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(np.int64),
             "late": (lateness > 0).astype(np.int64),
             "lateness_s": lateness}
        )

    return keys.groupby("bucket").map_groups(audit, batch_format="pandas")


def late_event_audit_sql(
    delay_s: int = 1800, jitter_s: int = 3600, seed: int = 7
) -> str:
    return f"""
WITH s AS (
    SELECT event_id,
           date_diff('second', TIMESTAMP '1970-01-01', ts) AS tsec,
           date_diff('second', TIMESTAMP '1970-01-01', ts)
               + CAST(concat('0x', substr(
                     md5('{seed}' || ':' || CAST(event_id AS VARCHAR)), 1, 8))
                     AS BIGINT) % {2 * jitter_s} - {jitter_s} AS arr
    FROM events
),
m AS (
    SELECT event_id, tsec,
           MAX(tsec) OVER (
               ORDER BY arr, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
    FROM s
)
SELECT event_id,
       (CASE WHEN wm IS NOT NULL AND wm - {delay_s} - tsec > 0
             THEN 1 ELSE 0 END)::BIGINT AS late,
       (CASE WHEN wm IS NOT NULL AND wm - {delay_s} - tsec > 0
             THEN wm - {delay_s} - tsec ELSE 0 END)::BIGINT AS lateness_s
FROM m
"""


# ---------------------------------------------------------------------------
# funnel analysis — ordered multi-step conversion (product-analytics verb)


def funnel_conversions(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
) -> rd.Dataset:
    """How many users complete each prefix of an ordered event funnel:
    t₀ = first ``steps[0]``, t₁ = first ``steps[1]`` AFTER t₀ (strictly),
    and so on — the classic conversion-funnel verb. Partitioning contract
    (the ``sessionize`` one): a user's chain is computed where the user's
    events co-reside, so ONE user-keyed ``copartition`` of the step-filtered
    events resolves every chain; only |steps| × partitions count partials
    leave."""
    ds = _read_events(sf_dir, ["user_id", "ts", "event_type"])
    step_idx = {s: i for i, s in enumerate(steps)}

    def rows(t: pa.Table) -> pa.Table:
        keep = pa.compute.is_in(
            t["event_type"], value_set=pa.array(list(steps))
        )
        t = t.filter(keep)
        uid = t["user_id"].to_numpy()
        sidx = (
            t["event_type"].to_pandas().map(step_idx).to_numpy(np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "step": pa.array(sidx, pa.int64()),
                "ts_us": pa.array(
                    t["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def chain(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        counts = np.zeros(len(steps), np.int64)
        # step 0: per-user min; step k: per-user min of step-k ts strictly
        # after the user's step-(k-1) time — all vectorized group folds
        cur = (
            df[df["step"] == 0].groupby("user_id", sort=False)["ts_us"].min()
        )
        counts[0] = len(cur)
        for k in range(1, len(steps)):
            # merge on an explicit COLUMN frame: a left_on+right_index merge
            # can name the result's index 'user_id' while the column also
            # exists, making the next groupby raise "both an index level and
            # a column label" (surfaced by the hot-key skew corpus)
            prev_df = cur.rename("prev").rename_axis("user_id").reset_index()
            sk = df[df["step"] == k].merge(prev_df, on="user_id")
            sk = sk[sk["ts_us"] > sk["prev"]]
            cur = sk.groupby("user_id", sort=False)["ts_us"].min()
            counts[k] = len(cur)
        return pa.table(
            {
                "step": pa.array(np.arange(len(steps), dtype=np.int64)),
                "n_p": pa.array(counts, pa.int64()),
            }
        )

    agg = copartition(
        [ds.map_batches(rows, batch_format="pyarrow")],
        chain,
        pa.schema([("step", pa.int64()), ("ts_us", pa.int64())]),
        exchange_parts(sf_dir, "events"),
        key="user_id",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("step")["n_p"].sum()
        return pd.DataFrame(
            {
                "step_idx": n.index.to_numpy(np.int64),
                "step": [steps[i] for i in n.index],
                "n_users": n.to_numpy(np.int64),
            }
        )

    return _finish_once(agg, finish)


def funnel_conversions_sql(
    steps: tuple[str, ...] = ("view", "click", "purchase"),
) -> str:
    ctes, prev = [], None
    for i, s in enumerate(steps):
        if i == 0:
            ctes.append(
                f"s0 AS (SELECT user_id, MIN(ts) AS t FROM events "
                f"WHERE event_type = '{s}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"s{i} AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e "
                f"JOIN s{i-1} p USING (user_id) "
                f"WHERE e.event_type = '{s}' AND e.ts > p.t GROUP BY 1)"
            )
        prev = i
    unions = "\nUNION ALL ".join(
        f"SELECT {i}::BIGINT AS step_idx, '{s}' AS step, "
        f"COUNT(*)::BIGINT AS n_users FROM s{i}"
        for i, s in enumerate(steps)
    )
    return "WITH " + ",\n".join(ctes) + "\n" + unions


# ---------------------------------------------------------------------------
# gap-filled time spine — dense tumbling windows with zero fill


def hourly_event_counts_dense(sf_dir: str) -> rd.Dataset:
    """Hourly TOTAL event counts over the FULL [first, last] hour range,
    zeros included — the "date spine" verb (dashboards and window models
    need the gaps, a plain groupby silently drops them). The corpus-sized
    work is the same hour-partial combiner as ``hourly_event_counts``; the
    spine materializes only at the finish over the AGGREGATED hour rows
    (bounded by the time range, not the event count), and its [min, max]
    comes from that aggregate itself — no extra scan."""
    ds = _read_events(sf_dir, ["ts"])

    def bucket(t: pa.Table) -> pa.Table:
        hour_i = t["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        u, c = np.unique(hour_i, return_counts=True)
        return pa.table(
            {"hour_i": pa.array(u, pa.int64()),
             "n_p": pa.array(c.astype(np.int64), pa.int64())}
        )

    agg = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("hour_i")
        .aggregate(Sum("n_p", alias_name="n_events"))
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        lo, hi = int(df["hour_i"].min()), int(df["hour_i"].max())
        spine = pd.DataFrame({"hour_i": np.arange(lo, hi + 1, dtype=np.int64)})
        m = spine.merge(df, on="hour_i", how="left")
        hour_s = pd.to_datetime(
            m["hour_i"].to_numpy().astype("datetime64[h]")
        ).strftime("%Y-%m-%d %H:%M:%S")
        return pd.DataFrame(
            {
                "hour": hour_s,
                "n_events": m["n_events"].fillna(0).astype("int64"),
            }
        )

    return agg.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


HOURLY_DENSE_SQL = """
WITH c AS (
    SELECT date_trunc('hour', ts) AS h, COUNT(*)::BIGINT AS n
    FROM events GROUP BY 1
),
spine AS (
    SELECT unnest(generate_series(
        (SELECT MIN(h) FROM c), (SELECT MAX(h) FROM c), INTERVAL 1 HOUR
    )) AS h
)
SELECT strftime(spine.h, '%Y-%m-%d %H:%M:%S') AS hour,
       COALESCE(c.n, 0)::BIGINT AS n_events
FROM spine LEFT JOIN c USING (h)
"""


def event_spike_hours(sf_dir: str, window: int = 3, factor: int = 2) -> rd.Dataset:
    """Traffic-spike detection per event type: an hour is a SPIKE when its
    count more than ``factor``-times exceeds the mean of the previous
    ``window`` hours — the streaming anomaly verb (rate-limit alarms, crawl
    storm detection) expressed over the dense hourly spine so silent hours
    count as zeros instead of being dropped.

    The comparison is pure integer cross-multiplication
    (``n * window > factor * prev_sum``), so the flag is exact — no float
    mean, no accumulation-order sensitivity.

    Scale shape: the corpus-sized work is the in-batch (type, hour) combiner;
    ONE exchange moves O(types × hours) aggregated partials; the per-type
    spine + trailing-window fold runs in ``map_groups`` over rows bounded by
    the TIME RANGE, never the event count. Only hours with a full trailing
    window (row number > ``window`` in the type's spine) are emitted,
    matching the SQL twin's ``rn > window`` filter.
    """
    ds = _read_events(sf_dir, ["ts", "event_type"])

    def bucket(t: pa.Table) -> pa.Table:
        hour_i = t["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        df = pd.DataFrame(
            {"event_type": t["event_type"].to_pandas(), "hour_i": hour_i}
        )
        g = (
            df.groupby(["event_type", "hour_i"], sort=False)
            .size()
            .reset_index(name="n_p")
        )
        g["n_p"] = g["n_p"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour_i"])
        .aggregate(Sum("n_p", alias_name="n_events"))
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"].iloc[0]
        lo, hi = int(df["hour_i"].min()), int(df["hour_i"].max())
        spine = np.arange(lo, hi + 1, dtype=np.int64)
        n = np.zeros(len(spine), np.int64)
        n[df["hour_i"].to_numpy() - lo] = df["n_events"].to_numpy()
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(n)])
        idx = np.arange(window, len(spine))  # full trailing window only
        prev = cs[idx] - cs[idx - window]
        kept = n[idx]
        hour_s = pd.to_datetime(spine[idx].astype("datetime64[h]")).strftime(
            "%Y-%m-%d %H:%M:%S"
        )
        return pd.DataFrame(
            {
                "event_type": np.repeat(np.array(et, dtype=object), len(idx)),
                "hour": hour_s,
                "n_events": kept,
                "prev_sum": prev,
                "is_spike": (kept * window) > (factor * prev),
            }
        )

    return agg.groupby("event_type").map_groups(finish, batch_format="pandas")


def event_spike_hours_sql(window: int = 3, factor: int = 2) -> str:
    return f"""
WITH c AS (
    SELECT event_type, date_trunc('hour', ts) AS h, COUNT(*)::BIGINT AS n
    FROM events GROUP BY 1, 2
),
bounds AS (
    SELECT event_type, MIN(h) AS lo, MAX(h) AS hi FROM c GROUP BY 1
),
spine AS (
    SELECT event_type, unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS h
    FROM bounds
),
d AS (
    SELECT s.event_type, s.h, COALESCE(c.n, 0)::BIGINT AS n
    FROM spine s LEFT JOIN c ON c.event_type = s.event_type AND c.h = s.h
),
w AS (
    SELECT event_type, h, n,
           COALESCE(SUM(n) OVER (PARTITION BY event_type ORDER BY h
                ROWS BETWEEN {window} PRECEDING AND 1 PRECEDING), 0)::BIGINT
               AS prev_sum,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h) AS rn
    FROM d
)
SELECT event_type, strftime(h, '%Y-%m-%d %H:%M:%S') AS hour, n AS n_events,
       prev_sum, (n * {window}) > ({factor} * prev_sum) AS is_spike
FROM w WHERE rn > {window}
"""


def user_activity_streaks(sf_dir: str) -> rd.Dataset:
    """Gaps-and-islands: each user's LONGEST run of consecutive active
    days (ties broken by earliest start) — the classic streak verb every
    engagement warehouse computes with the ``day - ROW_NUMBER()`` trick.

    Scale shape: per-batch exact partial distinct of (user, day) packed
    into one int64 (the ``daily_active_users`` combiner), then ONE
    user-keyed ``copartition`` so a user's full day set co-resides, then a pure
    numpy segment walk per partition: sort the packed keys (user major,
    day minor for free), island boundaries where the user changes or the
    day step != 1, run lengths by boundary diff, and a lexicographic
    (len desc, start asc) argmax per user via one more packed sort. No
    per-user Python loop; the exchange moves one row per distinct
    (user, day) — already combiner-reduced."""
    ds = _read_events(sf_dir, ["ts", "user_id"])

    def pack(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        uid = t["user_id"].to_numpy()
        # uid is the HIGH word here (streaks sort user-major, day-minor)
        _assert_pack_envelope(
            uid, day, "user_id", "day(ts)", "user_activity_streaks"
        )
        comb = np.unique(uid * np.int64(1 << 32) + day)
        u = comb >> np.int64(32)
        return pa.table({"key": pa.array(u, pa.int64()),
                         "comb": pa.array(comb, pa.int64())})

    def walk(g: pa.Table) -> pa.Table:
        comb = np.unique(g["comb"].to_numpy())  # sorted: user major, day minor
        if len(comb) == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "best_streak": pa.array([], pa.int64()),
                 "streak_start": pa.array([], pa.int64())}
            )
        u = comb >> np.int64(32)
        d = comb & np.int64((1 << 32) - 1)
        # island starts: first row, user change, or day gap
        start = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)]
        idx = np.flatnonzero(start)
        runs_u = u[idx]
        runs_d0 = d[idx]
        lens = np.diff(np.r_[idx, len(comb)]).astype(np.int64)
        # per-user best: sort by (user asc, len desc, start asc) and take
        # the first row of each user segment
        order = np.lexsort((runs_d0, -lens, runs_u))
        first = np.r_[True, runs_u[order][1:] != runs_u[order][:-1]]
        sel = order[first]
        return pa.table(
            {"user_id": pa.array(runs_u[sel], pa.int64()),
             "best_streak": pa.array(lens[sel], pa.int64()),
             "streak_start": pa.array(runs_d0[sel], pa.int64())}
        )

    return copartition(
        [ds.map_batches(pack, batch_format="pyarrow")],
        walk,
        pa.schema([("comb", pa.int64())]),
        exchange_parts(sf_dir, "events"),
    )


USER_ACTIVITY_STREAKS_SQL = """
WITH days AS (
    SELECT DISTINCT user_id, (CAST(ts AS DATE) - DATE '1970-01-01') AS day
    FROM events
),
isl AS (
    SELECT user_id, day,
           day - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY day) AS grp
    FROM days
),
runs AS (
    SELECT user_id, MIN(day) AS start_day, COUNT(*) AS len
    FROM isl GROUP BY user_id, grp
),
best AS (
    SELECT user_id, len, start_day,
           ROW_NUMBER() OVER (
               PARTITION BY user_id ORDER BY len DESC, start_day ASC) AS rn
    FROM runs
)
SELECT user_id, len::BIGINT AS best_streak, start_day::BIGINT AS streak_start
FROM best WHERE rn = 1
"""
