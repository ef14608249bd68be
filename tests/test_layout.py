"""Z-order clustered layout: pruning is real, results are layout-invariant."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from crawler_ray.pipelines import layout
from tests._refs import layout_prune_stats

SF_DIR = "/root/testdata/sf0.001"


def _brute(u_lo, u_hi, t0, t1) -> pd.DataFrame:
    df = pq.read_table(
        f"{SF_DIR}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    ).to_pandas()
    ts = df["ts"].astype("datetime64[us]")
    keep = (
        (df["user_id"] >= u_lo)
        & (df["user_id"] <= u_hi)
        & (ts >= np.datetime64(t0, "us"))
        & (ts < np.datetime64(t1, "us"))
    )
    return df[keep].sort_values("event_id").reset_index(drop=True)


def test_zorder_box_query_exact_and_pruned(ray_session, tmp_path):
    root = str(tmp_path / "z")
    meta = layout.write_zorder_events(SF_DIR, root, grid_bits=3)
    assert meta["n_buckets"] == 64

    u_lo, u_hi, t0, t1 = 2, 6, "2024-01-08", "2024-01-15"
    hit, total = layout_prune_stats(
        root, u_lo, u_hi, layout._iso_us(t0), layout._iso_us(t1)
    )
    # the box covers a strict minority of the grid — pruning must be real
    assert 0 < hit < total / 2, (hit, total)

    # the pruned read returns EXACTLY the brute-force filter rows
    import crawler_ray.pipelines.layout as lay

    # point the cached-layout path at the freshly built root
    got = (
        lay.events_user_window(SF_DIR, u_lo, u_hi, t0, t1)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = _brute(u_lo, u_hi, t0, t1)
    assert len(got) == len(exp) > 0
    pd.testing.assert_frame_equal(
        got.astype({"ts": "datetime64[us]"}),
        exp.astype({"ts": "datetime64[us]"}),
        check_dtype=False,
    )


def test_zorder_no_false_negatives_full_box(ray_session, tmp_path):
    # a box covering EVERYTHING must return every row (layout loses nothing)
    got = layout.events_user_window(
        SF_DIR, 0, 10**9, "2000-01-01", "2100-01-01"
    )
    n_all = pq.read_metadata(f"{SF_DIR}/events.parquet").num_rows
    assert got.count() == n_all


def test_zorder_box_outside_bounds_empty(ray_session):
    got = layout.events_user_window(
        SF_DIR, 10**8, 10**9, "1990-01-01", "1990-02-01"
    )
    assert got.count() == 0


def test_candidate_buckets_cover_rows(tmp_path):
    # every row's bucket is a candidate of any box containing the row
    meta = {"grid_bits": 3, "u_lo": 0, "u_hi": 100, "t_lo": 0, "t_hi": 1000}
    rng = np.random.default_rng(7)
    u = rng.integers(0, 101, 500)
    t = rng.integers(0, 1001, 500)
    z = layout._morton2(
        layout._cell(u, 0, 100, 8), layout._cell(t, 0, 1000, 8), 3
    )
    for u_lo, u_hi, t_lo, t_hi in [(10, 40, 100, 500), (0, 100, 0, 1001),
                                   (50, 50, 999, 1000)]:
        cands = set(layout.candidate_buckets(meta, u_lo, u_hi, t_lo, t_hi))
        inside = (u >= u_lo) & (u <= u_hi) & (t >= t_lo) & (t < t_hi)
        assert set(z[inside].tolist()) <= cands


def test_derived_cache_invalidated_when_source_changes(ray_session, tmp_path):
    """Stale-artifact regression (found by the oracle fuzzer): a derived
    index cached under a key that ignores the SOURCE data silently answers
    from the old corpus when the file at the same path is rewritten.
    cache keys now include source_fingerprint (mtime+size), so mutating
    events.parquet in place must yield fresh query results."""
    import os
    import shutil

    d = tmp_path / "sf_mut"
    d.mkdir()
    for t in ("events",):
        shutil.copy(f"{SF_DIR}/{t}.parquet", str(d / f"{t}.parquet"))

    before = (
        layout.events_user_window(str(d), 0, 10**9, "2000-01-01", "2100-01-01")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(before) > 0

    # rewrite the source in place: flip every event_type
    ev = pq.read_table(str(d / "events.parquet")).to_pandas()
    ev["event_type"] = "mutated"
    import pyarrow as pa

    pq.write_table(
        pa.Table.from_pandas(ev, preserve_index=False),
        str(d / "events.parquet"),
    )
    # ensure the mtime actually moves even on coarse filesystems
    os.utime(str(d / "events.parquet"))

    after = (
        layout.events_user_window(str(d), 0, 10**9, "2000-01-01", "2100-01-01")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(after) == len(before)
    assert (after["event_type"] == "mutated").all(), (
        "stale z-order layout served: source changed but cache key did not"
    )
