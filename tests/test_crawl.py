"""End-to-end crawl tests (SURVEY.md §5 items 2–3): golden reproducibility,
parallelism-invariance, PSNR/caption invariants, kill/resume."""

import contextlib

import numpy as np
import pytest

from crawler_ray.functions.codecs import decode_image, psnr
from crawler_ray.pipelines.crawl import CrawlConfig, CrawlDriver, read_images_table


def _run(site_dir, out, **over):
    kw = dict(quota_per_host=50, fetch_concurrency=2, num_seen_shards=2)
    kw.update(over)
    cfg = CrawlConfig(fixture_dir=site_dir, out_dir=str(out), **kw)
    drv = CrawlDriver(cfg)
    res = drv.run()
    drv.shutdown()  # release state actors (fractional-CPU reservations)
    return drv, res


@contextlib.contextmanager
def _no_exchanges(monkeypatch):
    """Make the all-to-all Dataset operators raise on the driver, where
    every plan is built: a crawl that runs under this plans no exchange."""
    import ray.data as rd

    def refuse(name):
        def _raise(self, *args, **kwargs):
            raise AssertionError(f"Dataset.{name} called during the crawl")

        return _raise

    with monkeypatch.context() as m:
        for name in ("groupby", "sort", "repartition"):
            m.setattr(rd.Dataset, name, refuse(name))
        yield


@pytest.fixture(scope="module")
def crawl_once(ray_session, small_site, tmp_path_factory):
    site, site_dir = small_site
    out = tmp_path_factory.mktemp("crawl_out")
    drv, res = _run(site_dir, out)
    return site, site_dir, out, drv, res


def test_crawl_matches_ground_truth(crawl_once):
    import glob

    from crawler_ray.vendor import minilance

    site, _, out, drv, res = crawl_once
    # final URL-seen set == BFS-reachable robots-allowed URL set
    assert res.pages_fetched == len(site.expected_seen)
    imgs = read_images_table(str(out))
    assert imgs.equals(site.expected_images)  # bit-identical images table
    # every image part is a minilance dataset; nothing is written as parquet
    parts = glob.glob(str(out / "images" / "round_*" / "part-*"))
    assert parts and all(minilance.is_dataset(p) for p in parts)
    assert not glob.glob(str(out / "images" / "round_*" / "*.parquet"))


def test_image_row_invariants(crawl_once):
    site, _, out, *_ = crawl_once
    imgs = read_images_table(str(out)).to_pylist()
    assert imgs, "no images crawled"
    for r in imgs[:25]:
        px = decode_image(r["bytes"], r["fmt"])
        assert px.shape == (r["h"], r["w"], 3)
        # re-decode equals itself; lossy codecs satisfied PSNR at encode time
        assert psnr(px, px) == float("inf")
        assert isinstance(r["caption"], str) and r["caption"]


def test_crawl_parallelism_invariant(ray_session, small_site, tmp_path_factory):
    """North rule: identical final state across parallelism levels (stand-in
    for N vs 4N nodes: different actor-pool sizes + batch sizes)."""
    site, site_dir = small_site
    out_a = tmp_path_factory.mktemp("par_a")
    out_b = tmp_path_factory.mktemp("par_b")
    _, res_a = _run(site_dir, out_a, fetch_concurrency=1, batch_size=16)
    _, res_b = _run(site_dir, out_b, fetch_concurrency=4, batch_size=256)
    assert res_a.pages_fetched == res_b.pages_fetched
    assert res_a.seen_size == res_b.seen_size
    assert read_images_table(str(out_a)).equals(read_images_table(str(out_b)))
    # brand first-wins upsert is content-deterministic regardless of which
    # parallel discoverer "wins" the seen-set race
    assert _read_entity_records(out_a, "brands") == _read_entity_records(out_b, "brands")


def _read_entity_records(out_dir, table: str) -> list[str]:
    import os

    from crawler_ray.sources.io import read_parts_table

    tbl = read_parts_table(os.path.join(str(out_dir), "tables", table))
    return sorted(tbl["record"].to_pylist()) if tbl is not None else []


def test_brands_table_first_wins(crawl_once):
    """J1 parity: one brand row per distinct (host, brand name), ever."""
    import json

    site, _, out, drv, res = crawl_once
    brands = _read_entity_records(out, "brands")
    assert brands, "site products carry brand names — brands table must exist"
    recs = [json.loads(b) for b in brands]
    keys = [(r["host"], r["brand_name"]) for r in recs]
    assert len(keys) == len(set(keys))  # first-wins: no duplicate brand rows
    # every product's brand appears in the brands table
    prod_brands = {
        (json.loads(p)["host"], json.loads(p)["brand_name"])
        for p in _read_entity_records(out, "products")
        if json.loads(p)["brand_name"]
    }
    assert prod_brands == set(keys)


def test_crawl_quota_splits_hot_host(ray_session, small_site, tmp_path_factory):
    """A tiny per-host quota forces backlog splitting across extra rounds but
    must reach the same final state (hot-host skew handling)."""
    site, site_dir = small_site
    out = tmp_path_factory.mktemp("quota")
    _, res = _run(site_dir, out, quota_per_host=7)
    assert res.pages_fetched == len(site.expected_seen)
    assert res.rounds > 5  # strictly more rounds than the unthrottled crawl
    assert read_images_table(str(out)).equals(site.expected_images)


def test_kill_resume(ray_session, small_site, tmp_path_factory):
    """North rule: kill mid-crawl, resume from checkpoint, identical output."""
    site, site_dir = small_site
    out = tmp_path_factory.mktemp("resume")
    # run only rounds 0..1, then abandon the driver (simulated kill)
    cfg = CrawlConfig(fixture_dir=site_dir, out_dir=str(out), quota_per_host=50,
                      fetch_concurrency=2, num_seen_shards=2)
    drv1 = CrawlDriver(cfg)
    drv1.run(stop_after_round=1)
    drv1.shutdown()
    partial = read_images_table(str(out))
    assert partial.num_rows < site.expected_images.num_rows  # genuinely mid-run

    # fresh driver (fresh seen-set actors) resumes from the checkpoint
    drv2 = CrawlDriver(cfg)
    res = drv2.run(resume=True)
    drv2.shutdown()
    assert res.pages_fetched == len(site.expected_seen) - 0  # totals preserved
    assert read_images_table(str(out)).equals(site.expected_images)


def test_round_retry_after_task_failure(ray_session, small_site,
                                        tmp_path_factory):
    """Recovery unit is the ROUND: a stage task that dies mid-round (after
    sibling tasks have already mutated the seen-set and written sink parts)
    must NOT be retried at the Ray task level — the whole round rolls back
    to the last complete checkpoint (pristine state for round 0) and
    re-runs, producing bit-identical golden output. With retries exhausted
    the failure surfaces instead of silently dropping rows."""
    import os

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("roundretry")
    marker = str(out / "poison_once")
    cfg = CrawlConfig(
        fixture_dir=site_dir, out_dir=str(out), quota_per_host=50,
        fetch_concurrency=2, num_seen_shards=2, fail_once_marker=marker,
    )
    drv = CrawlDriver(cfg)
    res = drv.run()
    drv.shutdown()
    assert os.path.exists(marker)  # the injected failure actually fired
    assert res.pages_fetched == len(site.expected_seen)
    assert read_images_table(str(out)).equals(site.expected_images)

    # retries exhausted -> loud failure, not silent row loss
    out2 = tmp_path_factory.mktemp("roundretry0")
    cfg2 = CrawlConfig(
        fixture_dir=site_dir, out_dir=str(out2), quota_per_host=50,
        fetch_concurrency=2, num_seen_shards=2,
        fail_once_marker=str(out2 / "poison"), round_retries=0,
    )
    drv2 = CrawlDriver(cfg2)
    with pytest.raises(Exception):
        drv2.run()
    drv2.shutdown()


def test_resume_without_complete_checkpoint_prunes_partials(
    ray_session, small_site, tmp_path_factory
):
    """A crash during round 0 leaves partial sink parts but no complete
    checkpoint; resume must prune them before re-running — part names are
    content-derived from batch composition, so a re-run at a different
    width would otherwise leave duplicate rows beside the new parts."""
    import shutil

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("r0crash")
    cfg = CrawlConfig(fixture_dir=site_dir, out_dir=str(out),
                      quota_per_host=50, fetch_concurrency=2,
                      num_seen_shards=2)
    drv1 = CrawlDriver(cfg)
    drv1.run(stop_after_round=1)
    drv1.shutdown()
    # demote BOTH rounds to "crashed before any complete checkpoint":
    # markers gone, but image/table parts already on disk
    import glob
    import os

    for m in glob.glob(os.path.join(str(out), "round_*", "_COMPLETE")):
        os.remove(m)
    assert read_images_table(str(out)).num_rows > 0  # partials present

    drv2 = CrawlDriver(CrawlConfig(
        fixture_dir=site_dir, out_dir=str(out), quota_per_host=50,
        fetch_concurrency=4, num_seen_shards=2, batch_size=256,  # new width
    ))
    res = drv2.run(resume=True)
    drv2.shutdown()
    assert res.pages_fetched == len(site.expected_seen)
    # no duplicated rows from the crashed attempt's differently-named parts
    assert read_images_table(str(out)).equals(site.expected_images)
    shutil.rmtree(str(out), ignore_errors=True)


_SINK_NAMES = ("images", "categories", "products", "brands", "errors",
               "pages", "frontier")


def _sink_rows(sinks) -> dict:
    from crawler_ray.sources.io import part_rows

    return {name: part_rows(d) for name, d in sinks.items()}


def test_corrupt_image_payload_dead_lettered(tmp_path):
    """A 200-status image whose decode raises must land in dead letters
    (status 422) — not silently vanish from both the images table and the
    error accounting. The good image of the same batch reaches the images
    sink."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.functions.codecs import encode_png
    from crawler_ray.sources.io import read_parts_table
    from crawler_ray.stages.process import STAT_SCHEMA, CrawlProcessStage

    class FakeSeen:
        """Every key is new."""

        def check_and_insert_async(self, keys):
            return len(keys)

        @staticmethod
        def gather(pending):
            return np.zeros(pending, dtype=bool)

    good = encode_png(np.zeros((4, 4, 3), dtype=np.uint8))
    urls = ["http://h/img/ok.png", "http://h/img/bad.png"]
    pq.write_table(pa.table({
        "url": urls,
        "payload": pa.array([good, b"\x89PNG truncated-garbage"], pa.binary()),
        "status": pa.array([200, 200], pa.int32()),
    }), str(tmp_path / "pages.parquet"))
    stage = CrawlProcessStage(str(tmp_path / "pages.parquet"), [], FakeSeen(), {})
    stage.sinks = {n: str(tmp_path / n) for n in _SINK_NAMES}
    batch = pa.table({
        "url": urls,
        "host": ["h", "h"],
        "kind": ["image", "image"],
        "depth": pa.array([0, 0], pa.int32()),
        "priority": [0.0, 0.0],
        "seed_id": ["s", "s"],
        "caption": ["a", "b"],
    })
    stats = stage(batch)
    assert stats.schema.equals(STAT_SCHEMA)
    assert sorted(stats.to_pylist(), key=lambda r: r["row_type"]) == [
        {"row_type": "error_stat", "host": "h", "kind": "image", "status": 1},
        {"row_type": "image_stat", "host": "", "kind": "image", "status": 1},
    ]
    imgs = read_parts_table(stage.sinks["images"])
    assert imgs["caption"].to_pylist() == ["a"]  # good row kept
    errs = read_parts_table(stage.sinks["errors"]).to_pylist()
    assert errs == [{"url": "http://h/img/bad.png", "host": "h",
                     "kind": "image", "seed_id": "s", "status": 422,
                     "attempt": 0}]
    assert _sink_rows(stage.sinks) == {
        "images": 1, "categories": 0, "products": 0, "brands": 0,
        "errors": 1, "pages": 0, "frontier": 0,
    }


def test_round_fn_returns_stat_rows_and_sinks_every_class(
        ray_session, small_site, tmp_path):
    """One round_fn call over a fixture group: the output is exactly the
    four-column stat schema, every row class of the group lands in its
    sink, and each sink holds as many rows as its stat rows count."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from crawler_ray.stages.process import STAT_SCHEMA, make_round_fn
    from crawler_ray.state.seen import SeenSet

    site, _ = small_site
    pages = site.pages
    n = pages.num_rows
    # every page of the site as one host-complete group; distinct
    # priorities make the per-host selection mix kinds
    group = pa.table({
        "url": pages["url"],
        "host": pages["host"],
        "kind": pages["kind"],
        "depth": pa.array(np.zeros(n, np.int32)),
        "priority": pa.array((np.arange(n) * 7919 % n).astype(np.float64)),
        "seed_id": pa.array(["s"] * n),
        "caption": pa.array(["c"] * n),
    })
    quota = 30
    seen = SeenSet.create(2, 1 << 12)
    args = ray.put((ray.put(pages.select(["url", "payload", "status"])),
                    [], seen, {}, 3, None, "synthetic", None))
    sinks = {name: str(tmp_path / name) for name in _SINK_NAMES}
    round_fn = make_round_fn(args, quota, 16, False, sinks, buckets=4)
    try:
        out = round_fn(group)
    finally:
        for shard in seen.shards:
            ray.kill(shard)
    assert out.schema.equals(STAT_SCHEMA)

    def count(row_type):
        m = pc.equal(out["row_type"], row_type)
        return pc.sum(out.filter(m)["status"]).as_py() or 0

    per_host = pages.group_by("host").aggregate([([], "count_all")])
    selected = sum(min(quota, c) for c in per_host["count_all"].to_pylist())
    assert count("sel_stat") == selected
    assert count("backlog_stat") == n - selected > 0
    rows = _sink_rows(sinks)
    assert rows == {
        "images": count("image_stat"),
        "categories": count("category_stat"),
        "products": count("product_stat"),
        "brands": count("brand_stat"),
        "errors": count("error_stat"),
        "pages": count("page_stat"),
        "frontier": count("succ_stat") + count("backlog_stat"),
    }
    assert all(rows.values()), rows


def test_every_crawl_config_field_is_read():
    """Every ``CrawlConfig`` field is read as ``cfg.<name>`` somewhere in
    the package: an option no code reads is a knob that does nothing."""
    import ast
    import dataclasses
    import pathlib

    import crawler_ray
    from crawler_ray.pipelines.crawl import CrawlConfig

    # big_seed_threshold: nothing reads it, but perfbench/workloads.py
    # still passes it; it goes with the next change to the benchmark
    allowed = {"big_seed_threshold"}
    read = set()
    for path in pathlib.Path(crawler_ray.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                (isinstance(node.value, ast.Name) and node.value.id == "cfg")
                or (isinstance(node.value, ast.Attribute)
                    and node.value.attr == "cfg")
            ):
                read.add(node.attr)
    fields = {f.name for f in dataclasses.fields(CrawlConfig)}
    assert sorted(fields - read - allowed) == []
    # a listed field that code reads again must leave the list
    assert allowed <= fields - read


def test_error_pages_dead_lettered(crawl_once):
    import os

    import pyarrow.parquet as pq

    from crawler_ray.sources.io import read_parts_table

    site, _, out, drv, res = crawl_once
    err_root = os.path.join(str(out), "errors")
    n_500 = site.pages.to_pandas().query("status != 200").shape[0]
    if n_500 == 0:
        pytest.skip("fixture generated no error pages")
    assert res.errors > 0
    tbl = read_parts_table(err_root)
    assert tbl is not None and tbl.num_rows == res.errors


def test_entity_tables_written(crawl_once):
    import json
    import os

    import pyarrow.parquet as pq

    from crawler_ray.sources.io import read_parts_table

    site, _, out, *_ = crawl_once
    cat_root = os.path.join(str(out), "tables", "categories")
    assert os.path.isdir(cat_root)
    cats = read_parts_table(cat_root).to_pylist()
    recs = [json.loads(c["record"]) for c in cats]
    # adjacency-list tree: every non-root parent exists
    ids = {r["id"] for r in recs}
    for r in recs:
        if r["parent_id"] is not None:
            assert r["parent_id"] in ids


def test_frontier_never_driver_resident(crawl_once):
    """VERDICT round-1 #5: between rounds the frontier exists only as the
    checkpoint's per-round parquet dir (plus object-store blocks inside an
    execution); the driver holds paths + counters. Asserts (a) the crawl
    module has no driver-side selection helper wired in, (b) every round's
    checkpointed frontier row count equals lineage successors + backlog."""
    import os

    import pyarrow.parquet as pq

    from crawler_ray.pipelines import crawl as crawl_mod

    assert not hasattr(crawl_mod, "split_selected")
    site, _, out, drv, res = crawl_once
    for key, lin in drv.lineage.items():
        if not key.startswith("round_"):
            continue
        from crawler_ray.sources.io import read_parts_table

        rnd = int(key.split("_")[1])
        fdir = drv.ckpt.frontier_dir(rnd)
        tbl = read_parts_table(fdir) if os.path.isdir(fdir) else None
        rows = tbl.num_rows if tbl is not None else 0
        assert rows == lin["successors"] + lin["backlog"], key


def _spy_seed_staging(monkeypatch) -> list:
    """Record every call of the round-0 seed-staging pass."""
    from crawler_ray.pipelines import crawl as crawl_mod

    staged = []
    stage = crawl_mod._stage_seed_frontier
    monkeypatch.setattr(crawl_mod, "_stage_seed_frontier",
                        lambda *a: staged.append(a) or stage(*a))
    return staged


def test_big_seed_streaming_path_equivalence(ray_session, tmp_path_factory,
                                             monkeypatch):
    """Round 0 reads seeds.parquet directly when the quota is at least the
    seed count (the ingest/scaling headline: balanced blocks, no staging
    pass), and stages the seeds into host buckets otherwise. A quota equal
    to the largest per-host seed count stages them yet still selects every
    seed, so both sources must give the BIT-IDENTICAL images table — with
    no exchange either way, at one read group (400 seeds) and several
    (1,200)."""
    import os

    import pyarrow.parquet as pq

    from crawler_ray.pipelines import crawl as crawl_mod
    from crawler_ray.sources.synthetic import generate_image_frontier

    staged = _spy_seed_staging(monkeypatch)
    synth = {"seed": 42, "img_sizes": [16], "robots_frac": 0.0}
    for n_seeds in (400, 1200):
        fix = tmp_path_factory.mktemp(f"bigseed_fix{n_seeds}")
        seeds = generate_image_frontier(n_seeds, n_hosts=8, img_sizes=(16,))
        pq.write_table(seeds, str(fix / "seeds.parquet"))
        (fix / "robots.json").write_text("{}")
        hosts = crawl_mod._seed_batch_to_frontier(seeds)["host"]
        top_host = max(c["counts"] for c in hosts.value_counts().to_pylist())
        assert top_host < n_seeds

        out_a = tmp_path_factory.mktemp("bigseed_a")
        staged.clear()
        with _no_exchanges(monkeypatch):
            _, res_a = _run(str(fix), out_a, quota_per_host=10**9,
                            synth_images=synth)
        assert len(staged) == 0  # direct seed read
        out_b = tmp_path_factory.mktemp("bigseed_b")
        with _no_exchanges(monkeypatch):
            _, res_b = _run(str(fix), out_b, quota_per_host=top_host,
                            synth_images=synth)
        assert len(staged) == 1  # staged seed buckets
        assert not os.path.exists(out_b / "round_0000" / "seeds")  # cleaned
        n_distinct = len(set(seeds["url"].to_pylist()))  # planted dup URLs
        assert res_a.rounds == 1 and res_a.pages_fetched == n_distinct
        assert res_a.pages_fetched == res_b.pages_fetched
        assert res_a.images_written == res_b.images_written > 0
        a = read_images_table(str(out_a))
        b = read_images_table(str(out_b))
        assert a.equals(b)


@pytest.mark.parametrize("quota_per_host", [50_000, 0])
def test_empty_seed_list_crawls_nothing(ray_session, small_site, tmp_path,
                                        monkeypatch, quota_per_host):
    """A 0-row seeds.parquet is a crawl with nothing to do, under a quota
    that would read the seed file directly and one that would stage it
    into host buckets alike: no round runs, no page is fetched, nothing is
    staged and the images table is empty."""
    import shutil

    import pyarrow.parquet as pq

    _, site_dir = small_site
    fix = tmp_path / "fix"
    shutil.copytree(site_dir, fix)
    seeds = pq.read_table(fix / "seeds.parquet")
    pq.write_table(seeds.slice(0, 0), fix / "seeds.parquet")
    staged = _spy_seed_staging(monkeypatch)
    drv, res = _run(str(fix), tmp_path / "out",
                    quota_per_host=quota_per_host)
    assert staged == []
    assert res.pages_fetched == 0 and res.images_written == 0
    assert res.rounds == 0 and res.seen_size == 0
    assert read_images_table(str(tmp_path / "out")).num_rows == 0
    assert drv.images_dataset().count() == 0


def test_driver_metrics_scalar_per_round(ray_session, small_site, tmp_path_factory):
    """Round-2 VERDICT #5: the driver's metrics dict must stay O(rounds) —
    per-(host, kind) rows live in the round checkpoint, not driver memory."""
    from crawler_ray.pipelines.crawl import CrawlConfig, CrawlDriver

    site, fix_dir = small_site
    out = tmp_path_factory.mktemp("metrics_out")
    drv = CrawlDriver(CrawlConfig(
        fixture_dir=fix_dir, out_dir=str(out), quota_per_host=50,
        fetch_concurrency=2, num_seen_shards=2,
    ))
    res = drv.run()
    try:
        total_from_ckpt = 0
        for key, val in drv.metrics.items():
            if key == "_totals":
                continue
            # scalars only — no per-host lists on the driver
            assert all(not isinstance(v, (list, dict)) for v in val.values()), (key, val)
            rnd = int(key.split("_")[1])
            t = drv.ckpt.read_host_metrics(rnd)
            if t is not None:
                assert set(t.column_names) == {"host", "kind", "pages", "errors"}
                total_from_ckpt += sum(t["pages"].to_pylist())
        # checkpointed per-host rows reconcile with the driver's scalar total
        assert total_from_ckpt == res.pages_fetched
    finally:
        drv.shutdown()


def test_seen_shard_actor_death_mid_round_heals_and_matches(
    ray_session, small_site, tmp_path_factory
):
    """Actor-failure recovery (round-5 verdict item 2): a seen-shard STATE
    ACTOR is killed mid-round (no_restart — simulated node loss) by the
    first round task to claim the injection marker, possibly after sibling
    tasks mutated other shards and wrote sink parts. The round must fail
    (max_retries=0 surfaces the RayActorError), the driver must RESPAWN the
    dead shard (SeenSet.heal), restore every shard from the last complete
    checkpoint, re-run the round, and still produce the bit-identical golden
    images table and exact URL-seen count."""
    import os

    import ray as _ray

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("crawl_actor_kill")
    marker = str(out / "kill_marker")
    cfg = CrawlConfig(
        fixture_dir=site_dir,
        out_dir=str(out),
        quota_per_host=50,
        fetch_concurrency=2,
        num_seen_shards=2,
        kill_actor_once_marker=marker,
    )
    drv = CrawlDriver(cfg)
    shard0_before = drv.seen.shards[0]
    res = drv.run()
    assert os.path.exists(marker), "injected actor kill never fired"
    # the dead shard really was replaced by a fresh actor
    assert drv.seen.shards[0] != shard0_before
    with pytest.raises(_ray.exceptions.RayActorError):
        _ray.get(shard0_before.size.remote())
    drv.shutdown()
    assert res.pages_fetched == len(site.expected_seen)
    assert read_images_table(str(out)).equals(site.expected_images)


def test_seen_shard_actor_death_fresh_driver_resume(
    ray_session, small_site, tmp_path_factory
):
    """Same failure, recovered by a FRESH driver: run to round 1, kill a
    seen shard AND a politeness actor (driver abandoned mid-crawl with dead
    state actors), then resume with a new CrawlDriver — rollback restores
    from the checkpoint into the new driver's actors and the final state is
    bit-identical to an uninterrupted run."""
    import ray as _ray

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("crawl_actor_kill_resume")
    base = dict(
        fixture_dir=site_dir,
        out_dir=str(out),
        quota_per_host=50,
        fetch_concurrency=2,
        num_seen_shards=2,
    )
    drv1 = CrawlDriver(CrawlConfig(**base))
    drv1.run(stop_after_round=1)
    _ray.kill(drv1.seen.shards[1], no_restart=True)
    if drv1.politeness:
        _ray.kill(drv1.politeness[0], no_restart=True)
    # driver 1 is abandoned (no shutdown — its surviving actors are leaked
    # until the session ends, as a crashed driver's would be)

    drv2 = CrawlDriver(CrawlConfig(**base))
    res = drv2.run(resume=True)
    drv2.shutdown()
    drv1.shutdown()
    assert res.pages_fetched == len(site.expected_seen)
    assert read_images_table(str(out)).equals(site.expected_images)


# ----------------------------------------------- rounds above one read group
# Every small_site round fits one read group (<= 512 frontier rows). The
# site below has rounds of ~700 and ~560 frontier rows, which are read as
# several groups of whole host buckets, and hosts with more rows than the
# quota, so the selection binds.

WIDE_QUOTA = 100


@pytest.fixture(scope="module")
def wide_site(tmp_path_factory):
    from crawler_ray.sources.synthetic import SiteSpec, generate_site, write_site

    d = tmp_path_factory.mktemp("wide_site")
    site = generate_site(SiteSpec(
        n_hosts=8, products_per_host=100, categories_per_host=6,
        page_size=40, imgs_per_product=1, img_sizes=(16,), zipf_s=1.05,
    ))
    write_site(site, str(d))
    return site, str(d)


def _check_wide(site, drv, res) -> None:
    """Golden images and URL count, and the quota held per (round, host)
    in a round whose frontier was above one group and bound the quota."""
    assert res.pages_fetched == len(site.expected_seen)
    assert read_images_table(drv.cfg.out_dir).equals(site.expected_images)
    binding_wide_round = False
    for rnd in range(res.rounds):
        per_host = drv.ckpt.read_host_metrics(rnd).to_pandas().groupby(
            "host")["pages"].sum()
        assert per_host.max() <= WIDE_QUOTA, (rnd, per_host.to_dict())
        lin = drv.lineage[f"round_{rnd:04d}"]
        binding_wide_round |= lin["in_frontier"] > 512 and lin["backlog"] > 0
    assert binding_wide_round


def _buckets(drv, rnd) -> dict[int, int]:
    """Round ``rnd``'s frontier layout: {bucket id: parts in its dir}."""
    import glob
    import os

    fdir = drv.ckpt.frontier_dir(rnd)
    assert not glob.glob(os.path.join(fdir, "*.lance"))  # bucketed only
    return {int(os.path.basename(b).split("=")[1]):
            len(glob.glob(os.path.join(b, "part-*.lance")))
            for b in glob.glob(os.path.join(fdir, "bucket=*"))}


def test_wide_rounds_bucket_count_invariant_and_exchange_free(
    ray_session, wide_site, tmp_path_factory, monkeypatch
):
    """Rounds above one group read whole host buckets: the output is the
    golden one whatever the bucket count B (width × blocks per CPU) and the
    group count that follows from it, also when a crawl resumes at another
    B, and no round plans an exchange."""
    from crawler_ray.pipelines import crawl as crawl_mod

    site, site_dir = wide_site
    seen_sizes = []
    # 4 CPUs in the test session: B = 4, and B = 20 resumed at B = 8
    for blocks_per_cpu, resume_blocks_per_cpu in ((1, None), (5, 2)):
        monkeypatch.setattr(crawl_mod, "_BLOCKS_PER_CPU", blocks_per_cpu)
        cfg = CrawlConfig(
            fixture_dir=site_dir, quota_per_host=WIDE_QUOTA,
            out_dir=str(tmp_path_factory.mktemp(f"wide_b{blocks_per_cpu}")),
            fetch_concurrency=4, num_seen_shards=2,
            batch_size=32,  # several stage chunks per read group
        )
        with _no_exchanges(monkeypatch):
            drv = CrawlDriver(cfg)
            if resume_blocks_per_cpu is None:
                res = drv.run()
            else:
                drv.run(stop_after_round=2)  # round 2 read ~700 rows
                drv.shutdown()
                monkeypatch.setattr(crawl_mod, "_BLOCKS_PER_CPU",
                                    resume_blocks_per_cpu)
                drv = CrawlDriver(cfg)
                res = drv.run(resume=True)
            drv.shutdown()
        _check_wide(site, drv, res)
        layouts = [_buckets(drv, rnd) for rnd in range(res.rounds)]
        ids = {b for lay in layouts for b in lay}
        assert max(ids) < 4 * blocks_per_cpu
        assert blocks_per_cpu == 1 or max(ids) >= 8
        # each round_fn call writes its frontier rows once, so a bucket
        # dir holds at most one part per read group (groups <= B)
        assert max(n for lay in layouts for n in lay.values()) \
            <= 4 * blocks_per_cpu
        seen_sizes.append(res.seen_size)
    assert seen_sizes[0] == seen_sizes[1]


def test_big_seed_streaming_round_buckets_its_successors(
    ray_session, wide_site, tmp_path_factory, monkeypatch
):
    """Under an unbounded quota round 0 reads the seed file directly, and
    still writes its successors over B host buckets like any round, so
    round 1 can read them as more than one group; the crawl that follows
    gives the golden output."""
    site, site_dir = wide_site
    staged = _spy_seed_staging(monkeypatch)
    out = tmp_path_factory.mktemp("wide_stream")
    drv, res = _run(site_dir, out, quota_per_host=10**9)
    assert len(staged) == 0
    assert res.rounds > 1
    assert res.pages_fetched == len(site.expected_seen)
    assert read_images_table(drv.cfg.out_dir).equals(site.expected_images)
    assert len(_buckets(drv, 0)) > 1


def test_group_reaches_round_fn_whole_under_small_block_size(
    ray_session, wide_site, tmp_path_factory, monkeypatch
):
    """A read group must reach round_fn as ONE batch: a group cut inside a
    host would let each piece select up to the quota. batch_size=512 makes
    round 2's ~91 KB frontier a single group, and every bucket is 3–27 KB;
    an 8 KiB target_max_block_size is below all of them. Ray slices an
    oversized block where one operator hands it to the next, and the read
    is fused with round_fn, so the group still arrives whole: images,
    URL count and per-(round, host) quotas are unchanged."""
    from ray.data import DataContext

    site, site_dir = wide_site
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        8 * 1024)
    out = tmp_path_factory.mktemp("wide_block8k")
    drv, res = _run(site_dir, out, quota_per_host=WIDE_QUOTA, batch_size=512)
    _check_wide(site, drv, res)


def test_quota_guard_fails_a_round_whose_read_is_not_fused(
    ray_session, wide_site, tmp_path_factory, monkeypatch
):
    """Without ``ray_remote_args`` the read does not fuse with round_fn, so
    Ray slices each group above the 8 KiB target_max_block_size into
    several blocks and each piece selects up to the quota. The driver's
    per-host sum over the round's sel_stat rows catches the over-selection
    and fails the crawl, naming the round, host, count and quota."""
    from ray.data import DataContext

    from crawler_ray.pipelines import crawl as crawl_mod

    read_parts = crawl_mod.read_parts

    def unfused_read(path, **kwargs):
        kwargs.pop("ray_remote_args", None)
        return read_parts(path, **kwargs)

    monkeypatch.setattr(crawl_mod, "read_parts", unfused_read)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        8 * 1024)
    _, site_dir = wide_site
    drv = CrawlDriver(CrawlConfig(
        fixture_dir=site_dir, out_dir=str(tmp_path_factory.mktemp("unfused")),
        quota_per_host=WIDE_QUOTA, fetch_concurrency=2, num_seen_shards=2,
        batch_size=512,
    ))
    try:
        with pytest.raises(RuntimeError, match=(
            rf"round \d+: host '[^']+' selected \d+ pages, "
            rf"over its quota of {WIDE_QUOTA}"
        )):
            drv.run()
    finally:
        drv.shutdown()


def test_resume_rejects_unbucketed_frontier(ray_session, small_site,
                                            tmp_path_factory, monkeypatch):
    """A checkpoint whose frontier parts sit directly in ``frontier/`` (the
    layout before host buckets) is rejected on resume with an error naming
    the dir, before any part is read."""
    import glob
    import os
    import re
    import shutil

    from crawler_ray.vendor import minilance

    site, site_dir = small_site
    out = tmp_path_factory.mktemp("old_layout")
    cfg = CrawlConfig(fixture_dir=site_dir, out_dir=str(out),
                      quota_per_host=50, fetch_concurrency=2,
                      num_seen_shards=2)
    drv1 = CrawlDriver(cfg)
    drv1.run(stop_after_round=0)
    drv1.shutdown()
    fdir = drv1.ckpt.frontier_dir(0)
    for part in glob.glob(os.path.join(fdir, "bucket=*", "part-*.lance")):
        shutil.move(part, fdir)
    for b in glob.glob(os.path.join(fdir, "bucket=*")):
        os.rmdir(b)
    assert glob.glob(os.path.join(fdir, "part-*.lance"))

    def no_read(*args, **kwargs):
        raise AssertionError("a frontier part was opened")

    monkeypatch.setattr(minilance, "dataset", no_read)
    drv2 = CrawlDriver(cfg)
    try:
        with pytest.raises(ValueError, match=re.escape(fdir)):
            drv2.run(resume=True)
    finally:
        drv2.shutdown()
