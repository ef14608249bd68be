"""CLI entry points — the reference's console client (``Program.Main``,
``HZ.Crawler.ConsoleClient/Program.cs:15-45``) re-expressed: configure →
run crawl → reports. Owns the Ray session (the library never inits Ray).

    python -m crawler_ray.cli gen-site  --out /tmp/site [--hosts 6 ...]
    python -m crawler_ray.cli crawl     --fixture /tmp/site --out /tmp/run \
                                        [--resume] [--quota 200] [--cpus 8]
    python -m crawler_ray.cli report    --out /tmp/run
    python -m crawler_ray.cli bench-ingest --images 100000 [--px 64]
    python -m crawler_ray.cli revalidate --manifest urls.parquet --dest out/
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(cpus: int | None):
    import ray

    if not ray.is_initialized():
        import os

        # honor the environment under `ray job submit` (RAY_ADDRESS=auto on a
        # cluster); default to a local session otherwise. num_cpus is only
        # meaningful when WE start the session.
        addr = os.environ.get("RAY_ADDRESS", "local")
        from crawler_ray.context import worker_runtime_env

        kwargs = dict(
            address=addr, include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR", runtime_env=worker_runtime_env(),
        )
        if cpus and addr == "local":
            kwargs["num_cpus"] = cpus
        ray.init(**kwargs)
    from crawler_ray.context import tune_data_context

    tune_data_context()
    return ray


def cmd_gen_site(args) -> int:
    from crawler_ray.sources.synthetic import SiteSpec, generate_site, write_site

    spec = SiteSpec(
        n_hosts=args.hosts,
        products_per_host=args.products,
        categories_per_host=args.categories,
        page_size=args.page_size,
        seed=args.seed,
    )
    site = generate_site(spec)
    write_site(site, args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "pages": site.pages.num_rows,
                "seeds": site.seeds.num_rows,
                "expected_seen": len(site.expected_seen),
                "expected_images": site.expected_images.num_rows,
            }
        )
    )
    return 0


def cmd_crawl(args) -> int:
    ray = _init_ray(args.cpus)
    from crawler_ray.pipelines.crawl import CrawlConfig, CrawlDriver

    cfg = CrawlConfig(
        fixture_dir=args.fixture,
        out_dir=args.out,
        quota_per_host=args.quota,
        fetch_concurrency=args.fetch_concurrency,
        num_seen_shards=args.seen_shards,
        batch_size=args.batch_size,
        fetcher=args.fetcher,
        http_opts={"timeout": args.http_timeout} if args.fetcher == "http" else None,
    )
    driver = CrawlDriver(cfg)
    res = driver.run(resume=args.resume)
    print(
        json.dumps(
            {
                "rounds": res.rounds,
                "pages_fetched": res.pages_fetched,
                "images_written": res.images_written,
                "errors": res.errors,
                "seen_size": res.seen_size,
                "out_dir": res.out_dir,
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_report(args) -> int:
    from crawler_ray.pipelines.reports import products_per_category, submit_view

    rep = products_per_category(args.out)
    print(rep.to_string(index=False))
    print(f"\nsubmit view rows: {len(submit_view(args.out))}")
    return 0


def cmd_optimize(args) -> int:
    """Lance-table maintenance on a dataset, in place — e.g. a crawl sink
    (``--uri <out>/images``): merge small fragments into full-size ones (a
    new committed version — old versions still time-travel) and optionally
    GC manifests/fragments beyond ``--keep-versions``. Mirrors the real library's
    ``DatasetOptimizer.compact_files`` + ``cleanup_old_versions``; runs on
    the vendored store in this sandbox."""
    from crawler_ray.vendor import minilance

    out = dict(minilance.compact_files(args.uri, args.target_rows))
    if args.keep_versions:
        out["gc"] = minilance.cleanup_old_versions(
            args.uri, keep_versions=args.keep_versions
        )
    print(json.dumps(out))
    return 0


def cmd_pack(args) -> int:
    """Filter (optional LAION-style gate) + pack a crawl's images into
    WebDataset tar shards; prints the manifest summary."""
    import os

    _init_ray(args.cpus)
    from crawler_ray.pipelines.packing import filter_images, pack_webdataset_shards
    from crawler_ray.sources.io import read_parts

    ds = read_parts(os.path.join(args.out, "images"))
    if args.gate:
        ds = filter_images(ds, min_w=args.min_px, min_h=args.min_px)
    mf = pack_webdataset_shards(ds, args.dest, target_bytes=args.shard_bytes)
    stats = mf.to_pandas()
    print(
        json.dumps(
            {
                "shards": len(stats),
                "images": int(stats["n_images"].sum()) if len(stats) else 0,
                "payload_bytes": int(stats["payload_bytes"].sum()) if len(stats) else 0,
                "dest": args.dest,
            }
        )
    )
    return 0


def cmd_replay(args) -> int:
    """Batch-replay ingestion: WARC archive(s) → documents-shaped parquet
    (url, text, n_chars) — the offline twin of the live crawl."""
    import pyarrow as pa

    _init_ray(args.cpus)
    from crawler_ray.sources.formats import read_warc

    def to_docs(t: pa.Table) -> pa.Table:
        texts = [b.decode("utf-8", "replace") for b in t["payload"].to_pylist()]
        return pa.table(
            {
                "url": t["warc_target_uri"],
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array([len(s) for s in texts], pa.int64()),
            }
        )

    ds = read_warc(args.warc).map_batches(to_docs, batch_format="pyarrow")
    ds.write_parquet(args.dest)  # one streamed execution; never re-run
    import pyarrow.dataset as pads

    n = sum(f.count_rows() for f in pads.dataset(args.dest).get_fragments())
    print(json.dumps({"rows": n, "dest": args.dest}))
    return 0


def cmd_bench_ingest(args) -> int:
    import os

    os.environ["GRAFT_INGEST_N"] = str(args.images)
    os.environ["GRAFT_INGEST_PX"] = str(args.px)
    os.environ.setdefault("RAY_GRAFT_CPUS", str(args.cpus or 32))
    os.environ["GRAFT_BENCH_ONLY"] = "ingest"
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import bench

    print(json.dumps(bench.main()))
    return 0


def cmd_revalidate(args) -> int:
    """Conditional-GET freshness sweep over a stored URL manifest: reads
    (url, etag, last_modified) parquet, revalidates every row with
    If-None-Match / If-Modified-Since, writes the verdict table and prints
    the per-verdict summary (fresh rows ship ZERO body bytes)."""
    if not args.manifest and not args.from_crawl:
        print("one of --manifest / --from-crawl is required", file=sys.stderr)
        return 2
    _init_ray(args.cpus)
    from crawler_ray.pipelines.revalidate import (
        freshness_summary,
        manifest_from_crawl,
        revalidate_manifest,
    )

    manifest = (
        manifest_from_crawl(args.from_crawl)
        if args.from_crawl
        else args.manifest
    )
    verdicts = revalidate_manifest(
        manifest,
        http_opts={"timeout": args.http_timeout},
        concurrency=args.concurrency,
    )
    if args.dest:
        verdicts = verdicts.materialize()
        verdicts.write_parquet(args.dest)
    summary = freshness_summary(verdicts).to_pylist()
    print(json.dumps({"summary": summary, "dest": args.dest}))
    return 0


def cmd_query(args) -> int:
    """Run any registered pipeline by name over an sf-style table dir:
    ``query --name q1_pricing_summary --sf /root/testdata/sf0.01
    [--out /tmp/result] [--list]``. Writes parquet when --out is given,
    else prints the first rows."""
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    if args.list:
        for name in sorted(qs):
            mark = "oracle" if name in entry_mod.oracle_sql() else "rows-only"
            print(f"{name}\t{mark}")
        return 0
    if args.name not in qs:
        print(f"unknown query {args.name!r}; use --list", file=sys.stderr)
        return 2
    _init_ray(args.cpus)
    res = qs[args.name](args.sf)
    if args.out:
        if hasattr(res, "write_parquet"):
            res.write_parquet(args.out)
        else:
            import pyarrow as pa
            import pyarrow.parquet as pq

            os.makedirs(args.out, exist_ok=True)
            pq.write_table(
                pa.Table.from_pandas(res, preserve_index=False),
                os.path.join(args.out, "part-0.parquet"),
            )
        print(json.dumps({"query": args.name, "out": args.out}))
    else:
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        print(df.head(20).to_string())
        print(json.dumps({"query": args.name, "rows": int(len(df))}))
    if args.stats and hasattr(res, "stats"):
        # per-stage wall times / block counts from Ray Data's executor —
        # the 'measure, don't guess' loop for pipeline tuning
        print(res.stats())
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="crawler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-site", help="generate a deterministic synthetic site")
    g.add_argument("--out", required=True)
    g.add_argument("--hosts", type=int, default=6)
    g.add_argument("--products", type=int, default=30)
    g.add_argument("--categories", type=int, default=6)
    g.add_argument("--page-size", type=int, default=10)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen_site)

    c = sub.add_parser("crawl", help="run (or resume) a crawl")
    c.add_argument("--fixture", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--resume", action="store_true")
    c.add_argument("--quota", type=int, default=200)
    c.add_argument("--fetch-concurrency", type=int, default=4)
    c.add_argument("--seen-shards", type=int, default=4)
    c.add_argument("--batch-size", type=int, default=128)
    c.add_argument("--cpus", type=int, default=None)
    c.add_argument("--fetcher", choices=["synthetic", "http"], default="synthetic",
                   help="synthetic site stand-in, or real HTTP fetching "
                        "(requests.Session per worker, redirect→frontier)")
    c.add_argument("--http-timeout", type=float, default=10.0)
    c.set_defaults(fn=cmd_crawl)

    r = sub.add_parser("report", help="post-crawl reports")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_report)

    z = sub.add_parser(
        "optimize",
        help="Lance-table maintenance: merge small fragments, GC old versions",
    )
    z.add_argument("--uri", required=True,
                   help="dataset path, e.g. a crawl sink <out>/images")
    z.add_argument("--target-rows", type=int, default=1 << 20,
                   help="target rows per fragment after compaction")
    z.add_argument("--keep-versions", type=int, default=0,
                   help="GC to this many newest versions (0 = keep all)")
    z.set_defaults(fn=cmd_optimize)

    w = sub.add_parser(
        "pack", help="pack crawled images into WebDataset tar shards"
    )
    w.add_argument("--out", required=True, help="crawl out_dir")
    w.add_argument("--dest", required=True, help="shard output dir")
    w.add_argument("--shard-bytes", type=int, default=1 << 20)
    w.add_argument("--gate", action="store_true",
                   help="apply the LAION-style quality filter first")
    w.add_argument("--min-px", type=int, default=64,
                   help="gate: minimum width/height in pixels")
    w.add_argument("--cpus", type=int, default=None)
    w.set_defaults(fn=cmd_pack)

    y = sub.add_parser("replay", help="WARC archive(s) → documents parquet")
    y.add_argument("--warc", required=True, help="WARC file or directory")
    y.add_argument("--dest", required=True)
    y.add_argument("--cpus", type=int, default=None)
    y.set_defaults(fn=cmd_replay)

    b = sub.add_parser("bench-ingest", help="image-frontier ingest benchmark")
    b.add_argument("--images", type=int, default=100_000)
    b.add_argument("--px", type=int, default=64)
    b.add_argument("--cpus", type=int, default=None)
    b.set_defaults(fn=cmd_bench_ingest)

    v = sub.add_parser(
        "revalidate",
        help="conditional-GET freshness sweep over a (url, etag, "
        "last_modified) manifest parquet",
    )
    v.add_argument("--manifest", default=None)
    v.add_argument(
        "--from-crawl", default=None, dest="from_crawl",
        help="build the manifest from a crawl out-dir's pages sink "
        "instead of --manifest",
    )
    v.add_argument("--dest", default=None)
    v.add_argument("--concurrency", type=int, default=2)
    v.add_argument("--http-timeout", type=float, default=10.0)
    v.add_argument("--cpus", type=int, default=None)
    v.set_defaults(fn=cmd_revalidate)

    q = sub.add_parser("query", help="run a registered pipeline by name")
    q.add_argument("--name", default="")
    q.add_argument("--sf", default="/root/testdata/sf0.01")
    q.add_argument("--out", default=None)
    q.add_argument("--cpus", type=int, default=None)
    q.add_argument("--list", action="store_true")
    q.add_argument(
        "--stats", action="store_true",
        help="print Ray Data per-stage execution stats after the run",
    )
    q.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
