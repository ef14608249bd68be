"""The three workloads: fixtures, one operation, and its output check.

An operation is what the closed loop in ``run.py`` repeats: one whole
crawl (``crawl_bfs``), one ingest run (``ingest_images``) or one pass over
the query set (``query_bar``). Each operation writes to a fresh output dir
and is checked before the next one starts.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from perfbench import checks, fixtures
from perfbench.checks import to_pandas

# oracled, no build-once index, and short enough for three or more passes
# in one run: the relational joins and aggregates ROADMAP item 4 targets,
# plus one window, one vector and one text query. The heavier text and
# graph pipelines (sliding_event_counts, doc_top_tfidf, token_cooccurrence,
# doc_link_pagerank: ~8 of ~11 s per pass) would leave one pass per run.
QUERIES = [
    "local_supplier_volume",
    "nation_market_share",
    "q1_pricing_summary",
    "revenue_cube",
    "sessionize",
    "knn_brute_force",
    "bm25_search",
]

N_SEEN = 2
N_POLITE = 2


class _CrawlBase:
    """Shared by crawl_bfs and ingest_images: both drive ``CrawlDriver``."""

    def __init__(self, root: str, run_dir: str, seed: int, size: str):
        self.root, self.run_dir, self.seed, self.size = root, run_dir, seed, size
        self.fix = fixtures.fixture_dir(root, self.name, seed, size)

    def oracles(self) -> None:
        pass  # expectations come with the fixture

    def warm(self, d) -> None:
        """Worker pool, stage-module imports, then one whole checked
        operation: the first crawl of a session also grows the worker pool
        (tasks blocked on seen-set RPCs free their CPU slot) and runs
        measurably slower than the rest."""
        d.prewarm()
        r = self.run(d)
        self.check(d, r)
        self.finish(d)

    def prepare(self, k: int):
        """Fresh output dir and a driver whose state actors are running."""
        import ray

        from crawler_ray.pipelines.crawl import CrawlDriver

        out = os.path.join(self.run_dir, f"op{k}")
        shutil.rmtree(out, ignore_errors=True)
        d = CrawlDriver(self.config(out))
        ray.get([s.size.remote() for s in d.seen.shards]
                + [p.allowed.remote([]) for p in d.politeness])
        return d

    def run(self, d) -> dict:
        t_wall = time.time_ns()
        t0 = time.perf_counter()
        res = d.run()
        wall = time.perf_counter() - t0
        return {"wall": wall, "units": res.pages_fetched, "res": res,
                "step": self.step(d.cfg.out_dir, t_wall, wall)}

    def finish(self, d) -> None:
        d.shutdown()
        shutil.rmtree(d.cfg.out_dir, ignore_errors=True)

    def step(self, out: str, t_wall_ns: int, wall: float) -> float:
        return wall


class CrawlBfs(_CrawlBase):
    name = "crawl_bfs"

    def build(self) -> None:
        fixtures.build_site(self.fix, self.seed, self.size)
        self.expected = checks.load_crawl_expected(self.fix)

    def config(self, out: str):
        from crawler_ray.pipelines.crawl import CrawlConfig

        return CrawlConfig(
            fixture_dir=self.fix, out_dir=out, quota_per_host=400,
            fetch_concurrency=2, num_seen_shards=N_SEEN,
            num_politeness_shards=N_POLITE, batch_size=256,
        )

    def step(self, out: str, t_wall_ns: int, wall: float) -> float:
        """The round wall the median fetched page waited in: a page-weighted
        median over the crawl's rounds. (An unweighted median over a
        handful of rounds of very different sizes flips between size
        classes from run to run.) Read from outside the program: each
        round's checkpoint ends with its ``_COMPLETE`` marker, so
        consecutive marker mtimes bracket one round, the first starting
        when ``run()`` is called; pages per round come from the last
        checkpoint's ``lineage.json``."""
        rounds = sorted(n for n in os.listdir(out) if n.startswith("round_")
                        and os.path.exists(os.path.join(out, n, "_COMPLETE")))
        marks = [os.stat(os.path.join(out, n, "_COMPLETE")).st_mtime_ns
                 for n in rounds]
        edges = [t_wall_ns] + marks
        walls = [(b - a) / 1e9 for a, b in zip(edges, edges[1:])]
        with open(os.path.join(out, rounds[-1], "lineage.json")) as f:
            lineage = json.load(f)
        pages = [lineage[n]["selected"] for n in rounds]
        return weighted_median(walls, pages)

    def check(self, d, r: dict) -> None:
        checks.check_crawl(d.cfg.out_dir, r["res"].pages_fetched, self.expected)

    def attempted(self, r: dict) -> int:
        return r["res"].rounds


class IngestImages(_CrawlBase):
    name = "ingest_images"

    def build(self) -> None:
        self.expected = fixtures.build_frontier(self.fix, self.seed, self.size)
        import pyarrow.parquet as pq

        self.urls = pq.read_table(os.path.join(self.fix, "seeds.parquet"))[
            "url"].to_pylist()

    def config(self, out: str):
        from crawler_ray.pipelines.crawl import CrawlConfig

        n = fixtures.INGEST[self.size]
        return CrawlConfig(
            fixture_dir=self.fix, out_dir=out, quota_per_host=10**9,
            fetch_concurrency=2, num_seen_shards=N_SEEN,
            num_politeness_shards=N_POLITE, batch_size=512,
            # one breadth round streamed from the seed file (the crawl's
            # big-seed path), whatever the seed count
            big_seed_threshold=n,
            synth_images={"seed": self.seed, "img_sizes": [fixtures.INGEST_PX],
                          "robots_frac": 0.0},
        )

    def check(self, d, r: dict) -> None:
        checks.check_ingest(d.cfg.out_dir, r["res"], self.expected, self.urls,
                            self.seed)

    def attempted(self, r: dict) -> int:
        return 1


class QueryBar:
    name = "query_bar"

    def __init__(self, root: str, run_dir: str, seed: int, size: str):
        self.root, self.run_dir, self.seed, self.size = root, run_dir, seed, size
        self.fix = fixtures.fixture_dir(root, self.name, seed, size)

    def build(self) -> None:
        import __ray_entry__

        self.tables = fixtures.build_query_tables(self.fix, self.seed, self.size)
        self.fns = {n: __ray_entry__.queries()[n] for n in QUERIES}
        self.sql = {n: __ray_entry__.oracle_sql()[n] for n in QUERIES}

    def oracles(self) -> None:
        """DuckDB results, computed once per run outside every timed
        window."""
        self.expected = checks.oracle_results(self.fix, self.tables, self.sql)

    def warm(self, _state) -> None:
        import ray
        import ray.data as rd

        width = int(ray.cluster_resources().get("CPU", 2))
        rd.range(width * 4, override_num_blocks=width * 4).map_batches(
            _import_pipelines, batch_format="pyarrow").count()
        # the first query of a session pays worker-pool growth (seconds)
        to_pandas(self.fns[QUERIES[0]](self.fix))

    def prepare(self, k: int):
        return None

    def run(self, _state) -> dict:
        per, results = {}, {}
        for n in QUERIES:
            t0 = time.perf_counter()
            df = to_pandas(self.fns[n](self.fix))
            per[n] = time.perf_counter() - t0
            results[n] = df
        wall = sum(per.values())
        return {"wall": wall, "units": len(QUERIES), "per_query": per,
                "results": results, "step": wall}

    def check(self, _state, r: dict) -> None:
        for n in QUERIES:
            checks.check_query(n, r["results"][n], self.expected[n])
        checks.check_no_build_cache(os.environ["TMPDIR"])

    def finish(self, _state) -> None:
        pass

    def attempted(self, r: dict) -> int:
        return len(QUERIES)


def _import_pipelines(t):
    """Import the query pipeline modules in a worker (session warm-up)."""
    import crawler_ray.pipelines.clusters  # noqa: F401
    import crawler_ray.pipelines.events  # noqa: F401
    import crawler_ray.pipelines.joins  # noqa: F401
    import crawler_ray.pipelines.relational  # noqa: F401
    import crawler_ray.pipelines.similarity  # noqa: F401
    import crawler_ray.pipelines.textops  # noqa: F401

    return t


WORKLOADS = {w.name: w for w in (CrawlBfs, IngestImages, QueryBar)}


def weighted_median(values: list[float], weights: list[float]) -> float:
    """Smallest value whose cumulative weight reaches half the total."""
    order = sorted(range(len(values)), key=values.__getitem__)
    half, acc = sum(weights) / 2, 0.0
    for i in order:
        acc += weights[i]
        if acc >= half:
            return values[i]
    return values[order[-1]]
