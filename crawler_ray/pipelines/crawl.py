"""Round-based BFS crawl driver — the Ray-Data-native restructuring of the
reference's whole-crawl lifecycle (SURVEY.md §3).

Each round is ONE distributed streaming execution; the frontier never
exists on the driver, and no round runs an exchange:

    frontier_k: the previous round's checkpoint dir, one minilance dataset
                whose fragments are host-bucketed (each entry records its
                bucket = hash(host) % B). Round 0: the seed list, first
                staged into buckets by a map-only pass through the same
                writer — or, when the quota is at least the seed count,
                read straight from seeds.parquet
      → read_parts: one block per group of WHOLE buckets (group count
        from the frontier size, capped at the non-empty buckets)
      → map_batches(make_round_fn, batch_size=None)  # fused, per group:
            round 0 only: seed admission (robots → seen anti-join)
            → per-host top-quota SELECT (priority desc, url — deterministic)
            → backlog rows → next frontier, bucketed (in-stage sink)
            → selected rows, chunked: fetch (synthetic | real HTTP w/
              redirect→successor resolution) → image decode/hash/dedup →
              parse → robots → seen anti-join → brand first-wins upsert
            → each row class written where it is produced, as uncommitted
              fragments of its sink (stages/process.SINKS): images,
              tables/{categories,products,brands,pages}, errors, and
              successors + backlog (the frontier, host-bucketed once per
              call)
      → output = stat rows only: one ``part`` row per fragment, carrying
        its manifest entry, and per-(host, kind) sel_stat / error_stat
        and backlog_stat counts
    driver: one small collect for metrics/lineage/loop control and the
    per-host quota guard; one commit per sink of exactly the entries the
    collect returned (round 0 overwrites each output sink, later rounds
    append; the frontier is one ``create`` commit); then save_round
    (atomic rename of the staging dir, ``_COMPLETE`` last) →
    frontier_{k+1} path

B is the round's task target (cluster CPUs × ``_BLOCKS_PER_CPU``), shared by
every task of the round. Each bucket holds every row of its hosts, so a read
group of whole buckets is host-complete: the selection sees each
host's whole frontier in one call, as a host-hash exchange would give it.

The reference's do/while page loop (``BaseSpider.cs:115-141``) becomes
successor *data* (next-page rows); its thread pool (``BaseSpider.cs:90-114``)
becomes task-parallel fused stages on pre-started workers; its politeness
sleeps become per-round per-host quotas + token-bucket bookkeeping (grants
fire-and-forget — quota is the enforced budget). Determinism: frontier
selection sorts by (priority desc, url) within hosts — never arrival order —
so the final seen-set, images, and brands tables are bit-identical across
runs AND parallelism levels (north-rule reproducibility; verified in tests,
including mid-run SIGKILL + resume).

Scale notes (10^10-URL design point): between rounds the frontier is a
host-bucketed minilance dataset on shared storage (written/read by stage
tasks, one group of buckets per task; the driver handles only its
manifest); within a round it is object-store blocks (spillable).
Driver state = paths, counters, actor handles (asserted in tests). The
pages index inside each fetch worker is a sandbox stand-in for HTTP
(``fetcher="http"`` holds real sessions instead). Seen-set = ``num_shards``
cuckoo actors sized ~1.2e8 keys each (state/filters.py sizing note).
Checkpoints bound re-work to one round: a failed round, or one that
committed its sinks but not its checkpoint, rolls every output sink back to
the version the last complete round recorded and re-runs.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from crawler_ray import schemas
from crawler_ray.sources.io import read_parts, read_parts_table, write_bucketed
from crawler_ray.stages import process
from crawler_ray.state.checkpoint import CheckpointManager
from crawler_ray.state.politeness import PolitenessActor
from crawler_ray.state.seen import SeenSet, SeenShard
from crawler_ray.vendor import minilance

# round input blocks per CPU: 1 is a single wave of uniform tasks (best for
# the uniform breadth workload); 3 absorbs skewed, straggler-prone rounds.
# Width × this is also B, the host-bucket count of the frontier each round
# writes
_BLOCKS_PER_CPU = 3


@dataclass
class CrawlConfig:
    fixture_dir: str  # pages.parquet / seeds.parquet / robots.json
    out_dir: str  # checkpoint + output root
    # per-round per-host politeness budget; when it is at least the seed
    # count, round 0 reads seeds.parquet directly instead of staging it
    quota_per_host: int = 200
    num_seen_shards: int = 4
    seen_capacity: int = 1 << 16
    fetch_concurrency: int = 4
    batch_size: int = 128
    max_rounds: int = 1000
    max_attempts: int = 3
    # on-demand image synthesis (dict: seed, img_sizes, robots_frac): image
    # payloads are regenerated inside the fetch actors from the URL alone and
    # image rows are pruned from the broadcast pages index — the per-actor
    # state no longer grows with the site (see stages/fetch.py)
    synth_images: dict | None = None
    # "synthetic": deterministic in-sandbox site stand-in; "http": real
    # requests.Session fetching with redirect→frontier resolution
    # (stages/fetch.py HttpFetchStage)
    fetcher: str = "synthetic"
    http_opts: dict | None = None
    num_politeness_shards: int = 2
    seed: int = 7
    # inert: nothing reads it; removed with the next benchmark change
    big_seed_threshold: int = 50_000
    # the recovery unit is the ROUND: stage tasks mutate the seen-set as a
    # side effect, so a Ray-level task retry would see its own first
    # attempt's inserts and silently drop those URLs — task retries are
    # DISABLED (max_retries=0) and a failed round is instead rolled back to
    # the last complete checkpoint and re-run whole, this many times
    round_retries: int = 1
    # fault injection (tests): path of a marker file — the first round task
    # to claim it raises mid-round, exercising the rollback-and-retry path
    fail_once_marker: str | None = None
    # fault injection (tests): first claiming task KILLS a seen-shard actor
    # mid-round (simulated node loss) — exercising actor respawn + restore
    kill_actor_once_marker: str | None = None


@dataclass
class CrawlResult:
    rounds: int
    pages_fetched: int
    images_written: int
    errors: int
    seen_size: int
    metrics: dict = field(default_factory=dict)
    out_dir: str = ""


def _seed_batch_to_frontier(t: pa.Table) -> pa.Table:
    """Vectorized seeds→frontier projection, used by the seed-staging pass
    and by round 0's direct seed read (generator URLs are already
    normalized; row order is irrelevant, round_fn's selection sorts)."""
    df = t.to_pandas()
    parts = df["url"].str.split("/", n=4, expand=True)
    # hostname with the SAME semantics as functions.urls.url_host (strip
    # userinfo, port and IPv6 brackets, lowercase) — successors parsed from
    # pages go through url_host, and a seed host like 'shop.example:8080'
    # must land in the same quota/politeness group as its successors'
    # 'shop.example', not fork a second group
    netloc = parts[2].str.split("@").str[-1].str.lower()
    bracketed = netloc.str.startswith("[", na=False)
    host = netloc.str.split(":").str[0]
    if bracketed.any():
        host = host.mask(
            bracketed, netloc.str.extract(r"^\[([^\]]*)\]", expand=False)
        )
    is_img = parts[3].isin(["img", "private"]) if 3 in parts else False
    out = pd.DataFrame(
        {
            "url": df["url"],
            "host": host,
            "kind": np.where(is_img, "image", "category_tree"),
            "depth": np.int32(0),
            "priority": df["priority"].astype("float64"),
            "seed_id": df["seed_id"],
            "caption": "",
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(schemas.FRONTIER)


def _stage_seed_frontier(seeds_path: str, uri: str, n_groups: int) -> None:
    """Write the seed list as a host-bucketed frontier dataset at ``uri``:
    a map-only pass (no exchange) through the writer the round stage uses
    for successors and backlog, then one ``create`` commit of the
    fragments it wrote, so round 0 reads the seeds as whole host buckets,
    like every later round. Only round 0 reads it, as ``n_groups`` groups,
    so it is split into ``n_groups`` buckets: more would only add
    fragments (a seed list that fits one group is one fragment per read
    block)."""

    def stage(t: pa.Table) -> pa.Table:
        entries = write_bucketed(_seed_batch_to_frontier(t), uri, n_groups)
        return pa.table({"entry": pa.array([json.dumps(e) for e in entries],
                                           pa.string())})

    staged = rd.read_parquet(seeds_path, override_num_blocks=n_groups
                             ).map_batches(stage, batch_format="pyarrow",
                                           batch_size=None).take_all()
    minilance.commit(uri, schemas.FRONTIER,
                     [json.loads(r["entry"]) for r in staged], mode="create")


def _prewarm_worker(t: pa.Table) -> pa.Table:
    """Touch the modules the fused round stage needs, so the per-worker
    import cost is paid before the first timed round."""
    import crawler_ray.stages.fetch  # noqa: F401
    import crawler_ray.stages.parse  # noqa: F401
    import crawler_ray.stages.process  # noqa: F401

    return t


class CrawlDriver:
    def __init__(self, cfg: CrawlConfig):
        # every seen and politeness shard holds its CPU reservation for the
        # whole crawl: with less than one CPU left no round task schedules,
        # and round 0 would wait forever
        if not ray.is_initialized():
            ray.init()  # what the first actor creation would do
        cpus = ray.cluster_resources().get("CPU", 0)
        reserved = (
            cfg.num_seen_shards * SeenShard._default_options["num_cpus"]
            + cfg.num_politeness_shards
            * PolitenessActor._default_options["num_cpus"]
        )
        if cpus - reserved < 1:
            raise ValueError(
                f"{cfg.num_seen_shards} seen and {cfg.num_politeness_shards} "
                f"politeness shards reserve {reserved:g} of the cluster's "
                f"{cpus:g} CPUs, leaving less than 1 CPU for round tasks"
            )
        self.cfg = cfg
        self.ckpt = CheckpointManager(cfg.out_dir)
        robots_path = os.path.join(cfg.fixture_dir, "robots.json")
        robots_rules: dict[str, list[str]] = {}
        if os.path.exists(robots_path):
            with open(robots_path) as f:
                robots_rules = json.load(f)
        # robots.txt text per host (RobotsCache parses real robots.txt syntax)
        self.robots_txt = {
            host: "User-agent: *\n" + "\n".join(f"Disallow: {p}" for p in prefixes)
            for host, prefixes in robots_rules.items()
        }
        self.seen = SeenSet.create(
            cfg.num_seen_shards, cfg.seen_capacity, seed=cfg.seed
        )
        self.politeness = [
            PolitenessActor.remote(self.robots_txt, virtual=True)
            for _ in range(cfg.num_politeness_shards)
        ]
        self.metrics: dict[str, dict] = {}
        self.lineage: dict[str, dict] = {}
        # set by _heal_actors; the round loop re-broadcasts stage args so
        # worker-cached stages drop their dead actor handles
        self._actors_respawned = False

    def _heal_actors(self) -> int:
        """Respawn DEAD state actors (seen shards, politeness) after a
        node-loss-class failure, returning how many were respawned. Seen
        shards come back EMPTY and are immediately restored from the last
        complete checkpoint by ``_rollback_to_latest`` — the round-as-
        recovery-unit design (``max_retries=0``) guarantees no surviving
        task depends on the dead actor's partial state. Politeness actors
        hold only rate/robots CACHE state (token buckets refill, robots
        re-parse from the driver-held texts), so a fresh actor is
        semantically equivalent."""
        healed = self.seen.heal()
        for i, a in enumerate(self.politeness):
            try:
                ray.get(a.allowed.remote([]))
            except ray.exceptions.RayActorError:
                self.politeness[i] = PolitenessActor.remote(
                    self.robots_txt, virtual=True
                )
                healed += 1
        if healed:
            self._actors_respawned = True
        return healed

    def prewarm(self) -> None:
        """Spin up Ray's worker pool and import the stage modules on every
        worker BEFORE the first round. The first distributed execution of a
        fresh session otherwise pays worker spawn + heavy imports (numpy/
        pandas/crawler_ray) inside round 0 — ~5 s at 32 CPUs (round-2
        VERDICT #7). Long-running crawlers run with warm pools; callers that
        measure steady-state throughput should prewarm outside the timed
        window."""
        width = int(ray.cluster_resources().get("CPU", 4))
        rd.range(width * 4, override_num_blocks=width * 4).map_batches(
            _prewarm_worker, batch_format="pyarrow"
        ).count()

    def shutdown(self) -> None:
        """Kill this driver's state actors (seen shards, politeness). Each
        actor reserves fractional CPU for the session lifetime — long-lived
        processes that create many drivers MUST release them (tests, CLI,
        bench do; a driver whose actors are killed cannot run() again)."""
        for a in list(self.seen.shards) + list(self.politeness):
            try:
                ray.kill(a)
            except Exception:
                pass
        self.seen.shards = []
        self.politeness = []

    # ------------------------------------------------------------------
    def run(self, resume: bool = False, stop_after_round: int | None = None) -> CrawlResult:
        cfg = self.cfg
        start_round = 0
        seeds_path = os.path.join(cfg.fixture_dir, "seeds.parquet")
        # the output sinks: one minilance dataset each, under out_dir
        outputs = {name: os.path.join(cfg.out_dir, name)
                   for name in process.SINKS if name != "frontier"}
        # the frontier NEVER lives on the driver: between rounds it is the
        # checkpoint's per-round dataset (``frontier_source``); the driver
        # holds only this path plus row counters (round-1 VERDICT #5)
        frontier_source: str | None = None  # None → seed round pending
        frontier_rows: int | None = None  # None → unknown (seed round)

        def _rollback_to_latest() -> int:
            """Roll driver, actor and sink state back to the last COMPLETE
            checkpoint (or the pristine pre-crawl state when none exists)
            and return the next round to run. Shared by resume=True and the
            round-retry path: a failed round leaves uncommitted fragments
            (orphans no reader sees) and partial seen-set mutations, and
            one that failed after its sink commits leaves committed sink
            versions too — so each output sink is re-committed at the
            version the checkpoint's lineage records (no file is deleted),
            later checkpoint dirs are pruned and the seen shards are
            restored/reset before the round re-runs whole."""
            nonlocal frontier_source, frontier_rows
            # respawn any DEAD state actor first: restore()/reset() on a
            # dead handle would re-raise and make the rollback itself fail
            self._heal_actors()
            latest = self.ckpt.latest_complete_round()
            if latest is not None:
                frontier_source, snaps, self.metrics, self.lineage = (
                    self.ckpt.load_round(latest)
                )
                self.seen.restore(snaps)
                self.ckpt.prune_rounds_after(latest)
                lin = self.lineage[f"round_{latest:04d}"]
                for name, version in lin["versions"].items():
                    if minilance.dataset(outputs[name]).version != version:
                        minilance.dataset(outputs[name], version=version).restore()
                frontier_rows = int(lin["successors"]) + int(lin["backlog"])
                return latest + 1
            # no complete checkpoint: round 0 overwrites every output sink,
            # so only the checkpoint dirs and the seen-set need resetting
            self.ckpt.prune_rounds_after(-1)
            self.seen.reset()
            self.metrics, self.lineage = {}, {}
            frontier_source, frontier_rows = None, None
            return 0

        if resume:
            start_round = _rollback_to_latest()

        def _totals_from_metrics() -> dict:
            return {
                key: int(self.metrics.get("_totals", {}).get(key, 0))
                for key in ("pages", "images", "errors")
            }

        totals = _totals_from_metrics()
        round_retries_left = max(0, int(cfg.round_retries))

        # broadcast the synthetic pages index once (ray.put → read per actor
        # from the shared object store; never re-shipped per batch). With
        # on-demand image synthesis the image rows are pruned — the index
        # holds only the small non-image pages; a frontier-only fixture may
        # have no pages.parquet at all.
        import pyarrow.parquet as pq

        pages_path = os.path.join(cfg.fixture_dir, "pages.parquet")
        if os.path.exists(pages_path):
            pages_table = pq.read_table(
                pages_path, columns=["url", "payload", "status", "kind"]
            )
            if cfg.synth_images is not None:
                pages_table = pages_table.filter(
                    pc.invert(pc.equal(pages_table["kind"], "image"))
                )
            pages_ref = ray.put(pages_table.drop_columns(["kind"]))
        else:
            pages_ref = None

        # stable per-crawl stage args (shipped ONCE; per-round sinks are
        # set on the worker-cached stage per call, so workers build the
        # stage once for the whole crawl, not once per round)
        def _make_base_args_ref():
            return ray.put(
                (
                    pages_ref,
                    self.politeness,
                    self.seen,
                    self.robots_txt,
                    cfg.max_attempts,
                    cfg.synth_images,
                    cfg.fetcher,
                    cfg.http_opts,
                )
            )

        base_args_ref = _make_base_args_ref()

        # a pending seed round (frontier_rows None) runs only if the seed
        # list has rows: an empty one has nothing to read
        seed_rows = pq.read_metadata(seeds_path).num_rows
        rnd = start_round
        while rnd < cfg.max_rounds and (
            seed_rows if frontier_rows is None else frontier_rows
        ) > 0:
            if self._actors_respawned:
                # a healed state actor means every worker-cached stage holds
                # DEAD handles — re-put the broadcast args (new object ref =
                # new cache key) so workers rebuild against the live actors
                base_args_ref = _make_base_args_ref()
                self._actors_respawned = False
            width = int(ray.cluster_resources().get("CPU", cfg.fetch_concurrency))
            # the round's task target; also the number of host buckets its
            # tasks split the next frontier into (io.write_bucketed)
            target = width * _BLOCKS_PER_CPU

            # every output class sinks IN-STAGE (images, entities, errors,
            # successors+backlog): the round is ONE streaming execution whose
            # visible output is a handful of stat rows — no branch re-scans,
            # no driver-side frontier/entity data, and the frontier
            # fragments land directly in the checkpoint staging dir
            sinks = {**outputs, "frontier": self.ckpt.begin_round(rnd)}
            seeds_dir = None  # round 0's bucketed seed list
            # every round is one round_fn call per host-complete group of
            # its frontier, with NO exchange: the frontier is stored
            # host-bucketed, and the read hands each task the rows of whole
            # buckets as one block — fused per-host SELECT (quota) +
            # PROCESS, with backlog rows written back to the next frontier.
            # The driver never touches a frontier row. The group count
            # tracks the KNOWN frontier size (a driver counter; round 0's
            # from the seed file's footer): a small frontier is one group
            # (tail rounds of a BFS crawl are mostly this case), a big one
            # fans out to the full task target; the read caps it at the
            # non-empty buckets
            est_rows = seed_rows if frontier_rows is None else frontier_rows
            n_groups = 1 if est_rows <= max(512, cfg.batch_size * 2) else (
                max(2, min(target, -(-est_rows // max(64, cfg.batch_size))))
            )
            round_fn = process.make_round_fn(
                base_args_ref,
                cfg.quota_per_host,
                cfg.batch_size,
                rnd,  # round 0 admits seeds (robots + seen) in the round fn
                sinks,
                buckets=target,
                fail_once_marker=cfg.fail_once_marker,
                kill_actor_once_marker=cfg.kill_actor_once_marker,
            )
            if frontier_source is None and cfg.quota_per_host >= seed_rows:
                # round 0 under a quota no host can reach (the exact seed
                # count from the footer, not an estimate): every grouping
                # selects every seed, so the seed file is read directly in
                # n_groups balanced blocks, with no staging pass. Staging
                # would put each host's seeds in one call, and a skewed seed
                # list (zipf hosts) would then serialize on its top host
                src = rd.read_parquet(
                    seeds_path, override_num_blocks=n_groups,
                    ray_remote_args={"max_retries": 0},
                ).map_batches(
                    _seed_batch_to_frontier, batch_format="pyarrow",
                    batch_size=None, max_retries=0,
                )
            else:
                src_dir = frontier_source
                if src_dir is None:
                    # round 0 reads the seed list like any frontier: a
                    # map-only pass through the stage's writer first stores
                    # it host-bucketed
                    seeds_dir = os.path.join(
                        os.path.dirname(sinks["frontier"]), "seeds"
                    )
                    _stage_seed_frontier(seeds_path, seeds_dir, n_groups)
                    src_dir = seeds_dir
                src = read_parts(
                    src_dir, override_num_blocks=n_groups,
                    ray_remote_args={"max_retries": 0},
                )
            # batch_size=None: each block — one host-complete group — is
            # exactly one round_fn call. The read carries the same
            # max_retries so Ray fuses it with round_fn: an unfused read
            # would slice a group above target_max_block_size into several
            # blocks, and each piece would get the full quota (the quota
            # guard fails such a round). Side-effecting stage: the round,
            # not the task, is the retry unit (see CrawlConfig.round_retries)
            processed = src.map_batches(
                round_fn, batch_format="pyarrow", batch_size=None,
                max_retries=0,
            )

            # the round output is ONLY stat rows: every data class sank
            # in-stage, so a single small collect drives the execution.
            # Stage tasks run with max_retries=0 (a retried task would see
            # its own first attempt's seen-set inserts and silently drop
            # those URLs), so any task failure surfaces HERE, and any
            # failure up to the checkpoint rolls the whole round back to
            # the last complete checkpoint and re-runs it.
            try:
                stats = processed.to_pandas()
                if seeds_dir is not None:
                    shutil.rmtree(seeds_dir)  # round 0 has read it
                frontier_rows = self._close_round(rnd, stats, sinks,
                                                  frontier_rows, totals)
            except Exception:
                if round_retries_left <= 0:
                    raise
                round_retries_left -= 1
                rnd = _rollback_to_latest()  # heals dead state actors first
                totals = _totals_from_metrics()
                continue
            frontier_source = self.ckpt.frontier_dir(rnd)
            # advance virtual politeness clocks one round-tick
            for p in self.politeness:
                p.advance_clock.remote(1.0)
            if stop_after_round is not None and rnd >= stop_after_round:
                rnd += 1
                break
            rnd += 1

        return CrawlResult(
            rounds=rnd,
            pages_fetched=totals["pages"],
            images_written=totals["images"],
            errors=totals["errors"],
            seen_size=self.seen.size(),
            metrics=self.metrics,
            out_dir=cfg.out_dir,
        )

    def _close_round(self, rnd: int, stats: pd.DataFrame, sinks: dict,
                     in_frontier: int | None, totals: dict) -> int:
        """The round barrier, from the round's stat rows: per-host metrics
        and the quota guard; one commit per sink of exactly the fragment
        entries the rows carry (round 0 overwrites each output sink, even
        with none, so a fresh run starts clean; later rounds append; the
        frontier is one ``create``); then the checkpoint, whose lineage
        records every output sink's committed version. Returns the next
        frontier's row count."""
        parts = stats[stats["row_type"] == "part"]
        part_rows = parts.groupby("kind")["status"].sum()
        s = stats.groupby("row_type")["status"].sum()
        n_imgs = int(part_rows.get("images", 0))
        n_dead = int(s.get("error_stat", 0))
        n_backlog = int(s.get("backlog_stat", 0))
        n_next = int(part_rows.get("frontier", 0))

        # --- metrics: pages by (host, kind) from the in-stage sel_stat
        # summary rows (one per (host, kind) per call). The per-host
        # rows go to the round's CHECKPOINT dir, not the driver dict —
        # at millions of hosts a dict accumulating hosts × rounds rows
        # is driver state the de-drivered frontier otherwise avoids
        # (round-2 VERDICT #5); the driver keeps scalar per-round totals
        # only.
        mdf = (
            stats[stats["row_type"] == "sel_stat"]
            .groupby(["host", "kind"], sort=True)["status"]
            .sum()
            .reset_index()
            .rename(columns={"status": "pages"})
        )
        edf = (
            stats[stats["row_type"] == "error_stat"]
            .groupby(["host", "kind"], sort=True)["status"]
            .sum()
            .reset_index()
            .rename(columns={"status": "errors"})
        )
        mdf = mdf.merge(edf, on=["host", "kind"], how="outer", sort=True)
        mdf["pages"] = mdf["pages"].fillna(0).astype("int64")
        mdf["errors"] = mdf["errors"].fillna(0).astype("int64")
        # quota guard: a host group split over two round_fn calls gets
        # the quota once per piece, and it over-selects exactly when
        # the pieces' sum exceeds the quota — so this check is complete
        per_host = mdf.groupby("host", sort=True)["pages"].sum()
        over = per_host[per_host > self.cfg.quota_per_host]
        if len(over):
            raise RuntimeError(
                f"round {rnd}: host {over.index[0]!r} selected "
                f"{int(over.iloc[0])} pages, over its quota of "
                f"{self.cfg.quota_per_host} (a host group was split across "
                f"round_fn calls)"
            )

        entries: dict[str, list] = {name: [] for name in sinks}
        for name, entry in zip(parts["kind"], parts["entry"]):
            entries[name].append(json.loads(entry))
        versions = {}
        for name, uri in sinks.items():
            mode = ("create" if name == "frontier"
                    else "overwrite" if rnd == 0 else "append")
            v = minilance.commit(uri, process.SINKS[name], entries[name], mode)
            if name != "frontier":
                versions[name] = v

        self.ckpt.write_host_metrics(
            rnd, pa.Table.from_pandas(mdf, preserve_index=False)
        )
        n_pages = int(mdf["pages"].sum())
        self.metrics[f"round_{rnd:04d}"] = {
            "pages": n_pages,
            "hosts": int(mdf["host"].nunique()),
        }
        totals["pages"] += n_pages
        totals["images"] += n_imgs
        totals["errors"] += n_dead
        self.metrics["_totals"] = dict(totals)
        self.lineage[f"round_{rnd:04d}"] = {
            "in_frontier": -1 if in_frontier is None else int(in_frontier),
            "selected": n_pages,
            "backlog": n_backlog,
            "successors": n_next - n_backlog,
            "images": n_imgs,
            "errors": n_dead,
            "prev_round": rnd - 1,
            "versions": versions,
        }
        self.ckpt.save_round(
            rnd, self.seen.snapshot(), self.metrics, self.lineage
        )
        return n_next

    # ------------------------------------------------------------------
    def images_dataset(self) -> rd.Dataset:
        uri = os.path.join(self.cfg.out_dir, "images")
        if not minilance.is_dataset(uri):
            return rd.from_arrow(schemas.IMAGES.empty_table())
        return read_parts(uri)


def read_images_table(out_dir: str) -> pa.Table:
    """All written image rows, sorted by image_id (the comparison order)."""
    t = read_parts_table(os.path.join(out_dir, "images"))
    if t is None:
        return schemas.IMAGES.empty_table()
    return t.cast(schemas.IMAGES).sort_by("image_id")
