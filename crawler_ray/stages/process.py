"""Fused per-round crawl stage: fetch → (image decode/hash/dedup | parse →
robots filter → seen anti-join) in a single task-mode ``map_batches``.

Why fused: between fetch and parse/decode there is no shuffle, so splitting
them into separate ``map_batches`` stages only adds an extra object-store
hop per round (Ray Data fuses adjacent map stages for the same reason). The
stage runs as plain tasks, not an actor pool: Ray Data starts a pool per
execution, i.e. per round, while task workers are pre-started and reused,
so the stage is built once per worker per crawl
(``context.worker_cached``). The state that must be shared — seen-set and
politeness — lives in state actors the stage holds handles to. Every crawl
round runs ``make_round_fn``: seed admission (round 0 only), per-host
selection (``select_per_host``), then this stage over the selected rows.

Output: every row class goes straight to its sink where it is produced, as
one fragment per class per call (``sources/io.write_part``). Each sink is
one minilance dataset, named by its dir (``SINKS``: name → schema):

    images            — first-seen image content (``schemas.IMAGES``)
    tables/categories — category entity records (JSON in ``record``)
    tables/products   — product entity records (JSON in ``record``)
    tables/brands     — first-wins brand records (JSON in ``record``)
    errors            — dead letters (fetch status ≠ 200, undecodable
                        image, parse failure)
    tables/pages      — page fetch metadata (``etag``, ``last_modified``)
                        and the ``round`` that fetched it
    frontier          — robots-allowed first-seen successors, plus the
                        call's backlog, host-bucketed once per call by
                        ``flush_frontier`` (``io.write_bucketed``)

The output sinks sit under the crawl's out dir, the frontier under the
round's checkpoint dir. A fragment is invisible until the driver commits
it: a call returns only stat rows ``(row_type, host, kind, status,
entry)``. Each fragment written gives one ``part`` row (``kind`` = sink,
``status`` = its rows, ``entry`` = its manifest entry as JSON), the rows the
driver commits at the round barrier. The count rows have no entry:
``backlog_stat``, and per-(host, kind) ``sel_stat`` selection and
``error_stat`` dead-letter counts. They are all the driver reads of a
round.

Determinism contract: the seen-SET after a round is independent of actor
scheduling (set membership is insertion-order-free); successor/image *rows*
carry deterministic keys so all downstream tables compare after sort-by-key.
Within-round caption ties for duplicate image content resolve to whichever
copy reached the shard first — byte-identical outputs are guaranteed when
captions are content-consistent (true for the synthetic site; a real site's
alt-texts may differ per link, in which case caption is 'first discovered').
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from crawler_ray import schemas
from crawler_ray.context import worker_cached
from crawler_ray.functions.codecs import decode_image, sniff_fmt
from crawler_ray.functions.hashing import md5_hex, phash64
from crawler_ray.sources import io
from crawler_ray.stages.fetch import SyntheticFetchStage
from crawler_ray.stages.parse import _PARSERS
from crawler_ray.state.politeness import RobotsCache

# all a stage call or round call returns: ``status`` holds a row count,
# ``entry`` a written fragment's uncommitted manifest entry
STAT_SCHEMA = pa.schema(
    [
        ("row_type", pa.string()),
        ("host", pa.string()),
        ("kind", pa.string()),
        ("status", pa.int32()),
        ("entry", pa.string()),
    ]
)


def _cols(names: str, **typed) -> pa.Schema:
    return pa.schema([(n, typed.get(n, pa.string())) for n in names.split()])


_ENTITY = _cols("url host kind seed_id record")
# row class → (sink, columns it writes), in the order a call writes them
_SINKS = {
    "category": ("tables/categories", _ENTITY),
    "product": ("tables/products", _ENTITY),
    "brand": ("tables/brands", _cols("host kind record")),
    "error": ("errors", _cols("url host kind seed_id status attempt",
                              status=pa.int32(), attempt=pa.int32())),
    "page": ("tables/pages",
             _cols("url host kind seed_id status etag last_modified round",
                   status=pa.int32(), round=pa.int32())),
    "succ": ("frontier", schemas.FRONTIER),
}
# every sink a round writes → its schema; the driver commits each one
SINKS = {"images": schemas.IMAGES, **dict(_SINKS.values())}


def _stat_table(stats: list[tuple]) -> pa.Table:
    return pa.Table.from_pylist(
        [dict(zip(STAT_SCHEMA.names, s)) for s in stats], schema=STAT_SCHEMA
    )


def _part_stat(sink: str, entry: dict) -> tuple:
    """The stat row that carries a written fragment's entry to the
    driver."""
    return ("part", "", sink, entry["rows"], json.dumps(entry))


def _cached_stage(init_args_ref, sinks: dict, buckets: int, rnd: int
                  ) -> "CrawlProcessStage":
    import ray

    key = init_args_ref.hex() if hasattr(init_args_ref, "hex") else str(init_args_ref)
    # built once per worker per crawl: Ray pre-starts and reuses worker
    # processes, so this replaces an actor-pool spin-up per round
    stage = worker_cached(
        "crawl_stage", key, lambda: CrawlProcessStage(*ray.get(init_args_ref))
    )
    stage.sinks = sinks
    stage.buckets = buckets
    stage.round = rnd
    # frontier rows a failed call left unflushed belong to a round that is
    # rolled back; they must not reach this call's frontier
    stage.frontier_rows = []
    return stage


_FRONTIER_COLS = schemas.FRONTIER.names


def select_per_host(df: pd.DataFrame, quota: int
                    ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Per-host top-``quota`` selection (O1 priority frontier): within each
    host, rows rank by (priority desc, url asc) — deterministic and
    arrival-order-free, so any host-complete grouping of a frontier selects
    the same rows. Returns (selected, backlog), both in (host, priority
    desc, url) order."""
    df = df.sort_values(["host", "priority", "url"],
                        ascending=[True, False, True], kind="mergesort")
    sel = (df.groupby("host", sort=False).cumcount() < quota).to_numpy()
    return df[sel], df[~sel]


def make_round_fn(init_args_ref, quota: int, batch_size: int,
                  rnd: int, sinks: dict, buckets: int,
                  fail_once_marker: str | None = None,
                  kill_actor_once_marker: str | None = None):
    """Fused ADMIT + SELECT + PROCESS for one host-complete group of the
    frontier: the caller hands each call ALL rows of the hosts it holds, in
    one block (``map_batches(batch_size=None)`` over a read of whole
    buckets), so no exchange runs in front of it. Round 0 (``rnd == 0``)
    admits seeds: the robots filter and seen anti-join drop seed rows
    before selection. Its source is the seed list staged into buckets the
    same way, or, when the quota is at least the whole seed count (no
    host can exceed it, so any grouping selects every row), the seed file
    read directly. ``select_per_host`` runs where the group's rows already
    are. Unselected rows go to the next round's frontier as backlog
    and selected rows are processed in ``batch_size`` chunks by the cached
    CrawlProcessStage, which writes every row class to its sink in
    ``sinks``; the call's backlog and successors are written once, at its
    end, host-bucketed into ``buckets`` buckets. The frontier therefore
    never exists on the driver: selection, backlog carry-over and fetching
    all happen inside one distributed execution. The call returns
    ``STAT_SCHEMA`` rows only: per-(host,kind) ``sel_stat`` selection
    counts, ``backlog_stat``, the stage's stat rows and one ``part`` row
    per frontier fragment."""

    def round_fn(group: pa.Table) -> pa.Table:
        if fail_once_marker is not None:
            # fault-injection hook (tests only): the FIRST task to claim the
            # marker file dies mid-round — possibly after partial sink
            # writes and seen-set mutations — exercising the driver's
            # round-level rollback-and-retry path under a real distributed
            # failure. O_EXCL makes exactly one task across the cluster fail.
            import os as _os

            try:
                _os.close(_os.open(
                    fail_once_marker, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY
                ))
                raise RuntimeError("injected round failure (fail_once_marker)")
            except FileExistsError:
                pass
        stage = _cached_stage(init_args_ref, sinks, buckets, rnd)
        if kill_actor_once_marker is not None:
            # fault-injection hook (tests only): the FIRST task to claim the
            # marker KILLS a seen-shard STATE ACTOR mid-round (no_restart —
            # simulating node loss), then proceeds; its own seen-set RPCs
            # fail with RayActorError, the round dies, and the driver must
            # respawn the shard (SeenSet.heal) + restore from checkpoint.
            import os as _os

            import ray as _ray

            try:
                _os.close(_os.open(
                    kill_actor_once_marker,
                    _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY,
                ))
                _ray.kill(stage.seen.shards[0], no_restart=True)
            except FileExistsError:
                pass
        group = group.select(_FRONTIER_COLS)
        if rnd == 0:
            # seed admission BEFORE selection: blocked/seen rows never take
            # quota slots and never reach the backlog
            group = stage._admit(group)
        sdf, backlog = select_per_host(group.to_pandas(), quota)
        stats: list[tuple] = []
        outs: list[pa.Table] = []
        if len(backlog):
            # backlog rows go to the next-round frontier with the
            # successors (flushed together below)
            stage.frontier_rows.append(
                pa.Table.from_pandas(backlog, preserve_index=False)
                .select(_FRONTIER_COLS)
            )
            stats.append(("backlog_stat", "", "backlog", len(backlog)))
        if len(sdf):
            # per-(host,kind) selection accounting for driver metrics
            cnt = sdf.groupby(["host", "kind"], sort=True).size()
            stats += [("sel_stat", h, k, int(n)) for (h, k), n in cnt.items()]
            sel_t = pa.Table.from_pandas(sdf, preserve_index=False)
            for c0 in range(0, len(sdf), batch_size):
                outs.append(stage(sel_t.slice(c0, batch_size)))
        stats += stage.flush_frontier()
        return pa.concat_tables([_stat_table(stats), *outs])

    return round_fn


class CrawlProcessStage:
    """``frontier batch -> STAT_SCHEMA rows``, every row class written to
    its sink on the way; one instance per worker process."""

    def __init__(self, pages_ref, politeness, seen, robots_txt: dict[str, str],
                 max_attempts: int = 3, synth_images: dict | None = None,
                 fetcher: str = "synthetic", http_opts: dict | None = None):
        if fetcher == "http":
            from crawler_ray.stages.fetch import HttpFetchStage

            self.fetch = HttpFetchStage(
                politeness, max_attempts, **(http_opts or {})
            )
        else:
            self.fetch = SyntheticFetchStage(
                pages_ref, politeness, max_attempts, synth_images=synth_images
            )
        self.seen = seen
        self.robots = RobotsCache(lambda host: robots_txt.get(host))
        self.has_robots_rules = bool(robots_txt)
        # per-call state, which _cached_stage sets: the round's sink uris
        # (one per name of ``SINKS``), the frontier's host-bucket count,
        # the round number (the pages rows carry it), and the frontier rows
        # (successors, backlog) held until ``flush_frontier``. A fragment is
        # invisible until the driver commits it, but the seen-set mutation
        # is NOT idempotent, which is why crawl.py disables Ray task
        # retries and retries whole ROUNDS from the checkpoint instead
        self.sinks: dict[str, str] = {}
        self.buckets = 1
        self.round = 0
        self.frontier_rows: list[pa.Table] = []

    def _admit(self, batch: pa.Table) -> pa.Table:
        """Seed admission: drop robots-disallowed rows, then the rows whose
        URL the seen-set already holds (marking the rest seen)."""
        urls = batch["url"].to_pylist()
        if self.has_robots_rules:
            allowed = self.robots.allowed(urls)
            if not allowed.all():
                batch = batch.filter(pa.array(allowed))
                urls = [u for u, a in zip(urls, allowed) if a]
        if not urls:
            return batch
        seen_mask = self.seen.check_and_insert(urls)
        return batch.filter(pa.array(~seen_mask)) if seen_mask.any() else batch

    def _process_images(self, fetched: pa.Table, errors: list[dict]
                        ) -> list[tuple]:
        """Vectorized image path: columnar in/out, per-row work is only the
        codec/hash kernels — no per-row dict building (measured ~0.5 ms/row
        of pure-python overhead at breadth scale). Writes the first-seen
        images to the images sink and returns its stat row; a payload that
        does not decode is dead-lettered into ``errors``."""
        mask = pa.compute.and_(
            pa.compute.equal(fetched["kind"], "image"),
            pa.compute.equal(fetched["status"], 200),
        )
        imgs = fetched.filter(mask)
        if imgs.num_rows == 0:
            return []
        payloads = imgs["payload"].to_pylist()
        captions = imgs["caption"].to_pylist()
        # md5 first (cheap) → issue the seen-set RPC asynchronously → the
        # decode/phash loop below OVERLAPS the shard round-trip, hiding the
        # membership latency entirely behind per-batch compute
        all_ids = [md5_hex(d) for d in payloads]
        pending = self.seen.check_and_insert_async(["img:" + i for i in all_ids])
        ws, hs, fmts, hashes, keep = [], [], [], [], []
        bad: list[int] = []
        for i, data in enumerate(payloads):
            fmt = sniff_fmt(data)
            try:
                px = decode_image(data, fmt)
            except Exception:
                # corrupt/truncated 200-status payload: dead-letter it like
                # every other failure class (status 422, unprocessable) —
                # silently skipping would leave selected != images + errors
                # in the lineage accounting and hide the failure entirely
                bad.append(i)
                continue
            keep.append(i)
            ws.append(px.shape[1])
            hs.append(px.shape[0])
            fmts.append(fmt)
            hashes.append(phash64(px))
        if bad:
            rows = imgs.select(["url", "host", "kind", "seed_id"]).take(
                pa.array(bad, pa.int64())).to_pylist()
            errors += [dict(r, status=422, attempt=0) for r in rows]
        dup = type(self.seen).gather(pending)[np.asarray(keep, dtype=np.int64)]
        new = [j for j, d in enumerate(dup) if not d]
        if not new:
            return []
        ids = [all_ids[keep[j]] for j in new]
        table = pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array([payloads[keep[j]] for j in new], pa.binary()),
                "w": pa.array([ws[j] for j in new], pa.int32()),
                "h": pa.array([hs[j] for j in new], pa.int32()),
                "fmt": pa.array([fmts[j] for j in new], pa.string()),
                "caption": pa.array([captions[keep[j]] for j in new], pa.string()),
                "phash": pa.array([hashes[j] for j in new], pa.int64()),
            }
        )
        return [_part_stat("images", io.write_part(table, self.sinks["images"]))]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: dict[str, list[dict]] = {row_type: [] for row_type in _SINKS}
        fetched = self.fetch(batch)

        # redirect chains become FRONTIER DATA (HttpResponse.cs:39-66
        # semantics, Ray-Data-shaped): a 3xx row contributes a successor at
        # the resolved absolute target — it then flows through the normal
        # robots filter + seen anti-join + per-host quota like any link
        if "redirect_url" in fetched.column_names:
            is_redir = pa.compute.and_(
                pa.compute.greater_equal(fetched["status"], 300),
                pa.compute.less(fetched["status"], 400),
            )
            redirs = fetched.filter(is_redir)
            if redirs.num_rows:
                from crawler_ray.functions.urls import normalize_url, url_host

                for r in redirs.to_pylist():
                    target = r["redirect_url"]
                    if not target:
                        rows["error"].append(r)
                        continue
                    target = normalize_url(target)
                    rows["succ"].append(
                        {"url": target, "host": url_host(target),
                         "kind": r["kind"], "depth": r["depth"] + 1,
                         "priority": r["priority"], "seed_id": r["seed_id"],
                         "caption": r.get("caption", "")}
                    )
            fetched = fetched.filter(pa.compute.invert(is_redir)).drop_columns(
                ["redirect_url"]
            )

        # vectorized image path (typically the bulk of a breadth round)
        stats = self._process_images(fetched, rows["error"])

        # page + error rows: row-at-a-time is fine (control-plane volumes)
        rest = fetched.filter(
            pa.compute.or_(
                pa.compute.invert(pa.compute.equal(fetched["kind"], "image")),
                pa.compute.invert(pa.compute.equal(fetched["status"], 200)),
            )
        )
        for r in rest.to_pylist():
            if r["status"] != 200:
                rows["error"].append(r)
                continue
            if r["kind"] == "image":
                continue  # handled above (only non-200 images reach here)
            # page fetch metadata: the (url, etag, last_modified) row the
            # refresh loop's conditional-GET sweep revalidates against
            # (validators are captured by HttpFetchStage; the synthetic
            # fetcher has none and the columns default to "")
            rows["page"].append(dict(
                r, etag=r.get("etag") or "",
                last_modified=r.get("last_modified") or "", round=self.round,
            ))
            # page: parse (M1 envelope + per-kind parser)
            try:
                # charset/BOM-sniffed decode (FileHelper.cs:273-314 parity)
                from crawler_ray.functions.codecs import decode_text

                doc = json.loads(decode_text(r["payload"]))
                ok = bool(doc.get("IsSuccess"))
            except (ValueError, UnicodeDecodeError):
                doc, ok = None, False
            if not ok:
                rows["error"].append(dict(r, status=422, attempt=1))
                continue
            parser = _PARSERS.get(r["kind"])
            if parser:
                for p in parser(doc, r):
                    rows[p["row_type"]].append(p)

        # successors: robots filter THEN seen anti-join — a blocked URL is
        # never visited, so it stays unmarked (a later robots change could
        # admit it)
        succ = rows["succ"]
        if succ:
            allowed = self.robots.allowed([r["url"] for r in succ])
            succ = [r for r, a in zip(succ, allowed) if a]
        if succ:
            seen_mask = self.seen.check_and_insert([r["url"] for r in succ])
            succ = [r for r, s in zip(succ, seen_mask) if not s]
        rows["succ"] = succ

        # brand first-wins upsert (J1, ShiweijiaProduct.cs:228-240): the
        # seen set IS the lookup-or-insert — one brand row ever, globally,
        # and row content is discovery-independent so the winner is
        # byte-irrelevant
        brands = rows["brand"]
        if brands:
            dupb = self.seen.check_and_insert(
                ["brand:" + r["host"] + ":" + r["caption"] for r in brands]
            )
            rows["brand"] = [r for r, dup in zip(brands, dupb) if not dup]

        for row_type, (sink, schema) in _SINKS.items():
            class_rows = rows[row_type]
            if not class_rows:
                continue
            table = pa.Table.from_pylist(class_rows, schema=schema)
            if sink == "frontier":
                self.frontier_rows.append(table)
                continue
            stats.append(_part_stat(sink, io.write_part(table, self.sinks[sink])))
            if row_type == "error":
                # per-(host, kind) counts, like sel_stat, so the round's
                # host_metrics report real per-host error counts
                n = Counter((r["host"], r["kind"]) for r in class_rows)
                stats += [("error_stat", h, k, c) for (h, k), c in n.items()]
        return _stat_table(stats)

    def flush_frontier(self) -> list[tuple]:
        """Write the frontier rows held since the last flush as one fragment
        per host bucket they touch, and return their ``part`` stat rows.
        Called once per task-level call, so a round's frontier has at most
        (calls × buckets) fragments however many chunks each call
        processed."""
        if not self.frontier_rows:
            return []
        rows = pa.concat_tables(self.frontier_rows)
        self.frontier_rows = []
        entries = io.write_bucketed(rows, self.sinks["frontier"], self.buckets)
        return [_part_stat("frontier", e) for e in entries]
