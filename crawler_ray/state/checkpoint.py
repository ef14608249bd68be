"""Per-round crawl checkpointing (north rule: resumable from checkpoint with
per-partition lineage + metrics).

The reference has no mid-run checkpoint — only a coarse DB warm start
(``BaseSpider.cs:50-59``) and a 3-second background img flush
(``BaseSpider.cs:146-162``). Here every BFS round writes an atomic checkpoint:

    <dir>/round_0007/
        frontier/             # the frontier entering the NEXT round:
          bucket=0003/        #   host-bucketed minilance parts; a host's
            part-<digest>.lance  # rows all sit in bucket hash(host) % B
        host_metrics.parquet  # per-(host, kind) page/error counts
        seen_shards.pkl       # cuckoo+bloom+exact snapshot per shard
        metrics.json          # cumulative per-host/kind counters
        lineage.json          # round -> input/output row counts + upstream round
        _COMPLETE             # written last; resume only trusts complete rounds

B is the writing round's task target (cluster CPUs × blocks per CPU). It is
not recorded: each frontier dir describes itself by its ``bucket=NNNN``
subdirs, and a reader only needs every host inside one of them, so a
resume at another width simply writes later rounds with another B. Each
task-level stage call writes its frontier rows once, so a bucket dir holds
at most one part per read group of the writing round. While a quota-path
round 0 runs, ``round_0000.tmp/seeds/`` holds the seed list, staged in the
same layout with one bucket per round-0 read group.

Output images land in ``<dir>/images/round_%04d/`` — one directory per round
partition, so a resumed run skips rounds that already produced output
(resumable-output layout, SURVEY.md §4 checkpoint row).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil

import pyarrow as pa


class CheckpointManager:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _round_dir(self, rnd: int) -> str:
        return os.path.join(self.root, f"round_{rnd:04d}")

    def images_dir(self, rnd: int) -> str:
        return os.path.join(self.root, "images", f"round_{rnd:04d}")

    def frontier_dir(self, rnd: int) -> str:
        """Directory holding the frontier entering round ``rnd + 1``."""
        return os.path.join(self._round_dir(rnd), "frontier")

    def begin_round(self, rnd: int) -> str:
        """Create the round's STAGING dir and return its frontier subdir.
        The round's distributed stage tasks write successor/backlog
        parts straight into it (the frontier never lands on the driver;
        VERDICT round-1 item #5); ``save_round`` then completes the staging
        dir and atomically renames it."""
        tmp = self._round_dir(rnd) + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        fdir = os.path.join(tmp, "frontier")
        os.makedirs(fdir)
        return fdir

    def write_host_metrics(self, rnd: int, table: pa.Table) -> None:
        """Per-(host, kind) metric rows for the round → the round's STAGING
        dir (published atomically by ``save_round``). Keeps the driver's
        metrics dict O(rounds) instead of O(hosts × rounds); consumers read
        them back per round with ``read_host_metrics``."""
        import pyarrow.parquet as pq

        tmp = self._round_dir(rnd) + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(table, os.path.join(tmp, "host_metrics.parquet"))

    def read_host_metrics(self, rnd: int) -> pa.Table | None:
        import pyarrow.parquet as pq

        p = os.path.join(self._round_dir(rnd), "host_metrics.parquet")
        return pq.read_table(p) if os.path.exists(p) else None

    @staticmethod
    def _fsync_tree(root: str) -> None:
        """fsync every file and directory under ``root`` (and ``root``
        itself) so a power loss cannot leave journaled metadata pointing at
        unflushed data blocks — the durability barrier _COMPLETE relies on."""
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            fd = os.open(dirpath, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    @staticmethod
    def _fsync_path(path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def save_round(
        self,
        rnd: int,
        seen_snapshot: list[dict],
        metrics: dict,
        lineage: dict,
    ) -> None:
        """Atomic AND durable: completes the staging dir from
        ``begin_round`` (creating it if the round had no begin call), fsyncs
        every file in it (including the frontier parts the stage tasks
        wrote), renames it into place, fsyncs the parent, and only then
        writes + fsyncs the ``_COMPLETE`` marker — so a complete marker can
        never survive a power loss that the round's data did not.

        Durability boundary: the barrier covers everything resume TRUSTS
        (frontier parts, seen shards, metrics/lineage). Output-table parts
        (images/, tables/) are not fsynced here — the hot sink path stays
        fsync-free for throughput; on real deployments they land on shared
        storage with its own durability, and rounds after the last complete
        marker are pruned + re-run on resume anyway."""
        final = self._round_dir(rnd)
        tmp = final + ".tmp"
        os.makedirs(os.path.join(tmp, "frontier"), exist_ok=True)
        with open(os.path.join(tmp, "seen_shards.pkl"), "wb") as f:
            pickle.dump(seen_snapshot, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        with open(os.path.join(tmp, "metrics.json"), "w") as f:
            json.dump(metrics, f)
            f.flush()
            os.fsync(f.fileno())
        with open(os.path.join(tmp, "lineage.json"), "w") as f:
            json.dump(lineage, f)
            f.flush()
            os.fsync(f.fileno())
        self._fsync_tree(tmp)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        self._fsync_path(self.root)  # persist the rename itself
        with open(os.path.join(final, "_COMPLETE"), "w") as f:
            f.write("ok")
            f.flush()
            os.fsync(f.fileno())
        self._fsync_path(final)

    def latest_complete_round(self) -> int | None:
        best = None
        if not os.path.isdir(self.root):
            return None
        for name in os.listdir(self.root):
            if name.startswith("round_") and not name.endswith(".tmp"):
                d = os.path.join(self.root, name)
                if os.path.exists(os.path.join(d, "_COMPLETE")):
                    rnd = int(name.split("_")[1])
                    best = rnd if best is None else max(best, rnd)
        return best

    def load_round(self, rnd: int) -> tuple[str, list[dict], dict, dict]:
        """Returns (frontier_dir, seen snapshot, metrics, lineage). The
        frontier stays on disk — callers read it as a Dataset. A frontier
        dir with parts directly in it (no ``bucket=`` subdirs) was written
        by the older unbucketed layout: its hosts are not co-partitioned,
        so it is rejected before any part is read."""
        d = self._round_dir(rnd)
        fdir = self.frontier_dir(rnd)
        if os.path.isdir(fdir) and any(
            n.endswith(".lance") for n in os.listdir(fdir)
        ):
            raise ValueError(
                f"frontier dir {fdir} holds parts without bucket= subdirs: "
                "it was written by the older unbucketed layout and cannot be "
                "resumed; start the crawl afresh"
            )
        with open(os.path.join(d, "seen_shards.pkl"), "rb") as f:
            snaps = pickle.load(f)
        with open(os.path.join(d, "metrics.json")) as f:
            metrics = json.load(f)
        with open(os.path.join(d, "lineage.json")) as f:
            lineage = json.load(f)
        return self.frontier_dir(rnd), snaps, metrics, lineage

    def prune_rounds_after(self, rnd: int) -> None:
        """Drop incomplete/later state so a resume is consistent (images from
        later rounds are removed — they were produced after the checkpoint)."""
        for name in list(os.listdir(self.root)):
            if name.startswith("round_"):
                try:
                    r = int(name.split("_")[1].split(".")[0])
                except ValueError:
                    continue
                if r > rnd or name.endswith(".tmp"):
                    shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
        roots = [os.path.join(self.root, "images"),
                 os.path.join(self.root, "errors"),
                 os.path.join(self.root, "tables", "categories"),
                 os.path.join(self.root, "tables", "brands"),
                 os.path.join(self.root, "tables", "products"),
                 os.path.join(self.root, "tables", "pages")]
        import re

        round_re = re.compile(r"^round_(\d+)$")
        for root in roots:
            if os.path.isdir(root):
                for name in list(os.listdir(root)):
                    m = round_re.match(name)
                    # skip stray files / .tmp leftovers — only round_NNNN
                    # entries are ours to prune (round-2 advice)
                    if m and int(m.group(1)) > rnd:
                        shutil.rmtree(os.path.join(root, name), ignore_errors=True)
