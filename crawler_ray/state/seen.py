"""Sharded URL/image seen-set: cuckoo-filter actors with bloom overflow and
exact verification — the engine's ``check_and_insert`` service (north rule).

Replaces the reference's two dedup mechanisms with one structure:
- image-MD5 semi/anti join (``BaseSpider.cs:272-287``, the ``ImgList`` bag),
- the disabled Redis ``SetEntryInHashIfNotExists`` seen-set
  (``RedisHashService.cs:29-32``, ``BaseSpider.cs:276,310``).

Keys are md5-folded uint64; routing is ``hash % num_shards`` so a batch fans
out to every shard at most once (one RPC per shard per batch, not per key).
Each shard: cuckoo filter (fast approximate membership) + exact uint64 set
(removes cuckoo false positives) + bloom overflow for keys the cuckoo
rejects at high load. "Exact" is exact ON THE 64-BIT FOLD: membership is
deterministic and run/parallelism-invariant (the bit-identical contract the
tests verify), but two DISTINCT URLs whose md5s collide in the first 8
bytes alias — the second is treated as seen and never crawled. Expected
collisions ≈ n²/2⁶⁵: ~0 at test scale, ~2.7 at the 10^10-URL design point —
a bounded, quantified completeness loss, not a correctness loss (widen the
fold to 128 bits if even that is unacceptable).

Shards snapshot/restore for per-round checkpointing.
"""

from __future__ import annotations

import numpy as np
import ray

from crawler_ray.state.filters import BloomFilter, CuckooFilter, keys_to_u64


class _SeenShardImpl:
    """Plain-python core (unit-testable without Ray)."""

    def __init__(self, capacity: int = 1 << 16, seed: int = 7):
        self.cuckoo = CuckooFilter(capacity, seed=seed)
        self.bloom_overflow: BloomFilter | None = None
        self.capacity = capacity
        self.exact: set[int] = set()
        self.seed = seed
        self.ops = 0  # total keys processed (the frontier-ops metric)

    def check_and_insert(self, h: np.ndarray) -> np.ndarray:
        """Batch membership-test-and-insert. Returns ``seen`` mask (True =
        key was already present before this call, or earlier in this batch —
        first occurrence wins, duplicates within the batch report seen)."""
        h = np.asarray(h, dtype=np.uint64)
        self.ops += int(h.size)
        seen = self.cuckoo.contains(h)
        if self.bloom_overflow is not None:
            seen |= self.bloom_overflow.contains(h)
        if seen.any():
            # verify approximate hits exactly (no false "seen" drops)
            idx = np.nonzero(seen)[0]
            for j in idx:
                if int(h[j]) not in self.exact:
                    seen[j] = False
        # first occurrence within the batch wins; later duplicates are seen
        new_idx = np.nonzero(~seen)[0]
        if new_idx.size:
            sub = h[new_idx]
            _, first_pos = np.unique(sub, return_index=True)
            keep = np.zeros(sub.size, dtype=bool)
            keep[first_pos] = True
            seen[new_idx[~keep]] = True
            ins = sub[np.sort(first_pos)]
            ok = self.cuckoo.add(ins)
            if not ok.all():
                if self.bloom_overflow is None:
                    self.bloom_overflow = BloomFilter(self.capacity)
                self.bloom_overflow.add(ins[~ok])
            self.exact.update(int(x) for x in ins)
        return seen

    def size(self) -> int:
        return len(self.exact)

    def total_ops(self) -> int:
        return self.ops

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "ops": self.ops,
            "cuckoo": self.cuckoo.state(),
            "bloom": self.bloom_overflow.state() if self.bloom_overflow else None,
            "exact": np.fromiter(self.exact, dtype=np.uint64,
                                 count=len(self.exact)),
        }

    @classmethod
    def restore(cls, st: dict) -> "_SeenShardImpl":
        obj = cls.__new__(cls)
        obj.capacity = int(st["capacity"])
        obj.seed = int(st["seed"])
        obj.ops = int(st.get("ops", 0))
        obj.cuckoo = CuckooFilter.from_state(st["cuckoo"], seed=obj.seed)
        obj.bloom_overflow = (
            BloomFilter.from_state(st["bloom"]) if st["bloom"] is not None else None
        )
        obj.exact = set(int(x) for x in st["exact"])
        return obj

    def reset(self) -> "_SeenShardImpl":
        """Fresh shard with the same parameters — the round-0 rollback
        target when a round fails before any checkpoint exists (cheaper and
        exact vs snapshotting the empty initial state)."""
        return _SeenShardImpl(self.capacity, self.seed)


@ray.remote(num_cpus=0.25)
class SeenShard:
    """Actor wrapper: one shard of the seen-set pool. ``num_cpus=0.25`` so a
    32-shard pool doesn't reserve the whole node away from fetch/parse."""

    def __init__(self, capacity: int, seed: int):
        self.impl = _SeenShardImpl(capacity, seed)

    def check_and_insert(self, h: np.ndarray) -> np.ndarray:
        return self.impl.check_and_insert(h)

    def size(self) -> int:
        return self.impl.size()

    def total_ops(self) -> int:
        return self.impl.total_ops()

    def snapshot(self) -> dict:
        return self.impl.snapshot()

    def restore(self, st: dict) -> None:
        self.impl = _SeenShardImpl.restore(st)

    def reset(self) -> None:
        self.impl = self.impl.reset()


class SeenSet:
    """Client handle over the shard pool. Safe to pass to ``map_batches``
    stages (holds only actor handles)."""

    def __init__(self, shards: list, num_shards: int, init_args: tuple | None = None):
        self.shards = shards
        self.num_shards = num_shards
        # (capacity_per_shard, seed) — kept so heal() can respawn a
        # DEAD shard actor with its original parameters (incl. per-shard
        # seed, which the cuckoo hashing depends on)
        self.init_args = init_args

    @classmethod
    def create(
        cls,
        num_shards: int = 8,
        capacity_per_shard: int = 1 << 16,
        seed: int = 7,
    ) -> "SeenSet":
        shards = [
            SeenShard.remote(capacity_per_shard, seed + i)
            for i in range(num_shards)
        ]
        return cls(shards, num_shards, (capacity_per_shard, seed))

    def heal(self) -> int:
        """Respawn every DEAD shard actor (node loss / OOM kill) with its
        original parameters and return how many were respawned. A fresh
        shard starts EMPTY — callers must ``restore()`` from the last
        complete checkpoint (or ``reset()``) immediately after, which is
        exactly what the crawl's round-rollback does. The round-as-recovery-
        unit design makes this sound: ``max_retries=0`` tasks mean no task
        observed-and-survived the dead shard's partial state."""
        if self.init_args is None:
            raise RuntimeError("SeenSet built without init_args cannot heal")
        capacity, seed = self.init_args
        respawned = 0
        for i, s in enumerate(self.shards):
            try:
                ray.get(s.size.remote())
            except ray.exceptions.RayActorError:
                self.shards[i] = SeenShard.remote(capacity, seed + i)
                respawned += 1
        return respawned

    def _route(self, keys) -> tuple[np.ndarray, np.ndarray]:
        h = keys_to_u64(keys)
        return h, (h % np.uint64(self.num_shards)).astype(np.int64)

    def check_and_insert_async(self, keys):
        """Issue the per-shard RPCs WITHOUT blocking; returns an opaque
        pending handle for :meth:`gather`. Lets callers overlap the
        membership round-trip with other per-batch compute."""
        h, shard_of = self._route(keys)
        futs, idxs = [], []
        for s in np.unique(shard_of):
            idx = np.nonzero(shard_of == s)[0]
            futs.append(self.shards[int(s)].check_and_insert.remote(h[idx]))
            idxs.append(idx)
        return (len(h), futs, idxs)

    @staticmethod
    def gather(pending) -> np.ndarray:
        n, futs, idxs = pending
        out = np.zeros(n, dtype=bool)
        for idx, res in zip(idxs, ray.get(futs)):
            out[idx] = res
        return out

    def check_and_insert(self, keys) -> np.ndarray:
        """Batch check-and-insert across shards; one RPC per touched shard.
        Returns the ``seen`` mask aligned with ``keys``."""
        return self.gather(self.check_and_insert_async(keys))

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def total_ops(self) -> int:
        """Total keys routed through ``check_and_insert`` (frontier-ops)."""
        return sum(ray.get([s.total_ops.remote() for s in self.shards]))

    def snapshot(self) -> list[dict]:
        return ray.get([s.snapshot.remote() for s in self.shards])

    def restore(self, snaps: list[dict]) -> None:
        assert len(snaps) == self.num_shards
        ray.get(
            [s.restore.remote(st) for s, st in zip(self.shards, snaps)]
        )

    def reset(self) -> None:
        """Discard all shard contents (same parameters) — used to roll a
        failed round 0 back to the pristine pre-crawl state."""
        ray.get([s.reset.remote() for s in self.shards])
