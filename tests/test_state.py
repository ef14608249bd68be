"""Filters, seen-set shards, politeness, checkpoint manager."""

import numpy as np
import pytest

from crawler_ray.state.filters import BloomFilter, CuckooFilter, keys_to_u64
from crawler_ray.state.politeness import (
    RobotsCache,
    TokenBucket,
    VirtualClock,
    parse_robots,
)
from crawler_ray.state.seen import _SeenShardImpl


def _keys(n, offset=0):
    return keys_to_u64([f"key-{i+offset}" for i in range(n)])


def test_bloom_no_false_negatives():
    f = BloomFilter(capacity=5000)
    h = _keys(5000)
    f.add(h)
    assert f.contains(h).all()
    # false-positive rate bounded
    fresh = _keys(5000, offset=100000)
    assert f.contains(fresh).mean() < 0.05


def test_cuckoo_properties():
    f = CuckooFilter(capacity=4096)
    h = _keys(3000)
    ok = f.add(h)
    assert ok.all()  # fits below ~0.95 load
    assert f.contains(h).all()  # no false negatives
    fresh = _keys(3000, offset=50000)
    assert f.contains(fresh).mean() < 0.01  # ~2^-13 nominal, allow slack
    assert 0 < f.load_factor < 1


def test_cuckoo_state_roundtrip():
    f = CuckooFilter(capacity=1024)
    h = _keys(500)
    f.add(h)
    g = CuckooFilter.from_state(f.state())
    assert g.contains(h).all()


def test_seen_shard_semantics():
    s = _SeenShardImpl(capacity=1 << 12)
    h = _keys(100)
    first = s.check_and_insert(h)
    assert not first.any()  # all new
    again = s.check_and_insert(h)
    assert again.all()  # all seen now
    # within-batch duplicates: first occurrence wins
    dup = keys_to_u64(["a", "b", "a", "c", "b"])
    mask = s.check_and_insert(dup)
    assert list(mask) == [False, False, True, False, True]
    assert s.size() == 103


def test_seen_shard_overflow_falls_back_to_bloom():
    s = _SeenShardImpl(capacity=64)
    h = _keys(500)  # way over cuckoo capacity → bloom overflow engages
    assert not s.check_and_insert(h).any()
    assert s.bloom_overflow is not None
    # an overflowed key is in no cuckoo bucket: only the bloom lookup
    # reports it, so it reads as seen again, not as new
    assert not s.cuckoo.contains(h).all()
    assert s.check_and_insert(h).all()  # still no false negatives


def test_seen_shard_snapshot_restore():
    s = _SeenShardImpl(capacity=1 << 12)
    h = _keys(200)
    s.check_and_insert(h)
    r = _SeenShardImpl.restore(s.snapshot())
    assert r.check_and_insert(h).all()
    assert r.size() == 200


def test_seen_set_restore_rejects_other_shard_count():
    """A checkpoint of 4 shards cannot be restored into 8: keys were routed
    ``% 4``. The check raises before any shard is touched, and holds under
    ``python -O`` (it is no ``assert``)."""
    from crawler_ray.state.seen import SeenSet

    class _Untouchable:
        class restore:
            @staticmethod
            def remote(st):
                raise AssertionError("a shard was restored")

    seen = SeenSet([_Untouchable() for _ in range(8)], 8)
    with pytest.raises(ValueError, match=r"4 seen-shard snapshots.*8 shards"):
        seen.restore([{}] * 4)


def test_token_bucket_virtual_clock():
    clock = VirtualClock()
    b = TokenBucket(rate_per_sec=2.0, burst=4.0, clock=clock)
    assert b.try_acquire(10) == 4  # burst drained
    assert b.try_acquire(1) == 0
    clock.advance(1.0)
    assert b.try_acquire(10) == 2  # refilled at rate
    clock.advance(100.0)
    assert b.try_acquire(10) == 4  # capped at burst


def test_robots():
    txt = "User-agent: *\nDisallow: /private/\n"
    rp = parse_robots(txt, "h.com")
    assert rp.can_fetch("x", "https://h.com/img/a.png")
    assert not rp.can_fetch("x", "https://h.com/private/a.png")
    cache = RobotsCache(lambda host: txt if host == "h.com" else None)
    mask = cache.allowed(
        ["https://h.com/private/a", "https://h.com/ok", "https://other.com/private/a"]
    )
    assert list(mask) == [False, True, True]  # no robots → allow-all


def test_robots_crawl_delay_sets_per_host_bucket(ray_session):
    """A host whose robots.txt states ``Crawl-delay: 2`` gets a 0.5/s
    no-burst token bucket; hosts without a stated delay keep the default
    rate/burst. (The reference hard-codes 3-6 s sleeps for every host,
    ``BaseSpider.cs:139``; honoring the host's own preference is the
    north-rule behavior.)"""
    import ray

    from crawler_ray.state.politeness import PolitenessActor

    robots = {"slow.com": "User-agent: *\nCrawl-delay: 2\nDisallow: /x/\n"}
    actor = PolitenessActor.remote(robots_map=robots, rate=10.0, burst=50.0)
    # slow.com: burst is exactly 1 token
    assert ray.get(actor.grant.remote("slow.com", 5)) == 1
    assert ray.get(actor.grant.remote("slow.com", 5)) == 0
    # 4 virtual seconds at 1/2 tokens/s refills 2, capped at burst 1
    ray.get(actor.advance_clock.remote(4.0))
    assert ray.get(actor.grant.remote("slow.com", 5)) == 1
    # a host with no stated delay keeps the default bucket
    assert ray.get(actor.grant.remote("fast.com", 5)) == 5
    # the Disallow line still applies alongside the delay
    allowed = ray.get(actor.allowed.remote(
        ["https://slow.com/x/a", "https://slow.com/ok"]
    ))
    assert list(allowed) == [False, True]
    ray.kill(actor)


def test_checkpoint_roundtrip(tmp_path):
    import pyarrow as pa

    from crawler_ray.state.checkpoint import CheckpointManager
    from crawler_ray.vendor import minilance

    cm = CheckpointManager(str(tmp_path / "ck"))
    t = pa.table({"url": ["a", "b"], "n": [1, 2]})
    snap = [{"x": np.arange(3)}]
    for rnd, m, l in ((0, 1, 2), (1, 2, 3)):
        # the frontier dataset is committed in the staging dir, then the
        # driver completes the round atomically
        fdir = cm.begin_round(rnd)
        minilance.write_dataset(t, fdir)
        cm.save_round(rnd, snap, {"m": m}, {"l": l})
    assert cm.latest_complete_round() == 1
    fdir, snaps, metrics, lineage = cm.load_round(1)
    assert metrics == {"m": 2} and lineage == {"l": 3}
    assert minilance.dataset(fdir).to_table().equals(t)
    assert np.array_equal(snaps[0]["x"], np.arange(3))
    cm.prune_rounds_after(0)
    assert cm.latest_complete_round() == 0

