"""WebDataset-style shard packing + LAION-style image filtering
(`pipelines/packing.py`) over the BASELINE input_hint images schema."""

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from crawler_ray import schemas
from crawler_ray.pipelines.packing import filter_images, pack_webdataset_shards
from tests._refs import read_webdataset_shard


def _images_table(n: int = 40, seed: int = 11) -> pa.Table:
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for i in range(n):
        data = rng.bytes(int(rng.integers(100, 5000)))
        rows.append(
            {
                "image_id": hashlib.md5(data).hexdigest(),
                "bytes": data,
                "w": int(rng.integers(16, 256)),
                "h": int(rng.integers(16, 256)),
                "fmt": ["png", "jpeg", "webp"][int(rng.integers(3))],
                "caption": f"synthetic caption number {i}",
                "phash": int(rng.integers(-(2**62), 2**62)),
            }
        )
    return pa.Table.from_pylist(rows, schema=schemas.IMAGES)


def test_filter_images_gate(ray_session):
    rows = [
        # (w, h, caption, expect_keep)
        (64, 64, "two tokens", True),
        (63, 64, "two tokens", False),          # width below min
        (64, 63, "two tokens", False),          # height below min
        (200, 64, "two tokens", False),         # aspect 3.125 > 2.0
        (64, 200, "two tokens", False),         # aspect 0.32 < 0.5
        (128, 64, "two tokens", True),          # aspect exactly 2.0 kept
        (64, 128, "two tokens", True),          # aspect exactly 0.5 kept
        (100, 100, "one", False),               # caption too short
        (100, 100, "   ", False),               # whitespace-only caption
        (100, 100, "", False),                  # empty caption
        (100, 100, "  padded   caption  ", True),
    ]
    t = pa.Table.from_pylist(
        [
            {
                "image_id": f"i{k}",
                "bytes": b"x",
                "w": w,
                "h": h,
                "fmt": "png",
                "caption": c,
                "phash": 0,
            }
            for k, (w, h, c, _) in enumerate(rows)
        ],
        schema=schemas.IMAGES,
    )
    kept = filter_images(rd.from_arrow(t)).to_pandas()
    expect = {f"i{k}" for k, (_, _, _, keep) in enumerate(rows) if keep}
    assert set(kept["image_id"]) == expect


def test_pack_shards_roundtrip(ray_session, tmp_path):
    t = _images_table(40)
    out = str(tmp_path / "shards")
    target = 8000
    manifest = (
        pack_webdataset_shards(
            rd.from_arrow(t).repartition(4), out, target_bytes=target
        )
        .to_pandas()
        .sort_values("shard")
        .reset_index(drop=True)
    )
    files = sorted(os.path.basename(p) for p in glob.glob(f"{out}/shard-*.tar"))
    assert files == sorted(manifest["shard"])
    assert int(manifest["n_images"].sum()) == t.num_rows

    want = {r["image_id"]: r for r in t.to_pylist()}
    seen = {}
    for _, m in manifest.iterrows():
        samples = read_webdataset_shard(os.path.join(out, m["shard"]))
        assert len(samples) == m["n_images"]
        payload = 0
        for s in samples:
            assert s["image_id"] not in seen  # exactly-once across shards
            seen[s["image_id"]] = s
            payload += len(s["bytes"]) + len(s["caption"].encode())
        # size cap holds unless the shard is a single oversized row
        assert payload <= target or m["n_images"] == 1
        assert m["first_key"] == samples[0]["image_id"]
    assert seen.keys() == want.keys()
    for k, s in seen.items():
        w = want[k]
        assert s["bytes"] == w["bytes"]
        assert s["caption"] == w["caption"]
        assert (s["w"], s["h"], s["fmt"], s["phash"]) == (
            w["w"], w["h"], w["fmt"], w["phash"],
        )


def test_pack_retry_idempotent(ray_session, tmp_path):
    t = _images_table(12, seed=3)
    out = str(tmp_path / "shards")
    pack_webdataset_shards(rd.from_arrow(t), out, target_bytes=4000).materialize()
    snap = {
        os.path.basename(p): open(p, "rb").read()
        for p in glob.glob(f"{out}/shard-*.tar")
    }
    # a task retry re-packs the same batch: same names, byte-identical files
    pack_webdataset_shards(rd.from_arrow(t), out, target_bytes=4000).materialize()
    again = {
        os.path.basename(p): open(p, "rb").read()
        for p in glob.glob(f"{out}/shard-*.tar")
    }
    assert snap == again


def test_pack_parallelism_invariant_samples(ray_session, tmp_path):
    t = _images_table(30, seed=9)
    sets = []
    for i, nblocks in enumerate((1, 5)):
        out = str(tmp_path / f"s{i}")
        mf = pack_webdataset_shards(
            rd.from_arrow(t).repartition(nblocks), out, target_bytes=6000
        ).to_pandas()
        samples = {
            s["image_id"]: (s["bytes"], s["caption"])
            for m in mf["shard"]
            for s in read_webdataset_shard(os.path.join(out, m))
        }
        sets.append(samples)
    assert sets[0] == sets[1]
