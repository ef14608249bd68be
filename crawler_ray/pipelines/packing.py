"""Training-serving layout steps over the images table (the BASELINE
``input_hint`` schema): LAION-style quality filtering and WebDataset-style
size-bounded tar sharding.

Both are batch-local ``map_batches`` stages — ZERO exchanges at any corpus
size. Filtering is a vectorized Arrow mask; packing greedily cuts each
batch into tar shards capped at ``target_bytes``, so the only knob that
matters at 100 TB is the upstream block size (one block ≈ a handful of
shards). Shard files are named by the md5 of their member image_ids —
content-derived, so a Ray task retry re-creates the SAME file and the
write-if-absent publish keeps the output exactly-once.

Reference parity: the reference uploads each image individually via its
FileStation client (HZ.Crawler.Common/FileStation.cs); sharding is the
beyond-reference training-data layout (WebDataset convention: one .tar of
{key}.{ext} + {key}.txt caption + {key}.json metadata per sample).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tarfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

MANIFEST_SCHEMA = pa.schema(
    [
        ("shard", pa.string()),
        ("n_images", pa.int64()),
        ("payload_bytes", pa.int64()),
        ("first_key", pa.string()),
        ("last_key", pa.string()),
    ]
)


def filter_images(
    ds: rd.Dataset,
    min_w: int = 64,
    min_h: int = 64,
    min_aspect: float = 0.5,
    max_aspect: float = 2.0,
    min_caption_tokens: int = 2,
) -> rd.Dataset:
    """LAION-style pre-training gate: minimum pixel dimensions, bounded
    aspect ratio, and a non-trivial caption. One vectorized Arrow mask per
    batch; aspect is compared as integer cross-products (w <= max_aspect*h
    becomes 100*w <= int(100*max_aspect)*h) so the filter is
    float-drift-free and block-split invariant."""
    lo = int(round(min_aspect * 100))
    hi = int(round(max_aspect * 100))

    def gate(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        cap = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t["caption"]), r"\s+"
        )
        n_cap = pc.list_value_length(cap).to_numpy(zero_copy_only=False)
        empty = pc.equal(pc.utf8_trim_whitespace(t["caption"]), "").to_numpy(
            zero_copy_only=False
        )
        n_cap = np.where(empty, 0, n_cap)
        keep = (
            (w >= min_w)
            & (h >= min_h)
            & (100 * w >= lo * h)
            & (100 * w <= hi * h)
            & (n_cap >= min_caption_tokens)
        )
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


class ShardPacker:
    """Greedy size-bounded WebDataset tar packer (callable-class stage).

    Each input batch is cut left-to-right into shards whose summed payload
    (bytes + caption + metadata JSON) stays under ``target_bytes`` (a
    single oversized row still gets its own shard). Entries per sample:
    ``{image_id}.{fmt}`` (raw bytes), ``{image_id}.txt`` (caption),
    ``{image_id}.json`` (w/h/fmt/phash). Tar metadata (mtime/uid) is
    zeroed so the same members produce a byte-identical shard — combined
    with the content-derived file name this makes retries exactly-once.
    Returns one manifest row per shard."""

    def __init__(self, out_dir: str, target_bytes: int = 1 << 20):
        if target_bytes < 1:
            raise ValueError("target_bytes must be >= 1")
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.target = target_bytes

    def _write_shard(self, rows: list[dict]) -> dict:
        keys = [r["image_id"] for r in rows]
        name = hashlib.md5("\n".join(keys).encode()).hexdigest()
        path = os.path.join(self.out_dir, f"shard-{name}.tar")
        payload = sum(r["_sz"] for r in rows)
        if not os.path.exists(path):  # retry-idempotent publish
            buf = io.BytesIO()
            with tarfile.open(fileobj=buf, mode="w") as tf:
                for r in rows:
                    for suffix, data in (
                        (r["fmt"], r["bytes"]),
                        ("txt", r["caption"].encode()),
                        ("json", r["_meta"]),
                    ):
                        ti = tarfile.TarInfo(f"{r['image_id']}.{suffix}")
                        ti.size = len(data)
                        ti.mtime = 0
                        tf.addfile(ti, io.BytesIO(data))
            tmp = f"{path}.tmp-{name}"
            with open(tmp, "wb") as f:
                f.write(buf.getvalue())
            os.replace(tmp, path)
        return {
            "shard": os.path.basename(path),
            "n_images": len(rows),
            "payload_bytes": payload,
            "first_key": keys[0],
            "last_key": keys[-1],
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        manifest: list[dict] = []
        cur: list[dict] = []
        cur_bytes = 0
        for r in rows:
            r["_meta"] = json.dumps(
                {"w": r["w"], "h": r["h"], "fmt": r["fmt"],
                 "phash": r["phash"]},
                sort_keys=True,
            ).encode()
            # exact payload size, so the target cap is a hard bound
            r["_sz"] = (
                len(r["bytes"]) + len(r["caption"].encode()) + len(r["_meta"])
            )
            if cur and cur_bytes + r["_sz"] > self.target:
                manifest.append(self._write_shard(cur))
                cur, cur_bytes = [], 0
            cur.append(r)
            cur_bytes += r["_sz"]
        if cur:
            manifest.append(self._write_shard(cur))
        return pa.Table.from_pylist(manifest, schema=MANIFEST_SCHEMA)


def pack_webdataset_shards(
    ds: rd.Dataset, out_dir: str, target_bytes: int = 1 << 20
) -> rd.Dataset:
    """Pack an images Dataset (schemas.IMAGES shape) into WebDataset tar
    shards under ``out_dir``; returns the shard manifest Dataset. Packing
    is batch-local — for globally size-balanced shards repartition first;
    for key-ranged shards sort by image_id first (both optional, neither
    required for correctness)."""
    return ds.map_batches(
        ShardPacker(out_dir, target_bytes), batch_format="pyarrow"
    )
