"""Image processing stage: decode → (w, h, fmt) → md5 ``image_id`` → phash →
content dedup → IMAGES rows.

Replaces the reference's image path (``UploadImgsByLink``/``UploadImgs``,
``BaseSpider.cs:225-316``): it round-tripped bytes through base64 strings and
deduped via a static MD5 bag; here bytes stay binary end-to-end (zero-copy
Arrow ``binary`` column), MD5 keys the row (``BaseSpider.cs:275`` semantics)
and dedup is the sharded seen-set with an ``img:`` key namespace (J4
semi/anti join). ``phash`` (new design) enables near-dup by Hamming distance.

Holds only the SeenSet client (actor handles, pickled with the instance),
so it maps as a task-mode instance: ``map_batches(ImageStage(seen))``. Keep
``batch_size`` small for this stage — rows carry encoded image payloads
(SURVEY.md §7.5 wide binary rows).
"""

from __future__ import annotations

import pyarrow as pa

from crawler_ray import schemas
from crawler_ray.functions.codecs import decode_image, sniff_fmt
from crawler_ray.functions.hashing import md5_hex, phash64


class ImageStage:
    def __init__(self, seen=None):
        self.seen = seen  # SeenSet client or None (within-batch dedup only)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        captions = batch["caption"].to_pylist()
        rows: list[dict] = []
        ids: list[str] = []
        for data, caption in zip(payloads, captions):
            fmt = sniff_fmt(data)
            try:
                px = decode_image(data, fmt)
            except Exception:
                continue  # undecodable → dropped (dead-lettered upstream by status)
            iid = md5_hex(data)
            ids.append(iid)
            rows.append(
                {
                    "image_id": iid,
                    "bytes": data,
                    "w": int(px.shape[1]),
                    "h": int(px.shape[0]),
                    "fmt": fmt,
                    "caption": caption,
                    "phash": phash64(px),
                }
            )
        if not rows:
            return pa.Table.from_pylist([], schema=schemas.IMAGES)
        if self.seen is not None:
            seen_mask = self.seen.check_and_insert([f"img:{i}" for i in ids])
            rows = [r for r, s in zip(rows, seen_mask) if not s]
        else:
            uniq, out = set(), []
            for r in rows:
                if r["image_id"] not in uniq:
                    uniq.add(r["image_id"])
                    out.append(r)
            rows = out
        return pa.Table.from_pylist(rows, schema=schemas.IMAGES)
