"""Single-node reference oracles and test-only helpers.

Each ``*_reference`` function repeats the arithmetic of a distributed
pipeline in one numpy (or pure-Python) loop; the tests assert the
pipeline's output equals it bit for bit. The rest are small readers and
fixture builders that only tests need.
"""

from __future__ import annotations

import json
import os
import struct
import tarfile

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------- similarity


def _kmeans_reference_centroids(
    emb: np.ndarray, seed_vec: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """(unit rows, centroids) after ``iters`` Lloyd rounds with the same
    fixed-point update as ``similarity._kmeans_centroids``."""
    from crawler_ray.pipelines.similarity import _normalize

    SCALE = float(1 << 20)
    k = len(seed_vec)
    cents = _normalize(seed_vec.astype(np.float64))
    mat = _normalize(emb.astype(np.float64))
    for _ in range(iters):
        assign = np.argmax(mat @ cents.T, axis=1)
        fx = np.floor(mat * SCALE).astype(np.int64)
        sums = np.zeros((k, mat.shape[1]), np.int64)
        np.add.at(sums, assign, fx)
        counts = np.bincount(assign, minlength=k)
        new = cents.copy()
        nz = counts > 0
        new[nz] = sums[nz] / (counts[nz, None].astype(np.float64) * SCALE)
        cents = _normalize(new)
    return mat, cents


def kmeans_reference(
    emb: np.ndarray, ids: np.ndarray, seed_vec: np.ndarray, iters: int
) -> np.ndarray:
    """Cluster per row: the bit-exactness oracle for
    ``similarity.embedding_kmeans``."""
    mat, cents = _kmeans_reference_centroids(emb, seed_vec, iters)
    return np.argmax(mat @ cents.T, axis=1)


def semantic_dedup_reference(
    emb: np.ndarray, ids: np.ndarray, seed_vec: np.ndarray,
    iters: int, threshold: float,
) -> pa.Table:
    """SemDeDup with the same fixed-point kmeans, per-cluster kernel and
    keep policy: the row-exactness oracle for ``similarity.semantic_dedup``."""
    from crawler_ray.pipelines.similarity import _semantic_dedup_group

    mat, cents = _kmeans_reference_centroids(emb, seed_vec, iters)
    assign = np.argmax(mat @ cents.T, axis=1)
    parts = []
    for cl in np.unique(assign):
        sel = assign == cl
        t = _semantic_dedup_group(ids[sel], mat[sel], cents[cl], threshold)
        parts.append(
            t.add_column(
                1, "cluster",
                pa.array(np.full(len(t), cl, dtype=np.int64), pa.int64()),
            )
        )
    return pa.concat_tables(parts)


# ------------------------------------------------------------------- textops


def train_doc_classifier_reference(
    texts: pd.Series,
    labels: np.ndarray,
    dim: int = 256,
    n_iters: int = 10,
    lr_num: int = 1,
    lr_den: int = 8,
) -> np.ndarray:
    """The same featurizer, quantized per-doc errors and integer update as
    ``textops.train_doc_classifier``, in one loop."""
    from crawler_ray.pipelines.textops import _hashed_counts, _lr_step_partial

    W_SCALE = 1 << 16
    ic = _hashed_counts(texts, dim)
    ys = np.asarray(labels, np.int64)
    n = len(texts)
    w = np.zeros(dim + 1, np.int64)
    for _ in range(n_iters):
        grad = _lr_step_partial(ic, ys, w, dim + 1, W_SCALE)
        w = w - (grad * np.int64(lr_num)) // (np.int64(n) * np.int64(lr_den))
    return w


def bpe_reference(word_counts: dict, n_merges: int) -> list[tuple]:
    """BPE merges with the argmax and tie rules of
    ``textops.bpe_learn_merges``: max count, ties to the lexicographically
    smallest pair."""
    syms = {w: tuple(w) + ("</w>",) for w in word_counts}
    merges = []
    for _ in range(n_merges):
        pairs: dict = {}
        for w, cnt in word_counts.items():
            s = syms[w]
            for a, b in zip(s, s[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + cnt
        if not pairs:
            break
        best = min(pairs, key=lambda p: (-pairs[p], p))
        merges.append((best[0], best[1], pairs[best]))
        la, lb = best
        fused = la + lb
        for w, s in syms.items():
            if la not in s:
                continue
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == la and s[i + 1] == lb:
                    out.append(fused)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[w] = tuple(out)
    return merges


def lev_le1(a: str, b: str) -> bool:
    """Exact levenshtein(a, b) <= 1 for DISTINCT a != b, O(len) early-exit."""
    la, lb = len(a), len(b)
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    # b is a with ONE insertion iff dropping b's first mismatch char equals a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return b[i + 1:] == a[i:]


# ------------------------------------------------------- readers and fixtures


def read_webdataset_shard(path: str) -> list[dict]:
    """One ``packing.pack_webdataset_shards`` tar back into sample dicts."""
    out: dict[str, dict] = {}
    with tarfile.open(path, mode="r") as tf:
        for m in tf.getmembers():
            key, _, suffix = m.name.rpartition(".")
            data = tf.extractfile(m).read()
            row = out.setdefault(key, {"image_id": key})
            if suffix == "txt":
                row["caption"] = data.decode()
            elif suffix == "json":
                row.update(json.loads(data))
            else:
                row["bytes"] = data
                row["fmt"] = suffix
    return list(out.values())


def layout_prune_stats(
    root: str, u_lo: int, u_hi: int, t_lo_us: int, t_hi_us: int
) -> tuple[int, int]:
    """(candidate partition dirs that exist, total written dirs) of a
    z-order events layout for one query box."""
    from crawler_ray.pipelines.layout import candidate_buckets

    with open(os.path.join(root, "meta.json")) as f:
        meta = json.load(f)
    cands = candidate_buckets(meta, u_lo, u_hi, t_lo_us, t_hi_us)
    existing = {d for d in os.listdir(root) if d.startswith("zbucket=")}
    hit = sum(1 for z in cands if f"zbucket={z}" in existing)
    return hit, len(existing)


def hamming64(a: int, b: int) -> int:
    return int(bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1"))


def hamming64_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between two uint64/int64 arrays."""
    x = (a.astype(np.uint64) ^ b.astype(np.uint64)).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(x, axis=1).sum(axis=1)


def make_fake_audio(n_samples: int, rate: int, seed: int = 0) -> bytes:
    """A FAUD fixture clip (``multimodal.FAKE_AUDIO_MAGIC`` + u32 samples +
    u16 rate/100 + int16 PCM) that ``multimodal._decode_audio`` reads."""
    from crawler_ray.pipelines.multimodal import FAKE_AUDIO_MAGIC

    rng = np.random.Generator(np.random.PCG64(seed))
    samples = (rng.standard_normal(n_samples) * 1000).astype(np.int16)
    return (FAKE_AUDIO_MAGIC + struct.pack(">IH", n_samples, rate // 100)
            + samples.tobytes())
