"""Hashing / fingerprinting scalar functions.

Re-expresses the reference's key functions Ray-Data-first:

- ``md5_hex`` / ``sha1_hex`` — the reference's ``Encrypt.ToMd5`` / ``ToSHA1``
  (``HZ.Crawler.Common/Encrypt.cs:9-39``); MD5 keys the image dedup table
  (``HZ.Crawler.DataSpider/BaseSpider.cs:275``) and signs API requests.
- ``phash64`` — 64-bit DCT perceptual hash over decoded pixels (new design;
  the ``phash:int64`` column of the input schema, /root/repo/BASELINE.json
  input_hint). Near-dup hook the reference lacks (SURVEY.md §2.7).
- ``simhash64`` / ``rolling_fingerprint`` — document fingerprinting for the
  text-analysis suite (new design, SURVEY.md build plan).

All pure, deterministic, numpy-vectorized where it matters.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

# ---------------------------------------------------------------------------
# md5 / sha1


def md5_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.md5(data).hexdigest()


def sha1_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha1(data).hexdigest()


def md5_hex_batch(values: list[bytes] | list[str]) -> list[str]:
    """MD5 over each element. Hot path helper for ``map_batches`` bodies."""
    out = []
    for v in values:
        if isinstance(v, str):
            v = v.encode("utf-8")
        out.append(hashlib.md5(v).hexdigest())
    return out


def md5_u64_batch(values: np.ndarray | list, threads: int = 8) -> np.ndarray:
    """First 8 bytes of MD5 as uint64 — shard routing / dedup keys.
    hashlib releases the GIL, so large batches hash on a thread pool."""
    n = len(values)
    out = np.empty(n, dtype=np.uint64)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            v = values[i]
            if isinstance(v, str):
                v = v.encode("utf-8")
            out[i] = int.from_bytes(hashlib.md5(v).digest()[:8], "big")

    if n < 50_000 or threads <= 1:
        fill(0, n)
        return out
    from concurrent.futures import ThreadPoolExecutor

    step = -(-n // threads)
    with ThreadPoolExecutor(threads) as ex:
        list(ex.map(lambda k: fill(k * step, min((k + 1) * step, n)), range(threads)))
    return out


def stable_hash_u64(value: bytes | str, salt: int = 0) -> int:
    """Deterministic 64-bit hash (crc-free of PYTHONHASHSEED)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    if salt:
        value = salt.to_bytes(8, "big") + value
    return int.from_bytes(hashlib.blake2b(value, digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# perceptual hash (DCT pHash)

_DCT_N = 32
_DCT_K = 8


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.cos(np.pi / n * (i + 0.5) * k) * np.sqrt(2.0 / n)
    m[0] /= np.sqrt(2.0)
    return m


_DCT_M = _dct_matrix(_DCT_N)


def _resize_gray(pixels: np.ndarray, n: int = _DCT_N) -> np.ndarray:
    """Nearest-neighbour resample of an (h, w[, c]) array to (n, n) grayscale."""
    if pixels.ndim == 3:
        gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    else:
        gray = pixels.astype(np.float64)
    h, w = gray.shape
    ys = (np.arange(n) * h // n).clip(0, h - 1)
    xs = (np.arange(n) * w // n).clip(0, w - 1)
    return gray[np.ix_(ys, xs)]


def phash64(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash of an image array, returned as *signed* int64
    (matches the ``phash:int64`` input-schema column).

    32×32 grayscale → 2-D DCT-II → top-left 8×8 (DC excluded from the median)
    → bit = coefficient > median.
    """
    g = _resize_gray(pixels, _DCT_N)
    d = _DCT_M @ g @ _DCT_M.T
    block = d[:_DCT_K, :_DCT_K].flatten()
    med = np.median(block[1:])  # exclude DC term from the threshold
    bits = block > med
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    # two's-complement into signed int64
    if v >= 1 << 63:
        v -= 1 << 64
    return v


# ---------------------------------------------------------------------------
# simhash (document fingerprinting)


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over a token list (signed int64 result).
    Vectorized: hash each token once, then one unpackbits + column sum."""
    if not tokens:
        return 0
    hs = np.fromiter(
        (stable_hash_u64(t) for t in tokens), dtype=np.uint64, count=len(tokens)
    )
    bits = np.unpackbits(hs[:, None].view(np.uint8), axis=1)
    if np.little_endian:  # view() gives little-endian byte order; fix to MSB-first
        bits = bits.reshape(len(tokens), 8, 8)[:, ::-1, :].reshape(len(tokens), 64)
    acc = bits.astype(np.int64).sum(axis=0) * 2 - len(tokens)
    v = 0
    for b in acc >= 0:
        v = (v << 1) | int(b)
    if v >= 1 << 63:
        v -= 1 << 64
    return v


def rolling_fingerprint(text: str, window: int = 8, keep: int = 4) -> list[int]:
    """Winnowing-style document fingerprint: crc32 over every ``window``-byte
    shingle, keep the ``keep`` smallest distinct values (sorted). Deterministic
    and order-insensitive — suitable as a compact doc signature column."""
    data = text.encode("utf-8")
    if len(data) <= window:
        return [zlib.crc32(data)]
    seen = {zlib.crc32(data[i : i + window]) for i in range(len(data) - window + 1)}
    return sorted(seen)[:keep]


def dihedral_phash64s(pixels: np.ndarray) -> list[int]:
    """phash64 of all 8 dihedral transforms of an image (4 rotations × 
    optional horizontal flip). The SET of orbit hashes is identical for an
    image and any rotated/mirrored copy of it (D4 is a group), so matching
    ANY cross-image orbit pair makes near-dup detection rotation- and
    mirror-invariant — plain phash misses a 90° rotation by ~30 bits."""
    out = []
    for flip in (False, True):
        px = np.fliplr(pixels) if flip else pixels
        for k in range(4):
            out.append(phash64(np.rot90(px, k)))
    return out
