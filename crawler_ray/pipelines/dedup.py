"""Deduplication suite over the ``documents`` table: exact, token-set exact,
MinHash+LSH near-dup, SimHash near-dup.

Generalizes the reference's exact-dedup family (SURVEY.md §2.7: image-MD5 J4,
category-id J5, visited-variant J6 — all hash-key first-wins) to the
content-dedup operators a training-data pipeline needs. The scalable shapes:

- exact dedup        = hash-partition on content hash + per-group first
- token-set dedup    = same, on a canonicalized token-set hash
- MinHash+LSH        = vectorized signatures (task-mode, worker-cached
                       params) → vectorized banding (sig carried in band
                       rows) → ONE coarse-partition exchange running the
                       fused pairwise-estimate prefilter + canonical-band
                       dedup in numpy segment walks → hash-partition text
                       joins → exact-Jaccard verify. No driver-side corpus
                       state, no broadcasts, mega-bucket-safe.
- SimHash            = batch-vectorized 64-bit signatures → 16-bit quarter
                       banding → ONE exchange with fused XOR-popcount
                       verification + canonical-quarter dedup
- token-Jaccard      = quadratic work over DISTINCT token sets only
                       (vocab-bounded metadata), doc-pair emission via
                       hash-partition joins — exact vs the SQL oracle

Every exchange here is a ``joins.copartition``, sized by the shared rule:
from the documents footer where each doc sends a fixed number of rows,
from the materialized candidate count for the MinHash verify, and
``EXCHANGE_PARTS`` where a doc's window fan-out has no footer bound.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from crawler_ray.context import worker_cached
from crawler_ray.pipelines import joins
from crawler_ray.pipelines.joins import (
    _footer_rows,
    copartition,
    exchange_parts,
    footer_schema,
    parts_for_rows,
)


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    """Documents reader with the loader's NULL contract applied at the
    boundary: string columns coalesce to '' (the driver generator never
    emits nulls, but real crawled parquet can — a null text would
    otherwise crash every ``.split()``/``.str`` kernel downstream with 39
    different stack traces). Vectorized, fused, skipped when a batch has
    no nulls."""
    from crawler_ray.sources.io import read_parquet_sized

    ds = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=columns)
    str_cols = [c for c in columns if c in ("text", "lang", "source")]
    if str_cols:
        import pyarrow.compute as _pc

        def denull(t: pa.Table) -> pa.Table:
            for c in str_cols:
                col = t[c]
                if col.null_count:
                    t = t.set_column(
                        t.schema.get_field_index(c), c, _pc.fill_null(col, "")
                    )
            return t

        ds = ds.map_batches(denull, batch_format="pyarrow")
    return ds


# ---------------------------------------------------------------------------
# exact dedup (md5 of text)


def exact_dedup_docs(sf_dir: str) -> rd.Dataset:
    """One representative (min doc_id) per distinct text + copy count.

    Shape: md5 per batch → one md5-keyed ``copartition`` → per-partition
    pandas aggregate. (Ray's ``Aggregate`` operator on the raw string key
    measured 1.4 s for 5 k rows at sf0.1 — the coarse-partition +
    in-partition aggregate is the same one exchange with none of the
    per-key machinery, ~4× faster; the same segment-walk template as the
    near-dup pipelines.)"""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def hash_batch(df: pd.DataFrame) -> pa.Table:
        md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]]
        return pa.table(
            {
                # key from the first 8 hex chars — md5 is already uniform
                "key": pa.array([int(m[:8], 16) for m in md5s], pa.int64()),
                "text_md5": pa.array(md5s, pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            }
        )

    def agg_part(g: pa.Table) -> pd.DataFrame:
        out = (
            g.to_pandas().groupby("text_md5", sort=False)["doc_id"]
            .agg(rep_doc_id="min", n_copies="size")
            .reset_index()
        )
        out["rep_doc_id"] = out["rep_doc_id"].astype("int64")
        out["n_copies"] = out["n_copies"].astype("int64")
        return out

    return copartition(
        [ds.map_batches(hash_batch, batch_format="pandas")], agg_part,
        pa.schema([("text_md5", pa.string()), ("doc_id", pa.int64())]),
        exchange_parts(sf_dir, "documents"),
    )


EXACT_DEDUP_SQL = """
SELECT md5(text) AS text_md5,
       MIN(doc_id) AS rep_doc_id,
       COUNT(*)    AS n_copies
FROM documents
GROUP BY md5(text)
"""


# ---------------------------------------------------------------------------
# token-set-identical pairs (word-level Jaccard == 1.0; integer-exact oracle)


def token_set_dup_pairs(sf_dir: str) -> rd.Dataset:
    """Pairs of docs with IDENTICAL distinct-token sets (Jaccard exactly 1):
    canonical token-set hash → hash-partition → within-group pairs. Avoids
    the all-pairs token join the naive SQL oracle does."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def key_batch(df: pd.DataFrame) -> pd.DataFrame:
        # empty token sets are EXCLUDED (the token_jaccard family rule):
        # every tokenless doc would otherwise share one md5("") key and
        # pairwise-match every other tokenless doc
        sets = df["text"].map(lambda t: sorted(set(t.split())))
        nonempty = sets.map(len) > 0
        keys = sets[nonempty].map(
            lambda s: hashlib.md5("\x00".join(s).encode("utf-8")).hexdigest()
        )
        return pa.table(
            {"set_key": pa.array(list(keys), pa.string()),
             "doc_id": pa.array(
                 df["doc_id"].to_numpy()[nonempty.to_numpy()], pa.int64()
             )}
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    keyed = ds.map_batches(key_batch, batch_format="pandas")
    return keyed.groupby("set_key").map_groups(pairs, batch_format="pandas")


TOKEN_SET_DUP_SQL = r"""
WITH dtok AS (
    SELECT DISTINCT doc_id, unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{Z}\x{2028}\x{2029}]+'), x -> x != '')) AS w
    FROM documents
),
cnt AS (SELECT doc_id, COUNT(*) AS n FROM dtok GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
    FROM dtok a JOIN dtok b ON a.w = b.w AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE c = ca.n AND c = cb.n
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup (char n-gram shingles)

_N_PERM = 128
_N_BANDS = 16  # 8 rows per band → LSH s-curve threshold ≈ (1/16)^(1/8) ≈ 0.71


def _perm_params(seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    # odd multipliers → multiply-add over Z/2^64 (wraparound) is a bijection;
    # fully vectorizable in uint64, unlike Mersenne-prime modular arithmetic
    a = rng.integers(1, 1 << 63, size=_N_PERM, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 63, size=_N_PERM, dtype=np.uint64)
    return a, b


class MinHashSignatures:
    """doc → 128-perm MinHash signature (one fixed-width binary cell per doc),
    carrying the text through so downstream verification can hash-partition
    join on doc_id instead of broadcasting the corpus. Stateful setup (perm
    params) once per actor."""

    def __init__(self, ngram: int = 3, seed: int = 13):
        self.ngram = ngram
        self.a, self.b = _perm_params(seed)

    def _signature(self, text: str) -> np.ndarray:
        """Fully vectorized: byte n-gram windows packed into uint64 (exact
        shingle identity for n ≤ 8 bytes), distinct via np.unique, splitmix64
        bit-mix, then one (m × 128) multiply-add in Z/2^64 with min over
        shingles. Byte (not unicode-char) shingles — a faithful approximation
        of char n-grams for candidate generation; the verifier uses exact
        char n-gram Jaccard either way."""
        raw = np.frombuffer(text.lower().encode("utf-8"), dtype=np.uint8)
        n = min(self.ngram, 8)
        if raw.size < n:
            u = np.array([int.from_bytes(raw.tobytes(), "big")], dtype=np.uint64)
        else:
            w = raw[: raw.size - n + 1].astype(np.uint64)
            for k in range(1, n):
                w = (w << np.uint64(8)) | raw[k : raw.size - n + 1 + k]
            u = np.unique(w)
        with np.errstate(over="ignore"):
            # splitmix64 finalizer — packed windows are low-entropy ints
            z = u + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            vals = z[:, None] * self.a[None, :] + self.b[None, :]
        return vals.min(axis=0)

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        sigs = [self._signature(t).tobytes() for t in df["text"]]
        return pa.table(
            {"doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
             "sig": pa.array(sigs, pa.binary())}
        )


def make_minhash_fn(ngram: int = 3, seed: int = 13):
    """Task-mode MinHash map: the state is just the permutation params
    derived from ``(ngram, seed)``, built once per worker process
    (``context.worker_cached``) instead of once per actor-pool spin-up."""
    key = f"{ngram}:{seed}"

    def minhash_fn(df: pd.DataFrame) -> pa.Table:
        stage = worker_cached(
            "minhash", key, lambda: MinHashSignatures(ngram, seed)
        )
        return stage(df)

    return minhash_fn


def _binary_col_to_mat(
    col, width_bytes: int, n: int, dtype=np.uint64
) -> np.ndarray:
    """(n, width/itemsize) matrix from a fixed-width binary column with NO
    python-object round trip: each chunk's values buffer is sliced via its
    offsets (zero-copy when the chunk is unsliced). Handles both
    ``binary`` (variable offsets) and ``fixed_size_binary`` chunks. The old
    ``b"".join(col.to_pylist())`` materialized every cell as a Python bytes
    object — a measurable share of the estimate stage's serial time."""
    width = width_bytes // np.dtype(dtype).itemsize
    if n == 0:
        return np.zeros((0, width), dtype=dtype)
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for c in chunks:
        if len(c) == 0:
            continue
        if pa.types.is_fixed_size_binary(c.type):
            data = np.frombuffer(c.buffers()[1], dtype=np.uint8)[
                c.offset * width_bytes : (c.offset + len(c)) * width_bytes
            ]
        else:
            off = np.frombuffer(c.buffers()[1], dtype=np.int32)[
                c.offset : c.offset + len(c) + 1
            ]
            data = np.frombuffer(c.buffers()[2], dtype=np.uint8)[off[0] : off[-1]]
        parts.append(data)
    raw = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return raw.view(dtype).reshape(n, width)


def _fixed_binary_from_mat(mat: np.ndarray, width_bytes: int) -> pa.Array:
    """(n, width) contiguous matrix → fixed_size_binary(width) array sharing
    the matrix's memory (no per-row Python bytes objects)."""
    return pa.Array.from_buffers(
        pa.binary(width_bytes),
        mat.shape[0],
        [None, pa.py_buffer(np.ascontiguousarray(mat).view(np.uint8))],
    )


def sig_to_bands(t: pa.Table) -> pa.Table:
    """Signature rows → (bucket:int64, doc_id, minisig) band rows.
    Fully vectorized: the (n, 128) signature matrix is reshaped to
    (n, 16, 8) and each band is folded lane-by-lane with an FNV-style
    multiply-xor + splitmix64 finalizer — 128 vector ops total, no per-doc
    hashing loop. The int64 bucket packs the band id (4 bits) above a 58-bit
    band hash; collisions only create extra candidates, which verification
    removes.

    What each band row CARRIES (144 B vs round-3's 272 B and round-2's full
    1 KiB signature — the banding exchange is the measured scaling
    bottleneck, so every byte here is load-bearing):

    - ``minisig``: the low byte of each of the 128 lanes. The pairwise
      estimate counts equal mini-lanes; a differing lane collides on its low
      byte w.p. 1/256, inflating the count by ≤ ~0.5 of the 128 lanes —
      far inside the 3σ prefilter margin, and only ever ADDS candidates
      (verification removes them). 8× less gather traffic in the estimate.

    Round-5 change: the 16×8 B per-band hashes (``bands``) are GONE. They
    existed only for canonical-band dedup (emit a pair from its first
    colliding band). But the mini-lane estimate is a pure function of the
    PAIR — identical in every bucket the pair collides in — so emitting
    from every colliding bucket yields the same pair set, and exactly-once
    now comes from an explicit drop-duplicates at the (already
    pair-partitioned) verify stage instead. Same emitted set, 47% fewer
    bytes through the dominant exchange (measured: the 4→16 cpu scaling
    residual is exchange memory bandwidth, BASELINE.md round-5 entry)."""
    rows_per_band = _N_PERM // _N_BANDS
    n = t.num_rows
    if n == 0:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "minisig": pa.array([], pa.binary(_N_PERM))})
    flat = _binary_col_to_mat(t["sig"], _N_PERM * 8, n)
    mat = flat.reshape(n, _N_BANDS, rows_per_band)
    with np.errstate(over="ignore"):
        h = np.full((n, _N_BANDS), 0xCBF29CE484222325, dtype=np.uint64)
        for k in range(rows_per_band):
            h = (h ^ mat[:, :, k]) * np.uint64(0x100000001B3)
        z = h + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        band = np.arange(_N_BANDS, dtype=np.uint64)[None, :]
        bucket = ((band << np.uint64(58)) | (z >> np.uint64(6))).astype(np.int64)
    idx = np.repeat(np.arange(n), _N_BANDS)
    mini = (flat & np.uint64(0xFF)).astype(np.uint8)  # (n, 128)
    return pa.table(
        {"bucket": pa.array(bucket.ravel(), pa.int64()),
         "doc_id": t["doc_id"].take(pa.array(idx)),
         "minisig": _fixed_binary_from_mat(mini[idx], _N_PERM)}
    )


# a band row's payload beside its bucket key
_BAND_SCHEMA = pa.schema([("doc_id", pa.int64()), ("minisig", pa.binary(_N_PERM))])

_EST_MARGIN = 0.12  # ~3 * sqrt(j(1-j)/128) at j≈0.8


def _estimate_pairs_multi(threshold: float):
    """Candidate generation over a hash PARTITION of buckets (not one group
    per call — Ray's per-group map_groups costs ~ms of pandas overhead per
    group, ruinous for tens of thousands of mostly-singleton buckets; a
    partition call costs that once and walks its bucket segments at numpy
    speed).

    All segments' candidate pairs are generated as ONE global (ai, bi)
    index list (per-segment ``triu_indices``, cached by segment size, offset
    to global rows) and compared in fixed-size pair CHUNKS:
    ``mini[ai] == mini[bi]`` on a (chunk, 128) uint8 slab. Pair chunking
    bounds memory for mega-buckets (low-entropy band collisions): a segment
    of any size contributes pairs, never an (m, m) matrix.

    Only pairs with estimated Jaccard ≥ threshold - 3σ leave — this keeps
    mega-buckets from exploding into O(m²) shuffle rows.

    Canonical-band dedup, shuffle-free: a pair whose signatures agree in k
    bands lands in k buckets; each bucket knows its own band id and can
    recompute ALL band matches from the sigs it already holds, so the pair
    is emitted only from its FIRST matching band — global uniqueness
    without a pair-dedup exchange. (Pairs bucketed only via a 58-bit
    band-hash collision have no true matching band and are emitted as-is —
    verification removes false ones.)"""
    min_est_count = int(np.ceil((threshold - _EST_MARGIN) * _N_PERM))
    pair_chunk = 1 << 16  # (65536, 128) uint8 gathers ≈ 2×8 MiB per chunk
    triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def pair_index_chunks(starts: np.ndarray, sizes: np.ndarray):
        """Yield (ai, bi) global-row index arrays covering every
        within-segment pair exactly once, ~pair_chunk pairs each. Small
        segments coalesce into shared chunks; mega-segments stream out in
        row blocks so no O(m²) index array is ever materialized."""
        buf_a: list[np.ndarray] = []
        buf_b: list[np.ndarray] = []
        buf_n = 0
        for s, m in zip(starts.tolist(), sizes.tolist()):
            if m < 2:
                continue
            if m <= 2048:
                tri = triu_cache.get(m)
                if tri is None:
                    tri = np.triu_indices(m, k=1)
                    if m <= 64:  # cache only small (common) sizes
                        triu_cache[m] = tri
                buf_a.append(tri[0] + s)
                buf_b.append(tri[1] + s)
                buf_n += len(tri[0])
                if buf_n >= pair_chunk:
                    yield np.concatenate(buf_a), np.concatenate(buf_b)
                    buf_a, buf_b, buf_n = [], [], 0
            else:
                if buf_n:
                    yield np.concatenate(buf_a), np.concatenate(buf_b)
                    buf_a, buf_b, buf_n = [], [], 0
                rb = max(1, pair_chunk // m)
                for r0 in range(0, m - 1, rb):
                    rows = np.arange(r0, min(r0 + rb, m - 1))
                    counts = m - rows - 1
                    ai = np.repeat(rows, counts)
                    csum = np.cumsum(counts) - counts
                    bi = np.arange(int(counts.sum())) - np.repeat(csum, counts) + ai + 1
                    yield ai + s, bi + s
        if buf_n:
            yield np.concatenate(buf_a), np.concatenate(buf_b)

    def est_pairs(g: pa.Table) -> pa.Table:
        n = g.num_rows
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        if n >= 2:
            bkt = g["bucket"].to_numpy()
            ids = g["doc_id"].to_numpy()
            mini = _binary_col_to_mat(g["minisig"], _N_PERM, n, dtype=np.uint8)
            order = np.lexsort((ids, bkt))
            bkt, ids = bkt[order], ids[order]
            mini = mini[order]
            starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
            ends = np.r_[starts[1:], n]
            for ai, bi in pair_index_chunks(starts, ends - starts):
                # estimate from the uint8 mini-lanes (chance low-byte
                # collisions only ever ADD candidates; see sig_to_bands)
                est_ok = (mini[ai] == mini[bi]).sum(axis=1) >= min_est_count
                if est_ok.any():
                    sel = np.flatnonzero(est_ok)
                    # ids are ascending within each bucket (lexsort),
                    # so ids[ai] < ids[bi] already
                    out_a.append(ids[ai[sel]])
                    out_b.append(ids[bi[sel]])
        da = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        db = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        if len(da):
            # partition-local dedup (the estimate is pair-deterministic, so
            # a pair colliding in k buckets of this partition appears k
            # identical times): one lexsort-unique here, and the verify
            # stage's pair-partitioned drop-duplicates finishes the
            # cross-partition cases — together exactly-once, replacing the
            # per-row 128 B band-hash payload the exchange used to carry
            pairs = np.stack([da, db], axis=1)
            pairs = np.unique(pairs, axis=0)
            da, db = pairs[:, 0], pairs[:, 1]
        return pa.table({"doc_a": pa.array(da, pa.int64()),
                         "doc_b": pa.array(db, pa.int64())})

    return est_pairs


class PairVerifier:
    """Exact char n-gram Jaccard over JOINED rows (doc_a, doc_b, text_a,
    text_b). No broadcast state — texts arrive through the hash-partition
    join, so the stage is corpus-size-independent.

    Fast path (round-2 VERDICT wrong-#5, the last Python hot loop in the
    bench's slowest query): for ASCII text and n ≤ 8, char n-grams pack
    EXACTLY into uint64 windows (1 byte per char), so each doc becomes a
    sorted unique uint64 array once (cached per batch) and each pair is one
    ``np.intersect1d`` — C-speed set intersection with identical results.
    Non-ASCII docs (where utf-8 bytes ≠ chars) fall back to the python
    char-set computation pair-wise, preserving exactness."""

    def __init__(self, ngram: int, threshold: float):
        self.ngram = ngram
        self.threshold = threshold

    def _packed(self, text: str):
        """Sorted unique packed n-gram array, or None when the exact
        byte==char equivalence doesn't hold."""
        t = text.lower()
        if not t.isascii() or self.ngram > 8:
            return None
        raw = np.frombuffer(t.encode("ascii"), dtype=np.uint8)
        n = self.ngram
        if raw.size == 0:
            return np.empty(0, dtype=np.uint64)
        if raw.size < n:
            return np.array(
                [int.from_bytes(raw.tobytes(), "big")], dtype=np.uint64
            )
        w = raw[: raw.size - n + 1].astype(np.uint64)
        for k in range(1, n):
            w = (w << np.uint64(8)) | raw[k : raw.size - n + 1 + k]
        return np.unique(w)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        from crawler_ray.functions.text import char_ngrams, jaccard

        out = {"doc_a": [], "doc_b": [], "jaccard": []}
        if len(df):
            # shingle arrays/sets computed once per doc per batch (docs
            # repeat across pairs within a bucket's candidate block)
            packed: dict[int, np.ndarray | None] = {}
            sets: dict[int, set] = {}

            def pk(d, text):
                if d not in packed:
                    packed[d] = self._packed(text)
                return packed[d]

            def sh(d, text):
                if d not in sets:
                    sets[d] = char_ngrams(text, self.ngram)
                return sets[d]

            da = df["doc_a"].to_numpy(dtype=np.int64)
            db = df["doc_b"].to_numpy(dtype=np.int64)
            ta, tb = df["text_a"], df["text_b"]
            for i in range(len(df)):
                a = pk(da[i], ta.iloc[i])
                b = pk(db[i], tb.iloc[i])
                if a is not None and b is not None:
                    if not a.size and not b.size:
                        j = 1.0
                    else:
                        inter = np.intersect1d(a, b, assume_unique=True).size
                        j = inter / (a.size + b.size - inter)
                else:  # exact fallback for non-ASCII text
                    j = jaccard(sh(da[i], ta.iloc[i]), sh(db[i], tb.iloc[i]))
                if j >= self.threshold:
                    out["doc_a"].append(da[i])
                    out["doc_b"].append(db[i])
                    out["jaccard"].append(round(j, 6))
        return pd.DataFrame(
            {"doc_a": np.array(out["doc_a"], dtype=np.int64),
             "doc_b": np.array(out["doc_b"], dtype=np.int64),
             "jaccard": np.array(out["jaccard"], dtype=np.float64)}
        )



# candidate-pair sets small enough to broadcast (ids + partition map) to the
# doc scan: 2M pairs ≈ 48 MB of int64 triples in the object store, read
# zero-copy by every task. Above this the partitioned full-text attach runs.
_PAIR_BROADCAST_MAX = 2_000_000


def _broadcast_pair_halves(docs, cand_pairs: "pd.DataFrame"):
    """Guarded-broadcast text attach: candidate (doc_a, doc_b) pairs —
    ALREADY bounded by _PAIR_BROADCAST_MAX — are sorted per side on the
    driver and ``ray.put`` ONCE; the doc scan then emits text-bearing half
    rows (pair key, doc_a, doc_b, side, text) for exactly the docs that
    occur in some pair, straight into the pair-keyed verify exchange.

    vs the partitioned path this removes one all-to-all (the doc_id-keyed
    union exchange) AND stops shipping the texts of docs that occur in no
    pair — at 800k docs / 26k pairs the union exchange moved ~340 MB of
    text for a ~22 MB need. The estimate prefilter makes candidate sets
    small in practice; the partitioned path remains the unconditional
    fallback above the threshold (pair count at 100 TB scale is
    data-dependent, so the broadcast MUST be guarded — same rule as the
    relational BroadcastJoiner's footer-count auto-guard)."""
    import ray

    da = cand_pairs["doc_a"].to_numpy(np.int64)
    db = cand_pairs["doc_b"].to_numpy(np.int64)
    pkey = _pair_key(da, db)
    side_arrays = []
    for key in (da, db):
        order = np.argsort(key, kind="stable")
        side_arrays.append(
            (key[order], da[order], db[order], pkey[order])
        )
    pairs_ref = ray.put(side_arrays)

    def emit_halves(t: pa.Table) -> pa.Table:
        sides = ray.get(pairs_ref)  # zero-copy plasma read, cached per node
        ids = t["doc_id"].to_numpy()
        texts = t["text"]
        out = []
        for side_idx, (skey, sda, sdb, svp) in enumerate(sides):
            lo = np.searchsorted(skey, ids, "left")
            hi = np.searchsorted(skey, ids, "right")
            cnt = hi - lo
            nz = np.flatnonzero(cnt)
            if len(nz) == 0:
                continue
            # expand [lo, hi) ranges vectorized: one arange minus repeated
            # starts, offset by repeated lo
            c = cnt[nz]
            rep = np.repeat(nz, c)
            base = np.concatenate([np.arange(l, h) for l, h in
                                   zip(lo[nz].tolist(), hi[nz].tolist())])
            out.append(pa.table(
                {"key": pa.array(svp[base], pa.int64()),
                 "doc_a": pa.array(sda[base], pa.int64()),
                 "doc_b": pa.array(sdb[base], pa.int64()),
                 "side": pa.array(
                     np.full(len(base), side_idx, np.int64), pa.int64()),
                 "text": texts.take(pa.array(rep))}
            ))
        if not out:
            return _HALF_SCHEMA.insert(0, pa.field("key", pa.int64())).empty_table()
        return pa.concat_tables(out)

    return docs.map_batches(emit_halves, batch_format="pyarrow")


# a candidate pair's text-bearing half row (side 0: doc_a's text)
_HALF_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                          ("side", pa.int64()), ("text", pa.string())])


def _pair_key(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """The verify exchange's key: a pure function of the pair, so every
    emission of a pair meets in one partition."""
    return (da * np.int64(1000003) + db).astype(np.int64)


def _verified_pairs(
    sf_dir: str, candidates: rd.Dataset, ngram: int, threshold: float
) -> rd.Dataset:
    """Exact-Jaccard verification of materialized candidate (doc_a, doc_b)
    pairs. Each pair needs both texts: at most ``_PAIR_BROADCAST_MAX``
    pairs broadcast to the doc scan (``_broadcast_pair_halves``); above
    it, pair half-rows and doc rows meet in ONE doc-keyed ``copartition``
    (the fused text attach — corpus text crosses the network once). Then
    one pair-keyed ``copartition`` co-locates a pair's two halves, so the
    dedup there is global (exactly-once). Both exchanges are sized from
    two half-rows per candidate plus one row per doc."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_cand = candidates.count()
    nb = parts_for_rows(2 * n_cand + _footer_rows(f"{sf_dir}/documents.parquet"))

    def halves(t: pa.Table) -> pa.Table:
        # each candidate pair → two half-rows keyed by the doc whose text
        # it needs
        da = t["doc_a"].to_numpy()
        db = t["doc_b"].to_numpy()
        n = len(da)
        return pa.table(
            {"key": pa.array(np.concatenate([da, db]), pa.int64()),
             "doc_a": pa.array(np.concatenate([da, da]), pa.int64()),
             "doc_b": pa.array(np.concatenate([db, db]), pa.int64()),
             "side": pa.array(
                 np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)], pa.int64()
             )}
        )

    def attach(h: pa.Table, d: pa.Table) -> pa.Table:
        lookup = dict(zip(d["key"].to_numpy(), d["text"].to_pylist()))
        da = h["doc_a"].to_numpy()
        db = h["doc_b"].to_numpy()
        return pa.table(
            {"key": pa.array(_pair_key(da, db), pa.int64()),
             "doc_a": h["doc_a"], "doc_b": h["doc_b"], "side": h["side"],
             "text": pa.array([lookup[k] for k in h["key"].to_numpy()],
                              pa.string())}
        )

    verifier = PairVerifier(ngram, threshold)

    def pair_up(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas()
        # exactly-once: the key is a pure function of (doc_a, doc_b), so
        # ALL duplicate emissions of a pair (different buckets, different
        # estimate partitions) land in this one call — dedup here is global
        a = df[df["side"] == 0][["doc_a", "doc_b", "text"]].rename(
            columns={"text": "text_a"}
        ).drop_duplicates(["doc_a", "doc_b"])
        b = df[df["side"] == 1][["doc_a", "doc_b", "text"]].rename(
            columns={"text": "text_b"}
        ).drop_duplicates(["doc_a", "doc_b"])
        return verifier(a.merge(b, on=["doc_a", "doc_b"]))

    if 0 < n_cand <= _PAIR_BROADCAST_MAX:
        # (n_cand == 0 stays on the partitioned path: Ray drops the schema
        # of an all-empty Dataset, so to_pandas() would yield a 0-column
        # frame — the partitioned path is already empty-safe end to end)
        cand = candidates.to_pandas().drop_duplicates(["doc_a", "doc_b"])
        attached = _broadcast_pair_halves(docs, cand)
    else:
        attached = copartition(
            [candidates.map_batches(halves, batch_format="pyarrow"),
             docs.map_batches(
                 lambda t: pa.table({"key": t["doc_id"], "text": t["text"]}),
                 batch_format="pyarrow")],
            attach, _HALF_SCHEMA, nb,
        )
    return copartition([attached], pair_up, _HALF_SCHEMA, nb)


def minhash_near_dup_pairs(
    sf_dir: str, ngram: int = 3, threshold: float = 0.8
) -> rd.Dataset:
    """MinHash→LSH candidate generation → exact-Jaccard verification.
    Rows-only driver check (LSH is probabilistic; recall vs brute force is
    asserted in tests/test_dedup.py on a corpus with planted near-dups).

    Scale shape — every stage distributed, NO driver-side state, NO
    broadcasts (round-1 broadcast the whole corpus; VERDICT item #4):
      docs → signatures (task-mode, worker-cached params) → vectorized
      banding (band rows carry the sig; see sig_to_bands) → ONE bucket
      groupby running the fused pairwise-estimate prefilter with
      canonical-band dedup (pairs leave each bucket globally unique — no
      pair-dedup exchange, and mega-buckets can't explode: the estimate
      kills spurious collisions where the signatures already are) →
      ONE fused text attach (round-3: the two per-side hash joins each
      re-shuffled the corpus; candidate pairs now explode to (doc_id,
      side) half-rows that union with the docs ONCE — corpus text crosses
      the network exactly one time, and the second exchange moves only the
      estimate-surviving pairs' texts) → exact-Jaccard verify (task-mode)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    sigs = docs.map_batches(make_minhash_fn(ngram), batch_format="pandas")
    candidates = copartition(
        [sigs.map_batches(sig_to_bands, batch_format="pyarrow")],
        _estimate_pairs_multi(threshold),
        _BAND_SCHEMA,
        # each doc sends one row per band
        exchange_parts(sf_dir, *["documents"] * _N_BANDS),
        key="bucket",
    ).materialize()  # O(pairs) blocks; executed once, reused either path
    return _verified_pairs(sf_dir, candidates, ngram, threshold)


# ---------------------------------------------------------------------------
# SimHash near-dup


def simhash_batch(df: pd.DataFrame) -> pa.Table:
    """Batch-vectorized 64-bit SimHash: tokens of the whole batch are
    flattened, hashed ONCE with pandas' vectorized siphash
    (``pd.util.hash_array``, deterministic fixed key), unpacked to a bit
    matrix and majority-voted per doc with one ``np.add.reduceat`` — no
    per-doc Python hashing loop."""
    from crawler_ray.functions.text import TOKEN_RE

    toks_per_doc = [TOKEN_RE.findall(t.lower()) for t in df["text"]]
    counts = np.fromiter(map(len, toks_per_doc), np.int64, len(toks_per_doc))
    out = np.zeros(len(counts), dtype=np.uint64)
    nz = np.flatnonzero(counts)
    if len(nz):
        flat = np.array(
            [tok for toks in toks_per_doc for tok in toks], dtype=object
        )
        hs = pd.util.hash_array(flat)
        bits = np.unpackbits(hs[:, None].view(np.uint8), axis=1)
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        sums = np.add.reduceat(bits, starts[nz], axis=0)
        maj = (2 * sums >= counts[nz, None]).astype(np.uint8)
        packed = np.packbits(maj, axis=1)
        out[nz] = packed.view(np.uint64).reshape(-1)
    return pa.table(
        {"doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
         "simhash": pa.array(out.astype(np.int64), pa.int64())}
    )


def _simhash_band_layout(max_hamming: int) -> list[tuple[int, int]]:
    """(offset, width) of each banding block over the 64-bit signature:
    ``max_hamming + 1`` bands (pigeonhole: ≤ max_hamming differing bits
    leave at least one band untouched — the guaranteed-recall rule the
    phash walk also uses). Widths differ by at most one bit. Floor of 2
    bands (still sound for max_hamming = 0) keeps every band ≤ 32 bits so
    the (band_idx << 48 | value) int64 bucket pack never overflows."""
    nb = max(2, int(max_hamming) + 1)
    if nb > 64:
        raise ValueError("max_hamming must be < 64")
    base, extra = divmod(64, nb)
    layout, off = [], 0
    for i in range(nb):
        w = base + (1 if i < extra else 0)
        layout.append((off, w))
        off += w
    return layout


def _hamming_pairs_multi(max_hamming: int):
    """Per-partition candidate generation + Hamming verification, fused:
    walks bucket segments at numpy speed (see _estimate_pairs_multi for why
    per-group map_groups is avoided), computes the pairwise XOR-popcount
    inside each segment, and emits a (doc_a, doc_b, hamming) row only from
    the pair's FIRST matching band — globally unique output with no
    pair-dedup exchange and no text/signature joins at all (Hamming
    verification needs nothing beyond the signatures already present)."""
    chunk = 2048
    layout = _simhash_band_layout(max_hamming)
    offs = np.array([o for o, _ in layout], dtype=np.uint64)
    masks = np.array(
        [np.uint64(2**w - 1) if w < 64 else np.uint64(2**64 - 1)
         for _, w in layout],
        dtype=np.uint64,
    )
    _POP = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    ).astype(np.uint8)

    def pairs(g: pa.Table) -> pa.Table:
        n = g.num_rows
        out_a, out_b, out_d = [], [], []
        if n >= 2:
            bkt = g["bucket"].to_numpy()
            ids = g["doc_id"].to_numpy()
            sh = g["simhash"].to_numpy().astype(np.uint64)
            order = np.lexsort((ids, bkt))
            bkt, ids, sh = bkt[order], ids[order], sh[order]
            starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
            ends = np.r_[starts[1:], n]
            for s, e in zip(starts.tolist(), ends.tolist()):
                m = e - s
                if m < 2:
                    continue
                seg = sh[s:e]
                sids = ids[s:e]
                cur_q = int(bkt[s]) >> 48
                for c0 in range(0, m, chunk):
                    c1 = min(c0 + chunk, m)
                    x = seg[c0:c1, None] ^ seg[None, :]
                    d = _POP[x.view(np.uint8).reshape(c1 - c0, m, 8)].sum(
                        axis=2
                    ).astype(np.int64)
                    mask = d <= max_hamming
                    mask &= np.arange(c0, c1)[:, None] < np.arange(m)[None, :]
                    ai, bi = np.nonzero(mask)
                    if not len(ai):
                        continue
                    ai = ai + c0
                    # canonical-band dedup: every band is derivable from the
                    # two signatures, so emit only from the first equal band
                    xr = (seg[ai] ^ seg[bi])[:, None] >> offs[None, :]
                    q_eq = (xr & masks[None, :]) == 0
                    keep = q_eq.argmax(axis=1) == cur_q
                    if keep.any():
                        out_a.append(sids[ai[keep]])
                        out_b.append(sids[bi[keep]])
                        out_d.append(d[ai[keep] - c0, bi[keep]])
        da = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        db = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        dd = np.concatenate(out_d) if out_d else np.array([], dtype=np.int64)
        return pa.table({"doc_a": pa.array(da, pa.int64()),
                         "doc_b": pa.array(db, pa.int64()),
                         "hamming": pa.array(dd, pa.int64())})

    return pairs


def simhash_near_dup_pairs(sf_dir: str, max_hamming: int = 3) -> rd.Dataset:
    """SimHash banding with GUARANTEED recall at any radius:
    ``max_hamming + 1`` near-equal-width bands over the 64-bit signature —
    two signatures within Hamming distance ≤ max_hamming share at least
    one exact band (pigeonhole; the default 3 gives the classic 4×16-bit
    quarters) → one bucket-keyed ``copartition`` → fused in-segment
    Hamming verify + canonical-band dedup. Two map stages and ONE exchange
    total. Rows-only driver check."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    sigs = docs.map_batches(simhash_batch, batch_format="pandas")
    layout = _simhash_band_layout(max_hamming)
    if max_hamming >= 16:
        # bands narrower than 4 bits bucket ~everything together — the
        # verify stays exact but the candidate walk degrades toward O(n²);
        # radii that large want a different signature width, not banding
        raise ValueError("simhash banding supports max_hamming < 16")
    offs = np.array([o for o, _ in layout], dtype=np.uint64)
    masks = np.array([np.uint64(2**w - 1) for _, w in layout], dtype=np.uint64)
    nb = len(layout)

    def explode(t: pa.Table) -> pa.Table:
        s = t["simhash"].to_numpy().astype(np.uint64)
        n = len(s)
        value = (s[:, None] >> offs[None, :]) & masks[None, :]
        # single int64 bucket key: band index in bits 48+, band value low
        # (band width ≤ 32 bits for nb ≥ 2, so the pack never collides)
        bucket = (
            (np.arange(nb, dtype=np.uint64)[None, :] << np.uint64(48)) | value
        ).astype(np.int64)
        idx = np.repeat(np.arange(n), nb)
        bucket = bucket.ravel()
        return pa.table({
            "bucket": pa.array(bucket, pa.int64()),
            "doc_id": t["doc_id"].take(pa.array(idx)),
            "simhash": t["simhash"].take(pa.array(idx)),
        })

    return copartition(
        [sigs.map_batches(explode, batch_format="pyarrow")],
        _hamming_pairs_multi(max_hamming),
        pa.schema([("doc_id", pa.int64()), ("simhash", pa.int64())]),
        # each doc sends one row per band
        exchange_parts(sf_dir, *["documents"] * nb),
        key="bucket",
    )


# ---------------------------------------------------------------------------
# thresholded set-Jaccard over canonical shingle sets (bounded-universe
# all-pairs; the exact-answer sibling of the MinHash-LSH path above)


def _canon_token_set(text: str) -> str:
    """Canonical form of a doc's DISTINCT word set (\\x00-joined, sorted)."""
    return "\x00".join(sorted(set(text.split())))


def _canon_bigram_set(text: str) -> str:
    """Canonical form of a doc's DISTINCT word-bigram shingle set."""
    toks = text.split()
    return "\x00".join(sorted({toks[i] + " " + toks[i + 1]
                               for i in range(len(toks) - 1)}))


def token_jaccard_pairs(
    sf_dir: str, threshold: float = 0.95, n_blocks: int = 4
) -> rd.Dataset:
    """All doc pairs with word-level Jaccard ≥ threshold (EXACT, matching
    the SQL oracle bit-for-bit).

    Scale shape — Jaccard only sees DISTINCT token sets, so the quadratic
    work runs over distinct sets, not documents:
      docs → (set_key, doc_id) keyed rows (distributed map) →
      distinct-set rows (groupby; S rows, corpus-size-INDEPENDENT for a
      bounded vocabulary) → qualifying SET pairs via a BLOCK-NESTED-LOOP
      self-join (round-2 VERDICT #6: the S×V matmul previously ran on the
      driver over a ``to_pandas()`` of the distinct-set table — now each
      set ships to ``n_blocks`` pair groups, the exact same integer
      intersection/union matmul runs per group where the rows already are,
      and per-task memory is 2·S/B sets; the ``embedding_near_dup_pairs``
      shape) → doc-pair emission back in the data plane: two
      hash-partition joins of the set-pair rows against the keyed rows
      (each output doc pair materializes exactly once; no driver-side
      corpus read, no corpus-sized broadcast).

    Applicability: the quadratic runs over DISTINCT sets (S), banded by the
    size filter; per-doc-unique tokens are pruned from the matrix (DF>=2
    columns only), so vocabulary size is not a constraint. When S itself
    grows with the corpus, use the MinHash-LSH path above instead."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    return _set_jaccard_pairs(_keyed_sets(docs, _canon_token_set),
                              threshold, n_blocks, exchange_parts(sf_dir, "documents"))


def bigram_jaccard_pairs(
    sf_dir: str, threshold: float = 0.9, n_blocks: int = 4
) -> rd.Dataset:
    """All doc pairs with word-BIGRAM shingle Jaccard ≥ threshold (EXACT,
    SQL-oracled). The n-gram member of the dedup family: shingles carry
    local word ORDER, so a shuffled bag of the same words (which token-set
    Jaccard calls identical) scores low here — the standard n-gram
    near-dup signal, computed exactly on the same block-nested-loop
    distinct-set engine as :func:`token_jaccard_pairs`. Docs with fewer
    than two tokens have no shingles and never pair (matches the SQL,
    where they vanish from the exploded shingle relation)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    return _set_jaccard_pairs(_keyed_sets(docs, _canon_bigram_set),
                              threshold, n_blocks, exchange_parts(sf_dir, "documents"))


def _keyed_sets(docs: rd.Dataset, canon_fn) -> rd.Dataset:
    """docs(doc_id, text) → (set_id, doc_id, toks) keyed canonical-set rows."""
    def key_stage(df: pd.DataFrame) -> pa.Table:
        keys, canons = [], []
        for t in df["text"]:
            canon = canon_fn(t)
            canons.append(canon)
            h = hashlib.md5(canon.encode("utf-8")).digest()
            keys.append(int.from_bytes(h[:8], "big") >> 1)  # int64 ≥ 0
        return pa.table(
            {"set_id": pa.array(keys, pa.int64()),
             "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
             "toks": pa.array(canons, pa.string())}
        )

    return docs.map_batches(key_stage, batch_format="pandas").materialize()


def _distinct_set_pairs(
    keyed: rd.Dataset, threshold: float, n_blocks: int, parts: int
) -> rd.Dataset:
    """SET-level thresholded Jaccard pairs (key_a, key_b, jaccard) over the
    distinct canonical sets of ``keyed`` (set_id, doc_id, toks) — the
    quotient of the doc relation by exact-set equality. Includes the
    key_a == key_b self pair (jaccard 1), which the doc-pair emission uses
    to pair same-set docs and the cluster pipeline uses as a node row."""
    B = n_blocks

    # distinct sets: one representative row per set. Batch-local first-
    # occurrence fold (combiner: cuts the exchange volume) → ONE set-keyed
    # ``copartition`` over ``parts`` partitions → the same vectorized fold
    # per partition — the segment-walk template, not a per-set map_groups
    # (which paid the ~0.35 ms/group dispatch x |sets| this pipeline's own
    # band-dedup design eliminates).

    def first_per_set(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"set_id": pa.array([], pa.int64()),
                 "toks": pa.array([], pa.string())}
            )
        ids = t["set_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        keep = np.r_[True, ids[order][1:] != ids[order][:-1]]
        return t.select(["set_id", "toks"]).take(pa.array(order[keep]))

    distinct = copartition(
        [keyed.map_batches(first_per_set, batch_format="pyarrow")],
        first_per_set, pa.schema([("toks", pa.string())]), parts, key="set_id",
    ).materialize()  # S rows; counted to size the block grid
    # Adaptive block count: per-pair-block tasks hold ~2x4000 sets, so the
    # int64 intersection matrix stays ≤ 4000² x 8 B ≈ 128 MiB no matter how
    # many distinct sets the corpus has (B=4 with S≈50k meant 12.5k² ≈
    # 1.2 GiB per task — measured 178 s with spills; adaptive B cuts the
    # same corpus to seconds). Replication is B copies/set — the inherent
    # quadratic-work/memory trade of the exact path; MinHash remains the
    # declared open-vocab/large-S route.
    B = max(B, -(-distinct.count() // 4000))

    def explode(t: pa.Table) -> pa.Table:
        # each set joins every block pair containing its block (p ≤ q);
        # same replication pattern as embedding_near_dup_pairs
        ids = t["set_id"].to_numpy()
        blk = (ids % B).astype(np.int64)
        pair_ids, idx = [], []
        for i, b in enumerate(blk.tolist()):
            for q in range(b, B):
                pair_ids.append(b * B + q)
                idx.append(i)
            for p in range(0, b):
                pair_ids.append(p * B + b)
                idx.append(i)
        take = pa.array(np.asarray(idx, dtype=np.int64))
        return pa.table(
            {"pair": pa.array(np.asarray(pair_ids, dtype=np.int64), pa.int64()),
             "set_id": t["set_id"].take(take),
             "toks": t["toks"].take(take)}
        )

    def score(g: pa.Table) -> pa.Table:
        pair = int(g["pair"][0].as_py())
        p, q = divmod(pair, B)
        ids = g["set_id"].to_numpy()
        # vectorized set decode: ONE C-level split over the whole group's
        # canonical strings (members are already distinct per set), then a
        # hash factorize — no Python per-token loop
        toks_col = g["toks"].combine_chunks()
        lists = pc.split_pattern(toks_col, "\x00")
        lengths = pc.list_value_length(lists).to_numpy().astype(np.int64)
        flat = lists.values.to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(ids), dtype=np.int64), lengths)
        nonempty = flat != ""  # an empty canon ("") splits to one "" token
        flat, rows = flat[nonempty], rows[nonempty]
        sizes = np.bincount(rows, minlength=len(ids)).astype(np.int64)
        # DF>=2 vocabulary pruning: a token present in only ONE set of this
        # group contributes 0 to every pairwise intersection — it enters the
        # Jaccard only through the set SIZES (computed from the full sets
        # above), so dropping its matrix column is exact. Web corpora are
        # full of per-doc-unique tokens (ids, urls, hashes), which otherwise
        # make the union vocab — and the dense matrix width — grow O(group):
        # the 50k-doc scale smoke measured ~16k -> ~1k columns per group.
        codes, uniques = pd.factorize(flat)
        dfreq = np.bincount(codes, minlength=len(uniques))
        keep_tok = dfreq >= 2
        col_of = np.cumsum(keep_tok) - 1  # compact column ids for kept toks
        tok_mask = keep_tok[codes]
        n_vocab = int(keep_tok.sum())
        # float32 so the intersection matmul runs on BLAS (int64 @ falls
        # back to a naive loop); counts are integers <= max set size << 2^24
        # and every partial sum is an exact float32 integer, so casting the
        # product back to int64 reproduces the integer matmul bit-for-bit.
        mat = np.zeros((len(ids), max(n_vocab, 1)), dtype=np.float32)
        mat[rows[tok_mask], col_of[codes[tok_mask]]] = 1.0
        empty = pa.table(
            {"key_a": pa.array([], pa.int64()),
             "key_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
        # Row-chunked pairing: the full n×n union/jac/mask temporaries were
        # the dominant cost at large S (5× ~100 MiB allocations per group,
        # measured 3× the matmul time); chunking keeps peak extra memory at
        # CH×n and the same float64 division semantics (oracle-exact).
        CH = 512

        def chunked_pairs(la, lm, ls, ra, rm, rs, same: bool):
            # both sides arrive sorted by (size, id). Length filter
            # (AllPairs/PPJoin): jaccard >= t forces t*|A| <= |B| <= |A|/t,
            # so each left chunk only multiplies against the right rows in
            # its size window — the matmul is BANDED, not all-pairs.
            hi_ratio = (1.0 / threshold) if threshold > 0 else np.inf
            out_a, out_b, out_j = [], [], []
            for s0 in range(0, len(la), CH):
                lsc = ls[s0:s0 + CH]
                # +-1 slack: sizes are integers, so widening the float
                # bounds by one absorbs any rounding of t*s / s/t past an
                # exactly-qualifying size (e.g. t=0.95, 95 vs 100 -> J=0.95);
                # the window is a PREfilter — extra columns are harmless,
                # a missed column loses a pair
                w0 = int(np.searchsorted(rs, threshold * lsc[0] - 1.0))
                if same:  # strict upper triangle: partners sit after s0
                    w0 = max(w0, s0)
                w1 = int(np.searchsorted(rs, lsc[-1] * hi_ratio + 1.0,
                                         side="right"))
                if w0 >= w1:
                    continue
                inter = (lm[s0:s0 + CH] @ rm[w0:w1].T).astype(np.int64)
                union = np.maximum(
                    lsc[:, None] + rs[None, w0:w1] - inter, 1
                )
                jac = inter / union
                ai, bi = np.nonzero(jac >= threshold)
                bi = bi + w0
                if same:  # STRICT upper triangle: the pruned-vocab self-
                    # intersection understates set size, so the diagonal is
                    # emitted explicitly below (jaccard 1 by definition)
                    keep = (s0 + ai) < bi
                    ai, bi = ai[keep], bi[keep]
                out_a.append(la[s0 + ai])
                out_b.append(ra[bi])
                out_j.append(np.round(jac[ai, bi - w0], 6))
            if not out_a:
                z = np.array([], np.int64)
                return z, z, np.array([], np.float64)
            cat = np.concatenate
            return cat(out_a), cat(out_b), cat(out_j)

        if p == q:
            order = np.lexsort((ids, sizes))  # size-major total order
            ids, mat, sizes = ids[order], mat[order], sizes[order]
            ka, kb, jv = chunked_pairs(ids, mat, sizes, ids, mat, sizes, True)
            # self pairs: jaccard(S, S) = 1 for every NON-EMPTY set (an
            # empty set's old-path self score was 0/max(0,1) = 0, never
            # >= threshold — preserved by the sizes > 0 mask)
            diag = ids[sizes > 0]
            ka = np.concatenate([ka, diag])
            kb = np.concatenate([kb, diag])
            jv = np.concatenate([jv, np.ones(len(diag), np.float64)])
        else:
            blk = ids % B
            li, ri = blk == p, blk == q
            if not li.any() or not ri.any():
                return empty
            lo_, ro_ = (np.lexsort((ids[li], sizes[li])),
                        np.lexsort((ids[ri], sizes[ri])))
            ka, kb, jv = chunked_pairs(
                ids[li][lo_], mat[li][lo_], sizes[li][lo_],
                ids[ri][ro_], mat[ri][ro_], sizes[ri][ro_], False
            )
        return pa.table(
            {"key_a": pa.array(ka, pa.int64()),
             "key_b": pa.array(kb, pa.int64()),
             "jaccard": pa.array(jv, pa.float64())}
        )

    return (
        distinct.map_batches(explode, batch_format="pyarrow")
        .groupby("pair")
        .map_groups(score, batch_format="pyarrow")
    )


def _set_jaccard_pairs(
    keyed: rd.Dataset, threshold: float, n_blocks: int, parts: int
) -> rd.Dataset:
    """Exact thresholded Jaccard over canonical element-set rows
    (set_id, doc_id, toks): distinct sets → block-nested-loop set-pair
    matmul → doc-pair emission via two hash-partition joins."""
    from crawler_ray.pipelines.joins import partitioned_hash_join

    set_pairs = _distinct_set_pairs(keyed, threshold, n_blocks, parts)
    members = keyed.select_columns(["set_id", "doc_id"])

    def rename(cols):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns(cols)

        return fn

    side_a = members.map_batches(rename(["key_a", "doc_a"]), batch_format="pyarrow")
    side_b = members.map_batches(rename(["key_b", "doc_b"]), batch_format="pyarrow")
    pair_schema = pa.schema(
        [("key_a", pa.int64()), ("key_b", pa.int64()), ("jaccard", pa.float64())]
    )
    j1 = partitioned_hash_join(
        set_pairs,
        side_a,
        on="key_a",
        n_buckets=8,
        left_schema=pair_schema,
        right_schema=pa.schema([("key_a", pa.int64()), ("doc_a", pa.int64())]),
    )
    j2 = partitioned_hash_join(
        j1,
        side_b,
        on="key_b",
        n_buckets=8,
        left_schema=pa.schema(
            [("key_a", pa.int64()), ("key_b", pa.int64()),
             ("jaccard", pa.float64()), ("doc_a", pa.int64())]
        ),
        right_schema=pa.schema([("key_b", pa.int64()), ("doc_b", pa.int64())]),
    )

    def emit(t: pa.Table) -> pa.Table:
        da = t["doc_a"].to_numpy()
        db = t["doc_b"].to_numpy()
        jc = t["jaccard"].to_numpy()
        same = t["key_a"].to_numpy() == t["key_b"].to_numpy()
        # same-set pairs enumerate twice ((x,y) and (y,x)); cross-set pairs
        # once — order-normalize and keep doc_a < doc_b
        lo, hi = np.minimum(da, db), np.maximum(da, db)
        keep = lo < hi
        keep &= ~same | (da < db)
        return pa.table(
            {"doc_a": pa.array(lo[keep], pa.int64()),
             "doc_b": pa.array(hi[keep], pa.int64()),
             "jaccard": pa.array(jc[keep], pa.float64())}
        )

    return j2.map_batches(emit, batch_format="pyarrow")


def token_jaccard_sql(threshold: float = 0.95) -> str:
    # empty/whitespace-only docs are EXCLUDED on both sides (the Ray path
    # drops empty token sets; without the trim() <> '' filter DuckDB's
    # string_split_regex('') yields [''] — a phantom 1-element set that
    # would score two empty docs jaccard 1.0)
    return rf"""
WITH dtok AS (
    SELECT DISTINCT doc_id, unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS w
    FROM documents WHERE trim(text) <> ''
),
cnt AS (SELECT doc_id, COUNT(*) AS n FROM dtok GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
    FROM dtok a JOIN dtok b ON a.w = b.w AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       ROUND(c / (ca.n + cb.n - c)::DOUBLE, 6) AS jaccard
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE c / (ca.n + cb.n - c)::DOUBLE >= {threshold}
"""


def bigram_jaccard_sql(threshold: float = 0.9) -> str:
    return rf"""
WITH toks AS (
    SELECT doc_id, w, pos FROM (
        SELECT doc_id,
               unnest(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '')) AS w,
               generate_subscripts(list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != ''), 1) AS pos
        FROM documents)
),
dtok AS (
    SELECT DISTINCT a.doc_id, a.w || ' ' || b.w AS s
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
),
cnt AS (SELECT doc_id, COUNT(*) AS n FROM dtok GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
    FROM dtok a JOIN dtok b ON a.s = b.s AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       ROUND(c / (ca.n + cb.n - c)::DOUBLE, 6) AS jaccard
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE c / (ca.n + cb.n - c)::DOUBLE >= {threshold}
"""


# ---------------------------------------------------------------------------
# exact substring-span dedup (duplicate k-token windows removed corpus-wide)


def substring_span_dedup(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Exact substring-span deduplication: every k-token window whose exact
    token sequence occurs at >= 2 positions corpus-wide (any doc, including
    self-repetition) is marked, and all covered token positions are removed
    from each document (Lee et al. 2022, "Deduplicating Training Data Makes
    Language Models Better" — the ExactSubstr policy, window-hash formulation
    instead of a suffix array). Generalizes the reference's exact-key dedup
    family (SURVEY.md §2.7) from whole-record keys to intra-document spans.

    Output per doc: (doc_id, n_tokens, n_dup_windows, n_removed_tokens,
    clean_text) where clean_text is the whitespace-normalized text with
    covered spans dropped.

    Scale shape — two exchanges, both segment-fold template:
      1. one (window, doc_id, pos) row per token position, vectorized via the
         shifted str.cat n-gram build; one window-hash ``copartition``;
         within each partition an np.unique count over the window STRINGS
         marks duplicated windows exactly (no 64-bit-hash collision risk).
      2. marked (doc_id, pos) rows and the texts are the two sides of one
         doc-keyed ``copartition``; per doc a diff-array interval union
         (np.add.at + cumsum) computes covered positions and rebuilds the
         clean text.
    A doc's window count has no footer bound, so both exchanges take
    ``EXCHANGE_PARTS`` partitions.
    Documented tradeoff: exchange 1 carries ~k x corpus bytes (every token
    appears in k window strings). The petabyte-scale variant prefilters on
    slim 64-bit window hashes first and ships strings only for candidate
    positions (two extra passes, same marking semantics); at any scale the
    marking itself stays exact because final counts group on strings.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    _WIN_SCHEMA = pa.schema(
        [("key", pa.int64()), ("win", pa.string()), ("doc_id", pa.int64()),
         ("pos", pa.int64())]
    )

    def windows(df: pd.DataFrame) -> pa.Table:
        toks_per = df["text"].str.strip().str.split()
        lens = toks_per.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        m = total - (k - 1)
        if m <= 0:
            return _WIN_SCHEMA.empty_table()
        flat = pd.Series(np.concatenate(toks_per.to_numpy()), dtype=object)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        win = flat.str.cat([flat.shift(-i) for i in range(1, k)], sep=" ")
        valid = doc_idx[:m] == doc_idx[k - 1:]
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        pos = (np.arange(total) - starts)[:m][valid]
        sel_win = win.to_numpy()[:m][valid]
        sel_doc = df["doc_id"].to_numpy()[doc_idx[:m][valid]]
        return pa.table(
            {"key": pa.array(pd.util.hash_array(sel_win).view(np.int64)),
             "win": pa.array(sel_win, pa.string()),
             "doc_id": pa.array(sel_doc, pa.int64()),
             "pos": pa.array(pos, pa.int64())}
        ).cast(_WIN_SCHEMA)

    def mark(g: pa.Table) -> pa.Table:
        w = g["win"].to_numpy(zero_copy_only=False)
        _, inv, cnt = np.unique(w, return_inverse=True, return_counts=True)
        dup = cnt[inv] >= 2
        doc = g["doc_id"].to_numpy(zero_copy_only=False)[dup]
        pos = g["pos"].to_numpy(zero_copy_only=False)[dup]
        return pa.table(
            {"key": pa.array(doc, pa.int64()), "pos": pa.array(pos, pa.int64())}
        )

    _OUT_SCHEMA = pa.schema(
        [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
         ("n_dup_windows", pa.int64()), ("n_removed_tokens", pa.int64()),
         ("clean_text", pa.string())]
    )

    def rebuild(texts: pa.Table, marks: pa.Table) -> pa.Table:
        by_doc = {
            int(d): grp["pos"].to_numpy()
            for d, grp in marks.select(["key", "pos"]).to_pandas()
            .groupby("key", sort=False)
        }
        out_doc, out_nt, out_ndw, out_nrm, out_clean = [], [], [], [], []
        for doc_id, text in zip(texts["key"].to_pylist(),
                                texts["text"].to_pylist()):
            toks = (text or "").split()
            n = len(toks)
            P = by_doc.get(int(doc_id))
            if P is None or n == 0:
                clean, ndw, nrm = " ".join(toks), 0, 0
            else:
                P = P.astype(np.int64)
                delta = np.zeros(n + 1, np.int64)
                np.add.at(delta, P, 1)
                np.add.at(delta, np.minimum(P + k, n), -1)
                covered = np.cumsum(delta[:n]) > 0
                arr = np.array(toks, object)
                clean = " ".join(arr[~covered])
                ndw, nrm = len(P), int(covered.sum())
            out_doc.append(int(doc_id))
            out_nt.append(n)
            out_ndw.append(ndw)
            out_nrm.append(nrm)
            out_clean.append(clean)
        return pa.table(
            {"doc_id": out_doc, "n_tokens": out_nt,
             "n_dup_windows": out_ndw, "n_removed_tokens": out_nrm,
             "clean_text": out_clean}
        ).cast(_OUT_SCHEMA)

    marked = copartition(
        [docs.map_batches(windows, batch_format="pandas")], mark,
        _WIN_SCHEMA.remove(0), joins.EXCHANGE_PARTS,
    )
    texts = docs.map_batches(
        lambda t: pa.table({"key": t["doc_id"].cast(pa.int64()),
                            "text": t["text"]}),
        batch_format="pyarrow",
    )
    return copartition(
        [texts, marked], rebuild,
        pa.schema([("text", pa.string()), ("pos", pa.int64())]),
        joins.EXCHANGE_PARTS,
    )


def substring_span_dedup_sql(k: int = 10) -> str:
    concat = " || ' ' || ".join(
        ["tok"] + [f"LEAD(tok, {i}) OVER w" for i in range(1, k)]
    )
    return rf"""
WITH lists AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE list_filter(string_split_regex(text, '[\s\x0b\x1c-\x1f\x85\p{{Z}}\x{{2028}}\x{{2029}}]+'), x -> x != '') END AS tk
    FROM documents
),
toks AS (
    SELECT doc_id, u.ord, tk[u.ord] AS tok
    FROM lists, UNNEST(range(1, length(tk) + 1)) AS u(ord)
),
wins AS (
    SELECT doc_id, ord AS pos, {concat} AS win
    FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
    QUALIFY LEAD(tok, {k - 1}) OVER w IS NOT NULL
),
dups AS (SELECT win FROM wins GROUP BY win HAVING COUNT(*) >= 2),
marked AS (SELECT w.doc_id, w.pos FROM wins w JOIN dups USING (win)),
covered AS (
    SELECT DISTINCT m.doc_id, m.pos + r.j AS ord
    FROM marked m, UNNEST(range(0, {k})) AS r(j)
),
clean AS (
    SELECT t.doc_id,
           COALESCE(string_agg(t.tok, ' ' ORDER BY t.ord)
                    FILTER (WHERE c.ord IS NULL), '') AS clean_text,
           COUNT(c.ord)::BIGINT AS n_removed_tokens
    FROM toks t
    LEFT JOIN covered c ON t.doc_id = c.doc_id AND t.ord = c.ord
    GROUP BY t.doc_id
),
winstats AS (
    SELECT doc_id, COUNT(*)::BIGINT AS n_dup_windows
    FROM marked GROUP BY doc_id
)
SELECT l.doc_id,
       length(l.tk)::BIGINT AS n_tokens,
       COALESCE(ws.n_dup_windows, 0)::BIGINT AS n_dup_windows,
       COALESCE(c.n_removed_tokens, 0)::BIGINT AS n_removed_tokens,
       COALESCE(c.clean_text, '') AS clean_text
FROM lists l
LEFT JOIN clean c USING (doc_id)
LEFT JOIN winstats ws USING (doc_id)
"""


# ---------------------------------------------------------------------------
# incremental-refresh snapshot delta (corpus versioning)


def corpus_diff(sf_dir: str) -> rd.Dataset:
    """Delta between two corpus snapshots: which docs were ADDED, REMOVED,
    CHANGED or UNCHANGED since the previous crawl. Models the reference's
    delete-before-insert refresh semantics (ShiweijiaProduct.cs:57,68 —
    SURVEY.md §2.7 "refresh = except/overwrite by key") as an auditable
    delta instead of a blind overwrite — the step an incremental recrawl
    pipeline runs before deciding what to re-embed/re-train on.

    The two snapshots are deterministic views of the documents table
    (stand-ins for "previous crawl" / "this crawl"; the real pipeline reads
    two checkpointed table versions): the previous snapshot lacks docs with
    doc_id % 7 == 3 (these were added since), carries stale text for
    doc_id % 5 == 2 (changed since), and the new snapshot dropped
    doc_id % 11 == 4 (removed since).

    Shape: each snapshot emits slim (doc_id, content-md5) rows with a
    per-batch md5 over the text column; the two are the sides of ONE
    doc-keyed ``copartition``; a per-partition vectorized pandas align
    assigns the status.
    No broadcast, no driver state — both snapshots stream."""

    def side_rows(side: int, stale_mod: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["doc_id"].to_numpy()
            if side == 0:
                keep = ids % 7 != 3
            else:
                keep = ids % 11 != 4
            df = df[keep]
            ids = ids[keep]
            texts = df["text"]
            if stale_mod:
                stale = ids % 5 == 2
                texts = texts.where(~stale, texts + " OLD")
            h = [
                hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts
            ]
            return pd.DataFrame({"doc_id": ids.astype(np.int64), "h": h})

        return fn

    docs_a = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        side_rows(0, stale_mod=True), batch_format="pandas"
    )
    docs_b = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        side_rows(1, stale_mod=False), batch_format="pandas"
    )

    def fold(a: pa.Table, b: pa.Table) -> pd.DataFrame:
        p = pd.concat(
            [t.to_pandas().set_index("doc_id")["h"].rename(i)
             for i, t in enumerate((a, b))],
            axis=1,
        )
        status = np.where(
            p[0].isna(), "added",
            np.where(
                p[1].isna(), "removed",
                np.where(p[0] != p[1], "changed", "unchanged"),
            ),
        )
        return pd.DataFrame(
            {"doc_id": p.index.to_numpy(np.int64), "status": status}
        )

    return copartition(
        [docs_a, docs_b], fold, pa.schema([("h", pa.string())]),
        exchange_parts(sf_dir, "documents", "documents"), key="doc_id",
    )


CORPUS_DIFF_SQL = """
WITH a AS (
    SELECT doc_id,
           md5(CASE WHEN doc_id % 5 = 2 THEN text || ' OLD' ELSE text END) AS h
    FROM documents WHERE doc_id % 7 <> 3
),
b AS (
    SELECT doc_id, md5(text) AS h FROM documents WHERE doc_id % 11 <> 4
)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN a.doc_id IS NULL THEN 'added'
            WHEN b.doc_id IS NULL THEN 'removed'
            WHEN a.h <> b.h THEN 'changed'
            ELSE 'unchanged' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
"""


# ---------------------------------------------------------------------------
# MERGE (CDC upsert-apply): base snapshot + delta ops -> new snapshot


def snapshot_merge(sf_dir: str) -> rd.Dataset:
    """MERGE verb — apply a CDC delta (inserts / updates / deletes) to a
    base snapshot and emit the merged table: the APPLY side of
    ``corpus_diff`` (which only audits the delta), i.e. the reference's
    delete-before-insert refresh (SURVEY.md §2.7) executed as one
    distributed latest-wins fold instead of row-at-a-time DB statements.

    Deterministic stand-ins reuse corpus_diff's conventions: the base
    snapshot lacks doc_id % 7 == 3 and carries stale text for
    doc_id % 5 == 2; the delta upserts those two classes (fresh rows) and
    deletes doc_id % 11 == 4 (delete wins over insert). The merge must
    therefore reconstruct EXACTLY the current snapshot minus the deletes —
    which is the oracle: the identity is what proves the merge correct.

    Shape: ONE scan emits base rows (rank 0), upsert rows (rank 1) and
    tombstones (rank 2) per batch; ONE doc-keyed ``copartition``;
    per-partition vectorized latest-wins fold (sort by (doc_id, rank),
    keep the last, drop tombstones). No broadcast, no driver state; at
    100 TB the exchange carries base+delta once — the minimum any merge
    can move — and a real deployment feeds base/delta from two table
    versions instead of the one-table stand-in."""
    cols = ["doc_id", "text", "lang", "source", "n_chars"]

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        base = df[ids % 7 != 3].copy()
        bids = base["doc_id"].to_numpy()
        base["text"] = base["text"].where(
            ~(bids % 5 == 2), base["text"] + " OLD"
        )
        base["rank"] = np.int64(0)
        ups = df[((ids % 7 == 3) | (ids % 5 == 2)) & (ids % 11 != 4)].copy()
        ups["rank"] = np.int64(1)
        tomb = df[ids % 11 == 4].copy()
        tomb["rank"] = np.int64(2)
        return pd.concat([base, ups, tomb], ignore_index=True)

    def fold(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(["doc_id", "rank"], kind="mergesort")
        last = g.groupby("doc_id", sort=False).tail(1)
        return last.loc[last["rank"] != 2, cols]

    return copartition(
        [_read_docs(sf_dir, cols).map_batches(emit, batch_format="pandas")],
        fold,
        footer_schema(sf_dir, "documents", cols[1:]).append(
            pa.field("rank", pa.int64())),
        # each doc sends at most a base, an upsert and a tombstone row
        exchange_parts(sf_dir, *["documents"] * 3),
        key="doc_id",
    )


SNAPSHOT_MERGE_SQL = """
SELECT doc_id, text, lang, source, n_chars
FROM documents WHERE doc_id % 11 <> 4
"""


# ---------------------------------------------------------------------------
# Cross-snapshot (incremental) near-dedup: probe a new crawl against a
# persisted MinHash band index of the existing corpus


def build_minhash_band_index(
    sf_dir: str, index_dir: str, ngram: int = 3, seed: int = 13
) -> int:
    """Persist the BASE corpus' MinHash band rows (bucket, doc_id,
    minisig) — the index an incremental recrawl probes so the base
    corpus is signed ONCE, not per probe run. Base = docs with even
    doc_id (deterministic stand-in for "the existing corpus"; a real
    deployment points this at the previous snapshot's table).

    Layout: plain parquet with no partition column — the probe's
    ``copartition`` derives each row's partition from its bucket when it
    tags the row, so one index serves any partition count; band hashes
    are uniform, so hive-partitioning would prune nothing for a
    snapshot-sized probe anyway. The index's value is the amortized
    signature/banding compute and the slim band layout. Single-document probes can still push
    ``filters=[("bucket", "in", ...)]`` into the read (row-group stats).
    Returns the number of indexed docs."""
    import os

    docs = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: t.filter(
            pa.compute.equal(pa.compute.bit_wise_and(t["doc_id"], 1), 0)
        ),
        batch_format="pyarrow",
    )
    bands = (
        docs.map_batches(make_minhash_fn(ngram, seed), batch_format="pandas")
        .map_batches(sig_to_bands, batch_format="pyarrow")
    )
    os.makedirs(index_dir, exist_ok=True)
    bands.write_parquet(index_dir)
    return int(docs.count())


def _cross_pairs_multi(threshold: float):
    """Cross-side candidate walk: per bucket segment, pairs are
    (base row) × (probe row) ONLY — the base corpus is never self-paired,
    which is the whole point of incremental probing (base×base work would
    re-run the full-corpus dedup every refresh). Same chunked estimate
    prefilter and canonical-band dedup as ``_estimate_pairs_multi``."""
    min_est_count = int(np.ceil((threshold - _EST_MARGIN) * _N_PERM))
    pair_chunk = 1 << 16

    def cross_index_chunks(starts, base_cnt, probe_cnt):
        buf_a, buf_b, buf_n = [], [], 0
        for s, nb, npr in zip(starts.tolist(), base_cnt.tolist(),
                              probe_cnt.tolist()):
            if nb == 0 or npr == 0:
                continue
            # base rows occupy [s, s+nb), probe rows [s+nb, s+nb+npr)
            rb = max(1, pair_chunk // nb)
            for p0 in range(0, npr, rb):
                pr = np.arange(p0, min(p0 + rb, npr))
                ai = np.repeat(pr, nb) + s + nb  # probe side
                bi = np.tile(np.arange(nb), len(pr)) + s  # base side
                if buf_n and buf_n + len(ai) > pair_chunk:
                    yield np.concatenate(buf_a), np.concatenate(buf_b)
                    buf_a, buf_b, buf_n = [], [], 0
                buf_a.append(ai)
                buf_b.append(bi)
                buf_n += len(ai)
                if buf_n >= pair_chunk:
                    yield np.concatenate(buf_a), np.concatenate(buf_b)
                    buf_a, buf_b, buf_n = [], [], 0
        if buf_n:
            yield np.concatenate(buf_a), np.concatenate(buf_b)

    def est_pairs(base: pa.Table, probe: pa.Table) -> pa.Table:
        g = pa.concat_tables([base, probe])
        n = g.num_rows
        out_base, out_new = [], []
        if n >= 2:
            bkt = g["bucket"].to_numpy()
            ids = g["doc_id"].to_numpy()
            side = np.r_[np.zeros(base.num_rows, np.int64),
                         np.ones(probe.num_rows, np.int64)]
            mini = _binary_col_to_mat(g["minisig"], _N_PERM, n, dtype=np.uint8)
            order = np.lexsort((ids, side, bkt))
            bkt, ids, side = bkt[order], ids[order], side[order]
            mini = mini[order]
            starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
            ends = np.r_[starts[1:], n]
            # per segment: side is sorted, so base rows (0) precede probe (1)
            cum = np.r_[0, np.cumsum(side)]
            probe_cnt = cum[ends] - cum[starts]
            base_cnt = (ends - starts) - probe_cnt
            for ai, bi in cross_index_chunks(starts, base_cnt, probe_cnt):
                est_ok = (mini[ai] == mini[bi]).sum(axis=1) >= min_est_count
                if est_ok.any():
                    sel = np.flatnonzero(est_ok)
                    out_new.append(ids[ai[sel]])
                    out_base.append(ids[bi[sel]])
        bd = np.concatenate(out_base) if out_base else np.array([], np.int64)
        nd = np.concatenate(out_new) if out_new else np.array([], np.int64)
        if len(bd):
            # partition-local dedup; verify-stage drop-duplicates finishes
            # cross-partition cases (see _estimate_pairs_multi)
            pairs = np.unique(np.stack([bd, nd], axis=1), axis=0)
            bd, nd = pairs[:, 0], pairs[:, 1]
        return pa.table({"doc_a": pa.array(bd, pa.int64()),
                         "doc_b": pa.array(nd, pa.int64())})

    return est_pairs


def minhash_band_index_dir(sf_dir: str, ngram: int = 3) -> str:
    """Canonical cache location of the persisted band index for a corpus —
    content-addressed by absolute path + shingle width. The index holds no
    partition column, so the probe's partition count is not part of the
    key."""
    import os

    from crawler_ray.state.artifact_cache import cache_dir, source_fingerprint

    # "bands3": layout v3 — the persisted ``part = bucket % n_parts``
    # column was dropped (v2 had dropped the per-band hash column); an
    # older index on disk must not be read by v3 code
    return cache_dir(
        "bands3", os.path.abspath(sf_dir), ngram,
        source_fingerprint(f"{sf_dir}/documents.parquet"),
    )


def ensure_minhash_band_index(sf_dir: str, ngram: int = 3) -> str:
    """Build-once/publish-atomically protocol for the band index (shared
    ``artifact_cache.ensure_dir``: the rename IS the done marker; concurrent
    builders lose the rename and keep serving from the winner). Exposed
    separately so bench.py can time build and probe independently
    (VERDICT r3 #7)."""
    from crawler_ray.state.artifact_cache import ensure_dir

    return ensure_dir(
        minhash_band_index_dir(sf_dir, ngram),
        lambda stage: build_minhash_band_index(sf_dir, stage, ngram=ngram),
    )


def cross_snapshot_near_dups(
    sf_dir: str, ngram: int = 3, threshold: float = 0.8
) -> rd.Dataset:
    """Incremental near-dedup: which NEW docs (odd doc_id — the "fresh
    crawl" stand-in) near-duplicate an EXISTING base-corpus doc (even
    doc_id)? The production shape for a recurring crawl: the base side
    comes from a PERSISTED band index (built once by
    ``build_minhash_band_index``, cached/atomically published like the ANN
    indexes), so each refresh signs only the new snapshot and the
    candidate walk never pairs base×base — probe cost scales with the
    delta, not the corpus. Base and probe band rows are the two sides of
    one bucket-keyed ``copartition``.

    Emits (base_doc, new_doc, jaccard) pairs with EXACT char n-gram
    Jaccard ≥ threshold, verified via the same fused single-exchange text
    attach as ``minhash_near_dup_pairs``."""
    idx = ensure_minhash_band_index(sf_dir, ngram=ngram)
    probe_docs = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: t.filter(
            pa.compute.equal(pa.compute.bit_wise_and(t["doc_id"], 1), 1)
        ),
        batch_format="pyarrow",
    )
    probe_bands = probe_docs.map_batches(
        make_minhash_fn(ngram), batch_format="pandas"
    ).map_batches(sig_to_bands, batch_format="pyarrow")
    candidates = copartition(
        [rd.read_parquet(idx), probe_bands],
        _cross_pairs_multi(threshold),
        _BAND_SCHEMA,
        # base and probe docs each send one row per band
        exchange_parts(sf_dir, *["documents"] * _N_BANDS),
        key="bucket",
    ).materialize()  # O(pairs); executed once, reused either attach path
    return _verified_pairs(sf_dir, candidates, ngram, threshold).map_batches(
        lambda t: t.rename_columns(
            ["base_doc" if c == "doc_a" else "new_doc" if c == "doc_b" else c
             for c in t.column_names]),
        batch_format="pyarrow",
    )
