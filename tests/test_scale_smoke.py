"""Repeatable 10x scale smokes (``pytest -m slow``).

Round-3's out-of-band 50k-doc / 500k-node smoke runs caught five real
scale defects (zero-column empty blocks, per-task pair grids, n x n
temporaries, per-edge Python union-find, phash band saturation) but lived
only in BASELINE.md prose. This module makes them repeatable: each test
regenerates its corpus deterministically under /tmp, runs the heavy
pipeline, and asserts BOTH the exact output (closed-form planted truth,
or a bit-identical numpy reference for the fixed-point PageRank) AND a
generous wall-time envelope (~3x the measured 4-cpu wall, so a quadratic
regression trips it but host noise does not).

Corpus design (the part that makes the truth CLOSED-FORM): every doc
carries two per-doc salt tokens, so any two docs from different plant
groups share at most 62 of >= 66 union tokens -- word-Jaccard <= 0.94,
strictly under the 0.95 threshold. Within a plant group, exact copies
share the whole set (J = 1) and near copies drop exactly one token
(J = (m-1)/m >= 35/36). The only pairs >= 0.95 are therefore exactly the
planted ones, no brute-force verification pass needed at 50k docs.

Deselected by default (``addopts = -m 'not slow'`` in pyproject.toml);
run with ``pytest -m slow tests/test_scale_smoke.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

pytestmark = pytest.mark.slow

# the generator + plant layout live in sources/synthetic.py so bench.py's
# --scaling query bar runs over the same corpus
from crawler_ray.sources.synthetic import (  # noqa: E402
    SCALE_BLOCK as BLOCK,
    SCALE_N_DOCS as N_DOCS,
    SCALE_OFF_EXACT as OFF_EXACT,
    SCALE_OFF_LANG as OFF_LANG,
    SCALE_OFF_NEAR as OFF_NEAR,
    SCALE_OFF_NEAR_DONOR as OFF_NEAR_DONOR,
    SCALE_OFF_QUALITY as OFF_QUALITY,
    SCALE_OFF_REP as OFF_REP,
    SCALE_OFF_TRIPLE as OFF_TRIPLE,
    SCALE_TRIPLE_EVERY as TRIPLE_EVERY,
    gen_scale_corpus as _gen_corpus,
)


def _expected_clusters() -> dict[int, tuple[int, int]]:
    """doc_id -> (cluster_id, cluster_size) closed form of the plant."""
    exp: dict[int, tuple[int, int]] = {}
    for j in range(N_DOCS // BLOCK):
        b = j * BLOCK
        if j % TRIPLE_EVERY == 0:
            for d in (b, b + OFF_EXACT, b + OFF_TRIPLE):
                exp[d] = (b, 3)
        else:
            exp[b] = (b, 2)
            exp[b + OFF_EXACT] = (b, 2)
        exp[b + OFF_NEAR_DONOR] = (b + OFF_NEAR_DONOR, 2)
        exp[b + OFF_NEAR] = (b + OFF_NEAR_DONOR, 2)
    return exp


@pytest.fixture(scope="module")
def corpus50k(tmp_path_factory):
    d = tmp_path_factory.mktemp("smoke50k")
    t0 = time.monotonic()
    _gen_corpus(str(d))
    print(f"\n[smoke] 50k corpus generated in {time.monotonic() - t0:.1f}s")
    return str(d)


def _timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs).to_pandas()
    return out, time.monotonic() - t0


def _assert_envelope(wall, envelope, name, rerun):
    """Wall-time envelope with ONE retry on breach: transient co-located
    load (another suite's Ray session draining on the same host) can
    inflate a single wall 3-4x, while a real complexity regression fails
    both runs — the retry keeps the envelope tight without flaking."""
    if wall < envelope:
        return
    _, wall2 = rerun()
    print(f"[smoke] {name} envelope retry: {wall:.1f}s -> {wall2:.1f}s")
    assert min(wall, wall2) < envelope, (
        f"{name} took {wall:.1f}s and {wall2:.1f}s on retry "
        f"(envelope {envelope}s)"
    )


def test_near_dup_clusters_50k(ray_session, corpus50k):
    from crawler_ray.pipelines.clusters import near_dup_clusters

    got, wall = _timed(near_dup_clusters, corpus50k)
    print(f"[smoke] near_dup_clusters 50k: {wall:.1f}s")
    exp = _expected_clusters()
    assert len(got) == len(exp)
    got_map = {
        int(d): (int(c), int(s))
        for d, c, s in zip(got["doc_id"], got["cluster_id"], got["cluster_size"])
    }
    assert got_map == exp
    # 4-cpu wall measured ~24s; 3x headroom (round-3 pre-fix regression:
    # 178s; round-4 pre-DF-pruning/banded-matmul regression: 67s)
    _assert_envelope(
        wall, 75, "near_dup_clusters 50k",
        lambda: _timed(near_dup_clusters, corpus50k),
    )


def test_corpus_curation_50k(ray_session, corpus50k):
    from crawler_ray.pipelines.curation import corpus_curation

    got, wall = _timed(corpus_curation, corpus50k)
    print(f"[smoke] corpus_curation 50k: {wall:.1f}s")
    assert len(got) == N_DOCS
    reason = np.full(N_DOCS, "kept", dtype=object)
    for j in range(N_DOCS // BLOCK):
        b = j * BLOCK
        reason[b + OFF_EXACT] = "duplicate"
        reason[b + OFF_NEAR] = "duplicate"
        if j % TRIPLE_EVERY == 0:
            reason[b + OFF_TRIPLE] = "duplicate"
        reason[b + OFF_LANG] = "lang"
        reason[b + OFF_QUALITY] = "quality"
        reason[b + OFF_REP] = "repetition"
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].to_numpy().tolist() == list(range(N_DOCS))
    assert (got["reason"].to_numpy(dtype=object) == reason).all()
    assert (got["kept"].to_numpy() == (reason == "kept")).all()
    # 4-cpu wall measured ~37s; 3x headroom
    _assert_envelope(
        wall, 110, "corpus_curation 50k",
        lambda: _timed(corpus_curation, corpus50k),
    )


def test_image_dup_clusters_50k(ray_session, corpus50k):
    """50k synthesize->encode->decode->phash plumbing + banded Hamming walk.

    planted_image_batch's %10 rules pin most of the truth closed-form: id
    10k+1 reuses 10k's bytes (phash-identical, ALWAYS a cluster), id 10k+6
    perturbs 10k+5's pixels (TYPICALLY Hamming <= 2; at 50k samples a few
    land past radius 4 — 3/5000 at this seed), everything else sits ~24+
    bits apart. So: exact pairs asserted fully; near pairs must be a
    subset of the planted ones; every ABSENT planted near pair is verified
    out-of-radius with the scalar phash kernel directly (recall proof —
    a walk that drops an in-radius pair fails that check)."""
    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.clusters import image_dup_clusters
    from crawler_ray.sources.synthetic import planted_image_batch
    from tests._refs import hamming64

    got, wall = _timed(image_dup_clusters, corpus50k)
    print(f"[smoke] image_dup_clusters 50k: {wall:.1f}s")
    got_map = {
        int(d): (int(c), int(s))
        for d, c, s in zip(got["image_id"], got["cluster_id"], got["cluster_size"])
    }
    absent_near = []
    for a in range(0, N_DOCS, 10):
        assert got_map.pop(a) == (a, 2)  # exact dup: always Hamming 0
        assert got_map.pop(a + 1) == (a, 2)
        if got_map.pop(a + 5, None) == (a + 5, 2):
            assert got_map.pop(a + 6) == (a + 5, 2)
        else:
            assert a + 6 not in got_map
            absent_near.append(a + 5)
    assert got_map == {}  # nothing beyond the planted families
    print(f"[smoke] planted near pairs past radius: {len(absent_near)}")
    assert len(absent_near) <= 25  # ~0.1% of 5000 at seed 42 (measured 3)
    for a in absent_near:  # recall proof: absentees really are > radius
        ids = np.array([a, a + 1], dtype=np.int64)  # (10k+5, 10k+6)
        payloads, _ = planted_image_batch(ids, 42, dup=True)
        ph = [phash64(decode_image(b, sniff_fmt(b))) for b in payloads]
        ham = hamming64(ph[0], ph[1])
        assert ham > 4, f"walk dropped in-radius pair ({a},{a + 1}): {ham}"
    # 4-cpu wall measured ~23s (decode-bound); 3x headroom. Round-3's
    # radius-6 band-saturation regression ran 33x long and would trip this.
    _assert_envelope(
        wall, 70, "image_dup_clusters 50k",
        lambda: _timed(image_dup_clusters, corpus50k),
    )


@pytest.fixture(scope="module")
def nodes500k(tmp_path_factory):
    d = tmp_path_factory.mktemp("smoke500k")
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(500_000, dtype=np.int64))}),
        f"{d}/documents.parquet",
        row_group_size=100_000,
    )
    return str(d)


def test_doc_link_pagerank_500k(ray_session, nodes500k):
    """500k-node / ~1.5M-edge PageRank, bit-identical to the numpy
    reference of the same int64 fixed-point iteration (the superstep
    exchange cost must stay ~flat vs sf0.1 -- BASELINE.md measured +7%
    wall for 10x the graph)."""
    from crawler_ray.pipelines.clusters import doc_link_pagerank

    N, SCALE, n_iters = 500_000, np.int64(1_000_000_000), 5
    got, wall = _timed(doc_link_pagerank, nodes500k, n_iters=n_iters)
    print(f"[smoke] doc_link_pagerank 500k: {wall:.1f}s")

    ids = np.arange(N, dtype=np.int64)
    s = np.stack([(ids * 7 + 1) % N, (ids * 13 + 5) % N, (ids * 31 + 11) % N], axis=1)
    s = np.where(s == ids[:, None], -1, s)
    deg = (s >= 0).sum(axis=1).astype(np.int64)
    r = np.full(N, SCALE, np.int64)
    for _ in range(n_iters):
        share = r // np.maximum(deg, 1)
        acc = np.zeros(N, np.int64)
        for c in range(3):
            dst = s[:, c]
            m = dst >= 0
            np.add.at(acc, dst[m], share[m])
        r = 150_000_000 + (np.int64(85) * acc) // 100

    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].to_numpy().tolist() == ids.tolist()
    assert (got["rank_scaled"].to_numpy(np.int64) == r).all()
    # 4-cpu wall measured ~3s (5 supersteps, fixed exchange cost); generous
    # 10x headroom since Ray task-launch noise dominates at this wall
    _assert_envelope(
        wall, 30, "doc_link_pagerank 500k",
        lambda: _timed(doc_link_pagerank, nodes500k, n_iters=n_iters),
    )


@pytest.fixture(scope="module")
def emb50k(tmp_path_factory):
    """50k x 64 float32 embeddings with planted EXACT duplicates: every
    1000th vector is copied to id+500 (100 plants). Random 64-d gaussians
    have pairwise cosine ~N(0, 1/64 per-dim -> sigma 0.125); at threshold
    0.9 (7.2 sigma) the expected accidental pair count over all 1.25e9
    pairs is ~4e-4, so the >=0.9 graph is EXACTLY the plant — and exact
    copies always co-assign in kmeans (identical rows, identical argmax),
    making the truth closed-form without a brute-force pass."""
    d = tmp_path_factory.mktemp("emb50k")
    n, dim, block, off = 50_000, 64, 1000, 500
    rng = np.random.default_rng(4242)
    mat = rng.standard_normal((n, dim)).astype(np.float32)
    plants = np.arange(0, n, block)
    mat[plants + off] = mat[plants]
    pq.write_table(
        pa.table(
            {"vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
             "embedding": pa.array(list(mat), pa.list_(pa.float32())),
             "label": pa.array(np.zeros(n, dtype=np.int32), pa.int32())}
        ),
        f"{d}/embeddings.parquet",
    )
    return str(d), plants, off


def test_semantic_dedup_50k(ray_session, emb50k):
    """SemDeDup at 10x bench scale: k sized so n/k ~ 500 (the paper's
    regime); per-task memory is one ~500 x 64 slab + its ~500^2 cosine
    grid, NOT the n^2 grid — a quadratic regression trips the envelope."""
    from crawler_ray.pipelines.similarity import semantic_dedup

    sf, plants, off = emb50k
    got, wall = _timed(semantic_dedup, sf, k=100, iters=2, threshold=0.9)
    print(f"[smoke] semantic_dedup 50k: {wall:.1f}s")
    assert len(got) == 50_000
    got = got.sort_values("vec_id").reset_index(drop=True)
    grp = got["dup_group"].to_numpy()
    keep = got["keep"].to_numpy()
    exp_grp = got["vec_id"].to_numpy().copy()
    exp_grp[plants + off] = plants  # each copy joins its donor's group
    assert (grp == exp_grp).all()
    # keep policy on exact copies: identical centroid_sim -> min vec_id
    exp_keep = np.ones(50_000, dtype=bool)
    exp_keep[plants + off] = False
    assert (keep == exp_keep).all()
    # 4-cpu wall measured ~3.8s; 3x headroom
    _assert_envelope(
        wall, 12, "semantic_dedup 50k",
        lambda: _timed(semantic_dedup, sf, k=100, iters=2, threshold=0.9),
    )


def test_cross_snapshot_near_dups_50k(ray_session, corpus50k):
    """Persisted-band-index refresh at 10x bench scale, COLD (index build +
    probe) and WARM (probe only). The plant layout makes the truth
    closed-form even at char-trigram granularity (measured: cross-plant
    trigram Jaccard stays far below the 0.8 threshold; planted minimum
    0.96): for every 100-id block b (even base, odd probe)
    (b, b+1) J=1, (b+2, b+1) J=1 in triple blocks, and (b+6, b+5) near.
    A probe that accidentally pairs base x base, misses the persisted
    index, or goes quadratic in the corpus trips the set-equality or the
    envelope."""
    import shutil

    from crawler_ray.pipelines.dedup import (
        cross_snapshot_near_dups,
        minhash_band_index_dir,
    )

    def cold():
        shutil.rmtree(minhash_band_index_dir(corpus50k), ignore_errors=True)
        return _timed(cross_snapshot_near_dups, corpus50k)

    got, wall_cold = cold()
    _, wall_warm = _timed(cross_snapshot_near_dups, corpus50k)
    print(f"[smoke] cross_snapshot 50k: cold {wall_cold:.1f}s "
          f"warm {wall_warm:.1f}s")

    exp_pairs = set()
    for j in range(N_DOCS // BLOCK):
        b = j * BLOCK
        exp_pairs.add((b, b + OFF_EXACT))
        if j % TRIPLE_EVERY == 0:
            exp_pairs.add((b + OFF_TRIPLE, b + OFF_EXACT))
        exp_pairs.add((b + OFF_NEAR, b + OFF_NEAR_DONOR))
    got_pairs = set(zip(got["base_doc"].tolist(), got["new_doc"].tolist()))
    assert got_pairs == exp_pairs
    jac = dict(zip(zip(got["base_doc"], got["new_doc"]), got["jaccard"]))
    for j in range(N_DOCS // BLOCK):
        b = j * BLOCK
        assert jac[(b, b + OFF_EXACT)] == 1.0
        assert jac[(b + OFF_NEAR, b + OFF_NEAR_DONOR)] >= 0.8
    # 4-cpu walls measured ~22s cold / ~14s warm; 3x headroom
    _assert_envelope(wall_cold, 70, "cross_snapshot 50k cold", cold)
    _assert_envelope(
        wall_warm, 45, "cross_snapshot 50k warm",
        lambda: _timed(cross_snapshot_near_dups, corpus50k),
    )


def test_training_data_build_50k(ray_session, corpus50k):
    """Flagship curation -> split -> packing at 10x bench scale, checked
    against a LOCAL numpy/hashlib reference built from the closed-form
    curation truth: survivors in doc_id order, whitespace token counts,
    exclusive prefix-sum tok_start, ctx-window bins, md5 split assignment.
    Any drift in the distributed prefix sum (the one doc-hash exchange) or
    a survivor-set mismatch is value-visible."""
    import hashlib

    from crawler_ray.pipelines.curation import training_data_build

    got, wall = _timed(training_data_build, corpus50k)
    print(f"[smoke] training_data_build 50k: {wall:.1f}s")

    reason = np.full(N_DOCS, "kept", dtype=object)
    for j in range(N_DOCS // BLOCK):
        b = j * BLOCK
        reason[b + OFF_EXACT] = "duplicate"
        reason[b + OFF_NEAR] = "duplicate"
        if j % TRIPLE_EVERY == 0:
            reason[b + OFF_TRIPLE] = "duplicate"
        reason[b + OFF_LANG] = "lang"
        reason[b + OFF_QUALITY] = "quality"
        reason[b + OFF_REP] = "repetition"
    kept_ids = np.flatnonzero(reason == "kept")

    tab = pq.read_table(
        f"{corpus50k}/documents.parquet", columns=["doc_id", "text"]
    )
    order = np.argsort(tab["doc_id"].to_numpy())
    texts = tab["text"].to_pylist()
    ntok_all = np.array(
        [len(texts[i].split()) for i in order], dtype=np.int64
    )
    ntok = ntok_all[kept_ids]
    tok_start = np.cumsum(ntok) - ntok
    end_tok = tok_start + np.maximum(ntok, 1) - 1
    ctx = 256
    h = np.array(
        [int(hashlib.md5(f"3:{i}".encode()).hexdigest()[:8], 16) % 100
         for i in kept_ids],
        dtype=np.int64,
    )
    split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))

    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].to_numpy().tolist() == kept_ids.tolist()
    assert (got["n_tokens"].to_numpy() == ntok).all()
    assert (got["tok_start"].to_numpy() == tok_start).all()
    assert (got["bin_start"].to_numpy() == tok_start // ctx).all()
    assert (got["bin_end"].to_numpy() == end_tok // ctx).all()
    assert (got["split"].to_numpy(dtype=object) == split).all()
    # 4-cpu wall measured ~32s (curation chain dominates); 3x headroom
    _assert_envelope(
        wall, 100, "training_data_build 50k",
        lambda: _timed(training_data_build, corpus50k),
    )
