"""Similarity search: brute-force correctness + LSH recall + multimodal."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests._refs import (
    kmeans_reference,
    make_fake_audio,
    semantic_dedup_reference,
)
from tests.conftest import SF_DIR


def test_knn_brute_force_matches_numpy(ray_session):
    from crawler_ray.pipelines.similarity import knn_brute_force

    got = knn_brute_force(SF_DIR, query_vec_id=0, k=10).to_pandas()
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = mat[ids == 0][0]
    sims = mat @ q
    mask = ids != 0
    order = np.lexsort((ids[mask], -sims[mask]))[:10]
    exp_ids = ids[mask][order]
    assert list(got["vec_id"]) == list(exp_ids)
    np.testing.assert_allclose(got["cos_sim"], np.round(sims[mask][order], 4), atol=1e-9)


def test_ann_lsh_recall(ray_session):
    """Multi-probe LSH top-k recall vs brute force ≥ 0.3 on random data (8-bit
    buckets + Hamming-1 probing scans ~9/256 of the corpus; random embeddings
    are the adversarial worst case for LSH, so the bar is modest — planted
    structure in test_embedding_near_dup gets exact results)."""
    from crawler_ray.pipelines.similarity import ann_lsh_topk, knn_brute_force

    exact = set(knn_brute_force(SF_DIR, query_vec_id=0, k=10).to_pandas()["vec_id"])
    approx = set(ann_lsh_topk(SF_DIR, query_vec_id=0, k=10).to_pandas()["vec_id"])
    assert len(approx) == 10
    assert len(exact & approx) / 10 >= 0.3


def test_embedding_near_dup_planted(ray_session, tmp_path):
    """Planted duplicates must be found with cos ≈ 1.0 by the blocked
    all-pairs stage."""
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    mat[100] = mat[0] * 2.0  # same direction → cosine 1
    mat[101] = mat[1] + rng.standard_normal(16).astype(np.float32) * 0.01
    rows = [{"vec_id": i, "embedding": mat[i].tolist(), "label": 0} for i in range(200)]
    pq.write_table(pa.Table.from_pylist(rows), f"{tmp_path}/embeddings.parquet")
    from crawler_ray.pipelines.similarity import embedding_near_dup_pairs

    got = embedding_near_dup_pairs(str(tmp_path), threshold=0.95).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["vec_a"], got["vec_b"])}
    assert (0, 100) in pairs
    assert (1, 101) in pairs


def test_fake_audio_container_decode():
    """The FAUD fixture container decodes to its samples and rate."""
    from crawler_ray.pipelines.multimodal import _decode_audio

    for i in range(4):
        samples, sr = _decode_audio(make_fake_audio(16000 * 2, 16000, seed=i))
        assert sr == 16000 and samples.dtype == np.int16
        assert len(samples) == 32000 and samples.any()


def test_real_media_raises(ray_session):
    import wave

    from crawler_ray.pipelines.multimodal import _decode_audio

    # compressed audio (mp3 frame header) is genuinely unsupported
    with pytest.raises(NotImplementedError):
        _decode_audio(b"\xff\xfb\x90\x00" + b"\x00" * 16)
    # WAV is now REAL — a truncated/malformed RIFF raises the codec's own
    # error, not NotImplementedError
    with pytest.raises(wave.Error):
        _decode_audio(b"RIFF....WAVE")


def test_persisted_ann_index(ray_session, tmp_path):
    """build once → query many: partition-pruned reads must touch only the
    probed bucket dirs and reach brute-force-comparable recall."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.similarity import (
        ann_query_indexed,
        build_ann_index,
        knn_brute_force,
    )

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "ann_index")
    n = build_ann_index(sf, idx, n_bits=8, seed=5)
    assert n > 0
    buckets = [d for d in os.listdir(idx) if d.startswith("bucket=")]
    assert len(buckets) > 4  # really partitioned by signature
    # indexed rows cover the corpus exactly once
    import pyarrow.dataset as pads

    total = sum(
        pads.dataset(os.path.join(idx, b)).count_rows() for b in buckets
    )
    assert total == n

    # modest recall bar on RANDOM data (the adversarial worst case for LSH
    # — same rationale as test_ann_lsh_recall)
    emb = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    by_id = dict(zip(emb["vec_id"].to_pylist(), emb["embedding"].to_pylist()))
    exact = set(knn_brute_force(sf, query_vec_id=0, k=10).to_pandas()["vec_id"])
    got = set(
        ann_query_indexed(idx, np.asarray(by_id[0]), k=11).to_pandas()["vec_id"]
    ) - {0}
    assert len(exact & got) / 10 >= 0.3

    # planted near-identical vectors MUST be served from the index (cosine
    # ≈ 1 ⇒ same signature ⇒ guaranteed bucket hit)
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((300, 32)).astype(np.float32)
    mat[200] = mat[5] * 3.0
    mat[201] = mat[6] + rng.standard_normal(32).astype(np.float32) * 0.005
    rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(300)]
    pdir = tmp_path / "planted"
    pdir.mkdir()
    pq.write_table(
        pa.Table.from_pylist(rows), str(pdir / "embeddings.parquet")
    )
    idx2 = str(tmp_path / "ann_index2")
    build_ann_index(str(pdir), idx2, n_bits=8, seed=5)
    for qid, twin in ((5, 200), (6, 201)):
        served = ann_query_indexed(idx2, mat[qid], k=3).to_pandas()
        assert twin in set(served["vec_id"]), (qid, twin)
        assert served.iloc[0]["cos_sim"] >= 0.999


def test_audio_wav_real_decode():
    """WAV is decoded for REAL (stdlib wave): a synthesized 440 Hz sine at
    8 kHz must round-trip through ``_decode_audio`` with exact duration,
    rate, and the analytically-known RMS (A/sqrt(2))."""
    import io
    import wave

    import numpy as np

    from crawler_ray.pipelines.multimodal import _decode_audio

    sr, secs, amp = 8000, 2, 10000
    t = np.arange(sr * secs) / sr
    sine = (amp * np.sin(2 * np.pi * 440 * t)).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(sine.tobytes())
    wav_mono = buf.getvalue()
    # stereo variant (same signal duplicated) must downmix to the same RMS
    buf2 = io.BytesIO()
    stereo = np.repeat(sine, 2)
    with wave.open(buf2, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(stereo.tobytes())
    for wav in (wav_mono, buf2.getvalue()):
        samples, got_sr = _decode_audio(wav)
        assert got_sr == sr
        assert len(samples) / got_sr == 2.0
        rms = np.sqrt(np.mean(samples.astype(np.float64) ** 2))
        assert abs(rms - amp / np.sqrt(2)) < amp * 0.01


def test_ann_lsh_no_whole_corpus_driver_read(ray_session, monkeypatch):
    """Round-2 VERDICT #3: ann_lsh_topk must never pq.read_table the whole
    embeddings file on the driver — dim comes from one row-group, the query
    vector from a filtered read."""
    import crawler_ray.pipelines.similarity as sim

    real = sim.pq.read_table

    def guarded(path, *args, **kwargs):
        assert kwargs.get("filters"), (
            "driver-side pq.read_table without filters = whole-corpus read"
        )
        return real(path, *args, **kwargs)

    monkeypatch.setattr(sim.pq, "read_table", guarded)
    out = sim.ann_lsh_topk(SF_DIR, query_vec_id=0, k=10).to_pandas()
    assert len(out) == 10


def test_ivf_index_layout_coverage_recall(ray_session, tmp_path):
    """IVF ANN: posting-list partition layout covers every vector exactly
    once, queries read only nprobe partitions, and recall@10 vs brute force
    is high on the testdata corpus (clustered embeddings)."""
    import os

    from crawler_ray.pipelines.similarity import (
        build_ivf_index,
        ivf_query,
        knn_brute_force,
    )

    idx = str(tmp_path / "ivf")
    n = build_ivf_index(SF_DIR, idx, n_centroids=16)
    # layout: every vector in exactly one posting list
    lists = [d for d in os.listdir(idx) if d.startswith("list_id=")]
    assert len(lists) >= 2
    total = sum(
        pq.read_table(os.path.join(idx, d)).num_rows for d in lists
    )
    assert total == n == pq.read_metadata(f"{SF_DIR}/embeddings.parquet").num_rows

    t = pq.read_table(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", 0)],
    )
    q = np.asarray(t["embedding"].to_pylist()[0], dtype=np.float64)
    got = ivf_query(idx, q, k=11, nprobe=6).to_pandas()
    approx = set(got[got["vec_id"] != 0]["vec_id"].head(10))
    exact = set(knn_brute_force(SF_DIR, query_vec_id=0, k=10).to_pandas()["vec_id"])
    assert len(approx & exact) >= 7  # >=70% recall probing 6/16 lists


def test_ann_ivf_topk_query_runs(ray_session):
    from crawler_ray.pipelines.similarity import ann_ivf_topk

    df = ann_ivf_topk(SF_DIR, query_vec_id=0, k=10).to_pandas()
    assert len(df) == 10 and 0 not in set(df["vec_id"])


def test_embedding_kmeans_matches_numpy_reference(ray_session):
    """The distributed Lloyd run is BIT-IDENTICAL to the single-node numpy
    reference with the same fixed-point update — the non-SQL analogue of
    the hash oracle (also proves batch-split independence, since the
    pipeline's blocks differ from the reference's single array)."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.similarity import _kmeans_seed_ids, embedding_kmeans

    sf = "/root/testdata/sf0.001"
    out = (
        embedding_kmeans(sf, k=8, iters=4)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    order = np.argsort(ids)
    ids, emb = ids[order], emb[order]
    seeds = _kmeans_seed_ids(sf, 8)
    seed_vec = emb[np.isin(ids, seeds)]
    ref = kmeans_reference(emb, ids, seed_vec, iters=4)
    assert (out["vec_id"].to_numpy() == ids).all()
    assert (out["cluster"].to_numpy() == ref).all()
    assert len(np.unique(ref)) > 1


def test_ann_pq_topk_recall_and_exact_rerank(ray_session):
    """PQ ADC shortlist + exact rerank: recall vs brute force stays high
    and every reported similarity is the EXACT cosine (the rerank reads
    true vectors), so overlap rows match brute force bit-for-bit."""
    import numpy as np

    from crawler_ray.pipelines import similarity
    from tests.conftest import SF_DIR

    recalls = []
    for qid in [0, 7, 23]:
        pqr = similarity.ann_pq_topk(SF_DIR, query_vec_id=qid, k=10).to_pandas()
        bf = similarity.knn_brute_force(SF_DIR, query_vec_id=qid, k=10).to_pandas()
        assert len(pqr) == 10 and qid not in set(pqr.vec_id)
        recalls.append(len(set(pqr.vec_id) & set(bf.vec_id)) / 10)
        m = pqr.merge(bf, on="vec_id", suffixes=("_pq", "_bf"))
        assert np.array_equal(m.cos_sim_pq.to_numpy(), m.cos_sim_bf.to_numpy())
    assert sum(recalls) / len(recalls) >= 0.7


def test_pq_codes_layout(ray_session, tmp_path):
    """Index contract: codes table is m bytes/vector with every corpus id
    present exactly once; codebooks persist beside it."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.pipelines import similarity
    from tests.conftest import SF_DIR

    idx = str(tmp_path / "pq")
    n = similarity.build_pq_index(SF_DIR, idx, m=8, ks=32)
    books = np.load(os.path.join(idx, "codebooks.npy"))
    assert books.shape[0] == 8 and books.shape[1] == 32
    import glob

    files = glob.glob(os.path.join(idx, "codes", "*.parquet"))
    t = pq.read_table(files)
    assert t.num_rows == n
    ids = t["vec_id"].to_numpy()
    assert len(np.unique(ids)) == n
    assert t.schema.field("code").type == __import__("pyarrow").binary(8)


def test_audio_dup_pairs_planted_truth(ray_session):
    """Every emitted pair is a planted family pair ((10k, 10k+1) scaled,
    (10k+5, 10k+6) noised), all 100 planted pairs are recovered, and
    scaled copies stay within quantization Hamming (≤2)."""
    from crawler_ray.pipelines import multimodal
    from tests.conftest import SF_DIR

    df = multimodal.audio_dup_pairs(SF_DIR).to_pandas()
    a = df.audio_a.astype(int).to_numpy()
    b = df.audio_b.astype(int).to_numpy()
    fam = ((a % 10 == 0) & (b == a + 1)) | ((a % 10 == 5) & (b == a + 1))
    assert fam.all()
    scaled = df[(a % 10 == 0)]
    near = df[(a % 10 == 5)]
    assert len(scaled) == 50 and scaled.hamming.max() <= 2
    assert len(near) == 50 and near.hamming.max() <= 4


def test_audio_fingerprint_scale_invariance():
    """The fingerprint is exactly invariant to float amplitude scaling
    (no quantization): comparisons are monotone-transform stable."""
    import numpy as np

    from crawler_ray.pipelines.multimodal import (
        _synth_clip_samples,
        audio_fingerprint64,
    )

    s = _synth_clip_samples(123, 27).astype(np.float64)
    assert audio_fingerprint64(s) == audio_fingerprint64(s * 0.25)
    assert audio_fingerprint64(s) == audio_fingerprint64(s * 7.5)


def test_embedding_pca_project(ray_session, force_parts):
    """Distributed PCA: bit-identical across exchange partitionings (the
    moment fold is exact integers), allclose to single-node float PCA with
    the same canonical sign rule, and the projected components are
    centered, mutually uncorrelated, with variances equal to the top
    eigenvalues."""
    import pandas as pd
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.similarity import embedding_pca_project

    sf = "/root/testdata/sf0.001"
    force_parts(1)
    a = (
        embedding_pca_project(sf, k=4)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    force_parts(17)
    b = (
        embedding_pca_project(sf, k=4)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)  # exact: no tolerance

    t = pq.read_table(f"{sf}/embeddings.parquet")
    E = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    ids = t["vec_id"].to_numpy()
    mu = E.mean(axis=0)
    C = np.cov(E.T, bias=True)
    ev, V = np.linalg.eigh(C)
    order = np.argsort(ev)[::-1][:4]
    B = V[:, order]
    for c in range(4):
        m = np.argmax(np.abs(B[:, c]))
        if B[m, c] < 0:
            B[:, c] = -B[:, c]
    ref = ((E - mu) @ B)[np.argsort(ids)]
    got = a[["pc0", "pc1", "pc2", "pc3"]].to_numpy()
    # fixed-point moments quantize the covariance at 2^-46 per entry; the
    # basis agrees with float PCA to ~1e-7 on this corpus
    assert np.abs(got - ref).max() < 1e-5

    assert np.abs(got.mean(axis=0)).max() < 1e-6
    cv = np.cov(got.T, bias=True)
    off = cv - np.diag(np.diag(cv))
    assert np.abs(off).max() < 1e-8
    assert np.allclose(np.diag(cv), np.sort(ev)[::-1][:4], atol=1e-6)


# ---------------------------------------------------------------------------
# optional-real-decoder import gates (VERDICT r3 #3): when the wheel IS
# present the real codec must be reached with zero code change; the stub
# is only the no-wheel fallback. The wheels are absent in this sandbox, so
# the gates are exercised with injected fake modules.


def test_soundfile_gate_routes_to_real_decoder(monkeypatch):
    import sys
    import types

    from crawler_ray.pipelines import multimodal as mm

    fake_sf = types.ModuleType("soundfile")

    def _read(buf, dtype, always_2d):
        assert dtype == "float64" and always_2d
        # stereo ramp: downmix must average channels
        data = np.stack([np.linspace(-1, 1, 8), np.linspace(-1, 1, 8)], axis=1)
        return data, 22050

    fake_sf.read = _read
    monkeypatch.setitem(sys.modules, "soundfile", fake_sf)
    monkeypatch.setattr(mm, "HAVE_SOUNDFILE", True)

    samples, sr = mm._decode_audio(b"\xff\xfb\x90\x00" + b"\x00" * 16)
    assert sr == 22050
    assert samples.dtype == np.int16
    assert samples[0] == -32767 and samples[-1] == 32767


def test_clip_tower_gate(monkeypatch):
    from crawler_ray.pipelines import multimodal as mm

    # no env var -> fakes
    monkeypatch.delenv("CRAWLER_RAY_CLIP_MODEL", raising=False)
    assert mm._load_real_towers() is None
    # env var set but torch/open_clip absent -> still fakes, no crash
    monkeypatch.setenv("CRAWLER_RAY_CLIP_MODEL", "ViT-B-32:laion2b_s34b_b79k")
    assert mm._load_real_towers() is None


def test_align_stage_uses_injected_towers():
    """Routing check: when real towers resolve, the stage scores with THEM
    (model output), not the watermark fakes."""
    from crawler_ray.functions.codecs import encode_image
    from crawler_ray.pipelines import multimodal as mm

    px = np.zeros((20, 20, 3), np.uint8)
    batch = pa.table(
        {"image_id": pa.array(["a", "b"], pa.string()),
         "bytes": pa.array([encode_image(px, "png")] * 2, pa.binary()),
         "fmt": pa.array(["png", "png"], pa.string()),
         "caption": pa.array(["x", "y"], pa.string())}
    )
    stage = mm.ImageCaptionAlignStage(tau=0.5)
    stage._towers = (
        lambda pixels: np.array([[1.0, 0.0], [0.0, 1.0]]),
        lambda caps: np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    stage._resolved = True
    out = stage(batch).to_pandas()
    assert out["clip_score"].tolist() == [1.0, 0.0]
    assert out["aligned"].tolist() == [True, False]


def test_semantic_dedup_matches_numpy_reference(ray_session):
    """SemDeDup's distributed run (kmeans partition → per-cluster cosine
    graph → keep-lowest-centroid-sim) is ROW-IDENTICAL to the single-node
    numpy reference — fixed-point centroids + rounded cosines make every
    verdict batch-split independent. Also asserts the keep-policy
    invariants directly and measures recall vs the exact global pair
    graph (the documented approximation)."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.similarity import _kmeans_seed_ids, semantic_dedup

    sf = "/root/testdata/sf0.001"
    k, iters, thr = 16, 3, 0.3
    out = (
        semantic_dedup(sf, k=k, iters=iters, threshold=thr)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    order = np.argsort(ids)
    ids, emb = ids[order], emb[order]
    seed_vec = emb[np.isin(ids, _kmeans_seed_ids(sf, k))]
    ref = (
        semantic_dedup_reference(emb, ids, seed_vec, iters, thr)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert out.equals(ref)

    # keep-policy invariants: every dup_group keeps EXACTLY one member,
    # and the keeper is the (centroid_sim, vec_id)-lexicographic minimum
    g = out.groupby("dup_group")
    assert (g["keep"].sum() == 1).all()
    keepers = out[out["keep"]].set_index("dup_group")["vec_id"].sort_index()
    mins = g.apply(
        lambda d: d.sort_values(["centroid_sim", "vec_id"]).iloc[0]["vec_id"],
        include_groups=False,
    ).sort_index()
    assert (keepers == mins).all()
    # dup_group is the component's min vec_id, and members co-cluster
    assert (g["vec_id"].min() == g.apply(
        lambda d: d.name, include_groups=False)).all()
    assert (g["cluster"].nunique() == 1).all()

    # recall vs the exact global >=thr pair graph: within-cluster pairs
    # are all found (exactness), cross-cluster pairs are the documented
    # SemDeDup approximation — assert the measured floor so regressions
    # in the kmeans partition quality are visible
    m = emb.astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = np.round(m @ m.T, 3)
    ai, bi = np.nonzero(np.triu(sims >= thr, k=1))
    grp = out.set_index("vec_id")["dup_group"]
    same = (grp.loc[ids[ai]].to_numpy() == grp.loc[ids[bi]].to_numpy())
    cl = out.set_index("vec_id")["cluster"]
    co = (cl.loc[ids[ai]].to_numpy() == cl.loc[ids[bi]].to_numpy())
    assert same[co].all()  # co-clustered exact pairs always detected
    recall = same.mean()
    assert recall >= 0.25, recall
