"""Dedup suite: MinHash-LSH recall on planted near-dups, SimHash banding."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_conformance import oracle_con  # noqa: F401


@pytest.fixture(scope="module")
def planted_corpus(tmp_path_factory):
    """Corpus with known near-dup pairs: base docs + mutated copies."""
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(200)]
    docs, truth = [], []
    doc_id = 0
    for b in range(30):
        base_words = list(rng.choice(words, size=60))
        base = " ".join(base_words)
        docs.append({"doc_id": doc_id, "text": base})
        base_id = doc_id
        doc_id += 1
        if b % 3 == 0:  # plant a near-dup: mutate ~5% of tokens
            mutated = list(base_words)
            for j in rng.choice(len(mutated), size=3, replace=False):
                mutated[j] = str(rng.choice(words))
            docs.append({"doc_id": doc_id, "text": " ".join(mutated)})
            truth.append((base_id, doc_id))
            doc_id += 1
        # plus unrelated docs
        docs.append({"doc_id": doc_id, "text": " ".join(rng.choice(words, size=60))})
        doc_id += 1
    d = tmp_path_factory.mktemp("corpus")
    pq.write_table(pa.Table.from_pylist(docs), f"{d}/documents.parquet")
    return str(d), docs, truth


def _brute_force_pairs(docs, ngram, threshold):
    from crawler_ray.functions.text import char_ngrams, jaccard

    sh = {r["doc_id"]: char_ngrams(r["text"], ngram) for r in docs}
    ids = sorted(sh)
    out = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if jaccard(sh[a], sh[b]) >= threshold:
                out.add((a, b))
    return out


def test_minhash_lsh_recall(ray_session, planted_corpus):
    from crawler_ray.pipelines.dedup import minhash_near_dup_pairs

    sf_dir, docs, truth = planted_corpus
    got = minhash_near_dup_pairs(sf_dir, ngram=3, threshold=0.8).to_pandas()
    got_pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    exact = _brute_force_pairs(docs, 3, 0.8)
    assert exact, "fixture must contain true near-dups"
    # every planted pair is a true near-dup and must be found (LSH bands are
    # tuned for threshold .8 >> s-curve midpoint .71)
    recall = len(got_pairs & exact) / len(exact)
    assert recall >= 0.9
    # verification step guarantees NO false positives
    assert got_pairs <= exact


def test_simhash_finds_exact_dups(ray_session, planted_corpus, tmp_path):
    """Token-identical docs have simhash distance 0 and must pair up."""
    sf_dir, docs, truth = planted_corpus
    # append exact duplicates of the first two docs
    dup_docs = list(docs) + [
        {"doc_id": 90001, "text": docs[0]["text"]},
        {"doc_id": 90002, "text": docs[1]["text"]},
    ]
    pq.write_table(pa.Table.from_pylist(dup_docs), f"{tmp_path}/documents.parquet")
    from crawler_ray.pipelines.dedup import simhash_near_dup_pairs

    got = simhash_near_dup_pairs(str(tmp_path), max_hamming=3).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert (docs[0]["doc_id"], 90001) in pairs
    assert (docs[1]["doc_id"], 90002) in pairs
    ham0 = got.set_index(["doc_a", "doc_b"])["hamming"]
    assert ham0.loc[(docs[0]["doc_id"], 90001)] == 0


def test_exact_dedup_counts(ray_session, planted_corpus, tmp_path):
    sf_dir, docs, _ = planted_corpus
    tripled = list(docs) + [
        {"doc_id": 80001, "text": docs[0]["text"]},
        {"doc_id": 80002, "text": docs[0]["text"]},
    ]
    pq.write_table(pa.Table.from_pylist(tripled), f"{tmp_path}/documents.parquet")
    from crawler_ray.pipelines.dedup import exact_dedup_docs

    out = exact_dedup_docs(str(tmp_path)).to_pandas()
    assert out["n_copies"].max() == 3
    rep = out[out["n_copies"] == 3]["rep_doc_id"].iloc[0]
    assert rep == docs[0]["doc_id"]  # min doc_id wins
    assert len(out) == len({r["text"] for r in tripled})


def test_minhash_pairs_sql_value_oracle(ray_session, planted_corpus):
    """VERDICT round-1 #9: value-level gate for the rows-only minhash query.
    Every emitted pair's jaccard must equal the exact char-3gram Jaccard
    computed INDEPENDENTLY by DuckDB over the emitted pairs (subset check:
    no false positives, exact values) — no LSH determinism required."""
    import duckdb

    from crawler_ray.pipelines.dedup import minhash_near_dup_pairs

    sf_dir, docs, truth = planted_corpus
    got = minhash_near_dup_pairs(sf_dir, ngram=3, threshold=0.8).to_pandas()
    assert len(got) > 0
    con = duckdb.connect()
    con.register("pairs", got)
    con.sql(
        f"CREATE VIEW docs AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    max_len = max(len(d["text"]) for d in docs)
    checked = con.sql(f"""
        WITH idx AS (
            SELECT i FROM generate_series(1, {max_len}) AS t(i)
        ),
        dg AS (
            SELECT DISTINCT d.doc_id, substring(lower(d.text), idx.i, 3) AS gram
            FROM docs d JOIN idx ON idx.i <= greatest(length(d.text) - 2, 1)
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY 1),
        inter AS (
            SELECT p.doc_a, p.doc_b, COUNT(*) AS c
            FROM pairs p
            JOIN dg a ON a.doc_id = p.doc_a
            JOIN dg b ON b.doc_id = p.doc_b AND a.gram = b.gram
            GROUP BY 1, 2
        )
        SELECT p.doc_a, p.doc_b, p.jaccard,
               ROUND(i.c / (na.n + nb.n - i.c)::DOUBLE, 6) AS exact_j
        FROM pairs p
        JOIN inter i USING (doc_a, doc_b)
        JOIN sizes na ON na.doc_id = p.doc_a
        JOIN sizes nb ON nb.doc_id = p.doc_b
    """).df()
    assert len(checked) == len(got)  # every emitted pair has shared grams
    assert (checked["exact_j"] >= 0.8).all()  # no false positives
    # emitted jaccard == independent exact jaccard, pairwise
    assert np.allclose(checked["jaccard"], checked["exact_j"], atol=1e-6)


def test_simhash_pairs_sql_hamming_oracle(ray_session, planted_corpus):
    """VERDICT round-1 #9: DuckDB recomputes each emitted pair's Hamming
    distance with a bit_count(xor) expression over the signature table and
    must agree with the pipeline's emitted distance (and the threshold)."""
    import duckdb
    import ray.data as rd

    from crawler_ray.pipelines.dedup import simhash_batch, simhash_near_dup_pairs

    sf_dir, docs, truth = planted_corpus
    got = simhash_near_dup_pairs(sf_dir, max_hamming=3).to_pandas()
    assert len(got) > 0
    sigs = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(simhash_batch, batch_format="pandas")
        .to_pandas()
    )
    con = duckdb.connect()
    con.register("pairs", got)
    con.register("sigs", sigs)
    checked = con.sql("""
        SELECT p.doc_a, p.doc_b, p.hamming,
               bit_count(xor(a.simhash, b.simhash)) AS exact_h
        FROM pairs p
        JOIN sigs a ON a.doc_id = p.doc_a
        JOIN sigs b ON b.doc_id = p.doc_b
    """).df()
    assert len(checked) == len(got)
    assert (checked["hamming"] == checked["exact_h"]).all()
    assert (checked["exact_h"] <= 3).all()


def test_simhash_adaptive_banding_exact_recall(ray_session, planted_corpus):
    """max_hamming > 3 needs more than the classic 4 quarters (pigeonhole:
    r+1 bands for radius r) — the emitted pair set must equal a brute-force
    all-pairs Hamming scan exactly, and each pair must appear ONCE
    (canonical-band dedup) even though it now co-buckets in several of the
    wider band set."""
    import itertools

    import ray.data as rd

    from crawler_ray.pipelines.dedup import simhash_batch, simhash_near_dup_pairs

    sf_dir, docs, truth = planted_corpus
    for radius in (0, 4, 6):
        got = simhash_near_dup_pairs(sf_dir, max_hamming=radius).to_pandas()
        pairs = (
            list(zip(got["doc_a"], got["doc_b"])) if len(got) else []
        )
        assert len(pairs) == len(set(map(frozenset, pairs))), "dup pair"
        sigs = (
            rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(simhash_batch, batch_format="pandas")
            .to_pandas()
        )
        sig = dict(zip(sigs["doc_id"], sigs["simhash"].astype(np.uint64)))
        exp = {
            frozenset((a, b))
            for a, b in itertools.combinations(sorted(sig), 2)
            if bin(int(sig[a]) ^ int(sig[b])).count("1") <= radius
        }
        assert set(map(frozenset, pairs)) == exp, f"radius {radius}"


# the three users of the block-pair walk: the module and name of each one's
# block-grid floor, and the output columns holding a pair's two block keys
# (None where the key, a token set's id, is not in the output)
PAIR_WALKS = {
    "token_jaccard_pairs": ("dedup", "SET_PAIR_BLOCKS", None),
    "embedding_near_dup_pairs": ("similarity", "VECTOR_PAIR_BLOCKS",
                                 ("vec_a", "vec_b")),
    "hard_negative_pairs": ("similarity", "VECTOR_PAIR_BLOCKS",
                            ("vec_id", "neg_id")),
}


@pytest.mark.parametrize("name", sorted(PAIR_WALKS))
def test_jaccard_pairs_block_grid_invariant(ray_session, oracle_con,
                                            monkeypatch, name):
    """Every block-pair walk emits the SAME rows, the oracle's, for any
    block count B: forced to B = 1, 3 and 7 through its floor, and derived
    above the floor by a lowered ``PAIR_BLOCK_ROWS`` (exercises the
    replication map, the diagonal upper-triangle logic and the cross-pair
    split). The oracle must hold pairs whose two rows sit in different
    blocks, so the off-diagonal folds are shown to emit rows."""
    import importlib

    import __ray_entry__ as entry_mod
    from crawler_ray.pipelines import joins
    from tests.test_conformance import SF_DIR, _canon

    mod_name, floor, keys = PAIR_WALKS[name]
    mod = importlib.import_module(f"crawler_ray.pipelines.{mod_name}")
    fn = entry_mod.queries()[name]
    grids = []
    real = joins.pair_blocks
    monkeypatch.setattr(
        joins, "pair_blocks",
        lambda rows, fl: grids.append(real(rows, fl)) or grids[-1])

    def run() -> pd.DataFrame:
        grids.clear()
        return _canon(fn(SF_DIR).to_pandas())

    exp = _canon(oracle_con.sql(entry_mod.oracle_sql()[name]).df())
    if keys is None:
        # pairs of distinct token sets, not only same-set self pairs
        assert (exp["jaccard"] < 1).any()
    for b in (1, 3, 7):
        if keys is not None and b > 1:
            assert (exp[keys[0]] % b != exp[keys[1]] % b).any()
        monkeypatch.setattr(mod, floor, b)
        got = run()
        assert grids == [b]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      atol=1e-6, rtol=1e-9)
    monkeypatch.setattr(mod, floor, 4)
    monkeypatch.setattr(joins, "PAIR_BLOCK_ROWS", 60)
    got = run()
    assert len(grids) == 1 and grids[0] > 4
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  atol=1e-6, rtol=1e-9)


def test_substring_span_dedup_planted(ray_session, tmp_path):
    """Planted duplicate span: a 12-token run shared verbatim by two docs is
    removed from BOTH; a self-repeated window inside one doc is removed too;
    unique text survives untouched."""
    from crawler_ray.pipelines.dedup import substring_span_dedup

    span = [f"s{i}" for i in range(12)]  # 12 tokens -> 3 dup windows at k=10
    a_pre, a_post = ["a1", "a2", "a3"], ["a4", "a5"]
    b_pre, b_post = ["b1"], ["b2", "b3", "b4"]
    rep = [f"r{i}" for i in range(10)]  # k-token unit repeated twice in doc 3
    docs = [
        {"doc_id": 0, "text": " ".join(a_pre + span + a_post)},
        {"doc_id": 1, "text": " ".join(b_pre + span + b_post)},
        {"doc_id": 2, "text": " ".join(f"u{i}" for i in range(30))},
        {"doc_id": 3, "text": " ".join(rep + ["mid"] + rep)},
    ]
    pq.write_table(pa.Table.from_pylist(docs), f"{tmp_path}/documents.parquet")
    out = (
        substring_span_dedup(str(tmp_path), k=10)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # the shared 12-token span (3 windows each) vanishes from both docs
    assert out.loc[0, "clean_text"] == " ".join(a_pre + a_post)
    assert out.loc[1, "clean_text"] == " ".join(b_pre + b_post)
    assert int(out.loc[0, "n_dup_windows"]) == 3
    assert int(out.loc[0, "n_removed_tokens"]) == 12
    # unique doc untouched
    assert out.loc[2, "clean_text"] == docs[2]["text"]
    assert int(out.loc[2, "n_removed_tokens"]) == 0
    # both copies of the self-repeated window are removed; 'mid' survives
    assert out.loc[3, "clean_text"] == "mid"
    assert int(out.loc[3, "n_removed_tokens"]) == 20


def test_substring_span_dedup_parallelism_invariant(ray_session, planted_corpus, force_parts):
    """Identical output on the one-partition fold and a 17-way exchange
    (exchange-shape invariance)."""
    from crawler_ray.pipelines.dedup import substring_span_dedup

    sf_dir, _, _ = planted_corpus
    force_parts(1)
    a = (
        substring_span_dedup(sf_dir, k=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    force_parts(17)
    b = (
        substring_span_dedup(sf_dir, k=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert (a["n_removed_tokens"] > 0).any(), "fixture must contain dup spans"


def test_corpus_diff_statuses(ray_session):
    """Every status class is populated and matches the defining modular
    rules of the two snapshot views."""
    from crawler_ray.pipelines.dedup import corpus_diff

    out = corpus_diff("/root/testdata/sf0.001").to_pandas()
    st = out.set_index("doc_id")["status"]
    ids = st.index.to_numpy()
    assert set(st.unique()) == {"added", "removed", "changed", "unchanged"}
    assert (st[ids % 7 == 3] == "added").all()
    mask_removed = (ids % 11 == 4) & (ids % 7 != 3)
    assert (st[mask_removed] == "removed").all()
    mask_changed = (ids % 5 == 2) & (ids % 7 != 3) & (ids % 11 != 4)
    assert (st[mask_changed] == "changed").all()
    # docs absent from BOTH snapshots must not appear in the delta at all
    all_ids = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_numpy()
    both_gone = all_ids[(all_ids % 7 == 3) & (all_ids % 11 == 4)]
    assert not np.isin(both_gone, ids).any()


def test_substring_span_dedup_random_brute_force(ray_session, tmp_path):
    """Randomized corpora (tiny vocab -> dense chance window collisions)
    checked against a pure-Python brute force: window marking, interval
    union, self-repetition and reconstruction must all agree exactly."""
    from collections import Counter

    from crawler_ray.pipelines.dedup import substring_span_dedup

    k = 4
    rng = np.random.default_rng(99)
    vocab = [f"v{i}" for i in range(6)]
    docs = []
    for d in range(60):
        n = int(rng.integers(0, 30))
        docs.append(
            {"doc_id": d, "text": " ".join(rng.choice(vocab, size=n))}
        )
    pq.write_table(
        pa.Table.from_pylist(docs), f"{tmp_path}/documents.parquet"
    )

    wins = Counter()
    toks_all = {r["doc_id"]: r["text"].split() for r in docs}
    for toks in toks_all.values():
        for i in range(len(toks) - k + 1):
            wins[tuple(toks[i : i + k])] += 1
    expected = {}
    for d, toks in toks_all.items():
        n = len(toks)
        marked = [
            i for i in range(max(n - k + 1, 0))
            if wins[tuple(toks[i : i + k])] >= 2
        ]
        covered = set()
        for i in marked:
            covered.update(range(i, min(i + k, n)))
        clean = " ".join(t for j, t in enumerate(toks) if j not in covered)
        expected[d] = (n, len(marked), len(covered), clean)

    out = substring_span_dedup(str(tmp_path), k=k).to_pandas()
    assert len(out) == len(docs)
    for r in out.itertuples():
        exp = expected[int(r.doc_id)]
        got = (
            int(r.n_tokens), int(r.n_dup_windows),
            int(r.n_removed_tokens), r.clean_text,
        )
        assert got == exp, (r.doc_id, got, exp)
    assert any(v[1] > 0 for v in expected.values()), "need dup windows"


def test_cross_snapshot_near_dups_brute_force_oracle(ray_session):
    """Cross-snapshot probe vs a full brute-force cross-side sweep: every
    emitted (base, new) pair's exact char-3gram Jaccard must match, and
    every true pair with jaccard clearly above threshold (>= 0.9 — where
    16-band LSH recall is ~certain) must be found."""
    import pyarrow.parquet as pq

    from crawler_ray.functions.text import char_ngrams, jaccard
    from crawler_ray.pipelines.dedup import cross_snapshot_near_dups
    from tests.conftest import SF_DIR

    res = cross_snapshot_near_dups(SF_DIR, threshold=0.8).to_pandas()
    docs = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    shingles = {r.doc_id: char_ngrams(r.text, 3) for r in docs.itertuples()}
    truth = {}
    for b in docs.doc_id[docs.doc_id % 2 == 0]:
        for n in docs.doc_id[docs.doc_id % 2 == 1]:
            j = jaccard(shingles[b], shingles[n])
            if j >= 0.8:
                truth[(b, n)] = round(j, 6)
    got = dict(zip(zip(res.base_doc, res.new_doc), res.jaccard))
    # no false positives, values exact
    for pair, j in got.items():
        assert pair in truth and abs(truth[pair] - j) < 1e-9
    # recall guaranteed-by-probability region
    for pair, j in truth.items():
        if j >= 0.9:
            assert pair in got, f"missed high-jaccard pair {pair} ({j})"
    # parity contract: base side even, new side odd
    assert (res.base_doc % 2 == 0).all() and (res.new_doc % 2 == 1).all()


def test_band_index_serves_any_partition_count(ray_session, force_parts,
                                              tmp_path, monkeypatch):
    """The persisted band index holds no partition column and its cache key
    no partition count: ONE built index serves probes forced to 1 and to 7
    partitions, and both find the same pairs."""
    import os
    import tempfile

    import pyarrow.dataset as pads

    from crawler_ray.pipelines import dedup
    from tests.conftest import SF_DIR

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # fresh cache
    idx = dedup.ensure_minhash_band_index(SF_DIR)
    assert os.path.basename(idx).startswith("crawler_ray_bands3_")
    assert pads.dataset(idx).schema.names == ["bucket", "doc_id", "minisig"]

    def pairs(k):
        force_parts(k)
        df = dedup.cross_snapshot_near_dups(SF_DIR, threshold=0.8).to_pandas()
        return sorted(zip(df["base_doc"], df["new_doc"], df["jaccard"]))

    one, seven = pairs(1), pairs(7)
    assert one == seven and len(one) > 0
    # both probes read the one index: nothing else was built or staged
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(idx)]


def test_snapshot_merge_semantics(ray_session, force_parts):
    """MERGE reconstructs the new snapshot: deletes win over inserts,
    updates replace stale base text, result invariant to the partition
    count."""
    from tests.conftest import SF_DIR

    from crawler_ray.pipelines.dedup import snapshot_merge

    docs = pq.read_table(f"{SF_DIR}/documents.parquet").to_pandas()
    got = (
        snapshot_merge(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = (
        docs[docs.doc_id % 11 != 4]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)
    # deletes really dropped, including delete-beats-insert keys
    assert not (got.doc_id % 11 == 4).any()
    # updated docs carry FRESH text (no ' OLD' stale marker survives)
    upd = got[got.doc_id % 5 == 2]
    assert len(upd) > 0 and not upd.text.str.endswith(" OLD").any()
    # partition-count invariance: the default is one partition at sf0.001
    force_parts(13)
    got3 = (
        snapshot_merge(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got3[exp.columns.tolist()], exp)
