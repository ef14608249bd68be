"""Round-3 suite additions: sequence packing (distributed prefix sum),
TF-IDF top terms, cross-doc boilerplate n-grams, Misra-Gries frequent
items, dedup text normalization, ROLLUP report — edge-case fixtures the
synthetic corpus never hits, each vs its own DuckDB oracle."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from crawler_ray.functions.sketches import MisraGries
from crawler_ray.pipelines import textops
from crawler_ray.pipelines.relational import REVENUE_ROLLUP_SQL, revenue_rollup
from crawler_ray.pipelines.textops import (
    DOC_NORMALIZED_SQL,
    boilerplate_ngrams,
    boilerplate_ngrams_sql,
    doc_normalized,
    doc_pack_spans,
    doc_pack_spans_sql,
    doc_top_tfidf,
    doc_top_tfidf_sql,
    heavy_hitter_tokens,
    heavy_hitter_tokens_sql,
)
from tests._refs import bpe_reference, train_doc_classifier_reference

SF_DIR = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts: dict[int, str]):
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(list(texts), pa.int64()),
             "text": pa.array([texts[k] for k in texts], pa.string())}
        ),
        f"{tmp_path}/documents.parquet",
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    return con


def _assert_same(got: pd.DataFrame, exp: pd.DataFrame):
    cols = sorted(exp.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    exp = exp[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=True)


# ---------------------------------------------------------------- MisraGries


def test_misra_gries_guarantees():
    rng = np.random.Generator(np.random.PCG64(7))
    # zipf-ish stream over a 5k-item domain, far larger than k
    items = rng.zipf(1.3, size=20000) % 5000
    k = 50
    mg = MisraGries(k)
    # feed in 7 chunks, merging pairwise like per-batch sketches would
    sketches = [MisraGries(k).add(c) for c in np.array_split(items, 7)]
    merged = sketches[0]
    for s in sketches[1:]:
        merged = merged.merge(s)
    mg.add(items)
    true = pd.Series(items).value_counts()
    n = len(items)
    for sk in (mg, merged):
        got = sk.items()
        assert len(got) <= k
        for item, cnt in true.items():
            if cnt > n / k:  # MG guarantee: must be present
                assert item in got, (item, cnt)
            if item in got:  # weight underestimates by at most n/k
                assert got[item] <= cnt
                assert cnt - got[item] <= n / k + 1e-9


def test_misra_gries_small_domain_exact():
    mg = MisraGries(10).add(np.array(["a"] * 5 + ["b"] * 3 + ["c"], dtype=object))
    assert mg.items() == {"a": 5, "b": 3, "c": 1}


# ------------------------------------------------------------ doc_pack_spans


def test_pack_spans_edges(ray_session, tmp_path, force_parts):
    texts = {
        7: "one two three",
        1: "",                        # zero tokens: degenerate span
        3: "single",
        12: " ".join(["w"] * 19),     # straddles several ctx=8 bins
        5: "a b c d e f g h",         # exactly one full bin
    }
    con = _write_docs(tmp_path, texts)
    force_parts(7)  # several doc_id ranges
    got = doc_pack_spans(str(tmp_path), ctx=8).to_pandas()
    exp = con.sql(doc_pack_spans_sql(ctx=8)).df()
    _assert_same(got, exp)
    g = got.set_index("doc_id")
    # global prefix order is doc_id order regardless of write order
    assert g.loc[1, "tok_start"] == 0 and g.loc[1, "bin_start"] == g.loc[1, "bin_end"]
    assert g.loc[3, "tok_start"] == 0  # doc 1 contributed nothing
    assert g.loc[12, "bin_end"] > g.loc[12, "bin_start"]  # straddle


def test_pack_spans_partition_invariance(ray_session, tmp_path, force_parts):
    texts = {i: " ".join(["t"] * (i % 7 + 1)) for i in range(40)}
    con = _write_docs(tmp_path, texts)
    exp = con.sql(doc_pack_spans_sql(ctx=16)).df()
    # the default (one partition at this size), then a 13-way exchange
    _assert_same(doc_pack_spans(str(tmp_path), ctx=16).to_pandas(), exp)
    force_parts(13)
    _assert_same(doc_pack_spans(str(tmp_path), ctx=16).to_pandas(), exp)


# ------------------------------------------------------------- doc_top_tfidf


def test_tfidf_topk_ties_and_case(ray_session, tmp_path):
    texts = {
        1: "Apple apple BANANA cherry",   # case folds: tf(apple)=2
        2: "banana cherry cherry",
        3: "date date date apple",
        4: "",                            # no terms -> no rows
    }
    con = _write_docs(tmp_path, texts)
    got = doc_top_tfidf(str(tmp_path), k=2).to_pandas()
    exp = con.sql(doc_top_tfidf_sql(k=2)).df()
    _assert_same(got, exp)
    assert not (got["doc_id"] == 4).any()
    # doc 3: 'date' tf=3 df=1 dominates 'apple' tf=1 df=2
    d3 = got[got["doc_id"] == 3].sort_values("rank")
    assert list(d3["term"]) == ["date", "apple"]


# -------------------------------------------------------- boilerplate_ngrams


def test_boilerplate_ngrams_planted(ray_session, tmp_path):
    chrome = "copyright acme corp all rights"
    texts = {
        1: f"intro words {chrome} tail",
        2: f"{chrome} other content here",
        3: f"padding {chrome}",
        4: "too short",                   # < n tokens: contributes nothing
        5: f"{chrome} {chrome}",          # repeats within ONE doc
    }
    con = _write_docs(tmp_path, texts)
    got = boilerplate_ngrams(str(tmp_path), n=5, min_docs=3).to_pandas()
    exp = con.sql(boilerplate_ngrams_sql(n=5, min_docs=3)).df()
    _assert_same(got, exp)
    row = got[got["ngram"] == chrome]
    assert len(row) == 1
    assert int(row["n_docs"].iloc[0]) == 4  # doc 5 counted once
    assert int(row["occurrences"].iloc[0]) == 5  # but both occurrences tallied


# ------------------------------------------------------- heavy_hitter_tokens


def test_heavy_hitters_exact_two_pass(ray_session, tmp_path):
    # 'hot' is 40/100 tokens, 'warm' 25/100; threshold 20% keeps exactly those
    body = ["hot"] * 40 + ["warm"] * 25 + [f"cold{i}" for i in range(35)]
    rng = np.random.Generator(np.random.PCG64(3))
    rng.shuffle(body)
    texts = {i: " ".join(body[i * 10:(i + 1) * 10]) for i in range(10)}
    con = _write_docs(tmp_path, texts)
    got = heavy_hitter_tokens(str(tmp_path), phi_num=20, phi_den=100, k=8)
    exp = con.sql(heavy_hitter_tokens_sql(phi_num=20, phi_den=100)).df()
    _assert_same(got, exp)
    assert set(got["token"]) == {"hot", "warm"}
    assert got.set_index("token")["cnt"].to_dict() == {"hot": 40, "warm": 25}


# ------------------------------------------------------------ doc_normalized


def test_normalize_whitespace_case(ray_session, tmp_path):
    texts = {
        1: "  Mixed   CASE\ttabs\nand  newlines  ",
        2: "already normal",
        3: "",
    }
    con = _write_docs(tmp_path, texts)
    got = doc_normalized(str(tmp_path)).to_pandas()
    exp = con.sql(DOC_NORMALIZED_SQL).df()
    _assert_same(got, exp)
    import hashlib

    n = got.set_index("doc_id")
    assert n.loc[1, "norm_text"] == "mixed case tabs and newlines"
    # the canonical form is the dedup key: known md5 of the empty string
    assert n.loc[3, "norm_md5"] == hashlib.md5(b"").hexdigest()


# ------------------------------------------------------------ revenue_rollup


def test_revenue_rollup_vs_oracle(ray_session):
    con = duckdb.connect()
    for t in ("orders", "customer", "nation", "region"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    got = revenue_rollup(SF_DIR)
    exp = con.sql(REVENUE_ROLLUP_SQL).df()
    _assert_same(got, exp)
    # grand total equals the sum of finest-level rows
    finest = got[(got["region"] != "ALL") & (got["nation"] != "ALL")]
    total = got[(got["region"] == "ALL") & (got["nation"] == "ALL")]
    assert np.isclose(finest["revenue"].sum(), total["revenue"].iloc[0])
    assert finest["n_orders"].sum() == total["n_orders"].iloc[0]


def test_revenue_grouping_sets_vs_oracle(ray_session):
    from crawler_ray.pipelines.relational import (
        REVENUE_GROUPING_SETS_SQL, revenue_grouping_sets,
    )

    con = duckdb.connect()
    for t in ("orders", "customer", "nation", "region"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    got = revenue_grouping_sets(SF_DIR)
    exp = con.sql(REVENUE_GROUPING_SETS_SQL).df()
    _assert_same(got, exp)
    # the two slices partition the same fact: slice totals agree
    by_region = got[got["segment"] == "ALL"]
    by_segment = got[got["region"] == "ALL"]
    assert np.isclose(by_region["revenue"].sum(), by_segment["revenue"].sum())
    assert by_region["n_orders"].sum() == by_segment["n_orders"].sum()
    # no composite or grand-total rows — GROUPING SETS emits ONLY the
    # requested sets (unlike CUBE)
    assert not ((got["region"] != "ALL") & (got["segment"] != "ALL")).any()
    assert not ((got["region"] == "ALL") & (got["segment"] == "ALL")).any()


# ---------------------------------------------------------------- doc_chunks


def test_doc_chunks_edges(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import doc_chunks, doc_chunks_sql

    texts = {
        1: "",                          # no tokens -> no chunks
        2: "solo",                      # one short chunk
        3: " ".join(f"t{i}" for i in range(8)),   # exactly one full chunk
        4: " ".join(f"w{i}" for i in range(19)),  # straddles several chunks
    }
    con = _write_docs(tmp_path, texts)
    got = doc_chunks(str(tmp_path), size=8, stride=4).to_pandas()
    exp = con.sql(doc_chunks_sql(size=8, stride=4)).df()
    _assert_same(got, exp)
    assert not (got["doc_id"] == 1).any()
    d4 = got[got["doc_id"] == 4].sort_values("chunk_id")
    # stride-4 starts below 19 tokens: 0,4,8,12,16 -> 5 chunks, last short
    assert list(d4["n_tokens"]) == [8, 8, 8, 7, 3]
    assert d4["chunk"].iloc[0] == " ".join(f"w{i}" for i in range(8))
    assert d4["chunk"].iloc[-1] == "w16 w17 w18"


# ------------------------------------------------------------ token_postings


def test_token_postings_planted(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import TOKEN_POSTINGS_SQL, token_postings

    texts = {1: "a b a a", 2: "b b c", 3: ""}
    con = _write_docs(tmp_path, texts)
    got = token_postings(str(tmp_path)).to_pandas()
    exp = con.sql(TOKEN_POSTINGS_SQL).df()
    _assert_same(got, exp)
    tf = got.set_index(["token", "doc_id"])["tf"]
    assert tf[("a", 1)] == 3 and tf[("b", 1)] == 1 and tf[("b", 2)] == 2
    assert ("c", 2) in tf.index and len(got) == 4


# --------------------------------------------------- source_token_affinity


def test_source_token_affinity_planted(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import (
        SOURCE_TOKEN_AFFINITY_SQL,
        source_token_affinity,
    )

    rows = [
        (1, "web", "cat cat cat dog"),
        (2, "web", "cat fish"),
        (3, "book", "dog dog fish fish"),
        (4, "book", "dog"),
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "source": pa.array([r[1] for r in rows], pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        ),
        f"{tmp_path}/documents.parquet",
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    got = source_token_affinity(str(tmp_path))
    exp = con.sql(SOURCE_TOKEN_AFFINITY_SQL).df()
    _assert_same(got, exp)
    # 'cat' is 4/6 of web but 4/11 of corpus -> web-affine; 'dog' is 3/5 of
    # book vs 4/11 of corpus -> book-affine; 'fish' web 1/6 < 3/11 -> absent
    w = got[got["source"] == "web"].set_index("token")
    b = got[got["source"] == "book"].set_index("token")
    assert "cat" in w.index and "fish" not in w.index
    assert "dog" in b.index and "fish" in b.index  # book fish 2/5 > 3/11


# -------------------------------------------------------------- doc_pii_scrub


def test_pii_scrub_planted(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import DOC_PII_SCRUB_SQL, doc_pii_scrub

    texts = {
        1: "mail bob.smith+x@corp.example.com or alice@ex.io now",
        2: "call 415-555-0199 or 415.555.0200 thanks",
        3: "server at 10.0.0.1 and 192.168.254.3 up",
        4: "mixed a@b.co then 303-555-0111 then 8.8.8.8 end",
        5: "no pii here at all",
        # phone-shaped digits joined by dots must scrub as PHONE (step
        # order), never as a partial IPv4
        6: "dotted 123.456.7890 left",
    }
    con = _write_docs(tmp_path, texts)
    got = doc_pii_scrub(str(tmp_path)).to_pandas()
    exp = con.sql(DOC_PII_SCRUB_SQL).df()
    _assert_same(got, exp)
    g = got.set_index("doc_id")
    assert g.loc[1, "n_emails"] == 2 and "<EMAIL>" in g.loc[1, "text_clean"]
    assert g.loc[2, "n_phones"] == 2
    assert g.loc[3, "n_ipv4"] == 2
    assert (
        g.loc[4, ["n_emails", "n_phones", "n_ipv4"]].tolist() == [1, 1, 1]
        and g.loc[4, "text_clean"] == "mixed <EMAIL> then <PHONE> then <IP> end"
    )
    assert g.loc[5, "text_clean"] == texts[5]
    assert g.loc[6, "n_phones"] == 1 and g.loc[6, "n_ipv4"] == 0


# ------------------------------------------------------- balanced_sample_docs


def test_balanced_sample_skewed_sources(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import (
        BALANCED_SAMPLE_SQL,
        balanced_sample_docs,
    )

    # skewed mix: web 30 docs, book 7, news 3 -> every source keeps 3
    ids, srcs = [], []
    for src, n in (("web", 30), ("book", 7), ("news", 3)):
        for _ in range(n):
            ids.append(len(ids))
            srcs.append(src)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "text": pa.array(["t"] * len(ids), pa.string()),
            }
        ),
        f"{tmp_path}/documents.parquet",
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    got = balanced_sample_docs(str(tmp_path)).to_pandas()
    exp = con.sql(BALANCED_SAMPLE_SQL).df()
    _assert_same(got, exp)
    assert got.groupby("source").size().to_dict() == {"web": 3, "book": 3, "news": 3}
    # determinism: a re-run picks the identical rows
    again = balanced_sample_docs(str(tmp_path)).to_pandas()
    _assert_same(again, exp)


# --------------------------------------------------------- token_cooccurrence


def test_token_cooccurrence_window(ray_session, tmp_path):
    from crawler_ray.pipelines.textops import (
        token_cooccurrence,
        token_cooccurrence_sql,
    )

    texts = {
        1: "a b c a b",    # window 2: (a,b)x2 adj, (b,c), (a,c), (c,a)->(a,c), (a,b) d2... 
        2: "b a",          # reversed order still canonicalizes to (a,b)
        3: "z",            # single token: no pairs
        4: "",             # empty: no pairs
        5: "x x x",        # identical-token pairs (x,x)
    }
    con = _write_docs(tmp_path, texts)
    got = token_cooccurrence(str(tmp_path), window=2, min_count=1).to_pandas()
    exp = con.sql(token_cooccurrence_sql(window=2, min_count=1)).df()
    _assert_same(got, exp)
    n = got.set_index(["tok_a", "tok_b"])["n"]
    # doc1 offsets: d1 -> ab,bc,ca,ab ; d2 -> ac,ba,cb ; doc2 -> ba
    assert n[("a", "b")] == 4  # 2 adjacent + 1 at offset 2 + doc2 reversed
    assert n[("a", "c")] == 2
    assert n[("x", "x")] == 3  # d1: 2 pairs, d2: 1 pair
    # min_count filter drops singletons
    got2 = token_cooccurrence(str(tmp_path), window=2, min_count=3).to_pandas()
    exp2 = con.sql(token_cooccurrence_sql(window=2, min_count=3)).df()
    _assert_same(got2, exp2)
    assert set(map(tuple, got2[["tok_a", "tok_b"]].values)) == {("a", "b"), ("x", "x")}


def test_hashing_trick_scorer_known_values(ray_session, tmp_path):
    """Margins are bias + sum of md5-derived token weights; empty docs score
    exactly the bias; weights count multiplicity."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.textops import doc_classifier_scores

    def w(tok):
        return int(hashlib.md5(tok.encode()).hexdigest()[:8], 16) % 21 - 10

    docs = [
        {"doc_id": 0, "text": "key agg key"},
        {"doc_id": 1, "text": "   "},
        {"doc_id": 2, "text": "spark"},
    ]
    pq.write_table(pa.Table.from_pylist(docs), f"{tmp_path}/documents.parquet")
    out = doc_classifier_scores(str(tmp_path)).to_pandas().set_index("doc_id")
    assert int(out.loc[0, "margin"]) == 3 + 2 * w("key") + w("agg")
    assert int(out.loc[1, "margin"]) == 3
    assert int(out.loc[2, "margin"]) == 3 + w("spark")
    assert bool(out.loc[2, "keep"]) == (3 + w("spark") > 0)


def test_shuffled_export_is_permutation_and_seed_sensitive(ray_session):
    from crawler_ray.pipelines.textops import shuffled_export

    sf = "/root/testdata/sf0.001"
    a = shuffled_export(sf, seed=42).to_pandas().sort_values("doc_id")
    # ranks form an exact 1..n permutation
    assert sorted(a["shuffle_rank"]) == list(range(1, len(a) + 1))
    # deterministic across runs
    b = shuffled_export(sf, seed=42).to_pandas().sort_values("doc_id")
    assert (a.to_numpy() == b.to_numpy()).all()
    # a different seed yields a different permutation
    c = shuffled_export(sf, seed=43).to_pandas().sort_values("doc_id")
    assert (a["shuffle_rank"].to_numpy() != c["shuffle_rank"].to_numpy()).any()


def test_curriculum_export_orders_by_margin(ray_session):
    """Ranks are a 1..n permutation; walking rank order, margins are
    non-increasing with doc_id as tiebreak (the curriculum contract) —
    regardless of how the sampled range cut points fell."""
    from crawler_ray.pipelines.textops import (
        curriculum_export,
        doc_classifier_scores,
    )

    sf = "/root/testdata/sf0.001"
    out = curriculum_export(sf).to_pandas()
    assert sorted(out["curriculum_rank"]) == list(range(1, len(out) + 1))
    margins = (
        doc_classifier_scores(sf).to_pandas().set_index("doc_id")["margin"]
    )
    o = out.sort_values("curriculum_rank")
    m = margins.loc[o["doc_id"]].to_numpy()
    ids = o["doc_id"].to_numpy()
    for i in range(1, len(m)):
        assert (m[i] < m[i - 1]) or (m[i] == m[i - 1] and ids[i] > ids[i - 1])


def test_compression_ratio_orders_redundancy(ray_session, tmp_path):
    """Repetitive text must compress harder than varied text, and the
    ratio columns must be exact byte counts."""
    import zlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.textops import doc_compression_ratio

    rep = "spam ham " * 200
    var = " ".join(f"w{i}{i*7%97}" for i in range(400))
    t = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array([rep, var], pa.string())}
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    df = (
        doc_compression_ratio(str(d))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert df.loc[0, "compression_ratio"] < df.loc[1, "compression_ratio"]
    assert df.loc[0, "compressed_bytes"] == len(zlib.compress(rep.encode(), 6))
    assert df.loc[1, "raw_bytes"] == len(var.encode())


def test_temperature_sampling_upweights_small_sources(ray_session):
    """τ=0.5 mixing: every source's share of the sample sits between its
    corpus share and the uniform share (small sources upweighted, large
    ones damped), the total equals the budget (half the corpus), and no
    source exceeds its own size."""
    import pyarrow.parquet as pq

    from crawler_ray.pipelines.textops import temperature_sample_docs
    from tests.conftest import SF_DIR

    out = temperature_sample_docs(SF_DIR).to_pandas()
    docs = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["source"]
    ).to_pandas()
    n = docs.groupby("source").size()
    k = out.groupby("source").size().reindex(n.index, fill_value=0)
    total = int(n.sum())
    assert int(k.sum()) == total // 2
    assert (k <= n).all()
    # sampled fraction decreases with source size: the smallest source
    # keeps a strictly larger fraction of itself than the largest
    frac = (k / n).sort_index()
    small, big = n.idxmin(), n.idxmax()
    if n[small] < n[big]:
        assert frac[small] > frac[big]


# ---------------------------------------------------------------------------
# distributed classifier TRAINING (full-batch fixed-point logistic
# regression): bit-equality vs the single-node numpy reference, and real
# learning on a planted separable corpus


def _planted_classifier_corpus(tmp_path, n=800, seed=7):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    pos, neg = ["alpha", "beta", "gamma"], ["delta", "eps", "zeta"]
    common = ["the", "a", "of", "and"]
    texts, langs = [], []
    for i in range(n):
        y = i % 2
        toks = list(rng.choice(common, 20)) + list(
            rng.choice(pos if y else neg, 6)
        )
        rng.shuffle(toks)
        texts.append(" ".join(toks))
        langs.append("en" if y else "xx")
    d = tmp_path / "planted_clf"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts),
                "lang": pa.array(langs),
                "source": pa.array(["s"] * n),
                "n_chars": pa.array(
                    np.array([len(t) for t in texts], np.int64)
                ),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d), pd.Series(texts), np.array(langs) == "en"


def test_train_classifier_bit_equal_and_learns(ray_session, tmp_path):
    sf, texts, ys = _planted_classifier_corpus(tmp_path)
    got = textops.train_doc_classifier(sf)
    ref = train_doc_classifier_reference(texts, ys.astype(np.int64))
    assert (got["weight_scaled"].to_numpy() == ref).all()  # bit-identical

    # the planted corpus is linearly separable: trained weights classify
    # it perfectly, and more iterations strictly reduce the log loss
    ic = textops._hashed_counts(texts, 256)
    def loss_and_acc(w):
        m = np.array([float((w[i] * c).sum()) / (1 << 16) for i, c in ic])
        p = 1.0 / (1.0 + np.exp(-np.clip(m, -30, 30)))
        ll = -(ys * np.log(p + 1e-12) + (~ys) * np.log(1 - p + 1e-12)).mean()
        return ll, ((m > 0) == ys).mean()

    l10, acc10 = loss_and_acc(ref)
    assert acc10 == 1.0
    l5, _ = loss_and_acc(
        train_doc_classifier_reference(
            texts, ys.astype(np.int64), n_iters=5
        )
    )
    l0, _ = loss_and_acc(np.zeros(257, np.int64))
    assert l10 < l5 < l0


def test_train_classifier_bit_equal_on_testdata(ray_session):
    import pyarrow.parquet as pq

    got = textops.train_doc_classifier(SF_DIR, n_iters=3)
    df = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["text", "lang"]
    ).to_pandas()
    ref = train_doc_classifier_reference(
        df["text"], (df["lang"] == "en").to_numpy(np.int64), n_iters=3
    )
    assert (got["weight_scaled"].to_numpy() == ref).all()
    assert got["feature"].tolist() == list(range(257))


# ---------------------------------------------------------------------------
# BPE tokenizer training: distributed merge learning == single-node
# reference; classic toy corpus learns the known merge sequence


def test_bpe_reference_toy_corpus():
    toy = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = bpe_reference(toy, 4)
    # the canonical Sennrich example: es -> est -> est</w>, then lo
    assert merges == [
        ("e", "s", 9), ("es", "t", 9), ("est", "</w>", 9), ("l", "o", 7),
    ]


def test_bpe_distributed_equals_reference(ray_session):
    from collections import Counter

    import pyarrow.parquet as pq

    got = textops.bpe_learn_merges(SF_DIR, n_merges=8)
    df = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"]).to_pandas()
    wc: Counter = Counter()
    for t in df["text"]:
        wc.update(t.split())
    ref = bpe_reference(dict(wc), 8)
    assert list(zip(got["left"], got["right"], got["pair_count"])) == ref
    assert got["rank"].tolist() == list(range(len(ref)))


# ------------------------------------------------------------------- BM25


def test_bm25_known_ranking(ray_session, tmp_path):
    """Hand-checkable corpus: rare-term docs outrank common-term docs;
    shorter docs outrank longer ones at equal tf; exact oracle parity."""
    texts = {
        1: "zebra apple apple",              # rare term once, short
        2: "apple apple apple apple",        # common term only (df 4)
        3: "zebra zebra apple " + "pad " * 30,  # both terms, long
        4: "apple banana",                   # raises df(apple) above df(zebra)
        5: "zebra",                          # rare term, shortest
        6: "",                               # empty doc (counts toward N)
    }
    con = _write_docs(tmp_path, texts)
    got = textops.bm25_search(str(tmp_path), query="zebra apple", k=5).to_pandas()
    exp = con.execute(textops.bm25_search_sql(query="zebra apple", k=5)).df()
    _assert_same(got, exp)
    # the empty doc never appears
    assert 6 not in set(got["doc_id"])
    s = got.set_index("doc_id")["score_fp"]
    # one hit of the rarer term in the shortest doc beats four hits of the
    # common term (idf + length normalization)
    assert s[5] > s[2]
    # the long doc pays the dl penalty: despite matching BOTH terms it
    # scores below the short single-zebra doc
    assert s[3] < s[5]
    assert int(got.set_index("doc_id")["n_terms_matched"][3]) == 2


def test_bm25_absent_term_and_ties(ray_session, tmp_path):
    """A query term absent from the corpus contributes nothing (no div/0),
    and exact ties break on doc_id ascending, cross-checked vs the oracle."""
    texts = {i: "alpha beta" for i in range(1, 8)}  # 7 identical docs
    con = _write_docs(tmp_path, texts)
    got = textops.bm25_search(
        str(tmp_path), query="alpha nosuchterm", k=3
    ).to_pandas()
    exp = con.execute(
        textops.bm25_search_sql(query="alpha nosuchterm", k=3)
    ).df()
    _assert_same(got, exp)
    assert list(got.sort_values("doc_id")["doc_id"]) == [1, 2, 3]
    assert (got["n_terms_matched"] == 1).all()


# --------------------------------------------------------- edit-distance-1


def test_typo_pairs_planted_vs_quadratic_oracle(ray_session, tmp_path):
    """Typo-rich corpus: engine output equals the quadratic DuckDB
    levenshtein join exactly — pairs AND counts."""
    texts = {
        1: "kitten kitten sitten",      # substitution pair
        2: "kitten kittens",            # insertion at end
        3: "aaa aa",                    # insertion into an equal-char run
        4: "a b ab",                    # 1-char words: '' variant bucket
        5: "cat cut cot act",           # multiple subs; act is lev-2 from cat
        6: "banana bananas bananna",
    }
    con = _write_docs(tmp_path, texts)
    got = textops.typo_word_pairs(str(tmp_path))
    exp = con.execute(textops.TYPO_WORD_PAIRS_SQL).df()
    _assert_same(got, exp)
    pairs = set(zip(got["word_a"], got["word_b"]))
    assert ("kitten", "sitten") in pairs
    assert ("aa", "aaa") in pairs          # emitted once despite the run
    assert ("a", "b") in pairs             # both 1-char: substitution via ''
    assert ("act", "cat") not in pairs     # transposition is lev 2
    assert ("banana", "bananna") in pairs


def test_typo_pairs_empty_schema_stable(ray_session, tmp_path):
    """A clean corpus (no distance-1 pairs) must return ZERO rows with the
    full typed schema — the driver hashes schema as well as values."""
    con = _write_docs(tmp_path, {1: "alpha delta omega", 2: "alpha omega"})
    got = textops.typo_word_pairs(str(tmp_path))
    exp = con.execute(textops.TYPO_WORD_PAIRS_SQL).df()
    assert len(got) == 0
    _assert_same(got, exp)


def test_fuzzy_name_pairs_parallelism_invariant(ray_session, force_parts):
    """Same pair set at two read parallelisms (canonical-position dedup is
    global by construction, not an artifact of block boundaries)."""
    from crawler_ray.pipelines.textops import fuzzy_name_pairs

    force_parts(1)
    a = fuzzy_name_pairs("/root/testdata/sf0.001").to_pandas()
    force_parts(61)
    b = fuzzy_name_pairs("/root/testdata/sf0.001").to_pandas()
    ka = sorted(zip(a["custkey_a"], a["custkey_b"]))
    kb = sorted(zip(b["custkey_a"], b["custkey_b"]))
    assert ka == kb and len(ka) == len(set(ka)) and len(ka) > 0


def test_edit1_pairs_vs_lev_le1_property(ray_session, force_parts):
    """Property cross-check: _edit1_pairs (deletion-neighborhood proof, no
    string verify) vs the brute-force lev_le1 scalar over a deterministic
    adversarial vocabulary — equal-char runs, repeats, short words, empty
    neighbors, unicode."""
    import itertools

    import ray.data as rd

    from crawler_ray.pipelines.textops import _edit1_pairs
    from tests._refs import lev_le1

    rng = np.random.default_rng(7)
    alpha = list("abc")
    vocab = {"a", "b", "ab", "aa", "aaa", "aab", "aba", "abab", "中文", "中"}
    while len(vocab) < 120:
        vocab.add("".join(rng.choice(alpha, size=rng.integers(1, 6))))
    words = sorted(vocab)
    ds = rd.from_arrow(
        pa.table({"word": pa.array(words),
                  "n": pa.array(range(1, len(words) + 1), pa.int64())})
    )
    force_parts(7)
    got = _edit1_pairs(ds).to_pandas()
    got_pairs = set(zip(got["word_a"], got["word_b"]))
    exp_pairs = {
        (a, b) for a, b in itertools.combinations(words, 2) if lev_le1(a, b)
    }
    assert got_pairs == exp_pairs and len(exp_pairs) > 50
    # payload columns ride through intact and pairs are globally unique
    n_of = {w: i + 1 for i, w in enumerate(words)}
    assert len(got) == len(got_pairs)
    assert all(n_of[a] == na and n_of[b] == nb
               for a, b, na, nb in zip(got["word_a"], got["word_b"],
                                       got["n_a"], got["n_b"]))
