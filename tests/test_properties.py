"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crawler_ray.functions.codecs import decode_image, encode_image, psnr, sniff_fmt
from crawler_ray.functions.hashing import simhash64
from crawler_ray.functions.urls import normalize_url, url_join
from crawler_ray.state.filters import CuckooFilter, keys_to_u64
from crawler_ray.state.seen import _SeenShardImpl

url_path = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="/-._"),
    max_size=30,
)


@given(
    host=st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True),
    path=url_path,
    q=st.lists(
        st.tuples(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                  st.from_regex(r"[a-z0-9]{0,6}", fullmatch=True)),
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_normalize_url_idempotent(host, path, q):
    qs = "&".join(f"{k}={v}" for k, v in q)
    url = f"https://{host.upper()}/{path}" + (f"?{qs}" if qs else "")
    n1 = normalize_url(url)
    assert normalize_url(n1) == n1  # idempotent
    assert n1.startswith("https://")
    # query params sorted
    if "?" in n1:
        params = n1.split("?", 1)[1].split("&")
        assert params == sorted(params)


@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=500, unique=True))
@settings(max_examples=50, deadline=None)
def test_cuckoo_never_false_negative(keys):
    f = CuckooFilter(capacity=4 * len(keys) + 64)
    h = keys_to_u64(keys)
    f.add(h)
    assert f.contains(h).all()


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_seen_shard_first_occurrence_semantics(keys):
    s = _SeenShardImpl(capacity=1 << 12)
    mask = s.check_and_insert(keys_to_u64(keys))
    # a key is "seen" iff an equal key occurred earlier in the batch
    h = keys_to_u64(keys)
    expected, seen_set = [], set()
    for x in h:
        expected.append(int(x) in seen_set)
        seen_set.add(int(x))
    assert list(mask) == expected
    # and everything is seen afterwards
    assert s.check_and_insert(keys_to_u64(keys)).all()


@given(
    w=st.integers(min_value=4, max_value=48),
    h=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31),
    fmt=st.sampled_from(["png", "jpeg", "webp"]),
)
@settings(max_examples=40, deadline=None)
def test_codec_roundtrip_properties(w, h, seed, fmt):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    data = encode_image(px, fmt)
    assert sniff_fmt(data) == fmt
    out = decode_image(data, fmt)
    assert out.shape == px.shape
    if fmt == "png":
        assert np.array_equal(out, px)
    else:
        assert psnr(px, out) >= 40.0
    # deterministic encode
    assert encode_image(px, fmt) == data


@given(st.lists(st.from_regex(r"[a-z]{1,8}", fullmatch=True), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_simhash_range_and_determinism(tokens):
    v = simhash64(tokens)
    assert -(1 << 63) <= v < (1 << 63)
    assert simhash64(list(tokens)) == v
    # permutation-invariant (bag semantics)
    assert simhash64(list(reversed(tokens))) == v


@given(base=st.from_regex(r"https://[a-z]{3,8}\.com/[a-z]{0,6}", fullmatch=True),
       link=st.from_regex(r"([a-z]{1,8}/){0,2}[a-z]{1,8}\.png", fullmatch=True))
@settings(max_examples=100, deadline=None)
def test_url_join_absolute(base, link):
    out = url_join(base, link)
    assert out.startswith("https://")
    assert out.endswith(".png")


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 99), st.floats(0, 10)),
        min_size=1, max_size=60,
    ),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_select_per_host_matches_brute_force(rows, quota):
    """The selection round_fn runs (``select_per_host``) picks, per host,
    the ``quota`` rows a brute-force rank by (priority desc, url asc)
    picks, whatever the frontier's row order; every other row is backlog,
    and both come back in (host, priority desc, url) order."""
    import pandas as pd

    from crawler_ray.stages.process import select_per_host

    df = pd.DataFrame(
        {
            "host": [f"h{h}.example" for h, _, _ in rows],
            "url": [f"https://h{h}.example/p{p}" for h, p, _ in rows],
            "priority": [pr for _, _, pr in rows],
        }
    ).drop_duplicates("url")
    # brute force: rank each host's rows one comparison at a time
    recs = list(df.itertuples(index=False))
    want = set()
    for r in recs:
        rank = sum(
            1 for o in recs
            if o.host == r.host
            and (o.priority > r.priority
                 or (o.priority == r.priority and o.url < r.url))
        )
        if rank < quota:
            want.add(r.url)
    for frame in (df, df.iloc[::-1]):  # arrival order must not matter
        selected, backlog = select_per_host(frame, quota)
        assert set(selected["url"]) == want
        assert set(backlog["url"]) == set(df["url"]) - want
        for part in (selected, backlog):
            keys = list(zip(part["host"], -part["priority"], part["url"]))
            assert keys == sorted(keys)


@given(
    words=st.lists(st.from_regex(r"[a-z]{1,6}", fullmatch=True), max_size=60),
    size=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_chunkstage_nonoverlapping_reconstructs(words, size):
    import pandas as pd

    from crawler_ray.pipelines.textops import ChunkStage

    df = pd.DataFrame({"doc_id": [1], "text": [" ".join(words)]})
    out = ChunkStage(size, size)(df)  # stride == size: a partition
    if not words:
        assert len(out) == 0
        return
    assert len(out) == -(-len(words) // size)  # ceil
    assert list(out["chunk_id"]) == list(range(len(out)))
    # concatenating the chunks reconstructs the token stream exactly
    assert " ".join(out["chunk"]) == " ".join(words)
    assert int(out["n_tokens"].sum()) == len(words)
    assert (out["n_tokens"] == out["chunk"].str.split().str.len()).all()


@given(
    texts=st.lists(
        st.lists(
            st.one_of(
                st.from_regex(r"[a-z]{1,8}", fullmatch=True),
                st.just("bob@corp.io"),
                st.just("415-555-0199"),
                st.just("10.0.0.1"),
            ),
            max_size=12,
        ).map(" ".join),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_pii_scrub_idempotent_and_counted(texts):
    import pandas as pd

    from crawler_ray.pipelines.textops import PiiScrubStage

    stage = PiiScrubStage()
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    once = stage(df)
    # every count equals the number of placeholders inserted
    assert (once["text_clean"].str.count("<EMAIL>") == once["n_emails"]).all()
    assert (once["text_clean"].str.count("<PHONE>") == once["n_phones"]).all()
    assert (once["text_clean"].str.count("<IP>") == once["n_ipv4"]).all()
    # scrubbing a scrubbed corpus is a no-op with zero counts
    twice = stage(
        pd.DataFrame({"doc_id": once["doc_id"], "text": once["text_clean"]})
    )
    assert (twice["text_clean"] == once["text_clean"].to_numpy()).all()
    assert int(twice[["n_emails", "n_phones", "n_ipv4"]].to_numpy().sum()) == 0
