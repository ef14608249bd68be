"""Unit tests for the scalar function library (SURVEY.md §5 item 1)."""

import numpy as np
import pandas as pd
import pytest

from crawler_ray.functions.codecs import (
    decode_image,
    encode_image,
    psnr,
    sniff_fmt,
)
from crawler_ray.functions.hashing import (
    md5_hex,
    md5_u64_batch,
    phash64,
    rolling_fingerprint,
    sha1_hex,
    simhash64,
)
from crawler_ray.functions.mime import ext_to_mime, normalize_fmt
from crawler_ray.functions.text import (
    bpe_token_count,
    char_ngrams,
    detect_lang,
    jaccard,
    quality_score,
    token_count,
)
from crawler_ray.functions.urls import (
    get_url_query_value,
    is_email,
    is_link,
    is_phone_num,
    normalize_url,
    to_url_encode,
    url_host,
    url_join,
)
from tests._refs import hamming64, hamming64_batch


def test_md5_sha1_known_vectors():
    # standard test vectors (public)
    assert md5_hex("") == "d41d8cd98f00b204e9800998ecf8427e"
    assert md5_hex("abc") == "900150983cd24fb0d6963f7d28e17f72"
    assert sha1_hex("abc") == "a9993e364706816aba3e25717850c26c9cd0d89d"
    assert md5_hex(b"abc") == md5_hex("abc")


def test_md5_u64_stable():
    a = md5_u64_batch(["x", "y", "x"])
    assert a[0] == a[2] and a[0] != a[1]
    assert a.dtype == np.uint64


def test_url_normalize():
    assert normalize_url("HTTP://Example.COM:80/a?b=2&a=1#frag") == (
        "http://example.com/a?a=1&b=2"
    )
    assert normalize_url("https://example.com") == "https://example.com/"
    assert normalize_url("https://example.com:8443/x") == "https://example.com:8443/x"
    # idempotent
    u = "https://shop0.example.com/api/QueryProductByPage?Category=1&PageIndex=2"
    assert normalize_url(normalize_url(u)) == normalize_url(u)


def test_url_join_and_host():
    assert url_join("https://a.com/x/y", "../z") == "https://a.com/z"
    assert url_join("https://a.com/x/", "img.png") == "https://a.com/x/img.png"
    assert url_join("https://a.com/x", "https://b.com/y") == "https://b.com/y"
    assert url_host("https://A.com/x") == "a.com"


def test_query_value_and_predicates():
    assert get_url_query_value("https://a.com/?k=v&x=1", "x") == "1"
    assert get_url_query_value("https://a.com/", "x") == ""
    assert is_link("https://a.com/x")
    assert not is_link("ftp://a.com")
    assert is_email("a.b+c@d-e.com")
    assert not is_email("a@b")
    assert is_phone_num("13912345678")
    assert not is_phone_num("12345")
    assert to_url_encode("a b/中") == "a%20b%2F%E4%B8%AD"


def test_mime():
    assert ext_to_mime("png") == "image/png"
    assert ext_to_mime(".JPG") == "image/jpeg"
    assert ext_to_mime("weird") == "application/octet-stream"
    assert normalize_fmt("https://h/img/x.jpg") == "jpeg"
    assert normalize_fmt("x.png-600x600") == "png"


@pytest.mark.parametrize("fmt", ["png", "jpeg", "webp"])
def test_codec_roundtrip(fmt):
    rng = np.random.default_rng(1)
    px = rng.integers(0, 256, (24, 40, 3)).astype(np.uint8)
    data = encode_image(px, fmt)
    assert sniff_fmt(data) == fmt
    out = decode_image(data, fmt)
    assert out.shape == px.shape
    if fmt == "png":
        assert np.array_equal(out, px)  # lossless
    else:
        assert psnr(px, out) >= 40.0  # input_hint PSNR invariant


def test_codec_deterministic():
    px = np.zeros((8, 8, 3), np.uint8)
    assert encode_image(px, "png") == encode_image(px, "png")
    assert encode_image(px, "jpeg") == encode_image(px, "jpeg")


def test_phash_locality():
    rng = np.random.default_rng(2)
    px = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
    h1 = phash64(px)
    # small perturbation → small hamming distance; different image → large
    px2 = np.clip(px.astype(np.int16) + rng.integers(-5, 6, px.shape), 0, 255).astype(
        np.uint8
    )
    other = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
    assert hamming64(h1, phash64(px2)) <= 12
    assert hamming64(h1, phash64(other)) > 12
    assert -(1 << 63) <= h1 < (1 << 63)  # int64 range


def test_hamming_batch():
    a = np.array([0, 0xFF], dtype=np.int64)
    b = np.array([0, 0], dtype=np.int64)
    assert list(hamming64_batch(a, b)) == [0, 8]


def test_simhash_similarity():
    a = simhash64(["the", "quick", "brown", "fox", "jumps"])
    b = simhash64(["the", "quick", "brown", "fox", "runs"])
    c = simhash64(["completely", "different", "words", "here", "now"])
    assert hamming64(a, b) < hamming64(a, c)


def test_rolling_fingerprint():
    fp = rolling_fingerprint("hello world, this is a document")
    assert fp == rolling_fingerprint("hello world, this is a document")
    assert len(fp) <= 4


def test_text_kernels():
    s = pd.Series(["the cat and the dog", "x!"])
    assert list(token_count(s)) == [5, 1]
    assert bpe_token_count(pd.Series(["ab12!"]))[0] == 3
    q = quality_score(s)
    assert q[0] > q[1]  # prose beats punctuation
    assert detect_lang("the cat and the dog is in the house") == "en"
    assert detect_lang("el perro y la casa de los gatos") == "es"
    assert detect_lang("") == "unk"
    assert char_ngrams("abcd", 3) == {"abc", "bcd"}
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)


def test_sniff_text_encoding_boms():
    from crawler_ray.functions.codecs import decode_text, sniff_text_encoding

    s = '{"IsSuccess": true, "名": "凤凰"}'
    cases = {
        "utf-8-sig": b"\xef\xbb\xbf" + s.encode("utf-8"),
        "utf-16-le": s.encode("utf-16"),  # python prepends the LE BOM
        "utf-16-be": b"\xfe\xff" + s.encode("utf-16-be"),
        "utf-32-le": b"\xff\xfe\x00\x00" + s.encode("utf-32-le"),
        "utf-8": s.encode("utf-8"),
    }
    for enc, data in cases.items():
        assert sniff_text_encoding(data) == enc, enc
        assert decode_text(data) == s, enc


def test_sniff_text_encoding_bomless_utf16_and_gbk():
    from crawler_ray.functions.codecs import decode_text, sniff_text_encoding

    ascii_json = '{"IsSuccess": true, "k": 1}'
    assert sniff_text_encoding(ascii_json.encode("utf-16-le")) == "utf-16-le"
    assert decode_text(ascii_json.encode("utf-16-le")) == ascii_json
    assert sniff_text_encoding(ascii_json.encode("utf-16-be")) == "utf-16-be"
    assert decode_text(ascii_json.encode("utf-16-be")) == ascii_json
    # legacy CN encoding (not valid utf-8) falls back through gb18030
    gbk = "凤凰牌".encode("gb18030")
    assert decode_text(gbk) == "凤凰牌"


def test_multipart_encoder_reference_layout():
    """S12 (MultiParts.cs): part framing, file content-type rule, terminator —
    and round-trips through Python's own multipart parser."""
    from crawler_ray.functions.multipart import (
        DEFAULT_BOUNDARY,
        FilePart,
        TxtPart,
        encode_multipart,
    )

    body, ctype = encode_multipart([
        TxtPart("ParentId", "42"),
        FilePart("file", "a.png", b"\x89PNG\x00binary"),
        FilePart("notes", "readme.txt", b"hello"),
    ])
    assert ctype == f"multipart/form-data; boundary={DEFAULT_BOUNDARY}"
    assert body.startswith(f"--{DEFAULT_BOUNDARY}\r\n".encode())
    assert body.endswith(f"--{DEFAULT_BOUNDARY}--\r\n".encode())
    assert b'Content-Disposition: form-data; name="ParentId"\r\n\r\n42' in body
    assert b'filename="a.png"\r\nContent-Type: application/octet-stream' in body
    assert b'filename="readme.txt"\r\nContent-Type: text/plain' in body

    # round-trip through the stdlib parser (real-consumer check)
    from email.parser import BytesParser
    from email.policy import HTTP

    msg = BytesParser(policy=HTTP).parsebytes(
        b"Content-Type: " + ctype.encode() + b"\r\n\r\n" + body
    )
    parts = list(msg.iter_parts())
    assert len(parts) == 3
    assert parts[0].get_payload(decode=True) == b"42"
    assert parts[1].get_payload(decode=True) == b"\x89PNG\x00binary"
    assert parts[2].get_content_type() == "text/plain"


def test_strip_tracking_params():
    from crawler_ray.functions.urls import strip_tracking_params

    u = ("https://h/p?id=3&utm_source=x&gclid=abc&q=term&UTM_Medium=y"
         "&fbclid=z&keep=")
    assert strip_tracking_params(u) == "https://h/p?id=3&q=term&keep="
    assert strip_tracking_params("https://h/p") == "https://h/p"
    assert strip_tracking_params("https://h/p?utm_a=1") == "https://h/p"


def test_to_url_encode_known_vectors():
    # Uri.EscapeDataString (.NET Framework) semantics
    # (ToUrlEncode, StringExtension.cs:44-56)
    from crawler_ray.functions.urls import to_url_encode

    assert to_url_encode("a b") == "a%20b"          # space → %20, not '+'
    assert to_url_encode("-_.~!*'()") == "-_.~!*'()"  # all kept
    assert to_url_encode("中") == "%E4%B8%AD"
    assert to_url_encode("k=v&x") == "k%3Dv%26x"
    assert to_url_encode("/") == "%2F"
