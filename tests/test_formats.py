"""WARC corpus-interchange source (`sources/formats.py`)."""

import gzip

import pyarrow as pa

from crawler_ray.sources.formats import parse_warc_records, read_warc


def _warc_bytes(records) -> bytes:
    out = b""
    for r in records:
        body = r["payload"]
        head = (
            f"WARC/1.0\r\n"
            f"WARC-Type: {r['type']}\r\n"
            f"WARC-Target-URI: {r['uri']}\r\n"
            f"WARC-Date: 2026-08-17T00:00:00Z\r\n"
            f"Content-Type: {r.get('ctype', 'text/html')}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode()
        out += head + body + b"\r\n\r\n"
    return out


RECORDS = [
    {"type": "warcinfo", "uri": "", "payload": b"software: test\r\n"},
    {"type": "request", "uri": "https://a.example/x", "payload": b"GET /x"},
    {"type": "response", "uri": "https://a.example/x",
     "payload": b"<html>page x</html>"},
    {"type": "response", "uri": "https://b.example/y",
     "payload": bytes(range(256))},  # binary payload survives intact
]


def test_parse_warc_records_plain_and_gzip():
    raw = _warc_bytes(RECORDS)
    for data in (raw, gzip.compress(raw)):
        recs = parse_warc_records(data)
        assert [r["warc_type"] for r in recs] == [
            "warcinfo", "request", "response", "response",
        ]
        assert recs[2]["payload"] == b"<html>page x</html>"
        assert recs[3]["payload"] == bytes(range(256))
        assert recs[3]["warc_target_uri"] == "https://b.example/y"


def test_read_warc_response_filter(ray_session, tmp_path):
    (tmp_path / "a.warc").write_bytes(_warc_bytes(RECORDS))
    (tmp_path / "b.warc.gz").write_bytes(gzip.compress(_warc_bytes(RECORDS)))
    df = read_warc(str(tmp_path)).to_pandas()
    # both files parsed; only response records kept
    assert len(df) == 4 and set(df["warc_type"]) == {"response"}
    assert sorted(df["warc_target_uri"].unique()) == [
        "https://a.example/x", "https://b.example/y",
    ]
    assert bytes(range(256)) in set(df["payload"])


def test_warc_to_documents_pipeline(ray_session, tmp_path):
    """WARC replay → documents-shaped table (the batch-ingest twin of the
    live crawl): payload decodes to text, rows land parquet-ready."""
    (tmp_path / "crawl.warc").write_bytes(_warc_bytes(RECORDS))
    docs = (
        read_warc(str(tmp_path / "crawl.warc"))
        .map_batches(
            lambda t: pa.table(
                {
                    "url": t["warc_target_uri"],
                    # tolerant decode: crawl payloads include broken bytes
                    "text": pa.array(
                        [b.decode("utf-8", "replace")
                         for b in t["payload"].to_pylist()],
                        pa.string(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    df = docs.to_pandas()
    assert list(df[df["url"] == "https://a.example/x"]["text"]) == [
        "<html>page x</html>"
    ]
