"""Crawl-corpus interchange format: (minimal) WARC.

WARC (ISO 28500) is the archival format crawls are published in (Common
Crawl et al.). ``read_warc`` parses uncompressed WARC files into one row
per record — header fields promoted to columns, payload as ``binary`` —
via ``read_binary_files`` + a vectorized-enough per-file splitter inside
``flat_map``-style ``map_batches``. Record framing follows the public
spec: a ``WARC/1.x`` version line, CRLF header block, ``Content-Length``
octet-framed body, blank-line record separator. Gzip members (the
``.warc.gz`` transport) are handled per-file via stdlib gzip when the
magic matches. This is a SOURCE (the reference crawls a live API; WARC
ingestion is the batch-replay twin a 100 TB pipeline needs); writing WARC
is out of scope.
"""

from __future__ import annotations

import gzip
import io

import pyarrow as pa
import ray.data as rd

_WARC_COLUMNS = ["warc_type", "warc_target_uri", "warc_date", "content_type"]


def parse_warc_records(data: bytes) -> list[dict]:
    """Split one (possibly gzipped) WARC file into record dicts:
    the four standard header fields + ``payload`` bytes."""
    if data[:2] == b"\x1f\x8b":  # .warc.gz transport
        data = gzip.decompress(data)
    out: list[dict] = []
    buf = io.BytesIO(data)
    while True:
        # skip record separators / leading blank lines
        line = buf.readline()
        if not line:
            break
        if not line.strip():
            continue
        if not line.startswith(b"WARC/"):
            raise ValueError(f"not a WARC record boundary: {line[:40]!r}")
        headers: dict[str, str] = {}
        while True:
            h = buf.readline()
            if not h.strip():
                break
            k, _, v = h.decode("utf-8", "replace").partition(":")
            headers[k.strip().lower()] = v.strip()
        length = int(headers.get("content-length", "0"))
        payload = buf.read(length)
        out.append(
            {
                "warc_type": headers.get("warc-type", ""),
                "warc_target_uri": headers.get("warc-target-uri", ""),
                "warc_date": headers.get("warc-date", ""),
                "content_type": headers.get("content-type", ""),
                "payload": payload,
            }
        )
    return out


def read_warc(path: str, record_types: tuple[str, ...] = ("response",)) -> rd.Dataset:
    """WARC file(s) → Dataset of records (header columns + binary payload),
    filtered to ``record_types`` (default: response records only, the page
    bodies a replay crawl ingests). One task per file — WARC's framing is
    sequential per file, so the file is the parallelism unit, exactly like
    the public Common Crawl processing pattern (thousands of ~1 GiB WARCs)."""

    def split(t: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for data in t["bytes"].to_pylist():
            rows.extend(
                r for r in parse_warc_records(data)
                if r["warc_type"] in record_types
            )
        return pa.table(
            {
                **{c: pa.array([r[c] for r in rows], pa.string())
                   for c in _WARC_COLUMNS},
                "payload": pa.array([r["payload"] for r in rows], pa.binary()),
            }
        )

    return rd.read_binary_files(path).map_batches(split, batch_format="pyarrow")
