"""Conditional-GET revalidation sweep (RFC 9110 validators) over a live
local ``http.server``:

- a manifest row whose stored ETag still matches → 304 on the wire, verdict
  ``fresh``, ZERO body bytes shipped;
- a row whose resource changed → 200 with the new body + ROTATED validators
  (new ETag / Last-Modified captured for the next sweep);
- a deleted resource → 404 → verdict ``gone``;
- a row with NO stored validators (first crawl) → unconditional 200.

The server also asserts the conditional headers actually hit the wire
(``If-None-Match`` seen for validator-carrying rows only).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pyarrow as pa
import pytest
import ray.data as rd

from crawler_ray.functions.hashing import md5_hex
from crawler_ray.pipelines.revalidate import freshness_summary, revalidate_manifest

BODY_B_V2 = b"page B version 2: changed since the stored validator"
BODY_D = b"page D first-crawl body"
LM_B = "Tue, 18 Aug 2026 01:02:03 GMT"


@pytest.fixture(scope="module")
def reval_site():
    state = {"hits": [], "base": ""}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            state["hits"].append(
                (self.path, self.headers.get("If-None-Match"),
                 self.headers.get("If-Modified-Since"))
            )

            def send(code, body=b"", etag=None, lm=None):
                self.send_response(code)
                if etag:
                    self.send_header("ETag", etag)
                if lm:
                    self.send_header("Last-Modified", lm)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            inm = self.headers.get("If-None-Match")
            if self.path == "/a":  # unchanged: stored etag still current
                if inm == '"etag-a-v1"':
                    send(304, etag='"etag-a-v1"')
                else:
                    send(200, b"page A body", etag='"etag-a-v1"')
            elif self.path == "/b":  # changed: stored etag is stale
                if inm == '"etag-b-v2"':
                    send(304, etag='"etag-b-v2"')
                else:
                    send(200, BODY_B_V2, etag='"etag-b-v2"', lm=LM_B)
            elif self.path == "/c":  # deleted since last crawl
                send(404)
            elif self.path == "/d":  # never crawled: no stored validators
                if inm == '"etag-d-v1"':
                    send(304, etag='"etag-d-v1"')
                else:
                    send(200, BODY_D, etag='"etag-d-v1"')
            else:
                send(404)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    state["base"] = f"http://127.0.0.1:{server.server_address[1]}"
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    yield state
    server.shutdown()


def test_revalidation_verdicts_and_validator_rotation(ray_session, reval_site):
    base = reval_site["base"]
    manifest = rd.from_arrow(
        pa.table(
            {
                "url": [f"{base}/a", f"{base}/b", f"{base}/c", f"{base}/d"],
                "etag": ['"etag-a-v1"', '"etag-b-v1"', '"etag-c-v1"', ""],
                "last_modified": ["", "Mon, 01 Jan 2024 00:00:00 GMT", "", ""],
            }
        )
    )
    rows = {
        r["url"].rsplit("/", 1)[1]: r
        for r in revalidate_manifest(
            manifest, http_opts={"timeout": 5.0}, concurrency=1
        ).take_all()
    }

    # /a: validators matched -> 304 fresh, no body bytes, validator kept
    assert rows["a"]["verdict"] == "fresh" and rows["a"]["status"] == 304
    assert rows["a"]["content_len"] == 0 and rows["a"]["content_md5"] == ""
    assert rows["a"]["etag"] == '"etag-a-v1"'

    # /b: changed -> 200, new body shipped + validators ROTATED to v2
    assert rows["b"]["verdict"] == "changed" and rows["b"]["status"] == 200
    assert rows["b"]["content_md5"] == md5_hex(BODY_B_V2)
    assert rows["b"]["content_len"] == len(BODY_B_V2)
    assert rows["b"]["etag"] == '"etag-b-v2"'
    assert rows["b"]["last_modified"] == LM_B

    # /c: deleted -> gone
    assert rows["c"]["verdict"] == "gone" and rows["c"]["status"] == 404

    # /d: first crawl (no stored validators) -> unconditional 200 + captured
    # validators for the NEXT sweep
    assert rows["d"]["verdict"] == "changed"
    assert rows["d"]["content_md5"] == md5_hex(BODY_D)
    assert rows["d"]["etag"] == '"etag-d-v1"'

    # the conditional headers actually hit the wire — and ONLY for rows
    # that carried validators
    by_path = {p: (inm, ims) for p, inm, ims in reval_site["hits"]}
    assert by_path["/a"][0] == '"etag-a-v1"'
    assert by_path["/b"][0] == '"etag-b-v1"'
    assert by_path["/b"][1] == "Mon, 01 Jan 2024 00:00:00 GMT"
    assert by_path["/d"] == (None, None)


def test_revalidation_round_trip_converges_to_all_fresh(ray_session, reval_site):
    """Sweep 2 feeds sweep 1's rotated validators back in: every surviving
    URL must now answer 304 (the steady-state recrawl ships zero bytes)."""
    base = reval_site["base"]
    first = revalidate_manifest(
        rd.from_arrow(
            pa.table(
                {
                    "url": [f"{base}/a", f"{base}/b", f"{base}/d"],
                    "etag": ['"etag-a-v1"', '"etag-b-v1"', ""],
                    "last_modified": ["", "", ""],
                }
            )
        ),
        http_opts={"timeout": 5.0},
        concurrency=1,
    ).take_all()
    manifest2 = rd.from_arrow(
        pa.table(
            {
                "url": [r["url"] for r in first],
                "etag": [r["etag"] for r in first],
                "last_modified": [r["last_modified"] for r in first],
            }
        )
    )
    second = revalidate_manifest(
        manifest2, http_opts={"timeout": 5.0}, concurrency=1
    )
    summary = freshness_summary(second).to_pylist()
    assert summary == [
        {"verdict": "fresh", "n_urls": 3, "bytes_on_wire": 0}
    ]


def test_cli_revalidate_sweep(ray_session, reval_site, tmp_path, capsys):
    """The revalidate CLI subcommand drives the sweep end-to-end: manifest
    parquet in, verdict parquet + JSON summary out."""
    import json

    import pyarrow.parquet as pq

    from crawler_ray.cli import main

    base = reval_site["base"]
    manifest = tmp_path / "manifest.parquet"
    pq.write_table(
        pa.table(
            {
                "url": [f"{base}/a", f"{base}/c"],
                "etag": ['"etag-a-v1"', ""],
                "last_modified": ["", ""],
            }
        ),
        str(manifest),
    )
    dest = tmp_path / "verdicts"
    assert main(["revalidate", "--manifest", str(manifest),
                 "--dest", str(dest)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    by_verdict = {r["verdict"]: r for r in out["summary"]}
    assert by_verdict["fresh"]["n_urls"] == 1
    assert by_verdict["fresh"]["bytes_on_wire"] == 0
    assert by_verdict["gone"]["n_urls"] == 1
    import ray.data as _rd

    written = _rd.read_parquet(str(dest)).to_pandas()
    assert sorted(written["verdict"]) == ["fresh", "gone"]


def test_manifest_from_crawl_latest_round_wins(ray_session, tmp_path):
    """A url in the pages sink twice takes the validators of its LATEST
    round. The round-3 row is written before the round-1 row, in one
    fragment, so a rule that ignored ``round`` and kept the last row read
    would pick the stale round-1 etag."""
    from crawler_ray.pipelines.revalidate import manifest_from_crawl
    from crawler_ray.sources.io import write_part
    from crawler_ray.stages.process import SINKS
    from crawler_ray.vendor import minilance

    schema = SINKS["tables/pages"]
    rows = [("http://h/a", 3, '"a-v3"'), ("http://h/b", 1, '"b-v1"'),
            ("http://h/a", 1, '"a-v1"')]
    pages = pa.Table.from_pylist(
        [{"url": u, "host": "h", "kind": "product_detail", "seed_id": "s",
          "status": 200, "etag": e, "last_modified": "", "round": r}
         for u, r, e in rows],
        schema=schema,
    )
    uri = str(tmp_path / "out" / "tables" / "pages")
    minilance.commit(uri, schema, [write_part(pages, uri)], mode="overwrite")
    got = {r["url"]: r["etag"]
           for r in manifest_from_crawl(str(tmp_path / "out")).take_all()}
    assert got == {"http://h/a": '"a-v3"', "http://h/b": '"b-v1"'}
