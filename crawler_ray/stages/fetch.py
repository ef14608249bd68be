"""Fetch stage — a ``map_batches`` callable (the crawl runs it inside the
fused task-mode stage, ``stages/process.py``).

Replaces the reference's per-thread fetch loop (``BaseSpider.TaskRun``,
``BaseSpider.cs:115-141``) and its ``IHttpClient`` session state
(``HZ.Crawler.Common/Net/HttpClient.cs:36-172``; session/nonce actor state =
ST3/ST4 in SURVEY.md §2.3). In this sandbox the network is replaced by the
deterministic synthetic site graph (a pure function of the pages table), but
the stage shape is the real one: a callable CLASS whose ``__init__`` builds
session state once per stage (once per worker process in the crawl), and
whose ``__call__`` maps a frontier batch to a fetched batch (zero-copy Arrow
in/out).

On a real cluster ``__init__`` would create an HTTP session and the page
lookup would be a network round-trip; here it loads the host-pruned pages
index. Retries: transient failures get Ray task retries for free; semantic
failures (HTTP 5xx) are retried ``max_attempts`` times with the attempt count
recorded, then dead-lettered (``BaseSpider.cs:235-247`` retry budget).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq


class SyntheticFetchStage:
    """``frontier batch -> fetched batch`` (adds status/payload/attempt).

    Parameters
    ----------
    pages_path: parquet file of the synthetic site (schemas.PAGES).
    politeness: optional list of PolitenessActor handles (sharded by host
        hash); the stage requests per-host token grants for bookkeeping —
        the per-round per-host quota in the frontier selection is the
        primary politeness budget (see pipelines/crawl.py).
    max_attempts: semantic-retry budget for 5xx pages.
    """

    def __init__(self, pages, politeness=None, max_attempts: int = 3,
                 synth_images: dict | None = None):
        if pages is None:
            t = None
        elif isinstance(pages, str):
            t = pq.read_table(pages, columns=["url", "payload", "status"])
        else:  # ray.ObjectRef of the pruned pages table — ray.put once on the
            # driver, shared via the object store (broadcast, not re-shipped
            # per batch)
            import ray

            t = ray.get(pages)
        self.index: dict[str, tuple[bytes, int]] = (
            {}
            if t is None
            else {
                u: (p, s)
                for u, p, s in zip(
                    t["url"].to_pylist(), t["payload"].to_pylist(), t["status"].to_pylist()
                )
            }
        )
        self.politeness = politeness or []
        self.max_attempts = max_attempts
        # on-demand image synthesis: the synthetic site is a pure function, so
        # image payloads can be regenerated from the URL alone instead of
        # broadcasting them — the index then only holds the (small) non-image
        # pages. This mirrors a real fetcher (bytes come from the network per
        # request, not from a pre-shipped corpus) and removes the only piece
        # of per-actor state that grows with the site.
        # dict keys: seed, img_sizes, robots_frac.
        self.synth = synth_images

    def _lookup(self, u: str) -> tuple[bytes, int]:
        hit = self.index.get(u)
        if hit is not None:
            return hit
        if self.synth is not None:
            from crawler_ray.sources.synthetic import (
                parse_image_url,
                synthesize_image_payload,
            )

            parsed = parse_image_url(u)
            if parsed is not None:
                host, cid = parsed
                payload = synthesize_image_payload(
                    self.synth["seed"], host, cid,
                    tuple(self.synth["img_sizes"]), self.synth["robots_frac"],
                )
                return payload, 200
        return b"", 404

    def _grant_tokens(self, hosts: list[str]) -> None:
        if not self.politeness:
            return
        from collections import Counter

        per_host = Counter(hosts)
        # ONE RPC per politeness shard per batch (not per host), FIRE AND
        # FORGET: the grant is token-bucket bookkeeping (the per-round
        # per-host quota is the enforced budget), so blocking the fetch
        # worker on the round-trip only serializes the pipeline — measured
        # as a large chunk of the idle gap at high worker counts
        # shard routing MUST be process-stable: Python's str hash is salted
        # per interpreter (PYTHONHASHSEED), so hash(h) would send the same
        # host to different shards from different Ray workers and split its
        # token bookkeeping — stable_hash_u64 keeps every worker on the
        # same shard for a given host.
        from crawler_ray.functions.hashing import stable_hash_u64

        by_shard: dict[int, dict[str, int]] = {}
        for h, n in per_host.items():
            by_shard.setdefault(
                stable_hash_u64(h) % len(self.politeness), {}
            )[h] = n
        for s, req in by_shard.items():
            self.politeness[s].grant_many.remote(req)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        self._grant_tokens(batch["host"].to_pylist())
        payloads, statuses, attempts = [], [], []
        for u in urls:
            payload, status = self._lookup(u)
            # deterministic synthetic site: a 5xx is persistent, so the retry
            # budget is exhausted; record the attempts actually spent.
            attempts.append(self.max_attempts if status >= 500 else 1)
            payloads.append(payload)
            statuses.append(status)
        return (
            batch.append_column("status", pa.array(statuses, pa.int32()))
            .append_column("payload", pa.array(payloads, pa.binary()))
            .append_column("attempt", pa.array(attempts, pa.int32()))
        )


# hard ceiling on an advertised Retry-After wait: a hostile/misconfigured
# server sending "inf" or 1e18 would otherwise debit the host's token
# bucket to -inf (politeness.py TokenBucket.debit), permanently zeroing
# every future grant for that host — one response must never disable a
# host's pacing bookkeeping forever
_MAX_RETRY_AFTER = 3600.0


def _parse_retry_after(value: str) -> float | None:
    """RFC 9110 §10.2.3 ``Retry-After``: delta-seconds form parsed to a
    float, clamped to [0, ``_MAX_RETRY_AFTER``]; the HTTP-date form, NaN,
    and garbage return None — honoring an absolute wall-clock date would
    break replay determinism, so date-form waits degrade to the plain
    retry budget."""
    import math

    v = value.strip()
    if not v:
        return None
    try:
        secs = float(v)
    except ValueError:
        return None
    if not math.isfinite(secs):
        return None
    return min(max(0.0, secs), _MAX_RETRY_AFTER)


class HttpFetchStage:
    """Real-HTTP ``frontier batch -> fetched batch`` stage behind the SAME
    interface as SyntheticFetchStage — the reference's session-holding
    client re-expressed as per-actor/per-worker state
    (``HZ.Crawler.Common/Net/HttpClient.cs:36-172``: one long-lived client
    with cookie container + default headers; ``Net/HttpResponse.cs:39-66``:
    redirect resolution against the request URL).

    - ONE ``requests.Session`` (cookie jar, keep-alive pool, default
      headers) per fetch THREAD, on a persistent per-actor thread pool —
      never per batch. Session is per thread, not per actor, because
      ``requests.Session`` is not thread-safe under concurrent Set-Cookie.
    - Redirects are NOT followed in-line: a 3xx response records the
      resolved absolute ``redirect_url`` (RFC 3986 join against the request
      URL, as ``HttpResponse.cs`` does) and the crawl driver turns it into
      a new frontier row — so redirect chains flow through the seen-set /
      robots / politeness machinery like any discovered link.
    - 5xx responses retry up to ``max_attempts`` (reference retry budget,
      ``BaseSpider.cs:235-247``); network errors map to status 599.
    - CONDITIONAL REVALIDATION: when the frontier batch carries ``etag`` /
      ``last_modified`` columns (stored validators from a previous crawl),
      the request sends ``If-None-Match`` / ``If-Modified-Since`` and a 304
      comes back as ``status=304`` with an empty payload — the recrawl
      pipeline treats it as "still fresh" without re-parsing or re-sinking.
      Response validators are always captured into output ``etag`` /
      ``last_modified`` columns so the next recrawl can revalidate. (The
      reference re-downloads unconditionally; this is north-rule new design
      for the recrawl/staleness loop its O1 priority implies.)
    - Per-batch fetches run on a small thread pool (I/O bound; the GIL is
      released in the socket layer), bounded by ``max_parallel``.
    - SIGNED POST (round-2 VERDICT #4, reference parity for S1–S3): every
      reference API fetch is a signed POST
      (``ShiweijiaProduct.cs:72-103,208-225``, ``ShiweijiaCategory.cs:38-60``,
      body assembly ``HZ.Crawler.Common/Net/HttpClient.cs:36-136``). The
      frontier keeps LOGICAL GET-style URLs (the seen-set / ordering key —
      ``/api/QueryProductByPage?Category=3&PageIndex=2``); when ``post``
      config is given, matching URLs are fetched as POSTs: query params
      become the request body (json / form / multipart via
      functions/multipart.py) and the endpoint URL gains the reference's
      signed query string (functions/signing.py, injected nonce + clock so
      replays are bit-identical).
    """

    def __init__(self, politeness=None, max_attempts: int = 3,
                 timeout: float = 10.0, headers: dict | None = None,
                 max_parallel: int = 8, post: dict | None = None,
                 retry_after_cap: float = 2.0):
        import threading

        self._headers = {
            "User-Agent": "crawler-ray/0.2 (+ray-data)", **(headers or {})
        }
        # one Session PER POOL THREAD (requests.Session is not thread-safe:
        # concurrent Set-Cookie processing mutates the shared CookieJar
        # without locking); the executor is PERSISTENT per actor so worker
        # threads — and their thread-local sessions with keep-alive pools
        # and cookie jars — survive across batches
        self._local = threading.local()
        self._pool = None  # created lazily (not pickled with the stage)
        self.politeness = politeness or []
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.max_parallel = max_parallel
        # 429/503 Retry-After handling: waits up to this many seconds are
        # honored IN-PLACE (sleep + retry inside the attempt budget); longer
        # waits surface the status so the row lands in dead letters for the
        # next round. Either way the host's politeness bucket is debited
        # (fire-and-forget), so subsequent batches slow down host-wide.
        self.retry_after_cap = retry_after_cap
        # post config: {"path_prefixes": ["/api/"], "mode": "json"|"form"|
        # "multipart", "secret": str, "nonce": str, "epoch_seconds": float}
        self.post_cfg = post

    @property
    def session(self):
        """This thread's ``requests.Session`` (created on first use)."""
        s = getattr(self._local, "session", None)
        if s is None:
            import requests

            s = requests.Session()
            s.headers.update(self._headers)
            self._local.session = s
        return s

    _grant_tokens = SyntheticFetchStage._grant_tokens

    def _throttle_host(self, url: str, seconds: float) -> None:
        """Fire-and-forget Retry-After debit on the host's politeness shard
        — the WHOLE actor pool slows down on this host, not just this
        worker's next request."""
        if not self.politeness:
            return
        from urllib.parse import urlsplit

        from crawler_ray.functions.hashing import stable_hash_u64

        host = urlsplit(url).hostname or ""
        # stable hash (not process-salted hash()) so the debit lands on the
        # SAME shard every other worker consults for this host.
        shard = self.politeness[stable_hash_u64(host) % len(self.politeness)]
        shard.throttle.remote(host, float(seconds))

    def _issue(self, url: str, extra_headers: dict | None = None):
        """One HTTP request for a logical frontier URL: GET, or the
        reference's signed POST when the post config matches the path.
        ``extra_headers`` carries per-request conditional validators."""
        cfg = self.post_cfg
        if cfg:
            from urllib.parse import parse_qsl, urlsplit

            s = urlsplit(url)
            prefixes = cfg.get("path_prefixes", ["/api/"])
            if any(s.path.startswith(p) for p in prefixes):
                import json as _json

                from crawler_ray.functions.multipart import (
                    TxtPart,
                    encode_multipart,
                )
                from crawler_ray.functions.signing import (
                    epoch_millis,
                    signed_url,
                )

                params = dict(parse_qsl(s.query))
                target = signed_url(
                    f"{s.scheme}://{s.netloc}{s.path}",
                    params,
                    cfg.get("nonce", "0"),
                    epoch_millis(cfg.get("epoch_seconds", 0.0)),
                    cfg.get("secret", ""),
                )
                mode = cfg.get("mode", "json")
                if mode == "multipart":
                    body, ctype = encode_multipart(
                        [TxtPart(k, v) for k, v in sorted(params.items())]
                    )
                elif mode == "form":
                    # the reference joins k={v.ToUrlEncode()} pairs itself
                    # (BaseSpider.cs:296): the KEY goes on the wire
                    # verbatim, only the VALUE is percent-encoded
                    # (EscapeDataString: space → %20) — not quote_plus
                    # form encoding of both halves
                    from crawler_ray.functions.urls import to_url_encode

                    body = "&".join(
                        f"{k}={to_url_encode(v)}"
                        for k, v in sorted(params.items())
                    ).encode()
                    ctype = "application/x-www-form-urlencoded"
                else:
                    body = _json.dumps(
                        dict(sorted(params.items())), ensure_ascii=False
                    ).encode("utf-8")
                    ctype = "application/json"
                return self.session.post(
                    target,
                    data=body,
                    headers={"Content-Type": ctype, **(extra_headers or {})},
                    timeout=self.timeout,
                    allow_redirects=False,
                )
        return self.session.get(
            url,
            timeout=self.timeout,
            allow_redirects=False,
            headers=extra_headers,
        )

    def _fetch_one(
        self, url: str, etag: str = "", last_modified: str = ""
    ) -> tuple[int, bytes, int, str, str, str]:
        """-> (status, payload, attempts_spent, redirect_url,
        response_etag, response_last_modified).

        ``etag`` / ``last_modified`` are STORED validators from a previous
        crawl of this URL; non-empty values make the request conditional
        (``If-None-Match`` / ``If-Modified-Since``) so an unchanged resource
        answers 304 with no body on the wire.
        """
        from crawler_ray.functions.urls import url_join

        cond_headers = {}
        if etag:
            cond_headers["If-None-Match"] = etag
        if last_modified:
            cond_headers["If-Modified-Since"] = last_modified

        attempt = 0
        while True:
            attempt += 1
            try:
                resp = self._issue(url, extra_headers=cond_headers or None)
                status = int(resp.status_code)
            except Exception:
                status = 599  # network-level failure (DNS/conn/timeout)
                resp = None
            r_etag = resp.headers.get("ETag", "") if resp is not None else ""
            r_lm = resp.headers.get("Last-Modified", "") if resp is not None else ""
            if status == 304:  # validators matched: resource unchanged
                return status, b"", attempt, "", r_etag or etag, r_lm or last_modified
            if status in (429, 503) and resp is not None:
                ra = _parse_retry_after(resp.headers.get("Retry-After", ""))
                if ra is not None:
                    self._throttle_host(url, ra)
                    if ra <= self.retry_after_cap and attempt < self.max_attempts:
                        import time as _time

                        _time.sleep(ra)
                        continue
                    return status, b"", attempt, "", "", ""
                # no Retry-After: fall through (503 retries like any 5xx,
                # 429 surfaces immediately)
                if status == 429:
                    return status, b"", attempt, "", "", ""
            if 300 <= status < 400 and resp is not None:
                loc = resp.headers.get("Location", "")
                target = url_join(url, loc) if loc else ""
                return status, b"", attempt, target, r_etag, r_lm
            if status < 500:
                body = resp.content if resp is not None else b""
                return status, body, attempt, "", r_etag, r_lm
            if attempt >= self.max_attempts:
                return status, b"", attempt, "", "", ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from concurrent.futures import ThreadPoolExecutor

        urls = batch["url"].to_pylist()
        self._grant_tokens(batch["host"].to_pylist())
        names = set(batch.column_names)
        etags = (
            [v or "" for v in batch["etag"].to_pylist()]
            if "etag" in names
            else [""] * len(urls)
        )
        lms = (
            [v or "" for v in batch["last_modified"].to_pylist()]
            if "last_modified" in names
            else [""] * len(urls)
        )
        args = list(zip(urls, etags, lms))
        if len(urls) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_parallel)
            results = list(self._pool.map(lambda a: self._fetch_one(*a), args))
        else:
            results = [self._fetch_one(*a) for a in args]
        out = batch
        for col in ("etag", "last_modified"):  # replaced by response values
            if col in names:
                out = out.drop_columns([col])
        return (
            out.append_column(
                "status", pa.array([r[0] for r in results], pa.int32())
            )
            .append_column("payload", pa.array([r[1] for r in results], pa.binary()))
            .append_column("attempt", pa.array([r[2] for r in results], pa.int32()))
            .append_column(
                "redirect_url", pa.array([r[3] for r in results], pa.string())
            )
            .append_column("etag", pa.array([r[4] for r in results], pa.string()))
            .append_column(
                "last_modified", pa.array([r[5] for r in results], pa.string())
            )
        )

