"""fmt / MIME helpers.

The reference ships a 300-entry ext→MIME map (``HZ.Crawler.Common/FileHelper.cs:606-936``)
used for multipart upload content-types; here a compact dict covering the
formats the image pipeline produces, plus the ``fmt`` normalizer derived from
the reference's ext extraction (``HZ.Crawler.DataSpider/BaseSpider.cs:230-234``:
ext = URL tail after '.', stripped of a '-suffix').
"""

from __future__ import annotations

_MIME = {
    "png": "image/png",
    "jpg": "image/jpeg",
    "jpeg": "image/jpeg",
    "webp": "image/webp",
    "gif": "image/gif",
    "bmp": "image/bmp",
    "svg": "image/svg+xml",
    "json": "application/json",
    "txt": "text/plain",
    "html": "text/html",
    "bin": "application/octet-stream",
}

_FMT_ALIAS = {"jpg": "jpeg"}


def ext_to_mime(ext: str) -> str:
    return _MIME.get(ext.lower().lstrip("."), "application/octet-stream")


def normalize_fmt(url_or_ext: str) -> str:
    """Derive the canonical ``fmt`` column value from a URL or extension:
    take text after the last '.', strip any '-suffix' (reference semantics),
    lowercase, map aliases (jpg→jpeg)."""
    tail = url_or_ext.rsplit(".", 1)[-1]
    tail = tail.split("-", 1)[0].split("?", 1)[0].lower()
    return _FMT_ALIAS.get(tail, tail)
