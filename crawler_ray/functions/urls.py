"""URL scalar functions (SURVEY.md §2.8).

Covers the reference's string/URL helpers re-expressed on stdlib ``urllib``:

- ``get_url_query_value`` — ``StringExtension.GetUrlKeyValue``
  (``HZ.Crawler.Common/Extensions/StringExtension.cs:11-24``).
- ``is_link`` / ``is_phone_num`` / ``is_email`` — regex predicates
  (``StringExtension.cs:26-42``).
- ``to_url_encode`` — ``StringExtension.ToUrlEncode`` (``:44-70``).
  ``ToHtmlEncode`` and ``ToBase64`` have no wrapper here: the stdlib
  (``urllib.parse.quote_plus``, ``base64``) covers them (SURVEY.md §2).
- ``url_join`` — relative→absolute redirect resolution
  (``HZ.Crawler.Common/Net/HttpResponse.cs:39-66``).
- ``normalize_url`` — new design: the canonical frontier key feeding the
  URL-seen set (north rule), so equality is well-defined across rounds.
"""

from __future__ import annotations

import re
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit, urlunsplit

_LINK_RE = re.compile(r"^https?://[^\s]+$", re.I)
_EMAIL_RE = re.compile(r"^[\w.+-]+@[\w-]+(\.[\w-]+)+$")
_PHONE_RE = re.compile(r"^1[3-9]\d{9}$")  # CN mobile, mirroring the reference's intent

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def normalize_url(url: str) -> str:
    """Canonical form: lowercase scheme/host, drop default port and fragment,
    sort query params, collapse empty path to '/'. The frontier/seen-set key."""
    s = urlsplit(url.strip())
    scheme = s.scheme.lower()
    host = s.hostname.lower() if s.hostname else ""
    port = s.port
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    path = s.path or "/"
    query = urlencode(sorted(parse_qsl(s.query, keep_blank_values=True)))
    return urlunsplit((scheme, netloc, path, query, ""))


def url_join(base: str, link: str) -> str:
    """Resolve a possibly-relative link against its page URL."""
    return urljoin(base, link)


def url_host(url: str) -> str:
    h = urlsplit(url).hostname
    return h.lower() if h else ""


def get_url_query_value(url: str, key: str) -> str:
    """Value of ``key`` in the URL query string, '' when absent."""
    for k, v in parse_qsl(urlsplit(url).query, keep_blank_values=True):
        if k == key:
            return v
    return ""


def is_link(s: str) -> bool:
    return bool(_LINK_RE.match(s or ""))


def is_email(s: str) -> bool:
    return bool(_EMAIL_RE.match(s or ""))


def is_phone_num(s: str) -> bool:
    return bool(_PHONE_RE.match(s or ""))


_TRACKING_PARAMS = frozenset(
    {"gclid", "fbclid", "msclkid", "mc_eid", "igshid", "ref_src", "spm"}
)


def strip_tracking_params(url: str) -> str:
    """Remove advertising/analytics query parameters (utm_*, gclid,
    fbclid, …) while preserving parameter ORDER of what remains — the
    canonicalization step that collapses campaign-tagged duplicates of
    the same page before the seen-set. Opt-in (not part of
    ``normalize_url``): some sites genuinely route on these params, so
    the default crawl key stays conservative."""
    from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

    s = urlsplit(url)
    if not s.query:
        return url
    kept = [
        (k, v)
        for k, v in parse_qsl(s.query, keep_blank_values=True)
        if not k.lower().startswith("utm_") and k.lower() not in _TRACKING_PARAMS
    ]
    return urlunsplit(
        (s.scheme, s.netloc, s.path, urlencode(kept), s.fragment)
    )


# Uri.EscapeDataString's (.NET Framework) unescaped set: RFC-3986 unreserved
# plus the RFC-2396 marks !*'() — space becomes %20, not '+'
_DATA_SAFE = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~!*'()"
)


def to_url_encode(s: str, to_upper: bool = True) -> str:
    """Data-string URL encode — space → ``%20``, ``-_.~!*'()`` kept,
    everything else percent-encoded over UTF-8 bytes
    (``ToUrlEncode``, StringExtension.cs:44-56: Uri.EscapeDataString,
    which already emits uppercase hex; ``to_upper=False`` gives the
    lowercase variant)."""
    out = []
    for b in s.encode("utf-8"):
        if b in _DATA_SAFE:
            out.append(chr(b))
        else:
            out.append(f"%{b:02X}" if to_upper else f"%{b:02x}")
    return "".join(out)
