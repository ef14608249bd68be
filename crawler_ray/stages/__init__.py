"""Crawl stages: fetch (synthetic or HTTP) and the page parsers, fused with
image decode/hash/dedup, admission and per-host selection into the one
task-mode round stage (``stages/process.py``)."""
