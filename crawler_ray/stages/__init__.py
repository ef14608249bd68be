"""Batch-transform stages: fetch, parse (stateless), image processing
(decode/hash/dedup), frontier selection. Each is a callable run in task
mode; the crawl fuses them into one stage (``stages/process.py``)."""
