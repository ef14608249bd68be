"""Benchmark for crawler_ray: crawl, ingest and query workloads (see README.md)."""
