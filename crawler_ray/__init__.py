"""crawler_ray — a Ray-Data-native URL-frontier + fetch-scheduler engine.

A from-scratch re-expression of the capabilities of the reference C# crawler
(shenghai3711/Crawler, see /root/repo/SURVEY.md) on Ray Data: crawl state and
data flow are ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
Arrow batches run as plain tasks, with built state cached once per worker
process (``context.worker_cached``); shared state (the sharded URL/image
seen-set, politeness token buckets, robots caches) lives in actors; wide
steps (dedup, metrics) are ``groupby``/``sort`` shuffles.

Never calls ``ray.init()``/``ray.shutdown()`` anywhere in the library — the
process that owns the Ray session (bench.py, CLI, test fixture, the driver)
is responsible for that.
"""

__version__ = "0.1.0"
