import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    from crawler_ray.context import tune_data_context, worker_runtime_env

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env=worker_runtime_env(),
    )

    tune_data_context()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_site(tmp_path_factory):
    """Tiny deterministic site fixture shared across crawl tests."""
    from crawler_ray.sources.synthetic import SiteSpec, generate_site, write_site

    d = tmp_path_factory.mktemp("site")
    spec = SiteSpec(n_hosts=4, products_per_host=12, categories_per_host=4, page_size=5)
    site = generate_site(spec)
    write_site(site, str(d))
    return site, str(d)


@pytest.fixture
def force_parts(monkeypatch):
    """``force_parts(k)`` makes every exchange run ``k`` partitions: a
    read-block bar of no rows sends each footer- or manifest-sized
    exchange past one read block, and ``EXCHANGE_PARTS`` becomes ``k``
    (so ``k = 1`` runs the one-partition fold everywhere). Tests force an
    exchange branch this way; no query takes a partition-count option."""

    def force(k: int) -> None:
        from crawler_ray.pipelines import joins
        from crawler_ray.sources import io

        monkeypatch.setattr(io, "MAX_ROWS_PER_BLOCK", -1)
        monkeypatch.setattr(joins, "EXCHANGE_PARTS", k)

    return force


SF_DIR = "/root/testdata/sf0.001"
