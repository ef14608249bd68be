"""CLI surface tests (in-process `main(argv)` — the shared Ray session is
reused via _init_ray's is_initialized guard)."""

import json
import os

import pyarrow.parquet as pq

from crawler_ray.cli import main
from tests.conftest import SF_DIR


def test_query_list(capsys):
    assert main(["query", "--list"]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split("\t") for ln in out.strip().splitlines())
    assert lines["q1_pricing_summary"] == "oracle"
    assert lines["ann_pq_topk"] == "rows-only"
    assert len(lines) >= 88


def test_query_unknown_name(capsys):
    assert main(["query", "--name", "nope"]) == 2


def test_query_runs_and_writes_parquet(ray_session, tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(
        ["query", "--name", "revenue_cube", "--sf", SF_DIR, "--out", out]
    ) == 0
    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert files
    t = pq.read_table([os.path.join(out, f) for f in files])
    assert t.num_rows == 24  # 5 priorities x 3 statuses + 5 + 3 + 1
    # stdout ends with a machine-readable JSON line
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["query"] == "revenue_cube"


def test_tune_data_context_installs_one_log_filter():
    """Repeated tuning (bench, CLI, fixture and entry point each call it)
    leaves exactly one known-noise filter on the Ray logger."""
    import logging

    from crawler_ray.context import tune_data_context

    lg = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    tune_data_context()
    tune_data_context()
    noise = [f for f in lg.filters if type(f).__name__ == "_DropSchemaHashNoise"]
    assert len(noise) == 1
