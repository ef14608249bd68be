"""Task-mode map stages: the query scorers start no actor pool, stay
oracle-exact over many blocks, and build their per-worker state once per
worker per call (``context.worker_cached``). A static guard keeps actor
pools to the stages whose state is a per-process resource."""

import ast
import contextlib
import os
import pathlib

import numpy as np
import pandas as pd

from crawler_ray.pipelines import textops
from tests.test_textops_suite import _assert_same, _write_docs

PKG = pathlib.Path(__file__).resolve().parent.parent / "crawler_ray"

# the only functions allowed to map through an actor pool: their state is a
# per-process resource (HTTP sessions with I/O oversubscription; model
# weights, one copy per actor)
ACTOR_POOL_SITES = {"revalidate_manifest", "image_caption_alignment"}


@contextlib.contextmanager
def _no_actor_pools(monkeypatch):
    """Make Ray Data's actor-pool operator raise on the driver, where every
    plan is built: a query that runs under this starts no actor pool."""
    from ray.data._internal.execution.operators.actor_pool_map_operator import (
        ActorPoolMapOperator,
    )

    def _raise(self, *args, **kwargs):
        raise AssertionError("an actor-pool map stage was planned")

    with monkeypatch.context() as m:
        m.setattr(ActorPoolMapOperator, "__init__", _raise)
        yield


@contextlib.contextmanager
def _docs_in_blocks(monkeypatch, n_blocks: int = 4):
    """Read the documents table as ``n_blocks`` blocks (footer sizing would
    make a small table one block)."""
    import ray.data as rd

    from crawler_ray.sources import io

    def read(path, columns=None, **_):
        return rd.read_parquet(path, columns=columns,
                               override_num_blocks=n_blocks)

    with monkeypatch.context() as m:
        m.setattr(io, "read_parquet_sized", read)
        yield


def _write_random_docs(tmp_path, n_docs: int, seed: int = 3):
    """Random corpus over a small vocabulary, so terms repeat across docs
    and score ties occur; a few empty docs count toward N."""
    rng = np.random.Generator(np.random.PCG64(seed))
    vocab = [f"w{i}" for i in range(40)] + ["hash", "join", "vector"]
    texts = {}
    for i in range(n_docs):
        n = 0 if i % 17 == 0 else int(rng.integers(1, 25))
        texts[i + 1] = " ".join(rng.choice(vocab, size=n))
    return _write_docs(tmp_path, texts)


def _check_scorers(tmp_path, con):
    got = textops.bm25_search(str(tmp_path), query="hash join vector",
                              k=7).to_pandas()
    exp = con.execute(textops.bm25_search_sql(query="hash join vector",
                                              k=7)).df()
    assert len(exp) == 7
    _assert_same(got, exp)
    got = textops.doc_top_tfidf(str(tmp_path), k=3).to_pandas()
    exp = con.sql(textops.doc_top_tfidf_sql(k=3)).df()
    assert len(exp) > 100
    _assert_same(got, exp)


def test_query_scorers_start_no_actor_pool(ray_session, tmp_path,
                                           monkeypatch):
    con = _write_random_docs(tmp_path, 60)
    with _no_actor_pools(monkeypatch):
        _check_scorers(tmp_path, con)


def test_query_scorers_oracle_exact_over_many_blocks(ray_session, tmp_path,
                                                     monkeypatch):
    """Per-block top-k, then the global sort + limit (bm25) and the
    per-block per-doc top-k (tfidf) stay exact when the corpus is split."""
    from crawler_ray.pipelines.dedup import _read_docs

    con = _write_random_docs(tmp_path, 240)
    with _docs_in_blocks(monkeypatch), _no_actor_pools(monkeypatch):
        blocks = _read_docs(str(tmp_path), ["doc_id", "text"]).materialize()
        assert blocks.num_blocks() >= 4
        _check_scorers(tmp_path, con)


def test_tfidf_df_map_built_once_per_worker_per_call(ray_session, tmp_path,
                                                     monkeypatch):
    """Each build and each batch call leaves a marker named by (pid, df
    ref): per call, no worker builds twice, workers that score several
    blocks reuse the map, and the next call (a new ref) builds again."""
    con = _write_random_docs(tmp_path, 240)
    marks = tmp_path / "marks"
    marks.mkdir()
    base = textops.TfIdfTopK

    def mark(kind, ref):
        import uuid

        (marks / f"{kind}-{os.getpid()}-{ref.hex()}-{uuid.uuid4().hex}").touch()

    class CountingTfIdfTopK(base):
        def _build_df_map(self):
            mark("build", self.df_ref)
            return base._build_df_map(self)

        def __call__(self, df):
            mark("call", self.df_ref)
            return base.__call__(self, df)

    exp = con.sql(textops.doc_top_tfidf_sql(k=3)).df()
    monkeypatch.setattr(textops, "TfIdfTopK", CountingTfIdfTopK)
    with _docs_in_blocks(monkeypatch, 8):
        for _ in range(2):
            _assert_same(textops.doc_top_tfidf(str(tmp_path), k=3).to_pandas(),
                         exp)
    names = pd.Series([p.name.rsplit("-", 1)[0] for p in marks.iterdir()])
    builds = names[names.str.startswith("build-")].value_counts()
    n_calls = int(names.str.startswith("call-").sum())
    assert (builds == 1).all(), builds  # once per (worker, call)
    assert builds.sum() < n_calls  # workers reused the map across blocks
    refs = {b.split("-")[2] for b in builds.index}
    assert len(refs) == 2  # one df table per call, each built


def test_worker_cached_one_live_value_per_slot():
    from crawler_ray.context import worker_cached

    built = []

    def build(v):
        return lambda: built.append(v) or v

    assert worker_cached("t.a", "k1", build(1)) == 1
    assert worker_cached("t.a", "k1", build(2)) == 1  # same key: cached
    assert worker_cached("t.b", "k1", build(3)) == 3  # slots independent
    assert worker_cached("t.a", "k2", build(4)) == 4  # new key: rebuilt
    assert worker_cached("t.a", "k1", build(5)) == 5  # old value was dropped
    assert built == [1, 3, 4, 5]


def _map_batches_pool_sites():
    """(file:line, enclosing function) of every ``map_batches`` call in the
    package that passes ``fn_constructor_args`` or ``concurrency``."""
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, None)]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name if func is None else func
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
                and any(kw.arg in ("fn_constructor_args", "concurrency")
                        for kw in node.keywords)
            ):
                rel = path.relative_to(PKG.parent)
                sites.append((f"{rel}:{node.lineno}", func))
            stack.extend((c, func) for c in ast.iter_child_nodes(node))
    return sites


def test_actor_pools_only_where_state_is_per_process():
    sites = _map_batches_pool_sites()
    bad = sorted(loc for loc, func in sites if func not in ACTOR_POOL_SITES)
    assert not bad, (
        "map_batches with fn_constructor_args/concurrency (an actor pool) "
        f"outside {sorted(ACTOR_POOL_SITES)}: {bad}"
    )
    # the allow-list names live sites, not stale ones
    assert {func for _, func in sites} == ACTOR_POOL_SITES

