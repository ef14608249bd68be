"""Value-exact oracle sweep over any SF dir — the driver's correctness gate
as a standalone tool, for out-of-band scale smokes.

Runs every ``__ray_entry__.queries()`` entry that has an ``oracle_sql()``
twin against DuckDB on the same parquet dir and compares driver-style:
columns sorted by name, rows sorted by all columns, float64 compared at
atol=1e-6 after a 6dp round (the same canon as tests/test_conformance.py).

Built for the tiled-testdata smokes (``tools/tile_testdata.py``): the same
hash-exact comparison the driver runs at sf0.01 can run at 20x sf0.1
(12M lineitem rows), where int64 accumulator overflows, block-split
sensitivity and quadratic blowups actually show.

Usage:
    python tools/hashcheck.py [SF_DIR] [name ...] [--include-quadratic]
                              [--rows-only] [--json=OUT.json]

    SF_DIR   defaults to /tmp/sf_x20 (the tile_testdata.py default output)
    name...  specific query names; default = every oracled query minus
             DEFAULT_SKIP (oracles that are deliberately O(n^2) in DuckDB —
             the Ray side scales, the SQL twin does not; they stay covered
             at sf0.001-0.1 by tests/test_conformance.py)
    --rows-only          also run every queries() entry WITHOUT an oracle
                         (recorded as a rows+schema-stability check)
    --json=OUT.json      write a driver-CORRECTNESS-shaped per-query record
                         ({rows_match, schema_match, hash_match, spark_rows,
                         oracle_rows, err}; rows-only entries carry
                         rows_only: true and null oracle fields) — the
                         round-5 full-surface emission next to BENCH

Exit code: number of failing queries (0 = all green).
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

# the checkout this tool lives in: the driver imports ``__ray_entry__`` and
# ``crawler_ray`` from it, and the Ray workers get it on their PYTHONPATH
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]

# Oracles that are BY DESIGN quadratic (pair-emitting cross/range joins,
# recursive-CTE closures) — their DuckDB side is O(n^2) in the corpus and
# does not finish at 20x. The Ray side of each is the scale path; their
# value-exactness is held at sf0.001 (tests) and sf0.01 (driver).
DEFAULT_SKIP = {
    "bigram_jaccard_pairs", "token_jaccard_pairs", "token_set_dup_pairs",
    "typo_word_pairs", "fuzzy_name_pairs", "fuzzy_name_clusters",
    "embedding_near_dup_pairs", "embedding_dedup_clusters",
    "near_dup_clusters", "dedup_survivors", "corpus_curation",
    "training_data_build",
    # comma-style self-join oracle (40k x 40k list_cosine at 20x): the Ray
    # side is the declared-exact block-nested-loop, the SQL twin is hours
    "hard_negative_pairs",
}


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    return result.to_pandas()


def init_ray() -> None:
    """Start a local Ray session (unless one is running) whose workers import
    this checkout: the package's worker runtime env, with ``REPO_ROOT`` on
    the workers' PYTHONPATH. Without it a driver started outside the repo
    root fails every task with ``No module named 'crawler_ray'``, and the
    workers miss the package's log filter."""
    import ray

    from crawler_ray.context import worker_runtime_env

    if ray.is_initialized():
        return
    runtime_env = worker_runtime_env()
    env_vars = dict(runtime_env.get("env_vars", {}))
    env_vars["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO_ROOT, os.environ.get("PYTHONPATH", "")) if p
    )
    ray.init(address="local", include_dashboard=False, logging_level="ERROR",
             runtime_env={**runtime_env, "env_vars": env_vars})


def main(argv: list[str]) -> int:
    include_quadratic = "--include-quadratic" in argv
    rows_only_too = "--rows-only" in argv
    json_out = next(
        (a.split("=", 1)[1] for a in argv if a.startswith("--json=")), None
    )
    args = [a for a in argv if not a.startswith("--")]
    sf_dir = args[0] if args else "/tmp/sf_x20"
    import __ray_entry__ as entry_mod

    queries = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    names = args[1:] or sorted(
        n for n in oracles if include_quadratic or n not in DEFAULT_SKIP
    )
    rows_only_names = (
        sorted(n for n in queries if n not in oracles)
        if rows_only_too and not args[1:]
        else []
    )

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE OR REPLACE VIEW {t} AS "
            f"SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    init_ray()

    records: dict[str, dict] = {}
    n_fail = 0
    for name in names:
        t0 = time.monotonic()
        rec = {
            "rows_match": False, "schema_match": False, "hash_match": False,
            "spark_rows": None, "oracle_rows": None, "err": None,
        }
        try:
            got = _canon(_to_pandas(queries[name](sf_dir)))
            t_ray = time.monotonic() - t0
            t1 = time.monotonic()
            exp = _canon(con.sql(oracles[name]).df())
            t_sql = time.monotonic() - t1
            rec["spark_rows"], rec["oracle_rows"] = len(got), len(exp)
            assert list(got.columns) == list(exp.columns), (
                f"columns {list(got.columns)} != {list(exp.columns)}"
            )
            rec["schema_match"] = True
            assert len(got) == len(exp), f"rows {len(got)} != {len(exp)}"
            rec["rows_match"] = True
            pd.testing.assert_frame_equal(
                got, exp, check_dtype=False, atol=1e-6, rtol=1e-9
            )
            rec["hash_match"] = True
            print(
                f"PASS {name}: {len(got)} rows "
                f"(ray {t_ray:.1f}s, duckdb {t_sql:.1f}s)",
                flush=True,
            )
        except Exception as e:
            n_fail += 1
            msg = str(e).replace("\n", " | ")[:500]
            rec["err"] = msg
            print(f"FAIL {name}: {msg}", flush=True)
        records[name] = rec
    for name in rows_only_names:
        rec = {
            "rows_only": True, "rows_match": False, "schema_match": False,
            "hash_match": None, "spark_rows": None, "oracle_rows": None,
            "err": None,
        }
        t0 = time.monotonic()
        try:
            got = _to_pandas(queries[name](sf_dir))
            rec["spark_rows"] = len(got)
            # no SQL twin: the check is that the pipeline runs and yields a
            # non-degenerate frame with a stable (sorted) column set
            assert len(got.columns) > 0, "no columns"
            rec["schema_match"] = True
            rec["rows_match"] = True
            print(
                f"PASS {name} [rows-only]: {len(got)} rows "
                f"(ray {time.monotonic() - t0:.1f}s)",
                flush=True,
            )
        except Exception as e:
            n_fail += 1
            msg = str(e).replace("\n", " | ")[:500]
            rec["err"] = msg
            print(f"FAIL {name} [rows-only]: {msg}", flush=True)
        records[name] = rec
    skipped = sorted(set(oracles) - set(names))
    total = len(names) + len(rows_only_names)
    print(
        f"\n{total - n_fail}/{total} green on {sf_dir}"
        + (f" ({len(rows_only_names)} rows-only)" if rows_only_names else "")
        + (f"; skipped (quadratic oracle): {len(skipped)}" if skipped else "")
    )
    if json_out:
        import json as _json

        with open(json_out, "w", encoding="utf-8") as f:
            _json.dump(records, f, indent=1)
        print(f"wrote {json_out}")
    return n_fail


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
