"""Self-test of the benchmark (toy sizes, a few minutes on one core).

    python3 perfbench/selftest.py

1. Runs every workload once at toy size through ``run.py`` and checks the
   printed result line.
2. In one traced Ray session, runs one operation of each workload, checks
   that its output passes, then alters one expected row and checks that the
   same output check now fails.
3. Checks that the recorded spans nest: every span's self time is >= 0, and
   its children lie inside it and sum to at most its wall time.
4. Runs ``run.py`` in a copy that holds only ``BENCHMARK.json`` and
   ``perfbench/`` (no package): it must exit non-zero without a result.

Everything it writes lives under ``.perfbench/selftest``. Exits non-zero on
the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import checks, session, tracer  # noqa: E402
from perfbench.run import STATE, WORKLOADS, _stop_session  # noqa: E402

HERE = os.path.join(ROOT, ".perfbench", "selftest")


def log(msg: str) -> None:
    print(f"selftest: {msg}", flush=True)


def must_fail(label: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailed as e:
        log(f"ok   {label} -> {' '.join(str(e).split())[:100]}")
        return
    raise SystemExit(f"selftest: FAIL {label}: the check accepted an altered expectation")


def run_cli() -> None:
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", w, "--seed", "3", "--seconds", "1", "--size", "toy"],
            cwd=HERE, capture_output=True, text=True, timeout=300)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert out.returncode == 0 and res["correct"], (w, out.stderr[-2000:])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
        assert set(res["metrics"]) == {"work_per_s", "step_p50_s", "setup_s",
                                       "peak_rss_mb"}, res
        assert all(v["value"] > 0 for v in res["metrics"].values()), res
        log(f"ok   run.py {w}: {res['attempted']} attempted, 0 failed")


def check_nesting(spans: list) -> int:
    """Returns the number of parent spans whose children were checked."""
    kids: dict = {}
    for sp in spans:
        if sp[1] is not None:
            kids.setdefault(sp[1], []).append(sp)
    parents = 0
    for sp in spans:
        sid, _, name, _, t0, t1, child_s, _ = sp
        wall = t1 - t0
        assert wall - child_s >= -1e-9, f"{name}: negative self time"
        ks = kids.get(sid, [])
        if ks:
            parents += 1
            assert sum(k[5] - k[4] for k in ks) <= wall + 1e-9, f"{name}: children exceed wall"
            assert all(t0 <= k[4] and k[5] <= t1 for k in ks), f"{name}: child outside parent"
    return parents


def traced_checks() -> None:
    import ray

    from perfbench.workloads import N_POLITE, N_SEEN
    from perfbench.workloads import WORKLOADS as W

    trace_dir = os.path.join(HERE, "trace")
    os.makedirs(trace_dir)
    tracer.install(trace_dir, driver=True)
    session.start(ROOT, N_SEEN, N_POLITE, trace_dir)
    for op, name in enumerate(WORKLOADS):
        wl = W[name](ROOT, os.path.join(HERE, "out"), 5, "toy")
        wl.build()
        wl.warm(wl.prepare(-1))
        wl.oracles()
        state = wl.prepare(op)
        tracer.set_enabled(op)
        time.sleep(3 * tracer.FLUSH_S)
        r = wl.run(state)
        time.sleep(3 * tracer.FLUSH_S)
        tracer.set_enabled(None)
        wl.check(state, r)
        log(f"ok   {name} output passes its check")
        if name == "crawl_bfs":
            exp = wl.expected
            images = exp["images"]
            cap = images["caption"].to_pylist()
            cap[0] += "!"
            altered = images.set_column(images.column_names.index("caption"),
                                        "caption", [cap])
            must_fail("crawl_bfs images row altered",
                      lambda: checks.check_crawl(state.cfg.out_dir, r["res"].pages_fetched,
                                                 dict(exp, images=altered)))
            must_fail("crawl_bfs seen-set entry removed",
                      lambda: checks.check_crawl(state.cfg.out_dir, r["res"].pages_fetched,
                                                 dict(exp, pages=exp["pages"] - 1)))
        elif name == "ingest_images":
            from perfbench.fixtures import expected_ingest

            urls = list(wl.urls)
            urls[0] = next(u for u in urls if u != urls[0])  # one seed row altered
            must_fail("ingest_images seed row altered",
                      lambda: checks.check_ingest(state.cfg.out_dir, r["res"],
                                                  expected_ingest(urls), wl.urls, wl.seed))
        else:
            for q in r["results"]:
                exp = copy.deepcopy(wl.expected[q])
                col = next(c for c in exp.columns if exp[c].dtype.kind in "if")
                exp.loc[0, col] = exp.loc[0, col] + 1
                must_fail(f"query_bar {q} oracle row altered",
                          lambda: checks.check_query(q, r["results"][q], exp))
        wl.finish(state)
    ray.shutdown()
    tracer.flush()
    spans, agg = tracer.read_dir(trace_dir)
    parents = check_nesting(spans)
    assert parents > 0 and {"pipelines.crawl.round", "stages.process.call",
                            "state.seen.shard.check_and_insert"} <= set(agg), sorted(agg)
    log(f"ok   {len(spans)} spans nest ({parents} parents checked)")


def bare_copy_fails() -> None:
    bare = os.path.join(HERE, "bare")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_bfs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    log(f"ok   package-less copy exits {out.returncode} without a result")


def main() -> int:
    if sys.argv[1:] == ["--traced"]:  # the in-session part, supervised below
        traced_checks()
        return 0
    shutil.rmtree(HERE, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "tmp"))
    try:
        run_cli()
        bare_copy_fails()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--traced"], cwd=HERE,
            env=dict(os.environ, TMPDIR=os.path.join(HERE, "tmp")),
            start_new_session=True)
        try:
            rc = proc.wait(timeout=600)
        finally:
            _stop_session(proc.pid)
            proc.wait()
        assert rc == 0, f"traced checks exited {rc}"
    finally:
        for d in (HERE, os.path.join(STATE, "ray"), os.path.join(STATE, "fixtures")):
            shutil.rmtree(d, ignore_errors=True)
    log("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
