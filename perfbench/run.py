"""Benchmark entry point: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload crawl_bfs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

The process started here supervises: it runs the workload in a child
process in its own session, kills that session if it outlives
``RUN_TIMEOUT_S`` (a hang fails loudly instead of stalling), stops every
process left in it, and prints the result. The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is non-zero when an output check failed or the run did not
finish. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["crawl_bfs", "ingest_images", "query_bar"]
RUN_TIMEOUT_S = 160
STATE = os.path.join(ROOT, ".perfbench")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["bench", "toy"], default="bench")
    p.add_argument("--child", help=argparse.SUPPRESS)  # result path
    return p.parse_args(argv)


# ------------------------------------------------------------ supervision
def _session_members(sid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == sid and fields[0] != "Z":
                out.append(int(d))
    return out


def _stop_session(sid: int, grace_s: float = 10.0) -> None:
    """SIGKILL everything left in the child's session and wait until it is
    gone (Ray's head processes and workers inherit the session)."""
    deadline = time.monotonic() + grace_s
    while True:
        pids = _session_members(sid)
        if not pids or time.monotonic() > deadline:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.1)


def run_one(args, workload: str) -> tuple[int, dict | None]:
    """Run one workload in a supervised child; returns (exit code, result)."""
    run_id = f"{workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(STATE, "run", run_id)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    result_path = os.path.join(run_dir, "result.json")
    env = dict(os.environ, TMPDIR=tmp, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--child", result_path]
    # the child's stdout goes to our stderr: only the result reaches stdout
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        rc = 124
    finally:  # also on SIGTERM (see supervise)
        _stop_session(proc.pid)
        proc.wait()
        result = None
        if os.path.exists(result_path):
            with open(result_path) as f:
                result = json.load(f)
        # every run rebuilds its fixtures in set-up; do not let them pile up
        for d in (run_dir, os.path.join(STATE, "ray"), os.path.join(STATE, "fixtures")):
            shutil.rmtree(d, ignore_errors=True)
    return rc, result


def _summary(workload: str, res: dict) -> list[str]:
    s = res["summary"]
    rows = [(k, v, u) for k, (v, u) in s.items()]
    return [f"{workload:14s} {k:22s} {v:14.6g} {u}" for k, v, u in rows]


def supervise(args) -> int:
    # a terminated benchmark still stops its child's session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, code = {}, 0
    for w in names:
        rc, res = run_one(args, w)
        if res is None or rc not in (0, 1):
            print(f"perfbench: {w} failed (exit {rc}) without a result",
                  file=sys.stderr)
            return rc or 2
        results[w] = res
        code = code or rc
        print(f"perfbench: {w}: {res['ops']} operations {res['op_walls']}, session "
              f"{res['session']}, setup "
              + json.dumps({k: v if isinstance(v, list) else round(v, 3)
                            for k, v in res["setup"].items()}), file=sys.stderr)
    for w in names:
        print("\n".join(_summary(w, results[w])))
    if args.workload == "all":
        print(json.dumps({w: r["result"] for w, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]["result"]))
    return code


# -------------------------------------------------------------- the run
def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(wl, ops: list[dict], setup: dict, rss_peak: float) -> dict:
    """Medians over the run's operations, so one operation hit by a burst of
    neighbour load does not move the run's figure."""
    if wl.name == "query_bar":
        # per-query medians: pass walls within one run spread by up to 40%
        step = sum(_median([o["per_query"][q] for o in ops]) for q in ops[0]["per_query"])
        rate = ops[0]["units"] / step
    else:
        step = _median([o["step"] for o in ops])
        rate = _median([o["units"] / o["wall"] for o in ops])
    return {
        "work_per_s": (rate, "1/s"),
        "step_p50_s": (step, "s"),
        "setup_s": (setup["ray_init_s"] + setup["fixtures_s"] + setup["warm_s"]
                    + _median(setup["op_setup_s"]), "s"),
        "peak_rss_mb": (rss_peak, "MB"),
    }


def per_layer(wl, traced: list[dict], untraced: list[dict], trace_dir: str,
              host: list[float]) -> dict:
    from perfbench import tracer

    spans, agg = tracer.read_dir(trace_dir)
    n = max(1, len(traced))

    def s(name):
        return agg.get(name, [0, 0.0, {}])[1] / n

    def c(name, key=None):
        a = agg.get(name, [0, 0.0, {}])
        return (a[0] if key is None else a[2].get(key, 0)) / n

    rounds = [sp for sp in spans if sp[2] == "pipelines.crawl.round"]
    round_ids = {sp[0] for sp in rounds}

    def under_round(name):
        return sum(sp[5] - sp[4] for sp in spans
                   if sp[2] == name and sp[1] in round_ids) / n

    exec_s = under_round("ray.data.to_pandas")
    ckpt_s = under_round("state.seen.snapshot") + under_round("state.checkpoint.save_round")
    round_s = sum(sp[5] - sp[4] for sp in rounds) / n
    keys = agg.get("state.seen.shard.check_and_insert", [0, 0.0, {}])[2]
    select_self = sum(sp[5] - sp[4] - sp[6] for sp in spans
                      if sp[2] == "stages.process.round_fn") / n
    m = {
        "state.seen.shard_call_s": (s("state.seen.shard.check_and_insert"), "s"),
        "state.seen.keys": (c("state.seen.shard.check_and_insert", "keys"), "count"),
        "state.seen.new_frac": (keys.get("new", 0) / max(1, keys.get("keys", 0)), "ratio"),
        "state.filters.cuckoo_add_s": (s("state.filters.cuckoo_add"), "s"),
        "state.seen.rpc_wait_s": (s("state.seen.client.wait"), "s"),
        "state.seen.snapshot_s": (s("state.seen.snapshot"), "s"),
        "state.checkpoint.save_round_s": (s("state.checkpoint.save_round"), "s"),
        "state.checkpoint.bytes": (c("state.checkpoint.save_round", "bytes"), "bytes"),
        "state.politeness.grant_calls": (c("state.politeness.grant_many"), "count"),
        "stages.process.call_s": (s("stages.process.call"), "s"),
        "stages.process.batches": (c("stages.process.call"), "count"),
        "stages.fetch.call_s": (s("stages.fetch.call"), "s"),
        "stages.fetch.rows": (c("stages.fetch.call", "rows"), "count"),
        "stages.parse.s": (s("stages.parse.parser"), "s"),
        "stages.frontier.select_s": (select_self, "s"),
        "functions.codecs.decode_s": (s("functions.codecs.decode_image"), "s"),
        "functions.hashing.phash_s": (s("functions.hashing.phash64"), "s"),
        "functions.hashing.md5_s": (s("functions.hashing.md5_hex"), "s"),
        "pipelines.crawl.rounds": (len(rounds) / n, "count"),
        "pipelines.crawl.round_exec_s": (exec_s, "s"),
        "pipelines.crawl.round_driver_s": (round_s - exec_s - ckpt_s, "s"),
        "sources.io.write_part_s": (s("sources.io.write_part"), "s"),
        "sources.io.write_part_bytes": (c("sources.io.write_part", "bytes"), "bytes"),
        "sources.io.parts": (c("sources.io.write_part"), "count"),
        "sources.io.read_parts_s": (s("sources.io.read_parts")
                                    + s("sources.io.read_fragment"), "s"),
    }
    from perfbench.workloads import QUERIES

    for q in QUERIES:
        m[f"query_bar.{q}_s"] = (_median([o["per_query"][q] for o in traced])
                                 if wl.name == "query_bar" else 0.0, "s")

    def step(ops):
        return _median([o["wall"] for o in ops])

    m["trace.overhead_frac"] = ((step(traced) - step(untraced)) / step(untraced), "ratio")
    m["host.ref_kernel_s"] = (_median(host), "s")
    m["host.band"] = (max(host) / min(host), "ratio")
    return m


def child(args) -> int:
    sys.path.insert(0, ROOT)
    from perfbench import checks, session, tracer
    from perfbench.workloads import N_POLITE, N_SEEN, WORKLOADS as W

    run_dir = os.path.dirname(args.child)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
        tracer.install(trace_dir, driver=True)
    host = [session.ref_kernel_s()]
    setup = {"op_setup_s": []}
    t = time.perf_counter()
    info = session.start(ROOT, N_SEEN, N_POLITE, trace_dir)
    setup["ray_init_s"] = time.perf_counter() - t
    wl = W[args.workload](ROOT, run_dir, args.seed, args.size)
    t = time.perf_counter()
    wl.build()
    setup["fixtures_s"] = time.perf_counter() - t
    t = time.perf_counter()
    state = wl.prepare(-1)
    setup["op_setup_s"].append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.warm(state)
    setup["warm_s"] = time.perf_counter() - t
    wl.oracles()

    rss = session.RssSampler()
    ops, attempted, failed, correct, error = [], 0, 0, True, None
    t_meas = time.perf_counter()
    k = 0
    while True:
        t = time.perf_counter()
        state = wl.prepare(k)
        setup["op_setup_s"].append(time.perf_counter() - t)
        traced = bool(args.trace) and k % 2 == 1
        if args.trace:
            tracer.set_enabled(k if traced else None)
            time.sleep(3 * tracer.FLUSH_S)  # workers pick the flag up
        rss.active = True
        try:
            r = wl.run(state)
        except Exception as e:  # a failed operation ends the run
            rss.active = False
            attempted += 1
            failed += 1
            correct, error = False, f"{type(e).__name__}: {e}"
            break
        rss.active = False
        rss.sample()
        if traced:
            time.sleep(3 * tracer.FLUSH_S)  # workers flush before teardown
            tracer.set_enabled(None)
        attempted += wl.attempted(r)
        try:
            wl.check(state, r)
        except checks.CheckFailed as e:
            correct, error = False, str(e)
        wl.finish(state)
        ops.append({"wall": r["wall"], "units": r["units"], "step": r["step"],
                    "per_query": r.get("per_query"), "traced": traced})
        host.append(session.ref_kernel_s())
        k += 1
        if not correct:
            break
        if time.perf_counter() - t_meas >= args.seconds and (not args.trace or k >= 2):
            break
    rss.stop()
    import ray

    ray.shutdown()

    untraced = [o for o in ops if not o["traced"]]
    traced_ops = [o for o in ops if o["traced"]]
    summary: dict = {}
    metrics: dict = {}
    if untraced:
        e2e = end_to_end(wl, untraced, setup, rss.peak)
        metrics = e2e
        summary = _table_names(wl.name, e2e, attempted, failed)
    if args.trace and traced_ops and untraced:
        tracer.flush()
        metrics = per_layer(wl, traced_ops, untraced, trace_dir, host)
    summary["host_ref_kernel_s"] = (statistics.median(host), "s")
    summary["host_band"] = (max(host) / min(host), "max/min")
    out = {
        "result": {
            "correct": correct and bool(ops),
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "summary": summary,
        "error": error,
        "session": info,
        "ops": len(ops),
        "op_walls": [round(o["wall"], 3) for o in ops],
        "setup": setup,
    }
    if error:
        print(f"perfbench: {args.workload}: {error}", flush=True)
    with open(args.child, "w") as f:
        json.dump(out, f)
    return 0 if out["result"]["correct"] else 1


def _table_names(name: str, e2e: dict, attempted: int, failed: int) -> dict:
    """The human-readable table uses the workload's own metric names."""
    rate, step = e2e["work_per_s"][0], e2e["step_p50_s"][0]
    out = {}
    if name == "query_bar":
        out["suite_s"] = (step, "s")
    else:
        out["pages_per_s"] = (rate, "1/s")
        if name == "crawl_bfs":
            out["round_p50_s"] = (step, "s")
        else:
            out["ingest_p50_s"] = (step, "s")
    out["setup_s"] = e2e["setup_s"]
    out["peak_rss_mb"] = e2e["peak_rss_mb"]
    out["failed_frac"] = (failed / max(1, attempted), "ratio")
    return out


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
