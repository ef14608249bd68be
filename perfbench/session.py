"""Ray session sized for a small host, plus the two host probes every run
records: summed RSS of the session's processes and a reference kernel.

Sizing: each seen-set shard and politeness shard actor reserves 0.25 CPU
for the session's lifetime. With ``num_cpus=1`` and the crawl's default
2 + 2 shards that is the whole CPU, and no task can ever schedule (the
crawl hangs in its first execution). The session therefore gets
``ceil(0.25 * shards) + TASK_CPUS`` logical CPUs, whatever the host's core
count.
"""

from __future__ import annotations

import math
import os
import threading
import time

ACTOR_CPU = 0.25  # num_cpus of SeenShard and PolitenessActor
TASK_CPUS = 1
OBJECT_STORE_MB = 384
# Ray puts unix sockets under <temp_dir>/session_<date>_<pid>/sockets/;
# AF_UNIX paths are limited to 107 bytes
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def logical_cpus(n_seen: int, n_polite: int) -> int:
    return math.ceil(ACTOR_CPU * (n_seen + n_polite)) + TASK_CPUS


def start(root: str, n_seen: int, n_polite: int, trace_dir: str | None) -> dict:
    """``ray.init`` for one benchmark run. Workers get the checkout on
    ``PYTHONPATH`` (a driver started outside the repo root otherwise fails
    every task with ``No module named 'crawler_ray'``), the run's private
    ``TMPDIR``, and a setup hook composed from the package's own hook and,
    when tracing, the benchmark's wrappers."""
    import ray

    from crawler_ray.context import tune_data_context, worker_runtime_env
    from perfbench import tracer

    base = worker_runtime_env()
    env_vars = dict(base.get("env_vars", {}))
    env_vars["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH", "")) if p
    )
    env_vars["TMPDIR"] = os.environ["TMPDIR"]
    runtime_env = dict(base)
    runtime_env["env_vars"] = env_vars
    runtime_env["worker_process_setup_hook"] = tracer.worker_hook(
        base.get("worker_process_setup_hook"), trace_dir
    )
    kw = {}
    ray_tmp = os.path.join(root, ".perfbench", "ray")
    if len(ray_tmp) + _SOCKET_SUFFIX <= 107:
        kw["_temp_dir"] = ray_tmp
    cpus = logical_cpus(n_seen, n_polite)
    ray.init(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_MB << 20,
        runtime_env=runtime_env,
        **kw,
    )
    tune_data_context()
    import logging

    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    return {"num_cpus": cpus, "ray_temp_in_checkout": bool(kw)}


# ------------------------------------------------------------------ RSS
def _children_map() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        out.setdefault(ppid, []).append(int(d))
    return out


def session_pids(root_pid: int) -> list[int]:
    """``root_pid`` and all its descendants: the driver, the Ray head
    processes it started, and the workers the raylet started."""
    kids = _children_map()
    todo, seen = [root_pid], []
    while todo:
        p = todo.pop()
        seen.append(p)
        todo.extend(kids.get(p, []))
    return seen


def rss_mb(pids: list[int]) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            pass
    return total / 2**20


class RssSampler:
    """Peak of the summed RSS of the session's processes, sampled every
    ``period`` seconds while ``active``."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak = 0.0
        self.active = False
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)
        self._t.start()

    def sample(self) -> None:
        v = rss_mb(session_pids(os.getpid()))
        if v > self.peak:
            self.peak = v

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            if self.active:
                self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._t.join()


# ------------------------------------------------------- reference kernel
def ref_kernel_s() -> float:
    """Fixed CPU-bound kernel (a numpy sort plus a pure-Python loop). Its
    time varies only with the host, so a run whose samples spread widely
    was measured on a noisy host: the ``host_band`` label."""
    import numpy as np

    a = np.random.default_rng(12345).integers(0, 1 << 62, 1 << 18)
    t0 = time.perf_counter()
    np.sort(a)
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0
