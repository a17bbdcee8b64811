"""Benchmark plumbing: Ray session, per-operation timeouts, spans, memory.

Nothing here knows about a particular workload. ``workloads.py`` drives
the library through its public functions; this module only times,
bounds and records those calls.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# short, so that Ray's socket paths under it fit (see _RAY_TEMP_MAX)
WORK = os.path.join(ROOT, ".pbw")
PACKAGE = "associationabacminer_ray"
MIN_CPUS = 2
MAX_CPUS = 4
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~62 bytes
# (session dir + sockets/plasma_store) to its temp dir
_RAY_TEMP_MAX = 44


class OpTimeout(Exception):
    """An operation exceeded its time limit; the session is abandoned."""


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn()`` in a daemon thread; raise ``OpTimeout`` after
    ``timeout_s`` seconds. A hung call keeps its thread, which is why the
    caller stops the run after the first timeout."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise OpTimeout(f"operation exceeded {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class Tracer:
    """In-memory spans (name, start, end, parent) written out at the end.

    One client issues one operation at a time, so a single stack gives
    every span its parent, including spans opened in the timeout thread.
    A disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        with self._lock:
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = {"id": sid, "name": name, "parent": parent,
                   "start": time.perf_counter(), "end": None, **attrs}
            self.spans.append(rec)
            self._stack.append(sid)
        try:
            yield
        finally:
            with self._lock:
                rec["end"] = time.perf_counter()
                if self._stack and self._stack[-1] == sid:
                    self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    values = sorted(values)
    if not values:
        return float("nan")
    rank = max(1, min(len(values), int(-(-q * len(values) // 100))))
    return values[rank - 1]


def drift(series: list[float]) -> float | None:
    """Median of the last third over median of the first third (> 1 means
    the series slowed down during the run). Not a gated metric."""
    n = len(series) // 3
    if n < 1:
        return None
    first, last = median(series[:n]), median(series[-n:])
    return last / first if first else None


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset, in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def granted_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_context(ray_cpus: int) -> dict:
    """Stamp for every result: CPUs granted, Ray CPUs, code identity."""
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, _, head = out.stdout.partition("\n")
        # a checkout that is not itself a repository may sit inside one
        if out.returncode == 0 and os.path.samefile(top, ROOT):
            sha = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    pkg = os.path.join(ROOT, PACKAGE)
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"granted_cpus": granted_cpus(), "ray_num_cpus": ray_cpus,
            "git_sha": sha, "source_sha1": digest.hexdigest()}


class RaySession:
    """A private local Ray session whose files live under ``WORK`` (or, if
    that path is too long for Ray's sockets, under a short temp dir).
    ``close`` stops the session and removes its files."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        temp = os.path.join(WORK, f"r{os.getpid()}")
        if len(temp.encode()) > _RAY_TEMP_MAX:
            temp = tempfile.mkdtemp(prefix="pbray-")
        self.temp_dir = temp

    def start(self) -> float:
        t0 = time.perf_counter()
        # workers import the package from the checkout root
        paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        import ray

        ray.init(address="local", num_cpus=self.num_cpus,
                 object_store_memory=768 * 1024 * 1024,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        from associationabacminer_ray.runtime import (
            quiet_ray_empty_schema_warnings,
        )

        quiet_ray_empty_schema_warnings()
        return time.perf_counter() - t0

    def close(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(self.temp_dir, ignore_errors=True)
