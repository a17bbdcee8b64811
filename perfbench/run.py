#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one fresh Ray session.

    python3 perfbench/run.py --workload supports_sketch --seed 1 --seconds 15 --trace 0

Run from the repository root. The run starts a private local Ray session
of ``min(4, granted CPUs)`` CPUs (refusing fewer than 2), generates the
workload's inputs from ``--seed``, computes an oracle, warms up, then
drives a closed loop for ``--seconds``: one job, then a batch of queries
against the job's output, repeated. Every operation is checked against
the oracle and bounded by a timeout; a wrong answer, an error or a
timeout counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics (spans around the
workload's calls plus isolation probes of each layer) and the tracing
overhead. The line before it is a detail record: host context, drift of
the per-repetition series, and every end-to-end figure (the gated ones
and ``query_ms_p90``, ``distinct_err_ppm``, ``failed_ops_frac``) with its
unit and sample count. Full records, series and spans are written under
``.pbw/``. The exit code is 0 only when every operation was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
import traceback

import harness
from harness import OpTimeout, Tracer, call_with_timeout, median, percentile

E2E_UNITS = {
    "setup_s": "s",
    "turns_per_s": "turns/s",
    "job_s": "s",
    "query_ms_p50": "ms",
    "support_err_ppm": "ppm",
    "driver_peak_rss_mb": "MB",
}


def _mean(acc) -> float | None:
    """Mean of a running ``[sum, count]``; None without samples."""
    return acc[0] / acc[1] if acc[1] else None


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus size factor (the smoke test uses a tiny one)")
    return p.parse_args(argv)


class Loop:
    """Closed-loop driver: counts operations and keeps every sample."""

    def __init__(self, workload, tracer: Tracer):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.job_s: list[float] = []
        self.job_traced: list[bool] = []
        self.turns: list[int] = []
        self.query_ms: list[float] = []
        self.errors: list[str] = []

    def _run(self, fn, timeout_s: float, n_ops: int):
        """Run ``n_ops`` operations as one call under a timeout; an error or
        a timeout fails all of them. A timeout propagates: the run stops."""
        self.attempted += n_ops
        try:
            return call_with_timeout(fn, timeout_s)
        except OpTimeout:
            self.failed += n_ops
            raise
        except Exception:
            self.failed += n_ops
            self.errors.append(traceback.format_exc(limit=3))
            return None

    def iteration(self, traced: bool) -> None:
        self.tracer.enabled = traced

        def job():
            with self.tracer.span("job", workload=self.w.name):
                return self.w.job()

        t0 = time.perf_counter()
        out = self._run(job, self.w.job_timeout_s, 1)
        dt = time.perf_counter() - t0
        if out is not None:
            turns, ok = out
            self.failed += not ok
            self.job_s.append(dt)
            self.job_traced.append(traced)
            self.turns.append(turns)
        n = self.w.queries_per_job
        base = len(self.query_ms)

        def batch():
            lat, oks = [], []
            for i in range(n):
                q0 = time.perf_counter()
                with self.tracer.span("query"):
                    ok = self.w.query(base + i)
                lat.append(1e3 * (time.perf_counter() - q0))
                oks.append(ok)
            return lat, oks

        got = self._run(batch, self.w.query_timeout_s, n)
        if got is not None:
            lat, oks = got
            self.query_ms.extend(lat)
            self.failed += sum(not ok for ok in oks)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(harness.ROOT, harness.PACKAGE)):
        return _fail(f"package {harness.PACKAGE!r} not found next to perfbench/")
    granted = harness.granted_cpus()
    num_cpus = min(harness.MAX_CPUS, granted)
    if num_cpus < harness.MIN_CPUS:
        return _fail(f"needs at least {harness.MIN_CPUS} CPUs, {granted} granted")
    sys.path.insert(0, harness.ROOT)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    run_dir = os.path.join(harness.WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    session = harness.RaySession(num_cpus)
    tracer = Tracer(False)
    hung = False
    try:
        ray_s = session.start()
        w = WORKLOADS[args.workload](args.seed, args.scale, run_dir, tracer)
        setup = w.setup()
        setup_s = ray_s + median(setup["generate_s"]) + setup["oracle_s"] + setup["warmup_s"]
        # the oracle's long-lived objects would otherwise be rescanned by
        # every full collection in the loop: periodic ~80 ms stalls whose
        # cost depends on the seed's corpus, not on the code measured
        gc.collect()
        gc.freeze()

        loop = Loop(w, tracer)
        harness.reset_peak_rss()
        t_end = time.perf_counter() + args.seconds
        k = 0
        try:
            # a traced run needs a traced and an untraced iteration
            while time.perf_counter() < t_end or (args.trace and k < 2):
                # traced runs alternate traced and untraced iterations so
                # the tracing overhead is measured within one session
                loop.iteration(traced=bool(args.trace) and k % 2 == 0)
                k += 1
        except OpTimeout as e:
            hung = True
            loop.errors.append(str(e))
        rss_mb = harness.peak_rss_mb()

        per_layer = {}
        if args.trace and not hung:
            import probes

            per_layer = probes.layer_metrics(w, loop.job_s, loop.job_traced, tracer,
                                             os.path.join(run_dir, "probe_store"), num_cpus)
    finally:
        if not hung:
            session.close()
            shutil.rmtree(run_dir, ignore_errors=True)

    e2e = {
        "setup_s": setup_s,
        "turns_per_s": median(n / t for n, t in zip(loop.turns, loop.job_s)),
        "job_s": median(loop.job_s),
        "query_ms_p50": median(loop.query_ms),
        "support_err_ppm": _mean(w.support_err),
        "driver_peak_rss_mb": rss_mb,
    }
    # every end-to-end figure with its unit and sample count; the result
    # line carries the gated ones (E2E_UNITS), this record all of them
    n_setup, n_jobs, n_q = len(setup["generate_s"]), len(loop.job_s), len(loop.query_ms)
    samples = {"setup_s": n_setup, "turns_per_s": n_jobs, "job_s": n_jobs,
               "query_ms_p50": n_q, "support_err_ppm": w.support_err[1],
               "driver_peak_rss_mb": 1}
    reported = {k: {"value": v, "unit": E2E_UNITS[k], "samples": samples[k]}
                for k, v in e2e.items()}
    reported.update({
        # not gated: the tail moves with the shared host's slow spells
        "query_ms_p90": {"value": percentile(loop.query_ms, 90), "unit": "ms",
                         "samples": n_q},
        # not gated: the error of one HLL estimate per corpus (or of a few
        # overlapping windows) moves by more than any bound when the hash
        # changes, while the estimator's accuracy stays the same
        "distinct_err_ppm": {"value": _mean(w.distinct_err), "unit": "ppm",
                             "samples": w.distinct_err[1]},
        # not gated: 0 when every operation is correct
        "failed_ops_frac": {"value": loop.failed / max(1, loop.attempted),
                            "unit": "fraction", "samples": loop.attempted},
    })
    if w.job_alias:
        reported[w.job_alias] = reported["job_s"]
    correct = loop.failed == 0 and loop.attempted > 0 and not hung
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace,
        "host": harness.host_context(num_cpus),
        "setup": {"ray_start_s": ray_s, **setup},
        "series": {"job_s": loop.job_s, "query_ms": loop.query_ms},
        "drift": {"job_s": harness.drift(loop.job_s),
                  "query_ms": harness.drift(loop.query_ms)},
        "end_to_end": reported,
        "per_layer": per_layer,
        "errors": loop.errors[:5],
    }
    os.makedirs(os.path.join(harness.WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(harness.WORK, "results", stem + ".json"), "w") as f:
        json.dump(detail, f, indent=1)
    if args.trace:
        with open(os.path.join(harness.WORK, "results", stem + ".spans.json"), "w") as f:
            json.dump(tracer.spans, f)
    for err in loop.errors[:3]:
        print(err, file=sys.stderr)

    summary = {k: detail[k] for k in ("workload", "seed", "host", "drift", "end_to_end")}
    print(json.dumps(summary))
    metrics = per_layer if args.trace else {k: {"value": v, "unit": E2E_UNITS[k]}
                                            for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    sys.stdout.flush()
    if hung:
        # a timed-out call may still hold the Ray session; stop it without
        # waiting on that thread
        try:
            call_with_timeout(session.close, 60)
        except OpTimeout:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
        os._exit(1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
