"""Benchmark harness.

HEADLINE: the shuffle-free conv-partitioned itemset sketch pipeline
(CMS + space-saving + HLL supports, BASELINE.md §2) over a
deterministic ~20M-turn transcript corpus — reported as seconds and
turns/sec. Secondary timings: the flat actor-pool sketch-update stage,
the general-input (shuffle) sketch path, exact supports, and a sample
of the oracle-checked queries on ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1).

Prints ONE JSON line. ``--scaling`` re-runs the headline alone in two
fresh processes (default RAY_GRAFT_CPUS=2 then 8 — the N vs 4N cluster
stand-in; this VM's memory bandwidth saturates ~8 string-decoding
workers, so 8→32 measures the hardware, not the engine — see
BASELINE.md) and reports throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pyarrow as pa

BENCH_DIR = "/tmp/graft_bench/tr_2200000"
BENCH_CONVS = 2_200_000
BENCH_SHARDS = 64
# --scaling uses a 4x corpus (~80M turns) so compute dominates the ~1.5s
# fixed session/merge overhead at both CPU levels; cached after first build
SCALE_DIR = "/tmp/graft_bench/tr_8800000"
SCALE_CONVS = 8_800_000
SCALE_SHARDS = 256


def build_corpus(scale: bool = False) -> list[str]:
    from associationabacminer_ray.sources.transcripts import write_synth_transcripts

    if scale:
        return write_synth_transcripts(SCALE_DIR, n_convs=SCALE_CONVS, seed=42,
                                       shards=SCALE_SHARDS)
    return write_synth_transcripts(BENCH_DIR, n_convs=BENCH_CONVS, seed=42,
                                   shards=BENCH_SHARDS)


def run_bench() -> dict:
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from associationabacminer_ray.runtime import (
        quiet_ray_empty_schema_warnings,
    )

    # keep the bench tail clean of the benign Ray-internal empty-schema
    # artifact (typed→typed drift still warns) — see PERF.md #30
    quiet_ray_empty_schema_warnings()

    import ray.data as rd

    from associationabacminer_ray.pipelines import analytics as A
    from associationabacminer_ray.pipelines import relational as R
    from associationabacminer_ray.pipelines.itemsets import (
        itemset_supports_partitioned,
        sketched_itemset_supports,
    )
    from associationabacminer_ray.stages.sketch_update import (
        CategoricalItemSketchUpdater,
        merge_sketch_partials,
    )

    headline_only = (os.environ.get("GRAFT_BENCH_HEADLINE_ONLY", "")
                     .lower() not in ("", "0", "false"))
    paths = build_corpus(scale=headline_only)
    # warm the page cache so we measure compute + shuffle, not first disk
    # read. A bare count() would be served from parquet METADATA without
    # touching data — force a real read of the payload columns.
    n_turns = (
        rd.read_parquet(paths, columns=["conv_id", "role", "tool"])
        .map_batches(lambda t: pa.table({"n": [t.num_rows]}),
                     batch_format="pyarrow")
        .sum("n")
    )

    timings: dict[str, float] = {}

    # ---- flat actor-pool sketch-update stage ------------------------------
    t0 = time.perf_counter()
    if not headline_only:
        partials = rd.read_parquet(paths, columns=["conv_id", "role", "tool"]) \
            .map_batches(CategoricalItemSketchUpdater(num_salts=8),
                         batch_format="pyarrow", batch_size=262144,
                         concurrency=max(2, num_cpus // 2))
        merged = merge_sketch_partials(partials, two_phase=True)
        assert merged["conv_hll"].estimate() > 0
        timings["sketch_update"] = time.perf_counter() - t0

    # ---- HEADLINE: shuffle-free partitioned itemset sketch pipeline -------
    t0 = time.perf_counter()
    res = itemset_supports_partitioned(paths, mode="sketch", max_k=2)
    headline_sec = time.perf_counter() - t0
    assert res["n_transactions"] == (SCALE_CONVS if headline_only else BENCH_CONVS)
    timings["itemset_sketch_partitioned"] = headline_sec

    # general-input (shuffle) paths, for comparison
    t0 = time.perf_counter()
    res2 = None if headline_only else sketched_itemset_supports(
        rd.read_parquet(paths, columns=["conv_id", "role", "tool"]),
        max_k=2, num_buckets=64,
    )
    if not headline_only:
        timings["itemset_supports_sketch_shuffle"] = time.perf_counter() - t0
        assert res2["n_transactions"] > 0
        # ---- north-metric axis 2: support-estimate error vs exact ----
        # The headline's top-k head comes from the merged SPACE-SAVING
        # summary (count = true + bounded overestimate; it never
        # underestimates). Ground truth uses min_support=1 so a rare key
        # in the head is charged against its true support, not 0; the
        # driver pull is bounded by filtering to the head's keys first.
        topk_rows = res["topk"].top()
        topk_keys = {itemset for itemset, _, _ in topk_rows}

        def only_head(b):
            return b[b["itemset"].isin(topk_keys)]

        t0 = time.perf_counter()
        exact_df = (itemset_supports_partitioned(
            paths, mode="exact", max_k=2, min_support=1)
            .map_batches(only_head, batch_format="pandas").to_pandas())
        timings["itemset_supports_exact"] = time.perf_counter() - t0
        exact_map = dict(zip(exact_df["itemset"], exact_df["support"]))
        errs = [est - exact_map.get(itemset, 0)
                for itemset, est, _ in topk_rows]
        n_tx = res["n_transactions"]
        timings["sketch_topk_max_abs_err"] = int(max(errs))
        # pure integer arithmetic (repo convention): floordiv, no float
        timings["sketch_topk_max_rel_err_bp"] = (
            10000 * int(max(errs))) // int(n_tx)
        assert min(errs) >= 0  # space-saving never underestimates

    # ---- full windowed mine (read→supports→rules) on the bench corpus ----
    if not headline_only:
        from datetime import datetime

        from associationabacminer_ray.functions.windows import WindowSpec
        from associationabacminer_ray.pipelines.mining import mine_window

        spec = WindowSpec(datetime(2024, 1, 1), datetime(2024, 1, 15),
                          datetime(2024, 1, 15), datetime(2024, 1, 18))
        t0 = time.perf_counter()
        mw = mine_window(paths, spec, mode="exact", max_k=2, min_support=2,
                         num_buckets=64)
        timings["windowed_mine_exact"] = time.perf_counter() - t0
        assert mw["n_rules"] > 0

    # ---- text-pipeline throughput over the corpus text column -------------
    if not headline_only:
        from associationabacminer_ray.stages.text import TokenStats

        t0 = time.perf_counter()
        text_ds = rd.read_parquet(paths[:8], columns=["conv_id", "text"])
        n_docs = text_ds.map_batches(
            TokenStats, batch_format="pyarrow", batch_size=8192,
            concurrency=max(2, num_cpus // 2),
        ).count()
        dt = time.perf_counter() - t0
        timings["text_stats_stage"] = dt
        timings["text_docs_per_sec"] = round(n_docs / dt, 1)

    # ---- oracle-checked query sample on the sf tables ---------------------
    def consume(x):
        return x.to_pandas() if isinstance(x, rd.Dataset) else x

    if not headline_only:
        from associationabacminer_ray.pipelines import components as C
        from associationabacminer_ray.pipelines import mixture as MX
        from associationabacminer_ray.pipelines import sequence as SQ
        from associationabacminer_ray.pipelines import temporal as TM
        from associationabacminer_ray.pipelines import text_pipelines as TX

    for name, fn in ({} if headline_only else {
        "q1_lineitem": R.q1_lineitem,
        "support_pairs": A.q_support_pairs,
        "user_activity": A.q_user_activity,
        "daily_event_counts": A.q_daily_event_counts,
        # session-wave representatives: sequence packing + islands
        "packed_chunks": MX.q_packed_chunks,
        "user_streaks": SQ.q_user_streaks,
        # graph-family representative (round 4): stream→cells + integer
        # iteration
        "pagerank_tools": C.q_pagerank_tools,
        # round-4 late joins: time-bucket-replicated interval join and
        # the GSP ordered-pair support (combiner → one user shuffle)
        "interval_join": TM.q_interval_join,
        "seq_pair_support": SQ.q_seq_pair_support,
        # round-5: symmetric corpus×corpus window-hash join (10× fix:
        # partial counts instead of a per-group Ray aggregate, PERF #32)
        "split_leakage": TX.q_split_leakage,
    }).items():
        t0 = time.perf_counter()
        consume(fn(sf_dir))
        timings[name] = time.perf_counter() - t0

    # ---- full curation composition over the documents table ---------------
    # (bench exclusion → dedup → quality → lang → decontamination; the
    # LLM-training-data headline — docs/sec over the sf documents table)
    if not headline_only:
        from associationabacminer_ray.pipelines.text_pipelines import (
            q_curation_pipeline,
        )

        t0 = time.perf_counter()
        cur = q_curation_pipeline(sf_dir)
        dt = time.perf_counter() - t0
        n_docs_cur = int(cur["n_docs"].sum())
        timings["curation_pipeline"] = dt
        timings["curation_docs_per_sec"] = round(n_docs_cur / dt, 1)

    probe_min, probe_med = _bandwidth_probe()
    cpu_probe = _cpu_probe()
    nproc_visible = os.cpu_count() or 0
    sched_cpus = _sched_visible_cpus()
    # Probe-normalized headline: these pipelines are memory-bound
    # (BASELINE.md §4), so wall time scales ~1/bandwidth INSIDE the
    # validated 7-15 GB/s band observed across rounds. Outside that
    # band (e.g. a 0.5 GB/s contended gate host) linearity does NOT
    # hold — 1-core contention changes the parallelism story, not just
    # bandwidth — so the probe is CLAMPED to the band edge and the
    # record self-describes with probe_out_of_band so a degraded-host
    # run can never over-credit the normalized number.
    band_lo, band_hi = 7.0, 15.0
    # a CPU-starved host (cgroup quota, heavy co-tenant) can still show
    # an in-band BANDWIDTH probe once files are page-cached — flag the
    # record degraded when EITHER probe is off, so a 1-core gate run
    # can never pass as healthy (observed: bw 7.3 GB/s with
    # sched-visible CPUs = 1)
    out_of_band = (not (band_lo <= probe_med <= band_hi)
                   or cpu_probe < CPU_PROBE_MIN_MOPS
                   or sched_cpus < min(num_cpus, 4))
    probe_clamped = min(max(probe_med, band_lo), band_hi)
    return {
        "metric": "itemset_sketch_partitioned_sec",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "turns": int(n_turns),
        "turns_per_sec": round(n_turns / headline_sec, 1),
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"),
        "num_cpus": num_cpus,
        # machine-state context: this VM's effective memory bandwidth
        # swings ~2x with external load (observed 7-15 GB/s single
        # thread), moving EVERY absolute timing with it — compare
        # ratios within a record, and use this probe across records
        "bw_probe_gbs": probe_med,
        "bw_probe_min_gbs": probe_min,
        "cpu_probe_mops": cpu_probe,
        "nproc_visible": nproc_visible,
        "sched_visible_cpus": sched_cpus,
        "probe_out_of_band": out_of_band,
        "value_probe_normalized_12gbs": round(
            headline_sec * probe_clamped / 12.0, 3),
    }


CPU_PROBE_MIN_MOPS = 100.0  # this VM measures ~300 Mops healthy


def _cpu_probe() -> float:
    """Single-thread integer throughput (Mops) — catches CPU-quota
    starvation the bandwidth probe misses once files are page-cached."""
    import numpy as np

    a = np.arange(2_000_000, dtype=np.int64)
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        ((a * 2654435761) ^ (a >> 13)).sum()
        dt = time.perf_counter() - t0
        best = max(best, 4_000_000 / dt / 1e6)  # ~2 ops/elem x 2M
    return round(best, 1)


def _sched_visible_cpus() -> int:
    """CPUs the scheduler actually grants (cgroup quota / affinity),
    as opposed to the hardware count in /proc/cpuinfo."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bandwidth_probe(samples: int = 3) -> tuple[float, float]:
    """Single-thread streaming-sum bandwidth (GB/s) — a fixed-cost
    (~1 s) measure of the VM's current memory-subsystem state.
    Multi-sample: returns (min, median) so a single contention spike
    can't masquerade as the machine's steady state."""
    import statistics

    import numpy as np

    a = np.ones(250_000_000 // 8)
    vals = []
    for _ in range(samples):
        t0 = time.perf_counter()
        a.sum()
        vals.append(a.nbytes / (time.perf_counter() - t0) / 1e9)
    return round(min(vals), 1), round(statistics.median(vals), 1)


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_HEADLINE_ONLY="1")
        proc = subprocess.run([sys.executable, __file__], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"scaling child (num_cpus={ncpu}) failed "
                               f"with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    lo, hi = (int(x) for x in os.environ.get("GRAFT_SCALE_CPUS", "2,8").split(","))
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "cpus": [lo, hi],
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"turns_per_sec_{lo}": r_lo["turns_per_sec"],
        f"turns_per_sec_{hi}": r_hi["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        # per-leg machine state so a host-tenancy swing between legs
        # is visible in the record itself (BASELINE.md §6 incident)
        f"bw_probe_gbs_{lo}": r_lo.get("bw_probe_gbs"),
        f"bw_probe_gbs_{hi}": r_hi.get("bw_probe_gbs"),
        "probe_out_of_band": bool(r_lo.get("probe_out_of_band")
                                  or r_hi.get("probe_out_of_band")),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()
