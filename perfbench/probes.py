"""Per-layer isolation probes for the traced run.

Ray Data is lazy, so a span around a pipeline call covers all the
upstream work it pulls. The probes therefore time each public layer
function on its own, on materialized input taken from the workload's
corpus, inside named spans. Every traced run measures every layer, so
each workload reports the full per-layer set on its own input.
"""

from __future__ import annotations

import os
import shutil
from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from harness import Tracer, median
from workloads import START, job_window

CMS_WIDTH, CMS_DEPTH, TOPK_CAPACITY, HLL_P = 1 << 13, 4, 4096, 14
WINDOW_DAYS = 7
# the window layers are probed on the first shards holding about this many
# turns (the size of the window_job corpus), so that a traced run of the
# larger supports_sketch corpus stays well inside its time limit
WINDOW_PROBE_TURNS = 200_000


def _sum(tracer: Tracer, name: str) -> float:
    return float(sum(tracer.durations(name)))


def _first_shards(paths: list[str], turns: int) -> list[str]:
    """The shortest prefix of ``paths`` holding at least ``turns`` rows (all
    of them if they hold fewer)."""
    total = 0
    for n, path in enumerate(paths, 1):
        total += pq.ParquetFile(path).metadata.num_rows
        if total >= turns:
            return paths[:n]
    return paths


def sketch_layers(paths: list[str], tracer: Tracer) -> dict:
    """``process_shard``'s steps, one shard at a time, in this process."""
    from associationabacminer_ray.functions.hashing import hash_strings
    from associationabacminer_ray.sketches import CountMinSketch, HyperLogLog, SpaceSaving
    from associationabacminer_ray.stages.transactionize import (
        itemset_partials_from_codes,
        read_shard_codes,
    )

    turns = distinct_tx = itemsets = blob_bytes = convs = 0
    corpus_hll = HyperLogLog(p=HLL_P)
    for path in paths:
        with tracer.span("transactionize.read_shard_codes"):
            conv_codes, item_codes, item_vocab, conv_vocab = read_shard_codes(path)
        with tracer.span("transactionize.partials"):
            partial = itemset_partials_from_codes(conv_codes, item_codes, item_vocab,
                                                  max_k=2, max_transaction_items=64)
        turns += len(conv_codes)
        itemsets += len(partial)
        pairs = pd.DataFrame({"c": conv_codes, "i": item_codes}).drop_duplicates()
        sets = pairs.sort_values(["c", "i"]).groupby("c")["i"].agg(tuple)
        distinct_tx += sets.nunique()
        cms = CountMinSketch(width=CMS_WIDTH, depth=CMS_DEPTH)
        topk = SpaceSaving(capacity=TOPK_CAPACITY)
        hll = HyperLogLog(p=HLL_P)
        counts = partial["count"].to_numpy()
        used = np.unique(conv_codes)
        convs += len(used)
        with tracer.span("hashing.hash_strings"):
            hashes = hash_strings(partial["itemset"])
            conv_hashes = hash_strings(conv_vocab[used])
        with tracer.span("sketches.cms_update"):
            cms.update_hashed(hashes, counts)
        with tracer.span("sketches.topk_update"):
            topk.update(partial["itemset"].tolist(), counts)
        with tracer.span("sketches.hll_update"):
            hll.update_hashed(conv_hashes)
        with tracer.span("sketches.to_bytes"):
            blobs = [cms.to_bytes(), topk.to_bytes(), hll.to_bytes()]
        blob_bytes += sum(len(b) for b in blobs)
        corpus_hll.merge(hll)
    layers = ("transactionize.read_shard_codes", "transactionize.partials",
              "hashing.hash_strings", "sketches.cms_update", "sketches.topk_update",
              "sketches.hll_update", "sketches.to_bytes")
    out = {f"{name}_s": _sum(tracer, name) for name in layers}
    out.update({"transactionize.turns_in": turns, "transactionize.distinct_tx": distinct_tx,
                "transactionize.itemsets_out": itemsets, "sketches.blob_bytes": blob_bytes,
                # shards hold disjoint conversations, so the per-shard
                # distinct counts sum to the exact corpus count
                "sketches.hll_err_ppm": 1e6 * abs(corpus_hll.estimate() - convs) / convs})
    return out


def window_layers(paths: list[str], spec, cfg, tracer: Tracer) -> dict:
    """One job's layers, each on materialized input."""
    from associationabacminer_ray.functions.windows import read_window
    from associationabacminer_ray.pipelines.evaluate import policy_allows, score_policy_ray
    from associationabacminer_ray.pipelines.itemsets import (
        exact_itemset_supports,
        split_tx_count,
        transactions,
    )
    from associationabacminer_ray.pipelines.mining import mine_window
    from associationabacminer_ray.pipelines.rules import (
        extract_constant_items,
        rules_from_supports,
    )

    cols = ["conv_id", "role", "tool"]
    with tracer.span("windows.read_window"):
        obs = read_window(paths, spec, "obs", columns=cols).materialize()
    rows_read = sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
    rows_kept = obs.count()
    with tracer.span("itemsets.transactions"):
        transactions(obs, num_buckets=cfg.num_buckets).count()
    with tracer.span("itemsets.exact_supports"):
        sup = exact_itemset_supports(obs, max_k=cfg.max_k, num_buckets=cfg.num_buckets,
                                     min_support=cfg.min_support,
                                     include_tx_count=True).to_pandas()
    supports, n_tx = split_tx_count(sup)
    supports, _ = extract_constant_items(supports, n_tx)
    with tracer.span("rules.from_supports"):
        rules = rules_from_supports(supports, n_transactions=n_tx,
                                    min_support=cfg.min_support, beta=cfg.beta)
    with tracer.span("mining.mine_window"):
        mw = mine_window(paths, spec, mode="exact", max_k=cfg.max_k,
                         min_support=cfg.min_support, num_buckets=cfg.num_buckets,
                         top_rules=cfg.top_rules, beta=cfg.beta)
    opr = read_window(paths, spec, "opr", columns=cols)
    opr_tx = transactions(opr, num_buckets=cfg.num_buckets).materialize()
    universe = transactions(obs, num_buckets=cfg.num_buckets).union(opr_tx).materialize()
    with tracer.span("evaluate.score_policy_ray"):
        score_policy_ray(opr_tx, mw["rules"], universe_transactions=universe)
    opr_pd = opr_tx.to_pandas()
    with tracer.span("evaluate.policy_allows"):
        policy_allows(opr_pd, mw["rules"])
    layers = ("windows.read_window", "itemsets.transactions", "itemsets.exact_supports",
              "rules.from_supports", "mining.mine_window", "evaluate.score_policy_ray",
              "evaluate.policy_allows")
    out = {f"{name}_s": _sum(tracer, name) for name in layers}
    out.update({"windows.rows_kept_ratio": rows_kept / rows_read,
                "rules.n_rules": int(len(rules))})
    return out


def store_layers(paths: list[str], start, store, read_start, probe_dir: str,
                 tracer: Tracer) -> dict:
    """One day build's layers, then one 7-day window read's layers.

    ``store`` is the workload's ``DailySketchStore``, whose window starts
    at ``read_start``; without one, the probe stores seven copies of the
    probed day under its own config so the read side has a full window."""
    from associationabacminer_ray.functions.windows import WindowSpec, read_window
    from associationabacminer_ray.pipelines.itemsets import sketched_itemset_supports
    from associationabacminer_ray.sketches import Sketch
    from associationabacminer_ray.state.checkpoint import (
        completed_partitions,
        write_partition,
    )
    from associationabacminer_ray.state.incremental import DailySketchStore, add_conv_day

    spec = WindowSpec(start, start + timedelta(days=1), start, start)
    day = (read_window(paths, spec, "obs", columns=["conv_id", "role", "tool", "ts"])
           .map_batches(add_conv_day, batch_format="pandas").materialize())
    with tracer.span("itemsets.sketched_supports"):
        res = sketched_itemset_supports(day, conv_col="conv_day", max_k=2,
                                        max_transaction_items=64, cms_width=CMS_WIDTH,
                                        cms_depth=CMS_DEPTH, topk_capacity=TOPK_CAPACITY,
                                        hll_p=HLL_P, num_buckets=16)
    sketches = {"cms": res["cms"], "topk": res["topk"], "hll": res["hll"]}
    shutil.rmtree(probe_dir, ignore_errors=True)
    with tracer.span("checkpoint.write_partition"):
        part = write_partition(probe_dir, start.toordinal(), sketches, list(paths), 0, "probe")
    bytes_per_day = os.path.getsize(part)

    if store is None:
        store, read_start = DailySketchStore(probe_dir), start
        for d in range(WINDOW_DAYS):
            write_partition(probe_dir, (start + timedelta(days=d)).toordinal(), sketches,
                            list(paths), 0, store.cfg)
    for _ in range(5):
        with tracer.span("checkpoint.completed_partitions"):
            done = completed_partitions(store.store_dir, store.cfg)
    n_files = sum(1 for f in os.listdir(store.store_dir)
                  if f.startswith("part-") and f.endswith(".parquet"))
    blobs = []
    for d in range(WINDOW_DAYS):
        tbl = pq.read_table(done[(read_start + timedelta(days=d)).toordinal()],
                            columns=["name", "blob"]).to_pandas()
        blobs.append([bytes(b) for b in tbl["blob"]])
    for _ in range(5):
        with tracer.span("sketches.from_bytes"):
            days = [[Sketch.from_bytes(b) for b in row] for row in blobs]
        with tracer.span("sketches.merge"):
            merged = days[0]
            for row in days[1:]:
                for acc, sk in zip(merged, row):
                    acc.merge(sk)
        with tracer.span("incremental.window_sketches"):
            store.window_sketches(read_start, read_start + timedelta(days=WINDOW_DAYS))
    ms = {name: 1e3 * median(tracer.durations(name))
          for name in ("checkpoint.completed_partitions", "sketches.from_bytes",
                       "sketches.merge", "incremental.window_sketches")}
    return {
        "itemsets.sketched_supports_s": _sum(tracer, "itemsets.sketched_supports"),
        "checkpoint.write_partition_s": _sum(tracer, "checkpoint.write_partition"),
        "checkpoint.bytes_per_day": bytes_per_day,
        "checkpoint.completed_partitions_ms": ms["checkpoint.completed_partitions"],
        # completed_partitions opens every stored day, then the window
        # reads its own days again
        "checkpoint.files_read_per_query": n_files + WINDOW_DAYS,
        "sketches.from_bytes_ms": ms["sketches.from_bytes"],
        "sketches.merge_ms": ms["sketches.merge"],
        "incremental.window_sketches_ms": ms["incremental.window_sketches"],
    }


def layer_metrics(w, job_s: list[float], job_traced: list[bool], tracer: Tracer,
                  probe_dir: str, num_cpus: int) -> dict:
    """Every per-layer metric with its unit: isolation probes of each layer
    on the workload's corpus, plus the tracing overhead of the loop."""
    from associationabacminer_ray.pipelines.itemsets import itemset_supports_partitioned

    tracer.enabled = True
    out = {}
    out.update(sketch_layers(w.paths, tracer))
    spec, cfg = job_window()
    out.update(window_layers(_first_shards(w.paths, WINDOW_PROBE_TURNS), spec, cfg, tracer))
    out.update(store_layers(w.paths, START, getattr(w, "store", None),
                            getattr(w, "first_day", None), probe_dir, tracer))
    # the supports pass as the user runs it, and what the layer probes
    # cannot account for at this CPU count (Ray Data scheduling + merges)
    for _ in range(3):
        with tracer.span("itemsets.partitioned_probe"):
            itemset_supports_partitioned(w.paths, mode="sketch", max_k=2)
    wall = median(tracer.durations("itemsets.partitioned_probe"))
    busy = sum(out[f"{n}_s"] for n in (
        "transactionize.read_shard_codes", "transactionize.partials", "hashing.hash_strings",
        "sketches.cms_update", "sketches.topk_update", "sketches.hll_update",
        "sketches.to_bytes"))
    out["itemsets.partitioned_s"] = wall
    out["itemsets.unaccounted_s"] = wall - busy / num_cpus

    traced = [t for t, on in zip(job_s, job_traced) if on]
    plain = [t for t, on in zip(job_s, job_traced) if not on]
    out["trace.overhead_pct"] = (100.0 * (median(traced) - median(plain)) / median(plain)
                                 if traced and plain else float("nan"))
    return {k: {"value": float(v), "unit": _unit(k)} for k, v in out.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_per_day"):
        return "bytes"
    if name.endswith("_ppm"):
        return "ppm"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
