"""10x+ scale probe for the round-4 query families (VERDICT r4 #6):
``interval_join`` and ``seq_pair_support`` over a replicated 12.8M-event
corpus, ``split_leakage`` over 500k documents, ``semantic_neardup`` over
200k embeddings — each replica offset-keyed so row counts, user counts
and cluster counts all scale linearly (the shape a real 100 TB corpus
has: more users / more clusters, not hotter ones).

Per family: wall time, output rows, throughput, and — where the
pipeline exposes a Dataset — the full per-stage ``ds.stats()`` written
to <out>/<name>_stats.txt. Run ONLY on a healthy host (same membw probe
contract as scale_probe.py); refuses under 2 GB/s unless --force.

Usage:
  python scripts/scale_probe_r4.py [--cpus 32] [--out /tmp/graft_scale_r4]
                                   [--only interval_join,...]
"""

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from scripts.scale_probe import membw_probe  # noqa: E402  (shared probe)

SF_DIR = "/root/testdata/sf0.1"
EVENT_REPLICAS = 128      # 100k -> 12.8M events, 1.5k -> 192k users
DOC_REPLICAS = 100        # 5k -> 500k docs
EMB_REPLICAS = 100        # 2k -> 200k vecs, 10 -> 1000 clusters
UID_OFFSET = 10_000       # > max user_id (1499)
EID_OFFSET = 1_000_000    # > max event_id (99999)
DOC_OFFSET = 10_000_000   # multiple of the split/bench moduli
VEC_OFFSET = 1_000_000
LABEL_OFFSET = 10         # = label cardinality: replicas get fresh clusters


def _replicate(src: str, dest_dir: str, replicas: int, offsets: dict,
               vary_text: bool = False) -> None:
    """One parquet file per replica (resumable partitioned layout).
    Replicas left over from an earlier, larger run are deleted, so the
    directory holds exactly ``replicas`` files."""
    os.makedirs(dest_dir, exist_ok=True)
    for name in os.listdir(dest_dir):
        if (name.startswith("replica_") and name.endswith(".parquet")
                and int(name[len("replica_"):-len(".parquet")]) >= replicas):
            os.remove(os.path.join(dest_dir, name))
    base = pq.read_table(src)
    cols = {c: base[c].to_numpy(zero_copy_only=False) for c in offsets}
    texts = base["text"].to_pylist() if vary_text else None
    for i in range(replicas):
        path = f"{dest_dir}/replica_{i:04d}.parquet"
        if os.path.exists(path):
            continue
        t = base
        for c, off in offsets.items():
            idx = t.schema.get_field_index(c)
            shifted = pa.array(cols[c] + i * off, type=base.schema.field(c).type)
            t = t.set_column(idx, c, shifted)
        if vary_text and i > 0:
            idx = t.schema.get_field_index("text")
            t = t.set_column(idx, "text",
                             pa.array([s + f" r{i}" for s in texts]))
        pq.write_table(t, path)


def build_tables(out: str, ev_r: int = EVENT_REPLICAS,
                 doc_r: int = DOC_REPLICAS,
                 emb_r: int = EMB_REPLICAS) -> str:
    _replicate(f"{SF_DIR}/events.parquet", f"{out}/events.parquet",
               ev_r, {"user_id": UID_OFFSET, "event_id": EID_OFFSET})
    _replicate(f"{SF_DIR}/documents.parquet", f"{out}/documents.parquet",
               doc_r, {"doc_id": DOC_OFFSET}, vary_text=True)
    _replicate(f"{SF_DIR}/embeddings.parquet", f"{out}/embeddings.parquet",
               emb_r, {"vec_id": VEC_OFFSET, "label": LABEL_OFFSET})
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--out", default="/tmp/graft_scale_r4")
    ap.add_argument("--only", default="")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="replica multiplier (use <1 for a smoke run)")
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()

    probe = membw_probe()
    if probe < 2.0 and not args.force:
        print(json.dumps({"refused": "degraded host", "probe_gbs": probe}))
        return 1

    ev_r = max(1, int(EVENT_REPLICAS * args.scale))
    doc_r = max(1, int(DOC_REPLICAS * args.scale))
    emb_r = max(1, int(EMB_REPLICAS * args.scale))
    corpus = build_tables(args.out, ev_r, doc_r, emb_r)

    import ray
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from associationabacminer_ray.runtime import (
        quiet_ray_empty_schema_warnings,
    )
    quiet_ray_empty_schema_warnings()

    from associationabacminer_ray.pipelines.ann import q_semantic_neardup
    from associationabacminer_ray.pipelines.sequence import q_seq_pair_support
    from associationabacminer_ray.pipelines.temporal import q_interval_join
    from associationabacminer_ray.pipelines.text_pipelines import (
        q_split_leakage,
    )

    n_events = ev_r * 100_000
    n_docs = doc_r * 5_000
    n_vecs = emb_r * 2_000

    # (name, thunk, input-row count, unit). Dataset-returning thunks
    # materialize so .stats() covers every stage; DataFrame-returning
    # pipelines collect internally and report wall time + rows.
    families = [
        ("interval_join",
         lambda: q_interval_join(corpus).materialize(), n_events, "events"),
        ("seq_pair_support",
         lambda: q_seq_pair_support(corpus), n_events, "events"),
        ("split_leakage",
         lambda: q_split_leakage(corpus, as_dataset=True).materialize(),
         n_docs, "docs"),
        ("semantic_neardup",
         lambda: q_semantic_neardup(corpus, as_dataset=True).materialize(),
         n_vecs, "vecs"),
    ]
    only = {s for s in args.only.split(",") if s}
    results = {}
    for name, thunk, n_in, unit in families:
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        out = thunk()
        elapsed = time.perf_counter() - t0
        if hasattr(out, "stats"):
            n_out = out.count()
            with open(f"{args.out}/{name}_stats.txt", "w") as fh:
                fh.write(out.stats())
        else:
            n_out = len(out)
        results[name] = {
            "sec": round(elapsed, 3), "rows_out": int(n_out),
            f"{unit}_per_s": round(n_in / elapsed, 1),
        }
        print(json.dumps({"family": name, **results[name]}), flush=True)

    ray.shutdown()
    print(json.dumps({
        "metric": "r4_family_scale_probe", "unit": "sec",
        "n_events": n_events, "n_docs": n_docs, "n_vecs": n_vecs,
        "num_cpus": args.cpus, "probe_gbs": round(probe, 2),
        "families": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
