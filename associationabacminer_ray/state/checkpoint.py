"""Per-partition sketch checkpointing with lineage + resume.

The reference's resume story is idempotent job skipping
(``src/job/job_executor.py:101-106,121-125``) plus a dynamic-params memo
cache (``src/eval/EnvPolicyEvaluator.py:59-93``). Here (SURVEY.md §4,
"Checkpoint / resume"): every input shard's partial sketch state is one
parquet file

    ckpt_dir/part-{partition_id}.parquet
      columns: name, blob, rows           (one row per sketch)
      + lineage columns: partition_id, input_files (json),
        row_count, config_hash

written atomically (tmp + rename). Resume = load blobs for finished
partitions, recompute only the missing ones, merge everything —
**sound because every sketch merge is associative/commutative**, so
"merge(checkpointed partials + recomputed partials)" equals the
uninterrupted run bit-for-bit (CMS/HLL/Bloom) or within bound
(t-digest/KLL). A ``config_hash`` mismatch invalidates the whole
checkpoint directory (sketch params/seeds define estimate identity).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Iterable, Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sketches import Sketch


def config_hash(config: dict) -> str:
    """Stable 10-char content hash of a config dict (the reference's
    base64(SHA1(sorted-JSON))[:10] idiom, src/job/job_generator.py:32)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha1(blob).hexdigest()[:10]


def _part_path(ckpt_dir: str, pid: int) -> str:
    return os.path.join(ckpt_dir, f"part-{pid:05d}.parquet")


def write_partition(ckpt_dir: str, pid: int, sketches: dict[str, Sketch],
                    input_files: Sequence[str], row_count: int,
                    cfg_hash: str, wall_s: float | None = None) -> str:
    """Atomic write: tmp file + rename, so a killed run never leaves a
    half-written partition that resume would trust. ``wall_s`` is the
    partition's compute wall time — the per-partition metric record
    (straggler/skew diagnosis on resume: a partition whose recompute
    takes 10x its neighbors is a skewed shard)."""
    os.makedirs(ckpt_dir, exist_ok=True)
    path = _part_path(ckpt_dir, pid)
    tmp = path + ".tmp"
    n = len(sketches)
    tbl = pa.table(
        {
            "name": list(sketches.keys()),
            "blob": [s.to_bytes() for s in sketches.values()],
            "partition_id": [pid] * n,
            "input_files": [json.dumps(list(input_files))] * n,
            "row_count": [row_count] * n,
            "config_hash": [cfg_hash] * n,
            "wall_s": [float(wall_s) if wall_s is not None else -1.0] * n,
        }
    )
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def checkpoint_metrics(ckpt_dir: str) -> pd.DataFrame:
    """Per-partition metrics table from a checkpoint directory: one row
    per partition (partition_id, row_count, wall_s, n_sketches,
    config_hash) — the run's lineage + metrics ledger. Pre-``wall_s``
    checkpoints read as wall_s = -1 (unknown)."""
    rows = []
    if os.path.isdir(ckpt_dir):
        for fname in sorted(os.listdir(ckpt_dir)):
            if not (fname.startswith("part-") and fname.endswith(".parquet")):
                continue
            try:
                t = pq.read_table(os.path.join(ckpt_dir, fname))
            except Exception:
                continue
            if not t.num_rows:
                continue
            first = {c: t.column(c)[0].as_py() for c in
                     ("partition_id", "row_count", "config_hash")}
            wall = (t.column("wall_s")[0].as_py()
                    if "wall_s" in t.column_names else -1.0)
            rows.append((int(first["partition_id"]), int(first["row_count"]),
                         float(wall), t.num_rows, first["config_hash"]))
    return pd.DataFrame(rows, columns=["partition_id", "row_count", "wall_s",
                                       "n_sketches", "config_hash"])


def completed_partitions(ckpt_dir: str, cfg_hash: str,
                         with_inputs: bool = False):
    """partition_id -> file (or (file, input_files)) for finished
    partitions matching the config."""
    out: dict = {}
    if not os.path.isdir(ckpt_dir):
        return out
    for fname in sorted(os.listdir(ckpt_dir)):
        if not (fname.startswith("part-") and fname.endswith(".parquet")):
            continue
        path = os.path.join(ckpt_dir, fname)
        try:
            meta = pq.read_table(
                path, columns=["partition_id", "config_hash", "input_files"])
        except Exception:
            continue  # unreadable/partial → recompute
        if meta.num_rows and meta.column("config_hash")[0].as_py() == cfg_hash:
            pid = int(meta.column("partition_id")[0].as_py())
            if with_inputs:
                out[pid] = (path,
                            json.loads(meta.column("input_files")[0].as_py()))
            else:
                out[pid] = path
    return out


def merge_blobs(names: Iterable[str], blobs: Iterable[bytes],
                merged: dict[str, Sketch]) -> None:
    """Fold serialized sketches into ``merged`` by name, in order: the
    first blob of a name seeds it, later ones merge in. THE blob-merge
    loop of checkpoint resume and window queries."""
    for name, blob in zip(names, blobs):
        sk = Sketch.from_bytes(bytes(blob))
        if name in merged:
            merged[name].merge(sk)
        else:
            merged[name] = sk


def run_with_checkpoint(
    input_files: Sequence[str],
    ckpt_dir: str,
    compute_partition: Callable[[int, str], tuple[dict[str, Sketch], int]],
    config: dict,
) -> dict[str, Sketch]:
    """Compute-or-load every input shard's partial sketches, then merge.

    ``compute_partition(pid, path) -> (sketches, row_count)`` runs the
    actual (Ray or local) pipeline for one shard. Already-checkpointed
    shards are skipped entirely — the resume contract of FIXTURES §F5.
    """
    cfg = config_hash(config)
    done = completed_partitions(ckpt_dir, cfg, with_inputs=True)
    merged: dict[str, Sketch] = {}

    for pid, path in enumerate(input_files):
        if pid in done:
            ck_path, ck_inputs = done[pid]
            # lineage check: a reordered/extended file list must NOT let a
            # positional match absorb another shard's blobs
            if ck_inputs == [str(path)]:
                tbl = pq.read_table(ck_path, columns=["name", "blob"]).to_pandas()
                merge_blobs(tbl["name"], tbl["blob"], merged)
                continue
        t0 = time.perf_counter()
        sketches, row_count = compute_partition(pid, path)
        write_partition(ckpt_dir, pid, sketches, [path], row_count, cfg,
                        wall_s=time.perf_counter() - t0)
        # merge decoded copies: the caller's sketch objects stay unaliased
        merge_blobs(sketches.keys(), [s.to_bytes() for s in sketches.values()], merged)
    return merged
