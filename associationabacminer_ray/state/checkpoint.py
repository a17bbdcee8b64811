"""Per-partition sketch checkpointing with lineage + resume.

The reference's resume story is idempotent job skipping
(``src/job/job_executor.py:101-106,121-125``) plus a dynamic-params memo
cache (``src/eval/EnvPolicyEvaluator.py:59-93``). Here (SURVEY.md §4,
"Checkpoint / resume"): every input shard's partial sketch state is one
parquet file

    ckpt_dir/part-{config_hash}-{partition_id:05d}.parquet
      columns: name, blob                 (one row per sketch)
      + lineage columns: partition_id, input_files (json),
        row_count, config_hash, wall_s

written atomically (tmp + rename). The file name carries the config
hash, so listing a directory's finished partitions for one config
(``completed_partitions``) opens no file, and a file of another config
— or of the older ``part-{partition_id:05d}.parquet`` naming — is never
listed, so its partition is recomputed. Resume = load blobs for
finished partitions, recompute only the missing ones, merge everything
— **sound because every sketch merge is associative/commutative**, so
"merge(checkpointed partials + recomputed partials)" equals the
uninterrupted run bit-for-bit (CMS/HLL/Bloom) or within bound
(t-digest/KLL).

Fail loud: a listed file is read through ``read_partition``, which
raises ``ValueError`` naming the file when it cannot be read or its
embedded ``config_hash`` disagrees with its name. Such a file is never
taken for "not built" and never merged. A caller that keeps the file's
bytes (the daily store's window cache compares them) reads them with
``partition_bytes`` and hands them to ``read_partition``, so a file is
opened once and checked by the same code either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Iterable, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

from ..sketches import Sketch


def config_hash(config: dict) -> str:
    """Stable 10-char content hash of a config dict (the reference's
    base64(SHA1(sorted-JSON))[:10] idiom, src/job/job_generator.py:32)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha1(blob).hexdigest()[:10]


def _part_path(ckpt_dir: str, cfg_hash: str, pid: int) -> str:
    return os.path.join(ckpt_dir, f"part-{cfg_hash}-{pid:05d}.parquet")


def write_partition(ckpt_dir: str, pid: int, sketches: dict[str, Sketch],
                    input_files: Sequence[str], row_count: int,
                    cfg_hash: str, wall_s: float | None = None) -> str:
    """Atomic write: a per-writer tmp file + rename, so a killed run
    never leaves a half-written partition that resume would trust, and
    concurrent writers of one partition leave one whole file. ``wall_s``
    is the partition's compute wall time — the per-partition metric record
    (straggler/skew diagnosis on resume: a partition whose recompute
    takes 10x its neighbors is a skewed shard)."""
    os.makedirs(ckpt_dir, exist_ok=True)
    path = _part_path(ckpt_dir, cfg_hash, pid)
    # one tmp name per writer: two writers of a partition (two processes
    # building the same store days) must not write into one file; as no
    # later writer reuses the name, a failed write removes its own tmp
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
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
    try:
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


def completed_partitions(ckpt_dir: str, cfg_hash: str) -> dict[int, str]:
    """partition_id -> file for the finished partitions of a config,
    from the directory listing alone (no file is opened)."""
    if not os.path.isdir(ckpt_dir):
        return {}
    prefix, suffix = f"part-{cfg_hash}-", ".parquet"
    out: dict[int, str] = {}
    for fname in sorted(os.listdir(ckpt_dir)):
        pid = fname[len(prefix):-len(suffix)]
        if fname.startswith(prefix) and fname.endswith(suffix) and pid.isdecimal():
            out[int(pid)] = os.path.join(ckpt_dir, fname)
    return out


def partition_bytes(path: str) -> bytes:
    """The whole content of a listed partition file; a file that cannot
    be read raises ``ValueError`` naming it."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"unreadable checkpoint partition {path}: {exc}") from exc


def read_partition(path: str, cfg_hash: str,
                   columns: Sequence[str] = ("name", "blob"),
                   data: bytes | None = None) -> pa.Table:
    """``columns`` of a listed partition file, after checking that every
    row's embedded ``config_hash`` is the one its name carries; an
    unreadable or stale file raises ``ValueError`` naming it. ``data``
    is the file's content when the caller has read it already
    (``partition_bytes``); then only those bytes are parsed."""
    want = [*columns, "config_hash"]
    if data is None:
        data = partition_bytes(path)
    try:
        with pq.ParquetFile(pa.BufferReader(data)) as f:
            tbl = f.read(columns=want)
    except (OSError, pa.ArrowException) as exc:
        raise ValueError(f"unreadable checkpoint partition {path}: {exc}") from exc
    missing = set(want) - set(tbl.column_names)
    if missing:
        raise ValueError(f"checkpoint partition {path} lacks columns {sorted(missing)}")
    found = set(tbl.column("config_hash").to_pylist())
    if found - {cfg_hash}:
        raise ValueError(f"checkpoint partition {path} embeds config_hash "
                         f"{sorted(found)}, not {cfg_hash!r}")
    return tbl


def merge_blobs(names: Iterable[str], blobs: Iterable[bytes],
                merged: dict[str, Sketch]) -> None:
    """Fold serialized sketches into ``merged`` by name, in order: per
    name, one ``Sketch.fold`` of ``merged``'s sketch (if it has one) and
    the name's blobs, decoded as the fold takes them, so the result is
    the left fold in which the first blob of a name seeds it and later
    ones merge in. ``merged``'s sketches are replaced, not changed. The
    blob fold of checkpoint resume and of the itemset sketch partial
    folds (``pipelines.itemsets``); daily-store window queries fold
    cached decodes in the same order (``state.incremental``)."""
    by_name: dict[str, list[bytes]] = {}
    for name, blob in zip(names, blobs):
        by_name.setdefault(name, []).append(blob)
    for name, group in by_name.items():
        decodes = (Sketch.from_bytes(bytes(blob)) for blob in group)
        merged[name] = Sketch.fold(
            itertools.chain([merged[name]], decodes) if name in merged else decodes)


def run_with_checkpoint(
    input_files: Sequence[str],
    ckpt_dir: str,
    compute_partition: Callable[[int, str], tuple[dict[str, Sketch], int]],
    config: dict,
) -> dict:
    """Compute-or-load every input shard's partial sketches, then merge.

    ``compute_partition(pid, path) -> (sketches, row_count)`` runs the
    actual (Ray or local) pipeline for one shard. Already-checkpointed
    shards are skipped entirely — the resume contract of FIXTURES §F5.
    Returns the merged sketches by name plus ``"row_count"``, the sum of
    every partition's ``row_count`` (read back from the files of
    skipped shards).
    """
    cfg = config_hash(config)
    done = completed_partitions(ckpt_dir, cfg)
    merged: dict[str, Sketch] = {}
    total_rows = 0

    for pid, path in enumerate(input_files):
        if pid in done:
            tbl = read_partition(done[pid], cfg,
                                 ("name", "blob", "input_files", "row_count"))
            # lineage check: a reordered/extended file list must NOT let a
            # positional match absorb another shard's blobs
            if (tbl.num_rows and json.loads(tbl.column("input_files")[0].as_py())
                    == [str(path)]):
                merge_blobs(tbl.column("name").to_pylist(),
                            tbl.column("blob").to_pylist(), merged)
                total_rows += tbl.column("row_count")[0].as_py()
                continue
        t0 = time.perf_counter()
        sketches, row_count = compute_partition(pid, path)
        write_partition(ckpt_dir, pid, sketches, [path], row_count, cfg,
                        wall_s=time.perf_counter() - t0)
        # merge decoded copies: the caller's sketch objects stay unaliased
        merge_blobs(sketches.keys(), [s.to_bytes() for s in sketches.values()], merged)
        total_rows += row_count
    return {**merged, "row_count": total_rows}
