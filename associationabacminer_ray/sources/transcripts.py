"""Transcripts input table (BASELINE.json ``input_hint``).

Schema: ``(conv_id: string, turn_idx: int32, role: string, text: string,
tool: string, ts: timestamp[us])`` — one row per turn of a multi-turn
conversation / agent transcript.

Two providers:

1. ``synth_transcripts`` / ``write_synth_transcripts`` — deterministic
   synthetic corpus per FIXTURES.md §F1 (seeded, Zipf conversation
   lengths, skewed roles, ~50 Zipf-frequency tools so ``(role, tool)``
   pairs genuinely exercise the salted shuffle, pseudo-text with empty
   and >512-char cases, ≥35-day ts spread for sliding windows). Used by
   pytest and bench; sharded parquet so checkpoint/resume has real
   partitions.

2. ``transcripts_from_events`` — deterministic mapping of the driver's
   read-only ``events`` table onto the transcript schema, mirrored
   exactly by ``TRANSCRIPTS_FROM_EVENTS_SQL`` so DuckDB oracles can
   recompute every transcript pipeline (the correctness gate).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import combine_hashes, hash_strings, splitmix64

U64 = np.uint64

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_ROLES = np.array(["user", "assistant", "system", "tool"], dtype=object)
_ROLE_P = np.array([0.42, 0.40, 0.05, 0.13])
_N_TOOLS = 50
_TOOLS = np.array([f"tool_{i:02d}" for i in range(_N_TOOLS)], dtype=object)
_VOCAB = np.array(
    (
        "the a and of to in for with on is query table scan join filter sort "
        "merge group window hash key row column batch stream data value part "
        "order line small fast slow agg vector count plan stage spill block "
        "shard salt probe build read write flush retry actor task node pool"
    ).split(),
    dtype=object,
)


# first day of the synthetic corpus's ts spread
SYNTH_START = "2024-01-01"


def synth_transcripts(n_convs: int, seed: int = 42, days: int = 40,
                      conv_offset: int = 0) -> pa.Table:
    """Deterministic synthetic transcripts starting on ``SYNTH_START``;
    ``conv_offset`` shifts conv ids so shards generated independently
    never collide."""
    rng = np.random.default_rng(seed + conv_offset)
    lengths = np.minimum(rng.zipf(1.5, size=n_convs), 40).astype(np.int64)
    n = int(lengths.sum())

    conv_ord = np.repeat(np.arange(n_convs), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    turn_idx = (np.arange(n) - starts).astype(np.int32)
    conv_id = np.array([f"conv-{i:08d}" for i in range(conv_offset, conv_offset + n_convs)],
                       dtype=object)[conv_ord]

    role = rng.choice(_ROLES, size=n, p=_ROLE_P)
    role[turn_idx == 0] = np.where(rng.random(np.count_nonzero(turn_idx == 0)) < 0.9,
                                   "user", "system")

    # Zipf-frequency tools; non-tool turns get the 'NONE' marker
    tool_rank = np.minimum(rng.zipf(1.3, size=n), _N_TOOLS) - 1
    tool = _TOOLS[tool_rank]
    has_tool = (role == "tool") | ((role == "assistant") & (rng.random(n) < 0.35))
    tool = np.where(has_tool, tool, "NONE").astype(object)

    # deterministic pseudo-text from (conv_id, turn_idx) content hash
    h = combine_hashes(hash_strings(conv_id), turn_idx.astype(np.uint64))
    n_words = (h % U64(14)).astype(np.int64) + 3
    text = np.full(n, "", dtype=object)
    word_cols = []
    for j in range(16):
        widx = (splitmix64(h ^ U64(j * 7919 + 1)) % U64(len(_VOCAB))).astype(np.int64)
        word_cols.append(_VOCAB[widx])
    for j in range(16):
        mask = n_words > j
        sep = np.where(text[mask] == "", "", " ")
        text[mask] = text[mask] + sep + word_cols[j][mask]
    empty = h % U64(97) == U64(0)
    text[empty] = ""
    long_mask = (h % U64(131) == U64(0)) & ~empty
    if long_mask.any():
        # > 512 chars to exercise the reference's length-flag edge case
        text[long_mask] = [t + " " + (t + " ") * (520 // max(len(t), 1)) for t in text[long_mask]]

    # timestamps: conversation starts spread over `days`, monotone turns
    base = np.datetime64(SYNTH_START, "us")
    conv_start = rng.integers(0, days * 86_400, size=n_convs, dtype=np.int64)
    deltas = rng.integers(1, 120, size=n, dtype=np.int64)
    in_conv = np.cumsum(deltas) - np.repeat(
        (np.cumsum(deltas)[np.cumsum(lengths) - lengths] - deltas[np.cumsum(lengths) - lengths]),
        lengths,
    )
    ts = base + ((conv_start[conv_ord] + in_conv) * 1_000_000).astype("timedelta64[us]")

    return pa.Table.from_arrays(
        [
            pa.array(conv_id, pa.string()),
            pa.array(turn_idx, pa.int32()),
            pa.array(role, pa.string()),
            pa.array(text, pa.string()),
            pa.array(tool, pa.string()),
            pa.array(ts, pa.timestamp("us")),
        ],
        schema=TRANSCRIPT_SCHEMA,
    )


def write_synth_transcripts(out_dir: str, n_convs: int, seed: int = 42,
                            shards: int = 8, days: int = 40) -> list[str]:
    """Sharded deterministic corpus with a manifest; idempotent (cache hit
    when the manifest matches). Returns the shard file paths."""
    meta = {"n_convs": n_convs, "seed": seed, "shards": shards, "days": days, "v": 1}
    manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            if json.load(f) == meta:
                return [os.path.join(out_dir, f"shard-{i:04d}.parquet") for i in range(shards)]
    os.makedirs(out_dir, exist_ok=True)
    per = n_convs // shards
    jobs = []
    for i in range(shards):
        cnt = per if i < shards - 1 else n_convs - per * (shards - 1)
        jobs.append((i, cnt, i * per, os.path.join(out_dir, f"shard-{i:04d}.parquet")))

    def write_one(i: int, cnt: int, offset: int, path: str) -> str:
        tbl = synth_transcripts(cnt, seed=seed, days=days, conv_offset=offset)
        pq.write_table(tbl, path)
        return path

    import ray

    if ray.is_initialized() and shards > 4:
        # each shard is an independent seeded generator → parallel tasks
        remote = ray.remote(num_cpus=1)(write_one)
        paths = ray.get([remote.remote(*j) for j in jobs])
    else:
        paths = [write_one(*j) for j in jobs]
    with open(manifest, "w") as f:
        json.dump(meta, f)
    return paths


# --------------------------------------------------------------------------
# events → transcripts (the SQL-mirrorable mapping used by DuckDB oracles)
# --------------------------------------------------------------------------

TRANSCRIPTS_FROM_EVENTS_SQL = """
SELECT 'conv-' || CAST(user_id AS VARCHAR) AS conv_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1
            AS INTEGER) AS turn_idx,
       event_type AS role,
       props AS text,
       'k' || regexp_extract(props, '[0-9]+') AS tool,
       ts
FROM events
""".strip()


def _events_to_transcript_batch(batch: pd.DataFrame) -> pd.DataFrame:
    out = pd.DataFrame()
    out["conv_id"] = "conv-" + batch["user_id"].astype(str)
    out["role"] = batch["event_type"]
    out["text"] = batch["props"]
    out["tool"] = "k" + batch["props"].str.extract(r"(\d+)", expand=False).fillna("")
    out["ts"] = batch["ts"]
    out["event_id"] = batch["event_id"]
    return out


# buckets of transcripts_from_events' conv_id shuffle (with_turn_idx)
TURN_IDX_BUCKETS = 32


def transcripts_from_events(events_path: str, with_turn_idx: bool = False):
    """Ray Dataset of transcript-schema rows derived from the ``events``
    table. ``with_turn_idx=True`` adds the per-conversation dense turn
    index (requires a bucketed shuffle on conv_id — skip it for
    pipelines that only need (conv_id, role, tool))."""
    import ray.data as rd

    ds = rd.read_parquet(events_path)
    ds = ds.map_batches(_events_to_transcript_batch, batch_format="pandas")
    if not with_turn_idx:
        return ds

    from ..functions.hashing import hash_strings as _hs

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["bucket"] = (_hs(batch["conv_id"])
                           % np.uint64(TURN_IDX_BUCKETS)).astype(np.int32)
        return batch

    def assign_turn_idx(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["conv_id", "ts", "event_id"], kind="mergesort")
        group["turn_idx"] = group.groupby("conv_id", sort=False).cumcount().astype(np.int32)
        return group.drop(columns=["bucket", "event_id"])

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(assign_turn_idx, batch_format="pandas")
    )
