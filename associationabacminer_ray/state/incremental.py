"""Incremental per-day sketch store — window queries without recompute.

The reference recomputes every sliding window from scratch
(SURVEY.md §2.9: "each window recomputes"; the dynamic-params cache is
its only cross-window reuse). Sketch mergeability buys the delta
architecture the reference lacks: compute each DAY's partial sketches
once (checkpointed with lineage like any partition), then ANY window =
one fold of its days' sketches — O(days) decodes instead of re-reading
the corpus. A 30-day window stepped by 1 day costs one new day per
step. Listing the store reads file names only (each carries the
store's config hash), so a window opens exactly its own days' files.

Overlapping windows share days, so each store keeps a cache of decoded
days. Its key is a day file's exact content: every query still reads
each window day's whole file and compares the bytes with the cached
copy (no size, mtime or hash stands in for them). Equal bytes reuse the
cached decode; any other bytes are parsed and checked by
``checkpoint.read_partition`` as on a cold read, so a corrupt or stale
file raises ``ValueError`` naming it whether or not its day was cached.
An entry holds the file's bytes and its sketches' decodes, not the
blobs (the decodes hold what they say). Entries of days the listing no
longer shows are dropped on every query, and the least recently used
entries are evicted once the cached file bytes plus the decodes' array
bytes pass ``WINDOW_CACHE_BYTES``. A window is then one ``Sketch.fold``
per sketch name over its days' decodes, in day order.

Input contract: the transcripts source is a list of
conversation-partitioned parquet shards — no conversation spans two
files (``sources.transcripts.write_synth_transcripts`` and the events
transcripts cache write them that way). Days are then built per shard
with no shuffle, all missing days in one pass:
``pipelines.itemsets.itemset_supports_partitioned`` with ``days=``
pushes the OR of the days' ``ts`` ranges into each shard's parquet
read, splits the shard's turns per day, counts and sketches each day's
itemsets, and only the per-shard, per-day blobs are merged, each day on
its own. Each day is still written to its own file.

Transaction unit: ``(conv_id, day)`` — a conversation spanning a day
boundary contributes one transaction per day it touches (this is what
makes daily partials composable; document it when comparing against
whole-window conversation semantics). Under that unit, CMS/HLL merges
are lossless, so windowed estimates from dailies are bit-identical to a
direct window pass with the same ``conv_day`` key (tested). Top-k over
merged dailies is approximate (capacity truncation per day) — kept,
with error bounds carried.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pandas as pd

from ..sketches import Sketch, SpaceSaving
from .checkpoint import (
    completed_partitions,
    config_hash,
    partition_bytes,
    read_partition,
    write_partition,
)

# bound on the file bytes plus decoded array bytes a store's window
# cache holds (a top-k's key strings count as their pointers); a day of
# the benchmark's 20k conversations is ~0.4 MB
WINDOW_CACHE_BYTES = 64 << 20

# every store's CMS depth, HLL precision, largest itemset and
# transaction-size cap; they are in its config hash as before
STORE_CMS_DEPTH = 4
STORE_HLL_P = 14
STORE_MAX_K = 2
STORE_MAX_TX_ITEMS = 64


@dataclass(frozen=True)
class _CachedDay:
    """One day file's exact content and its sketches' decodes. The
    decodes are only ever fold operands, never handed out."""
    data: bytes
    names: list[str]
    sketches: list[Sketch]

    @property
    def nbytes(self) -> int:
        return len(self.data) + sum(
            arr.nbytes for sk in self.sketches for arr in vars(sk).values()
            if isinstance(arr, np.ndarray))


def _day_id(day: datetime) -> int:
    # calendar-date ordinal: timezone/DST-proof (epoch//86400 collides
    # two calendar days on DST spring-forward and varies by host TZ)
    return day.toordinal()


def add_conv_day(batch: pd.DataFrame) -> pd.DataFrame:
    """Derive the store's transaction key, conv_id @ calendar day, as a
    ``conv_day`` column — for shuffle-path reads of store windows (the
    store itself builds the same key per shard)."""
    day = pd.to_datetime(batch["ts"]).dt.strftime("%Y-%m-%d")
    return batch.assign(conv_day=batch["conv_id"] + "@" + day)


class DailySketchStore:
    """Per-day itemset sketches over conversation-partitioned transcripts
    parquet shards, each day built per shard with no shuffle (see the
    module docstring for the input contract)."""

    def __init__(self, store_dir: str, cms_width: int = 1 << 13,
                 topk_capacity: int = 4096, itemset_hash: str = "sip",
                 conv_hash: str = "sip"):
        from ..pipelines.itemsets import _itemset_hash_fn

        self.store_dir = store_dir
        self.params = {
            "cms_width": cms_width, "cms_depth": STORE_CMS_DEPTH,
            "topk_capacity": topk_capacity, "hll_p": STORE_HLL_P,
            "max_k": STORE_MAX_K, "max_tx": STORE_MAX_TX_ITEMS,
            "kind": "daily_itemset_sketches",
            # part of the config hash: flipping either key-hash family
            # must invalidate (not silently reuse) existing day
            # checkpoints
            "itemset_hash": itemset_hash,
            "conv_hash": conv_hash,
            # a top-k blob-format bump must rebuild stored days, not
            # fail to decode them
            "topk_version": SpaceSaving.VERSION,
        }
        self.cfg = config_hash(self.params)
        # resolved once: a support estimate hashes one itemset
        self._hash_itemsets = _itemset_hash_fn(itemset_hash)
        self._days: OrderedDict[int, _CachedDay] = OrderedDict()  # LRU first
        self._days_bytes = 0
        self._lock = threading.Lock()

    def ensure_days(self, paths: list[str], start: datetime, end: datetime) -> int:
        """Compute-and-checkpoint every missing day partial in [start, end)
        from the conversation-partitioned shards ``paths`` and return how
        many days were (re)built. All missing days come from one
        ``itemset_supports_partitioned(days=…)`` call — one read of each
        shard, however many days are missing — and each day is then
        written to its own file. A day's ``row_count`` is its exact
        transaction count; ``wall_s`` is the wall time of the call that
        built it, shared by the days built together."""
        from ..pipelines.itemsets import SKETCH_NAMES, itemset_supports_partitioned

        done = completed_partitions(self.store_dir, self.cfg)
        missing = []
        day = start
        while day < end:
            if _day_id(day) not in done:
                missing.append(day)
            day += timedelta(days=1)
        if not missing:
            return 0
        inputs = [str(path) for path in paths]
        p = self.params
        t0 = time.perf_counter()
        results = itemset_supports_partitioned(
            inputs, mode="sketch", max_k=p["max_k"],
            max_transaction_items=p["max_tx"], cms_width=p["cms_width"],
            cms_depth=p["cms_depth"], topk_capacity=p["topk_capacity"],
            hll_p=p["hll_p"], days=missing, itemset_hash=p["itemset_hash"],
            conv_hash=p["conv_hash"])
        wall_s = time.perf_counter() - t0
        for day, res in zip(missing, results):
            write_partition(self.store_dir, _day_id(day),
                            {k: res[k] for k in SKETCH_NAMES}, inputs,
                            res["n_transactions"], self.cfg, wall_s=wall_s)
        return len(missing)

    def window_sketches(self, start: datetime, end: datetime) -> dict[str, Sketch]:
        """Fold the daily sketches covering [start, end) into new sketches
        that the caller owns. The listing opens no file; then each window
        day's file is read once, in day order, and its bytes are compared
        with the store's cached copy of that day (see the module
        docstring). No query skips reading or checking a file: equal
        bytes reuse the cached decode, other bytes go through
        ``read_partition``'s checks. Each name is one ``Sketch.fold`` of
        the days' decodes in day order — the fold of
        ``checkpoint.merge_blobs``, so the result is byte-identical to
        it."""
        if end <= start:
            raise ValueError(f"empty window [{start:%Y-%m-%d}, {end:%Y-%m-%d})")
        done = completed_partitions(self.store_dir, self.cfg)
        with self._lock:
            for pid in [pid for pid in self._days if pid not in done]:
                self._days_bytes -= self._days.pop(pid).nbytes
        by_name: dict[str, list[Sketch]] = {}
        day = start
        while day < end:
            pid = _day_id(day)
            if pid not in done:
                raise KeyError(f"day {day:%Y-%m-%d} not built (call ensure_days)")
            cached = self._read_day(pid, done[pid])
            for name, sk in zip(cached.names, cached.sketches):
                by_name.setdefault(name, []).append(sk)
            day += timedelta(days=1)
        return {name: Sketch.fold(sketches) for name, sketches in by_name.items()}

    def _read_day(self, pid: int, path: str) -> _CachedDay:
        """Day ``pid``'s file, read whole: the cached entry when its bytes
        are equal, else those bytes parsed, checked, decoded and cached."""
        data = partition_bytes(path)
        with self._lock:
            hit = self._days.get(pid)
            if hit is not None and hit.data == data:
                self._days.move_to_end(pid)
                return hit
        tbl = read_partition(path, self.cfg, data=data)
        day = _CachedDay(data, tbl.column("name").to_pylist(),
                         [Sketch.from_bytes(b) for b in tbl.column("blob").to_pylist()])
        with self._lock:
            old = self._days.pop(pid, None)
            self._days[pid] = day
            self._days_bytes += day.nbytes - (old.nbytes if old else 0)
            # least recently used first; a day over the bound alone goes too
            while self._days_bytes > WINDOW_CACHE_BYTES:
                self._days_bytes -= self._days.popitem(last=False)[1].nbytes
        return day

    def estimate_support(self, window_sketches: dict[str, Sketch],
                         itemset: str) -> int:
        h = self._hash_itemsets(np.array([itemset], dtype=object))
        return int(window_sketches["cms"].estimate_hashed(h)[0])

    def hash_itemsets(self, values) -> np.ndarray:
        """The store's itemset-key hash — reads MUST use the same
        family the day builds used (it is part of the config hash)."""
        return self._hash_itemsets(values)
