"""Frequent-itemset support counting — exact and sketch modes.

The centerpiece transplant (SURVEY.md §7.0): the reference one-hot
encodes normalized events and runs FP-growth
(``src/EnvAbacRuleMiner.py:161-168``); here a conversation's distinct
``role=tool`` turn-set is the transaction. This module is the one place
that turns itemset partials into supports: one partial builder per
input layout, all counting with
``stages.transactionize.itemset_partials_from_codes``, and one tail per
mode (E = ``merge_exact_itemset_partials``, S =
``merge_itemset_sketch_partials``):

  input layout             partial builder                exact  sketch
  turns Dataset            _conv_bucket_partials          → E    → S
  conv-partitioned shards  process_shard                  → E    → S
  transactions Dataset     rules._batch_itemset_partials  → E    → S

``_conv_bucket_partials`` shuffles distinct (conv, item) pairs on their
conversation's hash bucket; ``process_shard`` reads each shard's
dictionary codes with no shuffle, once for all ``days=``; the greedy
rounds count each batch of one-per-conversation transactions. E sums
(itemset, count) rows over a bucketed exchange; S takes the few sketch
blobs to the driver and folds them there in (name, part) order. Exact
mode is the small-scale oracle; sketch mode is the 100 TB path — all
it moves after the partial builder is fixed-size registers.
"""

from __future__ import annotations

import functools
import operator
from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

from ..functions.hashing import hash_strings
from ..functions.windows import ts_range
from ..runtime import release_freed_heap
from ..sketches import CountMinSketch, HyperLogLog, SpaceSaving
from ..state.checkpoint import merge_blobs, run_with_checkpoint
from ..stages.transactionize import (
    ITEM_SEP,
    distinct_pairs_with_bucket,
    itemset_partials_in_bucket,
    make_items,
    transactions_in_bucket,
)

# the exact supports' columns
_SUPPORTS_SCHEMA = pa.schema([("itemset", pa.string()), ("k", pa.int32()),
                              ("support", pa.int64())])


def sum_by_key_bucketed(ds: Dataset, key_col: str, value_col: str,
                        out_col: str | None = None,
                        num_buckets: int = 64,
                        extra_value_cols: list[str] | None = None) -> Dataset:
    """High-cardinality SUM-by-key.

    Ray's ``groupby(key).aggregate(...)`` pays a per-GROUP Python/slicing
    overhead (~ms each) — catastrophic for 10^5+ distinct keys. This
    instead shuffles on ``hash(key) % num_buckets`` and runs a vectorized
    pandas groupby inside each bucket group: per-group cost becomes
    C-level, per-bucket cost one Python call.
    """
    out_col = out_col or value_col

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            _mb=(hash_strings(b[key_col]) % np.uint64(num_buckets)).astype(np.int32))

    extra = list(extra_value_cols or [])

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(key_col, sort=False)[[value_col] + extra].sum().reset_index()
        out.columns = [key_col, out_col] + extra
        for c in [out_col] + extra:
            out[c] = out[c].astype(np.int64)
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("_mb")
        .map_groups(merge_bucket, batch_format="pandas")
    )


def item_pairs(ds: Dataset, conv_col: str = "conv_id",
               num_buckets: int = 64) -> Dataset:
    """transcripts → distinct (conv_id, item, bucket) pairs (pre-shuffle combiner)."""
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return distinct_pairs_with_bucket(make_items(batch), conv_col, "item",
                                          num_buckets)

    return ds.select_columns([conv_col, "role", "tool"]).map_batches(
        fn, batch_format="pandas")


def _conv_bucket_partials(ds: Dataset, body, conv_col: str = "conv_id",
                          num_buckets: int = 64) -> Dataset:
    """THE partial builder of an un-partitioned turns Dataset: distinct
    ``(conv, item)`` pairs shuffled on their conversation's hash bucket,
    then ``body(group)`` once per bucket — every conversation's items
    meet in one group."""
    # Ray's sort-based exchange cost scales with INPUT BLOCK COUNT, not
    # bytes (PERF #26/#29): the exploded pair rows inherit the read's
    # block count with collapsed block sizes. Coalescing them measured
    # 15.3 s → 8.9 s for the pair groupby on the 20 M-turn bench corpus
    # at 32 CPUs — results unchanged (group membership is
    # layout-independent).
    pairs = item_pairs(ds, conv_col=conv_col, num_buckets=num_buckets)
    return (pairs.repartition(max(32, num_buckets)).groupby("bucket")
            .map_groups(body, batch_format="pandas"))


def transactions(ds: Dataset, num_buckets: int = 64) -> Dataset:
    """One row per conversation: (conv_id, items) with items = sorted
    distinct role=tool strings joined by ',' (FIXTURES.md §F2)."""
    return _conv_bucket_partials(ds, transactions_in_bucket,
                                 num_buckets=num_buckets)


# buckets of distinct_count_exact's shuffle of unique hashes
DISTINCT_BUCKETS = 64


def distinct_count_exact(hash_ds: Dataset) -> int:
    """Exact distinct over a uint64 ``h`` hash Dataset: per-batch unique →
    bucketed per-bucket nunique → sum. Only unique hashes shuffle. THE
    shared distinct-count kernel (universe unions)."""
    def uniq(b: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(b["h"].to_numpy().astype(np.uint64))
        return pd.DataFrame({"h": u, "_b": (u % np.uint64(DISTINCT_BUCKETS))
                             .astype(np.int32)})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [np.int64(g["h"].nunique())]})

    out = (hash_ds.map_batches(uniq, batch_format="pandas")
           .groupby("_b").map_groups(count_bucket, batch_format="pandas")
           .to_pandas())
    return int(out["n"].sum()) if len(out) else 0


# unforgeable in-band key: every real item contains '=' (make_items
# builds role + "=" + tool) and this key contains none
TX_COUNT_KEY = "\x00n_tx"


def split_tx_count(supports: pd.DataFrame) -> tuple[pd.DataFrame, int]:
    """Extract the ``include_tx_count`` sentinel from a supports frame:
    returns (supports without the sentinel, n_transactions). THE one
    place that knows the sentinel shape — callers must not re-implement
    it. Tolerates the column-less frame an empty Dataset produces."""
    if "itemset" not in supports.columns:
        return _SUPPORTS_SCHEMA.empty_table().to_pandas(), 0
    sent = supports["itemset"] == TX_COUNT_KEY
    n_tx = int(supports.loc[sent, "support"].sum())
    return supports[~sent], n_tx


def exact_itemset_supports(ds: Dataset, conv_col: str = "conv_id", max_k: int = 2,
                           num_buckets: int = 64, min_support: int = 1,
                           max_transaction_items: int | None = 64,
                           include_tx_count: bool = False) -> Dataset:
    """(itemset, k, support) with support = #conversations containing the
    itemset. Exact analog of FP-growth counting at min_support.

    ``include_tx_count=True`` rides the distinct-conversation count
    through the SAME shuffle as the supports (one sentinel row per conv
    bucket, k=0, summed like any itemset) instead of a second full
    corpus scan — the row comes back as (TX_COUNT_KEY, k=0, n_tx) and
    is exempt from min_support."""
    def bucket_partials(group: pd.DataFrame) -> pd.DataFrame:
        partial = itemset_partials_in_bucket(
            group, conv_col, "item", max_k=max_k,
            max_transaction_items=max_transaction_items)
        if not include_tx_count:
            return partial
        # conv buckets are disjoint, so the per-bucket distinct-conversation
        # count sums to the global n_transactions in the same shuffle as
        # the supports — no second corpus scan
        n_tx = pd.DataFrame({"itemset": [TX_COUNT_KEY], "k": np.int32(0),
                             "count": np.int64(group[conv_col].nunique(dropna=False))})
        return pd.concat([partial, n_tx], ignore_index=True)

    return merge_exact_itemset_partials(
        _conv_bucket_partials(ds, bucket_partials, conv_col, num_buckets),
        max(8, num_buckets // 2), min_support)


def merge_exact_itemset_partials(partials: Dataset, num_buckets: int,
                                 min_support: int = 1,
                                 with_turn_counts: bool = False) -> Dataset:
    """THE exact tail: ``(itemset, count[, turn_count])`` partial rows →
    ``(itemset, k, support[, turn_support])``. Rows are summed per
    itemset over ``sum_by_key_bucketed`` with ``num_buckets`` buckets,
    ``k`` is read off the itemset name, and itemsets under
    ``min_support`` are dropped. The ``TX_COUNT_KEY`` sentinel row is
    exempt and comes back with k=0."""
    agg = sum_by_key_bucketed(
        partials, "itemset", "count", "support", num_buckets=num_buckets,
        extra_value_cols=["turn_count"] if with_turn_counts else None)
    schema = (_SUPPORTS_SCHEMA.append(pa.field("turn_support", pa.int64()))
              if with_turn_counts else _SUPPORTS_SCHEMA)

    # Arrow blocks out: Ray sizes a pandas block's object column with
    # np.vectorize, which fails and logs an error on a bucket whose
    # itemsets are all under min_support; an Arrow block's size is exact
    def finish(batch: pd.DataFrame) -> pa.Table:
        if batch.empty or "support" not in batch.columns:
            return schema.empty_table()
        sentinel = batch["itemset"] == TX_COUNT_KEY
        out = batch[(batch["support"] >= min_support) | sentinel].rename(
            columns={"turn_count": "turn_support"})
        k = out["itemset"].str.count("\\" + ITEM_SEP) + 1
        out["k"] = k.where(~sentinel, 0).astype(np.int32)
        return pa.Table.from_pandas(out[schema.names], schema=schema,
                                    preserve_index=False)

    return agg.map_batches(finish, batch_format="pandas")


def topk_supports(topk: SpaceSaving, n: int | None = None) -> pd.DataFrame:
    """A merged itemset top-k's head (all of it by default) as an
    ``(itemset, k, support, err)`` frame, heaviest first: ``support`` is
    Space-Saving's overestimate and ``err`` its bound, so
    ``support - err <= true support <= support``."""
    head = pd.DataFrame(topk.top(n), columns=["itemset", "support", "err"])
    head.insert(1, "k", head["itemset"].str.count("\\" + ITEM_SEP) + 1)
    return head.astype({"k": np.int32, "support": np.int64, "err": np.int64})


def _itemset_hash_fn(itemset_hash: str):
    """Resolve the itemset-key hash family: ``"sip"`` (default,
    ``hash_strings``) or ``"poly"`` — the byte-polynomial fold whose
    SQL restatement (``functions/sqlgen.polyhash_select``) lets a
    DuckDB oracle re-derive CMS estimates independently."""
    if itemset_hash == "poly":
        from ..functions.hashing import hash_strings_poly

        return hash_strings_poly
    if itemset_hash != "sip":
        raise ValueError(f"unknown itemset_hash {itemset_hash!r}")
    return hash_strings


#: the sketch-mode partial and result names, in builder order
SKETCH_NAMES = ("cms", "topk", "hll")
#: the sketch-mode functions' default sizes, also the greedy rounds' sizes
DEFAULT_SIZES = dict(cms_width=1 << 13, cms_depth=4, topk_capacity=4096,
                     hll_p=14)


def itemset_sketch_partial(partial: pd.DataFrame, conv_hashes: np.ndarray,
                           n_transactions: int, sizes: dict,
                           hash_itemsets=hash_strings) -> pd.DataFrame:
    """THE sketch-mode partial format: an ``(itemset, count)`` partial
    and the hashes of its distinct conversations → one
    ``(name, blob, n_transactions)`` row per ``SKETCH_NAMES`` sketch
    (CMS + space-saving over itemsets, HLL over conversations). The
    caller adds the int ``part`` column that fixes the merge order.
    ``sizes`` holds ``cms_width``/``cms_depth``/``topk_capacity``/``hll_p``."""
    cms = CountMinSketch(width=sizes["cms_width"], depth=sizes["cms_depth"])
    topk = SpaceSaving(capacity=sizes["topk_capacity"])
    hll = HyperLogLog(p=sizes["hll_p"])
    if len(partial):
        counts = partial["count"].to_numpy()
        cms.update_hashed(hash_itemsets(partial["itemset"]), counts)
        topk.update(partial["itemset"].tolist(), counts)
    hll.update_hashed(conv_hashes)
    return pd.DataFrame({
        "name": list(SKETCH_NAMES),
        "blob": [cms.to_bytes(), topk.to_bytes(), hll.to_bytes()],
        "n_transactions": np.int64(n_transactions),
    })


def merge_itemset_sketch_partials(partials: Dataset, sizes: dict,
                                  n_days: int | None = None):
    """Merge ``itemset_sketch_partial`` rows (plus ``part``) into
    ``{"cms", "topk", "hll", "n_transactions"}``; empty input gives
    fresh zero-state sketches of ``sizes``. With ``n_days`` every row
    also carries an int ``day`` in ``[0, n_days)``, each day's rows merge
    on their own, and the result is a list of ``n_days`` such dicts.

    The driver takes the few partial rows (3 per shard, bucket or batch)
    and folds each day's through ``merge_blobs``: per name, one
    ``Sketch.fold`` in ``part`` order. Space-Saving merges stop
    commuting once the sketch trims, so a fixed order is what makes the
    merged top-k a function of the input rather than of Ray's block
    layout. The decoded partials and the fold's intermediates are freed
    here, but glibc keeps freed heap in the arenas of the threads that
    ran the fold, and without a trim the driver's resident memory grew
    with every job (PERF.md #35, #38); so the merge ends by handing that
    memory back (``release_freed_heap``)."""
    by_day: list[list[dict]] = [[] for _ in range(1 if n_days is None else n_days)]
    for row in sorted(partials.take_all(), key=lambda r: (r["name"], r["part"])):
        by_day[row.get("day", 0)].append(row)
    out = []
    for rows in by_day:
        if rows:  # every partial has a row of each name
            merged: dict = {}
            merge_blobs([r["name"] for r in rows], [r["blob"] for r in rows], merged)
        else:
            merged = {"cms": CountMinSketch(width=sizes["cms_width"], depth=sizes["cms_depth"]),
                      "topk": SpaceSaving(capacity=sizes["topk_capacity"]),
                      "hll": HyperLogLog(p=sizes["hll_p"])}
        out.append({**{name: merged[name] for name in SKETCH_NAMES},
                    # every partial stamps its transaction count on each of its rows
                    "n_transactions": sum(int(r["n_transactions"]) for r in rows
                                          if r["name"] == SKETCH_NAMES[0])})
    release_freed_heap()
    return out if n_days is not None else out[0]


def sketched_itemset_supports(ds: Dataset, conv_col: str = "conv_id", max_k: int = 2,
                              num_buckets: int = 64,
                              max_transaction_items: int | None = 64,
                              cms_width: int = 1 << 13, cms_depth: int = 4,
                              topk_capacity: int = 4096, hll_p: int = 14,
                              itemset_hash: str = "sip",
                              conv_hash: str = "sip") -> dict:
    """Sketch-mode supports: returns
    ``{"cms": CountMinSketch, "topk": SpaceSaving, "hll": HyperLogLog,
       "n_transactions": int}``.

    Per conv-bucket partial blobs (``part`` = bucket id) → the ordered
    fold of ``merge_itemset_sketch_partials``. Estimate itemsets'
    supports with ``cms.estimate_hashed(hash_strings(["a|b", …]))``
    or read the heavy-hitter head from ``topk.top(k)``. ``conv_hash``
    picks the HLL conv-key family — "poly" makes the
    distinct-transaction ESTIMATE SQL-derivable (see
    functions/sqlgen.windowed_sketch_sweep_events_sql)."""
    sizes = dict(cms_width=cms_width, cms_depth=cms_depth,
                 topk_capacity=topk_capacity, hll_p=hll_p)
    ihash = _itemset_hash_fn(itemset_hash)
    chash = _itemset_hash_fn(conv_hash)

    def bucket_sketch_partials(group: pd.DataFrame) -> pd.DataFrame:
        partial = itemset_partials_in_bucket(
            group, conv_col, "item", max_k=max_k,
            max_transaction_items=max_transaction_items,
        )
        out = itemset_sketch_partial(
            partial, chash(group[conv_col].drop_duplicates()),
            group[conv_col].nunique(), sizes, hash_itemsets=ihash)
        return out.assign(part=np.int64(group["bucket"].iloc[0]))

    partials = _conv_bucket_partials(ds, bucket_sketch_partials, conv_col,
                                     num_buckets)
    return merge_itemset_sketch_partials(partials, sizes)


# buckets of the exact tail's exchange on the shard and greedy-round
# paths: the small merge of per-shard or per-batch partials
MERGE_BUCKETS = 32


def itemset_supports_partitioned(paths: list[str], mode: str = "sketch",
                                 conv_col: str = "conv_id", max_k: int = 2,
                                 max_transaction_items: int | None = 64,
                                 min_support: int = 1,
                                 cms_width: int = 1 << 13, cms_depth: int = 4,
                                 topk_capacity: int = 4096, hll_p: int = 14,
                                 with_turn_counts: bool = False,
                                 days: list[datetime] | None = None,
                                 itemset_hash: str = "sip",
                                 conv_hash: str = "sip"):
    """Shuffle-free supports for conv-partitioned input.

    PARTITIONING ASSUMPTION (documented per the custom-operator rule): no
    conversation spans two input files — true for conversation logs
    written per conv-range shard (and for our corpus writer). Then the
    transaction build is embarrassingly parallel: one task per shard
    reads its file, transactionizes, expands itemsets and emits partial
    counts (or sketch blobs, ``part`` = the shard's position in
    ``paths``) that the driver folds; there is no exchange at all. This
    is the 100 TB path: the general shuffle path
    (``exact_/sketched_itemset_supports``) exists for un-partitioned
    input.

    ``days`` (sketch mode only) is an ascending list of distinct
    calendar days at midnight; the result is then one sketch dict per
    day, in that order. Each shard is read once, with the OR of the days'
    ``[day, day + 1 day)`` ``ts`` ranges pushed into the parquet read;
    its turns are split per day, and a day's transaction is one
    conversation's turns of that day, keyed ``conv_id@YYYY-MM-DD`` (the
    ``state.incremental.add_conv_day`` key, so ``DailySketchStore``
    builds all its missing days in one pass with no shuffle). A day
    with no turn gives fresh sketches. ``itemset_hash`` and
    ``conv_hash`` pick the CMS itemset-key and HLL conversation-key
    hash families, as in ``sketched_itemset_supports``: ``"sip"``
    (default) or the SQL-derivable ``"poly"``.

    mode="exact"  → Dataset (itemset, k, support)
    mode="sketch" → {"cms", "topk", "hll", "n_transactions"}, or a list
    of them with ``days``
    """
    import ray.data as rd

    sketch = mode == "sketch"
    sizes = dict(cms_width=cms_width, cms_depth=cms_depth,
                 topk_capacity=topk_capacity, hll_p=hll_p)
    ihash = _itemset_hash_fn(itemset_hash)
    chash = _itemset_hash_fn(conv_hash)
    day_filter = None
    if days is not None:
        if not sketch:
            raise ValueError("days= needs mode='sketch'")
        for day in days:
            if day.time() != datetime.min.time():
                raise ValueError(f"day must be a calendar day at midnight, got {day}")
        if list(days) != sorted(set(days)):
            raise ValueError(f"days must be distinct and ascending, got {days}")
        if not days:
            return []
        day_filter = functools.reduce(operator.or_, (
            ts_range(day, day + timedelta(days=1)) for day in days))
        day_starts = np.array(days, dtype="datetime64[us]")

    def process_shard(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.transactionize import (
            itemset_partials_from_codes,
            read_shard_codes,
        )

        frames = []
        for path, part in zip(batch["path"], batch["part"]):
            if days is None:
                codes = read_shard_codes(path, conv_col)
                groups = [(0, slice(None), "")]
            else:
                codes = read_shard_codes(path, conv_col, filters=day_filter,
                                         ts_col="ts")
                # the pushed-down filter left only turns of some day
                row_day = np.searchsorted(day_starts.astype(codes[4].dtype),
                                          codes[4], side="right") - 1
                groups = [(d, row_day == d, f"@{day:%Y-%m-%d}")
                          for d, day in enumerate(days)]
            conv_all, item_all, item_vocab, conv_vocab = codes[:4]
            for d, rows, conv_suffix in groups:
                conv_codes, item_codes = conv_all[rows], item_all[rows]
                partial = itemset_partials_from_codes(
                    conv_codes, item_codes, item_vocab, max_k=max_k,
                    max_transaction_items=max_transaction_items,
                    with_turn_counts=with_turn_counts and not sketch)
                if not sketch:
                    frames.append(partial)
                    continue
                used = np.unique(conv_codes)
                frames.append(itemset_sketch_partial(
                    partial, chash(conv_vocab[used] + conv_suffix), len(used),
                    sizes, hash_itemsets=ihash).assign(part=np.int64(part),
                                                       day=np.int64(d)))
        return pd.concat(frames, ignore_index=True)

    shards = rd.from_items([{"path": p, "part": i} for i, p in enumerate(paths)])
    partials = shards.map_batches(process_shard, batch_format="pandas",
                                  batch_size=1)
    if sketch:
        return merge_itemset_sketch_partials(
            partials, sizes, None if days is None else len(days))

    return merge_exact_itemset_partials(partials, MERGE_BUCKETS, min_support,
                                        with_turn_counts)


#: the resumable run's sketch sizes, part of its checkpoint config
CHECKPOINT_SIZES = dict(cms_width=1 << 15, cms_depth=4, topk_capacity=4096,
                        hll_p=14)


def sketched_itemset_supports_checkpointed(input_files: list[str], ckpt_dir: str,
                                           max_k: int = 2) -> dict:
    """Resumable sketch-mode supports: one checkpoint partition per input
    shard (FIXTURES §F5), each built by the shuffle-free
    ``itemset_supports_partitioned`` (so shards are conv-partitioned,
    as that path requires) with ``CHECKPOINT_SIZES``. A killed run
    resumes by loading finished shards' blobs and recomputing only the
    rest; merge associativity makes resume == fresh bit-for-bit for
    CMS/HLL (property-tested). ``n_transactions`` is exact: each
    partition stores its shard's count as ``row_count``, and a resumed
    run reads it back."""
    config = {
        "pipeline": "sketched_itemset_supports", "max_k": max_k,
        "conv_col": "conv_id", "max_tx": 64, **CHECKPOINT_SIZES,
        "topk_version": SpaceSaving.VERSION,
    }

    def compute_partition(pid: int, path: str):
        res = itemset_supports_partitioned([path], mode="sketch", max_k=max_k,
                                           **CHECKPOINT_SIZES)
        return {k: res[k] for k in SKETCH_NAMES}, res["n_transactions"]

    merged = run_with_checkpoint(input_files, ckpt_dir, compute_partition, config)
    # shards are conv-partitioned, so their exact counts sum to the total
    merged["n_transactions"] = int(merged.pop("row_count"))
    return merged
