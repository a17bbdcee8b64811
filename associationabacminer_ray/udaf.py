"""Ray Data ``AggregateFnV2`` wrappers: every sketch as a mergeable UDAF.

This is the engine's core plumbing: a sketch accumulates per *block*
(zero-copy Arrow), partials are combined pairwise by Ray's aggregation
operator (tree merge — valid because sketch merges are associative),
and ``finalize`` either emits the estimate or the serialized register
blob (so downstream stages / checkpoints can keep merging).

Replaces, at 100 TB scale, the reference's driver-resident Python sets
and dicts (``src/eval/EnvPolicyEvaluator.py:192-199`` hash-set unions →
``HllAgg``; ``src/EnvAbacRuleMiner.py:161-168`` FP-growth support dict →
``CmsAgg``/``TopKAgg``; ``src/job/ScoreAggregator.py:45-47`` means-only
scores → ``TDigestAgg``/``KllAgg``).

Usage::

    ds.groupby("item").aggregate(HllAgg("conv_hash", alias="distinct_convs"))
    ds.aggregate(TDigestAgg("value", finalize_quantiles=(0.5, 0.99)))
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data.aggregate import AggregateFnV2
from ray.data.block import Block

from .sketches import (
    BloomFilter,
    CountMinSketch,
    CountSketch,
    DDSketch,
    HyperLogLog,
    KLL,
    Sketch,
    SpaceSaving,
    TDigest,
    ThetaKMV,
)


def block_column(block: Block, col: str) -> np.ndarray:
    """Extract one column of a Ray block (Arrow table or pandas DF) as ndarray."""
    if isinstance(block, pa.Table):
        return block.column(col).to_numpy(zero_copy_only=False)
    if isinstance(block, pd.DataFrame):
        return block[col].to_numpy()
    raise TypeError(f"unsupported block type {type(block)!r}")


def _hash_column(block: Block, col: str) -> np.ndarray:
    """uint64 hash column with nulls DROPPED before conversion.

    An Arrow integer column containing a null converts to float64,
    corrupting every hash > 2^53 in the block — so nulls must come out
    at the Arrow level, not after to_numpy (ignore_nulls=True on the
    AggregateFn does NOT strip them from blocks)."""
    if isinstance(block, pa.Table):
        arr = block.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if arr.null_count:
            arr = arr.drop_null()
        return arr.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
    vals = block[col]
    vals = vals[vals.notna()] if hasattr(vals, "notna") else vals
    return np.asarray(vals).astype(np.uint64, copy=False)


def _check_integral_weights(w: np.ndarray, what: str) -> np.ndarray:
    """Sketch counters are integers; silently truncating 0.7 → 0 would
    zero the whole aggregation. Reject fractional weights loudly."""
    if w.dtype.kind == "f":
        if not np.all(np.mod(w, 1.0) == 0):
            raise ValueError(
                f"{what}: fractional weights would be truncated to int — "
                "scale them to integers first")
    return w.astype(np.int64, copy=False)


class _SketchAgg(AggregateFnV2):
    """Shared scaffolding: zero = fresh sketch, combine = sketch.merge."""

    def __init__(self, on: str, name: str, zero: Callable[[], Sketch],
                 finalizer: Callable[[Sketch], Any] | None):
        self._zero = zero
        self._finalizer = finalizer
        super().__init__(name, zero_factory=zero, on=on, ignore_nulls=True)

    def combine(self, cur: Sketch, new: Sketch) -> Sketch:
        return cur.merge(new)

    def finalize(self, acc: Sketch) -> Any:
        if self._finalizer is None:
            return acc.to_bytes()
        return self._finalizer(acc)

    def _update(self, sketch: Sketch, values: np.ndarray) -> Sketch:  # pragma: no cover
        raise NotImplementedError

    def aggregate_block(self, block: Block) -> Sketch:
        values = block_column(block, self._target_col_name)
        return self._update(self._zero(), values)


class HllAgg(_SketchAgg):
    """Approximate COUNT(DISTINCT col). ``col`` must hold uint64 hashes
    (produce them with ``functions.hashing.hash_any`` in a prior
    ``map_batches``); estimate is rounded to int64."""

    def __init__(self, on: str, p: int = 14, alias: str | None = None,
                 emit_blob: bool = False):
        fin = None if emit_blob else (lambda s: int(round(s.estimate())))
        super().__init__(on, alias or f"hll({on})", lambda: HyperLogLog(p=p), fin)

    def aggregate_block(self, block: Block) -> HyperLogLog:
        return self._zero().update_hashed(_hash_column(block, self._target_col_name))


class CmsAgg(_SketchAgg):
    """Count-min over a uint64 hash column; optional weight column must be
    pre-folded by the caller (pass pre-aggregated (hash,count) rows and
    set ``weight_col``). Finalizes to the serialized sketch blob."""

    def __init__(self, on: str, width: int = 1 << 15, depth: int = 4, seed: int = 7,
                 weight_col: str | None = None, alias: str | None = None):
        self._weight_col = weight_col
        self._key_col = on
        # a weighted agg needs TWO columns; Ray prunes blocks down to `on`,
        # so pass on=None to keep the whole row
        super().__init__(None if weight_col else on, alias or f"cms({on})",
                         lambda: CountMinSketch(width=width, depth=depth, seed=seed),
                         None)

    def aggregate_block(self, block: Block) -> CountMinSketch:
        sk = self._zero()
        if self._weight_col:
            # weighted path: rows must align, so keep nulls out at source
            h = block_column(block, self._key_col)
            if h.dtype.kind == "f":
                raise ValueError("CmsAgg: null-bearing hash column with "
                                 "weights — drop nulls upstream")
            w = _check_integral_weights(
                block_column(block, self._weight_col), "CmsAgg")
            return sk.update_hashed(h.astype(np.uint64, copy=False), w)
        return sk.update_hashed(_hash_column(block, self._target_col_name))


class TopKAgg(_SketchAgg):
    """Space-saving heavy hitters over a key column (str/int values, not
    hashes — keys must survive into the answer). Finalizes to the blob;
    use ``SpaceSaving.from_bytes(...).top(k)`` on the driver."""

    def __init__(self, on: str, capacity: int = 4096, weight_col: str | None = None,
                 alias: str | None = None):
        self._weight_col = weight_col
        self._key_col = on
        # weighted aggs need two columns; on=None disables block pruning
        super().__init__(None if weight_col else on, alias or f"topk({on})",
                         lambda: SpaceSaving(capacity=capacity), None)

    def aggregate_block(self, block: Block) -> SpaceSaving:
        sk = self._zero()
        keys = block_column(block, self._key_col)
        mask = ~pd.isna(keys)  # np.unique raises on None-among-strings
        if self._weight_col:
            w = _check_integral_weights(
                block_column(block, self._weight_col)[mask], "TopKAgg")
            return sk.update(keys[mask].tolist(), w)
        # pre-aggregate within the block: one dict op per DISTINCT key
        uniq, counts = np.unique(keys[mask], return_counts=True)
        return sk.update(uniq.tolist(), counts)


class ThetaAgg(_SketchAgg):
    """Theta/KMV sketch of a uint64 hash column — distinct counting that
    also supports post-hoc set algebra (intersection / difference /
    Jaccard between groups' sketches, ``sketches.theta``). Finalizes to
    the blob by default so the driver can combine per-group sketches;
    ``emit_blob=False`` emits the rounded cardinality estimate instead
    (exact while distinct ≤ k)."""

    def __init__(self, on: str, k: int = 4096, alias: str | None = None,
                 emit_blob: bool = True):
        fin = None if emit_blob else (lambda s: int(round(s.estimate())))
        super().__init__(on, alias or f"theta({on})", lambda: ThetaKMV(k=k), fin)

    def aggregate_block(self, block: Block) -> ThetaKMV:
        return self._zero().update_hashed(_hash_column(block, self._target_col_name))


class CountSketchAgg(_SketchAgg):
    """Count sketch (signed AMS) over a uint64 hash column — unbiased
    point counts plus the F2 second frequency moment (self-join size /
    key concentration) in one pass with NO groupby shuffle. Optional
    ``weight_col`` takes pre-aggregated (hash, count) rows like CmsAgg.
    Finalizes to the blob by default; ``finalize_f2=True`` emits the
    int64 AMS F2 estimate instead (merge-order-exact, hence pinnable)."""

    def __init__(self, on: str, width: int = 1 << 14, depth: int = 5, seed: int = 19,
                 weight_col: str | None = None, alias: str | None = None,
                 finalize_f2: bool = False):
        self._weight_col = weight_col
        self._key_col = on
        fin = (lambda s: np.int64(s.f2_estimate())) if finalize_f2 else None
        # weighted aggs need two columns; on=None disables block pruning
        super().__init__(None if weight_col else on, alias or f"countsketch({on})",
                         lambda: CountSketch(width=width, depth=depth, seed=seed),
                         fin)

    def aggregate_block(self, block: Block) -> CountSketch:
        sk = self._zero()
        if self._weight_col:
            h = block_column(block, self._key_col)
            if h.dtype.kind == "f":
                raise ValueError("CountSketchAgg: null-bearing hash column "
                                 "with weights — drop nulls upstream")
            w = _check_integral_weights(
                block_column(block, self._weight_col), "CountSketchAgg")
            return sk.update_hashed(h.astype(np.uint64, copy=False), w)
        return sk.update_hashed(_hash_column(block, self._target_col_name))


class DDSketchAgg(_SketchAgg):
    """DDSketch over a numeric column — relative-error quantiles whose
    merge is EXACTLY order-independent (integer bucket counts), so
    finalized quantiles are bit-identical across partition splits: the
    pinnable twin of TDigestAgg/KllAgg. Same finalize contract."""

    def __init__(self, on: str, alpha: float = 0.01,
                 finalize_quantiles: tuple[float, ...] | None = None,
                 alias: str | None = None):
        fin = None
        if finalize_quantiles is not None:
            qs = tuple(finalize_quantiles)
            fin = lambda s: {f"q{q}": float(s.quantile(q)) for q in qs}  # noqa: E731
        super().__init__(on, alias or f"ddsketch({on})", lambda: DDSketch(alpha=alpha), fin)

    def _update(self, sketch: DDSketch, values: np.ndarray) -> DDSketch:
        return sketch.update(values.astype(np.float64, copy=False))


class BloomAgg(_SketchAgg):
    """Bloom filter of a uint64 hash column; finalizes to the blob."""

    def __init__(self, on: str, num_bits: int = 1 << 20, num_hashes: int = 5,
                 seed: int = 11, alias: str | None = None):
        super().__init__(on, alias or f"bloom({on})",
                         lambda: BloomFilter(num_bits=num_bits, num_hashes=num_hashes, seed=seed),
                         None)

    def aggregate_block(self, block: Block) -> BloomFilter:
        return self._zero().add_hashed(_hash_column(block, self._target_col_name))


class TDigestAgg(_SketchAgg):
    """t-digest over a numeric column. ``finalize_quantiles`` → a dict of
    quantile estimates; otherwise the serialized blob."""

    def __init__(self, on: str, delta: float = 200.0,
                 finalize_quantiles: tuple[float, ...] | None = None,
                 alias: str | None = None):
        fin = None
        if finalize_quantiles is not None:
            qs = tuple(finalize_quantiles)
            fin = lambda s: {f"q{q}": float(s.quantile(q)) for q in qs}  # noqa: E731
        super().__init__(on, alias or f"tdigest({on})", lambda: TDigest(delta=delta), fin)

    def _update(self, sketch: TDigest, values: np.ndarray) -> TDigest:
        return sketch.update(values.astype(np.float64, copy=False))


class KllAgg(_SketchAgg):
    """KLL over a numeric column. Same finalize contract as TDigestAgg."""

    def __init__(self, on: str, k: int = 200,
                 finalize_quantiles: tuple[float, ...] | None = None,
                 alias: str | None = None):
        fin = None
        if finalize_quantiles is not None:
            qs = tuple(finalize_quantiles)
            fin = lambda s: {f"q{q}": float(s.quantile(q)) for q in qs}  # noqa: E731
        super().__init__(on, alias or f"kll({on})", lambda: KLL(k=k), fin)

    def _update(self, sketch: KLL, values: np.ndarray) -> KLL:
        return sketch.update(values.astype(np.float64, copy=False))


class SketchMergeAgg(AggregateFnV2):
    """Merge a column of already-serialized sketch blobs (binary) into one.

    This is the second phase of the two-phase pattern for partials whose
    count follows Ray's batching: stage 1 emits per-batch blobs
    (``stages.sketch_update``, its one user); stage 2 is a tiny
    groupby-aggregate over those partials — the all-to-all exchange only
    ever moves O(KB) registers, never rows. Its merge order follows the
    block layout, so a trimmed top-k tail does too. Every itemset
    supports path instead folds on the driver in part order
    (``itemsets.merge_itemset_sketch_partials``).
    """

    def __init__(self, on: str = "sketch", alias: str | None = None,
                 emit_blob: bool = True):
        self._emit_blob = emit_blob
        super().__init__(alias or f"merged({on})", zero_factory=lambda: None,
                         on=on, ignore_nulls=True)

    def aggregate_block(self, block: Block) -> Sketch | None:
        blobs = block_column(block, self._target_col_name)
        acc: Sketch | None = None
        for b in blobs:
            if b is None:
                continue
            sk = Sketch.from_bytes(bytes(b))
            acc = sk if acc is None else acc.merge(sk)
        return acc

    def combine(self, cur: Sketch | None, new: Sketch | None) -> Sketch | None:
        if cur is None:
            return new
        if new is None:
            return cur
        return cur.merge(new)

    def finalize(self, acc: Sketch | None) -> Any:
        if acc is None:
            return None
        return acc.to_bytes() if self._emit_blob else acc
