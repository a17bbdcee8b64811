"""Space-saving top-k — mergeable heavy hitters.

Replaces the reference's exact itemset count-threshold top-k
(``src/EnvAbacRuleMiner.py:234-247`` keeps top ``itemset_limit`` itemsets
by count) and the incremental top-500 truncation
(``src/eval/EnvOverassignmentCalculator.py:191-196``).

Metwally et al. 2005 Space-Saving with weighted updates; merge per the
mergeable-summaries construction (Agarwal et al. 2012): when a key is
absent from one summary, that summary's minimum count is added as the
upper-bound contribution (stored counts remain overestimates:
``true ≤ count ≤ true + err``). Any key with true frequency
> N/capacity is guaranteed present.

The summary is columnar: a key array (``str``/``int`` objects) beside
int64 ``count`` and ``err`` arrays. There is one combine,
``_fold_summaries``, a k-way left fold: ``Sketch.fold`` of k sketches
runs it over all k (a daily-store window folds its days in one call),
``merge`` over two, and ``update`` over the sketch and the batch's
exact counts. It matches keys with ONE ``pd.factorize`` over every
operand's keys, however many operands, and then steps through the
operands on int codes, each step the same pairwise combine with the
same trim to ``capacity`` in ``(-count, str(key))`` order (an ``int``
key before the ``str`` of the same text), so a fold's bytes equal
those of the pairwise merges.

Payload v2 (little-endian, after the ``TOPK`` magic and version byte)::

    u32 capacity | u32 n | i64 total
    i64 count[n] | i64 err[n]
    u32 length[n]               key i's UTF-8 byte length
    u8  tag[n]                  0 = str key, 1 = int key stored as decimal text
    u8  data[sum(length)]       the keys' UTF-8 bytes, back to back

Decoding rebuilds the Arrow string offsets as the running sum of the
lengths and turns the keys into one ``pyarrow`` string array. Lengths,
not offsets, are stored because the checkpoint files' snappy codec
compresses them (an increasing offset array barely compresses).
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pandas.api.types import infer_dtype

from .base import Sketch

_HEAD = struct.Struct("<IIq")  # capacity, n, total


def _check_key(k):
    if isinstance(k, (np.str_, np.integer)):
        k = k.item() if isinstance(k, np.integer) else str(k)
    if not isinstance(k, (str, int)) or isinstance(k, bool):
        raise TypeError(
            f"SpaceSaving keys must be str or int (got {type(k).__name__}"
            f" {k!r}); float keys would collide after int() truncation"
            " in serialization")
    return k


def _key_array(keys) -> np.ndarray:
    """``keys`` as a 1-D object array of ``str``/``int``; numpy scalars
    are unwrapped and any other key type raises ``TypeError``."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind == "U":
        return keys.astype(object)
    arr = np.fromiter(keys, dtype=object)
    if infer_dtype(arr, skipna=False) not in ("string", "empty"):
        arr = np.fromiter((_check_key(k) for k in arr), dtype=object, count=len(arr))
    return arr


def _text(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(str(key) per key, is-str mask)``."""
    if infer_dtype(keys, skipna=False) in ("string", "empty"):
        return keys, np.ones(len(keys), dtype=bool)
    return (np.fromiter((str(k) for k in keys), dtype=object, count=len(keys)),
            np.fromiter((isinstance(k, str) for k in keys), dtype=bool, count=len(keys)))


def _key_order(keys: np.ndarray) -> np.ndarray:
    """Indices sorting ``keys`` by ``str(key)``, an int key first."""
    text, is_str = _text(keys)
    tbl = pa.table({"text": pa.array(text, type=pa.string()), "is_str": is_str})
    return pc.sort_indices(tbl, sort_keys=[("text", "ascending"),
                                           ("is_str", "ascending")]).to_numpy()


def _head_index(count: np.ndarray, k: int, tie_order) -> np.ndarray:
    """Indices, in array order, of the ``k`` entries first in
    ``(-count, str(key))`` order: the ones above the k-th largest count,
    then the ties at that count in key order. ``tie_order(idx)`` gives
    the order of the entries ``idx`` by key."""
    n = len(count)
    cut = np.partition(count, n - k)[n - k]
    above = np.flatnonzero(count > cut)
    tied = np.flatnonzero(count == cut)
    tied = tied[tie_order(tied)[:k - len(above)]]
    return np.sort(np.concatenate([above, tied]))


def _fold_summaries(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]],
                    capacity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The left fold of the summaries ``parts``, each ``(distinct keys,
    count, err, min count)``, as new ``(keys, count, err)`` arrays.

    Each step is the mergeable-summaries combine (Agarwal et al. 2012)
    of the running summary with the next part: a key absent from one
    side gets that side's min count added to its count and error (the
    first part's own min is never used), new keys are appended in the
    part's order, and over ``capacity`` entries the summary trims to its
    head in ``(-count, str(key))`` order. One ``pd.factorize`` over all
    parts' keys turns them into int codes, so a step matches keys with a
    ``code → position`` array, and one key-order rank of the codes,
    made at the first trim, breaks every later tie."""
    codes, uniq = pd.factorize(np.concatenate([p[0] for p in parts]))
    ends = np.cumsum([len(p[0]) for p in parts])
    kept, count, err = codes[:ends[0]], parts[0][1], parts[0][2]
    if len(parts) == 1:
        return uniq[kept], count.copy(), err.copy()
    pos = np.full(len(uniq), -1, dtype=np.intp)
    rank = None
    for (_, c, e, other_min), lo, hi in zip(parts[1:], ends[:-1], ends[1:]):
        n = len(kept)
        min_self = int(count.min()) if n >= capacity else 0
        pos[kept] = np.arange(n)
        at = pos[codes[lo:hi]]
        pos[kept] = -1
        hit = at >= 0
        miss = ~hit
        kept = np.concatenate([kept, codes[lo:hi][miss]])
        new_count = np.empty(len(kept), dtype=np.int64)
        new_err = np.empty(len(kept), dtype=np.int64)
        new_count[:n] = count + other_min
        new_err[:n] = err + other_min
        new_count[at[hit]] += c[hit] - other_min
        new_err[at[hit]] += e[hit] - other_min
        new_count[n:] = c[miss] + min_self
        new_err[n:] = e[miss] + min_self
        if len(kept) > capacity:
            if rank is None:
                rank = np.empty(len(uniq), dtype=np.intp)
                rank[_key_order(uniq)] = np.arange(len(uniq))
            step_rank = rank[kept]
            keep = _head_index(new_count, capacity,
                               lambda tied: np.argsort(step_rank[tied]))
            kept, new_count, new_err = kept[keep], new_count[keep], new_err[keep]
        count, err = new_count, new_err
    return uniq[kept], count, err


class SpaceSaving(Sketch):
    MAGIC = b"TOPK"
    VERSION = 2

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.keys = np.empty(0, dtype=object)
        self.count = np.empty(0, dtype=np.int64)
        self.err = np.empty(0, dtype=np.int64)
        self.total = 0
        self._counters: dict | None = None

    @property
    def counters(self) -> dict[str | int, list[int]]:
        """Read-only ``{key: [count, err]}`` view of the arrays, built on
        first use and cached until the next ``update``/``merge``."""
        if self._counters is None:
            self._counters = {k: [c, e] for k, c, e in zip(
                self.keys.tolist(), self.count.tolist(), self.err.tolist())}
        return self._counters

    # -- update --------------------------------------------------------
    def update(self, keys, counts=None) -> "SpaceSaving":
        """Batch update via the mergeable-summaries construction: the
        batch's exact counts form an error-free summary that is merged in
        — equivalent bounds to per-item Space-Saving eviction but one
        vectorized merge per batch instead of O(n × capacity)."""
        keys = _key_array(keys)
        counts = (np.ones(len(keys), dtype=np.int64) if counts is None
                  else np.asarray(counts).astype(np.int64))
        if len(counts) != len(keys):
            raise ValueError(f"{len(keys)} keys but {len(counts)} counts")
        codes, uniq = pd.factorize(keys)
        if len(uniq) < len(keys):
            summed = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(summed, codes, counts)
            counts = summed
        self.keys, self.count, self.err = _fold_summaries(
            [self._summary(), (uniq, counts, np.zeros(len(uniq), dtype=np.int64), 0)],
            self.capacity)
        self._counters = None
        self.total += int(counts.sum())
        return self

    def _min_count(self) -> int:
        if len(self.count) < self.capacity:
            return 0
        return int(self.count.min())

    def _summary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        return self.keys, self.count, self.err, self._min_count()

    # -- query ---------------------------------------------------------
    def top(self, k: int | None = None) -> list[tuple[str | int, int, int]]:
        """[(key, count_overestimate, err)] sorted by count desc, key asc."""
        n = len(self.keys)
        idx = (_head_index(self.count, k, lambda tied: _key_order(self.keys[tied]))
               if k is not None and 0 < k < n else np.arange(n))
        idx = idx[_key_order(self.keys[idx])]
        idx = idx[np.argsort(-self.count[idx], kind="stable")][:k]
        return list(zip(self.keys[idx].tolist(), self.count[idx].tolist(),
                        self.err[idx].tolist()))

    def estimate_one(self, key) -> int:
        ent = self.counters.get(key)
        return ent[0] if ent is not None else self._min_count()

    # -- merge ---------------------------------------------------------
    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        self._check_mergeable(other, "capacity")
        self.keys, self.count, self.err = _fold_summaries(
            [self._summary(), other._summary()], self.capacity)
        self._counters = None
        self.total += other.total
        return self

    @classmethod
    def _fold(cls, first: "SpaceSaving", rest) -> "SpaceSaving":
        rest = list(rest)
        for other in rest:
            first._check_mergeable(other, "capacity")
        out = cls(capacity=first.capacity)
        out.keys, out.count, out.err = _fold_summaries(
            [first._summary(), *(other._summary() for other in rest)], first.capacity)
        out.total = first.total + sum(other.total for other in rest)
        return out

    # -- serialize -----------------------------------------------------
    def _payload(self) -> bytes:
        n = len(self.keys)
        text, is_str = _text(self.keys)
        _, offsets, data = pa.array(text, type=pa.string()).buffers()
        offsets = np.frombuffer(offsets, dtype=np.int32, count=n + 1)
        return b"".join([
            _HEAD.pack(self.capacity, n, self.total),
            self.count.astype("<i8", copy=False).tobytes(),
            self.err.astype("<i8", copy=False).tobytes(),
            np.diff(offsets).astype("<u4").tobytes(),
            (~is_str).astype(np.uint8).tobytes(),
            memoryview(data)[:offsets[-1]],
        ])

    @classmethod
    def _from_payload(cls, payload: bytes) -> "SpaceSaving":
        cap, n, total = _HEAD.unpack_from(payload)
        off = _HEAD.size
        count = np.frombuffer(payload, dtype="<i8", count=n, offset=off)
        err = np.frombuffer(payload, dtype="<i8", count=n, offset=off + 8 * n)
        off += 16 * n
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(payload, dtype="<u4", count=n, offset=off), out=offsets[1:])
        off += 4 * n
        tags = np.frombuffer(payload, dtype=np.uint8, count=n, offset=off)
        off += n
        if len(payload) - off != offsets[-1] or (tags > 1).any():
            raise ValueError("corrupt SpaceSaving payload")
        offsets = offsets.astype(np.int32)
        text = pa.Array.from_buffers(pa.string(), n, [
            None, pa.py_buffer(offsets), pa.py_buffer(memoryview(payload)[off:])])
        text.validate(full=True)
        keys = text.to_numpy(zero_copy_only=False)
        if tags.any():
            ints = np.flatnonzero(tags)
            keys[ints] = np.fromiter((int(k) for k in keys[ints]), dtype=object,
                                     count=len(ints))
        out = cls(capacity=cap)
        out.keys, out.count, out.err, out.total = keys, count, err, total
        return out
