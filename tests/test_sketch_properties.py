"""Hypothesis property tests: sketch merge laws hold for ARBITRARY data
and partitionings, not just the fixed corpora in test_sketches."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from associationabacminer_ray.functions.hashing import hash_ints
from associationabacminer_ray.sketches import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    KLL,
    SpaceSaving,
    Sketch,
    TDigest,
)

ints = st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=500)


def _split(values, cuts):
    arr = np.asarray(values, dtype=np.int64)
    idx = sorted(set(min(c, len(arr)) for c in cuts))
    return np.split(arr, idx)


@settings(max_examples=50, deadline=None)
@given(ints, st.lists(st.integers(0, 500), max_size=4))
def test_cms_merge_equals_single_pass(values, cuts):
    single = CountMinSketch(width=256, depth=3)
    arr = np.asarray(values, dtype=np.int64)
    if len(arr):
        single.update_hashed(hash_ints(arr))
    merged = CountMinSketch(width=256, depth=3)
    for part in _split(values, cuts):
        piece = CountMinSketch(width=256, depth=3)
        if len(part):
            piece.update_hashed(hash_ints(part))
        merged.merge(piece)
    assert merged.to_bytes() == single.to_bytes()


@settings(max_examples=50, deadline=None)
@given(ints, st.lists(st.integers(0, 500), max_size=4))
def test_hll_merge_equals_single_pass(values, cuts):
    single = HyperLogLog(p=8)
    if values:
        single.update_hashed(hash_ints(np.asarray(values, dtype=np.int64)))
    merged = HyperLogLog(p=8)
    for part in _split(values, cuts):
        piece = HyperLogLog(p=8)
        if len(part):
            piece.update_hashed(hash_ints(part))
        merged.merge(piece)
    assert merged.to_bytes() == single.to_bytes()


@settings(max_examples=50, deadline=None)
@given(ints, st.lists(st.integers(0, 500), max_size=4))
def test_bloom_merge_equals_single_pass(values, cuts):
    single = BloomFilter(num_bits=1024, num_hashes=3)
    if values:
        single.add_hashed(hash_ints(np.asarray(values, dtype=np.int64)))
    merged = BloomFilter(num_bits=1024, num_hashes=3)
    for part in _split(values, cuts):
        piece = BloomFilter(num_bits=1024, num_hashes=3)
        if len(part):
            piece.add_hashed(hash_ints(part))
        merged.merge(piece)
    assert merged.to_bytes() == single.to_bytes()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=400),
       st.lists(st.integers(0, 400), max_size=3))
def test_quantile_sketches_merge_within_bound(values, cuts):
    data = np.asarray(values, dtype=np.float64)
    float_parts = np.split(data, sorted(set(min(c, len(data)) for c in cuts)))
    for cls, kw in ((TDigest, {"delta": 100}), (KLL, {"k": 64})):
        merged = cls(**kw)
        for part in float_parts:
            piece = cls(**kw)
            if len(part):
                piece.update(part.astype(float))
            merged.merge(piece)
        data_sorted = np.sort(data)
        for q in (0.1, 0.5, 0.9):
            est = merged.quantile(q)
            # tie-aware rank interval: with duplicates the estimate's rank
            # is a range, not a point
            r_lo = np.searchsorted(data_sorted, est, side="left") / len(data)
            r_hi = np.searchsorted(data_sorted, est, side="right") / len(data)
            assert r_lo - 0.35 <= q <= r_hi + 0.35 or len(data) < 10


@settings(max_examples=50, deadline=None)
@given(ints)
def test_serialization_roundtrip_any_state(values):
    arr = np.asarray(values, dtype=np.int64)
    for sk in (CountMinSketch(width=64, depth=2),
               HyperLogLog(p=6),
               BloomFilter(num_bits=256, num_hashes=2)):
        if len(arr):
            if isinstance(sk, BloomFilter):
                sk.add_hashed(hash_ints(arr))
            else:
                sk.update_hashed(hash_ints(arr))
        back = Sketch.from_bytes(sk.to_bytes())
        assert back.to_bytes() == sk.to_bytes()
    ss = SpaceSaving(capacity=8)
    if values:
        ss.update([str(v) for v in values])
    back = Sketch.from_bytes(ss.to_bytes())
    assert back.top() == ss.top()


class _DictSpaceSaving:
    """Dict Space-Saving oracle: per-key ``[count, err]``, the
    mergeable-summaries combine, a trim by ``(-count, str(key))`` with an
    int key before the str of the same text."""

    def __init__(self, capacity):
        self.capacity, self.counters, self.total = capacity, {}, 0

    def min_count(self):
        if len(self.counters) < self.capacity:
            return 0
        return min(c for c, _ in self.counters.values())

    def _combine(self, other, other_min):
        min_self = self.min_count()
        merged = {k: [c + other_min, e + other_min]
                  for k, (c, e) in self.counters.items()}
        for k, (c, e) in other.items():
            if k in self.counters:
                merged[k] = [self.counters[k][0] + c, self.counters[k][1] + e]
            else:
                merged[k] = [c + min_self, e + min_self]
        if len(merged) > self.capacity:
            order = sorted(merged, key=lambda k: (-merged[k][0], str(k),
                                                  isinstance(k, str)))
            merged = {k: merged[k] for k in order[:self.capacity]}
        self.counters = merged

    def update(self, keys, counts):
        batch = {}
        for k, c in zip(keys, counts):
            batch.setdefault(k, [0, 0])[0] += c
        self._combine(batch, 0)
        self.total += sum(counts)

    def merge(self, other):
        self._combine(other.counters, other.min_count())
        self.total += other.total

    def top(self, k=None):
        items = sorted(((key, c, e) for key, (c, e) in self.counters.items()),
                       key=lambda t: (-t[1], str(t[0]), isinstance(t[0], str)))
        return items if k is None else items[:k]


# few distinct keys and small weights: summaries fill, trim and tie at
# the cut; "1" and 1 collide as text, "é" needs multi-byte UTF-8
_ss_key = st.one_of(st.text(alphabet="ab1é", max_size=2), st.integers(-2, 12))
_ss_batch = st.lists(st.tuples(_ss_key, st.integers(0, 4)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16),
       st.lists(st.tuples(st.booleans(), st.lists(_ss_batch, max_size=3)), max_size=6))
def test_spacesaving_matches_dict_oracle(capacity, steps):
    """Random update/merge sequences give the oracle's counters, total
    and top(); every counter brackets the exact count, every absent key
    is bounded by the minimum, and bytes round-trip at each step."""
    sk, oracle = SpaceSaving(capacity), _DictSpaceSaving(capacity)
    exact = Counter()
    for is_merge, batches in steps:
        into, into_oracle = ((SpaceSaving(capacity), _DictSpaceSaving(capacity))
                             if is_merge else (sk, oracle))
        for batch in batches:
            keys, counts = [k for k, _ in batch], [c for _, c in batch]
            into.update(keys, counts)
            into_oracle.update(keys, counts)
            for k, c in batch:
                exact[k] += c
        if is_merge:
            sk.merge(Sketch.from_bytes(into.to_bytes()))
            oracle.merge(into_oracle)
        back = Sketch.from_bytes(sk.to_bytes())
        assert back.to_bytes() == sk.to_bytes()
        sk = back
        assert sk.counters == oracle.counters
        assert sk.total == oracle.total == sum(exact.values())
        assert sk.top() == oracle.top()
        assert sk.top(3) == oracle.top(3)
        for key, true in exact.items():
            ent = sk.counters.get(key)
            if ent is not None:
                assert ent[0] - ent[1] <= true <= ent[0]
            assert true <= sk.estimate_one(key)
