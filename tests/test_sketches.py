"""Sketch-kernel conformance tests (FIXTURES.md §F3).

- accuracy within each sketch's published bound (CMS ε·N w.h.p.,
  HLL ±1.04/√m, Bloom zero false negatives + FPR cap, t-digest/KLL
  quantile-rank error)
- merge associativity/commutativity: split input k ∈ {2,3,8,17} ways,
  merge in shuffled orders ⇒ bit-identical estimates (CMS/HLL/Bloom)
  or within-bound estimates (t-digest/KLL)
- serialization round-trips
"""

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.functions.hashing import (
    combine_hashes,
    hash_ints,
    hash_strings,
    mix_with_seed,
    splitmix64,
)
from associationabacminer_ray.sketches import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    KLL,
    Sketch,
    SpaceSaving,
    TDigest,
    ThetaKMV,
    sketch_from_bytes,
)

RNG = np.random.default_rng(42)


def zipf_keys(n=100_000, s=1.3, vocab=10_000, seed=1):
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(s, size=n)
    return np.minimum(ranks, vocab).astype(np.int64)


def split_parts(arr, k, seed=0):
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, k, size=len(arr))
    return [arr[assign == i] for i in range(k)]


# ---------------------------------------------------------------- hashing
class TestHashing:
    def test_deterministic_and_mixed(self):
        a = hash_strings(np.array(["x", "y", "x", ""], dtype=object))
        b = hash_strings(np.array(["x", "y", "x", ""], dtype=object))
        assert np.array_equal(a, b)
        assert a[0] == a[2] and a[0] != a[1] and a[3] != a[0]

    def test_null_distinct_from_empty(self):
        h = hash_strings(np.array(["", None], dtype=object))
        assert h[0] != h[1]

    def test_splitmix_known_vector(self):
        # SplitMix64(0) first output (Vigna reference): 0xE220A8397B1DCDAF
        assert int(splitmix64(np.array([0], dtype=np.uint64))[0]) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("shape", [(), (5,), (4, 3)])
    def test_splitmix_equals_python_ints(self, shape):
        """Bit-identical to the finalizer in Python ints (mod 2**64) for
        0-d, 1-d and 2-d input, with no overflow warning; a 0-d input
        gives a NumPy scalar, and the input is left as it was."""
        import warnings

        mask = (1 << 64) - 1

        def ref(v):
            z = (v + 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        rng = np.random.default_rng(3)
        x = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64, endpoint=False)
        x.flat[0] = mask  # the wrap-around edge
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = splitmix64(x)
        assert np.array_equal(x, before)
        if shape == ():
            assert isinstance(got, np.uint64)
        else:
            assert got.shape == shape and got.dtype == np.uint64
        want = [ref(int(v)) for v in np.ravel(x)]
        assert [int(v) for v in np.ravel(got)] == want

    def test_combine_order_sensitive(self):
        a = hash_ints(np.array([1]))
        b = hash_ints(np.array([2]))
        assert combine_hashes(a, b)[0] != combine_hashes(b, a)[0]


# ---------------------------------------------------------------- CMS
class TestCMS:
    def test_point_error_within_bound(self):
        keys = zipf_keys()
        hashes = hash_ints(keys)
        cms = CountMinSketch(width=1 << 14, depth=5)
        cms.update_hashed(hashes)
        uniq, exact = np.unique(keys, return_counts=True)
        est = cms.estimate_hashed(hash_ints(uniq))
        assert np.all(est >= exact)  # CMS never underestimates
        over = est - exact
        eps_n = cms.epsilon * len(keys)
        frac_bad = np.mean(over > eps_n)
        assert frac_bad <= cms.delta + 0.01

    def test_merge_bit_identical_across_splits(self):
        keys = zipf_keys(n=30_000)
        hashes = hash_ints(keys)
        single = CountMinSketch().update_hashed(hashes)
        for k in (2, 3, 8, 17):
            parts = split_parts(hashes, k, seed=k)
            sks = [CountMinSketch().update_hashed(p) for p in parts]
            order = np.random.default_rng(k).permutation(k)
            merged = sks[order[0]]
            for i in order[1:]:
                merged.merge(sks[i])
            assert merged.to_bytes() == single.to_bytes()

    def test_serialization_roundtrip(self):
        cms = CountMinSketch(width=128, depth=3).update_hashed(hash_ints(np.arange(50)))
        back = sketch_from_bytes(cms.to_bytes())
        assert isinstance(back, CountMinSketch)
        assert back.to_bytes() == cms.to_bytes()
        assert back.total == 50

    def test_for_error_constructor(self):
        cms = CountMinSketch.for_error(epsilon=0.001, delta=0.01)
        assert cms.epsilon <= 0.001 and cms.delta <= 0.011

    def test_inner_product_exact_when_collision_free(self):
        # disjoint small key sets in a wide table: no collisions, so
        # the inner product equals the true join size exactly
        a_keys = np.repeat(np.arange(20), np.arange(1, 21))       # key i ×(i+1)
        b_keys = np.repeat(np.arange(10, 30), 3)                  # keys 10..29 ×3
        a = CountMinSketch(width=1 << 14, depth=4).update_hashed(hash_ints(a_keys))
        b = CountMinSketch(width=1 << 14, depth=4).update_hashed(hash_ints(b_keys))
        ua, ca = np.unique(a_keys, return_counts=True)
        ub, cb = np.unique(b_keys, return_counts=True)
        truth = sum(int(ca[list(ua).index(k)]) * int(cb[list(ub).index(k)])
                    for k in set(ua) & set(ub))
        assert a.inner_product(b) == truth

    def test_inner_product_bound_and_overestimate(self):
        rng = np.random.default_rng(5)
        a_keys = rng.zipf(1.6, 50_000) % 4000
        b_keys = rng.zipf(1.6, 30_000) % 4000
        a = CountMinSketch(width=1 << 12, depth=4).update_hashed(hash_ints(a_keys))
        b = CountMinSketch(width=1 << 12, depth=4).update_hashed(hash_ints(b_keys))
        ua, ca = np.unique(a_keys, return_counts=True)
        ub, cb = np.unique(b_keys, return_counts=True)
        common, ia, ib = np.intersect1d(ua, ub, return_indices=True)
        truth = int(np.sum(ca[ia].astype(object) * cb[ib].astype(object)))
        est = a.inner_product(b)
        assert est >= truth  # inner product never underestimates
        assert est <= truth + a.epsilon * len(a_keys) * len(b_keys)

    def test_inner_product_requires_same_params(self):
        a = CountMinSketch(width=128, depth=3)
        for bad in (CountMinSketch(width=64, depth=3),
                    CountMinSketch(width=128, depth=2),
                    CountMinSketch(width=128, depth=3, seed=9)):
            with pytest.raises(ValueError):
                a.inner_product(bad)

    @pytest.mark.parametrize("seed,width,depth", [
        (7, 1 << 13, 4), (0, 1, 1), (1, 100, 3), (123, 1 << 15, 5), (9, 777, 2)])
    def test_row_indices_follow_the_per_row_formula(self, seed, width, depth):
        """All rows' indices come from one broadcast call; row i must
        still map a hash h to mix_with_seed(h, seed·1315423911 + i) % width."""
        rng = np.random.default_rng(seed)
        h = rng.integers(0, np.iinfo(np.uint64).max, 5000, dtype=np.uint64,
                         endpoint=True)
        cms = CountMinSketch(width=width, depth=depth, seed=seed)
        idx = cms._indices(h)
        assert idx.shape == (depth, len(h)) and idx.dtype == np.int64
        for i in range(depth):
            want = mix_with_seed(h, seed * 1315423911 + i) % np.uint64(width)
            np.testing.assert_array_equal(idx[i], want.astype(np.int64))
        # updates and estimates read those same cells
        counts = rng.integers(1, 50, len(h))
        cms.update_hashed(h, counts)
        table = np.zeros((depth, width), dtype=np.int64)
        for i in range(depth):
            np.add.at(table[i], idx[i], counts)
        np.testing.assert_array_equal(cms.table, table)
        np.testing.assert_array_equal(
            cms.estimate_hashed(h), table[np.arange(depth)[:, None], idx].min(axis=0))
        assert cms.estimate_one(int(h[0])) == cms.estimate_hashed(h[:1])[0]
        assert cms.estimate_hashed(h[:0]).shape == (0,)


# ---------------------------------------------------------------- HLL
class TestHLL:
    @pytest.mark.parametrize("true_card", [10, 1_000, 100_000, 1_000_000])
    def test_cardinality_bound(self, true_card):
        vals = np.arange(true_card, dtype=np.int64)
        dup = np.concatenate([vals, vals[: true_card // 2]])
        hll = HyperLogLog(p=14).update_hashed(hash_ints(dup))
        est = hll.estimate()
        # 4σ of the 1.04/√m bound, + small absolute slack for the tiny case
        tol = 4 * hll.relative_error * true_card + 2
        assert abs(est - true_card) <= tol

    def test_merge_bit_identical_across_splits(self):
        hashes = hash_ints(np.arange(50_000))
        single = HyperLogLog(p=12).update_hashed(hashes)
        for k in (2, 3, 8, 17):
            parts = split_parts(hashes, k, seed=k)
            sks = [HyperLogLog(p=12).update_hashed(p) for p in parts]
            order = np.random.default_rng(k + 1).permutation(k)
            merged = sks[order[0]]
            for i in order[1:]:
                merged.merge(sks[i])
            assert merged.to_bytes() == single.to_bytes()

    def test_serialization_roundtrip(self):
        hll = HyperLogLog(p=10).update_hashed(hash_ints(np.arange(100)))
        back = sketch_from_bytes(hll.to_bytes())
        assert back.to_bytes() == hll.to_bytes()
        assert abs(back.estimate() - hll.estimate()) == 0.0


# ---------------------------------------------------------------- Bloom
class TestBloom:
    def test_no_false_negatives_and_fpr(self):
        inserted = hash_ints(np.arange(50_000))
        probes = hash_ints(np.arange(50_000, 100_000))
        bf = BloomFilter.for_capacity(50_000, fpr=0.01)
        bf.add_hashed(inserted)
        assert bf.contains_hashed(inserted).all()  # zero false negatives
        fpr = bf.contains_hashed(probes).mean()
        assert fpr <= 0.02

    def test_merge_bit_identical(self):
        hashes = hash_ints(np.arange(20_000))
        single = BloomFilter(num_bits=1 << 18, num_hashes=4).add_hashed(hashes)
        for k in (2, 8):
            parts = split_parts(hashes, k, seed=k)
            sks = [BloomFilter(num_bits=1 << 18, num_hashes=4).add_hashed(p) for p in parts]
            merged = sks[-1]
            for s in sks[:-1]:
                merged.merge(s)
            assert merged.to_bytes() == single.to_bytes()

    def test_serialization_roundtrip(self):
        bf = BloomFilter(num_bits=1024, num_hashes=3).add_hashed(hash_ints(np.arange(10)))
        back = sketch_from_bytes(bf.to_bytes())
        assert back.to_bytes() == bf.to_bytes()


# ---------------------------------------------------------------- top-k
class TestSpaceSaving:
    def test_exact_head_on_zipf(self):
        keys = zipf_keys(n=200_000, s=1.5, vocab=50_000, seed=3)
        uniq, exact = np.unique(keys, return_counts=True)
        exact_top = sorted(zip(uniq.tolist(), exact.tolist()), key=lambda t: (-t[1], t[0]))
        ss = SpaceSaving(capacity=2048)
        for part in split_parts(keys, 4):
            u, c = np.unique(part, return_counts=True)
            ss.update(u.tolist(), c)
        got = ss.top(10)
        for (k_exact, c_exact), (k_got, c_got, err) in zip(exact_top[:10], got):
            assert k_exact == k_got
            assert c_got - err <= c_exact <= c_got  # overestimate, bounded

    def test_merge_preserves_guarantee(self):
        keys = zipf_keys(n=100_000, s=1.5, vocab=20_000, seed=7)
        uniq, exact = np.unique(keys, return_counts=True)
        exact_map = dict(zip(uniq.tolist(), exact.tolist()))
        parts = split_parts(keys, 5, seed=9)
        sks = []
        for p in parts:
            u, c = np.unique(p, return_counts=True)
            sks.append(SpaceSaving(capacity=1024).update(u.tolist(), c))
        merged = sks[0]
        for s in sks[1:]:
            merged.merge(s)
        for key, count, err in merged.top(10):
            assert count >= exact_map[key]          # still an overestimate
            assert count - err <= exact_map[key]    # within tracked error

    def test_serialization_roundtrip_mixed_keys(self):
        ss = SpaceSaving(capacity=16).update(["a", "b", 3, "a"], None)
        back = sketch_from_bytes(ss.to_bytes())
        assert back.top() == ss.top()
        assert back.total == 4


@pytest.mark.parametrize("make", [
    lambda keys: CountMinSketch(width=64, depth=3).update_hashed(hash_strings(keys)),
    lambda keys: HyperLogLog(p=6).update_hashed(hash_strings(keys)),
    lambda keys: SpaceSaving(capacity=64).update(keys),
    lambda keys: SpaceSaving(capacity=4).update(keys),  # the merge trims
], ids=["cms", "hll", "topk", "topk_trimming"])
def test_merge_leaves_its_argument_unchanged(make):
    """A merge or a fold only reads its arguments, also ones decoded
    from bytes, whose arrays may be read-only (the daily store's window
    cache folds its cached decodes into new sketches and relies on
    this); a fold's result shares no array with an argument and is
    writable."""
    a = make([f"a{i % 7}" for i in range(40)] + ["shared"] * 5)
    b = make([f"b{i % 5}" for i in range(30)] + ["shared"] * 3)
    for arg in (b, Sketch.from_bytes(b.to_bytes())):
        before = arg.to_bytes()
        a.merge(arg)
        assert arg.to_bytes() == before
    c = make([f"c{i % 3}" for i in range(20)] + ["shared"] * 9)
    for args in ([a, b, c], [Sketch.from_bytes(s.to_bytes()) for s in (a, b, c)]):
        before = [s.to_bytes() for s in args]
        for n in (1, 3):
            out = Sketch.fold(args[:n])
            assert [s.to_bytes() for s in args] == before
            assert all(out is not s for s in args)
            for arr in (v for v in vars(out).values() if isinstance(v, np.ndarray)):
                assert arr.flags.writeable
                assert not any(np.shares_memory(arr, v) for s in args
                               for v in vars(s).values() if isinstance(v, np.ndarray))
        # the result is the caller's: merging into it leaves the arguments
        Sketch.fold(args).merge(args[0])
        assert [s.to_bytes() for s in args] == before


def _pairwise(sketches):
    """The left fold ``copy(s1).merge(s2).merge(s3)…`` by pairwise merges."""
    out = Sketch.from_bytes(sketches[0].to_bytes())
    for sk in sketches[1:]:
        out.merge(sk)
    return out


def _topk_parts(capacity, n_parts, seed, mixed=False):
    """``n_parts`` Space-Saving sketches of Zipf keys over a shared
    vocabulary (many tied counts); with ``mixed`` every third key is an
    ``int`` and the ``str`` of the same text occurs too."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        ranks = rng.zipf(1.3, size=3000) % 2000
        keys = [int(r) if mixed and r % 3 == 0 and rng.random() < 0.5 else str(r)
                for r in ranks.tolist()]
        parts.append(SpaceSaving(capacity=capacity).update(keys))
    return parts


class TestFold:
    """``Sketch.fold`` equals, byte for byte, the pairwise left fold."""

    def test_cms_and_hll(self):
        rng = np.random.default_rng(5)
        for make in (lambda: CountMinSketch(width=128, depth=3),
                     lambda: HyperLogLog(p=8)):
            parts = [make().update_hashed(hash_ints(rng.integers(0, 500, 400)))
                     for _ in range(6)]
            decoded = [Sketch.from_bytes(s.to_bytes()) for s in parts]
            for sks in (parts, decoded, parts[::-1], parts[:1]):
                assert Sketch.fold(sks).to_bytes() == _pairwise(sks).to_bytes()
            # the operands may come one at a time
            assert Sketch.fold(iter(decoded)).to_bytes() == _pairwise(parts).to_bytes()

    @pytest.mark.parametrize("capacity", [16, 64, 512, 4096])
    @pytest.mark.parametrize("mixed", [False, True], ids=["str", "int_and_str"])
    def test_topk_equals_pairwise(self, capacity, mixed):
        parts = _topk_parts(capacity, 7, seed=capacity, mixed=mixed)
        distinct = len(pd.unique(np.concatenate([s.keys for s in parts])))
        assert (distinct > capacity) == (capacity < 4096)  # which folds trim
        for sks in (parts, parts[::-1], [SpaceSaving(capacity)] + parts, parts[:1],
                    [Sketch.from_bytes(s.to_bytes()) for s in parts]):
            got, want = Sketch.fold(sks), _pairwise(sks)
            assert got.to_bytes() == want.to_bytes()
            assert got.counters == want.counters and got.total == want.total
            assert SpaceSaving.fold(sks).to_bytes() == want.to_bytes()

    def test_topk_ties_at_the_cut_and_equal_text(self):
        """Every count ties, so the cut is decided by key order alone:
        ``str(key)``, an ``int`` before the ``str`` of the same text."""
        parts = [SpaceSaving(capacity=5).update(keys) for keys in (
            ["3", 3, "b", "a"], [10, "10", "a", 3], ["c", "3", 2, "2"], [1, "1", "b"])]
        got = Sketch.fold(parts)
        assert got.to_bytes() == _pairwise(parts).to_bytes()
        assert len(got.keys) == 5 and got.total == 15
        assert len({(type(k), str(k)) for k in got.keys.tolist()}) == 5

    def test_type_and_parameter_checks(self):
        with pytest.raises(ValueError):
            Sketch.fold([])
        with pytest.raises(TypeError):
            Sketch.fold([HyperLogLog(p=6), CountMinSketch(width=8, depth=2)])
        with pytest.raises(TypeError):
            SpaceSaving.fold([HyperLogLog(p=6)])
        with pytest.raises(ValueError):
            Sketch.fold([SpaceSaving(8), SpaceSaving(16)])
        with pytest.raises(ValueError):
            Sketch.fold([HyperLogLog(p=6), HyperLogLog(p=7)])


class _Rows:
    """Stand-in for a Dataset of partial rows: all the merge calls is
    ``take_all``."""

    def __init__(self, rows):
        self.rows = rows

    def take_all(self):
        return list(self.rows)


@pytest.mark.parametrize("capacity", [16, 4096])
@pytest.mark.parametrize("n_days", [None, 3])
def test_merge_itemset_sketch_partials_equals_merge_blobs_in_part_order(capacity, n_days):
    """The itemset partial merge is the ``merge_blobs`` fold of each
    day's rows in part order, which is the pairwise left fold; rows may
    arrive in any order and a day without rows gets zero-state sketches."""
    from associationabacminer_ray.pipelines import itemsets as P
    from associationabacminer_ray.state.checkpoint import merge_blobs

    sizes = dict(cms_width=64, cms_depth=3, topk_capacity=capacity, hll_p=8)
    rng = np.random.default_rng(capacity)
    rows = []
    for day in range(1 if n_days is None else n_days - 1):  # the last day is empty
        for part in range(6):
            counts = pd.Series(rng.zipf(1.4, size=800) % 300).astype(str).value_counts()
            partial = pd.DataFrame({"itemset": counts.index.to_numpy(dtype=object),
                                    "count": counts.to_numpy(np.int64)})
            convs = hash_ints(rng.integers(0, 10_000, 50))
            for row in P.itemset_sketch_partial(partial, convs, 50, sizes).to_dict("records"):
                rows.append({**row, "part": part, **({} if n_days is None else {"day": day})})
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    got = P.merge_itemset_sketch_partials(_Rows(shuffled), sizes, n_days)
    for day, res in enumerate([got] if n_days is None else got):
        day_rows = [r for r in rows if r.get("day", 0) == day]
        assert res["n_transactions"] == 50 * len(day_rows) // 3
        if not day_rows:
            assert res["topk"].to_bytes() == SpaceSaving(capacity).to_bytes()
            assert res["cms"].to_bytes() == CountMinSketch(width=64, depth=3).to_bytes()
            assert res["hll"].to_bytes() == HyperLogLog(p=8).to_bytes()
            continue
        want: dict = {}
        merge_blobs([r["name"] for r in day_rows], [r["blob"] for r in day_rows], want)
        for name in P.SKETCH_NAMES:
            pairwise = _pairwise([Sketch.from_bytes(r["blob"]) for r in day_rows
                                  if r["name"] == name])
            assert res[name].to_bytes() == want[name].to_bytes() == pairwise.to_bytes()
        assert res["topk"].counters == want["topk"].counters
    if capacity == 16:
        assert len((got if n_days is None else got[0])["topk"].keys) == 16  # it trimmed


# ---------------------------------------------------------------- quantiles
DISTS = {
    "uniform": lambda rng, n: rng.uniform(0, 1, n),
    "normal": lambda rng, n: rng.normal(0, 1, n),
    "lognormal": lambda rng, n: rng.lognormal(0, 1, n),
    "bimodal": lambda rng, n: np.concatenate(
        [rng.normal(-3, 0.5, n // 2), rng.normal(3, 0.5, n - n // 2)]
    ),
}
QS = [0.01, 0.25, 0.5, 0.75, 0.99]


class TestQuantileSketches:
    @pytest.mark.parametrize("dist", list(DISTS))
    def test_tdigest_rank_error(self, dist):
        data = DISTS[dist](np.random.default_rng(11), 100_000)
        td = TDigest(delta=200)
        for part in split_parts(data, 3):
            td.update(part)
        data_sorted = np.sort(data)
        for q in QS:
            est = td.quantile(q)
            true_rank = np.searchsorted(data_sorted, est) / len(data)
            assert abs(true_rank - q) < 0.02

    @pytest.mark.parametrize("dist", list(DISTS))
    def test_kll_rank_error(self, dist):
        data = DISTS[dist](np.random.default_rng(13), 100_000)
        kll = KLL(k=200)
        for part in split_parts(data, 3):
            kll.update(part)
        data_sorted = np.sort(data)
        for q in QS:
            est = kll.quantile(q)
            true_rank = np.searchsorted(data_sorted, est) / len(data)
            assert abs(true_rank - q) < 0.025

    @pytest.mark.parametrize("cls,kw", [(TDigest, {"delta": 200}), (KLL, {"k": 200})])
    def test_merge_within_bound_across_orders(self, cls, kw):
        data = DISTS["lognormal"](np.random.default_rng(17), 60_000)
        data_sorted = np.sort(data)
        for k in (2, 3, 8, 17):
            parts = split_parts(data, k, seed=k)
            sks = [cls(**kw).update(p) for p in parts]
            order = np.random.default_rng(k + 2).permutation(k)
            merged = sks[order[0]]
            for i in order[1:]:
                merged.merge(sks[i])
            for q in QS:
                est = merged.quantile(q)
                true_rank = np.searchsorted(data_sorted, est) / len(data)
                assert abs(true_rank - q) < 0.03

    @pytest.mark.parametrize("cls,kw", [(TDigest, {"delta": 100}), (KLL, {"k": 128})])
    def test_serialization_roundtrip(self, cls, kw):
        data = np.random.default_rng(19).normal(0, 1, 10_000)
        sk = cls(**kw).update(data)
        back = sketch_from_bytes(sk.to_bytes())
        for q in QS:
            assert back.quantile(q) == pytest.approx(sk.quantile(q), abs=1e-12)


# ---------------------------------------------------------------- theta/KMV
class TestThetaKMV:
    def test_exact_regime_all_ops(self):
        """Below capacity the sketch holds every hash: cardinality and
        set algebra are exactly the python-set answers."""
        a_vals, b_vals = np.arange(3_000), np.arange(2_000, 4_500)
        a = ThetaKMV(k=8192).update_hashed(hash_ints(a_vals))
        b = ThetaKMV(k=8192).update_hashed(hash_ints(b_vals))
        assert a.is_exact and b.is_exact
        assert a.estimate() == 3_000
        assert a.intersection_estimate(b) == 1_000
        assert a.difference_estimate(b) == 2_000
        assert b.difference_estimate(a) == 1_500
        assert a.union_estimate(b) == 4_500
        assert a.jaccard_estimate(b) == 1_000 / 4_500

    @pytest.mark.parametrize("true_card", [1_000, 100_000, 1_000_000])
    def test_cardinality_bound(self, true_card):
        vals = np.arange(true_card, dtype=np.int64)
        dup = np.concatenate([vals, vals[: true_card // 2]])
        sk = ThetaKMV(k=4096).update_hashed(hash_ints(dup))
        tol = 4 * sk.relative_error * true_card + 2
        assert abs(sk.estimate() - true_card) <= tol

    def test_intersection_bound_trimmed_regime(self):
        n, overlap = 200_000, 60_000
        a = ThetaKMV(k=4096).update_hashed(hash_ints(np.arange(n)))
        b = ThetaKMV(k=4096).update_hashed(
            hash_ints(np.arange(n - overlap, 2 * n - overlap)))
        assert not a.is_exact
        # intersection RSE degrades by √(union/intersection); 5σ slack
        tol = 5 * a.relative_error * np.sqrt((2 * n - overlap) / overlap) * overlap
        assert abs(a.intersection_estimate(b) - overlap) <= tol
        assert abs(a.union_estimate(b) - (2 * n - overlap)) <= \
            5 * a.relative_error * (2 * n - overlap)

    def test_merge_bit_identical_across_splits(self):
        """KMV trim-merge is exactly order independent: final state is
        always (k smallest of the union, theta = (k+1)-th smallest) —
        required for nondeterministic Ray tree merges."""
        hashes = hash_ints(np.arange(50_000))
        single = ThetaKMV(k=1024).update_hashed(hashes)
        for k in (2, 3, 8, 17):
            parts = split_parts(hashes, k, seed=k)
            sks = [ThetaKMV(k=1024).update_hashed(p) for p in parts]
            order = np.random.default_rng(k + 1).permutation(k)
            merged = sks[order[0]]
            for i in order[1:]:
                merged.merge(sks[i])
            assert merged.to_bytes() == single.to_bytes()

    def test_merge_mixed_exact_and_trimmed(self):
        big = ThetaKMV(k=512).update_hashed(hash_ints(np.arange(10_000)))
        small = ThetaKMV(k=512).update_hashed(hash_ints(np.arange(100)))
        ref = ThetaKMV(k=512).update_hashed(hash_ints(np.arange(10_000)))
        assert big.merge(small).to_bytes() == ref.to_bytes()

    def test_serialization_roundtrip_both_regimes(self):
        exact = ThetaKMV(k=256).update_hashed(hash_ints(np.arange(10)))
        trimmed = ThetaKMV(k=256).update_hashed(hash_ints(np.arange(5_000)))
        for sk in (exact, trimmed):
            back = sketch_from_bytes(sk.to_bytes())
            assert isinstance(back, ThetaKMV)
            assert back.to_bytes() == sk.to_bytes()
            assert back.estimate() == sk.estimate()
            assert back.theta == sk.theta

    def test_param_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ThetaKMV(k=256).merge(ThetaKMV(k=512))


# ---------------------------------------------------------------- registry
def test_registry_dispatch_and_type_guard():
    cms = CountMinSketch(width=64, depth=2)
    assert isinstance(Sketch.from_bytes(cms.to_bytes()), CountMinSketch)
    with pytest.raises(TypeError):
        HyperLogLog.from_bytes(cms.to_bytes())
    with pytest.raises(ValueError):
        sketch_from_bytes(b"XXXX\x01garbage")


# ------------------------------------------------------------ count sketch
class TestCountSketch:
    def test_point_estimates_near_exact_on_zipf(self):
        from associationabacminer_ray.sketches import CountSketch

        keys = zipf_keys(n=200_000, vocab=5_000, seed=3)
        h = hash_ints(keys)
        sk = CountSketch(width=1 << 14, depth=5).update_hashed(h)
        uniq, cnt = np.unique(keys, return_counts=True)
        # noise per row is ~ sqrt(F2/width); check the heavy head exactly
        # matches and the tail stays within 4·sqrt(F2/width)
        f2 = float((cnt.astype(np.float64) ** 2).sum())
        bound = 4.0 * np.sqrt(f2 / (1 << 14))
        est = sk.estimate_hashed(hash_ints(uniq))
        # unbiased signed noise: every key within the 4σ bound, and the
        # heavy head essentially exact (tiny relative error)
        head = np.argsort(cnt)[-20:]
        assert np.abs(est[head] - cnt[head]).max() <= 0.01 * cnt[head].min()
        assert np.abs(est - cnt).max() <= bound

    def test_f2_estimate_within_bound(self):
        from associationabacminer_ray.sketches import CountSketch

        keys = zipf_keys(n=150_000, vocab=20_000, seed=5)
        _, cnt = np.unique(keys, return_counts=True)
        f2 = int((cnt.astype(object) ** 2).sum())
        sk = CountSketch(width=1 << 14, depth=5).update_hashed(hash_ints(keys))
        est = sk.f2_estimate()
        # median-of-rows: allow 4 std-devs of the per-row estimator
        assert abs(est - f2) <= 4.0 * sk.f2_relative_error * f2
        assert sk.total == len(keys)

    def test_weighted_equals_unweighted(self):
        from associationabacminer_ray.sketches import CountSketch

        keys = zipf_keys(n=30_000, vocab=1_000, seed=7)
        h = hash_ints(keys)
        a = CountSketch(width=1 << 12, depth=3).update_hashed(h)
        uniq, cnt = np.unique(h, return_counts=True)
        b = CountSketch(width=1 << 12, depth=3).update_hashed(
            uniq, cnt.astype(np.int64))
        assert np.array_equal(a.table, b.table)
        assert a.total == b.total

    def test_merge_bit_identical_across_splits(self):
        from associationabacminer_ray.sketches import CountSketch

        h = hash_ints(zipf_keys(n=80_000, seed=9))
        whole = CountSketch(width=1 << 12, depth=5).update_hashed(h)
        for k in (2, 3, 8, 17):
            parts = split_parts(h, k, seed=k)
            accs = [CountSketch(width=1 << 12, depth=5).update_hashed(p)
                    for p in parts]
            order = np.random.default_rng(k).permutation(k)
            m = accs[order[0]]
            for i in order[1:]:
                m = m.merge(accs[i])
            assert np.array_equal(m.table, whole.table)
            assert m.total == whole.total
            assert m.f2_estimate() == whole.f2_estimate()

    def test_serialization_roundtrip_and_guards(self):
        from associationabacminer_ray.sketches import CountSketch

        sk = CountSketch(width=256, depth=3).update_hashed(
            hash_ints(np.arange(1000)))
        rt = Sketch.from_bytes(sk.to_bytes())
        assert isinstance(rt, CountSketch)
        assert np.array_equal(rt.table, sk.table)
        assert rt.total == sk.total and rt.seed == sk.seed
        with pytest.raises(ValueError):
            CountSketch(depth=4)  # even depth → non-integer median
        with pytest.raises(ValueError):
            sk.merge(CountSketch(width=128, depth=3))

    def test_huge_cell_f2_exact_integer_path(self):
        from associationabacminer_ray.sketches import CountSketch

        # one key with count > 2^26 → float64 squares would lose bits;
        # the object-int path must stay exact
        sk = CountSketch(width=64, depth=3, seed=19)
        h = hash_ints(np.array([42], dtype=np.int64))
        sk.update_hashed(h, np.array([1 << 27], dtype=np.int64))
        assert sk.f2_estimate() == (1 << 27) ** 2


# ---------------------------------------------------------------- ddsketch
class TestDDSketch:
    def _exact_nearest_rank(self, vals, q):
        sv = np.sort(vals)
        rank = max(1, int(np.ceil(q * sv.size)))
        return sv[rank - 1]

    @pytest.mark.parametrize("dist", ["lognormal", "uniform", "mixed_sign"])
    def test_relative_error_within_alpha(self, dist):
        from associationabacminer_ray.sketches import DDSketch

        rng = np.random.default_rng(11)
        if dist == "lognormal":
            vals = rng.lognormal(1.0, 2.0, 60_000)
        elif dist == "uniform":
            vals = rng.uniform(0.001, 1000.0, 60_000)
        else:
            vals = rng.lognormal(0.5, 1.5, 60_000)
            vals[::3] *= -1
            vals[::50] = 0.0
        alpha = 0.01
        sk = DDSketch(alpha=alpha).update(vals)
        assert sk.n == len(vals)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            exact = self._exact_nearest_rank(vals, q)
            est = sk.quantile(q)
            if exact == 0.0:
                assert est == 0.0
            else:
                assert abs(est - exact) <= alpha * abs(exact) + 1e-12

    def test_merge_bit_identical_across_splits(self):
        from associationabacminer_ray.sketches import DDSketch

        rng = np.random.default_rng(13)
        vals = rng.lognormal(0.0, 3.0, 50_000)
        vals[::7] *= -1
        whole = DDSketch(alpha=0.02).update(vals)
        qs = (0.01, 0.5, 0.99)
        for k in (2, 3, 8, 17):
            parts = split_parts(vals, k, seed=k)
            accs = [DDSketch(alpha=0.02).update(p) for p in parts]
            order = np.random.default_rng(k).permutation(k)
            m = accs[order[0]]
            for i in order[1:]:
                m = m.merge(accs[i])
            # integer bucket counts ⇒ estimates are bit-identical
            assert m.quantiles(qs) == whole.quantiles(qs)
            assert np.array_equal(m.pos_keys, whole.pos_keys)
            assert np.array_equal(m.pos_counts, whole.pos_counts)
            assert m.zero_count == whole.zero_count

    def test_nan_dropped_zero_counted(self):
        from associationabacminer_ray.sketches import DDSketch

        sk = DDSketch(alpha=0.01).update(
            np.array([np.nan, 0.0, 0.0, 5.0, np.nan]))
        assert sk.n == 3 and sk.zero_count == 2
        assert sk.quantile(0.5) == 0.0

    def test_serialization_roundtrip_and_guards(self):
        from associationabacminer_ray.sketches import DDSketch

        rng = np.random.default_rng(17)
        vals = rng.lognormal(0.0, 2.0, 5_000)
        vals[::5] *= -1
        sk = DDSketch(alpha=0.005).update(vals)
        rt = Sketch.from_bytes(sk.to_bytes())
        assert isinstance(rt, DDSketch)
        assert rt.alpha == sk.alpha and rt.n == sk.n
        assert rt.quantiles([0.1, 0.5, 0.9]) == sk.quantiles([0.1, 0.5, 0.9])
        with pytest.raises(ValueError):
            sk.merge(DDSketch(alpha=0.01))
        with pytest.raises(ValueError):
            DDSketch(alpha=0.0)
        with pytest.raises(ValueError):
            DDSketch().quantile(0.5)  # empty


class TestHeavyChangers:
    """CMS heavy-change detection between the even/odd-day halves
    (pipelines/sketch_queries.q_heavy_changers) vs the derived exact
    twin."""

    def test_sketch_bounds_and_recall(self, ray_session, sf_dir):
        from associationabacminer_ray.pipelines.sketch_queries import (
            HC_CMS_DEPTH, HC_CMS_WIDTH, q_heavy_changers,
            q_heavy_changers_exact)

        sk = q_heavy_changers(sf_dir).set_index("tool")
        ex = q_heavy_changers_exact(sf_dir, threshold_bp=0).set_index("tool")
        n_total = int(ex["n_even"].sum() + ex["n_odd"].sum())
        eps_n = int(np.ceil(np.e / HC_CMS_WIDTH * n_total))
        # every reported estimate obeys the per-side CMS guarantee:
        # exact ≤ estimate ≤ exact + ε·N (overestimate-only)
        for tool, row in sk.iterrows():
            assert tool in ex.index
            e = ex.loc[tool]
            assert e["n_even"] <= row["n_even_est"] <= e["n_even"] + eps_n
            assert e["n_odd"] <= row["n_odd_est"] <= e["n_odd"] + eps_n
        # recall: every exact heavy changer whose margin survives the
        # worst-case two-sided estimate error must be reported
        d = (ex["n_even"] - ex["n_odd"]).abs()
        must_report = ex.index[10000 * (d - 2 * eps_n) >= 15 * n_total]
        assert set(must_report).issubset(set(sk.index))

    def test_candidates_exact_regime(self, ray_session, sf_dir):
        # capacity ≫ distinct tools → space-saving is exact, so the
        # sketch report equals the exact twin row-for-row at this scale
        from associationabacminer_ray.pipelines.sketch_queries import (
            q_heavy_changers, q_heavy_changers_exact)

        sk = (q_heavy_changers(sf_dir).sort_values("tool")
              .reset_index(drop=True))
        ex = (q_heavy_changers_exact(sf_dir).sort_values("tool")
              .reset_index(drop=True))
        assert list(sk["tool"]) == list(ex["tool"])
        assert (sk["n_even_est"].to_numpy() >= ex["n_even"].to_numpy()).all()
        assert (sk["n_odd_est"].to_numpy() >= ex["n_odd"].to_numpy()).all()

    def test_exact_twin_matches_duckdb(self, ray_session, sf_dir):
        import duckdb

        import __ray_entry__ as E
        from associationabacminer_ray.pipelines.sketch_queries import (
            q_heavy_changers_exact)

        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS "
                    f"SELECT * FROM '{sf_dir}/events.parquet'")
        oracle = (con.execute(E.oracle_sql()["heavy_changers_exact"]).df()
                  .sort_values("tool").reset_index(drop=True))
        for c in ("n_even", "n_odd", "delta_abs"):
            oracle[c] = oracle[c].astype(np.int64)
        mine = (q_heavy_changers_exact(sf_dir).sort_values("tool")
                .reset_index(drop=True))
        pd.testing.assert_frame_equal(mine, oracle)


class TestWindowedHeavyChangers:
    def test_exact_twin_matches_duckdb(self, ray_session, sf_dir):
        import duckdb

        import __ray_entry__ as E
        from associationabacminer_ray.pipelines.sketch_queries import (
            q_windowed_heavy_changers_exact)

        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS "
                    f"SELECT * FROM '{sf_dir}/events.parquet'")
        oracle = (con.execute(
            E.oracle_sql()["windowed_heavy_changers_exact"]).df()
            .sort_values("itemset").reset_index(drop=True))
        for c in ("s1", "s2", "delta_abs"):
            oracle[c] = oracle[c].astype(np.int64)
        mine = (q_windowed_heavy_changers_exact(sf_dir)
                .sort_values("itemset").reset_index(drop=True))
        pd.testing.assert_frame_equal(mine, oracle)

    def test_sketch_bounds_and_store_reuse(self, ray_session, sf_dir):
        from datetime import datetime

        from associationabacminer_ray.pipelines.sketch_queries import (
            q_windowed_heavy_changers, q_windowed_heavy_changers_exact)
        from associationabacminer_ray.pipelines.analytics import (
            _cached_event_transcripts_parquet)
        from associationabacminer_ray.state.incremental import (
            DailySketchStore)
        from associationabacminer_ray.pipelines.sketch_queries import (
            WHC_CMS_WIDTH, WHC_TOPK_CAP, WHC_WINDOWS)

        sk = q_windowed_heavy_changers(sf_dir).set_index("itemset")
        ex = (q_windowed_heavy_changers_exact(sf_dir, threshold=0)
              .set_index("itemset"))
        # CMS overestimate-only per window, exact candidates at this
        # capacity: every reported estimate brackets its exact support
        for iset, row in sk.iterrows():
            assert iset in ex.index
            assert row["s1_est"] >= ex.loc[iset, "s1"]
            assert row["s2_est"] >= ex.loc[iset, "s2"]
        # delta architecture: the second query call must rebuild ZERO
        # day partials (everything served from the checkpointed store)
        tag = sf_dir.strip("/").replace("/", "_")
        store = DailySketchStore(f"/tmp/graft_windows/evdaily_{tag}",
                                 cms_width=WHC_CMS_WIDTH,
                                 topk_capacity=WHC_TOPK_CAP,
                                 itemset_hash="poly")
        paths = _cached_event_transcripts_parquet(sf_dir)
        start = datetime.strptime(WHC_WINDOWS[0][0], "%Y-%m-%d")
        end = datetime.strptime(WHC_WINDOWS[-1][1], "%Y-%m-%d")
        assert store.ensure_days(paths, start, end) == 0


class TestRuleConfQuantiles:
    def test_exact_twin_matches_duckdb(self, ray_session, sf_dir):
        import duckdb

        import __ray_entry__ as E
        from associationabacminer_ray.pipelines.sketch_queries import (
            q_rule_conf_quantiles_exact)

        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS "
                    f"SELECT * FROM '{sf_dir}/events.parquet'")
        oracle = (con.execute(E.oracle_sql()["rule_conf_quantiles_exact"])
                  .df().sort_values("q_pct").reset_index(drop=True))
        oracle["q_pct"] = oracle["q_pct"].astype(np.int32)
        oracle["conf_bp"] = oracle["conf_bp"].astype(np.int64)
        mine = (q_rule_conf_quantiles_exact(sf_dir)
                .sort_values("q_pct").reset_index(drop=True))
        pd.testing.assert_frame_equal(mine, oracle)

    def test_dd_within_alpha_of_exact(self, ray_session, sf_dir):
        from associationabacminer_ray.pipelines.sketch_queries import (
            q_rule_conf_quantiles, q_rule_conf_quantiles_exact)

        alpha = 0.01
        sk = q_rule_conf_quantiles(sf_dir, alpha=alpha)
        ex = q_rule_conf_quantiles_exact(sf_dir)
        est = sk["est_conf_bp"].to_numpy(np.int64)
        tru = ex["conf_bp"].to_numpy(np.int64)
        # DDSketch guarantee: relative error ≤ alpha on the value
        # (+1 bp absolute slack for the integer rounding of estimates)
        assert np.all(np.abs(est - tru) <= alpha * tru + 1)
