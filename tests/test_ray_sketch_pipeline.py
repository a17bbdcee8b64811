"""End-to-end Ray Data sketch plumbing:

- itemset supports (exact mode) == pandas oracle recomputation
- sketch mode: CMS within ε·N, top-k head exact, HLL within bound
- salted two-phase merge == unsalted merge (lossless salting)
- grouped/global sketch UDAFs (HllAgg, TDigestAgg, TopKAgg)
- transactions table matches an independent oracle (FIXTURES §F2)
"""

import itertools
from collections import Counter

import numpy as np
import pandas as pd
import pytest

import associationabacminer_ray.pipelines.itemsets as P
from associationabacminer_ray.functions.hashing import (
    hash_any,
    hash_strings,
)
from associationabacminer_ray.sketches import (
    CountMinSketch,
    HyperLogLog,
    Sketch,
    SpaceSaving,
)
from associationabacminer_ray.sources.transcripts import synth_transcripts
from associationabacminer_ray.stages.sketch_update import (
    SketchSpec,
    SketchUpdater,
    merge_sketch_partials,
)
from associationabacminer_ray.udaf import HllAgg, TDigestAgg, TopKAgg


@pytest.fixture(scope="module")
def transcripts_tbl():
    return synth_transcripts(2000, seed=42)


@pytest.fixture(scope="module")
def transcripts_ds(ray_session, transcripts_tbl):
    import ray.data as rd

    return rd.from_arrow(transcripts_tbl)


def oracle_supports(df: pd.DataFrame, max_k=2) -> dict[str, int]:
    df = df.copy()
    df["item"] = df["role"].replace("", "NONE") + "=" + df["tool"].replace("", "NONE")
    tx = df.drop_duplicates(["conv_id", "item"]).groupby("conv_id")["item"].agg(
        lambda s: tuple(sorted(s))
    )
    counter = Counter()
    for items in tx:
        for k in range(1, max_k + 1):
            for combo in itertools.combinations(items, k):
                counter["|".join(combo)] += 1
    return dict(counter)


class TestExactItemsets:
    def test_supports_match_oracle(self, transcripts_ds, transcripts_tbl):
        got = P.exact_itemset_supports(transcripts_ds, max_k=2, num_buckets=16).to_pandas()
        want = oracle_supports(transcripts_tbl.to_pandas(), max_k=2)
        got_map = dict(zip(got["itemset"], got["support"]))
        assert got_map == want
        assert (got["k"] == got["itemset"].str.count("\\|") + 1).all()

    def test_transactions_match_oracle(self, transcripts_ds, transcripts_tbl):
        got = P.transactions(transcripts_ds, num_buckets=16).to_pandas()
        df = transcripts_tbl.to_pandas()
        df["item"] = df["role"] + "=" + df["tool"]
        want = (
            df.drop_duplicates(["conv_id", "item"])
            .groupby("conv_id")["item"]
            .agg(lambda s: ",".join(sorted(s)))
        )
        got = got.set_index("conv_id")["items"].sort_index()
        pd.testing.assert_series_equal(got, want.sort_index(), check_names=False)


class TestSketchedItemsets:
    def test_sketch_mode_within_bounds(self, transcripts_ds, transcripts_tbl):
        res = P.sketched_itemset_supports(transcripts_ds, max_k=2, num_buckets=16)
        want = oracle_supports(transcripts_tbl.to_pandas(), max_k=2)
        n_tx = transcripts_tbl.to_pandas()["conv_id"].nunique()
        assert res["n_transactions"] == n_tx
        # HLL distinct conversations within 4σ
        hll_est = res["hll"].estimate()
        assert abs(hll_est - n_tx) <= 4 * res["hll"].relative_error * n_tx + 2
        # CMS never underestimates; total weight equals Σ exact supports
        total = sum(want.values())
        assert res["cms"].total == total
        eps_n = res["cms"].epsilon * total
        for itemset, exact in list(want.items())[:500]:
            est = res["cms"].estimate_hashed(hash_strings([itemset]))[0]
            assert exact <= est <= exact + eps_n
        # top-k head matches the exact head
        exact_sorted = sorted(want.items(), key=lambda t: (-t[1], t[0]))
        got_head = [(k, c) for k, c, _ in res["topk"].top(20)]
        assert got_head == exact_sorted[:20]

    @pytest.mark.parametrize("mode", ["sketch", "exact"])
    def test_partitioned_matches_shuffle(self, ray_session, tmp_path, mode):
        """Both layouts end in the same tail of each mode: on a
        conversation-sharded corpus the shuffle-free partitioned pass and
        the bucket-shuffle pass give bit-identical CMS/HLL, the same
        transaction count and the same top-k head (sketch), and the same
        (itemset, k, support) rows (exact)."""
        import ray.data as rd

        from associationabacminer_ray.sources.transcripts import write_synth_transcripts

        paths = write_synth_transcripts(str(tmp_path), n_convs=3000, shards=4)
        if mode == "exact":
            def rows(supports: pd.DataFrame) -> list:
                return sorted(supports[["itemset", "k", "support"]]
                              .itertuples(index=False, name=None))

            part = P.itemset_supports_partitioned(paths, mode="exact").to_pandas()
            shuf, n_tx = P.split_tx_count(P.exact_itemset_supports(
                rd.read_parquet(paths), include_tx_count=True).to_pandas())
            assert len(part) and rows(part) == rows(shuf)
            assert n_tx == 3000
            return
        part = P.itemset_supports_partitioned(paths, mode="sketch", max_k=2)
        shuf = P.sketched_itemset_supports(
            rd.read_parquet(paths, columns=["conv_id", "role", "tool"]),
            max_k=2, num_buckets=16)
        assert part["n_transactions"] == shuf["n_transactions"] == 3000
        assert part["cms"].to_bytes() == shuf["cms"].to_bytes()
        assert part["hll"].to_bytes() == shuf["hll"].to_bytes()
        assert ([(k, c) for k, c, _ in part["topk"].top(50)]
                == [(k, c) for k, c, _ in shuf["topk"].top(50)])

    def test_merge_is_layout_independent(self, ray_session, transcripts_tbl):
        """The partial merge folds in (name, part) order, so a top-k
        small enough to trim on every merge still comes out the same for
        any row order or block split of the partial rows: the
        sequential fold in part order, within Space-Saving's bound."""
        import ray.data as rd

        sizes = dict(cms_width=256, cms_depth=3, topk_capacity=8, hll_p=10)
        df = transcripts_tbl.to_pandas()
        convs = np.sort(df["conv_id"].unique())
        frames, exact = [], Counter()
        for part, chunk in enumerate(np.array_split(convs, 12)):
            sub = df[df["conv_id"].isin(chunk)]
            supports = oracle_supports(sub, max_k=2)
            exact.update(supports)
            partial = pd.DataFrame({"itemset": list(supports),
                                    "count": np.fromiter(supports.values(), np.int64)})
            frames.append(P.itemset_sketch_partial(
                partial, hash_strings(pd.Series(chunk)), len(chunk),
                sizes).assign(part=np.int64(part)))
        rows = pd.concat(frames, ignore_index=True)

        want: dict = {}
        for name in P.SKETCH_NAMES:
            for blob in rows.loc[rows["name"] == name, "blob"]:  # part order
                sk = Sketch.from_bytes(blob)
                want[name] = want[name].merge(sk) if name in want else sk
        for name in ("cms", "hll"):
            want[name] = want[name].to_bytes()

        rng = np.random.default_rng(7)
        for n_blocks in (1, 3, 5, 36):
            shuffled = rows.iloc[rng.permutation(len(rows))].reset_index(drop=True)
            blocks = [shuffled.iloc[ix]
                      for ix in np.array_split(np.arange(len(shuffled)), n_blocks)]
            got = P.merge_itemset_sketch_partials(rd.from_pandas(blocks), sizes)
            assert got["n_transactions"] == len(convs)
            assert got["cms"].to_bytes() == want["cms"]
            assert got["hll"].to_bytes() == want["hll"]
            topk = got["topk"]
            assert topk.counters == want["topk"].counters
            assert topk.total == want["topk"].total == sum(exact.values())
            assert topk.top() == want["topk"].top()
            for key, (count, err) in topk.counters.items():
                assert count - err <= exact[key] <= count, key
        assert len(want["topk"].counters) == sizes["topk_capacity"]

    def test_day_without_rows_gets_zero_state_sketches(self, ray_session):
        import ray.data as rd

        sizes = dict(cms_width=64, cms_depth=3, topk_capacity=8, hll_p=8)
        partial = pd.DataFrame({"itemset": ["a", "b", "a|b"],
                                "count": np.array([3, 2, 2], np.int64)})
        rows = pd.concat([P.itemset_sketch_partial(
            partial, hash_strings(pd.Series(["c1", "c2", "c3"])), 3, sizes)
            .assign(part=np.int64(0), day=np.int64(day)) for day in (0, 2)],
            ignore_index=True)
        days = P.merge_itemset_sketch_partials(rd.from_pandas(rows), sizes, n_days=4)
        assert [d["n_transactions"] for d in days] == [3, 0, 3, 0]
        for empty in (days[1], days[3]):
            assert set(empty) == {*P.SKETCH_NAMES, "n_transactions"}
            assert empty["cms"].to_bytes() == CountMinSketch(width=64, depth=3).to_bytes()
            assert empty["hll"].to_bytes() == HyperLogLog(p=8).to_bytes()
            assert empty["topk"].to_bytes() == SpaceSaving(capacity=8).to_bytes()
        assert days[0]["topk"].counters == {"a": [3, 0], "a|b": [2, 0], "b": [2, 0]}
        assert days[0]["cms"] is not days[2]["cms"]

    @pytest.mark.parametrize("layout", ["shard", "days", "shuffle"])
    def test_driver_fold_equals_merge_blobs_in_part_order(
            self, ray_session, tmp_path, monkeypatch, layout):
        """The merge's result is the plain ``merge_blobs`` fold of its
        partial rows in (day, name, part) order: CMS/HLL bytes, the
        trimming top-k's counters and total, and n_transactions."""
        from datetime import datetime

        import ray.data as rd

        from associationabacminer_ray.sources.transcripts import write_synth_transcripts
        from associationabacminer_ray.state.checkpoint import merge_blobs

        paths = write_synth_transcripts(str(tmp_path), n_convs=1500, shards=4)
        seen = []
        merge = P.merge_itemset_sketch_partials

        def keep_partials(partials, sizes, n_days=None):
            seen.append(partials.materialize())
            return merge(seen[-1], sizes, n_days)

        monkeypatch.setattr(P, "merge_itemset_sketch_partials", keep_partials)
        if layout == "shuffle":
            got = [P.sketched_itemset_supports(rd.read_parquet(paths),
                                               topk_capacity=32, num_buckets=8)]
        elif layout == "days":
            got = P.itemset_supports_partitioned(
                paths, topk_capacity=32,
                days=[datetime(2024, 1, 2), datetime(2024, 1, 9), datetime(2030, 1, 1)])
        else:
            got = [P.itemset_supports_partitioned(paths, topk_capacity=32)]
        rows = sorted(seen[0].take_all(),
                      key=lambda r: (r.get("day", 0), r["name"], r["part"]))
        assert len({r["part"] for r in rows}) > 1
        for day, res in enumerate(got):
            day_rows = [r for r in rows if r.get("day", 0) == day]
            want: dict = {}
            merge_blobs([r["name"] for r in day_rows], [r["blob"] for r in day_rows], want)
            assert res["n_transactions"] == sum(
                r["n_transactions"] for r in day_rows if r["name"] == "hll")
            assert res["cms"].to_bytes() == want["cms"].to_bytes()
            assert res["hll"].to_bytes() == want["hll"].to_bytes()
            assert res["topk"].counters == want["topk"].counters
            assert res["topk"].total == want["topk"].total
        if layout == "days":  # every shard sends rows for a day it lacks
            assert got[0]["n_transactions"] > 0 and got[2]["n_transactions"] == 0
        else:
            assert len(got[0]["topk"].counters) == 32  # the merge trimmed

    @pytest.mark.parametrize("libc", ["missing", "no_symbol"])
    def test_release_freed_heap_without_malloc_trim(self, monkeypatch, libc):
        """Where there is no C library, or it has no ``malloc_trim``
        (musl, macOS), releasing the freed heap is a quiet no-op."""
        import ctypes
        import ctypes.util

        from associationabacminer_ray import runtime

        class NoTrim:
            def __init__(self, name):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        if libc == "missing":
            monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        else:
            monkeypatch.setattr(ctypes, "CDLL", NoTrim)
        runtime._malloc_trim.cache_clear()
        try:
            assert runtime._malloc_trim() is None
            assert runtime.release_freed_heap() is None
        finally:
            runtime._malloc_trim.cache_clear()

    def test_sketch_supports_need_no_exchange(self, ray_session, tmp_path, monkeypatch):
        """Sketch-mode supports over conversation-sharded files fold on
        the driver: no repartition (or any other exchange) runs."""
        from datetime import datetime

        import ray.data as rd

        from associationabacminer_ray.sources.transcripts import write_synth_transcripts

        paths = write_synth_transcripts(str(tmp_path), n_convs=600, shards=3)

        def no_exchange(*args, **kwargs):
            raise AssertionError("sketch-mode supports repartitioned")

        monkeypatch.setattr(rd.Dataset, "repartition", no_exchange)
        res = P.itemset_supports_partitioned(paths)
        assert res["n_transactions"] == 600
        days = P.itemset_supports_partitioned(paths, days=[datetime(2024, 1, 3)])
        assert 0 < days[0]["n_transactions"] < 600


class TestUpdaterStage:
    def test_flat_stream_updater_and_merge(self, transcripts_ds, transcripts_tbl):
        specs = [
            SketchSpec("conv_hll", "hll", "conv_id", p=14),
            SketchSpec("tool_topk", "topk", "tool", capacity=512),
        ]
        partials = transcripts_ds.map_batches(
            SketchUpdater(specs, num_salts=4), batch_format="pyarrow", batch_size=4096,
        )
        merged = merge_sketch_partials(partials, two_phase=True)
        df = transcripts_tbl.to_pandas()
        n_conv = df["conv_id"].nunique()
        est = merged["conv_hll"].estimate()
        assert abs(est - n_conv) <= 4 * merged["conv_hll"].relative_error * n_conv + 2
        want_tools = df["tool"].value_counts()
        for key, count, err in merged["tool_topk"].top(5):
            assert count - err <= want_tools[key] <= count

    def test_two_phase_salted_merge_is_lossless(self, transcripts_ds):
        """Salted partials merged in two phases (per (name, salt), then
        per name) give byte-identical sketches to the one-phase merge."""
        specs = [
            SketchSpec("conv_hll", "hll", "conv_id", p=14),
            SketchSpec("tool_cms", "cms", "tool", width=1 << 10, depth=4),
        ]
        partials = transcripts_ds.map_batches(
            SketchUpdater(specs, num_salts=4), batch_format="pyarrow", batch_size=512,
        ).materialize()
        assert partials.unique("salt") == [0, 1, 2, 3]
        two = merge_sketch_partials(partials, two_phase=True)
        one = merge_sketch_partials(partials, two_phase=False)
        for name in ("conv_hll", "tool_cms"):
            assert two[name].to_bytes() == one[name].to_bytes()

    def test_grouped_udafs(self, transcripts_ds, transcripts_tbl):
        import pyarrow as pa

        def add_hash(t: pa.Table) -> pa.Table:
            return t.append_column("conv_hash", pa.array(hash_any(t["conv_id"])))

        ds = transcripts_ds.map_batches(add_hash, batch_format="pyarrow")
        got = (
            ds.groupby("role")
            .aggregate(HllAgg("conv_hash", alias="distinct_convs"))
            .to_pandas()
            .set_index("role")["distinct_convs"]
        )
        df = transcripts_tbl.to_pandas()
        want = df.groupby("role")["conv_id"].nunique()
        for role, exact in want.items():
            assert abs(got[role] - exact) <= 4 * (1.04 / np.sqrt(1 << 14)) * exact + 2

    def test_global_tdigest_udaf(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(5)
        vals = rng.lognormal(0, 1, 50_000)
        ds = rd.from_pandas(pd.DataFrame({"v": vals}))
        out = ds.aggregate(TDigestAgg("v", finalize_quantiles=(0.5, 0.99), alias="q"))
        data_sorted = np.sort(vals)
        for q in (0.5, 0.99):
            est = out["q"][f"q{q}"]
            rank = np.searchsorted(data_sorted, est) / len(vals)
            assert abs(rank - q) < 0.02

    def test_global_topk_udaf_blob(self, ray_session, transcripts_tbl):
        import ray.data as rd

        ds = rd.from_arrow(transcripts_tbl)
        out = ds.aggregate(TopKAgg("tool", capacity=256, alias="blob"))
        sk = Sketch.from_bytes(bytes(out["blob"]))
        want = transcripts_tbl.to_pandas()["tool"].value_counts()
        top1 = sk.top(1)[0]
        assert top1[0] == want.index[0] and top1[1] >= want.iloc[0]


class TestNewSketchUDAFs:
    """DDSketch / count-sketch UDAFs through real Ray aggregations:
    error bounds vs exact recomputation, and partition-count invariance
    (the merge-order-exactness that makes their queries pinnable)."""

    def test_global_ddsketch_udaf_within_alpha(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.udaf import DDSketchAgg

        rng = np.random.default_rng(7)
        vals = rng.lognormal(0.5, 1.5, 40_000)
        ds = rd.from_pandas(pd.DataFrame({"v": vals}))
        out = ds.aggregate(DDSketchAgg("v", alpha=0.01,
                                       finalize_quantiles=(0.1, 0.5, 0.99),
                                       alias="q"))
        sv = np.sort(vals)
        for q in (0.1, 0.5, 0.99):
            exact = sv[max(1, int(np.ceil(q * sv.size))) - 1]
            assert abs(out["q"][f"q{q}"] - exact) <= 0.01 * exact + 1e-12

    def test_ddsketch_partition_invariance(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.sketches import Sketch
        from associationabacminer_ray.udaf import DDSketchAgg

        rng = np.random.default_rng(9)
        vals = rng.lognormal(0.0, 2.0, 30_000)
        df = pd.DataFrame({"v": vals})
        results = []
        for nparts in (1, 3, 11):
            ds = rd.from_pandas(df).repartition(nparts)
            blob = ds.aggregate(DDSketchAgg("v", alpha=0.02, alias="dd"))["dd"]
            sk = Sketch.from_bytes(bytes(blob))
            results.append(sk.quantiles([0.01, 0.25, 0.5, 0.75, 0.99]))
        assert results[0] == results[1] == results[2]

    def test_countsketch_f2_vs_exact_and_invariance(self, ray_session,
                                                    transcripts_tbl):
        import ray.data as rd

        from associationabacminer_ray.sketches import CountSketch
        from associationabacminer_ray.udaf import CountSketchAgg

        df = transcripts_tbl.to_pandas()
        key = df["role"].astype(str) + "\x1f" + df["tool"].astype(str)
        cnt = key.value_counts().to_numpy()
        f2 = int((cnt.astype(object) ** 2).sum())

        def add_hash(b: pd.DataFrame) -> pd.DataFrame:
            k = b["role"].astype(str) + "\x1f" + b["tool"].astype(str)
            return pd.DataFrame({"kh": hash_strings(k.to_numpy())})

        ests = []
        for nparts in (2, 9):
            ds = (rd.from_arrow(transcripts_tbl).repartition(nparts)
                  .map_batches(add_hash, batch_format="pandas"))
            blob = ds.aggregate(CountSketchAgg("kh", width=1 << 13, depth=5,
                                               alias="cs"))["cs"]
            sk = CountSketch.from_bytes(bytes(blob))
            assert sk.total == len(df)
            ests.append(sk.f2_estimate())
        assert ests[0] == ests[1]
        assert abs(ests[0] - f2) <= 4.0 * np.sqrt(2.0 / (1 << 13)) * f2


class TestJoinSizeEstimate:
    """CMS inner-product join-cardinality estimation through the real
    Ray pipelines: overestimate-only, within the ε·|A|·|B| bound, and
    the exact twin matches a brute-force pandas join."""

    def test_cms_vs_exact_within_bound(self, ray_session):
        from associationabacminer_ray.pipelines.sketch_queries import (
            JOIN_CMS_WIDTH,
            q_join_size_cms,
            q_join_size_exact,
        )

        sf = "/root/testdata/sf0.001"
        exact = int(q_join_size_exact(sf)["n_join"][0])
        est = int(q_join_size_cms(sf)["n_join_est"][0])
        ev = pd.read_parquet(f"{sf}/events.parquet", columns=["user_id"])
        od = pd.read_parquet(f"{sf}/orders.parquet", columns=["o_custkey"])
        brute = len(ev.merge(od, left_on="user_id", right_on="o_custkey"))
        assert exact == brute
        assert est >= exact
        assert est <= exact + (np.e / JOIN_CMS_WIDTH) * len(ev) * len(od)

    def test_exact_empty_overlap(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.sketch_queries import (
            q_join_size_cms,
            q_join_size_exact,
        )

        pq.write_table(pa.table({"user_id": pa.array([1, 2, 3], pa.int64())}),
                       tmp_path / "events.parquet")
        pq.write_table(pa.table({"o_custkey": pa.array([7, 8], pa.int64())}),
                       tmp_path / "orders.parquet")
        assert int(q_join_size_exact(str(tmp_path))["n_join"][0]) == 0
        # disjoint tiny key sets in a wide table: no collisions → 0
        assert int(q_join_size_cms(str(tmp_path))["n_join_est"][0]) == 0


class TestRangeCountCMS:
    """Dyadic-decomposition CMS range counting: cover correctness
    (property), overestimate-only + bound vs the exact twin."""

    def test_dyadic_cover_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from associationabacminer_ray.pipelines.sketch_queries import (
            dyadic_cover,
        )

        @settings(max_examples=200, deadline=None)
        @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
        def check(x, y):
            a, b = min(x, y), max(x, y)
            cells = dyadic_cover(a, b, 16)
            assert len(cells) <= 2 * 16
            # disjoint and union == [a, b]: total size + boundary check
            total = 0
            for lv, k in cells:
                s, e = k << lv, (k + 1) << lv
                assert a <= s and e - 1 <= b
                total += e - s
            assert total == b - a + 1
            starts = sorted(k << lv for lv, k in cells)
            ends = sorted((k + 1) << lv for lv, k in cells)
            assert starts[0] == a and ends[-1] == b + 1
            assert all(e == s for s, e in zip(starts[1:], ends[:-1]))

        check()

    def test_out_of_universe_raises(self):
        from associationabacminer_ray.pipelines.sketch_queries import (
            dyadic_cover,
        )

        with pytest.raises(ValueError):
            dyadic_cover(0, 1 << 24, 24)
        with pytest.raises(ValueError):
            dyadic_cover(-1, 5, 24)

    def test_cms_vs_exact_within_bound(self, ray_session):
        from associationabacminer_ray.pipelines.sketch_queries import (
            RANGE_CMS_BITS,
            RANGE_CMS_WIDTH,
            q_range_count_cms,
            q_range_count_exact,
        )

        sf = "/root/testdata/sf0.001"
        ex = q_range_count_exact(sf)
        est = q_range_count_cms(sf)
        m = ex.merge(est, on=["lo_bp", "hi_bp"])
        assert len(m) == len(ex)
        over = m["n_rows_est"] - m["n_rows"]
        assert (over >= 0).all()  # dyadic CMS sums never underestimate
        # shared-sketch bound: each of <=2*bits cells carries
        # eps * (N * bits) expected collision mass
        n_total = 1000 * RANGE_CMS_BITS
        bound = 2 * RANGE_CMS_BITS * (np.e / RANGE_CMS_WIDTH) * n_total
        assert (over <= bound).all()
        # exact twin == brute pandas recount
        v = pd.read_parquet(f"{sf}/events.parquet", columns=["value"])
        fold = np.floor(v["value"].to_numpy() * 10000 + 0.5).astype(np.int64)
        for _, r in ex.iterrows():
            assert r["n_rows"] == int(
                ((fold >= r["lo_bp"]) & (fold <= r["hi_bp"])).sum())
