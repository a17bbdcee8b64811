"""Distributed greedy cover, config-grid job loop, incremental daily
sketch store (window = merge of dailies)."""

import os
from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.functions.hashing import hash_strings
from associationabacminer_ray.pipelines.jobs import (
    Job,
    MiningConfig,
    generate_jobs,
    run_jobs,
)
from associationabacminer_ray.pipelines.rules import greedy_cover, greedy_cover_ray
from associationabacminer_ray.sources.transcripts import write_synth_transcripts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    return write_synth_transcripts(str(d), n_convs=1500, shards=4)


class TestGreedyCoverRay:
    def test_matches_driver_version(self, ray_session, corpus):
        import ray.data as rd

        from associationabacminer_ray.pipelines.itemsets import transactions

        tx_ds = transactions(rd.read_parquet(corpus), num_buckets=8)
        tx_df = tx_ds.to_pandas()
        want = greedy_cover(tx_df, metric="cscore", max_rounds=4,
                            coverage_target=0.99, min_support=2)
        got = greedy_cover_ray(tx_ds, metric="cscore", max_rounds=4,
                               coverage_target=0.99, min_support=2)
        pd.testing.assert_frame_equal(
            got[["round", "antecedent", "consequent", "support_ab"]],
            want[["round", "antecedent", "consequent", "support_ab"]],
        )
        assert (got["covered_this_round"] == want["covered_this_round"]).all()

    def test_sketch_mode_matches_exact_at_small_scale(self, ray_session, corpus):
        """mode='sketch' swaps the per-round (itemset,count) shuffle for
        fixed CMS/top-k blobs; at this scale the space-saving head is
        exact, so round-by-round selections must match the exact mode."""
        import ray.data as rd

        from associationabacminer_ray.pipelines.itemsets import transactions

        tx_ds = transactions(rd.read_parquet(corpus), num_buckets=8)
        exact = greedy_cover_ray(tx_ds, metric="cscore", max_rounds=3,
                                 coverage_target=0.99, min_support=2)
        sketch = greedy_cover_ray(tx_ds, metric="cscore", max_rounds=3,
                                  coverage_target=0.99, min_support=2,
                                  mode="sketch")
        pd.testing.assert_frame_equal(
            sketch[["round", "antecedent", "consequent", "support_ab",
                    "covered_this_round"]],
            exact[["round", "antecedent", "consequent", "support_ab",
                   "covered_this_round"]],
        )

    @pytest.mark.parametrize("max_k", [2, 3])
    @pytest.mark.parametrize("engine", ["pandas", "ray_exact", "ray_sketch"])
    def test_coverage_accounting_is_exact(self, ray_session, corpus, engine,
                                          max_k):
        """Each round's counts equal what the selected policy prefix
        really covers: before round r, exactly the transactions no rule
        of rounds < r allows are left, and a round covers the difference
        to the next round's remainder."""
        import ray.data as rd

        from associationabacminer_ray.pipelines.evaluate import policy_allows
        from associationabacminer_ray.pipelines.itemsets import transactions

        tx_ds = transactions(rd.read_parquet(corpus), num_buckets=8).materialize()
        tx_df = tx_ds.to_pandas()
        kw = dict(metric="cscore", max_rounds=6, coverage_target=0.99,
                  min_support=2, max_k=max_k)
        if engine == "pandas":
            policy = greedy_cover(tx_df, **kw)
        else:
            policy = greedy_cover_ray(tx_ds, mode=engine[len("ray_"):], **kw)
        assert len(policy) >= 2
        n = len(tx_df)
        before = policy["uncovered_before"].to_numpy()
        for r in range(len(policy)):
            left = n - policy_allows(tx_df, policy.iloc[:r]).sum()
            assert before[r] == left, (r, before[r], left)
            after = (before[r + 1] if r + 1 < len(policy)
                     else n - policy_allows(tx_df, policy.iloc[:r + 1]).sum())
            assert policy["covered_this_round"].iloc[r] == before[r] - after


class TestJobs:
    def test_generate_jobs_grid(self):
        jobs = generate_jobs(datetime(2024, 1, 1), datetime(2024, 2, 10),
                             grid={"min_support": [2, 3]})
        hashes = {j.config.hash for j in jobs}
        assert len(hashes) == 2
        # same window count per config
        by_cfg = {}
        for j in jobs:
            by_cfg.setdefault(j.config.hash, []).append(j.window.window_id)
        lens = {len(v) for v in by_cfg.values()}
        assert len(lens) == 1 and lens.pop() > 0
        # job ids unique
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_run_jobs_idempotent_skip(self, ray_session, corpus, tmp_path):
        jobs = generate_jobs(datetime(2024, 1, 1), datetime(2024, 1, 25),
                             grid={})[:2]
        res_dir = str(tmp_path / "scores")
        import os

        os.makedirs(res_dir)
        first = run_jobs(corpus, jobs, results_dir=res_dir)
        assert len(first) == 2
        assert {"precision", "recall", "config_hash", "job_id"} <= set(first.columns)
        # second run loads from disk (mutate files to prove no recompute)
        marker = first.copy()
        marker["precision"] = -1.0
        for _, row in marker.iterrows():
            pd.DataFrame([row.to_dict()]).to_parquet(
                f"{res_dir}/{row['job_id']}.parquet", index=False)
        second = run_jobs(corpus, jobs, results_dir=res_dir)
        assert (second["precision"] == -1.0).all()

    def test_distributed_job_matches_pandas_parity(self, ray_session, corpus):
        """The distributed run_one_job (mine_window + score_policy_ray,
        VERDICT r3 #1) must reproduce the pandas path's scores
        row-for-row — identical integer confusion counts, so identical
        float metrics (shared _confusion_metrics closure)."""
        from associationabacminer_ray.pipelines.jobs import run_one_job

        jobs = generate_jobs(datetime(2024, 1, 1), datetime(2024, 1, 25),
                             grid={"min_support": [2, 3]})[:3]
        for job in jobs:
            got = run_one_job(corpus, job, distributed=True)
            want = run_one_job(corpus, job, distributed=False)
            assert got == want, f"job {job.job_id}: {got} != {want}"

    def test_metric_ranks_the_policy(self, ray_session, corpus):
        """MiningConfig.metric ranks the rules before the top_rules cap:
        on this corpus lift keeps another policy than cscore, so the job
        scores differ, and both job paths still agree under either."""
        from associationabacminer_ray.pipelines.jobs import run_one_job
        from associationabacminer_ray.pipelines.mining import mine_window

        jobs = generate_jobs(datetime(2024, 1, 1), datetime(2024, 1, 25),
                             grid={"metric": ["cscore", "lift"]})
        first = {}
        for job in jobs:
            first.setdefault(job.config.metric, job)
        policies, scores = {}, {}
        for metric, job in first.items():
            cfg = job.config
            rules = mine_window(corpus, job.window, max_k=cfg.max_k,
                                min_support=cfg.min_support,
                                num_buckets=cfg.num_buckets, metric=metric,
                                top_rules=cfg.top_rules)["rules"]
            policies[metric] = set(zip(rules["antecedent"], rules["consequent"]))
            scores[metric] = run_one_job(corpus, job, distributed=True)
            want = run_one_job(corpus, job, distributed=False)
            assert scores[metric] == want, f"{metric}: {scores[metric]} != {want}"
        assert policies["lift"] != policies["cscore"]
        assert scores["lift"]["c_tp"] != scores["cscore"]["c_tp"]

    def test_aggregate_scores_by_config(self, ray_session, corpus):
        from associationabacminer_ray.pipelines.evaluate import aggregate_scores

        jobs = generate_jobs(datetime(2024, 1, 1), datetime(2024, 2, 1),
                             grid={})[:3]
        scores = run_jobs(corpus, jobs)
        agg = aggregate_scores(scores)
        assert len(agg) == 1  # single config
        assert 0 <= agg["recall"].iloc[0] <= 1


def _window_by_shuffle(paths, start, end, **params):
    """The store's sketches of [start, end) in one direct pass of the
    general shuffle path: the window's rows, keyed ``conv_id@day``,
    counted by ``sketched_itemset_supports``."""
    from associationabacminer_ray.functions.windows import WindowSpec, read_window
    from associationabacminer_ray.pipelines.itemsets import sketched_itemset_supports
    from associationabacminer_ray.state.incremental import add_conv_day

    spec = WindowSpec(start, end, end, end)
    ds = read_window(paths, spec, "obs", columns=["conv_id", "role", "tool", "ts"])
    return sketched_itemset_supports(
        ds.map_batches(add_conv_day, batch_format="pandas"), conv_col="conv_day",
        max_k=2, num_buckets=16, **params)


class TestIncrementalDailyStore:
    @pytest.mark.parametrize("itemset_hash,conv_hash",
                             [("sip", "sip"), ("poly", "poly")])
    def test_window_merge_equals_direct(self, ray_session, corpus, tmp_path,
                                        itemset_hash, conv_hash):
        from associationabacminer_ray.functions.hashing import hash_strings_poly
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "daily"), itemset_hash=itemset_hash,
                                 conv_hash=conv_hash)
        start, end = datetime(2024, 1, 3), datetime(2024, 1, 8)
        built = store.ensure_days(corpus, start, end)
        assert built == 5
        # resume: nothing rebuilt
        assert store.ensure_days(corpus, start, end) == 0

        merged = store.window_sketches(start, end)
        direct = _window_by_shuffle(corpus, start, end, itemset_hash=itemset_hash,
                                    conv_hash=conv_hash)
        # under the (conv, day) transaction unit, CMS/HLL merges are
        # lossless → dailies == direct, bit for bit
        assert merged["cms"].to_bytes() == direct["cms"].to_bytes()
        assert merged["hll"].to_bytes() == direct["hll"].to_bytes()
        # below capacity Space-Saving counts exactly, so the merged
        # dailies' counters equal the direct pass's
        assert len(direct["topk"].counters) < direct["topk"].capacity
        assert merged["topk"].counters == direct["topk"].counters
        assert merged["topk"].total == direct["topk"].total
        # support estimates agree
        head = direct["topk"].top(1)[0][0]
        hash_fn = {"sip": hash_strings, "poly": hash_strings_poly}[itemset_hash]
        assert store.estimate_support(merged, head) == direct["cms"].estimate_one(
            int(hash_fn(np.array([head], dtype=object))[0]))

    def test_empty_days_equal_shuffle_build(self, ray_session, tmp_path):
        from associationabacminer_ray.sketches import CountMinSketch, HyperLogLog
        from associationabacminer_ray.state.incremental import (
            STORE_CMS_DEPTH,
            STORE_HLL_P,
            DailySketchStore,
        )

        # 6 conversations over 4 shards: most shards have no row on most days
        paths = write_synth_transcripts(str(tmp_path / "tiny"), n_convs=6,
                                        shards=4, days=5)
        sizes = dict(cms_width=1 << 10, topk_capacity=64)
        store = DailySketchStore(str(tmp_path / "daily"), **sizes)
        start, end = datetime(2024, 1, 1), datetime(2024, 1, 8)
        assert store.ensure_days(paths, start, end) == 7
        day = start
        while day < end:
            got = store.window_sketches(day, day + timedelta(days=1))
            want = _window_by_shuffle(paths, day, day + timedelta(days=1), **sizes)
            assert got["cms"].to_bytes() == want["cms"].to_bytes(), day
            assert got["hll"].to_bytes() == want["hll"].to_bytes(), day
            assert got["topk"].counters == want["topk"].counters, day
            assert got["topk"].total == want["topk"].total, day
            day += timedelta(days=1)
        # the corpus ends within its 5 days (+ the last turns' spill):
        # the last day stored holds fresh sketches of the store's sizes
        last = store.window_sketches(end - timedelta(days=1), end)
        assert last["hll"].estimate() == 0
        assert last["hll"].to_bytes() == HyperLogLog(p=STORE_HLL_P).to_bytes()
        assert last["topk"].capacity == 64 and last["topk"].counters == {}
        assert last["cms"].to_bytes() == CountMinSketch(
            width=1 << 10, depth=STORE_CMS_DEPTH).to_bytes()
        # a day is a calendar day: a mid-day start would key one day's
        # transactions with rows of the next
        with pytest.raises(ValueError, match="midnight"):
            store.ensure_days(paths, datetime(2024, 1, 8, 6), datetime(2024, 1, 9))

    def test_lineage_records_each_shard(self, ray_session, corpus, tmp_path):
        import json

        from associationabacminer_ray.state.checkpoint import (
            completed_partitions,
            read_partition,
        )
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "daily"))
        store.ensure_days(corpus, datetime(2024, 1, 3), datetime(2024, 1, 5))
        done = completed_partitions(store.store_dir, store.cfg)
        assert len(done) == 2
        for path in done.values():
            inputs = read_partition(path, store.cfg, ["input_files"]).column("input_files")
            assert all(json.loads(v) == [str(p) for p in corpus]
                       for v in inputs.to_pylist())

    def test_missing_day_raises(self, tmp_path):
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "d2"))
        with pytest.raises(KeyError, match="not built"):
            store.window_sketches(datetime(2024, 1, 1), datetime(2024, 1, 2))

    def test_empty_or_inverted_window_raises(self, tmp_path):
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "d2"))
        for end in (datetime(2024, 1, 3), datetime(2024, 1, 2)):
            with pytest.raises(ValueError, match=r"\[2024-01-03, 2024-01-0[23]\)"):
                store.window_sketches(datetime(2024, 1, 3), end)


def _day_rows(store, day):
    """A stored day's ``(name, blob, row_count)`` rows."""
    from associationabacminer_ray.state.checkpoint import (
        completed_partitions,
        read_partition,
    )

    path = completed_partitions(store.store_dir, store.cfg)[day.toordinal()]
    return read_partition(path, store.cfg, ["name", "blob", "row_count"]).to_pylist()


class TestOnePassDayBuild:
    """``ensure_days`` builds every missing day from one read of each
    shard; each day equals a build of that day alone."""

    @pytest.mark.parametrize("hash_family", ["sip", "poly"])
    def test_all_days_equal_one_day_builds(self, ray_session, corpus, tmp_path,
                                           hash_family):
        from associationabacminer_ray.pipelines.itemsets import (
            itemset_supports_partitioned,
        )
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "daily"), itemset_hash=hash_family,
                                 conv_hash=hash_family)
        # the corpus's 40 days, the last turns' spill day and an empty day
        # on each side
        start, end = datetime(2023, 12, 31), datetime(2024, 2, 12)
        assert store.ensure_days(corpus, start, end) == 43
        p = store.params
        totals = []
        for d in range(43):
            day = start + timedelta(days=d)
            got = store.window_sketches(day, day + timedelta(days=1))
            [want] = itemset_supports_partitioned(
                corpus, mode="sketch", max_k=p["max_k"],
                max_transaction_items=p["max_tx"], cms_width=p["cms_width"],
                cms_depth=p["cms_depth"], topk_capacity=p["topk_capacity"],
                hll_p=p["hll_p"], days=[day], itemset_hash=hash_family,
                conv_hash=hash_family)
            assert got["cms"].to_bytes() == want["cms"].to_bytes(), day
            assert got["hll"].to_bytes() == want["hll"].to_bytes(), day
            assert got["topk"].counters == want["topk"].counters, day
            assert got["topk"].total == want["topk"].total, day
            assert _day_rows(store, day)[0]["row_count"] == want["n_transactions"]
            totals.append(want["topk"].total)
        assert totals[0] == totals[-1] == 0 and min(totals[1:41]) > 0

    def test_row_count_is_days_transactions(self, ray_session, corpus, tmp_path):
        import pyarrow.parquet as pq

        from associationabacminer_ray.state.incremental import DailySketchStore

        store = DailySketchStore(str(tmp_path / "daily"))
        start, end = datetime(2024, 1, 3), datetime(2024, 1, 8)
        assert store.ensure_days(corpus, start, end) == 5
        df = pd.concat([pq.read_table(p, columns=["conv_id", "ts"]).to_pandas()
                        for p in corpus])
        keys = df["conv_id"] + "@" + df["ts"].dt.strftime("%Y-%m-%d")
        day = start
        while day < end:
            want = keys[df["ts"].dt.normalize() == day].nunique()
            assert want > 0
            assert {r["row_count"] for r in _day_rows(store, day)} == {want}, day
            day += timedelta(days=1)

    def test_turn_at_midnight_belongs_to_its_day(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.itemsets import (
            itemset_supports_partitioned,
        )

        ts = pd.to_datetime(["2024-01-01 23:59:59.999999", "2024-01-02 00:00:00.0",
                             "2024-01-02 00:00:00.0", "2024-01-03 00:00:00.0"])
        path = str(tmp_path / "shard.parquet")
        pq.write_table(pa.table({"conv_id": ["a", "a", "b", "b"],
                                 "role": ["tool"] * 4, "tool": ["x", "y", "y", "z"],
                                 "ts": pa.array(ts, pa.timestamp("us"))}), path)
        jan1, jan2 = datetime(2024, 1, 1), datetime(2024, 1, 2)
        got = itemset_supports_partitioned([path], mode="sketch", days=[jan1, jan2],
                                           topk_capacity=8, hll_p=10)
        assert [r["n_transactions"] for r in got] == [1, 2]
        assert got[0]["topk"].counters == {"tool=x": [1, 0]}
        assert got[1]["topk"].counters == {"tool=y": [2, 0]}
        for days in ([jan1, jan1], [jan2, jan1]):
            with pytest.raises(ValueError, match="distinct and ascending"):
                itemset_supports_partitioned([path], days=days)
        with pytest.raises(ValueError, match="sketch"):
            itemset_supports_partitioned([path], mode="exact", days=[jan1])

    def test_gaps_rebuild_in_one_call(self, ray_session, corpus, tmp_path,
                                      monkeypatch):
        import associationabacminer_ray.pipelines.itemsets as itemsets
        from associationabacminer_ray.state.checkpoint import completed_partitions
        from associationabacminer_ray.state.incremental import DailySketchStore

        calls = []
        real = itemsets.itemset_supports_partitioned

        def counting(*args, **kwargs):
            calls.append(kwargs["days"])
            return real(*args, **kwargs)

        monkeypatch.setattr(itemsets, "itemset_supports_partitioned", counting)
        store = DailySketchStore(str(tmp_path / "daily"))
        start, end = datetime(2024, 1, 3), datetime(2024, 1, 10)
        assert store.ensure_days(corpus, start, end) == 7
        assert len(calls) == 1 and len(calls[0]) == 7
        days = [start + timedelta(days=d) for d in range(7)]
        before = {day: _day_rows(store, day) for day in days}
        done = completed_partitions(store.store_dir, store.cfg)
        for d in (2, 5):
            os.remove(done[days[d].toordinal()])
        calls.clear()
        assert store.ensure_days(corpus, start, end) == 2
        assert calls == [[days[2], days[5]]]
        assert {day: _day_rows(store, day) for day in days} == before
        calls.clear()
        assert store.ensure_days(corpus, start, end) == 0
        assert calls == []


def _fake_store(store_dir, days, **params):
    """A ``DailySketchStore`` whose days from 2024-01-01 on hold small
    sketches of day-derived keys, written straight through
    ``write_partition`` (no Ray build)."""
    from associationabacminer_ray.sketches import CountMinSketch, HyperLogLog, SpaceSaving
    from associationabacminer_ray.state.checkpoint import write_partition
    from associationabacminer_ray.state.incremental import DailySketchStore

    store = DailySketchStore(store_dir, **params)
    for d in range(days):
        keys = np.array([f"k{d + j}" for j in range(5)], dtype=object)
        h = hash_strings(keys)
        sketches = {"cms": CountMinSketch(width=64, depth=2).update_hashed(h),
                    "topk": SpaceSaving(capacity=8).update(keys.tolist()),
                    "hll": HyperLogLog(p=6).update_hashed(h)}
        day = datetime(2024, 1, 1) + timedelta(days=d)
        write_partition(store_dir, day.toordinal(), sketches, ["fake"], 0, store.cfg)
    return store


def _windows(days):
    """Every non-empty ``[start, end)`` window over ``days`` days from
    2024-01-01."""
    first = datetime(2024, 1, 1)
    return [(first + timedelta(days=a), first + timedelta(days=b))
            for a in range(days) for b in range(a + 1, days + 1)]


def _window_bytes(sketches):
    return {name: sk.to_bytes() for name, sk in sketches.items()}


def _folded_window(store, start, end):
    """The window as a plain ``merge_blobs`` fold over its day files."""
    from associationabacminer_ray.state.checkpoint import (
        completed_partitions,
        merge_blobs,
        read_partition,
    )

    done = completed_partitions(store.store_dir, store.cfg)
    merged = {}
    for d in range((end - start).days):
        tbl = read_partition(done[(start + timedelta(days=d)).toordinal()], store.cfg)
        merge_blobs(tbl.column("name").to_pylist(), tbl.column("blob").to_pylist(), merged)
    return _window_bytes(merged)


def _cap_cache(monkeypatch, store_dir, days):
    """Bound the window cache of a 10-day fake store to ``days`` of its
    largest days, or leave the module's bound with ``days=None``;
    returns the bound."""
    from associationabacminer_ray.state import incremental

    if days is not None:
        probe = incremental.DailySketchStore(store_dir)
        probe.window_sketches(datetime(2024, 1, 1), datetime(2024, 1, 11))
        monkeypatch.setattr(incremental, "WINDOW_CACHE_BYTES",
                            days * max(d.nbytes for d in probe._days.values()))
    return incremental.WINDOW_CACHE_BYTES


class TestDailyStoreFiles:
    def test_window_opens_only_its_days(self, tmp_path, monkeypatch):
        import pyarrow.parquet as pq

        from associationabacminer_ray.state import incremental
        from associationabacminer_ray.state.checkpoint import completed_partitions

        store = _fake_store(str(tmp_path / "daily"), 10)
        opened = []
        real_bytes, real_file = incremental.partition_bytes, pq.ParquetFile

        def counting(path):
            opened.append(path)
            return real_bytes(path)

        def from_bytes_only(source, *args, **kwargs):
            assert not isinstance(source, (str, os.PathLike)), \
                "a day file is parsed from the bytes read, not reopened"
            return real_file(source, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("window reads go through partition_bytes")

        monkeypatch.setattr(incremental, "partition_bytes", counting)
        monkeypatch.setattr(pq, "ParquetFile", from_bytes_only)
        monkeypatch.setattr(pq, "read_table", forbidden)
        done = completed_partitions(store.store_dir, store.cfg)
        assert len(done) == 10 and opened == []
        start = datetime(2024, 1, 3)
        want = [done[(start + timedelta(days=d)).toordinal()] for d in range(7)]
        # cold, then warm: the cache never skips reading a window day
        for _ in range(2):
            opened.clear()
            merged = store.window_sketches(start, start + timedelta(days=7))
            assert opened == want
            assert merged["topk"].total == 35
            assert merged["topk"].counters["k8"] == [5, 0]

    @pytest.mark.parametrize("cached_days", [None, 3])
    def test_cache_never_changes_an_answer(self, tmp_path, monkeypatch, cached_days):
        from associationabacminer_ray.state.incremental import DailySketchStore

        store = _fake_store(str(tmp_path / "daily"), 10)
        cap = _cap_cache(monkeypatch, store.store_dir, cached_days)
        windows = _windows(10)
        want = {w: _folded_window(store, *w) for w in windows}
        # a capacity-8 top-k over 5 keys a day, one new key a day: a
        # window of 5 or more days trims
        assert len(store.window_sketches(*windows[3])["topk"].keys) == 8
        assert store.window_sketches(*windows[4])["topk"].err.any()
        for w in windows:
            cold = DailySketchStore(store.store_dir)
            assert _window_bytes(cold.window_sketches(*w)) == want[w]
        for _ in range(2):  # the first pass fills the cache, the second hits it
            for w in windows:
                assert _window_bytes(store.window_sketches(*w)) == want[w]
        if cached_days is None:
            assert len(store._days) == 10
        else:
            assert 0 < len(store._days) <= cached_days
        assert store._days_bytes == sum(d.nbytes for d in store._days.values()) <= cap

    def test_returned_window_is_the_callers_own(self, tmp_path):
        store = _fake_store(str(tmp_path / "daily"), 10)
        windows = _windows(10)
        for w in windows:
            want = _window_bytes(store.window_sketches(*w))
            got = store.window_sketches(*w)
            other = store.window_sketches(*windows[-1])
            for name, sk in got.items():
                sk.merge(other[name])
            assert _window_bytes(store.window_sketches(*w)) == want

    def test_cache_holds_decodes_not_blobs(self, tmp_path):
        """A cached day keeps its file bytes and decodes, no blob copies,
        and counts the decodes' array bytes. Ten days at the store's
        default sizes, each with a full top-k (the benchmark's days hold
        ~1.1k of its 4,096 keys), all stay cached under the bound."""
        import dataclasses

        from associationabacminer_ray.sketches import CountMinSketch, HyperLogLog, SpaceSaving
        from associationabacminer_ray.state import incremental
        from associationabacminer_ray.state.checkpoint import write_partition

        store = incremental.DailySketchStore(str(tmp_path / "daily"))
        p = store.params
        rng = np.random.default_rng(0)
        for d in range(10):
            keys = np.array([f"tool=t{d}_{j}|tool=u{j % 97}" for j in range(6000)], dtype=object)
            h = hash_strings(keys)
            counts = rng.integers(1, 50, len(keys))
            sketches = {
                "cms": CountMinSketch(p["cms_width"], p["cms_depth"]).update_hashed(h, counts),
                "topk": SpaceSaving(p["topk_capacity"]).update(keys.tolist(), counts),
                "hll": HyperLogLog(p["hll_p"]).update_hashed(h)}
            write_partition(store.store_dir, (datetime(2024, 1, 1) + timedelta(days=d)).toordinal(),
                            sketches, ["fake"], 0, store.cfg)
        store.window_sketches(datetime(2024, 1, 1), datetime(2024, 1, 11))
        assert [f.name for f in dataclasses.fields(incremental._CachedDay)] == [
            "data", "names", "sketches"]
        assert len(store._days) == 10
        for day in store._days.values():
            topk = day.sketches[day.names.index("topk")]
            assert len(topk.keys) == p["topk_capacity"]
            arrays = sum(a.nbytes for sk in day.sketches for a in vars(sk).values()
                         if isinstance(a, np.ndarray))
            assert day.nbytes == len(day.data) + arrays
            assert arrays > 8 * p["cms_width"] * p["cms_depth"]
        assert store._days_bytes == sum(d.nbytes for d in store._days.values())
        assert store._days_bytes <= incremental.WINDOW_CACHE_BYTES

    @pytest.mark.parametrize("cached_days", [None, 4])
    def test_concurrent_windows_equal_sequential(self, tmp_path, monkeypatch, cached_days):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from associationabacminer_ray.state.incremental import DailySketchStore

        store = _fake_store(str(tmp_path / "daily"), 10)
        cap = _cap_cache(monkeypatch, store.store_dir, cached_days)
        windows = [w for w in _windows(10) if (w[1] - w[0]).days >= 5]
        want = {w: _window_bytes(DailySketchStore(store.store_dir).window_sketches(*w))
                for w in windows}

        def run(offset):
            return [(w, _window_bytes(store.window_sketches(*w)))
                    for w in (windows[offset:] + windows[:offset]) * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as ex:
                futures = [ex.submit(run, t * len(windows) // 4) for t in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert len(result) == 3 * len(windows)
            assert all(got == want[w] for w, got in result)
        assert store._days_bytes == sum(d.nbytes for d in store._days.values()) <= cap

    def test_corrupt_or_stale_day_raises(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.state.checkpoint import completed_partitions

        store = _fake_store(str(tmp_path / "daily"), 3)
        start, end = datetime(2024, 1, 1), datetime(2024, 1, 4)
        done = completed_partitions(store.store_dir, store.cfg)
        pid2 = datetime(2024, 1, 2).toordinal()
        day2 = done[pid2]
        with open(day2, "rb") as f:
            good = f.read()
        other = _fake_store(str(tmp_path / "other"), 3, cms_width=1 << 12)
        stale = completed_partitions(other.store_dir, other.cfg)[pid2]

        def renamed_stale():
            # a file of another config renamed under this config's name
            tmp = day2 + ".stale"
            with open(stale, "rb") as src, open(tmp, "wb") as dst:
                dst.write(src.read())
            os.replace(tmp, day2)

        def unhashed():
            # a file without the embedded hash cannot be checked against its name
            tbl = pq.read_table(pa.BufferReader(good)).drop_columns(["config_hash"])
            pq.write_table(tbl, day2)

        def not_parquet():
            with open(day2, "wb") as f:
                f.write(b"not a parquet file")

        def same_length_garbage():
            # rewritten in place at once: size and a coarse mtime can match
            with open(day2, "r+b") as f:
                f.write(b"x" * len(good))

        for corrupt in (renamed_stale, unhashed, not_parquet, same_length_garbage):
            with open(day2, "wb") as f:
                f.write(good)
            store.window_sketches(start, end)  # the good day is cached
            corrupt()
            with pytest.raises(ValueError, match=os.path.basename(day2)):
                store.window_sketches(start, end)
            # a second query checks the file again, it never hits the cache
            with pytest.raises(ValueError, match=os.path.basename(day2)):
                store.window_sketches(start, end)
        # the listing still trusts the name: nothing is rebuilt over it
        assert store.ensure_days([], start, end) == 0
        with open(day2, "wb") as f:
            f.write(good)
        store.window_sketches(start, end)
        assert pid2 in store._days
        os.remove(day2)
        with pytest.raises(KeyError, match="not built"):
            store.window_sketches(start, end)
        assert set(store._days) <= set(completed_partitions(store.store_dir, store.cfg))
        assert pid2 not in store._days

    def test_unhashed_day_file_is_rebuilt(self, ray_session, corpus, tmp_path):
        from associationabacminer_ray.state.checkpoint import completed_partitions

        store_dir = str(tmp_path / "daily")
        store = _fake_store(store_dir, 1)
        day = datetime(2024, 1, 1)
        path = completed_partitions(store_dir, store.cfg)[day.toordinal()]
        os.rename(path, os.path.join(store_dir, f"part-{day.toordinal():05d}.parquet"))
        with pytest.raises(KeyError, match="not built"):
            store.window_sketches(day, day + timedelta(days=1))
        assert store.ensure_days(corpus, day, day + timedelta(days=1)) == 1
        assert store.window_sketches(day, day + timedelta(days=1))["topk"].total > 0

    def test_topk_version_is_in_store_config(self, tmp_path, monkeypatch):
        from associationabacminer_ray.sketches import SpaceSaving
        from associationabacminer_ray.state.incremental import DailySketchStore

        cfg = DailySketchStore(str(tmp_path)).cfg
        monkeypatch.setattr(SpaceSaving, "VERSION", SpaceSaving.VERSION + 1)
        assert DailySketchStore(str(tmp_path)).cfg != cfg
