"""End-to-end mine_window (exact / sketch / greedy), k=3 golden rules
(FIXTURES §F4), relative min-support."""

import itertools
from collections import Counter
from datetime import datetime

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.functions.windows import WindowSpec
from associationabacminer_ray.pipelines.itemsets import exact_itemset_supports
from associationabacminer_ray.pipelines.mining import mine_window
from associationabacminer_ray.sources.transcripts import (
    synth_transcripts,
    write_synth_transcripts,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("mcorpus")
    return write_synth_transcripts(str(d), n_convs=1200, shards=4)


SPEC = WindowSpec(datetime(2024, 1, 1), datetime(2024, 1, 20),
                  datetime(2024, 1, 20), datetime(2024, 1, 25))


class TestMineWindow:
    def test_exact_mode(self, ray_session, corpus):
        res = mine_window(corpus, SPEC, mode="exact", min_support=2)
        assert res["n_transactions"] > 0 and res["n_rules"] > 0
        rules = res["rules"]
        assert {"antecedent", "consequent", "confidence", "cscore",
                "constant_items"} <= set(rules.columns)
        assert res["mode"] == "exact"
        assert (rules["confidence"] <= 1.0).all()

    def test_sketch_mode_head_agrees_with_exact(self, ray_session, corpus):
        exact = mine_window(corpus, SPEC, mode="exact", min_support=2)
        sk = mine_window(corpus, SPEC, mode="sketch", min_support=2)
        assert sk["n_transactions"] == exact["n_transactions"]
        e = exact["rules"].head(5)[["antecedent", "consequent"]]
        s = sk["rules"].head(5)[["antecedent", "consequent"]]
        pd.testing.assert_frame_equal(e.reset_index(drop=True),
                                      s.reset_index(drop=True))

    def test_greedy_mode(self, ray_session, corpus):
        res = mine_window(corpus, SPEC, greedy=True, max_rounds=3, min_support=2)
        assert res["mode"] == "greedy"
        assert 1 <= res["n_rules"] <= 3
        assert res["rules"]["covered_this_round"].iloc[0] > 0

    def test_greedy_mode_matches_pandas_oracle(self, ray_session, corpus):
        """mine_window(greedy=True) now runs greedy_cover_ray (VERDICT r2
        #1); the driver-side pandas greedy_cover is the parity oracle."""
        from associationabacminer_ray.functions.windows import read_window
        from associationabacminer_ray.pipelines.itemsets import transactions
        from associationabacminer_ray.pipelines.rules import greedy_cover

        res = mine_window(corpus, SPEC, greedy=True, max_rounds=4, min_support=2)
        ds = read_window(corpus, SPEC, "obs", columns=["conv_id", "role", "tool"])
        tx_df = transactions(ds, num_buckets=64).to_pandas()
        want = greedy_cover(tx_df, metric="cscore", max_rounds=4,
                            min_support=2, max_k=2)
        got = res["rules"]
        pd.testing.assert_frame_equal(
            got[["round", "antecedent", "consequent", "support_ab",
                 "covered_this_round"]].reset_index(drop=True),
            want[["round", "antecedent", "consequent", "support_ab",
                  "covered_this_round"]].reset_index(drop=True),
        )
        assert res["n_transactions"] == len(tx_df)

    def test_greedy_mode_passes_beta(self, ray_session, corpus):
        """greedy=True scores C-Score with the caller's beta: its rounds
        equal greedy_cover_ray's at that beta on the same transactions,
        and this beta picks another policy than beta=1."""
        from associationabacminer_ray.functions.windows import read_window
        from associationabacminer_ray.pipelines.itemsets import transactions
        from associationabacminer_ray.pipelines.rules import greedy_cover_ray

        cols = ["round", "antecedent", "consequent", "cscore", "support_ab",
                "covered_this_round"]
        beta = 0.1
        got = mine_window(corpus, SPEC, greedy=True, max_rounds=3,
                          min_support=2, beta=beta)["rules"]
        ds = read_window(corpus, SPEC, "obs", columns=["conv_id", "role", "tool"])
        tx = transactions(ds, num_buckets=64).materialize()
        want = greedy_cover_ray(tx, metric="cscore", max_rounds=3,
                                min_support=2, max_k=2, beta=beta)
        at_one = greedy_cover_ray(tx, metric="cscore", max_rounds=3,
                                  min_support=2, max_k=2)
        assert not want[["antecedent", "consequent"]].equals(
            at_one[["antecedent", "consequent"]])
        pd.testing.assert_frame_equal(got[cols].reset_index(drop=True),
                                      want[cols].reset_index(drop=True))

    def test_greedy_sketch_mode_routes_to_sketch_engine(self, ray_session, corpus):
        """mode='sketch' + greedy=True must run sketch greedy rounds, not
        silently degrade to the exact path (ADVICE r2); at this scale the
        space-saving head is exact, so selections match the exact mode."""
        exact = mine_window(corpus, SPEC, greedy=True, max_rounds=3, min_support=2)
        sk = mine_window(corpus, SPEC, mode="sketch", greedy=True, max_rounds=3,
                         min_support=2)
        pd.testing.assert_frame_equal(
            sk["rules"][["round", "antecedent", "consequent",
                         "covered_this_round"]].reset_index(drop=True),
            exact["rules"][["round", "antecedent", "consequent",
                            "covered_this_round"]].reset_index(drop=True),
        )


class TestGoldenRulesK3:
    def test_supports_k3_match_oracle(self, ray_session):
        import ray.data as rd

        tbl = synth_transcripts(800, seed=21)
        got = exact_itemset_supports(rd.from_arrow(tbl), max_k=3, num_buckets=8,
                                     max_transaction_items=None).to_pandas()
        df = tbl.to_pandas()
        df["item"] = df["role"] + "=" + df["tool"]
        tx = df.drop_duplicates(["conv_id", "item"]).groupby("conv_id")["item"].agg(
            lambda s: tuple(sorted(s)))
        want: Counter = Counter()
        for items in tx:
            for k in range(1, min(3, len(items)) + 1):
                for combo in itertools.combinations(items, k):
                    want["|".join(combo)] += 1
        got_map = dict(zip(got["itemset"], got["support"]))
        assert got_map == dict(want)
        assert (got["k"] <= 3).all() and (got["k"] == 3).any()


class TestEmptyWindow:
    EMPTY = WindowSpec(datetime(2030, 1, 1), datetime(2030, 1, 10),
                       datetime(2030, 1, 10), datetime(2030, 1, 12))

    @pytest.mark.parametrize("kw", [{"mode": "exact"}, {"mode": "sketch"},
                                    {"greedy": True}])
    def test_mine_empty_window_returns_zero(self, ray_session, corpus, kw):
        res = mine_window(corpus, self.EMPTY, **kw)
        assert res["n_transactions"] == 0
        assert res["n_rules"] == 0


class TestNullRoleTool:
    def test_partitioned_path_handles_nulls(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from associationabacminer_ray.pipelines.itemsets import (
            exact_itemset_supports,
            itemset_supports_partitioned,
        )

        tbl = pa.table({
            "conv_id": ["c1", "c1", "c2", "c3"],
            "role": ["user", None, "user", "tool"],
            "tool": [None, "t1", "", "t2"],
        })
        path = str(tmp_path / "nulls.parquet")
        pq.write_table(tbl, path)
        got = itemset_supports_partitioned([path], mode="exact", max_k=2,
                                           max_transaction_items=None).to_pandas()
        want = exact_itemset_supports(rd.read_parquet(path), max_k=2,
                                      num_buckets=4,
                                      max_transaction_items=None).to_pandas()
        g = got.sort_values("itemset").reset_index(drop=True)
        w = want.sort_values("itemset").reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w[g.columns])
        assert any("NONE" in i for i in g["itemset"])

    def test_categorical_updater_handles_nulls(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from associationabacminer_ray.stages.sketch_update import (
            CategoricalItemSketchUpdater,
            merge_sketch_partials,
        )

        tbl = pa.table({
            "conv_id": ["c1", "c2", "c3"],
            "role": ["user", None, "tool"],
            "tool": [None, "t1", "t2"],
        })
        merged = merge_sketch_partials(
            rd.from_arrow(tbl).map_batches(CategoricalItemSketchUpdater(),
                                           batch_format="pyarrow"))
        keys = [k for k, _, _ in merged["item_topk"].top()]
        assert "user=NONE" in keys and "NONE=t1" in keys


def test_score_policy_false_positives_with_universe():
    from associationabacminer_ray.pipelines.evaluate import score_policy

    opr = pd.DataFrame({"conv_id": ["c1", "c2"], "items": ["a,b", "c"]})
    universe = pd.DataFrame({"items": ["a,b", "c", "a,b,d", "a,b,e"]})
    rules = pd.DataFrame({"antecedent": ["a"], "consequent": ["b"]})
    s = score_policy(opr, rules, universe_transactions=universe)
    # the policy allows 3 universe transactions but only 1 was exercised
    assert s["u_tp"] == 1 and s["u_fp"] == 2
    assert s["precision"] == pytest.approx(1 / 3)
    assert s["fpr"] > 0
