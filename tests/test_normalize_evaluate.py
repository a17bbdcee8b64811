"""Policy evaluation (A12), RBAC (A14), rule merge, score aggregation
(A13), AUC (A20) — plus the per-turn text-equality invariant
(BASELINE.md) over the transcript path's turn normaliser."""

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.pipelines.evaluate import (
    aggregate_scores,
    auc_points,
    merge_policy,
    policy_allows,
    rbac_policy,
    score_policy,
)
from associationabacminer_ray.sources.transcripts import synth_transcripts
from associationabacminer_ray.stages.transactionize import make_items


class TestNormalizer:
    """The transcript path's turn normaliser is ``make_items`` (NONE
    fill, ``role=tool`` item)."""

    def test_per_turn_text_equality_invariant(self, ray_session):
        """Row-preserving pipelines keep text bit-identical under stable
        (conv_id, turn_idx) ordering (BASELINE.md invariant)."""
        import ray.data as rd

        tbl = synth_transcripts(500, seed=7)
        ds = rd.from_arrow(tbl).map_batches(make_items, batch_format="pandas")
        got = (ds.to_pandas().sort_values(["conv_id", "turn_idx"])
               .reset_index(drop=True))
        want = (tbl.to_pandas().sort_values(["conv_id", "turn_idx"])
                .reset_index(drop=True))
        assert len(got) == len(want)
        pd.testing.assert_series_equal(got["text"], want["text"])
        pd.testing.assert_series_equal(got["ts"], want["ts"])


TX = pd.DataFrame({
    "conv_id": [f"c{i}" for i in range(6)],
    "items": ["a,b", "a,b,c", "a,c", "d", "d,e", "b"],
})
RULES = pd.DataFrame({"antecedent": ["a"], "consequent": ["b"]})


class TestPolicyEvaluation:
    def test_policy_allows_first_match(self):
        allowed = policy_allows(TX, RULES)
        assert allowed.tolist() == [True, True, False, False, False, False]

    def test_score_policy_counts_and_metrics(self):
        s = score_policy(TX, RULES)
        assert (s["c_tp"], s["c_fn"]) == (2, 4)
        assert (s["u_tp"], s["u_fn"]) == (2, 4)
        assert s["recall"] == pytest.approx(2 / 6)
        assert s["precision"] == 1.0  # u_fp = 0 at window scale
        assert s["n_rules"] == 1

    def test_degenerate_overrides(self):
        empty_rules = pd.DataFrame({"antecedent": [], "consequent": []})
        s = score_policy(TX, empty_rules)
        assert s["precision"] == 1.0  # nothing allowed → precision 1
        s2 = score_policy(TX.iloc[:0], RULES)
        assert s2["recall"] == 1.0  # nothing exercised → recall 1


class TestRbacAndMerge:
    def test_rbac_policy(self):
        p = rbac_policy(TX)
        assert len(p) == 6
        assert p.loc[1, "allowed_items"] == "a,b,c"
        assert p.loc[1, "n_items"] == 3

    def test_merge_policy(self):
        rules = pd.DataFrame({
            "antecedent": ["a", "a", "x"],
            "consequent": ["b", "c", "y|z"],
        })
        merged = merge_policy(rules)
        # {a,b} and {a,c} differ in... a^b vs a^c = {b,c} → 2 elements, no merge;
        # but {a,b,c} result only if diff ≤ 1. Here |{a,b}^{a,c}|=2 → stays split
        assert len(merged) == 3
        rules2 = pd.DataFrame({
            "antecedent": ["a|b", "a|b"],
            "consequent": ["c", "d"],
        })
        merged2 = merge_policy(rules2)  # {a,b,c}^{a,b,d} = {c,d} size 2 → no merge
        assert len(merged2) == 2
        rules3 = pd.DataFrame({
            "antecedent": ["a|b", "a|b|c", "a"],
            "consequent": ["c", "d", "b|c"],
        })
        # {a,b,c} vs {a,b,c,d}: diff={d} ≤1 → merge; third {a,b,c} merges too
        merged3 = merge_policy(rules3)
        assert len(merged3) == 1
        assert merged3.loc[0, "items"] == "a|b|c|d"


class TestScoresAndAuc:
    def test_aggregate_scores(self):
        df = pd.DataFrame({
            "config_hash": ["x", "x", "y"],
            "precision": [0.5, 0.7, 1.0],
            "recall": [0.2, 0.4, 0.6],
        })
        out = aggregate_scores(df)
        assert out.loc[out["config_hash"] == "x", "precision"].iloc[0] == pytest.approx(0.6)
        assert out.loc[out["config_hash"] == "y", "recall"].iloc[0] == pytest.approx(0.6)

    def test_auc_perfect_and_random(self):
        perfect = pd.DataFrame({"fpr": [0.0], "tpr": [1.0]})
        assert auc_points(perfect) == pytest.approx(1.0)
        diagonal = pd.DataFrame({"fpr": [0.25, 0.5, 0.75], "tpr": [0.25, 0.5, 0.75]})
        assert auc_points(diagonal) == pytest.approx(0.5)
