"""Rule scoring family + greedy cover + windows."""

from datetime import datetime

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.functions import scoring as S
from associationabacminer_ray.functions.windows import generate_windows
from associationabacminer_ray.pipelines.rules import (
    best_rule,
    greedy_cover,
    rules_from_supports,
)


def test_score_formulas_and_degenerate_overrides():
    # confidence: support_a=0 → 1 (EnvPolicyEvaluator.py:231-244 analog)
    conf = S.confidence([5, 0], [10, 0])
    assert conf.tolist() == [0.5, 1.0]
    # coverage: n=0 → all ones
    assert S.coverage_rate([3], 0).tolist() == [1.0]
    assert S.coverage_rate([3], 10).tolist() == [0.3]
    # cscore arithmetic mean; fbeta harmonic; product; l_dist corner
    assert S.cscore([0.4], [0.6])[0] == pytest.approx(0.5)
    assert S.fbeta([0.5], [0.5])[0] == pytest.approx(0.5)
    assert S.fbeta([0.0], [0.0])[0] == 0.0
    assert S.product_score([0.4], [0.5])[0] == pytest.approx(0.2)
    assert S.l_dist([1.0], [1.0])[0] == 0.0
    assert S.wsc([2], [1])[0] == 3.0
    assert S.lift([0.5], [0], 10)[0] == 0.0


def test_rules_from_supports():
    sup = pd.DataFrame(
        {
            "itemset": ["a", "b", "c", "a|b", "a|c"],
            "k": [1, 1, 1, 2, 2],
            "support": [10, 6, 4, 5, 2],
        }
    )
    rules = rules_from_supports(sup, n_transactions=20)
    got = {(r.antecedent, r.consequent): r for r in rules.itertuples()}
    assert got[("a", "b")].confidence == pytest.approx(0.5)
    assert got[("b", "a")].confidence == pytest.approx(5 / 6)
    assert got[("a", "b")].coverage == pytest.approx(0.25)
    assert got[("a", "b")].lift == pytest.approx(0.5 * 20 / 6)
    assert got[("a", "c")].support_ab == 2


def test_best_rule_tiebreak_and_ldist():
    rules = pd.DataFrame(
        {
            "antecedent": ["a", "a|b", "z"],
            "consequent": ["x", "y", "w"],
            "cscore": [0.9, 0.9, 0.5],
            "l_dist": [0.3, 0.1, 0.2],
            "n_antecedent": [1, 2, 1],
            "n_consequent": [1, 1, 1],
        }
    )
    # max metric, tie → fewer constraints wins
    assert best_rule(rules, "cscore")["antecedent"] == "a"
    # l_dist minimized
    assert best_rule(rules, "l_dist")["antecedent"] == "a|b"


def _toy_transactions():
    return pd.DataFrame(
        {
            "conv_id": [f"c{i}" for i in range(10)],
            "items": ["a,b"] * 5 + ["a,c"] * 3 + ["d,e"] * 2,
        }
    )


def test_greedy_cover_selects_and_covers():
    policy = greedy_cover(_toy_transactions(), metric="cscore", max_rounds=5,
                          coverage_target=0.99, min_support=2)
    assert len(policy) >= 2
    # the dominant a,b rule is picked first and covers 5 conversations
    first = policy.iloc[0]
    assert {first["antecedent"], first["consequent"]} == {"a", "b"}
    assert first["covered_this_round"] == 5
    assert policy["covered_this_round"].sum() <= 10


def test_generate_windows():
    specs = generate_windows(datetime(2024, 1, 1), datetime(2024, 2, 15),
                             obs_days=30, opr_days=7, step_days=1)
    assert len(specs) == 9  # 45 days - 37 + 1
    s = specs[0]
    assert s.opr_start == s.obs_end
    assert (s.obs_end - s.obs_start).days == 30
    assert s.window_id == "obs-20240101-20240131"


def test_reference_score_family_formulas():
    """Exact reference formulas (EnvOverassignmentCalculator.py:140-163)
    on a hand-computed example: unique=4, allowed=10, n=20, wsc=2, beta=1."""
    df = pd.DataFrame({"support_ab": [4], "support_a": [10], "support_b": [5],
                       "n_antecedent": [1], "n_consequent": [1]})
    out = S.reference_score_family(df.copy(), n_transactions=20, beta=1.0)
    over = 10 - 4                       # 6
    overR = 1 - over / 20               # 0.7
    covR = 4 / 20                       # 0.2
    assert out["harmonic_mean"][0] == pytest.approx(
        2 * overR * covR / (overR + covR))
    assert out["arithmetic_mean"][0] == pytest.approx((covR + overR) / 2)
    assert out["arithmetic_mean_wsc"][0] == pytest.approx((4 / 2 + overR) / 2)
    assert out["product_ref"][0] == pytest.approx(4 / 6)
    assert out["Qrul_count1"][0] == pytest.approx(4 * (1 - 6 / 10))
    assert out["Qrul_count1_i"][0] == pytest.approx(4 * (1 - 6 / 4))
    assert out["Qrul_count"][0] == pytest.approx((4 / 2) * (1 - 6 / 10))
    assert out["Qrul_count_i"][0] == pytest.approx((4 / 2) * (1 - 6 / 4))
    # additive l_dist: under + beta*over (reference :157), minimized
    assert out["l_dist_ref"][0] == pytest.approx((20 - 4) + 6)
    assert "l_dist_ref" in S.MINIMIZED_METRICS


def test_fbeta_reference_operand_order():
    # beta=2 weights covR (reference comment: B>1 covR more important)
    hi_cov = S.fbeta([0.9], [0.1], beta=2.0)[0]
    hi_over = S.fbeta([0.1], [0.9], beta=2.0)[0]
    assert hi_cov > hi_over


def test_best_rule_accepts_reference_metrics():
    sup = pd.DataFrame({"itemset": ["a", "b", "a|b"], "k": [1, 1, 2],
                        "support": [10, 6, 5]})
    rules = rules_from_supports(sup, n_transactions=20)
    top = best_rule(rules, "Qrul_count")
    assert top["antecedent"] in ("a", "b")
    top2 = best_rule(rules, "l_dist_ref")
    assert np.isfinite(top2["l_dist_ref"])


def test_turn_weighted_supports_distinguish_freq_family(ray_session):
    """With turn_support tracked, Qrul_freq uses Σ-turns (all_log_entries
    analog) and genuinely differs from Qrul_count."""
    import __ray_entry__ as e

    sup = e.queries()["support_weighted"]("/root/testdata/sf0.001").to_pandas()
    assert {"itemset", "k", "support", "turn_support"} <= set(sup.columns)
    assert (sup["turn_support"] >= sup["support"]).all()
    rules = rules_from_supports(sup, n_transactions=int(sup["support"].max()),
                                min_support=2)
    assert "support_ab_turns" in rules.columns
    assert (rules["support_ab_turns"] >= rules["support_ab"]).all()
    # freq family now differs from count family wherever turns > convs
    differs = rules["Qrul_freq1"] != rules["Qrul_count1"]
    assert differs.any()


def test_exact_tail_blocks_size_without_error(ray_session):
    """A bucket whose itemsets all fall under min_support leaves an empty
    block; Ray must size every block of the exact tail without logging
    an error (an empty pandas object column breaks its size estimate)."""
    import logging

    import ray
    import ray.data as rd
    from ray.data.block import BlockAccessor

    from associationabacminer_ray.pipelines.itemsets import (
        merge_exact_itemset_partials,
    )

    items = [f"tool=t{i:02d}" for i in range(40)] + ["tool=t00"]
    df = pd.DataFrame({"itemset": items,
                       "count": np.ones(len(items), dtype=np.int64)})
    # 8 blocks make 8 shuffle partitions, all but one under min_support
    partials = rd.from_pandas([df.iloc[i::8] for i in range(8)])
    out = merge_exact_itemset_partials(partials, 8, min_support=2).materialize()
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref in bundle.block_refs]
    assert any(BlockAccessor.for_block(b).num_rows() == 0 for b in blocks)

    class Collect(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    handler = Collect()
    logger = logging.getLogger("ray.data._internal.pandas_block")
    logger.addHandler(handler)
    try:
        for b in blocks:
            BlockAccessor.for_block(b).size_bytes()
    finally:
        logger.removeHandler(handler)
    assert handler.messages == []
    got = out.to_pandas()
    assert got.to_dict("records") == [
        {"itemset": "tool=t00", "k": 1, "support": 2}]
    assert got.dtypes.astype(str).to_dict() == {
        "itemset": "object", "k": "int32", "support": "int64"}


def test_roc_table():
    from associationabacminer_ray.pipelines.evaluate import auc_points, roc_table

    df = pd.DataFrame({"beta": [2.0, 1.0, 0.5, 1.5],
                       "fpr": [0.3, 0.1, 0.1, 0.2],
                       "tpr": [0.9, 0.6, 0.6, 0.8]})
    roc = roc_table(df)
    assert len(roc) == 3  # duplicate (0.1, 0.6) dropped
    assert roc["beta"].is_monotonic_increasing
    # deterministic representative: smallest beta wins regardless of order
    assert roc.loc[(roc["fpr"] == 0.1), "beta"].iloc[0] == 0.5
    rev = roc_table(df.iloc[::-1].reset_index(drop=True))
    pd.testing.assert_frame_equal(roc, rev)
    assert 0.5 < auc_points(roc) <= 1.0
    # y falls back to "recall" (score_policy output); missing cols raise
    df2 = df.rename(columns={"tpr": "recall"})
    assert "recall" in roc_table(df2).columns
    with pytest.raises(ValueError, match="missing column"):
        roc_table(pd.DataFrame({"beta": [1.0]}))
