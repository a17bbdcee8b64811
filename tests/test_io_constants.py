"""Small-result sink, constant-item folding."""


import pandas as pd

from associationabacminer_ray.pipelines.rules import (
    extract_constant_items,
    reinject_constant_items,
    rules_from_supports,
)
from associationabacminer_ray.sources.io import write_small_result


class TestSinks:
    def test_write_small_result_atomic(self, tmp_path):
        p = str(tmp_path / "scores.parquet")
        write_small_result(pd.DataFrame({"x": [1]}), p)
        assert pd.read_parquet(p)["x"].tolist() == [1]
        write_small_result(pd.DataFrame({"x": [2]}), p)  # overwrite OK
        assert pd.read_parquet(p)["x"].tolist() == [2]


class TestConstantItems:
    SUP = pd.DataFrame({
        "itemset": ["c", "a", "b", "a|c", "b|c", "a|b", "a|b|c"],
        "k": [1, 1, 1, 2, 2, 2, 3],
        "support": [10, 6, 4, 6, 4, 3, 3],
    })

    def test_extract_and_reinject(self):
        pruned, constants = extract_constant_items(self.SUP, n_transactions=10)
        assert constants == ["c"]
        assert set(pruned["itemset"]) == {"a", "b", "a|b"}
        # supports preserved (a|c collapses onto a with equal support)
        m = dict(zip(pruned["itemset"], pruned["support"]))
        assert m["a"] == 6 and m["a|b"] == 3
        rules = rules_from_supports(pruned, n_transactions=10)
        out = reinject_constant_items(rules, constants)
        assert (out["constant_items"] == "c").all()
        assert out["antecedent"].str.endswith("|c").all()
        assert (out["n_antecedent"] == 2).all()

    def test_no_constants_noop(self):
        pruned, constants = extract_constant_items(self.SUP, n_transactions=11)
        assert constants == [] and len(pruned) == len(self.SUP)
