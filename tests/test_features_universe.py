"""Feature-selection family + generated allowed-universe (round 2).

The oracle-parity file already gates field_stats / info_gain /
dependency_pairs / allowed_universe / policy_eval_fixed against DuckDB;
these tests cover what SQL can't: PFA vs a direct numpy recompute, the
generated-universe union vs a brute-force python set (the reference's
in-memory inner_allowed_hashes), the HLL twin's error bound, and the
score_policy integration of generated uPos.
"""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


class TestPFA:
    def test_matches_direct_numpy(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.pipelines.features import (
            _kmeans_euclid,
            distributed_correlation,
            pfa_select,
        )

        emb_df = pd.read_parquet(f"{SF}/embeddings.parquet")
        X = np.stack(emb_df["embedding"].to_numpy()).astype(np.float64)
        ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"])

        # distributed moments == direct moments (multi-block input)
        corr, mean, std, n = distributed_correlation(ds)
        assert n == len(X)
        np.testing.assert_allclose(mean, X.mean(axis=0), rtol=0, atol=1e-9)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        np.testing.assert_allclose(corr, (Xs.T @ Xs) / len(X),
                                   rtol=0, atol=1e-6)

        # end-to-end selection == the same algorithm run single-machine
        got = pfa_select(ds, n_features=8)
        evals, evecs = np.linalg.eigh(corr)
        a_q = evecs[:, np.argsort(evals)[::-1]]
        assign, centers = _kmeans_euclid(a_q, 8, seed=5)
        want = []
        for c in range(8):
            members = np.flatnonzero(assign == c)
            if not len(members):
                continue
            dist = ((a_q[members] - centers[c]) ** 2).sum(axis=1)
            want.append(int(members[np.lexsort((members, dist))[0]]))
        assert list(got["feature_idx"]) == want
        assert got["feature_idx"].is_unique

    def test_deterministic(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.pipelines.features import pfa_select

        ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"])
        a = pfa_select(ds, n_features=4)
        b = pfa_select(ds, n_features=4)
        pd.testing.assert_frame_equal(a, b)


class TestInfoGain:
    def test_matches_direct_formula(self, ray_session):
        from associationabacminer_ray.pipelines.features import (
            feature_label_counts,
            q_info_gain,
        )

        counts = feature_label_counts(SF)
        got = q_info_gain(SF).set_index("feature")["mi_millinats"]
        for feat, sub in counts.groupby("feature"):
            pivot = sub.pivot_table(index="value", columns="label", values="n",
                                    fill_value=0, aggfunc="sum").to_numpy(float)
            total = pivot.sum()
            px = pivot.sum(axis=1, keepdims=True) / total
            py = pivot.sum(axis=0, keepdims=True) / total
            p = pivot / total
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(p > 0, p * np.log(p / (px @ py)), 0.0)
            mi = terms.sum()
            assert got[feat] == pytest.approx(mi * 1000, abs=1.0)
            assert mi >= -1e-12  # MI is non-negative


class TestGeneratedUniverse:
    DOMAINS = {
        "role": ["admin", "user", "svc"],
        "tool": [f"k{i}" for i in range(7)],
        "hour": [str(h) for h in range(5)],
    }
    STATEMENTS = [
        {"role": ["admin"]},                       # 1×7×5 = 35
        {"tool": ["k1", "k2"]},                    # 3×2×5 = 30, overlaps stmt1
        {"role": ["admin", "user"], "hour": ["3"]},  # 2×7×1 = 14, overlaps both
    ]

    def test_exact_union_matches_python_set(self, ray_session):
        from associationabacminer_ray.pipelines.universe import (
            count_allowed_universe,
            count_allowed_universe_pyset,
        )

        res = count_allowed_universe(self.STATEMENTS, self.DOMAINS, mode="exact")
        want = count_allowed_universe_pyset(self.STATEMENTS, self.DOMAINS)
        assert res["u_pos"] == want
        assert res["per_statement"] == [35, 30, 14]
        assert res["universe_total"] == 3 * 7 * 5
        # genuine overlap: the union is strictly below the sum
        assert res["u_pos"] < sum(res["per_statement"])

    def test_hll_union_within_bound(self, ray_session):
        from associationabacminer_ray.pipelines.universe import (
            count_allowed_universe,
            count_allowed_universe_pyset,
        )

        # a bigger space so the HLL bound is meaningful
        domains = {"a": [str(i) for i in range(40)],
                   "b": [str(i) for i in range(40)],
                   "c": [str(i) for i in range(12)]}
        stmts = [{"a": [str(i) for i in range(20)]},
                 {"b": [str(i) for i in range(25)]}]
        exact = count_allowed_universe_pyset(stmts, domains)
        est = count_allowed_universe(stmts, domains, mode="hll")["u_pos"]
        # HLL p=14 → rse ≈ 1.04/√2¹⁴ ≈ 0.8%; allow 3σ
        assert abs(est - exact) / exact < 0.025

    def test_empty_constraint_yields_zero(self, ray_session):
        from associationabacminer_ray.pipelines.universe import (
            count_allowed_universe,
        )

        res = count_allowed_universe([{"role": []}], self.DOMAINS)
        assert res["u_pos"] == 0
        assert res["per_statement"] == [0]

    def test_score_policy_generated_upos(self, ray_session):
        from associationabacminer_ray.pipelines.evaluate import score_policy

        tx = pd.DataFrame({
            "conv_id": ["c1", "c2", "c3"],
            "items": ["a=1,b=2", "a=1", "b=2"],
        })
        rules = pd.DataFrame({"antecedent": ["a=1"], "consequent": ["b=2"]})
        base = score_policy(tx, rules)
        # degenerate path: uPos == uTP → precision 1
        assert base["precision"] == 1.0


class TestScorePolicyTurnsGenerated:
    def test_counts_match_pandas_brute_force(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.pipelines.universe import (
            count_allowed_universe_pyset,
            score_policy_turns_generated,
            statements_from_rules,
        )

        df = pd.DataFrame({
            "role": ["u", "u", "a", "a", "u", "a"],
            "tool": ["k1", "k2", "k1", "k3", "k1", "k3"],
            "ts": pd.to_datetime([
                "2024-01-01 10:00", "2024-01-01 11:00", "2024-01-02 10:00",
                "2024-01-02 12:00", "2024-01-08 10:00", "2024-01-03 12:00"]),
        })
        rules = pd.DataFrame({"antecedent": ["u=k1"], "consequent": ["a=k3"]})
        rt = df["role"] + "=" + df["tool"]
        domains = {
            "role_tool": sorted(rt.unique()),
            "hour": sorted(df["ts"].dt.hour.astype(str).unique()),
            "weekday": sorted(df["ts"].dt.dayofweek.astype(str).unique()),
        }
        got = score_policy_turns_generated(rd.from_pandas(df), rules, domains)
        # brute force with pandas/python sets
        allowed_items = {"u=k1", "a=k3"}
        tup = list(zip(rt, df["ts"].dt.hour.astype(str),
                       df["ts"].dt.dayofweek.astype(str)))
        allowed_mask = rt.isin(allowed_items)
        assert got["n_turns"] == 6
        assert got["c_tp"] == int(allowed_mask.sum())
        assert got["c_fn"] == int((~allowed_mask).sum())
        assert got["u_tp"] == len({t for t, a in zip(tup, allowed_mask) if a})
        assert got["u_fn"] == len({t for t, a in zip(tup, allowed_mask) if not a})
        stmts = statements_from_rules(rules, domains)
        assert got["u_pos"] == count_allowed_universe_pyset(stmts, domains)
        assert got["u_fp"] == got["u_pos"] - got["u_tp"]
        assert got["universe_total"] == (len(domains["role_tool"])
                                         * len(domains["hour"])
                                         * len(domains["weekday"]))


class TestFieldStats:
    def test_none_semantics(self, ray_session):
        from associationabacminer_ray.pipelines.features import q_field_stats

        out = q_field_stats(SF).set_index("field")
        # props_k_bin has NONE rows → instances < the always-present fields
        assert out.loc["props_k_bin", "instances"] < out.loc["role", "instances"]
        # identity uf + iuf == frequency can drift only by the two
        # integer-division floors (≤ 2 bp)
        drift = (out["frequency_bp"] - (out["uf_bp"] + out["iuf_bp"])).abs()
        assert (drift <= 2).all()
