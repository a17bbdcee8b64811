"""Policy evaluation, RBAC mining, rule merging, score aggregation, AUC.

- ``score_policy``: the EnvPolicyEvaluator transplant (A12,
  ``src/eval/EnvPolicyEvaluator.py:202-252``): stream the opr-window's
  transactions, classify each against the policy (first-match-wins
  semi-join J1), count TP/FN (+ unique via exact sets at window scale /
  HLL at cluster scale), and derive the confusion-matrix metrics with
  the reference's degenerate-case overrides (:231-244).
- ``rbac_policy``: the RbacRuleMiner analog (A14,
  ``src/RbacRuleMiner.py:33-47``): one rule per conversation "user" —
  per-conv distinct tool set.
- ``merge_policy``: RuleMerger transplant (``src/eval/RuleMerger.py:
  49-64``): O(n²) pairwise merge while any rule pair differs in at most
  one element — fine, policies are tiny.
- ``aggregate_scores``: A13 (``src/job/ScoreAggregator.py:21-56``):
  mean of score columns grouped by config hash.
- ``auc_points``: A20 (``src/job/AUCPrinter.py:9-37``): trapezoid AUC
  over sorted (FPR, TPR) points (no sklearn dependency).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.transactionize import ITEM_SEP


def _rule_matches(items_joined: pd.Series, rule_items: list[str]) -> np.ndarray:
    padded = "," + items_joined + ","
    mask = np.ones(len(items_joined), dtype=bool)
    for it in rule_items:
        mask &= padded.str.contains("," + it + ",", regex=False).to_numpy()
    return mask


def policy_allows(transactions: pd.DataFrame, rules: pd.DataFrame) -> np.ndarray:
    """First-match-wins: a transaction is allowed if ANY rule's full item
    set is contained in it (RuleEvaluator.rule_allows_event analog)."""
    allowed = np.zeros(len(transactions), dtype=bool)
    items = transactions["items"].reset_index(drop=True)
    for _, rule in rules.iterrows():
        todo = ~allowed
        if not todo.any():
            break
        rule_items = (rule["antecedent"].split(ITEM_SEP)
                      + rule["consequent"].split(ITEM_SEP))
        allowed[todo] |= _rule_matches(items[todo], sorted(set(rule_items)))
    return allowed


def score_policy(opr_transactions: pd.DataFrame, rules: pd.DataFrame,
                 universe_transactions: pd.DataFrame | None = None) -> dict:
    """Confusion-matrix scoring of a mined policy on the operation window
    at TRANSACTION granularity (uTP/uFN count distinct item-set strings).

    False positives need an allowed-universe: ``universe_transactions``
    holds the observed obs∪opr distinct transactions, and uPos counts
    those the policy allows; its distinct count is also the
    total-possible-priv-states denominator for TN/accuracy. Without it,
    uPos degenerates to uTP (precision trivially 1 at pure window scale
    — documented). For the reference's true EVENT-TUPLE enumeration
    semantics (EnvPolicyEvaluator count_positives, :79-169) use
    ``pipelines.universe.score_policy_turns_generated``, which keeps
    every count at turn-tuple level. Degenerate-case overrides mirror
    :231-244.
    """
    n = len(opr_transactions)
    allowed = policy_allows(opr_transactions, rules)
    c_tp = int(allowed.sum())
    c_fn = int(n - c_tp)
    uniq = opr_transactions.assign(_allowed=allowed).drop_duplicates("items")
    u_tp = int(uniq["_allowed"].sum())
    u_fn = int(len(uniq) - u_tp)
    if universe_transactions is not None:
        universe = universe_transactions.drop_duplicates("items")
        u_pos = int(policy_allows(universe, rules).sum())
        total = len(universe)
    else:
        u_pos = u_tp  # window-scale degeneracy: precision trivially 1
        total = len(uniq)
    return _confusion_metrics(c_tp, c_fn, u_tp, u_fn, u_pos, total,
                              n_rules=int(len(rules)))


def _confusion_metrics(c_tp: int, c_fn: int, u_tp: int, u_fn: int,
                       u_pos: int, total: int, n_rules: int) -> dict:
    """Shared confusion-matrix closure — identical formula for the
    pandas and the distributed scorer, so the two paths can only differ
    in the integer counts they feed in (pinned equal by the parity
    test). Degenerate overrides mirror EnvPolicyEvaluator.py:231-244."""
    u_fp = max(0, u_pos - u_tp)
    u_tn = max(0, total - (u_tp + u_fn + u_fp))
    precision = 1.0 if (u_tp + u_fp) == 0 else u_tp / (u_tp + u_fp)
    recall = 1.0 if (u_tp + u_fn) == 0 else u_tp / (u_tp + u_fn)
    specificity = 1.0 if (u_tn + u_fp) == 0 else u_tn / (u_tn + u_fp)
    fpr = 0.0 if (u_fp + u_tn) == 0 else u_fp / (u_fp + u_tn)
    accuracy = (u_tp + u_tn) / total if total else 1.0
    return {
        "c_tp": c_tp, "c_fn": c_fn, "u_tp": u_tp, "u_fn": u_fn,
        "u_fp": u_fp, "u_tn": u_tn, "precision": precision, "recall": recall,
        "specificity": specificity, "fpr": fpr, "accuracy": accuracy,
        "n_rules": n_rules,
    }


# buckets of score_policy_ray's two u-pass shuffles
SCORE_BUCKETS = 16


def score_policy_ray(opr_transactions, rules: pd.DataFrame,
                     universe_transactions=None) -> dict:
    """Distributed ``score_policy``: transaction/universe sides are Ray
    DATASETS that stream through partial-sum stages — nothing but
    O(SCORE_BUCKETS) count rows ever reaches the driver (the fix for the
    job-loop's window ``to_pandas()``, VERDICT r3 #1; reference
    semantics src/eval/EnvPolicyEvaluator.py:202-252).

    - policy broadcast: the (small, top-k-capped) rules frame goes
      through the object store ONCE via ``ray.put``, read per task.
    - c-pass: ``map_batches`` partial (n, tp) sums over the raw
      transaction stream — no shuffle.
    - u-pass: one hash(items)-bucketed shuffle; per bucket dedup →
      classify → partial (distinct, allowed) sums. The universe side
      (obs ∪ opr distinct transactions) reuses the same fused pass.

    Returns the identical dict ``score_policy`` returns (same
    ``_confusion_metrics`` closure; parity-pinned in tests)."""
    import ray

    from .analytics import bucketed_group_agg

    rules_ref = ray.put(rules[["antecedent", "consequent"]]
                        if len(rules) else rules)

    def c_partial(b: pd.DataFrame) -> pd.DataFrame:
        allowed = policy_allows(b, ray.get(rules_ref))
        return pd.DataFrame({"n": [np.int64(len(b))],
                             "tp": [np.int64(allowed.sum())]})

    def dedup_allow(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates("items").reset_index(drop=True)
        allowed = policy_allows(u, ray.get(rules_ref))
        return pd.DataFrame({"n": [np.int64(len(u))],
                             "tp": [np.int64(allowed.sum())]})

    def sums(ds) -> tuple[int, int]:
        df = ds.to_pandas()
        return ((int(df["n"].sum()), int(df["tp"].sum()))
                if len(df) else (0, 0))

    n, c_tp = sums(opr_transactions.map_batches(
        c_partial, batch_format="pandas"))
    u_n, u_tp = sums(bucketed_group_agg(
        opr_transactions.select_columns(["items"]), ["items"],
        dedup_allow, num_buckets=SCORE_BUCKETS))
    c_fn, u_fn = n - c_tp, u_n - u_tp
    if universe_transactions is not None:
        univ_n, u_pos = sums(bucketed_group_agg(
            universe_transactions.select_columns(["items"]), ["items"],
            dedup_allow, num_buckets=SCORE_BUCKETS))
        total = univ_n
    else:
        u_pos, total = u_tp, u_n  # window-scale degeneracy
    return _confusion_metrics(c_tp, c_fn, u_tp, u_fn, u_pos, total,
                              n_rules=int(len(rules)))


def rbac_policy(transactions: pd.DataFrame, user_col: str = "conv_id") -> pd.DataFrame:
    """One rule per user: their full observed item set (RbacRuleMiner)."""
    return pd.DataFrame({
        "user": transactions[user_col],
        "allowed_items": transactions["items"],
        "n_items": transactions["items"].str.count(",") + 1,
    })


def merge_policy(rules: pd.DataFrame) -> pd.DataFrame:
    """Pairwise-merge rules that differ in ≤1 item (RuleMerger.py:49-64):
    repeat until no pair merges. Rule identity = full sorted item set."""
    sets = [frozenset(r["antecedent"].split(ITEM_SEP)
                      + r["consequent"].split(ITEM_SEP))
            for _, r in rules.iterrows()]
    changed = True
    while changed:
        changed = False
        out: list[frozenset] = []
        used = [False] * len(sets)
        for i in range(len(sets)):
            if used[i]:
                continue
            cur = sets[i]
            for j in range(i + 1, len(sets)):
                if used[j]:
                    continue
                if len(cur ^ sets[j]) <= 1:  # differ in at most one element
                    cur = cur | sets[j]
                    used[j] = True
                    changed = True
            out.append(cur)
        sets = out
    return pd.DataFrame({
        "items": [ITEM_SEP.join(sorted(s)) for s in sets],
        "n_items": [len(s) for s in sets],
    }).sort_values("items").reset_index(drop=True)


def aggregate_scores(scores: pd.DataFrame) -> pd.DataFrame:
    """Mean of every numeric score column per ``config_hash``
    (ScoreAggregator)."""
    num_cols = [c for c in scores.columns
                if c != "config_hash" and np.issubdtype(scores[c].dtype, np.number)]
    return scores.groupby("config_hash", sort=True)[num_cols].mean().reset_index()


def roc_table(scores: pd.DataFrame, beta_col: str = "beta", x: str = "fpr",
              y: str | None = None) -> pd.DataFrame:
    """ROC points sorted by beta with duplicate (fpr, tpr) points dropped
    (ROCPrinter.py:22-82 semantics); feed to ``auc_points`` or CSV via
    sources.io.write_small_result.

    ``y`` defaults to "tpr" when present else "recall" (what
    ``score_policy`` emits). Missing x/y raise a clear error. Duplicate
    points keep the SMALLEST beta (sort-then-dedup → deterministic
    regardless of input row order)."""
    if y is None:
        y = "tpr" if "tpr" in scores.columns else "recall"
    missing = [c for c in (x, y) if c not in scores.columns]
    if missing:
        raise ValueError(f"roc_table: missing column(s) {missing}; "
                         f"available: {list(scores.columns)}")
    cols = ([beta_col] if beta_col in scores.columns else []) + [x, y]
    out = scores[cols]
    if beta_col in out.columns:
        out = out.sort_values(beta_col, kind="mergesort")
    out = out.drop_duplicates([x, y])
    return out.reset_index(drop=True)


def auc_points(points: pd.DataFrame, x: str = "fpr", y: str = "tpr") -> float:
    """Trapezoid AUC over deduped, sorted (FPR, TPR) points, anchored at
    (0,0) and (1,1) (AUCPrinter.py:9-37)."""
    df = points[[x, y]].drop_duplicates().sort_values([x, y])
    xs = np.concatenate([[0.0], df[x].to_numpy(), [1.0]])
    ys = np.concatenate([[0.0], df[y].to_numpy(), [1.0]])
    return float(np.trapz(ys, xs))
