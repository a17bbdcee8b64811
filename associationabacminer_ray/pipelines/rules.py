"""Association rules from itemset supports + greedy set-cover mining.

Rule generation mirrors FP-growth → RuleEval construction
(``src/model/RuleUtils.py:29-38``, ``src/model/RuleEval.py:4-43``):
every frequent k-itemset (k ≥ 2) is split into every non-empty
antecedent ⊂ itemset with the remainder as consequent; scores come from
``functions.scoring`` (the reference's score family).

Greedy cover mirrors ``EnvFlatAbacRuleMiner.mine_rules_for_window``
(``src/EnvAbacRuleMiner.py:133-232``): rounds are inherently sequential
driver iterations; within a round, support counting is the fully
data-parallel bucketed pipeline. Covered conversations are those whose
transaction holds a selected rule's full itemset; each round drops them
with one filter pass on that exact match (the reference's per-round ES
``delete_by_query``, ``src/EnvAbacRuleMiner.py:268-272``; SURVEY.md J2
``ds.filter(~pred)``), so coverage is exact in every mode.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from ..functions.hashing import hash_strings
from ..functions.scoring import MINIMIZED_METRICS, score_columns
from ..stages.transactionize import ITEM_SEP

# rules_from_supports: most items a rule's consequent holds
MAX_CONSEQUENT = 1


def extract_constant_items(supports: pd.DataFrame,
                           n_transactions: int) -> tuple[pd.DataFrame, list[str]]:
    """Single-value-column handling (``TableCreator.py:124-128`` /
    ``EnvOverassignmentCalculator.py:174``): items present in EVERY
    transaction carry no discriminative signal — pull them out of
    mining and re-inject them into every selected rule. Returns the
    pruned supports table (constant items removed from itemset strings)
    and the constant item list."""
    if not len(supports) or "k" not in supports.columns:
        return supports, []
    singles = supports[supports["k"] == 1]
    constants = sorted(singles.loc[singles["support"] >= n_transactions, "itemset"])
    if not constants:
        return supports, []
    cset = set(constants)

    def prune(itemset: str) -> str:
        return ITEM_SEP.join(x for x in itemset.split(ITEM_SEP) if x not in cset)

    pruned = supports.copy()
    pruned["itemset"] = pruned["itemset"].map(prune)
    pruned = pruned[pruned["itemset"] != ""]
    # identical pruned itemsets: keep the max support (the subset without
    # the constant has the same support as with it, by definition);
    # turn_support (when tracked) follows the same rule
    value_cols = ["support"] + (["turn_support"]
                                if "turn_support" in pruned.columns else [])
    pruned = pruned.groupby("itemset", as_index=False)[value_cols].max()
    pruned["k"] = (pruned["itemset"].str.count("\\" + ITEM_SEP) + 1).astype("int32")
    return pruned[["itemset", "k"] + value_cols], constants


def reinject_constant_items(rules: pd.DataFrame, constants: list[str]) -> pd.DataFrame:
    """Append the extracted constant items to every rule's antecedent
    (the reference re-adds them to every mined rule)."""
    if not constants or not len(rules):
        if len(rules):
            rules = rules.assign(constant_items="")
        return rules
    suffix = ITEM_SEP.join(constants)
    out = rules.copy()
    out["constant_items"] = suffix
    out["antecedent"] = out["antecedent"] + ITEM_SEP + suffix
    out["n_antecedent"] = out["n_antecedent"] + len(constants)
    return out


def rules_from_supports(supports: pd.DataFrame, n_transactions: int,
                        min_support: int = 1, beta: float = 1.0) -> pd.DataFrame:
    """Expand a (itemset, k, support) table into scored rules.

    The supports table is the *post-aggregation* small side (bounded by
    min_support / top-k) so this runs driver-side or inside one
    map_batches over its partitions with the 1..(k-1)-itemset supports
    broadcast as a dict.
    """
    if not len(supports) or "itemset" not in supports.columns:
        supports = pd.DataFrame({"itemset": pd.Series(dtype=object),
                                 "k": pd.Series(dtype="int32"),
                                 "support": pd.Series(dtype="int64")})
    sup_map: dict[str, int] = dict(zip(supports["itemset"], supports["support"]))
    has_turns = "turn_support" in supports.columns
    turn_map: dict[str, int] = (dict(zip(supports["itemset"],
                                         supports["turn_support"]))
                                if has_turns else {})
    rows: list[tuple] = []
    multi = supports[supports["k"] >= 2]
    for itemset, support_ab in zip(multi["itemset"], multi["support"]):
        if support_ab < min_support:
            continue
        items = itemset.split(ITEM_SEP)
        n = len(items)
        for r in range(1, n):
            if n - r > MAX_CONSEQUENT:
                continue
            for ante in itertools.combinations(items, r):
                cons = tuple(x for x in items if x not in ante)
                a_key = ITEM_SEP.join(ante)
                b_key = ITEM_SEP.join(cons)
                support_a = sup_map.get(a_key)
                support_b = sup_map.get(b_key)
                if support_a is None or support_b is None:
                    continue  # below min_support upstream
                rows.append((a_key, b_key, support_ab, support_a, support_b,
                             len(ante), len(cons),
                             turn_map.get(itemset, support_ab)))
    df = pd.DataFrame(rows, columns=["antecedent", "consequent", "support_ab",
                                     "support_a", "support_b", "n_antecedent",
                                     "n_consequent", "support_ab_turns"])
    if not has_turns and len(df):
        df = df.drop(columns=["support_ab_turns"])
    if len(df):
        for c in ("support_ab", "support_a", "support_b") + (
                ("support_ab_turns",) if has_turns else ()):
            df[c] = df[c].astype(np.int64)
        df = score_columns(df, n_transactions, beta)
        df = df.sort_values(["cscore", "antecedent", "consequent"],
                            ascending=[False, True, True], kind="mergesort")
        df = df.reset_index(drop=True)
    return df


def rank_rules(rules: pd.DataFrame, metric: str = "cscore") -> pd.DataFrame:
    """Rules best first by ``metric`` (ascending for
    ``MINIMIZED_METRICS``), tie-break on fewer total constraints then
    lexicographic — src/EnvAbacRuleMiner.py:107-122."""
    if not len(rules):
        return rules
    n_items = rules["n_antecedent"] + rules["n_consequent"]
    order = rules.assign(_n=n_items).sort_values(
        [metric, "_n", "antecedent", "consequent"],
        ascending=[metric in MINIMIZED_METRICS, True, True, True],
        kind="mergesort")
    return order.drop(columns=["_n"]).reset_index(drop=True)


def best_rule(rules: pd.DataFrame, metric: str = "cscore") -> pd.Series:
    """The first of ``rank_rules`` — the greedy round's global argmax."""
    if not len(rules):
        raise ValueError("no candidate rules")
    return rank_rules(rules, metric).iloc[0]


# shared with the policy evaluator — one implementation (evaluate.py)
from .evaluate import _rule_matches as _matches_rule  # noqa: E402


def _batch_itemset_partials(items: pd.Series, max_k: int) -> pd.DataFrame:
    """(itemset, k, count) over a batch of ``items`` transaction strings
    (one conversation each) — THE shared per-round combiner of the
    greedy's exact and sketch modes, counted by the shared kernel."""
    from ..stages.transactionize import itemset_partials_from_codes

    flat = items.reset_index(drop=True).str.split(",").explode()
    item_codes, vocab = pd.factorize(flat.to_numpy(), sort=True)
    return itemset_partials_from_codes(flat.index.to_numpy(), item_codes,
                                       np.asarray(vocab, dtype=object),
                                       max_k=max_k, max_transaction_items=None)


def _tx_sketch_supports(tx_ds, max_k: int = 2) -> pd.DataFrame:
    """Sketch-mode per-round support counting over a (conv_id, items)
    transactions Dataset: each BATCH (rows are one-per-conversation, so
    batches never double-count) becomes one ``itemset_sketch_partial``,
    with ``part`` the batch's smallest conversation hash, so the fold
    order follows the rows rather than block arrival; only fixed-size
    blobs reach the driver. Returns the top-k head as an
    (itemset, k, support) frame, CMS-backfilling any proper subset the
    head is missing so rule scoring has its antecedent supports. Counts
    are overestimates (monotone-safe for min_support pruning and for
    the greedy's shrinking cover)."""
    from .itemsets import (
        DEFAULT_SIZES,
        itemset_sketch_partial,
        merge_itemset_sketch_partials,
        topk_supports,
    )

    def batch_partial(batch: pd.DataFrame) -> pd.DataFrame:
        conv_hashes = hash_strings(batch["conv_id"])
        out = itemset_sketch_partial(_batch_itemset_partials(batch["items"], max_k),
                                     conv_hashes, len(batch), DEFAULT_SIZES)
        # batches hold disjoint conversations: their smallest hashes
        # order the fold by the rows, not by block arrival
        return out.assign(part=conv_hashes.min().astype(np.int64))

    sk = merge_itemset_sketch_partials(
        tx_ds.map_batches(batch_partial, batch_format="pandas"), DEFAULT_SIZES)
    df = topk_supports(sk["topk"])[["itemset", "k", "support"]]
    # CMS-backfill EVERY proper subset the top-k head is missing (not
    # just singles): rules_from_supports drops a rule whose antecedent
    # or consequent support is absent, which for max_k ≥ 3 would
    # silently lose rules whose 2-item subset fell off the head
    have = set(df["itemset"])
    keys, ks = [], []
    for itemset in df.loc[df["k"] >= 2, "itemset"]:
        parts = itemset.split(ITEM_SEP)
        for r in range(1, len(parts)):
            for combo in itertools.combinations(parts, r):
                key = ITEM_SEP.join(combo)
                if key not in have:
                    have.add(key)
                    keys.append(key)
                    ks.append(len(combo))
    if keys:
        backfill = pd.DataFrame({
            "itemset": keys, "k": ks,
            "support": sk["cms"].estimate_hashed(hash_strings(keys))})
        df = pd.concat([df, backfill], ignore_index=True)
    return df.astype({"k": "int32", "support": np.int64})


def greedy_cover_ray(transactions_ds, metric: str = "cscore",
                     max_rounds: int = 20, coverage_target: float = 0.95,
                     min_support: int = 2, max_k: int = 2, beta: float = 1.0,
                     mode: str = "exact") -> pd.DataFrame:
    """Distributed greedy cover over a (conv_id, items) transactions
    Dataset (SURVEY.md §7.4 "greedy set-cover is inherently sequential").

    Rounds are driver iterations; within a round everything is
    data-parallel: supports are partial-counted per batch and merged
    through the small bucketed sum (or, with ``mode="sketch"``, folded
    from fixed-size sketch blobs). The selected rule's match then drops
    the conversations it covers in one ``map_batches`` pass (anti-join
    J2, no shuffle of the corpus) whose materialized result is the next
    round's corpus; its row count, which is block metadata, gives the
    round's newly covered count. The input is materialized once, so no
    round re-reads parquet.
    """
    from .itemsets import MERGE_BUCKETS, merge_exact_itemset_partials

    cur = transactions_ds.materialize()
    n_transactions = uncovered = cur.count()
    selected: list[dict] = []

    for rnd in range(max_rounds):
        if uncovered == 0 or 1 - uncovered / n_transactions >= coverage_target:
            break
        if mode == "sketch":
            # 100 TB per-round path: fixed-size CMS/top-k/HLL blobs are
            # the only exchange — no (itemset, count) row shuffle at all
            supports = _tx_sketch_supports(cur, max_k=max_k)
            supports = supports[supports["support"] >= min_support]
        else:
            partials = cur.map_batches(
                lambda b: _batch_itemset_partials(b["items"], max_k),
                batch_format="pandas")
            supports = merge_exact_itemset_partials(
                partials, MERGE_BUCKETS, min_support).to_pandas()
        rules = rules_from_supports(supports, uncovered, min_support, beta)
        if not len(rules):
            break
        top = best_rule(rules, metric)
        rule_items = sorted(top["antecedent"].split(ITEM_SEP)
                            + top["consequent"].split(ITEM_SEP))
        cur = cur.map_batches(
            lambda b: b[~_matches_rule(b["items"].reset_index(drop=True),
                                       rule_items)],
            batch_format="pandas").materialize()
        newly = uncovered - cur.count()
        selected.append({
            "round": rnd,
            "antecedent": top["antecedent"],
            "consequent": top["consequent"],
            metric: float(top[metric]),
            "support_ab": int(top["support_ab"]),
            "covered_this_round": int(newly),
            "uncovered_before": int(uncovered),
        })
        uncovered -= newly
        if newly == 0:
            # sketch mode can pick a rule no remaining conversation holds
            break
    return pd.DataFrame(selected)


def greedy_cover(transactions_df: pd.DataFrame, metric: str = "cscore",
                 max_rounds: int = 20, coverage_target: float = 0.95,
                 min_support: int = 2, max_k: int = 2,
                 beta: float = 1.0) -> pd.DataFrame:
    """Greedy rule selection over a (conv_id, items) transactions table.

    Each round: count itemset supports over *uncovered* transactions,
    score candidate rules, select the best, drop every conversation
    matching the rule's full itemset. Returns the selected policy with
    per-round coverage stats.

    Driver-side pandas twin of ``greedy_cover_ray`` in exact mode, with
    the same removal semantics; tests use it as the parity oracle.
    """
    from collections import Counter

    df = transactions_df
    n_transactions = len(df)
    selected: list[dict] = []
    for rnd in range(max_rounds):
        uncovered = len(df)
        if uncovered == 0 or 1 - uncovered / n_transactions >= coverage_target:
            break
        # exact per-round supports (small side: one window's transactions)
        counter: Counter = Counter()
        tx_mult = df["items"].str.split(",").apply(tuple).value_counts()
        for items, mult in tx_mult.items():
            for k in range(1, min(max_k, len(items)) + 1):
                for combo in itertools.combinations(items, k):
                    counter[ITEM_SEP.join(combo)] += mult
        supports = pd.DataFrame(
            {"itemset": list(counter.keys()),
             "k": [c.count(ITEM_SEP) + 1 for c in counter.keys()],
             "support": list(counter.values())}
        )
        rules = rules_from_supports(supports[supports["support"] >= min_support],
                                    uncovered, min_support, beta)
        if not len(rules):
            break
        top = best_rule(rules, metric)
        rule_items = (top["antecedent"].split(ITEM_SEP)
                      + top["consequent"].split(ITEM_SEP))
        m = _matches_rule(df["items"], sorted(rule_items))
        df = df[~m]
        selected.append(
            {
                "round": rnd,
                "antecedent": top["antecedent"],
                "consequent": top["consequent"],
                metric: float(top[metric]),
                "support_ab": int(top["support_ab"]),
                "covered_this_round": int(m.sum()),
                "uncovered_before": uncovered,
            }
        )
    return pd.DataFrame(selected)
