"""Sketch-mode query pack (approximate — bounds asserted in pytest
against exact recomputation; no SQL oracle except where a sketch runs
in a provably exact regime, e.g. ``q_audience_overlap``).

These are the scale-path twins of the exact queries in ``analytics``:
heavy-hitter itemsets via CMS + space-saving, distinct conversations via
HLL (grouped UDAF), set algebra via theta/KMV, value distributions via
t-digest/KLL, and the greedy-cover policy miner.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.hashing import hash_any
from ..pipelines.itemsets import (
    sketched_itemset_supports,
    topk_supports,
    transactions,
)
from ..pipelines.rules import greedy_cover_ray
from ..sketches import CountMinSketch, CountSketch, ThetaKMV
from ..sources.transcripts import transcripts_from_events
from ..udaf import (
    CmsAgg,
    CountSketchAgg,
    DDSketchAgg,
    HllAgg,
    KllAgg,
    TDigestAgg,
    ThetaAgg,
)

QUANTILES = (0.01, 0.25, 0.5, 0.75, 0.99)


def q_sketch_topk_itemsets(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Heavy-hitter itemsets with CMS-refined estimates (A1/A6 sketch mode)."""
    ds = transcripts_from_events(f"{sf_dir}/events.parquet")
    res = sketched_itemset_supports(ds, max_k=2, num_buckets=16)
    out = topk_supports(res["topk"], k).rename(
        columns={"support": "est_support", "err": "err_bound"}).drop(columns="k")
    out["n_transactions"] = np.int64(res["n_transactions"])
    out["hll_distinct_convs"] = np.int64(round(res["hll"].estimate()))
    return out


def q_hll_role_convs(sf_dir: str) -> pd.DataFrame:
    """Per role: HLL-estimated distinct conversations (A15 sketch mode).

    Keys on ``hash_strings_poly`` (not the SipHash ``hash_any``) so the
    oracle is a DERIVED single-statement SQL recomputation of the
    estimate itself (``functions.sqlgen.hll_role_convs_sql`` — registers
    rebuilt from raw events, estimator evaluated with the identical
    IEEE op sequence), retiring the former pinned golden."""
    from ..functions.hashing import hash_strings_poly

    ds = transcripts_from_events(f"{sf_dir}/events.parquet")

    def add_hash(t: pa.Table) -> pa.Table:
        return t.select(["role"]).append_column(
            "conv_hash", pa.array(hash_strings_poly(t["conv_id"])))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    out = hashed.groupby("role").aggregate(
        HllAgg("conv_hash", alias="est_distinct_convs")).to_pandas()
    out["est_distinct_convs"] = out["est_distinct_convs"].astype(np.int64)
    return out


def q_hll_role_union(sf_dir: str) -> pd.DataFrame:
    """HLL SET ALGEBRA across roles (the north rule's sketch-algebra
    face on the cardinality side): per-role conv HLLs built in ONE
    grouped shuffle (KB registers per role, never rows), then every
    role pair's union estimate from the register element-wise max and
    its intersection by inclusion-exclusion, clamped at 0 (each term
    carries ±1.04/√m, so a small intersection of large sets can vanish
    into the noise). Keys on
    the poly hash and the merge-order-exact estimator, so BOTH
    estimates are reproduced bit-for-bit by the DERIVED oracle
    ``functions.sqlgen.hll_role_union_sql`` (per-pair register rebuild
    = max over the union of the two roles' key sets — register max of
    merges ≡ merge of register maxes)."""
    from ..functions.hashing import hash_strings_poly
    from ..sketches import HyperLogLog

    ds = transcripts_from_events(f"{sf_dir}/events.parquet")

    def add_hash(t: pa.Table) -> pa.Table:
        return t.select(["role"]).append_column(
            "conv_hash", pa.array(hash_strings_poly(t["conv_id"])))

    blobs = (ds.map_batches(add_hash, batch_format="pyarrow")
             .groupby("role")
             .aggregate(HllAgg("conv_hash", emit_blob=True, alias="hll"))
             .to_pandas())
    from ..sketches.base import Sketch

    sketches = {r: Sketch.from_bytes(bytes(b))
                for r, b in zip(blobs["role"], blobs["hll"])}
    rows = []
    for ra in sorted(sketches):
        for rb in sorted(sketches):
            if not ra < rb:
                continue
            ea = sketches[ra].estimate()
            eb = sketches[rb].estimate()
            eu = sketches[ra].copy().merge(sketches[rb]).estimate()
            inter = max(0.0, ea + eb - eu)
            rows.append({
                "role_a": ra, "role_b": rb,
                "est_union": np.int64(round(eu)),
                "est_intersection": np.int64(round(inter)),
            })
    return pd.DataFrame(rows)


def q_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Distribution of events.value via both quantile sketches (the
    means-only ScoreAggregator upgraded per the north rule)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    td = ds.aggregate(TDigestAgg("value", finalize_quantiles=QUANTILES, alias="td"))
    kl = ds.aggregate(KllAgg("value", finalize_quantiles=QUANTILES, alias="kll"))
    return pd.DataFrame(
        {
            "q": list(QUANTILES),
            "tdigest": [td["td"][f"q{q}"] for q in QUANTILES],
            "kll": [kl["kll"][f"q{q}"] for q in QUANTILES],
        }
    )


def q_value_quantiles_dd(sf_dir: str, alpha: float = 0.01) -> pd.DataFrame:
    """DDSketch quantiles of events.value — the merge-order-EXACT
    quantile sketch (integer geometric-bucket counts; Masson et al.,
    VLDB 2019).  Unlike ``value_quantiles`` (t-digest/KLL — ``no_oracle``
    because compaction is merge-order sensitive), DDSketch merges by
    per-bucket addition, so the finalized quantiles are bit-identical
    across arbitrary partition splits → pinned-golden oracle,
    cross-CPU validated.  Relative error ≤ alpha vs the exact
    nearest-rank quantile is asserted in pytest."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    res = ds.aggregate(DDSketchAgg("value", alpha=alpha,
                                   finalize_quantiles=QUANTILES, alias="dd"))
    est = pd.Series([res["dd"][f"q{q}"] for q in QUANTILES],
                    dtype=float, name="est_value_bp")
    return pd.DataFrame({
        "q_bp": np.array([int(round(q * 10000)) for q in QUANTILES], np.int64),
        "est_value_bp": _fold_bp_strict(est),
    })


def q_type_value_quantiles_dd(sf_dir: str, alpha: float = 0.01) -> pd.DataFrame:
    """Per-event-type DDSketch quantiles — the GROUPED form of
    ``q_value_quantiles_dd`` (one groupby-aggregate shuffle moving
    O(KB) bucket maps per type, never rows; the ScoreAggregator
    per-key distribution upgrade).  Merge-order-exact like the global
    version → pinned-golden oracle, cross-CPU validated."""
    from ..sketches import DDSketch

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    blobs = (ds.groupby("event_type")
             .aggregate(DDSketchAgg("value", alpha=alpha, alias="dd"))
             .to_pandas())
    rows = []
    for t, b in zip(blobs["event_type"], blobs["dd"]):
        sk = DDSketch.from_bytes(bytes(b))
        est = pd.Series([sk.quantile(q) for q in QUANTILES], dtype=float,
                        name="est_value_bp")
        rows.append(pd.DataFrame({
            "event_type": t,
            "q_bp": np.array([int(round(q * 10000)) for q in QUANTILES],
                             np.int64),
            "est_value_bp": _fold_bp_strict(est),
            "n_values": np.int64(sk.n),
        }))
    return pd.concat(rows, ignore_index=True)


def q_f2_moment_sketch(sf_dir: str, width: int = 1 << 14,
                       depth: int = 5) -> pd.DataFrame:
    """AMS second-moment estimate of the (user_id, event_type) key
    distribution with NO shuffle at all: per-batch combiner → ONE global
    CountSketchAgg whose merge is element-wise int64 addition —
    bit-identical across partition splits. Keys hash with the
    byte-polynomial fold so the ESTIMATE has a DERIVED SQL oracle
    (``functions/sqlgen.f2_moment_sketch_sql`` rebuilds the signed
    cell table and repeats the odd-depth median). The exact twin
    (``stats.q_f2_moment``, one bucketed count shuffle) bounds it in
    pytest: |est − F2| ≤ √(2/width)·F2 with high probability
    (observed ≪ the bound)."""
    from ..functions.hashing import hash_strings_poly

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        key = b["user_id"].astype(str) + "\x1f" + b["event_type"].astype(str)
        g = (pd.DataFrame({"_key": key}).groupby("_key", sort=False)
             .size().reset_index(name="_c"))
        return pd.DataFrame({"_kh": hash_strings_poly(g["_key"].to_numpy()),
                             "_c": g["_c"].astype(np.int64)})

    agg = ds.map_batches(combine, batch_format="pandas").aggregate(
        CountSketchAgg("_kh", width=width, depth=depth, weight_col="_c",
                       alias="cs"))
    sk = CountSketch.from_bytes(bytes(agg["cs"]))
    return pd.DataFrame({"est_f2": [np.int64(sk.f2_estimate())],
                         "n_rows": [np.int64(sk.total)]})


def _pairwise_overlaps(sketches: dict, labels: dict | None,
                       cols: tuple[str, str, str, str],
                       with_difference: str | None = None) -> pd.DataFrame:
    """Shared pairwise theta-algebra tail for the overlap queries: the
    op-sequence-pinned jaccard ('divide, then fold') lives HERE only,
    so the two oracles can never drift from two hand-edited copies."""
    ca, cb, c_common, c_union = cols
    out_cols = list(cols) + ([with_difference] if with_difference else [])
    rows, jaccards = [], []
    for ka in sorted(sketches):
        for kb in sorted(sketches):
            if not ka < kb:
                continue
            sa, sb = sketches[ka], sketches[kb]
            inter, union = sa.intersection_estimate(sb), sa.union_estimate(sb)
            row = {ca: labels[ka] if labels else ka,
                   cb: labels[kb] if labels else kb,
                   c_common: np.int64(round(inter)),
                   c_union: np.int64(round(union))}
            if with_difference:
                row[with_difference] = np.int64(
                    round(sa.difference_estimate(sb)))
            rows.append(row)
            jaccards.append(inter / union if union else 0.0)
    out = pd.DataFrame(rows, columns=out_cols)  # typed empty if < 2 keys
    out["jaccard_bp"] = _fold_bp_strict(pd.Series(jaccards, dtype=float,
                                                  name="jaccard_bp"))
    return out


def q_audience_overlap(sf_dir: str, k: int = 1 << 16) -> pd.DataFrame:
    """Pairwise audience overlap between event types via theta/KMV set
    algebra (the EnvPolicyEvaluator hash-set-intersection analog,
    ``src/eval/EnvPolicyEvaluator.py:192-199``, without driver-resident
    sets): one grouped ThetaAgg shuffle builds a KB-scale sketch per
    event_type, then every pair's intersection / difference / Jaccard
    comes from sketch algebra on the driver — the corpus is scanned ONCE
    regardless of the number of pairs (an exact SQL answer needs a
    per-pair self-join).

    DuckDB-oracle-able because ``k`` exceeds the distinct-user count at
    gate scale, so the sketches are in the exact regime (theta untrimmed
    ⇒ estimates are exact integers). At 100 TB the same pipeline
    degrades gracefully to ±1/√(k−1) relative error."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])

    def add_hash(t: pa.Table) -> pa.Table:
        return t.select(["event_type"]).append_column(
            "user_hash", pa.array(hash_any(t["user_id"])))

    blobs = (ds.map_batches(add_hash, batch_format="pyarrow")
             .groupby("event_type")
             .aggregate(ThetaAgg("user_hash", k=k, alias="sketch"))
             .to_pandas())
    sketches = {t: ThetaKMV.from_bytes(bytes(b))
                for t, b in zip(blobs["event_type"], blobs["sketch"])}
    return _pairwise_overlaps(
        sketches, labels=None,
        cols=("type_a", "type_b", "n_common_users", "n_union_users"),
        with_difference="n_only_a")


def q_rule_audience_overlap(sf_dir: str, n_rules: int = 5,
                            k: int = 1 << 16) -> pd.DataFrame:
    """Theta set algebra inside the MINING flagship: the top mined
    rules' audiences (distinct conversations matching a rule's full
    item set) become per-rule theta sketches in ONE grouped shuffle,
    then every pair's overlap / Jaccard comes from sketch algebra — the
    reference's per-rule ES count queries + driver hash-set
    intersections (``EnvOverassignmentCalculator.py:59-106``,
    ``EnvPolicyEvaluator.py:192-199``) with O(KB) state per rule.

    Deterministic (exact regime at gate scale, merge-order-exact trim
    merge) → pinned-golden oracle; at 100 TB the same pipeline holds
    ±1/√(k−1)."""
    from ..functions.hashing import hash_any as _hash_any
    from ..stages.transactionize import ITEM_SEP
    from .evaluate import _rule_matches
    from .itemsets import exact_itemset_supports, split_tx_count
    from .rules import rules_from_supports

    # materialize once: supports and audiences must see the SAME
    # corpus (and one scan, not two); gate convention: transactions
    # untruncated (max_transaction_items=None)
    ds = transcripts_from_events(f"{sf_dir}/events.parquet").materialize()
    tx = transactions(ds, num_buckets=16)
    supports, n_tx = split_tx_count(
        exact_itemset_supports(ds, max_k=2, num_buckets=16, min_support=2,
                               max_transaction_items=None,
                               include_tx_count=True).to_pandas())
    rules = rules_from_supports(supports, n_transactions=n_tx, min_support=2)
    rules = rules.assign(cscore_bp=_fold_bp_strict(rules["cscore"]))
    rules = rules.sort_values(["cscore_bp", "antecedent", "consequent"],
                              ascending=[False, True, True],
                              kind="mergesort").head(n_rules)
    rule_items = [
        (i, r["antecedent"] + ITEM_SEP + r["consequent"],
         sorted(set(r["antecedent"].split(ITEM_SEP)
                    + r["consequent"].split(ITEM_SEP))))
        for i, (_, r) in enumerate(rules.iterrows())
    ]
    import ray

    rules_ref = ray.put(rule_items)

    def audiences(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for rid, _, items in ray.get(rules_ref):
            m = _rule_matches(b["items"].reset_index(drop=True), items)
            if m.any():
                frames.append(pd.DataFrame({
                    "rule_id": np.int64(rid),
                    "conv_hash": _hash_any(
                        b.loc[np.asarray(m), "conv_id"].to_numpy()),
                }))
        if not frames:
            return pd.DataFrame({"rule_id": pd.Series(dtype=np.int64),
                                 "conv_hash": pd.Series(dtype=np.uint64)})
        return pd.concat(frames, ignore_index=True)

    blobs = (tx.map_batches(audiences, batch_format="pandas")
             .groupby("rule_id")
             .aggregate(ThetaAgg("conv_hash", k=k, alias="sketch"))
             .to_pandas())
    sketches = {int(r): ThetaKMV.from_bytes(bytes(b))
                for r, b in zip(blobs["rule_id"], blobs["sketch"])}
    labels = {rid: lbl for rid, lbl, _ in rule_items}
    return _pairwise_overlaps(
        sketches, labels=labels,
        cols=("rule_a", "rule_b", "common_convs", "union_convs"))


def q_greedy_policy(sf_dir: str) -> pd.DataFrame:
    """Greedy set-cover policy over conversation transactions — the
    EnvFlatAbacRuleMiner flagship analog (exact covered removal).

    Runs the DISTRIBUTED engine (``greedy_cover_ray``): transactions stay
    a Dataset, and each round one filter pass drops the conversations
    the picked rule matches; the pandas ``greedy_cover`` remains the
    parity oracle in tests (VERDICT r2 #1)."""
    tx = transactions(transcripts_from_events(f"{sf_dir}/events.parquet"),
                      num_buckets=16)
    out = greedy_cover_ray(tx, metric="cscore", max_rounds=10,
                           coverage_target=0.9, min_support=2)
    # fold the float score to basis points so the deterministic policy
    # is integer-exact (pinnable at the gate); an empty policy (no rule
    # ever selected) has no columns at all — return the typed empty frame
    if "cscore" not in out.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("round", np.int64), ("antecedent", object), ("consequent", object),
            ("support_ab", np.int64), ("covered_this_round", np.int64),
            ("uncovered_before", np.int64), ("cscore_bp", np.int64))})
    out["cscore_bp"] = _fold_bp_strict(out.pop("cscore"))
    return out


def q_greedy_round1(sf_dir: str) -> pd.DataFrame:
    """Derived-oracle twin for the greedy engine's ROUND ARITHMETIC
    (VERDICT r3 #5): one greedy round over the events transactions —
    uncapped itemset expansion, min_support=2 rule candidates, the
    cscore argmax with the (fewer-constraints, lexicographic) tie-break,
    and the exact matched-count — is a closed-form SQL argmax. The
    multi-round loop (exact covered removal, per-round recount) stays
    evidenced by the ray-vs-pandas parity pytest; this pins the
    per-round math to an independent derivation."""
    tx = transactions(transcripts_from_events(f"{sf_dir}/events.parquet"),
                      num_buckets=16)
    out = greedy_cover_ray(tx, metric="cscore", max_rounds=1,
                           min_support=2)
    if "cscore" not in out.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
            ("round", np.int64), ("antecedent", object), ("consequent", object),
            ("support_ab", np.int64), ("covered_this_round", np.int64),
            ("uncovered_before", np.int64), ("cscore_bp", np.int64))})
    out["cscore_bp"] = _fold_bp_strict(out.pop("cscore"))
    return out


def _window_corpus_n(sf_dir: str) -> int:
    """ONE sizing map for every window-query fixture (duplicating it
    risks a corpus/daily-store size mismatch)."""
    from ..runtime import sf_tag

    return {"sf0.01": 4000, "sf0.1": 20000}.get(sf_tag(sf_dir), 1000)


def _synth_window_corpus(sf_dir: str) -> list[str]:
    """Deterministic transcript corpus for window queries (size keyed to
    the sf level so sf0.01 exercises more data than sf0.001)."""
    from ..sources.transcripts import write_synth_transcripts

    n = _window_corpus_n(sf_dir)
    return write_synth_transcripts(f"/tmp/graft_windows/convs_{n}", n_convs=n,
                                   shards=4)


def q_windowed_mining(sf_dir: str) -> pd.DataFrame:
    """Sliding-window mining sweep (WindowGenerator analog): per window,
    transactions mined to rules; returns per-window summary rows."""
    from datetime import datetime

    from .mining import mine_windows

    paths = _synth_window_corpus(sf_dir)
    results = mine_windows(paths, datetime(2024, 1, 1), datetime(2024, 2, 5),
                           obs_days=14, opr_days=3, step_days=7,
                           max_k=2, min_support=2)
    # wall time stays out of the result (it would make the otherwise
    # deterministic summary un-pinnable); timings live in bench.py
    return pd.DataFrame([
        {"window_id": r["window_id"], "n_transactions": r["n_transactions"],
         "n_rules": r["n_rules"]}
        for r in results
    ])


def q_windowed_mining_events(sf_dir: str) -> pd.DataFrame:
    """Derived-oracle twin of ``q_windowed_mining`` (VERDICT r3 #5): the
    SAME ``mine_windows`` engine path — window pushdown read, transaction
    formation, exact supports with the 64-item expansion guard and the
    fused tx-count sentinel, constant extraction, rule expansion — run
    over the events-derived transcripts, which DuckDB can recompute from
    the ``events`` view. This turns the mining chain's pinned-golden
    evidence into a composed-SQL derivation; the original pin stays for
    the synthetic multi-shard corpus."""
    from datetime import datetime

    from .analytics import _cached_event_transcripts_parquet
    from .mining import mine_windows

    paths = _cached_event_transcripts_parquet(sf_dir)
    results = mine_windows(paths, datetime(2024, 1, 1), datetime(2024, 1, 31),
                           obs_days=7, opr_days=2, step_days=7,
                           max_k=2, min_support=2)
    return pd.DataFrame([
        {"window_id": r["window_id"], "n_transactions": r["n_transactions"],
         "n_rules": r["n_rules"]}
        for r in results
    ])


def q_windowed_sketch_sweep(sf_dir: str) -> pd.DataFrame:
    """Sliding-window sketch sweep over the incremental daily store:
    each day's partials are built ONCE, every window is a merge of its
    days' blobs (the delta architecture — no per-window recompute)."""
    from datetime import datetime, timedelta

    from ..state.incremental import DailySketchStore

    paths = _synth_window_corpus(sf_dir)
    n = _window_corpus_n(sf_dir)
    store = DailySketchStore(f"/tmp/graft_windows/daily_{n}")
    start = datetime(2024, 1, 2)
    store.ensure_days(paths, start, start + timedelta(days=10))
    rows = []
    for off in range(0, 6, 2):  # 3 overlapping 5-day windows, step 2
        lo = start + timedelta(days=off)
        hi = lo + timedelta(days=5)
        m = store.window_sketches(lo, hi)
        top = m["topk"].top(3)
        rows.append({
            "window_start": lo.strftime("%Y-%m-%d"),
            "est_transactions": int(round(m["hll"].estimate())),
            "top_itemset": top[0][0],
            "top_support_est": int(top[0][1]),
        })
    return pd.DataFrame(rows)



def q_windowed_sketch_sweep_events(sf_dir: str) -> pd.DataFrame:
    """Events-derived TWIN of ``q_windowed_sketch_sweep`` (the pinned
    sweep runs over a synthetic /tmp corpus the oracle views cannot
    see): the same delta architecture — per-day partials built ONCE,
    each window a blob merge — over the events transcripts, with BOTH
    key hashes on the SQL-expressible poly family so the window
    estimates (HLL distinct transactions, merged top-k head) carry a
    DERIVED single-statement oracle
    (``functions.sqlgen.windowed_sketch_sweep_events_sql``). At gate
    scale the top-k never evicts (capacity ≫ distinct itemsets) and
    the HLL estimator is merge-order exact, so both columns are pure
    functions of the corpus."""
    from datetime import datetime, timedelta

    from ..state.incremental import DailySketchStore
    from .analytics import _cached_event_transcripts_parquet

    paths = _cached_event_transcripts_parquet(sf_dir)
    tag = sf_dir.strip("/").replace("/", "_")
    store = DailySketchStore(f"/tmp/graft_windows/evsweep_{tag}",
                             cms_width=WHC_CMS_WIDTH,
                             topk_capacity=WHC_TOPK_CAP,
                             itemset_hash="poly", conv_hash="poly")
    start = datetime(2024, 1, 2)
    store.ensure_days(paths, start, start + timedelta(days=10))
    rows = []
    for off in range(0, 6, 2):  # 3 overlapping 5-day windows, step 2
        lo = start + timedelta(days=off)
        hi = lo + timedelta(days=5)
        m = store.window_sketches(lo, hi)
        top = m["topk"].top(1)
        rows.append({
            "window_start": lo.strftime("%Y-%m-%d"),
            "est_transactions": np.int64(round(m["hll"].estimate())),
            "top_itemset": top[0][0],
            "top_support_est": np.int64(top[0][1]),
        })
    return pd.DataFrame(rows)


def _mine_obs_policy(sf_dir: str, n_rules: int):
    """Shared mine recipe for the policy-scoring queries: fixed window
    spec over the synthetic corpus, obs transactions + supports, top-N
    scored rules. Returns (paths, spec, obs_tx, rules)."""
    from datetime import datetime

    from ..functions.windows import WindowSpec, read_window
    from .itemsets import exact_itemset_supports
    from .itemsets import transactions as tx_pipeline
    from .rules import rules_from_supports

    paths = _synth_window_corpus(sf_dir)
    spec = WindowSpec(datetime(2024, 1, 1), datetime(2024, 1, 22),
                      datetime(2024, 1, 22), datetime(2024, 1, 29))
    obs = read_window(paths, spec, "obs", columns=["conv_id", "role", "tool"])
    obs_tx = tx_pipeline(obs, num_buckets=8).to_pandas()
    supports = exact_itemset_supports(obs, max_k=2, num_buckets=8,
                                      min_support=2).to_pandas()
    rules = rules_from_supports(supports, n_transactions=len(obs_tx),
                                min_support=2).head(n_rules)
    return paths, spec, obs_tx, rules


def q_policy_scores_events(sf_dir: str) -> pd.DataFrame:
    """Derived-oracle twin of ``q_policy_scores`` (VERDICT r3 #5): the
    SAME mine→score chain — obs-window supports, rule expansion +
    cscore ranking, top-20 policy, opr-window confusion matrix with the
    observed obs∪opr transaction universe — over the events-derived
    transcripts so DuckDB recomputes every count (and the cscore
    ordering) from the ``events`` view. Turns the policy-scoring
    pinned-golden evidence into an independent SQL derivation."""
    from datetime import datetime

    from ..functions.windows import WindowSpec, read_window
    from .analytics import _cached_event_transcripts_parquet
    from .evaluate import score_policy
    from .itemsets import exact_itemset_supports
    from .itemsets import transactions as tx_pipeline
    from .rules import rules_from_supports

    paths = _cached_event_transcripts_parquet(sf_dir)
    spec = WindowSpec(datetime(2024, 1, 1), datetime(2024, 1, 22),
                      datetime(2024, 1, 22), datetime(2024, 1, 29))
    obs = read_window(paths, spec, "obs", columns=["conv_id", "role", "tool"])
    obs_tx = tx_pipeline(obs, num_buckets=8).to_pandas()
    supports = exact_itemset_supports(obs, max_k=2, num_buckets=8,
                                      min_support=2).to_pandas()
    rules = rules_from_supports(supports, n_transactions=len(obs_tx),
                                min_support=2).head(20)
    opr = read_window(paths, spec, "opr", columns=["conv_id", "role", "tool"])
    opr_tx = tx_pipeline(opr, num_buckets=8).to_pandas()
    universe = pd.concat([obs_tx[["items"]], opr_tx[["items"]]],
                         ignore_index=True)
    scores = score_policy(opr_tx, rules, universe_transactions=universe)
    scores["window_id"] = spec.window_id
    return _fold_score_floats(pd.DataFrame([scores]))


def q_policy_scores_universe(sf_dir: str) -> pd.DataFrame:
    """A11+A12 end-to-end at the reference's TRUE granularity: mine a
    policy on the obs window, turn its rules into enumerable statements,
    GENERATE the allowed (role_tool, hour, weekday) universe as a
    Dataset (mixed-radix decode + hash union), and score the opr window
    at turn-tuple level — uFP counts allowed-but-never-exercised states
    (EnvPolicyEvaluator count_positives semantics, :79-169)."""
    from ..functions.windows import read_window
    from .universe import score_policy_turns_generated

    paths, spec, _, rules = _mine_obs_policy(sf_dir, n_rules=10)

    # domains from the obs∪opr observed values (possible_params analog)
    def field_values(b: pd.DataFrame) -> pd.DataFrame:
        ts = pd.to_datetime(b["ts"])
        frames = [
            pd.DataFrame({"field": "role_tool", "value": (
                b["role"].astype(str) + "=" + b["tool"].astype(str)).unique()}),
            pd.DataFrame({"field": "hour",
                          "value": ts.dt.hour.astype(str).unique()}),
            pd.DataFrame({"field": "weekday",
                          "value": ts.dt.dayofweek.astype(str).unique()}),
        ]
        return pd.concat(frames, ignore_index=True)

    both = read_window(paths, spec, "obs_opr",
                       columns=["role", "tool", "ts"])
    from ray.data.aggregate import Count

    # distributed grouped distinct first (driver sees |domain| rows)
    dom_df = (both.map_batches(field_values, batch_format="pandas")
              .groupby(["field", "value"])
              .aggregate(Count(alias_name="n"))
              .to_pandas())
    domains = {f: sorted(sub["value"]) for f, sub in dom_df.groupby("field")}

    opr = read_window(paths, spec, "opr", columns=["role", "tool", "ts"])
    scores = score_policy_turns_generated(opr, rules, domains, mode="exact")
    scores["window_id"] = spec.window_id
    return _fold_score_floats(pd.DataFrame([scores]))


def q_policy_scores(sf_dir: str) -> pd.DataFrame:
    """Mine on an obs window, score on the opr window (A12 confusion
    matrix with degenerate overrides) — the mine→score job loop at
    TRANSACTION granularity (the turn-tuple generated-universe twin is
    q_policy_scores_universe)."""
    from ..functions.windows import read_window
    from .evaluate import score_policy
    from .itemsets import transactions as tx_pipeline

    paths, spec, obs_tx, rules = _mine_obs_policy(sf_dir, n_rules=20)
    opr = read_window(paths, spec, "opr", columns=["conv_id", "role", "tool"])
    opr_tx = tx_pipeline(opr, num_buckets=8).to_pandas()
    universe = pd.concat([obs_tx[["items"]], opr_tx[["items"]]],
                         ignore_index=True)
    scores = score_policy(opr_tx, rules, universe_transactions=universe)
    scores["window_id"] = spec.window_id
    return _fold_score_floats(pd.DataFrame([scores]))


def _fold_bp_strict(col: pd.Series) -> np.ndarray:
    from ..functions.scoring import fold_bp_strict

    return fold_bp_strict(col.to_numpy(dtype=float), name=str(col.name))


def _fold_score_floats(df: pd.DataFrame) -> pd.DataFrame:
    """Replace every float score column with its basis-point integer
    (floor(x·10⁴+0.5)) so the confusion-matrix summaries are exactly
    pinnable — the underlying counts are already integers, so the fold
    loses nothing a gate hash could use."""
    for c in list(df.columns):
        if df[c].dtype.kind == "f":
            df[c + "_bp"] = _fold_bp_strict(df.pop(c))
    return df

# --------------------------------------------------------------- join size
# CMS inner-product join-cardinality estimation (Cormode & Muthukrishnan,
# "An improved data stream summary: the count-min sketch and its
# applications", §4.2) — the classic sketch answer to "how big would this
# join be?" without running it. The reference's msearch count probes
# (src/eval/EnvPolicyEvaluator.py:200-240) answer per-rule conjunctive
# cardinalities; this is the same question asked of a KEY EQUI-JOIN, at
# one O(width·depth) blob per side instead of a shuffle.

JOIN_CMS_WIDTH = 1 << 15
JOIN_CMS_DEPTH = 4
JOIN_CMS_SEED = 7


def _column_cms(path: str, col: str, width: int, depth: int,
                seed: int) -> "CountMinSketch":
    """One CMS over a parquet column: pruned read → per-batch hash →
    ONE global CmsAgg (per-block partial sketches, element-wise int64
    merge — associative and bit-identical across partition splits).
    No shuffle; one ~width·depth·8-byte blob reaches the driver."""

    ds = rd.read_parquet(path, columns=[col])

    def add_h(t: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(hash_any(t[col]))})

    agg = ds.map_batches(add_h, batch_format="pyarrow").aggregate(
        CmsAgg("h", width=width, depth=depth, seed=seed, alias="cms"))
    return CountMinSketch.from_bytes(bytes(agg["cms"]))


def q_join_size_cms(sf_dir: str, width: int = JOIN_CMS_WIDTH,
                    depth: int = JOIN_CMS_DEPTH,
                    seed: int = JOIN_CMS_SEED) -> pd.DataFrame:
    """Estimated |events ⋈ orders ON user_id = o_custkey| from two
    independently-built CMSes: ``min_d Σ_w A_d·B_d``. Overestimate-
    only; error ≤ ε·|A|·|B| w.p. 1−δ (pytest-asserted against the
    exact twin ``q_join_size_exact``). Deterministic: fixed seed +
    integer merges → pinned-golden oracle, cross-CPU validated."""
    a = _column_cms(f"{sf_dir}/events.parquet", "user_id",
                    width, depth, seed)
    b = _column_cms(f"{sf_dir}/orders.parquet", "o_custkey",
                    width, depth, seed)
    return pd.DataFrame({"n_join_est": [np.int64(a.inner_product(b))]})


def q_join_size_exact(sf_dir: str, num_buckets: int = 8) -> pd.DataFrame:
    """Exact |events ⋈ orders ON user_id = o_custkey| WITHOUT
    materializing the join: per-side per-key counts (per-batch
    combiners → one keyed bucket shuffle each), then per-bucket
    count-products summed — the join's cardinality is
    Σ_key n_a(key)·n_b(key). Only (key, count) rows ever shuffle, so
    the exchange is bounded by distinct keys, not rows. Product sums
    run in Python-int arithmetic (a hot key's n_a·n_b can exceed int64
    at 10¹²-row scale) and the final count is emitted int64."""
    from .analytics import bucketed_group_agg

    def keyed_counts(path: str, col: str, side: int) -> "rd.Dataset":
        ds = rd.read_parquet(path, columns=[col])

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby(col, sort=False).size().reset_index(name="n")
            return pd.DataFrame({"key": g[col].astype(np.int64),
                                 "n": g["n"].astype(np.int64),
                                 "side": np.int8(side)})

        return ds.map_batches(partial, batch_format="pandas")

    both = keyed_counts(f"{sf_dir}/events.parquet", "user_id", 0).union(
        keyed_counts(f"{sf_dir}/orders.parquet", "o_custkey", 1))

    def bucket_product(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby(["key", "side"], sort=False)["n"].sum()
             .unstack("side", fill_value=0))
        if 0 not in m.columns or 1 not in m.columns:
            return pd.DataFrame({"part": np.array([], object)})
        tot = int((m[0].astype(object) * m[1].astype(object)).sum())
        return pd.DataFrame({"part": np.array([tot], object)})

    parts = bucketed_group_agg(both, ["key"], bucket_product,
                               num_buckets=num_buckets).to_pandas()
    total = int(sum(parts["part"])) if len(parts) else 0
    return pd.DataFrame({"n_join": [np.int64(total)]})


# ----------------------------------------------------------- range counts
# Dyadic-decomposition CMS range counting (Cormode & Muthukrishnan §4.2,
# "range queries"): update every dyadic prefix of the folded value once,
# answer COUNT(value BETWEEN a AND b) as the sum of ≤2·bits CMS point
# estimates over the canonical dyadic cover — overestimate-only, like
# every CMS read. One sketch blob answers ANY range afterwards; the
# update cost is `bits` prefixes/row (pre-aggregated per batch so the
# real cost is distinct-values × bits, not rows × bits).

RANGE_CMS_BITS = 24          # universe: folded value ∈ [0, 2^24) bp
RANGE_CMS_WIDTH = 1 << 16
RANGE_CMS_DEPTH = 4
RANGE_CMS_SEED = 7
# fixed report ranges (bp of events.value): ~median splits + full tail
RANGE_QUERIES_BP = ((0, 99_999), (100_000, 499_999),
                    (500_000, 1_499_999), (1_500_000, (1 << 24) - 1))


def dyadic_cover(a: int, b: int, bits: int) -> list[tuple[int, int]]:
    """Canonical disjoint dyadic cover of the INCLUSIVE integer range
    [a, b] within [0, 2^bits): at level ℓ, cell key k covers
    [k·2^ℓ, (k+1)·2^ℓ). At most 2·bits cells (property-tested:
    disjoint, exact union)."""
    if not (0 <= a <= b < (1 << bits)):
        raise ValueError(f"range [{a}, {b}] outside universe [0, 2^{bits})")
    out: list[tuple[int, int]] = []
    level = 0
    while a <= b:
        if a & 1:
            out.append((level, a))
            a += 1
        if b & 1 == 0:
            out.append((level, b))
            b -= 1
        if a > b:
            break
        a >>= 1
        b >>= 1
        level += 1
    return out


def _dyadic_cell_hashes(levels: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Collision-free (level, key) → uint64 encoding, then the standard
    mix. key < 2^58 holds for any bits ≤ 58."""
    from ..functions.hashing import hash_ints

    enc = (keys.astype(np.uint64) << np.uint64(6)) | levels.astype(np.uint64)
    return hash_ints(enc.astype(np.int64))


def q_range_count_cms(sf_dir: str, bits: int = RANGE_CMS_BITS,
                      width: int = RANGE_CMS_WIDTH,
                      depth: int = RANGE_CMS_DEPTH,
                      seed: int = RANGE_CMS_SEED,
                      ranges: tuple = RANGE_QUERIES_BP) -> pd.DataFrame:
    """Estimated row counts of fixed value-ranges from ONE dyadic CMS
    over folded (bp) events.value. The folded value must lie in
    [0, 2^bits) — out-of-universe input raises rather than silently
    clips. Deterministic (int64 merges) → pinned-golden oracle; the
    derived exact twin is ``q_range_count_exact`` and the overestimate
    bound is pytest-asserted."""
    from ..functions.scoring import fold_bp

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def prefixes(t: pa.Table) -> pd.DataFrame:
        v = fold_bp(t["value"].to_numpy(zero_copy_only=False))
        if v.size and (v.min() < 0 or v.max() >= (1 << bits)):
            raise ValueError("folded value outside the dyadic universe")
        # pre-aggregate: distinct values × bits cells, not rows × bits
        uniq, cnt = np.unique(v, return_counts=True)
        lv = np.repeat(np.arange(bits, dtype=np.uint64), uniq.size)
        ky = (uniq[None, :].astype(np.uint64)
              >> np.arange(bits, dtype=np.uint64)[:, None]).ravel()
        wt = np.tile(cnt.astype(np.int64), bits)
        g = pd.DataFrame({"h": _dyadic_cell_hashes(lv, ky), "n": wt})
        return g.groupby("h", sort=False)["n"].sum().reset_index()

    agg = ds.map_batches(prefixes, batch_format="pyarrow").aggregate(
        CmsAgg("h", width=width, depth=depth, seed=seed,
               weight_col="n", alias="cms"))
    sk = CountMinSketch.from_bytes(bytes(agg["cms"]))
    rows = []
    for lo, hi in ranges:
        cells = dyadic_cover(lo, hi, bits)
        lv = np.array([c[0] for c in cells], np.uint64)
        ky = np.array([c[1] for c in cells], np.uint64)
        est = int(sk.estimate_hashed(_dyadic_cell_hashes(lv, ky))
                  .astype(object).sum())
        rows.append((np.int64(lo), np.int64(hi), np.int64(est)))
    return pd.DataFrame(rows, columns=["lo_bp", "hi_bp", "n_rows_est"])


def q_range_count_exact(sf_dir: str,
                        ranges: tuple = RANGE_QUERIES_BP) -> pd.DataFrame:
    """Exact twin of ``q_range_count_cms``: per-batch partial counts
    per report range, merged by a tiny grouped aggregate (the driver
    sees |ranges| rows), identical fold semantics, SQL-derived
    oracle."""
    from ..functions.scoring import fold_bp

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    lohi = np.array(ranges, dtype=np.int64)

    def partial(t: pa.Table) -> pd.DataFrame:
        v = fold_bp(t["value"].to_numpy(zero_copy_only=False))
        n = [(np.int64((v >= lo) & (v <= hi)).sum() if v.size else 0)
             for lo, hi in lohi]
        return pd.DataFrame({"lo_bp": lohi[:, 0], "hi_bp": lohi[:, 1],
                             "n_rows": np.asarray(n, np.int64)})

    from ray.data.aggregate import Sum

    # partials merged by Ray's grouped aggregate: the driver sees
    # |ranges| rows, never |blocks| x ranges
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["lo_bp", "hi_bp"])
           .aggregate(Sum("n_rows", alias_name="n_rows"))
           .to_pandas())
    out["n_rows"] = out["n_rows"].astype(np.int64)
    # report order = the fixed RANGE_QUERIES_BP order
    order = {tuple(r): i for i, r in enumerate(lohi.tolist())}
    out["_o"] = [order[(lo, hi)] for lo, hi in
                 zip(out["lo_bp"], out["hi_bp"])]
    return (out.sort_values("_o").drop(columns="_o")
            .reset_index(drop=True))


# ------------------------------------------------- heavy-change detection
# Cormode/Muthukrishnan-style heavy CHANGERS between two stream windows
# (the "what's new" query): which tools' counts moved most between the
# even- and odd-day halves of the corpus (type_drift's A/B convention).
# The sketch path never holds per-key counts: ONE pass builds a CMS +
# space-saving top-k PER HALF (grouped mergeable UDAFs — two fixed-size
# blobs each reach the driver), candidates come from the union of the
# two top-k heads, and each candidate's delta is a pair of CMS point
# reads. Overestimate-only per side (ε·N w.p. 1−δ). Keys hash with the
# byte-polynomial fold (``hash_strings_poly``) rather than SipHash, so
# the ESTIMATE itself has a DERIVED SQL oracle — DuckDB rebuilds both
# CMS halves from raw events and repeats the point reads
# (``functions/sqlgen.heavy_changers_sql``; candidates = all distinct
# tools because 100 tools ≪ capacity 4096 keeps space-saving in its
# exact regime). ``q_heavy_changers_exact`` stays the exact twin and
# the per-side bound is pytest-asserted against it.
HC_CMS_WIDTH = 1 << 14
HC_CMS_DEPTH = 4
HC_CMS_SEED = 7
HC_TOPK_CAP = 4096
HC_THRESHOLD_BP = 15     # report |n_even − n_odd| ≥ 15 bp of total rows


def _tool_parity_cells(t: pa.Table) -> pd.DataFrame:
    """Per-batch (parity, tool, n) pre-counts over the transcript
    view's tool column — each batch shrinks to ≤ 2·|tools| cells before
    anything shuffles or aggregates."""
    from .temporal import _ts_us, day_num_trunc

    t = t.drop_null()
    props = pd.Series(t["props"].to_numpy(zero_copy_only=False))
    day = day_num_trunc(_ts_us(t["ts"]))
    df = pd.DataFrame({
        # the transcript view's tool mapping (transcripts.py:174)
        "tool": "k" + props.str.extract(r"(\d+)", expand=False).fillna(""),
        # numpy % is floor-mod; oracle pins ((x % 2) + 2) % 2
        "parity": (day % 2).astype(np.int8),
    })
    return (df.groupby(["parity", "tool"], sort=False)
            .size().rename("n").reset_index())


def q_heavy_changers(sf_dir: str, threshold_bp: int = HC_THRESHOLD_BP,
                     width: int = HC_CMS_WIDTH, depth: int = HC_CMS_DEPTH,
                     seed: int = HC_CMS_SEED,
                     capacity: int = HC_TOPK_CAP) -> pd.DataFrame:
    from ..functions.hashing import hash_strings_poly
    from ..sketches.topk import SpaceSaving
    from ..udaf import TopKAgg

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["props", "ts"])

    def cells(t: pa.Table) -> pd.DataFrame:
        g = _tool_parity_cells(t)
        # poly hash (not SipHash) so the ESTIMATE oracle is a derived
        # SQL recomputation — functions/sqlgen.heavy_changers_sql
        g["h"] = hash_strings_poly(g["tool"])
        return g

    rows = (ev.map_batches(cells, batch_format="pyarrow")
            .groupby("parity")
            .aggregate(
                CmsAgg("h", width=width, depth=depth, seed=seed,
                       weight_col="n", alias="cms"),
                TopKAgg("tool", capacity=capacity, weight_col="n",
                        alias="topk"))
            .to_pandas())

    empty_cms = CountMinSketch(width=width, depth=depth, seed=seed)
    cms = {0: empty_cms, 1: empty_cms}
    top = {0: SpaceSaving(capacity=capacity),
           1: SpaceSaving(capacity=capacity)}
    for _, r in rows.iterrows():
        p = int(r["parity"])
        cms[p] = CountMinSketch.from_bytes(bytes(r["cms"]))
        top[p] = SpaceSaving.from_bytes(bytes(r["topk"]))

    cands = sorted({k for k, _, _ in top[0].top()} |
                   {k for k, _, _ in top[1].top()})
    if not cands:
        return pd.DataFrame({
            "tool": pd.Series([], dtype=object),
            "n_even_est": pd.Series([], dtype=np.int64),
            "n_odd_est": pd.Series([], dtype=np.int64),
            "delta_abs_est": pd.Series([], dtype=np.int64)})
    h = hash_strings_poly(pd.Series(cands, dtype=object))
    ne = cms[0].estimate_hashed(h).astype(np.int64)
    no = cms[1].estimate_hashed(h).astype(np.int64)
    # exact total stream weight rides the space-saving summaries
    tot = np.int64(top[0].total + top[1].total)
    d = np.abs(ne - no)
    keep = 10000 * d >= np.int64(threshold_bp) * tot
    return pd.DataFrame({
        "tool": np.array(cands, object)[keep],
        "n_even_est": ne[keep],
        "n_odd_est": no[keep],
        "delta_abs_est": d[keep]})


def q_heavy_changers_exact(sf_dir: str,
                           threshold_bp: int = HC_THRESHOLD_BP,
                           num_buckets: int = 8) -> pd.DataFrame:
    """Exact twin: the same cells merged through one tool-keyed bucket
    shuffle (cells, never rows), pivoted to per-tool half counts, then
    the identical integer threshold — SQL-derived oracle."""
    from .analytics import bucketed_group_agg

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["props", "ts"])

    cells = bucketed_group_agg(
        ev.map_batches(_tool_parity_cells, batch_format="pyarrow"),
        ["tool"],
        lambda g: g.groupby(["parity", "tool"], sort=False)["n"]
        .sum().reset_index(),
        num_buckets=num_buckets).to_pandas()

    piv = (cells.pivot_table(index="tool", columns="parity", values="n",
                             aggfunc="sum", fill_value=0)
           .reindex(columns=[0, 1], fill_value=0))
    ne = piv[0].to_numpy(np.int64)
    no = piv[1].to_numpy(np.int64)
    tot = np.int64(ne.sum() + no.sum())
    d = np.abs(ne - no)
    keep = 10000 * d >= np.int64(threshold_bp) * tot
    return pd.DataFrame({
        "tool": piv.index.to_numpy(object)[keep],
        "n_even": ne[keep],
        "n_odd": no[keep],
        "delta_abs": d[keep]})


# ------------------------------------- windowed heavy changers (delta store)
# Heavy-change detection between two ADJACENT windows served from the
# incremental daily sketch store: each day's itemset partials (CMS +
# space-saving + HLL over conv-day transactions) are built ONCE and
# checkpointed; EITHER window is then a pure blob merge — the delta
# architecture means answering "what changed between week 1 and week 2"
# never re-reads the corpus. Candidates come from the merged top-k
# union (capacity 8192 keeps the merge in the top-k's EXACT regime at
# both sf levels — 5 588 distinct itemsets over the span at sf0.01),
# deltas are CMS point-read pairs. The store keys its CMS on the
# byte-polynomial itemset hash, so the window ESTIMATES have a fully
# DERIVED SQL oracle (``functions/sqlgen.windowed_heavy_changers_sql``
# rebuilds both window CMS tables from raw events — day-build
# additivity: per-day cell updates sum to whole-window supports per
# cell); ``q_windowed_heavy_changers_exact`` stays the exact twin over
# the same conv-day transaction definition.
WHC_WINDOWS = (("2024-01-01", "2024-01-08"), ("2024-01-08", "2024-01-15"))
WHC_THRESHOLD = 3        # report |support_w1 − support_w2| ≥ 3 transactions
WHC_TOPK_CAP = 8192
WHC_CMS_WIDTH = 1 << 14


def _whc_specs():
    from datetime import datetime

    from ..functions.windows import WindowSpec

    out = []
    for lo, hi in WHC_WINDOWS:
        a = datetime.strptime(lo, "%Y-%m-%d")
        b = datetime.strptime(hi, "%Y-%m-%d")
        out.append(WindowSpec(a, b, a, a))
    return out


def q_windowed_heavy_changers(sf_dir: str,
                              threshold: int = WHC_THRESHOLD) -> pd.DataFrame:
    from datetime import datetime, timedelta

    from ..state.incremental import DailySketchStore
    from .analytics import _cached_event_transcripts_parquet

    paths = _cached_event_transcripts_parquet(sf_dir)
    tag = sf_dir.strip("/").replace("/", "_")
    # poly itemset hash (not SipHash) so the window ESTIMATES have a
    # derived SQL oracle — functions/sqlgen.windowed_heavy_changers_sql
    store = DailySketchStore(f"/tmp/graft_windows/evdaily_{tag}",
                             cms_width=WHC_CMS_WIDTH,
                             topk_capacity=WHC_TOPK_CAP,
                             itemset_hash="poly")
    start = datetime.strptime(WHC_WINDOWS[0][0], "%Y-%m-%d")
    end = datetime.strptime(WHC_WINDOWS[-1][1], "%Y-%m-%d")
    store.ensure_days(paths, start, end)

    specs = _whc_specs()
    a = store.window_sketches(specs[0].obs_start, specs[0].obs_end)
    b = store.window_sketches(specs[1].obs_start, specs[1].obs_end)
    cands = sorted({k for k, _, _ in a["topk"].top()} |
                   {k for k, _, _ in b["topk"].top()})
    if not cands:
        return pd.DataFrame({"itemset": pd.Series([], dtype=object),
                             "s1_est": pd.Series([], dtype=np.int64),
                             "s2_est": pd.Series([], dtype=np.int64),
                             "delta_abs_est": pd.Series([], dtype=np.int64)})
    h = store.hash_itemsets(pd.Series(cands, dtype=object))
    s1 = a["cms"].estimate_hashed(h).astype(np.int64)
    s2 = b["cms"].estimate_hashed(h).astype(np.int64)
    d = np.abs(s1 - s2)
    keep = d >= np.int64(threshold)
    return pd.DataFrame({"itemset": np.array(cands, object)[keep],
                         "s1_est": s1[keep], "s2_est": s2[keep],
                         "delta_abs_est": d[keep]})


def q_windowed_heavy_changers_exact(
        sf_dir: str, threshold: int = WHC_THRESHOLD,
        num_buckets: int = 16) -> pd.DataFrame:
    """Exact twin: per-window exact supports over conv-day transactions
    (the store's transaction key), outer-joined support tables (itemset-
    bounded smalls) and the identical absolute threshold."""
    from ..functions.windows import read_window
    from ..state.incremental import add_conv_day
    from .analytics import _cached_event_transcripts_parquet
    from .itemsets import exact_itemset_supports

    paths = _cached_event_transcripts_parquet(sf_dir)
    sup = []
    for spec in _whc_specs():
        ds = read_window(paths, spec, "obs",
                         columns=["conv_id", "role", "tool", "ts"])
        ds = ds.map_batches(add_conv_day, batch_format="pandas")
        s = exact_itemset_supports(ds, conv_col="conv_day", max_k=2,
                                   num_buckets=num_buckets,
                                   min_support=1).to_pandas()
        sup.append(s.set_index("itemset")["support"])
    j = pd.concat(sup, axis=1, keys=["s1", "s2"]).fillna(0).astype(np.int64)
    d = (j["s1"] - j["s2"]).abs()
    j = j[d >= threshold]
    return pd.DataFrame({"itemset": j.index.to_numpy(object),
                         "s1": j["s1"].to_numpy(np.int64),
                         "s2": j["s2"].to_numpy(np.int64),
                         "delta_abs": (j["s1"] - j["s2"]).abs()
                         .to_numpy(np.int64)})


# --------------------------------------- rule-confidence distributions
# The north-star wording upgrades the reference's means-only score
# aggregation (ScoreAggregator.py:45-47) to DISTRIBUTION tracking of
# support/confidence. q_value_quantiles* cover events.value; these two
# cover the RULE-CONFIDENCE distribution itself: the supports shuffle
# runs once, the singles map (items-bounded) broadcasts via the object
# store, and every pair block emits its both-direction confidences as
# integers — the sketch path folds them into ONE DDSketch blob
# (merge-order-exact → pinned golden), the exact path into ≤10 001
# conf_bp histogram cells (conf ∈ [0, 10 000]) → inverted_cdf ranks,
# SQL-derived by composing the rules_conf oracle with the
# value_quantiles_exact rank idiom.
RULE_CONF_PCTS = (25, 50, 75, 90, 99)


def _rule_conf_stream(sf_dir: str, num_buckets: int = 16) -> rd.Dataset:
    """Distributed conf_bp stream (one int64 column)."""
    import ray

    from ..stages.transactionize import ITEM_SEP
    from .analytics import _events_transcripts
    from .itemsets import exact_itemset_supports

    sup = exact_itemset_supports(_events_transcripts(sf_dir), max_k=2,
                                 num_buckets=num_buckets,
                                 max_transaction_items=None).materialize()
    singles_df = sup.filter(expr="k == 1").to_pandas()  # items-bounded
    singles_ref = ray.put(dict(zip(
        singles_df["itemset"], singles_df["support"].astype(int))))

    def conf_rows(b: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        sm = _ray.get(singles_ref)
        p = b[b["k"] == 2]
        if not len(p):
            return pd.DataFrame({"conf_bp": pd.Series([], dtype=np.int64)})
        parts = p["itemset"].str.split("\\" + ITEM_SEP, regex=True)
        a = parts.str[0].to_numpy(object)
        c = parts.str[1].to_numpy(object)
        ab = p["support"].to_numpy(np.int64)
        sa = np.array([sm[x] for x in a], np.int64)
        sb = np.array([sm[x] for x in c], np.int64)
        conf = np.concatenate([(10000 * ab) // sa, (10000 * ab) // sb])
        return pd.DataFrame({"conf_bp": conf})

    return sup.map_batches(conf_rows, batch_format="pandas")


def q_rule_conf_quantiles(sf_dir: str, alpha: float = 0.01) -> pd.DataFrame:
    """DDSketch quantiles of the rule-confidence distribution (pinned
    golden — merge-order-exact integer buckets; relative-error bound vs
    the exact twin asserted in pytest). Estimates are rounded to whole
    basis points with floor(x + 0.5)."""
    res = _rule_conf_stream(sf_dir).aggregate(
        DDSketchAgg("conf_bp", alpha=alpha,
                    finalize_quantiles=tuple(p / 100 for p in RULE_CONF_PCTS),
                    alias="dd"))
    est = np.array([res["dd"][f"q{p / 100}"] for p in RULE_CONF_PCTS], float)
    return pd.DataFrame({
        "q_pct": np.array(RULE_CONF_PCTS, np.int32),
        "est_conf_bp": np.floor(est + 0.5).astype(np.int64),
    })


def q_rule_conf_quantiles_exact(sf_dir: str,
                                pcts: tuple = RULE_CONF_PCTS) -> pd.DataFrame:
    """Exact twin: per-batch conf_bp histogram cells (≤10 001 values),
    driver csum, numpy 'inverted_cdf' rank — derived SQL oracle."""
    def cells(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("conf_bp", sort=False).size().rename("cnt")
        return g.reset_index()

    cells_df = (_rule_conf_stream(sf_dir)
                .map_batches(cells, batch_format="pandas").to_pandas())
    merged = (cells_df.groupby("conf_bp", sort=True)["cnt"].sum()
              .reset_index())
    vals = merged["conf_bp"].to_numpy(np.int64)
    csum = np.cumsum(merged["cnt"].to_numpy(np.int64))
    n = int(csum[-1]) if len(csum) else 0
    pct_arr = np.array(pcts, np.int64)
    if n == 0:
        return pd.DataFrame({"q_pct": pct_arr.astype(np.int32),
                             "conf_bp": np.zeros(len(pct_arr), np.int64)})
    ranks = np.floor(pct_arr / 100.0 * (n - 1)).astype(np.int64) + 1
    picked = vals[np.searchsorted(csum, ranks, side="left")]
    return pd.DataFrame({"q_pct": pct_arr.astype(np.int32),
                         "conf_bp": picked})
