"""Regenerate ``golden_oracles.py`` — pinned golden-output oracles for
the deterministic seeded/sketch queries that have no independent SQL
derivation (VERDICT r2 #8 explicitly blesses pinning for these).

Each golden oracle is a VALUES literal of the query's own output at
sf0.001 AND sf0.01, branched on the events-table row count so one SQL
string serves both gate levels. Pinning is honest REGRESSION evidence,
not independent derivation — the header of every entry says so. All
pinned queries output integers/strings only (floats were folded to
basis points in the queries themselves), so the literals are exact.

Run after any change to a pinned query's pipeline:

    python scripts/pin_goldens.py

and re-run ``pytest tests/test_oracle_parity.py`` to confirm.
"""

from __future__ import annotations

import sys

import numpy as np
import pandas as pd

SF_LEVELS = [("/root/testdata/sf0.001", 1000), ("/root/testdata/sf0.01", 10000)]

# queries whose outputs are deterministic pure functions of the corpus
# (fixed seeds, merge-order-independent sketch merges, integer outputs)
GOLDEN = [
    # "simhash_dups" — retired: SimHash bands/pairs now fully DERIVED (poly token hashes, sqlgen.simhash_dups_sql)
    # "knn_ivf" — retired: the gate entry is now knn_ivf_recall, a bounded
    # DERIVED check (IVF top-k ⊇ 3/5 of the SQL-verified brute top-k);
    # the raw top-k stays covered by the recall-vs-brute pytest bound

    # "greedy_policy" — retired: full multi-round greedy cover now fully DERIVED (recursive bitstring CTE, sqlgen.greedy_policy_sql)
    "windowed_mining",
    # pinnable despite using the top-k sketch: at the window-corpus
    # scale the space-saving head is in its EXACT regime (capacity >
    # distinct itemsets), so merge order cannot move the counts —
    # validated with cold daily caches at 3 and 16 CPUs
    "windowed_sketch_sweep",
    # pure per-doc function of the text (seeded simhash + band split) —
    # cross-CPU hash-stable at 3 and 16 CPUs
    # "simhash_bands" — retired: now fully DERIVED (sqlgen.simhash_bands_sql)
    "multimodal_features",
    # heavy-hitter itemsets: the sketch partials fold in (name, part)
    # order, so even a trimming top-k is a function of the input alone
    # — validated on fresh runs at 2/4/8 CPUs (fold in a task) and at
    # 2/4 CPUs (fold on the driver)
    "sketch_topk_itemsets",
    "policy_scores",
    "policy_scores_universe",
    # "hll_role_convs" — retired: HLL estimate now fully DERIVED (register rebuild + exact harmonic sum, sqlgen.hll_role_convs_sql)
    # "crosscorpus_dedup" — retired: Bloom-mode counts now fully DERIVED, FPs included (sqlgen.crosscorpus_dedup_sql)
    # theta/KMV exact-regime audience overlaps: trim-merge is exactly
    # merge-order independent (bit-identical property test), validated
    # at 3/8/16 CPUs at both sf levels
    # "rule_audience_overlap" — retired: exact-regime Theta overlaps now fully DERIVED (sqlgen.rule_audience_overlap_sql)
    # merge-order-EXACT sketch twins (r3 second half): DDSketch buckets
    # are integer counts (per-bucket addition), count-sketch cells are
    # int64 sums — both bit-identical across partition splits, outputs
    # integer-folded; bounds vs exact asserted in test_sketches
    # "value_quantiles_dd" — retired: DDSketch quantile estimates now fully DERIVED (sqlgen.value_quantiles_dd_sql)
    # "type_value_quantiles_dd" — retired: now fully DERIVED (sqlgen.type_value_quantiles_dd_sql)
    # f2_moment_sketch was pinned through round 4 and is now fully
    # DERIVED single-statement SQL (poly key hash + signed cell table
    # + odd-depth median) — functions/sqlgen.f2_moment_sketch_sql
    # distributed k-means: every step integral (bp folds, int64 sums,
    # integer argmin with lowest-id ties), so the result is partition-
    # independent — validated at 4/8/32 CPUs like every pin
    # "kmeans_centroids" — retired: all five Lloyd iterations now fully DERIVED (recursive centroid CTE, sqlgen.kmeans_centroids_sql)
    # weighted A-ES sample: per-row keys are pure hash functions, top-k
    # merge deterministic — cross-CPU validated like every pin
    # "weighted_sample" — retired: A-ES selection now fully DERIVED (shared-libm ln keys, sqlgen.weighted_sample_sql)
    # range_count_cms / join_size_cms were pinned through round 4 and
    # are now fully DERIVED single-statement SQL (the estimate itself,
    # not a twin): functions/sqlgen.py restates SplitMix64 + the CMS
    # cell map in HUGEINT modular arithmetic — removed from this list
    # CMS heavy-changers was pinned through round 4 and is now fully
    # DERIVED single-statement SQL (the estimate itself): the engine
    # keys the CMS on the byte-polynomial string hash, which sqlgen
    # restates as a list_reduce Horner fold + splitmix64 steps —
    # removed from this list (functions/sqlgen.heavy_changers_sql)
    # windowed heavy changers was pinned through round 4 and is now
    # fully DERIVED single-statement SQL (the window estimates
    # themselves): the daily store keys its CMS on the byte-polynomial
    # itemset hash and per-day cell updates sum to whole-window
    # supports per cell, so the oracle rebuilds both window CMS tables
    # from raw events — removed from this list
    # (functions/sqlgen.windowed_heavy_changers_sql)
    # rule-confidence DDSketch quantiles: integer bucket counts merge
    # order-independently (same argument as value_quantiles_dd) and the
    # input confidences are pure integers of the supports — cross-CPU
    # validated; α-bound vs the DERIVED exact twin
    # (rule_conf_quantiles_exact) asserted in pytest
    # "rule_conf_quantiles" — retired: now fully DERIVED (sqlgen.rule_conf_quantiles_sql)
    # NOT pinnable: pfa_features (gram-matrix float partials depend on
    # batch boundaries, so results shift with num_cpus; pytest checks it
    # against direct numpy instead), value_quantiles
    # (merge-order-sensitive sketches), sample_events_bernoulli (Ray-
    # internal sampling), simhash_bands (500-row dump, covered by the
    # pinned simhash_dups)
]


def _lit(v) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "NULL"
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if isinstance(v, (np.floating, float)):
        raise TypeError(f"float in golden output: {v!r} — fold it to an "
                        "integer in the query first")
    s = str(v).replace("'", "''")
    return f"'{s}'"


def _sql_type(dtype) -> str:
    if dtype.kind == "u":
        return "UBIGINT"  # uint64 columns (e.g. simhash) overflow BIGINT
    if dtype.kind == "i":
        return "BIGINT"
    return "VARCHAR"


def _values_sql(df: pd.DataFrame, n_events: int) -> str:
    if not len(df):
        # 'VALUES ()' with zero tuples is a DuckDB parse error that would
        # poison every later gate run — refuse loudly instead
        raise ValueError("refusing to pin a 0-row result (the VALUES "
                         "literal would be invalid SQL); handle the "
                         "empty case explicitly or drop the pin")
    cols = list(df.columns)
    sql_types = {c: _sql_type(df[c].dtype) for c in cols}
    rows = []
    # column-wise access: iterrows() would upcast a mixed int64+uint64
    # row to float64 and trip the no-floats guard
    for i in range(len(df)):
        vals = []
        for c in cols:
            v = df[c].iloc[i]
            lit = _lit(v)
            # type-anchor the first row by COLUMN dtype so DuckDB unifies
            # every later tuple to it (a value-based anchor would pick
            # BIGINT for a small first uint64 and overflow later rows)
            if i == 0 and lit != "NULL":
                lit = f"CAST({lit} AS {sql_types[c]})"
            vals.append(lit)
        rows.append("(" + ", ".join(vals) + ")")
    body = ",\n      ".join(rows)
    collist = ", ".join(cols)
    return (f"    SELECT * FROM (VALUES\n      {body}\n"
            f"    ) AS t({collist})\n"
            f"    WHERE (SELECT COUNT(*) FROM events) = {n_events}")


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    q = entrymod.queries()
    entries = {}
    for name in GOLDEN:
        parts = []
        for sf_dir, n_events in SF_LEVELS:
            res = q[name](sf_dir)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            for c in df.columns:
                if df[c].dtype.kind == "f":
                    raise TypeError(f"{name}.{c} is float — fold first")
            parts.append(_values_sql(df, n_events))
            print(f"pinned {name} @ {sf_dir}: {len(df)} rows")
        entries[name] = "\n    UNION ALL\n" .join(parts)

    with open("golden_oracles.py", "w") as f:
        f.write('"""PINNED GOLDEN ORACLES — generated by '
                "scripts/pin_goldens.py. Do not edit by hand.\n\n"
                "These queries are deterministic pure functions of the "
                "corpus (fixed seeds,\nmerge-order-independent sketches, "
                "integer-folded outputs) but have no\nindependent SQL "
                "derivation (iterative/seeded/sketch paths). The VALUES\n"
                "literals below are the engine's own verified output, "
                "pinned as REGRESSION\nevidence: the gate proves the "
                'result is stable, not independently derived."""\n\n'
                "GOLDEN_SQL = {\n")
        for name, sql in entries.items():
            f.write(f'    "{name}": """\n{sql}\n    """,\n')
        f.write("}\n")
    print(f"wrote golden_oracles.py with {len(entries)} entries")
    ray.shutdown()


if __name__ == "__main__":
    main()
