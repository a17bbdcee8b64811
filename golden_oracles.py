"""PINNED GOLDEN ORACLES — generated by scripts/pin_goldens.py. Do not edit by hand.

These queries are deterministic pure functions of the corpus (fixed seeds,
merge-order-independent sketches, integer-folded outputs) but have no
independent SQL derivation (iterative/seeded/sketch paths). The VALUES
literals below are the engine's own verified output, pinned as REGRESSION
evidence: the gate proves the result is stable, not independently derived."""

GOLDEN_SQL = {
    "windowed_mining": """
    SELECT * FROM (VALUES
      (CAST('obs-20240101-20240115' AS VARCHAR), CAST(366 AS BIGINT), CAST(822 AS BIGINT)),
      ('obs-20240108-20240122', 369, 780),
      ('obs-20240115-20240129', 350, 820)
    ) AS t(window_id, n_transactions, n_rules)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST('obs-20240101-20240115' AS VARCHAR), CAST(1375 AS BIGINT), CAST(1922 AS BIGINT)),
      ('obs-20240108-20240122', 1408, 1788),
      ('obs-20240115-20240129', 1475, 1834)
    ) AS t(window_id, n_transactions, n_rules)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
    "windowed_sketch_sweep": """
    SELECT * FROM (VALUES
      (CAST('2024-01-02' AS VARCHAR), CAST(139 AS BIGINT), CAST('user=NONE' AS VARCHAR), CAST(135 AS BIGINT)),
      ('2024-01-04', 136, 'user=NONE', 134),
      ('2024-01-06', 134, 'user=NONE', 132)
    ) AS t(window_start, est_transactions, top_itemset, top_support_est)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST('2024-01-02' AS VARCHAR), CAST(494 AS BIGINT), CAST('user=NONE' AS VARCHAR), CAST(479 AS BIGINT)),
      ('2024-01-04', 491, 'user=NONE', 462),
      ('2024-01-06', 497, 'user=NONE', 472)
    ) AS t(window_start, est_transactions, top_itemset, top_support_est)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
    "multimodal_features": """
    SELECT * FROM (VALUES
      (CAST('image' AS VARCHAR), CAST(32 AS BIGINT), CAST(22 AS BIGINT), CAST(2022 AS BIGINT)),
      ('audio', 32, 10, 1795)
    ) AS t(modality, n_items, feature_dim, mean_abs_feature_bp)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST('image' AS VARCHAR), CAST(128 AS BIGINT), CAST(22 AS BIGINT), CAST(2021 AS BIGINT)),
      ('audio', 128, 10, 1815)
    ) AS t(modality, n_items, feature_dim, mean_abs_feature_bp)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
    "sketch_topk_itemsets": """
    SELECT * FROM (VALUES
      (CAST('click=k26' AS VARCHAR), CAST(6 AS BIGINT), CAST(0 AS BIGINT), CAST(15 AS BIGINT), CAST(15 AS BIGINT)),
      ('purchase=k35', 6, 1, 15, 15),
      ('purchase=k53', 6, 0, 15, 15),
      ('view=k50', 6, 1, 15, 15),
      ('view=k78', 6, 0, 15, 15),
      ('click=k61', 5, 0, 15, 15),
      ('click=k63', 5, 0, 15, 15),
      ('click=k67', 5, 0, 15, 15),
      ('click=k9', 5, 1, 15, 15),
      ('error=k76', 5, 0, 15, 15),
      ('purchase=k38', 5, 0, 15, 15),
      ('purchase=k4', 5, 2, 15, 15),
      ('purchase=k60', 5, 2, 15, 15),
      ('purchase=k81', 5, 0, 15, 15),
      ('purchase=k9', 5, 2, 15, 15),
      ('signup=k26', 5, 0, 15, 15),
      ('signup=k51', 5, 1, 15, 15),
      ('signup=k53', 5, 2, 15, 15),
      ('signup=k58', 5, 0, 15, 15),
      ('signup=k61', 5, 0, 15, 15),
      ('view=k68', 5, 2, 15, 15),
      ('view=k69', 5, 2, 15, 15),
      ('view=k76', 5, 1, 15, 15),
      ('click=k0', 4, 0, 15, 15),
      ('click=k10', 4, 0, 15, 15),
      ('click=k14', 4, 1, 15, 15),
      ('click=k14|click=k77', 4, 2, 15, 15),
      ('click=k14|error=k54', 4, 2, 15, 15),
      ('click=k14|error=k72', 4, 2, 15, 15),
      ('click=k14|error=k91', 4, 2, 15, 15),
      ('click=k14|purchase=k3', 4, 2, 15, 15),
      ('click=k14|purchase=k4', 4, 2, 15, 15),
      ('click=k14|view=k0', 4, 2, 15, 15),
      ('click=k14|view=k50', 4, 1, 15, 15),
      ('click=k18', 4, 1, 15, 15),
      ('click=k19', 4, 2, 15, 15),
      ('click=k2', 4, 0, 15, 15),
      ('click=k22', 4, 0, 15, 15),
      ('click=k23', 4, 0, 15, 15),
      ('click=k29', 4, 0, 15, 15),
      ('click=k34', 4, 0, 15, 15),
      ('click=k44', 4, 1, 15, 15),
      ('click=k49', 4, 2, 15, 15),
      ('click=k51', 4, 0, 15, 15),
      ('click=k52', 4, 0, 15, 15),
      ('click=k59', 4, 0, 15, 15),
      ('click=k72', 4, 2, 15, 15),
      ('click=k77', 4, 1, 15, 15),
      ('click=k77|error=k54', 4, 2, 15, 15),
      ('click=k77|error=k72', 4, 2, 15, 15)
    ) AS t(itemset, est_support, err_bound, n_transactions, hll_distinct_convs)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST('signup=k47' AS VARCHAR), CAST(33 AS BIGINT), CAST(8 AS BIGINT), CAST(150 AS BIGINT), CAST(151 AS BIGINT)),
      ('purchase=k19', 32, 5, 150, 151),
      ('purchase=k99', 32, 7, 150, 151),
      ('signup=k39', 32, 6, 150, 151),
      ('click=k2', 31, 4, 150, 151),
      ('error=k58', 31, 5, 150, 151),
      ('view=k45', 31, 6, 150, 151),
      ('view=k75', 31, 5, 150, 151),
      ('click=k15', 30, 3, 150, 151),
      ('click=k38', 30, 3, 150, 151),
      ('click=k96', 30, 2, 150, 151),
      ('error=k27', 30, 7, 150, 151),
      ('error=k48', 30, 5, 150, 151),
      ('error=k5', 30, 8, 150, 151),
      ('error=k85', 30, 8, 150, 151),
      ('purchase=k8', 30, 8, 150, 151),
      ('view=k5', 30, 7, 150, 151),
      ('view=k59', 30, 7, 150, 151),
      ('view=k70', 30, 8, 150, 151),
      ('click=k88', 29, 3, 150, 151),
      ('click=k9', 29, 2, 150, 151),
      ('error=k10', 29, 5, 150, 151),
      ('error=k80', 29, 9, 150, 151),
      ('purchase=k28', 29, 7, 150, 151),
      ('signup=k13', 29, 8, 150, 151),
      ('signup=k84', 29, 10, 150, 151),
      ('view=k69', 29, 8, 150, 151),
      ('view=k93', 29, 7, 150, 151),
      ('click=k23', 28, 4, 150, 151),
      ('click=k4', 28, 4, 150, 151),
      ('click=k54', 28, 4, 150, 151),
      ('click=k58', 28, 2, 150, 151),
      ('error=k24', 28, 6, 150, 151),
      ('error=k37', 28, 6, 150, 151),
      ('error=k57', 28, 8, 150, 151),
      ('purchase=k36', 28, 6, 150, 151),
      ('purchase=k45', 28, 10, 150, 151),
      ('signup=k21', 28, 9, 150, 151),
      ('signup=k31', 28, 8, 150, 151),
      ('signup=k69', 28, 9, 150, 151),
      ('signup=k7', 28, 7, 150, 151),
      ('signup=k83', 28, 7, 150, 151),
      ('signup=k99', 28, 6, 150, 151),
      ('view=k55', 28, 8, 150, 151),
      ('view=k66', 28, 8, 150, 151),
      ('view=k9', 28, 8, 150, 151),
      ('view=k94', 28, 10, 150, 151),
      ('click=k1', 27, 3, 150, 151),
      ('click=k22', 27, 1, 150, 151),
      ('click=k5', 27, 6, 150, 151)
    ) AS t(itemset, est_support, err_bound, n_transactions, hll_distinct_convs)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
    "policy_scores": """
    SELECT * FROM (VALUES
      (CAST(86 AS BIGINT), CAST(84 AS BIGINT), CAST(67 AS BIGINT), CAST(7 AS BIGINT), CAST(190 AS BIGINT), CAST(7 AS BIGINT), CAST(20 AS BIGINT), CAST('obs-20240101-20240122' AS VARCHAR), CAST(2607 AS BIGINT), CAST(9054 AS BIGINT), CAST(355 AS BIGINT), CAST(9645 AS BIGINT), CAST(2731 AS BIGINT))
    ) AS t(c_tp, c_fn, u_tp, u_fn, u_fp, u_tn, n_rules, window_id, precision_bp, recall_bp, specificity_bp, fpr_bp, accuracy_bp)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST(408 AS BIGINT), CAST(340 AS BIGINT), CAST(270 AS BIGINT), CAST(21 AS BIGINT), CAST(603 AS BIGINT), CAST(24 AS BIGINT), CAST(20 AS BIGINT), CAST('obs-20240101-20240122' AS VARCHAR), CAST(3093 AS BIGINT), CAST(9278 AS BIGINT), CAST(383 AS BIGINT), CAST(9617 AS BIGINT), CAST(3203 AS BIGINT))
    ) AS t(c_tp, c_fn, u_tp, u_fn, u_fp, u_tn, n_rules, window_id, precision_bp, recall_bp, specificity_bp, fpr_bp, accuracy_bp)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
    "policy_scores_universe": """
    SELECT * FROM (VALUES
      (CAST(1514 AS BIGINT), CAST(1362 AS BIGINT), CAST(152 AS BIGINT), CAST(397 AS BIGINT), CAST(145 AS BIGINT), CAST(1115 AS BIGINT), CAST(14471 AS BIGINT), CAST(1512 AS BIGINT), CAST(16128 AS BIGINT), CAST(10 AS BIGINT), CAST('obs-20240101-20240122' AS VARCHAR), CAST(2626 AS BIGINT), CAST(7325 AS BIGINT))
    ) AS t(n_turns, c_tp, c_fn, u_tp, u_fn, u_fp, u_tn, u_pos, universe_total, n_rules, window_id, precision_bp, recall_bp)
    WHERE (SELECT COUNT(*) FROM events) = 1000
    UNION ALL
    SELECT * FROM (VALUES
      (CAST(6781 AS BIGINT), CAST(6163 AS BIGINT), CAST(618 AS BIGINT), CAST(975 AS BIGINT), CAST(571 AS BIGINT), CAST(537 AS BIGINT), CAST(15221 AS BIGINT), CAST(1512 AS BIGINT), CAST(17304 AS BIGINT), CAST(10 AS BIGINT), CAST('obs-20240101-20240122' AS VARCHAR), CAST(6448 AS BIGINT), CAST(6307 AS BIGINT))
    ) AS t(n_turns, c_tp, c_fn, u_tp, u_fn, u_fp, u_tn, u_pos, universe_total, n_rules, window_id, precision_bp, recall_bp)
    WHERE (SELECT COUNT(*) FROM events) = 10000
    """,
}
