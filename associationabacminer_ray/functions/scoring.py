"""Rule-score family — vectorized transplant of the reference's metrics.

The reference computes, per candidate rule (``src/eval/
EnvOverassignmentCalculator.py:108-166``): a coverage rate, an
overassignment rate, and a pluggable score family selected by
``abac_params.metric.type`` (``src/job/job_generator.py:118-126``):
Fβ-style harmonic mean, the arithmetic-mean "C-Score"
``((β·covR)+overR)/2``, product, ``l_dist`` (distance to the ideal
(1,1) corner — minimized while every other metric is maximized,
``src/EnvAbacRuleMiner.py:109-119``), and WSC (weighted structural
complexity, ``src/eval/WscCalculator.py:31-53``).

Transplant onto association rules over conversation transactions
(SURVEY.md §7.0): for rule A → B,

- ``coverage_rate``       = support(A∪B) / n_transactions (how much of
  the corpus the rule explains — analog of matched / uncovered logs)
- ``overassignment_rate`` = confidence = support(A∪B) / support(A)
  (1 - fraction of conversations the rule would "over-assign" —
  antecedent present but consequent absent)

Degenerate-case overrides mirror ``src/eval/EnvPolicyEvaluator.py:
231-244``: confidence := 1 when support(A) = 0 ("precision is perfect
when nothing is allowed"), coverage := 1 when n_transactions = 0
("recall is perfect when nothing was exercised").

All functions are column math over numpy arrays / pandas Series —
usable inside ``map_batches`` on the candidate-rule table.
"""

from __future__ import annotations

import numpy as np

# metrics where SMALLER is better (reference: l_dist minimized,
# src/EnvAbacRuleMiner.py:109-119)
MINIMIZED_METRICS = frozenset({"l_dist", "l_dist_ref"})


def fold_bp(values) -> np.ndarray:
    """THE basis-point fold: floor(x·10⁴ + 0.5) as int64. Every gate
    query and SQL oracle states this exact IEEE double op sequence —
    all call sites must share this one implementation so the two sides
    can never drift (graft gate convention)."""
    return np.floor(np.asarray(values, dtype=float) * 10000 + 0.5).astype(
        np.int64)


def fold_bp_strict(values, name: str = "") -> np.ndarray:
    """``fold_bp`` that REFUSES non-finite input: silently casting
    NaN/inf would mint INT64_MIN garbage that a pinned golden oracle
    could then freeze into the gate."""
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError(f"non-finite value in score column '{name}': {vals}")
    return fold_bp(vals)


def coverage_rate(support_ab, n_transactions) -> np.ndarray:
    ab = np.asarray(support_ab, dtype=np.float64)
    n = float(n_transactions)
    if n == 0:
        return np.ones_like(ab)  # degenerate override: nothing exercised
    return ab / n


def confidence(support_ab, support_a) -> np.ndarray:
    ab = np.asarray(support_ab, dtype=np.float64)
    a = np.asarray(support_a, dtype=np.float64)
    out = np.ones_like(ab)  # degenerate override: support(A)=0 → 1
    nz = a > 0
    out[nz] = ab[nz] / a[nz]
    return out


def lift(conf, support_b, n_transactions) -> np.ndarray:
    conf = np.asarray(conf, dtype=np.float64)
    b = np.asarray(support_b, dtype=np.float64)
    n = float(n_transactions)
    out = np.zeros_like(conf)
    nz = b > 0
    out[nz] = conf[nz] * n / b[nz]
    return out


def cscore(cov, overr, beta: float = 1.0) -> np.ndarray:
    """Arithmetic-mean C-Score: ((β·covR) + overR) / 2
    (EnvOverassignmentCalculator.py:149)."""
    return (beta * np.asarray(cov, dtype=np.float64)
            + np.asarray(overr, dtype=np.float64)) / 2.0


def fbeta(cov, overr, beta: float = 1.0) -> np.ndarray:
    """Fβ harmonic mean of coverage and overassignment rates — reference
    operand order: ``(1+β²)·(overR·covR) / (β²·overR + covR)``
    (EnvOverassignmentCalculator.py:145, 'harmonic_mean'); 0 where both
    are 0. β<1 weights overR, β>1 weights covR (reference comment)."""
    c = np.asarray(cov, dtype=np.float64)
    o = np.asarray(overr, dtype=np.float64)
    denom = beta * beta * o + c
    out = np.zeros_like(c)
    nz = denom > 0
    out[nz] = (1 + beta * beta) * (o[nz] * c[nz]) / denom[nz]
    return out


def product_score(cov, overr) -> np.ndarray:
    return np.asarray(cov, dtype=np.float64) * np.asarray(overr, dtype=np.float64)


def l_dist(cov, overr) -> np.ndarray:
    """Euclidean distance to the ideal (coverage=1, overassignment=1)
    corner; minimized (EnvOverassignmentCalculator.py:157-159)."""
    c = np.asarray(cov, dtype=np.float64)
    o = np.asarray(overr, dtype=np.float64)
    return np.sqrt((1.0 - c) ** 2 + (1.0 - o) ** 2)


def wsc(n_antecedent_items, n_consequent_items) -> np.ndarray:
    """Structural complexity of a rule: its constraint count
    (WscCalculator.py:31-53 weights classes of constraints; our classes,
    antecedent and consequent items, weigh 1 each). Policy WSC = Σ rules."""
    return (np.asarray(n_antecedent_items, dtype=np.float64)
            + np.asarray(n_consequent_items, dtype=np.float64))


def reference_score_family(df, n_transactions: int, beta: float = 1.0,
                           cov_override=None):
    """The reference's FULL per-rule score family with its exact formulas
    (``EnvOverassignmentCalculator.py:140-163``), on transplanted
    quantities (SURVEY §7.0):

    - ``unique_log_entries``  → support(A∪B) (distinct conversations the
      rule matches). The reference also tracks turn-level
      ``all_log_entries``; transactions collapse turn multiplicity, so
      the freq variants here use the same support (documented
      degeneracy — the *formulas* are exact).
    - ``allowed_events_count`` → support(A) (conversations the rule
      would allow — the u×o×e universe product analog, floored at 1
      like the reference floors each factor).
    - ``overassignment_total`` = allowed − unique;
      ``total_possible_priv_states`` analog = n_transactions.
    - ``under_assignments`` = n_transactions − unique.
    - ``wsc`` = len(constraints) (reference :120).

    Appends: harmonic_mean, arithmetic_mean, arithmetic_mean_wsc,
    product_ref, Qrul_count{,1,_i,1_i}, Qrul_freq{,1,_i,1_i},
    l_dist_ref (MINIMIZED: under + β·over, reference :157).
    """
    unique = np.asarray(df["support_ab"], dtype=np.float64)
    allowed = np.maximum(np.asarray(df["support_a"], dtype=np.float64), 1.0)
    # turn-level support when the pipeline tracked it (the real
    # all_log_entries analog); falls back to conv support otherwise
    all_ = (np.asarray(df["support_ab_turns"], dtype=np.float64)
            if "support_ab_turns" in df.columns else unique)
    wsc_ = np.asarray(df["n_antecedent"] + df["n_consequent"], dtype=np.float64)
    n = float(max(n_transactions, 1))
    over_total = np.maximum(allowed - unique, 0.0)
    over_rate = over_total / n
    overR = 1.0 - over_rate
    # the coverage rate feeds the family directly (reference
    # :143-156); over_rate/l_dist stay conversation-denominated
    covR = (np.asarray(cov_override, dtype=np.float64)
            if cov_override is not None else unique / n)
    b2 = beta * beta

    denom = b2 * overR + covR
    harmonic = np.zeros_like(covR)
    nz = denom > 0
    harmonic[nz] = (1 + b2) * (overR[nz] * covR[nz]) / denom[nz]
    df["harmonic_mean"] = harmonic
    df["arithmetic_mean"] = (beta * covR + overR) / 2.0
    covRW = all_ / wsc_
    df["arithmetic_mean_wsc"] = (beta * covRW + overR) / 2.0
    over_floor = np.maximum(over_total, 1.0)
    df["product_ref"] = (unique * beta) / over_floor
    safe_unique = np.maximum(unique, 1.0)
    safe_all = np.maximum(all_, 1.0)
    df["Qrul_count1"] = unique * (1 - (beta * over_total) / allowed)
    df["Qrul_count1_i"] = unique * (1 - beta * over_total / safe_unique)
    df["Qrul_freq1"] = all_ * (1 - (beta * over_total) / allowed)
    df["Qrul_freq1_i"] = all_ * (1 - beta * over_total / safe_all)
    df["Qrul_count"] = (unique / wsc_) * (1 - (beta * over_total) / allowed)
    df["Qrul_count_i"] = (unique / wsc_) * (1 - beta * over_total / safe_unique)
    df["Qrul_freq"] = (all_ / wsc_) * (1 - (beta * over_total) / allowed)
    df["Qrul_freq_i"] = (all_ / wsc_) * (1 - beta * over_total / safe_all)
    df["l_dist_ref"] = (n - unique) + beta * over_total
    return df


def score_columns(df, n_transactions: int, beta: float = 1.0):
    """Append the full score family to a rules DataFrame having columns
    support_ab, support_a, support_b, n_antecedent, n_consequent.

    Coverage is ``support_ab / n_transactions`` (the reference's
    unique-logs ``coverage_rate_method``, src/EnvAbacRuleMiner.py:
    182-183) and feeds the WHOLE score family, as the reference pipes
    its coverage rate straight into the harmonic/arithmetic means
    (EnvOverassignmentCalculator.py:143-156).
    """
    cov = coverage_rate(df["support_ab"], n_transactions)
    conf = confidence(df["support_ab"], df["support_a"])
    df["coverage"] = cov
    df["confidence"] = conf
    df["lift"] = lift(conf, df["support_b"], n_transactions)
    df["cscore"] = cscore(cov, conf, beta)
    df["fbeta"] = fbeta(cov, conf, beta)
    df["product"] = product_score(cov, conf)
    df["l_dist"] = l_dist(cov, conf)
    df["wsc"] = wsc(df["n_antecedent"], df["n_consequent"])
    df = reference_score_family(df, n_transactions, beta, cov_override=cov)
    return df
