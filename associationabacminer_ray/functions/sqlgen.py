"""Derived-SQL restatements of the CMS sketch estimates.

The count-min sketch queries (``q_join_size_cms``,
``q_range_count_cms``) are deterministic pure functions of the corpus:
int64 cell sums are merge-order independent and the hash chain is
SplitMix64 over integer keys (``functions.hashing``). That makes the
ESTIMATE itself — not just an exact twin — independently derivable in
ANSI-ish SQL: SplitMix64 is three xor-shift-multiply steps mod 2⁶⁴,
and a 64-bit wraparound multiply is expressible in DuckDB HUGEINT
(128-bit) arithmetic by splitting the constant into 32-bit halves:

    (a·c) mod 2⁶⁴ = (a·c_lo + ((a·c_hi mod 2³²) << 32)) mod 2⁶⁴

with every intermediate < 2⁹⁷ ⊂ HUGEINT. The generators below emit a
SINGLE SELECT statement (nested subqueries, no macros — the driver
gate may not support multi-statement oracles) that rebuilds the CMS
cell table per depth row and reads it exactly the way
``sketches/cms.py`` does (point read = min over rows; inner product =
min over rows of the cell-wise dot). This converts two pinned-golden
oracles into independent derivations — the SQL recomputes the sketch
from the raw parquet, it does not restate engine output.

String keys are SQL-expressible too when the engine hashes them with
the byte-polynomial fold (``hashing.hash_strings_poly``): the fold
Σⱼ (byteⱼ+1)·Pʲ is a ``list_reduce`` Horner recurrence over the code
points (byte == code point on the ASCII key domains these queries
use), xor'd with the length and splitmix-finalized. That retires the
``heavy_changers`` pin (``heavy_changers_sql``). Sketches still keyed
on SipHash (``pandas.util.hash_array``) stay pinned — that hash is
not reasonably SQL-expressible.

Parity with numpy's uint64 semantics is pytest-asserted over random
64-bit inputs (tests/test_sqlgen.py) and the full oracles are gate-
checked at both sf levels like every derived entry.
"""

from __future__ import annotations

import numpy as np

P64 = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mulmod64(col: str, const: int) -> str:
    """(col · const) mod 2⁶⁴ as a DuckDB UBIGINT expression (HUGEINT
    intermediates, 32-bit constant split — see module docstring)."""
    lo, hi = const & 0xFFFFFFFF, const >> 32
    return (
        f"CAST(((CAST({col} AS HUGEINT) * {lo}) + "
        f"((CAST({col} AS HUGEINT) * {hi}) % 4294967296) * 4294967296) "
        f"% {P64} AS UBIGINT)"
    )


def splitmix64_select(src_sql: str, in_col: str, out_col: str,
                      carry: tuple[str, ...] = ()) -> str:
    """A SELECT computing ``out_col = splitmix64(in_col)`` over
    ``src_sql`` (a full SELECT producing UBIGINT ``in_col``), carrying
    the named columns through. Six nested steps, each referencing the
    previous step's column — no expression blow-up."""
    pre = (", ".join(carry) + ", ") if carry else ""
    q = (f"SELECT {pre}CAST((CAST({in_col} AS HUGEINT) + {_GAMMA}) % {P64} "
         f"AS UBIGINT) AS z0 FROM ({src_sql})")
    q = f"SELECT {pre}xor(z0, z0 >> 30) AS t1 FROM ({q})"
    q = f"SELECT {pre}{_mulmod64('t1', _M1)} AS z1 FROM ({q})"
    q = f"SELECT {pre}xor(z1, z1 >> 27) AS t2 FROM ({q})"
    q = f"SELECT {pre}{_mulmod64('t2', _M2)} AS z2 FROM ({q})"
    return f"SELECT {pre}xor(z2, z2 >> 31) AS {out_col} FROM ({q})"


_POLY_P = 0x9E3779B97F4A7C15 | 1  # hashing._POLY_P (odd ⇒ invertible)


def polyhash_select(src_sql: str, str_col: str, out_col: str,
                    carry: tuple[str, ...] = ()) -> str:
    """A SELECT computing ``out_col = hash_strings_poly(str_col)`` over
    ``src_sql``: Horner ``list_reduce`` fold acc·P + (byte+1) over the
    REVERSED code points (initial acc 0 via ``list_prepend``), xor'd
    with the byte length, then the six splitmix64 steps. Byte-exact
    only for ASCII keys (one byte per code point) — every caller's key
    domain ('k'+digits tools, '='/'|'-joined items) is ASCII."""
    lo, hi = _POLY_P & 0xFFFFFFFF, _POLY_P >> 32
    lam = (f"(a, b) -> CAST(((CAST(a AS HUGEINT) * {lo}) + "
           f"((CAST(a AS HUGEINT) * {hi}) % 4294967296) * 4294967296 "
           f"+ b + 1) % {P64} AS UBIGINT)")
    fold = (f"CASE WHEN length({str_col}) = 0 THEN CAST(0 AS UBIGINT) "
            f"ELSE list_reduce(list_prepend(CAST(0 AS UBIGINT), "
            f"list_reverse(list_transform(string_split({str_col}, ''), "
            f"ch -> CAST(unicode(ch) AS UBIGINT)))), {lam}) END")
    pre = (", ".join(carry) + ", ") if carry else ""
    x = (f"SELECT {pre}xor({fold}, CAST(length({str_col}) AS UBIGINT)) "
         f"AS px FROM ({src_sql})")
    return splitmix64_select(x, "px", out_col, carry)


def _splitmix64_int(x: int) -> int:
    with np.errstate(over="ignore"):
        z = np.uint64(x % P64) + np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        return int(z ^ (z >> np.uint64(31)))


def _seeds_values(seed: int, depth: int, mult: int = 1315423911) -> str:
    """The row-seed constants S_i = splitmix64(seed·mult + i) — the
    exact ``mix_with_seed`` family derivation of ``sketches/cms.py``'s
    ``_rows`` (mult 1315423911) and ``countsketch.py``'s (2654435761)
    — inlined as a VALUES list."""
    rows = [
        f"({i}, CAST({_splitmix64_int(seed * mult + i)} AS UBIGINT))"
        for i in range(depth)
    ]
    return "VALUES " + ", ".join(rows)


def _int_key_cells_sql(table: str, col: str, width: int, alias: str) -> str:
    """CTE body ``alias(d, cell, n)``: the nonzero CMS cells of one
    integer key column — base hash h = splitmix64(uint64(key)) (the
    ``hash_ints`` path), row mix splitmix64(h ⊕ S_d), cell = mix %
    width. Negative keys wrap into uint64 exactly like numpy's
    ``astype(uint64)``."""
    x = (f"SELECT CAST(((CAST({col} AS HUGEINT) % {P64}) + {P64}) % {P64} "
         f"AS UBIGINT) AS x FROM {table} WHERE {col} IS NOT NULL")
    base = splitmix64_select(x, "x", "h")
    mix_in = (f"SELECT s.d AS d, xor(t.h, s.s) AS y "
              f"FROM ({base}) t CROSS JOIN seeds s")
    mixed = splitmix64_select(mix_in, "y", "hh", ("d",))
    return (f"{alias} AS (SELECT d, CAST(hh % {width} AS BIGINT) AS cell, "
            f"CAST(COUNT(*) AS HUGEINT) AS n FROM ({mixed}) "
            f"GROUP BY d, cell)")


def join_size_cms_sql(width: int = 1 << 15, depth: int = 4,
                      seed: int = 7) -> str:
    """Single-statement derivation of ``q_join_size_cms``: rebuild both
    CMS cell tables from events.user_id / orders.o_custkey and take
    min over depth rows of the cell-wise dot (``cms.inner_product``).
    Cells missing on either side contribute 0 to the dot, so the inner
    join over nonzero cells is exact."""
    return f"""
WITH seeds(d, s) AS ({_seeds_values(seed, depth)}),
{_int_key_cells_sql('events', 'user_id', width, 'a_cells')},
{_int_key_cells_sql('orders', 'o_custkey', width, 'b_cells')},
dots AS (SELECT a.d, SUM(a.n * b.n) AS dot
         FROM a_cells a JOIN b_cells b ON a.d = b.d AND a.cell = b.cell
         GROUP BY a.d)
SELECT CAST(CASE WHEN (SELECT COUNT(*) FROM dots) < {depth} THEN 0
            ELSE (SELECT MIN(dot) FROM dots) END AS BIGINT) AS n_join_est
"""


def _dyadic_cover(a: int, b: int) -> list[tuple[int, int]]:
    """Canonical disjoint dyadic cover of [a, b] — mirror of
    ``sketch_queries.dyadic_cover`` (kept separate so the oracle side
    is an independent restatement, property-tested against it)."""
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


def range_count_cms_sql(bits: int = 24, width: int = 1 << 16,
                        depth: int = 4, seed: int = 7,
                        ranges: tuple = ((0, 99_999),
                                         (100_000, 499_999),
                                         (500_000, 1_499_999),
                                         (1_500_000, (1 << 24) - 1))) -> str:
    """Single-statement derivation of ``q_range_count_cms``: fold
    events.value to bp (the shared FLOOR(v·10⁴+0.5) op sequence),
    update every dyadic prefix (key<<6 | level encoding, exactly
    ``_dyadic_cell_hashes``), then answer each fixed range as the sum
    over its canonical dyadic cover of min-over-rows cell reads. Cover
    cells absent from the cell table read 0 (LEFT JOIN + COALESCE) —
    identical to an all-zero CMS column."""
    qrows = []
    for rid, (lo, hi) in enumerate(ranges):
        for lvl, ky in _dyadic_cover(lo, hi):
            qrows.append(f"({rid}, CAST({lo} AS BIGINT), "
                         f"CAST({hi} AS BIGINT), "
                         f"CAST({(ky << 6) | lvl} AS UBIGINT))")
    qvals = "VALUES " + ", ".join(qrows)
    upd_in = (
        f"SELECT CAST(c.enc AS UBIGINT) AS x, c.n AS n FROM ("
        f"SELECT (v.v >> l.l) * 64 + l.l AS enc, SUM(v.cnt) AS n "
        f"FROM (SELECT CAST(FLOOR(value * 10000 + 0.5) AS BIGINT) AS v, "
        f"COUNT(*) AS cnt FROM events GROUP BY 1) v "
        f"CROSS JOIN range(0, {bits}) l(l) GROUP BY 1) c")
    upd_h = splitmix64_select(upd_in, "x", "h", ("n",))
    upd_mix_in = (f"SELECT s.d AS d, t.n AS n, xor(t.h, s.s) AS y "
                  f"FROM ({upd_h}) t CROSS JOIN seeds s")
    upd_mixed = splitmix64_select(upd_mix_in, "y", "hh", ("d", "n"))
    q_h = splitmix64_select(
        "SELECT rid, lo, hi, enc, enc AS x FROM q_cells_raw",
        "x", "h", ("rid", "lo", "hi", "enc"))
    q_mix_in = (f"SELECT t.rid, t.lo, t.hi, t.enc, s.d AS d, "
                f"xor(t.h, s.s) AS y FROM ({q_h}) t CROSS JOIN seeds s")
    q_mixed = splitmix64_select(q_mix_in, "y", "hh",
                                ("rid", "lo", "hi", "enc", "d"))
    return f"""
WITH seeds(d, s) AS ({_seeds_values(seed, depth)}),
cms AS (SELECT d, CAST(hh % {width} AS BIGINT) AS idx, SUM(n) AS cnt
        FROM ({upd_mixed}) GROUP BY d, idx),
q_cells_raw(rid, lo, hi, enc) AS ({qvals}),
q_idx AS (SELECT rid, lo, hi, enc, d, CAST(hh % {width} AS BIGINT) AS idx
          FROM ({q_mixed})),
q_est AS (SELECT rid, lo, hi, enc, MIN(COALESCE(c.cnt, 0)) AS est
          FROM q_idx q LEFT JOIN cms c ON c.d = q.d AND c.idx = q.idx
          GROUP BY rid, lo, hi, enc)
SELECT lo AS lo_bp, hi AS hi_bp, CAST(SUM(est) AS BIGINT) AS n_rows_est
FROM q_est GROUP BY rid, lo, hi ORDER BY rid
"""


def heavy_changers_sql(width: int = 1 << 14, depth: int = 4, seed: int = 7,
                       threshold_bp: int = 15) -> str:
    """Single-statement derivation of ``q_heavy_changers`` — the
    ESTIMATE, not just the exact twin: rebuild both per-parity CMS
    tables from raw events (tool keys poly-hashed exactly like
    ``hash_strings_poly``), point-read every distinct tool per parity
    (min over depth rows, absent cells read 0 like an all-zero CMS
    column) and apply the identical integer bp threshold. Candidates
    are ALL distinct tools because the engine's space-saving top-k is
    in its exact regime (distinct tools ≪ capacity) — pinned by
    ``tests`` asserting the candidate union equals the distinct set.
    Total stream weight (the threshold denominator) is the exact
    non-null row count, which the space-saving summaries carry
    exactly regardless of capacity."""
    tools_h = polyhash_select("SELECT tool FROM tools", "tool", "h",
                              ("tool",))
    mix_in = (f"SELECT t.tool AS tool, s.d AS d, xor(t.h, s.s) AS y "
              f"FROM ({tools_h}) t CROSS JOIN seeds s")
    mixed = splitmix64_select(mix_in, "y", "hh", ("tool", "d"))
    return f"""
WITH seeds(d, s) AS ({_seeds_values(seed, depth)}),
f AS (SELECT 'k' || regexp_extract(props, '[0-9]+') AS tool,
             (((epoch_us(ts) // 86400000000) % 2) + 2) % 2 AS parity
      FROM events WHERE props IS NOT NULL AND ts IS NOT NULL),
c AS (SELECT parity, tool, CAST(COUNT(*) AS HUGEINT) AS n
      FROM f GROUP BY parity, tool),
tools AS (SELECT DISTINCT tool FROM c),
tc AS (SELECT tool, d, CAST(hh % {width} AS BIGINT) AS cell
       FROM ({mixed})),
cms AS (SELECT c.parity, tc.d, tc.cell, SUM(c.n) AS cnt
        FROM c JOIN tc ON c.tool = tc.tool GROUP BY 1, 2, 3),
reads AS (SELECT tc.tool, pr.parity, tc.d, COALESCE(m.cnt, 0) AS cnt
          FROM tc CROSS JOIN (VALUES (0), (1)) pr(parity)
          LEFT JOIN cms m ON m.parity = pr.parity AND m.d = tc.d
                 AND m.cell = tc.cell),
est AS (SELECT tool, parity, MIN(cnt) AS est
        FROM reads GROUP BY tool, parity),
piv AS (SELECT tool,
               COALESCE(SUM(est) FILTER (WHERE parity = 0), 0) AS ne,
               COALESCE(SUM(est) FILTER (WHERE parity = 1), 0) AS nd
        FROM est GROUP BY tool),
tot AS (SELECT SUM(n) AS tot FROM c)
SELECT tool,
       CAST(ne AS BIGINT) AS n_even_est,
       CAST(nd AS BIGINT) AS n_odd_est,
       CAST(ABS(ne - nd) AS BIGINT) AS delta_abs_est
FROM piv, tot WHERE 10000 * ABS(ne - nd) >= {threshold_bp} * tot.tot
"""


def windowed_heavy_changers_sql(width: int = 1 << 14, depth: int = 4,
                                seed: int = 7, threshold: int = 3,
                                windows: tuple = (
                                    ("2024-01-01", "2024-01-08"),
                                    ("2024-01-08", "2024-01-15"))) -> str:
    """Single-statement derivation of ``q_windowed_heavy_changers`` —
    the window ESTIMATES served from the incremental daily store, not
    just the exact twin. Soundness rests on CMS ADDITIVITY: the store
    updates each day's CMS with that day's per-itemset supports over
    conv-day transactions (disjoint across days), so the blob-merged
    window CMS cell table equals one built from whole-window supports
    — which is what this SQL builds, composing the exact twin's
    support CTEs (singles + ≤64-item pairs over conv-day transactions,
    the gate-validated ``windowed_heavy_changers_exact`` fragments)
    with the poly itemset hash and min-over-rows point reads.
    Candidates are ALL itemsets with window support ≥ 1 because the
    merged space-saving top-k is in its exact regime (distinct
    itemsets ≪ capacity 8192 at both sf levels). Defaults mirror
    ``sketch_queries.WHC_*``."""
    wrows = ", ".join(
        f"({i + 1}, TIMESTAMP '{lo}', TIMESTAMP '{hi}')"
        for i, (lo, hi) in enumerate(windows))
    isets_h = polyhash_select("SELECT itemset FROM isets", "itemset", "h",
                              ("itemset",))
    mix_in = (f"SELECT t.itemset AS itemset, s.d AS d, xor(t.h, s.s) AS y "
              f"FROM ({isets_h}) t CROSS JOIN seeds s")
    mixed = splitmix64_select(mix_in, "y", "hh", ("itemset", "d"))
    return f"""
WITH seeds(d, s) AS ({_seeds_values(seed, depth)}),
wins(win, lo, hi) AS (VALUES {wrows}),
t AS (SELECT DISTINCT w.win,
             'conv-' || CAST(e.user_id AS VARCHAR) || '@'
                 || strftime(e.ts, '%Y-%m-%d') AS txk,
             e.event_type || '=k'
                 || regexp_extract(e.props, '[0-9]+') AS item
      FROM events e JOIN wins w ON e.ts >= w.lo AND e.ts < w.hi),
sz AS (SELECT win, txk, COUNT(*) AS n_items FROM t GROUP BY win, txk),
singles AS (SELECT win, item AS itemset, COUNT(*) AS c
            FROM t GROUP BY win, item),
pairs AS (SELECT a.win, a.item || '|' || b.item AS itemset, COUNT(*) AS c
          FROM t a
          JOIN t b ON a.win = b.win AND a.txk = b.txk AND a.item < b.item
          JOIN sz ON sz.win = a.win AND sz.txk = a.txk
          WHERE sz.n_items <= 64
          GROUP BY a.win, a.item, b.item),
sup AS (SELECT win, itemset, CAST(SUM(c) AS HUGEINT) AS n
        FROM (SELECT * FROM singles UNION ALL SELECT * FROM pairs)
        GROUP BY win, itemset),
isets AS (SELECT DISTINCT itemset FROM sup),
ic AS (SELECT itemset, d, CAST(hh % {width} AS BIGINT) AS cell
       FROM ({mixed})),
cms AS (SELECT s.win, ic.d, ic.cell, SUM(s.n) AS cnt
        FROM sup s JOIN ic ON s.itemset = ic.itemset GROUP BY 1, 2, 3),
reads AS (SELECT ic.itemset, w.win, ic.d, COALESCE(m.cnt, 0) AS cnt
          FROM ic CROSS JOIN (SELECT win FROM wins) w
          LEFT JOIN cms m ON m.win = w.win AND m.d = ic.d
                 AND m.cell = ic.cell),
est AS (SELECT itemset, win, MIN(cnt) AS est
        FROM reads GROUP BY itemset, win),
piv AS (SELECT itemset,
               COALESCE(SUM(est) FILTER (WHERE win = 1), 0) AS e1,
               COALESCE(SUM(est) FILTER (WHERE win = 2), 0) AS e2
        FROM est GROUP BY itemset)
SELECT itemset,
       CAST(e1 AS BIGINT) AS s1_est,
       CAST(e2 AS BIGINT) AS s2_est,
       CAST(ABS(e1 - e2) AS BIGINT) AS delta_abs_est
FROM piv WHERE ABS(e1 - e2) >= {threshold}
"""


def f2_moment_sketch_sql(width: int = 1 << 14, depth: int = 5,
                         seed: int = 19) -> str:
    """Single-statement derivation of ``q_f2_moment_sketch`` — the AMS
    ESTIMATE itself: rebuild the CountSketch table from raw events
    ((user_id, event_type) keys poly-hashed; row mix splitmix64(h ⊕
    S_d) with the countsketch seed family, sign from the mixed hash's
    bit 62, cell = mix % width), then the median over depth rows of
    Σ cell² — odd depth makes the median the single middle row (ORDER
    BY + OFFSET depth//2), integer-exact end to end (HUGEINT sums).
    Signed per-cell sums are merge-order independent, so the batch
    combiner's partial counts collapse to per-key totals."""
    key = "CAST(user_id AS VARCHAR) || chr(31) || event_type"
    kh = polyhash_select(
        f"SELECT {key} AS k, CAST(COUNT(*) AS HUGEINT) AS c "
        f"FROM events GROUP BY 1", "k", "h", ("c",))
    mix_in = (f"SELECT t.c AS c, s.d AS d, xor(t.h, s.s) AS y "
              f"FROM ({kh}) t CROSS JOIN seeds s")
    mixed = splitmix64_select(mix_in, "y", "hh", ("c", "d"))
    return f"""
WITH seeds(d, s) AS ({_seeds_values(seed, depth, mult=2654435761)}),
cells AS (SELECT d, CAST(hh % {width} AS BIGINT) AS cell,
                 SUM(((CAST(hh >> 62 AS BIGINT) & 2) - 1) * c) AS v
          FROM ({mixed}) GROUP BY d, cell),
rows_f2 AS (SELECT d, SUM(v * v) AS f2 FROM cells GROUP BY d)
SELECT CAST(f2 AS BIGINT) AS est_f2,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM events) AS n_rows
FROM rows_f2 ORDER BY f2 LIMIT 1 OFFSET {depth // 2}
"""


def clz64_select(src_sql: str, in_col: str, out_col: str,
                 carry: tuple[str, ...] = ()) -> str:
    """A SELECT computing ``out_col = count-leading-zeros(in_col)``
    (uint64) over ``src_sql`` — the exact binary-search ladder of
    ``hashing``'s vectorized ``_clz64``: six CASE steps, each testing
    whether the top ``s`` bits are zero and shifting left (mod 2⁶⁴) if
    so. An all-zero input yields 63 (the ladder never adds the final
    +1 numpy applies via ``n[x==0]=64``) — callers that cap the result
    below 64 (every HLL rho with p ≥ 2) are unaffected; others must
    special-case zero themselves."""
    pre = (", ".join(carry) + ", ") if carry else ""
    q = f"SELECT {pre}CAST(0 AS BIGINT) AS n, {in_col} AS acc FROM ({src_sql})"
    for s in (32, 16, 8, 4, 2, 1):
        shifted = _mulmod64("acc", 1 << s)
        q = (f"SELECT {pre}"
             f"CASE WHEN acc >> {64 - s} = 0 THEN n + {s} ELSE n END AS n, "
             f"CASE WHEN acc >> {64 - s} = 0 THEN {shifted} ELSE acc END "
             f"AS acc FROM ({q})")
    return f"SELECT {pre}n AS {out_col} FROM ({q})"


def hll_role_convs_sql(p: int = 14) -> str:
    """Single-statement derivation of ``q_hll_role_convs`` — the HLL
    ESTIMATE itself, not an exact-distinct twin: rebuild the 2^p
    registers from raw events (conv_id = 'conv-'||user_id poly-hashed —
    the SQL-expressible ``hash_strings_poly`` the query keys on;
    register index = top p hash bits, rho = min(clz(h<<p)+1, 64−p+1)),
    take per-(role, index) MAX, then evaluate the Flajolet estimator
    exactly the way ``sketches/hll.py`` does (see
    ``_hll_grouped_est_select`` — exact HUGEINT harmonic sum,
    32-bit-split double conversion, shared-libm linear counting),
    finalized int(round(·)) with explicit half-even rounding to match
    Python ``round``."""
    keys = ("SELECT event_type AS role, "
            "'conv-' || CAST(user_id AS VARCHAR) AS k FROM events")
    est = _hll_grouped_est_select(keys, ("role",), p=p)
    return f"""
SELECT role, {_HALF_EVEN.format(x="est")} AS est_distinct_convs
FROM ({est})
"""

def weighted_sample_sql(k: int = 20) -> str:
    """Single-statement derivation of ``q_weighted_sample`` — the
    Efraimidis–Spirakis A-ES selection itself: per event, u =
    (splitmix64(event_id)+1)·2⁻⁶⁴ (the ``hash_ints`` path; event_id is
    nonnegative so the UBIGINT cast matches numpy's ``astype(uint64)``),
    key = ln(u)/(weight_bp/10000), top-k by key DESC with event_id
    tiebreak. Every float op is reproduced bit-for-bit: the UBIGINT→
    DOUBLE cast and each +,/,· are correctly rounded on both sides and
    DuckDB ``ln`` ≡ ``math.log`` (shared libm — pytest-asserted), which
    is exactly why the engine's final selection re-keys candidates with
    ``math.log`` rather than numpy's SIMD log."""
    f = (f"SELECT event_id, "
         f"CAST(FLOOR(value * 10000 + 0.5) AS BIGINT) AS weight_bp, "
         f"CAST(event_id AS UBIGINT) AS x FROM events "
         f"WHERE event_id IS NOT NULL AND value IS NOT NULL "
         f"AND FLOOR(value * 10000 + 0.5) > 0")
    hashed = splitmix64_select(f, "x", "h", ("event_id", "weight_bp"))
    return f"""
WITH keyed AS (
  SELECT event_id, weight_bp,
         ln((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0)
         / (CAST(weight_bp AS DOUBLE) / 10000.0) AS key
  FROM ({hashed}))
SELECT CAST(ROW_NUMBER() OVER (ORDER BY key DESC, event_id) AS BIGINT)
           AS rank,
       event_id, weight_bp
FROM keyed ORDER BY key DESC, event_id LIMIT {k}
"""


def ddsketch_quantiles_sql(vals_sql: str, quantiles: tuple,
                           alpha: float = 0.01,
                           group_cols: tuple[str, ...] = (),
                           qbp_col: str = "q_bp",
                           est_col: str = "est_value_bp",
                           finalize: str = "fold_bp",
                           n_col: str | None = None,
                           q_keys: tuple | None = None) -> str:
    """Single-statement derivation of a DDSketch quantile read — the
    ESTIMATE itself, rebuilt from raw values: bucket key =
    ceil(ln(v)/ln(γ)) (sign-mirrored for negatives, zero counter),
    per-bucket counts, nearest-rank pick at GREATEST(1, ceil(q·n)) in
    ascending value order (negatives by key desc, zero, positives by
    key asc), midpoint 2γ^k/(γ+1). Bit-parity with ``sketches/
    ddsketch.py``: per-bucket int64 counts are merge-order exact, ln
    and pow are shared-libm (math.log/math.pow ≡ DuckDB ln/power —
    the sketch recomputes boundary keys and scalar midpoints with
    glibc for exactly this reason), γ is emitted as its repr literal
    (round-trips to the identical double), and every remaining op is
    correctly-rounded IEEE on both sides.

    ``vals_sql`` must yield ``group_cols + (v,)`` with v DOUBLE and
    no NULLs. ``finalize``: 'fold_bp' → floor(est·10⁴+0.5) (the shared
    fold), 'half_up' → floor(est+0.5) (whole-bp inputs). ``n_col``
    optionally emits the per-group total count column; ``q_keys``
    overrides the emitted quantile-key integers (default q·10⁴)."""
    g = (1.0 + float(alpha)) / (1.0 - float(alpha))
    gl = f"CAST({g!r} AS DOUBLE)"
    grp = "".join(f"{c}, " for c in group_cols)
    part = ("PARTITION BY " + ", ".join(group_cols)) if group_cols else ""
    keys = (q_keys if q_keys is not None
            else tuple(int(round(q * 10000)) for q in quantiles))
    qvals = ", ".join(
        f"({k}, CAST({q!r} AS DOUBLE))" for k, q in zip(keys, quantiles))
    fin = ("CAST(FLOOR(est * 10000 + 0.5) AS BIGINT)"
           if finalize == "fold_bp" else "CAST(FLOOR(est + 0.5) AS BIGINT)")
    part_q = ("PARTITION BY " + grp + f"qs.{qbp_col}").rstrip(", ")
    grp_e = "".join(f"ests.{c}, " for c in group_cols)
    qbp_e = f"ests.{qbp_col}, "
    if n_col:
        ncol_sel = f", ns.n_total AS {n_col}"
        if group_cols:
            on = " AND ".join(f"ests.{c} = ns.{c}" for c in group_cols)
            ns_join = f" JOIN ns ON {on}"
        else:
            ns_join = " CROSS JOIN ns"
    else:
        ncol_sel, ns_join = "", ""
    return f"""
WITH qs({qbp_col}, q) AS (VALUES {qvals}),
vals AS ({vals_sql}),
buckets AS (
  SELECT {grp}CASE WHEN v > 0 THEN 1 WHEN v < 0 THEN -1 ELSE 0 END AS side,
         CASE WHEN v = 0 THEN 0
              ELSE CAST(CEIL(ln(ABS(v)) / ln({gl})) AS BIGINT) END AS key,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM vals GROUP BY ALL),
ordered AS (
  SELECT {grp}side, key, c,
         SUM(c) OVER ({part} ORDER BY side ASC,
                      CASE WHEN side = -1 THEN -key ELSE key END ASC) AS cum,
         SUM(c) OVER ({part}) AS n
  FROM buckets),
picks AS (
  SELECT {grp}qs.{qbp_col} AS {qbp_col}, side, key,
         ROW_NUMBER() OVER ({part_q}
             ORDER BY side ASC,
                      CASE WHEN side = -1 THEN -key ELSE key END ASC) AS rn
  FROM ordered CROSS JOIN qs
  WHERE cum >= GREATEST(1, CAST(CEIL(qs.q * CAST(n AS DOUBLE)) AS BIGINT))),
ests AS (
  SELECT {grp}{qbp_col}, side, key,
         CASE WHEN side = 0 THEN 0.0
              ELSE side * (2.0 * power({gl}, key) / ({gl} + 1.0)) END AS est
  FROM picks WHERE rn = 1),
ns AS (SELECT {grp}CAST(SUM(c) AS BIGINT) AS n_total FROM buckets
       GROUP BY ALL)
SELECT {grp_e}{qbp_e}{fin} AS {est_col}{ncol_sel} FROM ests{ns_join}
"""


def value_quantiles_dd_sql(alpha: float = 0.01) -> str:
    """Derivation of ``q_value_quantiles_dd`` (global DDSketch
    quantiles of events.value, bp-folded)."""
    return ddsketch_quantiles_sql(
        "SELECT CAST(value AS DOUBLE) AS v FROM events "
        "WHERE value IS NOT NULL",
        (0.01, 0.25, 0.5, 0.75, 0.99), alpha=alpha)


def type_value_quantiles_dd_sql(alpha: float = 0.01) -> str:
    """Derivation of ``q_type_value_quantiles_dd`` (per-event-type
    grouped DDSketch quantiles — one O(KB) bucket map per type in the
    engine, one GROUP BY here)."""
    return ddsketch_quantiles_sql(
        "SELECT event_type, CAST(value AS DOUBLE) AS v FROM events "
        "WHERE value IS NOT NULL",
        (0.01, 0.25, 0.5, 0.75, 0.99), alpha=alpha,
        group_cols=("event_type",), n_col="n_values")


_RULE_CONF_STREAM_SQL = """
SELECT CAST(conf_bp AS DOUBLE) AS v FROM (
  WITH t AS (SELECT DISTINCT 'conv-' || CAST(user_id AS VARCHAR) AS conv_id,
                    event_type || '=k' || regexp_extract(props, '[0-9]+')
                        AS item FROM events),
  s1 AS (SELECT item, COUNT(*) AS support FROM t GROUP BY item),
  p AS (SELECT a.item AS item_a, b.item AS item_b, COUNT(*) AS support_ab
        FROM t a JOIN t b ON a.conv_id = b.conv_id AND a.item < b.item
        GROUP BY a.item, b.item),
  d AS (SELECT item_a AS antecedent, item_b AS consequent, support_ab FROM p
        UNION ALL SELECT item_b, item_a, support_ab FROM p)
  SELECT (10000 * d.support_ab) // s.support AS conf_bp
  FROM d JOIN s1 s ON d.antecedent = s.item)
"""


def rule_conf_quantiles_sql(alpha: float = 0.01,
                            pcts: tuple = (25, 50, 75, 90, 99)) -> str:
    """Derivation of ``q_rule_conf_quantiles``: the conf_bp stream is
    the verified ``rules_conf`` derivation (both-direction integer
    confidences over the conv transactions), fed through the DDSketch
    quantile read — the same composition the engine runs (supports →
    conf rows → grouped bucket counts → nearest-rank pick)."""
    return ddsketch_quantiles_sql(
        _RULE_CONF_STREAM_SQL, tuple(p / 100 for p in pcts), alpha=alpha,
        qbp_col="q_pct", est_col="est_conf_bp", finalize="half_up",
        q_keys=pcts)


def _simhash_sigs_cte(seed: int = 3) -> str:
    """CTE body ``sigs(doc_id, simhash)`` — 64-bit SimHash per document
    rebuilt from raw text: Python ``str.split()`` tokenization restated
    as regexp_split on ``\\s+`` with empty edges filtered (whitespace-
    only/empty text keeps the single empty token, matching
    ``(t or '').split() or ['']``), per-token
    mix_with_seed(hash_strings_poly(tok), seed), per-bit ±1 majority
    over token occurrences, bit j set iff the signed sum is > 0.
    Integer-exact end to end (HUGEINT bit reassembly)."""
    const = _splitmix64_int(seed)  # the mix_with_seed fold constant
    docs = ("SELECT doc_id, COALESCE(text, '') AS text FROM documents")
    toks = (f"SELECT doc_id, CASE WHEN len(tk) = 0 THEN [''] ELSE tk END "
            f"AS tk FROM (SELECT doc_id, list_filter("
            f"regexp_split_to_array(text, '\\s+'), x -> x <> '') AS tk "
            f"FROM ({docs}))")
    tok = f"SELECT doc_id, unnest(tk) AS token FROM ({toks})"
    ph = polyhash_select(tok, "token", "h0", ("doc_id",))
    mixed_in = (f"SELECT doc_id, xor(h0, CAST({const} AS UBIGINT)) AS y "
                f"FROM ({ph})")
    h = splitmix64_select(mixed_in, "y", "h", ("doc_id",))
    return f"""sigs AS (
  SELECT doc_id,
         CAST(CAST(SUM(CASE WHEN s > 0
                            THEN CAST(power(2.0, j) AS HUGEINT)
                            ELSE 0 END) AS HUGEINT) % {P64} AS UBIGINT)
             AS simhash
  FROM (
    SELECT doc_id, j,
           SUM(CASE WHEN (h >> j) & 1 = 1 THEN 1 ELSE -1 END) AS s
    FROM ({h}) CROSS JOIN (SELECT unnest(range(64)) AS j)
    GROUP BY doc_id, j)
  GROUP BY doc_id)"""


def simhash_bands_sql(seed: int = 3) -> str:
    """Single-statement derivation of ``q_simhash_bands``: the SimHash
    signature and its 4×16-bit band buckets rebuilt from raw document
    text (see ``_simhash_sigs_cte``)."""
    bands = ", ".join(
        f"CAST((simhash >> {16 * b}) & 65535 AS BIGINT) AS sim_band{b}"
        for b in range(4))
    return f"""
WITH {_simhash_sigs_cte(seed)}
SELECT doc_id, simhash, {bands} FROM sigs
"""


def simhash_dups_sql(max_hamming: int = 3, seed: int = 3) -> str:
    """Single-statement derivation of ``q_simhash_dups``: near-dup
    pairs at Hamming ≤ {max_hamming}. The engine's banded candidate
    generation is RECALL-COMPLETE here by pigeonhole (≤3 differing
    bits cannot touch all four 16-bit bands), so the oracle can skip
    the bands and verify every pair directly: bit_count(xor) over the
    rebuilt signatures."""
    return f"""
WITH {_simhash_sigs_cte(seed)}
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
ORDER BY id_a, id_b
"""


def crosscorpus_dedup_sql(fpr: float = 0.001, seed: int = 11,
                          max_hashes: int = 32) -> str:
    """Single-statement derivation of ``q_crosscorpus_dedup`` — the
    Bloom-mode kept/dropped counts themselves, false positives
    included: rebuild the reference filter from the even-doc_id corpus
    (n = reference row count; m₀ = ceil(−n·ln(fpr)/ln²2), k =
    half-even round(m₀/n·ln2), m = m₀ rounded up to a 64-bit word
    multiple — shared-libm, matching ``BloomFilter.for_capacity`` +
    the constructor's word rounding), set bits pos_i = splitmix64(h ⊕ S_i)
    mod m for the poly text hash h and the precomputed seed constants
    S_i = splitmix64(seed·2654435761 + i), then probe EVERY document:
    dropped iff all k of its positions are set. ``max_hashes`` bounds
    the static seed VALUES list (k ≈ ln2·m/n ≈ 10 at fpr 1e-3; the
    i < k join ignores the rest)."""
    seeds = ", ".join(
        f"({i}, CAST({_splitmix64_int(seed * 2654435761 + i)} AS UBIGINT))"
        for i in range(max_hashes))
    refh = polyhash_select(
        "SELECT text AS s FROM documents WHERE doc_id % 2 = 0", "s", "h")
    allh = polyhash_select(
        "SELECT doc_id, source, text AS s FROM documents", "s", "h",
        ("doc_id", "source"))
    refmix = splitmix64_select(
        "SELECT sd.i AS i, xor(r.h, sd.s) AS y "
        "FROM refh r CROSS JOIN seeds sd", "y", "mx", ("i",))
    candmix = splitmix64_select(
        "SELECT a.doc_id AS doc_id, a.source AS source, sd.i AS i, "
        "xor(a.h, sd.s) AS y FROM allh a CROSS JOIN seeds sd",
        "y", "mx", ("doc_id", "source", "i"))
    return f"""
WITH seeds(i, s) AS (VALUES {seeds}),
refh AS ({refh}),
allh AS ({allh}),
geom AS (
  SELECT GREATEST(n, 1) AS n,
         CAST(CEIL((-CAST(GREATEST(n, 1) AS DOUBLE))
                   * ln(CAST({fpr!r} AS DOUBLE))
                   / (ln(CAST(2.0 AS DOUBLE)) * ln(CAST(2.0 AS DOUBLE))))
              AS BIGINT) AS m0
  FROM (SELECT COUNT(*) AS n FROM refh)),
geok AS (
  SELECT n,
         CASE WHEN m0 % 64 = 0 THEN m0 ELSE (m0 // 64 + 1) * 64 END AS m,
         GREATEST(1, CAST(CASE
      WHEN kf - FLOOR(kf) > 0.5 THEN FLOOR(kf) + 1
      WHEN kf - FLOOR(kf) < 0.5 THEN FLOOR(kf)
      ELSE FLOOR(kf) + CAST(FLOOR(kf) AS BIGINT) % 2 END AS BIGINT)) AS k
  FROM (SELECT n, m0, CAST(m0 AS DOUBLE) / CAST(n AS DOUBLE)
                      * ln(CAST(2.0 AS DOUBLE)) AS kf FROM geom)),
refbits AS (
  SELECT DISTINCT CAST(q.mx % CAST(g.m AS UBIGINT) AS BIGINT) AS pos
  FROM ({refmix}) q CROSS JOIN geok g WHERE q.i < g.k),
probe AS (
  SELECT c.doc_id, c.source, COUNT(rb.pos) = ANY_VALUE(g.k) AS seen
  FROM ({candmix}) c
  CROSS JOIN geok g
  LEFT JOIN refbits rb
    ON rb.pos = CAST(c.mx % CAST(g.m AS UBIGINT) AS BIGINT)
  WHERE c.i < g.k
  GROUP BY c.doc_id, c.source)
SELECT source,
       CAST(SUM(CASE WHEN seen THEN 0 ELSE 1 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN seen THEN 1 ELSE 0 END) AS BIGINT) AS n_dropped
FROM probe GROUP BY source
"""


def rule_audience_overlap_sql(n_rules: int = 5) -> str:
    """Single-statement derivation of ``q_rule_audience_overlap``: the
    Theta sketches run in the EXACT regime at gate scale (k = 2¹⁶ ≫
    distinct conversations, trim never fires), so the sketch-algebra
    overlaps equal exact set counts — restated here as the composed
    mine→rank→audience chain: supports (min_support 2, both-direction
    rules), cscore_bp = fold((cov+conf)/2) ranking with (antecedent,
    consequent) tie-break (the verified ``greedy_round1`` fragment),
    top-{n_rules} audiences by conv⊇{{ant,cons}} joins, pairwise
    intersection / union / folded Jaccard over rules with NON-EMPTY
    audiences (empty audiences produce no sketch in the engine and no
    cardinality row here)."""
    return f"""
WITH t AS (SELECT DISTINCT 'conv-' || CAST(user_id AS VARCHAR) AS conv_id,
                  event_type || '=k' || regexp_extract(props, '[0-9]+')
                      AS item
           FROM events),
n AS (SELECT COUNT(DISTINCT conv_id) AS n_tx FROM t),
s1 AS (SELECT item, COUNT(*) AS c FROM t GROUP BY item
       HAVING COUNT(*) >= 2),
p2 AS (SELECT a.item AS ia, b.item AS ib, COUNT(*) AS c
       FROM t a JOIN t b ON a.conv_id = b.conv_id AND a.item < b.item
       GROUP BY a.item, b.item HAVING COUNT(*) >= 2),
rules AS (SELECT ia AS antecedent, ib AS consequent,
                 p2.c AS support_ab, sa.c AS support_a
          FROM p2 JOIN s1 sa ON sa.item = p2.ia
          UNION ALL
          SELECT ib, ia, p2.c, sb.c
          FROM p2 JOIN s1 sb ON sb.item = p2.ib),
scored AS (SELECT antecedent, consequent,
                  CAST(FLOOR(((CAST(support_ab AS DOUBLE)
                               / CAST(n_tx AS DOUBLE)
                               + CAST(support_ab AS DOUBLE)
                               / CAST(support_a AS DOUBLE)) / 2.0)
                             * 10000.0 + 0.5) AS BIGINT) AS cscore_bp
           FROM rules, n),
top_rules AS (SELECT ROW_NUMBER() OVER (ORDER BY cscore_bp DESC,
                                        antecedent, consequent) - 1 AS rid,
                     antecedent, consequent,
                     antecedent || '|' || consequent AS label
              FROM scored
              ORDER BY cscore_bp DESC, antecedent, consequent
              LIMIT {n_rules}),
aud AS (SELECT r.rid, r.label, t1.conv_id
        FROM top_rules r
        JOIN t t1 ON t1.item = r.antecedent
        JOIN t t2 ON t2.conv_id = t1.conv_id AND t2.item = r.consequent),
card AS (SELECT rid, ANY_VALUE(label) AS label, COUNT(*) AS nc
         FROM aud GROUP BY rid),
inter AS (SELECT a.rid AS ra, b.rid AS rb, COUNT(*) AS ni
          FROM aud a JOIN aud b ON a.conv_id = b.conv_id AND a.rid < b.rid
          GROUP BY a.rid, b.rid)
SELECT ca.label AS rule_a, cb.label AS rule_b,
       CAST(COALESCE(i.ni, 0) AS BIGINT) AS common_convs,
       CAST(ca.nc + cb.nc - COALESCE(i.ni, 0) AS BIGINT) AS union_convs,
       CAST(FLOOR((CAST(COALESCE(i.ni, 0) AS DOUBLE)
                   / (ca.nc + cb.nc - COALESCE(i.ni, 0)))
                  * 10000.0 + 0.5) AS BIGINT) AS jaccard_bp
FROM card ca JOIN card cb ON ca.rid < cb.rid
LEFT JOIN inter i ON i.ra = ca.rid AND i.rb = cb.rid
"""


def greedy_policy_sql(max_rounds: int = 10, coverage_target: float = 0.9,
                      min_support: int = 2, max_convs: int = 4096) -> str:
    """Single-statement derivation of ``q_greedy_policy`` — the FULL
    multi-round greedy set-cover, not just round 1: a recursive CTE
    carries the covered-conversation set as a {max_convs}-bit BITSTRING
    (conversations dense-ranked once; ``bitstring_agg`` needs constant
    bounds, so the universe is fixed and an ``error()`` guard refuses
    corpora past it), and each round re-scores every candidate rule
    with two ``bit_count`` ops — remaining pair support ``|bsp ∧ ¬cov|``
    and antecedent support ``|bsa ∧ ¬cov|`` — takes the cscore argmax
    with ``best_rule``'s lexicographic tie-break (the constraint-count
    key is constant for 1→1 rules), appends the round row (including a
    terminal newly=0 round, matching the engine's append-then-break),
    and recurses while matches were made, rounds remain, and coverage
    sits below {coverage_target}. cscore's denominator is the round's
    REMAINING count, exactly like ``greedy_cover_ray`` passing
    ``uncovered`` into ``rules_from_supports``.

    Both sides remove covered conversations exactly: the engine drops
    every conversation whose items hold the picked rule's full itemset,
    and the CTE sets exactly those conversations' bits, so the two
    share one removal semantics and no assumption is left."""
    nb = max_convs
    return f"""
WITH RECURSIVE
t AS (SELECT DISTINCT 'conv-' || CAST(user_id AS VARCHAR) AS conv_id,
             event_type || '=k' || regexp_extract(props, '[0-9]+') AS item
      FROM events),
convs AS (SELECT conv_id,
                 CAST(ROW_NUMBER() OVER (ORDER BY conv_id) - 1 AS INTEGER)
                     AS cid
          FROM (SELECT DISTINCT conv_id FROM t)),
n0 AS (SELECT CASE WHEN COUNT(*) > {nb}
            THEN CAST(error('greedy_policy_sql: conv universe exceeds {nb}')
                 AS BIGINT)
            ELSE COUNT(*) END AS n FROM convs),
ti AS (SELECT item, cid FROM t JOIN convs USING (conv_id)),
pairs_bs AS (SELECT a.item AS ia, b.item AS ib,
                    bitstring_agg(a.cid, 0, {nb - 1}) AS bs
             FROM ti a JOIN ti b ON a.cid = b.cid AND a.item < b.item
             GROUP BY a.item, b.item),
singles_bs AS (SELECT item, bitstring_agg(cid, 0, {nb - 1}) AS bs
               FROM ti GROUP BY item),
cand AS (
  SELECT p.ia AS antecedent, p.ib AS consequent, p.bs AS bsp, sa.bs AS bsa
  FROM pairs_bs p JOIN singles_bs sa ON sa.item = p.ia
  UNION ALL
  SELECT p.ib, p.ia, p.bs, sb.bs
  FROM pairs_bs p JOIN singles_bs sb ON sb.item = p.ib),
g AS (
  SELECT -1 AS round, bitstring('0', {nb}) AS covered, TRUE AS cont,
         CAST(NULL AS VARCHAR) AS antecedent,
         CAST(NULL AS VARCHAR) AS consequent,
         CAST(NULL AS BIGINT) AS support_ab,
         CAST(NULL AS BIGINT) AS covered_this_round,
         CAST(NULL AS BIGINT) AS uncovered_before,
         CAST(NULL AS BIGINT) AS cscore_bp
  UNION ALL
  SELECT g.round + 1, g.covered | p.bsp, p.newly > 0,
         p.antecedent, p.consequent, p.support_ab, p.newly, p.unc,
         p.cscore_bp
  FROM g, LATERAL (
    WITH u AS (SELECT (SELECT n FROM n0) - bit_count(g.covered) AS unc),
    best AS (
      SELECT antecedent, consequent, ab, bsp,
             (CAST(ab AS DOUBLE) / CAST(u.unc AS DOUBLE)
              + CAST(ab AS DOUBLE) / CAST(sa AS DOUBLE)) / 2.0 AS cscore,
             u.unc AS unc
      FROM (SELECT antecedent, consequent,
                   bit_count(bsp & ~g.covered) AS ab,
                   bit_count(bsa & ~g.covered) AS sa, bsp
            FROM cand) c, u
      WHERE ab >= {min_support} AND sa >= {min_support}
      ORDER BY cscore DESC, antecedent, consequent LIMIT 1)
    SELECT b.antecedent, b.consequent, CAST(b.ab AS BIGINT) AS support_ab,
           CAST(bit_count(b.bsp & ~g.covered) AS BIGINT) AS newly,
           CAST(b.unc AS BIGINT) AS unc,
           CAST(FLOOR(b.cscore * 10000.0 + 0.5) AS BIGINT) AS cscore_bp,
           b.bsp AS bsp
    FROM best b, u, n0
    WHERE u.unc > 0
      AND NOT (1.0 - CAST(u.unc AS DOUBLE) / CAST(n0.n AS DOUBLE)
               >= CAST({coverage_target!r} AS DOUBLE))
  ) p
  WHERE g.cont AND g.round + 1 < {max_rounds}
)
SELECT round, antecedent, consequent, support_ab, covered_this_round,
       uncovered_before, cscore_bp
FROM g WHERE round >= 0 ORDER BY round
"""


def kmeans_centroids_sql(k: int = 8, iters: int = 5) -> str:
    """Single-statement derivation of ``q_kmeans_centroids`` — ALL
    {iters} Lloyd iterations, not a one-step twin: the engine's k-means
    is integer-exact end to end (bp-folded vectors, int64 argmin score
    ‖c‖² − 2x·c with lowest-cluster tie-break, centroid update
    floor(Σ/n + 0.5), empty clusters keep their previous centroid), so
    a recursive CTE carrying the (cluster, dim, val) centroid list
    reproduces every pass bit-for-bit. Seeding is the k smallest
    (splitmix64(vec_id), vec_id) rows — the same SQL hash chain as the
    CMS oracles. The Σ→DOUBLE centroid division is exact below 2⁵³
    (gate corpora sit orders of magnitude under it)."""
    hashed = splitmix64_select(
        "SELECT vec_id, CAST(vec_id AS UBIGINT) AS y FROM embeddings "
        "WHERE vec_id IS NOT NULL", "y", "h", ("vec_id",))
    assign = """
      SELECT vec_id, cluster_id FROM (
        SELECT x.vec_id, c.cluster_id,
               ROW_NUMBER() OVER (PARTITION BY x.vec_id
                   ORDER BY SUM(c.val * c.val - 2 * x.v * c.val),
                            c.cluster_id) AS rn
        FROM x JOIN {cent} c ON c.dim = x.dim
        GROUP BY x.vec_id, c.cluster_id)
      WHERE rn = 1"""
    return f"""
WITH RECURSIVE
x AS (SELECT vec_id, i.dim,
             CAST(FLOOR(CAST(embedding[i.dim + 1] AS DOUBLE) * 10000.0 + 0.5)
                  AS BIGINT) AS v
      FROM (SELECT vec_id, embedding FROM embeddings
            WHERE vec_id IS NOT NULL) e,
           LATERAL (SELECT unnest(range(len(e.embedding))) AS dim) i),
sel AS (SELECT vec_id,
               ROW_NUMBER() OVER (ORDER BY h, vec_id) - 1 AS cluster_id
        FROM ({hashed}) ORDER BY h, vec_id LIMIT {k}),
cent0 AS (SELECT list(struct_pack(cluster_id := s.cluster_id,
                                  dim := x.dim, val := x.v)) AS cents
          FROM sel s JOIN x ON x.vec_id = s.vec_id),
g AS (
  SELECT 0 AS iter, cents FROM cent0
  UNION ALL
  SELECT g.iter + 1, p.cents
  FROM g, LATERAL (
    WITH cent AS (SELECT u.cluster_id, u.dim, u.val
                  FROM (SELECT unnest(g.cents) AS u)),
    assign AS ({assign.format(cent="cent")}),
    stats AS (
      SELECT a.cluster_id, x.dim, SUM(x.v) AS s,
             COUNT(DISTINCT x.vec_id) AS n
      FROM assign a JOIN x ON x.vec_id = a.vec_id
      GROUP BY a.cluster_id, x.dim)
    SELECT list(struct_pack(cluster_id := c.cluster_id, dim := c.dim,
                 val := CASE WHEN st.n IS NOT NULL AND st.n > 0
                        THEN CAST(FLOOR(CAST(st.s AS DOUBLE)
                                        / CAST(st.n AS DOUBLE) + 0.5)
                             AS BIGINT)
                        ELSE c.val END)) AS cents
    FROM cent c
    LEFT JOIN stats st ON st.cluster_id = c.cluster_id AND st.dim = c.dim
  ) p
  WHERE g.iter < {iters}
),
final_c AS (SELECT u.cluster_id, u.dim, u.val
            FROM (SELECT unnest(cents) AS u FROM g WHERE iter = {iters})),
final_assign AS ({assign.format(cent="final_c")}),
sizes AS (SELECT cluster_id, COUNT(*) AS n FROM final_assign
          GROUP BY cluster_id)
SELECT f.cluster_id, f.dim, CAST(f.val AS BIGINT) AS centroid_bp,
       CAST(COALESCE(z.n, 0) AS BIGINT) AS n_points
FROM final_c f LEFT JOIN sizes z ON z.cluster_id = f.cluster_id
ORDER BY f.cluster_id, f.dim
"""


def _hll_estimate_scalar(keys_sql: str, p: int = 14) -> str:
    """A scalar SELECT evaluating the HLL estimate (int, half-even
    rounded) over ``keys_sql`` — a SELECT yielding one VARCHAR column
    ``k`` of (not necessarily distinct) keys. The same register/clz/
    exact-harmonic-sum/shared-libm machinery as
    ``hll_role_convs_sql``, without the GROUP BY dimension."""
    m = 1 << p
    cap = 64 - p + 1
    assert cap <= 63
    alpha = (f"(0.7213 / (1.0 + 1.079 / {float(m)!r}))" if m > 64 else
             {16: "0.673", 32: "0.697", 64: "0.709"}[m])
    hashed = polyhash_select(f"SELECT DISTINCT k FROM ({keys_sql})",
                             "k", "h")
    pieces = (f"SELECT CAST(h >> {64 - p} AS BIGINT) AS idx, "
              f"{_mulmod64('h', m)} AS rest FROM ({hashed})")
    clz = clz64_select(pieces, "rest", "nz", ("idx",))
    est = (f"CASE WHEN raw <= {2.5 * m!r} AND zeros > 0 "
           f"THEN {float(m)!r} * ln({float(m)!r} / zeros) ELSE raw END")
    return f"""
SELECT CAST(CASE WHEN est - FLOOR(est) > 0.5 THEN FLOOR(est) + 1
            WHEN est - FLOOR(est) < 0.5 THEN FLOOR(est)
            ELSE FLOOR(est) + CAST(FLOOR(est) AS BIGINT) % 2
       END AS BIGINT)
FROM (SELECT {est} AS est FROM (
  SELECT zeros,
         {alpha} * {float(m)!r} * {float(m)!r}
         / (CAST(s // 4294967296 AS DOUBLE) * power(2.0, -32)
            + CAST(s % 4294967296 AS DOUBLE) * power(2.0, -64)) AS raw
  FROM (SELECT st + zeros * CAST(power(2.0, 64) AS HUGEINT) AS s, zeros
        FROM (SELECT COALESCE(SUM(CAST(power(2.0, 64 - rho) AS HUGEINT)),
                              CAST(0 AS HUGEINT)) AS st,
                     CAST({m} - COUNT(*) AS HUGEINT) AS zeros
              FROM (SELECT idx, MAX(LEAST(nz + 1, {cap})) AS rho
                    FROM ({clz}) GROUP BY idx)))))
"""


def windowed_sketch_sweep_events_sql(
        windows: tuple = (("2024-01-02", "2024-01-07"),
                          ("2024-01-04", "2024-01-09"),
                          ("2024-01-06", "2024-01-11")),
        p: int = 14) -> str:
    """Single-statement derivation of ``q_windowed_sketch_sweep_events``
    — both window estimates themselves: the HLL distinct-transaction
    count (poly conv-day keys, exact register rebuild per window —
    valid because day-merge register max ≡ whole-window max) and the
    merged top-k head (exact regime: capacity ≫ distinct itemsets so
    per-day SpaceSaving retains everything and merge is exact
    addition; head tie-break = count desc, itemset asc, matching
    ``SpaceSaving.top``)."""
    parts = []
    for lo, hi in windows:
        tw = (f"SELECT DISTINCT 'conv-' || CAST(user_id AS VARCHAR) || '@' "
              f"|| strftime(ts, '%Y-%m-%d') AS txk, "
              f"event_type || '=k' || regexp_extract(props, '[0-9]+') AS item "
              f"FROM events WHERE ts >= TIMESTAMP '{lo}' "
              f"AND ts < TIMESTAMP '{hi}'")
        hll = _hll_estimate_scalar(
            f"SELECT txk AS k FROM ({tw})", p=p)
        top = f"""
SELECT itemset, cnt FROM (
  SELECT item AS itemset, COUNT(*) AS cnt FROM ({tw}) GROUP BY item
  UNION ALL
  SELECT a.item || '|' || b.item AS itemset, COUNT(*) AS cnt
  FROM ({tw}) a JOIN ({tw}) b ON a.txk = b.txk AND a.item < b.item
  GROUP BY a.item, b.item)
ORDER BY cnt DESC, itemset LIMIT 1"""
        parts.append(f"""
SELECT '{lo}' AS window_start,
       ({hll}) AS est_transactions,
       (SELECT itemset FROM ({top})) AS top_itemset,
       (SELECT CAST(cnt AS BIGINT) FROM ({top})) AS top_support_est""")
    return "\nUNION ALL\n".join(parts) + "\nORDER BY window_start"


def _hll_grouped_est_select(keys_sql: str, group_cols: tuple[str, ...],
                            p: int = 14) -> str:
    """A SELECT computing ``group_cols + (est DOUBLE)`` — the RAW HLL
    estimate (pre-rounding) per group over ``keys_sql`` (must yield
    ``group_cols + (k VARCHAR)``, keys may repeat). Same machinery as
    ``hll_role_convs_sql``; factored so sketch-algebra oracles can
    combine raw estimates before rounding."""
    m = 1 << p
    cap = 64 - p + 1
    assert cap <= 63
    alpha = (f"(0.7213 / (1.0 + 1.079 / {float(m)!r}))" if m > 64 else
             {16: "0.673", 32: "0.697", 64: "0.709"}[m])
    grp = ", ".join(group_cols)
    hashed = polyhash_select(
        f"SELECT DISTINCT {grp}, k FROM ({keys_sql})", "k", "h",
        group_cols)
    pieces = (f"SELECT {grp}, CAST(h >> {64 - p} AS BIGINT) AS idx, "
              f"{_mulmod64('h', m)} AS rest FROM ({hashed})")
    clz = clz64_select(pieces, "rest", "nz", group_cols + ("idx",))
    est = (f"CASE WHEN raw <= {2.5 * m!r} AND zeros > 0 "
           f"THEN {float(m)!r} * ln({float(m)!r} / zeros) ELSE raw END")
    return f"""
SELECT {grp}, {est} AS est FROM (
  SELECT {grp}, zeros,
         {alpha} * {float(m)!r} * {float(m)!r}
         / (CAST(s // 4294967296 AS DOUBLE) * power(2.0, -32)
            + CAST(s % 4294967296 AS DOUBLE) * power(2.0, -64)) AS raw
  FROM (SELECT {grp}, st + zeros * CAST(power(2.0, 64) AS HUGEINT) AS s,
               zeros
        FROM (SELECT {grp},
                     SUM(CAST(power(2.0, 64 - rho) AS HUGEINT)) AS st,
                     CAST({m} - COUNT(*) AS HUGEINT) AS zeros
              FROM (SELECT {grp}, idx, MAX(LEAST(nz + 1, {cap})) AS rho
                    FROM ({clz}) GROUP BY ALL)
              GROUP BY ALL)))"""


_HALF_EVEN = ("CAST(CASE WHEN {x} - FLOOR({x}) > 0.5 THEN FLOOR({x}) + 1 "
              "WHEN {x} - FLOOR({x}) < 0.5 THEN FLOOR({x}) "
              "ELSE FLOOR({x}) + CAST(FLOOR({x}) AS BIGINT) % 2 "
              "END AS BIGINT)")


def hll_role_union_sql(p: int = 14) -> str:
    """Single-statement derivation of ``q_hll_role_union`` — HLL SET
    ALGEBRA, both estimates themselves: the pair-union estimate equals
    the estimate over registers rebuilt from the UNION of the two
    roles' conv-key sets (register max of merges ≡ merge of register
    maxes), and the intersection is the engine's exact op sequence
    GREATEST(0, est_a + est_b − est_union), both half-even rounded."""
    keys = ("SELECT DISTINCT event_type AS role, "
            "'conv-' || CAST(user_id AS VARCHAR) AS k FROM events")
    per_role = _hll_grouped_est_select(keys, ("role",), p=p)
    pair_keys = ("SELECT p.ra AS ra, p.rb AS rb, t.k AS k "
                 "FROM (SELECT a.role AS ra, b.role AS rb "
                 "      FROM (SELECT DISTINCT event_type AS role "
                 "            FROM events) a "
                 "      JOIN (SELECT DISTINCT event_type AS role "
                 "            FROM events) b ON a.role < b.role) p "
                 f"JOIN ({keys}) t ON t.role = p.ra OR t.role = p.rb")
    per_pair = _hll_grouped_est_select(pair_keys, ("ra", "rb"), p=p)
    r_u = _HALF_EVEN.format(x="u.est")
    r_i = _HALF_EVEN.format(
        x="GREATEST(CAST(0.0 AS DOUBLE), ea.est + eb.est - u.est)")
    return f"""
WITH per_role AS ({per_role}),
per_pair AS ({per_pair})
SELECT u.ra AS role_a, u.rb AS role_b,
       {r_u} AS est_union,
       {r_i} AS est_intersection
FROM per_pair u
JOIN per_role ea ON ea.role = u.ra
JOIN per_role eb ON eb.role = u.rb
"""


def weighted_sample_by_type_sql(k: int = 20) -> str:
    """Single-statement derivation of ``q_weighted_sample_by_type`` —
    the stratified A-ES selection: identical per-row key as
    ``weighted_sample_sql`` (splitmix u, shared-libm ln, weight_bp
    denominator), ranked per event_type with the event_id tiebreak."""
    f = (f"SELECT event_id, event_type, "
         f"CAST(FLOOR(value * 10000 + 0.5) AS BIGINT) AS weight_bp, "
         f"CAST(event_id AS UBIGINT) AS x FROM events "
         f"WHERE event_id IS NOT NULL AND event_type IS NOT NULL "
         f"AND value IS NOT NULL AND FLOOR(value * 10000 + 0.5) > 0")
    hashed = splitmix64_select(f, "x", "h",
                               ("event_id", "event_type", "weight_bp"))
    return f"""
WITH keyed AS (
  SELECT event_id, event_type, weight_bp,
         ln((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0)
         / (CAST(weight_bp AS DOUBLE) / 10000.0) AS key
  FROM ({hashed})),
ranked AS (
  SELECT event_type,
         CAST(ROW_NUMBER() OVER (PARTITION BY event_type
                                 ORDER BY key DESC, event_id) AS BIGINT)
             AS rank,
         event_id, weight_bp
  FROM keyed)
SELECT event_type, rank, event_id, weight_bp
FROM ranked WHERE rank <= {k}
ORDER BY event_type, rank
"""
