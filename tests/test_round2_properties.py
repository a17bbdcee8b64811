"""Property tests for the round-2 primitives (hypothesis).

Covers what the oracle gate can't randomize: the mixed-radix universe
decode against itertools.product over arbitrary domains, the SQL/numpy
sampling-predicate parity over arbitrary id ranges (including the
HUGEINT-overflow region), and the shared itemset counting kernel (and
the greedy's per-round use of it) against a brute-force recount.
"""

import itertools

import duckdb
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st


def _domain_strategy():
    value = st.text(alphabet="abcxyz01", min_size=1, max_size=4)
    field = st.sampled_from(["f1", "f2", "f3"])
    return st.dictionaries(
        field,
        st.lists(value, min_size=1, max_size=4, unique=True),
        min_size=1, max_size=3)


class TestUniverseDecode:
    @settings(max_examples=25, deadline=None)
    @given(domains=_domain_strategy(), data=st.data())
    def test_generated_union_matches_product_set(self, ray_session,
                                                 domains, data):
        from associationabacminer_ray.pipelines.universe import (
            count_allowed_universe,
            count_allowed_universe_pyset,
            statement_product_size,
        )

        # 1-2 statements, each constraining a random subset of fields to
        # random sub-lists of their domains
        stmts = []
        for _ in range(data.draw(st.integers(1, 2))):
            stmt = {}
            for f, dom in domains.items():
                if data.draw(st.booleans()):
                    k = data.draw(st.integers(0, len(dom)))
                    stmt[f] = sorted(dom)[:k]
            stmts.append(stmt)
        res = count_allowed_universe(stmts, domains, mode="exact")
        assert res["u_pos"] == count_allowed_universe_pyset(stmts, domains)
        assert res["per_statement"] == [
            statement_product_size(s, domains) for s in stmts]

    @settings(max_examples=25, deadline=None)
    @given(domains=_domain_strategy())
    def test_product_size_matches_itertools(self, domains):
        from associationabacminer_ray.pipelines.universe import (
            statement_product_size,
        )

        fields = sorted(domains)
        n = sum(1 for _ in itertools.product(*[domains[f] for f in fields]))
        assert statement_product_size({}, domains) == n


class TestSamplerParity:
    @settings(max_examples=10, deadline=None)
    @given(ids=st.lists(
        st.integers(min_value=0, max_value=2**62), min_size=1, max_size=200))
    def test_numpy_matches_duckdb_hugeint(self, ids):
        """The shared predicate must agree between numpy uint64 and the
        SQL HUGEINT form for ANY non-negative id — including ids past
        the BIGINT-overflow region the round-2 fix addressed."""
        from associationabacminer_ray.pipelines.analytics import (
            hash_sample_mask,
        )

        got = hash_sample_mask(np.array(ids, dtype=np.uint64))
        con = duckdb.connect()
        con.execute("CREATE TABLE t (event_id UBIGINT)")
        con.executemany("INSERT INTO t VALUES (?)", [(i,) for i in ids])
        want = con.execute(
            "SELECT (CAST(event_id % 4294967296 AS HUGEINT) * 2654435761) "
            "% 4294967296 < 429496729 FROM t").df().iloc[:, 0].to_numpy()
        np.testing.assert_array_equal(got, want)


def _brute_supports(transactions: dict, max_k: int, cap: int | None = None,
                    turns: dict | None = None) -> dict:
    """{itemset: (count, turn_count)} by itertools over each transaction's
    sorted distinct items; over ``cap`` items → 1-itemsets only."""
    from associationabacminer_ray.stages.transactionize import ITEM_SEP

    want: dict = {}
    for conv, items in transactions.items():
        items = sorted(set(items))
        top = max_k if cap is None or len(items) <= cap else 1
        for k in range(1, min(top, len(items)) + 1):
            for combo in itertools.combinations(items, k):
                key = ITEM_SEP.join(combo)
                c, t = want.get(key, (0, 0))
                want[key] = (c + 1, t + (turns[conv] if turns else 0))
    return want


class TestExpandTxItems:
    @settings(max_examples=30, deadline=None)
    @given(tx=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                 min_size=1, max_size=4, unique=True).map(
                     lambda xs: ",".join(sorted(xs))),
        min_size=1, max_size=30),
        max_k=st.integers(1, 3))
    def test_matches_bruteforce_counts(self, tx, max_k):
        """The greedy's per-round combiner over ``items`` strings."""
        from associationabacminer_ray.pipelines.rules import _batch_itemset_partials

        got = _batch_itemset_partials(pd.Series(tx), max_k)
        want = _brute_supports({i: t.split(",") for i, t in enumerate(tx)}, max_k)
        assert dict(zip(got["itemset"], got["count"])) == {
            key: c for key, (c, _) in want.items()}
        assert (got["k"] == got["itemset"].str.count("\\|") + 1).all()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 7),
                                   st.sampled_from(["b=x", "a=y", "c=z", "a=x",
                                                    "NONE=NONE", "d=w"])),
                         max_size=60),
           vocab_order=st.permutations(["b=x", "a=y", "c=z", "a=x",
                                        "NONE=NONE", "d=w"]),
           max_k=st.integers(1, 3),
           cap=st.sampled_from([None, 1, 2, 3, 64]))
    def test_kernel_matches_bruteforce(self, rows, vocab_order, max_k, cap):
        """The shared code-space kernel: duplicate (conv, item) rows, an
        unsorted vocabulary, empty input, k ≤ 3, transactions over the
        cap (singles only) and exact turn counts."""
        from associationabacminer_ray.stages.transactionize import (
            itemset_partials_from_codes,
        )

        vocab = np.array(vocab_order, dtype=object)
        code = {item: i for i, item in enumerate(vocab_order)}
        conv_codes = np.array([c for c, _ in rows], dtype=np.int64)
        item_codes = np.array([code[i] for _, i in rows], dtype=np.int64)
        got = itemset_partials_from_codes(conv_codes, item_codes, vocab,
                                          max_k=max_k, max_transaction_items=cap,
                                          with_turn_counts=True)
        transactions: dict = {}
        turns: dict = {}
        for c, item in rows:
            transactions.setdefault(c, []).append(item)
            turns[c] = turns.get(c, 0) + 1
        want = _brute_supports(transactions, max_k, cap, turns)
        assert list(got.columns) == ["itemset", "k", "count", "turn_count"]
        assert dict(zip(got["itemset"], zip(got["count"], got["turn_count"]))) == want
        assert (got["k"] == got["itemset"].str.count("\\|") + 1).all()
        # rows sorted by (k, items)
        keys = [(k, tuple(s.split("|"))) for k, s in zip(got["k"], got["itemset"])]
        assert keys == sorted(keys)

    def test_kernel_rejects_overflowing_codes(self):
        import pytest

        from associationabacminer_ray.stages.transactionize import (
            itemset_partials_from_codes,
        )

        vocab = np.empty(1 << 16, dtype=object)
        with pytest.raises(ValueError, match="overflows int64"):
            itemset_partials_from_codes(np.zeros(1, np.int64), np.zeros(1, np.int64),
                                        vocab, max_k=4)
