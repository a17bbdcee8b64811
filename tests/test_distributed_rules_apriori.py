"""Distributed rule scoring and partitioned k=3 supports."""

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.pipelines.itemsets import (
    exact_itemset_supports,
    itemset_supports_partitioned,
)
from associationabacminer_ray.pipelines.rules import (
    rules_from_supports,
    rules_from_supports_ray,
)
from associationabacminer_ray.sources.transcripts import write_synth_transcripts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("apriori_corpus")
    return write_synth_transcripts(str(d), n_convs=1000, shards=4)


def test_distributed_rules_match_driver(ray_session, corpus):
    import ray.data as rd

    sup = exact_itemset_supports(rd.read_parquet(corpus), max_k=2,
                                 num_buckets=8, min_support=2).to_pandas()
    want = rules_from_supports(sup, n_transactions=1000, min_support=2)
    got = rules_from_supports_ray(sup, n_transactions=1000,
                                  min_support=2).to_pandas()
    key = ["antecedent", "consequent"]
    want_s = want.sort_values(key).reset_index(drop=True)
    got_s = got.sort_values(key).reset_index(drop=True)[want_s.columns]
    pd.testing.assert_frame_equal(got_s, want_s, check_dtype=False)


def test_apriori_triples_match_brute_force(ray_session, corpus):
    import ray.data as rd

    min_support = 5
    # k = 3 on the shuffle-free partitioned path against the shuffle path
    # (the independent itertools oracle is test_supports_k3_match_oracle)
    partitioned = itemset_supports_partitioned(
        corpus, mode="exact", max_k=3, min_support=min_support).to_pandas()
    brute = exact_itemset_supports(rd.read_parquet(corpus), max_k=3,
                                   num_buckets=8, min_support=min_support,
                                   max_transaction_items=64).to_pandas()
    for k in (1, 2, 3):
        a = partitioned[partitioned["k"] == k].set_index("itemset")["support"].sort_index()
        b = brute[brute["k"] == k].set_index("itemset")["support"].sort_index()
        pd.testing.assert_series_equal(a, b, check_names=False, obj=f"k={k}")
    assert (partitioned["k"] == 3).any()  # triples actually exist in the corpus
