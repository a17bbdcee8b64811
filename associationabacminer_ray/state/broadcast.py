"""Broadcast helper: ship a small side (here a Bloom filter) into tasks
via the object store ONCE.

The reference reloads per-job Mongo docs in every worker process
(``src/model/param_universe_dao.py:13-16``); the Ray idiom is
``ray.put`` on the driver + ``ray.get`` once per actor/task closure —
never re-shipped per batch (SURVEY.md §2.3 T2/T3).
``bloom_filter_stage`` turns such a Bloom-filter reference into a
``map_batches`` predicate.
"""

from __future__ import annotations

from typing import Callable

import ray


def bloom_filter_stage(bloom_ref: "ray.ObjectRef", key_col: str,
                       keep_members: bool = False) -> Callable:
    """Build a map_batches fn filtering rows by Bloom membership of
    hash(key_col) — the covered-entry anti-join (J2) as a broadcast
    predicate. ``keep_members=False`` keeps NON-members (anti-join)."""
    import numpy as np
    import pandas as pd

    from ..functions.hashing import hash_any

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        bloom = ray.get(bloom_ref)
        mask = bloom.contains_hashed(hash_any(batch[key_col]))
        if not keep_members:
            mask = ~mask
        return batch[np.asarray(mask)]

    return fn
