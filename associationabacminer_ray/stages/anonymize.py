"""Anonymizer stage — the event_anonymizer transplant (M8/S8).

The reference rewrites events with consistent value → UUID / random-
octet substitutions held in per-process dicts
(``src/event_anonymizer.py:54-108``), so its pseudonyms are only
consistent within one process. Here the mapping is deterministic keyed
hashing: value → ``prefix-hex(hash(value ^ secret))``. It is consistent
across every task with NO shared state or shuffle; the same plaintext
always maps to the same pseudonym (per secret).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import hash_strings


class KeyedHashAnonymizer:
    """map_batches stage: replaces each configured column's values with
    deterministic keyed pseudonyms."""

    def __init__(self, columns: list[str], secret: int = 0x5EC237,
                 prefix: str = "anon"):
        self.columns = list(columns)
        self.secret = secret
        self.prefix = prefix

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        for col in self.columns:
            h = hash_strings(out[col].fillna(""), seed=self.secret)
            out[col] = np.array(
                [f"{self.prefix}-{v:016x}" for v in h], dtype=object)
        return out

