"""Turn normalizer — the ConfigurableEventNormalizer transplant (M2).

The reference's core normalizer (``src/model/ConfigurableEventNormalizer.
py:81-169``) recodes/bins each event: eventTime → weekday/weekend +
hour-bin (:91-101), sourceIP → coarse classes (:103-120), eventName →
bigram-prefix bin via regex + CRUD verb class (:121-138), composite
``service:op`` key (:142), 512-char length flagging
(``event_flattner.py:67-68``), missing valid_keys → 'NONE' (:157-160).

Transplant per SURVEY §7.0, one vectorized ``map_batches`` over Arrow →
pandas batches (config captured in the constructor — stateless closure
state, T1):

- ``ts``        → ``weekday`` (0-6), ``is_weekend``, ``hour_bin``
  (configurable buckets, default the reference's 6×4h bins)
- ``role/tool`` → 'NONE'-filled + composite ``item`` = role=tool
- ``tool``      → ``tool_bin``: bigram-prefix analog — first two
  '_'-separated tokens of the tool name (tool_17 → tool; query_db_x →
  query_db), mirroring the eventName bigram-prefix regex bin
- ``text``      → ``text_len``, ``is_long_text`` (>512, the reference's
  flag), ``is_empty_text``
- row preservation: never drops/reorders rows and never touches
  ``text`` content — the per-turn text-equality invariant
  (BASELINE.md) is asserted over this stage in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

DEFAULT_HOUR_BINS = (0, 4, 8, 12, 16, 20, 24)  # the 6×4h bins (:39-56)

# CRUD verb classing (ConfigurableEventNormalizer.py:57-60, 128-138):
# the reference maps eventName verb prefixes onto read/write classes;
# transplanted onto tool-name first tokens.
CRUD_VERBS = {
    "read": {"get", "list", "describe", "query", "search", "read", "head",
             "lookup", "fetch", "scan"},
    "create": {"create", "put", "add", "insert", "upload", "register", "write"},
    "update": {"update", "modify", "set", "patch", "attach", "enable",
               "disable", "tag"},
    "delete": {"delete", "remove", "terminate", "revoke", "detach", "drop"},
}
_VERB_TO_CLASS = {v: c for c, vs in CRUD_VERBS.items() for v in vs}


class NormalizeTurns:
    def __init__(self, hour_bins: tuple[int, ...] = DEFAULT_HOUR_BINS,
                 long_text_chars: int = 512, make_item: bool = True):
        self.hour_bins = np.asarray(hour_bins)
        self.long_text_chars = long_text_chars
        self.make_item = make_item
        self.hour_labels = np.array(
            [f"h{a:02d}-{b:02d}" for a, b in zip(hour_bins[:-1], hour_bins[1:])],
            dtype=object)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        ts = pd.to_datetime(out["ts"])
        out["weekday"] = ts.dt.weekday.astype(np.int32)
        out["is_weekend"] = (out["weekday"] >= 5).astype(bool)
        hour = ts.dt.hour.to_numpy()
        idx = np.clip(np.searchsorted(self.hour_bins, hour, side="right") - 1,
                      0, len(self.hour_labels) - 1)
        out["hour_bin"] = self.hour_labels[idx]

        role = out["role"].fillna("NONE").to_numpy()
        tool = out["tool"].fillna("NONE").to_numpy()
        role = np.where(role == "", "NONE", role)
        tool = np.where(tool == "", "NONE", tool)
        out["role"] = role
        out["tool"] = tool
        # bigram-prefix bin analog (ConfigurableEventNormalizer.py:121-127)
        tool_s = pd.Series(tool, index=out.index)
        first_tok = tool_s.str.split("_").str[0].str.lower()
        out["tool_bin"] = tool_s.str.split("_").str[:2].str.join("_")
        # bin-of-bin (bin_bin_userAgent analog, :171-185): first token only
        out["tool_bin2"] = first_tok
        # CRUD class from the verb prefix (:128-138); 'other' when unmapped
        out["action_class"] = first_tok.map(_VERB_TO_CLASS).fillna("other")
        if self.make_item:
            out["item"] = pd.Series(role, index=out.index) + "=" + pd.Series(
                tool, index=out.index)

        text = out["text"].fillna("")
        tlen = text.str.len().astype(np.int64)
        out["text_len"] = tlen
        out["is_long_text"] = (tlen > self.long_text_chars).astype(bool)
        out["is_empty_text"] = (tlen == 0).astype(bool)
        return out
