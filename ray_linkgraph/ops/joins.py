"""Distributed temporal joins Ray Data lacks natively: as-of join and
band (range) join.

The reference has no general join operator (SURVEY.md §2.8 — its joins
are merge-joins over id-sorted partition files); these are the two
join shapes a training-data/event pipeline needs that neither the
reference nor Ray Data provides, each one ``_util.hash_exchange`` over
both sides.

Partitioning assumptions (documented per the north-star scale notes):

* ``asof_join`` hash-partitions BOTH sides by the ``by`` key, so all
  rows of one key meet in one group task. Skew bound = rows per
  exchange group (``_util.n_groups``: 4x the cluster CPU count, at most
  one group per input block, so group size shrinks as the cluster
  grows); the per-group work is one vectorized merge-order
  forward-fill (pure numpy — results are width-invariant).
* ``band_join_count`` range-partitions by time bucket of width
  ``band_us`` and replicates each right row to its 3 adjacent buckets
  (classic band-join replication), so a left row's whole ±band window
  is co-located with it. Replication factor is exactly 3 regardless of
  band width; group size = events per band window — pick ``band_us``
  (or pre-aggregate the right side) so one window fits a worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .._util import hash_exchange


def _ts_us(col) -> np.ndarray:
    """timestamp (any unit) or int64 column -> int64 microseconds.
    Non-us timestamp units are normalized FIRST so band widths given in
    microseconds always mean microseconds (ADVICE.md: a timestamp[ns]
    column would otherwise be interpreted at 1000x the band width)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        if col.type.unit != "us":
            col = col.cast(pa.timestamp("us", tz=col.type.tz))
        return col.cast(pa.int64()).to_numpy()
    return col.to_numpy().astype(np.int64)


def asof_join(left_ds, right_ds, by: str = "user_id", on: str = "ts",
              right_val: str = "event_id", out_col: str = "prior_event_id",
              unmatched: int = -1):
    """For every left row, the ``right_val`` of the LATEST right row of
    the same ``by`` key with ``right.on <= left.on`` (backward as-of).

    Tie rule (deterministic): among right rows sharing the maximal
    ``on``, the one with the largest ``right_val`` wins — the right
    side is pre-deduplicated to max(right_val) per (by, on), which is
    exactly what a SQL oracle's ``ORDER BY ts DESC, val DESC LIMIT 1``
    (or an ASOF JOIN over the deduped side) computes.

    Key requirements (ADVICE.md): ``by`` and ``right_val`` must be
    INTEGER columns (``by`` is hashed with a uint64 kernel and
    ``right_val`` is carried as int64 with ``unmatched`` as the
    sentinel). Hash a string key to int64 upstream (e.g. with
    ``pyarrow.compute`` hash kernels or ``_util.hash_u64`` over a
    dictionary-encoded id) before calling.

    Returns Dataset(left columns..., ``out_col``:int64) with
    ``unmatched`` as the sentinel where no right row qualifies (keeps
    the output schema non-nullable so value hashing is stable).
    """
    lschema = left_ds.schema()
    left_cols = list(lschema.names)
    left_types = dict(zip(lschema.names, lschema.types))

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c) for c in left_cols}
        cols["_rv"] = pa.array(np.full(len(t), unmatched, dtype=np.int64))
        cols["_side"] = pa.array(np.ones(len(t), dtype=np.int64))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        # same schema (and column order) as tag_left so union blocks
        # unify. Left-only columns get type-preserving fillers (never
        # read: group() emits only left rows, gathered zero-copy with
        # Arrow take — no pandas round-trip anywhere).
        def filler(c):
            typ = left_types[c]
            if pa.types.is_integer(typ):
                return pa.array(np.zeros(len(t), dtype=np.int64)).cast(typ)
            return pa.nulls(len(t), type=typ)

        cols = {c: (t.column(c) if c in (by, on) else filler(c))
                for c in left_cols}
        cols["_rv"] = t.column(right_val).cast(pa.int64())
        cols["_side"] = pa.array(np.zeros(len(t), dtype=np.int64))
        return pa.table(cols)

    def group(t: pa.Table) -> pa.Table:
        """Backward as-of inside one key bucket, pure numpy: sort the
        union of (deduped) right and left rows by (by, on, side) with
        right first on ties, then a running-maximum forward fill gives
        every left row its latest preceding right row; a by-equality
        check invalidates fills that leaked across key boundaries.
        Int64-exact throughout (no float positions, ADVICE.md r3)."""
        side = t.column("_side").to_numpy()
        Li = np.flatnonzero(side == 1)
        out = {c: t.column(c).take(pa.array(Li)) for c in left_cols}
        n = len(Li)
        Ri = np.flatnonzero(side == 0)
        by_v = t.column(by).to_numpy()
        on_v = _ts_us(t.column(on))
        rv_out = np.full(n, unmatched, dtype=np.int64)
        if n and len(Ri):
            # deterministic tie-break: keep max _rv per right (by, on)
            r_by, r_on = by_v[Ri], on_v[Ri]
            r_rv = t.column("_rv").to_numpy()[Ri]
            o = np.lexsort((r_rv, r_on, r_by))
            rb, ro, rv = r_by[o], r_on[o], r_rv[o]
            last = np.r_[(rb[1:] != rb[:-1]) | (ro[1:] != ro[:-1]), True]
            rb, ro, rv = rb[last], ro[last], rv[last]
            m = len(rb)
            # merged order: right precedes left at equal (by, on)
            # (allow_exact_matches semantics)
            ab = np.r_[rb, by_v[Li]]
            ao = np.r_[ro, on_v[Li]]
            aside = np.r_[np.zeros(m, np.int8), np.ones(n, np.int8)]
            so = np.lexsort((aside, ao, ab))
            ab_s, aside_s = ab[so], aside[so]
            rmark = np.where(aside_s == 0,
                             np.arange(m + n, dtype=np.int64), -1)
            lastr = np.maximum.accumulate(rmark)
            lpos = np.flatnonzero(aside_s == 1)
            cand = lastr[lpos]
            safe = np.where(cand >= 0, cand, 0)
            valid = (cand >= 0) & (ab_s[safe] == ab_s[lpos])
            rv_all = np.r_[rv, np.zeros(n, dtype=np.int64)][so]
            li = so[lpos] - m          # position within the Li gather
            rv_out[li] = np.where(valid, rv_all[safe], unmatched)
        out[out_col] = pa.array(rv_out)
        return pa.table(out)

    return hash_exchange([(left_ds, tag_left), (right_ds, tag_right)],
                         [by], group)


def band_join_count(left_ds, right_ds, on: str = "ts",
                    band_us: int = 300_000_000,
                    left_key: str = "event_id",
                    out_col: str = "n_in_band"):
    """For every left row, COUNT of right rows with
    ``|right.on - left.on| <= band_us`` (inclusive band/range join,
    aggregated — the join output itself would be quadratic in dense
    windows, so the operator folds it to a count per left row).

    Right rows are replicated to their home time bucket ±1 (bucket
    width = band_us, so a left row's band spans at most its own and
    the two adjacent buckets); each left row is evaluated in exactly
    one bucket, so no double counting. Buckets meet in the groups of
    one hash exchange (one group per time bucket would cost a Python
    call per bucket), and the per-group count is ONE pair of
    composite-key searchsorteds over all of the group's buckets at
    once: rows within bucket b carry offsets ts − (b−1)·bw ∈ [0, 3·bw),
    so key = b·2bw + ts + bw is monotone in (bucket, ts) and per-row
    band bounds never leave their own bucket's key range.
    """
    bw = np.int64(band_us)

    def rep_right(t: pa.Table) -> pa.Table:
        ts = _ts_us(t.column(on))
        home = ts // bw
        buckets = np.concatenate([home - 1, home, home + 1])
        return pa.table({
            "_b": pa.array(buckets, type=pa.int64()),
            "_ts": pa.array(np.tile(ts, 3), type=pa.int64()),
            "_side": pa.array(np.zeros(3 * len(ts), dtype=np.int64)),
            left_key: pa.array(np.full(3 * len(ts), -1, dtype=np.int64)),
        })

    def tag_left(t: pa.Table) -> pa.Table:
        ts = _ts_us(t.column(on))
        b = ts // bw
        return pa.table({
            "_b": pa.array(b, type=pa.int64()),
            "_ts": pa.array(ts, type=pa.int64()),
            "_side": pa.array(np.ones(len(ts), dtype=np.int64)),
            left_key: t.column(left_key),
        })

    def comp(b: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return b * (2 * bw) + ts + bw

    def group(t: pa.Table) -> pa.Table:
        side = t.column("_side").to_numpy()
        b = t.column("_b").to_numpy()
        ts = t.column("_ts").to_numpy()
        L = side == 1
        if not L.any():
            return pa.table({left_key: pa.array([], pa.int64()),
                             out_col: pa.array([], pa.int64())})
        lkey = t.column(left_key).to_numpy()[L]
        rkeys = np.sort(comp(b[~L], ts[~L]))
        lb, lts = b[L], ts[L]
        n = (np.searchsorted(rkeys, comp(lb, lts + bw), side="right")
             - np.searchsorted(rkeys, comp(lb, lts - bw), side="left"))
        return pa.table({left_key: pa.array(lkey),
                         out_col: pa.array(n.astype(np.int64))})

    return hash_exchange([(left_ds, tag_left), (right_ds, rep_right)],
                         ["_b"], group)
