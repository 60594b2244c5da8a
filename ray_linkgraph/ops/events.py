"""Windowed / sessionized aggregation over the events stream table.

Ray Data has no event-time windowing; per the batch model (SURVEY.md
§2.11 — the reference is strictly batch too) windows are expressed as
grouped aggregates over one ``_util.hash_exchange``: tumbling windows
via a computed window id, sessions via per-user sorted gap analysis
inside each exchange group. Ordering assumption:
within a user's group the kernel sorts by ts itself, so input order
never matters.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .._util import hash_exchange, reduce_by_keys

US_PER_S = 1_000_000


def _combine_partials(events_ds, partial):
    """Combine the (user_id, window_id, value_sum, n) partials that
    ``partial`` makes of each events block -> (user_id, window_id,
    n_events, sum_value) with the 6-decimal rounding the oracles
    replicate.

    Hash exchange + one ``reduce_by_keys`` kernel per group instead of
    ``groupby(keys).aggregate(Sum)``: Ray's native aggregate builds
    each of the O(users × windows) groups individually (measured 6.2 s
    vs 0.7 s on 383k partial rows at 32 cpus) — the house kernel
    pattern keeps the reduce whole-group vectorized at any group
    count."""
    keys = ["user_id", "window_id"]

    def merge(t: pa.Table) -> pa.Table:
        r = reduce_by_keys(t, keys, ["n", "value_sum"])
        return pa.table({
            "user_id": r.column("user_id"),
            "window_id": r.column("window_id"),
            "n_events": r.column("n"),
            "sum_value": pa.array(np.round(
                r.column("value_sum").to_numpy(), 6), pa.float64()),
        })

    return hash_exchange([(events_ds, partial)], keys, merge)


def _partial_agg(t: pa.Table) -> pa.Table:
    return (pa.TableGroupBy(t, ["user_id", "window_id"])
            .aggregate([("value", "sum"), ("value", "count")])
            .rename_columns(["user_id", "window_id", "value_sum", "n"]))


def window_agg(events_ds, width_s: int = 3600):
    """-> Dataset(user_id, window_id, n_events, sum_value) — tumbling
    windows of width_s; window_id = floor(epoch_seconds / width_s).

    Map-side combiner: each batch pre-aggregates to (user, window)
    partials before the exchange, so the all-to-all shuffle moves one row
    per (user, window, block) instead of one per event. (Float addition
    order differs from a single-pass sum only below the 6-decimal
    rounding both the output and the oracle apply.)"""
    width_us = width_s * US_PER_S

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        return _partial_agg(pa.table({
            "user_id": batch.column("user_id"),
            "window_id": pa.array(ts // width_us, type=pa.int64()),
            "value": batch.column("value"),
        }))

    return _combine_partials(events_ds, partial)


def sliding_window_agg(events_ds, width_s: int = 3600,
                       slide_s: int = 900):
    """Hopping/sliding windows: window k covers
    [k*slide_s, k*slide_s + width_s); every event lands in
    width_s/slide_s windows. -> Dataset(user_id, window_id, n_events,
    sum_value), window_id = k.

    The expansion is vectorized (np.repeat over the batch, no Python
    per-row loop) and immediately pre-aggregated per batch, so the
    shuffle still moves (user, window, block) partials — the
    width/slide fan-out factor never crosses the exchange."""
    if width_s % slide_s:
        raise ValueError("width_s must be a multiple of slide_s")
    nwin = width_s // slide_s
    slide_us = slide_s * US_PER_S

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        k_hi = ts // slide_us                 # newest window holding ts
        off = np.arange(nwin, dtype=np.int64)
        return _partial_agg(pa.table({
            "user_id": np.repeat(batch.column("user_id").to_numpy(), nwin),
            "window_id": (k_hi[:, None] - off[None, :]).ravel(),
            "value": np.repeat(batch.column("value").to_numpy(), nwin),
        }))

    return _combine_partials(events_ds, partial)


def sessionize(events_ds, gap_s: int = 1800):
    """-> Dataset(user_id, n_sessions, n_events): sessions split when the
    gap between consecutive events of a user exceeds gap_s.

    ONE all-to-all: (user_id, ts) pairs are hash-partitioned by user
    over the groups of one hash exchange (``_util.n_groups``, NOT one
    group per user), and each group task sessionizes ALL of its users
    in a single lexsort + run-compression numpy pass (the house kernel
    pattern; no per-row or per-user Python anywhere). Replaces the r3
    sort-then-merge-partials design: the global sort was itself an
    exchange plus a sample pass, so this is strictly one less wide step
    at identical semantics (VERDICT r3 item 2). Group working set =
    events/``n_groups`` rows of two int64 columns (any group count
    gives identical results)."""
    gap_us = gap_s * US_PER_S

    def user_ts(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "ts": t.column("ts").cast(pa.int64())})

    def sessions_group(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy()
        ts = t.column("ts").to_numpy()
        if len(u) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_sessions": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64())})
        o = np.lexsort((ts, u))
        u, ts = u[o], ts[o]
        same = u[1:] == u[:-1]
        starts = np.r_[0, np.flatnonzero(~same) + 1]
        ends = np.r_[starts[1:], len(u)]
        brk = ((ts[1:] - ts[:-1] > gap_us) & same).astype(np.int64)
        cbrk = np.r_[0, np.cumsum(brk)]
        return pa.table({
            "user_id": pa.array(u[starts]),
            "n_sessions": pa.array(cbrk[ends - 1] - cbrk[starts] + 1),
            "n_events": pa.array(ends - starts),
        })

    return hash_exchange([(events_ds, user_ts)], ["user_id"],
                         sessions_group)
