"""Deterministic stratified sampling over any keyed table.

The reference's only sampling is the per-edge counter-hash draw in
closeness/betweenness (ClosenessCentrality.sample, SURVEY.md §2.7);
this generalizes the same splitmix64 contract to corpus curation:
every row's keep/drop decision is a pure function of (seed, id), so
the sample is reproducible across runs, chunk sizes and cluster
shapes, and the exact decision is expressible in SQL (the oracle
replays the identical integer hash chain in HUGEINT arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .._util import hash_u64, splitmix64

SAMPLE_MOD = 100


def stratified_hash_sample(ds, rates: dict[str, int], seed: int,
                           id_col: str = "doc_id",
                           stratum_col: str = "lang"):
    """Keep a row iff ``hash_u64(seed, id) % 100 < rates[stratum]``
    (percent per stratum; unlisted strata are dropped). Pure
    map_batches filter — no shuffle, no driver state."""
    rate_items = sorted(rates.items())

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.uint64)
        h = (hash_u64(np.uint64(seed), ids)
             % np.uint64(SAMPLE_MOD)).astype(np.int64)
        strata = batch.column(stratum_col).to_numpy()
        thresh = np.zeros(len(batch), dtype=np.int64)
        for s, r in rate_items:
            thresh[strata == s] = r
        return batch.filter(pa.array(h < thresh))

    return ds.map_batches(keep, batch_format="pyarrow")


def sql_stratified_sample(rates: dict[str, int], seed: int,
                          table: str = "documents",
                          id_col: str = "doc_id",
                          stratum_col: str = "lang",
                          cols: str = "doc_id, lang") -> str:
    """DuckDB replica of the keep decision: hash_u64(seed, id) =
    splitmix64( splitmix64(seed) ^ (splitmix64(id) + G) ) with the
    seed-side splitmix64 constant-folded in Python. Reuses the
    stepwise-CTE splitmix expansion shared with the sampled
    betweenness oracle (tpch._sql_smx)."""
    from ..tpch import _sql_smx, _SM_G, _SM_M64

    h1 = int(splitmix64(np.array([seed], dtype=np.uint64))[0])
    case = " ".join(f"WHEN '{s}' THEN {r}"
                    for s, r in sorted(rates.items()))
    return f"""
WITH base AS (SELECT {cols} FROM {table}),
{_sql_smx(id_col, "s1", "base")},
mix AS MATERIALIZED (SELECT *,
    xor({h1}, (s1_out + {_SM_G}) % {_SM_M64}) AS z2 FROM s1d),
{_sql_smx("z2", "s2", "mix")}
SELECT {cols} FROM s2d
WHERE s2_out % {SAMPLE_MOD} < (CASE {stratum_col} {case} ELSE 0 END)
ORDER BY {id_col}"""
