"""Deterministic vectorized hashing + small shared helpers.

All synthetic-data generation and sampling in this repo is driven by
counter-based hashing (splitmix64) so results are bit-identical across
runs, chunk sizes, and parallelism levels (FIXTURES.md §5 determinism
requirement; mirrors the reference's seeded-sampling determinism note,
SURVEY.md §2.7).
"""

from __future__ import annotations

import numpy as np
import ray

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays (public domain
    algorithm, Steele et al.)."""
    with np.errstate(over="ignore"):
        z = (x.astype(_U64) + _U64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def _strip_schema_meta(t):
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def read_parquet_nm(paths, **kwargs):
    """``ray.data.read_parquet`` that strips schema-level metadata.

    Parquet written by pandas carries a ``b'pandas'`` schema-metadata
    blob; pyarrow schemas with schema-level metadata are UNHASHABLE
    (``hash(schema)`` -> "unhashable type: 'dict'"), which defeats Ray
    Data's schema dedup at every reduce task ("Failed to hash the
    schemas" log spam) and can block operator fusion.

    The strip happens AT THE SOURCE: an explicit metadata-free
    ``schema=`` makes the read stage itself emit clean blocks (a
    downstream strip map still leaves the warning firing inside the
    fused ReadParquet stage). Falls back to the post-read strip map if
    the schema can't be derived up front.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    first = paths[0] if isinstance(paths, (list, tuple)) else paths
    try:
        full = pq.read_schema(first).remove_metadata()
        cols = kwargs.get("columns")
        schema = pa.schema([full.field(c) for c in cols]) if cols else full
        return ray.data.read_parquet(paths, schema=schema, **kwargs)
    except Exception:
        return ray.data.read_parquet(paths, **kwargs).map_batches(
            _strip_schema_meta, batch_format="pyarrow", batch_size=None)


def vec_matrix(batch, vec_col: str):
    """list<float> column -> (n, d) float64 matrix via zero-copy flatten
    (no per-row Python lists). Shared by the similarity and dedup ops.

    Rejects null / ragged rows explicitly: ``flatten()`` silently drops
    null list entries, which would misalign every following row if the
    flattened size happened to still divide (ADVICE.md)."""
    import pyarrow as pa
    col = batch.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError(f"{vec_col!r} contains {col.null_count} null "
                         f"embeddings; drop or impute them upstream")
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(batch)
    if n and flat.size % n:
        raise ValueError(f"{vec_col!r} rows have varying dimensions "
                         f"({flat.size} values / {n} rows)")
    return flat.reshape(n, -1)


def hash_u64(*streams: "np.ndarray | int") -> np.ndarray:
    """Combine integer streams (broadcastable arrays / scalars) into one
    deterministic uint64 stream."""
    acc = None
    with np.errstate(over="ignore"):
        for s in streams:
            a = np.asarray(s, dtype=np.uint64)
            h = splitmix64(a)
            acc = h if acc is None else splitmix64(acc ^ (h + _U64(0x9E3779B97F4A7C15)))
    return acc


def uniform01(*streams) -> np.ndarray:
    """Deterministic uniform [0,1) doubles from integer streams."""
    return (hash_u64(*streams) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def reduce_by_keys(t, keys: list, vals: list, reduce: str = "sum"):
    """One row per distinct ``keys`` tuple of table ``t``, keys
    ascending, with each ``vals`` column summed (``reduce="min"``: its
    minimum): one lexsort, then one reduceat per value column."""
    import pyarrow as pa

    if t.num_rows == 0:
        return t.select(list(keys) + list(vals))
    red = np.add.reduceat if reduce == "sum" else np.minimum.reduceat
    ks = [t.column(k).to_numpy() for k in keys]
    order = np.lexsort(ks[::-1])
    ks = [k[order] for k in ks]
    change = np.zeros(len(order), dtype=bool)
    change[0] = True
    for k in ks:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    cols = {name: k[starts] for name, k in zip(keys, ks)}
    for v in vals:
        cols[v] = red(t.column(v).to_numpy()[order], starts)
    return pa.table(cols)


def agg_by_int_keys(ds, keys: list, val: str, out_val: str,
                    reduce: str = "sum"):
    """groupby(int keys).sum/min(val) as a hash exchange with a map-side
    combiner and one ``reduce_by_keys`` kernel per group.

    Ray's native ``groupby(keys).aggregate(...)`` materializes every
    group individually (measured 6.2 s vs 0.7 s on 383k rows / 382k
    groups at 32 cpus), so any high-cardinality aggregate should go
    through this instead: per-block partials shrink the exchange to one
    row per (key, block), and the reduce stays whole-group vectorized.
    Deterministic for integer-valued data; float sums can differ in
    reduction order (round on output where an oracle compares).
    Returns Dataset(keys..., out_val)."""
    def pre(t):
        return reduce_by_keys(t, keys, [val], reduce) \
            .rename_columns(list(keys) + [out_val])

    return hash_exchange([(ds, pre)], keys,
                         lambda t: reduce_by_keys(t, keys, [out_val], reduce))


def block_refs(ds) -> list:
    """Materialize ``ds``; the object refs of its non-empty blocks, in
    block order (metadata-only check, blocks stay in the object store).

    Ray 2.49 ``map_batches`` skips the UDF on empty input blocks and
    forwards schema-LESS empty blocks, which no column access survives."""
    return [ref for bundle in ds.materialize().iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def drop_empty_blocks(ds):
    """Rebuild ``ds`` without empty blocks. pyarrow's join fails with
    "No match ... for key field reference" when a schema-less empty
    block lands in a hash partition, so call this on any map output that
    feeds a join. Returns None if every block is empty."""
    import ray.data

    refs = block_refs(ds)
    return ray.data.from_arrow_refs(refs) if refs else None


@ray.remote
def _split_task(split, G: int, block):
    """``split(block) -> (table, group ids in [0, G))``; the table's rows
    cut into G slices by group, each slice in row order. One stable
    sort of the ids and zero-copy slices; Ray ships only each slice's
    bytes."""
    t, g = split(block)
    g = np.asarray(g, dtype=np.int64)
    ends = np.cumsum(np.bincount(g, minlength=G))
    t = t.take(np.argsort(g, kind="stable"))
    starts = np.r_[0, ends[:-1]]
    out = tuple(t.slice(int(a), int(b - a)) for a, b in zip(starts, ends))
    return out if G > 1 else out[0]


@ray.remote
def _merge_task(merge, g: int, *slices):
    return merge(g, list(slices))


def exchange(blocks: list, split, merge, G: int) -> list:
    """The one task-level shuffle: every block is split into G groups
    by ``split`` in one task (``num_returns=G``), then one task per
    group runs ``merge(g, slices)`` over its slices, one per block in
    block order (empty slices keep the split table's schema). Returns
    the G merge results' object refs, in group order.

    Replaces Ray Data's ``groupby().map_groups``, a SORT-based shuffle
    with two barriers and 30-120 ms of fixed cost per execution
    (measured 46 s for the 38M-row band table of a 600k-doc corpus at
    4 cpus, 56% of the whole clean_corpus wall): here there is no sort
    and one exchange, with the same co-location guarantee (rows of one
    group meet in one merge task). ``blocks`` are object refs or plain
    arguments (a file path) that ``split`` turns into a table."""
    parts = [_split_task.options(num_returns=G).remote(split, G, b)
             for b in blocks]
    if G == 1:
        parts = [[p] for p in parts]
    return [_merge_task.remote(merge, g, *[p[g] for p in parts])
            for g in range(G)]


def n_groups(n_blocks: int) -> int:
    """The group count of a ``hash_exchange`` over ``n_blocks``
    non-empty input blocks: 4 x the cluster's CPUs, and no more than
    ``n_blocks``, so the exchange ships at most ``n_blocks**2`` slices
    and a merge holds at least a block's worth of rows, as Ray Data's
    sort shuffle (one output block per input block) did. Each merge is
    exact per key, so results never depend on it."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(4 * cpus, n_blocks))


@ray.remote
def _num_rows(t) -> int:
    return t.num_rows


def hash_exchange(inputs: list, keys: list, merge):
    """``merge(table)`` once per hash group of the int64 ``keys``
    columns, over ``n_groups`` groups of ``exchange``: rows with equal
    keys meet in one call. ``inputs`` is a list of ``(Dataset, pre)``;
    ``pre`` (a pyarrow batch map, or None) runs on its Dataset first,
    and every ``pre`` output has the same schema. Returns the Dataset of
    the non-empty merge outputs (one block if all are empty).

    Without input rows ``merge`` runs once on an empty table. Ray Data
    skips a map on empty blocks and leaves them without a schema, so
    that table is ``pre`` applied to each input's own empty schema; if
    no input has a schema, the empty mapped input is returned as it
    is."""
    import pyarrow as pa
    import ray.data
    from ray.data.block import BlockAccessor

    staged = [(ds.map_batches(pre, batch_format="pyarrow") if pre else ds)
              .materialize() for ds, pre in inputs]
    blocks = [r for m in staged for r in block_refs(m)]
    if not blocks:
        empties = []
        for ds, pre in inputs:
            sch = ds.schema()
            if sch is not None:
                e = pa.schema(list(zip(sch.names, sch.types))).empty_table()
                empties.append(pre(e) if pre else e)
        if not empties:
            return staged[0]
        return ray.data.from_arrow(merge(pa.concat_tables(empties)))
    G = n_groups(len(blocks))

    def split(block):
        # a block without ``pre`` may be a pandas frame
        t = BlockAccessor.for_block(block).to_arrow()
        return t, hash_u64(*[t.column(k).to_numpy().astype(np.uint64)
                             for k in keys]) % np.uint64(G)

    def merge_slices(g: int, subs: list):
        return merge(pa.concat_tables(subs).combine_chunks())

    # a function argument is pickled once per task: put each one once
    refs = exchange(blocks, ray.put(split), ray.put(merge_slices), G)
    # few keys leave most groups empty: keep only groups with rows, or
    # every downstream map runs a task per empty block
    rows = ray.get([_num_rows.remote(r) for r in refs])
    return ray.data.from_arrow_refs(
        [r for r, n in zip(refs, rows) if n] or refs[:1])
