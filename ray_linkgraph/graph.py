"""Distributed graph build: url dictionary encode + partitioned edge layout.

Reproduces WHAT the reference's input step computes — not how:

* **Dictionary encode** (url -> dense int64 v_id) is the analog of the
  reference's fixed-length id remap, supersteps -2/-1 with
  ``input.use_id_fixlength=true``
  (/root/reference/computer-core/.../compute/FileGraphPartition.java:243-370,
  orchestrated in WorkerService.execute:249-280). Ids are assigned in the
  reference's BytesId order — ``(byte_length, unsigned bytes)``
  (/root/reference/computer-core/.../graph/id/BytesId.java:224-233 via
  BytesUtil.compare, length-first) — so plain int64 ``min`` on v_ids
  reproduces reference min-Id semantics exactly (WCC components, LPA
  tie-breaks). See SURVEY.md §1.2.

* **Edge canonicalization** (drop self-loops, dedup multi-edges) is the
  analog of the reference's IdSet neighbor dedup
  (/root/reference/computer-algorithm/.../trianglecount/TriangleCount.java:74-85)
  and EdgeFrequency.SINGLE ingest.

* **Partitioned persistence** (one sorted edge file per partition +
  manifest) is the analog of the reference input-step partition files +
  info manifest (/root/reference/computer-core/.../compute/ComputeManager.java:90-184),
  and is what makes graph build resumable: a rerun with the same
  ``graph_dir`` reuses finished artifacts.

Scale notes: every wide step is a single Ray Data groupby shuffle keyed
by either the url range-bucket (dictionary, encode joins) or the dst/src
vertex partition (edge layout); nothing materializes the full dataset on
the driver. The dictionary join ships only the per-bucket dictionary
shard into each group task (range-bucketed merge join), never the whole
dictionary.
"""

from __future__ import annotations

import json
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ._util import ceil_div, _strip_schema_meta

SAMPLE_MOD = 64          # deterministic sample: splitmix64(fp(url)) % MOD == 0
SAMPLE_LIMIT = 200_000   # driver-side cap on boundary sample size
BROADCAST_DICT_MAX = 5_000_000   # urls; above this the dictionary join is
#                                  range-bucketed instead of broadcast


# ---------------------------------------------------------------------------
# id-order helpers: reference BytesId order == order of sort_key(url)
# ---------------------------------------------------------------------------

def sort_key(url: str) -> bytes:
    """Composite key whose plain bytes order equals the reference Id order
    (length-first, then unsigned lexicographic bytes)."""
    b = url.encode("utf-8")
    return len(b).to_bytes(4, "big") + b


def _sort_keys(urls) -> list[bytes]:
    return [sort_key(u) for u in urls]


def _key_array(url_col) -> pa.Array:
    """Vectorized sort_key over a string column: a binary array of
    4-byte big-endian length prefix + utf-8 bytes, built with Arrow
    kernels only (no per-url Python loop — this is the graph-build hot
    path flagged in round-1 VERDICT.md)."""
    import pyarrow.compute as pc
    u = (url_col.combine_chunks() if isinstance(url_col, pa.ChunkedArray)
         else url_col)
    lens = pc.binary_length(u).to_numpy().astype(">u4")
    prefix = pa.Array.from_buffers(
        pa.binary(4), len(lens), [None, pa.py_buffer(lens.tobytes())])
    return pc.binary_join_element_wise(
        prefix.cast(pa.binary()), u.cast(pa.binary()),
        pa.scalar(b"", type=pa.binary()))


def _assign_buckets(url_col, boundaries: list[bytes]) -> np.ndarray:
    """Range-bucket index per url (== searchsorted(boundaries, key,
    side='right')), as #boundaries vectorized Arrow compares."""
    import pyarrow.compute as pc
    n = (len(url_col.chunks[0]) if isinstance(url_col, pa.ChunkedArray)
         and url_col.num_chunks == 1 else len(url_col))
    b = np.zeros(n, dtype=np.int64)
    if not boundaries:
        return b
    keys = _key_array(url_col)
    for bd in boundaries:
        b += pc.greater_equal(
            keys, pa.scalar(bd, type=pa.binary())).to_numpy(
                zero_copy_only=False).astype(np.int64)
    return b


# ---------------------------------------------------------------------------
# graph handle
# ---------------------------------------------------------------------------

class Graph:
    """Handle over the on-disk graph artifacts in ``graph_dir``.

    Layout::

        graph_dir/meta.json                          V, P, bucket offsets, edge counts
        graph_dir/dict/bucket_{b:05d}.parquet        url, local_idx (sorted by Id order)
        graph_dir/edges_out/part_{p:05d}.parquet     src_id, dst_id[, weight] sorted, deduped
        graph_dir/edges_both/part_{p:05d}.parquet    symmetrized variant (built on demand)
    """

    def __init__(self, graph_dir: str, meta: dict):
        self.dir = graph_dir
        self.meta = meta

    # -- basic accessors ----------------------------------------------------
    @property
    def V(self) -> int:
        return self.meta["V"]

    @property
    def P(self) -> int:
        return self.meta["P"]

    @property
    def part_size(self) -> int:
        return self.meta["part_size"]

    def part_bounds(self, p: int) -> tuple[int, int]:
        lo = p * self.part_size
        return lo, min(self.V, lo + self.part_size)

    def edges_path(self, mode: str, p: int) -> str:
        return os.path.join(self.dir, f"edges_{mode}", f"part_{p:05d}.parquet")

    def num_edges(self, mode: str) -> int:
        return self.meta["edge_counts"][mode]

    @classmethod
    def load(cls, graph_dir: str) -> "Graph":
        with open(os.path.join(graph_dir, "meta.json")) as f:
            return cls(graph_dir, json.load(f))

    def save_meta(self):
        tmp = os.path.join(self.dir, "meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, os.path.join(self.dir, "meta.json"))

    # -- dictionary lookups (driver-side, small results) --------------------
    def ids_to_urls(self, ids: np.ndarray) -> list[str]:
        """Resolve v_ids back to urls (reads only the needed dict shards)."""
        offsets = np.asarray(self.meta["bucket_offsets"], dtype=np.int64)
        out = [None] * len(ids)
        order = np.argsort(ids, kind="stable")
        sorted_ids = np.asarray(ids)[order]
        bucket_of = np.searchsorted(offsets, sorted_ids, side="right") - 1
        for b in np.unique(bucket_of):
            t = pq.read_table(os.path.join(self.dir, "dict", f"bucket_{b:05d}.parquet"))
            urls = t.column("url").to_pylist()
            sel = bucket_of == b
            for pos, vid in zip(order[sel], sorted_ids[sel]):
                out[pos] = urls[vid - offsets[b]]
        return out

    def dictionary_ds(self):
        """The url<->v_id dictionary as a Dataset (url, v_id)."""
        files = sorted(
            os.path.join(self.dir, "dict", f)
            for f in os.listdir(os.path.join(self.dir, "dict")))
        offsets = self.meta["bucket_offsets"]

        def add_vid(batch: pa.Table) -> pa.Table:
            b = batch.column("bucket").to_numpy()
            li = batch.column("local_idx").to_numpy()
            vid = np.asarray(offsets, dtype=np.int64)[b] + li
            return pa.table({"url": batch.column("url"),
                             "v_id": pa.array(vid, type=pa.int64())})

        return ray.data.read_parquet(files).map_batches(add_vid, batch_format="pyarrow")

    def attach_urls(self, ds, v_id_col: str = "v_id"):
        """Join vertex results back to their urls — the analog of the
        reference's write-back output join (HugeOutput by vertex id,
        /root/reference/computer-algorithm/.../louvain/hg/HugeOutput.java;
        SURVEY.md §2.8 'result write-back join'). Range-bucketed: each
        group task reads only its dictionary shard, so nothing is
        broadcast and the join scales with the dictionary."""
        offsets = np.asarray(self.meta["bucket_offsets"], dtype=np.int64)
        dict_dir = os.path.join(self.dir, "dict")

        def assign(batch: pa.Table) -> pa.Table:
            v = batch.column(v_id_col).to_numpy()
            b = np.searchsorted(offsets, v, side="right") - 1
            return _strip_schema_meta(batch.append_column(
                "_bucket", pa.array(b, type=pa.int64())))

        def join_group(t: pa.Table) -> pa.Table:
            b = int(t.column("_bucket")[0].as_py())
            shard = (pl.read_parquet(
                os.path.join(dict_dir, f"bucket_{b:05d}.parquet"),
                columns=["url", "local_idx"])
                .with_columns((pl.col("local_idx") + int(offsets[b]))
                              .alias(v_id_col))
                .select([v_id_col, "url"]))
            out = (pl.from_arrow(t).join(shard, on=v_id_col, how="left")
                   .drop("_bucket"))
            return out.to_arrow()

        return (ds.map_batches(assign, batch_format="pyarrow")
                  .groupby("_bucket")
                  .map_groups(join_group, batch_format="pyarrow"))

    def ensure_mode(self, mode: str):
        if mode == "out" or mode in self.meta["edge_counts"]:
            return
        if mode not in ("in", "both"):
            raise ValueError(f"unknown edge mode {mode!r}")
        _build_mode(self, mode)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

PROPERTIES_MERGE_POLICIES = ("min", "max", "sum", "mean")


#: per-worker-process dictionary cache for _BroadcastEncoder (warm task
#: pool: the instance is re-deserialized per task, module state is not)
_ENCODER_DICT_CACHE: dict = {}


class _BroadcastEncoder:
    """Warm-task-pool url->v_id encoder for SMALL dictionaries.

    Runs as plain tasks (an INSTANCE passed to map_batches), not an
    actor pool: an actor pool here both pays pool startup per build and
    trips the ray#53727 restart hazard (Ray Data ships actor
    constructor blobs through the object store, so a restart after the
    blob's owner dies fails — the r3 BENCH tail warning). Each worker
    PROCESS instead lazily loads the dictionary once from the
    persistent dict shards (``graph_dir/dict`` — shared storage on a
    real cluster) into a module-level cache keyed by (dir, shape,
    mtime); tasks are restartable by normal lineage, no object-store
    ownership involved. Only runs below BROADCAST_DICT_MAX urls.
    """

    def __init__(self, dict_dir: str, nb: int, offsets: list[int]):
        self.dict_dir = dict_dir
        self.nb = nb
        self.offsets = offsets

    def _dict(self):
        first = os.path.join(self.dict_dir, "bucket_00000.parquet")
        key = (self.dict_dir, self.nb, tuple(self.offsets),
               os.path.getmtime(first))
        d = _ENCODER_DICT_CACHE.get(key)
        if d is None:
            shards = []
            for b in range(self.nb):
                sh = pl.read_parquet(
                    os.path.join(self.dict_dir, f"bucket_{b:05d}.parquet"),
                    columns=["url", "local_idx"])
                shards.append(sh.with_columns(
                    (pl.col("local_idx") + int(self.offsets[b]))
                    .alias("v_id")).select(["url", "v_id"]))
            d = pl.concat(shards)
            _ENCODER_DICT_CACHE.clear()   # one graph's dict per process
            _ENCODER_DICT_CACHE[key] = d
        return d

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = self._dict()
        out = (pl.from_arrow(batch)
               .join(d.rename({"v_id": "src_id"}),
                     left_on="src", right_on="url", how="left")
               .join(d.rename({"v_id": "dst_id"}),
                     left_on="dst", right_on="url", how="left")
               .drop(["src", "dst"]))
        return out.to_arrow()


def build_graph(edges_ds, graph_dir: str, n_parts: int,
                extra_url_ds=None, weight_col: str | None = None,
                n_buckets: int | None = None,
                limit_edges_per_vertex: int | None = None,
                properties_merge: str = "min") -> Graph:
    """edges_ds: Dataset(src:string, dst:string[, weight]) -> on-disk Graph.

    Vertex set = {src} ∪ {dst} ∪ extra_url_ds (e.g. all page urls, so
    pages without in/out links are still vertices, as the reference loads
    isolated vertices).

    ``limit_edges_per_vertex`` is the analog of the reference's
    ``input.limit_edges_in_one_vertex`` degree cap (ComputerOptions.java
    :186-194); the reference truncates in load order, ours keeps the K
    smallest dst ids (deterministic Id-order truncation, documented
    deviation).

    ``properties_merge`` is the per-job analog of the reference's
    edge-properties combiner override (``worker.edge_properties_
    combiner_class``, ComputerOptions.java; PropertiesCombiner.java with
    MergeOld/MergeNewPropertiesCombiner variants): how the weight
    property is merged when duplicate (src, dst) edges collide at load.
    The reference's old/new variants resolve by LOAD ORDER, which is
    nondeterministic under parallel ingest; ours exposes the
    deterministic lattice policies "min" (default) | "max" | "sum" |
    "mean" instead (documented deviation — same configuration point,
    order-independent semantics).
    """
    if properties_merge not in PROPERTIES_MERGE_POLICIES:
        raise ValueError(f"properties_merge must be one of "
                         f"{PROPERTIES_MERGE_POLICIES}, got "
                         f"{properties_merge!r}")
    if os.path.exists(os.path.join(graph_dir, "meta.json")):
        g = Graph.load(graph_dir)
        if g.meta["P"] == n_parts and \
                g.meta.get("weight_col") == weight_col and \
                g.meta.get("limit_edges_per_vertex") == \
                limit_edges_per_vertex and \
                g.meta.get("properties_merge", "min") == properties_merge:
            return g
        # build parameters differ: wipe stale artifacts so partitions
        # empty under the new layout can't keep old part files
        # (ADVICE.md). NOTE the dir identifies the INPUT — callers use a
        # distinct graph_dir per input dataset (tpch/bench key dirs by
        # source path).
        import shutil
        for sub in ("dict", "edges_out", "edges_both", "edges_in"):
            shutil.rmtree(os.path.join(graph_dir, sub), ignore_errors=True)
        os.remove(os.path.join(graph_dir, "meta.json"))
    os.makedirs(os.path.join(graph_dir, "dict"), exist_ok=True)
    os.makedirs(os.path.join(graph_dir, "edges_out"), exist_ok=True)
    n_buckets = n_buckets or n_parts

    # the edge stream feeds THREE consumers (url set, boundary sample,
    # encode) — materialize once into the object store so the upstream
    # extraction doesn't re-execute per consumer (spills under pressure;
    # at 100-TB scale this is the input-step persistence the reference
    # also pays, ComputeManager.java:90-184). Fragmented block layouts
    # (hundreds of tiny blocks from splitty readers) are coalesced: every
    # downstream shuffle pays per-block task overhead (measured 6x on
    # the dictionary groupby at 267 blocks vs 32).
    import time as _time
    _stage_t0, _stages = _time.monotonic(), {}

    def _mark(name):
        nonlocal _stage_t0
        now = _time.monotonic()
        _stages[name] = round(now - _stage_t0, 3)
        _stage_t0 = now

    edges_ds = edges_ds.materialize()
    if edges_ds.num_blocks() > 4 * n_parts:
        edges_ds = edges_ds.repartition(2 * n_parts).materialize()
    _mark("ingest_materialize")

    # ---- 1. vertex url stream (per-batch local dedup to shrink) ----------
    def batch_urls(cols):
        def fn(batch: pa.Table) -> pa.Table:
            arrs = [batch.column(c) for c in cols]
            u = pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                                  else a for a in arrs])
            return pa.table({"url": u.unique()})
        return fn

    urls_ds = edges_ds.map_batches(batch_urls(["src", "dst"]), batch_format="pyarrow")
    if extra_url_ds is not None:
        urls_ds = urls_ds.union(
            extra_url_ds.map_batches(batch_urls(["url"]), batch_format="pyarrow"))
    urls_ds = urls_ds.materialize()   # consumed by sample AND dict build
    if urls_ds.num_blocks() > 4 * n_buckets:
        urls_ds = urls_ds.repartition(2 * n_buckets).materialize()
    _mark("url_stream")

    # ---- 2. range-bucket boundaries from a deterministic sample ----------
    def sample_fn(batch: pa.Table) -> pa.Table:
        # vectorized keep decision (r4 VERDICT: the per-url Python crc32
        # loop was the last row loop in the build path — days of
        # interpreter time at 1e11 urls). The M31 fingerprint fold is
        # whole-batch vectorized and per-url deterministic (independent
        # of chunking/parallelism); splitmix on top uniformizes the low
        # bits before the modulus. Boundaries only steer bucket load
        # balance — global Id order is invariant to them — so swapping
        # the sample hash cannot change any query result.
        from ._util import hash_u64
        from .ops import texthash
        u = batch.column("url")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        fp = texthash.fingerprints(u).astype(np.uint64)
        keep = (hash_u64(fp) % np.uint64(SAMPLE_MOD)) == 0
        return pa.table({"url": u.filter(pa.array(keep))})

    sample = [r["url"] for r in
              urls_ds.map_batches(sample_fn, batch_format="pyarrow")
                     .limit(SAMPLE_LIMIT).take_all()]
    keys = sorted(set(_sort_keys(sample)))
    if len(keys) >= n_buckets:
        idxs = [int(len(keys) * b / n_buckets) for b in range(1, n_buckets)]
        boundaries = [keys[i] for i in idxs]
    else:
        boundaries = keys  # tiny data: fewer effective buckets
    boundaries_arr = np.array(boundaries, dtype=object)
    nb = len(boundaries) + 1
    _mark("boundary_sample")

    def assign_bucket_url(batch: pa.Table) -> pa.Table:
        b = _assign_buckets(batch.column("url"), boundaries)
        return _strip_schema_meta(
            batch.append_column("bucket", pa.array(b, type=pa.int64())))

    # ---- 3. per-bucket dedup + Id-order sort -> dict shards ---------------
    dict_dir = os.path.join(graph_dir, "dict")

    def build_bucket(g: pa.Table) -> pa.Table:
        b = int(g.column("bucket")[0].as_py())
        u = (pl.from_arrow(g.select(["url"]))
             .unique()
             .with_columns(pl.col("url").str.len_bytes().alias("_len"))
             .sort(["_len", "url"])      # polars sorts utf8 by bytes => Id order
             .drop("_len"))
        t = u.to_arrow()
        t = t.append_column("bucket", pa.array(np.full(len(t), b), type=pa.int64()))
        t = t.append_column("local_idx", pa.array(np.arange(len(t)), type=pa.int64()))
        pq.write_table(t, os.path.join(dict_dir, f"bucket_{b:05d}.parquet"))
        return pa.table({"bucket": pa.array([b], type=pa.int64()),
                         "count": pa.array([len(t)], type=pa.int64())})

    counts_rows = (urls_ds.map_batches(assign_bucket_url, batch_format="pyarrow")
                   .groupby("bucket")
                   .map_groups(build_bucket, batch_format="pyarrow")
                   .take_all())
    counts = {int(r["bucket"]): int(r["count"]) for r in counts_rows}
    # buckets with no urls still need dict files for ids_to_urls/encode
    for b in range(nb):
        if b not in counts:
            pq.write_table(pa.table({"url": pa.array([], type=pa.string()),
                                     "bucket": pa.array([], type=pa.int64()),
                                     "local_idx": pa.array([], type=pa.int64())}),
                           os.path.join(dict_dir, f"bucket_{b:05d}.parquet"))
            counts[b] = 0
    offsets = np.zeros(nb, dtype=np.int64)
    for b in range(1, nb):
        offsets[b] = offsets[b - 1] + counts[b - 1]
    V = int(offsets[-1] + counts[nb - 1])
    _mark("dict_build")

    # ---- 4. encode edges ---------------------------------------------------
    # Small dictionaries are BROADCAST (each encoder actor loads the
    # full dictionary ONCE in __init__ from the persistent dict shards —
    # plain-data constructor args only, so an actor restart after node
    # loss re-reads the shards instead of failing on a lost object-store
    # ref, ray#53727 / VERDICT r3 item 4); big dictionaries use the
    # range-bucketed merge join (each group task reads only its shard).
    def encode_broadcast(ds):
        # no concurrency cap: plain tasks scale with free CPUs, and the
        # per-process dict load is one-time (cached module-level)
        enc = _BroadcastEncoder(dict_dir, nb, offsets.tolist())
        return ds.map_batches(enc, batch_format="pyarrow")

    def encode_side(ds, col: str, out_col: str):
        def assign(batch: pa.Table) -> pa.Table:
            b = _assign_buckets(batch.column(col), boundaries)
            return _strip_schema_meta(
                batch.append_column("bucket", pa.array(b, type=pa.int64())))

        def join_group(t: pa.Table) -> pa.Table:
            b = int(t.column("bucket")[0].as_py())
            shard = (pl.read_parquet(
                os.path.join(dict_dir, f"bucket_{b:05d}.parquet"),
                columns=["url", "local_idx"])
                .with_columns((pl.col("local_idx") + int(offsets[b]))
                              .alias(out_col))
                .select(["url", out_col]))
            out = (pl.from_arrow(t)
                   .join(shard, left_on=col, right_on="url", how="left")
                   .drop(["bucket", col]))
            return out.to_arrow()

        return (ds.map_batches(assign, batch_format="pyarrow")
                  .groupby("bucket").map_groups(join_group,
                                                batch_format="pyarrow"))

    if V <= BROADCAST_DICT_MAX:
        enc = encode_broadcast(edges_ds)
    else:
        enc = encode_side(edges_ds, "src", "src_id")
        enc = encode_side(enc, "dst", "dst_id")

    # ---- 5. drop self-loops, partition by src, dedup, persist -------------
    part_size = ceil_div(max(V, 1), n_parts)
    e_dir = os.path.join(graph_dir, "edges_out")
    cols = ["src_id", "dst_id"] + ([weight_col] if weight_col else [])

    def prep(batch: pa.Table) -> pa.Table:
        s = batch.column("src_id").to_numpy()
        d = batch.column("dst_id").to_numpy()
        keep = s != d
        t = batch.select(cols).filter(pa.array(keep))
        part = t.column("src_id").to_numpy() // part_size
        return _strip_schema_meta(
            t.append_column("part", pa.array(part, type=pa.int64())))

    n_edges = _write_partition_files(
        enc.map_batches(prep, batch_format="pyarrow"), e_dir, weight_col,
        limit_edges_per_vertex, properties_merge)
    _mark("encode_partition_write")

    meta = {
        "V": V,
        "P": n_parts,
        "part_size": part_size,
        "n_buckets": nb,
        "bucket_offsets": offsets.tolist(),
        "boundaries_hex": [b.hex() for b in boundaries],
        "weight_col": weight_col,
        "limit_edges_per_vertex": limit_edges_per_vertex,
        "properties_merge": properties_merge,
        "edge_counts": {"out": n_edges},
        "build_stage_secs": _stages,
    }
    g = Graph(graph_dir, meta)
    g.save_meta()
    return g


def _write_partition_files(parted_ds, out_dir: str, weight_col: str | None,
                           limit_per_vertex: int | None = None,
                           properties_merge: str = "min") -> int:
    """groupby(part) -> per-partition sorted+deduped parquet; returns total
    edge count after dedup. Dedup merges the weight per (src,dst) with
    the ``properties_merge`` policy (min default — deterministic; SQL
    oracles replicate) when a weight column exists. The optional degree
    cap keeps the first ``limit_per_vertex`` edges per src in
    (src, dst) order."""
    os.makedirs(out_dir, exist_ok=True)
    merge_agg = {"min": pl.col("weight").min, "max": pl.col("weight").max,
                 "sum": pl.col("weight").sum, "mean": pl.col("weight").mean,
                 }[properties_merge]

    def write_part(t: pa.Table) -> pa.Table:
        p = int(t.column("part")[0].as_py())
        lf = pl.DataFrame({
            "src_id": t.column("src_id").to_numpy().astype(np.int64),
            "dst_id": t.column("dst_id").to_numpy().astype(np.int64),
            **({"weight": t.column(weight_col).to_numpy()
                .astype(np.float64)} if weight_col else {}),
        })
        if weight_col:
            lf = (lf.group_by(["src_id", "dst_id"]).agg(merge_agg())
                    .sort(["src_id", "dst_id"]))
        else:
            lf = lf.unique().sort(["src_id", "dst_id"])
        if limit_per_vertex is not None:
            lf = lf.group_by("src_id", maintain_order=True) \
                .head(limit_per_vertex)
        pq.write_table(lf.to_arrow(), os.path.join(out_dir, f"part_{p:05d}.parquet"))
        return pa.table({"part": pa.array([p], type=pa.int64()),
                         "count": pa.array([len(lf)], type=pa.int64())})

    rows = parted_ds.groupby("part").map_groups(
        write_part, batch_format="pyarrow").take_all()
    return int(sum(r["count"] for r in rows))


def _build_mode(g: Graph, mode: str):
    """A derived edge layout from the directed canonical one, in one
    shuffle, cached under edges_<mode>/:

    * ``in``: the reverse adjacency. Every canonical edge is stored once
      as (dst, src), partitioned by the new src, which gives programs an
      IN-edge CSR (SubGraphMatch walks query edges in both orientations,
      SubGraphMatch.sendMessage:151-160 edge.isInverse).
    * ``both``: the symmetrized (undirected) layout, every edge in both
      directions. The reference gets undirected semantics by loading
      each edge in both directions (``input.vertex_with_edges_bothdirection``,
      reference computer-core/.../config/ComputerOptions.java:933-939).
    """
    files = [g.edges_path("out", p) for p in range(g.P)
             if os.path.exists(g.edges_path("out", p))]
    part_size = g.part_size
    out_dir = os.path.join(g.dir, f"edges_{mode}")
    has_w = g.meta.get("weight_col") is not None
    cols = ["src_id", "dst_id"] + (["weight"] if has_w else [])

    def orient(batch: pa.Table) -> pa.Table:
        s = batch.column("src_id").to_numpy()
        d = batch.column("dst_id").to_numpy()
        w = batch.column("weight").to_numpy() if has_w else None
        if mode == "in":
            s, d = d, s
        else:
            s, d = np.concatenate([s, d]), np.concatenate([d, s])
            w = None if w is None else np.concatenate([w, w])
        out = {"src_id": pa.array(s, type=pa.int64()),
               "dst_id": pa.array(d, type=pa.int64()),
               "part": pa.array(s // part_size, type=pa.int64())}
        if has_w:
            out["weight"] = pa.array(w)
        return pa.table(out)

    if files:
        ds = ray.data.read_parquet(files, columns=cols)
        n = _write_partition_files(ds.map_batches(orient,
                                                  batch_format="pyarrow"),
                                   out_dir, "weight" if has_w else None,
                                   properties_merge=g.meta.get(
                                       "properties_merge", "min"))
    else:
        os.makedirs(out_dir, exist_ok=True)
        n = 0
    g.meta["edge_counts"][mode] = n
    g.save_meta()
