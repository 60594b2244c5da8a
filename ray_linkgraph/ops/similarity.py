"""Similarity search over an embedding column (list<float>).

* brute-force cosine top-k: the (small) query matrix rides inside the
  serialized stage instance — Ray Data puts the transform in the object
  store once and every warm task zero-copy-reads it (never re-shipped
  per batch, and no actor pool whose constructor captures an ObjectRef,
  the ray#53727 restart hazard); each batch computes a numpy matmul and
  emits only its local top-k per query, so the final per-query reduce
  (``text.topk_per_group`` over one hash exchange) sees
  O(k * num_batches) rows, not the whole table.
* IVF-style ANN: deterministic seeded centroids, vectors bucketed by
  nearest centroid; queries probe the nprobe nearest buckets only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .._util import (hash_u64, read_parquet_nm, _strip_schema_meta,
                      vec_matrix as _vec_matrix)
from ..extract import _task_cap
from .text import topk_per_group


def _normalize(v: np.ndarray) -> np.ndarray:
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)


def _empty_knn():
    import ray.data
    return ray.data.from_arrow(pa.table(
        {"query_idx": pa.array([], pa.int64()),
         "vec_id": pa.array([], pa.int64()),
         "sim": pa.array([], pa.float64()),
         "rank": pa.array([], pa.int64())}))


def _knn_topk(ds, q: np.ndarray, k: int, id_col: str, vec_col: str,
              concurrency):
    """Per-query top-k of ``ds``'s vectors against query matrix ``q``
    (sim desc, vec_id asc, 1-based rank): a local top-k per batch,
    then one per-query reduce."""
    partial = ds.map_batches(BatchTopK(q, k, id_col, vec_col),
                             batch_format="pyarrow",
                             concurrency=_task_cap(concurrency))
    top = topk_per_group(partial, "query_idx", "sim", k, "vec_id")
    # no vectors: the per-batch map never ran, so nothing has a schema
    return top if top.schema() is not None else _empty_knn()


class BatchTopK:
    """Warm-task-pool stage: the normalized query matrix rides in the
    instance (object store once via Ray Data's transform put)."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) \
            else queries_ref
        self.q = _normalize(np.asarray(q, dtype=np.float64))
        self.k = k
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        vecs = _normalize(_vec_matrix(batch, self.vec_col))
        sims = self.q @ vecs.T                      # (Q, B)
        k = min(self.k, sims.shape[1])
        # local top-k per query with deterministic (sim desc, id asc) order
        order = np.lexsort((ids[None, :].repeat(len(self.q), 0), -sims),
                           axis=1)[:, :k]
        qi = np.repeat(np.arange(len(self.q)), k)
        vi = order.reshape(-1)
        return pa.table({
            "query_idx": pa.array(qi.astype(np.int64)),
            "vec_id": pa.array(ids[vi]),
            "sim": pa.array(sims[qi, vi]),
        })


def knn_brute(emb_ds, queries: np.ndarray, k: int = 10,
              id_col: str = "vec_id", vec_col: str = "embedding",
              concurrency=(1, 8)):
    """-> Dataset(query_idx, vec_id, sim, rank) exact cosine top-k."""
    return _knn_topk(emb_ds, np.asarray(queries, dtype=np.float64), k,
                     id_col, vec_col, concurrency)


def train_centroids(emb_ds, n_centroids: int = 16, seed: int = 11,
                    sample_size: int = 4096, iters: int = 10,
                    vec_col: str = "embedding") -> np.ndarray:
    """Spherical k-means on a driver-side sample (seeded, deterministic):
    init = hash-picked sample rows, then Lloyd iterations with cosine
    assignment; empty clusters re-seeded from the farthest points. The
    sample is bounded (few thousand vectors) — training never scans the
    full table; assignment/search stay distributed."""
    sample = emb_ds.limit(sample_size).take_all()
    X = _normalize(np.stack([np.asarray(r[vec_col], dtype=np.float64)
                             for r in sample]))
    n = len(X)
    k = min(n_centroids, n)
    picks = hash_u64(np.uint64(seed),
                     np.arange(k, dtype=np.uint64)) % np.uint64(n)
    # de-dup collisions deterministically (linear probe fill)
    picks = np.unique(picks.astype(np.int64))
    cand = 0
    while len(picks) < k:
        if cand not in picks:
            picks = np.sort(np.r_[picks, cand])
        cand += 1
    cents = X[picks[:k]].copy()
    for _ in range(iters):
        a = np.argmax(X @ cents.T, axis=1)
        sims = (X * cents[a]).sum(axis=1)
        for c in range(k):
            m = a == c
            if m.any():
                cents[c] = X[m].sum(axis=0)
            else:                       # re-seed from the worst-fit point
                cents[c] = X[int(np.argmin(sims))]
        cents = _normalize(cents)
    return cents


def ivf_index(emb_ds, n_centroids: int = 16, seed: int = 11,
              id_col: str = "vec_id", vec_col: str = "embedding"):
    """Assign each vector to its nearest TRAINED centroid (sampled
    spherical k-means — round-1 used seeded random directions, whose
    recall at real scale would be poor).
    Returns (centroids, bucketed Dataset with a 'bucket' column)."""
    cents = train_centroids(emb_ds, n_centroids, seed, vec_col=vec_col)

    def assign(batch: pa.Table) -> pa.Table:
        vecs = _normalize(_vec_matrix(batch, vec_col))
        b = np.argmax(vecs @ cents.T, axis=1)
        return _strip_schema_meta(
            batch.append_column("bucket", pa.array(b.astype(np.int64))))

    return cents, emb_ds.map_batches(assign, batch_format="pyarrow")


class IvfIndex:
    """Persisted IVF index: trained centroids + the embedding table
    written as bucket-partitioned parquet. Build once, then every
    search reads ONLY its nprobe bucket partitions from storage
    (partition pruning at the read — at 100-TB scale the index build is
    the one full pass and searches touch nprobe/n_centroids of the
    data). Layout::

        path/centroids.npy
        path/data/bucket=<b>/*.parquet
    """

    def __init__(self, path: str, centroids: np.ndarray,
                 id_col: str, vec_col: str):
        self.path = path
        self.centroids = centroids
        self.id_col, self.vec_col = id_col, vec_col

    @classmethod
    def build(cls, emb_ds, path: str, n_centroids: int = 16,
              seed: int = 11, id_col: str = "vec_id",
              vec_col: str = "embedding") -> "IvfIndex":
        import os
        cents, bucketed = ivf_index(emb_ds, n_centroids, seed,
                                    id_col, vec_col)
        os.makedirs(path, exist_ok=True)
        bucketed.write_parquet(os.path.join(path, "data"),
                               partition_cols=["bucket"])
        np.save(os.path.join(path, "centroids.npy"), cents)
        return cls(path, cents, id_col, vec_col)

    @classmethod
    def load(cls, path: str, id_col: str = "vec_id",
             vec_col: str = "embedding") -> "IvfIndex":
        import os
        cents = np.load(os.path.join(path, "centroids.npy"))
        return cls(path, cents, id_col, vec_col)

    def search(self, queries: np.ndarray, k: int = 10, nprobe: int = 4,
               concurrency=(1, 8)):
        """Top-k over the probed buckets only (partition-pruned read)."""
        import os

        q = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(q @ self.centroids.T), axis=1,
                           kind="stable")[:, :nprobe]
        wanted = sorted({int(b) for row in probe for b in row})
        # partition pruning by path: only the probed buckets are read
        import glob
        paths = [f for b in wanted for f in sorted(glob.glob(
            os.path.join(self.path, "data", f"bucket={b}", "*.parquet")))]
        if not paths:
            return _empty_knn()
        return _knn_topk(read_parquet_nm(paths), q, k, self.id_col,
                         self.vec_col, concurrency)


def knn_ivf(emb_ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
            nprobe: int = 4, seed: int = 11, id_col: str = "vec_id",
            vec_col: str = "embedding", concurrency=(1, 8)):
    """Approximate cosine top-k: search only the nprobe nearest centroid
    buckets per query. Same output schema as knn_brute."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    cents, bucketed = ivf_index(emb_ds, n_centroids, seed, id_col, vec_col)
    probe = np.argsort(-(q @ cents.T), axis=1, kind="stable")[:, :nprobe]
    wanted = np.array(sorted({int(b) for row in probe for b in row}),
                      dtype=np.int64)

    def keep_probed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.is_in(batch.column("bucket"),
                                     value_set=pa.array(wanted)))

    sub = bucketed.map_batches(keep_probed, batch_format="pyarrow")
    return _knn_topk(sub, q, k, id_col, vec_col, concurrency)
