"""Direct synthetic edge-graph builder for engine-scale benchmarks.

The pages pipeline (html generation + extraction + dictionary encode) is
the end-to-end path; for measuring SUPERSTEP throughput at 10^7-10^8
edges we skip the string work and materialize the partitioned CSR layout
straight from counter-based hashes — the edge SET is a pure function of
(V, avg_deg, seed), independent of partition count, so runs at
different parallelism levels iterate the identical graph (the BASELINE.md
scaling protocol requires "same input").

Structure mirrors the pages graph: power-ish degrees, hub targets
(skew), dangling vertices, heavy hub sources above the reference's
superedge threshold.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray

from ._util import ceil_div, hash_u64, uniform01
from .graph import Graph

HUB_FRACTION = 0.001
HUB_PROB = 0.2


def synth_degrees(V: int, avg_deg: int, seed: int, lo: int,
                  hi: int) -> np.ndarray:
    v = np.arange(lo, hi, dtype=np.int64)
    h = hash_u64(np.uint64(seed), v.astype(np.uint64), 1)
    deg = (1 + h % np.uint64(2 * avg_deg - 1)).astype(np.int64)
    deg[h % np.uint64(16) == 0] = 0     # dangling
    deg[v % 997 == 17] = 150            # heavy hub sources
    return deg


CHUNK_VERTICES = 250_000


def synth_edges_for_range(V: int, avg_deg: int, seed: int, lo: int,
                          hi: int):
    """(src, dst) for vertices [lo, hi), grouped by src — a pure function
    of (V, avg_deg, seed, vertex range): partitioning and chunking never
    change the edge set. Self-loops dropped; rare duplicate targets stay
    (legal multi-edges, reference EdgeFrequency=MULTIPLE).

    Generated in fixed vertex chunks so numpy temporaries stay small
    (~60 MB): giant temporaries hit fresh-mmap page-fault cost on every
    pass, which made single-shot generation superlinear in range size."""
    n_hubs = max(1, int(V * HUB_FRACTION))
    srcs, dsts = [], []
    for clo in range(lo, max(hi, lo + 1), CHUNK_VERTICES):
        chi = min(hi, clo + CHUNK_VERTICES)
        if chi <= clo:
            break
        deg = synth_degrees(V, avg_deg, seed, clo, chi)
        v = np.arange(clo, chi, dtype=np.int64)
        src = np.repeat(v, deg)
        j = (np.arange(len(src), dtype=np.int64)
             - np.repeat(np.r_[0, np.cumsum(deg)[:-1]], deg))
        su = src.astype(np.uint64)
        ju = j.astype(np.uint64)
        th = hash_u64(np.uint64(seed), su, ju, 4)
        u = uniform01(np.uint64(seed), su, ju, 3)
        dst = np.where(u < HUB_PROB,
                       (th % np.uint64(n_hubs)).astype(np.int64),
                       (th % np.uint64(V)).astype(np.int64))
        keep = src != dst
        srcs.append(src[keep])
        dsts.append(dst[keep])
    if not srcs:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(srcs), np.concatenate(dsts)


@ray.remote
def _count_part(V, avg_deg, seed, lo, hi) -> int:
    s, _ = synth_edges_for_range(V, avg_deg, seed, lo, hi)
    return int(len(s))


def build_synthetic_graph(graph_dir: str, V: int, avg_deg: int = 10,
                          n_parts: int = 8, seed: int = 42) -> Graph:
    """A file-less graph: actors synthesize their CSR range in __init__
    (PartCtx consults meta["synthetic"]). Only meta.json touches disk —
    the sandbox's virtual disk is far too slow/noisy for multi-GB edge
    files, and at real scale the analogous move is generating/loading
    partitions node-locally rather than through a central store."""
    meta_path = os.path.join(graph_dir, "meta.json")
    if os.path.exists(meta_path):
        g = Graph.load(graph_dir)
        if g.P == n_parts and g.V == V and \
                g.meta.get("synthetic", {}).get("avg_deg") == avg_deg:
            return g
    os.makedirs(graph_dir, exist_ok=True)
    part_size = ceil_div(V, n_parts)
    # total edge count is independent of partitioning — cache it
    cache = os.path.join(os.path.dirname(graph_dir.rstrip("/")) or ".",
                         f"synthcount_V{V}_d{avg_deg}_s{seed}.json")
    if os.path.exists(cache):
        with open(cache) as f:
            total = json.load(f)["edges"]
    else:
        n_tasks = max(n_parts, 8)
        step = ceil_div(V, n_tasks)
        counts = ray.get([
            _count_part.remote(V, avg_deg, seed, i * step,
                               min(V, (i + 1) * step))
            for i in range(n_tasks)])
        total = int(sum(counts))
        with open(cache, "w") as f:
            json.dump({"edges": total}, f)
    meta = {
        "V": V,
        "P": n_parts,
        "part_size": part_size,
        "n_buckets": 0,
        "bucket_offsets": [0],
        "boundaries_hex": [],
        "weight_col": None,
        "no_dictionary": True,    # ids ARE the vertex keys; no url dict
        "synthetic": {"V": V, "avg_deg": avg_deg, "seed": seed},
        "edge_counts": {"out": total},
    }
    g = Graph(graph_dir, meta)
    g.save_meta()
    return g
