"""Seeded benchmark inputs and independent numpy references.

Everything here is a pure function of the seed and is cached under
``<cache>/seed_<n>/``, so the timed runs never pay for it. The references
do not call the code under test: link extraction uses the plain regex
contract, vertex ids come from sorting urls in the reference Id order
(length first, then bytes), and the algorithms are short numpy loops with
the reference semantics of ``tests/naive_ref.py``.

Run as a script in a child process, so the benchmark process's peak RSS
measures only the workload:

    python3 perfbench/inputs.py --root <checkout> --cache <dir> --seed N --kind pages|synth
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import sys

import numpy as np

N_PAGES = 20_000          # ingest_pages / graph_queries input size
PAGE_SHARDS = 4           # parquet files, written in parallel
SYNTH_V = 250_000         # pagerank_dense vertices
SYNTH_DEG = 10            # pagerank_dense average out-degree
DENSE_STEPS = 40          # pagerank_dense supersteps (l1_threshold=0)
QUERY_PR_STEPS = 30       # graph_queries PageRank cap (l1_threshold=1e-6)
LPA_STEPS = 10            # lpa() default: compute0 + 9 vote rounds
ALPHA = 0.15

HREF = re.compile(rb'<a href="([^"]*)">', re.S)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def seed_dir(cache: str, seed: int) -> str:
    return os.path.join(cache, f"seed_{seed}")


# -- reference algorithms ----------------------------------------------------

def pagerank_ref(V, src, dst, l1_threshold, max_steps):
    """Reference PageRank update and stop rule -> (ranks, supersteps)."""
    deg = np.bincount(src, minlength=V)
    dang = deg == 0
    rank = np.full(V, 1.0 / V)
    cum, dang_cum = rank.sum(), rank[dang].sum()
    steps = 1
    for s in range(1, max_steps):
        contrib = np.where(dang, 0.0, rank / np.maximum(deg, 1))
        inc = np.bincount(dst, weights=contrib[src], minlength=V)
        new = ((dang_cum / V + inc) * (1 - ALPHA) + ALPHA / V) / cum
        l1 = np.abs(new - rank).sum()
        rank, cum, dang_cum = new, new.sum(), new[dang].sum()
        steps = s + 1
        if s > 1 and l1 <= l1_threshold:
            break
    return rank, steps


def wcc_ref(V, s, d):
    """Min vertex id per weakly connected component (s, d symmetric)."""
    lab = np.arange(V, dtype=np.int64)
    while True:
        nl = lab.copy()
        np.minimum.at(nl, d, lab[s])
        if (nl == lab).all():
            return lab
        lab = nl


def lpa_ref(V, s, d, rounds):
    """Synchronous vote: most frequent neighbour label, ties -> min label."""
    lab = np.arange(V, dtype=np.int64)
    for _ in range(rounds):
        ll = lab[s]
        o = np.lexsort((ll, d))
        dd, ll = d[o], ll[o]
        starts = np.flatnonzero(np.r_[True, (dd[1:] != dd[:-1])
                                      | (ll[1:] != ll[:-1])])
        cnt = np.diff(np.r_[starts, len(dd)])
        rd, rl = dd[starts], ll[starts]
        o2 = np.lexsort((rl, -cnt, rd))
        rd, rl = rd[o2], rl[o2]
        first = np.r_[True, rd[1:] != rd[:-1]]
        lab = lab.copy()
        lab[rd[first]] = rl[first]
    return lab


def triangles_ref(V, s, d):
    """Triangles through each vertex of the simple undirected graph."""
    deg = np.bincount(s, minlength=V)
    pos = np.empty(V, dtype=np.int64)       # rank in (degree, id) order
    pos[np.lexsort((np.arange(V), deg))] = np.arange(V)
    fwd = pos[s] < pos[d]
    a, b = s[fwd], d[fwd]                   # each edge once, low -> high
    o = np.lexsort((pos[b], a))
    a, b = a[o], b[o]
    # wedges: every pair (i < j) of out-neighbours of one apex
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    counts = np.diff(np.r_[starts, len(a)])
    later = np.repeat(counts, counts) - 1 - (
        np.arange(len(a)) - np.repeat(starts, counts))
    first = np.repeat(np.arange(len(a)), later)
    second = first + 1 + np.arange(later.sum()) - np.repeat(
        np.cumsum(later) - later, later)
    ekey = np.sort(a * np.int64(V) + b)
    wkey = b[first] * np.int64(V) + b[second]
    p = np.minimum(np.searchsorted(ekey, wkey), len(ekey) - 1)
    hit = ekey[p] == wkey
    corners = np.concatenate([a[first][hit], b[first][hit], b[second][hit]])
    return np.bincount(corners, minlength=V).astype(np.int64)


# -- inputs ------------------------------------------------------------------

def _write_shard(args):
    import pyarrow.parquet as pq
    from ray_linkgraph.pages import pages_table
    seed, i, pages_dir = args
    rows = N_PAGES // PAGE_SHARDS
    pq.write_table(pages_table(N_PAGES, seed=seed, lo=i * rows,
                               hi=(i + 1) * rows),
                   os.path.join(pages_dir, f"pages_{i:05d}.parquet"))


def prepare_pages(out: str, seed: int):
    """Pages parquet plus references for the graph built from it."""
    import multiprocessing as mp

    import pyarrow.parquet as pq

    # generate_pages' shard layout, one shard per process
    pages_dir = os.path.join(out, "pages")
    os.makedirs(pages_dir)
    shards = [(seed, i, pages_dir) for i in range(PAGE_SHARDS)]
    with mp.get_context("spawn").Pool(PAGE_SHARDS) as pool:
        pool.map(_write_shard, shards)
    t = pq.read_table(pages_dir, columns=["url", "html"])
    src_u, dst_u = [], []
    for url, html in zip(t.column("url").to_pylist(),
                         t.column("html").to_pylist()):
        for h in HREF.findall(html):
            src_u.append(url)
            dst_u.append(h.decode("utf-8"))
    urls = sorted(set(t.column("url").to_pylist()) | set(src_u) | set(dst_u),
                  key=lambda u: (len(u.encode("utf-8")), u.encode("utf-8")))
    vid = {u: i for i, u in enumerate(urls)}
    V = len(urls)
    src = np.fromiter((vid[u] for u in src_u), dtype=np.int64,
                      count=len(src_u))
    dst = np.fromiter((vid[u] for u in dst_u), dtype=np.int64,
                      count=len(dst_u))
    keep = src != dst
    key = np.unique(src[keep] * V + dst[keep])
    s_out, d_out = key // V, key % V
    bkey = np.unique(np.concatenate([key, d_out * V + s_out]))
    s_b, d_b = bkey // V, bkey % V
    ranks, pr_steps = pagerank_ref(V, s_out, d_out, 1e-6, QUERY_PR_STEPS)
    np.savez(os.path.join(out, "ref_pages.npz"),
             V=V, E=len(key), E_both=len(bkey), raw_edges=len(src_u),
             edges_digest=digest(s_out, d_out),
             wcc=wcc_ref(V, s_b, d_b),
             lpa=lpa_ref(V, s_b, d_b, LPA_STEPS - 1),
             triangles=triangles_ref(V, s_b, d_b),
             pagerank=ranks, pagerank_steps=pr_steps)


def prepare_synth(out: str, seed: int):
    """PageRank reference over the synthetic graph's full edge set."""
    from ray_linkgraph.synth import synth_edges_for_range

    src, dst = synth_edges_for_range(SYNTH_V, SYNTH_DEG, seed, 0, SYNTH_V)
    ranks, steps = pagerank_ref(SYNTH_V, src, dst, 0.0, DENSE_STEPS)
    np.savez(os.path.join(out, "ref_synth.npz"), V=SYNTH_V, E=len(src),
             pagerank=ranks, pagerank_steps=steps)


PREPARE = {"pages": (prepare_pages, "ref_pages.npz"),
           "synth": (prepare_synth, "ref_synth.npz")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", choices=sorted(PREPARE), required=True)
    a = ap.parse_args(argv)
    sys.path.insert(0, a.root)
    os.environ["PYTHONPATH"] = a.root   # for the spawned page writers
    fn, marker = PREPARE[a.kind]
    out = seed_dir(a.cache, a.seed)
    if os.path.exists(os.path.join(out, marker)):
        return
    tmp = f"{out}.{a.kind}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    fn(tmp, a.seed)
    os.makedirs(out, exist_ok=True)
    for name in os.listdir(tmp):   # marker file last: it commits the cache
        if name != marker:
            shutil.rmtree(os.path.join(out, name), ignore_errors=True)
            os.replace(os.path.join(tmp, name), os.path.join(out, name))
    os.replace(os.path.join(tmp, marker), os.path.join(out, marker))
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
