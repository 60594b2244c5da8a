"""Host memory-bandwidth ceiling probe for the dense pull exchange.

Runs the pull kernel (gather each in-edge's source value from the K value
chunks, then one bincount into the owned chunk — engine.py
``PartitionWorker._pull`` / ``PartCtx.pull_block``) as PURE NUMPY in K
concurrent processes, with reps synchronized across all K processes by a
Barrier so every rep runs under true K-way contention (BSP superstep
semantics). No Ray, no engine — whatever efficiency this measures between
K=4 and K=16 is the host's aggregate DRAM bandwidth, the hard ceiling for
any implementation of the exchange.

Usage: python tools/membench.py     (prints one line per K)
"""
import time
import numpy as np
from multiprocessing import Process, Queue, Barrier

V, E = 2_000_000, 20_000_000
REPS = 7

def actor(K, bar, q):
    size, ne = V // K, E // K
    rng = np.random.default_rng(0)
    # in-edges grouped by source partition, src local to it
    off = np.linspace(0, ne, K + 1).astype(np.int64)
    src = np.sort(rng.integers(0, size, ne)).astype(np.int32)
    dst = rng.integers(0, size, ne)
    buf = np.empty(ne)
    chunks = [rng.random(size) for _ in range(K)]
    walls = []
    for _ in range(REPS):
        bar.wait()
        t0 = time.perf_counter()
        for j in range(K):
            a, b = off[j], off[j + 1]
            np.take(chunks[j], src[a:b], out=buf[a:b], mode="clip")
        np.bincount(dst, weights=buf, minlength=size)
        walls.append(time.perf_counter() - t0)
        bar.wait()
    q.put(walls)

def run(K):
    q, bar = Queue(), Barrier(K)
    ps = [Process(target=actor, args=(K, bar, q)) for _ in range(K)]
    [p.start() for p in ps]
    allw = [q.get() for _ in ps]
    [p.join() for p in ps]
    # per-rep wall = max across actors (BSP barrier semantics), median over reps
    per_rep = [max(w[i] for w in allw) for i in range(REPS)]
    med = float(np.median(per_rep[1:]))
    return med, E / med

if __name__ == "__main__":
    for K in (4, 16):
        med, agg = run(K)
        print(f"K={K}: synced per-step kernel {med*1000:.0f} ms, "
              f"aggregate {agg/1e6:.0f}M edges/s")
