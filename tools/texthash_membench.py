"""Bare-metal scaling probe for the texthash kernel family (no Ray).

Answers "is clean_corpus's sub-0.8 2→8 scaling the pipeline's fault or
the host's?" the same way tools/membench.py answers it for the engine's
dense pull gather: run the EXACT per-batch kernel the MinHash
stage runs (`texthash.minhash_band_hashes` — utf-8 → codepoints, prefix
-sum polynomial hashes, 64 permutation passes, band folds) over the
same synthetic corpus in K barrier-synchronized plain processes and
report aggregate docs/s at each K. If the bare kernel's K_lo→K_hi
efficiency matches the pipeline's, the limit is the box's memory
bandwidth, not the orchestration.

Usage: python tools/texthash_membench.py [K_lo K_hi] [n_docs]
Prints one JSON line.
"""

import json
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _kernel_fn(kernel):
    if kernel == "minhash":
        from ray_linkgraph.ops import texthash
        return lambda tbl: texthash.minhash_band_hashes(tbl.column("text"))
    if kernel == "filter":
        # the EXACT per-batch body of pipelines.quality_filter: three
        # Arrow RE2 kernel passes (quality, token count, language id)
        import numpy as np
        import pyarrow as pa
        from ray_linkgraph.ops import text
        langid = text.LangId()

        def fn(tbl):
            q = text.quality_stats(tbl, "text", "doc_id")
            tk = text.token_stats(tbl, "text", "doc_id")
            lg = langid(tbl)
            ok = (q.column("quality").to_numpy() >= 0.5) \
                & (tk.column("n_tokens").to_numpy() >= 5) \
                & np.isin(np.asarray(lg.column("lang_pred")), ["en"])
            return tbl.filter(pa.array(ok))
        return fn
    raise ValueError(kernel)


def _worker(path, batch, reps, barrier, out, kernel="minhash"):
    import pyarrow.parquet as pq
    cols = ["text"] if kernel == "minhash" else ["doc_id", "text"]
    tbl = pq.read_table(path, columns=cols)
    tbl = tbl.combine_chunks()
    n = len(tbl)
    fn = _kernel_fn(kernel)
    fn(tbl.slice(0, min(batch, n)))  # warm caches
    barrier.wait()
    t0 = time.monotonic()
    done = 0
    for r in range(reps):
        for lo in range(0, n, batch):
            fn(tbl.slice(lo, min(batch, n - lo)))
            done += min(batch, n - lo)
    out.put((done, time.monotonic() - t0))


def run_level(path, k, batch=2000, reps=1, kernel="minhash"):
    barrier = mp.Barrier(k)
    out = mp.Queue()
    procs = [mp.Process(target=_worker,
                        args=(path, batch, reps, barrier, out, kernel))
             for _ in range(k)]
    for p in procs:
        p.start()
    tot_docs, tot_wall = 0, 0.0
    for _ in procs:
        d, w = out.get()
        tot_docs += d
        tot_wall = max(tot_wall, w)
    for p in procs:
        p.join()
    return tot_docs / tot_wall


def main():
    k_lo = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    k_hi = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    n_docs = int(sys.argv[3]) if len(sys.argv) > 3 else 30_000
    kernel = sys.argv[4] if len(sys.argv) > 4 else "minhash"
    import bench
    path = bench.synth_docs_parquet(
        n_docs, f"/tmp/rlg_bench/scaling_docs_{n_docs}.parquet")
    lo = run_level(path, k_lo, kernel=kernel)
    hi = run_level(path, k_hi, kernel=kernel)
    print(json.dumps({
        "metric": f"bare {kernel} kernel, K={k_lo} vs K={k_hi} "
                  f"processes (no Ray)",
        "value": round((hi / lo) / (k_hi / k_lo), 3),
        "unit": "efficiency",
        f"docs_per_sec_{k_lo}": round(lo, 1),
        f"docs_per_sec_{k_hi}": round(hi, 1),
        "n_docs": n_docs,
    }))


if __name__ == "__main__":
    main()
