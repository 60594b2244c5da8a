"""``ray job submit`` entrypoint — the flagship pages→PageRank pipeline
as a self-contained job (north_rule: "run via ray job submit on a
fixed-size multi-node Ray cluster").

Usage (cluster):

    ray job submit --working-dir . -- \\
        python -m ray_linkgraph.job --pages /data/pages \\
        --workdir /data/run1 --algorithm pagerank --n-parts 64 --resume

Usage (local smoke):

    python -m ray_linkgraph.job --generate 50000 --workdir /tmp/job1

The job is RESUMABLE end-to-end: the graph build reuses finished
artifacts in ``<workdir>/graph`` and ``--resume`` continues the
superstep loop from the last committed checkpoint manifest in
``<workdir>/ckpt`` (per-partition lineage + metrics.jsonl). Results are
written as partitioned parquet under ``<workdir>/result``.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pages", help="parquet dir of web pages "
                    "(url, warc_ts, html, text, lang)")
    ap.add_argument("--generate", type=int, default=0,
                    help="generate N synthetic pages instead of --pages")
    ap.add_argument("--workdir", required=True,
                    help="job state root (graph/, ckpt/, result/)")
    ap.add_argument("--algorithm", default="pagerank",
                    choices=["pagerank", "wcc", "lpa", "triangle_count"])
    ap.add_argument("--n-parts", type=int, default=0,
                    help="partitions (default: cluster CPUs)")
    ap.add_argument("--l1-threshold", type=float, default=1e-6)
    ap.add_argument("--max-supersteps", type=int, default=100)
    ap.add_argument("--limit-edges-per-vertex", type=int, default=None,
                    help="degree cap at load (reference "
                         "input.limit_edges_in_one_vertex)")
    ap.add_argument("--properties-merge", default="min",
                    choices=["min", "max", "sum", "mean"],
                    help="duplicate-edge weight merge policy (reference "
                         "edge-properties combiner config point)")
    ap.add_argument("--resume", action="store_true",
                    help="continue from the last committed checkpoint")
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():       # ray job submit pre-initializes
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))
    import ray.data as rd

    from .extract import extract_links
    from .graph import build_graph
    from .pages import generate_pages

    t0 = time.monotonic()
    if args.generate:
        pages_dir = generate_pages(
            args.generate, os.path.join(args.workdir, "pages"))
    elif args.pages:
        pages_dir = args.pages
    else:
        ap.error("one of --pages / --generate is required")
    from ray_linkgraph._util import read_parquet_nm
    pages = read_parquet_nm(pages_dir)
    n_parts = args.n_parts or max(
        2, int(ray.cluster_resources().get("CPU", 8)))
    g = build_graph(extract_links(pages),
                    os.path.join(args.workdir, "graph"), n_parts=n_parts,
                    extra_url_ds=read_parquet_nm(pages_dir, columns=["url"]),
                    limit_edges_per_vertex=args.limit_edges_per_vertex,
                    properties_merge=args.properties_merge)
    t_build = time.monotonic() - t0

    ckpt = os.path.join(args.workdir, "ckpt", args.algorithm)
    t0 = time.monotonic()
    if args.algorithm == "pagerank":
        from .algorithms import pagerank
        res = pagerank(g, l1_threshold=args.l1_threshold,
                       max_supersteps=args.max_supersteps,
                       checkpoint_dir=ckpt, resume=args.resume)
    elif args.algorithm == "wcc":
        from .algorithms import wcc
        res = wcc(g, max_supersteps=args.max_supersteps,
                  checkpoint_dir=ckpt, resume=args.resume)
    elif args.algorithm == "lpa":
        from .algorithms import lpa
        res = lpa(g, max_supersteps=min(args.max_supersteps, 10),
                  checkpoint_dir=ckpt, resume=args.resume)
    else:
        from .algorithms import triangle_count
        res = triangle_count(g)
    t_alg = time.monotonic() - t0

    out_dir = os.path.join(args.workdir, "result", args.algorithm)
    ds = res.to_dataset() if hasattr(res, "to_dataset") else res
    g.attach_urls(ds).write_parquet(out_dir)

    E = g.num_edges("out")
    steps = getattr(res, "supersteps", None)
    summary = {
        "algorithm": args.algorithm, "V": g.V, "E": E,
        "n_parts": n_parts, "build_sec": round(t_build, 2),
        "compute_sec": round(t_alg, 2), "supersteps": steps,
        "supersteps_per_sec": (round(steps / t_alg, 3)
                               if steps and t_alg else None),
        "edges_per_sec": (round(E * steps / t_alg)
                          if steps and t_alg else None),
        "aggs": getattr(res, "aggs", None), "result_dir": out_dir,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
