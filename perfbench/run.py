"""Link-graph benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload ingest_pages|pagerank_dense|graph_queries
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs and their numpy references are
made once per seed (``inputs.py``, in a child process) and cached under
``.bench_work/``. The run then starts Ray, repeats the workload's set-up,
and runs jobs until ``S`` seconds of job wall time have passed, checking
every job's output. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones. The last line of stdout is the
result object; the line before it holds the run's details and host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAY_CPUS = 4
SETUP_REPS = 3
KEEP_SEEDS = 8            # cached seed inputs kept in .bench_work/cache
RSS_AFTER_JOBS = 2        # driver_peak_rss_mb is read after this many jobs
OBJECT_STORE_BYTES = 512 * 1024 ** 2
# Fixed for every run, whatever the caller's environment holds: no usage
# reports sent out, no Ray OOM killer on a shared host, one BLAS/OpenMP
# thread per process, and no progress bars or log de-duplication.
RUN_ENV = {"RAY_USAGE_STATS_ENABLED": "0",
           "RAY_memory_monitor_refresh_ms": "0",
           "OMP_NUM_THREADS": "1",
           "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
           "RAY_DISABLE_IMPORT_WARNING": "1",
           "RAY_DEDUP_LOGS": "0"}
# AF_UNIX socket paths hold at most 107 bytes. Ray's longest socket is its
# temp dir plus this (a 7-digit pid at most).
SOCKET_MAX = 107
RAY_SOCKET_TAIL = len("/session_2000-01-01_00-00-00_000000_1234567"
                      "/sockets/plasma_store")


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric units, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def start_ray(work: str) -> float:
    import logging

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import ray
    import ray.data
    temp = os.path.join(work, "ray")
    shutil.rmtree(temp, ignore_errors=True)   # logs of earlier runs
    if len(temp.encode()) + RAY_SOCKET_TAIL > SOCKET_MAX:
        # too long for Ray's sockets: name the same directory through this
        # process's cwd link (the cwd is the checkout root)
        temp = f"/proc/{os.getpid()}/cwd/{os.path.relpath(temp, ROOT)}"
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=temp)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return time.perf_counter() - t0


def stop_ray():
    """Shut Ray down and wait until every process it started has ended."""
    import ray
    import psutil   # ships with ray, importable once ray is imported
    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=15)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=5)


def prune_cache(cache: str, current: str):
    """Keep the KEEP_SEEDS most recently used seed dirs, ``current`` too."""
    os.utime(current)
    dirs = sorted((os.path.join(cache, d) for d in os.listdir(cache)),
                  key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_SEEDS:]:
        if d != current:
            shutil.rmtree(d, ignore_errors=True)


def run_jobs(wl, tr, seconds: float, trace: bool) -> list[dict]:
    """A warm-up job, then a closed loop until ``seconds`` of job wall.
    The warm-up job is checked but not timed: the first job of a run
    starts slower. After it, traced runs alternate untraced and traced
    jobs, at least one of each."""
    from workloads import Layers

    jobs, busy, first_digest = [], 0.0, None
    while busy < seconds or (trace and len(jobs) < 3):
        i = len(jobs)
        warmup = i == 0
        traced = trace and i % 2 == 0 and not warmup
        wl.reset()
        layers = Layers()
        tr.start_job(i, traced)
        out, work, problems = None, 0, []
        t0 = time.perf_counter()
        try:
            with tr.span("bench.job"):
                out, work = wl.job(tr, layers)
        except Exception:
            problems.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - t0
        if not problems:
            try:
                problems, digest = wl.check(out, layers)
            except Exception:
                problems.append(traceback.format_exc(limit=4))
        problems = wl.setup_problems + problems
        if not problems:
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("output digest differs from the first job's")
        jobs.append({"wall": wall, "warmup": warmup, "traced": traced,
                     "work": work,
                     "problems": problems, "walls": dict(tr.walls),
                     "layers": layers.result(),
                     "self": tr.self_times(i) if traced else {},
                     "peak_rss_mb": resource.getrusage(
                         resource.RUSAGE_SELF).ru_maxrss / 1024})
        if not warmup:
            busy += wall
    return jobs


def summary(values: list[float]) -> dict:
    """Median, and the largest value: with fewer than 11 samples no
    percentile below the maximum has ten samples beyond it."""
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


def layer_metrics(wl, jobs, names) -> dict:
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not (j["traced"] or j["warmup"])]
    per_job = []
    for j in traced:
        m = dict(wl.setup_layers)
        m.update({f"{k}_s": v for k, v in j["walls"].items()})
        m.update(j["layers"])
        m.update({f"{k}.self_s": v for k, v in j["self"].items()})
        m["trace.job_s"] = j["wall"]
        m["trace.attributed"] = 1.0 - j["self"].get("bench", 0.0) / j["wall"]
        per_job.append(m)
    out = {name: statistics.median(m.get(name, 0.0) for m in per_job)
           for name in names}
    out["trace.overhead"] = (statistics.median(j["wall"] for j in traced)
                             / statistics.median(j["wall"] for j in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "ray_linkgraph")):
        print(f"no ray_linkgraph package under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.update(RUN_ENV)
    sys.path[:0] = [HERE, ROOT]
    import inputs
    from tracing import Tracer
    from workloads import P, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    Wl = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work")
    cache = os.path.join(work, "cache")
    subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                    "--root", ROOT, "--cache", cache, "--seed",
                    str(args.seed), "--kind", Wl.kind], check=True)
    prune_cache(cache, inputs.seed_dir(cache, args.seed))

    import ray
    # Ray's start is not part of setup_s: ray.init retries its first
    # connection to the GCS after a fixed 1 s sleep, so the start time
    # jumps by a second at random, whatever the program does
    ray_start_s = start_ray(work)
    try:
        wl = Wl(os.path.join(work, args.workload),
                inputs.seed_dir(cache, args.seed), args.seed)
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            reps.append(time.perf_counter() - t0)
        tr = Tracer()
        jobs = run_jobs(wl, tr, args.seconds, bool(args.trace))
        ray_cpus = ray.cluster_resources().get("CPU")
    finally:
        stop_ray()

    plain = [j for j in jobs if not (j["traced"] or j["warmup"])]
    failed = sum(1 for j in jobs if j["problems"])
    timings = {"job_s": summary([j["wall"] for j in plain])}
    for name in sorted({k for j in plain for k in j["walls"]} - {"bench.job"}):
        timings[f"{name}_s"] = summary([j["walls"].get(name, 0.0)
                                        for j in plain])
    if args.trace:
        trace_file = os.path.join(
            work, f"trace_{args.workload}_{args.seed}.jsonl")
        tr.dump(trace_file)
        units = declared_metrics()[1]
        metrics = layer_metrics(wl, jobs, units)
    else:
        trace_file = None
        metrics = {
            "setup_s": statistics.median(reps),
            "job_s": timings["job_s"]["median"],
            "work_per_s": (sum(j["work"] for j in plain)
                           / sum(j["wall"] for j in plain)),
            # after a fixed number of jobs, so that a faster program,
            # which fits more jobs into the window, is not charged for it
            "driver_peak_rss_mb": jobs[:RSS_AFTER_JOBS][-1]["peak_rss_mb"],
        }
        units = declared_metrics()[0]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": {"cpu_count": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0)),
                 "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
                 "ray_logical_cpus": ray_cpus, "partitions": P,
                 "python": platform.python_version()},
        "inputs": {"pages": inputs.N_PAGES, "synth_V": inputs.SYNTH_V,
                   "synth_avg_deg": inputs.SYNTH_DEG},
        "work_unit": Wl.work_unit,
        "samples": {"jobs": len(jobs), "warmup_jobs": 1,
                    "untraced_jobs": len(plain),
                    "setup_reps": len(reps)},
        "setup": {"ray_start_s": ray_start_s, "reps_s": reps},
        "timings_s": timings,
        "job_walls_s": [j["wall"] for j in jobs],
        "failed_ratio": failed / len(jobs),
        "problems": [p for j in jobs for p in j["problems"]][:5],
        "trace_file": trace_file,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
