"""The three workloads: set-up, one closed-loop job, and its output check.

Every workload runs with Ray at 4 logical CPUs, graphs at P=4 partitions
(the smallest P that takes the engine's 2D grid path, R=C=2) and the
library's defaults. A job calls only the public ``ray_linkgraph`` API; a
traced job makes the same calls under spans (see ``tracing.py``).
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

import numpy as np

import inputs

P = 4
RESUME_FROM = 20     # pagerank_dense: manifests above this step are dropped


def du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def truncate_checkpoints(ckpt_dir: str, keep_step: int):
    """Simulate a crash after ``keep_step``: drop later manifests and files."""
    for f in os.listdir(ckpt_dir):
        if f.startswith("manifest_") and int(f[9:14]) > keep_step:
            os.remove(os.path.join(ckpt_dir, f))
        elif f.startswith("step_") and int(f[5:10]) > keep_step:
            shutil.rmtree(os.path.join(ckpt_dir, f))


class Layers:
    """Per-job layer metrics: sums, plus samples reduced by median."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.samples: dict[str, list] = {}

    def add(self, name, value):
        self.sums[name] = self.sums.get(name, 0.0) + value

    def sample(self, name, values):
        self.samples.setdefault(name, []).extend(values)

    def result(self) -> dict:
        out = dict(self.sums)
        out.update({k: statistics.median(v)
                    for k, v in self.samples.items() if v})
        return out


# -- engine calls ------------------------------------------------------------

def bsp(tr, layers: Layers, name: str, graph, max_supersteps: int,
        checkpoint_dir=None, resume=False, **params):
    """Run one BSP algorithm and collect its output table.

    Untraced, this is the public function. Traced, it makes the calls
    ``run_program`` makes, each under its own span, and waits for the
    partition actors to start so their start-up is timed apart from
    superstep 0."""
    import ray
    from ray_linkgraph import algorithms
    from ray_linkgraph.engine import BSPEngine

    with tr.span(f"algorithms.{name}" + ("_resume" if resume else "")):
        if not tr.enabled:
            res = getattr(algorithms, name)(
                graph, max_supersteps=max_supersteps,
                checkpoint_dir=checkpoint_dir, resume=resume, **params)
            return res, res.to_arrow()
        program = {"pagerank": algorithms.PageRankProgram,
                   "wcc": algorithms.WccProgram,
                   "lpa": algorithms.LpaProgram}[name](**params)
        with tr.span("graph.ensure_mode"):
            graph.ensure_mode(program.mode)
        with tr.span("engine.actor_setup"):
            eng = BSPEngine(graph, program, checkpoint_dir)
            ray.get([a.__ray_ready__.remote() for a in eng.actors])
        t0 = time.perf_counter()
        with tr.span("engine.run"):
            res = eng.run(max_supersteps=max_supersteps, resume=resume)
        run_s = time.perf_counter() - t0
        with tr.span("engine.output"):
            table = res.to_arrow()
    h = res.history
    walls = [x["wall_s"] for x in h]
    loop = [x["wall_s"] for x in h if x["step"] >= 1]
    layers.add("engine.step0_s", walls[0] if h and h[0]["step"] == 0 else 0.0)
    layers.add("engine.loop_s", sum(loop))
    layers.add("engine.supersteps", len(h))
    layers.add("engine.msgs", sum(x["msgs"] for x in h))
    for key, col in (("compute_s", "actor_compute_s"),
                     ("route_s", "actor_route_s"),
                     ("ckpt_s", "actor_ckpt_s")):
        layers.add(f"engine.{key}", sum(x[col] for x in h))
    layers.add("engine.exchange_wait_s",
               sum(x["wall_s"] - x["actor_wall_max_s"] for x in h))
    if resume:
        # load + rescatter + finish: the resumed run's wall outside its steps
        layers.add("engine.restore_s", run_s - sum(walls))
    layers.sample("engine.step_s", loop)
    layers.sample("engine.skew", [x["actor_wall_max_s"] * graph.P
                                  / x["actor_wall_sum_s"]
                                  for x in h if x["actor_wall_sum_s"] > 0])
    return res, table


def to_table(ds):
    import pyarrow as pa
    import ray
    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs())
                             if t.num_rows])


def sorted_column(table, col):
    return table.sort_by("v_id").column(col).to_numpy()


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    kind = ""        # which cached input (inputs.PREPARE key)
    work_unit = ""   # what work_per_s counts

    def __init__(self, work_dir: str, seed_dir: str, seed: int):
        self.work = work_dir
        self.seed_dir = seed_dir
        self.seed = seed
        ref = np.load(os.path.join(seed_dir, inputs.PREPARE[self.kind][1]))
        self.ref = {k: ref[k] for k in ref.files}
        self.setup_layers: dict[str, float] = {}   # facts from set-up
        self.setup_problems: list[str] = []

    @property
    def pages_dir(self):
        return os.path.join(self.seed_dir, "pages")

    def setup(self):
        """One repetition of the workload's set-up."""
        raise NotImplementedError

    def reset(self):
        """Untimed clean-up before each job."""
        fresh(os.path.join(self.work, "job"))

    def job(self, tr, layers: Layers):
        """Run one job; return (output, units of work done)."""
        raise NotImplementedError

    def check(self, out, layers: Layers) -> tuple[list[str], str]:
        """Untimed: (problems found, digest of the output)."""
        raise NotImplementedError


def graph_facts(g, gdir) -> dict:
    stages = g.meta.get("build_stage_secs", {})
    return {"graph.url_stream_s": stages.get("url_stream", 0.0),
            "graph.boundary_sample_s": stages.get("boundary_sample", 0.0),
            "graph.dict_build_s": stages.get("dict_build", 0.0),
            "graph.encode_write_s": stages.get("encode_partition_write", 0.0),
            "graph.V": g.V, "graph.E": g.num_edges("out"),
            "graph.disk_bytes": du(gdir)}


def check_graph(g, ref, gdir) -> list[str]:
    import pyarrow.parquet as pq
    problems = []
    if g.V != int(ref["V"]) or g.num_edges("out") != int(ref["E"]):
        problems.append(f"graph V/E {g.V}/{g.num_edges('out')} != "
                        f"{int(ref['V'])}/{int(ref['E'])}")
    t = pq.read_table(os.path.join(gdir, "edges_out"),
                      columns=["src_id", "dst_id"])
    key = np.sort(t.column("src_id").to_numpy() * g.V
                  + t.column("dst_id").to_numpy())
    if inputs.digest(key // g.V, key % g.V) != str(ref["edges_digest"]):
        problems.append("graph edge set differs from the reference")
    if g.num_edges("both") != int(ref["E_both"]):
        problems.append("both-mode edge count differs from the reference")
    return problems


class IngestPages(Workload):
    """pages parquet -> extract links and text -> graph build -> both mode."""
    name, kind, work_unit = "ingest_pages", "pages", "pages"

    def setup(self):
        # a warm-up job over one page shard: starts the Ray Data workers
        # every stage uses
        from tracing import Tracer
        self.ingest(Tracer(), os.path.join(self.pages_dir,
                                           "pages_00000.parquet"),
                    os.path.join(fresh(os.path.join(self.work, "warm")),
                                 "graph"))

    def job(self, tr, layers):
        gdir = os.path.join(self.work, "job", "graph")
        return self.ingest(tr, self.pages_dir, gdir), inputs.N_PAGES

    def ingest(self, tr, pages_path, gdir):
        import ray.data as rd
        from ray_linkgraph.extract import extract_links, extract_text
        from ray_linkgraph.graph import build_graph
        pages = rd.read_parquet(pages_path)
        with tr.span("extract.links"):
            edges = extract_links(pages).materialize()
        with tr.span("extract.text"):
            text = extract_text(pages).materialize()
        with tr.span("graph.build"):
            g = build_graph(edges, gdir, n_parts=P,
                            extra_url_ds=pages.select_columns(["url"]))
        with tr.span("graph.ensure_both"):
            g.ensure_mode("both")
        return edges, text, g, gdir

    def check(self, out, layers):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        edges, text, g, gdir = out
        problems = check_graph(g, self.ref, gdir)
        n_edges = edges.count()
        if n_edges != int(self.ref["raw_edges"]):
            problems.append(f"extracted {n_edges} links, expected "
                            f"{int(self.ref['raw_edges'])}")
        got = to_table(text).sort_by("url")
        want = pq.read_table(self.pages_dir,
                             columns=["url", "text"]).sort_by("url")
        if got.column("url").to_pylist() != want.column("url").to_pylist():
            problems.append("extracted text rows differ from the pages")
            mismatches = want.num_rows
        else:
            mismatches = int(pc.sum(pc.not_equal(
                got.column("text"), want.column("text"))).as_py() or 0)
        if mismatches:
            problems.append(f"{mismatches} extracted texts differ")
        layers.add("extract.edges", n_edges)
        layers.add("extract.text_mismatches", mismatches)
        for k, v in graph_facts(g, gdir).items():
            layers.add(k, v)
        both = pq.read_table(os.path.join(gdir, "edges_both"))
        text_bytes = "\0".join(got.column("text").to_pylist()).encode()
        return problems, inputs.digest(
            np.sort(both.column("src_id").to_numpy() * g.V
                    + both.column("dst_id").to_numpy()),
            np.frombuffer(text_bytes, dtype=np.uint8))


class PagerankDense(Workload):
    """PageRank, 40 supersteps with a checkpoint each, then a resume from
    step 20 over the same graph: one job is the run plus its recovery."""
    name, kind, work_unit = "pagerank_dense", "synth", "edge traversals"

    def setup(self):
        from ray_linkgraph.synth import build_synthetic_graph
        # a fresh dir, so no cached edge count: each repetition counts
        base = fresh(os.path.join(self.work, "synth"))
        self.graph = build_synthetic_graph(
            os.path.join(base, "g"), inputs.SYNTH_V,
            avg_deg=inputs.SYNTH_DEG, n_parts=P, seed=self.seed)
        self.setup_layers = {"graph.V": self.graph.V,
                             "graph.E": self.graph.num_edges("out")}

    def job(self, tr, layers):
        ck = os.path.join(self.work, "job", "ckpt")
        kw = dict(max_supersteps=inputs.DENSE_STEPS, checkpoint_dir=ck,
                  l1_threshold=0.0)
        full, t_full = bsp(tr, layers, "pagerank", self.graph, **kw)
        truncate_checkpoints(ck, RESUME_FROM)
        res, t_res = bsp(tr, layers, "pagerank", self.graph, resume=True,
                         **kw)
        work = self.graph.num_edges("out") * (full.supersteps
                                              + len(res.history))
        return (full, t_full, res, t_res, ck), work

    def check(self, out, layers):
        full, t_full, res, t_res, ck = out
        problems = []
        ranks = sorted_column(t_full, "rank")
        steps = int(self.ref["pagerank_steps"])
        if self.graph.num_edges("out") != int(self.ref["E"]):
            problems.append("synthetic edge count differs from the reference")
        if full.supersteps != steps or res.supersteps != steps:
            problems.append(f"supersteps {full.supersteps}/{res.supersteps}"
                            f" != {steps}")
        if not np.allclose(ranks, self.ref["pagerank"], rtol=1e-6, atol=0):
            problems.append("pagerank differs from the reference")
        if not np.array_equal(ranks, sorted_column(t_res, "rank")):
            problems.append("resumed pagerank is not bit-identical")
        layers.add("engine.ckpt_bytes", du(ck))
        return problems, inputs.digest(ranks)


class GraphQueries(Workload):
    """WCC (checkpointed), LPA, triangle count and PageRank to 1e-6 over the
    ingest_pages graph of the same seed, built during set-up."""
    name, kind, work_unit = "graph_queries", "pages", "queries"

    def setup(self):
        import ray.data as rd
        from ray_linkgraph.extract import extract_links
        from ray_linkgraph.graph import build_graph
        gdir = fresh(os.path.join(self.work, "qgraph"))
        pages = rd.read_parquet(self.pages_dir)
        t0 = time.perf_counter()
        self.graph = build_graph(extract_links(pages), gdir, n_parts=P,
                                 extra_url_ds=pages.select_columns(["url"]))
        t1 = time.perf_counter()
        self.graph.ensure_mode("both")
        t2 = time.perf_counter()
        self.setup_layers = {**graph_facts(self.graph, gdir),
                             "graph.build_s": t1 - t0,
                             "graph.ensure_both_s": t2 - t1}
        self.setup_problems = check_graph(self.graph, self.ref, gdir)

    def job(self, tr, layers):
        from ray_linkgraph.algorithms import triangle_count
        g = self.graph
        _, wcc_t = bsp(tr, layers, "wcc", g, max_supersteps=10**6,
                        checkpoint_dir=os.path.join(self.work, "job", "ckpt"))
        _, lpa_t = bsp(tr, layers, "lpa", g, max_supersteps=inputs.LPA_STEPS)
        with tr.span("algorithms.triangle_count"):
            tri_ds = triangle_count(g).materialize()
            tri_t = to_table(tri_ds)
        pr_r, pr_t = bsp(tr, layers, "pagerank", g,
                         max_supersteps=inputs.QUERY_PR_STEPS,
                         l1_threshold=1e-6)
        return (wcc_t, lpa_t, tri_ds, tri_t, pr_r, pr_t), 4

    def check(self, out, layers):
        wcc_t, lpa_t, tri_ds, tri_t, pr_r, pr_t = out
        problems = []
        got = {"wcc": sorted_column(wcc_t, "component"),
               "lpa": sorted_column(lpa_t, "label"),
               "triangles": sorted_column(tri_t, "triangles"),
               "pagerank": sorted_column(pr_t, "rank")}
        for k in ("wcc", "lpa", "triangles"):
            if not np.array_equal(got[k], self.ref[k]):
                problems.append(f"{k} differs from the reference")
        if pr_r.supersteps != int(self.ref["pagerank_steps"]):
            problems.append("pagerank superstep count differs")
        if not np.allclose(got["pagerank"], self.ref["pagerank"], rtol=1e-6,
                           atol=0):
            problems.append("pagerank differs from the reference")
        for op, secs in triangle_operator_secs(tri_ds.stats()).items():
            layers.add(f"triangle.op.{op}_s", secs)
        layers.add("engine.ckpt_bytes", du(os.path.join(self.work, "job",
                                                        "ckpt")))
        return problems, inputs.digest(*got.values())


_OP_RE = re.compile(r"^Operator \d+ (.+?): .*? in ([0-9.]+)s", re.M)


def triangle_operator_secs(stats: str) -> dict[str, float]:
    """Per-operator wall from ``Dataset.stats()``, keyed by the UDF name
    (``sort`` for the shuffles; Ray reports each sort with the same
    whole-shuffle wall, so the largest is kept)."""
    out: dict[str, float] = {}
    for name, secs in _OP_RE.findall(stats):
        udfs = re.findall(r"MapBatches\((\w+)\)", name)
        key = udfs[0] if udfs else name.split("(")[0].lower()
        out[key] = max(out.get(key, 0.0), float(secs))
    return out


WORKLOADS = {w.name: w for w in (IngestPages, PagerankDense, GraphQueries)}
