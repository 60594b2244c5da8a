"""Engine invariants: layout independence of the dense pull exchange and
property-based checks for the message-payload / hashing kernels."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ray_linkgraph.engine import RaggedCol
from ray_linkgraph.graph import build_graph
from ray_linkgraph.ops import texthash


def test_pagerank_layout_independent(work_dir):
    """Same graph, P=2 vs P=4 partitions: identical ranks up to float
    summation order."""
    import os
    edges = [(i, (i * 7 + 3) % 50) for i in range(50)] + \
            [(i, (i + 1) % 50) for i in range(50)]
    t = pa.table({"src": [str(a) for a, b in edges],
                  "dst": [str(b) for a, b in edges]})
    from ray_linkgraph.algorithms import pagerank
    g2 = build_graph(rd.from_arrow(t), os.path.join(work_dir, "li_p2"),
                     n_parts=2)
    g4 = build_graph(rd.from_arrow(t), os.path.join(work_dir, "li_p4"),
                     n_parts=4)
    r2 = pagerank(g2, l1_threshold=0.0, max_supersteps=12).to_arrow() \
        .to_pandas().sort_values("v_id")["rank"].to_numpy()
    r4 = pagerank(g4, l1_threshold=0.0, max_supersteps=12).to_arrow() \
        .to_pandas().sort_values("v_id")["rank"].to_numpy()
    assert np.allclose(r2, r4, atol=1e-12, rtol=0)


@settings(max_examples=5, deadline=None)  # each example runs Ray jobs
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 5),
                          st.integers(-1000, 1000)),
                min_size=1, max_size=200),
       st.sampled_from(["sum", "min"]))
def test_agg_by_int_keys_matches_plain_groupby(rows, reduce):
    """The coarse-hash reduceat combiner must equal a plain dict
    groupby for any integer data, any chunking, both reductions."""
    from ray_linkgraph import _util
    from ray_linkgraph._util import agg_by_int_keys
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    v = np.array([r[2] for r in rows], dtype=np.int64)
    t = pa.table({"ka": pa.array(a), "kb": pa.array(b), "v": pa.array(v)})
    exp = {}
    for ka, kb, vv in rows:
        key = (ka, kb)
        if reduce == "sum":
            exp[key] = exp.get(key, 0) + vv
        else:
            exp[key] = min(exp.get(key, vv), vv)
    # several block layouts -> identical result
    for nblocks in (1, 3):
        ds = rd.from_arrow([t.slice(i * len(t) // nblocks,
                                    (i + 1) * len(t) // nblocks
                                    - i * len(t) // nblocks)
                            for i in range(nblocks)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_util, "n_groups", lambda _: 4)
            out = agg_by_int_keys(ds, ["ka", "kb"], "v", "out",
                                  reduce=reduce).to_pandas()
        got = {(r["ka"], r["kb"]): r["out"] for _, r in out.iterrows()}
        assert got == exp


def _ranks(res):
    return res.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()


def _pull_graph(work_dir, n_parts):
    """40 vertices: receivers r00-r19 (ids 0-19, every fifth one
    dangling) and senders s00-s19 (ids 20-39) that nothing points to, so
    at every P > 1 some partition gets no in-edge."""
    import os
    edges = [(f"r{i:02d}", f"r{d:02d}") for i in range(20) if i % 5
             for d in ((3 * i + 1) % 20, (7 * i + 2) % 20)]
    edges += [(f"s{i:02d}", f"r{d:02d}") for i in range(20)
              for d in (i, (11 * i + 5) % 20)]
    t = pa.table({"src": [a for a, b in edges], "dst": [b for a, b in edges]})
    return build_graph(rd.from_arrow(t),
                       os.path.join(work_dir, f"pull_p{n_parts}"),
                       n_parts=n_parts)


def _stored_edges(g):
    import pyarrow.parquet as pq
    t = pa.concat_tables([pq.read_table(g.edges_path("out", p))
                          for p in range(g.P)])
    return t.column("src_id").to_numpy(), t.column("dst_id").to_numpy()


@pytest.mark.parametrize("n_parts", [1, 2, 3, 4, 5, 8])
def test_pagerank_pull_matches_power_iteration(work_dir, n_parts):
    """The dense pull exchange at any P equals a numpy power iteration of
    the reference's update rule, with the same superstep count, and a
    rerun is byte-equal."""
    from naive_ref import naive_pagerank
    from ray_linkgraph.algorithms import pagerank
    g = _pull_graph(work_dir, n_parts)
    src, dst = _stored_edges(g)
    out_adj = [dst[src == v].tolist() for v in range(g.V)]
    assert any(not a for a in out_adj)                     # dangling
    if n_parts > 1:                      # a partition no edge points into
        assert set(range(g.P)) - set((dst // g.part_size).tolist())
    exp, steps = naive_pagerank(g.V, out_adj, thresh=1e-9, max_steps=60)
    res = pagerank(g, l1_threshold=1e-9, max_supersteps=60)
    assert res.supersteps == steps < 60
    assert np.allclose(_ranks(res), exp, atol=1e-12, rtol=0)
    assert all(h["msgs"] == len(src) for h in res.history)
    # the sum's order is static, so a rerun is byte-equal
    rerun = pagerank(g, l1_threshold=1e-9, max_supersteps=60)
    assert _ranks(rerun).tobytes() == _ranks(res).tobytes()


def test_pagerank_pull_synthetic_graph(work_dir):
    """On a synthetic graph (edges regenerated per partition, no files)
    the dense pull also equals the power iteration."""
    import os
    from naive_ref import naive_pagerank
    from ray_linkgraph.algorithms import pagerank
    from ray_linkgraph.synth import build_synthetic_graph, \
        synth_edges_for_range
    g = build_synthetic_graph(os.path.join(work_dir, "synth_pull"), V=3000,
                              avg_deg=4, n_parts=3, seed=7)
    src, dst = synth_edges_for_range(3000, 4, 7, 0, 3000)
    out_adj = np.split(dst, np.searchsorted(src, np.arange(1, 3000)))
    exp, steps = naive_pagerank(3000, out_adj, thresh=1e-9, max_steps=60)
    res = pagerank(g, l1_threshold=1e-9, max_supersteps=60)
    assert res.supersteps == steps < 60
    assert np.allclose(_ranks(res), exp, atol=1e-12, rtol=0)


def test_dense_inbox_mask_is_in_degree(work_dir):
    """A dense program's inbox has a mask: the static in-degree > 0 mask
    of its partition (here read by a toy EdgeScatter program that also
    sums ones, i.e. counts in-edges)."""
    from ray_linkgraph.engine import EdgeScatter, VertexProgram, run_program

    class InEdges(VertexProgram):
        dense = True

        def init(self, ctx, g):
            return {"seen": np.zeros(ctx.size, dtype=bool),
                    "indeg": np.zeros(ctx.size)}

        def compute0(self, ctx, state, g):
            return EdgeScatter("out", np.ones(ctx.size)), {}, {}

        def compute(self, ctx, state, inbox, g, s):
            state["seen"], state["indeg"] = inbox.mask.copy(), inbox.sum
            return EdgeScatter("out", np.ones(ctx.size)), {}, {}

        def output(self, ctx, state):
            return state

    g = _pull_graph(work_dir, 4)
    _, dst = _stored_edges(g)
    indeg = np.bincount(dst, minlength=g.V)
    t = run_program(g, InEdges(), max_supersteps=2).to_arrow() \
        .to_pandas().sort_values("v_id")
    assert (t["indeg"].to_numpy() == indeg).all()
    assert (t["seen"].to_numpy() == (indeg > 0)).all()
    assert not t["seen"].to_numpy()[20:].any()


def test_dense_scatter_length_checked(work_dir):
    """A dense scatter must carry one value per vertex of its partition:
    a short chunk fails the run (the receivers' gather would clip)."""
    from ray_linkgraph.engine import EdgeScatter, VertexProgram, run_program

    class Short(VertexProgram):
        dense = True

        def init(self, ctx, g):
            return {}

        def compute0(self, ctx, state, g):
            return EdgeScatter("out", np.ones(ctx.size - 1)), {}, {}

    with pytest.raises(Exception, match="EdgeScatter has"):
        run_program(_pull_graph(work_dir, 2), Short(), max_supersteps=2)


def _pool_ids(g):
    from ray_linkgraph import engine
    return [a._actor_id for a in engine._POOLS[g]["actors"]]


def _edge_graph(edges, path, n_parts):
    t = pa.table({"src": [str(a) for a, b in edges],
                  "dst": [str(b) for a, b in edges]})
    return build_graph(rd.from_arrow(t), path, n_parts=n_parts)


def test_actor_pool_cache_reuse(work_dir):
    """Successive runs on one Graph re-arm its partition-actor pool (same
    actor ids) across programs and edge modes; results are bit-equal to a
    run on a fresh Graph.load of the same dir, which gets its own pool;
    the pool keeps no reference to its Graph, so the Graph can go."""
    import gc
    import os
    import weakref
    from ray_linkgraph import engine
    from ray_linkgraph.algorithms import pagerank, wcc
    from ray_linkgraph.graph import Graph
    g = _edge_graph([(i, (i * 3 + 1) % 20) for i in range(20)],
                    os.path.join(work_dir, "cache_g"), 2)
    r1 = _ranks(pagerank(g, l1_threshold=0.0, max_supersteps=6))
    pool1 = _pool_ids(g)
    # different program + different edge MODE on the same pool
    w = wcc(g, max_supersteps=10).to_arrow().to_pandas()
    assert _pool_ids(g) == pool1                  # reused, not rebuilt
    r2 = _ranks(pagerank(g, l1_threshold=0.0, max_supersteps=6))
    assert _pool_ids(g) == pool1
    fresh = Graph.load(g.dir)
    base = _ranks(pagerank(fresh, l1_threshold=0.0, max_supersteps=6))
    assert not set(_pool_ids(fresh)) & set(pool1)
    assert np.array_equal(r1, base) and np.array_equal(r2, base)
    assert len(set(w["component"])) >= 1
    gone = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert gone() is None and g in engine._POOLS


def test_actor_pool_respawns_after_actor_death(work_dir):
    """A pool actor killed between two runs: the next engine finds the
    pool dead while arming it, starts a fresh pool once, and its run is
    bit-identical to the uninterrupted one."""
    import os
    import time
    import ray
    from ray_linkgraph import engine
    from ray_linkgraph.algorithms import pagerank
    g = _edge_graph([(i, (i * 7 + 3) % 40) for i in range(40)]
                    + [(i, (i + 1) % 40) for i in range(40)],
                    os.path.join(work_dir, "kill_g"), 4)
    want = _ranks(pagerank(g, l1_threshold=0.0, max_supersteps=10))
    pool1 = _pool_ids(g)
    victim = engine._POOLS[g]["actors"][1]
    ray.kill(victim)
    deadline = time.monotonic() + 60
    while True:                     # wait until Ray reports the death
        try:
            ray.get(victim.__ray_ready__.remote())
        except ray.exceptions.RayActorError:
            break
        assert time.monotonic() < deadline
        time.sleep(0.1)
    got = _ranks(pagerank(g, l1_threshold=0.0, max_supersteps=10))
    assert not set(_pool_ids(g)) & set(pool1)     # a fresh pool
    assert np.array_equal(got, want)


def test_actor_pool_rearmed_by_later_engine(work_dir):
    """Building an engine re-arms the graph's pool for its program, so an
    engine built earlier on the same graph refuses to run; the later
    engine runs normally."""
    import os
    from ray_linkgraph.algorithms import PageRankProgram, WccProgram, wcc
    from ray_linkgraph.engine import BSPEngine
    g = _edge_graph([(i, (i * 3 + 1) % 20) for i in range(20)],
                    os.path.join(work_dir, "rearm_g"), 2)
    g.ensure_mode("both")
    first = BSPEngine(g, PageRankProgram(l1_threshold=0.0))
    second = BSPEngine(g, WccProgram())
    with pytest.raises(RuntimeError, match="re-armed"):
        first.run(max_supersteps=6)
    got = second.run(max_supersteps=100).to_arrow().sort_by("v_id")
    assert got.equals(wcc(g).to_arrow().sort_by("v_id"))


def test_actor_pool_after_ray_restart(work_dir):
    """A Graph kept across ray.shutdown/ray.init (a memoised gate graph, a
    notebook) gets a fresh pool in the new session: the old actor handles
    belong to the earlier session and cannot be called. Runs in a child
    process, since it restarts Ray."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path
    gdir = os.path.join(work_dir, "restart_g")
    script = textwrap.dedent(f"""
        import pyarrow as pa
        import ray
        import ray.data as rd
        from ray_linkgraph.algorithms import pagerank
        from ray_linkgraph.graph import build_graph

        def start():
            ray.init(address="local", num_cpus=2, include_dashboard=False,
                     logging_level="ERROR")
            rd.DataContext.get_current().enable_progress_bars = False

        start()
        t = pa.table({{"src": ["a", "b", "c"], "dst": ["b", "c", "a"]}})
        g = build_graph(rd.from_arrow(t), {gdir!r}, n_parts=2)
        before = pagerank(g, max_supersteps=4).to_arrow().sort_by("v_id")
        ray.shutdown()
        start()
        after = pagerank(g, max_supersteps=4).to_arrow().sort_by("v_id")
        ray.shutdown()
        print("EQUAL" if before.equals(after) else "DIFFERENT")
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600,
                         cwd=Path(__file__).resolve().parents[1])
    assert out.stdout.strip().endswith("EQUAL"), out.stderr[-3000:]


def test_no_rlg_env_knobs():
    """Tuning goes through code, not environment switches: no source file
    of the library, its tools or bench.py mentions an RLG_ variable."""
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    files = [*root.glob("ray_linkgraph/**/*.py"),
             *root.glob("tools/**/*.py"), root / "bench.py"]
    hits = [f"{p.relative_to(root)}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "RLG_" in line]
    assert files and not hits


def test_degenerate_graphs(work_dir):
    """Self-loop-only and isolated-vertex inputs run end-to-end: loops
    are dropped at canonicalization, isolated vertices still get ranks
    (reference loads isolated vertices; uniform dangling mass)."""
    import os
    from ray_linkgraph.algorithms import pagerank, wcc
    # every edge is a self loop -> E = 0, V = 3; all vertices dangling
    t = pa.table({"src": ["a", "b", "c"], "dst": ["a", "b", "c"]})
    g = build_graph(rd.from_arrow(t), os.path.join(work_dir, "deg_loop"),
                    n_parts=2)
    assert g.V == 3 and g.num_edges("out") == 0
    r = pagerank(g, l1_threshold=1e-9, max_supersteps=30).to_arrow()
    ranks = r.to_pandas().sort_values("v_id")["rank"].to_numpy()
    assert np.allclose(ranks, 1.0 / 3, atol=1e-9)
    w = wcc(g, max_supersteps=10).to_arrow().to_pandas()
    assert sorted(w["component"].tolist()) == [0, 1, 2]  # three singletons
    # extra isolated urls only, single real edge
    t2 = pa.table({"src": ["x"], "dst": ["y"]})
    extra = rd.from_arrow(pa.table({"url": ["x", "y", "z1", "z2"]}))
    g2 = build_graph(rd.from_arrow(t2), os.path.join(work_dir, "deg_iso"),
                     n_parts=2, extra_url_ds=extra)
    assert g2.V == 4 and g2.num_edges("out") == 1
    r2 = pagerank(g2, l1_threshold=1e-12, max_supersteps=60).to_arrow() \
        .to_pandas().sort_values("v_id")["rank"].to_numpy()
    assert abs(r2.sum() - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 10**12), max_size=6), max_size=20),
       st.data())
def test_raggedcol_gather_roundtrip(seqs, data):
    rc = RaggedCol.from_lists(seqs)
    assert len(rc) == len(seqs)
    if seqs:
        idx = data.draw(st.lists(
            st.integers(0, len(seqs) - 1), max_size=30))
        out = rc[np.array(idx, dtype=np.int64)] if idx else rc[0:0]
        got = [out.flat[out.offsets[i]:out.offsets[i + 1]].tolist()
               for i in range(len(out))]
        assert got == [seqs[i] for i in idx]
        # boolean mask gather
        mask = data.draw(st.lists(st.booleans(), min_size=len(seqs),
                                  max_size=len(seqs)))
        out2 = rc[np.array(mask, dtype=bool)]
        got2 = [out2.flat[out2.offsets[i]:out2.offsets[i + 1]].tolist()
                for i in range(len(out2))]
        assert got2 == [s for s, m in zip(seqs, mask) if m]
    # concat roundtrip
    rc2 = RaggedCol.concat([rc, rc])
    assert len(rc2) == 2 * len(seqs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(max_size=60), min_size=1, max_size=8))
def test_fingerprint_property_matches_fold(texts):
    got = texthash.fingerprints(texts)
    M = texthash.M31
    for s, g in zip(texts, got):
        h = 0
        for ch in s:
            h = (h * 131 + ord(ch)) % M
        assert int(g) == h


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(max_size=80), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=5))
def test_codepoints_arrow_path_matches_list_path(texts, off):
    """The zero-copy Arrow-buffer decode (utf-8 continuation-byte
    prefix sums, r4) must be bit-identical to the per-row list path for
    arbitrary unicode, chunked columns, slices and large_string."""
    cols = [pa.array(texts, type=pa.string()),
            pa.array(texts, type=pa.large_string()),
            pa.chunked_array(
                [pa.array(texts[: len(texts) // 2], type=pa.string()),
                 pa.array(texts[len(texts) // 2:], type=pa.string())])]
    off = min(off, len(texts) - 1)
    cols.append(pa.array([""] * off + texts).slice(off, len(texts)))
    for col in cols:
        for fn in (texthash.fingerprints, texthash.simhashes,
                   texthash.minhash_band_hashes):
            assert np.array_equal(np.asarray(fn(texts)),
                                  np.asarray(fn(col)))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(alphabet=" abcdefgh\t\n", max_size=80),
                min_size=1, max_size=6))
def test_simhash_property_matches_fold(texts):
    import re
    got = texthash.simhashes(texts)
    M = texthash.M31

    def fold(s, b):
        h = 0
        for ch in s:
            h = (h * b + ord(ch)) % M
        return h

    for s, g in zip(texts, got):
        toks = [tk for tk in re.split(r"[\t\n\x0b\f\r ]+", s) if tk]
        vals = [fold(tk, 131) * (1 << 31) + fold(tk, 137) for tk in toks]
        exp = 0
        for j in range(62):
            v = sum(1 if (x >> j) & 1 else -1 for x in vals)
            if v > 0:
                exp |= 1 << j
        assert int(g) == exp


def test_actor_pool_cache_invalidated_on_rebuild(work_dir):
    """A graph rebuilt in place (same dir, P and V, other edges) is a new
    Graph with a new pool, and that pool computes on the new edges."""
    import os
    import shutil
    from ray_linkgraph.algorithms import pagerank
    from ray_linkgraph.graph import Graph
    d = os.path.join(work_dir, "regen_g")
    ring = [(i, (i + 1) % 20) for i in range(20)]
    # same V, same P, different (non-regular) topology -> different ranks
    jump = [(i, (i * 7 + 3) % 20) for i in range(20)] + \
           [(0, j) for j in range(1, 6)]
    g1 = _edge_graph(ring, d, 2)
    r1 = _ranks(pagerank(g1, l1_threshold=0.0, max_supersteps=6))
    shutil.rmtree(d)
    g2 = _edge_graph(jump, d, 2)
    assert (g2.P, g2.V) == (g1.P, g1.V)
    r2 = _ranks(pagerank(g2, l1_threshold=0.0, max_supersteps=6))
    assert not set(_pool_ids(g1)) & set(_pool_ids(g2))
    assert not np.allclose(r1, r2)   # genuinely computed on new edges
    exp = _ranks(pagerank(Graph.load(d), l1_threshold=0.0, max_supersteps=6))
    assert np.array_equal(r2, exp)


# -- the 1D exchange kernels: route -> precombine -> Inbox ------------------

_KINDS = ("sum", "min", "max", "overwrite", "kv_min", "concat")


@st.composite
def _exchanges(draw):
    """(meta, combiner, dst_local dtype, messages): each message is
    (sender, dst, val, key, ids), dealt to a random sender partition.
    Small ranges make repeated dsts and repeated (dst, key) pairs across
    senders common; up to 400 messages
    give sender slices past the size where numpy's unstable sort stops
    being an insertion sort, so a lost emission order shows."""
    P = draw(st.integers(1, 5))
    V = draw(st.integers(P, 30))
    kind = draw(st.sampled_from(_KINDS))
    ldtype = draw(st.sampled_from([np.int32, np.int64]))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = (rng.normal(0, 1e3, n) if kind == "sum"
            else rng.integers(-3, 4, n)).tolist()
    ids = [rng.integers(0, 10**12, k).tolist()
           for k in rng.integers(0, 4, n)]
    msgs = list(zip(rng.integers(0, P, n).tolist(),
                    rng.integers(0, V, n).tolist(), vals,
                    rng.integers(0, 3, n).tolist(), ids))
    if draw(st.booleans()):
        # every sender emits in dst order, as LouvainProgram does: the
        # slices reach precombine already sorted
        msgs.sort(key=lambda m: m[1])
    meta = {"V": V, "P": P, "part_size": -(-V // P)}
    return meta, kind, ldtype, msgs


def _sender_payload(kind, ms, vdtype):
    vals = np.array([m[2] for m in ms], dtype=vdtype)
    if kind == "kv_min":
        return {"key": np.array([m[3] for m in ms], dtype=np.int64),
                "val": vals.astype(np.float64),
                "sender": np.array([m[2] for m in ms], dtype=np.int64)}
    if kind == "concat":
        return {"val": vals, "ids": RaggedCol.from_lists([m[4] for m in ms])}
    return {"val": vals}


@settings(max_examples=200, deadline=None)
@given(_exchanges(), st.booleans(), st.booleans())
def test_exchange_kernels_match_plain_reference(ex, int_vals, empty_part):
    """Every 1D combiner, through ``PartitionWorker._route``, ``precombine``
    and ``Inbox``, equals a plain-Python combine of the same messages. The
    order-sensitive combiners (sum, overwrite, concat) are byte-equal to
    a reference that stable-sorts each sender's messages by global dst."""
    from types import SimpleNamespace
    from ray_linkgraph.engine import Inbox, PartitionWorker
    meta, kind, ldtype, msgs = ex
    P, ps = meta["P"], meta["part_size"]
    vdtype = (np.int64 if int_vals and kind in ("min", "max", "overwrite")
              else np.float64)
    sent = [[m for m in msgs if m[0] == p] for p in range(P)]
    outs = []
    for p in range(P):
        w = PartitionWorker("unused", meta, p)
        w.program = SimpleNamespace(combiner=kind)
        w._local_dtype = ldtype
        dst = np.array([m[1] for m in sent[p]], dtype=np.int64)
        o, n = w._route(dst, _sender_payload(kind, sent[p], vdtype))
        assert n == len(sent[p]) and len(o) == P
        outs.append(o)
    for q in range(P):
        lo, size = q * ps, max(0, min(meta["V"], (q + 1) * ps) - q * ps)
        parts = [outs[p][q] for p in range(P)]
        for part in parts:
            assert part is None or part[0].dtype == ldtype
        if empty_part:
            parts.insert(len(parts) // 2, (np.zeros(0, dtype=ldtype),))
        ib = Inbox(kind, size, parts)
        # each sender's messages to q in emission order, senders in order
        mine = [[m for m in sent[p] if lo <= m[1] < lo + size]
                for p in range(P)]
        flat = [m for ms in mine for m in ms]
        got_dsts = sorted({m[1] - lo for m in flat})
        assert np.flatnonzero(ib.mask).tolist() == got_dsts
        if kind == "concat":
            # stable sort by dst per sender == one global stable sort
            rows = [m for ms in mine for m in sorted(ms, key=lambda m: m[1])]
            assert ib.n_msgs == len(rows)
            assert ib.dst.tolist() == [m[1] - lo for m in rows]
            if not rows:                   # nothing received: no columns
                assert ib.cols == []
                continue
            ids, vals = ib.cols
            assert [ids.flat[ids.offsets[i]:ids.offsets[i + 1]].tolist()
                    for i in range(len(ids))] == [m[4] for m in rows]
            assert vals.tobytes() == np.array(
                [m[2] for m in rows], dtype=vdtype).tobytes()
        elif kind == "kv_min":
            best = {}
            for m in flat:
                k = (m[1] - lo, m[3])
                best[k] = min(best.get(k, (np.inf, 0)), (float(m[2]), m[2]))
            keys = sorted(best)
            assert ib.dst.tolist() == [k[0] for k in keys]
            assert ib.key.tolist() == [k[1] for k in keys]
            assert ib.val.tolist() == [best[k][0] for k in keys]
            assert ib.sender.tolist() == [best[k][1] for k in keys]
        elif kind == "sum":
            # per sender: the global stable sort by dst, then reduceat
            ref = np.zeros(size, dtype=np.float64)
            for ms in mine:
                if not ms:
                    continue
                d = np.array([m[1] for m in ms], dtype=np.int64)
                v = np.array([m[2] for m in ms], dtype=np.float64)
                order = np.argsort(d, kind="stable")
                d, v = d[order], v[order]
                starts = np.r_[0, np.flatnonzero(np.diff(d)) + 1]
                ref += np.bincount(d[starts] - lo,
                                   weights=np.add.reduceat(v, starts),
                                   minlength=size)
            assert ib.sum.tobytes() == ref.tobytes()
            plain = [sum(m[2] for m in flat if m[1] - lo == i)
                     for i in range(size)]
            assert np.allclose(ib.sum, plain, rtol=1e-9, atol=1e-3)
            assert ib.n_msgs == len({(m[0], m[1]) for m in flat})
        else:
            pick = {}
            for m in flat:
                d = m[1] - lo
                if kind == "overwrite":
                    pick.setdefault(d, m[2])        # first emitted
                else:
                    pick[d] = (min if kind == "min" else max)(
                        pick.get(d, m[2]), m[2])
            arr = getattr(ib, kind)
            # an empty inbox has no value dtype to keep: float64
            vt = vdtype if flat else np.float64
            assert arr.dtype == vt
            ints = np.issubdtype(vt, np.integer)
            fill = {"overwrite": 0,
                    "min": np.iinfo(vt).max if ints else np.inf,
                    "max": np.iinfo(vt).min if ints else -np.inf}
            exp = np.array([pick.get(i, fill[kind]) for i in range(size)],
                           dtype=vt)
            assert arr.tobytes() == exp.tobytes()
            assert ib.n_msgs == len({(m[0], m[1]) for m in flat})


# -- the dense pull's combiners: _send -> _pull -> Inbox.pulled -----------

@st.composite
def _pulls(draw):
    """(meta, combiner, src, dst, values, senders): a directed multigraph
    on V vertices dealt to P partitions by source, one value per vertex
    and a sender mask (None: every vertex sends). Labels come from four
    values, so tied votes are common; when ``starve`` is drawn the top
    partition gets no in-edge."""
    P = draw(st.sampled_from([1, 3, 4]))
    V = draw(st.integers(P, 30))
    kind = draw(st.sampled_from(["min", "label_count"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 150))
    ps = -(-V // P)
    src, dst = rng.integers(0, V, n), rng.integers(0, V, n)
    if P > 1 and draw(st.booleans()):
        keep = dst < (P - 1) * ps
        src, dst = src[keep], dst[keep]
    values = (rng.integers(-5, 6, V) if kind == "min"
              else rng.choice([0, 1, V // 2, V - 1], V))
    senders = rng.random(V) < 0.6 if draw(st.booleans()) else None
    return ({"V": V, "P": P, "part_size": ps}, kind, src, dst, values,
            senders)


@settings(max_examples=150, deadline=None)
@given(_pulls())
# vertex 5 gets label 4 from 0 and 1, label 2 from 2 and 3: a tie, won
# by the min label; sender 4 is masked, so its label 4 does not count
@example(({"V": 6, "P": 3, "part_size": 2}, "label_count",
          np.array([0, 1, 2, 3, 4, 5]), np.array([5, 5, 5, 5, 5, 0]),
          np.array([4, 4, 2, 2, 4, 1]),
          np.array([True, True, True, True, False, True])))
def test_pull_combiners_match_plain_reference(ex):
    """The dense pull's ``min`` and label vote, through
    ``PartitionWorker._send`` and ``_pull``, equal a plain-Python
    combine of the values sent along each edge by the senders: the mask
    marks the vertices that got a value, and a tied vote goes to the
    min label."""
    from types import SimpleNamespace
    from ray_linkgraph.engine import I64MAX, EdgeScatter, PartitionWorker
    meta, kind, src, dst, values, senders = ex
    P, ps = meta["P"], meta["part_size"]
    sends = [senders is None or senders[u] for u in src.tolist()]
    workers = []
    for p in range(P):
        w = PartitionWorker("unused", meta, p)
        w.program, w.dense = SimpleNamespace(combiner=kind, mode="out"), True
        mine = src // ps == p
        w.ctx._edges = (lambda mode, parts, columns, e=(src[mine], dst[mine]):
                        (*e, None))
        workers.append(w)
    splits = [w.split_out_edges() for w in workers]
    chunks = []
    for p, w in enumerate(workers):
        w.ctx.set_pull_block("out", splits)
        lo, hi = w.ctx.lo, w.ctx.hi
        (chunk,), n_out = w._send(EdgeScatter(
            "out", values[lo:hi], None if senders is None
            else senders[lo:hi]), {})
        assert n_out == sum(s for u, s in zip(src.tolist(), sends)
                            if lo <= u < hi)
        chunks.append(chunk)
    for q, w in enumerate(workers):
        ib = w._pull(chunks[:q] + chunks[q + 1:])
        got = {}
        for u, v, s in zip(src.tolist(), dst.tolist(), sends):
            if s and w.ctx.lo <= v < w.ctx.hi:
                got.setdefault(v - w.ctx.lo, []).append(int(values[u]))
        assert np.flatnonzero(ib.mask).tolist() == sorted(got)
        assert ib.n_msgs == sum(len(vs) for vs in got.values())
        if kind == "min":
            assert ib.min.tolist() == [min(got[i]) if i in got else I64MAX
                                       for i in range(w.ctx.size)]
        else:
            win = {d: min(vs, key=lambda lab: (-vs.count(lab), lab))
                   for d, vs in got.items()}
            assert ib.win_dst.tolist() == sorted(win)
            assert ib.win_label.tolist() == [win[d] for d in sorted(win)]


def test_dense_scatter_senders_length_checked(work_dir):
    """An ``EdgeScatter`` sender mask must have one entry per vertex of
    its partition: a short mask fails the run."""
    from ray_linkgraph.engine import EdgeScatter, VertexProgram, run_program

    class ShortMask(VertexProgram):
        combiner = "min"
        dense = True

        def init(self, ctx, g):
            return {}

        def compute0(self, ctx, state, g):
            return EdgeScatter("out", ctx.vids(),
                               np.ones(ctx.size - 1, dtype=bool)), {}, {}

    with pytest.raises(Exception, match="senders mask of"):
        run_program(_pull_graph(work_dir, 2), ShortMask(), max_supersteps=2)


def test_label_key_guard():
    """LPA's vote key dst_local * L + label needs part_size * V < 2**63;
    an engine for a graph past it refuses before starting any actor."""
    from types import SimpleNamespace
    from ray_linkgraph.algorithms import LpaProgram
    from ray_linkgraph.engine import BSPEngine, check_label_key
    check_label_key({"V": 3 * 10**9, "part_size": 3 * 10**9})
    big = {"V": 2**34, "P": 4, "part_size": 2**32}
    with pytest.raises(ValueError, match=r"2\*\*63"):
        check_label_key(big)
    with pytest.raises(ValueError, match=r"part_size \* V"):
        BSPEngine(SimpleNamespace(meta=big, P=4), LpaProgram())
