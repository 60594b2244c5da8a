"""Engine invariants: layout independence (1D vs 2D grid exchange) and
property-based checks for the message-payload / hashing kernels."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_linkgraph.engine import RaggedCol
from ray_linkgraph.graph import build_graph
from ray_linkgraph.ops import texthash


def test_pagerank_layout_independent(work_dir):
    """Same graph, P=2 (1D exchange) vs P=4 (2x2 grid): identical ranks
    up to float summation order."""
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
        out = agg_by_int_keys(ds, ["ka", "kb"], "v", "out",
                              reduce=reduce, n_coarse=4).to_pandas()
        got = {(r["ka"], r["kb"]): r["out"] for _, r in out.iterrows()}
        assert got == exp


def _ranks(res):
    return res.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()


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
