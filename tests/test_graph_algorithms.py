"""End-to-end conformance: pages -> extract -> graph build -> algorithms,
checked against naive pure-Python implementations of the reference
per-vertex semantics (tests/naive_ref.py) on the SAME inputs, plus an
independent reconstruction of the expected graph from the generator spec
(so the extraction+build pipeline itself is validated, not just the
kernels)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ray_linkgraph.pages import pages_table, out_targets, hash_u64
from ray_linkgraph.extract import extract_links
from ray_linkgraph.graph import Graph, build_graph, sort_key
from ray_linkgraph.algorithms import (pagerank, wcc, lpa, degree_centrality,
                                      sssp, kcore, triangle_count,
                                      clustering_coefficient)

import naive_ref

N = 200
SEED = 42
P = 4


def expected_graph():
    """(url2id, id2url, canonical directed edge set) straight from the
    generator spec — independent of the extraction/build code path."""
    t = pages_table(N, SEED)
    urls = t.column("url").to_pylist()
    raw = []
    all_urls = set(urls)
    for i in range(N):
        for j in out_targets(i, N, SEED):
            raw.append((urls[i], urls[j]))
        if i % 23 == 7:
            comp = 0 if i < max(6, int(N * 0.9)) else 1
            off = int(hash_u64(np.uint64(SEED), np.uint64(i), 9)[()] % 50)
            u = f"https://offsite{comp}.example/x{off}"
            raw.append((urls[i], u))
            all_urls.add(u)
    ordered = sorted(all_urls, key=sort_key)
    url2id = {u: i for i, u in enumerate(ordered)}
    edges = {(url2id[s], url2id[d]) for s, d in raw if s != d}
    return url2id, ordered, edges


@pytest.fixture(scope="module")
def built(work_dir):
    t = pages_table(N, SEED)
    g = build_graph(extract_links(rd.from_arrow(t)),
                    os.path.join(work_dir, "graph_t1"), n_parts=P,
                    extra_url_ds=rd.from_arrow(t.select(["url"])))
    url2id, id2url, edges = expected_graph()
    return g, url2id, id2url, edges


def load_edges(g: Graph, mode="out"):
    E = set()
    for p in range(g.P):
        path = g.edges_path(mode, p)
        if os.path.exists(path):
            t = pq.read_table(path)
            E |= set(zip(t.column("src_id").to_pylist(),
                         t.column("dst_id").to_pylist()))
    return E


def adj_out(V, edges):
    out = [[] for _ in range(V)]
    for s, d in sorted(edges):
        out[s].append(d)
    return out


def adj_both(V, edges):
    a = [set() for _ in range(V)]
    for s, d in edges:
        a[s].add(d)
        a[d].add(s)
    return [sorted(x) for x in a]


# ---------------------------------------------------------------------------

def test_dictionary_id_order(built):
    g, url2id, id2url, _ = built
    assert g.V == len(id2url)
    assert g.ids_to_urls(np.arange(g.V)) == id2url
    d = g.dictionary_ds().to_pandas().sort_values("v_id")
    assert d["url"].tolist() == id2url
    assert d["v_id"].tolist() == list(range(g.V))


def test_canonical_edges(built):
    g, url2id, _, edges = built
    got = load_edges(g, "out")
    assert got == edges                      # deduped, self-loops dropped
    assert g.num_edges("out") == len(edges)
    g.ensure_mode("both")
    both = load_edges(g, "both")
    assert both == edges | {(d, s) for s, d in edges}
    g.ensure_mode("in")
    assert load_edges(g, "in") == {(d, s) for s, d in edges}


def test_pagerank_vs_reference_semantics(built):
    g, _, _, edges = built
    res = pagerank(g, max_supersteps=60).to_arrow().to_pandas() \
        .sort_values("v_id")
    ranks, steps = naive_ref.naive_pagerank(g.V, adj_out(g.V, edges),
                                            max_steps=60)
    got = res["rank"].to_numpy()
    assert np.allclose(got, ranks, atol=1e-6, rtol=0)
    assert np.abs(got - ranks).max() < 1e-10  # same formula, same order
    r2 = pagerank(g, max_supersteps=60)
    assert r2.supersteps == steps             # identical iteration count


def test_pagerank_max_supersteps_bound(built):
    g, _, _, edges = built
    res = pagerank(g, max_supersteps=10).to_arrow().to_pandas() \
        .sort_values("v_id")
    ranks, steps = naive_ref.naive_pagerank(g.V, adj_out(g.V, edges),
                                            max_steps=10)
    assert steps == 10
    assert np.allclose(res["rank"].to_numpy(), ranks, atol=1e-12, rtol=0)


def test_wcc_exact(built):
    g, _, _, edges = built
    res = wcc(g).to_arrow().to_pandas().sort_values("v_id")
    exp = naive_ref.naive_wcc(g.V, adj_both(g.V, edges))
    assert (res["component"].to_numpy() == exp).all()
    assert len(set(exp)) >= 2                 # the two generator components


def test_lpa_exact(built):
    g, _, _, edges = built
    res = lpa(g, max_supersteps=10).to_arrow().to_pandas().sort_values("v_id")
    exp = naive_ref.naive_lpa(g.V, adj_both(g.V, edges), rounds=9)
    assert (res["label"].to_numpy() == exp).all()


def test_degree(built):
    g, _, _, edges = built
    res = degree_centrality(g).to_arrow().to_pandas().sort_values("v_id")
    deg = np.array([len(a) for a in adj_out(g.V, edges)])
    assert (res["degree"].to_numpy() == deg).all()
    res_b = degree_centrality(g, mode="both").to_arrow().to_pandas() \
        .sort_values("v_id")
    degb = np.array([len(a) for a in adj_both(g.V, edges)])
    assert (res_b["degree"].to_numpy() == degb).all()


def test_sssp(built):
    g, _, _, edges = built
    sources = [0, 5]
    res = sssp(g, sources, max_supersteps=10).to_arrow().to_pandas() \
        .sort_values("v_id")
    adj_w = [[(d, 1.0) for d in a] for a in adj_out(g.V, edges)]
    exp = naive_ref.naive_sssp(g.V, adj_w, sources, max_steps=10)
    assert np.allclose(res["distance"].to_numpy(), exp, atol=0)


def test_kcore(built):
    g, _, _, edges = built
    res = kcore(g, k=3).to_arrow().to_pandas().sort_values("v_id")
    exp = naive_ref.naive_kcore(g.V, adj_both(g.V, edges), k=3)
    assert (res["core"].to_numpy() == exp).all()


def test_triangle_count_exact(built):
    g, url2id, _, edges = built
    res = triangle_count(g).to_pandas().sort_values("v_id")
    exp = naive_ref.naive_triangles(g.V, adj_both(g.V, edges))
    assert len(res) == g.V
    assert (res["triangles"].to_numpy() == exp).all()
    # clique-of-6 members participate in >= C(5,2) = 10 triangles
    t = pages_table(N, SEED)
    urls = t.column("url").to_pylist()
    for i in range(6):
        assert exp[url2id[urls[i]]] >= 10


def _naive_tri_coef(g):
    und = adj_both(g.V, load_edges(g, "out"))
    tri = naive_ref.naive_triangles(g.V, und)
    deg = np.array([len(a) for a in und], dtype=np.float64)
    denom = deg * (deg - 1)
    return tri, np.where(denom > 0, 2.0 * tri / denom, 0.0), deg


def test_clustering_coefficient(built):
    res = clustering_coefficient(built[0]).to_pandas().sort_values("v_id")
    tri, coef, _ = _naive_tri_coef(built[0])
    assert (res["triangles"].to_numpy() == tri).all()
    assert np.allclose(res["coefficient"].to_numpy(), coef, atol=0)


def _str_graph(edges, path, n_parts, isolated=()):
    t = pa.table({"src": [a for a, _ in edges], "dst": [b for _, b in edges]})
    extra = rd.from_arrow(pa.table({"url": list(isolated)})) if isolated \
        else None
    return build_graph(rd.from_arrow(t), path, n_parts=n_parts,
                       extra_url_ds=extra)


@pytest.fixture(scope="module")
def exchange_graph(work_dir):
    """The exchange-matrix graph at a given P, built once per P: 60
    random-edge vertices plus a 5-clique, and 60 isolated vertices that
    sort last (ids are length-first), so at P >= 3 the top partition
    holds only isolated vertices and receives no message in any
    superstep: the empty-inbox path of every step runs."""
    graphs = {}

    def get(n_parts):
        if n_parts not in graphs:
            rng = np.random.default_rng(7)
            names = [f"v{i:02d}" for i in range(60)]
            edges = {(names[a], names[b])
                     for a, b in rng.integers(0, 60, (240, 2)) if a != b}
            edges |= {(names[a], names[b]) for a in range(5)
                      for b in range(a)}
            g = _str_graph(sorted(edges),
                           os.path.join(work_dir, f"tri_x{n_parts}"),
                           n_parts,
                           isolated=[f"iso_{i:02d}" for i in range(60)])
            if n_parts >= 3:
                assert not _naive_tri_coef(g)[2][
                    (n_parts - 1) * g.part_size:].any()
            graphs[n_parts] = g
        return graphs[n_parts]
    return get


EXCHANGES = pytest.mark.parametrize("n_parts", [1, 3, 4])


@EXCHANGES
def test_triangle_exchange_matrix(exchange_graph, n_parts):
    """Triangle counts over the 1D exchange are exact at every
    partitioning."""
    g = exchange_graph(n_parts)
    tri, _, _ = _naive_tri_coef(g)
    res = triangle_count(g).to_pandas().sort_values("v_id")
    assert len(res) == g.V and tri.sum() >= 30
    assert (res["triangles"].to_numpy() == tri).all()


@EXCHANGES
def test_1d_combiner_exchange_matrix(exchange_graph, n_parts):
    """LPA's label vote and WCC's min (dense pull) and SSSP's min (1D)
    are exact at every partitioning."""
    g = exchange_graph(n_parts)
    E = load_edges(g, "out")
    und = adj_both(g.V, E)
    for steps in (3, 10):
        lab = lpa(g, max_supersteps=steps).to_arrow().to_pandas() \
            .sort_values("v_id")["label"].to_numpy()
        assert (lab == naive_ref.naive_lpa(g.V, und,
                                           rounds=steps - 1)).all()
        if steps == 3:                 # votes still split after 2 rounds
            assert len(set(lab[:60])) >= 2
    comp = wcc(g).to_arrow().to_pandas().sort_values("v_id")["component"]
    assert (comp.to_numpy() == naive_ref.naive_wcc(g.V, und)).all()
    adj_w = [[(d, 1.0) for d in a] for a in adj_out(g.V, E)]
    dist = sssp(g, [0, 5], max_supersteps=10).to_arrow().to_pandas() \
        .sort_values("v_id")["distance"].to_numpy()
    exp = naive_ref.naive_sssp(g.V, adj_w, [0, 5], max_steps=10)
    assert (dist == exp).all() and (exp > 1).any()


def _step1(g, part):
    """TriangleProgram's supersteps 0 and 1 for partition ``part``, run
    in this process on PartCtx views: (state after step 1, step-1 dst,
    step-1 payload)."""
    from ray_linkgraph.algorithms.triangle import TriangleProgram
    from ray_linkgraph.engine import Inbox, PartCtx, precombine
    prog = TriangleProgram()
    ctxs = [PartCtx(g.dir, g.meta, p) for p in range(g.P)]
    ctx = ctxs[part]
    parts = []
    for c in ctxs:
        dst, pay, _ = prog.compute0(c, prog.init(c, {}), {})
        m = dst // g.part_size == part
        parts.append(precombine("concat", dst[m] - ctx.lo,
                                {k: v[m] for k, v in pay.items()}))
    state = prog.init(ctx, {})
    dst, pay, _ = prog.compute(ctx, state,
                               Inbox("concat", ctx.size, parts), {}, 1)
    return state, dst, pay


def test_triangle_hub_fixture(work_dir):
    """A star whose hub has 320 leaves, a 6-clique containing the hub, a
    few leaf-leaf edges and isolated vertices: triangles and
    coefficients exact at P=3, and the hub, ranked top by degree, has an
    empty N+ and ships no list."""
    leaves = [f"leaf{i:03d}" for i in range(320)]
    edges = [("hub", x) for x in leaves]
    clique = ["hub"] + leaves[:5]
    edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]
              if a != "hub"]
    edges += [(leaves[10], leaves[11]), (leaves[11], leaves[12]),
              (leaves[10], leaves[12]), (leaves[20], leaves[21])]
    g = _str_graph(edges, os.path.join(work_dir, "tri_hub"), 3,
                   isolated=["isoA", "isoB", "isoC"])
    tri, coef, deg = _naive_tri_coef(g)
    res = clustering_coefficient(g).to_pandas().sort_values("v_id")
    assert (res["triangles"].to_numpy() == tri).all()
    assert np.allclose(res["coefficient"].to_numpy(), coef, atol=0)
    hub = int(np.argmax(deg))
    assert deg[hub] == 320 and tri[hub] == 10 + 3 + 1
    state, _, pay = _step1(g, hub // g.part_size)
    assert not (state["nplus"] // g.V == hub).any()
    assert hub not in pay["apex"]
    # the clique's other members do ship lists
    assert sum(len(_step1(g, p)[2]["apex"]) for p in range(g.P)) > 0


def test_ppr(built):
    """PPR vs a naive mirror of the same frontier semantics (update rule
    per PersonalPageRank.java:96-157; honest l1 — see ppr.py docstring)."""
    from ray_linkgraph.algorithms import ppr
    g, _, _, edges = built
    # a source with out-edges (v_id 3 is an edge-only offsite vertex)
    src = next(s for s, _ in sorted(edges) if s > 5)
    res = ppr(g, src, max_supersteps=30).to_arrow().to_pandas() \
        .sort_values("v_id")
    out = adj_out(g.V, edges)
    deg = np.array([len(a) for a in out])
    alpha = 0.85
    rank = np.zeros(g.V)
    rank[src] = 1.0
    cum = 1.0
    senders = {src}
    for s in range(1, 30):
        inbox = {}
        for u in senders:
            if deg[u]:
                c = rank[u] / deg[u]
                for d in out[u]:
                    inbox[d] = inbox.get(d, 0.0) + c
        if not inbox:
            break
        run = set(inbox)
        new = {v: (inbox.get(v, 0.0) * alpha
                   + (1 - alpha) * (1.0 if v == src else 0.0)) / cum
               for v in run}
        l1 = sum(abs(new[v] - rank[v]) for v in run)
        for v in run:
            rank[v] = new[v]
        cum = max(sum(rank[v] for v in run), 1e-300)
        senders = run
        if s > 1 and l1 <= 1e-6:
            break
    assert np.allclose(res["rank"].to_numpy(), rank, atol=1e-9, rtol=0)
    assert res["rank"].to_numpy()[src] > 0


def test_hub_skew_path(work_dir):
    """g_hub (FIXTURES.md §3): a graph containing heavy hub sources with
    out-degree 150 (> the reference's superedge threshold of 100,
    ComputerOptions.java:196-203) goes down the same engine path and still
    matches the naive oracles exactly — the skew treatment (map-side
    combine + degree-oriented wedges) is semantics-preserving."""
    import ray.data as rd
    from ray_linkgraph.pages import out_targets
    n = 2000
    t = pages_table(n, SEED)
    g = build_graph(extract_links(rd.from_arrow(t)),
                    os.path.join(work_dir, "graph_hub"), n_parts=4,
                    extra_url_ds=rd.from_arrow(t.select(["url"])))
    # heavy hub sources exist in this graph
    degs = {i: len(out_targets(i, n, SEED)) for i in range(n)}
    assert max(degs.values()) >= 150
    E = load_edges(g, "out")
    # PageRank at 1e-6 vs naive
    res = pagerank(g, max_supersteps=60).to_arrow().to_pandas() \
        .sort_values("v_id")
    ranks, steps = naive_ref.naive_pagerank(g.V, adj_out(g.V, E),
                                            max_steps=60)
    assert np.allclose(res["rank"].to_numpy(), ranks, atol=1e-9, rtol=0)
    # WCC exact
    wres = wcc(g)
    comp = wres.to_arrow().to_pandas().sort_values("v_id")["component"]
    assert (comp.to_numpy() == naive_ref.naive_wcc(g.V,
                                                   adj_both(g.V, E))).all()
    # the per-step skew record sees the uneven inboxes
    h1 = wres.history[1]
    assert h1["msgs_in_max"] > h1["msgs_in_median"] > 0
    assert all(h["actor_wall_median_s"] <= h["actor_wall_max_s"]
               for h in wres.history)
    # per-vertex triangles exact through the degree-oriented program
    tri = triangle_count(g).to_pandas().sort_values("v_id")
    exp = naive_ref.naive_triangles(g.V, adj_both(g.V, E))
    assert (tri["triangles"].to_numpy() == exp).all()


def test_closeness_vs_reference_semantics(built):
    from ray_linkgraph.algorithms import closeness_centrality
    g, _, _, edges = built
    res = closeness_centrality(g, max_supersteps=5).to_arrow() \
        .to_pandas().sort_values("v_id")
    adj_w = [[(d, 1.0) for d in nbrs]
             for nbrs in adj_out(g.V, edges)]
    clo, reach = naive_ref.naive_closeness(g.V, adj_w, max_steps=5)
    assert np.allclose(res["closeness"].to_numpy(), clo, atol=1e-12)
    assert (res["reachable"].to_numpy() == reach).all()
    assert max(reach) > 1                    # propagation happened


def test_betweenness_vs_reference_semantics(built):
    from ray_linkgraph.algorithms import betweenness_centrality
    g, _, _, edges = built
    res = betweenness_centrality(g, max_supersteps=5).to_arrow() \
        .to_pandas().sort_values("v_id")
    exp = naive_ref.naive_betweenness(g.V, adj_out(g.V, edges),
                                      max_steps=5)
    assert np.allclose(res["betweenness"].to_numpy(), exp, atol=1e-9)
    assert max(exp) > 0


def test_betweenness_sampled(built):
    """sample_rate < 1 (the 100-TB gate configuration): engine draws
    must replicate the naive per-edge uniform01 counter-hash draws."""
    from ray_linkgraph.algorithms import betweenness_centrality
    g, _, _, edges = built
    res = betweenness_centrality(g, max_supersteps=5, sample_rate=0.5,
                                 seed=107).to_arrow() \
        .to_pandas().sort_values("v_id")
    exp = naive_ref.naive_betweenness(g.V, adj_out(g.V, edges),
                                      max_steps=5, sample_rate=0.5,
                                      seed=107)
    got = res["betweenness"].to_numpy()
    assert np.allclose(got, exp, atol=1e-9)
    full = naive_ref.naive_betweenness(g.V, adj_out(g.V, edges),
                                       max_steps=5)
    assert not np.allclose(got, full)   # sampling actually bit


def test_betweenness_store_perf_cap(built):
    from ray_linkgraph.algorithms import betweenness_centrality
    g, _, _, edges = built
    res = betweenness_centrality(g, max_supersteps=4, store_perf=3) \
        .to_arrow().to_pandas().sort_values("v_id")
    exp = naive_ref.naive_betweenness(g.V, adj_out(g.V, edges),
                                      max_steps=4, store_perf=3)
    assert np.allclose(res["betweenness"].to_numpy(), exp, atol=1e-9)


def test_rings_vs_reference_semantics(built):
    from ray_linkgraph.algorithms import rings_detection
    g, _, _, edges = built
    res = rings_detection(g, max_supersteps=5).to_arrow() \
        .to_pandas().sort_values("v_id")
    exp = naive_ref.naive_rings(g.V, adj_out(g.V, edges), max_steps=5)
    assert (res["ring_count"].to_numpy() ==
            np.array([len(r) for r in exp])).all()
    # ring sequences themselves match (deterministic sorted encoding)
    exp_strs = [";".join(sorted(("-".join(map(str, t)) for t in r),
                                key=lambda x: (len(x), x))) for r in exp]
    assert res["rings"].tolist() == exp_strs
    assert sum(len(r) for r in exp) > 0      # graph has rings


def test_links_vs_reference_semantics(built):
    from ray_linkgraph.algorithms import links
    g, _, _, edges = built
    starts = [0, 1, 2, 3, 4]
    res = links(g, starts, spread="w_out >= w_in",
                end_edge="dst % 11 == 3", end_vertex="node % 7 == 0",
                max_supersteps=4).to_arrow().to_pandas() \
        .sort_values("v_id").reset_index(drop=True)
    adj_w = [[(d, 1.0) for d in nbrs] for nbrs in adj_out(g.V, edges)]
    exp = naive_ref.naive_links(
        g.V, adj_w, starts, spread=lambda wo, wi: wo >= wi,
        end_edge=lambda s, d, w: d % 11 == 3,
        end_vertex=lambda n: n % 7 == 0, max_steps=4)
    assert res["n_paths"].tolist() == [len(p) for p in exp]
    exp_strs = [";".join(sorted(("-".join(map(str, t)) for t in p),
                                key=lambda x: (len(x), x))) for p in exp]
    assert res["paths"].tolist() == exp_strs
    assert sum(len(p) for p in exp) > 0


def test_subgraph_match_diamond(built):
    from ray_linkgraph.algorithms.subgraph import subgraph_match, \
        SubGraphProgram
    g, _, _, edges = built
    pat = [(0, 1), (0, 2), (1, 3), (2, 3)]          # directed diamond
    res = subgraph_match(g, pat, 4).to_arrow().to_pandas() \
        .sort_values("v_id").reset_index(drop=True)
    adj = adj_out(g.V, edges)
    embs = naive_ref.naive_subgraph(adj, pat, 4)
    root_qv = SubGraphProgram(pat, 4).tree.root.qv
    exp = np.zeros(g.V, dtype=np.int64)
    for phi in embs:
        exp[phi[root_qv]] += 1
    assert res["n_matches"].tolist() == exp.tolist()
    assert exp.sum() > 0
    # embedding strings themselves (sorted pattern-node order) match
    by_owner = {}
    for phi in embs:
        s = "-".join(str(phi[q]) for q in sorted(phi))
        by_owner.setdefault(phi[root_qv], []).append(s)
    exp_strs = [";".join(sorted(by_owner.get(v, []))) for v in range(g.V)]
    assert res["matches"].tolist() == exp_strs


def test_subgraph_match_with_predicate(built):
    from ray_linkgraph.algorithms.subgraph import subgraph_match, \
        SubGraphProgram
    g, _, _, edges = built
    pat = [(0, 1), (1, 2)]                           # directed 2-path
    res = subgraph_match(g, pat, 3,
                         node_predicates={2: "node % 3 == 0"}) \
        .to_arrow().to_pandas().sort_values("v_id").reset_index(drop=True)
    adj = adj_out(g.V, edges)
    embs = naive_ref.naive_subgraph(adj, pat, 3,
                                    preds={2: lambda n: n % 3 == 0})
    root_qv = SubGraphProgram(pat, 3).tree.root.qv
    exp = np.zeros(g.V, dtype=np.int64)
    for phi in embs:
        exp[phi[root_qv]] += 1
    assert res["n_matches"].tolist() == exp.tolist()
    assert exp.sum() > 0


def test_louvain_distributed_variant(built):
    from ray_linkgraph.algorithms.louvain import louvain_communities
    g, _, _, edges = built
    res = louvain_communities(g, max_rounds=10).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    both = edges | {(d, s) for s, d in edges}   # deduped, as edges_both
    und = [[] for _ in range(g.V)]
    for s, d in both:
        und[s].append((d, 1.0))
    exp = naive_ref.naive_louvain_one_level(g.V, und, max_rounds=10)
    assert res["community"].tolist() == exp
    # communities actually formed (fewer than V singletons)
    assert len(set(exp)) < g.V


def test_louvain_multilevel_parity(tmp_path):
    """Hierarchical Louvain on a two-scale community graph: level 1
    finds the cliques, the contracted level merges clique pairs —
    engine must equal the naive mirror exactly, and level 2 must merge
    beyond the one-level result."""
    import os
    from ray_linkgraph.graph import build_graph
    from ray_linkgraph.algorithms.louvain import (louvain_communities,
                                                  louvain_multilevel)
    # 4 triangles; pairs (0,1) / (2,3) joined by triple bridges, the two
    # pairs by one weak bridge — strong enough that the CONTRACTED level
    # merges triangle communities level 1 keeps apart
    edges = set()
    for c in range(4):
        b = 3 * c
        edges |= {(b, b + 1), (b, b + 2), (b + 1, b + 2)}
    edges |= {(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11), (5, 6)}
    import pyarrow as pa
    t = pa.table({"src": [str(a) for a, b in sorted(edges)],
                  "dst": [str(b) for a, b in sorted(edges)]})
    g = build_graph(rd.from_arrow(t), str(tmp_path / "ml"), n_parts=2)
    both = edges | {(d, s) for s, d in edges}
    und = [[] for _ in range(g.V)]
    for s, d in both:
        und[s].append((d, 1.0))
    res = louvain_multilevel(g, levels=3, max_rounds=10).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    exp = naive_ref.naive_louvain_multilevel(g.V, und, levels=3,
                                             max_rounds=10)
    assert res["community"].tolist() == exp
    l1 = louvain_communities(g, max_rounds=10).to_pandas() \
        .sort_values("node")["community"].tolist()
    assert len(set(exp)) < len(set(l1))       # contraction merged further


def test_louvain_multilevel_distributed_contraction(tmp_path, monkeypatch):
    """Two levels on the partition actors: once the both-mode layout
    exists, the calling process reads no edge file
    (``ray.data.read_parquet`` is forbidden outright), and the labels
    equal the naive mirror."""
    import ray.data
    from ray_linkgraph.graph import build_graph
    from ray_linkgraph.algorithms import louvain as lv
    edges = set()
    for c in range(4):
        b = 3 * c
        edges |= {(b, b + 1), (b, b + 2), (b + 1, b + 2)}
    edges |= {(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11), (5, 6)}
    import pyarrow as pa
    t = pa.table({"src": [str(a) for a, b in sorted(edges)],
                  "dst": [str(b) for a, b in sorted(edges)]})
    g = build_graph(rd.from_arrow(t), str(tmp_path / "mldist"), n_parts=2)
    g.ensure_mode("both")

    def no_read(*a, **k):
        raise AssertionError("edge files were read outside the actors")

    monkeypatch.setattr(ray.data, "read_parquet", no_read)
    res = lv.louvain_multilevel(g, levels=2, max_rounds=10) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    both = edges | {(d, s) for s, d in edges}
    und = [[] for _ in range(g.V)]
    for s, d in both:
        und[s].append((d, 1.0))
    exp = naive_ref.naive_louvain_multilevel(g.V, und, levels=2,
                                             max_rounds=10)
    assert res["community"].tolist() == exp


def test_louvain_join_route_parity(built):
    """One level at P=4 equals the naive mirror."""
    from ray_linkgraph.algorithms.louvain import louvain_communities
    g, _, _, edges = built
    assert g.P == 4
    res = louvain_communities(g, max_rounds=10).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    both = edges | {(d, s) for s, d in edges}
    und = [[] for _ in range(g.V)]
    for s, d in both:
        und[s].append((d, 1.0))
    exp = naive_ref.naive_louvain_one_level(g.V, und, max_rounds=10)
    assert res["community"].tolist() == exp


def _louvain_weighted_graph(path, n_parts, isolated=()):
    """Eight planted groups of seven vertices (dense inside, a few
    random edges across), weighted as the gate graph is:
    ``(7*src + 13*dst) % 10 + 1`` on the integer node names."""
    rng = np.random.default_rng(46)     # levels 2 and 3 both merge
    edges = set()
    for grp in range(8):
        mem = range(7 * grp, 7 * grp + 7)
        edges |= {(a, b) for a in mem for b in mem
                  if a < b and rng.random() < 0.5}
    edges |= {(int(a), int(b)) for a, b in rng.integers(0, 56, (60, 2))
              if a != b}
    edges = sorted(edges)
    t = pa.table({"src": [str(a) for a, _ in edges],
                  "dst": [str(b) for _, b in edges],
                  "weight": [float((7 * a + 13 * b) % 10 + 1)
                             for a, b in edges]})
    extra = rd.from_arrow(pa.table({"url": list(isolated)})) if isolated \
        else None
    g = build_graph(rd.from_arrow(t), path, n_parts=n_parts,
                    weight_col="weight", extra_url_ds=extra)
    # the undirected adjacency, as the both-mode layout merges it: one
    # edge per ordered pair, the min weight of the two directions
    names = sorted({str(x) for e in edges for x in e} | set(isolated),
                   key=sort_key)
    vid = {n: i for i, n in enumerate(names)}
    W = {}
    for a, b in edges:
        w = float((7 * a + 13 * b) % 10 + 1)
        for k in ((vid[str(a)], vid[str(b)]), (vid[str(b)], vid[str(a)])):
            W[k] = min(W.get(k, w), w)
    und = [[] for _ in range(len(names))]
    for (s, d), w in sorted(W.items()):
        und[s].append((d, w))
    assert g.V == len(names)
    return g, und


@pytest.mark.parametrize("n_parts", [1, 3, 4, 6])
def test_louvain_weighted_parity(work_dir, n_parts):
    """Weighted one-level and three-level Louvain equal the naive
    mirrors at every partitioning; level 2 merges beyond level 1, and a
    round takes at most 3 supersteps (one more per level start). At P=6
    the isolated vertices, which sort last, fill the top partitions, so
    some partitions receive nothing in some supersteps; they stay
    singletons."""
    from ray_linkgraph.algorithms.louvain import (LouvainProgram,
                                                  louvain_communities,
                                                  louvain_multilevel)
    from ray_linkgraph.engine import run_program
    iso = [f"iso_{i:02d}" for i in range(24 if n_parts == 6 else 0)]
    g, und = _louvain_weighted_graph(
        os.path.join(work_dir, f"lv_w{n_parts}"), n_parts, iso)
    if iso:
        assert not any(und[(g.P - 1) * g.part_size:])
    l1 = louvain_communities(g, max_rounds=10).to_pandas() \
        .sort_values("node")
    assert l1["node"].tolist() == list(range(g.V))
    assert l1["community"].tolist() == naive_ref.naive_louvain_one_level(
        g.V, und, max_rounds=10)
    ml = louvain_multilevel(g, levels=3, max_rounds=10).to_pandas() \
        .sort_values("node")["community"].tolist()
    assert ml == naive_ref.naive_louvain_multilevel(g.V, und, levels=3,
                                                    max_rounds=10)
    assert len(set(ml)) < len(set(l1["community"]))
    assert ml[g.V - len(iso):] == list(range(g.V - len(iso), g.V))
    res = run_program(g, LouvainProgram(3, 10), max_supersteps=93)
    rounds = sum("moved" in h["aggs"] for h in res.history)
    assert res.supersteps <= 3 * rounds + 3
    assert res.to_arrow().sort_by("v_id")["community"].to_pylist() == ml


def test_empty_inbox_partitions(tmp_path):
    """A partition that receives ZERO messages in a superstep gets an
    inbox with no payload columns (engine ships nothing) — every
    ragged-payload program must tolerate it. Regression: at fine
    partitionings (P comparable to V) rings crashed on the unpack
    (found raising P_GATE 8 -> 32). A 3-path plus isolated vertices
    over P=6 guarantees several silent partitions every step."""
    import pyarrow as pa
    from ray_linkgraph.graph import build_graph
    from ray_linkgraph.algorithms.rings import rings_detection
    from ray_linkgraph.algorithms.betweenness import betweenness_centrality
    from ray_linkgraph.algorithms.subgraph import subgraph_match

    t = pa.table({"src": ["0", "1", "2", "7", "8"],
                  "dst": ["1", "2", "0", "8", "9"]})
    g = build_graph(rd.from_arrow(t), str(tmp_path / "tiny"), n_parts=6)
    r = rings_detection(g, max_supersteps=4).to_arrow()
    # the 0-1-2 triangle is one ring, counted at its min vertex
    assert int(np.asarray(r["ring_count"]).sum()) == 1
    b = betweenness_centrality(g, max_supersteps=4).to_arrow()
    assert b.num_rows == g.V
    m = subgraph_match(g, [(0, 1), (1, 2)], 3)
    assert m.to_arrow().num_rows >= 1


# -- graph build on the task-level exchange ----------------------------------

def _weighted_edges(n=1500, n_urls=300, seed=11):
    """String edges with self-loops, duplicate (src, dst) pairs of
    different weights, and weights exact in binary (any merge order
    gives the same float)."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n_urls, n)
    d = rng.integers(0, n_urls, n)
    s[:40] = d[:40]
    s, d = np.r_[s, s[:300]], np.r_[d, d[:300]]
    w = rng.integers(0, 16, len(s)) * 0.25
    return pa.table({"src": [f"https://h{x % 7}.example/{x}" for x in s],
                     "dst": [f"https://h{x % 7}.example/{x}" for x in d],
                     "w": w})


def _graph_files(gdir):
    out = {}
    for sub in ("dict", "edges_out", "edges_both", "edges_in"):
        d = os.path.join(gdir, sub)
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                with open(os.path.join(d, f), "rb") as fh:
                    out[f"{sub}/{f}"] = fh.read()
    return out


def test_range_join_encode_matches_broadcast(tmp_path, monkeypatch):
    """The range-bucketed encode (V > BROADCAST_DICT_MAX: two exchanges,
    each merge task joins one dictionary shard) writes the same bytes as
    the broadcast encode."""
    import ray_linkgraph.graph as graph
    t = _weighted_edges()
    kw = dict(n_parts=3, weight_col="w", properties_merge="sum",
              limit_edges_per_vertex=5)
    g1 = build_graph(rd.from_arrow(t).repartition(4), str(tmp_path / "b"),
                     **kw)
    monkeypatch.setattr(graph, "BROADCAST_DICT_MAX", 0)
    g2 = build_graph(rd.from_arrow(t).repartition(4), str(tmp_path / "r"),
                     **kw)
    assert g1.V == g2.V > 0 and g1.meta["n_buckets"] == 3
    assert g1.num_edges("out") == g2.num_edges("out") > 0
    f1, f2 = _graph_files(g1.dir), _graph_files(g2.dir)
    assert sum(k.startswith("edges_out/") for k in f1) == 3
    assert f1 == f2


def test_boundary_sample_capped_and_block_independent(tmp_path,
                                                      monkeypatch):
    """Past SAMPLE_LIMIT the boundary sample keeps the sampled urls of
    smallest (hash, sort key), so the boundaries and dictionary shards
    do not depend on how the edges are cut into blocks. The driver folds
    the block samples one at a time, never holding more than twice the
    cap."""
    import ray_linkgraph.graph as graph
    from ray_linkgraph._util import hash_u64
    from ray_linkgraph.ops import texthash
    monkeypatch.setattr(graph, "SAMPLE_LIMIT", 8)
    fold, held = graph._fold_sample, []

    def counted_fold(s, nxt, limit):
        held.append((0 if s is None else s.num_rows, nxt.num_rows))
        out = fold(s, nxt, limit)
        assert out.num_rows <= limit == 8
        return out
    monkeypatch.setattr(graph, "_fold_sample", counted_fold)
    t = _weighted_edges(n=3000, n_urls=2000).select(["src", "dst"])
    g1 = build_graph(rd.from_arrow(t), str(tmp_path / "one"), n_parts=4)
    cuts = np.linspace(0, t.num_rows, 8).astype(int)
    ds7 = rd.from_arrow([t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])
    assert ds7.materialize().num_blocks() == 7
    held.clear()
    g7 = build_graph(ds7, str(tmp_path / "seven"), n_parts=4)
    # one fold per block; the blocks' samples together exceed what the
    # driver ever holds
    assert len(held) == 7 and max(a + b for a, b in held) <= 16
    assert sum(b for _, b in held) > 16
    # the expected boundaries, straight from the sampling rule
    urls = sorted(set(t.column("src").to_pylist())
                  | set(t.column("dst").to_pylist()))
    h = hash_u64(texthash.fingerprints(pa.array(urls)).astype(np.uint64))
    sampled = sorted((int(x), sort_key(u)) for x, u in zip(h, urls)
                     if x % np.uint64(graph.SAMPLE_MOD) == 0)
    assert len(sampled) > 8
    keys = sorted(k for _, k in sampled[:8])
    want = [keys[int(8 * b / 4)].hex() for b in range(1, 4)]
    assert g1.meta["boundaries_hex"] == g7.meta["boundaries_hex"] == want
    f1, f7 = _graph_files(g1.dir), _graph_files(g7.dir)
    assert [k for k in f1 if k.startswith("dict/")] == \
        [f"dict/bucket_{b:05d}.parquet" for b in range(4)]
    assert f1 == f7


def test_build_modes_and_attach_urls_without_ray_data_shuffle(
        tmp_path, monkeypatch):
    """Build (weighted, degree-capped), both/in modes and attach_urls at
    P=3 with Ray Data's groupby disabled: every layout equals a naive
    numpy build, and attach_urls equals ids_to_urls."""
    def no_groupby(*a, **k):
        raise AssertionError("Dataset.groupby called")
    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    t = _weighted_edges()
    K = 4
    g = build_graph(rd.from_arrow(t).repartition(3), str(tmp_path / "g"),
                    n_parts=3, weight_col="w", limit_edges_per_vertex=K)
    g.ensure_mode("both")
    g.ensure_mode("in")
    # perfbench reads these stage keys
    assert set(g.meta["build_stage_secs"]) == {
        "ingest_materialize", "url_stream", "boundary_sample", "dict_build",
        "encode_partition_write"}

    urls = sorted(set(t.column("src").to_pylist())
                  | set(t.column("dst").to_pylist()), key=sort_key)
    vid = {u: i for i, u in enumerate(urls)}
    assert g.V == len(urls) and g.ids_to_urls(np.arange(g.V)) == urls
    s = np.array([vid[u] for u in t.column("src").to_pylist()])
    d = np.array([vid[u] for u in t.column("dst").to_pylist()])
    w = t.column("w").to_numpy()

    def naive(s, d, w, cap=None):
        merged = {}
        for a, b, x in zip(s.tolist(), d.tolist(), w.tolist()):
            if a != b:
                merged[(a, b)] = min(x, merged.get((a, b), x))
        rows, per_src = [], {}
        for (a, b) in sorted(merged):
            per_src[a] = per_src.get(a, 0) + 1
            if cap is None or per_src[a] <= cap:
                rows.append((a, b, merged[(a, b)]))
        return rows

    def layout(mode):
        rows = []
        for p in range(g.P):
            path = g.edges_path(mode, p)
            if os.path.exists(path):
                pt = pq.read_table(path)
                lo, hi = g.part_bounds(p)
                assert ((pt.column("src_id").to_numpy() >= lo)
                        & (pt.column("src_id").to_numpy() < hi)).all()
                rows += list(zip(pt.column("src_id").to_pylist(),
                                 pt.column("dst_id").to_pylist(),
                                 pt.column("weight").to_pylist()))
        return rows

    out = naive(s, d, w, K)
    assert layout("out") == out and g.num_edges("out") == len(out)
    os_, od, ow = (np.array(c) for c in zip(*out))
    both = naive(np.r_[os_, od], np.r_[od, os_], np.r_[ow, ow])
    assert layout("both") == both and g.num_edges("both") == len(both)
    assert layout("in") == naive(od, os_, ow)
    assert g.num_edges("in") == len(out)

    rng = np.random.default_rng(5)
    ids = rng.permutation(g.V)[: g.V // 2]
    res = g.attach_urls(rd.from_arrow(
        pa.table({"v_id": ids, "score": ids * 0.5})).repartition(3))
    got = res.to_pandas().sort_values("v_id")
    assert got["v_id"].tolist() == sorted(ids.tolist())
    assert got["url"].tolist() == g.ids_to_urls(np.sort(ids))
    assert (got["score"] == got["v_id"] * 0.5).all()
