"""Driver-gate pipelines: a deterministic link graph derived from the
TPC-H-ish test tables, one query callable + one DuckDB oracle per
algorithm (the driver compares them at sf=0.01, __ray_entry__.py).

The testdata has no pages table, so the gate graph is derived from
``orders``: ``src = o_custkey``, ``dst = (o_orderkey * 2654435761) %
count(customer)`` — a Knuth-multiplicative scatter that both Ray and
ANSI SQL compute identically in int64. The derived edges then flow
through the SAME extraction-to-engine code path as the pages pipeline
(stringify -> dictionary encode -> canonical partitioned layout -> BSP),
so the gate exercises the real engine, not a shortcut.

Node-id order parity: vertex ids are dictionary-encoded in the reference
Id order (byte length first, then bytes — graph.py). For non-negative
decimal integer strings that order IS numeric order ("9" < "10" because
length compares first), so int64 min/tie-break semantics in the engine
equal numeric min over the original keys, which is what the SQL oracles
use.

Iterative algorithms are compared at a FIXED superstep count, with the
oracle unrolled as K chained CTEs computing the exact same recurrence
(including PageRank's dangling redistribution and cumulative-rank
normalization, PageRank.java:90-104). Floating aggregates are rounded
to 10 decimals on both sides to absorb summation-order ULPs.
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ._util import read_parquet_nm
from .graph import Graph, build_graph
from .algorithms import (pagerank, wcc, lpa, degree_centrality, sssp, kcore,
                         triangle_count, clustering_coefficient, ppr,
                         closeness_centrality, betweenness_centrality,
                         rings_detection)

MULT = 2654435761  # Knuth multiplicative hash constant (public domain)
CACHE_ROOT = "/tmp/ray_linkgraph_cache"
P_GATE = 32
SSSP_SOURCES = 5        # sources = nodes 0..4
PR_STEPS = 6            # supersteps (incl. superstep 0) for pagerank_k
WCC_ROUNDS = 20
LPA_STEPS = 10          # supersteps (9 vote rounds), reference default
SSSP_STEPS = 10
KCORE_ROUNDS = 25
PPR_SOURCE = 1          # ppr source = original node id 1
CLOSENESS_STEPS = 4     # paths of <= 3 edges
BETWEENNESS_STEPS = 5   # votes from paths of <= 3 edges
RINGS_STEPS = 4         # rings of length <= 3
LINKS_STEPS = 4         # link paths of <= 3 spread edges
LINKS_STARTS = (0, 1, 2, 3, 4)
LINKS_SPREAD = "w_out >= w_in"
LINKS_END_EDGE = "w >= 9"
LINKS_END_VERTEX = "node % 50 == 0"
SUBGRAPH_PATTERN = ((0, 1), (0, 2), (1, 3), (2, 3))   # directed diamond
LOUVAIN_ROUNDS = 5


def _ncust(sf_dir: str) -> int:
    return pq.ParquetFile(os.path.join(sf_dir, "customer.parquet")) \
        .metadata.num_rows


def derive_edges_ds(sf_dir: str):
    """orders -> Dataset(src:string, dst:string, weight:double)."""
    nc = _ncust(sf_dir)

    def derive(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy()
        ck = batch.column("o_custkey").to_numpy()
        # reduce mod nc BEFORE multiplying: keeps the product < nc^2
        # (int64-safe for any scale factor; the naive ok*MULT wraps for
        # o_orderkey > 2^63/MULT while the SQL side would overflow-error
        # — ADVICE.md). Same value mathematically.
        dst = ((ok % nc) * (MULT % nc)) % nc
        w = ((ck * 7 + dst * 13) % 10 + 1).astype(np.float64)
        return pa.table({
            "src": pa.array([str(x) for x in ck], type=pa.string()),
            "dst": pa.array([str(x) for x in dst], type=pa.string()),
            "weight": pa.array(w),
        })

    ds = read_parquet_nm(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_custkey"])
    return ds.map_batches(derive, batch_format="pyarrow")


@functools.lru_cache(maxsize=1)
def gate_graph(sf_dir: str) -> Graph:
    """Build (or reuse) the derived graph for sf_dir. Memoised, so the
    BSP gate queries of one process share the graph's partition-actor
    pool."""
    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    gdir = os.path.join(CACHE_ROOT, f"tpch_{key}_p{P_GATE}")
    return build_graph(derive_edges_ds(sf_dir), gdir, n_parts=P_GATE,
                       weight_col="weight")


def _node_map(g: Graph) -> np.ndarray:
    """v_id -> original integer node id: the dictionary shards' urls in
    bucket order are the urls in v_id order."""
    dict_dir = os.path.join(g.dir, "dict")
    urls = [pq.read_table(os.path.join(dict_dir, f"bucket_{b:05d}.parquet"),
                          columns=["url"]).column("url")
            for b in range(g.meta["n_buckets"])]
    return np.concatenate([pc.cast(u, pa.int64()).to_numpy() for u in urls])


def _with_nodes(g: Graph, table: pa.Table, value_cols: dict) -> pa.Table:
    nm = _node_map(g)
    df = table.to_pandas().sort_values("v_id")
    out = {"node": nm[df["v_id"].to_numpy()]}
    for src_col, (dst_col, rnd) in value_cols.items():
        v = df[src_col].to_numpy()
        out[dst_col] = np.round(v, rnd) if rnd is not None else v
    return pa.table({k: pa.array(v) for k, v in out.items()})


# ---------------------------------------------------------------------------
# query callables (each takes sf_dir, returns a pyarrow Table)
# ---------------------------------------------------------------------------

def q_edges(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    srcs, dsts = [], []
    for p in range(g.P):
        path = g.edges_path("out", p)
        if os.path.exists(path):
            t = pq.read_table(path, columns=["src_id", "dst_id"])
            srcs.append(t.column("src_id").to_numpy())
            dsts.append(t.column("dst_id").to_numpy())
    s = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    d = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
    return pa.table({"src": pa.array(nm[s]), "dst": pa.array(nm[d])})


def q_degree(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = degree_centrality(g).to_arrow()
    return _with_nodes(g, res, {"degree": ("degree", None)})


def q_pagerank(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = pagerank(g, l1_threshold=0.0, max_supersteps=PR_STEPS).to_arrow()
    return _with_nodes(g, res, {"rank": ("rank", 10)})


def q_wcc(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = wcc(g, max_supersteps=WCC_ROUNDS + 1).to_arrow()
    return _with_nodes(g, res, {"component": ("component_vid", None)})


def q_wcc_nodes(sf_dir: str) -> pa.Table:
    """WCC with components labeled by original node id (oracle-friendly)."""
    g = gate_graph(sf_dir)
    res = wcc(g, max_supersteps=WCC_ROUNDS + 1).to_arrow()
    nm = _node_map(g)
    df = res.to_pandas().sort_values("v_id")
    return pa.table({"node": pa.array(nm[df["v_id"].to_numpy()]),
                     "component": pa.array(nm[df["component"].to_numpy()])})


def q_lpa(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = lpa(g, max_supersteps=LPA_STEPS).to_arrow()
    nm = _node_map(g)
    df = res.to_pandas().sort_values("v_id")
    return pa.table({"node": pa.array(nm[df["v_id"].to_numpy()]),
                     "label": pa.array(nm[df["label"].to_numpy()])})


def q_triangles(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = triangle_count(g)
    t = pa.Table.from_pandas(res.to_pandas(), preserve_index=False)
    return _with_nodes(g, t, {"triangles": ("triangles", None)})


def q_sssp(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    # sources = original node ids 0..SSSP_SOURCES-1 -> v_ids
    src_vids = np.flatnonzero(np.isin(nm, np.arange(SSSP_SOURCES)))
    res = sssp(g, src_vids.tolist(), max_supersteps=SSSP_STEPS).to_arrow()
    return _with_nodes(g, res, {"distance": ("distance", None)})


def q_clustering(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = clustering_coefficient(g)
    t = pa.Table.from_pandas(res.to_pandas(), preserve_index=False)
    return _with_nodes(g, t, {"triangles": ("triangles", None),
                              "coefficient": ("coefficient", 10)})


def q_ppr(sf_dir: str) -> pa.Table:
    """PPR at a FIXED superstep count so the frontier-gated recurrence
    (only message receivers recompute, cum = sum over receivers) unrolls
    to the sql_ppr CTE chain exactly."""
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    src_vid = int(np.flatnonzero(nm == PPR_SOURCE)[0])
    res = ppr(g, src_vid, l1_threshold=-1.0,
              max_supersteps=PR_STEPS).to_arrow()
    return _with_nodes(g, res, {"rank": ("ppr_rank", 10)})


def q_closeness(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = closeness_centrality(g, max_supersteps=CLOSENESS_STEPS).to_arrow()
    return _with_nodes(g, res, {"closeness": ("closeness", 6),
                                "reachable": ("reachable", None)})


def q_betweenness(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = betweenness_centrality(
        g, max_supersteps=BETWEENNESS_STEPS).to_arrow()
    return _with_nodes(g, res, {"betweenness": ("betweenness", 6)})


def q_rings(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = rings_detection(g, max_supersteps=RINGS_STEPS).to_arrow()
    return _with_nodes(g, res, {"ring_count": ("ring_count", None)})


def q_links(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    starts = np.flatnonzero(np.isin(nm, np.asarray(LINKS_STARTS)))
    # predicates evaluate over ORIGINAL node ids -> map via nm inside a
    # wrapper expression is not possible; instead translate: our v_ids
    # are the dictionary order of stringified ids, so rebuild predicates
    # over v_id via the node map lookup table
    from ray_linkgraph.algorithms.links import LinksProgram
    from ray_linkgraph.engine import run_program

    # node-id-based predicates: patch _ev/_ee to translate v_id -> node
    nm_arr = nm

    class GateLinks(LinksProgram):
        def _ev(self, ids):
            return (nm_arr[ids] % 50) == 0

        def _ee(self, src, dst, w):
            return w >= 9

    prog = GateLinks(starts.tolist(), spread=LINKS_SPREAD)
    res = run_program(g, prog, max_supersteps=LINKS_STEPS).to_arrow()
    return _with_nodes(g, res, {"n_paths": ("n_paths", None)})


def q_subgraph(sf_dir: str) -> pa.Table:
    """Diamond-pattern SubGraphMatch; counts stored at phi(root)=phi(0)
    (the pattern's tree center)."""
    from ray_linkgraph.algorithms.subgraph import subgraph_match
    g = gate_graph(sf_dir)
    res = subgraph_match(g, list(SUBGRAPH_PATTERN), 4).to_arrow()
    return _with_nodes(g, res, {"n_matches": ("n_matches", None)})


def q_louvain(sf_dir: str) -> pa.Table:
    """One level of Louvain-style synchronous local moving on the
    partition actors (the reference's Louvain is single-process by
    design — louvain.py docstring)."""
    from ray_linkgraph.algorithms.louvain import louvain_communities
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    df = louvain_communities(g, max_rounds=LOUVAIN_ROUNDS).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    return pa.table({
        "node": pa.array(nm[df["node"].to_numpy()]),
        "community": pa.array(nm[df["community"].to_numpy()])})


def q_louvain_ml(sf_dir: str) -> pa.Table:
    """Hierarchical (2-level) Louvain: level 2 moves level 1's
    communities as super-nodes over the original edges
    (algorithms/louvain.py louvain_multilevel)."""
    from ray_linkgraph.algorithms.louvain import louvain_multilevel
    g = gate_graph(sf_dir)
    nm = _node_map(g)
    df = louvain_multilevel(g, levels=2, max_rounds=LOUVAIN_ROUNDS) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    return pa.table({
        "node": pa.array(nm[df["node"].to_numpy()]),
        "community": pa.array(nm[df["community"].to_numpy()])})


def q_kcore(sf_dir: str) -> pa.Table:
    g = gate_graph(sf_dir)
    res = kcore(g, k=3, max_supersteps=KCORE_ROUNDS + 1).to_arrow()
    return _with_nodes(g, res, {"core": ("core", None)})


# ---------------------------------------------------------------------------
# DuckDB oracles (ANSI SQL; tables pre-registered as views)
# ---------------------------------------------------------------------------

SQL_BASE = f"""
ncust AS MATERIALIZED (SELECT count(*) AS n FROM customer),
e AS MATERIALIZED (SELECT DISTINCT o_custkey AS src,
             ((o_orderkey % n) * ({MULT} % n)) % n AS dst
      FROM orders, ncust
      WHERE o_custkey <> ((o_orderkey % n) * ({MULT} % n)) % n),
v AS MATERIALIZED (SELECT src AS node FROM e UNION SELECT dst FROM e),
ub AS MATERIALIZED (SELECT src AS a, dst AS b FROM e UNION SELECT dst, src FROM e),
nv AS MATERIALIZED (SELECT count(*) AS n FROM v),
deg AS MATERIALIZED (SELECT v.node, COALESCE(d.c, 0) AS d FROM v
        LEFT JOIN (SELECT src, count(*) AS c FROM e GROUP BY src) d
        ON d.src = v.node)
"""


def sql_edges() -> str:
    return f"WITH {SQL_BASE} SELECT src, dst FROM e ORDER BY src, dst"


def sql_degree() -> str:
    return f"WITH {SQL_BASE} SELECT node, d AS degree FROM deg ORDER BY node"


def sql_pagerank(steps: int = PR_STEPS, alpha: float = 0.15) -> str:
    parts = [SQL_BASE.rstrip()]
    parts.append("""
r0 AS MATERIALIZED (SELECT node, 1.0 / (SELECT n FROM nv) AS rank FROM v)""")
    for s in range(1, steps):
        p = s - 1
        parts.append(f"""
a{p} AS MATERIALIZED (SELECT sum(r.rank) AS cum,
               sum(CASE WHEN deg.d = 0 THEN r.rank ELSE 0 END) AS dang
        FROM r{p} r JOIN deg ON deg.node = r.node),
r{s} AS MATERIALIZED (SELECT v.node,
         (((SELECT dang FROM a{p}) / (SELECT n FROM nv) + COALESCE(inc.s, 0))
          * {1.0 - alpha} + {alpha} / (SELECT n FROM nv))
         / (SELECT cum FROM a{p}) AS rank
         FROM v LEFT JOIN
           (SELECT e.dst AS node, sum(r.rank / deg.d) AS s
            FROM e JOIN r{p} r ON r.node = e.src
            JOIN deg ON deg.node = e.src
            GROUP BY e.dst) inc
         ON inc.node = v.node)""")
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, ROUND(rank, 10) AS rank "
            f"FROM r{steps - 1} ORDER BY node")


def sql_ppr(steps: int = PR_STEPS, alpha: float = 0.85,
            source: int = PPR_SOURCE) -> str:
    """Unrolled PPR with the engine's frontier semantics (ppr.py /
    PersonalPageRank.java:96-157): only message RECEIVERS recompute
    (others keep their old rank), and the cumulative-rank divisor is the
    sum over the receivers of the PREVIOUS superstep only."""
    parts = [SQL_BASE.rstrip()]
    parts.append(f"""
p0 AS MATERIALIZED (SELECT node,
        CASE WHEN node = {source} THEN 1.0 ELSE 0.0 END AS rank FROM v),
f0 AS MATERIALIZED (SELECT node FROM v WHERE node = {source}),
c0 AS MATERIALIZED (SELECT 1.0 AS c)""")
    for s in range(1, steps):
        p = s - 1
        parts.append(f"""
m{s} AS MATERIALIZED (SELECT e.dst AS node, sum(p.rank / deg.d) AS msum
        FROM e JOIN f{p} f ON f.node = e.src
        JOIN p{p} p ON p.node = e.src
        JOIN deg ON deg.node = e.src
        GROUP BY e.dst),
p{s} AS MATERIALIZED (SELECT p.node,
        CASE WHEN m.node IS NOT NULL
             THEN ({alpha} * m.msum + {1.0 - alpha}
                   * (CASE WHEN p.node = {source} THEN 1.0 ELSE 0.0 END))
                  / (SELECT c FROM c{p})
             ELSE p.rank END AS rank
        FROM p{p} p LEFT JOIN m{s} m ON m.node = p.node),
f{s} AS MATERIALIZED (SELECT node FROM m{s}),
c{s} AS MATERIALIZED (SELECT greatest(COALESCE(sum(p.rank), 0.0), 1e-300) AS c
        FROM p{s} p JOIN m{s} m ON m.node = p.node)""")
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, ROUND(rank, 10) AS ppr_rank "
            f"FROM p{steps - 1} ORDER BY node")


def sql_wcc(rounds: int = WCC_ROUNDS) -> str:
    parts = [SQL_BASE.rstrip()]
    parts.append("""
l0 AS MATERIALIZED (SELECT v.node, least(v.node, COALESCE(m.mn, v.node)) AS lab
       FROM v LEFT JOIN (SELECT a, min(b) AS mn FROM ub GROUP BY a) m
       ON m.a = v.node)""")
    for r in range(1, rounds + 1):
        parts.append(f"""
l{r} AS MATERIALIZED (SELECT l.node, least(l.lab, COALESCE(m.mn, l.lab)) AS lab
        FROM l{r - 1} l LEFT JOIN
          (SELECT ub.a, min(x.lab) AS mn FROM ub
           JOIN l{r - 1} x ON x.node = ub.b GROUP BY ub.a) m
        ON m.a = l.node)""")
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, lab AS component FROM l{rounds} "
            f"ORDER BY node")


def sql_lpa(steps: int = LPA_STEPS) -> str:
    parts = [SQL_BASE.rstrip()]
    parts.append("""
l0 AS MATERIALIZED (SELECT node, node AS lab FROM v)""")
    for r in range(1, steps):
        parts.append(f"""
c{r} AS MATERIALIZED (SELECT ub.a AS node, x.lab AS label, count(*) AS c
        FROM ub JOIN l{r - 1} x ON x.node = ub.b GROUP BY ub.a, x.lab),
w{r} AS MATERIALIZED (SELECT node, label FROM
          (SELECT node, label,
                  row_number() OVER (PARTITION BY node
                                     ORDER BY c DESC, label ASC) AS rn
           FROM c{r}) t WHERE rn = 1),
l{r} AS MATERIALIZED (SELECT l.node, COALESCE(w.label, l.lab) AS lab
        FROM l{r - 1} l LEFT JOIN w{r} w ON w.node = l.node)""")
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, lab AS label FROM l{steps - 1} "
            f"ORDER BY node")


def sql_triangles() -> str:
    return f"""WITH {SQL_BASE},
o AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS x, greatest(src, dst) AS y FROM e),
t AS MATERIALIZED (SELECT e1.x AS a, e1.y AS b, e2.y AS c
      FROM o e1 JOIN o e2 ON e2.x = e1.y
      JOIN o e3 ON e3.x = e1.x AND e3.y = e2.y),
corners AS MATERIALIZED (SELECT a AS node FROM t UNION ALL SELECT b FROM t
            UNION ALL SELECT c FROM t)
SELECT v.node, COALESCE(cnt.c, 0) AS triangles
FROM v LEFT JOIN (SELECT node, count(*) AS c FROM corners GROUP BY node) cnt
ON cnt.node = v.node ORDER BY v.node"""


def sql_sssp(steps: int = SSSP_STEPS, n_sources: int = SSSP_SOURCES) -> str:
    parts = [SQL_BASE.rstrip()]
    parts.append(f"""
ew AS MATERIALIZED (SELECT src, dst,
              CAST((src * 7 + dst * 13) % 10 + 1 AS DOUBLE) AS w FROM e),
d0 AS MATERIALIZED (SELECT node, CASE WHEN node < {n_sources} THEN 0.0 END AS dist FROM v)""")
    for r in range(1, steps):
        parts.append(f"""
d{r} AS MATERIALIZED (SELECT p.node,
          CASE WHEN p.dist IS NULL THEN m.mn
               WHEN m.mn IS NULL THEN p.dist
               ELSE least(p.dist, m.mn) END AS dist
        FROM d{r - 1} p LEFT JOIN
          (SELECT ew.dst AS node, min(q.dist + ew.w) AS mn
           FROM ew JOIN d{r - 1} q ON q.node = ew.src
           WHERE q.dist IS NOT NULL GROUP BY ew.dst) m
        ON m.node = p.node)""")
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, COALESCE(dist, -1.0) AS distance "
            f"FROM d{steps - 1} ORDER BY node")


def sql_kcore(k: int = 3, rounds: int = KCORE_ROUNDS) -> str:
    parts = [SQL_BASE.rstrip()]
    parts.append(f"""
udeg AS MATERIALIZED (SELECT a AS node, count(*) AS d FROM ub GROUP BY a),
alive0 AS MATERIALIZED (SELECT node FROM udeg WHERE d >= {k})""")
    for r in range(1, rounds + 1):
        parts.append(f"""
alive{r} AS MATERIALIZED (SELECT a.node FROM alive{r - 1} a
            JOIN ub ON ub.a = a.node
            JOIN alive{r - 1} b ON b.node = ub.b
            GROUP BY a.node HAVING count(*) >= {k})""")
    body = ",".join(parts)
    return f"""WITH {body}
SELECT v.node,
       CASE WHEN al.node IS NULL THEN 0 ELSE COALESCE(c.cnt, 0) END AS core
FROM v LEFT JOIN alive{rounds} al ON al.node = v.node
LEFT JOIN (SELECT ub.a AS node, count(*) AS cnt FROM ub
           JOIN alive{rounds} x ON x.node = ub.b GROUP BY ub.a) c
ON c.node = v.node ORDER BY v.node"""


def sql_closeness(steps: int = CLOSENESS_STEPS) -> str:
    """Unrolled min-plus relaxation: after s supersteps the vertex map
    holds min path weight over <= s-edge paths (closeness.py docstring
    has the equivalence argument for the reference's forward-on-improve
    scheme)."""
    parts = [SQL_BASE.rstrip()]
    parts.append("""
ew AS MATERIALIZED (SELECT src, dst,
              CAST((src * 7 + dst * 13) % 10 + 1 AS DOUBLE) AS w FROM e),
cd1 AS MATERIALIZED (SELECT src AS start, dst AS node, w AS dist FROM ew)""")
    for k in range(2, steps):
        parts.append(f"""
cd{k} AS MATERIALIZED (
  SELECT start, node, min(dist) AS dist FROM (
    SELECT start, node, dist FROM cd{k - 1}
    UNION ALL
    SELECT p.start, ew.dst AS node, p.dist + ew.w AS dist
    FROM cd{k - 1} p JOIN ew ON ew.src = p.node
    WHERE ew.dst != p.start
  ) GROUP BY start, node)""")
    last = f"cd{max(1, steps - 1)}"
    body = ",".join(parts)
    return f"""WITH {body}
SELECT v.node, ROUND(COALESCE(c.clo, 0.0), 6) AS closeness,
       COALESCE(c.n, 0) AS reachable
FROM v LEFT JOIN (SELECT node, sum(1.0 / dist) AS clo,
                         count(*) AS n
                  FROM {last} GROUP BY node) c ON c.node = v.node
ORDER BY v.node"""


def sql_betweenness() -> str:
    """Fixed-K (=5 supersteps) replica of the reference's vote scheme:
    votes from 2-edge and 3-edge shortest paths (see betweenness.py for
    the superstep alignment)."""
    return f"""WITH {SQL_BASE},
bd1 AS MATERIALIZED (SELECT DISTINCT src AS s, dst AS t FROM e),
bd2 AS MATERIALIZED (
  SELECT DISTINCT p.s, e.dst AS t FROM bd1 p JOIN e ON e.src = p.t
  WHERE e.dst != p.s
    AND NOT EXISTS (SELECT 1 FROM bd1 x WHERE x.s = p.s AND x.t = e.dst)),
bd3 AS MATERIALIZED (
  SELECT DISTINCT p.s, e.dst AS t FROM bd2 p JOIN e ON e.src = p.t
  WHERE e.dst != p.s
    AND NOT EXISTS (SELECT 1 FROM bd1 x WHERE x.s = p.s AND x.t = e.dst)
    AND NOT EXISTS (SELECT 1 FROM bd2 x WHERE x.s = p.s AND x.t = e.dst)),
q2 AS MATERIALIZED (
  SELECT p.src AS s, p.dst AS m1, e.dst AS t
  FROM e p JOIN e ON e.src = p.dst
  JOIN bd2 d ON d.s = p.src AND d.t = e.dst
  WHERE e.dst != p.src AND e.dst != p.dst),
q3 AS MATERIALIZED (
  SELECT q2.s, q2.m1, q2.t AS m2, e.dst AS t
  FROM q2 JOIN e ON e.src = q2.t
  JOIN bd3 d ON d.s = q2.s AND d.t = e.dst
  WHERE e.dst != q2.s AND e.dst != q2.m1 AND e.dst != q2.t),
tots AS MATERIALIZED (
  SELECT s, t, 2 AS lvl, count(*) AS tot FROM q2 GROUP BY s, t
  UNION ALL SELECT s, t, 3, count(*) FROM q3 GROUP BY s, t),
votes AS MATERIALIZED (
  SELECT mid, sum(CAST(c AS DOUBLE) / tot) AS b FROM (
    SELECT q2.s, q2.t, 2 AS lvl, m1 AS mid, count(*) AS c
    FROM q2 GROUP BY q2.s, q2.t, m1
    UNION ALL
    SELECT s, t, 3, mid, count(*) FROM (
      SELECT s, t, m1 AS mid FROM q3
      UNION ALL SELECT s, t, m2 FROM q3) GROUP BY s, t, mid
  ) cm JOIN tots ON tots.s = cm.s AND tots.t = cm.t AND tots.lvl = cm.lvl
  GROUP BY mid)
SELECT v.node, ROUND(COALESCE(votes.b, 0.0), 6) AS betweenness
FROM v LEFT JOIN votes ON votes.mid = v.node ORDER BY v.node"""


# -- sampled betweenness: the 100-TB gate configuration --------------------
# The engine's edge-sampling draw (betweenness.py:105-109) is
# uniform01(seed, superstep, self_vid, tgt_vid) = splitmix64-chain
# integer arithmetic (_util.hash_u64), replicated here bit-for-bit in
# DuckDB HUGEINT mod-2^64 arithmetic. Draws only happen at supersteps 1
# (2nd hop) and 2 (3rd hop); the seed/step prefix of the hash chain is
# constant-folded in Python.

BETWEENNESS_SAMPLE_RATE = 0.5
BETWEENNESS_SAMPLE_SEED = 107

_SM_M64 = 1 << 64
_SM_G = 0x9E3779B97F4A7C15
_SM_C1 = 0xBF58476D1CE4E5B9
_SM_C2 = 0x94D049BB133111EB


def _sql_mm64(z: str, c: int) -> str:
    """(z * c) mod 2^64 with the 32-bit-split multiply so every partial
    product stays inside DuckDB's int128 HUGEINT."""
    lo, hi = c % (1 << 32), c >> 32
    return (f"(((({z} >> 32) * {lo} + ({z} % 4294967296) * {hi})"
            f" % 4294967296) * 4294967296"
            f" + ({z} % 4294967296) * {lo}) % {_SM_M64}")


def _sql_smx(zexpr: str, p: str, src: str) -> str:
    """Four MATERIALIZED CTEs computing splitmix64(zexpr) as column
    ``{p}_out`` over table ``src`` (all prior columns carried).
    Stepwise CTEs are load-bearing: macro/lateral-alias substitution
    duplicates the argument expression exponentially and hangs the
    DuckDB binder."""
    return (
        f"{p}a AS MATERIALIZED (SELECT *, (({zexpr}) + {_SM_G}) % {_SM_M64}"
        f" AS {p}_z0 FROM {src}),\n"
        f"{p}b AS MATERIALIZED (SELECT *, "
        f"{_sql_mm64(f'xor({p}_z0, {p}_z0 >> 30)', _SM_C1)}"
        f" AS {p}_z1 FROM {p}a),\n"
        f"{p}c AS MATERIALIZED (SELECT *, "
        f"{_sql_mm64(f'xor({p}_z1, {p}_z1 >> 27)', _SM_C2)}"
        f" AS {p}_z2 FROM {p}b),\n"
        f"{p}d AS MATERIALIZED (SELECT *, xor({p}_z2, {p}_z2 >> 31)"
        f" AS {p}_out FROM {p}c)")


def q_betweenness_sampled(sf_dir: str) -> pa.Table:
    """betweenness with sample_rate=0.5 — the scale configuration (the
    exhaustive path enumeration is combinatorial; sampling is the
    reference's own pressure valve, BetweennessCentrality.java:46-89)."""
    g = gate_graph(sf_dir)
    res = betweenness_centrality(
        g, sample_rate=BETWEENNESS_SAMPLE_RATE,
        seed=BETWEENNESS_SAMPLE_SEED,
        max_supersteps=BETWEENNESS_STEPS).to_arrow()
    return _with_nodes(g, res, {"betweenness": ("betweenness", 6)})


def sql_betweenness_sampled(rate: float = BETWEENNESS_SAMPLE_RATE,
                            seed: int = BETWEENNESS_SAMPLE_SEED) -> str:
    """sql_betweenness with every forwarded hop filtered by the same
    counter-hash draw the engine makes: se1/se2 = the step-1/step-2
    sampled edge sets. vid = 0-based numeric rank of the node id, which
    equals the engine's dictionary encoding (BytesId (len,bytes) order
    == numeric order for decimal strings, SURVEY.md §1.2)."""
    from ._util import splitmix64

    def sm(x: int) -> int:
        return int(splitmix64(np.array([x], dtype=np.uint64))[0])

    acc_seed = sm(seed)
    step_const = {k: sm(acc_seed ^ ((sm(k) + _SM_G) % _SM_M64))
                  for k in (1, 2)}
    u01 = "CAST({h} >> 11 AS DOUBLE) / 9007199254740992.0"

    se_ctes = []
    for k in (1, 2):
        se_ctes.append(_sql_smx(
            f"xor({step_const[k]}::HUGEINT, (hs + {_SM_G}) % {_SM_M64})",
            f"sx{k}", "eh"))
        se_ctes.append(_sql_smx(
            f"xor(sx{k}_out, (ht + {_SM_G}) % {_SM_M64})",
            f"sy{k}", f"sx{k}d"))
        se_ctes.append(
            f"se{k} AS MATERIALIZED (SELECT src, dst FROM sy{k}d"
            f" WHERE {u01.format(h=f'sy{k}_out')} < {rate!r})")
    se_sql = ",\n".join(se_ctes)

    return f"""WITH {SQL_BASE},
vmap AS MATERIALIZED (
  SELECT node, row_number() OVER (ORDER BY node) - 1 AS vid FROM v),
{_sql_smx('CAST(vid AS HUGEINT)', 'hv', 'vmap')},
eh AS MATERIALIZED (
  SELECT e.src, e.dst, s.hv_out AS hs, t.hv_out AS ht
  FROM e JOIN hvd s ON s.node = e.src JOIN hvd t ON t.node = e.dst),
{se_sql},
bd1 AS MATERIALIZED (SELECT DISTINCT src AS s, dst AS t FROM e),
bd2 AS MATERIALIZED (
  SELECT DISTINCT p.s, e.dst AS t FROM bd1 p JOIN se1 e ON e.src = p.t
  WHERE e.dst != p.s
    AND NOT EXISTS (SELECT 1 FROM bd1 x WHERE x.s = p.s AND x.t = e.dst)),
bd3 AS MATERIALIZED (
  SELECT DISTINCT p.s, e.dst AS t FROM bd2 p JOIN se2 e ON e.src = p.t
  WHERE e.dst != p.s
    AND NOT EXISTS (SELECT 1 FROM bd1 x WHERE x.s = p.s AND x.t = e.dst)
    AND NOT EXISTS (SELECT 1 FROM bd2 x WHERE x.s = p.s AND x.t = e.dst)),
q2 AS MATERIALIZED (
  SELECT p.src AS s, p.dst AS m1, e.dst AS t
  FROM e p JOIN se1 e ON e.src = p.dst
  JOIN bd2 d ON d.s = p.src AND d.t = e.dst
  WHERE e.dst != p.src AND e.dst != p.dst),
q3 AS MATERIALIZED (
  SELECT q2.s, q2.m1, q2.t AS m2, e.dst AS t
  FROM q2 JOIN se2 e ON e.src = q2.t
  JOIN bd3 d ON d.s = q2.s AND d.t = e.dst
  WHERE e.dst != q2.s AND e.dst != q2.m1 AND e.dst != q2.t),
tots AS MATERIALIZED (
  SELECT s, t, 2 AS lvl, count(*) AS tot FROM q2 GROUP BY s, t
  UNION ALL SELECT s, t, 3, count(*) FROM q3 GROUP BY s, t),
votes AS MATERIALIZED (
  SELECT mid, sum(CAST(c AS DOUBLE) / tot) AS b FROM (
    SELECT q2.s, q2.t, 2 AS lvl, m1 AS mid, count(*) AS c
    FROM q2 GROUP BY q2.s, q2.t, m1
    UNION ALL
    SELECT s, t, 3, mid, count(*) FROM (
      SELECT s, t, m1 AS mid FROM q3
      UNION ALL SELECT s, t, m2 FROM q3) GROUP BY s, t, mid
  ) cm JOIN tots ON tots.s = cm.s AND tots.t = cm.t AND tots.lvl = cm.lvl
  GROUP BY mid)
SELECT v.node, ROUND(COALESCE(votes.b, 0.0), 6) AS betweenness
FROM v LEFT JOIN votes ON votes.mid = v.node ORDER BY v.node"""


def sql_rings() -> str:
    """Fixed-K (=4 supersteps) replica: directed rings of length 2 and 3
    recorded at their minimum vertex (rings.py docstring)."""
    return f"""WITH {SQL_BASE},
rr1 AS MATERIALIZED (SELECT src AS v0, dst AS cur FROM e WHERE dst >= src),
rr2 AS MATERIALIZED (
  SELECT p.v0, p.cur AS m1, e.dst AS cur
  FROM rr1 p JOIN e ON e.src = p.cur WHERE e.dst >= p.v0),
rr3 AS MATERIALIZED (
  SELECT p.v0, p.m1, p.cur AS m2, e.dst AS cur
  FROM rr2 p JOIN e ON e.src = p.cur
  WHERE p.cur != p.v0 AND p.cur != p.m1 AND e.dst >= p.v0),
ringc AS MATERIALIZED (
  SELECT v0 AS node, count(*) AS c FROM (
    SELECT v0 FROM rr2 WHERE cur = v0
    UNION ALL SELECT v0 FROM rr3 WHERE cur = v0) GROUP BY v0)
SELECT v.node, COALESCE(ringc.c, 0) AS ring_count
FROM v LEFT JOIN ringc ON ringc.node = v.node ORDER BY v.node"""


def sql_links(steps: int = LINKS_STEPS) -> str:
    """Unrolled Links replica (gate config: starts 0-4, spread
    w_out >= w_in, end-edge w >= 9, end-vertex node % 50 == 0).
    Messages are carried as multiset rows (no DISTINCT) so path
    multiplicity matches the engine exactly."""
    starts_lit = ",".join(str(x) for x in LINKS_STARTS)
    parts = [SQL_BASE.rstrip()]
    parts.append(f"""
ew AS MATERIALIZED (SELECT src, dst,
              CAST((src * 7 + dst * 13) % 10 + 1 AS DOUBLE) AS w FROM e),
lst AS MATERIALIZED (SELECT node FROM deg
        WHERE node IN ({starts_lit}) AND d > 0),
lsv0 AS MATERIALIZED (SELECT node, count(*) AS c FROM lst
        WHERE node % 50 = 0 GROUP BY node),
lse0 AS MATERIALIZED (SELECT ew.src AS node, count(*) AS c
        FROM ew JOIN lst ON lst.node = ew.src
        WHERE lst.node % 50 <> 0 AND ew.w >= 9 GROUP BY ew.src),
lm1 AS MATERIALIZED (SELECT ew.dst AS cur, ew.w AS wl
        FROM ew JOIN lst ON lst.node = ew.src
        WHERE lst.node % 50 <> 0 AND ew.w < 9)""")
    saves = ["lsv0", "lse0"]
    for s in range(1, steps):
        parts.append(f"""
lsv{s} AS MATERIALIZED (SELECT cur AS node, count(*) AS c FROM lm{s}
        WHERE cur % 50 = 0 GROUP BY cur),
lse{s} AS MATERIALIZED (SELECT m.cur AS node, count(*) AS c
        FROM lm{s} m JOIN ew ON ew.src = m.cur
        WHERE m.cur % 50 <> 0 AND ew.w >= 9 GROUP BY m.cur)""")
        saves += [f"lsv{s}", f"lse{s}"]
        if s + 1 < steps:
            parts.append(f"""
lm{s + 1} AS MATERIALIZED (SELECT ew.dst AS cur, ew.w AS wl
        FROM lm{s} m JOIN ew ON ew.src = m.cur
        WHERE m.cur % 50 <> 0 AND ew.w < 9 AND ew.w >= m.wl)""")
    union = " UNION ALL ".join(f"SELECT node, c FROM {x}" for x in saves)
    body = ",".join(parts)
    return f"""WITH {body},
allsaves AS MATERIALIZED ({union})
SELECT v.node, COALESCE(t.c, 0) AS n_paths
FROM v LEFT JOIN (SELECT node, CAST(sum(c) AS BIGINT) AS c
                  FROM allsaves GROUP BY node) t
ON t.node = v.node ORDER BY v.node"""


def sql_subgraph() -> str:
    """Injective homomorphism count of the directed diamond
    0->1, 0->2, 1->3, 2->3, grouped by phi(0) (the tree root/center —
    result-set parity is tree-independent, subgraph.py docstring)."""
    return f"""WITH {SQL_BASE},
sg AS MATERIALIZED (
  SELECT e1.src AS a, e1.dst AS b, e2.dst AS c, e3.dst AS d
  FROM e e1
  JOIN e e2 ON e2.src = e1.src AND e2.dst <> e1.dst
  JOIN e e3 ON e3.src = e1.dst
  JOIN e e4 ON e4.src = e2.dst AND e4.dst = e3.dst
  WHERE e3.dst <> e1.src AND e3.dst <> e1.dst AND e3.dst <> e2.dst
    AND e1.dst <> e1.src AND e2.dst <> e1.src)
SELECT v.node, COALESCE(t.c, 0) AS n_matches
FROM v LEFT JOIN (SELECT a AS node, count(*) AS c FROM sg GROUP BY a) t
ON t.node = v.node ORDER BY v.node"""


def _sql_louvain_round(r: int, p: str, edge: str) -> str:
    """One synchronous local-moving round as CTEs: reads {p}lv{r}
    (node, lab, k) + ``edge`` (a, b, w), emits {p}lv{r+1}. Shared by
    the one-level and the contracted (multilevel) oracle chains."""
    return f"""
{p}lt{r} AS MATERIALIZED (SELECT lab, sum(k) AS tot FROM {p}lv{r} GROUP BY lab),
{p}lkvc{r} AS MATERIALIZED (
  SELECT {edge}.a AS node, l.lab AS cand, sum({edge}.w) AS kvc
  FROM {edge} JOIN {p}lv{r} l ON l.node = {edge}.b GROUP BY {edge}.a, l.lab),
{p}lg{r} AS MATERIALIZED (
  SELECT kv.node, kv.cand,
         kv.kvc - me.k * (t.tot - CASE WHEN kv.cand = me.lab
                                       THEN me.k ELSE 0.0 END)
                  / (SELECT m2 FROM twom) AS gain
  FROM {p}lkvc{r} kv
  JOIN {p}lv{r} me ON me.node = kv.node
  JOIN {p}lt{r} t ON t.lab = kv.cand),
{p}lb{r} AS MATERIALIZED (
  SELECT node, cand, gain FROM (
    SELECT node, cand, gain,
           row_number() OVER (PARTITION BY node
                              ORDER BY gain DESC, cand ASC) AS rn
    FROM {p}lg{r}) x WHERE rn = 1),
{p}ls{r} AS MATERIALIZED (
  SELECT me.node,
         COALESCE(g.gain,
                  -me.k * (t.tot - me.k) / (SELECT m2 FROM twom)) AS stay
  FROM {p}lv{r} me
  JOIN {p}lt{r} t ON t.lab = me.lab
  LEFT JOIN {p}lg{r} g ON g.node = me.node AND g.cand = me.lab),
{p}lv{r + 1} AS MATERIALIZED (
  SELECT me.node,
         CASE WHEN b.gain IS NOT NULL AND b.gain > s.stay + 1e-15
                   AND b.cand <> me.lab
              THEN b.cand ELSE me.lab END AS lab,
         me.k
  FROM {p}lv{r} me
  JOIN {p}ls{r} s ON s.node = me.node
  LEFT JOIN {p}lb{r} b ON b.node = me.node)"""


_SQL_LOUVAIN_BASE = """
ew2 AS MATERIALIZED (SELECT src, dst,
        CAST((src * 7 + dst * 13) % 10 + 1 AS DOUBLE) AS w FROM e),
ubw AS MATERIALIZED (SELECT a, b, min(w) AS w FROM (
        SELECT src AS a, dst AS b, w FROM ew2
        UNION ALL SELECT dst, src, w FROM ew2) GROUP BY a, b),
kdeg AS MATERIALIZED (SELECT a AS node, sum(w) AS k FROM ubw GROUP BY a),
twom AS MATERIALIZED (SELECT sum(w) AS m2 FROM ubw),
lv0 AS MATERIALIZED (SELECT v.node, v.node AS lab,
        COALESCE(kdeg.k, 0.0) AS k
        FROM v LEFT JOIN kdeg ON kdeg.node = v.node)"""


def sql_louvain(rounds: int = LOUVAIN_ROUNDS) -> str:
    """Unrolled synchronous one-level local moving, bit-identical to
    algorithms/louvain.py (weights/sums are exact small integers in
    float64, so gains and ties replicate exactly; a vertex without a
    k_{v,cur} row stays with the closed-form gain, as the engine's
    k_{s,c} = 0 staying row does)."""
    parts = [SQL_BASE.rstrip(), _SQL_LOUVAIN_BASE]
    for r in range(rounds):
        parts.append(_sql_louvain_round(r, "", "ubw"))
    body = ",".join(parts)
    return (f"WITH {body} SELECT node, lab AS community FROM lv{rounds} "
            f"ORDER BY node")


def sql_louvain_ml(rounds: int = LOUVAIN_ROUNDS) -> str:
    """Multilevel (2-level) replica of louvain_multilevel: the level-1
    chain, then COMMUNITY CONTRACTION and the same unrolled local-moving
    rounds over the contracted graph; communities without any edges
    keep their level-1 label. The contraction is the engine's super-node
    map: a contracted node is a level-1 community (the engine's
    sup(v)), its degree includes the intra-community self-loop weight
    (K(s), the sum of its members' k_v), and the gain pass excludes
    self-edges, where it cancels exactly (the engine skips edges with
    sup(u) = sup(v))."""
    parts = [SQL_BASE.rstrip(), _SQL_LOUVAIN_BASE]
    for r in range(rounds):
        parts.append(_sql_louvain_round(r, "", "ubw"))
    parts.append(f"""
cw AS MATERIALIZED (
  SELECT la.lab AS ca, lb.lab AS cb, sum(ubw.w) AS w
  FROM ubw JOIN lv{rounds} la ON la.node = ubw.a
           JOIN lv{rounds} lb ON lb.node = ubw.b
  GROUP BY la.lab, lb.lab),
cubw AS MATERIALIZED (SELECT ca AS a, cb AS b, w FROM cw WHERE ca <> cb),
mlv0 AS MATERIALIZED (
  SELECT ca AS node, ca AS lab, sum(w) AS k FROM cw GROUP BY ca)""")
    for r in range(rounds):
        parts.append(_sql_louvain_round(r, "m", "cubw"))
    body = ",".join(parts)
    return (f"WITH {body} "
            f"SELECT l1.node, COALESCE(m.lab, l1.lab) AS community "
            f"FROM lv{rounds} l1 "
            f"LEFT JOIN mlv{rounds} m ON m.node = l1.lab ORDER BY l1.node")


def sql_clustering() -> str:
    return f"""WITH {SQL_BASE},
o AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS x,
                   greatest(src, dst) AS y FROM e),
t AS MATERIALIZED (SELECT e1.x AS a, e1.y AS b, e2.y AS c
      FROM o e1 JOIN o e2 ON e2.x = e1.y
      JOIN o e3 ON e3.x = e1.x AND e3.y = e2.y),
corners AS MATERIALIZED (SELECT a AS node FROM t UNION ALL SELECT b FROM t
            UNION ALL SELECT c FROM t),
tri AS MATERIALIZED (SELECT v.node, COALESCE(cnt.c, 0) AS triangles
       FROM v LEFT JOIN (SELECT node, count(*) AS c FROM corners
                         GROUP BY node) cnt ON cnt.node = v.node),
udeg AS MATERIALIZED (SELECT a AS node, count(*) AS d FROM ub GROUP BY a)
SELECT tri.node, tri.triangles,
       CASE WHEN COALESCE(udeg.d, 0) > 1
            THEN ROUND(2.0 * tri.triangles
                       / (udeg.d * (udeg.d - 1.0)), 10)
            ELSE 0.0 END AS coefficient
FROM tri LEFT JOIN udeg ON udeg.node = tri.node ORDER BY tri.node"""
