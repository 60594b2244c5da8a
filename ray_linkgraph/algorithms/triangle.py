"""Per-vertex triangle count + clustering coefficient as a 4-superstep
vertex program on the graph's partition actors (both-mode adjacency).

Conformance spec (/root/reference/computer-algorithm/.../community/
trianglecount/TriangleCount.java:69-195): with both-direction, deduped,
self-loop-free adjacency, each vertex's count equals the number of
triangles through it, every triangle counted exactly once per corner.
The reference is a Pregel ``Computation``: superstep 0 ships each
vertex's lower-id neighbour list to all its neighbours (with a
per-partition "superedge" dedup cache for hubs >= 100 edges,
TriangleCount.java:87-114), superstep 1 intersects every received list
with the receiver's own neighbour set (:174-195).

Orientation. The triangle SET is independent of edge orientation, so
we orient by (degree, id) rank instead of raw id: N+(v) = the
neighbours ranked above v. Every triangle a < b < c (by rank) is then
found exactly once, at the wedge (a; b, c) with apex a. Ranking by
degree caps |N+(v)| at O(sqrt(E)) and the wedge total at O(E^1.5), and
a hub, ranked at the top, has an empty N+ and ships nothing — this
replaces the reference's superedge cache as the hub/skew treatment
(degree-capped splits, SURVEY.md §4).

Supersteps (``concat`` combiner):
  0. every vertex v sends (sender=v, deg=d(v)) along its both-mode
     edges — 2E messages; the adjacency is symmetric, so every vertex
     learns its neighbours' degrees;
  1. v keeps N+(v) sorted by rank (as sorted composite keys v*V + u in
     its state) and sends to each u in N+(v) apex=v plus, as a
     ``RaggedCol``, the part of N+(v) ranked after u — one list per
     oriented edge, sum_v |N+(v)|(|N+(v)|-1)/2 entries in all;
  2. u tests every listed w for w in N+(u) with one ``searchsorted``
     over its sorted keys u*V + w (w ranks above u, so edge u-w exists
     iff w in N+(u)); each hit credits u locally and sends one credit
     to the apex and one to w — 2 messages per triangle;
  3. credits are summed with a ``bincount``; the program stops.
On the perfbench ``graph_queries`` graph of seed 15701 (V=20,050,
E=154,900, P=4; top degree 396, largest N+ 48) the steps send 309,676
degree messages, 134,847 lists (585,308 entries), 24,744 credits and
none; the program takes 0.053 s (median of 7, Ray at 4 logical CPUs).
"""

from __future__ import annotations

import numpy as np

from ..engine import RaggedCol, VertexProgram, run_program
from ..graph import Graph

_Z = np.zeros(0, dtype=np.int64)


class TriangleProgram(VertexProgram):
    combiner = "concat"
    mode = "both"

    def __init__(self, with_coefficient: bool = False):
        self.with_coefficient = with_coefficient

    def init(self, ctx, g):
        return {"tri": np.zeros(ctx.size, dtype=np.int64), "nplus": _Z}

    def compute0(self, ctx, state, g):
        indptr, adj, _ = ctx.csr("both")
        deg = np.diff(indptr)
        return adj, {"sender": np.repeat(ctx.vids(), deg),
                     "deg": np.repeat(deg, deg)}, {}

    def compute(self, ctx, state, inbox, g, s):
        # a partition that received nothing has no payload columns
        if len(inbox.dst) == 0:
            return _Z, {}, {}
        if s == 1:
            return self._orient(ctx, state, inbox)
        if s == 2:
            return self._intersect(ctx, state, inbox)
        state["tri"] += np.bincount(inbox.dst, minlength=ctx.size)
        return _Z, {}, {}

    def _orient(self, ctx, state, inbox):
        deg_u, u = inbox.cols            # payload keys in sorted order
        v = inbox.dst.astype(np.int64)
        deg_v = ctx.degrees("both")[v]
        v_g = v + ctx.lo
        up = (deg_u > deg_v) | ((deg_u == deg_v) & (u > v_g))
        v, v_g, u, deg_u = v[up], v_g[up], u[up], deg_u[up]
        # N+(v) segments by rank: (v, deg_u, u) order from one unstable
        # sort of a unique key, rank = the position of (deg_u, u)
        rank = np.unique(deg_u * np.int64(ctx.V) + u, return_inverse=True)[1]
        order = np.argsort(v * (len(v) + 1) + rank)
        v, v_g, u = v[order], v_g[order], u[order]
        state["nplus"] = np.sort(v_g * np.int64(ctx.V) + u)
        # message i goes to u[i] and lists the rest of its segment
        seg_end = np.searchsorted(v, v, side="right")
        n = seg_end - np.arange(len(v)) - 1
        send = np.flatnonzero(n)
        n = n[send]
        off = np.zeros(len(send) + 1, dtype=np.int64)
        np.cumsum(n, out=off[1:])
        pos = np.arange(off[-1]) + np.repeat(send + 1 - off[:-1], n)
        return u[send], {"apex": v_g[send],
                         "list": RaggedCol(u[pos], off)}, {}

    def _intersect(self, ctx, state, inbox):
        apex, lists = inbox.cols
        n = lists.lengths()
        row = np.repeat(np.arange(len(n)), n)
        u = inbox.dst.astype(np.int64)[row]
        w = lists.flat
        keys, state["nplus"] = state["nplus"], _Z
        q = (u + ctx.lo) * np.int64(ctx.V) + w
        pos = np.searchsorted(keys, q)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == q[hit]
        state["tri"] += np.bincount(u[hit], minlength=ctx.size)
        return np.concatenate([apex[row[hit]], w[hit]]), {}, {}

    def master(self, s, aggs, msg_total, V, g):
        return (s < 3, g)

    def output(self, ctx, state):
        tri = state["tri"]
        if not self.with_coefficient:
            return {"triangles": tri}
        d = ctx.degrees("both").astype(np.float64)
        denom = d * (d - 1)
        return {"triangles": tri,
                "coefficient": np.divide(2.0 * tri, denom, where=denom > 0,
                                         out=np.zeros_like(denom))}


def triangle_count(graph: Graph, with_coefficient: bool = False):
    """-> Dataset(v_id, triangles[, coefficient]) covering all V vertices."""
    # the composite key v*V + u needs V^2 < 2^63
    if graph.V >= 3_037_000_499:
        raise NotImplementedError("triangle composite key needs V < 3.0e9")
    res = run_program(graph, TriangleProgram(with_coefficient),
                      max_supersteps=4)
    return res.to_dataset()


def clustering_coefficient(graph: Graph):
    """-> Dataset(v_id, triangles, coefficient)."""
    return triangle_count(graph, with_coefficient=True)
