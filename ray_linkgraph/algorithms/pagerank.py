"""PageRank with the reference's exact (non-textbook) update rule.

Conformance spec (/root/reference/computer-algorithm/.../centrality/
pagerank/PageRank.java:68-141 and PageRank4Master.java:80-105):

superstep 0:
    rank = 1/N for every vertex; aggregate cum = Σrank;
    dangling (outdeg==0) vertices aggregate (count, Σrank);
    non-dangling send rank/outdeg along all out-edges.
superstep s >= 1 (aggregates below are from superstep s-1):
    danglingRank       = Σ dangling rank / N
    initialRank        = alpha / N                    (alpha = 0.15)
    cumulativeRank     = Σ rank
    rank' = (danglingRank + Σ incoming) * (1 - alpha) + initialRank
    rank' /= cumulativeRank
    l1 += |rank - rank'|; re-aggregate cum/dangling; send rank'/outdeg.
stop: superstep > 1 and l1 <= l1_diff_threshold
      (default 1e-5 in the reference, PageRank4Master.java:38-40; this
      repo's north-star runs 1e-6), else at max supersteps
      (bsp.max_super_step default 10, ComputerOptions.java:477-483).

Every vertex computes every superstep (PageRank never inactivates), and
the sum combiner makes message order irrelevant — so the vectorized
whole-partition kernel is bit-compatible with the reference's per-vertex
loop up to float addition order (hence the allclose(1e-6) gate, not
bit-equality).
"""

from __future__ import annotations

import numpy as np

from ..engine import EdgeScatter, VertexProgram, run_program
from ..graph import Graph

ALPHA_DEFAULT = 0.15  # page_rank.alpha, PageRank.java:39-41


class PageRankProgram(VertexProgram):
    combiner = "sum"
    mode = "out"
    dense = True  # every vertex scatters along every out-edge

    def __init__(self, alpha: float = ALPHA_DEFAULT,
                 l1_threshold: float = 1e-6):
        self.alpha = alpha
        self.l1_threshold = l1_threshold

    def master_init(self, graph: Graph) -> dict:
        return {"N": graph.V}

    def init(self, ctx, g):
        return {"rank": np.full(ctx.size, 1.0 / g["N"])}

    def _aggs(self, rank, outdeg, l1=0.0):
        dang = outdeg == 0
        return {
            "cum": float(rank.sum()),
            "dangling_num": int(dang.sum()),
            "dangling_cum": float(rank[dang].sum()),
            "l1": float(l1),
        }

    def _scatter(self, ctx, rank, outdeg):
        # full-adjacency scatter: contrib is per-vertex, and each
        # receiver pulls its in-edges' sum from the published values
        contrib = np.where(outdeg > 0, rank / np.maximum(outdeg, 1), 0.0)
        return EdgeScatter("out", contrib), {}

    def compute0(self, ctx, state, g):
        outdeg = ctx.degrees("out")
        dst, payload = self._scatter(ctx, state["rank"], outdeg)
        return dst, payload, self._aggs(state["rank"], outdeg)

    def compute(self, ctx, state, inbox, g, s):
        outdeg = ctx.degrees("out")
        old = state["rank"]
        rank = (g["danglingRank"] + inbox.sum) * (1.0 - self.alpha) \
            + g["initialRank"]
        rank /= g["cumulativeRank"]
        l1 = np.abs(old - rank).sum()
        state["rank"] = rank
        dst, payload = self._scatter(ctx, rank, outdeg)
        return dst, payload, self._aggs(rank, outdeg, l1)

    def rescatter(self, ctx, state, g, s):
        return self._scatter(ctx, state["rank"], ctx.degrees("out"))

    def master(self, s, aggs, msg_total, V, g):
        g_next = {
            "N": V,
            "danglingRank": aggs["dangling_cum"] / V,
            "initialRank": self.alpha / V,
            "cumulativeRank": aggs["cum"],
        }
        # reference: stop when superstep > 1 and l1 <= threshold
        cont = not (s > 1 and aggs["l1"] <= self.l1_threshold)
        return cont, g_next

    def output(self, ctx, state):
        return {"rank": state["rank"]}


def pagerank(graph: Graph, alpha: float = ALPHA_DEFAULT,
             l1_threshold: float = 1e-6, max_supersteps: int = 10,
             checkpoint_dir: str | None = None, checkpoint_every: int = 1,
             resume: bool = False):
    return run_program(graph, PageRankProgram(alpha, l1_threshold),
                       max_supersteps=max_supersteps,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every, resume=resume)
