"""Personalized PageRank (single source).

Update rule per the reference (/root/reference/computer-algorithm/.../
centrality/ppr/PersonalPageRank.java:96-157, alpha default 0.85):

    rank' = alpha * Σ incoming + (1 - alpha) * [v == source]
    rank' /= cumulativeRank(previous superstep)
    senders re-send rank'/outdeg; only message receivers run.

Documented deviations from the reference (its own convergence tracking
is degenerate: the l1 diff is computed AFTER assigning the new rank to
the value (PersonalPageRank.java:121 ``ppr.contribRank(rank)`` then
``abs(ppr.contribRank() - rank)``), so it is always 0 and the master
stops right after superstep 2):

* l1 diff here is |new - old| (real convergence), threshold 1e-6.

As in the reference, ONLY message receivers recompute each superstep
(compute is invoked per delivered message, Computation.java contract);
the run terminates when no messages are in flight.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram, run_program
from ..graph import Graph

ALPHA_DEFAULT = 0.85  # ppr.alpha, PersonalPageRank.java:36


class PprProgram(VertexProgram):
    combiner = "sum"
    mode = "out"

    def __init__(self, source_id: int, alpha: float = ALPHA_DEFAULT,
                 l1_threshold: float = 1e-6):
        self.source_id = int(source_id)
        self.alpha = alpha
        self.l1_threshold = l1_threshold

    def master_init(self, graph: Graph) -> dict:
        return {"cum": 1.0}

    def _src_local(self, ctx):
        if ctx.lo <= self.source_id < ctx.hi:
            return self.source_id - ctx.lo
        return None

    def init(self, ctx, g):
        rank = np.zeros(ctx.size)
        sl = self._src_local(ctx)
        if sl is not None:
            rank[sl] = 1.0
        return {"rank": rank, "ran": np.zeros(ctx.size, dtype=bool)}

    def _scatter(self, ctx, rank, senders):
        indptr, adj, _ = ctx.csr("out")
        deg = np.diff(indptr)
        send = senders & (deg > 0)
        contrib = np.where(send, rank / np.maximum(deg, 1), 0.0)
        edge_mask = np.repeat(send, deg)
        return adj[edge_mask], {"val": np.repeat(contrib, deg)[edge_mask]}

    def compute0(self, ctx, state, g):
        sl = self._src_local(ctx)
        senders = np.zeros(ctx.size, dtype=bool)
        if sl is not None:
            senders[sl] = True
        state["ran"] = senders.copy()
        dst, payload = self._scatter(ctx, state["rank"], senders)
        return dst, payload, {"cum": float(state["rank"].sum())}

    def compute(self, ctx, state, inbox, g, s):
        rank = state["rank"]
        run = inbox.mask.copy()
        sl = self._src_local(ctx)
        is_src = np.zeros(ctx.size)
        if sl is not None:
            is_src[sl] = 1.0
        new = (inbox.sum * self.alpha + (1.0 - self.alpha) * is_src) \
            / g["cum"]
        l1 = float(np.abs(new[run] - rank[run]).sum())
        rank[run] = new[run]
        state["ran"] = run
        dst, payload = self._scatter(ctx, rank, run)
        return dst, payload, {"cum": float(rank[run].sum()), "l1": l1}

    def rescatter(self, ctx, state, g, s):
        return self._scatter(ctx, state["rank"], state["ran"].astype(bool))

    def master(self, s, aggs, msg_total, V, g):
        cont = not (s > 1 and aggs.get("l1", 0.0) <= self.l1_threshold)
        return cont and msg_total > 0, {"cum": max(aggs["cum"], 1e-300)}

    def output(self, ctx, state):
        return {"rank": state["rank"]}


def ppr(graph: Graph, source_id: int, alpha: float = ALPHA_DEFAULT,
        l1_threshold: float = 1e-6, max_supersteps: int = 50,
        checkpoint_dir: str | None = None, checkpoint_every: int = 1,
        resume: bool = False):
    return run_program(graph, PprProgram(source_id, alpha, l1_threshold),
                       max_supersteps=max_supersteps,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every, resume=resume)


def ppr_topk(graph: Graph, source_id: int, k: int = 20, **kw):
    """Top-k PPR vertices (the reference's PersonalPageRankListOutput
    bounded-list output, sort desc by rank)."""
    res = ppr(graph, source_id, **kw)
    return (res.to_dataset().sort("rank", descending=True).limit(k))
