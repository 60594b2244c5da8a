"""Label propagation with the reference's vote + tie-break semantics.

Conformance spec (/root/reference/computer-algorithm/.../community/lpa/
Lpa.java:50-101):

superstep 0: label = own id; send to all neighbors; inactivate.
superstep s: (only vertices that received messages run) adopt the most
             frequent incoming label, ties -> min label in Id order
             (voteLabel, Lpa.java:66-101); send to all neighbors;
             inactivate.
Runs the fixed bsp.max_super_step rounds (default 10) — LPA has no
convergence stop in the reference (LpaParams sets no combiner; the
engine's label_count combiner computes the same vote exactly because
counting per (dst,label) is associative).

Isolated vertices keep their own id (they never receive). Multi-edges
were deduped at graph build, so each neighbor contributes one vote, and
min-label ties resolve in int64 order == reference BytesId order (see
graph.py dictionary ordering).

Labels must be vertex ids in [0, V): the combiner counts votes on the
int64 key ``dst_local * L + label`` (L = max label + 1 <= V), so the
engine refuses a graph with part_size * V >= 2**63, i.e. V above about
3.0e9 * sqrt(P) (``engine.check_label_key``).
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram, run_program
from ..graph import Graph


class LpaProgram(VertexProgram):
    combiner = "label_count"
    mode = "both"

    def init(self, ctx, g):
        return {"label": ctx.vids().copy(),
                "received": np.zeros(ctx.size, dtype=bool)}

    def _scatter(self, ctx, label, senders_mask):
        indptr, adj, _ = ctx.csr("both")
        deg = np.diff(indptr)
        edge_mask = np.repeat(senders_mask, deg)
        return adj[edge_mask], {"label": np.repeat(label, deg)[edge_mask]}

    def compute0(self, ctx, state, g):
        dst, payload = self._scatter(ctx, state["label"],
                                     np.ones(ctx.size, dtype=bool))
        return dst, payload, {}

    def compute(self, ctx, state, inbox, g, s):
        label = state["label"]
        label[inbox.win_dst] = inbox.win_label
        received = np.zeros(ctx.size, dtype=bool)
        received[inbox.win_dst] = True
        state["received"] = received
        dst, payload = self._scatter(ctx, label, received)
        return dst, payload, {"voted": int(received.sum())}

    def rescatter(self, ctx, state, g, s):
        mask = (np.ones(ctx.size, dtype=bool) if s == 0
                else state["received"].astype(bool))
        return self._scatter(ctx, state["label"], mask)

    def output(self, ctx, state):
        return {"label": state["label"]}


def lpa(graph: Graph, max_supersteps: int = 10,
        checkpoint_dir: str | None = None, checkpoint_every: int = 1,
        resume: bool = False):
    return run_program(graph, LpaProgram(), max_supersteps=max_supersteps,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every, resume=resume)
