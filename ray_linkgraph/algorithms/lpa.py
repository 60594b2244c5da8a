"""Label propagation with the reference's vote + tie-break semantics.

Conformance spec (/root/reference/computer-algorithm/.../community/lpa/
Lpa.java:50-101):

superstep 0: label = own id; send to all neighbors; inactivate.
superstep s: (only vertices that received messages run) adopt the most
             frequent incoming label, ties -> min label in Id order
             (voteLabel, Lpa.java:66-101); send to all neighbors;
             inactivate.
Runs the fixed bsp.max_super_step rounds (default 10) — LPA has no
convergence stop in the reference (LpaParams sets no combiner).

A vertex sends its one label to every neighbor, so the program runs on
the engine's dense pull: each step publishes one label per vertex (-1
for the vertices that send nothing: every vertex sends at step 0, then
only those that received a vote) and each receiver counts the labels of
its in-edges itself. It sees the same (dst, label) multiset the per-edge
messages carried, so the vote is exact.

Isolated vertices keep their own id (they never receive). Multi-edges
were deduped at graph build, so each neighbor contributes one vote, and
min-label ties resolve in int64 order == reference BytesId order (see
graph.py dictionary ordering).

Labels must be vertex ids in [0, V): the receiver counts votes on the
int64 key ``dst_local * L + label`` (L = max label + 1 <= V), so the
engine refuses a graph with part_size * V >= 2**63, i.e. V above about
3.0e9 * sqrt(P) (``engine.check_label_key``).
"""

from __future__ import annotations

import numpy as np

from ..engine import EdgeScatter, VertexProgram, run_program
from ..graph import Graph


class LpaProgram(VertexProgram):
    combiner = "label_count"
    mode = "both"
    dense = True

    def init(self, ctx, g):
        return {"label": ctx.vids().copy(),
                "received": np.zeros(ctx.size, dtype=bool)}

    def compute0(self, ctx, state, g):
        return EdgeScatter("both", state["label"]), {}, {}

    def compute(self, ctx, state, inbox, g, s):
        label = state["label"]
        label[inbox.win_dst] = inbox.win_label
        received = inbox.mask
        state["received"] = received
        return (EdgeScatter("both", label, received), {},
                {"voted": int(received.sum())})

    def rescatter(self, ctx, state, g, s):
        return EdgeScatter("both", state["label"],
                           None if s == 0
                           else state["received"].astype(bool)), {}

    def output(self, ctx, state):
        return {"label": state["label"]}


def lpa(graph: Graph, max_supersteps: int = 10,
        checkpoint_dir: str | None = None, checkpoint_every: int = 1,
        resume: bool = False):
    return run_program(graph, LpaProgram(), max_supersteps=max_supersteps,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every, resume=resume)
