"""Weakly-connected components: frontier min-Id propagation.

Conformance spec (/root/reference/computer-algorithm/.../community/wcc/
Wcc.java:47-72, min combiner per WccParams.java:40):

superstep 0: value = min(own id, neighbor ids); send value to neighbors
             with larger id; inactivate.
superstep s: m = min(messages); if m < value: adopt + send to all
             neighbors; inactivate.
terminates when no messages are in flight.

Undirected semantics come from the symmetrized ("both") adjacency, the
analog of input.vertex_with_edges_bothdirection
(/root/reference/computer-core/.../config/ComputerOptions.java:933-939).
Min over int64 v_ids equals min in the reference's BytesId order
(length-first byte order) because the dictionary assigns ids in that
order — see graph.py.

A vertex sends the same value to every neighbor, so the program runs on
the engine's dense pull: each step publishes one component per vertex
(I64MAX for the vertices that did not change) and each receiver takes
the min over its in-edges itself. Superstep 0 publishes every vertex's
value: "only to neighbors with a larger id" is a sender-side filter that
cannot change a receiver's ``m < value`` test, since a neighbor value
below the receiver's value is below its id, so that neighbor sent it in
the reference too. Only the step-0 message count differs (every edge).
Superstep 0's neighbor min comes from the same pull block's in-edges.

Per-round values are identical to naive round-synchronous
min-of-neighbors (the SQL oracle's formulation): a neighbor that did not
change this round already delivered its value the round it last changed.
"""

from __future__ import annotations

import numpy as np

from ..engine import I64MAX, EdgeScatter, VertexProgram, run_program
from ..graph import Graph


class WccProgram(VertexProgram):
    combiner = "min"
    mode = "both"
    dense = True

    def init(self, ctx, g):
        return {"component": np.zeros(ctx.size, dtype=np.int64),
                "changed": np.zeros(ctx.size, dtype=bool)}

    def compute0(self, ctx, state, g):
        src, dst = ctx.in_edges("both")
        nbr = np.full(ctx.size, I64MAX, dtype=np.int64)
        np.minimum.at(nbr, dst, src)
        comp = np.minimum(ctx.vids(), nbr)
        state["component"] = comp
        state["changed"] = np.ones(ctx.size, dtype=bool)
        return EdgeScatter("both", comp), {}, {"changed": int(ctx.size)}

    def compute(self, ctx, state, inbox, g, s):
        comp = state["component"]
        m = inbox.min  # dense int64, I64MAX where no message
        changed = inbox.mask & (m < comp)
        comp[changed] = m[changed]
        state["changed"] = changed
        return (EdgeScatter("both", comp, changed), {},
                {"changed": int(changed.sum())})

    def rescatter(self, ctx, state, g, s):
        # step 0's changed mask is all ones: every vertex sent
        return EdgeScatter("both", state["component"],
                           state["changed"].astype(bool)), {}

    def output(self, ctx, state):
        return {"component": state["component"]}


def wcc(graph: Graph, max_supersteps: int = 10**6,
        checkpoint_dir: str | None = None, checkpoint_every: int = 1,
        resume: bool = False):
    """Runs to fixpoint (engine stops when no messages are in flight)."""
    return run_program(graph, WccProgram(), max_supersteps=max_supersteps,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every, resume=resume)
