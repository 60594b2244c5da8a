"""Louvain-style community detection as one vertex program on the
graph's partition actors — a DISTRIBUTED variant.

The reference's Louvain is explicitly NOT distributed: it fetches the
whole graph into one process and runs the sequential VOS modularity
optimizer (reference computer-algorithm/.../community/louvain/
Louvain.java:44-62 + HGModularityOptimizer.java, dedicated
WorkerServiceLouvain.java). Its exact output therefore cannot be
reproduced by any parallel schedule; this module implements the
standard SYNCHRONOUS local-moving phase instead (documented deviation),
repeated over levels of super-nodes:

round (every super-node decides at once, deterministically):
    * community totals  TOT(c) = sum of K(s) over the super-nodes in c;
    * k_{s,c} = the edge weight from super-node s into community c;
    * one-level modularity gain  dQ(s->c) ~ k_{s,c} - K(s)*TOT'(c)/2m
      with TOT'(c) = TOT(c) - K(s) when c is s's current community (that
      row is therefore the STAYING gain);
    * s adopts the argmax-gain community (ties -> smallest label) iff it
      strictly beats staying (by more than 1e-15).

No contraction. Local moving on the level-l community graph equals
local moving of SUPER-NODES over the original both-mode edges, where
sup(v) is v's community after level l-1, K(s) the sum of its members'
weighted degrees k_v, and an edge u-v adds to k_{s,c} only when
sup(u) != sup(v) (level 1 is sup(v) = v). A community id is an original
vertex id, so every super-node and every community has an OWNER: the
partition holding that vertex id, addressed by sending to the id.

Supersteps (``concat`` combiner), three per round:
  spread  member v sets comm(v) from its super-node's label; for every
          edge v->u with sup(u) != sup(v) it adds w to the row
          (sup(u), comm(v)) (combined within the partition) and sends
          the rows to owner(comm(v)); owner s sends its stay row
          (s, K(s)) to owner(L(s));
  total   owner c sums TOT(c) from its stay rows and k_{s,c} from the
          edge rows, and returns (c, k_{s,c}, TOT(c)) to owner(s) — a
          k_{s,c} = 0 row for each stay row without edges, so every s
          gets its staying row;
  decide  owner s computes every gain with its own K(s), moves, counts
          its moves in the ``moved`` aggregator (the one number that
          leaves the actors per round) and sends L(s) to its members.
At level 1 every vertex is its own super-node and only member, so
superstep 0 is the first spread and each decide also does the next
spread: two supersteps per round. A later level starts with one
``start`` step: members take the last labels, set sup := comm, send
k_v to owner(sup(v)) (K(s) and the member list) and sup(v) to their
neighbours, which keep it per edge for the level; level 1's last
decide does this itself. A level ends at 0 moves or after
``max_rounds`` rounds; a level that moves nothing ends the run (the
next level would repeat it), and a last level above 1 that ended on
moves takes them in one final ``start`` step that sends nothing.
``BSPResult.history`` shows the ``moved`` count of every decide.

The packed sort keys c*V + s need V**2 < 2**63. Float sums run in a
fixed order per partitioning; integer weights (the gate graphs) are
exact in float64, so labels are identical at every P.
"""

from __future__ import annotations

import numpy as np
import ray
import ray.data

from ..engine import (I64MAX, VertexProgram, _runs, _weighted_sum,
                      run_program)
from ..graph import Graph

_Z = np.zeros(0, dtype=np.int64)


def _sum_runs(key: np.ndarray, w: np.ndarray):
    """Distinct keys in ascending order and the sum of ``w`` per key (in
    input order within a key: one stable sort)."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = _runs(key)
    return key[starts], np.add.reduceat(w[order], starts)


@ray.remote
def _node_community(t):
    return t.rename_columns(["node", "community"])


class LouvainProgram(VertexProgram):
    combiner = "concat"
    mode = "both"

    def __init__(self, levels: int = 1, max_rounds: int = 10):
        self.levels = levels
        self.max_rounds = max_rounds

    def master_init(self, graph):
        # phase: what the next step does; sent: what its inbox holds
        return {"phase": "spread", "sent": None, "level": 1, "round": 0,
                "moved": 0, "two_m": 0.0}

    def _sends(self, g):
        """What the step of globals ``g`` sends. At level 1 every
        super-node is its own only member, so decide also spreads, or
        starts level 2 in the last round."""
        phase, level = g["phase"], g["level"]
        if phase == "decide" and level == 1:
            last = g["round"] + 1 == self.max_rounds and self.levels > 1
            return "start" if last else "spread"
        if phase == "decide":
            return "members"
        if phase == "start" and level > self.levels:
            return None
        return phase

    @staticmethod
    def _edges(ctx):
        """(local source, weight) of every owned both-mode edge, in CSR
        order, and the weighted degrees k_v."""
        indptr, _, w = ctx.csr("both")
        own = np.repeat(np.arange(ctx.size), np.diff(indptr))
        w = np.ones(len(own)) if w is None else w
        return own, w, _weighted_sum(own, w, ctx.size)

    @staticmethod
    def _clear_tx(st):
        """Drop total's outgoing rows, kept in the state for rescatter."""
        st.update(tx_s=_Z, tx_c=_Z, tx_kvc=np.zeros(0), tx_tot=np.zeros(0))

    def init(self, ctx, g):
        v = ctx.vids()
        st = {"comm": v, "sup": v.copy(), "L": v.copy(),
              "K": self._edges(ctx)[2], "nbr": ctx.csr("both")[1],
              "mem_s": np.arange(ctx.size), "mem_v": v.copy()}
        self._clear_tx(st)
        return st

    def compute0(self, ctx, state, g):
        dst, payload = self._send(ctx, state, "spread")
        return dst, payload, {"two_m": float(state["K"].sum())}

    def compute(self, ctx, st, inbox, g, s):
        phase, level = g["phase"], g["level"]
        d = inbox.dst.astype(np.int64)
        cols = inbox.cols         # payload keys in sorted order
        aggs = {}
        if g["sent"] == "members" and len(d):
            st["comm"][d] = cols[0]
        elif g["sent"] == "start":
            self._level_start(ctx, st, d, cols)
        if phase == "total":
            self._total(ctx, st, d, cols)
        elif phase == "decide":
            aggs = {"moved": self._decide(st, d, cols, g["two_m"])}
            if level == 1:
                st["comm"] = st["L"].copy()
        kind = self._sends(g)
        if kind == "start":
            st["sup"] = st["comm"].copy()
        return (*self._send(ctx, st, kind), aggs)

    def _level_start(self, ctx, st, d, cols):
        """Members' k_v rows (b < 0) give each owned super-node K(s) and
        its member list; neighbours' sup rows, keyed (v, sender) like
        the sorted CSR, give the per-edge sup(u) for the level."""
        if len(d) == 0:
            a = b = d
            w = np.zeros(0)
        else:
            a, b, w = cols
        mem = b < 0
        order = np.argsort(d[mem], kind="stable")
        st["mem_s"], st["mem_v"] = d[mem][order], a[mem][order]
        st["K"] = _weighted_sum(d[mem], w[mem], ctx.size)
        st["L"] = ctx.vids()
        nb = ~mem
        order = np.argsort(d[nb] * np.int64(ctx.V) + a[nb])
        st["nbr"] = b[nb][order]
        if len(st["nbr"]) != len(ctx.csr("both")[1]):
            raise ValueError("both-mode adjacency is not symmetric")

    def _total(self, ctx, st, d, cols):
        """Owner c: TOT(c) from the stay rows, k_{s,c} summed from the
        edge rows, one outgoing (s, c, k_{s,c}, TOT(c)) row per pair."""
        if len(d) == 0:
            self._clear_tx(st)
            return
        s, stay, w = cols
        tot = _weighted_sum(d[stay], w[stay], ctx.size)
        V = np.int64(ctx.V)
        key, kvc = _sum_runs(d * V + s, np.where(stay, 0.0, w))
        c = key // V
        st["tx_s"], st["tx_c"] = key % V, c + ctx.lo
        st["tx_kvc"], st["tx_tot"] = kvc, tot[c]

    def _decide(self, st, d, cols, two_m) -> int:
        """Owner s: best candidate by (gain desc, candidate asc); move iff
        it beats the staying row by more than 1e-15."""
        self._clear_tx(st)
        if len(d) == 0:
            return 0
        o = np.argsort(d, kind="stable")
        d = d[o]
        c, kvc, tot = (x[o] for x in cols)
        K, L = st["K"][d], st["L"][d]
        cur = c == L                        # exactly one per super-node
        gain = kvc - K * (tot - np.where(cur, K, 0.0)) / two_m
        starts = _runs(d)
        best_g = np.maximum.reduceat(gain, starts)
        top = gain == np.repeat(best_g, np.diff(np.r_[starts, len(d)]))
        best_c = np.minimum.reduceat(np.where(top, c, I64MAX), starts)
        do = (best_g > gain[cur] + 1e-15) & (best_c != L[starts])
        st["L"][d[starts][do]] = best_c[do]
        return int(do.sum())

    def _send(self, ctx, st, kind):
        """The ``kind`` of messages (``_sends``) from the post-compute
        state alone, so ``rescatter`` replays them."""
        if kind is None:
            return _Z, {}
        if kind == "total":
            return st["tx_s"], {"c": st["tx_c"], "kvc": st["tx_kvc"],
                                "tot": st["tx_tot"]}
        if kind == "members":
            return st["mem_v"], {"c": st["L"][st["mem_s"]]}
        own, w, k = self._edges(ctx)
        if kind == "start":
            n = len(own)
            return np.concatenate([st["sup"], ctx.csr("both")[1]]), {
                "a": np.concatenate([ctx.vids(), own + ctx.lo]),
                "b": np.concatenate([np.full(ctx.size, -1), st["sup"][own]]),
                "w": np.concatenate([k, np.zeros(n)])}
        # spread: edge rows to owner(comm(v)), stay rows to owner(L(s))
        cross = st["nbr"] != st["sup"][own]
        V = np.int64(ctx.V)
        key, kw = _sum_runs(st["comm"][own[cross]] * V + st["nbr"][cross],
                            w[cross])
        sn = np.flatnonzero(np.bincount(st["mem_s"], minlength=ctx.size))
        return np.concatenate([key // V, st["L"][sn]]), {
            "s": np.concatenate([key % V, sn + ctx.lo]),
            "stay": np.r_[np.zeros(len(key), bool), np.ones(len(sn), bool)],
            "w": np.concatenate([kw, st["K"][sn]])}

    def rescatter(self, ctx, state, g, s):
        return self._send(ctx, state, g["sent"])

    def master(self, s, aggs, msg_total, graph, g):
        g = {**g, "sent": self._sends(g)}
        if s == 0:
            g["two_m"] = float(aggs["two_m"])
            if g["two_m"] == 0:
                return False, g
        nxt = {"spread": "total", "total": "decide", "start": "spread"}
        if g["phase"] in nxt:
            g["phase"] = nxt[g["phase"]]
            return True, g
        moved = aggs["moved"]
        g["round"] += 1
        g["moved"] += moved
        if g["moved"] == 0:
            return False, g
        if g["sent"] == "start":
            g.update(phase="spread", level=2, round=0, moved=0)
            return True, g
        if moved and g["round"] < self.max_rounds:
            g["phase"] = "total" if g["level"] == 1 else "spread"
            return True, g
        if g["level"] == self.levels and (g["level"] == 1 or not moved):
            return False, g
        g.update(phase="start", level=g["level"] + 1, round=0, moved=0)
        return True, g

    def output(self, ctx, state):
        return {"community": state["comm"]}


def louvain_multilevel(graph: Graph, levels: int = 2, max_rounds: int = 10):
    """-> Dataset(node, community): ``levels`` levels of synchronous local
    moving, each over the previous level's communities as super-nodes;
    every vertex appears (isolated -> singleton). Community ids are
    original vertex ids at every level."""
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    if graph.V >= 3_037_000_499:
        raise NotImplementedError("Louvain's packed keys need V < 3.0e9")
    res = run_program(graph, LouvainProgram(levels, max_rounds),
                      max_supersteps=levels * (3 * max_rounds + 1))
    # one small task per part: a Ray Data rename stage costs more
    return ray.data.from_arrow_refs([_node_community.remote(t)
                                     for t in res.output_refs])


def louvain_communities(graph: Graph, max_rounds: int = 10):
    """-> Dataset(node, community): one level of synchronous local
    moving (``louvain_multilevel`` with ``levels=1``)."""
    return louvain_multilevel(graph, 1, max_rounds)
