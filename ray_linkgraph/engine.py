"""BSP superstep engine on a stateful partition-actor pool.

The execution model reproduces the reference's synchronous supersteps
(computer-core/.../worker/WorkerService.java:287-338 <->
MasterService.java:240-288) with Ray-native machinery:

* one ``PartitionWorker`` actor per hash partition holds the partition's
  adjacency (built once in ``__init__`` from the graph's partitioned
  parquet, the analog of FileGraphPartition's vertex/edge files,
  computer-core/.../compute/FileGraphPartition.java:81-98) plus the
  algorithm's vertex-state numpy arrays (value + frontier, the analog of
  the value/status double-buffer files, ibid.:640-661);
* ``BSPEngine.run`` is the one superstep loop: every actor computes,
  checkpoints and hands its sends to the exchange, the exchange's next
  round is launched at once, and the driver collects the metas, runs the
  master step and tests for done (the driver barrier is the BSP
  barrier; no etcd);
* the exchange is the one thing that varies, chosen once per engine
  from P and ``program.grid``:
  - direct 1D: each actor pre-combines its messages per destination
    partition (sort + reduceat, the analog of the reference's
    sort-with-combiner send buffers, computer-core/.../sender/
    MessageSendManager.java:99-239) and ships one object per
    (src-part, dst-part) pair; the receiver finishes the combine.
    Pre-combining per source partition is the skew treatment for hub
    dst vertices: a vertex with 10^6 in-edges receives at most P
    pre-combined values, not 10^6 messages;
  - pod relay (1D, P >= ``RELAY_MIN_P``): the same payloads grouped per
    pod of ~sqrt(P) partitions and regrouped by one relay task per pod,
    O(P^1.5) object refs per superstep instead of O(P^2);
  - 2D grid (dense ``EdgeScatter`` sum programs): actors publish
    per-vertex scatter values, each grid cell turns its row's values
    into dense column pieces (``edge_phase``), O(V*sqrt(P)) volume;
* global aggregators are small dicts returned from each actor and
  reduced on the driver (the analog of worker->master aggregator RPC,
  computer-core/.../aggregator/WorkerAggrManager.java);
* each actor checkpoints its post-compute state to parquet and the
  driver commits an atomic per-step manifest with per-partition lineage
  (file, rows, checksum, message counts) + metrics, so runs resume
  mid-iteration (the reference only resumes at the input/compute step
  boundary, MasterService.java:191-213 TODO). Resume verifies every
  part's checksum; a failed checkpoint write fails the run.

Messages between partitions are (dst_local:int32, value...) numpy tuples
— Plasma gives zero-copy reads on the receiving side.
"""

from __future__ import annotations

import json
import os
import time
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ._util import hash_u64
from .graph import Graph
from .synth import synth_edges_for_range

I64MAX = np.iinfo(np.int64).max
# 1D exchanges at P >= RELAY_MIN_P go through the two-level pod relay
RELAY_MIN_P = 64


# ---------------------------------------------------------------------------
# combiners: map-side precombine + receive-side final combine
# ---------------------------------------------------------------------------

def _state_checksum(state: dict) -> str:
    """Fast vectorized content checksum for checkpoint lineage (position-
    sensitive splitmix64 mix — integrity marker, not cryptographic)."""
    acc = np.uint64(0x5851F42D4C957F2D)
    with np.errstate(over="ignore"):
        for k in sorted(state):
            a = np.ascontiguousarray(state[k])
            raw = a.view(np.uint8)
            pad = (-len(raw)) % 8
            if pad:
                raw = np.concatenate([raw, np.zeros(pad, dtype=np.uint8)])
            words = raw.view(np.uint64)
            mixed = hash_u64(words,
                             np.arange(len(words), dtype=np.uint64))
            acc = acc * np.uint64(31) + np.uint64(
                int(np.bitwise_xor.reduce(mixed)) + len(k)
                if len(mixed) else len(k))
    return f"{int(acc):016x}"


def _runs(sorted_arr: np.ndarray) -> np.ndarray:
    """Start indices of equal-value runs in a sorted array."""
    if len(sorted_arr) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.r_[0, np.flatnonzero(np.diff(sorted_arr)) + 1]


class RaggedCol:
    """Variable-length int64 sequence column (path/id-list messages —
    the analog of the reference's IdList message payloads). Stored as
    (flat values, offsets); supports the slicing/gather the router needs
    and pickles as two numpy arrays (zero-copy plasma buffers)."""

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        self.flat = np.asarray(flat, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)

    @staticmethod
    def from_lists(seqs) -> "RaggedCol":
        lens = np.fromiter((len(s) for s in seqs), dtype=np.int64,
                           count=len(seqs))
        off = np.zeros(len(seqs) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        flat = (np.concatenate([np.asarray(s, dtype=np.int64)
                                for s in seqs])
                if off[-1] else np.zeros(0, dtype=np.int64))
        return RaggedCol(flat, off)

    def __len__(self):
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            a = idx.start or 0
            b = len(self) if idx.stop is None else idx.stop
            lo, hi = self.offsets[a], self.offsets[b]
            return RaggedCol(self.flat[lo:hi],
                             self.offsets[a:b + 1] - lo)
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        idx = idx.astype(np.int64)
        lens = self.lengths()[idx]
        off = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        pos = (np.repeat(self.offsets[:-1][idx], lens)
               + np.arange(off[-1], dtype=np.int64)
               - np.repeat(off[:-1], lens))
        return RaggedCol(self.flat[pos], off)

    @staticmethod
    def concat(cols: list) -> "RaggedCol":
        if not cols:
            return RaggedCol(np.zeros(0, dtype=np.int64),
                             np.zeros(1, dtype=np.int64))
        flats = [c.flat for c in cols]
        offs = [cols[0].offsets]
        base = cols[0].offsets[-1]
        for c in cols[1:]:
            offs.append(c.offsets[1:] + base)
            base += c.offsets[-1]
        return RaggedCol(np.concatenate(flats), np.concatenate(offs))


def _is_ragged(col) -> bool:
    # name-based (cloudpickle by-value registration breaks class identity)
    return col.__class__.__name__ == "RaggedCol"


def _col_concat(cols: list):
    return (RaggedCol.concat(cols) if cols and _is_ragged(cols[0])
            else np.concatenate(cols))


def precombine(kind: str, dst_local: np.ndarray, payload: dict):
    """Combine duplicate dst keys before shipping. ``dst_local`` must be
    sorted ascending already (the router sorts by global dst)."""
    if len(dst_local) == 0:
        return None
    if kind == "sum":
        starts = _runs(dst_local)
        return (dst_local[starts], np.add.reduceat(payload["val"], starts))
    if kind == "min":
        starts = _runs(dst_local)
        return (dst_local[starts], np.minimum.reduceat(payload["val"], starts))
    if kind == "max":
        # ValueMaxCombiner (computer-api/.../combiner/ValueMaxCombiner.java)
        starts = _runs(dst_local)
        return (dst_local[starts], np.maximum.reduceat(payload["val"], starts))
    if kind == "overwrite":
        # OverwriteCombiner (computer-api/.../combiner/OverwriteCombiner.java)
        # keeps one value per key; the reference's pick is processing-order
        # dependent — ours is deterministically the FIRST emitted value
        # (router sort is stable, partitions merge in fixed order)
        starts = _runs(dst_local)
        return (dst_local[starts], payload["val"][starts])
    if kind == "label_count":
        lab = payload["label"]
        order = np.lexsort((lab, dst_local))
        d, l = dst_local[order], lab[order]
        change = np.r_[0, np.flatnonzero((np.diff(d) != 0) | (np.diff(l) != 0)) + 1]
        cnt = np.diff(np.r_[change, len(d)]).astype(np.int64)
        return (d[change], l[change], cnt)
    if kind == "kv_min":
        # min val per (dst, key); ties -> min sender (deterministic
        # stand-in for the reference's processing-order tie, provably
        # state-equivalent — see algorithms/closeness.py)
        k, v, sn = payload["key"], payload["val"], payload["sender"]
        order = np.lexsort((sn, v, k, dst_local))
        d2, k2, v2, s2 = (dst_local[order], k[order], v[order], sn[order])
        first = np.r_[0, np.flatnonzero((np.diff(d2) != 0) |
                                        (np.diff(k2) != 0)) + 1]
        return (d2[first], k2[first], v2[first], s2[first])
    if kind == "concat":
        return (dst_local,) + tuple(payload[k] for k in sorted(payload))
    raise ValueError(kind)


class Inbox:
    """Receive-side combined view of one partition's incoming messages.

    Sum inboxes come in two wire formats chosen by the sender per
    (src-part, dst-part) pair: sparse ``(dst_local, values)`` when few
    dsts received, or a DENSE partial array (marker ``("D", array)``)
    when most of the destination partition received — dense partials
    cost O(part_size) sequential adds to merge, versus O(nnz) bincount
    scatter for sparse, and avoid shipping dst indices entirely. For
    dense-format inboxes the per-vertex received mask is not transported
    (programs using the EdgeScatter fast path broadcast from every
    vertex and must not depend on ``mask``)."""

    def __init__(self, kind: str, size: int, parts: list):
        self.kind = kind
        self.size = size
        self.n_msgs = 0
        self._mask = None
        parts = [p for p in parts if p is not None and
                 (isinstance(p[0], str) or len(p[0]))]
        if kind == "sum":
            dense_parts = [p[1] for p in parts if isinstance(p[0], str)]
            sparse = [p for p in parts if not isinstance(p[0], str)]
            acc = np.zeros(size, dtype=np.float64)
            for arr in dense_parts:
                acc += arr
                self.n_msgs += size
            if sparse:
                # single bincount over the concatenation: O(nnz + size),
                # not O(P * size) as a per-inbox pass would be
                d = np.concatenate([p[0] for p in sparse])
                v = np.concatenate([p[1] for p in sparse])
                self.n_msgs += len(d)
                acc += np.bincount(d, weights=v, minlength=size)
                self._sparse_d = d
            else:
                self._sparse_d = np.zeros(0, dtype=np.int64)
            self._has_dense = bool(dense_parts)
            self.sum = acc
        elif kind == "min":
            if parts:
                d = np.concatenate([p[0] for p in parts])
                v = np.concatenate([p[1] for p in parts])
                self.n_msgs = len(d)
                order = np.argsort(d, kind="stable")
                d, v = d[order], v[order]
                starts = _runs(d)
                ud, mv = d[starts], np.minimum.reduceat(v, starts)
            else:
                ud = np.zeros(0, dtype=np.int64)
                mv = np.zeros(0, dtype=np.float64)
            if np.issubdtype(mv.dtype, np.integer):
                dense = np.full(size, np.iinfo(mv.dtype).max, dtype=mv.dtype)
            else:
                dense = np.full(size, np.inf, dtype=mv.dtype)
            dense[ud] = mv
            self._mask = np.zeros(size, dtype=bool)
            self._mask[ud] = True
            self.min = dense
        elif kind in ("max", "overwrite"):
            if parts:
                d = np.concatenate([p[0] for p in parts])
                v = np.concatenate([p[1] for p in parts])
                self.n_msgs = len(d)
                order = np.argsort(d, kind="stable")
                d, v = d[order], v[order]
                starts = _runs(d)
                ud = d[starts]
                mv = (np.maximum.reduceat(v, starts) if kind == "max"
                      else v[starts])        # overwrite: first emitted
            else:
                ud = np.zeros(0, dtype=np.int64)
                mv = np.zeros(0, dtype=np.float64)
            if np.issubdtype(mv.dtype, np.integer):
                fill = (np.iinfo(mv.dtype).min if kind == "max" else 0)
                dense = np.full(size, fill, dtype=mv.dtype)
            else:
                dense = np.full(size, -np.inf if kind == "max" else 0.0,
                                dtype=mv.dtype)
            dense[ud] = mv
            self._mask = np.zeros(size, dtype=bool)
            self._mask[ud] = True
            setattr(self, kind, dense)
            self.val = dense
        elif kind == "label_count":
            if parts:
                d = np.concatenate([p[0] for p in parts])
                l = np.concatenate([p[1] for p in parts])
                c = np.concatenate([p[2] for p in parts])
                self.n_msgs = int(c.sum())
                order = np.lexsort((l, d))
                d, l, c = d[order], l[order], c[order]
                change = np.r_[0, np.flatnonzero((np.diff(d) != 0) |
                                                 (np.diff(l) != 0)) + 1]
                d2, l2 = d[change], l[change]
                c2 = np.add.reduceat(c, change)
                # winner per dst: max count, tie -> min label (reference
                # Lpa.voteLabel, Lpa.java:66-101; Id order == int64 order
                # by dictionary construction)
                worder = np.lexsort((l2, -c2, d2))
                dw, lw = d2[worder], l2[worder]
                first = _runs(dw)
                self.win_dst, self.win_label = dw[first], lw[first]
                self._mask = np.zeros(size, dtype=bool)
                self._mask[self.win_dst] = True
            else:
                self.win_dst = np.zeros(0, dtype=np.int64)
                self.win_label = np.zeros(0, dtype=np.int64)
                self._mask = np.zeros(size, dtype=bool)
        elif kind == "kv_min":
            if parts:
                d = np.concatenate([p[0] for p in parts])
                k = np.concatenate([p[1] for p in parts])
                v = np.concatenate([p[2] for p in parts])
                sn = np.concatenate([p[3] for p in parts])
                self.n_msgs = len(d)
                order = np.lexsort((sn, v, k, d))
                d, k, v, sn = d[order], k[order], v[order], sn[order]
                first = np.r_[0, np.flatnonzero((np.diff(d) != 0) |
                                                (np.diff(k) != 0)) + 1]
                self.dst, self.key = d[first], k[first]
                self.val, self.sender = v[first], sn[first]
            else:
                z = np.zeros(0, dtype=np.int64)
                self.dst, self.key = z, z.copy()
                self.val = np.zeros(0, dtype=np.float64)
                self.sender = z.copy()
            self._mask = np.zeros(size, dtype=bool)
            self._mask[self.dst] = True
        elif kind == "concat":
            self.dst = (np.concatenate([p[0] for p in parts]) if parts
                        else np.zeros(0, dtype=np.int64))
            ncols = (len(parts[0]) - 1) if parts else 0
            self.cols = [_col_concat([p[i + 1] for p in parts])
                         for i in range(ncols)]
            self.n_msgs = len(self.dst)
            self._mask = np.zeros(size, dtype=bool)
            self._mask[self.dst] = True
        else:
            raise ValueError(kind)

    @property
    def mask(self) -> np.ndarray:
        """Per-vertex received mask. Lazy for sum inboxes (computed only
        when a program actually needs it); unavailable when a dense-format
        sum partial was received (EdgeScatter senders broadcast from every
        vertex, so such programs must not depend on the mask)."""
        if self._mask is None:
            if self.kind == "sum" and getattr(self, "_has_dense", False):
                raise RuntimeError(
                    "received mask is not transported for dense-format sum "
                    "partials (EdgeScatter fast path); the program must not "
                    "rely on inbox.mask")
            m = np.zeros(self.size, dtype=bool)
            if self.kind == "sum":
                m[self._sparse_d] = True
            self._mask = m
        return self._mask


# ---------------------------------------------------------------------------
# program contract
# ---------------------------------------------------------------------------

class VertexProgram:
    """Vectorized analog of the reference Computation<M> contract
    (/root/reference/computer-api/.../worker/Computation.java:42-106):
    ``compute0`` = superstep-0 init+scatter, ``compute`` = per-superstep
    apply+scatter over the whole partition at once, ``master`` = the
    MasterComputation continue/stop decision + next-step globals."""

    combiner = "sum"
    mode = "out"          # which adjacency the partition loads: "out" | "both"
    grid = False          # True -> dense 2D (grid) exchange; requires the
    #                       program to ALWAYS scatter via EdgeScatter with
    #                       the sum combiner (PageRank-style dense loops)

    def master_init(self, graph: Graph) -> dict:
        return {}

    def init(self, ctx, g) -> dict:
        raise NotImplementedError

    def compute0(self, ctx, state, g):
        raise NotImplementedError

    def compute(self, ctx, state, inbox: Inbox, g, s):
        raise NotImplementedError

    def rescatter(self, ctx, state, g, s):
        """Regenerate the messages sent at the END of superstep s from the
        post-apply state (resume path). Must be a pure function of state."""
        raise NotImplementedError

    def master(self, s, aggs: dict, msg_total: int, graph: Graph, g: dict):
        return (msg_total > 0, g)

    def output(self, ctx, state) -> dict:
        """Final per-vertex columns (v_id added by the engine)."""
        raise NotImplementedError


class PartCtx:
    """Per-partition graph view handed to programs."""

    def __init__(self, graph_dir: str, meta: dict, part_id: int):
        self.meta = meta
        self.part_id = part_id
        self.V = meta["V"]
        self.part_size = meta["part_size"]
        self.lo = part_id * self.part_size
        self.hi = min(self.V, self.lo + self.part_size)
        self.size = max(0, self.hi - self.lo)
        self._dir = graph_dir
        self._own = range(part_id, part_id + 1)
        self._csr = {}

    def _edges(self, mode: str, parts: range, columns):
        """(src, dst, weight) of the edges of partitions ``parts``:
        regenerated for synthetic graphs, else the parquet ``columns``
        (None = all) of their files; a column not read or not stored
        comes back None."""
        spec = self.meta.get("synthetic")
        if spec is not None:
            if mode != "out":
                raise ValueError(
                    "synthetic graphs provide out-mode adjacency only")
            src, dst = synth_edges_for_range(
                spec["V"], spec["avg_deg"], spec["seed"],
                parts.start * self.part_size,
                min(self.V, parts.stop * self.part_size))
            return src, dst, None
        paths = [os.path.join(self._dir, f"edges_{mode}",
                              f"part_{p:05d}.parquet") for p in parts]
        tabs = [pq.read_table(p, columns=columns) for p in paths
                if os.path.exists(p)]
        if not tabs:
            z = np.zeros(0, dtype=np.int64)
            return z, z, None
        t = pa.concat_tables(tabs)
        return tuple(t.column(c).to_numpy() if c in t.column_names else None
                     for c in ("src_id", "dst_id", "weight"))

    def csr(self, mode: str):
        """(indptr[size+1], dst[int64], weight[float64|None]) for owned srcs."""
        if mode not in self._csr:
            src, dst, w = self._edges(mode, self._own, columns=None)
            counts = np.bincount(src - self.lo, minlength=self.size)
            indptr = np.zeros(self.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr[mode] = (indptr, dst, w)
        return self._csr[mode]

    def degrees(self, mode: str) -> np.ndarray:
        """Out-degrees of owned vertices. Uses the cached CSR when built;
        otherwise loads ONLY the src column (grid-mode actors never
        materialize their 1D adjacency)."""
        key = ("deg", mode)
        if key not in self._csr:
            if mode in self._csr:
                d = np.diff(self._csr[mode][0])
            else:
                src = self._edges(mode, self._own, columns=["src_id"])[0]
                d = np.bincount(src - self.lo, minlength=self.size)
            self._csr[key] = d
        return self._csr[key]

    def grid_block(self, mode: str, R: int, C: int):
        """Cell edge block for 2D (grid) message exchange.

        The P partitions are arranged as an R x C grid (P = R*C); actor
        p hosts cell (r, c) = (p // C, p % C). Rows group C consecutive
        vertex chunks (the cell's SOURCE range), columns group R
        consecutive chunks (its DESTINATION range), so every (src chunk,
        dst chunk) pair lands on exactly one cell. Per superstep a cell
        gathers its row's C value chunks, computes ONE dense partial for
        its column range (bincount over its E/P edges) and splits it into
        R chunk pieces — total shipped dense volume O(V*R) per superstep
        instead of the 1D exchange's O(V*P), and each chunk owner merges
        R pieces instead of P partials. This is the 2D partitioning the
        round-1 BASELINE.md flagged as the dense-regime scale fix."""
        key = ("grid", mode, R, C)
        if key not in self._csr:
            r, c = divmod(self.part_id, C)
            ps = self.part_size
            row_lo, row_hi = r * C * ps, min(self.V, (r + 1) * C * ps)
            col_lo, col_hi = c * R * ps, min(self.V, (c + 1) * R * ps)
            src, dst, _ = self._edges(mode, range(r * C, (r + 1) * C),
                                      ["src_id", "dst_id"])
            m = (dst >= col_lo) & (dst < col_hi)
            loc_t = np.int32 if max(row_hi - row_lo,
                                    col_hi - col_lo) < 2**31 else np.int64
            src_local = (src[m] - row_lo).astype(loc_t)
            dst_local = (dst[m] - col_lo).astype(loc_t)
            # static dst-sorted runs: the per-superstep kernel is then a
            # gather + add.reduceat + sparse write (measured ~20% faster
            # than bincount-with-weights at bench shape)
            order = np.argsort(dst_local, kind="stable")
            src_by_dst = src_local[order]
            d = dst_local[order]
            runs = _runs(d)
            ud = d[runs]
            colsize = max(0, col_hi - col_lo)
            bounds = [(min(colsize, j * ps), min(colsize, (j + 1) * ps))
                      for j in range(R)]
            self._csr[key] = (src_by_dst, runs, ud, colsize, bounds,
                              row_lo, row_hi)
        return self._csr[key]

    def vids(self) -> np.ndarray:
        return np.arange(self.lo, self.hi, dtype=np.int64)

    def scatter_plan(self, mode: str, local_dtype=np.int32):
        """Cached routing plan for full-adjacency scatters: edges sorted
        by dst once, kept as a dst-ordered SRC-LOCAL index (so each
        superstep is one cache-friendly gather from the part_size-sized
        per-vertex value array, not a permutation of an E-sized edge
        array), plus per-destination-partition slice bounds and combine
        run structure — all static properties of the CSR block. This
        removes the per-superstep argsort and E-sized shuffle that would
        otherwise dominate dense iterations like PageRank."""
        key = ("plan", mode)
        if key not in self._csr:
            indptr, dst, _ = self.csr(mode)
            P = self.meta["P"]
            deg = np.diff(indptr)
            src_local = np.repeat(
                np.arange(self.size, dtype=np.int64), deg)
            order = np.argsort(dst, kind="stable")
            d = dst[order]
            src_by_dst = src_local[order].astype(
                np.int32 if self.size < 2**31 else np.int64)
            bounds = np.searchsorted(
                d, np.arange(1, P + 1, dtype=np.int64) * self.part_size,
                side="left")
            starts = np.r_[0, bounds[:-1]]
            slices = []
            for q in range(P):
                a, b = int(starts[q]), int(bounds[q])
                if b <= a:
                    slices.append(None)
                    continue
                dq = d[a:b]
                runs = np.r_[0, np.flatnonzero(np.diff(dq)) + 1]
                q_size = min(self.V, (q + 1) * self.part_size) \
                    - q * self.part_size
                if len(runs) * 2 > q_size:
                    # dense slice: most of the destination partition is
                    # hit -> sum straight into a dense partial with one
                    # bincount over the slice edges (static decision)
                    dl_full = (dq - q * self.part_size).astype(local_dtype)
                    slices.append(("D", a, b, dl_full, q_size))
                else:
                    dl = (dq[runs] - q * self.part_size).astype(local_dtype)
                    slices.append(("S", a, b, runs, dl))
            self._csr[key] = (src_by_dst, slices)
        return self._csr[key]


class EdgeScatter:
    """Fast-path scatter result: one value PER VERTEX, broadcast along
    the partition's full adjacency (i.e. every out-edge of vertex v
    carries values[v]). Lets the engine route via the cached
    scatter_plan: a single gather through the static dst-ordered
    src-index instead of a per-superstep argsort. Sum combiner only
    (PageRank-style dense loops; also the 2D grid's input)."""

    __slots__ = ("mode", "values")

    def __init__(self, mode: str, values: np.ndarray):
        self.mode = mode
        self.values = values


@ray.remote
def _relay_pod(k: int, *blocks):
    """Second hop of the two-level 1D exchange: regroup the P source
    pod-blocks (each a tuple of k per-destination combined payloads, or
    None when the source sent nothing to this pod) into k per-
    destination inbox bundles. Payloads pass through untouched — the
    receiver's Inbox does the cross-source combine exactly as in the
    direct exchange, so results are bit-identical at any pod size."""
    outs = []
    for i in range(k):
        parts = [b[i] for b in blocks
                 if b is not None and b[i] is not None]
        outs.append(("RELAY", parts))
    return tuple(outs) if k > 1 else outs[0]


# ---------------------------------------------------------------------------
# partition actor
# ---------------------------------------------------------------------------

class PartitionWorker:
    def __init__(self, graph_dir: str, meta: dict, part_id: int, program,
                 grid: tuple[int, int] | None = None, relay=None):
        self.ctx = PartCtx(graph_dir, meta, part_id)
        self.P = meta["P"]
        self._local_dtype = np.int32 if meta["part_size"] < 2**31 else np.int64
        self._ck_thread = None     # in-flight async checkpoint write
        self._ck_done = None       # completed write info awaiting pickup
        self._ck_error = None      # exception of a failed write
        self.set_program(program, grid, relay)

    def set_program(self, program, grid: tuple[int, int] | None = None,
                    relay=None):
        """(Re)arm the actor for a run and its exchange: ``grid`` = (R, C)
        for the 2D grid, ``relay`` = the pods of the 1D pod relay, neither
        for the direct 1D exchange. Cached pools (RLG_ACTOR_CACHE) call
        this between queries instead of paying a fresh actor pool: the
        PartCtx CSR/grid/plan caches persist per edge MODE, so only the
        first program per mode pays the adjacency build."""
        self._join_ck()            # never carry an in-flight write over
        self.program = program
        self.program.combiner      # touch to fail early on bad programs
        self.grid, self.relay = grid, relay
        if grid is None:
            self.ctx.csr(self.program.mode)  # build CSR once, up front
        else:
            self.ctx.grid_block(self.program.mode, *grid)
            self.ctx.degrees(self.program.mode)  # degrees only, no 1D CSR
        self.state = None
        return True

    # -- message routing ----------------------------------------------------
    def _route_edges(self, scatter: EdgeScatter):
        """Fast path: per-vertex values broadcast along all edges,
        combined with the cached static routing plan (no per-step
        argsort; the only dynamic work is one gather + reduceat).

        When a slice's pre-combined output covers most of the destination
        partition (dense message pattern, e.g. PageRank on avg-degree-10
        graphs at small P), ship a DENSE partial-sum array instead of
        (dst, val) pairs: receivers then merge with cheap sequential adds
        instead of an O(nnz) scatter, which keeps receive-side work
        O(E/P + part_size) per actor instead of O(V)."""
        if self.program.combiner != "sum":
            raise TypeError("EdgeScatter needs the sum combiner")
        src_by_dst, slices = self.ctx.scatter_plan(scatter.mode,
                                                   self._local_dtype)
        outs = [None] * self.P
        vv = scatter.values
        for q, s in enumerate(slices):
            if s is None:
                continue
            kind, a, b, idx, extra = s
            if kind == "D":
                # dense partial straight from one bincount over the slice
                outs[q] = ("D", np.bincount(idx, weights=vv[src_by_dst[a:b]],
                                            minlength=extra))
            else:
                outs[q] = (extra, np.add.reduceat(vv[src_by_dst[a:b]], idx))
        return outs, int(len(src_by_dst))

    def _route(self, dst_global, payload):
        """Split outgoing messages by destination partition, pre-combining
        each slice. Returns P objects (or None) + sent count."""
        # name-based check: with cloudpickle by-value registration
        # (__ray_entry__) the actor's EdgeScatter class object can be a
        # distinct copy from the program module's, so isinstance fails
        if dst_global.__class__.__name__ == "EdgeScatter":
            return self._route_edges(dst_global)
        outs = [None] * self.P
        if dst_global is None or len(dst_global) == 0:
            return outs, 0
        order = np.argsort(dst_global, kind="stable")
        d = dst_global[order]
        pay = {k: v[order] for k, v in payload.items()}
        bounds = np.searchsorted(
            d, np.arange(1, self.P + 1, dtype=np.int64) * self.ctx.part_size,
            side="left")
        starts = np.r_[0, bounds[:-1]]
        for q in range(self.P):
            a, b = int(starts[q]), int(bounds[q])
            if b <= a:
                continue
            dl = (d[a:b] - q * self.ctx.part_size).astype(self._local_dtype)
            outs[q] = precombine(self.program.combiner, dl,
                                 {k: v[a:b] for k, v in pay.items()})
        return outs, int(len(d))

    # -- superstep ----------------------------------------------------------
    @staticmethod
    def _unwrap_inbox(inbox_parts) -> list:
        """Relay-mode inboxes arrive as ONE ``("RELAY", [parts...])``
        bundle per actor (direct mode: P raw parts; grid: R dense
        pieces)."""
        parts = list(inbox_parts)
        if (len(parts) == 1 and type(parts[0]) is tuple
                and len(parts[0]) == 2 and parts[0][0] == "RELAY"):
            return list(parts[0][1])
        return parts

    def _send(self, dst, payload):
        """Hand a step's sends to the exchange. Grid: publish the per-
        vertex scatter values (read zero-copy by the row's cells; the
        messages are counted by ``edge_phase``). 1D: P per-destination
        payloads, grouped into one block per pod under the relay (None
        when the whole pod got nothing — the relay skips it)."""
        if self.grid is not None:
            if dst.__class__.__name__ != "EdgeScatter":
                raise TypeError("grid programs must scatter via EdgeScatter")
            return [np.ascontiguousarray(dst.values, dtype=np.float64)], 0
        outs, n_out = self._route(dst, payload)
        if self.relay is not None:
            outs = [None if all(outs[q] is None for q in pod)
                    else tuple(outs[q] for q in pod) for pod in self.relay]
        return outs, n_out

    def superstep(self, s: int, g: dict, ckpt_dir, steps_remaining,
                  *inbox_parts):
        t0 = time.monotonic()
        # fixed-horizon hint: how many supersteps can still run after
        # this one. Programs MAY skip generating messages that provably
        # cannot influence output within the horizon (e.g. path forwards
        # whose votes would arrive after the last step).
        self.ctx.steps_remaining = steps_remaining
        n_in = 0
        if s == 0:
            self.state = self.program.init(self.ctx, g)
            dst, payload, aggs = self.program.compute0(self.ctx, self.state, g)
        else:
            inbox = Inbox(self.program.combiner, self.ctx.size,
                          self._unwrap_inbox(inbox_parts))
            n_in = inbox.n_msgs
            dst, payload, aggs = self.program.compute(
                self.ctx, self.state, inbox, g, s)
        t1 = time.monotonic()
        ck = None
        if ckpt_dir is not None:
            ck = self._write_checkpoint(ckpt_dir, s)
        t2 = time.monotonic()
        outs, n_out = self._send(dst, payload)
        t3 = time.monotonic()
        meta = {"aggs": aggs, "part": self.ctx.part_id, "msgs_in": n_in,
                "msgs_out": n_out, "wall_s": t3 - t0,
                "compute_s": t1 - t0, "ckpt_s": t2 - t1, "route_s": t3 - t2,
                "checkpoint": ck}
        return (*outs, meta)

    def rescatter(self, s: int, g: dict, steps_remaining: int):
        """Resume path: resend step s's messages from restored state."""
        self.ctx.steps_remaining = steps_remaining
        outs, n_out = self._send(
            *self.program.rescatter(self.ctx, self.state, g, s))
        return (*outs, {"part": self.ctx.part_id, "msgs_out": n_out})

    def edge_phase(self, *row_vals):
        """Grid cell's exchange round: gather the row's value chunks, one
        add.reduceat over the cell's edges into a dense column partial,
        split into per-chunk dense pieces (``("D", piece)``, the sum
        Inbox's dense wire format)."""
        t0 = time.monotonic()
        src_by_dst, runs, ud, colsize, bounds, row_lo, row_hi = \
            self.ctx.grid_block(self.program.mode, *self.grid)
        vrow = (np.concatenate(row_vals) if len(row_vals) > 1
                else row_vals[0])
        partial = np.zeros(colsize, dtype=np.float64)
        if len(runs):
            partial[ud] = np.add.reduceat(vrow[src_by_dst], runs)
        pieces = [("D", partial[a:b]) for a, b in bounds]
        meta = {"part": self.ctx.part_id, "msgs_out": int(len(src_by_dst)),
                "route_s": time.monotonic() - t0}
        return (*pieces, meta)

    # -- checkpoint / resume -------------------------------------------------
    # Checkpoint writes are ASYNC with lag-1 commit (SURVEY §7e: "async
    # write, manifest commit last"): the superstep snapshots its state
    # (memcpy) and hands the parquet write + checksum to a background
    # thread; the COMPLETED write info of step s-1 rides back in step s's
    # meta, and the driver only commits a manifest once the write behind
    # it has finished — so resume always sees durable files, at the cost
    # of the crash window losing at most the one uncommitted step.
    def _join_ck(self):
        """Wait for the in-flight write; return completed info (or None).
        Re-raises the exception of a failed write."""
        if self._ck_thread is not None:
            self._ck_thread.join()
            self._ck_thread = None
        done, self._ck_done = self._ck_done, None
        err, self._ck_error = self._ck_error, None
        if err is not None:
            raise err
        return done

    def _write_checkpoint(self, ckpt_dir: str, s: int) -> dict | None:
        import threading

        prev = self._join_ck()
        d = os.path.join(ckpt_dir, f"step_{s:05d}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"part_{self.ctx.part_id:05d}.parquet")
        snap = {k: np.array(v, copy=True) for k, v in self.state.items()}

        def write():
            # state arrays may have several distinct lengths (map/path
            # valued programs flatten ragged per-vertex state): one
            # parquet per length group, extra groups suffixed _gN
            groups: dict[int, dict] = {}
            for k, v in snap.items():
                groups.setdefault(len(v), {})[k] = v
            try:
                for i, length in enumerate(sorted(groups)):
                    p = path if i == 0 else path.replace(
                        ".parquet", f"_g{i}.parquet")
                    t = pa.table({k: pa.array(v)
                                  for k, v in groups[length].items()})
                    pq.write_table(t, p, compression="none")
            except Exception as e:
                self._ck_error = e
                return
            self._ck_done = {"step": s, "file": path, "rows": self.ctx.size,
                             "checksum": _state_checksum(snap)}

        self._ck_thread = threading.Thread(target=write, daemon=True)
        self._ck_thread.start()
        return prev

    def flush_checkpoint(self) -> dict | None:
        """Finish any pending write and return its info (run end)."""
        return self._join_ck()

    def load_checkpoint(self, ckpt_dir: str, s: int, checksum: str):
        """Restore step s's state; refuse it unless it matches the
        manifest's ``checksum``."""
        import glob
        base = os.path.join(ckpt_dir, f"step_{s:05d}",
                            f"part_{self.ctx.part_id:05d}")
        self.state = {}
        for path in sorted(glob.glob(base + "*.parquet")):
            t = pq.read_table(path)
            self.state.update({c: t.column(c).to_numpy().copy()
                               for c in t.column_names})
        if _state_checksum(self.state) != checksum:
            raise ValueError(f"checkpoint {base}.parquet does not match "
                             f"its manifest checksum {checksum}")
        return True

    def output_table(self):
        cols = self.program.output(self.ctx, self.state)
        t = pa.table({"v_id": pa.array(self.ctx.vids()),
                      **{k: pa.array(v) for k, v in cols.items()}})
        return t


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

class BSPResult:
    def __init__(self, output_refs, supersteps, aggs, history):
        self.output_refs = output_refs   # ObjectRefs to per-partition tables
        self.supersteps = supersteps     # number of supersteps executed
        self.aggs = aggs                 # aggregates of the final superstep
        self.history = history           # per-superstep metrics dicts

    def to_dataset(self):
        return ray.data.from_arrow_refs(self.output_refs)

    def to_arrow(self) -> pa.Table:
        tables = ray.get(self.output_refs)
        return pa.concat_tables([t for t in tables if t.num_rows])


# -- cached partition-actor pool ---------------------------------------------
# Opt-in (env RLG_ACTOR_CACHE=1): the ~0.5-1 s partition-actor pool
# startup is a visible fraction of every gate-scale query, and a bench /
# driver invocation runs ~18 BSP queries against the SAME graph. The
# cache keeps ONE pool alive (keyed by graph identity) and re-arms it
# per query via PartitionWorker.set_program — adjacency/plan caches
# persist per edge mode. Off by default: a retained pool holds its CPUs
# between runs, which a low-CPU session (tests at num_cpus=4) needs back
# for shuffle actor pools. Single pool only, so the held resources are
# bounded by one graph's P.
_ACTOR_POOL: dict = {}


def _actor_cache_enabled() -> bool:
    return os.environ.get("RLG_ACTOR_CACHE", "") == "1"


def _graph_generation(graph) -> int:
    """Build-generation marker for the actor-cache key: the nonce
    build_graph/build_synthetic_graph stamp into meta at build time
    (mode builds re-save meta but keep it — they only add files, so
    pool reuse across modes stays valid). Graph dirs built before the
    nonce existed fall back to meta.json's mtime — stable across
    Graph.load calls (so cross-query pool reuse still works for old
    dirs) and bumped by any rebuild; a mode build also bumps it for
    such dirs, which costs one conservative pool eviction, never a
    stale cache."""
    nonce = graph.meta.get("build_nonce")
    if nonce:
        return nonce
    try:
        return os.stat(os.path.join(graph.dir, "meta.json")).st_mtime_ns
    except OSError:
        return id(graph)


def release_cached_actors():
    """Kill the retained partition-actor pool (frees its CPUs)."""
    pool = _ACTOR_POOL.pop("pool", None)
    if pool:
        for a in pool["actors"]:
            ray.kill(a)


class BSPEngine:
    """Drives P PartitionWorker actors through the superstep loop."""

    def __init__(self, graph: Graph, program, checkpoint_dir: str | None = None,
                 checkpoint_every: int = 1):
        self.graph = graph
        self.program = program
        self.ckpt_dir = checkpoint_dir
        self.ckpt_every = max(0, checkpoint_every)
        self._pending = {}   # ckpt step -> manifest data awaiting durability
        P = graph.P
        # the exchange, fixed for the engine's life: 2D grid for dense
        # EdgeScatter programs, else direct 1D or (large P) pod relay
        self.grid = self.relay = None
        if getattr(program, "grid", False):
            if program.combiner != "sum":
                raise ValueError("grid programs must use the sum combiner")
            # R = smallest divisor >= sqrt(P): keeps the row gather
            # window (C*V/P <= V/sqrt(P)) cache-small while piece volume
            # stays O(V*R) ~ O(V*sqrt(P)). Measured at P=8/V=4M/deg=30:
            # R=4 0.59 s/step vs R=2 0.86 vs R=8 (1D-dense degenerate)
            # 1.58. No such R < P (P prime or < 4): 1D exchange.
            cands = [r for r in range(2, P) if P % r == 0 and r * r >= P]
            if cands:
                self.grid = (min(cands), P // min(cands))
        if self.grid is None and P >= RELAY_MIN_P:
            # the direct 1D exchange creates O(P^2) driver-owned object
            # refs per superstep (measured 1.8 s/step of pure driver
            # plumbing at P=128, tools/p2_refbench.py). The relay groups
            # partitions into ~sqrt(P) pods: actors return one block per
            # POD, a relay task per pod regroups to per-destination
            # bundles — O(P^1.5) refs, bit-identical results (the
            # receive-side Inbox still does the combine).
            K = max(2, int(round(P ** 0.5)))
            self.relay = [list(range(j, min(j + K, P)))
                          for j in range(0, P, K)]
        # return values per actor send, besides the meta
        self._n_out = (1 if self.grid else
                       len(self.relay) if self.relay else P)
        self._use_cache = _actor_cache_enabled()
        # the key carries a GENERATION marker (meta.json mtime): a graph
        # rebuilt in-place at the same dir with unchanged P/V must NOT
        # reuse actors whose PartCtx CSR/degree caches hold the old
        # adjacency (ADVICE.md r4). build_graph/save_meta rewrite
        # meta.json atomically, so the mtime moves on every rebuild.
        key = (graph.dir, P, graph.meta.get("V"),
               graph.meta.get("synthetic") is not None,
               _graph_generation(graph))
        pool = _ACTOR_POOL.get("pool")
        self.actors = None
        self._cached = False
        # a pool whose engine is mid-run must not be re-armed
        # (set_program would reset program/state under the running
        # engine) nor evicted (killing live actors): leave it alone and
        # build a fresh uncached pool for this engine instead.
        if (self._use_cache and pool and pool["key"] == key
                and not pool.get("busy")):
            try:
                ray.get([a.set_program.remote(program, self.grid,
                                              self.relay)
                         for a in pool["actors"]])
                self.actors = pool["actors"]
                pool["busy"] = True
                self._cached = True
            except ray.exceptions.RayActorError:
                release_cached_actors()   # pool died: rebuild below
        if self.actors is None:
            stale = _ACTOR_POOL.get("pool")
            if stale is not None and not stale.get("busy"):
                release_cached_actors()   # other graph/generation: evict
            total_cpus = ray.cluster_resources().get("CPU", P) or P
            # Reserve at most HALF the cluster for the pool: the actors
            # only compute while the driver waits on a superstep (so a
            # low reservation never slows BSP compute — nothing else is
            # hot then), but a retained/cached pool would otherwise
            # starve Ray Data stages that run between BSP queries.
            cpu_per_actor = min(1.0, max(0.05, (total_cpus / 2)
                                         / max(P, 1)))
            Worker = ray.remote(PartitionWorker)
            self.actors = [
                Worker.options(num_cpus=cpu_per_actor).remote(
                    graph.dir, graph.meta, p, program, self.grid, self.relay)
                for p in range(P)
            ]
            if self._use_cache and _ACTOR_POOL.get("pool") is None:
                _ACTOR_POOL["pool"] = {"key": key, "actors": self.actors,
                                       "busy": True}
                self._cached = True
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)

    # -- manifest helpers ---------------------------------------------------
    # Lag-1 commit protocol: checkpoint writes are async inside the
    # actors; the manifest for step s is only written once every actor
    # reports step s's parquet as durably written (which rides back in
    # the NEXT superstep's meta, or in the final flush). A committed
    # manifest therefore always points at complete files.
    def _stash_pending(self, s, g_next, aggs, metas, wall_s, done):
        self._pending[s] = {
            "globals_next": _jsonable(g_next),
            "aggs": _jsonable(aggs),
            "done": done,
            "wall_s": wall_s,
            "max_supersteps": self._run_max_supersteps,
            "msgs": {m["part"]: {"msgs_in": m["msgs_in"],
                                 "msgs_out": m["msgs_out"]} for m in metas},
        }

    def _commit_completed(self, ck_infos):
        """ck_infos: per-actor completed-write dicts (or None)."""
        infos = [i for i in ck_infos if i]
        if len(infos) != self.graph.P:
            return
        s = infos[0]["step"]
        pend = self._pending.pop(s, None)
        if pend is None:
            return
        man = {
            "step": s,
            "globals_next": pend["globals_next"],
            "aggs": pend["aggs"],
            "done": pend["done"],
            "wall_s": pend["wall_s"],
            "max_supersteps": pend["max_supersteps"],
            "parts": {self._ck_part(i): {**pend["msgs"].get(
                          self._ck_part(i), {}),
                      "file": i["file"], "rows": i["rows"],
                      "checksum": i["checksum"]}
                      for i in infos},
        }
        tmp = os.path.join(self.ckpt_dir, f"manifest_{s:05d}.json.tmp")
        with open(tmp, "w") as f:
            json.dump(man, f)
        os.replace(tmp, os.path.join(self.ckpt_dir, f"manifest_{s:05d}.json"))
        with open(os.path.join(self.ckpt_dir, "metrics.jsonl"), "a") as f:
            f.write(json.dumps({"step": s, "wall_s": pend["wall_s"],
                                "msgs": sum(v["msgs_out"] for v in
                                            pend["msgs"].values()),
                                "aggs": pend["aggs"]}) + "\n")

    @staticmethod
    def _ck_part(info):
        """part id recovered from the checkpoint file name."""
        base = os.path.basename(info["file"])
        return int(base.split("_")[1].split(".")[0])

    def latest_checkpoint(self) -> tuple[int, dict] | None:
        if not self.ckpt_dir or not os.path.isdir(self.ckpt_dir):
            return None
        best = None
        for f in os.listdir(self.ckpt_dir):
            if f.startswith("manifest_") and f.endswith(".json"):
                with open(os.path.join(self.ckpt_dir, f)) as fh:
                    man = json.load(fh)
                if len(man["parts"]) == self.graph.P and (
                        best is None or man["step"] > best["step"]):
                    best = man
        return (best["step"], best) if best else None

    def _truncate_metrics(self, s_ck: int):
        """Drop metrics rows past the resume point (replayed steps would
        otherwise append duplicates, ADVICE.md)."""
        mpath = os.path.join(self.ckpt_dir, "metrics.jsonl")
        if os.path.exists(mpath):
            with open(mpath) as f:
                keep = [ln for ln in f if json.loads(ln)["step"] <= s_ck]
            with open(mpath, "w") as f:
                f.writelines(keep)

    # -- main loop ----------------------------------------------------------
    @staticmethod
    def _check_resume_horizon(man: dict, max_supersteps: int):
        """Checkpoint state depends on the run's horizon: programs that
        read steps_remaining (betweenness/rings/links/closeness) skip
        sends unobservable within the ORIGINAL max_supersteps, and
        rescatter can only replay the pruned sends — resuming under a
        different horizon silently diverges from a fresh run (ADVICE.md).
        Manifests record max_supersteps; mismatch is refused."""
        rec = man.get("max_supersteps")
        if rec is None:       # pre-horizon manifest: can't verify
            warnings.warn("checkpoint manifest predates horizon "
                          "recording; resume assumes the original "
                          "max_supersteps matched", stacklevel=4)
            return
        if rec != max_supersteps:
            raise ValueError(
                f"cannot resume a max_supersteps={rec} checkpoint with "
                f"max_supersteps={max_supersteps}: horizon-gated sends "
                f"were pruned for the original horizon and cannot be "
                f"replayed (rerun with max_supersteps={rec} or start "
                f"fresh)")

    def _exchange(self, out_refs):
        """Launch the exchange round for one round of actor sends
        (``out_refs[p]`` = actor p's send refs). Returns each partition's
        inbox refs and the refs of the round's own metas (grid cells
        only). Grid: cell (r, c) reads its row's C value refs and
        returns R pieces; ``inboxes[q][r]`` = piece from cell
        (r, col(q)) for chunk q."""
        P = self.graph.P
        if self.grid is not None:
            R, C = self.grid
            eouts = [self.actors[p].edge_phase.options(num_returns=R + 1)
                     .remote(*[out_refs[q][0] for q in
                               range(p // C * C, (p // C + 1) * C)])
                     for p in range(P)]
            return ([[eouts[r * C + q // R][q % R] for r in range(R)]
                     for q in range(P)], [e[R] for e in eouts])
        if self.relay is None:
            return [[out_refs[p][q] for p in range(P)] for q in range(P)], []
        inboxes = [None] * P
        for j, pod in enumerate(self.relay):
            k = len(pod)
            r = _relay_pod.options(num_returns=k).remote(
                k, *[out_refs[p][j] for p in range(P)])
            if k == 1:
                r = [r]
            for i, q in enumerate(pod):
                inboxes[q] = [r[i]]
        return inboxes, []

    def run(self, max_supersteps: int = 10, resume: bool = False) -> BSPResult:
        try:
            return self._run(max_supersteps, resume)
        except BaseException:
            self.close(evict=True)   # a failed run never keeps its pool
            raise

    def _run(self, max_supersteps: int, resume: bool) -> BSPResult:
        self._run_max_supersteps = max_supersteps
        n = self._n_out
        history, aggs, inboxes = [], {}, None
        s, g = 0, self.program.master_init(self.graph)
        found = self.latest_checkpoint() if resume else None
        if found:
            s_ck, man = found
            self._check_resume_horizon(man, max_supersteps)
            ray.get([a.load_checkpoint.remote(
                self.ckpt_dir, s_ck, man["parts"][str(p)]["checksum"])
                for p, a in enumerate(self.actors)])
            g, aggs = man["globals_next"], man["aggs"]
            if man["done"]:
                return self._finish(s_ck + 1, aggs, history)
            outs = [a.rescatter.options(num_returns=n + 1)
                    .remote(s_ck, g, max_supersteps - 1 - s_ck)
                    for a in self.actors]
            ray.get([o[n] for o in outs])  # barrier on rescatter
            inboxes = self._exchange([o[:n] for o in outs])[0]
            s = s_ck + 1
            self._truncate_metrics(s_ck)

        while s < max_supersteps:
            t0 = time.monotonic()
            do_ckpt = (self.ckpt_dir if self.ckpt_every and
                       (s % self.ckpt_every == 0) else None)
            outs = [a.superstep.options(num_returns=n + 1).remote(
                        s, g, do_ckpt, max_supersteps - 1 - s,
                        *(inboxes[p] if s > 0 else ()))
                    for p, a in enumerate(self.actors)]
            # launch the next exchange round at once: the grid's edge
            # phase overlaps the meta collection and the master step
            inboxes, xmeta_refs = self._exchange([o[:n] for o in outs])
            metas = ray.get([o[n] for o in outs])
            # grid: the cells' metas count the messages (barrier: pieces
            # materialized); 1D: the actors' own
            xmetas = ray.get(xmeta_refs) or metas
            wall = time.monotonic() - t0
            aggs = _reduce_aggs([m["aggs"] for m in metas])
            msg_total = sum(m["msgs_out"] for m in xmetas)
            cont, g = self.program.master(s, aggs, msg_total, self.graph, g)
            done = (not cont) or msg_total == 0 or s == max_supersteps - 1
            history.append({
                "step": s, "wall_s": wall, "msgs": msg_total,
                "aggs": dict(aggs),
                "actor_compute_s": max(m["compute_s"] for m in metas),
                "actor_ckpt_s": max(m["ckpt_s"] for m in metas),
                "actor_route_s": max(m["route_s"] for m in xmetas),
                "actor_wall_max_s": max(m["wall_s"] for m in metas),
                "actor_wall_sum_s": sum(m["wall_s"] for m in metas),
            })
            if do_ckpt:
                self._stash_pending(s, g, aggs, metas, wall, done)
                self._commit_completed([m.get("checkpoint") for m in metas])
            s += 1
            if done:
                break
        return self._finish(s, aggs, history)

    def _finish(self, supersteps, aggs, history) -> BSPResult:
        """Collect per-partition output tables, flush in-flight checkpoint
        writes (committing their manifests), then release the actor pool
        (its CPUs) — resume works from the on-disk checkpoints, not from
        live actors."""
        refs = [a.output_table.remote() for a in self.actors]
        ray.wait(refs, num_returns=len(refs))  # ensure computed before kill
        if self.ckpt_dir and self._pending:
            infos = ray.get([a.flush_checkpoint.remote()
                             for a in self.actors])
            self._commit_completed(infos)
        self.close()
        return BSPResult(refs, supersteps, aggs, history)

    def close(self, evict: bool = False):
        pool = _ACTOR_POOL.get("pool")
        if self._cached and pool and pool["actors"] is self.actors:
            if not evict:
                pool["busy"] = False  # pool idle again: next engine may arm it
                self.actors = []
                return
            del _ACTOR_POOL["pool"]
        for a in self.actors:
            ray.kill(a)
        self.actors = []


def _reduce_aggs(dicts: list[dict]) -> dict:
    out = {}
    for d in dicts:
        for k, v in (d or {}).items():
            out[k] = out.get(k, 0) + v
    return out


def _jsonable(d):
    out = {}
    for k, v in (d or {}).items():
        out[k] = float(v) if isinstance(v, (np.floating, float)) else (
            int(v) if isinstance(v, (np.integer, int)) else v)
    return out


def run_program(graph: Graph, program, max_supersteps: int = 10,
                checkpoint_dir: str | None = None, checkpoint_every: int = 1,
                resume: bool = False) -> BSPResult:
    graph.ensure_mode(program.mode)
    eng = BSPEngine(graph, program, checkpoint_dir, checkpoint_every)
    return eng.run(max_supersteps=max_supersteps, resume=resume)
