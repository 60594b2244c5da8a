"""BSP superstep engine on a stateful partition-actor pool.

The execution model reproduces the reference's synchronous supersteps
(computer-core/.../worker/WorkerService.java:287-338 <->
MasterService.java:240-288) with Ray-native machinery:

* one ``PartitionWorker`` actor per hash partition holds the partition's
  adjacency (loaded once per edge mode from the graph's partitioned
  parquet, the analog of FileGraphPartition's vertex/edge files,
  computer-core/.../compute/FileGraphPartition.java:81-98) plus the
  algorithm's vertex-state numpy arrays (value + frontier, the analog of
  the value/status double-buffer files, ibid.:640-661);
* the P actors belong to the ``Graph``: the first engine on a graph
  starts them, every engine re-arms them for its program
  (``set_program``, the analog of the worker's one-time ``init()``,
  ibid.:81-117), and they end when the ``Graph`` is garbage-collected;
* ``BSPEngine.run`` is the one superstep loop: every actor computes,
  checkpoints and hands its sends to the exchange. Each sent object also
  carries its sender's aggregates and message count, so at the start of
  step s+1 every actor reduces step s's P aggregates in partition order
  and runs the master step itself: the BSP barrier is each actor's wait
  for its inbox (no etcd, no driver round trip). The driver keeps two
  steps in flight: it queues step s+1 before it reads step s's metas,
  which it reads one step late for the history, the lag-1 manifests and
  its own copy of the master step; a step queued past the halt changes
  nothing;
* the exchange is the one thing that varies, chosen once per engine
  from ``program.dense``:
  - dense pull (``EdgeScatter`` programs, every P): a program that
    sends the same value along every edge of a vertex (PageRank's sum,
    WCC's min, LPA's label vote) publishes one value per owned vertex
    per step, with a sentinel for the vertices that send nothing this
    step. The next superstep on actor q reads its own chunk from memory,
    takes the other P-1 chunks (zero-copy) and gathers its own in-edges'
    values itself (``PartCtx.pull_block``: a static gather per source
    chunk), then combines them (``Inbox.pulled``: a bincount, a
    ``minimum.at`` or one sort of the vote key), so a step is one actor
    round and ships P chunks of V/P values, not a message per edge;
  - direct 1D: each actor splits its messages by destination partition
    (a stable radix sort of the small partition index, so every slice
    keeps emission order), pre-combines each slice with one sort by
    dst (``precombine``, the analog of the reference's sort-with-
    combiner send buffers, computer-core/.../sender/
    MessageSendManager.java:99-239) and ships one object per
    (src-part, dst-part) pair; the receiver finishes the combine
    (``Inbox``). Pre-combining per source partition is the skew
    treatment for hub dst vertices: a vertex with 10^6 in-edges
    receives at most P pre-combined values, not 10^6 messages;
* global aggregators are small dicts returned from each actor and
  reduced on every actor and on the driver, in the same order (the
  analog of worker->master aggregator RPC, computer-core/.../aggregator/
  WorkerAggrManager.java);
* each actor checkpoints its post-compute state: a snapshot goes to the
  actor's one writer thread, which writes it as plain-encoded parquet
  (no dictionary) off the superstep's path, and the driver commits an
  atomic per-step manifest with per-partition lineage (file, rows,
  checksum, write time, bytes, message counts) + metrics, so runs resume
  mid-iteration (the reference only resumes at the input/compute step
  boundary, MasterService.java:191-213 TODO). Resume verifies every
  part's checksum; a failed checkpoint write fails the run.

Messages between partitions are (dst_local:int32, value...) numpy tuples
or dense value chunks. An object of 100 KB or more goes through the
object store (Plasma), which the receiver reads zero-copy; a smaller one
(every chunk of a 20k-page graph at P=4) is inlined through its owner,
the driver, into the call that takes it.
"""

from __future__ import annotations

import collections
import ctypes
import json
import os
import time
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ._util import hash_u64
from .graph import Graph
from .synth import synth_edges_for_range

I64MAX = np.iinfo(np.int64).max
# the dense pull's combiners, each with the value a vertex that sends
# nothing this step publishes (None: the combiner takes every vertex)
PULL_SENTINEL = {"sum": None, "min": I64MAX, "label_count": -1}


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


def _write_state(path: str, s: int, rows: int, snap: dict) -> dict:
    """Write one part's state snapshot (the checkpoint writer's task) and
    return its completed-write info, including the writer's wall time
    and the bytes written. State arrays may have several distinct lengths
    (map/path valued programs flatten ragged per-vertex state): one
    parquet per length group, extra groups suffixed _gN."""
    t0 = time.monotonic()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    groups: dict[int, dict] = {}
    for k, v in snap.items():
        groups.setdefault(len(v), {})[k] = v
    nbytes = 0
    for i, length in enumerate(sorted(groups)):
        p = path if i == 0 else path.replace(".parquet", f"_g{i}.parquet")
        t = pa.table({k: pa.array(v) for k, v in groups[length].items()})
        pq.write_table(t, p, compression="none", use_dictionary=False)
        nbytes += os.path.getsize(p)
    return {"step": s, "file": path, "rows": rows,
            "checksum": _state_checksum(snap),
            "write_s": time.monotonic() - t0, "bytes": nbytes}


def _weighted_sum(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """float64 sums of ``w`` per index in [0, size) (an empty bincount
    would come back int64)."""
    return np.bincount(idx, weights=w, minlength=size).astype(
        np.float64, copy=False)


def _runs(sorted_arr: np.ndarray) -> np.ndarray:
    """Start indices of equal-value runs in a sorted array (through a
    bool mask: on 68k distinct int64 keys 0.05 ms, against 0.18 ms for
    ``flatnonzero(np.diff(...))``)."""
    if len(sorted_arr) == 0:
        return np.zeros(0, dtype=np.int64)
    new = np.empty(len(sorted_arr), dtype=bool)
    new[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=new[1:])
    return np.flatnonzero(new)


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


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation of a stable sort of ``keys`` (non-negative ints),
    from one unstable sort of the unique int64 key ``keys * n + index``:
    the same order, several times faster than a stable sort of narrow
    ints (76k int32 keys: 3.4 ms stable, 0.8 ms this way)."""
    n = len(keys)
    return np.argsort(keys.astype(np.int64) * n + np.arange(n))


def _label_vote(d: np.ndarray, lab: np.ndarray):
    """LPA's vote: per dst, the most frequent label, ties -> the min label
    (reference Lpa.voteLabel, Lpa.java:66-101; Id order == int64 order by
    dictionary construction). One sort of the composite key
    ``d * L + lab`` (``L`` = max label + 1; labels are in [0, V), so the
    key stays below ``part_size * V``, which ``check_label_key`` bounds)
    orders the votes by dst, then label, in R runs of equal votes. Run i
    scores ``count * R + (R - 1 - i)``, so a dst's max score is its most
    frequent label, ties -> its first run, the min label (the score
    stays below ``(n + 1) * n`` for n votes). The key and the score are
    built in place: on a 4-CPU VM each fresh temporary of 68k votes
    costs about 0.2 ms of page faults, and a call takes 1.9 ms in place
    against 2.3 ms out of place (its sort: 0.6 ms). Returns (win_dst,
    win_label), by dst."""
    if len(d) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy()
    L = int(lab.max()) + 1
    key = d.astype(np.int64)
    key *= L
    key += lab
    key.sort()
    starts = _runs(key)
    R = len(starts)
    runs = key[starts]
    score = np.diff(starts, append=len(key))     # the run's count
    score *= R
    score += np.arange(R - 1, -1, -1)
    run_dst = runs // L
    score = np.maximum.reduceat(score, _runs(run_dst))
    win = (R - 1) - score % R
    win_dst = run_dst[win]
    return win_dst, runs[win] - win_dst * L


def check_label_key(meta: dict):
    """The ``label_count`` vote key ``dst_local * L + label`` must fit an
    int64: part_size * V < 2**63, i.e. V below about 3.0e9 * sqrt(P)."""
    if meta["part_size"] * meta["V"] >= 2**63:
        raise ValueError(
            f"label_count needs part_size * V < 2**63 (V below about "
            f"3.0e9 * sqrt(P)); got part_size={meta['part_size']}, "
            f"V={meta['V']}")


def precombine(kind: str, dst_local: np.ndarray, payload: dict):
    """Combine duplicate dst keys before shipping. ``dst_local`` and the
    payload arrive in emission order (the router only buckets them by
    destination partition, stably) and this function does the one sort:
    ``sum``, ``overwrite`` and ``concat`` sort in the order of a stable
    sort (``_stable_order``), so each dst's values keep emission order
    (float sums, the overwrite pick and the concat rows equal those of
    one global stable sort by dst); ``min``, ``max`` and ``kv_min``
    cannot depend on order and sort unstably (``kv_min`` on keys that
    fix the output order)."""
    if len(dst_local) == 0:
        return None
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
    if kind not in ("sum", "min", "max", "overwrite", "concat"):
        raise ValueError(kind)
    order = (np.argsort(dst_local) if kind in ("min", "max")
             else _stable_order(dst_local))
    d = dst_local[order]
    if kind == "concat":
        return (d,) + tuple(payload[k][order] for k in sorted(payload))
    v = payload["val"][order]
    starts = _runs(d)
    if kind == "sum":
        return (d[starts], np.add.reduceat(v, starts))
    if kind == "min":
        return (d[starts], np.minimum.reduceat(v, starts))
    if kind == "max":
        # ValueMaxCombiner (computer-api/.../combiner/ValueMaxCombiner.java)
        return (d[starts], np.maximum.reduceat(v, starts))
    # overwrite: OverwriteCombiner (computer-api/.../combiner/
    # OverwriteCombiner.java) keeps one value per key; the reference's
    # pick is processing-order dependent — ours is deterministically the
    # FIRST emitted value (stable order, partitions merge in fixed order)
    return (d[starts], v[starts])


class Inbox:
    """Receive-side combined view of one partition's incoming messages.

    The parts arrive in sender-partition order, each sorted by dst. What
    needs order keeps it: ``concat`` rows and the ``overwrite`` pick
    (first emitted, one stable sort) equal those of one global stable
    sort by dst. ``min``/``max`` scatter into the dense array
    (``ufunc.at``, no sort); ``kv_min`` sorts on its full key, so no
    order leaks through.

    A dense program's inbox is built by the receiver's own pull
    (``Inbox.pulled``) with the same fields: ``sum``, ``min``,
    ``win_dst``/``win_label`` and ``mask``."""

    def __init__(self, kind: str, size: int, parts: list):
        self.kind = kind
        self.size = size
        self.n_msgs = 0
        self._mask = None
        parts = [p for p in parts if p is not None and len(p[0])]
        if kind == "sum":
            # one bincount over the concatenation: O(nnz + size), not
            # O(P * size) as a per-part pass would be
            d = (np.concatenate([p[0] for p in parts]) if parts
                 else np.zeros(0, dtype=np.int64))
            v = (np.concatenate([p[1] for p in parts]) if parts
                 else np.zeros(0, dtype=np.float64))
            self.n_msgs = len(d)
            self.sum = _weighted_sum(d, v, size)
            self._sparse_d = d
        elif kind in ("min", "max"):
            # scatter straight into the dense array: min/max need no order
            d = (np.concatenate([p[0] for p in parts]) if parts
                 else np.zeros(0, dtype=np.int64))
            v = (np.concatenate([p[1] for p in parts]) if parts
                 else np.zeros(0, dtype=np.float64))
            self.n_msgs = len(d)
            if np.issubdtype(v.dtype, np.integer):
                info = np.iinfo(v.dtype)
                fill = info.max if kind == "min" else info.min
            else:
                fill = np.inf if kind == "min" else -np.inf
            dense = np.full(size, fill, dtype=v.dtype)
            (np.minimum if kind == "min" else np.maximum).at(dense, d, v)
            self._mask = np.zeros(size, dtype=bool)
            self._mask[d] = True
            setattr(self, kind, dense)
            if kind == "max":
                self.val = dense
        elif kind == "overwrite":
            if parts:
                d = np.concatenate([p[0] for p in parts])
                v = np.concatenate([p[1] for p in parts])
                self.n_msgs = len(d)
                order = _stable_order(d)
                d, v = d[order], v[order]
                starts = _runs(d)
                ud, mv = d[starts], v[starts]    # first emitted
            else:
                ud = np.zeros(0, dtype=np.int64)
                mv = np.zeros(0, dtype=np.float64)
            dense = np.zeros(size, dtype=mv.dtype)
            dense[ud] = mv
            self._mask = np.zeros(size, dtype=bool)
            self._mask[ud] = True
            self.overwrite = self.val = dense
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

    @classmethod
    def pulled(cls, kind: str, size: int, dst: np.ndarray,
               vals: np.ndarray, mask: np.ndarray) -> "Inbox":
        """A dense program's inbox, combined from what its in-edges pulled:
        ``vals[i]`` came along the in-edge into local vertex ``dst[i]``,
        or is the combiner's ``PULL_SENTINEL`` where its source sent
        nothing. ``sum``: every vertex sends, ``mask`` = the static
        in-degree > 0 mask (read-only). ``min``: I64MAX where nothing
        arrived. ``label_count``: the vote, ``win_dst``/``win_label``."""
        ib = cls.__new__(cls)
        ib.kind, ib.size = kind, size
        if kind == "sum":
            ib.n_msgs, ib._mask = len(dst), mask
            ib.sum = _weighted_sum(dst, vals, size)
        elif kind == "min":
            m = np.full(size, I64MAX, dtype=np.int64)
            np.minimum.at(m, dst, vals)
            ib.min, ib._mask = m, m != I64MAX
            ib.n_msgs = len(dst) - int(np.count_nonzero(vals == I64MAX))
        else:
            sent = vals >= 0
            ib.win_dst, ib.win_label = _label_vote(dst[sent], vals[sent])
            ib.n_msgs = int(np.count_nonzero(sent))
            ib._mask = np.zeros(size, dtype=bool)
            ib._mask[ib.win_dst] = True
        return ib

    @property
    def mask(self) -> np.ndarray:
        """Per-vertex received mask (for 1D sum inboxes built on first
        use)."""
        if self._mask is None:
            self._mask = np.zeros(self.size, dtype=bool)
            self._mask[self._sparse_d] = True
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
    dense = False         # True: the program ALWAYS scatters via
    #                       EdgeScatter with a PULL_SENTINEL combiner
    #                       (sum, min or label_count) and gets the pull

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

    def master(self, s, aggs: dict, msg_total: int, V: int, g: dict):
        """``(continue, next globals)`` from step s's reduced ``aggs``,
        its message total and the graph's vertex count ``V``. Must be a
        pure function of its arguments: every actor runs it, and so does
        the driver."""
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
        """Out-degrees of owned vertices. Uses the cached CSR when built
        (or those ``split_out_edges`` took); otherwise loads ONLY the src
        column."""
        key = ("deg", mode)
        if key not in self._csr:
            if mode in self._csr:
                d = np.diff(self._csr[mode][0])
            else:
                src = self._edges(mode, self._own, columns=["src_id"])[0]
                d = np.bincount(src - self.lo, minlength=self.size)
            self._csr[key] = d
        return self._csr[key]

    def split_out_edges(self, mode: str):
        """The own partition's edges split by destination partition, for
        the pull blocks: ``(src, dst, off)``, where ``src[off[q]:off[q + 1]]``
        (local to this partition) and ``dst`` (local to q) are the edges
        into partition q, in file order. Also caches the out-degrees."""
        src, dst, _ = self._edges(mode, self._own, ["src_id", "dst_id"])
        self._csr[("deg", mode)] = np.bincount(src - self.lo,
                                               minlength=self.size)
        ps, P = self.part_size, self.meta["P"]
        local = np.int32 if ps < 2**31 else np.int64
        q = (dst // ps).astype(np.int16 if P < 2**15 else np.int32)
        order = np.argsort(q, kind="stable")
        off = np.zeros(P + 1, dtype=np.int64)
        np.cumsum(np.bincount(q, minlength=P), out=off[1:])
        q = q[order]
        return ((src[order] - self.lo).astype(local),
                (dst[order] - q.astype(np.int64) * ps).astype(local), off)

    def set_pull_block(self, mode: str, splits):
        """Keep the owned chunk's in-edges, taken from the P partitions'
        ``split_out_edges``, as the dense pull's static block."""
        q = self.part_id
        src = np.concatenate([s[o[q]:o[q + 1]] for s, _, o in splits])
        dst = np.concatenate([d[o[q]:o[q + 1]] for _, d, o in splits]
                             ).astype(np.intp)
        off = np.zeros(len(splits) + 1, dtype=np.int64)
        np.cumsum([o[q + 1] - o[q] for _, _, o in splits], out=off[1:])
        mask = np.bincount(dst, minlength=self.size) > 0
        mask.flags.writeable = False
        self._csr[("pull", mode)] = (src, off, dst, mask)

    def pull_block(self, mode: str):
        """The owned chunk's in-edges for the dense pull exchange:
        ``(src, off, dst, mask)``. ``src[off[j]:off[j + 1]]`` are the
        sources of the in-edges from partition j, local to j (int32
        below 2**31), ``dst`` their local destinations in the same order
        and ``mask`` the static in-degree > 0 mask; None until
        ``set_pull_block`` set it at arming, once per edge mode, so each
        partition's edges are read once."""
        return self._csr.get(("pull", mode))

    def in_edges(self, mode: str):
        """The pull block's in-edges as (global source id, local dst)."""
        src, off, dst, _ = self.pull_block(mode)
        base = np.repeat(np.arange(len(off) - 1, dtype=np.int64)
                         * self.part_size, np.diff(off))
        return src + base, dst

    def vids(self) -> np.ndarray:
        return np.arange(self.lo, self.hi, dtype=np.int64)


class EdgeScatter:
    """A dense program's scatter: one value PER VERTEX, sent along every
    ``mode`` edge of each vertex in ``senders`` (a bool mask; None = all
    vertices): every such edge of vertex v carries values[v]. The engine
    publishes the values, with the combiner's ``PULL_SENTINEL`` for the
    vertices not sending, and each receiver pulls and combines its
    in-edges' values (``PartCtx.pull_block``, ``Inbox.pulled``). The
    sum combiner takes every vertex; a sender whose value equals the
    sentinel sends nothing."""

    __slots__ = ("mode", "values", "senders")

    def __init__(self, mode: str, values: np.ndarray, senders=None):
        self.mode = mode
        self.values = values
        self.senders = senders


def _n_sends(dense: bool, P: int) -> int:
    """The objects an actor's step sends, besides its meta: the dense
    pull's one chunk, else one payload per destination partition."""
    return 1 if dense else P


# ---------------------------------------------------------------------------
# partition actor
# ---------------------------------------------------------------------------

def _keep_freed_heap():
    """Keep the actor's freed memory for its next step (glibc only; a
    no-op elsewhere). By default glibc serves a large block by a fresh
    mmap, or trims the freed top of its heap back to the OS, so a step's
    per-edge temporaries page-fault afresh every step: LPA's vote on 68k
    votes took 640 minor faults and 1.9 ms a call, and none and 1.2 ms
    with blocks below 32 MB kept in the heap and up to 64 MB of free heap
    kept (4-CPU VM)."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)      # M_TRIM_THRESHOLD


class PartitionWorker:
    def __init__(self, graph_dir: str, meta: dict, part_id: int):
        _keep_freed_heap()
        self.ctx = PartCtx(graph_dir, meta, part_id)
        self.P = meta["P"]
        self._local_dtype = np.int32 if meta["part_size"] < 2**31 else np.int64
        self._part_dtype = np.int16 if self.P < 2**15 else np.int32
        self._ck_writer = None     # checkpoint writer thread, on first use
        self._ck_future = None     # in-flight write: its info, or raises
        self._own = None           # the dense pull's own published chunk
        self._bufs = {}            # the pull's gather buffers, per dtype

    def set_program(self, program):
        """Arm the actor for one engine's run. Every engine on the graph
        arms the graph's pool through here; the PartCtx CSR/pull-block
        caches persist per edge MODE, so only the first program per mode
        pays the adjacency build (a dense program's pull block:
        ``arm_pull``, which the driver queues when its pool record lacks
        the mode)."""
        self._join_ck()            # never carry an in-flight write over
        self.program = program
        self.program.combiner      # touch to fail early on bad programs
        self.dense = getattr(program, "dense", False)
        self._n_out = _n_sends(self.dense, self.P)
        self.state = self._own = None
        self._g = self._ctl = None   # the step's globals, its (aggs, msgs)
        self._halted = False
        if not self.dense:
            self.ctx.csr(program.mode)     # build CSR once, up front

    def split_out_edges(self):
        return self.ctx.split_out_edges(self.program.mode)

    def arm_pull(self, *splits):
        self.ctx.set_pull_block(self.program.mode, splits)
        return True

    # -- message routing ----------------------------------------------------
    def _route(self, dst_global, payload):
        """Split outgoing messages by destination partition, pre-combining
        each slice. Returns P objects (or None) + sent count. The split
        is a stable sort of the small partition index (a radix sort for
        int16), so each slice reaches ``precombine`` in emission order
        and ``precombine`` does the one sort by dst."""
        outs = [None] * self.P
        if dst_global is None or len(dst_global) == 0:
            return outs, 0
        ps = self.ctx.part_size
        q = (dst_global // ps).astype(self._part_dtype)
        order = np.argsort(q, kind="stable")
        ends = np.cumsum(np.bincount(q, minlength=self.P))
        a = 0
        for p, b in enumerate(ends.tolist()):
            if b > a:
                idx = order[a:b]
                dl = (dst_global[idx] - p * ps).astype(self._local_dtype)
                outs[p] = precombine(self.program.combiner, dl,
                                     {k: v[idx] for k, v in payload.items()})
            a = b
        return outs, int(len(dst_global))

    def _pull(self, others) -> Inbox:
        """A dense program's receive: gather each in-edge's source value
        from the P value chunks (its own from memory, the P-1 ``others``
        from the exchange), then combine into the owned chunk. The order
        of a sum is static, so a rerun and a resume are bit-identical."""
        src, off, dst, mask = self.ctx.pull_block(self.program.mode)
        chunks = list(others)
        chunks.insert(self.ctx.part_id, self._own)
        buf = self._bufs.get(self._own.dtype)
        if buf is None or len(buf) != len(src):
            buf = self._bufs[self._own.dtype] = np.empty(
                len(src), dtype=self._own.dtype)
        for j, v in enumerate(chunks):
            a, b = off[j], off[j + 1]
            # mode="clip": indices are in range by construction, and
            # "raise" would gather into a temporary, not into out
            np.take(v, src[a:b], out=buf[a:b], mode="clip")
        return Inbox.pulled(self.program.combiner, self.ctx.size, dst, buf,
                            mask)

    def _publish(self, sc) -> int:
        """Keep a dense step's value chunk as ``self._own``: the values,
        with the combiner's sentinel for the vertices not sending. Returns
        the messages sent, the ``mode`` edges of the senders."""
        n = self.ctx.size
        if len(sc.values) != n:
            # the receivers' gather clips, so a short chunk would pass
            # silently
            raise ValueError(f"EdgeScatter has {len(sc.values)} values "
                             f"for a partition of {n} vertices")
        deg = self.ctx.degrees(sc.mode)
        sentinel = PULL_SENTINEL[self.program.combiner]
        if sentinel is None:
            if sc.senders is not None:
                raise ValueError(f"the {self.program.combiner} pull takes "
                                 f"every vertex; EdgeScatter has senders")
            self._own = np.ascontiguousarray(sc.values, dtype=np.float64)
            return int(deg.sum())
        # a copy: the sentinel must not reach the program's state
        self._own = np.array(sc.values, dtype=np.int64)
        if sc.senders is None:
            return int(deg.sum())
        senders = np.asarray(sc.senders, dtype=bool)
        if len(senders) != n:
            raise ValueError(f"EdgeScatter has a senders mask of "
                             f"{len(senders)} for a partition of {n} "
                             f"vertices")
        self._own[~senders] = sentinel
        return int(deg[senders].sum())

    # -- superstep ----------------------------------------------------------
    def _send(self, dst, payload):
        """Hand a step's sends to the exchange. Dense: publish the per-
        vertex values, one object that the other actors pull from (None
        at P=1: the actor reads its own from memory); the sent messages
        are the senders' edges. 1D: P per-destination payloads (None
        for a partition that gets nothing)."""
        # name-based check: with cloudpickle by-value registration
        # (__ray_entry__) the actor's EdgeScatter class object can be a
        # distinct copy from the program module's, so isinstance fails
        if self.dense:
            if (dst.__class__.__name__ != "EdgeScatter"
                    or dst.mode != self.program.mode):
                raise TypeError("dense programs must scatter via "
                                "EdgeScatter along their own edge mode")
            n_out = self._publish(dst)
            return [self._own if self.P > 1 else None], n_out
        if dst.__class__.__name__ == "EdgeScatter":
            raise TypeError("only dense programs scatter via EdgeScatter")
        return self._route(dst, payload)

    def superstep(self, s: int, g, ckpt_dir, steps_remaining, *pairs):
        """Run superstep s on ``pairs``, the senders' ``(ctl, payload)``
        in sender order (dense: the P-1 other partitions'). ``g``: the
        step's globals, given for a run's first step; None for every
        later one, which runs the master step here: every sent object
        carries its sender's ``ctl`` = (aggs, msgs out), so each actor
        reduces the P aggregates of step s-1 in partition order, as the
        driver does, and gets the same globals and halt decision without
        waiting for the driver. A step after the halt, or after a step
        of this actor that raised, changes no state and writes no
        checkpoint."""
        if g is not None:            # a run's first step
            self._halted = False
        elif self._halted:
            return (None,) * (self._n_out + 1)
        try:
            return self._superstep(s, g, ckpt_dir, steps_remaining, pairs)
        except BaseException:
            self._halted = True
            raise

    def _superstep(self, s, g, ckpt_dir, steps_remaining, pairs):
        t0 = time.monotonic()
        if g is None:
            ctls = [c for c, _ in pairs]
            if self.dense:
                ctls.insert(self.ctx.part_id, self._ctl)
            aggs = _reduce_aggs([c[0] for c in ctls])
            msg_total = sum(c[1] for c in ctls)
            cont, g = self.program.master(s - 1, aggs, msg_total,
                                          self.ctx.V, self._g)
            if not cont or msg_total == 0:
                self._halted = True
                return (None,) * (self._n_out + 1)
        self._g = g
        # fixed-horizon hint: how many supersteps can still run after
        # this one. Programs MAY skip generating messages that provably
        # cannot influence output within the horizon (e.g. path forwards
        # whose votes would arrive after the last step).
        self.ctx.steps_remaining = steps_remaining
        n_in, pull_s = 0, 0.0
        if s == 0:
            self.state = self.program.init(self.ctx, g)
            dst, payload, aggs = self.program.compute0(self.ctx, self.state, g)
        else:
            payloads = [p for _, p in pairs]
            if self.dense:
                inbox = self._pull(payloads)
                pull_s = time.monotonic() - t0   # the exchange's share
            else:
                inbox = Inbox(self.program.combiner, self.ctx.size, payloads)
            n_in = inbox.n_msgs
            dst, payload, aggs = self.program.compute(
                self.ctx, self.state, inbox, g, s)
        t1 = time.monotonic()
        ck = None
        if ckpt_dir is not None:
            ck = self._write_checkpoint(ckpt_dir, s)
        t2 = time.monotonic()
        outs, n_out = self._send(dst, payload)
        self._ctl = (aggs, n_out)
        t3 = time.monotonic()
        meta = {"aggs": aggs, "part": self.ctx.part_id, "msgs_in": n_in,
                "msgs_out": n_out, "wall_s": t3 - t0,
                "compute_s": t1 - t0 - pull_s, "ckpt_s": t2 - t1,
                "route_s": t3 - t2 + pull_s, "checkpoint": ck}
        return (*[(self._ctl, o) for o in outs], meta)

    def rescatter(self, s: int, g: dict, steps_remaining: int):
        """Resume path: resend step s's messages from restored state.
        They carry no ``ctl``: the first resumed step gets its globals
        from the manifest."""
        self.ctx.steps_remaining = steps_remaining
        outs, n_out = self._send(
            *self.program.rescatter(self.ctx, self.state, g, s))
        return (*[(None, o) for o in outs],
                {"part": self.ctx.part_id, "msgs_out": n_out})

    # -- checkpoint / resume -------------------------------------------------
    # Checkpoint writes are ASYNC with lag-1 commit (SURVEY §7e: "async
    # write, manifest commit last"): the superstep snapshots its state
    # (memcpy) and submits the directory create, parquet write and
    # checksum to the actor's one long-lived writer thread; the writer's
    # future yields the COMPLETED write info (or raises). Step s-1's info
    # rides back in step s's meta, and the driver only commits a manifest
    # once the write behind it has finished — so resume always sees
    # durable files, at the cost of the crash window losing at most the
    # one uncommitted step. The state is written PLAIN (no dictionary
    # page): parquet's default tries a dictionary on every column, which
    # for float state finds nothing to share and only costs: one
    # 62,500-float PageRank part took 2-4.7 ms to write with it and about
    # 0.3 ms without (a new file, ext4 or tmpfs alike, on a 4-CPU VM),
    # and its file shrank from 626 to 501 KB.
    def _join_ck(self):
        """Wait for the in-flight write; return its completed info (or
        None). Re-raises the exception of a failed write."""
        fut, self._ck_future = self._ck_future, None
        return None if fut is None else fut.result()

    def _write_checkpoint(self, ckpt_dir: str, s: int) -> dict | None:
        prev = self._join_ck()
        if self._ck_writer is None:
            from concurrent.futures import ThreadPoolExecutor
            self._ck_writer = ThreadPoolExecutor(1)
        path = os.path.join(ckpt_dir, f"step_{s:05d}",
                            f"part_{self.ctx.part_id:05d}.parquet")
        snap = {k: np.array(v, copy=True) for k, v in self.state.items()}
        self._ck_future = self._ck_writer.submit(
            _write_state, path, s, self.ctx.size, snap)
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
    """A run's outputs and metrics. ``history`` has one dict per
    superstep run: ``step``, ``msgs`` (sent), ``aggs``, the slowest
    actor's ``actor_compute_s``/``actor_ckpt_s``/``actor_route_s``,
    ``actor_wall_max_s``/``_median_s``/``_sum_s``, ``msgs_in_max`` and
    ``_median``, ``ckpt_write_s``, and ``wall_s``: the step's wall as the
    driver sees it, from the previous step's metas reaching the driver
    (the run's first step: from its launch) to this step's. With a step
    queued ahead, the walls add up to the loop's, and ``wall_s -
    actor_wall_max_s`` is the time a step spent outside its slowest
    actor: Ray's per-call cost, the exchange's transfers and any driver
    work the queued step did not hide."""

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


# -- the graph's partition-actor pool ----------------------------------------
# Each Graph owns one pool of P PartitionWorker actors: the first engine
# on the graph starts it, every engine re-arms it with set_program, so a
# pool start and each mode's adjacency load are paid once per graph, not
# once per query. A weak key: when the Graph is garbage-collected its
# pool record and actor handles go with it, and Ray ends the actors. The
# actors reserve no CPU: they compute only while the driver waits on a
# superstep, and the Ray Data stages run between BSP queries need the
# cluster's CPUs. No task events: for a live actor the driver's task-event
# buffer holds each call's inlined messages until a periodic flush
# (measured over 8 PageRank runs at V=20k, P=4: driver peak RSS 334 MB
# with task events, 204 MB without).
_POOLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# supersteps in flight: the driver queues step s+1 before it reads step
# s's metas, so an actor that finishes step s finds step s+1 queued and
# runs the master step itself. PageRank on a synthetic V=20k graph, P=4,
# 200 steps, median of 10 alternating reps on a 4-core host: 3.64 ms per
# step with 1 in flight, 2.90 with 2, 2.72 with 3 (inside the reps'
# spread of about 0.3 ms). The cost: a halt that the program decides
# still ships the queued step its inboxes (WCC at P=32 on 4 cores: about
# 23 ms of a 145 ms run)
WINDOW = 2


def _ray_session() -> tuple[str, str]:
    """Actor handles of an earlier Ray session cannot be called: a new
    driver job gets a new job id, a restarted local cluster (whose first
    job id repeats) a new node id."""
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def _start_pool(graph: Graph) -> dict:
    Worker = ray.remote(PartitionWorker).options(
        num_cpus=0, scheduling_strategy="SPREAD", enable_task_events=False)
    _POOLS[graph] = pool = {
        "actors": [Worker.remote(graph.dir, graph.meta, p)
                   for p in range(graph.P)],
        "session": _ray_session(),
        "pulls": set()}     # the edge modes whose pull blocks are armed
    return pool


def _kill_pool(graph: Graph):
    for a in _POOLS.pop(graph, {}).get("actors", []):
        ray.kill(a)


class BSPEngine:
    """Drives the graph's P PartitionWorker actors through the superstep
    loop. Constructing an engine re-arms the pool for its program, so an
    engine must run before the next engine on the same graph is built."""

    def __init__(self, graph: Graph, program, checkpoint_dir: str | None = None,
                 checkpoint_every: int = 1):
        self.graph = graph
        self.program = program
        self.ckpt_dir = checkpoint_dir
        self.ckpt_every = max(0, checkpoint_every)
        if program.combiner == "label_count":
            check_label_key(graph.meta)
        # the exchange, fixed for the engine's life: the dense pull for
        # EdgeScatter programs (P objects per step), else the direct 1D
        # exchange (P^2 objects per step)
        self.dense = getattr(program, "dense", False)
        if self.dense and program.combiner not in PULL_SENTINEL:
            raise ValueError(f"dense programs must use one of the "
                             f"{sorted(PULL_SENTINEL)} combiners")
        self._n_out = _n_sends(self.dense, graph.P)
        pool = _POOLS.get(graph)
        if pool is None or pool["session"] != _ray_session():
            pool = _start_pool(graph)
        self._arm(pool)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)

    def _arm(self, pool: dict):
        """Queue the arming calls; the run reads their results (and so
        any error, or an actor that died since the pool's last run)
        while its first supersteps are already queued behind them (a
        resumed run: before it loads its checkpoint)."""
        # claim the pool before arming: an earlier engine on this graph
        # must not run on actors re-armed (even partly) for this one
        pool["armed_by"] = weakref.ref(self)
        self._pool, self.actors = pool, pool["actors"]
        self._arming = [a.set_program.remote(self.program)
                        for a in self.actors]
        self._cold = self.dense and self.program.mode not in pool["pulls"]
        if self._cold:
            # a dense program's first arming for its edge mode: every
            # actor reads its own edges and splits them by destination
            # partition, and each actor keeps its slice of all P
            splits = [a.split_out_edges.remote() for a in self.actors]
            self._arming += [a.arm_pull.remote(*splits)
                             for a in self.actors]

    # -- manifest helpers ---------------------------------------------------
    # Lag-1 commit protocol: checkpoint writes are async inside the
    # actors; the manifest for step s is only written once every actor
    # reports step s's parquet as durably written (which rides back in
    # the NEXT superstep's meta, or in the final flush); the driver
    # writes it after launching the superstep after that one, off the
    # barrier. A committed manifest therefore always points at complete
    # files.
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
                      "checksum": i["checksum"], "write_s": i["write_s"],
                      "bytes": i["bytes"]}
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
        Manifests record max_supersteps; a manifest without it, or with
        another, is refused."""
        rec = man.get("max_supersteps")
        if rec is None:
            raise ValueError("checkpoint manifest does not record its "
                             "max_supersteps; cannot check the resume "
                             "horizon")
        if rec != max_supersteps:
            raise ValueError(
                f"cannot resume a max_supersteps={rec} checkpoint with "
                f"max_supersteps={max_supersteps}: horizon-gated sends "
                f"were pruned for the original horizon and cannot be "
                f"replayed (rerun with max_supersteps={rec} or start "
                f"fresh)")

    def run(self, max_supersteps: int = 10, resume: bool = False) -> BSPResult:
        if (_POOLS.get(self.graph) is not self._pool
                or self._pool["armed_by"]() is not self):
            raise RuntimeError(
                "this graph's actor pool was re-armed by a later BSPEngine "
                "or dropped by a failed run; build a new engine to run")
        try:
            try:
                return self._run(max_supersteps, resume)
            except ray.exceptions.RayActorError:
                if self._stepped:
                    raise
                # an actor died since the pool's last run: arming does
                # not wait for the actors, so it shows before the first
                # step returns. Start a fresh pool once, from the start.
                _kill_pool(self.graph)
                self._arm(_start_pool(self.graph))
                return self._run(max_supersteps, resume)
        except BaseException:
            _kill_pool(self.graph)   # a failed run never keeps its pool
            raise

    def _armed(self):
        """Read the arming calls' results once, re-raising their errors,
        and record a dense program's pull block as armed."""
        if self._arming:
            ray.get(self._arming)
            self._arming = []
            if self._cold:
                self._pool["pulls"].add(self.program.mode)

    def _launch(self, steps, s: int, g, prev, max_supersteps: int):
        """Queue superstep s on every actor, its inboxes the exchange of
        the previous round's sends ``prev`` (None before step 0); ``g``:
        the step's globals, or None to have the actors run the master
        step. Returns (its send refs, its meta refs, its checkpoint dir
        or None)."""
        n, P = self._n_out, self.graph.P
        if prev is None:
            inboxes = [()] * P
        elif self.dense:     # every partition gets the other P-1 chunks
            chunks = [o[0] for o in prev]
            inboxes = [chunks[:q] + chunks[q + 1:] for q in range(P)]
        else:                # one payload per (sender, destination) pair
            inboxes = [[o[q] for o in prev] for q in range(P)]
        ckpt = (self.ckpt_dir if self.ckpt_every and
                s % self.ckpt_every == 0 else None)
        outs = [step.remote(s, g, ckpt, max_supersteps - 1 - s, *inbox)
                for step, inbox in zip(steps, inboxes)]
        return [o[:n] for o in outs], [o[n] for o in outs], ckpt

    def _run(self, max_supersteps: int, resume: bool) -> BSPResult:
        self._run_max_supersteps = max_supersteps
        # ckpt step -> manifest data awaiting durability; whether a
        # step's metas came back
        self._pending, self._stepped = {}, False
        n = self._n_out
        history, aggs, prev = [], {}, None
        s, g = 0, self.program.master_init(self.graph)
        found = self.latest_checkpoint() if resume else None
        if found:
            s_ck, man = found
            self._check_resume_horizon(man, max_supersteps)
            self._armed()
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
            prev = [o[:n] for o in outs]
            s = s_ck + 1
            self._truncate_metrics(s_ck)

        steps = [a.superstep.options(num_returns=n + 1)
                 for a in self.actors]
        # WINDOW steps in flight: the driver reads step s's metas (for
        # the history, the manifests and its own copy of the master
        # step) while step s+1 is queued. Only the run's first step gets
        # its globals from here; the actors compute every later step's.
        first, nxt, window = s, s, collections.deque()
        t_read = time.monotonic()
        while s < max_supersteps:
            while nxt < max_supersteps and len(window) < WINDOW:
                prev, meta_refs, ckpt = self._launch(
                    steps, nxt, g if nxt == first else None, prev,
                    max_supersteps)
                window.append((meta_refs, ckpt))
                nxt += 1
            self._armed()
            meta_refs, ckpt = window.popleft()
            metas = ray.get(meta_refs)
            self._stepped = True
            # the step's wall as the driver sees it: from the previous
            # step's metas (the run's first step: its launch) to its own
            now = time.monotonic()
            wall, t_read = now - t_read, now
            aggs = _reduce_aggs([m["aggs"] for m in metas])
            msg_total = sum(m["msgs_out"] for m in metas)
            cont, g = self.program.master(s, aggs, msg_total, self.graph.V,
                                          g)
            done = (not cont) or msg_total == 0 or s == max_supersteps - 1
            history.append({
                "step": s, "wall_s": wall, "msgs": msg_total,
                "aggs": dict(aggs),
                "actor_compute_s": max(m["compute_s"] for m in metas),
                "actor_ckpt_s": max(m["ckpt_s"] for m in metas),
                "actor_route_s": max(m["route_s"] for m in metas),
                "actor_wall_max_s": max(m["wall_s"] for m in metas),
                "actor_wall_median_s": float(np.median(
                    [m["wall_s"] for m in metas])),
                "actor_wall_sum_s": sum(m["wall_s"] for m in metas),
                "msgs_in_max": max(m["msgs_in"] for m in metas),
                "msgs_in_median": float(np.median(
                    [m["msgs_in"] for m in metas])),
                # the writer's time for the writes completed since the
                # last step (the lag-1 infos riding in these metas)
                "ckpt_write_s": max((m["checkpoint"]["write_s"]
                                     for m in metas if m["checkpoint"]),
                                    default=0.0),
            })
            if ckpt:
                # these metas carry the completed writes of the last
                # checkpointed step before s: its manifest commits now,
                # while step s+1 runs
                self._commit_completed([m["checkpoint"] for m in metas])
                self._stash_pending(s, g, aggs, metas, wall, done)
            s += 1
            if done:
                break
        return self._finish(s, aggs, history)

    def _finish(self, supersteps, aggs, history) -> BSPResult:
        """Collect per-partition output tables and flush in-flight
        checkpoint writes (committing their manifests). The output calls
        queue behind the step launched past the halt, a no-op. The pool
        stays with the graph; the outputs are computed before returning,
        so they outlive a pool that goes with its Graph."""
        refs = [a.output_table.remote() for a in self.actors]
        ray.wait(refs, num_returns=len(refs))
        if self.ckpt_dir and self._pending:
            infos = ray.get([a.flush_checkpoint.remote()
                             for a in self.actors])
            self._commit_completed(infos)
        return BSPResult(refs, supersteps, aggs, history)


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
