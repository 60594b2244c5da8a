"""Distributed connected components over a sparse pair list.

Used by the near-dup dedup operators to turn verified duplicate PAIRS
into cluster labels (cluster = min doc id of the component) without any
driver-side union-find: iterated min-label propagation where every step
is a Ray Data hash join + a hash-exchange min over the pair graph (which is
sparse by construction — candidates that survived LSH banding and exact
verification). The corpus itself is never touched here.

Convergence detection is O(1) per round: labels only ever decrease, so
``sum(label)`` is strictly monotone and stalls exactly at the fixpoint.

This is the distributed analog of the reference WCC min-propagation
(/root/reference/computer-algorithm/.../community/wcc/Wcc.java:47-72)
specialized to the tiny pair graph; the full BSP engine would be
overkill (it builds a partitioned on-disk graph first).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from .._util import drop_empty_blocks

# Below this many pairs the component computation runs in ONE Ray task
# (numpy min-label with pointer jumping) instead of the iterated
# Dataset join loop: each Dataset round costs seconds of job overhead
# regardless of data size, which dominated the sf0.1 dedup bench. The
# iterative path remains the 100-TB route for genuinely huge pair sets.
CC_SINGLE_TASK_MAX = 5_000_000


@ray.remote
def _cc_local(*tables) -> pa.Table:
    tables = [pa.Table.from_pandas(t, preserve_index=False)
              if not isinstance(t, pa.Table) else t for t in tables]
    tabs = [t.select(["a", "b"]) for t in tables if t.num_rows]
    if not tabs:
        return pa.table({"node": pa.array([], type=pa.int64()),
                         "label": pa.array([], type=pa.int64())})
    t = pa.concat_tables(tabs)
    a = t.column("a").to_numpy()
    b = t.column("b").to_numpy()
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[:len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        m = np.minimum(lab[ia], lab[ib])
        new = lab.copy()
        np.minimum.at(new, ia, m)
        np.minimum.at(new, ib, m)
        new = new[new]               # pointer jumping
        if np.array_equal(new, lab):
            break
        lab = new
    return pa.table({"node": pa.array(nodes, type=pa.int64()),
                     "label": pa.array(nodes[lab], type=pa.int64())})


def connected_components(pairs_ds, max_rounds: int = 50,
                         num_partitions: int = 8):
    """pairs_ds: Dataset(a:int64, b:int64) -> Dataset(node, label) with
    label = min node id of the component. Only nodes appearing in pairs
    are returned (isolated nodes are their own trivial cluster)."""

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table({
            "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
        })

    empty = ray.data.from_arrow(pa.table({
        "node": pa.array([], type=pa.int64()),
        "label": pa.array([], type=pa.int64())}))
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return empty
    if n_pairs <= CC_SINGLE_TASK_MAX:
        refs = []
        for bundle in pairs_ds.iter_internal_ref_bundles():
            refs.extend(r for r, _ in bundle.blocks)
        return ray.data.from_arrow_refs([_cc_local.remote(*refs)])
    from .._util import agg_by_int_keys

    edges = drop_empty_blocks(
        pairs_ds.map_batches(both_dirs, batch_format="pyarrow"))
    if edges is None:
        return empty
    # min-aggregates run through the hash-exchange reduceat combiner
    # (agg_by_int_keys): the native per-group aggregate is O(groups)
    # Python — this path only runs above CC_SINGLE_TASK_MAX pairs,
    # where groups = nodes is large by definition
    labels = drop_empty_blocks(
        agg_by_int_keys(edges, ["src"], "dst", "nmin", reduce="min")
        .map_batches(
            lambda t: pa.table({
                "node": t.column("src"),
                "label": pa.array(np.minimum(t.column("src").to_numpy(),
                                             t.column("nmin").to_numpy()),
                                  type=pa.int64())}),
            batch_format="pyarrow"))
    if labels is None:
        return empty

    prev_sum = None
    for _ in range(max_rounds):
        s = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if prev_sum is not None and s == prev_sum:
            break
        prev_sum = s
        # propagate: each node offers its label to its neighbors
        msgs = edges.join(labels, "inner", num_partitions=num_partitions,
                          on=("src",), right_on=("node",)) \
            .map_batches(
                lambda t: pa.table({"node": t.column("dst"),
                                    "label": t.column("label")}),
                batch_format="pyarrow")
        nxt = drop_empty_blocks(
            agg_by_int_keys(msgs.union(labels), ["node"], "label", "label",
                            reduce="min"))
        if nxt is None:
            break
        labels = nxt
    return labels


class _AssignClusters:
    """Sorted-label lookup over a batch (warm task pool; the label
    arrays ride in the instance — object store once via Ray Data's
    transform put, zero-copy per task)."""

    def __init__(self, keys: np.ndarray, vals: np.ndarray, id_col: str):
        self.keys, self.vals, self.id_col = keys, vals, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        cluster = ids.copy()
        if len(self.keys):
            pos = np.searchsorted(self.keys, ids)
            pos = np.minimum(pos, len(self.keys) - 1)
            hit = self.keys[pos] == ids
            cluster[hit] = self.vals[pos[hit]]
        return pa.table({
            self.id_col: pa.array(ids, type=pa.int64()),
            "cluster": pa.array(cluster, type=pa.int64()),
            "is_duplicate": pa.array(cluster != ids),
        })


def assign_clusters(ds, labels_ds, id_col: str = "doc_id",
                    concurrency=(1, 8)):
    """Attach (cluster, is_duplicate) to every row of ``ds`` by its id.

    The label table is small by construction (only nodes of verified
    duplicate pairs), so it is broadcast inside the serialized stage
    instance (plain tasks — an actor pool whose constructor captures an
    ObjectRef cannot restart after the ref's owner dies, ray#53727);
    the corpus streams, nothing shuffles."""
    import ray
    from ..extract import _task_cap

    lab_tbl = pa.concat_tables(ray.get(labels_ds.to_arrow_refs()))
    keys = lab_tbl.column("node").to_numpy()
    vals = lab_tbl.column("label").to_numpy()
    order = np.argsort(keys, kind="stable")
    return ds.map_batches(_AssignClusters(keys[order], vals[order], id_col),
                          batch_format="pyarrow",
                          concurrency=_task_cap(concurrency))
