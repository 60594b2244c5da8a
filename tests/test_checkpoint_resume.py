"""Checkpoint/resume: killing a run after superstep k and resuming must
reproduce the uninterrupted run bit-for-bit (north_rule: resumable from
checkpoint with per-partition lineage + metrics)."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ray_linkgraph import engine
from ray_linkgraph.pages import pages_table
from ray_linkgraph.extract import extract_links
from ray_linkgraph.graph import build_graph
from ray_linkgraph.algorithms import pagerank, wcc

N = 200


@pytest.fixture(scope="module")
def graph(work_dir):
    t = pages_table(N)
    return build_graph(extract_links(rd.from_arrow(t)),
                       os.path.join(work_dir, "graph_ck"), n_parts=4,
                       extra_url_ds=rd.from_arrow(t.select(["url"])))


def _truncate(ckpt_dir, keep_step):
    """Simulate a crash: drop all checkpoints after keep_step."""
    for f in glob.glob(os.path.join(ckpt_dir, "manifest_*.json")):
        if int(os.path.basename(f)[9:14]) > keep_step:
            os.remove(f)
    for d in glob.glob(os.path.join(ckpt_dir, "step_*")):
        if int(os.path.basename(d)[5:10]) > keep_step:
            shutil.rmtree(d)


@pytest.mark.parametrize("every", [1, 3])
def test_pagerank_resume_bitexact(graph, work_dir, every):
    ck_a = os.path.join(work_dir, f"ck_pr_full_{every}")
    full = pagerank(graph, max_supersteps=40, checkpoint_dir=ck_a,
                    checkpoint_every=every)
    ranks_full = full.to_arrow().to_pandas().sort_values("v_id")["rank"] \
        .to_numpy()

    ck_b = os.path.join(work_dir, f"ck_pr_cut_{every}")
    pagerank(graph, max_supersteps=40, checkpoint_dir=ck_b,
             checkpoint_every=every)
    _truncate(ck_b, 3)
    resumed = pagerank(graph, max_supersteps=40, checkpoint_dir=ck_b,
                       checkpoint_every=every, resume=True)
    ranks_res = resumed.to_arrow().to_pandas().sort_values("v_id")["rank"] \
        .to_numpy()
    assert resumed.supersteps == full.supersteps
    assert (ranks_full == ranks_res).all()  # bit-for-bit


def test_resume_of_finished_run_is_noop(graph, work_dir):
    ck = os.path.join(work_dir, "ck_pr_done")
    full = pagerank(graph, max_supersteps=20, checkpoint_dir=ck)
    again = pagerank(graph, max_supersteps=20, checkpoint_dir=ck, resume=True)
    assert again.supersteps == full.supersteps
    a = full.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()
    b = again.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()
    assert (a == b).all()


@pytest.mark.parametrize("every", [1, 3])
def test_wcc_resume_midfrontier(graph, work_dir, every):
    ck_a = os.path.join(work_dir, f"ck_wcc_full_{every}")
    full = wcc(graph, checkpoint_dir=ck_a, checkpoint_every=every)
    comp_full = full.to_arrow().to_pandas().sort_values("v_id")["component"] \
        .to_numpy()

    ck_b = os.path.join(work_dir, f"ck_wcc_cut_{every}")
    wcc(graph, checkpoint_dir=ck_b, checkpoint_every=every)
    _truncate(ck_b, 1)  # cut mid-frontier
    resumed = wcc(graph, checkpoint_dir=ck_b, checkpoint_every=every,
                  resume=True)
    comp_res = resumed.to_arrow().to_pandas().sort_values("v_id")["component"] \
        .to_numpy()
    assert resumed.supersteps == full.supersteps
    assert (comp_full == comp_res).all()


def test_manifest_lineage_and_metrics(graph, work_dir):
    ck = os.path.join(work_dir, "ck_lineage")
    pagerank(graph, max_supersteps=5, checkpoint_dir=ck)
    mans = sorted(glob.glob(os.path.join(ck, "manifest_*.json")))
    assert len(mans) == 5
    with open(mans[2]) as f:
        m = json.load(f)
    assert set(m["parts"].keys()) == {str(p) for p in range(graph.P)}
    for p, info in m["parts"].items():
        assert os.path.exists(info["file"])
        assert len(info["checksum"]) == 16
        assert info["msgs_out"] >= 0
    metrics = [json.loads(l) for l in
               open(os.path.join(ck, "metrics.jsonl"))]
    assert [m["step"] for m in metrics] == list(range(5))
    assert all("wall_s" in m and "aggs" in m for m in metrics)


def test_closeness_resume_bitexact(graph, work_dir):
    """Map-valued state (several checkpoint array lengths) resumes
    bit-for-bit through the kv_min message path."""
    from ray_linkgraph.algorithms import closeness_centrality
    ck_a = os.path.join(work_dir, "ck_clo_full")
    full = closeness_centrality(graph, max_supersteps=5,
                                checkpoint_dir=ck_a)
    exp = full.to_arrow().to_pandas().sort_values("v_id")
    ck_b = os.path.join(work_dir, "ck_clo_cut")
    closeness_centrality(graph, max_supersteps=5, checkpoint_dir=ck_b)
    _truncate(ck_b, 1)
    res = closeness_centrality(graph, max_supersteps=5,
                               checkpoint_dir=ck_b, resume=True)
    got = res.to_arrow().to_pandas().sort_values("v_id")
    assert (got["closeness"].to_numpy() ==
            exp["closeness"].to_numpy()).all()
    assert (got["reachable"].to_numpy() == exp["reachable"].to_numpy()).all()


def test_rings_resume_bitexact(graph, work_dir):
    """Ragged path-message state (concat combiner) resumes exactly."""
    from ray_linkgraph.algorithms import rings_detection
    ck_a = os.path.join(work_dir, "ck_rings_full")
    full = rings_detection(graph, max_supersteps=5, checkpoint_dir=ck_a)
    exp = full.to_arrow().to_pandas().sort_values("v_id")
    ck_b = os.path.join(work_dir, "ck_rings_cut")
    rings_detection(graph, max_supersteps=5, checkpoint_dir=ck_b)
    _truncate(ck_b, 2)
    res = rings_detection(graph, max_supersteps=5, checkpoint_dir=ck_b,
                          resume=True)
    got = res.to_arrow().to_pandas().sort_values("v_id")
    assert got["ring_count"].tolist() == exp["ring_count"].tolist()
    assert got["rings"].tolist() == exp["rings"].tolist()


def test_resume_refuses_horizon_mismatch(graph, work_dir):
    """Manifests record max_supersteps; resuming under a different
    horizon would silently under/over-compute horizon-gated sends
    (ADVICE.md) and is refused."""
    from ray_linkgraph.algorithms import rings_detection
    ck = os.path.join(work_dir, "ck_rings_horizon")
    rings_detection(graph, max_supersteps=5, checkpoint_dir=ck)
    _truncate(ck, 2)
    with pytest.raises(ValueError, match="max_supersteps"):
        rings_detection(graph, max_supersteps=7, checkpoint_dir=ck,
                        resume=True)
    # same horizon still resumes fine
    rings_detection(graph, max_supersteps=5, checkpoint_dir=ck,
                    resume=True)


def test_relay_exchange_matches_direct_and_resumes(graph, work_dir,
                                                   monkeypatch):
    """Two-level pod relay (the O(P^1.5)-refs 1D exchange, r5) is
    bit-identical to the direct exchange on a frontier program, and a
    crash-cut resume flows through the relayed rescatter path."""
    comp_direct = wcc(graph).to_arrow().to_pandas() \
        .sort_values("v_id")["component"].to_numpy()
    monkeypatch.setattr(engine, "RELAY_MIN_P", 2)   # force relay at P=4
    comp_relay = wcc(graph).to_arrow().to_pandas() \
        .sort_values("v_id")["component"].to_numpy()
    assert (comp_direct == comp_relay).all()

    ck = os.path.join(work_dir, "ck_wcc_relay")
    wcc(graph, checkpoint_dir=ck)
    _truncate(ck, 1)
    resumed = wcc(graph, checkpoint_dir=ck, resume=True)
    comp_res = resumed.to_arrow().to_pandas() \
        .sort_values("v_id")["component"].to_numpy()
    assert (comp_direct == comp_res).all()


def test_resume_refuses_corrupted_checkpoint(graph, work_dir):
    """Resume recomputes each restored part's checksum and refuses a
    part file that no longer matches its manifest."""
    ck = os.path.join(work_dir, "ck_pr_corrupt")
    pagerank(graph, max_supersteps=10, checkpoint_dir=ck)
    _truncate(ck, 3)
    path = os.path.join(ck, "step_00003", "part_00001.parquet")
    rank = pq.read_table(path).column("rank").to_numpy().copy()
    rank[0] += 1e-9
    pq.write_table(pa.table({"rank": rank}), path, compression="none")
    with pytest.raises(ValueError, match="part_00001.parquet does not match"):
        pagerank(graph, max_supersteps=10, checkpoint_dir=ck, resume=True)


def test_failed_checkpoint_write_raises(graph, work_dir):
    """A checkpoint write that fails in the actor's background thread
    fails the run instead of silently stopping manifest commits."""
    ck = os.path.join(work_dir, "ck_pr_write_fail")
    os.makedirs(os.path.join(ck, "step_00002", "part_00001.parquet"))
    with pytest.raises(OSError, match="part_00001.parquet"):
        pagerank(graph, max_supersteps=10, checkpoint_dir=ck)
    assert not os.path.exists(os.path.join(ck, "manifest_00002.json"))
