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
from ray_linkgraph.algorithms import SsspProgram, lpa, pagerank, sssp, wcc

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


@pytest.mark.parametrize("name,col", [("wcc", "component"),
                                      ("lpa", "label")])
def test_per_edge_exchange_checkpoint_resumes(graph, work_dir, name, col):
    """WCC and LPA checkpoints written when both programs still sent one
    message per edge (``tests/data/per_edge_ckpt``: this module's graph,
    cut after WCC step 1 and LPA step 4, with the uninterrupted run's
    output) resume on the dense pull to that output, byte for byte: the
    state columns are unchanged."""
    src = os.path.join(os.path.dirname(__file__), "data", "per_edge_ckpt",
                       name)
    ck = os.path.join(work_dir, f"ck_per_edge_{name}")
    shutil.copytree(src, ck)
    run = {"wcc": wcc, "lpa": lpa}[name]
    res = run(graph, checkpoint_dir=ck, resume=True)
    assert res.history[0]["step"] == {"wcc": 2, "lpa": 5}[name]
    resumed = res.to_arrow().sort_by("v_id")
    want = pq.read_table(os.path.join(src, "expected.parquet"))
    assert resumed.column("v_id").equals(want.column("v_id"))
    assert resumed.column(col).to_numpy().tobytes() == \
        want.column(col).to_numpy().tobytes()
    full = run(graph).to_arrow().sort_by("v_id")
    assert full.column(col).equals(want.column(col))


def test_manifest_lineage_and_metrics(graph, work_dir):
    ck = os.path.join(work_dir, "ck_lineage")
    res = pagerank(graph, max_supersteps=5, checkpoint_dir=ck)
    # each step's row carries the writer time of the writes completed
    # since the last step (lag-1: none yet at step 0)
    writes = [h["ckpt_write_s"] for h in res.history]
    assert writes[0] == 0.0 and all(w > 0 for w in writes[1:])
    mans = sorted(glob.glob(os.path.join(ck, "manifest_*.json")))
    assert len(mans) == 5
    with open(mans[2]) as f:
        m = json.load(f)
    assert set(m["parts"].keys()) == {str(p) for p in range(graph.P)}
    for p, info in m["parts"].items():
        assert os.path.exists(info["file"])
        assert len(info["checksum"]) == 16
        assert info["msgs_out"] >= 0
        assert info["write_s"] > 0
        assert info["bytes"] == os.path.getsize(info["file"]) > 0
    metrics = [json.loads(l) for l in
               open(os.path.join(ck, "metrics.jsonl"))]
    assert [m["step"] for m in metrics] == list(range(5))
    assert all("wall_s" in m and "aggs" in m for m in metrics)


def test_state_checksum_pinned():
    """The checkpoint checksum of a fixed multi-array state (float64,
    int64, bool and an odd byte length) keeps its value, so manifests
    written by earlier versions still verify."""
    state = {"rank": np.linspace(0, 1, 1001),
             "ids": np.arange(-5, 995, dtype=np.int64) * 7919,
             "active": np.arange(1003) % 3 == 0,
             "tail": np.frombuffer(b"odd-length!", dtype=np.uint8)}
    assert engine._state_checksum(state) == "720b3d840056e763"
    assert engine._state_checksum({}) == "5851f42d4c957f2d"
    assert engine._state_checksum({"e": np.zeros(0)}) == "b1ec917c461a6674"


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
    bit-identical to the direct exchange on a frontier program (SSSP's
    1D min; WCC and LPA take the dense pull), and a crash-cut resume
    flows through the relayed rescatter path."""
    def dist(res):
        return res.to_arrow().to_pandas() \
            .sort_values("v_id")["distance"].to_numpy()

    direct = dist(sssp(graph, [0, 5]))
    assert (direct > 1).any()
    monkeypatch.setattr(engine, "RELAY_MIN_P", 2)   # force relay at P=4
    assert engine.BSPEngine(graph, SsspProgram([0, 5])).relay is not None
    assert direct.tobytes() == dist(sssp(graph, [0, 5])).tobytes()

    ck = os.path.join(work_dir, "ck_sssp_relay")
    sssp(graph, [0, 5], checkpoint_dir=ck)
    _truncate(ck, 1)
    resumed = sssp(graph, [0, 5], checkpoint_dir=ck, resume=True)
    assert resumed.history[0]["step"] == 2
    assert direct.tobytes() == dist(resumed).tobytes()


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
    fails the run instead of silently stopping manifest commits, and the
    graph still serves later runs."""
    ck = os.path.join(work_dir, "ck_pr_write_fail")
    os.makedirs(os.path.join(ck, "step_00002", "part_00001.parquet"))
    with pytest.raises(OSError, match="part_00001.parquet"):
        pagerank(graph, max_supersteps=10, checkpoint_dir=ck)
    assert not os.path.exists(os.path.join(ck, "manifest_00002.json"))
    # the failed run dropped the graph's pool; the next run starts a new one
    res = pagerank(graph, l1_threshold=0.0, max_supersteps=10)
    assert res.supersteps == 10 and res.to_arrow().num_rows == graph.V


def test_failed_final_checkpoint_flush_raises(graph, work_dir):
    """A failed write of the last step surfaces from the final
    ``flush_checkpoint``: the run raises, commits no manifest for that
    step and drops the graph's pool."""
    ck = os.path.join(work_dir, "ck_pr_flush_fail")
    os.makedirs(os.path.join(ck, "step_00009", "part_00001.parquet"))
    with pytest.raises(OSError, match="part_00001.parquet"):
        pagerank(graph, l1_threshold=0.0, max_supersteps=10,
                 checkpoint_dir=ck)
    assert os.path.exists(os.path.join(ck, "manifest_00008.json"))
    assert not os.path.exists(os.path.join(ck, "manifest_00009.json"))
    assert graph not in engine._POOLS


def test_checkpoint_files_plain_encoded(graph, work_dir):
    """Checkpoint parquet is written without a dictionary page, for
    float (PageRank) and integer (WCC) state alike."""
    for name, run in (("pr", pagerank), ("wcc", wcc)):
        ck = os.path.join(work_dir, f"ck_plain_{name}")
        run(graph, max_supersteps=3, checkpoint_dir=ck)
        path = os.path.join(ck, "step_00001", "part_00000.parquet")
        meta = pq.ParquetFile(path).metadata
        assert meta.num_rows > 0
        for i in range(meta.num_columns):
            enc = meta.row_group(0).column(i).encodings
            assert "PLAIN" in enc
            assert not {"PLAIN_DICTIONARY", "RLE_DICTIONARY"} & set(enc)


def test_dictionary_encoded_checkpoint_resumes(graph, work_dir):
    """Part files written with parquet's default dictionary encoding (the
    format of earlier checkpoints) restore bit-identically."""
    ck_a = os.path.join(work_dir, "ck_pr_dict_full")
    full = pagerank(graph, max_supersteps=10, checkpoint_dir=ck_a)
    ck_b = os.path.join(work_dir, "ck_pr_dict_cut")
    pagerank(graph, max_supersteps=10, checkpoint_dir=ck_b)
    _truncate(ck_b, 3)
    for path in glob.glob(os.path.join(ck_b, "step_00003", "*.parquet")):
        pq.write_table(pq.read_table(path), path, compression="none")
        enc = pq.ParquetFile(path).metadata.row_group(0).column(0).encodings
        assert "RLE_DICTIONARY" in enc
    resumed = pagerank(graph, max_supersteps=10, checkpoint_dir=ck_b,
                       resume=True)
    assert resumed.supersteps == full.supersteps
    a = full.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()
    b = resumed.to_arrow().to_pandas().sort_values("v_id")["rank"].to_numpy()
    assert (a == b).all()


def test_louvain_resume_inside_level_two(graph, work_dir):
    """A two-level Louvain run cut inside level 2 (after its start step,
    and after a total step whose outgoing rows live in the state)
    resumes to the uninterrupted run's labels; a different horizon is
    refused."""
    from ray_linkgraph.algorithms.louvain import LouvainProgram
    from ray_linkgraph.engine import run_program

    def run(ck=None, resume=False, steps=62):
        return run_program(graph, LouvainProgram(2, 10), max_supersteps=steps,
                           checkpoint_dir=ck, resume=resume)

    def labels(res):
        return res.to_arrow().sort_by("v_id")["community"].to_pylist()

    full = run()
    ck = os.path.join(work_dir, "ck_louvain")
    run(ck)
    phase = {}
    for f in glob.glob(os.path.join(ck, "manifest_*.json")):
        with open(f) as fh:
            g = json.load(fh)["globals_next"]
        if g["level"] == 2:
            phase[g["sent"]] = min(phase.get(g["sent"], 99),
                                   int(os.path.basename(f)[9:14]))
    assert {"start", "total"} <= set(phase)
    for i, cut in enumerate((phase["start"], phase["total"])):
        ck_cut = os.path.join(work_dir, f"ck_louvain_cut{i}")
        shutil.copytree(ck, ck_cut)
        _truncate(ck_cut, cut)
        if i == 0:
            with pytest.raises(ValueError, match="max_supersteps"):
                run(ck_cut, resume=True, steps=63)
        res = run(ck_cut, resume=True)
        assert res.supersteps == full.supersteps
        assert labels(res) == labels(full)
