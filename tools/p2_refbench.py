"""Measure the 1D frontier exchange's driver-side overhead at high P.

VERDICT r4 item 5/7: the 1D superstep creates O(P^2) object refs per
step on the driver (each of P actors returns P message refs and
receives P inbox refs), and so do sparse / frontier programs (WCC
tail, kcore, rings); from ``engine.RELAY_MIN_P`` they go through the
pod relay. The dense pull makes only P objects per step (each of P
actors takes all P value refs) and stays direct; this tool does not
measure it. This tool quantifies that cost on the host it
runs on with a constant-traffic ping
program (every vertex sends one tiny message per step, so actor compute
is negligible and the per-step wall is dominated by exchange plumbing),
at P = 32 / 128 / 256 / 512 with fractional-CPU actors.

driver_share = 1 - actor_wall_max / step_wall: the fraction of a step
the driver spends creating/routing refs and collecting metas rather
than waiting on the slowest actor.

Usage: python tools/p2_refbench.py [--parts 32,128,256,512] [--steps 6]
Writes one JSON line; paste the summary into BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ray_linkgraph.engine import BSPEngine, VertexProgram  # noqa: E402
from ray_linkgraph.synth import build_synthetic_graph  # noqa: E402


class PingProgram(VertexProgram):
    """Every vertex sends its id to (id+1) mod V each step — constant
    O(V) message volume, near-zero compute: isolates exchange cost."""

    combiner = "min"
    mode = "out"

    def __init__(self, max_steps: int):
        self.max_steps = max_steps

    def init(self, ctx, g):
        return {"val": np.zeros(ctx.size, dtype=np.int64)}

    def _send(self, ctx):
        vids = ctx.vids()
        dst = (vids + 1) % ctx.meta["V"]
        return dst, {"val": vids}, {}

    def compute0(self, ctx, state, g):
        return self._send(ctx)

    def compute(self, ctx, state, inbox, g, s):
        state["val"] = inbox.min
        return self._send(ctx)

    def rescatter(self, ctx, state, g, s):
        d, m, _ = self._send(ctx)
        return d, m

    def master(self, s, aggs, msg_total, graph, g):
        return (s + 1 < self.max_steps, g)

    def output(self, ctx, state):
        return {"val": state["val"]}


def run_level(P: int, steps: int, verts_per_part: int) -> dict:
    g = build_synthetic_graph(f"/tmp/p2bench/g_p{P}", V=P * verts_per_part,
                              avg_deg=2, n_parts=P)
    prog = PingProgram(steps)
    t0 = time.monotonic()
    eng = BSPEngine(g, prog)
    spawn_s = time.monotonic() - t0
    res = eng.run(max_supersteps=steps)
    walls = [h["wall_s"] for h in res.history[1:]]  # skip warmup step 0
    amax = [h["actor_wall_max_s"] for h in res.history[1:]]
    med_wall = float(np.median(walls))
    med_amax = float(np.median(amax))
    return {
        "P": P,
        "refs_per_step": P * P,
        "spawn_s": round(spawn_s, 3),
        "median_step_wall_s": round(med_wall, 4),
        "median_actor_wall_max_s": round(med_amax, 4),
        "driver_share": round(1 - med_amax / med_wall, 3) if med_wall else 0,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parts", default="32,128,256,512")
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--verts-per-part", type=int, default=1024)
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    levels = [run_level(int(p), args.steps, args.verts_per_part)
              for p in args.parts.split(",")]
    print(json.dumps({"metric": "p2_refbench", "levels": levels}))
    ray.shutdown()


if __name__ == "__main__":
    main()
