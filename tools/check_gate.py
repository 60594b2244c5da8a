"""Local simulation of the driver's correctness gate: run every
queries() entry and its oracle_sql() side by side, compare row count,
column names, and order-insensitive values (exact on ints/strings,
bit-exact on the rounded floats both sides emit).

Usage: python tools/check_gate.py [sf_dir] [--only a,b] [--reps N]

``--only`` runs just the named queries; ``--reps N`` (N >= 2) runs each
query N times in one Ray runtime and prints every rep's seconds and
the median of the warm reps (all but the first). The first rep's result
is the one checked.
"""

import argparse
import logging
import os
import sys

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.001")
    ap.add_argument("--only", default=None,
                    help="comma-separated query names (default: all)")
    ap.add_argument("--reps", type=int, default=1)
    args = ap.parse_args()
    sf_dir = args.sf_dir
    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod
    qs, oracles = entrymod.queries(), entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE OR REPLACE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    if args.only:
        names = args.only.split(",")
        unknown = [n for n in names if n not in qs]
        if unknown:
            sys.exit(f"unknown queries: {unknown}")
        qs = {n: qs[n] for n in names}

    failures = 0
    for name, fn in qs.items():
        import time
        t0 = time.time()
        try:
            res = to_df(fn(sf_dir))
            secs = [time.time() - t0]
            for _ in range(args.reps - 1):
                t1 = time.time()
                to_df(fn(sf_dir))
                secs.append(time.time() - t1)
            mine = canon(res)
            if args.reps > 1:
                print(f"time  {name}: reps " +
                      " ".join(f"{x:.3f}" for x in secs) +
                      f" s; warm median {np.median(secs[1:]):.3f} s")
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok    {name}: rows-only ({len(mine)} rows, "
                  f"{time.time()-t0:.1f}s) cols={list(mine.columns)}")
            continue
        try:
            theirs = canon(con.execute(oracles[name]).fetchdf())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            failures += 1
            continue
        status = []
        if len(mine) != len(theirs):
            status.append(f"rowcount {len(mine)} != {len(theirs)}")
        if list(mine.columns) != list(theirs.columns):
            status.append(f"cols {list(mine.columns)} != "
                          f"{list(theirs.columns)}")
        if not status:
            for c in mine.columns:
                a, b = mine[c].to_numpy(), theirs[c].to_numpy()
                # the driver hashes typed values: an int64 engine column vs
                # a HUGEINT->float64 oracle column mismatches even when every
                # value is equal (round-2 links_k4) — flag dtype drift hard
                if a.dtype != b.dtype:
                    status.append(f"col {c} dtype {a.dtype} != {b.dtype}")
                    continue
                if a.dtype.kind == "f" or b.dtype.kind == "f":
                    same = np.array_equal(a.astype(np.float64),
                                          b.astype(np.float64))
                else:
                    same = list(a) == list(b)
                if not same:
                    bad = (a != b) if len(a) == len(b) else None
                    ex = ""
                    if bad is not None and bad.any():
                        i = int(np.flatnonzero(bad)[0])
                        ex = f" e.g. row {i}: {a[i]!r} vs {b[i]!r}"
                    status.append(f"col {c} values differ{ex}")
        if status:
            print(f"FAIL  {name}: {'; '.join(status)}")
            failures += 1
        else:
            print(f"OK    {name}: {len(mine)} rows match "
                  f"({time.time()-t0:.1f}s)")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
