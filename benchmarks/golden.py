#!/usr/bin/env python3
"""Regenerate golden.json: the output record of ops 0..n-1 at the default seed.

    python3 benchmarks/golden.py --ops loop_conv=64,loop_turbo=24,stage_checks=40

Run this only on a commit whose outputs are known good; the benchmark
counts every later op whose error counts differ as failed.
"""

from __future__ import annotations

import argparse
import json

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", required=True,
                        help="comma-separated workload=count pairs")
    args = parser.parse_args()
    wl_mod, _ = run.load_package()
    record = {"seed": run.DEFAULT_SEED, "rtol": wl_mod.GOLDEN_RTOL, "ops": {}}
    for item in args.ops.split(","):
        name, count = item.split("=")
        workload = wl_mod.make(name, run.DEFAULT_SEED)
        ops = []
        for i in range(int(count)):
            summary, error, _, _ = run.run_op(workload, i)
            if error is not None:
                raise SystemExit(f"{name} op {i} failed: {error}")
            problems = workload.invariants(summary)
            if problems:
                raise SystemExit(f"{name} op {i} breaks an invariant: {problems}")
            ops.append(summary)
        record["ops"][name] = ops
        print(f"{name}: {len(ops)} ops", flush=True)
    with open(run.GOLDEN_PATH, "w") as fh:        # one op per line
        fh.write(f'{{"seed": {record["seed"]}, "rtol": {record["rtol"]}, "ops": {{\n')
        fh.write(",\n".join(f'"{name}": [\n' + ",\n".join(json.dumps(op) for op in ops) + "\n]"
                            for name, ops in record["ops"].items()))
        fh.write("\n}}\n")


if __name__ == "__main__":
    main()
