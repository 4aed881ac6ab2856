#!/usr/bin/env python3
"""Record reference digests and exact counts in ``bench/reference.json``.

    python3 bench/record.py --seeds 0 1 2 3 4 5 6 7 8 9 10
    python3 bench/record.py --smoke --seeds 7

Each seeded workload runs once per seed; its data files must pass
``oracle.py`` before their digests are stored.  The exact counts (every
``.calls``, ``insertion.heckeshape.letters``, ``insertion.post_staircase_frac``
and ``cli.bytes_written``) come from one ``--trace 1`` run per workload at
the default seed, ``run.SEED``.  Record only at a commit whose outputs are known to be
right: a change that claims a speed-up leaves this file alone, because its
outputs must match the parent's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full"
    reference = run.load_reference()
    no_deadline = time.monotonic() + 10**6

    for name in run.WORKLOADS:
        for seed in args.seeds:
            spec = run.workload_spec(name, seed, args.smoke)
            if not spec.seeded:
                break
            workdir = run.WORK / name
            rep = run.run_cli(spec, run.THREADS, workdir, no_deadline)
            problems = [rep.problem] if rep.problem else run.oracle_problems(spec, workdir)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference["digests"][mode].setdefault(name, {})[str(seed)] = rep.digests
            print(f"{name} seed {seed}: {rep.digests}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    for name in run.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(run.SEED), "--seconds", "0", "--trace", "1"]
        subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True,
                       stdout=subprocess.DEVNULL)
        result_path = run.WORK / f"result-{name}-{mode}-seed{run.SEED}-trace1.json"
        result = json.loads(result_path.read_text())
        if not result["result"]["correct"]:
            print(f"{name}: traced run failed: {result['problems']}", file=sys.stderr)
            return 1
        metrics = {k: m["value"] for k, m in result["result"]["metrics"].items()}
        key = str(run.SEED) if run.workload_spec(name, 0, args.smoke).seeded else "-"
        reference["counts"][mode].setdefault(name, {})[key] = run.exact_counts(metrics)
        print(f"{name}: counts recorded")

    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
