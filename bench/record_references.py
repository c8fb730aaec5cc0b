"""Record the reference output hashes and work counts of every workload.

    python3 bench/record_references.py

Runs each workload traced on the reference seeds and rewrites
bench/references.json. Seed 0 is the primary seed and seed 1 the holdout seed.
Record again only when a workload's inputs change: a change to the program that
claims not to change its results must leave the recorded files identical.
"""

import json
import sys

import run

SEEDS = (0, 1)


def main():
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for seed in SEEDS:
            result = run.measure(workload, seed, 0, trace=1)
            if result["failed"] or result["cross_check"]:
                sys.exit(f"{name} seed {seed} failed: {result['problems']} {result['cross_check']}")
            refs[name][str(seed)] = {"hashes": result["hashes"], "counts": result["counts"]}
            print(f"{name} seed {seed}: {len(result['hashes'])} files, {len(result['counts'])} counts")
    (run.BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
