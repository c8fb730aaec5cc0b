"""Run a benchmark workload through the ``paretofair`` CLI and print its metrics.

    python3 bench/run.py --workload pf_train --seed 0 --seconds 30 --trace 0

Every CLI call goes through ``paretofair.cli.main`` inside this one process,
on the package under ``src/`` of this checkout. The last line printed is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``. ``--workload all`` runs every workload in turn, each in a
child process of its own, so that each reports its own peak memory. See
bench/README.md for the workloads, the metrics and the layer map.
"""

import os

# The BLAS and OpenMP thread pools are sized when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is timed this many times before every rep, so that its median covers
# the same stretch of time as the reps.
SETUP_PER_REP = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_package():
    """Import ``paretofair`` afresh from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "paretofair" or k.startswith("paretofair.")]:
        del sys.modules[key]
    pf = importlib.import_module("paretofair")
    importlib.import_module("paretofair.cli")
    return pf


def setup(workload, inputs, seed, times):
    """Import the package and write the inputs, ``SETUP_PER_REP`` times; returns the package.

    Each duration is appended to ``times``.
    """
    for _ in range(SETUP_PER_REP):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        pf = import_package()
        workload.write_inputs(pf, inputs, seed)
        times.append(time.perf_counter() - t0)
    if not Path(pf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"paretofair was imported from {pf.__file__}, not from {SRC}")
    return pf


class Rep:
    """One execution of a workload's CLI calls."""

    def __init__(self, pf, steps, tracer=None):
        self.tracer = tracer
        self.rcs = []
        self.stderr = []
        if tracer is not None:
            tracer.install(pf)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            for _step, argv in steps:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    try:
                        rc = pf.cli.main(argv)
                    except SystemExit as exc:  # argparse rejects the arguments
                        rc = exc.code if isinstance(exc.code, int) else 1
                self.rcs.append(rc)
                self.stderr.append(err.getvalue().strip())
            self.wall, self.cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()


def hash_outputs(workload, out):
    from workloads import sha256

    return {
        step: {f: (sha256(out / f) if (out / f).is_file() else None) for f in files}
        for step, files in workload.outputs.items()
    }


def load_references(workload, seed):
    path = BENCH / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    return refs.get(workload.name, {}).get(str(seed), {})


def measure(workload, seed, seconds, trace, work_root=WORK):
    """Set up, run the workload until ``seconds`` are used, check it; returns a result dict."""
    from tracer import Tracer

    work = work_root / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    setup_times, reps, pf = [], [], None

    def run_rep(traced, warmup=False):
        nonlocal pf
        pf = setup(workload, inputs, seed, setup_times)
        out = work / f"rep{len(reps) + 1}"
        out.mkdir()
        rep = Rep(pf, workload.steps(inputs, out, seed), Tracer() if traced else None)
        rep.warmup = warmup
        rep.hashes = hash_outputs(workload, out)
        if reps:
            shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)

    # The first rep of a process runs cold (first-touch memory, caches). With
    # tracing it is a warm-up left out of the overhead, which then compares a
    # traced rep with the warm untraced rep that follows it.
    units, t_start = 0, time.perf_counter()
    if trace:
        run_rep(False, warmup=True)
    while True:
        for traced in (True, False) if trace else (False,):
            run_rep(traced)
        units += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / units > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = work / "rep1"
    problems, quality = workload.check(pf, inputs, checked, seed)
    attempted = failed = 0
    for rep in reps:
        for (step, _argv), rc in zip(workload.steps(inputs, checked, seed), rep.rcs):
            attempted += 1
            same = rep.hashes[step] == reps[0].hashes[step]
            if rc != 0 or problems[step] or not same:
                failed += 1
                if not same:
                    problems[step].append("outputs differ between reruns of the same inputs")

    refs = load_references(workload, seed)
    produced = {f: h for files in reps[0].hashes.values() for f, h in files.items()}
    ref_hashes = refs.get("hashes")
    result = {
        "workload": workload.name,
        "seed": seed,
        "reps": len(reps),
        "rep_walls": [r.wall for r in reps],
        "problems": {step: list(p) for step, p in problems.items() if p},
        "stderr": sorted({e for rep in reps for e in rep.stderr if e}),
        "attempted": attempted,
        "failed": failed,
        "hashes": produced,
        # None when references.json has no entry for this seed
        "differing_outputs": None if ref_hashes is None else sorted(
            f for f in set(ref_hashes) | set(produced) if produced.get(f) != ref_hashes.get(f)
        ),
        "quality": quality,
    }
    untraced = [r for r in reps if r.tracer is None]
    result["end_to_end"] = {
        "wall_s": statistics.median(r.wall for r in untraced),
        "cpu_s": statistics.median(r.cpu for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }

    if trace:
        result.update(layer_metrics(workload, reps, checked, refs))
        result["layer"].update(quality)
        traced = [r for r in reps if r.tracer is not None]
        header = {"workload": workload.name, "seed": seed, "env": environment()}
        traced[-1].tracer.write(work / "spans.jsonl", header)
    return result


def layer_metrics(workload, reps, checked, refs):
    traced = [r for r in reps if r.tracer is not None]
    untraced = [r for r in reps if r.tracer is None and not r.warmup]
    summaries = [r.tracer.summary() for r in traced]
    names = sorted({k for s in summaries for k in s})
    layer = {k: statistics.median(s.get(k, 0) for s in summaries) for k in names}
    counts = {k: v for k, v in summaries[0].items() if not k.endswith("self_s")}
    outer = layer.get("adaptive.outer_iters", 0)
    layer["adaptive.accept_ratio"] = layer.get("adaptive.accepted", 0) / outer if outer else 0.0
    layer["cli.self_s"] = statistics.median(r.wall - r.tracer.top_level_seconds() for r in traced)
    layer["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
        r.wall for r in untraced
    )
    try:
        cross = workload.cross_check(counts, checked)
    except (OSError, ValueError) as exc:
        cross = [f"cannot read the outputs: {exc}"]
    ref_counts = refs.get("counts")
    count_diff = None
    if ref_counts is not None:
        count_diff = [
            f"{k}: {counts.get(k, 0)} vs reference {ref_counts.get(k, 0)}"
            for k in sorted(set(ref_counts) | set(counts))
            if counts.get(k, 0) != ref_counts.get(k, 0)
        ]
    layer["trace.cross_check_mismatches"] = len(cross)
    return {"layer": layer, "counts": counts, "cross_check": cross, "count_diff": count_diff}


def report(result, trace, specs):
    """Human-readable lines, then the result as one JSON object on the last line."""
    end_to_end, per_layer = specs
    values, chosen = (result["layer"], per_layer) if trace else (result["end_to_end"], end_to_end)
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    print(f"# {result['workload']} seed {result['seed']}: {result['reps']} reps, "
          f"{result['failed']} of {result['attempted']} CLI calls failed "
          f"(error_rate {result['failed'] / result['attempted']:.4f})")
    print("#   rep wall times (s): " + " ".join(f"{w:.3f}" for w in result["rep_walls"]))
    for step, msgs in result["problems"].items():
        for msg in msgs[:10]:
            print(f"#   check failed [{step}] {msg}")
    for msg in result["stderr"]:
        print(f"#   stderr: {msg}")
    for msg in result.get("cross_check", []):
        print(f"#   trace cross-check mismatch: {msg}")
    if result["differing_outputs"] is None:
        print(f"#   no reference recorded for seed {result['seed']}: outputs and work counts not compared")
    else:
        differing = result["differing_outputs"]
        print(f"#   outputs identical to reference: {'no, ' + ', '.join(differing) + ' differ' if differing else 'yes'}")
        if result.get("count_diff") is not None:
            for msg in result["count_diff"]:
                print(f"#   work count differs from reference: {msg}")
            print(f"#   work counts identical to reference: {'no' if result['count_diff'] else 'yes'}")
    for name, value in result["quality"].items():
        print(f"#   {name} = {value:.6f} {units[name]}")
    metrics = {}
    for m in chosen:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"#   {m['name']:40s} {metrics[m['name']]['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def run_each(workloads, args):
    """Run every workload in a child process of its own; returns the worst exit code."""
    codes = []
    for name in workloads:
        sys.stdout.flush()
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run([sys.executable, str(Path(__file__).resolve())] + argv).returncode)
    return max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "paretofair" / "__init__.py").is_file():
            raise BenchError(f"no paretofair package under {SRC}")
        specs = metric_specs()
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        if args.workload == "all":
            return run_each(WORKLOADS, args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        print("# env " + json.dumps(environment()))
        report(measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace), args.trace, specs)
    except (BenchError, OSError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
