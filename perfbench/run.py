"""Benchmark of dwsurf through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload compute_large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                # every workload, untraced and traced

Workloads and pinned values are in ``cases.py``.  With ``--trace 0`` the
process reports the end-to-end metrics, each a median over passes (set-up is
sampled in this process and in fresh ones).  With ``--trace 1`` it reports
per-layer metrics from a traced run and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and the raw samples.  The exit code is 0 only when every case
matched its pinned value and every exact count repeated.

The library is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 1 and prints no result.
"""

import os

# Fixed before numpy is first imported, here and in every set-up probe.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from cases import OMITTED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3       # untraced passes per run, however long they take
SETUP_PROBES = 4     # fresh processes that time the set-up, besides this one


def timed_setup(workload: str):
    """Import the library and build the workload's inputs; returns
    (harness module, cases, seconds).  Imports are part of set-up."""
    start = time.perf_counter()
    import dwsurf
    if Path(dwsurf.__file__).resolve().parent != SRC / "dwsurf":
        sys.exit(f"perfbench: dwsurf was imported from {dwsurf.__file__}, not from {SRC}")
    import harness
    cases = harness.build(WORKLOADS[workload])
    return harness, cases, time.perf_counter() - start


def probe_setup(workload: str, n: int) -> list:
    """Set-up seconds measured in ``n`` fresh processes, one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--setup-probe"], capture_output=True, text=True,
                              timeout=170, check=True, cwd=ROOT)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(BLAS_THREADS), "workers": 1, "git_commit": commit}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    harness, cases, setup = timed_setup(workload)
    if trace:
        run = harness.run_traced(WORKLOADS[workload], seed, seconds)
        spans = run.details.pop("spans")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "fields": ["name", "start", "end", "parent", "case", "count"],
                       "repetitions": spans}, fh)
    else:
        samples = [setup] + probe_setup(workload, SETUP_PROBES)
        run = harness.run_untraced(cases, seed, seconds, MIN_PASSES, samples)
    failures = [f"{o.label}: {o.error}" for o in run.outcomes if o.error]
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                      "seconds": seconds, "env": environment(),
                      "fail_ratio": run.failed / run.attempted, "failures": failures[:20],
                      "problems": run.problems, "omitted_inputs": OMITTED, **run.details}))
    result = run.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if not lines:
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
            merged["correct"] &= result["correct"] and proc.returncode == 0
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dwsurf" / "__init__.py").is_file():
        print(f"perfbench: no dwsurf source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload)[2]}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
