"""spherewave benchmark: one workload, one run, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-coeff --seed 1 --seconds 10 --trace 0

It runs the workload's closed loop in a fresh worker process (worker.py),
checks every output against the closed-form oracles in oracle.py, and checks
that a repeated operation wrote byte-identical files.  It prints each metric
by name with its unit, and as the last line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  Times are medians of wall times taken to a nominal
machine speed, net of stolen CPU time (worker.MachineClock); the medians of
the plain wall times are printed and recorded beside them.  An operation is one CLI command plus its oracle check.
The full record, with the output hashes of every operation and the machine
context, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
from workloads import LAYER_PREDICTIONS, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_worker(argv: list[str]) -> int:
    """Runs the worker in its own process group; on timeout, kills the whole group.

    The group holds the worker's own children too: its speed-reference
    helper and any cold-start interpreter still running.
    """
    worker = subprocess.Popen(argv, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        return worker.wait(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise


def machine_context() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def check_ops(workload, ops) -> tuple[int, dict[str, list[str]]]:
    """Oracle-check every command's output; a repeat must match the warm-up's hashes.

    Returns the number of commands and, for each failed one, what went wrong.
    """
    attempted = 0
    failures = {}
    warmup = next(op for op in ops if op["label"] == "warmup")  # the first one
    for op in ops:
        for cmd, res in zip(workload.commands, op["commands"]):
            attempted += 1
            if res["rc"] != 0:
                found = [f"exit code {res['rc']}"]
            else:
                found = oracle.check(cmd.check, cmd.params, res["outdir"])
            if op["label"] == "repeat":
                if res["hashes"] != warmup["commands"][res["command"]]["hashes"]:
                    found.append("outputs differ from the same operation earlier in the run")
            if found:
                failures[f"op {op['index']} ({op['label']}) command {res['command']}"] = found
    return attempted, failures


def end_to_end(workload, record) -> dict[str, float]:
    """Medians over the timed operations and cold starts, at nominal machine speed."""
    wall = statistics.median(op["time_s"] for op in record["ops"] if op["label"] == "timed")
    return {
        "wall_s": wall,
        "samples_per_s": sum(c.samples for c in workload.commands) / wall,
        "steps_per_s": sum(c.steps for c in workload.commands) / wall,
        "setup_s": statistics.median(c["time_s"] for c in record["cold_starts"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def wall_medians(record) -> dict[str, float]:
    """The same medians of plain wall times, at whatever speed the machine ran."""
    out = {"wall_s": statistics.median(op["wall_s"] for op in record["ops"]
                                       if op["label"] == "timed")}
    if record.get("cold_starts"):
        out["setup_s"] = statistics.median(c["wall_s"] for c in record["cold_starts"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spherewave", "cli.py")):
        return fail(f"no spherewave sources under {root}/src; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results_dir = os.path.join(BENCH_DIR, "results")
    workdir = os.path.join(results_dir, f"work-{os.getpid()}")
    record_path = os.path.join(workdir, "record.json")
    os.makedirs(workdir, exist_ok=True)
    try:
        returncode = run_worker(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--record", record_path])
        if returncode != 0:
            return fail(f"worker exited with code {returncode}")
        with open(record_path) as fh:
            record = json.load(fh)
        attempted, failures = check_ops(workload, record["ops"])
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    if args.trace:
        measured = record["layer_metrics"]
    else:
        measured = end_to_end(workload, record)
    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]}
               for m in wanted}

    for where, found in failures.items():
        print(f"FAIL {where}: {'; '.join(found)}", file=sys.stderr)
    for missing in record.get("missing_probes", []):
        print(f"missing layer probe: {missing}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if not args.trace:
        for name, value in wall_medians(record).items():
            print(f"{args.workload} {name} as plain wall time = {value} s")
    print(f"{args.workload} error_rate = {failed / attempted} ({failed}/{attempted})")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_shares"].items())
        print(f"{args.workload} layer shares of traced self time: {shares}")

    ops = record["ops"]
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({
            "workload": args.workload,
            "why": next((w["why"] for w in spec["workloads"]
                         if w["name"] == args.workload), None),
            "heavy_layers": workload.heavy_layers,
            "layer_predictions": LAYER_PREDICTIONS,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "context": machine_context(),
            "metrics": metrics,
            "error_rate": failed / attempted,
            "cold_starts": record.get("cold_starts"),
            "plain_wall_time": None if args.trace else wall_medians(record),

            "failures": failures,
            "missing_probes": record.get("missing_probes", []),
            "layer_shares": record.get("layer_shares"),
            # output hashes per operation, for comparing a refactor with its parent
            "ops": [{"label": op["label"], "seed": op["seed"], "wall_s": op["wall_s"],
                     "time_s": op["time_s"], "hashes": [c["hashes"] for c in op["commands"]]} for op in ops],
        }, fh, indent=1)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
