"""Runs one workload's closed loop in a fresh process and records what it did.

Started by run.py from the root of a checkout; imports spherewave from that
checkout's src/ and drives it only through spherewave.cli.main.  Writes one
JSON record: every operation with its command timings, exit codes and output
hashes, the process's peak RSS, cold-start times, and, with --trace 1, the
per-layer metrics.

Operation order: untimed warm-up operations, then the timed loop (or, with
--trace 1, untraced and traced operations in turn, and one operation run as
configured and again with --threads 1), and finally a repeat of the first
warm-up operation, whose outputs must match it byte for byte.

The warm-up lasts WARMUP_S because the first few operations in a process run
slower while the heap grows; the timed loop measures the steady state after.
On a shared host machine speed drifts over tens of seconds, so cold starts are spread
through the timed loop rather than taken in one burst.

Every timing is kept twice: as wall time, and as the time it would have
taken at a nominal machine speed (see MachineClock).  The metrics use the
latter, the record keeps both.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_TIMED_OPS = 4
WARMUP_S = 2.0
COLD_STARTS = 11
# Cold start: import the package, resolve the config of the workload's first
# command, and print the monotonic clock, which all processes share on Linux.
COLD_START_SNIPPET = ("import sys; sys.path.insert(0, 'src'); from spherewave import cli; "
                      "cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:])); "
                      "import time; print(time.perf_counter())")


class MachineClock:
    """Turns wall times into times at a nominal machine speed.

    On a shared virtual machine two things outside the program move its wall
    time, in phases of tens of seconds to minutes, longer than one run:
    the hypervisor steals CPU time, and each vCPU runs at a speed set by what
    else shares its physical core (the two vCPUs of a 2-vCPU host were seen
    to differ by 1.5x, and an operation to take 0.9 s or 1.4 s with no steal).

    `mark()` reads each CPU's busy and stolen ticks from /proc/stat and has
    the helper process speedref.py time its reference computation pinned to
    each CPU.  `scale(wall, before, after)` is

        wall * (1 - stolen share) * NOMINAL_REF_S / ref

    where the stolen share is stolen / (busy + stolen) ticks over all CPUs
    between the marks, and ref is each CPU's reference time, averaged over
    the two marks and weighted by that CPU's busy ticks between them: the
    time the work would have taken with nothing stolen on CPUs that run the
    reference in NOMINAL_REF_S.
    """

    NOMINAL_REF_S = 0.010    # about the median reference time on a 2-vCPU host
    BUSY = (0, 1, 2, 5, 6)   # user nice system irq softirq; guest is inside user
    STEAL = 7

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.helper = None

    def __enter__(self) -> "MachineClock":
        self.helper = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "speedref.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()

    def _reference_s(self, cpu: int) -> float:
        self.helper.stdin.write(f"{cpu}\n")
        self.helper.stdin.flush()
        return float(self.helper.stdout.readline())

    def ticks(self) -> dict[int, tuple[int, int]]:
        """Busy and stolen ticks of each CPU this process may run on."""
        out = {}
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    name, *fields = line.split()
                    if name.startswith("cpu") and name[3:].isdigit() \
                            and int(name[3:]) in self.cpus:
                        ticks = [int(v) for v in fields]
                        out[int(name[3:])] = (sum(ticks[i] for i in self.BUSY),
                                              ticks[self.STEAL])
        except (OSError, ValueError, IndexError):
            return {}
        return out

    def mark(self) -> dict:
        ticks = self.ticks()
        return {"ticks": ticks, "ref": {c: self._reference_s(c) for c in self.cpus}}

    @classmethod
    def scale(cls, wall: float, before: dict, after: dict) -> float:
        busy, stolen = {}, 0
        for c, (b, s) in after["ticks"].items():
            if c in before["ticks"]:
                busy[c] = b - before["ticks"][c][0]
                stolen += s - before["ticks"][c][1]
        total = sum(busy.values())
        share = stolen / (total + stolen) if total + stolen > 0 else 0.0
        refs = {c: (before["ref"][c] + after["ref"][c]) / 2 for c in after["ref"]}
        if total > 0:
            ref = sum(refs[c] * busy.get(c, 0) for c in refs) / total
        else:
            ref = sum(refs.values()) / len(refs)
        return wall * (1.0 - share) * cls.NOMINAL_REF_S / ref


def _hash_dir(path: str) -> dict[str, str]:
    out = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    def __init__(self, cli, workload, seed: int, workdir: str, clock: MachineClock):
        self.cli = cli
        self.clock = clock
        self.last_mark = clock.mark()
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops: list[dict] = []

    def next_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def _scaled(self, wall: float) -> float:
        """`wall`, just ended, at nominal machine speed; marks the clock again."""
        before, self.last_mark = self.last_mark, self.clock.mark()
        return self.clock.scale(wall, before, self.last_mark)

    def run_op(self, label: str, seed: int, **overrides) -> dict:
        """Runs the workload's commands; `time_s` is their wall time at nominal speed."""
        index = len(self.ops)
        commands = []
        for j, cmd in enumerate(self.workload.commands):
            outdir = os.path.join(self.workdir, f"op{index:04d}-c{j}")
            argv = cmd.argv(seed, outdir, **overrides)
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = self.cli.main(argv)
            except SystemExit as exc:   # argparse rejects the flags
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed operation
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - t0
            commands.append({"command": j, "argv": argv, "outdir": outdir, "rc": rc,
                             "wall_s": wall, "hashes": _hash_dir(outdir)})
        wall = sum(c["wall_s"] for c in commands)
        op = {"index": index, "label": label, "seed": seed, "wall_s": wall,
              "time_s": self._scaled(wall), "commands": commands}
        self.ops.append(op)
        return op

    def loop(self, label: str, seconds: float, min_ops: int = MIN_TIMED_OPS,
             cold_starts: list[dict] | None = None) -> list[dict]:
        """Operations until `seconds` have passed; cold starts spread evenly between them."""
        done = []
        t0 = time.perf_counter()
        while len(done) < min_ops or time.perf_counter() - t0 < seconds:
            done.append(self.run_op(label, self.next_seed()))
            if cold_starts is not None and (
                    time.perf_counter() - t0 >= len(cold_starts) * seconds / COLD_STARTS):
                cold_starts.append(self.cold_start())
        return done

    def cold_start(self) -> dict:
        """Seconds from spawning an interpreter until it has resolved the config.

        The child stamps the end itself, so interpreter teardown does not count
        in the wall time; the machine clock is marked after the child's exit.
        """
        argv = self.workload.commands[0].argv(1, os.path.join(self.workdir, "cold-start"))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", COLD_START_SNIPPET, *argv], check=True,
                              capture_output=True, text=True, timeout=60)
        wall = float(done.stdout.split()[-1]) - t0
        return {"wall_s": wall, "time_s": self._scaled(wall)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traced_run(runner: Runner, seconds: float) -> dict:
    """Untraced and traced operations alternate, so both see the same machine load."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_TIMED_OPS or time.perf_counter() - t0 < seconds:
        untraced.append(runner.run_op("untraced", runner.next_seed()))
        probes = spans.Probes(tracer).install()
        try:
            traced.append(runner.run_op("traced", runner.next_seed()))
        finally:
            probes.uninstall()
    metrics = spans.layer_metrics(tracer.spans, len(traced), probes.installed)
    untraced_wall = statistics.median(op["time_s"] for op in untraced)
    metrics["trace.wall_s"] = statistics.median(op["time_s"] for op in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    shares = spans.layer_shares(tracer.spans)
    metrics["trace.heavy_share"] = sum(shares.get(layer, 0.0)
                                       for layer in runner.workload.heavy_layers)

    # the same operation back to back, as configured and single-threaded
    seed = runner.next_seed()
    configured = runner.run_op("threads-configured", seed)
    single = runner.run_op("threads1", seed, threads=1)
    metrics["harness.thread_speedup"] = single["time_s"] / configured["time_s"]
    metrics["harness.thread_files_match"] = float(sum(
        h == configured["commands"][j]["hashes"].get(name)
        for j, c in enumerate(single["commands"]) for name, h in c["hashes"].items()))
    return {"layer_metrics": metrics, "layer_shares": shares,
            "missing_probes": probes.missing, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--record", required=True)
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from spherewave import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"spherewave imported from {cli.__file__}, not from {src}")

    with MachineClock() as clock:
        runner = Runner(cli, WORKLOADS[args.workload], args.seed, args.workdir, clock)
        warmup = runner.loop("warmup", WARMUP_S, min_ops=1)[0]
        if args.trace:
            record = traced_run(runner, args.seconds)
        else:
            runner.cold_start()  # the first start compiles bytecode
            cold_starts = []
            runner.loop("timed", args.seconds, cold_starts=cold_starts)
            record = {"peak_rss_mb": _peak_rss_mb(), "cold_starts": cold_starts}
        runner.run_op("repeat", warmup["seed"])
    record["ops"] = runner.ops
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
