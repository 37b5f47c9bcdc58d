"""optomem benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {timeline,twomode,sweep} --seed N \\
        --seconds S --trace {0,1}

Each measured operation runs ``optomem.cli.main`` in a fresh interpreter
(``child.py``), one after another (closed loop, one client), for about
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``) as medians over the run;
``--trace 1`` pairs each untraced run with a traced run of the same inputs
and reports the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; every run also appends a
record to ``.perfbench/results.jsonl`` for ``stats.py``.  Work files live in
``.perfbench/`` and are deleted when the run ends.
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
import time
from pathlib import Path

from child import OPERATIONS

CHILD = Path(__file__).with_name("child.py")
WORK = Path(".perfbench")
# Set-up-only processes per --trace 0 run, besides the one in every operation.
SETUP_PROBES = 2
# Pool size of the sweep workload; the machine it was tuned on has 2 cores.
SWEEP_THREADS = 2
RUN_LIMIT_S = 170.0
# Pinned to 1 in workload processes so the 2-worker sweep does not
# oversubscribe 2 cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

BENCHMARK = json.loads(Path("BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.monotonic()
        self.work = WORK / "out" / str(os.getpid())
        self.env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.count = 0

    def child(self, job: str, traced: bool = False, threads: int = 1) -> dict | None:
        """Run one child process; None if it crashed or printed no result."""
        self.count += 1
        run_id = f"{self.workload}-seed{self.seed}-{self.count}"
        out = self.work / run_id
        spec = {"workload": self.workload, "seed": self.seed, "job": job, "traced": traced,
                "threads": threads, "out": str(out), "run_id": run_id,
                "spans": str(WORK / "spans" / f"{run_id}.json"),
                "t_spawn": time.monotonic()}
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)], env=self.env,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"# {run_id}: timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {run_id}: exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        print(f"# {run_id}: {job}{' traced' if traced else ''} threads={threads} "
              f"setup_s={result['setup_s']:.4f} wall_s={result.get('wall_s', 0.0):.4f} "
              f"process_s={time.monotonic() - spec['t_spawn']:.4f}", flush=True)
        for name, ok, detail in result.get("checks", []):
            if not ok:
                print(f"# {run_id}: check {name} failed: {detail}", file=sys.stderr)
        return result

    def repeat(self, fn) -> list:
        """Call ``fn`` until the next call would end after ``--seconds``; at least once."""
        deadline = time.monotonic() + self.seconds
        results, durations = [], []
        while True:
            start = time.monotonic()
            results.append(fn())
            durations.append(time.monotonic() - start)
            if time.monotonic() + statistics.median(durations) > deadline:
                return results


def tally(runs: list[dict | None], workload: str) -> tuple[int, int]:
    attempted = failed = 0
    for run in runs:
        attempted += OPERATIONS[workload]
        failed += OPERATIONS[workload] if run is None else run["failed"]
    return attempted, failed


def end_to_end(bench: Bench) -> tuple[dict, int, int]:
    probes = [bench.child("setup") for _ in range(SETUP_PROBES)]
    setups = [probe["setup_s"] for probe in probes if probe]
    threads = SWEEP_THREADS if bench.workload == "sweep" else 1
    runs = bench.repeat(lambda: bench.child("run", threads=threads))
    done = [r for r in runs if r]
    if not done:
        raise SystemExit("no workload run completed")
    attempted, failed = tally(runs, bench.workload)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in done]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    return metrics, attempted, failed


def traced_pair(bench: Bench) -> tuple[list, dict | None]:
    """Untraced and traced runs of the same inputs, and their per-layer metrics.

    The sweep adds an untraced serial run: its traced run is serial, so the
    per-point times and the single-process baseline come from one process.
    """
    if bench.workload == "sweep":
        pooled = bench.child("run", threads=SWEEP_THREADS)
        serial = bench.child("run", threads=1)
        workers = SWEEP_THREADS
    else:
        pooled = serial = bench.child("run")
        workers = 1
    traced = bench.child("run", traced=True)
    runs = [pooled, serial, traced] if bench.workload == "sweep" else [serial, traced]
    if None in runs or "layers" not in traced:
        return runs, None
    baselines = [serial, pooled] if bench.workload == "sweep" else [serial]
    if any(traced["hashes"] != base["hashes"] for base in baselines):
        print("# traced artifacts differ from untraced ones", file=sys.stderr)
        traced["failed"] = OPERATIONS[bench.workload]
        return runs, None
    layers = dict(traced["layers"])
    layers.update({
        "cli.import_s": statistics.median(r["import_s"] for r in runs),
        "runner.bytes_written": traced["bytes_written"],
        "runner.serial_s": serial["wall_s"],
        "runner.pool_efficiency": serial["wall_s"] / (workers * pooled["wall_s"]),
        "trace.overhead_s": traced["wall_s"] - serial["wall_s"],
    })
    return runs, layers


def per_layer(bench: Bench) -> tuple[dict, int, int]:
    pairs = bench.repeat(lambda: traced_pair(bench))
    runs = [run for group, _ in pairs for run in group]
    attempted, failed = tally(runs, bench.workload)
    layers = [metrics for _, metrics in pairs if metrics]
    if not layers:
        return {}, attempted, failed
    return {name: statistics.median(m[name] for m in layers) for name in layers[0]}, attempted, failed


def environment(bench: Bench, versions: dict) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
        if kind != "Instruction":
            size = (index / "size").read_text().strip()  # e.g. "2048K"
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            caches[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "caches": caches, "machine": platform.machine(), **versions, "commit": git_commit(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload_threads": {k: bench.env[k] for k in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of a git checkout in the current directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unavailable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        # Fills the bytecode and file caches; also fails fast without a program.
        warm = bench.child("setup")
        if warm is None:
            print("cannot set up optomem from ./src", file=sys.stderr)
            return 1
        env = environment(bench, warm["versions"])
        print("# env " + json.dumps(env, sort_keys=True))
        metrics, attempted, failed = (per_layer if args.trace else end_to_end)(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    names = [m["name"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: metrics[name] for name in names} if metrics else {}
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {UNITS[name]}")
    if "evolve.matvec_bytes" in metrics and "L2" in env["caches"]:
        l2 = env["caches"]["L2"]
        fits = "fits in" if metrics["evolve.matvec_bytes"] <= l2 else "exceeds"
        print(f"# matvec working set {metrics['evolve.matvec_bytes'] / 1e6:.3f} MB {fits} "
              f"L2 ({l2 / 1e6:.3f} MB)")
    print(f"# {args.workload} error_rate = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "result": result}
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
