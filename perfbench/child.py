"""One workload process of the optomem benchmark.

``run.py`` starts this file in a fresh interpreter for each operation it
measures, so every process pays, and times, what a user pays: interpreter
start, ``import optomem.cli``, preset resolution and the build of the first
problem (``setup_s``).  A ``run`` job then drives the real CLI entry point
``optomem.cli.main`` (traced or not), checks the artifacts it wrote and
prints one JSON line.  A ``setup`` job stops after the set-up.

Usage: python3 perfbench/child.py SPEC_JSON  (SPEC_JSON is written by run.py)
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

PRESETS = {"timeline": "fig2-combined", "twomode": "fig4", "sweep": "fig7"}
# Operations per workload CLI run: one per Wigner grid plus the trajectory
# with its report, one trajectory with its report, one per sweep point.
OPERATIONS = {"timeline": 16, "twomode": 1, "sweep": 4}

# Same anchors and tolerances as tests/test_acceptance.py.
FIG2_FIRST_REVIVAL_RATIO = 0.9956809489
FIG2_MIN_W_AT_79 = -0.2771564102
FIG2_NEGVOL_AT_79 = 0.2470208459
TEMP_SWEEP_RATIOS = (0.995680949, 0.905021864, 0.402267476)
# |<b>(t)| of `simulate --preset fig4`, saved from the first benchmarked
# commit; 1e-5 is the dual-integrator tolerance of acceptance criterion 7.
FIG4_ABS_B = Path(__file__).with_name("fig4_abs_b.txt")
FIG4_ABS_B_TOL = 1e-5

# Public functions of each layer that the traced run wraps in spans.
LAYERS = {
    "cli": ["main", "cmd_simulate", "cmd_snapshots", "cmd_sweep", "cmd_revival_report"],
    "liouvillian": ["liouvillian", "combined_kerr_liouvillian", "hamiltonian",
                    "commutator_superop", "dissipator"],
    "evolve": ["evolve"],
    "wigner": ["wigner"],
    "revival": ["detect_revivals", "detect_revival_series"],
    "runner": ["build_problem", "simulate", "run_single", "run_snapshots", "run_sweep",
               "write_config_echo", "write_trajectory_csv", "write_report_json",
               "write_wigner_field", "read_trajectory_csv"],
}


def initial_alpha(workload: str, seed: int) -> complex | None:
    """Seeded initial amplitude 1.5 e^{i phi}; None keeps the preset's alpha.

    Both generators are phase-covariant in the stored mode, so |amplitude|
    and its checks do not depend on phi while the input vector does.  The
    timeline keeps the preset's real alpha: its Wigner anchors are frozen on
    that grid orientation.
    """
    if workload == "timeline":
        return None
    return 1.5 * cmath.exp(1j * random.Random(seed).uniform(0.0, 2.0 * math.pi))


def commands(workload: str, out: str, alpha: complex | None, threads: int) -> list[list[str]]:
    override = [] if alpha is None else ["--override", f"initial.alpha={str(alpha).strip('()')}"]
    preset = ["--preset", PRESETS[workload], "--out", out, *override]
    if workload == "timeline":
        return [["wigner-snapshots", *preset]]
    if workload == "twomode":
        return [["simulate", *preset], ["revival-report", "--run", out]]
    return [["sweep", *preset, "--threads", str(threads)]]


def resolve(workload: str, alpha: complex | None):
    """The first run config of a workload, resolved as the CLI resolves it."""
    from optomem import config

    obj = config.preset(PRESETS[workload])
    if isinstance(obj, config.SweepSpec):
        flat = config.sweep_to_flat(obj)
    else:
        flat = config.config_to_flat(obj)
    if alpha is not None:
        flat["initial.alpha"] = config.parse_value(str(alpha).strip("()"))
    obj = config.load_object(flat)
    return obj.point_config(obj.values[0]) if isinstance(obj, config.SweepSpec) else obj


# ---------------------------------------------------------------------------
# output checks: each returns [(operation, ok, detail)]

def check_timeline(out: Path, simulated: list, stdout: list[str]) -> list[tuple]:
    import numpy as np

    from optomem.config import preset
    from optomem.runner import read_wigner_field
    from optomem.wigner import negativity_volume

    ratio = simulated[0][1].first_revival_ratio if simulated else float("nan")
    results = [("report", abs(ratio - FIG2_FIRST_REVIVAL_RATIO) <= 1e-3,
                f"first_revival_ratio={ratio:.10f}")]
    for t in preset("fig2-combined").snapshot_times:
        name = f"wigner_t{t:.3f}_mode0.dat"
        try:
            field = read_wigner_field(out / name)
        except (OSError, ValueError) as exc:
            results.append((name, False, repr(exc)))
            continue
        vals = field.values
        w_min, negvol, total = float(vals.min()), negativity_volume(field), field.integral()
        ok = (vals.shape == (201, 201) and bool(np.all(np.isfinite(vals)))
              and float(np.abs(vals).max()) <= 1.0 / math.pi + 1e-9
              and abs(total - 1.0) < 1e-3)
        if t == 0.0:
            ok = ok and w_min > -1e-6
        if t == 79.0:
            ok = (ok and abs(w_min - FIG2_MIN_W_AT_79) <= 2e-3
                  and abs(negvol - FIG2_NEGVOL_AT_79) <= 2e-3)
        if t == 157.0:
            ok = ok and negvol < 1e-6
        results.append((name, ok, f"min={w_min:.10f} negvol={negvol:.10f} integral={total:.8f}"))
    return results


def _agree(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_agree(x, y) for x, y in zip(a, b))
    return a == b


def check_twomode(out: Path, simulated: list, stdout: list[str]) -> list[tuple]:
    import numpy as np

    from optomem.runner import read_trajectory_csv

    written = json.loads((out / "revival_report.json").read_text())
    quality = written["quality"]
    abs_b = read_trajectory_csv(out / "trajectory.csv")["abs_b"]
    reference = np.loadtxt(FIG4_ABS_B)
    gap = float(np.max(np.abs(abs_b - reference))) if abs_b.shape == reference.shape else math.inf
    readback = json.loads(stdout[1])
    agrees = all(_agree(value, written.get(key)) for key, value in readback.items())
    ok = (quality["max_trace_drift"] < 1e-6 and quality["max_hermiticity_error"] < 1e-8
          and gap < FIG4_ABS_B_TOL and agrees)
    return [("trajectory", ok,
             f"trace_drift={quality['max_trace_drift']:.3e} "
             f"hermiticity={quality['max_hermiticity_error']:.3e} abs_b_gap={gap:.3e} "
             f"readback_agrees={agrees} classification={written['classification']}")]


def check_sweep(out: Path, simulated: list, stdout: list[str]) -> list[tuple]:
    from optomem.config import preset

    spec = preset("fig7")
    lines = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    rows = {float(p): (float(r), int(n), c) for p, r, n, c in (ln.split(",") for ln in lines)}
    results = []
    for i, value in enumerate(sorted(spec.values)):
        name = f"{spec.axis}_{value:.6g}"
        try:
            point = json.loads((out / name / "revival_report.json").read_text())
        except OSError as exc:
            results.append((name, False, repr(exc)))
            continue
        ratio, n_peaks = point["first_revival_ratio"], point["n_peaks"]
        ok = rows.get(value) == (ratio, n_peaks, point["classification"])
        if i < len(TEMP_SWEEP_RATIOS):
            ok = ok and abs(ratio - TEMP_SWEEP_RATIOS[i]) <= 1e-3
        else:
            ok = ok and n_peaks == 0
        results.append((name, ok, f"ratio={ratio:.9f} n_peaks={n_peaks}"))
    return results


CHECKS = {"timeline": check_timeline, "twomode": check_twomode, "sweep": check_sweep}


# ---------------------------------------------------------------------------
# per-layer measurement

def counting_evolve(records: list):
    """Stand-in for ``evolve`` that counts products with the generator."""
    import scipy.sparse as sp

    from optomem.liouvillian import Superoperator

    class CountingMatrix(sp.csr_matrix):
        products = 0

        def __matmul__(self, other):
            self.products += 1
            return super().__matmul__(other)

    def make(evolve):
        def counted(rho0, superop, grid, opts=None):
            matrix = CountingMatrix(superop.matrix)
            traj = evolve(rho0, Superoperator(superop.dims, matrix), grid, opts)
            records.append({"matrix": superop.matrix, "matvecs": matrix.products,
                            "steps": traj.n_steps, "rejected": traj.n_rejected})
            return traj

        return counted

    return make


def matvec_us(matrix, blocks: int = 5, per_block: int = 100) -> float:
    """Median time of one product of ``matrix`` with a complex vector."""
    import numpy as np

    z = np.full(matrix.shape[1], 0.5 + 0.25j)
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(per_block):
            matrix @ z
        times.append((time.perf_counter() - start) / per_block)
    return statistics.median(times) * 1e6


def layer_metrics(tracer, records: list) -> dict:
    evolve_s = tracer.total("evolve.evolve")
    steps = sum(r["steps"] for r in records)
    matvecs = sum(r["matvecs"] for r in records)
    timed = [(r["matvecs"], matvec_us(r["matrix"]),
              r["matrix"].data.nbytes + r["matrix"].indices.nbytes + r["matrix"].indptr.nbytes
              + 2 * 16 * r["matrix"].shape[0]) for r in records]
    matvec_time = sum(m * us for m, us, _ in timed) * 1e-6
    grids = len(tracer.outermost("wigner.wigner"))
    wigner_s = tracer.total("wigner.wigner")
    points = [s["end"] - s["start"]
              for s in tracer.outermost("runner.run_single") + tracer.outermost("runner.run_snapshots")]
    return {
        "liouvillian.assemble_s": tracer.total("liouvillian."),
        "liouvillian.nnz": max(r["matrix"].nnz for r in records),
        "liouvillian.dim": max(r["matrix"].shape[0] for r in records),
        "evolve.s": evolve_s,
        "evolve.step_us": evolve_s / steps * 1e6,
        "evolve.steps": steps,
        "evolve.rejected": sum(r["rejected"] for r in records),
        "evolve.matvecs": matvecs,
        "evolve.matvec_us": matvec_time / matvecs * 1e6,
        "evolve.matvec_bytes": sum(m * b for m, _, b in timed) / matvecs,
        "evolve.matvec_share": matvec_time / evolve_s,
        "wigner.s": wigner_s,
        "wigner.grids": grids,
        "wigner.grid_ms": wigner_s / grids * 1e3 if grids else 0.0,
        "revival.detect_s": tracer.total("revival."),
        "runner.write_csv_s": tracer.total("runner.write_trajectory_csv"),
        "runner.write_report_s": tracer.total("runner.write_report_json"),
        "runner.write_wigner_s": tracer.total("runner.write_wigner_field"),
        "runner.read_csv_s": tracer.total("runner.read_trajectory_csv"),
        "runner.point_s_p50": statistics.median(points),
        "runner.point_s_max": max(points),
        "trace.coverage": tracer.coverage(),
    }


# ---------------------------------------------------------------------------

def artifacts(out: Path) -> tuple[dict, int]:
    """sha256 of every file under ``out`` and their total size in bytes."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return digests, sum(p.stat().st_size for p in files)


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(spec: dict) -> dict:
    t_start = time.monotonic()
    import optomem.cli as cli
    import_s = time.monotonic() - t_start
    src = Path("src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"optomem imported from {cli.__file__}, not from {src}")
    from optomem import runner

    workload = spec["workload"]
    alpha = initial_alpha(workload, spec["seed"])
    runner.build_problem(resolve(workload, alpha))
    result = {"setup_s": time.monotonic() - spec["t_spawn"], "import_s": import_s}
    if spec["job"] == "setup":
        result["versions"] = versions()
        return result

    tracer = records = None
    if spec["traced"]:
        from spans import Tracer

        tracer, records = Tracer(spec["run_id"]), []
        for layer, names in LAYERS.items():
            replace = {"evolve": counting_evolve(records)} if layer == "evolve" else None
            tracer.install(layer, names, replace)
    simulated = []
    if workload == "timeline":  # wigner-snapshots writes no report; keep simulate's
        simulate = runner.simulate
        runner.simulate = lambda config: simulated.append(simulate(config)) or simulated[-1]

    out = Path(spec["out"])
    stdout, wall, error = [], 0.0, None
    for argv in commands(workload, str(out), alpha, spec["threads"]):
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                cli.main(argv)
        except Exception:  # a failed CLI call fails its operations, not the benchmark
            error = traceback.format_exc()
            break
        finally:
            wall += time.perf_counter() - start
            stdout.append(buffer.getvalue())
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if error is None:
        try:
            checks = CHECKS[workload](out, simulated, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks = [("checks", False, repr(exc))]
    else:
        checks = [("cli", False, error)]
    failed = sum(not ok for _, ok, _ in checks)
    if len(checks) < OPERATIONS[workload]:  # the CLI call or the checks broke off
        failed = OPERATIONS[workload]
    hashes, written = artifacts(out)
    result.update(wall_s=wall, peak_rss_mb=usage / 1024.0, attempted=OPERATIONS[workload],
                  failed=failed, checks=checks, hashes=hashes, bytes_written=written)
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        if error is None:
            result["layers"] = layer_metrics(tracer, records)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
