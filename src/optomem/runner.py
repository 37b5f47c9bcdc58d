"""Run orchestration and bit-stable data export.

Outputs per run directory:

* ``config.txt``          -- fully resolved config echo (dotted-key format)
* ``trajectory.csv``      -- time series, columns
    t, re_a, im_a, abs_a, re_b, im_b, abs_b, trace, purity, coherent_overlap
* ``revival_report.json`` -- collapse/revival report plus integration quality
* ``wigner_t<...>.dat``   -- self-describing grid text files (snapshot runs)

``run_sweep`` and ``run_snapshots`` take ``threads``: sweep points, or
interleaved parts of a run's snapshots, are independent tasks that
``_pool_map`` runs on a process pool of at most one worker per task (inline
for one worker).  The parent evolves a snapshot run and names its files;
each worker renders and writes one part's grids.

All numeric output is rendered with ``%.9e`` (JSON floats are rounded to the
same precision) so repeated runs of one config are byte-identical, at any
``threads``.  The ``a``/``b`` columns hold ``Trajectory.amplitudes[0]``/
``[1]``; a one-mode (combined) run has zeros in the ``b`` columns.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import (
    COMBINED_KERR,
    RunConfig,
    SweepSpec,
    config_to_flat,
    format_config_text,
    sweep_to_flat,
)
from .evolve import EvolveOptions, TimeGrid, Trajectory, evolve
from .liouvillian import Superoperator, combined_kerr_liouvillian, liouvillian
from .revival import RevivalReport, detect_revivals, sweep_summary
from .states import DensityMatrix, coherent_ket, partial_trace, product_dm, vacuum_ket
from .wigner import PhaseSpaceGrid, WignerField, wigner_fields


def build_problem(config: RunConfig) -> tuple[Superoperator, DensityMatrix]:
    """Assemble a config's generator (per model) and initial state (per storage mode)."""
    config.validate()
    if config.mode == COMBINED_KERR:
        superop = combined_kerr_liouvillian(config.params, config.dims[0])
    else:
        superop = liouvillian(config.params, config.dims)
    kets = [
        coherent_ket(config.alpha, d) if mode == config.storage_mode else vacuum_ket(d)
        for mode, d in enumerate(config.dims)
    ]
    return superop, product_dm(kets)


def simulate(config: RunConfig) -> tuple[Trajectory, RevivalReport]:
    """Evolve one configuration and detect its collapse/revival structure."""
    superop, rho0 = build_problem(config)
    grid = TimeGrid(config.sample_times())
    opts = EvolveOptions(
        snapshot_times=tuple(config.snapshot_times),
        overlap_alpha=config.alpha,
        overlap_mode=config.storage_mode,
    )
    traj = evolve(rho0, superop, grid, opts)
    report = detect_revivals(traj, config.storage_mode, config.predicted_revival_time())
    return traj, report


# ---------------------------------------------------------------------------
# writers

def _f(x: float) -> str:
    return f"{x:.9e}"


def _round9(x: float) -> float:
    return float(f"{x:.9e}")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    a = traj.amplitudes[0]
    b = traj.amplitudes[1] if len(traj.amplitudes) > 1 else np.zeros_like(a)
    ovl = traj.coherent_overlap
    # np.hypot rounds like abs() of each element; np.abs of a complex array
    # can differ from it in the last bit.
    columns = [
        traj.times,
        a.real, a.imag, np.hypot(a.real, a.imag),
        b.real, b.imag, np.hypot(b.real, b.imag),
        traj.trace, traj.purity,
        ovl if ovl is not None else np.zeros(len(traj.times)),
    ]
    row = ",".join(["%.9e"] * len(columns))
    lines = ["t,re_a,im_a,abs_a,re_b,im_b,abs_b,trace,purity,coherent_overlap"]
    lines.extend(row % cells for cells in zip(*(c.tolist() for c in columns)))
    path.write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """The columns of a trajectory CSV by header name; ValueError on a bad cell."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns under {len(header)} header names")
    return {name: data[:, i] for i, name in enumerate(header)}


def report_payload(report: RevivalReport, traj: Trajectory) -> dict:
    payload = report.to_dict()
    payload["quality"] = {
        "max_trace_drift": traj.max_trace_drift,
        "max_hermiticity_error": traj.max_hermiticity_error,
        "n_steps": traj.n_steps,
        "n_rejected": traj.n_rejected,
    }
    return _round_floats(payload)


def _round_floats(obj):
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report_json(path: Path, report: RevivalReport, traj: Trajectory) -> None:
    path.write_text(json.dumps(report_payload(report, traj), indent=2, sort_keys=True) + "\n")


def write_wigner_field(path: Path, field: WignerField) -> None:
    g = field.grid
    lines = [
        f"{_f(g.x_min)} {_f(g.x_max)} {g.nx}",
        f"{_f(g.p_min)} {_f(g.p_max)} {g.np}",
    ]
    # one row per p sample, nx columns per row
    row = " ".join(["%.9e"] * g.nx)
    for j in range(g.np):
        lines.append(row % tuple(field.values[:, j].tolist()))
    path.write_text("\n".join(lines) + "\n")


def read_wigner_field(path: Path) -> WignerField:
    lines = path.read_text().strip().splitlines()
    x_min, x_max, nx = lines[0].split()
    p_min, p_max, np_ = lines[1].split()
    grid = PhaseSpaceGrid(
        float(x_min), float(x_max), float(p_min), float(p_max), int(nx), int(np_)
    )
    rows = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    if rows.shape != (grid.np, grid.nx):
        raise ValueError(f"grid file body {rows.shape} does not match header")
    return WignerField(grid, rows.T)


def write_config_echo(path: Path, config: RunConfig) -> None:
    flat = config_to_flat(config)
    flat["time.horizon"] = config.resolved_horizon()
    path.write_text(format_config_text(flat, header="resolved run configuration"))


# ---------------------------------------------------------------------------
# top-level run entry points

def run_single(config: RunConfig, out_dir: Path) -> tuple[Trajectory, RevivalReport]:
    """Simulate one config and write config echo, CSV and JSON report."""
    traj, report = simulate(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_echo(out_dir / "config.txt", config)
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    write_report_json(out_dir / "revival_report.json", report, traj)
    return traj, report


def run_snapshots(config: RunConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Evolve one config and export a Wigner grid file per snapshot time.

    The snapshots are split into ``min(threads, n_snapshots)`` interleaved
    parts, part ``k`` holding every ``n``-th snapshot from the ``k``-th; each
    part is rendered and written as one task (see ``_pool_map``).  Grids are
    bitwise independent of the split, so the files are identical for any
    thread count.  Two snapshot times that would share a file name are
    refused, and the run is evolved, before anything is written.
    """
    if not config.snapshot_times:
        raise ValueError("config has no snapshot times")
    mode = config.resolved_wigner_mode()
    names = {t: f"wigner_t{t:.3f}_mode{mode}.dat" for t in set(config.snapshot_times)}
    shared = sorted(name for name, n in Counter(names.values()).items() if n > 1)
    if shared:
        raise ValueError(
            f"distinct snapshot times share the grid files {shared}; "
            "snapshot times must differ in the third decimal"
        )
    traj, _ = simulate(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_echo(out_dir / "config.txt", config)
    states = [
        state if state.dims.n_modes == 1 else partial_trace(state, mode)
        for _, state in traj.snapshots
    ]
    paths = [out_dir / names[t] for t, _ in traj.snapshots]
    # one task per worker: a state rendered alone loses the shared recurrence
    n = max(1, min(threads, len(states)))
    jobs = [(states[k::n], config.wigner_grid, paths[k::n]) for k in range(n)]
    _pool_map(_write_fields, jobs, threads)
    return paths


def _write_fields(args) -> None:
    states, grid, paths = args
    for path, field in zip(paths, wigner_fields(states, grid)):
        write_wigner_field(path, field)


def _pool_map(fn, jobs: list, threads: int) -> list:
    """``[fn(job) for job in jobs]``, on a process pool when ``threads > 1``.

    The pool has at most one worker per job, and results come back in job
    order.  With one worker (or ``threads < 1``) the jobs run inline in this
    process.
    """
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _sweep_point(args) -> tuple[float, RevivalReport]:
    spec, value, out_dir = args
    _, report = run_single(spec.point_config(value), Path(out_dir) / spec.point_dir(value))
    return value, report


def run_sweep(spec: SweepSpec, out_dir: Path, threads: int = 1) -> list[dict]:
    """Run every sweep point, write per-point artifacts and a summary CSV.

    Points run as one task each (see ``_pool_map``); the summary is always
    aggregated in parameter order, so outputs are identical for any thread
    count.
    """
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flat = sweep_to_flat(spec)
    (out_dir / "config.txt").write_text(
        format_config_text(flat, header="resolved sweep configuration")
    )

    jobs = [(spec, value, out_dir) for value in spec.values]
    results = _pool_map(_sweep_point, jobs, threads)

    rows = sweep_summary(results)
    lines = ["parameter,first_revival_ratio,n_peaks,classification"]
    for row in rows:
        lines.append(
            f"{_f(row['parameter'])},{_f(row['first_revival_ratio'])},"
            f"{row['n_peaks']},{row['classification']}"
        )
    (out_dir / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return rows
