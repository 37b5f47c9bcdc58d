"""Run orchestration and bit-stable data export.

Outputs per run directory:

* ``config.txt``          -- fully resolved config echo (dotted-key format)
* ``trajectory.csv``      -- time series, columns
    t, re_a, im_a, abs_a, re_b, im_b, abs_b, trace, purity, coherent_overlap
* ``revival_report.json`` -- collapse/revival report plus integration quality
* ``wigner_t<...>.dat``   -- self-describing grid text files (snapshot runs)

``run_sweep`` takes ``threads``, how many sweep points run at once, never
more than there are points, since ``evolve`` holds the GIL for most of a
point.  ``_pool_map`` runs a share of them in the calling process and
forks a child for each other share; one worker, or a platform other than
Linux, runs them all inline.
``run_snapshots`` runs in the calling thread: it evolves the run, builds
the Wigner table once (``wigner.wigner_map``), then evaluates, renders and
writes the grids one snapshot at a time.

All numeric output is rendered with ``%.9e`` (JSON floats are rounded to the
same precision) so repeated runs of one config are byte-identical, and a
sweep writes the same files at any ``threads``.  The trajectory and grid
bodies are rendered by vectorised passes (``_render``; a grid
:data:`_GRID_ROWS` rows at a time): numpy computes each cell's 10-digit
significand, which is provably the correctly rounded one unless the cell
lies within 1e-5 of a rounding tie, and hands those cells and the rare
non-finite or extreme ones to Python's ``'%.9e' %``.  Each cell is a fixed 20-byte record of five little-endian
4-byte words, each one lookup in a table of words (the sign with the
leading digits and the point, two four-digit groups, the exponent, the
separator); its unused bytes are NUL, and ``bytes.translate`` drops them.
The text is byte for byte Python's.

The ``a``/``b`` columns hold ``Trajectory.amplitudes[0]``/``[1]``; a
one-mode (combined) run has zeros in the ``b`` columns.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import (
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
from .wigner import PhaseSpaceGrid, WignerField, wigner_map


def build_problem(config: RunConfig) -> tuple[Superoperator, DensityMatrix]:
    """Assemble a config's generator and initial state.

    One entry in ``dims`` selects the combined-Kerr generator, two the
    two-mode one; the storage mode starts coherent, every other in vacuum.
    The generator holds only the columns of the coordinates that rho(0)
    can reach (see ``liouvillian.lindblad``): the full generator's entries
    there, bit for bit, and none elsewhere, so it evolves rho(0) exactly as
    the full one does (on ``fig4`` 180 of 58 599 entries).
    """
    config.validate()
    kets = [
        coherent_ket(config.alpha, d) if mode == config.storage_mode else vacuum_ket(d)
        for mode, d in enumerate(config.dims)
    ]
    rho0 = product_dm(kets)
    if len(config.dims) == 1:
        superop = combined_kerr_liouvillian(config.params, config.dims[0], rho0)
    else:
        superop = liouvillian(config.params, config.dims, rho0)
    return superop, rho0


def simulate(config: RunConfig) -> tuple[Trajectory, RevivalReport]:
    """Evolve one configuration and detect its collapse/revival structure."""
    superop, rho0 = build_problem(config)
    grid = TimeGrid(config.resolved_horizon(), config.n_samples)
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


# _POW10[e + 100] is 10**(9 - e), parsed from its decimal text and so
# correctly rounded; _ASCII4[n] holds the four digits of n, zero padded.
# _ASCII4 (40 kB) is built without integer division, whose first use pages
# in about 150 kB of numpy code.
_POW10 = np.array([float(f"1e{9 - e}") for e in range(-100, 101)])
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_ASCII4 = np.stack([
    np.repeat(_DIGITS, 1000), np.tile(np.repeat(_DIGITS, 100), 10),
    np.tile(np.repeat(_DIGITS, 10), 100), np.tile(_DIGITS, 1000),
], axis=1)
# A cell's record is five little-endian 4-byte words, each looked up whole:
# _GROUP4[n] is the four digits of n (a view of _ASCII4's rows),
# _LEAD[s * 100 + n] the sign (NUL, or "-" when s is 1), the digit n // 10,
# the point and the digit n % 10, and _EXP_WORD[e + 99] the text "e+dd" or
# "e-dd" of an exponent e; the fifth word is three NULs and the separator.
_GROUP4 = _ASCII4.view("<u4").ravel()
_lead = np.zeros((2, 100, 4), dtype=np.uint8)
_lead[1, :, 0] = ord("-")
_lead[:, :, 1:4:2] = _ASCII4[:100, 2:]
_lead[:, :, 2] = ord(".")
_LEAD = _lead.view("<u4").ravel()
_EXP_WORD = np.array([list(f"e{e:+03d}".encode()) for e in range(-99, 100)],
                     dtype=np.uint8).view("<u4").ravel()
del _lead
# the record's bytes; the longest text Python writes, "-1.797693135e+308",
# fills all but the last three, which are NUL, NUL and the separator
_RECORD = 20


def _render(values, sep: str) -> bytes:
    """The rows of a 2-d float array as ``%.9e`` cells joined by ``sep``.

    Each row ends with ``"\\n"``, and every cell is byte for byte
    ``'%.9e' % v``.  Each cell is one fixed record of :data:`_RECORD`
    bytes (``_records``) whose unused bytes are NUL; dropping every NUL
    joins the records into the text.  Rows are independent, so rendering a
    block of rows at a time gives the same bytes.
    """
    # the records are freed before the NULs are dropped from their bytes
    return _records(np.asarray(values, dtype=float), sep).tobytes().translate(None, b"\0")


def _records(values: np.ndarray, sep: str) -> np.ndarray:
    """One record per cell of ``values``, row by row: its text, NUL padded.

    A cell that ``_significands`` takes is five 4-byte words, each one
    lookup: the sign (NUL when positive), the first digit, the point and
    the second digit from ``_LEAD``; the next four digits and the last four
    from ``_GROUP4``; the exponent text from ``_EXP_WORD``; and three NULs
    with the separator, or ``"\\n"`` at the end of a row.  Any other cell
    has Python's ``'%.9e' %`` text in its first ``_RECORD - 3`` bytes.
    Returned as a ``(cells, _RECORD)`` array of bytes.
    """
    n_rows, n_cols = values.shape
    v = values.ravel()
    sig, e, fast = _significands(v)
    words = np.empty((n_rows, n_cols, _RECORD // 4), dtype="<u4")
    ends = np.frombuffer(b"\0\0\0" + sep.encode(), dtype="<u4").repeat(n_cols)
    ends[-1:] = np.frombuffer(b"\0\0\0\n", dtype="<u4")
    words[:, :, 4] = ends
    words = words.reshape(v.size, _RECORD // 4)
    # sig = k 1e4 + r is an integer below 1e10, r <= 9999: sig / 1e4 rounds
    # to within 2**-33 of k + r / 1e4, at least 1e-4 below k + 1, so its
    # floor is k, and k * 1e4 and sig - k * 1e4 = r are exact
    for col in (2, 1):
        high = np.floor(sig / 1e4)
        words[:, col] = _GROUP4.take((sig - high * 1e4).astype(np.intp))
        sig = high
    words[:, 0] = _LEAD.take(sig.astype(np.intp) + 100 * np.signbit(v))
    words[:, 3] = _EXP_WORD.take(e + 99, mode="clip")

    records = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(list(map("%.9e".__mod__, v[slow].tolist())), dtype=f"S{_RECORD - 3}")
        records[slow, :-3] = text.view(np.uint8).reshape(-1, _RECORD - 3)
    return records


def _significands(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 10-digit significand (an integral float) and exponent of each
    value of ``v``, and whether they are ``'%.9e' % v``'s.

    A value with ``1e-99 <= |v| < 1e100`` or ``v == 0`` is tried.  There
    ``e = floor(log10|v|)`` and ``q = |v| * 10**(9 - e)``, and ``rint(q)`` is
    the 10-digit significand; a significand of ``1e10`` becomes ``1e9`` with
    exponent ``e + 1``.

    Why that is exact: the table power and the product are each correctly
    rounded, so ``q`` is within a relative 2**-52 of ``|v| * 10**(9 - e)``,
    i.e. within 2.3e-6.  ``rint(q)`` is therefore the correctly rounded
    significand unless ``q`` lies that close to a half-integer; values within
    1e-5 of one are left to Python's ``'%.9e' %``, as are exact decimal ties.
    An ``e`` that ``log10`` misses by one puts ``|v|`` within a relative
    1e-12 of a power of ten, so ``q`` lies within 1e-2 of ``1e9`` or ``1e10``
    and gives the same digits and exponent.  Non-finite values, values outside
    the range and three-digit exponents are also left to Python.  That leaves
    about 2e-5 of random values in range, about one cell of a Wigner grid.
    """
    mag = np.abs(v)
    in_range = (mag >= 1e-99) & (mag < 1e100)
    fast = in_range | (mag == 0.0)
    mag = np.where(in_range, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.int64)
    q = np.where(in_range, mag * _POW10[e + 100], 0.0)
    sig = np.rint(q)
    fast &= np.abs(np.abs(q - sig) - 0.5) > 1e-5
    carry = sig == 1e10
    sig[carry] = 1e9
    e += carry
    fast &= np.abs(e) < 100
    return sig, e, fast


_TRAJECTORY_HEADER = "t,re_a,im_a,abs_a,re_b,im_b,abs_b,trace,purity,coherent_overlap"


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
    header = (_TRAJECTORY_HEADER + "\n").encode()
    path.write_bytes(header + _render(np.column_stack(columns), ","))


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """The columns of a trajectory CSV by header name.

    ValueError naming the file when its header is not the one
    :func:`write_trajectory_csv` writes, when no row follows it, or on a
    bad cell.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        first_row = fh.readline()
    if header != _TRAJECTORY_HEADER:
        raise ValueError(f"{path}: header {header!r} is not {_TRAJECTORY_HEADER!r}")
    if not first_row.strip():
        raise ValueError(f"{path}: no rows under the header")
    names = header.split(",")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} columns under {len(names)} header names")
    return {name: data[:, i] for i, name in enumerate(names)}


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


# Grid rows rendered per _render call.  A call's temporaries take about
# 60 bytes a cell; smaller calls cost more interpreter time.  On
# `wigner-snapshots --preset fig2-combined` (201 x 201 grids; 2-vCPU Xeon
# VM, one BLAS thread, medians of 56 fresh processes each, in turn),
# 16 / 24 / 32 / 48 rows took 0.079 / 0.077 / 0.075 / 0.076 s at a peak
# RSS of 69.1 MB for all four; 32 beat 24 in 42 of 56 pairs.  At 801 x 801
# grids 32 rows took 0.55 s against 0.56 s for 24, at 0.5 MB more.
_GRID_ROWS = 32


def write_wigner_field(path: Path, field: WignerField) -> None:
    g = field.grid
    header = f"{_f(g.x_min)} {_f(g.x_max)} {g.nx}\n{_f(g.p_min)} {_f(g.p_max)} {g.np}\n"
    # one row per p sample, nx columns per row
    rows = field.values.T
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, g.np, _GRID_ROWS):
            fh.write(_render(rows[start:start + _GRID_ROWS], " "))


def read_wigner_field(path: Path) -> WignerField:
    """A grid file as ``write_wigner_field`` writes it; ValueError if malformed."""
    with open(path) as fh:
        header = [fh.readline().split() for _ in range(2)]
    try:
        (x_min, x_max, nx), (p_min, p_max, np_) = header
        grid = PhaseSpaceGrid(
            float(x_min), float(x_max), float(p_min), float(p_max), int(nx), int(np_)
        )
    except ValueError as exc:
        raise ValueError(f"{path}: bad grid file header: {exc}") from exc
    rows = np.loadtxt(path, skiprows=2, ndmin=2)
    if rows.shape != (grid.np, grid.nx):
        raise ValueError(f"{path}: grid file body {rows.shape} does not match header")
    return WignerField(grid, rows.T)


def write_config_echo(path: Path, config: RunConfig) -> None:
    flat = config_to_flat(config)
    flat["time.horizon"] = config.resolved_horizon()
    path.write_text(format_config_text(flat, header="resolved run configuration"))


# ---------------------------------------------------------------------------
# top-level run entry points

def run_single(config: RunConfig, out_dir: Path) -> tuple[Trajectory, RevivalReport]:
    """Simulate one config and write config echo, CSV and JSON report.

    The run writes no grids, so its snapshots are checked but not asked
    for; the trajectory does not depend on them.
    """
    config.validate()
    traj, report = simulate(replace(config, snapshot_times=()))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_echo(out_dir / "config.txt", config)
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    write_report_json(out_dir / "revival_report.json", report, traj)
    return traj, report


def run_snapshots(config: RunConfig, out_dir: Path) -> list[Path]:
    """Evolve one config and export a Wigner grid file per snapshot time.

    The Wigner table is built once; each snapshot's state is then reduced
    to the Wigner mode, evaluated from the table, rendered and written, in
    snapshot order.  Two snapshot times that would share a file name are
    refused, and the run is evolved, before anything is written.
    """
    if not config.snapshot_times:
        raise ValueError("config has no snapshot times")
    mode = config.resolved_wigner_mode()
    # -0.0 names the grid of 0.0
    names = {t: f"wigner_t{t + 0.0:.3f}_mode{mode}.dat" for t in set(config.snapshot_times)}
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
    field_of = wigner_map(config.dims[mode], config.wigner_grid)
    paths = [out_dir / names[t] for t, _ in traj.snapshots]
    for path, (_, state) in zip(paths, traj.snapshots):
        if state.dims.n_modes > 1:
            state = partial_trace(state, mode)
        write_wigner_field(path, field_of(state))
    return paths


def _pool_map(fn, jobs: list, threads: int) -> list:
    """``[fn(job) for job in jobs]`` on ``min(threads, len(jobs))`` workers.

    Worker ``w`` of ``W`` runs jobs ``w, w + W, ...``.  The calling process
    is worker 0; every other worker is a forked child that pickles its
    results, or its first failure, into a pipe and leaves by ``os._exit``.
    Each pipe is read to EOF before its child is reaped, so a result of any
    size comes back, and every child is reaped on every path.  Results come
    back in job order; a failure is re-raised as the lowest-index failing
    job's, with its type and message.  One worker (or ``threads < 1``) runs
    the jobs inline, as does any platform but Linux: Windows has no fork,
    and macOS system frameworks are not fork-safe.
    """
    workers = min(threads, len(jobs)) if sys.platform == "linux" else 1
    if workers <= 1:
        return [fn(job) for job in jobs]
    children = []  # (pid, read end) of each child not yet reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_share(fn, jobs[w::workers], write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        shares = [(*_share(fn, jobs[::workers]), None)]  # this process's, no trace
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            code = os.waitstatus_to_exitcode(status)
            shares.append(pickle.loads(data) if data else ([], RuntimeError(
                f"forked worker {pid} exited with code {code} and sent no results"), None))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [(w + len(results) * workers, exc, trace)
                for w, (results, exc, trace) in enumerate(shares) if exc is not None]
    if failures:
        _, exc, trace = min(failures, key=lambda failure: failure[0])
        if trace is None:
            raise exc
        raise exc from RuntimeError(f"raised in a forked worker:\n{trace}")
    ordered = [None] * len(jobs)
    for w, (results, _, _) in enumerate(shares):
        ordered[w::workers] = results
    return ordered


def _share(fn, jobs: list) -> tuple[list, Exception | None]:
    """A worker's results up to its first failure, and that failure."""
    results = []
    try:
        for job in jobs:
            results.append(fn(job))
    except Exception as exc:
        return results, exc
    return results, None


def _child_share(fn, jobs: list, write: int) -> NoReturn:
    """Run a forked worker's ``jobs``, pickle its share into ``write``, exit.

    A failure travels with its formatted traceback, which pickling drops.
    Whatever keeps the share from being sent is printed to stderr, and the
    child exits with code 1.
    """
    try:
        results, exc = _share(fn, jobs)
        trace = None if exc is None else "".join(traceback.format_exception(exc))
        data = pickle.dumps((results, exc, trace))
        with open(write, "wb") as sink:
            sink.write(data)
    except BaseException:  # not re-raised: the child must never unwind into the caller's stack
        traceback.print_exc()
        os._exit(1)
    os._exit(0)


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
