import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import coherent_overlap

from optomem import runner
from optomem.cli import build_parser, main
from optomem.config import (
    DEFAULT_SNAPSHOT_TIMES,
    PRESET_NAMES,
    RunConfig,
    SweepSpec,
    config_from_flat,
    config_to_flat,
    format_config_text,
    load_object,
    parse_config_text,
    parse_value,
    preset,
    sweep_from_flat,
    sweep_to_flat,
)
from optomem.evolve import Trajectory
from optomem.runner import (
    read_trajectory_csv,
    read_wigner_field,
    run_single,
    run_snapshots,
    run_sweep,
    write_trajectory_csv,
    write_wigner_field,
)
from optomem.states import product_dm, coherent_ket, vacuum_ket
from optomem.wigner import PhaseSpaceGrid, WignerField, wigner


def small_run_config(**kw) -> RunConfig:
    cfg = preset("fig4")
    cfg.dims = (6, 6)
    cfg.n_samples = 150
    cfg.horizon = 40.0
    cfg.snapshot_times = ()
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def test_parse_value_types():
    assert parse_value("42") == 42
    assert parse_value("-3") == -3
    assert parse_value("0.5") == 0.5
    assert parse_value("1e-5") == 1e-5
    assert parse_value("1.5+0.5j") == 1.5 + 0.5j
    # no key is boolean: true and false are bare strings
    assert parse_value("true") == "true"
    assert parse_value("false") == "false"
    assert parse_value("none") is None
    assert parse_value("auto") == "auto"
    assert parse_value("two_mode") == "two_mode"
    assert parse_value("1, 2, 3") == (1, 2, 3)
    assert parse_value("0.1, 0.5") == (0.1, 0.5)


RUN_PRESETS = [name for name in PRESET_NAMES if isinstance(preset(name), RunConfig)]
SWEEP_PRESETS = [name for name in PRESET_NAMES if isinstance(preset(name), SweepSpec)]


def test_config_text_round_trip():
    assert RUN_PRESETS == ["fig2-combined", "fig4", "harmonic-check"]
    for name in RUN_PRESETS:
        cfg = preset(name)
        flat = config_to_flat(cfg)
        parsed = parse_config_text(format_config_text(flat))
        assert parsed == flat
        rebuilt = config_from_flat(parsed)
        assert rebuilt == cfg


def test_sweep_text_round_trip():
    assert SWEEP_PRESETS == ["fig5", "fig6", "fig7", "fig8"]
    for name in SWEEP_PRESETS:
        spec = preset(name)
        flat = sweep_to_flat(spec)
        parsed = parse_config_text(format_config_text(flat))
        rebuilt = sweep_from_flat(parsed)
        assert rebuilt == spec
        assert isinstance(load_object(parsed), SweepSpec)


FIG7_TEXT = """\
dims = 30,
storage_mode = 0
initial.alpha = 1.5+0j
params.omega_c = 0.35332235937862966
params.omega_m = 9.54937352541075e-09
params.k_c = 0.01
params.k_m = 0.01
params.g0 = 0.0020472
params.gamma_c = 1e-05
params.gamma_m = 1e-05
params.bath_temp = 0.0
time.horizon = auto
time.n_samples = 2000
snapshots = none
wigner.x_min = -5.0
wigner.x_max = 5.0
wigner.p_min = -5.0
wigner.p_max = 5.0
wigner.nx = 201
wigner.np = 201
wigner.mode = storage
sweep.axis = bath_temp
sweep.values = 3e-05, 0.03, 0.3, 3.0
"""


def test_config_text_frozen():
    # the key order and value formatting of the config echo are a file format
    assert format_config_text(sweep_to_flat(preset("fig7"))) == FIG7_TEXT


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_config_text("dims 10, 10")
    with pytest.raises(ValueError):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(ValueError):
        config_from_flat({"nonsense.key": 1})


def test_preset_names_complete():
    assert set(PRESET_NAMES) == {
        "fig2-combined", "fig4", "fig5", "fig6", "fig7", "fig8", "harmonic-check",
    }
    with pytest.raises(KeyError):
        preset("fig9")


def test_preset_values_frozen():
    fig2 = preset("fig2-combined")
    assert fig2.dims == (30,)
    assert fig2.alpha == 1.5 + 0.0j
    assert fig2.params.k_c == 0.01 and fig2.params.k_m == 0.01
    assert fig2.params.gamma_c == 1e-5 and fig2.params.gamma_m == 1e-5
    assert fig2.params.bath_temp == 0.0
    assert fig2.snapshot_times == DEFAULT_SNAPSHOT_TIMES
    assert fig2.resolved_horizon() == pytest.approx(2.0 * 2.0 * math.pi / 0.02, rel=1e-12)

    fig4 = preset("fig4")
    assert fig4.dims == (10, 10)
    assert fig4.storage_mode == 1
    assert fig4.params.g0 == pytest.approx(0.20472e-2)
    assert fig4.params.omega_c == pytest.approx(2.0 * math.pi * 0.056233)
    assert fig4.params.omega_m == pytest.approx(2.0 * math.pi * 0.151983e-8)

    harmonic = preset("harmonic-check")
    assert harmonic.params.k_c == 0.0 and harmonic.params.gamma_c == 0.0
    assert harmonic.horizon == pytest.approx(628.3185307179587)

    assert preset("fig5").values == (1e-5, 1e-4, 1e-3, 1e-2)
    assert preset("fig6").values == (0.5, 0.05, 0.005, 0.0005)
    assert preset("fig7").values == (30e-6, 30e-3, 0.3, 3.0)
    assert preset("fig8").values == (0.1, 0.5, 1.0, 2.0)
    for name in ("fig5", "fig6", "fig7", "fig8"):
        assert preset(name).base.dims == (30,)


def test_run_config_validation_errors():
    for dims in ((), (5, 5, 5)):
        with pytest.raises(ValueError, match="dims needs 1 entry"):
            RunConfig(dims=dims).validate()
    with pytest.raises(ValueError):
        small_run_config(storage_mode=5).validate()
    with pytest.raises(ValueError):
        small_run_config(n_samples=50).validate()
    with pytest.raises(ValueError):
        small_run_config(snapshot_times=(100.0,)).validate()
    # every revival threshold is relative to |<a>(0)|, which is 0 in vacuum
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        small_run_config(alpha=0j).validate()
    harmonic_auto = small_run_config()
    harmonic_auto.params = harmonic_auto.params.__class__(
        **{**harmonic_auto.params.__dict__, "k_c": 0.0, "k_m": 0.0}
    )
    harmonic_auto.horizon = None
    with pytest.raises(ValueError, match="harmonic limit"):
        harmonic_auto.resolved_horizon()


@pytest.mark.parametrize("key, value", [
    ("time.horizon", math.nan), ("time.horizon", math.inf),
    ("snapshots", (0.0, math.nan)), ("snapshots", (math.inf,)),
])
def test_non_finite_times_rejected(key, value):
    with pytest.raises(ValueError, match="finite"):
        config_from_flat({key: value})


def test_integrator_tolerance_keys_are_unknown():
    # the exact propagators take no tolerances; an old config file that
    # still sets them is rejected, not silently half-applied
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_flat({"integrator.rtol": 1e-8})


def test_mode_key_is_unknown():
    # the model follows from the number of entries in dims; an old config
    # that still names it is refused like any other unknown key
    with pytest.raises(ValueError, match=r"unknown config keys: \['mode'\]"):
        config_from_flat({"mode": "two_mode"})


def test_cli_refuses_three_modes(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"dims needs 1 entry \(combined-Kerr model\) or 2"):
        main(["simulate", "--preset", "fig4", "--out", str(out), "--override", "dims=5,5,5"])
    assert not out.exists()


def test_cli_model_follows_from_dims(tmp_path):
    # one entry in dims is the combined-Kerr model, whatever preset it came from
    main(["simulate", "--preset", "fig4", "--out", str(tmp_path / "fig4"),
          "--override", "dims=30,", "--override", "storage_mode=0"])
    main(["simulate", "--preset", "fig2-combined", "--out", str(tmp_path / "fig2")])
    for name in ("trajectory.csv", "revival_report.json"):
        assert (tmp_path / "fig4" / name).read_bytes() == (tmp_path / "fig2" / name).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "wigner-snapshots"])
def test_cli_one_level_storage_mode_writes_nothing(tmp_path, command):
    # it used to evolve every sample and only then fail in revival detection
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="storage mode at least 2 levels"):
        main([command, "--preset", "fig2-combined", "--out", str(out), "--override", "dims=1"])
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "params.gamma_m=nan", "params.k_c=inf", "params.bath_temp=inf", "params.g0=nan",
])
def test_cli_non_finite_parameter_writes_nothing(tmp_path, override):
    # NaN passes a "< 0" check and used to drop the dissipator silently;
    # inf filled the generator with NaN
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="finite"):
        main(["simulate", "--preset", "fig2-combined", "--out", str(out),
              "--override", override, "--override", "snapshots=none"])
    assert not out.exists()


def test_cli_non_finite_snapshot_writes_nothing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="finite"):
        main(["wigner-snapshots", "--preset", "fig4", "--out", str(out),
              "--override", "snapshots=0,nan"])
    assert not out.exists()


def test_cli_non_finite_grid_extent_writes_nothing(tmp_path):
    # an infinite extent used to write grids whose every cell was NaN
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="grid extent x_max must be finite"):
        main(["wigner-snapshots", "--preset", "fig2-combined", "--out", str(out),
              "--override", "wigner.x_max=inf"])
    assert not out.exists()


def test_cli_simulate_refuses_a_snapshot_outside_the_horizon(tmp_path):
    # simulate writes no grids, but its config is still checked whole
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="snapshot times"):
        main(["simulate", "--preset", "fig4", "--out", str(out), "--override", "snapshots=1000"])
    assert not out.exists()


def test_run_config_refuses_a_one_level_storage_mode():
    # |<a>(0)| is 0 on a one-level storage mode, as at alpha == 0; and a
    # mode needs at least one level
    for dims, storage_mode in (((1,), 0), ((10, 1), 1), ((0,), 0), ((0, 10), 1)):
        with pytest.raises(ValueError, match="dims must give"):
            small_run_config(dims=dims, storage_mode=storage_mode).validate()
    small_run_config(dims=(1, 2)).validate()


def test_wigner_mode_validation():
    # anything but "storage" or an in-range index fails before any evolution
    for bad in ("foo", 2, -1, 1.0, True):
        with pytest.raises(ValueError, match="wigner.mode"):
            config_from_flat({"wigner.mode": bad})
    assert config_from_flat({"wigner.mode": "storage"}).resolved_wigner_mode() == 1
    assert config_from_flat({"wigner.mode": 0}).resolved_wigner_mode() == 0


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("bogus", (1.0,), small_run_config()).validate()
    with pytest.raises(ValueError):
        SweepSpec("gamma", (), small_run_config()).validate()
    with pytest.raises(ValueError):
        SweepSpec("gamma", (1e-5, 1e-5), small_run_config()).validate()
    # distinct values whose point directories would both be gamma_1e-05
    with pytest.raises(ValueError):
        SweepSpec("gamma", (1e-5, 1.0000001e-5), small_run_config()).validate()


@pytest.mark.parametrize("key, text", [
    ("storage_mode", "0.9"), ("time.n_samples", "2000.7"), ("dims", "10.5, 10"),
    ("wigner.nx", "201.9"), ("params.k_c", "true"), ("initial.alpha", "true"),
    ("snapshots", "true"),
])
def test_config_values_are_not_coerced(key, text):
    # each used to run truncated or as a bool cast to a number
    with pytest.raises(ValueError, match=f"^{re.escape(key)}: "):
        config_from_flat({key: parse_value(text)})


@pytest.mark.parametrize("name, overrides", [
    pytest.param("fig8", ["sweep.values=1.0,nan"], id="fig8-1.0,nan"),
    pytest.param("fig5", ["sweep.values=1e-5,-1e-3"], id="fig5-1e-5,-1e-3"),
    pytest.param("fig6", ["sweep.values=0.5,inf"], id="fig6-0.5,inf"),
    # alpha = 0 stores nothing and used to report a perfect revival
    pytest.param("fig8", ["sweep.values=0,1"], id="fig8-0,1"),
    # the base config is sampled finely enough, the k = 0.5 point is not
    pytest.param("fig6", ["dims=6,", "time.n_samples=400", "time.horizon=1000"],
                 id="fig6-too-coarse"),
])
def test_cli_bad_sweep_point_writes_nothing(tmp_path, name, overrides):
    # each used to fail only after the sweep config (and the points before
    # the bad one) had been written: into a fresh directory, and over a
    # finished sweep of the same preset
    def sweep(out, *items):
        main(["sweep", "--preset", name, "--out", str(out), "--threads", "1",
              *(arg for item in items for arg in ("--override", item))])

    fresh, finished = tmp_path / "fresh", tmp_path / "finished"
    sweep(finished, "dims=6,")
    before = _digests(finished)
    for out in (fresh, finished):
        with pytest.raises(ValueError, match="sweep point"):
            sweep(out, *overrides)
    assert not fresh.exists()
    assert _digests(finished) == before


def test_sweep_point_config_application():
    spec = preset("fig5")
    cfg = spec.point_config(1e-3)
    assert cfg.params.gamma_c == 1e-3 and cfg.params.gamma_m == 1e-3
    cfg = preset("fig6").point_config(0.005)
    assert cfg.params.k_c == 0.005 and cfg.params.k_m == 0.005
    assert cfg.resolved_horizon() == pytest.approx(2.0 * 2.0 * math.pi / 0.01)
    cfg = preset("fig7").point_config(0.3)
    assert cfg.params.bath_temp == 0.3
    cfg = preset("fig8").point_config(2.0)
    assert cfg.alpha == 2.0 + 0.0j


def test_run_single_outputs(tmp_path):
    cfg = small_run_config()
    traj, report = run_single(cfg, tmp_path / "run")
    assert (tmp_path / "run" / "config.txt").exists()
    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert (tmp_path / "run" / "revival_report.json").exists()

    columns = read_trajectory_csv(tmp_path / "run" / "trajectory.csv")
    assert list(columns) == [
        "t", "re_a", "im_a", "abs_a", "re_b", "im_b", "abs_b",
        "trace", "purity", "coherent_overlap",
    ]
    assert columns["t"].size == 150
    assert columns["trace"][0] == pytest.approx(1.0, abs=1e-9)
    # overlap column matches a direct evaluation at t = 0
    dm0 = product_dm([vacuum_ket(6), coherent_ket(1.5, 6)])
    assert columns["coherent_overlap"][0] == pytest.approx(
        coherent_overlap(dm0, 1.5, mode=1), abs=1e-9
    )

    payload = json.loads((tmp_path / "run" / "revival_report.json").read_text())
    assert payload["classification"] == report.classification
    assert "quality" in payload and payload["quality"]["n_steps"] == traj.n_steps


def test_read_trajectory_csv_parses_like_float_and_rejects_a_bad_cell(tmp_path):
    run_single(small_run_config(), tmp_path / "run")
    path = tmp_path / "run" / "trajectory.csv"
    lines = path.read_text().splitlines()
    columns = read_trajectory_csv(path)
    assert list(columns) == lines[0].split(",")
    cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for i, column in enumerate(columns.values()):
        assert column.tobytes() == cells[:, i].tobytes()
    row = lines[5].split(",")
    lines[5] = ",".join([row[0], "1.2e-0x", *row[2:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_read_trajectory_csv_names_a_file_without_the_header_or_rows(tmp_path):
    run_single(small_run_config(), tmp_path / "run")
    path = tmp_path / "run" / "trajectory.csv"
    lines = path.read_text().splitlines()
    for text in ("", lines[0] + "\n", "\n".join(["t,abs_b", *lines[1:]]) + "\n",
                 "\n".join([lines[0], "1.0,2.0"]) + "\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_trajectory_csv(path)


def test_config_echo_is_resolved(tmp_path):
    cfg = preset("fig4")
    cfg.dims = (5, 5)
    cfg.n_samples = 120
    cfg.horizon = None
    cfg.snapshot_times = ()
    run_single(cfg, tmp_path / "run")
    echo = parse_config_text((tmp_path / "run" / "config.txt").read_text())
    assert echo["time.horizon"] == pytest.approx(628.3185307179587)
    assert echo["dims"] == (5, 5)
    assert "mode" not in echo


def test_run_single_deterministic(tmp_path):
    cfg = small_run_config()
    run_single(cfg, tmp_path / "a")
    run_single(cfg, tmp_path / "b")
    for name in ("config.txt", "trajectory.csv", "revival_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_snapshots_and_grid_round_trip(tmp_path):
    cfg = preset("fig2-combined")
    cfg.horizon = 100.0
    cfg.n_samples = 150
    cfg.snapshot_times = (0.0, 30.0)
    cfg.wigner_grid = cfg.wigner_grid.__class__(-5.0, 5.0, -5.0, 5.0, 41, 41)
    paths = run_snapshots(cfg, tmp_path / "snap")
    assert [p.name for p in paths] == ["wigner_t0.000_mode0.dat", "wigner_t30.000_mode0.dat"]
    field = read_wigner_field(paths[0])
    assert field.grid.nx == 41
    # initial coherent state: positive single blob
    assert field.values.min() > -1e-6
    assert field.integral() == pytest.approx(1.0, abs=2e-2)


def test_run_snapshots_requires_snapshot_times(tmp_path):
    cfg = small_run_config()
    with pytest.raises(ValueError):
        run_snapshots(cfg, tmp_path / "snap")


def test_run_sweep_summary_and_point_artifacts(tmp_path):
    base = small_run_config(dims=(8,), storage_mode=0)
    base.horizon = 330.0
    base.n_samples = 140
    spec = SweepSpec("alpha", (0.6, 0.1), base)
    rows = run_sweep(spec, tmp_path / "sw")
    assert [row["parameter"] for row in rows] == [0.1, 0.6]
    summary = (tmp_path / "sw" / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "parameter,first_revival_ratio,n_peaks,classification"
    assert len(summary) == 3
    assert (tmp_path / "sw" / "alpha_0.1" / "trajectory.csv").exists()
    assert (tmp_path / "sw" / "alpha_0.6" / "revival_report.json").exists()
    assert (tmp_path / "sw" / "config.txt").exists()


def test_run_sweep_thread_pool_matches_serial(tmp_path):
    base = small_run_config(dims=(6,), storage_mode=0)
    base.horizon = 330.0
    base.n_samples = 120
    spec = SweepSpec("gamma", (1e-5, 1e-3), base)
    run_sweep(spec, tmp_path / "serial", threads=1)
    run_sweep(spec, tmp_path / "pool", threads=2)
    serial, pool = _digests(tmp_path / "serial"), _digests(tmp_path / "pool")
    # summary, sweep echo and config/CSV/report of both points
    assert len(serial) == 8
    assert pool == serial


def _digests(root) -> dict:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def small_snapshot_config() -> RunConfig:
    cfg = preset("fig2-combined")
    cfg.dims = (8,)
    cfg.horizon = 160.0
    cfg.n_samples = 100
    cfg.snapshot_times = (0.0, 20.0, 40.0, 79.0, 120.0)
    cfg.wigner_grid = PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 21, 17)
    return cfg


def test_run_snapshots_writes_one_grid_per_time(tmp_path):
    cfg = small_snapshot_config()
    paths = run_snapshots(cfg, tmp_path / "snap")
    # one grid per snapshot time, in the order of the times
    names = [f"wigner_t{t:.3f}_mode0.dat" for t in cfg.snapshot_times]
    assert paths == [tmp_path / "snap" / name for name in names]
    assert sorted(_digests(tmp_path / "snap")) == sorted(["config.txt", *names])


def counted_forks(monkeypatch) -> list:
    """The pids ``os.fork`` returns to this process from now on."""
    pids, fork = [], os.fork

    def counting_fork():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_capped_at_the_job_count(tmp_path, monkeypatch):
    forks = counted_forks(monkeypatch)
    base = small_run_config(dims=(6,), storage_mode=0)
    base.horizon = 330.0
    base.n_samples = 120
    spec = SweepSpec("gamma", (1e-5, 1e-3), base)
    # a worker per sweep point, this process being one of them
    run_sweep(spec, tmp_path / "sweep", threads=64)
    assert len(forks) == 1
    # one worker forks nothing
    run_sweep(spec, tmp_path / "one", threads=1)
    assert len(forks) == 1
    assert_no_child_left()


def test_pool_runs_inline_outside_linux(monkeypatch):
    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert runner._pool_map(lambda job: os.getpid(), [0, 1, 2], 3) == [os.getpid()] * 3
    assert forks == []


def test_pool_keeps_job_order_at_every_worker_count(monkeypatch):
    forks = counted_forks(monkeypatch)
    jobs = list(range(7))
    for threads in range(1, len(jobs) + 2):
        before = len(forks)
        results = runner._pool_map(lambda job: (job, os.getpid()), jobs, threads)
        assert [job for job, _ in results] == jobs
        # job j ran on worker j % workers; worker 0 is this process
        pids = [os.getpid(), *forks[before:]]
        workers = len(pids)
        assert workers == min(threads, len(jobs))
        assert [pid for _, pid in results] == [pids[job % workers] for job in jobs]
    assert_no_child_left()


def test_pool_returns_results_larger_than_a_pipe_buffer():
    # a child blocks on a full pipe until its result is read
    results = runner._pool_map(lambda job: np.full(100_000, job), [1.0, 2.0, 3.0], 3)
    assert [r.nbytes for r in results] == [800_000] * 3
    assert [float(r.sum()) for r in results] == [1e5, 2e5, 3e5]
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [
    ({1}, 1),     # in the child's share
    ({2}, 2),     # in this process's share
    ({1, 2}, 1),  # the lowest index wins, wherever it ran
    ({2, 3}, 2),
])
def test_pool_raises_the_lowest_failing_job(failing, raised):
    def job(index):
        if index in failing:
            raise LookupError(f"job {index} failed")
        return index

    # with 2 workers jobs 0 and 2 run in this process, 1 and 3 in the child
    with pytest.raises(LookupError) as exc:
        runner._pool_map(job, [0, 1, 2, 3], 2)
    assert str(exc.value) == f"job {raised} failed"
    # a child's failure carries its traceback from the child
    if raised % 2:
        assert "LookupError: job 1 failed" in str(exc.value.__cause__)
    assert_no_child_left()


def test_pool_names_a_child_that_sends_nothing():
    parent = os.getpid()

    def job(index):
        if os.getpid() != parent:
            os._exit(3)
        return index

    with pytest.raises(RuntimeError, match="exited with code 3 and sent no results"):
        runner._pool_map(job, [0, 1], 2)
    assert_no_child_left()


def test_pool_kills_its_children_when_this_process_stops():
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def job(index):
        if os.getpid() == parent:
            raise Stop
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(Stop):
        runner._pool_map(job, [0, 1, 2], 3)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_invalid_run_creates_no_output_directory(tmp_path):
    with pytest.raises(ValueError, match="n_samples"):
        run_single(small_run_config(n_samples=5), tmp_path / "single")
    cfg = small_snapshot_config()
    cfg.n_samples = 5
    with pytest.raises(ValueError, match="n_samples"):
        run_snapshots(cfg, tmp_path / "snap")
    assert list(tmp_path.iterdir()) == []


def test_invalid_run_leaves_a_finished_run_untouched(tmp_path):
    run_single(small_run_config(), tmp_path / "run")
    before = _digests(tmp_path / "run")
    with pytest.raises(ValueError, match="n_samples"):
        run_single(small_run_config(n_samples=5), tmp_path / "run")
    assert "time.n_samples = 150" in (tmp_path / "run" / "config.txt").read_text()
    assert _digests(tmp_path / "run") == before


def load_benchmark_child():
    """``perfbench/child.py``, the benchmark's workload process, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_what_it_wraps(monkeypatch):
    child = load_benchmark_child()
    # the traced run getattr()s each name of its optomem.<layer> module
    for layer, names in child.LAYERS.items():
        module = importlib.import_module(f"optomem.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"optomem.{layer}.{name}"
    # ...and divides by the generator products its stand-in evolve counts
    records = []
    monkeypatch.setattr(runner, "evolve", child.counting_evolve(records)(runner.evolve))
    traj, _ = runner.simulate(small_run_config(dims=(6,), storage_mode=0))
    [record] = records
    assert record["matvecs"] >= 1
    assert record["steps"] == traj.n_steps > 0
    assert record["rejected"] == 0


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
@pytest.mark.parametrize("command, name", [("sweep", "fig7")])
def test_cli_rejects_bad_thread_counts(tmp_path, capsys, command, name, threads):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", name, "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_threads_flag_only_on_pooled_commands(tmp_path, capsys):
    # the default is the number of CPUs this process may use
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parser = build_parser()
    args = parser.parse_args(["sweep", "--preset", "fig7", "--out", str(tmp_path)])
    assert args.threads == usable
    # simulate and wigner-snapshots run in one thread and take no --threads
    for command, name in [("simulate", "fig4"), ("wigner-snapshots", "fig2-combined")]:
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", name, "--out", str(out), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


def test_cli_colliding_snapshot_names_write_nothing(tmp_path):
    # both times print as t10.000; one grid would silently replace the other
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="wigner_t10.000_mode0.dat"):
        main(["wigner-snapshots", "--preset", "fig2-combined", "--out", str(out),
              "--override", "snapshots=0,10.0001,10.0004"])
    assert not out.exists()


def test_cli_negative_zero_snapshot_time_is_zero(tmp_path):
    # -0.0 used to write wigner_t-0.000_mode0.dat
    out = tmp_path / "out"
    main(["wigner-snapshots", "--preset", "fig2-combined", "--out", str(out),
          "--override", "dims=8,", "--override", "snapshots=-0.0,10"])
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt", "wigner_t0.000_mode0.dat", "wigner_t10.000_mode0.dat"]
    assert "snapshots = 0.0, 10.0\n" in (out / "config.txt").read_text()


# imports the CLI, runs the benchmark's three commands in that process and
# prints, for each of the package roots it is given, the modules under it
# that are loaded after the import and after the runs
_MODULE_PROBE = """
import contextlib, io, json, sys
import optomem.cli as cli

out, roots = sys.argv[1], sys.argv[2:]

def loaded():
    return {root: sorted(m for m in sys.modules if m.split(".")[0] == root) for root in roots}

after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["wigner-snapshots", "--preset", "fig2-combined", "--out", out + "/fig2"])
    cli.main(["simulate", "--preset", "fig4", "--out", out + "/fig4"])
    cli.main(["revival-report", "--run", out + "/fig4"])
    cli.main(["sweep", "--preset", "fig7", "--threads", "2", "--out", out + "/fig7"])
print(json.dumps([after_import, loaded()]))
"""


@pytest.fixture(scope="module")
def probed_modules(tmp_path_factory):
    """The probe's modules after the import and after the runs, and its output."""
    out = tmp_path_factory.mktemp("probe")
    src = str(Path(runner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, str(out), "scipy", "concurrent", "multiprocessing"],
        env=env, capture_output=True, text=True, check=True)
    after_import, after_runs = json.loads(probe.stdout)
    return after_import, after_runs, out


def test_default_path_loads_no_scipy(probed_modules):
    # every preset the benchmark runs stays on the dense path, which needs
    # numpy alone; scipy.signal (peak finding) and scipy.special were the
    # first modules kept off it
    after_import, after_runs, out = probed_modules
    assert after_import["scipy"] == [] and after_runs["scipy"] == []
    assert (out / "fig7" / "sweep_summary.csv").exists()


def test_commands_load_no_process_pool_modules(probed_modules):
    # a sweep forks its workers itself; importing concurrent.futures.process
    # for them cost every command 10-19 ms at start-up
    after_import, after_runs, out = probed_modules
    for root in ("concurrent", "multiprocessing"):
        assert after_import[root] == [] and after_runs[root] == []
    assert len(list((out / "fig7").glob("bath_temp_*/trajectory.csv"))) == 4


def test_run_snapshots_names_a_negative_zero_time_zero(tmp_path):
    # a library caller's -0.0 is not parsed from text; it used to write
    # wigner_t-0.000_mode0.dat
    config = replace(preset("fig2-combined"), dims=(8,), snapshot_times=(-0.0, 10.0))
    paths = run_snapshots(config, tmp_path / "out")
    assert [p.name for p in paths] == ["wigner_t0.000_mode0.dat", "wigner_t10.000_mode0.dat"]


def test_sweep_spec_refuses_zero_and_negative_zero():
    # a library caller's -0.0 is not parsed from text; it used to validate
    # and name the point bath_temp_-0
    spec = preset("fig7")
    assert spec.point_dir(-0.0) == spec.point_dir(0.0) == "bath_temp_0"
    with pytest.raises(ValueError, match="bath_temp_0"):
        SweepSpec("bath_temp", (0.0, -0.0), spec.base).validate()


def test_cli_sweep_refuses_zero_and_negative_zero(tmp_path):
    # both name the point bath_temp_0; -0.0 used to run it again as bath_temp_-0
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="bath_temp_0"):
        main(["sweep", "--preset", "fig7", "--out", str(out), "--threads", "1",
              "--override", "sweep.values=0.0,-0.0"])
    assert not out.exists()


def test_cli_simulate_with_overrides(tmp_path, capsys):
    rc = main([
        "simulate", "--preset", "fig4", "--out", str(tmp_path / "out"),
        "--override", "dims=6,6", "--override", "time.n_samples=150",
        "--override", "time.horizon=40",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trajectory.csv" in out and "classification" in out
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_cli_simulate_reports_propagation_path(tmp_path, capsys):
    rc = main([
        "simulate", "--preset", "fig2-combined", "--out", str(tmp_path / "out"),
        "--override", "dims=6,", "--override", "time.n_samples=150",
        "--override", "time.horizon=40", "--override", "snapshots=none",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "live 36/36, 11 blocks (max 6), expm" in out
    # k = 0 whole plus one block of each pair k = +-1 .. +-5
    assert "expm, 21 propagated" in out
    # run stats stay out of the artifacts
    payload = json.loads((tmp_path / "out" / "revival_report.json").read_text())
    assert sorted(payload["quality"]) == [
        "max_hermiticity_error", "max_trace_drift", "n_rejected", "n_steps",
    ]
    assert "expm" not in (tmp_path / "out" / "trajectory.csv").read_text()


def test_cli_config_file(tmp_path):
    cfg_text = format_config_text(config_to_flat(small_run_config()))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "revival_report.json").exists()


def test_cli_revival_report_round_trip(tmp_path, capsys):
    cfg = small_run_config(dims=(8,), storage_mode=0)
    cfg.horizon = 330.0
    run_single(cfg, tmp_path / "run")
    capsys.readouterr()
    rc = main(["revival-report", "--run", str(tmp_path / "run")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "run" / "revival_report.json").read_text())
    assert payload["classification"] == stored["classification"]
    assert payload["n_peaks"] == stored["n_peaks"]


def test_cli_revival_report_names_an_empty_trajectory_file(tmp_path):
    run_single(small_run_config(), tmp_path / "run")
    path = tmp_path / "run" / "trajectory.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        main(["revival-report", "--run", str(tmp_path / "run")])


def test_cli_revival_report_refuses_a_config_with_a_mode_line(tmp_path, capsys):
    run_single(small_run_config(), tmp_path / "run")
    path = tmp_path / "run" / "config.txt"
    path.write_text("mode = two_mode\n" + path.read_text())
    capsys.readouterr()
    with pytest.raises(ValueError, match=r"unknown config keys: \['mode'\]"):
        main(["revival-report", "--run", str(tmp_path / "run")])
    assert capsys.readouterr().out == ""


def test_cli_revival_report_refuses_a_snapshot_run(tmp_path, capsys):
    # a wigner-snapshots directory holds config.txt but no trajectory.csv;
    # the report used to die with a FileNotFoundError traceback
    out = tmp_path / "snap"
    main(["wigner-snapshots", "--preset", "fig2-combined", "--out", str(out),
          "--override", "dims=8,", "--override", "snapshots=0"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["revival-report", "--run", str(out)])
    assert exc.value.code == f"{out / 'trajectory.csv'} not found; revival-report reads a `simulate` run"
    assert capsys.readouterr().out == ""


def test_cli_unknown_preset_is_refused_and_writes_nothing(tmp_path):
    # it used to end in a KeyError traceback from config.preset
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "nosuch", "--out", str(out)])
    assert exc.value.code == f"unknown preset 'nosuch'; available: {', '.join(sorted(PRESET_NAMES))}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_unreadable_config_is_refused_and_writes_nothing(tmp_path, capsys, command):
    # it used to end in a FileNotFoundError traceback from read_text
    missing, out = tmp_path / "missing.cfg", tmp_path / "out"
    for config, reason in [(missing, "No such file or directory"), (tmp_path, "Is a directory")]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--out", str(out)])
        assert exc.value.code == f"{config}: cannot read --config: {reason}"
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.iterdir()) == []


def test_cli_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "fig5", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["sweep", "--preset", "fig4", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "fig4", "--config", "x.cfg", "--out", str(tmp_path)])


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_harmonic_check_constant_amplitude():
    from optomem.runner import simulate

    cfg = preset("harmonic-check")
    traj, report = simulate(cfg)
    mod = np.abs(traj.amplitudes[1])
    assert np.max(np.abs(mod - mod[0])) < 1e-8
    assert report.classification == "perfect_revival"
    assert report.n_peaks == 0 and report.collapse_windows == []


# Values whose %.9e rendering is easy to get wrong: signed zero, a
# subnormal, +-1/pi and a tiny normal number.
AWKWARD = [-0.0, 0.0, 5e-324, 1.0 / math.pi, -1.0 / math.pi, 1e-300, -2.5e-7, 123.456]


def _f(x) -> str:
    return f"{x:.9e}"


def _grid_text(field: WignerField) -> str:
    """A grid file as written one Python-formatted value at a time."""
    g = field.grid
    lines = [f"{_f(g.x_min)} {_f(g.x_max)} {g.nx}", f"{_f(g.p_min)} {_f(g.p_max)} {g.np}"]
    lines += [" ".join(_f(v) for v in field.values[:, j]) for j in range(g.np)]
    return "\n".join(lines) + "\n"


def _csv_text(traj: Trajectory) -> str:
    """A trajectory CSV as written one Python-formatted value at a time."""
    lines = ["t,re_a,im_a,abs_a,re_b,im_b,abs_b,trace,purity,coherent_overlap"]
    for i in range(traj.times.size):
        # a one-mode run has no b amplitude: its b columns are zeros
        a = traj.amplitudes[0, i]
        b = traj.amplitudes[1, i] if len(traj.amplitudes) > 1 else 0j
        ovl = traj.coherent_overlap[i] if traj.coherent_overlap is not None else 0.0
        lines.append(",".join(_f(v) for v in (
            traj.times[i], a.real, a.imag, abs(a), b.real, b.imag, abs(b),
            traj.trace[i], traj.purity[i], ovl)))
    return "\n".join(lines) + "\n"


def test_write_wigner_field_matches_per_value_format(tmp_path):
    grid = PhaseSpaceGrid(-1.5, 2.0, -0.5, 0.25, 4, 3)
    field = WignerField(grid, np.array(AWKWARD + AWKWARD[::-1][:4]).reshape(4, 3))
    path = tmp_path / "w.dat"
    write_wigner_field(path, field)
    assert path.read_text() == _grid_text(field)


@pytest.mark.parametrize("with_overlap, n_modes", [
    pytest.param(True, 2, id="True"),
    pytest.param(False, 2, id="False"),
    pytest.param(False, 1, id="one-mode"),
])
def test_write_trajectory_csv_matches_per_value_format(tmp_path, with_overlap, n_modes):
    # the first three amplitudes are complex values whose np.abs, unlike
    # abs(), renders differently in the last printed digit on some builds
    amp = np.array(
        [complex(-1.3674329564901937, 1.1446032098567502),
         complex(-0.8405508663072765, -0.12473879202101186),
         complex(0.8550733931481709, -0.05289103460486539)]
        + [complex(v, w) for v, w in zip(AWKWARD, AWKWARD[::-1])]
    )
    n = amp.size
    real = np.resize(np.array(AWKWARD), n)
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, n), amplitudes=np.array([amp, amp[::-1]])[:n_modes],
        trace=real, purity=real[::-1], coherent_overlap=real if with_overlap else None,
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    assert path.read_text() == _csv_text(traj)


# a header-only file makes np.loadtxt warn before the shape check refuses it
@pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
def test_read_wigner_field_parses_like_float_and_rejects_a_malformed_file(tmp_path):
    grid = PhaseSpaceGrid(-1.5, 2.0, -0.5, 0.25, 4, 3)
    path = tmp_path / "w.dat"
    write_wigner_field(path, WignerField(grid, np.array(AWKWARD + AWKWARD[:4]).reshape(4, 3)))
    lines = path.read_text().splitlines()
    cells = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    assert read_wigner_field(path).values.tobytes() == cells.T.tobytes()
    for text in ("", lines[0] + "\n", "\n".join(lines[:2]) + "\n", "\n".join(lines[:-1]) + "\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_wigner_field(path)


def test_writers_match_per_value_format_on_reference_runs(tmp_path, fig2_result, fig4_result):
    traj = fig2_result[0]
    field = wigner(dict(traj.snapshots)[79.0], preset("fig2-combined").wigner_grid)
    write_wigner_field(tmp_path / "w.dat", field)
    assert (tmp_path / "w.dat").read_text() == _grid_text(field)
    write_trajectory_csv(tmp_path / "t.csv", fig4_result[0])
    assert (tmp_path / "t.csv").read_text() == _csv_text(fig4_result[0])


def _near_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubles nearest to n random 10-digit half-way points, and +-40 ulps around them."""
    digits = rng.integers(10**9, 10**10, n)
    exps = rng.integers(-99, 100, n)
    ties = np.array([float(f"{d}5e{e - 10}") for d, e in zip(digits.tolist(), exps.tolist())])
    ulps = np.arange(-40, 41)
    return (ties[:, None] + ulps * np.spacing(ties)[:, None]).ravel()


def test_render_matches_per_value_format():
    rng = np.random.default_rng(20100605)
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([float(f"1e{k}") for k in range(-323, 308)])
    edges = np.concatenate([powers10, 9.9999999995 * powers10])
    special = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        np.nan, -np.nan, np.inf, -np.inf, 1e100, -1e-100, 9.99999999949e99,
        1.7976931348623157e308, 2.0**-15, 12345678905.0, 1.00000000005,
    ]
    random_bits = rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(float)
    chosen = np.concatenate([
        powers2, -powers2,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        9.9999999995 + np.arange(-1000, 1000) * np.spacing(9.9999999995),
        _near_ties(rng, 500),
        rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(float),  # subnormals
        special,
    ])
    # the random patterns in rows of 20 cells, the chosen values as one column
    for values in (random_bits.reshape(-1, 20), chosen.reshape(-1, 1)):
        rows = [list(map("%.9e".__mod__, row)) for row in values.tolist()]
        for sep in (" ", ","):
            expected = "".join(sep.join(row) + "\n" for row in rows).encode()
            assert runner._render(values, sep) == expected


def test_render_keeps_the_leading_zeros_of_each_digit_group():
    # the significand is written as 2 + 4 + 4 digits: groups such as 0001,
    # 0000 and 0090 keep their zeros
    cells = ["1.000010000e-05", "3.000000001e+00", "-9.000900090e+07", "1.000000000e+00",
             "-2.050000007e-99", "0.000000000e+00", "-0.000000000e+00"]
    values = np.array([[float(cell) for cell in cells]])
    assert [f"{v:.9e}" for v in values[0]] == cells
    assert runner._render(values, ",") == (",".join(cells) + "\n").encode()
    assert runner._render(values.T, " ") == "".join(cell + "\n" for cell in cells).encode()


def test_render_in_row_chunks_joins_to_the_whole_grid():
    # rows are independent, so a grid rendered a few rows at a time (as
    # write_wigner_field does) is the grid rendered at once
    rng = np.random.default_rng(11)
    values = rng.normal(scale=0.1, size=(201, 201))
    values[::7, ::5] = np.resize(AWKWARD, values[::7, ::5].shape)
    values[3, :40] = _near_ties(rng, 1)[:40]
    whole = runner._render(values, " ")
    for rows in (1, runner._GRID_ROWS, 200):
        chunked = b"".join(runner._render(values[i:i + rows], " ") for i in range(0, 201, rows))
        assert chunked == whole


def test_render_covers_every_table_word():
    # one cell for each word a table can contribute: every four-digit group
    # in each of the two group positions, every leading pair with each sign
    # (10..99, and 00 for a zero; 01..09 never lead) and every exponent
    groups = np.arange(10_000)
    cells = ([f"1.0{n:04d}0000e+00" for n in groups] + [f"1.00000{n:04d}e+00" for n in groups]
             + [f"{s}{p // 10}.{p % 10}00000000e+00" for s in ("", "-") for p in range(10, 100)]
             + ["0.000000000e+00", "-0.000000000e+00"]
             + [f"{s}7.654321098e{e:+03d}" for s in ("", "-") for e in range(-99, 100)])
    values = np.array([float(cell) for cell in cells])
    assert list(map("%.9e".__mod__, values.tolist())) == cells
    # every cell takes the table path, not Python's fallback
    assert runner._significands(values)[2].all()
    for sep in (" ", ","):
        assert runner._render(values.reshape(1, -1), sep) == (sep.join(cells) + "\n").encode()
        assert runner._render(values.reshape(-1, 1), sep) == "".join(c + "\n" for c in cells).encode()


def test_cli_simulate_fig4_at_the_reference_bath_temperature(tmp_path):
    # exp(omega_c / T) overflows a float at 30 mK; the optical occupation
    # must underflow to 0 instead of aborting the run
    rc = main(["simulate", "--preset", "fig4", "--out", str(tmp_path / "out"),
               "--override", "params.bath_temp=0.03"])
    assert rc == 0
    assert (tmp_path / "out" / "revival_report.json").exists()


def test_artifact_diff_counts_values_and_largest_difference(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
    spec = importlib.util.spec_from_file_location("artifact_diff", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    files = {
        "run/trajectory.csv": ("t,x,c\n1.0e+00,2.0,ok\n", "t,x,c\n1.00e+00,2.5,bad\n"),
        "run/revival_report.json": ('{"q": {"n": 1, "r": 0.5, "s": "a"}}',
                                    '{"q": {"n": 1, "r": 0.75, "s": "b"}}'),
        "wigner.dat": ("1 2\n3 4\n", "1 2\n3 4.25\n"),
        "config.txt": ("a = 1\n", "a = 1\n"),
    }
    for side, root in enumerate((tmp_path / "a", tmp_path / "b")):
        for rel, texts in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(texts[side])
    (tmp_path / "a" / "gone.txt").write_text("x\n")
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    # a cell equal as a number but not as text does not differ
    assert capsys.readouterr().out.splitlines() == [
        f"only in {tmp_path / 'a'}  gone.txt",
        "2/3  max |diff| 2.500e-01  changed: q.s a -> b  run/revival_report.json",
        "2/6  max |diff| 5.000e-01  changed: 2:3 ok -> bad  run/trajectory.csv",
        "1/4  max |diff| 2.500e-01  wigner.dat",
    ]
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
