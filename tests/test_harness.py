import json
import math

import numpy as np
import pytest

from optomem.cli import main
from optomem.config import (
    COMBINED_KERR,
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
from optomem.runner import (
    read_trajectory_csv,
    read_wigner_field,
    run_single,
    run_snapshots,
    run_sweep,
)
from optomem.states import coherent_overlap, product_dm, coherent_ket, vacuum_ket


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
    assert parse_value("true") is True
    assert parse_value("false") is False
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
mode = combined_kerr
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
integrator.rtol = 1e-08
integrator.atol = 1e-10
sweep.axis = bath_temp
sweep.values = 3e-05, 0.03, 0.3, 3.0
"""


def test_config_text_frozen():
    # the key order and value formatting of the config echo are a file format
    assert format_config_text(sweep_to_flat(preset("fig7"))) == FIG7_TEXT


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_config_text("mode two_mode")
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
    assert fig2.mode == COMBINED_KERR
    assert fig2.dims == (30,)
    assert fig2.alpha == 1.5 + 0.0j
    assert fig2.params.k_c == 0.01 and fig2.params.k_m == 0.01
    assert fig2.params.gamma_c == 1e-5 and fig2.params.gamma_m == 1e-5
    assert fig2.params.bath_temp == 0.0
    assert fig2.snapshot_times == DEFAULT_SNAPSHOT_TIMES
    assert fig2.resolved_horizon() == pytest.approx(2.0 * 2.0 * math.pi / 0.02, rel=1e-12)

    fig4 = preset("fig4")
    assert fig4.mode == "two_mode"
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
        assert preset(name).base.mode == COMBINED_KERR
        assert preset(name).base.dims == (30,)


def test_run_config_validation_errors():
    with pytest.raises(ValueError):
        RunConfig(mode="bogus").validate()
    with pytest.raises(ValueError):
        RunConfig(mode=COMBINED_KERR, dims=(10, 10)).validate()
    with pytest.raises(ValueError):
        small_run_config(storage_mode=5).validate()
    with pytest.raises(ValueError):
        small_run_config(n_samples=50).validate()
    with pytest.raises(ValueError):
        small_run_config(snapshot_times=(100.0,)).validate()
    harmonic_auto = small_run_config()
    harmonic_auto.params = harmonic_auto.params.__class__(
        **{**harmonic_auto.params.__dict__, "k_c": 0.0, "k_m": 0.0}
    )
    harmonic_auto.horizon = None
    with pytest.raises(ValueError, match="harmonic limit"):
        harmonic_auto.resolved_horizon()


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


def test_config_echo_is_resolved(tmp_path):
    cfg = preset("fig4")
    cfg.dims = (5, 5)
    cfg.n_samples = 120
    cfg.horizon = None
    cfg.snapshot_times = ()
    run_single(cfg, tmp_path / "run")
    echo = parse_config_text((tmp_path / "run" / "config.txt").read_text())
    assert echo["time.horizon"] == pytest.approx(628.3185307179587)
    assert echo["mode"] == "two_mode"


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
    base = small_run_config(mode=COMBINED_KERR, dims=(8,), storage_mode=0)
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
    base = small_run_config(mode=COMBINED_KERR, dims=(6,), storage_mode=0)
    base.horizon = 330.0
    base.n_samples = 120
    spec = SweepSpec("gamma", (1e-5, 1e-3), base)
    run_sweep(spec, tmp_path / "serial", threads=1)
    run_sweep(spec, tmp_path / "pool", threads=2)
    assert (tmp_path / "serial" / "sweep_summary.csv").read_bytes() == (
        tmp_path / "pool" / "sweep_summary.csv"
    ).read_bytes()


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


def test_cli_config_file(tmp_path):
    cfg_text = format_config_text(config_to_flat(small_run_config()))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "revival_report.json").exists()


def test_cli_revival_report_round_trip(tmp_path, capsys):
    cfg = small_run_config(mode=COMBINED_KERR, dims=(8,), storage_mode=0)
    cfg.horizon = 330.0
    run_single(cfg, tmp_path / "run")
    capsys.readouterr()
    rc = main(["revival-report", "--run", str(tmp_path / "run")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "run" / "revival_report.json").read_text())
    assert payload["classification"] == stored["classification"]
    assert payload["n_peaks"] == stored["n_peaks"]


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
    mod = np.abs(traj.amplitude_mech)
    assert np.max(np.abs(mod - mod[0])) < 1e-8
    assert report.classification == "perfect_revival"
    assert report.n_peaks == 0 and report.collapse_windows == []
