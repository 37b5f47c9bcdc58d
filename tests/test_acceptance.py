"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Golden values marked "frozen" were pinned from the first validated run of
this implementation (adaptive integrator cross-checked against a fixed-step
RK4 reference and against closed-form/Fock-sum oracles) and act as
regression anchors thereafter.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import evolve_rk4, generator_check, kerr_amplitude

from optomem.config import default_params, preset
from optomem.evolve import EvolveOptions, TimeGrid, evolve
from optomem.fock import HilbertDims
from optomem.liouvillian import combined_kerr_liouvillian, liouvillian, thermal_occupation
from optomem.revival import revival_time
from optomem.runner import read_trajectory_csv, run_sweep, simulate
from optomem.states import coherent_ket, fock_ket, product_dm, vacuum_ket
from optomem.wigner import PhaseSpaceGrid, min_value, negativity_volume, wigner

T_REV = revival_time(0.01, 0.01)

# frozen from the first validated replication run (see module docstring)
FIG2_FIRST_REVIVAL_RATIO = 0.9956809489
FIG2_MIN_W_AT_79 = -0.2771564102
FIG2_NEGVOL_AT_79 = 0.2470208459
GAMMA_SWEEP_RATIOS = (0.995680949, 0.957972971, 0.666729034)
TEMP_SWEEP_RATIOS = (0.995680949, 0.905021864, 0.402267476)
ALPHA2_COLLAPSE_FRACTION = 0.674


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def window_fraction(windows, horizon: float) -> float:
    covered = sum(max(0.0, min(b, horizon) - max(a, 0.0)) for a, b in windows)
    return covered / horizon


def test_criterion_1_analytic_kerr_oracle():
    with criterion(1, "analytic Kerr oracle, closed system"):
        t0 = time.monotonic()
        params = default_params(gamma_c=0.0, gamma_m=0.0)
        superop = combined_kerr_liouvillian(params, 30)
        rho0 = product_dm([coherent_ket(1.5, 30)])
        grid = TimeGrid(np.linspace(0.0, 2.0 * T_REV, 200))
        traj = evolve(rho0, superop, grid, EvolveOptions())
        oracle = np.array(
            [kerr_amplitude(1.5, params.omega_m, 0.02, 30, t) for t in grid.times]
        )
        rel = np.abs(np.abs(traj.amplitudes[0]) - np.abs(oracle)) / np.abs(oracle)
        elapsed = time.monotonic() - t0
        assert rel.max() < 1e-6
        assert elapsed < 30.0


@pytest.fixture(scope="module")
def fig2_run():
    t0 = time.monotonic()
    traj, report = simulate(preset("fig2-combined"))
    return traj, report, time.monotonic() - t0


def test_criterion_2_replication_timeline(fig2_run):
    with criterion(2, "collapse/revival timeline"):
        traj, report, elapsed = fig2_run
        assert any(a <= 79.0 <= b for a, b in report.collapse_windows)
        assert report.n_peaks >= 2
        assert abs(report.peaks[0][0] - 157.0) <= 3.0
        assert abs(report.peaks[1][0] - 314.0) <= 5.0
        assert report.first_revival_ratio > 0.8
        # frozen regression anchor
        assert report.first_revival_ratio == pytest.approx(
            FIG2_FIRST_REVIVAL_RATIO, abs=1e-3
        )
        assert elapsed < 120.0


def test_criterion_3_wigner_nonclassicality_cycle(fig2_run):
    with criterion(3, "Wigner nonclassicality cycle"):
        traj, _, run_elapsed = fig2_run
        t0 = time.monotonic()
        grid = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201)
        snapshots = dict(traj.snapshots)
        field_0 = wigner(snapshots[0.0], grid)
        field_79 = wigner(snapshots[79.0], grid)
        field_157 = wigner(snapshots[157.0], grid)
        elapsed = time.monotonic() - t0

        assert field_0.values.min() > -1e-6
        min_79 = min_value(field_79)[0]
        assert min_79 < -0.01
        assert min_79 == pytest.approx(FIG2_MIN_W_AT_79, abs=2e-3)

        negvol_79 = negativity_volume(field_79)
        negvol_157 = negativity_volume(field_157)
        assert negvol_79 == pytest.approx(FIG2_NEGVOL_AT_79, abs=2e-3)
        assert negvol_157 < 0.1 * negvol_79
        assert negvol_157 < 1e-6  # frozen: fully positive at the revival
        assert run_elapsed + elapsed < 120.0


def test_criterion_4_dissipation_threshold(tmp_path):
    with criterion(4, "dissipation threshold sweep"):
        t0 = time.monotonic()
        rows = run_sweep(preset("fig5"), tmp_path / "fig5")
        elapsed = time.monotonic() - t0
        ratios = [row["first_revival_ratio"] for row in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert rows[-1]["parameter"] == 1e-2
        assert rows[-1]["n_peaks"] == 0
        for row, expected in zip(rows, GAMMA_SWEEP_RATIOS):
            assert row["first_revival_ratio"] == pytest.approx(expected, abs=1e-3)
        assert elapsed < 600.0


def test_criterion_5_temperature_degradation(tmp_path):
    with criterion(5, "bath-temperature degradation sweep"):
        rows = run_sweep(preset("fig7"), tmp_path / "fig7")
        ratios = [row["first_revival_ratio"] for row in rows]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert rows[-1]["parameter"] == 3.0
        assert rows[-1]["n_peaks"] == 0
        for row, expected in zip(rows, TEMP_SWEEP_RATIOS):
            assert row["first_revival_ratio"] == pytest.approx(expected, abs=1e-3)


def test_criterion_6_initial_amplitude_study(tmp_path):
    with criterion(6, "initial-amplitude study"):
        spec = preset("fig8")
        run_sweep(spec, tmp_path / "fig8")

        small = json.loads(
            (tmp_path / "fig8" / "alpha_0.1" / "revival_report.json").read_text()
        )
        assert small["classification"] == "perfect_revival"
        assert small["collapse_windows"] == []
        columns = read_trajectory_csv(tmp_path / "fig8" / "alpha_0.1" / "trajectory.csv")
        assert columns["abs_a"].min() > 0.15 * columns["abs_a"][0]

        large = json.loads(
            (tmp_path / "fig8" / "alpha_2" / "revival_report.json").read_text()
        )
        fraction = window_fraction(large["collapse_windows"], T_REV)
        assert fraction > 0.5
        assert fraction == pytest.approx(ALPHA2_COLLAPSE_FRACTION, abs=0.03)


@pytest.fixture(scope="module")
def fig4_run():
    t0 = time.monotonic()
    traj, report = simulate(preset("fig4"))
    return traj, report, time.monotonic() - t0


def test_criterion_7_two_mode_structural_suite(fig4_run):
    with criterion(7, "two-mode structural suite"):
        t0 = time.monotonic()
        traj, _, run_elapsed = fig4_run
        assert traj.times[-1] == pytest.approx(2.0 * T_REV, rel=1e-12)
        assert traj.max_trace_drift < 1e-6
        assert traj.max_hermiticity_error < 1e-8

        # unitary limit: purity conserved
        params_closed = default_params(gamma_c=0.0, gamma_m=0.0)
        superop_closed = liouvillian(params_closed, HilbertDims((10, 10)))
        rho0 = product_dm([vacuum_ket(10), coherent_ket(1.5, 10)])
        closed = evolve(
            rho0, superop_closed, TimeGrid(np.linspace(0.0, T_REV / 2.0, 300)),
            EvolveOptions(),
        )
        assert np.max(np.abs(closed.purity - 1.0)) < 1e-8

        # generator residual: first order in dt and small at dt = 1e-3
        superop = liouvillian(default_params(), HilbertDims((10, 10)))
        r1 = generator_check(superop, rho0, 1e-3)
        r2 = generator_check(superop, rho0, 5e-4)
        assert r1 < 1e-3
        assert 1.8 < r1 / r2 < 2.2

        # dual-integrator agreement through collapse and first revival
        grid = TimeGrid(np.linspace(0.0, T_REV / 2.0, 21))
        exact = evolve(rho0, superop, grid, EvolveOptions())
        fixed = evolve_rk4(rho0, superop, grid, dt=T_REV / 2e5)
        diff = np.max(
            np.abs(np.abs(exact.amplitudes[1]) - np.abs(fixed.amplitudes[1]))
        )
        assert diff < 1e-5

        assert run_elapsed + (time.monotonic() - t0) < 600.0


def test_two_mode_revival_period_is_the_storage_modes(fig4_run):
    # only the mechanical Kerr constant acts on the stored state: the period
    # is 2 pi / k_m, its half lands on the detected peak at t = 314
    _, report, _ = fig4_run
    assert report.t_rev_predicted == pytest.approx(2.0 * T_REV, rel=1e-12)
    assert report.classification == "regular"
    assert report.peaks[0][0] == pytest.approx(314.0, abs=1.0)


def test_criterion_8_closed_form_unit_checks():
    with criterion(8, "closed-form unit checks"):
        grid = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201)
        vac_field = wigner(product_dm([vacuum_ket(10)]), grid)
        assert vac_field.values[100, 100] == pytest.approx(1.0 / np.pi, abs=1e-8)

        one_field = wigner(product_dm([fock_ket(1, 10)]), grid)
        assert one_field.values[100, 100] == pytest.approx(-1.0 / np.pi, abs=1e-8)

        assert thermal_occupation(1.0, 1.0) == pytest.approx(
            1.0 / (np.e - 1.0), abs=1e-12
        )
        assert revival_time(0.01, 0.01) == pytest.approx(314.159265, abs=1e-6)


def test_acceptance_runs_reference_configuration(fig2_run, fig4_run):
    """Sanity anchor: both shared fixtures come from the documented presets."""
    fig2_traj = fig2_run[0]
    fig4_traj = fig4_run[0]
    assert len(fig2_traj.snapshots) == 15
    assert fig2_traj.times.size == 2000
    assert fig4_traj.times.size == 2000
    assert np.all(np.abs(fig4_traj.amplitudes[0]) < 1e-10)
