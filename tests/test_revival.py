import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

from helpers import kerr_amplitude_closed_form

import optomem
from optomem import revival
from optomem.config import PRESETS, SweepSpec
from optomem.runner import simulate
from optomem.revival import (
    RevivalReport,
    SamplingError,
    detect_revival_series,
    revival_time,
    sweep_summary,
)


def kerr_modulus_series(alpha, chi, gamma, horizon, n_samples):
    """Synthetic |<a(t)>| from the closed Kerr form with crude decay."""
    times = np.linspace(0.0, horizon, n_samples)
    mod = np.abs([kerr_amplitude_closed_form(alpha, 0.0, chi, t) for t in times])
    return times, mod * np.exp(-0.5 * gamma * times)


def test_revival_time_reference_value():
    assert revival_time(0.01, 0.01) == pytest.approx(314.159265, abs=1e-6)
    assert revival_time(0.01, 0.01) == 2.0 * math.pi / 0.02


def test_revival_time_strong_nonlinearity():
    assert revival_time(0.5, 0.5) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_revival_time_sum_only_dependence():
    assert revival_time(0.02, 0.0) == revival_time(0.01, 0.01)


def test_revival_time_harmonic_limit_raises():
    with pytest.raises(ValueError):
        revival_time(0.0, 0.0)


def test_revival_time_homogeneity():
    base = revival_time(0.013, 0.021)
    for c in (2.0, 4.0, 0.5):
        assert revival_time(c * 0.013, c * 0.021) == base / c
    assert revival_time(3.0 * 0.013, 3.0 * 0.021) == pytest.approx(base / 3.0, rel=1e-14)


def test_constant_modulus_is_perfect_revival():
    times = np.linspace(0.0, 100.0, 500)
    report = detect_revival_series(times, np.full(500, 1.3), t_rev=None)
    assert report.n_peaks == 0
    assert report.collapse_windows == []
    assert report.classification == "perfect_revival"


@pytest.mark.parametrize("start", [0.0, math.nan])
def test_series_that_does_not_start_positive_is_rejected(start):
    # every threshold is relative to the first sample; a zero series used to
    # read as a perfect revival with ratio 0
    modulus = np.zeros(500)
    modulus[0] = start
    with pytest.raises(ValueError, match="must start positive"):
        detect_revival_series(np.linspace(0.0, 100.0, 500), modulus, t_rev=None)


def test_kerr_series_detects_revivals_at_half_period():
    chi, alpha = 0.01, 1.5
    t_rev = revival_time(0.005, 0.005)  # 2 pi / chi
    times, mod = kerr_modulus_series(alpha, chi, 0.0, 2 * t_rev, 2000)
    report = detect_revival_series(times, mod, t_rev)
    assert report.classification == "regular"
    dt = times[1] - times[0]
    assert abs(report.peaks[0][0] - math.pi / chi) <= dt
    assert report.first_revival_ratio == pytest.approx(1.0, abs=1e-3)
    # collapse around odd multiples of a quarter period
    assert any(a <= math.pi / chi / 2.0 <= b for a, b in report.collapse_windows)


def test_first_peak_at_pi_over_chi_across_nonlinearities():
    for chi in (0.005, 0.01, 0.02):
        t_rev = 2.0 * math.pi / chi
        times, mod = kerr_modulus_series(1.5, chi, 0.0, 1.2 * t_rev, 4000)
        report = detect_revival_series(times, mod, t_rev)
        dt = times[1] - times[0]
        assert abs(report.peaks[0][0] - math.pi / chi) <= dt


def test_detection_invariant_under_rescaling():
    times, mod = kerr_modulus_series(1.5, 0.01, 1e-4, 1200.0, 3000)
    r1 = detect_revival_series(times, mod, 2.0 * math.pi / 0.01)
    r2 = detect_revival_series(times, 7.5 * mod, 2.0 * math.pi / 0.01)
    assert r1.classification == r2.classification
    assert [t for t, _ in r1.peaks] == [t for t, _ in r2.peaks]
    assert r1.first_revival_ratio == pytest.approx(r2.first_revival_ratio, rel=1e-12)
    assert [w for w in r1.collapse_windows] == [w for w in r2.collapse_windows]


def test_overdamped_series_has_no_revivals():
    times, mod = kerr_modulus_series(1.5, 0.01, 2e-2, 628.0, 2000)
    report = detect_revival_series(times, mod, 2.0 * math.pi / 0.02)
    assert report.n_peaks == 0
    assert report.collapse_windows
    assert report.classification == "revivals_disappeared"


def test_irregular_when_peak_misses_prediction():
    # modulus revives at pi/chi with chi = 0.01, but the predicted period
    # corresponds to twice that nonlinearity
    times, mod = kerr_modulus_series(1.5, 0.01, 0.0, 700.0, 3000)
    report = detect_revival_series(times, mod, revival_time(0.01, 0.01))
    assert report.n_peaks >= 1
    assert report.classification == "irregular"


def test_undersampled_series_rejected():
    times = np.linspace(0.0, 628.0, 30)
    with pytest.raises(SamplingError):
        detect_revival_series(times, np.ones(30), revival_time(0.01, 0.01))


def test_report_requires_increasing_peaks():
    with pytest.raises(ValueError):
        RevivalReport(
            t_rev_predicted=1.0,
            peaks=[(2.0, 1.0), (1.0, 1.0)],
            collapse_windows=[],
            first_revival_ratio=1.0,
            classification="regular",
            prominence_threshold=0.1,
            collapse_threshold=0.15,
        )


def test_sweep_summary_ordering():
    def report(ratio, peaks):
        return RevivalReport(
            t_rev_predicted=314.0,
            peaks=[(157.0, ratio)] if peaks else [],
            collapse_windows=[(30.0, 120.0)],
            first_revival_ratio=ratio if peaks else 0.0,
            classification="regular" if peaks else "revivals_disappeared",
            prominence_threshold=0.15,
            collapse_threshold=0.225,
        )

    rows = sweep_summary(
        [(1e-3, report(0.6, True)), (1e-5, report(0.99, True)), (1e-2, report(0.0, False))]
    )
    assert [row["parameter"] for row in rows] == [1e-5, 1e-3, 1e-2]
    assert rows[0]["first_revival_ratio"] == 0.99
    assert rows[2]["n_peaks"] == 0
    assert rows[2]["classification"] == "revivals_disappeared"


def scipy_peaks(x, prominence, distance):
    return find_peaks(x, prominence=prominence, distance=distance)[0]


def test_find_peaks_matches_scipy_on_random_series():
    rng = np.random.default_rng(11)
    for trial in range(1500):
        n = int(rng.integers(3, 150))
        if trial % 3 == 0:  # few levels: long plateaus and tied heights
            x = rng.integers(0, int(rng.integers(2, 8)), size=n).astype(float)
        elif trial % 3 == 1:  # rounded random walk: plateaus at every scale
            x = np.round(np.cumsum(rng.normal(size=n)), 1)
        else:
            x = rng.random(n)
        prominence = float(rng.choice([0.0, 0.05, 0.5, 1.0, 3.0]))
        distance = int(rng.integers(1, 25))
        assert np.array_equal(revival._find_peaks(x, prominence, distance),
                              scipy_peaks(x, prominence, distance)), (x, prominence, distance)


def test_find_peaks_matches_scipy_on_every_preset(monkeypatch):
    finder = revival._find_peaks
    calls = []

    def spy(x, prominence, distance):
        calls.append((x.copy(), prominence, distance))
        return finder(x, prominence, distance)

    monkeypatch.setattr(revival, "_find_peaks", spy)
    n_runs = 0
    for _, obj in PRESETS.values():
        configs = [obj.point_config(v) for v in obj.values] if isinstance(obj, SweepSpec) else [obj]
        for config in configs:
            simulate(config)
            n_runs += 1
    assert len(calls) == n_runs
    for x, prominence, distance in calls:
        for p, d in ((prominence, distance), (0.0, 1), (0.25 * prominence, 3)):
            assert np.array_equal(finder(x, p, d), scipy_peaks(x, p, d))


def test_cli_import_leaves_scipy_signal_unloaded():
    src = str(Path(optomem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, optomem.cli; print('scipy.signal' in sys.modules, 'scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False False"
