"""Revival timescale and collapse/revival detection on amplitude series.

Detection thresholds are relative to the t = 0 modulus so that reports are
comparable across initial amplitudes: a revival is a local maximum of
|amplitude(t)| with prominence >= ``DEFAULT_PROMINENCE_FRAC`` of the initial
modulus and separation >= ``DEFAULT_MIN_SEPARATION_FRAC`` of half the
predicted revival period; a collapse window is a contiguous region where the
modulus sits below ``DEFAULT_COLLAPSE_FRAC`` of the initial value.

Classification of a trajectory:

* ``perfect_revival``   -- the modulus never drops below the collapse
                           threshold (harmonic-like storage; retrieval works
                           at any time);
* ``revivals_disappeared`` -- the state collapses and no revival peak is
                           ever detected;
* ``regular``           -- some detected peak lies within 10% of the
                           predicted half revival period;
* ``irregular``         -- peaks exist but none near the predicted time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_PROMINENCE_FRAC = 0.1
DEFAULT_COLLAPSE_FRAC = 0.15
DEFAULT_MIN_SEPARATION_FRAC = 0.3
REGULARITY_WINDOW_FRAC = 0.1
MIN_SAMPLES_PER_HALF_PERIOD = 20


class SamplingError(ValueError):
    """The trajectory is sampled too coarsely for reliable peak detection."""


def revival_time(k_c: float, k_m: float) -> float:
    """Coherence revival period 2 pi / (k_c + k_m)."""
    total = k_c + k_m
    if total <= 0:
        raise ValueError(
            "no revival in the harmonic limit: k_c + k_m must be positive"
        )
    return 2.0 * math.pi / total


def check_sampling(dt: float, t_rev: float) -> None:
    """Raise :class:`SamplingError` unless the sample spacing ``dt`` puts
    ``MIN_SAMPLES_PER_HALF_PERIOD`` samples into half the period ``t_rev``."""
    half = 0.5 * t_rev
    if dt > half / MIN_SAMPLES_PER_HALF_PERIOD:
        raise SamplingError(
            f"sample spacing {dt:.4g} too coarse for predicted half period "
            f"{half:.4g}: need >= {MIN_SAMPLES_PER_HALF_PERIOD} samples per interval"
        )


@dataclass
class RevivalReport:
    t_rev_predicted: float | None
    peaks: list[tuple[float, float]]
    collapse_windows: list[tuple[float, float]]
    first_revival_ratio: float
    classification: str
    prominence_threshold: float
    collapse_threshold: float
    n_peaks: int = field(init=False)

    def __post_init__(self) -> None:
        times = [t for t, _ in self.peaks]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("peak times must be strictly increasing")
        self.n_peaks = len(self.peaks)

    def to_dict(self) -> dict:
        return {
            "t_rev_predicted": self.t_rev_predicted,
            "peaks": [[t, m] for t, m in self.peaks],
            "collapse_windows": [[a, b] for a, b in self.collapse_windows],
            "first_revival_ratio": self.first_revival_ratio,
            "classification": self.classification,
            "n_peaks": self.n_peaks,
            "prominence_threshold": self.prominence_threshold,
            "collapse_threshold": self.collapse_threshold,
        }


def _find_peaks(x: np.ndarray, prominence: float, distance: int) -> np.ndarray:
    """Peak indices as ``scipy.signal.find_peaks(x, prominence=, distance=)``.

    A peak is a run of equal samples, reported at its midpoint rounded
    down, whose neighbouring runs are both lower; the first and last samples
    are never peaks.  Going down from the highest peak (in ``np.argsort``
    order of the heights), each kept peak drops the peaks closer than
    ``distance`` samples.  A survivor is returned when its prominence over
    the whole series is ``>= prominence``.  Loading ``scipy.signal`` would
    cost more than the rest of ``import optomem``.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    values = x[starts]
    is_peak = np.zeros(starts.size, dtype=bool)
    is_peak[1:-1] = (values[:-2] < values[1:-1]) & (values[2:] < values[1:-1])
    peaks = (starts[is_peak] + ends[is_peak]) // 2

    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    peaks = peaks[keep]

    prominences = np.empty(peaks.size)
    for m, i in enumerate(peaks):
        # bases: the lowest samples before the series first rises above x[i]
        higher_left = np.flatnonzero(~(x[:i] <= x[i]))
        higher_right = np.flatnonzero(~(x[i + 1:] <= x[i]))
        lo = higher_left[-1] + 1 if higher_left.size else 0
        hi = i + 1 + higher_right[0] if higher_right.size else x.size
        prominences[m] = x[i] - max(x[lo:i + 1].min(), x[i:hi].min())
    return peaks[prominences >= prominence]


def detect_revival_series(
    times: np.ndarray,
    modulus: np.ndarray,
    t_rev: float | None,
) -> RevivalReport:
    """Detect collapse/revival structure in a |amplitude(t)| series.

    ``t_rev`` is the predicted revival period; pass None in the harmonic
    limit, which disables the sampling and regularity checks.  Every
    threshold is relative to ``modulus[0]``, so a series that does not start
    positive (or starts at NaN) raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    modulus = np.asarray(modulus, dtype=float)
    if times.shape != modulus.shape or times.ndim != 1 or times.size < 3:
        raise ValueError("times and modulus must be matching 1-d arrays (>= 3 samples)")
    # the median step by hand: np.median's NaN check imports numpy.ma,
    # about 10 ms of a fresh process; a NaN step sorts last and is passed on
    steps = np.sort(np.diff(times))
    middle = 0.5 * (steps[(steps.size - 1) // 2] + steps[steps.size // 2])
    dt = float(steps[-1] if np.isnan(steps[-1]) else middle)
    reference = float(modulus[0])
    if not reference > 0:
        raise ValueError(f"the modulus must start positive, got {reference}")
    prominence = DEFAULT_PROMINENCE_FRAC * reference
    collapse_level = DEFAULT_COLLAPSE_FRAC * reference

    distance = 1
    if t_rev is not None:
        check_sampling(dt, t_rev)
        half = 0.5 * t_rev
        distance = max(1, int(round(DEFAULT_MIN_SEPARATION_FRAC * half / dt)))

    idx = _find_peaks(modulus, prominence, distance)
    peaks = [(float(times[i]), float(modulus[i])) for i in idx]

    # edges of the below-threshold runs: first sample in, one past the last
    edges = np.flatnonzero(np.diff(np.r_[False, modulus < collapse_level, False]))
    windows = [(float(times[a]), float(times[b - 1])) for a, b in zip(edges[::2], edges[1::2])]

    ratio = peaks[0][1] / reference if peaks else 0.0

    if not windows:
        classification = "perfect_revival"
    elif not peaks:
        classification = "revivals_disappeared"
    elif t_rev is not None and any(
        abs(t - 0.5 * t_rev) <= REGULARITY_WINDOW_FRAC * 0.5 * t_rev for t, _ in peaks
    ):
        classification = "regular"
    else:
        classification = "irregular"

    return RevivalReport(
        t_rev_predicted=t_rev,
        peaks=peaks,
        collapse_windows=windows,
        first_revival_ratio=float(ratio),
        classification=classification,
        prominence_threshold=float(prominence),
        collapse_threshold=float(collapse_level),
    )


def detect_revivals(traj, mode: int, t_rev: float | None) -> RevivalReport:
    """Run :func:`detect_revival_series` on one mode of a trajectory."""
    return detect_revival_series(traj.times, np.abs(traj.amplitudes[mode]), t_rev)


def sweep_summary(points: list[tuple[float, RevivalReport]]) -> list[dict]:
    """Summarise per-parameter reports, ordered by parameter value."""
    rows = []
    for value, report in sorted(points, key=lambda item: item[0]):
        rows.append(
            {
                "parameter": value,
                "first_revival_ratio": report.first_revival_ratio,
                "n_peaks": report.n_peaks,
                "classification": report.classification,
            }
        )
    return rows
