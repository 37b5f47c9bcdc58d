"""Run configuration, presets, and the flat dotted-key config file format.

Config files are plain text, one ``key = value`` assignment per line with
``#`` comments.  Values parse as int, float, complex (``1.5+0.5j``),
``none``, ``auto``, comma-separated tuples of the above, or bare strings.
Integer keys accept only integers: ``2000.7`` is refused, not truncated.
The same dotted keys are accepted by the CLI's ``--override key=value``
flag.  There is no environment-variable configuration; a run is fully
described by its config echo.

The model follows from the number of entries in ``dims``: one entry is the
combined-Kerr model (one Kerr mode of strength ``k_c + k_m``), two entries
are the two-mode optomechanical model.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, NamedTuple

from .liouvillian import SystemParams
from .revival import check_sampling, revival_time
from .wigner import DEFAULT_GRID, PhaseSpaceGrid

# Reference parameter set, in atomic units (frequencies quoted as angular).
OMEGA_C_DEFAULT = 2.0 * math.pi * 0.056233
OMEGA_M_DEFAULT = 2.0 * math.pi * 0.151983e-8
G0_DEFAULT = 0.20472e-2
K_DEFAULT = 0.01
GAMMA_DEFAULT = 1e-5

# Default full-state snapshot times for the replication timeline.
DEFAULT_SNAPSHOT_TIMES = (
    0.0, 10.0, 30.0, 50.0, 79.0, 100.0, 125.0, 150.0, 157.0,
    237.0, 314.0, 395.0, 471.0, 553.0, 627.0,
)

def default_params(**overrides) -> SystemParams:
    base = dict(
        omega_c=OMEGA_C_DEFAULT,
        omega_m=OMEGA_M_DEFAULT,
        k_c=K_DEFAULT,
        k_m=K_DEFAULT,
        g0=G0_DEFAULT,
        gamma_c=GAMMA_DEFAULT,
        gamma_m=GAMMA_DEFAULT,
        bath_temp=0.0,
    )
    base.update(overrides)
    return SystemParams(**base)


@dataclass
class RunConfig:
    """Fully deterministic description of a single simulation run."""

    params: SystemParams = field(default_factory=default_params)
    # one entry: the combined-Kerr model; two: the two-mode model
    dims: tuple[int, ...] = (10, 10)
    storage_mode: int = 1
    alpha: complex = 1.5 + 0.0j
    # None (`auto`) resolves to 4 pi/(k_c + k_m): two combined-Kerr revival
    # periods, but only one for fig4, whose period is 2 pi/k_m
    horizon: float | None = None
    n_samples: int = 2000
    snapshot_times: tuple[float, ...] = DEFAULT_SNAPSHOT_TIMES
    wigner_grid: PhaseSpaceGrid = DEFAULT_GRID
    wigner_mode: int | str = "storage"

    def validate(self) -> None:
        if not 1 <= len(self.dims) <= 2:
            raise ValueError(
                "dims needs 1 entry (combined-Kerr model) or 2 (two-mode model), "
                f"got {len(self.dims)}: {self.dims}"
            )
        if not 0 <= self.storage_mode < len(self.dims):
            raise ValueError(f"storage_mode {self.storage_mode} out of range")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError("alpha must be finite")
        if self.alpha == 0:
            # every revival threshold is relative to |<a>(0)|
            raise ValueError("alpha must be nonzero: the vacuum stores nothing")
        if self.horizon is not None and not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_samples < 100:
            raise ValueError(f"n_samples must be >= 100, got {self.n_samples}")
        if self.wigner_mode != "storage" and (
            type(self.wigner_mode) is not int or not 0 <= self.wigner_mode < len(self.dims)
        ):
            raise ValueError(
                f"wigner.mode must be 'storage' or a mode index below {len(self.dims)}, "
                f"got {self.wigner_mode!r}"
            )
        horizon = self.resolved_horizon()
        bad = [t for t in self.snapshot_times if not 0 <= t <= horizon]
        if bad:
            raise ValueError(f"snapshot times not finite or outside [0, {horizon:g}]: {bad}")
        t_rev = self.predicted_revival_time()
        if t_rev is not None:
            # the sample spacing of the run's TimeGrid
            check_sampling(horizon / (self.n_samples - 1), t_rev)

    def resolved_horizon(self) -> float:
        if self.horizon is not None:
            return float(self.horizon)
        total_k = self.params.k_c + self.params.k_m
        if total_k <= 0:
            raise ValueError(
                "horizon cannot be derived in the harmonic limit (k_c + k_m = 0); "
                "set time.horizon explicitly"
            )
        return 2.0 * revival_time(self.params.k_c, self.params.k_m)

    def resolved_wigner_mode(self) -> int:
        if self.wigner_mode == "storage":
            return self.storage_mode
        return self.wigner_mode

    def predicted_revival_time(self) -> float | None:
        """Revival period of the stored state; None in the harmonic limit.

        The combined mode carries k_c + k_m.  In a two-mode run the partner
        of the storage mode idles in vacuum, so only the storage mode's own
        Kerr constant acts.
        """
        k_c, k_m = self.params.k_c, self.params.k_m
        if len(self.dims) == 2:
            k_c, k_m = (k_c, 0.0) if self.storage_mode == 0 else (0.0, k_m)
        return None if k_c + k_m <= 0 else revival_time(k_c, k_m)


# How a swept value applies to the base config, one entry per axis.
SWEEP_AXES: dict[str, Callable[[RunConfig, float], RunConfig]] = {
    "gamma": lambda cfg, v: replace(cfg, params=replace(cfg.params, gamma_c=v, gamma_m=v)),
    "nonlinearity": lambda cfg, v: replace(cfg, params=replace(cfg.params, k_c=v, k_m=v)),
    "bath_temp": lambda cfg, v: replace(cfg, params=replace(cfg.params, bath_temp=v)),
    "alpha": lambda cfg, v: replace(cfg, alpha=complex(v)),
}


@dataclass
class SweepSpec:
    """One swept axis over a base run configuration."""

    axis: str
    values: tuple[float, ...]
    base: RunConfig

    def validate(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.axis!r}; choose from {tuple(SWEEP_AXES)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        names = [self.point_dir(value) for value in self.values]
        clashes = sorted({name for name in names if names.count(name) > 1})
        if clashes:
            raise ValueError(
                f"sweep values share point directories {clashes}; "
                "values must differ in their first 6 significant digits"
            )
        self.base.validate()
        # every point, so that a bad value fails before anything is written
        for value in self.values:
            try:
                self.point_config(value).validate()
            except ValueError as exc:
                raise ValueError(f"sweep point {self.axis} = {value!r}: {exc}") from None

    def point_dir(self, value: float) -> str:
        """Name of the directory that holds one sweep point's artifacts;
        -0.0 names the point of 0.0 (``-0.0 + 0.0`` is ``0.0``)."""
        return f"{self.axis}_{value + 0.0:.6g}"

    def point_config(self, value: float) -> RunConfig:
        return SWEEP_AXES[self.axis](self.base, value)


# ---------------------------------------------------------------------------
# flat dotted-key representation

_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low == "none":
        return None
    if low == "auto":
        return "auto"
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        pass
    return text


def parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(parse_scalar(part) for part in text.split(",") if part.strip())
    return parse_scalar(text)


def format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        if not value:
            return "none"
        if len(value) == 1:
            return f"{format_value(value[0])},"
        return ", ".join(format_value(v) for v in value)
    if isinstance(value, complex):
        return str(value).strip("()")
    return repr(value) if isinstance(value, float) else str(value)


def _as_float_tuple(value) -> tuple[float, ...]:
    """Sweep values or snapshot times; -0.0 is read as 0.0 (``-0.0 + 0.0``
    is ``0.0``), since it names the same point directory and grid file."""
    if value is None:
        return ()
    if isinstance(value, (int, float)):
        value = (value,)
    if isinstance(value, tuple):
        return tuple(float(v) + 0.0 for v in value)
    raise ValueError(f"must be a number or a comma-separated list, got {value!r}")


def _as_int(value) -> int:
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _as_int_tuple(value) -> tuple[int, ...]:
    return tuple(_as_int(v) for v in (value if isinstance(value, tuple) else (value,)))


def _same(value):
    return value


class _Key(NamedTuple):
    attr: str  # RunConfig attribute path, e.g. "wigner_grid.nx"
    parse: Callable  # flat value -> attribute value
    format: Callable = _same  # attribute value -> flat value


# Every dotted config key, in config-echo order.
_CONFIG_KEYS = {
    "dims": _Key("dims", _as_int_tuple, tuple),
    "storage_mode": _Key("storage_mode", _as_int),
    "initial.alpha": _Key("alpha", complex),
    "params.omega_c": _Key("params.omega_c", float),
    "params.omega_m": _Key("params.omega_m", float),
    "params.k_c": _Key("params.k_c", float),
    "params.k_m": _Key("params.k_m", float),
    "params.g0": _Key("params.g0", float),
    "params.gamma_c": _Key("params.gamma_c", float),
    "params.gamma_m": _Key("params.gamma_m", float),
    "params.bath_temp": _Key("params.bath_temp", float),
    "time.horizon": _Key(
        "horizon",
        lambda v: None if v in ("auto", None) else float(v),
        lambda v: "auto" if v is None else v,
    ),
    "time.n_samples": _Key("n_samples", _as_int),
    "snapshots": _Key("snapshot_times", _as_float_tuple, lambda v: tuple(v) or None),
    "wigner.x_min": _Key("wigner_grid.x_min", float),
    "wigner.x_max": _Key("wigner_grid.x_max", float),
    "wigner.p_min": _Key("wigner_grid.p_min", float),
    "wigner.p_max": _Key("wigner_grid.p_max", float),
    "wigner.nx": _Key("wigner_grid.nx", _as_int),
    "wigner.np": _Key("wigner_grid.np", _as_int),
    "wigner.mode": _Key("wigner_mode", _same),
}


def _parse_key(key: str, parse: Callable, value):
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def config_to_flat(cfg: RunConfig) -> dict:
    return {key: k.format(attrgetter(k.attr)(cfg)) for key, k in _CONFIG_KEYS.items()}


def config_from_flat(flat: dict) -> RunConfig:
    sweep_keys = [k for k in flat if k.startswith("sweep.")]
    if sweep_keys:
        raise ValueError(
            f"config contains sweep keys {sweep_keys}; parse it with sweep_from_flat"
        )
    unknown = sorted(set(flat) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    merged = {**config_to_flat(RunConfig()), **flat}

    # attribute values grouped by owner: "" is RunConfig itself, the rest are
    # its nested dataclasses, each rebuilt once so it validates its final values
    fields: dict[str, dict] = {"": {}}
    for key, k in _CONFIG_KEYS.items():
        owner, _, name = k.attr.rpartition(".")
        fields.setdefault(owner, {})[name] = _parse_key(key, k.parse, merged[key])
    cfg = RunConfig(**fields.pop(""))
    for owner, values in fields.items():
        setattr(cfg, owner, replace(getattr(cfg, owner), **values))
    cfg.validate()
    return cfg


def sweep_to_flat(spec: SweepSpec) -> dict:
    flat = config_to_flat(spec.base)
    flat["sweep.axis"] = spec.axis
    flat["sweep.values"] = tuple(spec.values)
    return flat


def sweep_from_flat(flat: dict) -> SweepSpec:
    flat = dict(flat)
    axis = flat.pop("sweep.axis", None)
    values = flat.pop("sweep.values", None)
    if axis is None or values is None:
        raise ValueError("sweep config needs sweep.axis and sweep.values")
    spec = SweepSpec(
        axis=str(axis),
        values=_parse_key("sweep.values", _as_float_tuple, values),
        base=config_from_flat(flat),
    )
    spec.validate()
    return spec


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a flat dict."""
    flat: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in flat:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        flat[key] = parse_value(value)
    return flat


def format_config_text(flat: dict, header: str = "") -> str:
    lines = [f"# {header}"] if header else []
    ordered = [k for k in _CONFIG_KEYS if k in flat]
    ordered += sorted(k for k in flat if k not in _CONFIG_KEYS)
    for key in ordered:
        lines.append(f"{key} = {format_value(flat[key])}")
    return "\n".join(lines) + "\n"


def load_object(flat: dict):
    """Build a RunConfig or SweepSpec from a flat dict, keyed on sweep.*."""
    if any(k.startswith("sweep.") for k in flat):
        return sweep_from_flat(flat)
    return config_from_flat(flat)


# ---------------------------------------------------------------------------
# presets

_OPTOMECHANICAL = RunConfig(dims=(10, 10), storage_mode=1, snapshot_times=())
_COMBINED = RunConfig(dims=(30,), storage_mode=0, snapshot_times=())

# Every built-in preset, in listing order: name -> (summary, config or sweep).
PRESETS: dict[str, tuple[str, RunConfig | SweepSpec]] = {
    "fig2-combined": ("combined-Kerr timeline run with full-state snapshots",
                      replace(_COMBINED, snapshot_times=DEFAULT_SNAPSHOT_TIMES)),
    "fig4": ("two-mode amplitude run, storage in the mechanical mode", _OPTOMECHANICAL),
    "fig5": ("dissipation sweep (gamma = 1e-5 .. 1e-2, combined mode)",
             SweepSpec("gamma", (1e-5, 1e-4, 1e-3, 1e-2), _COMBINED)),
    "fig6": ("nonlinearity sweep (k = 0.5 .. 0.0005, combined mode)",
             SweepSpec("nonlinearity", (0.5, 0.05, 0.005, 0.0005), _COMBINED)),
    "fig7": ("bath-temperature sweep (30 uK .. 3 K, combined mode)",
             SweepSpec("bath_temp", (30e-6, 30e-3, 0.3, 3.0), _COMBINED)),
    "fig8": ("initial-amplitude sweep (alpha = 0.1 .. 2.0, combined mode)",
             SweepSpec("alpha", (0.1, 0.5, 1.0, 2.0), _COMBINED)),
    "harmonic-check": ("harmonic limit: no nonlinearity, no damping",
                       replace(_OPTOMECHANICAL, horizon=628.3185307179587,
                               params=default_params(k_c=0.0, k_m=0.0,
                                                     gamma_c=0.0, gamma_m=0.0))),
}

PRESET_NAMES = tuple(PRESETS)


def preset(name: str):
    """Return a fresh RunConfig or SweepSpec for a named preset."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return copy.deepcopy(PRESETS[name][1])
