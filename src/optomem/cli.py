"""Command-line interface.

Subcommands:

* ``simulate``         -- run one configuration, export CSV + revival report
* ``wigner-snapshots`` -- run one configuration, export Wigner grid files
* ``sweep``            -- run a parameter sweep with per-point artifacts
* ``revival-report``   -- recompute the revival report of a finished run
* ``presets``          -- list the built-in presets

A run is selected either by ``--preset NAME`` or ``--config FILE``; dotted
keys can be adjusted with repeated ``--override key=value`` flags.
``sweep --threads`` sets how many sweep points run at once, by default one
per CPU this process may use: the calling process runs a share of them and
forked child processes the rest (Linux only; elsewhere they run inline).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    PRESETS,
    RunConfig,
    SweepSpec,
    config_to_flat,
    load_object,
    parse_config_text,
    parse_value,
    preset,
    sweep_to_flat,
)
from .revival import detect_revival_series
from .runner import read_trajectory_csv, run_single, run_snapshots, run_sweep


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="name of a built-in preset")
    parser.add_argument("--config", help="path to a dotted-key config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="override a dotted config key (repeatable)")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load(args: argparse.Namespace):
    if bool(args.preset) == bool(args.config):
        raise SystemExit("exactly one of --preset or --config is required")
    if args.preset:
        try:
            obj = preset(args.preset)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from None
        flat = sweep_to_flat(obj) if isinstance(obj, SweepSpec) else config_to_flat(obj)
    else:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise SystemExit(f"{args.config}: cannot read --config: {exc.strerror}") from None
        flat = parse_config_text(text)
    for item in args.override:
        if "=" not in item:
            raise SystemExit(f"--override expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        flat[key.strip()] = parse_value(value)
    return load_object(flat)


def _require_single(obj) -> RunConfig:
    if isinstance(obj, SweepSpec):
        raise SystemExit("this command needs a single-run config; use `sweep` instead")
    return obj


def _require_sweep(obj) -> SweepSpec:
    if not isinstance(obj, SweepSpec):
        raise SystemExit(
            "sweep needs a sweep config (preset fig5..fig8 or sweep.axis/sweep.values keys)"
        )
    return obj


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _require_single(_load(args))
    traj, report = run_single(config, Path(args.out))
    print(f"wrote {args.out}/trajectory.csv ({len(traj.times)} samples)")
    print(f"wrote {args.out}/revival_report.json")
    print(
        f"classification: {report.classification}, peaks: {report.n_peaks}, "
        f"first revival ratio: {report.first_revival_ratio:.6f}, "
        f"trace drift: {traj.max_trace_drift:.2e}, "
        f"live {traj.n_live}/{math.prod(config.dims) ** 2}, "
        f"{len(traj.block_sizes)} blocks (max {max(traj.block_sizes)}), {traj.path}, "
        f"{traj.n_propagated} propagated"
    )
    return 0


def cmd_snapshots(args: argparse.Namespace) -> int:
    config = _require_single(_load(args))
    paths = run_snapshots(config, Path(args.out))
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _require_sweep(_load(args))
    rows = run_sweep(spec, Path(args.out), threads=args.threads)
    print(f"wrote {args.out}/sweep_summary.csv")
    for row in rows:
        print(
            f"  {spec.axis} = {row['parameter']:g}: "
            f"ratio {row['first_revival_ratio']:.6f}, peaks {row['n_peaks']}, "
            f"{row['classification']}"
        )
    return 0


def cmd_revival_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    for name in ("config.txt", "trajectory.csv"):
        if not (run_dir / name).is_file():
            raise SystemExit(f"{run_dir / name} not found; revival-report reads a `simulate` run")
    flat = parse_config_text((run_dir / "config.txt").read_text())
    config = _require_single(load_object(flat))
    columns = read_trajectory_csv(run_dir / "trajectory.csv")
    modulus = columns["abs_a" if config.storage_mode == 0 else "abs_b"]
    report = detect_revival_series(
        columns["t"], np.asarray(modulus), config.predicted_revival_time()
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_presets(_: argparse.Namespace) -> int:
    for name, (summary, obj) in PRESETS.items():
        kind = "sweep" if isinstance(obj, SweepSpec) else "run"
        print(f"{name:15s} [{kind}]  {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomem",
        description="Optomechanical Kerr quantum-memory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("wigner-snapshots", help="export Wigner grids at snapshot times")
    _add_run_flags(p)
    p.set_defaults(func=cmd_snapshots)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    _add_run_flags(p)
    p.add_argument("--threads", type=_positive_int, default=_usable_cpus(),
                   help="how many sweep points run at once, this process and forked "
                        "children each running a share; Linux only, elsewhere one "
                        "at a time (default: the %(default)s CPUs this process may use)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("revival-report", help="recompute the report of a finished run")
    p.add_argument("--run", required=True, help="run directory with trajectory.csv")
    p.set_defaults(func=cmd_revival_report)

    p = sub.add_parser("presets", help="list built-in presets")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
