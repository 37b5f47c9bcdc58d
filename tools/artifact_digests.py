"""Print the sha256 of every artifact the reference presets write.

Usage: python3 tools/artifact_digests.py OUT_DIR

Runs ``optomem.cli.main`` from the ``src`` directory next to this script,
with one BLAS/OpenMP thread, into subdirectories of OUT_DIR (which must be
missing or empty):

* ``wigner-snapshots --preset fig2-combined``, once with ``--threads 1``
  and once with ``--threads 2``
* ``simulate --preset fig4`` and ``simulate --preset harmonic-check``
* ``simulate --preset fig4 --override storage_mode=0`` (optical storage,
  whose largest symmetry block takes the ``expm_multiply`` path; 9 to 11 s
  of the script's 12 to 14 s on a 2-vCPU Xeon VM)
* ``sweep --preset fig5`` .. ``fig8``, once with ``--threads 1`` and once
  with ``--threads 2``

It then prints ``sha256  relative/path`` for every file written, sorted by
path; the CLI's own messages go to stderr.  Two checkouts wrote
byte-identical artifacts when their outputs are equal line for line::

    python3 tools/artifact_digests.py /tmp/a > a.txt    # in one checkout
    python3 tools/artifact_digests.py /tmp/b > b.txt    # in the other
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from pathlib import Path

# before numpy loads: the artifacts are byte-stable at a fixed thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = [
    ("fig4", ["simulate", "--preset", "fig4"]),
    ("harmonic-check", ["simulate", "--preset", "harmonic-check"]),
    ("fig4-optical", ["simulate", "--preset", "fig4", "--override", "storage_mode=0"]),
] + [
    (f"{name}-threads{threads}", [command, "--preset", name, "--threads", str(threads)])
    for command, name in [("wigner-snapshots", "fig2-combined")]
    + [("sweep", name) for name in ("fig5", "fig6", "fig7", "fig8")]
    for threads in (1, 2)
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; give a new or empty directory", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from optomem.cli import main as cli_main

    for name, args in RUNS:
        with contextlib.redirect_stdout(sys.stderr):
            cli_main([*args, "--out", str(out / name)])
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
