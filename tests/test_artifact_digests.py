"""The artifacts of the reference presets, byte for byte.

``artifact_digests.txt`` holds the output of ``tools/artifact_digests.py``
(the sha256 of every file the reference runs write), headed by the numpy,
scipy and BLAS versions that made it.  A change that moves an artifact on
purpose rewrites the file in the same commit::

    python3 tests/test_artifact_digests.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digests.py"
RECORD = Path(__file__).with_name("artifact_digests.txt")


def environment() -> str:
    """numpy and scipy versions, each with the BLAS it was built against."""
    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return (f"numpy {numpy.__version__} ({blas(numpy)}), "
            f"scipy {scipy.__version__} ({blas(scipy)})")


def current_record() -> str:
    """The digest file as this checkout and environment would write it."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = subprocess.run([sys.executable, str(TOOL), str(Path(tmp) / "out")],
                                 check=True, capture_output=True, text=True).stdout
    return f"# {environment()}\n{digests}"


def test_reference_artifacts_match_the_recorded_digests():
    recorded = RECORD.read_text().splitlines()
    current = current_record().splitlines()
    assert current[0] == recorded[0], (
        f"the digests were recorded with {recorded[0][2:]}, this environment has "
        f"{current[0][2:]}; byte identity holds only on the recorded versions"
    )
    moved = sorted({line.split()[-1] for line in set(recorded[1:]) ^ set(current[1:])})
    assert current == recorded, f"{len(moved)} artifacts moved: {moved}"


if __name__ == "__main__":
    RECORD.write_text(current_record())
