"""Compare two artifact trees value by value.

Usage: python3 tools/artifact_diff.py A B

A and B are output directories of ``tools/artifact_digests.py`` (or any two
trees of optomem artifacts).  For every file whose bytes differ it prints
one line::

    <n differing>/<n values>  max |diff| <largest>  <relative/path>

Values are the cells of a ``.csv`` file, the whitespace-separated numbers of
a ``.dat`` grid file and the leaves of a ``.json`` file; any other file is
compared line by line.  Two numbers differ when their parsed floats differ,
and the largest absolute difference is taken over those.  A value that is
not a number (a classification, a config line) differs when its text does;
such changes are counted and also listed as ``changed: <old> -> <new>``.
A file present in only one tree, or whose values do not line up one to one,
is named as such.  The exit status is 0 when no file differs, else 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _leaves(obj, prefix: str = ""):
    """(path, value) of every leaf of a parsed JSON document, in key order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _values(path: Path) -> list[tuple[str, object]]:
    """(where, value) of each value of one artifact file, in file order.

    ``where`` is a JSON leaf's key path, or the ``line:column`` of a cell
    (a whole line is one cell outside ``.csv`` and ``.dat`` files).
    """
    text = path.read_text()
    if path.suffix == ".json":
        return list(_leaves(json.loads(text)))
    splitters = {".csv": lambda line: line.split(","), ".dat": str.split}
    split = splitters.get(path.suffix, lambda line: [line])
    return [(f"{i}:{j}", cell) for i, line in enumerate(text.splitlines(), 1)
            for j, cell in enumerate(split(line), 1)]


def _number(value) -> float | None:
    """``value`` as a float when it is a number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(a: Path, b: Path) -> str:
    """One line on how the values of two differing files differ."""
    va, vb = _values(a), _values(b)
    if [where for where, _ in va] != [where for where, _ in vb]:
        return f"{len(va)} vs {len(vb)} values, not comparable"
    n_diff = 0
    largest = 0.0
    changed = []
    for (where, x), (_, y) in zip(va, vb):
        fx, fy = _number(x), _number(y)
        if fx is not None and fy is not None:
            if fx != fy:
                n_diff += 1
                largest = max(largest, abs(fx - fy))
        elif x != y:
            n_diff += 1
            changed.append(f"{where} {x} -> {y}")
    line = f"{n_diff}/{len(va)}  max |diff| {largest:.3e}"
    if changed:
        line += "  changed: " + "; ".join(changed)
    return line


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (Path(arg) for arg in argv)
    files = {
        p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()
    }
    n_differ = 0
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"only in {a if pa.is_file() else b}  {rel}")
        elif pa.read_bytes() != pb.read_bytes():
            print(f"{compare(pa, pb)}  {rel}")
        else:
            continue
        n_differ += 1
    print(f"{n_differ} of {len(files)} files differ", file=sys.stderr)
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
