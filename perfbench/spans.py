"""In-memory spans recorded around calls into optomem's layer functions.

A :class:`Tracer` replaces each named function, in every loaded ``optomem``
module that holds it, by a wrapper that records one span per call: name,
start, end, parent span and run id.  Spans stay in memory until
:meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Spans that only orchestrate other layers; trace coverage leaves them out.
ORCHESTRATION = {
    "runner.simulate", "runner.run_single", "runner.run_snapshots", "runner.run_sweep",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, layer: str, names: list[str], replace=None) -> None:
        """Wrap ``optomem.<layer>.<name>`` wherever optomem refers to it.

        ``replace`` optionally maps a name to a function that takes the
        original and returns a stand-in, which is wrapped instead.
        """
        module = sys.modules[f"optomem.{layer}"]
        for name in names:
            original = getattr(module, name)
            inner = replace[name](original) if replace and name in replace else original
            wrapper = self.wrap(f"{layer}.{name}", inner)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "optomem" or mod_name.startswith("optomem."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")

    # -- aggregation -------------------------------------------------------

    def outermost(self, prefix: str) -> list[dict]:
        """Spans named ``prefix*`` that no other ``prefix*`` span encloses."""
        found = []
        for span in self.spans:
            if not span["name"].startswith(prefix):
                continue
            parent = span["parent"]
            while parent is not None and not self.spans[parent]["name"].startswith(prefix):
                parent = self.spans[parent]["parent"]
            if parent is None:
                found.append(span)
        return found

    def total(self, prefix: str) -> float:
        return sum(s["end"] - s["start"] for s in self.outermost(prefix))

    def coverage(self) -> float:
        """Share of the root spans' time covered by non-orchestration layer spans."""
        roots = [s for s in self.spans if s["parent"] is None]
        root_time = sum(s["end"] - s["start"] for s in roots)
        intervals = sorted(
            (s["start"], s["end"]) for s in self.spans
            if s["parent"] is not None and not s["name"].startswith("cli.")
            and s["name"] not in ORCHESTRATION
        )
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered / root_time if root_time > 0 else 0.0
