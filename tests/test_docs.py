import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the documented API example, run as written
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library use'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), f"{README}:Library use", "exec"), {})
    minimum, shape = out.getvalue().splitlines()
    assert float(minimum) < 0.0  # negative: cat state
    assert shape == "(1, 2000)"
