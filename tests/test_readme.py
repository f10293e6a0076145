"""The library example in the README must run as written.

It pins the names the package root exports.  In CI it runs, like the rest of
Tier-1, against a plain (not editable) install of the package.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The fenced python block under the README's ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(library_example(), f"{README}:Library", "exec"), {})
