"""The README's library quick start runs as written.

The three ``python`` blocks under "Quick start (library)" run in order in
one namespace, as a reader pasting them would run them, so a name the
package no longer exports fails here.
"""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks() -> list:
    text = README.read_text()
    section = text.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.DOTALL | re.MULTILINE)


def test_the_quick_start_blocks_run_in_order():
    blocks = quick_start_blocks()
    assert len(blocks) == 3
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert "(0.5, 0.5)" in out.getvalue()  # coordinate 0 of the confidence set is pinned
