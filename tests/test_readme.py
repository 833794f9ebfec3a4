"""The README's library quick start runs as written.

The block under "## Library quick start" is executed at its own size (one
7,000-step chain), so the documented API cannot drift from the package.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start_block() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    code = quick_start_block()
    namespace = {}
    exec(compile(code, "README.md quick start", "exec"), namespace)
    trace, post = namespace["trace"], namespace["post"]
    assert trace.thetas.shape == (5000, post.mean.size)
    assert "vs" in capsys.readouterr().out
