"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    bundle = namespace["bundle"]
    assert bundle.r_min == min(bundle.r_s_to_shat, bundle.r_e_to_shat, bundle.r_s_to_e)
