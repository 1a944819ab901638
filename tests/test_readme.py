"""The README's library example runs as written, and its data layout
names the sidecar keys ``simulate`` writes."""

import json
import re
from pathlib import Path

from redflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    bundle = namespace["bundle"]
    assert bundle.r_min == min(bundle.r_s_to_shat, bundle.r_e_to_shat, bundle.r_s_to_e)


def test_simulated_sidecars_carry_the_readme_keys(tmp_path):
    layout = README.read_text().split("### Data layout", 1)[1].split("\n### ", 1)[0]
    sentence = re.search(r"Every sidecar `simulate` writes has exactly the\s+keys (.*?)\.", layout)
    named = set(re.findall(r"`([^`]+)`", sentence.group(1)))
    assert "rate_hz" in named
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"n_subjects": 2, "n_trials": 4, "n_samples": 600}}))
    assert main(["simulate", "--config", str(config), "--data", str(tmp_path / "data")]) == 0
    sidecars = sorted((tmp_path / "data").glob("s*/*.json"))
    assert len(sidecars) == 2 * 4 * 3
    for path in sidecars:
        assert set(json.loads(path.read_text())) == named, path.name
