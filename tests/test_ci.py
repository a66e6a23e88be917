import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_runs_the_roadmap_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = workflow["jobs"]["tier1"]["steps"]
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (ROOT / "ROADMAP.md").read_text())
    assert steps[-1]["run"] == verify.group(1)
    assert any('".[test]"' in step.get("run", "") for step in steps)


def test_tier1_workflow_pins_one_blas_thread():
    # the benchmark's setting; two OpenBLAS pools of two threads each
    # slow every L-BFGS-B iteration of the mq/gauss descent
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    assert workflow["jobs"]["tier1"]["env"] == {"OPENBLAS_NUM_THREADS": "1"}
