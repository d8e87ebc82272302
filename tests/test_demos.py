"""Every demo script runs to completion against the package in ``src``.

Each self-check a demo prints must read ``True``, and the single-text
demo's verdicts are pinned.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: The self-check lines each demo prints, by their label.
SELF_CHECKS = {
    "02_scoring_anatomy.py": ["fallback equal:"],
    "03_lexicon_tooling.py": ["second pass is a no-op:", "reload equals original:"],
    "04_corpus_evaluation.py": ["parallelism 4 report identical:"],
}


def run(demo, cwd):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_demos_found():
    assert len(DEMOS) >= 4
    assert set(SELF_CHECKS) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    lines = run(demo, tmp_path)
    for label in SELF_CHECKS.get(demo.name, []):
        checks = [line for line in lines if line.startswith(label)]
        assert checks == [f"{label} True"], label


def test_single_text_demo_verdicts(tmp_path):
    lines = run(ROOT / "demos" / "01_single_text_detection.py", tmp_path)
    # A verdict line right-aligns the label in 18 columns, then the text.
    verdicts = [line[:18].strip() for line in lines if line[:18].strip() and line[18:20] == "  "]
    assert verdicts == ["fr", "es", "ro", "pt", "it", "ro"]
    reasons = [line.rsplit("reason=", 1)[1] for line in lines if " -> language=None " in line]
    assert reasons == ["tie", "no_evidence"]
