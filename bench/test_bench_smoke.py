"""Smoke test: every workload at a tiny size, both modes, no timing gate.

Also checks that the metric names and units the runs print agree with
``BENCHMARK.json``, and that a wrong reference verdict fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_complete(workload, trace):
    code, result = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                          "--trace", trace, "--scale", "0.01")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.SIZES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_same_seed_same_inputs():
    demo = run.import_lexid().demo_lexicon_dir()
    for name in run.workloads.SIZES:
        a = run.workloads.generate(name, 3, demo, scale=0.01)
        b = run.workloads.generate(name, 3, demo, scale=0.01)
        assert a.corpus_tsv() == b.corpus_tsv() and a.lexicon_words == b.lexicon_words
        assert a.digest() != run.workloads.generate(name, 4, demo, scale=0.01).digest()


def test_wrong_reference_verdict_fails_the_run(monkeypatch, capsys):
    real = reference.verdict

    def off_by_one(scores):
        language, reason = real(scores)
        codes = sorted(scores)
        return (codes[(codes.index(language) + 1) % len(codes)], None) if language else ("es", None)

    monkeypatch.setattr(reference, "verdict", off_by_one)
    code = run.main(["--workload", "articles-demo", "--seed", "1", "--seconds", "0",
                     "--scale", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
