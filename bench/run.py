#!/usr/bin/env python3
"""lexid benchmark: per-text latency, corpus evaluation and CLI streaming.

Usage (from the repository root)::

    python3 bench/run.py --workload tweets-demo --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed`` (see ``workloads.py``),
drives lexid only through its public functions and its command-line
entry point, checks every output against an independent reference
(``reference.py``), and prints one line per metric followed, as the
last line of standard output, by a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same steps with
spans around every call into lexid and reports the per-layer metrics.

Load comes from one process: a closed loop with a single caller for
per-text work, ``evaluate`` at one job and at ``os.cpu_count()`` jobs,
and one CLI subprocess at a time.  The steps run in rounds until
``--seconds`` have passed, each round doing one repetition of every
step in a rotating order, so that every metric samples the whole run
rather than one stretch of it.  Every end-to-end timing is scaled by the
speed probe of ``probe.py`` taken around it, and the reported values are
medians over the run.

The package is imported from ``src/`` next to this directory; the run
stops with exit code 2 when it is missing.  Exit code 1 means an output
disagreed with the reference.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import workloads
from probe import NOMINAL_S, probe, probe_sustained, scale
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
LAUNCHER = Path(__file__).resolve().parent / "child.py"
PRESET = "test9"
REPORT_FORMATS = ("table", "csv", "json")
#: Rounds run even when ``--seconds`` is already spent.
MIN_ROUNDS = 3
#: Documents per language checked under all nine presets.
PRESET_SAMPLE = 20
#: How often the per-text pass stops to run the speed probe.
PROBE_INTERVAL_S = 0.05
#: Per-text figures behind the latency percentiles: ten beyond p99.
P99_SAMPLES = 1000
#: Texts per alternating untraced/traced block of the traced per-text pass.
TRACE_BLOCK = 50

#: name -> unit; the order is the print order.
END_TO_END = {
    "setup_s": "s",
    "classify_p50_us": "us",
    "classify_p99_us": "us",
    "classify_docs_per_s": "docs/s",
    "eval_j1_docs_per_s": "docs/s",
    "eval_par_docs_per_s": "docs/s",
    "cli_stream_lines_per_s": "lines/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "lexicon.load_s": "s",
    "lexicon.entries": "count",
    "normalize.p50_us": "us",
    "normalize.p99_us": "us",
    "normalize.tokens_per_doc": "count",
    "normalize.share": "fraction",
    "scoring.score_all_p50_us": "us",
    "scoring.score_all_p99_us": "us",
    "scoring.share": "fraction",
    "scoring.verdict_p50_us": "us",
    "scoring.match_ratio": "fraction",
    "scoring.fallback_frac": "fraction",
    "scoring.und_frac": "fraction",
    "evaluation.load_corpus_s": "s",
    "evaluation.emit_s": "s",
    "evaluation.evaluate_j1_s": "s",
    "evaluation.evaluate_par_s": "s",
    "evaluation.parallel_speedup": "x",
    "evaluation.pool_overhead_s": "s",
    "evaluation.parent_cpu_s": "s",
    "evaluation.worker_cpu_s": "s",
    "cli.startup_s": "s",
    "cli.stream_cpu_s": "s",
    "trace.overhead_frac": "fraction",
}


def import_lexid():
    """Import lexid from ``src/`` of the tree this script belongs to."""
    src = ROOT / "src"
    if not (src / "lexid" / "__init__.py").is_file():
        print(f"bench: no lexid package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import lexid

    if Path(lexid.__file__).resolve().parent != src / "lexid":
        print(f"bench: imported lexid from {lexid.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return lexid


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Checks:
    """Correctness bookkeeping shared by every step."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, what: str) -> None:
        failed = int(failed)
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 20:
            self.errors.append(f"{what}: {failed} of {attempted} wrong")


@dataclass
class Run:
    """Inputs, reference answers and measurements of one benchmark run."""

    lexid: object
    workload: workloads.Workload
    lex: object
    lex_dir: Path
    corpus_path: Path
    stream_path: Path
    tmp: Path
    outcomes: list[reference.Outcome]
    expected_report: dict
    checks: Checks = field(default_factory=Checks)
    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)
    tracer: Tracer | None = None
    #: one idle worker per core, for the speed probe around ``jobs=N`` runs
    probe_pool: ProcessPoolExecutor | None = None
    #: step name -> one entry per repetition
    m: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    #: sample counts behind each reported figure
    samples: dict = field(default_factory=dict)
    #: end-to-end figures before scaling by the speed probe
    unscaled: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.texts = [d.text for d in self.workload.documents]
        self.expected = [(o.language, o.reason) for o in self.outcomes]


# --------------------------------------------------------------- inputs


def reference_languages(lexid, wl: workloads.Workload):
    if wl.lexicon_words is not None:
        return wl.lexicon_words
    demo = lexid.demo_lexicon_dir()
    return {
        code: (
            frozenset(workloads.read_word_file(demo / code / "stopwords.txt")),
            frozenset(workloads.read_word_file(demo / code / "diacritics.txt")),
        )
        for code in sorted(p.name for p in demo.iterdir() if p.is_dir())
    }


def expected_report(outcomes, documents, codes) -> dict:
    """The parts of the JSON report that follow from the reference verdicts."""
    confusion = {g: {c: 0 for c in (*codes, "unclassified")} for g in codes}
    reasons = {g: {"no_evidence": 0, "tie": 0} for g in codes}
    for doc, out in zip(documents, outcomes):
        confusion[doc.gold][out.language or "unclassified"] += 1
        if out.reason:
            reasons[doc.gold][out.reason] += 1
    return {
        "total_documents": len(documents),
        "confusion": confusion,
        "unclassified_reasons": reasons,
    }


def prepare(lexid, name: str, seed: int, size: float, tmp: Path) -> Run:
    """Generate inputs, write them to disk and check them against the reference (untimed)."""
    wl = workloads.generate(name, seed, lexid.demo_lexicon_dir(), size)
    if wl.lexicon_words is None:
        lex_dir = lexid.demo_lexicon_dir()
    else:
        lex_dir = tmp / "lexicon"
        workloads.write_lexicon(wl.lexicon_words, lex_dir)
    corpus_path = tmp / "corpus.tsv"
    corpus_path.write_bytes(wl.corpus_tsv())
    stream_path = tmp / "stream.txt"
    stream_path.write_bytes("".join(f"{d.text}\n" for d in wl.documents).encode("utf-8"))

    languages = reference_languages(lexid, wl)
    outcomes = [reference.ReferenceScorer(languages, PRESET).score(d.tokens) for d in wl.documents]
    run = Run(
        lexid=lexid, workload=wl, lex=lexid.load_lexicon(lex_dir), lex_dir=lex_dir,
        corpus_path=corpus_path, stream_path=stream_path, tmp=tmp, outcomes=outcomes,
        expected_report=expected_report(outcomes, wl.documents, tuple(languages)),
    )
    check_sample(run, languages)
    return run


def check_sample(run: Run, languages) -> None:
    """Normalization of every text, and all nine presets on a fixed sample."""
    lexid = run.lexid
    docs = run.workload.documents
    wrong = sum(lexid.normalize_text(d.text).tokens != d.tokens for d in docs)
    run.checks.record(len(docs), wrong, "normalize_text tokens")

    sample = docs[: PRESET_SAMPLE * len(languages)]
    for preset in reference.PRESETS:
        scorer = reference.ReferenceScorer(languages, preset)
        cfg = lexid.preset_config(preset)
        wrong = 0
        for doc in sample:
            want = scorer.score(doc.tokens)
            verdict, scores = lexid.classify(lexid.normalize_text(doc.text), run.lex, cfg)
            same_scores = scores.keys() == want.scores.keys() and all(
                math.isclose(scores[c], want.scores[c], rel_tol=1e-9, abs_tol=1e-12)
                for c in scores
            )
            wrong += (verdict.language, verdict.reason) != (want.language, want.reason)
            wrong += not same_scores
        run.checks.record(2 * len(sample), wrong, f"verdicts and scores under {preset}")


# --------------------------------------------------------------- steps
#
# Each step performs one repetition of one measurement and appends its
# figures to ``run.m``.


def step_setup(run: Run) -> None:
    """``load_lexicon`` plus the first ``classify``."""
    lexid = run.lexid
    cfg = lexid.preset_config(PRESET)
    before = probe()
    t0 = perf_counter()
    lex = lexid.load_lexicon(run.lex_dir)
    verdict, _ = lexid.classify(lexid.normalize_text(run.texts[0]), lex, cfg)
    raw = perf_counter() - t0
    run.m["setup"].append((raw, scale(before, probe())))
    run.checks.record(1, (verdict.language, verdict.reason) != run.expected[0], "first verdict")


def step_setup_traced(run: Run) -> None:
    lexid, tr = run.lexid, run.tracer
    cfg = lexid.preset_config(PRESET)
    tr.begin("setup")
    tr.begin("load_lexicon")
    lex = lexid.load_lexicon(run.lex_dir)
    run.m["load"].append(tr.end())
    tr.begin("normalize_text", 0)
    nt = lexid.normalize_text(run.texts[0])
    tr.end()
    tr.begin("classify", 0)
    verdict, _ = lexid.classify(nt, lex, cfg)
    tr.end()
    tr.end()
    run.checks.record(1, (verdict.language, verdict.reason) != run.expected[0], "first verdict")


def step_classify(run: Run) -> None:
    """One closed-loop pass over every text: ``classify(normalize_text(t))``.

    The pass runs in blocks of about ``PROBE_INTERVAL_S`` with the speed
    probe between them; each block's times are scaled by the probes on
    either side of it.
    """
    normalize_text, classify = run.lexid.normalize_text, run.lexid.classify
    lex, cfg = run.lex, run.lexid.preset_config(PRESET)
    texts, expected = run.texts, run.expected
    samples: list[float] = []
    pass_time = 0.0
    wrong = i = 0
    before = probe()
    while i < len(texts):
        block: list[float] = []
        start = t1 = perf_counter()
        while i < len(texts) and t1 - start < PROBE_INTERVAL_S:
            t0 = perf_counter()
            verdict, _ = classify(normalize_text(texts[i]), lex, cfg)
            t1 = perf_counter()
            block.append(t1 - t0)
            if (verdict.language, verdict.reason) != expected[i]:
                wrong += 1
            i += 1
        after = probe()
        factor = scale(before, after)
        samples += [x * factor for x in block]
        pass_time += (t1 - start) * factor
        run.m["raw_pass_time"].append(t1 - start)
        before = after
    run.m["pass_rate"].append(len(texts) / pass_time)
    run.m["per_text"].append(samples)
    run.checks.record(len(texts), wrong, "classify verdicts")


def step_classify_traced(run: Run) -> None:
    """One pass with spans around ``normalize_text``, ``score_all`` and ``classify``.

    ``score_all`` is called once more on the same normalized text so its
    cost can be told apart from the verdict step inside ``classify``;
    the two calls swap order from one text to the next, so neither
    always runs on warm caches.  Each block of texts also runs once
    through the same calls without spans, which prices the tracing.
    """
    lexid, tr, m = run.lexid, run.tracer, run.m
    normalize_text, score_all, classify = lexid.normalize_text, lexid.score_all, lexid.classify
    lex, cfg = run.lex, lexid.preset_config(PRESET)
    texts, expected = run.texts, run.expected
    wrong = 0
    for lo in range(0, len(texts), TRACE_BLOCK):
        block = range(lo, min(lo + TRACE_BLOCK, len(texts)))
        t0 = perf_counter()
        for i in block:
            nt = normalize_text(texts[i])
            score_all(nt, lex, cfg)
            classify(nt, lex, cfg)
        t1 = perf_counter()
        for i in block:
            tr.begin("text", i)
            tr.begin("normalize_text", i)
            nt = normalize_text(texts[i])
            m["normalize"].append(tr.end())
            if i % 2:
                tr.begin("classify", i)
                verdict, _ = classify(nt, lex, cfg)
                m["classify"].append(tr.end())
            tr.begin("score_all", i)
            score_all(nt, lex, cfg)
            m["score_all"].append(tr.end())
            if not i % 2:
                tr.begin("classify", i)
                verdict, _ = classify(nt, lex, cfg)
                m["classify"].append(tr.end())
            tr.end()
            if (verdict.language, verdict.reason) != expected[i]:
                wrong += 1
        m["plain_time"].append(t1 - t0)
        m["traced_time"].append(perf_counter() - t1)
    run.checks.record(len(texts), wrong, "classify verdicts")


def step_eval(run: Run, jobs: int) -> None:
    """Corpus file to report bytes: ``load_corpus``, ``evaluate``, three reports."""
    lexid, tr = run.lexid, run.tracer
    cfg = lexid.preset_config(PRESET)
    rep: dict = {}
    if tr:
        tr.begin(f"eval_jobs{jobs}")
        tr.begin("load_corpus")
        corpus = lexid.load_corpus(run.corpus_path, "tsv")
        rep["load"] = tr.end()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        tr.begin("evaluate")
        report = lexid.evaluate(corpus, run.lex, cfg, parallelism=jobs)
        rep["evaluate"] = tr.end()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        rep["self_cpu"] = _cpu(self1) - _cpu(self0)
        rep["child_cpu"] = _cpu(child1) - _cpu(child0)
        rep["emit"] = 0.0
        payloads = []
        for fmt in REPORT_FORMATS:
            tr.begin("emit_report")
            payloads.append(lexid.emit_report(report, fmt))
            rep["emit"] += tr.end()
        rep["wall"] = tr.end()
    else:
        speed = probe if jobs == 1 else lambda: probe_all_cores(run)
        before = speed()
        t0 = perf_counter()
        corpus = lexid.load_corpus(run.corpus_path, "tsv")
        report = lexid.evaluate(corpus, run.lex, cfg, parallelism=jobs)
        payloads = [lexid.emit_report(report, fmt) for fmt in REPORT_FORMATS]
        rep["wall"] = perf_counter() - t0
        rep["scale"] = scale(before, speed())
    rep["payloads"] = tuple(payloads)
    run.m[f"eval_{jobs}"].append(rep)


def probe_all_cores(run: Run) -> float:
    """The sustained speed probe on every core at once; the slowest core's time.

    A ``jobs=N`` evaluation keeps every core busy and waits for its
    slowest worker, and neither the load on the other cores nor the
    host's limit on a guest that uses all of them shows on this core.
    """
    futures = [run.probe_pool.submit(probe_sustained) for _ in range(run.jobs)]
    return max(f.result() for f in futures)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def check_reports(run: Run) -> None:
    """Reports must match the reference and be byte-identical at any ``jobs``."""
    j1 = [rep["payloads"] for rep in run.m["eval_1"]]
    par = [rep["payloads"] for rep in run.m[f"eval_{run.jobs}"]]
    first = j1[0]
    report = json.loads(first[REPORT_FORMATS.index("json")])
    wrong = any(report[key] != value for key, value in run.expected_report.items())
    run.checks.record(1, wrong, "report against the reference verdicts")
    run.checks.record(len(j1), sum(p != first for p in j1), "report bytes, repeated at jobs=1")
    run.checks.record(
        len(par), sum(p != first for p in par), f"report bytes at jobs={run.jobs} vs jobs=1"
    )


def step_pool_overhead(run: Run) -> None:
    """``evaluate`` on two documents at ``jobs=N``: the pool's fixed cost."""
    lexid, tr = run.lexid, run.tracer
    corpus = lexid.load_corpus(run.corpus_path, "tsv")[:2]
    tr.begin("evaluate")
    lexid.evaluate(corpus, run.lex, lexid.preset_config(PRESET), parallelism=run.jobs)
    run.m["pool_overhead"].append(tr.end())


def cli(run: Run, args: list[str], stdin_path: Path | None, span: str) -> dict:
    """Run ``lexid detect`` as a fresh subprocess under ``child.py``.

    The launcher reaps the CLI with ``wait4``, which reports that one
    process's resource usage, so its peak RSS is neither the benchmark's
    nor mixed with the evaluation pool's workers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONIOENCODING"] = "utf-8"
    out_path, err_path = run.tmp / "cli.out", run.tmp / "cli.err"
    cmd = [sys.executable, str(LAUNCHER), str(stdin_path or "-"), str(out_path), str(err_path),
           "--", sys.executable, "-m", "lexid.cli", "detect", *args,
           "--preset", PRESET, "--lexicon", str(run.lex_dir)]
    launched = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    if launched.returncode != 0:
        raise RuntimeError(f"launcher exited {launched.returncode}: {launched.stderr}")
    usage = json.loads(launched.stdout)
    if usage["returncode"] != 0:
        raise RuntimeError(
            f"lexid detect exited {usage['returncode']}: {err_path.read_text(errors='replace')}"
        )
    if run.tracer:
        run.tracer.add(span, usage["start"], usage["end"])
    return {
        "wall": usage["end"] - usage["start"],
        "cpu": usage["cpu"],
        "rss_mib": usage["maxrss_kib"] / 1024,
        "scale": usage["scale"],
        "labels": out_path.read_text(encoding="utf-8").splitlines(),
    }


def step_cli_stream(run: Run) -> None:
    """``lexid detect --stdin`` over every text; labels must equal the verdicts."""
    rep = cli(run, ["--stdin"], run.stream_path, "cli_stream")
    want = [o.label for o in run.outcomes]
    wrong = sum(a != b for a, b in zip(rep["labels"], want)) + abs(len(rep["labels"]) - len(want))
    run.checks.record(len(want), wrong, "CLI labels")
    run.m["stream"].append(rep)


def step_cli_startup(run: Run) -> None:
    """One-text ``lexid detect``: interpreter start, import and lexicon load."""
    rep = cli(run, [run.texts[0]], None, "cli_startup")
    run.checks.record(1, rep["labels"] != [run.outcomes[0].label], "one-text CLI label")
    run.m["startup"].append(rep["wall"])


def run_rounds(run: Run, steps, seconds: float) -> int:
    """Repeat every step once per round, rotating their order, until time is up."""
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for k in range(len(steps)):
            steps[(rounds + k) % len(steps)](run)
        rounds += 1
    return rounds


# --------------------------------------------------------------- metrics


def per_text_medians(passes: list[list[float]]) -> list[float]:
    """Each text's median time over a group of passes, ascending.

    Short bursts of load hit a few passes of a text, not most of them.
    The passes are split into as few consecutive groups as give at least
    ``P99_SAMPLES`` figures (one per text and group), so the 99th
    percentile has at least ten beyond it.
    """
    groups = min(len(passes), math.ceil(P99_SAMPLES / len(passes[0])))
    size = len(passes) // groups
    return sorted(
        statistics.median(times)
        for g in range(groups)
        for times in zip(*passes[g * size : (g + 1) * size])
    )


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Medians over the run of times scaled by the speed probe."""
    steps = [
        step_setup,
        step_classify,
        lambda r: step_eval(r, 1),
        lambda r: step_eval(r, r.jobs),
        step_cli_stream,
    ]
    # "fork", not "spawn": a spawn-context pool starts multiprocessing's
    # resource tracker, a helper process that outlives the run.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=run.jobs, mp_context=fork) as pool:
        run.probe_pool = pool
        rounds = run_rounds(run, steps, seconds)
    run.probe_pool = None
    check_reports(run)
    m, n_docs, median = run.m, len(run.texts), statistics.median
    j1, par, stream = m["eval_1"], m[f"eval_{run.jobs}"], m["stream"]
    per_text = per_text_medians(m["per_text"])
    p99 = percentile(per_text, 0.99)
    run.samples = {
        "rounds": rounds,
        "setup_s": len(m["setup"]),
        "classify_p50_us": len(per_text),
        "classify_p99_us": {"samples": len(per_text), "beyond": sum(x > p99 for x in per_text)},
        "classify_docs_per_s": len(m["pass_rate"]),
        "eval_j1_docs_per_s": len(j1),
        "eval_par_docs_per_s": len(par),
        "cli_stream_lines_per_s": len(stream),
    }
    factors = [f for _, f in m["setup"]] + [r["scale"] for r in j1 + par + stream]
    run.unscaled = {
        "probe_s": NOMINAL_S / median(factors),
        "setup_s": median(t for t, _ in m["setup"]),
        "classify_docs_per_s": n_docs * len(m["pass_rate"]) / sum(m["raw_pass_time"]),
        "eval_j1_docs_per_s": median(n_docs / r["wall"] for r in j1),
        "eval_par_docs_per_s": median(n_docs / r["wall"] for r in par),
        "cli_stream_lines_per_s": median(n_docs / r["wall"] for r in stream),
    }
    return {
        "setup_s": median(t * f for t, f in m["setup"]),
        "classify_p50_us": percentile(per_text, 0.5) * 1e6,
        "classify_p99_us": p99 * 1e6,
        "classify_docs_per_s": median(m["pass_rate"]),
        "eval_j1_docs_per_s": median(n_docs / (r["wall"] * r["scale"]) for r in j1),
        "eval_par_docs_per_s": median(n_docs / (r["wall"] * r["scale"]) for r in par),
        "cli_stream_lines_per_s": median(n_docs / (r["wall"] * r["scale"]) for r in stream),
        "peak_rss_mib": median(r["rss_mib"] for r in stream),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    run.tracer = Tracer()
    steps = [
        step_setup_traced,
        step_classify_traced,
        lambda r: step_eval(r, 1),
        lambda r: step_eval(r, r.jobs),
        step_pool_overhead,
        step_cli_stream,
        step_cli_startup,
    ]
    rounds = run_rounds(run, steps, seconds)
    check_reports(run)
    m, median = run.m, statistics.median
    norm, score = sorted(m["normalize"]), sorted(m["score_all"])
    per_text_total = sum(m["normalize"]) + sum(m["classify"])
    verdict_only = sorted(c - s for c, s in zip(m["classify"], m["score_all"]))
    j1, par = m["eval_1"], m[f"eval_{run.jobs}"]
    docs, outcomes = run.workload.documents, run.outcomes
    run.samples = {
        "rounds": rounds,
        "texts": len(norm),
        "p99_beyond": {
            "normalize": sum(x > percentile(norm, 0.99) for x in norm),
            "score_all": sum(x > percentile(score, 0.99) for x in score),
        },
        "eval_j1": len(j1),
        "eval_par": len(par),
        "cli_stream": len(m["stream"]),
    }
    return {
        "lexicon.load_s": median(m["load"]),
        "lexicon.entries": sum(
            len(lang.stopwords) + len(lang.diacritics) for lang in run.lex.languages.values()
        ),
        "normalize.p50_us": percentile(norm, 0.5) * 1e6,
        "normalize.p99_us": percentile(norm, 0.99) * 1e6,
        "normalize.tokens_per_doc": sum(len(d.tokens) for d in docs) / len(docs),
        "normalize.share": sum(norm) / per_text_total,
        "scoring.score_all_p50_us": percentile(score, 0.5) * 1e6,
        "scoring.score_all_p99_us": percentile(score, 0.99) * 1e6,
        "scoring.share": sum(score) / per_text_total,
        "scoring.verdict_p50_us": percentile(verdict_only, 0.5) * 1e6,
        "scoring.match_ratio": sum(o.matched for o in outcomes) / sum(o.in_play for o in outcomes),
        "scoring.fallback_frac": sum(o.fallback for o in outcomes) / len(outcomes),
        "scoring.und_frac": sum(o.language is None for o in outcomes) / len(outcomes),
        "evaluation.load_corpus_s": median(r["load"] for r in j1 + par),
        "evaluation.emit_s": median(r["emit"] for r in j1 + par),
        "evaluation.evaluate_j1_s": median(r["evaluate"] for r in j1),
        "evaluation.evaluate_par_s": median(r["evaluate"] for r in par),
        "evaluation.parallel_speedup": median(r["evaluate"] for r in j1)
        / median(r["evaluate"] for r in par),
        "evaluation.pool_overhead_s": median(m["pool_overhead"]),
        "evaluation.parent_cpu_s": median(r["self_cpu"] for r in par),
        "evaluation.worker_cpu_s": median(r["child_cpu"] for r in par),
        "cli.startup_s": median(m["startup"]),
        "cli.stream_cpu_s": median(r["cpu"] for r in m["stream"]),
        "trace.overhead_frac": sum(m["traced_time"]) / sum(m["plain_time"]) - 1.0,
    }


# --------------------------------------------------------------- output


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(run: Run, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "preset": PRESET,
        "cpu_count": os.cpu_count(),
        "jobs": run.jobs,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "lexicon_fingerprint": run.lex.fingerprint(),
        "corpus_digest": run.workload.digest(),
        "documents": len(run.texts),
        "samples": run.samples,
        "unscaled": run.unscaled,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="document-count multiplier (smoke tests)"
    )
    args = parser.parse_args(argv)
    lexid = import_lexid()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        run = prepare(lexid, args.workload, args.seed, args.scale, Path(tmp))
        if args.trace:
            values, units = per_layer(run, args.seconds), PER_LAYER
            trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
            run.tracer.write(trace_path)
            print(f"spans: {len(run.tracer.names)} written to {trace_path}")
            for name, (count, total, own) in sorted(run.tracer.self_times().items()):
                print(f"span {name:16s} n={count:<7d} total={total:.6f}s self={own:.6f}s")
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END
    checks = run.checks

    print("provenance " + json.dumps(provenance(run, args), sort_keys=True))
    for name, value in values.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(f"{'failed_ratio':28s} {checks.failed / checks.attempted:14.6f} fraction")
    for error in checks.errors:
        print(f"bench: FAILED {error}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
