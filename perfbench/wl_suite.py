"""Workload ``paper_suite``: passes of E1-E12 and X1-X2.

Set up ``SETUPS`` fresh processes one after another; each times its
first pass as set-up and then runs an equal share of the measured
passes, so one process's luck does not set the run's figures.  The
last one also runs the admissibility battery (see ``child_suite.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List

from child_suite import CHECKS
from procs import last_json
from report import Context, Report, log
from spans import median

SETUPS = 3
#: The experiments with their own per-layer row; the rest are summed.
NAMED = ("E9", "E12", "E10", "X1", "X2")


def run(ctx: Context) -> Report:
    report = Report()
    setup: List[float] = []
    rss: List[float] = []
    passes: Dict[str, List[float]] = {"untraced": [], "traced": []}
    spans: List[List[dict]] = []
    for index in range(SETUPS):
        started = time.perf_counter()
        proc = ctx.children.spawn(
            "child_suite.py",
            [
                f"--seconds={ctx.seconds / SETUPS}",
                f"--trace={int(ctx.trace)}",
                f"--battery={int(index == SETUPS - 1)}",
            ],
        )
        try:
            first = proc.stdout.readline()
            setup.append(time.perf_counter() - started)
            rest, _ = proc.communicate()
        finally:
            ctx.children.stop(proc)
        result = last_json(proc, first + rest)
        report.problems.extend(result["failures"])
        for phase, times in result["passes"].items():
            passes[phase].extend(times)
            report.attempted += len(times) * int(result["experiments"])
        report.attempted += int(result["checks"])
        rss.append(float(result["peak_rss_mb"]))
        spans.append(result["spans"])
        ctx.tracer.adopt(result["spans"])
        log(
            f"paper_suite: process {index}: set-up {setup[-1]:.3f}s,"
            f" passes {[round(t, 3) for t in result['passes']['untraced']]}"
        )
    report.check(
        bool(passes["untraced"]), "paper_suite: no measured pass"
    )
    report.end_to_end = _end_to_end(passes["untraced"], setup, rss)
    if ctx.trace:
        report.traced_end_to_end = _end_to_end(passes["traced"], setup, rss)
        report.per_layer.update(_per_layer(spans))
    return report


def _end_to_end(
    passes: List[float], setup: List[float], rss: List[float]
) -> Dict[str, float]:
    return {
        "setup_s": median(setup),
        "throughput_per_s": median([1.0 / seconds for seconds in passes]),
        "median_ms": median(passes) * 1e3,
        "peak_rss_mb": median(rss),
    }


def _per_layer(spans: List[List[dict]]) -> Dict[str, float]:
    """Each experiment's time per pass (a pass's spans carry its number
    within its process), median over passes; battery totals."""
    per_pass: Dict[object, Dict[str, float]] = {}
    for process, process_spans in enumerate(spans):
        for span in process_spans:
            name = str(span["name"])
            if name.startswith("harness.experiment."):
                experiment = name.rsplit(".", 1)[1]
                row = per_pass.setdefault((process, span["op"]), {})
                key = experiment if experiment in NAMED else "rest"
                row[key] = row.get(key, 0.0) + span["end"] - span["start"]
    figures = {
        f"harness.experiment_s.{key}": median(
            [row.get(key, 0.0) for row in per_pass.values()]
        )
        for key in NAMED + ("rest",)
    }
    for check in CHECKS:
        figures[f"core.admissibility.{check}_s"] = sum(
            span["end"] - span["start"]
            for process_spans in spans
            for span in process_spans
            if span["name"] == f"core.admissibility.{check}"
        )
    return figures
