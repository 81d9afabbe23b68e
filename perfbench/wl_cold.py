"""Workload ``cold_start``: compile universes in fresh processes.

One round compiles each universe (seeded order) in a fresh child into
an empty local-dir store, then warm-starts a second fresh child from
that store; the small universes get ``REPEATS`` such pairs a round.  Each compile needs its own process
because process-lifetime caches (the kernel's transpose schedule
above all) hide most of a cold compile from a warm process.  Rounds
repeat until the run's time is spent; a round is never cut short.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from procs import last_json
from report import Context, Report, log
from spans import median, self_time_by_name
from universes import UNIVERSES

#: Probe processes per run; set-up is their median.
SETUPS = 7
#: Seeded updates per process, checked against the oracle.
SAMPLES = 32
#: Cold/warm pairs per round.  The small universes take tens to hundreds
#: of milliseconds, where a fresh process's jitter is large, so their
#: figures rest on two processes a round.
REPEATS = {"chain-3221": 1, "chain-2221": 2, "unary-5": 2}


def _child(
    ctx: Context, store: Path, mode: str, universe: str, trace: bool
) -> Tuple[Dict[str, object], float]:
    """Run one child; its result and the wall time from spawn until
    its engine calls returned (interpreter start and imports
    included, the untimed checks excluded)."""
    started = time.perf_counter()
    proc = ctx.children.spawn(
        "child_compile.py",
        [
            f"--mode={mode}",
            f"--store={store}",
            f"--universe={universe}",
            f"--seed={ctx.seed}",
            f"--samples={SAMPLES}",
            f"--trace={int(trace)}",
        ],
    )
    try:
        first = proc.stdout.readline()
        wall = time.perf_counter() - started
        rest, _ = proc.communicate()
    finally:
        ctx.children.stop(proc)
    return last_json(proc, first + rest), wall


def _check(report: Report, cold: Dict[str, object], warm: Dict[str, object]) -> None:
    universe = UNIVERSES[str(cold["universe"])]
    name = universe.name
    for result in (cold, warm):
        report.check(
            result["states"] == universe.states,
            f"{name}: |LDB| = {result['states']}, closed form {universe.states}",
        )
        report.check(
            result["algebra_size"] == universe.algebra_size
            and result["boolean"],
            f"{name}: algebra of {result['algebra_size']} members,"
            f" boolean={result['boolean']}; expected {universe.algebra_size}",
        )
    report.check(cold["builds"] > 0, f"{name}: cold process built nothing")
    report.check(
        warm["builds"] == 0, f"{name}: warm process built {warm['builds']}"
    )
    report.check(
        warm["disk_hits"] == cold["store_files"] > 0,
        f"{name}: warm process loaded {warm['disk_hits']} artifacts,"
        f" cold process stored {cold['store_files']}",
    )
    report.check(
        warm["digest"] == cold["digest"],
        f"{name}: warm artifacts answer differently from cold ones",
    )
    report.check(
        cold["oracle_mismatches"] == 0,
        f"{name}: {cold['oracle_mismatches']} of {SAMPLES} sampled updates"
        " disagree with the oracle",
    )


def run(ctx: Context) -> Report:
    report = Report()
    rng = random.Random(ctx.seed)
    setup: List[float] = []
    stores: List[Path] = []
    try:
        for _ in range(SETUPS):
            started = time.perf_counter()
            store = Path(tempfile.mkdtemp(prefix="store-", dir=ctx.work_dir))
            stores.append(store)
            info = ctx.children.run_json(
                "child_compile.py", ["--mode=probe", f"--store={store}"]
            )
            setup.append(time.perf_counter() - started)
        report.notes.append(f"cold_start: run info {info}")
        rounds: Dict[bool, List[List[Tuple[Dict, Dict, float, float]]]] = {
            False: [], True: []
        }
        spent = 0.0
        while spent < ctx.seconds or (ctx.trace and not rounds[True]):
            # A trace run traces every other round.
            traced = ctx.trace and len(rounds[False]) > len(rounds[True])
            names = [n for n in sorted(UNIVERSES) for _ in range(REPEATS[n])]
            rng.shuffle(names)
            this_round = []
            for name in names:
                store = Path(tempfile.mkdtemp(prefix="store-", dir=ctx.work_dir))
                stores.append(store)
                cold, cold_wall = _child(ctx, store, "cold", name, traced)
                warm, warm_wall = _child(ctx, store, "warm", name, traced)
                _check(report, cold, warm)
                this_round.append((cold, warm, cold_wall, warm_wall))
                spent += cold_wall + warm_wall
                report.attempted += 2
                log(
                    f"cold_start: {name} cold {cold['engine_s']:.3f}s"
                    f" warm {warm['engine_s']:.3f}s"
                    f" store {cold['store_bytes']} bytes"
                )
            rounds[traced].append(this_round)
    finally:
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)

    report.end_to_end = _end_to_end(rounds[False], setup)
    if ctx.trace:
        report.traced_end_to_end = _end_to_end(rounds[True], setup)
        report.per_layer.update(_per_layer(ctx, rounds[True]))
    return report


def _end_to_end(rounds, setup: List[float]) -> Dict[str, float]:
    """Per round: children per second of their wall time, the total
    engine time of its children, the largest child's peak RSS; each
    the median over rounds.

    The total is dominated by the 4096-state compile.  A geometric mean
    over (universe, cold/warm) would weigh the small universes equally,
    but their tens-of-milliseconds times swing 40-60 % with the state of
    the shared machine, against about 10 % for the large compile.
    """
    rates: List[float] = []
    totals: List[float] = []
    peaks: List[float] = []
    for this_round in rounds:
        children = [
            (result, wall)
            for cold, warm, cold_wall, warm_wall in this_round
            for result, wall in ((cold, cold_wall), (warm, warm_wall))
        ]
        rates.append(len(children) / sum(wall for _, wall in children))
        totals.append(sum(float(r["engine_s"]) for r, _ in children))
        peaks.append(max(float(r["peak_rss_mb"]) for r, _ in children))
    return {
        "setup_s": median(setup),
        "throughput_per_s": median(rates),
        "median_ms": median(totals) * 1e3,
        "peak_rss_mb": median(peaks),
    }


def _per_layer(ctx: Context, rounds) -> Dict[str, float]:
    """Per-round totals of each layer's self time, median over rounds."""
    totals: Dict[str, List[float]] = {}
    for this_round in rounds:
        sums: Dict[str, float] = {}
        for cold, warm, _, _ in this_round:
            for result in (cold, warm):
                spans = result["spans"]
                ctx.tracer.adopt(spans)
                for name, values in self_time_by_name(spans).items():
                    key = f"{result['mode']}:{name}"
                    sums[key] = sums.get(key, 0.0) + sum(values)
            sums["put_bytes"] = sums.get("put_bytes", 0.0) + cold["put_bytes"]
        for key, value in sums.items():
            totals.setdefault(key, []).append(value)

    def total(key: str) -> float:
        return median(totals.get(key, []))

    return {
        "kernel.space_s": total("cold:kernel.space"),
        "kernel.analysis_s": total("cold:kernel.analysis"),
        "core.components.discover_s": total("cold:core.components.discover"),
        "core.procedure.build_s": total("cold:core.procedure.build"),
        "engine.backends.put_s": total("cold:engine.backends.put"),
        "engine.backends.put_bytes": total("put_bytes"),
        "engine.backends.get_s": total("warm:engine.backends.get"),
        "engine.store.warm_load_s": sum(
            total(f"warm:{name}")
            for name in (
                "kernel.space",
                "core.components.discover",
                "core.procedure.build",
                "compile",
            )
        ),
        "resilience.locks.lease_s": total("cold:resilience.locks.lease"),
    }
