#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``serve_http``, ``cold_start`` and
``paper_suite`` (README.md says what each one exercises and why).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` traces
every other server, round or pass of the same work, prints each
layer's figures and the tracing overhead (traced against untraced
end-to-end figures), and writes the spans to
``perfbench/traces/<workload>-seed<seed>.jsonl``.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only when every check passed.

``--write-manifest`` regenerates ``BENCHMARK.json`` from
``manifest.py``.

Every ``REPRO_*`` variable is removed from this process's environment
and its children's, so a run measures the program's defaults.  Every
child process is reaped before the command returns, also on SIGINT
and SIGTERM, and the command checks that none is left.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from typing import List, Optional

import manifest
from procs import HERE, ROOT, SRC, Children, assert_no_children, strip_repro_env

WORKLOAD_MODULES = {
    "serve_http": "wl_serve",
    "cold_start": "wl_cold",
    "paper_suite": "wl_suite",
}


def _interrupted(signum: int, frame: object) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(manifest.RUN_SECONDS)
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.write_manifest:
        print(manifest.write(ROOT))
        return 0
    if args.workload is None:
        _parser().error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    strip_repro_env(os.environ)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _interrupted)

    from report import Context, log
    from spans import Tracer, write_spans

    work_dir = HERE / ".work"
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer(bool(args.trace))
    try:
        with Children() as children:
            ctx = Context(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                children=children,
                tracer=tracer,
                work_dir=work_dir,
            )
            module = importlib.import_module(WORKLOAD_MODULES[args.workload])
            report = module.run(ctx)
    except KeyboardInterrupt as exc:
        log(f"{args.workload}: interrupted ({exc}); children reaped")
        assert_no_children()
        return 130
    assert_no_children()

    from repro.kernel.config import kernel_mode

    print(
        json.dumps(
            {
                "run_info": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "kernel_mode": kernel_mode(),
                    "python": sys.version.split()[0],
                    "nproc": os.cpu_count(),
                }
            }
        )
    )
    for note in report.notes:
        print(note)
    print(
        f"{args.workload}: attempted {report.attempted},"
        f" failed {report.failed}"
    )
    if args.trace:
        path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, tracer.spans)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        for name, untraced in report.end_to_end.items():
            traced = report.traced_end_to_end[name]
            print(
                f"tracing overhead {name}: untraced {untraced:.6g},"
                f" traced {traced:.6g} ({(traced / untraced - 1) * 100:+.1f}%)"
            )
        wanted = manifest.PER_LAYER
    else:
        wanted = manifest.END_TO_END
    figures = {**report.end_to_end, **report.per_layer}
    metrics = {}
    for metric in wanted:
        name = str(metric["name"])
        # A layer this workload never reaches spent no time there.
        value = float(figures.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name} = {value:.6g} {metric['unit']}")
    for problem in report.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not report.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
