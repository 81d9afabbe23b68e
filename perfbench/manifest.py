"""What the benchmark measures: workloads, metrics, units and bounds.

``run.py --write-manifest`` renders this module into ``BENCHMARK.json``
at the repository root, so the file and the code cannot drift apart
(``tests/test_manifest.py`` checks that they agree).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "serve_http",
        "why": "closed-loop HTTP requests to python -m repro.serving:"
        " wire codec, session and Procedure 3.2.3 lookups, no compile"
        " kernel",
    },
    {
        "name": "cold_start",
        "why": "three universes compiled in fresh processes into an"
        " empty local-dir store, then warm-started from it: kernel,"
        " component discovery, store writes and reads, no serving",
    },
    {
        "name": "paper_suite",
        "why": "passes of experiments E1-E12 and X1-X2 on fresh"
        " engines: dominated by the admissibility battery, which no"
        " other workload runs",
    },
]

#: Every workload reports every end-to-end metric; README.md says
#: what each one measures on each workload.  The timing bounds are the
#: largest allowed because whole-run medians on the shared 2-vCPU
#: reference machine drift by up to about 18 % (README.md, "Noise").
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {
        "name": "throughput_per_s",
        "unit": "1/s",
        "better": "higher",
        "bound": 0.25,
    },
    {"name": "median_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _layer(name: str, unit: str, better: str = "lower") -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER: List[Dict[str, str]] = [
    # serve_http
    _layer("serving.overhead_ms", "ms"),
    _layer("serving.protocol.decode_us", "us"),
    _layer("serving.protocol.encode_us", "us"),
    _layer("serving.session.hop_us", "us"),
    _layer("engine.session.update_us", "us"),
    _layer("engine.procedure_hit_us", "us"),
    _layer("engine.fingerprint.content_check_us", "us"),
    _layer("core.procedure.apply_us", "us"),
    _layer("engine.store.lookups_per_update", "count"),
    # cold_start
    _layer("kernel.space_s", "s"),
    _layer("kernel.analysis_s", "s"),
    _layer("core.components.discover_s", "s"),
    _layer("core.procedure.build_s", "s"),
    _layer("engine.backends.put_s", "s"),
    _layer("engine.backends.put_bytes", "bytes"),
    _layer("engine.backends.get_s", "s"),
    _layer("engine.store.warm_load_s", "s"),
    _layer("resilience.locks.lease_s", "s"),
    # paper_suite
    _layer("harness.experiment_s.E9", "s"),
    _layer("harness.experiment_s.E12", "s"),
    _layer("harness.experiment_s.E10", "s"),
    _layer("harness.experiment_s.X1", "s"),
    _layer("harness.experiment_s.X2", "s"),
    _layer("harness.experiment_s.rest", "s"),
    _layer("core.admissibility.nonextraneous_s", "s"),
    _layer("core.admissibility.functorial_s", "s"),
    _layer("core.admissibility.symmetric_s", "s"),
    _layer("core.admissibility.state_independent_s", "s"),
]

def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    return path
