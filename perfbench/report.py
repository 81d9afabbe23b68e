"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from procs import Children
from spans import Tracer


def log(message: str) -> None:
    """Progress for humans; stdout is kept for the result lines."""
    print(message, file=sys.stderr, flush=True)


@dataclass
class Context:
    """One run's settings and the resources it owns."""

    seed: int
    seconds: float
    trace: bool
    children: Children
    tracer: Tracer
    #: Scratch space inside the checkout (temp stores live here).
    work_dir: Path


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    #: One line per failed check; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: End-to-end metrics of the traced phase (trace runs only).
    traced_end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Extra human-readable lines (sample counts, tails, run info).
    notes: List[str] = field(default_factory=list)

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

