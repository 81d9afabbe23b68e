"""One process of the ``paper_suite`` workload.

Runs passes of experiments E1-E12 and X1-X2, each pass on a fresh
``Engine``.  The first pass is set-up: it pays the process's one-time
costs, and a line on stdout marks its end so the parent can time it.
Measured passes follow for ``--seconds`` (a pass is never cut short);
a trace run traces every other pass.

``--battery 1`` then runs the four admissibility checks of §1.2 on
the strategies whose verdicts the paper states: the component
translators of E9 and the update procedures of the chain service must
pass all four (Theorems 3.1.1 and 3.2.2); of E12's translators the
Γ2-constant one passes and the Γ3-constant one fails
nonextraneousness (Example 3.3.1).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict, List, Tuple

from spans import Tracer

CHECKS = ("nonextraneous", "functorial", "symmetric", "state_independent")


def one_pass(tracer: Tracer, number: int, failures: List[str]) -> float:
    """One pass on a fresh engine; its time."""
    from repro.engine.engine import Engine
    from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment

    started = time.perf_counter()
    with tracer.span("harness.pass", number):
        engine = Engine()
        for experiment in ALL_EXPERIMENTS:
            with tracer.span(f"harness.experiment.{experiment}", number):
                result = run_experiment(experiment, engine)
            if not result.passed:
                failures.append(f"{experiment} failed:\n{result.summary()}")
    return time.perf_counter() - started


def strategies() -> List[Tuple[str, object, Dict[str, bool]]]:
    """(name, strategy, expected check verdicts) for the battery."""
    from repro.core.constant_complement import (
        ComponentTranslator,
        ConstantComplementTranslator,
    )
    from repro.decomposition.projections import projection_view
    from repro.engine.engine import Engine
    from repro.workloads.scenarios import abcd_chain_small, two_unary_scenario

    admissible = {check: True for check in CHECKS}
    engine = Engine()
    with engine.activate():
        chain = abcd_chain_small()
        space = chain.state_space()
        algebra = engine.algebra(space, chain.all_component_views())
        found: List[Tuple[str, object, Dict[str, bool]]] = [
            (
                f"E9 {component.name}",
                ComponentTranslator.for_component(component, space),
                admissible,
            )
            for component in algebra
        ]
        for view in (
            chain.component_view([0]),
            chain.component_view([1, 2]),
            projection_view(chain, ("A", "B", "D")),
        ):
            found.append(
                (
                    f"Procedure 3.2.3 {view.name}",
                    engine.procedure(view, algebra),
                    admissible,
                )
            )
        scenario = two_unary_scenario()
        found.append(
            (
                "E12 Γ2-constant",
                ConstantComplementTranslator(
                    scenario.gamma1, scenario.gamma2, scenario.space
                ),
                admissible,
            )
        )
        found.append(
            (
                "E12 Γ3-constant",
                ConstantComplementTranslator(
                    scenario.gamma1, scenario.gamma3, scenario.space
                ),
                {**admissible, "nonextraneous": False},
            )
        )
    return found


def battery(tracer: Tracer, failures: List[str]) -> int:
    """Run every check on every strategy; returns the checks made."""
    from repro.core import admissibility

    made = 0
    for name, strategy, expected in strategies():
        for check in CHECKS:
            function = getattr(admissibility, f"check_{check}")
            with tracer.span(f"core.admissibility.{check}", name):
                passed = bool(function(strategy).passed)
            made += 1
            if passed != expected[check]:
                failures.append(
                    f"{name}: check_{check} gave {passed},"
                    f" the paper says {expected[check]}"
                )
    return made


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--battery", type=int, default=0)
    args = parser.parse_args()
    from repro.harness.experiments import ALL_EXPERIMENTS

    failures: List[str] = []
    one_pass(Tracer(False), 0, failures)
    print(json.dumps({"setup_done": True}), flush=True)

    passes: Dict[str, List[float]] = {"untraced": [], "traced": []}
    tracer = Tracer(bool(args.trace))
    quiet = Tracer(False)
    number = 1
    while (
        sum(passes["untraced"]) + sum(passes["traced"]) < args.seconds
        or (args.trace and number <= 2)
    ):
        # A trace run traces every other pass.
        phase = "traced" if args.trace and number % 2 == 0 else "untraced"
        passes[phase].append(
            one_pass(tracer if phase == "traced" else quiet, number, failures)
        )
        number += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = battery(tracer, failures) if args.battery else 0
    print(
        json.dumps(
            {
                "passes": passes,
                "experiments": len(ALL_EXPERIMENTS),
                "checks": checks,
                "failures": failures,
                "peak_rss_mb": peak,
                "spans": tracer.spans,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
