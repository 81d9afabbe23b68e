"""One fresh process of the ``cold_start`` workload.

``--mode cold`` compiles a universe into an empty local-dir store:
the state space, the component algebra and the update procedure of
every served view.  ``--mode warm`` makes the same engine calls over
the store the cold process filled.  ``--mode probe`` only imports the
engine, opens the store and reports the run's kernel mode: it is the
workload's set-up.

Stdout carries two JSON lines: the first is printed the moment the
engine calls return (the parent times the process up to it), the
second holds the measurements and the checks, which run untimed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Dict

from spans import Tracer


class TimedBackend:
    """An artifact backend that records spans around the one it wraps."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.put_bytes = 0

    def open(self) -> None:
        self._inner.open()

    def get(self, key):
        with self._tracer.span("engine.backends.get", key.kind):
            return self._inner.get(key)

    def put(self, key, payload: bytes):
        self.put_bytes += len(payload)
        with self._tracer.span("engine.backends.put", key.kind):
            return self._inner.put(key, payload)

    def delete(self, key) -> None:
        self._inner.delete(key)

    def sweep(self) -> int:
        return self._inner.sweep()

    def stats(self) -> Dict[str, object]:
        return self._inner.stats()

    def lease_for(self, key):
        lease = self._inner.lease_for(key)
        return None if lease is None else TimedLease(lease, self._tracer)


class TimedLease:
    """A lease whose acquire and release are recorded as spans."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def waited(self) -> bool:
        return self._inner.waited

    @property
    def took_over(self) -> bool:
        return self._inner.took_over

    @property
    def timed_out(self) -> bool:
        return self._inner.timed_out

    def acquire(self) -> bool:
        with self._tracer.span("resilience.locks.lease", "acquire"):
            return self._inner.acquire()

    def release(self) -> None:
        with self._tracer.span("resilience.locks.lease", "release"):
            self._inner.release()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(store: str) -> Dict[str, object]:
    from repro.engine.backends import LocalDirBackend
    from repro.kernel.config import kernel_mode

    LocalDirBackend(store).open()
    return {
        "kernel_mode": kernel_mode(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def compile_universe(args: argparse.Namespace) -> Dict[str, object]:
    from repro.core.strong import analyze_view
    from repro.engine.backends import LocalDirBackend
    from repro.engine.engine import Engine
    from repro.errors import UpdateRejected

    from oracle import ConstantComplementOracle
    from universes import UNIVERSES

    universe = UNIVERSES[args.universe]
    tracer = Tracer(args.trace)
    backend = LocalDirBackend(args.store)
    if args.trace:
        backend = TimedBackend(backend, tracer)
    engine = Engine(backend=backend)
    started = time.perf_counter()
    with tracer.span("compile", universe.name):
        space, candidates, views = universe.build(engine, tracer)
        if args.trace and args.mode == "cold":
            # The first analyses in the process pay its one-time caches.
            with tracer.span("kernel.analysis"):
                for view in candidates:
                    analyze_view(view, space)
        with tracer.span("core.components.discover"):
            algebra = engine.algebra(space, candidates)
        with tracer.span("core.procedure.build"):
            procedures = {
                view.name: engine.procedure(view, algebra) for view in views
            }
    engine_s = time.perf_counter() - started
    peak = _peak_rss_mb()
    print(json.dumps({"compiled": universe.name}), flush=True)

    memory = engine.stats()["artifacts"]["memory"]
    backend_kinds = engine.stats()["artifacts"]["backend"]["kinds"]
    files = [p for p in Path(args.store).iterdir() if p.suffix == ".pkl"]
    result: Dict[str, object] = {
        "universe": universe.name,
        "mode": args.mode,
        "engine_s": engine_s,
        "peak_rss_mb": peak,
        "states": len(space),
        "algebra_size": len(algebra),
        "boolean": bool(algebra.is_boolean()),
        "builds": sum(int(k["builds"]) for k in memory.values()),
        "disk_hits": sum(int(k["disk_hits"]) for k in backend_kinds.values()),
        "store_files": len(files),
        "store_bytes": sum(p.stat().st_size for p in files),
        "complements": {
            name: procedure.complement.name
            for name, procedure in procedures.items()
        },
    }
    if args.trace:
        result["put_bytes"] = backend.put_bytes
        result["spans"] = tracer.spans

    result["digest"] = hashlib.sha256(
        json.dumps(
            [
                space.fingerprint(),
                sorted(component.name for component in algebra),
                result["complements"],
            ],
            sort_keys=True,
        ).encode()
    ).hexdigest()
    if args.mode == "cold":
        # Checked here, where the compile already paid the poset's
        # lazily built tables; a warm process would pay them again on
        # its first update (see README.md).
        oracle = ConstantComplementOracle(
            space.states,
            space.assignment,
            {view.name: view for view in views},
            universe.complements,
        )
        rng = random.Random(f"{args.seed}/{universe.name}")
        names = sorted(procedures)
        mismatches = 0
        for _ in range(args.samples):
            view = rng.choice(names)
            base = rng.choice(space.states)
            target = procedures[view].view.apply(
                rng.choice(space.states), space.assignment
            )
            try:
                reflected = procedures[view].apply(base, target)
            except UpdateRejected:
                reflected = None
            mismatches += oracle.translate(view, base, target) != reflected
        result["oracle_mismatches"] = mismatches
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "cold", "warm"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--universe")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=32)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "probe":
        result = probe(args.store)
    else:
        result = compile_universe(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
