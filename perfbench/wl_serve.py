"""Workload ``serve_http``: a closed loop against ``python -m repro.serving``.

Requests: every (legal base state, view, legal view state) triple of
the server's default chain service -- 64 states x 3 views, 2560
requests -- in a seeded order, one whole round after another.  Bodies
are encoded before timing starts.  Two client threads, one keep-alive
connection each (the box has two CPUs), send a request only when their
previous one was answered.

The server is set up ``INSTANCES`` times per run (spawn, warm-up,
untimed first requests); each instance then carries an equal share of
the measured rounds, so one unlucky process does not set the run's
figures.  Every reply is checked against the brute-force oracle.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import select
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from oracle import (
    CHAIN_COMPLEMENTS,
    ConstantComplementOracle,
    has_empty_relation,
    wire_problem,
)
from procs import ChildFailed, Children, last_json
from report import Context, Report, log
from spans import Tracer, median, percentile, self_time_by_name

#: Servers set up per run; each carries an equal share of the rounds.
INSTANCES = 5
CLIENTS = 2
#: Untimed requests each fresh server answers before measuring.
WARMUP_REQUESTS = 256
#: Requests replayed in-process to count store lookups per update.
LOOKUP_SAMPLE = 256
READY_TIMEOUT_S = 60.0
HEADERS = {"Content-Type": "application/json"}
#: The wire fault: an empty relation decodes with arity 0, so the
#: server finds the state illegal (see README.md).
WIRE_FAULT_REASONS = ("illegal-base-state", "illegal-view-state")


@dataclass
class Requests:
    """The request mix, encoded once, with the oracle's answers."""

    triples: list
    bodies: List[bytes]
    expected: list
    #: Requests carrying an empty relation (hit by the wire fault).
    empty: List[bool]


@dataclass
class Tally:
    """What the measured requests of one phase came to."""

    latencies_ms: List[float] = field(default_factory=list)
    overhead_ms: List[float] = field(default_factory=list)
    #: Confirmed requests per second, one entry per round.
    round_rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    answered: int = 0


def build_requests() -> Tuple[Requests, object, object]:
    from repro.engine.engine import Engine
    from repro.serving.protocol import UpdateRequest, request_to_wire
    from repro.serving.service import chain_service

    spec = chain_service()
    engine = Engine()
    space = engine.space_from(spec.space_source)
    oracle = ConstantComplementOracle(
        space.states,
        spec.assignment,
        {view.name: view for view in spec.views},
        CHAIN_COMPLEMENTS,
    )
    triples = oracle.triples()
    bodies = [
        json.dumps(
            request_to_wire(
                UpdateRequest(view=view, base=base, target=target, wait=True)
            )
        ).encode()
        for base, view, target in triples
    ]
    return (
        Requests(
            triples=triples,
            bodies=bodies,
            expected=[oracle.translate(v, b, t) for b, v, t in triples],
            empty=[
                has_empty_relation(b) or has_empty_relation(t)
                for b, _, t in triples
            ],
        ),
        spec,
        engine,
    )


# -- the server -----------------------------------------------------------------


class Server:
    """One ``python -m repro.serving`` child, tied to this process."""

    def __init__(self, children: Children) -> None:
        self.children = children
        self.proc = children.spawn(
            "child_serve.py", ["--port=0"], stdin=subprocess.PIPE
        )
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], READY_TIMEOUT_S
        )
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ChildFailed("server sent no readiness line")
        self.port = int(json.loads(line)["port"])
        log(f"serve_http: server pid {self.proc.pid} on port {self.port}")
        self._wait_healthy()

    def get(self, path: str) -> Dict[str, object]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.get("/healthz").get("status") != "ok":
            if time.monotonic() > deadline:
                raise ChildFailed("server did not warm up")
            time.sleep(0.005)

    def stop(self) -> Tuple[Dict[str, object], float]:
        """Close the parent pipe (the server drains); the drain report
        and the server's peak RSS in MB."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            self.children.stop(self.proc)
        lines = [line for line in out.splitlines() if line.strip()]
        drain = json.loads(lines[-2])["drain"] if len(lines) >= 2 else {}
        return drain, float(last_json(self.proc, out)["peak_rss_mb"])


# -- the closed loop ------------------------------------------------------------


def _client(
    port: int,
    bodies: Sequence[bytes],
    indices: Sequence[int],
    results: List[Tuple[int, int, bytes, float]],
    tracer: Tracer,
    errors: List[str],
) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for index in indices:
            with tracer.span("http.request", index):
                started = time.perf_counter()
                conn.request("POST", "/submit-update", bodies[index], HEADERS)
                response = conn.getresponse()
                raw = response.read()
                ms = (time.perf_counter() - started) * 1e3
            results.append((index, response.status, raw, ms))
    except Exception as exc:  # reported by the caller, never swallowed
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()


def send_round(
    port: int, bodies: Sequence[bytes], order: Sequence[int], traced: bool
) -> Tuple[List[Tuple[int, int, bytes, float]], float, List[Tracer]]:
    """Send *order* over ``CLIENTS`` connections; replies and wall time."""
    results: List[List[Tuple[int, int, bytes, float]]] = [
        [] for _ in range(CLIENTS)
    ]
    tracers = [Tracer(traced) for _ in range(CLIENTS)]
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(port, bodies, order[c::CLIENTS], results[c], tracers[c], errors),
            daemon=True,
        )
        for c in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise ChildFailed(f"client connection failed: {errors[0]}")
    return [r for per in results for r in per], wall, tracers


def fold(
    requests: Requests,
    replies: Sequence[Tuple[int, int, bytes, float]],
    tally: Tally,
    report: Report,
) -> None:
    """Check every reply against the oracle and count it."""
    for index, status, raw, ms in replies:
        tally.attempted += 1
        body = json.loads(raw)
        if status != 200 or body.get("status") != "done":
            report.problems.append(f"request {index}: HTTP {status} {body}")
            continue
        tally.answered += 1
        outcome = body["outcome"]
        problem = wire_problem(requests.expected[index], outcome)
        if problem is None:
            tally.latencies_ms.append(ms)
            tally.overhead_ms.append(ms - float(outcome["elapsed_ms"]))
        elif (
            requests.empty[index]
            and outcome.get("reason") in WIRE_FAULT_REASONS
        ):
            tally.failed += 1
        else:
            report.problems.append(f"request {index}: {problem}")


def end_to_end(tally: Tally, setup: List[float], rss: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setup),
        "throughput_per_s": median(tally.round_rates),
        "median_ms": median(tally.latencies_ms),
        "peak_rss_mb": median(rss),
    }


# -- the in-process replay (traced runs) ---------------------------------------


def replay(
    requests: Requests, spec, engine, order: Sequence[int], tracer: Tracer
) -> Dict[str, float]:
    """Replay one round through the public calls each layer exposes."""
    from repro.engine.fingerprint import is_content_addressed
    from repro.errors import UpdateRejected
    from repro.serving.protocol import outcome_to_wire, parse_update_request
    from repro.serving.session import AsyncSession

    async def run() -> Dict[str, float]:
        asession = AsyncSession(
            engine, spec.schema, spec.assignment, spec.space_source
        )
        try:
            await asession.warmup(spec.views, spec.candidates)
            session = asession.session
            algebra = session.component_algebra
            before = _store_lookups(engine)
            for index in order[:LOOKUP_SAMPLE]:
                base, view, target = requests.triples[index]
                session.update(view, base, target)
            lookups = (_store_lookups(engine) - before) / LOOKUP_SAMPLE
            hops: List[float] = []
            for index in order:
                base, view, target = requests.triples[index]
                with tracer.span("replay.request", index):
                    with tracer.span("serving.protocol.decode", index):
                        request = parse_update_request(requests.bodies[index])
                    started = time.perf_counter()
                    with tracer.span("engine.session.update", index):
                        outcome = session.update(
                            request.view, request.base, request.target
                        )
                    direct = time.perf_counter() - started
                    started = time.perf_counter()
                    with tracer.span("serving.session.update", index):
                        await asession.update(
                            request.view, request.base, request.target
                        )
                    hops.append(time.perf_counter() - started - direct)
                    with tracer.span("engine.procedure_hit", index):
                        procedure = session.procedure_for(view)
                    with tracer.span("engine.fingerprint.content_check", index):
                        is_content_addressed(session.view(view))
                        for component in algebra:
                            is_content_addressed(component.view)
                    with tracer.span("core.procedure.apply", index):
                        try:
                            procedure.apply(base, target)
                        except UpdateRejected:
                            pass
                    with tracer.span("serving.protocol.encode", index):
                        json.dumps(outcome_to_wire(outcome))
            return {"lookups": lookups, "hop_us": median(hops) * 1e6}
        finally:
            await asession.aclose()

    return asyncio.run(run())


def _store_lookups(engine) -> int:
    memory = engine.stats()["artifacts"]["memory"]
    return sum(int(k["hits"]) + int(k["misses"]) for k in memory.values())


# -- the workload ---------------------------------------------------------------


def run(ctx: Context) -> Report:
    report = Report()
    requests, spec, engine = build_requests()
    count = len(requests.bodies)
    report.check(count == 2560, f"chain service has {count} requests, not 2560")
    rng = random.Random(ctx.seed)
    tallies = {False: Tally(), True: Tally()}
    setup: List[float] = []
    rss: List[float] = []
    share = ctx.seconds / INSTANCES
    for instance in range(INSTANCES):
        # A trace run traces every other server.
        traced = ctx.trace and instance % 2 == 1
        started = time.perf_counter()
        server = Server(ctx.children)
        warm = rng.sample(range(count), WARMUP_REQUESTS)
        replies, _, _ = send_round(server.port, requests.bodies, warm, False)
        setup.append(time.perf_counter() - started)
        warm_tally = Tally()
        fold(requests, replies, warm_tally, report)
        answered = warm_tally.answered
        tally = tallies[traced]
        spent = wall = 0.0
        # The whole number of rounds that ends nearest the share.
        while spent == 0.0 or spent + wall / 2 < share:
            order = list(range(count))
            rng.shuffle(order)
            replies, wall, tracers = send_round(
                server.port, requests.bodies, order, traced
            )
            answered_before = tally.answered
            confirmed_before = len(tally.latencies_ms)
            fold(requests, replies, tally, report)
            answered += tally.answered - answered_before
            confirmed = len(tally.latencies_ms) - confirmed_before
            tally.round_rates.append(confirmed / wall)
            spent += wall
            for tracer in tracers:
                ctx.tracer.adopt(tracer.spans)
        completed = server.get("/stats")["admission"]["completed"]
        report.check(
            completed == answered,
            f"server completed {completed} requests, client counted {answered}",
        )
        drain, peak = server.stop()
        report.check(
            bool(drain.get("graceful")), f"server drain not graceful: {drain}"
        )
        rss.append(peak)
    untraced = tallies[False]
    report.attempted = sum(t.attempted for t in tallies.values())
    report.failed = sum(t.failed for t in tallies.values())
    report.end_to_end = end_to_end(untraced, setup, rss)
    report.notes.append(
        f"serve_http: {len(untraced.latencies_ms)} confirmed requests,"
        f" p50 {percentile(untraced.latencies_ms, 50):.3f} ms,"
        f" p90 {percentile(untraced.latencies_ms, 90):.3f} ms,"
        f" p99 {percentile(untraced.latencies_ms, 99):.3f} ms;"
        f" {sum(requests.empty)} of {count} requests carry an empty relation"
    )
    if ctx.trace:
        traced = tallies[True]
        report.traced_end_to_end = end_to_end(traced, setup, rss)
        order = list(range(count))
        rng.shuffle(order)
        with ctx.tracer.span("replay", "chain-service"):
            figures = replay(requests, spec, engine, order, ctx.tracer)
        by_name = self_time_by_name(ctx.tracer.spans)

        def us(name: str) -> float:
            return median(by_name.get(name, [])) * 1e6

        report.per_layer.update(
            {
                "serving.overhead_ms": median(traced.overhead_ms),
                "serving.protocol.decode_us": us("serving.protocol.decode"),
                "serving.protocol.encode_us": us("serving.protocol.encode"),
                "serving.session.hop_us": figures["hop_us"],
                "engine.session.update_us": us("engine.session.update"),
                "engine.procedure_hit_us": us("engine.procedure_hit"),
                "engine.fingerprint.content_check_us": us(
                    "engine.fingerprint.content_check"
                ),
                "core.procedure.apply_us": us("core.procedure.apply"),
                "engine.store.lookups_per_update": figures["lookups"],
            }
        )
    return report
