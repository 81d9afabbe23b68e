"""The oracle catches wrong answers, and agrees with the program."""

from __future__ import annotations

import copy

import pytest

from oracle import (
    CHAIN_COMPLEMENTS,
    ConstantComplementOracle,
    OracleError,
    wire_problem,
)


@pytest.fixture(scope="module")
def served():
    from repro.engine.engine import Engine
    from repro.serving.service import chain_service

    spec = chain_service()
    engine = Engine()
    space = engine.space_from(spec.space_source)
    session = engine.session(spec.schema, spec.assignment, space)
    for view in spec.views:
        session.register_view(view)
    session.build_component_algebra(spec.candidates)
    oracle = ConstantComplementOracle(
        space.states,
        spec.assignment,
        {view.name: view for view in spec.views},
        CHAIN_COMPLEMENTS,
    )
    return spec, session, oracle


def test_session_update_agrees_with_oracle_on_every_triple(served):
    _, session, oracle = served
    triples = oracle.triples()
    assert len(triples) == 2560
    disagreements = []
    for base, view, target in triples:
        outcome = session.update(view, base, target)
        expected = oracle.translate(view, base, target)
        if outcome.accepted != (expected is not None) or (
            outcome.accepted and outcome.base_after != expected
        ):
            disagreements.append((view, base, target))
    assert disagreements == []
    accepted = sum(
        oracle.translate(v, b, t) is not None for b, v, t in triples
    )
    assert 0 < accepted < len(triples)


def _wire(session, oracle, accepted):
    from repro.serving.protocol import outcome_to_wire

    for base, view, target in oracle.triples():
        expected = oracle.translate(view, base, target)
        if (expected is not None) == accepted and expected != base:
            outcome = outcome_to_wire(session.update(view, base, target))
            return expected, outcome
    raise AssertionError("no such triple")


def test_oracle_flags_a_flipped_verdict(served):
    _, session, oracle = served
    for accepted in (True, False):
        expected, outcome = _wire(session, oracle, accepted)
        assert wire_problem(expected, outcome) is None
        flipped = dict(outcome, accepted=not accepted)
        assert wire_problem(expected, flipped) is not None


def test_oracle_flags_a_corrupted_base_after(served):
    _, session, oracle = served
    expected, outcome = _wire(session, oracle, True)
    corrupted = copy.deepcopy(outcome)
    relation = next(iter(corrupted["base_after"]))
    rows = corrupted["base_after"][relation]
    if rows:
        rows.pop()
    else:
        rows.append([None] * 4)
    assert wire_problem(expected, corrupted) is not None
    missing = {k: v for k, v in outcome.items() if k != "base_after"}
    assert wire_problem(expected, missing) is not None


def test_oracle_refuses_a_complement_that_does_not_determine_the_state(
    served,
):
    spec, _, oracle = served
    views = {view.name: view for view in spec.views}
    with pytest.raises(OracleError):
        ConstantComplementOracle(
            oracle.states, spec.assignment, views, {"Γ°AB": "Γ_ABD"}
        )
