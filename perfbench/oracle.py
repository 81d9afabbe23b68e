"""The benchmark's oracle: constant-complement translation by brute force.

By definition, the translation of a view update ``Γ(s) -> t`` with the
complement ``Γ'`` held constant is the legal state ``s'`` with
``Γ(s') = t`` and ``Γ'(s') = Γ'(s)``; it exists for at most one ``s'``
when ``Γ'`` is a join complement of ``Γ``.  The oracle finds it by
applying both views to every state of ``LDB`` -- no procedure, algebra
or kernel is involved -- and refuses a complement under which two
states would share a pair.  By Theorem 3.2.2 every strong join
complement gives the same answer, so one complement per view suffices:
the ones Example 3.2.4 names for the chain service.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.relational.instances import DatabaseInstance
from repro.serving.protocol import instance_to_wire
from repro.typealgebra.assignment import TypeAssignment
from repro.views.view import View

#: Example 3.2.4: Γ°BCD is held constant for Γ°AB and Γ_ABD, Γ°AB for
#: Γ°BCD.
CHAIN_COMPLEMENTS = {"Γ°AB": "Γ°BCD", "Γ_ABD": "Γ°BCD", "Γ°BCD": "Γ°AB"}

Triple = Tuple[DatabaseInstance, str, DatabaseInstance]


class OracleError(RuntimeError):
    """The oracle cannot decide (not a join complement, unknown state)."""


class ConstantComplementOracle:
    """Decides view updates over an explicit list of legal states."""

    def __init__(
        self,
        states: Sequence[DatabaseInstance],
        assignment: TypeAssignment,
        views: Mapping[str, View],
        complements: Mapping[str, str],
    ) -> None:
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise OracleError("LDB lists a state twice")
        self._position = {state: i for i, state in enumerate(self.states)}
        self.images: Dict[str, List[DatabaseInstance]] = {
            name: [view.apply(state, assignment) for state in self.states]
            for name, view in views.items()
        }
        self.complements = dict(complements)
        self._solutions: Dict[
            str, Dict[Tuple[DatabaseInstance, DatabaseInstance], int]
        ] = {}
        for name, complement in self.complements.items():
            table: Dict[Tuple[DatabaseInstance, DatabaseInstance], int] = {}
            pairs = zip(self.images[name], self.images[complement])
            for index, pair in enumerate(pairs):
                if table.setdefault(pair, index) != index:
                    raise OracleError(
                        f"{complement} is not a join complement of {name}:"
                        " two states share both images"
                    )
            self._solutions[name] = table

    def image_states(self, view: str) -> List[DatabaseInstance]:
        """The view's legal states, in a process-independent order."""
        return sorted(set(self.images[view]), key=wire_key)

    def translate(
        self, view: str, base: DatabaseInstance, target: DatabaseInstance
    ) -> Optional[DatabaseInstance]:
        """The reflected base state, or ``None`` if no translation exists."""
        position = self._position.get(base)
        if position is None:
            raise OracleError("base state is not in LDB")
        held = self.images[self.complements[view]][position]
        found = self._solutions[view].get((target, held))
        return None if found is None else self.states[found]

    def triples(self) -> List[Triple]:
        """Every (legal base, view, legal view state) request."""
        return [
            (base, view, target)
            for view in self.complements
            for target in self.image_states(view)
            for base in self.states
        ]


def wire_key(instance: DatabaseInstance) -> str:
    return json.dumps(instance_to_wire(instance), sort_keys=True)


def has_empty_relation(instance: DatabaseInstance) -> bool:
    """True if some relation of *instance* has no rows.

    Such instances do not survive ``instance_from_wire`` (it rebuilds an
    empty relation with arity 0), so the server rejects requests that
    carry one; see README.md.
    """
    return any(len(relation) == 0 for _, relation in instance.items())


def wire_problem(
    expected: Optional[DatabaseInstance], outcome: Mapping[str, object]
) -> Optional[str]:
    """What is wrong with a wire outcome, or ``None`` if it is right."""
    accepted = outcome.get("accepted")
    if accepted is not (expected is not None):
        return f"verdict accepted={accepted!r}, oracle says {expected is not None}"
    if expected is None:
        return None
    if outcome.get("base_after") != instance_to_wire(expected):
        return "base_after differs from the oracle's reflection"
    return None
