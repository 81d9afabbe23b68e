"""The three universes of the ``cold_start`` workload.

Each is compiled by public engine calls only; what a universe must
look like is written down here from the paper, apart from the program:
``|LDB|`` in closed form and the size of its Boolean component
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from oracle import CHAIN_COMPLEMENTS

CHAIN_ATTRIBUTES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Universe:
    name: str
    #: |LDB| from the closed form.
    states: int
    #: 2^k members: k edges of a chain, two unary relations.
    algebra_size: int
    #: Oracle complements of the served views.
    complements: Mapping[str, str]
    #: ``build(engine, tracer) -> (space, candidates, views)``.
    build: Callable[..., Tuple[object, tuple, tuple]]


def _chain_states(sizes: Tuple[int, ...]) -> int:
    count = 1
    for left, right in zip(sizes, sizes[1:]):
        count *= 2 ** (left * right)
    return count


def _chain(sizes: Tuple[int, ...]) -> Callable[..., Tuple[object, tuple, tuple]]:
    def build(engine, tracer):
        from repro.decomposition.chain import ChainSchema
        from repro.decomposition.projections import projection_view

        chain = ChainSchema(
            CHAIN_ATTRIBUTES,
            {
                attribute: tuple(f"{attribute.lower()}{i}" for i in range(size))
                for attribute, size in zip(CHAIN_ATTRIBUTES, sizes)
            },
        )
        with tracer.span("kernel.space"):
            space = engine.space_from(chain)
        views = (
            chain.component_view([0]),
            chain.component_view([1, 2]),
            projection_view(chain, ("A", "B", "D")),
        )
        return space, chain.all_component_views(), views

    return build


def _two_unary(values: int) -> Callable[..., Tuple[object, tuple, tuple]]:
    def build(engine, tracer):
        from repro.workloads.scenarios import two_unary_scenario

        with tracer.span("kernel.space"), engine.activate():
            scenario = two_unary_scenario(
                tuple(f"a{i}" for i in range(values))
            )
        candidates = (scenario.gamma1, scenario.gamma2, scenario.gamma3)
        return scenario.space, candidates, (scenario.gamma1, scenario.gamma2)

    return build


UNIVERSES: Dict[str, Universe] = {
    universe.name: universe
    for universe in (
        Universe(
            "chain-2221",
            _chain_states((2, 2, 2, 1)),
            2**3,
            CHAIN_COMPLEMENTS,
            _chain((2, 2, 2, 1)),
        ),
        Universe(
            "chain-3221",
            _chain_states((3, 2, 2, 1)),
            2**3,
            CHAIN_COMPLEMENTS,
            _chain((3, 2, 2, 1)),
        ),
        Universe(
            "unary-5",
            2 ** (2 * 5),
            2**2,
            {"Γ1": "Γ2", "Γ2": "Γ1"},
            _two_unary(5),
        ),
    )
}
