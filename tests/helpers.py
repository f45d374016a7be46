"""Shared test utilities."""

import numpy as np

from treecolor.dynamics import (
    PaletteConfig,
    TypeDistribution,
    VertexType,
    cascade_growth,
    type_space,
)
from treecolor.errors import DegenerateDistributionError
from treecolor.process import RED, UNCOLORED


def random_subcritical(rng, cfg: PaletteConfig, growth_cap: float = 0.95):
    """Random sub-probability type distribution with cascade growth below cap."""
    space = type_space(cfg)
    while True:
        vec = rng.dirichlet(np.ones(space.size)) * rng.uniform(0.2, 1.0)
        z = TypeDistribution(cfg, vec)
        try:
            if cascade_growth(z) < growth_cap:
                return z
        except DegenerateDistributionError:
            continue


def mixed_example() -> TypeDistribution:
    """Reference two-type state used by several frozen-value tests."""
    cfg = PaletteConfig(4, 3)
    return TypeDistribution.from_dict(
        cfg, {VertexType(4, 3): 0.5, VertexType(2, 2): 0.5}
    )


def ball3_uncolored_reference(state):
    """The full-scan search buffer rounds used to run: a breadth-first
    search to depth 3 from every red vertex at once, in vertex order.
    Returns the uncolored vertices it reaches and, for each vertex reached,
    the red whose wave got there first."""
    g = state.graph
    dist: dict[int, int] = {}
    owner: dict[int, int] = {}
    frontier = [int(v) for v in np.nonzero(state.color == RED)[0]]
    for v in frontier:
        dist[v] = 0
        owner[v] = v
    for depth in range(1, 4):
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                u = int(u)
                if u not in dist:
                    dist[u] = depth
                    owner[u] = owner[v]
                    nxt.append(u)
        frontier = nxt
    targets = sorted(u for u, d in dist.items()
                     if d > 0 and state.color[u] == UNCOLORED)
    return targets, owner
