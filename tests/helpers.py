"""Shared test utilities."""

from collections import deque

import numpy as np

from treecolor.dynamics import (
    PaletteConfig,
    TypeDistribution,
    VertexType,
    cascade_growth,
    type_space,
)
from treecolor.errors import (
    ConfigurationError,
    DegenerateDistributionError,
    InsufficientDataError,
)
from treecolor.process import RED, UNCOLORED
from treecolor.stats import trajectory_distance


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


def mean_trajectory_distance(runs, cert) -> float:
    """Seed-aggregated figure: the mean of per-seed sup distances.  Order of
    `runs` does not matter."""
    if not runs:
        raise InsufficientDataError("no runs to aggregate")
    return float(np.mean([trajectory_distance(s, cert) for s in runs]))


def trajectory_distance_reference(stats, cert) -> float:
    """The per-step loop `trajectory_distance` used to run: for each step
    boundary up to R, interpolate the certified flow between the samples
    around k * epsilon (holding it at the first sample before it and at the
    last past it), and keep the largest max-norm distance."""
    times = np.asarray(cert.samples["times"], dtype=np.float64)
    states = np.asarray(cert.samples["states"], dtype=np.float64)
    worst = 0.0
    for k, z in enumerate(stats.distributions):
        t = k * stats.epsilon
        if t > cert.r:
            break
        i = int(np.searchsorted(times, t))
        if i == 0:
            sigma = states[0]
        elif i >= len(times):
            sigma = states[-1]
        else:
            w = (t - times[i - 1]) / (times[i] - times[i - 1])
            sigma = (1.0 - w) * states[i - 1] + w * states[i]
        worst = max(worst, float(np.max(np.abs(z.vec - sigma))))
    return worst


def run_tallies_reference(reports):
    """The loop `collect_run_stats` used to run: the red count after each
    step boundary (rules 3 and 4 plus the buffer's reds), and the vertices
    colored in each buffer round, summed over the steps that reached it."""
    red = 0
    reds = [red]
    buffer_rounds: list[int] = []
    for rep in reports:
        red += rep.rule3 + rep.rule4
        if rep.buffer is not None:
            red += rep.buffer.red_created
            for j, colored in enumerate(rep.buffer.colored_per_round):
                while len(buffer_rounds) <= j:
                    buffer_rounds.append(0)
                buffer_rounds[j] += colored
        reds.append(red)
    return reds, buffer_rounds


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


def write_fixture_reference(graph, presets) -> str:
    """The fixture writer as it used to be: one f-string per line."""
    lines = [f"{graph.n} {graph.r}"]
    lines += [f"{u} {v}" for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist())]
    lines += [f"color {v} {c}" for v, c in presets or []]
    return "\n".join(lines) + "\n"


def tree_greedy_reference(graph, vertices: list[int], lists) -> tuple[str, dict[int, int]]:
    """The greedy tree solver list coloring used to run on components that
    are trees: a breadth-first walk from the lowest vertex in which each
    vertex takes its first listed color that differs from its parent's."""
    vset = set(vertices)
    root = vertices[0]
    assignment: dict[int, int] = {}
    parent_color: dict[int, int | None] = {root: None}
    queue = deque([root])
    seen = {root}
    while queue:
        v = queue.popleft()
        avoid = parent_color[v]
        choice = None
        for c in lists[v]:
            if c != avoid:
                choice = c
                break
        if choice is None:
            return "infeasible", {}
        assignment[v] = choice
        for u in graph.neighbors(v):
            u = int(u)
            if u in vset and u not in seen:
                seen.add(u)
                parent_color[u] = choice
                queue.append(u)
    return "colored", assignment


# ---------------------------------------------------------------------------
# Randomness adapters for hand-traced and replayed runs
# ---------------------------------------------------------------------------

class ScriptedRandomness:
    """Deterministic adapter for hand-traced fixtures: a fixed active set per
    step and a fixed color per (step, vertex)."""

    def __init__(self, activations: dict[int, list[int]],
                 colors: dict[tuple[int, int], int]):
        self.activations = {s: set(vs) for s, vs in activations.items()}
        self.colors = dict(colors)

    def activation_mask(self, step: int, rate: np.ndarray,
                        type_code: np.ndarray) -> np.ndarray:
        return np.array(sorted(self.activations.get(step, ())), dtype=np.int64)

    def choose_color(self, step: int, v: int, avail: tuple[int, ...]) -> int:
        c = self.colors[(step, v)]
        if c not in avail:
            raise ConfigurationError(
                f"scripted color {c} for vertex {v} not in available {avail}"
            )
        return c


class RecordingRandomness:
    """Wraps another adapter and logs activations and color choices."""

    def __init__(self, inner):
        self.inner = inner
        self.activations: dict[int, np.ndarray] = {}
        self.choices: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}

    def activation_mask(self, step: int, rate: np.ndarray,
                        type_code: np.ndarray) -> np.ndarray:
        actives = self.inner.activation_mask(step, rate, type_code)
        self.activations[step] = actives.copy()
        return actives

    def choose_color(self, step: int, v: int, avail: tuple[int, ...]) -> int:
        c = self.inner.choose_color(step, v, avail)
        self.choices[(step, v)] = (avail, c)
        return c


class PermutedRandomness:
    """Replays a recording with every palette color pushed through a
    permutation; used to check color symmetry of the whole process."""

    def __init__(self, recording: RecordingRandomness, perm: dict[int, int]):
        self.recording = recording
        self.perm = dict(perm)

    def activation_mask(self, step: int, rate: np.ndarray,
                        type_code: np.ndarray) -> np.ndarray:
        return self.recording.activations[step].copy()

    def choose_color(self, step: int, v: int, avail: tuple[int, ...]) -> int:
        base_avail, base_choice = self.recording.choices[(step, v)]
        expected = tuple(sorted(self.perm[c] for c in base_avail))
        if expected != avail:
            raise ConfigurationError(
                f"permuted run diverged at vertex {v}: available {avail}, "
                f"expected {expected}"
            )
        return self.perm[base_choice]
