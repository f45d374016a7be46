"""Estimators and summaries for simulation runs.

Turns raw step reports into the quantitative checks the rest of the package
promises: distance between the empirical type trajectory and a certified
flow, exponential-tail fits for cascade sizes, epsilon-scaling of the red
fraction, the size-biased neighbor law, and remainder component statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, zip_longest
from typing import NamedTuple

import numpy as np

from .certify import Certificate
from .dynamics import (
    PaletteConfig,
    TypeDistribution,
    VertexType,
    size_biased_law,
    type_space,
)
from .errors import ConfigurationError, InsufficientDataError
from .graphs import format_rows
from .process import UNCOLORED, ColoringState, StepReport, uncolored_components

__all__ = [
    "RunStats",
    "collect_run_stats",
    "trajectory_distance",
    "TailFit",
    "cascade_tail_fit",
    "RedScaling",
    "red_scaling",
    "neighbor_type_law",
    "ComponentStats",
    "component_stats",
    "stats_csv",
]


@dataclass
class RunStats:
    """Per-step record of one simulation run plus its final tallies.

    `reports` are phase 1's step reports; `distributions` has one entry per
    step boundary (so one more than the reports); index k is the state
    after k steps at time k * epsilon.
    """

    r: int
    p: int
    epsilon: float
    n: int
    distributions: list[TypeDistribution]
    red_fracs: list[float]
    reports: list[StepReport]
    buffer_colored_per_round: list[int] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.reports)

    def time(self, k: int) -> float:
        return k * self.epsilon


def collect_run_stats(
    state: ColoringState,
    epsilon: float,
    reports: list[StepReport],
    distributions: list[TypeDistribution],
) -> RunStats:
    """Assemble a RunStats from a finished phase-1 run on `state`."""
    if len(distributions) != len(reports) + 1:
        raise ConfigurationError(
            f"expected one distribution per step boundary: got {len(distributions)} "
            f"for {len(reports)} steps"
        )
    n = state.graph.n
    reds = list(accumulate((rep.new_red + (rep.buffer.red_created if rep.buffer else 0)
                            for rep in reports), initial=0))
    rounds = zip_longest(*(rep.buffer.colored_per_round for rep in reports if rep.buffer),
                         fillvalue=0)
    # z is a fraction of the vertices off the boundary, reds of all n
    interior = n - len(state.graph.boundary)
    for k, z in zip(reds, distributions):
        if round(z.mass() * interior) + k > n:
            raise ConfigurationError("uncolored and red vertices exceed n")
    return RunStats(
        r=state.cfg.r,
        p=state.cfg.p,
        epsilon=float(epsilon),
        n=n,
        distributions=list(distributions),
        red_fracs=[k / n for k in reds],
        reports=reports,
        buffer_colored_per_round=[sum(colored) for colored in rounds],
    )


def trajectory_distance(stats: RunStats, cert: Certificate) -> float:
    """Sup over step boundaries k with k * epsilon <= R of the max-norm
    distance between the empirical distribution and the certified flow,
    linearly interpolated between certificate samples.  To aggregate over
    seeds, average the per-seed distances."""
    if (stats.r, stats.p) != (cert.cfg.r, cert.cfg.p):
        raise ConfigurationError(
            f"run is ({stats.r},{stats.p}) but certificate is {cert.cfg}"
        )
    if not np.isfinite(stats.epsilon) or stats.epsilon <= 0.0:
        raise ConfigurationError(
            f"run has no usable step size: epsilon={stats.epsilon!r}"
        )
    if cert.status != "certified" or cert.r is None:
        raise ConfigurationError("certificate has no stopping time to compare through")
    times = np.asarray(cert.samples["times"], dtype=np.float64)
    states = np.asarray(cert.samples["states"], dtype=np.float64)
    t = np.arange(len(stats.distributions)) * stats.epsilon
    t = t[t <= cert.r]
    z = np.array([d.vec for d in stats.distributions[:len(t)]])
    # before the first sample and past the last the flow is held at its end
    i = np.searchsorted(times, t)
    sigma = states[np.minimum(i, len(times) - 1)]
    inner = (i > 0) & (i < len(times))
    i = i[inner]
    w = ((t[inner] - times[i - 1]) / (times[i] - times[i - 1]))[:, None]
    sigma[inner] = (1.0 - w) * states[i - 1] + w * states[i]
    return float(np.max(np.abs(z - sigma)))


class TailFit(NamedTuple):
    mean: float
    decay_rate: float
    residual: float
    degenerate: bool


def cascade_tail_fit(histogram: dict[int, int]) -> TailFit:
    """Fit log P(size >= k) ~ -decay_rate * k over the observed support.

    A positive decay rate is the exponential-tail signature of subcritical
    cascades.  Histograms supported on a single size cannot be fit and come
    back flagged degenerate.
    """
    sizes = np.array(sorted(histogram), dtype=np.float64)
    counts = np.array([histogram[int(s)] for s in sizes], dtype=np.float64)
    if (counts < 0).any():
        raise ConfigurationError("histogram counts must be nonnegative")
    total = counts.sum()
    if total < 100:
        raise InsufficientDataError(
            f"tail fit needs >= 100 samples, got {int(total)}"
        )
    mean = float((sizes * counts).sum() / total)
    if len(sizes) < 2:
        return TailFit(mean=mean, decay_rate=0.0, residual=0.0, degenerate=True)
    # complementary CDF at each observed size
    ccdf = (total - np.concatenate(([0.0], np.cumsum(counts)[:-1]))) / total
    logc = np.log(ccdf)
    slope, intercept = np.polyfit(sizes, logc, 1)
    fitted = slope * sizes + intercept
    residual = float(np.sqrt(np.mean((logc - fitted) ** 2)))
    return TailFit(mean=mean, decay_rate=float(-slope), residual=residual,
                   degenerate=False)


class RedScaling(NamedTuple):
    slope: float | None
    intercept: float | None
    means: dict[float, float]
    degenerate: bool


def red_scaling(results: list[tuple[float, float]]) -> RedScaling:
    """Log-log regression of final red fraction against epsilon.

    Input is a flat list of (epsilon, red fraction) cells; at least three
    distinct epsilon values with at least three seeds each are required.
    Linear (order-epsilon) behavior shows up as slope ~ 1.
    """
    by_eps: dict[float, list[float]] = {}
    for eps, frac in results:
        if eps <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {eps}")
        if frac < 0.0 or frac > 1.0:
            raise ConfigurationError(f"red fraction out of range: {frac}")
        by_eps.setdefault(float(eps), []).append(float(frac))
    if len(by_eps) < 3:
        raise InsufficientDataError(
            f"red scaling needs >= 3 epsilon values, got {len(by_eps)}"
        )
    for eps, fracs in by_eps.items():
        if len(fracs) < 3:
            raise InsufficientDataError(
                f"epsilon {eps:g} has {len(fracs)} seeds, needs >= 3"
            )
    means = {eps: float(np.mean(fracs)) for eps, fracs in sorted(by_eps.items())}
    if any(m == 0.0 for m in means.values()):
        return RedScaling(slope=None, intercept=None, means=means, degenerate=True)
    x = np.log(np.array(sorted(means)))
    y = np.log(np.array([means[e] for e in sorted(means)]))
    slope, intercept = np.polyfit(x, y, 1)
    return RedScaling(slope=float(slope), intercept=float(intercept),
                      means=means, degenerate=False)


def neighbor_type_law(
    state: ColoringState, samples: int, rng: np.random.Generator
) -> tuple[dict[VertexType, float], float]:
    """Sample the type of a uniform uncolored neighbor of a uniform uncolored
    vertex (among vertices having one), and report the empirical law plus its
    total-variation distance to the size-biased law q at the empirical state.

    Boundary vertices of tree-ball graphs are excluded from both roles, as
    they are from `ColoringState.empirical_distribution`.
    """
    if samples <= 0:
        raise ConfigurationError(f"samples must be positive, got {samples}")
    g = state.graph
    okay = state.color == UNCOLORED
    okay[g.boundary] = False
    nbr_count = np.zeros(g.n, dtype=np.int64)
    np.add.at(nbr_count, g.edges_u, okay[g.edges_v])
    np.add.at(nbr_count, g.edges_v, okay[g.edges_u])
    eligible = np.nonzero(okay & (nbr_count > 0))[0]
    if not len(eligible):
        raise InsufficientDataError("no uncolored vertex has an uncolored neighbor")
    counts: dict[VertexType, int] = {}
    picks = eligible[rng.integers(len(eligible), size=samples)]
    for v in picks:
        nbrs = g.neighbors(int(v))
        nbrs = nbrs[okay[nbrs]]
        u = int(nbrs[rng.integers(len(nbrs))])
        t = state.vertex_type(u)
        counts[t] = counts.get(t, 0) + 1
    law = {t: c / samples for t, c in counts.items()}
    q = size_biased_law(state.empirical_distribution())
    space = type_space(state.cfg)
    tv = 0.5 * sum(abs(law.get(t, 0.0) - q.get(t, 0.0)) for t in space.types)
    return law, tv


class ComponentStats(NamedTuple):
    count: int
    mean_size: float
    max_size: int
    histogram: dict[int, int]


def component_stats(state: ColoringState,
                    components: list[list[int]] | None = None) -> ComponentStats:
    """Connected components of the uncolored subgraph: `components`, when
    the caller has found them with `uncolored_components` already."""
    components = uncolored_components(state) if components is None else components
    if not components:
        return ComponentStats(0, 0.0, 0, {})
    sizes = [len(comp) for comp in components]
    return ComponentStats(len(sizes), sum(sizes) / len(sizes), max(sizes),
                          Counter(sizes))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def stats_csv(stats: RunStats) -> str:
    """Render the per-step table: one row per step boundary, fixed header,
    one z column per type in canonical order."""
    space = type_space(PaletteConfig(stats.r, stats.p))
    header = ["step", "time", "uncolored_frac", "red_frac", "active",
              "mean_cascade", "max_cascade"]
    header += [f"z_{t.d}_{t.c}" for t in space.types]
    dists, sizes = stats.distributions, [rep.cascade_sizes for rep in stats.reports]
    steps = np.arange(len(dists))
    columns = [
        steps, steps * stats.epsilon, [z.mass() for z in dists], stats.red_fracs,
        [0] + [rep.active for rep in stats.reports],
        [0.0] + [float(np.mean(s)) if s else 0.0 for s in sizes],
        [0] + [max(s) if s else 0 for s in sizes],
        np.array([z.vec for z in dists]),
    ]
    template = "%d,%r,%r,%r,%d,%r,%d" + ",%r" * len(space.types) + "\n"
    return ",".join(header) + "\n" + "".join(format_rows(template, *columns))
