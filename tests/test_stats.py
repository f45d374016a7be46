"""Estimator tests: synthetic oracles with known answers, trivial edge cases,
and light end-to-end checks against short simulation runs."""

import dataclasses
import json
import math

import numpy as np
import pytest
from helpers import (
    mean_trajectory_distance,
    run_tallies_reference,
    trajectory_distance_reference,
)

from treecolor.certify import Certificate, certify
from treecolor.cli import main
from treecolor.dynamics import (
    PaletteConfig,
    TypeDistribution,
    VertexType,
    default_tuning,
    size_biased_law,
)
from treecolor.errors import ConfigurationError, InsufficientDataError
from treecolor.graphs import gen_regular_graph, gen_tree_ball, parse_fixture
from treecolor.process import UNCOLORED, BufferReport, ColoringState, StepReport, run_phase1
from treecolor.stats import (
    cascade_tail_fit,
    collect_run_stats,
    component_stats,
    neighbor_type_law,
    red_scaling,
    stats_csv,
    trajectory_distance,
)

CFG43 = PaletteConfig(4, 3)


def run_stats_for(n, steps, *, eps=0.05, seed=3, graph_seed=3, cfg=CFG43):
    graph = gen_regular_graph(n, cfg.r, seed=graph_seed)
    state = ColoringState(graph, cfg, seed=seed)
    reports, dists = run_phase1(state, default_tuning(cfg, epsilon=eps), steps)
    return state, collect_run_stats(state, eps, reports, dists)


@pytest.fixture(scope="module")
def cert43():
    return certify(CFG43, default_tuning(CFG43), threshold=0.99999)


# ---------------------------------------------------------------------------
# cascade_tail_fit
# ---------------------------------------------------------------------------

def test_tail_fit_recovers_geometric_decay():
    # counts halve with size; the last bin absorbs the remaining tail so the
    # complementary CDF is exactly 2^(1-k)
    hist = {k: 2 ** (20 - k) for k in range(1, 20)}
    hist[20] = 2
    fit = cascade_tail_fit(hist)
    assert not fit.degenerate
    assert fit.decay_rate == pytest.approx(math.log(2), rel=0.05)
    assert fit.mean == pytest.approx(2.0, rel=0.01)
    assert fit.residual < 1e-9


def test_tail_fit_single_size_is_degenerate():
    fit = cascade_tail_fit({1: 500})
    assert fit.degenerate
    assert fit.mean == 1.0


def test_tail_fit_needs_enough_samples():
    with pytest.raises(InsufficientDataError):
        cascade_tail_fit({1: 60, 2: 39})


def test_tail_fit_rejects_negative_counts():
    with pytest.raises(ConfigurationError):
        cascade_tail_fit({1: 200, 2: -1})


# ---------------------------------------------------------------------------
# red_scaling
# ---------------------------------------------------------------------------

def test_red_scaling_recovers_linear_law():
    cells = [(eps, 3 * eps) for eps in (0.04, 0.02, 0.01) for _ in range(3)]
    out = red_scaling(cells)
    assert not out.degenerate
    assert out.slope == pytest.approx(1.0, abs=0.01)
    assert out.intercept == pytest.approx(math.log(3), abs=1e-9)


def test_red_scaling_zero_reds_is_degenerate():
    cells = [(eps, 0.0) for eps in (0.04, 0.02, 0.01) for _ in range(3)]
    out = red_scaling(cells)
    assert out.degenerate
    assert out.slope is None


def test_red_scaling_needs_three_epsilons_and_seeds():
    with pytest.raises(InsufficientDataError):
        red_scaling([(e, 0.1) for e in (0.04, 0.02) for _ in range(3)])
    short = [(0.04, 0.1)] * 3 + [(0.02, 0.1)] * 3 + [(0.01, 0.1)] * 2
    with pytest.raises(InsufficientDataError):
        red_scaling(short)


def test_red_scaling_rejects_bad_cells():
    good = [(e, 0.1) for e in (0.04, 0.02, 0.01) for _ in range(3)]
    with pytest.raises(ConfigurationError):
        red_scaling(good + [(-0.01, 0.1)])
    with pytest.raises(ConfigurationError):
        red_scaling(good + [(0.04, 1.5)])


def test_red_scaling_averages_within_epsilon():
    # noisy seeds around the same mean still give the noiseless slope
    cells = []
    for eps in (0.04, 0.02, 0.01):
        cells += [(eps, 3 * eps * f) for f in (0.9, 1.0, 1.1)]
    out = red_scaling(cells)
    assert out.slope == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# neighbor_type_law
# ---------------------------------------------------------------------------

def test_neighbor_law_fresh_state_is_point_mass():
    graph = gen_regular_graph(200, 4, seed=1)
    state = ColoringState(graph, CFG43, seed=0)
    law, tv = neighbor_type_law(state, 500, np.random.default_rng(0))
    assert law == {VertexType(4, 3): 1.0}
    assert tv == 0.0


def fixture_state(text, presets):
    graph, _ = parse_fixture(text)
    return ColoringState(graph, CFG43, presets=presets)


def test_neighbor_law_fully_colored_state_errors():
    state = fixture_state("3 4\n0 1\n1 2\n", [(0, 0), (1, 1), (2, 0)])
    with pytest.raises(InsufficientDataError):
        neighbor_type_law(state, 10, np.random.default_rng(0))


def test_neighbor_law_needs_an_uncolored_pair():
    # the lone uncolored vertex has only colored neighbors
    state = fixture_state("3 4\n0 1\n0 2\n", [(1, 0), (2, 0)])
    with pytest.raises(InsufficientDataError):
        neighbor_type_law(state, 10, np.random.default_rng(0))


def test_neighbor_law_rejects_nonpositive_samples():
    graph = gen_regular_graph(50, 4, seed=1)
    state = ColoringState(graph, CFG43, seed=0)
    with pytest.raises(ConfigurationError):
        neighbor_type_law(state, 0, np.random.default_rng(0))


def test_neighbor_law_tracks_size_biased_law_mid_run():
    state, _ = run_stats_for(20000, 120, eps=0.02, seed=5, graph_seed=5)
    law, tv = neighbor_type_law(state, 20000, np.random.default_rng(7))
    assert abs(sum(law.values()) - 1.0) < 1e-12
    assert tv <= 0.05
    # the comparison law should itself be well formed
    q = size_biased_law(state.empirical_distribution())
    assert sum(q.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# component_stats
# ---------------------------------------------------------------------------

def test_component_stats_fresh_graph_is_one_giant_component():
    graph = gen_regular_graph(50, 3, seed=2)
    state = ColoringState(graph, PaletteConfig(3, 2), seed=0)
    comp = component_stats(state)
    assert comp.count == 1
    assert comp.max_size == 50
    assert comp.mean_size == 50.0
    assert comp.histogram == {50: 1}


def test_component_stats_fully_colored_is_empty():
    state = fixture_state("3 4\n0 1\n1 2\n", [(0, 0), (1, 1), (2, 0)])
    comp = component_stats(state)
    assert comp == (0, 0.0, 0, {})


def test_component_stats_splits_on_colored_cut():
    state = fixture_state("5 4\n0 1\n1 2\n2 3\n3 4\n", [(2, 0)])
    comp = component_stats(state)
    assert comp.count == 2
    assert comp.mean_size == 2.0
    assert comp.max_size == 2
    assert comp.histogram == {2: 2}


def test_component_histogram_counts_every_component():
    state, _ = run_stats_for(3000, 150, eps=0.05, seed=9, graph_seed=9)
    comp = component_stats(state)
    assert sum(comp.histogram.values()) == comp.count
    assert sum(s * k for s, k in comp.histogram.items()) == int(
        (state.color == -1).sum()
    )


def test_forest_identity_on_a_tree_ball():
    # In a forest, components = vertices - edges, so the mean component size
    # is 1/(1 - dbar/2) exactly, dbar being the mean uncolored degree of an
    # uncolored vertex.  The uncolored part of a tree ball is a forest.
    state = ColoringState(gen_tree_ball(4, 7), CFG43, seed=3)
    run_phase1(state, default_tuning(CFG43, epsilon=0.05), 150)
    comp = component_stats(state)
    g, unc = state.graph, state.color == UNCOLORED
    dbar = 2 * int((unc[g.edges_u] & unc[g.edges_v]).sum()) / int(unc.sum())
    assert comp.count > 1
    assert comp.mean_size == pytest.approx(14.18605, abs=1e-5)
    assert comp.mean_size == pytest.approx(1.0 / (1.0 - dbar / 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# collect_run_stats and serialization
# ---------------------------------------------------------------------------

def test_collect_rejects_mismatched_lengths():
    state, stats = run_stats_for(500, 10)
    with pytest.raises(ConfigurationError):
        collect_run_stats(state, 0.05, [], stats.distributions)


def test_collect_compares_counts_on_a_tree_ball():
    # The type distribution is over the 5 interior vertices, reds over all
    # 17: all 12 leaves red beside an uncolored interior is 17 vertices.
    state = ColoringState(gen_tree_ball(4, 2), CFG43)
    z = state.empirical_distribution()
    assert z.mass() == 1.0 and state.graph.n == 17
    stats = collect_run_stats(state, 0.05, [StepReport(rule3=12)], [z, z])
    assert stats.red_fracs == [0.0, 12 / 17]
    with pytest.raises(ConfigurationError, match="exceed n"):
        collect_run_stats(state, 0.05, [StepReport(rule3=13)], [z, z])


def _assert_tallies_match_the_loop(stats):
    reds, rounds = run_tallies_reference(stats.reports)
    assert stats.red_fracs == [k / stats.n for k in reds]
    assert stats.buffer_colored_per_round == rounds


def test_run_tallies_match_the_per_step_loop():
    # buffers of unequal length, a step without one and an empty one
    state = ColoringState(gen_regular_graph(100, 4, seed=1), CFG43)
    reports = [StepReport(rule3=1, buffer=BufferReport(colored_per_round=[5, 2], red_created=1)),
               StepReport(rule4=2),
               StepReport(buffer=BufferReport(colored_per_round=[3, 1, 4])),
               StepReport(buffer=BufferReport())]
    empty = TypeDistribution(CFG43, np.zeros(10))
    stats = collect_run_stats(state, 0.05, reports, [empty] * 5)
    _assert_tallies_match_the_loop(stats)
    assert stats.buffer_colored_per_round == [8, 3, 4]
    assert stats.red_fracs == [0.0, 0.02, 0.04, 0.04, 0.04]


def test_modified_run_tallies_match_the_per_step_loop():
    state = ColoringState(gen_regular_graph(2000, 4, seed=8), CFG43, seed=8)
    reports, dists = run_phase1(state, default_tuning(CFG43, epsilon=0.25), 40, modified=True)
    assert len({len(rep.buffer.colored_per_round) for rep in reports}) > 1
    _assert_tallies_match_the_loop(collect_run_stats(state, 0.25, reports, dists))


def test_run_stats_fractions_and_histogram():
    state, stats = run_stats_for(2000, 60)
    assert stats.steps == 60
    assert len(stats.distributions) == 61
    assert stats.red_fracs[0] == 0.0
    assert all(
        b >= a for a, b in zip(stats.red_fracs, stats.red_fracs[1:])
    )
    for k, z in enumerate(stats.distributions):
        total = z.mass() + stats.red_fracs[k]
        assert total <= 1.0 + 1e-12


def test_stats_csv_shape_and_values():
    state, stats = run_stats_for(500, 20)
    text = stats_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "step,time,uncolored_frac,red_frac,active,"
        "mean_cascade,max_cascade,"
        + ",".join(f"z_{d}_{c}" for d in range(5) for c in (2, 3))
    )
    assert len(lines) == 22  # header + initial row + one per step
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[2]) == 1.0
    assert first[4] == "0"
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 17
        fracs = [float(x) for x in cells[2:4]]
        assert all(0.0 <= f <= 1.0 for f in fracs)
    # z columns carry the type distribution: fresh run starts at z_4_3 = 1
    assert float(lines[1].split(",")[-1]) == 1.0


def test_stats_csv_roundtrips_exact_floats():
    _, stats = run_stats_for(500, 5)
    text = stats_csv(stats)
    row = text.strip().split("\n")[3].split(",")
    assert float(row[3]) == stats.red_fracs[2]
    assert float(row[1]) == stats.time(2)


def test_summary_json_is_valid_and_complete(tmp_path):
    path = tmp_path / "summary.json"
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.05",
                 "--n", "500", "--steps", "10", "--seed", "3",
                 "--summary", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    body = json.loads(text)
    assert list(body) == [
        "r", "p", "epsilon", "n", "steps", "final_uncolored_frac",
        "final_red_frac", "final_extra_frac", "total_cascades",
        "buffer_colored_per_round", "component_histogram", "violations",
        "failure_counts", "red_before_tidy", "completion_components",
        "completion_colored", "tidy_erased", "uncolored_component_count",
        "uncolored_component_mean", "uncolored_component_max", "proper", "config",
    ]
    assert body["r"] == 4 and body["p"] == 3
    assert body["steps"] == 10
    assert body["config"]["seed"] == 3
    # the final fractions describe the coloring after phase 2 and tidy-up
    assert body["final_uncolored_frac"] == 0.0
    assert body["final_red_frac"] == 0.0
    assert 0.0 <= body["final_extra_frac"] <= 1.0


# ---------------------------------------------------------------------------
# trajectory_distance
# ---------------------------------------------------------------------------

def test_trajectory_distance_step_zero_is_tiny(cert43):
    graph = gen_regular_graph(2000, 4, seed=11)
    state = ColoringState(graph, CFG43, seed=0)
    reports, dists = run_phase1(state, default_tuning(CFG43, epsilon=0.02), 0)
    stats = collect_run_stats(state, 0.02, reports, dists)
    assert trajectory_distance(stats, cert43) == 0.0


def test_trajectory_distance_small_early_window(cert43):
    _, stats = run_stats_for(50000, 100, eps=0.02, seed=1, graph_seed=42)
    d = trajectory_distance(stats, cert43)
    assert d <= 0.02


@pytest.mark.parametrize("n, steps, eps, seed", [
    (2000, 40, 0.02, 1),
    (5000, 60, 0.05, 2),
    (2000, 230, 0.05, 3),  # 11.5 > R: the steps past R are not compared
])
def test_trajectory_distance_matches_the_per_step_loop(cert43, n, steps, eps, seed):
    _, stats = run_stats_for(n, steps, eps=eps, seed=seed, graph_seed=8)
    assert trajectory_distance(stats, cert43) == trajectory_distance_reference(stats, cert43)


# With every z zero the distance at step k is the largest entry of the flow
# at k * 0.25, so rows that grow (or shrink) make the last (or first)
# compared step the sup and each end of the interpolation decide the result.
@pytest.mark.parametrize("times, scale, r", [
    ([0.0, 0.5, 1.25, 2.0], [1, 2, 3, 4], 2.0),  # the sup at a sample time
    ([0.0, 0.5, 1.25, 2.0], [1, 2, 3, 4], 1.9),  # R cuts between samples
    ([0.25, 0.5, 1.1], [1, 2, 3], 2.0),  # held at the last sample past it
    ([0.25, 0.5, 1.25], [3, 2, 1], 2.0),  # held at the first sample before it
    ([0.0], [1], 1.0),  # a single sample: no interval to interpolate on
])
def test_trajectory_distance_matches_the_loop_at_sample_times(cert43, times, scale, r):
    _, stats = run_stats_for(500, 8)
    stats.epsilon = 0.25
    stats.distributions = [TypeDistribution(CFG43, np.zeros(10))] * 9
    row = np.random.default_rng(6).uniform(0.0, 0.05, 10)
    cert = dataclasses.replace(cert43, r=r, samples={
        "times": times, "states": [(s * row).tolist() for s in scale]})
    with np.errstate(all="raise"):
        d = trajectory_distance(stats, cert)
    assert d == trajectory_distance_reference(stats, cert) > 0.0


def test_trajectory_distance_rejects_mismatched_palette(cert43):
    cfg = PaletteConfig(6, 4)
    graph = gen_regular_graph(600, 6, seed=1)
    state = ColoringState(graph, cfg, seed=0)
    reports, dists = run_phase1(state, default_tuning(cfg, epsilon=0.02), 1)
    stats = collect_run_stats(state, 0.02, reports, dists)
    with pytest.raises(ConfigurationError):
        trajectory_distance(stats, cert43)


def test_trajectory_distance_rejects_bad_epsilon(cert43):
    _, stats = run_stats_for(500, 3)
    stats.epsilon = 0.0
    with pytest.raises(ConfigurationError):
        trajectory_distance(stats, cert43)


def test_trajectory_distance_requires_certified_input(cert43):
    failed = Certificate(
        schema_version=cert43.schema_version,
        status="failed",
        cfg=cert43.cfg,
        tuning=cert43.tuning,
        control=cert43.control,
        threshold=cert43.threshold,
        r=None,
        max_g_on_0_r=None,
        remainder_growth_at_r=None,
        margin_g=None,
        margin_remainder=None,
        samples=cert43.samples,
        refinements=cert43.refinements,
        diagnostics=cert43.diagnostics,
        metadata=cert43.metadata,
    )
    _, stats = run_stats_for(500, 3)
    with pytest.raises(ConfigurationError):
        trajectory_distance(stats, failed)


def test_mean_trajectory_distance_is_seed_order_invariant(cert43):
    runs = []
    for seed in (1, 2, 3):
        _, stats = run_stats_for(2000, 40, eps=0.02, seed=seed, graph_seed=8)
        runs.append(stats)
    fwd = mean_trajectory_distance(runs, cert43)
    rev = mean_trajectory_distance(list(reversed(runs)), cert43)
    assert fwd == rev
    singles = [trajectory_distance(s, cert43) for s in runs]
    assert fwd == pytest.approx(float(np.mean(singles)))
    with pytest.raises(InsufficientDataError):
        mean_trajectory_distance([], cert43)
