"""Acceptance suite: twelve end-to-end criteria, one verdict line each.

Each test checks one numbered criterion at its stated tolerance and records
a PASS/FAIL line for the terminal summary before asserting.  Heavy shared
artifacts (certificates, phase-1 runs) are computed once per session and
reused across criteria.

Two criteria measure known gaps and fail at their stated tolerances; they
run honestly and report the measured values:

* Criterion 6 (trajectory match at 0.02): rule-3/4 red conversions truncate
  cascades, so the coloring flux lags the drift prediction by 2-7% per step
  near the growth peak; the accumulated time shift multiplies the steepest
  part of the flow and produces a 0.03-0.07 spike, at every seed and step
  size tried (sups 0.0646 / 0.0411 / 0.0385 / 0.0519 / 0.0569 at seeds 1-5).
* Criterion 9 (mean component size vs 1/(1-m)): the remainder is locally a
  forest, so its per-component mean is 1/(1 - dbar/2) up to its few cycles
  (here one: 2,025 components on 9,588 vertices and 7,564 edges); 1/(1-m)
  itself is the expected progeny of a single directed edge and crosses the
  per-component mean only in a narrow coincidence window (m around
  0.6-0.75).  The test reports these and the size-biased mean, which does
  not match 1 + dbar/(1-m); its line reads "mean=4.73 vs 1/(1-m)=19.35
  (m=0.948, ratio=0.24); forest identity 1/(1-dbar/2)=4.74, size-biased
  mean=35.90 vs 1+dbar/(1-m)=31.52".

Criterion 12 passes at its stated seed, but its share(>=2) statistic moves
across the 10% bound with the process seed.  On the criterion's own graph
(n=2e4, graph seed 7, eps=0.02, 5,658 steps) share(>=2) by process seed is
77: 0.0880, 78: 0.0983, 79: 0.0, 80: 0.1280, 81: 0.0 (seed 80 colors 1,272
of its 9,938 buffer-round vertices in third or later rounds, seeds 79 and
81 none).  The seed, tolerance and size stay as stated; a change to the
random stream can flip this criterion either way.
"""

import math
import time

import numpy as np
import pytest

import acceptance_report
from helpers import random_subcritical

from treecolor import (
    PaletteConfig,
    TypeDistribution,
    VertexType,
    cascade_growth,
    cascade_type_delta,
    certify,
    default_tuning,
    euler_ode_compare,
    expected_cascade_size,
    remainder_growth,
    size_biased_law,
    type_space,
)
from treecolor.cli import run_pipeline
from treecolor.graphs import gen_regular_graph
from treecolor.process import (
    UNCOLORED,
    ColoringState,
    greedy_step,
    run_phase1,
    trace_cascade,
)
from treecolor.stats import (
    cascade_tail_fit,
    collect_run_stats,
    component_stats,
    neighbor_type_law,
    red_scaling,
    trajectory_distance,
)

CFG43 = PaletteConfig(4, 3)
CFG64 = PaletteConfig(6, 4)

_cache: dict = {}


def _check(num: int, title: str, ok: bool, detail: str) -> None:
    acceptance_report.record(num, title, bool(ok), detail)
    assert ok, f"criterion {num} ({title}): {detail}"


def _certified(key: tuple[int, int]):
    """Certificate for (r, p) under the default tuning, with wall time."""
    if key not in _cache:
        cfg = PaletteConfig(*key)
        t0 = time.perf_counter()
        cert = certify(cfg, default_tuning(cfg))
        _cache[key] = (cert, time.perf_counter() - t0)
    return _cache[key]


def _trajectory_run(seed: int):
    """(4,3), n=2e5, eps=0.02 phase-1 run to the certified horizon."""
    key = ("traj", seed)
    if key not in _cache:
        cert, _ = _certified((4, 3))
        eps = 0.02
        steps = math.ceil(cert.r / eps)
        g = gen_regular_graph(200_000, 4, seed=seed)
        st = ColoringState(g, CFG43, seed=1000 + seed)
        reports, dists = run_phase1(st, default_tuning(CFG43, eps), steps)
        _cache[key] = (collect_run_stats(st, eps, reports, dists), st)
    return _cache[key]


def _mid_state() -> ColoringState:
    """(4,3), n=1e5 state stopped halfway to the certified horizon."""
    if "mid" not in _cache:
        cert, _ = _certified((4, 3))
        eps = 0.02
        steps = math.ceil(cert.r / eps) // 2
        g = gen_regular_graph(100_000, 4, seed=21)
        st = ColoringState(g, CFG43, seed=210)
        run_phase1(st, default_tuning(CFG43, eps), steps)
        _cache["mid"] = st
    return _cache["mid"]


def _stable_stop_times(cert) -> bool:
    times = [ref["r"] for ref in cert.refinements if ref.get("found")]
    return len(times) == len(cert.refinements) and all(
        abs(a - b) <= 0.01 * times[-1] for a, b in zip(times, times[1:])
    )


def test_acceptance_01_certify_4_3():
    cert, secs = _certified((4, 3))
    ok = (
        cert.certified
        and cert.r is not None
        and math.isfinite(cert.r)
        and cert.max_g_on_0_r < 0.99999
        and cert.remainder_growth_at_r < 0.99999
        and len(cert.refinements) == 3
        and _stable_stop_times(cert)
        and secs < 60.0
    )
    _check(
        1,
        "certify (4,3): finite R, margins, R stable under two halvings, <60s",
        ok,
        f"R={cert.r:.3f} max_g={cert.max_g_on_0_r:.5f} "
        f"m(R)={cert.remainder_growth_at_r:.5f} {secs:.1f}s",
    )


def test_acceptance_02_certify_6_4():
    cert, secs = _certified((6, 4))
    ok = (
        cert.certified
        and cert.r is not None
        and math.isfinite(cert.r)
        and cert.max_g_on_0_r < 0.99999
        and cert.remainder_growth_at_r < 0.99999
        and len(cert.refinements) == 3
        and _stable_stop_times(cert)
        and secs < 120.0
    )
    _check(
        2,
        "certify (6,4): finite R, margins, R stable under two halvings, <120s",
        ok,
        f"R={cert.r:.3f} max_g={cert.max_g_on_0_r:.5f} "
        f"m(R)={cert.remainder_growth_at_r:.5f} {secs:.1f}s",
    )


# the three refinement entries of the default (4,3) and (6,4) certificates,
# bit for bit: how a refinement records its samples must not move them.
# Read from the certificates that criteria 1 and 2 made, so tier-1 certifies
# each pair once
@pytest.mark.parametrize("key, r, max_g, remainder", [
    pytest.param((4, 3), 9.848,
                 [0.9338432535591713, 0.9338432535596977, 0.9338432535597312],
                 [0.9997968322663643, 0.9997968322656583, 0.9997968322656123], id="4-3"),
    pytest.param((6, 4), 113.153,
                 [0.8085680836823907, 0.8085680836823919, 0.8085680840866168],
                 [0.9999474849092241, 0.9999474849091013, 0.9999474849092338], id="6-4"),
])
def test_default_certificate_refinement_entries_pinned(key, r, max_g, remainder):
    cert, _ = _certified(key)
    assert [e["step"] for e in cert.refinements] == [1e-3, 5e-4, 2.5e-4]
    assert [e["r"] for e in cert.refinements] == [r] * 3
    assert [e["max_g_on_0_r"] for e in cert.refinements] == max_g
    assert [e["remainder_growth_at_r"] for e in cert.refinements] == remainder


def test_acceptance_03_row_sum_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for cfg in (CFG43, CFG64):
        space = type_space(cfg)
        for _ in range(1000):
            z = random_subcritical(rng, cfg)
            mat = cascade_type_delta(z)
            for s in space.types:
                row = sum(mat[(s, t)] for t in space.types)
                worst = max(worst, abs(row + expected_cascade_size(z, s)))
    ok = worst <= 1e-10
    _check(
        3,
        "row-sum identity over 1000 random subcritical states per config",
        ok,
        f"max |sum_t delta + E|casc|| = {worst:.2e} (tol 1e-10)",
    )


def test_acceptance_04_initial_analytics_exact():
    details = []
    ok = True
    for cfg in (CFG43, CFG64):
        z0 = TypeDistribution.from_dict(cfg, {VertexType(cfg.r, cfg.p): 1.0})
        g0 = cascade_growth(z0)
        m0 = remainder_growth(z0)
        ok = ok and g0 == 0.0 and m0 == float(cfg.r - 1)
        details.append(f"({cfg.r},{cfg.p}): g={g0} m={m0}")
    _check(4, "initial state: g = 0 and m = r-1 exactly", ok, "; ".join(details))


def test_acceptance_05_euler_order():
    t0 = time.perf_counter()
    d1 = euler_ode_compare(default_tuning(CFG43), 0.02)
    d2 = euler_ode_compare(default_tuning(CFG43), 0.01)
    secs = time.perf_counter() - t0
    ratio = d1 / d2
    ok = 1.7 <= ratio <= 2.3 and secs < 60.0
    _check(
        5,
        "euler error halves with the step (ratio in [1.7, 2.3], <60s)",
        ok,
        f"d(0.02)={d1:.5f} d(0.01)={d2:.5f} ratio={ratio:.3f} {secs:.1f}s",
    )


def test_acceptance_06_trajectory_match():
    cert, _ = _certified((4, 3))
    sups = [trajectory_distance(_trajectory_run(seed)[0], cert) for seed in (1, 2, 3, 4, 5)]
    ok = all(s <= 0.02 for s in sups)
    _check(
        6,
        "per-seed sup distance to certified flow <= 0.02 (5 seeds, n=2e5)",
        ok,
        "sups=" + "/".join(f"{s:.4f}" for s in sups),
    )


def test_acceptance_07_neighbor_law():
    st = _mid_state()
    _, tv = neighbor_type_law(st, 10_000, np.random.default_rng(7))
    ok = tv <= 0.02
    _check(
        7,
        "size-biased neighbor law, TV <= 0.02 at 1e4 samples",
        ok,
        f"TV={tv:.4f}",
    )


def test_acceptance_08_cascade_law():
    st = _mid_state()
    zhat = st.empirical_distribution()
    rng = np.random.default_rng(8)
    uncolored = np.nonzero(st.color == UNCOLORED)[0]
    roots = uncolored[rng.integers(len(uncolored), size=10_000)]
    totals: list[int] = []
    expected: list[float] = []
    gen1: dict[VertexType, int] = {}
    for v in roots:
        rec = trace_cascade(st, int(v), rng)
        totals.append(rec.total_colored)
        expected.append(expected_cascade_size(zhat, rec.root_type))
        if len(rec.generations) > 1:
            for t, k in rec.generations[1].items():
                gen1[t] = gen1.get(t, 0) + k
    mean_ratio = float(np.mean(totals)) / float(np.mean(expected))
    hist: dict[int, int] = {}
    for s in totals:
        hist[s] = hist.get(s, 0) + 1
    fit = cascade_tail_fit(hist)
    q = size_biased_law(zhat)
    target = {t: (2.0 / st.cfg.p) * w for t, w in q.items() if t.c == 2}
    tot_target = sum(target.values())
    tot_seen = sum(gen1.values())
    tv = 0.5 * sum(
        abs(gen1.get(t, 0) / tot_seen - target.get(t, 0.0) / tot_target)
        for t in set(target) | set(gen1)
    )
    ok = abs(mean_ratio - 1.0) <= 0.10 and fit.decay_rate > 0.0 and tv <= 0.02
    _check(
        8,
        "cascade size within 10% of closed form, tail decays, gen-1 TV <= 0.02",
        ok,
        f"mean ratio={mean_ratio:.4f} tail slope={-fit.decay_rate:.3f} TV={tv:.4f}",
    )


def test_acceptance_09_component_law():
    _, st = _trajectory_run(1)
    tun = default_tuning(CFG43, 0.02)
    m = remainder_growth(st.empirical_distribution())
    extra_steps = 0
    # 1/(1-m) is undefined while the empirical state is still supercritical;
    # evaluate at the first state where the closed form exists (m < 0.95).
    while m >= 0.95 and extra_steps < 400:
        greedy_step(st, tun)
        extra_steps += 1
        m = remainder_growth(st.empirical_distribution())
    comp = component_stats(st)
    closed = 1.0 / (1.0 - m)
    ratio = comp.mean_size / closed
    unc = st.color == UNCOLORED
    g = st.graph
    dbar = 2 * int((unc[g.edges_u] & unc[g.edges_v]).sum()) / int(unc.sum())
    forest_mean = 1.0 / (1.0 - dbar / 2.0)
    sizes = np.array(sorted(comp.histogram))
    counts = np.array([comp.histogram[int(s)] for s in sizes], dtype=np.float64)
    size_biased_mean = float((sizes**2 * counts).sum() / (sizes * counts).sum())
    ok = abs(ratio - 1.0) <= 0.15
    _check(
        9,
        "mean uncolored component within 15% of 1/(1-m)",
        ok,
        f"mean={comp.mean_size:.2f} vs 1/(1-m)={closed:.2f} (m={m:.3f}, ratio={ratio:.2f}); "
        f"forest identity 1/(1-dbar/2)={forest_mean:.2f}, "
        f"size-biased mean={size_biased_mean:.2f} vs 1+dbar/(1-m)={1 + dbar / (1 - m):.2f}",
    )


def test_acceptance_10_red_scaling():
    cert, _ = _certified((4, 3))
    pairs = []
    for eps in (0.04, 0.02, 0.01):
        steps = math.ceil(cert.r / eps)
        for seed in (3, 4, 5):
            g = gen_regular_graph(100_000, 4, seed=seed)
            result = run_pipeline(g, default_tuning(CFG43, eps), steps, seed + 100, False)
            pairs.append((eps, result.stats.red_fracs[-1]))  # reds after phase 1
    sc = red_scaling(pairs)
    r1 = sc.means[0.02] / sc.means[0.04]
    r2 = sc.means[0.01] / sc.means[0.02]
    ok = 0.3 <= r1 <= 0.7 and 0.3 <= r2 <= 0.7
    _check(
        10,
        "red fraction halves with eps (ratios in [0.3, 0.7])",
        ok,
        f"means={{{', '.join(f'{e:g}: {v:.5f}' for e, v in sorted(sc.means.items()))}}} "
        f"ratios={r1:.3f}/{r2:.3f} loglog slope={sc.slope:.3f}",
    )


def test_acceptance_11_end_to_end_greedy():
    cert, _ = _certified((4, 3))
    eps = 0.01
    steps = math.ceil(cert.r / eps)
    g = gen_regular_graph(100_000, 4, seed=11)
    result = run_pipeline(g, default_tuning(CFG43, eps), steps, 111, False)
    st, rep = result.state, result.proper
    total = bool(np.all((st.color >= 0) & (st.color <= CFG43.p)))
    extra = float(np.count_nonzero(st.color == CFG43.p)) / g.n
    ok = rep.ok and total and extra <= 0.05
    _check(
        11,
        "(4,3) n=1e5 eps=0.01: total proper 3+1 coloring, extra <= 0.05",
        ok,
        f"violations={len(rep.violations)} extra={extra:.5f}",
    )


def test_acceptance_12_end_to_end_modified():
    cert, _ = _certified((6, 4))
    eps = 0.02
    steps = math.ceil(cert.r / eps)
    g = gen_regular_graph(20_000, 6, seed=7)
    result = run_pipeline(g, default_tuning(CFG64, eps), steps, 77, True)
    st, rep = result.state, result.proper
    hist = result.stats.buffer_colored_per_round
    total_buffer = sum(hist)
    share2 = sum(hist[2:]) / total_buffer
    share1 = sum(hist[1:]) / total_buffer
    total = bool(np.all((st.color >= 0) & (st.color <= CFG64.p)))
    extra = float(np.count_nonzero(st.color == CFG64.p)) / g.n
    ok = rep.ok and total and extra <= 0.05 and share2 < 0.10
    _check(
        12,
        "(6,4) modified: total proper 4+1 coloring, extra <= 0.05, "
        "buffer rounds >= 2 under 10% of buffer activity",
        ok,
        f"violations={len(rep.violations)} extra={extra:.5f} "
        f"buffer hist={hist} share(>=2)={share2:.4f} (share(>=1)={share1:.4f})",
    )
