"""Tests for the mean-field dynamics kernels.

Expected values below were derived by hand from the defining formulas before
the implementation was written, and the Monte Carlo oracle simulates the
branch/cascade semantics directly, independent of the closed forms.
"""

import math

import numpy as np
import pytest

from treecolor.certify import _euler
from treecolor.dynamics import (
    PaletteConfig,
    TuningParams,
    TypeDistribution,
    VertexType,
    branch_type_delta,
    cascade_growth,
    cascade_type_delta,
    default_tuning,
    drift,
    drift_series,
    expected_cascade_size,
    remainder_growth,
    size_biased_law,
    type_space,
)
from treecolor.errors import (
    ConfigurationError,
    DegenerateDistributionError,
    SupercriticalError,
)

from helpers import mixed_example, random_subcritical

CFG43 = PaletteConfig(4, 3)
CFG64 = PaletteConfig(6, 4)


def test_type_space_order_and_size():
    space = type_space(CFG43)
    assert space.size == 10  # (r+1)(p-1)
    assert space.types[0] == VertexType(0, 2)
    assert space.types[1] == VertexType(0, 3)
    assert space.types[-1] == VertexType(4, 3)
    # lexicographic by (d, c)
    assert list(space.types) == sorted(space.types)
    assert type_space(CFG64).size == 21
    # shared instance per config
    assert type_space(CFG43) is space


@pytest.mark.parametrize("cfg", [CFG43, CFG64, PaletteConfig(8, 5)])
def test_type_keys_roundtrip(cfg):
    for t in type_space(cfg).types:
        assert VertexType.parse(str(t)) == t


@pytest.mark.parametrize("key", ["4", "4,3,1", "a,b", "", "4,", " 4,3", "04,3", "+4,3"])
def test_type_key_parse_rejects_other_text(key):
    with pytest.raises(ValueError):
        VertexType.parse(key)


def test_palette_validation():
    with pytest.raises(ConfigurationError):
        PaletteConfig(2, 2)
    with pytest.raises(ConfigurationError):
        PaletteConfig(4, 1)
    with pytest.raises(ConfigurationError):
        PaletteConfig(4, 5)  # p > r
    PaletteConfig(5, 4)  # allowed even without a certificate


def test_initial_distribution():
    z = TypeDistribution.initial(CFG43)
    assert z[(4, 3)] == 1.0
    assert z.mass() == 1.0
    assert len(z.as_dict()) == 1


def test_size_biased_law_frozen():
    q = size_biased_law(mixed_example())
    # 4*0.5 and 2*0.5 out of total 3
    assert q[VertexType(4, 3)] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert q[VertexType(2, 2)] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_size_biased_law_normalization_sweep():
    rng = np.random.default_rng(7)
    for cfg in (CFG43, CFG64):
        for _ in range(300):
            z = random_subcritical(rng, cfg)
            total = sum(size_biased_law(z).values())
            assert abs(total - 1.0) <= 1e-12


def test_size_biased_law_degenerate():
    z = TypeDistribution.from_dict(CFG43, {VertexType(0, 2): 0.3, VertexType(0, 3): 0.1})
    with pytest.raises(DegenerateDistributionError):
        size_biased_law(z)


def test_cascade_growth_frozen():
    assert cascade_growth(mixed_example()) == pytest.approx(2.0 / 9.0, abs=1e-15)
    # fresh state has no c=2 mass at all
    assert cascade_growth(TypeDistribution.initial(CFG43)) == 0.0
    # all mass on (r, 2) attains the upper bound (2/p)(r-1)
    top = TypeDistribution.from_dict(CFG43, {VertexType(4, 2): 1.0})
    assert cascade_growth(top) == pytest.approx(2.0, abs=1e-15)


def test_cascade_growth_bounds_sweep():
    rng = np.random.default_rng(11)
    for cfg in (CFG43, CFG64):
        hi = (2.0 / cfg.p) * (cfg.r - 1)
        for _ in range(300):
            z = random_subcritical(rng, cfg, growth_cap=math.inf)
            g = cascade_growth(z)
            assert 0.0 <= g <= hi + 1e-12


def test_remainder_growth_frozen():
    assert remainder_growth(mixed_example()) == pytest.approx(7.0 / 3.0, abs=1e-14)
    # fresh state: every neighbor has r-1 further uncolored neighbors
    assert remainder_growth(TypeDistribution.initial(CFG43)) == 3.0
    assert remainder_growth(TypeDistribution.initial(CFG64)) == 5.0


def test_branch_delta_frozen():
    fresh = TypeDistribution.initial(CFG43)
    # the activated vertex's neighbor always converts (4,3) -> (3,2)
    assert branch_type_delta(fresh, VertexType(3, 2)) == pytest.approx(1.0, abs=1e-15)
    assert branch_type_delta(fresh, VertexType(4, 3)) == pytest.approx(-1.0, abs=1e-15)
    mixed = mixed_example()
    # (1/(1-2/9)) * ((1/3) * q_{(2,2)}) = (9/7)(1/9)
    assert branch_type_delta(mixed, VertexType(1, 2)) == pytest.approx(1.0 / 7.0, abs=1e-15)
    # boundary truncation: gains would come from (5,*) which is outside T
    assert branch_type_delta(mixed, VertexType(4, 3)) == pytest.approx(-6.0 / 7.0, abs=1e-15)


def test_branch_delta_rejects_outside_type():
    with pytest.raises(ConfigurationError):
        branch_type_delta(mixed_example(), VertexType(5, 3))
    with pytest.raises(ConfigurationError):
        branch_type_delta(mixed_example(), VertexType(2, 1))


def test_branch_delta_supercritical():
    hot = TypeDistribution.from_dict(CFG43, {VertexType(4, 2): 1.0})
    with pytest.raises(SupercriticalError):
        branch_type_delta(hot, VertexType(3, 2))
    with pytest.raises(SupercriticalError):
        expected_cascade_size(hot, VertexType(4, 2))


def test_cascade_type_delta_frozen():
    fresh = TypeDistribution.initial(CFG43)
    mat = cascade_type_delta(fresh)
    # activating the root colors it and converts its 4 neighbors (4,3)->(3,2)
    assert mat[(VertexType(4, 3), VertexType(4, 3))] == pytest.approx(-5.0, abs=1e-14)
    assert mat[(VertexType(4, 3), VertexType(3, 2))] == pytest.approx(4.0, abs=1e-14)
    # degree-0 rows touch nothing but the vertex itself
    for t in type_space(CFG43).types:
        expected = -1.0 if t == VertexType(0, 2) else 0.0
        assert mat[(VertexType(0, 2), t)] == pytest.approx(expected, abs=1e-15)


def test_row_sum_identity_sweep():
    # sum_t Delta_{s,t} must equal -expected_cascade_size(z, s) for every s.
    rng = np.random.default_rng(23)
    for cfg in (CFG43, CFG64):
        space = type_space(cfg)
        for _ in range(200):
            z = random_subcritical(rng, cfg)
            mat = cascade_type_delta(z)
            for s in space.types:
                row = sum(mat[(s, t)] for t in space.types)
                assert abs(row + expected_cascade_size(z, s)) <= 1e-10


def test_expected_cascade_size_frozen():
    fresh = TypeDistribution.initial(CFG43)
    # no c=2 mass anywhere: the activation colors exactly one vertex
    for s in type_space(CFG43).types:
        assert expected_cascade_size(fresh, s) == 1.0
    assert expected_cascade_size(mixed_example(), VertexType(2, 2)) == pytest.approx(
        11.0 / 7.0, abs=1e-14
    )


def test_default_tuning_scheme():
    tuning = default_tuning(CFG43)
    assert tuning.weights[VertexType(0, 2)] == 4.0
    assert tuning.weights[VertexType(1, 2)] == 2.0 ** -10
    assert tuning.weights[VertexType(2, 2)] == 0.25
    assert tuning.weights[VertexType(4, 3)] == 2.0 ** -6
    # epsilon validity: max weight is 4, so epsilon up to 0.25 is legal
    default_tuning(CFG43, epsilon=0.25)
    with pytest.raises(ConfigurationError):
        default_tuning(CFG43, epsilon=0.26)


def test_tuning_validation():
    space = type_space(CFG43)
    weights = {t: 1.0 for t in space.types}
    weights[VertexType(3, 2)] = -0.5
    with pytest.raises(ConfigurationError):
        TuningParams(CFG43, weights)
    missing = {t: 1.0 for t in space.types if t != VertexType(0, 3)}
    with pytest.raises(ConfigurationError):
        TuningParams(CFG43, missing)
    with pytest.raises(ConfigurationError):
        TuningParams(CFG43, {t: 1.0 for t in space.types}, epsilon=-0.1)
    with pytest.raises(ConfigurationError, match="type 9,9 outside"):
        TuningParams(CFG43, {t: 1.0 for t in space.types} | {VertexType(9, 9): 1.0})


def test_drift_frozen():
    fresh = TypeDistribution.initial(CFG43)
    tuning = default_tuning(CFG43)
    f = drift(fresh, tuning)
    # only (4,3) carries mass; its weight is 2^-6 and its row is (-5, +4)
    assert f[VertexType(4, 3)] == pytest.approx(-0.078125, abs=1e-15)
    assert f[VertexType(3, 2)] == pytest.approx(0.0625, abs=1e-15)


def test_drift_conserves_colored_mass_rate():
    # sum_t F_t = -sum_s w_s z_s E|casc(s)|: total mass only ever decreases.
    rng = np.random.default_rng(31)
    tuning43 = default_tuning(CFG43)
    tuning64 = default_tuning(CFG64)
    for cfg, tuning in ((CFG43, tuning43), (CFG64, tuning64)):
        for _ in range(100):
            z = random_subcritical(rng, cfg)
            f = drift(z, tuning)
            total = sum(f.values())
            expected = -sum(
                tuning.weights[s] * z[s] * expected_cascade_size(z, s)
                for s in type_space(cfg).types
            )
            assert total <= 1e-12
            assert abs(total - expected) <= 1e-10


def _padded_index_drift(cfg, zvec, wvec):
    """The drift as first written: size-biased law q, growth g, and per-type
    gains gathered through index arrays whose out-of-space sources point at
    a padding slot holding 0."""
    types = [VertexType(d, c) for d in range(cfg.r + 1) for c in range(2, cfg.p + 1)]
    index = {t: i for i, t in enumerate(types)}
    pad = len(types)
    deg = np.array([t.d for t in types], dtype=np.float64)
    colors = np.array([t.c for t in types], dtype=np.float64)
    forced = colors == 2
    gain_avail = np.array([index.get((d + 1, c + 1), pad) for d, c in types])
    gain_blocked = np.array([index.get((d + 1, c), pad) for d, c in types])
    q = deg * zvec / (deg * zvec).sum()
    growth = (2.0 / cfg.p) * ((deg - 1.0) * q)[forced].sum()
    q_ext = np.append(q, 0.0)
    gains = (
        (colors + 1.0) / cfg.p * q_ext[gain_avail]
        + (cfg.p - colors) / cfg.p * q_ext[gain_blocked]
    )
    branch = (gains - q) / (1.0 - growth)
    return -wvec * zvec + (wvec * zvec * deg).sum() * branch


def test_drift_matches_padded_index_reference():
    rng = np.random.default_rng(41)
    for cfg in (CFG43, CFG64):
        tuning = default_tuning(cfg)
        wvec = tuning.vector()
        fresh = TypeDistribution.initial(cfg)
        assert np.array_equal(
            np.array(list(drift(fresh, tuning).values())),
            _padded_index_drift(cfg, fresh.vec, wvec),
        )
        for _ in range(200):
            z = random_subcritical(rng, cfg)
            closed = np.array(list(drift(z, tuning).values()))
            assert np.abs(closed - _padded_index_drift(cfg, z.vec, wvec)).max() <= 1e-12


# the series of random subcritical states, summed at a short time, lands on
# DOP853's flow of the padded-index drift, which shares no code with the
# recurrence; its first coefficient is that drift
@pytest.mark.parametrize("cfg", [CFG43, CFG64], ids=str)
def test_drift_series_sums_to_the_flow(cfg):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    rng = np.random.default_rng(47)
    wvec = default_tuning(cfg).vector()
    series = drift_series(type_space(cfg), wvec, 16)
    tau = 0.01
    for _ in range(5):
        z = random_subcritical(rng, cfg).vec
        zs = series(z)
        assert np.abs(zs[1] - _padded_index_drift(cfg, z, wvec)).max() <= 1e-12
        flow = solve_ivp(lambda t, y: _padded_index_drift(cfg, y, wvec), (0.0, tau), z,
                         method="DOP853", rtol=1e-13, atol=1e-16).y[:, -1]
        assert np.abs(tau ** np.arange(17) @ zs - flow).max() <= 1e-13


# `verify` expands a stack of states at once: each row's series is that
# state's own, and one supercritical or massless row raises for the stack
def test_drift_series_of_a_stack_is_each_rows_series():
    rng = np.random.default_rng(53)
    series = drift_series(type_space(CFG64), default_tuning(CFG64).vector(), 16)
    stack = np.array([random_subcritical(rng, CFG64).vec for _ in range(7)])
    rows = np.stack([series(z) for z in stack], axis=1)
    # up to rounding: 1e-13 of each coefficient's largest entry
    scale = np.abs(rows).max(axis=(1, 2))[:, None, None]
    assert (np.abs(series(stack) - rows) <= 1e-13 * scale).all()
    forced = np.zeros(type_space(CFG64).size)
    forced[type_space(CFG64).index[VertexType(6, 2)]] = 1.0  # g = (2/4) * 5 > 1
    with pytest.raises(SupercriticalError):
        series(np.vstack([stack, forced]))
    with pytest.raises(DegenerateDistributionError):
        series(np.vstack([stack, np.zeros_like(forced)]))


def test_euler_step_frozen():
    # one Euler step of size epsilon from the fresh state, on the
    # integrator's Euler branch: z + eps * F(z), nothing clamped
    tuning = default_tuning(CFG43, epsilon=0.01)
    traj = _euler(tuning, tuning.epsilon, tuning.epsilon)
    stepped = traj.state_at(1)
    assert stepped[(4, 3)] == pytest.approx(0.99921875, abs=1e-15)
    assert stepped[(3, 2)] == pytest.approx(0.000625, abs=1e-15)
    assert traj.clamp_events == 0


def test_distribution_validation():
    space = type_space(CFG43)
    with pytest.raises(ConfigurationError):
        TypeDistribution(CFG43, np.full(space.size, 0.2))  # mass 2
    with pytest.raises(ConfigurationError):
        TypeDistribution(CFG43, -0.01 * np.ones(space.size))
    with pytest.raises(ConfigurationError):
        TypeDistribution(CFG43, np.zeros(space.size - 1))
    with pytest.raises(ConfigurationError):
        TypeDistribution.from_dict(CFG43, {VertexType(9, 3): 0.5})


# ---------------------------------------------------------------------------
# Monte Carlo oracle: simulate the branch semantics directly from the robbing
# rules and the size-biased law, then compare with the closed forms.
# ---------------------------------------------------------------------------

def _simulate_branch(rng, types, q, p, tally, idx):
    """One branch next to an activated vertex.  Returns #vertices colored.

    Members are vertices whose parent was colored by the cascade.  A member of
    type (d, c) leaves its own type; if c == 2 the parent's color was one of
    its 2 available with probability 2/p, forcing it, which colors it and
    makes all of its d-1 remaining neighbors members; otherwise it converts to
    (d-1, c-1) if the parent's color was available (probability c/p) and to
    (d-1, c) if not.
    """
    colored = 0
    stack = [types[rng.choice(len(types), p=q)]]
    while stack:
        d, c = stack.pop()
        tally[idx[(d, c)]] -= 1.0
        u = rng.random()
        if c == 2:
            if u < 2.0 / p:
                colored += 1
                for _ in range(d - 1):
                    stack.append(types[rng.choice(len(types), p=q)])
            else:
                if (d - 1, 2) in idx:
                    tally[idx[(d - 1, 2)]] += 1.0
        else:
            new = (d - 1, c - 1) if u < c / p else (d - 1, c)
            if new in idx:
                tally[idx[new]] += 1.0
    return colored


@pytest.mark.slow
def test_monte_carlo_oracle_matches_closed_forms():
    rng = np.random.default_rng(1234)
    z = mixed_example()
    space = z.space
    q_map = size_biased_law(z)
    types = [tuple(t) for t in space.types]
    q = np.array([q_map[t] for t in space.types])
    idx = {tuple(t): i for i, t in enumerate(space.types)}
    n = 200_000
    tally = np.zeros(space.size)
    colored_total = 0
    for _ in range(n):
        colored_total += _simulate_branch(rng, types, q, z.cfg.p, tally, idx)
    tally /= n
    for t in space.types:
        assert tally[idx[tuple(t)]] == pytest.approx(
            branch_type_delta(z, t), abs=6e-3
        ), f"branch delta mismatch at {t}"
    # expected cascade size from type (2,2): 1 + 2 * (colored per branch)
    mc_size = 1.0 + 2.0 * colored_total / n
    assert mc_size == pytest.approx(
        expected_cascade_size(z, VertexType(2, 2)), rel=0.02
    )
