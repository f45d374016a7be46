"""The round engine across code changes and over random small instances.

The stream pins record sha256 digests of two seeded runs, so any change to
the random stream or to the order of commits shows up as a failed digest.
The property tests drive greedy steps and scoped buffer rounds on seeded
random small graphs (cycles, degrees below r, random presets) and check the
invariants after every step, a proper final coloring, and that
`trace_cascade` leaves the state exactly as it found it.
"""

import hashlib

import numpy as np
import pytest

from treecolor.dynamics import PaletteConfig, TuningParams, type_space
from treecolor.graphs import Graph, gen_regular_graph, gen_tree_ball, parse_fixture
from treecolor.process import (
    RED,
    UNCOLORED,
    ColoringState,
    buffer_rounds,
    complete_remainder,
    greedy_step,
    run_phase1,
    tidy_to_proper,
    trace_cascade,
    verify_proper,
)

CFG43 = PaletteConfig(4, 3)
CFG64 = PaletteConfig(6, 4)


def steep_tuning(cfg: PaletteConfig, epsilon: float) -> TuningParams:
    """Weight 2^-d for a type of degree d.  It activates far more often
    than the reference scheme, so short runs exercise all four rules."""
    return TuningParams(cfg, {t: 2.0 ** -t.d for t in type_space(cfg).types}, epsilon)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _step_digest(reports) -> str:
    rows = []
    for r in reports:
        row = (r.active, r.rule1, r.rule2, r.rule3, r.rule4, r.rounds)
        if r.buffer is not None:
            b = r.buffer
            row += (b.rounds, tuple(b.colored_per_round), b.components,
                    b.failures, b.red_created)
        rows.append(row)
    return _sha(repr(rows).encode())


# ---------------------------------------------------------------------------
# Stream pins
# ---------------------------------------------------------------------------

def test_greedy_stream_pinned():
    # 40 steps of (4,3) at n=600: 200 activations, 322 forced, 71 + 19 reds
    st = ColoringState(gen_regular_graph(600, 4, seed=11), CFG43, seed=123)
    reports, _ = run_phase1(st, steep_tuning(CFG43, 0.25), steps=40)
    assert _sha(st.color.tobytes()) == (
        "67c4378e856a231b8fcfc52f30312bd99ca674b374104985713e89c3d4d6ab0f")
    assert _step_digest(reports) == (
        "08396086a2b7d513e1bc9225d32eb15cda5915c8edffa547ac69f47a0c083e6b")


def test_modified_stream_pinned():
    # 15 modified steps of (6,4) at n=400, seed 3: three buffer rounds over
    # seven components, in which the scoped engine forces 246 vertices and
    # makes 21 reds
    st = ColoringState(gen_regular_graph(400, 6, seed=11), CFG64, seed=3)
    reports, _ = run_phase1(st, steep_tuning(CFG64, 0.5), steps=15, modified=True)
    assert sum(r.buffer.rounds for r in reports) == 3
    assert _sha(st.color.tobytes()) == (
        "ab74c43e7db95ea2b0b363ecbb441ffd8e2bf37ee12ffb272c0f4af21909a853")
    assert _step_digest(reports) == (
        "8b796fcec49edd48885fa4f7d447efee117864702b023b36a03c42d89f3b755d")


# ---------------------------------------------------------------------------
# Properties over random small instances
# ---------------------------------------------------------------------------

def random_graph(rng: np.random.Generator, cfg: PaletteConfig) -> Graph:
    """A random regular graph (cycles), the same with a quarter of its edges
    dropped (cycles and degrees below r), or a tree ball (degree-1 leaves)."""
    family = rng.integers(3)
    if family == 2:
        return gen_tree_ball(cfg.r, int(rng.integers(2, 4 if cfg.r > 4 else 5)))
    n = 2 * int(rng.integers(cfg.r, 60))
    g = gen_regular_graph(n, cfg.r, seed=int(rng.integers(1 << 30)))
    if family == 0:
        return g
    keep = rng.random(g.m) >= 0.25
    text = f"{n} {cfg.r}\n" + "".join(
        f"{u} {v}\n" for u, v in zip(g.edges_u[keep], g.edges_v[keep]))
    return parse_fixture(text)[0]


def random_presets(rng: np.random.Generator, graph: Graph,
                   cfg: PaletteConfig) -> list[tuple[int, int]]:
    """Proper palette presets that leave every uncolored vertex two colors."""
    color = np.full(graph.n, UNCOLORED)
    seen = [set() for _ in range(graph.n)]
    presets = []
    for v in rng.permutation(graph.n)[: graph.n // 4]:
        v = int(v)
        c = int(rng.integers(cfg.p))
        nbrs = [int(u) for u in graph.neighbors(v)]
        if c in seen[v] or any(
                color[u] == UNCOLORED and c not in seen[u] and len(seen[u]) >= cfg.p - 2
                for u in nbrs):
            continue
        color[v] = c
        for u in nbrs:
            seen[u].add(c)
        presets.append((v, c))
    return presets


def assert_bookkeeping_recomputes(st: ColoringState) -> None:
    """The incremental arrays equal a recount from the colors alone."""
    st.check_invariants()
    uncolored = st.color == UNCOLORED
    for v in range(st.graph.n):
        nbrs = st.graph.neighbors(v)
        assert st.uncolored_deg[v] == int(uncolored[nbrs].sum())
        if uncolored[v]:
            mask = 0
            for c in st.color[nbrs]:
                if c >= 0:
                    mask |= 1 << int(c)
            assert st.seen_mask[v] == mask
            assert st.avail_count[v] == st.cfg.p - bin(mask).count("1")


def random_state(rng: np.random.Generator):
    cfg = (CFG43, CFG64)[rng.integers(2)]
    graph = random_graph(rng, cfg)
    st = ColoringState(graph, cfg, seed=int(rng.integers(1 << 20)),
                       presets=random_presets(rng, graph, cfg))
    return st, steep_tuning(cfg, float(rng.uniform(0.05, 0.5)))


def snapshot(st: ColoringState) -> list[bytes]:
    return [a.tobytes() for a in (st.color, st.uncolored_deg, st.seen_mask, st.avail_count)]


@pytest.mark.parametrize("case", range(60))
def test_engine_keeps_invariants_and_pipeline_ends_proper(case):
    rng = np.random.default_rng([2024, case])
    st, tuning = random_state(rng)
    modified = bool(case % 2)
    assert_bookkeeping_recomputes(st)
    colored = st.color != UNCOLORED
    for _ in range(int(rng.integers(5, 30))):
        greedy_step(st, tuning)
        if modified:
            buffer_rounds(st)
        assert_bookkeeping_recomputes(st)
        now = st.color != UNCOLORED
        assert np.all(now[colored])  # the colored set never shrinks
        colored = now
        if modified and (st.color == RED).any():
            # buffer rounds leave no uncolored vertex within distance 3 of red
            reds = np.flatnonzero(st.color == RED)
            near = set(reds.tolist())
            for _ in range(3):
                near |= {int(u) for v in near for u in st.graph.neighbors(v)}
            assert not (st.color[sorted(near)] == UNCOLORED).any()
    complete_remainder(st)
    assert not (st.color == UNCOLORED).any()
    assert_bookkeeping_recomputes(st)
    tidy_to_proper(st)
    assert verify_proper(st).ok


@pytest.mark.parametrize("modified", [False, True])
def test_trace_cascade_restores_all_four_arrays(modified):
    rng = np.random.default_rng([7, modified])
    for _ in range(6):
        st, tuning = random_state(rng)
        for _ in range(int(rng.integers(3, 15))):
            greedy_step(st, tuning)
            if modified:
                buffer_rounds(st)
        before = snapshot(st)
        roots = np.flatnonzero(st.color == UNCOLORED)
        for v in rng.permutation(roots)[:30]:
            trace_cascade(st, int(v), rng)
            assert snapshot(st) == before
