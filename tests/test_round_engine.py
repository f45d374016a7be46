"""The round engine across code changes and over random small instances.

The stream pins record sha256 digests of two seeded runs, so any change to
the random stream or to the order of commits shows up as a failed digest;
two more pin the final dump of a whole pipeline, phase 2 and tidy-up
included, and three more the records `trace_cascade` returns and the
per-step cascade sizes of a greedy run.
The property tests drive greedy steps and scoped buffer rounds on seeded
random small graphs (cycles, degrees below r, random presets) and check the
invariants after every step, a proper final coloring, and that
`trace_cascade` leaves the state exactly as it found it, and that the
state's memoryviews still alias its arrays after every stage.  Further tests
check that the per-step invariant check, which looks only around a step's
commits, raises in the step where a planted fault first breaks an
invariant, that the full check recounts the seen masks, and that it
catches a wrong row planted in the engine's row table, which the step
check walks in place of the CSR arrays; that a color
draw reads slot v of its step's Philox stream; that the activation sampler
activates each vertex with its type's rate, keyed by (seed, step); that
buffer rounds, searching only from new reds, find what a search from every
red finds; and that the collision rule, on a star whose leaves commit red,
collides exactly when a touch's provenance is missing or differs from an
earlier touch's, and never for bulk commits.  Two hand-traced fixtures pin
the scoped rule-4 deferral of a forced pair of one lineage and the red
that a bulk commit's starvation makes.
"""

import hashlib
import math

import numpy as np
import pytest
from helpers import ScriptedRandomness, ball3_uncolored_reference

from treecolor import process
from treecolor.cli import run_pipeline
from treecolor.dynamics import (
    PaletteConfig,
    TuningParams,
    VertexType,
    default_tuning,
    type_space,
)
from treecolor.errors import InternalConsistencyError
from treecolor.graphs import (
    Graph,
    gen_regular_graph,
    gen_tree_ball,
    parse_fixture,
    write_coloring,
)
from treecolor.process import (
    RED,
    UNCOLORED,
    ColoringState,
    ProcessRandomness,
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
    # 40 steps of (4,3) at n=600: 208 activations, 301 forced, 75 + 25 reds
    st = ColoringState(gen_regular_graph(600, 4, seed=11), CFG43, seed=123)
    reports, _ = run_phase1(st, steep_tuning(CFG43, 0.25), steps=40)
    assert _sha(st.color.tobytes()) == (
        "a172bc295234d63556591f5df9d7c3b5461f1cbc74d6a92ffd45d117da7071dd")
    assert _step_digest(reports) == (
        "7640577b2d0e754afa7516a9db0b9c7dac12b85b298b961e727e4a2d6dfff533")


def test_modified_stream_pinned():
    # 15 modified steps of (6,4) at n=400, seed 3: two buffer rounds over
    # five components, which color 383 vertices and make 7 reds
    st = ColoringState(gen_regular_graph(400, 6, seed=11), CFG64, seed=3)
    reports, _ = run_phase1(st, steep_tuning(CFG64, 0.5), steps=15, modified=True)
    assert sum(r.buffer.rounds for r in reports) == 2
    assert _sha(st.color.tobytes()) == (
        "b0e4ebe551a801cce332fc3eb4f940777b2c95854932d82bfd91e5c88e07d076")
    assert _step_digest(reports) == (
        "d2f5cd245a0e321f7c0e7b489acd231939939b509d37afc06e81cebc1cd1c136")


@pytest.mark.parametrize("tuning, steps, digest", [
    # halfway to the certified horizon: 2,141 colored, generations to depth 9
    pytest.param(default_tuning(CFG43, 0.05), math.ceil(9.848 / 0.05) // 2,
                 "7d0a81f7ce9bcd85073cbc6896444dff1a9e55eaa0506005b43a1d878c624f71",
                 id="default"),
    # 3,653 colored, generations to depth 13
    pytest.param(steep_tuning(CFG43, 0.25), 10,
                 "c09ec1871de0bb066282ee27eb30fcbfb5b0846fc7fd967eb1a2a4d38776e10f",
                 id="steep"),
])
def test_trace_records_pinned(tuning, steps, digest):
    """Root, root type, colored count and per-generation type counts of
    1,000 traced cascades on a (4,3) state stopped mid-run at n=2e4."""
    st = ColoringState(gen_regular_graph(20_000, 4, seed=15), CFG43, seed=150)
    run_phase1(st, tuning, steps)
    rng = np.random.default_rng(15)
    rows = []
    for v in rng.permutation(np.flatnonzero(st.color == UNCOLORED))[:1000].tolist():
        rec = trace_cascade(st, v, rng)
        rows.append((rec.root, tuple(rec.root_type), rec.total_colored,
                     [sorted((t.d, t.c, k) for t, k in gen.items())
                      for gen in rec.generations]))
    assert _sha(repr(rows).encode()) == digest


def test_cascade_sizes_pinned():
    # 197 steps of (4,3) at n=3000: 799 activations color 2,671 vertices,
    # the largest cascade 98
    st = ColoringState(gen_regular_graph(3000, 4, seed=1), CFG43, seed=1)
    reports, _ = run_phase1(st, default_tuning(CFG43, 0.05), 197)
    for rep in reports:
        assert len(rep.cascade_sizes) == rep.active
        assert sum(rep.cascade_sizes) == rep.colored
    assert _sha(repr([rep.cascade_sizes for rep in reports]).encode()) == (
        "8b3ca18c1d60c0717bc1502e1e16eabb4a9f909179362614f90920e809f7aabe")


@pytest.mark.parametrize("r, p, n, epsilon, seed, modified, digest", [
    # phase 2 colors 22 components (246 vertices), tidy-up erases 370
    pytest.param(4, 3, 3000, 0.05, 1, False,
                 "0d93c350fc607125f3b2b57139e373bc0f7a20b20b020be0c42ea71aaba10abd",
                 id="greedy-43"),
    # phase 2 colors 13 components (28 vertices), tidy-up erases 33
    pytest.param(6, 4, 2000, 0.05, 3, True,
                 "703b0b76e1b31e3c732b4f4b8663c81d989e8da973f47efe95a4cf0ab09adfde",
                 id="modified-64"),
])
def test_pipeline_dump_pinned(tmp_path, r, p, n, epsilon, seed, modified, digest):
    """Phase 2 and the tidy-up, on top of phase 1, through the final dump."""
    cfg = PaletteConfig(r, p)
    R = 9.848 if r == 4 else 113.153  # the certified windows
    result = run_pipeline(gen_regular_graph(n, r, seed=seed),
                          default_tuning(cfg, epsilon=epsilon),
                          math.ceil(R / epsilon), seed, modified)
    assert result.completion.colored > 0 and result.tidy.erased > 0
    assert result.proper.ok
    path = tmp_path / "dump"
    write_coloring(result.state.graph, result.state.color, p, str(path))
    assert _sha(path.read_bytes()) == digest


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
    r, p = st.cfg.r, st.cfg.p
    uncolored = st.color == UNCOLORED
    codes = []
    for v in range(st.graph.n):
        if not uncolored[v]:
            assert st.vertex_type(v) is None
            codes.append((r + 1) * (p + 1))
            continue
        nbrs = st.graph.neighbors(v)
        mask = 0
        for c in st.color[nbrs]:
            if c >= 0:
                mask |= 1 << int(c)
        assert st.seen_mask[v] == mask
        t = VertexType(int(uncolored[nbrs].sum()), p - bin(mask).count("1"))
        assert t.c >= 2 and st.vertex_type(v) == t
        codes.append(t.d * (p + 1) + t.c)
    assert st.type_code.tolist() == codes
    assert st.type_counts == [codes.count(k) for k in range((r + 1) * (p + 1) + 1)]


def random_state(rng: np.random.Generator):
    cfg = (CFG43, CFG64)[rng.integers(2)]
    graph = random_graph(rng, cfg)
    st = ColoringState(graph, cfg, seed=int(rng.integers(1 << 20)),
                       presets=random_presets(rng, graph, cfg))
    return st, steep_tuning(cfg, float(rng.uniform(0.05, 0.5)))


def snapshot(st: ColoringState) -> list:
    """The per-vertex arrays, then the type counts and new reds."""
    arrays = (st.color, st.seen_mask, st.type_code)
    return [a.tobytes() for a in arrays] + [list(st.type_counts), list(st.fresh_reds)]


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
    assert verify_proper(st.graph, st.color).ok


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


def test_views_alias_the_state_arrays():
    """The engine reads and writes the state through `state.views`.  Were an
    array rebound or copied after construction, those writes would go to
    the old buffer and the array would silently fall behind."""
    st = ColoringState(gen_regular_graph(400, 4, seed=3), CFG43, seed=4)

    def assert_aliased():
        arrays = (st.color, st.seen_mask, st.type_code, st.graph.indptr, st.graph.indices)
        assert all(view.obj is a for view, a in zip(st.views, arrays, strict=True))

    run_phase1(st, steep_tuning(CFG43, 0.25), steps=20)
    assert_aliased()
    rng = np.random.default_rng(4)
    for v in np.flatnonzero(st.color == UNCOLORED)[:20].tolist():
        trace_cascade(st, v, rng)  # the restore writes through the views
    assert_aliased()
    complete_remainder(st)
    assert_aliased()
    assert tidy_to_proper(st).red_before > 0  # tidy-up has reds to rewrite
    assert_aliased()


# ---------------------------------------------------------------------------
# The local invariant check, color draws and the buffer-round search
# ---------------------------------------------------------------------------

def test_full_check_recounts_type_bookkeeping():
    st = ColoringState(gen_regular_graph(200, 4, seed=5), CFG43, seed=1)
    run_phase1(st, steep_tuning(CFG43, 0.25), steps=5)
    st.type_counts[0] += 1
    with pytest.raises(InternalConsistencyError, match="type"):
        st.check_invariants()
    st.type_counts[0] -= 1
    v = int(np.flatnonzero(st.color == UNCOLORED)[0])
    code = int(st.type_code[v])
    st.type_code[v] = st.colored_code
    with pytest.raises(InternalConsistencyError, match="type"):
        st.check_invariants()
    st.type_code[v] = code
    st.check_invariants()
    # one code off by one uncolored neighbor, with the counts made to agree
    v = next(u for u in np.flatnonzero(st.color == UNCOLORED).tolist()
             if st.vertex_type(u).d > 0)
    old = int(st.type_code[v])
    new = old - (st.cfg.p + 1)
    st.type_code[v] = new
    st.type_counts[old] -= 1
    st.type_counts[new] += 1
    st.check_invariants(around=np.flatnonzero(st.color != UNCOLORED).tolist())
    with pytest.raises(InternalConsistencyError, match="type"):
        st.check_invariants()


@pytest.mark.parametrize("c_left", [3, 2], ids=["stale-bit-set", "seen-bit-cleared"])
def test_full_check_recounts_seen_masks(c_left):
    """A seen mask that disagrees with the neighbors' colors, with the type
    code and counts made to agree with the mask, passes every recount but
    the mask's own."""
    st = ColoringState(gen_regular_graph(200, 4, seed=5), CFG43, seed=1)
    run_phase1(st, steep_tuning(CFG43, 0.25), steps=5)
    v = next(u for u in np.flatnonzero(st.color == UNCOLORED).tolist()
             if st.vertex_type(u).c == c_left)
    mask = int(st.seen_mask[v])  # no bit at c = 3, one at c = 2
    st.seen_mask[v] = mask ^ (mask or 1)  # claims color 0, or forgets its one color
    old = int(st.type_code[v])
    new = old - 1 if c_left == 3 else old + 1
    st.type_code[v] = new
    st.type_counts[old] -= 1
    st.type_counts[new] += 1
    with pytest.raises(InternalConsistencyError, match=f"vertex {v} has seen mask"):
        st.check_invariants()


def test_local_check_raises_in_the_step_of_a_planted_fault(monkeypatch):
    """A commit that leaves one uncolored neighbor's list unreduced lets
    that neighbor take the same color later.  The full check, which
    recounts the masks, raises after the first faulty step; the step that
    makes the clash raises by itself."""
    commit = process._RoundEngine.commit
    planted = []

    def faulty_commit(self, v, c, touch=True):
        st = self.state
        victim = next((u for u in st.graph.neighbors(v).tolist()
                       if st.color[u] == UNCOLORED), None)
        if victim is None or c == RED:
            return commit(self, v, c, touch)
        seen, code = int(st.seen_mask[victim]), int(st.type_code[victim])
        commit(self, v, c, touch)
        st.seen_mask[victim] = seen
        now = int(st.type_code[victim])  # read after the commit, which moved it
        st.type_code[victim] = code = code - (st.cfg.p + 1)  # one neighbor less, no color
        st.type_counts[now] -= 1
        st.type_counts[code] += 1
        planted.append(victim)

    monkeypatch.setattr(process._RoundEngine, "commit", faulty_commit)
    st = ColoringState(gen_regular_graph(600, 4, seed=11), CFG43, seed=5)
    tuning = steep_tuning(CFG43, 0.25)
    greedy_step(st, tuning)
    assert planted
    with pytest.raises(InternalConsistencyError, match="seen mask"):
        st.check_invariants()
    for _ in range(100):
        try:
            greedy_step(st, tuning)
        except InternalConsistencyError as exc:
            assert "joins two vertices colored" in str(exc)
            break
    else:
        pytest.fail("the planted fault never broke an invariant")
    with pytest.raises(InternalConsistencyError):
        st.check_invariants()


def test_a_wrong_engine_row_is_caught_by_the_end_of_phase1(monkeypatch):
    """The step check walks the CSR rows the round engine read.  A row that
    drops an uncolored neighbor in the last step leaves that neighbor's
    list unreduced and hides the edge from the step check; the full check
    at the end of `run_phase1` recounts from the arrays and raises."""
    commit = process._RoundEngine.commit
    planted = []

    def commit_through_a_wrong_row(self, v, c, touch=True):
        st, row = self.state, self._rows.get(v)
        if not planted and st.step == 3 and row is not None and c != RED:
            victim = next((u for u in row if st.color[u] == UNCOLORED), None)
            if victim is not None:
                self._rows[v] = [u for u in row if u != victim]
                planted.append(victim)
        commit(self, v, c, touch)

    monkeypatch.setattr(process._RoundEngine, "commit", commit_through_a_wrong_row)
    st = ColoringState(gen_regular_graph(600, 4, seed=11), CFG43, seed=5)
    with pytest.raises(InternalConsistencyError):
        run_phase1(st, steep_tuning(CFG43, 0.25), steps=4)
    assert planted


def test_choose_color_reads_slot_v_of_the_step_stream():
    n, seed = 1000, 9
    rng = ProcessRandomness(seed)
    for step in (5, 0, 5, 70):
        key = np.array([seed, (step << 2) | 1], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(n)
        for v in (4, 0, n - 1, 1, 5, 3):
            # with 2^53 colors the index is u itself, scaled to an integer
            assert rng.choose_color(step, v, range(2 ** 53)) == int(u[v] * 2.0 ** 53)
            for avail in ((0, 2), (0, 1, 2), (0, 1, 2, 3)):
                assert rng.choose_color(step, v, avail) == avail[int(u[v] * len(avail))]


def test_rekeyed_streams_match_fresh_ones():
    """One `ProcessRandomness` re-keys a single Philox for every stream.
    Interleaved out of order, activation and color draws each equal what a
    fresh generator drawing that stream alone gives, so no counter, buffer
    or key word leaks from one stream into the next."""
    seed, code = 9, np.arange(1000) % 4
    rate = np.array([0.1, 0.0, 0.3, 0.2])
    rng = ProcessRandomness(seed)
    every = range(2 ** 53)  # the index is the draw's double, scaled to an integer
    for step in (5, 0, 5, 70, 5):
        for v in (999, 4, 0, 6):
            alone = ProcessRandomness(seed).choose_color(step, v, every)
            assert rng.choose_color(step, v, every) == alone
        alone = ProcessRandomness(seed).activation_mask(step, rate, code)
        assert np.array_equal(rng.activation_mask(step, rate, code), alone)
        v = 3  # a draw straight after an activation draw left words buffered
        assert rng.choose_color(step, v, every) == ProcessRandomness(seed).choose_color(
            step, v, every)


@pytest.mark.parametrize("rate, type_code, steps", [
    # three distinct nonzero rates and two codes at rate 0, interleaved
    pytest.param([0.0, 0.05, 0.02, 0.005, 0.0],
                 np.random.default_rng(0).permutation(np.arange(3000) % 5), 1000,
                 id="three-rates"),
    # q = 1, which TuningParams allows: code 0 is active at every step
    pytest.param([1.0, 0.3, 0.0], np.arange(300) % 3, 1000, id="q-one"),
    # one vertex: whenever it is a candidate, the first batch of gaps ends
    # inside [0, n) and the sampler draws another batch
    pytest.param([0.04], np.zeros(1, dtype=np.intp), 5000, id="one-vertex"),
])
def test_activation_sampler_law(rate, type_code, steps):
    rate, rng = np.array(rate), ProcessRandomness(21)
    counts = np.zeros(len(rate))
    for step in range(steps):
        actives = rng.activation_mask(step, rate, type_code)
        assert (np.diff(actives) > 0).all()  # sorted and unique
        assert ((0 <= actives) & (actives < len(type_code))).all()
        counts += np.bincount(type_code[actives], minlength=len(rate))
    per_code = np.bincount(type_code, minlength=len(rate))
    mean = per_code * rate * steps
    sigma = np.sqrt(per_code * rate * (1 - rate) * steps)
    assert (np.abs(counts - mean) <= 5 * sigma).all(), (counts, mean, sigma)


def test_activation_sampler_edges_and_keys():
    rng = ProcessRandomness(5)
    code = np.arange(1000) % 4
    rate = np.array([0.1, 0.0, 0.3, 0.2])
    assert len(rng.activation_mask(0, np.zeros(4), code)) == 0
    assert len(rng.activation_mask(0, rate, code[:0])) == 0
    # the same (seed, step) gives the same actives, whatever ran before
    first = [rng.activation_mask(step, rate, code) for step in (3, 8)]
    again = ProcessRandomness(5)
    assert np.array_equal(again.activation_mask(8, rate, code), first[1])
    assert np.array_equal(again.activation_mask(3, rate, code), first[0])
    assert not np.array_equal(first[0], first[1])
    assert not np.array_equal(ProcessRandomness(6).activation_mask(3, rate, code), first[0])


def test_frontier_search_finds_what_a_full_scan_finds(monkeypatch):
    search = process._ball3_uncolored
    found_targets = 0

    def checked(state, reds):
        nonlocal found_targets
        targets, owner = search(state, reds)
        ref_targets, ref_owner = ball3_uncolored_reference(state)
        assert targets == ref_targets
        assert [owner[v] for v in targets] == [ref_owner[v] for v in targets]
        found_targets += len(targets)
        return targets, owner

    monkeypatch.setattr(process, "_ball3_uncolored", checked)
    for case in range(1, 60, 2):  # the modified instances of the property test
        rng = np.random.default_rng([2024, case])
        st, tuning = random_state(rng)
        for _ in range(int(rng.integers(5, 30))):
            greedy_step(st, tuning)
            buffer_rounds(st)
    assert found_targets > 100


# ---------------------------------------------------------------------------
# The collision rule
# ---------------------------------------------------------------------------

STAR = "5 4\n0 1\n0 2\n0 3\n0 4\n"  # center 0, leaves 1-4
A, B = 10, 11  # two lineages


def star_engine(scoped: bool, lineages: list[int | None]) -> process._RoundEngine:
    """An engine on a fresh star whose leaf i + 1 has lineage `lineages[i]`
    (None: no entry).  Leaves commit RED, so the center's list never shrinks
    and only the collision rule can act on it."""
    st = ColoringState(parse_fixture(STAR)[0], CFG43)
    engine = process._RoundEngine(st, process.StepReport(), scoped=scoped)
    for leaf, lineage in enumerate(lineages, start=1):
        if lineage is not None:
            engine.cascade_of[leaf] = lineage
    return engine


@pytest.mark.parametrize("scoped, lineages, collides", [
    (True, [A], False),
    (True, [A, A], False),
    (True, [A, A, A], False),
    (True, [A, B], True),
    (True, [A, A, B], True),
    (True, [A, B, A], True),
    (True, [None, A], True),
    (True, [A, None], True),
    (False, [A], False),
    (False, [A, A], True),
    (False, [A, B, A], True),
    (False, [None, None], True),
])
def test_a_second_lineage_makes_a_collision(scoped, lineages, collides):
    """Scoped, the center collides when a touch has no lineage or another
    lineage than an earlier touch; unscoped, at any second touch."""
    engine = star_engine(scoped, lineages)
    for leaf in range(1, len(lineages) + 1):
        engine.commit(leaf, RED)
    assert (0 in engine._collided) is collides
    assert engine._toucher[0] == len(lineages)  # the last toucher
    assert engine.state.available_colors(0) == (0, 1, 2)


@pytest.mark.parametrize("scoped", [True, False])
def test_bulk_commits_never_collide(scoped):
    engine = star_engine(scoped, [A, B, None, A])
    engine.commit(1, RED, touch=False)
    engine.commit(2, RED)
    engine.commit(3, RED, touch=False)
    engine.commit(4, RED, touch=False)
    assert 0 not in engine._collided
    assert engine._toucher == {0: 2}


def test_buffer_rounds_search_from_the_reds_of_a_failed_component():
    # Step 0 turns the adjacent actives 6 and 7 red.  The first buffer round
    # finds the triangle 0-1-2, whose lists are all {0, 1} (the presets 3,
    # 4, 5 hold color 2): it cannot be colored and turns red.  Vertex 9 is
    # 4 steps from 6 but 3 from 0, so only a round searching from the
    # triangle's new reds reaches it.
    graph, presets = parse_fixture(
        "10 4\n0 1\n1 2\n0 2\n0 3\n1 4\n2 5\n0 6\n6 7\n3 8\n8 9\n"
        "color 3 2\ncolor 4 2\ncolor 5 2\n")
    st = ColoringState(graph, CFG43, presets=presets, rng=ScriptedRandomness(
        {0: [6, 7]}, {(0, 6): 0, (0, 7): 1}))
    greedy_step(st, steep_tuning(CFG43, 0.25))
    assert st.color[6] == st.color[7] == RED
    rep = buffer_rounds(st)
    assert rep.failures == 1 and rep.rounds == 2
    assert (st.color[[0, 1, 2]] == RED).all() and st.color[9] >= 0
    assert ball3_uncolored_reference(st)[0] == []


# Triangle 0-1-2 with presets 3 (color 1, next to 1) and 4 (color 2, next to
# 2): once 0 takes color 0, vertex 1 keeps only color 2 and vertex 2 only 1.
TRIANGLE = "5 4\n0 1\n0 2\n1 2\n1 3\n2 4\ncolor 3 1\ncolor 4 2\n"


def test_scoped_forced_pair_of_one_lineage_commits_in_turn():
    """0's commit forces 1 and 2 at once.  They are adjacent and both inherit
    0's lineage, so scoped screening commits the lower, 1, and re-queues 2,
    which is forced again in the next round and commits its color."""
    graph, presets = parse_fixture(TRIANGLE)
    st = ColoringState(graph, CFG43, presets=presets)
    report = process.StepReport()
    engine = process._RoundEngine(st, report, scoped=True)
    engine.cascade_of[0] = A
    engine.commit(0, 0, touch=False)
    engine.run_rounds([])
    assert st.color[:3].tolist() == [0, 2, 1]
    assert (report.rule2, report.rule3, report.rule4, report.rounds) == (2, 0, 0, 2)
    assert [v for v, _ in engine.log] == [1, 2]
    assert engine.cascade_of == {0: A, 1: A, 2: A}
    st.check_invariants()


@pytest.mark.parametrize("scoped", [True, False])
def test_bulk_commit_that_starves_a_vertex_turns_it_red(scoped):
    """Vertex 0 sees color 2 from its preset neighbor 3; bulk commits of 1
    (color 0) and then 2 (color 1) eat its last two colors.  It turns red
    with its reducer, 2, as the cause, and takes 2's lineage."""
    graph, presets = parse_fixture("4 4\n0 1\n0 2\n0 3\ncolor 3 2\n")
    st = ColoringState(graph, CFG43, presets=presets)
    report = process.StepReport()
    engine = process._RoundEngine(st, report, scoped=scoped)
    engine.cascade_of.update({1: A, 2: B})
    engine.commit(1, 0, touch=False)
    engine.commit(2, 1, touch=False)
    assert 0 not in engine._collided and engine._reducer[0] == 2
    engine.run_rounds([])
    assert st.color[0] == RED
    assert (report.rule2, report.rule3, report.rule4, report.rounds) == (0, 1, 0, 1)
    assert engine.cascade_of[0] == B
    assert st.fresh_reds == [0]
