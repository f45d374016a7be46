"""The staged greedy coloring process on finite graphs.

Each macro-step activates a random vertex set, lets every activation draw a
random available color, and then iterates reaction rounds to a fixpoint:
vertices that saw two step-colorings become red, vertices reduced to a single
available color are forced to take it, and adjacent simultaneous colorings
are both replaced by red.  The modified mode adds buffer rounds that relieve
red neighborhoods, and the final phases complete and tidy the coloring.

A `ColoringState` holds the graph, the palette, the randomness, the step
counter and three per-vertex arrays: the color, the mask of palette colors
seen among neighbors and a type code that encodes an uncolored vertex's
type (d, c), plus the number of vertices at each code.  Every commit
(presets, greedy steps, buffer rounds, traced cascades and phase 2) goes
through `_RoundEngine.commit`, which keeps all of them in step with the
colors; the tidy-up only rewrites colors of a finished run.  Buffer rounds
and phase 2 commit whole components through one helper, which list-colors a
component with `listcolor.color_component` or turns it red.

All randomness is a pure function of (seed, step, purpose) through
counter-based streams, and a color draw of its vertex too, so a seed and the
step counter fix every future draw and runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PaletteConfig, TuningParams, TypeDistribution, VertexType, type_space
from .errors import ConfigurationError, InternalConsistencyError
from .graphs import Graph
from .listcolor import COLORED, color_component, connected_components

UNCOLORED = -1
RED = -2

_PURPOSE_ACTIVATION = 0
_PURPOSE_COLOR = 1
MAX_SEED = 2 ** 64 - 1  # a process seed is one 64-bit word of each Philox key


# ---------------------------------------------------------------------------
# Randomness adapters
# ---------------------------------------------------------------------------

class ProcessRandomness:
    """Counter-based per-step randomness keyed by (seed, step, purpose).

    Each (seed, step, purpose) key names one Philox stream, and one Philox
    with its Generator serves them all: `_seek` writes the key's second
    word and a counter into a saved state and assigns it (2-3 µs on a
    2-core Xeon).  The activation draw reads its step's stream in sequence
    and costs O(n q) for q the largest rate.  A color draw for vertex v
    reads only slot v of its step's stream, so color draws are independent
    of evaluation order: Philox4x64 emits four 64-bit words per counter
    value, so the draw seeks to counter v // 4 and takes raw word v % 4
    (4-6 µs a draw, the seek included), turned into a double by numpy's
    53-bit recipe: the value `Generator(Philox(key)).random(n)[v]` would
    give, without drawing n.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be in [0, {MAX_SEED}], got {seed}")
        self.seed = int(seed)
        self._philox = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._philox)
        self._state = self._philox.state  # empty buffer: the next word comes from the counter

    def _seek(self, step: int, purpose: int, block: int = 0) -> None:
        """Put the generator at counter `block` of stream (seed, step, purpose)."""
        words = self._state["state"]
        words["key"][1] = (step << 2) | purpose
        words["counter"][0] = block
        self._philox.state = self._state

    def activation_mask(self, step: int, rate: np.ndarray,
                        type_code: np.ndarray) -> np.ndarray:
        """Sorted vertices v, each active independently with probability
        rate[type_code[v]]: Bernoulli(q) candidates by Geometric(q) gaps, q
        the largest rate, each kept with probability rate / q (skip
        sampling, Devroye 1986, ch. X)."""
        n, q = len(type_code), min(float(rate.max(initial=0.0)), 1.0)
        if n == 0 or not q > 0.0:
            return np.empty(0, dtype=np.int64)
        self._seek(step, _PURPOSE_ACTIVATION)
        size = int(n * q + 4.0 * np.sqrt(n * q)) + 1  # passes n unless 4 sigma short
        cand = np.cumsum(self._gen.geometric(q, size)) - 1
        while cand[-1] < n:
            cand = np.concatenate([cand, cand[-1] + np.cumsum(self._gen.geometric(q, size))])
        cand = cand[:np.searchsorted(cand, n)]
        return cand[self._gen.random(len(cand)) * q < rate[type_code[cand]]]

    def choose_color(self, step: int, v: int, avail: tuple[int, ...]) -> int:
        self._seek(step, _PURPOSE_COLOR, v // 4)
        u = (int(self._philox.random_raw(v % 4 + 1)[-1]) >> 11) * 2.0 ** -53
        idx = min(int(u * len(avail)), len(avail) - 1)
        return avail[idx]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class CascadeRecord:
    root: int
    root_type: VertexType
    generations: list[dict[VertexType, int]] = field(default_factory=list)
    total_colored: int = 0


@dataclass
class StepReport:
    active: int = 0
    rule1: int = 0
    rule2: int = 0
    rule3: int = 0
    rule4: int = 0
    rounds: int = 0
    cascade_sizes: list[int] = field(default_factory=list)  # colored, per activation
    buffer: "BufferReport | None" = None

    @property
    def colored(self) -> int:
        return self.rule1 + self.rule2

    @property
    def new_red(self) -> int:
        return self.rule3 + self.rule4


@dataclass
class BufferReport:
    rounds: int = 0
    colored_per_round: list[int] = field(default_factory=list)
    components: int = 0
    failures: int = 0
    red_created: int = 0


@dataclass
class CompletionReport:
    components: int = 0
    colored: int = 0
    failures: int = 0
    red_created: int = 0


@dataclass
class TidyReport:
    red_before: int = 0
    erased: int = 0
    failures: int = 0


@dataclass
class ProperReport:
    violations: list[tuple[int, int]]
    red_red: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.red_red


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

def _code(cfg: PaletteConfig, d, c):
    """Type code of d uncolored neighbors and c available colors; d = r+1,
    c = 0 is the code of every colored vertex.  Works on arrays too."""
    return d * (cfg.p + 1) + c


class ColoringState:
    """Mutable coloring of one graph, with the incremental bookkeeping the
    process rules need: per-vertex color, the bitmask of palette colors seen
    among neighbors, and the type code.  Every commit, presets included,
    goes through a `_RoundEngine`.

    An uncolored vertex with d uncolored neighbors and c available colors
    (0 <= c <= p) has code d(p+1) + c; every colored vertex has the one
    code past them, `colored_code` = (r+1)(p+1).  `type_counts` counts the
    vertices at each code.  `fresh_reds` lists the vertices turned red since
    buffer rounds last looked.  `views` holds memoryviews of `color`,
    `seen_mask`, `type_code`, `graph.indptr` and `graph.indices`: they read
    and write plain ints, not numpy scalars, and alias the arrays."""

    def __init__(self, graph: Graph, cfg: PaletteConfig, seed: int = 0,
                 presets: list[tuple[int, int]] | None = None,
                 rng=None):
        degs = graph.degrees()
        if len(degs) and int(degs.max()) > cfg.r:
            raise ConfigurationError(
                f"graph has a vertex of degree {int(degs.max())} > r={cfg.r}"
            )
        self.graph = graph
        self.cfg = cfg
        self.rng = rng if rng is not None else ProcessRandomness(seed)
        self.step = 0
        n = graph.n
        self.color = np.full(n, UNCOLORED, dtype=np.int16)
        self.seen_mask = np.zeros(n, dtype=np.int64)
        self.colored_code = _code(cfg, cfg.r + 1, 0)
        self.type_code = _code(cfg, degs, cfg.p).astype(np.intp)
        self.type_counts = np.bincount(self.type_code,
                                       minlength=self.colored_code + 1).tolist()
        # the code of each type of the type space, in its canonical order
        self.space_codes = np.array([_code(cfg, t.d, t.c) for t in type_space(cfg).types],
                                    dtype=np.intp)
        self.fresh_reds: list[int] = []
        self.views = tuple(memoryview(a) for a in (
            self.color, self.seen_mask, self.type_code, graph.indptr, graph.indices))
        self._avail: dict[int, tuple[int, ...]] = {}  # available colors per seen mask
        self._rates: tuple = (None, None)  # (tuning, its rate per type code)
        engine = _RoundEngine(self, StepReport())
        for v, c in presets or []:
            if not (0 <= c < cfg.p):
                raise ConfigurationError(f"preset color {c} for vertex {v} invalid")
            if self.color[v] != UNCOLORED:
                raise ConfigurationError(f"vertex {v} preset twice")
            engine.commit(v, c, touch=False)
        bad = self._invariant_violation()
        if bad is not None:
            raise ConfigurationError(f"presets violate an invariant: {bad}")

    def available_colors(self, v: int) -> tuple[int, ...]:
        mask = self.views[1][v]
        avail = self._avail.get(mask)
        if avail is None:
            avail = tuple(c for c in range(self.cfg.p) if not (mask >> c) & 1)
            self._avail[mask] = avail
        return avail

    def vertex_type(self, v: int) -> VertexType | None:
        """Type (uncolored neighbors, available colors) of v, or None if
        colored.  Red neighbors reduce the degree but never remove a color."""
        if self.color[v] != UNCOLORED:
            return None
        return VertexType(*divmod(int(self.type_code[v]), self.cfg.p + 1))

    def empirical_distribution(self) -> TypeDistribution:
        """Fraction of the vertices off `graph.boundary` sitting at each type,
        from the type counts.  Only a tree ball has a boundary: its degree-1
        leaves would distort the statistics."""
        boundary = self.graph.boundary
        counts = np.array(self.type_counts, dtype=np.int64)
        if len(boundary):
            counts -= np.bincount(self.type_code[boundary], minlength=len(counts))
        denom = self.graph.n - len(boundary)
        # non-negative counts over the interior: the public checks hold by construction
        return TypeDistribution._unchecked(self.cfg, counts[self.space_codes] / denom)

    def counts(self) -> dict[str, int]:
        c = self.color
        return {
            "uncolored": int((c == UNCOLORED).sum()),
            "palette": int(((c >= 0) & (c < self.cfg.p)).sum()),
            "red": int((c == RED).sum()),
            "extra": int((c == self.cfg.p).sum()),
        }

    # -- invariants -----------------------------------------------------------

    def _invariant_violation(self) -> str | None:
        g, p = self.graph, self.cfg.p
        # before tidy-up no vertex holds the extra color p: a clash is a palette clash
        clash = verify_proper(g, self.color).violations
        if clash:
            u, v = clash[0]
            return f"edge ({u},{v}) joins two vertices colored {int(self.color[u])}"
        cu = self.color[g.edges_u]
        cv = self.color[g.edges_v]
        uncolored = self.color == UNCOLORED
        # a colored vertex's mask stops at its commit: recount the uncolored ones
        mask = np.zeros(g.n, dtype=np.int64)
        for b in range(p):
            mask[g.edges_u[(cv == b) & (cu == UNCOLORED)]] |= 1 << b
            mask[g.edges_v[(cu == b) & (cv == UNCOLORED)]] |= 1 << b
        stale = uncolored & (mask != self.seen_mask)
        if stale.any():
            v = int(np.nonzero(stale)[0][0])
            return f"vertex {v} has seen mask {int(self.seen_mask[v])}, a recount {int(mask[v])}"
        avail = p - sum((mask >> b) & 1 for b in range(p))
        starved = uncolored & (avail < 2)
        if starved.any():
            v = int(np.nonzero(starved)[0][0])
            return f"vertex {v} has {int(avail[v])} available colors"
        parts = self.counts()
        if sum(parts.values()) != g.n:
            return f"color counts {parts} do not add up to n={g.n}"
        both = uncolored[g.edges_u] & uncolored[g.edges_v]
        deg = (np.bincount(g.edges_u[both], minlength=g.n)
               + np.bincount(g.edges_v[both], minlength=g.n))
        codes = np.where(uncolored, _code(self.cfg, deg, avail), self.colored_code)
        if (not np.array_equal(codes, self.type_code)
                or np.bincount(codes, minlength=len(self.type_counts)).tolist()
                != self.type_counts):
            return "type codes or type counts differ from a recount"
        return None

    def _local_violation(self, around: list[int], rows: dict[int, list[int]]) -> str | None:
        """The invariants on the edges at `around` and on its uncolored neighbors
        (each row from `rows`, else the CSR arrays).  Started from a state that
        met them, a run of commits to `around` can break them nowhere else."""
        p = self.cfg.p
        color, _, codes, ptr, adj = self.views
        for v in around:
            c = color[v]
            if not (0 <= c <= p or c == RED):
                return f"vertex {v} has color {c}"
            nbrs = rows.get(v)
            for u in adj[ptr[v]:ptr[v + 1]].tolist() if nbrs is None else nbrs:
                c_u = color[u]
                if c_u == c and 0 <= c < p:
                    return f"edge ({min(u, v)},{max(u, v)}) joins two vertices colored {c}"
                if c_u == UNCOLORED:
                    left = codes[u] % (p + 1)
                    if left < 2:
                        return f"vertex {u} has {left} available colors"
        return None

    def check_invariants(self, around: list[int] | None = None,
                         rows: dict[int, list[int]] | None = None) -> None:
        """Check the whole state, masks and type bookkeeping included, or with
        `around` only what commits to those vertices can have broken, walking
        the CSR rows a round engine read of them (`rows`) where it has them."""
        bad = (self._invariant_violation() if around is None
               else self._local_violation(around, rows or {}))
        if bad is not None:
            raise InternalConsistencyError(bad)


# ---------------------------------------------------------------------------
# The round engine: shared by greedy steps and buffer-round reactions
# ---------------------------------------------------------------------------

class _RoundEngine:
    """Executes reaction rounds on a state: rule 3 (two step-colored
    neighbors -> red, transitively), rule 2 (single available color ->
    forced), rule 4 (adjacent simultaneous colorings -> both red), with
    simultaneous commits per round.  `commit` is the only way a vertex gets
    a color.

    An engine lives for one greedy step, one buffer round, one traced
    cascade or one bulk commit, so its bookkeeping is local to it.  Every
    uncolored vertex has at least two colors when an engine starts (the
    state's invariants), so a vertex the engine finds forced or starved was
    reduced by a commit of this engine."""

    def __init__(self, state: ColoringState, report: StepReport, scoped: bool = False):
        self.state = state
        self.report = report
        # Scoped mode restricts rules 3/4 to collisions between cascades of
        # different lineages.  Buffer rounds need it: on a tree two cascades
        # serving one red cluster can never meet (the meeting would close a
        # cycle), so any such meeting on a finite graph is a geometry
        # artifact, and crediting it lets red regions feed on themselves.
        # Greedy steps and traces are unscoped: every collision makes red.
        self.scoped = scoped
        self.dirty: list[int] = []
        self.committed: list[int] = []
        self.cascade_of: dict[int, int] = {}
        # (vertex, pre-type code) per palette commit of `run_rounds`, in order:
        # a root's code at activation, (d + 1, 2) for a vertex forced at (d, 1)
        self.log: list[tuple[int, int]] = []
        # per vertex: last toucher, last commit that took a color
        self._toucher: dict[int, int] = {}
        self._reducer: dict[int, int] = {}
        self._collided: set[int] = set()
        self._rows: dict[int, list[int]] = {}  # CSR row of each vertex a pending pass read

    # -- commits ---------------------------------------------------------------

    def commit(self, v: int, c: int, touch: bool = True) -> None:
        """Color v with c, a palette color or RED; only a palette color is
        taken off the lists of v's uncolored neighbors.  `touch=False` marks
        a bulk commit (presets, or a component colored by the solver):
        neighbors still lose the color and may become forced, but the commit
        earns no rule-3 credit — on a tree no outside vertex can border a
        connected component twice, so bulk commits there never collide, and
        the finite graph must match."""
        st = self.state
        color, seen, codes, ptr, adj = st.views
        dirty, counts = self.dirty, st.type_counts
        toucher, reducer, lineage = self._toucher, self._reducer, self.cascade_of
        color[v] = c
        self.committed.append(v)
        if c == RED:
            st.fresh_reds.append(v)
        counts[codes[v]] -= 1
        counts[st.colored_code] += 1
        codes[v] = st.colored_code
        bit = 0 if c == RED else 1 << c
        base = st.cfg.p + 1
        # Unscoped, any second touch of u collides; scoped, one with no lineage or not
        # the lineage of u's last toucher (a committed lineage never changes).
        scoped = self.scoped
        prov = lineage.get(v) if scoped else None
        nbrs = self._rows.get(v)  # read by the pending pass of `run_rounds`
        for u in adj[ptr[v]:ptr[v + 1]].tolist() if nbrs is None else nbrs:
            if color[u] != UNCOLORED:
                continue
            dirty.append(u)
            if touch:
                if u in toucher and (not scoped or prov is None
                                     or prov != lineage.get(toucher[u])):
                    self._collided.add(u)
                toucher[u] = v
            old = codes[u]
            code = old - base  # one uncolored neighbor less
            mask = seen[u]
            if bit and not (mask & bit):
                seen[u] = mask | bit
                code -= 1
                reducer[u] = v
            codes[u] = code
            counts[old] -= 1
            counts[code] += 1

    # -- rounds ----------------------------------------------------------------

    def _screen_rule4(self, pending: list[tuple[int, int]], queued: set[int],
                      logged: int) -> list[tuple[int, int]]:
        """A round's slow path when its pending set `queued` holds an adjacent
        pair: the pair turns red (rule 4) and leaves `pending` and the log from
        `logged` on.  In scoped mode a pair of one lineage is a cascade folded
        onto itself by a cycle, not a collision: the lower vertex commits and
        the other is re-queued to react to it.  Returns what still commits."""
        scoped, lineage = self.scoped, self.cascade_of
        doomed: set[int] = set()
        deferred: set[int] = set()
        for v, _ in pending:
            for u in self._rows[v]:
                if u in queued:
                    if scoped and lineage.get(v) is not None and lineage.get(v) == lineage.get(u):
                        deferred.add(max(v, u))
                    else:
                        doomed.update((v, u))
        out = doomed | deferred
        self.dirty += [v for v, _ in pending if v in deferred and v not in doomed]
        self.log[logged:] = [e for e in self.log[logged:] if e[0] not in out]
        for v in sorted(doomed):
            self.commit(v, RED)
        self.report.rule4 += len(doomed)
        return [(v, c) for v, c in pending if v not in out]

    def run_rounds(self, initial_pending: list[tuple[int, int]]) -> None:
        """Round 0 commits the initial pending set; each later round applies
        rule 3, then commits the vertices rule 2 finds forced, until nothing
        moves.  One pass over a round's pending vertices reads each one's
        color and CSR row, logs it and tests its row against the pending
        set; the rows go on to the commits and the step's invariant check, and
        only a round in which two pending vertices are adjacent (rare) takes
        `_screen_rule4`."""
        st = self.state
        color, seen, codes, ptr, adj = st.views
        report, lineage, log, rows = self.report, self.cascade_of, self.log, self._rows
        reducer, collided = self._reducer, self._collided
        base, full = st.cfg.p + 1, (1 << st.cfg.p) - 1
        chosen = dict(initial_pending)
        candidates, queued = list(chosen), set(chosen)
        first_round = bool(initial_pending)
        while True:
            progressed = False
            if not first_round:
                # Rule 3, transitively: reds count as step-colored.  A red
                # commit appends its uncolored neighbors to the list walked
                # here and takes no color off a list, so a vertex walked with
                # one color left keeps it unless it turns red later in the
                # walk: rule 2's candidates are collected on the way.
                candidates, queued = [], set()
                for v in self.dirty:
                    if color[v] != UNCOLORED:
                        continue
                    left = codes[v] % base
                    # Starvation only arises from bulk commits (two vertices
                    # of one solver-colored component eating v's last two
                    # colors through a short cycle); treat it like a collision.
                    if left == 0 or v in collided:
                        cause = reducer[v] if left == 0 else self._toucher[v]
                        if cause in lineage:
                            lineage[v] = lineage[cause]
                        self.commit(v, RED)
                        queued.discard(v)
                        report.rule3 += 1
                        progressed = True
                    elif left == 1 and v not in queued:
                        queued.add(v)
                        candidates.append(v)
                self.dirty = []
            # The pending pass: a forced vertex takes its reducer's lineage (round
            # 0's have none) and the one color missing from its mask, and logs as
            # (d + 1, 2) from (d, 1), read before this round's commits retype it.
            shift = 0 if first_round else base + 1
            pending, clash, logged = [], False, len(log)
            for v in candidates:
                if v not in queued:
                    continue
                cause = reducer.get(v)
                if cause in lineage:
                    lineage[v] = lineage[cause]
                c = chosen[v] if first_round else (full ^ seen[v]).bit_length() - 1
                rows[v] = nbrs = adj[ptr[v]:ptr[v + 1]].tolist()
                clash = clash or not queued.isdisjoint(nbrs)
                log.append((v, codes[v] + shift))
                pending.append((v, c))
            if not pending and not progressed:
                break
            if clash:
                pending = self._screen_rule4(pending, queued, logged)
            for v, c in pending:
                self.commit(v, c)
            if first_round:
                report.rule1 += len(pending)
            else:
                report.rule2 += len(pending)
            report.rounds += 1
            first_round = False


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def greedy_step(state: ColoringState, tuning: TuningParams) -> StepReport:
    """One macro-step: sample the active set from the step-start types, let
    actives draw random available colors, and run reaction rounds to a
    fixpoint.  Invariants are re-checked on exit around the step's commits."""
    if tuning.cfg != state.cfg:
        raise ConfigurationError("tuning and state configs differ")
    if tuning.epsilon is None:
        raise ConfigurationError("tuning has no activation rate epsilon")
    rng = state.rng
    i = state.step
    report = StepReport()

    # rate per type code; the colored code, codes with c < 2 and codes with
    # no vertex have rate 0, so the sampler's bound is the largest rate in use
    if state._rates[0] is not tuning:
        rate = np.zeros(len(state.type_counts))
        rate[state.space_codes] = tuning.epsilon * tuning.vector()
        state._rates = (tuning, rate)
    rate = np.where(np.asarray(state.type_counts) == 0, 0.0, state._rates[1])
    # a scripted adapter may name colored vertices
    color = state.views[0]
    actives = [v for v in rng.activation_mask(i, rate, state.type_code).tolist()
               if color[v] == UNCOLORED]
    report.active = len(actives)

    engine = _RoundEngine(state, report)
    pending = []
    for k, v in enumerate(actives):
        engine.cascade_of[v] = k
        avail = state.available_colors(v)
        c = rng.choose_color(i, v, avail)
        if c not in avail:
            raise ConfigurationError(f"adapter chose unavailable color {c} for {v}")
        pending.append((v, c))
    engine.run_rounds(pending)
    report.cascade_sizes = [0] * len(actives)
    for v, _ in engine.log:
        report.cascade_sizes[engine.cascade_of[v]] += 1

    state.step = i + 1
    state.check_invariants(around=engine.committed, rows=engine._rows)
    return report


def trace_cascade(state: ColoringState, v: int, rng: np.random.Generator) -> CascadeRecord:
    """Run the cascade from v in isolation — no activation sampling — and
    restore the state afterwards.  Returns the per-generation record: a
    forced vertex is one generation past the commit that forced it.
    The engine commits only uncolored vertices, so the restore uncolors the
    committed ones, recounts mask and code of each uncolored vertex in or next
    to them, and copies back the type counts and fresh reds: exact when the
    bookkeeping agreed with a recount from the colors, as `check_invariants` checks."""
    if state.color[v] != UNCOLORED:
        raise ConfigurationError(f"vertex {v} is already colored")
    counts, reds_before = list(state.type_counts), len(state.fresh_reds)
    engine = _RoundEngine(state, StepReport())
    avail = state.available_colors(v)
    engine.run_rounds([(v, avail[int(rng.integers(len(avail)))])])
    color, seen, codes, ptr, adj = state.views
    redo = set(engine.committed)
    for u in engine.committed:
        color[u] = UNCOLORED
        redo.update(adj[ptr[u]:ptr[u + 1]].tolist())
    for u in redo:
        if color[u] == UNCOLORED:
            d = mask = 0
            for w in adj[ptr[u]:ptr[u + 1]].tolist():
                c = color[w]
                if c == UNCOLORED:
                    d += 1
                elif c >= 0:
                    mask |= 1 << c
            seen[u] = mask
            codes[u] = _code(state.cfg, d, state.cfg.p - mask.bit_count())
    state.type_counts[:] = counts
    del state.fresh_reds[reds_before:]
    base = state.cfg.p + 1
    record = CascadeRecord(v, state.vertex_type(v), total_colored=len(engine.log))
    gen: dict[int, int] = {}
    for u, code in engine.log:
        g = gen[u] = gen[engine._reducer[u]] + 1 if u != v else 0
        while len(record.generations) <= g:
            record.generations.append({})
        t = VertexType(*divmod(code, base))
        record.generations[g][t] = record.generations[g].get(t, 0) + 1
    return record


def run_phase1(state: ColoringState, tuning: TuningParams, steps: int,
               modified: bool = False) -> tuple[list[StepReport], list[TypeDistribution]]:
    """Apply `steps` greedy steps (each followed by buffer rounds in modified
    mode), then check the whole state.  Returns the step reports and the
    empirical type distribution before any step and after each step."""
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    reports: list[StepReport] = []
    dists = [state.empirical_distribution()]
    for _ in range(steps):
        report = greedy_step(state, tuning)
        if modified:
            report.buffer = buffer_rounds(state)
        reports.append(report)
        dists.append(state.empirical_distribution())
    state.check_invariants()
    return reports, dists


def _ball3_uncolored(state: ColoringState,
                     reds: list[int]) -> tuple[list[int], dict[int, int]]:
    """Uncolored vertices within graph distance 3 of the given reds, each
    labelled by the red whose breadth-first wave reached it first."""
    g = state.graph
    frontier = sorted(int(v) for v in reds)
    dist = dict.fromkeys(frontier, 0)
    owner = {v: v for v in frontier}
    for depth in range(1, 4):
        nxt = []
        for v in frontier:
            for u in g.neighbors(v).tolist():
                if u not in dist:
                    dist[u] = depth
                    owner[u] = owner[v]
                    nxt.append(u)
        frontier = nxt
    targets = sorted(u for u, d in dist.items()
                     if d > 0 and state.color[u] == UNCOLORED)
    return targets, owner


def _starvation_guards(state: ColoringState, sub: list[int]) -> list[int]:
    """Uncolored vertices outside `sub` with at least as many neighbors in it
    as they have available colors — a bulk commit could erase their lists."""
    vset = set(sub)
    borders: dict[int, int] = {}
    for v in sub:
        for u in state.graph.neighbors(v).tolist():
            if u not in vset and state.color[u] == UNCOLORED:
                borders[u] = borders.get(u, 0) + 1
    base = state.cfg.p + 1
    return sorted(u for u, k in borders.items()
                  if k >= int(state.type_code[u]) % base)


def _commit_component(engine: _RoundEngine, comp: list[int],
                      report: BufferReport | CompletionReport) -> bool:
    """List-color `comp` from its available colors, or make it all RED if the
    solver fails, and commit it in bulk; returns whether it was colored.  The
    component, and a failure with its new reds, are tallied on `report`.
    Bulk commits earn no rule-3 credit (touch=False): an outside vertex
    bordering one component twice is itself a cycle artifact."""
    state = engine.state
    lists = {v: state.available_colors(v) for v in comp}
    status, assignment = color_component(state.graph, comp, lists)
    colored = status == COLORED
    for v in comp:
        engine.commit(v, assignment[v] if colored else RED, touch=False)
    report.components += 1
    if not colored:
        report.failures += 1
        report.red_created += len(comp)
    return colored


def buffer_rounds(state: ColoringState) -> BufferReport:
    """Modified-mode relief: repeatedly list-color the uncolored vertices
    within distance 3 of red vertices until no red has any.  Components are
    committed in bulk and may force cascades at their boundaries, run as in
    a greedy step but with collisions scoped by lineage: only cascades
    serving different red clusters can meet without closing a cycle on a
    tree, so only those collisions make new reds here.  Infeasible or
    over-budget components turn red wholesale (counted, not fatal).

    Each round searches only from the reds made since the last round
    (`state.fresh_reds`): when a call ends no older red has an uncolored
    vertex within distance 3, and steps only ever color vertices, so no
    older red's wave could reach a target first or lie on a path to one."""
    report = BufferReport()
    while True:
        reds, state.fresh_reds = state.fresh_reds, []
        if not reds:
            break
        targets, owner = _ball3_uncolored(state, reds)
        if not targets:
            break
        pieces = connected_components(state.graph, targets)

        # Reds meeting a common piece form one cluster: every cascade the
        # piece forces traces back to all of them at once.
        parent: dict[int, int] = {}

        def find(a: int) -> int:
            while parent.setdefault(a, a) != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        roots = []
        for piece in pieces:
            owners = sorted({owner[v] for v in piece})
            for o in owners[1:]:
                parent[find(o)] = find(owners[0])
            roots.append(owners[0])

        round_report = StepReport()
        engine = _RoundEngine(state, round_report, scoped=True)
        colored_this_round = 0
        for piece, root in zip(pieces, roots):
            prov = find(root)
            live = [v for v in piece if state.color[v] == UNCOLORED]
            if not live:
                continue
            for sub in connected_components(state.graph, live):
                # An outside vertex bordering the component as many times as
                # it has colors left could be starved by the commit (on a
                # tree it borders once and can lose only one).  Absorb such
                # vertices so the solver keeps them viable.
                sub = sub + _starvation_guards(state, sub)
                for v in sub:
                    engine.cascade_of[v] = prov
                if _commit_component(engine, sub, report):
                    colored_this_round += len(sub)
                engine.run_rounds([])
        colored_this_round += round_report.rule1 + round_report.rule2
        report.red_created += round_report.rule3 + round_report.rule4
        report.colored_per_round.append(colored_this_round)
        report.rounds += 1
        state.check_invariants(around=engine.committed, rows=engine._rows)
    return report


def uncolored_components(state: ColoringState) -> list[list[int]]:
    """Connected components of the uncolored subgraph, each sorted."""
    return connected_components(state.graph, np.flatnonzero(state.color == UNCOLORED).tolist())


def complete_remainder(state: ColoringState,
                       components: list[list[int]] | None = None) -> CompletionReport:
    """Phase 2: properly color every remaining uncolored component from its
    available lists with the exact list-coloring search (which never
    backtracks on a tree, as every list has at least two colors); failures
    turn the component red and are counted.  `components` are the state's
    `uncolored_components`, for a caller that has found them already."""
    report = CompletionReport()
    components = uncolored_components(state) if components is None else components
    if not components:
        return report
    engine = _RoundEngine(state, StepReport())
    for comp in components:
        if _commit_component(engine, comp, report):
            report.colored += len(comp)
    state.check_invariants()
    return report


def tidy_to_proper(state: ColoringState) -> TidyReport:
    """Erase the closed neighborhood of every red vertex and recolor it from
    restricted lists: previously non-red vertices may keep their old color or
    take the extra color; previously red vertices choose from the whole
    palette plus extra, minus whatever colored neighbors they still see.
    The result is a total coloring in palette + extra."""
    if (state.color == UNCOLORED).any():
        raise ConfigurationError("tidy-up requires a fully colored state")
    extra = state.cfg.p
    reds = np.nonzero(state.color == RED)[0].tolist()
    report = TidyReport(red_before=len(reds))
    if not reds:
        return report

    color, _, _, ptr, adj = state.views
    region: set[int] = set(reds)
    for v in reds:
        region.update(adj[ptr[v]:ptr[v + 1]].tolist())
    report.erased = len(region)
    prev = {v: color[v] for v in region}
    for v in region:
        color[v] = UNCOLORED

    palette = tuple(range(state.cfg.p))
    lists: dict[int, tuple[int, ...]] = {}
    for v in region:
        if prev[v] == RED:
            seen = {color[u] for u in adj[ptr[v]:ptr[v + 1]].tolist()} - {UNCOLORED}
            lists[v] = tuple(c for c in palette if c not in seen) + (extra,)
        else:
            lists[v] = (prev[v], extra)

    for comp in connected_components(state.graph, sorted(region)):
        status, assignment = color_component(state.graph, comp, lists)
        if status == COLORED:
            for v in comp:
                color[v] = assignment[v]
        else:
            # fallback: old colors were proper off red, so restoring them and
            # painting the reds extra can only clash where red met red
            report.failures += 1
            for v in comp:
                color[v] = extra if prev[v] == RED else prev[v]
    return report


def verify_proper(g: Graph, colors: np.ndarray) -> ProperReport:
    """Exhaustive edge scan of `colors` on `g`.  Red and extra count as
    ordinary colors; a red-red edge is reported separately (legal mid-run, a
    violation in final output)."""
    cu = colors[g.edges_u]
    equal = (cu == colors[g.edges_v]) & (cu != UNCOLORED)

    def pairs(mask: np.ndarray) -> list[tuple[int, int]]:
        return list(zip(g.edges_u[mask].tolist(), g.edges_v[mask].tolist()))

    return ProperReport(violations=pairs(equal & (cu != RED)), red_red=pairs(equal & (cu == RED)))
