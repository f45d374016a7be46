"""Finite graphs the coloring process runs on, their text formats, and the row formatter.

Random regular graphs come from the configuration model (pairing half-edges,
then repairing self-loops and parallel edges with degree-preserving edge
swaps).  Balls in the regular tree are available for branch-independence
experiments; their degree-1 boundary, `Graph.boundary`, distorts type
statistics, so the type distribution leaves it out; other graphs have none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, GenerationError, read_text

MAX_REPAIR_SWEEPS = 1000
# Vertices any graph may have.  Every generator and the fixture parser check
# it before they allocate; a fixture's isolated vertices need no line, so the
# file's length does not bound its arrays either.
MAX_N = 10 ** 8


@dataclass
class Graph:
    """Undirected graph in CSR form plus a flat edge list (u < v per edge)."""

    n: int
    r: int  # degree of regular vertices / maximum degree for fixtures
    indptr: np.ndarray
    indices: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray
    boundary: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def m(self) -> int:
        return len(self.edges_u)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _make_graph(n: int, r: int, eu: np.ndarray, ev: np.ndarray,
                boundary: np.ndarray | None = None) -> Graph:
    """The graph of the simple pairs (eu, ev), in either orientation: CSR rows
    sorted, and the edge list read off them as the entries u < v."""
    # one key per directed edge, head * n + tail: n <= MAX_N fits int64
    keys = np.sort(np.concatenate([eu * n + ev, ev * n + eu], dtype=np.int64))
    heads, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    upper = heads < indices
    return Graph(
        n=n, r=r, indptr=indptr, indices=indices, edges_u=heads[upper], edges_v=indices[upper],
        boundary=np.empty(0, dtype=np.int64) if boundary is None else boundary,
    )


def gen_regular_graph(n: int, r: int, seed: int) -> Graph:
    """Simple r-regular graph on n vertices from the configuration model.

    The pairing is repaired rather than resampled wholesale: offending pairs
    (self-loops, duplicates) are rewired against randomly chosen good edges
    until the graph is simple.  This keeps the degree sequence exact, stays
    deterministic given the seed, and avoids the exponentially small
    acceptance rate of full restarts at higher degrees.
    """
    if r < 1:
        raise ConfigurationError(f"degree must be >= 1, got {r}")
    if n > MAX_N:
        raise ConfigurationError(f"n={n} exceeds the maximum {MAX_N}")
    if n <= r:
        raise ConfigurationError(f"need n > r, got n={n}, r={r}")
    if (n * r) % 2 != 0:
        raise ConfigurationError(f"n*r must be even, got n={n}, r={r}")
    if seed < 0:
        raise ConfigurationError(f"graph seed must be nonnegative, got {seed}")

    rng = np.random.default_rng(seed)
    points = np.repeat(np.arange(n, dtype=np.int64), r)
    rng.shuffle(points)
    eu = points[0::2].copy()
    ev = points[1::2].copy()

    def key(a: int, b: int) -> int:
        # the edge's entry in `keys`: lower endpoint times n plus the higher
        return a * n + b if a < b else b * n + a

    m = len(eu)
    # A pairing is bad if it is a self-loop or repeats an earlier pairing.
    # Repeats are rare: only the pairings at a repeated key need a look.
    keys = np.minimum(eu, ev) * n + np.maximum(eu, ev)
    ordered = np.sort(keys)
    is_bad = np.isin(keys, ordered[1:][ordered[1:] == ordered[:-1]])
    at = np.flatnonzero(is_bad)
    is_bad[at[np.unique(keys[at], return_index=True)[1]]] = False  # each key's first stays
    is_bad |= eu == ev
    bad: list[int] = np.flatnonzero(is_bad).tolist()
    # The edges are the sorted keys, less `removed`, plus `added`.  No
    # self-loop key is ever asked for, and a repeated key has a good pairing.
    added: set[int] = set()
    removed: set[int] = set()

    def present(k: int) -> bool:
        if k in added:
            return True
        i = int(np.searchsorted(ordered, k))
        return i < m and ordered[i] == k and k not in removed

    sweeps = 0
    while bad:
        sweeps += 1
        if sweeps > MAX_REPAIR_SWEEPS:
            raise GenerationError(
                f"could not repair pairing after {MAX_REPAIR_SWEEPS} sweeps"
            )
        still_bad: list[int] = []
        for i in bad:
            fixed = False
            for _ in range(20):
                j = int(rng.integers(m))
                if j == i or j in bad or j in still_bad:
                    continue
                # swap partners: (a,b),(x,y) -> (a,x),(b,y)
                a, b = int(eu[i]), int(ev[i])
                x, y = int(eu[j]), int(ev[j])
                na, nb = key(a, x), key(b, y)
                if a == x or b == y or present(na) or present(nb) or na == nb:
                    continue
                gone = key(x, y)
                added.discard(gone)
                removed.add(gone)
                eu[i], ev[i] = a, x
                eu[j], ev[j] = b, y
                added.add(na)
                added.add(nb)
                fixed = True
                break
            if not fixed:
                still_bad.append(i)
        bad = still_bad
    del points, keys, ordered, is_bad  # let the CSR build below reuse their memory

    graph = _make_graph(n, r, eu, ev)
    degs = graph.degrees()
    if not np.all(degs == r):
        raise GenerationError("internal: repaired pairing is not regular")
    return graph


def gen_tree_ball(r: int, radius: int) -> Graph:
    """Ball of the given radius in the r-regular tree: internal vertices have
    degree r, leaves at the boundary have degree 1.  Canonically labeled, so
    no randomness is involved."""
    if r < 2:
        raise ConfigurationError(f"tree ball needs r >= 2, got {r}")
    if radius < 1:
        raise ConfigurationError(f"tree ball needs radius >= 1, got {radius}")
    size, level = 1, r
    for _ in range(radius):
        size, level = size + level, level * (r - 1)
        if size > MAX_N:
            raise ConfigurationError(
                f"tree ball: radius={radius} gives more than {MAX_N} vertices")
    # Breadth-first labels: the root's children are 1..r and every later
    # internal vertex has r-1.  `level` is now the size of the level past the
    # boundary, so the boundary is the last level // (r-1) labels.
    internal = size - level // (r - 1)
    parents = np.concatenate([np.zeros(r, dtype=np.int64),
                              np.repeat(np.arange(1, internal, dtype=np.int64), r - 1)])
    return _make_graph(size, r, parents, np.arange(1, size, dtype=np.int64),
                       boundary=np.arange(internal, size, dtype=np.int64))


def int_fields(source: str, line: str, tokens: list[str],
               names: tuple[str, ...]) -> list[int]:
    """Integer fields of one input line; a bad token is reported by its name."""
    values = []
    for name, token in zip(names, tokens):
        try:
            values.append(int(token))
        except ValueError:
            raise ConfigurationError(
                f"{source}: {name} must be an integer, got {token!r} in {line!r}"
            ) from None
    return values


def parse_fixture(text: str) -> tuple[Graph, list[tuple[int, int]]]:
    """Parse the hand-built fixture format: first line "n r" (n at most
    `MAX_N`), one line per edge "u v", then optional "color v c"
    lines presetting palette colors."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigurationError("fixture: empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigurationError(f"fixture: bad header {lines[0]!r}")
    n, r = int_fields("fixture", lines[0], head, ("n", "r"))
    if n <= 0 or r <= 0:
        raise ConfigurationError("fixture: n and r must be positive")
    if n > MAX_N:
        raise ConfigurationError(f"fixture: n={n} exceeds the maximum {MAX_N}")
    eu: list[int] = []
    ev: list[int] = []
    presets: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "color":
            if len(parts) != 3:
                raise ConfigurationError(f"fixture: bad color line {ln!r}")
            v, c = int_fields("fixture", ln, parts[1:], ("color vertex", "color"))
            if not (0 <= v < n):
                raise ConfigurationError(f"fixture: color vertex {v} out of range")
            presets.append((v, c))
            continue
        if len(parts) != 2:
            raise ConfigurationError(f"fixture: bad edge line {ln!r}")
        u, v = int_fields("fixture", ln, parts, ("edge endpoint", "edge endpoint"))
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigurationError(f"fixture: edge {u} {v} out of range")
        if u == v:
            raise ConfigurationError(f"fixture: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ConfigurationError(f"fixture: duplicate edge {u} {v}")
        seen.add(key)
        eu.append(u)
        ev.append(v)
    graph = _make_graph(
        n, r, np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64))
    degs = graph.degrees()
    if len(degs) and degs.max() > r:
        raise ConfigurationError(
            f"fixture: vertex {int(degs.argmax())} has degree {int(degs.max())} > r={r}"
        )
    return graph, presets


def format_rows(template: str, *columns) -> Iterator[str]:
    """The rows of `columns` (1-D, or 2-D for a block of columns) as text
    chunks: 16,384 rows to one row template such as "%d %d\n" or "%r,%r\n",
    not one string per row.  Values reach the template as Python numbers, so
    `%r` writes a float's shortest round-trip spelling, and `%d` is exact in
    a float table below 2^53."""
    for a in range(0, len(columns[0]), 16384):
        block = np.column_stack([c[a:a + 16384] for c in columns])
        yield template * len(block) % tuple(block.ravel().tolist())


def write_fixture(graph: Graph, presets: list[tuple[int, int]] | None = None) -> str:
    preset = np.array(presets or [], dtype=object).reshape(-1, 2)  # a color is any integer
    return "".join([f"{graph.n} {graph.r}\n",
                    *format_rows("%d %d\n", graph.edges_u, graph.edges_v),
                    *format_rows("color %d %d\n", preset)])


def write_coloring(graph: Graph, colors: np.ndarray, p: int, path: str) -> None:
    """Dump a finished coloring of `graph`: header "n r p", then one "v c"
    line per vertex.  Every color must lie in 0..p (the palette and the
    extra color p), the rule `read_coloring` checks; the first vertex
    outside it is refused by name."""
    bad = np.flatnonzero((colors < 0) | (colors > p))
    if len(bad):
        v = int(bad[0])
        raise ConfigurationError(
            f"refusing to dump: vertex {v} has color {int(colors[v])}, outside 0..{p}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.r} {p}\n")
        fh.writelines(format_rows("%d %d\n", np.arange(graph.n), colors))


def read_coloring(path: str) -> tuple[int, int, int, np.ndarray]:
    """Read a coloring dump; returns (n, r, p, colors).  Every vertex must be
    listed once with a color in 0..p, the rule `write_coloring` keeps."""
    lines = [ln.strip() for ln in read_text(path, ConfigurationError).splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ConfigurationError("coloring dump: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise ConfigurationError(f"coloring dump: bad header {lines[0]!r}")
    n, r, p = int_fields("coloring dump", lines[0], head, ("n", "r", "p"))
    if n < 0 or r < 0 or not 2 <= p <= np.iinfo(np.int16).max:
        raise ConfigurationError(f"coloring dump: bad header {lines[0]!r}")
    if len(lines) - 1 != n:
        raise ConfigurationError(
            f"coloring dump: header n={n} but {len(lines) - 1} vertex lines"
        )
    colors = np.full(n, -1, dtype=np.int16)  # -1: not listed yet
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigurationError(f"coloring dump: bad line {ln!r}")
        v, c = int_fields("coloring dump", ln, parts, ("vertex", "color"))
        if not (0 <= v < n):
            raise ConfigurationError(f"coloring dump: vertex {v} out of range")
        if not (0 <= c <= p):
            raise ConfigurationError(f"coloring dump: color {c} out of range")
        if colors[v] != -1:
            raise ConfigurationError(f"coloring dump: vertex {v} listed twice")
        colors[v] = c
    return n, r, p, colors
