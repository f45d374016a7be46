"""Proper list-coloring of small vertex sets.

Components that are trees are colored greedily root-to-leaf, which never
blocks when every list has at least two colors.  Anything with a cycle goes
through exact backtracking under a node budget; exceeding the budget or
proving infeasibility is reported, not raised.
"""

from __future__ import annotations

from collections import deque

DEFAULT_BUDGET = 10 ** 6

COLORED = "colored"
INFEASIBLE = "infeasible"
BUDGET = "budget"


def induced_edges(graph, vertices: list[int]) -> list[tuple[int, int]]:
    vset = set(vertices)
    out = []
    for v in vertices:
        for u in graph.neighbors(v):
            u = int(u)
            if u in vset and v < u:
                out.append((v, u))
    return out


def connected_components(graph, vertices) -> list[list[int]]:
    """Components of the subgraph induced on `vertices`, each sorted."""
    vset = set(int(v) for v in vertices)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(vset):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.neighbors(v):
                u = int(u)
                if u in vset and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def color_component(
    graph,
    vertices: list[int],
    lists: dict[int, tuple[int, ...]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[str, dict[int, int]]:
    """Properly color one connected set of vertices from their lists.

    Returns (status, assignment); assignment is empty unless status is
    "colored".  Trees are solved greedily; cyclic components by exact
    backtracking visiting at most `budget` search nodes.
    """
    edges = induced_edges(graph, vertices)
    if len(edges) == len(vertices) - 1:
        return _tree_greedy(graph, vertices, lists)
    return _backtrack(vertices, edges, lists, budget)


def _tree_greedy(graph, vertices: list[int], lists) -> tuple[str, dict[int, int]]:
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
            return INFEASIBLE, {}
        assignment[v] = choice
        for u in graph.neighbors(v):
            u = int(u)
            if u in vset and u not in seen:
                seen.add(u)
                parent_color[u] = choice
                queue.append(u)
    return COLORED, assignment


class _BudgetExceeded(Exception):
    pass


def _bfs_order(vertices: list[int], nbrs_of) -> list[int]:
    seen = {vertices[0]}
    order = [vertices[0]]
    queue = deque(order)
    while queue:
        v = queue.popleft()
        for u in nbrs_of(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
    return order


def _backtrack(vertices, edges, lists, budget: int) -> tuple[str, dict[int, int]]:
    """Exact search with unit propagation: each assignment prunes neighbor
    domains, and domains of size one are assigned immediately.  With the
    2-color lists these components typically carry, propagation makes even
    long cycles near-linear."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order = _bfs_order(sorted(vertices), lambda v: sorted(adj[v]))
    pos = {v: i for i, v in enumerate(order)}
    k = len(order)
    nbrs = [sorted(pos[u] for u in adj[v]) for v in order]
    prefs = [tuple(dict.fromkeys(lists[v])) for v in order]
    if any(not pf for pf in prefs):
        return INFEASIBLE, {}
    domains = [set(pf) for pf in prefs]
    assigned: list[int | None] = [None] * k
    trail: list[tuple] = []  # ("a", i) assignment | ("p", j, c) domain prune
    nodes = 0

    def do_assign(i: int, c: int, queue: deque) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        assigned[i] = c
        trail.append(("a", i))
        for j in nbrs[i]:
            if assigned[j] is None and c in domains[j]:
                domains[j].discard(c)
                trail.append(("p", j, c))
                if not domains[j]:
                    return False
                if len(domains[j]) == 1:
                    queue.append(j)
        return True

    def try_color(i: int, c: int) -> bool:
        queue: deque = deque()
        if not do_assign(i, c, queue):
            return False
        while queue:
            j = queue.popleft()
            if assigned[j] is not None:
                continue
            if not do_assign(j, next(iter(domains[j])), queue):
                return False
        return True

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "a":
                assigned[entry[1]] = None
            else:
                domains[entry[1]].add(entry[2])

    stack: list[tuple[int, tuple[int, ...], int, int]] = []  # (var, tries, next_idx, trail mark)
    try:
        while True:
            var = next((i for i in range(k) if assigned[i] is None), None)
            if var is None:
                return COLORED, {order[i]: int(assigned[i]) for i in range(k)}
            tries = tuple(c for c in prefs[var] if c in domains[var])
            mark = len(trail)
            ok = try_color(var, tries[0])
            stack.append((var, tries, 1, mark))
            while not ok:
                if not stack:
                    return INFEASIBLE, {}
                var, tries, idx, mark = stack.pop()
                unwind(mark)
                if idx < len(tries):
                    ok = try_color(var, tries[idx])
                    stack.append((var, tries, idx + 1, mark))
    except _BudgetExceeded:
        return BUDGET, {}
