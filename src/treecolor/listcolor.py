"""Proper list-coloring of small vertex sets.

One exact search colors every component: it walks the vertices in
breadth-first order, and each assignment prunes its neighbors' lists, so a
vertex left with one color takes it at once.  On a tree a vertex then sees
only its parent's color, so the search takes the first listed color that
differs from it and never backtracks when every list has two colors.  The
node budget starts counting at the first dead end; exceeding it or proving
infeasibility is reported, not raised.
"""

from __future__ import annotations

from collections import deque

DEFAULT_BUDGET = 10 ** 6

COLORED = "colored"
INFEASIBLE = "infeasible"
BUDGET = "budget"


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
            for u in graph.neighbors(v).tolist():
                if u in vset and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


class _BudgetExceeded(Exception):
    pass


def _bfs_order(vertices: list[int], adj: dict[int, list[int]]) -> list[int]:
    seen = {vertices[0]}
    order = [vertices[0]]
    queue = deque(order)
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
    return order


def color_component(
    graph,
    vertices: list[int],
    lists: dict[int, tuple[int, ...]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[str, dict[int, int]]:
    """Properly color one connected set of vertices from their lists.

    Returns (status, assignment); assignment is empty unless status is
    "colored".  The search is exact.  `budget` bounds the search nodes
    visited after the first dead end, so a component that never needs to
    backtrack (a tree whose lists have two or more colors) never exceeds it.
    """
    vset = set(vertices)
    adj = {v: sorted(u for u in graph.neighbors(v).tolist() if u in vset)
           for v in vertices}
    order = _bfs_order(sorted(vertices), adj)
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
    backtracked = False

    def do_assign(i: int, c: int, queue: deque) -> bool:
        nonlocal nodes
        nodes += backtracked  # the budget counts from the first dead end
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

    # (var, tries, next_idx, trail mark); every variable before `var` is
    # assigned, so the next one is searched for from `var` on
    stack: list[tuple[int, tuple[int, ...], int, int]] = []
    var = 0
    try:
        while True:
            while var < k and assigned[var] is not None:
                var += 1
            if var == k:
                return COLORED, {order[i]: int(assigned[i]) for i in range(k)}
            tries = tuple(c for c in prefs[var] if c in domains[var])
            mark = len(trail)
            ok = try_color(var, tries[0])
            stack.append((var, tries, 1, mark))
            while not ok:
                backtracked = True
                if not stack:
                    return INFEASIBLE, {}
                var, tries, idx, mark = stack.pop()
                unwind(mark)
                if idx < len(tries):
                    ok = try_color(var, tries[idx])
                    stack.append((var, tries, idx + 1, mark))
    except _BudgetExceeded:
        return BUDGET, {}
