"""Polynomial minimum-alliance search for graphs of maximum degree five.

With maximum degree five every cycle is an alliance, and so is every path
between two vertices of degree at most three.  Each root v offers up to
three shapes: v alone (degree at most one), a shortest path from v to the
nearest other vertex of degree at most three (degree two or three), and a
shortest cycle through v.  The global answer is the smallest key (size,
rank, witness) over every root and shape, where the rank is 0 for a
singleton, 1 for a path and 2 for a cycle.

`solve_min_alliance_lowdeg` finds that key without computing every shape at
every root.  Keys of size one and two are read off the degrees by
`alliances.degree_alliance`, the step `solve --algo auto` also takes on
graphs of larger maximum degree: the least vertex of degree at most one,
else the least edge whose two ends both have degree at most three.  Only
when neither exists does it search: pass 1 takes the path candidate of
every root, each root's BFS stopping at the end of the first level that
holds a vertex of degree at most three, and pass 2 takes the shortest cycle
through each root from one branch-labelled BFS cut off at the length that
can still win.  Past its time limit the search raises BudgetExceeded.
"""

from __future__ import annotations

from time import monotonic

from .alliances import (
    AllianceSolution,
    BudgetExceeded,
    InternalVerificationError,
    checked_alliance,
    degree_alliance,
)
from .graphs import Graph, shortest_cycle_with_vertices


class DegreeBoundError(ValueError):
    """The graph has a vertex of degree more than five."""


def _check_lowdeg_input(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("the empty graph has no alliance")
    if g.max_degree() > 5:
        raise DegreeBoundError(
            f"maximum degree {g.max_degree()} exceeds the bound of five"
        )
    if g.forbidden:
        raise ValueError("the low-degree solver does not support forbidden vertices")


def _nearest_low_path(g: Graph, v: int) -> list[int] | None:
    """A shortest path from v to the least of its nearest other vertices of
    degree at most three, or None if v reaches no such vertex.

    One BFS from v, level by level, that records first-discovery parents
    and stops at the end of the first level holding a vertex x != v of
    degree at most three; x is the least such vertex of that level.  Levels
    are distance classes, so x is min((dist[x], x)) over every such vertex
    v reaches, the vertex a full BFS from v would pick.  The scan order
    (vertices by discovery, neighbours ascending) is that of a full BFS with
    the smallest-parent tie-break, and a parent is set once, at discovery,
    so walking the parents back from x gives the path such a BFS from v to x
    returns (`nearest_low_path_by_full_bfs` in `tests/_oracles.py`).
    """
    parent = {v: v}
    level = [v]
    while level:
        nxt = []
        for x in level:
            for y in g.adj[x]:
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        low = [y for y in nxt if len(g.adj[y]) <= 3]
        if low:
            x = min(low)
            path = [x]
            while x != v:
                x = parent[x]
                path.append(x)
            path.reverse()
            return path
        level = nxt
    return None


def solve_min_alliance_lowdeg(
    g: Graph, *, time_limit: float | None = None
) -> AllianceSolution:
    """Minimum defensive alliance of a graph with maximum degree five.

    A minimum alliance S induces a connected subgraph, so it lies in one
    component, and no search below leaves the component of its root.  If S
    holds a cycle, the shortest-cycle candidate at a vertex of that cycle is
    no larger than S.  Otherwise it induces a tree.  A one-vertex tree is a
    vertex of degree at most one, the singleton candidate.  A larger tree has
    two leaves, each with one defender inside, hence of degree at most three;
    the path between them in the tree is an alliance no larger than S, so
    the singleton or path candidate at either leaf is no larger.  The best
    candidate over all roots is therefore exact.

    The answer is the smallest key (size, rank, witness) over every root
    and candidate.  The check on the degrees, `degree_alliance`, comes first:

    - A vertex of degree at most one gives the key (1, 0, (v,)), and no other
      key has size one, so the least such vertex is the answer.
    - Otherwise the keys of size two are path keys (rank 1), since every
      cycle has at least three vertices: edges whose ends both have degree at
      most three.  The least such edge (u, w), u < w, is the path candidate at
      root u: u has no such neighbour below itself, or a smaller edge would
      exist, so w is the least vertex of degree at most three in the first
      BFS level from u, where `_nearest_low_path` stops.  That edge is the
      answer, which settles every cubic graph without a BFS.

    Only when neither check fires does the search run, in two passes.  Pass 1
    takes the path candidate of every root, from one BFS per root that stops
    at the end of the first level holding a vertex of degree at most three
    (`_nearest_low_path`).  A cycle (rank 2) of length L beats the best key
    so far only if L is below its size, or equal to it when that key is a
    cycle too, so no cycle longer than `bound` can win.  Pass 2 asks every
    root for its shortest cycle of length at most `bound`
    (`shortest_cycle_with_vertices`, whose answer within the bound depends on
    (g, root) alone), so the answer is the best key over every root.

    Candidates are compared by key alone: only the answer is checked, by
    `checked_alliance`, and one that fails raises InternalVerificationError.

    With a `time_limit`, the clock is read once per root of either pass;
    past the limit the search raises BudgetExceeded with `lower_bound` 3 (the
    check on the degrees found no smaller alliance) and the best key so far
    as the incumbent, checked by `checked_alliance`, or None.
    """
    _check_lowdeg_input(g)
    found = degree_alliance(g)
    if found is not None:
        return checked_alliance(g, found, "lowdeg answer")
    deadline = None if time_limit is None else monotonic() + time_limit
    best = None

    def check_clock(stage: str) -> None:
        if deadline is not None and monotonic() > deadline:
            raise BudgetExceeded(
                f"time limit exceeded in lowdeg {stage}",
                alliance=None if best is None else checked_alliance(g, best[2], "lowdeg incumbent"),
                lower_bound=3,
            )

    # no vertex of degree <= 1 is left, so every low root is a path root
    for v in range(g.n):
        if g.degree(v) <= 3:
            check_clock("pass 1")
            path = _nearest_low_path(g, v)
            if path is not None:
                key = (len(path), 1, tuple(sorted(path)))
                best = key if best is None else min(best, key)
    bound = g.n if best is None else best[0] - 1
    if bound >= 3:  # no cycle is shorter
        for v in range(g.n):
            check_clock("pass 2")
            cyc = shortest_cycle_with_vertices(g, v, bound)
            if cyc is not None:
                key = (cyc[0], 2, cyc[1])
                best = key if best is None else min(best, key)
                bound = best[0]
    if best is None:
        raise InternalVerificationError("no root produced a candidate")
    return checked_alliance(g, best[2], "lowdeg answer")
