"""Immutable undirected graphs plus the exact BFS and cycle primitives the solvers need.

Vertices are 0..n-1.  A graph may mark some vertices as *forbidden*: they keep
their edges (and therefore count toward degrees) but solvers must never place
them inside an alliance.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

UNREACHABLE = -1


class GraphError(ValueError):
    """Base class for graph construction problems."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """The fields: `n` vertices, `m` edges, `adj[v]` v's neighbours in
    ascending order, the `forbidden` set and `top_degree`, the largest
    degree, counted once when the graph is built.

    Two views are derived from `adj` on first use and are no fields, so
    equality and hashing see only the fields.  `edges` is every pair (u, v)
    with u < v, in ascending order; its one reader in the package is
    `params.twin_cover_set` (`emit_dimacs` writes from `adj`).
    `build_graph` and the DIMACS line parser already hold that list and
    seed it; the DIMACS fast path and `_from_neighbour_sets`, which builds
    the generated graphs, leave it unbuilt.  `masks[v]` is v's
    neighbourhood as an int, bit u set when u is a neighbour.  Its readers
    are `has_edge`, the twin-cover search and partition in `params`, brute
    force and `reduction`'s domination test; `lowdeg`, `search`,
    `verify_alliance` and the `dtc` route never build it."""

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]
    forbidden: frozenset[int]
    top_degree: int

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

    @functools.cached_property
    def masks(self) -> tuple[int, ...]:
        bits = [1 << v for v in range(self.n)]
        return tuple(sum(map(bits.__getitem__, nbrs)) for nbrs in self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def max_degree(self) -> int:
        return self.top_degree


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    forbidden: Iterable[int] = (),
) -> Graph:
    """Validate and freeze a graph.

    Rejects self-loops, duplicate edges (regardless of endpoint order) and
    out-of-range endpoints, each with its own error type.
    """
    if n < 0:
        raise VertexRangeError(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in edge_list:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        edges.append(e)
    forbidden = frozenset(forbidden)
    bad = [v for v in forbidden if not (0 <= v < n)]
    if bad:
        raise VertexRangeError(f"forbidden vertex {bad[0]} out of range for n={n}")
    return _freeze(n, edges, forbidden)


def _freeze(n: int, edges: list[tuple[int, int]], forbidden: Iterable[int]) -> Graph:
    """The graph on already validated edges (u < v, in range, no repeats).

    Sorting the edges once leaves every adjacency list sorted: vertex w
    receives its neighbours a < w from the edges (a, w) in increasing a,
    all before the edges (w, b), which follow in increasing b.  The sorted
    list is what `Graph.edges` derives, so it is seeded into the graph.
    """
    edges.sort()
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    g = _from_neighbours(n, len(edges), neigh, forbidden)
    vars(g)["edges"] = tuple(edges)
    return g


def _from_neighbour_sets(neigh: list[set[int]]) -> Graph:
    """The graph on vertices 0..n-1, n = len(neigh), whose vertex v has the
    neighbours `neigh[v]`: the constructor for graphs the package builds
    itself.

    The sets must be filled by paired adds (v into `neigh[u]` together with
    u into `neigh[v]`), which makes them symmetric and free of repeats by
    construction, so neither is checked.  What is checked costs O(n) once
    the lists are sorted: a self-loop raises SelfLoopError, an id outside
    0..n-1 VertexRangeError, as in `build_graph`.
    """
    n = len(neigh)
    lists = [sorted(nbrs) for nbrs in neigh]
    for v, nbrs in enumerate(lists):
        if v in neigh[v]:
            raise SelfLoopError(f"self-loop at vertex {v}")
        if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n):
            u = nbrs[0] if nbrs[0] < 0 else nbrs[-1]
            raise VertexRangeError(f"edge ({v}, {u}) out of range for n={n}")
    return _from_neighbours(n, sum(map(len, lists)) // 2, lists, ())


def _from_neighbours(
    n: int, m: int, neigh: list[list[int]], forbidden: Iterable[int]
) -> Graph:
    """The graph whose sorted adjacency lists `neigh` hold m edges."""
    return Graph(
        n=n,
        m=m,
        adj=tuple(map(tuple, neigh)),
        forbidden=frozenset(forbidden),
        top_degree=max(map(len, neigh), default=0),
    )


def distances_from(g: Graph, v: int) -> list[int]:
    """BFS distances from v; unreachable vertices get UNREACHABLE (-1)."""
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    dist = [UNREACHABLE] * g.n
    dist[v] = 0
    q = deque([v])
    while q:
        x = q.popleft()
        for y in g.adj[x]:
            if dist[y] == UNREACHABLE:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return distances_from(g, 0).count(UNREACHABLE) == 0


def shortest_cycle_with_vertices(
    g: Graph, v: int, bound: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Shortest simple cycle containing v, as (length, sorted vertex tuple),
    or None if no cycle passes through v.  With a `bound`, None also when
    every cycle through v is longer than `bound`.

    One BFS from v labels every vertex with the neighbour of v it descends
    from (Itai & Rodeh, "Finding a minimum circuit in a graph", 1978).  An
    edge (x, y) whose endpoints carry different labels closes a cycle through
    v of length dist[x] + dist[y] + 1: v and the two first-discovery tree
    paths v..x and v..y, which lie in different branches and so meet only at
    v.  The length is exact: walking the shortest cycle from one neighbour of
    v to the other, some edge changes label, and the cycle it closes is no
    longer.  Edges towards shallower vertices were scanned from their other
    end, so a cycle closed at x has length at least 2 * dist[x] + 1, and the
    BFS stops once that reaches the best length so far, or exceeds `bound`.
    A cycle within the bound is closed before the stop, so the bound changes
    no answer it lets through.  The BFS state is kept in dicts, so a BFS cut
    short costs only the vertices it reached.

    Tie-break: the witness is the cycle closed by the first edge, in BFS scan
    order (vertices by discovery, neighbours ascending), that reaches the
    minimum length.  It is not the lexicographically smallest such cycle.
    """
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    adj = g.adj
    dist = {v: 0}
    label: dict[int, int] = {}
    parent: dict[int, int] = {}
    for u in adj[v]:
        dist[u] = 1
        label[u] = u
        parent[u] = v
    q = deque(adj[v])
    # only cycles shorter than `best` can still win; no simple cycle is
    # longer than n
    best = g.n + 1 if bound is None else bound + 1
    closing = None
    while q:
        x = q.popleft()
        dx = dist[x]
        if 2 * dx + 1 >= best:
            break
        lx = label[x]
        for y in adj[x]:
            dy = dist.get(y)
            if dy is None:
                dist[y] = dx + 1
                label[y] = lx
                parent[y] = x
                q.append(y)
            elif y != v and label[y] != lx and dx + dy + 1 < best:
                best, closing = dx + dy + 1, (x, y)
    if closing is None:
        return None
    members = [v]
    for u in closing:
        while u != v:
            members.append(u)
            u = parent[u]
    return best, tuple(sorted(members))


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle anywhere in the graph, or None if a forest:
    the least shortest cycle through any vertex."""
    return min(
        (cyc[0] for v in range(g.n)
         if (cyc := shortest_cycle_with_vertices(g, v)) is not None),
        default=None,
    )
