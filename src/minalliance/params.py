"""Structural modulators: distance-to-clique sets, twin covers, and the
partitions of the leftover graph that the parameterized solvers consume."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .graphs import Graph, VertexRangeError


class RemainderNotCliqueError(ValueError):
    pass


class InvalidTwinCoverError(ValueError):
    pass


@dataclass(frozen=True)
class TwinClass:
    """One group of interchangeable remainder vertices.

    In clique-remainder mode `members` are true twins with respect to the
    modulator signature.  In cliques-remainder mode the group is a *clique
    set*: every clique (a maximal remainder component) whose vertices all see
    exactly `signature` inside the cover.
    """

    index: int
    signature: tuple[int, ...]
    members: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...] = ()

    def cliques_by_size(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for cl in self.cliques:
            out.setdefault(len(cl), []).append(cl)
        return {size: tuple(cls) for size, cls in sorted(out.items())}


@dataclass(frozen=True)
class TwinPartition:
    modulator: tuple[int, ...]
    mode: str  # "clique-remainder" | "cliques-remainder"
    classes: tuple[TwinClass, ...]

    def max_clique_size(self) -> int:
        return max((len(cl) for tc in self.classes for cl in tc.cliques), default=0)


def _clique_signatures(g: Graph, mod: set[int]) -> dict[int, list[int]] | None:
    """Each vertex v outside `mod`, in ascending order, mapped to its
    signature N(v) cap mod in ascending order, or None when `g` minus `mod`
    is not a clique.

    One pass over the adjacency lists of the modulator's vertices in the
    graph builds every signature.  The remainder R is a clique exactly when
    every v in R has the other |R| - 1 vertices of R as neighbours, that
    is, when deg(v) - |sig(v)| = |R| - 1.
    """
    sigs: dict[int, list[int]] = {v: [] for v in range(g.n) if v not in mod}
    for u in sorted(mod.intersection(range(g.n))):
        for v in g.adj[u]:
            if v in sigs:
                sigs[v].append(u)
    others = len(sigs) - 1
    if any(len(g.adj[v]) - len(sig) != others for v, sig in sigs.items()):
        return None
    return sigs


def _closed_twin_groups(g: Graph, cover: set[int]) -> dict[int, list[int]] | None:
    """The vertices outside `cover` grouped by the mask of N[v], or None
    when `cover` is not a twin cover.  Ids outside 0..n-1 are ignored.

    A group lies inside its N[v] minus the cover, and that set holds more
    than the group exactly when an outside edge leaves the group: an edge
    joining non-twins.  So the cover is a twin cover iff no group's N[v]
    minus the cover is larger than the group.
    """
    masks, outside = g.masks, 0
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        if v not in cover:
            outside |= 1 << v
            groups.setdefault(masks[v] | 1 << v, []).append(v)
    if any((closed & outside).bit_count() > len(vs) for closed, vs in groups.items()):
        return None
    return groups


def is_twin_cover(g: Graph, cover: Iterable[int]) -> bool:
    """True when every edge outside `cover` joins closed twins."""
    return _closed_twin_groups(g, set(cover)) is not None


def _min_cover(edges: list[tuple[int, int]], k_max: int) -> frozenset[int] | None:
    """Lexicographically smallest minimum vertex cover of `edges` with at most
    `k_max` vertices, or None.

    `edges` must be sorted, each pair (u, v) with u < v.  The search branches on
    the first uncovered edge (c, d), c first.  Every vertex added below that
    node is an endpoint of a later edge, so it is >= c; a minimum cover with c
    thus precedes every cover of its size without c, and the first minimum
    cover found is the lexicographically smallest.

    A node is pruned when |partial| plus a greedy maximal matching of the
    uncovered edges exceeds the cap: k_max, or |best| - 1 once a cover is
    known.  A cover holds a distinct vertex of every matched edge, so a
    pruned subtree holds no cover within the cap, and the search finds the
    same covers in the same order as without the bound.

    Degree kernel (Buss & Goldsmith 1993): a cover without a vertex of more
    than k_max edges holds all its more than k_max other ends, so every
    cover within the cap holds the set F of those vertices.  More than
    k_max of them leave no cover; otherwise the search starts from F and
    branches only on the edges F leaves uncovered, whose minimum covers C'
    avoid F and give exactly the minimum covers F + C' within the cap.
    Adding F to two covers of equal size disjoint from it keeps their
    lexicographic order (the least vertex of their symmetric difference
    decides it, and F changes no symmetric difference), so the first
    minimum cover found is still the lexicographically smallest.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    degree = Counter(chain.from_iterable(edges))
    forced = {v for v, d in degree.items() if d > k_max}
    if len(forced) > k_max:
        return None
    best: frozenset[int] | None = None

    def dfs(partial: set[int], i: int) -> None:
        # edges before index i are covered by `partial`
        nonlocal best
        cap = k_max if best is None else len(best) - 1
        if len(partial) > cap:
            return
        while i < len(edges) and (edges[i][0] in partial or edges[i][1] in partial):
            i += 1
        if i == len(edges):
            best = frozenset(partial)
            return
        bound = len(partial)
        used = set(partial)  # the cover so far and the matched ends
        for u, v in edges[i:]:
            if u in used or v in used:
                continue
            bound += 1
            if bound > cap:
                return
            used.add(u)
            used.add(v)
        for v in edges[i]:
            partial.add(v)
            dfs(partial, i + 1)
            partial.remove(v)

    dfs(forced, 0)
    del dfs  # its closure cell refers back to it; the cycle would keep `edges`
    return best


def distance_to_clique_set(g: Graph, k_max: int) -> frozenset[int] | None:
    """Smallest vertex set (size <= k_max) whose removal leaves a clique.

    Returns the lexicographically smallest witness of minimum size, or None
    when no such set within the budget exists.  The set is a vertex cover of
    the non-edges.

    Degree reject: removing at most k_max vertices leaves a clique of
    q >= n - k_max vertices, each adjacent to the other q - 1, so at least
    n - k_max vertices have degree >= n - k_max - 1.  When fewer do, no set
    exists, and the count, O(n), answers before the O(n^2) non-edge list
    is built.  It rejects only inputs with no answer, so no answer changes.
    The non-edges are read off the sorted adjacency lists, skipping every
    vertex of degree n - 1.
    """
    n = g.n
    keep = n - k_max  # the fewest vertices the clique remainder can have
    if k_max >= 0 and sum(1 for nb in g.adj if len(nb) >= keep - 1) < keep:
        return None
    non_edges: list[tuple[int, int]] = []  # sorted, u < v in each pair
    for u, nbrs in enumerate(g.adj):
        if len(nbrs) < n - 1:
            missing = set(range(u + 1, n))
            missing.difference_update(nbrs)
            non_edges.extend((u, v) for v in sorted(missing))
    return _min_cover(non_edges, k_max)


def twin_cover_set(g: Graph, k_max: int) -> frozenset[int] | None:
    """Smallest twin cover of size <= k_max (lex-smallest witness), or None.

    A twin cover is a vertex cover of the edges joining non-twins.
    """
    closed = [m | 1 << v for v, m in enumerate(g.masks)]
    # g.edges is sorted with u < v in every pair
    return _min_cover([(u, v) for u, v in g.edges if closed[u] != closed[v]], k_max)


def partition_twin_classes(g: Graph, modulator: Iterable[int]) -> TwinPartition:
    """Group the clique remainder into twin classes by modulator signature."""
    mod = set(modulator)
    for v in mod:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"modulator vertex {v} out of range")
    sigs = _clique_signatures(g, mod)
    if sigs is None:
        raise RemainderNotCliqueError(
            "removing the modulator must leave a clique"
        )
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, sig in sigs.items():  # v ascending, so each class is sorted
        groups.setdefault(tuple(sig), []).append(v)
    classes = tuple(
        TwinClass(index=i, signature=sig, members=tuple(vs))
        for i, (sig, vs) in enumerate(sorted(groups.items()))
    )
    return TwinPartition(
        modulator=tuple(sorted(mod)), mode="clique-remainder", classes=classes
    )


def partition_clique_sets(g: Graph, cover: Iterable[int]) -> TwinPartition:
    """Group the remainder components of a twin cover into clique sets.

    Outside a twin cover every edge joins closed twins, so the components
    are the closed-twin groups: twins are adjacent, so a group is a clique;
    no outside edge leaves a group, so a group is a component; and N[v]
    minus the cover is the group itself, so a group's cover signature,
    N[v] intersected with the cover, is read off its mask.  Components with
    equal signatures form one clique set.
    """
    cov = set(cover)
    for v in cov:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"cover vertex {v} out of range")
    comps = _closed_twin_groups(g, cov)
    if comps is None:
        raise InvalidTwinCoverError("not a twin cover: some outside edge joins non-twins")
    order = sorted(cov)
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for closed, comp in comps.items():
        sig = tuple(u for u in order if closed >> u & 1)
        groups.setdefault(sig, []).append(tuple(comp))
    classes = []
    for i, (sig, cliques) in enumerate(sorted(groups.items())):
        ordered = tuple(sorted(cliques, key=lambda cl: (len(cl), cl)))
        members = tuple(sorted(v for cl in ordered for v in cl))
        classes.append(
            TwinClass(index=i, signature=sig, members=members, cliques=ordered)
        )
    return TwinPartition(
        modulator=tuple(order), mode="cliques-remainder", classes=tuple(classes)
    )
