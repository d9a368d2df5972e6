"""Defensive-alliance semantics: thresholds, verification, and the exhaustive oracle.

A non-empty vertex set S is a defensive alliance when every member has at
least as many defenders (itself plus neighbours inside S) as attackers
(neighbours outside S): |N[v] cap S| >= ceil((d(v)+1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, VertexRangeError

# the largest n `brute_force_min_alliance` searches unless given another guard
BRUTE_MAX_N = 24


class SearchGuardError(ValueError):
    """Raised when the exhaustive search is asked to handle too large a graph."""


class InternalVerificationError(RuntimeError):
    """A solver produced a witness that fails verification (solver bug)."""


class BudgetExceeded(RuntimeError):
    """A solver ran past its time budget.

    `alliance` is the incumbent as checked by `checked_alliance` (or None) and
    `lower_bound` a size no alliance falls below (or None when the solver
    has not proven one).
    """

    def __init__(
        self,
        message: str,
        *,
        alliance: AllianceSolution | None = None,
        lower_bound: int | None = None,
    ) -> None:
        super().__init__(message)
        self.alliance = alliance
        self.lower_bound = lower_bound


def protection_threshold(degree: int) -> int:
    """Defenders needed by a member of degree `degree`: ceil((degree+1)/2)."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    return (degree + 2) // 2


@dataclass(frozen=True)
class AllianceSolution:
    members: tuple[int, ...]
    size: int
    valid: bool
    violations: tuple[tuple[int, int, int], ...]  # (vertex, defenders, needed)


def verify_alliance(g: Graph, members: Iterable[int]) -> AllianceSolution:
    """Check the protection inequality for every member.

    The result records every violated vertex with its defender count and
    required threshold.  The empty set is reported invalid, and so is any
    set touching a forbidden vertex (those never gain a violations entry;
    the violations list is reserved for protection failures).
    """
    mset = set(members)
    for v in mset:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"member {v} out of range for n={g.n}")
    ordered = tuple(sorted(mset))
    violations = []
    for v in ordered:
        defenders = 1 + len(mset.intersection(g.adj[v]))
        needed = protection_threshold(g.degree(v))
        if defenders < needed:
            violations.append((v, defenders, needed))
    blocked = any(v in g.forbidden for v in ordered)
    valid = bool(ordered) and not violations and not blocked
    return AllianceSolution(
        members=ordered,
        size=len(ordered),
        valid=valid,
        violations=tuple(violations),
    )


def checked_alliance(g: Graph, members: Iterable[int], what: str) -> AllianceSolution:
    """`verify_alliance(g, members)`, which a solver's own answer must pass:
    a set that fails raises InternalVerificationError naming `what`."""
    checked = verify_alliance(g, members)
    if not checked.valid:
        raise InternalVerificationError(
            f"{what} {checked.members} is not an alliance: {checked.violations}"
        )
    return checked


def degree_alliance(g: Graph) -> tuple[int, ...] | None:
    """The minimum alliance avoiding forbidden vertices when it has at most
    two vertices, read off the degrees; None when the optimum is larger.

    The answer is the least allowed vertex of degree at most one, else the
    least edge (u, w), u < w, whose two ends are allowed and have degree at
    most three, found by scanning only the adjacency lists of the allowed
    vertices of degree at most three.

    Exactness: a single vertex is an alliance exactly when its degree is at
    most one.  Two vertices that are no alliance as singletons need a
    defender each inside, so an alliance of two, when no singleton exists,
    is an edge; each end then has two defenders, enough exactly for degree
    at most three.  So the helper answers exactly when the optimum is at
    most two.

    Its answer is the witness `solve_min_alliance_search` returns.  The
    search's first climb runs level 1 when an allowed vertex of degree at
    most one exists and level 2 when none does but such an edge does (its
    lower bound is one plus the least number of neighbours an allowed
    vertex needs inside), and that climb's find is the search's witness.
    Roots and their candidates both ascend: at level 1 the first root that
    needs no neighbour is the least vertex of degree at most one; at
    level 2 a root u of degree at most three branches on its allowed
    neighbours w in ascending order, the earlier roots banned, and the first
    w of degree at most three closes the alliance, so the first find is the
    least such edge.
    """
    adj, forbidden = g.adj, g.forbidden
    low = [v for v, nbrs in enumerate(adj) if len(nbrs) <= 3 and v not in forbidden]
    for v in low:
        if len(adj[v]) <= 1:
            return (v,)
    for u in low:
        for w in adj[u]:
            if w > u and len(adj[w]) <= 3 and w not in forbidden:
                return (u, w)
    return None


def _connected_subsets(g: Graph, size: int, allowed: int):
    """Yield every `size`-vertex connected subset of the vertex mask
    `allowed`, once each, as an ascending tuple.

    Wernicke-style extension: subsets are rooted at their minimum vertex and
    grown through exclusive neighbourhoods, so no subset repeats.
    """
    masks = g.masks
    for root in range(g.n):
        if not allowed >> root & 1:
            continue
        if size == 1:
            yield (root,)
            continue
        above = allowed >> root + 1 << root + 1
        ext = masks[root] & above
        yield from _extend(masks, size, [root], ext, above ^ ext)


def _extend(masks: list[int], size: int, sub: list[int], ext: int, unseen: int):
    """`_connected_subsets` below the subset `sub`: a module-level function,
    not a closure, as a recursive closure sits in a reference cycle."""
    if len(sub) == size:
        yield tuple(sorted(sub))
        return
    while ext:
        low = ext & -ext
        ext ^= low
        w = low.bit_length() - 1
        fresh = masks[w] & unseen
        yield from _extend(masks, size, sub + [w], ext | fresh, unseen ^ fresh)


def brute_force_min_alliance(
    g: Graph,
    size_cap: int | None = None,
    *,
    max_n: int = BRUTE_MAX_N,
) -> AllianceSolution | None:
    """Smallest defensive alliance avoiding forbidden vertices, by exhaustion.

    Searches connected subsets in increasing size (a minimum alliance always
    induces a connected subgraph), breaking size ties toward the
    lexicographically smallest member tuple.  Returns None when no alliance
    exists within `size_cap`.
    """
    if g.n > max_n:
        raise SearchGuardError(
            f"refusing exhaustive search on n={g.n} (guard max_n={max_n})"
        )
    allowed = sum(1 << v for v in range(g.n) if v not in g.forbidden)
    cap = g.n if size_cap is None else min(size_cap, g.n)
    need = [protection_threshold(g.degree(v)) for v in range(g.n)]
    masks = g.masks
    for k in range(1, cap + 1):
        best: tuple[int, ...] | None = None
        for sub in _connected_subsets(g, k, allowed):
            if best is not None and sub >= best:
                continue
            smask = sum(1 << v for v in sub)
            if all(1 + (masks[v] & smask).bit_count() >= need[v] for v in sub):
                best = sub
        if best is not None:
            return verify_alliance(g, best)
    return None
