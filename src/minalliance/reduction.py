"""Dominating set on cubic graphs -> minimum defensive alliance, constructively.

Every source vertex i becomes four triangles (v_i^j, u_i^j, w_i^j), chained
so that picking any v_i^j forces a predictable cascade; a selector vertex s_i
watches v_i^0 and three copies of i's neighbours.  Degree-one *forbidden*
vertices pad every triangle vertex to its target degree; they may never join
an alliance but still count as attackers.  A dominating set of size k in the
source yields an alliance of size exactly 4n + 8k in the target, and any
alliance at most that large projects back onto a dominating set of size <= k.

Also hosts the arithmetic for sizing high-girth regular gadgets (Moore
bounds), kept in exact rational form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .alliances import (
    AllianceSolution,
    InternalVerificationError,
    checked_alliance,
    verify_alliance,
)
from .graphs import Graph, VertexRangeError, build_graph


class NotCubicError(ValueError):
    pass


@dataclass(frozen=True)
class CopyIds:
    """Target-vertex ids for one source vertex: four triangle copies plus a selector."""

    v: tuple[int, int, int, int]
    u: tuple[int, int, int, int]
    w: tuple[int, int, int, int]
    s: int


@dataclass(frozen=True)
class ReductionInstance:
    source: Graph
    k: int
    target: Graph
    k_prime: int
    vertex_map: tuple[CopyIds, ...]
    forbidden_count: int


def build_reduction(g: Graph, k: int) -> ReductionInstance:
    """Construct the alliance instance for dominating set budget k.

    The source must be 3-regular.  The target has 13n core vertices plus 32n
    degree-one forbidden pads (two per v-copy, three per u- and w-copy), and
    the alliance budget is k' = 4n + 8k.
    """
    n = g.n
    for v in range(n):
        if g.degree(v) != 3:
            raise NotCubicError(f"vertex {v} has degree {g.degree(v)}, expected 3")
    if not (1 <= k <= n):
        raise ValueError(f"budget k={k} outside 1..{n}")
    ids = tuple(
        CopyIds(
            v=tuple(13 * i + j for j in range(4)),
            u=tuple(13 * i + 4 + j for j in range(4)),
            w=tuple(13 * i + 8 + j for j in range(4)),
            s=13 * i + 12,
        )
        for i in range(n)
    )
    edges: list[tuple[int, int]] = []
    for i in range(n):
        c = ids[i]
        for j in range(4):
            edges += [(c.v[j], c.u[j]), (c.v[j], c.w[j]), (c.u[j], c.w[j])]
        edges += [(c.v[0], c.u[1]), (c.w[1], c.u[2]), (c.w[2], c.u[3])]
        if i + 1 < n:
            edges.append((c.w[0], ids[i + 1].u[0]))
        edges.append((c.s, c.v[0]))
    # selector fan-out: s_i watches copies of i's neighbours, filling each
    # neighbour's lowest free copy slot, selectors processed in order
    next_slot = [1] * n
    for i in range(n):
        for nb in g.adj[i]:  # ascending
            j = next_slot[nb]
            next_slot[nb] += 1
            edges.append((ids[i].s, ids[nb].v[j]))
    # degree-one pads, forbidden inside alliances
    fid = 13 * n
    forbidden: list[int] = []
    for i in range(n):
        c = ids[i]
        for anchor, count in [(c.v, 2), (c.u, 3), (c.w, 3)]:
            for j in range(4):
                for _ in range(count):
                    edges.append((anchor[j], fid))
                    forbidden.append(fid)
                    fid += 1
    target = build_graph(fid, edges, forbidden)
    return ReductionInstance(
        source=g,
        k=k,
        target=target,
        k_prime=4 * n + 8 * k,
        vertex_map=ids,
        forbidden_count=len(forbidden),
    )


def alliance_from_dominating_set(
    inst: ReductionInstance, dominating: Iterable[int]
) -> AllianceSolution:
    """The size-(4n + 8|D|) alliance a dominating set D induces in the target.

    Takes all zeroth copies, the full triangle block of every copy of a
    dominated-from vertex, and the selectors of vertices outside D.  An id
    outside 0..n-1 raises VertexRangeError.
    """
    ds = set(dominating)
    outside = sorted(v for v in ds if not 0 <= v < inst.source.n)
    if outside:
        raise VertexRangeError(
            f"dominating set vertices {outside} out of range for n={inst.source.n}"
        )
    if not is_dominating_set(inst.source, ds):
        raise ValueError(f"{sorted(ds)} does not dominate the source graph")
    if len(ds) > inst.k:
        raise ValueError(f"dominating set larger than budget k={inst.k}")
    members: list[int] = []
    for i, c in enumerate(inst.vertex_map):
        members += [c.v[0], c.u[0], c.w[0]]
        if i in ds:
            for j in (1, 2, 3):
                members += [c.v[j], c.u[j], c.w[j]]
        else:
            members.append(c.s)
    return checked_alliance(inst.target, members, "constructed alliance")


def extract_dominating_set(
    inst: ReductionInstance, members: Iterable[int]
) -> frozenset[int]:
    """Project an alliance of size <= k' back to a dominating set of size <= k.

    A source vertex joins the result when its entire non-zero triangle block
    sits inside the alliance.
    """
    checked = verify_alliance(inst.target, members)
    if not checked.valid:
        raise ValueError("extraction requires a valid alliance of the target")
    if checked.size > inst.k_prime:
        raise ValueError(
            f"alliance size {checked.size} exceeds budget k'={inst.k_prime}"
        )
    mset = set(checked.members)
    out = set()
    for i, c in enumerate(inst.vertex_map):
        block = {c.v[j] for j in (1, 2, 3)}
        block |= {c.u[j] for j in (1, 2, 3)}
        block |= {c.w[j] for j in (1, 2, 3)}
        if block <= mset:
            out.add(i)
    if len(out) > inst.k or not is_dominating_set(inst.source, out):
        raise InternalVerificationError(
            f"extracted set {sorted(out)} is not a size-{inst.k} dominating set"
        )
    return frozenset(out)


# --- dominating-set oracles (source side) ---


def is_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    """Whether `vertices` dominates `g`; ids outside 0..n-1 are ignored."""
    ds = sum(1 << v for v in set(vertices) if 0 <= v < g.n)
    return all((m | 1 << v) & ds for v, m in enumerate(g.masks))


def dominating_sets_upto(g: Graph, k: int) -> Iterator[frozenset[int]]:
    """All dominating sets of size at most k, smallest first, lex within size."""
    for size in range(1, k + 1):
        for cand in combinations(range(g.n), size):
            if is_dominating_set(g, cand):
                yield frozenset(cand)


def minimum_dominating_set(g: Graph) -> frozenset[int]:
    """The first of `dominating_sets_upto(g, g.n)`: a smallest dominating
    set, lexicographically first among them."""
    found = next(dominating_sets_upto(g, g.n), None)
    if found is None:
        raise ValueError("the empty graph has no dominating set")
    return found


# --- gadget-size arithmetic (exact rational throughout) ---

# vertices a degree-budget buys per unit, and the growth exponent 3.484
_GADGET_RATE = Fraction(2871, 10000)
_GADGET_EXP = Fraction(871, 250)


@dataclass(frozen=True)
class GadgetBounds:
    regularity: int
    budget: int
    size_estimate: int
    girth_bound: int
    moore_lower_bound: int
    exponent: Fraction


def moore_bound(r: int, girth: int) -> int:
    """Fewest vertices an r-regular graph of the given girth can have."""
    if r < 2:
        raise ValueError(f"regularity must be at least 2, got {r}")
    if girth < 3:
        raise ValueError(f"girth must be at least 3, got {girth}")
    if girth % 2:
        return 1 + r * sum((r - 1) ** i for i in range((girth - 1) // 2))
    return 2 * sum((r - 1) ** i for i in range(girth // 2))


def girth_lower_bound(r: int, n: int) -> int:
    """Smallest g with (r-1)^(3g) >= n^4, i.e. ceil((4/3) log_(r-1) n)."""
    if r < 3:
        raise ValueError(f"regularity must be at least 3, got {r}")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    base = (r - 1) ** 3
    target = n**4
    g = 0
    power = 1
    while power < target:
        power *= base
        g += 1
    return g


def gadget_size_estimate(budget: int) -> int:
    """ceil(((budget+1) / rate) ** 3.484), computed without floating point.

    The estimate e is the least integer with e^250 >= q^871 for the exact
    rational q = (budget+1)/rate.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    q = Fraction(budget + 1) / _GADGET_RATE
    num = q.numerator**_GADGET_EXP.numerator
    den = q.denominator**_GADGET_EXP.numerator
    lo, hi = 1, 2
    while hi**_GADGET_EXP.denominator * den < num:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**_GADGET_EXP.denominator * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def gadget_bounds(r: int, budget: int) -> GadgetBounds:
    """Size/girth numbers for an r-regular blocking gadget within `budget`.

    Chains the exact size estimate into the girth lower bound it certifies
    and the Moore bound for degree-3 subdivision that girth implies.
    """
    est = gadget_size_estimate(budget)
    gb = girth_lower_bound(r, est)
    moore = moore_bound(3, max(gb, 3))
    return GadgetBounds(
        regularity=r,
        budget=budget,
        size_estimate=est,
        girth_bound=gb,
        moore_lower_bound=moore,
        exponent=_GADGET_EXP,
    )
