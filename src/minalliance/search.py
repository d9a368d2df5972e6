"""Exact minimum defensive alliance by solution-size branch and bound.

The general solver for graphs no specialised algorithm covers, in the style
of Fernau & Raible, "Alliances in graphs: a complexity-theoretic study"
(SOFSEM 2007): grow one connected vertex set from a root, always branching
on the member that lacks the most defenders.  Where that member has no
spare candidate, every candidate is forced, and one branch adds them all.

Sizes are searched by iterative deepening, with the "least cost over the
bound" of Korf, "Depth-first iterative-deepening" (Artificial Intelligence
27, 1985), kept per root: a root walk that finds nothing records the least
level at which the budget prune would let it walk further, and lower
levels skip that root, which is exact because a walk depends on its level
only through that prune (see `_alliances`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator
from itertools import chain, cycle
from operator import itemgetter
from time import monotonic

from .alliances import AllianceSolution, BudgetExceeded, checked_alliance, degree_alliance
from .graphs import Graph

# a solve whose walks pass this many nodes calls its `stall` hook
HANDOFF_NODES = 20_000


def solve_min_alliance_search(
    g: Graph, *, time_limit: float | None = None, stall: Callable[[], None] | None = None
) -> AllianceSolution | None:
    """Minimum defensive alliance avoiding forbidden vertices, or None.

    Level k asks for the first alliance of at most k vertices in the search
    order.  Levels run on one fixed schedule between lo, a size every
    smaller one is proven not to reach (first the least root bound, below),
    and hi, the size of the incumbent (first n' + 1, for the n' allowed
    vertices).  A climb runs level lo and sets lo += 1 if it finds nothing;
    what it finds has size lo, the optimum.  A descent runs level hi - 1 and
    sets hi to the size of what it finds, or lo = hi if it finds nothing.
    The schedule is one climb, one descent (level n', which finds an
    incumbent if any alliance exists), then descent and climb in turn until
    lo == hi.  It counts levels, not seconds, so the levels run, the witness
    and the budget exits depend on the graph alone.  A climb alone is fast
    when the optimum is near the root bound, a descent alone when it is near
    n' (the dominating-set reduction targets); in turn, the schedule runs at
    most about twice the levels of the better direction.

    Inside a level, the allowed roots are tried in ascending order, every
    earlier root banned.  A node holds a connected member set S and a
    banned set; the member u with the largest deficit need(u) - |N[u] cap S|
    (ties: smallest id) is branched on.  With c_1 < c_2 < ... its allowed
    neighbours outside S and outside the banned set, branch i adds c_i and
    bans c_1..c_{i-1}, for i up to (number of candidates - deficit + 1).  A
    node with no spare candidate, whose deficit equals its number of
    candidates, has one branch, which adds every candidate at once: they are
    all forced, and no node is spent on each in turn.  A node is pruned when
    the deficit exceeds the number of candidates, or when its bound exceeds
    the remaining budget k - |S|.

    The bound counts the vertices the members force and the thresholds
    thr(v) = need(v) + 1 the candidates reach: an alliance holding v holds
    v and need(v) of its neighbours, so it has at least thr(v) vertices.
    Call an allowed vertex v *tight* when its allowed degree equals
    need(v) = d(v) // 2 > 0: an alliance holding v holds every allowed
    neighbour of v, so it holds the whole component K of v among the tight
    vertices and the allowed vertices of N(K), v's force set; a vertex that
    is not tight forces only itself.  Without forbidden vertices no vertex
    is tight, as d // 2 < d.  The bound of a node is the largest of its
    deficit, the number of vertices outside S in the union F of its
    members' force sets, and the node bound: the deficit-th smallest thr(c)
    over the candidates, less |S|.  The walk sorts those thresholds only
    where the largest threshold of an allowed vertex, less |S|, exceeds the
    other two, since the sort cannot raise the bound elsewhere; at a root's
    own node the node bound is the root bound (below) less one, and the
    walk reads that instead.

    Exactness: every component of an alliance is an alliance (a member's
    neighbours inside lie in its component), so an optimum A may be taken
    connected; let r be its least vertex.  At root r no earlier root lies in
    A, and at every node with S inside A and no banned vertex in A, the
    deficit of u is at least the number of its candidates that A still
    needs, so at least `deficit` candidates lie in A and the first of them,
    c_j, has j <= candidates - deficit + 1.  Branch j alone keeps S inside A
    and every banned vertex outside it (with no spare candidate, A holds
    every candidate, and the one branch adds them all and bans no other),
    and the budget prune never cuts it: A holds F, and `deficit`
    candidates, the largest thr(c) among them at least the deficit-th
    smallest, so the bound is at most |A - S| <= k - |S|.  So each level
    at or above the optimum finds an alliance, and each level below it
    finds none: a failed climb proves lo + 1 a lower bound, a failed
    descent proves hi optimal, and both directions are exact.  The bound
    reads S and its bans and never k, and the prune cuts only subtrees
    that hold no alliance of at most k vertices, so each level's first
    find, and the witness, is the one the deficit alone gives.

    Before any level, an optimum of one or two is read off the degrees
    (`degree_alliance`, whose answer is the first climb's find).  Else each
    root r gets a root bound.  A connected alliance A with least vertex r
    holds need(r) allowed neighbours of r, all above r, and |A| >= thr(v)
    for each member v, so |A| is at least thr(r) and the need(r)-th
    smallest thr(u) over those u; with fewer than need(r) of them no such A
    exists, and the bound is n' + 1.  Those u are the candidates of r's own
    node, whose deficit is need(r), so its node bound is the root bound less
    one.  The root bound starts r's `reach` entry, and lo starts at its
    least value over the roots.
    Like the force bound, it reads only the root and its bans (the
    forbidden vertices and the earlier roots) and never k; a walk at r
    finds only connected alliances with least vertex r, so skipping r
    below its bound keeps the level-subsequence, resumption and `reach`
    arguments below, with the same finds and witness.

    Each climb is one fresh level.  The descents are one walk,
    `_alliances`, started once at level n': after each find A it resumes at
    level |A| - 1 where that level, run afresh from the first root, would
    stand, so no descent walks again the nodes an earlier one passed, and
    each finds what a restart at level hi - 1 would (see `_alliances`).
    Every walk shares one `reach` map: a root whose walk found nothing is
    skipped by each later walk at a level below the least one that could
    change it, with the same finds (see `_alliances`).

    The witness is the first alliance at the optimum level, the one a climb
    alone returns, so it depends on the graph alone, and no level is run
    twice for it.  The nodes a level visits, and their order, depend on k
    only through the budget prune, so a lower level visits a subsequence of
    a higher level's nodes.  If level k finds A first, level |A| still
    visits every node on the way to A (their bounds are at most |A - S|,
    as above) and no alliance before it, so it finds A first too.  The
    schedule's last find has the optimum size, so it is that witness.

    Past `time_limit` seconds the search raises BudgetExceeded with
    `lower_bound` = lo, which every smaller size is proven not to reach,
    and the incumbent as checked by `checked_alliance`, or None before the
    first descent has found one.  The degree answer reads no clock.

    The walks of one solve share one node count, the climbs' and the
    descent's.  `stall`, when given, is called once, at node
    HANDOFF_NODES + 1; if it returns, the walk goes on where it stood, and
    whatever it raises ends the solve.  The count reads no clock, so whether
    and where the hook is called depends on the graph alone.
    """
    small = degree_alliance(g)
    if small is not None:
        return checked_alliance(g, small, "search witness")
    roots = [v for v in range(g.n) if v not in g.forbidden]
    if not roots:
        return None
    # neighbours a member needs inside S: ceil((d+1)/2) minus itself, d // 2
    need = [len(nbrs) // 2 for nbrs in g.adj]
    view = _allowed_view(g, roots, need)
    nodes = _Nodes(stall)
    # per root, the least level that could change its walk: first its bound,
    # copied, as the walk reads the bounds themselves
    reach = dict(view[4])
    deadline = None if time_limit is None else monotonic() + time_limit
    lo = min(reach.values())
    hi = len(roots) + 1  # no incumbent yet: one past the largest level
    best = None
    # climb, the incumbent's descent, then descent and climb in turn
    climbs = chain((True, False), cycle((False, True)))
    # one walk for every descent: each turn resumes it at level hi - 1
    descent = _alliances(g, len(roots), roots, need, deadline, reach, view, nodes)
    try:
        while lo < hi:
            if next(climbs):
                k = lo
                members = _alliance_within(g, k, roots, need, deadline, reach, view, nodes)
            else:
                k = hi - 1
                members = next(descent, None)
            if members is None:
                lo = k + 1
            else:
                best, hi = members, len(members)
    except BudgetExceeded:
        message = f"time limit exceeded while searching size {lo}"
        if best is not None:
            message += f"; incumbent of size {hi}"
        raise BudgetExceeded(
            message,
            alliance=None if best is None else checked_alliance(g, best, "search witness"),
            lower_bound=lo,
        ) from None
    return None if best is None else checked_alliance(g, best, "search witness")


class _Nodes:
    """The nodes the walks of one solve have visited, and the node at which
    they call `stall`: HANDOFF_NODES + 1, or 0, which no count reaches, when
    there is no hook.  A walk counts in a local and writes it back before it
    yields or ends, and reads it again when it resumes."""

    __slots__ = ("walked", "stall", "stall_at")

    def __init__(self, stall: Callable[[], None] | None = None):
        self.walked = 0
        self.stall = stall
        self.stall_at = 0 if stall is None else HANDOFF_NODES + 1


def _root_bounds(roots: list[int], need: list[int], nbrs: list[list[int]]) -> dict[int, int]:
    """Each root's bound, a size below which no connected alliance has that
    root as its least vertex (see `solve_min_alliance_search`)."""
    bounds = {}
    for r in roots:
        k, adj = need[r], nbrs[r]
        first = bisect_right(adj, r)  # the allowed neighbours above r start here
        if len(adj) - first < k:
            bounds[r] = len(roots) + 1
        else:
            bounds[r] = max(k, _kth_need(need, adj[first:], k) if k else 0) + 1
    return bounds


def _kth_need(need: list[int], vs: list[int], k: int) -> int:
    """The k-th smallest need(v) over the vertices vs, for 1 <= k <= len(vs)."""
    # one itemgetter call reads every need; it returns a lone one bare
    return sorted(itemgetter(*vs)(need))[k - 1] if len(vs) > 1 else need[vs[0]]


def _allowed_view(g: Graph, roots: list[int], need: list[int]) -> tuple:
    """The walk's view of the allowed subgraph, built once per solve from
    the allowed vertices `roots`, ascending: (each vertex's allowed
    neighbours ascending, the blocked template with the forbidden vertices
    set, the force masks or None, the largest threshold need(v) + 1 of an
    allowed vertex, the root bounds).  With no tight vertex, as on every
    graph without forbidden vertices, the masks are None and the walk does
    no mask work.
    """
    if g.forbidden:
        blocked = [v in g.forbidden for v in range(g.n)]
        # a forbidden vertex is never a member, so nothing reads its list
        nbrs = [[] if blocked[v] else [u for u in g.adj[v] if not blocked[u]] for v in range(g.n)]
        force = _force_masks(g, nbrs, blocked)
    else:
        nbrs, blocked, force = g.adj, [False] * g.n, None
    top = max(map(need.__getitem__, roots), default=0) + 1
    return nbrs, blocked, force, top, _root_bounds(roots, need, nbrs)


def _force_masks(g: Graph, nbrs: list[list[int]], blocked: list[bool]) -> list[int] | None:
    """Each vertex's force set as a mask, or None when no vertex is tight.

    Every alliance holding v holds each vertex of force[v]: the tight
    component K of a tight v and the allowed vertices of N(K), or v alone
    (see `solve_min_alliance_search`).
    """
    tight = [
        not blocked[v] and 0 < len(nbrs[v]) == len(g.adj[v]) // 2 for v in range(g.n)
    ]
    if not any(tight):
        return None
    force = [1 << v for v in range(g.n)]
    for v in range(g.n):
        if not tight[v] or force[v] != 1 << v:  # not tight, or its component done
            continue
        comp, stack, mask = [v], [v], 1 << v
        while stack:
            for u in nbrs[stack.pop()]:
                if not mask >> u & 1:
                    mask |= 1 << u
                    if tight[u]:
                        comp.append(u)
                        stack.append(u)
        for u in comp:
            force[u] = mask
    return force


def _alliance_within(
    g: Graph,
    k: int,
    roots: list[int],
    need: list[int],
    deadline: float | None,
    reach: dict[int, int] | None = None,
    view: tuple | None = None,
    nodes: _Nodes | None = None,
) -> list[int] | None:
    """The first alliance of at most k vertices in the search order, or None."""
    return next(_alliances(g, k, roots, need, deadline, reach, view, nodes), None)


def _alliances(
    g: Graph,
    k: int,
    roots: list[int],
    need: list[int],
    deadline: float | None,
    reach: dict[int, int] | None = None,
    view: tuple | None = None,
    nodes: _Nodes | None = None,
) -> Iterator[list[int]]:
    """The first alliance A of at most k vertices in the search order, then
    the first of at most |A| - 1 vertices, and so on, in one walk.

    `roots` are the allowed vertices, ascending, and `view` is
    `_allowed_view(g, roots, need)`, built here when not given.  A node's
    bound, the largest of its deficit, the number of forced vertices
    outside S and its node bound, is a lower bound on |A - S| for every
    alliance A in its subtree, and it depends on S and its bans alone,
    never on the level.

    A node whose worst member has exactly `deficit` candidates pushes a
    frame of width 1: every alliance below the node holds all of those
    candidates, so its one branch adds them together, undoing it removes
    them together, and they are unbanned when the frame pops.  No alliance
    below the node holds fewer, so the node's bound, its budget prune and
    the arguments below, which read a node's S, bans and bound alone, hold
    for it as for any node.

    After a find A of s vertices at level k, the walk goes on at level
    s - 1.  The budget prune alone depends on the level, so level s - 1
    visits a subsequence of level k's nodes, in the same order.  It follows
    the same path towards A, with the same bans and branches, up to the
    outermost frame it would not push (bound > (s - 1) - |S| at its
    node), and visits nothing before that which level k did not visit
    before A: no alliance, since A was level k's first.  Unwinding that
    frame and every frame above it, with no further branch taken, leaves
    the stack where level s - 1, run afresh, stands after refusing that
    frame, and the walk goes on through the rest of level s - 1 in its own
    order.  By induction, each find is what a fresh run of its level finds
    first, and no node before it is walked twice.

    `nodes` is the solve's node count, fresh when not given: one node per
    pass of the walk's loop, as one deadline check, and its hook called at
    the count's `stall_at`.

    `reach` maps a root to the least level that could change its walk; the
    walks of one solve share it, and each call without it starts afresh.
    A root walk that finds nothing records the least |S| + bound over
    the nodes the budget prune cut with deficit <= candidates (the others
    are cut at every level), or n' + 1 if it cut none: above the level it
    ran at, so never below a root bound that let it run.  A later walk at a
    level k below that value bans the root without walking it.  Every root
    walk starts with the same bans, the forbidden vertices and the earlier
    roots, so its nodes depend on k only through the budget prune, whose
    bound does not read k: a node the recorded walk pushed is pushed at
    every level above it, a node it cut stays cut below the recorded
    value, and each level below that value walks the recorded nodes or a
    subsequence of them and finds nothing there either.  So the bans, the
    finds, the resume points and the witness stay what a walk without
    `reach` gives.
    """
    if reach is None:
        reach = {}
    if nodes is None:
        nodes = _Nodes()
    walked, stall_at = nodes.walked, nodes.stall_at
    nbrs, template, force, top, floor = _allowed_view(g, roots, need) if view is None else view
    lack = list(need)  # need(v) - |N(v) cap S|
    # a vertex is blocked while it is a member, banned or forbidden
    blocked = template[:]
    members: list[int] = []
    # the union of the members' force masks, after each member added
    forced = [0]

    for root in roots:
        if k < 1:  # not even a root fits
            break
        if reach.get(root, 0) > k:  # its walk at level k would find nothing
            blocked[root] = True
            continue
        blocked[root] = True
        members.append(root)
        for u in nbrs[root]:
            lack[u] -= 1
        if force is not None:
            forced.append(force[root])
        # one frame per branching node:
        # [candidates, candidates taken, width, |S|, bound]
        frames: list[list] = []
        found = False
        least = len(roots) + 1  # least |S| + bound the budget prune cut
        while True:
            walked += 1
            if walked == stall_at:
                nodes.stall()
            if deadline is not None and monotonic() > deadline:
                raise BudgetExceeded(
                    f"time limit exceeded while searching size {k}", lower_bound=k
                )
            worst, deficit = -1, 0
            for u in members:
                d = lack[u]
                if d > deficit or (d == deficit and d > 0 and u < worst):
                    worst, deficit = u, d
            if deficit == 0:
                found = True
                nodes.walked = walked
                yield sorted(members)
                walked = nodes.walked
                k = len(members) - 1
                # from the outermost frame level k would not push, every
                # frame takes no further branch
                for i, (_, _, _, size, bound) in enumerate(frames):
                    if bound > k - size:
                        for stale in frames[i:]:
                            stale[2] = stale[1]
                        break
            else:
                cands = [c for c in nbrs[worst] if not blocked[c]]
                size = len(members)
                if deficit <= len(cands):
                    bound = deficit
                    if force is not None:
                        bound = max(deficit, forced[-1].bit_count() - size)
                    if size == 1:  # the root's node: its root bound reads these thresholds
                        bound = max(bound, floor[root] - 1)
                    elif top - size > bound:  # else no threshold can raise it
                        # the deficit-th smallest threshold of a candidate
                        bound = max(bound, _kth_need(need, cands, deficit) + 1 - size)
                    if bound <= k - size:
                        frames.append([cands, 0, len(cands) - deficit + 1, size, bound])
                    elif size + bound < least:
                        least = size + bound
            # next branch: undo the last one (its vertices stay banned), or
            # lift the frame's bans and backtrack once every branch is taken
            while frames:
                frame = frames[-1]
                cands, taken, width, size, _ = frame
                if taken:
                    while len(members) > size:
                        for u in nbrs[members.pop()]:
                            lack[u] += 1
                    if force is not None:
                        del forced[size + 1 :]
                if taken < width:
                    # branch i adds c_i; with no spare candidate, the one
                    # branch adds them all
                    added = cands[taken : taken + 1] if width > 1 else cands
                    for v in added:
                        blocked[v] = True
                        members.append(v)
                        for u in nbrs[v]:
                            lack[u] -= 1
                        if force is not None:
                            forced.append(forced[-1] | force[v])
                    frame[1] = taken + len(added)
                    break
                for c in cands[:taken]:
                    blocked[c] = False
                frames.pop()
            else:
                # drop the root, which stays banned for the later roots
                for u in nbrs[members.pop()]:
                    lack[u] += 1
                if force is not None:
                    forced.pop()
                if not found:
                    reach[root] = least
                break
    nodes.walked = walked
