"""Independent reference implementations the tests check the package against.

Everything in this module is deliberately naive -- exhaustive enumeration,
Floyd-Warshall, subset scans -- and shares no code with the library.  Where
the library uses the threshold form ceil((d+1)/2), the alliance oracle here
uses the raw majority comparison |N[v] cap S| >= |N[v] setminus S| so the two
formulations are compared, not one implementation against itself.

The exceptions are the library's former ways of computing a witness, kept
so that their replacements are checked against them byte for byte:
`bfs_path` and `nearest_low_path_by_full_bfs`, the two-BFS computation of a
low-degree root's path; `best_shape_at`, the per-root definition of the
low-degree solver's answer; `remainder_is_clique_by_pairs`,
`partition_twin_classes_by_pairs` and `partition_clique_sets_by_dfs`, the
structural partitions as they were computed before a twin cover's
remainder was read off its closed-twin classes; and
`connected_subsets_by_sorted_lists`, brute force's connected-subset
enumeration before it held its sets as vertex masks.

The general branch and bound has one reference walk, `reference_alliances`,
with one switch per node rule: `force`, the bound by the vertices the
members force; `thresholds`, the bound by the candidates' thresholds (at a
root's own node, its root bound); and `groups`, the one branch that adds
every candidate of a node whose candidates are all forced.  With every
switch on it finds what `search._alliances` finds, at the same nodes.  A
test of one rule compares the library with the reference without it: the
finds level by level for the two bounds, which only cut nodes, and the
optimum alone for `groups`, which reorders the finds above it.  With every
switch off the walk shares no code with the library; `force` reads the
force masks from `search._force_masks`, and the thresholds are sorted
here.  `reference_search` runs the library's level schedule over a walk,
with no root bound and no degree answer; with `climbs_only`, it climbs
from the least threshold alone, as the search did before it descended
from an incumbent.

`roots_and_need` and `reduction_instance`, no oracles, build the search's
inputs and the hardness reduction's instances that the search tests of
more than one module run on; `complete_graph`, `cycle_graph` and `star`,
no oracles either, build the small graphs of the tests of more than one
module.
"""

from __future__ import annotations

import itertools
from collections import deque
from time import monotonic

from minalliance import build_graph

INF = float("inf")


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def floyd_warshall(n, edges):
    """All-pairs hop counts; INF marks unreachable pairs."""
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for a, b in edges:
        dist[a][b] = dist[b][a] = 1
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_i = dist[i]
            for j in range(n):
                if dik + row_k[j] < row_i[j]:
                    row_i[j] = dik + row_k[j]
    return dist


def connected(n, edges):
    if n == 0:
        return False
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def simple_cycles(n, edges):
    """Every simple cycle as a frozenset of its vertices (length >= 3)."""
    adj = adjacency(n, edges)
    found = set()

    def walk(start, v, path, onpath):
        for u in adj[v]:
            if u == start and len(path) >= 3:
                found.add(frozenset(path))
            elif u > start and u not in onpath:
                path.append(u)
                onpath.add(u)
                walk(start, u, path, onpath)
                onpath.discard(u)
                path.pop()

    for s in range(n):
        walk(s, s, [s], {s})
    return found


def min_cycle_through(n, edges, v):
    lengths = [len(c) for c in simple_cycles(n, edges) if v in c]
    return min(lengths) if lengths else None


def min_cycle_through_by_edge_deletion(n, edges, v):
    """Shortest cycle through v without enumerating cycles: the least
    1 + dist(u, v) over the edges vu, measured with vu deleted."""
    adj = adjacency(n, edges)
    best = None
    for u in adj[v]:
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def bfs_path(g, v, target):
    """One shortest v->target path (smallest-parent tie-break), or None."""
    from minalliance.graphs import UNREACHABLE

    if v == target:
        return [v]
    dist = [UNREACHABLE] * g.n
    parent = [-1] * g.n
    dist[v] = 0
    q = deque([v])
    while q:
        x = q.popleft()
        for y in g.adj[x]:
            if dist[y] == UNREACHABLE:
                dist[y] = dist[x] + 1
                parent[y] = x
                if y == target:
                    path = [y]
                    while path[-1] != v:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                q.append(y)
    return None


def nearest_low_path_by_full_bfs(g, v):
    """The path candidate's path as `lowdeg` used to find it: a full BFS
    from v, the least (dist, x) over the other vertices of degree <= 3 that
    v reaches, then a second BFS (`bfs_path`) from v to x.  None if v
    reaches no such vertex."""
    from minalliance.graphs import UNREACHABLE, distances_from

    dist = distances_from(g, v)
    low = [
        x for x in range(g.n)
        if x != v and g.degree(x) <= 3 and dist[x] != UNREACHABLE
    ]
    if not low:
        return None
    _dx, x = min((dist[x], x) for x in low)
    return bfs_path(g, v, x)


def best_shape_at(g, v):
    """The smallest key (size, rank, witness) among v's shapes in a graph of
    maximum degree five, or None when v has none: v alone (rank 0, degree
    at most one), the path to v's nearest other vertex of degree at most
    three (rank 1, degree two or three), and the shortest cycle through v
    (rank 2).  The cycle is asked for first, so a root out of range raises
    the library's VertexRangeError.

    This is not the smallest alliance containing v in general: the centre
    of K_{1,4} needs two leaves beside it, which no shape gives."""
    from minalliance.graphs import shortest_cycle_with_vertices

    cyc = shortest_cycle_with_vertices(g, v)
    keys = [] if cyc is None else [(cyc[0], 2, cyc[1])]
    if g.degree(v) <= 1:
        keys.append((1, 0, (v,)))
    elif g.degree(v) <= 3:
        path = nearest_low_path_by_full_bfs(g, v)
        if path is not None:
            keys.append((len(path), 1, tuple(sorted(path))))
    return min(keys, default=None)


def complete_graph(n):
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n_leaves):
    return build_graph(n_leaves + 1, [(0, i + 1) for i in range(n_leaves)])


def roots_and_need(g):
    """The allowed vertices, ascending, and each vertex's need d(v) // 2:
    the neighbours it needs inside an alliance besides itself."""
    roots = [v for v in range(g.n) if v not in g.forbidden]
    return roots, [len(g.adj[v]) // 2 for v in range(g.n)]


def reference_alliances(
    g, k, roots, need, deadline, reach=None, view=None, nodes=None, *,
    force=True, thresholds=True, groups=True
):
    """`search._alliances`, with one switch per node rule: the first
    alliance of at most k vertices in the search order, then the first of
    at most |A| - 1 vertices, and so on.

    A node's bound is its deficit; with `force`, also the number of
    vertices outside S that the members force (`search._force_masks`);
    with `thresholds`, also the deficit-th smallest threshold need(c) + 1
    over the candidates, less |S|, which at a root's own node is its root
    bound less one.  With `groups`, a node whose worst member has exactly
    `deficit` candidates adds them all in one branch; without, it branches
    on c_1 alone.  With every switch off it reads nothing from
    `minalliance.search`.  It takes `view` and `nodes` for the walk's
    signature and reads neither, and reads the deadline clock, this
    module's `monotonic`, once per node."""
    from minalliance import BudgetExceeded

    if reach is None:
        reach = {}
    # a vertex is blocked while it is a member, banned or forbidden
    blocked = [v in g.forbidden for v in range(g.n)]
    nbrs = [[u for u in g.adj[v] if not blocked[u]] for v in range(g.n)]
    masks = None
    if force:
        from minalliance.search import _force_masks

        masks = _force_masks(g, nbrs, blocked)
    lack = list(need)  # need(v) - |N(v) cap S|
    members = []

    for root in roots:
        if k < 1:
            return
        blocked[root] = True
        if reach.get(root, 0) > k:
            continue
        members.append(root)
        for u in nbrs[root]:
            lack[u] -= 1
        # [candidates, candidates taken, width, |S|, bound]
        frames = []
        found = False
        least = len(roots) + 1  # least |S| + bound the budget prune cut
        while True:
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
                yield sorted(members)
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
                    if masks is not None:
                        union = 0
                        for u in members:
                            union |= masks[u]
                        bound = max(bound, union.bit_count() - size)
                    if thresholds:
                        kth = sorted([need[c] for c in cands])[deficit - 1]
                        bound = max(bound, kth + 1 - size)
                    if bound <= k - size:
                        frames.append([cands, 0, len(cands) - deficit + 1, size, bound])
                    elif size + bound < least:
                        least = size + bound
            while frames:
                frame = frames[-1]
                cands, taken, width, size, _ = frame
                while len(members) > size:
                    for u in nbrs[members.pop()]:
                        lack[u] += 1
                if taken < width:
                    # width 1: every candidate is forced
                    added = cands if groups and width == 1 else [cands[taken]]
                    for v in added:
                        blocked[v] = True
                        members.append(v)
                        for u in nbrs[v]:
                            lack[u] -= 1
                    frame[1] = taken + len(added)
                    break
                for c in cands[:taken]:
                    blocked[c] = False
                frames.pop()
            else:
                for u in nbrs[members.pop()]:
                    lack[u] += 1
                if not found:
                    reach[root] = least
                break


def reference_search(g, walk=reference_alliances, *, climbs_only=False):
    """The witness tuple of `solve_min_alliance_search`'s level schedule, or
    None, with `walk` walking each level, no root bound and no degree
    answer: lo starts at the least threshold of an allowed vertex, the
    walks share one `reach` that starts empty, and one climb, the incumbent's descent, then descent and
    climb in turn run until lo == hi.  With `climbs_only`, every level is
    a climb: the first level from lo upwards that finds an alliance gives
    the answer."""
    roots, need = roots_and_need(g)
    if not roots:
        return None
    lo = min(need[v] for v in roots) + 1
    hi = len(roots) + 1
    best = None
    if climbs_only:
        climbs = itertools.repeat(True)
    else:
        climbs = itertools.chain((True, False), itertools.cycle((False, True)))
    reach = {}
    descent = walk(g, len(roots), roots, need, None, reach)
    while lo < hi:
        if next(climbs):
            k = lo
            members = next(walk(g, k, roots, need, None, reach), None)
        else:
            k = hi - 1
            members = next(descent, None)
        if members is None:
            lo = k + 1
        else:
            best, hi = members, len(members)
    return None if best is None else tuple(best)


def reduction_instance(source, seed):
    """The reduction instance of `generate(source, seed)` at its domination
    number."""
    from minalliance import build_reduction, generate, minimum_dominating_set

    src = generate(source, seed)
    return build_reduction(src, len(minimum_dominating_set(src)))


def connected_subsets_by_sorted_lists(g, size, allowed):
    """Every `size`-vertex connected subset of `g` within `allowed`, in the
    order brute force yields them: rooted at the least vertex, extended
    through exclusive neighbourhoods from a sorted extension list."""
    adj = [set(nbrs) for nbrs in g.adj]

    def extend(sub, ext, seen, root):
        if len(sub) == size:
            yield tuple(sorted(sub))
            return
        rest = list(ext)
        while rest:
            w = rest.pop(0)
            fresh = sorted(
                u for u in adj[w] if u > root and allowed[u] and u not in seen
            )
            yield from extend(
                sub + [w], sorted(rest + fresh), seen | {w} | set(fresh), root
            )

    for root in range(g.n):
        if not allowed[root]:
            continue
        if size == 1:
            yield (root,)
            continue
        ext = sorted(u for u in adj[root] if u > root and allowed[u])
        yield from extend([root], ext, {root} | set(ext), root)


def girth_by_enumeration(n, edges):
    lengths = [len(c) for c in simple_cycles(n, edges)]
    return min(lengths) if lengths else None


def majority_protected(adj, subset):
    """The raw alliance condition: every member has at least as many closed
    neighbours inside the set as outside."""
    sset = set(subset)
    if not sset:
        return False
    for v in sset:
        inside = sum(1 for u in adj[v] if u in sset)
        outside = len(adj[v]) - inside
        if inside + 1 < outside:
            return False
    return True


def min_alliance_all_subsets(n, edges, forbidden=(), cap=None):
    """Exhaustive scan of every non-empty vertex subset, connected or not.

    Returns (size, members tuple) of the smallest alliance avoiding the
    forbidden vertices, lexicographically smallest among the winners, or
    None.  Only usable for small n.
    """
    adj = adjacency(n, edges)
    allowed = [v for v in range(n) if v not in set(forbidden)]
    top = len(allowed) if cap is None else min(cap, len(allowed))
    for k in range(1, top + 1):
        for sub in itertools.combinations(allowed, k):
            if majority_protected(adj, sub):
                return k, sub
    return None


def grid_min(objective, constraints, bounds):
    """Brute-force optimum of an integer program over its bounds box.

    Returns (value, assignment) for the first minimizer in lexicographic
    order, or None when the box holds no feasible point.
    """
    axes = [range(lo, hi + 1) for lo, hi in bounds]
    best = None
    for point in itertools.product(*axes):
        if all(
            sum(a * x for a, x in zip(coeffs, point)) >= rhs
            for coeffs, rhs in constraints
        ):
            val = sum(c * x for c, x in zip(objective, point))
            if best is None or val < best[0]:
                best = (val, point)
    return best


def dominates(n, edges, subset):
    adj = adjacency(n, edges)
    sset = set(subset)
    return all(v in sset or adj[v] & sset for v in range(n))


def all_dominating_sets(n, edges, max_size):
    out = []
    for k in range(1, max_size + 1):
        for sub in itertools.combinations(range(n), k):
            if dominates(n, edges, sub):
                out.append(frozenset(sub))
    return out


def is_clique(n, edges, subset):
    eset = {(min(a, b), max(a, b)) for a, b in edges}
    return all(
        (min(a, b), max(a, b)) in eset
        for a, b in itertools.combinations(sorted(set(subset)), 2)
    )


def smallest_clique_modulators(n, edges):
    """All minimum-size vertex sets whose removal leaves a clique."""
    rest = lambda sub: [v for v in range(n) if v not in set(sub)]
    for k in range(n + 1):
        hits = [
            frozenset(sub)
            for sub in itertools.combinations(range(n), k)
            if is_clique(n, edges, rest(sub))
        ]
        if hits:
            return hits
    raise AssertionError("unreachable: removing all vertices leaves a clique")


def is_twin_cover_oracle(n, edges, cover):
    """Definition check: every edge is covered or joins true twins."""
    adj = adjacency(n, edges)
    cset = set(cover)
    for a, b in edges:
        if a in cset or b in cset:
            continue
        if adj[a] | {a} != adj[b] | {b}:
            return False
    return True


def remainder_is_clique_by_pairs(g, modulator):
    """Every pair of vertices outside `modulator` is adjacent."""
    mod = set(modulator)
    rest = [v for v in range(g.n) if v not in mod]
    return all(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2))


def _cover_signature(g, v, cover):
    return tuple(sorted(cover.intersection(g.adj[v])))


def partition_twin_classes_by_pairs(g, modulator):
    """(modulator, [(signature, members)]) of a clique remainder grouped by
    modulator signature, checked pair by pair; raises as the library does."""
    from minalliance.graphs import VertexRangeError
    from minalliance.params import RemainderNotCliqueError

    mod = set(modulator)
    for v in mod:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"modulator vertex {v} out of range")
    if not remainder_is_clique_by_pairs(g, mod):
        raise RemainderNotCliqueError("removing the modulator must leave a clique")
    groups = {}
    for v in range(g.n):
        if v not in mod:
            groups.setdefault(_cover_signature(g, v, mod), []).append(v)
    return tuple(sorted(mod)), sorted((sig, tuple(vs)) for sig, vs in groups.items())


def partition_clique_sets_by_dfs(g, cover):
    """(cover, [(signature, members, cliques)]) of a twin cover: the
    remainder components found by depth-first search, each checked to be a
    clique of one cover signature, grouped by signature with the cliques in
    (size, lex) order; raises as the library does."""
    from minalliance.graphs import VertexRangeError
    from minalliance.params import InvalidTwinCoverError

    cov = set(cover)
    for v in cov:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"cover vertex {v} out of range")
    if not is_twin_cover_oracle(g.n, g.edges, cov):
        raise InvalidTwinCoverError("not a twin cover")
    seen = set()
    groups = {}
    for root in range(g.n):
        if root in cov or root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            for y in g.adj[stack.pop()]:
                if y not in cov and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comp = tuple(sorted(comp))
        sig = _cover_signature(g, comp[0], cov)
        for v in comp:
            if _cover_signature(g, v, cov) != sig:
                raise InvalidTwinCoverError(f"component {comp} has mixed cover signatures")
            if not all(g.has_edge(v, u) for u in comp if u != v):
                raise InvalidTwinCoverError(f"component {comp} is not a clique")
        groups.setdefault(sig, []).append(comp)
    return tuple(sorted(cov)), [
        (
            sig,
            tuple(sorted(v for cl in cliques for v in cl)),
            tuple(sorted(cliques, key=lambda cl: (len(cl), cl))),
        )
        for sig, cliques in sorted(groups.items())
    ]


def smallest_twin_covers(n, edges):
    for k in range(n + 1):
        hits = [
            frozenset(sub)
            for sub in itertools.combinations(range(n), k)
            if is_twin_cover_oracle(n, edges, sub)
        ]
        if hits:
            return hits
    raise AssertionError("unreachable: the whole vertex set is a twin cover")


def lex_first_min_cover(edges, k_max):
    """The first vertex cover of `edges` in (size, sorted tuple) order, as a
    frozenset, or None when every cover has more than k_max vertices."""
    ends = sorted({v for edge in edges for v in edge})
    for k in range(min(k_max, len(ends)) + 1):
        for sub in itertools.combinations(ends, k):
            chosen = set(sub)
            if all(a in chosen or b in chosen for a, b in edges):
                return frozenset(sub)
    return None


def gadget_estimate_oracle(budget):
    """Least integer e with e >= ((budget+1) * 10000 / 2871) ** (871/250),
    settled purely in integer arithmetic."""
    num = ((budget + 1) * 10000) ** 871
    den = 2871 ** 871
    lo, hi = 1, 2
    while hi ** 250 * den < num:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 250 * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def milp_min_alliance_size(n, edges, forbidden=()):
    """Optimum alliance size from `scipy.optimize.milp` (HiGHS), or None.

    The 0-1 program states the raw majority comparison: a chosen vertex v
    with `inside` neighbours chosen needs 1 + inside >= d(v) - inside, that
    is 2 * sum_{u in N(v)} x_u - (d(v) - 1) * x_v >= 0; plus sum x >= 1 and
    x_f = 0 for forbidden f.  scipy is imported here, so the module loads
    without it.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    adj = adjacency(n, edges)
    rows = np.zeros((n + 1, n))
    for v in range(n):
        for u in adj[v]:
            rows[v, u] = 2
        rows[v, v] = -(len(adj[v]) - 1)
    rows[n, :] = 1
    lower = np.zeros(n + 1)
    lower[n] = 1
    upper = np.ones(n)
    upper[list(set(forbidden))] = 0
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(rows, lower, np.inf),
        integrality=np.ones(n),
        bounds=Bounds(np.zeros(n), upper),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise AssertionError(f"milp stopped without a verdict: {res.message}")
    return round(res.fun)
