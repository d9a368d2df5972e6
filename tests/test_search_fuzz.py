"""Differential fuzzing of the branch and bound: against brute force, and
against the reference walk with every rule, or with one rule switched off."""

import functools
import itertools
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from minalliance import (
    brute_force_min_alliance,
    build_graph,
    generate,
    solve_min_alliance_search,
)
import minalliance.search as search
from minalliance.search import _alliance_within, _alliances

import _oracles
from _oracles import (
    majority_protected,
    reduction_instance,
    reference_alliances,
    reference_search,
    roots_and_need,
)


@st.composite
def _part(draw, max_n):
    """(n, edges) with sparse and dense edge sets alike."""
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        chosen = set(pairs) - chosen
    return n, sorted(chosen)


@st.composite
def _graphs(draw):
    """Up to 12 vertices: one part, or two with no edge between them, and
    any set of forbidden vertices."""
    n, edges = draw(_part(8))
    n2, edges2 = draw(_part(4)) if draw(st.booleans()) else (0, [])
    edges += [(a + n, b + n) for a, b in edges2]
    n += n2
    forbidden = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return build_graph(n, edges, forbidden)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_graphs())
def test_search_agrees_with_brute_force(g):
    sol = solve_min_alliance_search(g)
    assert (None if sol is None else sol.members) == reference_search(g, climbs_only=True)
    ref = brute_force_min_alliance(g)
    if ref is None:
        assert sol is None
        return
    assert sol.size == ref.size
    assert sol.valid
    assert solve_min_alliance_search(g) == sol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_graphs())
def test_a_level_finds_its_first_alliance_at_its_size(g):
    # why the schedule never runs the optimum level again for the witness
    roots, need = roots_and_need(g)
    for k in range(1, len(roots) + 1):
        found = _alliance_within(g, k, roots, need, None)
        if found is not None:
            assert _alliance_within(g, len(found), roots, need, None) == found


def _restarted_levels(g, roots, need):
    """What fresh levels find from n' down, each at one below the last find."""
    restarts, k = [], len(roots)
    while (found := _alliance_within(g, k, roots, need, None)) is not None:
        restarts.append(found)
        k = len(found) - 1
    return restarts


def _assert_resumed_walk_restarts_each_level(g):
    # the descent's one walk finds what a fresh level hi - 1 would, turn by turn
    roots, need = roots_and_need(g)
    restarts = _restarted_levels(g, roots, need)
    assert list(_alliances(g, len(roots), roots, need, None)) == restarts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_graphs())
def test_resumed_descent_equals_restarted_levels(g):
    _assert_resumed_walk_restarts_each_level(g)


@pytest.mark.parametrize("source", ["cubic:n=4", "cubic:n=6"])
def test_resumed_descent_equals_restarted_levels_on_reduction_targets(source):
    _assert_resumed_walk_restarts_each_level(reduction_instance(source, 1).target)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_shared_reach_changes_no_level(g, rng):
    # one `reach` dict across levels in any order, then the descent: every
    # walk finds what a walk with a fresh dict finds
    roots, need = roots_and_need(g)
    reach = {}
    levels = list(range(1, len(roots) + 1)) * 2
    rng.shuffle(levels)
    for k in levels:
        assert _alliance_within(g, k, roots, need, None, reach) == _alliance_within(
            g, k, roots, need, None
        )
    restarts = _restarted_levels(g, roots, need)
    assert list(_alliances(g, len(roots), roots, need, None, reach)) == restarts


@st.composite
def _graphs_with_tight_vertices(draw):
    """`_graphs`, then forbidden leaves planted at some allowed vertices: each
    gets as many forbidden neighbours as allowed ones, or one more, where
    leaves can do that, and then needs every allowed neighbour (is tight)."""
    g = draw(_graphs())
    n, edges, forbidden = g.n, list(g.edges), set(g.forbidden)
    for v in sorted(draw(st.sets(st.integers(0, g.n - 1), min_size=1))):
        allowed = sum(u not in g.forbidden for u in g.adj[v])
        leaves = 2 * allowed + draw(st.integers(0, 1)) - len(g.adj[v])
        if v in g.forbidden or leaves < 0:
            continue
        edges += [(v, u) for u in range(n, n + leaves)]
        forbidden.update(range(n, n + leaves))
        n += leaves
    return build_graph(n, edges, forbidden)


def _finds_and_reads(module, walk, g, k, roots, need, first_only):
    """What a walk finds, its first find alone or all of them, and how often
    it reads `module`'s deadline clock on the way."""
    reads = []
    with mock.patch.object(module, "monotonic", lambda: reads.append(None) or 0.0):
        walk_finds = walk(g, k, roots, need, 1.0)
        finds = [next(walk_finds, None)] if first_only else list(walk_finds)
    return finds, len(reads)


def _assert_walk_matches(g, reference):
    # every level's first find and the descent's finds are the reference's;
    # a rule the reference walks without only cuts nodes.  Returns the
    # clock reads of every run, the walk's and the reference's.
    roots, need = roots_and_need(g)
    runs = [(k, True) for k in range(1, len(roots) + 1)] + [(len(roots), False)]
    total = ref_total = 0
    for k, first_only in runs:
        finds, reads = _finds_and_reads(search, _alliances, g, k, roots, need, first_only)
        ref_finds, ref_reads = _finds_and_reads(
            _oracles, reference, g, k, roots, need, first_only
        )
        assert finds == ref_finds
        assert reads <= ref_reads
        total, ref_total = total + reads, ref_total + ref_reads
    return total, ref_total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graphs_with_tight_vertices())
def test_forced_vertex_bound_keeps_the_deficit_walk_finds(g):
    deficit_only = functools.partial(reference_alliances, force=False, thresholds=False)
    _assert_walk_matches(g, deficit_only)
    _assert_walk_matches(build_graph(g.n, g.edges), deficit_only)


@pytest.mark.parametrize("source", ["cubic:n=4", "cubic:n=6"])
def test_forced_vertex_bound_keeps_the_deficit_walk_finds_on_reduction_targets(source):
    # the forced vertices around the pads cut nodes: 4 059 and 13 209 clock
    # reads over every run, against 5 013 and 17 817 without the force bound
    g = reduction_instance(source, 1).target
    _assert_walk_matches(g, functools.partial(reference_alliances, force=False, thresholds=False))
    reads, ref_reads = _assert_walk_matches(g, functools.partial(reference_alliances, force=False))
    assert reads < ref_reads


def _solve_counting_reads(g, walk):
    """The optimum size, or None, that the search finds with `walk` as its
    walk, and how often the search and the walk read their deadline clocks."""
    reads = []
    clock = lambda: reads.append(None) or 0.0
    with mock.patch.object(search, "_alliances", walk), mock.patch.object(
        search, "monotonic", clock
    ), mock.patch.object(_oracles, "monotonic", clock):
        sol = solve_min_alliance_search(g, time_limit=1.0)
    return (None if sol is None else sol.size), len(reads)


def test_reach_bounds_the_nodes_on_a_reduction_target():
    # one deadline read per node, plus one for the deadline itself: 283, 728
    # and 1 660 nodes on these targets, against 432, 1 344 and 3 982 when
    # each forced candidate took a node of its own
    pins = [("cubic:n=4", 24, 300), ("cubic:n=6", 40, 800), ("cubic:n=8", 56, 1800)]
    for source, size, most in pins:
        found, reads = _solve_counting_reads(reduction_instance(source, 1).target, _alliances)
        assert found == size
        assert reads - 1 <= most


@st.composite
def _graphs_with_heavy_neighbourhoods(draw):
    """`_graphs`, then forbidden leaves: up to two at every vertex, and two
    to five more at each neighbour of one or two centres, which raise the
    thresholds around a centre above its own without changing the allowed
    subgraph."""
    g = draw(_graphs())
    n, edges, forbidden = g.n, list(g.edges), set(g.forbidden)
    centres = draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=2))
    for v in range(g.n):
        heavy = any(c in centres for c in g.adj[v])
        leaves = draw(st.integers(0, 2)) + (draw(st.integers(2, 5)) if heavy else 0)
        edges += [(v, w) for w in range(n, n + leaves)]
        forbidden.update(range(n, n + leaves))
        n += leaves
    return build_graph(n, edges, forbidden)


_bound_cases = st.one_of(
    _graphs(), _graphs_with_tight_vertices(), _graphs_with_heavy_neighbourhoods()
)


def _assert_reference_is_the_walk(g):
    # no run reads the clock more often than the reference, so equal sums
    # mean equal reads run by run: each switch removes its rule alone
    reads, ref_reads = _assert_walk_matches(g, reference_alliances)
    assert reads == ref_reads


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_bound_cases)
def test_reference_with_every_rule_is_the_walk(g):
    _assert_reference_is_the_walk(g)


@pytest.mark.parametrize("source", ["cubic:n=4", "cubic:n=6"])
def test_reference_with_every_rule_is_the_walk_on_reduction_targets(source):
    _assert_reference_is_the_walk(reduction_instance(source, 1).target)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_bound_cases)
def test_root_bound_and_degree_answer_keep_the_witness(g):
    sol = solve_min_alliance_search(g)
    assert (None if sol is None else sol.members) == reference_search(
        g, functools.partial(reference_alliances, thresholds=False)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_bound_cases)
def test_no_alliance_falls_below_its_least_vertex_root_bound(g):
    # every set of allowed vertices with least vertex r and fewer than
    # bound(r) vertices fails the raw majority condition
    roots, need = roots_and_need(g)
    bounds = search._allowed_view(g, roots, need)[4]
    for r in roots:
        above = [v for v in roots if v > r]
        for size in range(min(bounds[r] - 1, len(above) + 1)):
            for rest in itertools.combinations(above, size):
                assert not majority_protected(g.adj, (r, *rest))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bound_cases)
def test_threshold_node_bound_keeps_the_walk_finds(g):
    # against the walk without the threshold bound: the same finds at every
    # level and in the descent, with no more nodes
    _assert_walk_matches(g, functools.partial(reference_alliances, thresholds=False))


@pytest.mark.parametrize(
    "spec, seed",
    [("cliqueplus:n=24,k=4", 1), ("cliqueplus:n=30,k=2", 2), ("cliqueplus:n=40,k=3", 8)],
)
def test_threshold_node_bound_keeps_the_walk_finds_on_cliqueplus(spec, seed):
    # the clique's thresholds lie above most levels: the bound cuts nodes
    reads, ref_reads = _assert_walk_matches(
        generate(spec, seed), functools.partial(reference_alliances, thresholds=False)
    )
    assert reads < ref_reads


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_bound_cases)
def test_forced_groups_keep_the_optimum(g):
    # against the walk that adds each forced candidate at a node of its own:
    # the finds above the optimum may come in another order, the optimum not
    assert (
        _solve_counting_reads(g, _alliances)[0]
        == _solve_counting_reads(g, functools.partial(reference_alliances, groups=False))[0]
    )


@pytest.mark.parametrize("source", ["cubic:n=4", "cubic:n=6", "cubic:n=8"])
def test_forced_groups_keep_the_optimum_on_reduction_targets(source):
    # the pads' forced neighbours join in one branch each: fewer nodes
    inst = reduction_instance(source, 1)
    size, reads = _solve_counting_reads(inst.target, _alliances)
    ref_size, ref_reads = _solve_counting_reads(
        inst.target, functools.partial(reference_alliances, groups=False)
    )
    assert size == ref_size == inst.k_prime
    assert reads < ref_reads
