"""The general branch and bound: exactness, forbidden vertices, budget."""

import random

import pytest

from minalliance import (
    BudgetExceeded,
    brute_force_min_alliance,
    build_graph,
    extract_dominating_set,
    generate,
    protection_threshold,
    solve_min_alliance_search,
    verify_alliance,
)

from _oracles import milp_min_alliance_size, reduction_instance, reference_search


def test_no_allowed_vertex_has_no_alliance():
    assert solve_min_alliance_search(build_graph(3, [(0, 1), (1, 2)], [0, 1, 2])) is None


def test_isolated_vertex_is_an_alliance():
    sol = solve_min_alliance_search(build_graph(3, [(1, 2)]))
    assert sol.members == (0,) and sol.valid


def test_forbidden_neighbours_can_leave_no_alliance():
    # the centre of a star needs two of its four forbidden leaves
    g = build_graph(5, [(0, i) for i in range(1, 5)], [1, 2, 3, 4])
    assert solve_min_alliance_search(g) is None
    assert brute_force_min_alliance(g) is None


def test_square_bridge_clique(square_bridge_clique):
    sol = solve_min_alliance_search(square_bridge_clique)
    assert sol.members == (0, 1) and sol.valid


def test_disconnected_union_of_low_degree_parts():
    # two C5s and a P20 whose first end is forbidden: lowdeg takes neither
    # a disconnected graph nor forbidden vertices, search takes both
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    edges = cycle + [(a + 5, b + 5) for a, b in cycle]
    edges += [(i, i + 1) for i in range(10, 29)]
    sol = solve_min_alliance_search(build_graph(30, edges, [10]))
    assert sol.members == (29,)


def test_budget_lower_bound_is_proven(monkeypatch):
    import minalliance.search as search

    g = generate("degcap:n=30,dmax=8", 1)
    start = min(protection_threshold(g.degree(v)) for v in range(g.n))
    bounds = []
    for reads in (1, 30, 300, 3000, 30000):
        ticks = iter(range(reads))
        # the clock stands still for `reads` reads, then jumps past any deadline
        monkeypatch.setattr(
            search, "monotonic", lambda: 0.0 if next(ticks, None) is not None else 1e9
        )
        try:
            sol = solve_min_alliance_search(g, time_limit=1.0)
        except BudgetExceeded as stop:
            # no incumbent before the first descent, then one no smaller
            # than the proven bound
            assert stop.alliance is None or (
                verify_alliance(g, stop.alliance.members).valid
                and stop.alliance.size >= stop.lower_bound
            )
            assert f"searching size {stop.lower_bound}" in str(stop)
            bounds.append(stop.lower_bound)
        else:
            bounds.append(sol.size)
    assert bounds[0] == start
    assert bounds == sorted(bounds)
    assert bounds[-1] == 8  # the optimum, once the clock never runs out


@pytest.mark.parametrize("handoff", [1, 8, 20, 300, 3000, 4500, 4773])
def test_the_stall_hook_runs_once_at_the_solves_node_count(monkeypatch, handoff):
    import minalliance.search as search

    # 4 773 nodes over five climbs and five descent turns; the climbs and the
    # descent share one count, and each node reads the deadline clock once
    # after the read that sets the deadline
    g = generate("degcap:n=30,dmax=8", 1)
    want = solve_min_alliance_search(g).members
    reads, calls = [], []
    monkeypatch.setattr(search, "monotonic", lambda: reads.append(None) or 0.0)
    monkeypatch.setattr(search, "HANDOFF_NODES", handoff)
    sol = solve_min_alliance_search(g, time_limit=1.0, stall=lambda: calls.append(len(reads)))
    assert len(reads) == 4774
    assert calls == ([] if handoff == 4773 else [handoff + 1])
    assert sol.members == want  # a hook that returns leaves the walk where it stood


@pytest.mark.parametrize("source", ["cubic:n=4", "cubic:n=6", "cubic:n=8", "cubic:n=10"])
def test_reduction_targets_reach_k_prime(source):
    inst = reduction_instance(source, 1)
    sol = solve_min_alliance_search(inst.target)
    assert sol.valid
    assert sol.size == inst.k_prime
    assert len(extract_dominating_set(inst, sol.members)) <= inst.k


@pytest.mark.parametrize("source, most", [("cubic:n=6", 26), ("cubic:n=8", 32)])
def test_descent_bounds_the_levels_run(source, most, search_turns):
    # a climb alone runs 38 and 54 levels: every size from the threshold 3
    # up to the optimum 40 or 56; climbs and descent turns count alike
    inst = reduction_instance(source, 1)
    assert solve_min_alliance_search(inst.target).size == inst.k_prime
    assert len(search_turns) <= most


def _union(a, b):
    return build_graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("recipe", [
    ("reduction", "cubic:n=4"),
    ("reduction", "cubic:n=6"),
    *(("gen", f"degcap:n={n},dmax={d}") for n in (12, 16, 20, 24) for d in (6, 7, 8)),
    ("union", "cubic:n=12", "cubic:n=14"),
    ("union", "cubic:n=14", "cubic:n=14"),
])
def test_witness_matches_climb_only(recipe, seed):
    kind, spec, *other = recipe
    if kind == "reduction":
        g = reduction_instance(spec, seed).target
    elif kind == "union":
        g = _union(generate(spec, seed), generate(other[0], seed + 100))
    else:
        g = generate(spec, seed)
    assert solve_min_alliance_search(g).members == reference_search(g, climbs_only=True)


def _dense_graph(n, variant):
    """G(n, p) with average degree 4..9; vertices of degree <= 2 and, for
    variants 1 and 2, a tenth or a fifth of the rest are forbidden."""
    rng = random.Random(f"{n}/{variant}")
    p = rng.uniform(4, 9) / n
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    forbidden = [v for v in range(n) if deg[v] <= 2 or rng.random() < 0.1 * variant]
    return build_graph(n, edges, forbidden)


@pytest.mark.parametrize("variant", [0, 1, 2])
@pytest.mark.parametrize("n", range(25, 61, 5))
def test_size_matches_milp_above_brute_force(n, variant):
    pytest.importorskip("scipy.optimize")
    g = _dense_graph(n, variant)
    sol = solve_min_alliance_search(g)
    expected = milp_min_alliance_size(g.n, g.edges, g.forbidden)
    assert (None if sol is None else sol.size) == expected
    assert (None if sol is None else sol.members) == reference_search(g, climbs_only=True)
    if sol is not None:
        assert verify_alliance(g, sol.members).valid


@pytest.mark.parametrize(
    "spec, seed",
    [("cliqueplus:n=8,k=2", seed) for seed in range(1, 7)]
    + [("cliqueplus:n=12,k=3", seed) for seed in range(1, 7)]
    + [("cliqueplus:n=14,k=4", seed) for seed in range(1, 5)]
    + [("cliqueplus:n=16,k=5", seed) for seed in range(1, 4)]
    + [("cliqueplus:n=18,k=6", seed) for seed in range(1, 3)],
)
def test_cliqueplus_optimum_matches_brute_force(spec, seed):
    # optima near n / 2, where the root bound starts the climb
    g = generate(spec, seed)
    sol = solve_min_alliance_search(g)
    assert sol.valid
    assert sol.size == brute_force_min_alliance(g).size
