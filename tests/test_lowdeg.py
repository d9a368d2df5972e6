"""Low-degree exact solver: the global minimum against its per-root definition."""

import dataclasses
import random

import pytest

from minalliance import (
    BudgetExceeded,
    InternalVerificationError,
    brute_force_min_alliance,
    build_graph,
    generate,
    is_connected,
    solve_min_alliance_lowdeg,
    verify_alliance,
)
from minalliance.graphs import VertexRangeError, shortest_cycle_with_vertices
from minalliance.lowdeg import DegreeBoundError, _nearest_low_path

from _oracles import best_shape_at, cycle_graph, nearest_low_path_by_full_bfs


def circulant(n, step, label=None):
    """C_n(1, step), vertex i renamed label[i]: 4-regular for n >= 7 and
    step in (2, 3)."""
    label = label or range(n)
    edges = {
        tuple(sorted((label[i], label[(i + d) % n]))) for i in range(n) for d in (1, step)
    }
    return build_graph(n, sorted(edges))


SINGLETON, PATH, CYCLE = 0, 1, 2  # the ranks in a key (size, rank, witness)


def best_of_all_subproblems(g):
    """The definition the two-pass solver must equal: the smallest
    (size, rank, witness) over every root's shapes."""
    return min(key for v in range(g.n) if (key := best_shape_at(g, v)) is not None)


def test_subproblem_at_the_hub(square_bridge_clique):
    size, rank, witness = best_shape_at(square_bridge_clique, 4)
    assert (size, rank) == (3, CYCLE)
    assert 4 in witness
    assert verify_alliance(square_bridge_clique, witness).valid


def test_subproblem_star_leaf():
    g = build_graph(6, [(0, i) for i in range(1, 6)])
    assert best_shape_at(g, 3) == (1, SINGLETON, (3,))


def test_subproblem_at_cut_vertex(square_bridge_clique):
    size, rank, _witness = best_shape_at(square_bridge_clique, 3)
    assert (size, rank) == (2, PATH)


def test_subproblem_checks_vertex_range(square_bridge_clique):
    with pytest.raises(VertexRangeError):
        best_shape_at(square_bridge_clique, 9)


@pytest.mark.parametrize(
    "n,size", [(3, 2), (4, 2), (5, 2), (6, 2), (9, 2)]
)
def test_cycles_solve_small(n, size):
    assert solve_min_alliance_lowdeg(cycle_graph(n)).size == size


def test_reference_graph_minimum(square_bridge_clique):
    sol = solve_min_alliance_lowdeg(square_bridge_clique)
    assert sol.size == 2
    assert sol.valid


def test_single_vertex_graph():
    sol = solve_min_alliance_lowdeg(build_graph(1, []))
    assert sol.size == 1 and sol.members == (0,)


def test_rejects_degree_six():
    g = build_graph(7, [(0, i) for i in range(1, 7)])
    with pytest.raises(DegreeBoundError):
        solve_min_alliance_lowdeg(g)


def test_rejects_empty_and_forbidden_but_solves_disconnected():
    with pytest.raises(ValueError):
        solve_min_alliance_lowdeg(build_graph(0, []))
    with pytest.raises(ValueError):
        solve_min_alliance_lowdeg(build_graph(2, [(0, 1)], forbidden=[0]))
    # a minimum alliance lies in one component, and each root's search stays
    # in its own: the answer may sit in any component, behind none
    c8 = circulant(8, 2)
    graphs = [
        build_graph(3, [(0, 1)]),
        build_graph(12, list(c8.edges) + [(8, 9), (9, 10), (10, 11), (8, 11)]),
        build_graph(16, list(c8.edges) + [(u + 8, w + 8) for u, w in circulant(8, 3).edges]),
    ]
    rng = random.Random(31)
    while len(graphs) < 40:
        g = random_capped_graph(rng.randint(2, 12), 5, rng.uniform(0.1, 0.4), rng)
        if not is_connected(g):
            graphs.append(g)
    for g in graphs:
        sol = solve_min_alliance_lowdeg(g)
        assert sol.size == brute_force_min_alliance(g).size, (g.n, g.edges)
        assert sol.members == best_of_all_subproblems(g)[2], (g.n, g.edges)


def test_high_degree_roots_never_get_thin_witnesses():
    """Roots of degree four or five need two defenders besides themselves,
    which singletons and simple paths cannot give at the far end."""
    for seed in range(30):
        g = generate("degcap:n=10,dmax=5", 60 + seed)
        for v in range(g.n):
            if g.degree(v) in (4, 5):
                key = best_shape_at(g, v)
                if key is not None:
                    assert key[1] == CYCLE


def test_witnesses_always_verify():
    for seed in range(30):
        g = generate("degcap:n=11,dmax=5", 90 + seed)
        for v in range(g.n):
            key = best_shape_at(g, v)
            if key is not None:
                size, _rank, witness = key
                assert v in witness
                assert len(witness) == size
                assert verify_alliance(g, witness).valid


def test_deterministic_output():
    g = generate("degcap:n=12,dmax=5", 123)
    assert solve_min_alliance_lowdeg(g) == solve_min_alliance_lowdeg(g)


@pytest.mark.parametrize("seed", range(60))
def test_matches_brute_force(seed):
    n = 6 + seed % 6  # 6..11
    g = generate(f"degcap:n={n},dmax=5", 7000 + seed)
    sol = solve_min_alliance_lowdeg(g)
    ref = brute_force_min_alliance(g)
    assert sol.size == ref.size, (g.n, g.edges)
    assert sol.valid


def test_atlas_sample_agrees(atlas_corpus):
    # the full corpus is the acceptance suite's job; spot-check a slice here
    for g in atlas_corpus[::17]:
        assert solve_min_alliance_lowdeg(g).size == brute_force_min_alliance(g).size


@pytest.mark.parametrize("seed", range(122))
def test_two_passes_equal_best_of_all_subproblems(seed):
    g = generate(f"degcap:n={6 + seed % 15},dmax={4 + seed % 2}", 4000 + seed)
    assert solve_min_alliance_lowdeg(g).members == best_of_all_subproblems(g)[2]


@pytest.mark.parametrize("step", (2, 3))
@pytest.mark.parametrize("n", range(7, 21))
def test_circulants_take_the_best_cycle(n, step):
    # 4-regular: no vertex of degree <= 3, so only a cycle can win
    g = circulant(n, step)
    size, rank, witness = best_of_all_subproblems(g)
    assert rank == CYCLE
    assert solve_min_alliance_lowdeg(g).members == witness


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", range(10, 21))
def test_relabelled_circulants_take_the_best_cycle(n, seed):
    # C_n(1, 3) under a random naming: several roots of the shortest cycle
    # length find different witnesses, and a later root's may sort first
    label = list(range(n))
    random.Random(seed).shuffle(label)
    g = circulant(n, 3, label)
    assert solve_min_alliance_lowdeg(g).members == best_of_all_subproblems(g)[2]


def test_degree_four_roots_take_a_cycle_or_no_shape():
    # root 0 has degree 4, with the leaves 1 and 2 and the triangle
    # {0, 3, 4}: the alliance {0, 1, 2} sorts first but is no shape
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4),
                        (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    assert best_shape_at(g, 0) == (3, CYCLE, (0, 3, 4))
    # the centre of K_{1,4} lies on no cycle, so it has no shape, while
    # the global answer is a leaf alone
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert best_shape_at(star, 0) is None
    assert solve_min_alliance_lowdeg(star).members == (1,)


def random_capped_graph(n, dmax, p, rng):
    """G(n, p) with every edge dropped that would lift a degree above dmax;
    often disconnected."""
    deg = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p and deg[u] < dmax and deg[v] < dmax:
                deg[u] += 1
                deg[v] += 1
                edges.append((u, v))
    return build_graph(n, edges)


def far_low_graphs():
    """Graphs whose low-degree vertices are far from most roots, or out of
    their reach, or absent."""
    for n in range(8, 41, 4):
        whole = circulant(n, 2)  # 4-regular: no vertex of degree <= 3
        yield whole
        # one edge removed: its two ends, n // 2 apart, are the only ones
        cut = (n // 2, n // 2 + 1)
        yield build_graph(n, [e for e in whole.edges if e != cut])
        # a 4-regular part beside a path: the path's vertices are out of reach
        part = circulant(n - 4, 2)
        tail = [(n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 1)]
        yield build_graph(n, list(part.edges) + tail)


@pytest.mark.parametrize("seed", range(40))
def test_nearest_low_path_matches_the_full_bfs_oracle(seed):
    rng = random.Random(5000 + seed)
    graphs = [
        random_capped_graph(rng.randint(1, 40), rng.randint(1, 5), rng.uniform(0.02, 0.3), rng),
        generate(f"degcap:n={rng.randint(5, 40)},dmax={rng.randint(3, 5)}", 5000 + seed),
    ]
    if seed == 0:
        graphs += far_low_graphs()
    for g in graphs:
        for v in range(g.n):
            assert _nearest_low_path(g, v) == nearest_low_path_by_full_bfs(g, v), (g.n, g.edges, v)


def test_far_low_graphs_reach_far_and_find_none():
    lengths = set()
    for g in far_low_graphs():
        for v in range(g.n):
            path = _nearest_low_path(g, v)
            lengths.add(None if path is None else len(path))
    assert None in lengths and max(x for x in lengths if x is not None) >= 6


SPARSE_LOWDEG_SPECS = (
    "cubic:n=30", "cubic:n=38", "cubic:n=48", "cubic:n=56",
    "degcap:n=30,dmax=3", "degcap:n=32,dmax=5", "degcap:n=36,dmax=4",
    "degcap:n=40,dmax=5", "degcap:n=44,dmax=3",
)


def test_global_solve_runs_no_full_bfs(monkeypatch):
    # the sparse-lowdeg families: the witnesses with the old two-BFS path
    # search in pass 1, then the same solves with every full BFS counted,
    # also one lowdeg might import: none runs, as pass 1 stops each BFS at
    # its first low level and the input's connectivity is not checked
    import minalliance.graphs as graphs_module

    graphs = [generate(spec, seed) for spec in SPARSE_LOWDEG_SPECS for seed in range(8)]
    with monkeypatch.context() as m:
        m.setattr("minalliance.lowdeg._nearest_low_path", nearest_low_path_by_full_bfs)
        expected = [solve_min_alliance_lowdeg(g).members for g in graphs]

    full_bfs = []
    distances_from = graphs_module.distances_from

    def counting(g, v):
        full_bfs.append(v)
        return distances_from(g, v)

    monkeypatch.setattr(graphs_module, "distances_from", counting)
    monkeypatch.setattr("minalliance.lowdeg.distances_from", counting, raising=False)
    for g, members in zip(graphs, expected):
        full_bfs.clear()
        assert solve_min_alliance_lowdeg(g).members == members
        assert full_bfs == []


def test_global_solve_verifies_only_its_answer(monkeypatch):
    import minalliance.alliances as alliances

    checked = []

    def counting(g, witness):
        checked.append(tuple(witness))
        return verify_alliance(g, witness)

    monkeypatch.setattr(alliances, "verify_alliance", counting)
    for g in [generate(spec, 1) for spec in SPARSE_LOWDEG_SPECS] + [cycle_graph(6)]:
        checked.clear()
        sol = solve_min_alliance_lowdeg(g)
        assert checked == [sol.members]


def test_global_solve_rejects_an_invalid_answer(monkeypatch):
    import minalliance.alliances as alliances
    import minalliance.lowdeg as lowdeg

    def thin(g, v):  # a path of one vertex, which has degree three
        return [v]

    # C_8(1, 2) without the edge (4, 5): 4 and 5 are its only vertices of
    # degree three, and they are not adjacent, so no key has size two or
    # less and pass 1 runs the stub at both
    g = build_graph(8, [e for e in circulant(8, 2).edges if e != (4, 5)])
    with monkeypatch.context() as m:
        m.setattr(lowdeg, "_nearest_low_path", thin)
        with pytest.raises(InternalVerificationError, match="not an alliance"):
            solve_min_alliance_lowdeg(g)

    def rejecting(g, witness):
        checked = verify_alliance(g, witness)
        return dataclasses.replace(checked, valid=False)

    # the answers read off the degrees are checked too: a leaf, an edge
    monkeypatch.setattr(alliances, "verify_alliance", rejecting)
    for g in (build_graph(2, [(0, 1)]), cycle_graph(5)):
        with pytest.raises(InternalVerificationError, match="not an alliance"):
            solve_min_alliance_lowdeg(g)


def test_answers_of_size_two_or_less_run_no_search(monkeypatch):
    # every sparse-lowdeg graph whose answer has size one or two: the full
    # subproblems' answer first, then the same solves with both searches
    # failing
    graphs = [generate(spec, seed) for spec in SPARSE_LOWDEG_SPECS for seed in range(8)]
    expected = [best_of_all_subproblems(g) for g in graphs]
    picked = [(g, key[2]) for g, key in zip(graphs, expected) if key[0] <= 2]
    assert len(picked) > 0.9 * len(graphs)

    def no_search(*args):
        raise AssertionError("solve_min_alliance_lowdeg searched")

    monkeypatch.setattr("minalliance.lowdeg._nearest_low_path", no_search)
    monkeypatch.setattr("minalliance.lowdeg.shortest_cycle_with_vertices", no_search)
    for g, members in picked:
        assert solve_min_alliance_lowdeg(g).members == members


def relabelled_by_degree(g, rng):
    """g renamed so that ids fall as degrees rise (ties shuffled): the
    vertices of degree at most three, leaves first among them, get the
    highest ids, and vertex 0 one of the largest degree."""
    order = list(range(g.n))
    rng.shuffle(order)
    order.sort(key=lambda v: -g.degree(v))
    label = {v: i for i, v in enumerate(order)}
    return build_graph(g.n, [(label[u], label[w]) for u, w in g.edges])


def low_edge_far_from_zero(n):
    """C_n(1, 2) without the edges (k, k + 2) and (k + 1, k + 3), k = n // 2:
    vertex 0 has degree 4, and the only edges between two vertices of degree
    three, (k, k + 1), (k + 1, k + 2) and (k + 2, k + 3), lie n // 4 steps
    from it."""
    k = n // 2
    return build_graph(n, [e for e in circulant(n, 2).edges
                           if e not in ((k, k + 2), (k + 1, k + 3))])


@pytest.mark.parametrize("seed", range(30))
def test_degree_checks_equal_best_of_all_subproblems(seed):
    rng = random.Random(6000 + seed)
    graphs = [
        relabelled_by_degree(random_capped_graph(rng.randint(2, 30), 5, rng.uniform(0.05, 0.3), rng), rng),
        relabelled_by_degree(generate(f"degcap:n={rng.randint(6, 30)},dmax=5", 6000 + seed), rng),
        low_edge_far_from_zero(10 + seed),
    ]
    if seed % 3 == 0:
        # a leaf behind the high-degree vertices, on top of those edges
        g = low_edge_far_from_zero(10 + seed)
        graphs.append(build_graph(g.n + 1, list(g.edges) + [(1, g.n)]))
    for g in graphs:
        assert solve_min_alliance_lowdeg(g).members == best_of_all_subproblems(g)[2], (g.n, g.edges)


def test_time_limit_overrun_in_pass_1_has_no_incumbent(monkeypatch):
    import minalliance.lowdeg as lowdeg

    # no key of size two or less (see above): pass 1 starts at root 4
    g = build_graph(8, [e for e in circulant(8, 2).edges if e != (4, 5)])
    reads = iter([0.0])  # the deadline is set at 0 + 1 s; every later read is past it
    monkeypatch.setattr(lowdeg, "monotonic", lambda: next(reads, 1e9))
    with pytest.raises(BudgetExceeded, match="lowdeg pass 1") as exc:
        solve_min_alliance_lowdeg(g, time_limit=1.0)
    assert exc.value.alliance is None
    assert exc.value.lower_bound == 3


def test_time_limit_overrun_in_pass_2_carries_the_best_cycle(monkeypatch):
    import minalliance.lowdeg as lowdeg

    # 4-regular, so pass 1 has no root; the clock passes the deadline at the
    # check before root 1, after root 0's shortest cycle
    g = circulant(12, 3)
    reads = iter([0.0, 0.0])
    monkeypatch.setattr(lowdeg, "monotonic", lambda: next(reads, 1e9))
    with pytest.raises(BudgetExceeded, match="lowdeg pass 2") as exc:
        solve_min_alliance_lowdeg(g, time_limit=1.0)
    assert exc.value.alliance.valid
    assert exc.value.alliance.members == shortest_cycle_with_vertices(g, 0)[1]
    assert exc.value.lower_bound == 3


def test_no_clock_read_without_a_time_limit(monkeypatch):
    import minalliance.lowdeg as lowdeg

    graphs = [circulant(12, 3), build_graph(8, [e for e in circulant(8, 2).edges if e != (4, 5)])]
    expected = [solve_min_alliance_lowdeg(g, time_limit=60.0) for g in graphs]

    def no_clock():
        raise AssertionError("the clock was read")

    monkeypatch.setattr(lowdeg, "monotonic", no_clock)
    assert [solve_min_alliance_lowdeg(g) for g in graphs] == expected
