"""Alliance semantics: threshold, verifier, brute-force oracle."""

import random

import pytest

from minalliance import (
    SearchGuardError,
    brute_force_min_alliance,
    build_graph,
    degree_alliance,
    generate,
    protection_threshold,
    solve_min_alliance_search,
    verify_alliance,
)
from minalliance.graphs import VertexRangeError

from _oracles import complete_graph, min_alliance_all_subsets, simple_cycles


@pytest.mark.parametrize(
    "degree,needed",
    [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (11, 6)],
)
def test_protection_threshold_table(degree, needed):
    assert protection_threshold(degree) == needed


def test_protection_threshold_rejects_negative():
    with pytest.raises(ValueError):
        protection_threshold(-1)


def test_verify_valid_triangle_in_clique(square_bridge_clique):
    sol = verify_alliance(square_bridge_clique, {4, 5, 6})
    assert sol.valid
    assert sol.members == (4, 5, 6)
    assert sol.size == 3
    assert sol.violations == ()


def test_verify_empty_set_invalid():
    sol = verify_alliance(complete_graph(3), set())
    assert not sol.valid
    assert sol.size == 0


def test_verify_exposed_hub_violation(square_bridge_clique):
    sol = verify_alliance(square_bridge_clique, {4})
    assert not sol.valid
    assert sol.violations == ((4, 1, 3),)


def test_verify_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        verify_alliance(complete_graph(2), {7})


def test_verify_forbidden_member_invalidates():
    g = build_graph(2, [(0, 1)], forbidden=[1])
    assert verify_alliance(g, {0, 1}).valid is False
    # protection itself holds, so no violation entries are recorded
    assert verify_alliance(g, {0, 1}).violations == ()
    assert verify_alliance(g, {0}).valid


def test_brute_force_on_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sol = brute_force_min_alliance(g)
    assert sol.size == 2
    assert sol.members == (0, 1)  # lexicographically smallest optimum


def test_brute_force_on_k1():
    sol = brute_force_min_alliance(build_graph(1, []))
    assert sol.size == 1 and sol.members == (0,)


def test_brute_force_reference(square_bridge_clique):
    sol = brute_force_min_alliance(square_bridge_clique)
    assert sol.size == 2
    assert sol.valid


def test_brute_force_size_cap():
    g = complete_graph(6)  # minimum alliance has three vertices
    assert brute_force_min_alliance(g, size_cap=2) is None
    assert brute_force_min_alliance(g, size_cap=3).size == 3


def test_brute_force_respects_forbidden():
    g = build_graph(3, [(0, 1), (1, 2)], forbidden=[0, 2])
    sol = brute_force_min_alliance(g)
    # with both leaves blocked, only the middle vertex remains; its lone
    # defender cannot hold a degree-2 post, and {1} is not an alliance
    assert sol is None or 0 not in sol.members
    assert sol is None


def test_brute_force_guard():
    g = build_graph(25, [(i, i + 1) for i in range(24)])
    with pytest.raises(SearchGuardError):
        brute_force_min_alliance(g)
    assert brute_force_min_alliance(g, max_n=25).size == 1


def test_result_always_reverifies():
    for seed in range(25):
        g = generate("degcap:n=8,dmax=5", seed)
        sol = brute_force_min_alliance(g)
        assert sol is not None and sol.valid
        assert verify_alliance(g, sol.members).valid


@pytest.mark.parametrize("seed", range(40))
def test_brute_force_matches_all_subsets_scan(seed):
    """Connected-subset search equals the scan over every subset (n <= 8),
    which also certifies that restricting to connected sets loses nothing."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45
    ]
    g = build_graph(n, edges)
    want = min_alliance_all_subsets(n, edges)
    got = brute_force_min_alliance(g)
    assert want is not None and got is not None
    assert got.size == want[0]
    assert got.members == want[1]


def test_monotone_slack():
    """Growing a valid alliance never strips defenders from old members."""
    rng = random.Random(7)
    for seed in range(20):
        g = generate("degcap:n=9,dmax=5", seed)
        sol = brute_force_min_alliance(g)
        members = set(sol.members)
        extra = [v for v in range(g.n) if v not in members]
        rng.shuffle(extra)
        inside = {
            v: 1 + sum(1 for u in g.adj[v] if u in members) for v in members
        }
        for v in extra[:3]:
            members.add(v)
            for w in sol.members:
                now = 1 + sum(1 for u in g.adj[w] if u in members)
                assert now >= inside[w]


def test_cycles_are_alliances_when_degree_small():
    # Degree <= 5 members on a cycle keep two defenders against <= 3 others.
    for seed in range(12):
        g = generate("degcap:n=8,dmax=5", 50 + seed)
        for cyc in simple_cycles(g.n, g.edges):
            assert verify_alliance(g, cyc).valid


def test_forbidden_counts_toward_degree():
    # blocked neighbours still raise the threshold of their neighbour
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)], forbidden=[2, 3])
    # d(0)=3 so 0 needs 2 defenders and has exactly {0,1}: protected.
    assert verify_alliance(g, {0, 1}).valid
    g2 = build_graph(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], forbidden=[2, 3, 4, 5]
    )
    sol2 = verify_alliance(g2, {0, 1})
    # d(0)=5 needs 3 defenders; the four blocked leaves push 0 under.
    assert not sol2.valid
    assert sol2.violations == ((0, 2, 3),)


@pytest.mark.parametrize("seed", range(40))
def test_degree_alliance_answers_exactly_the_optima_of_at_most_two(seed):
    """The answer read off the degrees exists exactly when brute force finds
    an alliance of at most two vertices, and then it is brute force's and
    the search's witness: the least leaf, else the least low edge."""
    rng = random.Random(f"degree-alliance/{seed}")
    small = 0
    for _ in range(100):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.25, 0.5, 0.8))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        forbidden = [v for v in range(n) if rng.random() < 0.2] if rng.random() < 0.5 else []
        g = build_graph(n, edges, forbidden)
        got = degree_alliance(g)
        ref = brute_force_min_alliance(g, size_cap=2)
        if ref is None:
            assert got is None
            continue
        small += 1
        assert got == ref.members
        assert solve_min_alliance_search(g).members == got
    assert small > 0
