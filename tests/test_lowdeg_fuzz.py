"""Differential fuzzing of the low-degree solver against brute force and
against the best of every root's shapes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from minalliance import brute_force_min_alliance, build_graph, solve_min_alliance_lowdeg

from test_lowdeg import best_of_all_subproblems


@st.composite
def _lowdeg_graphs(draw):
    """A connected graph on up to 12 vertices with maximum degree five: a
    random tree, each vertex hung from an earlier one of degree < 5, then
    a random prefix of a random order of all vertex pairs, each added while
    both ends have degree < 5 (a long prefix leaves few vertices of degree
    three or less, so that cycles win)."""
    n = draw(st.integers(1, 12))
    degree = [0] * n
    edges = set()

    def add(a, b):
        edges.add((min(a, b), max(a, b)))
        degree[a] += 1
        degree[b] += 1

    for v in range(1, n):
        add(v, draw(st.sampled_from([u for u in range(v) if degree[u] < 5])))
    pairs = draw(st.permutations([(a, b) for a in range(n) for b in range(a + 1, n)]))
    for a, b in pairs[:draw(st.integers(0, len(pairs)))]:
        if (a, b) not in edges and degree[a] < 5 and degree[b] < 5:
            add(a, b)
    return build_graph(n, sorted(edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lowdeg_graphs())
def test_lowdeg_agrees_with_brute_force_and_its_subproblems(g):
    sol = solve_min_alliance_lowdeg(g)
    assert sol.size == brute_force_min_alliance(g).size
    assert sol.valid
    assert solve_min_alliance_lowdeg(g) == sol
    size, _rank, witness = best_of_all_subproblems(g)
    assert (sol.size, sol.members) == (size, witness)
