import random

import pytest

from minalliance import build_graph

# 4-cycle (0,1,3,2) tied by the bridge 3-4 to a K5 on {4..8}; degrees run
# from 2 to 5, so every solver case shows up on one 9-vertex instance.
SQUARE_BRIDGE_CLIQUE_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
    (4, 5), (4, 6), (4, 7), (4, 8),
    (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
]

# Triangular prism: two triangles {0,1,2}, {3,4,5} joined by a perfect
# matching; the smallest 3-regular graph that is not K4.
TRIANGULAR_PRISM_EDGES = [
    (0, 1), (0, 2), (0, 5), (1, 2), (1, 3),
    (2, 4), (3, 4), (3, 5), (4, 5),
]


@pytest.fixture
def square_bridge_clique():
    return build_graph(9, SQUARE_BRIDGE_CLIQUE_EDGES)


@pytest.fixture
def triangular_prism():
    return build_graph(6, TRIANGULAR_PRISM_EDGES)


@pytest.fixture
def search_turns(monkeypatch):
    """What each turn of `solve_min_alliance_search` finds, in order, None
    for nothing: a climb runs one fresh walk of `search._alliances`, a
    descent turn resumes the one walk of every descent."""
    import minalliance.search as search

    walk = search._alliances
    turns = []

    def counted(*args):
        for found in walk(*args):
            turns.append(found)
            yield found
        turns.append(None)

    monkeypatch.setattr(search, "_alliances", counted)
    return turns


def _relabelled(nx_graph, rng):
    n = nx_graph.number_of_nodes()
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in nx_graph.edges()]
    return build_graph(n, edges)


@pytest.fixture(scope="session")
def atlas_corpus():
    """Every connected graph with 1 <= n <= 7 and max degree <= 5, one per
    isomorphism class, under a seeded random relabelling."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(20240801)
    graphs = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or not nx.is_connected(ag):
            continue
        if max((d for _v, d in ag.degree()), default=0) > 5:
            continue
        graphs.append(_relabelled(ag, rng))
    return graphs
